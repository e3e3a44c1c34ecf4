//! Sequential models with flat parameter vectors and per-example gradients.

use dpaudit_tensor::{Backend, Tensor};
use serde::{Deserialize, Serialize};

use crate::batched::{forward_each, BatchModel};
use crate::layers::Layer;
use crate::loss::softmax_cross_entropy;

/// A feed-forward stack of [`Layer`]s.
///
/// Parameters are exposed as one flat `Vec<f64>` in layer order (each layer's
/// canonical internal order), which is the representation DPSGD clips and
/// perturbs and the DI adversary reasons about: the mechanism output is a
/// vector in R^d with d = [`Sequential::param_count`].
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Sequential {
    /// The layers, applied in order.
    pub layers: Vec<Layer>,
}

impl Sequential {
    /// Build from a layer list.
    pub fn new(layers: Vec<Layer>) -> Self {
        Self { layers }
    }

    /// Total number of learnable parameters.
    pub fn param_count(&self) -> usize {
        self.layers.iter().map(Layer::param_count).sum()
    }

    /// Snapshot all parameters as a flat vector.
    pub fn params(&self) -> Vec<f64> {
        let mut out = Vec::with_capacity(self.param_count());
        for layer in &self.layers {
            layer.append_params(&mut out);
        }
        out
    }

    /// Overwrite all parameters from a flat vector.
    ///
    /// # Panics
    /// Panics if `params.len() != self.param_count()`.
    pub fn set_params(&mut self, params: &[f64]) {
        assert_eq!(
            params.len(),
            self.param_count(),
            "set_params: expected {} values, got {}",
            self.param_count(),
            params.len()
        );
        let mut off = 0;
        for layer in &mut self.layers {
            off += layer.load_params(&params[off..]);
        }
    }

    /// Gradient-descent step `θ ← θ − lr·grad` over the flat layout.
    ///
    /// # Panics
    /// Panics if `grad.len() != self.param_count()`.
    pub fn gradient_step(&mut self, grad: &[f64], lr: f64) {
        assert_eq!(
            grad.len(),
            self.param_count(),
            "gradient_step: expected {} values, got {}",
            self.param_count(),
            grad.len()
        );
        let mut off = 0;
        for layer in &mut self.layers {
            off += layer.apply_step(&grad[off..], lr);
        }
    }

    /// Plain forward pass producing logits: the f64 batched layer kernels
    /// at B=1, holding one activation buffer and dropping each backward
    /// cache as soon as it is built. Bit-identical to the scalar
    /// example-at-a-time layers [`Sequential::per_example_grad_scalar`] runs.
    pub fn forward(&self, x: &Tensor) -> Tensor {
        let mut shape = x.shape().to_vec();
        let mut h = x.data().to_vec();
        for layer in &self.layers {
            forward_each(layer, std::slice::from_mut(&mut h), &mut shape);
        }
        Tensor::from_vec(&shape, h)
    }

    /// Losses and per-example flat parameter gradients for a labelled batch,
    /// computed in one batched forward/backward pass. Returns the per-example
    /// losses and a `[B, param_count]` gradient tensor.
    ///
    /// Bit-identical to calling [`Sequential::per_example_grad_scalar`] on
    /// each example — the batched layers replicate the scalar accumulation
    /// order exactly.
    ///
    /// # Panics
    /// Panics on an empty batch or a length mismatch.
    pub fn per_example_grads(&self, xs: &[Tensor], labels: &[usize]) -> (Vec<f64>, Tensor) {
        let (losses, grads) = BatchModel::<f64>::new(self).per_example_grads(xs, labels);
        (
            losses,
            Tensor::from_vec(&[xs.len(), self.param_count()], grads),
        )
    }

    /// [`Sequential::per_example_grads`] behind the [`Backend`] marker: a
    /// forward kept only because the external benchmark still calls it.
    pub fn per_example_grads_on(
        &self,
        _: Backend,
        xs: &[Tensor],
        labels: &[usize],
    ) -> (Vec<f64>, Tensor) {
        self.per_example_grads(xs, labels)
    }

    /// Loss and flat parameter gradient for a single labelled example —
    /// the per-example gradient DPSGD clips. Runs as the B=1 case of the
    /// batched pipeline.
    pub fn per_example_grad(&self, x: &Tensor, label: usize) -> (f64, Vec<f64>) {
        let (losses, grads) = self.per_example_grads(std::slice::from_ref(x), &[label]);
        (losses[0], grads.into_vec())
    }

    /// [`Sequential::per_example_grad`] behind the [`Backend`] marker: a
    /// forward kept only because the external benchmark still calls it.
    pub fn per_example_grad_on(&self, _: Backend, x: &Tensor, label: usize) -> (f64, Vec<f64>) {
        self.per_example_grad(x, label)
    }

    /// Single-example gradient on the example-at-a-time layers: the oracle
    /// the batched pipeline is tested against bit for bit, and the only
    /// caller of the scalar layer passes.
    pub fn per_example_grad_scalar(&self, x: &Tensor, label: usize) -> (f64, Vec<f64>) {
        let mut caches = Vec::with_capacity(self.layers.len());
        let mut h = x.clone();
        for layer in &self.layers {
            let (out, cache) = layer.forward(&h);
            caches.push(cache);
            h = out;
        }
        let (loss, d_logits) = softmax_cross_entropy(h.data(), label);
        let mut d = Tensor::from_vec(&[d_logits.len()], d_logits);
        // Collect per-layer gradients in reverse, then flatten forward.
        let mut per_layer = Vec::with_capacity(self.layers.len());
        for (layer, cache) in self.layers.iter().zip(&caches).rev() {
            let (d_in, d_params) = layer.backward(&d, cache);
            per_layer.push(d_params);
            d = d_in;
        }
        per_layer.reverse();
        (loss, per_layer.concat())
    }

    /// Average cross-entropy loss over a labelled set.
    pub fn mean_loss(&self, xs: &[Tensor], labels: &[usize]) -> f64 {
        assert_eq!(xs.len(), labels.len(), "mean_loss: length mismatch");
        assert!(!xs.is_empty(), "mean_loss: empty set");
        let total: f64 = xs
            .iter()
            .zip(labels)
            .map(|(x, &y)| {
                let logits = self.forward(x);
                let (loss, _) = softmax_cross_entropy(logits.data(), y);
                loss
            })
            .sum();
        total / xs.len() as f64
    }

    /// Most likely class for one example.
    pub fn predict(&self, x: &Tensor) -> usize {
        let logits = self.forward(x);
        logits
            .data()
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).expect("NaN logit"))
            .map(|(i, _)| i)
            .expect("predict: empty logits")
    }

    /// Classification accuracy over a labelled set.
    pub fn accuracy(&self, xs: &[Tensor], labels: &[usize]) -> f64 {
        assert_eq!(xs.len(), labels.len(), "accuracy: length mismatch");
        assert!(!xs.is_empty(), "accuracy: empty set");
        let correct = xs
            .iter()
            .zip(labels)
            .filter(|(x, &y)| self.predict(x) == y)
            .count();
        correct as f64 / xs.len() as f64
    }

    /// Refresh the running statistics of every [`Layer::BatchNorm2d`] from a
    /// clean forward pass over `batch` (the whole training batch), layer by
    /// layer, as TF/Keras does in training mode.
    ///
    /// Must be called before computing per-example gradients for a step so
    /// that all examples are normalised identically (frozen-stats batch
    /// norm; see the crate docs).
    ///
    /// The pass stops at the last batch norm (a model without one returns
    /// at once) and carries each example through the f64 batched layer
    /// kernels at B=1. Each channel is summed in example-major order, so the
    /// statistics are bit-identical to an example-at-a-time pass through
    /// the scalar layers.
    ///
    /// # Panics
    /// Panics on a ragged batch or a batch norm whose input is not `[C, H, W]`.
    pub fn update_norm_stats(&mut self, batch: &[Tensor]) {
        let Some(last) = self
            .layers
            .iter()
            .rposition(|l| matches!(l, Layer::BatchNorm2d(_)))
        else {
            return;
        };
        let Some(first) = batch.first() else {
            return;
        };
        let mut shape = first.shape().to_vec();
        let mut activations: Vec<Vec<f64>> = batch
            .iter()
            .map(|x| {
                assert_eq!(x.shape(), &shape[..], "update_norm_stats: ragged batch");
                x.data().to_vec()
            })
            .collect();
        for (i, layer) in self.layers[..=last].iter_mut().enumerate() {
            if let Layer::BatchNorm2d(bn) = layer {
                let (mean, var) = channel_moments(&activations, &shape);
                bn.update_stats(&mean, &var);
            }
            if i < last {
                // With the *updated* statistics for batch-norm layers.
                forward_each(layer, &mut activations, &mut shape);
            }
        }
    }
}

/// Per-channel mean and (biased) variance of `[C, H, W]` activations across
/// the batch and the spatial dims, each channel's sums taken in
/// example-major order.
fn channel_moments(activations: &[Vec<f64>], shape: &[usize]) -> (Vec<f64>, Vec<f64>) {
    assert_eq!(
        shape.len(),
        3,
        "update_norm_stats: batch norm input must be [C,H,W]"
    );
    let (channels, plane) = (shape[0], shape[1] * shape[2]);
    let count = (activations.len() * plane) as f64;
    let mut mean = vec![0.0; channels];
    for a in activations {
        for (m, values) in mean.iter_mut().zip(a.chunks_exact(plane)) {
            for &v in values {
                *m += v;
            }
        }
    }
    for m in &mut mean {
        *m /= count;
    }
    let mut var = vec![0.0; channels];
    for a in activations {
        for ((v, values), &m) in var.iter_mut().zip(a.chunks_exact(plane)).zip(&mean) {
            for &x in values {
                let d = x - m;
                *v += d * d;
            }
        }
    }
    for v in &mut var {
        *v /= count;
    }
    (mean, var)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm2d, Conv2d, Dense, MaxPool2d};
    use dpaudit_math::seeded_rng;

    fn tiny_mlp(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, 6, 5)),
            Layer::Relu,
            Layer::Dense(Dense::new(&mut rng, 5, 3)),
        ])
    }

    fn tiny_cnn(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new(vec![
            Layer::Conv2d(Conv2d::new(&mut rng, 1, 2, 3)),
            Layer::BatchNorm2d(BatchNorm2d::new(2)),
            Layer::Relu,
            Layer::MaxPool2d(MaxPool2d { pool: 2 }),
            Layer::Flatten,
            Layer::Dense(Dense::new(&mut rng, 2 * 3 * 3, 3)),
        ])
    }

    fn example(seed: u64, shape: &[usize]) -> Tensor {
        let mut rng = seeded_rng(seed);
        let n: usize = shape.iter().product();
        let data: Vec<f64> = (0..n)
            .map(|_| rand::Rng::gen_range(&mut rng, -1.0..1.0))
            .collect();
        Tensor::from_vec(shape, data)
    }

    #[test]
    fn params_round_trip() {
        let mut m = tiny_mlp(1);
        let p = m.params();
        assert_eq!(p.len(), m.param_count());
        assert_eq!(p.len(), 6 * 5 + 5 + 5 * 3 + 3);
        let doubled: Vec<f64> = p.iter().map(|x| x * 2.0).collect();
        m.set_params(&doubled);
        assert_eq!(m.params(), doubled);
    }

    #[test]
    fn gradient_step_direction() {
        let mut m = tiny_mlp(2);
        let before = m.params();
        let grad: Vec<f64> = (0..before.len()).map(|i| (i % 3) as f64 - 1.0).collect();
        m.gradient_step(&grad, 0.5);
        let after = m.params();
        for i in 0..before.len() {
            assert!((after[i] - (before[i] - 0.5 * grad[i])).abs() < 1e-12);
        }
    }

    #[test]
    fn mlp_gradient_matches_finite_differences() {
        let m = tiny_mlp(3);
        let x = example(10, &[6]);
        let label = 1;
        let (_, grad) = m.per_example_grad(&x, label);
        assert_eq!(grad.len(), m.param_count());
        let base = m.params();
        let h = 1e-6;
        let loss_at = |params: &[f64]| {
            let mut mm = m.clone();
            mm.set_params(params);
            let logits = mm.forward(&x);
            softmax_cross_entropy(logits.data(), label).0
        };
        let l0 = loss_at(&base);
        // Check a spread of parameter coordinates across all layers.
        for idx in [0usize, 7, 17, 31, 35, 40, base.len() - 1] {
            let mut p = base.clone();
            p[idx] += h;
            let num = (loss_at(&p) - l0) / h;
            assert!(
                (num - grad[idx]).abs() < 1e-4,
                "grad[{idx}]: fd {num} vs bp {}",
                grad[idx]
            );
        }
    }

    #[test]
    fn cnn_gradient_matches_finite_differences() {
        let mut m = tiny_cnn(4);
        let x = example(11, &[1, 8, 8]);
        // Give batch norm non-trivial statistics first.
        m.update_norm_stats(&[x.clone(), example(12, &[1, 8, 8])]);
        let label = 2;
        let (_, grad) = m.per_example_grad(&x, label);
        assert_eq!(grad.len(), m.param_count());
        let base = m.params();
        let h = 1e-6;
        let loss_at = |params: &[f64]| {
            let mut mm = m.clone();
            mm.set_params(params);
            let logits = mm.forward(&x);
            softmax_cross_entropy(logits.data(), label).0
        };
        let l0 = loss_at(&base);
        let step = base.len() / 11;
        for k in 0..11 {
            let idx = k * step;
            let mut p = base.clone();
            p[idx] += h;
            let num = (loss_at(&p) - l0) / h;
            assert!(
                (num - grad[idx]).abs() < 1e-4,
                "grad[{idx}]: fd {num} vs bp {}",
                grad[idx]
            );
        }
    }

    #[test]
    fn training_reduces_loss_on_tiny_problem() {
        let mut m = tiny_mlp(5);
        let xs: Vec<Tensor> = (0..6).map(|i| example(100 + i, &[6])).collect();
        let ys: Vec<usize> = (0..6).map(|i| i % 3).collect();
        let initial = m.mean_loss(&xs, &ys);
        for _ in 0..200 {
            let mut grad = vec![0.0; m.param_count()];
            for (x, &y) in xs.iter().zip(&ys) {
                let (_, g) = m.per_example_grad(x, y);
                for (a, b) in grad.iter_mut().zip(&g) {
                    *a += b;
                }
            }
            for g in &mut grad {
                *g /= xs.len() as f64;
            }
            m.gradient_step(&grad, 0.5);
        }
        let final_loss = m.mean_loss(&xs, &ys);
        assert!(
            final_loss < initial * 0.5,
            "loss did not drop: {initial} -> {final_loss}"
        );
        assert!(m.accuracy(&xs, &ys) >= 0.5);
    }

    #[test]
    fn update_norm_stats_changes_running_stats() {
        let mut m = tiny_cnn(6);
        let stats_before: Vec<(Vec<f64>, Vec<f64>)> = m
            .layers
            .iter()
            .filter_map(|l| match l {
                Layer::BatchNorm2d(b) => Some((b.running_mean.clone(), b.running_var.clone())),
                _ => None,
            })
            .collect();
        m.update_norm_stats(&[example(20, &[1, 8, 8]), example(21, &[1, 8, 8])]);
        let stats_after: Vec<(Vec<f64>, Vec<f64>)> = m
            .layers
            .iter()
            .filter_map(|l| match l {
                Layer::BatchNorm2d(b) => Some((b.running_mean.clone(), b.running_var.clone())),
                _ => None,
            })
            .collect();
        assert_eq!(stats_before.len(), 1);
        assert_ne!(stats_before, stats_after);
    }

    #[test]
    fn update_norm_stats_empty_batch_is_noop() {
        let mut m = tiny_cnn(7);
        let before = m.params();
        m.update_norm_stats(&[]);
        assert_eq!(m.params(), before);
    }

    /// The example-at-a-time statistics refresh on the scalar
    /// `Layer::forward` path, through every layer: the oracle
    /// `update_norm_stats` must match bit for bit.
    fn update_norm_stats_scalar(model: &mut Sequential, batch: &[Tensor]) {
        if batch.is_empty() {
            return;
        }
        let mut activations: Vec<Tensor> = batch.to_vec();
        for layer in &mut model.layers {
            if let Layer::BatchNorm2d(bn) = layer {
                let shape = activations[0].shape().to_vec();
                let channels = shape[0];
                let plane = shape[1] * shape[2];
                let count = (activations.len() * plane) as f64;
                let mut mean = vec![0.0; channels];
                let mut var = vec![0.0; channels];
                #[allow(clippy::needless_range_loop)] // c addresses offsets too
                for a in &activations {
                    for c in 0..channels {
                        for p in 0..plane {
                            mean[c] += a.data()[c * plane + p];
                        }
                    }
                }
                for m in &mut mean {
                    *m /= count;
                }
                for a in &activations {
                    for c in 0..channels {
                        for p in 0..plane {
                            let d = a.data()[c * plane + p] - mean[c];
                            var[c] += d * d;
                        }
                    }
                }
                for v in &mut var {
                    *v /= count;
                }
                bn.update_stats(&mean, &var);
            }
            let frozen = &*layer;
            activations = activations.iter().map(|a| frozen.forward(a).0).collect();
        }
    }

    /// Every parameter and every batch-norm running statistic, as bits.
    fn state_bits(m: &Sequential) -> Vec<u64> {
        let mut bits: Vec<u64> = m.params().iter().map(|v| v.to_bits()).collect();
        for layer in &m.layers {
            if let Layer::BatchNorm2d(b) = layer {
                bits.extend(
                    b.running_mean
                        .iter()
                        .chain(&b.running_var)
                        .map(|v| v.to_bits()),
                );
            }
        }
        bits
    }

    #[test]
    fn update_norm_stats_matches_the_scalar_oracle_bitwise() {
        let models = [
            (tiny_cnn(40), [1, 8, 8]),
            (crate::zoo::mnist_cnn(&mut seeded_rng(40)), [1, 28, 28]),
        ];
        for (model, shape) in models {
            for batch_size in [1, 2, 17] {
                let mut fast = model.clone();
                let mut oracle = model.clone();
                // Five successive refreshes blend into the running
                // statistics; nudged parameters move every batch's moments.
                for call in 0..5u64 {
                    let batch: Vec<Tensor> = (0..batch_size as u64)
                        .map(|i| example(1000 * call + i, &shape))
                        .collect();
                    fast.update_norm_stats(&batch);
                    update_norm_stats_scalar(&mut oracle, &batch);
                    assert_eq!(
                        state_bits(&fast),
                        state_bits(&oracle),
                        "{shape:?} at B={batch_size}, call {call}"
                    );
                    let nudged: Vec<f64> = fast
                        .params()
                        .iter()
                        .enumerate()
                        .map(|(i, v)| v + 0.05 * ((i as u64 + call) as f64).sin())
                        .collect();
                    fast.set_params(&nudged);
                    oracle.set_params(&nudged);
                }
            }
        }
    }

    #[test]
    fn update_norm_stats_leaves_a_batch_norm_free_model_unchanged() {
        let mut m = tiny_mlp(41);
        let before = state_bits(&m);
        let batch: Vec<Tensor> = (0..5).map(|i| example(50 + i, &[6])).collect();
        m.update_norm_stats(&batch);
        assert_eq!(state_bits(&m), before);
        update_norm_stats_scalar(&mut m, &batch);
        assert_eq!(state_bits(&m), before);
    }

    /// The scalar oracle of `forward`: the example-at-a-time
    /// `Layer::forward` chain.
    fn forward_scalar(model: &Sequential, x: &Tensor) -> Tensor {
        model
            .layers
            .iter()
            .fold(x.clone(), |h, layer| layer.forward(&h).0)
    }

    #[test]
    fn forward_helpers_match_the_scalar_layer_chain_bitwise() {
        use crate::zoo::{
            mnist_cnn, purchase_mlp, MNIST_CLASSES, PURCHASE_CLASSES, PURCHASE_FEATURES,
        };
        let mut cnn = tiny_cnn(60);
        let batch: Vec<Tensor> = (0..4).map(|i| example(600 + i, &[1, 8, 8])).collect();
        cnn.update_norm_stats(&batch);
        let models = [
            (tiny_mlp(60), vec![6], 3),
            (cnn, vec![1, 8, 8], 3),
            (
                mnist_cnn(&mut seeded_rng(61)),
                vec![1, 28, 28],
                MNIST_CLASSES,
            ),
            (
                purchase_mlp(&mut seeded_rng(62)),
                vec![PURCHASE_FEATURES],
                PURCHASE_CLASSES,
            ),
        ];
        let bits = |t: &Tensor| t.data().iter().map(|v| v.to_bits()).collect::<Vec<_>>();
        for (model, shape, classes) in &models {
            let xs: Vec<Tensor> = (0..9).map(|i| example(700 + i, shape)).collect();
            let mut ys = Vec::new();
            let mut losses = Vec::new();
            let mut correct = 0;
            for (i, x) in xs.iter().enumerate() {
                let want = forward_scalar(model, x);
                let got = model.forward(x);
                assert_eq!(got.shape(), want.shape(), "{shape:?}");
                assert_eq!(bits(&got), bits(&want), "{shape:?} example {i}");
                let pred = want
                    .data()
                    .iter()
                    .enumerate()
                    .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
                    .unwrap()
                    .0;
                assert_eq!(model.predict(x), pred, "{shape:?} example {i}");
                // Every other label is the oracle's prediction, so the
                // accuracy is neither 0 nor 1.
                let y = if i % 2 == 0 {
                    pred
                } else {
                    (pred + 1) % classes
                };
                correct += usize::from(y == pred);
                losses.push(softmax_cross_entropy(want.data(), y).0);
                ys.push(y);
            }
            let n = xs.len() as f64;
            let mean = losses.iter().sum::<f64>() / n;
            assert_eq!(model.mean_loss(&xs, &ys).to_bits(), mean.to_bits());
            let accuracy = model.accuracy(&xs, &ys);
            assert_eq!(accuracy.to_bits(), (correct as f64 / n).to_bits());
            assert!(accuracy > 0.0 && accuracy < 1.0, "{accuracy}");
        }
    }

    #[test]
    fn predict_returns_argmax_class() {
        let m = tiny_mlp(8);
        let x = example(30, &[6]);
        let logits = m.forward(&x);
        let pred = m.predict(&x);
        let max = logits
            .data()
            .iter()
            .cloned()
            .fold(f64::NEG_INFINITY, f64::max);
        assert_eq!(logits.data()[pred], max);
    }

    #[test]
    #[should_panic(expected = "expected")]
    fn set_params_length_checked() {
        tiny_mlp(9).set_params(&[0.0]);
    }

    #[test]
    fn identical_seeds_build_identical_models() {
        let a = tiny_cnn(42);
        let b = tiny_cnn(42);
        assert_eq!(a.params(), b.params());
    }
}
