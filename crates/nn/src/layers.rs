//! Network layers: their parameters, canonical parameter order and updates.
//!
//! The layer passes every production path runs are the batched kernels of
//! [`crate::BatchModel`]. The example-at-a-time `forward` (an output plus a
//! cache of what the backward pass needs) and `backward` (the input
//! gradient plus the flat parameter gradient in canonical order) here are
//! crate-private: they serve only as the oracle behind
//! [`crate::Sequential::per_example_grad_scalar`].

use dpaudit_tensor::{
    conv2d_backward, conv2d_forward, matvec, matvec_transposed, maxpool2d_backward,
    maxpool2d_forward, outer_product, Conv2dDims, PoolDims, Tensor,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::init::glorot_uniform;

/// Per-layer forward intermediates required by the backward pass.
#[derive(Debug, Clone)]
pub(crate) enum Cache {
    /// Dense layer cache.
    Dense {
        /// The layer's input vector.
        input: Tensor,
    },
    /// Convolution cache.
    Conv2d {
        /// The layer's input volume.
        input: Tensor,
        /// The spatial dimensions resolved at forward time.
        dims: Conv2dDims,
    },
    /// Batch-norm cache.
    BatchNorm2d {
        /// The normalised (pre-scale) activations x̂.
        normalized: Tensor,
        /// Per-channel `1/√(var + eps)`.
        inv_std: Vec<f64>,
    },
    /// ReLU cache.
    Relu {
        /// Which inputs were strictly positive.
        mask: Vec<bool>,
    },
    /// Max-pooling cache.
    MaxPool2d {
        /// Flat input index of each window maximum.
        argmax: Vec<usize>,
        /// The pooling dimensions resolved at forward time.
        dims: PoolDims,
    },
    /// Flatten cache.
    Flatten {
        /// The original input shape to restore on backward.
        shape: Vec<usize>,
    },
}

/// Fully connected layer `y = W·x + b` with `W: [out, in]`, `b: [out]`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Dense {
    /// Row-major weight matrix, shape `[out_features, in_features]`.
    pub weight: Tensor,
    /// Bias vector, shape `[out_features]`.
    pub bias: Tensor,
}

impl Dense {
    /// Glorot-initialised dense layer.
    pub fn new<R: Rng + ?Sized>(rng: &mut R, in_features: usize, out_features: usize) -> Self {
        Self {
            weight: Tensor::from_vec(
                &[out_features, in_features],
                glorot_uniform(rng, in_features, out_features, in_features * out_features),
            ),
            bias: Tensor::zeros(&[out_features]),
        }
    }

    pub(crate) fn in_features(&self) -> usize {
        self.weight.shape()[1]
    }

    pub(crate) fn out_features(&self) -> usize {
        self.weight.shape()[0]
    }
}

/// 2-D convolution layer (valid padding, stride 1).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Conv2d {
    /// Kernels, shape `[out_channels, in_channels, k_h, k_w]`.
    pub kernels: Tensor,
    /// Per-output-channel bias, shape `[out_channels]`.
    pub bias: Tensor,
}

impl Conv2d {
    /// Glorot-initialised convolution with square `k × k` kernels.
    pub fn new<R: Rng + ?Sized>(
        rng: &mut R,
        in_channels: usize,
        out_channels: usize,
        k: usize,
    ) -> Self {
        let fan_in = in_channels * k * k;
        let fan_out = out_channels * k * k;
        let n = out_channels * in_channels * k * k;
        Self {
            kernels: Tensor::from_vec(
                &[out_channels, in_channels, k, k],
                glorot_uniform(rng, fan_in, fan_out, n),
            ),
            bias: Tensor::zeros(&[out_channels]),
        }
    }

    /// Resolve spatial dimensions from a `[C, H, W]` example shape.
    ///
    /// # Panics
    /// Panics on a wrong rank, a channel mismatch or a kernel larger than
    /// the input.
    pub(crate) fn dims_for_shape(&self, is: &[usize]) -> Conv2dDims {
        let ks = self.kernels.shape();
        assert_eq!(is.len(), 3, "Conv2d expects a [C, H, W] input, got {is:?}");
        assert_eq!(
            is[0], ks[1],
            "Conv2d: input has {} channels, kernels expect {}",
            is[0], ks[1]
        );
        assert!(
            ks[2] <= is[1] && ks[3] <= is[2],
            "conv2d: kernel larger than input"
        );
        Conv2dDims {
            in_channels: ks[1],
            out_channels: ks[0],
            in_h: is[1],
            in_w: is[2],
            k_h: ks[2],
            k_w: ks[3],
        }
    }
}

/// Frozen-statistics batch normalisation over the channel dimension of a
/// `[C, H, W]` volume.
///
/// Normalisation uses `running_mean` / `running_var`, which are *state*, not
/// parameters: they are refreshed from clean batches by
/// [`crate::Sequential::update_norm_stats`] and treated as constants by the
/// backward pass. `gamma` (scale) and `beta` (shift) are learnable.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BatchNorm2d {
    /// Learnable per-channel scale.
    pub gamma: Tensor,
    /// Learnable per-channel shift.
    pub beta: Tensor,
    /// Running per-channel mean (state).
    pub running_mean: Vec<f64>,
    /// Running per-channel variance (state).
    pub running_var: Vec<f64>,
    /// Exponential-moving-average momentum for the running statistics.
    pub momentum: f64,
    /// Variance floor added before the square root.
    pub eps: f64,
}

impl BatchNorm2d {
    /// Identity-initialised batch norm for `channels` feature maps.
    pub fn new(channels: usize) -> Self {
        Self {
            gamma: Tensor::full(&[channels], 1.0),
            beta: Tensor::zeros(&[channels]),
            running_mean: vec![0.0; channels],
            running_var: vec![1.0; channels],
            momentum: 0.9,
            eps: 1e-5,
        }
    }

    pub(crate) fn channels(&self) -> usize {
        self.gamma.len()
    }

    /// Per-channel `1/√(var + eps)` of the running statistics.
    pub(crate) fn inv_std(&self) -> Vec<f64> {
        self.running_var
            .iter()
            .map(|&v| 1.0 / (v + self.eps).sqrt())
            .collect()
    }

    /// Fold a batch's per-channel mean/variance into the running statistics.
    pub fn update_stats(&mut self, batch_mean: &[f64], batch_var: &[f64]) {
        assert_eq!(
            batch_mean.len(),
            self.channels(),
            "update_stats: mean length"
        );
        assert_eq!(batch_var.len(), self.channels(), "update_stats: var length");
        for c in 0..self.channels() {
            self.running_mean[c] =
                self.momentum * self.running_mean[c] + (1.0 - self.momentum) * batch_mean[c];
            self.running_var[c] =
                self.momentum * self.running_var[c] + (1.0 - self.momentum) * batch_var[c];
        }
    }
}

/// Max pooling with a square window and stride equal to the window.
#[derive(Debug, Clone, Copy, Serialize, Deserialize)]
pub struct MaxPool2d {
    /// Window (and stride) size.
    pub pool: usize,
}

impl MaxPool2d {
    /// Resolve pooling dimensions from a `[C, H, W]` example shape.
    pub(crate) fn dims_for_shape(&self, is: &[usize]) -> PoolDims {
        assert_eq!(
            is.len(),
            3,
            "MaxPool2d expects a [C, H, W] input, got {is:?}"
        );
        PoolDims {
            channels: is[0],
            in_h: is[1],
            in_w: is[2],
            pool_h: self.pool,
            pool_w: self.pool,
        }
    }
}

/// A network layer. Enum dispatch keeps the hot per-example-gradient loop
/// free of virtual calls and lets caches be plain data.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub enum Layer {
    /// Fully connected.
    Dense(Dense),
    /// 2-D convolution.
    Conv2d(Conv2d),
    /// Frozen-stats batch normalisation.
    BatchNorm2d(BatchNorm2d),
    /// Rectified linear unit.
    Relu,
    /// Max pooling.
    MaxPool2d(MaxPool2d),
    /// Collapse `[C, H, W]` (or any shape) to a flat vector.
    Flatten,
}

impl Layer {
    /// Number of learnable parameters.
    pub fn param_count(&self) -> usize {
        match self {
            Layer::Dense(d) => d.weight.len() + d.bias.len(),
            Layer::Conv2d(c) => c.kernels.len() + c.bias.len(),
            Layer::BatchNorm2d(b) => b.gamma.len() + b.beta.len(),
            Layer::Relu | Layer::MaxPool2d(_) | Layer::Flatten => 0,
        }
    }

    /// Append this layer's parameters to `out` in canonical order.
    pub fn append_params(&self, out: &mut Vec<f64>) {
        match self {
            Layer::Dense(d) => {
                out.extend_from_slice(d.weight.data());
                out.extend_from_slice(d.bias.data());
            }
            Layer::Conv2d(c) => {
                out.extend_from_slice(c.kernels.data());
                out.extend_from_slice(c.bias.data());
            }
            Layer::BatchNorm2d(b) => {
                out.extend_from_slice(b.gamma.data());
                out.extend_from_slice(b.beta.data());
            }
            Layer::Relu | Layer::MaxPool2d(_) | Layer::Flatten => {}
        }
    }

    /// Load this layer's parameters from the front of `params`; returns the
    /// number of values consumed.
    pub fn load_params(&mut self, params: &[f64]) -> usize {
        let n = self.param_count();
        assert!(params.len() >= n, "load_params: not enough values");
        match self {
            Layer::Dense(d) => {
                let (w, b) = params[..n].split_at(d.weight.len());
                d.weight.data_mut().copy_from_slice(w);
                d.bias.data_mut().copy_from_slice(b);
            }
            Layer::Conv2d(c) => {
                let (k, b) = params[..n].split_at(c.kernels.len());
                c.kernels.data_mut().copy_from_slice(k);
                c.bias.data_mut().copy_from_slice(b);
            }
            Layer::BatchNorm2d(bn) => {
                let (g, b) = params[..n].split_at(bn.gamma.len());
                bn.gamma.data_mut().copy_from_slice(g);
                bn.beta.data_mut().copy_from_slice(b);
            }
            Layer::Relu | Layer::MaxPool2d(_) | Layer::Flatten => {}
        }
        n
    }

    /// In-place gradient-descent update `θ ← θ − lr·g` from the front of
    /// `grad`; returns the number of gradient values consumed.
    pub fn apply_step(&mut self, grad: &[f64], lr: f64) -> usize {
        let n = self.param_count();
        assert!(grad.len() >= n, "apply_step: not enough gradient values");
        match self {
            Layer::Dense(d) => {
                let (gw, gb) = grad[..n].split_at(d.weight.len());
                for (w, g) in d.weight.data_mut().iter_mut().zip(gw) {
                    *w -= lr * g;
                }
                for (b, g) in d.bias.data_mut().iter_mut().zip(gb) {
                    *b -= lr * g;
                }
            }
            Layer::Conv2d(c) => {
                let (gk, gb) = grad[..n].split_at(c.kernels.len());
                for (k, g) in c.kernels.data_mut().iter_mut().zip(gk) {
                    *k -= lr * g;
                }
                for (b, g) in c.bias.data_mut().iter_mut().zip(gb) {
                    *b -= lr * g;
                }
            }
            Layer::BatchNorm2d(bn) => {
                let (gg, gb) = grad[..n].split_at(bn.gamma.len());
                for (p, g) in bn.gamma.data_mut().iter_mut().zip(gg) {
                    *p -= lr * g;
                }
                for (p, g) in bn.beta.data_mut().iter_mut().zip(gb) {
                    *p -= lr * g;
                }
            }
            Layer::Relu | Layer::MaxPool2d(_) | Layer::Flatten => {}
        }
        n
    }

    /// Forward pass on a single example, producing the output and the cache
    /// for [`Layer::backward`].
    pub(crate) fn forward(&self, input: &Tensor) -> (Tensor, Cache) {
        match self {
            Layer::Dense(d) => {
                assert_eq!(
                    input.len(),
                    d.in_features(),
                    "Dense: input length {} != in_features {}",
                    input.len(),
                    d.in_features()
                );
                let mut y = matvec(
                    d.weight.data(),
                    input.data(),
                    d.out_features(),
                    d.in_features(),
                );
                for (yi, bi) in y.iter_mut().zip(d.bias.data()) {
                    *yi += bi;
                }
                (
                    Tensor::from_vec(&[d.out_features()], y),
                    Cache::Dense {
                        input: input.clone(),
                    },
                )
            }
            Layer::Conv2d(c) => {
                let dims = c.dims_for_shape(input.shape());
                let out = conv2d_forward(input.data(), c.kernels.data(), c.bias.data(), &dims);
                (
                    Tensor::from_vec(&[dims.out_channels, dims.out_h(), dims.out_w()], out),
                    Cache::Conv2d {
                        input: input.clone(),
                        dims,
                    },
                )
            }
            Layer::BatchNorm2d(b) => {
                let is = input.shape();
                assert_eq!(is.len(), 3, "BatchNorm2d expects [C, H, W], got {is:?}");
                assert_eq!(is[0], b.channels(), "BatchNorm2d: channel mismatch");
                let plane = is[1] * is[2];
                let inv_std = b.inv_std();
                let mut normalized = vec![0.0; input.len()];
                let mut out = vec![0.0; input.len()];
                // The channel index addresses several parallel per-channel
                // arrays plus plane offsets; a range loop is the clear form.
                #[allow(clippy::needless_range_loop)]
                for c in 0..b.channels() {
                    let g = b.gamma.data()[c];
                    let bb = b.beta.data()[c];
                    let m = b.running_mean[c];
                    let is_c = inv_std[c];
                    for p in 0..plane {
                        let idx = c * plane + p;
                        let xhat = (input.data()[idx] - m) * is_c;
                        normalized[idx] = xhat;
                        out[idx] = g * xhat + bb;
                    }
                }
                (
                    Tensor::from_vec(is, out),
                    Cache::BatchNorm2d {
                        normalized: Tensor::from_vec(is, normalized),
                        inv_std,
                    },
                )
            }
            Layer::Relu => {
                let mask: Vec<bool> = input.data().iter().map(|&x| x > 0.0).collect();
                let out = input.map(|x| if x > 0.0 { x } else { 0.0 });
                (out, Cache::Relu { mask })
            }
            Layer::MaxPool2d(p) => {
                let dims = p.dims_for_shape(input.shape());
                let (out, argmax) = maxpool2d_forward(input.data(), &dims);
                (
                    Tensor::from_vec(&[dims.channels, dims.out_h(), dims.out_w()], out),
                    Cache::MaxPool2d { argmax, dims },
                )
            }
            Layer::Flatten => {
                let shape = input.shape().to_vec();
                let n = input.len();
                (input.clone().reshape(&[n]), Cache::Flatten { shape })
            }
        }
    }

    /// Backward pass. Returns `(d_input, d_params)` where `d_params` follows
    /// the same canonical order as [`Layer::append_params`].
    pub(crate) fn backward(&self, d_out: &Tensor, cache: &Cache) -> (Tensor, Vec<f64>) {
        match (self, cache) {
            (Layer::Dense(d), Cache::Dense { input }) => {
                let (m, n) = (d.out_features(), d.in_features());
                assert_eq!(d_out.len(), m, "Dense backward: d_out length mismatch");
                let d_in = matvec_transposed(d.weight.data(), d_out.data(), m, n);
                let mut d_params = outer_product(d_out.data(), input.data());
                d_params.extend_from_slice(d_out.data());
                (Tensor::from_vec(&[n], d_in), d_params)
            }
            (Layer::Conv2d(c), Cache::Conv2d { input, dims }) => {
                let (d_in, d_k, d_b) =
                    conv2d_backward(input.data(), c.kernels.data(), d_out.data(), dims);
                let mut d_params = d_k;
                d_params.extend_from_slice(&d_b);
                (
                    Tensor::from_vec(&[dims.in_channels, dims.in_h, dims.in_w], d_in),
                    d_params,
                )
            }
            (
                Layer::BatchNorm2d(b),
                Cache::BatchNorm2d {
                    normalized,
                    inv_std,
                },
            ) => {
                let is = normalized.shape();
                let plane = is[1] * is[2];
                let mut d_in = vec![0.0; normalized.len()];
                let mut d_gamma = vec![0.0; b.channels()];
                let mut d_beta = vec![0.0; b.channels()];
                #[allow(clippy::needless_range_loop)]
                for c in 0..b.channels() {
                    let g = b.gamma.data()[c];
                    let is_c = inv_std[c];
                    for p in 0..plane {
                        let idx = c * plane + p;
                        let dy = d_out.data()[idx];
                        d_gamma[c] += dy * normalized.data()[idx];
                        d_beta[c] += dy;
                        // Stats are constants, so the chain rule is linear.
                        d_in[idx] = dy * g * is_c;
                    }
                }
                let mut d_params = d_gamma;
                d_params.extend_from_slice(&d_beta);
                (Tensor::from_vec(is, d_in), d_params)
            }
            (Layer::Relu, Cache::Relu { mask }) => {
                assert_eq!(d_out.len(), mask.len(), "ReLU backward: length mismatch");
                let d_in: Vec<f64> = d_out
                    .data()
                    .iter()
                    .zip(mask)
                    .map(|(&g, &m)| if m { g } else { 0.0 })
                    .collect();
                (Tensor::from_vec(d_out.shape(), d_in), Vec::new())
            }
            (Layer::MaxPool2d(_), Cache::MaxPool2d { argmax, dims }) => {
                let d_in = maxpool2d_backward(d_out.data(), argmax, dims);
                (
                    Tensor::from_vec(&[dims.channels, dims.in_h, dims.in_w], d_in),
                    Vec::new(),
                )
            }
            (Layer::Flatten, Cache::Flatten { shape }) => {
                (d_out.clone().reshape(shape), Vec::new())
            }
            _ => panic!("Layer::backward: cache does not match layer kind"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_math::seeded_rng;

    #[test]
    fn dense_forward_known() {
        let mut d = Dense::new(&mut seeded_rng(0), 2, 2);
        d.weight = Tensor::from_vec(&[2, 2], vec![1.0, 2.0, 3.0, 4.0]);
        d.bias = Tensor::from_vec(&[2], vec![0.5, -0.5]);
        let layer = Layer::Dense(d);
        let (y, _) = layer.forward(&Tensor::from_vec(&[2], vec![5.0, 6.0]));
        assert_eq!(y.data(), &[17.5, 38.5]);
    }

    #[test]
    fn dense_backward_shapes_and_values() {
        let mut d = Dense::new(&mut seeded_rng(0), 3, 2);
        d.weight = Tensor::from_vec(&[2, 3], vec![1.0, 0.0, 2.0, -1.0, 1.0, 0.0]);
        d.bias = Tensor::zeros(&[2]);
        let layer = Layer::Dense(d);
        let x = Tensor::from_vec(&[3], vec![1.0, 2.0, 3.0]);
        let (_, cache) = layer.forward(&x);
        let d_out = Tensor::from_vec(&[2], vec![1.0, 1.0]);
        let (d_in, d_params) = layer.backward(&d_out, &cache);
        // d_in = Wᵀ · d_out = [1-1, 0+1, 2+0] = [0, 1, 2]
        assert_eq!(d_in.data(), &[0.0, 1.0, 2.0]);
        // d_W = d_out ⊗ x, then d_b = d_out.
        assert_eq!(
            d_params,
            vec![1.0, 2.0, 3.0, 1.0, 2.0, 3.0, /* bias */ 1.0, 1.0]
        );
    }

    #[test]
    fn relu_masks_negatives() {
        let layer = Layer::Relu;
        let x = Tensor::from_vec(&[4], vec![-1.0, 0.0, 2.0, -3.0]);
        let (y, cache) = layer.forward(&x);
        assert_eq!(y.data(), &[0.0, 0.0, 2.0, 0.0]);
        let (d_in, _) = layer.backward(&Tensor::from_vec(&[4], vec![1.0; 4]), &cache);
        assert_eq!(d_in.data(), &[0.0, 0.0, 1.0, 0.0]);
    }

    #[test]
    fn flatten_round_trip() {
        let layer = Layer::Flatten;
        let x = Tensor::from_vec(&[2, 2, 2], (0..8).map(|i| i as f64).collect());
        let (y, cache) = layer.forward(&x);
        assert_eq!(y.shape(), &[8]);
        let (d_in, _) = layer.backward(&y, &cache);
        assert_eq!(d_in.shape(), &[2, 2, 2]);
        assert_eq!(d_in.data(), x.data());
    }

    #[test]
    fn batchnorm_identity_at_init() {
        // With running stats (0, 1), gamma=1, beta=0, eps tiny: y ≈ x.
        let layer = Layer::BatchNorm2d(BatchNorm2d::new(2));
        let x = Tensor::from_vec(&[2, 1, 2], vec![1.0, -2.0, 3.0, 0.5]);
        let (y, _) = layer.forward(&x);
        for (a, b) in y.data().iter().zip(x.data()) {
            assert!((a - b).abs() < 1e-4);
        }
    }

    #[test]
    fn batchnorm_normalizes_with_stats() {
        let mut bn = BatchNorm2d::new(1);
        bn.momentum = 0.0; // take stats verbatim
        bn.update_stats(&[10.0], &[4.0]);
        let layer = Layer::BatchNorm2d(bn);
        let x = Tensor::from_vec(&[1, 1, 2], vec![10.0, 14.0]);
        let (y, _) = layer.forward(&x);
        assert!((y.data()[0] - 0.0).abs() < 1e-3);
        assert!((y.data()[1] - 2.0).abs() < 1e-3);
    }

    #[test]
    fn batchnorm_momentum_blends() {
        let mut bn = BatchNorm2d::new(1);
        bn.momentum = 0.5;
        bn.update_stats(&[2.0], &[3.0]);
        assert!((bn.running_mean[0] - 1.0).abs() < 1e-12);
        assert!((bn.running_var[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn param_round_trip_all_layer_kinds() {
        let mut rng = seeded_rng(3);
        let layers = vec![
            Layer::Conv2d(Conv2d::new(&mut rng, 1, 2, 3)),
            Layer::BatchNorm2d(BatchNorm2d::new(2)),
            Layer::Relu,
            Layer::MaxPool2d(MaxPool2d { pool: 2 }),
            Layer::Flatten,
            Layer::Dense(Dense::new(&mut rng, 8, 4)),
        ];
        for mut layer in layers {
            let mut params = Vec::new();
            layer.append_params(&mut params);
            assert_eq!(params.len(), layer.param_count());
            // Perturb, load back, and compare.
            let perturbed: Vec<f64> = params.iter().map(|x| x + 1.0).collect();
            let consumed = layer.load_params(&perturbed);
            assert_eq!(consumed, params.len());
            let mut reread = Vec::new();
            layer.append_params(&mut reread);
            assert_eq!(reread, perturbed);
        }
    }

    #[test]
    fn apply_step_moves_against_gradient() {
        let mut layer = Layer::Dense(Dense::new(&mut seeded_rng(4), 2, 1));
        let mut before = Vec::new();
        layer.append_params(&mut before);
        let grad = vec![1.0, -2.0, 0.5];
        layer.apply_step(&grad, 0.1);
        let mut after = Vec::new();
        layer.append_params(&mut after);
        for i in 0..3 {
            assert!((after[i] - (before[i] - 0.1 * grad[i])).abs() < 1e-12);
        }
    }

    #[test]
    #[should_panic(expected = "cache does not match")]
    fn mismatched_cache_panics() {
        let layer = Layer::Relu;
        let cache = Cache::Flatten { shape: vec![1] };
        layer.backward(&Tensor::zeros(&[1]), &cache);
    }

    #[test]
    #[should_panic(expected = "channel mismatch")]
    fn batchnorm_channel_mismatch_panics() {
        let layer = Layer::BatchNorm2d(BatchNorm2d::new(3));
        layer.forward(&Tensor::zeros(&[2, 2, 2]));
    }
}
