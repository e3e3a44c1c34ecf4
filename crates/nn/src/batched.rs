//! The batched per-example-gradient pipeline, written once for both
//! precisions: one dispatcher ([`BatchModel`]) and one cache type
//! (`BatchCache`) over element-generic layer kernels.
//!
//! [`BatchModel`] views a [`Sequential`]'s layers at an [`Elem`] type:
//! f64 (the determinism oracle) borrows the model's parameters, and the f32
//! storage mode narrows them once, when the view is built. Each kernel
//! below is written once against [`Elem`] and calls the tensor kernels
//! ([`Elem::matmul_acc`], [`Elem::matmul_nt_acc`], [`im2col_into`])
//! directly, so the accumulation order per element type is defined in
//! exactly one place. The f64 instantiation is bit-identical to the scalar
//! oracle [`Sequential::per_example_grad_scalar`]; f32 is
//! tolerance-equivalent to it.
//!
//! All kernels work on flat row-major `[B, ...]` slices; shape validation
//! stays with the dispatcher, which resolves every layer's dimensions
//! from the model's own layer structs.
//!
//! The same forward kernels carry each example, at B=1, through the layers
//! before the last batch norm when [`Sequential::update_norm_stats`]
//! refreshes the running statistics, and through every layer in
//! [`Sequential::forward`].

use std::borrow::Cow;

use dpaudit_tensor::{
    conv2d_backward_input_into, conv2d_backward_params_into, conv2d_forward_gemm_into, im2col_into,
    maxpool2d_backward, maxpool2d_forward, Conv2dDims, Elem, PoolDims, Tensor,
};

use crate::layers::Layer;
use crate::loss::softmax_cross_entropy;
use crate::model::Sequential;

/// A model's layers at element type `T`, ready for batched per-example
/// gradients. The f64 view borrows the parameters; the f32 view holds
/// narrowed copies, so build it once per model state (once per DPSGD step)
/// and reuse it for every batch of that step.
pub struct BatchModel<'a, T: Elem> {
    /// Each layer with its tensors at `T`, in canonical order: Dense
    /// `[weight, bias]`, Conv2d `[kernels, bias]`, BatchNorm2d
    /// `[gamma, beta, running mean, 1/√(var + eps)]`, none otherwise.
    layers: Vec<(&'a Layer, Vec<Cow<'a, [T]>>)>,
    dim: usize,
}

/// One layer's forward intermediates for a whole batch, consumed by its
/// backward pass. Buffers are the per-example caches concatenated in
/// example order.
enum BatchCache<T> {
    /// The layer's `[B, in_features]` input.
    Dense { input: Vec<T> },
    /// `B` concatenated im2col patch matrices and the per-example dims.
    Conv2d { patches: Vec<T>, dims: Conv2dDims },
    /// The normalised activations x̂ and the spatial plane size.
    BatchNorm2d { normalized: Vec<T>, plane: usize },
    /// Which inputs were strictly positive.
    Relu { mask: Vec<bool> },
    /// Example-relative argmax indices and the per-example dims.
    MaxPool2d { argmax: Vec<usize>, dims: PoolDims },
    /// Flatten keeps the flat buffer; nothing to restore.
    Flatten,
}

impl<'a, T: Elem> BatchModel<'a, T> {
    /// View `model` at element type `T`.
    pub fn new(model: &'a Sequential) -> Self {
        let layers = model
            .layers
            .iter()
            .map(|layer| (layer, layer_params(layer)))
            .collect();
        Self {
            layers,
            dim: model.param_count(),
        }
    }

    /// Total number of learnable parameters (the model's).
    pub fn param_count(&self) -> usize {
        self.dim
    }

    /// Losses and per-example flat parameter gradients for a labelled
    /// batch, in one batched forward/backward pass. Returns the per-example
    /// losses (the softmax cross-entropy head runs in f64 on widened
    /// logits) and the `[B, param_count]` gradient buffer at `T`, row `b`
    /// in the layout of [`Sequential::params`].
    ///
    /// # Panics
    /// Panics on an empty or ragged batch or a length mismatch.
    pub fn per_example_grads(&self, xs: &[Tensor], labels: &[usize]) -> (Vec<f64>, Vec<T>) {
        assert_eq!(xs.len(), labels.len(), "per_example_grads: length mismatch");
        let first = xs.first().expect("per_example_grads: empty batch");
        let batch = xs.len();
        let mut shape = first.shape().to_vec();
        let mut h = Vec::with_capacity(batch * first.len());
        for x in xs {
            assert_eq!(x.shape(), &shape[..], "per_example_grads: ragged batch");
            h.extend(x.data().iter().map(|&v| T::from_f64(v)));
        }

        let mut caches = Vec::with_capacity(self.layers.len());
        for (layer, params) in &self.layers {
            let (out, cache) = forward(layer, params, h, &mut shape, batch);
            caches.push(cache);
            h = out;
        }

        assert_eq!(shape.len(), 1, "per_example_grads: logits must be flat");
        let classes = shape[0];
        let mut losses = Vec::with_capacity(batch);
        let mut d = Vec::with_capacity(batch * classes);
        let mut row64 = vec![0.0; classes];
        for (row, &label) in h.chunks_exact(classes).zip(labels) {
            for (wide, &v) in row64.iter_mut().zip(row) {
                *wide = v.to_f64();
            }
            let (loss, d_row) = softmax_cross_entropy(&row64, label);
            losses.push(loss);
            d.extend(d_row.iter().map(|&v| T::from_f64(v)));
        }

        // Each layer writes its per-example segments straight into the flat
        // [B, dim] buffer. The first layer's input gradient is discarded
        // (the input is data, not a parameter), so its gemm is skipped.
        let mut flat = vec![T::ZERO; batch * self.dim];
        let mut offset = self.dim;
        for (idx, ((layer, params), cache)) in self.layers.iter().zip(caches).enumerate().rev() {
            offset -= layer.param_count();
            d = backward(
                layer,
                params,
                cache,
                d,
                &mut flat,
                (self.dim, offset),
                batch,
                idx > 0,
            );
        }
        (losses, flat)
    }
}

/// A layer's tensors at `T`, in the order the `BatchModel::layers` field
/// documents.
fn layer_params<T: Elem>(layer: &Layer) -> Vec<Cow<'_, [T]>> {
    match layer {
        Layer::Dense(d) => vec![
            T::from_f64_slice(d.weight.data()),
            T::from_f64_slice(d.bias.data()),
        ],
        Layer::Conv2d(c) => vec![
            T::from_f64_slice(c.kernels.data()),
            T::from_f64_slice(c.bias.data()),
        ],
        Layer::BatchNorm2d(b) => vec![
            T::from_f64_slice(b.gamma.data()),
            T::from_f64_slice(b.beta.data()),
            T::from_f64_slice(&b.running_mean),
            // The rsqrt runs in f64, so the f32 view holds the correctly
            // rounded f32 of the f64 statistic.
            Cow::Owned(b.inv_std().into_iter().map(T::from_f64).collect()),
        ],
        Layer::Relu | Layer::MaxPool2d(_) | Layer::Flatten => Vec::new(),
    }
}

/// Push each example's f64 activation buffer (per-example `shape`, updated
/// to the output's) through `layer` at B=1, dropping each backward cache as
/// soon as it is built. One buffer per example keeps this pass free of
/// batch-sized allocations.
pub(crate) fn forward_each(layer: &Layer, activations: &mut [Vec<f64>], shape: &mut Vec<usize>) {
    let params = layer_params::<f64>(layer);
    let input_shape = shape.clone();
    for a in activations {
        shape.clone_from(&input_shape);
        *a = forward(layer, &params, std::mem::take(a), shape, 1).0;
    }
}

/// Forward one layer over the flat `[B, ...]` batch buffer, updating the
/// per-example `shape`. Returns the output buffer and the backward cache.
fn forward<T: Elem>(
    layer: &Layer,
    p: &[Cow<'_, [T]>],
    input: Vec<T>,
    shape: &mut Vec<usize>,
    batch: usize,
) -> (Vec<T>, BatchCache<T>) {
    match layer {
        Layer::Dense(d) => {
            let (n, m) = (d.in_features(), d.out_features());
            let len: usize = shape.iter().product();
            assert_eq!(len, n, "Dense: input length {len} != in_features {n}");
            let y = dense_forward(&input, &p[0], &p[1], batch, n, m);
            *shape = vec![m];
            (y, BatchCache::Dense { input })
        }
        Layer::Conv2d(c) => {
            let dims = c.dims_for_shape(shape);
            let (out, patches) = conv_forward(&input, &p[0], &p[1], &dims, batch);
            *shape = vec![dims.out_channels, dims.out_h(), dims.out_w()];
            (out, BatchCache::Conv2d { patches, dims })
        }
        Layer::BatchNorm2d(b) => {
            assert_eq!(
                shape.len(),
                3,
                "BatchNorm2d expects [C, H, W], got {shape:?}"
            );
            assert_eq!(shape[0], b.channels(), "BatchNorm2d: channel mismatch");
            let plane = shape[1] * shape[2];
            let (out, normalized) =
                batchnorm_forward(&input, &p[0], &p[1], &p[2], &p[3], plane, batch);
            (out, BatchCache::BatchNorm2d { normalized, plane })
        }
        Layer::Relu => {
            let (out, mask) = relu_forward(&input);
            (out, BatchCache::Relu { mask })
        }
        Layer::MaxPool2d(pool) => {
            let dims = pool.dims_for_shape(shape);
            let (out, argmax) = maxpool_forward(&input, &dims, batch);
            *shape = vec![dims.channels, dims.out_h(), dims.out_w()];
            (out, BatchCache::MaxPool2d { argmax, dims })
        }
        Layer::Flatten => {
            *shape = vec![shape.iter().product()];
            (input, BatchCache::Flatten)
        }
    }
}

/// Backward one layer: consume `d_out`, write this layer's per-example
/// parameter gradients at `flat[b·stride + offset..]` (zero on entry) for
/// `(stride, offset)`, and return `d_input` — empty for a Dense or Conv2d
/// layer when `need_d_in` is false.
#[allow(clippy::too_many_arguments)]
fn backward<T: Elem>(
    layer: &Layer,
    p: &[Cow<'_, [T]>],
    cache: BatchCache<T>,
    d_out: Vec<T>,
    flat: &mut [T],
    (stride, offset): (usize, usize),
    batch: usize,
    need_d_in: bool,
) -> Vec<T> {
    match (layer, cache) {
        (Layer::Dense(d), BatchCache::Dense { input }) => dense_backward(
            &d_out,
            &input,
            &p[0],
            flat,
            stride,
            offset,
            batch,
            d.in_features(),
            d.out_features(),
            need_d_in,
        ),
        (Layer::Conv2d(_), BatchCache::Conv2d { patches, dims }) => conv_backward(
            &d_out, &patches, &p[0], &dims, flat, stride, offset, batch, need_d_in,
        ),
        (Layer::BatchNorm2d(_), BatchCache::BatchNorm2d { normalized, plane }) => {
            batchnorm_backward(
                &d_out,
                &normalized,
                &p[0],
                &p[3],
                plane,
                flat,
                stride,
                offset,
                batch,
            )
        }
        (Layer::Relu, BatchCache::Relu { mask }) => relu_backward(&d_out, &mask),
        (Layer::MaxPool2d(_), BatchCache::MaxPool2d { argmax, dims }) => {
            maxpool_backward(&d_out, &argmax, &dims)
        }
        (Layer::Flatten, BatchCache::Flatten) => d_out,
        _ => unreachable!("BatchModel: cache does not match layer kind"),
    }
}

/// Batched dense forward `Y = X·Wᵀ + b`: one gemm for the whole batch, the
/// bias joining after the dot product (matching the scalar layer's
/// add-after-matvec order). `input` is `[B, in_f]`, `weight` is
/// `[out_f, in_f]`; returns `[B, out_f]`.
fn dense_forward<T: Elem>(
    input: &[T],
    weight: &[T],
    bias: &[T],
    batch: usize,
    in_f: usize,
    out_f: usize,
) -> Vec<T> {
    let mut y = vec![T::ZERO; batch * out_f];
    T::matmul_nt_acc(&mut y, input, weight, batch, in_f, out_f);
    for row in y.chunks_exact_mut(out_f) {
        for (yi, bi) in row.iter_mut().zip(bias) {
            *yi += *bi;
        }
    }
    y
}

/// Batched dense backward: `dX = dY·W` as one gemm (skipped when
/// `need_d_in` is false — the input is data, not a parameter), and each
/// example's `[dW | db]` segment written at `flat[b·stride + offset..]` as
/// the outer product `δ ⊗ x` followed by `δ`.
#[allow(clippy::too_many_arguments)]
fn dense_backward<T: Elem>(
    d_out: &[T],
    input: &[T],
    weight: &[T],
    flat: &mut [T],
    stride: usize,
    offset: usize,
    batch: usize,
    in_f: usize,
    out_f: usize,
    need_d_in: bool,
) -> Vec<T> {
    let (n, m) = (in_f, out_f);
    let mut d_in = vec![T::ZERO; if need_d_in { batch * n } else { 0 }];
    if need_d_in {
        T::matmul_acc(&mut d_in, d_out, weight, batch, m, n);
    }
    for (ex, (dy, x)) in d_out.chunks_exact(m).zip(input.chunks_exact(n)).enumerate() {
        let base = ex * stride + offset;
        let row = &mut flat[base..base + m * n + m];
        for (j, &dv) in dy.iter().enumerate() {
            for (dst, &xv) in row[j * n..(j + 1) * n].iter_mut().zip(x) {
                *dst = dv * xv;
            }
        }
        row[m * n..].copy_from_slice(dy);
    }
    d_in
}

/// Batched convolution forward: per-example `im2col` lowering and one
/// forward gemm each, writing straight into slices of batch-sized buffers.
/// Returns `(out, patches)` — the patch matrices are the backward cache.
fn conv_forward<T: Elem>(
    input: &[T],
    kernels: &[T],
    bias: &[T],
    dims: &Conv2dDims,
    batch: usize,
) -> (Vec<T>, Vec<T>) {
    let ex_len = dims.in_channels * dims.in_h * dims.in_w;
    let (rows, cols) = (dims.patch_rows(), dims.patch_cols());
    let mut patches = vec![T::ZERO; batch * rows * cols];
    let mut out = vec![T::ZERO; batch * dims.out_channels * rows];
    for ((ex, p), o) in input
        .chunks_exact(ex_len)
        .zip(patches.chunks_exact_mut(rows * cols))
        .zip(out.chunks_exact_mut(dims.out_channels * rows))
    {
        im2col_into(ex, dims, p);
        conv2d_forward_gemm_into(p, kernels, bias, dims, o);
    }
    (out, patches)
}

/// Batched convolution backward: per-example parameter gradients written
/// straight into the caller's `[dK | db]` segment of `flat`, and the input
/// gradient (the transposed convolution) computed only when `need_d_in`.
#[allow(clippy::too_many_arguments)]
fn conv_backward<T: Elem>(
    d_out: &[T],
    patches: &[T],
    kernels: &[T],
    dims: &Conv2dDims,
    flat: &mut [T],
    stride: usize,
    offset: usize,
    batch: usize,
    need_d_in: bool,
) -> Vec<T> {
    let (rows, cols) = (dims.patch_rows(), dims.patch_cols());
    let out_len = dims.out_channels * rows;
    let kernel_len = dims.out_channels * cols;
    let in_len = dims.in_channels * dims.in_h * dims.in_w;
    let mut d_in = vec![T::ZERO; if need_d_in { batch * in_len } else { 0 }];
    for (ex, (dy, p)) in d_out
        .chunks_exact(out_len)
        .zip(patches.chunks_exact(rows * cols))
        .enumerate()
    {
        let base = ex * stride + offset;
        let row = &mut flat[base..base + kernel_len + dims.out_channels];
        let (d_k, d_b) = row.split_at_mut(kernel_len);
        conv2d_backward_params_into(p, dy, dims, d_k, d_b);
        if need_d_in {
            conv2d_backward_input_into(
                kernels,
                dy,
                dims,
                &mut d_in[ex * in_len..(ex + 1) * in_len],
            );
        }
    }
    d_in
}

/// Batched frozen batch-norm forward `y = γ·(x − μ)·inv_std + β`, with the
/// per-channel statistics pre-folded into `mean`/`inv_std`. Returns
/// `(out, normalized)` — the normalized activations are the backward cache.
fn batchnorm_forward<T: Elem>(
    input: &[T],
    gamma: &[T],
    beta: &[T],
    mean: &[T],
    inv_std: &[T],
    plane: usize,
    batch: usize,
) -> (Vec<T>, Vec<T>) {
    let channels = gamma.len();
    let mut normalized = vec![T::ZERO; input.len()];
    let mut out = vec![T::ZERO; input.len()];
    for ex in 0..batch {
        let base = ex * channels * plane;
        for c in 0..channels {
            let (g, bb, m, is_c) = (gamma[c], beta[c], mean[c], inv_std[c]);
            for p in 0..plane {
                let idx = base + c * plane + p;
                let xhat = (input[idx] - m) * is_c;
                normalized[idx] = xhat;
                out[idx] = g * xhat + bb;
            }
        }
    }
    (out, normalized)
}

/// Batched frozen batch-norm backward: per-example `[dγ | dβ]` accumulated
/// in place at `flat[b·stride + offset..]` (segments zero on entry), and
/// `d_in = dy·γ·inv_std` — the statistics are constants, so the chain rule
/// is linear.
#[allow(clippy::too_many_arguments)]
fn batchnorm_backward<T: Elem>(
    d_out: &[T],
    normalized: &[T],
    gamma: &[T],
    inv_std: &[T],
    plane: usize,
    flat: &mut [T],
    stride: usize,
    offset: usize,
    batch: usize,
) -> Vec<T> {
    let channels = gamma.len();
    let ex_len = channels * plane;
    let mut d_in = vec![T::ZERO; normalized.len()];
    for ex in 0..batch {
        let ex_base = ex * ex_len;
        let base = ex * stride + offset;
        let (d_gamma, d_beta) = flat[base..base + 2 * channels].split_at_mut(channels);
        for c in 0..channels {
            let g = gamma[c];
            let is_c = inv_std[c];
            for p in 0..plane {
                let idx = ex_base + c * plane + p;
                let dy = d_out[idx];
                d_gamma[c] += dy * normalized[idx];
                d_beta[c] += dy;
                d_in[idx] = dy * g * is_c;
            }
        }
    }
    d_in
}

/// Batched ReLU forward. Returns `(out, mask)`; the mask is the backward
/// cache.
fn relu_forward<T: Elem>(input: &[T]) -> (Vec<T>, Vec<bool>) {
    let mask: Vec<bool> = input.iter().map(|&x| x > T::ZERO).collect();
    let out: Vec<T> = input
        .iter()
        .map(|&x| if x > T::ZERO { x } else { T::ZERO })
        .collect();
    (out, mask)
}

/// Batched ReLU backward: gradients pass where the mask is set.
fn relu_backward<T: Elem>(d_out: &[T], mask: &[bool]) -> Vec<T> {
    assert_eq!(d_out.len(), mask.len(), "ReLU backward: length mismatch");
    d_out
        .iter()
        .zip(mask)
        .map(|(&g, &m)| if m { g } else { T::ZERO })
        .collect()
}

/// Batched max-pool forward. Returns `(out, argmax)`; the argmax indices
/// are the backward cache.
fn maxpool_forward<T: Elem>(input: &[T], dims: &PoolDims, batch: usize) -> (Vec<T>, Vec<usize>) {
    let ex_len = dims.channels * dims.in_h * dims.in_w;
    let out_len = dims.channels * dims.out_h() * dims.out_w();
    let mut out = Vec::with_capacity(batch * out_len);
    let mut argmax = Vec::with_capacity(batch * out_len);
    for ex in input.chunks_exact(ex_len) {
        let (o, a) = maxpool2d_forward(ex, dims);
        out.extend_from_slice(&o);
        argmax.extend_from_slice(&a);
    }
    (out, argmax)
}

/// Batched max-pool backward: scatter each gradient to its argmax source.
fn maxpool_backward<T: Elem>(d_out: &[T], argmax: &[usize], dims: &PoolDims) -> Vec<T> {
    let out_len = dims.channels * dims.out_h() * dims.out_w();
    let batch = d_out.len() / out_len;
    let mut d_in = Vec::with_capacity(batch * dims.channels * dims.in_h * dims.in_w);
    for (dy, am) in d_out
        .chunks_exact(out_len)
        .zip(argmax.chunks_exact(out_len))
    {
        d_in.extend_from_slice(&maxpool2d_backward(dy, am, dims));
    }
    d_in
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::{BatchNorm2d, Conv2d, Dense, MaxPool2d};
    use dpaudit_math::seeded_rng;
    use rand::Rng;

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
        Tensor::from_vec(shape, (0..n).map(|_| rng.gen_range(-1.0..1.0)).collect())
    }

    /// The f32 pipeline must agree with the f64 oracle within a tolerance
    /// band scaled to single-precision accumulation depth.
    fn assert_grads_close(model: &Sequential, xs: &[Tensor], labels: &[usize]) {
        let (losses64, grads64) = model.per_example_grads(xs, labels);
        let narrow = BatchModel::<f32>::new(model);
        assert_eq!(narrow.param_count(), model.param_count());
        let (losses32, grads32) = narrow.per_example_grads(xs, labels);
        for (a, b) in losses64.iter().zip(&losses32) {
            assert!((a - b).abs() < 1e-4, "loss differs: {a} vs {b}");
        }
        assert_eq!(grads32.len(), grads64.len());
        for (i, (g64, g32)) in grads64.data().iter().zip(&grads32).enumerate() {
            let diff = (g64 - f64::from(*g32)).abs();
            let tol = 1e-4 + 1e-3 * g64.abs();
            assert!(diff < tol, "grad[{i}] differs: {g64} vs {g32}");
        }
    }

    #[test]
    fn mlp_f32_grads_match_f64_within_tolerance() {
        let model = tiny_mlp(3);
        let xs: Vec<Tensor> = (0..7).map(|i| example(100 + i, &[6])).collect();
        let labels = vec![0, 1, 2, 0, 1, 2, 0];
        assert_grads_close(&model, &xs, &labels);
    }

    #[test]
    fn cnn_f32_grads_match_f64_within_tolerance() {
        let model = tiny_cnn(5);
        let xs: Vec<Tensor> = (0..5).map(|i| example(200 + i, &[1, 8, 8])).collect();
        let labels = vec![2, 0, 1, 1, 2];
        assert_grads_close(&model, &xs, &labels);
    }

    #[test]
    fn f32_batch_rows_match_single_example_runs() {
        // Row b of the batched result equals the B=1 run on example b —
        // the f32 pipeline keeps per-example independence exactly.
        let model = tiny_cnn(9);
        let narrow = BatchModel::<f32>::new(&model);
        let xs: Vec<Tensor> = (0..3).map(|i| example(300 + i, &[1, 8, 8])).collect();
        let labels = vec![0, 2, 1];
        let (_, grads) = narrow.per_example_grads(&xs, &labels);
        let dim = narrow.param_count();
        for (b, (x, &y)) in xs.iter().zip(&labels).enumerate() {
            let (_, solo) = narrow.per_example_grads(std::slice::from_ref(x), &[y]);
            for (i, (batched, single)) in
                grads[b * dim..(b + 1) * dim].iter().zip(&solo).enumerate()
            {
                assert_eq!(
                    batched.to_bits(),
                    single.to_bits(),
                    "example {b} grad {i}: {batched} vs {single}"
                );
            }
        }
    }
}
