//! Valid-mode 2-D convolution, forward and backward.
//!
//! The paper's MNIST reference network uses two 3×3 convolution layers. The
//! direct kernels here ([`conv2d_forward`], [`conv2d_backward`]) operate on
//! a single `[C, H, W]` volume and serve the scalar oracle layers; the
//! batched gradient pipeline lowers each example to a patch matrix
//! ([`im2col_into`]) and runs the forward pass and the parameter gradients
//! as one gemm-shaped call per example ([`conv2d_forward_gemm_into`],
//! [`conv2d_backward_params_into`]). Both routes accumulate each output
//! element in the same order — bias (or zero) first, then `(ic, u, v)` /
//! pixel terms in ascending lexicographic order — so direct and gemm
//! results are bit-identical.
//!
//! All routines are generic over the kernel element type ([`Elem`]) so the
//! f32 storage mode of the batched pipeline reuses the same code, and the
//! batched pipeline's kernels (`_into`) write into caller-owned scratch,
//! fully overwriting it.

use crate::elem::Elem;
use crate::Backend;

/// Dimensions of one convolution application.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Conv2dDims {
    /// Input channels.
    pub in_channels: usize,
    /// Output channels (number of kernels).
    pub out_channels: usize,
    /// Input height.
    pub in_h: usize,
    /// Input width.
    pub in_w: usize,
    /// Kernel height.
    pub k_h: usize,
    /// Kernel width.
    pub k_w: usize,
}

impl Conv2dDims {
    /// Output height for valid (no-padding, stride-1) convolution.
    pub fn out_h(&self) -> usize {
        self.in_h - self.k_h + 1
    }

    /// Output width for valid convolution.
    pub fn out_w(&self) -> usize {
        self.in_w - self.k_w + 1
    }

    /// Number of output pixels per channel (`out_h · out_w`) — the row
    /// count of the [`im2col_into`] patch matrix.
    pub fn patch_rows(&self) -> usize {
        self.out_h() * self.out_w()
    }

    /// Receptive-field size (`in_channels · k_h · k_w`) — the column count
    /// of the [`im2col_into`] patch matrix and the row length of one kernel.
    pub fn patch_cols(&self) -> usize {
        self.in_channels * self.k_h * self.k_w
    }

    /// Validate buffer lengths for the forward pass.
    fn check<T>(&self, input: &[T], kernels: &[T], bias: &[T]) {
        assert!(
            self.k_h <= self.in_h && self.k_w <= self.in_w,
            "conv2d: kernel larger than input"
        );
        assert_eq!(
            input.len(),
            self.in_channels * self.in_h * self.in_w,
            "conv2d: input buffer length mismatch"
        );
        assert_eq!(
            kernels.len(),
            self.out_channels * self.in_channels * self.k_h * self.k_w,
            "conv2d: kernel buffer length mismatch"
        );
        assert_eq!(
            bias.len(),
            self.out_channels,
            "conv2d: bias length mismatch"
        );
    }
}

/// Forward valid convolution: `out[oc,i,j] = b[oc] + Σ in[ic,i+u,j+v]·k[oc,ic,u,v]`.
///
/// `input` is `[C_in, H, W]`, `kernels` is `[C_out, C_in, kh, kw]`, output is
/// `[C_out, out_h, out_w]`, all row-major.
pub fn conv2d_forward<T: Elem>(
    input: &[T],
    kernels: &[T],
    bias: &[T],
    dims: &Conv2dDims,
) -> Vec<T> {
    dims.check(input, kernels, bias);
    let (oh, ow) = (dims.out_h(), dims.out_w());
    let mut out = vec![T::ZERO; dims.out_channels * oh * ow];
    for oc in 0..dims.out_channels {
        let out_plane = &mut out[oc * oh * ow..(oc + 1) * oh * ow];
        out_plane.fill(bias[oc]);
        for ic in 0..dims.in_channels {
            let in_plane = &input[ic * dims.in_h * dims.in_w..(ic + 1) * dims.in_h * dims.in_w];
            let k_base = ((oc * dims.in_channels) + ic) * dims.k_h * dims.k_w;
            for u in 0..dims.k_h {
                for v in 0..dims.k_w {
                    let kval = kernels[k_base + u * dims.k_w + v];
                    for i in 0..oh {
                        let in_row =
                            &in_plane[(i + u) * dims.in_w + v..(i + u) * dims.in_w + v + ow];
                        let out_row = &mut out_plane[i * ow..(i + 1) * ow];
                        for (o, x) in out_row.iter_mut().zip(in_row) {
                            *o += kval * *x;
                        }
                    }
                }
            }
        }
    }
    out
}

/// Lower one `[C_in, H, W]` volume into a caller-owned patch matrix buffer
/// (im2col).
///
/// `patches` must have length `patch_rows() · patch_cols()` and is fully
/// overwritten. Row `p = i·out_w + j` holds the receptive field of output
/// pixel `(i, j)`, with columns ordered `(ic, u, v)` lexicographically —
/// the same order a kernel's weights are stored in, and the same order the
/// direct kernels accumulate in.
///
/// # Panics
/// Panics if `input` or `patches` lengths disagree with `dims`.
pub fn im2col_into<T: Elem>(input: &[T], dims: &Conv2dDims, patches: &mut [T]) {
    assert_eq!(
        input.len(),
        dims.in_channels * dims.in_h * dims.in_w,
        "im2col: input buffer length mismatch"
    );
    assert_eq!(
        patches.len(),
        dims.patch_rows() * dims.patch_cols(),
        "im2col: patch buffer length mismatch"
    );
    let (oh, ow) = (dims.out_h(), dims.out_w());
    let cols = dims.patch_cols();
    for i in 0..oh {
        for j in 0..ow {
            let row = &mut patches[(i * ow + j) * cols..(i * ow + j + 1) * cols];
            let mut off = 0;
            for ic in 0..dims.in_channels {
                let in_plane = &input[ic * dims.in_h * dims.in_w..(ic + 1) * dims.in_h * dims.in_w];
                for u in 0..dims.k_h {
                    let src = (i + u) * dims.in_w + j;
                    row[off..off + dims.k_w].copy_from_slice(&in_plane[src..src + dims.k_w]);
                    off += dims.k_w;
                }
            }
        }
    }
}

/// Forward convolution as one gemm over a pre-lowered patch matrix,
/// `out[oc, p] = b[oc] + kernels_row(oc) · patchesᵀ`, writing into a
/// caller-owned output buffer (`[C_out, patch_rows]`, overwritten).
///
/// Bit-identical to [`conv2d_forward`]: the bias seeds each accumulator and
/// the `(ic, u, v)` terms are added in the same ascending order.
///
/// # Panics
/// Panics if buffer lengths disagree with `dims`.
pub fn conv2d_forward_gemm_into<T: Elem>(
    patches: &[T],
    kernels: &[T],
    bias: &[T],
    dims: &Conv2dDims,
    out: &mut [T],
) {
    let (rows, cols) = (dims.patch_rows(), dims.patch_cols());
    assert_eq!(
        patches.len(),
        rows * cols,
        "conv2d_forward_gemm: patch buffer length mismatch"
    );
    assert_eq!(
        out.len(),
        dims.out_channels * rows,
        "conv2d_forward_gemm: output buffer length mismatch"
    );
    for (oc, plane) in out.chunks_exact_mut(rows).enumerate() {
        plane.fill(bias[oc]);
    }
    T::matmul_nt_acc(out, kernels, patches, dims.out_channels, cols, rows);
}

/// [`conv2d_forward_gemm_into`] behind the [`Backend`] marker: a forward
/// kept only because the external benchmark still calls it. New code calls
/// [`conv2d_forward_gemm_into`].
pub fn conv2d_forward_gemm_on<T: Elem>(
    _: Backend,
    patches: &[T],
    kernels: &[T],
    bias: &[T],
    dims: &Conv2dDims,
    out: &mut [T],
) {
    conv2d_forward_gemm_into(patches, kernels, bias, dims, out);
}

/// Parameter gradients of the valid convolution from a patch matrix,
/// `d_kernels[oc, l] = Σ_p d_out[oc, p]·patches[p, l]` and `d_bias`, written
/// into caller-owned buffers (both fully overwritten).
///
/// `d_kernels` has kernel shape (`[C_out, patch_cols]`), `d_bias` has length
/// `C_out`. Bit-identical to the kernel-gradient half of [`conv2d_backward`]:
/// each element is a zero-seeded sum over output pixels in row-major order.
///
/// # Panics
/// Panics if buffer lengths disagree with `dims`.
pub fn conv2d_backward_params_into<T: Elem>(
    patches: &[T],
    d_out: &[T],
    dims: &Conv2dDims,
    d_kernels: &mut [T],
    d_bias: &mut [T],
) {
    let (rows, cols) = (dims.patch_rows(), dims.patch_cols());
    assert_eq!(
        d_out.len(),
        dims.out_channels * rows,
        "conv2d_backward_params: d_out length mismatch"
    );
    assert_eq!(
        patches.len(),
        rows * cols,
        "conv2d_backward_params: patch buffer length mismatch"
    );
    assert_eq!(
        d_kernels.len(),
        dims.out_channels * cols,
        "conv2d_backward_params: d_kernels length mismatch"
    );
    assert_eq!(
        d_bias.len(),
        dims.out_channels,
        "conv2d_backward_params: d_bias length mismatch"
    );
    d_kernels.fill(T::ZERO);
    T::matmul_acc(d_kernels, d_out, patches, dims.out_channels, rows, cols);
    for (db, plane) in d_bias.iter_mut().zip(d_out.chunks_exact(rows)) {
        let mut acc = T::ZERO;
        for v in plane {
            acc += *v;
        }
        *db = acc;
    }
}

/// Input gradient of the valid convolution, written into a caller-owned
/// buffer of input shape (fully overwritten).
///
/// The transposed convolution of `d_out` with the kernels, accumulated
/// directly (per `(oc, ic, u, v)` in ascending order). Both the scalar and
/// the batched pipeline share this routine, so the summation order over
/// output channels is identical.
///
/// # Panics
/// Panics if buffer lengths disagree with `dims`.
pub fn conv2d_backward_input_into<T: Elem>(
    kernels: &[T],
    d_out: &[T],
    dims: &Conv2dDims,
    d_input: &mut [T],
) {
    let (oh, ow) = (dims.out_h(), dims.out_w());
    assert_eq!(
        d_out.len(),
        dims.out_channels * oh * ow,
        "conv2d_backward_input: d_out length mismatch"
    );
    assert_eq!(
        kernels.len(),
        dims.out_channels * dims.patch_cols(),
        "conv2d_backward_input: kernel buffer length mismatch"
    );
    assert_eq!(
        d_input.len(),
        dims.in_channels * dims.in_h * dims.in_w,
        "conv2d_backward_input: d_input length mismatch"
    );
    d_input.fill(T::ZERO);
    for oc in 0..dims.out_channels {
        let d_plane = &d_out[oc * oh * ow..(oc + 1) * oh * ow];
        for ic in 0..dims.in_channels {
            let di_plane_base = ic * dims.in_h * dims.in_w;
            let k_base = ((oc * dims.in_channels) + ic) * dims.k_h * dims.k_w;
            for u in 0..dims.k_h {
                for v in 0..dims.k_w {
                    let kval = kernels[k_base + u * dims.k_w + v];
                    for i in 0..oh {
                        let d_row = &d_plane[i * ow..(i + 1) * ow];
                        let di_off = di_plane_base + (i + u) * dims.in_w + v;
                        let di_row = &mut d_input[di_off..di_off + ow];
                        for (di, d) in di_row.iter_mut().zip(d_row) {
                            *di += kval * *d;
                        }
                    }
                }
            }
        }
    }
}

/// Gradients of the valid convolution on one example.
///
/// Given the upstream gradient `d_out` (`[C_out, out_h, out_w]`), returns
/// `(d_input, d_kernels, d_bias)` with the shapes of `input`, `kernels` and
/// `bias` respectively.
pub fn conv2d_backward<T: Elem>(
    input: &[T],
    kernels: &[T],
    d_out: &[T],
    dims: &Conv2dDims,
) -> (Vec<T>, Vec<T>, Vec<T>) {
    let (oh, ow) = (dims.out_h(), dims.out_w());
    assert_eq!(
        d_out.len(),
        dims.out_channels * oh * ow,
        "conv2d_backward: d_out length mismatch"
    );
    assert_eq!(
        input.len(),
        dims.in_channels * dims.in_h * dims.in_w,
        "conv2d_backward: input length mismatch"
    );
    let mut d_kernels = vec![T::ZERO; kernels.len()];
    let mut d_bias = vec![T::ZERO; dims.out_channels];
    for oc in 0..dims.out_channels {
        let d_plane = &d_out[oc * oh * ow..(oc + 1) * oh * ow];
        let mut bias_acc = T::ZERO;
        for v in d_plane {
            bias_acc += *v;
        }
        d_bias[oc] = bias_acc;
        for ic in 0..dims.in_channels {
            let in_plane = &input[ic * dims.in_h * dims.in_w..(ic + 1) * dims.in_h * dims.in_w];
            let k_base = ((oc * dims.in_channels) + ic) * dims.k_h * dims.k_w;
            for u in 0..dims.k_h {
                for v in 0..dims.k_w {
                    let mut kgrad = T::ZERO;
                    for i in 0..oh {
                        let d_row = &d_plane[i * ow..(i + 1) * ow];
                        let in_off = (i + u) * dims.in_w + v;
                        let in_row = &in_plane[in_off..in_off + ow];
                        for (d, x) in d_row.iter().zip(in_row) {
                            kgrad += *d * *x;
                        }
                    }
                    d_kernels[k_base + u * dims.k_w + v] = kgrad;
                }
            }
        }
    }
    let mut d_input = vec![T::ZERO; input.len()];
    conv2d_backward_input_into(kernels, d_out, dims, &mut d_input);
    (d_input, d_kernels, d_bias)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dims_1ch(h: usize, w: usize, k: usize) -> Conv2dDims {
        Conv2dDims {
            in_channels: 1,
            out_channels: 1,
            in_h: h,
            in_w: w,
            k_h: k,
            k_w: k,
        }
    }

    fn pseudo(len: usize, scale: f64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 2654435761 % 1009) as f64 - 504.0) * scale)
            .collect()
    }

    #[test]
    fn identity_kernel_passes_through() {
        // 1x1 kernel of value 1 with zero bias is the identity.
        let input: Vec<f64> = (0..9).map(|i| i as f64).collect();
        let out = conv2d_forward(&input, &[1.0], &[0.0], &dims_1ch(3, 3, 1));
        assert_eq!(out, input);
    }

    #[test]
    fn known_3x3_convolution() {
        // Input 3x3 = [1..9], kernel = all ones 2x2, valid output 2x2.
        let input: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let kernel = vec![1.0; 4];
        let out = conv2d_forward(&input, &kernel, &[0.0], &dims_1ch(3, 3, 2));
        // Windows: [1,2,4,5]=12, [2,3,5,6]=16, [4,5,7,8]=24, [5,6,8,9]=28
        assert_eq!(out, vec![12.0, 16.0, 24.0, 28.0]);
    }

    #[test]
    fn bias_is_added_per_output_channel() {
        let input = vec![0.0; 9];
        let dims = Conv2dDims {
            in_channels: 1,
            out_channels: 2,
            in_h: 3,
            in_w: 3,
            k_h: 3,
            k_w: 3,
        };
        let out = conv2d_forward(&input, &[0.0; 18], &[1.5, -2.0], &dims);
        assert_eq!(out, vec![1.5, -2.0]);
    }

    #[test]
    fn multi_channel_sums_over_input_channels() {
        // Two input channels with 1x1 kernels k=[2, 3]: out = 2*a + 3*b.
        let dims = Conv2dDims {
            in_channels: 2,
            out_channels: 1,
            in_h: 2,
            in_w: 2,
            k_h: 1,
            k_w: 1,
        };
        let input = vec![1.0, 2.0, 3.0, 4.0, 10.0, 20.0, 30.0, 40.0];
        let out = conv2d_forward(&input, &[2.0, 3.0], &[0.0], &dims);
        assert_eq!(out, vec![32.0, 64.0, 96.0, 128.0]);
    }

    #[test]
    fn im2col_rows_hold_receptive_fields() {
        // Input 3x3 = [1..9], 2x2 kernel: row for output pixel (0,0) is the
        // top-left window in (ic, u, v) order.
        let input: Vec<f64> = (1..=9).map(|i| i as f64).collect();
        let dims = dims_1ch(3, 3, 2);
        let mut p = vec![0.0; dims.patch_rows() * dims.patch_cols()];
        im2col_into(&input, &dims, &mut p);
        assert_eq!(&p[0..4], &[1.0, 2.0, 4.0, 5.0]);
        assert_eq!(&p[4..8], &[2.0, 3.0, 5.0, 6.0]);
        assert_eq!(&p[12..16], &[5.0, 6.0, 8.0, 9.0]);
    }

    /// A multi-channel shape with non-square kernels for the gemm route.
    const DIMS: Conv2dDims = Conv2dDims {
        in_channels: 2,
        out_channels: 3,
        in_h: 6,
        in_w: 5,
        k_h: 3,
        k_w: 2,
    };

    fn patches_of<T: Elem>(input: &[T]) -> Vec<T> {
        let mut patches = vec![T::ZERO; DIMS.patch_rows() * DIMS.patch_cols()];
        im2col_into(input, &DIMS, &mut patches);
        patches
    }

    fn assert_same_bits<T: Elem>(got: &[T], want: &[T]) {
        assert_eq!(got.len(), want.len());
        for (g, w) in got.iter().zip(want) {
            assert_eq!(g.to_f64().to_bits(), w.to_f64().to_bits(), "{g:?} vs {w:?}");
        }
    }

    #[test]
    fn into_kernels_fully_overwrite_nan_scratch() {
        let input = pseudo(DIMS.in_channels * DIMS.in_h * DIMS.in_w, 1e-2);
        let kernels = pseudo(DIMS.out_channels * DIMS.patch_cols(), 3e-3);
        let bias = vec![0.3, -0.2, 0.1];
        let d_out = pseudo(DIMS.out_channels * DIMS.patch_rows(), 5e-3);
        // Every kernel writes into scratch pre-filled with `fill`: a value
        // left in place or accumulated onto shows as NaN in the second run.
        let run = |fill: f64| {
            let mut patches = vec![fill; DIMS.patch_rows() * DIMS.patch_cols()];
            im2col_into(&input, &DIMS, &mut patches);
            let mut fwd = vec![fill; DIMS.out_channels * DIMS.patch_rows()];
            conv2d_forward_gemm_into(&patches, &kernels, &bias, &DIMS, &mut fwd);
            let mut dk = vec![fill; kernels.len()];
            let mut db = vec![fill; bias.len()];
            conv2d_backward_params_into(&patches, &d_out, &DIMS, &mut dk, &mut db);
            let mut d_in = vec![fill; input.len()];
            conv2d_backward_input_into(&kernels, &d_out, &DIMS, &mut d_in);
            [patches, fwd, dk, db, d_in]
        };
        for (zeroed, poisoned) in run(0.0).iter().zip(&run(f64::NAN)) {
            assert!(zeroed.iter().all(|v| v.is_finite()));
            assert_same_bits(poisoned, zeroed);
        }
    }

    #[test]
    fn f32_gemm_forward_matches_direct() {
        let narrow = |v: Vec<f64>| -> Vec<f32> { v.iter().map(|&x| x as f32).collect() };
        let input = narrow(pseudo(DIMS.in_channels * DIMS.in_h * DIMS.in_w, 1e-2));
        let kernels = narrow(pseudo(DIMS.out_channels * DIMS.patch_cols(), 3e-3));
        let bias = vec![0.3f32, -0.2, 0.1];
        let direct = conv2d_forward(&input, &kernels, &bias, &DIMS);
        let mut gemm = vec![f32::NAN; direct.len()];
        conv2d_forward_gemm_into(&patches_of(&input), &kernels, &bias, &DIMS, &mut gemm);
        assert_same_bits(&gemm, &direct);
    }

    #[test]
    fn gemm_forward_is_bit_identical_to_direct() {
        let input = pseudo(DIMS.in_channels * DIMS.in_h * DIMS.in_w, 1e-2);
        let kernels = pseudo(DIMS.out_channels * DIMS.patch_cols(), 3e-3);
        let bias = vec![0.3, -0.2, 0.1];
        let direct = conv2d_forward(&input, &kernels, &bias, &DIMS);
        let mut gemm = vec![f64::NAN; direct.len()];
        conv2d_forward_gemm_into(&patches_of(&input), &kernels, &bias, &DIMS, &mut gemm);
        assert_same_bits(&gemm, &direct);
    }

    #[test]
    fn gemm_param_gradients_are_bit_identical_to_direct() {
        let input = pseudo(DIMS.in_channels * DIMS.in_h * DIMS.in_w, 1e-2);
        let kernels = pseudo(DIMS.out_channels * DIMS.patch_cols(), 3e-3);
        let d_out = pseudo(DIMS.out_channels * DIMS.patch_rows(), 5e-3);
        let (_, dk_direct, db_direct) = conv2d_backward(&input, &kernels, &d_out, &DIMS);
        let mut dk_gemm = vec![f64::NAN; dk_direct.len()];
        let mut db_gemm = vec![f64::NAN; db_direct.len()];
        let patches = patches_of(&input);
        conv2d_backward_params_into(&patches, &d_out, &DIMS, &mut dk_gemm, &mut db_gemm);
        assert_same_bits(&dk_gemm, &dk_direct);
        assert_same_bits(&db_gemm, &db_direct);
    }

    #[test]
    fn forward_propagates_nan_through_zero_kernels() {
        // A NaN input times a zero kernel weight must poison the output —
        // the old zero-skip fast path silently dropped it.
        let out = conv2d_forward(&[f64::NAN], &[0.0], &[0.0], &dims_1ch(1, 1, 1));
        assert!(out[0].is_nan());
        let mut d_in = [0.0];
        conv2d_backward_input_into(&[0.0], &[f64::NAN], &dims_1ch(1, 1, 1), &mut d_in);
        assert!(d_in[0].is_nan());
    }

    /// Finite-difference check of all three gradients.
    #[test]
    fn backward_matches_finite_differences() {
        let dims = Conv2dDims {
            in_channels: 2,
            out_channels: 3,
            in_h: 5,
            in_w: 4,
            k_h: 3,
            k_w: 2,
        };
        let input: Vec<f64> = (0..dims.in_channels * dims.in_h * dims.in_w)
            .map(|i| ((i * 37 % 17) as f64 - 8.0) * 0.1)
            .collect();
        let kernels: Vec<f64> = (0..dims.out_channels * dims.in_channels * dims.k_h * dims.k_w)
            .map(|i| ((i * 53 % 23) as f64 - 11.0) * 0.05)
            .collect();
        let bias = vec![0.3, -0.2, 0.1];

        // Scalar loss L = Σ w_ij · out_ij with fixed pseudo-random weights.
        let out = conv2d_forward(&input, &kernels, &bias, &dims);
        let weights: Vec<f64> = (0..out.len())
            .map(|i| ((i * 7 % 5) as f64 - 2.0) * 0.25)
            .collect();
        let d_out = weights.clone();
        let (d_in, d_k, d_b) = conv2d_backward(&input, &kernels, &d_out, &dims);

        let loss = |inp: &[f64], ker: &[f64], b: &[f64]| -> f64 {
            conv2d_forward(inp, ker, b, &dims)
                .iter()
                .zip(&weights)
                .map(|(o, w)| o * w)
                .sum()
        };
        let h = 1e-6;
        // Spot-check a spread of coordinates in each gradient.
        for idx in [0, 7, 19, input.len() - 1] {
            let mut p = input.clone();
            p[idx] += h;
            let num = (loss(&p, &kernels, &bias) - loss(&input, &kernels, &bias)) / h;
            assert!(
                (num - d_in[idx]).abs() < 1e-5,
                "d_input[{idx}]: {num} vs {}",
                d_in[idx]
            );
        }
        for idx in [0, 5, 17, kernels.len() - 1] {
            let mut p = kernels.clone();
            p[idx] += h;
            let num = (loss(&input, &p, &bias) - loss(&input, &kernels, &bias)) / h;
            assert!(
                (num - d_k[idx]).abs() < 1e-5,
                "d_kernels[{idx}]: {num} vs {}",
                d_k[idx]
            );
        }
        for idx in 0..bias.len() {
            let mut p = bias.clone();
            p[idx] += h;
            let num = (loss(&input, &kernels, &p) - loss(&input, &kernels, &bias)) / h;
            assert!(
                (num - d_b[idx]).abs() < 1e-5,
                "d_bias[{idx}]: {num} vs {}",
                d_b[idx]
            );
        }
    }

    #[test]
    #[should_panic(expected = "kernel larger than input")]
    fn kernel_too_large_panics() {
        conv2d_forward(&[0.0; 4], &[0.0; 9], &[0.0], &dims_1ch(2, 2, 3));
    }

    #[test]
    #[should_panic(expected = "input buffer length mismatch")]
    fn input_length_checked() {
        conv2d_forward(&[0.0; 8], &[0.0], &[0.0], &dims_1ch(3, 3, 1));
    }
}
