//! Matrix and vector products on flat row-major buffers.
//!
//! The matrix–matrix kernels are register-blocked: the m×n output is walked
//! in `MR`×`NR` tiles whose partial sums live in a small accumulator array
//! the compiler keeps in registers, and the shared k-dimension is traversed
//! in one strictly increasing pass. Edge tiles fall back to scalar loops
//! with the *same* per-element accumulation chain (seed from C, then add
//! `a·b` terms in ascending k order), so blocked and scalar results are
//! bit-identical. There is no branch in any inner loop — a zero (or NaN,
//! or Inf) operand contributes exactly like any other value, which keeps
//! IEEE special values propagating through the gradient pipeline.
//!
//! The public accumulating entry points ([`matmul_acc`], [`matmul_nt_acc`],
//! and their `_f32` variants) dispatch at runtime to the explicit-SIMD
//! microkernels in [`crate::simd`] when the hardware supports them, with
//! the tiles in [`scalar`] as the universal fallback. The SIMD kernels obey
//! the same per-element accumulation chain and use separate mul + add (no
//! FMA contraction), so on the f64 path dispatch never changes a single
//! bit of the result.

use crate::elem::Elem;

/// Rows per register tile of the blocked kernels.
pub(crate) const MR: usize = 4;
/// Columns per register tile of the blocked kernels.
const NR: usize = 4;

fn check_nn<T>(c: &[T], a: &[T], b: &[T], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul: A has wrong length");
    assert_eq!(b.len(), k * n, "matmul: B has wrong length");
    assert_eq!(c.len(), m * n, "matmul: C has wrong length");
}

fn check_nt<T>(c: &[T], a: &[T], b: &[T], m: usize, k: usize, n: usize) {
    assert_eq!(a.len(), m * k, "matmul_nt: A has wrong length");
    assert_eq!(b.len(), n * k, "matmul_nt: B has wrong length");
    assert_eq!(c.len(), m * n, "matmul_nt: C has wrong length");
}

/// Scalar chains for the row/column remainders outside the main tile grid:
/// the column edge (`n_main..n`) of the full-height rows, then every column
/// of the leftover rows (`m_main..m`). Each element is an independent
/// ascending-`k` chain, so helper and tile paths compose bit-identically.
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_acc_edges<T: Elem>(
    c: &mut [T],
    a: &[T],
    b: &[T],
    m: usize,
    k: usize,
    n: usize,
    m_main: usize,
    n_main: usize,
) {
    for i in 0..m_main {
        for j in n_main..n {
            let mut cv = c[i * n + j];
            for l in 0..k {
                cv += a[i * k + l] * b[l * n + j];
            }
            c[i * n + j] = cv;
        }
    }
    for i in m_main..m {
        for j in 0..n {
            let mut cv = c[i * n + j];
            for l in 0..k {
                cv += a[i * k + l] * b[l * n + j];
            }
            c[i * n + j] = cv;
        }
    }
}

/// Edge chains of [`matmul_acc_edges`] for the transposed-B layout
/// (`B` stored row-major as `[n,k]`).
#[allow(clippy::too_many_arguments)]
pub(crate) fn matmul_nt_acc_edges<T: Elem>(
    c: &mut [T],
    a: &[T],
    b: &[T],
    m: usize,
    k: usize,
    n: usize,
    m_main: usize,
    n_main: usize,
) {
    for i in 0..m_main {
        let arow = &a[i * k..(i + 1) * k];
        for j in n_main..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut cv = c[i * n + j];
            for (av, bv) in arow.iter().zip(brow) {
                cv += *av * *bv;
            }
            c[i * n + j] = cv;
        }
    }
    for i in m_main..m {
        let arow = &a[i * k..(i + 1) * k];
        for j in 0..n {
            let brow = &b[j * k..(j + 1) * k];
            let mut cv = c[i * n + j];
            for (av, bv) in arow.iter().zip(brow) {
                cv += *av * *bv;
            }
            c[i * n + j] = cv;
        }
    }
}

/// The register-blocked scalar tiles, generic over the element type.
fn matmul_acc_tiles<T: Elem>(c: &mut [T], a: &[T], b: &[T], m: usize, k: usize, n: usize) {
    let m_main = m - m % MR;
    let n_main = n - n % NR;
    for i in (0..m_main).step_by(MR) {
        for j in (0..n_main).step_by(NR) {
            let mut acc = [[T::ZERO; NR]; MR];
            for (mi, row) in acc.iter_mut().enumerate() {
                let base = (i + mi) * n + j;
                row.copy_from_slice(&c[base..base + NR]);
            }
            for l in 0..k {
                let brow = &b[l * n + j..l * n + j + NR];
                for (mi, row) in acc.iter_mut().enumerate() {
                    let av = a[(i + mi) * k + l];
                    for (cv, bv) in row.iter_mut().zip(brow) {
                        *cv += av * *bv;
                    }
                }
            }
            for (mi, row) in acc.iter().enumerate() {
                let base = (i + mi) * n + j;
                c[base..base + NR].copy_from_slice(row);
            }
        }
    }
    matmul_acc_edges(c, a, b, m, k, n, m_main, n_main);
}

/// The register-blocked scalar tiles for the transposed-B layout.
fn matmul_nt_acc_tiles<T: Elem>(c: &mut [T], a: &[T], b: &[T], m: usize, k: usize, n: usize) {
    let m_main = m - m % MR;
    let n_main = n - n % NR;
    for i in (0..m_main).step_by(MR) {
        for j in (0..n_main).step_by(NR) {
            let mut acc = [[T::ZERO; NR]; MR];
            for (mi, row) in acc.iter_mut().enumerate() {
                let base = (i + mi) * n + j;
                row.copy_from_slice(&c[base..base + NR]);
            }
            for l in 0..k {
                let mut bv = [T::ZERO; NR];
                for (ni, v) in bv.iter_mut().enumerate() {
                    *v = b[(j + ni) * k + l];
                }
                for (mi, row) in acc.iter_mut().enumerate() {
                    let av = a[(i + mi) * k + l];
                    for (cv, v) in row.iter_mut().zip(&bv) {
                        *cv += av * *v;
                    }
                }
            }
            for (mi, row) in acc.iter().enumerate() {
                let base = (i + mi) * n + j;
                c[base..base + NR].copy_from_slice(row);
            }
        }
    }
    matmul_nt_acc_edges(c, a, b, m, k, n, m_main, n_main);
}

/// The scalar reference tiles, callable directly (bypassing SIMD dispatch).
///
/// These are the determinism oracle: the dispatched entry points must be
/// `to_bits()`-identical to these functions on the f64 path and on the f32
/// path alike (the SIMD kernels perform the same IEEE lane operations in
/// the same per-element order). Tests compare against this module; the
/// process-wide [`crate::simd::set_force_scalar`] knob and the
/// `DPAUDIT_FORCE_SCALAR` environment variable pin the dispatched entry
/// points onto these tiles for whole-process A/B runs.
pub mod scalar {
    use super::*;

    /// Scalar-tile `C[m,n] += A[m,k] · B[k,n]` for f64.
    ///
    /// # Panics
    /// Panics if buffer lengths disagree with the stated dimensions.
    pub fn matmul_acc(c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        check_nn(c, a, b, m, k, n);
        matmul_acc_tiles(c, a, b, m, k, n);
    }

    /// Scalar-tile `C[m,n] += A[m,k] · Bᵀ` for f64 (`B` row-major `[n,k]`).
    ///
    /// # Panics
    /// Panics if buffer lengths disagree with the stated dimensions.
    pub fn matmul_nt_acc(c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        check_nt(c, a, b, m, k, n);
        matmul_nt_acc_tiles(c, a, b, m, k, n);
    }

    /// Scalar-tile `C[m,n] += A[m,k] · B[k,n]` for f32.
    ///
    /// # Panics
    /// Panics if buffer lengths disagree with the stated dimensions.
    pub fn matmul_acc_f32(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        check_nn(c, a, b, m, k, n);
        matmul_acc_tiles(c, a, b, m, k, n);
    }

    /// Scalar-tile `C[m,n] += A[m,k] · Bᵀ` for f32 (`B` row-major `[n,k]`).
    ///
    /// # Panics
    /// Panics if buffer lengths disagree with the stated dimensions.
    pub fn matmul_nt_acc_f32(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        check_nt(c, a, b, m, k, n);
        matmul_nt_acc_tiles(c, a, b, m, k, n);
    }
}

/// Accumulating matrix–matrix product: `C[m,n] += A[m,k] · B[k,n]`.
///
/// Each output element's additions happen in ascending `k` order starting
/// from the incoming value of `C`, regardless of which tile path computes
/// it — the result is bitwise independent of the blocking *and* of whether
/// the SIMD or scalar kernel runs (the SIMD kernels use separate lane
/// mul + add, never FMA).
///
/// # Panics
/// Panics if buffer lengths disagree with the stated dimensions.
pub fn matmul_acc(c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    check_nn(c, a, b, m, k, n);
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if crate::simd::simd_enabled() {
        // SAFETY: the required target feature was runtime-detected and the
        // buffer lengths were checked above.
        unsafe { crate::simd::kernels::matmul_acc_f64(c, a, b, m, k, n) };
        return;
    }
    matmul_acc_tiles(c, a, b, m, k, n);
}

/// Accumulating product against a transposed right operand:
/// `C[m,n] += A[m,k] · Bᵀ` where `B` is stored row-major as `[n,k]`.
///
/// Both operands are traversed along contiguous length-`k` rows, so no
/// transpose is materialised. Same tiling, same dispatch, and same
/// per-element accumulation chain (ascending `k`, seeded from `C`) as
/// [`matmul_acc`].
///
/// # Panics
/// Panics if buffer lengths disagree with the stated dimensions.
pub fn matmul_nt_acc(c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
    check_nt(c, a, b, m, k, n);
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if crate::simd::simd_enabled() {
        // SAFETY: feature runtime-detected; lengths checked above.
        unsafe { crate::simd::kernels::matmul_nt_acc_f64(c, a, b, m, k, n) };
        return;
    }
    matmul_nt_acc_tiles(c, a, b, m, k, n);
}

/// f32 accumulating matrix–matrix product: `C[m,n] += A[m,k] · B[k,n]`.
///
/// The single-precision twin of [`matmul_acc`], used by the f32 storage
/// mode of the batched gradient pipeline. Same dispatch and the same
/// per-element accumulation chain, in f32 arithmetic.
///
/// # Panics
/// Panics if buffer lengths disagree with the stated dimensions.
pub fn matmul_acc_f32(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    check_nn(c, a, b, m, k, n);
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if crate::simd::simd_enabled() {
        // SAFETY: feature runtime-detected; lengths checked above.
        unsafe { crate::simd::kernels::matmul_acc_f32(c, a, b, m, k, n) };
        return;
    }
    matmul_acc_tiles(c, a, b, m, k, n);
}

/// f32 accumulating product against a transposed right operand:
/// `C[m,n] += A[m,k] · Bᵀ` for row-major `B[n,k]`.
///
/// # Panics
/// Panics if buffer lengths disagree with the stated dimensions.
pub fn matmul_nt_acc_f32(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
    check_nt(c, a, b, m, k, n);
    #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
    if crate::simd::simd_enabled() {
        // SAFETY: feature runtime-detected; lengths checked above.
        unsafe { crate::simd::kernels::matmul_nt_acc_f32(c, a, b, m, k, n) };
        return;
    }
    matmul_nt_acc_tiles(c, a, b, m, k, n);
}

/// Matrix–vector product: `y[m] = W[m,n] · x[n]`.
///
/// # Panics
/// Panics if buffer lengths disagree with the stated dimensions.
pub fn matvec(w: &[f64], x: &[f64], m: usize, n: usize) -> Vec<f64> {
    assert_eq!(w.len(), m * n, "matvec: W has wrong length");
    assert_eq!(x.len(), n, "matvec: x has wrong length");
    (0..m)
        .map(|i| {
            let row = &w[i * n..(i + 1) * n];
            row.iter().zip(x).map(|(wv, xv)| wv * xv).sum()
        })
        .collect()
}

/// Transposed matrix–vector product: `y[n] = Wᵀ[n,m] · x[m]` for row-major
/// `W[m,n]`. This is the backward pass of a dense layer with respect to its
/// input, computed without materialising the transpose.
///
/// # Panics
/// Panics if buffer lengths disagree with the stated dimensions.
pub fn matvec_transposed(w: &[f64], x: &[f64], m: usize, n: usize) -> Vec<f64> {
    assert_eq!(w.len(), m * n, "matvec_transposed: W has wrong length");
    assert_eq!(x.len(), m, "matvec_transposed: x has wrong length");
    let mut y = vec![0.0; n];
    for (i, &xv) in x.iter().enumerate() {
        let row = &w[i * n..(i + 1) * n];
        for (yv, wv) in y.iter_mut().zip(row) {
            *yv += xv * wv;
        }
    }
    y
}

/// Outer product `A[m,n] = x[m] ⊗ y[n]` — the weight gradient of a dense
/// layer (`dW = δ ⊗ input`).
pub fn outer_product(x: &[f64], y: &[f64]) -> Vec<f64> {
    let mut a = Vec::with_capacity(x.len() * y.len());
    for &xv in x {
        a.extend(y.iter().map(|&yv| xv * yv));
    }
    a
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Textbook triple loop with the same per-element chain the kernels
    /// promise: seed from C, add terms in ascending k order.
    fn naive_acc(c: &mut [f64], a: &[f64], b: &[f64], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                for l in 0..k {
                    c[i * n + j] += a[i * k + l] * b[l * n + j];
                }
            }
        }
    }

    fn naive_acc_f32(c: &mut [f32], a: &[f32], b: &[f32], m: usize, k: usize, n: usize) {
        for i in 0..m {
            for j in 0..n {
                for l in 0..k {
                    c[i * n + j] += a[i * k + l] * b[l * n + j];
                }
            }
        }
    }

    fn pseudo(len: usize, scale: f64) -> Vec<f64> {
        (0..len)
            .map(|i| ((i * 2654435761 % 1009) as f64 - 504.0) * scale)
            .collect()
    }

    fn pseudo_f32(len: usize, scale: f32) -> Vec<f32> {
        (0..len)
            .map(|i| ((i * 2654435761 % 1009) as f32 - 504.0) * scale)
            .collect()
    }

    /// Shapes covering interior tiles, row/column remainders (for both the
    /// 4-wide f64 and 8-wide f32 SIMD tile widths), and sub-tile sizes.
    const SHAPES: &[(usize, usize, usize)] = &[
        (1, 1, 1),
        (3, 2, 5),
        (4, 7, 4),
        (5, 3, 6),
        (8, 8, 8),
        (9, 5, 11),
        (12, 4, 16),
        (13, 16, 7),
        (16, 3, 19),
    ];

    #[test]
    fn matmul_small_known() {
        // [1 2; 3 4] · [5 6; 7 8] = [19 22; 43 50]
        let mut c = vec![0.0; 4];
        matmul_acc(
            &mut c,
            &[1.0, 2.0, 3.0, 4.0],
            &[5.0, 6.0, 7.0, 8.0],
            2,
            2,
            2,
        );
        assert_eq!(c, vec![19.0, 22.0, 43.0, 50.0]);
    }

    #[test]
    fn matmul_rectangular() {
        // [1 0 2] (1x3) · [[1],[2],[3]] (3x1) = [7]
        let mut c = vec![0.0];
        matmul_acc(&mut c, &[1.0, 0.0, 2.0], &[1.0, 2.0, 3.0], 1, 3, 1);
        assert_eq!(c, vec![7.0]);
    }

    #[test]
    fn matmul_identity() {
        let a = vec![1.0, 0.0, 0.0, 1.0];
        let b = vec![3.0, 4.0, 5.0, 6.0];
        let mut c = vec![0.0; 4];
        matmul_acc(&mut c, &a, &b, 2, 2, 2);
        assert_eq!(c, b);
    }

    #[test]
    fn blocked_matmul_is_bit_identical_to_naive_at_every_tile_shape() {
        for &(m, k, n) in SHAPES {
            let a = pseudo(m * k, 1e-3);
            let b = pseudo(k * n, 7e-4);
            let mut expect = pseudo(m * n, 1e-2);
            let mut got = expect.clone();
            let mut got_scalar = expect.clone();
            naive_acc(&mut expect, &a, &b, m, k, n);
            matmul_acc(&mut got, &a, &b, m, k, n);
            scalar::matmul_acc(&mut got_scalar, &a, &b, m, k, n);
            for ((g, s), e) in got.iter().zip(&got_scalar).zip(&expect) {
                assert_eq!(g.to_bits(), e.to_bits(), "dispatched ({m},{k},{n})");
                assert_eq!(s.to_bits(), e.to_bits(), "scalar ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn matmul_nt_is_bit_identical_to_matmul_of_explicit_transpose() {
        for &(m, k, n) in SHAPES {
            let a = pseudo(m * k, 1e-3);
            let bt = pseudo(n * k, 7e-4); // row-major [n, k]
            let mut b = vec![0.0; k * n]; // row-major [k, n]
            for j in 0..n {
                for l in 0..k {
                    b[l * n + j] = bt[j * k + l];
                }
            }
            let mut expect = vec![0.0; m * n];
            matmul_acc(&mut expect, &a, &b, m, k, n);
            let mut got = vec![0.0; m * n];
            matmul_nt_acc(&mut got, &a, &bt, m, k, n);
            let mut got_scalar = vec![0.0; m * n];
            scalar::matmul_nt_acc(&mut got_scalar, &a, &bt, m, k, n);
            for ((g, s), e) in got.iter().zip(&got_scalar).zip(&expect) {
                assert_eq!(g.to_bits(), e.to_bits(), "dispatched ({m},{k},{n})");
                assert_eq!(s.to_bits(), e.to_bits(), "scalar ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn f32_kernels_are_bit_identical_to_naive_and_scalar_tiles() {
        for &(m, k, n) in SHAPES {
            let a = pseudo_f32(m * k, 1e-3);
            let b = pseudo_f32(k * n, 7e-4);
            let mut expect = pseudo_f32(m * n, 1e-2);
            let mut got = expect.clone();
            let mut got_scalar = expect.clone();
            naive_acc_f32(&mut expect, &a, &b, m, k, n);
            matmul_acc_f32(&mut got, &a, &b, m, k, n);
            scalar::matmul_acc_f32(&mut got_scalar, &a, &b, m, k, n);
            for ((g, s), e) in got.iter().zip(&got_scalar).zip(&expect) {
                assert_eq!(g.to_bits(), e.to_bits(), "dispatched ({m},{k},{n})");
                assert_eq!(s.to_bits(), e.to_bits(), "scalar ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn f32_nt_kernel_matches_explicit_transpose() {
        for &(m, k, n) in SHAPES {
            let a = pseudo_f32(m * k, 1e-3);
            let bt = pseudo_f32(n * k, 7e-4); // row-major [n, k]
            let mut b = vec![0.0f32; k * n]; // row-major [k, n]
            for j in 0..n {
                for l in 0..k {
                    b[l * n + j] = bt[j * k + l];
                }
            }
            let mut expect = vec![0.0f32; m * n];
            matmul_acc_f32(&mut expect, &a, &b, m, k, n);
            let mut got = vec![0.0f32; m * n];
            matmul_nt_acc_f32(&mut got, &a, &bt, m, k, n);
            let mut got_scalar = vec![0.0f32; m * n];
            scalar::matmul_nt_acc_f32(&mut got_scalar, &a, &bt, m, k, n);
            for ((g, s), e) in got.iter().zip(&got_scalar).zip(&expect) {
                assert_eq!(g.to_bits(), e.to_bits(), "dispatched ({m},{k},{n})");
                assert_eq!(s.to_bits(), e.to_bits(), "scalar ({m},{k},{n})");
            }
        }
    }

    #[test]
    fn matmul_propagates_nan_through_zero_operands() {
        // A NaN activation must poison the product even when the other
        // operand is 0 — the old zero-skip fast path silently dropped it.
        let mut c = vec![0.0];
        matmul_acc(&mut c, &[0.0, f64::NAN], &[f64::NAN, 0.0], 1, 2, 1);
        assert!(c[0].is_nan());
        let y = matvec_transposed(&[f64::NAN], &[0.0], 1, 1);
        assert!(y[0].is_nan());
    }

    #[test]
    fn matvec_known() {
        // [1 2; 3 4] · [5, 6] = [17, 39]
        let y = matvec(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0], 2, 2);
        assert_eq!(y, vec![17.0, 39.0]);
    }

    #[test]
    fn matvec_transposed_known() {
        // Wᵀ · x with W = [1 2; 3 4], x = [5, 6]: [1*5+3*6, 2*5+4*6] = [23, 34]
        let y = matvec_transposed(&[1.0, 2.0, 3.0, 4.0], &[5.0, 6.0], 2, 2);
        assert_eq!(y, vec![23.0, 34.0]);
    }

    #[test]
    fn matvec_transposed_agrees_with_explicit_transpose() {
        let m = 3;
        let n = 4;
        let w: Vec<f64> = (0..m * n).map(|i| (i as f64) * 0.7 - 2.0).collect();
        let x: Vec<f64> = (0..m).map(|i| (i as f64) + 0.5).collect();
        // Build explicit transpose and use matvec.
        let mut wt = vec![0.0; n * m];
        for i in 0..m {
            for j in 0..n {
                wt[j * m + i] = w[i * n + j];
            }
        }
        let expect = matvec(&wt, &x, n, m);
        let got = matvec_transposed(&w, &x, m, n);
        for (a, b) in got.iter().zip(&expect) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn outer_product_known() {
        let a = outer_product(&[1.0, 2.0], &[3.0, 4.0, 5.0]);
        assert_eq!(a, vec![3.0, 4.0, 5.0, 6.0, 8.0, 10.0]);
    }

    #[test]
    fn outer_product_empty() {
        assert!(outer_product(&[], &[1.0]).is_empty());
    }

    #[test]
    #[should_panic(expected = "wrong length")]
    fn matmul_checks_lengths() {
        matmul_acc(&mut [0.0; 4], &[1.0], &[1.0], 2, 2, 2);
    }
}
