//! The element types the compute kernels are generic over.
//!
//! The pipeline has two numeric modes: `f64` everywhere (the default, and
//! the determinism oracle every other configuration is compared against)
//! and an `f32` storage mode that halves the memory traffic of the batched
//! per-example gradient buffers. Kernels that must exist for both types are
//! written once against [`Elem`]; the trait's gemm hooks route each type to
//! its own dispatched (SIMD or scalar) microkernel.

use std::borrow::Cow;

use crate::ops;

/// A kernel element type: `f64` or `f32`.
///
/// The arithmetic bounds are the plain IEEE operations — implementations
/// must not introduce fused multiply–adds or reordered reductions, so the
/// per-element accumulation-chain contract of the kernels (seed from C, add
/// `a·b` terms in ascending `k` order) holds for every element type.
pub trait Elem:
    Copy
    + PartialOrd
    + Send
    + Sync
    + std::fmt::Debug
    + std::ops::Add<Output = Self>
    + std::ops::Sub<Output = Self>
    + std::ops::Mul<Output = Self>
    + std::ops::AddAssign
    + 'static
{
    /// The additive identity.
    const ZERO: Self;
    /// Negative infinity — the seed of max-reductions (pooling).
    const NEG_INFINITY: Self;

    /// Lossy conversion from `f64` (rounds to nearest for `f32`).
    fn from_f64(v: f64) -> Self;
    /// Widening conversion to `f64` (exact for `f32`).
    fn to_f64(self) -> f64;
    /// An `f64` slice at this element type: borrowed as is for `f64`,
    /// narrowed element by element into a new buffer for `f32`.
    fn from_f64_slice(v: &[f64]) -> Cow<'_, [Self]>;

    /// Dispatched accumulating gemm `C += A·B` for this element type.
    fn matmul_acc(c: &mut [Self], a: &[Self], b: &[Self], m: usize, k: usize, n: usize);
    /// Dispatched accumulating gemm `C += A·Bᵀ` for this element type.
    fn matmul_nt_acc(c: &mut [Self], a: &[Self], b: &[Self], m: usize, k: usize, n: usize);
}

impl Elem for f64 {
    const ZERO: Self = 0.0;
    const NEG_INFINITY: Self = f64::NEG_INFINITY;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v
    }

    #[inline]
    fn to_f64(self) -> f64 {
        self
    }

    fn from_f64_slice(v: &[f64]) -> Cow<'_, [Self]> {
        Cow::Borrowed(v)
    }

    #[inline]
    fn matmul_acc(c: &mut [Self], a: &[Self], b: &[Self], m: usize, k: usize, n: usize) {
        ops::matmul_acc(c, a, b, m, k, n);
    }

    #[inline]
    fn matmul_nt_acc(c: &mut [Self], a: &[Self], b: &[Self], m: usize, k: usize, n: usize) {
        ops::matmul_nt_acc(c, a, b, m, k, n);
    }
}

impl Elem for f32 {
    const ZERO: Self = 0.0;
    const NEG_INFINITY: Self = f32::NEG_INFINITY;

    #[inline]
    fn from_f64(v: f64) -> Self {
        v as f32
    }

    #[inline]
    fn to_f64(self) -> f64 {
        f64::from(self)
    }

    fn from_f64_slice(v: &[f64]) -> Cow<'_, [Self]> {
        Cow::Owned(v.iter().map(|&x| x as f32).collect())
    }

    #[inline]
    fn matmul_acc(c: &mut [Self], a: &[Self], b: &[Self], m: usize, k: usize, n: usize) {
        ops::matmul_acc_f32(c, a, b, m, k, n);
    }

    #[inline]
    fn matmul_nt_acc(c: &mut [Self], a: &[Self], b: &[Self], m: usize, k: usize, n: usize) {
        ops::matmul_nt_acc_f32(c, a, b, m, k, n);
    }
}
