#![warn(missing_docs)]
//! Minimal dense-tensor substrate for the dp-identifiability workspace.
//!
//! The paper's evaluation trains two small reference networks (a 2-conv-layer
//! CNN on 28×28 images and a 2-dense-layer MLP on 600-bit baskets) with
//! per-example gradients. This crate provides exactly the kernels those
//! networks need — row-major tensors, matrix/vector products, valid-mode
//! 2-D convolution with full backward, and 2×2 max pooling — implemented from
//! scratch so the whole stack is auditable.
//!
//! The gemm entry points dispatch at runtime to explicit-SIMD microkernels
//! (AVX2 on x86_64, NEON on aarch64; see [`simd`]) with the scalar register
//! tiles of [`ops::scalar`] as the universal fallback, and exist for both
//! `f64` (the determinism oracle) and `f32` (the opt-in storage mode of the
//! batched gradient pipeline); the compute routines are generic over
//! [`Elem`]. These kernels are the only compute path: the batched pipeline
//! calls [`Elem::matmul_acc`], [`Elem::matmul_nt_acc`] and [`im2col_into`]
//! directly, and every store is a function of their accumulation order.

pub mod conv;
pub mod elem;
pub mod ops;
pub mod pool;
pub mod simd;
pub mod tensor;

pub use conv::{
    conv2d_backward, conv2d_backward_input_into, conv2d_backward_params_into, conv2d_forward,
    conv2d_forward_gemm_into, conv2d_forward_gemm_on, im2col_into, Conv2dDims,
};
pub use elem::Elem;
pub use ops::{
    matmul_acc, matmul_acc_f32, matmul_nt_acc, matmul_nt_acc_f32, matvec, matvec_transposed,
    outer_product,
};
pub use pool::{maxpool2d_backward, maxpool2d_forward, PoolDims};
pub use simd::{kernel_backend, set_force_scalar};
pub use tensor::Tensor;

/// A data-free marker, kept only so the benchmark's `*_on` calls compile:
/// `BackendChoice::resolve` returns it, and [`conv2d_forward_gemm_on`] and
/// `Sequential::per_example_grads_on` / `per_example_grad_on` ignore it.
/// Every gemm runs on the native kernels; new code passes nothing.
#[derive(Debug, Clone, Copy)]
pub struct Backend;
