#![warn(missing_docs)]
//! From-scratch neural networks with per-example gradients.
//!
//! DPSGD (Abadi et al., CCS 2016) — the mechanism audited throughout the
//! paper — needs the gradient of the loss *per training example* so it can be
//! clipped to the norm `C` before aggregation and perturbation. This crate
//! implements the two reference architectures of the paper's §6.2 (a 2-conv
//! CNN for 28×28 images and a 600→128→100 MLP for purchase baskets) plus the
//! layers they are made of, with exact backpropagation returning gradients as
//! flat `Vec<f64>` aligned with a deterministic parameter layout.
//!
//! Batch normalisation is implemented with *frozen statistics*: running
//! statistics are refreshed from each clean batch (see
//! [`Sequential::update_norm_stats`]) and the backward pass treats them as
//! constants, which keeps per-example gradients well defined — the standard
//! workaround in DP deep-learning stacks.
//!
//! There is one production layer stack: the batched kernels behind
//! [`BatchModel`]. They compute gradients at f64 or f32, and at f64 they
//! carry one example at a time (B=1) through the statistics refresh (up to
//! the last batch norm) and the forward-only helpers
//! ([`Sequential::forward`], [`Sequential::mean_loss`],
//! [`Sequential::predict`], [`Sequential::accuracy`]). The
//! example-at-a-time layer passes are crate-private and serve only as the
//! bit-for-bit oracle behind [`Sequential::per_example_grad_scalar`].

mod batched;
pub mod init;
pub mod layers;
pub mod loss;
pub mod model;
pub mod zoo;

pub use batched::BatchModel;
pub use init::glorot_uniform;
pub use layers::{BatchNorm2d, Conv2d, Dense, Layer, MaxPool2d};
pub use loss::{cross_entropy_loss, softmax, softmax_cross_entropy};
pub use model::Sequential;
pub use zoo::{mnist_cnn, purchase_mlp, MNIST_CLASSES, PURCHASE_CLASSES, PURCHASE_FEATURES};
