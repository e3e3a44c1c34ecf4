#![warn(missing_docs)]
//! Differentially private full-batch gradient descent (DPSGD) with
//! auditable transcripts.
//!
//! The query released at every training step is the *sum* of per-example
//! gradients clipped to norm `C`, perturbed with isotropic Gaussian noise:
//!
//! ```text
//! g̃_i = Σ_{x ∈ X} clip_C(∇ℓ(θ_i, x)) + N(0, σ_i²·I),   θ_{i+1} = θ_i − η·g̃_i/|X|
//! ```
//!
//! This is the one step rule: one flat clip norm `C` for every step of a
//! run ([`DpsgdConfig::clip_norm`]) and a plain SGD update. The paper's
//! sensitivities are then literal (§6.1/§6.3): the global ℓ2
//! sensitivity of the sum is `C` under unbounded DP and `2C` under bounded
//! DP, and the estimated local sensitivity of the concrete neighbouring pair
//! is `‖ḡ_i(x̂₁)‖` (Eq. 18) or `‖ḡ_i(x̂₁) − ḡ_i(x̂₂)‖` (Eq. 17). σ_i is the
//! plan's noise multiplier `z` times whichever sensitivity the run is scaled
//! to — constant for global scaling, per-step for local scaling.
//!
//! Training runs emit a [`StepRecord`] per step carrying everything the DI
//! adversary is assumed to know (perturbed gradient, both differing-record
//! gradients, σ_i), either streamed to an observer or collected into a
//! [`Transcript`]. Batch-normalisation running statistics are treated as
//! public model state shared by both hypotheses (the federated-learning
//! reading of the paper's §6.1), which makes the gradient-sum difference
//! between D and D′ exactly the differing-record gradient difference.

pub mod clip;
pub mod config;
pub mod exec;
pub mod federated;
pub mod pair;
pub mod trainer;
pub mod transcript;

pub use clip::{clip_to_norm, clipped_gradient};
pub use config::{BackendChoice, ComputeMode, DpsgdConfig, SensitivityScaling};
pub use exec::{batch_threads, set_batch_threads, Batch, ClipSum, StepExec, CLIP_CHUNK};
pub use federated::{train_federated, FederatedConfig, FederatedOutcome, RoundRecord};
pub use pair::NeighborPair;
pub use trainer::{train_collect, train_dpsgd, train_dpsgd_subsampled};
pub use transcript::{StepRecord, Transcript};
