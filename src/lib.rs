#![warn(missing_docs)]
//! # dp-identifiability
//!
//! A from-scratch Rust implementation of *"Quantifying identifiability to
//! choose and audit ε in differentially private deep learning"* (Bernau,
//! Keller, Eibl, Grassal, Kerschbaum — VLDB 2021), including every substrate
//! the paper depends on: tensors, neural networks with per-example
//! gradients, DP mechanisms and RDP accounting, synthetic reference
//! datasets, DPSGD with auditable transcripts, and the implementable DP
//! adversary.
//!
//! ## The 30-second tour
//!
//! Pick an identifiability target, train privately, audit:
//!
//! ```
//! use dp_identifiability::prelude::*;
//!
//! // 1. A data owner picks "the adversary's certainty may not exceed 90%".
//! let rho_beta = 0.90;
//! let delta = 1e-3;
//! let epsilon = epsilon_for_rho_beta(rho_beta);          // Eq. 10 -> 2.197
//! assert!((epsilon - 2.197).abs() < 1e-3);
//!
//! // 2. ... and learns what re-identification rate that implies.
//! let advantage = rho_alpha(epsilon, delta);             // Theorem 2 -> 0.23
//! assert!((advantage - 0.229).abs() < 1e-3);
//!
//! // 3. Calibrate DPSGD noise for 30 steps under RDP composition.
//! let z = calibrate_noise_multiplier_closed_form(epsilon, delta, 30);
//! assert!((z - 9.95).abs() < 0.01);
//! ```
//!
//! The full pipeline (datasets → dataset-sensitivity pair selection → DPSGD
//! → DI adversary → ε′ auditing) is exercised by the `examples/` directory
//! and the reproduction binaries in `crates/bench`.

pub use dpaudit_core as core;
pub use dpaudit_datasets as datasets;
pub use dpaudit_dp as dp;
pub use dpaudit_dpsgd as dpsgd;
pub use dpaudit_math as math;
pub use dpaudit_nn as nn;
pub use dpaudit_tensor as tensor;

/// The commonly used items in one import.
pub mod prelude {
    pub use dpaudit_core::{
        advantage_from_success_rate, epsilon_for_rho_alpha, epsilon_for_rho_beta, rho_alpha,
        rho_alpha_composed, rho_beta, run_di_trial, run_di_trials, run_scalar_di_trials,
        AdvantageEstimator, AdversaryKind, AuditReport, BeliefTracker, ChallengeMode,
        DiAdversaryStrategy, DiBatchResult, EstimatorInputs, GaussianBelief, Glrt,
        LocalSensitivityEstimator, MaxBeliefEstimator, MiAdversary, Sampling, ScalarMechanism,
        ScalarQuery, ThresholdMi, TrialSettings,
    };
    pub use dpaudit_datasets::{
        bounded_candidates, dataset_sensitivity_bounded, dataset_sensitivity_unbounded,
        generate_mnist, generate_purchase, unbounded_candidates, Dataset, Hamming, NegSsim,
        NeighborSpec,
    };
    pub use dpaudit_dp::{
        analytic_gaussian_delta, analytic_gaussian_sigma, calibrate_noise_multiplier_closed_form,
        kov_frontier, kov_optimal_epsilon, DpGuarantee, GaussianMechanism, LaplaceMechanism,
        NeighborMode, NoiseCalibration, NoisePlan, RdpAccountant,
    };
    pub use dpaudit_dpsgd::{
        train_collect, train_dpsgd, train_dpsgd_subsampled, train_federated, DpsgdConfig,
        FederatedConfig, NeighborPair, SensitivityScaling, Transcript,
    };
    pub use dpaudit_math::{seeded_rng, split_seed};
    pub use dpaudit_nn::{mnist_cnn, purchase_mlp, Sequential};
    pub use dpaudit_tensor::Tensor;
}
