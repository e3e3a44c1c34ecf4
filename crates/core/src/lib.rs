#![warn(missing_docs)]
//! Identifiability scores and ε-auditing for differentially private deep
//! learning — the primary contribution of Bernau, Keller, Eibl, Grassal &
//! Kerschbaum, *"Quantifying identifiability to choose and audit ε in
//! differentially private deep learning"* (VLDB 2021).
//!
//! The crate provides, in paper order:
//!
//! * [`scores`] — the two identifiability scores and their inversions:
//!   maximum posterior belief ρ_β (Theorem 1 / Eq. 10) and expected
//!   membership advantage ρ_α for the Gaussian mechanism (Theorem 2 /
//!   Eq. 15), plus their RDP-composed forms (§5.2) and the generic
//!   `e^ε − 1` advantage bound (Proposition 2).
//! * [`belief`] — the Bayesian posterior-belief tracker of Lemma 1,
//!   accumulated in log-odds space so k-fold high-dimensional composition
//!   never under- or overflows.
//! * [`adversary`] — the adversary zoo behind the [`DiAdversaryStrategy`]
//!   trait: the paper's A_DI,Gau of Algorithm 1 ([`GaussianBelief`]), the
//!   likelihood-ratio adversary ([`Glrt`]) and a final-model loss-threshold
//!   adversary ([`ThresholdMi`]), selected per batch via [`AdversaryKind`].
//! * [`mi`] — the weaker membership-inference adversary of Yeom et al.
//!   (loss-threshold attack), used to demonstrate Proposition 1 (DI ⇒ MI)
//!   empirically.
//! * [`experiment`] — the Exp^DI harness: repeated challenge trials
//!   producing empirical advantages, belief distributions and empirical δ.
//! * [`audit`] — the ε′ estimators of §6.4 (from per-step local
//!   sensitivities via RDP, from the maximum observed belief, from the
//!   empirical advantage) and the [`AuditReport`] that carries all three,
//!   built only by [`AuditReport::from_inputs`] from a batch summary.

pub mod adversary;
pub mod audit;
pub mod belief;
pub mod experiment;
pub mod mi;
pub mod scalar;
pub mod scores;

pub use adversary::{AdversaryKind, DiAdversaryStrategy, GaussianBelief, Glrt, ThresholdMi};
pub use audit::{
    AdvantageEstimator, AuditReport, EstimatorInputs, LocalSensitivityEstimator, MaxBeliefEstimator,
};
pub use belief::BeliefTracker;
pub use experiment::{
    run_di_trial, run_di_trials, trial_seed, ChallengeMode, DiBatchResult, DiTrialResult,
    RecordDetail, Sampling, SettingsError, TrialSettings, TrialSettingsBuilder,
};
pub use mi::{run_mi_trials, MiAdversary, MiBatchResult};
pub use scalar::{run_scalar_di_trials, ScalarMechanism, ScalarQuery};
pub use scores::{
    advantage_from_success_rate, epsilon_for_rho_alpha, epsilon_for_rho_beta,
    generic_advantage_bound, rho_alpha, rho_alpha_composed, rho_beta, rho_beta_rdp_composed,
    rho_beta_sequential,
};
