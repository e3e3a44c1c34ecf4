//! The Exp^DI harness (paper Experiment 2 instantiated for DPSGD).

use dpaudit_datasets::Dataset;
use dpaudit_dp::NeighborMode;
use dpaudit_dpsgd::{
    train_dpsgd, train_dpsgd_subsampled, ComputeMode, DpsgdConfig, NeighborPair, SensitivityScaling,
};
use dpaudit_math::{seeded_rng, split_seed};
use dpaudit_nn::Sequential;
use dpaudit_obs as obs;
use rand::rngs::StdRng;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::adversary::AdversaryKind;
use crate::scores::advantage_from_success_rate;

/// How the challenge bit of Experiment 2 is chosen per trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ChallengeMode {
    /// Draw b uniformly — the literal Exp^DI (used for advantage).
    RandomBit,
    /// Always train on D — the paper's evaluation protocol for the
    /// belief-distribution figures (β_k(D) with D trained, Figure 6).
    AlwaysD,
}

/// How each DPSGD step assembles its batch.
///
/// `FullBatch` is the paper's audit protocol (the adversary's hypothesis
/// centers are exact). `Poisson` runs the production-style mini-batch
/// trainer: every record enters the step's batch independently with
/// probability `q`, the noise is scaled to the clip bound, and the privacy
/// claim is composed through the *subsampled* Gaussian RDP accountant — so
/// the target ε stays honest under amplification-by-subsampling. Legacy
/// headers without the field parse to `FullBatch`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize, Default)]
pub enum Sampling {
    /// Every step sums over the whole trained dataset (paper protocol).
    #[default]
    FullBatch,
    /// Poisson-subsampled mini-batches with per-record inclusion rate `q`.
    Poisson {
        /// Per-record, per-step inclusion probability in `(0, 1)`.
        q: f64,
    },
}

impl Sampling {
    /// The Poisson rate, if subsampling is on.
    pub fn q(&self) -> Option<f64> {
        match self {
            Sampling::FullBatch => None,
            Sampling::Poisson { q } => Some(*q),
        }
    }
}

impl std::fmt::Display for Sampling {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Sampling::FullBatch => f.write_str("full-batch"),
            Sampling::Poisson { q } => write!(f, "poisson(q={q})"),
        }
    }
}

/// Settings shared by every trial of a batch.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TrialSettings {
    /// The DPSGD configuration (clip norm, η, k, mode, z, scaling).
    pub dpsgd: DpsgdConfig,
    /// Challenge-bit protocol.
    pub challenge: ChallengeMode,
    /// Which adversary plays the trials (serde-defaulted so legacy headers
    /// parse to the paper's Gaussian-belief adversary).
    #[serde(default)]
    pub adversary: AdversaryKind,
    /// Batch assembly per step (serde-defaulted to the paper's full-batch
    /// protocol).
    #[serde(default)]
    pub sampling: Sampling,
}

impl TrialSettings {
    /// A validating builder, preloaded with the paper's MNIST/Purchase
    /// defaults (`C = 3`, `η = 0.005`, `k = 30`, bounded DP, LS scaling,
    /// random challenge bits). Unlike `DpsgdConfig::new`, invalid values
    /// surface as a [`SettingsError`] from [`TrialSettingsBuilder::build`]
    /// instead of a panic, so CLI and config layers can report them.
    pub fn builder() -> TrialSettingsBuilder {
        TrialSettingsBuilder::default()
    }

    /// The one validation of trial settings, for the builder and for
    /// every header a run reads: [`DpsgdConfig::check`] plus a Poisson rate
    /// in `(0, 1)`.
    ///
    /// # Errors
    /// A [`SettingsError`] naming the first offending field.
    pub fn check(&self) -> Result<(), SettingsError> {
        self.dpsgd.check().map_err(SettingsError::new)?;
        if let Sampling::Poisson { q } = self.sampling {
            if !(q.is_finite() && q > 0.0 && q < 1.0) {
                return Err(SettingsError::new(format!(
                    "poisson sampling rate must be in (0, 1), got {q}"
                )));
            }
        }
        Ok(())
    }
}

/// A rejected trial configuration, naming the offending field.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SettingsError(String);

impl SettingsError {
    fn new(msg: impl Into<String>) -> Self {
        SettingsError(msg.into())
    }
}

impl std::fmt::Display for SettingsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid trial settings: {}", self.0)
    }
}

impl std::error::Error for SettingsError {}

/// Builder for [`TrialSettings`]; see [`TrialSettings::builder`]. It holds
/// the settings as set so far, checked only by
/// [`TrialSettingsBuilder::build`].
#[derive(Debug, Clone)]
pub struct TrialSettingsBuilder(TrialSettings);

impl Default for TrialSettingsBuilder {
    fn default() -> Self {
        TrialSettingsBuilder(TrialSettings {
            dpsgd: DpsgdConfig::new(
                3.0,
                0.005,
                30,
                NeighborMode::Bounded,
                1.0,
                SensitivityScaling::Local,
            ),
            challenge: ChallengeMode::RandomBit,
            adversary: AdversaryKind::GaussianBelief,
            sampling: Sampling::FullBatch,
        })
    }
}

impl TrialSettingsBuilder {
    /// Per-example clip norm C; the local-sensitivity floor follows it
    /// ([`DpsgdConfig::ls_floor_for`]).
    #[must_use]
    pub fn clip_norm(mut self, norm: f64) -> Self {
        self.0.dpsgd.clip_norm = norm;
        self
    }

    /// Learning rate η.
    #[must_use]
    pub fn learning_rate(mut self, learning_rate: f64) -> Self {
        self.0.dpsgd.learning_rate = learning_rate;
        self
    }

    /// Number of full-batch steps k.
    #[must_use]
    pub fn steps(mut self, steps: usize) -> Self {
        self.0.dpsgd.steps = steps;
        self
    }

    /// Neighbouring-dataset relation.
    #[must_use]
    pub fn mode(mut self, mode: NeighborMode) -> Self {
        self.0.dpsgd.mode = mode;
        self
    }

    /// Noise multiplier z.
    #[must_use]
    pub fn noise_multiplier(mut self, z: f64) -> Self {
        self.0.dpsgd.noise_multiplier = z;
        self
    }

    /// Global- vs local-sensitivity noise scaling.
    #[must_use]
    pub fn scaling(mut self, scaling: SensitivityScaling) -> Self {
        self.0.dpsgd.scaling = scaling;
        self
    }

    /// Storage precision of the batched gradient pipeline (f64 default;
    /// f32 trades bit-reproducibility against the f64 oracle for speed).
    #[must_use]
    pub fn compute(mut self, compute: ComputeMode) -> Self {
        self.0.dpsgd.compute = compute;
        self
    }

    /// Challenge-bit protocol.
    #[must_use]
    pub fn challenge(mut self, challenge: ChallengeMode) -> Self {
        self.0.challenge = challenge;
        self
    }

    /// Which adversary plays the trials.
    #[must_use]
    pub fn adversary(mut self, adversary: AdversaryKind) -> Self {
        self.0.adversary = adversary;
        self
    }

    /// Batch assembly per step (full-batch or Poisson-subsampled).
    #[must_use]
    pub fn sampling(mut self, sampling: Sampling) -> Self {
        self.0.sampling = sampling;
        self
    }

    /// Derive the floor from the clip norm, as `DpsgdConfig::new` does,
    /// and validate the settings with [`TrialSettings::check`].
    ///
    /// # Errors
    /// A [`SettingsError`] naming the first offending field.
    pub fn build(mut self) -> Result<TrialSettings, SettingsError> {
        self.0.dpsgd.ls_floor = DpsgdConfig::ls_floor_for(self.0.dpsgd.clip_norm);
        self.0.check()?;
        Ok(self.0)
    }
}

/// How much of a trial's outcome is kept when it is recorded.
///
/// A `Full` record keeps the per-step series (`belief_history`,
/// `local_sensitivities`, `sigmas`) — O(k) numbers per trial. A `Summary`
/// record drops them, keeping only the scalar outcome; at paper scale
/// (1000 reps × 30 steps) this shrinks a durable trial store by ~30×.
/// Derived ε′ values that need the series must then be computed *at
/// execution time*, before the record is stripped (the runtime engine does
/// this for the local-sensitivity estimator).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum RecordDetail {
    /// Keep the per-step series.
    #[default]
    Full,
    /// Keep only scalar outcomes.
    Summary,
}

/// The per-trial seed convention shared by [`run_di_trials`], the bench
/// harness, and the `dpaudit-runtime` execution engine: trial `i` of a batch
/// uses `split_seed(master_seed, 1000 + i)`. Keeping this in one place is
/// what makes a resumed run bit-identical to an uninterrupted one.
pub fn trial_seed(master_seed: u64, idx: usize) -> u64 {
    split_seed(master_seed, 1000 + idx as u64)
}

/// Outcome of one challenge trial.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DiTrialResult {
    /// The challenge bit (true ⇔ D was trained).
    pub b: bool,
    /// The adversary's guess (true ⇔ it output D).
    pub guess: bool,
    /// Whether the guess matched the bit.
    pub correct: bool,
    /// Final score for D — the posterior belief β_k(D) for the Bayesian
    /// adversary, the score-generic statistic for the others. (The field
    /// keeps its historical name for store-schema stability.)
    pub belief_d: f64,
    /// Final score for the dataset that was actually trained — the
    /// quantity whose exceedance of ρ_β is counted as empirical δ.
    pub belief_trained: f64,
    /// Score s_i(D) after every observation (β_i(D) for the Bayesian
    /// adversary; empty until the final model for [`ThresholdMi`]).
    ///
    /// [`ThresholdMi`]: crate::adversary::ThresholdMi
    pub belief_history: Vec<f64>,
    /// Estimated local sensitivity L̂S_ĝᵢ per step (Eqs. 17/18).
    pub local_sensitivities: Vec<f64>,
    /// Noise σᵢ per step.
    pub sigmas: Vec<f64>,
    /// Test accuracy of the final model, when a test set was supplied.
    pub test_accuracy: Option<f64>,
}

impl DiTrialResult {
    /// Strip the record to the requested [`RecordDetail`]: `Summary` drops
    /// the per-step series, `Full` is the identity.
    #[must_use]
    pub fn with_detail(mut self, detail: RecordDetail) -> Self {
        if detail == RecordDetail::Summary {
            self.belief_history = Vec::new();
            self.local_sensitivities = Vec::new();
            self.sigmas = Vec::new();
        }
        self
    }
}

/// One complete Exp^DI trial: build a model, flip the challenge bit, run
/// DPSGD with the adversary observing every step, and record the outcome.
///
/// `model_builder` constructs the (seeded) initial model — θ₀ is part of the
/// adversary's assumed knowledge, so both parties share it by construction.
pub fn run_di_trial(
    pair: &NeighborPair,
    settings: &TrialSettings,
    test_set: Option<&Dataset>,
    model_builder: impl Fn(&mut StdRng) -> Sequential,
    seed: u64,
) -> DiTrialResult {
    let mut model_rng = seeded_rng(split_seed(seed, 0));
    let mut noise_rng = seeded_rng(split_seed(seed, 1));
    let mut challenge_rng = seeded_rng(split_seed(seed, 2));

    let b = match settings.challenge {
        ChallengeMode::RandomBit => challenge_rng.gen::<bool>(),
        ChallengeMode::AlwaysD => true,
    };

    let mut model = model_builder(&mut model_rng);
    let mut adversary = settings.adversary.build(settings.dpsgd.mode);
    let mut local_sensitivities = Vec::with_capacity(settings.dpsgd.steps);
    let mut sigmas = Vec::with_capacity(settings.dpsgd.steps);

    {
        let mut observe = |record: dpaudit_dpsgd::StepRecord| {
            let belief_span = obs::span(obs::names::BELIEF_SPAN);
            adversary.observe(&record, b);
            drop(belief_span);
            local_sensitivities.push(record.local_sensitivity);
            sigmas.push(record.sigma);
        };
        match settings.sampling {
            Sampling::FullBatch => {
                train_dpsgd(
                    &mut model,
                    pair,
                    b,
                    &settings.dpsgd,
                    &mut noise_rng,
                    &mut observe,
                );
            }
            Sampling::Poisson { q } => {
                // The Poisson sampler draws from its own substream, created
                // only on this branch — full-batch trials consume exactly
                // the streams they always did and stay bit-identical.
                let mut sample_rng = seeded_rng(split_seed(seed, 3));
                train_dpsgd_subsampled(
                    &mut model,
                    pair,
                    b,
                    &settings.dpsgd,
                    q,
                    &mut noise_rng,
                    &mut sample_rng,
                    &mut observe,
                );
            }
        }
    }
    adversary.observe_final(&model, pair);

    let guess = adversary.decide_d();
    let belief_d = adversary.score_d();
    let belief_trained = if b { belief_d } else { 1.0 - belief_d };
    let test_accuracy = test_set.map(|t| model.accuracy(&t.xs, &t.ys));

    if obs::enabled() {
        // Per-step score in the *trained* dataset. For the Bayesian
        // adversary the score is the literal posterior and feeds the belief
        // histograms (prior β₀ = ½ starts the update chain); other
        // adversaries stream the score-generic histogram instead.
        if settings.adversary.is_bayesian() {
            let mut prev = 0.5;
            for &score_in_d in adversary.history() {
                let belief = if b { score_in_d } else { 1.0 - score_in_d };
                obs::observe(obs::names::BELIEF_HIST, belief);
                obs::observe(obs::names::BELIEF_UPDATE_HIST, (belief - prev).abs());
                prev = belief;
            }
        } else {
            for &score_in_d in adversary.history() {
                let score = if b { score_in_d } else { 1.0 - score_in_d };
                obs::observe(obs::names::SCORE_HIST, score);
            }
        }
        obs::gauge_max(obs::names::MAX_BELIEF_GAUGE, belief_trained);
        // The ρ_β-implied empirical ε′ (Eq. 10) rides the same stream as
        // the ledger's ε′-from-sensitivities. logit is monotone, so the
        // max-fold over per-trial values equals the final report's
        // ε′-from-belief exactly. A saturated score (ŝ = 1 ⇒ ε′ = ∞) is
        // skipped: JSON sinks cannot carry it and it would flatten the
        // gauge for the rest of the run.
        let eps_prime = crate::audit::MaxBeliefEstimator::from_max_belief(belief_trained);
        if eps_prime.is_finite() {
            obs::gauge_max(obs::names::EPS_PRIME_GAUGE, eps_prime);
        }
        obs::counter(obs::names::TRIALS, 1);
    }

    DiTrialResult {
        b,
        guess,
        correct: guess == b,
        belief_d,
        belief_trained,
        belief_history: adversary.history().to_vec(),
        local_sensitivities,
        sigmas,
        test_accuracy,
    }
}

/// Aggregate results of a trial batch.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct DiBatchResult {
    /// Per-trial outcomes, in seed order.
    pub trials: Vec<DiTrialResult>,
}

impl DiBatchResult {
    /// Fraction of correct guesses.
    pub fn success_rate(&self) -> f64 {
        assert!(!self.trials.is_empty(), "success_rate: no trials");
        self.trials.iter().filter(|t| t.correct).count() as f64 / self.trials.len() as f64
    }

    /// Empirical membership advantage `2·Pr(correct) − 1` (Definition 5).
    pub fn advantage(&self) -> f64 {
        advantage_from_success_rate(self.success_rate())
    }

    /// Empirical δ: the fraction of trials whose final belief in the *true*
    /// dataset exceeded the bound ρ_β (paper §6.2).
    pub fn empirical_delta(&self, rho_beta_bound: f64) -> f64 {
        assert!(!self.trials.is_empty(), "empirical_delta: no trials");
        self.trials
            .iter()
            .filter(|t| t.belief_trained > rho_beta_bound)
            .count() as f64
            / self.trials.len() as f64
    }

    /// Final scores for the trained dataset across trials (Figure 6 series;
    /// beliefs for the Bayesian adversary).
    pub fn final_scores(&self) -> Vec<f64> {
        self.trials.iter().map(|t| t.belief_trained).collect()
    }

    /// The maximum observed final score (input to the ε′-from-β estimator).
    pub fn max_score(&self) -> f64 {
        self.trials
            .iter()
            .map(|t| t.belief_trained)
            .fold(f64::NEG_INFINITY, f64::max)
    }

    /// Test accuracies across trials, when recorded (Figure 7 series).
    pub fn test_accuracies(&self) -> Vec<f64> {
        self.trials.iter().filter_map(|t| t.test_accuracy).collect()
    }
}

/// Run `reps` independent trials with per-trial seeds split from
/// `master_seed`.
pub fn run_di_trials(
    pair: &NeighborPair,
    settings: &TrialSettings,
    test_set: Option<&Dataset>,
    model_builder: impl Fn(&mut StdRng) -> Sequential + Sync,
    reps: usize,
    master_seed: u64,
) -> DiBatchResult {
    assert!(reps > 0, "run_di_trials: reps must be positive");
    let trials = (0..reps)
        .map(|i| {
            run_di_trial(
                pair,
                settings,
                test_set,
                &model_builder,
                trial_seed(master_seed, i),
            )
        })
        .collect();
    DiBatchResult { trials }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_datasets::NeighborSpec;
    use dpaudit_dp::NeighborMode;
    use dpaudit_dpsgd::{BackendChoice, SensitivityScaling};
    use dpaudit_nn::{Dense, Layer};
    use dpaudit_tensor::Tensor;

    fn toy_pair() -> NeighborPair {
        let mut d = Dataset::empty();
        for i in 0..8 {
            let x: Vec<f64> = (0..6).map(|j| ((i * 5 + j * 3) % 7) as f64 / 7.0).collect();
            d.push(Tensor::from_vec(&[6], x), i % 2);
        }
        NeighborPair::from_spec(
            &d,
            &NeighborSpec::Replace {
                index: 0,
                record: Tensor::full(&[6], 1.0),
                label: 1,
            },
        )
    }

    fn builder(rng: &mut StdRng) -> Sequential {
        Sequential::new(vec![
            Layer::Dense(Dense::new(rng, 6, 4)),
            Layer::Relu,
            Layer::Dense(Dense::new(rng, 4, 2)),
        ])
    }

    fn settings(z: f64, challenge: ChallengeMode) -> TrialSettings {
        TrialSettings::builder()
            .clip_norm(1.0)
            .learning_rate(0.05)
            .steps(4)
            .mode(NeighborMode::Bounded)
            .noise_multiplier(z)
            .scaling(SensitivityScaling::Local)
            .challenge(challenge)
            .build()
            .expect("valid test settings")
    }

    #[test]
    fn builder_matches_the_legacy_constructor() {
        let built = settings(2.0, ChallengeMode::RandomBit);
        let legacy = TrialSettings {
            dpsgd: DpsgdConfig::new(
                1.0,
                0.05,
                4,
                NeighborMode::Bounded,
                2.0,
                SensitivityScaling::Local,
            ),
            challenge: ChallengeMode::RandomBit,
            adversary: AdversaryKind::GaussianBelief,
            sampling: Sampling::FullBatch,
        };
        assert_eq!(built, legacy);
    }

    #[test]
    fn legacy_headers_parse_to_the_default_adversary_and_sampling() {
        // A pre-zoo header has no adversary/sampling keys; serde defaults
        // must fill in the paper's protocol.
        let current = settings(2.0, ChallengeMode::RandomBit);
        let json = serde_json::to_string(&current).unwrap();
        let legacy = {
            let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
            match &mut v {
                serde_json::Value::Object(entries) => {
                    entries.retain(|(k, _)| k != "adversary" && k != "sampling");
                }
                other => panic!("settings serialised to a non-object: {other:?}"),
            }
            serde_json::to_string(&v).unwrap()
        };
        let parsed: TrialSettings = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed, current);
        assert_eq!(parsed.adversary, AdversaryKind::GaussianBelief);
        assert_eq!(parsed.sampling, Sampling::FullBatch);
    }

    #[test]
    fn legacy_headers_without_backend_parse_to_native() {
        // A pre-backend header has no `backend` key inside the dpsgd config;
        // serde must default it to the native (bit-stable) backend so old
        // stores keep their byte-identity guarantee.
        let current = settings(2.0, ChallengeMode::RandomBit);
        let json = serde_json::to_string(&current).unwrap();
        assert!(json.contains("\"backend\":\"Native\""), "{json}");
        let legacy = {
            let mut v: serde_json::Value = serde_json::from_str(&json).unwrap();
            match &mut v {
                serde_json::Value::Object(entries) => {
                    let dpsgd = entries
                        .iter_mut()
                        .find(|(k, _)| k == "dpsgd")
                        .map(|(_, v)| v)
                        .expect("header has a dpsgd object");
                    match dpsgd {
                        serde_json::Value::Object(inner) => {
                            inner.retain(|(k, _)| k != "backend");
                        }
                        other => panic!("dpsgd serialised to a non-object: {other:?}"),
                    }
                }
                other => panic!("settings serialised to a non-object: {other:?}"),
            }
            serde_json::to_string(&v).unwrap()
        };
        let parsed: TrialSettings = serde_json::from_str(&legacy).unwrap();
        assert_eq!(parsed, current);
        assert_eq!(parsed.dpsgd.backend, BackendChoice::Native);
    }

    #[test]
    fn poisson_settings_round_trip_through_serde() {
        let s = TrialSettings::builder()
            .adversary(AdversaryKind::Glrt)
            .sampling(Sampling::Poisson { q: 0.25 })
            .build()
            .unwrap();
        let json = serde_json::to_string(&s).unwrap();
        assert!(json.contains("\"adversary\":\"Glrt\""), "{json}");
        assert!(json.contains("\"Poisson\""), "{json}");
        let back: TrialSettings = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn builder_rejects_degenerate_poisson_rates() {
        for q in [0.0, 1.0, -0.1, f64::NAN] {
            let err = TrialSettings::builder()
                .sampling(Sampling::Poisson { q })
                .build()
                .unwrap_err();
            assert!(err.to_string().contains("poisson"), "{err}");
        }
        assert_eq!(Sampling::Poisson { q: 0.3 }.q(), Some(0.3));
        assert_eq!(Sampling::FullBatch.q(), None);
        assert_eq!(Sampling::FullBatch.to_string(), "full-batch");
        assert_eq!(Sampling::Poisson { q: 0.3 }.to_string(), "poisson(q=0.3)");
    }

    #[test]
    fn builder_rejects_invalid_fields() {
        let err = |b: TrialSettingsBuilder| b.build().unwrap_err().to_string();
        assert!(err(TrialSettings::builder().steps(0)).contains("steps"));
        assert!(err(TrialSettings::builder().clip_norm(0.0)).contains("clip norm"));
        assert!(err(TrialSettings::builder().clip_norm(f64::NAN)).contains("clip norm"));
        assert!(err(TrialSettings::builder().learning_rate(-0.1)).contains("learning rate"));
        assert!(err(TrialSettings::builder().noise_multiplier(0.0)).contains("noise multiplier"));
    }

    #[test]
    fn builder_defaults_ls_floor_from_the_clip_bound() {
        let s = TrialSettings::builder().clip_norm(2.0).build().unwrap();
        assert!((s.dpsgd.ls_floor - 2e-6).abs() < 1e-18);
    }

    #[test]
    fn trial_is_deterministic_per_seed() {
        let pair = toy_pair();
        let s = settings(2.0, ChallengeMode::RandomBit);
        let a = run_di_trial(&pair, &s, None, builder, 42);
        let b = run_di_trial(&pair, &s, None, builder, 42);
        assert_eq!(a.b, b.b);
        assert_eq!(a.belief_d, b.belief_d);
        assert_eq!(a.belief_history, b.belief_history);
    }

    #[test]
    fn trial_records_per_step_series() {
        let pair = toy_pair();
        let s = settings(2.0, ChallengeMode::AlwaysD);
        let t = run_di_trial(&pair, &s, None, builder, 7);
        assert!(t.b);
        assert_eq!(t.belief_history.len(), 4);
        assert_eq!(t.local_sensitivities.len(), 4);
        assert_eq!(t.sigmas.len(), 4);
        assert_eq!(t.belief_trained, t.belief_d);
        assert!(t.test_accuracy.is_none());
    }

    #[test]
    fn low_noise_adversary_nearly_always_wins() {
        let pair = toy_pair();
        // z = 0.05: essentially no noise relative to the gradient gap.
        let s = settings(0.05, ChallengeMode::RandomBit);
        let batch = run_di_trials(&pair, &s, None, builder, 20, 1);
        assert!(
            batch.success_rate() > 0.9,
            "success {}",
            batch.success_rate()
        );
        assert!(batch.advantage() > 0.8);
    }

    #[test]
    fn extreme_noise_advantage_near_zero() {
        let pair = toy_pair();
        let s = settings(500.0, ChallengeMode::RandomBit);
        let batch = run_di_trials(&pair, &s, None, builder, 40, 2);
        assert!(
            batch.advantage().abs() < 0.4,
            "advantage {}",
            batch.advantage()
        );
        // Beliefs hover near the prior.
        for t in &batch.trials {
            assert!((t.belief_d - 0.5).abs() < 0.2, "belief {}", t.belief_d);
        }
    }

    #[test]
    fn empirical_delta_counts_bound_violations() {
        let pair = toy_pair();
        let s = settings(0.05, ChallengeMode::AlwaysD);
        let batch = run_di_trials(&pair, &s, None, builder, 10, 3);
        // With almost no noise the belief saturates → every trial exceeds
        // a 0.9 bound; none exceed a bound of 1.0.
        assert!(batch.empirical_delta(0.9) > 0.8);
        assert_eq!(batch.empirical_delta(1.0), 0.0);
        assert!(batch.max_score() > 0.99);
    }

    fn settings_for(adversary: AdversaryKind, z: f64, sampling: Sampling) -> TrialSettings {
        TrialSettings::builder()
            .clip_norm(1.0)
            .learning_rate(0.05)
            .steps(4)
            .mode(NeighborMode::Bounded)
            .noise_multiplier(z)
            .scaling(SensitivityScaling::Local)
            .challenge(ChallengeMode::AlwaysD)
            .adversary(adversary)
            .sampling(sampling)
            .build()
            .expect("valid test settings")
    }

    #[test]
    fn gaussian_via_kind_matches_the_default_path_bit_for_bit() {
        // The explicit GaussianBelief selection must reproduce the default
        // trial to the bit — the acceptance criterion of the refactor.
        let pair = toy_pair();
        let default = settings(2.0, ChallengeMode::RandomBit);
        let explicit = settings_for(AdversaryKind::GaussianBelief, 2.0, Sampling::FullBatch);
        // Align the challenge protocol before comparing.
        let mut explicit = explicit;
        explicit.challenge = ChallengeMode::RandomBit;
        let a = run_di_trial(&pair, &default, None, builder, 42);
        let b = run_di_trial(&pair, &explicit, None, builder, 42);
        assert_eq!(a.b, b.b);
        assert_eq!(a.belief_d.to_bits(), b.belief_d.to_bits());
        assert_eq!(a.belief_history, b.belief_history);
        assert_eq!(a.sigmas, b.sigmas);
    }

    #[test]
    fn glrt_trial_decides_like_gaussian_and_scores_stronger_under_noise() {
        // High noise: same decisions (identical statistic), but the GLRT's
        // standardised score certifies at least the Bayesian ε′ (sanity
        // check of the tightness ordering).
        let pair = toy_pair();
        let gauss = settings_for(AdversaryKind::GaussianBelief, 50.0, Sampling::FullBatch);
        let glrt = settings_for(AdversaryKind::Glrt, 50.0, Sampling::FullBatch);
        let batch_g = run_di_trials(&pair, &gauss, None, builder, 10, 11);
        let batch_l = run_di_trials(&pair, &glrt, None, builder, 10, 11);
        for (g, l) in batch_g.trials.iter().zip(&batch_l.trials) {
            assert_eq!(g.guess, l.guess);
        }
        let eps_gauss = crate::audit::MaxBeliefEstimator::from_max_belief(batch_g.max_score());
        let eps_glrt = crate::audit::MaxBeliefEstimator::from_max_belief(batch_l.max_score());
        assert!(
            eps_glrt >= eps_gauss,
            "glrt eps' {eps_glrt} < gaussian eps' {eps_gauss}"
        );
    }

    #[test]
    fn threshold_mi_trial_scores_from_the_final_model_only() {
        let pair = toy_pair();
        let s = settings_for(AdversaryKind::ThresholdMi, 2.0, Sampling::FullBatch);
        let t = run_di_trial(&pair, &s, None, builder, 13);
        // One history entry (the final-model observation), not one per step.
        assert_eq!(t.belief_history.len(), 1);
        assert_eq!(t.belief_history[0], t.belief_d);
        assert!(t.belief_d > 0.0 && t.belief_d < 1.0);
        // Per-step series still recorded for the ε′-from-LS estimator.
        assert_eq!(t.sigmas.len(), 4);
    }

    #[test]
    fn poisson_trial_is_deterministic_and_differs_from_full_batch() {
        let pair = toy_pair();
        let s = settings_for(
            AdversaryKind::GaussianBelief,
            2.0,
            Sampling::Poisson { q: 0.5 },
        );
        let a = run_di_trial(&pair, &s, None, builder, 21);
        let b = run_di_trial(&pair, &s, None, builder, 21);
        assert_eq!(a.belief_d.to_bits(), b.belief_d.to_bits());
        assert_eq!(a.belief_history, b.belief_history);
        assert_eq!(a.sigmas, b.sigmas);
        let full = run_di_trial(
            &pair,
            &settings_for(AdversaryKind::GaussianBelief, 2.0, Sampling::FullBatch),
            None,
            builder,
            21,
        );
        assert_ne!(a.belief_history, full.belief_history);
        // Subsampled noise is scaled to the clip bound (GS), not the LS.
        assert!(a.sigmas.iter().all(|s| (s - 2.0).abs() < 1e-12));
    }

    #[test]
    fn random_bits_actually_vary() {
        let pair = toy_pair();
        let s = settings(2.0, ChallengeMode::RandomBit);
        let batch = run_di_trials(&pair, &s, None, builder, 30, 4);
        let ones = batch.trials.iter().filter(|t| t.b).count();
        assert!(
            ones > 5 && ones < 25,
            "challenge bits degenerate: {ones}/30"
        );
    }

    #[test]
    fn test_accuracy_recorded_when_requested() {
        let pair = toy_pair();
        let test = pair.d.slice(0, 4);
        let s = settings(2.0, ChallengeMode::AlwaysD);
        let t = run_di_trial(&pair, &s, Some(&test), builder, 9);
        let acc = t.test_accuracy.unwrap();
        assert!((0.0..=1.0).contains(&acc));
    }

    #[test]
    #[should_panic(expected = "reps must be positive")]
    fn zero_reps_rejected() {
        let pair = toy_pair();
        let s = settings(2.0, ChallengeMode::RandomBit);
        run_di_trials(&pair, &s, None, builder, 0, 1);
    }
}
