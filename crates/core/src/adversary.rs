//! The adversary zoo: implementable DI adversaries behind one strategy
//! trait.
//!
//! The paper instantiates a single adversary — the Bayesian belief tracker
//! A_DI,Gau of Algorithm 1 — but the ε′ an audit certifies is only as tight
//! as the strongest adversary actually run. [`DiAdversaryStrategy`]
//! abstracts what the Exp^DI harness needs from an adversary (observe the
//! released steps, optionally inspect the final model, produce a score in
//! `[0, 1]` and a decision), so new attack families plug into the unchanged
//! engine as new workloads:
//!
//! * [`GaussianBelief`] — the paper's A_DI,Gau (the former `DiAdversary`),
//!   bit-identical to the pre-trait implementation.
//! * [`Glrt`] — the generalised-likelihood-ratio adversary (Kaissis et al.
//!   2022): same trajectory knowledge, but its exported score standardises
//!   the log-likelihood ratio by its null distribution, which separates
//!   weak evidence much more aggressively than the Bayesian posterior.
//! * [`ThresholdMi`] — a deliberately weak final-model loss-threshold
//!   adversary in the DI challenge protocol (Yeom-style), the bottom rung
//!   of the access-assumption ladder.
//!
//! [`AdversaryKind`] is the serialisable selector that rides trial
//! settings, store headers and fabric job headers.

use dpaudit_dp::NeighborMode;
use dpaudit_dpsgd::{NeighborPair, StepRecord};
use dpaudit_math::{phi, sigmoid};
use dpaudit_nn::Sequential;
use serde::{Deserialize, Serialize};

use crate::belief::BeliefTracker;
use crate::mi::MiAdversary;

/// What the Exp^DI harness requires from an adversary.
///
/// Per released DPSGD step the harness calls [`observe`]; after training it
/// calls [`observe_final`] (a no-op for trajectory adversaries) and then
/// reads the final [`score_d`], per-step [`history`] and [`decide_d`].
///
/// The score is the adversary's confidence that D was trained, on `[0, 1]`
/// with `0.5` meaning "no evidence". For the Bayesian adversary it is the
/// literal posterior belief β_i(D); other adversaries export whatever
/// monotone statistic drives their decision, mapped onto the same interval
/// so the ε′-from-score estimator (paper Eq. 10) applies uniformly.
///
/// `trained_on_d` is ground truth used only to orient the stored hypothesis
/// sums ([`StepRecord::hypothesis_centers`]); it never influences the
/// decision rule.
///
/// [`observe`]: DiAdversaryStrategy::observe
/// [`observe_final`]: DiAdversaryStrategy::observe_final
/// [`score_d`]: DiAdversaryStrategy::score_d
/// [`history`]: DiAdversaryStrategy::history
/// [`decide_d`]: DiAdversaryStrategy::decide_d
pub trait DiAdversaryStrategy {
    /// Observe one DPSGD step record.
    fn observe(&mut self, record: &StepRecord, trained_on_d: bool);

    /// Observe the final trained model. Default: no-op — trajectory
    /// adversaries have already seen everything they use.
    fn observe_final(&mut self, _model: &Sequential, _pair: &NeighborPair) {}

    /// Final score for "D was trained", on `[0, 1]`.
    fn score_d(&self) -> f64;

    /// Score trajectory s₁, …, s_i (one entry per observation folded in).
    fn history(&self) -> &[f64];

    /// Final decision: `true` ⇔ output D (guess b = 1).
    fn decide_d(&self) -> bool;
}

/// The differential-identifiability adversary against DPSGD with the
/// Gaussian mechanism — the paper's A_DI,Gau.
///
/// It knows both neighbouring datasets, the initial weights θ₀, the
/// learning rate, the clipping norm and the per-step σᵢ, and observes the
/// perturbed gradient g̃ᵢ after every step (the federated-learning reading
/// of §6.1). Per step it computes the two hypothesis gradient sums
/// ĝᵢ(D), ĝᵢ(D′) and performs the naive-Bayes belief update of Lemma 1;
/// after k steps it outputs the dataset with the higher posterior.
///
/// The harness feeds it [`StepRecord`]s (whose stored gradients are exactly
/// what the adversary would recompute from the public model state — see
/// `dpaudit-dpsgd`); its score is the posterior belief β_i(D).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct GaussianBelief {
    tracker: BeliefTracker,
    mode: NeighborMode,
}

impl GaussianBelief {
    /// Fresh adversary with the uniform prior of Experiment 2.
    pub fn new(mode: NeighborMode) -> Self {
        Self {
            tracker: BeliefTracker::new(),
            mode,
        }
    }

    /// Exact log-odds Λ_i (useful once β saturates at 1.0 in f64).
    pub fn log_odds(&self) -> f64 {
        self.tracker.log_odds()
    }

    /// The neighbouring relation this adversary assumes.
    pub fn mode(&self) -> NeighborMode {
        self.mode
    }
}

impl DiAdversaryStrategy for GaussianBelief {
    fn observe(&mut self, record: &StepRecord, trained_on_d: bool) {
        let (center_d, center_dp) = record.hypothesis_centers(trained_on_d, self.mode);
        self.tracker
            .update_gaussian(&record.noisy_sum, &center_d, &center_dp, record.sigma);
    }

    fn score_d(&self) -> f64 {
        self.tracker.belief()
    }

    fn history(&self) -> &[f64] {
        self.tracker.history()
    }

    fn decide_d(&self) -> bool {
        self.tracker.decide_d()
    }
}

/// The generalised-likelihood-ratio adversary (Kaissis et al. 2022).
///
/// For Gaussian releases with known hypothesis centers the likelihood-ratio
/// statistic *is* the Bayes log-odds Λ = Σᵢ (‖r−c_D′‖² − ‖r−c_D‖²)/(2σᵢ²),
/// so the GLRT's *decision* (Λ > 0) coincides with [`GaussianBelief`]'s and
/// by Neyman–Pearson is optimal in this threat model. What differs is the
/// exported score: under H_D, Λ ~ N(μ, 2μ) with the null mean
/// μ = Σᵢ dᵢ²/(2σᵢ²) where dᵢ = ‖c_D − c_D′‖, so the adversary reports the
/// standardised statistic Φ(Λ/√(2μ)). When evidence is weak (μ ≪ 1) the
/// posterior sigmoid(Λ) barely leaves the prior, while the standardised
/// score still separates the hypotheses — which is why the GLRT certifies
/// an ε′-from-score at least as large as the Bayesian adversary's on
/// high-noise configurations.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Glrt {
    mode: NeighborMode,
    llr_sum: f64,
    null_mean: f64,
    history: Vec<f64>,
}

impl Glrt {
    /// Fresh adversary with no evidence folded in.
    pub fn new(mode: NeighborMode) -> Self {
        Self {
            mode,
            llr_sum: 0.0,
            null_mean: 0.0,
            history: Vec::new(),
        }
    }

    /// The raw likelihood-ratio statistic Λ_i.
    pub fn statistic(&self) -> f64 {
        self.llr_sum
    }

    /// The null mean μ = Σᵢ dᵢ²/(2σᵢ²) accumulated so far.
    pub fn null_mean(&self) -> f64 {
        self.null_mean
    }

    /// The neighbouring relation this adversary assumes.
    pub fn mode(&self) -> NeighborMode {
        self.mode
    }

    fn current_score(&self) -> f64 {
        if self.null_mean > 0.0 {
            phi(self.llr_sum / (2.0 * self.null_mean).sqrt())
        } else {
            0.5
        }
    }

    fn update(&mut self, noisy: &[f64], center_d: &[f64], center_d_prime: &[f64], sigma: f64) {
        assert!(sigma > 0.0, "Glrt: sigma must be positive");
        assert_eq!(noisy.len(), center_d.len(), "Glrt: center_d length");
        assert_eq!(
            noisy.len(),
            center_d_prime.len(),
            "Glrt: center_d_prime length"
        );
        // Same fused pass as the Bayesian update: the LLR and the squared
        // center distance d² share one loop over the release.
        let mut diff = 0.0;
        let mut d2 = 0.0;
        for ((&r, &cd), &cdp) in noisy.iter().zip(center_d).zip(center_d_prime) {
            diff += (r - cdp) * (r - cdp) - (r - cd) * (r - cd);
            d2 += (cd - cdp) * (cd - cdp);
        }
        let two_sigma_sq = 2.0 * sigma * sigma;
        self.llr_sum += diff / two_sigma_sq;
        self.null_mean += d2 / two_sigma_sq;
        assert!(!self.llr_sum.is_nan(), "Glrt: NaN likelihood-ratio sum");
        self.history.push(self.current_score());
    }
}

impl DiAdversaryStrategy for Glrt {
    fn observe(&mut self, record: &StepRecord, trained_on_d: bool) {
        let (center_d, center_dp) = record.hypothesis_centers(trained_on_d, self.mode);
        self.update(&record.noisy_sum, &center_d, &center_dp, record.sigma);
    }

    fn score_d(&self) -> f64 {
        self.current_score()
    }

    fn history(&self) -> &[f64] {
        &self.history
    }

    fn decide_d(&self) -> bool {
        self.llr_sum > 0.0
    }
}

/// A loss-threshold adversary in the DI challenge protocol — the weakest
/// rung of the access-assumption ladder (Nasr et al.'s "API access" end).
///
/// It ignores the released trajectory entirely and inspects only the final
/// model: knowing both datasets, it compares the model's loss on the
/// differing record(s). Bounded pairs: score = sigmoid(ℓ(x̂₂) − ℓ(x̂₁)) —
/// training on D memorises x̂₁ and leaves x̂₂ unseen, pushing the score
/// above ½. Unbounded pairs: score = sigmoid(mean ℓ(D′) − ℓ(x̂₁)) — a
/// non-member x̂₁ shows elevated loss relative to the common records
/// (Yeom's threshold calibrated on D′).
///
/// Its advantage lower-bounds the stronger adversaries' (Proposition 1),
/// which makes it the baseline row of cross-adversary tightness tables.
#[derive(Debug, Clone, Serialize, Deserialize, Default)]
pub struct ThresholdMi {
    score: Option<f64>,
    history: Vec<f64>,
}

impl ThresholdMi {
    /// Fresh adversary; scores ½ until a final model is observed.
    pub fn new() -> Self {
        Self::default()
    }
}

impl DiAdversaryStrategy for ThresholdMi {
    /// Trajectory releases are outside this adversary's access assumption.
    fn observe(&mut self, _record: &StepRecord, _trained_on_d: bool) {}

    fn observe_final(&mut self, model: &Sequential, pair: &NeighborPair) {
        let (x1, y1) = pair.x1();
        let loss_x1 = MiAdversary::loss(model, x1, y1);
        let reference = match &pair.x2 {
            Some((x2, y2)) => MiAdversary::loss(model, x2, *y2),
            None => model.mean_loss(&pair.d_prime.xs, &pair.d_prime.ys),
        };
        let score = sigmoid(reference - loss_x1);
        self.score = Some(score);
        self.history.push(score);
    }

    fn score_d(&self) -> f64 {
        self.score.unwrap_or(0.5)
    }

    fn history(&self) -> &[f64] {
        &self.history
    }

    fn decide_d(&self) -> bool {
        self.score_d() > 0.5
    }
}

/// Serialisable selector for the adversary a trial batch runs — the knob
/// that rides [`TrialSettings`](crate::experiment::TrialSettings), store
/// headers and fabric job headers. Legacy headers without the field parse
/// to [`AdversaryKind::GaussianBelief`] (the only adversary that existed
/// before the zoo).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum AdversaryKind {
    /// The paper's Bayesian belief adversary ([`GaussianBelief`]).
    #[default]
    GaussianBelief,
    /// The likelihood-ratio adversary ([`Glrt`]).
    Glrt,
    /// The final-model loss-threshold adversary ([`ThresholdMi`]).
    ThresholdMi,
}

impl AdversaryKind {
    /// Every selectable adversary, in ladder order (strong → weak score).
    pub const ALL: [AdversaryKind; 3] = [
        AdversaryKind::GaussianBelief,
        AdversaryKind::Glrt,
        AdversaryKind::ThresholdMi,
    ];

    /// Instantiate a fresh adversary of this kind for one trial.
    pub fn build(self, mode: NeighborMode) -> Box<dyn DiAdversaryStrategy> {
        match self {
            AdversaryKind::GaussianBelief => Box::new(GaussianBelief::new(mode)),
            AdversaryKind::Glrt => Box::new(Glrt::new(mode)),
            AdversaryKind::ThresholdMi => Box::new(ThresholdMi::new()),
        }
    }

    /// Parse the CLI spelling (`gaussian`, `glrt`, `mi`).
    pub fn parse(name: &str) -> Option<Self> {
        match name {
            "gaussian" => Some(AdversaryKind::GaussianBelief),
            "glrt" => Some(AdversaryKind::Glrt),
            "mi" => Some(AdversaryKind::ThresholdMi),
            _ => None,
        }
    }

    /// The CLI spelling (inverse of [`AdversaryKind::parse`]).
    pub fn label(&self) -> &'static str {
        match self {
            AdversaryKind::GaussianBelief => "gaussian",
            AdversaryKind::Glrt => "glrt",
            AdversaryKind::ThresholdMi => "mi",
        }
    }

    /// Whether the exported score is a literal Bayesian posterior belief
    /// (drives belief-vs-score labelling in dashboards).
    pub fn is_bayesian(&self) -> bool {
        matches!(self, AdversaryKind::GaussianBelief)
    }
}

impl std::fmt::Display for AdversaryKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_math::seeded_rng;
    use rand::Rng;

    fn record(noisy: Vec<f64>, clean: Vec<f64>, g1: Vec<f64>, sigma: f64) -> StepRecord {
        StepRecord {
            step: 0,
            noisy_sum: noisy,
            clean_sum: clean,
            grad_x1: g1,
            grad_x2: None,
            local_sensitivity: 1.0,
            clip_bound: 3.0,
            sensitivity_used: 1.0,
            sigma,
            mean_loss: 0.0,
        }
    }

    #[test]
    fn output_near_d_center_raises_belief_in_d() {
        let mut adv = GaussianBelief::new(NeighborMode::Unbounded);
        // Trained on D: clean sum = [2, 2]; ĝ(D′) = [1, 1] (g1 = [1, 1]).
        // Observed output right at the D center.
        let r = record(vec![2.0, 2.0], vec![2.0, 2.0], vec![1.0, 1.0], 1.0);
        adv.observe(&r, true);
        assert!(adv.score_d() > 0.5);
        assert!(adv.decide_d());
    }

    #[test]
    fn output_near_d_prime_center_lowers_belief_in_d() {
        let mut adv = GaussianBelief::new(NeighborMode::Unbounded);
        // Trained on D′ this time: clean sum is ĝ(D′) = [1, 1],
        // ĝ(D) = clean + g1 = [2, 2]; output near D′.
        let r = record(vec![1.0, 1.0], vec![1.0, 1.0], vec![1.0, 1.0], 1.0);
        adv.observe(&r, false);
        assert!(adv.score_d() < 0.5);
        assert!(!adv.decide_d());
    }

    #[test]
    fn evidence_accumulates_across_steps() {
        let mut adv = GaussianBelief::new(NeighborMode::Unbounded);
        let r = record(vec![2.0, 2.0], vec![2.0, 2.0], vec![1.0, 1.0], 2.0);
        adv.observe(&r, true);
        let b1 = adv.score_d();
        adv.observe(&r, true);
        let b2 = adv.score_d();
        assert!(b2 > b1);
        assert_eq!(adv.history().len(), 2);
    }

    #[test]
    fn high_noise_keeps_belief_near_prior() {
        let mut adv = GaussianBelief::new(NeighborMode::Unbounded);
        let r = record(vec![2.0, 2.0], vec![2.0, 2.0], vec![1.0, 1.0], 1e6);
        adv.observe(&r, true);
        assert!((adv.score_d() - 0.5).abs() < 1e-6);
    }

    #[test]
    fn gaussian_via_trait_is_bit_identical_to_the_tracker() {
        // Randomised releases through the trait object vs the bare
        // BeliefTracker: every score in the history must match to the bit —
        // the refactor may not perturb a single operation.
        let mut rng = seeded_rng(77);
        for _ in 0..50 {
            let dim = 1 + rng.gen_range(0..6);
            let steps = 1 + rng.gen_range(0..8);
            let mut via_trait: Box<dyn DiAdversaryStrategy> =
                AdversaryKind::GaussianBelief.build(NeighborMode::Unbounded);
            let mut direct = BeliefTracker::new();
            for _ in 0..steps {
                let clean: Vec<f64> = (0..dim).map(|_| rng.gen_range(-3.0..3.0)).collect();
                let g1: Vec<f64> = (0..dim).map(|_| rng.gen_range(-1.0..1.0)).collect();
                let noisy: Vec<f64> = clean.iter().map(|c| c + rng.gen_range(-2.0..2.0)).collect();
                let sigma = rng.gen_range(0.1..10.0);
                let r = record(noisy, clean, g1, sigma);
                let (cd, cdp) = r.hypothesis_centers(true, NeighborMode::Unbounded);
                via_trait.observe(&r, true);
                direct.update_gaussian(&r.noisy_sum, &cd, &cdp, sigma);
            }
            assert_eq!(via_trait.score_d().to_bits(), direct.belief().to_bits());
            for (a, b) in via_trait.history().iter().zip(direct.history()) {
                assert_eq!(a.to_bits(), b.to_bits());
            }
            assert_eq!(via_trait.decide_d(), direct.decide_d());
        }
    }

    #[test]
    fn glrt_decision_matches_gaussian_belief() {
        // Same statistic drives both decisions (Neyman–Pearson): on any
        // release sequence the two adversaries guess identically.
        let mut rng = seeded_rng(5);
        for trial in 0..30 {
            let mut bayes = GaussianBelief::new(NeighborMode::Unbounded);
            let mut glrt = Glrt::new(NeighborMode::Unbounded);
            for _ in 0..4 {
                let clean = vec![rng.gen_range(-2.0..2.0), rng.gen_range(-2.0..2.0)];
                let g1 = vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)];
                let noisy: Vec<f64> = clean.iter().map(|c| c + rng.gen_range(-3.0..3.0)).collect();
                let r = record(noisy, clean, g1, 2.0);
                bayes.observe(&r, true);
                glrt.observe(&r, true);
            }
            assert_eq!(bayes.decide_d(), glrt.decide_d(), "trial {trial}");
            assert!((glrt.statistic() - bayes.log_odds()).abs() < 1e-9);
        }
    }

    #[test]
    fn glrt_standardised_score_amplifies_weak_evidence() {
        // High noise: the posterior barely moves off ½ while the
        // standardised GLRT score separates clearly.
        let mut bayes = GaussianBelief::new(NeighborMode::Unbounded);
        let mut glrt = Glrt::new(NeighborMode::Unbounded);
        let r = record(vec![2.0, 2.0], vec![2.0, 2.0], vec![1.0, 1.0], 100.0);
        bayes.observe(&r, true);
        glrt.observe(&r, true);
        assert!(bayes.score_d() > 0.5 && glrt.score_d() > 0.5);
        assert!(
            glrt.score_d() - 0.5 > 10.0 * (bayes.score_d() - 0.5),
            "glrt {} vs bayes {}",
            glrt.score_d(),
            bayes.score_d()
        );
    }

    #[test]
    fn glrt_no_evidence_scores_half() {
        let glrt = Glrt::new(NeighborMode::Unbounded);
        assert_eq!(glrt.score_d(), 0.5);
        assert!(!glrt.decide_d());
        // Identical centers (g1 = 0): d² = 0, score stays at the prior.
        let mut g = Glrt::new(NeighborMode::Unbounded);
        g.observe(&record(vec![1.0], vec![2.0], vec![0.0], 1.0), true);
        assert_eq!(g.score_d(), 0.5);
    }

    #[test]
    fn threshold_mi_ignores_trajectory() {
        let mut adv = ThresholdMi::new();
        let r = record(vec![2.0, 2.0], vec![2.0, 2.0], vec![1.0, 1.0], 1.0);
        adv.observe(&r, true);
        adv.observe(&record(vec![1.0], vec![0.0], vec![-2.0], 1.0), true);
        assert_eq!(adv.score_d(), 0.5);
        assert!(adv.history().is_empty());
        assert!(!adv.decide_d());
    }

    #[test]
    fn adversary_kind_round_trips_and_builds() {
        for kind in AdversaryKind::ALL {
            assert_eq!(AdversaryKind::parse(kind.label()), Some(kind));
            assert_eq!(kind.to_string(), kind.label());
            let adv = kind.build(NeighborMode::Bounded);
            assert_eq!(adv.score_d(), 0.5);
        }
        assert_eq!(AdversaryKind::parse("nope"), None);
        assert_eq!(AdversaryKind::default(), AdversaryKind::GaussianBelief);
        assert!(AdversaryKind::GaussianBelief.is_bayesian());
        assert!(!AdversaryKind::Glrt.is_bayesian());
    }

    #[test]
    fn adversary_kind_serde_is_stable() {
        let json = serde_json::to_string(&AdversaryKind::Glrt).unwrap();
        assert_eq!(json, "\"Glrt\"");
        let back: AdversaryKind = serde_json::from_str("\"GaussianBelief\"").unwrap();
        assert_eq!(back, AdversaryKind::GaussianBelief);
    }
}
