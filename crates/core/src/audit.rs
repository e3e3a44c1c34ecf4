//! Empirical privacy-loss estimation — the ε′ estimators of §6.4 and the
//! [`AuditReport`] that carries them.
//!
//! After training with a target budget ε, a data owner can ask what loss the
//! concrete run actually realised. If ε′ ≈ ε the noise was no larger than
//! necessary; ε′ ≪ ε means utility was wasted (the paper's global-sensitivity
//! runs); ε′ > ε can occur with the probability budgeted by δ (belief
//! estimator) or by Monte-Carlo error (advantage estimator).
//!
//! A finished batch is summarised by the order-insensitive
//! [`EstimatorInputs`]; [`AuditReport::from_inputs`] turns that summary into
//! the report. The runtime's streaming aggregator is the one caller that
//! folds trials into the summary, so every audit run, store replay, fabric
//! merge and reproduction binary builds its report the same way.

use dpaudit_dp::PrivacyLedger;
use dpaudit_math::logit;
use serde::{Deserialize, Serialize};

use crate::scores::{advantage_from_success_rate, epsilon_for_rho_alpha};

/// The order-insensitive batch summary behind an [`AuditReport`].
///
/// These five numbers are a sufficient statistic for the three estimators,
/// and they are cheap to stream: the runtime folds them in O(1) memory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EstimatorInputs {
    /// Number of Exp^DI challenge trials behind the Monte-Carlo estimators.
    pub trials: usize,
    /// Trials whose adversary guessed the challenge bit correctly.
    pub successes: usize,
    /// Maximum final posterior belief in the trained dataset.
    pub max_belief: f64,
    /// Mean over trials of the per-trial ε′-from-local-sensitivities
    /// (each computed by [`LocalSensitivityEstimator::per_trial`], or
    /// [`LocalSensitivityEstimator::per_trial_subsampled`] for a Poisson
    /// batch).
    pub mean_eps_ls: f64,
    /// The δ of the (ε, δ) claim under audit.
    pub delta: f64,
}

impl EstimatorInputs {
    /// Fraction of correct guesses.
    pub fn success_rate(&self) -> f64 {
        assert!(self.trials > 0, "EstimatorInputs: no trials");
        self.successes as f64 / self.trials as f64
    }

    /// Empirical membership advantage `2·Pr(correct) − 1` (Definition 5).
    pub fn advantage(&self) -> f64 {
        advantage_from_success_rate(self.success_rate())
    }
}

/// §6.4, first estimator: ε′ from observed per-step noise levels and
/// estimated local sensitivities, composed with the RDP accountant.
#[derive(Debug, Clone, Copy, Default)]
pub struct LocalSensitivityEstimator;

impl LocalSensitivityEstimator {
    /// ε′ of a *single* trial from its per-step series.
    ///
    /// Step `i` added noise σᵢ while the realised sensitivity was only
    /// `lsᵢ`, so its *effective* noise multiplier is `zᵢ = σᵢ / lsᵢ`;
    /// composing the heterogeneous steps with the RDP accountant at the
    /// target δ yields ε′. When noise was scaled to the local sensitivity,
    /// `zᵢ` equals the planned multiplier and ε′ recovers ε; when it was
    /// scaled to the (larger) global sensitivity, `zᵢ` is inflated and
    /// ε′ < ε.
    ///
    /// `ls_floor` guards against a vanishing sensitivity
    /// (indistinguishable hypotheses at a step contribute no privacy loss;
    /// the floor keeps the accountant finite and errs on the conservative
    /// side).
    ///
    /// The composition runs through a [`PrivacyLedger`], so when an
    /// observability sink is installed every step streams a structured
    /// ledger event (step index, local sensitivity, ε′-so-far) as the
    /// audit executes — the live telemetry behind `--serve-metrics` and
    /// `dpaudit watch`. The returned value is identical to composing the
    /// bare accountant.
    ///
    /// # Panics
    /// Panics on empty or mismatched series, a non-positive floor or σ, or
    /// δ outside `(0, 1)`.
    pub fn per_trial(
        sigmas: &[f64],
        local_sensitivities: &[f64],
        delta: f64,
        ls_floor: f64,
    ) -> f64 {
        assert!(
            !sigmas.is_empty(),
            "LocalSensitivityEstimator::per_trial: empty series"
        );
        assert_eq!(
            sigmas.len(),
            local_sensitivities.len(),
            "LocalSensitivityEstimator::per_trial: series length mismatch"
        );
        assert!(
            ls_floor > 0.0,
            "LocalSensitivityEstimator::per_trial: floor must be positive"
        );
        let mut ledger = PrivacyLedger::new(delta);
        for (&sigma, &ls) in sigmas.iter().zip(local_sensitivities) {
            ledger.add_gaussian_release(sigma, ls.max(ls_floor));
        }
        ledger.eps_prime().0
    }

    /// ε′ of a single *Poisson-subsampled* trial: `steps` compositions of
    /// the subsampled Gaussian mechanism at rate `q` and noise multiplier
    /// `z`, through the same ledger (so the structured ledger telemetry
    /// streams for mini-batch audits too, one event per step). Local
    /// sensitivities play no role — the amplification analysis is tied to
    /// the clip bound.
    ///
    /// The value depends only on `(q, z, steps, δ)`. The release's RDP
    /// increment is worked out once per call and added `steps` times
    /// ([`PrivacyLedger::add_subsampled_gaussian_steps`]), with the same
    /// bits as recomputing it at every step.
    ///
    /// # Panics
    /// Panics on zero steps or parameters the accountant rejects
    /// (`q` outside `(0, 1]`, non-positive `z`, δ outside `(0, 1)`).
    pub fn per_trial_subsampled(q: f64, noise_multiplier: f64, steps: usize, delta: f64) -> f64 {
        assert!(
            steps > 0,
            "LocalSensitivityEstimator::per_trial_subsampled: zero steps"
        );
        let mut ledger = PrivacyLedger::new(delta);
        ledger.add_subsampled_gaussian_steps(q, noise_multiplier, steps);
        ledger.eps_prime().0
    }
}

/// §6.4, second estimator: ε′ from the maximum posterior belief observed
/// across repeated runs (Eq. 10 inverted): `ε′ = ln(β̂_k / (1 − β̂_k))`.
///
/// The paper's text prints `ε′ = β̂/(1−β̂)` without the logarithm; that is
/// inconsistent with its own Eq. 10 and with the scale of its Figure 9, so
/// the logarithmic form is implemented (see DESIGN.md).
#[derive(Debug, Clone, Copy, Default)]
pub struct MaxBeliefEstimator;

impl MaxBeliefEstimator {
    /// The inversion itself: 0 for β̂ ≤ 1/2 (no evidence beyond the
    /// prior), `+∞` for β̂ = 1.
    ///
    /// # Panics
    /// Panics for β̂ outside `[0, 1]`.
    pub fn from_max_belief(max_belief: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&max_belief),
            "eps_from_max_belief: belief must be in [0, 1], got {max_belief}"
        );
        if max_belief <= 0.5 {
            0.0
        } else {
            logit(max_belief)
        }
    }
}

/// §6.4, third estimator: ε′ from the empirical membership advantage
/// (Eq. 15 inverted): `ε′ = √(2·ln(1.25/δ)) · Φ⁻¹((Adv′ + 1)/2)`.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdvantageEstimator;

impl AdvantageEstimator {
    /// The inversion itself: 0 for a non-positive advantage.
    ///
    /// # Panics
    /// Panics for an advantage ≥ 1 or δ outside `(0, 1)`.
    pub fn from_advantage(advantage: f64, delta: f64) -> f64 {
        epsilon_for_rho_alpha(advantage, delta)
    }
}

/// A complete audit of one experiment batch: the claimed budget, the three
/// ε′ estimates, and the verdict a data scientist acts on.
///
/// Serialisable (serde) so audits can be archived next to model artifacts.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AuditReport {
    /// The claimed/target total ε.
    pub target_epsilon: f64,
    /// The target δ used by the estimators.
    pub delta: f64,
    /// Number of challenge trials behind the Monte-Carlo estimators.
    pub trials: usize,
    /// ε′ from per-step local sensitivities (mean over trials).
    pub eps_from_ls: f64,
    /// ε′ from the maximum observed belief.
    pub eps_from_belief: f64,
    /// ε′ from the empirical advantage.
    pub eps_from_advantage: f64,
    /// The empirical advantage itself.
    pub advantage: f64,
    /// The maximum observed final belief.
    pub max_belief: f64,
    /// Fraction of trials whose belief exceeded the ρ_β implied by the
    /// target ε (must be ≲ δ).
    pub empirical_delta: f64,
}

impl AuditReport {
    /// Build a report from a batch summary. This is the only constructor;
    /// the runtime's streaming aggregator calls it once per finished batch.
    ///
    /// `empirical_delta` is the fraction of trials whose final belief in
    /// the trained dataset exceeded ρ_β(`target_epsilon`); it is counted
    /// per-trial upstream (it is not a function of the summary).
    ///
    /// # Panics
    /// Panics on zero trials or a non-positive budget.
    pub fn from_inputs(
        inputs: &EstimatorInputs,
        target_epsilon: f64,
        empirical_delta: f64,
    ) -> Self {
        assert!(inputs.trials > 0, "AuditReport: empty batch");
        assert!(
            target_epsilon > 0.0,
            "AuditReport: target epsilon must be positive"
        );
        Self {
            target_epsilon,
            delta: inputs.delta,
            trials: inputs.trials,
            eps_from_ls: inputs.mean_eps_ls,
            eps_from_belief: MaxBeliefEstimator::from_max_belief(inputs.max_belief),
            eps_from_advantage: AdvantageEstimator::from_advantage(
                inputs.advantage(),
                inputs.delta,
            ),
            advantage: inputs.advantage(),
            max_belief: inputs.max_belief,
            empirical_delta,
        }
    }

    /// The realised fraction of the claimed budget according to the
    /// transcript-exact estimator: 1.0 means tight, ≪ 1 means noise was
    /// oversized and utility wasted.
    pub fn budget_utilisation(&self) -> f64 {
        self.eps_from_ls / self.target_epsilon
    }

    /// Whether any estimator reports a loss meaningfully above the claim
    /// (beyond `tolerance`, e.g. 0.1 = 10%). The belief/advantage
    /// estimators may exceed the claim with probability ~δ / Monte-Carlo
    /// error, so a positive answer calls for more repetitions, not panic.
    pub fn exceeds_claim(&self, tolerance: f64) -> bool {
        let limit = self.target_epsilon * (1.0 + tolerance);
        self.eps_from_ls > limit || self.eps_from_belief > limit || self.eps_from_advantage > limit
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scores::{rho_alpha, rho_beta};
    use dpaudit_dp::calibrate_noise_multiplier_closed_form;

    #[test]
    fn ls_estimator_recovers_target_when_noise_is_tight() {
        // Plan for ε = 2.2, δ = 1e-3 over 30 steps; scale noise exactly to
        // the per-step sensitivity → ε′ must come back ≈ ε (the grid
        // accountant is within a few percent of the closed form).
        let (eps, delta, k) = (2.2, 1e-3, 30usize);
        let z = calibrate_noise_multiplier_closed_form(eps, delta, k);
        let ls: Vec<f64> = (0..k).map(|i| 1.0 + 0.1 * (i as f64)).collect();
        let sigmas: Vec<f64> = ls.iter().map(|l| z * l).collect();
        let eps_prime = LocalSensitivityEstimator::per_trial(&sigmas, &ls, delta, 1e-9);
        assert!(
            (eps_prime - eps).abs() / eps < 0.05,
            "eps' {eps_prime} vs eps {eps}"
        );
    }

    #[test]
    fn ls_estimator_reports_smaller_eps_for_oversized_noise() {
        // Noise scaled to 2C = 6 while realised sensitivity is ~1.5 → ε′ ≪ ε.
        let (eps, delta, k) = (2.2, 1e-3, 30usize);
        let z = calibrate_noise_multiplier_closed_form(eps, delta, k);
        let sigma_global = z * 6.0;
        let ls = vec![1.5; k];
        let sigmas = vec![sigma_global; k];
        let eps_prime = LocalSensitivityEstimator::per_trial(&sigmas, &ls, delta, 1e-9);
        assert!(eps_prime < eps * 0.5, "eps' {eps_prime} not ≪ {eps}");
    }

    #[test]
    fn ls_estimator_monotone_in_realised_sensitivity() {
        let sigmas = vec![10.0; 10];
        let low = LocalSensitivityEstimator::per_trial(&sigmas, &[1.0; 10], 1e-5, 1e-9);
        let high = LocalSensitivityEstimator::per_trial(&sigmas, &[2.0; 10], 1e-5, 1e-9);
        assert!(high > low);
    }

    #[test]
    fn ls_estimator_floor_bounds_degenerate_steps() {
        let sigmas = vec![1.0; 3];
        let ls = vec![0.0; 3];
        let eps = LocalSensitivityEstimator::per_trial(&sigmas, &ls, 1e-5, 1e-6);
        assert!(eps.is_finite());
        // The grid conversion cannot report below ln(1/δ)/(α_max − 1); just
        // require the result to be near that conversion floor.
        assert!(
            eps < 0.05,
            "degenerate steps should contribute ~nothing: {eps}"
        );
    }

    #[test]
    fn belief_estimator_inverts_rho_beta() {
        for &eps in &[0.08, 1.1, 2.2, 4.6] {
            let beta = rho_beta(eps);
            let back = MaxBeliefEstimator::from_max_belief(beta);
            assert!((back - eps).abs() < 1e-9, "{back} vs {eps}");
        }
    }

    #[test]
    fn belief_estimator_edge_cases() {
        assert_eq!(MaxBeliefEstimator::from_max_belief(0.5), 0.0);
        assert_eq!(MaxBeliefEstimator::from_max_belief(0.2), 0.0);
        assert_eq!(MaxBeliefEstimator::from_max_belief(1.0), f64::INFINITY);
    }

    #[test]
    fn advantage_estimator_inverts_rho_alpha() {
        for &(eps, delta) in &[(1.1, 1e-3), (2.2, 1e-2), (4.6, 1e-3)] {
            let adv = rho_alpha(eps, delta);
            let back = AdvantageEstimator::from_advantage(adv, delta);
            assert!((back - eps).abs() < 1e-9, "{back} vs {eps}");
        }
    }

    #[test]
    fn advantage_estimator_zero_for_random_guessing() {
        assert_eq!(AdvantageEstimator::from_advantage(0.0, 1e-3), 0.0);
        assert_eq!(AdvantageEstimator::from_advantage(-0.2, 1e-3), 0.0);
    }

    #[test]
    #[should_panic(expected = "series length mismatch")]
    fn mismatched_series_rejected() {
        LocalSensitivityEstimator::per_trial(&[1.0], &[1.0, 2.0], 1e-5, 1e-9);
    }

    fn summary(trials: usize, successes: usize, max_belief: f64) -> EstimatorInputs {
        EstimatorInputs {
            trials,
            successes,
            max_belief,
            mean_eps_ls: 1.3,
            delta: 1e-3,
        }
    }

    #[test]
    fn audit_report_fields_consistent() {
        // One correct trial with final belief 0.8, σ/ls = 10 over 5 steps.
        let eps_ls = LocalSensitivityEstimator::per_trial(&[10.0; 5], &[1.0; 5], 1e-3, 1e-9);
        let inp = EstimatorInputs {
            mean_eps_ls: eps_ls,
            ..summary(1, 1, 0.8)
        };
        // belief 0.8 < rho_beta(2.2) ≈ 0.9 → no empirical-delta violation.
        let report = AuditReport::from_inputs(&inp, 2.2, 0.0);
        assert_eq!(report.trials, 1);
        assert_eq!(report.delta, 1e-3);
        assert_eq!(report.eps_from_ls.to_bits(), eps_ls.to_bits());
        assert!((report.max_belief - 0.8).abs() < 1e-12);
        assert!((report.eps_from_belief - (0.8f64 / 0.2).ln()).abs() < 1e-9);
        assert_eq!(report.advantage, 1.0);
        assert_eq!(report.empirical_delta, 0.0);
        assert!(report.budget_utilisation() > 0.0);
    }

    #[test]
    fn audit_report_flags_exceedance() {
        // Belief 0.999 → eps' ≈ 6.9 ≫ target 2.2.
        let report = AuditReport::from_inputs(&summary(1, 1, 0.999), 2.2, 1.0);
        assert!(report.exceeds_claim(0.1));
        // A modest belief does not trip the flag via the belief estimator,
        // and a failed guess certifies no advantage; use a generous claim
        // so the ε′-from-LS of 1.3 does not exceed it either.
        let calm = AuditReport::from_inputs(&summary(1, 0, 0.6), 5.0, 0.0);
        assert!(!calm.exceeds_claim(0.1));
    }

    #[test]
    fn audit_report_serialises() {
        // Use a non-saturating batch: advantage 1.0 would give an infinite
        // eps_from_advantage, which JSON cannot round-trip.
        let report = AuditReport::from_inputs(&summary(100, 80, 0.9), 2.2, 0.01);
        let json = serde_json::to_string(&report).unwrap();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.trials, report.trials);
        assert_eq!(back.max_belief, report.max_belief);
    }

    #[test]
    #[should_panic(expected = "empty batch")]
    fn audit_report_rejects_empty_batch() {
        AuditReport::from_inputs(&summary(0, 0, 0.5), 2.2, 0.0);
    }
}
