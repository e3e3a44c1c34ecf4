//! The privacy ledger: live, per-release ε′ accounting on top of
//! [`RdpAccountant`].
//!
//! The accountant answers "what does this composition cost?" once, at the
//! end. Auditing (§6.4 of the paper) wants to *watch* the cost evolve: ε′
//! after every noisy release, against the analytic ε budget the run claims.
//! [`PrivacyLedger`] wraps the accountant so every `add_*` both composes
//! the release *and* emits a structured [`dpaudit_obs::Event::Ledger`]
//! carrying the step index, the release's local sensitivity, ε′-so-far at
//! the optimal RDP order, and the budget — a live stream any installed
//! sink (metrics registry, JSONL trace, Prometheus endpoint) can consume.
//!
//! With no sink installed the emission is one relaxed atomic load, so the
//! ledger is safe to use on hot audit paths; the per-step ε′ conversion
//! itself is a scan over the RDP order grid (~40 entries) per release.

use crate::rdp::RdpAccountant;
use dpaudit_obs as obs;

/// What one ledger step recorded: the composition state right after a
/// noisy release was added.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct LedgerEntry {
    /// 1-based index of the release in the composition.
    pub step: usize,
    /// The local sensitivity attributed to the release.
    pub local_sensitivity: f64,
    /// ε′ of the whole composition so far at `delta`.
    pub eps_prime: f64,
    /// The RDP order at which `eps_prime` was attained.
    pub order: f64,
}

/// An [`RdpAccountant`] that narrates itself: every composed release
/// yields a [`LedgerEntry`] and emits a ledger event to the installed
/// observability sink.
///
/// A run of identical Poisson-subsampled releases composes in one call
/// ([`add_subsampled_gaussian_steps`](Self::add_subsampled_gaussian_steps)),
/// which works out the release's RDP once and still narrates one entry
/// and one event per release.
#[derive(Debug, Clone)]
pub struct PrivacyLedger {
    accountant: RdpAccountant,
    delta: f64,
    eps_budget: Option<f64>,
}

impl PrivacyLedger {
    /// A ledger converting at `delta`, with no known ε budget.
    ///
    /// # Panics
    /// Panics for δ outside `(0, 1)`.
    pub fn new(delta: f64) -> Self {
        Self::build(delta, None)
    }

    /// A ledger converting at `delta`, auditing against the analytic
    /// budget `eps_budget` (carried on every emitted event so exporters
    /// can draw the ε′-vs-ε comparison without extra context).
    ///
    /// # Panics
    /// Panics for δ outside `(0, 1)` or a non-positive budget.
    pub fn with_budget(delta: f64, eps_budget: f64) -> Self {
        assert!(
            eps_budget > 0.0,
            "PrivacyLedger: eps budget must be positive"
        );
        Self::build(delta, Some(eps_budget))
    }

    fn build(delta: f64, eps_budget: Option<f64>) -> Self {
        assert!(
            delta > 0.0 && delta < 1.0,
            "PrivacyLedger: delta must be in (0,1)"
        );
        PrivacyLedger {
            accountant: RdpAccountant::new(),
            delta,
            eps_budget,
        }
    }

    /// Compose one full-batch Gaussian release at noise multiplier `z`
    /// (noise scale over sensitivity), attributing unit sensitivity.
    pub fn add_gaussian_step(&mut self, noise_multiplier: f64) -> LedgerEntry {
        self.accountant.add_gaussian_step(noise_multiplier);
        self.entry(1.0)
    }

    /// Compose one Gaussian release of noise scale `sigma` on a query of
    /// local sensitivity `local_sensitivity` — the §6.4 per-step auditing
    /// primitive (effective noise multiplier zᵢ = σᵢ / sᵢ).
    ///
    /// # Panics
    /// Panics on a non-positive `sigma` or `local_sensitivity`.
    pub fn add_gaussian_release(&mut self, sigma: f64, local_sensitivity: f64) -> LedgerEntry {
        assert!(sigma > 0.0, "PrivacyLedger: sigma must be positive");
        assert!(
            local_sensitivity > 0.0,
            "PrivacyLedger: local sensitivity must be positive"
        );
        self.accountant.add_gaussian_step(sigma / local_sensitivity);
        self.entry(local_sensitivity)
    }

    /// Compose `k` identical Poisson-subsampled Gaussian releases at
    /// sampling rate `q`, attributing unit sensitivity to each.
    ///
    /// The per-order RDP increment is computed once for the whole call
    /// (see [`RdpAccountant::add_subsampled_gaussian_steps`]), then added
    /// one release at a time: every release still yields its own entry and
    /// emits its own ledger event, with the same bits as `k` separate
    /// one-release compositions.
    pub fn add_subsampled_gaussian_steps(
        &mut self,
        q: f64,
        noise_multiplier: f64,
        k: usize,
    ) -> Vec<LedgerEntry> {
        let increment = self
            .accountant
            .subsampled_gaussian_increment(q, noise_multiplier);
        (0..k)
            .map(|_| {
                self.accountant.add_step_increment(&increment);
                self.entry(1.0)
            })
            .collect()
    }

    /// Compose one Laplace release at noise scale `b` (relative to unit ℓ1
    /// sensitivity), attributing unit sensitivity.
    pub fn add_laplace_step(&mut self, scale_over_sensitivity: f64) -> LedgerEntry {
        self.accountant.add_laplace_step(scale_over_sensitivity);
        self.entry(1.0)
    }

    /// ε′ of the composition so far as `(ε′, best_order)`.
    pub fn eps_prime(&self) -> (f64, f64) {
        self.accountant.epsilon(self.delta)
    }

    /// Number of composed releases.
    pub fn steps(&self) -> usize {
        self.accountant.steps()
    }

    /// The δ the ledger converts at.
    pub fn delta(&self) -> f64 {
        self.delta
    }

    /// The analytic ε budget under audit, if one was given.
    pub fn eps_budget(&self) -> Option<f64> {
        self.eps_budget
    }

    /// The wrapped accountant (read-only; compose through the ledger so
    /// every release is narrated).
    pub fn accountant(&self) -> &RdpAccountant {
        &self.accountant
    }

    /// Snapshot the post-release state and emit it to the installed sink.
    fn entry(&self, local_sensitivity: f64) -> LedgerEntry {
        let (eps_prime, order) = self.eps_prime();
        let entry = LedgerEntry {
            step: self.accountant.steps(),
            local_sensitivity,
            eps_prime,
            order,
        };
        obs::record(&obs::Event::Ledger {
            step: entry.step as u64,
            local_sensitivity,
            eps_prime,
            eps_budget: self.eps_budget,
        });
        entry
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ledger_matches_a_bare_accountant() {
        let sigmas = [9.9, 10.2, 9.7];
        let ls = [0.8, 1.1, 0.9];
        let delta = 1e-3;
        let mut ledger = PrivacyLedger::new(delta);
        let mut acc = RdpAccountant::new();
        for (&sigma, &s) in sigmas.iter().zip(&ls) {
            ledger.add_gaussian_release(sigma, s);
            acc.add_gaussian_step(sigma / s);
        }
        let (eps_ledger, order_ledger) = ledger.eps_prime();
        let (eps_acc, order_acc) = acc.epsilon(delta);
        assert_eq!(eps_ledger.to_bits(), eps_acc.to_bits());
        assert_eq!(order_ledger, order_acc);
        assert_eq!(ledger.steps(), 3);
    }

    #[test]
    fn entries_report_a_monotone_eps_prime() {
        let mut ledger = PrivacyLedger::with_budget(1e-5, 2.0);
        let mut last = 0.0;
        for step in 1..=10 {
            let entry = ledger.add_gaussian_step(5.0);
            assert_eq!(entry.step, step);
            assert_eq!(entry.local_sensitivity, 1.0);
            assert!(
                entry.eps_prime > last,
                "composition must grow: {} vs {last}",
                entry.eps_prime
            );
            last = entry.eps_prime;
        }
        assert_eq!(ledger.eps_budget(), Some(2.0));
    }

    #[test]
    fn heterogeneous_releases_compose_like_the_accountant_docs() {
        // The accountant doc example: 30 steps at z ≈ 9.95 ⇒ ε ≈ 2.2.
        let mut ledger = PrivacyLedger::new(1e-3);
        let mut entry = ledger.add_gaussian_step(9.95);
        for _ in 1..30 {
            entry = ledger.add_gaussian_release(9.95, 1.0);
        }
        assert!((entry.eps_prime - 2.2).abs() < 0.05, "{}", entry.eps_prime);
    }

    #[test]
    #[should_panic(expected = "delta must be in (0,1)")]
    fn rejects_bad_delta() {
        let _ = PrivacyLedger::new(0.0);
    }

    #[test]
    #[should_panic(expected = "sigma must be positive")]
    fn rejects_bad_sigma() {
        PrivacyLedger::new(1e-5).add_gaussian_release(0.0, 1.0);
    }
}
