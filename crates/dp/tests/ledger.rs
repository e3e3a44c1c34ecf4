//! The privacy ledger's k-release Poisson composition, checked against k
//! one-release compositions of a bare accountant and against the events an
//! installed registry folds. This file is its own test binary, so no other
//! test emits ledger events while the registry listens.

use dpaudit_dp::{PrivacyLedger, RdpAccountant};
use dpaudit_obs as obs;
use std::sync::Arc;

#[test]
fn k_subsampled_releases_yield_and_emit_one_entry_each() {
    let (q, z, k, delta) = (0.2, 1.1, 30, 1e-3);
    let registry = Arc::new(obs::MetricsRegistry::new());
    let entries = {
        let _guard = obs::install(registry.clone());
        PrivacyLedger::new(delta).add_subsampled_gaussian_steps(q, z, k)
    };
    assert_eq!(entries.len(), k);
    assert_eq!(
        registry.snapshot().counters[obs::names::LEDGER_STEPS],
        k as u64
    );
    let mut acc = RdpAccountant::new();
    for (i, entry) in entries.iter().enumerate() {
        acc.add_subsampled_gaussian_step(q, z);
        let (eps, order) = acc.epsilon(delta);
        assert_eq!(entry.step, i + 1);
        assert_eq!(entry.local_sensitivity, 1.0);
        assert_eq!(entry.eps_prime.to_bits(), eps.to_bits(), "step {}", i + 1);
        assert_eq!(entry.order.to_bits(), order.to_bits(), "step {}", i + 1);
    }
}
