//! End-to-end check of the live ε′ telemetry: the gauges an audit run
//! streams must converge to exactly the values of the final
//! [`dpaudit_core::AuditReport`] — the property the Prometheus endpoint's
//! acceptance criteria rest on.
//!
//! This lives in its own integration-test binary (one process) because it
//! installs the process-global observability sink; unit tests in the main
//! binary run trials concurrently and would fold their events in too.

use dpaudit_core::{rho_beta, MaxBeliefEstimator, RecordDetail};
use dpaudit_obs as obs;
use dpaudit_runtime::testkit;
use dpaudit_runtime::{AuditSession, Parallelism, Seed, StoreHeader, SCHEMA_VERSION};
use std::sync::Arc;

fn toy_header(reps: usize, steps: usize) -> StoreHeader {
    StoreHeader {
        schema_version: SCHEMA_VERSION,
        label: "obs-gauges".into(),
        workload: "toy".into(),
        train_size: 8,
        world_seed: Seed(0),
        reps,
        master_seed: Seed(42),
        target_epsilon: 2.0,
        delta: 1e-3,
        rho_beta_bound: rho_beta(2.0),
        detail: RecordDetail::Summary,
        settings: testkit::toy_settings(steps),
    }
}

#[test]
fn streamed_gauges_match_the_final_report() {
    let (reps, steps) = (5usize, 3usize);
    let registry = Arc::new(obs::MetricsRegistry::new());
    let pair = testkit::toy_pair();
    let mut session = AuditSession::in_memory(toy_header(reps, steps));
    let mut records = Vec::new();
    let outcome = {
        let _guard = obs::install(registry.clone());
        session
            .run(
                &pair,
                None,
                testkit::toy_model,
                Parallelism::trials(2),
                |_| {},
                Some(&mut records),
            )
            .unwrap()
    };
    let snapshot = registry.snapshot();
    let report = &outcome.report;

    // Every executed trial streamed one ledger event per DPSGD step.
    assert_eq!(
        snapshot.counters[obs::names::LEDGER_STEPS],
        (reps * steps) as u64
    );
    assert_eq!(
        snapshot.histograms[obs::names::LEDGER_SENSITIVITY_HIST].total(),
        (reps * steps) as u64
    );

    // The budget anchor.
    assert_eq!(
        snapshot.gauges[obs::names::EPS_TARGET_GAUGE].to_bits(),
        2.0f64.to_bits()
    );

    // The ledger's running ε′ gauge is the worst per-trial
    // ε′-from-sensitivities — the max of the values the report averages.
    let max_eps_ls = records
        .iter()
        .map(|r| r.eps_ls)
        .fold(f64::NEG_INFINITY, f64::max);
    assert_eq!(
        snapshot.gauges[obs::names::EPS_PRIME_LS_GAUGE].to_bits(),
        max_eps_ls.to_bits()
    );
    assert!(max_eps_ls >= report.eps_from_ls);

    // logit is monotone, so the max-folded per-trial belief-implied ε′
    // equals the report's ε′-from-max-belief bit for bit.
    if report.eps_from_belief.is_finite() {
        assert_eq!(
            snapshot.gauges[obs::names::EPS_PRIME_GAUGE].to_bits(),
            report.eps_from_belief.to_bits()
        );
    }
}

#[test]
fn resumed_runs_converge_to_the_same_gauges() {
    let dir = std::env::temp_dir().join(format!("dpaudit-obs-gauges-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join("resume.jsonl");
    let pair = testkit::toy_pair();

    // First pass: run everything to completion, no telemetry. Its trials
    // still emit ledger events; a held disabled sink drops them and keeps
    // them out of the registry the other test installs (installs
    // serialise on one lock; bare emitters do not).
    let mut session = AuditSession::create(&path, toy_header(4, 3)).unwrap();
    let first = {
        let _quiet = obs::install(Arc::new(obs::NoopSink));
        session
            .run(
                &pair,
                None,
                testkit::toy_model,
                Parallelism::trials(2),
                |_| {},
                None,
            )
            .unwrap()
    };

    // Second pass: resume the complete store with telemetry on — every
    // trial replays, and the replay path must rebuild the ε′ gauges.
    let registry = Arc::new(obs::MetricsRegistry::new());
    let mut resumed = AuditSession::resume(&path).unwrap();
    let outcome = {
        let _guard = obs::install(registry.clone());
        resumed
            .run(
                &pair,
                None,
                testkit::toy_model,
                Parallelism::trials(2),
                |_| {},
                None,
            )
            .unwrap()
    };
    assert_eq!(outcome.replayed, 4);
    assert_eq!(outcome.executed, 0);
    assert_eq!(
        outcome.report.eps_from_belief.to_bits(),
        first.report.eps_from_belief.to_bits()
    );

    let snapshot = registry.snapshot();
    let expected_belief = MaxBeliefEstimator::from_max_belief(outcome.report.max_belief);
    if expected_belief.is_finite() {
        assert_eq!(
            snapshot.gauges[obs::names::EPS_PRIME_GAUGE].to_bits(),
            expected_belief.to_bits()
        );
    }
    assert!(snapshot.gauges[obs::names::EPS_PRIME_LS_GAUGE] >= outcome.report.eps_from_ls);
    assert_eq!(snapshot.counters[obs::names::TRIALS_REPLAYED], 4);
    std::fs::remove_file(&path).ok();
}
