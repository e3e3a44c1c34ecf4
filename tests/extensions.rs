//! Integration tests for the extension features (DESIGN.md "optional /
//! future-work" items): the analytic Gaussian mechanism, KOV optimal
//! composition, the federated and Poisson-subsampled trainers, and the
//! scalar-query experiment — plus the one DPSGD step rule's configuration
//! (one flat clip norm, plain SGD) as store headers record it — all
//! exercised through the umbrella crate's public API.

use dp_identifiability::dpsgd::train_federated;
use dp_identifiability::prelude::*;

#[test]
fn analytic_mechanism_tightens_the_whole_pipeline() {
    // The same (ε, δ) target with the analytic σ instead of the classic one
    // means less noise at identical guarantees: the expected advantage of
    // the midpoint test strictly grows but stays below ρ_α.
    let (eps, delta) = (1.0, 1e-5);
    let classic = GaussianMechanism::calibrate(DpGuarantee::new(eps, delta), 1.0).sigma;
    let analytic = analytic_gaussian_sigma(eps, delta, 1.0);
    assert!(analytic < classic);
    let adv = |sigma: f64| 2.0 * dp_identifiability::math::phi(1.0 / (2.0 * sigma)) - 1.0;
    assert!(adv(analytic) > adv(classic));
    // ρ_α is derived from the classic calibration, so the analytic
    // mechanism may exceed it slightly — but never the generic e^ε − 1.
    assert!(adv(analytic) < eps.exp() - 1.0);
}

#[test]
fn kov_frontier_integrates_with_rho_beta() {
    // A data owner running 50 small Laplace queries: the KOV-certified ε
    // translates to a visibly smaller belief bound than naive addition.
    let per_query_eps = 0.05;
    let naive_eps = 50.0 * per_query_eps;
    let kov_eps = kov_optimal_epsilon(per_query_eps, 0.0, 50, 1e-6);
    assert!(kov_eps < naive_eps);
    assert!(rho_beta(kov_eps) < rho_beta(naive_eps));
}

/// The trial settings of a store header written before the step rule
/// became constant, copied byte for byte from the header of `dpaudit audit
/// run --workload purchase --reps 4 --steps 3 --train-size 30`.
const LEGACY_SETTINGS: &str = r#"{"dpsgd":{"clipping":{"Flat":3},"adaptive":null,"learning_rate":0.005,"steps":3,"mode":"Bounded","noise_multiplier":2.649964483411831,"scaling":"Local","optimizer":"Sgd","ls_floor":0.000003,"compute":"F64","backend":"Native"},"challenge":"RandomBit","adversary":"GaussianBelief","sampling":"FullBatch"}"#;

#[test]
fn dpsgd_config_keeps_legacy_header_bytes_and_refuses_removed_options() {
    let settings = TrialSettings::builder()
        .clip_norm(3.0)
        .learning_rate(0.005)
        .steps(3)
        .mode(NeighborMode::Bounded)
        .noise_multiplier(2.649964483411831)
        .scaling(SensitivityScaling::Local)
        .build()
        .expect("valid trial settings");
    assert_eq!(serde_json::to_string(&settings).unwrap(), LEGACY_SETTINGS);
    let parsed: TrialSettings = serde_json::from_str(LEGACY_SETTINGS).unwrap();
    assert_eq!(parsed, settings);

    // A record of another step rule would run different trials under the
    // same header: it is refused, naming the option.
    for (from, to, named) in [
        (
            r#"{"Flat":3}"#,
            r#"{"PerLayer":[2,1]}"#,
            "per-layer clipping was removed",
        ),
        (
            r#""adaptive":null"#,
            r#""adaptive":{"target_quantile":0.5,"learning_rate":0.2}"#,
            "adaptive clipping was removed",
        ),
        (
            r#""Sgd""#,
            r#"{"Adam":{"beta1":0.9,"beta2":0.999,"eps":1e-8}}"#,
            "Adam optimizer was removed",
        ),
    ] {
        let edited = LEGACY_SETTINGS.replace(from, to);
        assert_ne!(edited, LEGACY_SETTINGS);
        let err = serde_json::from_str::<TrialSettings>(&edited)
            .expect_err(named)
            .to_string();
        assert!(err.contains(named), "{err}");
    }

    // Older headers without these keys read as the defaults.
    let bare = LEGACY_SETTINGS
        .replace(r#","optimizer":"Sgd""#, "")
        .replace(r#","compute":"F64","backend":"Native""#, "");
    assert!(!bare.contains("optimizer") && !bare.contains("backend"));
    let parsed: TrialSettings = serde_json::from_str(&bare).unwrap();
    assert_eq!(parsed, settings);
}

#[test]
#[should_panic(expected = "learning rate must be positive")]
fn dpsgd_config_new_refuses_what_the_builder_refuses() {
    let err = TrialSettings::builder()
        .learning_rate(f64::INFINITY)
        .build()
        .expect_err("the builder refuses an infinite learning rate");
    // `{err}` alone as the message: a failing check here must not print
    // the text `new` is expected to panic with.
    assert!(
        err.to_string().contains("learning rate must be positive"),
        "{err}"
    );
    DpsgdConfig::new(
        3.0,
        f64::INFINITY,
        3,
        NeighborMode::Bounded,
        1.0,
        SensitivityScaling::Local,
    );
}

#[test]
fn minibatch_epsilon_is_amplified_vs_full_batch() {
    let mut rng = seeded_rng(5);
    let data = generate_purchase(&mut rng, 100);
    let pair = NeighborPair::from_spec(&data, &NeighborSpec::Remove { index: 0 });
    let mut model = purchase_mlp(&mut rng);
    let cfg = DpsgdConfig::new(
        3.0,
        0.005,
        20,
        NeighborMode::Unbounded,
        1.0,
        SensitivityScaling::Global,
    );
    let q = 0.1;
    // One subsampled Gaussian step per release, each with σ = z·C.
    let mut accountant = RdpAccountant::new();
    let mut releases = 0;
    train_dpsgd_subsampled(
        &mut model,
        &pair,
        true,
        &cfg,
        q,
        &mut rng,
        &mut seeded_rng(6),
        |r| {
            assert_eq!(r.sigma, 3.0);
            accountant.add_subsampled_gaussian_step(q, cfg.noise_multiplier);
            releases += 1;
        },
    );
    assert_eq!(releases, 20);
    let amplified = accountant.epsilon(1e-3).0;
    assert!(amplified > 0.0);
    let mut full = RdpAccountant::new();
    full.add_gaussian_steps(1.0, 20);
    let full_eps = full.epsilon(1e-3).0;
    assert!(
        amplified < full_eps / 3.0,
        "amplified {amplified} vs full {full_eps}"
    );
    // And the identifiability translation is well defined for both.
    assert!(rho_beta(amplified) < rho_beta(full_eps));
}

#[test]
fn federated_insider_is_the_di_adversary() {
    // One shard per party; the broadcast noisy totals feed the same
    // BeliefTracker the DPSGD adversary uses, and the belief respects the
    // accountant's translated ρ_β at this noise level.
    let mut rng = seeded_rng(6);
    let data = generate_purchase(&mut rng, 30);
    let (a, rest) = data.split_at(10);
    let (b, c) = rest.split_at(10);
    let shards = vec![a, b, c];
    let cfg = FederatedConfig::new(3.0, 0.005, 5, 10.0);
    let mut model = purchase_mlp(&mut rng);
    let mut tracker = BeliefTracker::new();
    let out = train_federated(&mut model, &shards, &cfg, &mut rng, |round| {
        // Insider hypothesis: the union vs the union minus one known record.
        // The removed record's clipped gradient is at most C, so use the
        // noisy total against a synthetic shifted center at distance C.
        let mut shifted = round.clean_total.clone();
        shifted[0] += 3.0;
        tracker.update_gaussian(
            &round.noisy_total,
            &round.clean_total,
            &shifted,
            round.sigma,
        );
    });
    let eps = out.epsilon(1e-3);
    // Worst-case belief bound for the composed budget must hold.
    assert!(tracker.belief() <= rho_beta(eps) + 1e-9);
}

#[test]
fn scalar_queries_and_dpsgd_share_audit_machinery() {
    // A Gaussian scalar-query batch audited with the same estimator used
    // for DPSGD transcripts.
    let mech = GaussianMechanism::new(10.0);
    let queries: Vec<ScalarQuery> = (0..5)
        .map(|_| ScalarQuery::new(vec![0.0], vec![2.0], ScalarMechanism::Gaussian(mech)))
        .collect();
    let batch = run_scalar_di_trials(&queries, 10, 7);
    let t = &batch.trials[0];
    let eps = LocalSensitivityEstimator::per_trial(&t.sigmas, &t.local_sensitivities, 1e-5, 1e-9);
    // Effective z = 10/2 = 5 over 5 steps.
    let mut acc = RdpAccountant::new();
    acc.add_gaussian_steps(5.0, 5);
    assert!((eps - acc.epsilon(1e-5).0).abs() < 1e-9);
}

#[test]
fn audit_report_round_trips_through_json() {
    let mut rng = seeded_rng(8);
    let data = generate_purchase(&mut rng, 15);
    let target = dataset_sensitivity_unbounded(&data, &Hamming);
    let pair = NeighborPair::from_spec(&data, &target.spec);
    let settings = TrialSettings::builder()
        .clip_norm(3.0)
        .learning_rate(0.005)
        .steps(2)
        .mode(NeighborMode::Unbounded)
        .noise_multiplier(5.0)
        .scaling(SensitivityScaling::Local)
        .challenge(ChallengeMode::RandomBit)
        .build()
        .expect("valid trial settings");
    let batch = run_di_trials(&pair, &settings, None, purchase_mlp, 4, 9);
    // Summarise the batch the way the runtime's streaming aggregator does:
    // per-trial ε′-from-LS summed in trial order.
    let delta = 1e-2;
    let mean_eps_ls = batch
        .trials
        .iter()
        .map(|t| {
            LocalSensitivityEstimator::per_trial(
                &t.sigmas,
                &t.local_sensitivities,
                delta,
                settings.dpsgd.ls_floor,
            )
        })
        .sum::<f64>()
        / 4.0;
    let inputs = EstimatorInputs {
        trials: 4,
        successes: batch.trials.iter().filter(|t| t.correct).count(),
        max_belief: batch.max_score(),
        mean_eps_ls,
        delta,
    };
    let report = AuditReport::from_inputs(&inputs, 2.2, batch.empirical_delta(rho_beta(2.2)));
    if report.eps_from_advantage.is_finite() {
        let json = serde_json::to_string(&report).unwrap();
        let back: AuditReport = serde_json::from_str(&json).unwrap();
        assert_eq!(back.trials, 4);
    }
    assert!(report.budget_utilisation() > 0.0);
}
