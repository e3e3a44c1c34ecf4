//! The `dpaudit` subcommands. Each returns its report as a `String` so the
//! logic is unit-testable without capturing stdout.

use dpaudit_core::{
    epsilon_for_rho_alpha, epsilon_for_rho_beta, rho_alpha, rho_alpha_composed, rho_beta,
    ChallengeMode, LocalSensitivityEstimator, RecordDetail, TrialSettings,
};
use dpaudit_datasets::{
    dataset_sensitivity_unbounded, generate_mnist, generate_purchase, Hamming, NegSsim,
};
use dpaudit_dp::{
    analytic_gaussian_sigma, calibrate_noise_multiplier_closed_form, DpGuarantee,
    GaussianMechanism, NeighborMode, RdpAccountant,
};
use dpaudit_dpsgd::{NeighborPair, SensitivityScaling, Transcript};
use dpaudit_runtime::{
    AuditSession, Parallelism, Seed, StoreHeader, MAX_REPS, MAX_STEPS, SCHEMA_VERSION,
};
use std::fmt::Write as _;

use crate::opts::Opts;

/// Usage text, rendered from the declarative command table in
/// [`crate::spec`].
pub fn usage() -> String {
    crate::spec::render_usage()
}

/// Dispatch a parsed command line.
///
/// # Errors
/// A human-readable message for bad flags, bad values or I/O failures.
pub fn run(opts: &Opts) -> Result<String, String> {
    // `--help` anywhere prints the command's generated help (or the full
    // usage when the command itself is unknown).
    if opts.flag("help") {
        return Ok(
            match crate::spec::find(&opts.command, opts.subaction.as_deref()) {
                Some(spec) => crate::spec::render_help(spec),
                None => usage(),
            },
        );
    }
    if let Some(sub) = &opts.subaction {
        return match opts.command.as_str() {
            "audit" => crate::engine::run_subaction(sub, opts),
            "fabric" => crate::fabric::run_subaction(sub, opts),
            "metrics" => crate::metrics::run_subaction(sub, opts),
            "trace" => crate::trace::run_subaction(sub, opts),
            other => Err(format!(
                "`{other}` takes no sub-action (got `{sub}`)\n\n{}",
                usage()
            )),
        };
    }
    match opts.command.as_str() {
        "scores" => cmd_scores(opts),
        "calibrate" => cmd_calibrate(opts),
        "compose" => cmd_compose(opts),
        "audit" => cmd_audit(opts),
        "fabric" => Err(
            "`fabric` needs a sub-action: `dpaudit fabric serve | work | status | watch | merge`"
                .to_string(),
        ),
        "metrics" => Err("`metrics` needs a sub-action: `dpaudit metrics report`".to_string()),
        "trace" => Err("`trace` needs a sub-action: `dpaudit trace export | merge`".to_string()),
        "watch" => crate::watch::run(opts),
        "demo" => cmd_demo(opts),
        "help" => Ok(usage()),
        other => Err(format!("unknown command `{other}`\n\n{}", usage())),
    }
}

fn cmd_scores(opts: &Opts) -> Result<String, String> {
    let delta = opts.f64_req("delta")?;
    if !(0.0..1.0).contains(&delta) || delta == 0.0 {
        return Err("--delta must be in (0, 1)".into());
    }
    let eps = match (
        opts.f64_opt("eps")?,
        opts.f64_opt("rho-beta")?,
        opts.f64_opt("rho-alpha")?,
    ) {
        (Some(e), None, None) => {
            if e <= 0.0 {
                return Err("--eps must be positive".into());
            }
            e
        }
        (None, Some(b), None) => {
            if !(0.5..1.0).contains(&b) || b == 0.5 {
                return Err("--rho-beta must be in (0.5, 1)".into());
            }
            epsilon_for_rho_beta(b)
        }
        (None, None, Some(a)) => {
            if !(0.0..1.0).contains(&a) || a == 0.0 {
                return Err("--rho-alpha must be in (0, 1)".into());
            }
            epsilon_for_rho_alpha(a, delta)
        }
        _ => return Err("give exactly one of --eps, --rho-beta, --rho-alpha".into()),
    };
    let steps = opts.count_or("steps", 30, usize::MAX)?;
    let z = calibrate_noise_multiplier_closed_form(eps, delta, steps);
    let mut out = String::new();
    let _ = writeln!(out, "epsilon            = {eps:.6}");
    let _ = writeln!(out, "delta              = {delta}");
    let _ = writeln!(
        out,
        "rho_beta           = {:.6}   (max posterior belief, Thm 1)",
        rho_beta(eps)
    );
    let _ = writeln!(
        out,
        "rho_alpha          = {:.6}   (expected advantage, Thm 2)",
        rho_alpha(eps, delta)
    );
    let _ = writeln!(
        out,
        "noise multiplier z = {z:.4}     (RDP, k = {steps} steps)"
    );
    let _ = writeln!(
        out,
        "rho_alpha composed = {:.6}   (2*Phi(sqrt(k)/2z) - 1)",
        rho_alpha_composed(z, steps)
    );
    Ok(out)
}

fn cmd_calibrate(opts: &Opts) -> Result<String, String> {
    let eps = opts.f64_req("eps")?;
    let delta = opts.f64_req("delta")?;
    let steps = opts.count_or("steps", 30, usize::MAX)?;
    let sensitivity = opts.f64_opt("sensitivity")?.unwrap_or(1.0);
    if eps <= 0.0 || !(0.0..1.0).contains(&delta) || delta == 0.0 || sensitivity <= 0.0 {
        return Err("need --eps > 0, --delta in (0, 1), --sensitivity > 0".into());
    }
    let mut out = String::new();
    if opts.flag("classic") {
        let per = DpGuarantee::new(eps, delta).split_sequential(steps);
        let m = GaussianMechanism::calibrate(per, sensitivity);
        let _ = writeln!(
            out,
            "classic per-step calibration (Eq. 1, sequential split):"
        );
        let _ = writeln!(
            out,
            "sigma = {:.6}  (z = {:.4})",
            m.sigma,
            m.sigma / sensitivity
        );
    } else if opts.flag("analytic") {
        if steps != 1 {
            return Err("--analytic calibrates a single release; use --steps 1".into());
        }
        let sigma = analytic_gaussian_sigma(eps, delta, sensitivity);
        let _ = writeln!(out, "analytic Gaussian mechanism (Balle-Wang, exact):");
        let _ = writeln!(out, "sigma = {sigma:.6}  (z = {:.4})", sigma / sensitivity);
    } else {
        let z = calibrate_noise_multiplier_closed_form(eps, delta, steps);
        let _ = writeln!(out, "RDP closed-form calibration over {steps} steps:");
        let _ = writeln!(out, "noise multiplier z = {z:.6}");
        let _ = writeln!(
            out,
            "sigma = {:.6}  (at sensitivity {sensitivity})",
            z * sensitivity
        );
    }
    Ok(out)
}

fn cmd_compose(opts: &Opts) -> Result<String, String> {
    let z = opts.f64_req("noise-multiplier")?;
    let steps = opts.count_or("steps", 1, MAX_STEPS)?;
    let delta = opts.f64_req("delta")?;
    let q = opts.f64_opt("sampling-rate")?;
    if z <= 0.0 || !(0.0..1.0).contains(&delta) || delta == 0.0 {
        return Err("need --noise-multiplier > 0, --delta in (0, 1)".into());
    }
    let mut acc = RdpAccountant::new();
    match q {
        None => acc.add_gaussian_steps(z, steps),
        Some(q) => {
            if !(0.0..=1.0).contains(&q) || q == 0.0 {
                return Err("--sampling-rate must be in (0, 1]".into());
            }
            acc.add_subsampled_gaussian_steps(q, z, steps);
        }
    }
    let (eps, order) = acc.epsilon(delta);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "composed epsilon = {eps:.6} at delta = {delta} (best order {order})"
    );
    let _ = writeln!(out, "rho_beta  = {:.6}", rho_beta(eps));
    let _ = writeln!(out, "rho_alpha = {:.6}", rho_alpha(eps, delta));
    Ok(out)
}

fn cmd_audit(opts: &Opts) -> Result<String, String> {
    let path = opts
        .str_opt("transcript")
        .ok_or("missing required --transcript FILE")?;
    let delta = opts.f64_req("delta")?;
    if !(0.0..1.0).contains(&delta) || delta == 0.0 {
        return Err("--delta must be in (0, 1)".into());
    }
    let transcript = Transcript::from_json_file(std::path::Path::new(path))
        .map_err(|e| format!("cannot load transcript: {e}"))?;
    if transcript.steps.is_empty() {
        return Err("transcript has no steps".into());
    }
    let sigmas = transcript.sigmas();
    let ls = transcript.local_sensitivities();
    let eps_ls =
        LocalSensitivityEstimator::per_trial(&sigmas, &ls, delta, transcript.config.ls_floor);
    let mut out = String::new();
    let _ = writeln!(
        out,
        "transcript: {} steps, {} scaling, {} DP",
        transcript.steps.len(),
        transcript.config.scaling,
        transcript.config.mode
    );
    let _ = writeln!(out, "eps' from per-step sensitivities = {eps_ls:.6}");
    let _ = writeln!(
        out,
        "mean local sensitivity = {:.4}, mean sigma = {:.4}",
        ls.iter().sum::<f64>() / ls.len() as f64,
        sigmas.iter().sum::<f64>() / sigmas.len() as f64,
    );
    let _ = writeln!(
        out,
        "(belief/advantage estimators need repeated trials; see `dpaudit demo`)"
    );
    Ok(out)
}

fn cmd_demo(opts: &Opts) -> Result<String, String> {
    let workload = opts.str_opt("workload").unwrap_or("purchase");
    let reps = opts.count_or("reps", 10, MAX_REPS)?;
    let steps = opts.count_or("steps", 10, MAX_STEPS)?;
    let seed = opts.u64_or("seed", 42)?;
    let rho_beta_target = 0.90;
    let delta = 1e-2;
    let eps = epsilon_for_rho_beta(rho_beta_target);
    let z = calibrate_noise_multiplier_closed_form(eps, delta, steps);
    let mut rng = dpaudit_math::seeded_rng(seed);

    let (pair, model_builder): (
        NeighborPair,
        fn(&mut rand::rngs::StdRng) -> dpaudit_nn::Sequential,
    ) = match workload {
        "purchase" => {
            let data = generate_purchase(&mut rng, 60);
            let target = dataset_sensitivity_unbounded(&data, &Hamming);
            (NeighborPair::from_spec(&data, &target.spec), |r| {
                dpaudit_nn::purchase_mlp(r)
            })
        }
        "mnist" => {
            let data = generate_mnist(&mut rng, 40);
            let target = dataset_sensitivity_unbounded(&data, &NegSsim);
            (NeighborPair::from_spec(&data, &target.spec), |r| {
                dpaudit_nn::mnist_cnn(r)
            })
        }
        other => return Err(format!("unknown --workload `{other}` (purchase|mnist)")),
    };

    let settings = TrialSettings::builder()
        .clip_norm(3.0)
        .learning_rate(0.005)
        .steps(steps)
        .mode(NeighborMode::Unbounded)
        .noise_multiplier(z)
        .scaling(SensitivityScaling::Local)
        .challenge(ChallengeMode::RandomBit)
        .build()
        .map_err(|e| e.to_string())?;
    // The header only drives this in-memory session; it is never written,
    // so it need not name a world `audit resume` could rebuild.
    let mut session = AuditSession::in_memory(StoreHeader {
        schema_version: SCHEMA_VERSION,
        label: format!("demo_{workload}"),
        workload: workload.to_string(),
        train_size: pair.d.len(),
        world_seed: Seed(seed),
        reps,
        master_seed: Seed(seed),
        target_epsilon: eps,
        delta,
        rho_beta_bound: rho_beta(eps),
        detail: RecordDetail::Summary,
        settings,
    });
    let report = session
        .run(
            &pair,
            None,
            model_builder,
            Parallelism::trials(0),
            |_| {},
            None,
        )
        .map_err(|e| format!("demo run failed: {e}"))?
        .report;

    if let Some(out_path) = opts.str_opt("out") {
        // Save one representative transcript for `dpaudit audit`.
        let dpsgd = &session.header().settings.dpsgd;
        let mut model = model_builder(&mut dpaudit_math::seeded_rng(seed));
        let mut noise_rng = dpaudit_math::seeded_rng(seed + 1);
        let transcript =
            dpaudit_dpsgd::train_collect(&mut model, &pair, true, dpsgd, &mut noise_rng);
        transcript
            .to_json_file(std::path::Path::new(out_path))
            .map_err(|e| format!("cannot write transcript: {e}"))?;
    }

    let mut out = String::new();
    let _ = writeln!(
        out,
        "workload {workload}: {reps} challenge trials, {steps} steps, target eps {eps:.3}"
    );
    let _ = writeln!(out, "empirical advantage      = {:+.4}", report.advantage);
    let _ = writeln!(out, "max observed belief      = {:.4}", report.max_belief);
    let _ = writeln!(out, "eps' from sensitivities  = {:.4}", report.eps_from_ls);
    let _ = writeln!(
        out,
        "eps' from max belief     = {:.4}",
        report.eps_from_belief
    );
    let _ = writeln!(
        out,
        "eps' from advantage      = {}",
        if report.eps_from_advantage.is_finite() {
            format!("{:.4}", report.eps_from_advantage)
        } else {
            "inf (advantage saturated at this rep count)".to_string()
        }
    );
    let _ = writeln!(
        out,
        "empirical delta          = {:.4}",
        report.empirical_delta
    );
    let _ = writeln!(
        out,
        "budget utilisation       = {:.1}%",
        report.budget_utilisation() * 100.0
    );
    let _ = writeln!(
        out,
        "verdict: {}",
        if report.exceeds_claim(0.15) {
            "an estimator exceeds the claim — rerun with more reps to confirm"
        } else {
            "consistent with the claimed budget"
        }
    );
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run_line(line: &[&str]) -> Result<String, String> {
        let opts = Opts::parse(line.iter().map(|s| s.to_string()))?;
        run(&opts)
    }

    #[test]
    fn help_and_unknown_command() {
        assert!(run_line(&["help"]).unwrap().contains("USAGE"));
        assert!(run_line(&["bogus"])
            .unwrap_err()
            .contains("unknown command"));
    }

    #[test]
    fn scores_from_eps() {
        let out = run_line(&["scores", "--eps", "2.2", "--delta", "1e-3"]).unwrap();
        assert!(out.contains("rho_beta           = 0.900"), "{out}");
        assert!(out.contains("rho_alpha          = 0.22"), "{out}");
    }

    #[test]
    fn scores_from_rho_beta_matches_eq10() {
        let out = run_line(&["scores", "--rho-beta", "0.9", "--delta", "1e-3"]).unwrap();
        assert!(out.contains("epsilon            = 2.197"), "{out}");
    }

    #[test]
    fn scores_from_rho_alpha_round_trips() {
        let out = run_line(&["scores", "--rho-alpha", "0.23", "--delta", "1e-3"]).unwrap();
        // Inverting Theorem 2 at 0.23 gives eps ≈ 2.21.
        assert!(out.contains("epsilon            = 2.2"), "{out}");
    }

    #[test]
    fn scores_requires_exactly_one_input() {
        let err = run_line(&["scores", "--delta", "1e-3"]).unwrap_err();
        assert!(err.contains("exactly one"));
        let err = run_line(&[
            "scores",
            "--eps",
            "1",
            "--rho-beta",
            "0.9",
            "--delta",
            "1e-3",
        ])
        .unwrap_err();
        assert!(err.contains("exactly one"));
    }

    #[test]
    fn calibrate_rdp_and_classic_and_analytic() {
        let rdp = run_line(&[
            "calibrate",
            "--eps",
            "2.2",
            "--delta",
            "1e-3",
            "--steps",
            "30",
        ])
        .unwrap();
        assert!(rdp.contains("noise multiplier z = 9.93"), "{rdp}");
        let classic = run_line(&[
            "calibrate",
            "--eps",
            "2.2",
            "--delta",
            "1e-3",
            "--steps",
            "30",
            "--classic",
        ])
        .unwrap();
        assert!(classic.contains("classic per-step"));
        let analytic = run_line(&[
            "calibrate",
            "--eps",
            "1.0",
            "--delta",
            "1e-5",
            "--steps",
            "1",
            "--analytic",
        ])
        .unwrap();
        assert!(analytic.contains("analytic Gaussian"));
        // Analytic with multiple steps is rejected.
        assert!(run_line(&[
            "calibrate",
            "--eps",
            "1.0",
            "--delta",
            "1e-5",
            "--steps",
            "5",
            "--analytic",
        ])
        .is_err());
    }

    #[test]
    fn compose_full_batch_and_subsampled() {
        let full = run_line(&[
            "compose",
            "--noise-multiplier",
            "9.952",
            "--steps",
            "30",
            "--delta",
            "1e-3",
        ])
        .unwrap();
        assert!(full.contains("composed epsilon = 2.19"), "{full}");
        let sub = run_line(&[
            "compose",
            "--noise-multiplier",
            "1.1",
            "--steps",
            "100",
            "--delta",
            "1e-5",
            "--sampling-rate",
            "0.01",
        ])
        .unwrap();
        // Amplified epsilon (1.32, dominated by the conversion term) is far
        // below the ~85 the same z would cost at full batch.
        assert!(sub.contains("composed epsilon = 1.3"), "{sub}");
    }

    #[test]
    fn audit_round_trips_a_demo_transcript() {
        // The transcript audit composes through the privacy ledger, which
        // emits obs events. A disabled sink drops them, and holding it
        // keeps them out of a metrics sink another test installs (installs
        // serialise on one lock; bare emitters do not).
        let _quiet = dpaudit_obs::install(std::sync::Arc::new(dpaudit_obs::NoopSink));
        let dir = std::env::temp_dir().join("dpaudit-cli-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("demo_transcript.json");
        let path_s = path.to_str().unwrap();
        let demo = run_line(&[
            "demo",
            "--workload",
            "purchase",
            "--reps",
            "3",
            "--steps",
            "3",
            "--out",
            path_s,
        ])
        .unwrap();
        assert!(demo.contains("eps' from sensitivities"), "{demo}");
        let audit = run_line(&["audit", "--transcript", path_s, "--delta", "1e-2"]).unwrap();
        assert!(audit.contains("transcript: 3 steps"), "{audit}");
        assert!(audit.contains("eps' from per-step sensitivities"));
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn audit_reports_missing_file() {
        let err = run_line(&[
            "audit",
            "--transcript",
            "/nonexistent/x.json",
            "--delta",
            "1e-2",
        ])
        .unwrap_err();
        assert!(err.contains("cannot load transcript"));
    }

    #[test]
    fn demo_rejects_unknown_workload() {
        let err = run_line(&[
            "demo",
            "--workload",
            "imagenet",
            "--reps",
            "1",
            "--steps",
            "1",
        ])
        .unwrap_err();
        assert!(err.contains("unknown --workload"));
    }

    #[test]
    fn audit_run_resume_report_round_trip() {
        // Trials emit obs events; a held disabled sink keeps them out of a
        // metrics sink another test installs.
        let _quiet = dpaudit_obs::install(std::sync::Arc::new(dpaudit_obs::NoopSink));
        let dir = std::env::temp_dir().join("dpaudit-cli-engine-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("run.jsonl");
        let _ = std::fs::remove_file(&store);
        let store_s = store.to_str().unwrap();
        let line = [
            "audit",
            "run",
            "--workload",
            "purchase",
            "--reps",
            "3",
            "--steps",
            "3",
            "--threads",
            "2",
            "--train-size",
            "30",
            "--out",
            store_s,
        ];
        let out = run_line(&line).unwrap();
        assert!(
            out.contains("3 trials (3 executed, 0 replayed from store)"),
            "{out}"
        );
        assert!(out.contains("eps' from LS"), "{out}");

        // Running again without --fresh refuses to clobber the store...
        let err = run_line(&line).unwrap_err();
        assert!(err.contains("already exists"), "{err}");
        // ...but resume replays it without re-executing anything,
        let resumed = run_line(&["audit", "resume", "--store", store_s]).unwrap();
        assert!(
            resumed.contains("(0 executed, 3 replayed from store)"),
            "{resumed}"
        );
        // and both paths agree with the offline report.
        let report = run_line(&["audit", "report", "--store", store_s]).unwrap();
        let tail = |s: &str| {
            s.lines()
                .skip_while(|l| !l.starts_with("audit:"))
                .collect::<Vec<_>>()
                .join("\n")
        };
        assert_eq!(tail(&resumed), tail(&report));
        assert_eq!(tail(&out), tail(&report));
        std::fs::remove_file(&store).unwrap();
    }

    #[test]
    fn metrics_snapshot_is_byte_stable_across_thread_counts() {
        let dir = std::env::temp_dir().join("dpaudit-cli-metrics-stability");
        std::fs::create_dir_all(&dir).unwrap();
        let run_with = |threads: &str| {
            let store = dir.join(format!("store-t{threads}.jsonl"));
            let metrics = dir.join(format!("metrics-t{threads}.json"));
            let trace = dir.join(format!("trace-t{threads}.jsonl"));
            let _ = std::fs::remove_file(&store);
            run_line(&[
                "audit",
                "run",
                "--workload",
                "purchase",
                "--reps",
                "4",
                "--steps",
                "2",
                "--train-size",
                "30",
                "--threads",
                threads,
                "--out",
                store.to_str().unwrap(),
                "--metrics",
                metrics.to_str().unwrap(),
                "--trace",
                trace.to_str().unwrap(),
            ])
            .unwrap();
            let bytes = std::fs::read(&metrics).unwrap();
            std::fs::remove_file(&store).ok();
            std::fs::remove_file(&metrics).ok();
            (bytes, trace)
        };
        let (serial, trace_path) = run_with("1");
        let (parallel, trace_path_4) = run_with("4");
        // The snapshot holds only deterministic folds (integer counters,
        // max gauges, histogram bucket counts) — identical bytes at any
        // worker count.
        assert_eq!(serial, parallel);
        assert!(!serial.is_empty());

        // The trace is not byte-stable (wall clock), but it must replay
        // into the same counters, and `metrics report` must render the
        // timing table and throughput from it.
        let report =
            run_line(&["metrics", "report", "--trace", trace_path.to_str().unwrap()]).unwrap();
        assert!(report.contains("per-stage timing:"), "{report}");
        assert!(report.contains("audit.run"), "{report}");
        assert!(report.contains("trial"), "{report}");
        assert!(report.contains("trials/s"), "{report}");
        assert!(report.contains("histogram di.belief"), "{report}");
        assert!(report.contains("dp.eps_ls"), "{report}");
        std::fs::remove_file(&trace_path).ok();
        std::fs::remove_file(&trace_path_4).ok();
    }

    #[test]
    fn report_and_metrics_are_byte_stable_across_batch_thread_counts() {
        let dir = std::env::temp_dir().join("dpaudit-cli-batch-threads-stability");
        std::fs::create_dir_all(&dir).unwrap();
        let run_with = |batch_threads: &str| {
            let store = dir.join(format!("store-b{batch_threads}.jsonl"));
            let metrics = dir.join(format!("metrics-b{batch_threads}.json"));
            let _ = std::fs::remove_file(&store);
            let report = run_line(&[
                "audit",
                "run",
                "--workload",
                "purchase",
                "--reps",
                "4",
                "--steps",
                "2",
                "--train-size",
                "30",
                "--batch-threads",
                batch_threads,
                "--out",
                store.to_str().unwrap(),
                "--metrics",
                metrics.to_str().unwrap(),
            ])
            .unwrap();
            let bytes = std::fs::read(&metrics).unwrap();
            std::fs::remove_file(&store).ok();
            std::fs::remove_file(&metrics).ok();
            (report, bytes)
        };
        let (serial_report, serial_metrics) = run_with("1");
        let (parallel_report, parallel_metrics) = run_with("4");
        // The clip loop reduces in fixed chunk order, so the intra-trial
        // worker count can change neither the rendered report nor the
        // deterministic metrics snapshot.
        assert_eq!(serial_report, parallel_report);
        assert_eq!(serial_metrics, parallel_metrics);
        assert!(serial_report.contains("eps"), "{serial_report}");
    }

    #[test]
    fn watch_renders_a_final_dashboard_over_a_complete_store() {
        let dir = std::env::temp_dir().join("dpaudit-cli-watch-test");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("watch.jsonl");
        let trace = dir.join("watch-trace.jsonl");
        let _ = std::fs::remove_file(&store);
        let store_s = store.to_str().unwrap();
        let trace_s = trace.to_str().unwrap();
        run_line(&[
            "audit",
            "run",
            "--workload",
            "purchase",
            "--reps",
            "3",
            "--steps",
            "2",
            "--train-size",
            "30",
            "--out",
            store_s,
            "--trace",
            trace_s,
        ])
        .unwrap();

        // A complete store renders one final frame and returns.
        let frame = run_line(&[
            "watch",
            "--store",
            store_s,
            "--trace",
            trace_s,
            "--interval-ms",
            "1",
        ])
        .unwrap();
        assert!(frame.contains("3/3 trials"), "{frame}");
        assert!(frame.contains("eps' so far"), "{frame}");
        assert!(frame.contains("belief [0,1)"), "{frame}");
        // 3 trials × 2 DPSGD steps streamed through the privacy ledger.
        assert!(frame.contains("ledger: 6 DPSGD steps streamed"), "{frame}");

        // An absurdly low threshold trips the alert line.
        let alert = run_line(&[
            "watch",
            "--store",
            store_s,
            "--alert-eps",
            "1e-6",
            "--max-ticks",
            "1",
            "--interval-ms",
            "1",
        ])
        .unwrap();
        assert!(alert.contains("ALERT"), "{alert}");

        // A store that never appears is a bounded wait, not an error.
        let waited = run_line(&[
            "watch",
            "--store",
            "/nonexistent/x.jsonl",
            "--max-ticks",
            "2",
            "--interval-ms",
            "1",
        ])
        .unwrap();
        assert!(waited.contains("did not appear"), "{waited}");
        std::fs::remove_file(&store).ok();
        std::fs::remove_file(&trace).ok();
    }

    #[test]
    fn watch_waits_for_a_store_that_appears_after_launch() {
        // Trials emit obs events; a held disabled sink keeps them out of a
        // metrics sink another test installs.
        let _quiet = dpaudit_obs::install(std::sync::Arc::new(dpaudit_obs::NoopSink));
        let dir = std::env::temp_dir().join("dpaudit-cli-watch-late-store");
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let late = dir.join("late.jsonl");
        let late_s = late.to_str().unwrap().to_string();

        // Create the store ~80 ms after the watcher starts polling.
        let writer = std::thread::spawn({
            let late = late.clone();
            move || {
                std::thread::sleep(std::time::Duration::from_millis(80));
                let staging = late.with_extension("staging");
                run_line(&[
                    "audit",
                    "run",
                    "--workload",
                    "purchase",
                    "--reps",
                    "2",
                    "--steps",
                    "2",
                    "--train-size",
                    "30",
                    "--out",
                    staging.to_str().unwrap(),
                ])
                .unwrap();
                // Atomic move so the watcher only ever sees a full store.
                std::fs::rename(&staging, &late).unwrap();
            }
        });
        let frame = run_line(&["watch", "--store", &late_s, "--interval-ms", "20"]).unwrap();
        writer.join().unwrap();
        assert!(frame.contains("2/2 trials"), "{frame}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn help_flag_renders_generated_per_command_help() {
        let help = run_line(&["audit", "run", "--help"]).unwrap();
        assert!(help.contains("USAGE:"), "{help}");
        assert!(help.contains("--metrics FILE"), "{help}");
        assert!(help.contains("--fresh"), "{help}");
        let top = run_line(&["help"]).unwrap();
        assert!(top.contains("metrics report"), "{top}");
    }

    #[test]
    fn a_blas_store_is_reported_but_never_resumed() {
        // Trials emit obs events; a held disabled sink keeps them out of a
        // metrics sink another test installs.
        let _quiet = dpaudit_obs::install(std::sync::Arc::new(dpaudit_obs::NoopSink));
        let dir = std::env::temp_dir().join("dpaudit-cli-blas-store");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("blas.jsonl");
        let _ = std::fs::remove_file(&store);
        let store_s = store.to_str().unwrap();
        let run = [
            "audit",
            "run",
            "--workload",
            "purchase",
            "--reps",
            "2",
            "--steps",
            "2",
            "--train-size",
            "30",
            "--out",
            store_s,
        ];
        run_line(&run).unwrap();
        // Flip the header to stand in for a store from an older blas build.
        let text = std::fs::read_to_string(&store).unwrap();
        let flipped = text.replacen("\"backend\":\"Native\"", "\"backend\":\"Blas\"", 1);
        assert_ne!(text, flipped, "header should record the backend");
        std::fs::write(&store, flipped).unwrap();

        let report = run_line(&["audit", "report", "--store", store_s]).unwrap();
        assert!(report.contains("audit:"), "{report}");
        let merged = run_line(&["fabric", "merge", "--shards", store_s]).unwrap();
        assert!(merged.contains("audit:"), "{merged}");
        let err = run_line(&["audit", "resume", "--store", store_s]).unwrap_err();
        assert!(err.contains("backend `blas` was removed"), "{err}");
        let err = run_line(&[&run[..], &["--fresh", "--backend", "native"]].concat()).unwrap_err();
        assert!(err.contains("unknown flag --backend"), "{err}");
        std::fs::remove_file(&store).unwrap();
    }

    #[test]
    fn audit_report_flags_incomplete_store() {
        // Trials emit obs events; a held disabled sink keeps them out of a
        // metrics sink another test installs.
        let _quiet = dpaudit_obs::install(std::sync::Arc::new(dpaudit_obs::NoopSink));
        let dir = std::env::temp_dir().join("dpaudit-cli-engine-partial");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join("partial.jsonl");
        let _ = std::fs::remove_file(&store);
        let store_s = store.to_str().unwrap();
        run_line(&[
            "audit",
            "run",
            "--workload",
            "purchase",
            "--reps",
            "2",
            "--steps",
            "2",
            "--train-size",
            "30",
            "--out",
            store_s,
        ])
        .unwrap();
        // Drop the last record to simulate an interrupted run.
        let text = std::fs::read_to_string(&store).unwrap();
        let keep: Vec<&str> = text.lines().take(2).collect();
        std::fs::write(&store, keep.join("\n") + "\n").unwrap();
        let report = run_line(&["audit", "report", "--store", store_s]).unwrap();
        assert!(report.contains("incomplete"), "{report}");
        assert!(report.contains("1/2 trials stored"), "{report}");
        std::fs::remove_file(&store).unwrap();
    }

    /// A finished 3-trial purchase store written by `audit run` under
    /// `name`: its path and its text.
    fn small_store(name: &str) -> (std::path::PathBuf, String) {
        let dir = std::env::temp_dir().join("dpaudit-cli-store-reading");
        std::fs::create_dir_all(&dir).unwrap();
        let store = dir.join(name);
        let _ = std::fs::remove_file(&store);
        run_line(&[
            "audit",
            "run",
            "--workload",
            "purchase",
            "--reps",
            "3",
            "--steps",
            "2",
            "--train-size",
            "20",
            "--threads",
            "1",
            "--out",
            store.to_str().unwrap(),
        ])
        .unwrap();
        let text = std::fs::read_to_string(&store).unwrap();
        (store, text)
    }

    #[test]
    fn resume_and_report_refuse_an_out_of_range_trial_index() {
        // Trials emit obs events; a held disabled sink keeps them out of a
        // metrics sink another test installs.
        let _quiet = dpaudit_obs::install(std::sync::Arc::new(dpaudit_obs::NoopSink));
        let (store, text) = small_store("range.jsonl");
        let store_s = store.to_str().unwrap();
        // A copy of one record, renumbered past the batch.
        let (_, rest) = text.lines().nth(1).unwrap().split_once(',').unwrap();
        std::fs::write(&store, format!("{text}{{\"idx\":7,{rest}\n")).unwrap();
        for action in ["resume", "report"] {
            let err = run_line(&["audit", action, "--store", store_s]).unwrap_err();
            assert!(err.contains("trial index 7 out of range 0..3"), "{err}");
        }
        std::fs::remove_file(&store).unwrap();
    }

    #[test]
    fn resume_refuses_a_header_the_builder_would_refuse() {
        // Trials emit obs events; a held disabled sink keeps them out of a
        // metrics sink another test installs.
        let _quiet = dpaudit_obs::install(std::sync::Arc::new(dpaudit_obs::NoopSink));
        let (store, text) = small_store("invalid-settings.jsonl");
        let store_s = store.to_str().unwrap();
        // The header and one record, with no noise recorded: resumed, the
        // missing trials panicked in the adversary's belief update.
        let mut lines = text.lines();
        let mut header: serde_json::Value = serde_json::from_str(lines.next().unwrap()).unwrap();
        header["settings"]["dpsgd"]["noise_multiplier"] = serde_json::Value::Number(0.0);
        let edited = format!("{header}\n{}\n", lines.next().unwrap());
        std::fs::write(&store, &edited).unwrap();
        let err = run_line(&["audit", "resume", "--store", store_s, "--threads", "1"]).unwrap_err();
        assert!(
            err.contains("header invalid trial settings: noise multiplier must be positive, got 0"),
            "{err}"
        );
        assert_eq!(std::fs::read_to_string(&store).unwrap(), edited);
        // Readers still read it.
        let report = run_line(&["audit", "report", "--store", store_s]).unwrap();
        assert!(report.contains("1/3 trials stored"), "{report}");
        std::fs::remove_file(&store).unwrap();
    }

    #[test]
    fn report_resume_and_watch_refuse_a_determinism_conflict() {
        // Trials emit obs events; a held disabled sink keeps them out of a
        // metrics sink another test installs.
        let _quiet = dpaudit_obs::install(std::sync::Arc::new(dpaudit_obs::NoopSink));
        let (store, text) = small_store("conflict.jsonl");
        let store_s = store.to_str().unwrap();
        // A copy of trial 0 with another eps_ls, placed before the original.
        let lines: Vec<&str> = text.lines().collect();
        let trial0 = lines[1];
        assert!(trial0.starts_with("{\"idx\":0,"), "{trial0}");
        let start = trial0.find("\"eps_ls\":").unwrap();
        let end = start + trial0[start..].find(',').unwrap();
        let edited = format!("{}\"eps_ls\":0.1{}", &trial0[..start], &trial0[end..]);
        let mut conflicting = vec![lines[0], &edited];
        conflicting.extend(&lines[1..]);
        std::fs::write(&store, conflicting.join("\n") + "\n").unwrap();
        for line in [
            &["audit", "report", "--store", store_s][..],
            &["audit", "resume", "--store", store_s],
            &["watch", "--store", store_s, "--max-ticks", "1"],
        ] {
            let err = run_line(line).unwrap_err();
            assert!(
                err.contains("determinism conflict: trial 0 appears with different bytes"),
                "{}: {err}",
                line.join(" ")
            );
        }
        std::fs::remove_file(&store).unwrap();
    }

    #[test]
    fn resume_replays_a_repeated_line_once() {
        // Trials emit obs events; a held disabled sink keeps them out of a
        // metrics sink another test installs.
        let _quiet = dpaudit_obs::install(std::sync::Arc::new(dpaudit_obs::NoopSink));
        let (store, text) = small_store("repeated.jsonl");
        let store_s = store.to_str().unwrap();
        let report = run_line(&["audit", "report", "--store", store_s]).unwrap();
        let repeated = text.lines().nth(2).unwrap();
        std::fs::write(&store, format!("{text}{repeated}\n")).unwrap();
        let resumed = run_line(&["audit", "resume", "--store", store_s]).unwrap();
        assert!(
            resumed.starts_with("3 trials (0 executed, 3 replayed from store)\n"),
            "{resumed}"
        );
        assert!(resumed.ends_with(&report), "{resumed}");
        assert_eq!(
            run_line(&["audit", "report", "--store", store_s]).unwrap(),
            report
        );
        std::fs::remove_file(&store).unwrap();
    }

    #[test]
    fn audit_subaction_validation() {
        assert!(run_line(&["audit", "frobnicate"])
            .unwrap_err()
            .contains("sub-action"));
        assert!(run_line(&["scores", "run"])
            .unwrap_err()
            .contains("no sub-action"));
        assert!(run_line(&[
            "audit",
            "run",
            "--workload",
            "imagenet",
            "--out",
            "/tmp/x.jsonl"
        ])
        .unwrap_err()
        .contains("unknown workload"));
        assert!(run_line(&["audit", "run", "--workload", "mnist"])
            .unwrap_err()
            .contains("--out"));
        assert!(run_line(&["audit", "resume"])
            .unwrap_err()
            .contains("--store"));
        assert!(
            run_line(&["audit", "report", "--store", "/nonexistent/x.jsonl"])
                .unwrap_err()
                .contains("cannot replay store")
        );
    }

    #[test]
    fn validation_errors_are_friendly() {
        // `demo` rejects before any trial runs; the guard keeps a stray
        // event out of a metrics sink another test installs.
        let _quiet = dpaudit_obs::install(std::sync::Arc::new(dpaudit_obs::NoopSink));
        let eps_delta = ["--eps", "1", "--delta", "1e-3"];
        let cases: [(&[&str], &str); 19] = [
            (
                &["scores", "--eps", "-1", "--delta", "1e-3"],
                "--eps must be positive",
            ),
            (
                &["scores", "--eps", "1", "--delta", "2"],
                "--delta must be in (0, 1)",
            ),
            (
                &[
                    "compose",
                    "--noise-multiplier",
                    "1",
                    "--delta",
                    "1e-3",
                    "--sampling-rate",
                    "1.5",
                ],
                "--sampling-rate must be in (0, 1]",
            ),
            (&["scores", "--steps", "0"], "--steps must be positive"),
            (
                &["scores", "--eps", "inf", "--delta", "1e-3"],
                "--eps must be finite",
            ),
            (
                &["scores", "--eps", "nan", "--delta", "1e-3"],
                "--eps must be finite",
            ),
            (&["calibrate", "--steps", "0"], "--steps must be positive"),
            (
                &["calibrate", "--steps", "0", "--classic"],
                "--steps must be positive",
            ),
            (
                &["calibrate", "--eps", "nan", "--delta", "1e-3"],
                "--eps must be finite",
            ),
            (
                &["calibrate", "--eps", "inf", "--delta", "1e-3"],
                "--eps must be finite",
            ),
            (
                &["calibrate", "--sensitivity", "nan"],
                "--sensitivity must be finite",
            ),
            (
                &["calibrate", "--sensitivity", "inf"],
                "--sensitivity must be finite",
            ),
            (
                &["compose", "--noise-multiplier", "inf", "--delta", "1e-3"],
                "--noise-multiplier must be finite",
            ),
            (
                &["compose", "--noise-multiplier", "nan", "--delta", "1e-3"],
                "--noise-multiplier must be finite",
            ),
            (&["demo", "--reps", "0"], "--reps must be positive"),
            (&["demo", "--steps", "0"], "--steps must be positive"),
            // Refused before anything is built: the unknown workload would
            // be the error otherwise.
            (
                &["demo", "--reps", "1048577", "--workload", "bogus"],
                "--reps 1048577 is above the bound 1048576",
            ),
            (
                &["demo", "--steps", "1048577", "--workload", "bogus"],
                "--steps 1048577 is above the bound 1048576",
            ),
            (
                &[
                    "compose",
                    "--noise-multiplier",
                    "1",
                    "--delta",
                    "1e-3",
                    "--steps",
                    "1048577",
                ],
                "--steps 1048577 is above the bound 1048576",
            ),
        ];
        for (args, expected) in cases {
            // `scores` and `calibrate` need a claim; append it unless the
            // case sets its own.
            let mut line = args.to_vec();
            if matches!(args[0], "scores" | "calibrate") && !args.contains(&"--delta") {
                line.extend(eps_delta);
            }
            let err = run_line(&line).expect_err(&line.join(" "));
            assert!(err.contains(expected), "{}: {err}", line.join(" "));
        }
    }

    #[test]
    fn demo_prints_the_pinned_report() {
        // Trials emit obs events; a held disabled sink keeps them out of a
        // metrics sink another test installs.
        let _quiet = dpaudit_obs::install(std::sync::Arc::new(dpaudit_obs::NoopSink));
        let out = run_line(&[
            "demo",
            "--workload",
            "purchase",
            "--reps",
            "4",
            "--steps",
            "2",
        ])
        .unwrap();
        let expected = "\
workload purchase: 4 challenge trials, 2 steps, target eps 2.197
empirical advantage      = +0.5000
max observed belief      = 0.7129
eps' from sensitivities  = 2.2027
eps' from max belief     = 0.9093
eps' from advantage      = 4.1920
empirical delta          = 0.0000
budget utilisation       = 100.2%
verdict: an estimator exceeds the claim — rerun with more reps to confirm
";
        assert_eq!(out, expected);
    }
}
