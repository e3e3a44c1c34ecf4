//! Ablation (§7 discussion) — the clipping norm C.
//!
//! The paper fixes C = 3 (the median-of-gradient-norms recommendation) and
//! notes the optimal C may differ. We sweep C for the MNIST workload under
//! bounded DP with local-sensitivity scaling at ρ_β = 0.9 and report: the
//! realised LS relative to the 2C global bound, the empirical advantage,
//! and test accuracy — showing how C mediates the tightness/utility
//! trade-off.

use dpaudit_bench::{
    fmt_sig, param_row, print_table, run_batch_engine, Args, EngineBatch, Workload,
};
use dpaudit_core::{ChallengeMode, TrialSettings};
use dpaudit_dp::{calibrate_noise_multiplier_closed_form, NeighborMode};
use dpaudit_dpsgd::SensitivityScaling;
use dpaudit_math::{split_seed, Summary};

fn main() {
    let args = Args::parse();
    let reps = args.resolve_reps(5, 50);
    let steps = args.resolve_steps();
    let engine = args.engine_opts();
    let workload = Workload::Mnist;
    let train_size = args.train_size(workload);
    let world = workload.world(args.seed, train_size);
    let row = param_row(0.90, workload.delta());
    let pair = workload.max_pair(&world, NeighborMode::Bounded);

    println!("Ablation: clipping norm sweep (MNIST, bounded DP, LS scaling, rho_beta=0.9)");
    println!("(reps per C: {reps}, steps: {steps})\n");

    let mut rows = Vec::new();
    let mut json = Vec::new();
    for (ci, &clip) in [0.5, 1.0, 3.0, 6.0, 10.0].iter().enumerate() {
        let z = calibrate_noise_multiplier_closed_form(row.epsilon, row.delta, steps);
        let settings = TrialSettings::builder()
            .clip_norm(clip)
            .learning_rate(dpaudit_bench::LEARNING_RATE)
            .steps(steps)
            .mode(NeighborMode::Bounded)
            .noise_multiplier(z)
            .scaling(SensitivityScaling::Local)
            .challenge(ChallengeMode::RandomBit)
            .build()
            .expect("valid trial settings");
        let (report, batch) = run_batch_engine(
            &EngineBatch {
                workload,
                pair: &pair,
                settings: &settings,
                test_set: Some(&world.test),
                reps,
                master_seed: split_seed(args.seed, 700 + ci as u64),
                world_seed: args.seed,
                train_size,
                row,
                label: format!("ablation_clipping_{}_c{clip}", workload.key()),
            },
            &engine,
        );
        let all_ls: Vec<f64> = batch
            .trials
            .iter()
            .flat_map(|t| t.local_sensitivities.iter().copied())
            .collect();
        let ls = Summary::of(&all_ls);
        let acc = Summary::of(&batch.test_accuracies());
        rows.push(vec![
            fmt_sig(clip),
            fmt_sig(ls.mean),
            fmt_sig(ls.mean / (2.0 * clip)),
            fmt_sig(report.advantage),
            fmt_sig(acc.mean),
        ]);
        json.push(serde_json::json!({
            "clip": clip, "ls_mean": ls.mean, "ls_over_2c": ls.mean / (2.0 * clip),
            "advantage": report.advantage, "accuracy_mean": acc.mean,
        }));
    }
    print_table(
        &["C", "LS mean", "LS / 2C", "empirical Adv", "test acc mean"],
        &rows,
    );
    println!("\nExpected shape: small C -> LS saturates toward 2C (bound tight but gradients over-truncated);");
    println!("large C -> LS/2C shrinks (bound loose). Accuracy peaks at a moderate C.");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json).unwrap());
    }
}
