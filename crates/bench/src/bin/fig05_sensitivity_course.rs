//! Figure 5 — sensitivities over the course of training for ρ_β = 0.9
//! (ε = 2.2) and C = 3.
//!
//! Per training step we plot the estimated local sensitivity L̂S_ĝᵢ
//! (mean ± min/max over repetitions) against the constant global
//! sensitivity, for bounded DP (GS = 2C, LS = ‖ḡ(x̂₁) − ḡ(x̂₂)‖) and
//! unbounded DP (GS = C, LS = ‖ḡ(x̂₁)‖). Expected shape: unbounded LS sits
//! at ≈ C (per-example gradients hit the clipping norm), bounded LS sits
//! clearly below 2C.

use dpaudit_bench::{
    arm_settings, fmt_sig, param_row, print_table, run_batch_engine, Args, EngineBatch, Workload,
    CLIP_NORM,
};
use dpaudit_core::ChallengeMode;
use dpaudit_dp::NeighborMode;
use dpaudit_dpsgd::SensitivityScaling;
use dpaudit_math::split_seed;

fn main() {
    let args = Args::parse();
    let reps = args.resolve_reps(10, 1000);
    let steps = args.resolve_steps();
    let engine = args.engine_opts();
    let workloads = if args.full {
        vec![Workload::Mnist, Workload::Purchase]
    } else {
        vec![Workload::Mnist]
    };
    let mut json = Vec::new();

    println!("Figure 5: sensitivities over training, rho_beta=0.9 (eps=2.2), C={CLIP_NORM}");
    println!("(reps: {reps}, steps: {steps}; paper: 1000 reps)\n");

    for workload in workloads {
        let train_size = args.train_size(workload);
        let world = workload.world(args.seed, train_size);
        let row = param_row(0.90, workload.delta());
        for (mode, gs) in [
            (NeighborMode::Bounded, 2.0 * CLIP_NORM),
            (NeighborMode::Unbounded, CLIP_NORM),
        ] {
            let pair = workload.max_pair(&world, mode);
            let settings = arm_settings(
                &row,
                steps,
                SensitivityScaling::Local,
                mode,
                ChallengeMode::AlwaysD,
            );
            let (_, batch) = run_batch_engine(
                &EngineBatch {
                    workload,
                    pair: &pair,
                    settings: &settings,
                    test_set: None,
                    reps,
                    master_seed: split_seed(args.seed, mode as u64 + 31),
                    world_seed: args.seed,
                    train_size,
                    row,
                    label: format!("fig05_{}_{mode}", workload.key()),
                },
                &engine,
            );
            // Per-step aggregation across repetitions.
            let mut rows = Vec::new();
            let mut means = Vec::new();
            for i in 0..steps {
                let at_step: Vec<f64> = batch
                    .trials
                    .iter()
                    .map(|t| t.local_sensitivities[i])
                    .collect();
                let mean = at_step.iter().sum::<f64>() / at_step.len() as f64;
                let min = at_step.iter().cloned().fold(f64::INFINITY, f64::min);
                let max = at_step.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
                means.push(mean);
                rows.push(vec![
                    i.to_string(),
                    fmt_sig(mean),
                    fmt_sig(min),
                    fmt_sig(max),
                    fmt_sig(gs),
                ]);
            }
            println!("== {} / {mode} DP (GS = {gs}) ==", workload.name());
            print_table(&["step", "LS mean", "LS min", "LS max", "GS"], &rows);
            let overall = means.iter().sum::<f64>() / means.len() as f64;
            println!(
                "mean LS over training: {} (GS = {gs}, ratio {:.2})\n",
                fmt_sig(overall),
                overall / gs
            );
            json.push(serde_json::json!({
                "workload": workload.name(), "mode": mode.to_string(),
                "gs": gs, "ls_mean_per_step": means,
            }));
        }
    }
    println!("Expected shape: unbounded LS ~= C (clipped gradients saturate C);");
    println!("bounded LS < 2C (differing-record gradients do not point in opposite directions).");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json).unwrap());
    }
}
