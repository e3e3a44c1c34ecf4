//! Figure 7 — distribution of MNIST test accuracy for ρ_β = 0.9 across the
//! four sensitivity arms.
//!
//! Utility tracks Δf directly: larger claimed sensitivity → more noise →
//! lower accuracy. Expected ordering: bounded GS (Δf = 2C, most noise) is
//! worst; unbounded GS ≈ unbounded LS; bounded LS sits in between.
//!
//! The paper uses |D| = 10 000 here; the default reproduces the shape at
//! |D| = 300 (single-core machine), `--full` raises it to 2000.

use dpaudit_bench::{
    arm_settings, fmt_sig, param_row, print_table, run_batch_engine, Args, EngineBatch, Workload,
    ARMS,
};
use dpaudit_core::ChallengeMode;
use dpaudit_math::{split_seed, Summary};

fn main() {
    let args = Args::parse();
    let reps = args.resolve_reps(5, 10);
    let steps = args.resolve_steps();
    let engine = args.engine_opts();
    let train_size = if args.full { 2000 } else { 300 };
    let workload = Workload::Mnist;
    let rho_beta_bound = 0.90;
    let mut json = Vec::new();

    println!("Figure 7: MNIST test accuracy, rho_beta=0.9, |D|={train_size}");
    println!("(reps per arm: {reps}, steps: {steps}; paper: 10 reps at |D|=10000)\n");

    let world = workload.world(args.seed, train_size);
    let row = param_row(rho_beta_bound, workload.delta());
    let mut rows = Vec::new();
    for (arm_idx, (scaling, mode)) in ARMS.iter().enumerate() {
        let pair = workload.max_pair(&world, *mode);
        let settings = arm_settings(&row, steps, *scaling, *mode, ChallengeMode::AlwaysD);
        let (_, batch) = run_batch_engine(
            &EngineBatch {
                workload,
                pair: &pair,
                settings: &settings,
                test_set: Some(&world.test),
                reps,
                master_seed: split_seed(args.seed, 201 + arm_idx as u64),
                world_seed: args.seed,
                train_size,
                row,
                label: format!("fig07_{}_{scaling}_{mode}", workload.key()),
            },
            &engine,
        );
        let accs = batch.test_accuracies();
        let s = Summary::of(&accs);
        rows.push(vec![
            scaling.to_string(),
            mode.to_string(),
            fmt_sig(s.min),
            fmt_sig(s.median),
            fmt_sig(s.mean),
            fmt_sig(s.max),
        ]);
        json.push(serde_json::json!({
            "scaling": scaling.to_string(), "mode": mode.to_string(), "accuracies": accs,
        }));
    }
    print_table(
        &[
            "Delta f",
            "DP",
            "acc min",
            "acc median",
            "acc mean",
            "acc max",
        ],
        &rows,
    );
    println!("\n(chance level: 0.1)");
    println!("Expected shape: GS/bounded lowest; LS/unbounded ~= GS/unbounded; less noise -> higher accuracy.");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json).unwrap());
    }
}
