//! Figure 6 — distribution of the empirical posterior beliefs β_k after
//! training with ρ_β = 0.9 (ε = 2.2), for {local, global} sensitivity and
//! {bounded, unbounded} DP.
//!
//! Expected shape: under local-sensitivity scaling the belief mass pushes up
//! toward (but almost never beyond) the bound ρ_β = 0.9 — exceedances are
//! rare and bounded by δ; under global scaling (bounded) the extra noise
//! keeps beliefs much closer to the prior 0.5. Unbounded GS ≈ unbounded LS
//! because ‖ḡ(x̂₁)‖ saturates at C.

use dpaudit_bench::chart::bar_chart;
use dpaudit_bench::{
    arm_settings, fmt_sig, param_row, print_table, run_batch_engine, Args, EngineBatch, Workload,
    ARMS,
};
use dpaudit_core::ChallengeMode;
use dpaudit_math::{histogram, split_seed, Summary};

fn main() {
    let args = Args::parse();
    let reps = args.resolve_reps(25, 1000);
    let steps = args.resolve_steps();
    let engine = args.engine_opts();
    let workloads = if args.full {
        vec![Workload::Mnist, Workload::Purchase]
    } else {
        vec![Workload::Mnist]
    };
    let rho_beta_bound = 0.90;
    let mut json = Vec::new();

    println!("Figure 6: distribution of beliefs beta_k, rho_beta=0.9 (eps=2.2)");
    println!("(reps per arm: {reps}, steps: {steps}; paper: 1000 reps)\n");

    for workload in workloads {
        let world = workload.world(args.seed, args.train_size(workload));
        let row = param_row(rho_beta_bound, workload.delta());
        for (arm_idx, (scaling, mode)) in ARMS.iter().enumerate() {
            let pair = workload.max_pair(&world, *mode);
            let settings = arm_settings(&row, steps, *scaling, *mode, ChallengeMode::AlwaysD);
            let (report, batch) = run_batch_engine(
                &EngineBatch {
                    workload,
                    pair: &pair,
                    settings: &settings,
                    test_set: None,
                    reps,
                    master_seed: split_seed(args.seed, 61 + arm_idx as u64),
                    world_seed: args.seed,
                    train_size: args.train_size(workload),
                    row,
                    label: format!("fig06_{}_{scaling}_{mode}", workload.key()),
                },
                &engine,
            );
            let beliefs = batch.final_scores();
            let s = Summary::of(&beliefs);
            let h = histogram(&beliefs, 0.0, 1.0, 10);
            println!("== {} / {scaling} / {mode} DP ==", workload.name());
            let rows: Vec<Vec<String>> = h
                .edges()
                .iter()
                .zip(&h.counts)
                .map(|((lo, hi), c)| vec![format!("[{lo:.1},{hi:.1})"), c.to_string()])
                .collect();
            print_table(&["beta_k bin", "count"], &rows);
            let labels: Vec<String> = h
                .edges()
                .iter()
                .map(|(lo, hi)| format!("[{lo:.1},{hi:.1})"))
                .collect();
            let counts: Vec<f64> = h.counts.iter().map(|&c| c as f64).collect();
            println!("{}", bar_chart(&labels, &counts, 40));
            println!(
                "median {}  mean {}  max {}  empirical delta (beta_k > {rho_beta_bound}): {}\n",
                fmt_sig(s.median),
                fmt_sig(s.mean),
                fmt_sig(s.max),
                fmt_sig(report.empirical_delta),
            );
            json.push(serde_json::json!({
                "workload": workload.name(), "scaling": scaling.to_string(),
                "mode": mode.to_string(), "beliefs": beliefs,
                "empirical_delta": report.empirical_delta,
            }));
        }
    }
    println!("Expected shape: LS arms push mass toward the 0.9 bound;");
    println!("bounded GS stays near the 0.5 prior; unbounded GS ~= unbounded LS.");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json).unwrap());
    }
}
