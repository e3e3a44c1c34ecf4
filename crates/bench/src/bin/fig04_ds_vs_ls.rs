//! Figure 4 — dataset sensitivity predicts gradient-space local sensitivity.
//!
//! For each workload: rank the bounded-DP neighbour candidates by dataset
//! sensitivity DS (Definition 6; −SSIM for MNIST, Hamming for Purchase),
//! take the top-3 maximisers and top-3 minimisers (Purchase: max and min
//! only, as in the paper), train `reps` times per choice of D′, and report
//! the distribution of `n·‖ĝᵢ(D) − ĝᵢ(D′)‖ = ‖ḡᵢ(x̂₁) − ḡᵢ(x̂₂)‖` over all
//! steps. Expected shape: DS-maximising choices of D′ produce larger
//! gradient differences than DS-minimising ones.

use dpaudit_bench::{
    arm_settings, fmt_sig, param_row, print_table, run_batch_engine, Args, EngineBatch, Workload,
};
use dpaudit_core::ChallengeMode;
use dpaudit_dp::NeighborMode;
use dpaudit_dpsgd::{NeighborPair, SensitivityScaling};
use dpaudit_math::{split_seed, Summary};

fn main() {
    let args = Args::parse();
    let reps = args.resolve_reps(5, 250);
    let steps = args.resolve_steps();
    let engine = args.engine_opts();
    let mut json = Vec::new();

    println!("Figure 4: distribution of n*||g_i(D) - g_i(D')|| for DS-max vs DS-min D'");
    println!("(reps per pair: {reps}, steps: {steps}; paper: 250 reps x 30 epochs)\n");

    for workload in [Workload::Mnist, Workload::Purchase] {
        let top_k = match workload {
            Workload::Mnist => 3,
            Workload::Purchase => 1,
        };
        let train_size = args.train_size(workload);
        let world = workload.world(args.seed, train_size);
        let maxers = workload.bounded_ranked(&world, top_k, true);
        let miners = workload.bounded_ranked(&world, top_k, false);
        let row = param_row(0.90, workload.delta());
        let settings = arm_settings(
            &row,
            steps,
            SensitivityScaling::Local,
            NeighborMode::Bounded,
            ChallengeMode::AlwaysD,
        );

        let mut rows = Vec::new();
        for (rank_kind, ranked) in [("max DS", &maxers), ("min DS", &miners)] {
            for (rank, cand) in ranked.iter().enumerate() {
                let pair = NeighborPair::from_spec(&world.train, &cand.spec);
                let (_, batch) = run_batch_engine(
                    &EngineBatch {
                        workload,
                        pair: &pair,
                        settings: &settings,
                        test_set: None,
                        reps,
                        master_seed: split_seed(
                            args.seed,
                            (rank as u64 + 1) * 7 + u64::from(rank_kind == "max DS"),
                        ),
                        world_seed: args.seed,
                        train_size,
                        row,
                        label: format!("fig04_{}_{}_{}", workload.key(), &rank_kind[..3], rank + 1),
                    },
                    &engine,
                );
                let all_ls: Vec<f64> = batch
                    .trials
                    .iter()
                    .flat_map(|t| t.local_sensitivities.iter().copied())
                    .collect();
                let s = Summary::of(&all_ls);
                rows.push(vec![
                    workload.name().to_string(),
                    format!("{rank_kind} #{}", rank + 1),
                    fmt_sig(cand.score),
                    fmt_sig(s.q25),
                    fmt_sig(s.median),
                    fmt_sig(s.q75),
                    fmt_sig(s.mean),
                    fmt_sig(s.max),
                ]);
                json.push(serde_json::json!({
                    "workload": workload.name(), "rank": format!("{rank_kind} #{}", rank + 1),
                    "ds_score": cand.score, "ls_summary": s,
                }));
            }
        }
        print_table(
            &[
                "dataset",
                "D' choice",
                "DS score",
                "LS q25",
                "LS median",
                "LS q75",
                "LS mean",
                "LS max",
            ],
            &rows,
        );
        println!();
    }
    println!("Expected shape: 'max DS' rows dominate 'min DS' rows in median/mean LS.");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json).unwrap());
    }
}
