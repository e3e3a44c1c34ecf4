//! Figure 8 — empirical ε′ from the per-step sensitivities Δf₀…Δf_k.
//!
//! For each target ε (Table 1's bounded-DP grid) and each scaling arm, the
//! effective per-step noise multiplier σᵢ/L̂S_ĝᵢ is composed with the RDP
//! accountant at the target δ. Expected shape: the Δf = LS curve matches the
//! target ε (green/red curves of the paper coincide); the Δf = GS curve sits
//! clearly below it (noise was oversized relative to the realised
//! sensitivity).

use dpaudit_bench::{print_audit_grid, run_audit_grid, Args, Workload};

fn main() {
    let args = Args::parse();
    let reps = args.resolve_reps(5, 250);
    let steps = args.resolve_steps();
    let engine = args.engine_opts();
    let workloads = if args.full {
        vec![Workload::Mnist, Workload::Purchase]
    } else {
        vec![Workload::Mnist]
    };
    println!(
        "Figure 8: eps' from empirical sensitivities (reps {reps}, steps {steps}; paper: 250)\n"
    );
    let mut json = Vec::new();
    for workload in workloads {
        let train_size = args.train_size(workload);
        let cells = run_audit_grid(workload, train_size, reps, steps, args.seed, &engine);
        print_audit_grid(
            &format!("== {} ==", workload.name()),
            &cells,
            "eps' (from LS series)",
            |c| c.eps_from_ls,
        );
        println!();
        json.push(serde_json::json!({ "workload": workload.name(), "cells": cells }));
    }
    println!("Expected shape: LS rows have eps' ~= target eps; GS rows have eps' << target eps.");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json).unwrap());
    }
}
