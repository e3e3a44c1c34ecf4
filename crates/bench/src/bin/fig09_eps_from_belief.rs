//! Figure 9 — empirical ε′ from the maximum observed posterior belief,
//! ε′ = ln(β̂_k/(1−β̂_k)) (Eq. 10 inverted).
//!
//! Expected shape: the Δf = LS curve approaches the target ε as the number
//! of repetitions grows (β̂ is a maximum statistic; occasional mild
//! exceedances ε′ > ε are budgeted by δ); the Δf = GS curve stays below.

use dpaudit_bench::{print_audit_grid, run_audit_grid, Args, Workload};

fn main() {
    let args = Args::parse();
    let reps = args.resolve_reps(20, 250);
    let steps = args.resolve_steps();
    let engine = args.engine_opts();
    let workloads = if args.full {
        vec![Workload::Mnist, Workload::Purchase]
    } else {
        vec![Workload::Mnist]
    };
    println!("Figure 9: eps' from max posterior belief (reps {reps}, steps {steps}; paper: 250)\n");
    let mut json = Vec::new();
    for workload in workloads {
        let train_size = args.train_size(workload);
        let cells = run_audit_grid(workload, train_size, reps, steps, args.seed, &engine);
        print_audit_grid(
            &format!("== {} ==", workload.name()),
            &cells,
            "eps' (from max beta_k)",
            |c| c.eps_from_belief,
        );
        println!();
        json.push(serde_json::json!({ "workload": workload.name(), "cells": cells }));
    }
    println!("Expected shape: LS rows approach the target eps from below (max statistic);");
    println!("GS rows stay well below; rare eps' > eps occurrences are the delta budget.");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json).unwrap());
    }
}
