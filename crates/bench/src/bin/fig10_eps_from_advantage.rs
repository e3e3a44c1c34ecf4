//! Figure 10 — empirical ε′ from the membership advantage,
//! ε′ = 2·√(2·ln(1.25/δ))·Φ⁻¹((Adv′+1)/2) (Theorem 2 inverted).
//!
//! Expected shape: the Δf = LS curve tracks the target ε within the Monte-
//! Carlo confidence band of the advantage estimate (the paper observes two
//! exceedances across its grid, attributed to exactly this sampling error);
//! the Δf = GS curve falls below.

use dpaudit_bench::{print_audit_grid, run_audit_grid, Args, Workload};

fn main() {
    let args = Args::parse();
    let reps = args.resolve_reps(30, 250);
    let steps = args.resolve_steps();
    let engine = args.engine_opts();
    let workloads = if args.full {
        vec![Workload::Mnist, Workload::Purchase]
    } else {
        vec![Workload::Mnist]
    };
    println!("Figure 10: eps' from empirical advantage (reps {reps}, steps {steps}; paper: 250)\n");
    let mut json = Vec::new();
    for workload in workloads {
        let train_size = args.train_size(workload);
        let cells = run_audit_grid(workload, train_size, reps, steps, args.seed, &engine);
        print_audit_grid(
            &format!("== {} ==", workload.name()),
            &cells,
            "eps' (from advantage)",
            |c| c.eps_from_advantage,
        );
        println!();
        json.push(serde_json::json!({ "workload": workload.name(), "cells": cells }));
    }
    println!("Expected shape: LS rows track the target eps (within Monte-Carlo error of Adv);");
    println!("GS rows fall below the target.");
    if args.json {
        println!("{}", serde_json::to_string_pretty(&json).unwrap());
    }
}
