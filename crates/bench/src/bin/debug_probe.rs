//! Developer utility: compare the observed adversary success rate against
//! the analytic prediction Φ(Δ/2) with Δ² = Σᵢ lsᵢ²/σᵢ², per arm.

use dpaudit_bench::{arm_settings, param_row, run_batch_engine, Args, EngineBatch, Workload, ARMS};
use dpaudit_core::ChallengeMode;
use dpaudit_math::phi;

fn main() {
    let args = Args::parse();
    let reps = args.resolve_reps(40, 200);
    let steps = args.resolve_steps();
    let engine = args.engine_opts();
    let workload = Workload::Purchase;
    let train_size = args.train_size(workload);
    let world = workload.world(args.seed, train_size);
    let row = param_row(0.90, workload.delta());
    for (scaling, mode) in ARMS {
        let pair = workload.max_pair(&world, mode);
        let settings = arm_settings(&row, steps, scaling, mode, ChallengeMode::RandomBit);
        let (report, batch) = run_batch_engine(
            &EngineBatch {
                workload,
                pair: &pair,
                settings: &settings,
                test_set: None,
                reps,
                master_seed: args.seed + 9,
                world_seed: args.seed,
                train_size,
                row,
                label: format!("debug_probe_{}_{scaling}_{mode}", workload.key()),
            },
            &engine,
        );
        // Predicted success from the first trial's ls/sigma series.
        let t = &batch.trials[0];
        let delta2: f64 = t
            .local_sensitivities
            .iter()
            .zip(&t.sigmas)
            .map(|(ls, s)| (ls / s) * (ls / s))
            .sum();
        let pred = phi(delta2.sqrt() / 2.0);
        println!(
            "{scaling}/{mode}: ls[0..3]={:?} sigma[0]={:.2} predictedSuccess={pred:.3} observed={:.3} adv={:.3}",
            &t.local_sensitivities[..steps.min(3)],
            t.sigmas[0],
            batch.success_rate(),
            report.advantage,
        );
    }
}
