//! Extension experiment — Proposition 1 empirically: the DI adversary
//! (auxiliary knowledge of both datasets + every gradient) achieves at least
//! the advantage of the MI adversary (final model + one challenge point).
//!
//! Per repetition we run one DPSGD training (bounded DP, LS scaling,
//! ρ_β = 0.9), let A_DI decide from the transcript, and attack the final
//! model with Yeom's loss-threshold A_MI over fresh membership challenges.

use dpaudit_bench::{arm_settings, fmt_sig, param_row, print_table, Args, Workload};
use dpaudit_core::{
    run_mi_trials, ChallengeMode, DiAdversaryStrategy, GaussianBelief, MiAdversary,
};
use dpaudit_dp::NeighborMode;
use dpaudit_dpsgd::{train_dpsgd, SensitivityScaling};
use dpaudit_math::{seeded_rng, split_seed};
use rand::Rng;

fn main() {
    let args = Args::parse();
    let reps = args.resolve_reps(15, 100);
    let steps = args.resolve_steps();
    let workload = Workload::Mnist;
    let world = workload.world(args.seed, args.train_size(workload));
    let row = param_row(0.90, workload.delta());
    let pair = workload.max_pair(&world, NeighborMode::Bounded);
    let settings = arm_settings(
        &row,
        steps,
        SensitivityScaling::Local,
        NeighborMode::Bounded,
        ChallengeMode::RandomBit,
    );

    println!("Proposition 1 check: Adv(DI) vs Adv(MI) on identical trainings");
    println!("(reps: {reps}, steps: {steps}, rho_beta=0.9)\n");

    let mut di_correct = 0usize;
    let mut mi_adv_sum = 0.0;
    for i in 0..reps {
        let trial_seed = split_seed(args.seed, 500 + i as u64);
        let mut model_rng = seeded_rng(split_seed(trial_seed, 0));
        let mut noise_rng = seeded_rng(split_seed(trial_seed, 1));
        let mut chall_rng = seeded_rng(split_seed(trial_seed, 2));
        let b = chall_rng.gen::<bool>();
        let mut model = workload.build_model(&mut model_rng);
        let mut di = GaussianBelief::new(NeighborMode::Bounded);
        train_dpsgd(&mut model, &pair, b, &settings.dpsgd, &mut noise_rng, |r| {
            di.observe(&r, b);
        });
        if di.decide_d() == b {
            di_correct += 1;
        }
        // MI attack on the final model: members from the trained dataset,
        // non-members from the pool (fresh draws from the same distribution).
        let trained = pair.trained_dataset(b);
        let mi = MiAdversary::calibrated(&model, &world.pool);
        let mi_batch = run_mi_trials(&mi, &model, trained, &world.pool, 200, &mut chall_rng);
        mi_adv_sum += mi_batch.advantage();
    }
    let di_adv = 2.0 * di_correct as f64 / reps as f64 - 1.0;
    let mi_adv = mi_adv_sum / reps as f64;

    print_table(
        &["adversary", "advantage", "bound"],
        &[
            vec![
                "A_DI (gradients + both datasets)".into(),
                fmt_sig(di_adv),
                fmt_sig(row.rho_alpha),
            ],
            vec![
                "A_MI (final model + 1 point)".into(),
                fmt_sig(mi_adv),
                fmt_sig(row.rho_alpha),
            ],
        ],
    );
    println!(
        "\nExpected shape: Adv(DI) >= Adv(MI); both below rho_alpha (plus Monte-Carlo noise)."
    );
    if args.json {
        println!(
            "{}",
            serde_json::json!({ "di_advantage": di_adv, "mi_advantage": mi_adv, "rho_alpha": row.rho_alpha })
        );
    }
}
