//! Production-style training: Poisson-subsampled mini-batch DPSGD with
//! privacy-amplification accounting, plus the identifiability translation.
//!
//! The audit experiments of the paper run full-batch gradient descent (the
//! DI adversary's side knowledge demands it), but a deployed system trains
//! with mini-batches and claims the *amplified* budget from the subsampled
//! RDP accountant. This example trains the synthetic MNIST CNN both ways at
//! the same noise multiplier and reports what each run costs in ε — and
//! what that ε means as ρ_β / ρ_α.
//!
//! ```sh
//! cargo run --release --example minibatch_training
//! ```

use dp_identifiability::prelude::*;

fn main() {
    let mut rng = seeded_rng(29);
    let data = generate_mnist(&mut rng, 400);
    let (train, test) = data.split_at(300);
    let delta = 1e-3;

    // A modest noise multiplier; what it costs depends on how we batch.
    let z = 1.1;
    let steps = 60;
    let q = 0.1; // expected batch: 30 of 300 records

    println!(
        "synthetic MNIST, |D| = {}, z = {z}, {steps} steps\n",
        train.len()
    );

    // -- mini-batch with Poisson subsampling ------------------------------
    // The trainer releases the clipped sum with σ = z·C whatever the pair;
    // the pair only names a differing record, and we train on D itself.
    let cfg = DpsgdConfig::new(
        3.0,
        0.05,
        steps,
        NeighborMode::Unbounded,
        z,
        SensitivityScaling::Global,
    );
    let pair = NeighborPair::from_spec(&train, &NeighborSpec::Remove { index: 0 });
    let mut model = mnist_cnn(&mut rng);
    let mut accountant = RdpAccountant::new();
    // Noise continues from `rng`; the batches come from a stream of their own.
    train_dpsgd_subsampled(
        &mut model,
        &pair,
        true,
        &cfg,
        q,
        &mut rng,
        &mut seeded_rng(30),
        |_| accountant.add_subsampled_gaussian_step(q, z),
    );
    let eps_amplified = accountant.epsilon(delta).0;
    let acc = model.accuracy(&test.xs, &test.ys);
    let expected_batch = q * train.len() as f64;
    println!("mini-batch (q = {q}, expected batch {expected_batch:.1}):");
    println!("  eps = {eps_amplified:.3} at delta = {delta} (subsampled RDP)");
    println!(
        "  identifiability: rho_beta = {:.3}, rho_alpha = {:.3}",
        rho_beta(eps_amplified),
        rho_alpha(eps_amplified, delta)
    );
    println!("  test accuracy: {acc:.3} (chance 0.1)");

    // -- the same noise, full batch ---------------------------------------
    let mut acc_full = RdpAccountant::new();
    acc_full.add_gaussian_steps(z, steps);
    let eps_full = acc_full.epsilon(delta).0;
    println!("\nfull batch at the same z (accounting only):");
    println!("  eps = {eps_full:.3} at delta = {delta}");
    println!(
        "  identifiability: rho_beta = {:.3}, rho_alpha = {:.3}",
        rho_beta(eps_full),
        rho_alpha(eps_full.min(500.0), delta)
    );

    println!(
        "\namplification factor: {:.1}x less privacy loss for the mini-batch run.",
        eps_full / eps_amplified
    );
    println!("Subsampling buys privacy; the identifiability scores make the");
    println!("difference legible: a near-certain adversary vs one barely beyond a");
    println!("coin flip, from the same noise level.");
}
