//! Mini-batch DPSGD with Poisson subsampling — the production-style trainer.
//!
//! The paper's *audit* experiments use full-batch gradient descent because
//! that matches the DI adversary's side knowledge (§6.1); real deployments
//! use Poisson-subsampled mini-batches, whose privacy amplification the RDP
//! accountant of `dpaudit-dp` tracks (`add_subsampled_gaussian_step`). This
//! module provides that trainer: per step every record enters the batch
//! independently with probability `q`, per-example gradients are clipped and
//! summed, Gaussian noise scaled to the clip bound is added, and the update
//! divides by the expected batch size `q·n`.

use dpaudit_datasets::Dataset;
use dpaudit_dp::RdpAccountant;
use dpaudit_math::GaussianSampler;
use dpaudit_nn::Sequential;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::clip::ClippingStrategy;
use crate::config::ComputeMode;
use crate::exec::{Batch, StepExec};

/// Configuration of a mini-batch DPSGD run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MinibatchConfig {
    /// Per-example clipping strategy.
    pub clipping: ClippingStrategy,
    /// Learning rate applied to the mean perturbed gradient.
    pub learning_rate: f64,
    /// Number of subsampled steps.
    pub steps: usize,
    /// Poisson inclusion probability `q` per record and step.
    pub sampling_rate: f64,
    /// Noise multiplier `z = σ/C` (unbounded add/remove sensitivity of the
    /// clipped-gradient sum).
    pub noise_multiplier: f64,
}

impl MinibatchConfig {
    /// Construct with validation.
    ///
    /// # Panics
    /// Panics on invalid rates, steps or noise multiplier.
    pub fn new(
        clipping: ClippingStrategy,
        learning_rate: f64,
        steps: usize,
        sampling_rate: f64,
        noise_multiplier: f64,
    ) -> Self {
        clipping.total_bound(); // validate
        assert!(
            learning_rate > 0.0,
            "MinibatchConfig: learning rate must be positive"
        );
        assert!(steps > 0, "MinibatchConfig: steps must be positive");
        assert!(
            sampling_rate > 0.0 && sampling_rate <= 1.0,
            "MinibatchConfig: sampling rate must be in (0, 1]"
        );
        assert!(
            noise_multiplier.is_finite() && noise_multiplier > 0.0,
            "MinibatchConfig: noise multiplier must be positive"
        );
        Self {
            clipping,
            learning_rate,
            steps,
            sampling_rate,
            noise_multiplier,
        }
    }
}

/// Result of a mini-batch run: the accountant holding the composed RDP and
/// per-step batch statistics.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct MinibatchOutcome {
    /// Accountant after all steps (query with `.epsilon(delta)`).
    pub accountant: RdpAccountant,
    /// Realised batch sizes per step.
    pub batch_sizes: Vec<usize>,
    /// Mean training loss per step over the sampled batch (NaN-free; steps
    /// with an empty batch record the previous value, or 0.0 — the audit
    /// trainer's empty-batch value — before the first non-empty batch).
    pub losses: Vec<f64>,
}

impl MinibatchOutcome {
    /// The (ε, δ)-DP guarantee realised by the run.
    pub fn epsilon(&self, delta: f64) -> f64 {
        self.accountant.epsilon(delta).0
    }
}

/// Train with Poisson-subsampled DPSGD.
///
/// # Panics
/// Panics on an empty dataset.
pub fn train_minibatch_dpsgd<R: Rng + ?Sized>(
    model: &mut Sequential,
    data: &Dataset,
    cfg: &MinibatchConfig,
    rng: &mut R,
) -> MinibatchOutcome {
    assert!(!data.is_empty(), "train_minibatch_dpsgd: empty dataset");
    let exec = StepExec::new(ComputeMode::F64);
    let bound = cfg.clipping.total_bound();
    let sigma = cfg.noise_multiplier * bound;
    let expected_batch = (cfg.sampling_rate * data.len() as f64).max(1.0);
    let mut gauss = GaussianSampler::new();
    let mut accountant = RdpAccountant::new();
    let mut batch_sizes = Vec::with_capacity(cfg.steps);
    let mut losses = Vec::with_capacity(cfg.steps);
    let mut last_loss = 0.0;

    for _ in 0..cfg.steps {
        // Poisson sampling: each record independently with probability q.
        let batch: Vec<usize> = (0..data.len())
            .filter(|_| rng.gen::<f64>() < cfg.sampling_rate)
            .collect();
        batch_sizes.push(batch.len());

        if !batch.is_empty() {
            let batch_xs: Vec<_> = batch.iter().map(|&i| data.xs[i].clone()).collect();
            model.update_norm_stats(&batch_xs);
        }

        let clipped = exec.clip_sum(
            model,
            &data.xs,
            &data.ys,
            Batch::Drawn(&batch),
            &cfg.clipping,
        );
        if !batch.is_empty() {
            last_loss = clipped.loss_total / batch.len() as f64;
        }
        losses.push(last_loss);

        let mut sum = clipped.clean_sum;
        for v in &mut sum {
            *v += gauss.sample(rng, 0.0, sigma);
        }
        let update: Vec<f64> = sum.iter().map(|v| v / expected_batch).collect();
        model.gradient_step(&update, cfg.learning_rate);

        accountant.add_subsampled_gaussian_step(cfg.sampling_rate, cfg.noise_multiplier);
    }

    MinibatchOutcome {
        accountant,
        batch_sizes,
        losses,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_datasets::generate_purchase;
    use dpaudit_math::seeded_rng;
    use dpaudit_nn::{Dense, Layer};
    use dpaudit_tensor::Tensor;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, 6, 8)),
            Layer::Relu,
            Layer::Dense(Dense::new(&mut rng, 8, 3)),
        ])
    }

    fn tiny_data(n: usize) -> Dataset {
        let mut d = Dataset::empty();
        for i in 0..n {
            let x: Vec<f64> = (0..6).map(|j| ((i * 7 + j * 5) % 9) as f64 / 9.0).collect();
            d.push(Tensor::from_vec(&[6], x), i % 3);
        }
        d
    }

    fn cfg(q: f64, steps: usize, z: f64) -> MinibatchConfig {
        MinibatchConfig::new(ClippingStrategy::Flat(1.0), 0.2, steps, q, z)
    }

    #[test]
    fn batch_sizes_track_sampling_rate() {
        let mut model = tiny_model(1);
        let data = tiny_data(200);
        let out = train_minibatch_dpsgd(&mut model, &data, &cfg(0.25, 40, 5.0), &mut seeded_rng(2));
        let mean = out.batch_sizes.iter().sum::<usize>() as f64 / out.batch_sizes.len() as f64;
        assert!((mean - 50.0).abs() < 10.0, "mean batch size {mean}");
    }

    #[test]
    fn accountant_reports_finite_epsilon() {
        let mut model = tiny_model(3);
        let data = tiny_data(50);
        let out = train_minibatch_dpsgd(&mut model, &data, &cfg(0.2, 30, 1.5), &mut seeded_rng(4));
        let eps = out.epsilon(1e-5);
        assert!(eps.is_finite() && eps > 0.0);
        // Privacy amplification: far below the full-batch cost at z = 1.5.
        let mut full = RdpAccountant::new();
        full.add_gaussian_steps(1.5, 30);
        assert!(eps < full.epsilon(1e-5).0 / 2.0);
    }

    #[test]
    fn epsilon_grows_with_steps() {
        let run = |steps: usize| {
            let mut model = tiny_model(5);
            let data = tiny_data(50);
            train_minibatch_dpsgd(&mut model, &data, &cfg(0.2, steps, 1.5), &mut seeded_rng(6))
                .epsilon(1e-5)
        };
        assert!(run(10) < run(40));
    }

    #[test]
    fn low_noise_training_reduces_loss() {
        let mut model = tiny_model(7);
        let data = tiny_data(60);
        let initial = model.mean_loss(&data.xs, &data.ys);
        // Generous budget: tiny noise, high sampling rate, many steps.
        let c = MinibatchConfig::new(ClippingStrategy::Flat(5.0), 0.3, 120, 0.8, 0.01);
        train_minibatch_dpsgd(&mut model, &data, &c, &mut seeded_rng(8));
        let fin = model.mean_loss(&data.xs, &data.ys);
        assert!(fin < initial, "loss {initial} -> {fin}");
    }

    #[test]
    fn q_one_behaves_like_full_batch_accounting() {
        let mut model = tiny_model(9);
        let data = tiny_data(20);
        let out = train_minibatch_dpsgd(&mut model, &data, &cfg(1.0, 5, 2.0), &mut seeded_rng(10));
        assert!(out.batch_sizes.iter().all(|&b| b == 20));
        let mut full = RdpAccountant::new();
        full.add_gaussian_steps(2.0, 5);
        assert!((out.epsilon(1e-5) - full.epsilon(1e-5).0).abs() < 1e-9);
    }

    #[test]
    fn losses_stay_finite_when_the_first_draw_is_empty() {
        // Seed and q chosen so that step 0 draws no record: its loss is the
        // audit trainer's empty-batch value 0.0 until a batch is drawn.
        let mut model = tiny_model(13);
        let data = tiny_data(4);
        let out = train_minibatch_dpsgd(&mut model, &data, &cfg(0.1, 12, 1.0), &mut seeded_rng(2));
        assert_eq!(out.batch_sizes[0], 0, "step 0 drew {:?}", out.batch_sizes);
        assert_eq!(out.losses[0], 0.0);
        assert!(out.losses.iter().all(|l| l.is_finite()), "{:?}", out.losses);
        let first = out
            .batch_sizes
            .iter()
            .position(|&b| b > 0)
            .expect("no batch drawn");
        assert!(out.losses[first] > 0.0);
    }

    #[test]
    fn purchase_smoke() {
        let mut rng = seeded_rng(11);
        let data = generate_purchase(&mut rng, 40);
        let mut model = dpaudit_nn::purchase_mlp(&mut rng);
        let c = MinibatchConfig::new(ClippingStrategy::Flat(3.0), 0.005, 3, 0.3, 1.1);
        let out = train_minibatch_dpsgd(&mut model, &data, &c, &mut rng);
        assert_eq!(out.batch_sizes.len(), 3);
        assert!(out.epsilon(1e-3) > 0.0);
    }

    #[test]
    #[should_panic(expected = "sampling rate must be in")]
    fn zero_rate_rejected() {
        cfg(0.0, 5, 1.0);
    }
}
