//! Federated DPSGD simulation — the deployment setting that makes the DI
//! adversary realistic (paper §6.1/§7).
//!
//! Multiple data owners hold disjoint shards; each round every client
//! computes the clipped per-example gradient *sum* over its shard, the
//! server aggregates the client sums, perturbs the total with Gaussian
//! noise scaled to the clip bound (record-level DP: every record lives in
//! exactly one shard and contributes at most `C` to the total), and
//! broadcasts the update. Every participant therefore observes the same
//! perturbed gradients the paper's adversary consumes — an insider *is*
//! A_DI,Gau.
//!
//! Simulation notes: batch-normalisation statistics (if the architecture
//! has them) are refreshed from the union of shards, a centralised
//! simplification (production FL would keep per-client statistics, e.g.
//! FedBN); architectures without normalisation layers are unaffected.

use dpaudit_datasets::Dataset;
use dpaudit_dp::RdpAccountant;
use dpaudit_math::{axpy, GaussianSampler};
use dpaudit_nn::Sequential;
use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::config::ComputeMode;
use crate::exec::{Batch, StepExec};

/// Configuration of a federated DPSGD run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FederatedConfig {
    /// Per-example clip norm `C` applied inside every client.
    pub clip_norm: f64,
    /// Learning rate applied to the mean perturbed gradient.
    pub learning_rate: f64,
    /// Number of federated rounds.
    pub rounds: usize,
    /// Noise multiplier `z = σ/C` for the server-side perturbation.
    pub noise_multiplier: f64,
    /// Whether round records retain the per-client clean sums (what a
    /// compromised aggregator would see before secure aggregation).
    /// `false` models secure aggregation: only the noisy total leaves the
    /// server.
    pub retain_client_sums: bool,
}

impl FederatedConfig {
    /// Construct with validation.
    ///
    /// # Panics
    /// Panics on an invalid clip norm, rate, rounds or noise multiplier.
    pub fn new(clip_norm: f64, learning_rate: f64, rounds: usize, noise_multiplier: f64) -> Self {
        assert!(
            clip_norm.is_finite() && clip_norm > 0.0,
            "FederatedConfig: clip norm must be positive"
        );
        assert!(
            learning_rate > 0.0,
            "FederatedConfig: learning rate must be positive"
        );
        assert!(rounds > 0, "FederatedConfig: rounds must be positive");
        assert!(
            noise_multiplier.is_finite() && noise_multiplier > 0.0,
            "FederatedConfig: noise multiplier must be positive"
        );
        Self {
            clip_norm,
            learning_rate,
            rounds,
            noise_multiplier,
            retain_client_sums: false,
        }
    }
}

/// What one federated round produces.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RoundRecord {
    /// Zero-based round index.
    pub round: usize,
    /// The noisy aggregated gradient sum broadcast to all clients.
    pub noisy_total: Vec<f64>,
    /// Clean per-client sums (empty unless
    /// [`FederatedConfig::retain_client_sums`]).
    pub client_sums: Vec<Vec<f64>>,
    /// The clean total (sum of client sums) — the mechanism center.
    pub clean_total: Vec<f64>,
    /// Server noise standard deviation this round.
    pub sigma: f64,
    /// Mean training loss across all records this round.
    pub mean_loss: f64,
}

/// Outcome of a federated run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FederatedOutcome {
    /// Accountant over the composed rounds (record-level, unbounded DP).
    pub accountant: RdpAccountant,
    /// Total number of records across clients.
    pub total_records: usize,
}

impl FederatedOutcome {
    /// The (ε, δ)-DP guarantee realised by the run.
    pub fn epsilon(&self, delta: f64) -> f64 {
        self.accountant.epsilon(delta).0
    }
}

/// Run federated DPSGD over the given client shards, streaming one
/// [`RoundRecord`] per round.
///
/// # Panics
/// Panics when there are no clients or all shards are empty.
pub fn train_federated<R: Rng + ?Sized>(
    model: &mut Sequential,
    clients: &[Dataset],
    cfg: &FederatedConfig,
    rng: &mut R,
    mut observer: impl FnMut(RoundRecord),
) -> FederatedOutcome {
    assert!(!clients.is_empty(), "train_federated: no clients");
    let total_records: usize = clients.iter().map(Dataset::len).sum();
    assert!(total_records > 0, "train_federated: all shards are empty");
    let dim = model.param_count();
    let sigma = cfg.noise_multiplier * cfg.clip_norm;
    let exec = StepExec::new(ComputeMode::F64);
    let mut gauss = GaussianSampler::new();
    let mut accountant = RdpAccountant::new();

    // Union view for the (simulated) normalisation-statistics refresh.
    let union: Vec<_> = clients.iter().flat_map(|c| c.xs.iter().cloned()).collect();

    for round in 0..cfg.rounds {
        model.update_norm_stats(&union);

        let mut client_sums = Vec::with_capacity(clients.len());
        let mut clean_total = vec![0.0; dim];
        let mut loss_total = 0.0;
        for shard in clients {
            let clipped = exec.clip_sum(model, &shard.xs, &shard.ys, Batch::Full, cfg.clip_norm);
            loss_total += clipped.loss_total;
            axpy(1.0, &clipped.clean_sum, &mut clean_total);
            if cfg.retain_client_sums {
                client_sums.push(clipped.clean_sum);
            }
        }

        let mut noisy_total = clean_total.clone();
        for v in &mut noisy_total {
            *v += gauss.sample(rng, 0.0, sigma);
        }

        let update: Vec<f64> = noisy_total
            .iter()
            .map(|v| v / total_records as f64)
            .collect();
        model.gradient_step(&update, cfg.learning_rate);
        accountant.add_gaussian_step(cfg.noise_multiplier);

        observer(RoundRecord {
            round,
            noisy_total,
            client_sums,
            clean_total,
            sigma,
            mean_loss: loss_total / total_records as f64,
        });
    }

    FederatedOutcome {
        accountant,
        total_records,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_math::{l2_distance, seeded_rng};
    use dpaudit_nn::{Dense, Layer};
    use dpaudit_tensor::Tensor;

    fn tiny_model(seed: u64) -> Sequential {
        let mut rng = seeded_rng(seed);
        Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, 4, 5)),
            Layer::Relu,
            Layer::Dense(Dense::new(&mut rng, 5, 2)),
        ])
    }

    fn records(n: usize, offset: usize) -> Dataset {
        let mut d = Dataset::empty();
        for i in 0..n {
            let x: Vec<f64> = (0..4)
                .map(|j| (((i + offset) * 7 + j * 3) % 9) as f64 / 9.0)
                .collect();
            d.push(Tensor::from_vec(&[4], x), (i + offset) % 2);
        }
        d
    }

    fn cfg(rounds: usize) -> FederatedConfig {
        FederatedConfig::new(1.0, 0.1, rounds, 2.0)
    }

    #[test]
    fn clean_total_is_partition_invariant() {
        // The same records split 1-way vs 3-way must give identical clean
        // totals (same model state, same clipping, same noise seed).
        let all = records(12, 0);
        let split = vec![records(4, 0), records(4, 4), records(4, 8)];
        let mut m1 = tiny_model(1);
        let mut m2 = tiny_model(1);
        let mut r1 = Vec::new();
        let mut r2 = Vec::new();
        train_federated(&mut m1, &[all], &cfg(3), &mut seeded_rng(2), |r| r1.push(r));
        train_federated(&mut m2, &split, &cfg(3), &mut seeded_rng(2), |r| r2.push(r));
        for (a, b) in r1.iter().zip(&r2) {
            assert!(l2_distance(&a.clean_total, &b.clean_total) < 1e-9);
            assert!(l2_distance(&a.noisy_total, &b.noisy_total) < 1e-9);
        }
        assert_eq!(m1.params(), m2.params());
    }

    #[test]
    fn secure_aggregation_hides_client_sums() {
        let shards = vec![records(3, 0), records(3, 3)];
        let mut model = tiny_model(3);
        let mut rec = Vec::new();
        train_federated(&mut model, &shards, &cfg(2), &mut seeded_rng(4), |r| {
            rec.push(r)
        });
        assert!(rec.iter().all(|r| r.client_sums.is_empty()));
        let mut open = cfg(2);
        open.retain_client_sums = true;
        let mut model2 = tiny_model(3);
        let mut rec2 = Vec::new();
        train_federated(&mut model2, &shards, &open, &mut seeded_rng(4), |r| {
            rec2.push(r)
        });
        assert!(rec2.iter().all(|r| r.client_sums.len() == 2));
        // Client sums add up to the clean total.
        for r in &rec2 {
            let mut sum = vec![0.0; r.clean_total.len()];
            for cs in &r.client_sums {
                axpy(1.0, cs, &mut sum);
            }
            assert!(l2_distance(&sum, &r.clean_total) < 1e-9);
        }
    }

    #[test]
    fn accountant_composes_per_round() {
        let shards = vec![records(5, 0)];
        let mut model = tiny_model(5);
        let out = train_federated(&mut model, &shards, &cfg(4), &mut seeded_rng(6), |_| {});
        assert_eq!(out.accountant.steps(), 4);
        assert_eq!(out.total_records, 5);
        let mut reference = RdpAccountant::new();
        reference.add_gaussian_steps(2.0, 4);
        assert!((out.epsilon(1e-5) - reference.epsilon(1e-5).0).abs() < 1e-12);
    }

    #[test]
    fn per_record_influence_bounded_by_clip() {
        // Adding one record changes the clean total by at most C.
        let base = records(6, 0);
        let mut plus = base.clone();
        plus.push(Tensor::full(&[4], 0.9), 1);
        let c = cfg(1);
        let run = |shard: Dataset| {
            let mut model = tiny_model(7);
            let mut out = Vec::new();
            train_federated(&mut model, &[shard], &c, &mut seeded_rng(8), |r| {
                out.push(r)
            });
            out.remove(0).clean_total
        };
        let diff = l2_distance(&run(base), &run(plus));
        assert!(diff <= 1.0 + 1e-9, "influence {diff} exceeds C = 1");
        assert!(diff > 0.0);
    }

    #[test]
    fn training_signal_flows() {
        let shards = vec![records(8, 0), records(8, 8)];
        let mut model = tiny_model(9);
        let mut losses = Vec::new();
        // Tiny noise so the learning signal dominates.
        let c = FederatedConfig::new(5.0, 0.4, 60, 1e-3);
        train_federated(&mut model, &shards, &c, &mut seeded_rng(10), |r| {
            losses.push(r.mean_loss);
        });
        assert!(
            losses[losses.len() - 1] < losses[0],
            "loss {} -> {}",
            losses[0],
            losses[losses.len() - 1]
        );
    }

    #[test]
    #[should_panic(expected = "no clients")]
    fn empty_client_list_rejected() {
        train_federated(
            &mut tiny_model(11),
            &[],
            &cfg(1),
            &mut seeded_rng(12),
            |_| {},
        );
    }
}
