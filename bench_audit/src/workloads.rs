//! The benchmark's workload table and the metrics it reports.
//!
//! Every workload is a closed loop: a fixed set of `trial_threads` workers
//! pulls the trials of one durable-store session after another until the
//! run's time is spent. The four workloads stress different layers; each
//! `why` names the layer and is copied verbatim into `BENCHMARK.json`.

use dpaudit_bench::{arm_settings, param_row, Workload};
use dpaudit_core::{ChallengeMode, RecordDetail, Sampling};
use dpaudit_dp::{NeighborMode, RdpAccountant};
use dpaudit_dpsgd::{ComputeMode, SensitivityScaling};
use dpaudit_math::split_seed;
use dpaudit_runtime::{Parallelism, Seed, StoreHeader, SCHEMA_VERSION};

/// The paper's Table 2 row every workload audits (ρ_β = 0.90).
pub const RHO_BETA: f64 = 0.90;

/// A thread count relative to the machine.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Threads {
    One,
    Nproc,
}

impl Threads {
    fn resolve(self, nproc: usize) -> usize {
        match self {
            Threads::One => 1,
            Threads::Nproc => nproc,
        }
    }
}

/// One benchmark workload: an audit configuration plus how it is loaded.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    pub why: &'static str,
    pub dataset: Workload,
    pub train_size: usize,
    pub steps: usize,
    pub sampling: Sampling,
    pub compute: ComputeMode,
    pub trial_threads: Threads,
    pub batch_threads: Threads,
    /// Trials each trial thread runs per store session of the timed loop
    /// (the vendored rayon pool stripes a session's trials round-robin over
    /// its workers, without stealing). Each session yields one throughput
    /// sample: one trial per thread where a trial lasts long enough to time
    /// alone, more where it does not.
    pub trials_per_thread: usize,
    /// Trials the traced run executes serially with `execute_trial`, and
    /// again rebuilt from public calls with a span around every layer.
    pub traced_trials: usize,
}

pub const WORKLOADS: [Spec; 4] = [
    Spec {
        name: "mnist_table2",
        why: "Paper Table 2 arm on the CNN: conv im2col/gemm and batch-norm statistics do the work; noise and the adversary stay under 1%.",
        dataset: Workload::Mnist,
        train_size: 100,
        steps: 30,
        sampling: Sampling::FullBatch,
        compute: ComputeMode::F64,
        trial_threads: Threads::Nproc,
        batch_threads: Threads::One,
        trials_per_thread: 1,
        traced_trials: 4,
    },
    Spec {
        name: "purchase_table2",
        why: "Same arm on the 600-128-100 MLP: the dense gemm dominates, its 11 MB per-example gradient chunk exceeds L2, and noise plus the 90k-dim adversary update show.",
        dataset: Workload::Purchase,
        train_size: 200,
        steps: 30,
        sampling: Sampling::FullBatch,
        compute: ComputeMode::F64,
        trial_threads: Threads::Nproc,
        batch_threads: Threads::One,
        trials_per_thread: 1,
        traced_trials: 4,
    },
    Spec {
        name: "mnist_poisson_f32",
        why: "Poisson q=0.2 recorded as f32: B=1 per-example gradients replace the batched clip loop on one trial thread; the one workload a unified DPSGD step would move.",
        dataset: Workload::Mnist,
        train_size: 100,
        steps: 30,
        sampling: Sampling::Poisson { q: 0.2 },
        compute: ComputeMode::F32,
        trial_threads: Threads::One,
        batch_threads: Threads::Nproc,
        trials_per_thread: 1,
        traced_trials: 8,
    },
    Spec {
        name: "purchase_small",
        why: "|D|=20 and 2 steps over thousands of trials: per-trial fixed costs dominate (model init, 90k-param noise, adversary update, RDP, fsync'd store append).",
        dataset: Workload::Purchase,
        train_size: 20,
        steps: 2,
        sampling: Sampling::FullBatch,
        compute: ComputeMode::F64,
        trial_threads: Threads::Nproc,
        batch_threads: Threads::One,
        trials_per_thread: 25,
        traced_trials: 200,
    },
];

/// The workload called `name`.
pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|s| s.name == name)
}

/// Logical CPUs available to this process.
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Seed of the world (dataset and DS-maximising pair) of a run.
pub fn world_seed(seed: u64) -> u64 {
    split_seed(seed, 1)
}

/// Seed that picks the trials the correctness gate re-executes.
pub fn gate_seed(seed: u64) -> u64 {
    split_seed(seed, 2)
}

/// Master seed of the traced run's store session.
pub fn traced_master_seed(seed: u64) -> u64 {
    split_seed(seed, 3)
}

/// Master seed of store session `round` of the timed loop.
pub fn round_master_seed(seed: u64, round: usize) -> u64 {
    split_seed(seed, 100 + round as u64)
}

impl Spec {
    /// Trials per store session of the timed loop.
    pub fn session_trials(&self, nproc: usize) -> usize {
        self.trials_per_thread * self.trial_threads.resolve(nproc)
    }

    pub fn parallelism(&self, nproc: usize) -> Parallelism {
        Parallelism {
            trial_threads: self.trial_threads.resolve(nproc),
            batch_threads: self.batch_threads.resolve(nproc),
        }
    }

    /// The store header `dpaudit audit run` writes for the same flags:
    /// LS scaling, bounded DP, random challenge bits, the Gaussian-belief
    /// adversary, summary records.
    pub fn header(&self, world_seed: u64, master_seed: u64, reps: usize) -> StoreHeader {
        let row = param_row(RHO_BETA, self.dataset.delta());
        let mut settings = arm_settings(
            &row,
            self.steps,
            SensitivityScaling::Local,
            NeighborMode::Bounded,
            ChallengeMode::RandomBit,
        );
        settings.dpsgd.compute = self.compute;
        settings.sampling = self.sampling;
        // Poisson trials are audited against the subsampled-Gaussian budget.
        let (target_epsilon, rho_beta_bound) = match self.sampling {
            Sampling::FullBatch => (row.epsilon, row.rho_beta),
            Sampling::Poisson { q } => {
                let mut accountant = RdpAccountant::new();
                for _ in 0..self.steps {
                    accountant.add_subsampled_gaussian_step(q, settings.dpsgd.noise_multiplier);
                }
                let (eps, _order) = accountant.epsilon(row.delta);
                (eps, dpaudit_core::rho_beta(eps))
            }
        };
        StoreHeader {
            schema_version: SCHEMA_VERSION,
            label: self.name.to_string(),
            workload: self.dataset.key().to_string(),
            train_size: self.train_size,
            world_seed: Seed(world_seed),
            reps,
            master_seed: Seed(master_seed),
            target_epsilon,
            delta: row.delta,
            rho_beta_bound,
            detail: RecordDetail::Summary,
            settings,
        }
    }
}

/// A reported metric: its name, unit and which direction is better.
#[derive(Debug)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub higher_is_better: bool,
}

const fn metric(name: &'static str, unit: &'static str, higher_is_better: bool) -> Metric {
    Metric {
        name,
        unit,
        higher_is_better,
    }
}

/// What an operator of an audit sees, from the untraced timed loop, with
/// the three times scaled to the reference kernel's nominal speed (see
/// `reference`). Their regression bounds live in `BENCHMARK.json` only.
pub const END_TO_END: [Metric; 4] = [
    metric("trials_per_s", "trial/s", true),
    metric("cpu_s_per_trial", "s", false),
    metric("setup_s", "s", false),
    metric("peak_rss_mb", "MiB", false),
];

/// One metric per layer boundary, from the traced run. `.tail` is the
/// highest percentile with at least ten samples beyond it (`stats::tail`).
pub const PER_LAYER: [Metric; 28] = [
    metric("runtime.execute_trial_ms.p50", "ms", false),
    metric("runtime.execute_trial_ms.tail", "ms", false),
    metric("runtime.store_append_us.p50", "us", false),
    metric("runtime.store_append_us.tail", "us", false),
    metric("runtime.aggregate_push_us", "us", false),
    metric("runtime.session_create_ms", "ms", false),
    metric("runtime.parallel_efficiency", "ratio", true),
    metric("core.model_build_ms", "ms", false),
    metric("core.adversary_observe_ms", "ms", false),
    metric("core.observe_final_ms", "ms", false),
    metric("dp.eps_ls_ms", "ms", false),
    metric("dpsgd.step_ms.p50", "ms", false),
    metric("dpsgd.step_ms.tail", "ms", false),
    metric("dpsgd.clip_ms", "ms", false),
    metric("dpsgd.noise_ms", "ms", false),
    metric("dpsgd.update_ms", "ms", false),
    metric("dpsgd.step_unattributed_share", "ratio", false),
    metric("nn.norm_stats_ms", "ms", false),
    metric("nn.norm_stats_share", "ratio", false),
    metric("nn.per_example_grads_chunk_ms", "ms", false),
    metric("nn.grad_b1_ms", "ms", false),
    metric("math.noise_fill_ns_per_param", "ns/param", false),
    metric("tensor.gemm_dense_gflops", "GFLOP/s", true),
    metric("tensor.gemm_conv_gflops", "GFLOP/s", true),
    metric("tensor.im2col_gbps", "GB/s", true),
    metric("datasets.world_ms", "ms", false),
    metric("datasets.ds_search_ms", "ms", false),
    metric("bench.trace_overhead_share", "ratio", false),
];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::valid_name;

    #[test]
    fn workload_table_is_sane() {
        for (i, spec) in WORKLOADS.iter().enumerate() {
            assert!(valid_name(spec.name), "{}", spec.name);
            assert!(
                WORKLOADS[..i].iter().all(|s| s.name != spec.name),
                "duplicate workload {}",
                spec.name
            );
            assert!(
                spec.why.len() <= 200 && !spec.why.contains('\n'),
                "{}",
                spec.name
            );
            assert!(spec.trials_per_thread > 0, "{}", spec.name);
            assert!(spec.traced_trials >= 2, "{}", spec.name);
            for nproc in 1..=64 {
                let p = spec.parallelism(nproc);
                assert!(
                    p.trial_threads * p.batch_threads <= nproc,
                    "{} uses more than {nproc} threads",
                    spec.name
                );
            }
            let header = spec.header(42, round_master_seed(42, 0), spec.session_trials(2));
            assert!(header.target_epsilon > 0.0 && header.target_epsilon.is_finite());
            assert_eq!(header.settings.dpsgd.steps, spec.steps);
            assert_eq!(find(spec.name).map(|s| s.name), Some(spec.name));
        }
    }

    /// The headers audit the target ε and ρ_β bound `dpaudit audit run`
    /// writes for the same flags (`--rho-beta 0.9`, plus `--workload
    /// purchase --train-size 20 --steps 2` and `--workload mnist
    /// --sampling-q 0.2 --compute f32`); the values are that command's
    /// store headers.
    #[test]
    fn headers_match_the_cli() {
        let cli: [(&str, [f64; 3]); 2] = [
            ("purchase_small", [2.1972245773362196, 0.01, 0.9]),
            (
                "mnist_poisson_f32",
                [0.4277719754458694, 0.001, 0.6053415114311578],
            ),
        ];
        for (name, expected) in cli {
            let header = find(name).unwrap().header(1, 2, 3);
            let got = [header.target_epsilon, header.delta, header.rho_beta_bound];
            assert_eq!(got.map(f64::to_bits), expected.map(f64::to_bits), "{name}");
        }
    }

    #[test]
    fn metric_names_are_legal_and_unique() {
        let all: Vec<&Metric> = END_TO_END.iter().chain(&PER_LAYER).collect();
        for (i, m) in all.iter().enumerate() {
            assert!(valid_name(m.name), "{}", m.name);
            assert!(all[..i].iter().all(|o| o.name != m.name), "{}", m.name);
            assert!(
                !m.unit.is_empty()
                    && m.unit.len() <= 16
                    && m.unit
                        .chars()
                        .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{}",
                m.unit
            );
        }
    }
}
