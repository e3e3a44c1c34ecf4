//! Shared harness for the reproduction binaries.
//!
//! Every binary in `src/bin/` regenerates one table or figure of the paper.
//! They share: a tiny flag parser (`--reps`, `--full`, `--seed`, `--json`),
//! the paper's parameter grid (Table 1), dataset/pair setup built on the
//! dataset-sensitivity heuristic, one trial runner ([`run_batch_engine`])
//! and aligned-table printing.

use dpaudit_core::{epsilon_for_rho_beta, rho_alpha, AuditReport};
use dpaudit_datasets::{
    bounded_candidates, generate_mnist, generate_purchase, unbounded_candidates, Dataset,
    Dissimilarity, Hamming, NegSsim, RankedNeighbor,
};
use dpaudit_dp::{calibrate_noise_multiplier_closed_form, NeighborMode};
use dpaudit_dpsgd::NeighborPair;
use dpaudit_math::{seeded_rng, split_seed};

pub mod args;
pub mod chart;
pub mod print;

pub use args::Args;
pub use chart::{bar_chart, line_chart, Series};
pub use print::{fmt_sig, print_series, print_table};

/// The paper's four MNIST target rows of Table 1 (ρ_β, δ) with k = 30,
/// η = 0.005, C = 3. ε and ρ_α are derived (Eq. 10 / Theorem 2).
pub const MNIST_RHO_BETAS: [f64; 4] = [0.52, 0.75, 0.90, 0.99];
/// Purchase-100 target rows of Table 1.
pub const PURCHASE_RHO_BETAS: [f64; 4] = [0.53, 0.75, 0.90, 0.99];
/// δ for the MNIST rows (as printed in Table 1).
pub const MNIST_DELTA: f64 = 1e-3;
/// δ for the Purchase rows (as printed in Table 1).
pub const PURCHASE_DELTA: f64 = 1e-2;
/// Training steps (= epochs under full-batch GD) in all experiments.
pub const STEPS: usize = 30;
/// Learning rate η.
pub const LEARNING_RATE: f64 = 0.005;
/// Clipping norm C (median-of-gradient-norms recommendation).
pub const CLIP_NORM: f64 = 3.0;

/// One derived Table-1 row.
#[derive(Debug, Clone, Copy)]
pub struct ParamRow {
    /// Target maximum posterior belief.
    pub rho_beta: f64,
    /// Derived expected membership advantage (Theorem 2).
    pub rho_alpha: f64,
    /// Derived total ε (Eq. 10).
    pub epsilon: f64,
    /// The row's δ.
    pub delta: f64,
    /// Noise multiplier z = σ/Δf from the RDP closed form at k = STEPS.
    pub noise_multiplier: f64,
}

/// Derive a [`ParamRow`] from a ρ_β target.
pub fn param_row(rho_beta: f64, delta: f64) -> ParamRow {
    let epsilon = epsilon_for_rho_beta(rho_beta);
    ParamRow {
        rho_beta,
        rho_alpha: rho_alpha(epsilon, delta),
        epsilon,
        delta,
        noise_multiplier: calibrate_noise_multiplier_closed_form(epsilon, delta, STEPS),
    }
}

/// A fully prepared experiment world: training set, disjoint candidate pool
/// (the rest of the holdout U), and a test set.
pub struct World {
    /// The fixed training dataset D.
    pub train: Dataset,
    /// U ∖ D — candidates for the bounded-DP replacement record.
    pub pool: Dataset,
    /// Held-out evaluation data.
    pub test: Dataset,
}

/// Generate the MNIST-like world. Defaults follow the paper (|D| = 100);
/// pool and test sizes are implementation choices documented in DESIGN.md.
pub fn mnist_world(seed: u64, train_size: usize, pool_size: usize, test_size: usize) -> World {
    let mut rng = seeded_rng(split_seed(seed, 10));
    let all = generate_mnist(&mut rng, train_size + pool_size + test_size);
    let (train, rest) = all.split_at(train_size);
    let (pool, test) = rest.split_at(pool_size);
    World { train, pool, test }
}

/// Generate the Purchase-100-like world (paper: |D| = 1000).
pub fn purchase_world(seed: u64, train_size: usize, pool_size: usize, test_size: usize) -> World {
    let mut rng = seeded_rng(split_seed(seed, 20));
    let all = generate_purchase(&mut rng, train_size + pool_size + test_size);
    let (train, rest) = all.split_at(train_size);
    let (pool, test) = rest.split_at(pool_size);
    World { train, pool, test }
}

/// Which reference dataset an experiment runs on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Synthetic MNIST + CNN + −SSIM.
    Mnist,
    /// Synthetic Purchase-100 + MLP + Hamming.
    Purchase,
}

impl Workload {
    /// Human-readable name.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Mnist => "MNIST",
            Workload::Purchase => "Purchase-100",
        }
    }

    /// Stable machine-readable identifier, used in trial-store headers and
    /// CLI flags.
    pub fn key(self) -> &'static str {
        match self {
            Workload::Mnist => "mnist",
            Workload::Purchase => "purchase",
        }
    }

    /// Inverse of [`Workload::key`] (also accepts the human-readable
    /// names, case-insensitively).
    pub fn from_name(name: &str) -> Option<Workload> {
        match name.to_ascii_lowercase().as_str() {
            "mnist" => Some(Workload::Mnist),
            "purchase" | "purchase-100" => Some(Workload::Purchase),
            _ => None,
        }
    }

    /// The row δ for this workload (Table 1 as printed).
    pub fn delta(self) -> f64 {
        match self {
            Workload::Mnist => MNIST_DELTA,
            Workload::Purchase => PURCHASE_DELTA,
        }
    }

    /// The paper's training-set size.
    pub fn paper_train_size(self) -> usize {
        match self {
            Workload::Mnist => 100,
            Workload::Purchase => 1000,
        }
    }

    /// The reduced default size used when `--full` is not given (single-core
    /// machine; shapes are unaffected, see DESIGN.md); see
    /// [`Args::train_size`].
    pub fn default_train_size(self) -> usize {
        match self {
            Workload::Mnist => 100,
            Workload::Purchase => 200,
        }
    }

    /// Build the world at a given training-set size.
    pub fn world(self, seed: u64, train_size: usize) -> World {
        match self {
            Workload::Mnist => mnist_world(seed, train_size, 400, 200),
            Workload::Purchase => purchase_world(seed, train_size, 400, 200),
        }
    }

    /// Ranked bounded-DP neighbour candidates under this workload's
    /// dissimilarity measure.
    pub fn bounded_ranked(self, world: &World, k: usize, largest: bool) -> Vec<RankedNeighbor> {
        match self {
            Workload::Mnist => bounded_candidates(&world.train, &world.pool, &NegSsim, k, largest),
            Workload::Purchase => {
                bounded_candidates(&world.train, &world.pool, &Hamming, k, largest)
            }
        }
    }

    /// Ranked unbounded-DP neighbour candidates.
    pub fn unbounded_ranked(self, world: &World, k: usize, largest: bool) -> Vec<RankedNeighbor> {
        match self {
            Workload::Mnist => unbounded_candidates(&world.train, &NegSsim, k, largest),
            Workload::Purchase => unbounded_candidates(&world.train, &Hamming, k, largest),
        }
    }

    /// The DS-maximising pair for a neighbouring mode (the default pair all
    /// identifiability experiments use).
    pub fn max_pair(self, world: &World, mode: NeighborMode) -> NeighborPair {
        let spec = match mode {
            NeighborMode::Bounded => self.bounded_ranked(world, 1, true).remove(0).spec,
            NeighborMode::Unbounded => self.unbounded_ranked(world, 1, true).remove(0).spec,
        };
        NeighborPair::from_spec(&world.train, &spec)
    }

    /// Build the workload's reference model from a seeded RNG.
    pub fn build_model(self, rng: &mut rand::rngs::StdRng) -> dpaudit_nn::Sequential {
        match self {
            Workload::Mnist => dpaudit_nn::mnist_cnn(rng),
            Workload::Purchase => dpaudit_nn::purchase_mlp(rng),
        }
    }

    /// The workload's dissimilarity measure, boxed for generic callers.
    pub fn measure(self) -> Box<dyn Dissimilarity + Send + Sync> {
        match self {
            Workload::Mnist => Box::new(NegSsim),
            Workload::Purchase => Box::new(Hamming),
        }
    }
}

/// Execution options for [`run_batch_engine`].
#[derive(Debug, Clone)]
pub struct EngineOpts {
    /// Worker threads (0 = machine parallelism).
    pub threads: usize,
    /// Intra-trial clip-loop worker threads (1 = sequential, 0 = machine
    /// parallelism).
    pub batch_threads: usize,
    /// When set, batches persist to `<dir>/<label>.jsonl` trial stores; an
    /// existing store with a matching header is resumed instead of re-run.
    pub store_dir: Option<std::path::PathBuf>,
}

/// One engine-backed batch: everything `dpaudit-runtime` needs to execute
/// it now and to rebuild it from the store header on a later resume.
pub struct EngineBatch<'a> {
    /// Which workload's model builder (and, on resume, world) to use.
    pub workload: Workload,
    /// The neighbouring pair under challenge.
    pub pair: &'a NeighborPair,
    /// Trial settings (DPSGD config + challenge protocol).
    pub settings: &'a dpaudit_core::TrialSettings,
    /// Optional held-out test set for accuracy tracking.
    pub test_set: Option<&'a Dataset>,
    /// Number of trials.
    pub reps: usize,
    /// Master seed (trial `i` uses `trial_seed(master_seed, i)`).
    pub master_seed: u64,
    /// Seed the workload world was built from (header metadata for resume).
    pub world_seed: u64,
    /// Training-set size the world was built with (header metadata).
    pub train_size: usize,
    /// The parameter row being audited (supplies ε, δ, ρ_β).
    pub row: ParamRow,
    /// Store/file label, e.g. `"table2_mnist_ls_bounded"`.
    pub label: String,
}

/// Run a batch on the `dpaudit-runtime` engine. Returns the engine's
/// [`AuditReport`] and the trials reassembled as a
/// [`dpaudit_core::DiBatchResult`] in trial-index order.
///
/// Every trial batch of the reproduction binaries runs here. Trial `i` uses
/// `trial_seed(master_seed, i)`, so the result equals the sequential
/// [`dpaudit_core::run_di_trials`] trial for trial, per-step series
/// included (records are kept at [`dpaudit_core::RecordDetail::Full`]).
/// With a `store_dir`, a batch interrupted mid-run picks up from the
/// completed trials on the next invocation, and a finished store is
/// replayed without re-training. The store header does not name the
/// neighbour pair or the test set, so each batch of a binary needs its own
/// label.
///
/// # Panics
/// Panics on store I/O failures (these binaries fail fast) or invalid
/// settings.
pub fn run_batch_engine(
    batch: &EngineBatch<'_>,
    opts: &EngineOpts,
) -> (AuditReport, dpaudit_core::DiBatchResult) {
    use dpaudit_runtime::{AuditSession, Parallelism, Seed, StoreHeader, SCHEMA_VERSION};

    let header = StoreHeader {
        schema_version: SCHEMA_VERSION,
        label: batch.label.clone(),
        workload: batch.workload.key().to_string(),
        train_size: batch.train_size,
        world_seed: Seed(batch.world_seed),
        reps: batch.reps,
        master_seed: Seed(batch.master_seed),
        target_epsilon: batch.row.epsilon,
        delta: batch.row.delta,
        rho_beta_bound: batch.row.rho_beta,
        detail: dpaudit_core::RecordDetail::Full,
        settings: batch.settings.clone(),
    };

    let mut session = match &opts.store_dir {
        None => AuditSession::in_memory(header),
        Some(dir) => {
            std::fs::create_dir_all(dir).expect("create --store-dir");
            let path = dir.join(format!("{}.jsonl", sanitize_label(&batch.label)));
            match AuditSession::resume(&path) {
                Ok(resumed) if *resumed.header() == header => {
                    let done = batch.reps - resumed.missing_indices().len();
                    if done > 0 {
                        eprintln!(
                            "  [{}] resuming store {}: {done}/{} trials present",
                            batch.label,
                            path.display(),
                            batch.reps
                        );
                    }
                    resumed
                }
                // Missing, incompatible, or corrupt beyond the torn tail:
                // start the store over.
                _ => AuditSession::create(&path, header).expect("create trial store"),
            }
        }
    };

    let total = session.missing_indices().len();
    let workload = batch.workload;
    let mut records = Vec::with_capacity(batch.reps);
    let outcome = session
        .run(
            batch.pair,
            batch.test_set,
            |rng| workload.build_model(rng),
            Parallelism {
                trial_threads: opts.threads,
                batch_threads: opts.batch_threads,
            },
            |p| {
                // One throughput line per batch; per-trial progress is the
                // CLI's job (`dpaudit audit run`).
                if p.completed == total {
                    eprintln!("  [{}] {}", batch.label, p.render());
                }
            },
            Some(&mut records),
        )
        .expect("trial store append failed");
    let trials = records.into_iter().map(|r| r.trial).collect();
    (outcome.report, dpaudit_core::DiBatchResult { trials })
}

fn sanitize_label(label: &str) -> String {
    label
        .chars()
        .map(|c| {
            if c.is_ascii_alphanumeric() || c == '-' || c == '_' || c == '.' {
                c.to_ascii_lowercase()
            } else {
                '_'
            }
        })
        .collect()
}

/// The four experimental arms of Figures 5–7 / Table 2:
/// {local, global} sensitivity scaling × {bounded, unbounded} DP.
pub const ARMS: [(dpaudit_dpsgd::SensitivityScaling, NeighborMode); 4] = [
    (
        dpaudit_dpsgd::SensitivityScaling::Local,
        NeighborMode::Bounded,
    ),
    (
        dpaudit_dpsgd::SensitivityScaling::Local,
        NeighborMode::Unbounded,
    ),
    (
        dpaudit_dpsgd::SensitivityScaling::Global,
        NeighborMode::Bounded,
    ),
    (
        dpaudit_dpsgd::SensitivityScaling::Global,
        NeighborMode::Unbounded,
    ),
];

/// Assemble the [`dpaudit_core::TrialSettings`] for one arm at a Table-1 row.
pub fn arm_settings(
    row: &ParamRow,
    steps: usize,
    scaling: dpaudit_dpsgd::SensitivityScaling,
    mode: NeighborMode,
    challenge: dpaudit_core::ChallengeMode,
) -> dpaudit_core::TrialSettings {
    // The noise multiplier is re-derived at the requested step count so that
    // `--steps` overrides stay correctly calibrated.
    let z = calibrate_noise_multiplier_closed_form(row.epsilon, row.delta, steps);
    dpaudit_core::TrialSettings::builder()
        .clip_norm(CLIP_NORM)
        .learning_rate(LEARNING_RATE)
        .steps(steps)
        .mode(mode)
        .noise_multiplier(z)
        .scaling(scaling)
        .challenge(challenge)
        .build()
        .expect("valid trial settings")
}

/// One cell of the §6.4 auditing grid: a target ε, a sensitivity-scaling
/// arm, and the three empirical ε′ estimates.
#[derive(Debug, Clone, serde::Serialize)]
pub struct AuditCell {
    /// The row's ρ_β target.
    pub rho_beta: f64,
    /// The target (claimed) ε.
    pub target_epsilon: f64,
    /// Which Δf the noise was scaled to.
    pub scaling: String,
    /// ε′ from per-step local sensitivities via RDP (mean over reps).
    pub eps_from_ls: f64,
    /// ε′ from the maximum observed belief.
    pub eps_from_belief: f64,
    /// ε′ from the empirical advantage.
    pub eps_from_advantage: f64,
    /// The empirical advantage itself.
    pub advantage: f64,
    /// The maximum observed final belief.
    pub max_belief: f64,
}

/// Run the §6.4 auditing grid: for each Table-1 ε target and each scaling
/// arm (bounded DP, as in the paper), run `reps` challenge trials on a
/// world of `train_size` records and audit.
pub fn run_audit_grid(
    workload: Workload,
    train_size: usize,
    reps: usize,
    steps: usize,
    seed: u64,
    opts: &EngineOpts,
) -> Vec<AuditCell> {
    let world = workload.world(seed, train_size);
    let pair = workload.max_pair(&world, NeighborMode::Bounded);
    let rho_betas = match workload {
        Workload::Mnist => MNIST_RHO_BETAS,
        Workload::Purchase => PURCHASE_RHO_BETAS,
    };
    let mut cells = Vec::new();
    for (ei, &rb) in rho_betas.iter().enumerate() {
        let row = param_row(rb, workload.delta());
        for (si, scaling) in [
            dpaudit_dpsgd::SensitivityScaling::Local,
            dpaudit_dpsgd::SensitivityScaling::Global,
        ]
        .into_iter()
        .enumerate()
        {
            let settings = arm_settings(
                &row,
                steps,
                scaling,
                NeighborMode::Bounded,
                dpaudit_core::ChallengeMode::RandomBit,
            );
            let (report, _) = run_batch_engine(
                &EngineBatch {
                    workload,
                    pair: &pair,
                    settings: &settings,
                    test_set: None,
                    reps,
                    master_seed: split_seed(seed, 301 + (ei * 2 + si) as u64),
                    world_seed: seed,
                    train_size,
                    row,
                    label: format!("grid_{}_{rb}_{scaling}", workload.key()),
                },
                opts,
            );
            cells.push(AuditCell {
                rho_beta: rb,
                target_epsilon: row.epsilon,
                scaling: scaling.to_string(),
                eps_from_ls: report.eps_from_ls,
                eps_from_belief: report.eps_from_belief,
                eps_from_advantage: report.eps_from_advantage,
                advantage: report.advantage,
                max_belief: report.max_belief,
            });
        }
    }
    cells
}

/// Print an auditing grid as a table with one ε′ column selected by `pick`,
/// followed by a shape chart (target ε on x, ε′ on y, identity line `-`).
pub fn print_audit_grid(
    title: &str,
    cells: &[AuditCell],
    column: &str,
    pick: impl Fn(&AuditCell) -> f64,
) {
    println!("{title}\n");
    let rows: Vec<Vec<String>> = cells
        .iter()
        .map(|c| {
            vec![
                format!("{:.2}", c.rho_beta),
                fmt_sig(c.target_epsilon),
                c.scaling.clone(),
                fmt_sig(pick(c)),
            ]
        })
        .collect();
    print_table(&["rho_beta", "target eps", "Delta f", column], &rows);

    let take = |scaling: &str| -> (Vec<f64>, Vec<f64>) {
        cells
            .iter()
            .filter(|c| c.scaling == scaling)
            .map(|c| (c.target_epsilon, pick(c).min(c.target_epsilon * 2.0)))
            .unzip()
    };
    let (x_ls, y_ls) = take("LS");
    let (x_gs, y_gs) = take("GS");
    if !x_ls.is_empty() && !x_gs.is_empty() && y_ls.iter().chain(&y_gs).all(|v| v.is_finite()) {
        let ident = x_ls.clone();
        println!(
            "\n{}",
            chart::line_chart(
                &[
                    chart::Series {
                        label: "target eps (identity)",
                        glyph: '-',
                        xs: &x_ls,
                        ys: &ident
                    },
                    chart::Series {
                        label: "eps' with Delta f = LS",
                        glyph: 'L',
                        xs: &x_ls,
                        ys: &y_ls
                    },
                    chart::Series {
                        label: "eps' with Delta f = GS",
                        glyph: 'G',
                        xs: &x_gs,
                        ys: &y_gs
                    },
                ],
                64,
                18,
            )
        );
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn param_rows_reproduce_table1() {
        let r = param_row(0.90, MNIST_DELTA);
        assert!((r.epsilon - 2.197).abs() < 1e-2);
        assert!((r.rho_alpha - 0.23).abs() < 0.01);
        let p = param_row(0.53, PURCHASE_DELTA);
        assert!((p.epsilon - 0.12).abs() < 1e-2);
        assert!((p.rho_alpha - 0.015).abs() < 0.005);
    }

    #[test]
    fn worlds_are_disjoint_and_sized() {
        let w = mnist_world(1, 20, 30, 10);
        assert_eq!(w.train.len(), 20);
        assert_eq!(w.pool.len(), 30);
        assert_eq!(w.test.len(), 10);
    }

    #[test]
    fn max_pair_bounded_has_replacement() {
        let w = Workload::Purchase.world(3, 20);
        let pair = Workload::Purchase.max_pair(&w, NeighborMode::Bounded);
        assert!(pair.x2.is_some());
        assert_eq!(pair.sizes(), (20, 20));
    }

    #[test]
    fn engine_runner_equals_the_sequential_reference_trial_for_trial() {
        let world = purchase_world(5, 8, 10, 0);
        let pair = Workload::Purchase.max_pair(&world, NeighborMode::Bounded);
        let row = param_row(0.9, PURCHASE_DELTA);
        let settings = arm_settings(
            &row,
            2,
            dpaudit_dpsgd::SensitivityScaling::Local,
            NeighborMode::Bounded,
            dpaudit_core::ChallengeMode::RandomBit,
        );
        let (reps, master_seed) = (3, 17);
        let batch = EngineBatch {
            workload: Workload::Purchase,
            pair: &pair,
            settings: &settings,
            test_set: None,
            reps,
            master_seed,
            world_seed: 5,
            train_size: 8,
            row,
            label: "runner_reference".into(),
        };
        let opts = EngineOpts {
            threads: 2,
            batch_threads: 1,
            store_dir: None,
        };
        let (_, engine) = run_batch_engine(&batch, &opts);
        let reference = dpaudit_core::run_di_trials(
            &pair,
            &settings,
            None,
            |rng| Workload::Purchase.build_model(rng),
            reps,
            master_seed,
        );
        // Per-step series included: the figures read them.
        assert!(engine
            .trials
            .iter()
            .all(|t| t.local_sensitivities.len() == 2));
        assert_eq!(engine.trials, reference.trials);
    }

    #[test]
    fn engine_store_round_trips_the_batch() {
        let world = purchase_world(6, 8, 10, 0);
        let pair = Workload::Purchase.max_pair(&world, NeighborMode::Unbounded);
        let row = param_row(0.75, PURCHASE_DELTA);
        let settings = arm_settings(
            &row,
            2,
            dpaudit_dpsgd::SensitivityScaling::Global,
            NeighborMode::Unbounded,
            dpaudit_core::ChallengeMode::RandomBit,
        );
        let reps = 3;
        let batch = EngineBatch {
            workload: Workload::Purchase,
            pair: &pair,
            settings: &settings,
            test_set: None,
            reps,
            master_seed: 23,
            world_seed: 6,
            train_size: 8,
            row,
            label: "round_trip".into(),
        };
        let dir = std::env::temp_dir().join(format!("dpaudit-bench-store-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = EngineOpts {
            threads: 2,
            batch_threads: 1,
            store_dir: Some(dir.clone()),
        };
        let (first_report, first) = run_batch_engine(&batch, &opts);
        let (replayed_report, replayed) = run_batch_engine(&batch, &opts);
        assert_eq!(first.trials, replayed.trials);
        assert_eq!(
            serde_json::to_string(&first_report).unwrap(),
            serde_json::to_string(&replayed_report).unwrap()
        );
        let store = std::fs::read_to_string(dir.join("round_trip.jsonl")).unwrap();
        assert_eq!(
            store.lines().count(),
            1 + reps,
            "header plus one line per trial"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn engine_store_replays_a_repeated_line_once() {
        let world = purchase_world(7, 8, 10, 0);
        let pair = Workload::Purchase.max_pair(&world, NeighborMode::Bounded);
        let row = param_row(0.9, PURCHASE_DELTA);
        let settings = arm_settings(
            &row,
            2,
            dpaudit_dpsgd::SensitivityScaling::Local,
            NeighborMode::Bounded,
            dpaudit_core::ChallengeMode::RandomBit,
        );
        let reps = 3;
        let batch = EngineBatch {
            workload: Workload::Purchase,
            pair: &pair,
            settings: &settings,
            test_set: None,
            reps,
            master_seed: 29,
            world_seed: 7,
            train_size: 8,
            row,
            label: "repeated".into(),
        };
        let dir =
            std::env::temp_dir().join(format!("dpaudit-bench-repeated-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let opts = EngineOpts {
            threads: 1,
            batch_threads: 1,
            store_dir: Some(dir.clone()),
        };
        let (first_report, first) = run_batch_engine(&batch, &opts);
        // Repeat one record line, as a re-appended trial would.
        let path = dir.join("repeated.jsonl");
        let text = std::fs::read_to_string(&path).unwrap();
        let repeated = text.lines().nth(1).unwrap();
        std::fs::write(&path, format!("{text}{repeated}\n")).unwrap();
        let (replayed_report, replayed) = run_batch_engine(&batch, &opts);
        assert_eq!(replayed.trials.len(), reps);
        assert_eq!(first.trials, replayed.trials);
        assert_eq!(
            serde_json::to_string(&first_report).unwrap(),
            serde_json::to_string(&replayed_report).unwrap()
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn max_pair_unbounded_removes_one() {
        let w = Workload::Purchase.world(4, 20);
        let pair = Workload::Purchase.max_pair(&w, NeighborMode::Unbounded);
        assert!(pair.x2.is_none());
        assert_eq!(pair.sizes(), (20, 19));
    }
}
