//! Minimal command-line flags shared by the reproduction binaries.

/// Parsed flags. All binaries accept:
///
/// * `--reps N`  — experiment repetitions (default per binary).
/// * `--full`    — paper-scale repetitions and dataset sizes.
/// * `--seed N`  — master seed (default 42).
/// * `--json`    — additionally emit a JSON blob of the results.
/// * `--steps N` — override the number of training steps (default 30).
/// * `--threads N`   — worker threads for the trial batches (default: all cores).
/// * `--batch-threads N` — clip-loop worker threads inside each trial
///   (default 1 = sequential; 0 = all cores). Cannot change any result.
/// * `--store-dir D` — persist the trial batches as resumable trial stores
///   under directory `D` (see `dpaudit-runtime`).
///
/// The last three are engine flags: they apply to every trial batch, since
/// every batch runs through [`crate::run_batch_engine`]. Rerunning a binary
/// with the same flags finishes or replays its stores. `dpaudit audit
/// resume` can finish a store too, but it rebuilds the DS-maximising pair
/// and uses no test set. So it fits the stores of table2, fig05, fig06,
/// fig08–10 and `debug_probe`. Stores of fig04's other pairs, fig07 and
/// `ablation_clipping` must be finished by their own binary.
#[derive(Debug, Clone)]
pub struct Args {
    /// Repetition count, if given.
    pub reps: Option<usize>,
    /// Paper-scale mode.
    pub full: bool,
    /// Master seed.
    pub seed: u64,
    /// Emit machine-readable JSON after the human-readable tables.
    pub json: bool,
    /// Training-step override.
    pub steps: Option<usize>,
    /// Worker threads for the trial batches (0 = machine parallelism).
    pub threads: usize,
    /// Clip-loop worker threads inside each trial (1 = sequential,
    /// 0 = machine parallelism).
    pub batch_threads: usize,
    /// Directory for durable, resumable trial stores.
    pub store_dir: Option<String>,
}

impl Default for Args {
    fn default() -> Self {
        Self {
            reps: None,
            full: false,
            seed: 42,
            json: false,
            steps: None,
            threads: 0,
            batch_threads: 1,
            store_dir: None,
        }
    }
}

impl Args {
    /// Parse from `std::env::args()`, panicking with a usage message on
    /// unknown flags (these binaries are developer tools; failing fast is
    /// friendlier than guessing).
    pub fn parse() -> Self {
        Self::from_flags(std::env::args().skip(1))
    }

    /// Parse from an explicit iterator (testable).
    pub fn from_flags(args: impl IntoIterator<Item = String>) -> Self {
        let mut out = Self::default();
        let mut it = args.into_iter();
        while let Some(flag) = it.next() {
            match flag.as_str() {
                "--reps" => {
                    let v = it.next().expect("--reps needs a value");
                    out.reps = Some(v.parse().expect("--reps must be an integer"));
                }
                "--seed" => {
                    let v = it.next().expect("--seed needs a value");
                    out.seed = v.parse().expect("--seed must be an integer");
                }
                "--steps" => {
                    let v = it.next().expect("--steps needs a value");
                    out.steps = Some(v.parse().expect("--steps must be an integer"));
                }
                "--threads" => {
                    let v = it.next().expect("--threads needs a value");
                    out.threads = v.parse().expect("--threads must be an integer");
                }
                "--batch-threads" => {
                    let v = it.next().expect("--batch-threads needs a value");
                    out.batch_threads = v.parse().expect("--batch-threads must be an integer");
                }
                "--store-dir" => {
                    out.store_dir = Some(it.next().expect("--store-dir needs a value"));
                }
                "--full" => out.full = true,
                "--json" => out.json = true,
                other => panic!(
                    "unknown flag {other}; supported: --reps N --seed N --steps N --threads N --batch-threads N --store-dir D --full --json"
                ),
            }
        }
        out
    }

    /// Resolve the repetition count: explicit `--reps` wins, then `--full`
    /// (paper scale), then the binary's default.
    pub fn resolve_reps(&self, default: usize, paper: usize) -> usize {
        self.reps.unwrap_or(if self.full { paper } else { default })
    }

    /// The challenger training-set size: the paper's (§6.2) under
    /// `--full`, the workload's reduced default otherwise.
    pub fn train_size(&self, workload: crate::Workload) -> usize {
        if self.full {
            workload.paper_train_size()
        } else {
            workload.default_train_size()
        }
    }

    /// Resolve the step count (default 30, the paper's k).
    pub fn resolve_steps(&self) -> usize {
        self.steps.unwrap_or(crate::STEPS)
    }

    /// The execution-engine options these flags describe.
    pub fn engine_opts(&self) -> crate::EngineOpts {
        crate::EngineOpts {
            threads: self.threads,
            batch_threads: self.batch_threads,
            store_dir: self.store_dir.clone().map(std::path::PathBuf::from),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Workload;

    fn parse(s: &[&str]) -> Args {
        Args::from_flags(s.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults() {
        let a = parse(&[]);
        assert_eq!(a.reps, None);
        assert!(!a.full);
        assert_eq!(a.seed, 42);
        assert!(!a.json);
        assert_eq!(a.resolve_reps(25, 250), 25);
        assert_eq!(a.resolve_steps(), 30);
        assert_eq!(a.train_size(Workload::Purchase), 200);
        assert_eq!(a.train_size(Workload::Mnist), 100);
    }

    #[test]
    fn full_flag_selects_paper_scale() {
        let a = parse(&["--full"]);
        assert_eq!(a.resolve_reps(25, 250), 250);
        assert_eq!(a.train_size(Workload::Purchase), 1000);
        assert_eq!(a.train_size(Workload::Mnist), 100);
    }

    #[test]
    fn explicit_reps_override_full() {
        let a = parse(&["--full", "--reps", "7"]);
        assert_eq!(a.resolve_reps(25, 250), 7);
    }

    #[test]
    fn seed_steps_json() {
        let a = parse(&["--seed", "9", "--steps", "5", "--json"]);
        assert_eq!(a.seed, 9);
        assert_eq!(a.resolve_steps(), 5);
        assert!(a.json);
    }

    #[test]
    #[should_panic(expected = "unknown flag")]
    fn unknown_flag_panics() {
        parse(&["--bogus"]);
    }

    #[test]
    fn threads_and_store_dir_feed_engine_opts() {
        let a = parse(&[
            "--threads",
            "4",
            "--batch-threads",
            "2",
            "--store-dir",
            "results/stores",
        ]);
        assert_eq!(a.threads, 4);
        assert_eq!(a.batch_threads, 2);
        assert_eq!(a.store_dir.as_deref(), Some("results/stores"));
        let opts = a.engine_opts();
        assert_eq!(opts.threads, 4);
        assert_eq!(opts.batch_threads, 2);
        assert_eq!(
            opts.store_dir.as_deref(),
            Some(std::path::Path::new("results/stores"))
        );
        let d = parse(&[]).engine_opts();
        assert_eq!(d.threads, 0);
        assert_eq!(d.batch_threads, 1);
        assert_eq!(d.store_dir, None);
    }
}
