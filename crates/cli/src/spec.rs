//! The single source of truth for the `dpaudit` command surface.
//!
//! Every subcommand and flag is declared once in [`COMMANDS`]; the parser
//! ([`crate::opts`]) validates flags against it (with did-you-mean
//! suggestions), `--help` output is rendered from it, and a unit test keeps
//! the README's command reference in sync with [`render_markdown`].

use std::fmt::Write as _;

/// One `--flag` a command accepts.
#[derive(Debug, Clone, Copy)]
pub struct FlagSpec {
    /// Flag name without the leading `--`.
    pub name: &'static str,
    /// Value placeholder (`Some("FILE")` → `--flag FILE`); `None` means the
    /// flag is bare (takes no value).
    pub value: Option<&'static str>,
    /// Whether the command refuses to run without it.
    pub required: bool,
    /// One-line description for `--help` and the README.
    pub help: &'static str,
}

const fn req(name: &'static str, value: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value: Some(value),
        required: true,
        help,
    }
}

const fn opt(name: &'static str, value: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value: Some(value),
        required: false,
        help,
    }
}

const fn bare(name: &'static str, help: &'static str) -> FlagSpec {
    FlagSpec {
        name,
        value: None,
        required: false,
        help,
    }
}

/// One `dpaudit <command> [sub-action]` entry.
#[derive(Debug, Clone, Copy)]
pub struct CommandSpec {
    /// First positional argument.
    pub command: &'static str,
    /// Second positional argument, for commands with sub-actions.
    pub subaction: Option<&'static str>,
    /// One-line description.
    pub summary: &'static str,
    /// Accepted flags.
    pub flags: &'static [FlagSpec],
}

/// Every command the binary understands, in `help` display order.
pub const COMMANDS: &[CommandSpec] = &[
    CommandSpec {
        command: "scores",
        subaction: None,
        summary: "translate between epsilon, rho_beta (max posterior belief) and \
                  rho_alpha (expected membership advantage); give exactly one of \
                  --eps / --rho-beta / --rho-alpha",
        flags: &[
            opt("eps", "E", "privacy budget epsilon (> 0)"),
            opt("rho-beta", "B", "max posterior belief target in (0.5, 1)"),
            opt("rho-alpha", "A", "expected advantage target in (0, 1)"),
            req("delta", "D", "failure probability delta in (0, 1)"),
            opt("steps", "K", "composition length for the z column [30]"),
        ],
    },
    CommandSpec {
        command: "calibrate",
        subaction: None,
        summary: "per-step Gaussian noise for a k-step budget (RDP closed form by \
                  default; --classic = Dwork-Roth Eq. 1 per step, --analytic = \
                  Balle-Wang exact single-release sigma)",
        flags: &[
            req("eps", "E", "privacy budget epsilon (> 0)"),
            req("delta", "D", "failure probability delta in (0, 1)"),
            opt("steps", "K", "number of composed steps [30]"),
            opt("sensitivity", "S", "query sensitivity [1]"),
            bare("classic", "classic per-step calibration (Dwork-Roth Eq. 1)"),
            bare(
                "analytic",
                "exact single-release sigma (Balle-Wang); needs --steps 1",
            ),
        ],
    },
    CommandSpec {
        command: "compose",
        subaction: None,
        summary: "query the RDP accountant (optionally Poisson-subsampled)",
        flags: &[
            req("noise-multiplier", "Z", "per-step noise multiplier (> 0)"),
            opt("steps", "K", "number of composed steps [1]"),
            req("delta", "D", "failure probability delta in (0, 1)"),
            opt("sampling-rate", "Q", "Poisson sampling rate in (0, 1]"),
        ],
    },
    CommandSpec {
        command: "audit",
        subaction: None,
        summary: "compute the empirical epsilon estimators for a saved transcript",
        flags: &[
            req(
                "transcript",
                "FILE",
                "DPSGD transcript JSON written by `demo --out`",
            ),
            req("delta", "D", "failure probability delta in (0, 1)"),
        ],
    },
    CommandSpec {
        command: "audit",
        subaction: Some("run"),
        summary: "run a durable, parallel, resumable Exp^DI audit into a trial store",
        flags: &[
            req("workload", "NAME", "workload to audit (mnist | purchase)"),
            req("out", "FILE", "trial store to create"),
            opt("reps", "N", "number of challenge trials [25]"),
            opt("steps", "K", "DPSGD steps per trial [30]"),
            opt("rho-beta", "B", "identifiability target in (0.5, 1) [0.90]"),
            opt(
                "scaling",
                "S",
                "noise scaling: ls (local) | gs (global) [ls]",
            ),
            opt(
                "mode",
                "M",
                "neighbour relation: bounded | unbounded [bounded]",
            ),
            opt(
                "challenge",
                "C",
                "challenge bits: random | always-d [random]",
            ),
            opt(
                "adversary",
                "A",
                "DI adversary: gaussian (Bayes belief) | glrt | mi (loss threshold) [gaussian]",
            ),
            opt(
                "sampling-q",
                "Q",
                "Poisson mini-batch sampling rate in (0, 1) [full-batch]",
            ),
            opt(
                "detail",
                "D",
                "stored record detail: summary | full [summary]",
            ),
            opt(
                "compute",
                "P",
                "gradient storage precision: f64 (bit-reproducible) | f32 (fast) [f64]",
            ),
            opt("seed", "S", "master seed [42]"),
            opt(
                "threads",
                "N",
                "worker threads (0 = machine parallelism) [0]",
            ),
            opt(
                "batch-threads",
                "N",
                "clip-loop threads inside each trial; never changes results [1]",
            ),
            opt("train-size", "N", "training-set size [workload default]"),
            opt("label", "L", "free-form store label"),
            opt(
                "metrics",
                "FILE",
                "write a deterministic metrics snapshot (JSON)",
            ),
            opt(
                "trace",
                "FILE",
                "write an append-only obs event trace (JSONL)",
            ),
            opt(
                "serve-metrics",
                "ADDR",
                "serve a live Prometheus exposition at ADDR (e.g. 127.0.0.1:9898)",
            ),
            opt(
                "serve-linger",
                "SECS",
                "after the run, keep serving until one scrape or SECS elapse [0]",
            ),
            bare("fresh", "overwrite an existing store instead of refusing"),
        ],
    },
    CommandSpec {
        command: "audit",
        subaction: Some("resume"),
        summary: "finish the missing trials of an interrupted store bit-identically",
        flags: &[
            req("store", "FILE", "trial store to resume"),
            opt(
                "threads",
                "N",
                "worker threads (0 = machine parallelism) [0]",
            ),
            opt(
                "batch-threads",
                "N",
                "clip-loop threads inside each trial; never changes results [1]",
            ),
            opt(
                "metrics",
                "FILE",
                "write a deterministic metrics snapshot (JSON)",
            ),
            opt(
                "trace",
                "FILE",
                "write an append-only obs event trace (JSONL)",
            ),
            opt(
                "serve-metrics",
                "ADDR",
                "serve a live Prometheus exposition at ADDR (e.g. 127.0.0.1:9898)",
            ),
            opt(
                "serve-linger",
                "SECS",
                "after the run, keep serving until one scrape or SECS elapse [0]",
            ),
        ],
    },
    CommandSpec {
        command: "audit",
        subaction: Some("report"),
        summary: "recompute the audit report from a store without executing trials",
        flags: &[req("store", "FILE", "trial store to replay")],
    },
    CommandSpec {
        command: "fabric",
        subaction: Some("serve"),
        summary: "run the audit-fabric coordinator: enqueue a job built from the \
                  same workload flags as `audit run`, lease trial ranges to \
                  workers (TTL + reclaim on timeout), ingest shards idempotently, \
                  and render the final report from the coordinator store",
        flags: &[
            req(
                "addr",
                "ADDR",
                "listen address (e.g. 127.0.0.1:7878; 0 picks a port)",
            ),
            req(
                "store-dir",
                "DIR",
                "directory for per-job coordinator trial stores (an existing \
                 store for the same flags is resumed)",
            ),
            req("workload", "NAME", "workload to audit (mnist | purchase)"),
            opt("job", "ID", "job id [the store label]"),
            opt("reps", "N", "number of challenge trials [25]"),
            opt("steps", "K", "DPSGD steps per trial [30]"),
            opt("rho-beta", "B", "identifiability target in (0.5, 1) [0.90]"),
            opt(
                "scaling",
                "S",
                "noise scaling: ls (local) | gs (global) [ls]",
            ),
            opt(
                "mode",
                "M",
                "neighbour relation: bounded | unbounded [bounded]",
            ),
            opt(
                "challenge",
                "C",
                "challenge bits: random | always-d [random]",
            ),
            opt(
                "adversary",
                "A",
                "DI adversary: gaussian (Bayes belief) | glrt | mi (loss threshold) [gaussian]",
            ),
            opt(
                "sampling-q",
                "Q",
                "Poisson mini-batch sampling rate in (0, 1) [full-batch]",
            ),
            opt(
                "detail",
                "D",
                "stored record detail: summary | full [summary]",
            ),
            opt(
                "compute",
                "P",
                "gradient storage precision: f64 (bit-reproducible) | f32 (fast) [f64]",
            ),
            opt("seed", "S", "master seed [42]"),
            opt("train-size", "N", "training-set size [workload default]"),
            opt("label", "L", "free-form store label"),
            opt("lease-trials", "N", "trial indices granted per lease [8]"),
            opt(
                "lease-ttl-ms",
                "MS",
                "lease time-to-live before reclaim [30000]",
            ),
            bare(
                "exit-when-done",
                "stop serving once every queued job is complete",
            ),
        ],
    },
    CommandSpec {
        command: "fabric",
        subaction: Some("work"),
        summary: "run an audit-fabric worker: claim trial-range leases, execute \
                  them on the engine, append a local shard store, and stream \
                  records back idempotently (SIGTERM drains gracefully)",
        flags: &[
            req("coordinator", "ADDR", "coordinator address (host:port)"),
            req("shard-dir", "DIR", "directory for local shard stores"),
            opt("worker-id", "ID", "worker identity [worker-<pid>]"),
            opt(
                "job",
                "ID",
                "work only this job [any job with pending work]",
            ),
            opt("max-trials", "N", "trial indices to request per lease [8]"),
            opt("poll-ms", "MS", "sleep between polls while waiting [200]"),
            opt(
                "threads",
                "N",
                "worker threads (0 = machine parallelism) [0]",
            ),
            opt(
                "batch-threads",
                "N",
                "clip-loop threads inside each trial; never changes results [1]",
            ),
            opt(
                "retries",
                "N",
                "attempts per request (jittered backoff) [5]",
            ),
            opt(
                "trace-dir",
                "DIR",
                "write a correlation-stamped obs trace (JSONL) per worker into DIR",
            ),
        ],
    },
    CommandSpec {
        command: "fabric",
        subaction: Some("status"),
        summary: "query a coordinator's job queue, lease counters and progress",
        flags: &[req(
            "coordinator",
            "ADDR",
            "coordinator address (host:port)",
        )],
    },
    CommandSpec {
        command: "fabric",
        subaction: Some("watch"),
        summary: "live fleet dashboard over the coordinator's /fleet endpoint: \
                  per-worker throughput sparklines, lease ages, straggler flags, \
                  lease-reclaim alerts, and fleet eps' vs the target budget",
        flags: &[
            req("coordinator", "ADDR", "coordinator address (host:port)"),
            opt(
                "interval-ms",
                "MS",
                "refresh interval in milliseconds [1000]",
            ),
            opt(
                "max-ticks",
                "N",
                "stop after N refreshes (0 = until every job completes) [0]",
            ),
        ],
    },
    CommandSpec {
        command: "fabric",
        subaction: Some("merge"),
        summary: "merge worker shard stores into one deterministic report \
                  (bit-identical to a single-node run over the same header)",
        flags: &[
            req(
                "shards",
                "A,B,...",
                "comma-separated shard store paths to merge",
            ),
            opt("out", "FILE", "also write the merged records as one store"),
        ],
    },
    CommandSpec {
        command: "metrics",
        subaction: Some("report"),
        summary: "render counters, histograms, per-stage timings and throughput \
                  from --metrics / --trace files (give at least one)",
        flags: &[
            opt(
                "metrics",
                "FILE",
                "metrics snapshot written by `audit run --metrics`",
            ),
            opt(
                "trace",
                "FILE",
                "event trace written by `audit run --trace`",
            ),
        ],
    },
    CommandSpec {
        command: "trace",
        subaction: Some("export"),
        summary: "convert an obs event trace into Chrome/Perfetto trace-event JSON \
                  (chrome://tracing, ui.perfetto.dev)",
        flags: &[
            req(
                "trace",
                "FILE",
                "event trace written by `audit run --trace`",
            ),
            opt("out", "FILE", "output file [stdout]"),
        ],
    },
    CommandSpec {
        command: "trace",
        subaction: Some("merge"),
        summary: "zip per-worker obs traces into one cross-node Chrome/Perfetto \
                  export with a process track per worker (deterministic bytes \
                  for a fixed input set, whatever the file order)",
        flags: &[
            req(
                "traces",
                "A,B,...",
                "comma-separated trace files (e.g. from `fabric work --trace-dir`)",
            ),
            opt("out", "FILE", "output file [stdout]"),
        ],
    },
    CommandSpec {
        command: "watch",
        subaction: None,
        summary: "live terminal dashboard for a running audit: progress, \
                  throughput, ETA, eps' vs eps sparkline, belief histogram, \
                  and an alert when empirical eps' crosses the target",
        flags: &[
            req("store", "FILE", "trial store to tail"),
            opt(
                "trace",
                "FILE",
                "obs event trace to fold in (ledger steps, stage timings)",
            ),
            opt(
                "interval-ms",
                "MS",
                "refresh interval in milliseconds [500]",
            ),
            opt(
                "max-ticks",
                "N",
                "stop after N refreshes (0 = until the store completes) [0]",
            ),
            opt(
                "alert-eps",
                "E",
                "print an alert when eps' crosses E [store target eps]",
            ),
        ],
    },
    CommandSpec {
        command: "demo",
        subaction: None,
        summary: "run a small DI experiment end-to-end and print the audit report",
        flags: &[
            opt(
                "workload",
                "NAME",
                "workload to run (purchase | mnist) [purchase]",
            ),
            opt("reps", "N", "number of challenge trials [10]"),
            opt("steps", "K", "DPSGD steps per trial [10]"),
            opt("seed", "S", "master seed [42]"),
            opt(
                "out",
                "FILE",
                "save one representative transcript for `audit`",
            ),
        ],
    },
    CommandSpec {
        command: "help",
        subaction: None,
        summary: "print this usage summary",
        flags: &[],
    },
];

/// Look up the spec for a parsed `(command, subaction)` pair.
pub fn find(command: &str, subaction: Option<&str>) -> Option<&'static CommandSpec> {
    COMMANDS
        .iter()
        .find(|c| c.command == command && c.subaction == subaction)
}

/// All flag names any command accepts (used when the command itself is
/// unknown and per-command validation is impossible).
pub fn all_flag_names() -> impl Iterator<Item = &'static str> {
    COMMANDS.iter().flat_map(|c| c.flags.iter().map(|f| f.name))
}

/// The bare (valueless) flags of `spec`, or of every command when the
/// command is unknown.
pub fn is_bare_flag(spec: Option<&CommandSpec>, name: &str) -> bool {
    match spec {
        Some(spec) => spec
            .flags
            .iter()
            .any(|f| f.name == name && f.value.is_none()),
        None => COMMANDS
            .iter()
            .flat_map(|c| c.flags)
            .any(|f| f.name == name && f.value.is_none()),
    }
}

/// Levenshtein edit distance (small inputs only — flag names).
fn edit_distance(a: &str, b: &str) -> usize {
    let a: Vec<char> = a.chars().collect();
    let b: Vec<char> = b.chars().collect();
    let mut row: Vec<usize> = (0..=b.len()).collect();
    for (i, &ca) in a.iter().enumerate() {
        let mut prev = row[0];
        row[0] = i + 1;
        for (j, &cb) in b.iter().enumerate() {
            let cost = if ca == cb { prev } else { prev + 1 };
            prev = row[j + 1];
            row[j + 1] = cost.min(row[j] + 1).min(prev + 1);
        }
    }
    row[b.len()]
}

/// The closest candidate within edit distance 2 of `name`, for
/// did-you-mean suggestions.
pub fn suggest<'a>(name: &str, candidates: impl Iterator<Item = &'a str>) -> Option<&'a str> {
    candidates
        .map(|c| (edit_distance(name, c), c))
        .filter(|(d, _)| *d <= 2)
        .min_by_key(|(d, _)| *d)
        .map(|(_, c)| c)
}

/// `dpaudit audit run --workload NAME --out FILE [--reps N] ...` — the
/// one-line usage synopsis for a command.
pub fn usage_line(spec: &CommandSpec) -> String {
    let mut line = String::from("dpaudit ");
    line.push_str(spec.command);
    if let Some(sub) = spec.subaction {
        line.push(' ');
        line.push_str(sub);
    }
    for flag in spec.flags {
        line.push(' ');
        let inner = match flag.value {
            Some(value) => format!("--{} {value}", flag.name),
            None => format!("--{}", flag.name),
        };
        if flag.required {
            line.push_str(&inner);
        } else {
            let _ = write!(line, "[{inner}]");
        }
    }
    line
}

/// Per-command `--help` text: synopsis, summary, and a flag table.
pub fn render_help(spec: &CommandSpec) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "USAGE:\n  {}", usage_line(spec));
    let _ = writeln!(out, "\n{}", spec.summary);
    if !spec.flags.is_empty() {
        let _ = writeln!(out, "\nFLAGS:");
        let width = spec
            .flags
            .iter()
            .map(|f| f.name.len() + f.value.map_or(0, |v| v.len() + 1))
            .max()
            .unwrap_or(0);
        for flag in spec.flags {
            let lhs = match flag.value {
                Some(value) => format!("--{} {value}", flag.name),
                None => format!("--{}", flag.name),
            };
            let _ = writeln!(
                out,
                "  {lhs:<w$}  {}{}",
                flag.help,
                if flag.required { " (required)" } else { "" },
                w = width + 2,
            );
        }
    }
    out
}

/// The top-level usage summary (`dpaudit help` / unknown command).
pub fn render_usage() -> String {
    let mut out = String::from(
        "dpaudit — identifiability-based choice and auditing of epsilon \
         (Bernau et al., VLDB 2021)\n\nUSAGE:\n",
    );
    for spec in COMMANDS {
        let _ = writeln!(out, "  {}", usage_line(spec));
    }
    let _ = writeln!(out);
    for spec in COMMANDS {
        let name = match spec.subaction {
            Some(sub) => format!("{} {sub}", spec.command),
            None => spec.command.to_string(),
        };
        let _ = writeln!(out, "{name:<14} {}", spec.summary);
    }
    let _ = writeln!(
        out,
        "\nRun `dpaudit <command> [sub-action] --help` for per-command flags."
    );
    out
}

/// The README command-reference block; a unit test asserts the README's
/// marked section matches this exactly.
pub fn render_markdown() -> String {
    let mut out = String::new();
    for spec in COMMANDS {
        if spec.command == "help" {
            continue;
        }
        let name = match spec.subaction {
            Some(sub) => format!("{} {sub}", spec.command),
            None => spec.command.to_string(),
        };
        let _ = writeln!(out, "### `dpaudit {name}`\n");
        let _ = writeln!(out, "{}\n", spec.summary);
        let _ = writeln!(out, "```text\n{}\n```\n", usage_line(spec));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_command_resolves_through_find() {
        for spec in COMMANDS {
            let found = find(spec.command, spec.subaction).unwrap();
            assert_eq!(found.summary, spec.summary);
        }
        assert!(find("bogus", None).is_none());
        assert!(find("audit", Some("frobnicate")).is_none());
    }

    #[test]
    fn suggestions_use_edit_distance() {
        assert_eq!(edit_distance("reps", "reps"), 0);
        assert_eq!(edit_distance("rep", "reps"), 1);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        let spec = find("audit", Some("run")).unwrap();
        let names = || spec.flags.iter().map(|f| f.name);
        assert_eq!(suggest("rep", names()), Some("reps"));
        assert_eq!(suggest("thread", names()), Some("threads"));
        assert_eq!(suggest("completely-wrong", names()), None);
    }

    #[test]
    fn usage_marks_required_and_bare_flags() {
        let line = usage_line(find("audit", Some("run")).unwrap());
        assert!(line.contains("--workload NAME"), "{line}");
        assert!(!line.contains("[--workload"), "{line}");
        assert!(line.contains("[--reps N]"), "{line}");
        assert!(line.contains("[--fresh]"), "{line}");
    }

    #[test]
    fn help_renders_flag_table() {
        let help = render_help(find("metrics", Some("report")).unwrap());
        assert!(help.contains("USAGE:"), "{help}");
        assert!(help.contains("--metrics FILE"), "{help}");
        assert!(help.contains("--trace FILE"), "{help}");
    }

    #[test]
    fn readme_command_reference_matches_the_spec_table() {
        let readme_path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../README.md");
        let readme = std::fs::read_to_string(readme_path).expect("README.md readable");
        const BEGIN: &str = "<!-- BEGIN dpaudit-cli-reference";
        const END: &str = "<!-- END dpaudit-cli-reference -->";
        let start = readme.find(BEGIN).expect("README has the BEGIN marker");
        let start = start + readme[start..].find('\n').expect("marker line ends") + 1;
        let end = readme.find(END).expect("README has the END marker");
        let actual = readme[start..end].trim();
        let expected = render_markdown();
        assert_eq!(
            actual,
            expected.trim(),
            "README command reference is stale; replace the marked block with:\n\n{expected}"
        );
    }

    #[test]
    fn top_level_usage_lists_every_command() {
        let usage = render_usage();
        for spec in COMMANDS {
            assert!(usage.contains(spec.command), "missing {}", spec.command);
        }
        assert!(usage.contains("metrics report"));
    }
}
