//! `bench_audit`: the repository's end-to-end benchmark — Exp^DI audit
//! trials per second on four workloads, driven through the public
//! `dpaudit_runtime::AuditSession::run` on durable trial stores, with the
//! outputs checked and a per-layer trace timed from outside the program.
//!
//! One workload per process (a fresh process keeps one workload's heap,
//! peak RSS, process-global clip-loop thread knob and caches out of the
//! next). The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`,
//! holding the end-to-end metrics, or with `--trace 1` the per-layer ones.
//! Without `--workload` every workload runs in a child process of this
//! binary, one after another, and a table is printed instead.

mod compare;
mod compose;
mod layers;
mod reference;
mod run;
mod stats;
mod trace;
mod workloads;

use serde_json::Value;
use stats::median;
use std::path::{Path, PathBuf};
use std::process::{Command, Stdio};
use std::sync::Arc;
use trace::Recorder;
use workloads::{find, nproc, Metric, END_TO_END, PER_LAYER, WORKLOADS};

const USAGE: &str = "usage:
  bench_audit --workload NAME [--seed N] [--seconds N] [--trace 0|1] [--trace-out FILE]
  bench_audit [--seed N] [--seconds N] [--trace 0|1] [--trace-out FILE] [--runs N] [--out FILE]
  bench_audit --compare A.json B.json
  bench_audit --reference THREADS   (times the reference kernel)

--trace-out: one workload's spans as an obs JSONL trace, or every
workload's merged into one Chrome trace.
workloads: mnist_table2 purchase_table2 mnist_poisson_f32 purchase_small";

const DEFAULT_SEED: u64 = 42;
/// Matches `run_seconds` in `BENCHMARK.json`.
const DEFAULT_SECONDS: u64 = 25;

/// Where stores and traces go while a run lasts, inside this package.
const WORK_DIR: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/work");

#[derive(Debug)]
struct Options {
    workload: Option<String>,
    seed: u64,
    seconds: u64,
    trace: bool,
    trace_out: Option<PathBuf>,
    runs: usize,
    out: Option<PathBuf>,
    compare: Option<(PathBuf, PathBuf)>,
    reference: Option<usize>,
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_out: None,
        runs: 1,
        out: None,
        compare: None,
        reference: None,
    };
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or(format!("{flag} needs a value"));
        let number = |v: String| {
            v.parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {v}"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                find(&name).ok_or(format!("unknown workload {name}"))?;
                opts.workload = Some(name);
            }
            "--seed" => opts.seed = number(value()?)?,
            "--seconds" => opts.seconds = number(value()?)?.max(1),
            "--trace" => {
                opts.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--trace-out" => opts.trace_out = Some(value()?.into()),
            "--runs" => opts.runs = number(value()?)?.max(1) as usize,
            "--out" => opts.out = Some(value()?.into()),
            "--compare" => opts.compare = Some((value()?.into(), value()?.into())),
            "--reference" => {
                let threads = number(value()?)?;
                opts.reference = Some(usize::try_from(threads).map_err(|e| e.to_string())?);
            }
            "--help" | "-h" => return Err(String::new()),
            other => return Err(format!("unknown flag {other}")),
        }
    }
    Ok(opts)
}

fn main() {
    let opts = match parse(std::env::args().skip(1)) {
        Ok(opts) => opts,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("bench_audit: {e}");
            }
            eprintln!("{USAGE}");
            std::process::exit(2);
        }
    };
    if let Some(threads) = opts.reference {
        match reference::run(threads) {
            Ok(seconds) => println!("{seconds}"),
            Err(e) => {
                eprintln!("bench_audit: reference kernel: {e}");
                std::process::exit(2);
            }
        }
        return;
    }
    let code = match (&opts.compare, &opts.workload) {
        (Some((a, b)), _) => match compare::compare(a, b) {
            Ok(any_worse) => i32::from(any_worse),
            Err(e) => {
                eprintln!("bench_audit: {e}");
                2
            }
        },
        (None, Some(name)) => run_workload(name, &opts),
        (None, None) => run_all(&opts),
    };
    std::process::exit(code);
}

/// Removes a directory when dropped.
struct Scratch(PathBuf);

impl Drop for Scratch {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Measure one workload in this process and print its result line. Exits
/// 0 when every check passed, 1 when a check failed, 2 on an I/O error.
fn run_workload(name: &str, opts: &Options) -> i32 {
    let spec = find(name).expect("validated while parsing");
    let scratch = Scratch(Path::new(WORK_DIR).join(format!("{name}-{}", std::process::id())));
    let result = std::fs::create_dir_all(&scratch.0).and_then(|()| {
        let recorder = Arc::new(Recorder::new());
        let measured = run::measure(spec, opts.seed, opts.seconds, &scratch.0, &recorder)?;
        let e2e = vec![
            ("trials_per_s", measured.trials_per_s),
            ("cpu_s_per_trial", measured.cpu_s_per_trial),
            ("setup_s", measured.setup_s),
            ("peak_rss_mb", run::peak_rss_mib()?),
        ];
        let mut failed = measured.failed;
        if !opts.trace {
            return Ok((measured.attempted, failed, result_line(&END_TO_END, &e2e)));
        }
        for (name, value) in &e2e {
            eprintln!("[{}] {name} = {value}", spec.name);
        }
        let traced = layers::traced_run(
            spec,
            opts.seed,
            &measured.pair,
            &scratch.0,
            measured.trials_per_s / measured.slowdown,
            &recorder,
        )?;
        failed += traced.mismatches;
        eprintln!("[{}] spans: count, total ms, self ms", spec.name);
        for (span, count, total, own) in trace::summary(&recorder.spans()) {
            eprintln!("  {span:<32} {count:>6} {total:>12.3} {own:>12.3}");
        }
        let out = opts
            .trace_out
            .clone()
            .unwrap_or_else(|| Path::new(WORK_DIR).join(format!("trace-{name}.jsonl")));
        recorder.write_jsonl(&out)?;
        eprintln!("[{}] wrote {}", spec.name, out.display());
        Ok((
            measured.attempted,
            failed,
            result_line(&PER_LAYER, &traced.values),
        ))
    });
    match result {
        Ok((attempted, failed, metrics)) => {
            let correct = failed == 0;
            let line = serde_json::json!({
                "correct": correct,
                "attempted": attempted,
                "failed": failed,
                "metrics": metrics,
            });
            println!("{line}");
            i32::from(!correct)
        }
        Err(e) => {
            eprintln!("bench_audit: {name}: {e}");
            2
        }
    }
}

/// The `metrics` object: every metric of `table`, in table order.
fn result_line(table: &[Metric], values: &[(&str, f64)]) -> Value {
    assert_eq!(table.len(), values.len(), "one value per metric");
    Value::Object(
        table
            .iter()
            .map(|m| {
                let value = values
                    .iter()
                    .find(|(name, _)| *name == m.name)
                    .unwrap_or_else(|| panic!("{} was not measured", m.name))
                    .1;
                (
                    m.name.to_string(),
                    serde_json::json!({ "value": value, "unit": m.unit }),
                )
            })
            .collect(),
    )
}

/// Run every workload `opts.runs` times, each in a child process, print the
/// medians, and optionally record the runs (`--out`) for `--compare`.
fn run_all(opts: &Options) -> i32 {
    match try_run_all(opts) {
        Ok(all_passed) => i32::from(!all_passed),
        Err(e) => {
            eprintln!("bench_audit: {e}");
            2
        }
    }
}

fn try_run_all(opts: &Options) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    std::fs::create_dir_all(WORK_DIR).map_err(|e| e.to_string())?;
    let table = if opts.trace {
        &PER_LAYER[..]
    } else {
        &END_TO_END[..]
    };
    let mut runs = Value::Object(Vec::new());
    let mut tracks = Vec::new();
    let mut all_passed = true;
    for spec in &WORKLOADS {
        let child_trace = Path::new(WORK_DIR).join(format!("trace-{}.jsonl", spec.name));
        let mut results = Vec::new();
        for _ in 0..opts.runs {
            let mut child = Command::new(&exe);
            child
                .args(["--workload", spec.name])
                .args(["--seed", &opts.seed.to_string()])
                .args(["--seconds", &opts.seconds.to_string()])
                .args(["--trace", if opts.trace { "1" } else { "0" }])
                .arg("--trace-out")
                .arg(&child_trace)
                .stderr(Stdio::inherit());
            let output = child.output().map_err(|e| format!("{}: {e}", spec.name))?;
            all_passed &= output.status.success();
            let stdout = String::from_utf8_lossy(&output.stdout);
            let line = stdout
                .lines()
                .last()
                .ok_or(format!("{}: no result ({})", spec.name, output.status))?;
            let result: Value =
                serde_json::from_str(line).map_err(|e| format!("{}: {e}", spec.name))?;
            results.push(result);
        }
        println!(
            "{} ({} run(s), seed {}): {}",
            spec.name, opts.runs, opts.seed, spec.why
        );
        for m in table {
            let values: Vec<f64> = results
                .iter()
                .filter_map(|r| r["metrics"][m.name]["value"].as_f64())
                .collect();
            if !values.is_empty() {
                let better = if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                println!(
                    "  {:<34} {:>14.6} {:<9} {better} is better",
                    m.name,
                    median(&values),
                    m.unit
                );
            }
        }
        if opts.trace {
            let (_, lines) = dpaudit_obs::read_trace_lines(&child_trace)
                .map_err(|e| format!("{}: {e}", child_trace.display()))?;
            tracks.push((spec.name.to_string(), lines));
            std::fs::remove_file(&child_trace).map_err(|e| e.to_string())?;
        }
        runs.insert(spec.name, Value::Array(results));
    }
    if let Some(out) = &opts.out {
        let record = serde_json::json!({
            "seed": opts.seed,
            "nproc": nproc(),
            "seconds": opts.seconds,
            "trace": opts.trace,
            "runs": runs,
        });
        let text = serde_json::to_string_pretty(&record).map_err(|e| e.to_string())?;
        std::fs::write(out, text + "\n").map_err(|e| format!("{}: {e}", out.display()))?;
    }
    if opts.trace {
        let out = opts
            .trace_out
            .clone()
            .unwrap_or_else(|| Path::new(WORK_DIR).join("trace.chrome.json"));
        std::fs::write(&out, dpaudit_obs::chrome_trace_merged(&tracks))
            .map_err(|e| format!("{}: {e}", out.display()))?;
        println!("trace: {}", out.display());
    }
    Ok(all_passed)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Options, String> {
        parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_the_benchmark_command_line() {
        let o = args(&[
            "--workload",
            "purchase_small",
            "--seed",
            "7",
            "--seconds",
            "3",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(o.workload.as_deref(), Some("purchase_small"));
        assert_eq!((o.seed, o.seconds, o.trace), (7, 3, true));
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--trace", "2"]).is_err());
        assert!(args(&["--bogus"]).is_err());
        assert!(args(&["--seed"]).is_err());
        let o = args(&[]).unwrap();
        assert_eq!(
            (o.seed, o.seconds, o.trace, o.runs),
            (DEFAULT_SEED, DEFAULT_SECONDS, false, 1)
        );
    }

    #[test]
    fn result_line_lists_every_metric_in_table_order() {
        let values = [
            ("setup_s", 0.5),
            ("trials_per_s", 2.0),
            ("peak_rss_mb", 30.0),
            ("cpu_s_per_trial", 1.0),
        ];
        let line = result_line(&END_TO_END, &values);
        let names: Vec<&str> = match &line {
            Value::Object(entries) => entries.iter().map(|(k, _)| k.as_str()).collect(),
            _ => panic!("not an object"),
        };
        assert_eq!(
            names,
            ["trials_per_s", "cpu_s_per_trial", "setup_s", "peak_rss_mb"]
        );
        assert_eq!(line["setup_s"]["unit"], Value::String("s".into()));
    }
}
