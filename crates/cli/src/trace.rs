//! The `dpaudit trace` sub-actions: convert obs event traces (written by
//! `audit run --trace` / `fabric work --trace-dir`) into the
//! Chrome/Perfetto trace-event format, so a DPSGD audit's spans and ε
//! ledger can be inspected on a timeline in `chrome://tracing` or
//! <https://ui.perfetto.dev>.
//!
//! * `trace export` — one trace file, one process track.
//! * `trace merge` — zip several workers' trace files into a single
//!   cross-node export with one process track per worker. The track a
//!   line lands on follows its schema-v3 `worker` correlation stamp,
//!   falling back to the source file's stem for unstamped (v2 or
//!   single-node) traces. Output bytes depend only on the *set* of input
//!   lines, not on file order.

use crate::opts::Opts;
use dpaudit_obs::{chrome_trace, chrome_trace_merged, read_trace_lines, TraceLine};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};

/// Dispatch `trace <sub-action>`.
///
/// # Errors
/// A human-readable message for bad flags, bad values or I/O failures.
pub fn run_subaction(sub: &str, opts: &Opts) -> Result<String, String> {
    match sub {
        "export" => cmd_export(opts),
        "merge" => cmd_merge(opts),
        other => Err(format!(
            "unknown trace sub-action `{other}` (export | merge)"
        )),
    }
}

fn cmd_export(opts: &Opts) -> Result<String, String> {
    let path = opts
        .str_opt("trace")
        .ok_or("missing required --trace FILE")?;
    let (_, lines) =
        read_trace_lines(Path::new(path)).map_err(|e| format!("cannot read trace: {e}"))?;
    let json = chrome_trace(&lines) + "\n";
    match opts.str_opt("out") {
        Some(out) => {
            std::fs::write(Path::new(out), &json)
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            Ok(format!(
                "wrote chrome trace for {} events to {out}\n",
                lines.len()
            ))
        }
        None => Ok(json),
    }
}

fn cmd_merge(opts: &Opts) -> Result<String, String> {
    let traces = opts
        .str_opt("traces")
        .ok_or("missing required --traces A,B,...")?;
    let paths: Vec<PathBuf> = traces
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
        .collect();
    if paths.is_empty() {
        return Err("--traces needs at least one path".into());
    }
    // Group every line by the worker track it belongs to: the schema-v3
    // correlation stamp when present, else the file stem.
    let mut tracks: BTreeMap<String, Vec<TraceLine>> = BTreeMap::new();
    let mut total = 0usize;
    for path in &paths {
        let (_, lines) = read_trace_lines(path)
            .map_err(|e| format!("cannot read trace {}: {e}", path.display()))?;
        let stem = path
            .file_stem()
            .and_then(|s| s.to_str())
            .unwrap_or("worker")
            .to_string();
        total += lines.len();
        for line in lines {
            let worker = line.worker.clone().unwrap_or_else(|| stem.clone());
            tracks.entry(worker).or_default().push(line);
        }
    }
    let workers = tracks.len();
    let tracks: Vec<(String, Vec<TraceLine>)> = tracks.into_iter().collect();
    let json = chrome_trace_merged(&tracks) + "\n";
    match opts.str_opt("out") {
        Some(out) => {
            std::fs::write(Path::new(out), &json)
                .map_err(|e| format!("cannot write {out}: {e}"))?;
            Ok(format!(
                "merged {} traces ({total} events across {workers} worker tracks) into {out}\n",
                paths.len()
            ))
        }
        None => Ok(json),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_obs::{Event, JsonlSink, Sink};
    use serde_json::Value;
    use std::fs;

    fn temp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("dpaudit-cli-trace-{}", std::process::id()));
        fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn run_line(line: &[&str]) -> Result<String, String> {
        let opts = Opts::parse(line.iter().map(|s| s.to_string()))?;
        crate::commands::run(&opts)
    }

    fn write_sample_trace(path: &Path) {
        let sink = JsonlSink::create(path).unwrap();
        sink.record(&Event::SpanEnd {
            name: "trial".into(),
            nanos: 1_000_000,
        });
        sink.record(&Event::Counter {
            name: "dpsgd.steps".into(),
            delta: 3,
        });
        sink.record(&Event::Ledger {
            step: 1,
            local_sensitivity: 0.5,
            eps_prime: 0.25,
            eps_budget: Some(2.0),
        });
        sink.record(&Event::SpanEnd {
            name: "audit.run".into(),
            nanos: 5_000_000,
        });
        sink.flush().unwrap();
    }

    #[test]
    fn export_emits_valid_chrome_json_with_matched_span_pairs() {
        let path = temp_path("sample.jsonl");
        write_sample_trace(&path);
        let out = run_line(&["trace", "export", "--trace", path.to_str().unwrap()]).unwrap();
        let value: Value = serde_json::from_str(out.trim()).unwrap();
        let events = value.as_array().expect("top-level JSON array");
        assert!(!events.is_empty());
        let phase_count = |ph: &str| {
            events
                .iter()
                .filter(|e| e.get("ph").and_then(Value::as_str) == Some(ph))
                .count()
        };
        assert_eq!(phase_count("B"), phase_count("E"));
        assert!(phase_count("B") >= 2, "{out}");
        assert!(phase_count("C") >= 2, "{out}");
        fs::remove_file(&path).ok();
    }

    #[test]
    fn export_writes_to_out_file() {
        let trace = temp_path("to-file.jsonl");
        let chrome = temp_path("to-file.chrome.json");
        write_sample_trace(&trace);
        let msg = run_line(&[
            "trace",
            "export",
            "--trace",
            trace.to_str().unwrap(),
            "--out",
            chrome.to_str().unwrap(),
        ])
        .unwrap();
        assert!(msg.contains("wrote chrome trace"), "{msg}");
        let text = fs::read_to_string(&chrome).unwrap();
        let value: Value = serde_json::from_str(text.trim()).unwrap();
        assert!(value.as_array().is_some());
        fs::remove_file(&trace).ok();
        fs::remove_file(&chrome).ok();
    }

    #[test]
    fn export_rejects_bad_inputs() {
        let err = run_line(&["trace", "export", "--trace", "/nonexistent/t.jsonl"]).unwrap_err();
        assert!(err.contains("cannot read trace"), "{err}");

        // Chrome is the one export format; there is no flag to choose it.
        let err = run_line(&[
            "trace", "export", "--trace", "t.jsonl", "--format", "chrome",
        ])
        .unwrap_err();
        assert!(err.contains("unknown flag --format"), "{err}");

        let err = run_line(&["trace", "frobnicate"]).unwrap_err();
        assert!(err.contains("sub-action"), "{err}");
        assert!(err.contains("export | merge"), "{err}");
    }

    #[test]
    fn merge_zips_worker_traces_into_per_worker_process_tracks() {
        let w1 = temp_path("w1.jsonl");
        let w2 = temp_path("w2.jsonl");
        write_sample_trace(&w1);
        write_sample_trace(&w2);
        let arg = format!("{},{}", w1.display(), w2.display());
        let out = run_line(&["trace", "merge", "--traces", &arg]).unwrap();
        let value: Value = serde_json::from_str(out.trim()).unwrap();
        let events = value.as_array().expect("top-level JSON array");
        // One process track per worker (named from the file stems here,
        // since the sample traces carry no correlation stamps).
        let processes: Vec<&str> = events
            .iter()
            .filter(|e| e.get("name").and_then(Value::as_str) == Some("process_name"))
            .map(|e| e["args"]["name"].as_str().unwrap())
            .collect();
        assert_eq!(processes, vec!["w1", "w2"], "{out}");

        // Byte determinism: listing the files in the other order changes
        // nothing.
        let reversed_arg = format!("{},{}", w2.display(), w1.display());
        let reversed = run_line(&["trace", "merge", "--traces", &reversed_arg]).unwrap();
        assert_eq!(out, reversed);

        // --out writes the same artefact to disk.
        let merged = temp_path("merged.chrome.json");
        let msg = run_line(&[
            "trace",
            "merge",
            "--traces",
            &arg,
            "--out",
            merged.to_str().unwrap(),
        ])
        .unwrap();
        assert!(
            msg.contains("merged 2 traces (8 events across 2 worker tracks)"),
            "{msg}"
        );
        assert_eq!(fs::read_to_string(&merged).unwrap(), out);
        fs::remove_file(&w1).ok();
        fs::remove_file(&w2).ok();
        fs::remove_file(&merged).ok();
    }

    #[test]
    fn merge_rejects_bad_inputs() {
        let err = run_line(&["trace", "merge"]).unwrap_err();
        assert!(err.contains("--traces"), "{err}");
        let err = run_line(&["trace", "merge", "--traces", " , "]).unwrap_err();
        assert!(err.contains("at least one path"), "{err}");
        let err = run_line(&["trace", "merge", "--traces", "/nonexistent/t.jsonl"]).unwrap_err();
        assert!(err.contains("cannot read trace"), "{err}");
    }
}
