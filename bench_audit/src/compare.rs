//! `bench_audit --compare A.json B.json`: judge one set of recorded runs
//! against another, metric by metric, with the bounds `BENCHMARK.json`
//! fixes.

use crate::stats::{median, rel_iqr, verdict, Verdict};
use crate::workloads::WORKLOADS;
use serde_json::Value;
use std::path::Path;

/// `BENCHMARK.json` at the repository root, next to this package.
pub const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// One end-to-end metric as `BENCHMARK.json` declares it.
#[derive(Debug)]
pub struct Bound {
    pub name: String,
    pub lower_is_better: bool,
    pub bound: f64,
}

pub fn read_json(path: &Path) -> Result<Value, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::from_str(&text).map_err(|e| format!("{}: {e}", path.display()))
}

/// The `end_to_end` entries of a parsed `BENCHMARK.json`.
pub fn bounds(benchmark: &Value) -> Result<Vec<Bound>, String> {
    let entries = benchmark["end_to_end"]
        .as_array()
        .ok_or("BENCHMARK.json has no end_to_end list")?;
    entries
        .iter()
        .map(|e| {
            let name = e["name"]
                .as_str()
                .ok_or("end_to_end entry without a name")?;
            Ok(Bound {
                name: name.to_string(),
                lower_is_better: match e["better"].as_str() {
                    Some("lower") => true,
                    Some("higher") => false,
                    _ => return Err(format!("{name}: better must be lower or higher")),
                },
                bound: e["bound"]
                    .as_f64()
                    .ok_or_else(|| format!("{name}: no numeric bound"))?,
            })
        })
        .collect()
}

/// Compare run set `b` against baseline `a`, printing one row per
/// (workload, metric). Returns whether any row is worse.
///
/// # Errors
/// Unreadable files, or sets recorded with different seeds or `nproc`.
pub fn compare(a_path: &Path, b_path: &Path) -> Result<bool, String> {
    let (a, b) = (read_json(a_path)?, read_json(b_path)?);
    for key in ["seed", "nproc"] {
        if a[key] != b[key] || a[key].as_f64().is_none() {
            return Err(format!(
                "refusing to compare runs with different {key}: {} vs {}",
                a[key], b[key]
            ));
        }
    }
    let bounds = bounds(&read_json(Path::new(BENCHMARK_JSON))?)?;
    println!(
        "{:<18} {:<16} {:>12} {:>12} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "A median", "B median", "change", "spread", "bound"
    );
    let mut any_worse = false;
    for spec in &WORKLOADS {
        let (Some(runs_a), Some(runs_b)) = (
            a["runs"][spec.name].as_array(),
            b["runs"][spec.name].as_array(),
        ) else {
            continue;
        };
        for bound in &bounds {
            let values = |runs: &[Value]| -> Result<Vec<f64>, String> {
                runs.iter()
                    .map(|r| {
                        r["metrics"][bound.name.as_str()]["value"]
                            .as_f64()
                            .ok_or_else(|| format!("{}: a run lacks {}", spec.name, bound.name))
                    })
                    .collect()
            };
            let (va, vb) = (values(runs_a)?, values(runs_b)?);
            let v = verdict(&va, &vb, bound.lower_is_better, bound.bound);
            any_worse |= v == Verdict::Worse;
            let (ma, mb) = (median(&va), median(&vb));
            println!(
                "{:<18} {:<16} {:>12.6} {:>12.6} {:>7.2}% {:>7.2}% {:>5.1}%  {}",
                spec.name,
                bound.name,
                ma,
                mb,
                100.0 * (mb - ma) / ma,
                100.0 * rel_iqr(&va).max(rel_iqr(&vb)),
                100.0 * bound.bound,
                v.label()
            );
        }
        // A gain never counts when more trials fail than in the baseline.
        let share = |runs: &[Value]| {
            let count = |key: &str| runs.iter().filter_map(|r| r[key].as_f64()).sum::<f64>();
            count("failed") / count("attempted").max(1.0)
        };
        let (fa, fb) = (share(runs_a), share(runs_b));
        let worse = fb > fa;
        any_worse |= worse;
        println!(
            "{:<18} {:<16} {:>12.6} {:>12.6} {:>8} {:>8} {:>6}  {}",
            spec.name,
            "fail_share",
            fa,
            fb,
            "",
            "",
            "0",
            if worse { "worse" } else { "same" }
        );
    }
    Ok(any_worse)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{END_TO_END, PER_LAYER};

    /// `BENCHMARK.json` describes exactly what this binary runs and prints.
    #[test]
    fn benchmark_json_matches_the_tables() {
        let benchmark = read_json(Path::new(BENCHMARK_JSON)).unwrap();
        assert_eq!(
            benchmark["run_seconds"].as_f64(),
            Some(crate::DEFAULT_SECONDS as f64)
        );
        let workloads: Vec<(&str, &str)> = benchmark["workloads"]
            .as_array()
            .unwrap()
            .iter()
            .map(|w| (w["name"].as_str().unwrap(), w["why"].as_str().unwrap()))
            .collect();
        let expected: Vec<(&str, &str)> = WORKLOADS.iter().map(|w| (w.name, w.why)).collect();
        assert_eq!(workloads, expected);
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed = benchmark[key].as_array().unwrap();
            assert_eq!(listed.len(), table.len(), "{key}");
            for (entry, metric) in listed.iter().zip(table) {
                assert_eq!(entry["name"].as_str(), Some(metric.name));
                assert_eq!(entry["unit"].as_str(), Some(metric.unit), "{}", metric.name);
                let better = if metric.higher_is_better {
                    "higher"
                } else {
                    "lower"
                };
                assert_eq!(entry["better"].as_str(), Some(better), "{}", metric.name);
            }
        }
        let bounds = bounds(&benchmark).unwrap();
        let setup = bounds.iter().find(|b| b.name == "setup_s").unwrap();
        for b in &bounds {
            assert!(b.bound > 0.0 && b.bound <= 0.25, "{}", b.name);
            assert!(
                b.bound <= setup.bound,
                "setup_s must carry the largest bound"
            );
        }
    }

    #[test]
    fn compare_refuses_mismatched_seeds() {
        let dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("work/compare-test");
        std::fs::create_dir_all(&dir).unwrap();
        let (a, b) = (dir.join("a.json"), dir.join("b.json"));
        std::fs::write(&a, r#"{"seed": 1, "nproc": 2, "runs": {}}"#).unwrap();
        std::fs::write(&b, r#"{"seed": 2, "nproc": 2, "runs": {}}"#).unwrap();
        let err = compare(&a, &b).unwrap_err();
        assert!(err.contains("different seed"), "{err}");
        assert_eq!(compare(&a, &a), Ok(false));
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
