//! Order statistics, the metric-name rule, and the compare verdict.

/// Median of `values` (mean of the two middle values for even counts).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    let s = sorted(values);
    let n = s.len();
    if n % 2 == 1 {
        s[n / 2]
    } else {
        (s[n / 2 - 1] + s[n / 2]) / 2.0
    }
}

/// First and third quartiles by the "exclusive" method of Python's
/// `statistics.quantiles(values, n=4)`, so spreads printed here match the
/// ones a Python reader of the same numbers computes. A single value is its
/// own quartiles.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    let s = sorted(values);
    let ld = s.len();
    if ld == 1 {
        return (s[0], s[0]);
    }
    let m = ld + 1;
    let at = |i: usize| {
        let j = (i * m / 4).clamp(1, ld - 1);
        let delta = (i * m) as f64 - (j * 4) as f64;
        (s[j - 1] * (4.0 - delta) + s[j] * delta) / 4.0
    };
    (at(1), at(3))
}

/// Inter-quartile distance as a share of the median.
pub fn rel_iqr(values: &[f64]) -> f64 {
    let (q1, q3) = quartiles(values);
    let med = median(values);
    if med == 0.0 {
        0.0
    } else {
        (q3 - q1) / med.abs()
    }
}

/// The tail percentile of a timing: the highest of 99.9/99/95/90/75/50 that
/// leaves at least ten samples beyond it (nearest-rank), so the tail is
/// never a single outlier. Below eleven samples no percentile qualifies and
/// the maximum is reported. Returns the percentile's label and value.
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn tail(values: &[f64]) -> (String, f64) {
    let s = sorted(values);
    let n = s.len();
    for p in [99.9, 99.0, 95.0, 90.0, 75.0, 50.0] {
        let rank = ((p / 100.0) * n as f64).ceil() as usize;
        if rank >= 1 && n - rank >= 10 {
            return (format!("p{p}"), s[rank - 1]);
        }
    }
    ("max".to_string(), s[n - 1])
}

fn sorted(values: &[f64]) -> Vec<f64> {
    assert!(!values.is_empty(), "order statistic of no samples");
    let mut s = values.to_vec();
    s.sort_by(|a, b| a.partial_cmp(b).expect("NaN sample"));
    s
}

/// Whether `name` is a legal metric or workload name: 1–64 characters from
/// `[A-Za-z0-9_.-]`, starting with a letter or digit.
#[cfg(test)]
pub fn valid_name(name: &str) -> bool {
    let ok_char = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok_char)
}

/// Outcome of comparing one (workload, metric) across two sets of runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Better,
    Same,
    Worse,
    /// The runs spread wider than the bound, and the candidate did not
    /// beat the baseline on every run.
    Unresolved,
}

impl Verdict {
    pub fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::Same => "same",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// Judge candidate runs `b` against baseline runs `a` for a metric whose
/// regression bound is `bound` (a share of the baseline median).
///
/// When either side's relative IQR exceeds the bound the medians cannot be
/// told apart: the verdict is `Unresolved` unless every candidate run beats
/// every baseline run. Otherwise a median move by more than the bound in
/// the bad direction is `Worse`, in the good direction `Better`, and
/// anything smaller `Same`.
pub fn verdict(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> Verdict {
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| better(y, x)));
    if rel_iqr(a).max(rel_iqr(b)) > bound {
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    let (ma, mb) = (median(a), median(b));
    if ma == mb {
        return Verdict::Same;
    }
    let change = (mb - ma) / ma.abs();
    let gain = if lower_is_better { -change } else { change };
    if gain < -bound {
        Verdict::Worse
    } else if gain > bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
        let xs: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&xs), (2.75, 8.25));
        // statistics.quantiles([1, 2, 4, 8], n=4) == [1.25, 3.0, 7.0]
        assert_eq!(quartiles(&[8.0, 1.0, 4.0, 2.0]), (1.25, 7.0));
        // statistics.quantiles([3, 5], n=4) == [2.5, 4.0, 5.5] (extrapolated)
        assert_eq!(quartiles(&[5.0, 3.0]), (2.5, 5.5));
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!((rel_iqr(&xs) - 5.5 / 5.5).abs() < 1e-12);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond_it() {
        // 60 samples (two traced trials of 30 steps): p90 would leave only
        // six beyond it, p75 leaves fifteen.
        let xs: Vec<f64> = (1..=60).map(f64::from).collect();
        assert_eq!(tail(&xs), ("p75".to_string(), 45.0));
        // 200 samples: p95 is rank 190, exactly ten beyond.
        let xs: Vec<f64> = (1..=200).map(f64::from).collect();
        assert_eq!(tail(&xs), ("p95".to_string(), 190.0));
        // 1000 samples: p99 is rank 990, ten beyond.
        let xs: Vec<f64> = (1..=1000).map(f64::from).collect();
        assert_eq!(tail(&xs), ("p99".to_string(), 990.0));
        // 20 samples: p50 (rank 10) leaves ten, p75 (rank 15) only five.
        let xs: Vec<f64> = (1..=20).map(f64::from).collect();
        assert_eq!(tail(&xs), ("p50".to_string(), 10.0));
        // Too few samples for any percentile: the maximum.
        assert_eq!(tail(&[3.0, 9.0, 1.0, 4.0]), ("max".to_string(), 9.0));
    }

    #[test]
    fn metric_names_follow_the_charset() {
        for good in [
            "trials_per_s",
            "nn.grad_b1_ms",
            "runtime.execute_trial_ms.p50",
            "a-1",
        ] {
            assert!(valid_name(good), "{good}");
        }
        let long = "x".repeat(65);
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "per/s",
            "ü",
            long.as_str(),
        ] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let base = [100.0, 101.0, 99.0, 100.5, 99.5];
        let up = |f: f64| base.map(|x| x * f);
        // Higher is better: +10% against a 5% bound is better, -10% worse.
        assert_eq!(verdict(&base, &up(1.10), false, 0.05), Verdict::Better);
        assert_eq!(verdict(&base, &up(0.90), false, 0.05), Verdict::Worse);
        assert_eq!(verdict(&base, &up(1.02), false, 0.05), Verdict::Same);
        assert_eq!(verdict(&base, &base, false, 0.05), Verdict::Same);
        // Lower is better flips the direction.
        assert_eq!(verdict(&base, &up(1.10), true, 0.05), Verdict::Worse);
        assert_eq!(verdict(&base, &up(0.90), true, 0.05), Verdict::Better);
        // A spread wider than the bound is unresolved, even for a big move...
        let noisy = [80.0, 120.0, 90.0, 110.0, 100.0];
        assert_eq!(verdict(&noisy, &up(0.7), false, 0.05), Verdict::Unresolved);
        // ...unless every candidate run beats every baseline run.
        let fast = noisy.map(|x| x + 100.0);
        assert_eq!(verdict(&noisy, &fast, false, 0.05), Verdict::Better);
    }
}
