//! `dpaudit watch`: a live terminal dashboard over a running (or finished)
//! audit trial store — progress and ETA, the running empirical ε′ against
//! the claimed ε budget, a belief histogram, and an alert line the moment
//! ε′ crosses the alert threshold.
//!
//! The watcher is read-only: it tails the store file the way `audit
//! resume` would (torn tails are tolerated by the store reader), so it can
//! run in a second terminal next to a live `audit run`. Intermediate
//! frames go to stderr; the final frame is the command's output.

use crate::opts::Opts;
use dpaudit_core::MaxBeliefEstimator;
use dpaudit_dpsgd::ComputeMode;
use dpaudit_obs::{names, read_events, MetricsRegistry};
use dpaudit_runtime::{read_store, Progress, ProgressMeter, StoreHeader, TrialRecord};
use std::fmt::Write as _;
use std::path::Path;
use std::time::Duration;

const GLYPHS: [char; 8] = ['▁', '▂', '▃', '▄', '▅', '▆', '▇', '█'];
/// Sparklines and histograms are clipped to this many cells.
const WIDTH: usize = 40;

/// Everything one dashboard frame renders, separated from I/O so the
/// rendering is a pure, unit-testable function.
struct WatchState {
    header: StoreHeader,
    /// The stored trials, one per index, ascending (the store's reading
    /// rule).
    trials: Vec<TrialRecord>,
    progress: Progress,
    /// Threshold for the ALERT line (defaults to the store's target ε).
    alert_eps: f64,
    /// `ledger.steps` counter folded from `--trace`, when given.
    ledger_steps: Option<u64>,
}

impl WatchState {
    /// Running max of the per-trial empirical ε′ estimates (finite
    /// ε′-from-sensitivities and belief-implied ε′, Eq. 10), in trial
    /// index order — the series the sparkline draws.
    fn eps_series(&self) -> Vec<f64> {
        let mut best = f64::NEG_INFINITY;
        let mut series = Vec::with_capacity(self.trials.len());
        for record in &self.trials {
            if record.eps_ls.is_finite() {
                best = best.max(record.eps_ls);
            }
            let from_belief = MaxBeliefEstimator::from_max_belief(record.trial.belief_trained);
            if from_belief.is_finite() {
                best = best.max(from_belief);
            }
            if best.is_finite() {
                series.push(best);
            }
        }
        series
    }
}

/// Run `dpaudit watch`.
///
/// # Errors
/// A human-readable message for bad flags, bad values or I/O failures.
pub fn run(opts: &Opts) -> Result<String, String> {
    let store_path = opts
        .str_opt("store")
        .ok_or("missing required --store FILE")?;
    let trace_path = opts.str_opt("trace");
    let interval = Duration::from_millis(opts.u64_or("interval-ms", 500)?);
    let max_ticks = opts.usize_or("max-ticks", 0)?;
    let alert_override = opts.f64_opt("alert-eps")?;

    let mut meter: Option<ProgressMeter> = None;
    let mut baseline = 0usize;
    let mut ticked = 0usize;
    let mut tick = 0usize;
    let mut waiting_announced = false;
    loop {
        tick += 1;
        let contents = match read_store(Path::new(store_path)) {
            Ok(contents) => contents,
            // A store that does not exist yet is the normal "watch started
            // before the run" case: poll until it appears (max-ticks still
            // bounds the wait).
            Err(e) if meter.is_none() && e.kind() == std::io::ErrorKind::NotFound => {
                if !waiting_announced {
                    eprintln!("watch: waiting for store {store_path} to appear");
                    waiting_announced = true;
                }
                if max_ticks > 0 && tick >= max_ticks {
                    return Ok(format!(
                        "watch: store {store_path} did not appear within {max_ticks} ticks\n"
                    ));
                }
                std::thread::sleep(interval);
                continue;
            }
            // Any other first-read failure is a real error; later failures
            // (store mid-swap) keep the previous frame and retry.
            Err(e) if meter.is_none() => return Err(format!("cannot read store: {e}")),
            Err(_) => {
                std::thread::sleep(interval);
                continue;
            }
        };
        let (header, trials) = (contents.header, contents.records);
        let meter = meter.get_or_insert_with(|| {
            baseline = trials.len();
            ProgressMeter::new(header.reps.saturating_sub(trials.len()), trials.len())
        });
        let mut progress = meter.snapshot();
        while baseline + ticked < trials.len() {
            progress = meter.tick();
            ticked += 1;
        }
        let ledger_steps = trace_path.and_then(|path| {
            // Live trace files can be mid-write; treat a failed read as
            // "no data this frame" rather than an error.
            let (_, events) = read_events(Path::new(path)).ok()?;
            let registry = MetricsRegistry::new();
            registry.absorb(&events);
            registry
                .snapshot()
                .counters
                .get(names::LEDGER_STEPS)
                .copied()
        });
        let complete = trials.len() >= header.reps;
        let state = WatchState {
            alert_eps: alert_override.unwrap_or(header.target_epsilon),
            header,
            trials,
            progress,
            ledger_steps,
        };
        let frame = render_dashboard(&state);
        if complete || (max_ticks > 0 && tick >= max_ticks) {
            return Ok(frame);
        }
        eprint!("{frame}");
        std::thread::sleep(interval);
    }
}

/// Render one dashboard frame.
fn render_dashboard(state: &WatchState) -> String {
    let mut out = String::new();
    let header = &state.header;
    let compute = header.settings.dpsgd.compute;
    let backend = header.settings.dpsgd.backend;
    let _ = writeln!(
        out,
        "watch: {} · workload {} · compute {compute} · backend {backend} · adversary {} · sampling {} · target eps {:.4} (delta {:e})",
        header.label,
        header.workload,
        header.settings.adversary.label(),
        header.settings.sampling,
        header.target_epsilon,
        header.delta
    );
    let _ = writeln!(out, "  {}", state.progress.render());

    let series = state.eps_series();
    match series.last() {
        Some(&eps_now) => {
            let _ = writeln!(
                out,
                "  eps' so far    {eps_now:.4}   ({:.1}% of target)",
                eps_now / header.target_epsilon * 100.0
            );
            let _ = writeln!(out, "  eps' {}", sparkline(&series));
        }
        None => {
            let _ = writeln!(out, "  eps' so far    --   (no finite estimate yet)");
        }
    }

    let beliefs: Vec<f64> = state
        .trials
        .iter()
        .map(|t| t.trial.belief_trained)
        .collect();
    if let Some(max_belief) = beliefs.iter().copied().reduce(f64::max) {
        // Non-Bayesian adversaries (GLRT, threshold-MI) stream a [0, 1)
        // decision score, not a posterior belief — label it honestly.
        let what = if header.settings.adversary.is_bayesian() {
            "belief"
        } else {
            "score "
        };
        let _ = writeln!(
            out,
            "  {what} [0,1) {}   max {max_belief:.4}",
            histogram_bars(&beliefs)
        );
    }
    if let Some(steps) = state.ledger_steps {
        let _ = writeln!(out, "  ledger: {steps} DPSGD steps streamed");
    }
    let missing = header.reps.saturating_sub(state.trials.len());
    if missing > 0 {
        let _ = writeln!(out, "  waiting for {missing} more trials");
    }
    if let Some(&eps_now) = series.last() {
        if eps_now > state.alert_eps {
            let _ = writeln!(
                out,
                "  ALERT: eps' {eps_now:.4} exceeds the alert threshold {:.4}",
                state.alert_eps
            );
        }
    }
    if compute == ComputeMode::F32 {
        // An f32 store is tolerance-equivalent to the f64 oracle, so its
        // eps' is not bit-comparable to targets derived from f64 runs —
        // say so rather than let the alert imply an exact comparison.
        let _ = writeln!(
            out,
            "  note: f32 storage run — eps' is tolerance-equivalent to, not \
             bit-identical with, an f64 run's"
        );
    }
    if backend != dpaudit_dpsgd::BackendChoice::Native {
        // Same caveat for a non-native gemm backend: its accumulation
        // order differs from the native oracle's, so the run is
        // tolerance-gated, not bit-comparable.
        let _ = writeln!(
            out,
            "  note: {backend} backend run — results are tolerance-equivalent \
             to, not bit-identical with, the native backend's"
        );
    }
    out
}

/// Draw `values` (clipped to the last [`WIDTH`] points) as a block-glyph
/// sparkline scaled between the window's min and max. Shared with the
/// fleet dashboard (`dpaudit fabric watch`).
pub(crate) fn sparkline(values: &[f64]) -> String {
    let shown = &values[values.len().saturating_sub(WIDTH)..];
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in shown {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if shown.is_empty() || !lo.is_finite() || !hi.is_finite() {
        return String::new();
    }
    let span = hi - lo;
    shown
        .iter()
        .map(|&v| {
            let level = if span > 0.0 {
                (((v - lo) / span) * 7.0).round() as usize
            } else {
                0
            };
            GLYPHS[level.min(7)]
        })
        .collect()
}

/// Ten-bin histogram of posterior beliefs over `[0, 1)`, one glyph per
/// bin, scaled by the fullest bin; `·` marks an empty bin.
fn histogram_bars(beliefs: &[f64]) -> String {
    let mut bins = [0usize; 10];
    for &b in beliefs {
        let idx = ((b * 10.0).floor() as usize).min(9);
        bins[idx] += 1;
    }
    let peak = bins.iter().copied().max().unwrap_or(0);
    bins.iter()
        .map(|&count| {
            if count == 0 || peak == 0 {
                '·'
            } else {
                let level = (count * 7).div_ceil(peak);
                GLYPHS[level.min(7)]
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_core::{rho_beta, RecordDetail};
    use dpaudit_runtime::{testkit, Seed, SCHEMA_VERSION};

    fn toy_header(reps: usize) -> StoreHeader {
        StoreHeader {
            schema_version: SCHEMA_VERSION,
            label: "watch-test".into(),
            workload: "toy".into(),
            train_size: 8,
            world_seed: Seed(0),
            reps,
            master_seed: Seed(42),
            target_epsilon: 2.0,
            delta: 1e-3,
            rho_beta_bound: rho_beta(2.0),
            detail: RecordDetail::Summary,
            settings: testkit::toy_settings(3),
        }
    }

    fn toy_state_with_belief(eps_values: &[f64], belief: f64, alert_eps: f64) -> WatchState {
        let trials = eps_values
            .iter()
            .enumerate()
            .map(|(idx, &eps)| TrialRecord {
                idx,
                seed: Seed(idx as u64),
                eps_ls: eps,
                trial: dpaudit_core::DiTrialResult {
                    b: true,
                    guess: true,
                    correct: true,
                    belief_d: belief,
                    belief_trained: belief,
                    belief_history: vec![],
                    local_sensitivities: vec![],
                    sigmas: vec![],
                    test_accuracy: None,
                },
            })
            .collect();
        WatchState {
            header: toy_header(eps_values.len()),
            trials,
            progress: ProgressMeter::new(0, eps_values.len()).snapshot(),
            alert_eps,
            ledger_steps: Some(9),
        }
    }

    fn toy_state(eps_values: &[f64], alert_eps: f64) -> WatchState {
        toy_state_with_belief(eps_values, 0.5, alert_eps)
    }

    #[test]
    fn dashboard_alerts_only_when_eps_crosses_the_threshold() {
        let calm = render_dashboard(&toy_state(&[0.5, 1.0, 1.5], 2.0));
        assert!(calm.contains("eps' so far    1.5000"), "{calm}");
        assert!(calm.contains("75.0% of target"), "{calm}");
        assert!(calm.contains("ledger: 9 DPSGD steps streamed"), "{calm}");
        assert!(!calm.contains("ALERT"), "{calm}");

        let hot = render_dashboard(&toy_state(&[0.5, 2.5], 2.0));
        assert!(hot.contains("ALERT: eps' 2.5000"), "{hot}");
        assert!(hot.contains("threshold 2.0000"), "{hot}");
    }

    #[test]
    fn dashboard_labels_compute_mode_and_flags_f32_runs() {
        let f64_frame = render_dashboard(&toy_state(&[0.5], 2.0));
        assert!(f64_frame.contains("compute f64"), "{f64_frame}");
        assert!(!f64_frame.contains("f32 storage run"), "{f64_frame}");

        let mut state = toy_state(&[0.5, 2.5], 2.0);
        state.header.settings.dpsgd.compute = ComputeMode::F32;
        let f32_frame = render_dashboard(&state);
        assert!(f32_frame.contains("compute f32"), "{f32_frame}");
        assert!(f32_frame.contains("ALERT"), "{f32_frame}");
        assert!(f32_frame.contains("f32 storage run"), "{f32_frame}");
    }

    #[test]
    fn dashboard_labels_backend_and_flags_non_native_runs() {
        let native_frame = render_dashboard(&toy_state(&[0.5], 2.0));
        assert!(native_frame.contains("backend native"), "{native_frame}");
        assert!(!native_frame.contains("backend run"), "{native_frame}");

        let mut state = toy_state(&[0.5], 2.0);
        state.header.settings.dpsgd.backend = dpaudit_dpsgd::BackendChoice::Blas;
        let blas_frame = render_dashboard(&state);
        assert!(blas_frame.contains("backend blas"), "{blas_frame}");
        assert!(blas_frame.contains("blas backend run"), "{blas_frame}");
        assert!(blas_frame.contains("tolerance-equivalent"), "{blas_frame}");
    }

    #[test]
    fn dashboard_labels_adversary_and_sampling_and_renames_the_histogram() {
        use dpaudit_core::experiment::Sampling;
        use dpaudit_core::AdversaryKind;

        let default_frame = render_dashboard(&toy_state(&[0.5], 2.0));
        assert!(
            default_frame.contains("adversary gaussian"),
            "{default_frame}"
        );
        assert!(
            default_frame.contains("sampling full-batch"),
            "{default_frame}"
        );
        assert!(default_frame.contains("belief [0,1)"), "{default_frame}");

        let mut state = toy_state(&[0.5], 2.0);
        state.header.settings =
            testkit::toy_settings_with(3, AdversaryKind::Glrt, Sampling::Poisson { q: 0.1 });
        let glrt_frame = render_dashboard(&state);
        assert!(glrt_frame.contains("adversary glrt"), "{glrt_frame}");
        assert!(
            glrt_frame.contains("sampling poisson(q=0.1)"),
            "{glrt_frame}"
        );
        assert!(glrt_frame.contains("score  [0,1)"), "{glrt_frame}");
        assert!(!glrt_frame.contains("belief [0,1)"), "{glrt_frame}");
    }

    #[test]
    fn dashboard_renders_dashes_before_any_finite_estimate() {
        // Infinite eps' from sensitivities and belief 1.0 (whose logit is
        // also infinite) leave no finite estimate to report.
        let state = toy_state_with_belief(&[f64::INFINITY], 1.0, 2.0);
        let frame = render_dashboard(&state);
        assert!(frame.contains("eps' so far    --"), "{frame}");
        assert!(frame.contains("ETA --"), "{frame}");
    }

    #[test]
    fn sparkline_scales_between_window_extremes() {
        assert_eq!(sparkline(&[]), "");
        assert_eq!(sparkline(&[1.0]), "▁");
        let line = sparkline(&[0.0, 0.5, 1.0]);
        assert_eq!(line.chars().count(), 3);
        assert!(line.starts_with('▁') && line.ends_with('█'), "{line}");
        // Monotone input yields non-decreasing glyph levels.
        let levels: Vec<usize> = line
            .chars()
            .map(|c| GLYPHS.iter().position(|&g| g == c).unwrap())
            .collect();
        assert!(levels.windows(2).all(|w| w[0] <= w[1]), "{line}");
        // The window is clipped.
        let long: Vec<f64> = (0..100).map(f64::from).collect();
        assert_eq!(sparkline(&long).chars().count(), WIDTH);
    }

    #[test]
    fn histogram_marks_empty_bins_and_scales_the_peak() {
        let bars = histogram_bars(&[0.05, 0.05, 0.95]);
        assert_eq!(bars.chars().count(), 10);
        assert!(bars.starts_with('█'), "{bars}");
        // 1 of peak 2 → ceil(7/2) = level 4.
        assert!(bars.ends_with('▅'), "{bars}");
        assert_eq!(bars.chars().filter(|&c| c == '·').count(), 8, "{bars}");
    }
}
