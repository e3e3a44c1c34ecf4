//! The observability data model: one [`Event`] per recorded fact.
//!
//! Events are deliberately scalar — a name plus one number — so that every
//! sink can fold them commutatively. Everything the engine records reduces
//! to four shapes:
//!
//! * `Counter` — a monotone count (trials executed, steps trained, …).
//! * `GaugeMax` — a running maximum (max observed belief). Max is
//!   commutative and associative, so the fold is order-independent.
//! * `Observe` — one sample for a fixed-bucket histogram (beliefs,
//!   per-step updates).
//! * `SpanEnd` — a completed timed span with its monotonic duration in
//!   nanoseconds. Durations are wall-clock facts and therefore the *only*
//!   non-deterministic event kind; deterministic snapshots exclude them.
//! * `Ledger` — the one structured exception: a privacy-ledger step
//!   (emitted by `dpaudit-dp`'s `PrivacyLedger`) carrying the step index,
//!   the release's local sensitivity, ε′-so-far at the optimal RDP order,
//!   and the analytic ε budget. Sinks fold it into the scalar taxonomy
//!   (see [`names::LEDGER_STEPS`], [`names::EPS_PRIME_LS_GAUGE`], …), so
//!   the determinism contract still holds.

use serde::{Deserialize, Serialize};

/// One recorded observability fact. See the module docs for the taxonomy.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Event {
    /// Increment the named monotone counter by `delta`.
    Counter {
        /// Metric name (dot-separated, see [`crate::names`]).
        name: String,
        /// Increment (≥ 1 in practice; 0 is folded as a no-op).
        delta: u64,
    },
    /// Raise the named running-maximum gauge to at least `value`.
    GaugeMax {
        /// Metric name.
        name: String,
        /// Candidate maximum.
        value: f64,
    },
    /// One sample for the named fixed-bucket histogram.
    Observe {
        /// Metric name; bucket bounds come from [`crate::bucket_bounds`].
        name: String,
        /// The sampled value.
        value: f64,
    },
    /// A completed timed span.
    SpanEnd {
        /// Span name (one per instrumented stage, see [`crate::names`]).
        name: String,
        /// Monotonic duration in nanoseconds.
        nanos: u64,
    },
    /// One privacy-ledger step: a noisy release accounted by the RDP
    /// accountant. Registries fold it into [`names::LEDGER_STEPS`],
    /// [`names::LEDGER_SENSITIVITY_HIST`], [`names::EPS_PRIME_LS_GAUGE`]
    /// and [`names::EPS_TARGET_GAUGE`].
    Ledger {
        /// 1-based step index within the ledger (composition length so far).
        step: u64,
        /// The local sensitivity of this release (1.0 for unit-sensitivity
        /// accountant queries).
        local_sensitivity: f64,
        /// ε′ accumulated so far, converted at the optimal RDP order.
        eps_prime: f64,
        /// The analytic ε budget under audit, when the ledger knows one.
        eps_budget: Option<f64>,
    },
}

impl Event {
    /// The metric/span name this event targets.
    pub fn name(&self) -> &str {
        match self {
            Event::Counter { name, .. }
            | Event::GaugeMax { name, .. }
            | Event::Observe { name, .. }
            | Event::SpanEnd { name, .. } => name,
            Event::Ledger { .. } => names::LEDGER,
        }
    }

    /// Whether the event is deterministic under re-execution — everything
    /// except wall-clock span durations.
    pub fn is_deterministic(&self) -> bool {
        !matches!(self, Event::SpanEnd { .. })
    }
}

/// Canonical metric and span names used by the instrumented crates.
///
/// Keeping the taxonomy in one module means sinks, reports, and tests agree
/// on spelling without string literals scattered through the hot paths.
pub mod names {
    /// Span: one full Exp^DI trial, training included (runtime executor).
    pub const TRIAL_SPAN: &str = "trial";
    /// Span: time a scheduled trial waited before a worker picked it up.
    pub const QUEUE_WAIT_SPAN: &str = "executor.queue_wait";
    /// Span: one whole `AuditSession::run` (store replay + execution).
    pub const RUN_SPAN: &str = "audit.run";
    /// Span: per-step clipped per-example gradient accumulation.
    pub const CLIP_SPAN: &str = "dpsgd.clip";
    /// Span: one fixed-size chunk of the clip loop (batched gradients +
    /// clipping for up to `CLIP_CHUNK` examples); nested under
    /// [`CLIP_SPAN`], emitted from whichever worker ran the chunk.
    pub const CLIP_CHUNK_SPAN: &str = "dpsgd.clip_chunk";
    /// Span: per-step sensitivity estimation + Gaussian perturbation.
    pub const NOISE_SPAN: &str = "dpsgd.noise";
    /// Span: per-step SGD update of the weights.
    pub const UPDATE_SPAN: &str = "dpsgd.update";
    /// Span: posterior belief update over one released gradient.
    pub const BELIEF_SPAN: &str = "adversary.belief_update";
    /// Span: one trial's ε′-from-local-sensitivities, composed by the RDP
    /// accountant after training (runtime executor).
    pub const EPS_LS_SPAN: &str = "dp.eps_ls";

    /// Counter: trials executed by the engine (excludes store replays).
    pub const TRIALS_EXECUTED: &str = "executor.trials_executed";
    /// Counter: trials replayed from a durable store instead of re-run.
    pub const TRIALS_REPLAYED: &str = "executor.trials_replayed";
    /// Counter: DPSGD steps trained.
    pub const STEPS: &str = "dpsgd.steps";
    /// Counter: per-example gradients whose norm exceeded the clip bound.
    pub const EXAMPLES_CLIPPED: &str = "dpsgd.examples_clipped";
    /// Counter: per-example gradients processed.
    pub const EXAMPLES_SEEN: &str = "dpsgd.examples_seen";
    /// Counter: Exp^DI trials observed end-to-end by the harness.
    pub const TRIALS: &str = "di.trials";

    /// Histogram: every per-step posterior belief β_i(trained) of a trial.
    pub const BELIEF_HIST: &str = "di.belief";
    /// Histogram: per-step belief *updates* |β_i − β_{i−1}|.
    pub const BELIEF_UPDATE_HIST: &str = "di.belief_update";
    /// Histogram: per-observation adversary score s_i(trained) on `[0, 1]`
    /// — the score-generic counterpart of [`BELIEF_HIST`] streamed by
    /// non-Bayesian adversaries (GLRT, threshold-MI).
    pub const SCORE_HIST: &str = "di.score";
    /// Gauge (max): maximum final belief/score in the trained dataset.
    pub const MAX_BELIEF_GAUGE: &str = "di.max_belief";

    /// Series name of structured [`super::Event::Ledger`] events.
    pub const LEDGER: &str = "ledger";
    /// Counter: noisy releases recorded by the privacy ledger.
    pub const LEDGER_STEPS: &str = "ledger.steps";
    /// Histogram: per-release local sensitivity recorded by the ledger.
    pub const LEDGER_SENSITIVITY_HIST: &str = "ledger.local_sensitivity";
    /// Histogram: effective per-step noise multiplier σᵢ / sᵢ seen by the
    /// DPSGD trainer.
    pub const NOISE_MULTIPLIER_HIST: &str = "dpsgd.noise_multiplier";

    /// Gauge (max): ρ_β-implied empirical ε′ (paper Eq. 10) from the
    /// maximum posterior belief observed so far. Exported to Prometheus as
    /// `dpaudit_eps_prime`; for a complete batch it equals the audit
    /// report's ε′-from-belief exactly (logit is monotone, so the max
    /// commutes with the transform).
    pub const EPS_PRIME_GAUGE: &str = "eps_prime";
    /// Gauge (max): running RDP-composed ε′ from the privacy ledger — the
    /// worst (largest) per-trial ε′-from-local-sensitivities so far.
    pub const EPS_PRIME_LS_GAUGE: &str = "eps_prime_ls";
    /// Gauge (max): the analytic ε budget the run is audited against.
    pub const EPS_TARGET_GAUGE: &str = "eps_target";

    /// Counter: jobs accepted into the fabric coordinator's queue.
    pub const FABRIC_JOBS: &str = "fabric.jobs_accepted";
    /// Counter: trial-range leases granted by the fabric coordinator.
    pub const FABRIC_LEASES_GRANTED: &str = "fabric.leases_granted";
    /// Counter: expired leases reclaimed (their unfinished trials returned
    /// to the pending pool for other workers).
    pub const FABRIC_LEASES_RECLAIMED: &str = "fabric.leases_reclaimed";
    /// Counter: trial records accepted by the coordinator's shard ingest.
    pub const FABRIC_TRIALS_SUBMITTED: &str = "fabric.trials_submitted";
    /// Counter: duplicate submissions dropped by idempotent dedupe
    /// (re-sent shards after a retry, or a reclaimed lease's stragglers).
    pub const FABRIC_DUPLICATES: &str = "fabric.duplicate_submissions";
    /// Counter: worker-side request retries after coordinator errors.
    pub const FABRIC_RETRIES: &str = "fabric.worker_retries";
    /// Counter: trials this worker executed and submitted — recorded into
    /// the worker's own registry (not global dispatch) so the shipped
    /// per-worker snapshot carries it even when no global sink is
    /// installed, and the coordinator's fleet `/metrics` can label it.
    pub const FABRIC_WORKER_TRIALS: &str = "fabric.worker_trials";
    /// Span: one worker-side coordinator round trip (request → response).
    pub const FABRIC_RTT_SPAN: &str = "fabric.rtt";
}

/// The fixed bucket bounds for a histogram metric.
///
/// Beliefs live on [0, 1] and get decile buckets; belief updates are small
/// and get a geometric ladder; anything unknown gets the geometric default.
/// Bounds are upper edges: a sample lands in the first bucket whose bound
/// is ≥ the value, or in the overflow bucket past the last bound.
pub fn bucket_bounds(name: &str) -> &'static [f64] {
    const DECILES: &[f64] = &[0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.8, 0.9, 1.0];
    const GEOMETRIC: &[f64] = &[1e-6, 1e-5, 1e-4, 1e-3, 1e-2, 1e-1, 1.0, 10.0, 100.0];
    match name {
        names::BELIEF_HIST | names::SCORE_HIST => DECILES,
        names::BELIEF_UPDATE_HIST => GEOMETRIC,
        _ => GEOMETRIC,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn events_round_trip_through_json() {
        let events = vec![
            Event::Counter {
                name: names::STEPS.into(),
                delta: 30,
            },
            Event::GaugeMax {
                name: names::MAX_BELIEF_GAUGE.into(),
                value: 0.93,
            },
            Event::Observe {
                name: names::BELIEF_HIST.into(),
                value: 0.55,
            },
            Event::SpanEnd {
                name: names::TRIAL_SPAN.into(),
                nanos: 1_234_567,
            },
        ];
        for event in events {
            let text = serde_json::to_string(&event).unwrap();
            let back: Event = serde_json::from_str(&text).unwrap();
            assert_eq!(back, event);
        }
    }

    #[test]
    fn determinism_classification() {
        let span = Event::SpanEnd {
            name: "x".into(),
            nanos: 1,
        };
        let counter = Event::Counter {
            name: "x".into(),
            delta: 1,
        };
        assert!(!span.is_deterministic());
        assert!(counter.is_deterministic());
        assert_eq!(span.name(), "x");
    }

    #[test]
    fn belief_buckets_cover_the_unit_interval() {
        let bounds = bucket_bounds(names::BELIEF_HIST);
        assert_eq!(bounds.first(), Some(&0.1));
        assert_eq!(bounds.last(), Some(&1.0));
        assert!(bounds.windows(2).all(|w| w[0] < w[1]));
    }
}
