//! Streaming aggregation of trial outcomes.
//!
//! [`StreamingAggregates`] folds trials as they complete — in O(1) memory
//! per trial, no batch materialisation — and [`StreamingAggregates::finish`]
//! builds the batch's [`AuditReport`]. It is the only place a report is
//! built: audit runs, store replays, fabric merges and the reproduction
//! binaries all finish here.
//!
//! Bit-identity across worker counts, resumes and merges requires the one
//! order-sensitive fold, the ε′-from-LS *sum*, to run in trial-index order:
//! floating-point addition is not associative. Workers finish out of
//! order, so arrivals pass through a small reorder buffer and fold only
//! when contiguous from index 0. The buffer holds at most
//! (workers − 1) stragglers in practice.

use crate::store::{StoreHeader, TrialRecord};
use dpaudit_core::audit::EstimatorInputs;
use dpaudit_core::AuditReport;
use std::collections::BTreeMap;

/// Per-trial scalars the aggregator folds (the rest of the record is
/// irrelevant to the aggregates).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TrialOutcome {
    /// Whether the adversary guessed the challenge bit.
    pub correct: bool,
    /// Final posterior belief in the trained dataset.
    pub belief_trained: f64,
    /// ε′ from this trial's local sensitivities (computed at execution
    /// time; see `TrialRecord::eps_ls`).
    pub eps_ls: f64,
}

impl From<&TrialRecord> for TrialOutcome {
    fn from(record: &TrialRecord) -> Self {
        TrialOutcome {
            correct: record.trial.correct,
            belief_trained: record.trial.belief_trained,
            eps_ls: record.eps_ls,
        }
    }
}

/// Order-insensitive-in, order-deterministic-out streaming folds over a
/// batch of `reps` trials.
#[derive(Debug, Clone)]
pub struct StreamingAggregates {
    reps: usize,
    target_epsilon: f64,
    delta: f64,
    rho_beta_bound: f64,
    /// Next trial index the in-order fold is waiting for.
    next: usize,
    /// Outcomes that arrived ahead of `next`.
    pending: BTreeMap<usize, TrialOutcome>,
    correct: usize,
    exceeded: usize,
    max_belief: f64,
    eps_ls_sum: f64,
}

impl StreamingAggregates {
    /// Start aggregating a batch of `reps` trials audited against
    /// `(target_epsilon, delta)` with belief threshold `rho_beta_bound`.
    ///
    /// # Panics
    /// Panics when `reps` is zero.
    pub fn new(reps: usize, target_epsilon: f64, delta: f64, rho_beta_bound: f64) -> Self {
        assert!(reps > 0, "StreamingAggregates: reps must be positive");
        StreamingAggregates {
            reps,
            target_epsilon,
            delta,
            rho_beta_bound,
            next: 0,
            pending: BTreeMap::new(),
            correct: 0,
            exceeded: 0,
            max_belief: f64::NEG_INFINITY,
            eps_ls_sum: 0.0,
        }
    }

    /// Start aggregating the batch `header` describes.
    pub fn for_header(header: &StoreHeader) -> Self {
        Self::new(
            header.reps,
            header.target_epsilon,
            header.delta,
            header.rho_beta_bound,
        )
    }

    /// Feed one completed trial. Arrival order is arbitrary; duplicates of
    /// an already-folded or pending index are ignored.
    ///
    /// # Panics
    /// Panics when `idx` is outside `0..reps`.
    pub fn push(&mut self, idx: usize, outcome: TrialOutcome) {
        assert!(
            idx < self.reps,
            "StreamingAggregates: trial index {idx} out of range 0..{}",
            self.reps
        );
        if idx < self.next || self.pending.contains_key(&idx) {
            return;
        }
        self.pending.insert(idx, outcome);
        // Drain the contiguous prefix.
        while let Some(outcome) = self.pending.remove(&self.next) {
            self.fold(outcome);
            self.next += 1;
        }
    }

    fn fold(&mut self, outcome: TrialOutcome) {
        if outcome.correct {
            self.correct += 1;
        }
        if outcome.belief_trained > self.rho_beta_bound {
            self.exceeded += 1;
        }
        self.max_belief = self.max_belief.max(outcome.belief_trained);
        self.eps_ls_sum += outcome.eps_ls;
    }

    /// Number of trials folded so far (contiguous from index 0).
    pub fn folded(&self) -> usize {
        self.next
    }

    /// Whether every trial in `0..reps` has been folded.
    pub fn is_complete(&self) -> bool {
        self.next == self.reps
    }

    /// Produce the final report through [`AuditReport::from_inputs`]. The
    /// ε′-from-LS mean is the trial-index-order sum of the per-trial values
    /// divided by `reps`, so it is the same at any arrival order.
    ///
    /// # Panics
    /// Panics when the batch is incomplete (missing indices).
    pub fn finish(&self) -> AuditReport {
        assert!(
            self.is_complete(),
            "StreamingAggregates: only {}/{} trials folded (missing index {})",
            self.next,
            self.reps,
            self.next
        );
        let n = self.reps as f64;
        let inputs = EstimatorInputs {
            trials: self.reps,
            successes: self.correct,
            max_belief: self.max_belief,
            mean_eps_ls: self.eps_ls_sum / n,
            delta: self.delta,
        };
        AuditReport::from_inputs(&inputs, self.target_epsilon, self.exceeded as f64 / n)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn outcome(correct: bool, belief: f64, eps: f64) -> TrialOutcome {
        TrialOutcome {
            correct,
            belief_trained: belief,
            eps_ls: eps,
        }
    }

    #[test]
    fn arrival_order_does_not_change_the_report() {
        let outcomes: Vec<TrialOutcome> = (0..16)
            .map(|i| {
                outcome(
                    i % 3 == 0,
                    0.4 + 0.037 * i as f64,
                    0.1 + (i as f64).sqrt() * 1e-3,
                )
            })
            .collect();

        let mut forward = StreamingAggregates::new(16, 2.0, 1e-3, 0.9);
        for (i, o) in outcomes.iter().enumerate() {
            forward.push(i, *o);
        }
        let mut shuffled = StreamingAggregates::new(16, 2.0, 1e-3, 0.9);
        // A fixed scramble: stride 5 mod 16 visits every index.
        for k in 0..16 {
            let i = (k * 5) % 16;
            shuffled.push(i, outcomes[i]);
        }
        assert!(forward.is_complete() && shuffled.is_complete());
        let (a, b) = (forward.finish(), shuffled.finish());
        assert_eq!(a.eps_from_ls.to_bits(), b.eps_from_ls.to_bits());
        assert_eq!(a.advantage.to_bits(), b.advantage.to_bits());
        assert_eq!(a.max_belief.to_bits(), b.max_belief.to_bits());
        assert_eq!(a.empirical_delta.to_bits(), b.empirical_delta.to_bits());
    }

    #[test]
    fn duplicates_are_ignored() {
        let mut agg = StreamingAggregates::new(2, 2.0, 1e-3, 0.9);
        agg.push(0, outcome(true, 0.95, 1.0));
        agg.push(0, outcome(false, 0.1, 9.0)); // duplicate: ignored
        agg.push(1, outcome(true, 0.5, 3.0));
        agg.push(1, outcome(false, 0.99, 9.0)); // duplicate after fold: ignored
        let report = agg.finish();
        assert_eq!(report.advantage, 1.0);
        assert_eq!(report.max_belief, 0.95);
        assert_eq!(report.empirical_delta, 0.5);
        assert!((report.eps_from_ls - 2.0).abs() < 1e-15);
    }

    #[test]
    #[should_panic(expected = "only 1/2 trials folded")]
    fn incomplete_batch_panics_on_finish() {
        let mut agg = StreamingAggregates::new(2, 2.0, 1e-3, 0.9);
        agg.push(0, outcome(true, 0.5, 1.0));
        agg.finish();
    }

    #[test]
    fn progress_counters_track_contiguous_prefix() {
        let mut agg = StreamingAggregates::new(3, 2.0, 1e-3, 0.9);
        agg.push(2, outcome(true, 0.5, 1.0));
        assert_eq!(agg.folded(), 0); // waiting for 0
        agg.push(0, outcome(true, 0.5, 1.0));
        assert_eq!(agg.folded(), 1);
        agg.push(1, outcome(true, 0.5, 1.0));
        assert_eq!(agg.folded(), 3);
        assert!(agg.is_complete());
    }
}
