//! Parallel trial execution on a rayon worker pool.
//!
//! Trials are scheduled across workers and streamed back to the calling
//! thread over a channel as they complete, so the caller can append each
//! record to the durable store and fold it into the streaming aggregates
//! while later trials are still training.
//!
//! Determinism: each trial's randomness is derived solely from
//! `dpaudit_core::trial_seed(master_seed, idx)` — no worker-local state —
//! so which worker runs a trial, and the worker count itself, cannot
//! change any trial's outcome. Completion *order* does vary with
//! scheduling; consumers that care (the aggregator) reorder by index.

use crate::store::{Seed, TrialRecord};
use dpaudit_core::audit::LocalSensitivityEstimator;
use dpaudit_core::experiment::{run_di_trial, trial_seed, TrialSettings};
use dpaudit_core::RecordDetail;
use dpaudit_datasets::Dataset;
use dpaudit_dpsgd::NeighborPair;
use dpaudit_nn::Sequential;
use dpaudit_obs as obs;
use rand::rngs::StdRng;
use rayon::prelude::*;
use rayon::ThreadPoolBuilder;
use std::sync::mpsc;
use std::time::Instant;

/// What to execute and how.
#[derive(Debug, Clone, Copy)]
pub struct ExecPlan {
    /// Master seed; trial `idx` uses `trial_seed(master_seed, idx)`.
    pub master_seed: u64,
    /// Worker count (0 = machine parallelism).
    pub threads: usize,
    /// Clip-loop worker count inside each trial (1 = sequential,
    /// 0 = machine parallelism). Cannot change any result — the clip loop
    /// reduces in fixed chunk order at any worker count.
    pub batch_threads: usize,
    /// Detail level records are stripped to *after* ε′-from-LS is computed.
    pub detail: RecordDetail,
    /// δ for the per-trial ε′-from-LS estimator.
    pub delta: f64,
}

impl ExecPlan {
    /// The plan a store header prescribes, at the given worker allocation.
    ///
    /// Everything result-affecting (master seed, detail, δ) comes from the
    /// header; `parallelism` only chooses worker counts, which cannot
    /// change any trial. Local sessions and fabric workers both build
    /// their plans here, so a header determines the results bit-for-bit
    /// no matter which process executes it.
    pub fn for_header(header: &crate::store::StoreHeader, parallelism: Parallelism) -> ExecPlan {
        ExecPlan {
            master_seed: header.master_seed.0,
            threads: parallelism.trial_threads,
            batch_threads: parallelism.batch_threads,
            detail: header.detail,
            delta: header.delta,
        }
    }
}

/// Worker allocation for one audit run: trials across a pool, plus the
/// DPSGD clip-loop worker count inside each trial. Total concurrency is
/// the product, so the two knobs trade off breadth (many trials) against
/// latency of each trial.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Parallelism {
    /// Trial-level worker count (0 = machine parallelism).
    pub trial_threads: usize,
    /// Intra-trial clip-loop worker count (1 = sequential, 0 = machine
    /// parallelism).
    pub batch_threads: usize,
}

impl Parallelism {
    /// Trial-level parallelism only; the clip loop stays sequential — the
    /// right default when `reps` far exceeds the core count.
    pub fn trials(threads: usize) -> Self {
        Parallelism {
            trial_threads: threads,
            batch_threads: 1,
        }
    }
}

/// Execute one trial end-to-end: derive the seed, run Exp^DI, compute the
/// series-dependent ε′ estimate, then strip to the requested detail.
pub fn execute_trial(
    pair: &NeighborPair,
    settings: &TrialSettings,
    test_set: Option<&Dataset>,
    model_builder: impl Fn(&mut StdRng) -> Sequential + Sync,
    plan: &ExecPlan,
    idx: usize,
) -> TrialRecord {
    let trial_span = obs::span(obs::names::TRIAL_SPAN);
    let seed = trial_seed(plan.master_seed, idx);
    let trial = run_di_trial(pair, settings, test_set, model_builder, seed);
    let eps_ls_span = obs::span(obs::names::EPS_LS_SPAN);
    // Poisson-subsampled trials compose the subsampled Gaussian RDP steps
    // (amplification by subsampling); the per-step σ/LS ledger applies only
    // to the full-batch protocol.
    let eps_ls = match settings.sampling {
        dpaudit_core::Sampling::FullBatch => LocalSensitivityEstimator::per_trial(
            &trial.sigmas,
            &trial.local_sensitivities,
            plan.delta,
            settings.dpsgd.ls_floor,
        ),
        dpaudit_core::Sampling::Poisson { q } => LocalSensitivityEstimator::per_trial_subsampled(
            q,
            settings.dpsgd.noise_multiplier,
            trial.sigmas.len(),
            plan.delta,
        ),
    };
    drop(eps_ls_span);
    obs::counter(obs::names::TRIALS_EXECUTED, 1);
    drop(trial_span);
    TrialRecord {
        idx,
        seed: Seed(seed),
        eps_ls,
        trial: trial.with_detail(plan.detail),
    }
}

/// Run the trials at `indices` across the worker pool, invoking
/// `on_record` on the calling thread for each completed trial, in
/// completion order.
///
/// # Panics
/// Propagates panics from trial execution (e.g. invalid settings).
pub fn run_trials(
    pair: &NeighborPair,
    settings: &TrialSettings,
    test_set: Option<&Dataset>,
    model_builder: impl Fn(&mut StdRng) -> Sequential + Sync,
    plan: &ExecPlan,
    indices: &[usize],
    mut on_record: impl FnMut(TrialRecord),
) {
    if indices.is_empty() {
        return;
    }
    // Arm the process-wide intra-trial knob; each trial's trainer builds
    // its own clip-loop pool from it.
    dpaudit_dpsgd::set_batch_threads(plan.batch_threads);
    let pool = ThreadPoolBuilder::new()
        .num_threads(plan.threads)
        .build()
        .expect("thread pool construction cannot fail");
    let work: Vec<usize> = indices.to_vec();
    let builder = &model_builder;
    // Queue wait = time from batch dispatch until a worker picks the trial
    // up; measured only when a sink is listening.
    let dispatched_at = obs::enabled().then(Instant::now);

    std::thread::scope(|scope| {
        let (tx, rx) = mpsc::channel::<TrialRecord>();
        let producer = scope.spawn(move || {
            pool.install(|| {
                work.into_par_iter().for_each(|idx| {
                    if let Some(t0) = dispatched_at {
                        let waited = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
                        obs::span_nanos(obs::names::QUEUE_WAIT_SPAN, waited);
                    }
                    let record = execute_trial(pair, settings, test_set, builder, plan, idx);
                    tx.send(record)
                        .expect("trial receiver dropped while workers were running");
                });
            });
            // `tx` drops here, ending the receiver loop below.
        });
        for record in rx {
            on_record(record);
        }
        producer.join().expect("trial producer panicked");
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testkit;

    #[test]
    fn worker_count_does_not_change_any_trial() {
        let pair = testkit::toy_pair();
        let settings = testkit::toy_settings(4);
        let plan = ExecPlan {
            master_seed: 42,
            threads: 1,
            batch_threads: 1,
            detail: RecordDetail::Full,
            delta: 1e-3,
        };
        let indices: Vec<usize> = (0..6).collect();

        let run = |threads: usize| {
            let plan = ExecPlan { threads, ..plan };
            let mut records = Vec::new();
            run_trials(
                &pair,
                &settings,
                None,
                testkit::toy_model,
                &plan,
                &indices,
                |r| records.push(r),
            );
            records.sort_by_key(|r| r.idx);
            records
        };
        let serial = run(1);
        let parallel = run(4);
        assert_eq!(serial.len(), 6);
        assert_eq!(serial, parallel);
    }

    #[test]
    fn records_match_the_serial_harness_seed_for_seed() {
        let pair = testkit::toy_pair();
        let settings = testkit::toy_settings(3);
        let plan = ExecPlan {
            master_seed: 7,
            threads: 2,
            batch_threads: 1,
            detail: RecordDetail::Full,
            delta: 1e-3,
        };
        let batch = dpaudit_core::run_di_trials(
            &pair,
            &settings,
            None,
            testkit::toy_model,
            4,
            plan.master_seed,
        );
        let mut records = Vec::new();
        run_trials(
            &pair,
            &settings,
            None,
            testkit::toy_model,
            &plan,
            &(0..4).collect::<Vec<_>>(),
            |r| records.push(r),
        );
        records.sort_by_key(|r| r.idx);
        for (record, trial) in records.iter().zip(&batch.trials) {
            assert_eq!(&record.trial, trial);
            assert_eq!(record.seed.0, trial_seed(plan.master_seed, record.idx));
        }
    }

    #[test]
    fn summary_detail_strips_series_but_keeps_eps_ls() {
        let pair = testkit::toy_pair();
        let settings = testkit::toy_settings(3);
        let full_plan = ExecPlan {
            master_seed: 9,
            threads: 1,
            batch_threads: 1,
            detail: RecordDetail::Full,
            delta: 1e-3,
        };
        let summary_plan = ExecPlan {
            detail: RecordDetail::Summary,
            ..full_plan
        };
        let full = execute_trial(&pair, &settings, None, testkit::toy_model, &full_plan, 0);
        let summary = execute_trial(&pair, &settings, None, testkit::toy_model, &summary_plan, 0);
        assert_eq!(full.trial.sigmas.len(), 3);
        assert!(summary.trial.sigmas.is_empty());
        assert!(summary.trial.belief_history.is_empty());
        assert!(summary.trial.local_sensitivities.is_empty());
        assert_eq!(full.eps_ls.to_bits(), summary.eps_ls.to_bits());
        assert_eq!(full.trial.belief_trained, summary.trial.belief_trained);
    }
}
