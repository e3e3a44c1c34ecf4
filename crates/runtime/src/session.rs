//! The audit session: one batch of Exp^DI trials, optionally backed by a
//! durable trial store, with crash-safe resume.
//!
//! Lifecycle:
//!
//! 1. [`AuditSession::create`] (fresh store), [`AuditSession::resume`]
//!    (replay an existing store, truncating a crash-torn tail), or
//!    [`AuditSession::in_memory`] (no durability).
//! 2. The caller rebuilds the workload (neighbouring pair, model builder)
//!    from the header's `workload`/`train_size`/`world_seed` fields.
//! 3. [`AuditSession::run`] executes exactly the missing trial indices in
//!    parallel, appending each record durably before it is aggregated, and
//!    returns the final [`AuditReport`].
//!
//! Because every trial is a pure function of `trial_seed(master_seed, idx)`
//! and aggregates fold in index order, a killed-and-resumed run produces
//! bit-identical aggregate output to an uninterrupted one, at any worker
//! count.

use crate::aggregate::{StreamingAggregates, TrialOutcome};
use crate::executor::{run_trials, ExecPlan, Parallelism};
use crate::progress::{Progress, ProgressMeter};
use crate::store::{
    read_store, StoreHeader, TrialRecord, TrialStore, MAX_REPS, MAX_STEPS, MAX_TRAIN_SIZE,
};
use dpaudit_core::{AuditReport, MaxBeliefEstimator};
use dpaudit_datasets::Dataset;
use dpaudit_dpsgd::NeighborPair;
use dpaudit_nn::Sequential;
use dpaudit_obs as obs;
use rand::rngs::StdRng;
use std::path::Path;

/// Outcome of [`AuditSession::run`].
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// The final aggregate report over all `reps` trials.
    pub report: AuditReport,
    /// Trials executed by this run.
    pub executed: usize,
    /// Trials replayed from the store (non-zero only on resume).
    pub replayed: usize,
}

/// A batch of trials bound to (optionally) a durable store.
pub struct AuditSession {
    header: StoreHeader,
    store: Option<TrialStore>,
    /// Stored records to replay, one per index, ascending.
    existing: Vec<TrialRecord>,
    /// Indices with no stored record, ascending: what [`Self::run`] executes.
    missing: Vec<usize>,
}

/// The one runnable-header check: reject a header whose `reps`, `steps` or
/// `train_size` is zero or above its bound ([`MAX_REPS`], [`MAX_STEPS`],
/// [`MAX_TRAIN_SIZE`]), whose trial settings the builder would refuse
/// ([`TrialSettings::check`](dpaudit_core::TrialSettings::check)), or
/// whose recorded compute backend this binary cannot run, *before* any
/// trial runs or any store byte is written. Store readers never call it,
/// so old stores still report.
///
/// Trial records are a pure function of the seeds **and** the backend's
/// floating-point accumulation order, so running a `blas` store's missing
/// trials on the native kernels would silently break the bit-identical
/// resume guarantee. The error names the store schema version so operators
/// can tell a removed backend from a corrupt store.
///
/// # Errors
/// `InvalidInput` naming the field and its bound, the invalid setting, or
/// the removed backend.
pub fn check_runnable(header: &StoreHeader) -> std::io::Result<()> {
    let invalid = |message: String| std::io::Error::new(std::io::ErrorKind::InvalidInput, message);
    let steps = header.settings.dpsgd.steps;
    for (field, value, max) in [
        ("reps", header.reps, MAX_REPS),
        ("steps", steps, MAX_STEPS),
        ("train_size", header.train_size, MAX_TRAIN_SIZE),
    ] {
        if !(1..=max).contains(&value) {
            return Err(invalid(format!(
                "header {field} {value} is outside the bound 1..={max}"
            )));
        }
    }
    header
        .settings
        .check()
        .map_err(|e| invalid(format!("header {e}")))?;
    header.settings.dpsgd.backend.resolve().map_err(|e| {
        invalid(format!(
            "store (schema v{}): {e}; its trials would not be bit-identical \
             on another backend",
            header.schema_version,
        ))
    })?;
    Ok(())
}

impl AuditSession {
    /// A session with no durable store: results live only in memory.
    pub fn in_memory(header: StoreHeader) -> Self {
        AuditSession {
            missing: (0..header.reps).collect(),
            header,
            store: None,
            existing: Vec::new(),
        }
    }

    /// Create a fresh store at `path` (truncating any existing file) and
    /// durably write the header.
    ///
    /// # Errors
    /// I/O errors from store creation, or a header naming a removed
    /// compute backend.
    pub fn create(path: &Path, header: StoreHeader) -> std::io::Result<Self> {
        check_runnable(&header)?;
        let store = TrialStore::create(path, &header)?;
        Ok(AuditSession {
            missing: (0..header.reps).collect(),
            header,
            store: Some(store),
            existing: Vec::new(),
        })
    }

    /// Resume from an existing store: validate the header, keep one record
    /// per stored index (the store's reading rule), and cut off a
    /// crash-torn partial tail so appends continue from a clean line
    /// boundary.
    ///
    /// # Errors
    /// I/O errors, corrupt stores, schema-version mismatches, or a store
    /// recorded with a removed compute backend (the missing trials could
    /// not be executed bit-identically).
    pub fn resume(path: &Path) -> std::io::Result<Self> {
        let contents = read_store(path)?;
        check_runnable(&contents.header)?;
        let store = TrialStore::open_append(path, contents.keep_bytes)?;
        Ok(AuditSession {
            header: contents.header,
            store: Some(store),
            existing: contents.records,
            missing: contents.missing,
        })
    }

    /// The batch description this session was created or resumed with.
    pub fn header(&self) -> &StoreHeader {
        &self.header
    }

    /// Trial indices not yet present — exactly what [`Self::run`] will
    /// execute.
    pub fn missing_indices(&self) -> Vec<usize> {
        self.missing.clone()
    }

    /// Run the missing trials on `parallelism.trial_threads` workers
    /// (0 = machine parallelism) and aggregate the full batch;
    /// `parallelism.batch_threads` additionally parallelises the DPSGD
    /// clip loop inside each trial without changing any result.
    ///
    /// `on_progress` fires on the coordinating thread after every
    /// completed trial. When `sink` is provided it receives every record
    /// of the batch (replayed and executed), sorted by trial index — used
    /// by callers that need per-trial series, at the cost of O(reps)
    /// memory; pass `None` for the O(1) aggregate-only path.
    ///
    /// # Errors
    /// The first store-append failure, reported after the batch finishes.
    ///
    /// # Panics
    /// Propagates trial-execution panics (invalid settings).
    pub fn run(
        &mut self,
        pair: &NeighborPair,
        test_set: Option<&Dataset>,
        model_builder: impl Fn(&mut StdRng) -> Sequential + Sync,
        parallelism: Parallelism,
        mut on_progress: impl FnMut(Progress),
        mut sink: Option<&mut Vec<TrialRecord>>,
    ) -> std::io::Result<RunOutcome> {
        let run_span = obs::span(obs::names::RUN_SPAN);
        let header = &self.header;
        let mut aggregates = StreamingAggregates::for_header(header);
        if obs::enabled() {
            // Anchor the live ε′ stream: the budget the run is audited
            // against, so exporters can draw ε′ vs ε without extra context.
            obs::gauge_max(obs::names::EPS_TARGET_GAUGE, header.target_epsilon);
        }
        for record in &self.existing {
            if obs::enabled() {
                // Replayed trials were not re-executed, so their ledger
                // events never stream; fold their final ε′ contributions
                // into the gauges directly so a resumed run's telemetry
                // still converges to the stored report's values.
                if record.eps_ls.is_finite() {
                    obs::gauge_max(obs::names::EPS_PRIME_LS_GAUGE, record.eps_ls);
                }
                let eps_belief = MaxBeliefEstimator::from_max_belief(record.trial.belief_trained);
                if eps_belief.is_finite() {
                    obs::gauge_max(obs::names::EPS_PRIME_GAUGE, eps_belief);
                }
            }
            aggregates.push(record.idx, TrialOutcome::from(record));
            if let Some(out) = sink.as_deref_mut() {
                out.push(record.clone());
            }
        }
        let replayed = self.existing.len();
        if replayed > 0 {
            obs::counter(obs::names::TRIALS_REPLAYED, replayed as u64);
        }
        let missing = &self.missing;
        let plan = ExecPlan::for_header(header, parallelism);

        let mut meter = ProgressMeter::new(missing.len(), replayed);
        let mut io_error: Option<std::io::Error> = None;
        let store = &mut self.store;
        // Each record is folded on the coordinating thread. A store-append
        // failure is captured but does not stop the batch: in-flight
        // trials still aggregate.
        run_trials(
            pair,
            &header.settings,
            test_set,
            model_builder,
            &plan,
            missing,
            |record| {
                if io_error.is_none() {
                    if let Some(store) = store.as_mut() {
                        if let Err(e) = store.append(&record) {
                            io_error = Some(e);
                        }
                    }
                }
                aggregates.push(record.idx, TrialOutcome::from(&record));
                if let Some(out) = sink.as_deref_mut() {
                    out.push(record);
                }
                on_progress(meter.tick());
            },
        );
        if let Some(e) = io_error {
            return Err(e);
        }
        if let Some(out) = sink {
            out.sort_by_key(|r| r.idx);
        }
        drop(run_span);
        Ok(RunOutcome {
            report: aggregates.finish(),
            executed: missing.len(),
            replayed,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::store::{Seed, SCHEMA_VERSION};
    use crate::testkit;
    use dpaudit_core::{rho_beta, LocalSensitivityEstimator, RecordDetail, Sampling};

    fn toy_header(reps: usize, detail: RecordDetail) -> StoreHeader {
        StoreHeader {
            schema_version: SCHEMA_VERSION,
            label: "session-test".into(),
            workload: "toy".into(),
            train_size: 8,
            world_seed: Seed(0),
            reps,
            master_seed: Seed(42),
            target_epsilon: 2.0,
            delta: 1e-3,
            rho_beta_bound: rho_beta(2.0),
            detail,
            settings: testkit::toy_settings(3),
        }
    }

    #[test]
    fn in_memory_session_matches_batch_harness() {
        // The sequential reference, folded by hand: per-trial ε′-from-LS in
        // trial order, and the `DiBatchResult` folds for the rest.
        let pair = testkit::toy_pair();
        let header = toy_header(5, RecordDetail::Full);
        let batch = dpaudit_core::run_di_trials(
            &pair,
            &header.settings,
            None,
            testkit::toy_model,
            header.reps,
            header.master_seed.0,
        );
        let mean_eps_ls = batch
            .trials
            .iter()
            .map(|t| {
                LocalSensitivityEstimator::per_trial(
                    &t.sigmas,
                    &t.local_sensitivities,
                    header.delta,
                    header.settings.dpsgd.ls_floor,
                )
            })
            .sum::<f64>()
            / batch.trials.len() as f64;
        let empirical_delta = batch.empirical_delta(header.rho_beta_bound);

        let mut session = AuditSession::in_memory(header);
        let mut records = Vec::new();
        let outcome = session
            .run(
                &pair,
                None,
                testkit::toy_model,
                Parallelism::trials(2),
                |_| {},
                Some(&mut records),
            )
            .unwrap();
        assert_eq!(outcome.executed, 5);
        assert_eq!(outcome.replayed, 0);
        assert_eq!(records.len(), 5);
        let report = &outcome.report;
        assert_eq!(report.eps_from_ls.to_bits(), mean_eps_ls.to_bits());
        assert_eq!(report.advantage.to_bits(), batch.advantage().to_bits());
        assert_eq!(report.max_belief.to_bits(), batch.max_score().to_bits());
        assert_eq!(report.empirical_delta.to_bits(), empirical_delta.to_bits());
    }

    #[test]
    fn blas_store_refuses_resume_on_a_native_only_binary() {
        // The blas backend is gone, but stores it recorded still exist. They
        // must parse (for reports), and neither create nor resume may run
        // their trials on the native kernels: the records would silently
        // follow a different accumulation order.
        let mut header = toy_header(2, RecordDetail::Summary);
        header.settings.dpsgd.backend = dpaudit_dpsgd::BackendChoice::Blas;
        let dir = std::env::temp_dir().join(format!("dpaudit-backend-gate-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("blas-store.jsonl");

        let err = AuditSession::create(&path, header.clone())
            .err()
            .expect("create must refuse a blas header");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        let msg = err.to_string();
        assert!(msg.contains("backend `blas` was removed"), "{msg}");
        assert!(msg.contains(&format!("schema v{SCHEMA_VERSION}")), "{msg}");
        assert!(msg.contains("bit-identical"), "{msg}");

        // Write the same store via a native header, then flip the recorded
        // backend on disk to simulate a store from an older blas build.
        header.settings.dpsgd.backend = dpaudit_dpsgd::BackendChoice::Native;
        drop(AuditSession::create(&path, header).expect("native header is accepted"));
        let text = std::fs::read_to_string(&path).unwrap();
        let flipped = text.replace("\"backend\":\"Native\"", "\"backend\":\"Blas\"");
        assert_ne!(text, flipped, "header should record the backend");
        std::fs::write(&path, flipped).unwrap();
        let contents = read_store(&path).expect("a blas store still parses");
        assert_eq!(
            contents.header.settings.dpsgd.backend,
            dpaudit_dpsgd::BackendChoice::Blas
        );
        let err = AuditSession::resume(&path)
            .err()
            .expect("resume must refuse a blas store");
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(err.to_string().contains("removed"), "{err}");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn out_of_bound_reps_or_steps_are_not_runnable() {
        let mut header = toy_header(MAX_REPS, RecordDetail::Summary);
        header.settings.dpsgd.steps = MAX_STEPS;
        check_runnable(&header).expect("the bounds themselves are runnable");
        for (reps, steps, field) in [
            (
                MAX_REPS + 1,
                3,
                "reps 1048577 is outside the bound 1..=1048576",
            ),
            (0, 3, "reps 0 is outside"),
            (
                2,
                MAX_STEPS + 1,
                "steps 1048577 is outside the bound 1..=1048576",
            ),
            (2, 0, "steps 0 is outside"),
        ] {
            header.reps = reps;
            header.settings.dpsgd.steps = steps;
            let err = check_runnable(&header).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(field), "{err}");
        }
    }

    #[test]
    fn invalid_settings_and_oversize_worlds_are_not_runnable() {
        // Headers the builder would refuse. Run, each panicked in the
        // trainer, the adversary or the ε′ estimator, except the negative
        // learning rate, which ran and reported.
        let edited = |edit: fn(&mut StoreHeader)| {
            let mut header = toy_header(2, RecordDetail::Summary);
            edit(&mut header);
            header
        };
        check_runnable(&edited(|h| h.train_size = MAX_TRAIN_SIZE))
            .expect("the bound itself is runnable");
        for (header, message) in [
            (
                edited(|h| h.settings.dpsgd.noise_multiplier = 0.0),
                "header invalid trial settings: noise multiplier must be positive, got 0",
            ),
            (
                edited(|h| h.settings.dpsgd.noise_multiplier = -2.0),
                "noise multiplier must be positive, got -2",
            ),
            (
                edited(|h| h.settings.dpsgd.clip_norm = 0.0),
                "clip norm must be positive, got 0",
            ),
            (
                edited(|h| h.settings.dpsgd.ls_floor = 0.0),
                "ls floor must be positive, got 0",
            ),
            (
                edited(|h| h.settings.dpsgd.learning_rate = -1.0),
                "learning rate must be positive, got -1",
            ),
            (
                edited(|h| h.settings.sampling = Sampling::Poisson { q: 1.5 }),
                "poisson sampling rate must be in (0, 1), got 1.5",
            ),
            (
                edited(|h| h.settings.sampling = Sampling::Poisson { q: 0.0 }),
                "poisson sampling rate must be in (0, 1), got 0",
            ),
            (
                edited(|h| h.train_size = MAX_TRAIN_SIZE + 1),
                "train_size 16385 is outside the bound 1..=16384",
            ),
            (edited(|h| h.train_size = 0), "train_size 0 is outside"),
        ] {
            let err = check_runnable(&header).unwrap_err();
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains(message), "{err}");
        }
    }

    #[test]
    fn progress_callback_counts_every_executed_trial() {
        let pair = testkit::toy_pair();
        let mut session = AuditSession::in_memory(toy_header(4, RecordDetail::Summary));
        let mut ticks = Vec::new();
        session
            .run(
                &pair,
                None,
                testkit::toy_model,
                Parallelism::trials(2),
                |p| ticks.push(p),
                None,
            )
            .unwrap();
        assert_eq!(ticks.len(), 4);
        assert_eq!(ticks.last().unwrap().completed, 4);
        assert!(ticks.last().unwrap().trials_per_sec > 0.0);
    }
}
