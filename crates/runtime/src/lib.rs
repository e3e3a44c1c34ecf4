#![warn(missing_docs)]
//! Parallel, resumable execution engine for Exp^DI audits.
//!
//! The Monte-Carlo side of the paper (empirical advantage, belief
//! distributions, empirical δ, the three ε′ estimators of §6.4) needs
//! hundreds to thousands of independent DPSGD trainings per configuration.
//! This crate turns those batches from an in-memory `map` into a durable,
//! restartable computation:
//!
//! * [`executor`] — [`run_trials`], the one function that runs trials: it
//!   schedules them across a rayon worker pool and streams each completed
//!   trial back to the calling thread. [`AuditSession::run`] and the
//!   `dpaudit-fabric` worker both call it. Every trial's randomness
//!   derives only from `trial_seed(master_seed, idx)`, so results are
//!   bit-identical at any worker count.
//! * [`store`] — an append-only JSONL trial store: one fsync'd line per
//!   trial under a header carrying the full batch description. A crash can
//!   lose at most the line being written; replay tolerates exactly that.
//!   [`read_store`] is the one reading of a store: one record per trial
//!   index, for every reader.
//! * [`session`] — ties the two together with crash-safe resume: replay
//!   the store, run only the missing trial indices, and aggregate.
//! * [`aggregate`] — streaming O(1)-memory folds (success rate, advantage,
//!   max belief, empirical δ, mean ε′-from-LS) behind an index-order
//!   reorder buffer; [`StreamingAggregates::finish`] builds every
//!   `AuditReport` this workspace prints or stores.
//! * [`progress`] — trials/sec and ETA callbacks.
//! * [`report`] — replay a store offline and render reports.

pub mod aggregate;
pub mod executor;
pub mod progress;
pub mod report;
pub mod session;
pub mod store;
#[doc(hidden)]
pub mod testkit;

pub use aggregate::{StreamingAggregates, TrialOutcome};
pub use executor::{execute_trial, run_trials, ExecPlan, Parallelism};
pub use progress::{Progress, ProgressMeter};
pub use report::{render_partial, render_report, replay_store, StoreReport};
pub use session::{check_runnable, AuditSession, RunOutcome};
pub use store::{
    read_store, Seed, StoreContents, StoreHeader, TrialRecord, TrialStore, MAX_REPS, MAX_STEPS,
    MAX_TRAIN_SIZE, SCHEMA_VERSION,
};
