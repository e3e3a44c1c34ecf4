#![warn(missing_docs)]
//! `dpaudit-fabric`: a distributed coordinator/worker fabric for Exp^DI
//! audit batches.
//!
//! A single audit configuration needs hundreds to thousands of
//! independent DPSGD trainings; one machine's cores bound the wall-clock.
//! This crate spreads a batch across machines while keeping the
//! single-node determinism contract: the merged result is **bit-identical**
//! to a local `dpaudit audit run` with the same header, whatever the
//! worker count, lease sizes, failures, or submission order.
//!
//! * [`protocol`] — the line/JSON wire types and endpoint table.
//! * [`coordinator`] — job queue, trial-range leases with TTL +
//!   reclaim-on-timeout, idempotent shard ingest, and the HTTP router
//!   (served on the hardened `dpaudit-obs` listener).
//! * [`client`] — the worker-side HTTP client with jittered-backoff
//!   retries.
//! * [`worker`] — the lease/execute/submit loop: one loop per job that
//!   runs each granted lease through [`dpaudit_runtime::run_trials`], as
//!   `AuditSession::run` runs a local audit.
//! * [`merge`] — deterministic shard merge back into one store/report.
//! * [`signal`] — SIGTERM/SIGINT → graceful drain, dependency-free.
//!
//! Fault model: workers may crash, stall, or double-run trials; the
//! coordinator is the single point of truth and persists every accepted
//! record to an fsync'd trial store before acking, so a coordinator
//! restart resumes from its store like any interrupted local run. Records
//! may appear in any order in a job store or shard; every reader indexes
//! them with the runtime's one reading rule (`dpaudit_runtime::read_store`).

pub mod client;
pub mod coordinator;
pub mod merge;
pub mod protocol;
pub mod signal;
pub mod worker;

pub use client::{seed_from_id, Backoff, Client};
pub use coordinator::{serve, Coordinator, CoordinatorConfig};
pub use merge::merge_shards;
pub use protocol::{
    valid_job_id, FleetReport, FleetWorker, JobDescriptor, JobStatus, JobSubmission, LeaseReply,
    LeaseRequest, RenewReply, RenewRequest, StatusReport, SubmitAck, SubmitHeader,
    PROTOCOL_VERSION,
};
pub use signal::shutdown_flag;
pub use worker::{run_worker, JobRunner, JobWorkload, WorkerConfig, WorkerSummary};
