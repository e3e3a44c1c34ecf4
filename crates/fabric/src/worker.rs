//! The fabric worker loop: claim trial-range leases from a coordinator,
//! run them through the runtime executor, write every record to a local
//! shard store, and stream it back idempotently.
//!
//! The worker plugs into [`dpaudit_runtime::run_from_source`] through the
//! [`TrialSource`]/[`TrialSink`] seam: a lease-backed source turns
//! `POST /lease` polling into trial batches, and a shard-store sink turns
//! each completed record into a durable local append plus a
//! `POST /submit`. The actual
//! trial execution is abstracted behind [`JobRunner`] so tests can drive
//! the loop with a toy workload and the CLI with the full engine.
//!
//! Robustness: every request runs under jittered-backoff retry
//! ([`crate::client::Backoff`]); shard records are fsync'd locally
//! *before* submission, so a crash between append and ack loses nothing —
//! the coordinator reclaims the lease and re-grants, and any straggler
//! re-submission dedupes by trial index. A shutdown flag (see
//! [`crate::signal`]) drains the worker gracefully: in-flight trials
//! finish and submit, no new lease is claimed.
//!
//! # Observability
//!
//! The loop stamps the ambient trace context (job / worker / lease ids,
//! see [`dpaudit_obs::set_context`]) so a trial's spans correlate across
//! nodes, and — when [`WorkerConfig::metrics`] carries a registry — ships
//! [`dpaudit_obs::MetricsSnapshot`] deltas piggybacked on the submit and
//! renew calls it already makes. The baseline only advances on an
//! acknowledged shipment, so a dropped request's delta rides the next one.

use crate::client::{seed_from_id, Backoff, Client};
use crate::protocol::{valid_job_id, LeaseReply, LeaseRequest, RenewRequest, SubmitHeader};
use dpaudit_obs::{self as obs, MetricsRegistry, MetricsSnapshot, Sink as _, TraceContext};
use dpaudit_runtime::{
    LeaseBatch, SourceRunStats, StoreHeader, TrialRecord, TrialSink, TrialSource, TrialStore,
};
use std::cell::{Cell, RefCell};
use std::path::PathBuf;
use std::rc::Rc;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Worker tuning knobs.
#[derive(Debug, Clone)]
pub struct WorkerConfig {
    /// Coordinator address, e.g. `127.0.0.1:7878`.
    pub coordinator: String,
    /// This worker's identity; also names its shard files, so it must be
    /// filename-safe (same rule as job ids).
    pub worker_id: String,
    /// Restrict to one job; `None` drains the whole queue.
    pub job: Option<String>,
    /// Trial indices to ask for per lease.
    pub max_trials: usize,
    /// Sleep between polls while the coordinator says `Wait`.
    pub poll: Duration,
    /// Directory for local shard stores
    /// (`<shard_dir>/<job>.<worker_id>.jsonl`).
    pub shard_dir: PathBuf,
    /// Total tries per request (1 = no retries).
    pub attempts: u32,
    /// Base retry delay (jittered, exponential).
    pub backoff_base: Duration,
    /// Cooperative shutdown flag: when set, finish and submit in-flight
    /// trials, then stop without claiming further leases.
    pub shutdown: Arc<AtomicBool>,
    /// This worker's metrics registry, when metric shipping is wanted.
    /// Held by reference (not read through global dispatch) so several
    /// in-process workers can each ship their own registry.
    pub metrics: Option<Arc<MetricsRegistry>>,
}

impl WorkerConfig {
    /// Defaults: whole queue, 8 trials per lease, 200 ms poll, 5 attempts
    /// with a 100 ms backoff base, and a fresh (never-set) shutdown flag.
    pub fn new(
        coordinator: impl Into<String>,
        worker_id: impl Into<String>,
        shard_dir: impl Into<PathBuf>,
    ) -> Self {
        WorkerConfig {
            coordinator: coordinator.into(),
            worker_id: worker_id.into(),
            job: None,
            max_trials: 8,
            poll: Duration::from_millis(200),
            shard_dir: shard_dir.into(),
            attempts: 5,
            backoff_base: Duration::from_millis(100),
            shutdown: Arc::new(AtomicBool::new(false)),
            metrics: None,
        }
    }

    fn backoff(&self) -> Backoff {
        Backoff::new(
            self.attempts,
            self.backoff_base,
            seed_from_id(&self.worker_id),
        )
    }
}

/// How a worker executes one job's leased trials. Implementations call
/// [`dpaudit_runtime::run_from_source`] with a workload rebuilt from the
/// job header; the source and sink passed in are the worker's lease and
/// shard plumbing.
pub trait JobRunner {
    /// Run every batch `source` yields, submitting each record to `sink`.
    ///
    /// # Errors
    /// Workload construction or execution failures.
    fn run_job(
        &mut self,
        job: &str,
        header: &StoreHeader,
        source: &mut dyn TrialSource,
        sink: &mut dyn TrialSink,
    ) -> std::io::Result<SourceRunStats>;
}

/// What a worker did before exiting.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct WorkerSummary {
    /// Trials executed and submitted.
    pub executed: usize,
    /// Leases claimed.
    pub leases: u64,
    /// Jobs this worker contributed to, in the order first touched.
    pub jobs: Vec<String>,
    /// Whether the exit was a shutdown-flag drain (vs. queue exhaustion).
    pub drained: bool,
    /// The coordinator became unreachable between jobs after we had
    /// already reached it — the expected exit when a `serve
    /// --exit-when-done` coordinator wins the race and stops first.
    pub coordinator_gone: bool,
}

/// Connection-level failures that, *after* a successful first contact,
/// mean the coordinator went away (normal for `--exit-when-done`) rather
/// than that our request was bad.
fn is_connection_error(err: &std::io::Error) -> bool {
    matches!(
        err.kind(),
        std::io::ErrorKind::ConnectionRefused
            | std::io::ErrorKind::ConnectionReset
            | std::io::ErrorKind::ConnectionAborted
            | std::io::ErrorKind::NotConnected
            | std::io::ErrorKind::BrokenPipe
            | std::io::ErrorKind::TimedOut
            | std::io::ErrorKind::UnexpectedEof
    )
}

/// Lease bookkeeping shared between a job's source and sink.
struct ActiveLease {
    ttl: Duration,
    last_touch: Instant,
}

/// [`TrialSource`] over `POST /lease`: polls through `Wait`, stops on
/// `Done`, shutdown, or the coordinator going away (sets `gone`).
struct LeaseSource<'a> {
    client: &'a Client,
    config: &'a WorkerConfig,
    job: String,
    shared: Rc<RefCell<Option<ActiveLease>>>,
    gone: Rc<Cell<bool>>,
    backoff: Backoff,
    leases: u64,
}

impl TrialSource for LeaseSource<'_> {
    fn next_batch(&mut self) -> std::io::Result<Option<LeaseBatch>> {
        loop {
            if self.config.shutdown.load(Ordering::Relaxed) {
                return Ok(None);
            }
            let request = LeaseRequest {
                worker: self.config.worker_id.clone(),
                job: Some(self.job.clone()),
                max_trials: self.config.max_trials,
            };
            // This source only exists after `run_worker` has fetched the
            // job from the coordinator, so a connection-level failure now
            // means it went away (e.g. `--exit-when-done` beat our poll):
            // end the batch stream instead of erroring.
            let reply = match Client::with_retry(&mut self.backoff, || self.client.claim(&request))
            {
                Ok(reply) => reply,
                Err(err) if is_connection_error(&err) => {
                    self.gone.set(true);
                    return Ok(None);
                }
                Err(err) => return Err(err),
            };
            match reply {
                LeaseReply::Granted {
                    lease,
                    indices,
                    ttl_ms,
                    ..
                } => {
                    *self.shared.borrow_mut() = Some(ActiveLease {
                        ttl: Duration::from_millis(ttl_ms.max(1)),
                        last_touch: Instant::now(),
                    });
                    self.leases += 1;
                    obs::set_lease(Some(lease));
                    return Ok(Some(LeaseBatch { lease, indices }));
                }
                LeaseReply::Wait => sleep_interruptible(self.config.poll, &self.config.shutdown),
                LeaseReply::Done => return Ok(None),
            }
        }
    }

    fn complete(&mut self, _lease: u64) -> std::io::Result<()> {
        *self.shared.borrow_mut() = None;
        obs::set_lease(None);
        Ok(())
    }
}

/// [`TrialSink`] appending each record to a local fsync'd shard store and
/// then submitting it; keeps the lease alive by renewing at half-TTL.
struct ShardSink<'a> {
    client: &'a Client,
    config: &'a WorkerConfig,
    job: String,
    header: StoreHeader,
    shared: Rc<RefCell<Option<ActiveLease>>>,
    gone: Rc<Cell<bool>>,
    store: Option<TrialStore>,
    backoff: Backoff,
    /// Registry state as of the last *acknowledged* shipment; the next
    /// shipment is `snapshot.delta_since(&shipped)`.
    shipped: MetricsSnapshot,
}

impl ShardSink<'_> {
    /// The shard file is opened lazily on the first record, so a worker
    /// that never wins a lease leaves no empty shard behind. A shard a
    /// previous run left is continued; one written for another job header
    /// is refused.
    fn store(&mut self) -> std::io::Result<&mut TrialStore> {
        if self.store.is_none() {
            std::fs::create_dir_all(&self.config.shard_dir)?;
            let path = self
                .config
                .shard_dir
                .join(format!("{}.{}.jsonl", self.job, self.config.worker_id));
            self.store = Some(TrialStore::open(&path, &self.header)?.0);
        }
        Ok(self.store.as_mut().expect("just opened"))
    }

    /// The full registry state and the delta not yet acknowledged by the
    /// coordinator, when a registry is attached and the delta is non-empty.
    fn pending_shipment(&self) -> Option<(MetricsSnapshot, MetricsSnapshot)> {
        let registry = self.config.metrics.as_ref()?;
        let snapshot = registry.snapshot();
        let delta = snapshot.delta_since(&self.shipped);
        (!delta.is_empty()).then_some((snapshot, delta))
    }

    /// Explicit heartbeat once more than half the TTL has passed since the
    /// last grant/renewal/submission — long trials outlive their lease
    /// otherwise. A failed renewal is not fatal: the submission that
    /// follows is idempotent either way.
    fn maybe_renew(&mut self, lease: u64) {
        let due = {
            let shared = self.shared.borrow();
            let Some(active) = shared.as_ref() else {
                return;
            };
            active.last_touch.elapsed() > active.ttl / 2
        };
        if due {
            let shipment = self.pending_shipment();
            let request = RenewRequest {
                lease,
                worker: self.config.worker_id.clone(),
                metrics: shipment.as_ref().map(|(_, delta)| delta.clone()),
            };
            let reply = Client::with_retry(&mut self.backoff, || self.client.renew(&request));
            if reply.is_ok() {
                if let Some((snapshot, _)) = shipment {
                    self.shipped = snapshot;
                }
            }
            let renewed = reply.map(|reply| reply.renewed).unwrap_or(false);
            let mut shared = self.shared.borrow_mut();
            if let Some(active) = shared.as_mut() {
                if renewed {
                    active.last_touch = Instant::now();
                }
            }
        }
    }
}

impl TrialSink for ShardSink<'_> {
    fn submit(&mut self, lease: u64, record: TrialRecord) -> std::io::Result<()> {
        // Durable-local-first: the shard line survives any submit failure.
        self.store()?.append(&record)?;
        self.maybe_renew(lease);
        // Count into the worker's own registry (not global dispatch), so
        // the shipped snapshot carries it even with no global sink
        // installed — and several in-process workers stay separable.
        if let Some(registry) = &self.config.metrics {
            registry.record(&obs::Event::Counter {
                name: obs::names::FABRIC_WORKER_TRIALS.into(),
                delta: 1,
            });
        }
        let shipment = self.pending_shipment();
        let submit = SubmitHeader {
            job: self.job.clone(),
            lease: Some(lease),
            worker: self.config.worker_id.clone(),
            metrics: shipment.as_ref().map(|(_, delta)| delta.clone()),
        };
        // A reclaimed straggler can outlive the coordinator itself: the
        // record is already durably in the local shard (merge still sees
        // it), so a vanished coordinator downgrades this submit to a no-op
        // rather than an error.
        let ack = match Client::with_retry(&mut self.backoff, || {
            self.client.submit(&submit, std::slice::from_ref(&record))
        }) {
            Ok(ack) => ack,
            Err(err) if is_connection_error(&err) => {
                self.gone.set(true);
                return Ok(());
            }
            Err(err) => return Err(err),
        };
        // The coordinator acknowledged the shipment: advance the baseline.
        if let Some((snapshot, _)) = shipment {
            self.shipped = snapshot;
        }
        // `accepted: 0, duplicates: 1` is the reclaimed-straggler case:
        // someone else already ran this index to the same bytes. Fine.
        let mut shared = self.shared.borrow_mut();
        if let Some(active) = shared.as_mut() {
            active.last_touch = Instant::now();
        }
        drop(shared);
        let _ = ack;
        Ok(())
    }
}

/// Sleep up to `total`, waking early when the shutdown flag is set.
fn sleep_interruptible(total: Duration, shutdown: &AtomicBool) {
    let slice = Duration::from_millis(25).min(total);
    let deadline = Instant::now() + total;
    while Instant::now() < deadline && !shutdown.load(Ordering::Relaxed) {
        std::thread::sleep(slice);
    }
}

/// Run the worker loop: pick the first unfinished job matching the
/// configured filter, lease and execute its trials through `runner`, and
/// move on until the queue is drained (or the shutdown flag stops it).
///
/// # Errors
/// `InvalidInput` for a non-filename-safe worker id, `NotFound` when the
/// configured job filter names a job the coordinator does not know,
/// transport failures that outlast the retry budget, and runner errors.
pub fn run_worker(
    config: &WorkerConfig,
    runner: &mut dyn JobRunner,
) -> std::io::Result<WorkerSummary> {
    if !valid_job_id(&config.worker_id) {
        return Err(std::io::Error::new(
            std::io::ErrorKind::InvalidInput,
            format!(
                "invalid worker id `{}` (want [A-Za-z0-9._-], ≤ 128 bytes)",
                config.worker_id
            ),
        ));
    }
    let client = Client::new(config.coordinator.clone());
    let mut backoff = config.backoff();
    let mut summary = WorkerSummary::default();
    let mut contacted = false;
    // Worker-level correlation context for the whole loop, so even lines
    // recorded between jobs (poll RTT spans, backoff waits) carry the
    // worker id; cleared on every exit path by the guard.
    let worker_context = || TraceContext {
        job: None,
        worker: Some(config.worker_id.clone()),
        lease: None,
    };
    obs::set_context(worker_context());
    struct ClearContext;
    impl Drop for ClearContext {
        fn drop(&mut self) {
            obs::clear_context();
        }
    }
    let _context_guard = ClearContext;
    loop {
        if config.shutdown.load(Ordering::Relaxed) {
            summary.drained = true;
            break;
        }
        // An `--exit-when-done` coordinator may stop the instant the last
        // trial lands, racing our next poll; once we have reached it at
        // least once, a connection-level failure here is that normal
        // shutdown, not an error.
        let status = match Client::with_retry(&mut backoff, || client.status()) {
            Ok(status) => {
                contacted = true;
                status
            }
            Err(err) if contacted && is_connection_error(&err) => {
                summary.coordinator_gone = true;
                break;
            }
            Err(err) => return Err(err),
        };
        if let Some(want) = &config.job {
            if !status.jobs.iter().any(|job| &job.job == want) {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::NotFound,
                    format!("coordinator has no job `{want}`"),
                ));
            }
        }
        let Some(next) = status
            .jobs
            .iter()
            .find(|job| !job.done && config.job.as_ref().is_none_or(|want| want == &job.job))
        else {
            break; // every matching job is complete (or the queue is empty)
        };
        let job_id = next.job.clone();
        let descriptor = Client::with_retry(&mut backoff, || client.job(&job_id))?;
        // Ambient correlation context: every trace line this job's trials
        // emit carries the (job, worker) pair; the lease id is stamped on
        // grant and cleared on completion by the source.
        obs::set_context(TraceContext {
            job: Some(job_id.clone()),
            worker: Some(config.worker_id.clone()),
            lease: None,
        });
        // Anchor the shipped eps' gauges against the budget this job is
        // audited under, so the coordinator's fleet view can render
        // eps' vs target without any extra context. (Gauges max-fold, so
        // re-recording per job or per process is harmless.)
        if let Some(registry) = &config.metrics {
            registry.record(&obs::Event::GaugeMax {
                name: obs::names::EPS_TARGET_GAUGE.into(),
                value: descriptor.header.target_epsilon,
            });
        }
        let shared = Rc::new(RefCell::new(None));
        let gone = Rc::new(Cell::new(false));
        let mut source = LeaseSource {
            client: &client,
            config,
            job: job_id.clone(),
            shared: shared.clone(),
            gone: gone.clone(),
            backoff: config.backoff(),
            leases: 0,
        };
        let mut sink = ShardSink {
            client: &client,
            config,
            job: job_id.clone(),
            header: descriptor.header.clone(),
            shared,
            gone: gone.clone(),
            store: None,
            backoff: config.backoff(),
            shipped: MetricsSnapshot::default(),
        };
        let stats = runner.run_job(&job_id, &descriptor.header, &mut source, &mut sink);
        // Back to the worker-level context between jobs.
        obs::set_context(worker_context());
        let stats = stats?;
        summary.executed += stats.executed;
        summary.leases += source.leases;
        if !summary.jobs.contains(&job_id) {
            summary.jobs.push(job_id);
        }
        if gone.get() {
            summary.coordinator_gone = true;
            break;
        }
    }
    Ok(summary)
}
