//! The fabric worker loop: claim trial-range leases from a coordinator,
//! run each lease's trials on the runtime executor, write every record to
//! a local shard store, and stream it back idempotently.
//!
//! [`run_worker`] picks a job, [`JobRunner`] rebuilds the workload its
//! header describes (the one step the CLI and the tests do differently),
//! and one loop runs the job: claim a lease, run its indices through
//! [`dpaudit_runtime::run_trials`], and handle each completed record on
//! the calling thread — append it to the shard, renew the lease once half
//! its TTL has passed, count it, submit it. The lease's TTL and last
//! touch and the coordinator-gone flag are plain locals of that loop.
//!
//! Robustness: every request runs under jittered-backoff retry
//! ([`crate::client::Backoff`]); shard records are fsync'd locally
//! *before* submission, so a crash between append and ack loses nothing —
//! the coordinator reclaims the lease and re-grants, and any straggler
//! re-submission dedupes by trial index. A failed append or a rejected
//! submission ends the job with that error once the lease's in-flight
//! trials finish. Once the coordinator is gone (a connection-level failure
//! after first contact), the rest of the lease's records still go to the
//! shard, but the worker sends no further request. A shutdown flag (see
//! [`crate::signal`]) drains the worker gracefully: in-flight trials
//! finish and submit, no new lease is claimed.
//!
//! # Observability
//!
//! The loop stamps the ambient trace context (job / worker / lease ids,
//! see [`dpaudit_obs::set_context`]) so a trial's spans correlate across
//! nodes, and — when [`WorkerConfig::metrics`] carries a registry — ships
//! [`dpaudit_obs::MetricsSnapshot`] deltas piggybacked on the submit and
//! renew calls it already makes. The baseline lives for the whole run, as
//! the registry does, and advances only on an acknowledged shipment: a
//! dropped request's delta rides the next one, and no job's metrics ship
//! twice.

use crate::client::{seed_from_id, Backoff, Client};
use crate::protocol::{
    valid_job_id, JobDescriptor, LeaseReply, LeaseRequest, RenewRequest, SubmitHeader,
};
use dpaudit_dpsgd::NeighborPair;
use dpaudit_nn::Sequential;
use dpaudit_obs::{self as obs, MetricsRegistry, MetricsSnapshot, Sink as _, TraceContext};
use dpaudit_runtime::{run_trials, ExecPlan, Parallelism, StoreHeader, TrialRecord, TrialStore};
use rand::rngs::StdRng;
use std::path::PathBuf;
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
    /// Workers across a lease's trials and inside each trial's clip loop;
    /// cannot change any record.
    pub parallelism: Parallelism,
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
    /// Defaults: whole queue, 8 trials per lease, machine parallelism
    /// across trials with a sequential clip loop, 200 ms poll, 5 attempts
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
            parallelism: Parallelism::trials(0),
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

/// The workload a job header describes: what a [`JobRunner`] rebuilds.
pub struct JobWorkload {
    /// The neighbouring datasets D and D′.
    pub pair: NeighborPair,
    /// Builds a freshly initialised model from a trial's RNG.
    pub model: Box<dyn Fn(&mut StdRng) -> Sequential + Sync>,
}

/// How a worker rebuilds the workload of a job it is about to run: the
/// CLI from the bench workloads, tests from a toy one.
pub trait JobRunner {
    /// The pair and the model `header` describes.
    ///
    /// # Errors
    /// A header this runner cannot run, or a failed rebuild.
    fn workload(&mut self, job: &str, header: &StoreHeader) -> std::io::Result<JobWorkload>;
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

/// Make one request carrying the registry's delta since the acknowledged
/// `shipped` baseline (`None` without a registry or when nothing changed),
/// and advance the baseline only once the request succeeds.
fn with_shipment<T>(
    config: &WorkerConfig,
    shipped: &mut MetricsSnapshot,
    request: impl FnOnce(Option<MetricsSnapshot>) -> std::io::Result<T>,
) -> std::io::Result<T> {
    let (snapshot, delta) = config
        .metrics
        .as_ref()
        .map(|registry| {
            let snapshot = registry.snapshot();
            let delta = snapshot.delta_since(shipped);
            (snapshot, delta)
        })
        .filter(|(_, delta)| !delta.is_empty())
        .unzip();
    let reply = request(delta)?;
    if let Some(snapshot) = snapshot {
        *shipped = snapshot;
    }
    Ok(reply)
}

/// Claim `job`'s next lease, polling through `Wait`: its id, indices and
/// TTL, or `None` once the job is done, on shutdown, or when the
/// coordinator has gone (`gone` set).
fn claim(
    config: &WorkerConfig,
    client: &Client,
    job: &str,
    backoff: &mut Backoff,
    gone: &mut bool,
) -> std::io::Result<Option<(u64, Vec<usize>, Duration)>> {
    let request = LeaseRequest {
        worker: config.worker_id.clone(),
        job: Some(job.to_string()),
        max_trials: config.max_trials,
    };
    while !config.shutdown.load(Ordering::Relaxed) {
        // `run_worker` has already fetched the job from the coordinator, so
        // a connection-level failure now means it went away (e.g.
        // `--exit-when-done` beat our poll): end the job, not an error.
        match Client::with_retry(backoff, || client.claim(&request)) {
            Ok(LeaseReply::Granted {
                lease,
                indices,
                ttl_ms,
                ..
            }) => return Ok(Some((lease, indices, Duration::from_millis(ttl_ms.max(1))))),
            Ok(LeaseReply::Wait) => sleep_interruptible(config.poll, &config.shutdown),
            Ok(LeaseReply::Done) => break,
            Err(err) if is_connection_error(&err) => {
                *gone = true;
                break;
            }
            Err(err) => return Err(err),
        }
    }
    Ok(None)
}

/// Run one job: rebuild its workload, then claim leases until the job is
/// done, running each lease's trials and handling every record in turn —
/// append to the shard, renew at half-TTL, count, submit. Adds to
/// `summary`; `shipped` is the run's acknowledged metrics baseline.
fn run_job(
    config: &WorkerConfig,
    client: &Client,
    descriptor: &JobDescriptor,
    runner: &mut dyn JobRunner,
    shipped: &mut MetricsSnapshot,
    summary: &mut WorkerSummary,
) -> std::io::Result<()> {
    let (job, header) = (&descriptor.job, &descriptor.header);
    let workload = runner.workload(job, header)?;
    let plan = ExecPlan::for_header(header, config.parallelism);
    let mut backoff = config.backoff();
    let mut shard: Option<TrialStore> = None;
    while !summary.coordinator_gone {
        let Some((lease, indices, ttl)) = claim(
            config,
            client,
            job,
            &mut backoff,
            &mut summary.coordinator_gone,
        )?
        else {
            break;
        };
        summary.leases += 1;
        obs::set_lease(Some(lease));
        let mut last_touch = Instant::now();
        let mut handle = |record: TrialRecord| -> std::io::Result<()> {
            // Durable-local-first: the shard line survives any submit
            // failure. The shard opens on the first record, so a worker
            // that never wins a lease leaves no empty shard behind; a shard
            // a previous run left is continued, one of another header
            // refused.
            if shard.is_none() {
                std::fs::create_dir_all(&config.shard_dir)?;
                let path = config
                    .shard_dir
                    .join(format!("{job}.{}.jsonl", config.worker_id));
                shard = Some(TrialStore::open(&path, header)?.0);
            }
            shard.as_mut().expect("just opened").append(&record)?;
            // Once the coordinator is gone, the shard alone keeps the
            // record for `fabric merge`; no request could land.
            if summary.coordinator_gone {
                return Ok(());
            }
            // Explicit heartbeat: long trials outlive their lease
            // otherwise. A failed renewal is not fatal: the submission
            // that follows is idempotent either way.
            if last_touch.elapsed() > ttl / 2 {
                let renewed = with_shipment(config, shipped, |metrics| {
                    let request = RenewRequest {
                        lease,
                        worker: config.worker_id.clone(),
                        metrics,
                    };
                    Client::with_retry(&mut backoff, || client.renew(&request))
                });
                if renewed.is_ok_and(|reply| reply.renewed) {
                    last_touch = Instant::now();
                }
            }
            // Count into the worker's own registry (not global dispatch),
            // so the shipped snapshot carries it even with no global sink
            // installed — and several in-process workers stay separable.
            if let Some(registry) = &config.metrics {
                registry.record(&obs::Event::Counter {
                    name: obs::names::FABRIC_WORKER_TRIALS.into(),
                    delta: 1,
                });
            }
            let submitted = with_shipment(config, shipped, |metrics| {
                let submit = SubmitHeader {
                    job: job.clone(),
                    lease: Some(lease),
                    worker: config.worker_id.clone(),
                    metrics,
                };
                Client::with_retry(&mut backoff, || {
                    client.submit(&submit, std::slice::from_ref(&record))
                })
            });
            match submitted {
                // `accepted: 0, duplicates: 1` is the reclaimed-straggler
                // case: someone else already ran this index to the same
                // bytes. Fine.
                Ok(_) => last_touch = Instant::now(),
                // A reclaimed straggler can outlive the coordinator itself:
                // the record is already durably in the local shard, and
                // merge still sees it.
                Err(err) if is_connection_error(&err) => summary.coordinator_gone = true,
                Err(err) => return Err(err),
            }
            Ok(())
        };
        // The first error ends the job once the lease's in-flight trials,
        // which cannot be cancelled, finish; their records are dropped.
        let mut failed = None;
        run_trials(
            &workload.pair,
            &header.settings,
            None,
            &workload.model,
            &plan,
            &indices,
            |record| {
                if failed.is_none() {
                    match handle(record) {
                        Ok(()) => summary.executed += 1,
                        Err(err) => failed = Some(err),
                    }
                }
            },
        );
        if let Some(err) = failed {
            return Err(err);
        }
        obs::set_lease(None);
    }
    Ok(())
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
/// configured filter, rebuild its workload through `runner`, lease and
/// execute its trials, and move on until the queue is drained (or the
/// shutdown flag stops it).
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
    // Registry state as of the last acknowledged shipment. The registry
    // counts across jobs, so the baseline does too.
    let mut shipped = MetricsSnapshot::default();
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
        // emit carries the (job, worker) pair; the job's loop stamps the
        // lease id on grant and clears it once the lease's records are in.
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
        let result = run_job(
            config,
            &client,
            &descriptor,
            runner,
            &mut shipped,
            &mut summary,
        );
        // Back to the worker-level context between jobs.
        obs::set_context(worker_context());
        result?;
        if !summary.jobs.contains(&job_id) {
            summary.jobs.push(job_id);
        }
        if summary.coordinator_gone {
            break;
        }
    }
    Ok(summary)
}
