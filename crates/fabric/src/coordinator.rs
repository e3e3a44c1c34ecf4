//! The fabric coordinator: owns every job's trial range, hands out
//! trial-range leases, ingests shard submissions idempotently, and appends
//! accepted records to a per-job trial store that `dpaudit audit report`
//! can replay directly.
//!
//! # Lease state machine
//!
//! Every trial index of a job is in exactly one of three states:
//!
//! ```text
//!            grant                    accepted submission
//! pending ─────────▶ leased ──────────────────────────────▶ completed
//!    ▲                  │
//!    └──────────────────┘
//!      TTL expiry (reclaim)
//! ```
//!
//! * **grant** moves up to `lease_trials` pending indices onto a new lease
//!   with a TTL; renewals and accepted submissions push the expiry out.
//! * **reclaim** runs lazily on every request: an expired lease's
//!   unfinished indices return to the pending pool and the lease is
//!   dropped, so a killed worker's trials are re-granted to others.
//! * **completed** is terminal and idempotent: a re-submitted record
//!   identical to the accepted one is counted a duplicate and dropped; a
//!   *different* record for a completed index is a determinism conflict
//!   and rejected loudly (HTTP 409) — by the executor's seed-derivation
//!   contract that can only mean a mis-built workload or corrupted shard.
//!
//! Because completion is keyed by trial index and every trial is a pure
//! function of `trial_seed(master_seed, idx)`, double execution after a
//! reclaim is wasted work but never wrong data.
//!
//! A restarted coordinator continues its job stores: stored trials start
//! out completed, with the hashes ingest computes, and only the missing
//! indices are pending (see [`Coordinator::submit_job`]).

use crate::protocol::{
    valid_job_id, FleetReport, FleetWorker, JobDescriptor, JobStatus, LeaseReply, LeaseRequest,
    RenewReply, RenewRequest, StatusReport, SubmitAck, SubmitHeader, PROTOCOL_VERSION,
};
use dpaudit_obs::{
    self as obs, render_health, render_prometheus_fleet, MetricsServer, MetricsSnapshot, Request,
    Response, ServerConfig,
};
use dpaudit_runtime::{check_runnable, StoreHeader, TrialRecord, TrialStore};
use std::collections::{BTreeMap, BTreeSet};
use std::net::ToSocketAddrs;
use std::path::PathBuf;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Coordinator tuning knobs.
#[derive(Debug, Clone)]
pub struct CoordinatorConfig {
    /// Directory for per-job trial stores (`<store_dir>/<job>.jsonl`).
    pub store_dir: PathBuf,
    /// Lease time-to-live; a lease untouched for this long is reclaimed.
    pub lease_ttl: Duration,
    /// Upper bound on indices granted per lease, whatever the worker asks.
    pub lease_trials: usize,
}

impl CoordinatorConfig {
    /// Defaults: 30 s TTL, 8 trials per lease.
    pub fn new(store_dir: impl Into<PathBuf>) -> Self {
        CoordinatorConfig {
            store_dir: store_dir.into(),
            lease_ttl: Duration::from_secs(30),
            lease_trials: 8,
        }
    }
}

/// One job's execution state.
struct JobState {
    header: StoreHeader,
    store: TrialStore,
    store_path: PathBuf,
    /// Per-index FNV-1a hash of the accepted record's JSON line; `Some` ⇔
    /// completed. The hash (not the bytes) is kept so dedup/conflict
    /// checks stay O(1) memory per trial; a hash collision masking a
    /// genuine conflict has probability ~2⁻⁶⁴ per pair.
    done: Vec<Option<u64>>,
    completed: usize,
    /// Indices neither completed nor on an unexpired lease.
    pending: BTreeSet<usize>,
    reclaims: u64,
}

struct LeaseState {
    job: String,
    worker: String,
    outstanding: BTreeSet<usize>,
    expires: Instant,
}

#[derive(Default)]
struct Counters {
    granted: u64,
    reclaimed: u64,
    submitted: u64,
    duplicates: u64,
}

/// The coordinator's live view of one worker: lease contact bookkeeping
/// plus the merged metric deltas the worker has shipped (see the protocol
/// module's *Metric shipping* section).
struct WorkerState {
    /// All shipped deltas merged together — the worker's full registry
    /// state, reassembled (deltas are exact under commutative folds).
    snapshot: MetricsSnapshot,
    /// Records accepted from this worker.
    trials_submitted: u64,
    first_seen: Instant,
    last_seen: Instant,
}

struct State {
    jobs: BTreeMap<String, JobState>,
    leases: BTreeMap<u64, LeaseState>,
    next_lease: u64,
    counters: Counters,
    workers: BTreeMap<String, WorkerState>,
}

/// The coordinator: shared, thread-safe state plus the request router.
pub struct Coordinator {
    config: CoordinatorConfig,
    state: Mutex<State>,
    /// Optional `GET /metrics` body (a Prometheus render closure).
    metrics: Option<Box<dyn Fn() -> String + Send + Sync>>,
}

impl Coordinator {
    /// A coordinator with an empty job queue.
    pub fn new(config: CoordinatorConfig) -> Self {
        Coordinator {
            config,
            state: Mutex::new(State {
                jobs: BTreeMap::new(),
                leases: BTreeMap::new(),
                next_lease: 1,
                counters: Counters::default(),
                workers: BTreeMap::new(),
            }),
            metrics: None,
        }
    }

    /// Attach a `GET /metrics` renderer (e.g. a
    /// [`dpaudit_obs::MetricsRegistry`] Prometheus exposition).
    #[must_use]
    pub fn with_metrics_render(
        mut self,
        render: impl Fn() -> String + Send + Sync + 'static,
    ) -> Self {
        self.metrics = Some(Box::new(render));
        self
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, State> {
        // Lock poisoning would need a panic while holding the lock; state
        // mutations are pure bookkeeping plus store appends, so recover.
        self.state.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Enqueue a job: validate the id and header, open its trial store
    /// under the store directory (`TrialStore::open`: created, or continued
    /// after a restart), and expose the indices it lacks as pending.
    /// Returns how many trials the store already held.
    ///
    /// # Errors
    /// `InvalidInput`, before any file is created, for a bad id or a header
    /// no worker can run (`check_runnable`: reps, steps or train size out
    /// of bounds, invalid trial settings, a removed backend),
    /// `AlreadyExists` for a duplicate id,
    /// `InvalidData` (file untouched) for a store of another header or one
    /// the reading rule refuses, I/O errors from the store.
    pub fn submit_job(&self, job: &str, header: StoreHeader) -> std::io::Result<usize> {
        if !valid_job_id(job) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("invalid job id `{job}` (want [A-Za-z0-9._-], ≤ 128 bytes)"),
            ));
        }
        check_runnable(&header)?;
        let mut state = self.lock();
        if state.jobs.contains_key(job) {
            return Err(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("job `{job}` already queued"),
            ));
        }
        std::fs::create_dir_all(&self.config.store_dir)?;
        let store_path = self.config.store_dir.join(format!("{job}.jsonl"));
        let (store, contents) = TrialStore::open(&store_path, &header)?;
        let mut done = vec![None; header.reps];
        for record in &contents.records {
            done[record.idx] = Some(record_hash(record));
        }
        let completed = contents.records.len();
        state.jobs.insert(
            job.to_string(),
            JobState {
                header,
                store,
                store_path,
                done,
                completed,
                pending: contents.missing.into_iter().collect(),
                reclaims: 0,
            },
        );
        obs::counter(obs::names::FABRIC_JOBS, 1);
        Ok(completed)
    }

    /// The stored description of one job.
    pub fn job(&self, id: &str) -> Option<JobDescriptor> {
        self.lock().jobs.get(id).map(|job| JobDescriptor {
            job: id.to_string(),
            header: job.header.clone(),
        })
    }

    /// Where a job's coordinator-side trial store lives.
    pub fn store_path(&self, id: &str) -> Option<PathBuf> {
        self.lock().jobs.get(id).map(|job| job.store_path.clone())
    }

    /// Every queued job id, ascending.
    pub fn job_ids(&self) -> Vec<String> {
        self.lock().jobs.keys().cloned().collect()
    }

    /// Whether at least one job is queued and every job is complete.
    pub fn all_done(&self) -> bool {
        let state = self.lock();
        !state.jobs.is_empty()
            && state
                .jobs
                .values()
                .all(|job| job.completed == job.header.reps)
    }

    /// Return every expired lease's unfinished indices to the pending
    /// pool. Runs lazily at the head of every state-touching request, so
    /// no background thread is needed.
    fn sweep_expired(state: &mut State, now: Instant) {
        let expired: Vec<u64> = state
            .leases
            .iter()
            .filter(|(_, lease)| lease.expires <= now)
            .map(|(&id, _)| id)
            .collect();
        for id in expired {
            let lease = state.leases.remove(&id).expect("lease id from iteration");
            if let Some(job) = state.jobs.get_mut(&lease.job) {
                for idx in lease.outstanding {
                    if job.done[idx].is_none() {
                        job.pending.insert(idx);
                    }
                }
                job.reclaims += 1;
            }
            state.counters.reclaimed += 1;
            obs::counter(obs::names::FABRIC_LEASES_RECLAIMED, 1);
        }
    }

    /// Record contact from a worker: update its last-seen clock, credit
    /// accepted records, and merge any piggybacked metrics delta.
    fn touch_worker(
        state: &mut State,
        worker: &str,
        now: Instant,
        metrics: Option<&MetricsSnapshot>,
        accepted: u64,
    ) {
        let entry = state
            .workers
            .entry(worker.to_string())
            .or_insert_with(|| WorkerState {
                snapshot: MetricsSnapshot::default(),
                trials_submitted: 0,
                first_seen: now,
                last_seen: now,
            });
        entry.last_seen = now;
        entry.trials_submitted += accepted;
        if let Some(delta) = metrics {
            entry.snapshot.merge(delta);
        }
    }

    /// Grant a trial-range lease (or report `Wait`/`Done`).
    ///
    /// # Errors
    /// `NotFound` when the request names a job that does not exist.
    pub fn claim(&self, request: &LeaseRequest) -> std::io::Result<LeaseReply> {
        self.claim_at(request, Instant::now())
    }

    fn claim_at(&self, request: &LeaseRequest, now: Instant) -> std::io::Result<LeaseReply> {
        let mut state = self.lock();
        Self::sweep_expired(&mut state, now);
        Self::touch_worker(&mut state, &request.worker, now, None, 0);
        let candidates: Vec<String> = match &request.job {
            Some(id) => {
                if !state.jobs.contains_key(id) {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::NotFound,
                        format!("unknown job `{id}`"),
                    ));
                }
                vec![id.clone()]
            }
            None => state.jobs.keys().cloned().collect(),
        };
        for id in &candidates {
            let job = state.jobs.get_mut(id).expect("candidate exists");
            if job.pending.is_empty() {
                continue;
            }
            let want = request.max_trials.max(1).min(self.config.lease_trials);
            let indices: Vec<usize> = job.pending.iter().copied().take(want).collect();
            for idx in &indices {
                job.pending.remove(idx);
            }
            let lease = state.next_lease;
            state.next_lease += 1;
            state.leases.insert(
                lease,
                LeaseState {
                    job: id.clone(),
                    worker: request.worker.clone(),
                    outstanding: indices.iter().copied().collect(),
                    expires: now + self.config.lease_ttl,
                },
            );
            state.counters.granted += 1;
            obs::counter(obs::names::FABRIC_LEASES_GRANTED, 1);
            return Ok(LeaseReply::Granted {
                lease,
                job: id.clone(),
                indices,
                ttl_ms: self.config.lease_ttl.as_millis() as u64,
            });
        }
        let all_done = !candidates.is_empty()
            && candidates
                .iter()
                .all(|id| state.jobs[id].completed == state.jobs[id].header.reps);
        Ok(if all_done {
            LeaseReply::Done
        } else {
            // Includes the empty-queue case: jobs may still arrive.
            LeaseReply::Wait
        })
    }

    /// Heartbeat a lease: push its expiry out one TTL and absorb any
    /// piggybacked metrics delta. `renewed: false` means the lease already
    /// expired and was reclaimed.
    pub fn renew(&self, request: &RenewRequest) -> RenewReply {
        self.renew_at(request, Instant::now())
    }

    fn renew_at(&self, request: &RenewRequest, now: Instant) -> RenewReply {
        let mut state = self.lock();
        Self::sweep_expired(&mut state, now);
        Self::touch_worker(
            &mut state,
            &request.worker,
            now,
            request.metrics.as_ref(),
            0,
        );
        let ttl = self.config.lease_ttl;
        match state.leases.get_mut(&request.lease) {
            Some(lease) => {
                lease.expires = now + ttl;
                RenewReply { renewed: true }
            }
            None => RenewReply { renewed: false },
        }
    }

    /// Ingest submitted records idempotently: new indices are durably
    /// appended to the job's store, exact re-submissions are counted as
    /// duplicates, and a *different* record for a completed index is a
    /// determinism conflict. Accepting a submission also renews the lease
    /// it rode in on, so an active worker's lease never expires mid-batch.
    ///
    /// # Errors
    /// `NotFound` for an unknown job, `AlreadyExists` for a determinism
    /// conflict (records accepted before the conflicting line stay
    /// accepted), I/O errors from the store append.
    pub fn ingest(
        &self,
        submit: &SubmitHeader,
        records: &[TrialRecord],
    ) -> std::io::Result<SubmitAck> {
        self.ingest_at(submit, records, Instant::now())
    }

    fn ingest_at(
        &self,
        submit: &SubmitHeader,
        records: &[TrialRecord],
        now: Instant,
    ) -> std::io::Result<SubmitAck> {
        let mut state = self.lock();
        Self::sweep_expired(&mut state, now);
        let ttl = self.config.lease_ttl;
        let state = &mut *state;
        let Some(job) = state.jobs.get_mut(&submit.job) else {
            return Err(std::io::Error::new(
                std::io::ErrorKind::NotFound,
                format!("unknown job `{}`", submit.job),
            ));
        };
        let mut ack = SubmitAck {
            accepted: 0,
            duplicates: 0,
        };
        for record in records {
            if record.idx >= job.header.reps {
                return Err(std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!(
                        "trial index {} out of range for job `{}` ({} reps)",
                        record.idx, submit.job, job.header.reps
                    ),
                ));
            }
            let hash = record_hash(record);
            match job.done[record.idx] {
                Some(existing) if existing == hash => {
                    ack.duplicates += 1;
                    state.counters.duplicates += 1;
                    obs::counter(obs::names::FABRIC_DUPLICATES, 1);
                }
                Some(_) => {
                    return Err(std::io::Error::new(
                        std::io::ErrorKind::AlreadyExists,
                        format!(
                            "determinism conflict: trial {} of job `{}` was already \
                             submitted with different bytes",
                            record.idx, submit.job
                        ),
                    ));
                }
                None => {
                    job.store.append(record)?;
                    job.done[record.idx] = Some(hash);
                    job.completed += 1;
                    job.pending.remove(&record.idx);
                    // The index may sit on any lease (its own, or an
                    // expired-then-regranted one); clear it everywhere.
                    for lease in state.leases.values_mut() {
                        if lease.job == submit.job {
                            lease.outstanding.remove(&record.idx);
                        }
                    }
                    ack.accepted += 1;
                    state.counters.submitted += 1;
                    obs::counter(obs::names::FABRIC_TRIALS_SUBMITTED, 1);
                }
            }
        }
        // Activity renews the carrying lease; fully-submitted leases close.
        if let Some(id) = submit.lease {
            if let Some(lease) = state.leases.get_mut(&id) {
                lease.expires = now + ttl;
            }
        }
        state
            .leases
            .retain(|_, lease| !lease.outstanding.is_empty());
        Self::touch_worker(
            state,
            &submit.worker,
            now,
            submit.metrics.as_ref(),
            ack.accepted,
        );
        Ok(ack)
    }

    /// The coordinator's public state, for `GET /status` and the CLI.
    pub fn status(&self) -> StatusReport {
        let mut state = self.lock();
        Self::sweep_expired(&mut state, Instant::now());
        let jobs = state
            .jobs
            .iter()
            .map(|(id, job)| {
                let leased: usize = state
                    .leases
                    .values()
                    .filter(|lease| &lease.job == id)
                    .map(|lease| lease.outstanding.len())
                    .sum();
                JobStatus {
                    job: id.clone(),
                    reps: job.header.reps,
                    completed: job.completed,
                    leased,
                    pending: job.pending.len(),
                    reclaims: job.reclaims,
                    done: job.completed == job.header.reps,
                }
            })
            .collect();
        StatusReport {
            protocol_version: PROTOCOL_VERSION,
            jobs,
            leases_granted: state.counters.granted,
            leases_reclaimed: state.counters.reclaimed,
            trials_submitted: state.counters.submitted,
            duplicates: state.counters.duplicates,
        }
    }

    /// The fleet-wide live view for `GET /fleet` and `dpaudit fabric
    /// watch`: per-worker throughput, lease ages, heartbeat lag, and the
    /// ε′ gauges the workers shipped.
    pub fn fleet(&self) -> FleetReport {
        self.fleet_at(Instant::now())
    }

    fn fleet_at(&self, now: Instant) -> FleetReport {
        let mut state = self.lock();
        Self::sweep_expired(&mut state, now);
        let ttl = self.config.lease_ttl;
        let trials_total: usize = state.jobs.values().map(|job| job.header.reps).sum();
        let trials_completed: usize = state.jobs.values().map(|job| job.completed).sum();
        let pending: usize = state.jobs.values().map(|job| job.pending.len()).sum();
        let workers: Vec<FleetWorker> = state
            .workers
            .iter()
            .map(|(id, worker)| {
                let active_leases = state
                    .leases
                    .values()
                    .filter(|lease| &lease.worker == id)
                    .count();
                // A live lease expires one TTL after its last touch, so
                // `expires - ttl` recovers the touch instant.
                let oldest_lease_ms = state
                    .leases
                    .values()
                    .filter(|lease| &lease.worker == id)
                    .map(|lease| {
                        now.saturating_duration_since(lease.expires - ttl)
                            .as_millis() as u64
                    })
                    .max();
                let last_seen = now.saturating_duration_since(worker.last_seen);
                let elapsed = now
                    .saturating_duration_since(worker.first_seen)
                    .as_secs_f64();
                let trials_per_sec = if elapsed > 0.0 {
                    worker.trials_submitted as f64 / elapsed
                } else {
                    0.0
                };
                let eps_prime = [obs::names::EPS_PRIME_GAUGE, obs::names::EPS_PRIME_LS_GAUGE]
                    .iter()
                    .filter_map(|name| worker.snapshot.gauges.get(*name).copied())
                    .fold(None, |acc: Option<f64>, v| {
                        Some(acc.map_or(v, |a| a.max(v)))
                    });
                FleetWorker {
                    worker: id.clone(),
                    trials_submitted: worker.trials_submitted,
                    trials_per_sec,
                    active_leases,
                    oldest_lease_ms,
                    last_seen_ms: last_seen.as_millis() as u64,
                    straggler: active_leases > 0 && last_seen > ttl / 2,
                    eps_prime,
                }
            })
            .collect();
        let eps_prime_max = workers
            .iter()
            .filter_map(|w| w.eps_prime)
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            });
        let eps_target = state
            .workers
            .values()
            .filter_map(|w| w.snapshot.gauges.get(obs::names::EPS_TARGET_GAUGE).copied())
            .fold(None, |acc: Option<f64>, v| {
                Some(acc.map_or(v, |a| a.max(v)))
            });
        FleetReport {
            protocol_version: PROTOCOL_VERSION,
            jobs: state.jobs.len(),
            trials_total,
            trials_completed,
            pending,
            leases_reclaimed: state.counters.reclaimed,
            eps_prime_max,
            eps_target,
            done: !state.jobs.is_empty() && trials_completed == trials_total,
            workers,
        }
    }

    /// Every worker's reassembled metric snapshot, by worker id — the
    /// input to [`dpaudit_obs::render_prometheus_fleet`].
    pub fn worker_snapshots(&self) -> BTreeMap<String, MetricsSnapshot> {
        self.lock()
            .workers
            .iter()
            .map(|(id, worker)| (id.clone(), worker.snapshot.clone()))
            .collect()
    }

    /// Route one HTTP request. Exposed so tests can drive the protocol
    /// without sockets; [`serve`] wires it into a [`MetricsServer`].
    pub fn handle(&self, request: &Request) -> Response {
        match (request.method.as_str(), request.path.as_str()) {
            ("POST", "/job") => {
                let Ok(submission) = serde_json::from_str::<crate::protocol::JobSubmission>(
                    &String::from_utf8_lossy(&request.body),
                ) else {
                    return Response::text(400, "malformed job submission");
                };
                match self.submit_job(&submission.job, submission.header) {
                    Ok(_) => Response::json("{\"accepted\":true}".to_string()),
                    Err(e) => io_error_response(&e),
                }
            }
            ("GET", "/job") => {
                let Some(id) = request.query_param("id") else {
                    return Response::text(400, "missing ?id=JOB");
                };
                match self.job(id) {
                    Some(descriptor) => {
                        Response::json(serde_json::to_value(&descriptor).to_string())
                    }
                    None => Response::text(404, format!("unknown job `{id}`")),
                }
            }
            ("POST", "/lease") => {
                let Ok(lease_request) =
                    serde_json::from_str::<LeaseRequest>(&String::from_utf8_lossy(&request.body))
                else {
                    return Response::text(400, "malformed lease request");
                };
                match self.claim(&lease_request) {
                    Ok(reply) => Response::json(serde_json::to_value(&reply).to_string()),
                    Err(e) => io_error_response(&e),
                }
            }
            ("POST", "/renew") => {
                let Ok(renew) =
                    serde_json::from_str::<RenewRequest>(&String::from_utf8_lossy(&request.body))
                else {
                    return Response::text(400, "malformed renew request");
                };
                Response::json(serde_json::to_value(&self.renew(&renew)).to_string())
            }
            ("POST", "/submit") => {
                let body = String::from_utf8_lossy(&request.body).into_owned();
                let mut lines = body.lines().filter(|line| !line.trim().is_empty());
                let Some(Ok(submit)) = lines.next().map(serde_json::from_str::<SubmitHeader>)
                else {
                    return Response::text(400, "malformed submit header line");
                };
                let mut records = Vec::new();
                for line in lines {
                    match serde_json::from_str::<TrialRecord>(line) {
                        Ok(record) => records.push(record),
                        Err(e) => return Response::text(400, format!("malformed record: {e}")),
                    }
                }
                match self.ingest(&submit, &records) {
                    Ok(ack) => Response::json(serde_json::to_value(&ack).to_string()),
                    Err(e) => io_error_response(&e),
                }
            }
            ("GET", "/status") => Response::json(serde_json::to_value(&self.status()).to_string()),
            ("GET", "/fleet") => Response::json(serde_json::to_value(&self.fleet()).to_string()),
            ("GET", "/healthz") => {
                let state = self.lock();
                Response::json(render_health(state.jobs.len(), state.workers.len()))
            }
            ("GET", "/metrics") => {
                // Coordinator-process exposition (when enabled) followed by
                // the fleet exposition of every worker's shipped snapshot.
                let fleet = render_prometheus_fleet(&self.worker_snapshots());
                if self.metrics.is_none() && fleet.is_empty() {
                    return Response::text(404, "metrics not enabled");
                }
                let mut body = self.metrics.as_ref().map_or_else(String::new, |r| r());
                body.push_str(&fleet);
                Response {
                    status: 200,
                    content_type: "text/plain; version=0.0.4; charset=utf-8",
                    body: body.into_bytes(),
                }
            }
            _ => Response::text(404, "unknown endpoint"),
        }
    }
}

/// Map an ingest/claim error onto the protocol's HTTP statuses.
fn io_error_response(error: &std::io::Error) -> Response {
    let status = match error.kind() {
        std::io::ErrorKind::NotFound => 404,
        std::io::ErrorKind::AlreadyExists => 409,
        std::io::ErrorKind::InvalidInput | std::io::ErrorKind::InvalidData => 400,
        _ => 500,
    };
    Response::text(status, error.to_string())
}

/// Serve `coordinator` on `addr` over the obs HTTP listener (hardened with
/// its default read timeout and request-size cap).
///
/// # Errors
/// Socket bind errors.
pub fn serve(
    coordinator: Arc<Coordinator>,
    addr: impl ToSocketAddrs,
) -> std::io::Result<MetricsServer> {
    MetricsServer::serve_with(addr, ServerConfig::default(), move |request: &Request| {
        coordinator.handle(request)
    })
}

/// The dedup fingerprint of an accepted record: the FNV-1a 64-bit hash
/// (dependency-free) of its canonical store line.
fn record_hash(record: &TrialRecord) -> u64 {
    let mut hash = 0xcbf2_9ce4_8422_2325u64;
    for &byte in record.line().as_bytes() {
        hash ^= u64::from(byte);
        hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
    }
    hash
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_core::{rho_beta, RecordDetail};
    use dpaudit_runtime::{testkit, Seed, SCHEMA_VERSION};

    fn toy_header(reps: usize) -> StoreHeader {
        StoreHeader {
            schema_version: SCHEMA_VERSION,
            label: "fabric-test".into(),
            workload: "toy".into(),
            train_size: 8,
            world_seed: Seed(0),
            reps,
            master_seed: Seed(42),
            target_epsilon: 2.0,
            delta: 1e-3,
            rho_beta_bound: rho_beta(2.0),
            detail: RecordDetail::Summary,
            settings: testkit::toy_settings(2),
        }
    }

    fn toy_record(idx: usize) -> TrialRecord {
        TrialRecord {
            idx,
            seed: Seed(1000 + idx as u64),
            eps_ls: 0.5 + idx as f64 * 0.125,
            trial: dpaudit_core::experiment::DiTrialResult {
                b: true,
                guess: true,
                correct: idx.is_multiple_of(2),
                belief_d: 0.7,
                belief_trained: 0.7,
                belief_history: vec![],
                local_sensitivities: vec![],
                sigmas: vec![],
                test_accuracy: None,
            },
        }
    }

    fn test_store_dir(label: &str) -> PathBuf {
        std::env::temp_dir().join(format!("dpaudit_fabric_coord_{label}"))
    }

    fn test_coordinator(label: &str, ttl: Duration) -> Coordinator {
        let dir = test_store_dir(label);
        let _ = std::fs::remove_dir_all(&dir);
        let mut config = CoordinatorConfig::new(dir);
        config.lease_ttl = ttl;
        config.lease_trials = 3;
        Coordinator::new(config)
    }

    /// A coordinator over a store directory already holding job `a`'s
    /// store: `header` and the records `stored`, as a previous run left it.
    fn restarted_coordinator(label: &str, header: &StoreHeader, stored: &[usize]) -> Coordinator {
        let coordinator = test_coordinator(label, Duration::from_secs(30));
        let dir = test_store_dir(label);
        std::fs::create_dir_all(&dir).unwrap();
        let mut store = TrialStore::create(&dir.join("a.jsonl"), header).unwrap();
        for &idx in stored {
            store.append(&toy_record(idx)).unwrap();
        }
        coordinator
    }

    fn claim(coordinator: &Coordinator, worker: &str, max: usize) -> LeaseReply {
        coordinator
            .claim(&LeaseRequest {
                worker: worker.into(),
                job: None,
                max_trials: max,
            })
            .unwrap()
    }

    #[test]
    fn grants_are_capped_disjoint_and_exhaust_the_range() {
        let coordinator = test_coordinator("grants", Duration::from_secs(30));
        coordinator.submit_job("a", toy_header(5)).unwrap();
        let LeaseReply::Granted { lease, indices, .. } = claim(&coordinator, "w1", 100) else {
            panic!("expected grant");
        };
        assert_eq!(indices, vec![0, 1, 2]); // capped at lease_trials = 3
        let LeaseReply::Granted {
            lease: lease2,
            indices: indices2,
            ..
        } = claim(&coordinator, "w2", 2)
        else {
            panic!("expected grant");
        };
        assert_ne!(lease, lease2);
        assert_eq!(indices2, vec![3, 4]);
        // Range exhausted, nothing completed: workers must wait.
        assert_eq!(claim(&coordinator, "w3", 1), LeaseReply::Wait);
    }

    #[test]
    fn expired_leases_are_reclaimed_and_regranted() {
        let coordinator = test_coordinator("reclaim", Duration::from_millis(40));
        coordinator.submit_job("a", toy_header(3)).unwrap();
        let LeaseReply::Granted { indices, .. } = claim(&coordinator, "dead", 3) else {
            panic!("expected grant");
        };
        assert_eq!(indices, vec![0, 1, 2]);
        assert_eq!(claim(&coordinator, "live", 3), LeaseReply::Wait);
        std::thread::sleep(Duration::from_millis(60));
        // The dead worker's lease expired: its indices come back.
        let LeaseReply::Granted { indices, .. } = claim(&coordinator, "live", 3) else {
            panic!("expected reclaim + regrant");
        };
        assert_eq!(indices, vec![0, 1, 2]);
        let status = coordinator.status();
        assert_eq!(status.leases_reclaimed, 1);
        assert_eq!(status.jobs[0].reclaims, 1);
    }

    #[test]
    fn renewals_keep_a_lease_alive_past_its_original_ttl() {
        let coordinator = test_coordinator("renew", Duration::from_millis(80));
        coordinator.submit_job("a", toy_header(2)).unwrap();
        let LeaseReply::Granted { lease, .. } = claim(&coordinator, "w", 2) else {
            panic!("expected grant");
        };
        let heartbeat = RenewRequest {
            lease,
            worker: "w".into(),
            metrics: None,
        };
        for _ in 0..3 {
            std::thread::sleep(Duration::from_millis(50));
            assert!(coordinator.renew(&heartbeat).renewed);
        }
        // 150 ms elapsed against an 80 ms TTL, but renewals kept it live.
        assert_eq!(coordinator.status().leases_reclaimed, 0);
        std::thread::sleep(Duration::from_millis(100));
        assert!(!coordinator.renew(&heartbeat).renewed);
        assert_eq!(coordinator.status().leases_reclaimed, 1);
    }

    #[test]
    fn ingest_is_idempotent_and_detects_determinism_conflicts() {
        let coordinator = test_coordinator("ingest", Duration::from_secs(30));
        coordinator.submit_job("a", toy_header(4)).unwrap();
        let LeaseReply::Granted { lease, .. } = claim(&coordinator, "w", 4) else {
            panic!("expected grant");
        };
        let submit = SubmitHeader {
            job: "a".into(),
            lease: Some(lease),
            worker: "w".into(),
            metrics: None,
        };
        let records = vec![toy_record(0), toy_record(1)];
        let ack = coordinator.ingest(&submit, &records).unwrap();
        assert_eq!((ack.accepted, ack.duplicates), (2, 0));
        // Exact re-submission (a retried shard): all duplicates, no error.
        let ack = coordinator.ingest(&submit, &records).unwrap();
        assert_eq!((ack.accepted, ack.duplicates), (0, 2));
        // Same index, different bytes: loud conflict.
        let mut conflicting = toy_record(1);
        conflicting.eps_ls += 1.0;
        let err = coordinator.ingest(&submit, &[conflicting]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        assert!(err.to_string().contains("determinism conflict"), "{err}");
        // Out-of-range index: rejected.
        let err = coordinator.ingest(&submit, &[toy_record(99)]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        // The accepted records are durably replayable.
        let path = coordinator.store_path("a").unwrap();
        let replay = dpaudit_runtime::replay_store(&path).unwrap();
        assert_eq!(replay.completed, 2);
        assert_eq!(replay.missing, vec![2, 3]);
    }

    #[test]
    fn straggler_submission_after_reclaim_is_accepted_once() {
        let coordinator = test_coordinator("straggler", Duration::from_millis(40));
        coordinator.submit_job("a", toy_header(2)).unwrap();
        let LeaseReply::Granted { lease, .. } = claim(&coordinator, "slow", 2) else {
            panic!("expected grant");
        };
        std::thread::sleep(Duration::from_millis(60));
        // Lease expired and reclaimed; the slow worker submits anyway.
        let submit = SubmitHeader {
            job: "a".into(),
            lease: Some(lease),
            worker: "slow".into(),
            metrics: None,
        };
        let ack = coordinator
            .ingest(&submit, &[toy_record(0), toy_record(1)])
            .unwrap();
        assert_eq!(ack.accepted, 2);
        // A second worker that re-ran the reclaimed indices submits the
        // identical records: pure duplicates.
        let submit2 = SubmitHeader {
            job: "a".into(),
            lease: None,
            worker: "fast".into(),
            metrics: None,
        };
        let ack = coordinator
            .ingest(&submit2, &[toy_record(0), toy_record(1)])
            .unwrap();
        assert_eq!((ack.accepted, ack.duplicates), (0, 2));
        assert!(coordinator.all_done());
        assert_eq!(claim(&coordinator, "fast", 1), LeaseReply::Done);
    }

    #[test]
    fn multi_job_queue_drains_in_id_order() {
        let coordinator = test_coordinator("queue", Duration::from_secs(30));
        coordinator.submit_job("a", toy_header(1)).unwrap();
        coordinator.submit_job("b", toy_header(1)).unwrap();
        let err = coordinator.submit_job("a", toy_header(1)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
        let LeaseReply::Granted { job, lease, .. } = claim(&coordinator, "w", 1) else {
            panic!("expected grant");
        };
        assert_eq!(job, "a");
        let submit = SubmitHeader {
            job,
            lease: Some(lease),
            worker: "w".into(),
            metrics: None,
        };
        coordinator.ingest(&submit, &[toy_record(0)]).unwrap();
        let LeaseReply::Granted { job, .. } = claim(&coordinator, "w", 1) else {
            panic!("expected grant from job b");
        };
        assert_eq!(job, "b");
        // A job-filtered claim for an unknown job is a protocol error.
        let err = coordinator
            .claim(&LeaseRequest {
                worker: "w".into(),
                job: Some("nope".into()),
                max_trials: 1,
            })
            .unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::NotFound);
    }

    #[test]
    fn restart_over_a_partial_job_store_leases_only_the_missing_trials() {
        let coordinator = restarted_coordinator("restart_partial", &toy_header(4), &[2, 0]);
        assert_eq!(coordinator.submit_job("a", toy_header(4)).unwrap(), 2);
        let status = coordinator.status();
        assert_eq!((status.jobs[0].completed, status.jobs[0].pending), (2, 2));
        assert!(!coordinator.all_done());
        let LeaseReply::Granted { indices, .. } = claim(&coordinator, "w", 3) else {
            panic!("expected grant");
        };
        assert_eq!(indices, vec![1, 3]);
        // Stored trials carry the hash ingest computes: a re-submission is
        // a duplicate, different bytes a conflict.
        let submit = SubmitHeader {
            job: "a".into(),
            lease: None,
            worker: "w".into(),
            metrics: None,
        };
        let ack = coordinator.ingest(&submit, &[toy_record(0)]).unwrap();
        assert_eq!((ack.accepted, ack.duplicates), (0, 1));
        let mut conflicting = toy_record(2);
        conflicting.eps_ls += 1.0;
        let err = coordinator.ingest(&submit, &[conflicting]).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    }

    #[test]
    fn restart_over_a_complete_job_store_is_done_at_once() {
        let coordinator = restarted_coordinator("restart_done", &toy_header(3), &[1, 0, 2]);
        let path = test_store_dir("restart_done").join("a.jsonl");
        let before = std::fs::read(&path).unwrap();
        assert_eq!(coordinator.submit_job("a", toy_header(3)).unwrap(), 3);
        assert!(coordinator.all_done());
        assert_eq!(claim(&coordinator, "w", 1), LeaseReply::Done);
        assert_eq!(std::fs::read(&path).unwrap(), before);
    }

    #[test]
    fn restart_refuses_a_job_store_of_another_header_untouched() {
        let coordinator = restarted_coordinator("restart_other", &toy_header(4), &[0, 1]);
        let path = test_store_dir("restart_other").join("a.jsonl");
        let before = std::fs::read(&path).unwrap();
        let err = coordinator.submit_job("a", toy_header(5)).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidData);
        assert!(err.to_string().contains("different header"), "{err}");
        assert_eq!(std::fs::read(&path).unwrap(), before);
        assert!(coordinator.job_ids().is_empty());
    }

    #[test]
    fn a_job_no_worker_can_run_is_refused_before_any_file_exists() {
        let coordinator = test_coordinator("blas_job", Duration::from_secs(30));
        let mut blas = toy_header(2);
        blas.settings.dpsgd.backend = dpaudit_dpsgd::BackendChoice::Blas;
        let huge_reps = toy_header(dpaudit_runtime::MAX_REPS + 1);
        let mut huge_steps = toy_header(2);
        huge_steps.settings.dpsgd.steps = dpaudit_runtime::MAX_STEPS + 1;
        let mut huge_world = toy_header(2);
        huge_world.train_size = dpaudit_runtime::MAX_TRAIN_SIZE + 1;
        let mut noiseless = toy_header(2);
        noiseless.settings.dpsgd.noise_multiplier = 0.0;
        for (job, header, message) in [
            ("a-blas", blas, "backend `blas` was removed"),
            (
                "a-reps",
                huge_reps,
                "reps 1048577 is outside the bound 1..=1048576",
            ),
            (
                "a-steps",
                huge_steps,
                "steps 1048577 is outside the bound 1..=1048576",
            ),
            (
                "a-world",
                huge_world,
                "train_size 16385 is outside the bound 1..=16384",
            ),
            (
                "a-noiseless",
                noiseless,
                "invalid trial settings: noise multiplier must be positive, got 0",
            ),
        ] {
            let submission = crate::protocol::JobSubmission {
                job: job.into(),
                header,
            };
            let response = coordinator.handle(&Request {
                method: "POST".into(),
                path: "/job".into(),
                query: String::new(),
                body: serde_json::to_value(&submission).to_string().into_bytes(),
            });
            assert_eq!(response.status, 400);
            let body = String::from_utf8_lossy(&response.body).into_owned();
            assert!(body.contains(message), "{body}");
            assert!(!test_store_dir("blas_job")
                .join(format!("{job}.jsonl"))
                .exists());
        }
        assert!(coordinator.status().jobs.is_empty());
    }

    #[test]
    fn router_speaks_the_wire_protocol() {
        let coordinator = test_coordinator("router", Duration::from_secs(30));
        let post = |path: &str, body: String| Request {
            method: "POST".into(),
            path: path.into(),
            query: String::new(),
            body: body.into_bytes(),
        };
        let get = |path: &str, query: &str| Request {
            method: "GET".into(),
            path: path.into(),
            query: query.into(),
            body: Vec::new(),
        };

        let submission = crate::protocol::JobSubmission {
            job: "a".into(),
            header: toy_header(2),
        };
        let body = serde_json::to_value(&submission).to_string();
        assert_eq!(coordinator.handle(&post("/job", body.clone())).status, 200);
        assert_eq!(coordinator.handle(&post("/job", body)).status, 409);
        assert_eq!(
            coordinator.handle(&post("/job", "{broken".into())).status,
            400
        );
        assert_eq!(coordinator.handle(&get("/job", "id=a")).status, 200);
        assert_eq!(coordinator.handle(&get("/job", "id=zz")).status, 404);
        assert_eq!(coordinator.handle(&get("/job", "")).status, 400);

        let lease_request = LeaseRequest {
            worker: "w".into(),
            job: None,
            max_trials: 2,
        };
        let response = coordinator.handle(&post(
            "/lease",
            serde_json::to_value(&lease_request).to_string(),
        ));
        assert_eq!(response.status, 200);
        let reply: LeaseReply =
            serde_json::from_str(&String::from_utf8_lossy(&response.body)).unwrap();
        let LeaseReply::Granted { lease, .. } = reply else {
            panic!("expected grant over the wire");
        };

        let submit = SubmitHeader {
            job: "a".into(),
            lease: Some(lease),
            worker: "w".into(),
            metrics: None,
        };
        let mut body = serde_json::to_value(&submit).to_string();
        body.push('\n');
        body.push_str(&serde_json::to_value(&toy_record(0)).to_string());
        body.push('\n');
        let response = coordinator.handle(&post("/submit", body));
        assert_eq!(response.status, 200);
        let ack: SubmitAck =
            serde_json::from_str(&String::from_utf8_lossy(&response.body)).unwrap();
        assert_eq!(ack.accepted, 1);
        assert_eq!(
            coordinator.handle(&post("/submit", "{bad".into())).status,
            400
        );

        let response = coordinator.handle(&get("/status", ""));
        assert_eq!(response.status, 200);
        let status: StatusReport =
            serde_json::from_str(&String::from_utf8_lossy(&response.body)).unwrap();
        assert_eq!(status.jobs.len(), 1);
        assert_eq!(status.trials_submitted, 1);

        // No render attached and no worker has shipped metrics yet, so the
        // exposition stays 404; /fleet and /healthz always answer.
        assert_eq!(coordinator.handle(&get("/metrics", "")).status, 404);
        let response = coordinator.handle(&get("/fleet", ""));
        assert_eq!(response.status, 200);
        let fleet: FleetReport =
            serde_json::from_str(&String::from_utf8_lossy(&response.body)).unwrap();
        assert_eq!(fleet.workers.len(), 1);
        let response = coordinator.handle(&get("/healthz", ""));
        assert_eq!(response.status, 200);
        let body = String::from_utf8_lossy(&response.body).into_owned();
        assert!(body.contains("\"status\":\"ok\""), "{body}");
        assert!(body.contains("\"jobs\":1"), "{body}");
        assert_eq!(coordinator.handle(&get("/nope", "")).status, 404);
    }

    #[test]
    fn fleet_merges_shipped_metric_deltas_per_worker() {
        let coordinator = test_coordinator("fleet", Duration::from_secs(30));
        coordinator.submit_job("a", toy_header(4)).unwrap();
        let LeaseReply::Granted { lease, .. } = claim(&coordinator, "w1", 2) else {
            panic!("expected grant");
        };
        // First shipment: a counter plus the ε′/ε-target gauges.
        let mut delta = MetricsSnapshot::default();
        delta
            .counters
            .insert(obs::names::FABRIC_WORKER_TRIALS.into(), 1);
        delta.gauges.insert(obs::names::EPS_PRIME_GAUGE.into(), 0.8);
        delta
            .gauges
            .insert(obs::names::EPS_TARGET_GAUGE.into(), 2.0);
        let submit = SubmitHeader {
            job: "a".into(),
            lease: Some(lease),
            worker: "w1".into(),
            metrics: Some(delta),
        };
        coordinator.ingest(&submit, &[toy_record(0)]).unwrap();
        // Second shipment rides a heartbeat; the counter delta adds, the
        // gauge max-folds.
        let mut delta = MetricsSnapshot::default();
        delta
            .counters
            .insert(obs::names::FABRIC_WORKER_TRIALS.into(), 1);
        delta.gauges.insert(obs::names::EPS_PRIME_GAUGE.into(), 1.1);
        coordinator.renew(&RenewRequest {
            lease,
            worker: "w1".into(),
            metrics: Some(delta),
        });

        let snapshots = coordinator.worker_snapshots();
        assert_eq!(
            snapshots["w1"].counters[obs::names::FABRIC_WORKER_TRIALS],
            2
        );
        assert_eq!(snapshots["w1"].gauges[obs::names::EPS_PRIME_GAUGE], 1.1);

        let fleet = coordinator.fleet();
        assert_eq!(fleet.jobs, 1);
        assert_eq!((fleet.trials_total, fleet.trials_completed), (4, 1));
        assert_eq!(fleet.eps_prime_max, Some(1.1));
        assert_eq!(fleet.eps_target, Some(2.0));
        assert!(!fleet.done);
        let worker = &fleet.workers[0];
        assert_eq!(worker.worker, "w1");
        assert_eq!(worker.trials_submitted, 1);
        assert_eq!(worker.active_leases, 1);
        assert!(worker.oldest_lease_ms.is_some());
        assert!(!worker.straggler, "fresh heartbeat must not flag straggler");
        assert_eq!(worker.eps_prime, Some(1.1));

        // Shipped metrics make the exposition answer with worker labels
        // even without a coordinator-side render.
        let response = coordinator.handle(&Request {
            method: "GET".into(),
            path: "/metrics".into(),
            query: String::new(),
            body: Vec::new(),
        });
        assert_eq!(response.status, 200);
        let body = String::from_utf8_lossy(&response.body).into_owned();
        assert!(
            body.contains("dpaudit_fabric_worker_trials_total{worker=\"w1\"} 2"),
            "{body}"
        );
    }
}
