//! The `dpaudit fabric` sub-actions: distributed coordinator/worker
//! execution of audit batches.
//!
//! * `fabric serve` — run the coordinator: enqueue a job built from the
//!   same workload flags as `audit run` (shared header construction, so
//!   the distributed result is byte-comparable), lease trials to workers,
//!   and render each job's report when it completes.
//! * `fabric work` — run a worker: claim leases, execute trials through
//!   the engine, write a local shard, and stream records back.
//! * `fabric status` — query a coordinator's queue.
//! * `fabric watch` — live fleet dashboard over the coordinator's `/fleet`
//!   endpoint: per-worker throughput sparklines, lease-reclaim alerts, and
//!   the fleet-wide eps' maximum against the target budget.
//! * `fabric merge` — merge shard stores offline into one report/store.

use crate::engine::{header_from_opts, parse_parallelism, rebuild_workload};
use crate::opts::Opts;
use dpaudit_fabric as fabric;
use dpaudit_obs::{self as obs, JsonlSink, MetricsRegistry, MultiSink, Sink};
use dpaudit_runtime::{check_runnable, render_partial, render_report, replay_store, StoreHeader};
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Duration;

/// Dispatch `fabric <sub-action>`.
///
/// # Errors
/// A human-readable message for bad flags, bad values or I/O failures.
pub fn run_subaction(sub: &str, opts: &Opts) -> Result<String, String> {
    match sub {
        "serve" => cmd_serve(opts),
        "work" => cmd_work(opts),
        "status" => cmd_status(opts),
        "watch" => cmd_watch(opts),
        "merge" => cmd_merge(opts),
        other => Err(format!(
            "unknown fabric sub-action `{other}` (serve | work | status | watch | merge)"
        )),
    }
}

fn cmd_serve(opts: &Opts) -> Result<String, String> {
    let addr = opts.str_opt("addr").ok_or("missing required --addr")?;
    let store_dir = opts
        .str_opt("store-dir")
        .ok_or("missing required --store-dir DIR")?;
    let header = header_from_opts(opts)?;
    let job = opts
        .str_opt("job")
        .map(str::to_string)
        .unwrap_or_else(|| header.label.clone());
    let lease_trials = opts.usize_or("lease-trials", 8)?;
    if lease_trials == 0 {
        return Err("--lease-trials must be positive".into());
    }
    let lease_ttl = Duration::from_millis(opts.u64_or("lease-ttl-ms", 30_000)?.max(1));
    let exit_when_done = opts.flag("exit-when-done");

    // The coordinator's own obs: counters/spans feed the /metrics endpoint
    // it serves next to the protocol.
    let registry = Arc::new(MetricsRegistry::new());
    let _obs_guard = obs::install(registry.clone());
    let mut config = fabric::CoordinatorConfig::new(store_dir);
    config.lease_ttl = lease_ttl;
    config.lease_trials = lease_trials;
    let render_registry = registry.clone();
    let coordinator = Arc::new(
        fabric::Coordinator::new(config).with_metrics_render(move || {
            obs::render_prometheus(&render_registry.snapshot(), &render_registry.span_stats())
        }),
    );
    let reps = header.reps;
    let resumed = coordinator
        .submit_job(&job, header)
        .map_err(|e| format!("cannot enqueue job: {e}"))?;
    if resumed > 0 {
        eprintln!(
            "fabric serve: resuming job `{job}` from its store: {resumed}/{reps} trials present"
        );
    }
    let server = fabric::serve(coordinator.clone(), addr)
        .map_err(|e| format!("cannot serve on {addr}: {e}"))?;
    eprintln!(
        "fabric coordinator on http://{} — job `{job}` queued; metrics at /metrics",
        server.addr()
    );

    let (shutdown, signals_installed) = fabric::shutdown_flag();
    if !signals_installed {
        eprintln!("note: no signal handler installed; stop with --exit-when-done or kill");
    }
    loop {
        if shutdown.load(Ordering::Relaxed) {
            eprintln!("fabric serve: shutdown signal received, draining");
            break;
        }
        if exit_when_done && coordinator.all_done() {
            break;
        }
        std::thread::sleep(Duration::from_millis(200));
    }
    server.shutdown();

    // Render every job's final (or partial) state from the coordinator's
    // own durable store — the same artefact `audit report` replays.
    let mut out = String::new();
    let status = coordinator.status();
    let _ = writeln!(
        out,
        "fabric: {} leases granted, {} reclaimed, {} trials accepted, {} duplicates",
        status.leases_granted, status.leases_reclaimed, status.trials_submitted, status.duplicates
    );
    for id in coordinator.job_ids() {
        let path = coordinator.store_path(&id).expect("job has a store");
        let replayed =
            replay_store(&path).map_err(|e| format!("cannot replay job `{id}` store: {e}"))?;
        let _ = writeln!(out, "job `{id}` (store {}):", path.display());
        match replayed.report {
            Some(report) => out.push_str(&render_report(&replayed.header, &report)),
            None => out.push_str(&render_partial(
                &replayed.header,
                replayed.completed,
                &replayed.missing,
            )),
        }
    }
    Ok(out)
}

/// [`fabric::JobRunner`] over the bench workloads: rebuild the pair and
/// the model a job header describes.
struct EngineRunner;

impl fabric::JobRunner for EngineRunner {
    fn workload(
        &mut self,
        job: &str,
        header: &StoreHeader,
    ) -> std::io::Result<fabric::JobWorkload> {
        // A worker must execute the job's recorded backend, not whatever it
        // has: shards from a different accumulation order would poison the
        // coordinator's deterministic merge. Refuse a removed backend, and
        // settings or sizes no trial can run with, up front with a typed
        // error.
        check_runnable(header).map_err(|e| {
            std::io::Error::new(e.kind(), format!("cannot execute job `{job}`: {e}"))
        })?;
        let (workload, pair) = rebuild_workload(header).map_err(|e| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                format!("cannot rebuild workload for job `{job}`: {e}"),
            )
        })?;
        // The protocol choices ride in the job header's settings; surface
        // them so a worker's log shows which precision, adversary and
        // sampling scheme its shards were produced under.
        eprintln!(
            "fabric work: job `{job}` compute {} backend {} adversary {} sampling {}",
            header.settings.dpsgd.compute,
            header.settings.dpsgd.backend,
            header.settings.adversary.label(),
            header.settings.sampling,
        );
        Ok(fabric::JobWorkload {
            pair,
            model: Box::new(move |rng| workload.build_model(rng)),
        })
    }
}

fn cmd_work(opts: &Opts) -> Result<String, String> {
    let coordinator = opts
        .str_opt("coordinator")
        .ok_or("missing required --coordinator ADDR")?;
    let shard_dir = opts
        .str_opt("shard-dir")
        .ok_or("missing required --shard-dir DIR")?;
    let worker_id = opts
        .str_opt("worker-id")
        .map(str::to_string)
        .unwrap_or_else(|| format!("worker-{}", std::process::id()));
    let mut config = fabric::WorkerConfig::new(coordinator, worker_id.clone(), shard_dir);
    config.parallelism = parse_parallelism(opts)?;
    config.job = opts.str_opt("job").map(str::to_string);
    config.max_trials = opts.usize_or("max-trials", 8)?.max(1);
    config.poll = Duration::from_millis(opts.u64_or("poll-ms", 200)?.max(1));
    config.attempts = u32::try_from(opts.usize_or("retries", 5)?.max(1))
        .map_err(|_| "--retries is out of range".to_string())?;
    let (shutdown, _) = fabric::shutdown_flag();
    config.shutdown = shutdown;

    // Every worker keeps a registry so metric deltas ride the submit and
    // heartbeat calls back to the coordinator's fleet view; --trace-dir
    // additionally tees every event into a per-worker JSONL trace whose
    // lines carry the job/worker/lease correlation stamps for
    // `dpaudit trace merge`.
    let registry = Arc::new(MetricsRegistry::new());
    config.metrics = Some(registry.clone());
    let mut sinks: Vec<Arc<dyn Sink>> = vec![registry];
    if let Some(dir) = opts.str_opt("trace-dir") {
        std::fs::create_dir_all(dir).map_err(|e| format!("cannot create {dir}: {e}"))?;
        let trace_path = Path::new(dir).join(format!("{worker_id}.trace.jsonl"));
        let sink = JsonlSink::create(&trace_path)
            .map_err(|e| format!("cannot create trace {}: {e}", trace_path.display()))?;
        sinks.push(Arc::new(sink));
        eprintln!("fabric work: tracing to {}", trace_path.display());
    }
    let sink: Arc<dyn Sink> = if sinks.len() == 1 {
        sinks.pop().expect("one sink")
    } else {
        Arc::new(MultiSink::new(sinks))
    };
    let _obs_guard = obs::install(sink);

    let summary = fabric::run_worker(&config, &mut EngineRunner)
        .map_err(|e| format!("worker failed: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "worker {worker_id}: {} trials executed across {} leases{}",
        summary.executed,
        summary.leases,
        if summary.drained {
            " (drained on shutdown signal)"
        } else if summary.coordinator_gone {
            " (coordinator finished and went away)"
        } else {
            ""
        }
    );
    if summary.jobs.is_empty() {
        let _ = writeln!(out, "  no jobs had pending work");
    } else {
        let _ = writeln!(out, "  jobs: {}", summary.jobs.join(", "));
    }
    Ok(out)
}

fn cmd_status(opts: &Opts) -> Result<String, String> {
    let coordinator = opts
        .str_opt("coordinator")
        .ok_or("missing required --coordinator ADDR")?;
    let status = fabric::Client::new(coordinator)
        .status()
        .map_err(|e| format!("cannot reach coordinator at {coordinator}: {e}"))?;
    let mut out = String::new();
    let _ = writeln!(
        out,
        "coordinator at {coordinator} (protocol v{})",
        status.protocol_version
    );
    let _ = writeln!(
        out,
        "  {} leases granted, {} reclaimed, {} trials accepted, {} duplicates",
        status.leases_granted, status.leases_reclaimed, status.trials_submitted, status.duplicates
    );
    if status.jobs.is_empty() {
        let _ = writeln!(out, "  no jobs queued");
    }
    for job in &status.jobs {
        let _ = writeln!(
            out,
            "  job {:<24} {}/{} done · {} leased · {} pending · {} reclaims{}",
            job.job,
            job.completed,
            job.reps,
            job.leased,
            job.pending,
            job.reclaims,
            if job.done { " · COMPLETE" } else { "" }
        );
    }
    Ok(out)
}

/// Accumulated fleet-watch state across poll ticks. Pure data — the render
/// path is a function of this state, so frames are unit-testable without a
/// coordinator.
#[derive(Default)]
struct FleetWatch {
    /// Per-worker trials/s samples, one per poll tick, newest last.
    throughput: BTreeMap<String, Vec<f64>>,
    /// `leases_reclaimed` at the previous tick, to alert on new reclaims.
    last_reclaimed: Option<u64>,
}

impl FleetWatch {
    /// Fold one `/fleet` report into the state and render its frame.
    fn observe(&mut self, report: &fabric::FleetReport) -> String {
        for worker in &report.workers {
            self.throughput
                .entry(worker.worker.clone())
                .or_default()
                .push(worker.trials_per_sec);
        }
        let new_reclaims = report
            .leases_reclaimed
            .saturating_sub(self.last_reclaimed.unwrap_or(report.leases_reclaimed));
        self.last_reclaimed = Some(report.leases_reclaimed);
        render_fleet_frame(report, &self.throughput, new_reclaims)
    }
}

/// Render one fleet dashboard frame: totals, eps' vs target, one line per
/// worker (throughput sparkline, lease ages, heartbeat lag, straggler
/// flag), and alert lines for reclaims and budget crossings.
fn render_fleet_frame(
    report: &fabric::FleetReport,
    throughput: &BTreeMap<String, Vec<f64>>,
    new_reclaims: u64,
) -> String {
    let mut out = String::new();
    let _ = writeln!(
        out,
        "fleet: {} jobs · {}/{} trials · {} pending · {} leases reclaimed{}",
        report.jobs,
        report.trials_completed,
        report.trials_total,
        report.pending,
        report.leases_reclaimed,
        if report.done { " · COMPLETE" } else { "" }
    );
    match (report.eps_prime_max, report.eps_target) {
        (Some(eps), Some(target)) if target > 0.0 => {
            let _ = writeln!(
                out,
                "  eps' max {eps:.4} vs target {target:.4} ({:.1}% of budget)",
                eps / target * 100.0
            );
            if eps > target {
                let _ = writeln!(
                    out,
                    "  ALERT: fleet eps' {eps:.4} exceeds the target budget {target:.4}"
                );
            }
        }
        (Some(eps), _) => {
            let _ = writeln!(out, "  eps' max {eps:.4} (no target gauge shipped)");
        }
        _ => {
            let _ = writeln!(out, "  eps': no ledger gauges shipped yet");
        }
    }
    if report.workers.is_empty() {
        let _ = writeln!(out, "  no workers seen yet");
    }
    for worker in &report.workers {
        let spark = crate::watch::sparkline(
            throughput
                .get(&worker.worker)
                .map_or(&[] as &[f64], Vec::as_slice),
        );
        let _ = write!(
            out,
            "  {:<16} {:>5} trials · {:>6.2}/s {spark} · {} lease(s)",
            worker.worker, worker.trials_submitted, worker.trials_per_sec, worker.active_leases,
        );
        if let Some(age) = worker.oldest_lease_ms {
            let _ = write!(out, " (oldest {:.1}s)", age as f64 / 1000.0);
        }
        let _ = write!(
            out,
            " · seen {:.1}s ago",
            worker.last_seen_ms as f64 / 1000.0
        );
        if let Some(eps) = worker.eps_prime {
            let _ = write!(out, " · eps' {eps:.4}");
        }
        let _ = writeln!(
            out,
            "{}",
            if worker.straggler { " [STRAGGLER]" } else { "" }
        );
    }
    if new_reclaims > 0 {
        let _ = writeln!(
            out,
            "  ALERT: {new_reclaims} lease(s) reclaimed since the last refresh — a worker \
             stalled or died and its trials were requeued"
        );
    }
    out
}

fn cmd_watch(opts: &Opts) -> Result<String, String> {
    let coordinator = opts
        .str_opt("coordinator")
        .ok_or("missing required --coordinator ADDR")?;
    let interval = Duration::from_millis(opts.u64_or("interval-ms", 1_000)?.max(1));
    let max_ticks = opts.usize_or("max-ticks", 0)?;
    let client = fabric::Client::new(coordinator);
    let mut state = FleetWatch::default();
    let mut last_frame: Option<String> = None;
    let mut tick = 0usize;
    loop {
        tick += 1;
        let report = match client.fleet() {
            Ok(report) => report,
            // A coordinator that vanishes mid-watch usually finished and
            // exited; the last rendered frame is the final state we saw.
            Err(e) => match last_frame {
                Some(frame) => {
                    return Ok(format!(
                        "{frame}fabric watch: coordinator at {coordinator} went away ({e})\n"
                    ))
                }
                None => return Err(format!("cannot reach coordinator at {coordinator}: {e}")),
            },
        };
        let frame = state.observe(&report);
        if report.done || (max_ticks > 0 && tick >= max_ticks) {
            return Ok(frame);
        }
        // Intermediate frames stream to stderr so stdout stays the final
        // machine-diffable frame, mirroring `dpaudit watch`.
        eprint!("{frame}");
        last_frame = Some(frame);
        std::thread::sleep(interval);
    }
}

fn cmd_merge(opts: &Opts) -> Result<String, String> {
    let shards = opts
        .str_opt("shards")
        .ok_or("missing required --shards A,B,...")?;
    let paths: Vec<PathBuf> = shards
        .split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .map(PathBuf::from)
        .collect();
    if paths.is_empty() {
        return Err("--shards needs at least one path".into());
    }
    let merged = fabric::merge_shards(&paths).map_err(|e| format!("merge failed: {e}"))?;
    if let Some(out_path) = opts.str_opt("out") {
        merged
            .write_store(Path::new(out_path))
            .map_err(|e| format!("cannot write merged store: {e}"))?;
        eprintln!(
            "merged {} records ({} duplicate lines dropped) into {out_path}",
            merged.records.len(),
            merged.duplicates
        );
    }
    // The rendered output matches `audit run` / `audit report` exactly so
    // distributed and single-node results diff cleanly.
    match merged.report() {
        Some(report) => Ok(render_report(&merged.header, &report)),
        None => Ok(render_partial(
            &merged.header,
            merged.records.len(),
            &merged.missing,
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Opts {
        Opts::parse(args.iter().map(|s| s.to_string())).unwrap()
    }

    #[test]
    fn merge_requires_shards() {
        let err = run_subaction("merge", &parse(&["fabric", "merge"])).unwrap_err();
        assert!(err.contains("--shards"), "{err}");
        let err =
            run_subaction("merge", &parse(&["fabric", "merge", "--shards", " , ,"])).unwrap_err();
        assert!(err.contains("at least one path"), "{err}");
    }

    #[test]
    fn worker_refuses_a_job_recorded_with_the_removed_blas_backend() {
        let mut header = header_from_opts(&parse(&[
            "fabric",
            "serve",
            "--workload",
            "purchase",
            "--reps",
            "2",
            "--train-size",
            "30",
        ]))
        .unwrap();
        header.settings.dpsgd.backend = dpaudit_dpsgd::BackendChoice::Blas;
        let Err(err) = fabric::JobRunner::workload(&mut EngineRunner, "blas-job", &header) else {
            panic!("no workload may be rebuilt for a blas job");
        };
        assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
        assert!(
            err.to_string().contains("backend `blas` was removed"),
            "{err}"
        );
    }

    #[test]
    fn unknown_subaction_lists_the_real_ones() {
        let err = run_subaction("frobnicate", &parse(&["fabric", "status"])).unwrap_err();
        assert!(
            err.contains("serve | work | status | watch | merge"),
            "{err}"
        );
    }

    #[test]
    fn status_reports_unreachable_coordinators() {
        // A port from the discard range with nothing listening.
        let err = run_subaction(
            "status",
            &parse(&["fabric", "status", "--coordinator", "127.0.0.1:9"]),
        )
        .unwrap_err();
        assert!(err.contains("cannot reach coordinator"), "{err}");
    }

    #[test]
    fn watch_reports_unreachable_coordinators() {
        let err = run_subaction(
            "watch",
            &parse(&["fabric", "watch", "--coordinator", "127.0.0.1:9"]),
        )
        .unwrap_err();
        assert!(err.contains("cannot reach coordinator"), "{err}");
    }

    fn sample_report() -> fabric::FleetReport {
        fabric::FleetReport {
            protocol_version: 1,
            jobs: 2,
            trials_total: 16,
            trials_completed: 9,
            pending: 5,
            leases_reclaimed: 1,
            eps_prime_max: Some(1.25),
            eps_target: Some(2.0),
            done: false,
            workers: vec![
                fabric::FleetWorker {
                    worker: "w1".into(),
                    trials_submitted: 6,
                    trials_per_sec: 3.5,
                    active_leases: 1,
                    oldest_lease_ms: Some(400),
                    last_seen_ms: 120,
                    straggler: false,
                    eps_prime: Some(1.25),
                },
                fabric::FleetWorker {
                    worker: "w2".into(),
                    trials_submitted: 3,
                    trials_per_sec: 0.8,
                    active_leases: 2,
                    oldest_lease_ms: Some(25_000),
                    last_seen_ms: 18_000,
                    straggler: true,
                    eps_prime: None,
                },
            ],
        }
    }

    #[test]
    fn fleet_frame_shows_workers_budget_and_straggler_flags() {
        let mut state = FleetWatch::default();
        let frame = state.observe(&sample_report());
        assert!(
            frame.contains("2 jobs · 9/16 trials · 5 pending"),
            "{frame}"
        );
        assert!(
            frame.contains("eps' max 1.2500 vs target 2.0000 (62.5% of budget)"),
            "{frame}"
        );
        assert!(frame.contains("w1"), "{frame}");
        assert!(frame.contains("6 trials ·   3.50/s"), "{frame}");
        assert!(frame.contains("(oldest 25.0s)"), "{frame}");
        assert!(frame.contains("[STRAGGLER]"), "{frame}");
        // The first tick sets the reclaim baseline; no alert yet.
        assert!(!frame.contains("ALERT"), "{frame}");
    }

    #[test]
    fn fleet_frame_alerts_on_new_reclaims_and_budget_crossings() {
        let mut state = FleetWatch::default();
        let mut report = sample_report();
        state.observe(&report);
        report.leases_reclaimed = 3;
        report.eps_prime_max = Some(2.5);
        let frame = state.observe(&report);
        assert!(frame.contains("ALERT: 2 lease(s) reclaimed"), "{frame}");
        assert!(
            frame.contains("ALERT: fleet eps' 2.5000 exceeds the target budget 2.0000"),
            "{frame}"
        );
        // Three ticks of throughput history per worker render a sparkline.
        let frame = state.observe(&report);
        let w1_line = frame.lines().find(|l| l.contains("w1")).unwrap();
        assert!(
            w1_line
                .chars()
                .any(|c| ('\u{2581}'..='\u{2588}').contains(&c)),
            "{w1_line}"
        );
    }

    #[test]
    fn fleet_frame_handles_an_empty_fleet_and_completion() {
        let mut state = FleetWatch::default();
        let report = fabric::FleetReport {
            protocol_version: 1,
            jobs: 1,
            trials_total: 4,
            trials_completed: 4,
            pending: 0,
            leases_reclaimed: 0,
            eps_prime_max: None,
            eps_target: None,
            done: true,
            workers: Vec::new(),
        };
        let frame = state.observe(&report);
        assert!(frame.contains("COMPLETE"), "{frame}");
        assert!(frame.contains("no workers seen yet"), "{frame}");
        assert!(frame.contains("no ledger gauges shipped yet"), "{frame}");
    }
}
