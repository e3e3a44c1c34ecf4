//! Loopback integration tests: a real coordinator served over TCP plus
//! real worker loops, asserting the fabric's central promise — the merged
//! distributed result is bit-identical to a single-node run.

use dpaudit_core::{rho_beta, AuditReport, RecordDetail};
use dpaudit_fabric::{
    merge_shards, run_worker, serve, Client, Coordinator, CoordinatorConfig, JobRunner,
    JobWorkload, SubmitHeader, WorkerConfig,
};
use dpaudit_runtime::{
    execute_trial, read_store, render_report, replay_store, testkit, AuditSession, ExecPlan,
    Parallelism, Seed, StoreHeader, TrialRecord, SCHEMA_VERSION,
};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn unique_dir(label: &str) -> PathBuf {
    static COUNTER: AtomicUsize = AtomicUsize::new(0);
    let dir = std::env::temp_dir().join(format!(
        "dpaudit_fabric_loopback_{label}_{}_{}",
        std::process::id(),
        COUNTER.fetch_add(1, Ordering::Relaxed)
    ));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    dir
}

fn toy_header(label: &str, reps: usize) -> StoreHeader {
    StoreHeader {
        schema_version: SCHEMA_VERSION,
        label: label.into(),
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

/// Rebuilds the toy workload for every job — the test stand-in for the
/// CLI's engine-backed runner.
struct ToyRunner;

impl JobRunner for ToyRunner {
    fn workload(&mut self, _job: &str, _header: &StoreHeader) -> std::io::Result<JobWorkload> {
        Ok(JobWorkload {
            pair: testkit::toy_pair(),
            model: Box::new(testkit::toy_model),
        })
    }
}

/// The ground truth: the same header run entirely in one process.
fn single_node_report(header: &StoreHeader) -> AuditReport {
    let pair = testkit::toy_pair();
    let mut session = AuditSession::in_memory(header.clone());
    session
        .run(
            &pair,
            None,
            testkit::toy_model,
            Parallelism::trials(2),
            |_| {},
            None,
        )
        .unwrap()
        .report
}

fn assert_bit_identical(actual: &AuditReport, expected: &AuditReport) {
    assert_eq!(actual.trials, expected.trials);
    for (name, a, e) in [
        (
            "target_epsilon",
            actual.target_epsilon,
            expected.target_epsilon,
        ),
        ("delta", actual.delta, expected.delta),
        ("eps_from_ls", actual.eps_from_ls, expected.eps_from_ls),
        (
            "eps_from_belief",
            actual.eps_from_belief,
            expected.eps_from_belief,
        ),
        (
            "eps_from_advantage",
            actual.eps_from_advantage,
            expected.eps_from_advantage,
        ),
        ("advantage", actual.advantage, expected.advantage),
        ("max_belief", actual.max_belief, expected.max_belief),
        (
            "empirical_delta",
            actual.empirical_delta,
            expected.empirical_delta,
        ),
    ] {
        assert_eq!(a.to_bits(), e.to_bits(), "{name}: {a} != {e}");
    }
}

fn shard_paths(dir: &Path) -> Vec<PathBuf> {
    let mut paths: Vec<PathBuf> = std::fs::read_dir(dir)
        .unwrap()
        .map(|entry| entry.unwrap().path())
        .collect();
    paths.sort();
    paths
}

fn worker_config(addr: &str, id: &str, shard_dir: &Path) -> WorkerConfig {
    let mut config = WorkerConfig::new(addr, id, shard_dir);
    config.max_trials = 3;
    config.parallelism = Parallelism::trials(1);
    config.poll = Duration::from_millis(50);
    config.backoff_base = Duration::from_millis(20);
    config
}

#[test]
fn two_workers_produce_a_bit_identical_merged_report() {
    let store_dir = unique_dir("two_workers_store");
    let shard_dir = unique_dir("two_workers_shards");
    let mut config = CoordinatorConfig::new(&store_dir);
    config.lease_trials = 3;
    let coordinator = Arc::new(Coordinator::new(config));
    let server = serve(coordinator.clone(), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    let header = toy_header("loopback", 8);
    let client = Client::new(addr.clone());
    client.submit_job("job-a", &header).unwrap();

    let handles: Vec<_> = ["w1", "w2"]
        .into_iter()
        .map(|id| {
            let mut config = worker_config(&addr, id, &shard_dir);
            config.parallelism = Parallelism::trials(2);
            std::thread::spawn(move || run_worker(&config, &mut ToyRunner))
        })
        .collect();
    let summaries: Vec<_> = handles
        .into_iter()
        .map(|handle| handle.join().unwrap().unwrap())
        .collect();
    server.shutdown();

    // Every trial ran exactly once, split across the two workers.
    let executed: usize = summaries.iter().map(|s| s.executed).sum();
    assert_eq!(executed, 8);
    assert!(summaries.iter().all(|s| !s.drained));

    let expected = single_node_report(&header);

    // Worker shards merge to the single-node bits.
    let shards = shard_paths(&shard_dir);
    assert!(!shards.is_empty());
    let merged = merge_shards(&shards).unwrap();
    assert_eq!(merged.duplicates, 0);
    assert!(merged.is_complete());
    assert_bit_identical(&merged.report().unwrap(), &expected);
    assert_eq!(
        render_report(&merged.header, &merged.report().unwrap()),
        render_report(&header, &expected)
    );

    // A merged store file replays to the same bits again.
    let merged_path = store_dir.join("merged.jsonl");
    merged.write_store(&merged_path).unwrap();
    let replay = replay_store(&merged_path).unwrap();
    assert_bit_identical(&replay.report.unwrap(), &expected);

    // And the coordinator's own store is independently complete.
    let coordinator_path = coordinator.store_path("job-a").unwrap();
    let replay = replay_store(&coordinator_path).unwrap();
    assert_eq!(replay.completed, 8);
    assert_bit_identical(&replay.report.unwrap(), &expected);
}

#[test]
fn killed_worker_lease_is_reclaimed_and_the_result_is_unchanged() {
    let store_dir = unique_dir("reclaim_store");
    let shard_dir = unique_dir("reclaim_shards");
    let mut config = CoordinatorConfig::new(&store_dir);
    config.lease_trials = 4;
    config.lease_ttl = Duration::from_millis(300);
    let coordinator = Arc::new(Coordinator::new(config));
    let server = serve(coordinator.clone(), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    let header = toy_header("reclaim", 6);
    let client = Client::new(addr.clone());
    client.submit_job("job-a", &header).unwrap();

    // A "killed" worker claims a lease over the wire and dies: it never
    // submits, never renews.
    let dead_reply = client
        .claim(&dpaudit_fabric::LeaseRequest {
            worker: "dead".into(),
            job: Some("job-a".into()),
            max_trials: 4,
        })
        .unwrap();
    let dpaudit_fabric::LeaseReply::Granted {
        lease: dead_lease,
        indices: dead_indices,
        ..
    } = dead_reply
    else {
        panic!("expected the dead worker to win a lease");
    };
    assert_eq!(dead_indices, vec![0, 1, 2, 3]);

    // The surviving worker picks up the leftovers, waits out the dead
    // lease, and finishes the reclaimed indices too.
    let mut config = worker_config(&addr, "survivor", &shard_dir);
    config.parallelism = Parallelism::trials(2);
    let summary = run_worker(&config, &mut ToyRunner).unwrap();
    assert_eq!(summary.executed, 6);

    let status = client.status().unwrap();
    assert!(status.leases_reclaimed >= 1, "{status:?}");
    assert!(status.all_done());

    // The dead worker's straggler submission (it ran its indices after
    // all) is pure duplicates — accepted, changing nothing.
    let coordinator_path = coordinator.store_path("job-a").unwrap();
    let records = read_store(&coordinator_path).unwrap().records;
    let straggler: Vec<_> = records
        .iter()
        .filter(|record| record.idx < 2)
        .cloned()
        .collect();
    let ack = client
        .submit(
            &SubmitHeader {
                job: "job-a".into(),
                lease: Some(dead_lease),
                worker: "dead".into(),
                metrics: None,
            },
            &straggler,
        )
        .unwrap();
    assert_eq!((ack.accepted, ack.duplicates), (0, 2));
    server.shutdown();

    // Identical bits despite the reclaim and the straggler.
    let expected = single_node_report(&header);
    let merged = merge_shards(&shard_paths(&shard_dir)).unwrap();
    assert_bit_identical(&merged.report().unwrap(), &expected);
    let replay = replay_store(&coordinator_path).unwrap();
    assert_bit_identical(&replay.report.unwrap(), &expected);
}

#[test]
fn shipped_worker_metrics_aggregate_to_the_merged_trial_count() {
    let store_dir = unique_dir("metrics_store");
    let shard_dir = unique_dir("metrics_shards");
    let mut config = CoordinatorConfig::new(&store_dir);
    config.lease_trials = 3;
    let coordinator = Arc::new(Coordinator::new(config));
    let server = serve(coordinator.clone(), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    let header_a = toy_header("metrics-a", 5);
    let mut header_b = toy_header("metrics-b", 3);
    header_b.master_seed = Seed(7);
    let client = Client::new(addr.clone());
    client.submit_job("job-a", &header_a).unwrap();
    client.submit_job("job-b", &header_b).unwrap();

    // One job per worker, so both deterministically execute (and ship
    // metrics). Each in-process worker carries its *own* registry — global
    // dispatch is process-wide and exclusive.
    let registries: Vec<Arc<dpaudit_obs::MetricsRegistry>> = (0..2)
        .map(|_| Arc::new(dpaudit_obs::MetricsRegistry::new()))
        .collect();
    let handles: Vec<_> = [("w1", "job-a"), ("w2", "job-b")]
        .into_iter()
        .zip(&registries)
        .map(|((id, job), registry)| {
            let mut config = worker_config(&addr, id, &shard_dir);
            config.job = Some(job.into());
            config.metrics = Some(registry.clone());
            std::thread::spawn(move || run_worker(&config, &mut ToyRunner))
        })
        .collect();
    for handle in handles {
        handle.join().unwrap().unwrap();
    }

    // Merge each job's shards; the fleet total must match their sum.
    let mut merged_trials = 0usize;
    for job in ["job-a", "job-b"] {
        let shards: Vec<PathBuf> = shard_paths(&shard_dir)
            .into_iter()
            .filter(|path| {
                path.file_name()
                    .is_some_and(|name| name.to_string_lossy().starts_with(job))
            })
            .collect();
        let merged = merge_shards(&shards).unwrap();
        assert!(merged.is_complete());
        merged_trials += merged.report().unwrap().trials;
    }

    // The coordinator's fleet view aggregates exactly the merged count.
    let fleet = client.fleet().unwrap();
    assert!(fleet.done, "{fleet:?}");
    assert_eq!(fleet.trials_completed, merged_trials);
    let fleet_submitted: u64 = fleet.workers.iter().map(|w| w.trials_submitted).sum();
    assert_eq!(fleet_submitted as usize, merged_trials);

    // So do the shipped per-worker trial counters (reassembled deltas).
    let snapshots = coordinator.worker_snapshots();
    assert_eq!(snapshots.len(), 2);
    let shipped_trials: u64 = snapshots
        .values()
        .map(|s| {
            s.counters
                .get(dpaudit_obs::names::FABRIC_WORKER_TRIALS)
                .copied()
                .unwrap_or(0)
        })
        .sum();
    assert_eq!(shipped_trials as usize, merged_trials);

    // And the exposition labels every worker's series.
    let (status, body) = client.request("GET", "/metrics", &[]).unwrap();
    assert_eq!(status, 200);
    let exposition = String::from_utf8_lossy(&body).into_owned();
    for id in ["w1", "w2"] {
        assert!(
            exposition.contains(&format!("worker=\"{id}\"")),
            "missing worker label {id} in:\n{exposition}"
        );
    }
    server.shutdown();
}

#[test]
fn one_worker_drains_a_multi_job_queue_in_order() {
    let store_dir = unique_dir("queue_store");
    let shard_dir = unique_dir("queue_shards");
    let coordinator = Arc::new(Coordinator::new(CoordinatorConfig::new(&store_dir)));
    let server = serve(coordinator.clone(), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();

    let header_a = toy_header("job-a", 3);
    let mut header_b = toy_header("job-b", 4);
    header_b.master_seed = Seed(7);
    let client = Client::new(addr.clone());
    client.submit_job("job-a", &header_a).unwrap();
    client.submit_job("job-b", &header_b).unwrap();

    let registry = Arc::new(dpaudit_obs::MetricsRegistry::new());
    let mut config = worker_config(&addr, "solo", &shard_dir);
    config.metrics = Some(registry.clone());
    let summary = run_worker(&config, &mut ToyRunner).unwrap();
    server.shutdown();

    assert_eq!(summary.executed, 7);
    assert_eq!(summary.jobs, vec!["job-a".to_string(), "job-b".to_string()]);

    for (job, header) in [("job-a", &header_a), ("job-b", &header_b)] {
        let replay = replay_store(&coordinator.store_path(job).unwrap()).unwrap();
        assert_bit_identical(&replay.report.unwrap(), &single_node_report(header));
    }

    // One shipped-metrics baseline across both jobs: the coordinator holds
    // every trial the registry counted exactly once.
    let trials = |snapshot: &dpaudit_obs::MetricsSnapshot| {
        snapshot.counters[dpaudit_obs::names::FABRIC_WORKER_TRIALS]
    };
    let shipped = trials(&coordinator.worker_snapshots()["solo"]);
    assert_eq!(shipped, trials(&registry.snapshot()));
    assert_eq!(shipped, 7);
    assert_eq!(coordinator.status().trials_submitted, 7);
}

/// Rebuilds the toy workload, but its first model build (inside the first
/// leased trial) submits `conflict` — trial 0 with other bytes — as a rogue
/// worker, so the real worker's own submission of trial 0 collides.
struct ConflictRunner {
    client: Client,
    conflict: TrialRecord,
}

impl JobRunner for ConflictRunner {
    fn workload(&mut self, job: &str, _header: &StoreHeader) -> std::io::Result<JobWorkload> {
        let (client, conflict) = (self.client.clone(), self.conflict.clone());
        let rogue = SubmitHeader {
            job: job.into(),
            lease: None,
            worker: "rogue".into(),
            metrics: None,
        };
        let submitted = std::sync::Once::new();
        Ok(JobWorkload {
            pair: testkit::toy_pair(),
            model: Box::new(move |rng| {
                submitted.call_once(|| {
                    client
                        .submit(&rogue, std::slice::from_ref(&conflict))
                        .unwrap();
                });
                testkit::toy_model(rng)
            }),
        })
    }
}

#[test]
fn a_rejected_submission_ends_the_job_after_the_shard_append() {
    let store_dir = unique_dir("conflict_store");
    let shard_dir = unique_dir("conflict_shards");
    let coordinator = Arc::new(Coordinator::new(CoordinatorConfig::new(&store_dir)));
    let server = serve(coordinator.clone(), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let header = toy_header("conflict", 3);
    let client = Client::new(addr.clone());
    client.submit_job("job-a", &header).unwrap();

    let plan = ExecPlan::for_header(&header, Parallelism::trials(1));
    let own = execute_trial(
        &testkit::toy_pair(),
        &header.settings,
        None,
        testkit::toy_model,
        &plan,
        0,
    );
    let mut conflict = own.clone();
    conflict.eps_ls += 1.0;
    let mut runner = ConflictRunner {
        client: client.clone(),
        conflict: conflict.clone(),
    };
    let config = worker_config(&addr, "w1", &shard_dir);
    let err = run_worker(&config, &mut runner).unwrap_err();
    server.shutdown();

    assert_eq!(err.kind(), std::io::ErrorKind::AlreadyExists);
    assert!(err.to_string().contains("determinism conflict"), "{err}");
    // Append comes before submit: the shard holds the worker's own trial 0
    // and, the job having ended there, nothing else.
    let shard = read_store(&shard_dir.join("job-a.w1.jsonl")).unwrap();
    assert_eq!(shard.records, vec![own]);
    // The coordinator kept the rogue record and received no other.
    let stored = read_store(&coordinator.store_path("job-a").unwrap()).unwrap();
    assert_eq!(stored.records, vec![conflict]);
}

#[test]
fn preset_shutdown_flag_drains_without_claiming_work() {
    let store_dir = unique_dir("drain_store");
    let shard_dir = unique_dir("drain_shards");
    let coordinator = Arc::new(Coordinator::new(CoordinatorConfig::new(&store_dir)));
    let server = serve(coordinator.clone(), "127.0.0.1:0").unwrap();
    let addr = server.addr().to_string();
    let client = Client::new(addr.clone());
    client.submit_job("job-a", &toy_header("drain", 4)).unwrap();

    let mut config = worker_config(&addr, "drainer", &shard_dir);
    config.shutdown = Arc::new(AtomicBool::new(true));
    let summary = run_worker(&config, &mut ToyRunner).unwrap();

    assert!(summary.drained);
    assert_eq!(summary.executed, 0);
    assert!(summary.jobs.is_empty());
    // Nothing was claimed: the queue is untouched for real workers.
    assert_eq!(client.status().unwrap().leases_granted, 0);
    server.shutdown();
}
