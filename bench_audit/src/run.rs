//! The untraced measurement of one workload: set-up, the timed closed loop
//! of store sessions, and the correctness gate over what the loop wrote.

use crate::compose::same_bits;
use crate::reference::{self, NOMINAL_SECONDS};
use crate::stats::median;
use crate::trace::Recorder;
use crate::workloads::{gate_seed, nproc, round_master_seed, world_seed, Spec};
use dpaudit_core::{AuditReport, Sampling};
use dpaudit_dp::NeighborMode;
use dpaudit_dpsgd::NeighborPair;
use dpaudit_math::seeded_rng;
use dpaudit_runtime::{
    execute_trial, read_store, replay_store, AuditSession, ExecPlan, Parallelism, StoreHeader,
};
use rand::Rng;
use std::io;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Share of the timed loop spent repeating the set-up between sessions, so
/// that `setup_s`, the median repeat, rests on many repeats (hundreds where
/// a set-up takes milliseconds) spread across the whole run. On a shared
/// 2-vCPU Xeon VM, 8% and a floor of 5 gave the 0.35-s Poisson set-up 6
/// repeats and a ten-seed spread of 10%; 12% and a floor of 9 gave 5%.
const SETUP_SHARE: f64 = 0.12;
const SETUP_MIN_REPEATS: usize = 9;
/// Share of the timed loop spent running the reference kernel after
/// sessions (at least once after each), so that its mean over the run
/// rests on tens of runs even where sessions are few and long.
const REFERENCE_SHARE: f64 = 0.05;
/// Trials of the timed loop the gate re-executes and compares bit for bit.
const GATE_REEXECUTIONS: usize = 2;
/// How far the full-batch ε′-from-LS may sit from the target ε.
const EPS_LS_TOLERANCE: f64 = 0.01;

/// The end-to-end result of one workload run. Times are scaled to the
/// reference kernel's nominal speed (see [`crate::reference`]).
pub struct Measured {
    /// The DS-maximising pair every trial of the run challenges.
    pub pair: NeighborPair,
    pub attempted: usize,
    pub failed: usize,
    pub trials_per_s: f64,
    pub cpu_s_per_trial: f64,
    pub setup_s: f64,
    /// The reference kernel's mean time over the run ÷ its nominal time.
    pub slowdown: f64,
}

/// One store session of the timed loop.
struct Round {
    path: PathBuf,
    header: StoreHeader,
    /// `None` when the session panicked or a store append failed.
    report: Option<AuditReport>,
}

/// Set up `spec`, run its timed loop for `seconds`, and gate the results.
///
/// The reference kernel runs before the first set-up and after every
/// session. Throughput and CPU time are scaled by its mean time over the
/// run, each set-up by the mean of the reference runs just before it.
pub fn measure(
    spec: &Spec,
    seed: u64,
    seconds: u64,
    work: &Path,
    recorder: &Recorder,
) -> io::Result<Measured> {
    let started = Instant::now();
    let mut reference = ReferenceRuns::default();
    let mut reference_s = reference.run(recorder, started)?;
    let (pair, first) = set_up(spec, seed, work, recorder)?;
    let (mut setups, mut setup_total) = (vec![first * NOMINAL_SECONDS / reference_s], first);
    let parallelism = spec.parallelism(nproc());
    let session_trials = spec.session_trials(nproc());
    let builder = |rng: &mut rand::rngs::StdRng| spec.dataset.build_model(rng);

    let mut rounds: Vec<Round> = Vec::new();
    // Wall and CPU seconds of the sessions that completed.
    let (mut wall, mut cpu, mut completed) = (0.0, 0.0, 0);
    while rounds.is_empty() || started.elapsed() < Duration::from_secs(seconds) {
        let header = spec.header(
            world_seed(seed),
            round_master_seed(seed, rounds.len()),
            session_trials,
        );
        let path = work.join(format!("round-{}.jsonl", rounds.len()));
        let mut session = AuditSession::create(&path, header.clone())?;
        let cpu_before = cpu_seconds()?;
        let t0 = recorder.now();
        let result = catch_unwind(AssertUnwindSafe(|| {
            session.run(&pair, None, builder, parallelism, |_| {}, None)
        }));
        let t1 = recorder.now();
        let cpu_used = cpu_seconds()? - cpu_before;
        recorder.span("runtime.session_run", t0, t1);
        let report = match result {
            Ok(Ok(outcome)) => {
                wall += (t1 - t0) as f64 / 1e9;
                cpu += cpu_used;
                completed += session_trials;
                Some(outcome.report)
            }
            Ok(Err(e)) => {
                eprintln!("[{}] store append failed: {e}", spec.name);
                None
            }
            Err(_) => None,
        };
        rounds.push(Round {
            path,
            header,
            report,
        });
        reference_s = reference.run(recorder, started)?;
        while setup_total < SETUP_SHARE * started.elapsed().as_secs_f64() {
            let (_, took) = set_up(spec, seed, work, recorder)?;
            setup_total += took;
            setups.push(took * NOMINAL_SECONDS / reference_s);
        }
    }
    while setups.len() < SETUP_MIN_REPEATS {
        let (_, took) = set_up(spec, seed, work, recorder)?;
        setups.push(took * NOMINAL_SECONDS / reference_s);
    }

    // How much slower than nominal the machine ran, on average.
    let slowdown = mean(&reference.times) / NOMINAL_SECONDS;
    eprintln!(
        "[{}] {completed} trials in {} sessions: {:.4} trial/s and {:.4} CPU s/trial as \
         measured; reference kernel at {slowdown:.3}x its nominal time over {} runs",
        spec.name,
        rounds.len(),
        completed as f64 / wall,
        cpu / completed.max(1) as f64,
        reference.times.len(),
    );
    let attempted = rounds.len() * session_trials;
    let failed = attempted - completed + gate(spec, seed, &pair, &rounds)?;
    Ok(Measured {
        pair,
        attempted,
        failed: failed.min(attempted),
        trials_per_s: if completed == 0 {
            0.0
        } else {
            completed as f64 / wall * slowdown
        },
        cpu_s_per_trial: cpu / completed.max(1) as f64 / slowdown,
        setup_s: median(&setups),
        slowdown,
    })
}

/// The reference kernel's runs in one timed loop.
#[derive(Default)]
struct ReferenceRuns {
    /// On-CPU seconds per thread of every run.
    times: Vec<f64>,
    /// Wall seconds the loop has spent on the runs.
    spent: f64,
}

impl ReferenceRuns {
    /// Run the kernel once, then again until the loop started at `started`
    /// has spent `REFERENCE_SHARE` of its time on it; returns these runs'
    /// mean time.
    fn run(&mut self, recorder: &Recorder, started: Instant) -> io::Result<f64> {
        let first = self.times.len();
        loop {
            let t0 = recorder.now();
            self.times.push(reference::seconds(nproc())?);
            let t1 = recorder.now();
            recorder.span("bench.reference", t0, t1);
            self.spent += (t1 - t0) as f64 / 1e9;
            if self.spent >= REFERENCE_SHARE * started.elapsed().as_secs_f64() {
                return Ok(mean(&self.times[first..]));
            }
        }
    }
}

fn mean(values: &[f64]) -> f64 {
    values.iter().sum::<f64>() / values.len() as f64
}

/// Build the world, search the DS-maximising pair and create a store;
/// returns the pair and the seconds this took.
fn set_up(
    spec: &Spec,
    seed: u64,
    work: &Path,
    recorder: &Recorder,
) -> io::Result<(NeighborPair, f64)> {
    let t0 = recorder.now();
    let world = recorder.time("datasets.world", || {
        spec.dataset.world(world_seed(seed), spec.train_size)
    });
    let pair = recorder.time("datasets.ds_search", || {
        spec.dataset.max_pair(&world, NeighborMode::Bounded)
    });
    let header = spec.header(
        world_seed(seed),
        round_master_seed(seed, 0),
        spec.session_trials(nproc()),
    );
    let path = work.join("setup.jsonl");
    recorder.time("runtime.session_create", || {
        AuditSession::create(&path, header)
    })?;
    let t1 = recorder.now();
    recorder.span("bench.setup", t0, t1);
    std::fs::remove_file(&path)?;
    Ok((pair, (t1 - t0) as f64 / 1e9))
}

/// Check the timed loop's output; returns the number of trials it rejects.
///
/// * Every store replays to the report its session returned, bit for bit.
/// * A full-batch LS audit recovers the target ε from the local
///   sensitivities to within `EPS_LS_TOLERANCE`.
/// * `GATE_REEXECUTIONS` seeded-random trials, re-executed serially, match
///   their stored records bit for bit.
fn gate(spec: &Spec, seed: u64, pair: &NeighborPair, rounds: &[Round]) -> io::Result<usize> {
    let mut rejected = 0;
    for (i, round) in rounds.iter().enumerate() {
        let Some(report) = &round.report else {
            continue;
        };
        let replayed = replay_store(&round.path)?.report;
        if !replayed.is_some_and(|r| same_bits(&r, report)) {
            eprintln!(
                "[{}] round {i}: store replay differs from the run's report",
                spec.name
            );
            rejected += round.header.reps;
            continue;
        }
        let target = round.header.target_epsilon;
        if spec.sampling == Sampling::FullBatch
            && (report.eps_from_ls - target).abs() > EPS_LS_TOLERANCE * target
        {
            eprintln!(
                "[{}] round {i}: eps' from LS {} is not within {EPS_LS_TOLERANCE} of the target {target}",
                spec.name, report.eps_from_ls
            );
            rejected += round.header.reps;
        }
    }
    let ok: Vec<&Round> = rounds.iter().filter(|r| r.report.is_some()).collect();
    let mut rng = seeded_rng(gate_seed(seed));
    for _ in 0..GATE_REEXECUTIONS.min(ok.len()) {
        let round = ok[rng.gen_range(0..ok.len())];
        let idx = rng.gen_range(0..round.header.reps);
        let plan = ExecPlan::for_header(&round.header, Parallelism::trials(1));
        let fresh = execute_trial(
            pair,
            &round.header.settings,
            None,
            |rng: &mut rand::rngs::StdRng| spec.dataset.build_model(rng),
            &plan,
            idx,
        );
        let stored = read_store(&round.path)?.records;
        if !stored.iter().any(|r| r.idx == idx && same_bits(r, &fresh)) {
            eprintln!(
                "[{}] re-executed trial {idx} differs from its stored record",
                spec.name
            );
            rejected += 1;
        }
    }
    Ok(rejected)
}

/// User plus system CPU time of this process and its finished threads,
/// from `/proc/self/stat` (fields 14 and 15, in clock ticks of 1/100 s —
/// `USER_HZ` is 100 on every Linux ABI this runs on).
fn cpu_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    // The command name (field 2) may hold spaces; count from after it.
    let fields: Vec<&str> = stat
        .rsplit_once(')')
        .map_or("", |(_, rest)| rest)
        .split_whitespace()
        .collect();
    let tick = |i: usize| -> io::Result<f64> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / 100.0)
            .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "unreadable /proc/self/stat"))
    };
    // Fields after the name start at field 3, so utime (14) is index 11.
    Ok(tick(11)? + tick(12)?)
}

/// Peak resident set size of this process (`VmHWM`) in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kib| kib / 1024.0)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn process_counters_are_readable() {
        let before = cpu_seconds().unwrap();
        let t0 = Instant::now();
        while t0.elapsed() < Duration::from_millis(60) {
            std::hint::black_box(0);
        }
        assert!(cpu_seconds().unwrap() > before);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
