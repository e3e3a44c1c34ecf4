//! A fixed reference kernel that measures how fast the machine runs.
//!
//! The benchmark shares its cores with other tenants, and their load moves
//! this machine's speed by up to a third within minutes, for every program
//! alike. The timed loop runs this kernel between its store sessions, and
//! scales the times it reports by the kernel's mean time over the run,
//! relative to [`NOMINAL_SECONDS`]: the metrics read as if the machine had
//! run at one fixed speed throughout. The kernel belongs to the benchmark
//! and calls nothing in the repository, so no change to the program under
//! test moves it.
//!
//! The kernel is timed by its threads' on-CPU time, not wall time: the
//! speed of the work itself, which contention for the host's cores and
//! caches sets. The time the hypervisor takes a vCPU away comes in bursts
//! that a 20-ms kernel between sessions mostly misses or badly overstates;
//! the sessions' own wall time averages it.

use std::hint::black_box;
use std::io;
use std::process::{Command, Stdio};

/// What one run of the kernel takes per thread, in on-CPU seconds, on a
/// quiet 2.1 GHz Xeon vCPU: the speed every scaled metric is reported at.
pub const NOMINAL_SECONDS: f64 = 0.02;

/// `[16, 600] · [600, 128]`, the shape of the Purchase MLP's first layer
/// over one clip chunk.
const GEMM: (usize, usize, usize) = (16, 600, 128);
/// Doubles swept per repeat: 4 MiB, more than a core's L2.
const SWEEP: usize = 1 << 19;
const REPS: usize = 30;

/// This thread's time on a CPU so far, in seconds, from the nanosecond
/// count in `/proc/thread-self/schedstat`.
fn thread_cpu_seconds() -> io::Result<f64> {
    let text = std::fs::read_to_string("/proc/thread-self/schedstat")?;
    text.split_whitespace()
        .next()
        .and_then(|ns| ns.parse::<u64>().ok())
        .map(|ns| ns as f64 / 1e9)
        .ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::InvalidData,
                "unreadable /proc/thread-self/schedstat",
            )
        })
}

/// Run the kernel once on this thread; returns the on-CPU seconds the
/// timed part took. The buffers are filled before the clock starts, so the
/// timed part takes no page faults, and freed after, so they never add to
/// the peak resident set of the workload's sessions.
fn run_once() -> io::Result<f64> {
    let (m, k, n) = GEMM;
    let fill =
        |len: usize| -> Vec<f64> { (0..len).map(|i| (i % 17) as f64 / 17.0 - 0.5).collect() };
    let (a, b, mut sweep) = (fill(m * k), fill(k * n), fill(SWEEP));
    let mut c = vec![0.0; m * n];
    let start = thread_cpu_seconds()?;
    for _ in 0..REPS {
        let (a, b) = (black_box(&a), black_box(&b));
        for (i, row) in c.chunks_exact_mut(n).enumerate() {
            for p in 0..k {
                let aip = a[i * k + p];
                for (cij, bpj) in row.iter_mut().zip(&b[p * n..(p + 1) * n]) {
                    *cij += aip * bpj;
                }
            }
        }
        for v in black_box(&mut sweep).iter_mut() {
            *v = *v * 0.5 + 0.25;
        }
    }
    black_box((&c, &sweep));
    Ok(thread_cpu_seconds()? - start)
}

/// Run the kernel once on each of `threads` threads at once; returns the
/// mean of the threads' on-CPU times in seconds. `bench_audit --reference
/// THREADS` prints it.
pub fn run(threads: usize) -> io::Result<f64> {
    let times = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads.max(1)).map(|_| s.spawn(run_once)).collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("the reference kernel does not panic"))
            .collect::<io::Result<Vec<f64>>>()
    })?;
    Ok(times.iter().sum::<f64>() / times.len() as f64)
}

/// [`run`] in a child process of this binary, so that the kernel's buffers
/// and threads never count towards this process's peak resident set.
pub fn seconds(threads: usize) -> io::Result<f64> {
    let output = Command::new(std::env::current_exe()?)
        .args(["--reference", &threads.to_string()])
        .stderr(Stdio::inherit())
        .output()?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    match stdout.trim().parse::<f64>() {
        Ok(seconds) if output.status.success() => Ok(seconds),
        _ => Err(io::Error::other(format!(
            "reference kernel: {} ({})",
            stdout.trim(),
            output.status
        ))),
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn reference_runs_on_every_thread() {
        for threads in [1, 2] {
            assert!(super::run(threads).unwrap() > 0.0);
        }
    }
}
