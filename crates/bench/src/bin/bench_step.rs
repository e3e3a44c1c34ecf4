//! Throughput probe for one DPSGD step's clipped-gradient sum
//! (`StepExec::clip_sum`) across kernel variants: the full batch in chunks
//! at scalar/SIMD × f64/f32, the chunk-parallel SIMD sum, the drawn
//! (Poisson-style, one example at a time) sum at f64/f32, per workload,
//! emitted as a JSON blob (`results/run_all.sh` captures it as
//! `results/BENCH_step.json`).
//!
//! The speedup baseline is `batched_f64_scalar` — the register-blocked
//! scalar-tile chunked sum, i.e. the fastest single-core variant before the
//! SIMD microkernels and the f32 storage mode landed. Correctness is
//! asserted inline: the batched-scalar, batched-SIMD, and parallel-SIMD f64
//! sums must be bit-identical (the accumulation-chain contract), the drawn
//! f64 sum must equal the in-order sum of clipped scalar-oracle gradients
//! bit for bit and agree with the chunked sum within 1e-9 (sequential vs
//! chunked reduction order), and the f32 sums must track the f64 oracle
//! within a relative tolerance — so every ratio reported here is pure
//! speed.

use dpaudit_bench::Workload;
use dpaudit_dpsgd::{clip_to_norm, Batch, ComputeMode, StepExec};
use dpaudit_math::{axpy, seeded_rng};
use dpaudit_tensor::{kernel_backend, set_force_scalar};
use std::time::Instant;

const TRAIN: usize = 64;
const ITERS: usize = 10;

/// Examples/sec from the *fastest* of `ITERS` timed repetitions (after one
/// warm-up). Minimum-over-reps is the standard throughput estimator on a
/// shared machine: scheduler and frequency noise only ever slows a rep
/// down, so the minimum is the least-contaminated observation, and using it
/// for every variant keeps the ratios fair.
fn throughput(mut step: impl FnMut() -> Vec<f64>) -> (f64, Vec<f64>) {
    let sum = step();
    let mut best = f64::INFINITY;
    for _ in 0..ITERS {
        let t0 = Instant::now();
        std::hint::black_box(step());
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (TRAIN as f64 / best, sum)
}

fn bits(v: &[f64]) -> Vec<u64> {
    v.iter().map(|x| x.to_bits()).collect()
}

fn worst_abs_diff(a: &[f64], b: &[f64]) -> f64 {
    a.iter()
        .zip(b)
        .map(|(x, y)| (x - y).abs())
        .fold(0.0f64, f64::max)
}

fn measure(workload: Workload) -> serde_json::Value {
    let world = workload.world(3, TRAIN);
    let mut rng = seeded_rng(5);
    let mut model = workload.build_model(&mut rng);
    model.update_norm_stats(&world.train.xs);
    let (xs, ys) = (&world.train.xs, &world.train.ys);
    let clip_norm = 3.0;
    let all: Vec<usize> = (0..xs.len()).collect();

    // One step's clipped sum through the single entry point. Each exec is
    // built outside the timed closures, so the parallel row (threads 0 =
    // the machine's parallelism) reuses one pool like a training run does.
    let exec = |compute| StepExec::new(compute).with_threads(1);
    let step = |exec: &StepExec, batch| exec.clip_sum(&model, xs, ys, batch, clip_norm).clean_sum;
    let (f64_exec, f32_exec) = (exec(ComputeMode::F64), exec(ComputeMode::F32));
    let parallel_exec = StepExec::new(ComputeMode::F64).with_threads(0);
    let (full, drawn) = (Batch::Full, Batch::Drawn(&all));

    // Scalar tiles pinned: the scalar oracle and the speedup baseline.
    set_force_scalar(true);
    let mut oracle_sum = vec![0.0; model.param_count()];
    for (x, &y) in xs.iter().zip(ys) {
        let (_, mut g) = model.per_example_grad_scalar(x, y);
        clip_to_norm(&mut g, clip_norm);
        axpy(1.0, &g, &mut oracle_sum);
    }
    let (f64_scalar, f64_scalar_sum) = throughput(|| step(&f64_exec, full));
    let (f32_scalar, f32_scalar_sum) = throughput(|| step(&f32_exec, full));

    // SIMD dispatch restored.
    set_force_scalar(false);
    let (f64_simd, f64_simd_sum) = throughput(|| step(&f64_exec, full));
    let (f32_simd, f32_simd_sum) = throughput(|| step(&f32_exec, full));
    let (parallel, parallel_sum) = throughput(|| step(&parallel_exec, full));
    let (f64_drawn, f64_drawn_sum) = throughput(|| step(&f64_exec, drawn));
    let (f32_drawn, f32_drawn_sum) = throughput(|| step(&f32_exec, drawn));

    // Determinism contract: every f64 variant of the chunked reduction is
    // bit-identical; the drawn sum is the in-order scalar-oracle sum, and
    // agrees with the chunked one within rounding.
    assert_eq!(
        bits(&oracle_sum),
        bits(&f64_drawn_sum),
        "drawn f64 sum drifted from the in-order scalar oracle"
    );
    assert_eq!(
        bits(&f64_scalar_sum),
        bits(&f64_simd_sum),
        "SIMD f64 sum drifted from the scalar tiles"
    );
    assert_eq!(
        bits(&f64_scalar_sum),
        bits(&parallel_sum),
        "parallel f64 sum drifted"
    );
    let worst = worst_abs_diff(&oracle_sum, &f64_scalar_sum);
    assert!(
        worst < 1e-9,
        "batched sum drifted from per-example: {worst}"
    );

    // f32 storage: bit-identical across kernels? No — the f32 gemm rounds
    // differently under SIMD vs scalar tiling. Both must track f64 closely.
    let scale = f64_scalar_sum
        .iter()
        .fold(1.0f64, |m, x| f64::max(m, x.abs()));
    for (label, sum) in [
        ("scalar", &f32_scalar_sum),
        ("simd", &f32_simd_sum),
        ("drawn", &f32_drawn_sum),
    ] {
        let worst = worst_abs_diff(sum, &f64_scalar_sum);
        assert!(
            worst < 1e-3 * scale,
            "f32 {label} sum drifted from f64: {worst} (scale {scale})"
        );
    }

    let rates = [
        ("batched_f64_scalar", f64_scalar),
        ("batched_f64_simd", f64_simd),
        ("batched_f32_scalar", f32_scalar),
        ("batched_f32_simd", f32_simd),
        ("parallel_f64_simd", parallel),
        ("drawn_f64_simd", f64_drawn),
        ("drawn_f32_simd", f32_drawn),
    ];
    let examples_per_sec: serde_json::Value = serde_json::Value::Object(
        rates
            .iter()
            .map(|(l, r)| (l.to_string(), serde_json::json!(*r)))
            .collect(),
    );
    let speedups: serde_json::Value = serde_json::Value::Object(
        rates
            .iter()
            .filter(|(l, _)| *l != "batched_f64_scalar")
            .map(|(l, r)| (l.to_string(), serde_json::json!(*r / f64_scalar)))
            .collect(),
    );

    serde_json::json!({
        "workload": workload.key(),
        "examples_per_sec": examples_per_sec,
        "speedup_vs_batched_f64_scalar": speedups,
        "f64_sums_bit_identical": true,
        "f32_worst_abs_drift": worst_abs_diff(&f32_simd_sum, &f64_scalar_sum),
    })
}

fn main() {
    let cores = std::thread::available_parallelism().map_or(1, usize::from);
    let runs: Vec<serde_json::Value> = [Workload::Mnist, Workload::Purchase]
        .into_iter()
        .map(measure)
        .collect();
    let blob = serde_json::json!({
        "train_size": TRAIN,
        "iters": ITERS,
        "cores": cores,
        "backend": kernel_backend(),
        "runs": runs,
    });
    println!(
        "{}",
        serde_json::to_string_pretty(&blob).expect("serialize")
    );
}
