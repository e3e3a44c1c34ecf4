//! Criterion benchmark of one DPSGD step's clipped-gradient sum
//! (`StepExec::clip_sum`): the scalar per-example oracle vs the drawn
//! (one example at a time) sum vs the batched gemm-shaped chunked sum vs
//! the chunk-parallel sum. The drawn sum is bit-identical to the in-order
//! oracle, and the chunked sums to each other (see the property tests in
//! `dpaudit-nn` and `dpaudit-dpsgd`); this measures what batching buys.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use dpaudit_bench::Workload;
use dpaudit_dpsgd::{Batch, ClippingStrategy, ComputeMode, StepExec};
use dpaudit_math::{axpy, seeded_rng};
use dpaudit_nn::Sequential;
use dpaudit_tensor::Tensor;

const TRAIN: usize = 32;

fn setup() -> (Sequential, Vec<Tensor>, Vec<usize>) {
    let workload = Workload::Mnist;
    let world = workload.world(3, TRAIN);
    let mut rng = seeded_rng(5);
    let mut model = workload.build_model(&mut rng);
    model.update_norm_stats(&world.train.xs);
    (model, world.train.xs, world.train.ys)
}

/// The pre-refactor step body: one forward/backward per example on the
/// scalar kernels, then clip and accumulate.
fn scalar_step(
    model: &Sequential,
    xs: &[Tensor],
    ys: &[usize],
    clipping: &ClippingStrategy,
    layout: &[usize],
) -> Vec<f64> {
    let mut sum = vec![0.0; model.param_count()];
    for (x, &y) in xs.iter().zip(ys) {
        let (_, mut g) = model.per_example_grad_scalar(x, y);
        clipping.clip(&mut g, layout);
        axpy(1.0, &g, &mut sum);
    }
    sum
}

fn bench_batched_step(c: &mut Criterion) {
    let (model, xs, ys) = setup();
    let clipping = ClippingStrategy::Flat(3.0);
    let layout = model.param_layout();
    let all: Vec<usize> = (0..xs.len()).collect();
    let exec = |threads| StepExec::new(ComputeMode::F64).with_threads(threads);
    let (serial, parallel) = (exec(1), exec(0));

    let mut g = c.benchmark_group("batched_step");
    g.sample_size(10);
    g.bench_function(format!("scalar_{TRAIN}"), |b| {
        b.iter(|| black_box(scalar_step(&model, &xs, &ys, &clipping, &layout)))
    });
    g.bench_function(format!("drawn_{TRAIN}"), |b| {
        b.iter(|| black_box(serial.clip_sum(&model, &xs, &ys, Batch::Drawn(&all), &clipping)))
    });
    g.bench_function(format!("batched_{TRAIN}"), |b| {
        b.iter(|| black_box(serial.clip_sum(&model, &xs, &ys, Batch::Full, &clipping)))
    });
    g.bench_function(format!("parallel_{TRAIN}"), |b| {
        b.iter(|| black_box(parallel.clip_sum(&model, &xs, &ys, Batch::Full, &clipping)))
    });
    g.finish();
}

criterion_group!(benches, bench_batched_step);
criterion_main!(benches);
