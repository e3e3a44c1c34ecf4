//! The traced run: per-layer timings of the workload's trials.
//!
//! It times `execute_trial` serially with the program's obs sink off, and
//! next to each call rebuilds the same trial with [`compose_trial`] with the
//! recorder installed as the obs sink, checking each rebuilt record against
//! the stored one. The rebuilt trials give the layers of every real DPSGD
//! step: the benchmark's spans around the calls it makes, and the program's
//! own `dpsgd.clip`, `dpsgd.noise` and `dpsgd.update` spans inside them.
//! Layers no span covers (the nn and math calls inside those stages, the
//! tensor kernels, store appends and aggregate pushes) are then timed by
//! calling them directly.

use crate::compose::{compose_trial, same_bits};
use crate::stats::{median, tail};
use crate::trace::{self_nanos, Recorder};
use crate::workloads::{nproc, traced_master_seed, world_seed, Spec};
use dpaudit_datasets::Dataset;
use dpaudit_dpsgd::{set_batch_threads, NeighborPair, CLIP_CHUNK};
use dpaudit_math::{seeded_rng, GaussianSampler};
use dpaudit_nn::Sequential;
use dpaudit_obs::names::{CLIP_SPAN, NOISE_SPAN, UPDATE_SPAN};
use dpaudit_runtime::{
    execute_trial, read_store, ExecPlan, Parallelism, StreamingAggregates, TrialOutcome, TrialStore,
};
use dpaudit_tensor::{conv2d_forward_gemm_on, im2col_into, matmul_acc, Backend, Conv2dDims};
use rand::Rng;
use std::hint::black_box;
use std::io;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;

/// Store appends timed, cycling over the traced records.
const APPEND_SAMPLES: usize = 60;
/// Aggregate pushes timed as one block (a single push is ~100 ns).
const PUSH_SAMPLES: usize = 20_000;
/// A probe repeats until it has run this long and at least `PROBE_MIN_REPS`
/// times, up to `PROBE_MAX_REPS`.
const PROBE_MIN_NANOS: u128 = 150_000_000;
const PROBE_MIN_REPS: usize = 5;
const PROBE_MAX_REPS: usize = 50;

/// The dense gemm of the Purchase MLP's first layer at one clip chunk:
/// `[16, 600] · [600, 128]`.
const DENSE_GEMM: (usize, usize, usize) = (CLIP_CHUNK, 600, 128);
/// The MNIST CNN's second convolution (8 → 16 channels, 3×3 over 13×13).
const CONV2: Conv2dDims = Conv2dDims {
    in_channels: 8,
    out_channels: 16,
    in_h: 13,
    in_w: 13,
    k_h: 3,
    k_w: 3,
};

/// Per-layer metric values of the traced run, and how many rebuilt trials
/// disagreed with their stored record.
pub struct Traced {
    pub values: Vec<(&'static str, f64)>,
    pub mismatches: usize,
}

/// Run the traced phase of `spec` on `pair`. `trials_per_s` is the timed
/// loop's throughput as measured, for the parallel-efficiency ratio.
pub fn traced_run(
    spec: &Spec,
    seed: u64,
    pair: &NeighborPair,
    work: &Path,
    trials_per_s: f64,
    recorder: &Arc<Recorder>,
) -> io::Result<Traced> {
    let parallelism = spec.parallelism(nproc());
    set_batch_threads(parallelism.batch_threads);
    let header = spec.header(
        world_seed(seed),
        traced_master_seed(seed),
        spec.traced_trials,
    );
    let settings = &header.settings;
    let plan = ExecPlan::for_header(
        &header,
        Parallelism {
            trial_threads: 1,
            ..parallelism
        },
    );
    let builder = |rng: &mut rand::rngs::StdRng| spec.dataset.build_model(rng);

    // Each rebuilt trial runs next to its `execute_trial`, first on odd
    // indices and second on even ones, so neither drift in the machine's
    // speed nor whichever call warms the caches biases the overhead ratio.
    let mut records = Vec::with_capacity(spec.traced_trials);
    let mut rebuilt = Vec::with_capacity(spec.traced_trials);
    let mut last = None;
    for idx in 0..spec.traced_trials {
        let compose = || {
            let _sink = dpaudit_obs::install(recorder.clone());
            recorder.time("bench.composed_trial", || {
                compose_trial(pair, settings, None, builder, &plan, idx, recorder)
            })
        };
        let execute = || {
            recorder.time("runtime.execute_trial", || {
                execute_trial(pair, settings, None, builder, &plan, idx)
            })
        };
        let (record, composed) = if idx % 2 == 1 {
            let composed = compose();
            (execute(), composed)
        } else {
            (execute(), compose())
        };
        records.push(record);
        rebuilt.push(composed.record);
        last = Some((composed.model, composed.trained_on_d));
    }

    let path = work.join("traced.jsonl");
    let mut store = TrialStore::create(&path, &header)?;
    for record in records
        .iter()
        .cycle()
        .take(APPEND_SAMPLES.max(records.len()))
    {
        recorder.time("runtime.store_append", || store.append(record))?;
    }
    drop(store);
    let stored = read_store(&path)?.records;
    let mut mismatches = 0;
    for record in &rebuilt {
        if !stored
            .iter()
            .any(|r| r.idx == record.idx && same_bits(record, r))
        {
            eprintln!(
                "[{}] rebuilt trial {} differs from its stored record",
                spec.name, record.idx
            );
            mismatches += 1;
        }
    }

    let mut aggregates = StreamingAggregates::new(
        PUSH_SAMPLES,
        header.target_epsilon,
        header.delta,
        header.rho_beta_bound,
    );
    recorder.time("runtime.aggregate_push", || {
        for (idx, record) in records.iter().cycle().take(PUSH_SAMPLES).enumerate() {
            aggregates.push(idx, TrialOutcome::from(record));
        }
    });
    black_box(aggregates.finish());
    let (model, trained_on_d) = last.expect("a workload traces at least one trial");
    let backend = settings
        .dpsgd
        .backend
        .resolve()
        .expect("the benchmark runs the native backend");
    probe_layers(
        &model,
        pair.trained_dataset(trained_on_d),
        pair,
        backend,
        recorder,
    );
    probe_kernels(backend, recorder);

    // Derived values. A step's self time is what no span inside it covers.
    let spans = recorder.spans();
    let own = self_nanos(&spans);
    let total = |name: &str| -> (u64, u64) {
        spans
            .iter()
            .zip(&own)
            .filter(|(s, _)| s.name == name)
            .fold((0, 0), |(t, o), (s, own)| (t + s.nanos(), o + own))
    };
    let (step_total, step_self) = total("dpsgd.step");
    let (norm_total, _) = total("nn.norm_stats");
    let exec = recorder.millis("runtime.execute_trial");
    let overheads: Vec<f64> = recorder
        .millis("bench.composed_trial")
        .iter()
        .zip(&exec)
        .map(|(composed, exec)| composed / exec - 1.0)
        .collect();
    let steps = recorder.millis("dpsgd.step");
    let appends_us: Vec<f64> = recorder
        .millis("runtime.store_append")
        .iter()
        .map(|ms| ms * 1e3)
        .collect();
    let (dense_m, dense_k, dense_n) = DENSE_GEMM;
    let conv_flops = 2 * CONV2.out_channels * CONV2.patch_cols() * CONV2.patch_rows();
    let im2col_bytes = (CONV2.in_channels * CONV2.in_h * CONV2.in_w
        + CONV2.patch_rows() * CONV2.patch_cols())
        * std::mem::size_of::<f64>();
    let per_ns = |name: &str, units: usize| units as f64 / (recorder.median_ms(name) * 1e6);
    let ms = |name: &str| recorder.median_ms(name);

    let values = vec![
        ("runtime.execute_trial_ms.p50", median(&exec)),
        ("runtime.execute_trial_ms.tail", tail(&exec).1),
        ("runtime.store_append_us.p50", median(&appends_us)),
        ("runtime.store_append_us.tail", tail(&appends_us).1),
        (
            "runtime.aggregate_push_us",
            ms("runtime.aggregate_push") * 1e3 / PUSH_SAMPLES as f64,
        ),
        ("runtime.session_create_ms", ms("runtime.session_create")),
        (
            "runtime.parallel_efficiency",
            trials_per_s * median(&exec) / 1e3 / nproc() as f64,
        ),
        ("core.model_build_ms", ms("core.model_build")),
        ("core.adversary_observe_ms", ms("core.adversary_observe")),
        ("core.observe_final_ms", ms("core.observe_final")),
        ("dp.eps_ls_ms", ms("dp.eps_ls")),
        ("dpsgd.step_ms.p50", median(&steps)),
        ("dpsgd.step_ms.tail", tail(&steps).1),
        ("dpsgd.clip_ms", ms(CLIP_SPAN)),
        ("dpsgd.noise_ms", ms(NOISE_SPAN)),
        ("dpsgd.update_ms", ms(UPDATE_SPAN)),
        (
            "dpsgd.step_unattributed_share",
            step_self as f64 / step_total as f64,
        ),
        ("nn.norm_stats_ms", ms("nn.norm_stats")),
        ("nn.norm_stats_share", norm_total as f64 / step_total as f64),
        (
            "nn.per_example_grads_chunk_ms",
            ms("nn.per_example_grads_chunk"),
        ),
        ("nn.grad_b1_ms", ms("nn.grad_b1")),
        (
            "math.noise_fill_ns_per_param",
            ms("math.noise_fill") * 1e6 / model.param_count() as f64,
        ),
        (
            "tensor.gemm_dense_gflops",
            per_ns("tensor.gemm_dense", 2 * dense_m * dense_k * dense_n),
        ),
        (
            "tensor.gemm_conv_gflops",
            per_ns("tensor.gemm_conv", CLIP_CHUNK * conv_flops),
        ),
        (
            "tensor.im2col_gbps",
            per_ns("tensor.im2col", CLIP_CHUNK * im2col_bytes),
        ),
        ("datasets.world_ms", ms("datasets.world")),
        ("datasets.ds_search_ms", ms("datasets.ds_search")),
        ("bench.trace_overhead_share", median(&overheads)),
    ];
    Ok(Traced { values, mismatches })
}

/// Time the nn and math calls inside a step's `dpsgd.clip` and
/// `dpsgd.noise` spans, on a trained `model` and the dataset it trained on:
/// a batched per-example gradient chunk, one B=1 gradient (the differing
/// records', and the Poisson clip loop's), and the Gaussian noise over
/// every parameter.
fn probe_layers(
    model: &Sequential,
    data: &Dataset,
    pair: &NeighborPair,
    backend: Backend,
    recorder: &Recorder,
) {
    let chunk = CLIP_CHUNK.min(data.len());
    let (xs, ys) = (&data.xs[..chunk], &data.ys[..chunk]);
    repeat(recorder, "nn.per_example_grads_chunk", || {
        black_box(model.per_example_grads_on(backend, xs, ys));
    });
    let (x1, y1) = pair.x1();
    repeat(recorder, "nn.grad_b1", || {
        black_box(model.per_example_grad_on(backend, x1, y1));
    });
    let mut rng = seeded_rng(7);
    let mut gauss = GaussianSampler::new();
    let mut noise = vec![0.0; model.param_count()];
    repeat(recorder, "math.noise_fill", || {
        gauss.fill(&mut rng, 1.0, &mut noise)
    });
    black_box(&noise);
}

/// Time the tensor kernels under the layers.
fn probe_kernels(backend: Backend, recorder: &Recorder) {
    let mut rng = seeded_rng(11);
    let mut fill = |n: usize| -> Vec<f64> { (0..n).map(|_| rng.gen::<f64>() - 0.5).collect() };
    let (m, k, n) = DENSE_GEMM;
    let (a, b) = (fill(m * k), fill(k * n));
    let mut c = vec![0.0; m * n];
    repeat(recorder, "tensor.gemm_dense", || {
        matmul_acc(&mut c, &a, &b, m, k, n)
    });

    let volume = CONV2.in_channels * CONV2.in_h * CONV2.in_w;
    let inputs = fill(CLIP_CHUNK * volume);
    let patch_len = CONV2.patch_rows() * CONV2.patch_cols();
    let mut patches = vec![0.0; CLIP_CHUNK * patch_len];
    repeat(recorder, "tensor.im2col", || {
        for (input, out) in inputs
            .chunks_exact(volume)
            .zip(patches.chunks_exact_mut(patch_len))
        {
            im2col_into(input, &CONV2, out);
        }
    });
    let kernels = fill(CONV2.out_channels * CONV2.patch_cols());
    let bias = fill(CONV2.out_channels);
    let mut out = vec![0.0; CONV2.out_channels * CONV2.patch_rows()];
    repeat(recorder, "tensor.gemm_conv", || {
        for example in patches.chunks_exact(patch_len) {
            conv2d_forward_gemm_on(backend, example, &kernels, &bias, &CONV2, &mut out);
        }
    });
    black_box((&c, &out));
}

/// Run `f` in a span of its own, repeatedly (see `PROBE_MIN_NANOS`).
fn repeat(recorder: &Recorder, name: &str, mut f: impl FnMut()) {
    let start = Instant::now();
    let mut reps = 0;
    while reps < PROBE_MAX_REPS
        && (reps < PROBE_MIN_REPS || start.elapsed().as_nanos() < PROBE_MIN_NANOS)
    {
        recorder.time(name, &mut f);
        reps += 1;
    }
}
