//! The one place a DPSGD step's clipped per-example gradients are computed
//! and summed, and its intra-trial parallelism knob.
//!
//! Every trainer calls [`StepExec::clip_sum`] once per step, naming the
//! examples the step sums as a [`Batch`]:
//!
//! * [`Batch::Full`] — every example (full-batch audits, federated shards),
//!   in fixed chunks of [`CLIP_CHUNK`] examples, one batched
//!   forward/backward pass per chunk, partial sums folded in chunk-index
//!   order. The chunking is a constant of the data (never of the worker
//!   count) and the fold order is fixed, so the result is bit-identical
//!   whether chunks run sequentially or on the intra-trial pool — the same
//!   invariant the runtime executor guarantees across trials.
//! * [`Batch::Drawn`] — a Poisson draw, one example at a time (B=1) in draw
//!   order on the calling thread, summed in that order. This keeps the
//!   bytes of Poisson stores written before the trainers shared this path,
//!   and a step's peak memory at one example's gradient row.
//!
//! Both run in the run's [`ComputeMode`] on the native tensor kernels: f64
//! on the model's own parameters, f32 on a [`BatchModel`] view narrowed once
//! per call, each f32 gradient value widened to f64 as it flows into the
//! norm and the sum.
//!
//! The thread count is a process-wide knob ([`set_batch_threads`]) rather
//! than a per-call argument because the trainer sits several layers below
//! the code that knows the CLI configuration, and the knob cannot affect
//! any result — only how fast it arrives.

use std::cell::OnceCell;
use std::sync::atomic::{AtomicUsize, Ordering};

use dpaudit_math::{axpy, l2_norm};
use dpaudit_nn::{BatchModel, Sequential};
use dpaudit_obs as obs;
use dpaudit_tensor::{Elem, Tensor};
use rayon::prelude::*;
use rayon::{ThreadPool, ThreadPoolBuilder};

use crate::config::ComputeMode;

/// Examples per full-batch chunk. A constant of the computation, not of the
/// thread count: chunk boundaries define the fixed-order reduction that
/// makes the clipped-gradient sum independent of parallelism. 16 examples
/// keeps a chunk's per-example gradient buffer around 11 MB for the largest
/// reference model (purchase MLP, ~90k parameters).
pub const CLIP_CHUNK: usize = 16;

/// Worker threads for full-batch chunks inside one trial (process-wide).
/// 1 = sequential (default), 0 = machine parallelism.
static BATCH_THREADS: AtomicUsize = AtomicUsize::new(1);

/// Set the intra-trial worker count: 1 = sequential, 0 = machine
/// parallelism. Safe to call at any time — the value changes throughput
/// only, never results.
pub fn set_batch_threads(n: usize) {
    BATCH_THREADS.store(n, Ordering::Relaxed);
}

/// The configured intra-trial worker count (0 = machine parallelism).
pub fn batch_threads() -> usize {
    BATCH_THREADS.load(Ordering::Relaxed)
}

/// The examples one step sums, and so how it walks them (see the module
/// docs).
#[derive(Debug, Clone, Copy)]
pub enum Batch<'a> {
    /// Every example, in [`CLIP_CHUNK`] chunks folded in chunk order.
    Full,
    /// These examples, one at a time in this order, on the calling thread.
    Drawn(&'a [usize]),
}

/// The clipped-gradient sum of one step's batch.
#[derive(Debug, Clone)]
pub struct ClipSum {
    /// Sum of the clipped per-example gradients (flat parameter layout).
    pub clean_sum: Vec<f64>,
    /// Sum of the per-example losses.
    pub loss_total: f64,
    /// Examples whose pre-clip norm was already within the clip norm.
    pub unclipped: usize,
}

impl ClipSum {
    fn zeros(dim: usize) -> Self {
        Self {
            clean_sum: vec![0.0; dim],
            loss_total: 0.0,
            unclipped: 0,
        }
    }
}

/// How one training run computes its steps' clipped-gradient sums: the
/// storage precision and the intra-trial worker count. The pool itself is
/// built on the first full batch that can use it.
pub struct StepExec {
    compute: ComputeMode,
    threads: usize,
    pool: OnceCell<Option<ThreadPool>>,
}

impl StepExec {
    /// Sums in `compute`, with the worker count of [`set_batch_threads`].
    pub fn new(compute: ComputeMode) -> Self {
        Self {
            compute,
            threads: batch_threads(),
            pool: OnceCell::new(),
        }
    }

    /// Override the worker count (same convention as [`set_batch_threads`]).
    pub fn with_threads(mut self, n: usize) -> Self {
        self.threads = n;
        self
    }

    /// The clipped-gradient sum of `batch` over the labelled set
    /// `(xs, ys)` at the model's current state: per-example gradients,
    /// each clipped to `clip_norm`, summed as the module docs describe. The
    /// f64 result is bit-identical to clipping `per_example_grad_scalar`
    /// gradients with [`crate::clip_to_norm`] and summing them in the same
    /// order; f32 is tolerance-equivalent to it.
    pub fn clip_sum(
        &self,
        model: &Sequential,
        xs: &[Tensor],
        ys: &[usize],
        batch: Batch<'_>,
        clip_norm: f64,
    ) -> ClipSum {
        assert_eq!(xs.len(), ys.len(), "clip_sum: length mismatch");
        match self.compute {
            ComputeMode::F64 => {
                self.sum_at(&BatchModel::<f64>::new(model), xs, ys, batch, clip_norm)
            }
            ComputeMode::F32 => {
                self.sum_at(&BatchModel::<f32>::new(model), xs, ys, batch, clip_norm)
            }
        }
    }

    fn sum_at<T: ClipAdd>(
        &self,
        view: &BatchModel<'_, T>,
        xs: &[Tensor],
        ys: &[usize],
        batch: Batch<'_>,
        clip_norm: f64,
    ) -> ClipSum {
        let dim = view.param_count();
        let add = |acc: &mut ClipSum, xs: &[Tensor], ys: &[usize]| {
            let (losses, grads) = view.per_example_grads(xs, ys);
            let norms = T::clip_add(clip_norm, &grads, &mut acc.clean_sum);
            for (norm, loss) in norms.into_iter().zip(losses) {
                if norm <= clip_norm {
                    acc.unclipped += 1;
                }
                acc.loss_total += loss;
            }
        };
        match batch {
            Batch::Drawn(idx) => {
                let mut acc = ClipSum::zeros(dim);
                for &i in idx {
                    add(
                        &mut acc,
                        std::slice::from_ref(&xs[i]),
                        std::slice::from_ref(&ys[i]),
                    );
                }
                acc
            }
            Batch::Full => {
                let chunk = |(start, end): (usize, usize)| {
                    let _span = obs::span(obs::names::CLIP_CHUNK_SPAN);
                    let mut acc = ClipSum::zeros(dim);
                    add(&mut acc, &xs[start..end], &ys[start..end]);
                    acc
                };
                let ranges: Vec<(usize, usize)> = (0..xs.len())
                    .step_by(CLIP_CHUNK)
                    .map(|start| (start, usize::min(start + CLIP_CHUNK, xs.len())))
                    .collect();
                let pool = if ranges.len() > 1 { self.pool() } else { None };
                let partials: Vec<ClipSum> = match pool {
                    Some(pool) => pool.install(|| ranges.into_par_iter().map(&chunk).collect()),
                    None => ranges.into_iter().map(chunk).collect(),
                };
                // Fold in chunk-index order: the fixed-order reduction that
                // keeps the sum independent of scheduling.
                let mut out = ClipSum::zeros(dim);
                for p in partials {
                    axpy(1.0, &p.clean_sum, &mut out.clean_sum);
                    out.loss_total += p.loss_total;
                    out.unclipped += p.unclipped;
                }
                out
            }
        }
    }

    /// The intra-trial pool, or `None` when the worker count resolves to
    /// sequential execution.
    fn pool(&self) -> Option<&ThreadPool> {
        self.pool
            .get_or_init(|| {
                let n = match self.threads {
                    0 => std::thread::available_parallelism().map_or(1, |n| n.get()),
                    n => n,
                };
                (n > 1).then(|| {
                    ThreadPoolBuilder::new()
                        .num_threads(n)
                        .build()
                        .expect("clip-sum thread pool")
                })
            })
            .as_ref()
    }
}

/// Clip each `sum.len()`-wide per-example gradient row of `grads` to `c`
/// and add it into the f64 sum, returning the rows' pre-clip norms — per
/// element type. Both follow [`crate::clip_to_norm`]'s rule
/// `g ← g · min(1, C/‖g‖)`.
trait ClipAdd: Elem {
    fn clip_add(c: f64, grads: &[Self], sum: &mut [f64]) -> Vec<f64>;
}

/// `min(1, C/‖g‖)`: the factor that clips a gradient of norm `norm` to `c`.
fn clip_factor(norm: f64, c: f64) -> f64 {
    if norm > c {
        c / norm
    } else {
        1.0
    }
}

/// The f64 fusion of [`crate::clip_to_norm`] + `axpy(1.0, …)` over a whole
/// chunk: one pass takes every row's norm ([`row_norms`]), then each row
/// joins the sum as `axpy(factor, row, sum)`. Bit-identical to scaling the
/// row in place and adding it with factor 1: IEEE multiplication commutes
/// and `1.0·x` is exact. Each sum element still takes the rows in row
/// order.
impl ClipAdd for f64 {
    fn clip_add(c: f64, grads: &[f64], sum: &mut [f64]) -> Vec<f64> {
        let dim = sum.len();
        let norms = row_norms(grads, dim);
        for (row, &norm) in grads.chunks_exact(dim).zip(&norms) {
            axpy(clip_factor(norm, c), row, sum);
        }
        norms
    }
}

/// ‖row‖ of every `dim`-wide row of `grads`. One row's norm is a serial
/// add chain (~10⁵ terms on the Purchase MLP) whose latency, not its
/// arithmetic, sets its time, so four rows' chains advance side by side.
/// Each row is still summed alone in ascending index order, so every norm
/// equals `l2_norm(row)` bit for bit.
fn row_norms(grads: &[f64], dim: usize) -> Vec<f64> {
    let rows: Vec<&[f64]> = grads.chunks_exact(dim).collect();
    let mut norms = Vec::with_capacity(rows.len());
    let mut quads = rows.chunks_exact(4);
    for quad in &mut quads {
        let mut acc = [0.0f64; 4];
        for (((&a, &b), &c), &d) in quad[0].iter().zip(quad[1]).zip(quad[2]).zip(quad[3]) {
            acc[0] += a * a;
            acc[1] += b * b;
            acc[2] += c * c;
            acc[3] += d * d;
        }
        norms.extend(acc.map(f64::sqrt));
    }
    norms.extend(quads.remainder().iter().map(|row| l2_norm(row)));
    norms
}

/// The f32 fusion of [`crate::clip_to_norm`] + `axpy`, row by row: each
/// value is widened on the fly, so the norm, the clip scale and the sum all
/// accumulate in f64 without materialising an f64 copy of the row. The
/// semantics match the f64 path; only the reduction order of the norm
/// differs, which the f32 mode's tolerance contract permits.
impl ClipAdd for f32 {
    fn clip_add(c: f64, grads: &[f32], sum: &mut [f64]) -> Vec<f64> {
        let dim = sum.len();
        grads
            .chunks_exact(dim)
            .map(|row| {
                let norm = l2_norm_widened(row);
                axpy_widened(clip_factor(norm, c), row, sum);
                norm
            })
            .collect()
    }
}

/// ‖row‖ with each f32 widened to f64 as it is read, accumulated across
/// eight fixed partial sums. A single running sum is a serial add chain —
/// at ~10⁵ parameters its latency dominates the whole f32 step — while
/// eight independent lanes vectorise. The lane count is a constant of the
/// algorithm, so the result does not depend on the thread count.
fn l2_norm_widened(row: &[f32]) -> f64 {
    const LANES: usize = 8;
    let mut acc = [0.0f64; LANES];
    let mut chunks = row.chunks_exact(LANES);
    for chunk in &mut chunks {
        for (a, &g) in acc.iter_mut().zip(chunk) {
            let w = f64::from(g);
            *a += w * w;
        }
    }
    let mut tail = 0.0;
    for &g in chunks.remainder() {
        let w = f64::from(g);
        tail += w * w;
    }
    (acc.iter().sum::<f64>() + tail).sqrt()
}

/// `sum[i] += factor · f64::from(row[i])` — the widening fused scale-add.
fn axpy_widened(factor: f64, row: &[f32], sum: &mut [f64]) {
    for (s, &g) in sum.iter_mut().zip(row) {
        *s += factor * f64::from(g);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clip::clip_to_norm;
    use dpaudit_math::seeded_rng;
    use dpaudit_nn::{Dense, Layer};

    fn setup(n: usize) -> (Sequential, Vec<Tensor>, Vec<usize>) {
        let mut rng = seeded_rng(7);
        let model = Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, 5, 4)),
            Layer::Relu,
            Layer::Dense(Dense::new(&mut rng, 4, 3)),
        ]);
        let xs: Vec<Tensor> = (0..n)
            .map(|i| {
                Tensor::from_vec(
                    &[5],
                    (0..5)
                        .map(|j| ((i * 7 + j * 3) % 13) as f64 / 13.0)
                        .collect(),
                )
            })
            .collect();
        let ys: Vec<usize> = (0..n).map(|i| i % 3).collect();
        (model, xs, ys)
    }

    fn exec(compute: ComputeMode, threads: usize) -> StepExec {
        StepExec::new(compute).with_threads(threads)
    }

    fn assert_same_bits(a: &ClipSum, b: &ClipSum) {
        assert_eq!(a.unclipped, b.unclipped);
        assert_eq!(a.loss_total.to_bits(), b.loss_total.to_bits());
        for (x, y) in a.clean_sum.iter().zip(&b.clean_sum) {
            assert_eq!(x.to_bits(), y.to_bits());
        }
    }

    #[test]
    fn knob_round_trips() {
        let before = batch_threads();
        set_batch_threads(3);
        assert_eq!(batch_threads(), 3);
        set_batch_threads(before);
    }

    #[test]
    fn full_batch_matches_chunked_scalar_oracle_bitwise() {
        // Two full chunks and a tail of six, which is not a multiple of the
        // four rows whose norms advance together. The last example's logits
        // saturate the softmax, so its gradient row is all zero.
        let (model, mut xs, mut ys) = setup(CLIP_CHUNK * 2 + 5);
        let saturating = Tensor::full(&[5], 1e5);
        ys.push(model.predict(&saturating));
        xs.push(saturating);
        let (_, zero_row) = model.per_example_grad_scalar(&xs[xs.len() - 1], ys[ys.len() - 1]);
        assert!(zero_row.iter().all(|&g| g == 0.0));

        let c = 0.9;
        let out = exec(ComputeMode::F64, 1).clip_sum(&model, &xs, &ys, Batch::Full, c);

        // Chunked scalar oracle with the same fold order.
        let mut expect = vec![0.0; model.param_count()];
        let mut loss_total = 0.0;
        let mut unclipped = 0;
        for chunk in xs.chunks(CLIP_CHUNK).zip(ys.chunks(CLIP_CHUNK)) {
            let mut partial = vec![0.0; model.param_count()];
            let mut partial_loss = 0.0;
            for (x, &y) in chunk.0.iter().zip(chunk.1) {
                let (loss, mut g) = model.per_example_grad_scalar(x, y);
                if clip_to_norm(&mut g, c) <= c {
                    unclipped += 1;
                }
                partial_loss += loss;
                axpy(1.0, &g, &mut partial);
            }
            loss_total += partial_loss;
            axpy(1.0, &partial, &mut expect);
        }
        // Rows on both sides of the bound.
        assert!(0 < unclipped && unclipped < xs.len(), "{unclipped}");
        assert_eq!(out.unclipped, unclipped);
        assert_eq!(out.loss_total.to_bits(), loss_total.to_bits());
        for (i, (a, e)) in out.clean_sum.iter().zip(&expect).enumerate() {
            assert_eq!(a.to_bits(), e.to_bits(), "clean_sum[{i}]: {a} vs {e}");
        }
    }

    #[test]
    fn drawn_batch_sums_scalar_oracle_in_draw_order_bitwise() {
        // Repeats and an order that is not ascending: the draw order is
        // the summation order, with no chunk partials.
        let (model, xs, ys) = setup(CLIP_CHUNK + 9);
        let c = 0.4;
        let drawn = [20, 3, 3, 17, 0, 24, 9, 11, 5, 6, 7, 8, 1, 2, 4, 10, 12, 13];
        let out = exec(ComputeMode::F64, 4).clip_sum(&model, &xs, &ys, Batch::Drawn(&drawn), c);
        let mut expect = vec![0.0; model.param_count()];
        let mut loss_total = 0.0;
        for &i in &drawn {
            let (loss, mut g) = model.per_example_grad_scalar(&xs[i], ys[i]);
            clip_to_norm(&mut g, c);
            loss_total += loss;
            axpy(1.0, &g, &mut expect);
        }
        assert_eq!(out.loss_total.to_bits(), loss_total.to_bits());
        for (a, e) in out.clean_sum.iter().zip(&expect) {
            assert_eq!(a.to_bits(), e.to_bits());
        }
        let empty = exec(ComputeMode::F32, 1).clip_sum(&model, &xs, &ys, Batch::Drawn(&[]), c);
        assert!(empty.clean_sum.iter().all(|&v| v == 0.0));
        assert_eq!((empty.loss_total, empty.unclipped), (0.0, 0));
    }

    #[test]
    fn full_batch_is_bit_identical_across_thread_counts() {
        let (model, xs, ys) = setup(CLIP_CHUNK * 3 + 2);
        for compute in [ComputeMode::F64, ComputeMode::F32] {
            let serial = exec(compute, 1).clip_sum(&model, &xs, &ys, Batch::Full, 0.5);
            for threads in [2, 4, 0] {
                let parallel = exec(compute, threads).clip_sum(&model, &xs, &ys, Batch::Full, 0.5);
                assert_same_bits(&parallel, &serial);
            }
        }
    }

    #[test]
    fn f32_tracks_f64_within_tolerance_for_both_batch_kinds() {
        let (model, xs, ys) = setup(CLIP_CHUNK * 2 + 3);
        let drawn: Vec<usize> = (0..xs.len()).rev().step_by(2).collect();
        for batch in [Batch::Full, Batch::Drawn(&drawn)] {
            let oracle = exec(ComputeMode::F64, 1).clip_sum(&model, &xs, &ys, batch, 0.7);
            let f32_out = exec(ComputeMode::F32, 1).clip_sum(&model, &xs, &ys, batch, 0.7);
            assert!((oracle.loss_total - f32_out.loss_total).abs() < 1e-3 * xs.len() as f64);
            for (i, (a, b)) in oracle.clean_sum.iter().zip(&f32_out.clean_sum).enumerate() {
                let tol = 1e-4 * xs.len() as f64 + 1e-3 * a.abs();
                assert!((a - b).abs() < tol, "{batch:?} clean_sum[{i}]: {a} vs {b}");
            }
        }
    }
}
