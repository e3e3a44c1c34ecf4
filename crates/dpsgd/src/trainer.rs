//! The DPSGD training loop of the audit protocols.

use dpaudit_math::{l2_distance, l2_norm, GaussianSampler};
use dpaudit_nn::Sequential;
use dpaudit_obs as obs;
use rand::Rng;

use crate::clip::clipped_gradient;
use crate::config::DpsgdConfig;
use crate::exec::{Batch, StepExec};
use crate::pair::NeighborPair;
use crate::transcript::{StepRecord, Transcript};

/// Run `cfg.steps` full-batch DPSGD steps on `model`, training on `D` when
/// `train_on_d` (the challenge bit of Experiment 2) and on `D′` otherwise,
/// streaming one [`StepRecord`] per step to `observer`.
///
/// Protocol details the adversary is assumed to know (paper §6.1):
/// * The weight update divides the perturbed sum by the *public* constant
///   `|D|` regardless of which dataset was trained, so the update rule
///   itself carries no information about the challenge bit.
/// * Batch-normalisation statistics are refreshed from the trained batch
///   before the per-example gradients are taken and are considered part of
///   the released model state.
/// * The differing-record gradients `ḡ_i(x̂₁)`, `ḡ_i(x̂₂)` are evaluated at
///   the same state, so `L̂S_ĝᵢ` follows Eqs. 17/18 exactly.
pub fn train_dpsgd<R: Rng + ?Sized>(
    model: &mut Sequential,
    pair: &NeighborPair,
    train_on_d: bool,
    cfg: &DpsgdConfig,
    rng: &mut R,
    observer: impl FnMut(StepRecord),
) {
    run_steps(
        "train_dpsgd",
        model,
        pair,
        train_on_d,
        cfg,
        Sampling::FullBatch,
        rng,
        observer,
    );
}

/// Run `cfg.steps` Poisson-subsampled DPSGD steps on `model` for the DI
/// challenge protocol, streaming one [`StepRecord`] per step to `observer`.
///
/// The mini-batch counterpart of [`train_dpsgd`]: per step every record of
/// the trained dataset enters the batch independently with probability `q`
/// (drawn from `sample_rng`, a stream separate from the noise stream so
/// callers can keep their full-batch seed conventions untouched), the
/// clipped per-example gradients of the batch are summed one at a time in
/// draw order, Gaussian noise is added, and the update divides by the
/// *public* expected batch size `q·|D|`.
///
/// Differences from the full-batch audit protocol, dictated by the
/// subsampled Gaussian RDP accountant the privacy claim composes through
/// (`add_subsampled_gaussian_step`):
/// * Noise is always scaled to the clip bound (`σ = z·C`, the add/remove
///   sensitivity of the clipped sum); local-sensitivity scaling would
///   break the amplification analysis. The per-step local sensitivity is still
///   estimated and recorded for diagnostics.
/// * The stored hypothesis gradients condition on the differing record
///   having been sampled, so the adversary's centers are exact only for
///   steps that included it — the information loss that amplification by
///   subsampling formalises.
///
/// # Panics
/// Panics on an empty training set or `q` outside `(0, 1]`.
#[allow(clippy::too_many_arguments)]
pub fn train_dpsgd_subsampled<R: Rng + ?Sized, S: Rng + ?Sized>(
    model: &mut Sequential,
    pair: &NeighborPair,
    train_on_d: bool,
    cfg: &DpsgdConfig,
    q: f64,
    noise_rng: &mut R,
    sample_rng: &mut S,
    observer: impl FnMut(StepRecord),
) {
    assert!(
        q.is_finite() && q > 0.0 && q <= 1.0,
        "train_dpsgd_subsampled: q must be in (0, 1], got {q}"
    );
    run_steps(
        "train_dpsgd_subsampled",
        model,
        pair,
        train_on_d,
        cfg,
        Sampling::Poisson {
            q,
            uniform: &mut || sample_rng.gen::<f64>(),
        },
        noise_rng,
        observer,
    );
}

/// How an audit step picks its batch. The σ rule and the update divisor
/// follow from it; everything else about a step is shared.
enum Sampling<'a> {
    /// Every record; σ scaled per `cfg.scaling`; update divided by `|D|`.
    FullBatch,
    /// Each record with probability `q`, deciding by `uniform() < q` in
    /// record order; `σ = z·C`; update divided by `max(q·|D|, 1)`.
    Poisson {
        q: f64,
        uniform: &'a mut dyn FnMut() -> f64,
    },
}

/// The step loop behind [`train_dpsgd`] and [`train_dpsgd_subsampled`];
/// `name` prefixes its panic messages.
#[allow(clippy::too_many_arguments)]
fn run_steps<R: Rng + ?Sized>(
    name: &str,
    model: &mut Sequential,
    pair: &NeighborPair,
    train_on_d: bool,
    cfg: &DpsgdConfig,
    mut sampling: Sampling<'_>,
    rng: &mut R,
    mut observer: impl FnMut(StepRecord),
) {
    let data = pair.trained_dataset(train_on_d);
    assert!(!data.is_empty(), "{name}: empty training set");
    let public_n = pair.d.len() as f64;
    let c = cfg.clip_norm;
    let mut gauss = GaussianSampler::new();
    let exec = StepExec::new(cfg.compute);

    for step in 0..cfg.steps {
        let drawn: Vec<usize>;
        let (batch, batch_len) = match &mut sampling {
            Sampling::FullBatch => {
                model.update_norm_stats(&data.xs);
                (Batch::Full, data.len())
            }
            Sampling::Poisson { q, uniform } => {
                drawn = (0..data.len()).filter(|_| uniform() < *q).collect();
                if !drawn.is_empty() {
                    let batch_xs: Vec<_> = drawn.iter().map(|&i| data.xs[i].clone()).collect();
                    model.update_norm_stats(&batch_xs);
                }
                (Batch::Drawn(&drawn), drawn.len())
            }
        };

        let clip_span = obs::span(obs::names::CLIP_SPAN);
        let clipped = exec.clip_sum(model, &data.xs, &data.ys, batch, c);
        drop(clip_span);

        let noise_span = obs::span(obs::names::NOISE_SPAN);
        // Differing-record gradients at the current public state, recorded
        // for the adversary's hypothesis centers (batch-conditional under
        // Poisson sampling) and the local-sensitivity estimate.
        let (x1, y1) = pair.x1();
        let (_, grad_x1) = clipped_gradient(model, x1, y1, c);
        let grad_x2 = pair
            .x2
            .as_ref()
            .map(|(x2, y2)| clipped_gradient(model, x2, *y2, c).1);
        let local_sensitivity = match &grad_x2 {
            Some(g2) => l2_distance(&grad_x1, g2),
            None => l2_norm(&grad_x1),
        };

        let (sensitivity_used, divisor) = match sampling {
            Sampling::FullBatch => (cfg.sensitivity_for_step(local_sensitivity), public_n),
            // σ = z·C: the add/remove sensitivity the subsampled accountant
            // assumes (see `train_dpsgd_subsampled`).
            Sampling::Poisson { q, .. } => (c, (q * public_n).max(1.0)),
        };
        let sigma = cfg.noise_multiplier * sensitivity_used;

        let mut noisy_sum = clipped.clean_sum.clone();
        for v in &mut noisy_sum {
            *v += gauss.sample(rng, 0.0, sigma);
        }
        drop(noise_span);

        let update_span = obs::span(obs::names::UPDATE_SPAN);
        // θ ← θ − η·g̃/divisor with a public divisor (see the wrappers'
        // docs): post-processing of the release.
        let update: Vec<f64> = noisy_sum.iter().map(|v| v / divisor).collect();
        model.gradient_step(&update, cfg.learning_rate);
        drop(update_span);

        if obs::enabled() {
            obs::counter(obs::names::STEPS, 1);
            obs::counter(obs::names::EXAMPLES_SEEN, batch_len as u64);
            obs::counter(
                obs::names::EXAMPLES_CLIPPED,
                (batch_len - clipped.unclipped) as u64,
            );
            // Effective per-step noise multiplier zᵢ = σᵢ / sᵢ against the
            // *realised* local sensitivity — the quantity the §6.4 ledger
            // composes. Under local scaling it sits at the planned z; under
            // global scaling its spread shows the wasted noise.
            if local_sensitivity > 0.0 {
                obs::observe(obs::names::NOISE_MULTIPLIER_HIST, sigma / local_sensitivity);
            }
        }

        observer(StepRecord {
            step,
            noisy_sum,
            clean_sum: clipped.clean_sum,
            grad_x1,
            grad_x2,
            local_sensitivity,
            clip_bound: c,
            sensitivity_used,
            sigma,
            mean_loss: if batch_len == 0 {
                0.0
            } else {
                clipped.loss_total / batch_len as f64
            },
        });
    }
}

/// [`train_dpsgd`] collecting the records into a [`Transcript`].
pub fn train_collect<R: Rng + ?Sized>(
    model: &mut Sequential,
    pair: &NeighborPair,
    train_on_d: bool,
    cfg: &DpsgdConfig,
    rng: &mut R,
) -> Transcript {
    let mut steps = Vec::with_capacity(cfg.steps);
    train_dpsgd(model, pair, train_on_d, cfg, rng, |r| steps.push(r));
    Transcript {
        steps,
        trained_on_d: train_on_d,
        config: cfg.clone(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::clip::clip_to_norm;
    use crate::config::SensitivityScaling;
    use dpaudit_datasets::{generate_purchase, NeighborSpec};
    use dpaudit_dp::NeighborMode;
    use dpaudit_math::{axpy, seeded_rng};
    use dpaudit_nn::{purchase_mlp, Layer, Sequential};
    use dpaudit_nn::{Dense, MNIST_CLASSES};
    use dpaudit_tensor::Tensor;

    /// A small synthetic classification setup that trains in milliseconds.
    fn tiny_setup(seed: u64) -> (Sequential, NeighborPair) {
        sized_setup(seed, 10)
    }

    fn sized_setup(seed: u64, n: usize) -> (Sequential, NeighborPair) {
        let mut rng = seeded_rng(seed);
        let model = Sequential::new(vec![
            Layer::Dense(Dense::new(&mut rng, 8, 6)),
            Layer::Relu,
            Layer::Dense(Dense::new(&mut rng, 6, 3)),
        ]);
        let mut d = dpaudit_datasets::Dataset::empty();
        for i in 0..n {
            let x: Vec<f64> = (0..8)
                .map(|j| ((i * 13 + j * 7) % 11) as f64 / 11.0)
                .collect();
            d.push(Tensor::from_vec(&[8], x), i % 3);
        }
        let pair = NeighborPair::from_spec(
            &d,
            &NeighborSpec::Replace {
                index: 2,
                record: Tensor::full(&[8], 0.9),
                label: 1,
            },
        );
        (model, pair)
    }

    fn cfg(scaling: SensitivityScaling) -> DpsgdConfig {
        DpsgdConfig::new(1.0, 0.05, 5, NeighborMode::Bounded, 2.0, scaling)
    }

    #[test]
    fn transcript_has_one_record_per_step() {
        let (mut model, pair) = tiny_setup(1);
        let t = train_collect(
            &mut model,
            &pair,
            true,
            &cfg(SensitivityScaling::Global),
            &mut seeded_rng(2),
        );
        assert_eq!(t.steps.len(), 5);
        assert!(t.trained_on_d);
        for (i, s) in t.steps.iter().enumerate() {
            assert_eq!(s.step, i);
            assert_eq!(s.noisy_sum.len(), model.param_count());
            assert_eq!(s.clean_sum.len(), model.param_count());
            assert!(s.mean_loss.is_finite());
            assert_eq!(s.clip_bound, 1.0);
        }
    }

    #[test]
    fn global_scaling_uses_constant_sigma() {
        let (mut model, pair) = tiny_setup(3);
        let c = cfg(SensitivityScaling::Global);
        let t = train_collect(&mut model, &pair, true, &c, &mut seeded_rng(4));
        for s in &t.steps {
            // Bounded GS = 2C = 2, z = 2 → σ = 4 everywhere.
            assert!((s.sigma - 4.0).abs() < 1e-12);
            assert_eq!(s.sensitivity_used, 2.0);
        }
    }

    #[test]
    fn local_scaling_tracks_per_step_ls() {
        let (mut model, pair) = tiny_setup(5);
        let c = cfg(SensitivityScaling::Local);
        let t = train_collect(&mut model, &pair, true, &c, &mut seeded_rng(6));
        for s in &t.steps {
            assert!((s.sigma - 2.0 * s.sensitivity_used).abs() < 1e-12);
            assert!(
                (s.sensitivity_used - s.local_sensitivity).abs() < 1e-12
                    || s.local_sensitivity < c.ls_floor
            );
        }
    }

    #[test]
    fn local_sensitivity_below_global_bound() {
        let (mut model, pair) = tiny_setup(7);
        let c = cfg(SensitivityScaling::Local);
        let t = train_collect(&mut model, &pair, true, &c, &mut seeded_rng(8));
        for s in &t.steps {
            // ‖ḡ(x̂₁) − ḡ(x̂₂)‖ ≤ 2C by the triangle inequality.
            assert!(s.local_sensitivity <= 2.0 * c.clip_norm + 1e-9);
        }
    }

    #[test]
    fn hypothesis_centers_match_direct_computation() {
        // Train on D, then verify that the derived D′-center equals the
        // clipped-gradient sum computed directly on D′ at the same state.
        let (model0, pair) = tiny_setup(9);
        let c = cfg(SensitivityScaling::Global);
        let mut model = model0.clone();
        let mut records = Vec::new();
        let mut states = Vec::new();
        train_dpsgd(&mut model, &pair, true, &c, &mut seeded_rng(10), |r| {
            records.push(r);
        });
        // Re-run the public update rule, snapshotting state before each step.
        let mut model2 = model0.clone();
        for r in &records {
            model2.update_norm_stats(&pair.d.xs);
            states.push(model2.clone());
            let update: Vec<f64> = r
                .noisy_sum
                .iter()
                .map(|v| v / pair.d.len() as f64)
                .collect();
            model2.gradient_step(&update, c.learning_rate);
        }
        for (r, state) in records.iter().zip(&states) {
            let (_, cdp) = r.hypothesis_centers(true, NeighborMode::Bounded);
            let mut direct = vec![0.0; state.param_count()];
            for (x, &y) in pair.d_prime.xs.iter().zip(&pair.d_prime.ys) {
                let (_, g) = clipped_gradient(state, x, y, c.clip_norm);
                axpy(1.0, &g, &mut direct);
            }
            let err = l2_distance(&cdp, &direct);
            assert!(err < 1e-9, "step {}: center mismatch {err}", r.step);
        }
    }

    #[test]
    fn training_on_d_vs_d_prime_yields_different_sums() {
        let (model, pair) = tiny_setup(11);
        let c = cfg(SensitivityScaling::Global);
        let mut m1 = model.clone();
        let mut m2 = model.clone();
        let t1 = train_collect(&mut m1, &pair, true, &c, &mut seeded_rng(12));
        let t2 = train_collect(&mut m2, &pair, false, &c, &mut seeded_rng(12));
        assert_ne!(t1.steps[0].clean_sum, t2.steps[0].clean_sum);
        // Same RNG, same sensitivity scaling → same noise; first-step
        // difference of clean sums equals g2 − g1 exactly.
        let diff: Vec<f64> = t1.steps[0]
            .clean_sum
            .iter()
            .zip(&t2.steps[0].clean_sum)
            .map(|(a, b)| a - b)
            .collect();
        let expect: Vec<f64> = t1.steps[0]
            .grad_x1
            .iter()
            .zip(t1.steps[0].grad_x2.as_ref().unwrap())
            .map(|(g1, g2)| g1 - g2)
            .collect();
        assert!(l2_distance(&diff, &expect) < 1e-9);
    }

    #[test]
    fn noise_perturbs_the_sum() {
        let (mut model, pair) = tiny_setup(13);
        let t = train_collect(
            &mut model,
            &pair,
            true,
            &cfg(SensitivityScaling::Global),
            &mut seeded_rng(14),
        );
        let s = &t.steps[0];
        assert!(l2_distance(&s.noisy_sum, &s.clean_sum) > 0.0);
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    #[test]
    fn f32_compute_mode_tracks_f64_within_tolerance() {
        // Full-batch and Poisson runs with identical noise (and sampling)
        // seeds, differing only in the storage precision of the clipped
        // sum: the noise draws and the batches coincide, so the released
        // sums and the weight trajectory differ only by f32 rounding, which
        // must stay inside a narrow relative band — and must be there: an
        // f32 sum equal in bits to the f64 one was not computed in f32.
        let (model, pair) = tiny_setup(21);
        let c64 = cfg(SensitivityScaling::Global);
        let mut c32 = cfg(SensitivityScaling::Global);
        c32.compute = crate::config::ComputeMode::F32;
        let run = |c: &DpsgdConfig, q: Option<f64>| {
            let mut m = model.clone();
            let mut steps = Vec::new();
            let observe = |r| steps.push(r);
            match q {
                None => train_dpsgd(&mut m, &pair, true, c, &mut seeded_rng(22), observe),
                Some(q) => train_dpsgd_subsampled(
                    &mut m,
                    &pair,
                    true,
                    c,
                    q,
                    &mut seeded_rng(22),
                    &mut seeded_rng(23),
                    observe,
                ),
            }
            (steps, m.params())
        };
        for q in [None, Some(0.5)] {
            let (t64, w64) = run(&c64, q);
            let (t32, w32) = run(&c32, q);
            let mut summed = 0;
            for (s64, s32) in t64.iter().zip(&t32) {
                let err = l2_distance(&s64.clean_sum, &s32.clean_sum);
                let scale = l2_norm(&s64.clean_sum).max(1.0);
                assert!(
                    err < 1e-3 * scale,
                    "q {q:?} step {}: clean_sum drift {err} vs scale {scale}",
                    s64.step
                );
                assert!((s64.mean_loss - s32.mean_loss).abs() < 1e-3);
                if s64.clean_sum.iter().any(|&v| v != 0.0) {
                    summed += 1;
                    assert_ne!(
                        bits(&s64.clean_sum),
                        bits(&s32.clean_sum),
                        "q {q:?} step {}: the f32 sum is the f64 sum",
                        s64.step
                    );
                }
            }
            assert!(summed > 0, "q {q:?}: every batch was empty");
            let w_err = l2_distance(&w64, &w32);
            assert!(w_err < 1e-3, "q {q:?}: final weight drift {w_err}");
        }
    }

    #[test]
    fn subsampled_f64_clean_sum_is_the_in_order_scalar_sum() {
        // The Poisson reduction order: each step's clean sum is the drawn
        // examples' clipped scalar-oracle gradients added one at a time in
        // draw order, bit for bit — the property that keeps Poisson stores
        // written before the trainers shared one clip path resumable. The
        // draws exceed one full-batch chunk, so a chunked sum would show.
        let (model0, pair) = sized_setup(33, 40);
        let c = cfg(SensitivityScaling::Global);
        let q = 0.9;
        let mut model = model0.clone();
        let mut records = Vec::new();
        train_dpsgd_subsampled(
            &mut model,
            &pair,
            true,
            &c,
            q,
            &mut seeded_rng(34),
            &mut seeded_rng(35),
            |r| records.push(r),
        );
        // Replay the sampling stream and the public SGD update.
        let mut replay = model0;
        let mut sample_rng = seeded_rng(35);
        let divisor = q * pair.d.len() as f64;
        let mut largest_draw = 0;
        for r in &records {
            let drawn: Vec<usize> = (0..pair.d.len())
                .filter(|_| sample_rng.gen::<f64>() < q)
                .collect();
            let mut expect = vec![0.0; replay.param_count()];
            for &i in &drawn {
                let (_, mut g) = replay.per_example_grad_scalar(&pair.d.xs[i], pair.d.ys[i]);
                clip_to_norm(&mut g, c.clip_norm);
                axpy(1.0, &g, &mut expect);
            }
            assert_eq!(bits(&r.clean_sum), bits(&expect), "step {}", r.step);
            largest_draw = largest_draw.max(drawn.len());
            let update: Vec<f64> = r.noisy_sum.iter().map(|v| v / divisor).collect();
            replay.gradient_step(&update, c.learning_rate);
        }
        assert!(
            largest_draw > crate::exec::CLIP_CHUNK,
            "largest draw {largest_draw}"
        );
        assert_eq!(bits(&replay.params()), bits(&model.params()));
    }

    #[test]
    fn subsampled_records_are_deterministic_per_seed_pair() {
        // Same noise + sampling seeds ⇒ byte-identical step records (the
        // minibatch-audit determinism invariant: same seed, same minibatch
        // indices, same releases).
        let (model0, pair) = tiny_setup(23);
        let c = cfg(SensitivityScaling::Local);
        let run = || {
            let mut model = model0.clone();
            let mut records = Vec::new();
            train_dpsgd_subsampled(
                &mut model,
                &pair,
                true,
                &c,
                0.5,
                &mut seeded_rng(24),
                &mut seeded_rng(25),
                |r| records.push(r),
            );
            (records, model.params())
        };
        let (r1, w1) = run();
        let (r2, w2) = run();
        assert_eq!(r1.len(), 5);
        for (a, b) in r1.iter().zip(&r2) {
            assert_eq!(a.noisy_sum, b.noisy_sum);
            assert_eq!(a.clean_sum, b.clean_sum);
            assert_eq!(a.mean_loss.to_bits(), b.mean_loss.to_bits());
        }
        assert_eq!(w1, w2);
        // A different sampling stream changes the batches (and the sums)
        // while σ stays pinned to z·C.
        let mut model = model0.clone();
        let mut other = Vec::new();
        train_dpsgd_subsampled(
            &mut model,
            &pair,
            true,
            &c,
            0.5,
            &mut seeded_rng(24),
            &mut seeded_rng(99),
            |r| other.push(r),
        );
        assert_ne!(
            r1.iter().map(|r| r.clean_sum.clone()).collect::<Vec<_>>(),
            other
                .iter()
                .map(|r| r.clean_sum.clone())
                .collect::<Vec<_>>()
        );
        for r in &r1 {
            // z = 2, C = 1 → σ = 2 regardless of the realised LS.
            assert!((r.sigma - 2.0).abs() < 1e-12);
            assert_eq!(r.sensitivity_used, 1.0);
            assert!(r.local_sensitivity >= 0.0);
        }
    }

    #[test]
    fn subsampled_empty_draw_still_takes_a_noisy_step() {
        let (model0, pair) = sized_setup(37, 4);
        let c = DpsgdConfig::new(
            1.0,
            0.05,
            1,
            NeighborMode::Bounded,
            2.0,
            SensitivityScaling::Global,
        );
        let q = 0.1;
        let mut sample_rng = seeded_rng(39);
        let drawn = (0..pair.d.len())
            .filter(|_| sample_rng.gen::<f64>() < q)
            .count();
        assert_eq!(drawn, 0, "the sampling stream must draw no record");
        let mut model = model0.clone();
        let mut records = Vec::new();
        train_dpsgd_subsampled(
            &mut model,
            &pair,
            true,
            &c,
            q,
            &mut seeded_rng(38),
            &mut seeded_rng(39),
            |r| records.push(r),
        );
        let r = &records[0];
        assert_eq!(r.mean_loss, 0.0);
        assert!(r.clean_sum.iter().all(|&v| v == 0.0));
        assert!(r.noisy_sum.iter().any(|&v| v != 0.0));
        assert_ne!(model.params(), model0.params());
    }

    #[test]
    fn subsampled_low_noise_training_reduces_loss() {
        let (mut model, pair) = sized_setup(7, 60);
        let initial = model.mean_loss(&pair.d.xs, &pair.d.ys);
        // Generous budget: tiny noise, high sampling rate, many steps.
        let c = DpsgdConfig::new(
            5.0,
            0.3,
            120,
            NeighborMode::Bounded,
            0.01,
            SensitivityScaling::Global,
        );
        train_dpsgd_subsampled(
            &mut model,
            &pair,
            true,
            &c,
            0.8,
            &mut seeded_rng(8),
            &mut seeded_rng(9),
            |_| {},
        );
        let fin = model.mean_loss(&pair.d.xs, &pair.d.ys);
        assert!(fin < initial, "loss {initial} -> {fin}");
    }

    #[test]
    fn subsampled_q_one_sums_the_whole_dataset() {
        let (model0, pair) = tiny_setup(27);
        let c = cfg(SensitivityScaling::Global);
        let mut model = model0.clone();
        let mut records = Vec::new();
        train_dpsgd_subsampled(
            &mut model,
            &pair,
            true,
            &c,
            1.0,
            &mut seeded_rng(28),
            &mut seeded_rng(29),
            |r| records.push(r),
        );
        // q = 1 includes every record: the clean sum equals the full-batch
        // clipped sum at the same state (first step shares θ₀).
        let mut m2 = model0.clone();
        let t = train_collect(&mut m2, &pair, true, &c, &mut seeded_rng(28));
        assert!(l2_distance(&records[0].clean_sum, &t.steps[0].clean_sum) < 1e-9);
    }

    #[test]
    #[should_panic(expected = "q must be in")]
    fn subsampled_rejects_degenerate_rate() {
        let (mut model, pair) = tiny_setup(31);
        train_dpsgd_subsampled(
            &mut model,
            &pair,
            true,
            &cfg(SensitivityScaling::Local),
            0.0,
            &mut seeded_rng(1),
            &mut seeded_rng(2),
            |_| {},
        );
    }

    #[test]
    fn purchase_mlp_smoke_run() {
        // One realistic end-to-end step on the real architecture.
        let mut rng = seeded_rng(15);
        let data = generate_purchase(&mut rng, 12);
        let pair = NeighborPair::from_spec(&data, &NeighborSpec::Remove { index: 0 });
        let mut model = purchase_mlp(&mut rng);
        let c = DpsgdConfig::new(
            3.0,
            0.005,
            2,
            NeighborMode::Unbounded,
            5.0,
            SensitivityScaling::Local,
        );
        let t = train_collect(&mut model, &pair, true, &c, &mut rng);
        assert_eq!(t.steps.len(), 2);
        assert!(t.steps[0].local_sensitivity > 0.0);
        assert!(t.steps[0].local_sensitivity <= 3.0 + 1e-9);
        let _ = MNIST_CLASSES; // silence unused import in some cfg combinations
    }
}
