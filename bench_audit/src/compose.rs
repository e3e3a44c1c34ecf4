//! One Exp^DI trial rebuilt from the public API of each crate, with a span
//! around every layer it crosses.
//!
//! `dpaudit_runtime::execute_trial` runs `dpaudit_core::run_di_trial` and the
//! ε′-from-LS estimator as one call, so timing it from outside shows only the
//! whole. This composition makes the same calls in the same order — the
//! model builder, `train_dpsgd`/`train_dpsgd_subsampled` with an observer
//! that feeds the adversary, `observe_final`, the estimator — and must give
//! the same record bit for bit; the traced run checks that it does.

use crate::trace::Recorder;
use dpaudit_core::TrialSettings;
use dpaudit_core::{trial_seed, ChallengeMode, DiTrialResult, LocalSensitivityEstimator, Sampling};
use dpaudit_datasets::Dataset;
use dpaudit_dpsgd::{train_dpsgd, train_dpsgd_subsampled, NeighborPair, StepRecord};
use dpaudit_math::{seeded_rng, split_seed};
use dpaudit_nn::Sequential;
use dpaudit_runtime::{ExecPlan, Seed, TrialRecord};
use rand::rngs::StdRng;
use rand::Rng;

/// A rebuilt trial: its record, the trained model and the challenge bit.
pub struct Composed {
    pub record: TrialRecord,
    pub model: Sequential,
    pub trained_on_d: bool,
}

/// Run trial `idx` of `plan` the way `execute_trial` does, recording one
/// span per stage and per DPSGD step. A step span runs from the end of the
/// previous observer callback (or the start of training) to the end of its
/// own callback, so it holds the step's training work and the adversary's
/// update for it. When `recorder` is also the installed obs sink, the part
/// of a step before the program's `dpsgd.clip` span is recorded as
/// `nn.norm_stats`: the trainers refresh the batch-norm statistics there
/// (and the Poisson trainer first draws and copies its batch).
pub fn compose_trial(
    pair: &NeighborPair,
    settings: &TrialSettings,
    test_set: Option<&Dataset>,
    model_builder: impl Fn(&mut StdRng) -> Sequential,
    plan: &ExecPlan,
    idx: usize,
    recorder: &Recorder,
) -> Composed {
    let seed = trial_seed(plan.master_seed, idx);
    let mut model_rng = seeded_rng(split_seed(seed, 0));
    let mut noise_rng = seeded_rng(split_seed(seed, 1));
    let mut challenge_rng = seeded_rng(split_seed(seed, 2));
    let b = match settings.challenge {
        ChallengeMode::RandomBit => challenge_rng.gen::<bool>(),
        ChallengeMode::AlwaysD => true,
    };

    let mut model = recorder.time("core.model_build", || model_builder(&mut model_rng));
    let mut adversary = settings.adversary.build(settings.dpsgd.mode);
    let mut local_sensitivities = Vec::with_capacity(settings.dpsgd.steps);
    let mut sigmas = Vec::with_capacity(settings.dpsgd.steps);

    let train_start = recorder.now();
    let mut step_start = train_start;
    let observe = |record: StepRecord| {
        let callback = recorder.now();
        adversary.observe(&record, b);
        let end = recorder.now();
        if let Some(clip) = recorder
            .last(dpaudit_obs::names::CLIP_SPAN)
            .filter(|clip| clip.start >= step_start)
        {
            recorder.span("nn.norm_stats", step_start, clip.start);
        }
        recorder.span("core.adversary_observe", callback, end);
        recorder.span("dpsgd.step", step_start, end);
        step_start = end;
        local_sensitivities.push(record.local_sensitivity);
        sigmas.push(record.sigma);
    };
    match settings.sampling {
        Sampling::FullBatch => {
            train_dpsgd(
                &mut model,
                pair,
                b,
                &settings.dpsgd,
                &mut noise_rng,
                observe,
            );
        }
        Sampling::Poisson { q } => {
            let mut sample_rng = seeded_rng(split_seed(seed, 3));
            train_dpsgd_subsampled(
                &mut model,
                pair,
                b,
                &settings.dpsgd,
                q,
                &mut noise_rng,
                &mut sample_rng,
                observe,
            );
        }
    }
    recorder.span("dpsgd.train", train_start, recorder.now());

    recorder.time("core.observe_final", || {
        adversary.observe_final(&model, pair)
    });
    let guess = adversary.decide_d();
    let belief_d = adversary.score_d();
    let result = DiTrialResult {
        b,
        guess,
        correct: guess == b,
        belief_d,
        belief_trained: if b { belief_d } else { 1.0 - belief_d },
        belief_history: adversary.history().to_vec(),
        local_sensitivities,
        sigmas,
        test_accuracy: test_set.map(|t| model.accuracy(&t.xs, &t.ys)),
    };
    let eps_ls = recorder.time("dp.eps_ls", || match settings.sampling {
        Sampling::FullBatch => LocalSensitivityEstimator::per_trial(
            &result.sigmas,
            &result.local_sensitivities,
            plan.delta,
            settings.dpsgd.ls_floor,
        ),
        Sampling::Poisson { q } => LocalSensitivityEstimator::per_trial_subsampled(
            q,
            settings.dpsgd.noise_multiplier,
            result.sigmas.len(),
            plan.delta,
        ),
    });
    Composed {
        record: TrialRecord {
            idx,
            seed: Seed(seed),
            eps_ls,
            trial: result.with_detail(plan.detail),
        },
        model,
        trained_on_d: b,
    }
}

/// Whether two values print identically under `{:?}`, which writes every
/// `f64` in shortest round-trip form: equal text means equal bits (NaN
/// payloads aside), where `==` would also equate `0.0` with `-0.0`.
pub fn same_bits<T: std::fmt::Debug>(a: &T, b: &T) -> bool {
    format!("{a:?}") == format!("{b:?}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_core::{AdversaryKind, RecordDetail};
    use dpaudit_runtime::{execute_trial, testkit};
    use std::sync::Arc;

    #[test]
    fn composition_matches_execute_trial_bit_for_bit() {
        let pair = testkit::toy_pair();
        for (adversary, sampling) in [
            (AdversaryKind::GaussianBelief, Sampling::FullBatch),
            (AdversaryKind::ThresholdMi, Sampling::FullBatch),
            (AdversaryKind::Glrt, Sampling::Poisson { q: 0.5 }),
        ] {
            let settings = testkit::toy_settings_with(4, adversary, sampling);
            for detail in [RecordDetail::Full, RecordDetail::Summary] {
                let plan = ExecPlan {
                    master_seed: 17,
                    threads: 1,
                    batch_threads: 1,
                    detail,
                    delta: 1e-3,
                };
                for idx in 0..3 {
                    let expected = execute_trial(
                        &pair,
                        &settings,
                        Some(&pair.d),
                        testkit::toy_model,
                        &plan,
                        idx,
                    );
                    let recorder = Arc::new(Recorder::new());
                    let composed = {
                        let _sink = dpaudit_obs::install(recorder.clone());
                        compose_trial(
                            &pair,
                            &settings,
                            Some(&pair.d),
                            testkit::toy_model,
                            &plan,
                            idx,
                            &recorder,
                        )
                    };
                    assert!(
                        same_bits(&composed.record, &expected),
                        "{adversary:?} {sampling:?} {detail:?} trial {idx}:\n{:?}\n{expected:?}",
                        composed.record
                    );
                    assert_eq!(composed.trained_on_d, expected.trial.b);
                    for name in ["dpsgd.step", "core.adversary_observe", "nn.norm_stats"] {
                        assert_eq!(recorder.millis(name).len(), 4, "{name}");
                    }
                }
            }
        }
    }

    #[test]
    fn same_bits_tells_signed_zeros_apart() {
        assert!(same_bits(&(1.0f64, 2usize), &(1.0, 2)));
        assert!(!same_bits(&0.0f64, &-0.0));
    }
}
