//! Property tests: the streaming aggregators agree with the in-memory
//! `DiBatchResult` folds and a serial ε′ sum on arbitrary outcomes and
//! arbitrary arrival orders.

use dpaudit_core::experiment::{DiBatchResult, DiTrialResult};
use dpaudit_runtime::{StreamingAggregates, TrialOutcome};
use proptest::prelude::*;

fn fake_trial(correct: bool, belief: f64) -> DiTrialResult {
    DiTrialResult {
        b: true,
        guess: correct,
        correct,
        belief_d: belief,
        belief_trained: belief,
        belief_history: vec![],
        local_sensitivities: vec![],
        sigmas: vec![],
        test_accuracy: None,
    }
}

/// Deterministic scramble: visiting `(k * stride) % n` for coprime stride
/// covers every index exactly once in a non-monotone order.
fn scramble_order(n: usize, stride: usize) -> Vec<usize> {
    let stride = (2 * stride + 1).max(1); // odd ⇒ coprime with powers of two
    let mut order: Vec<usize> = (0..n).map(|k| (k * stride) % n).collect();
    order.sort_unstable();
    order.dedup();
    if order.len() == n {
        (0..n).map(|k| (k * stride) % n).collect()
    } else {
        // stride shared a factor with n; fall back to reversed order.
        (0..n).rev().collect()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn streaming_matches_batch_on_random_outcomes(
        beliefs in proptest::collection::vec(0.0f64..1.0, 1..40),
        correct_bits in proptest::collection::vec(0.0f64..1.0, 40usize),
        eps_values in proptest::collection::vec(0.0f64..8.0, 40usize),
        stride in 0usize..20,
        bound in 0.5f64..0.999,
    ) {
        let n = beliefs.len();
        let trials: Vec<DiTrialResult> = (0..n)
            .map(|i| fake_trial(correct_bits[i] > 0.5, beliefs[i]))
            .collect();
        let batch = DiBatchResult { trials };

        let mut agg = StreamingAggregates::new(n, 2.0, 1e-3, bound);
        for i in scramble_order(n, stride) {
            agg.push(i, TrialOutcome {
                correct: batch.trials[i].correct,
                belief_trained: batch.trials[i].belief_trained,
                eps_ls: eps_values[i],
            });
        }
        prop_assert!(agg.is_complete());
        let report = agg.finish();

        // Counts and max must match the batch path exactly.
        prop_assert_eq!(report.advantage.to_bits(), batch.advantage().to_bits());
        prop_assert_eq!(report.max_belief.to_bits(), batch.max_score().to_bits());
        prop_assert_eq!(
            report.empirical_delta.to_bits(),
            batch.empirical_delta(bound).to_bits()
        );

        // The in-order ε′ mean must match a serial left fold exactly.
        let serial_mean = eps_values[..n].iter().sum::<f64>() / n as f64;
        prop_assert_eq!(report.eps_from_ls.to_bits(), serial_mean.to_bits());

        // Derived estimators are consistent with the core definitions.
        prop_assert_eq!(
            report.eps_from_belief.to_bits(),
            dpaudit_core::MaxBeliefEstimator::from_max_belief(batch.max_score()).to_bits()
        );
        prop_assert_eq!(
            report.eps_from_advantage.to_bits(),
            dpaudit_core::AdvantageEstimator::from_advantage(batch.advantage(), 1e-3).to_bits()
        );
    }

    #[test]
    fn arrival_order_never_changes_the_report(
        beliefs in proptest::collection::vec(0.0f64..1.0, 2..32),
        stride_a in 0usize..16,
        stride_b in 0usize..16,
    ) {
        let n = beliefs.len();
        let outcomes: Vec<TrialOutcome> = beliefs
            .iter()
            .enumerate()
            .map(|(i, &b)| TrialOutcome {
                correct: i % 2 == 0,
                belief_trained: b,
                eps_ls: b * 3.0 + 0.1,
            })
            .collect();
        let run = |order: Vec<usize>| {
            let mut agg = StreamingAggregates::new(n, 2.0, 1e-3, 0.9);
            for i in order {
                agg.push(i, outcomes[i]);
            }
            agg.finish()
        };
        let a = run(scramble_order(n, stride_a));
        let b = run(scramble_order(n, stride_b));
        prop_assert_eq!(a.eps_from_ls.to_bits(), b.eps_from_ls.to_bits());
        prop_assert_eq!(a.advantage.to_bits(), b.advantage.to_bits());
        prop_assert_eq!(a.max_belief.to_bits(), b.max_belief.to_bits());
        prop_assert_eq!(a.empirical_delta.to_bits(), b.empirical_delta.to_bits());
    }
}
