//! Failure-injection tests: the library must fail loudly and precisely on
//! malformed inputs rather than propagate silent numerical corruption —
//! wrong privacy parameters are worse than crashes in this domain.

use dp_identifiability::prelude::*;

#[test]
#[should_panic(expected = "epsilon must be positive")]
fn negative_epsilon_calibration_panics() {
    calibrate_noise_multiplier_closed_form(-1.0, 1e-5, 10);
}

#[test]
#[should_panic(expected = "delta must be in")]
fn delta_one_guarantee_panics() {
    DpGuarantee::new(1.0, 1.0);
}

#[test]
#[should_panic(expected = "rho_beta must be in (0.5, 1)")]
fn rho_beta_below_prior_panics() {
    epsilon_for_rho_beta(0.4);
}

#[test]
#[should_panic(expected = "sigma must be positive")]
fn zero_sigma_belief_update_panics() {
    BeliefTracker::new().update_gaussian(&[0.0], &[0.0], &[1.0], 0.0);
}

#[test]
#[should_panic(expected = "center_d length")]
fn mismatched_center_dimensions_panic() {
    BeliefTracker::new().update_gaussian(&[0.0, 1.0], &[0.0], &[1.0, 0.0], 1.0);
}

#[test]
#[should_panic(expected = "empty training set")]
fn training_on_empty_dataset_panics() {
    let empty = Dataset::empty();
    let mut with_one = Dataset::empty();
    with_one.push(Tensor::full(&[600], 0.0), 0);
    // Unbounded pair whose D′ is empty: training on D′ must be rejected.
    let pair = NeighborPair {
        d: with_one,
        d_prime: empty,
        x1_index: 0,
        x2: None,
        mode: NeighborMode::Unbounded,
    };
    let cfg = DpsgdConfig::new(
        3.0,
        0.01,
        1,
        NeighborMode::Unbounded,
        1.0,
        SensitivityScaling::Local,
    );
    let mut model = purchase_mlp(&mut seeded_rng(1));
    train_dpsgd(&mut model, &pair, false, &cfg, &mut seeded_rng(2), |_| {});
}

#[test]
#[should_panic(expected = "label out of range")]
fn out_of_range_label_panics_in_forward() {
    let model = purchase_mlp(&mut seeded_rng(3));
    let x = Tensor::full(&[600], 0.5);
    model.per_example_grad(&x, 100); // valid labels are 0..100
}

#[test]
#[should_panic(expected = "Dense: input length")]
fn wrong_input_dimension_panics() {
    let model = purchase_mlp(&mut seeded_rng(4));
    model.forward(&Tensor::full(&[599], 0.5));
}

#[test]
#[should_panic(expected = "kernel larger than input")]
fn undersized_image_panics_in_forward() {
    let model = mnist_cnn(&mut seeded_rng(5));
    model.forward(&Tensor::full(&[1, 2, 2], 0.5));
}

#[test]
#[should_panic(expected = "kernel larger than input")]
fn undersized_image_panics_in_per_example_grad() {
    let model = mnist_cnn(&mut seeded_rng(6));
    model.per_example_grad(&Tensor::full(&[1, 2, 2], 0.5), 0);
}

#[test]
#[should_panic(expected = "q must be in")]
fn minibatch_rate_above_one_panics() {
    let data = generate_purchase(&mut seeded_rng(7), 4);
    let pair = NeighborPair::from_spec(&data, &NeighborSpec::Remove { index: 0 });
    let cfg = DpsgdConfig::new(
        1.0,
        0.1,
        1,
        NeighborMode::Unbounded,
        1.0,
        SensitivityScaling::Global,
    );
    train_dpsgd_subsampled(
        &mut purchase_mlp(&mut seeded_rng(8)),
        &pair,
        true,
        &cfg,
        1.5,
        &mut seeded_rng(9),
        &mut seeded_rng(10),
        |_| {},
    );
}

#[test]
#[should_panic(expected = "replace index out of range")]
fn neighbor_spec_out_of_range_panics() {
    let mut d = Dataset::empty();
    d.push(Tensor::full(&[3], 0.0), 0);
    d.neighbor(&NeighborSpec::Replace {
        index: 5,
        record: Tensor::full(&[3], 1.0),
        label: 0,
    });
}

#[test]
#[should_panic(expected = "belief must be in [0, 1]")]
fn belief_estimator_rejects_out_of_range() {
    MaxBeliefEstimator::from_max_belief(1.5);
}

#[test]
#[should_panic(expected = "floor must be positive")]
fn ls_estimator_rejects_zero_floor() {
    LocalSensitivityEstimator::per_trial(&[1.0], &[1.0], 1e-5, 0.0);
}

#[test]
fn infinite_advantage_estimate_is_contained() {
    // Saturated advantage gives +∞, which callers can detect — never NaN.
    let eps = AdvantageEstimator::from_advantage(1.0, 1e-5);
    assert!(eps.is_infinite() && eps > 0.0);
    assert!(!eps.is_nan());
}

#[test]
fn sigmoid_logit_edges_never_nan_in_belief_path() {
    // Extreme evidence drives the belief to exactly 0/1 without NaN, and
    // the ε′ estimator answers with a well-defined ∞.
    let mut t = BeliefTracker::new();
    t.update_llr(1e9);
    assert_eq!(t.belief(), 1.0);
    assert_eq!(
        MaxBeliefEstimator::from_max_belief(t.belief()),
        f64::INFINITY
    );
    let mut t2 = BeliefTracker::new();
    t2.update_llr(-1e9);
    assert_eq!(MaxBeliefEstimator::from_max_belief(t2.belief()), 0.0);
}

#[test]
fn clip_handles_subnormal_gradients() {
    use dp_identifiability::dpsgd::clip_to_norm;
    let mut g = vec![1e-310, -1e-310];
    let pre = clip_to_norm(&mut g, 1.0);
    assert!(pre >= 0.0 && pre.is_finite());
    assert!(g.iter().all(|v| v.is_finite()));
}
