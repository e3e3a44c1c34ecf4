//! Per-example gradient clipping: flat, per-layer, and adaptive.

use std::ops::Range;

use dpaudit_math::l2_norm;
use dpaudit_nn::Sequential;
use dpaudit_tensor::Tensor;
use serde::{Deserialize, Serialize};

/// Scale `grad` in place so its ℓ2 norm is at most `clip_norm`
/// (`g ← g · min(1, C/‖g‖)`), returning the pre-clip norm.
///
/// # Panics
/// Panics for a non-positive clip norm.
pub fn clip_to_norm(grad: &mut [f64], clip_norm: f64) -> f64 {
    assert!(
        clip_norm.is_finite() && clip_norm > 0.0,
        "clip_to_norm: clip norm must be positive, got {clip_norm}"
    );
    let norm = l2_norm(grad);
    if norm > clip_norm {
        let scale = clip_norm / norm;
        for g in grad {
            *g *= scale;
        }
    }
    norm
}

/// The clipped per-example gradient `ḡ(x) = clip_C(∇ℓ(θ, x))` together with
/// the example's loss.
pub fn clipped_gradient(
    model: &Sequential,
    x: &Tensor,
    label: usize,
    clip_norm: f64,
) -> (f64, Vec<f64>) {
    let (loss, mut grad) = model.per_example_grad(x, label);
    clip_to_norm(&mut grad, clip_norm);
    (loss, grad)
}

/// How per-example gradients are clipped before aggregation.
///
/// The paper uses a single flat norm C = 3 and notes (§7, citing McMahan et
/// al. and Thakkar et al.) that per-layer and adaptive clipping may improve
/// the utility/tightness trade-off; both are implemented here as extensions.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum ClippingStrategy {
    /// Clip the whole flat gradient to ℓ2 norm `C`.
    Flat(f64),
    /// Clip each parameterised layer's gradient segment to its own norm.
    /// The segment boundaries come from
    /// [`dpaudit_nn::Sequential::param_layout`]; the whole-gradient norm is
    /// then bounded by `√(Σ Cₗ²)`.
    PerLayer(Vec<f64>),
}

impl ClippingStrategy {
    /// The bound on the ℓ2 norm of one clipped per-example gradient — the
    /// `C` entering the global-sensitivity formulas (C unbounded, 2C
    /// bounded).
    ///
    /// # Panics
    /// Panics on non-positive norms or an empty per-layer list.
    pub fn total_bound(&self) -> f64 {
        match self {
            ClippingStrategy::Flat(c) => {
                assert!(
                    c.is_finite() && *c > 0.0,
                    "ClippingStrategy: C must be positive"
                );
                *c
            }
            ClippingStrategy::PerLayer(cs) => {
                assert!(!cs.is_empty(), "ClippingStrategy: empty per-layer norms");
                assert!(
                    cs.iter().all(|c| c.is_finite() && *c > 0.0),
                    "ClippingStrategy: all per-layer norms must be positive"
                );
                cs.iter().map(|c| c * c).sum::<f64>().sqrt()
            }
        }
    }

    /// Clip `grad` in place. `layout` gives the per-layer segment lengths
    /// (only used by [`ClippingStrategy::PerLayer`]). Returns the pre-clip
    /// whole-gradient norm.
    ///
    /// # Panics
    /// Panics when the per-layer norm count or segment lengths do not match
    /// the gradient.
    pub fn clip(&self, grad: &mut [f64], layout: &[usize]) -> f64 {
        match self {
            ClippingStrategy::Flat(c) => clip_to_norm(grad, *c),
            ClippingStrategy::PerLayer(_) => {
                let pre = l2_norm(grad);
                for (c, seg) in self.segments(layout, grad.len()) {
                    clip_to_norm(&mut grad[seg], c);
                }
                pre
            }
        }
    }

    /// Each clip norm with the range of the flat gradient it bounds: the
    /// whole `dim`-long gradient for [`ClippingStrategy::Flat`], one range
    /// per `layout` segment for [`ClippingStrategy::PerLayer`].
    ///
    /// # Panics
    /// Panics when the per-layer norm count or segment lengths do not match
    /// the gradient.
    pub(crate) fn segments(&self, layout: &[usize], dim: usize) -> Vec<(f64, Range<usize>)> {
        match self {
            ClippingStrategy::Flat(c) => vec![(*c, 0..dim)],
            ClippingStrategy::PerLayer(cs) => {
                assert_eq!(
                    cs.len(),
                    layout.len(),
                    "ClippingStrategy::PerLayer: {} norms for {} layers",
                    cs.len(),
                    layout.len()
                );
                assert_eq!(
                    layout.iter().sum::<usize>(),
                    dim,
                    "ClippingStrategy::PerLayer: layout does not cover the gradient"
                );
                let mut off = 0;
                cs.iter()
                    .zip(layout)
                    .map(|(&c, &len)| {
                        off += len;
                        (c, off - len..off)
                    })
                    .collect()
            }
        }
    }
}

/// Adaptive clipping in the style of Thakkar–Andrew–McMahan: track the
/// fraction of per-example gradients that were *not* clipped and steer `C`
/// geometrically toward a target quantile of the norm distribution.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveClipConfig {
    /// Target fraction of unclipped gradients (e.g. 0.5 = median norm).
    pub target_quantile: f64,
    /// Geometric learning rate for the `C` update.
    pub learning_rate: f64,
}

impl AdaptiveClipConfig {
    /// Construct with validation.
    ///
    /// # Panics
    /// Panics for a quantile outside `(0, 1)` or a non-positive rate.
    pub fn new(target_quantile: f64, learning_rate: f64) -> Self {
        assert!(
            target_quantile > 0.0 && target_quantile < 1.0,
            "AdaptiveClipConfig: quantile must be in (0, 1)"
        );
        assert!(
            learning_rate > 0.0,
            "AdaptiveClipConfig: learning rate must be positive"
        );
        Self {
            target_quantile,
            learning_rate,
        }
    }

    /// One update: `C ← C·exp(−η·(b̄ − γ))` where `b̄` is the observed
    /// unclipped fraction and γ the target. An over-clipping step (b̄ < γ)
    /// grows C; an under-clipping one shrinks it.
    ///
    /// # Panics
    /// Panics for a fraction outside `[0, 1]`.
    pub fn updated_norm(&self, current: f64, unclipped_fraction: f64) -> f64 {
        assert!(
            (0.0..=1.0).contains(&unclipped_fraction),
            "updated_norm: fraction must be in [0, 1]"
        );
        current * (-self.learning_rate * (unclipped_fraction - self.target_quantile)).exp()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_math::seeded_rng;
    use dpaudit_nn::purchase_mlp;

    #[test]
    fn flat_strategy_matches_clip_to_norm() {
        let strat = ClippingStrategy::Flat(1.0);
        let mut a = vec![3.0, 4.0];
        let mut b = a.clone();
        let pre = strat.clip(&mut a, &[2]);
        clip_to_norm(&mut b, 1.0);
        assert_eq!(a, b);
        assert!((pre - 5.0).abs() < 1e-12);
        assert_eq!(strat.total_bound(), 1.0);
    }

    #[test]
    fn per_layer_clips_each_segment() {
        let strat = ClippingStrategy::PerLayer(vec![1.0, 2.0]);
        // Segment 1 norm 5 → scaled to 1; segment 2 norm 1 → untouched.
        let mut g = vec![3.0, 4.0, 1.0, 0.0];
        strat.clip(&mut g, &[2, 2]);
        assert!((l2_norm(&g[0..2]) - 1.0).abs() < 1e-12);
        assert_eq!(&g[2..4], &[1.0, 0.0]);
        // Total bound is the root-sum-square of the per-layer norms.
        assert!((strat.total_bound() - 5.0_f64.sqrt()).abs() < 1e-12);
    }

    #[test]
    fn per_layer_whole_norm_respects_total_bound() {
        let strat = ClippingStrategy::PerLayer(vec![0.5, 1.5, 1.0]);
        let mut g: Vec<f64> = (0..9).map(|i| (i as f64 + 1.0) * 2.0).collect();
        strat.clip(&mut g, &[3, 3, 3]);
        assert!(l2_norm(&g) <= strat.total_bound() + 1e-9);
    }

    #[test]
    #[should_panic(expected = "norms for")]
    fn per_layer_count_mismatch_panics() {
        ClippingStrategy::PerLayer(vec![1.0]).clip(&mut [0.0; 4], &[2, 2]);
    }

    #[test]
    #[should_panic(expected = "does not cover")]
    fn per_layer_layout_mismatch_panics() {
        ClippingStrategy::PerLayer(vec![1.0, 1.0]).clip(&mut [0.0; 5], &[2, 2]);
    }

    #[test]
    fn adaptive_update_direction() {
        let a = AdaptiveClipConfig::new(0.5, 0.2);
        // Everything clipped (fraction 0) → C grows.
        assert!(a.updated_norm(3.0, 0.0) > 3.0);
        // Nothing clipped (fraction 1) → C shrinks.
        assert!(a.updated_norm(3.0, 1.0) < 3.0);
        // On target → unchanged.
        assert!((a.updated_norm(3.0, 0.5) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn adaptive_converges_to_quantile_on_static_norms() {
        // Norms fixed at 2.0; target: half unclipped. C should converge to
        // ~2.0 where the unclipped fraction crosses the target.
        let a = AdaptiveClipConfig::new(0.5, 0.3);
        let norms = [1.0, 1.5, 2.0, 2.5, 3.0];
        let mut c = 10.0;
        for _ in 0..200 {
            let unclipped = norms.iter().filter(|&&n| n <= c).count() as f64 / norms.len() as f64;
            c = a.updated_norm(c, unclipped);
        }
        assert!(
            (1.5..=2.6).contains(&c),
            "C did not converge near the median: {c}"
        );
    }

    #[test]
    #[should_panic(expected = "quantile must be in")]
    fn adaptive_bad_quantile_rejected() {
        AdaptiveClipConfig::new(1.0, 0.1);
    }

    #[test]
    fn short_vectors_untouched() {
        let mut g = vec![0.3, 0.4];
        let pre = clip_to_norm(&mut g, 1.0);
        assert_eq!(g, vec![0.3, 0.4]);
        assert!((pre - 0.5).abs() < 1e-12);
    }

    #[test]
    fn long_vectors_scaled_to_boundary() {
        let mut g = vec![3.0, 4.0];
        let pre = clip_to_norm(&mut g, 1.0);
        assert!((pre - 5.0).abs() < 1e-12);
        assert!((l2_norm(&g) - 1.0).abs() < 1e-12);
        // Direction preserved.
        assert!((g[1] / g[0] - 4.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn exactly_at_boundary_untouched() {
        let mut g = vec![1.0, 0.0];
        clip_to_norm(&mut g, 1.0);
        assert_eq!(g, vec![1.0, 0.0]);
    }

    #[test]
    fn zero_gradient_stays_zero() {
        let mut g = vec![0.0; 5];
        clip_to_norm(&mut g, 2.0);
        assert!(g.iter().all(|&v| v == 0.0));
    }

    #[test]
    #[should_panic(expected = "clip norm must be positive")]
    fn bad_clip_norm_panics() {
        clip_to_norm(&mut [1.0], 0.0);
    }

    #[test]
    fn clipped_gradient_respects_bound() {
        let model = purchase_mlp(&mut seeded_rng(1));
        let x = Tensor::full(&[600], 1.0);
        let (loss, g) = clipped_gradient(&model, &x, 3, 0.1);
        assert!(loss.is_finite());
        assert!(l2_norm(&g) <= 0.1 + 1e-9);
    }
}
