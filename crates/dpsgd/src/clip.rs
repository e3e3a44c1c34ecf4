//! Per-example gradient clipping to one flat ℓ2 norm `C`, the bound the
//! paper's sensitivities assume (§6.1/§6.3). [`crate::StepExec::clip_sum`]
//! fuses the same rule into the step's sum; these are the single-gradient
//! forms the audit trainers apply to the differing records.

use dpaudit_math::l2_norm;
use dpaudit_nn::Sequential;
use dpaudit_tensor::Tensor;

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

#[cfg(test)]
mod tests {
    use super::*;
    use dpaudit_math::seeded_rng;
    use dpaudit_nn::purchase_mlp;

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
