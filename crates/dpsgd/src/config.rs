//! DPSGD run configuration.

use dpaudit_dp::{gradient_sum_global_sensitivity, NeighborMode};
use serde::{Deserialize, Serialize};

use crate::clip::{AdaptiveClipConfig, ClippingStrategy};
use crate::optimizer::Optimizer;

/// Which sensitivity σ_i is scaled to (the paper's central ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SensitivityScaling {
    /// σ_i = z · GS (GS = C unbounded, 2C bounded) — constant noise while
    /// the clipping norm is constant.
    Global,
    /// σ_i = z · L̂S_ĝᵢ (Eqs. 17/18) — noise tracks the per-step estimated
    /// local sensitivity of the concrete neighbouring pair.
    Local,
}

impl std::fmt::Display for SensitivityScaling {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SensitivityScaling::Global => write!(f, "GS"),
            SensitivityScaling::Local => write!(f, "LS"),
        }
    }
}

/// Numeric storage mode of the batched per-example gradient pipeline.
///
/// [`ComputeMode::F64`] (the default) is the determinism oracle: every
/// intermediate is double precision and results are bit-identical across
/// thread counts and kernel backends. [`ComputeMode::F32`] stores the
/// `[B, param]` per-example gradient buffers and activations in single
/// precision — halving the memory traffic of the hot loop and doubling
/// SIMD lane width — while the clipped-gradient *accumulation*, the loss
/// head, and everything downstream (sensitivity, noise, optimizer) stay
/// f64. f32 runs are tolerance-equivalent to the oracle, not bit-identical,
/// and are opt-in per run.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ComputeMode {
    /// Double-precision storage end to end (bit-reproducible oracle).
    #[default]
    F64,
    /// Single-precision gradient storage with f64 accumulation.
    F32,
}

impl std::fmt::Display for ComputeMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ComputeMode::F64 => write!(f, "f64"),
            ComputeMode::F32 => write!(f, "f32"),
        }
    }
}

/// The gemm backend a run's header records.
///
/// Every run computes on the native tensor kernels, the byte-stability
/// oracle, and new headers record [`BackendChoice::Native`].
/// [`BackendChoice::Blas`] is record-only: it names the CBLAS backend that
/// older builds could opt into, kept so their stores still parse for
/// reporting. Its trials summed in a different order, so
/// [`BackendChoice::resolve`] refuses it rather than resume it natively.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum BackendChoice {
    /// The in-tree scalar/SIMD kernels (bit-reproducible oracle).
    #[default]
    Native,
    /// The removed CBLAS backend (read from old stores, never run).
    Blas,
}

impl BackendChoice {
    /// Check that this binary can run the recorded backend.
    ///
    /// # Errors
    /// [`BackendChoice::Blas`]: the backend was removed, and running its
    /// trials on the native kernels would not reproduce them.
    pub fn resolve(self) -> Result<dpaudit_tensor::Backend, String> {
        match self {
            BackendChoice::Native => Ok(dpaudit_tensor::Backend),
            BackendChoice::Blas => {
                Err("backend `blas` was removed (only native remains)".to_string())
            }
        }
    }
}

impl std::fmt::Display for BackendChoice {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BackendChoice::Native => "native",
            BackendChoice::Blas => "blas",
        })
    }
}

/// Configuration of one DPSGD training run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DpsgdConfig {
    /// Per-example clipping strategy (the paper: flat `C = 3`).
    pub clipping: ClippingStrategy,
    /// Optional adaptive-clipping controller (§7 extension; flat clipping
    /// only).
    pub adaptive: Option<AdaptiveClipConfig>,
    /// Learning rate `η` (applied to the mean perturbed gradient).
    pub learning_rate: f64,
    /// Number of training steps `k`: full-batch steps (= epochs in the
    /// paper's setup) under [`crate::train_dpsgd`], Poisson-sampled steps
    /// under [`crate::train_dpsgd_subsampled`].
    pub steps: usize,
    /// Neighbouring-dataset relation.
    pub mode: NeighborMode,
    /// Noise multiplier `z = σ_i/Δf_i` — from [`dpaudit_dp::NoisePlan`].
    pub noise_multiplier: f64,
    /// Whether σ_i is scaled to global or estimated local sensitivity.
    pub scaling: SensitivityScaling,
    /// Update rule applied to the released gradient (post-processing; no
    /// effect on privacy or on the adversary's view).
    #[serde(default)]
    pub optimizer: Optimizer,
    /// Floor for the local sensitivity to keep σ_i positive when the two
    /// differing-record gradients coincide.
    pub ls_floor: f64,
    /// Storage precision of the batched gradient pipeline (f64 default).
    #[serde(default)]
    pub compute: ComputeMode,
    /// The gemm backend the header records (always native for new runs).
    #[serde(default)]
    pub backend: BackendChoice,
}

impl DpsgdConfig {
    /// Flat-clipping configuration (the paper's setup); `ls_floor` defaults
    /// to `1e-6 · C`.
    ///
    /// # Panics
    /// Panics on non-positive clip norm, learning rate, steps or noise
    /// multiplier.
    pub fn new(
        clip_norm: f64,
        learning_rate: f64,
        steps: usize,
        mode: NeighborMode,
        noise_multiplier: f64,
        scaling: SensitivityScaling,
    ) -> Self {
        Self::with_clipping(
            ClippingStrategy::Flat(clip_norm),
            learning_rate,
            steps,
            mode,
            noise_multiplier,
            scaling,
        )
    }

    /// General constructor accepting any [`ClippingStrategy`].
    ///
    /// # Panics
    /// Panics on invalid clipping norms, learning rate, steps or noise
    /// multiplier.
    pub fn with_clipping(
        clipping: ClippingStrategy,
        learning_rate: f64,
        steps: usize,
        mode: NeighborMode,
        noise_multiplier: f64,
        scaling: SensitivityScaling,
    ) -> Self {
        let bound = clipping.total_bound(); // validates the norms
        assert!(
            learning_rate > 0.0,
            "DpsgdConfig: learning rate must be positive"
        );
        assert!(steps > 0, "DpsgdConfig: steps must be positive");
        assert!(
            noise_multiplier.is_finite() && noise_multiplier > 0.0,
            "DpsgdConfig: noise multiplier must be positive"
        );
        Self {
            clipping,
            adaptive: None,
            learning_rate,
            steps,
            mode,
            noise_multiplier,
            scaling,
            optimizer: Optimizer::Sgd,
            ls_floor: 1e-6 * bound,
            compute: ComputeMode::F64,
            backend: BackendChoice::Native,
        }
    }

    /// Enable adaptive clipping (Thakkar et al., §7 extension).
    ///
    /// # Panics
    /// Panics when the clipping strategy is not flat — the adaptive
    /// controller steers a single scalar norm.
    pub fn with_adaptive(mut self, adaptive: AdaptiveClipConfig) -> Self {
        assert!(
            matches!(self.clipping, ClippingStrategy::Flat(_)),
            "DpsgdConfig: adaptive clipping requires a flat clipping norm"
        );
        self.adaptive = Some(adaptive);
        self
    }

    /// The bound on one clipped per-example gradient's norm at the *start*
    /// of training (adaptive clipping evolves it per step).
    pub fn clip_bound(&self) -> f64 {
        self.clipping.total_bound()
    }

    /// The global sensitivity of the clipped gradient sum at a given
    /// per-example bound (C unbounded, 2C bounded).
    pub fn global_sensitivity_at(&self, bound: f64) -> f64 {
        gradient_sum_global_sensitivity(bound, self.mode)
    }

    /// The Δf actually used at a step whose estimated local sensitivity is
    /// `ls` and whose per-example bound is `bound`, respecting the scaling
    /// strategy and the floor.
    pub fn sensitivity_for_step(&self, ls: f64, bound: f64) -> f64 {
        match self.scaling {
            SensitivityScaling::Global => self.global_sensitivity_at(bound),
            SensitivityScaling::Local => ls.max(self.ls_floor),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(mode: NeighborMode, scaling: SensitivityScaling) -> DpsgdConfig {
        DpsgdConfig::new(3.0, 0.005, 30, mode, 10.0, scaling)
    }

    #[test]
    fn global_sensitivity_per_mode() {
        let c = cfg(NeighborMode::Unbounded, SensitivityScaling::Global);
        assert_eq!(c.global_sensitivity_at(c.clip_bound()), 3.0);
        let c = cfg(NeighborMode::Bounded, SensitivityScaling::Global);
        assert_eq!(c.global_sensitivity_at(c.clip_bound()), 6.0);
    }

    #[test]
    fn step_sensitivity_global_ignores_ls() {
        let c = cfg(NeighborMode::Bounded, SensitivityScaling::Global);
        assert_eq!(c.sensitivity_for_step(0.5, 3.0), 6.0);
        assert_eq!(c.sensitivity_for_step(100.0, 3.0), 6.0);
        // Adaptive clipping changes the bound, and GS follows it.
        assert_eq!(c.sensitivity_for_step(0.5, 1.0), 2.0);
    }

    #[test]
    fn step_sensitivity_local_uses_ls_with_floor() {
        let c = cfg(NeighborMode::Bounded, SensitivityScaling::Local);
        assert_eq!(c.sensitivity_for_step(0.5, 3.0), 0.5);
        assert_eq!(c.sensitivity_for_step(0.0, 3.0), 3e-6);
    }

    #[test]
    fn per_layer_config_bound_is_rss() {
        let c = DpsgdConfig::with_clipping(
            ClippingStrategy::PerLayer(vec![3.0, 4.0]),
            0.005,
            30,
            NeighborMode::Unbounded,
            1.0,
            SensitivityScaling::Global,
        );
        assert!((c.clip_bound() - 5.0).abs() < 1e-12);
        assert!((c.ls_floor - 5e-6).abs() < 1e-18);
    }

    #[test]
    fn adaptive_requires_flat() {
        let c = cfg(NeighborMode::Bounded, SensitivityScaling::Global)
            .with_adaptive(AdaptiveClipConfig::new(0.5, 0.2));
        assert!(c.adaptive.is_some());
    }

    #[test]
    #[should_panic(expected = "requires a flat clipping norm")]
    fn adaptive_rejected_for_per_layer() {
        DpsgdConfig::with_clipping(
            ClippingStrategy::PerLayer(vec![1.0, 1.0]),
            0.005,
            30,
            NeighborMode::Bounded,
            1.0,
            SensitivityScaling::Global,
        )
        .with_adaptive(AdaptiveClipConfig::new(0.5, 0.2));
    }

    #[test]
    fn display_labels() {
        assert_eq!(SensitivityScaling::Global.to_string(), "GS");
        assert_eq!(SensitivityScaling::Local.to_string(), "LS");
        assert_eq!(ComputeMode::F64.to_string(), "f64");
        assert_eq!(ComputeMode::F32.to_string(), "f32");
        assert_eq!(BackendChoice::Native.to_string(), "native");
        assert_eq!(BackendChoice::Blas.to_string(), "blas");
    }

    #[test]
    fn compute_mode_defaults_to_f64() {
        let c = cfg(NeighborMode::Bounded, SensitivityScaling::Global);
        assert_eq!(c.compute, ComputeMode::F64);
    }

    #[test]
    fn backend_defaults_to_native_and_resolves() {
        let c = cfg(NeighborMode::Bounded, SensitivityScaling::Global);
        assert_eq!(c.backend, BackendChoice::Native);
        c.backend.resolve().expect("native resolves");
        let err = BackendChoice::Blas.resolve().unwrap_err();
        assert!(err.contains("backend `blas` was removed"), "{err}");
    }

    #[test]
    #[should_panic(expected = "steps must be positive")]
    fn zero_steps_rejected() {
        DpsgdConfig::new(
            3.0,
            0.005,
            0,
            NeighborMode::Bounded,
            1.0,
            SensitivityScaling::Global,
        );
    }
}
