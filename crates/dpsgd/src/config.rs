//! DPSGD run configuration: one flat clip norm and a plain SGD step, the
//! one validation of their values ([`DpsgdConfig::check`]), and the codec
//! that keeps the store-header bytes older builds wrote.

use dpaudit_dp::{gradient_sum_global_sensitivity, NeighborMode};
use serde::{Deserialize, Error, Serialize, Value};

/// Which sensitivity σ_i is scaled to (the paper's central ablation).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SensitivityScaling {
    /// σ_i = z · GS (GS = C unbounded, 2C bounded) — constant noise over
    /// the run.
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
/// head, and everything downstream (sensitivity, noise, update) stay
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

/// Configuration of one DPSGD training run. Every step clips each
/// per-example gradient to the one flat norm `clip_norm` and takes a plain
/// SGD step on the noised sum: the single bound the paper's sensitivities
/// (§6.1/§6.3) and the accountants assume.
///
/// The serialised form is the one older builds wrote (see the
/// [`Serialize`] impl), so store headers and transcripts keep their bytes.
#[derive(Debug, Clone, PartialEq)]
pub struct DpsgdConfig {
    /// Per-example clip norm `C` (the paper: 3).
    pub clip_norm: f64,
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
    /// Floor for the local sensitivity to keep σ_i positive when the two
    /// differing-record gradients coincide.
    pub ls_floor: f64,
    /// Storage precision of the batched gradient pipeline (f64 default).
    pub compute: ComputeMode,
    /// The gemm backend the header records (always native for new runs).
    pub backend: BackendChoice,
}

impl DpsgdConfig {
    /// The paper's setup with the floor at
    /// [`DpsgdConfig::ls_floor_for`]`(clip_norm)`, f64 storage and the
    /// native backend.
    ///
    /// # Panics
    /// Panics with [`DpsgdConfig::check`]'s message on an invalid value.
    pub fn new(
        clip_norm: f64,
        learning_rate: f64,
        steps: usize,
        mode: NeighborMode,
        noise_multiplier: f64,
        scaling: SensitivityScaling,
    ) -> Self {
        let cfg = Self {
            clip_norm,
            learning_rate,
            steps,
            mode,
            noise_multiplier,
            scaling,
            ls_floor: Self::ls_floor_for(clip_norm),
            compute: ComputeMode::F64,
            backend: BackendChoice::Native,
        };
        if let Err(e) = cfg.check() {
            panic!("DpsgdConfig: {e}");
        }
        cfg
    }

    /// The local-sensitivity floor a run with clip norm `clip_norm` uses:
    /// `1e-6 · C`.
    pub fn ls_floor_for(clip_norm: f64) -> f64 {
        1e-6 * clip_norm
    }

    /// The one validation of a DPSGD configuration: at least one step, and
    /// a finite, positive clip norm, learning rate, noise multiplier and
    /// floor.
    ///
    /// # Errors
    /// A message naming the first offending field.
    pub fn check(&self) -> Result<(), String> {
        if self.steps == 0 {
            return Err("steps must be positive".into());
        }
        for (name, value) in [
            ("clip norm", self.clip_norm),
            ("learning rate", self.learning_rate),
            ("noise multiplier", self.noise_multiplier),
            ("ls floor", self.ls_floor),
        ] {
            if !(value.is_finite() && value > 0.0) {
                return Err(format!("{name} must be positive, got {value}"));
            }
        }
        Ok(())
    }

    /// The global sensitivity of the clipped gradient sum (C unbounded, 2C
    /// bounded).
    pub fn global_sensitivity(&self) -> f64 {
        gradient_sum_global_sensitivity(self.clip_norm, self.mode)
    }

    /// The Δf actually used at a step whose estimated local sensitivity is
    /// `ls`, respecting the scaling strategy and the floor.
    pub fn sensitivity_for_step(&self, ls: f64) -> f64 {
        match self.scaling {
            SensitivityScaling::Global => self.global_sensitivity(),
            SensitivityScaling::Local => ls.max(self.ls_floor),
        }
    }
}

/// Writes the keys older builds wrote, in their order, with the options
/// they carried at the one value this step rule has: `clipping` as
/// `{"Flat":C}`, `adaptive` as `null` and `optimizer` as `"Sgd"`.
impl Serialize for DpsgdConfig {
    fn to_value(&self) -> Value {
        let entry = |key: &str, value: Value| (key.to_string(), value);
        Value::Object(vec![
            entry(
                "clipping",
                Value::Object(vec![entry("Flat", self.clip_norm.to_value())]),
            ),
            entry("adaptive", Value::Null),
            entry("learning_rate", self.learning_rate.to_value()),
            entry("steps", self.steps.to_value()),
            entry("mode", self.mode.to_value()),
            entry("noise_multiplier", self.noise_multiplier.to_value()),
            entry("scaling", self.scaling.to_value()),
            entry("optimizer", Value::String("Sgd".into())),
            entry("ls_floor", self.ls_floor.to_value()),
            entry("compute", self.compute.to_value()),
            entry("backend", self.backend.to_value()),
        ])
    }
}

/// Reads what [`Serialize`] writes. `adaptive`, `optimizer`, `compute` and
/// `backend` may be missing, as in older headers. A record naming per-layer
/// clipping, an adaptive controller or Adam is refused: its trials ran
/// another step rule, and reading it as flat SGD would run different trials
/// under the same header.
impl Deserialize for DpsgdConfig {
    fn from_value(value: &Value) -> Result<Self, Error> {
        if !matches!(value, Value::Object(_)) {
            return Err(Error::type_mismatch("object", value));
        }
        let removed =
            |key: &str, what: &str| Error::custom(format!("DpsgdConfig.{key}: {what} was removed"));
        let clip_norm = match value.get("clipping") {
            Some(Value::Object(tagged)) if tagged.len() == 1 && tagged[0].0 == "Flat" => {
                f64::from_value(&tagged[0].1).map_err(|e| e.context("DpsgdConfig.clipping.Flat"))?
            }
            Some(v) if v.get("PerLayer").is_some() => {
                return Err(removed("clipping", "per-layer clipping"))
            }
            Some(other) => {
                return Err(Error::type_mismatch("{\"Flat\": clip norm}", other)
                    .context("DpsgdConfig.clipping"))
            }
            None => return Err(Error::missing_field("DpsgdConfig", "clipping")),
        };
        if !matches!(value.get("adaptive"), None | Some(Value::Null)) {
            return Err(removed("adaptive", "adaptive clipping"));
        }
        match value.get("optimizer") {
            None => {}
            Some(Value::String(tag)) if tag == "Sgd" => {}
            Some(v) if v.get("Adam").is_some() => {
                return Err(removed("optimizer", "the Adam optimizer"))
            }
            Some(other) => {
                return Err(Error::type_mismatch("\"Sgd\"", other).context("DpsgdConfig.optimizer"))
            }
        }
        Ok(Self {
            clip_norm,
            learning_rate: required(value, "learning_rate")?,
            steps: required(value, "steps")?,
            mode: required(value, "mode")?,
            noise_multiplier: required(value, "noise_multiplier")?,
            scaling: required(value, "scaling")?,
            ls_floor: required(value, "ls_floor")?,
            compute: optional(value, "compute")?.unwrap_or_default(),
            backend: optional(value, "backend")?.unwrap_or_default(),
        })
    }
}

/// Field `key` of a `DpsgdConfig` object, or `None` when it is absent.
fn optional<T: Deserialize>(object: &Value, key: &str) -> Result<Option<T>, Error> {
    object
        .get(key)
        .map(|v| T::from_value(v).map_err(|e| e.context(&format!("DpsgdConfig.{key}"))))
        .transpose()
}

/// Field `key` of a `DpsgdConfig` object, which must be present.
fn required<T: Deserialize>(object: &Value, key: &str) -> Result<T, Error> {
    optional(object, key)?.ok_or_else(|| Error::missing_field("DpsgdConfig", key))
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
        assert_eq!(c.global_sensitivity(), 3.0);
        let c = cfg(NeighborMode::Bounded, SensitivityScaling::Global);
        assert_eq!(c.global_sensitivity(), 6.0);
    }

    #[test]
    fn step_sensitivity_global_ignores_ls() {
        let c = cfg(NeighborMode::Bounded, SensitivityScaling::Global);
        assert_eq!(c.sensitivity_for_step(0.5), 6.0);
        assert_eq!(c.sensitivity_for_step(100.0), 6.0);
    }

    #[test]
    fn step_sensitivity_local_uses_ls_with_floor() {
        let c = cfg(NeighborMode::Bounded, SensitivityScaling::Local);
        assert_eq!(c.sensitivity_for_step(0.5), 0.5);
        assert_eq!(c.sensitivity_for_step(0.0), 3e-6);
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
