//! Training transcripts: what the DI adversary observes.

use dpaudit_dp::NeighborMode;
use serde::{Deserialize, Serialize};

use crate::config::DpsgdConfig;

/// Everything produced by one DPSGD step.
///
/// `clean_sum` is the unperturbed clipped-gradient sum over the dataset that
/// was actually trained on; `grad_x1`/`grad_x2` are the clipped gradients of
/// the two differing records evaluated at the same model state. Because the
/// model state (weights and normalisation statistics) is public, these
/// values are identical to what the adversary would compute itself from
/// (θ_i, D, D′) — storing them is an optimisation, not an information leak.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct StepRecord {
    /// Zero-based step index.
    pub step: usize,
    /// The released perturbed gradient sum g̃_i (the mechanism output).
    pub noisy_sum: Vec<f64>,
    /// The clean clipped-gradient sum over the trained dataset.
    pub clean_sum: Vec<f64>,
    /// Clipped gradient of x̂₁ (the differing record in D) at θ_i.
    pub grad_x1: Vec<f64>,
    /// Clipped gradient of x̂₂ (the replacement record, bounded DP only).
    pub grad_x2: Option<Vec<f64>>,
    /// Estimated local sensitivity L̂S_ĝᵢ at this step (Eqs. 17/18).
    pub local_sensitivity: f64,
    /// Per-example clip bound in force at this step: the run's clip norm
    /// `C` at every step (kept for the transcript format).
    pub clip_bound: f64,
    /// The Δf the noise was actually scaled to.
    pub sensitivity_used: f64,
    /// Noise standard deviation σ_i = z·Δf_i.
    pub sigma: f64,
    /// Mean training loss over the batch at this step (diagnostics).
    pub mean_loss: f64,
}

impl StepRecord {
    /// The hypothesis centers `(ĝ_i(D), ĝ_i(D′))` as gradient sums, derived
    /// from the stored sum via the differing-record identity:
    /// bounded: `Σ(D′) = Σ(D) − ḡ(x̂₁) + ḡ(x̂₂)`; unbounded:
    /// `Σ(D′) = Σ(D) − ḡ(x̂₁)`.
    pub fn hypothesis_centers(
        &self,
        trained_on_d: bool,
        mode: NeighborMode,
    ) -> (Vec<f64>, Vec<f64>) {
        let other: Vec<f64> = match (mode, &self.grad_x2) {
            (NeighborMode::Bounded, Some(g2)) => {
                if trained_on_d {
                    // Σ(D′) = Σ(D) − g1 + g2
                    self.clean_sum
                        .iter()
                        .zip(&self.grad_x1)
                        .zip(g2)
                        .map(|((s, g1), g2)| s - g1 + g2)
                        .collect()
                } else {
                    // Σ(D) = Σ(D′) + g1 − g2
                    self.clean_sum
                        .iter()
                        .zip(&self.grad_x1)
                        .zip(g2)
                        .map(|((s, g1), g2)| s + g1 - g2)
                        .collect()
                }
            }
            (NeighborMode::Unbounded, None) => {
                if trained_on_d {
                    // Σ(D′) = Σ(D) − g1
                    self.clean_sum
                        .iter()
                        .zip(&self.grad_x1)
                        .map(|(s, g1)| s - g1)
                        .collect()
                } else {
                    // Σ(D) = Σ(D′) + g1
                    self.clean_sum
                        .iter()
                        .zip(&self.grad_x1)
                        .map(|(s, g1)| s + g1)
                        .collect()
                }
            }
            _ => panic!("StepRecord: mode and grad_x2 presence disagree"),
        };
        if trained_on_d {
            (self.clean_sum.clone(), other)
        } else {
            (other, self.clean_sum.clone())
        }
    }
}

/// A complete training transcript plus the run's ground truth.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Transcript {
    /// One record per training step, in order.
    pub steps: Vec<StepRecord>,
    /// Ground truth of the challenge: `true` if D was trained (b = 1).
    pub trained_on_d: bool,
    /// The run configuration.
    pub config: DpsgdConfig,
}

impl Transcript {
    /// Serialise to pretty JSON at `path` — the archival format the
    /// `dpaudit` CLI audits.
    ///
    /// # Errors
    /// I/O or serialisation failures.
    pub fn to_json_file(&self, path: &std::path::Path) -> std::io::Result<()> {
        let json = serde_json::to_string_pretty(self)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))?;
        std::fs::write(path, json)
    }

    /// Load a transcript previously written by
    /// [`Transcript::to_json_file`].
    ///
    /// # Errors
    /// I/O or deserialisation failures.
    pub fn from_json_file(path: &std::path::Path) -> std::io::Result<Self> {
        let json = std::fs::read_to_string(path)?;
        serde_json::from_str(&json)
            .map_err(|e| std::io::Error::new(std::io::ErrorKind::InvalidData, e))
    }

    /// The per-step estimated local sensitivities, in step order
    /// (the series plotted by the paper's Figures 4 and 5).
    pub fn local_sensitivities(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.local_sensitivity).collect()
    }

    /// The per-step σ values.
    pub fn sigmas(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.sigma).collect()
    }

    /// The per-step mean training losses.
    pub fn losses(&self) -> Vec<f64> {
        self.steps.iter().map(|s| s.mean_loss).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn record(mode: NeighborMode) -> StepRecord {
        StepRecord {
            step: 0,
            noisy_sum: vec![0.0; 3],
            clean_sum: vec![10.0, 20.0, 30.0],
            grad_x1: vec![1.0, 2.0, 3.0],
            grad_x2: match mode {
                NeighborMode::Bounded => Some(vec![0.5, 0.5, 0.5]),
                NeighborMode::Unbounded => None,
            },
            local_sensitivity: 1.0,
            clip_bound: 3.0,
            sensitivity_used: 1.0,
            sigma: 1.0,
            mean_loss: 0.0,
        }
    }

    #[test]
    fn centers_bounded_trained_on_d() {
        let r = record(NeighborMode::Bounded);
        let (cd, cdp) = r.hypothesis_centers(true, NeighborMode::Bounded);
        assert_eq!(cd, vec![10.0, 20.0, 30.0]);
        assert_eq!(cdp, vec![9.5, 18.5, 27.5]);
    }

    #[test]
    fn centers_bounded_trained_on_d_prime() {
        let r = record(NeighborMode::Bounded);
        let (cd, cdp) = r.hypothesis_centers(false, NeighborMode::Bounded);
        assert_eq!(cdp, vec![10.0, 20.0, 30.0]);
        assert_eq!(cd, vec![10.5, 21.5, 32.5]);
    }

    #[test]
    fn centers_unbounded_both_directions() {
        let r = record(NeighborMode::Unbounded);
        let (cd, cdp) = r.hypothesis_centers(true, NeighborMode::Unbounded);
        assert_eq!(cd, vec![10.0, 20.0, 30.0]);
        assert_eq!(cdp, vec![9.0, 18.0, 27.0]);
        let (cd2, cdp2) = r.hypothesis_centers(false, NeighborMode::Unbounded);
        assert_eq!(cdp2, vec![10.0, 20.0, 30.0]);
        assert_eq!(cd2, vec![11.0, 22.0, 33.0]);
    }

    #[test]
    fn centers_round_trip_consistency() {
        // The D-center derived when trained on D′ plus the identity must
        // reproduce the D′-center, i.e. the two derivations are inverses.
        let r = record(NeighborMode::Bounded);
        let (cd_t, cdp_t) = r.hypothesis_centers(true, NeighborMode::Bounded);
        // Pretend the clean sum had been cdp_t (trained on D′):
        let mut r2 = r.clone();
        r2.clean_sum = cdp_t;
        let (cd_f, _) = r2.hypothesis_centers(false, NeighborMode::Bounded);
        assert_eq!(cd_f, cd_t);
    }

    #[test]
    #[should_panic(expected = "disagree")]
    fn mode_mismatch_panics() {
        record(NeighborMode::Bounded).hypothesis_centers(true, NeighborMode::Unbounded);
    }

    #[test]
    fn transcript_json_round_trip() {
        let t = Transcript {
            steps: vec![record(NeighborMode::Bounded), record(NeighborMode::Bounded)],
            trained_on_d: false,
            config: crate::config::DpsgdConfig::new(
                3.0,
                0.005,
                2,
                NeighborMode::Bounded,
                1.5,
                crate::config::SensitivityScaling::Local,
            ),
        };
        let dir = std::env::temp_dir().join("dpaudit-transcript-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.json");
        t.to_json_file(&path).unwrap();
        let back = Transcript::from_json_file(&path).unwrap();
        assert_eq!(back.steps.len(), 2);
        assert_eq!(back.trained_on_d, t.trained_on_d);
        assert_eq!(back.steps[0].clean_sum, t.steps[0].clean_sum);
        assert_eq!(back.config, t.config);
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn transcript_load_rejects_garbage() {
        let dir = std::env::temp_dir().join("dpaudit-transcript-test");
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("garbage.json");
        std::fs::write(&path, "not json at all").unwrap();
        assert!(Transcript::from_json_file(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn transcript_series_accessors() {
        let t = Transcript {
            steps: vec![record(NeighborMode::Unbounded)],
            trained_on_d: true,
            config: crate::config::DpsgdConfig::new(
                3.0,
                0.005,
                1,
                NeighborMode::Unbounded,
                1.0,
                crate::config::SensitivityScaling::Global,
            ),
        };
        assert_eq!(t.local_sensitivities(), vec![1.0]);
        assert_eq!(t.sigmas(), vec![1.0]);
        assert_eq!(t.losses(), vec![0.0]);
    }
}
