//! Rényi differential privacy accounting (Mironov, CSF 2017).
//!
//! The paper (§5.2, §6) composes DPSGD's per-step Gaussian releases with RDP
//! rather than naive sequential composition. For the Gaussian mechanism with
//! noise multiplier `z = σ/Δf`, each step is `(α, α/(2z²))`-RDP (paper
//! Eq. 3); k steps compose additively; and an `(α, ε_RDP)`-RDP guarantee
//! converts to `(ε_RDP + ln(1/δ)/(α−1), δ)`-DP. The accountant also supports
//! Poisson-subsampled steps (the mini-batch extension, after Mironov et al.
//! 2019 / the tensorflow-privacy accountant) and *heterogeneous* per-step
//! noise multipliers — the ingredient the ε′-from-sensitivities auditing
//! estimator of §6.4 needs, because the empirical local sensitivity differs
//! at every training step.

use dpaudit_math::{log_binomial, log_sum_exp};
use serde::{Deserialize, Serialize};

/// The default Rényi-order grid, matching the spirit of tensorflow-privacy:
/// a fine sweep of small orders plus exponentially spaced large ones.
pub const DEFAULT_ORDERS: &[f64] = &[
    1.25, 1.5, 1.75, 2.0, 2.25, 2.5, 2.75, 3.0, 3.5, 4.0, 4.5, 5.0, 6.0, 7.0, 8.0, 9.0, 10.0, 11.0,
    12.0, 14.0, 16.0, 20.0, 24.0, 28.0, 32.0, 40.0, 48.0, 56.0, 64.0, 96.0, 128.0, 192.0, 256.0,
    384.0, 512.0, 768.0, 1024.0,
];

/// RDP of one full-batch Gaussian release at order `α` and noise multiplier
/// `z = σ/Δf` (paper Eq. 3 with Δf normalised out): `ε_RDP(α) = α/(2z²)`.
///
/// # Panics
/// Panics for `α ≤ 1` or a non-positive `z`.
pub fn gaussian_rdp(alpha: f64, noise_multiplier: f64) -> f64 {
    assert!(
        alpha > 1.0,
        "gaussian_rdp: order must exceed 1, got {alpha}"
    );
    assert!(
        noise_multiplier.is_finite() && noise_multiplier > 0.0,
        "gaussian_rdp: noise multiplier must be positive, got {noise_multiplier}"
    );
    alpha / (2.0 * noise_multiplier * noise_multiplier)
}

/// RDP of one *Poisson-subsampled* Gaussian release at integer order `α ≥ 2`,
/// sampling rate `q ∈ [0, 1]` and noise multiplier `z`.
///
/// Uses the exact binomial expansion (Mironov–Talwar–Zhang; the
/// `_compute_log_a_int` path of tensorflow-privacy), evaluated in log space:
///
/// ```text
/// A(α) = Σ_{i=0}^{α} C(α,i) (1−q)^{α−i} q^i · exp((i²−i)/(2z²))
/// ε_RDP(α) = ln A(α) / (α−1)
/// ```
///
/// # Panics
/// Panics for `α < 2`, `q` outside `[0, 1]` or a non-positive `z`.
pub fn subsampled_gaussian_rdp_int(alpha: u64, q: f64, noise_multiplier: f64) -> f64 {
    assert!(alpha >= 2, "subsampled RDP: integer order must be ≥ 2");
    assert!(
        (0.0..=1.0).contains(&q),
        "subsampled RDP: q must be in [0, 1]"
    );
    assert!(
        noise_multiplier.is_finite() && noise_multiplier > 0.0,
        "subsampled RDP: noise multiplier must be positive"
    );
    if q == 0.0 {
        return 0.0;
    }
    if q == 1.0 {
        return gaussian_rdp(alpha as f64, noise_multiplier);
    }
    let z2 = noise_multiplier * noise_multiplier;
    let log_q = q.ln();
    let log_1q = (-q).ln_1p();
    let terms: Vec<f64> = (0..=alpha)
        .map(|i| {
            let fi = i as f64;
            log_binomial(alpha, i)
                + fi * log_q
                + (alpha - i) as f64 * log_1q
                + (fi * fi - fi) / (2.0 * z2)
        })
        .collect();
    log_sum_exp(&terms) / (alpha as f64 - 1.0)
}

/// RDP of one Poisson-subsampled Gaussian release at *any* order `α > 1`
/// (fractional included), by numerical integration.
///
/// With `p₀ = N(0, z²)` and the sampled mixture
/// `m = (1−q)·p₀ + q·N(1, z²)`, the Rényi divergence is
///
/// ```text
/// ε_RDP(α) = ln E_{x∼p₀}[ (m(x)/p₀(x))^α ] / (α−1)
///          = ln ∫ φ(u)·((1−q) + q·e^{(2zu−1)/(2z²)})^α du / (α−1)
/// ```
///
/// evaluated stably in log space on a grid wide enough to cover the
/// integrand's shifted mode at `u ≈ α/z`. Agrees with the exact binomial
/// formula at integer orders to ~1e-10 and lets the accountant use its full
/// order grid under subsampling.
///
/// # Panics
/// Panics for `α ≤ 1`, `q` outside `[0, 1]` or a non-positive `z`.
pub fn subsampled_gaussian_rdp_numeric(alpha: f64, q: f64, noise_multiplier: f64) -> f64 {
    assert!(
        alpha > 1.0,
        "subsampled RDP: order must exceed 1, got {alpha}"
    );
    assert!(
        (0.0..=1.0).contains(&q),
        "subsampled RDP: q must be in [0, 1]"
    );
    assert!(
        noise_multiplier.is_finite() && noise_multiplier > 0.0,
        "subsampled RDP: noise multiplier must be positive"
    );
    if q == 0.0 {
        return 0.0;
    }
    if q == 1.0 {
        return gaussian_rdp(alpha, noise_multiplier);
    }
    let z = noise_multiplier;
    let log_q = q.ln();
    let log_1q = (-q).ln_1p();
    // Integration bounds: the Gaussian factor dies ~12σ out; the likelihood
    // ratio shifts the effective mode to u ≈ α/z.
    let hi = alpha / z + 14.0;
    let lo = -14.0_f64;
    let n = 16_384usize;
    let h = (hi - lo) / n as f64;
    let half_log_2pi = 0.5 * (2.0 * std::f64::consts::PI).ln();
    let mut log_terms = Vec::with_capacity(n + 1);
    for i in 0..=n {
        let u = lo + i as f64 * h;
        // t = ln(p₁/p₀) at x = z·u.
        let t = (2.0 * z * u - 1.0) / (2.0 * z * z);
        // ln((1−q) + q·e^t), stable for any sign/size of t.
        let a = log_1q;
        let b = log_q + t;
        let log_mix = if a > b {
            a + (b - a).exp().ln_1p()
        } else {
            b + (a - b).exp().ln_1p()
        };
        let mut log_f = -0.5 * u * u - half_log_2pi + alpha * log_mix;
        // Trapezoid endpoint halving, in log space.
        if i == 0 || i == n {
            log_f -= std::f64::consts::LN_2;
        }
        log_terms.push(log_f);
    }
    let log_integral = dpaudit_math::log_sum_exp(&log_terms) + h.ln();
    (log_integral / (alpha - 1.0)).max(0.0)
}

/// RDP of the Laplace mechanism at order `α > 1` and noise scale `b = 1/ε`
/// relative to unit sensitivity (Mironov, CSF 2017, Table II):
///
/// ```text
/// ε_RDP(α) = 1/(α−1) · ln( α/(2α−1)·e^{(α−1)/b} + (α−1)/(2α−1)·e^{−α/b} )
/// ```
///
/// Lets the accountant compose pure-ε Laplace releases (the database-query
/// setting) tightly instead of adding ε's.
///
/// # Panics
/// Panics for `α ≤ 1` or a non-positive scale.
pub fn laplace_rdp(alpha: f64, scale_over_sensitivity: f64) -> f64 {
    assert!(alpha > 1.0, "laplace_rdp: order must exceed 1, got {alpha}");
    assert!(
        scale_over_sensitivity.is_finite() && scale_over_sensitivity > 0.0,
        "laplace_rdp: scale must be positive"
    );
    let b = scale_over_sensitivity;
    // Log-space evaluation of the two-term sum.
    let t1 = (alpha / (2.0 * alpha - 1.0)).ln() + (alpha - 1.0) / b;
    let t2 = ((alpha - 1.0) / (2.0 * alpha - 1.0)).ln() - alpha / b;
    dpaudit_math::log_sum_exp(&[t1, t2]) / (alpha - 1.0)
}

/// Closed-form optimal-order (ε, δ) for `k` full-batch Gaussian releases at
/// noise multiplier `z`.
///
/// Minimising `ε(α) = kα/(2z²) + ln(1/δ)/(α−1)` over α gives
/// `α* = 1 + z·√(2·ln(1/δ)/k)` and
///
/// ```text
/// ε* = k/(2z²) + √(2k·ln(1/δ))/z.
/// ```
///
/// # Panics
/// Panics for invalid `z`, `k = 0` or δ outside `(0, 1)`.
pub fn gaussian_rdp_epsilon_closed_form(noise_multiplier: f64, k: usize, delta: f64) -> f64 {
    assert!(k > 0, "closed form: k must be positive");
    assert!(
        noise_multiplier.is_finite() && noise_multiplier > 0.0,
        "closed form: noise multiplier must be positive"
    );
    assert!(
        (0.0..1.0).contains(&delta) && delta > 0.0,
        "closed form: delta in (0,1)"
    );
    let z = noise_multiplier;
    let kf = k as f64;
    let l = (1.0 / delta).ln();
    kf / (2.0 * z * z) + (2.0 * kf * l).sqrt() / z
}

/// An RDP accountant: tracks accumulated RDP at a grid of orders and
/// converts to (ε, δ)-DP by minimising over the grid.
///
/// `k` identical releases compose in one call:
/// [`add_gaussian_steps`](Self::add_gaussian_steps) multiplies the
/// closed-form increment, while
/// [`add_subsampled_gaussian_steps`](Self::add_subsampled_gaussian_steps)
/// computes the subsampled increment (numerical integrals included) once
/// and adds it step by step, so its bits equal `k` one-step calls. No
/// increment outlives its call: the accountant holds, and serialises, only
/// its orders, its accumulated RDP and its step count.
///
/// ```
/// use dpaudit_dp::RdpAccountant;
/// let mut acc = RdpAccountant::new();
/// acc.add_gaussian_steps(9.95, 30);              // 30 DPSGD steps at z ≈ 9.95
/// let (eps, _order) = acc.epsilon(1e-3);
/// assert!((eps - 2.2).abs() < 0.05);             // the paper's rho_beta = 0.9 budget
/// ```
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct RdpAccountant {
    orders: Vec<f64>,
    rdp: Vec<f64>,
    steps: usize,
}

impl Default for RdpAccountant {
    fn default() -> Self {
        Self::new()
    }
}

impl RdpAccountant {
    /// Accountant over [`DEFAULT_ORDERS`].
    pub fn new() -> Self {
        Self::with_orders(DEFAULT_ORDERS)
    }

    /// Accountant over a custom order grid (all orders must exceed 1).
    ///
    /// # Panics
    /// Panics on an empty grid or an order ≤ 1.
    pub fn with_orders(orders: &[f64]) -> Self {
        assert!(!orders.is_empty(), "RdpAccountant: empty order grid");
        assert!(
            orders.iter().all(|&a| a > 1.0),
            "RdpAccountant: all orders must exceed 1"
        );
        Self {
            orders: orders.to_vec(),
            rdp: vec![0.0; orders.len()],
            steps: 0,
        }
    }

    /// The order grid.
    pub fn orders(&self) -> &[f64] {
        &self.orders
    }

    /// Accumulated RDP per order.
    pub fn rdp(&self) -> &[f64] {
        &self.rdp
    }

    /// Number of composed steps so far.
    pub fn steps(&self) -> usize {
        self.steps
    }

    /// Compose one Laplace release at noise scale `b` (relative to unit ℓ1
    /// sensitivity) — tighter than adding the pure ε = 1/b per step.
    pub fn add_laplace_step(&mut self, scale_over_sensitivity: f64) {
        for (r, &a) in self.rdp.iter_mut().zip(&self.orders) {
            *r += laplace_rdp(a, scale_over_sensitivity);
        }
        self.steps += 1;
    }

    /// Compose one full-batch Gaussian release at noise multiplier `z`.
    pub fn add_gaussian_step(&mut self, noise_multiplier: f64) {
        for (r, &a) in self.rdp.iter_mut().zip(&self.orders) {
            *r += gaussian_rdp(a, noise_multiplier);
        }
        self.steps += 1;
    }

    /// Compose `k` identical full-batch Gaussian releases.
    pub fn add_gaussian_steps(&mut self, noise_multiplier: f64, k: usize) {
        for (r, &a) in self.rdp.iter_mut().zip(&self.orders) {
            *r += k as f64 * gaussian_rdp(a, noise_multiplier);
        }
        self.steps += k;
    }

    /// Compose one Poisson-subsampled Gaussian release at sampling rate `q`:
    /// [`Self::add_subsampled_gaussian_steps`] with `k = 1`.
    pub fn add_subsampled_gaussian_step(&mut self, q: f64, noise_multiplier: f64) {
        self.add_subsampled_gaussian_steps(q, noise_multiplier, 1);
    }

    /// Compose `k` identical Poisson-subsampled Gaussian releases at
    /// sampling rate `q`.
    ///
    /// The per-order increment is computed once per call. Integer orders
    /// use the exact binomial expansion; fractional orders use the
    /// numerically integrated divergence
    /// ([`subsampled_gaussian_rdp_numeric`]), so the whole grid stays live;
    /// `q ≥ 1` is the full-batch [`gaussian_rdp`]. The increment is then
    /// added `k` times, one step at a time, so every accumulated bit equals
    /// `k` calls of [`Self::add_subsampled_gaussian_step`] (unlike
    /// [`Self::add_gaussian_steps`], which multiplies).
    pub fn add_subsampled_gaussian_steps(&mut self, q: f64, noise_multiplier: f64, k: usize) {
        let increment = self.subsampled_gaussian_increment(q, noise_multiplier);
        for _ in 0..k {
            self.add_step_increment(&increment);
        }
    }

    /// One Poisson-subsampled Gaussian release's RDP at every order.
    pub(crate) fn subsampled_gaussian_increment(&self, q: f64, noise_multiplier: f64) -> Vec<f64> {
        self.orders
            .iter()
            .map(|&a| {
                if q >= 1.0 {
                    gaussian_rdp(a, noise_multiplier)
                } else if a.fract() == 0.0 && a >= 2.0 {
                    subsampled_gaussian_rdp_int(a as u64, q, noise_multiplier)
                } else {
                    subsampled_gaussian_rdp_numeric(a, q, noise_multiplier)
                }
            })
            .collect()
    }

    /// Compose one release whose RDP at every order is `increment`.
    pub(crate) fn add_step_increment(&mut self, increment: &[f64]) {
        for (r, &d) in self.rdp.iter_mut().zip(increment) {
            *r += d;
        }
        self.steps += 1;
    }

    /// Convert the accumulated RDP to an (ε, δ) guarantee, returning
    /// `(ε, best_order)`.
    ///
    /// # Panics
    /// Panics for δ outside `(0, 1)`.
    pub fn epsilon(&self, delta: f64) -> (f64, f64) {
        assert!(
            delta > 0.0 && delta < 1.0,
            "epsilon: delta must be in (0,1)"
        );
        let log_inv_delta = (1.0 / delta).ln();
        let mut best = (f64::INFINITY, self.orders[0]);
        for (&a, &r) in self.orders.iter().zip(&self.rdp) {
            if !r.is_finite() {
                continue;
            }
            let eps = r + log_inv_delta / (a - 1.0);
            if eps < best.0 {
                best = (eps, a);
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gaussian_rdp_formula() {
        assert!((gaussian_rdp(2.0, 1.0) - 1.0).abs() < 1e-12);
        assert!((gaussian_rdp(10.0, 2.0) - 10.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn rdp_composition_is_additive() {
        let mut a = RdpAccountant::new();
        a.add_gaussian_step(2.0);
        a.add_gaussian_step(2.0);
        let mut b = RdpAccountant::new();
        b.add_gaussian_steps(2.0, 2);
        assert_eq!(a.rdp(), b.rdp());
        assert_eq!(a.steps(), 2);
        let (ea, _) = a.epsilon(1e-5);
        let (eb, _) = b.epsilon(1e-5);
        assert!((ea - eb).abs() < 1e-12);
    }

    #[test]
    fn grid_conversion_close_to_closed_form() {
        // A dense grid around the optimal order should approach the closed
        // form; the default grid should be within a few percent.
        for &(z, k, delta) in &[(1.0, 1usize, 1e-5), (5.0, 30, 1e-3), (10.0, 30, 1e-2)] {
            let closed = gaussian_rdp_epsilon_closed_form(z, k, delta);
            let mut acc = RdpAccountant::new();
            acc.add_gaussian_steps(z, k);
            let (grid, _) = acc.epsilon(delta);
            assert!(grid >= closed - 1e-9, "grid {grid} < closed {closed}");
            assert!(
                grid <= closed * 1.05,
                "grid {grid} too far above closed {closed} (z={z}, k={k})"
            );
        }
    }

    #[test]
    fn dense_grid_converges_to_closed_form() {
        let (z, k, delta) = (3.0, 30usize, 1e-3);
        let opt_alpha = 1.0 + z * (2.0 * (1.0f64 / delta).ln() / k as f64).sqrt();
        let orders: Vec<f64> = (1..4000)
            .map(|i| 1.0 + i as f64 * opt_alpha / 1000.0)
            .collect();
        let mut acc = RdpAccountant::with_orders(&orders);
        acc.add_gaussian_steps(z, k);
        let (grid, best) = acc.epsilon(delta);
        let closed = gaussian_rdp_epsilon_closed_form(z, k, delta);
        assert!((grid - closed).abs() / closed < 1e-3, "{grid} vs {closed}");
        assert!((best - opt_alpha).abs() / opt_alpha < 0.01);
    }

    #[test]
    fn epsilon_decreases_with_weaker_delta() {
        let mut acc = RdpAccountant::new();
        acc.add_gaussian_steps(4.0, 10);
        let (e_strict, _) = acc.epsilon(1e-8);
        let (e_loose, _) = acc.epsilon(1e-2);
        assert!(e_strict > e_loose);
    }

    #[test]
    fn more_noise_less_epsilon() {
        let eps_at = |z: f64| {
            let mut acc = RdpAccountant::new();
            acc.add_gaussian_steps(z, 30);
            acc.epsilon(1e-3).0
        };
        assert!(eps_at(2.0) > eps_at(4.0));
        assert!(eps_at(4.0) > eps_at(8.0));
    }

    #[test]
    fn heterogeneous_steps_compose() {
        // Mixed noise multipliers: composing {2, 8} must land strictly
        // between composing {2, 2} and {8, 8}.
        let eps_pair = |z1: f64, z2: f64| {
            let mut acc = RdpAccountant::new();
            acc.add_gaussian_step(z1);
            acc.add_gaussian_step(z2);
            acc.epsilon(1e-5).0
        };
        let lo = eps_pair(8.0, 8.0);
        let hi = eps_pair(2.0, 2.0);
        let mid = eps_pair(2.0, 8.0);
        assert!(lo < mid && mid < hi, "{lo} < {mid} < {hi}");
    }

    #[test]
    fn subsampled_matches_full_batch_at_q1() {
        for &alpha in &[2u64, 3, 8, 32] {
            let s = subsampled_gaussian_rdp_int(alpha, 1.0, 1.5);
            let g = gaussian_rdp(alpha as f64, 1.5);
            assert!((s - g).abs() < 1e-10, "alpha={alpha}: {s} vs {g}");
        }
    }

    #[test]
    fn subsampled_zero_rate_is_free() {
        assert_eq!(subsampled_gaussian_rdp_int(4, 0.0, 1.0), 0.0);
    }

    #[test]
    fn subsampling_amplifies_privacy() {
        // RDP at q = 0.01 must be far below full batch, and monotone in q.
        let z = 1.0;
        let full = gaussian_rdp(8.0, z);
        let q01 = subsampled_gaussian_rdp_int(8, 0.01, z);
        let q10 = subsampled_gaussian_rdp_int(8, 0.1, z);
        assert!(q01 < q10, "{q01} < {q10}");
        assert!(q10 < full, "{q10} < {full}");
        assert!(q01 < full / 10.0, "amplification too weak: {q01} vs {full}");
    }

    #[test]
    fn subsampled_accountant_uses_full_grid() {
        let mut acc = RdpAccountant::new();
        acc.add_subsampled_gaussian_step(0.05, 1.0);
        let (eps, _) = acc.epsilon(1e-5);
        assert!(eps.is_finite());
        // Every order accumulated something finite and non-negative.
        assert!(acc.rdp().iter().all(|r| r.is_finite() && *r >= 0.0));

        let subsampled = |q: f64, z: f64, steps: usize| {
            let mut acc = RdpAccountant::new();
            for _ in 0..steps {
                acc.add_subsampled_gaussian_step(q, z);
            }
            acc.epsilon(1e-5).0
        };
        let full = |z: f64, steps: usize| {
            let mut acc = RdpAccountant::new();
            acc.add_gaussian_steps(z, steps);
            acc.epsilon(1e-5).0
        };
        // q = 1 samples every record: plain Gaussian composition.
        assert!((subsampled(1.0, 2.0, 5) - full(2.0, 5)).abs() < 1e-9);
        assert!(subsampled(0.2, 1.5, 10) < subsampled(0.2, 1.5, 40));
        // Amplification by subsampling: far below the full-batch cost.
        assert!(subsampled(0.2, 1.5, 30) < full(1.5, 30) / 2.0);
    }

    #[test]
    fn k_subsampled_steps_equal_k_per_step_sums_bitwise() {
        // Oracle: every step works out each order's RDP again and adds it,
        // in step order, without the accountant's shared increment code.
        let oracle = |q: f64, z: f64, k: usize| {
            let mut rdp = vec![0.0; DEFAULT_ORDERS.len()];
            for _ in 0..k {
                for (r, &a) in rdp.iter_mut().zip(DEFAULT_ORDERS) {
                    *r += if q >= 1.0 {
                        gaussian_rdp(a, z)
                    } else if a.fract() == 0.0 {
                        subsampled_gaussian_rdp_int(a as u64, q, z)
                    } else {
                        subsampled_gaussian_rdp_numeric(a, q, z)
                    };
                }
            }
            rdp
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        for q in [0.01, 0.2, 1.0] {
            for z in [0.8, 9.95] {
                for k in [1, 30] {
                    let mut acc = RdpAccountant::new();
                    acc.add_subsampled_gaussian_steps(q, z, k);
                    assert_eq!(acc.steps(), k);
                    assert_eq!(bits(acc.rdp()), bits(&oracle(q, z, k)), "q={q} z={z} k={k}");
                }
            }
        }
    }

    #[test]
    fn numeric_matches_binomial_at_integer_orders() {
        for &(alpha, q, z) in &[
            (2u64, 0.01, 1.0),
            (3, 0.1, 1.5),
            (8, 0.05, 0.8),
            (16, 0.2, 2.0),
            (32, 0.01, 1.1),
        ] {
            let exact = subsampled_gaussian_rdp_int(alpha, q, z);
            let numeric = subsampled_gaussian_rdp_numeric(alpha as f64, q, z);
            assert!(
                (exact - numeric).abs() <= 1e-8 * (1.0 + exact),
                "alpha={alpha} q={q} z={z}: exact {exact} vs numeric {numeric}"
            );
        }
    }

    #[test]
    fn numeric_fractional_orders_interpolate_monotonically() {
        // RDP is non-decreasing in the order; fractional values must sit
        // between their integer neighbours.
        let (q, z) = (0.02, 1.2);
        let r2 = subsampled_gaussian_rdp_numeric(2.0, q, z);
        let r25 = subsampled_gaussian_rdp_numeric(2.5, q, z);
        let r3 = subsampled_gaussian_rdp_numeric(3.0, q, z);
        assert!(r2 <= r25 && r25 <= r3, "{r2} {r25} {r3}");
    }

    #[test]
    fn numeric_edges_match_closed_forms() {
        assert_eq!(subsampled_gaussian_rdp_numeric(4.0, 0.0, 1.0), 0.0);
        let full = subsampled_gaussian_rdp_numeric(4.0, 1.0, 1.5);
        assert!((full - gaussian_rdp(4.0, 1.5)).abs() < 1e-12);
    }

    #[test]
    fn small_q_rdp_scales_like_q_squared() {
        let z = 2.0;
        let r1 = subsampled_gaussian_rdp_int(2, 1e-3, z);
        let r2 = subsampled_gaussian_rdp_int(2, 2e-3, z);
        let ratio = r2 / r1;
        assert!((ratio - 4.0).abs() < 0.1, "expected ~4x, got {ratio}");
    }

    #[test]
    fn laplace_rdp_limits() {
        // α → ∞ recovers the pure-DP ε = 1/b; large α approximates it.
        let b = 2.0;
        let near_inf = laplace_rdp(1e6, b);
        assert!(
            (near_inf - 1.0 / b).abs() < 1e-3,
            "{near_inf} vs {}",
            1.0 / b
        );
        // RDP is non-decreasing in α and bounded by ε = 1/b.
        let r2 = laplace_rdp(2.0, b);
        let r8 = laplace_rdp(8.0, b);
        let r64 = laplace_rdp(64.0, b);
        assert!(r2 <= r8 && r8 <= r64, "{r2} {r8} {r64}");
        assert!(r64 <= 1.0 / b + 1e-12);
        assert!(r2 > 0.0);
    }

    #[test]
    fn laplace_rdp_composition_beats_naive_for_many_steps() {
        // 100 Laplace releases at ε = 0.05 each: naive total 5.0; RDP
        // composition with a δ slack must certify strictly less.
        let b = 1.0 / 0.05;
        let mut acc = RdpAccountant::new();
        for _ in 0..100 {
            acc.add_laplace_step(b);
        }
        let (eps, _) = acc.epsilon(1e-6);
        assert!(eps < 5.0, "RDP-composed Laplace {eps} not below naive 5.0");
        assert!(eps > 0.1);
    }

    #[test]
    fn laplace_rdp_more_noise_less_budget() {
        assert!(laplace_rdp(8.0, 4.0) < laplace_rdp(8.0, 1.0));
    }

    #[test]
    #[should_panic(expected = "order must exceed 1")]
    fn order_one_rejected() {
        gaussian_rdp(1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "empty order grid")]
    fn empty_grid_rejected() {
        RdpAccountant::with_orders(&[]);
    }
}
