//! Seeded randomness for workloads.
//!
//! Every stochastic component in the workspace (cross-traffic generators,
//! server jitter, scene synthesis) draws from a [`SimRng`] created from an
//! explicit seed, so simulations are exactly reproducible. `SimRng` also
//! provides `fork` for deriving independent per-component streams from a
//! single experiment seed without the components' draw counts interfering
//! with one another.

use rand::rngs::SmallRng;
use rand::{Rng, RngCore, SeedableRng};

/// A deterministic random number generator with distribution helpers.
#[derive(Debug, Clone)]
pub struct SimRng {
    inner: SmallRng,
}

impl SimRng {
    /// Create from a 64-bit seed.
    pub fn seed_from_u64(seed: u64) -> Self {
        SimRng {
            inner: SmallRng::seed_from_u64(seed),
        }
    }

    /// Derive an independent child generator. The child's stream is a pure
    /// function of `(parent seed and position, label)`, so adding draws to
    /// one component never perturbs another that forked with a different
    /// label.
    pub fn fork(&mut self, label: u64) -> SimRng {
        let a = self.inner.next_u64();
        // SplitMix-style mixing of the label into the derived seed.
        let mut z = a ^ label.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^= z >> 31;
        SimRng::seed_from_u64(z)
    }

    /// Uniform in `[0, 1)`.
    pub fn uniform(&mut self) -> f64 {
        self.inner.gen::<f64>()
    }

    /// Uniform in `[lo, hi)`. Panics if `lo >= hi`.
    pub fn uniform_range(&mut self, lo: f64, hi: f64) -> f64 {
        assert!(lo < hi, "empty range [{lo}, {hi})");
        lo + (hi - lo) * self.uniform()
    }

    /// Uniform integer in `[lo, hi]` inclusive.
    pub fn uniform_u64(&mut self, lo: u64, hi: u64) -> u64 {
        self.inner.gen_range(lo..=hi)
    }

    /// Bernoulli draw with probability `p` (clamped to `[0, 1]`).
    pub fn chance(&mut self, p: f64) -> bool {
        if p <= 0.0 {
            false
        } else if p >= 1.0 {
            true
        } else {
            self.uniform() < p
        }
    }

    /// Exponential variate with the given mean (on-off periods, scene
    /// lengths). Panics on non-positive mean.
    pub fn exponential(&mut self, mean: f64) -> f64 {
        assert!(mean > 0.0, "exponential mean must be positive");
        // Inverse-CDF with u in (0, 1].
        let u = 1.0 - self.uniform();
        -mean * u.ln()
    }

    /// Bounded Pareto variate (heavy-tailed burst sizes for cross traffic).
    /// `shape` must be positive; `lo < hi`.
    pub fn bounded_pareto(&mut self, shape: f64, lo: f64, hi: f64) -> f64 {
        assert!(shape > 0.0 && lo > 0.0 && lo < hi);
        let u = self.uniform();
        let la = lo.powf(shape);
        let ha = hi.powf(shape);
        (-(u * ha - u * la - ha) / (ha * la)).powf(-1.0 / shape)
    }

    /// Standard normal variate (Box–Muller; one draw per call, the pair's
    /// second value is discarded for simplicity).
    pub fn normal(&mut self, mean: f64, std_dev: f64) -> f64 {
        assert!(std_dev >= 0.0);
        let u1 = (1.0 - self.uniform()).max(f64::MIN_POSITIVE);
        let u2 = self.uniform();
        let z = (-2.0 * u1.ln()).sqrt() * (std::f64::consts::TAU * u2).cos();
        mean + std_dev * z
    }

    /// Raw 64-bit draw.
    pub fn next_u64(&mut self) -> u64 {
        self.inner.next_u64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_for_same_seed() {
        let mut a = SimRng::seed_from_u64(42);
        let mut b = SimRng::seed_from_u64(42);
        for _ in 0..100 {
            assert_eq!(a.next_u64(), b.next_u64());
        }
    }

    #[test]
    fn forks_are_label_dependent_and_deterministic() {
        let mut parent1 = SimRng::seed_from_u64(7);
        let mut parent2 = SimRng::seed_from_u64(7);
        let mut c1 = parent1.fork(1);
        let mut c2 = parent2.fork(1);
        assert_eq!(c1.next_u64(), c2.next_u64());

        let mut parent3 = SimRng::seed_from_u64(7);
        let mut c3 = parent3.fork(2);
        let mut parent4 = SimRng::seed_from_u64(7);
        let mut c4 = parent4.fork(1);
        assert_ne!(c3.next_u64(), c4.next_u64());
    }

    #[test]
    fn exponential_mean_is_close() {
        let mut rng = SimRng::seed_from_u64(1);
        let n = 20_000;
        let mean = 3.0;
        let sum: f64 = (0..n).map(|_| rng.exponential(mean)).sum();
        let est = sum / n as f64;
        assert!((est - mean).abs() < 0.1, "estimated mean {est}");
    }

    #[test]
    fn uniform_range_bounds() {
        let mut rng = SimRng::seed_from_u64(2);
        for _ in 0..1000 {
            let x = rng.uniform_range(2.0, 5.0);
            assert!((2.0..5.0).contains(&x));
        }
    }

    #[test]
    fn chance_extremes() {
        let mut rng = SimRng::seed_from_u64(3);
        assert!(!rng.chance(0.0));
        assert!(rng.chance(1.0));
        assert!(!rng.chance(-1.0));
        assert!(rng.chance(2.0));
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let mut rng = SimRng::seed_from_u64(4);
        for _ in 0..1000 {
            let x = rng.bounded_pareto(1.2, 100.0, 10_000.0);
            assert!((100.0..=10_000.0 + 1e-6).contains(&x), "out of bounds: {x}");
        }
    }

    #[test]
    fn normal_moments_are_close() {
        let mut rng = SimRng::seed_from_u64(5);
        let n = 20_000;
        let samples: Vec<f64> = (0..n).map(|_| rng.normal(10.0, 2.0)).collect();
        let mean = samples.iter().sum::<f64>() / n as f64;
        let var = samples.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / n as f64;
        assert!((mean - 10.0).abs() < 0.1, "mean {mean}");
        assert!((var.sqrt() - 2.0).abs() < 0.1, "std {}", var.sqrt());
    }
}
