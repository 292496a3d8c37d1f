//! Parameter sweeps — the experiment grids behind the paper's figures.
//!
//! Every QBone figure (7–12) is a sweep of token rate for two bucket
//! depths at a fixed clip/encoding; the local-testbed figures sweep the
//! same parameters for the WMT server configurations. [`sweep_jobs`]
//! builds such a grid's jobs in depth-major order, any
//! [`crate::runner::Runner`] (or [`crate::golden::golden`]) runs them, and
//! [`SweepResult::new`] pairs the outcomes back with their
//! `(rate, depth)` points.

use serde::{Deserialize, Serialize};

use crate::experiment::{EfProfile, RunOutcome};

/// One grid point.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepPoint {
    /// Token rate, bps.
    pub token_rate_bps: u64,
    /// Bucket depth, bytes.
    pub bucket_depth_bytes: u32,
    /// What happened.
    pub outcome: RunOutcome,
}

/// A full sweep with its provenance label.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SweepResult {
    /// Human-readable description ("QBone / Lost / 1.7 Mbps").
    pub label: String,
    /// All points, in (depth, rate) iteration order.
    pub points: Vec<SweepPoint>,
}

impl SweepResult {
    /// The sweep of the `rates × depths` grid, given one outcome per
    /// point in [`sweep_jobs`]' (depth-major) order.
    ///
    /// # Panics
    /// Panics unless there is exactly one outcome per grid point.
    pub fn new(
        label: impl Into<String>,
        rates: &[u64],
        depths: &[u32],
        outcomes: Vec<RunOutcome>,
    ) -> SweepResult {
        assert_eq!(
            outcomes.len(),
            rates.len() * depths.len(),
            "one outcome per grid point"
        );
        let points = grid(rates, depths)
            .zip(outcomes)
            .map(
                |((token_rate_bps, bucket_depth_bytes), outcome)| SweepPoint {
                    token_rate_bps,
                    bucket_depth_bytes,
                    outcome,
                },
            )
            .collect();
        SweepResult {
            label: label.into(),
            points,
        }
    }

    /// The curve for one bucket depth, ordered by token rate:
    /// `(rate, quality, frame_loss)`.
    pub fn curve(&self, depth: u32) -> Vec<(u64, f64, f64)> {
        let mut pts: Vec<(u64, f64, f64)> = self
            .points
            .iter()
            .filter(|p| p.bucket_depth_bytes == depth)
            .map(|p| (p.token_rate_bps, p.outcome.quality, p.outcome.frame_loss))
            .collect();
        pts.sort_by_key(|p| p.0);
        pts
    }

    /// Depths present in the sweep.
    pub fn depths(&self) -> Vec<u32> {
        let mut d: Vec<u32> = self.points.iter().map(|p| p.bucket_depth_bytes).collect();
        d.sort_unstable();
        d.dedup();
        d
    }
}

/// A standard token-rate grid for an encoding: from 0.85× the nominal rate
/// up to 1.45×, concentrated where the paper sampled (around and above
/// the average rate). Grid values round to the nearest bps, so the
/// endpoints are exactly `0.85×` and `1.45×` the nominal rate (truncation
/// used to shave up to 1 bps off every point, including both endpoints).
pub fn default_rate_grid(nominal_bps: u64, steps: usize) -> Vec<u64> {
    assert!(steps >= 2);
    let lo = 0.85 * nominal_bps as f64;
    let hi = 1.45 * nominal_bps as f64;
    (0..steps)
        .map(|i| (lo + (hi - lo) * i as f64 / (steps - 1) as f64).round() as u64)
        .collect()
}

/// Token-rate grid of the QBone figures: 0.88×…1.45× the encoding rate,
/// 12 points.
pub fn qbone_grid(encoding_bps: u64) -> Vec<u64> {
    (0..12)
        .map(|i| (encoding_bps as f64 * (0.88 + 0.052 * i as f64)) as u64)
        .collect()
}

/// The jobs of a `rates × depths` grid, depth-major (every rate at the
/// first depth, then at the next): `make` turns each point's EF profile
/// into its job.
pub fn sweep_jobs<J>(
    rates: &[u64],
    depths: &[u32],
    mut make: impl FnMut(EfProfile) -> J,
) -> Vec<J> {
    grid(rates, depths)
        .map(|(rate, depth)| make(EfProfile::new(rate, depth)))
        .collect()
}

/// The `(rate, depth)` points of a grid, depth-major.
fn grid<'a>(rates: &'a [u64], depths: &'a [u32]) -> impl Iterator<Item = (u64, u32)> + 'a {
    depths
        .iter()
        .flat_map(move |&depth| rates.iter().map(move |&rate| (rate, depth)))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{DEPTH_2MTU, DEPTH_3MTU};
    use crate::qbone::{ClipId2, QboneConfig};
    use crate::runner::{Job, Runner};

    #[test]
    fn grid_spans_the_paper_range() {
        let g = default_rate_grid(1_700_000, 9);
        assert_eq!(g.len(), 9);
        assert!(g[0] < 1_700_000, "starts below the encoding rate");
        assert!(*g.last().unwrap() > 2_047_496, "ends above the max rate");
        assert!(g.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn grid_endpoints_are_exact() {
        // 0.85 × 1.7M and 1.45 × 1.7M are whole bps values; rounding (not
        // truncation) must reproduce them exactly at both ends.
        let g = default_rate_grid(1_700_000, 9);
        assert_eq!(g[0], 1_445_000);
        assert_eq!(*g.last().unwrap(), 2_465_000);
        // A nominal rate that makes the endpoints non-integral rounds to
        // the nearest bps instead of truncating toward zero.
        let g = default_rate_grid(999_999, 2);
        assert_eq!(g[0], (0.85f64 * 999_999.0).round() as u64);
        assert_eq!(g[1], (1.45f64 * 999_999.0).round() as u64);
    }

    #[test]
    fn sweep_collects_all_points_and_curves() {
        // Tiny 2×2 grid to keep the test fast.
        let rates = [900_000u64, 1_400_000];
        let depths = [DEPTH_2MTU, DEPTH_3MTU];
        let jobs = sweep_jobs(&rates, &depths, |profile| {
            Job::Qbone(QboneConfig::new(ClipId2::Lost, 1_000_000, profile))
        });
        let res = SweepResult::new("test", &rates, &depths, Runner::from_env().run(&jobs));
        assert_eq!(res.points.len(), 4);
        assert_eq!(res.depths(), vec![DEPTH_2MTU, DEPTH_3MTU]);
        let c = res.curve(DEPTH_2MTU);
        assert_eq!(c.len(), 2);
        assert!(c[0].0 < c[1].0);
        // Starved should be worse than generous.
        assert!(c[0].1 > c[1].1, "curve {:?}", c);
    }
}
