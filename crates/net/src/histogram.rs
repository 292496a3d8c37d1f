//! Log-scale duration histogram for delay/jitter analysis.
//!
//! The paper's delay discussion (and its conclusion-section concern about
//! EF burst accumulation across hops) needs more than mean/min/max: the
//! spread of the delay distribution is the jitter a playback buffer must
//! absorb. [`DurationHistogram`] keeps 64 logarithmic buckets from 1 µs to
//! ~2.6 hours with O(1) recording and no allocation, and answers quantile
//! queries with bucket resolution (≤ ~19 % relative error — ample for
//! jitter comparisons across configurations).

use dsv_sim::SimDuration;

/// Number of buckets (eighth-decade spacing covers 1 µs → ~28 minutes).
const BUCKETS: usize = 128;

/// A fixed-size logarithmic histogram of durations.
#[derive(Debug, Clone)]
pub struct DurationHistogram {
    counts: [u64; BUCKETS],
    total: u64,
}

impl Default for DurationHistogram {
    fn default() -> Self {
        DurationHistogram {
            counts: [0; BUCKETS],
            total: 0,
        }
    }
}

/// Bucket boundaries: bucket k covers [1 µs · G^k, 1 µs · G^(k+1)) with
/// G = 10^(1/8) ≈ 1.334 (eighth-decade).
fn bucket_floor_ns(k: usize) -> f64 {
    1_000.0 * 10f64.powf(k as f64 / 8.0)
}

/// `bucket_of` as originally defined by the float formula; kept as the
/// source of truth the integer thresholds are derived from (and checked
/// against in tests).
fn bucket_of_float(ns_total: u64) -> usize {
    let ns = ns_total as f64;
    if ns < 1_000.0 {
        return 0;
    }
    let k = ((ns / 1_000.0).log10() * 8.0).floor() as usize;
    k.min(BUCKETS - 1)
}

/// Smallest nanosecond value belonging to each bucket, derived once from
/// the float formula so the integer classifier reproduces it bit-exactly
/// (including any floating-point quirks at the decade boundaries).
fn bucket_thresholds() -> &'static [u64; BUCKETS] {
    use std::sync::OnceLock;
    static THRESHOLDS: OnceLock<[u64; BUCKETS]> = OnceLock::new();
    THRESHOLDS.get_or_init(|| {
        let mut t = [0u64; BUCKETS];
        for (k, slot) in t.iter_mut().enumerate().skip(1) {
            // Start from the analytic boundary and walk to the exact
            // integer where the float formula first reports bucket k.
            let mut ns = (1_000.0 * 10f64.powf(k as f64 / 8.0)) as u64;
            while bucket_of_float(ns) >= k {
                ns -= 1;
            }
            while bucket_of_float(ns) < k {
                ns += 1;
            }
            *slot = ns;
        }
        t
    })
}

fn bucket_of(d: SimDuration) -> usize {
    let ns = d.as_nanos();
    let t = bucket_thresholds();
    // partition_point returns how many thresholds are <= ns; thresholds
    // for buckets 1.. are strictly increasing, so that count is the
    // bucket index (values below 1 µs fall into bucket 0).
    t[1..].partition_point(|&b| b <= ns)
}

impl DurationHistogram {
    /// Create empty.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record one duration.
    pub fn record(&mut self, d: SimDuration) {
        self.counts[bucket_of(d)] += 1;
        self.total += 1;
    }

    /// Number of samples.
    pub fn count(&self) -> u64 {
        self.total
    }

    /// Approximate quantile `q` in [0, 1]; `None` if empty. Returns the
    /// geometric midpoint of the bucket containing the quantile.
    pub fn quantile(&self, q: f64) -> Option<SimDuration> {
        if self.total == 0 {
            return None;
        }
        let q = q.clamp(0.0, 1.0);
        let target = (q * self.total as f64).ceil().max(1.0) as u64;
        let mut cum = 0u64;
        for (k, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= target {
                let mid = bucket_floor_ns(k) * 10f64.powf(1.0 / 16.0);
                return Some(SimDuration::from_nanos(mid as u64));
            }
        }
        unreachable!("cumulative count must reach total");
    }

    /// p99 − p50 spread: a robust jitter measure.
    pub fn jitter(&self) -> Option<SimDuration> {
        let p99 = self.quantile(0.99)?;
        let p50 = self.quantile(0.50)?;
        Some(p99.saturating_sub_or_zero(p50))
    }
}

/// Saturating subtraction helper on durations.
trait SatSub {
    fn saturating_sub_or_zero(self, other: SimDuration) -> SimDuration;
}

impl SatSub for SimDuration {
    fn saturating_sub_or_zero(self, other: SimDuration) -> SimDuration {
        if self > other {
            self - other
        } else {
            SimDuration::ZERO
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_has_no_quantiles() {
        let h = DurationHistogram::new();
        assert_eq!(h.quantile(0.5), None);
        assert_eq!(h.jitter(), None);
        assert_eq!(h.count(), 0);
    }

    #[test]
    fn single_sample_every_quantile_in_its_bucket() {
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_millis(10));
        for q in [0.0, 0.5, 0.99, 1.0] {
            let v = h.quantile(q).unwrap().as_secs_f64();
            assert!(
                (0.008..0.020).contains(&v),
                "q={q}: {v}s should be within the 10 ms bucket"
            );
        }
    }

    #[test]
    fn quantiles_are_ordered_and_roughly_correct() {
        let mut h = DurationHistogram::new();
        // 90 fast samples at ~1 ms, 10 slow at ~1 s.
        for _ in 0..90 {
            h.record(SimDuration::from_millis(1));
        }
        for _ in 0..10 {
            h.record(SimDuration::from_secs(1));
        }
        let p50 = h.quantile(0.5).unwrap();
        let p95 = h.quantile(0.95).unwrap();
        let p99 = h.quantile(0.99).unwrap();
        assert!(p50 <= p95);
        assert!(p95 <= p99);
        assert!(p50.as_secs_f64() < 0.01, "p50 {p50}");
        assert!(p99.as_secs_f64() > 0.5, "p99 {p99}");
        let jitter = h.jitter().unwrap();
        assert!(jitter.as_secs_f64() > 0.5);
    }

    #[test]
    fn bucket_resolution_error_is_bounded() {
        // Any value maps to a bucket whose midpoint is within a factor of
        // G^(1/2) ≈ 1.155.
        for &ms in &[1u64, 3, 10, 33, 100, 333, 1000] {
            let mut h = DurationHistogram::new();
            let d = SimDuration::from_millis(ms);
            h.record(d);
            let est = h.quantile(0.5).unwrap().as_secs_f64();
            let truth = d.as_secs_f64();
            let ratio = (est / truth).max(truth / est);
            assert!(ratio < 1.19, "{ms} ms: ratio {ratio}");
        }
    }

    #[test]
    fn integer_thresholds_match_float_formula_exactly() {
        // Around every bucket boundary the table classifier must agree
        // with the original float formula bit-for-bit.
        for &t in bucket_thresholds().iter().skip(1) {
            for ns in t.saturating_sub(3)..=t + 3 {
                assert_eq!(
                    bucket_of(SimDuration::from_nanos(ns)),
                    bucket_of_float(ns),
                    "divergence at {ns} ns"
                );
            }
        }
        // And across a deterministic pseudo-random sweep of magnitudes.
        let mut x = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let ns = x % 8_000_000_000_000_000_000;
            assert_eq!(
                bucket_of(SimDuration::from_nanos(ns)),
                bucket_of_float(ns),
                "divergence at {ns} ns"
            );
        }
    }

    #[test]
    fn sub_microsecond_and_huge_values_clamp() {
        let mut h = DurationHistogram::new();
        h.record(SimDuration::from_nanos(5));
        h.record(SimDuration::from_secs(100_000));
        assert_eq!(h.count(), 2);
        assert!(h.quantile(0.0).is_some());
        assert!(h.quantile(1.0).is_some());
    }
}
