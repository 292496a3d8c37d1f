//! Lightweight stage timing for the experiment pipeline.
//!
//! Every run is three stages — **encode** (artifact acquisition: scene
//! model, encoder, reference features), **simulate** (the discrete-event
//! loop) and **score** (feature extraction + VQM) — and perf work on any
//! of them starts with knowing where the wall time goes. This module
//! accumulates per-stage wall time and event counts in process-global
//! atomics (a handful of atomic adds per *point*, nothing per event, so
//! it is always on), and the [`Runner`](crate::runner::Runner) prints a
//! report after each batch when `DSV_PROFILE=1` is set.
//!
//! Totals only grow; callers bracket a region with [`snapshot`] and
//! [`ProfileSnapshot::since`], as the benchmark does for its event counts.

use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

use serde::{Deserialize, Serialize};

static ENCODE_NS: AtomicU64 = AtomicU64::new(0);
static SIMULATE_NS: AtomicU64 = AtomicU64::new(0);
static SCORE_NS: AtomicU64 = AtomicU64::new(0);
static EVENTS: AtomicU64 = AtomicU64::new(0);
static POINTS: AtomicU64 = AtomicU64::new(0);
static QUEUE_HIGH_WATER: AtomicU64 = AtomicU64::new(0);
static POOL_HIGH_WATER: AtomicU64 = AtomicU64::new(0);

/// Record time spent acquiring encode-stage artifacts (model/encoder/
/// reference features) for one run.
pub fn add_encode(d: Duration) {
    ENCODE_NS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

/// Record the event-loop wall time and dispatched-event count of one run.
pub fn add_simulate(d: Duration, events: u64) {
    SIMULATE_NS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
    EVENTS.fetch_add(events, Ordering::Relaxed);
    POINTS.fetch_add(1, Ordering::Relaxed);
}

/// Record time spent scoring (received features + VQM) for one run.
pub fn add_score(d: Duration) {
    SCORE_NS.fetch_add(d.as_nanos() as u64, Ordering::Relaxed);
}

/// Record one run's peak queue population and peak in-flight packet count.
/// The process-wide value is the max over all runs — the number that sizes
/// `EventQueue::with_capacity` / `PacketPool::with_capacity`.
pub fn record_high_water(queue: usize, pool: usize) {
    QUEUE_HIGH_WATER.fetch_max(queue as u64, Ordering::Relaxed);
    POOL_HIGH_WATER.fetch_max(pool as u64, Ordering::Relaxed);
}

/// Whether the `DSV_PROFILE` flag asked for stderr stage reports.
pub fn enabled() -> bool {
    dsv_sim::env::flag_from_env("DSV_PROFILE").unwrap_or(false)
}

/// A point-in-time copy of the accumulated stage totals.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ProfileSnapshot {
    /// Wall time acquiring encode artifacts, nanoseconds.
    pub encode_ns: u64,
    /// Wall time inside the event loop, nanoseconds.
    pub simulate_ns: u64,
    /// Wall time scoring, nanoseconds.
    pub score_ns: u64,
    /// Events dispatched by the simulations.
    pub events: u64,
    /// Simulated points (one per run).
    pub points: u64,
    /// Peak event-queue population across all runs (sizes
    /// `EventQueue::with_capacity`).
    pub queue_high_water: u64,
    /// Peak in-flight packet count across all runs (sizes
    /// `PacketPool::with_capacity`).
    pub pool_high_water: u64,
}

impl ProfileSnapshot {
    /// Stage totals since `other` (for bracketing a batch).
    pub fn since(&self, other: &ProfileSnapshot) -> ProfileSnapshot {
        ProfileSnapshot {
            encode_ns: self.encode_ns.saturating_sub(other.encode_ns),
            simulate_ns: self.simulate_ns.saturating_sub(other.simulate_ns),
            score_ns: self.score_ns.saturating_sub(other.score_ns),
            events: self.events.saturating_sub(other.events),
            points: self.points.saturating_sub(other.points),
            // High-water marks are maxima, not sums: the delta of a batch
            // is simply the current peak.
            queue_high_water: self.queue_high_water,
            pool_high_water: self.pool_high_water,
        }
    }

    /// Event-loop throughput, dispatched events per second of simulate
    /// wall time (0 when nothing ran).
    pub fn event_rate_per_sec(&self) -> f64 {
        if self.simulate_ns == 0 {
            0.0
        } else {
            self.events as f64 / (self.simulate_ns as f64 / 1e9)
        }
    }

    /// One-line human summary.
    pub fn summary(&self) -> String {
        let ms = |ns: u64| ns as f64 / 1e6;
        format!(
            "{} points | encode {:.1} ms, simulate {:.1} ms, score {:.1} ms | \
             {} events ({:.2} M ev/s) | peak queue {}, peak in-flight {}",
            self.points,
            ms(self.encode_ns),
            ms(self.simulate_ns),
            ms(self.score_ns),
            self.events,
            self.event_rate_per_sec() / 1e6,
            self.queue_high_water,
            self.pool_high_water,
        )
    }
}

/// Copy the current totals.
pub fn snapshot() -> ProfileSnapshot {
    ProfileSnapshot {
        encode_ns: ENCODE_NS.load(Ordering::Relaxed),
        simulate_ns: SIMULATE_NS.load(Ordering::Relaxed),
        score_ns: SCORE_NS.load(Ordering::Relaxed),
        events: EVENTS.load(Ordering::Relaxed),
        points: POINTS.load(Ordering::Relaxed),
        queue_high_water: QUEUE_HIGH_WATER.load(Ordering::Relaxed),
        pool_high_water: POOL_HIGH_WATER.load(Ordering::Relaxed),
    }
}

/// Print a labelled stage report for the delta since `since` on stderr
/// when [`enabled`]; always returns the delta for callers that want it.
pub fn report(label: &str, since: &ProfileSnapshot) -> ProfileSnapshot {
    let delta = snapshot().since(since);
    if enabled() {
        eprintln!("[profile] {label}: {}", delta.summary());
    }
    delta
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn accumulates_and_brackets() {
        let before = snapshot();
        add_encode(Duration::from_millis(2));
        add_simulate(Duration::from_millis(5), 1000);
        add_score(Duration::from_millis(1));
        let delta = snapshot().since(&before);
        assert!(delta.encode_ns >= 2_000_000);
        assert!(delta.simulate_ns >= 5_000_000);
        assert!(delta.score_ns >= 1_000_000);
        assert!(delta.events >= 1000);
        assert!(delta.points >= 1);
        assert!(delta.event_rate_per_sec() > 0.0);
        assert!(delta.summary().contains("events"));
    }

    #[test]
    fn high_water_is_a_process_wide_maximum() {
        record_high_water(10, 5);
        record_high_water(4, 2); // smaller run must not lower the peak
        let s = snapshot();
        assert!(s.queue_high_water >= 10);
        assert!(s.pool_high_water >= 5);
        assert!(s.summary().contains("peak queue"));
    }

    #[test]
    fn empty_snapshot_has_zero_rate() {
        let s = ProfileSnapshot::default();
        assert_eq!(s.event_rate_per_sec(), 0.0);
    }
}
