//! Lightweight stage timing for the experiment pipeline.
//!
//! Every run is three stages — **encode** (artifact acquisition: scene
//! model, encoder, reference features), **simulate** (the discrete-event
//! loop) and **score** (feature extraction + VQM) — and perf work on any
//! of them starts with knowing where the wall time goes. This module
//! accumulates per-stage wall time, event counts and high-water marks in
//! per-thread totals (a handful of adds per *point*, nothing per event,
//! so it is always on). A runner worker hands its thread's totals back
//! to the thread that ran the batch when it finishes, so the caller's
//! totals cover every point it ran, on whichever thread.
//!
//! The score stage also counts VQM segments: those the network left
//! intact, which took the shared reference's own score, and those
//! aligned ([`add_segments`]).
//!
//! [`measure`] brackets a region and returns its own sums and peaks; the
//! [`Runner`](crate::runner::Runner) prints them after each batch when
//! `DSV_PROFILE=1` is set. Totals only grow, so a region's sums are also
//! the difference of two [`snapshot`]s ([`ProfileSnapshot::since`]), as
//! the benchmark reads its event counts.

use std::cell::Cell;
use std::sync::OnceLock;
use std::time::Duration;

use serde::{Deserialize, Serialize};

thread_local! {
    static TOTALS: Cell<ProfileSnapshot> = Cell::new(ProfileSnapshot::default());
}

/// Apply `f` to this thread's totals.
fn update(f: impl FnOnce(&mut ProfileSnapshot)) {
    TOTALS.with(|totals| {
        let mut t = totals.get();
        f(&mut t);
        totals.set(t);
    });
}

/// Record time spent acquiring encode-stage artifacts (model/encoder/
/// reference features) for one run.
pub fn add_encode(d: Duration) {
    update(|t| t.encode_ns += d.as_nanos() as u64);
}

/// Record the event-loop wall time and dispatched-event count of one run.
pub fn add_simulate(d: Duration, events: u64) {
    update(|t| {
        t.simulate_ns += d.as_nanos() as u64;
        t.events += events;
        t.points += 1;
    });
}

/// Record time spent scoring (received features + VQM) for one run.
pub fn add_score(d: Duration) {
    update(|t| t.score_ns += d.as_nanos() as u64);
}

/// Record one scoring's VQM segments: `intact` took the shared
/// reference's own score, `aligned` were aligned and compared.
pub fn add_segments(intact: usize, aligned: usize) {
    update(|t| {
        t.segments_intact += intact as u64;
        t.segments_aligned += aligned as u64;
    });
}

/// Record one run's peak queue population and peak in-flight packet count.
/// A region's value is the max over its runs — the number that sizes
/// `EventQueue::with_capacity` / `PacketPool::with_capacity`.
pub fn record_high_water(queue: usize, pool: usize) {
    update(|t| {
        t.queue_high_water = t.queue_high_water.max(queue as u64);
        t.pool_high_water = t.pool_high_water.max(pool as u64);
    });
}

/// Fold `other`, the totals of a finished worker thread, into this
/// thread's.
pub(crate) fn absorb(other: &ProfileSnapshot) {
    update(|t| *t = t.merged(other));
}

/// Run `f` and return its result with the stage totals it produced on
/// this thread, including those its workers handed back: the region's own
/// sums and peaks. They count toward the enclosing totals too.
pub fn measure<T>(f: impl FnOnce() -> T) -> (T, ProfileSnapshot) {
    let outer = TOTALS.with(|totals| totals.replace(ProfileSnapshot::default()));
    let out = f();
    let inner = TOTALS.with(|totals| totals.replace(outer.merged(&totals.get())));
    (out, inner)
}

/// Whether the `DSV_PROFILE` flag asked for stderr stage reports, read
/// once per process.
pub fn enabled() -> bool {
    static ENABLED: OnceLock<bool> = OnceLock::new();
    *ENABLED.get_or_init(|| dsv_sim::env::flag_from_env("DSV_PROFILE").unwrap_or(false))
}

/// A copy of accumulated stage totals: a thread's, or a region's.
#[derive(Debug, Clone, Copy, Default, Serialize, Deserialize)]
pub struct ProfileSnapshot {
    /// Wall time acquiring encode artifacts, nanoseconds.
    pub encode_ns: u64,
    /// Wall time inside the event loop, nanoseconds.
    pub simulate_ns: u64,
    /// Wall time scoring, nanoseconds.
    pub score_ns: u64,
    /// Scored VQM segments the network left intact, which took the
    /// shared reference's own score.
    pub segments_intact: u64,
    /// Scored VQM segments that were aligned and compared.
    pub segments_aligned: u64,
    /// Events dispatched by the simulations.
    pub events: u64,
    /// Simulated points (one per run).
    pub points: u64,
    /// Peak event-queue population across the runs (sizes
    /// `EventQueue::with_capacity`).
    pub queue_high_water: u64,
    /// Peak in-flight packet count across the runs (sizes
    /// `PacketPool::with_capacity`).
    pub pool_high_water: u64,
}

impl ProfileSnapshot {
    /// Stage sums since `other`, an earlier snapshot of the same thread.
    /// The peaks are `self`'s: a running maximum cannot be differenced,
    /// so a region's own peaks come from [`measure`].
    pub fn since(&self, other: &ProfileSnapshot) -> ProfileSnapshot {
        ProfileSnapshot {
            encode_ns: self.encode_ns.saturating_sub(other.encode_ns),
            simulate_ns: self.simulate_ns.saturating_sub(other.simulate_ns),
            score_ns: self.score_ns.saturating_sub(other.score_ns),
            segments_intact: self.segments_intact.saturating_sub(other.segments_intact),
            segments_aligned: self.segments_aligned.saturating_sub(other.segments_aligned),
            events: self.events.saturating_sub(other.events),
            points: self.points.saturating_sub(other.points),
            queue_high_water: self.queue_high_water,
            pool_high_water: self.pool_high_water,
        }
    }

    /// The totals of two regions together: sums added, peaks maxed.
    fn merged(&self, other: &ProfileSnapshot) -> ProfileSnapshot {
        ProfileSnapshot {
            encode_ns: self.encode_ns + other.encode_ns,
            simulate_ns: self.simulate_ns + other.simulate_ns,
            score_ns: self.score_ns + other.score_ns,
            segments_intact: self.segments_intact + other.segments_intact,
            segments_aligned: self.segments_aligned + other.segments_aligned,
            events: self.events + other.events,
            points: self.points + other.points,
            queue_high_water: self.queue_high_water.max(other.queue_high_water),
            pool_high_water: self.pool_high_water.max(other.pool_high_water),
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
            "{} points | encode {:.1} ms, simulate {:.1} ms, score {:.1} ms \
             ({} segments intact, {} aligned) | \
             {} events ({:.2} M ev/s) | peak queue {}, peak in-flight {}",
            self.points,
            ms(self.encode_ns),
            ms(self.simulate_ns),
            ms(self.score_ns),
            self.segments_intact,
            self.segments_aligned,
            self.events,
            self.event_rate_per_sec() / 1e6,
            self.queue_high_water,
            self.pool_high_water,
        )
    }
}

/// Copy this thread's totals.
pub fn snapshot() -> ProfileSnapshot {
    TOTALS.with(Cell::get)
}

/// Print a labelled stage report of `stages` on stderr when [`enabled`].
pub fn report(label: &str, stages: &ProfileSnapshot) {
    if enabled() {
        eprintln!("[profile] {label}: {}", stages.summary());
    }
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
        add_segments(3, 2);
        let delta = snapshot().since(&before);
        assert!(delta.encode_ns >= 2_000_000);
        assert!(delta.simulate_ns >= 5_000_000);
        assert!(delta.score_ns >= 1_000_000);
        assert!(delta.segments_intact >= 3 && delta.segments_aligned >= 2);
        assert!(delta.events >= 1000);
        assert!(delta.points >= 1);
        assert!(delta.event_rate_per_sec() > 0.0);
        assert!(delta.summary().contains("events"));
    }

    #[test]
    fn high_water_is_a_maximum_over_runs() {
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
