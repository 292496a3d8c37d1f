//! Streaming per-flow feature extraction on the delivery path.
//!
//! The QoE proxy (DESIGN.md §12) predicts per-frame VQM scores with a
//! regression over flow-level signals, which means the receiver must
//! measure those signals **as packets arrive** — the same observer shape
//! as [`crate::audit`]: ride the event path, keep O(1) state, never
//! retain packets or frames. [`FeatureExtractor`] is that observer; its
//! [`finish`](FeatureExtractor::finish) snapshot is the [`FlowFeatures`]
//! record the proxy consumes.
//!
//! Everything here is a pure function of the per-flow delivery sequence
//! `(seq, bytes, arrival, delay)`, which the engine guarantees is
//! identical across event-queue backends and cluster modes — so
//! extracted features inherit the simulator's byte-identity contract
//! (pinned by the `qoe_features` proptest suite).

use dsv_sim::{SimDuration, SimTime};
use serde::{Deserialize, Serialize};

/// Width of one throughput-measurement window (500 ms): long enough to
/// smooth per-packet pacing, short enough that a policer-induced outage
/// shows up as zero-throughput windows.
pub const THROUGHPUT_WINDOW: SimDuration = SimDuration::from_millis(500);

/// Flow-level features of one delivery session, accumulated without
/// retaining any per-packet or per-frame state. All derived quantities
/// are computed once, in [`FeatureExtractor::finish`], in a fixed order.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct FlowFeatures {
    /// Media packets delivered (sequence-tracked and untracked).
    pub packets: u64,
    /// Media bytes delivered.
    pub bytes: u64,
    /// The flow's nominal media rate, bps (0 when unknown): the
    /// normalizer for throughput-deficit features.
    pub target_bps: u64,
    /// Packets inferred lost from sequence gaps (late arrivals subtract).
    pub lost_packets: u64,
    /// `lost / (delivered + lost)` over sequence-tracked packets.
    pub loss_fraction: f64,
    /// Number of distinct loss runs (maximal sequence gaps).
    pub loss_runs: u64,
    /// Length of the longest loss run, packets.
    pub max_burst_loss: u64,
    /// Mean loss-run length, packets (0 with no losses).
    pub mean_burst_loss: f64,
    /// Packets that arrived after a higher sequence number.
    pub reordered: u64,
    /// Overall delivered throughput, bps (bytes over first→last arrival).
    pub mean_throughput_bps: f64,
    /// Coefficient of variation of per-window throughput over complete
    /// [`THROUGHPUT_WINDOW`]s (0 with fewer than two windows).
    pub throughput_cv: f64,
    /// Mean packet inter-arrival time, ms.
    pub mean_interarrival_ms: f64,
    /// RFC 3550-style smoothed inter-arrival jitter, ms.
    pub jitter_ms: f64,
    /// Mean one-way delay of delivered packets, ms.
    pub mean_delay_ms: f64,
    /// First→last arrival span, ms.
    pub duration_ms: f64,
}

impl FlowFeatures {
    /// Canonical byte serialization — the identity the determinism suite
    /// compares across engine configurations, and the hash input for
    /// deterministic `sampled:<k>` flow selection (field order is the
    /// declaration order, floats print exactly).
    pub fn canonical_bytes(&self) -> String {
        serde_json::to_string(self).expect("features serialize")
    }
}

/// O(1)-state streaming accumulator for [`FlowFeatures`].
///
/// Feed one [`observe`](FeatureExtractor::observe) per delivered packet;
/// pass the transport sequence number when the transport exposes one
/// (UDP media chunks), or `None` for byte-stream transports whose
/// retransmissions hide network loss from the application (mini-TCP) —
/// those flows still get throughput/jitter/delay features, with the loss
/// block zeroed.
#[derive(Debug, Clone)]
pub struct FeatureExtractor {
    target_bps: u64,
    packets: u64,
    bytes: u64,
    /// Next expected sequence number, once the first tracked packet lands.
    next_seq: Option<u64>,
    seq_packets: u64,
    lost: u64,
    loss_runs: u64,
    max_burst: u64,
    burst_sum: u64,
    reordered: u64,
    first_arrival: Option<SimTime>,
    last_arrival: Option<SimTime>,
    delay_sum: SimDuration,
    prev_delay: Option<SimDuration>,
    /// RFC 3550 §6.4.1 smoothed jitter estimate, nanoseconds.
    jitter_ns: f64,
    /// Index of the open throughput window and the bytes landed in it.
    window_index: u64,
    window_bytes: u64,
    /// Closed-window statistics: count, Σbytes, Σbytes².
    windows: u64,
    win_sum: f64,
    win_sumsq: f64,
}

impl FeatureExtractor {
    /// A fresh extractor for a flow with the given nominal media rate.
    pub fn new(target_bps: u64) -> FeatureExtractor {
        FeatureExtractor {
            target_bps,
            packets: 0,
            bytes: 0,
            next_seq: None,
            seq_packets: 0,
            lost: 0,
            loss_runs: 0,
            max_burst: 0,
            burst_sum: 0,
            reordered: 0,
            first_arrival: None,
            last_arrival: None,
            delay_sum: SimDuration::ZERO,
            prev_delay: None,
            jitter_ns: 0.0,
            window_index: 0,
            window_bytes: 0,
            windows: 0,
            win_sum: 0.0,
            win_sumsq: 0.0,
        }
    }

    /// Record one delivered packet: arrival time, transport sequence
    /// number (if the transport exposes one), wire size, and one-way
    /// delay.
    pub fn observe(&mut self, now: SimTime, seq: Option<u64>, bytes: u32, delay: SimDuration) {
        self.packets += 1;
        self.bytes += bytes as u64;
        if self.first_arrival.is_none() {
            self.first_arrival = Some(now);
        }
        self.last_arrival = Some(now);
        self.delay_sum += delay;

        // RFC 3550 jitter: D = delay_i - delay_{i-1} (transit-time
        // difference), J += (|D| - J) / 16.
        if let Some(prev) = self.prev_delay {
            let d = (delay.as_nanos() as f64 - prev.as_nanos() as f64).abs();
            self.jitter_ns += (d - self.jitter_ns) / 16.0;
        }
        self.prev_delay = Some(delay);

        // Throughput windows, indexed from the first arrival so the
        // session-setup idle time never reads as an outage. Windows the
        // flow skipped entirely close as zero-throughput windows.
        let base = self.first_arrival.expect("set above");
        let w = now.saturating_since(base).as_nanos() / THROUGHPUT_WINDOW.as_nanos();
        while self.window_index < w {
            self.close_window();
        }
        self.window_bytes += bytes as u64;

        if let Some(seq) = seq {
            self.seq_packets += 1;
            match self.next_seq {
                None => self.next_seq = Some(seq + 1),
                Some(expected) if seq == expected => self.next_seq = Some(seq + 1),
                Some(expected) if seq > expected => {
                    let gap = seq - expected;
                    self.lost += gap;
                    self.loss_runs += 1;
                    self.burst_sum += gap;
                    self.max_burst = self.max_burst.max(gap);
                    self.next_seq = Some(seq + 1);
                }
                Some(_) => {
                    // A sequence number below the expectation: the packet
                    // was counted into a gap when its successors arrived.
                    // Take one loss back; the run statistics keep the
                    // original gap (reordering, not recovery, is the
                    // signal there).
                    self.reordered += 1;
                    self.lost = self.lost.saturating_sub(1);
                }
            }
        }
    }

    fn close_window(&mut self) {
        let b = self.window_bytes as f64;
        self.windows += 1;
        self.win_sum += b;
        self.win_sumsq += b * b;
        self.window_bytes = 0;
        self.window_index += 1;
    }

    /// Snapshot the accumulated state into a [`FlowFeatures`] record.
    /// The open (partial) throughput window is excluded from the CV so
    /// the feature does not depend on where the horizon cut the session.
    pub fn finish(&self) -> FlowFeatures {
        let duration = match (self.first_arrival, self.last_arrival) {
            (Some(f), Some(l)) => l.saturating_since(f),
            _ => SimDuration::ZERO,
        };
        let duration_secs = duration.as_secs_f64();
        let expected = self.seq_packets + self.lost;
        let loss_fraction = if expected == 0 {
            0.0
        } else {
            self.lost as f64 / expected as f64
        };
        let mean_burst_loss = if self.loss_runs == 0 {
            0.0
        } else {
            self.burst_sum as f64 / self.loss_runs as f64
        };
        let mean_throughput_bps = if duration_secs > 0.0 {
            self.bytes as f64 * 8.0 / duration_secs
        } else {
            0.0
        };
        let throughput_cv = if self.windows >= 2 {
            let n = self.windows as f64;
            let mean = self.win_sum / n;
            let var = (self.win_sumsq / n - mean * mean).max(0.0);
            if mean > 0.0 {
                var.sqrt() / mean
            } else {
                0.0
            }
        } else {
            0.0
        };
        let mean_interarrival_ms = if self.packets >= 2 {
            duration.as_millis_f64() / (self.packets - 1) as f64
        } else {
            0.0
        };
        let mean_delay_ms = if self.packets == 0 {
            0.0
        } else {
            (self.delay_sum / self.packets).as_millis_f64()
        };
        FlowFeatures {
            packets: self.packets,
            bytes: self.bytes,
            target_bps: self.target_bps,
            lost_packets: self.lost,
            loss_fraction,
            loss_runs: self.loss_runs,
            max_burst_loss: self.max_burst,
            mean_burst_loss,
            reordered: self.reordered,
            mean_throughput_bps,
            throughput_cv,
            mean_interarrival_ms,
            jitter_ms: self.jitter_ns / 1e6,
            mean_delay_ms,
            duration_ms: duration.as_millis_f64(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(m: u64) -> SimTime {
        SimTime::from_millis(m)
    }

    #[test]
    fn empty_flow_has_finite_zero_features() {
        let f = FeatureExtractor::new(1_000_000).finish();
        assert_eq!(f.packets, 0);
        assert_eq!(f.loss_fraction, 0.0);
        assert_eq!(f.mean_throughput_bps, 0.0);
        assert_eq!(f.duration_ms, 0.0);
        assert!(f.canonical_bytes().contains("\"target_bps\":1000000"));
    }

    #[test]
    fn contiguous_delivery_sees_no_loss() {
        let mut e = FeatureExtractor::new(800_000);
        for s in 0..100u64 {
            e.observe(ms(10 * s), Some(s), 1000, SimDuration::from_millis(5));
        }
        let f = e.finish();
        assert_eq!(f.packets, 100);
        assert_eq!(f.lost_packets, 0);
        assert_eq!(f.loss_runs, 0);
        assert_eq!(f.reordered, 0);
        assert!((f.loss_fraction).abs() < 1e-12);
        // 100 kB over 990 ms.
        assert!((f.mean_throughput_bps - 100_000.0 * 8.0 / 0.99).abs() < 1.0);
        assert!((f.mean_interarrival_ms - 10.0).abs() < 1e-9);
        assert_eq!(f.jitter_ms, 0.0, "constant delay has zero jitter");
        assert!((f.mean_delay_ms - 5.0).abs() < 1e-12);
    }

    #[test]
    fn gaps_become_loss_runs() {
        let mut e = FeatureExtractor::new(0);
        // Deliver 0,1, skip 2-4, deliver 5, skip 6, deliver 7.
        for &s in &[0u64, 1, 5, 7] {
            e.observe(ms(s), Some(s), 100, SimDuration::ZERO);
        }
        let f = e.finish();
        assert_eq!(f.lost_packets, 4);
        assert_eq!(f.loss_runs, 2);
        assert_eq!(f.max_burst_loss, 3);
        assert!((f.mean_burst_loss - 2.0).abs() < 1e-12);
        assert!((f.loss_fraction - 4.0 / 8.0).abs() < 1e-12);
    }

    #[test]
    fn late_arrival_is_reordering_not_loss() {
        let mut e = FeatureExtractor::new(0);
        for &s in &[0u64, 2, 1, 3] {
            e.observe(ms(s), Some(s), 100, SimDuration::ZERO);
        }
        let f = e.finish();
        assert_eq!(f.reordered, 1);
        assert_eq!(f.lost_packets, 0, "the late packet repays its gap");
        assert_eq!(f.loss_runs, 1, "the transient gap still counts as a run");
    }

    #[test]
    fn jitter_tracks_delay_variation() {
        let mut e = FeatureExtractor::new(0);
        for s in 0..64u64 {
            let delay = SimDuration::from_millis(if s % 2 == 0 { 5 } else { 15 });
            e.observe(ms(10 * s), Some(s), 500, delay);
        }
        let f = e.finish();
        // |D| = 10 ms every packet: J converges toward 10 ms.
        assert!(f.jitter_ms > 8.0 && f.jitter_ms <= 10.0, "{}", f.jitter_ms);
    }

    #[test]
    fn outage_inflates_throughput_cv() {
        let steady = {
            let mut e = FeatureExtractor::new(0);
            for s in 0..600u64 {
                e.observe(ms(10 * s), Some(s), 1000, SimDuration::ZERO);
            }
            e.finish()
        };
        let bursty = {
            let mut e = FeatureExtractor::new(0);
            // Same byte count, but all traffic bunched into every fourth
            // 500 ms window (s spans 0..6 s like the steady flow).
            for s in 0..600u64 {
                let t = (s / 25) * 2000 + (s % 25) * 20;
                e.observe(SimTime::from_millis(t), Some(s), 1000, SimDuration::ZERO);
            }
            e.finish()
        };
        assert!(steady.throughput_cv < 0.05, "{}", steady.throughput_cv);
        assert!(
            bursty.throughput_cv > steady.throughput_cv + 0.5,
            "bursty {} vs steady {}",
            bursty.throughput_cv,
            steady.throughput_cv
        );
    }

    #[test]
    fn untracked_packets_skip_the_loss_block() {
        let mut e = FeatureExtractor::new(1_000_000);
        for s in 0..10u64 {
            e.observe(ms(100 * s), None, 1448, SimDuration::from_millis(2));
        }
        let f = e.finish();
        assert_eq!(f.packets, 10);
        assert_eq!(f.loss_fraction, 0.0);
        assert_eq!(f.loss_runs, 0);
        assert!(f.mean_throughput_bps > 0.0);
    }

    #[test]
    fn canonical_bytes_round_trip() {
        let mut e = FeatureExtractor::new(1_500_000);
        for &s in &[0u64, 1, 4, 5, 3] {
            e.observe(ms(7 * s + 1), Some(s), 1200, SimDuration::from_micros(1500));
        }
        let f = e.finish();
        let bytes = f.canonical_bytes();
        let back: FlowFeatures = serde_json::from_str(&bytes).expect("parses");
        assert_eq!(back, f);
        assert_eq!(back.canonical_bytes(), bytes);
    }
}
