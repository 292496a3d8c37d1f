//! Streaming server models.
//!
//! The paper experimented with several commercial servers and found their
//! *transmission disciplines* — not their codecs — determined how they
//! fared under EF policing. Three disciplines cover the space:
//!
//! * [`paced::PacedServer`] — small messages, smooth pacing from a send
//!   buffer (IBM Video Charger; the QBone experiments);
//! * [`bursty::BurstyServer`] — large application datagrams fragmented
//!   into back-to-back packet trains (Microsoft NetShow Theater,
//!   2netfx ThunderCastIP; the paper's "bi-modal" servers);
//! * [`adaptive::AdaptiveServer`] — feedback-driven rate adaptation with
//!   loss-compensation overhead (Windows Media Technologies; the local
//!   testbed experiments, including the mis-adaptation death spiral);
//! * [`tcp_server::TcpStreamServer`] — media over the mini-TCP transport
//!   (the paper's TCP streaming configuration).

pub mod adaptive;
pub mod bursty;
pub mod paced;
pub mod tcp_server;

use std::collections::VecDeque;

use dsv_sim::{SimDuration, SimTime};

use crate::packetize::ChunkSpec;

/// A send-buffer pacer: the adaptive server drains through a live one,
/// and the paced server's [`paced::PacingPlan`] runs one once per
/// encoding.
///
/// Frames are appended to the buffer as the server "reads the file" in
/// real time; a periodic tick drains whole packets at a rate proportional
/// to the backlog (`backlog / smoothing`), which low-pass-filters the
/// encoder's frame-size oscillation. Packets released within one tick go
/// out back-to-back — the OS-timer coalescing that makes even "paced"
/// servers emit small bursts.
#[derive(Debug)]
pub struct Pacer {
    queue: VecDeque<ChunkSpec>,
    queue_bytes: u64,
    /// Pacing low-pass window.
    pub smoothing: SimDuration,
    /// Floor on the drain rate, bits per second.
    pub min_rate_bps: u64,
    /// Byte allowance carried between ticks.
    allowance: f64,
}

impl Pacer {
    /// Create a pacer.
    pub fn new(smoothing: SimDuration, min_rate_bps: u64) -> Pacer {
        assert!(!smoothing.is_zero());
        Pacer {
            queue: VecDeque::new(),
            queue_bytes: 0,
            smoothing,
            min_rate_bps,
            allowance: 0.0,
        }
    }

    /// Append a packet to the send buffer.
    pub fn push(&mut self, chunk: ChunkSpec) {
        self.queue_bytes += chunk.wire_bytes as u64;
        self.queue.push_back(chunk);
    }

    /// Buffered bytes.
    pub fn backlog_bytes(&self) -> u64 {
        self.queue_bytes
    }

    /// True if nothing is buffered.
    pub fn is_empty(&self) -> bool {
        self.queue.is_empty()
    }

    /// Current drain rate in bits per second.
    pub fn rate_bps(&self) -> f64 {
        (self.queue_bytes as f64 * 8.0 / self.smoothing.as_secs_f64()).max(self.min_rate_bps as f64)
    }

    /// Advance one tick of length `tick`, scaled by `boost` (≥1 for the
    /// adaptive server's compensation overhead): returns the packets to
    /// send now, back-to-back.
    pub fn tick(&mut self, tick: SimDuration, boost: f64) -> Vec<ChunkSpec> {
        let mut out = Vec::new();
        self.tick_into(tick, boost, &mut out);
        out
    }

    /// [`Pacer::tick`] into a caller-owned buffer (cleared first), so the
    /// per-tick timer path reuses one allocation for the whole stream.
    pub fn tick_into(&mut self, tick: SimDuration, boost: f64, out: &mut Vec<ChunkSpec>) {
        out.clear();
        if self.queue.is_empty() {
            // An empty buffer must not bank credit — otherwise the next
            // frame would blast out at line rate.
            self.allowance = 0.0;
            return;
        }
        let rate = self.rate_bps() * boost.max(1.0);
        self.allowance += rate * tick.as_secs_f64() / 8.0;
        while let Some(head) = self.queue.front() {
            if (head.wire_bytes as f64) <= self.allowance {
                self.allowance -= head.wire_bytes as f64;
                self.queue_bytes -= head.wire_bytes as u64;
                out.push(self.queue.pop_front().expect("front exists"));
            } else {
                break;
            }
        }
        // Cap banked credit at one MTU so idle half-ticks don't accumulate
        // into bursts.
        self.allowance = self.allowance.min(1500.0);
    }

    /// Discard everything buffered (adaptive server collapse).
    pub fn clear(&mut self) {
        self.queue.clear();
        self.queue_bytes = 0;
        self.allowance = 0.0;
    }
}

/// Common timer tokens for the server applications.
pub(crate) const TOK_FRAME: u64 = 1;
pub(crate) const TOK_TICK: u64 = 2;
pub(crate) const TOK_RESUME: u64 = 3;
pub(crate) const TOK_RTO: u64 = 4;

/// When playback of frame `i` should be *read* by a server that started
/// streaming at `play_start`.
pub(crate) fn read_time(play_start: SimTime, index: u32) -> SimTime {
    play_start + dsv_media::frame::presentation_time(index).saturating_since(SimTime::ZERO)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chunk(bytes: u32) -> ChunkSpec {
        ChunkSpec {
            frame_index: 0,
            chunk: 0,
            chunks_in_frame: 1,
            wire_bytes: bytes,
            datagram: None,
        }
    }

    #[test]
    fn pacer_drains_at_backlog_rate() {
        let mut p = Pacer::new(SimDuration::from_millis(400), 100_000);
        // 40 kB backlog -> rate = 40k*8/0.4 = 800 kbps.
        for _ in 0..40 {
            p.push(chunk(1000));
        }
        assert!((p.rate_bps() - 800_000.0).abs() < 1.0);
        // One 10 ms tick at 800 kbps = 1000 bytes = 1 packet.
        let sent = p.tick(SimDuration::from_millis(10), 1.0);
        assert_eq!(sent.len(), 1);
    }

    #[test]
    fn pacer_floor_applies_when_backlog_small() {
        let mut p = Pacer::new(SimDuration::from_secs(1), 1_000_000);
        p.push(chunk(500));
        assert!((p.rate_bps() - 1_000_000.0).abs() < 1.0);
        let sent = p.tick(SimDuration::from_millis(10), 1.0);
        assert_eq!(sent.len(), 1, "floor rate sends the lone packet");
    }

    #[test]
    fn empty_pacer_banks_no_credit() {
        let mut p = Pacer::new(SimDuration::from_millis(100), 10_000_000);
        assert!(p.tick(SimDuration::from_secs(10), 1.0).is_empty());
        p.push(chunk(1500));
        p.push(chunk(1500));
        p.push(chunk(1500));
        // After the long idle, the first tick must not dump everything.
        let sent = p.tick(SimDuration::from_millis(1), 1.0);
        assert!(sent.len() <= 1, "sent {} packets after idle", sent.len());
    }

    #[test]
    fn boost_scales_drain() {
        let mut a = Pacer::new(SimDuration::from_millis(400), 0);
        let mut b = Pacer::new(SimDuration::from_millis(400), 0);
        for _ in 0..100 {
            a.push(chunk(1000));
            b.push(chunk(1000));
        }
        let sa = a.tick(SimDuration::from_millis(20), 1.0).len();
        let sb = b.tick(SimDuration::from_millis(20), 2.0).len();
        assert!(
            sb >= 2 * sa,
            "boost 2 should ~double the drain: {sa} vs {sb}"
        );
    }

    #[test]
    fn clear_resets() {
        let mut p = Pacer::new(SimDuration::from_millis(100), 0);
        p.push(chunk(1000));
        p.clear();
        assert!(p.is_empty());
        assert_eq!(p.backlog_bytes(), 0);
    }
}
