//! Shaping: the "soft" conditioning action.
//!
//! "A shaper is a token bucket, which instead of simply dropping (policing)
//! non-conformant packets, is configured to delay them until the earliest
//! time at which they are deemed conformant" (paper, footnote 5). The
//! paper's Linux router performed exactly this role upstream of the
//! policing router in some local-testbed experiments, smoothing the bursty
//! WMT server output.
//!
//! The shaper preserves order: a newly arriving packet never overtakes
//! queued ones, even if tokens are momentarily available. Its delay queue is
//! bounded; overflow becomes a drop (a shaper in front of a sustained
//! over-rate source must shed load somewhere). A packet larger than the
//! bucket can never conform, so it overflows too, as Linux `tbf` drops a
//! packet larger than its burst.

use std::collections::VecDeque;

use dsv_net::packet::Packet;
use dsv_sim::SimTime;

use crate::token_bucket::TokenBucket;

/// Result of offering a packet to a shaper.
#[derive(Debug)]
pub enum ShaperResult<P> {
    /// The packet was conformant and passes through immediately.
    PassNow(Packet<P>),
    /// The packet was queued; poll [`Shaper::pop_ready`] at the given time.
    Queued {
        /// Earliest time the head of the queue becomes conformant.
        next_release: SimTime,
    },
    /// The delay queue was full, or the packet is larger than the bucket;
    /// the packet is returned for drop accounting.
    Overflow(Packet<P>),
}

/// A token-bucket shaper with a bounded FIFO delay queue.
#[derive(Debug)]
pub struct Shaper<P> {
    bucket: TokenBucket,
    queue: VecDeque<Packet<P>>,
    queued_bytes: u64,
    max_queue_bytes: u64,
    /// Cumulative packets delayed (passed through the queue).
    pub delayed: u64,
    /// Cumulative packets dropped on overflow.
    pub overflows: u64,
}

impl<P> Shaper<P> {
    /// Build a shaper with the given bucket and delay-queue capacity.
    pub fn new(rate_bps: u64, depth_bytes: u32, max_queue_bytes: u64) -> Self {
        Shaper {
            bucket: TokenBucket::new(rate_bps, depth_bytes),
            queue: VecDeque::new(),
            queued_bytes: 0,
            max_queue_bytes,
            delayed: 0,
            overflows: 0,
        }
    }

    /// Offer a packet at `now`.
    pub fn offer(&mut self, now: SimTime, pkt: Packet<P>) -> ShaperResult<P> {
        if self.queue.is_empty() && self.bucket.try_consume(now, pkt.size) {
            return ShaperResult::PassNow(pkt);
        }
        if pkt.size > self.bucket.depth_bytes()
            || self.queued_bytes + pkt.size as u64 > self.max_queue_bytes
        {
            self.overflows += 1;
            return ShaperResult::Overflow(pkt);
        }
        self.queued_bytes += pkt.size as u64;
        self.queue.push_back(pkt);
        self.delayed += 1;
        let head = self.queue.front().expect("just pushed");
        let next_release = self
            .bucket
            .conformance_time(now, head.size)
            .expect("queued packets fit the bucket");
        ShaperResult::Queued { next_release }
    }

    /// Pop every queued packet that is conformant at `now`, in order, and
    /// report when to poll next (if packets remain).
    pub fn pop_ready(&mut self, now: SimTime) -> (Vec<Packet<P>>, Option<SimTime>) {
        let mut out = Vec::new();
        while let Some(head) = self.queue.front() {
            if self.bucket.try_consume(now, head.size) {
                let pkt = self.queue.pop_front().expect("front exists");
                self.queued_bytes -= pkt.size as u64;
                out.push(pkt);
            } else {
                let next = self
                    .bucket
                    .conformance_time(now, head.size)
                    .expect("queued packet must eventually conform");
                return (out, Some(next));
            }
        }
        (out, None)
    }

    /// Packets currently held.
    pub fn queue_len(&self) -> usize {
        self.queue.len()
    }

    /// Bytes currently held.
    pub fn queue_bytes(&self) -> u64 {
        self.queued_bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_net::packet::{Dscp, FlowId, NodeId, PacketId, Proto};

    fn pkt(id: u64, size: u32) -> Packet<()> {
        Packet {
            id: PacketId(id),
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size,
            dscp: Dscp::BEST_EFFORT,
            proto: Proto::Udp,
            fragment: None,
            sent_at: SimTime::ZERO,
            payload: (),
        }
    }

    #[test]
    fn conformant_passes_immediately() {
        let mut s: Shaper<()> = Shaper::new(1_000_000, 3000, 100_000);
        assert!(matches!(
            s.offer(SimTime::ZERO, pkt(1, 1500)),
            ShaperResult::PassNow(_)
        ));
    }

    #[test]
    fn non_conformant_is_delayed_not_dropped() {
        // 8 Mbps = 1 byte/µs, depth 1500.
        let mut s: Shaper<()> = Shaper::new(8_000_000, 1500, 100_000);
        assert!(matches!(
            s.offer(SimTime::ZERO, pkt(1, 1500)),
            ShaperResult::PassNow(_)
        ));
        let next = match s.offer(SimTime::ZERO, pkt(2, 1500)) {
            ShaperResult::Queued { next_release } => next_release,
            other => panic!("expected queued, got {other:?}"),
        };
        assert_eq!(next, SimTime::from_micros(1500));
        // Too early: nothing released, poll time unchanged.
        let (early, again) = s.pop_ready(SimTime::from_micros(100));
        assert!(early.is_empty());
        assert_eq!(again, Some(next));
        // At the release time the packet emerges.
        let (ready, more) = s.pop_ready(next);
        assert_eq!(ready.len(), 1);
        assert_eq!(ready[0].id, PacketId(2));
        assert_eq!(more, None);
    }

    #[test]
    fn order_is_preserved_across_queue() {
        let mut s: Shaper<()> = Shaper::new(8_000_000, 1500, 100_000);
        assert!(matches!(
            s.offer(SimTime::ZERO, pkt(1, 1500)),
            ShaperResult::PassNow(_)
        ));
        // Queue two small packets.
        assert!(matches!(
            s.offer(SimTime::ZERO, pkt(2, 700)),
            ShaperResult::Queued { .. }
        ));
        assert!(matches!(
            s.offer(SimTime::ZERO, pkt(3, 100)),
            ShaperResult::Queued { .. }
        ));
        // Even though packet 3 alone would conform sooner, 2 goes first.
        let (ready, _) = s.pop_ready(SimTime::from_micros(800));
        assert_eq!(ready.iter().map(|p| p.id.0).collect::<Vec<_>>(), vec![2, 3]);
    }

    #[test]
    fn later_arrival_does_not_overtake_queue() {
        let mut s: Shaper<()> = Shaper::new(8_000_000, 1500, 100_000);
        assert!(matches!(
            s.offer(SimTime::ZERO, pkt(1, 1500)),
            ShaperResult::PassNow(_)
        ));
        assert!(matches!(
            s.offer(SimTime::ZERO, pkt(2, 1500)),
            ShaperResult::Queued { .. }
        ));
        // Much later, tokens abound — but packet 3 must still queue behind 2.
        match s.offer(SimTime::from_micros(1400), pkt(3, 100)) {
            ShaperResult::Queued { .. } => {}
            other => panic!("expected queued, got {other:?}"),
        }
        // At t=3000 the (capped) bucket covers only packet 2…
        let (ready, next) = s.pop_ready(SimTime::from_micros(3000));
        assert_eq!(ready.iter().map(|p| p.id.0).collect::<Vec<_>>(), vec![2]);
        // …and packet 3 (100 B) needs another 100 µs of credit.
        assert_eq!(next, Some(SimTime::from_micros(3100)));
        let (ready, none) = s.pop_ready(SimTime::from_micros(3100));
        assert_eq!(ready.iter().map(|p| p.id.0).collect::<Vec<_>>(), vec![3]);
        assert_eq!(none, None);
    }

    #[test]
    fn overflow_drops() {
        let mut s: Shaper<()> = Shaper::new(8_000_000, 1500, 2000);
        assert!(matches!(
            s.offer(SimTime::ZERO, pkt(1, 1500)),
            ShaperResult::PassNow(_)
        ));
        assert!(matches!(
            s.offer(SimTime::ZERO, pkt(2, 1500)),
            ShaperResult::Queued { .. }
        ));
        // Queue holds 1500 bytes; another 1500 exceeds the 2000-byte cap.
        assert!(matches!(
            s.offer(SimTime::ZERO, pkt(3, 1500)),
            ShaperResult::Overflow(_)
        ));
        assert_eq!(s.overflows, 1);
        assert_eq!(s.queue_len(), 1);
        assert_eq!(s.queue_bytes(), 1500);
    }

    #[test]
    fn a_packet_larger_than_the_bucket_overflows() {
        // Depth 1000: a 1500-byte packet can never conform, even with the
        // bucket full and the queue empty. It is refused, not queued, and
        // a later packet that fits still passes.
        let mut s: Shaper<()> = Shaper::new(1_500_000, 1000, 100_000);
        assert!(matches!(
            s.offer(SimTime::ZERO, pkt(1, 1500)),
            ShaperResult::Overflow(_)
        ));
        assert_eq!((s.overflows, s.delayed, s.queue_len()), (1, 0, 0));
        assert!(matches!(
            s.offer(SimTime::ZERO, pkt(2, 1000)),
            ShaperResult::PassNow(_)
        ));
    }

    #[test]
    fn output_is_conformant() {
        // Shape a big burst and verify the output never violates the bucket.
        let mut s: Shaper<()> = Shaper::new(1_000_000, 3000, 1_000_000);
        let mut releases: Vec<(SimTime, u32)> = Vec::new();
        let mut next_poll = None;
        for i in 0..50 {
            match s.offer(SimTime::ZERO, pkt(i, 1500)) {
                ShaperResult::PassNow(p) => releases.push((SimTime::ZERO, p.size)),
                ShaperResult::Queued { next_release } => next_poll = Some(next_release),
                ShaperResult::Overflow(_) => panic!("queue sized for the burst"),
            }
        }
        while let Some(t) = next_poll {
            let (ready, more) = s.pop_ready(t);
            for p in ready {
                releases.push((t, p.size));
            }
            next_poll = more;
        }
        assert_eq!(releases.len(), 50);
        // Check conformance of the release schedule: cumulative bytes by
        // time t never exceed depth + rate*t/8.
        for (t, _) in &releases {
            let cum: u64 = releases
                .iter()
                .filter(|(rt, _)| rt <= t)
                .map(|(_, sz)| *sz as u64)
                .sum();
            let bound = 3000.0 + 1_000_000.0 * t.as_secs_f64() / 8.0;
            assert!(cum as f64 <= bound + 1.0, "at {t}: {cum} > {bound}");
        }
    }
}
