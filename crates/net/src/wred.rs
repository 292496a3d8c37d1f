//! Weighted RED: the buffer-management side of the Assured Forwarding PHB.
//!
//! The paper's headline experiments use EF, but §2.1 describes the AF PHB
//! group — policers that "mark packets with different colors (DSCPs)
//! depending on their level of non-conformance" — and notes that the
//! authors' preliminary AF experiments were excluded because results "were
//! heavily dependent on the level of cross traffic". This queue is the
//! core-router half of AF: a single FIFO whose admission applies RED with
//! per-drop-precedence thresholds, so yellow/red packets are shed earlier
//! than green as the queue builds. Together with the srTCM in
//! `dsv-diffserv` it lets the AF experiments in `dsv-core` reproduce that
//! excluded-result sensitivity.
//!
//! Implementation notes: the average queue is an EWMA updated on every
//! enqueue attempt (the classic idle-time correction is omitted — under
//! the sustained loads of interest the queue is rarely idle, and the
//! simplification keeps the discipline free of wall-clock state).
//! Randomness is a seeded [`SimRng`], so WRED drops are reproducible.

use std::collections::VecDeque;

use dsv_sim::SimRng;

use crate::packet::{Dscp, Packet};
use crate::qdisc::Qdisc;

/// RED thresholds for one drop precedence.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WredParams {
    /// Average queue size (bytes) below which nothing is dropped.
    pub min_bytes: f64,
    /// Average queue size at/above which everything of this precedence is
    /// dropped.
    pub max_bytes: f64,
    /// Drop probability as the average reaches `max_bytes`.
    pub max_p: f64,
}

impl WredParams {
    fn drop_probability(&self, avg: f64) -> f64 {
        if avg < self.min_bytes {
            0.0
        } else if avg >= self.max_bytes {
            1.0
        } else {
            self.max_p * (avg - self.min_bytes) / (self.max_bytes - self.min_bytes)
        }
    }
}

/// Drop precedence extracted from an AF DSCP (0 = green … 2 = red).
/// Non-AF packets are treated as green.
pub fn drop_precedence(dscp: Dscp) -> usize {
    let dp = (dscp.bits() >> 1) & 0x3;
    (dp as usize).saturating_sub(1).min(2)
}

/// A WRED-managed FIFO.
pub struct WredQueue<P> {
    q: VecDeque<Packet<P>>,
    bytes: u64,
    /// Hard byte cap (tail-drop backstop above RED).
    capacity_bytes: u64,
    avg: f64,
    /// EWMA weight for the average queue estimate.
    weight: f64,
    /// Per-precedence parameters (green, yellow, red).
    params: [WredParams; 3],
    rng: SimRng,
    /// Cumulative RED/tail drops per precedence (diagnostics).
    pub drops: [u64; 3],
}

impl<P> WredQueue<P> {
    /// Build with explicit parameters.
    pub fn new(capacity_bytes: u64, params: [WredParams; 3], seed: u64) -> Self {
        assert!(capacity_bytes > 0);
        for p in &params {
            assert!(p.min_bytes < p.max_bytes, "min must be below max");
            assert!((0.0..=1.0).contains(&p.max_p));
        }
        WredQueue {
            q: VecDeque::new(),
            bytes: 0,
            capacity_bytes,
            avg: 0.0,
            weight: 0.1,
            params,
            rng: SimRng::seed_from_u64(seed ^ 0x57ED_0000),
            drops: [0; 3],
        }
    }

    /// A standard three-color AF profile over a queue of `capacity_bytes`:
    /// green protected until 60 % average occupancy, yellow until 35 %,
    /// red until 15 %.
    pub fn af_default(capacity_bytes: u64, seed: u64) -> Self {
        let c = capacity_bytes as f64;
        WredQueue::new(
            capacity_bytes,
            [
                WredParams {
                    min_bytes: 0.60 * c,
                    max_bytes: 0.95 * c,
                    max_p: 0.1,
                },
                WredParams {
                    min_bytes: 0.35 * c,
                    max_bytes: 0.80 * c,
                    max_p: 0.3,
                },
                WredParams {
                    min_bytes: 0.15 * c,
                    max_bytes: 0.60 * c,
                    max_p: 0.6,
                },
            ],
            seed,
        )
    }
}

impl<P> Qdisc<P> for WredQueue<P> {
    fn enqueue(&mut self, pkt: Packet<P>) -> Result<(), Packet<P>> {
        // Update the EWMA with the instantaneous occupancy.
        self.avg = (1.0 - self.weight) * self.avg + self.weight * self.bytes as f64;
        let prec = drop_precedence(pkt.dscp);
        let p_drop = self.params[prec].drop_probability(self.avg);
        let tail_full = self.bytes + pkt.size as u64 > self.capacity_bytes;
        if tail_full || (p_drop > 0.0 && self.rng.chance(p_drop)) {
            self.drops[prec] += 1;
            return Err(pkt);
        }
        self.bytes += pkt.size as u64;
        self.q.push_back(pkt);
        Ok(())
    }

    fn dequeue(&mut self) -> Option<Packet<P>> {
        let pkt = self.q.pop_front()?;
        self.bytes -= pkt.size as u64;
        Some(pkt)
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, PacketId, Proto};
    use dsv_sim::SimTime;

    fn pkt(id: u64, dscp: Dscp) -> Packet<()> {
        Packet {
            id: PacketId(id),
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1000,
            dscp,
            proto: Proto::Udp,
            fragment: None,
            sent_at: SimTime::ZERO,
            payload: (),
        }
    }

    #[test]
    fn precedence_mapping() {
        assert_eq!(drop_precedence(Dscp::af(1, 1)), 0);
        assert_eq!(drop_precedence(Dscp::af(1, 2)), 1);
        assert_eq!(drop_precedence(Dscp::af(1, 3)), 2);
        assert_eq!(drop_precedence(Dscp::af(4, 3)), 2);
        assert_eq!(drop_precedence(Dscp::BEST_EFFORT), 0);
    }

    #[test]
    fn empty_queue_accepts_everything() {
        let mut q: WredQueue<()> = WredQueue::af_default(100_000, 1);
        for i in 0..10 {
            assert!(q.enqueue(pkt(i, Dscp::af(1, 3))).is_ok());
        }
        assert_eq!(q.len(), 10);
    }

    #[test]
    fn red_sheds_before_green_under_pressure() {
        let mut q: WredQueue<()> = WredQueue::af_default(60_000, 2);
        // Push the queue to a sustained mid occupancy and count drops by
        // color for interleaved traffic.
        let mut id = 0;
        for round in 0..2000 {
            let dscp = match round % 3 {
                0 => Dscp::af(1, 1),
                1 => Dscp::af(1, 2),
                _ => Dscp::af(1, 3),
            };
            id += 1;
            let _ = q.enqueue(pkt(id, dscp));
            // Drain slower than we fill: 2 in, 1 out.
            if round % 2 == 0 {
                q.dequeue();
            }
        }
        assert!(
            q.drops[2] > q.drops[1],
            "red {} should exceed yellow {}",
            q.drops[2],
            q.drops[1]
        );
        assert!(
            q.drops[1] > q.drops[0],
            "yellow {} should exceed green {}",
            q.drops[1],
            q.drops[0]
        );
    }

    #[test]
    fn hard_cap_is_enforced() {
        let mut q: WredQueue<()> = WredQueue::new(
            5_000,
            [WredParams {
                min_bytes: 4_000.0,
                max_bytes: 4_999.0,
                max_p: 0.0,
            }; 3],
            3,
        );
        for i in 0..5 {
            assert!(q.enqueue(pkt(i, Dscp::af(1, 1))).is_ok());
        }
        assert!(q.enqueue(pkt(9, Dscp::af(1, 1))).is_err());
        assert_eq!(q.bytes(), 5_000);
    }

    #[test]
    fn deterministic_given_seed() {
        let run = || {
            let mut q: WredQueue<()> = WredQueue::af_default(40_000, 7);
            let mut accepted = 0;
            for i in 0..1000 {
                if q.enqueue(pkt(i, Dscp::af(1, 3))).is_ok() {
                    accepted += 1;
                }
                if i % 2 == 0 {
                    q.dequeue();
                }
            }
            (accepted, q.drops)
        };
        assert_eq!(run(), run());
    }

    #[test]
    #[should_panic(expected = "min must be below max")]
    fn validates_thresholds() {
        let _: WredQueue<()> = WredQueue::new(
            1000,
            [WredParams {
                min_bytes: 10.0,
                max_bytes: 10.0,
                max_p: 0.5,
            }; 3],
            1,
        );
    }
}
