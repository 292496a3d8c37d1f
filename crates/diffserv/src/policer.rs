//! Policing: the "hard" conditioning action.
//!
//! An EF policer meters each packet against a token bucket; conformant
//! packets are (re)marked with the EF code point and forwarded, and
//! non-conformant packets are **dropped** — the configuration used at
//! router 1 of the local testbed and (as Cisco CAR) at the QBone ingress.
//! A remark ("color down") action is also provided for AF-style policies.

use dsv_net::packet::{Dscp, Packet};
use dsv_sim::SimTime;

use crate::token_bucket::TokenBucket;

/// What to do with a non-conformant packet.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExceedAction {
    /// Discard it (EF-style hard policing).
    Drop,
    /// Re-mark it with a lower-grade code point and forward (AF-style).
    Remark(Dscp),
}

/// Verdict returned by [`Policer::police`].
#[derive(Debug)]
pub enum PolicerVerdict<P> {
    /// Forward the (possibly re-marked) packet.
    Pass(Packet<P>),
    /// Discard the packet.
    Drop(Packet<P>),
}

/// A token-bucket policer.
#[derive(Debug, Clone)]
pub struct Policer {
    bucket: TokenBucket,
    /// Marking applied to conformant packets (e.g. EF), or `None` to leave
    /// the packet's existing marking alone.
    pub conform_mark: Option<Dscp>,
    /// Treatment of non-conformant packets.
    pub exceed: ExceedAction,
    /// Count of conformant packets.
    pub conformant: u64,
    /// Count of non-conformant packets.
    pub non_conformant: u64,
    /// Whether the audit cross-check runs, read once at construction
    /// (the engine's dispatch loop and `SimAudit` read it once per run).
    #[cfg(feature = "audit")]
    audit: bool,
}

impl Policer {
    /// Build a policer.
    pub fn new(bucket: TokenBucket, conform_mark: Option<Dscp>, exceed: ExceedAction) -> Self {
        Policer {
            bucket,
            conform_mark,
            exceed,
            conformant: 0,
            non_conformant: 0,
            #[cfg(feature = "audit")]
            audit: dsv_sim::audit::runtime_enabled(),
        }
    }

    /// The paper's local-testbed router-1 policer: mark conformant packets
    /// EF, drop the rest.
    pub fn ef_drop(rate_bps: u64, depth_bytes: u32) -> Self {
        Policer::new(
            TokenBucket::new(rate_bps, depth_bytes),
            Some(Dscp::EF),
            ExceedAction::Drop,
        )
    }

    /// Cisco Committed Access Rate as configured at the QBone ingress:
    /// packets arrive pre-marked EF from the server; CAR drops packets that
    /// exceed the Abilene Premium Service profile and passes the rest
    /// unmodified.
    pub fn car_drop(rate_bps: u64, depth_bytes: u32) -> Self {
        Policer::new(
            TokenBucket::new(rate_bps, depth_bytes),
            None,
            ExceedAction::Drop,
        )
    }

    /// Apply the policer to one packet.
    pub fn police<P>(&mut self, now: SimTime, mut pkt: Packet<P>) -> PolicerVerdict<P> {
        if self.police_in_place(now, &mut pkt) {
            PolicerVerdict::Pass(pkt)
        } else {
            PolicerVerdict::Drop(pkt)
        }
    }

    /// Apply the policer to a borrowed packet, re-marking it in place.
    /// Returns `true` to forward, `false` to drop.
    pub fn police_in_place<P>(&mut self, now: SimTime, pkt: &mut Packet<P>) -> bool {
        // Audit oracle: `conformance_time` is the analytic twin of
        // `try_consume` — a packet is conformant right now iff its
        // conformance time is `now`. Cross-check the two on every policed
        // packet so the incremental integer bucket can never drift from
        // the closed-form answer. (`conformance_time` only refills, which
        // is idempotent at a fixed `now`, so asking first is side-effect
        // free with respect to the consume below.)
        #[cfg(feature = "audit")]
        let predicted = if self.audit {
            Some(self.bucket.conformance_time(now, pkt.size) == Some(now))
        } else {
            None
        };
        let conformant = self.bucket.try_consume(now, pkt.size);
        #[cfg(feature = "audit")]
        if let Some(predicted) = predicted {
            assert_eq!(
                conformant, predicted,
                "audit: token-bucket conformance_time and try_consume disagree \
                 for a {}-byte packet at {now:?}",
                pkt.size
            );
        }
        if conformant {
            self.conformant += 1;
            if let Some(mark) = self.conform_mark {
                pkt.dscp = mark;
            }
            true
        } else {
            self.non_conformant += 1;
            match self.exceed {
                ExceedAction::Drop => false,
                ExceedAction::Remark(d) => {
                    pkt.dscp = d;
                    true
                }
            }
        }
    }

    /// Access to the underlying bucket (diagnostics/tests).
    pub fn bucket_mut(&mut self) -> &mut TokenBucket {
        &mut self.bucket
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_net::packet::{FlowId, NodeId, PacketId, Proto};

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
    fn ef_drop_marks_conformant_and_drops_excess() {
        // Depth 3000 = two MTUs; bucket starts full.
        let mut p = Policer::ef_drop(1_000_000, 3000);
        match p.police(SimTime::ZERO, pkt(1, 1500)) {
            PolicerVerdict::Pass(out) => assert_eq!(out.dscp, Dscp::EF),
            _ => panic!("expected pass"),
        }
        assert!(matches!(
            p.police(SimTime::ZERO, pkt(2, 1500)),
            PolicerVerdict::Pass(_)
        ));
        // Third back-to-back MTU: bucket empty -> dropped.
        assert!(matches!(
            p.police(SimTime::ZERO, pkt(3, 1500)),
            PolicerVerdict::Drop(_)
        ));
        assert_eq!(p.conformant, 2);
        assert_eq!(p.non_conformant, 1);
    }

    #[test]
    fn car_leaves_marking_alone() {
        let mut p = Policer::car_drop(1_000_000, 3000);
        let mut input = pkt(1, 1000);
        input.dscp = Dscp::EF_QBONE; // pre-marked by the server
        match p.police(SimTime::ZERO, input) {
            PolicerVerdict::Pass(out) => assert_eq!(out.dscp, Dscp::EF_QBONE),
            _ => panic!("expected pass"),
        }
    }

    #[test]
    fn remark_action_colors_down() {
        let mut p = Policer::new(
            TokenBucket::new(1_000_000, 1500),
            Some(Dscp::af(1, 1)),
            ExceedAction::Remark(Dscp::af(1, 3)),
        );
        match p.police(SimTime::ZERO, pkt(1, 1500)) {
            PolicerVerdict::Pass(out) => assert_eq!(out.dscp, Dscp::af(1, 1)),
            _ => panic!(),
        }
        match p.police(SimTime::ZERO, pkt(2, 1500)) {
            PolicerVerdict::Pass(out) => assert_eq!(out.dscp, Dscp::af(1, 3)),
            _ => panic!("remark policers never drop"),
        }
    }

    #[test]
    fn conformance_returns_with_time() {
        let mut p = Policer::ef_drop(8_000_000, 1500); // refills 1 byte/µs
        assert!(matches!(
            p.police(SimTime::ZERO, pkt(1, 1500)),
            PolicerVerdict::Pass(_)
        ));
        assert!(matches!(
            p.police(SimTime::from_micros(100), pkt(2, 1500)),
            PolicerVerdict::Drop(_)
        ));
        // 1500 µs after the first packet the bucket is full again.
        assert!(matches!(
            p.police(SimTime::from_micros(1500), pkt(3, 1500)),
            PolicerVerdict::Pass(_)
        ));
    }
}
