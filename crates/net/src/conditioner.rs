//! The ingress-conditioning hook.
//!
//! Diff-Serv traffic conditioning (classification, metering, marking,
//! policing, shaping) happens where packets *enter* a router. This crate
//! knows nothing about token buckets — it only defines the [`Conditioner`]
//! interface that `dsv-diffserv` implements and [`crate::network::Network`]
//! invokes on every packet arriving at a router that has a conditioner
//! attached.
//!
//! The interface is poll-based so that *shaping* (delaying non-conformant
//! packets rather than dropping them) fits without callbacks: a conditioner
//! may absorb a packet and name the time at which the network should poll it
//! for releases.
//!
//! A conditioner can also tell the network which (source, destination)
//! pairs it decides alone ([`Conditioner::decides_alone`]): each packet
//! in place, never re-marked or absorbed, against state no other pair
//! touches. The network's hop-chain walk crosses the conditioner for those
//! pairs, calling [`Conditioner::quick`] at each packet's arrival instant
//! without dispatching the arrival (see [`crate::network`]).

use dsv_sim::SimTime;

use crate::packet::{DropReason, NodeId, Packet};

/// What a conditioner decided about one submitted packet.
#[derive(Debug)]
pub enum ConditionOutcome<P> {
    /// Forward now (possibly re-marked).
    Pass(Packet<P>),
    /// Discard; the packet is returned for accounting.
    Drop(Packet<P>, DropReason),
    /// The conditioner absorbed the packet (shaping). The network must call
    /// [`Conditioner::release`] at `poll_at`.
    Absorbed {
        /// When to poll for released packets.
        poll_at: SimTime,
    },
}

/// Released packets plus the next time to poll, if any packets remain
/// absorbed.
#[derive(Debug)]
pub struct Released<P> {
    /// Packets that became conformant and should be forwarded now, in order.
    pub packets: Vec<Packet<P>>,
    /// Next poll time, if the conditioner still holds packets.
    pub next_poll: Option<SimTime>,
}

impl<P> Released<P> {
    /// A release result carrying nothing.
    pub fn empty() -> Self {
        Released {
            packets: Vec::new(),
            next_poll: None,
        }
    }
}

/// A conditioning decision reached without taking the packet out of the
/// caller's hands (see [`Conditioner::quick`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QuickVerdict {
    /// Forward the packet now. The conditioner may have re-marked it in
    /// place; it must be byte-for-byte what [`Conditioner::submit`] would
    /// have returned inside [`ConditionOutcome::Pass`].
    Pass,
    /// Discard the packet for this reason — identical to what `submit`
    /// would have returned inside [`ConditionOutcome::Drop`].
    Drop(DropReason),
    /// The decision needs ownership (e.g. shaping absorbs the packet):
    /// the caller must fall back to [`Conditioner::submit`]. The packet
    /// must not have been mutated.
    NeedsSubmit,
}

/// An ingress traffic conditioner.
pub trait Conditioner<P> {
    /// Submit a packet arriving at the router.
    fn submit(&mut self, now: SimTime, pkt: Packet<P>) -> ConditionOutcome<P>;

    /// Decide the packet's fate in place, when possible.
    ///
    /// This is the network's fast path: a [`QuickVerdict::Pass`] lets the
    /// router forward the packet without lifting it out of the in-flight
    /// pool. Implementations must behave exactly like
    /// [`Conditioner::submit`] (same metering state updates, same marking,
    /// same verdict) or return [`QuickVerdict::NeedsSubmit`] untouched; the
    /// default conservatively always defers.
    fn quick(&mut self, _now: SimTime, _pkt: &mut Packet<P>) -> QuickVerdict {
        QuickVerdict::NeedsSubmit
    }

    /// Whether every packet from `src` to `dst` is decided alone: by
    /// [`Conditioner::quick`], in place, never re-marked or absorbed, and
    /// against state that no packet of another pair reads or writes.
    ///
    /// The network then decides such a packet inside a hop-chain walk, at
    /// its arrival instant but before the arrival would have been
    /// dispatched: the pair's packets still reach `quick` in arrival
    /// order, and nothing else can observe the difference. The default
    /// answers no, which keeps every packet on the per-hop path; a wrapper
    /// that only delegates `submit` and `quick` stays opaque that way.
    fn decides_alone(&self, _src: NodeId, _dst: NodeId) -> bool {
        false
    }

    /// Poll for packets whose release time has come. Only called if a prior
    /// [`ConditionOutcome::Absorbed`] or [`Released::next_poll`] asked for
    /// it, but implementations must tolerate spurious polls.
    fn release(&mut self, now: SimTime) -> Released<P>;

    /// Number of packets currently absorbed (shaping backlog). Pure
    /// accounting — the audit oracles use it to close the end-of-run
    /// packet-conservation equation; conditioners that never absorb keep
    /// the default.
    fn held(&self) -> usize {
        0
    }
}

/// A conditioner that passes everything through untouched (routers without
/// policies — e.g. the over-provisioned QBone core).
#[derive(Debug, Default)]
pub struct PassThrough;

impl<P> Conditioner<P> for PassThrough {
    fn submit(&mut self, _now: SimTime, pkt: Packet<P>) -> ConditionOutcome<P> {
        ConditionOutcome::Pass(pkt)
    }

    fn quick(&mut self, _now: SimTime, _pkt: &mut Packet<P>) -> QuickVerdict {
        QuickVerdict::Pass
    }

    fn release(&mut self, _now: SimTime) -> Released<P> {
        Released::empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Dscp, FlowId, NodeId, PacketId, Proto};

    #[test]
    fn passthrough_passes() {
        let mut c = PassThrough;
        let pkt: Packet<()> = Packet {
            id: PacketId(7),
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size: 100,
            dscp: Dscp::BEST_EFFORT,
            proto: Proto::Udp,
            fragment: None,
            sent_at: SimTime::ZERO,
            payload: (),
        };
        match Conditioner::submit(&mut c, SimTime::ZERO, pkt) {
            ConditionOutcome::Pass(p) => assert_eq!(p.id, PacketId(7)),
            other => panic!("unexpected outcome {other:?}"),
        }
        let rel: Released<()> = Conditioner::release(&mut c, SimTime::ZERO);
        assert!(rel.packets.is_empty());
        assert!(rel.next_poll.is_none());
    }
}
