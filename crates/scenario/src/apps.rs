//! Minimal test applications the scenario IR can instantiate.
//!
//! The fault-injection and differential self-tests drive a media-free
//! chain — a constant-rate source through a policed router into a sink
//! that records arrival order. Both endpoints live here so every consumer
//! of the IR (core pipelines, check fixtures, the scenario crate's own
//! tests) compiles the same applications.

use dsv_net::app::{AppCtx, Application, SendSpec};
use dsv_net::packet::{Dscp, FlowId, NodeId, Packet, Proto};
use dsv_sim::SimDuration;

/// A constant-rate source: `count` packets of `size` bytes, one every
/// `gap`.
pub struct Pump {
    /// Destination host.
    pub dst: NodeId,
    /// Flow label.
    pub flow: FlowId,
    /// Packets to offer.
    pub count: u32,
    /// Wire size of each packet, bytes.
    pub size: u32,
    /// Inter-packet gap.
    pub gap: SimDuration,
    /// Packets offered so far.
    pub sent: u32,
}

impl<P: Default> Application<P> for Pump {
    fn on_start(&mut self, ctx: &mut AppCtx<P>) {
        ctx.set_timer(SimDuration::ZERO, 0);
    }
    fn on_packet(&mut self, _ctx: &mut AppCtx<P>, _pkt: Packet<P>) {}
    fn on_timer(&mut self, ctx: &mut AppCtx<P>, _token: u64) {
        if self.sent < self.count {
            self.sent += 1;
            ctx.send(SendSpec {
                dst: self.dst,
                flow: self.flow,
                size: self.size,
                dscp: Dscp::BEST_EFFORT,
                proto: Proto::Udp,
                fragment: None,
                payload: P::default(),
            });
            ctx.set_timer(self.gap, 0);
        }
    }
}

/// Records delivered packet ids in arrival order.
#[derive(Debug, Default)]
pub struct IdSink {
    /// Packet ids, in the order they arrived.
    pub ids: Vec<u64>,
}

impl<P> Application<P> for IdSink {
    fn on_start(&mut self, _ctx: &mut AppCtx<P>) {}
    fn on_packet(&mut self, _ctx: &mut AppCtx<P>, pkt: Packet<P>) {
        self.ids.push(pkt.id.0);
    }
    fn on_timer(&mut self, _ctx: &mut AppCtx<P>, _token: u64) {}
    fn absorbs(&self) -> Option<fn(&P) -> bool> {
        Some(|_| true)
    }
}
