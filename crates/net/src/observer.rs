//! The one observer hook on the network's event path.
//!
//! A [`Network`](crate::network::Network) calls an [`Observer`] at every
//! step of a packet's life and at every dispatched event. Dispatch is
//! static: the observer is a type parameter of the network, and the
//! unobserved network's observer is `()`, whose hooks are empty and
//! inline away, so an unobserved run compiles to the event path with no
//! hook at all. An observed run converts the network before it starts
//! ([`Network::audited`](crate::network::Network::audited)); the one
//! observer is the audit, [`SimAudit`](crate::audit::SimAudit).
//!
//! Every hook defaults to a no-op.
//!
//! A binary that can audit holds both instantiations of the event path,
//! so the helpers they share (port admission, the packet pool, the event
//! queue's pop) have twice the callers one instantiation gave them, and
//! lose the inlining a single caller earns. The hot ones carry inline
//! hints, so the unobserved path inlines them as a binary with one
//! instantiation would.

use dsv_sim::{EventQueue, SimTime, Stamp};

use crate::network::NetEvent;
use crate::packet::{FlowId, NodeId, PacketId, PortId};
use crate::pool::PacketRef;

/// Hooks on the network's event path (see the module docs).
#[allow(unused_variables)]
pub trait Observer {
    /// Whether the hooks observe anything. When false, as for `()`, the
    /// network skips the work done only to feed them: reading a relayed
    /// or walked packet's flow and id back out of the pool.
    const ACTIVE: bool = true;

    /// `event` is being dispatched at `now` from `queue`.
    fn on_event(&mut self, now: SimTime, event: &NetEvent, queue: &EventQueue<NetEvent>) {}

    /// An event was filed under `stamp`, which counts as filed at a later
    /// instant than the one it was drawn at, and falls due at `at`: a
    /// timer set with [`crate::app::AppCtx::set_timer_filed_at`], or the
    /// event that ends the walk of a packet sent ahead
    /// ([`crate::app::AppCtx::send_at`]).
    fn on_filed_ahead(&mut self, stamp: Stamp, at: SimTime) {}

    /// A packet was sent ahead to `at` ([`crate::app::AppCtx::send_at`]),
    /// standing for a send by a callback at `at` filed at `filed`, which
    /// is never dispatched.
    fn on_sent_ahead(&mut self, at: SimTime, filed: SimTime) {}

    /// An application at `node` originated packet `id` of `flow`.
    fn on_sent(&mut self, flow: FlowId, id: PacketId, size: u32, node: NodeId) {}

    /// A packet was put on the wire out of `node`'s `port` at `now`.
    fn on_transmit(
        &mut self,
        now: SimTime,
        node: NodeId,
        port: PortId,
        flow: FlowId,
        id: PacketId,
        size: u32,
    ) {
    }

    /// A chain walk moved a packet through `node`'s `port`: it arrived,
    /// started serializing at `start`, and frees the port at `free_at`.
    #[allow(clippy::too_many_arguments)]
    fn on_chain_hop(
        &mut self,
        start: SimTime,
        free_at: SimTime,
        node: NodeId,
        port: PortId,
        flow: FlowId,
        id: PacketId,
        size: u32,
    ) {
    }

    /// A chain walk filed `packet`'s `Arrive` at `node`, due at `at`; its
    /// last walked hop began to serialize at `last_hop`.
    fn on_chain_filed(&mut self, packet: PacketRef, node: NodeId, at: SimTime, last_hop: SimTime) {}

    /// A per-hop packet reached `node` at `now` bound for chain port
    /// `port`, which the network found `busy` or idle.
    fn on_relay_arrive(
        &mut self,
        now: SimTime,
        node: NodeId,
        port: PortId,
        busy: bool,
        queue: &EventQueue<NetEvent>,
    ) {
    }

    /// Drop-tail admission at `node`'s chain port `port` at `at` hangs on
    /// a walked packet that starts serializing at that same instant.
    fn on_admission_tie(&mut self, at: SimTime, node: NodeId, port: PortId) {}

    /// A packet fully arrived at `node` (router or host).
    fn on_arrive(&mut self, node: NodeId) {}

    /// A packet `node` absorbs was filed in its inbox, due at `at` under
    /// `stamp`, which counts as filed after the instant it was drawn at
    /// if `ahead` (see [`Observer::on_filed_ahead`]). No event is filed.
    fn on_inbox(&mut self, node: NodeId, at: SimTime, stamp: Stamp, ahead: bool) {}

    /// The absorbed `packet`, filed in `node`'s inbox due at `at` under
    /// `stamp`, arrived and is handed to the host's application now;
    /// [`Observer::on_delivered`] follows.
    fn on_absorbed(&mut self, at: SimTime, stamp: Stamp, node: NodeId, packet: PacketRef) {}

    /// Packet `id` of `flow` reached its destination application at
    /// `node`.
    fn on_delivered(&mut self, flow: FlowId, id: PacketId, size: u32, node: NodeId) {}

    /// Packet `id` of `flow` was accounted as dropped at `node`.
    fn on_dropped(&mut self, flow: FlowId, id: PacketId, size: u32, node: NodeId) {}
}

/// The unobserved network's observer: every hook is empty.
impl Observer for () {
    const ACTIVE: bool = false;
}
