//! In-simulation audit oracles: online invariant checking for every run.
//!
//! The workspace's regression story leans on byte-identical `results/*.json`
//! goldens, which silently re-bless a bug the moment they are regenerated.
//! [`SimAudit`] is the complementary defence: the network's
//! [`Observer`], watching an audited network
//! ([`crate::network::Network::audited`]; every experiment run under
//! `DSV_AUDIT=1`), that taps the packet lifecycle and verifies, *while the
//! simulation runs*, properties that must hold under any refactor of the
//! hot path:
//!
//! * **causality** — event delivery times never go backwards;
//! * **packet conservation** — per flow and per node, every packet sent is
//!   eventually delivered, dropped, or still physically somewhere (on the
//!   wire in the [`crate::pool::PacketPool`], in a port queue, or held by a
//!   conditioner); nothing is leaked and nothing is delivered twice;
//! * **FIFO** — per (node, port, flow) transmit order and per-flow delivery
//!   order follow send order (packet ids are issued monotonically);
//! * **payload integrity** — a packet's size never changes in flight;
//! * **token-bucket conformance** — at every registered policer, cumulative
//!   admitted traffic respects the analytic bound
//!   `admitted_bytes · 8 ≤ depth_bytes · 8 + rate_bps · t` at all times;
//! * **chain ties** — no outcome of a walked relay hop (see
//!   [`crate::network`]) hangs on a same-instant order that per-hop
//!   dispatch would decide by sequence stamps the walk does not replay;
//! * **tick ties** — no event stamped as filed after the instant it was
//!   drawn — a timer set with [`crate::app::AppCtx::set_timer_filed_at`]
//!   (a paced server's wake-up that skipped ticks), or the event that ends
//!   the walk of a packet sent ahead ([`crate::app::AppCtx::send_at`]) —
//!   falls due with another event filed at that same instant, an order the
//!   elided ticks would have decided; nor does any event fall due and
//!   count as filed with the callback a packet sent ahead stands for;
//! * **inbox order** — a host that absorbs packets (see
//!   [`crate::network`]) takes them in `(time, stamp)` key order, each
//!   before any later-keyed event of the host is dispatched, and the
//!   packets still waiting in its inbox are counted as on the wire.
//!
//! Violations are collected (capped) rather than panicking at the hook
//! site, so fault-injection self-tests can assert that a *specific* class
//! of corruption is caught; production runners call
//! [`AuditReport::assert_clean`] to turn any violation into a loud failure.
//!
//! An unaudited network's observer is `()`: it carries no audit state and
//! its event path no audit branch.

use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet};

use dsv_sim::{EventQueue, SimTime, Stamp};

use crate::network::NetEvent;
use crate::observer::Observer;
use crate::packet::{FlowId, NodeId, PacketId, PortId};
use crate::pool::PacketRef;

/// Cap on *recorded* violation messages (all violations are still counted).
const MAX_RECORDED: usize = 32;

/// Nanoseconds per second — the token-bucket integer scale.
const NANOS_PER_SEC: u128 = 1_000_000_000;

#[derive(Debug, Default, Clone, Copy)]
struct FlowAudit {
    sent: u64,
    delivered: u64,
    dropped: u64,
}

#[derive(Debug, Default, Clone, Copy)]
struct NodeAudit {
    /// Packets fully received at this node (`Arrive` events).
    arrivals: u64,
    /// Packets originated here by an application send.
    generated: u64,
    /// Packets put on the wire out of one of this node's ports.
    transmits: u64,
    /// Packets accounted as dropped at this node.
    drops: u64,
    /// Packets delivered to this node's application.
    delivered: u64,
}

/// The last event dispatched, or packet absorbed, at one node.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// When it fell due.
    at: SimTime,
    /// Its stamp (`None` for an event dispatched before any was popped).
    stamp: Option<Stamp>,
    /// Whether it was filed ahead (see [`Observer::on_filed_ahead`]).
    ahead: bool,
    /// Whether it was an absorbed packet.
    absorbed: bool,
}

impl Step {
    fn filed(&self) -> SimTime {
        self.stamp.map_or(self.at, Stamp::filed)
    }
}

/// An analytic token-bucket admission bound registered for one policer.
#[derive(Debug, Clone)]
struct ConformanceBound {
    node: NodeId,
    flow: FlowId,
    rate_bps: u64,
    depth_bytes: u32,
    admitted_bytes: u64,
}

/// The audit observer. One per audited [`crate::network::Network`]; see
/// module docs.
pub struct SimAudit {
    last_event: SimTime,
    events: u64,
    checks: u64,
    total_violations: u64,
    violations: Vec<String>,
    flows: Vec<(FlowId, FlowAudit)>,
    nodes: Vec<NodeAudit>,
    /// Sent-but-not-yet-delivered/dropped packets: (flow, id) → size.
    /// Packet ids are issued per flow, so the flow belongs in the key.
    outstanding: HashMap<(u32, u64), u32>,
    /// Last packet id transmitted per (node, port, flow).
    port_last_tx: HashMap<(u32, u16, u32), u64>,
    /// Last packet id delivered per flow.
    flow_last_rx: Vec<(FlowId, u64)>,
    bounds: Vec<ConformanceBound>,
    /// `Arrive`s filed at the end of a chain walk and not yet dispatched:
    /// the packet, its destination, when it is due there, and when its
    /// last walked hop began to serialize (the instant per-hop dispatch
    /// would have filed it).
    chain_due: Vec<(PacketRef, NodeId, SimTime, SimTime)>,
    /// Per node, when a walked packet's `Arrive` was last dispatched
    /// there and when its last walked hop began to serialize.
    chain_exit_at: Vec<Option<(SimTime, SimTime)>>,
    /// Per chain port, when its last walked transmission began and ends.
    chain_free_at: HashMap<(u32, u16), (SimTime, SimTime)>,
    /// Events stamped as filed after the instant their stamp was drawn
    /// (see [`Observer::on_filed_ahead`]), not yet dispatched.
    ahead_due: HashSet<Stamp>,
    /// How many of them fall due at each instant and count as filed at
    /// each instant: `(due, filed)`.
    ahead_keys: HashMap<(SimTime, SimTime), u32>,
    /// The instant such events last fired at, and the instants each of
    /// those counts as filed at.
    ahead_fired: (SimTime, Vec<SimTime>),
    /// The callbacks packets sent ahead stand for, not yet reached:
    /// `(due, filed)`.
    sent_ahead: BTreeSet<(SimTime, SimTime)>,
    /// Per node, the keys of the packets waiting in its inbox, each with
    /// whether it was filed ahead (see [`Observer::on_inbox`]).
    inbox: Vec<BTreeMap<(SimTime, Stamp), bool>>,
    /// Per node, the last event dispatched or packet absorbed there.
    last_step: Vec<Option<Step>>,
    finished: bool,
}

impl SimAudit {
    /// A new observer for a network of `node_count` nodes.
    pub(crate) fn new(node_count: usize) -> Self {
        SimAudit {
            last_event: SimTime::ZERO,
            events: 0,
            checks: 0,
            total_violations: 0,
            violations: Vec::new(),
            flows: Vec::new(),
            nodes: vec![NodeAudit::default(); node_count],
            outstanding: HashMap::new(),
            port_last_tx: HashMap::new(),
            flow_last_rx: Vec::new(),
            bounds: Vec::new(),
            chain_due: Vec::new(),
            chain_exit_at: vec![None; node_count],
            chain_free_at: HashMap::new(),
            ahead_due: HashSet::new(),
            ahead_keys: HashMap::new(),
            ahead_fired: (SimTime::ZERO, Vec::new()),
            sent_ahead: BTreeSet::new(),
            inbox: vec![BTreeMap::new(); node_count],
            last_step: vec![None; node_count],
            finished: false,
        }
    }

    /// Register the analytic admission bound of a policer: traffic of
    /// `flow` transmitted out of `node` must satisfy
    /// `admitted_bytes · 8 ≤ depth_bytes · 8 + rate_bps · t` at all times
    /// (the token bucket starts full at `t = 0`).
    ///
    /// The check runs at *transmit* time, which is at or after the policing
    /// decision — later only loosens the bound, so a conformant policer can
    /// never trip it, while an over-admitting one (or a skewed clock feeding
    /// it) must.
    pub fn register_conformance_bound(
        &mut self,
        node: NodeId,
        flow: FlowId,
        rate_bps: u64,
        depth_bytes: u32,
    ) {
        self.bounds.push(ConformanceBound {
            node,
            flow,
            rate_bps,
            depth_bytes,
            admitted_bytes: 0,
        });
    }

    fn violation(&mut self, msg: String) {
        self.total_violations += 1;
        if self.violations.len() < MAX_RECORDED {
            self.violations.push(msg);
        }
    }

    fn flow_entry(&mut self, flow: FlowId) -> &mut FlowAudit {
        if let Some(i) = self.flows.iter().position(|(f, _)| *f == flow) {
            return &mut self.flows[i].1;
        }
        self.flows.push((flow, FlowAudit::default()));
        &mut self.flows.last_mut().expect("just pushed").1
    }

    /// End-of-run conservation closure, once. `pool_live` is the number
    /// of packets parked in the in-flight pool, those waiting in an inbox
    /// included; `held[i]` is the number of packets physically held at
    /// node `i` (port queues + conditioner), and `waiting[i]` the number
    /// waiting in its inbox.
    pub(crate) fn finish(&mut self, pool_live: usize, held: &[u64], waiting: &[u64]) {
        if self.finished {
            return;
        }
        self.finished = true;

        // Per inbox: every packet filed there and not yet absorbed still
        // waits there, parked in the pool with the packets on the wire.
        for (i, &w) in waiting.iter().enumerate() {
            let filed = self.inbox[i].len() as u64;
            if w != filed {
                self.violation(format!(
                    "conservation: node {i}'s inbox holds {w} packets, but \
                     {filed} were filed there and not absorbed"
                ));
            }
        }

        // Per node: everything that entered (arrived or was generated)
        // either left (transmit), terminated (delivered / dropped), or is
        // still held here.
        for (i, n) in self.nodes.clone().iter().enumerate() {
            let inflow = n.arrivals + n.generated;
            let outflow = n.transmits + n.drops + n.delivered + held[i];
            if inflow != outflow {
                self.violation(format!(
                    "conservation: node {i} saw {inflow} packets in \
                     (arrivals {} + generated {}) but {outflow} out \
                     (transmits {} + drops {} + delivered {} + held {})",
                    n.arrivals, n.generated, n.transmits, n.drops, n.delivered, held[i]
                ));
            }
        }

        // Per flow: sent = delivered + dropped + in-flight.
        let mut inflight: Vec<(FlowId, u64)> = Vec::new();
        for &(flow, _) in self.outstanding.keys() {
            let flow = FlowId(flow);
            match inflight.iter_mut().find(|(f, _)| *f == flow) {
                Some((_, n)) => *n += 1,
                None => inflight.push((flow, 1)),
            }
        }
        for (flow, f) in self.flows.clone() {
            let still = inflight
                .iter()
                .find(|(g, _)| *g == flow)
                .map_or(0, |&(_, n)| n);
            if f.sent != f.delivered + f.dropped + still {
                self.violation(format!(
                    "conservation: flow {} sent {} != delivered {} + dropped {} \
                     + in-flight {}",
                    flow.0, f.sent, f.delivered, f.dropped, still
                ));
            }
        }

        // Globally: every unaccounted packet must be physically somewhere —
        // parked in the pool (on the wire) or held at a node. A leak (a
        // conditioner that swallowed a packet, a double-free that vacated a
        // slot) breaks this equation.
        let held_total: u64 = held.iter().sum();
        let outstanding = self.outstanding.len() as u64;
        if outstanding != pool_live as u64 + held_total {
            self.violation(format!(
                "conservation: {outstanding} packets unaccounted but only \
                 {pool_live} on the wire + {held_total} held at nodes"
            ));
        }
    }

    /// Whether `packet`'s arrival at `node` at `now`, filed at `filed`, or
    /// any other event there (`packet` is `None`), sorts against a walked
    /// packet's arrival there as per-hop dispatch would have sorted it.
    fn chain_tie(&mut self, node: NodeId, now: SimTime, filed: SimTime, packet: Option<PacketRef>) {
        let exit = packet.and_then(|packet| {
            self.chain_due
                .iter()
                .position(|&(p, ..)| p == packet)
                .map(|i| self.chain_due.swap_remove(i).3)
        });
        // Dispatched after a walked arrival, an event must have been filed
        // after that arrival would have been; dispatched before one, it
        // must have been filed before.
        let after = matches!(self.chain_exit_at[node.0 as usize],
            Some((at, last_hop)) if at == now && filed <= last_hop);
        let before = self
            .chain_due
            .iter()
            .any(|&(_, due_node, at, last_hop)| due_node == node && at == now && filed >= last_hop);
        if after || before {
            self.violation(format!(
                "chain-tie: an event at node {} at {now:?} filed at {filed:?} \
                 may sort the other way against a walked packet's arrival",
                node.0
            ));
        }
        if let Some(last_hop) = exit {
            self.chain_exit_at[node.0 as usize] = Some((now, last_hop));
        }
    }

    /// The inbox oracle, and the host's own half of the tick-tie oracle,
    /// for `step`, an event dispatched or a packet absorbed at `node`.
    ///
    /// A host takes what it absorbs in key order, interleaved with its
    /// events: no packet may still wait in its inbox keyed before `step`.
    /// An absorbed packet's order against the events of other nodes moves
    /// nothing (its callback touches only the host's own state), so it is
    /// held to the tick-tie rule against its own host's events alone:
    /// events there at one instant that count as filed at one instant
    /// come one after another in key order, so a neighbouring pair of them
    /// with one absorbed and either filed ahead is reported.
    fn host_step(&mut self, node: NodeId, step: Step) {
        let n = node.0 as usize;
        let key = (step.at, step.stamp);
        if let Some(&(at, stamp)) = self.inbox[n].keys().next() {
            if (at, Some(stamp)) < key {
                self.violation(format!(
                    "inbox: a packet due at {at:?} waits in node {n}'s inbox \
                     past an event or absorbed packet there due at {:?}",
                    step.at
                ));
            }
        }
        if let Some(last) = self.last_step[n] {
            if (last.at, last.stamp) >= key {
                self.violation(format!(
                    "inbox: node {n} took a packet due at {:?} after one keyed \
                     later, due at {:?}",
                    step.at, last.at
                ));
            }
            let tied = (last.absorbed || step.absorbed)
                && (last.ahead || step.ahead)
                && last.at == step.at
                && last.filed() == step.filed();
            if tied {
                self.violation(format!(
                    "tick-tie: an absorbed packet and another event at node \
                     {n} fall due at {:?} counting as filed at {:?}, one of \
                     them filed ahead",
                    step.at,
                    step.filed()
                ));
            }
        }
        self.last_step[n] = Some(step);
    }

    /// Snapshot the audit outcome.
    pub(crate) fn report(&self) -> AuditReport {
        AuditReport {
            events: self.events,
            checks: self.checks,
            total_violations: self.total_violations,
            violations: self.violations.clone(),
            finished: self.finished,
        }
    }
}

impl Observer for SimAudit {
    /// Per-hop dispatch would have filed a walked packet's `Arrive` when
    /// its last hop began to serialize, so against another event due at
    /// the same node and instant it would have sorted by filing instant:
    /// after every event filed earlier, before every event filed later,
    /// and either way against one filed at that same instant. Any event
    /// at a walked packet's node and instant whose actual order breaks
    /// that rule, or hangs on the same-instant case, is reported.
    ///
    /// An event stamped as filed after the instant its stamp was drawn (a
    /// timer standing for the last of a chain of timers that were never
    /// dispatched, or the last event of a packet sent ahead) would have
    /// drawn its sequence number at its filing instant. Against another
    /// event due at the same instant and filed at that same instant, that
    /// number would have decided the order, so any such pair is reported,
    /// whichever node the other event is at. So is an event due and filed
    /// with the callback a packet sent ahead stands for: it would have
    /// been dispatched, and its send recorded, in an order only those
    /// numbers decide.
    fn on_event(&mut self, now: SimTime, event: &NetEvent, queue: &EventQueue<NetEvent>) {
        self.events += 1;
        if now < self.last_event {
            let last = self.last_event;
            self.violation(format!(
                "causality: event at {now:?} dispatched after {last:?}"
            ));
        }
        self.last_event = now;
        let node = event.node();
        let filed = queue.last_stamp().map_or(now, |s| s.filed());
        let packet = match *event {
            NetEvent::Arrive { packet, .. } | NetEvent::Drop { packet, .. } => Some(packet),
            _ => None,
        };
        self.chain_tie(node, now, filed, packet);
        let own = queue
            .last_stamp()
            .is_some_and(|s| self.ahead_due.remove(&s));
        if own {
            if let Some(n) = self.ahead_keys.get_mut(&(now, filed)) {
                *n -= 1;
                if *n == 0 {
                    self.ahead_keys.remove(&(now, filed));
                }
            }
        }
        if self.ahead_fired.0 != now {
            self.ahead_fired.0 = now;
            self.ahead_fired.1.clear();
        }
        while self.sent_ahead.first().is_some_and(|&(due, _)| due < now) {
            self.sent_ahead.pop_first();
        }
        let tied = self.ahead_fired.1.contains(&filed)
            || self.ahead_keys.contains_key(&(now, filed))
            || self.sent_ahead.contains(&(now, filed));
        if tied {
            self.violation(format!(
                "tick-tie: an event at node {} at {now:?} filed at {filed:?} \
                 falls due with an event filed ahead (a wake-up that skipped \
                 ticks, or a packet sent ahead) or with the send of a packet \
                 sent ahead, either counting as filed at the same instant",
                node.0
            ));
        }
        if own {
            self.ahead_fired.1.push(filed);
        }
        self.host_step(
            node,
            Step {
                at: now,
                stamp: queue.last_stamp(),
                ahead: own,
                absorbed: false,
            },
        );
    }

    fn on_filed_ahead(&mut self, stamp: Stamp, at: SimTime) {
        self.ahead_due.insert(stamp);
        *self.ahead_keys.entry((at, stamp.filed())).or_insert(0) += 1;
    }

    fn on_sent_ahead(&mut self, at: SimTime, filed: SimTime) {
        self.sent_ahead.insert((at, filed));
    }

    fn on_sent(&mut self, flow: FlowId, id: PacketId, size: u32, node: NodeId) {
        self.checks += 1;
        self.flow_entry(flow).sent += 1;
        self.nodes[node.0 as usize].generated += 1;
        if self.outstanding.insert((flow.0, id.0), size).is_some() {
            self.violation(format!(
                "conservation: flow {} packet id {} sent twice",
                flow.0, id.0
            ));
        }
    }

    fn on_arrive(&mut self, node: NodeId) {
        self.nodes[node.0 as usize].arrivals += 1;
    }

    fn on_inbox(&mut self, node: NodeId, at: SimTime, stamp: Stamp, ahead: bool) {
        self.checks += 1;
        if self.inbox[node.0 as usize]
            .insert((at, stamp), ahead)
            .is_some()
        {
            self.violation(format!(
                "inbox: node {} filed two packets under one key, due at {at:?}",
                node.0
            ));
        }
    }

    /// An absorbed packet's tick ties are checked against its host's own
    /// events only ([`SimAudit::host_step`]), so a packet filed ahead in an
    /// inbox never enters the global tick-tie ledger.
    fn on_absorbed(&mut self, at: SimTime, stamp: Stamp, node: NodeId, packet: PacketRef) {
        self.checks += 1;
        self.nodes[node.0 as usize].arrivals += 1;
        let Some(ahead) = self.inbox[node.0 as usize].remove(&(at, stamp)) else {
            self.violation(format!(
                "inbox: node {} absorbed a packet due at {at:?} that was never \
                 filed in its inbox",
                node.0
            ));
            return;
        };
        self.chain_tie(node, at, stamp.filed(), Some(packet));
        self.host_step(
            node,
            Step {
                at,
                stamp: Some(stamp),
                ahead,
                absorbed: true,
            },
        );
    }

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
        self.nodes[node.0 as usize].arrivals += 1;
        self.on_transmit(start, node, port, flow, id, size);
        self.chain_free_at
            .insert((node.0, port.0), (start, free_at));
    }

    fn on_chain_filed(&mut self, packet: PacketRef, node: NodeId, at: SimTime, last_hop: SimTime) {
        self.chain_due.push((packet, node, at, last_hop));
    }

    /// If the port's last walked
    /// transmission ends at this very instant, per-hop dispatch would have
    /// found it busy iff the arrival was filed before that transmission
    /// began; filed at that same instant, it could have gone either way.
    fn on_relay_arrive(
        &mut self,
        now: SimTime,
        node: NodeId,
        port: PortId,
        busy: bool,
        queue: &EventQueue<NetEvent>,
    ) {
        let Some(&(start, free_at)) = self.chain_free_at.get(&(node.0, port.0)) else {
            return;
        };
        let filed = queue.last_stamp().map_or(now, |s| s.filed());
        if free_at == now && (filed == start || busy != (filed < start)) {
            self.violation(format!(
                "chain-tie: a per-hop packet filed at {filed:?} reached node {} \
                 port {} at {now:?}, as a walked transmission begun at {start:?} \
                 ends, and found the port {}",
                node.0,
                port.0,
                if busy { "busy" } else { "idle" }
            ));
        }
    }

    /// Per-hop dispatch would decide this admission by the order of two
    /// stamps filed at the same instant.
    fn on_admission_tie(&mut self, at: SimTime, node: NodeId, port: PortId) {
        self.violation(format!(
            "chain-tie: admission at node {} port {} at {at:?} hangs on a \
             walked packet that starts serializing at the same instant",
            node.0, port.0
        ));
    }

    fn on_transmit(
        &mut self,
        now: SimTime,
        node: NodeId,
        port: PortId,
        flow: FlowId,
        id: PacketId,
        size: u32,
    ) {
        self.checks += 1;
        self.nodes[node.0 as usize].transmits += 1;

        // In-flight integrity: the size must match what was sent.
        if let Some(&sent_size) = self.outstanding.get(&(flow.0, id.0)) {
            if sent_size != size {
                self.violation(format!(
                    "integrity: packet {} size changed in flight ({} -> {} bytes at node {})",
                    id.0, sent_size, size, node.0
                ));
            }
        }

        // Per-(node, port, flow) FIFO: ids are issued in send order, so the
        // sequence leaving any single port for one flow must be increasing.
        let key = (node.0, port.0, flow.0);
        if let Some(&last) = self.port_last_tx.get(&key) {
            if id.0 <= last {
                self.violation(format!(
                    "fifo: node {} port {} flow {} transmitted packet {} after {}",
                    node.0, port.0, flow.0, id.0, last
                ));
            }
        }
        self.port_last_tx.insert(key, id.0);

        // Token-bucket conformance for registered policer egresses.
        let mut pending: Option<String> = None;
        for b in &mut self.bounds {
            if b.node == node && b.flow == flow {
                b.admitted_bytes += u64::from(size);
                let admitted_bits = u128::from(b.admitted_bytes) * 8 * NANOS_PER_SEC;
                let budget_bits = u128::from(b.depth_bytes) * 8 * NANOS_PER_SEC
                    + u128::from(b.rate_bps) * u128::from(now.as_nanos());
                if admitted_bits > budget_bits {
                    pending = Some(format!(
                        "conformance: node {} flow {} admitted {} bytes by {:?}, \
                         exceeding depth {} B + rate {} bps bound",
                        node.0, flow.0, b.admitted_bytes, now, b.depth_bytes, b.rate_bps
                    ));
                }
            }
        }
        if let Some(msg) = pending {
            self.violation(msg);
        }
    }

    fn on_delivered(&mut self, flow: FlowId, id: PacketId, size: u32, node: NodeId) {
        self.checks += 1;
        self.nodes[node.0 as usize].delivered += 1;
        self.flow_entry(flow).delivered += 1;

        match self.outstanding.remove(&(flow.0, id.0)) {
            None => self.violation(format!(
                "conservation: packet {} delivered at node {} but never sent, \
                 or delivered twice",
                id.0, node.0
            )),
            Some(sent_size) if sent_size != size => self.violation(format!(
                "integrity: packet {} delivered with size {} B, sent with {} B",
                id.0, size, sent_size
            )),
            Some(_) => {}
        }

        // Per-flow delivery FIFO.
        if let Some(i) = self.flow_last_rx.iter().position(|(f, _)| *f == flow) {
            let last = self.flow_last_rx[i].1;
            if id.0 <= last {
                self.violation(format!(
                    "fifo: flow {} delivered packet {} after {}",
                    flow.0, id.0, last
                ));
            }
            self.flow_last_rx[i].1 = id.0;
        } else {
            self.flow_last_rx.push((flow, id.0));
        }
    }

    fn on_dropped(&mut self, flow: FlowId, id: PacketId, size: u32, node: NodeId) {
        self.checks += 1;
        self.nodes[node.0 as usize].drops += 1;
        self.flow_entry(flow).dropped += 1;
        match self.outstanding.remove(&(flow.0, id.0)) {
            None => self.violation(format!(
                "conservation: packet {} dropped at node {} but never sent, \
                 or already accounted",
                id.0, node.0
            )),
            Some(sent_size) if sent_size != size => self.violation(format!(
                "integrity: packet {} dropped with size {} B, sent with {} B",
                id.0, size, sent_size
            )),
            Some(_) => {}
        }
    }
}

/// Outcome of an audited run (see
/// [`Network::audit_report`](crate::network::Network::audit_report)).
#[derive(Debug, Clone)]
pub struct AuditReport {
    /// Events observed by the causality oracle.
    pub events: u64,
    /// Lifecycle hook invocations checked.
    pub checks: u64,
    /// Total violations detected (including ones beyond the recording cap).
    pub total_violations: u64,
    /// First few violation messages, for diagnostics.
    pub violations: Vec<String>,
    /// Whether end-of-run conservation closure ran.
    pub finished: bool,
}

impl AuditReport {
    /// Panic with every recorded violation if any invariant was broken.
    pub fn assert_clean(&self, label: &str) {
        assert!(
            self.total_violations == 0,
            "audit: {} violation(s) in {label}:\n  {}",
            self.total_violations,
            self.violations.join("\n  ")
        );
    }

    /// True if any violation message contains `needle` — self-tests use
    /// this to pin a fault class to the oracle that must catch it.
    pub fn has_violation_matching(&self, needle: &str) -> bool {
        self.violations.iter().any(|v| v.contains(needle))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Dscp, Packet, Proto};
    use crate::pool::PacketPool;
    use dsv_sim::SimDuration;

    const HOST: NodeId = NodeId(1);

    fn at(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    /// A parked packet to name in the hooks.
    fn packet(pool: &mut PacketPool<()>, id: u64) -> PacketRef {
        pool.insert(Packet {
            id: PacketId(id),
            flow: FlowId(1),
            src: NodeId(0),
            dst: HOST,
            size: 100,
            dscp: Dscp::BEST_EFFORT,
            proto: Proto::Udp,
            fragment: None,
            sent_at: SimTime::ZERO,
            payload: (),
        })
    }

    /// A queue whose last dispatched event, a timer at `HOST`, fell due
    /// at `due` filed at `filed`, and that event.
    fn dispatched_timer(
        queue: &mut EventQueue<NetEvent>,
        due: SimTime,
        filed: SimTime,
    ) -> NetEvent {
        let stamp = queue.reserve_filed_at(filed);
        let timer = NetEvent::Timer {
            node: HOST,
            token: 0,
        };
        queue.schedule_reserved(due, stamp, timer);
        queue.pop().expect("the timer is due").1
    }

    #[test]
    fn packets_absorbed_in_key_order_between_their_hosts_events_are_clean() {
        let mut audit = SimAudit::new(2);
        let mut pool = PacketPool::with_capacity(2);
        let mut queue = EventQueue::new();
        let early = queue.reserve();
        let late = queue.reserve();
        audit.on_inbox(HOST, at(5), late, false);
        audit.on_inbox(HOST, at(3), early, false);
        audit.on_absorbed(at(3), early, HOST, packet(&mut pool, 0));
        let timer = dispatched_timer(&mut queue, at(4), SimTime::ZERO);
        audit.on_event(at(4), &timer, &queue);
        audit.on_absorbed(at(5), late, HOST, packet(&mut pool, 1));
        assert!(!audit.report().has_violation_matching("inbox:"));
        assert!(!audit.report().has_violation_matching("tick-tie:"));
    }

    #[test]
    fn a_packet_absorbed_out_of_key_order_is_reported() {
        let mut audit = SimAudit::new(2);
        let mut pool = PacketPool::with_capacity(2);
        let mut queue = EventQueue::<NetEvent>::new();
        let (early, late) = (queue.reserve(), queue.reserve());
        audit.on_inbox(HOST, at(3), early, false);
        audit.on_inbox(HOST, at(5), late, false);
        audit.on_absorbed(at(5), late, HOST, packet(&mut pool, 1));
        audit.on_absorbed(at(3), early, HOST, packet(&mut pool, 0));
        let report = audit.report();
        assert!(
            report.has_violation_matching("inbox:"),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn a_packet_still_waiting_at_a_later_event_of_its_host_is_reported() {
        let mut audit = SimAudit::new(2);
        let mut queue = EventQueue::new();
        audit.on_inbox(HOST, at(3), queue.reserve(), false);
        let timer = dispatched_timer(&mut queue, at(4), SimTime::ZERO);
        audit.on_event(at(4), &timer, &queue);
        let report = audit.report();
        assert!(
            report.has_violation_matching("inbox:"),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn an_inbox_holding_other_than_what_was_filed_is_a_conservation_violation() {
        let mut audit = SimAudit::new(2);
        let mut pool = PacketPool::with_capacity(1);
        let mut queue = EventQueue::<NetEvent>::new();
        audit.on_inbox(HOST, at(3), queue.reserve(), false);
        packet(&mut pool, 0);
        // The packet is still parked (so the global equation holds), but
        // the network reports an empty inbox.
        audit.on_sent(FlowId(1), PacketId(0), 100, NodeId(0));
        audit.finish(pool.live(), &[0, 0], &[0, 0]);
        let report = audit.report();
        assert!(
            report.has_violation_matching("inbox holds 0 packets, but 1 were filed"),
            "{:?}",
            report.violations
        );
    }

    #[test]
    fn an_absorbed_packet_filed_ahead_due_and_filed_with_its_hosts_event_is_a_tick_tie() {
        for (filed, tied) in [(at(2), true), (at(2) + SimDuration::from_nanos(1), false)] {
            let mut audit = SimAudit::new(2);
            let mut pool = PacketPool::with_capacity(1);
            let mut queue = EventQueue::new();
            let ahead = queue.reserve_filed_at(at(2));
            audit.on_inbox(HOST, at(4), ahead, true);
            // The packet's key is the earlier: it is absorbed first.
            audit.on_absorbed(at(4), ahead, HOST, packet(&mut pool, 0));
            let timer = dispatched_timer(&mut queue, at(4), filed);
            audit.on_event(at(4), &timer, &queue);
            let report = audit.report();
            assert!(!report.has_violation_matching("inbox:"));
            assert_eq!(
                report.has_violation_matching("tick-tie:"),
                tied,
                "{:?}",
                report.violations
            );
        }
    }
}
