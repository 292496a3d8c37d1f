//! The network world: topology, routing, forwarding, and the event loop
//! glue.
//!
//! A [`Network`] owns hosts (with [`Application`]s), routers (with optional
//! ingress [`Conditioner`]s), ports (with [`Qdisc`]s and [`Link`]s), and a
//! [`NetStats`] collector. It implements [`dsv_sim::World`] over
//! [`NetEvent`]; the [`Simulation`] wrapper bundles it with an event queue
//! and start-up scheduling.
//!
//! Forwarding is store-and-forward: a packet is fully received at a node
//! (serialization + propagation of the upstream link) before it is
//! conditioned, routed, queued and re-serialized. Routing tables are
//! computed once at build time by breadth-first search, so any connected
//! topology works without manual route entry.
//!
//! Forwarding is not one event per hop. A *chain hop* is a port of a
//! router without a conditioner that only one incoming link feeds. The
//! feeders are read at build time off the routes of the traffic the hosts
//! may send: each host declares the one destination its application sends
//! to, or that it sends nothing ([`NetworkBuilder::declare_traffic`]), and
//! a host that declares nothing may send to every host. A declared host
//! that sends anywhere else panics at that packet, so every packet that
//! reaches a chain port arrives over its one feeder.
//!
//! When any port puts a packet on the wire toward a router with chain
//! hops, the network walks the packet through the chain hops ahead of it
//! on the spot — the Lindley recursion
//! `start = max(arrival, free_at)`, `free_at = start + serialization`,
//! `next arrival = free_at + propagation`, with drop-tail admission
//! counted against the walked packets still waiting at each port — and
//! files one `Arrive` at the first node that conditions, merges feeders
//! or hosts an application. The walk only crosses a port where the packet
//! joins a first-come first-served band ([`Qdisc::fifo_band`]) with no
//! per-hop packet ahead of it; anywhere else the hop is dispatched as
//! before. The `Arrive` is stamped as filed when its last hop began to
//! serialize ([`EventQueue::reserve_filed_at`]), so it sorts against
//! every event filed at any other instant exactly as the last hop's eager
//! `Arrive` would have (DESIGN.md §6b, "Hop chains").
//!
//! An output port's "finished serializing" wake-up
//! ([`NetEvent::PortReady`]) is dispatched only when a packet is waiting
//! for it. Starting a transmission reserves the wake-up's stamp in the
//! event queue ([`EventQueue::reserve`]) — exactly where scheduling it
//! would have — and the port counts as busy while that reserved
//! `(time, stamp)` key is still ahead of the queue. The first packet that
//! queues behind the transmission files the wake-up under the reserved
//! key ([`EventQueue::schedule_reserved`]); a wake-up that would find the
//! port's queue empty is never dispatched at all. Every other event keeps
//! its exact delivery position (DESIGN.md §6b).
//!
//! A network calls its [`Observer`] at every step of a packet's life; the
//! one that [`NetworkBuilder::build`] returns is unobserved (`()`), and
//! [`Network::audited`] hands it to a [`SimAudit`] before the run.

use std::collections::VecDeque;

use dsv_sim::{EventQueue, SimDuration, SimTime, Stamp, World};

use crate::app::{AppCommand, AppCtx, Application};
use crate::audit::{AuditReport, SimAudit};
use crate::conditioner::{ConditionOutcome, Conditioner, QuickVerdict};
use crate::link::Link;
use crate::observer::Observer;
use crate::packet::{DropReason, Dscp, FlowId, NodeId, Packet, PacketId, PortId};
use crate::pool::{PacketPool, PacketRef};
use crate::qdisc::{DropTailQueue, FifoBand, Qdisc, QueueLimits};
use crate::stats::NetStats;

/// Events the network world handles.
///
/// Deliberately small (16 bytes) and payload-free: in-flight packets live
/// in the network's [`PacketPool`] and events carry only a [`PacketRef`],
/// so queue entries stay compact and forwarding allocates nothing.
#[derive(Debug)]
pub enum NetEvent {
    /// Deliver the start callback to a host's application.
    Start(NodeId),
    /// Fire an application timer.
    Timer {
        /// Host whose application set the timer.
        node: NodeId,
        /// Opaque token from [`crate::app::AppCtx::set_timer`].
        token: u64,
    },
    /// A packet has fully arrived at `node`.
    Arrive {
        /// Receiving node.
        node: NodeId,
        /// Handle to the packet, parked in the network's pool while on
        /// the wire.
        packet: PacketRef,
    },
    /// An output port finished serializing its current packet and has
    /// more queued. Filed under the sequence number reserved when the
    /// transmission began, and only once a packet waits for the port.
    PortReady {
        /// Node owning the port.
        node: NodeId,
        /// The port.
        port: PortId,
    },
    /// Poll `node`'s conditioner for shaped packets that became conformant.
    CondPoll(NodeId),
}

impl NetEvent {
    /// The node the event is dispatched to.
    pub fn node(&self) -> NodeId {
        match *self {
            NetEvent::Start(node)
            | NetEvent::Timer { node, .. }
            | NetEvent::Arrive { node, .. }
            | NetEvent::PortReady { node, .. }
            | NetEvent::CondPoll(node) => node,
        }
    }
}

struct Port<P> {
    link: Link,
    peer: NodeId,
    qdisc: Box<dyn Qdisc<P> + Send>,
    /// End of the current (or last) transmission's serialization: when
    /// the port's [`NetEvent::PortReady`] falls due.
    free_at: SimTime,
    /// Queue stamp reserved for that `PortReady` when the transmission
    /// began. While busy, the event is filed in the queue iff
    /// `queued > 0`.
    ready: Stamp,
    /// Packets currently inside `qdisc`, mirrored here so the hot paths
    /// (is the port drained? can a packet pass straight through?) answer
    /// without a virtual call. Maintained by the only two call sites that
    /// mutate the discipline.
    queued: u32,
    /// Cached [`Qdisc::direct_admit_cap`]: with the port idle and drained,
    /// a packet of `size <= direct_cap` bytes transmits straight through
    /// without touching the discipline.
    direct_cap: u32,
    /// Last `(size, serialization time)` computed for this port. Streams
    /// send runs of equal-sized packets, so this one-entry memo removes a
    /// 128-bit division from almost every transmission.
    ser_memo: (u32, SimDuration),
    /// A chain hop: a port of a router without a conditioner whose
    /// traffic all arrives over one incoming link. A packet bound here in
    /// a FIFO band is walked through the port when the packet ahead of it
    /// is transmitted, not dispatched (see the module docs).
    chain: bool,
    /// Per-hop `Arrive`s in flight toward this chain port. A packet is
    /// walked through the port only while none is ahead of it.
    pending: u32,
    /// Walked packets that have reached the port but not started
    /// serializing, oldest first: the FIFO band's virtual content, which
    /// every admission at the port counts.
    waiting: VecDeque<Waiting>,
    /// Bytes in `waiting`.
    waiting_bytes: u64,
}

enum NodeKind {
    Host { start_at: SimTime },
    Router,
}

/// Where a host's application sends, as declared to the builder.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Sends {
    /// Undeclared: to any host.
    Anywhere,
    /// To this host only.
    To(NodeId),
    /// Nothing (a sink, and every router).
    Nothing,
}

struct Node<P> {
    kind: NodeKind,
    name: String,
    /// Where the node's application may send; any other destination
    /// panics (see [`NetworkBuilder::declare_traffic`]).
    sends: Sends,
    ports: Vec<Port<P>>,
    /// Next-hop port toward each destination, indexed by destination
    /// node id (`None` for non-host destinations). A flat vector: route
    /// lookup is per packet per hop, far too hot for hashing.
    routes: Vec<Option<PortId>>,
    /// Whether any of the node's ports is a chain hop: the one test a
    /// transmission toward a node that is not a relay pays.
    relay: bool,
}

impl<P> Port<P> {
    fn new(link: Link, peer: NodeId, qdisc: Box<dyn Qdisc<P> + Send>) -> Port<P> {
        Port {
            link,
            peer,
            direct_cap: qdisc.direct_admit_cap(),
            qdisc,
            free_at: SimTime::ZERO,
            ready: Stamp::default(),
            queued: 0,
            ser_memo: (0, SimDuration::ZERO),
            chain: false,
            pending: 0,
            waiting: VecDeque::new(),
            waiting_bytes: 0,
        }
    }

    /// Whether the port is still serializing: its `PortReady` key has not
    /// been reached by the queue. (A never-used port's `(ZERO, 0)` key is
    /// behind every dispatched event.)
    #[inline]
    fn busy(&self, queue: &EventQueue<NetEvent>) -> bool {
        queue.is_ahead(self.free_at, self.ready)
    }

    /// Serialization time of a `size`-byte packet on this port's link.
    #[inline]
    fn serialization(&mut self, size: u32) -> SimDuration {
        if self.ser_memo.0 != size {
            self.ser_memo = (size, self.link.serialization(size));
        }
        self.ser_memo.1
    }

    /// Whether `band` admits a `size`-byte packet that reaches the port
    /// at `at` by an `Arrive` filed at `filed`, counting the walked
    /// packets still waiting then.
    ///
    /// A walked packet that starts serializing exactly at `at` was started
    /// by the port's `PortReady`, whose stamp counts as filed when the
    /// transmission ahead of it began: per-hop dispatch delivers whichever
    /// of that wake-up and the arrival was filed first, so the packet
    /// still waits iff the arrival was filed earlier. The second answer
    /// is true when both were filed at the same instant and the decision
    /// hangs on it.
    // Hinted: shared by both instantiations (see `crate::observer`).
    #[inline]
    fn admits(&mut self, band: FifoBand, at: SimTime, filed: SimTime, size: u32) -> (bool, bool) {
        while let Some(w) = self.waiting.front() {
            if w.start > at || (w.start == at && filed <= w.behind) {
                break;
            }
            self.waiting_bytes -= u64::from(w.size);
            self.waiting.pop_front();
        }
        let len = band.len + self.waiting.len();
        let bytes = band.bytes + self.waiting_bytes;
        let admitted = band.admits(len, bytes, size);
        let tie = match self.waiting.front() {
            Some(w) if w.start == at && filed == w.behind => {
                admitted != band.admits(len - 1, bytes - u64::from(w.size), size)
            }
            _ => false,
        };
        (admitted, tie)
    }
}

/// A walked packet waiting at a chain port.
struct Waiting {
    /// When it starts serializing.
    start: SimTime,
    /// Its size in bytes.
    size: u32,
    /// When the transmission it waits behind began: the filing instant of
    /// the `PortReady` stamp that starts it.
    behind: SimTime,
}

/// What the chain walk reads of a packet, copied out so the walk holds no
/// borrow of the pool.
#[derive(Clone, Copy)]
struct Header {
    dst: NodeId,
    dscp: Dscp,
    size: u32,
}

impl Header {
    fn of<P>(pkt: &Packet<P>) -> Header {
        Header {
            dst: pkt.dst,
            dscp: pkt.dscp,
            size: pkt.size,
        }
    }
}

/// Builds a [`Network`].
pub struct NetworkBuilder<P> {
    nodes: Vec<Node<P>>,
    apps: Vec<Option<Box<dyn Application<P> + Send>>>,
    conditioners: Vec<Option<Box<dyn Conditioner<P> + Send>>>,
}

impl<P: Send + 'static> NetworkBuilder<P> {
    /// Start an empty topology.
    pub fn new() -> Self {
        NetworkBuilder {
            nodes: Vec::new(),
            apps: Vec::new(),
            conditioners: Vec::new(),
        }
    }

    /// Add a host running `app`, starting at t = 0.
    pub fn add_host(&mut self, name: &str, app: Box<dyn Application<P> + Send>) -> NodeId {
        self.add_host_starting(name, app, SimTime::ZERO)
    }

    /// Add a host whose application starts at `start_at`.
    pub fn add_host_starting(
        &mut self,
        name: &str,
        app: Box<dyn Application<P> + Send>,
        start_at: SimTime,
    ) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Host { start_at },
            name: name.to_string(),
            sends: Sends::Anywhere,
            ports: Vec::new(),
            routes: Vec::new(),
            relay: false,
        });
        self.apps.push(Some(app));
        self.conditioners.push(None);
        id
    }

    /// Add a router.
    pub fn add_router(&mut self, name: &str) -> NodeId {
        let id = NodeId(self.nodes.len() as u32);
        self.nodes.push(Node {
            kind: NodeKind::Router,
            name: name.to_string(),
            sends: Sends::Nothing,
            ports: Vec::new(),
            routes: Vec::new(),
            relay: false,
        });
        self.apps.push(None);
        self.conditioners.push(None);
        id
    }

    /// Connect two nodes with symmetric links and unbounded FIFO ports.
    pub fn connect(&mut self, a: NodeId, b: NodeId, link: Link) {
        self.connect_with(
            a,
            b,
            link,
            link,
            Box::new(DropTailQueue::new(QueueLimits::UNBOUNDED)),
            Box::new(DropTailQueue::new(QueueLimits::UNBOUNDED)),
        );
    }

    /// Connect two nodes with per-direction links and queueing disciplines.
    /// `qdisc_ab` sits on `a`'s port toward `b`.
    pub fn connect_with(
        &mut self,
        a: NodeId,
        b: NodeId,
        link_ab: Link,
        link_ba: Link,
        qdisc_ab: Box<dyn Qdisc<P> + Send>,
        qdisc_ba: Box<dyn Qdisc<P> + Send>,
    ) {
        assert_ne!(a, b, "self-loops are not allowed");
        self.nodes[a.0 as usize]
            .ports
            .push(Port::new(link_ab, b, qdisc_ab));
        self.nodes[b.0 as usize]
            .ports
            .push(Port::new(link_ba, a, qdisc_ba));
    }

    /// Declare where `host`'s application sends: only to `dst`, or
    /// nothing at all when `dst` is `None`. A host that declares nothing
    /// may send to any host.
    ///
    /// Chain hops are marked from the traffic the hosts may send (see
    /// [`NetworkBuilder::build`]), so a declaration can turn a port that
    /// routes alone could feed from several links into a chain hop. The
    /// declaration is enforced: the network panics, naming both nodes, at
    /// the first packet a declared host's application sends elsewhere.
    ///
    /// # Panics
    /// Panics if `host` is a router.
    pub fn declare_traffic(&mut self, host: NodeId, dst: Option<NodeId>) {
        let node = &mut self.nodes[host.0 as usize];
        assert!(
            matches!(node.kind, NodeKind::Host { .. }),
            "{} is a router; only hosts send",
            node.name
        );
        node.sends = dst.map_or(Sends::Nothing, Sends::To);
    }

    /// Attach an ingress conditioner to a router.
    pub fn set_conditioner(&mut self, node: NodeId, cond: Box<dyn Conditioner<P> + Send>) {
        assert!(
            matches!(self.nodes[node.0 as usize].kind, NodeKind::Router),
            "conditioners attach to routers"
        );
        self.conditioners[node.0 as usize] = Some(cond);
    }

    /// Finalize: compute routes and return the network.
    ///
    /// # Panics
    /// Panics if some host pair is disconnected (misbuilt topology) or a
    /// host has other than exactly one port.
    pub fn build(self) -> Network<P> {
        let NetworkBuilder {
            mut nodes,
            apps,
            conditioners,
        } = self;

        for node in &nodes {
            if matches!(node.kind, NodeKind::Host { .. }) {
                assert_eq!(
                    node.ports.len(),
                    1,
                    "host {} must have exactly one access port",
                    node.name
                );
            }
        }

        // Adjacency: (node, port index) -> peer.
        let adj: Vec<Vec<NodeId>> = nodes
            .iter()
            .map(|n| n.ports.iter().map(|p| p.peer).collect())
            .collect();

        // For each destination host, BFS from the destination over the
        // (symmetric) topology; each node's route is its port toward the
        // BFS parent direction.
        let host_ids: Vec<NodeId> = nodes
            .iter()
            .enumerate()
            .filter(|(_, n)| matches!(n.kind, NodeKind::Host { .. }))
            .map(|(i, _)| NodeId(i as u32))
            .collect();

        let node_count = nodes.len();
        for node in &mut nodes {
            node.routes = vec![None; node_count];
        }

        for &dst in &host_ids {
            let mut dist: Vec<Option<u32>> = vec![None; nodes.len()];
            dist[dst.0 as usize] = Some(0);
            let mut q = VecDeque::from([dst]);
            while let Some(u) = q.pop_front() {
                let du = dist[u.0 as usize].unwrap();
                for &v in &adj[u.0 as usize] {
                    if dist[v.0 as usize].is_none() {
                        dist[v.0 as usize] = Some(du + 1);
                        q.push_back(v);
                    }
                }
            }
            for (i, node) in nodes.iter_mut().enumerate() {
                if NodeId(i as u32) == dst {
                    continue;
                }
                let Some(di) = dist[i] else {
                    panic!("node {} has no path to host {}", node.name, dst.0);
                };
                // Pick the first port whose peer is strictly closer.
                let port = node
                    .ports
                    .iter()
                    .position(|p| dist[p.peer.0 as usize].is_some_and(|dp| dp + 1 == di))
                    .expect("BFS invariant: some neighbour is closer");
                node.routes[dst.0 as usize] = Some(PortId(port as u16));
            }
        }

        // Chain hops. A port's feeders are the neighbours from which
        // traffic enters its router and leaves by it: walk the route of
        // every (source, destination) pair the hosts may send over — each
        // declared pair, and every pair from a host that declared nothing.
        // A port of a router without a conditioner that has exactly one
        // feeder is a chain hop.
        let mut feeders: Vec<Vec<Vec<NodeId>>> = nodes
            .iter()
            .map(|n| vec![Vec::new(); n.ports.len()])
            .collect();
        for &src in &host_ids {
            let declared;
            let dsts: &[NodeId] = match nodes[src.0 as usize].sends {
                Sends::Anywhere => &host_ids,
                Sends::To(dst) => {
                    declared = [dst];
                    &declared
                }
                Sends::Nothing => &[],
            };
            for &dst in dsts {
                let mut u = src;
                while let Some(out) = nodes[u.0 as usize].routes[dst.0 as usize] {
                    let v = nodes[u.0 as usize].ports[out.0 as usize].peer;
                    if let Some(port) = nodes[v.0 as usize].routes[dst.0 as usize] {
                        let fed = &mut feeders[v.0 as usize][port.0 as usize];
                        if !fed.contains(&u) {
                            fed.push(u);
                        }
                    }
                    u = v;
                }
            }
        }
        for (i, node) in nodes.iter_mut().enumerate() {
            if !matches!(node.kind, NodeKind::Router) || conditioners[i].is_some() {
                continue;
            }
            for (port, fed) in node.ports.iter_mut().zip(&feeders[i]) {
                port.chain = fed.len() == 1;
            }
            node.relay = node.ports.iter().any(|p| p.chain);
        }

        let node_count = conditioners.len();
        Network {
            nodes,
            apps,
            conditioners,
            cond_poll_at: vec![None; node_count],
            stats: NetStats::new(),
            flow_next_id: Vec::new(),
            // Measured in-flight high-water marks (the benchmark's
            // `net.pool_high_water`): 8 packets on the paper's QBone grid,
            // 28 on the aggregate sweep, 165 on the transport runs, with
            // packets walked through hop chains held here until their one
            // `Arrive`. 64 covers the paper's grids without a mid-run
            // grow; the deep TCP queues grow the pool a couple of times
            // per run.
            pool: PacketPool::with_capacity(64),
            cmd_buf: Vec::with_capacity(8),
            observer: (),
        }
    }
}

impl<P: Send + 'static> Default for NetworkBuilder<P> {
    fn default() -> Self {
        Self::new()
    }
}

/// The simulated network (see module docs), observed by `O`.
pub struct Network<P, O = ()> {
    nodes: Vec<Node<P>>,
    apps: Vec<Option<Box<dyn Application<P> + Send>>>,
    conditioners: Vec<Option<Box<dyn Conditioner<P> + Send>>>,
    /// Earliest pending [`NetEvent::CondPoll`] per node, or `None` if no
    /// poll is outstanding. A backlogged shaper asks to be polled once per
    /// queued packet *and* once per poll that finds the head unready; without
    /// deduplication those requests pile into thousands of parallel poll
    /// chains that all fire at every release instant (a measured ~200×
    /// event-count blowup on starved-profile shaped runs). Only the earliest
    /// request needs a real event — later ones are satisfied by it.
    cond_poll_at: Vec<Option<SimTime>>,
    /// Statistics collector (public so experiments can enable tracing before
    /// the run and read counters afterwards).
    pub stats: NetStats,
    /// Next packet id **per flow** (linear scan: a run has a handful of
    /// flows). Per-flow numbering keeps a flow's ids independent of how
    /// sends from other flows interleave.
    flow_next_id: Vec<(FlowId, u64)>,
    /// In-flight packets, parked between transmission and arrival so the
    /// event queue carries only [`PacketRef`] handles.
    pool: PacketPool<P>,
    /// Reusable application command buffer: one allocation for the whole
    /// run instead of one per callback that issues commands.
    cmd_buf: Vec<AppCommand<P>>,
    /// The event-path observer (see [`crate::observer`]).
    observer: O,
}

impl<P: 'static> Network<P> {
    /// This network watched by a fresh [`SimAudit`], which checks every
    /// event and packet of the run (see [`crate::audit`]). Call before the
    /// run; [`Network::audit_report`] closes the audit after it.
    pub fn audited(self) -> Network<P, SimAudit> {
        let Network {
            nodes,
            apps,
            conditioners,
            cond_poll_at,
            stats,
            flow_next_id,
            pool,
            cmd_buf,
            observer: (),
        } = self;
        Network {
            observer: SimAudit::new(nodes.len()),
            nodes,
            apps,
            conditioners,
            cond_poll_at,
            stats,
            flow_next_id,
            pool,
            cmd_buf,
        }
    }
}

impl<P: 'static> Network<P, SimAudit> {
    /// The audit, to register conformance bounds before the run.
    pub fn audit_mut(&mut self) -> &mut SimAudit {
        &mut self.observer
    }

    /// Close the audit's end-of-run conservation equations and report.
    ///
    /// Counts the packets still physically held at each node (port queues
    /// and conditioner backlog) and on the wire, and checks them against
    /// the lifecycle ledger. Call after the run; a second call reports
    /// without closing again.
    pub fn audit_report(&mut self) -> AuditReport {
        let held: Vec<u64> = self
            .nodes
            .iter()
            .enumerate()
            .map(|(i, n)| {
                let queued: u64 = n.ports.iter().map(|p| u64::from(p.queued)).sum();
                let absorbed = self.conditioners[i].as_ref().map_or(0, |c| c.held() as u64);
                queued + absorbed
            })
            .collect();
        self.observer.finish(self.pool.live(), &held);
        self.observer.report()
    }
}

impl<P: 'static, O: Observer> Network<P, O> {
    /// Schedule the start events for every host. Call once before running.
    pub fn schedule_starts(&self, queue: &mut EventQueue<NetEvent>) {
        for (i, node) in self.nodes.iter().enumerate() {
            if let NodeKind::Host { start_at } = node.kind {
                queue.schedule(start_at, NetEvent::Start(NodeId(i as u32)));
            }
        }
    }

    /// Human-readable node name (diagnostics).
    pub fn node_name(&self, node: NodeId) -> &str {
        &self.nodes[node.0 as usize].name
    }

    /// Borrow an application back out of the network after a run (for
    /// reading collected client-side state). Panics if `node` is a router.
    pub fn app(&self, node: NodeId) -> &dyn Application<P> {
        self.apps[node.0 as usize]
            .as_deref()
            .expect("node is not a host")
    }

    /// Put `app` on `host` in place of its application. Call before the
    /// run: tests drive a reference implementation through a compiled
    /// topology this way. The new application sends under the host's
    /// declared traffic.
    pub fn replace_app(&mut self, host: NodeId, app: Box<dyn Application<P> + Send>) {
        *self.apps[host.0 as usize]
            .as_mut()
            .expect("node is not a host") = app;
    }

    fn next_packet_id(&mut self, flow: FlowId) -> PacketId {
        match self.flow_next_id.iter_mut().find(|(f, _)| *f == flow) {
            Some((_, next)) => {
                let id = *next;
                *next += 1;
                PacketId(id)
            }
            None => {
                self.flow_next_id.push((flow, 1));
                PacketId(0)
            }
        }
    }

    fn dispatch_app<F>(
        &mut self,
        now: SimTime,
        node: NodeId,
        f: F,
        queue: &mut EventQueue<NetEvent>,
    ) where
        F: FnOnce(&mut dyn Application<P>, &mut AppCtx<P>),
    {
        let idx = node.0 as usize;
        // Hand the application the network's reusable command buffer;
        // callbacks never nest (commands are executed after the callback
        // returns and only schedule events), so one buffer suffices. The
        // app stays in place — `apps` and `cmd_buf` are disjoint fields,
        // so the callback borrow never conflicts with the buffer move.
        let mut ctx = AppCtx::with_buffer(now, node, std::mem::take(&mut self.cmd_buf));
        let app = self.apps[idx].as_mut().expect("event for a router app");
        f(app.as_mut(), &mut ctx);
        let mut commands = ctx.take_commands();
        for cmd in commands.drain(..) {
            match cmd {
                AppCommand::SetTimer {
                    delay,
                    filed,
                    token,
                } => {
                    let timer = NetEvent::Timer { node, token };
                    if filed == now {
                        queue.schedule(now + delay, timer);
                    } else {
                        let stamp = queue.reserve_filed_at(filed);
                        queue.schedule_reserved(now + delay, stamp, timer);
                        self.observer.on_timer_filed(stamp, now + delay);
                    }
                }
                AppCommand::Send(spec) => {
                    match self.nodes[idx].sends {
                        Sends::To(dst) if dst == spec.dst => {}
                        Sends::Anywhere => {}
                        _ => self.undeclared_send(node, spec.dst),
                    }
                    let id = self.next_packet_id(spec.flow);
                    let pkt = Packet {
                        id,
                        flow: spec.flow,
                        src: node,
                        dst: spec.dst,
                        size: spec.size,
                        dscp: spec.dscp,
                        proto: spec.proto,
                        fragment: spec.fragment,
                        sent_at: now,
                        payload: spec.payload,
                    };
                    self.stats.on_sent(now, pkt.flow, pkt.id, pkt.size, node);
                    self.observer.on_sent(pkt.flow, pkt.id, pkt.size, node);
                    // Hosts have exactly one port (asserted at build).
                    self.enqueue_on_port(now, node, PortId(0), pkt, queue);
                }
            }
        }
        self.cmd_buf = commands;
    }

    /// Abort on a packet a host sends to a destination it did not
    /// declare: the chain hops were marked without that traffic.
    #[cold]
    #[inline(never)]
    fn undeclared_send(&self, node: NodeId, dst: NodeId) -> ! {
        let declared = match self.nodes[node.0 as usize].sends {
            Sends::To(d) => format!("only to {}", self.node_name(d)),
            _ => "nothing".to_string(),
        };
        panic!(
            "host {} sent a packet to {}, but declared that it sends {declared}",
            self.node_name(node),
            self.node_name(dst)
        );
    }

    // Hinted: shared by both instantiations (see `crate::observer`).
    #[inline]
    fn forward(
        &mut self,
        now: SimTime,
        node: NodeId,
        pkt: Packet<P>,
        queue: &mut EventQueue<NetEvent>,
    ) {
        let idx = node.0 as usize;
        match self.nodes[idx]
            .routes
            .get(pkt.dst.0 as usize)
            .copied()
            .flatten()
        {
            Some(port) => self.enqueue_on_port(now, node, port, pkt, queue),
            None => {
                self.stats
                    .on_dropped(now, pkt.flow, pkt.id, pkt.size, node, DropReason::NoRoute);
                self.observer.on_dropped(pkt.flow, pkt.id, pkt.size, node);
            }
        }
    }

    fn enqueue_on_port(
        &mut self,
        now: SimTime,
        node: NodeId,
        port: PortId,
        pkt: Packet<P>,
        queue: &mut EventQueue<NetEvent>,
    ) {
        let idx = node.0 as usize;
        let p = &mut self.nodes[idx].ports[port.0 as usize];
        let busy = p.busy(queue);
        // Idle port, discipline drained and willing: transmit straight
        // through — an enqueue followed by an immediate dequeue would hand
        // the same packet back, so skip both virtual calls.
        if !busy && p.queued == 0 && pkt.size <= p.direct_cap {
            self.begin_transmit(now, node, port, pkt, queue);
            return;
        }
        // Walked packets still waiting at a chain port hold room in their
        // FIFO band that the discipline itself never saw.
        let overflow = !p.waiting.is_empty()
            && match p.qdisc.fifo_band(pkt.dscp) {
                Some(band) => {
                    let filed = queue.last_stamp().map_or(now, Stamp::filed);
                    let (admitted, tie) = p.admits(band, now, filed, pkt.size);
                    if tie {
                        self.observer.on_admission_tie(now, node, port);
                    }
                    !admitted
                }
                None => false,
            };
        let admitted = if overflow {
            Err(pkt)
        } else {
            p.qdisc.enqueue(pkt)
        };
        match admitted {
            Ok(()) => {
                p.queued += 1;
                if !busy {
                    self.transmit_next(now, node, port, queue);
                } else if p.queued == 1 {
                    // The first packet to wait behind this transmission:
                    // file the port's wake-up under its reserved key.
                    queue.schedule_reserved(p.free_at, p.ready, NetEvent::PortReady { node, port });
                }
            }
            Err(pkt) => {
                self.stats.on_dropped(
                    now,
                    pkt.flow,
                    pkt.id,
                    pkt.size,
                    node,
                    DropReason::QueueOverflow,
                );
                self.observer.on_dropped(pkt.flow, pkt.id, pkt.size, node);
            }
        }
    }

    // Hinted: shared by both instantiations (see `crate::observer`).
    #[inline]
    fn transmit_next(
        &mut self,
        now: SimTime,
        node: NodeId,
        port: PortId,
        queue: &mut EventQueue<NetEvent>,
    ) {
        let idx = node.0 as usize;
        let p = &mut self.nodes[idx].ports[port.0 as usize];
        debug_assert!(!p.busy(queue));
        if p.queued == 0 {
            return;
        }
        if let Some(pkt) = p.qdisc.dequeue() {
            p.queued -= 1;
            self.begin_transmit(now, node, port, pkt, queue);
        }
    }

    /// Occupy an idle `port` with a `size`-byte transmission starting at
    /// `now`; returns the peer and the instant the packet fully arrives
    /// there.
    ///
    /// The port's `PortReady` takes its sequence number here, exactly
    /// where an eager `schedule` would, so no other event moves. It is
    /// filed now if packets are already waiting, later by the first packet
    /// that queues behind this transmission, or never: a wake-up that
    /// would find the discipline empty has nothing to do, and the port's
    /// busy state is read off the reserved key instead.
    fn occupy(
        &mut self,
        now: SimTime,
        node: NodeId,
        port: PortId,
        size: u32,
        queue: &mut EventQueue<NetEvent>,
    ) -> (NodeId, SimTime) {
        let p = &mut self.nodes[node.0 as usize].ports[port.0 as usize];
        debug_assert!(!p.busy(queue));
        p.free_at = now + p.serialization(size);
        p.ready = queue.reserve();
        if p.queued > 0 {
            queue.schedule_reserved(p.free_at, p.ready, NetEvent::PortReady { node, port });
        }
        (p.peer, p.free_at + p.link.propagation)
    }

    /// Put `pkt` on the wire out of an idle `port`: occupy the port, then
    /// file the `Arrive` that ends its walk (after the port's reserved
    /// `PortReady` — the sequence every path through the port logic must
    /// produce).
    fn begin_transmit(
        &mut self,
        now: SimTime,
        node: NodeId,
        port: PortId,
        pkt: Packet<P>,
        queue: &mut EventQueue<NetEvent>,
    ) {
        self.observer
            .on_transmit(now, node, port, pkt.flow, pkt.id, pkt.size);
        let hdr = Header::of(&pkt);
        let (peer, arrive) = self.occupy(now, node, port, pkt.size, queue);
        let packet = self.pool.insert(pkt);
        self.walk(now, peer, arrive, packet, hdr, queue);
    }

    /// Like [`Network::begin_transmit`], but for a packet that never left
    /// the pool: the same [`PacketRef`] rides the next `Arrive`, so a
    /// router hop moves a handle instead of the packet body.
    fn relay_transmit(
        &mut self,
        now: SimTime,
        node: NodeId,
        port: PortId,
        hdr: Header,
        packet: PacketRef,
        queue: &mut EventQueue<NetEvent>,
    ) {
        if O::ACTIVE {
            let pkt = self.pool.get_mut(packet);
            let (flow, id) = (pkt.flow, pkt.id);
            self.observer
                .on_transmit(now, node, port, flow, id, hdr.size);
        }
        let (peer, arrive) = self.occupy(now, node, port, hdr.size, queue);
        self.walk(now, peer, arrive, packet, hdr, queue);
    }

    /// `packet`, put on the wire at `sent`, reaches `node` at `at`: walk
    /// it through every chain hop ahead of it, then file its `Arrive` at
    /// the first node that is not one, or at a chain hop it cannot cross
    /// without dispatch.
    ///
    /// At each chain port the walk is the Lindley step of the FIFO band
    /// the packet joins: service starts at `max(at, free_at)`, the port
    /// frees one serialization later, and the packet reaches the peer one
    /// propagation after that. The port's state moves exactly as a per-hop
    /// dispatch would move it — `free_at`, a `PortReady` stamp reserved as
    /// filed when service starts, and the packet in `waiting` while it
    /// queues — so per-hop packets that reach the port later find it as
    /// they would have. The `Arrive` finally filed is stamped as filed
    /// when its last hop began to serialize, the instant per-hop dispatch
    /// would have filed it. The walk stops short, leaving the packet to
    /// per-hop dispatch, when its band is not FIFO (a best-effort packet
    /// on a strict-priority port), when a per-hop packet is queued at or
    /// still travelling toward the port (it may be served first), or when
    /// drop-tail refuses the packet: the per-hop `Arrive` then drops it at
    /// its own instant.
    fn walk(
        &mut self,
        sent: SimTime,
        mut node: NodeId,
        mut at: SimTime,
        packet: PacketRef,
        hdr: Header,
        queue: &mut EventQueue<NetEvent>,
    ) {
        // The instant the `Arrive` at `node` counts as filed: when the
        // packet began to serialize toward it.
        let mut filed = sent;
        loop {
            let n = &mut self.nodes[node.0 as usize];
            if !n.relay {
                break;
            }
            let Some(port) = n.routes.get(hdr.dst.0 as usize).copied().flatten() else {
                break;
            };
            let p = &mut n.ports[port.0 as usize];
            if !p.chain {
                break;
            }
            let band = if p.pending == 0 && p.queued == 0 {
                p.qdisc.fifo_band(hdr.dscp)
            } else {
                None
            };
            let Some(band) = band else {
                p.pending += 1;
                break;
            };
            let (admitted, tie) = p.admits(band, at, filed, hdr.size);
            if tie {
                self.observer.on_admission_tie(at, node, port);
            }
            if !admitted {
                p.pending += 1;
                break;
            }
            let start = at.max(p.free_at);
            if start > at {
                p.waiting.push_back(Waiting {
                    start,
                    size: hdr.size,
                    behind: p.ready.filed(),
                });
                p.waiting_bytes += u64::from(hdr.size);
            }
            p.free_at = start + p.serialization(hdr.size);
            p.ready = queue.reserve_filed_at(start);
            if O::ACTIVE {
                let pkt = self.pool.get_mut(packet);
                let (flow, id) = (pkt.flow, pkt.id);
                self.observer
                    .on_chain_hop(start, p.free_at, node, port, flow, id, hdr.size);
            }
            filed = start;
            at = p.free_at + p.link.propagation;
            node = p.peer;
        }
        let arrive = NetEvent::Arrive { node, packet };
        // Every walked hop starts after `sent`, so `filed` moved iff the
        // packet crossed at least one chain hop.
        if filed == sent {
            queue.schedule(at, arrive);
        } else {
            let stamp = queue.reserve_filed_at(filed);
            queue.schedule_reserved(at, stamp, arrive);
            self.observer.on_chain_filed(packet, node, at, filed);
        }
    }

    /// Peak number of simultaneously in-flight packets observed so far
    /// (sizes [`PacketPool::with_capacity`]; reported by `DSV_PROFILE=1`).
    pub fn pool_high_water(&self) -> usize {
        self.pool.high_water()
    }

    /// A packet arrived at a router: condition it, route it, and move it
    /// toward its next hop.
    ///
    /// The packet stays parked in the pool while the conditioner's
    /// [`Conditioner::quick`] verdict and the route are computed against a
    /// borrow; if the outgoing port is idle and its discipline admits the
    /// packet directly, the very same [`PacketRef`] is relayed onward and
    /// the hop never copies the packet at all. Every other case (shaping,
    /// drops, busy ports, full queues) lifts the packet out and follows
    /// the classic store-and-forward path, producing the identical event
    /// sequence it always has.
    fn router_arrive(
        &mut self,
        now: SimTime,
        node: NodeId,
        packet: PacketRef,
        queue: &mut EventQueue<NetEvent>,
    ) {
        let idx = node.0 as usize;
        let verdict = match self.conditioners[idx].as_mut() {
            Some(cond) => cond.quick(now, self.pool.get_mut(packet)),
            None => QuickVerdict::Pass,
        };
        match verdict {
            QuickVerdict::Pass => {
                let hdr = Header::of(self.pool.get_mut(packet));
                match self.nodes[idx]
                    .routes
                    .get(hdr.dst.0 as usize)
                    .copied()
                    .flatten()
                {
                    Some(port) => {
                        let p = &mut self.nodes[idx].ports[port.0 as usize];
                        let busy = p.busy(queue);
                        if p.chain {
                            // Every `Arrive` a chain port's router
                            // dispatches was left to per-hop dispatch by a
                            // walk that counted it here.
                            p.pending -= 1;
                            self.observer.on_relay_arrive(now, node, port, busy, queue);
                        }
                        let p = &self.nodes[idx].ports[port.0 as usize];
                        if !busy && p.queued == 0 && hdr.size <= p.direct_cap {
                            self.relay_transmit(now, node, port, hdr, packet, queue);
                        } else {
                            let pkt = self.pool.take(packet);
                            self.enqueue_on_port(now, node, port, pkt, queue);
                        }
                    }
                    None => {
                        let pkt = self.pool.take(packet);
                        self.stats.on_dropped(
                            now,
                            pkt.flow,
                            pkt.id,
                            pkt.size,
                            node,
                            DropReason::NoRoute,
                        );
                        self.observer.on_dropped(pkt.flow, pkt.id, pkt.size, node);
                    }
                }
            }
            QuickVerdict::Drop(reason) => {
                let pkt = self.pool.take(packet);
                self.stats
                    .on_dropped(now, pkt.flow, pkt.id, pkt.size, node, reason);
                self.observer.on_dropped(pkt.flow, pkt.id, pkt.size, node);
            }
            QuickVerdict::NeedsSubmit => {
                let pkt = self.pool.take(packet);
                self.condition_and_forward(now, node, pkt, queue);
            }
        }
    }

    fn condition_and_forward(
        &mut self,
        now: SimTime,
        node: NodeId,
        pkt: Packet<P>,
        queue: &mut EventQueue<NetEvent>,
    ) {
        let idx = node.0 as usize;
        if let Some(mut cond) = self.conditioners[idx].take() {
            let outcome = cond.submit(now, pkt);
            self.conditioners[idx] = Some(cond);
            match outcome {
                ConditionOutcome::Pass(pkt) => self.forward(now, node, pkt, queue),
                ConditionOutcome::Drop(pkt, reason) => {
                    self.stats
                        .on_dropped(now, pkt.flow, pkt.id, pkt.size, node, reason);
                    self.observer.on_dropped(pkt.flow, pkt.id, pkt.size, node);
                }
                ConditionOutcome::Absorbed { poll_at } => {
                    self.schedule_cond_poll(node, poll_at.max(now), queue);
                }
            }
        } else {
            self.forward(now, node, pkt, queue);
        }
    }

    /// Request a conditioner poll at `at`, skipping the event if an earlier
    /// (or equal) poll is already pending — that one will observe the same
    /// queue head and reschedule as needed.
    fn schedule_cond_poll(&mut self, node: NodeId, at: SimTime, queue: &mut EventQueue<NetEvent>) {
        let slot = &mut self.cond_poll_at[node.0 as usize];
        match slot {
            Some(pending) if *pending <= at => {}
            _ => {
                *slot = Some(at);
                queue.schedule(at, NetEvent::CondPoll(node));
            }
        }
    }

    fn poll_conditioner(&mut self, now: SimTime, node: NodeId, queue: &mut EventQueue<NetEvent>) {
        let idx = node.0 as usize;
        // This firing satisfies the pending request (if it is the one we
        // tracked); later requests re-arm via `schedule_cond_poll`.
        if self.cond_poll_at[idx].is_some_and(|t| t <= now) {
            self.cond_poll_at[idx] = None;
        }
        if let Some(mut cond) = self.conditioners[idx].take() {
            let released = cond.release(now);
            self.conditioners[idx] = Some(cond);
            for pkt in released.packets {
                self.forward(now, node, pkt, queue);
            }
            if let Some(next) = released.next_poll {
                self.schedule_cond_poll(node, next.max(now), queue);
            }
        }
    }
}

impl<P: 'static, O: Observer> World for Network<P, O> {
    type Event = NetEvent;

    fn handle(&mut self, now: SimTime, event: NetEvent, queue: &mut EventQueue<NetEvent>) {
        self.observer.on_event(now, &event, queue);
        match event {
            NetEvent::Start(node) => {
                self.dispatch_app(now, node, |app, ctx| app.on_start(ctx), queue);
            }
            NetEvent::Timer { node, token } => {
                self.dispatch_app(now, node, |app, ctx| app.on_timer(ctx, token), queue);
            }
            NetEvent::PortReady { node, port } => self.transmit_next(now, node, port, queue),
            NetEvent::CondPoll(node) => self.poll_conditioner(now, node, queue),
            NetEvent::Arrive { node, packet } => {
                let idx = node.0 as usize;
                self.observer.on_arrive(node);
                match self.nodes[idx].kind {
                    NodeKind::Router => self.router_arrive(now, node, packet, queue),
                    NodeKind::Host { .. } => {
                        let packet = self.pool.take(packet);
                        if packet.dst == node {
                            let delay = now.saturating_since(packet.sent_at);
                            self.stats.on_delivered(
                                now,
                                packet.flow,
                                packet.id,
                                packet.size,
                                node,
                                delay,
                            );
                            self.observer
                                .on_delivered(packet.flow, packet.id, packet.size, node);
                            self.dispatch_app(
                                now,
                                node,
                                |app, ctx| app.on_packet(ctx, packet),
                                queue,
                            );
                        } else {
                            // A packet washed up at the wrong host: surface
                            // as a routing drop rather than corrupting app
                            // state.
                            self.stats.on_dropped(
                                now,
                                packet.flow,
                                packet.id,
                                packet.size,
                                node,
                                DropReason::NoRoute,
                            );
                            self.observer
                                .on_dropped(packet.flow, packet.id, packet.size, node);
                        }
                    }
                }
            }
        }
    }
}

/// A network bundled with its event queue: the convenient top-level runner.
pub struct Simulation<P, O = ()> {
    /// The network world.
    pub net: Network<P, O>,
    /// The pending-event queue.
    pub queue: EventQueue<NetEvent>,
}

impl<P: Send + 'static, O: Observer> Simulation<P, O> {
    /// Wrap a built network and schedule host start events.
    pub fn new(net: Network<P, O>) -> Self {
        // Measured pending-event high-water marks (the benchmark's
        // `sim.queue_high_water`): 9 on the paper's QBone grid, 36 on the
        // aggregate sweep, 571 on the transport runs (a packet walked
        // into a hop chain keeps one pending `Arrive`). The capacity
        // covers all of them without a mid-run grow.
        let mut queue = EventQueue::with_capacity(4096);
        net.schedule_starts(&mut queue);
        Simulation { net, queue }
    }

    /// Run until no events remain.
    pub fn run(&mut self) -> dsv_sim::engine::RunStats {
        self.run_until(SimTime::MAX)
    }

    /// Run until `horizon` (inclusive).
    pub fn run_until(&mut self, horizon: SimTime) -> dsv_sim::engine::RunStats {
        dsv_sim::run_until(&mut self.net, &mut self.queue, horizon)
    }

    /// Run for `span` beyond the current queue time.
    pub fn run_for(&mut self, span: SimDuration) -> dsv_sim::engine::RunStats {
        let horizon = self.queue.now() + span;
        self.run_until(horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::app::SendSpec;
    use crate::packet::{Dscp, FlowId, Proto};
    use crate::qdisc::StrictPriorityQueue;

    /// Sends `count` packets of `size` bytes, `gap` apart.
    struct Blaster {
        dst: NodeId,
        flow: FlowId,
        count: u32,
        size: u32,
        gap: SimDuration,
        sent: u32,
        dscp: Dscp,
    }

    impl Application<()> for Blaster {
        fn on_start(&mut self, ctx: &mut AppCtx<()>) {
            ctx.set_timer(SimDuration::ZERO, 0);
        }
        fn on_packet(&mut self, _ctx: &mut AppCtx<()>, _pkt: Packet<()>) {}
        fn on_timer(&mut self, ctx: &mut AppCtx<()>, _token: u64) {
            if self.sent < self.count {
                self.sent += 1;
                ctx.send(SendSpec {
                    dst: self.dst,
                    flow: self.flow,
                    size: self.size,
                    dscp: self.dscp,
                    proto: Proto::Udp,
                    fragment: None,
                    payload: (),
                });
                ctx.set_timer(self.gap, 0);
            }
        }
    }

    /// Records arrival times.
    #[derive(Default)]
    struct Recorder {
        arrivals: Vec<SimTime>,
    }

    impl Application<()> for Recorder {
        fn on_start(&mut self, _ctx: &mut AppCtx<()>) {}
        fn on_packet(&mut self, ctx: &mut AppCtx<()>, _pkt: Packet<()>) {
            self.arrivals.push(ctx.now());
        }
        fn on_timer(&mut self, _ctx: &mut AppCtx<()>, _token: u64) {}
    }

    fn two_hosts_one_router() -> (Simulation<()>, NodeId, NodeId) {
        let mut b = NetworkBuilder::new();
        let rx = b.add_host("rx", Box::new(Recorder::default()));
        let r = b.add_router("r1");
        let tx = b.add_host(
            "tx",
            Box::new(Blaster {
                dst: rx,
                flow: FlowId(1),
                count: 10,
                size: 1500,
                gap: SimDuration::from_millis(10),
                sent: 0,
                dscp: Dscp::BEST_EFFORT,
            }),
        );
        b.connect(tx, r, Link::ethernet_10mbps());
        b.connect(r, rx, Link::ethernet_10mbps());
        (Simulation::new(b.build()), tx, rx)
    }

    #[test]
    fn packets_flow_end_to_end() {
        let (mut sim, _tx, rx) = two_hosts_one_router();
        sim.run();
        let c = sim.net.stats.flow(FlowId(1));
        assert_eq!(c.tx_packets, 10);
        assert_eq!(c.rx_packets, 10);
        assert_eq!(c.total_drops(), 0);
        // Delay = 2 × (1.2 ms serialization + 5 µs propagation).
        assert_eq!(c.delay.min, SimDuration::from_micros(2 * (1200 + 5)));
        let _ = sim.net.app(rx); // hosts expose their application
    }

    #[test]
    fn deterministic_across_runs() {
        let (mut a, _, _) = two_hosts_one_router();
        let (mut b, _, _) = two_hosts_one_router();
        let sa = a.run();
        let sb = b.run();
        assert_eq!(sa.dispatched, sb.dispatched);
        assert_eq!(sa.end_time, sb.end_time);
        let fa = a.net.stats.flow(FlowId(1));
        let fb = b.net.stats.flow(FlowId(1));
        assert_eq!(fa.delay.mean(), fb.delay.mean());
    }

    #[test]
    fn bottleneck_queue_overflow_drops() {
        let mut b = NetworkBuilder::new();
        let rx = b.add_host("rx", Box::new(Recorder::default()));
        let r = b.add_router("r1");
        let tx = b.add_host(
            "tx",
            Box::new(Blaster {
                dst: rx,
                flow: FlowId(1),
                count: 100,
                size: 1500,
                gap: SimDuration::ZERO, // all at once
                sent: 0,
                dscp: Dscp::BEST_EFFORT,
            }),
        );
        b.connect(tx, r, Link::ethernet_10mbps());
        // Slow bottleneck with a 5-packet queue toward rx.
        b.connect_with(
            r,
            rx,
            Link::new(1_000_000, SimDuration::from_micros(5)),
            Link::new(1_000_000, SimDuration::from_micros(5)),
            Box::new(DropTailQueue::new(QueueLimits::packets(5))),
            Box::new(DropTailQueue::new(QueueLimits::UNBOUNDED)),
        );
        let mut sim = Simulation::new(b.build());
        sim.run();
        let c = sim.net.stats.flow(FlowId(1));
        assert_eq!(c.tx_packets, 100);
        assert!(c.drops_for(DropReason::QueueOverflow) > 0);
        assert_eq!(c.rx_packets + c.drops_for(DropReason::QueueOverflow), 100);
    }

    #[test]
    fn ef_priority_beats_best_effort_through_bottleneck() {
        // Two blasters share a 2 Mbps bottleneck; the EF one is served
        // strictly first, so its delay stays near the unloaded value.
        let mut b = NetworkBuilder::new();
        let rx = b.add_host("rx", Box::new(Recorder::default()));
        let r = b.add_router("r1");
        let ef_tx = b.add_host(
            "ef",
            Box::new(Blaster {
                dst: rx,
                flow: FlowId(1),
                count: 50,
                size: 1500,
                gap: SimDuration::from_millis(10),
                sent: 0,
                dscp: Dscp::EF,
            }),
        );
        let be_tx = b.add_host(
            "be",
            Box::new(Blaster {
                dst: rx,
                flow: FlowId(2),
                count: 500,
                size: 1500,
                gap: SimDuration::from_millis(1),
                sent: 0,
                dscp: Dscp::BEST_EFFORT,
            }),
        );
        b.connect(ef_tx, r, Link::ethernet_10mbps());
        b.connect(be_tx, r, Link::ethernet_10mbps());
        b.connect_with(
            r,
            rx,
            Link::new(2_000_000, SimDuration::from_micros(5)),
            Link::new(2_000_000, SimDuration::from_micros(5)),
            Box::new(StrictPriorityQueue::ef_default(
                QueueLimits::UNBOUNDED,
                QueueLimits::packets(30),
            )),
            Box::new(DropTailQueue::new(QueueLimits::UNBOUNDED)),
        );
        let mut sim = Simulation::new(b.build());
        sim.run();
        let ef = sim.net.stats.flow(FlowId(1));
        let be = sim.net.stats.flow(FlowId(2));
        assert_eq!(ef.rx_packets, 50);
        assert_eq!(ef.total_drops(), 0);
        // EF max delay bounded by one BE packet in service plus its own
        // serialization times; far below BE's queueing delay.
        assert!(
            ef.delay.max < SimDuration::from_millis(16),
            "{:?}",
            ef.delay.max
        );
        assert!(be.delay.max > ef.delay.max);
        assert!(be.drops_for(DropReason::QueueOverflow) > 0);
    }

    #[test]
    fn multihop_routing_works() {
        // tx - r1 - r2 - r3 - rx chain.
        let mut b = NetworkBuilder::new();
        let rx = b.add_host("rx", Box::new(Recorder::default()));
        let r1 = b.add_router("r1");
        let r2 = b.add_router("r2");
        let r3 = b.add_router("r3");
        let tx = b.add_host(
            "tx",
            Box::new(Blaster {
                dst: rx,
                flow: FlowId(1),
                count: 3,
                size: 500,
                gap: SimDuration::from_millis(1),
                sent: 0,
                dscp: Dscp::BEST_EFFORT,
            }),
        );
        b.connect(tx, r1, Link::fast_ethernet());
        b.connect(r1, r2, Link::fast_ethernet());
        b.connect(r2, r3, Link::fast_ethernet());
        b.connect(r3, rx, Link::fast_ethernet());
        let mut sim = Simulation::new(b.build());
        sim.run();
        assert_eq!(sim.net.stats.flow(FlowId(1)).rx_packets, 3);
    }

    /// tx - r1 - r2 - r3 - rx, three 500-byte packets 1 ms apart; `r2`
    /// optionally carries a pass-through conditioner.
    fn relay_line(condition_r2: bool) -> (Simulation<()>, dsv_sim::engine::RunStats) {
        let mut b = NetworkBuilder::new();
        let rx = b.add_host("rx", Box::new(Recorder::default()));
        let r: Vec<NodeId> = ["r1", "r2", "r3"].iter().map(|n| b.add_router(n)).collect();
        let tx = b.add_host(
            "tx",
            Box::new(Blaster {
                dst: rx,
                flow: FlowId(1),
                count: 3,
                size: 500,
                gap: SimDuration::from_millis(1),
                sent: 0,
                dscp: Dscp::BEST_EFFORT,
            }),
        );
        b.connect(tx, r[0], Link::fast_ethernet());
        b.connect(r[0], r[1], Link::fast_ethernet());
        b.connect(r[1], r[2], Link::fast_ethernet());
        b.connect(r[2], rx, Link::fast_ethernet());
        if condition_r2 {
            b.set_conditioner(r[1], Box::new(crate::conditioner::PassThrough));
        }
        let mut sim = Simulation::new(b.build());
        let stats = sim.run();
        (sim, stats)
    }

    #[test]
    fn relay_hops_are_walked_not_dispatched() {
        // Each router port is fed by one link: every packet leaving `tx`
        // is walked through r1, r2 and r3, and only its arrival at `rx` is
        // dispatched. 2 starts + 4 sender timers + 3 arrivals.
        let (walked, stats) = relay_line(false);
        assert_eq!(stats.dispatched, 9);
        // A conditioner at r2 ends the walk there: one more arrival each.
        let (stopped, stats) = relay_line(true);
        assert_eq!(stats.dispatched, 12);
        // Either way, four hops of 40 µs serialization + 5 µs propagation.
        for sim in [&walked, &stopped] {
            let c = sim.net.stats.flow(FlowId(1));
            assert_eq!(c.rx_packets, 3);
            assert_eq!(c.delay.min, SimDuration::from_micros(4 * 45));
            assert_eq!(c.delay.max, SimDuration::from_micros(4 * 45));
        }
    }

    #[test]
    #[should_panic(expected = "no path")]
    fn disconnected_topology_panics_at_build() {
        let mut b: NetworkBuilder<()> = NetworkBuilder::new();
        let h1 = b.add_host("a", Box::new(Recorder::default()));
        let r1 = b.add_router("ra");
        let h2 = b.add_host("b", Box::new(Recorder::default()));
        let r2 = b.add_router("rb");
        // Two islands: a—ra and b—rb.
        b.connect(h1, r1, Link::fast_ethernet());
        b.connect(h2, r2, Link::fast_ethernet());
        b.build();
    }

    #[test]
    fn run_for_advances_relative_horizon() {
        let (mut sim, _, _) = two_hosts_one_router();
        sim.run_for(SimDuration::from_millis(25));
        let c = sim.net.stats.flow(FlowId(1));
        // Packets at t≈0,10,20 ms have been sent; later ones pending.
        assert_eq!(c.tx_packets, 3);
        sim.run();
        assert_eq!(sim.net.stats.flow(FlowId(1)).tx_packets, 10);
    }

    /// Sends `count` packets of 1000 bytes the moment it starts.
    struct Burst {
        dst: NodeId,
        flow: FlowId,
        count: u32,
    }

    impl Application<()> for Burst {
        fn on_start(&mut self, ctx: &mut AppCtx<()>) {
            for _ in 0..self.count {
                ctx.send(SendSpec {
                    dst: self.dst,
                    flow: self.flow,
                    size: 1000,
                    dscp: Dscp::BEST_EFFORT,
                    proto: Proto::Udp,
                    fragment: None,
                    payload: (),
                });
            }
        }
        fn on_packet(&mut self, _ctx: &mut AppCtx<()>, _pkt: Packet<()>) {}
        fn on_timer(&mut self, _ctx: &mut AppCtx<()>, _token: u64) {}
    }

    /// A FIFO that counts the packets it is asked to hold, telling a
    /// packet that queued apart from one that passed straight through.
    struct CountingFifo {
        inner: DropTailQueue<()>,
        enqueued: std::sync::Arc<std::sync::atomic::AtomicUsize>,
    }

    impl Qdisc<()> for CountingFifo {
        fn enqueue(&mut self, pkt: Packet<()>) -> Result<(), Packet<()>> {
            self.enqueued
                .fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.enqueue(pkt)
        }
        fn dequeue(&mut self) -> Option<Packet<()>> {
            self.inner.dequeue()
        }
        fn len(&self) -> usize {
            self.inner.len()
        }
        fn bytes(&self) -> u64 {
            self.inner.bytes()
        }
        fn direct_admit_cap(&self) -> u32 {
            u32::MAX
        }
    }

    /// Hosts `a1` and `a2` send 1000-byte packets (flows 1 and 2) to `rx`
    /// through router `r`, whose 8 Mbps counting port toward `rx` takes
    /// 1 ms per packet. `a1` sends one packet at 0 over an 8 Mbps link, so
    /// `r` serializes it from 1 ms to 2 ms; `a2` sends `a2_count` packets
    /// at `a2_start` over an 80 Mbps link (100 µs each) with propagation
    /// `a2_prop`. Returns the simulation and the port's enqueue counter.
    fn tie_net(
        a2_start: SimTime,
        a2_prop: SimDuration,
        a2_count: u32,
    ) -> (
        Simulation<()>,
        std::sync::Arc<std::sync::atomic::AtomicUsize>,
    ) {
        let mut b = NetworkBuilder::new();
        let rx = b.add_host("rx", Box::new(Recorder::default()));
        let r = b.add_router("r");
        let a1 = b.add_host(
            "a1",
            Box::new(Burst {
                dst: rx,
                flow: FlowId(1),
                count: 1,
            }),
        );
        let a2 = b.add_host_starting(
            "a2",
            Box::new(Burst {
                dst: rx,
                flow: FlowId(2),
                count: a2_count,
            }),
            a2_start,
        );
        let enqueued = std::sync::Arc::new(std::sync::atomic::AtomicUsize::new(0));
        let link = Link::new(8_000_000, SimDuration::ZERO);
        b.connect(a1, r, link);
        b.connect(a2, r, Link::new(80_000_000, a2_prop));
        b.connect_with(
            r,
            rx,
            link,
            link,
            Box::new(CountingFifo {
                inner: DropTailQueue::new(QueueLimits::UNBOUNDED),
                enqueued: enqueued.clone(),
            }),
            Box::new(DropTailQueue::new(QueueLimits::UNBOUNDED)),
        );
        let mut net = b.build();
        net.stats.trace_flow(FlowId(1));
        net.stats.trace_flow(FlowId(2));
        (Simulation::new(net), enqueued)
    }

    fn delivered_at(sim: &Simulation<()>, flow: FlowId) -> Vec<SimTime> {
        sim.net
            .stats
            .trace_of(flow)
            .expect("flow traced")
            .iter()
            .filter(|e| e.kind == crate::stats::TraceKind::Delivered)
            .map(|e| e.at)
            .collect()
    }

    fn enqueues(counter: &std::sync::atomic::AtomicUsize) -> usize {
        counter.load(std::sync::atomic::Ordering::Relaxed)
    }

    #[test]
    fn arrival_at_a_ports_free_instant_queues_only_if_scheduled_first() {
        let ms = SimTime::from_millis;
        // `a2`'s packet reaches `r` at exactly 2 ms, the instant `r`'s
        // port frees. Sent at 0, its arrival was scheduled before the
        // transmission began at 1 ms, so it sorts ahead of the port's
        // wake-up, finds the port busy and queues.
        let (mut before, counter) = tie_net(SimTime::ZERO, SimDuration::from_micros(1_900), 1);
        before.run();
        assert_eq!(enqueues(&counter), 1, "scheduled first: queues");
        // Sent at 1.5 ms, its arrival sorts after the wake-up: the port is
        // already idle and the packet passes straight through.
        let (mut after, counter) = tie_net(
            SimTime::from_micros(1_500),
            SimDuration::from_micros(400),
            1,
        );
        after.run();
        assert_eq!(enqueues(&counter), 0, "scheduled after: passes through");
        // Either way it leaves at 2 ms and is delivered at 3 ms.
        for sim in [&before, &after] {
            assert_eq!(delivered_at(sim, FlowId(1)), vec![ms(2)]);
            assert_eq!(delivered_at(sim, FlowId(2)), vec![ms(3)]);
        }
    }

    #[test]
    fn burst_queues_behind_a_reserved_port_ready() {
        let ms = SimTime::from_millis;
        // `a2`'s three packets reach `r` at 1.3, 1.4 and 1.5 ms, while `r`
        // serializes `a1`'s packet and its wake-up is only reserved. The
        // first files the wake-up; all three leave back to back from 2 ms.
        let (mut sim, counter) = tie_net(SimTime::from_micros(1_200), SimDuration::ZERO, 3);
        let stats = sim.run();
        assert_eq!(enqueues(&counter), 3);
        assert_eq!(delivered_at(&sim, FlowId(1)), vec![ms(2)]);
        assert_eq!(delivered_at(&sim, FlowId(2)), vec![ms(3), ms(4), ms(5)]);
        // 3 starts + 8 arrivals + 5 wake-ups that found a packet waiting
        // (two at `a2`'s own port, three at `r`'s). The three transmissions
        // that left their port's queue empty dispatch no wake-up.
        assert_eq!(stats.dispatched, 16);
    }

    #[test]
    fn horizon_stop_with_a_reserved_port_ready_resumes_exactly() {
        let burst = || tie_net(SimTime::from_micros(1_200), SimDuration::ZERO, 3);
        let (mut whole, _) = burst();
        let uninterrupted = whole.run();

        // Stop at 1.1 ms: `r` is mid-transmission with its wake-up
        // reserved but not filed, so only `a2`'s start and the arrival at
        // `rx` are pending.
        let (mut split, counter) = burst();
        let first = split.run_until(SimTime::from_micros(1_100));
        assert!(first.hit_horizon);
        assert_eq!(split.queue.len(), 2);
        let rest = split.run();

        assert_eq!(first.dispatched + rest.dispatched, uninterrupted.dispatched);
        assert_eq!(rest.end_time, uninterrupted.end_time);
        assert_eq!(enqueues(&counter), 3);
        for flow in [FlowId(1), FlowId(2)] {
            assert_eq!(delivered_at(&split, flow), delivered_at(&whole, flow));
            assert_eq!(
                split.net.stats.flow(flow).delay.mean(),
                whole.net.stats.flow(flow).delay.mean()
            );
        }
    }
}
