//! Hop chains against per-hop dispatch, and paced servers that wake only
//! to send against the per-tick loop, byte for byte.
//!
//! The network walks a packet through the FIFO relay hops behind a
//! conditioner arithmetically instead of dispatching one `Arrive` per hop
//! (DESIGN.md §6b, "Hop chains"), over the traffic the spec declares. The
//! reference needs no knob: a router with a conditioner is never a chain
//! hop, so compiling a spec with an empty-rule conditioner (`rules: []`,
//! which passes every packet) added to every router that has none
//! dispatches every hop, as the engine did before chains existed.
//!
//! A paced server runs its pacer ahead to the next tick that sends and
//! wakes only there (§6b, "Paced servers wake only to send"). Its
//! reference is the two-timer loop it replaced, kept in
//! `support/per_tick_server.rs` and swapped in for every paced server of
//! the compiled spec.
//!
//! Each spec runs both ways and must agree on every flow's counters (sent,
//! delivered, drops by reason, delay summary and histogram), every flow's
//! full packet trace (each send, delivery and drop with its instant and
//! node), and every client and sink report.
//!
//! The run under test is the one every experiment makes: chains and
//! woken servers on the timing wheel. Both references run on the
//! binary-heap event queue, so each comparison also holds the wheel to
//! the heap on a whole workload.

#[path = "support/per_tick_server.rs"]
mod per_tick_server;

use dsv_core::af_tcp::{af_tcp_spec, AfTcpConfig};
use dsv_core::aggregate::aggregate_spec;
use dsv_core::artifacts::ArtifactStore;
use dsv_core::local::local_spec;
use dsv_core::prelude::*;
use dsv_core::qbone::qbone_spec;
use dsv_core::smoothing::{smoothing_spec, SmoothingConfig, SmoothingServer, DEPTH_10MTU};
use dsv_media::encoder::mpeg1;
use dsv_media::scene::ClipId;
use dsv_net::app::{AppCtx, Application, SendSpec};
use dsv_net::link::Link;
use dsv_net::network::{Network, NetworkBuilder, Simulation};
use dsv_net::packet::{DropReason, Dscp, FlowId, NodeId, Packet, Proto};
use dsv_net::qdisc::{DropTailQueue, QueueLimits};
use dsv_net::stats::{TraceEntry, TraceKind};
use dsv_scenario::apps::Pump;
use dsv_scenario::spec::{
    AppSpec, ConditionerSpec, DscpSpec, LimitsSpec, LinkParams, LinkSpec, NodeSpec, QdiscSpec,
};
use dsv_scenario::{compile, ClipStore, CompileOptions, CompiledScenario, ScenarioSpec};
use dsv_sim::{EventQueue, QueueBackend, SimDuration, SimTime};
use dsv_stream::payload::{ControlMsg, StreamPayload, CONTROL_PACKET_BYTES};
use dsv_stream::server::paced::{PacedConfig, PacedServer};

use per_tick_server::PerTickPacedServer;

/// The same scenario with an empty-rule conditioner on every router that
/// has none: no chain can form, so every hop is dispatched.
fn per_hop(spec: &ScenarioSpec) -> ScenarioSpec {
    let mut reference = spec.clone();
    for node in spec.nodes.iter().filter(|n| n.app.is_none()) {
        if !spec.conditioners.iter().any(|c| c.node == node.name) {
            reference.conditioners.push(ConditionerSpec {
                node: node.name.clone(),
                tap: None,
                rules: Vec::new(),
            });
        }
    }
    reference
}

/// A compiled scenario in its simulation, with every flow traced, and
/// the handles that read its applications back.
struct Run {
    sim: Simulation<StreamPayload>,
    apps: CompiledScenario,
}

fn compiled(spec: &ScenarioSpec) -> CompiledScenario {
    compile(
        spec,
        CompileOptions {
            store: Some(&ArtifactStore),
            wrap: None,
        },
    )
    .expect("spec compiles")
}

/// A simulation of `net` on the binary-heap event queue, the reference
/// the timing wheel is compared with.
fn on_heap(net: Network<StreamPayload>) -> Simulation<StreamPayload> {
    let mut queue = EventQueue::with_backend(QueueBackend::Heap);
    net.schedule_starts(&mut queue);
    Simulation { net, queue }
}

impl Run {
    /// `spec` as every experiment runs it, on the timing wheel.
    fn new(spec: &ScenarioSpec) -> Run {
        Run::start(compiled(spec), Simulation::new)
    }

    /// `spec` with every hop dispatched, on the heap.
    fn per_hop(spec: &ScenarioSpec) -> Run {
        Run::start(compiled(&per_hop(spec)), on_heap)
    }

    /// `spec` with every paced server replaced by the per-tick reference,
    /// on the heap.
    fn per_tick(spec: &ScenarioSpec) -> Run {
        let mut compiled = compiled(spec);
        for node in &spec.nodes {
            if let Some(AppSpec::PacedServer {
                client,
                flow,
                dscp,
                media,
            }) = &node.app
            {
                let clip = ArtifactStore.encoding(media.clip, media.codec, media.rate_bps);
                let cfg = PacedConfig::new(compiled.node(client), FlowId(*flow), dscp.to_dscp());
                let host = compiled.node(&node.name);
                compiled
                    .net
                    .replace_app(host, Box::new(PerTickPacedServer::new(cfg, &clip)));
            }
        }
        Run::start(compiled, on_heap)
    }

    fn start(
        mut compiled: CompiledScenario,
        simulation: fn(Network<StreamPayload>) -> Simulation<StreamPayload>,
    ) -> Run {
        // Flow labels in the committed scenarios stay below 2048.
        for flow in 0..2048 {
            compiled.net.stats.trace_flow(FlowId(flow));
        }
        // Keep the handles; the network moves into the simulation.
        let net = std::mem::replace(&mut compiled.net, NetworkBuilder::new().build());
        Run {
            sim: simulation(net),
            apps: compiled,
        }
    }

    /// Everything a run reports, one line per item.
    fn observed(&self) -> Vec<String> {
        let stats = &self.sim.net.stats;
        let mut flows: Vec<_> = stats.flows().collect();
        flows.sort_by_key(|(flow, _)| flow.0);
        let mut out = Vec::new();
        for (flow, c) in flows {
            let mut drops: Vec<(String, u64)> = c
                .drops
                .iter()
                .map(|(reason, n)| (format!("{reason:?}"), *n))
                .collect();
            drops.sort();
            out.push(format!(
                "flow {}: tx {} {} rx {} {} drops {drops:?} delay {:?} hist {:?}",
                flow.0, c.tx_packets, c.tx_bytes, c.rx_packets, c.rx_bytes, c.delay, c.delay_hist
            ));
            out.push(format!("flow {} trace {:?}", flow.0, stats.trace_of(*flow)));
        }
        let a = &self.apps;
        for (name, h) in &a.clients {
            out.push(format!("client {name}: {:?}", h.borrow().report()));
        }
        for (name, h) in &a.abr_clients {
            out.push(format!("abr client {name}: {:?}", h.borrow().report()));
        }
        for (name, h) in &a.adaptives {
            out.push(format!(
                "adaptive {name}: {}",
                h.borrow().current_tier_bps()
            ));
        }
        for (name, h) in &a.bulk_sinks {
            out.push(format!("bulk sink {name}: {}", h.borrow().delivered()));
        }
        for (name, h) in &a.id_sinks {
            out.push(format!("id sink {name}: {:?}", h.borrow().ids));
        }
        out
    }
}

/// The spec's horizon, or the end of time when it declares none.
fn horizon(spec: &ScenarioSpec) -> SimTime {
    spec.horizon_ns.map_or(SimTime::MAX, SimTime::from_nanos)
}

/// Run `spec` with chains on the wheel and per hop on the heap, to its
/// horizon, and require the same observations. Returns the events each
/// dispatched.
fn assert_equivalent(label: &str, spec: &ScenarioSpec) -> (u64, u64) {
    let mut chained = Run::new(spec);
    let mut reference = Run::per_hop(spec);
    let a = chained.sim.run_until(horizon(spec));
    let b = reference.sim.run_until(horizon(spec));
    assert_eq!(
        chained.observed(),
        reference.observed(),
        "{label}: chains on the wheel vs per hop on the heap"
    );
    assert!(
        a.dispatched <= b.dispatched,
        "{label}: chains on the wheel dispatched {} events, per hop on the heap {}",
        a.dispatched,
        b.dispatched
    );
    (a.dispatched, b.dispatched)
}

/// Run `spec` with paced servers that wake only to send, on the wheel,
/// and with the per-tick reference on the heap, to its horizon, and
/// require the same observations.
fn assert_wakes_like_per_tick(label: &str, spec: &ScenarioSpec) {
    let mut woken = Run::new(spec);
    let mut ticked = Run::per_tick(spec);
    let a = woken.sim.run_until(horizon(spec));
    let b = ticked.sim.run_until(horizon(spec));
    assert_eq!(
        woken.observed(),
        ticked.observed(),
        "{label}: woken on the wheel vs per tick on the heap"
    );
    assert!(
        a.dispatched < b.dispatched,
        "{label}: woken servers on the wheel dispatched {} events, per tick on the heap {}",
        a.dispatched,
        b.dispatched
    );
}

fn eight_flow_aggregate() -> ScenarioSpec {
    aggregate_spec(&AggregateConfig::new(
        ClipId2::Lost,
        1_000_000,
        8,
        EfProfile::new(8_800_000, DEPTH_2MTU),
    ))
}

fn fig07_point() -> QboneConfig {
    QboneConfig::new(
        ClipId2::Lost,
        1_700_000,
        EfProfile::new(1_500_000, DEPTH_2MTU),
    )
}

#[test]
fn figure_7_point() {
    let (walked, dispatched) = assert_equivalent("fig07", &qbone_spec(&fig07_point()));
    assert!(walked < dispatched, "the backbone hops chain");
}

/// Best-effort cross traffic joins the backbone: core1 and core2 merge
/// feeders, and the best-effort packets ride strict-priority ports.
#[test]
fn figure_7_point_with_cross_traffic() {
    let mut cfg = fig07_point();
    cfg.cross_traffic = true;
    assert_equivalent("fig07 cross traffic", &qbone_spec(&cfg));
}

/// Four streams merge at the border policer and leave at one client each.
#[test]
fn four_flow_aggregate() {
    let cfg = AggregateConfig::new(
        ClipId2::Lost,
        1_000_000,
        4,
        EfProfile::new(4_400_000, DEPTH_3MTU),
    );
    assert_equivalent("aggregate x4", &aggregate_spec(&cfg));
}

/// Bursts queue inside the chain; TCP and ABR acknowledgements chain the
/// other way.
/// Eight streams merge at the border policer; with only the declared
/// traffic feeding them, `local-edge`'s client ports chain.
#[test]
fn eight_flow_aggregate_chains_local_edge() {
    let (walked, dispatched) = assert_equivalent("aggregate x8", &eight_flow_aggregate());
    assert!(
        walked < dispatched,
        "the backbone and local-edge hops chain"
    );
}

#[test]
fn figure_17_points() {
    for server in [
        SmoothingServer::Bursty,
        SmoothingServer::Tcp,
        SmoothingServer::Abr,
    ] {
        let cfg = SmoothingConfig::new(
            ClipId2::Lost,
            1_500_000,
            server,
            EfProfile::new(1_650_000, DEPTH_10MTU),
        );
        assert_equivalent(&format!("fig17 {server:?}"), &smoothing_spec(&cfg));
    }
}

#[test]
fn figure_18_point() {
    let cfg = AfTcpConfig::new(vec![500_000, 1_000_000, 1_500_000, 2_700_000], vec![0; 4]);
    assert_equivalent("fig18", &af_tcp_spec(&cfg));
}

/// The local testbed's UDP client sends feedback on 1-s timers.
#[test]
fn local_testbed_udp_point() {
    let cfg = LocalConfig::new(
        ClipId2::Lost,
        EfProfile::new(1_000_000, DEPTH_3MTU),
        LocalTransport::Udp,
    );
    assert_equivalent("local udp", &local_spec(&cfg));
}

#[test]
fn example_specs() {
    for (name, json) in [
        (
            "policed chain",
            include_str!("../examples/scenario_policed_chain.json"),
        ),
        (
            "abr qbone",
            include_str!("../examples/scenario_abr_qbone.json"),
        ),
        ("af tcp", include_str!("../examples/scenario_af_tcp.json")),
    ] {
        let spec: ScenarioSpec = serde_json::from_str(json).expect("example parses");
        assert_equivalent(name, &spec);
    }
}

/// core2's port toward the client runs at 2 Mbps with a 3000-byte EF
/// band, so each frame's burst queues there and the band overflows: drops
/// inside a chain, counted at their own instant and node.
#[test]
fn qbone_drops_inside_a_chain() {
    let mut spec = qbone_spec(&QboneConfig::new(
        ClipId2::Lost,
        1_700_000,
        EfProfile::new(2_000_000, DEPTH_3MTU),
    ));
    let tail = spec
        .links
        .iter_mut()
        .find(|l| l.a == "core2" && l.b == "local-edge")
        .expect("core2 - local-edge link");
    tail.ab.rate_bps = 2_000_000;
    tail.qdisc_ab = QdiscSpec::StrictPriorityEf {
        ef: LimitsSpec::bytes(3_000),
        be: LimitsSpec::packets(60),
    };
    assert_equivalent("qbone small core2 EF band", &spec);
    let mut run = Run::new(&spec);
    run.sim.run_until(horizon(&spec));
    let media = run.sim.net.stats.flow(FlowId(1));
    assert!(
        media.drops_for(DropReason::QueueOverflow) > 0,
        "the variant must overflow core2's EF band"
    );
}

/// Expedited bursts and a light best-effort stream merge at `edge` and
/// share `relay`'s 3 Mbps strict-priority port: best-effort packets take
/// the per-hop path there, and every expedited packet behind one in
/// flight or queued must too, or it would be served ahead of it.
#[test]
fn mixed_classes_on_a_strict_priority_chain_port() {
    let mut spec = ScenarioSpec::new("mixed-classes", 11);
    spec.nodes
        .push(NodeSpec::host("rx-ef", AppSpec::CountingSink));
    spec.nodes
        .push(NodeSpec::host("rx-be", AppSpec::CountingSink));
    for router in ["edge", "relay", "out"] {
        spec.nodes.push(NodeSpec::router(router));
    }
    spec.nodes.push(NodeSpec::host(
        "src-ef",
        AppSpec::OnOffSource {
            dst: "rx-ef".to_string(),
            flow: 1,
            packet_size: 1500,
            peak_rate_bps: 4_000_000,
            mean_on_us: 40_000,
            mean_off_us: 40_000,
            dscp: DscpSpec::Ef,
            stop_at_us: 3_000_000,
            rng_fork: 0,
        },
    ));
    spec.nodes.push(NodeSpec::host(
        "src-be",
        AppSpec::Pump {
            dst: "rx-be".to_string(),
            flow: 2,
            count: 3000,
            size: 200,
            gap_ns: 997_000,
        },
    ));
    let lan = LinkParams {
        rate_bps: 100_000_000,
        propagation_ns: 50_000,
    };
    for (a, b) in [
        ("src-ef", "edge"),
        ("src-be", "edge"),
        ("out", "rx-ef"),
        ("out", "rx-be"),
    ] {
        spec.links.push(LinkSpec::simple(a, b, lan));
    }
    // A long feeder keeps best-effort packets in flight toward `relay`
    // while expedited ones leave `edge` behind them.
    spec.links.push(LinkSpec::simple(
        "edge",
        "relay",
        LinkParams {
            rate_bps: 100_000_000,
            propagation_ns: 500_000,
        },
    ));
    spec.links.push(LinkSpec::symmetric(
        "relay",
        "out",
        LinkParams {
            rate_bps: 3_000_000,
            propagation_ns: 1_000_000,
        },
        QdiscSpec::StrictPriorityEf {
            ef: LimitsSpec::bytes(30_000),
            be: LimitsSpec::packets(20),
        },
    ));
    spec.conditioners.push(ConditionerSpec {
        node: "edge".to_string(),
        tap: None,
        rules: Vec::new(),
    });
    let (walked, dispatched) = assert_equivalent("mixed classes", &spec);
    assert!(walked < dispatched, "expedited packets chain through relay");
}

/// Stopped mid-stream, with packets inside chains, the two agree at the
/// stop; resumed with `run_for` up to the spec's horizon, they agree
/// again.
#[test]
fn qbone_point_stopped_mid_stream_and_resumed() {
    let spec = qbone_spec(&fig07_point());
    let stop = SimTime::from_nanos(20_000_123_457);
    let end = horizon(&spec);
    let mut chained = Run::new(&spec);
    let mut reference = Run::per_hop(&spec);
    for run in [&mut chained, &mut reference] {
        assert!(run.sim.run_until(stop).hit_horizon);
    }
    assert_eq!(
        chained.observed(),
        reference.observed(),
        "at the stop: chains on the wheel vs per hop on the heap"
    );
    for run in [&mut chained, &mut reference] {
        // The two queues stopped at different last events; each resumes
        // for the span that takes it to the same end.
        let span = end.saturating_since(run.sim.queue.now());
        run.sim.run_for(span);
    }
    assert_eq!(
        chained.observed(),
        reference.observed(),
        "after resuming: chains on the wheel vs per hop on the heap"
    );
}

#[test]
fn paced_server_figure_7_point() {
    assert_wakes_like_per_tick("fig07", &qbone_spec(&fig07_point()));
}

#[test]
fn paced_server_dark_point() {
    let cfg = QboneConfig::new(
        ClipId2::Dark,
        1_000_000,
        EfProfile::new(1_000_000, DEPTH_2MTU),
    );
    assert_wakes_like_per_tick("dark 1.0 Mbps", &qbone_spec(&cfg));
}

#[test]
fn paced_servers_eight_flow_aggregate() {
    assert_wakes_like_per_tick("aggregate x8", &eight_flow_aggregate());
}

/// Stopped mid-stream, with a wake-up pending and its packets held, the
/// paced server and the per-tick loop agree at the stop and again after
/// resuming with `run_for` to the spec's horizon.
#[test]
fn paced_server_stopped_mid_stream_and_resumed() {
    let spec = qbone_spec(&fig07_point());
    let stop = SimTime::from_nanos(20_000_123_457);
    let end = horizon(&spec);
    let mut woken = Run::new(&spec);
    let mut ticked = Run::per_tick(&spec);
    for run in [&mut woken, &mut ticked] {
        assert!(run.sim.run_until(stop).hit_horizon);
    }
    assert_eq!(
        woken.observed(),
        ticked.observed(),
        "at the stop: woken on the wheel vs per tick on the heap"
    );
    for run in [&mut woken, &mut ticked] {
        let span = end.saturating_since(run.sim.queue.now());
        run.sim.run_for(span);
    }
    assert_eq!(
        woken.observed(),
        ticked.observed(),
        "after resuming: woken on the wheel vs per tick on the heap"
    );
}

/// Asks its server to play at start and, when `teardown_at` is set,
/// tears the session down then; both on flow 9.
struct Viewer {
    server: NodeId,
    teardown_at: Option<SimDuration>,
}

impl Viewer {
    fn control(&self, ctx: &mut AppCtx<StreamPayload>, msg: ControlMsg) {
        ctx.send(SendSpec {
            dst: self.server,
            flow: FlowId(9),
            size: CONTROL_PACKET_BYTES,
            dscp: Dscp::BEST_EFFORT,
            proto: Proto::Tcp,
            fragment: None,
            payload: StreamPayload::Control(msg),
        });
    }
}

impl Application<StreamPayload> for Viewer {
    fn on_start(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        self.control(ctx, ControlMsg::Play);
        if let Some(at) = self.teardown_at {
            ctx.set_timer(at, 0);
        }
    }
    fn on_packet(&mut self, _ctx: &mut AppCtx<StreamPayload>, _pkt: Packet<StreamPayload>) {}
    fn on_timer(&mut self, ctx: &mut AppCtx<StreamPayload>, _token: u64) {
        self.control(ctx, ControlMsg::Teardown);
    }
}

/// A control packet from the viewer reaches the server this long after it
/// is sent.
const TO_SERVER: SimDuration = SimDuration::from_micros(7_500);

/// A viewer and a paced server (or the per-tick reference) on one link;
/// a 64-byte control packet takes [`TO_SERVER`] to cross it. Returns the
/// media (flow 1) and control (flow 9) traces.
fn viewer_session(
    per_tick: bool,
    teardown_at: Option<SimDuration>,
) -> (Vec<TraceEntry>, Vec<TraceEntry>) {
    let clip = mpeg1::encode(&ClipId::Lost.model(), 1_000_000);
    let mut b = NetworkBuilder::new();
    let viewer = b.add_host(
        "viewer",
        Box::new(Viewer {
            server: NodeId(1),
            teardown_at,
        }),
    );
    let cfg = PacedConfig::new(viewer, FlowId(1), Dscp::EF_QBONE);
    let server: Box<dyn Application<StreamPayload> + Send> = if per_tick {
        Box::new(PerTickPacedServer::new(cfg, &clip))
    } else {
        Box::new(PacedServer::new(cfg, &clip))
    };
    let server = b.add_host("server", server);
    assert_eq!(server, NodeId(1));
    let rate = 100_000_000;
    let serialization = SimDuration::for_bytes_at_bps(u64::from(CONTROL_PACKET_BYTES), rate);
    b.connect_with(
        viewer,
        server,
        Link::new(rate, TO_SERVER - serialization),
        Link::fast_ethernet(),
        Box::new(DropTailQueue::new(QueueLimits::UNBOUNDED)),
        Box::new(DropTailQueue::new(QueueLimits::UNBOUNDED)),
    );
    let mut net = b.build();
    net.stats.trace_flow(FlowId(1));
    net.stats.trace_flow(FlowId(9));
    let mut sim = Simulation::new(net);
    sim.run();
    let trace = |flow| sim.net.stats.trace_of(flow).expect("traced").to_vec();
    (trace(FlowId(1)), trace(FlowId(9)))
}

fn instants(trace: &[TraceEntry], kind: TraceKind) -> Vec<SimTime> {
    trace
        .iter()
        .filter(|e| e.kind == kind)
        .map(|e| e.at)
        .collect()
}

/// A `Teardown` ends the stream mid-clip, as it ends the per-tick loop's.
/// It arrives at the very instant of a wake-up that skipped idle ticks,
/// and was sent 7.5 ms before: after the last wake-up that sent, before
/// the idle tick that would have filed this one. The per-tick loop
/// delivers the teardown first, so that tick sends nothing; the wake-up,
/// stamped as filed one tick before it fires, must sort the same way.
#[test]
fn teardown_at_a_skipping_wake_up_stops_the_paced_server() {
    let (media, _) = viewer_session(false, None);
    let sent = instants(&media, TraceKind::Sent);
    let ten_ms = SimDuration::from_millis(10);
    let wake = sent
        .windows(2)
        .find(|w| w[0] > SimTime::from_secs(10) && w[0] + ten_ms <= w[1])
        .expect("a wake-up after at least one idle tick")[1];

    let teardown_at = Some(wake.saturating_since(SimTime::ZERO) - TO_SERVER);
    let (media, control) = viewer_session(false, teardown_at);
    let torn_down = *instants(&control, TraceKind::Delivered)
        .last()
        .expect("the teardown arrives");
    assert_eq!(
        torn_down, wake,
        "the teardown reaches the server at the wake-up"
    );
    let sent = instants(&media, TraceKind::Sent);
    assert!(sent.len() > 500, "streamed until the teardown");
    assert!(
        sent.iter().all(|&at| at < wake),
        "a packet left at or after the teardown reached the server at {wake:?}"
    );
    let (ref_media, ref_control) = viewer_session(true, teardown_at);
    assert_eq!(format!("{media:?}"), format!("{ref_media:?}"));
    assert_eq!(format!("{control:?}"), format!("{ref_control:?}"));
}

/// The builder marks chain hops from the declared traffic, so a host that
/// sends anywhere else stops the run at its first such packet.
#[test]
#[should_panic(expected = "host tx sent a packet to other, but declared that it sends only to rx")]
fn a_send_to_an_undeclared_destination_panics() {
    let mut b = NetworkBuilder::<StreamPayload>::new();
    let rx = b.add_host("rx", Box::new(dsv_net::app::NullApp));
    let other = b.add_host("other", Box::new(dsv_net::app::NullApp));
    let r = b.add_router("r");
    let tx = b.add_host(
        "tx",
        Box::new(Pump {
            dst: other,
            flow: FlowId(1),
            count: 1,
            size: 500,
            gap: SimDuration::from_millis(1),
            sent: 0,
        }),
    );
    for host in [rx, other, tx] {
        b.connect(host, r, Link::fast_ethernet());
    }
    b.declare_traffic(tx, Some(rx));
    Simulation::new(b.build()).run();
}
