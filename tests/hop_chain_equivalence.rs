//! Hop chains against per-hop dispatch, and paced servers that wake only
//! to send against the per-tick loop, byte for byte.
//!
//! The network walks a packet through the FIFO relay hops of a path
//! arithmetically instead of dispatching one `Arrive` per hop (DESIGN.md
//! §6b, "Hop chains"), over the traffic the spec declares, and crosses a
//! conditioner for the pairs it decides alone. The reference needs no
//! knob: a router whose conditioner keeps the default answer to
//! `Conditioner::decides_alone` is never a chain hop, so compiling a spec
//! with an empty-rule conditioner (`rules: []`, which passes every packet)
//! added to every router that has none, and every conditioner wrapped in
//! an opaque delegate through `CompileOptions::wrap`, dispatches every
//! hop, as the engine did before chains existed. It also puts every
//! application behind a delegate that keeps the default answer to
//! `Application::absorbs`, so every packet reaches its host by an
//! `Arrive` (§6b, "Absorbed packets").
//!
//! A paced server wakes only at the ticks that send (§6b, "Paced servers
//! wake only to send"), and at each sends every packet due before its
//! send horizon, each at its own instant (§6b, "Paced servers send ahead
//! within their inbound lookahead"). Its reference is the two-timer loop
//! it replaced, kept in `support/per_tick_server.rs` and swapped in for
//! every paced server of the compiled spec. Traces are compared as text,
//! so the sends recorded ahead must read in instant order.
//!
//! Each spec runs both ways and must agree on every flow's counters (sent,
//! delivered, drops by reason, delay summary and histogram), every flow's
//! full packet trace (each send, delivery and drop with its instant and
//! node), and every client and sink report. A traced flow keeps its
//! `Arrive`s, so each chained spec also runs with no flow traced, its
//! hosts absorbing what they may, and must agree on everything but the
//! traces.
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
use dsv_net::app::{AppCtx, Application, NullApp, SendSpec};
use dsv_net::conditioner::{ConditionOutcome, Conditioner, QuickVerdict, Released};
use dsv_net::link::Link;
use dsv_net::network::{Network, NetworkBuilder, Simulation};
use dsv_net::packet::{DropReason, Dscp, FlowId, NodeId, Packet, Proto};
use dsv_net::qdisc::{DropTailQueue, QueueLimits};
use dsv_net::stats::{TraceEntry, TraceKind};
use dsv_scenario::apps::Pump;
use dsv_scenario::spec::{
    ActionSpec, AppSpec, ConditionerSpec, DscpSpec, LimitsSpec, LinkParams, LinkSpec, MatchSpec,
    NodeSpec, QdiscSpec, RuleSpec,
};
use dsv_scenario::{
    compile, BoxConditioner, ClipStore, CompileOptions, CompiledScenario, ScenarioSpec,
};
use dsv_sim::{EventQueue, QueueBackend, SimDuration, SimTime};
use dsv_stream::payload::{ControlMsg, StreamPayload, CONTROL_PACKET_BYTES};
use dsv_stream::server::paced::{multi_rate_tier, PacedConfig, PacedServer, TICK};

use per_tick_server::PerTickPacedServer;

/// The same scenario with a conditioner on every router, each with a tap
/// for [`opaque`] to wrap: an empty-rule one where the spec has none.
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
    for cond in &mut reference.conditioners {
        cond.tap.get_or_insert_with(|| cond.node.clone());
    }
    reference
}

/// Delegates every decision to the conditioner it wraps, but keeps the
/// default answer to [`Conditioner::decides_alone`], so no walk crosses
/// its router.
struct Opaque(BoxConditioner);

impl Conditioner<StreamPayload> for Opaque {
    fn submit(
        &mut self,
        now: SimTime,
        pkt: Packet<StreamPayload>,
    ) -> ConditionOutcome<StreamPayload> {
        self.0.submit(now, pkt)
    }

    fn quick(&mut self, now: SimTime, pkt: &mut Packet<StreamPayload>) -> QuickVerdict {
        self.0.quick(now, pkt)
    }

    fn release(&mut self, now: SimTime) -> Released<StreamPayload> {
        self.0.release(now)
    }

    fn held(&self) -> usize {
        self.0.held()
    }
}

fn opaque(_tap: &str, inner: BoxConditioner) -> BoxConditioner {
    Box::new(Opaque(inner))
}

/// Delegates every callback to the application it wraps, but keeps the
/// default answer to [`Application::absorbs`], so every packet to its
/// host is dispatched.
struct Dispatched(Box<dyn Application<StreamPayload> + Send>);

impl Application<StreamPayload> for Dispatched {
    fn on_start(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        self.0.on_start(ctx);
    }

    fn on_packet(&mut self, ctx: &mut AppCtx<StreamPayload>, pkt: Packet<StreamPayload>) {
        self.0.on_packet(ctx, pkt);
    }

    fn on_timer(&mut self, ctx: &mut AppCtx<StreamPayload>, token: u64) {
        self.0.on_timer(ctx, token);
    }
}

/// A compiled scenario in its simulation, with every flow traced unless
/// it is built to absorb, and the handles that read its applications
/// back.
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
        Run::start(compiled(spec), Simulation::new, true)
    }

    /// `spec` as every experiment runs it, with no flow traced, so its
    /// hosts absorb every packet they may.
    fn absorbing(spec: &ScenarioSpec) -> Run {
        Run::start(compiled(spec), Simulation::new, false)
    }

    /// `spec` with every hop and every packet to a host dispatched, on
    /// the heap.
    fn per_hop(spec: &ScenarioSpec) -> Run {
        let opts = CompileOptions {
            store: Some(&ArtifactStore),
            wrap: Some(&opaque),
        };
        let mut compiled = compile(&per_hop(spec), opts).expect("spec compiles");
        for node in spec.nodes.iter().filter(|n| n.app.is_some()) {
            let host = compiled.node(&node.name);
            let app = compiled.net.replace_app(host, Box::new(NullApp));
            compiled.net.replace_app(host, Box::new(Dispatched(app)));
        }
        Run::start(compiled, on_heap, true)
    }

    /// `spec` with every paced server, multi-rate ones included, replaced
    /// by the per-tick reference over the encoding it streams, on the
    /// heap.
    fn per_tick(spec: &ScenarioSpec) -> Run {
        let mut compiled = compiled(spec);
        for node in &spec.nodes {
            let (client, flow, dscp, media) = match &node.app {
                Some(AppSpec::PacedServer {
                    client,
                    flow,
                    dscp,
                    media,
                }) => (client, flow, dscp, media),
                Some(AppSpec::MultiRatePacedServer {
                    client,
                    flow,
                    dscp,
                    tiers,
                    estimate_bps,
                }) => {
                    let rates: Vec<u64> = tiers.iter().map(|t| t.rate_bps).collect();
                    let chosen = multi_rate_tier(&rates, *estimate_bps).expect("valid tiers");
                    (client, flow, dscp, &tiers[chosen])
                }
                _ => continue,
            };
            let clip = ArtifactStore.encoding(media.clip, media.codec, media.rate_bps);
            let cfg = PacedConfig::new(compiled.node(client), FlowId(*flow), dscp.to_dscp());
            let host = compiled.node(&node.name);
            compiled
                .net
                .replace_app(host, Box::new(PerTickPacedServer::new(cfg, &clip)));
        }
        Run::start(compiled, on_heap, true)
    }

    fn start(
        mut compiled: CompiledScenario,
        simulation: fn(Network<StreamPayload>) -> Simulation<StreamPayload>,
        traced: bool,
    ) -> Run {
        // Flow labels in the committed scenarios stay below 2048.
        for flow in (0..2048).filter(|_| traced) {
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
        self.report(true)
    }

    /// Everything a run reports, one line per item, flow traces only if
    /// `traces`.
    fn report(&self, traces: bool) -> Vec<String> {
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
            if traces {
                out.push(format!("flow {} trace {:?}", flow.0, stats.trace_of(*flow)));
            }
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
/// horizon, and require the same observations; then with chains and no
/// flow traced, so its hosts absorb what they may, and require the same
/// observations but the traces. Returns the events the traced runs
/// dispatched.
fn assert_equivalent(label: &str, spec: &ScenarioSpec) -> (u64, u64) {
    let mut chained = Run::new(spec);
    let mut reference = Run::per_hop(spec);
    let mut absorbing = Run::absorbing(spec);
    let a = chained.sim.run_until(horizon(spec));
    let b = reference.sim.run_until(horizon(spec));
    let c = absorbing.sim.run_until(horizon(spec));
    assert_eq!(
        chained.observed(),
        reference.observed(),
        "{label}: chains on the wheel vs per hop on the heap"
    );
    assert_eq!(
        absorbing.report(false),
        reference.report(false),
        "{label}: absorbing chains on the wheel vs per hop on the heap"
    );
    assert!(
        a.dispatched <= b.dispatched && c.dispatched <= a.dispatched,
        "{label}: absorbing chains on the wheel dispatched {} events, chains {}, \
         per hop on the heap {}",
        c.dispatched,
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
/// share `relay`'s 3 Mbps strict-priority port.
fn mixed_classes() -> ScenarioSpec {
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
    spec
}

/// Best-effort packets take the per-hop path at `relay`'s strict-priority
/// port, and every expedited packet behind one in flight or queued must
/// too, or it would be served ahead of it.
#[test]
fn mixed_classes_on_a_strict_priority_chain_port() {
    let (walked, dispatched) = assert_equivalent("mixed classes", &mixed_classes());
    assert!(walked < dispatched, "expedited packets chain through relay");
}

/// `relay` polices each class's pair, dropping: the expedited packets are
/// decided inside their walk, and the best-effort ones, left to per-hop
/// dispatch by the strict-priority port, at their `Arrive`, where a drop
/// must release the port to the expedited packets behind it.
#[test]
fn policers_in_front_of_a_strict_priority_chain_port() {
    let mut spec = mixed_classes();
    let police = |src: &str, dst: &str, rate_bps, depth_bytes| RuleSpec {
        matches: MatchSpec::src_dst(src, dst),
        action: ActionSpec::Police {
            rate_bps,
            depth_bytes,
            conform_mark: None,
        },
    };
    spec.conditioners.push(ConditionerSpec {
        node: "relay".to_string(),
        tap: None,
        rules: vec![
            police("src-ef", "rx-ef", 1_500_000, 6_000),
            police("src-be", "rx-be", 1_000_000, 1_000),
        ],
    });
    let (walked, dispatched) = assert_equivalent("policed mixed classes", &spec);
    assert!(walked < dispatched, "expedited packets chain through relay");
    let mut run = Run::new(&spec);
    run.sim.run_until(horizon(&spec));
    for flow in [FlowId(1), FlowId(2)] {
        let c = run.sim.net.stats.flow(flow);
        assert!(
            c.drops_for(DropReason::PolicerNonConformant) > 0,
            "flow {}: the policer at relay must drop",
            flow.0
        );
    }
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

/// The multi-rate ablation's server at 1.8 Mb/s sizes its encoding to
/// 88% of the token rate, so it streams the middle of its three tiers
/// (1.5 Mbps) while the client expects 1.7 Mbps.
#[test]
fn multi_rate_paced_server_ablation_point() {
    let mut cfg = QboneConfig::new(
        ClipId2::Lost,
        1_700_000,
        EfProfile::new(1_800_000, DEPTH_3MTU),
    );
    cfg.server = QboneServer::MultiRatePaced;
    assert_wakes_like_per_tick("multi-rate 1.8 Mb/s", &qbone_spec(&cfg));
}

#[test]
fn paced_servers_eight_flow_aggregate() {
    assert_wakes_like_per_tick("aggregate x8", &eight_flow_aggregate());
}

/// Best-effort cross traffic merges at `core1`, so every media packet sent
/// ahead ends its walk there, and its `Arrive` is dispatched among the
/// cross traffic's.
#[test]
fn paced_server_figure_7_point_with_cross_traffic() {
    let mut cfg = fig07_point();
    cfg.cross_traffic = true;
    assert_wakes_like_per_tick("fig07 cross traffic", &qbone_spec(&cfg));
}

/// Stopped inside a send-ahead window, at a sending tick the window's
/// wake-up sent ahead and a nanosecond before it, the paced server has
/// sent what the per-tick loop has, the tick at the stop included, though
/// its last event is earlier; resumed to the spec's horizon, the two agree
/// again. The window is found from the wake-ups of an undisturbed run.
#[test]
fn paced_server_stopped_inside_a_window_and_resumed() {
    let spec = qbone_spec(&fig07_point());
    let end = horizon(&spec);
    let mut watched = Run::new(&spec);
    let wakes = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let host = watched.apps.node("video-server");
    let media = spec
        .nodes
        .iter()
        .find_map(|n| match &n.app {
            Some(AppSpec::PacedServer { media, .. }) => Some(media),
            _ => None,
        })
        .expect("a paced server");
    let clip = ArtifactStore.encoding(media.clip, media.codec, media.rate_bps);
    let cfg = PacedConfig::new(watched.apps.node("client"), FlowId(1), Dscp::EF_QBONE);
    watched.sim.net.replace_app(
        host,
        Box::new(Wakes {
            server: PacedServer::unshared(cfg, &clip),
            at: wakes.clone(),
        }),
    );
    watched.sim.run_until(end);
    let wakes = wakes.lock().expect("wake-ups").clone();
    let i = wakes
        .iter()
        .position(|&at| at > SimTime::from_secs(20))
        .expect("a wake-up after 20 s");
    let window = wakes[i]..wakes[i + 1];
    let tick = watched
        .sim
        .net
        .stats
        .trace_of(FlowId(1))
        .expect("traced")
        .iter()
        .find(|e| e.kind == TraceKind::Sent && e.at > window.start && e.at < window.end)
        .expect("a tick sent ahead inside the window")
        .at;
    for stop in [tick, tick - SimDuration::from_nanos(1)] {
        let mut woken = Run::new(&spec);
        let mut ticked = Run::per_tick(&spec);
        for run in [&mut woken, &mut ticked] {
            assert!(run.sim.run_until(stop).hit_horizon);
        }
        assert!(
            woken.sim.queue.now() < tick,
            "stopped at {stop:?}: the tick at {tick:?} was sent ahead, with no event at it"
        );
        assert_eq!(
            woken.observed(),
            ticked.observed(),
            "stopped at {stop:?}: woken on the wheel vs per tick on the heap"
        );
        for run in [&mut woken, &mut ticked] {
            let span = end.saturating_since(run.sim.queue.now());
            run.sim.run_for(span);
        }
        assert_eq!(
            woken.observed(),
            ticked.observed(),
            "stopped at {stop:?} and resumed: woken on the wheel vs per tick on the heap"
        );
    }
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

/// Records the instant of every timer it is woken by, then hands each
/// callback to the server it wraps.
struct Wakes<A> {
    server: A,
    at: std::sync::Arc<std::sync::Mutex<Vec<SimTime>>>,
}

impl<A: Application<StreamPayload>> Application<StreamPayload> for Wakes<A> {
    fn on_start(&mut self, ctx: &mut AppCtx<StreamPayload>) {
        self.server.on_start(ctx);
    }
    fn on_packet(&mut self, ctx: &mut AppCtx<StreamPayload>, pkt: Packet<StreamPayload>) {
        self.server.on_packet(ctx, pkt);
    }
    fn on_timer(&mut self, ctx: &mut AppCtx<StreamPayload>, token: u64) {
        self.at.lock().expect("wake-ups").push(ctx.now());
        self.server.on_timer(ctx, token);
    }
}

/// One session of [`viewer_session_over`].
struct Session {
    /// The media (flow 1) trace.
    media: Vec<TraceEntry>,
    /// The control (flow 9) trace.
    control: Vec<TraceEntry>,
    /// When the server's timers fired.
    wakes: Vec<SimTime>,
}

/// A viewer and a paced server (or the per-tick reference) on one link;
/// a 64-byte control packet takes `to_server` to cross it, which is also
/// the server's inbound lookahead, and media crosses back over
/// `to_viewer`.
fn viewer_session_over(
    to_server: SimDuration,
    to_viewer: Link,
    per_tick: bool,
    teardown_at: Option<SimDuration>,
) -> Session {
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
    let wakes = std::sync::Arc::new(std::sync::Mutex::new(Vec::new()));
    let server: Box<dyn Application<StreamPayload> + Send> = if per_tick {
        Box::new(PerTickPacedServer::new(cfg, &clip))
    } else {
        Box::new(Wakes {
            server: PacedServer::unshared(cfg, &clip),
            at: wakes.clone(),
        })
    };
    let server = b.add_host("server", server);
    assert_eq!(server, NodeId(1));
    let rate = 100_000_000;
    let serialization = SimDuration::for_bytes_at_bps(u64::from(CONTROL_PACKET_BYTES), rate);
    b.connect_with(
        viewer,
        server,
        Link::new(rate, to_server - serialization),
        to_viewer,
        Box::new(DropTailQueue::new(QueueLimits::UNBOUNDED)),
        Box::new(DropTailQueue::new(QueueLimits::UNBOUNDED)),
    );
    let mut net = b.build();
    net.stats.trace_flow(FlowId(1));
    net.stats.trace_flow(FlowId(9));
    let mut sim = Simulation::new(net);
    sim.run();
    let trace = |flow| sim.net.stats.trace_of(flow).expect("traced").to_vec();
    let wakes = std::mem::take(&mut *wakes.lock().expect("wake-ups"));
    Session {
        media: trace(FlowId(1)),
        control: trace(FlowId(9)),
        wakes,
    }
}

/// [`viewer_session_over`] a link of [`TO_SERVER`]: the media and control
/// traces.
fn viewer_session(
    per_tick: bool,
    teardown_at: Option<SimDuration>,
) -> (Vec<TraceEntry>, Vec<TraceEntry>) {
    let session = viewer_session_over(TO_SERVER, Link::fast_ethernet(), per_tick, teardown_at);
    (session.media, session.control)
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

/// A `Teardown` in flight when a window would open holds the server's send
/// horizon at each wake-up: it sends only the tick due then, and wakes at
/// every sending tick until the teardown lands. Over a 30 ms link (QBone's
/// lookahead) the teardown leaves 1 ms before a wake-up of the undisturbed
/// run, so that wake-up and the ones after it find it in flight.
#[test]
fn teardown_in_flight_when_a_window_would_open() {
    let to_server = SimDuration::from_millis(30);
    let undisturbed = viewer_session_over(to_server, Link::fast_ethernet(), false, None);
    let window = *undisturbed
        .wakes
        .iter()
        .find(|&&at| at > SimTime::from_secs(10))
        .expect("a wake-up mid-stream");
    let sent_at = window - SimDuration::from_millis(1);
    let teardown_at = Some(sent_at.saturating_since(SimTime::ZERO));

    let torn = viewer_session_over(to_server, Link::fast_ethernet(), false, teardown_at);
    let lands = *instants(&torn.control, TraceKind::Delivered)
        .last()
        .expect("the teardown arrives");
    assert_eq!(lands, sent_at + to_server);
    let held: Vec<SimTime> = torn
        .wakes
        .iter()
        .copied()
        .filter(|&at| at > sent_at && at < lands)
        .collect();
    assert!(
        held.len() >= 3 && held[0] == window,
        "per-tick wake-ups while the teardown is in flight: {held:?}"
    );
    let sent = instants(&torn.media, TraceKind::Sent);
    assert!(
        sent.iter().any(|&at| at > window),
        "streamed past the window"
    );
    assert!(sent.iter().all(|&at| at < lands), "sent after the teardown");

    let reference = viewer_session_over(to_server, Link::fast_ethernet(), true, teardown_at);
    assert_eq!(
        format!("{:?}", torn.media),
        format!("{:?}", reference.media)
    );
    assert_eq!(
        format!("{:?}", torn.control),
        format!("{:?}", reference.control)
    );
}

/// A last hop to the viewer of two ticks (a full 1500-byte packet takes
/// 1 ms to serialize at 12 Mb/s and 9 ms to propagate) delivers a tick's
/// first full packet at the tick two ticks later, filed where it left:
/// before that tick's timer was filed, so the per-tick loop records the
/// delivery before the send. A 30 ms window sends that tick ahead,
/// recording its send first; the trace must still read the delivery
/// first.
#[test]
fn paced_server_over_a_last_hop_of_two_ticks() {
    let to_server = SimDuration::from_millis(30);
    let to_viewer = Link::new(12_000_000, SimDuration::from_millis(9));
    let woken = viewer_session_over(to_server, to_viewer, false, None);
    let ticked = viewer_session_over(to_server, to_viewer, true, None);
    let delivered_first = ticked
        .media
        .windows(2)
        .filter(|w| {
            w[0].at == w[1].at
                && w[0].kind == TraceKind::Delivered
                && w[1].kind == TraceKind::Sent
                && w[0].filed + TICK <= w[1].filed
        })
        .count();
    assert!(
        delivered_first > 100,
        "deliveries filed a tick or more before a send at their instant: {delivered_first}"
    );
    let sent = instants(&woken.media, TraceKind::Sent);
    let ahead = sent.iter().filter(|at| !woken.wakes.contains(at)).count();
    assert!(
        ahead > sent.len() / 3,
        "{ahead} of {} sent ahead",
        sent.len()
    );
    assert_eq!(format!("{:?}", woken.media), format!("{:?}", ticked.media));
    assert_eq!(
        format!("{:?}", woken.control),
        format!("{:?}", ticked.control)
    );
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
