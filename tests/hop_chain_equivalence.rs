//! Hop chains against per-hop dispatch, byte for byte.
//!
//! The network walks a packet through the FIFO relay hops behind a
//! conditioner arithmetically instead of dispatching one `Arrive` per hop
//! (DESIGN.md §6b, "Hop chains"). The reference needs no knob: a router
//! with a conditioner is never a chain hop, so compiling a spec with an
//! empty-rule conditioner (`rules: []`, which passes every packet) added
//! to every router that has none dispatches every hop, as the engine did
//! before chains existed.
//!
//! Each spec runs both ways and must agree on every flow's counters (sent,
//! delivered, drops by reason, delay summary and histogram), every flow's
//! full packet trace (each send, delivery and drop with its instant and
//! node), and every client and sink report.

use dsv_core::af_tcp::{af_tcp_spec, AfTcpConfig};
use dsv_core::aggregate::aggregate_spec;
use dsv_core::artifacts::ArtifactStore;
use dsv_core::local::local_spec;
use dsv_core::prelude::*;
use dsv_core::qbone::qbone_spec;
use dsv_core::smoothing::{smoothing_spec, SmoothingConfig, SmoothingServer, DEPTH_10MTU};
use dsv_net::network::{NetworkBuilder, Simulation};
use dsv_net::packet::{DropReason, FlowId};
use dsv_scenario::spec::{
    AppSpec, ConditionerSpec, DscpSpec, LimitsSpec, LinkParams, LinkSpec, NodeSpec, QdiscSpec,
};
use dsv_scenario::{compile, CompileOptions, CompiledScenario, ScenarioSpec};
use dsv_sim::SimTime;
use dsv_stream::payload::StreamPayload;

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

impl Run {
    fn new(spec: &ScenarioSpec) -> Run {
        let mut compiled = compile(
            spec,
            CompileOptions {
                store: Some(&ArtifactStore),
                wrap: None,
            },
        )
        .expect("spec compiles");
        // Flow labels in the committed scenarios stay below 2048.
        for flow in 0..2048 {
            compiled.net.stats.trace_flow(FlowId(flow));
        }
        // Keep the handles; the network moves into the simulation.
        let net = std::mem::replace(&mut compiled.net, NetworkBuilder::new().build());
        Run {
            sim: Simulation::new(net),
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

/// Run `spec` with chains and per hop, to its horizon, and require the
/// same observations. Returns the events each dispatched.
fn assert_equivalent(label: &str, spec: &ScenarioSpec) -> (u64, u64) {
    let mut chained = Run::new(spec);
    let mut reference = Run::new(&per_hop(spec));
    let a = chained.sim.run_until(horizon(spec));
    let b = reference.sim.run_until(horizon(spec));
    assert_eq!(chained.observed(), reference.observed(), "{label}");
    assert!(
        a.dispatched <= b.dispatched,
        "{label}: chains dispatched {} events, per-hop {}",
        a.dispatched,
        b.dispatched
    );
    (a.dispatched, b.dispatched)
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
    let mut reference = Run::new(&per_hop(&spec));
    for run in [&mut chained, &mut reference] {
        assert!(run.sim.run_until(stop).hit_horizon);
    }
    assert_eq!(chained.observed(), reference.observed(), "at the stop");
    for run in [&mut chained, &mut reference] {
        // The two queues stopped at different last events; each resumes
        // for the span that takes it to the same end.
        let span = end.saturating_since(run.sim.queue.now());
        run.sim.run_for(span);
    }
    assert_eq!(chained.observed(), reference.observed(), "after resuming");
}
