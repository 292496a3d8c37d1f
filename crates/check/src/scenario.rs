//! Reference scenarios the self-tests inject faults into.
//!
//! Two fixtures cover the fault matrix:
//!
//! * [`run_policer_chain`] — a constant-rate source through one policed
//!   router into a recording sink. Small, fast, and fully parameterised
//!   (rates, link speed, queue backend), it is where the oracle
//!   self-tests and the metamorphic time-dilation property run.
//! * [`run_stream_chain`] — a real paced video server and streaming
//!   client across a faultable router, for playback-robustness checks.
//!
//! Both fixtures are declared as [`ScenarioSpec`]s ([`chain_spec`],
//! [`stream_spec`]) and lowered by the scenario compiler — nodes resolve
//! by name, never by creation order — with the [`FaultPlan`] installed
//! through the compiler's tap-wrap hook. Both take an explicit
//! [`QueueBackend`] so differential tests can run the wheel and the heap
//! in the same process, and both always run audited and return the
//! audit's report.

use dsv_media::scene::ClipId;
use dsv_net::audit::AuditReport;
use dsv_net::network::Simulation;
use dsv_net::packet::FlowId;
use dsv_scenario::{
    compile, ActionSpec, AppSpec, BoundSpec, BoxConditioner, CodecSpec, CompileOptions,
    ConditionerSpec, DscpSpec, LinkParams, LinkSpec, MatchSpec, MediaRef, NodeSpec, RuleSpec,
    ScenarioSpec, TransportSpec,
};
use dsv_sim::{EventQueue, QueueBackend, SimDuration, SimTime};

use crate::fault::FaultPlan;

/// Flow id of the chain scenarios' traffic.
pub const CHAIN_FLOW: FlowId = FlowId(1);

/// Name of the faultable conditioner tap in both scenarios.
pub const TAP: &str = "ingress";

/// Parameters of the policer-chain scenario.
#[derive(Debug, Clone)]
pub struct ChainConfig {
    /// Packets the source offers.
    pub packets: u32,
    /// Wire size of each packet, bytes.
    pub size: u32,
    /// Inter-packet gap at the source.
    pub gap: SimDuration,
    /// Token rate of the policer at the tap router, bps.
    pub rate_bps: u64,
    /// Bucket depth of the policer, bytes.
    pub depth_bytes: u32,
    /// Rate of both links, bps.
    pub link_bps: u64,
    /// Propagation delay of both links.
    pub prop: SimDuration,
    /// Event-queue backend to run under.
    pub backend: QueueBackend,
    /// Faults to plant at the [`TAP`].
    pub plan: FaultPlan,
}

impl Default for ChainConfig {
    /// A generously policed chain: 12 Mbps offered against a 20 Mbps
    /// token rate, so every packet passes and a clean run is violation-
    /// free. Tests that want policer drops lower `rate_bps`.
    fn default() -> ChainConfig {
        ChainConfig {
            packets: 200,
            size: 1500,
            gap: SimDuration::from_millis(1),
            rate_bps: 20_000_000,
            depth_bytes: 4500,
            link_bps: 100_000_000,
            prop: SimDuration::from_micros(50),
            backend: QueueBackend::Wheel,
            plan: FaultPlan::none(),
        }
    }
}

impl ChainConfig {
    /// The same experiment dilated by `k`: all rates divided and all
    /// durations multiplied, so every timestamp scales by exactly `k`
    /// and every per-packet decision must be identical — the metamorphic
    /// time-dilation property. `rate_bps` and `link_bps` must be
    /// divisible by `k` for the scaling to be exact in integer time.
    pub fn dilated(&self, k: u64) -> ChainConfig {
        assert!(k > 0 && self.rate_bps % k == 0 && self.link_bps % k == 0);
        let mut cfg = self.clone();
        cfg.gap = scale(self.gap, k);
        cfg.prop = scale(self.prop, k);
        cfg.rate_bps = self.rate_bps / k;
        cfg.link_bps = self.link_bps / k;
        cfg
    }
}

fn scale(d: SimDuration, k: u64) -> SimDuration {
    SimDuration::from_nanos(d.as_nanos() * k)
}

/// What the policer chain produced.
#[derive(Debug)]
pub struct ChainOutcome {
    /// Packets the source handed to the network.
    pub tx: u64,
    /// Packets the sink received.
    pub rx: u64,
    /// Packets the policer discarded.
    pub drops: u64,
    /// Delivered packet ids, in arrival order at the sink.
    pub delivered_ids: Vec<u64>,
    /// End-of-run simulation time.
    pub end_time: SimTime,
    /// Events dispatched.
    pub dispatched: u64,
    /// The audit's verdict.
    pub audit: AuditReport,
}

impl ChainOutcome {
    /// Fraction of offered packets that never reached the sink.
    pub fn loss_fraction(&self) -> f64 {
        if self.tx == 0 {
            0.0
        } else {
            1.0 - self.rx as f64 / self.tx as f64
        }
    }
}

/// The declarative policer-chain topology for `cfg` (faults and backend
/// are runtime concerns and stay outside the spec).
pub fn chain_spec(cfg: &ChainConfig) -> ScenarioSpec {
    let mut spec = ScenarioSpec::new("policer-chain", 0);
    spec.nodes.push(NodeSpec::host("rx", AppSpec::IdSink));
    spec.nodes.push(NodeSpec::router("tap"));
    spec.nodes.push(NodeSpec::host(
        "tx",
        AppSpec::Pump {
            dst: "rx".to_string(),
            flow: CHAIN_FLOW.0,
            count: cfg.packets,
            size: cfg.size,
            gap_ns: cfg.gap.as_nanos(),
        },
    ));

    let link = LinkParams {
        rate_bps: cfg.link_bps,
        propagation_ns: cfg.prop.as_nanos(),
    };
    spec.links.push(LinkSpec::simple("tx", "tap", link));
    spec.links.push(LinkSpec::simple("tap", "rx", link));

    spec.conditioners.push(ConditionerSpec {
        node: "tap".to_string(),
        tap: Some(TAP.to_string()),
        rules: vec![RuleSpec {
            matches: MatchSpec::flow(CHAIN_FLOW.0),
            action: ActionSpec::Police {
                rate_bps: cfg.rate_bps,
                depth_bytes: cfg.depth_bytes,
                conform_mark: None,
            },
        }],
    });
    spec.bounds.push(BoundSpec {
        node: "tap".to_string(),
        flow: CHAIN_FLOW.0,
        rate_bps: cfg.rate_bps,
        depth_bytes: cfg.depth_bytes,
    });
    spec
}

/// Run the policer chain to completion and collect the outcome.
pub fn run_policer_chain(cfg: &ChainConfig) -> ChainOutcome {
    let spec = chain_spec(cfg);
    let wrap = |tap: &str, inner: BoxConditioner| cfg.plan.wrap(tap, inner);
    let compiled = compile(
        &spec,
        CompileOptions {
            store: None,
            wrap: Some(&wrap),
        },
    )
    .expect("chain spec compiles");
    let sink_handle = compiled
        .id_sinks
        .first()
        .expect("chain has a recording sink")
        .1
        .clone();

    let mut net = compiled.net.audited();
    for &(node, flow, rate_bps, depth_bytes) in &compiled.bounds {
        net.audit_mut()
            .register_conformance_bound(node, flow, rate_bps, depth_bytes);
    }
    let mut queue = EventQueue::with_backend(cfg.backend);
    net.schedule_starts(&mut queue);
    let mut sim = Simulation { net, queue };

    let stats = sim.run();
    let audit = sim.net.audit_report();

    let flow = sim.net.stats.flow(CHAIN_FLOW);
    let delivered_ids = sink_handle.borrow().ids.clone();
    ChainOutcome {
        tx: flow.tx_packets,
        rx: flow.rx_packets,
        drops: flow.total_drops(),
        delivered_ids,
        end_time: stats.end_time,
        dispatched: stats.dispatched,
        audit,
    }
}

/// Parameters of the streaming scenario.
#[derive(Debug, Clone)]
pub struct StreamChainConfig {
    /// Clip to stream (MPEG-1 CBR).
    pub clip: ClipId,
    /// Encoding rate, bps.
    pub encoding_bps: u64,
    /// Event-queue backend.
    pub backend: QueueBackend,
    /// Faults to plant at the router [`TAP`].
    pub plan: FaultPlan,
}

impl Default for StreamChainConfig {
    fn default() -> StreamChainConfig {
        StreamChainConfig {
            clip: ClipId::Lost,
            encoding_bps: 1_500_000,
            backend: QueueBackend::Wheel,
            plan: FaultPlan::none(),
        }
    }
}

/// What the streaming chain produced.
#[derive(Debug)]
pub struct StreamOutcome {
    /// Fraction of frames that never became decodable at the client.
    pub frame_loss: f64,
    /// Presentation slots the playback model filled.
    pub displayed: usize,
    /// Longest run of consecutive frozen (repeated) slots.
    pub longest_freeze: usize,
    /// Whether playback failed outright.
    pub total_failure: bool,
    /// Media packets delivered.
    pub rx_packets: u64,
    /// The audit's verdict.
    pub audit: AuditReport,
}

/// The declarative streaming-chain topology for `cfg`.
pub fn stream_spec(cfg: &StreamChainConfig) -> ScenarioSpec {
    let media = MediaRef {
        clip: cfg.clip.into(),
        codec: CodecSpec::Mpeg1,
        rate_bps: cfg.encoding_bps,
    };
    let mut spec = ScenarioSpec::new("stream-chain", 0);
    spec.nodes.push(NodeSpec::host(
        "client",
        AppSpec::StreamClient {
            server: "server".to_string(),
            up_flow: 2,
            media,
            transport: TransportSpec::Udp,
            feedback_us: None,
        },
    ));
    spec.nodes.push(NodeSpec::router("tap"));
    spec.nodes.push(NodeSpec::host(
        "server",
        AppSpec::PacedServer {
            client: "client".to_string(),
            flow: CHAIN_FLOW.0,
            dscp: DscpSpec::BestEffort,
            media,
        },
    ));

    spec.links.push(LinkSpec::simple(
        "server",
        "tap",
        LinkParams::fast_ethernet(),
    ));
    spec.links.push(LinkSpec::simple(
        "client",
        "tap",
        LinkParams::fast_ethernet(),
    ));

    // A pass-everything conditioner: its only job is giving the fault
    // plan a named tap to hook.
    spec.conditioners.push(ConditionerSpec {
        node: "tap".to_string(),
        tap: Some(TAP.to_string()),
        rules: vec![RuleSpec {
            matches: MatchSpec::ANY,
            action: ActionSpec::Pass,
        }],
    });

    spec.horizon_ns = Some(dsv_core::experiment::run_horizon(cfg.clip).as_nanos());
    spec
}

/// Stream a real clip through a faultable router and report how the
/// client's playback model coped.
pub fn run_stream_chain(cfg: &StreamChainConfig) -> StreamOutcome {
    dsv_core::artifacts::encoding(
        cfg.clip,
        dsv_core::artifacts::Codec::Mpeg1,
        cfg.encoding_bps,
    );

    let spec = stream_spec(cfg);
    let wrap = |tap: &str, inner: BoxConditioner| cfg.plan.wrap(tap, inner);
    let compiled = compile(
        &spec,
        CompileOptions {
            store: Some(&dsv_core::artifacts::ArtifactStore),
            wrap: Some(&wrap),
        },
    )
    .expect("stream spec compiles");
    let client_handle = compiled
        .sole_client()
        .expect("stream chain has one client")
        .clone();
    let horizon = compiled.horizon.expect("stream spec sets a horizon");

    let net = compiled.net.audited();
    let mut queue = EventQueue::with_backend(cfg.backend);
    net.schedule_starts(&mut queue);
    let mut sim = Simulation { net, queue };

    sim.run_until(SimTime::ZERO + horizon);
    let audit = sim.net.audit_report();

    let report = client_handle.borrow().report();
    let flow = sim.net.stats.flow(CHAIN_FLOW);
    StreamOutcome {
        frame_loss: report.frame_loss_fraction(),
        displayed: report.playback.displayed.len(),
        longest_freeze: report.playback.longest_freeze,
        total_failure: report.playback.total_failure,
        rx_packets: flow.rx_packets,
        audit,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clean_chain_delivers_everything() {
        let out = run_policer_chain(&ChainConfig::default());
        assert_eq!(out.tx, 200);
        assert_eq!(out.rx, 200);
        assert_eq!(out.drops, 0);
        assert_eq!(out.delivered_ids.len(), 200);
        // FIFO path: ids arrive in send order.
        assert!(out.delivered_ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn starved_chain_drops_at_the_policer() {
        let cfg = ChainConfig {
            rate_bps: 2_000_000, // offered 12 Mbps
            depth_bytes: 3000,
            ..ChainConfig::default()
        };
        let out = run_policer_chain(&cfg);
        assert!(out.drops > 0, "expected policer drops");
        assert_eq!(out.rx + out.drops, out.tx);
    }

    #[test]
    fn backends_agree_on_the_chain() {
        let wheel = run_policer_chain(&ChainConfig {
            rate_bps: 2_000_000,
            ..ChainConfig::default()
        });
        let heap = run_policer_chain(&ChainConfig {
            rate_bps: 2_000_000,
            backend: QueueBackend::Heap,
            ..ChainConfig::default()
        });
        assert_eq!(wheel.delivered_ids, heap.delivered_ids);
        assert_eq!(wheel.end_time, heap.end_time);
    }

    #[test]
    fn chain_spec_round_trips_and_names_resolve() {
        let spec = chain_spec(&ChainConfig::default());
        let value = serde::Serialize::to_value(&spec);
        let back: ScenarioSpec = serde::Deserialize::from_value(&value).expect("round-trips");
        assert_eq!(spec, back);
        let compiled = compile(&spec, CompileOptions::default()).expect("compiles");
        assert_eq!(compiled.ids.len(), 3);
        assert_eq!(compiled.bounds.len(), 1);
    }
}
