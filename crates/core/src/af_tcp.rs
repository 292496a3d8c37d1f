//! AF rate guarantees for TCP flows (the Lochin & Anelli second act).
//!
//! The paper's AF experiment (§5) marks one *video* flow against a
//! committed rate and checks what survives congestion. The natural
//! follow-up — studied by Lochin & Anelli for exactly this DiffServ
//! machinery — is *TCP* under AF: N greedy TCP flows, each srTCM- (or
//! trTCM-) marked against its own committed rate, share one WRED
//! bottleneck. Does each flow achieve its target rate?
//!
//! The known answer, which the golden suite pins: the guarantee holds
//! only while the aggregate committed rate sits well below the
//! bottleneck capacity (out-of-profile yellow/red packets soak up the
//! slack and TCP fills in), and it erodes as provisioning approaches
//! capacity — with long-RTT and high-target flows losing first, because
//! a committed-rate token bucket refills RTT-blind while TCP's recovery
//! does not.
//!
//! The scenario is pure data ([`af_tcp_spec`]); targets and RTT extras
//! attach to declaration *positions*, so a rotated declaration is an
//! exact relabelling the cluster layer collapses (the same symmetry
//! contract as [`crate::aggregate`]).

use dsv_net::packet::{DropReason, FlowId};
use dsv_scenario::{
    ActionSpec, AppSpec, ConditionerSpec, DscpSpec, LinkParams, LinkSpec, MatchSpec, NodeSpec,
    QdiscSpec, RuleSpec, ScenarioSpec,
};
use dsv_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::executor::{execute, named};
use crate::flows::{FlowOutcome, FlowsOutcome};

/// Base flow id of sink→sender ACK traffic (flow `1000 + i` for pair
/// `i`); data flows are `1 + i` — the same labelling as
/// [`crate::aggregate`], so its canonical-rank bridge applies unchanged.
pub const UP_FLOW_BASE: u32 = 1000;

/// Committed/excess burst size of every per-flow meter (the AF
/// testbed's 9000-byte two-MTU allowance).
pub const AF_TCP_BURST: u32 = 9000;

/// Configuration of one AF-TCP run. Entry `p` of the per-flow vectors
/// describes the pair declared at position `p`.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AfTcpConfig {
    /// Committed target rate of each position's flow, bps.
    pub targets_bps: Vec<u64>,
    /// Extra round-trip time of each position's access path, ms.
    pub rtt_extra_ms: Vec<u64>,
    /// The shared WRED bottleneck's rate.
    pub bottleneck_bps: u64,
    /// Mark with the two-rate trTCM (peak = 2 × committed) instead of
    /// the single-rate srTCM.
    pub trtcm: bool,
    /// Run length, microseconds.
    pub duration_us: u64,
    /// Declaration-order rotation: the pair carrying label
    /// `(p + rotation) % flows` is declared at position `p` (labels are
    /// presentation; positions carry the targets).
    pub rotation: u32,
    /// Experiment seed.
    pub seed: u64,
}

impl AfTcpConfig {
    /// A standard run: the given per-position targets and RTT extras
    /// over a 6 Mbps bottleneck for 60 simulated seconds.
    pub fn new(targets_bps: Vec<u64>, rtt_extra_ms: Vec<u64>) -> AfTcpConfig {
        assert_eq!(
            targets_bps.len(),
            rtt_extra_ms.len(),
            "one RTT extra per target"
        );
        assert!(!targets_bps.is_empty(), "at least one flow");
        AfTcpConfig {
            targets_bps,
            rtt_extra_ms,
            bottleneck_bps: 6_000_000,
            trtcm: false,
            duration_us: 60_000_000,
            rotation: 0,
            seed: 23,
        }
    }

    /// The same run with the pairs declared rotated by `rotation`.
    pub fn with_rotation(mut self, rotation: u32) -> AfTcpConfig {
        self.rotation = rotation;
        self
    }

    /// How many sender/sink pairs the run declares.
    pub fn flows(&self) -> u32 {
        self.targets_bps.len() as u32
    }

    /// The data flow id of pair `i`.
    pub fn media_flow(i: u32) -> FlowId {
        FlowId(1 + i)
    }

    /// Aggregate committed rate as a fraction of bottleneck capacity —
    /// the provisioning level the guarantee finding sweeps.
    pub fn provisioning(&self) -> f64 {
        self.targets_bps.iter().sum::<u64>() as f64 / self.bottleneck_bps as f64
    }

    /// The pair label declared at position `p` under this rotation.
    fn label_at(&self, p: u32) -> u32 {
        (p + self.rotation) % self.flows().max(1)
    }

    /// The declaration position of pair label `i`.
    fn position_of(&self, i: u32) -> usize {
        ((i + self.flows() - self.rotation % self.flows().max(1)) % self.flows().max(1)) as usize
    }
}

/// The declarative AF-TCP scenario: N bulk-TCP pairs, per-flow tricolor
/// marking at the shared edge, one WRED AF-PHB bottleneck.
pub fn af_tcp_spec(cfg: &AfTcpConfig) -> ScenarioSpec {
    let n = cfg.flows();
    let mut spec = ScenarioSpec::new("af_tcp", cfg.seed);

    // Sinks first, then the two routers, then the senders — receivers on
    // the client side of the bottleneck, mirroring the other testbeds'
    // declaration shape.
    for p in 0..n {
        let i = cfg.label_at(p);
        spec.nodes.push(NodeSpec::host(
            &format!("sink-{i}"),
            AppSpec::BulkTcpSink {
                server: format!("sender-{i}"),
                up_flow: UP_FLOW_BASE + i,
            },
        ));
    }
    spec.nodes.push(NodeSpec::router("egress"));
    spec.nodes.push(NodeSpec::router("edge"));
    for p in 0..n {
        let i = cfg.label_at(p);
        spec.nodes.push(NodeSpec::host(
            &format!("sender-{i}"),
            AppSpec::BulkTcpSender {
                client: format!("sink-{i}"),
                flow: AfTcpConfig::media_flow(i).0,
                dscp: DscpSpec::BestEffort,
                // More than any flow's fair share can move in the run:
                // every sender stays greedy to the horizon.
                total_bytes: cfg.bottleneck_bps * cfg.duration_us / 8_000_000,
            },
        ));
    }

    // Access links. The sender side carries each position's RTT extra
    // (half per direction of the round trip through this link).
    for p in 0..n {
        let i = cfg.label_at(p);
        spec.links.push(LinkSpec::simple(
            &format!("sink-{i}"),
            "egress",
            LinkParams::fast_ethernet(),
        ));
    }
    for p in 0..n {
        let i = cfg.label_at(p);
        spec.links.push(LinkSpec::simple(
            &format!("sender-{i}"),
            "edge",
            LinkParams {
                rate_bps: 100_000_000,
                // The per-position microsecond keeps otherwise-identical
                // pairs out of exact phase: no two access paths are the
                // same cable. It is part of this experiment's definition —
                // the committed AF-TCP golden was recorded with it, so
                // removing it changes the results.
                propagation_ns: 100_000 + cfg.rtt_extra_ms[p as usize] * 500_000 + p as u64 * 1_000,
            },
        ));
    }
    // The shared bottleneck: WRED with the AF PHB's three-precedence
    // default curves on both directions (data one way, ACKs the other).
    spec.links.push(LinkSpec::symmetric(
        "edge",
        "egress",
        LinkParams {
            rate_bps: cfg.bottleneck_bps,
            propagation_ns: 5_000_000,
        },
        QdiscSpec::Wred {
            capacity_bytes: 120_000,
            seed: cfg.seed ^ 0xAF7C,
        },
    ));

    // Per-flow tricolor marking at the edge: each pair metered against
    // its own committed rate into AF class 1 (green/yellow/red by
    // conformance; the meters re-mark, never drop).
    spec.conditioners.push(ConditionerSpec {
        node: "edge".to_string(),
        tap: Some("ingress".to_string()),
        rules: (0..n)
            .map(|p| {
                let i = cfg.label_at(p);
                let cir_bps = cfg.targets_bps[p as usize];
                RuleSpec {
                    matches: MatchSpec::src_dst(&format!("sender-{i}"), &format!("sink-{i}")),
                    action: if cfg.trtcm {
                        ActionSpec::MeterTrtcm {
                            pir_bps: cir_bps * 2,
                            pbs_bytes: AF_TCP_BURST,
                            cir_bps,
                            cbs_bytes: AF_TCP_BURST,
                            class: 1,
                        }
                    } else {
                        ActionSpec::MeterAf {
                            cir_bps,
                            cbs_bytes: AF_TCP_BURST,
                            ebs_bytes: AF_TCP_BURST,
                            class: 1,
                        }
                    },
                }
            })
            .collect(),
    });

    // No audit bounds: the meters only re-mark, so no conformance bound
    // holds downstream of the edge by construction.
    spec.horizon_ns = Some(SimDuration::from_micros(cfg.duration_us).as_nanos());
    spec
}

/// Run one AF-TCP session and report every pair's transport outcome
/// (flow `1 + i` at index `i`, whatever position the rotation declared
/// it at).
pub fn run_af_tcp(cfg: &AfTcpConfig) -> FlowsOutcome {
    let exec = execute(&af_tcp_spec(cfg)).expect("af_tcp spec compiles");
    assert_eq!(
        exec.bulk_sinks.len(),
        cfg.flows() as usize,
        "one sink handle per pair"
    );
    let span = SimDuration::from_micros(cfg.duration_us);
    let per_flow = (0..cfg.flows())
        .map(|i| {
            let delivered = named(&exec.bulk_sinks, &format!("sink-{i}"))
                .borrow()
                .delivered();
            let counters = exec.stats.flow(AfTcpConfig::media_flow(i));
            FlowOutcome {
                target_bps: cfg.targets_bps[cfg.position_of(i)],
                // Goodput over unique in-order bytes the sink accepted,
                // not wire bytes (which double-count retransmissions).
                achieved_bps: delivered as f64 * 8.0 / span.as_secs_f64(),
                delivered_bytes: delivered,
                packet_loss: counters.loss_fraction(),
                policer_drops: counters.drops_for(DropReason::PolicerNonConformant),
                queue_drops: counters.drops_for(DropReason::QueueOverflow),
                mean_delay_ms: counters.delay.mean().as_millis_f64(),
                ..Default::default()
            }
        })
        .collect();
    FlowsOutcome { per_flow }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn guarantee_holds_when_underprovisioned() {
        // Four equal targets at 50 % aggregate provisioning: every flow
        // must achieve its committed rate (TCP fills the slack beyond
        // it, so achieved ≥ target, not ≈ target).
        let cfg = AfTcpConfig::new(vec![750_000; 4], vec![0; 4]);
        let out = run_af_tcp(&cfg);
        assert!((cfg.provisioning() - 0.5).abs() < 1e-9);
        assert_eq!(
            out.flows_meeting_target(1.0),
            4,
            "achieved: {:?}",
            out.per_flow
                .iter()
                .map(|f| f.achieved_bps)
                .collect::<Vec<_>>()
        );
        assert!(out.total_policer_drops() == 0, "meters never drop");
    }

    #[test]
    fn guarantee_erodes_near_capacity() {
        // Heterogeneous targets summing to 95 % of the bottleneck: the
        // big-target flow cannot reach its committed rate — the
        // provisioning headroom the guarantee needs is gone.
        let near = AfTcpConfig::new(vec![500_000, 1_000_000, 1_500_000, 2_700_000], vec![0; 4]);
        assert!((near.provisioning() - 0.95).abs() < 1e-9);
        let out = run_af_tcp(&near);
        assert!(
            out.flows_meeting_target(0.95) < 4,
            "some flow must miss its target near capacity: {:?}",
            out.per_flow
                .iter()
                .map(|f| (f.target_bps, f.achieved_bps))
                .collect::<Vec<_>>()
        );
        assert!(out.total_queue_drops() > 0, "WRED must be active");
    }

    #[test]
    fn long_rtt_flows_achieve_less() {
        // Equal targets, unequal RTTs: TCP's window growth is RTT-bound
        // while the token bucket is not, so the long path undershoots
        // relative to the short one.
        let cfg = AfTcpConfig::new(vec![1_500_000; 2], vec![0, 80]);
        let out = run_af_tcp(&cfg);
        assert!(
            out.per_flow[0].achieved_bps > out.per_flow[1].achieved_bps,
            "short {} vs long {}",
            out.per_flow[0].achieved_bps,
            out.per_flow[1].achieved_bps
        );
    }

    #[test]
    fn rotated_declarations_permute_outcomes_exactly() {
        // Positions carry the targets, labels are presentation: a
        // rotated declaration reproduces the unrotated run per position,
        // and the canonical forms coincide — the symmetry contract the
        // cluster layer transplants across.
        let cfg = AfTcpConfig::new(vec![500_000, 1_000_000, 1_500_000, 2_700_000], vec![0; 4]);
        let rot = cfg.clone().with_rotation(1);
        let r0 = run_af_tcp(&cfg);
        let r1 = run_af_tcp(&rot);
        let json = |f: &FlowOutcome| serde_json::to_string(f).unwrap();
        for l in 0..4usize {
            let pos = (l + 3) % 4;
            assert_eq!(
                json(&r1.per_flow[l]),
                json(&r0.per_flow[pos]),
                "flow {l} must reproduce position {pos}"
            );
        }
        assert_ne!(
            json(&r0.per_flow[0]),
            json(&r0.per_flow[3]),
            "positions must genuinely differ (non-vacuity)"
        );
        let a = dsv_scenario::canonicalize(&af_tcp_spec(&cfg));
        let b = dsv_scenario::canonicalize(&af_tcp_spec(&rot));
        assert_eq!(a.json(), b.json());
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = AfTcpConfig::new(vec![1_000_000; 3], vec![0, 20, 40]);
        let a = run_af_tcp(&cfg);
        let b = run_af_tcp(&cfg);
        assert_eq!(
            serde_json::to_string(&a).unwrap(),
            serde_json::to_string(&b).unwrap()
        );
    }

    #[test]
    fn spec_round_trips() {
        let mut cfg = AfTcpConfig::new(vec![1_000_000, 2_000_000], vec![10, 0]);
        cfg.trtcm = true;
        let spec = af_tcp_spec(&cfg);
        let back: ScenarioSpec = serde_json::from_str(&spec.canonical_json()).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(spec.nodes.len(), 6);
        assert_eq!(spec.conditioners[0].rules.len(), 2);
    }
}
