//! The Assured-Forwarding experiment the paper ran but did not report.
//!
//! "Some preliminary experiments were conducted using the AF PHB that are
//! not reported in this paper, as the results were heavily dependent on
//! the level of cross traffic and its impact on the performance given to
//! marked packets" (§2.1). This module rebuilds that experiment so the
//! claim itself becomes measurable: the video stream is srTCM-metered into
//! AF green/yellow/red at the edge and shares a WRED-managed bottleneck
//! with colored cross traffic; unlike EF's strict isolation, the video's
//! quality now moves with the background load.
//!
//! The topology is declared by [`af_spec`] and lowered by the scenario
//! compiler; nodes resolve by name, never by creation order.

use dsv_net::packet::FlowId;
use dsv_scenario::{
    ActionSpec, AppSpec, CompileError, ConditionerSpec, CrossTrafficSpec, DscpSpec, LimitsSpec,
    LinkParams, LinkSpec, MatchSpec, MediaRef, NodeSpec, QdiscSpec, RuleSpec, ScenarioSpec,
    TransportSpec,
};
use serde::{Deserialize, Serialize};

use crate::artifacts::Codec;
use crate::executor::execute;
use crate::experiment::{run_horizon, RunOutcome};
use crate::qbone::{ClipId2, CodecSpec};

/// Flow id of the media stream.
pub const MEDIA_FLOW: FlowId = FlowId(1);
/// Flow id of client→server control traffic.
pub const UP_FLOW: FlowId = FlowId(2);
/// Flow id of the colored cross traffic.
pub const CT_FLOW: FlowId = FlowId(100);

/// Configuration of one AF run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct AfConfig {
    /// Which clip to stream.
    pub clip: ClipId2,
    /// MPEG-1 CBR encoding rate.
    pub encoding_bps: u64,
    /// srTCM committed rate for the video's AF profile.
    pub cir_bps: u64,
    /// srTCM committed burst (bytes).
    pub cbs_bytes: u32,
    /// srTCM excess burst (bytes).
    pub ebs_bytes: u32,
    /// Mean rate of the competing cross traffic.
    pub cross_load_bps: u64,
    /// Committed (green) rate of the cross traffic's own AF profile —
    /// in-profile background competes with the video's green packets,
    /// which is exactly the sensitivity that made the paper drop its AF
    /// results.
    pub cross_cir_bps: u64,
    /// Bottleneck link rate shared by video and cross traffic.
    pub bottleneck_bps: u64,
    /// Experiment seed.
    pub seed: u64,
}

impl AfConfig {
    /// A standard AF run: Lost @1.5 Mbps, CIR = 1.1× the encoding,
    /// sharing a 6 Mbps bottleneck with the given cross load.
    pub fn new(clip: ClipId2, encoding_bps: u64, cross_load_bps: u64) -> AfConfig {
        AfConfig {
            clip,
            encoding_bps,
            cir_bps: (encoding_bps as f64 * 1.1) as u64,
            cbs_bytes: 9_000,
            ebs_bytes: 9_000,
            cross_load_bps,
            cross_cir_bps: cross_load_bps / 2,
            bottleneck_bps: 6_000_000,
            seed: 23,
        }
    }
}

/// The AF experiment's colored background, as the same reusable
/// cross-traffic fragment the other testbeds use.
pub fn af_cross_traffic(cross_load_bps: u64) -> CrossTrafficSpec {
    CrossTrafficSpec {
        sink_name: "ct-sink".to_string(),
        src_name: "ct-src".to_string(),
        sink_attach: "egress".to_string(),
        src_attach: "edge".to_string(),
        link: LinkParams::fast_ethernet(),
        flow: CT_FLOW.0,
        packet_size: 1200,
        peak_rate_bps: cross_load_bps * 2, // 50 % duty cycle → mean = load
        mean_on_us: 150_000,
        mean_off_us: 150_000,
        stop_at_us: 220_000_000,
        rng_fork: 5,
    }
}

/// The declarative AF scenario for `cfg`.
pub fn af_spec(cfg: &AfConfig) -> ScenarioSpec {
    let media = MediaRef {
        clip: cfg.clip,
        codec: CodecSpec::Mpeg1,
        rate_bps: cfg.encoding_bps,
    };
    let mut spec = ScenarioSpec::new("af", cfg.seed);

    spec.nodes.push(NodeSpec::host(
        "client",
        AppSpec::StreamClient {
            server: "video-server".to_string(),
            up_flow: UP_FLOW.0,
            media,
            transport: TransportSpec::Udp,
            feedback_us: None,
        },
    ));
    spec.nodes.push(NodeSpec::router("egress"));
    spec.nodes.push(NodeSpec::router("edge"));
    spec.nodes.push(NodeSpec::host(
        "video-server",
        AppSpec::PacedServer {
            client: "client".to_string(),
            flow: MEDIA_FLOW.0,
            dscp: DscpSpec::BestEffort,
            media,
        },
    ));

    spec.links.push(LinkSpec::simple(
        "video-server",
        "edge",
        LinkParams::fast_ethernet(),
    ));
    spec.links.push(LinkSpec::simple(
        "client",
        "egress",
        LinkParams::ethernet_10mbps(),
    ));

    // The shared bottleneck with a WRED-managed buffer toward the client;
    // the return path is a plain unbounded FIFO.
    let bottleneck = LinkParams {
        rate_bps: cfg.bottleneck_bps,
        propagation_ns: 5_000_000,
    };
    spec.links.push(LinkSpec {
        a: "edge".to_string(),
        b: "egress".to_string(),
        ab: bottleneck,
        ba: bottleneck,
        qdisc_ab: QdiscSpec::Wred {
            capacity_bytes: 120_000,
            seed: cfg.seed ^ 0xAF,
        },
        qdisc_ba: QdiscSpec::DropTail {
            limits: LimitsSpec::UNBOUNDED,
        },
    });

    // Edge conditioning: srTCM-color the video into AF class 1, and give
    // the cross traffic its own profile in the same class (other
    // customers' in-profile traffic shares the green pool).
    spec.conditioners.push(ConditionerSpec {
        node: "edge".to_string(),
        tap: Some("edge".to_string()),
        rules: vec![
            RuleSpec {
                matches: MatchSpec::src_dst("video-server", "client"),
                action: ActionSpec::MeterAf {
                    cir_bps: cfg.cir_bps,
                    cbs_bytes: cfg.cbs_bytes,
                    ebs_bytes: cfg.ebs_bytes,
                    class: 1,
                },
            },
            RuleSpec {
                matches: MatchSpec::flow(CT_FLOW.0),
                action: ActionSpec::MeterAf {
                    cir_bps: cfg.cross_cir_bps.max(1),
                    cbs_bytes: 30_000,
                    ebs_bytes: 30_000,
                    class: 1,
                },
            },
        ],
    });

    // Cross traffic entering at the edge (where its own profile colors
    // it) and sharing the bottleneck.
    if cfg.cross_load_bps > 0 {
        af_cross_traffic(cfg.cross_load_bps).attach(&mut spec);
    }

    // No audit bounds: the srTCM meter colors but never drops, so there
    // is no admission bound to register.
    spec.horizon_ns = Some(run_horizon(cfg.clip.into()).as_nanos());
    spec
}

/// Run one AF streaming session and score it.
pub fn run_af(cfg: &AfConfig) -> RunOutcome {
    try_run_af(cfg).expect("af spec compiles")
}

/// [`run_af`], returning the compile error of a configuration the testbed
/// cannot build (a media rate below the encoders' floor) instead of
/// panicking.
pub fn try_run_af(cfg: &AfConfig) -> Result<RunOutcome, CompileError> {
    let exec = execute(&af_spec(cfg))?;
    let mut scored = exec.score_clients(
        cfg.clip,
        Codec::Mpeg1,
        cfg.encoding_bps,
        None,
        [("client", MEDIA_FLOW)],
    );
    Ok(scored.pop().expect("one client").0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One row of the committed AF ablation, `results/ablation_af_phb.json`.
    #[derive(Deserialize)]
    struct AblationRow {
        cross_load_bps: u64,
        cross_cir_bps: u64,
        quality: f64,
        frame_loss: f64,
        packet_loss: f64,
    }

    /// Run `cfg` and require its quality, frame loss and packet loss to be
    /// bit-equal to the committed ablation row with the same cross
    /// traffic.
    fn run_committed_row(cfg: &AfConfig) -> RunOutcome {
        let rows: Vec<AblationRow> =
            serde_json::from_str(include_str!("../../../results/ablation_af_phb.json"))
                .expect("the committed AF ablation parses");
        let row = rows
            .iter()
            .find(|r| {
                (r.cross_load_bps, r.cross_cir_bps) == (cfg.cross_load_bps, cfg.cross_cir_bps)
            })
            .expect("the AF ablation commits a row for this cross traffic");
        let out = run_af(cfg);
        let bits = |o: [f64; 3]| o.map(f64::to_bits);
        let live = [out.quality, out.frame_loss, out.packet_loss];
        let committed = [row.quality, row.frame_loss, row.packet_loss];
        assert_eq!(
            bits(live),
            bits(committed),
            "cross load {} b/s: live (quality, frame loss, packet loss) {live:?}, \
             committed {committed:?}",
            cfg.cross_load_bps
        );
        out
    }

    #[test]
    fn unloaded_af_delivers_good_quality() {
        let out = run_committed_row(&AfConfig::new(ClipId2::Lost, 1_500_000, 0));
        assert!(out.quality < 0.1, "quality {}", out.quality);
        assert!(out.frame_loss < 0.02, "loss {}", out.frame_loss);
    }

    #[test]
    fn af_quality_depends_on_cross_traffic() {
        // The reason the paper excluded its AF results: with EF the
        // stream is isolated by strict priority; with AF it shares the
        // WRED buffer and heavy background load leaks into the green
        // traffic.
        let light = run_committed_row(&AfConfig::new(ClipId2::Lost, 1_500_000, 1_000_000));
        let mut heavy_cfg = AfConfig::new(ClipId2::Lost, 1_500_000, 7_000_000);
        heavy_cfg.cross_cir_bps = 5_000_000; // mostly in-profile background
        let heavy = run_committed_row(&heavy_cfg);
        assert!(
            heavy.quality > light.quality + 0.1,
            "heavy load {:.3} should hurt vs light {:.3}",
            heavy.quality,
            light.quality
        );
    }

    #[test]
    fn af_runs_are_deterministic() {
        let cfg = AfConfig::new(ClipId2::Lost, 1_500_000, 3_000_000);
        assert_eq!(run_af(&cfg).quality, run_af(&cfg).quality);
    }
}
