//! The QBone testbed (paper §3.2.2, Figure 5).
//!
//! A Video-Charger-style paced server at a remote site streams MPEG-1 over
//! UDP across a wide-area path to the local client. Packets leave the
//! server already marked EF (code point 101100); the remote site's border
//! router polices them with a CAR-style drop policer configured with the
//! Abilene Premium Service profile (token rate, bucket depth). The
//! backbone is lightly loaded and gives EF priority; optional background
//! traffic exercises the priority queues without disturbing EF — matching
//! the paper's observation that interfering traffic caused "only minor
//! variations".
//!
//! The topology itself lives in [`qbone_spec`]: a declarative
//! [`ScenarioSpec`] the scenario compiler lowers with name-based node
//! resolution, so this module never handles a raw `NodeId`.

use dsv_net::packet::FlowId;
use dsv_scenario::{
    ActionSpec, AppSpec, BoundSpec, CompileError, ConditionerSpec, CrossTrafficSpec, DscpSpec,
    LimitsSpec, LinkParams, LinkSpec, MatchSpec, MediaRef, NodeSpec, QdiscSpec, RuleSpec,
    ScenarioSpec, TransportSpec,
};
pub use dsv_scenario::{ClipId2, CodecSpec};
use serde::{Deserialize, Serialize};

use crate::artifacts::Codec;
use crate::executor::execute;
use crate::experiment::{run_horizon, EfProfile, RunOutcome};

/// Flow id of the media stream.
pub const MEDIA_FLOW: FlowId = FlowId(1);
/// Flow id of client→server control traffic.
pub const UP_FLOW: FlowId = FlowId(2);
/// Flow id of background cross traffic.
pub const CT_FLOW: FlowId = FlowId(100);

/// Configuration of one QBone run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct QboneConfig {
    /// Which clip to stream.
    pub clip: ClipId2,
    /// MPEG-1 CBR encoding rate (the paper's 1.0/1.5/1.7 Mbps).
    pub encoding_bps: u64,
    /// The APS profile at the ingress policer.
    pub profile: EfProfile,
    /// Add background best-effort traffic across the backbone.
    pub cross_traffic: bool,
    /// Also score against the 1.7 Mbps reference (paper's second set).
    pub score_vs_best: bool,
    /// Which server discipline streams the clip.
    pub server: QboneServer,
    /// Experiment seed.
    pub seed: u64,
}

/// Server disciplines available on the QBone testbed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum QboneServer {
    /// Video-Charger-style paced small messages (the paper's main runs).
    Paced,
    /// NetShow-Theater-style large datagrams (the paper's "bi-modal"
    /// servers, dropped early from its study for exactly that behaviour).
    Bursty,
    /// A paced server with multi-rate content that picks the highest
    /// encoding fitting under the purchased token rate — the capability
    /// the paper anticipated in "future MPEG servers" (§3.3.1). Tiers are
    /// the paper's three encodings (1.0/1.5/1.7 Mbps).
    MultiRatePaced,
}

impl QboneConfig {
    /// A standard run: Lost at 1.7 Mbps with the given profile.
    pub fn new(clip: ClipId2, encoding_bps: u64, profile: EfProfile) -> QboneConfig {
        QboneConfig {
            clip,
            encoding_bps,
            profile,
            cross_traffic: false,
            score_vs_best: false,
            server: QboneServer::Paced,
            seed: 7,
        }
    }
}

/// The multi-rate server's encoding tiers (the paper's three rates).
pub const QBONE_TIERS: [u64; 3] = [1_000_000, 1_500_000, 1_700_000];

/// The QBone backbone's background load as a reusable cross-traffic
/// fragment (the same [`CrossTrafficSpec`] shape serves the local
/// testbed's jitter source and the AF experiment's colored background).
pub fn qbone_cross_traffic() -> CrossTrafficSpec {
    CrossTrafficSpec {
        sink_name: "ct-sink".to_string(),
        src_name: "ct-src".to_string(),
        sink_attach: "core2".to_string(),
        src_attach: "core1".to_string(),
        link: LinkParams::fast_ethernet(),
        flow: CT_FLOW.0,
        packet_size: 1000,
        peak_rate_bps: 30_000_000,
        mean_on_us: 200_000,
        mean_off_us: 200_000,
        stop_at_us: 200_000_000,
        rng_fork: 1,
    }
}

/// The QBone path (paper Figure 5) for the client/server `pairs`, pushed
/// onto `spec` in the order every QBone-path scenario declares it (ids
/// are positional, and a cross-traffic RNG fork consumes the scenario
/// RNG in node order): every client, the four routers from the local
/// edge to the remote one, every server; each client's 10 Mb/s access
/// link, each server's Fast Ethernet one, and the three wide-area links
/// with EF priority queues on the router ports. At the remote border, one
/// drop policer with `profile` on the packets `policed` matches (Cisco
/// CAR, no re-marking: the servers already mark EF), and its admission
/// bound on each of `media_flows` for the audit oracles.
pub(crate) fn qbone_path(
    spec: &mut ScenarioSpec,
    pairs: Vec<(NodeSpec, NodeSpec)>,
    policed: MatchSpec,
    profile: &EfProfile,
    media_flows: impl IntoIterator<Item = u32>,
) {
    let (clients, servers): (Vec<NodeSpec>, Vec<NodeSpec>) = pairs.into_iter().unzip();
    for (hosts, edge, link) in [
        (&clients, "local-edge", LinkParams::ethernet_10mbps()),
        (&servers, "remote-edge", LinkParams::fast_ethernet()),
    ] {
        for host in hosts {
            spec.links.push(LinkSpec::simple(&host.name, edge, link));
        }
    }
    spec.nodes.extend(clients);
    for router in ["local-edge", "core2", "core1", "remote-edge"] {
        spec.nodes.push(NodeSpec::router(router));
    }
    spec.nodes.extend(servers);

    let prio = QdiscSpec::StrictPriorityEf {
        ef: LimitsSpec::bytes(120_000),
        be: LimitsSpec::packets(60),
    };
    for (a, b, rate_bps, ms) in [
        ("remote-edge", "core1", 45_000_000, 5),
        ("core1", "core2", 155_000_000, 20),
        ("core2", "local-edge", 45_000_000, 5),
    ] {
        let wan = LinkParams {
            rate_bps,
            propagation_ns: ms * 1_000_000,
        };
        spec.links.push(LinkSpec::symmetric(a, b, wan, prio));
    }

    spec.conditioners.push(ConditionerSpec {
        node: "remote-edge".to_string(),
        tap: Some("ingress".to_string()),
        rules: vec![RuleSpec {
            matches: policed,
            action: ActionSpec::Police {
                rate_bps: profile.token_rate_bps,
                depth_bytes: profile.bucket_depth_bytes,
                conform_mark: None,
            },
        }],
    });
    for flow in media_flows {
        spec.bounds.push(BoundSpec {
            node: "remote-edge".to_string(),
            flow,
            rate_bps: profile.token_rate_bps,
            depth_bytes: profile.bucket_depth_bytes,
        });
    }
}

/// The declarative QBone scenario for `cfg` (paper Figure 5 as data).
pub fn qbone_spec(cfg: &QboneConfig) -> ScenarioSpec {
    let media = MediaRef {
        clip: cfg.clip,
        codec: CodecSpec::Mpeg1,
        rate_bps: cfg.encoding_bps,
    };
    let mut spec = ScenarioSpec::new("qbone", cfg.seed);
    let client = NodeSpec::host(
        "client",
        AppSpec::StreamClient {
            server: "video-server".to_string(),
            up_flow: UP_FLOW.0,
            media,
            transport: TransportSpec::Udp,
            feedback_us: None,
        },
    );
    let server_app = match cfg.server {
        QboneServer::Paced => AppSpec::PacedServer {
            client: "client".to_string(),
            flow: MEDIA_FLOW.0,
            dscp: DscpSpec::EfQbone,
            media,
        },
        QboneServer::Bursty => AppSpec::BurstyServer {
            client: "client".to_string(),
            flow: MEDIA_FLOW.0,
            dscp: DscpSpec::EfQbone,
            media,
            wait_for_play: true,
        },
        QboneServer::MultiRatePaced => AppSpec::MultiRatePacedServer {
            client: "client".to_string(),
            flow: MEDIA_FLOW.0,
            dscp: DscpSpec::EfQbone,
            tiers: QBONE_TIERS
                .iter()
                .map(|&rate_bps| MediaRef {
                    clip: cfg.clip,
                    codec: CodecSpec::Mpeg1,
                    rate_bps,
                })
                .collect(),
            // The server sizes its encoding to the purchased profile,
            // leaving ~12 % headroom for packet overhead and burstiness.
            estimate_bps: (cfg.profile.token_rate_bps as f64 * 0.88) as u64,
        },
    };
    qbone_path(
        &mut spec,
        vec![(client, NodeSpec::host("video-server", server_app))],
        MatchSpec::src_dst("video-server", "client"),
        &cfg.profile,
        [MEDIA_FLOW.0],
    );

    // Optional background load across the backbone (best effort).
    if cfg.cross_traffic {
        qbone_cross_traffic().attach(&mut spec);
    }
    spec.horizon_ns = Some(run_horizon(cfg.clip.into()).as_nanos());
    spec
}

/// Run one QBone streaming session and score it.
pub fn run_qbone(cfg: &QboneConfig) -> RunOutcome {
    run_qbone_detailed(cfg).0
}

/// Like [`run_qbone`], but also return the client's full report.
pub fn run_qbone_detailed(cfg: &QboneConfig) -> (RunOutcome, dsv_stream::client::ClientReport) {
    try_run_qbone(cfg).expect("qbone spec compiles")
}

/// [`run_qbone_detailed`], returning the compile error of a configuration
/// the testbed cannot build (a media rate below the encoders' floor, a
/// zero token rate) instead of panicking.
pub fn try_run_qbone(
    cfg: &QboneConfig,
) -> Result<(RunOutcome, dsv_stream::client::ClientReport), CompileError> {
    let exec = execute(&qbone_spec(cfg))?;
    // The paper's second set also scores against the 1.7 Mbps encoding.
    let best_bps = cfg.score_vs_best.then_some(1_700_000);
    let mut scored = exec.score_clients(
        cfg.clip,
        Codec::Mpeg1,
        cfg.encoding_bps,
        best_bps,
        [("client", MEDIA_FLOW)],
    );
    Ok(scored.pop().expect("one client"))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{DEPTH_2MTU, DEPTH_3MTU};

    #[test]
    fn generous_profile_delivers_perfect_quality() {
        // Token rate far above the maximum encoding rate: nothing drops,
        // quality ~0.
        let cfg = QboneConfig::new(
            ClipId2::Lost,
            1_000_000,
            EfProfile::new(2_500_000, DEPTH_3MTU),
        );
        let out = run_qbone(&cfg);
        assert_eq!(out.policer_drops, 0, "no drops expected");
        assert!(out.frame_loss < 0.01, "frame loss {}", out.frame_loss);
        assert!(out.quality < 0.05, "quality {}", out.quality);
    }

    #[test]
    fn starved_profile_is_unwatchable() {
        // Token rate well below the encoding rate: massive policing loss.
        let cfg = QboneConfig::new(
            ClipId2::Lost,
            1_700_000,
            EfProfile::new(900_000, DEPTH_2MTU),
        );
        let out = run_qbone(&cfg);
        assert!(out.packet_loss > 0.2, "packet loss {}", out.packet_loss);
        assert!(out.frame_loss > 0.4, "frame loss {}", out.frame_loss);
        assert!(out.quality > 0.7, "quality {}", out.quality);
    }

    #[test]
    fn deterministic_given_seed() {
        let cfg = QboneConfig::new(
            ClipId2::Lost,
            1_500_000,
            EfProfile::new(1_550_000, DEPTH_2MTU),
        );
        let a = run_qbone(&cfg);
        let b = run_qbone(&cfg);
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.rx_packets, b.rx_packets);
    }

    #[test]
    fn cross_traffic_changes_little_for_ef() {
        let mk = |ct: bool| {
            let mut cfg = QboneConfig::new(
                ClipId2::Lost,
                1_000_000,
                EfProfile::new(1_400_000, DEPTH_3MTU),
            );
            cfg.cross_traffic = ct;
            run_qbone(&cfg)
        };
        let quiet = mk(false);
        let loaded = mk(true);
        // "…only minor variations were observed" (paper §4).
        assert!(
            (quiet.quality - loaded.quality).abs() < 0.1,
            "quiet {} vs loaded {}",
            quiet.quality,
            loaded.quality
        );
    }

    #[test]
    fn spec_names_resolve_regardless_of_order() {
        // The compiled scenario resolves the client/server by name; the
        // spec's JSON is stable and parseable.
        let cfg = QboneConfig::new(
            ClipId2::Lost,
            1_500_000,
            EfProfile::new(1_550_000, DEPTH_2MTU),
        );
        let spec = qbone_spec(&cfg);
        let json = spec.canonical_json();
        let back: ScenarioSpec = serde_json::from_str(&json).expect("spec parses");
        assert_eq!(back, spec);
        assert_eq!(spec.nodes.len(), 6);
        assert_eq!(spec.bounds.len(), 1);
    }
}
