//! The local Diff-Serv testbed (paper §3.2.1, Figure 4).
//!
//! A Windows-Media-style server streams WMV to the client across three
//! Diff-Serv routers joined by 2 Mbps Frame-Relay circuits (Table 1), the
//! V.35 hop being the E1-limited bottleneck. Router 1 classifies
//! server→client traffic, polices it against the EF profile (drop), and
//! marks conformant packets EF; routers 2 and 3 forward EF at high
//! priority. A Linux workstation between the server and router 1 can
//! optionally shape the stream to the same profile before it reaches the
//! policer. Transport is UDP (the adaptive WMT server) or mini-TCP.
//!
//! The topology is declared by [`local_spec`] and lowered by the scenario
//! compiler; nodes resolve by name, never by creation order.

use dsv_media::encoder::wmv;
use dsv_net::frame_relay::table1;
use dsv_net::packet::FlowId;
use dsv_scenario::{
    ActionSpec, AppSpec, BoundSpec, CompileError, ConditionerSpec, CrossTrafficSpec, DscpSpec,
    LimitsSpec, LinkParams, LinkSpec, MatchSpec, MediaRef, NodeSpec, QdiscSpec, RuleSpec,
    ScenarioSpec, TransportSpec,
};
use dsv_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::artifacts::Codec;
use crate::executor::execute;
use crate::experiment::{run_horizon, EfProfile, RunOutcome};
use crate::qbone::{ClipId2, CodecSpec};

/// Flow id of the media stream.
pub const MEDIA_FLOW: FlowId = FlowId(1);
/// Flow id of client→server traffic (control, feedback, ACKs).
pub const UP_FLOW: FlowId = FlowId(2);
/// Flow id of background cross traffic.
pub const CT_FLOW: FlowId = FlowId(100);
/// Flow id of pre-policer jitter traffic.
pub const JITTER_FLOW: FlowId = FlowId(101);

/// Transport used between server and client.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum LocalTransport {
    /// UDP streaming by the adaptive (WMT-style) server.
    Udp,
    /// Mini-TCP streaming.
    Tcp,
}

/// Configuration of one local-testbed run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LocalConfig {
    /// Which clip to stream.
    pub clip: ClipId2,
    /// WMV encoder bandwidth cap (the paper used ≈1015.5 kbps).
    pub cap_bps: u64,
    /// EF profile enforced (and optionally shaped to) at the edge.
    pub profile: EfProfile,
    /// Transport discipline.
    pub transport: LocalTransport,
    /// Shape at the Linux router before the policer.
    pub shaped: bool,
    /// Add best-effort cross traffic (both pre-policer jitter and
    /// FR-path load).
    pub cross_traffic: bool,
    /// Give the adaptive server a low-rate fallback encoding tier.
    pub multi_rate: bool,
    /// Experiment seed.
    pub seed: u64,
}

impl LocalConfig {
    /// A standard run at the paper's encoder setting.
    pub fn new(clip: ClipId2, profile: EfProfile, transport: LocalTransport) -> LocalConfig {
        LocalConfig {
            clip,
            cap_bps: wmv::PAPER_CAP_BPS,
            profile,
            transport,
            shaped: false,
            cross_traffic: false,
            multi_rate: false,
            seed: 11,
        }
    }
}

/// The adaptive server's low-rate fallback tier (bps).
pub const LOW_TIER_BPS: u64 = 300_000;

/// The local testbed's pre-policer jitter source, as the same reusable
/// cross-traffic fragment the QBone backbone uses.
pub fn local_cross_traffic() -> CrossTrafficSpec {
    CrossTrafficSpec {
        sink_name: "ct-sink".to_string(),
        src_name: "jitter-src".to_string(),
        sink_attach: "router3".to_string(),
        src_attach: "linux-shaper".to_string(),
        link: LinkParams::ethernet_10mbps(),
        flow: JITTER_FLOW.0,
        packet_size: 1500,
        peak_rate_bps: 5_000_000,
        mean_on_us: 50_000,
        mean_off_us: 300_000,
        stop_at_us: 200_000_000,
        rng_fork: 2,
    }
}

/// The declarative local-testbed scenario for `cfg` (paper Figure 4 as
/// data).
pub fn local_spec(cfg: &LocalConfig) -> ScenarioSpec {
    let media = MediaRef {
        clip: cfg.clip,
        codec: CodecSpec::Wmv,
        rate_bps: cfg.cap_bps,
    };
    let mut spec = ScenarioSpec::new("local", cfg.seed);

    let (transport, feedback_us) = match cfg.transport {
        LocalTransport::Udp => (TransportSpec::Udp, Some(1_000_000)),
        LocalTransport::Tcp => (TransportSpec::Tcp, None),
    };
    spec.nodes.push(NodeSpec::host(
        "client",
        AppSpec::StreamClient {
            server: "wmt-server".to_string(),
            up_flow: UP_FLOW.0,
            media,
            transport,
            feedback_us,
        },
    ));
    spec.nodes.push(NodeSpec::router("router3"));
    spec.nodes.push(NodeSpec::router("router2"));
    spec.nodes.push(NodeSpec::router("router1"));
    spec.nodes.push(NodeSpec::router("linux-shaper"));
    let server_app = match cfg.transport {
        LocalTransport::Udp => AppSpec::AdaptiveServer {
            client: "client".to_string(),
            flow: MEDIA_FLOW.0,
            dscp: DscpSpec::BestEffort,
            tiers: if cfg.multi_rate {
                vec![
                    MediaRef {
                        clip: cfg.clip,
                        codec: CodecSpec::Wmv,
                        rate_bps: LOW_TIER_BPS,
                    },
                    media,
                ]
            } else {
                vec![media]
            },
        },
        // The shared TCP-server fragment (same constructor as the
        // smoothing sweep, so the pacing lead cannot drift between them).
        LocalTransport::Tcp => {
            AppSpec::tcp_server("client", MEDIA_FLOW.0, DscpSpec::BestEffort, media)
        }
    };
    spec.nodes.push(NodeSpec::host("wmt-server", server_app));

    // Links per Figure 4. Ethernet hubs for local connectivity; the FR
    // circuits from Table 1 as constant-rate serial links; EF priority
    // queues on the FR-facing ports.
    let prio = QdiscSpec::StrictPriorityEf {
        ef: LimitsSpec::bytes(60_000),
        be: LimitsSpec::packets(50),
    };
    spec.links.push(LinkSpec::simple(
        "client",
        "router3",
        LinkParams::ethernet_10mbps(),
    ));
    let v35 = LinkParams::from_link(table1::router3_fr0().as_link(SimDuration::from_micros(500)));
    spec.links
        .push(LinkSpec::symmetric("router2", "router3", v35, prio));
    let hssi = LinkParams::from_link(table1::router2_fr1().as_link(SimDuration::from_micros(500)));
    spec.links
        .push(LinkSpec::symmetric("router1", "router2", hssi, prio));
    spec.links.push(LinkSpec::simple(
        "linux-shaper",
        "router1",
        LinkParams::ethernet_10mbps(),
    ));
    spec.links.push(LinkSpec::simple(
        "wmt-server",
        "linux-shaper",
        LinkParams::ethernet_10mbps(),
    ));

    // Router 1: classify server→client, police to the EF profile, mark
    // conformant packets EF, drop the rest (paper §3.2.1.2).
    spec.conditioners.push(ConditionerSpec {
        node: "router1".to_string(),
        tap: Some("policer".to_string()),
        rules: vec![RuleSpec {
            matches: MatchSpec::src_dst("wmt-server", "client"),
            action: ActionSpec::Police {
                rate_bps: cfg.profile.token_rate_bps,
                depth_bytes: cfg.profile.bucket_depth_bytes,
                conform_mark: Some(DscpSpec::Ef),
            },
        }],
    });

    // The Linux workstation shapes the stream to the same profile before
    // it reaches the policer, when enabled. The delay buffer is modest,
    // as Linux tc-tbf defaults use: big enough to absorb bursts, small
    // enough not to bufferbloat TCP recovery.
    if cfg.shaped {
        spec.conditioners.push(ConditionerSpec {
            node: "linux-shaper".to_string(),
            tap: Some("shaper".to_string()),
            rules: vec![RuleSpec {
                matches: MatchSpec::src_dst("wmt-server", "client"),
                action: ActionSpec::Shape {
                    rate_bps: cfg.profile.token_rate_bps,
                    depth_bytes: cfg.profile.bucket_depth_bytes,
                    max_queue_bytes: 64 * 1024,
                },
            }],
        });
    }

    // Optional interfering traffic: a bursty best-effort source whose path
    // shares the server's LAN segment ahead of the policer (the jitter
    // interaction the paper highlights) and then the FR circuits.
    if cfg.cross_traffic {
        local_cross_traffic().attach(&mut spec);
    }

    // Audit bounds: the EF policer's admission bound at router 1 — and,
    // when shaping, the same bound at the Linux workstation's egress (a
    // conformant shaper must respect the very profile it shapes to).
    spec.bounds.push(BoundSpec {
        node: "router1".to_string(),
        flow: MEDIA_FLOW.0,
        rate_bps: cfg.profile.token_rate_bps,
        depth_bytes: cfg.profile.bucket_depth_bytes,
    });
    if cfg.shaped {
        spec.bounds.push(BoundSpec {
            node: "linux-shaper".to_string(),
            flow: MEDIA_FLOW.0,
            rate_bps: cfg.profile.token_rate_bps,
            depth_bytes: cfg.profile.bucket_depth_bytes,
        });
    }
    spec.horizon_ns = Some((run_horizon(cfg.clip.into()) + SimDuration::from_secs(30)).as_nanos());
    spec
}

/// Run one local-testbed session and score it.
pub fn run_local(cfg: &LocalConfig) -> RunOutcome {
    run_local_detailed(cfg).0
}

/// Like [`run_local`], but also return the client's full report (arrival
/// times, decodability, playback schedule) for deeper analysis.
pub fn run_local_detailed(cfg: &LocalConfig) -> (RunOutcome, dsv_stream::client::ClientReport) {
    try_run_local(cfg).expect("local spec compiles")
}

/// [`run_local_detailed`], returning the compile error of a configuration
/// the testbed cannot build (a zero token rate or bucket depth) instead of
/// panicking.
pub fn try_run_local(
    cfg: &LocalConfig,
) -> Result<(RunOutcome, dsv_stream::client::ClientReport), CompileError> {
    let exec = execute(&local_spec(cfg))?;
    let mut scored = exec.score_clients(
        cfg.clip,
        Codec::Wmv,
        cfg.cap_bps,
        None,
        [("client", MEDIA_FLOW)],
    );
    let (mut outcome, report) = scored.pop().expect("one client");
    if let Some((_, server)) = exec.adaptives.first() {
        let server = server.borrow();
        outcome.collapses = server.collapses;
        outcome.broken = server.broken;
    }
    Ok((outcome, report))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{DEPTH_2MTU, DEPTH_3MTU};

    fn base(rate: u64, depth: u32, transport: LocalTransport) -> LocalConfig {
        LocalConfig::new(ClipId2::Lost, EfProfile::new(rate, depth), transport)
    }

    #[test]
    fn generous_profile_udp_works() {
        // Token rate near the V.35 limit with the bigger bucket.
        let out = run_local(&base(2_000_000, DEPTH_3MTU, LocalTransport::Udp));
        assert!(out.quality < 0.25, "quality {}", out.quality);
        assert!(out.frame_loss < 0.08, "frame loss {}", out.frame_loss);
        assert!(!out.broken);
    }

    #[test]
    fn starved_profile_udp_fails() {
        let out = run_local(&base(400_000, DEPTH_2MTU, LocalTransport::Udp));
        assert!(out.quality > 0.6, "quality {}", out.quality);
    }

    #[test]
    fn tcp_survives_moderate_policing_when_shaped() {
        // The paper's TCP runs relied on the upstream shaper (§4.2). With
        // it, TCP adapts under the profile and delivers everything — late
        // at worst — so quality degrades gracefully.
        let mut cfg = base(1_300_000, DEPTH_3MTU, LocalTransport::Tcp);
        cfg.shaped = true;
        let out = run_local(&cfg);
        // Shaped traffic is conformant at the shaper's output, but link
        // serialization between shaper and policer compresses some gaps —
        // the jitter effect the paper likens to ATM CDV (§3.2). A handful
        // of drops is physical; wholesale dropping is not.
        assert!(
            out.policer_drops < 50,
            "shaped traffic should be nearly conformant: {} drops",
            out.policer_drops
        );
        assert!(
            out.quality < 0.45,
            "shaped TCP should degrade gracefully: {}",
            out.quality
        );
        // Everything was delivered eventually: losses are lateness only.
        let (_, report) = run_local_detailed(&cfg);
        let received = report.received.iter().filter(|&&x| x).count();
        assert_eq!(received, report.received.len(), "TCP is reliable");
    }

    #[test]
    fn tcp_through_bare_policer_thrashes() {
        // Without the shaper, a tiny-bucket drop policer starves TCP of
        // dupacks (flights of 2–3 segments), forcing RTO recovery — the
        // known policing-vs-TCP pathology. The shaped path must beat it.
        let bare = run_local(&base(1_300_000, DEPTH_3MTU, LocalTransport::Tcp));
        let mut cfg = base(1_300_000, DEPTH_3MTU, LocalTransport::Tcp);
        cfg.shaped = true;
        let shaped = run_local(&cfg);
        assert!(
            shaped.quality + 0.2 < bare.quality,
            "shaped {} vs bare {}",
            shaped.quality,
            bare.quality
        );
    }

    #[test]
    fn shaping_helps_udp_at_tight_profiles() {
        let unshaped = run_local(&base(1_300_000, DEPTH_2MTU, LocalTransport::Udp));
        let mut cfg = base(1_300_000, DEPTH_2MTU, LocalTransport::Udp);
        cfg.shaped = true;
        let shaped = run_local(&cfg);
        assert!(
            shaped.quality <= unshaped.quality + 0.05,
            "shaped {} vs unshaped {}",
            shaped.quality,
            unshaped.quality
        );
    }

    #[test]
    fn deterministic() {
        let cfg = base(1_500_000, DEPTH_2MTU, LocalTransport::Udp);
        let a = run_local(&cfg);
        let b = run_local(&cfg);
        assert_eq!(a.quality, b.quality);
        assert_eq!(a.policer_drops, b.policer_drops);
    }
}
