//! TCP self-smoothing under the QBone policer.
//!
//! The paper's QBone study polices *open-loop* servers: the paced sender
//! conforms by construction and the bursty sender loses whole bursts at
//! the token bucket. This experiment asks the question the paper's §6
//! outlook raises — what does the same drop policer do to a *closed-loop*
//! sender? Three server disciplines stream over the identical wide-area
//! path and Abilene-profile CAR policer:
//!
//! * **Bursty** — the open-loop large-datagram server (the baseline the
//!   paper dropped for bi-modal behaviour): bursts hit the bucket and die,
//!   and with no feedback the sender keeps blasting into the drops.
//! * **Tcp** — the mini-TCP streaming server: loss feedback concedes rate
//!   to the policer, so at the paper's shallow bucket depths TCP suffers a
//!   small fraction of the bursty sender's policer drops and delivers an
//!   intact (if slower) byte stream — "self-smoothing" in loss terms. The
//!   concession is real: at those same shallow depths the closed loop
//!   cannot hold the token rate either (the repo's
//!   [`crate::local`] thrashing finding), so the sweep also probes
//!   [`DEPTH_10MTU`]/[`DEPTH_40MTU`] buckets where it can.
//! * **Abr** — the buffer-driven ABR client/server pair: the rate ladder
//!   adds a second control loop on top of TCP's, trading resolution for
//!   continuity instead of trading loss for delay.
//!
//! Outcomes are transport-level ([`FlowOutcome`]) rather than VQM-scored:
//! the finding is about delivered bytes, loss and rebuffering, not about
//! a specific clip's frame salience.

use dsv_net::packet::DropReason;
use dsv_scenario::{AppSpec, DscpSpec, MatchSpec, MediaRef, NodeSpec, ScenarioSpec, TransportSpec};
use dsv_sim::SimDuration;
use serde::{Deserialize, Serialize};

use crate::executor::execute;
use crate::experiment::{run_horizon, EfProfile};
use crate::flows::{FlowOutcome, FlowsOutcome};
use crate::qbone::{qbone_path, ClipId2, CodecSpec, MEDIA_FLOW, UP_FLOW};

/// Server disciplines compared by the smoothing sweep.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum SmoothingServer {
    /// Open-loop large-datagram server (no feedback; bursts die at the
    /// policer).
    Bursty,
    /// Mini-TCP streaming server (loss-clocked; the policer shapes it).
    Tcp,
    /// Buffer-driven ABR client over mini-TCP (rate ladder on top of the
    /// TCP loop).
    Abr,
}

/// Configuration of one smoothing run.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SmoothingConfig {
    /// Which clip the bursty/TCP servers stream (and whose length sets
    /// the ABR session length).
    pub clip: ClipId2,
    /// Encoding rate of the stream; also the top of the ABR ladder.
    pub encoding_bps: u64,
    /// Which server discipline runs.
    pub server: SmoothingServer,
    /// The Abilene-style profile at the remote border policer.
    pub profile: EfProfile,
    /// Experiment seed.
    pub seed: u64,
}

impl SmoothingConfig {
    /// A standard smoothing run.
    pub fn new(
        clip: ClipId2,
        encoding_bps: u64,
        server: SmoothingServer,
        profile: EfProfile,
    ) -> SmoothingConfig {
        SmoothingConfig {
            clip,
            encoding_bps,
            server,
            profile,
            seed: 7,
        }
    }
}

/// A bucket roomy enough for one congestion-window burst (10 MTU): the
/// shallow paper depths clip every line-rate TCP burst, so the smoothing
/// sweep also probes depths where the closed loop can actually run.
pub const DEPTH_10MTU: u32 = 15_000;
/// A deep bucket (40 MTU) that admits full windows — the "generous"
/// end of the smoothing sweep.
pub const DEPTH_40MTU: u32 = 60_000;

/// ABR segment length (and the buffer step of the rate ladder).
pub const ABR_SEGMENT_US: u64 = 2_000_000;
/// ABR client's buffer cap: fetch-ahead pauses beyond this.
pub const ABR_MAX_BUFFER_US: u64 = 10_000_000;

/// The ABR quality ladder for an encoding rate: four rungs topping out
/// at the encoding itself.
pub fn smoothing_ladder(encoding_bps: u64) -> Vec<u64> {
    vec![
        encoding_bps / 4,
        encoding_bps / 2,
        encoding_bps * 3 / 4,
        encoding_bps,
    ]
}

/// The clip's play length (the run horizon minus its drain slack).
fn clip_length(clip: ClipId2) -> SimDuration {
    run_horizon(clip.into()) - SimDuration::from_secs(30)
}

/// How many whole ABR segments the clip length covers.
pub fn abr_segments(clip: ClipId2) -> u32 {
    ((clip_length(clip).as_nanos() / 1_000) / ABR_SEGMENT_US).max(1) as u32
}

/// The declarative smoothing scenario: the QBone wide-area path and
/// border policer of [`crate::qbone::qbone_spec`], with the server/client
/// pair swapped per discipline.
pub fn smoothing_spec(cfg: &SmoothingConfig) -> ScenarioSpec {
    let media = MediaRef {
        clip: cfg.clip,
        codec: CodecSpec::Mpeg1,
        rate_bps: cfg.encoding_bps,
    };
    let mut spec = ScenarioSpec::new("smoothing", cfg.seed);

    let client_app = match cfg.server {
        SmoothingServer::Bursty | SmoothingServer::Tcp => AppSpec::StreamClient {
            server: "video-server".to_string(),
            up_flow: UP_FLOW.0,
            media,
            transport: match cfg.server {
                SmoothingServer::Bursty => TransportSpec::Udp,
                _ => TransportSpec::Tcp,
            },
            feedback_us: None,
        },
        SmoothingServer::Abr => AppSpec::AbrClient {
            server: "video-server".to_string(),
            up_flow: UP_FLOW.0,
            rungs_bps: smoothing_ladder(cfg.encoding_bps),
            step_us: ABR_SEGMENT_US,
            segment_us: ABR_SEGMENT_US,
            segments: abr_segments(cfg.clip),
            max_buffer_us: ABR_MAX_BUFFER_US,
        },
    };
    let server_app = match cfg.server {
        SmoothingServer::Bursty => AppSpec::BurstyServer {
            client: "client".to_string(),
            flow: MEDIA_FLOW.0,
            dscp: DscpSpec::EfQbone,
            media,
            wait_for_play: true,
        },
        // The shared TCP-server fragment: same constructor (and pacing
        // lead) as the local testbed's fig15 runs.
        SmoothingServer::Tcp => {
            AppSpec::tcp_server("client", MEDIA_FLOW.0, DscpSpec::EfQbone, media)
        }
        SmoothingServer::Abr => AppSpec::AbrServer {
            client: "client".to_string(),
            flow: MEDIA_FLOW.0,
            dscp: DscpSpec::EfQbone,
            rungs_bps: smoothing_ladder(cfg.encoding_bps),
            segment_us: ABR_SEGMENT_US,
        },
    };
    // The same path and CAR drop policer the paper's QBone runs face,
    // whatever the server discipline — that equality is the whole
    // experiment.
    qbone_path(
        &mut spec,
        vec![(
            NodeSpec::host("client", client_app),
            NodeSpec::host("video-server", server_app),
        )],
        MatchSpec::src_dst("video-server", "client"),
        &cfg.profile,
        [MEDIA_FLOW.0],
    );
    spec.horizon_ns = Some(run_horizon(cfg.clip.into()).as_nanos());
    spec
}

/// Run one smoothing session and report its media flow's transport-level
/// outcome (a single-flow [`FlowsOutcome`]).
pub fn run_smoothing(cfg: &SmoothingConfig) -> FlowsOutcome {
    let exec = execute(&smoothing_spec(cfg)).expect("smoothing spec compiles");
    let media = exec.stats.flow(MEDIA_FLOW);
    let span = clip_length(cfg.clip);
    let mut out = FlowOutcome {
        target_bps: cfg.encoding_bps,
        achieved_bps: media.goodput_bps(span),
        delivered_bytes: media.rx_bytes,
        packet_loss: media.loss_fraction(),
        policer_drops: media.drops_for(DropReason::PolicerNonConformant),
        queue_drops: media.drops_for(DropReason::QueueOverflow),
        mean_delay_ms: media.delay.mean().as_millis_f64(),
        ..Default::default()
    };
    if let Some((_, client)) = exec.abr_clients.first() {
        let report = client.borrow().report();
        out.startup_s = report.startup.as_secs_f64();
        out.stall_s = report.stall.as_secs_f64();
        out.rebuffers = report.rebuffers;
        out.mean_rung = report.mean_rung();
        out.segments_completed = report.segments_completed;
        out.broken = !report.done;
    }
    FlowsOutcome {
        per_flow: vec![out],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{DEPTH_2MTU, DEPTH_3MTU};

    fn base(server: SmoothingServer, rate: u64, depth: u32) -> SmoothingConfig {
        SmoothingConfig::new(
            ClipId2::Lost,
            1_500_000,
            server,
            EfProfile::new(rate, depth),
        )
    }

    #[test]
    fn tcp_self_smooths_where_bursty_bleeds() {
        // The paper's shallow-bucket profile: token rate ~10 % above the
        // encoding, a 2-MTU bucket. Neither discipline can hold the
        // token rate here, but the open loop keeps blasting into the
        // drops (nearly half its packets die and what arrives is riddled
        // with holes) while the closed loop concedes rate and loses a
        // small fraction of that — the self-smoothing finding.
        let bursty = run_smoothing(&base(SmoothingServer::Bursty, 1_650_000, DEPTH_2MTU));
        let tcp = run_smoothing(&base(SmoothingServer::Tcp, 1_650_000, DEPTH_2MTU));
        let (b, t) = (&bursty.per_flow[0], &tcp.per_flow[0]);
        assert!(
            b.packet_loss > 0.4,
            "open-loop loss should be catastrophic, got {}",
            b.packet_loss
        );
        assert!(
            t.policer_drops * 3 < b.policer_drops,
            "tcp {} vs bursty {} policer drops",
            t.policer_drops,
            b.policer_drops
        );
        assert!(
            t.packet_loss < b.packet_loss,
            "tcp loss {} vs bursty {}",
            t.packet_loss,
            b.packet_loss
        );
    }

    #[test]
    fn deep_bucket_restores_the_open_loop() {
        // Self-smoothing is a shallow-bucket phenomenon: once the bucket
        // absorbs whole frame bursts, the conformant open-loop sender
        // sails through untouched while TCP's probing still overshoots.
        let bursty = run_smoothing(&base(SmoothingServer::Bursty, 1_650_000, DEPTH_40MTU));
        let b = &bursty.per_flow[0];
        assert_eq!(b.policer_drops, 0, "conformant bursts pass untouched");
        assert!(
            b.achieved_bps > 0.95 * b.target_bps as f64,
            "goodput {}",
            b.achieved_bps
        );
    }

    #[test]
    fn abr_downshifts_instead_of_stalling() {
        // A token rate at about half the top rung: a fixed-rate TCP
        // stream is infeasible (goodput well under the encoding), but
        // the ladder settles near its floor rung and the session plays
        // every segment without a single rebuffer.
        let tcp = run_smoothing(&base(SmoothingServer::Tcp, 800_000, DEPTH_10MTU));
        let abr = run_smoothing(&base(SmoothingServer::Abr, 800_000, DEPTH_10MTU));
        let (t, f) = (&tcp.per_flow[0], &abr.per_flow[0]);
        assert!(
            t.achieved_bps < 0.8 * t.target_bps as f64,
            "fixed-rate stream should be infeasible, got {}",
            t.achieved_bps
        );
        assert!(!f.broken, "session must complete");
        assert_eq!(f.segments_completed, abr_segments(ClipId2::Lost));
        assert!(
            f.mean_rung < 1.0,
            "ladder should sit low, got {}",
            f.mean_rung
        );
        assert_eq!(f.rebuffers, 0, "no stalls expected, got {}", f.rebuffers);
    }

    #[test]
    fn abr_climbs_the_ladder_under_a_generous_profile() {
        // Ample token rate and a deep bucket: the throughput estimate
        // clears the upper rungs and the buffer loop keeps them.
        let out = run_smoothing(&base(SmoothingServer::Abr, 5_000_000, DEPTH_40MTU));
        let f = &out.per_flow[0];
        assert!(!f.broken);
        assert!(f.mean_rung > 2.0, "mean rung {}", f.mean_rung);
        assert_eq!(f.rebuffers, 0);
        assert!(f.stall_s == 0.0, "stall {}", f.stall_s);
    }

    #[test]
    fn shallow_bucket_pins_the_ladder_to_the_floor() {
        // Even an ample token rate cannot lift the ladder through a
        // 3-MTU bucket: every window burst is clipped, the throughput
        // estimate never clears rung 1, and the session limps home at
        // the floor. Bucket depth, not token rate, is what the ABR
        // loop feels — the policing-vs-guarantee tension of the paper
        // replayed at the application layer.
        let out = run_smoothing(&base(SmoothingServer::Abr, 5_000_000, DEPTH_3MTU));
        let f = &out.per_flow[0];
        assert!(!f.broken, "session must still complete");
        assert!(f.mean_rung < 0.5, "mean rung {}", f.mean_rung);
    }

    #[test]
    fn deterministic_given_seed() {
        for server in [
            SmoothingServer::Bursty,
            SmoothingServer::Tcp,
            SmoothingServer::Abr,
        ] {
            let cfg = base(server, 1_200_000, DEPTH_2MTU);
            let a = run_smoothing(&cfg);
            let b = run_smoothing(&cfg);
            assert_eq!(
                serde_json::to_string(&a).unwrap(),
                serde_json::to_string(&b).unwrap(),
                "{server:?}"
            );
        }
    }

    #[test]
    fn spec_round_trips() {
        let spec = smoothing_spec(&base(SmoothingServer::Abr, 1_000_000, DEPTH_2MTU));
        let back: ScenarioSpec = serde_json::from_str(&spec.canonical_json()).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(spec.nodes.len(), 6);
    }

    #[test]
    fn tcp_server_fragment_is_shared_with_the_local_testbed() {
        // Both sweeps build their TCP video server through the one
        // [`AppSpec::tcp_server`] constructor, and the compiled server's
        // pacing lead is the single [`TCP_READ_AHEAD`] constant — so the
        // fig15 local runs and this sweep cannot drift apart.
        use dsv_net::packet::{Dscp, FlowId, NodeId};
        use dsv_stream::server::tcp_server::{TcpServerConfig, TCP_READ_AHEAD};

        let compiled = TcpServerConfig::new(NodeId(0), FlowId(1), Dscp::BEST_EFFORT);
        assert_eq!(compiled.read_ahead, TCP_READ_AHEAD);

        let tcp_app = |spec: &ScenarioSpec| {
            let apps: Vec<_> = spec
                .nodes
                .iter()
                .filter(|n| matches!(n.app, Some(AppSpec::TcpServer { .. })))
                .collect();
            assert_eq!(apps.len(), 1, "exactly one TCP server per spec");
        };
        tcp_app(&smoothing_spec(&base(
            SmoothingServer::Tcp,
            1_650_000,
            DEPTH_2MTU,
        )));
        let mut local = crate::local::LocalConfig::new(
            ClipId2::Lost,
            EfProfile::new(1_100_000, DEPTH_2MTU),
            crate::local::LocalTransport::Tcp,
        );
        local.shaped = false;
        tcp_app(&crate::local::local_spec(&local));
    }
}
