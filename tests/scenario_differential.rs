//! Differential equivalence: the scenario compiler must lower each
//! testbed spec to a network that is **byte-for-byte** the one the old
//! imperative builders produced.
//!
//! The `legacy` module below preserves the pre-IR `NetworkBuilder` code
//! (creation-order node ids and all) exactly as the experiment layer
//! shipped it. Each test builds the same configuration both ways, runs
//! both networks under an explicit event-queue backend, scores both runs
//! with the same pipeline, and asserts the serialized [`RunOutcome`]s are
//! identical — on sampled points of the committed figure grids, under
//! both the timing-wheel and the binary-heap backend.

use dsv_core::artifacts::{self, ArtifactStore, Codec};
use dsv_core::local::{local_spec, LocalConfig, LocalTransport};
use dsv_core::prelude::*;
use dsv_core::qbone::{qbone_spec, QboneConfig};
use dsv_net::app::Handle;
use dsv_net::network::{Network, Simulation};
use dsv_net::packet::FlowId;
use dsv_scenario::{compile, CompileOptions};
use dsv_sim::{EventQueue, QueueBackend, SimTime};
use dsv_stream::client::StreamClient;
use dsv_stream::payload::StreamPayload;
use dsv_stream::server::adaptive::AdaptiveServer;

const MEDIA_FLOW: FlowId = FlowId(1);

/// The imperative builders exactly as they existed before the scenario
/// IR, kept as the differential oracle. Node ids are positional; the
/// client pre-computes the server's id (`NodeId(5)`) from creation order.
mod legacy {
    use super::*;
    use dsv_diffserv::classifier::MatchRule;
    use dsv_diffserv::policer::{ExceedAction, Policer};
    use dsv_diffserv::policy::{PolicyAction, PolicyTable};
    use dsv_diffserv::shaper::Shaper;
    use dsv_media::encoder::{mpeg1, wmv};
    use dsv_media::scene::ClipId;
    use dsv_net::app::Shared;
    use dsv_net::frame_relay::table1;
    use dsv_net::link::Link;
    use dsv_net::network::NetworkBuilder;
    use dsv_net::packet::{Dscp, NodeId};
    use dsv_net::qdisc::{QueueLimits, StrictPriorityQueue};
    use dsv_net::traffic::{CountingSink, OnOffSource};
    use dsv_sim::{SimDuration, SimRng};
    use dsv_stream::client::{ClientConfig, ClientMode};
    use dsv_stream::playback::PlaybackConfig;
    use dsv_stream::server::adaptive::AdaptiveConfig;
    use dsv_stream::server::paced::{PacedConfig, PacedServer};
    use dsv_stream::server::tcp_server::{TcpServerConfig, TcpStreamServer};

    const UP_FLOW: FlowId = FlowId(2);
    const CT_FLOW: FlowId = FlowId(100);
    const JITTER_FLOW: FlowId = FlowId(101);

    /// The pre-IR QBone topology (paced server only — the sampled grid
    /// points all use it).
    pub fn qbone_net(cfg: &QboneConfig) -> (Network<StreamPayload>, Handle<StreamClient>) {
        let clip_id: ClipId = cfg.clip.into();
        let clip = artifacts::encoding(clip_id, Codec::Mpeg1, cfg.encoding_bps);
        let mut rng = SimRng::seed_from_u64(cfg.seed);

        let mut b = NetworkBuilder::<StreamPayload>::new();
        let (client_handle, client_app) = Shared::new(StreamClient::new(ClientConfig {
            server: NodeId(5), // the server is created sixth (index 5)
            up_flow: UP_FLOW,
            frames: clip.frames.len() as u32,
            kind_fn: mpeg1::frame_kind,
            playback: PlaybackConfig::default(),
            feedback_interval: None,
            mode: ClientMode::Udp,
        }));
        let client = b.add_host("client", Box::new(client_app));
        let local_edge = b.add_router("local-edge");
        let core2 = b.add_router("core2");
        let core1 = b.add_router("core1");
        let remote_edge = b.add_router("remote-edge");
        let server = b.add_host(
            "video-server",
            Box::new(PacedServer::unshared(
                PacedConfig::new(client, MEDIA_FLOW, Dscp::EF_QBONE),
                &clip,
            )),
        );

        b.connect(client, local_edge, Link::ethernet_10mbps());
        b.connect(server, remote_edge, Link::fast_ethernet());

        let prio = || {
            Box::new(StrictPriorityQueue::ef_default(
                QueueLimits::bytes(120_000),
                QueueLimits::packets(60),
            ))
        };
        let wan = |rate: u64, ms: u64| Link::new(rate, SimDuration::from_millis(ms));
        b.connect_with(
            remote_edge,
            core1,
            wan(45_000_000, 5),
            wan(45_000_000, 5),
            prio(),
            prio(),
        );
        b.connect_with(
            core1,
            core2,
            wan(155_000_000, 20),
            wan(155_000_000, 20),
            prio(),
            prio(),
        );
        b.connect_with(
            core2,
            local_edge,
            wan(45_000_000, 5),
            wan(45_000_000, 5),
            prio(),
            prio(),
        );

        let policer = Policer::car_drop(cfg.profile.token_rate_bps, cfg.profile.bucket_depth_bytes);
        let table = PolicyTable::new().with(
            MatchRule::src_dst(server, client),
            PolicyAction::Police(policer),
        );
        b.set_conditioner(remote_edge, Box::new(table));

        if cfg.cross_traffic {
            let ct_sink = b.add_host("ct-sink", Box::new(CountingSink::default()));
            b.connect(ct_sink, core2, Link::fast_ethernet());
            let ct_src = b.add_host(
                "ct-src",
                Box::new(OnOffSource::new(
                    ct_sink,
                    CT_FLOW,
                    1000,
                    30_000_000,
                    SimDuration::from_millis(200),
                    SimDuration::from_millis(200),
                    Dscp::BEST_EFFORT,
                    SimTime::from_secs(200),
                    rng.fork(1),
                )),
            );
            b.connect(ct_src, core1, Link::fast_ethernet());
        }

        (b.build(), client_handle)
    }

    /// What [`local_net`] hands back: the network plus the client and
    /// (for multi-rate runs) adaptive-server handles.
    pub type LocalNet = (
        Network<StreamPayload>,
        Handle<StreamClient>,
        Option<Handle<AdaptiveServer>>,
    );

    /// The pre-IR local-testbed topology.
    pub fn local_net(cfg: &LocalConfig) -> LocalNet {
        let clip_id: ClipId = cfg.clip.into();
        let clip = artifacts::encoding(clip_id, Codec::Wmv, cfg.cap_bps);
        let mut rng = SimRng::seed_from_u64(cfg.seed);

        let mut b = NetworkBuilder::<StreamPayload>::new();
        let frames = clip.frames.len() as u32;
        let server_id = NodeId(5);
        let client_mode = match cfg.transport {
            LocalTransport::Udp => ClientMode::Udp,
            LocalTransport::Tcp => ClientMode::Tcp {
                frame_bytes: clip.frames.iter().map(|f| f.bytes).collect(),
                fidelities: clip.frames.iter().map(|f| f.fidelity).collect(),
            },
        };
        let feedback = match cfg.transport {
            LocalTransport::Udp => Some(SimDuration::from_secs(1)),
            LocalTransport::Tcp => None,
        };
        let (client_handle, client_app) = Shared::new(StreamClient::new(ClientConfig {
            server: server_id,
            up_flow: UP_FLOW,
            frames,
            kind_fn: wmv::frame_kind,
            playback: PlaybackConfig::default(),
            feedback_interval: feedback,
            mode: client_mode,
        }));

        let client = b.add_host("client", Box::new(client_app));
        let r3 = b.add_router("router3");
        let r2 = b.add_router("router2");
        let r1 = b.add_router("router1");
        let linux = b.add_router("linux-shaper");

        let mut adaptive_handle = None;
        let server = match cfg.transport {
            LocalTransport::Udp => {
                let tiers = if cfg.multi_rate {
                    let low = artifacts::encoding(clip_id, Codec::Wmv, 300_000);
                    vec![low, clip.clone()]
                } else {
                    vec![clip.clone()]
                };
                let (h, app) = Shared::new(AdaptiveServer::new(
                    AdaptiveConfig::new(client, MEDIA_FLOW, Dscp::BEST_EFFORT),
                    tiers,
                ));
                adaptive_handle = Some(h);
                b.add_host("wmt-server", Box::new(app))
            }
            LocalTransport::Tcp => b.add_host(
                "wmt-server",
                Box::new(TcpStreamServer::new(
                    TcpServerConfig::new(client, MEDIA_FLOW, Dscp::BEST_EFFORT),
                    &clip,
                )),
            ),
        };
        assert_eq!(server, server_id);

        let prio = || {
            Box::new(StrictPriorityQueue::ef_default(
                QueueLimits::bytes(60_000),
                QueueLimits::packets(50),
            ))
        };
        b.connect(client, r3, Link::ethernet_10mbps());
        let v35 = table1::router3_fr0().as_link(SimDuration::from_micros(500));
        b.connect_with(r2, r3, v35, v35, prio(), prio());
        let hssi = table1::router2_fr1().as_link(SimDuration::from_micros(500));
        b.connect_with(r1, r2, hssi, hssi, prio(), prio());
        b.connect(linux, r1, Link::ethernet_10mbps());
        b.connect(server, linux, Link::ethernet_10mbps());

        let policer = Policer::new(
            dsv_diffserv::token_bucket::TokenBucket::new(
                cfg.profile.token_rate_bps,
                cfg.profile.bucket_depth_bytes,
            ),
            Some(Dscp::EF),
            ExceedAction::Drop,
        );
        let table = PolicyTable::new().with(
            MatchRule::src_dst(server, client),
            PolicyAction::Police(policer),
        );
        b.set_conditioner(r1, Box::new(table));

        if cfg.shaped {
            let shaper: Shaper<StreamPayload> = Shaper::new(
                cfg.profile.token_rate_bps,
                cfg.profile.bucket_depth_bytes,
                64 * 1024,
            );
            let table = PolicyTable::new().with(
                MatchRule::src_dst(server, client),
                PolicyAction::Shape(shaper),
            );
            b.set_conditioner(linux, Box::new(table));
        }

        if cfg.cross_traffic {
            let ct_sink = b.add_host("ct-sink", Box::new(CountingSink::default()));
            b.connect(ct_sink, r3, Link::ethernet_10mbps());
            let jitter_src = b.add_host(
                "jitter-src",
                Box::new(OnOffSource::new(
                    ct_sink,
                    JITTER_FLOW,
                    1500,
                    5_000_000,
                    SimDuration::from_millis(50),
                    SimDuration::from_millis(300),
                    Dscp::BEST_EFFORT,
                    SimTime::from_secs(200),
                    rng.fork(2),
                )),
            );
            b.connect(jitter_src, linux, Link::ethernet_10mbps());
        }

        (b.build(), client_handle, adaptive_handle)
    }
}

/// Run a built network to `horizon` under an explicit backend.
fn drive(
    net: Network<StreamPayload>,
    horizon: SimTime,
    backend: QueueBackend,
) -> Simulation<StreamPayload> {
    let mut queue = EventQueue::with_backend(backend);
    net.schedule_starts(&mut queue);
    let mut sim = Simulation { net, queue };
    sim.run_until(horizon);
    sim
}

/// Score a finished QBone session exactly as `run_qbone` does.
fn score_qbone(
    cfg: &QboneConfig,
    sim: &Simulation<StreamPayload>,
    client: &Handle<StreamClient>,
) -> RunOutcome {
    let clip_id: dsv_media::scene::ClipId = cfg.clip.into();
    let report = client.borrow().report();
    let media = sim.net.stats.flow(MEDIA_FLOW);
    let source = artifacts::source_features(clip_id);
    let reference = artifacts::reference_features(clip_id, Codec::Mpeg1, cfg.encoding_bps);
    let score = dsv_core::qoe::score_session(&source, &reference, &report, None);
    RunOutcome::assemble(&report, &media, &score, 0, 0, false)
}

/// Score a finished local session exactly as `run_local` does.
fn score_local(
    cfg: &LocalConfig,
    sim: &Simulation<StreamPayload>,
    client: &Handle<StreamClient>,
    adaptive: Option<&Handle<AdaptiveServer>>,
) -> RunOutcome {
    let clip_id: dsv_media::scene::ClipId = cfg.clip.into();
    let report = client.borrow().report();
    let media = sim.net.stats.flow(MEDIA_FLOW);
    let shaper_drops = media.drops_for(dsv_net::packet::DropReason::ShaperOverflow);
    let (collapses, broken) = adaptive
        .map(|h| {
            let s = h.borrow();
            (s.collapses, s.broken)
        })
        .unwrap_or((0, false));
    let source = artifacts::source_features(clip_id);
    let reference = artifacts::reference_features(clip_id, Codec::Wmv, cfg.cap_bps);
    let score = dsv_core::qoe::score_session(&source, &reference, &report, None);
    RunOutcome::assemble(&report, &media, &score, shaper_drops, collapses, broken)
}

fn json(outcome: &RunOutcome) -> String {
    serde_json::to_string(outcome).expect("outcome serializes")
}

const BACKENDS: [QueueBackend; 2] = [QueueBackend::Wheel, QueueBackend::Heap];

fn check_qbone_point(cfg: &QboneConfig) {
    let horizon = SimTime::ZERO + run_horizon(cfg.clip.into());
    for backend in BACKENDS {
        let (net, client) = legacy::qbone_net(cfg);
        let old = {
            let sim = drive(net, horizon, backend);
            score_qbone(cfg, &sim, &client)
        };

        let compiled = compile(
            &qbone_spec(cfg),
            CompileOptions {
                store: Some(&ArtifactStore),
                wrap: None,
            },
        )
        .expect("qbone spec compiles");
        let spec_client = compiled.sole_client().expect("one client").clone();
        let new = {
            let sim = drive(compiled.net, horizon, backend);
            score_qbone(cfg, &sim, &spec_client)
        };

        assert_eq!(
            json(&old),
            json(&new),
            "qbone {:?} under {backend:?}: spec-compiled run diverged from the legacy builder",
            cfg.profile
        );
    }
}

fn check_local_point(cfg: &LocalConfig) {
    let horizon =
        SimTime::ZERO + run_horizon(cfg.clip.into()) + dsv_sim::SimDuration::from_secs(30);
    for backend in BACKENDS {
        let (net, client, adaptive) = legacy::local_net(cfg);
        let old = {
            let sim = drive(net, horizon, backend);
            score_local(cfg, &sim, &client, adaptive.as_ref())
        };

        let compiled = compile(
            &local_spec(cfg),
            CompileOptions {
                store: Some(&ArtifactStore),
                wrap: None,
            },
        )
        .expect("local spec compiles");
        let spec_client = compiled.sole_client().expect("one client").clone();
        let spec_adaptive = compiled.adaptives.first().map(|(_, h)| h.clone());
        let new = {
            let sim = drive(compiled.net, horizon, backend);
            score_local(cfg, &sim, &spec_client, spec_adaptive.as_ref())
        };

        assert_eq!(
            json(&old),
            json(&new),
            "local {:?} under {backend:?}: spec-compiled run diverged from the legacy builder",
            cfg.profile
        );
    }
}

#[test]
fn qbone_spec_matches_legacy_builder_on_committed_grid_points() {
    // Sampled from the findings_qbone_sweep grid (ENC = 1.5 Mbps): the
    // starved low corner and a comfortable high point, one per depth.
    let enc = 1_500_000u64;
    let starved = (enc as f64 * 0.88) as u64;
    let clean = (enc as f64 * 1.36) as u64;
    check_qbone_point(&QboneConfig::new(
        ClipId2::Lost,
        enc,
        EfProfile::new(starved, DEPTH_2MTU),
    ));
    check_qbone_point(&QboneConfig::new(
        ClipId2::Lost,
        enc,
        EfProfile::new(clean, DEPTH_3MTU),
    ));
}

#[test]
fn qbone_spec_matches_legacy_builder_with_cross_traffic() {
    // Cross traffic exercises the RNG-fork parity (the on/off source
    // consumes fork 1 in both paths).
    let mut cfg = QboneConfig::new(
        ClipId2::Lost,
        1_500_000,
        EfProfile::new(1_900_000, DEPTH_3MTU),
    );
    cfg.cross_traffic = true;
    check_qbone_point(&cfg);
}

#[test]
fn local_spec_matches_legacy_builder_on_committed_grid_points() {
    // Sampled from the findings_local grids: a starved UDP point and a
    // shaped TCP point (the shaper path plus mini-TCP dynamics).
    check_local_point(&LocalConfig::new(
        ClipId2::Lost,
        EfProfile::new(400_000, DEPTH_2MTU),
        LocalTransport::Udp,
    ));
    let mut tcp = LocalConfig::new(
        ClipId2::Lost,
        EfProfile::new(1_300_000, DEPTH_3MTU),
        LocalTransport::Tcp,
    );
    tcp.shaped = true;
    check_local_point(&tcp);
}

#[test]
fn local_spec_matches_legacy_builder_with_jitter_traffic() {
    let mut cfg = LocalConfig::new(
        ClipId2::Lost,
        EfProfile::new(1_200_000, DEPTH_3MTU),
        LocalTransport::Udp,
    );
    cfg.cross_traffic = true;
    cfg.multi_rate = true;
    check_local_point(&cfg);
}
