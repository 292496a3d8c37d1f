//! Lowering a [`ScenarioSpec`] onto `dsv-net`'s `NetworkBuilder`.
//!
//! The compiler resolves every node reference **by name** before any node
//! is instantiated: pass one assigns `NodeId(i)` to the `i`-th entry of
//! `spec.nodes` (the builder's own positional rule) and builds the
//! name→id map; pass two instantiates applications, links, conditioners
//! and bounds against that map. Applications that point at nodes created
//! later (a client naming its server) therefore need no creation-order
//! gymnastics and no `assert_eq!(…, NodeId(5))` tripwires. Each host
//! also declares to the builder the one node its application sends to
//! ([`AppSpec::peer`], read from the field the application is built
//! with), so relay hops are marked from the traffic the spec declares.
//!
//! Determinism contract: the compiler performs builder calls in exactly
//! the spec's declaration order — nodes first (forking the scenario RNG
//! at each stochastic app, in node order), then links (port order and
//! route tie-breaking follow link order), then conditioners. Two compiles
//! of the same spec produce byte-identical simulations.

use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

use dsv_diffserv::classifier::MatchRule;
use dsv_diffserv::meter::{SrTcm, TrTcm};
use dsv_diffserv::policer::{ExceedAction, Policer};
use dsv_diffserv::policy::{PolicyAction, PolicyTable};
use dsv_diffserv::shaper::Shaper;
use dsv_diffserv::token_bucket::TokenBucket;
use dsv_media::encoder::{mpeg1, wmv, EncodedClip, MIN_RATE_BPS};
use dsv_net::app::{Application, Handle, Shared};
use dsv_net::conditioner::Conditioner;
use dsv_net::link::Link;
use dsv_net::network::{Network, NetworkBuilder};
use dsv_net::packet::{FlowId, NodeId};
use dsv_net::qdisc::{DropTailQueue, Qdisc, QueueLimits, StrictPriorityQueue};
use dsv_net::traffic::{CountingSink, OnOffSource};
use dsv_net::wred::WredQueue;
use dsv_sim::{SimDuration, SimRng, SimTime};
use dsv_stream::abr::{AbrClient, AbrClientConfig, AbrPolicy, AbrServer, AbrServerConfig};
use dsv_stream::bulk::{BulkTcpConfig, BulkTcpSender, BulkTcpSink};
use dsv_stream::check_ladder;
use dsv_stream::client::{ClientConfig, ClientMode, StreamClient};
use dsv_stream::payload::StreamPayload;
use dsv_stream::playback::PlaybackConfig;
use dsv_stream::server::adaptive::{AdaptiveConfig, AdaptiveServer};
use dsv_stream::server::bursty::{BurstyConfig, BurstyServer};
use dsv_stream::server::paced::{multi_rate_tier, PacedConfig, PacedServer, PacingPlan};
use dsv_stream::server::tcp_server::{TcpServerConfig, TcpStreamServer};

use crate::apps::{IdSink, Pump};
use crate::spec::{
    ActionSpec, AppSpec, ClipId2, CodecSpec, LimitsSpec, MatchSpec, MediaRef, QdiscSpec,
    ScenarioSpec, TransportSpec,
};

/// A boxed conditioner over the stream payload — the type the compiler
/// installs and the tap hook wraps.
pub type BoxConditioner = Box<dyn Conditioner<StreamPayload> + Send>;

/// Resolves [`crate::spec::MediaRef`]s to encoded clips and their paced
/// servers' plans. The experiment layer implements this over its memoized
/// artifact store; specs stay free of multi-megabyte encodings.
pub trait ClipStore {
    /// The encoding of `clip` under `codec` at `rate_bps`.
    fn encoding(&self, clip: ClipId2, codec: CodecSpec, rate_bps: u64) -> Arc<EncodedClip>;

    /// The [`PacingPlan`] of that encoding, which every paced server
    /// streaming it replays. The default paces the encoding afresh; a
    /// store that shares encodings can share plans too.
    fn paced_plan(&self, clip: ClipId2, codec: CodecSpec, rate_bps: u64) -> Arc<PacingPlan> {
        Arc::new(PacingPlan::new(&self.encoding(clip, codec, rate_bps)))
    }
}

/// Compile-time services a caller can provide.
///
/// Both are optional: a media-free spec needs no [`ClipStore`], and a
/// scenario without fault injection needs no tap hook.
#[derive(Clone, Copy, Default)]
pub struct CompileOptions<'a> {
    /// Resolves media references (required iff the spec binds media apps).
    pub store: Option<&'a dyn ClipStore>,
    /// Wraps a named conditioner tap — the fault-injection seam. Called
    /// once per conditioner with a `tap` name, in spec order.
    #[allow(clippy::type_complexity)]
    pub wrap: Option<&'a dyn Fn(&str, BoxConditioner) -> BoxConditioner>,
}

/// A spec error found during lowering.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CompileError {
    msg: String,
}

impl CompileError {
    fn new(msg: impl Into<String>) -> CompileError {
        CompileError { msg: msg.into() }
    }
}

impl fmt::Display for CompileError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "scenario compile error: {}", self.msg)
    }
}

impl std::error::Error for CompileError {}

/// The compiled scenario: the network plus every handle the experiment
/// layer needs to read results back after the run.
pub struct CompiledScenario {
    /// The built network (hand to `Simulation`).
    pub net: Network<StreamPayload>,
    /// Name → id for every node, in case a caller needs an id directly.
    pub ids: HashMap<String, NodeId>,
    /// Stream clients, by node name, in creation order.
    pub clients: Vec<(String, Handle<StreamClient>)>,
    /// Adaptive servers, by node name, in creation order.
    pub adaptives: Vec<(String, Handle<AdaptiveServer>)>,
    /// ABR clients, by node name, in creation order.
    pub abr_clients: Vec<(String, Handle<AbrClient>)>,
    /// Bulk TCP sinks, by node name, in creation order.
    pub bulk_sinks: Vec<(String, Handle<BulkTcpSink>)>,
    /// Id-recording sinks, by node name, in creation order.
    pub id_sinks: Vec<(String, Handle<IdSink>)>,
    /// Audit conformance bounds, resolved to node ids.
    pub bounds: Vec<(NodeId, FlowId, u64, u32)>,
    /// Run horizon, when the spec declares one.
    pub horizon: Option<SimDuration>,
}

impl CompiledScenario {
    /// The id of a named node.
    pub fn node(&self, name: &str) -> NodeId {
        self.ids[name]
    }

    /// The (single) stream client's handle, if the scenario has exactly
    /// one.
    pub fn sole_client(&self) -> Option<&Handle<StreamClient>> {
        match self.clients.as_slice() {
            [(_, h)] => Some(h),
            _ => None,
        }
    }
}

fn to_limits(l: &LimitsSpec) -> QueueLimits {
    QueueLimits {
        max_packets: l.max_packets.map(|n| n as usize).unwrap_or(usize::MAX),
        max_bytes: l.max_bytes.unwrap_or(u64::MAX),
    }
}

fn build_qdisc(q: &QdiscSpec) -> Box<dyn Qdisc<StreamPayload> + Send> {
    match q {
        QdiscSpec::DropTail { limits } => Box::new(DropTailQueue::new(to_limits(limits))),
        QdiscSpec::StrictPriorityEf { ef, be } => Box::new(StrictPriorityQueue::ef_default(
            to_limits(ef),
            to_limits(be),
        )),
        QdiscSpec::Wred {
            capacity_bytes,
            seed,
        } => Box::new(WredQueue::af_default(*capacity_bytes, *seed)),
    }
}

fn kind_fn(codec: CodecSpec) -> fn(u32) -> dsv_media::frame::FrameKind {
    match codec {
        CodecSpec::Mpeg1 => mpeg1::frame_kind,
        CodecSpec::Wmv => wmv::frame_kind,
    }
}

struct Resolver<'s> {
    ids: HashMap<&'s str, NodeId>,
}

impl<'s> Resolver<'s> {
    fn new(spec: &'s ScenarioSpec) -> Result<Resolver<'s>, CompileError> {
        let mut ids = HashMap::with_capacity(spec.nodes.len());
        for (i, node) in spec.nodes.iter().enumerate() {
            if ids.insert(node.name.as_str(), NodeId(i as u32)).is_some() {
                return Err(CompileError::new(format!(
                    "duplicate node name `{}`",
                    node.name
                )));
            }
        }
        Ok(Resolver { ids })
    }

    fn get(&self, name: &str) -> Result<NodeId, CompileError> {
        self.ids
            .get(name)
            .copied()
            .ok_or_else(|| CompileError::new(format!("unknown node name `{name}`")))
    }

    fn get_opt(&self, name: &Option<String>) -> Result<Option<NodeId>, CompileError> {
        name.as_deref().map(|n| self.get(n)).transpose()
    }
}

/// A malformed application of node `name`, for `why`.
fn app_error(name: &str, why: &str) -> CompileError {
    CompileError::new(format!("node `{name}`: {why}"))
}

struct AppBuilder<'a> {
    store: Option<&'a dyn ClipStore>,
    clients: Vec<(String, Handle<StreamClient>)>,
    adaptives: Vec<(String, Handle<AdaptiveServer>)>,
    abr_clients: Vec<(String, Handle<AbrClient>)>,
    bulk_sinks: Vec<(String, Handle<BulkTcpSink>)>,
    id_sinks: Vec<(String, Handle<IdSink>)>,
}

impl AppBuilder<'_> {
    fn store(&self, name: &str) -> Result<&dyn ClipStore, CompileError> {
        self.store.ok_or_else(|| {
            CompileError::new(format!(
                "node `{name}` binds media but no ClipStore was provided"
            ))
        })
    }

    /// A paced server streaming `media`, replaying the store's plan.
    fn paced_server(
        &self,
        name: &str,
        cfg: PacedConfig,
        media: &MediaRef,
    ) -> Result<PacedServer, CompileError> {
        let store = self.store(name)?;
        Ok(PacedServer::new(
            cfg,
            store.encoding(media.clip, media.codec, media.rate_bps),
            store.paced_plan(media.clip, media.codec, media.rate_bps),
        ))
    }

    fn build(
        &mut self,
        name: &str,
        app: &AppSpec,
        ids: &Resolver<'_>,
        rng: &mut SimRng,
    ) -> Result<Box<dyn Application<StreamPayload> + Send>, CompileError> {
        Ok(match app {
            AppSpec::PacedServer {
                client,
                flow,
                dscp,
                media,
            } => Box::new(self.paced_server(
                name,
                PacedConfig::new(ids.get(client)?, FlowId(*flow), dscp.to_dscp()),
                media,
            )?),
            AppSpec::BurstyServer {
                client,
                flow,
                dscp,
                media,
                wait_for_play,
            } => {
                let clip = self
                    .store(name)?
                    .encoding(media.clip, media.codec, media.rate_bps);
                Box::new(BurstyServer::new(
                    BurstyConfig {
                        client: ids.get(client)?,
                        flow: FlowId(*flow),
                        dscp: dscp.to_dscp(),
                        wait_for_play: *wait_for_play,
                    },
                    &clip,
                ))
            }
            AppSpec::MultiRatePacedServer {
                client,
                flow,
                dscp,
                tiers,
                estimate_bps,
            } => {
                let rates: Vec<u64> = tiers.iter().map(|t| t.rate_bps).collect();
                let chosen =
                    multi_rate_tier(&rates, *estimate_bps).map_err(|e| app_error(name, e))?;
                Box::new(self.paced_server(
                    name,
                    PacedConfig::new(ids.get(client)?, FlowId(*flow), dscp.to_dscp()),
                    &tiers[chosen],
                )?)
            }
            AppSpec::AdaptiveServer {
                client,
                flow,
                dscp,
                tiers,
            } => {
                let rates: Vec<u64> = tiers.iter().map(|t| t.rate_bps).collect();
                check_ladder(&rates).map_err(|e| app_error(name, e))?;
                let store = self.store(name)?;
                let encoded = tiers
                    .iter()
                    .map(|t| store.encoding(t.clip, t.codec, t.rate_bps))
                    .collect();
                let (h, app) = Shared::new(AdaptiveServer::new(
                    AdaptiveConfig::new(ids.get(client)?, FlowId(*flow), dscp.to_dscp()),
                    encoded,
                ));
                self.adaptives.push((name.to_string(), h));
                Box::new(app)
            }
            AppSpec::TcpServer {
                client,
                flow,
                dscp,
                media,
            } => {
                let clip = self
                    .store(name)?
                    .encoding(media.clip, media.codec, media.rate_bps);
                Box::new(TcpStreamServer::new(
                    TcpServerConfig::new(ids.get(client)?, FlowId(*flow), dscp.to_dscp()),
                    &clip,
                ))
            }
            AppSpec::AbrServer {
                client,
                flow,
                dscp,
                rungs_bps,
                segment_us,
            } => {
                check_ladder(rungs_bps).map_err(|e| app_error(name, e))?;
                Box::new(AbrServer::new(AbrServerConfig {
                    client: ids.get(client)?,
                    flow: FlowId(*flow),
                    dscp: dscp.to_dscp(),
                    rungs: rungs_bps.clone(),
                    segment_us: *segment_us,
                }))
            }
            AppSpec::AbrClient {
                server,
                up_flow,
                rungs_bps,
                step_us,
                segment_us,
                segments,
                max_buffer_us,
            } => {
                let policy = AbrPolicy::try_new(rungs_bps.clone(), *step_us)
                    .map_err(|e| app_error(name, e))?;
                if *segments == 0 {
                    return Err(app_error(name, "a session needs at least one segment"));
                }
                let (h, app) = Shared::new(AbrClient::new(AbrClientConfig {
                    server: ids.get(server)?,
                    up_flow: FlowId(*up_flow),
                    policy,
                    segment_us: *segment_us,
                    segments: *segments,
                    max_buffer_us: *max_buffer_us,
                }));
                self.abr_clients.push((name.to_string(), h));
                Box::new(app)
            }
            AppSpec::BulkTcpSender {
                client,
                flow,
                dscp,
                total_bytes,
            } => Box::new(BulkTcpSender::new(BulkTcpConfig {
                client: ids.get(client)?,
                flow: FlowId(*flow),
                dscp: dscp.to_dscp(),
                total_bytes: *total_bytes,
            })),
            AppSpec::BulkTcpSink { server, up_flow } => {
                let (h, app) = Shared::new(BulkTcpSink::new(ids.get(server)?, FlowId(*up_flow)));
                self.bulk_sinks.push((name.to_string(), h));
                Box::new(app)
            }
            AppSpec::StreamClient {
                server,
                up_flow,
                media,
                transport,
                feedback_us,
            } => {
                let clip = self
                    .store(name)?
                    .encoding(media.clip, media.codec, media.rate_bps);
                let mode = match transport {
                    TransportSpec::Udp => ClientMode::Udp,
                    TransportSpec::Tcp => ClientMode::Tcp {
                        frame_bytes: clip.frames.iter().map(|f| f.bytes).collect(),
                        fidelities: clip.frames.iter().map(|f| f.fidelity).collect(),
                    },
                };
                let (h, app) = Shared::new(StreamClient::new(ClientConfig {
                    server: ids.get(server)?,
                    up_flow: FlowId(*up_flow),
                    frames: clip.frames.len() as u32,
                    kind_fn: kind_fn(media.codec),
                    playback: PlaybackConfig::default(),
                    feedback_interval: feedback_us.map(SimDuration::from_micros),
                    mode,
                }));
                self.clients.push((name.to_string(), h));
                Box::new(app)
            }
            AppSpec::OnOffSource {
                dst,
                flow,
                packet_size,
                peak_rate_bps,
                mean_on_us,
                mean_off_us,
                dscp,
                stop_at_us,
                rng_fork,
            } => {
                for (field, value) in [
                    ("packet_size", u64::from(*packet_size)),
                    ("peak_rate_bps", *peak_rate_bps),
                    ("mean_on_us", *mean_on_us),
                    ("mean_off_us", *mean_off_us),
                ] {
                    if value == 0 {
                        return Err(CompileError::new(format!(
                            "node `{name}`: on_off_source {field} must be positive"
                        )));
                    }
                }
                Box::new(OnOffSource::new(
                    ids.get(dst)?,
                    FlowId(*flow),
                    *packet_size,
                    *peak_rate_bps,
                    SimDuration::from_micros(*mean_on_us),
                    SimDuration::from_micros(*mean_off_us),
                    dscp.to_dscp(),
                    SimTime::from_micros(*stop_at_us),
                    rng.fork(*rng_fork),
                ))
            }
            AppSpec::CountingSink => Box::new(CountingSink::default()),
            AppSpec::Pump {
                dst,
                flow,
                count,
                size,
                gap_ns,
            } => {
                if *size == 0 {
                    return Err(CompileError::new(format!(
                        "node `{name}`: pump size must be positive"
                    )));
                }
                Box::new(Pump {
                    dst: ids.get(dst)?,
                    flow: FlowId(*flow),
                    count: *count,
                    size: *size,
                    gap: SimDuration::from_nanos(*gap_ns),
                    sent: 0,
                })
            }
            AppSpec::IdSink => {
                let (h, app) = Shared::new(IdSink::default());
                self.id_sinks.push((name.to_string(), h));
                Box::new(app)
            }
        })
    }
}

fn build_match(m: &MatchSpec, ids: &Resolver<'_>) -> Result<MatchRule, CompileError> {
    Ok(MatchRule {
        src: ids.get_opt(&m.src)?,
        dst: ids.get_opt(&m.dst)?,
        flow: m.flow.map(FlowId),
        dscp: m.dscp.map(|d| d.to_dscp()),
        proto: m.proto.map(|p| p.to_proto()),
    })
}

/// A `CompileError` naming `node`'s conditioner and the `field` whose value
/// `ok` rejects.
fn require(ok: bool, node: &str, field: &str, rule: &str) -> Result<(), CompileError> {
    if ok {
        Ok(())
    } else {
        Err(CompileError::new(format!(
            "conditioner at `{node}`: {field} {rule}"
        )))
    }
}

/// Lower one action, rejecting the parameters its token buckets cannot
/// hold: a zero rate or depth, or a two-rate meter's peak below its
/// committed rate.
fn build_action(a: &ActionSpec, node: &str) -> Result<PolicyAction<StreamPayload>, CompileError> {
    let positive = |v: u64, field: &str| require(v > 0, node, field, "must be positive");
    Ok(match a {
        ActionSpec::Police {
            rate_bps,
            depth_bytes,
            conform_mark,
        } => {
            positive(*rate_bps, "police rate_bps")?;
            positive(u64::from(*depth_bytes), "police depth_bytes")?;
            PolicyAction::Police(Policer::new(
                TokenBucket::new(*rate_bps, *depth_bytes),
                conform_mark.map(|d| d.to_dscp()),
                ExceedAction::Drop,
            ))
        }
        ActionSpec::Shape {
            rate_bps,
            depth_bytes,
            max_queue_bytes,
        } => {
            positive(*rate_bps, "shape rate_bps")?;
            positive(u64::from(*depth_bytes), "shape depth_bytes")?;
            PolicyAction::Shape(Shaper::new(*rate_bps, *depth_bytes, *max_queue_bytes))
        }
        ActionSpec::MeterAf {
            cir_bps,
            cbs_bytes,
            ebs_bytes,
            class,
        } => {
            positive(*cir_bps, "meter_af cir_bps")?;
            positive(u64::from(*cbs_bytes), "meter_af cbs_bytes")?;
            PolicyAction::MeterAf {
                meter: SrTcm::new(*cir_bps, *cbs_bytes, *ebs_bytes),
                class: *class,
            }
        }
        ActionSpec::MeterTrtcm {
            pir_bps,
            pbs_bytes,
            cir_bps,
            cbs_bytes,
            class,
        } => {
            positive(*pir_bps, "meter_trtcm pir_bps")?;
            positive(u64::from(*pbs_bytes), "meter_trtcm pbs_bytes")?;
            positive(*cir_bps, "meter_trtcm cir_bps")?;
            positive(u64::from(*cbs_bytes), "meter_trtcm cbs_bytes")?;
            require(
                pir_bps >= cir_bps,
                node,
                "meter_trtcm pir_bps",
                "must be at least cir_bps",
            )?;
            PolicyAction::MeterTrtcm {
                meter: TrTcm::new(*pir_bps, *pbs_bytes, *cir_bps, *cbs_bytes),
                class: *class,
            }
        }
        ActionSpec::Mark { dscp } => PolicyAction::Mark(dscp.to_dscp()),
        ActionSpec::Pass => PolicyAction::Pass,
    })
}

/// The topology invariants `NetworkBuilder::build` asserts, checked as
/// errors so a malformed hand-written spec never panics: every host has
/// exactly one link (its access port), and every node reaches every host
/// (routes are computed toward each host over the undirected topology,
/// so all nodes must share one connected component).
fn check_topology(spec: &ScenarioSpec, ids: &Resolver<'_>) -> Result<(), CompileError> {
    let mut adj: Vec<Vec<usize>> = vec![Vec::new(); spec.nodes.len()];
    for link in &spec.links {
        let (a, b) = (ids.get(&link.a)?.0 as usize, ids.get(&link.b)?.0 as usize);
        adj[a].push(b);
        adj[b].push(a);
    }
    for (node, peers) in spec.nodes.iter().zip(&adj) {
        if node.app.is_some() && peers.len() != 1 {
            return Err(CompileError::new(format!(
                "host `{}` has {} links; a host needs exactly one",
                node.name,
                peers.len()
            )));
        }
    }
    let Some(host) = spec.nodes.iter().position(|n| n.app.is_some()) else {
        return Ok(());
    };
    let mut reached = vec![false; spec.nodes.len()];
    reached[host] = true;
    let mut stack = vec![host];
    while let Some(u) = stack.pop() {
        for &v in &adj[u] {
            if !reached[v] {
                reached[v] = true;
                stack.push(v);
            }
        }
    }
    match reached.iter().position(|&r| !r) {
        Some(i) => Err(CompileError::new(format!(
            "node `{}` has no path to host `{}`",
            spec.nodes[i].name, spec.nodes[host].name
        ))),
        None => Ok(()),
    }
}

/// Lower `spec` to a built network plus result handles.
///
/// Builder calls happen in spec order: all nodes (forking the scenario
/// RNG per stochastic app), then all links, then all conditioners — see
/// the module docs for why that order is the determinism contract.
pub fn compile(
    spec: &ScenarioSpec,
    opts: CompileOptions<'_>,
) -> Result<CompiledScenario, CompileError> {
    let ids = Resolver::new(spec)?;
    let mut rng = SimRng::seed_from_u64(spec.seed);
    let mut b = NetworkBuilder::<StreamPayload>::new();
    let mut apps = AppBuilder {
        store: opts.store,
        clients: Vec::new(),
        adaptives: Vec::new(),
        abr_clients: Vec::new(),
        bulk_sinks: Vec::new(),
        id_sinks: Vec::new(),
    };

    for node in &spec.nodes {
        match &node.app {
            None => {
                b.add_router(&node.name);
            }
            Some(app) => {
                if let Some(m) = app.media().iter().find(|m| m.rate_bps < MIN_RATE_BPS) {
                    return Err(CompileError::new(format!(
                        "node `{}`: media rate_bps {} is below the encoders' floor of {MIN_RATE_BPS}",
                        node.name, m.rate_bps
                    )));
                }
                let built = apps.build(&node.name, app, &ids, &mut rng)?;
                let host = b.add_host(&node.name, built);
                let peer = app.peer().map(|name| ids.get(name)).transpose()?;
                b.declare_traffic(host, peer);
            }
        }
    }

    for link in &spec.links {
        let a = ids.get(&link.a)?;
        let z = ids.get(&link.b)?;
        if a == z {
            return Err(CompileError::new(format!(
                "link connects `{}` to itself",
                link.a
            )));
        }
        for (dir, params, qdisc) in [
            ("ab", &link.ab, &link.qdisc_ab),
            ("ba", &link.ba, &link.qdisc_ba),
        ] {
            if params.rate_bps == 0 {
                return Err(CompileError::new(format!(
                    "link `{}`-`{}`: {dir}.rate_bps must be positive",
                    link.a, link.b
                )));
            }
            if let QdiscSpec::Wred {
                capacity_bytes: 0, ..
            } = qdisc
            {
                return Err(CompileError::new(format!(
                    "link `{}`-`{}`: qdisc_{dir}.capacity_bytes must be positive",
                    link.a, link.b
                )));
            }
        }
        b.connect_with(
            a,
            z,
            Link::new(
                link.ab.rate_bps,
                SimDuration::from_nanos(link.ab.propagation_ns),
            ),
            Link::new(
                link.ba.rate_bps,
                SimDuration::from_nanos(link.ba.propagation_ns),
            ),
            build_qdisc(&link.qdisc_ab),
            build_qdisc(&link.qdisc_ba),
        );
    }

    check_topology(spec, &ids)?;

    for cond in &spec.conditioners {
        let node = ids.get(&cond.node)?;
        if spec.nodes[node.0 as usize].app.is_some() {
            return Err(CompileError::new(format!(
                "conditioner target `{}` is a host; conditioners attach to routers",
                cond.node
            )));
        }
        let mut table = PolicyTable::new();
        for rule in &cond.rules {
            table.push(
                build_match(&rule.matches, &ids)?,
                build_action(&rule.action, &cond.node)?,
            );
        }
        let mut boxed: BoxConditioner = Box::new(table);
        if let (Some(tap), Some(wrap)) = (&cond.tap, opts.wrap) {
            boxed = wrap(tap, boxed);
        }
        b.set_conditioner(node, boxed);
    }

    let mut bounds = Vec::with_capacity(spec.bounds.len());
    for bound in &spec.bounds {
        bounds.push((
            ids.get(&bound.node)?,
            FlowId(bound.flow),
            bound.rate_bps,
            bound.depth_bytes,
        ));
    }

    let ids_owned = ids
        .ids
        .iter()
        .map(|(name, id)| (name.to_string(), *id))
        .collect();

    Ok(CompiledScenario {
        net: b.build(),
        ids: ids_owned,
        clients: apps.clients,
        adaptives: apps.adaptives,
        abr_clients: apps.abr_clients,
        bulk_sinks: apps.bulk_sinks,
        id_sinks: apps.id_sinks,
        bounds,
        horizon: spec.horizon_ns.map(SimDuration::from_nanos),
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::{
        ActionSpec, AppSpec, BoundSpec, ConditionerSpec, DscpSpec, LinkParams, LinkSpec, MatchSpec,
        MediaRef, NodeSpec, RuleSpec,
    };
    use dsv_net::network::Simulation;

    fn expect_err(r: Result<CompiledScenario, CompileError>) -> CompileError {
        match r {
            Ok(_) => panic!("expected a compile error"),
            Err(e) => e,
        }
    }

    fn chain_spec(rate_bps: u64) -> ScenarioSpec {
        let mut s = ScenarioSpec::new("chain", 1);
        s.nodes.push(NodeSpec::host("rx", AppSpec::IdSink));
        s.nodes.push(NodeSpec::router("tap"));
        s.nodes.push(NodeSpec::host(
            "tx",
            AppSpec::Pump {
                dst: "rx".to_string(),
                flow: 1,
                count: 200,
                size: 1500,
                gap_ns: 1_000_000,
            },
        ));
        let link = LinkParams {
            rate_bps: 100_000_000,
            propagation_ns: 50_000,
        };
        s.links.push(LinkSpec::simple("tx", "tap", link));
        s.links.push(LinkSpec::simple("tap", "rx", link));
        s.conditioners.push(ConditionerSpec {
            node: "tap".to_string(),
            tap: Some("ingress".to_string()),
            rules: vec![RuleSpec {
                matches: MatchSpec::flow(1),
                action: ActionSpec::Police {
                    rate_bps,
                    depth_bytes: 4500,
                    conform_mark: None,
                },
            }],
        });
        s.bounds.push(BoundSpec {
            node: "tap".to_string(),
            flow: 1,
            rate_bps,
            depth_bytes: 4500,
        });
        s
    }

    fn run_chain(spec: &ScenarioSpec) -> (Vec<u64>, dsv_sim::SimTime, u64) {
        let compiled = compile(spec, CompileOptions::default()).expect("compiles");
        let sink = compiled.id_sinks[0].1.clone();
        let mut sim = Simulation::new(compiled.net);
        let stats = sim.run();
        let ids = sink.borrow().ids.clone();
        (ids, stats.end_time, stats.dispatched)
    }

    #[test]
    fn name_resolution_replaces_creation_order() {
        let compiled =
            compile(&chain_spec(20_000_000), CompileOptions::default()).expect("compiles");
        assert_eq!(compiled.node("rx"), NodeId(0));
        assert_eq!(compiled.node("tap"), NodeId(1));
        assert_eq!(compiled.node("tx"), NodeId(2));
        assert_eq!(
            compiled.bounds,
            vec![(NodeId(1), FlowId(1), 20_000_000, 4500)]
        );
    }

    #[test]
    fn compile_twice_is_byte_identical() {
        let spec = chain_spec(2_000_000);
        let a = run_chain(&spec);
        let b = run_chain(&spec);
        assert_eq!(a, b, "same spec must produce the same simulation");
    }

    #[test]
    fn clean_chain_delivers_everything() {
        let (ids, _, _) = run_chain(&chain_spec(20_000_000));
        assert_eq!(ids.len(), 200);
        assert!(ids.windows(2).all(|w| w[0] < w[1]));
    }

    #[test]
    fn tap_hook_sees_named_taps() {
        use std::cell::RefCell;
        let seen: RefCell<Vec<String>> = RefCell::new(Vec::new());
        let wrap = |tap: &str, inner: BoxConditioner| -> BoxConditioner {
            seen.borrow_mut().push(tap.to_string());
            inner
        };
        let opts = CompileOptions {
            store: None,
            wrap: Some(&wrap),
        };
        compile(&chain_spec(20_000_000), opts).expect("compiles");
        assert_eq!(seen.into_inner(), vec!["ingress".to_string()]);
    }

    #[test]
    fn unknown_names_are_rejected() {
        let mut spec = chain_spec(20_000_000);
        spec.links[0].b = "no-such-node".to_string();
        let err = expect_err(compile(&spec, CompileOptions::default()));
        assert!(err.to_string().contains("no-such-node"), "{err}");
    }

    #[test]
    fn duplicate_names_are_rejected() {
        let mut spec = chain_spec(20_000_000);
        spec.nodes.push(NodeSpec::router("tap"));
        assert!(compile(&spec, CompileOptions::default()).is_err());
    }

    /// The committed example spec, mutated by `edit`, compiled: the
    /// error it must produce.
    fn example_error(edit: impl FnOnce(&mut ScenarioSpec)) -> String {
        let mut spec: ScenarioSpec = serde_json::from_str(include_str!(
            "../../../examples/scenario_policed_chain.json"
        ))
        .expect("example parses");
        compile(&spec, CompileOptions::default()).expect("the unmutated example compiles");
        edit(&mut spec);
        expect_err(compile(&spec, CompileOptions::default())).to_string()
    }

    #[test]
    fn host_without_a_link_is_rejected() {
        let err = example_error(|s| s.links.retain(|l| l.b != "rx"));
        assert!(err.contains("host `rx` has 0 links"), "{err}");
    }

    #[test]
    fn host_with_two_links_is_rejected() {
        let err = example_error(|s| s.links.insert(1, s.links[0].clone()));
        assert!(err.contains("host `tx` has 2 links"), "{err}");
    }

    #[test]
    fn disconnected_island_is_rejected() {
        let err = example_error(|s| {
            s.nodes.push(NodeSpec::router("isl-r"));
            s.nodes.push(NodeSpec::host("isl-h", AppSpec::CountingSink));
            s.links.push(LinkSpec::simple(
                "isl-h",
                "isl-r",
                LinkParams::fast_ethernet(),
            ));
        });
        assert!(
            err.contains("node `isl-r` has no path to host `rx`"),
            "{err}"
        );
    }

    /// Set one mean duration of the example's `bg` on/off source.
    fn set_on_off_mean(s: &mut ScenarioSpec, on: bool, value: u64) {
        let bg = s
            .nodes
            .iter_mut()
            .find(|n| n.name == "bg")
            .expect("bg node");
        let Some(AppSpec::OnOffSource {
            mean_on_us,
            mean_off_us,
            ..
        }) = &mut bg.app
        else {
            panic!("bg is an on/off source");
        };
        *(if on { mean_on_us } else { mean_off_us }) = value;
    }

    #[test]
    fn zero_mean_on_time_is_rejected() {
        let err = example_error(|s| set_on_off_mean(s, true, 0));
        assert!(
            err.contains("node `bg`") && err.contains("mean_on_us"),
            "{err}"
        );
    }

    #[test]
    fn zero_mean_off_time_is_rejected() {
        let err = example_error(|s| set_on_off_mean(s, false, 0));
        assert!(
            err.contains("node `bg`") && err.contains("mean_off_us"),
            "{err}"
        );
    }

    /// Set the action of the example's policing rule at `edge`.
    fn set_edge_action(s: &mut ScenarioSpec, action: ActionSpec) {
        s.conditioners[0].rules[0].action = action;
    }

    /// The example's `app` at node `name`.
    fn app_at<'s>(s: &'s mut ScenarioSpec, name: &str) -> &'s mut AppSpec {
        s.nodes
            .iter_mut()
            .find(|n| n.name == name)
            .and_then(|n| n.app.as_mut())
            .expect("host node")
    }

    fn trtcm(pir_bps: u64, pbs_bytes: u32, cir_bps: u64, cbs_bytes: u32) -> ActionSpec {
        ActionSpec::MeterTrtcm {
            pir_bps,
            pbs_bytes,
            cir_bps,
            cbs_bytes,
            class: 1,
        }
    }

    /// Parameters that used to panic in a token-bucket constructor, hang
    /// the run, send zero-length packets or deliver at the end of time:
    /// each is now a compile error naming its node or link and field.
    #[test]
    fn malformed_parameters_are_rejected() {
        type Edit = Box<dyn Fn(&mut ScenarioSpec)>;
        let action = |a: ActionSpec| -> Edit { Box::new(move |s| set_edge_action(s, a)) };
        let police = |rate_bps, depth_bytes| ActionSpec::Police {
            rate_bps,
            depth_bytes,
            conform_mark: None,
        };
        let shape = |rate_bps, depth_bytes| ActionSpec::Shape {
            rate_bps,
            depth_bytes,
            max_queue_bytes: 60_000,
        };
        let meter_af = |cir_bps, cbs_bytes| ActionSpec::MeterAf {
            cir_bps,
            cbs_bytes,
            ebs_bytes: 3000,
            class: 1,
        };
        let cases: Vec<(&str, Edit, &[&str])> = vec![
            (
                "police zero rate",
                action(police(0, 4500)),
                &["`edge`", "police rate_bps"],
            ),
            (
                "police zero depth",
                action(police(1_500_000, 0)),
                &["`edge`", "police depth_bytes"],
            ),
            (
                "shape zero rate",
                action(shape(0, 4500)),
                &["`edge`", "shape rate_bps"],
            ),
            (
                "shape zero depth",
                action(shape(1_500_000, 0)),
                &["`edge`", "shape depth_bytes"],
            ),
            (
                "srTCM zero rate",
                action(meter_af(0, 3000)),
                &["`edge`", "meter_af cir_bps"],
            ),
            (
                "srTCM zero burst",
                action(meter_af(1_500_000, 0)),
                &["`edge`", "meter_af cbs_bytes"],
            ),
            (
                "trTCM peak below committed",
                action(trtcm(1_000_000, 6000, 2_000_000, 3000)),
                &["`edge`", "meter_trtcm pir_bps", "at least cir_bps"],
            ),
            (
                "trTCM zero rates",
                action(trtcm(0, 6000, 0, 3000)),
                &["`edge`", "meter_trtcm pir_bps"],
            ),
            (
                "trTCM zero peak burst",
                action(trtcm(2_000_000, 0, 1_000_000, 3000)),
                &["`edge`", "meter_trtcm pbs_bytes"],
            ),
            (
                "trTCM zero committed rate",
                action(trtcm(2_000_000, 6000, 0, 3000)),
                &["`edge`", "meter_trtcm cir_bps"],
            ),
            (
                "trTCM zero committed burst",
                action(trtcm(2_000_000, 6000, 1_000_000, 0)),
                &["`edge`", "meter_trtcm cbs_bytes"],
            ),
            (
                "on/off zero packet size",
                Box::new(|s| {
                    if let AppSpec::OnOffSource { packet_size, .. } = app_at(s, "bg") {
                        *packet_size = 0;
                    }
                }),
                &["node `bg`", "packet_size"],
            ),
            (
                "on/off zero peak rate",
                Box::new(|s| {
                    if let AppSpec::OnOffSource { peak_rate_bps, .. } = app_at(s, "bg") {
                        *peak_rate_bps = 0;
                    }
                }),
                &["node `bg`", "peak_rate_bps"],
            ),
            (
                "pump zero size",
                Box::new(|s| {
                    if let AppSpec::Pump { size, .. } = app_at(s, "tx") {
                        *size = 0;
                    }
                }),
                &["node `tx`", "pump size"],
            ),
            (
                "link zero rate a to b",
                Box::new(|s| s.links[2].ab.rate_bps = 0),
                &["link `edge`-`out`", "ab.rate_bps"],
            ),
            (
                "link zero rate b to a",
                Box::new(|s| s.links[2].ba.rate_bps = 0),
                &["link `edge`-`out`", "ba.rate_bps"],
            ),
            (
                "WRED zero capacity b to a",
                Box::new(|s| {
                    s.links[2].qdisc_ba = QdiscSpec::Wred {
                        capacity_bytes: 0,
                        seed: 1,
                    }
                }),
                &["link `edge`-`out`", "qdisc_ba.capacity_bytes"],
            ),
        ];
        for (label, edit, needles) in cases {
            let err = example_error(edit);
            for needle in needles {
                assert!(
                    err.contains(needle),
                    "{label}: `{needle}` missing from {err}"
                );
            }
        }
    }

    #[test]
    fn media_specs_require_a_store() {
        let mut spec = chain_spec(20_000_000);
        spec.nodes.push(NodeSpec::host(
            "client",
            AppSpec::StreamClient {
                server: "tx".to_string(),
                up_flow: 2,
                media: crate::spec::MediaRef {
                    clip: ClipId2::Lost,
                    codec: CodecSpec::Mpeg1,
                    rate_bps: 1_500_000,
                },
                transport: TransportSpec::Udp,
                feedback_us: None,
            },
        ));
        let err = expect_err(compile(&spec, CompileOptions::default()));
        assert!(err.to_string().contains("ClipStore"), "{err}");
    }

    /// Encodes each clip it is asked for once and keeps it, so a test can
    /// count who else holds the encoding.
    #[derive(Default)]
    struct KeepingStore {
        kept: std::cell::RefCell<Vec<(MediaRef, Arc<EncodedClip>)>>,
    }

    impl ClipStore for KeepingStore {
        fn encoding(&self, clip: ClipId2, codec: CodecSpec, rate_bps: u64) -> Arc<EncodedClip> {
            let media = MediaRef {
                clip,
                codec,
                rate_bps,
            };
            let mut kept = self.kept.borrow_mut();
            if let Some((_, e)) = kept.iter().find(|(m, _)| *m == media) {
                return Arc::clone(e);
            }
            let model = dsv_media::scene::ClipId::from(clip).model();
            let encoded = Arc::new(match codec {
                CodecSpec::Mpeg1 => mpeg1::encode(&model, rate_bps),
                CodecSpec::Wmv => wmv::encode(&model, rate_bps),
            });
            kept.push((media, Arc::clone(&encoded)));
            encoded
        }
    }

    /// `chain_spec` with a server `app` added on host `server`, streaming
    /// to `rx`.
    fn with_server(app: AppSpec) -> ScenarioSpec {
        let mut spec = chain_spec(20_000_000);
        spec.nodes.push(NodeSpec::host("server", app));
        spec.links.push(LinkSpec::simple(
            "server",
            "tap",
            LinkParams::fast_ethernet(),
        ));
        spec
    }

    #[test]
    fn media_below_the_encoders_floor_is_rejected() {
        let media = |rate_bps| MediaRef {
            clip: ClipId2::Lost,
            codec: CodecSpec::Mpeg1,
            rate_bps,
        };
        let paced = |rate_bps| AppSpec::PacedServer {
            client: "rx".to_string(),
            flow: 2,
            dscp: DscpSpec::Ef,
            media: media(rate_bps),
        };
        let multi = |low_bps| AppSpec::MultiRatePacedServer {
            client: "rx".to_string(),
            flow: 2,
            dscp: DscpSpec::Ef,
            tiers: vec![media(low_bps), media(1_500_000)],
            estimate_bps: 1_600_000,
        };
        let store = KeepingStore::default();
        let opts = CompileOptions {
            store: Some(&store),
            wrap: None,
        };
        for app in [paced(MIN_RATE_BPS - 1), multi(50_000)] {
            let err = expect_err(compile(&with_server(app), opts)).to_string();
            assert!(
                err.contains("node `server`") && err.contains("below the encoders' floor"),
                "{err}"
            );
        }
        // Nothing was encoded for the rejected specs; the floor compiles.
        assert!(store.kept.borrow().is_empty());
        compile(&with_server(paced(MIN_RATE_BPS)), opts).expect("the floor itself compiles");
    }

    #[test]
    fn adaptive_server_shares_the_stores_encodings() {
        let tier = |rate_bps| MediaRef {
            clip: ClipId2::Lost,
            codec: CodecSpec::Wmv,
            rate_bps,
        };
        let spec = with_server(AppSpec::AdaptiveServer {
            client: "rx".to_string(),
            flow: 2,
            dscp: DscpSpec::BestEffort,
            tiers: vec![tier(300_000), tier(1_000_000)],
        });
        let store = KeepingStore::default();
        let compiled = compile(
            &spec,
            CompileOptions {
                store: Some(&store),
                wrap: None,
            },
        )
        .expect("compiles");
        let kept = store.kept.borrow();
        assert_eq!(kept.len(), 2);
        for (media, encoded) in kept.iter() {
            assert_eq!(
                Arc::strong_count(encoded),
                2,
                "{media:?}: held by the store and the server, not copied"
            );
        }
        drop(compiled);
        assert!(kept.iter().all(|(_, e)| Arc::strong_count(e) == 1));
    }

    /// `compile` of `app` on host `server` fails, naming the node and
    /// `why`.
    fn assert_app_rejected(app: AppSpec, why: &str) {
        let store = KeepingStore::default();
        let opts = CompileOptions {
            store: Some(&store),
            wrap: None,
        };
        let err = expect_err(compile(&with_server(app), opts)).to_string();
        assert!(err.contains("node `server`") && err.contains(why), "{err}");
        assert!(store.kept.borrow().is_empty(), "nothing was encoded");
    }

    fn adaptive_server(rates_bps: &[u64]) -> AppSpec {
        AppSpec::AdaptiveServer {
            client: "rx".to_string(),
            flow: 2,
            dscp: DscpSpec::BestEffort,
            tiers: rates_bps
                .iter()
                .map(|&rate_bps| MediaRef {
                    clip: ClipId2::Lost,
                    codec: CodecSpec::Wmv,
                    rate_bps,
                })
                .collect(),
        }
    }

    #[test]
    fn adaptive_server_without_tiers_is_rejected() {
        assert_app_rejected(adaptive_server(&[]), "at least one rate");
    }

    #[test]
    fn adaptive_server_with_unsorted_tiers_is_rejected() {
        assert_app_rejected(adaptive_server(&[1_000_000, 300_000]), "sorted by rate");
    }

    fn abr_client(rungs_bps: &[u64], step_us: u64, segments: u32) -> AppSpec {
        AppSpec::AbrClient {
            server: "rx".to_string(),
            up_flow: 2,
            rungs_bps: rungs_bps.to_vec(),
            step_us,
            segment_us: 2_000_000,
            segments,
            max_buffer_us: 10_000_000,
        }
    }

    #[test]
    fn abr_client_without_rungs_is_rejected() {
        assert_app_rejected(abr_client(&[], 2_000_000, 35), "at least one rate");
    }

    #[test]
    fn abr_client_with_descending_rungs_is_rejected() {
        assert_app_rejected(
            abr_client(&[750_000, 375_000], 2_000_000, 35),
            "sorted by rate",
        );
    }

    #[test]
    fn abr_client_with_a_zero_step_is_rejected() {
        assert_app_rejected(abr_client(&[375_000, 750_000], 0, 35), "step_us");
    }

    #[test]
    fn abr_client_without_segments_is_rejected() {
        assert_app_rejected(
            abr_client(&[375_000, 750_000], 2_000_000, 0),
            "at least one segment",
        );
    }

    #[test]
    fn abr_server_without_rungs_is_rejected() {
        let app = AppSpec::AbrServer {
            client: "rx".to_string(),
            flow: 2,
            dscp: DscpSpec::Ef,
            rungs_bps: Vec::new(),
            segment_us: 2_000_000,
        };
        assert_app_rejected(app, "at least one rate");
    }

    #[test]
    fn multi_rate_tiers_must_be_present_and_sorted() {
        let tier = |rate_bps| crate::spec::MediaRef {
            clip: ClipId2::Lost,
            codec: CodecSpec::Mpeg1,
            rate_bps,
        };
        for (tiers, expected) in [
            (vec![], "at least one"),
            (vec![tier(1_500_000), tier(1_000_000)], "sorted"),
        ] {
            let mut spec = chain_spec(20_000_000);
            spec.nodes.push(NodeSpec::host(
                "multi",
                AppSpec::MultiRatePacedServer {
                    client: "rx".to_string(),
                    flow: 2,
                    dscp: DscpSpec::Ef,
                    tiers,
                    estimate_bps: 1_200_000,
                },
            ));
            let err = expect_err(compile(&spec, CompileOptions::default()));
            assert!(err.to_string().contains(expected), "{err}");
            assert!(err.to_string().contains("`multi`"), "{err}");
        }
    }
}
