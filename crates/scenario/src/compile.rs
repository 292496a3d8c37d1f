//! Lowering a [`ScenarioSpec`] onto `dsv-net`'s `NetworkBuilder`.
//!
//! The compiler resolves every node reference **by name** before any node
//! is instantiated: pass one assigns `NodeId(i)` to the `i`-th entry of
//! `spec.nodes` (the builder's own positional rule) and builds the
//! name→id map; pass two instantiates applications, links, conditioners
//! and bounds against that map. Applications that point at nodes created
//! later (a client naming its server) therefore need no creation-order
//! gymnastics and no `assert_eq!(…, NodeId(5))` tripwires.
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
use dsv_media::encoder::{mpeg1, wmv, EncodedClip};
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
use dsv_stream::client::{ClientConfig, ClientMode, StreamClient};
use dsv_stream::payload::StreamPayload;
use dsv_stream::playback::PlaybackConfig;
use dsv_stream::server::adaptive::{AdaptiveConfig, AdaptiveServer};
use dsv_stream::server::bursty::{BurstyConfig, BurstyServer};
use dsv_stream::server::paced::{PacedConfig, PacedServer};
use dsv_stream::server::tcp_server::{TcpServerConfig, TcpStreamServer};

use crate::apps::{IdSink, Pump};
use crate::spec::{
    ActionSpec, AppSpec, ClipId2, CodecSpec, LimitsSpec, MatchSpec, QdiscSpec, ScenarioSpec,
    TransportSpec,
};

/// A boxed conditioner over the stream payload — the type the compiler
/// installs and the tap hook wraps.
pub type BoxConditioner = Box<dyn Conditioner<StreamPayload> + Send>;

/// Resolves [`crate::spec::MediaRef`]s to encoded clips. The experiment
/// layer implements this over its memoized artifact store; specs stay
/// free of multi-megabyte encodings.
pub trait ClipStore {
    /// The encoding of `clip` under `codec` at `rate_bps`.
    fn encoding(&self, clip: ClipId2, codec: CodecSpec, rate_bps: u64) -> Arc<EncodedClip>;
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
            } => {
                let clip = self
                    .store(name)?
                    .encoding(media.clip, media.codec, media.rate_bps);
                Box::new(PacedServer::new(
                    PacedConfig::new(ids.get(client)?, FlowId(*flow), dscp.to_dscp()),
                    &clip,
                ))
            }
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
                let store = self.store(name)?;
                let encoded: Vec<Arc<EncodedClip>> = tiers
                    .iter()
                    .map(|t| store.encoding(t.clip, t.codec, t.rate_bps))
                    .collect();
                let refs: Vec<&EncodedClip> = encoded.iter().map(|t| t.as_ref()).collect();
                Box::new(PacedServer::new_multi_rate_shared(
                    PacedConfig::new(ids.get(client)?, FlowId(*flow), dscp.to_dscp()),
                    &refs,
                    *estimate_bps,
                ))
            }
            AppSpec::AdaptiveServer {
                client,
                flow,
                dscp,
                tiers,
            } => {
                let store = self.store(name)?;
                let encoded: Vec<EncodedClip> = tiers
                    .iter()
                    .map(|t| (*store.encoding(t.clip, t.codec, t.rate_bps)).clone())
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
            } => Box::new(AbrServer::new(AbrServerConfig {
                client: ids.get(client)?,
                flow: FlowId(*flow),
                dscp: dscp.to_dscp(),
                rungs: rungs_bps.clone(),
                segment_us: *segment_us,
            })),
            AppSpec::AbrClient {
                server,
                up_flow,
                rungs_bps,
                step_us,
                segment_us,
                segments,
                max_buffer_us,
            } => {
                let (h, app) = Shared::new(AbrClient::new(AbrClientConfig {
                    server: ids.get(server)?,
                    up_flow: FlowId(*up_flow),
                    policy: AbrPolicy::new(rungs_bps.clone(), *step_us),
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
                    media_rate_bps: media.rate_bps,
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
                for (field, mean) in [("mean_on_us", mean_on_us), ("mean_off_us", mean_off_us)] {
                    if *mean == 0 {
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
            } => Box::new(Pump {
                dst: ids.get(dst)?,
                flow: FlowId(*flow),
                count: *count,
                size: *size,
                gap: SimDuration::from_nanos(*gap_ns),
                sent: 0,
            }),
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

fn build_action(a: &ActionSpec) -> PolicyAction<StreamPayload> {
    match a {
        ActionSpec::Police {
            rate_bps,
            depth_bytes,
            conform_mark,
        } => PolicyAction::Police(Policer::new(
            TokenBucket::new(*rate_bps, *depth_bytes),
            conform_mark.map(|d| d.to_dscp()),
            ExceedAction::Drop,
        )),
        ActionSpec::Shape {
            rate_bps,
            depth_bytes,
            max_queue_bytes,
        } => PolicyAction::Shape(Shaper::new(*rate_bps, *depth_bytes, *max_queue_bytes)),
        ActionSpec::MeterAf {
            cir_bps,
            cbs_bytes,
            ebs_bytes,
            class,
        } => PolicyAction::MeterAf {
            meter: SrTcm::new(*cir_bps, *cbs_bytes, *ebs_bytes),
            class: *class,
        },
        ActionSpec::MeterTrtcm {
            pir_bps,
            pbs_bytes,
            cir_bps,
            cbs_bytes,
            class,
        } => PolicyAction::MeterTrtcm {
            meter: TrTcm::new(*pir_bps, *pbs_bytes, *cir_bps, *cbs_bytes),
            class: *class,
        },
        ActionSpec::Mark { dscp } => PolicyAction::Mark(dscp.to_dscp()),
        ActionSpec::Pass => PolicyAction::Pass,
    }
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
                let built = apps.build(&node.name, app, &ids, &mut rng)?;
                b.add_host(&node.name, built);
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
                build_action(&rule.action),
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
        ActionSpec, AppSpec, BoundSpec, ConditionerSpec, LinkParams, LinkSpec, MatchSpec, NodeSpec,
        RuleSpec,
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
}
