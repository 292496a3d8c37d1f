//! The serializable scenario IR.
//!
//! A [`ScenarioSpec`] is a complete, declarative description of one
//! simulation: named nodes (hosts carry an [`AppSpec`], routers carry
//! none), links with per-direction rates and queue disciplines,
//! conditioner tables with named fault taps, and measurement bounds for
//! the audit oracles. Every cross-reference is **by node name**, never by
//! `NodeId` — the compiler ([`crate::compile`]) assigns ids positionally
//! and resolves names, so specs cannot break when creation order changes.
//!
//! All types serialize to the vendored serde's canonical JSON (object
//! fields in declaration order), which makes a spec's JSON byte-stable:
//! the sweep runner content-addresses its cache with exactly that string.
//! Data-carrying enums implement serde through `kind_tagged!` (the
//! offline derive only handles named-field structs and fieldless enums),
//! which lists each variant's fields once; each serializes as an object
//! with a `"kind"` discriminant followed by its fields.

use dsv_media::scene::ClipId;
use dsv_net::packet::{Dscp, Proto};
use serde::{de_field, Deserialize, Error, Serialize, Value};

/// Serde for a data-carrying enum from one list: per variant, its
/// `"kind"` tag and its fields in serialized order. The value serializes
/// as an object, the tag first; `to_value`, `write_json` and
/// `from_value` all read this one list.
macro_rules! kind_tagged {
    ($ty:ident, $what:literal, {
        $($variant:ident = $tag:literal { $($field:ident),* $(,)? }),* $(,)?
    }) => {
        impl $ty {
            /// The `"kind"` tag and the fields, in serialized order.
            fn fields<R>(&self, emit: impl FnOnce(&[serde::Field<'_>]) -> R) -> R {
                match self {
                    $($ty::$variant { $($field),* } => {
                        emit(&[("kind", &$tag), $((stringify!($field), $field)),*])
                    })*
                }
            }
        }

        impl Serialize for $ty {
            fn to_value(&self) -> Value {
                self.fields(serde::object_value)
            }

            fn write_json(&self, out: &mut String) {
                self.fields(|fields| serde::write_object(fields, out))
            }
        }

        impl Deserialize for $ty {
            fn from_value(v: &Value) -> Result<$ty, Error> {
                let kind: String = de_field(v, "kind")?;
                match kind.as_str() {
                    $($tag => Ok($ty::$variant { $($field: de_field(v, stringify!($field))?),* }),)*
                    other => Err(Error::msg(format!(
                        concat!("unknown ", $what, " kind `{}`"),
                        other
                    ))),
                }
            }
        }
    };
}

/// Serializable mirror of [`ClipId`] (keeps `dsv-media` serde-free).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ClipId2 {
    Lost,
    Dark,
    Talk,
}

impl From<ClipId2> for ClipId {
    fn from(c: ClipId2) -> ClipId {
        match c {
            ClipId2::Lost => ClipId::Lost,
            ClipId2::Dark => ClipId::Dark,
            ClipId2::Talk => ClipId::Talk,
        }
    }
}

impl From<ClipId> for ClipId2 {
    fn from(c: ClipId) -> ClipId2 {
        match c {
            ClipId::Lost => ClipId2::Lost,
            ClipId::Dark => ClipId2::Dark,
            ClipId::Talk => ClipId2::Talk,
        }
    }
}

/// Serializable mirror of the media codecs the experiment layer encodes
/// with.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum CodecSpec {
    Mpeg1,
    Wmv,
}

/// Serializable DSCP marking.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum DscpSpec {
    BestEffort,
    Ef,
    EfQbone,
}

impl DscpSpec {
    /// The wire code point this name stands for.
    pub fn to_dscp(self) -> Dscp {
        match self {
            DscpSpec::BestEffort => Dscp::BEST_EFFORT,
            DscpSpec::Ef => Dscp::EF,
            DscpSpec::EfQbone => Dscp::EF_QBONE,
        }
    }
}

/// Serializable transport tag for match rules.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum ProtoSpec {
    Udp,
    Tcp,
}

impl ProtoSpec {
    /// The `dsv-net` transport tag.
    pub fn to_proto(self) -> Proto {
        match self {
            ProtoSpec::Udp => Proto::Udp,
            ProtoSpec::Tcp => Proto::Tcp,
        }
    }
}

/// Client transport discipline.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
#[allow(missing_docs)]
pub enum TransportSpec {
    Udp,
    Tcp,
}

/// A reference to an encoded clip: which clip, which codec, what rate.
/// The compiler resolves this against a [`crate::compile::ClipStore`], so
/// the (expensive) encoding artifact never lives in the spec itself.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct MediaRef {
    /// Which clip.
    pub clip: ClipId2,
    /// Which codec encodes it.
    pub codec: CodecSpec,
    /// Encoder rate parameter, bps (CBR target or bandwidth cap).
    pub rate_bps: u64,
}

/// The application bound to a host node. All node references are names.
#[derive(Debug, Clone, PartialEq)]
pub enum AppSpec {
    /// A Video-Charger-style paced media server.
    PacedServer {
        /// Client node name.
        client: String,
        /// Media flow id.
        flow: u32,
        /// DSCP the server marks outgoing media with.
        dscp: DscpSpec,
        /// What it streams.
        media: MediaRef,
    },
    /// A NetShow-Theater-style large-datagram server.
    BurstyServer {
        /// Client node name.
        client: String,
        /// Media flow id.
        flow: u32,
        /// DSCP the server marks outgoing media with.
        dscp: DscpSpec,
        /// What it streams.
        media: MediaRef,
        /// Wait for the client's PLAY before streaming.
        wait_for_play: bool,
    },
    /// A paced server with multi-rate content selection.
    MultiRatePacedServer {
        /// Client node name.
        client: String,
        /// Media flow id.
        flow: u32,
        /// DSCP the server marks outgoing media with.
        dscp: DscpSpec,
        /// Encoding tiers to choose between.
        tiers: Vec<MediaRef>,
        /// The server's estimate of deliverable bandwidth, bps.
        estimate_bps: u64,
    },
    /// The adaptive (WMT-style) UDP server.
    AdaptiveServer {
        /// Client node name.
        client: String,
        /// Media flow id.
        flow: u32,
        /// DSCP the server marks outgoing media with.
        dscp: DscpSpec,
        /// Encoding tiers (highest last).
        tiers: Vec<MediaRef>,
    },
    /// The mini-TCP streaming server.
    TcpServer {
        /// Client node name.
        client: String,
        /// Media flow id.
        flow: u32,
        /// DSCP the server marks outgoing media with.
        dscp: DscpSpec,
        /// What it streams.
        media: MediaRef,
    },
    /// The buffer-driven ABR origin server (serves whatever ladder rung
    /// each segment request names, over one mini-TCP stream).
    AbrServer {
        /// Client node name.
        client: String,
        /// Media flow id.
        flow: u32,
        /// DSCP the server marks outgoing media with.
        dscp: DscpSpec,
        /// Ladder of encoding rates, ascending, bps.
        rungs_bps: Vec<u64>,
        /// Segment duration, µs.
        segment_us: u64,
    },
    /// The buffer-driven ABR client: fetches segments over mini-TCP,
    /// choosing the ladder rung from buffer occupancy and measured
    /// throughput.
    AbrClient {
        /// Server node name.
        server: String,
        /// Flow id of client→server traffic (requests and ACKs).
        up_flow: u32,
        /// Ladder of encoding rates, ascending, bps (must match the
        /// server's).
        rungs_bps: Vec<u64>,
        /// Buffered µs required per ladder step.
        step_us: u64,
        /// Segment duration, µs.
        segment_us: u64,
        /// Segments in the session.
        segments: u32,
        /// Buffer high-water mark, µs.
        max_buffer_us: u64,
    },
    /// A greedy bulk TCP sender (the AF throughput-guarantee flows).
    BulkTcpSender {
        /// Sink node name.
        client: String,
        /// Flow id of the data segments.
        flow: u32,
        /// DSCP pre-marking of data segments.
        dscp: DscpSpec,
        /// Application bytes to transfer.
        total_bytes: u64,
    },
    /// The ACKing sink of a bulk TCP transfer.
    BulkTcpSink {
        /// Sender node name.
        server: String,
        /// Flow id of the ACK traffic.
        up_flow: u32,
    },
    /// The streaming client / playback model.
    StreamClient {
        /// Server node name.
        server: String,
        /// Flow id of client→server traffic.
        up_flow: u32,
        /// The clip it expects (frame count, kind function, and — for
        /// TCP — per-frame sizes come from this).
        media: MediaRef,
        /// Transport mode.
        transport: TransportSpec,
        /// Feedback-report interval, µs (UDP adaptive control loop).
        feedback_us: Option<u64>,
    },
    /// A bursty on/off background source.
    OnOffSource {
        /// Sink node name.
        dst: String,
        /// Flow id.
        flow: u32,
        /// Wire size of each packet, bytes.
        packet_size: u32,
        /// Peak (ON-state) rate, bps.
        peak_rate_bps: u64,
        /// Mean ON duration, µs.
        mean_on_us: u64,
        /// Mean OFF duration, µs.
        mean_off_us: u64,
        /// DSCP marking.
        dscp: DscpSpec,
        /// Stop offering traffic at this absolute time, µs.
        stop_at_us: u64,
        /// Label for the RNG fork deriving this source's stream from the
        /// scenario seed.
        rng_fork: u64,
    },
    /// A sink that counts what it receives.
    CountingSink,
    /// A constant-rate test source (the self-test chains' `Pump`).
    Pump {
        /// Sink node name.
        dst: String,
        /// Flow id.
        flow: u32,
        /// Packets to offer.
        count: u32,
        /// Wire size of each packet, bytes.
        size: u32,
        /// Inter-packet gap, ns.
        gap_ns: u64,
    },
    /// A sink recording delivered packet ids in arrival order.
    IdSink,
}

impl AppSpec {
    /// The one TCP streaming-server fragment every testbed shares: the
    /// figure builders and the smoothing sweep construct their server
    /// through this, so the configuration (and the pacing lead baked into
    /// the compiled `TcpServerConfig`) cannot drift between them.
    pub fn tcp_server(client: &str, flow: u32, dscp: DscpSpec, media: MediaRef) -> AppSpec {
        AppSpec::TcpServer {
            client: client.to_string(),
            flow,
            dscp,
            media,
        }
    }

    /// The one node the application sends to (the field it is built
    /// with), or `None` for a sink, which sends nothing.
    pub fn peer(&self) -> Option<&str> {
        match self {
            AppSpec::PacedServer { client, .. }
            | AppSpec::BurstyServer { client, .. }
            | AppSpec::MultiRatePacedServer { client, .. }
            | AppSpec::AdaptiveServer { client, .. }
            | AppSpec::TcpServer { client, .. }
            | AppSpec::AbrServer { client, .. }
            | AppSpec::BulkTcpSender { client, .. } => Some(client),
            AppSpec::StreamClient { server, .. }
            | AppSpec::AbrClient { server, .. }
            | AppSpec::BulkTcpSink { server, .. } => Some(server),
            AppSpec::OnOffSource { dst, .. } | AppSpec::Pump { dst, .. } => Some(dst),
            AppSpec::CountingSink | AppSpec::IdSink => None,
        }
    }

    /// Every encoding the application names: what a server streams (each
    /// tier of a multi-rate or adaptive one) or a client expects.
    pub fn media(&self) -> &[MediaRef] {
        match self {
            AppSpec::PacedServer { media, .. }
            | AppSpec::BurstyServer { media, .. }
            | AppSpec::TcpServer { media, .. }
            | AppSpec::StreamClient { media, .. } => std::slice::from_ref(media),
            AppSpec::MultiRatePacedServer { tiers, .. } | AppSpec::AdaptiveServer { tiers, .. } => {
                tiers
            }
            _ => &[],
        }
    }
}

kind_tagged!(AppSpec, "app", {
    PacedServer = "paced_server" { client, flow, dscp, media },
    BurstyServer = "bursty_server" { client, flow, dscp, media, wait_for_play },
    MultiRatePacedServer = "multi_rate_paced_server" { client, flow, dscp, tiers, estimate_bps },
    AdaptiveServer = "adaptive_server" { client, flow, dscp, tiers },
    TcpServer = "tcp_server" { client, flow, dscp, media },
    AbrServer = "abr_server" { client, flow, dscp, rungs_bps, segment_us },
    AbrClient = "abr_client" {
        server, up_flow, rungs_bps, step_us, segment_us, segments, max_buffer_us
    },
    BulkTcpSender = "bulk_tcp_sender" { client, flow, dscp, total_bytes },
    BulkTcpSink = "bulk_tcp_sink" { server, up_flow },
    StreamClient = "stream_client" { server, up_flow, media, transport, feedback_us },
    OnOffSource = "on_off_source" {
        dst, flow, packet_size, peak_rate_bps, mean_on_us, mean_off_us, dscp, stop_at_us,
        rng_fork
    },
    CountingSink = "counting_sink" {},
    Pump = "pump" { dst, flow, count, size, gap_ns },
    IdSink = "id_sink" {},
});

/// One node. Hosts carry an application; routers carry `None`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NodeSpec {
    /// Unique node name; every other part of the spec refers to it.
    pub name: String,
    /// The application, or `None` for a router.
    pub app: Option<AppSpec>,
}

impl NodeSpec {
    /// A router node.
    pub fn router(name: &str) -> NodeSpec {
        NodeSpec {
            name: name.to_string(),
            app: None,
        }
    }

    /// A host node running `app`.
    pub fn host(name: &str, app: AppSpec) -> NodeSpec {
        NodeSpec {
            name: name.to_string(),
            app: Some(app),
        }
    }
}

/// Per-direction physical link parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LinkParams {
    /// Serialization rate, bps.
    pub rate_bps: u64,
    /// Propagation delay, ns.
    pub propagation_ns: u64,
}

impl LinkParams {
    /// From a `dsv-net` link.
    pub fn from_link(l: dsv_net::link::Link) -> LinkParams {
        LinkParams {
            rate_bps: l.rate_bps,
            propagation_ns: l.propagation.as_nanos(),
        }
    }

    /// 10 Mbps Ethernet (5 µs propagation).
    pub fn ethernet_10mbps() -> LinkParams {
        LinkParams::from_link(dsv_net::link::Link::ethernet_10mbps())
    }

    /// 100 Mbps Fast Ethernet (5 µs propagation).
    pub fn fast_ethernet() -> LinkParams {
        LinkParams::from_link(dsv_net::link::Link::fast_ethernet())
    }
}

/// Queue-limit pair; `None` means unbounded on that axis.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct LimitsSpec {
    /// Maximum queued packets.
    pub max_packets: Option<u64>,
    /// Maximum queued bytes.
    pub max_bytes: Option<u64>,
}

impl LimitsSpec {
    /// No limits at all.
    pub const UNBOUNDED: LimitsSpec = LimitsSpec {
        max_packets: None,
        max_bytes: None,
    };

    /// Packet-count limit only.
    pub fn packets(n: u64) -> LimitsSpec {
        LimitsSpec {
            max_packets: Some(n),
            max_bytes: None,
        }
    }

    /// Byte limit only.
    pub fn bytes(n: u64) -> LimitsSpec {
        LimitsSpec {
            max_packets: None,
            max_bytes: Some(n),
        }
    }
}

/// The queue discipline on one port.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum QdiscSpec {
    /// FIFO drop-tail.
    DropTail {
        /// Queue limits.
        limits: LimitsSpec,
    },
    /// Two-band strict priority with EF in the high band.
    StrictPriorityEf {
        /// Limits of the EF band.
        ef: LimitsSpec,
        /// Limits of the best-effort band.
        be: LimitsSpec,
    },
    /// Three-drop-precedence WRED (AF PHB default curves).
    Wred {
        /// Buffer capacity, bytes.
        capacity_bytes: u64,
        /// Seed of the WRED probability stream.
        seed: u64,
    },
}

kind_tagged!(QdiscSpec, "qdisc", {
    DropTail = "drop_tail" { limits },
    StrictPriorityEf = "strict_priority_ef" { ef, be },
    Wred = "wred" { capacity_bytes, seed },
});

/// One bidirectional connection between two named nodes.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinkSpec {
    /// First endpoint (direction `ab` leaves here).
    pub a: String,
    /// Second endpoint.
    pub b: String,
    /// Physical parameters of the a→b direction.
    pub ab: LinkParams,
    /// Physical parameters of the b→a direction.
    pub ba: LinkParams,
    /// Queue discipline on `a`'s port toward `b`.
    pub qdisc_ab: QdiscSpec,
    /// Queue discipline on `b`'s port toward `a`.
    pub qdisc_ba: QdiscSpec,
}

impl LinkSpec {
    /// A symmetric link with unbounded drop-tail queues (the default
    /// `NetworkBuilder::connect` behaviour).
    pub fn simple(a: &str, b: &str, params: LinkParams) -> LinkSpec {
        LinkSpec {
            a: a.to_string(),
            b: b.to_string(),
            ab: params,
            ba: params,
            qdisc_ab: QdiscSpec::DropTail {
                limits: LimitsSpec::UNBOUNDED,
            },
            qdisc_ba: QdiscSpec::DropTail {
                limits: LimitsSpec::UNBOUNDED,
            },
        }
    }

    /// A symmetric link with the same qdisc in both directions.
    pub fn symmetric(a: &str, b: &str, params: LinkParams, qdisc: QdiscSpec) -> LinkSpec {
        LinkSpec {
            a: a.to_string(),
            b: b.to_string(),
            ab: params,
            ba: params,
            qdisc_ab: qdisc,
            qdisc_ba: qdisc,
        }
    }
}

/// A packet-matching profile over node **names** (mirrors
/// `dsv_diffserv::classifier::MatchRule`; absent fields are wildcards).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MatchSpec {
    /// Match the originating host, by name.
    pub src: Option<String>,
    /// Match the destination host, by name.
    pub dst: Option<String>,
    /// Match the flow label.
    pub flow: Option<u32>,
    /// Match the current DSCP marking.
    pub dscp: Option<DscpSpec>,
    /// Match the transport tag.
    pub proto: Option<ProtoSpec>,
}

impl MatchSpec {
    /// Matches everything.
    pub const ANY: MatchSpec = MatchSpec {
        src: None,
        dst: None,
        flow: None,
        dscp: None,
        proto: None,
    };

    /// The paper's router-1 profile: source and destination host.
    pub fn src_dst(src: &str, dst: &str) -> MatchSpec {
        MatchSpec {
            src: Some(src.to_string()),
            dst: Some(dst.to_string()),
            ..MatchSpec::ANY
        }
    }

    /// Match one flow id.
    pub fn flow(flow: u32) -> MatchSpec {
        MatchSpec {
            flow: Some(flow),
            ..MatchSpec::ANY
        }
    }

    /// Match one DSCP marking.
    pub fn dscp(dscp: DscpSpec) -> MatchSpec {
        MatchSpec {
            dscp: Some(dscp),
            ..MatchSpec::ANY
        }
    }
}

/// What a conditioner does with a matched packet.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ActionSpec {
    /// Token-bucket police; non-conformant packets drop. `conform_mark`
    /// re-marks conformant packets (the paper's router-1 EF marking);
    /// `None` leaves the DSCP alone (Cisco CAR at the QBone border).
    Police {
        /// Token rate, bps.
        rate_bps: u64,
        /// Bucket depth, bytes.
        depth_bytes: u32,
        /// DSCP to set on conformant packets.
        conform_mark: Option<DscpSpec>,
    },
    /// Token-bucket shape (delay) with a bounded queue.
    Shape {
        /// Token rate, bps.
        rate_bps: u64,
        /// Bucket depth, bytes.
        depth_bytes: u32,
        /// Shaper queue bound, bytes.
        max_queue_bytes: u64,
    },
    /// srTCM-meter into an AF class (green/yellow/red).
    MeterAf {
        /// Committed information rate, bps.
        cir_bps: u64,
        /// Committed burst size, bytes.
        cbs_bytes: u32,
        /// Excess burst size, bytes.
        ebs_bytes: u32,
        /// AF class (1–4).
        class: u8,
    },
    /// trTCM-meter (two-rate, RFC 2698) into an AF class.
    MeterTrtcm {
        /// Peak information rate, bps.
        pir_bps: u64,
        /// Peak burst size, bytes.
        pbs_bytes: u32,
        /// Committed information rate, bps.
        cir_bps: u64,
        /// Committed burst size, bytes.
        cbs_bytes: u32,
        /// AF class (1–4).
        class: u8,
    },
    /// Set the DSCP.
    Mark {
        /// The new marking.
        dscp: DscpSpec,
    },
    /// Explicitly pass untouched.
    Pass,
}

kind_tagged!(ActionSpec, "action", {
    Police = "police" { rate_bps, depth_bytes, conform_mark },
    Shape = "shape" { rate_bps, depth_bytes, max_queue_bytes },
    MeterAf = "meter_af" { cir_bps, cbs_bytes, ebs_bytes, class },
    MeterTrtcm = "meter_trtcm" { pir_bps, pbs_bytes, cir_bps, cbs_bytes, class },
    Mark = "mark" { dscp },
    Pass = "pass" {},
});

/// One entry of a conditioner's policy table.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RuleSpec {
    /// What to match.
    pub matches: MatchSpec,
    /// What to do with matches.
    pub action: ActionSpec,
}

/// The traffic conditioner installed on one router.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ConditionerSpec {
    /// Router node name.
    pub node: String,
    /// Fault-tap name: fault plans address this conditioner by it. The
    /// compiler's tap hook wraps the built conditioner when set.
    pub tap: Option<String>,
    /// Policy table, first match wins.
    pub rules: Vec<RuleSpec>,
}

/// One conformance bound for the audit oracles (a measurement tap): flow
/// `flow` leaving `node` must conform to `(rate_bps, depth_bytes)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BoundSpec {
    /// Router node name.
    pub node: String,
    /// Flow id the bound applies to.
    pub flow: u32,
    /// Token rate of the bound, bps.
    pub rate_bps: u64,
    /// Bucket depth of the bound, bytes.
    pub depth_bytes: u32,
}

/// A complete scenario: everything the compiler needs to build a
/// `Network` plus run metadata (seed, horizon, measurement bounds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ScenarioSpec {
    /// Human-readable scenario name.
    pub name: String,
    /// Master seed; every stochastic app forks from it (see
    /// [`AppSpec::OnOffSource::rng_fork`]).
    pub seed: u64,
    /// All nodes. **Creation order is id order**: node `i` gets
    /// `NodeId(i)`.
    pub nodes: Vec<NodeSpec>,
    /// All links, in creation order (port order follows it).
    pub links: Vec<LinkSpec>,
    /// Conditioners to install on routers.
    pub conditioners: Vec<ConditionerSpec>,
    /// Audit conformance bounds.
    pub bounds: Vec<BoundSpec>,
    /// Run horizon from time zero, ns (`None`: run to quiescence).
    pub horizon_ns: Option<u64>,
}

impl ScenarioSpec {
    /// An empty scenario shell.
    pub fn new(name: &str, seed: u64) -> ScenarioSpec {
        ScenarioSpec {
            name: name.to_string(),
            seed,
            nodes: Vec::new(),
            links: Vec::new(),
            conditioners: Vec::new(),
            bounds: Vec::new(),
            horizon_ns: None,
        }
    }

    /// Canonical JSON of this spec — the string the runner's cache and
    /// any other content-addressing hashes. Field order is declaration
    /// order, so the bytes are stable across runs and platforms.
    pub fn canonical_json(&self) -> String {
        serde_json::to_string(self).expect("spec serializes")
    }
}

/// A reusable cross-traffic fragment: a counting sink and a bursty
/// on/off source attached to two (usually distinct) routers of an
/// existing topology. The same fragment serves the QBone backbone load,
/// the local testbed's pre-policer jitter source and the AF experiment's
/// colored background — cross-traffic is a property of a scenario, not
/// of one testbed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossTrafficSpec {
    /// Name for the sink node.
    pub sink_name: String,
    /// Name for the source node.
    pub src_name: String,
    /// Router the sink hangs off.
    pub sink_attach: String,
    /// Router the source hangs off.
    pub src_attach: String,
    /// Both access links.
    pub link: LinkParams,
    /// Flow id of the cross traffic.
    pub flow: u32,
    /// Wire size of each packet, bytes.
    pub packet_size: u32,
    /// Peak (ON-state) rate, bps.
    pub peak_rate_bps: u64,
    /// Mean ON duration, µs.
    pub mean_on_us: u64,
    /// Mean OFF duration, µs.
    pub mean_off_us: u64,
    /// Stop offering traffic at this absolute time, µs.
    pub stop_at_us: u64,
    /// RNG fork label.
    pub rng_fork: u64,
}

impl CrossTrafficSpec {
    /// Append this fragment's nodes and links to `spec` (sink first,
    /// then source — the order every legacy testbed used).
    pub fn attach(&self, spec: &mut ScenarioSpec) {
        spec.nodes
            .push(NodeSpec::host(&self.sink_name, AppSpec::CountingSink));
        spec.nodes.push(NodeSpec::host(
            &self.src_name,
            AppSpec::OnOffSource {
                dst: self.sink_name.clone(),
                flow: self.flow,
                packet_size: self.packet_size,
                peak_rate_bps: self.peak_rate_bps,
                mean_on_us: self.mean_on_us,
                mean_off_us: self.mean_off_us,
                dscp: DscpSpec::BestEffort,
                stop_at_us: self.stop_at_us,
                rng_fork: self.rng_fork,
            },
        ));
        spec.links.push(LinkSpec::simple(
            &self.sink_name,
            &self.sink_attach,
            self.link,
        ));
        spec.links.push(LinkSpec::simple(
            &self.src_name,
            &self.src_attach,
            self.link,
        ));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn chain_spec() -> ScenarioSpec {
        let mut s = ScenarioSpec::new("chain", 1);
        s.nodes.push(NodeSpec::host("rx", AppSpec::IdSink));
        s.nodes.push(NodeSpec::router("tap"));
        s.nodes.push(NodeSpec::host(
            "tx",
            AppSpec::Pump {
                dst: "rx".to_string(),
                flow: 1,
                count: 10,
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
                    rate_bps: 20_000_000,
                    depth_bytes: 4500,
                    conform_mark: None,
                },
            }],
        });
        s.bounds.push(BoundSpec {
            node: "tap".to_string(),
            flow: 1,
            rate_bps: 20_000_000,
            depth_bytes: 4500,
        });
        s
    }

    #[test]
    fn spec_round_trips_through_json() {
        let spec = chain_spec();
        let json = spec.canonical_json();
        let back: ScenarioSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(back.canonical_json(), json, "canonical form is a fixpoint");
    }

    #[test]
    fn canonical_json_is_stable() {
        // Two structurally identical specs produce identical bytes.
        assert_eq!(chain_spec().canonical_json(), chain_spec().canonical_json());
    }

    #[test]
    fn every_app_kind_round_trips() {
        let media = MediaRef {
            clip: ClipId2::Lost,
            codec: CodecSpec::Mpeg1,
            rate_bps: 1_500_000,
        };
        let apps = vec![
            AppSpec::PacedServer {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::EfQbone,
                media,
            },
            AppSpec::BurstyServer {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::Ef,
                media,
                wait_for_play: true,
            },
            AppSpec::MultiRatePacedServer {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::EfQbone,
                tiers: vec![media],
                estimate_bps: 1_300_000,
            },
            AppSpec::AdaptiveServer {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::BestEffort,
                tiers: vec![media],
            },
            AppSpec::TcpServer {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::BestEffort,
                media,
            },
            AppSpec::AbrServer {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::BestEffort,
                rungs_bps: vec![300_000, 700_000, 1_500_000],
                segment_us: 2_000_000,
            },
            AppSpec::AbrClient {
                server: "s".into(),
                up_flow: 2,
                rungs_bps: vec![300_000, 700_000, 1_500_000],
                step_us: 4_000_000,
                segment_us: 2_000_000,
                segments: 30,
                max_buffer_us: 16_000_000,
            },
            AppSpec::BulkTcpSender {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::BestEffort,
                total_bytes: 10_000_000,
            },
            AppSpec::BulkTcpSink {
                server: "s".into(),
                up_flow: 2,
            },
            AppSpec::StreamClient {
                server: "s".into(),
                up_flow: 2,
                media,
                transport: TransportSpec::Tcp,
                feedback_us: Some(1_000_000),
            },
            AppSpec::OnOffSource {
                dst: "sink".into(),
                flow: 100,
                packet_size: 1000,
                peak_rate_bps: 30_000_000,
                mean_on_us: 200_000,
                mean_off_us: 200_000,
                dscp: DscpSpec::BestEffort,
                stop_at_us: 200_000_000,
                rng_fork: 1,
            },
            AppSpec::CountingSink,
            AppSpec::Pump {
                dst: "rx".into(),
                flow: 1,
                count: 200,
                size: 1500,
                gap_ns: 1_000_000,
            },
            AppSpec::IdSink,
        ];
        for app in apps {
            let v = app.to_value();
            let back = AppSpec::from_value(&v).expect("round trip");
            assert_eq!(back, app);
        }
    }

    #[test]
    fn every_action_kind_round_trips() {
        let actions = vec![
            ActionSpec::Police {
                rate_bps: 1,
                depth_bytes: 2,
                conform_mark: Some(DscpSpec::Ef),
            },
            ActionSpec::Shape {
                rate_bps: 1,
                depth_bytes: 2,
                max_queue_bytes: 3,
            },
            ActionSpec::MeterAf {
                cir_bps: 1,
                cbs_bytes: 2,
                ebs_bytes: 3,
                class: 1,
            },
            ActionSpec::MeterTrtcm {
                pir_bps: 4,
                pbs_bytes: 3,
                cir_bps: 2,
                cbs_bytes: 1,
                class: 2,
            },
            ActionSpec::Mark {
                dscp: DscpSpec::BestEffort,
            },
            ActionSpec::Pass,
        ];
        for a in actions {
            assert_eq!(ActionSpec::from_value(&a.to_value()).unwrap(), a);
        }
        let unknown = serde_json::parse_value(r#"{"kind":"teleport"}"#).unwrap();
        for (err, what) in [
            (AppSpec::from_value(&unknown).unwrap_err(), "app"),
            (QdiscSpec::from_value(&unknown).unwrap_err(), "qdisc"),
            (ActionSpec::from_value(&unknown).unwrap_err(), "action"),
        ] {
            let expected = format!("serde error: unknown {what} kind `teleport`");
            assert_eq!(err.to_string(), expected);
        }
    }

    /// One spec declaring every hand-serialized variant (14 apps, 3
    /// qdiscs, 6 actions), each `Option` field once `Some` and once
    /// `None`.
    fn every_variant_spec() -> ScenarioSpec {
        let media = MediaRef {
            clip: ClipId2::Dark,
            codec: CodecSpec::Wmv,
            rate_bps: 700_000,
        };
        let mut s = ScenarioSpec::new("every \"variant\"", 3);
        let apps = [
            AppSpec::PacedServer {
                client: "c".into(),
                flow: 1,
                dscp: DscpSpec::EfQbone,
                media,
            },
            AppSpec::BurstyServer {
                client: "c".into(),
                flow: 2,
                dscp: DscpSpec::Ef,
                media,
                wait_for_play: false,
            },
            AppSpec::MultiRatePacedServer {
                client: "c".into(),
                flow: 3,
                dscp: DscpSpec::BestEffort,
                tiers: vec![media, media],
                estimate_bps: 1_300_000,
            },
            AppSpec::AdaptiveServer {
                client: "c".into(),
                flow: 4,
                dscp: DscpSpec::Ef,
                tiers: Vec::new(),
            },
            AppSpec::TcpServer {
                client: "c".into(),
                flow: 5,
                dscp: DscpSpec::BestEffort,
                media,
            },
            AppSpec::AbrServer {
                client: "c".into(),
                flow: 6,
                dscp: DscpSpec::EfQbone,
                rungs_bps: vec![300_000, 1_500_000],
                segment_us: 2_000_000,
            },
            AppSpec::AbrClient {
                server: "s".into(),
                up_flow: 7,
                rungs_bps: Vec::new(),
                step_us: 4_000_000,
                segment_us: 2_000_000,
                segments: 30,
                max_buffer_us: 16_000_000,
            },
            AppSpec::BulkTcpSender {
                client: "c".into(),
                flow: 8,
                dscp: DscpSpec::Ef,
                total_bytes: u64::MAX,
            },
            AppSpec::BulkTcpSink {
                server: "s".into(),
                up_flow: 9,
            },
            AppSpec::StreamClient {
                server: "s".into(),
                up_flow: 10,
                media,
                transport: TransportSpec::Udp,
                feedback_us: Some(1_000_000),
            },
            AppSpec::StreamClient {
                server: "s".into(),
                up_flow: 11,
                media,
                transport: TransportSpec::Tcp,
                feedback_us: None,
            },
            AppSpec::OnOffSource {
                dst: "sink".into(),
                flow: 12,
                packet_size: 1000,
                peak_rate_bps: 30_000_000,
                mean_on_us: 200_000,
                mean_off_us: 0,
                dscp: DscpSpec::BestEffort,
                stop_at_us: 200_000_000,
                rng_fork: 17,
            },
            AppSpec::CountingSink,
            AppSpec::Pump {
                dst: "rx".into(),
                flow: 13,
                count: 200,
                size: 1500,
                gap_ns: 1_000_000,
            },
            AppSpec::IdSink,
        ];
        for (i, app) in apps.into_iter().enumerate() {
            s.nodes.push(NodeSpec::host(&format!("h{i}"), app));
        }
        s.nodes.push(NodeSpec::router("r"));
        let link = LinkParams::fast_ethernet();
        let qdiscs = [
            QdiscSpec::DropTail {
                limits: LimitsSpec::UNBOUNDED,
            },
            QdiscSpec::StrictPriorityEf {
                ef: LimitsSpec::packets(10),
                be: LimitsSpec::bytes(64_000),
            },
            QdiscSpec::Wred {
                capacity_bytes: 120_000,
                seed: 5,
            },
        ];
        for (i, q) in qdiscs.into_iter().enumerate() {
            s.links
                .push(LinkSpec::symmetric(&format!("h{i}"), "r", link, q));
        }
        let actions = [
            ActionSpec::Police {
                rate_bps: 1_000_000,
                depth_bytes: 3000,
                conform_mark: Some(DscpSpec::Ef),
            },
            ActionSpec::Police {
                rate_bps: 2_000_000,
                depth_bytes: 4500,
                conform_mark: None,
            },
            ActionSpec::Shape {
                rate_bps: 1_500_000,
                depth_bytes: 1500,
                max_queue_bytes: 30_000,
            },
            ActionSpec::MeterAf {
                cir_bps: 1_000_000,
                cbs_bytes: 3000,
                ebs_bytes: 6000,
                class: 1,
            },
            ActionSpec::MeterTrtcm {
                pir_bps: 2_000_000,
                pbs_bytes: 6000,
                cir_bps: 1_000_000,
                cbs_bytes: 3000,
                class: 4,
            },
            ActionSpec::Mark {
                dscp: DscpSpec::EfQbone,
            },
            ActionSpec::Pass,
        ];
        s.conditioners.push(ConditionerSpec {
            node: "r".into(),
            tap: Some("ingress".into()),
            rules: actions
                .into_iter()
                .enumerate()
                .map(|(i, action)| RuleSpec {
                    matches: if i == 0 {
                        MatchSpec {
                            proto: Some(ProtoSpec::Udp),
                            ..MatchSpec::src_dst("h0", "h1")
                        }
                    } else {
                        MatchSpec::flow(i as u32)
                    },
                    action,
                })
                .collect(),
        });
        s.horizon_ns = Some(5_000_000_000);
        s
    }

    #[test]
    fn every_hand_serialized_variant_has_pinned_bytes() {
        // The data-carrying enums serialize through `kind_tagged!`; these
        // bytes feed every cache address, so they may never drift. The
        // value tree must print the same bytes as the streamed spec.
        let spec = every_variant_spec();
        let json = spec.canonical_json();
        assert_eq!(serde_json::to_string(&spec.to_value()).unwrap(), json);
        let back: ScenarioSpec = serde_json::from_str(&json).expect("parses");
        assert_eq!(back, spec);
        assert_eq!(
            json,
            concat!(
                r#"{"name":"every \"variant\"","seed":3,"nodes":["#,
                r#"{"name":"h0","app":{"kind":"paced_server","client":"c","flow":1,"#,
                r#""dscp":"EfQbone","#,
                r#""media":{"clip":"Dark","codec":"Wmv","rate_bps":700000}}},"#,
                r#"{"name":"h1","app":{"kind":"bursty_server","client":"c","flow":2,"dscp":"Ef","#,
                r#""media":{"clip":"Dark","codec":"Wmv","rate_bps":700000},"#,
                r#""wait_for_play":false}},"#,
                r#"{"name":"h2","app":{"kind":"multi_rate_paced_server","client":"c","flow":3,"#,
                r#""dscp":"BestEffort","#,
                r#""tiers":[{"clip":"Dark","codec":"Wmv","rate_bps":700000},{"clip":"Dark","#,
                r#""codec":"Wmv","rate_bps":700000}],"estimate_bps":1300000}},"#,
                r#"{"name":"h3","app":{"kind":"adaptive_server","client":"c","flow":4,"#,
                r#""dscp":"Ef","#,
                r#""tiers":[]}},"#,
                r#"{"name":"h4","app":{"kind":"tcp_server","client":"c","flow":5,"#,
                r#""dscp":"BestEffort","#,
                r#""media":{"clip":"Dark","codec":"Wmv","rate_bps":700000}}},"#,
                r#"{"name":"h5","app":{"kind":"abr_server","client":"c","flow":6,"#,
                r#""dscp":"EfQbone","#,
                r#""rungs_bps":[300000,1500000],"segment_us":2000000}},"#,
                r#"{"name":"h6","app":{"kind":"abr_client","server":"s","up_flow":7,"#,
                r#""rungs_bps":[],"step_us":4000000,"segment_us":2000000,"segments":30,"#,
                r#""max_buffer_us":16000000}},"#,
                r#"{"name":"h7","app":{"kind":"bulk_tcp_sender","client":"c","flow":8,"#,
                r#""dscp":"Ef","total_bytes":18446744073709551615}},"#,
                r#"{"name":"h8","app":{"kind":"bulk_tcp_sink","server":"s","up_flow":9}},"#,
                r#"{"name":"h9","app":{"kind":"stream_client","server":"s","up_flow":10,"#,
                r#""media":{"clip":"Dark","codec":"Wmv","rate_bps":700000},"transport":"Udp","#,
                r#""feedback_us":1000000}},"#,
                r#"{"name":"h10","app":{"kind":"stream_client","server":"s","up_flow":11,"#,
                r#""media":{"clip":"Dark","codec":"Wmv","rate_bps":700000},"transport":"Tcp","#,
                r#""feedback_us":null}},"#,
                r#"{"name":"h11","app":{"kind":"on_off_source","dst":"sink","flow":12,"#,
                r#""packet_size":1000,"peak_rate_bps":30000000,"mean_on_us":200000,"#,
                r#""mean_off_us":0,"dscp":"BestEffort","stop_at_us":200000000,"rng_fork":17}},"#,
                r#"{"name":"h12","app":{"kind":"counting_sink"}},"#,
                r#"{"name":"h13","app":{"kind":"pump","dst":"rx","flow":13,"count":200,"#,
                r#""size":1500,"gap_ns":1000000}},"#,
                r#"{"name":"h14","app":{"kind":"id_sink"}},"#,
                r#"{"name":"r","app":null}],"#,
                r#""links":["#,
                r#"{"a":"h0","b":"r","ab":{"rate_bps":100000000,"propagation_ns":5000},"#,
                r#""ba":{"rate_bps":100000000,"propagation_ns":5000},"#,
                r#""qdisc_ab":{"kind":"drop_tail","limits":{"max_packets":null,"#,
                r#""max_bytes":null}},"#,
                r#""qdisc_ba":{"kind":"drop_tail","limits":{"max_packets":null,"#,
                r#""max_bytes":null}}},"#,
                r#"{"a":"h1","b":"r","ab":{"rate_bps":100000000,"propagation_ns":5000},"#,
                r#""ba":{"rate_bps":100000000,"propagation_ns":5000},"#,
                r#""qdisc_ab":{"kind":"strict_priority_ef","ef":{"max_packets":10,"#,
                r#""max_bytes":null},"be":{"max_packets":null,"max_bytes":64000}},"#,
                r#""qdisc_ba":{"kind":"strict_priority_ef","ef":{"max_packets":10,"#,
                r#""max_bytes":null},"be":{"max_packets":null,"max_bytes":64000}}},"#,
                r#"{"a":"h2","b":"r","ab":{"rate_bps":100000000,"propagation_ns":5000},"#,
                r#""ba":{"rate_bps":100000000,"propagation_ns":5000},"#,
                r#""qdisc_ab":{"kind":"wred","capacity_bytes":120000,"seed":5},"#,
                r#""qdisc_ba":{"kind":"wred","capacity_bytes":120000,"seed":5}}],"#,
                r#""conditioners":[{"node":"r","tap":"ingress","rules":["#,
                r#"{"matches":{"src":"h0","dst":"h1","flow":null,"dscp":null,"proto":"Udp"},"#,
                r#""action":{"kind":"police","rate_bps":1000000,"depth_bytes":3000,"#,
                r#""conform_mark":"Ef"}},"#,
                r#"{"matches":{"src":null,"dst":null,"flow":1,"dscp":null,"proto":null},"#,
                r#""action":{"kind":"police","rate_bps":2000000,"depth_bytes":4500,"#,
                r#""conform_mark":null}},"#,
                r#"{"matches":{"src":null,"dst":null,"flow":2,"dscp":null,"proto":null},"#,
                r#""action":{"kind":"shape","rate_bps":1500000,"depth_bytes":1500,"#,
                r#""max_queue_bytes":30000}},"#,
                r#"{"matches":{"src":null,"dst":null,"flow":3,"dscp":null,"proto":null},"#,
                r#""action":{"kind":"meter_af","cir_bps":1000000,"cbs_bytes":3000,"#,
                r#""ebs_bytes":6000,"class":1}},"#,
                r#"{"matches":{"src":null,"dst":null,"flow":4,"dscp":null,"proto":null},"#,
                r#""action":{"kind":"meter_trtcm","pir_bps":2000000,"pbs_bytes":6000,"#,
                r#""cir_bps":1000000,"cbs_bytes":3000,"class":4}},"#,
                r#"{"matches":{"src":null,"dst":null,"flow":5,"dscp":null,"proto":null},"#,
                r#""action":{"kind":"mark","dscp":"EfQbone"}},"#,
                r#"{"matches":{"src":null,"dst":null,"flow":6,"dscp":null,"proto":null},"#,
                r#""action":{"kind":"pass"}}]}],"#,
                r#""bounds":[],"horizon_ns":5000000000}"#,
            )
        );
    }

    #[test]
    fn cross_traffic_fragment_appends_nodes_and_links() {
        let mut spec = chain_spec();
        let n = spec.nodes.len();
        CrossTrafficSpec {
            sink_name: "ct-sink".into(),
            src_name: "ct-src".into(),
            sink_attach: "tap".into(),
            src_attach: "tap".into(),
            link: LinkParams::fast_ethernet(),
            flow: 100,
            packet_size: 1000,
            peak_rate_bps: 30_000_000,
            mean_on_us: 200_000,
            mean_off_us: 200_000,
            stop_at_us: 200_000_000,
            rng_fork: 1,
        }
        .attach(&mut spec);
        assert_eq!(spec.nodes.len(), n + 2);
        assert_eq!(spec.nodes[n].name, "ct-sink");
        assert!(matches!(
            spec.nodes[n + 1].app,
            Some(AppSpec::OnOffSource { .. })
        ));
    }
}
