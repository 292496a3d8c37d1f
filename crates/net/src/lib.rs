//! # dsv-net — the packet network substrate
//!
//! Deterministic store-and-forward packet network built on the
//! [`dsv_sim`] event engine: packets, links, queueing disciplines, routers
//! with ingress-conditioning hooks, host applications, cross-traffic
//! generators and measurement.
//!
//! This crate reproduces the *plumbing* of the paper's two testbeds — the
//! three-router Frame-Relay local testbed and the multi-hop QBone path —
//! while knowing nothing about Diff-Serv semantics (see `dsv-diffserv`) or
//! video (see `dsv-media` / `dsv-stream`). The split mirrors the Diff-Serv
//! architecture itself: forwarding and scheduling here, conditioning policy
//! above.
//!
//! ## Quick tour
//!
//! ```
//! use dsv_net::prelude::*;
//! use dsv_sim::{SimDuration, SimTime};
//!
//! // Build: source host — router — sink host, 2 Mbps bottleneck.
//! // (The payload type is `()` here; `dsv-stream` uses its own.)
//! let mut b = NetworkBuilder::<()>::new();
//! let sink = b.add_host("sink", Box::new(CountingSink::default()));
//! let r = b.add_router("r1");
//! let src = b.add_host("src", Box::new(CbrSource {
//!     dst: sink,
//!     flow: FlowId(1),
//!     packet_size: 1500,
//!     rate_bps: 1_000_000,
//!     dscp: Dscp::BEST_EFFORT,
//!     stop_at: SimTime::from_secs(1),
//! }));
//! b.connect(src, r, Link::ethernet_10mbps());
//! b.connect(r, sink, Link::new(2_000_000, SimDuration::from_micros(500)));
//!
//! let mut sim = Simulation::new(b.build());
//! sim.run();
//! let stats = sim.net.stats.flow(FlowId(1));
//! assert_eq!(stats.tx_packets, stats.rx_packets);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod app;
pub mod audit;
pub mod conditioner;
pub mod frame_relay;
pub mod histogram;
pub mod link;
pub mod network;
pub mod observer;
pub mod packet;
pub mod pool;
pub mod qdisc;
pub mod stats;
pub mod traffic;
pub mod wred;

/// Convenient re-exports of the names almost every user needs.
pub mod prelude {
    pub use crate::app::{AppCtx, Application, Handle, NullApp, SendSpec, Shared};
    pub use crate::conditioner::{
        ConditionOutcome, Conditioner, PassThrough, QuickVerdict, Released,
    };
    pub use crate::frame_relay::{FrInterfaceType, FrameRelayProfile};
    pub use crate::histogram::DurationHistogram;
    pub use crate::link::Link;
    pub use crate::network::{NetEvent, Network, NetworkBuilder, Simulation};
    pub use crate::observer::Observer;
    pub use crate::packet::{
        DropReason, Dscp, FlowId, FragmentInfo, NodeId, Packet, PacketId, PortId, Proto,
        ETHERNET_MTU,
    };
    pub use crate::pool::{PacketPool, PacketRef};
    pub use crate::qdisc::{
        ef_high_priority, DropTailQueue, FifoBand, Qdisc, QueueLimits, StrictPriorityQueue,
    };
    pub use crate::stats::{DelaySummary, FlowCounters, NetStats, TraceEntry, TraceKind};
    pub use crate::traffic::{CbrSource, CountingSink, OnOffSource};
    pub use crate::wred::{drop_precedence, WredParams, WredQueue};
}
