//! # dsv-stream — streaming servers, clients and transports
//!
//! The application layer of the reproduction: the server transmission
//! disciplines the paper found decisive (paced / bursty / adaptive / TCP),
//! the instrumented client with the paper's storage-filter + concealment
//! pipeline, packetization (including large-datagram IP fragmentation),
//! and a Reno-style mini-TCP.
//!
//! The flow of a session:
//!
//! ```text
//!  server (paced|bursty|adaptive|tcp)         client
//!    read clip in real time  ──packets──►  reassembly (chunks/bytes)
//!    pacing / fragmentation               storage filter (arrival times)
//!    adaptation ◄──feedback──             decode deps -> playback model
//!                                          └──► ClientReport -> dsv-vqm
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod abr;
pub mod bulk;
pub mod client;
pub mod packetize;
pub mod payload;
pub mod playback;
pub mod server;
pub mod tcp;

/// The rule every rate ladder obeys — a multi-rate server's tiers, an
/// adaptive server's, an ABR ladder: at least one rate, in ascending
/// order (equal neighbours allowed).
pub fn check_ladder(rates_bps: &[u64]) -> Result<(), &'static str> {
    if rates_bps.is_empty() {
        return Err("the ladder needs at least one rate");
    }
    if !rates_bps.windows(2).all(|w| w[0] <= w[1]) {
        return Err("the ladder must be sorted by rate, lowest first");
    }
    Ok(())
}

/// Convenient re-exports.
pub mod prelude {
    pub use crate::abr::{
        segment_bytes, AbrBuffer, AbrClient, AbrClientConfig, AbrPolicy, AbrReport, AbrServer,
        AbrServerConfig,
    };
    pub use crate::bulk::{BulkTcpConfig, BulkTcpSender, BulkTcpSink};
    pub use crate::client::{ClientConfig, ClientMode, ClientReport, StreamClient};
    pub use crate::packetize::{
        byte_ranges, chunks_for, frame_chunk, frame_chunks, frame_datagrams, ChunkSpec,
        LARGE_DATAGRAM_BYTES,
    };
    pub use crate::payload::{ControlMsg, FeedbackReport, MediaChunk, StreamPayload, TcpSegment};
    pub use crate::playback::{playback_schedule, PlaybackConfig, PlaybackResult};
    pub use crate::server::adaptive::{AdaptiveConfig, AdaptiveServer};
    pub use crate::server::bursty::{BurstyConfig, BurstyServer};
    pub use crate::server::paced::{multi_rate_tier, PacedConfig, PacedServer, PacingPlan};
    pub use crate::server::tcp_server::{TcpServerConfig, TcpStreamServer, TCP_READ_AHEAD};
    pub use crate::server::Pacer;
    pub use crate::tcp::{TcpReceiver, TcpSender, MSS};
}
