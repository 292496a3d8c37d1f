//! Encoder models: MPEG-1 CBR (QBone experiments) and WMV capped VBR
//! (local-testbed experiments).

pub mod mpeg1;
pub mod wmv;

pub use mpeg1::EncodedClip;

/// The lowest rate either encoder models, bps: an MPEG-1 CBR target or a
/// WMV bandwidth cap. Both encoders panic below it, and the scenario
/// compiler rejects a spec that asks for less.
pub const MIN_RATE_BPS: u64 = 100_000;
