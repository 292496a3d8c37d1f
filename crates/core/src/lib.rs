//! # dsv-core — the experiment layer
//!
//! Reproduces the paper's study end-to-end: both testbeds (the QBone
//! wide-area path and the three-router Frame-Relay local testbed), the
//! token-rate × bucket-depth sweeps behind every figure, the VQM scoring
//! glue, and the curve analysis the paper's conclusions rest on.
//!
//! ## Quickstart
//!
//! ```no_run
//! use dsv_core::prelude::*;
//!
//! // Stream Lost @1.5 Mbps across the QBone with a 1.6 Mbps / 2-MTU
//! // EF profile and score the received video.
//! let cfg = QboneConfig::new(ClipId2::Lost, 1_500_000,
//!                            EfProfile::new(1_600_000, DEPTH_2MTU));
//! let out = run_qbone(&cfg);
//! println!("quality {:.3}, frame loss {:.2}%", out.quality,
//!          100.0 * out.frame_loss);
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod af;
pub mod af_tcp;
pub mod aggregate;
pub mod analysis;
pub mod artifacts;
pub mod executor;
pub mod experiment;
pub mod flows;
pub mod golden;
pub mod keys;
pub mod local;
pub mod profile;
pub mod qbone;
pub mod qoe;
pub mod report;
pub mod runner;
pub mod smoothing;
pub mod sweep;

pub use executor::{execute, execute_audited, Execution};

/// Convenient re-exports.
pub mod prelude {
    pub use crate::af::{run_af, AfConfig};
    pub use crate::af_tcp::{run_af_tcp, AfTcpConfig};
    pub use crate::aggregate::{run_aggregate, AggregateConfig, AggregateOutcome};
    pub use crate::analysis::{
        crossing_rate, cutoff_rate, max_quality_per_loss_slope, mostly_monotone_decreasing,
        quality_area,
    };
    pub use crate::experiment::{
        encoded_features, received_features_from, run_horizon, EfProfile, RunOutcome, DEPTH_2MTU,
        DEPTH_3MTU,
    };
    pub use crate::flows::{FlowOutcome, FlowsOutcome};
    pub use crate::golden::golden;
    pub use crate::local::{run_local, run_local_detailed, LocalConfig, LocalTransport};
    pub use crate::profile::ProfileSnapshot;
    pub use crate::qbone::{run_qbone, run_qbone_detailed, ClipId2, QboneConfig, QboneServer};
    pub use crate::qoe::score_session;
    pub use crate::report::{format_sweep, format_table, table4_summary};
    pub use crate::runner::{
        ClusterMode, ClusterPoint, FlowJob, GridJob, Job, PointSource, Runner,
    };
    pub use crate::smoothing::{run_smoothing, SmoothingConfig, SmoothingServer};
    pub use crate::sweep::{default_rate_grid, sweep_jobs, SweepPoint, SweepResult};
    pub use dsv_media::scene::ClipId;
}
