//! The scenario executor: the one place a [`ScenarioSpec`] is compiled
//! and simulated.
//!
//! Every experiment is the same procedure — lower a spec, run it, read
//! what arrived — so every caller goes through [`execute`]: the six
//! testbed drivers, `dsv run` and the hop-jitter ablation. A testbed is
//! its `*_spec(cfg)` builder plus a projection from the returned
//! [`Execution`] to its outcome; the VQM-scored testbeds share the last
//! step of that projection, [`Execution::score_clients`].
//!
//! [`execute`] also owns the two cross-cutting concerns of a run:
//!
//! * **stage profiling** ([`crate::profile`]): the encodings and pacing
//!   plans the spec's media references pull from the artifact store count
//!   as the encode stage, the event loop as the simulate stage (with its
//!   event count and high-water marks);
//! * **the audit** (under `DSV_AUDIT=1`, read once per process): the
//!   network runs audited ([`dsv_net::network::Network::audited`]), the
//!   spec's bounds are registered before the run, the conservation
//!   equations are closed after it, and any violation panics with the
//!   full list. [`execute_audited`] runs the same audited path and
//!   returns the report instead. Unaudited, the network's observer is
//!   `()`, so the run carries no audit code at all.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use dsv_media::encoder::EncodedClip;
use dsv_net::app::Handle;
use dsv_net::audit::AuditReport;
use dsv_net::network::{Network, Simulation};
use dsv_net::observer::Observer;
use dsv_net::packet::{DropReason, FlowId, NodeId};
use dsv_net::stats::NetStats;
use dsv_scenario::apps::IdSink;
use dsv_scenario::{
    compile, ClipId2, ClipStore, CodecSpec, CompileError, CompileOptions, ScenarioSpec,
};
use dsv_sim::engine::RunStats;
use dsv_sim::SimTime;
use dsv_stream::abr::AbrClient;
use dsv_stream::bulk::BulkTcpSink;
use dsv_stream::client::{ClientReport, StreamClient};
use dsv_stream::payload::StreamPayload;
use dsv_stream::server::adaptive::AdaptiveServer;
use dsv_stream::server::paced::PacingPlan;

use crate::artifacts::{self, ArtifactStore, Codec};
use crate::experiment::RunOutcome;
use crate::profile;

/// A finished scenario run: the network's flow counters, the compiled
/// handles by node name (each list in creation order), and the event
/// loop's run statistics.
pub struct Execution {
    /// Per-flow counters of the finished network.
    pub stats: NetStats,
    /// Stream clients.
    pub clients: Vec<(String, Handle<StreamClient>)>,
    /// Adaptive servers.
    pub adaptives: Vec<(String, Handle<AdaptiveServer>)>,
    /// ABR clients.
    pub abr_clients: Vec<(String, Handle<AbrClient>)>,
    /// Bulk TCP sinks.
    pub bulk_sinks: Vec<(String, Handle<BulkTcpSink>)>,
    /// Id-recording sinks.
    pub id_sinks: Vec<(String, Handle<IdSink>)>,
    /// Events dispatched and end time.
    pub run: RunStats,
}

/// The artifact store as the compiler's clip resolver, timing every
/// encoding and pacing plan it serves as the profile's encode stage.
struct TimedStore;

/// `f()`, timed as the encode stage.
fn timed_encode<T>(f: impl FnOnce() -> T) -> T {
    let t = Instant::now();
    let out = f();
    profile::add_encode(t.elapsed());
    out
}

impl ClipStore for TimedStore {
    fn encoding(&self, clip: ClipId2, codec: CodecSpec, rate_bps: u64) -> Arc<EncodedClip> {
        timed_encode(|| ArtifactStore.encoding(clip, codec, rate_bps))
    }

    fn paced_plan(&self, clip: ClipId2, codec: CodecSpec, rate_bps: u64) -> Arc<PacingPlan> {
        timed_encode(|| ArtifactStore.paced_plan(clip, codec, rate_bps))
    }
}

/// Compile `spec` through the artifact store and run it to its horizon,
/// or until no event remains when it declares none. The run is audited
/// when `DSV_AUDIT` is on.
///
/// # Panics
/// Under `DSV_AUDIT`, if any audit oracle fired during the run.
pub fn execute(spec: &ScenarioSpec) -> Result<Execution, CompileError> {
    if !audit_requested() {
        return Ok(run(spec, |net, _| net)?.0);
    }
    let (exec, report) = execute_audited(spec)?;
    report.assert_clean(&format!("scenario {:?}", spec.name));
    Ok(exec)
}

/// [`execute`], audited whatever `DSV_AUDIT` says: the spec's bounds are
/// registered before the run and the audit is closed after it. Returns
/// the audit's report rather than panicking on a violation.
pub fn execute_audited(spec: &ScenarioSpec) -> Result<(Execution, AuditReport), CompileError> {
    let (exec, mut net) = run(spec, |net, bounds| {
        let mut net = net.audited();
        for &(node, flow, rate_bps, depth_bytes) in bounds {
            net.audit_mut()
                .register_conformance_bound(node, flow, rate_bps, depth_bytes);
        }
        net
    })?;
    Ok((exec, net.audit_report()))
}

/// Whether `DSV_AUDIT` asks for every run to be audited, read once per
/// process.
fn audit_requested() -> bool {
    static AUDIT: OnceLock<bool> = OnceLock::new();
    *AUDIT.get_or_init(|| dsv_sim::env::flag_from_env("DSV_AUDIT").unwrap_or(false))
}

/// Bounds as the compiler resolves them: node, flow, rate, depth.
type Bounds = [(NodeId, FlowId, u64, u32)];

/// Compile `spec`, hand its network and bounds to `observe`, and run the
/// network it returns to the horizon, profiling the simulate stage.
/// Returns the execution and the finished network.
fn run<O: Observer>(
    spec: &ScenarioSpec,
    observe: impl FnOnce(Network<StreamPayload>, &Bounds) -> Network<StreamPayload, O>,
) -> Result<(Execution, Network<StreamPayload, O>), CompileError> {
    let compiled = compile(
        spec,
        CompileOptions {
            store: Some(&TimedStore),
            wrap: None,
        },
    )?;
    let mut sim = Simulation::new(observe(compiled.net, &compiled.bounds));

    let t = Instant::now();
    let run = sim.run_until(compiled.horizon.map_or(SimTime::MAX, |h| SimTime::ZERO + h));
    profile::add_simulate(t.elapsed(), run.dispatched);
    profile::record_high_water(sim.queue.high_water(), sim.net.pool_high_water());

    let exec = Execution {
        stats: std::mem::take(&mut sim.net.stats),
        clients: compiled.clients,
        adaptives: compiled.adaptives,
        abr_clients: compiled.abr_clients,
        bulk_sinks: compiled.bulk_sinks,
        id_sinks: compiled.id_sinks,
        run,
    };
    Ok((exec, sim.net))
}

/// The handle of the node called `name`.
///
/// # Panics
/// If no handle in `handles` has that name.
pub fn named<'a, T>(handles: &'a [(String, Handle<T>)], name: &str) -> &'a Handle<T> {
    handles
        .iter()
        .find(|(n, _)| n == name)
        .map(|(_, h)| h)
        .unwrap_or_else(|| panic!("the scenario has no node {name:?} of that kind"))
}

impl Execution {
    /// The VQM-scored testbeds' last step: read each named client's
    /// report and the counters of its media flow, then score every report
    /// against the clip's source and the `(codec, encoding_bps)`
    /// reference, and against the `best_bps` reference when given.
    /// Fetching the features counts as the encode stage and scoring as
    /// the score stage, one bracket each for all clients. The outcome's
    /// adaptive-server fields are left for the local testbed to fill.
    pub fn score_clients<S: AsRef<str>>(
        &self,
        clip: ClipId2,
        codec: Codec,
        encoding_bps: u64,
        best_bps: Option<u64>,
        clients: impl IntoIterator<Item = (S, FlowId)>,
    ) -> Vec<(RunOutcome, ClientReport)> {
        let read: Vec<_> = clients
            .into_iter()
            .map(|(name, flow)| {
                let report = named(&self.clients, name.as_ref()).borrow().report();
                (report, self.stats.flow(flow))
            })
            .collect();

        let (source, reference, best) = timed_encode(|| {
            (
                artifacts::source_features(clip.into()),
                artifacts::reference_features(clip.into(), codec, encoding_bps),
                best_bps.map(|bps| artifacts::reference_features(clip.into(), codec, bps)),
            )
        });

        let t = Instant::now();
        let scored = read
            .into_iter()
            .map(|(report, media)| {
                let score =
                    crate::qoe::score_session(&source, &reference, &report, best.as_deref());
                let shaper_drops = media.drops_for(DropReason::ShaperOverflow);
                let outcome = RunOutcome::assemble(&report, &media, &score, shaper_drops, 0, false);
                (outcome, report)
            })
            .collect();
        profile::add_score(t.elapsed());
        scored
    }
}
