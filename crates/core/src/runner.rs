//! Parallel, cached, symmetry-clustered execution of experiment grids.
//!
//! Every figure in the paper's evaluation is a grid of independent
//! experiment runs (token rate × bucket depth, or a list of ablation
//! configurations). Each run is a *pure function of its configuration*:
//! all randomness is drawn from seeds stored in the config, so a point's
//! [`RunOutcome`] does not depend on which thread computed it or in which
//! order. The [`Runner`] exploits that three ways:
//!
//! * **Parallelism** — grid points fan out over a scoped thread pool
//!   (work-stealing by atomic index). Results land in per-point slots, so
//!   the output order is the input order and a parallel run is
//!   bit-identical to a serial one.
//! * **Caching** — each point is content-addressed by an FNV-1a hash of
//!   its kind tag and its **address**: the canonical (symmetry-normal,
//!   see [`dsv_scenario::canonicalize`]) JSON of its compiled scenario
//!   spec plus its scoring parameters (built in [`crate::keys`]), so any
//!   topology or profile change changes the address. Outcomes persist
//!   under `results/cache/`, so re-running `all_figures` (or any figure
//!   binary) skips every already-computed point. A config change —
//!   different rate, depth, seed, clip, horizon — changes the hash and
//!   misses the cache; the stored address is compared byte-for-byte on
//!   load to guard against hash collisions and stale schema.
//! * **Addressing once** — a batch computes each point's address (and,
//!   for per-flow outcomes, its canonical flow-rank map) exactly once,
//!   in a pre-pass on the calling thread, and every later stage — class
//!   partition, cache lookup, cache store, transplant — reuses it. The
//!   pre-pass is deliberately serial: fanned over the worker pool it ran
//!   the all-cached `warm_replay` benchmark workload faster on two cores,
//!   but raised `aggregate_rotation`'s peak RSS by about a fifth, past
//!   the benchmark's memory bound (allocator arenas of the extra threads,
//!   gone under `MALLOC_ARENA_MAX=1`).
//! * **Clustering** — before simulating, the grid is partitioned into
//!   equivalence classes by the very same canonical address. In `exact`
//!   mode (the default) only one representative per class is simulated
//!   and every other member's outcome is transplanted from it — sound
//!   because equal canonical forms mean the specs are relabellings of
//!   one another and the engine's dynamics are label-blind (validated by
//!   `aggregate::tests::rotated_declarations_permute_per_flow_outcomes_exactly`).
//!   Aggregate outcomes transplant through per-flow canonical-rank maps
//!   ([`crate::aggregate::media_flow_ranks`]); single-stream outcomes are
//!   flow-agnostic and transplant by clone. Each point's [`PointSource`]
//!   records which of these served it.
//!
//! The cache deliberately does **not** hash the simulator code itself:
//! after changing simulation behaviour, delete `results/cache/` (or run
//! with `DSV_CACHE=0`) to force cold recomputation.
//!
//! Environment knobs (read by [`Runner::from_env`]):
//!
//! | variable       | effect                                              |
//! |----------------|-----------------------------------------------------|
//! | `DSV_THREADS`  | worker count (`1` = serial; default: all cores; `0`/garbage warn on stderr and use the default) |
//! | `DSV_CACHE`    | `0`/`off` disables; a path overrides the cache dir  |
//! | `DSV_PROGRESS` | a flag (`1`/`true`/`on` or `0`/`false`/`off`) forcing the progress meter on/off (default: on when stderr is a TTY) |
//! | `DSV_CLUSTER`  | `off` disables clustering; `exact` (default) merges provably symmetric points |

use std::collections::HashMap;
use std::fs;
use std::io::{IsTerminal, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use serde::{Deserialize, Serialize, Value};

use crate::af::{af_spec, run_af, AfConfig};
use crate::af_tcp::{af_tcp_spec, run_af_tcp, AfTcpConfig};
use crate::aggregate::{
    aggregate_spec, from_canonical_order, media_flow_ranks, run_aggregate, to_canonical_order,
    AggregateConfig, AggregateOutcome,
};
use crate::experiment::{EfProfile, RunOutcome};
use crate::flows::{flows_from_canonical_order, flows_to_canonical_order, FlowsOutcome};
use crate::keys;
use crate::local::{local_spec, run_local, LocalConfig};
use crate::profile;
use crate::qbone::{qbone_spec, run_qbone, QboneConfig};
use crate::smoothing::{run_smoothing, smoothing_spec, SmoothingConfig};
use crate::sweep::{SweepPoint, SweepResult};
use dsv_scenario::{canonicalize, ScenarioSpec};

/// One unit of grid work: a fully specified experiment configuration.
#[derive(Debug, Clone)]
pub enum Job {
    /// A QBone wide-area run.
    Qbone(QboneConfig),
    /// A local Frame-Relay testbed run.
    Local(LocalConfig),
    /// An AF PHB run.
    Af(AfConfig),
}

impl Job {
    /// Short tag naming the testbed; part of the cache key.
    pub fn kind(&self) -> &'static str {
        match self {
            Job::Qbone(_) => "qbone",
            Job::Local(_) => "local",
            Job::Af(_) => "af",
        }
    }

    /// Canonical JSON of the configuration (the golden checksums hash
    /// this; see [`crate::golden`]).
    pub(crate) fn config_json(&self) -> String {
        match self {
            Job::Qbone(cfg) => serde_json::to_string(cfg),
            Job::Local(cfg) => serde_json::to_string(cfg),
            Job::Af(cfg) => serde_json::to_string(cfg),
        }
        .expect("config serializes")
    }

    /// The job's compiled scenario spec and the scoring parameters that
    /// shape the outcome but live outside the topology — together, the
    /// full semantic identity of the point.
    pub(crate) fn spec_scoring(&self) -> (ScenarioSpec, Value) {
        match self {
            Job::Qbone(cfg) => (
                qbone_spec(cfg),
                Value::Object(vec![
                    ("clip".to_string(), cfg.clip.to_value()),
                    ("encoding_bps".to_string(), cfg.encoding_bps.to_value()),
                    ("score_vs_best".to_string(), cfg.score_vs_best.to_value()),
                ]),
            ),
            Job::Local(cfg) => (
                local_spec(cfg),
                Value::Object(vec![
                    ("clip".to_string(), cfg.clip.to_value()),
                    ("cap_bps".to_string(), cfg.cap_bps.to_value()),
                ]),
            ),
            Job::Af(cfg) => (
                af_spec(cfg),
                Value::Object(vec![
                    ("clip".to_string(), cfg.clip.to_value()),
                    ("encoding_bps".to_string(), cfg.encoding_bps.to_value()),
                ]),
            ),
        }
    }
}

impl GridJob for Job {
    type Outcome = RunOutcome;

    fn address(&self) -> Address {
        let (spec, scoring) = self.spec_scoring();
        Address::new(self.kind(), &spec, scoring, 0)
    }

    fn execute(&self) -> RunOutcome {
        match self {
            Job::Qbone(cfg) => run_qbone(cfg),
            Job::Local(cfg) => run_local(cfg),
            Job::Af(cfg) => run_af(cfg),
        }
    }
}

/// One unit of transport-level grid work: an experiment reporting
/// per-flow [`FlowsOutcome`]s instead of a VQM-scored [`RunOutcome`].
/// Runs through the same thread pool, persistent cache and exact-cluster
/// pre-pass as [`Job`] grids.
#[derive(Debug, Clone)]
pub enum FlowJob {
    /// A TCP-smoothing run on the QBone path (one media flow).
    Smoothing(SmoothingConfig),
    /// An AF-TCP rate-guarantee run (N bulk flows).
    AfTcp(AfTcpConfig),
}

impl FlowJob {
    /// Short tag naming the experiment; part of the cache key.
    pub fn kind(&self) -> &'static str {
        match self {
            FlowJob::Smoothing(_) => "smoothing",
            FlowJob::AfTcp(_) => "af_tcp",
        }
    }

    /// Canonical JSON of the configuration (the golden checksums hash
    /// this; see [`crate::golden::golden_flows`]).
    pub(crate) fn config_json(&self) -> String {
        match self {
            FlowJob::Smoothing(cfg) => serde_json::to_string(cfg),
            FlowJob::AfTcp(cfg) => serde_json::to_string(cfg),
        }
        .expect("config serializes")
    }
}

impl GridJob for FlowJob {
    type Outcome = FlowsOutcome;

    fn address(&self) -> Address {
        match self {
            FlowJob::Smoothing(cfg) => Address::new(
                self.kind(),
                &smoothing_spec(cfg),
                Value::Object(vec![
                    ("clip".to_string(), cfg.clip.to_value()),
                    ("encoding_bps".to_string(), cfg.encoding_bps.to_value()),
                ]),
                1,
            ),
            FlowJob::AfTcp(cfg) => Address::new(
                self.kind(),
                &af_tcp_spec(cfg),
                Value::Object(Vec::new()),
                cfg.flows(),
            ),
        }
    }

    fn execute(&self) -> FlowsOutcome {
        match self {
            FlowJob::Smoothing(cfg) => run_smoothing(cfg),
            FlowJob::AfTcp(cfg) => run_af_tcp(cfg),
        }
    }
}

impl GridJob for AggregateConfig {
    type Outcome = AggregateOutcome;

    fn address(&self) -> Address {
        let scoring = Value::Object(vec![
            ("clip".to_string(), self.clip.to_value()),
            ("encoding_bps".to_string(), self.encoding_bps.to_value()),
        ]);
        Address::new("aggregate", &aggregate_spec(self), scoring, self.flows)
    }

    fn execute(&self) -> AggregateOutcome {
        run_aggregate(self)
    }
}

/// A grid point's identity, computed once per batch: its kind tag, its
/// address (see [`crate::keys`]) and the canonical rank of each of its
/// media flows ([`media_flow_ranks`]; empty for flow-agnostic outcomes).
/// Two points are one exact-cluster class iff kind and address match.
struct Address {
    kind: &'static str,
    json: String,
    ranks: Vec<usize>,
}

impl Address {
    /// Canonicalize `spec` once and derive both the address and the rank
    /// map of its first `flows` media flows from the result.
    fn new(kind: &'static str, spec: &ScenarioSpec, scoring: Value, flows: u32) -> Address {
        let canon = canonicalize(spec);
        Address {
            kind,
            ranks: media_flow_ranks(&canon, flows),
            json: keys::address_json(&canon.spec, &scoring),
        }
    }
}

/// One kind of grid work. The runner's single pipeline — address,
/// cluster, cache lookup-and-store, transplant — is written once over
/// this trait; [`Job`], [`AggregateConfig`] and [`FlowJob`] plug in.
trait GridJob: Sync {
    /// What one run produces.
    type Outcome: GridOutcome;
    /// The point's identity (the pre-pass calls this once per point).
    fn address(&self) -> Address;
    /// Run the experiment this job describes.
    fn execute(&self) -> Self::Outcome;
}

/// The outcome of a [`GridJob`], as the pipeline handles it.
trait GridOutcome: Clone + Send + Sync + Serialize + Deserialize {
    /// Drop counters `(policer, queue, shaper)` for the progress line.
    fn drops(&self) -> (u64, u64, u64);
    /// This outcome in canonical flow order (the order cache entries are
    /// stored in), given its point's rank map.
    fn to_canonical(&self, ranks: &[usize]) -> Self;
    /// A canonical-order outcome back in the flow order of the point with
    /// rank map `ranks`; `None` if the flow counts disagree (a stale
    /// entry shape — the address fixes the count, so never in practice).
    fn to_label_order(&self, ranks: &[usize]) -> Option<Self>;
}

/// Single-stream outcomes are flow-agnostic: they transplant by clone.
impl GridOutcome for RunOutcome {
    fn drops(&self) -> (u64, u64, u64) {
        (self.policer_drops, self.queue_drops, self.shaper_drops)
    }

    fn to_canonical(&self, _ranks: &[usize]) -> RunOutcome {
        self.clone()
    }

    fn to_label_order(&self, _ranks: &[usize]) -> Option<RunOutcome> {
        Some(self.clone())
    }
}

impl GridOutcome for AggregateOutcome {
    fn drops(&self) -> (u64, u64, u64) {
        (
            self.per_flow.iter().map(|f| f.policer_drops).sum(),
            self.per_flow.iter().map(|f| f.queue_drops).sum(),
            self.per_flow.iter().map(|f| f.shaper_drops).sum(),
        )
    }

    fn to_canonical(&self, ranks: &[usize]) -> AggregateOutcome {
        to_canonical_order(self, ranks)
    }

    fn to_label_order(&self, ranks: &[usize]) -> Option<AggregateOutcome> {
        (self.per_flow.len() == ranks.len()).then(|| from_canonical_order(self, ranks))
    }
}

impl GridOutcome for FlowsOutcome {
    fn drops(&self) -> (u64, u64, u64) {
        (
            self.per_flow.iter().map(|f| f.policer_drops).sum(),
            self.per_flow.iter().map(|f| f.queue_drops).sum(),
            0,
        )
    }

    fn to_canonical(&self, ranks: &[usize]) -> FlowsOutcome {
        flows_to_canonical_order(self, ranks)
    }

    fn to_label_order(&self, ranks: &[usize]) -> Option<FlowsOutcome> {
        (self.per_flow.len() == ranks.len()).then(|| flows_from_canonical_order(self, ranks))
    }
}

/// How the cluster layer treats a grid before simulating it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum ClusterMode {
    /// Simulate every point; the determinism reference.
    Off,
    /// Partition the grid by canonical spec identity and simulate one
    /// representative per class; members get transplanted outcomes.
    /// Byte-identical to [`ClusterMode::Off`] wherever symmetry is
    /// provable — which is the only time points merge.
    Exact,
}

/// Where a grid point's outcome came from.
#[derive(Debug, Clone)]
pub enum PointSource {
    /// Simulated in this batch.
    Simulated,
    /// Loaded from the persistent result cache.
    Cached,
    /// Transplanted from the simulated representative of this point's
    /// exact symmetry class (index into the batch's input order).
    Reused {
        /// Input index of the class representative.
        representative: usize,
    },
}

impl PointSource {
    /// True for outcomes an actual simulation (or its cached result)
    /// produced, false for transplants.
    pub fn is_direct(&self) -> bool {
        matches!(self, PointSource::Simulated | PointSource::Cached)
    }

    /// The source of a directly produced point.
    fn direct(cache_hit: bool) -> PointSource {
        if cache_hit {
            PointSource::Cached
        } else {
            PointSource::Simulated
        }
    }
}

impl PointSource {
    /// The `"kind"` tag and the fields, in serialized order: the one list
    /// both serde methods read.
    fn fields<R>(&self, emit: impl FnOnce(&[serde::Field<'_>]) -> R) -> R {
        match self {
            PointSource::Simulated => emit(&[("kind", &"simulated")]),
            PointSource::Cached => emit(&[("kind", &"cached")]),
            PointSource::Reused { representative } => {
                emit(&[("kind", &"reused"), ("representative", representative)])
            }
        }
    }
}

impl Serialize for PointSource {
    fn to_value(&self) -> Value {
        self.fields(serde::object_value)
    }

    fn write_json(&self, out: &mut String) {
        self.fields(|fields| serde::write_object(fields, out))
    }
}

/// One grid point's outcome plus its provenance.
#[derive(Debug, Clone)]
pub struct ClusterPoint<O> {
    /// The outcome, whatever its source.
    pub outcome: O,
    /// Where it came from.
    pub source: PointSource,
}

/// One persisted cache record: the outcome, in canonical flow order, plus
/// the kind and address it answers, which a load compares byte for byte
/// (collision/staleness guard). On disk the address is the `config`
/// field.
struct CacheEntry<'a, O> {
    kind: &'a str,
    config: &'a str,
    outcome: O,
}

// Hand-written: the vendored derive rejects generic structs. Field order
// is the one every cache file on disk already has.
impl<O: Serialize> CacheEntry<'_, O> {
    /// The fields, in serialized order: the one list both serde methods
    /// read.
    fn fields(&self) -> [serde::Field<'_>; 3] {
        [
            ("kind", &self.kind),
            ("config", &self.config),
            ("outcome", &self.outcome),
        ]
    }
}

impl<O: Serialize> Serialize for CacheEntry<'_, O> {
    fn to_value(&self) -> Value {
        serde::object_value(&self.fields())
    }

    fn write_json(&self, out: &mut String) {
        serde::write_object(&self.fields(), out)
    }
}

/// Live progress across worker threads: points done, throughput, ETA and
/// aggregate drop counters, reported on stderr.
///
/// The throughput/ETA estimate counts **simulation slots**
/// (`sims_done / planned_sims`), not grid points: cluster-reused points
/// land in microseconds, so folding them into the rate would first
/// overestimate the remaining time (reused points pending at the
/// simulated points' rate) and then whipsaw the rate upward when they
/// all land at once.
struct Progress {
    total: usize,
    planned_sims: usize,
    done: AtomicUsize,
    sims_done: AtomicUsize,
    cached: AtomicUsize,
    reused: AtomicUsize,
    policer_drops: AtomicU64,
    queue_drops: AtomicU64,
    shaper_drops: AtomicU64,
    start: Instant,
    enabled: bool,
}

impl Progress {
    fn new(total: usize, planned_sims: usize, enabled: bool) -> Progress {
        Progress {
            total,
            planned_sims,
            done: AtomicUsize::new(0),
            sims_done: AtomicUsize::new(0),
            cached: AtomicUsize::new(0),
            reused: AtomicUsize::new(0),
            policer_drops: AtomicU64::new(0),
            queue_drops: AtomicU64::new(0),
            shaper_drops: AtomicU64::new(0),
            start: Instant::now(),
            enabled,
        }
    }

    fn add_drops(&self, drops: (u64, u64, u64)) {
        self.policer_drops.fetch_add(drops.0, Ordering::Relaxed);
        self.queue_drops.fetch_add(drops.1, Ordering::Relaxed);
        self.shaper_drops.fetch_add(drops.2, Ordering::Relaxed);
    }

    /// Record a directly-produced point (simulated, or served from the
    /// persistent cache) given its aggregate drop counters
    /// `(policer, queue, shaper)`.
    fn record_counts(&self, drops: (u64, u64, u64), cache_hit: bool) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.sims_done.fetch_add(1, Ordering::Relaxed);
        if cache_hit {
            self.cached.fetch_add(1, Ordering::Relaxed);
        }
        self.add_drops(drops);
        if self.enabled {
            self.print(done, false);
        }
    }

    /// Record a point transplanted from its symmetry-class representative.
    fn record_reused(&self, drops: (u64, u64, u64)) {
        let done = self.done.fetch_add(1, Ordering::Relaxed) + 1;
        self.reused.fetch_add(1, Ordering::Relaxed);
        self.add_drops(drops);
        if self.enabled {
            self.print(done, false);
        }
    }

    fn print(&self, done: usize, final_line: bool) {
        let sims_done = self.sims_done.load(Ordering::Relaxed);
        let cached = self.cached.load(Ordering::Relaxed);
        let reused = self.reused.load(Ordering::Relaxed);
        let (rate, eta) = throughput_eta(
            sims_done,
            self.planned_sims,
            self.start.elapsed().as_secs_f64(),
        );
        let eta = match eta {
            Some(secs) => format!("{secs:.0}s"),
            None => "?".to_string(),
        };
        let mut err = std::io::stderr().lock();
        let _ = write!(
            err,
            "\r[runner] {done}/{} points ({} simulated, {cached} cached, {reused} reused) | \
             {rate:.2} sims/s | ETA {eta} | drops: policer {}, queue {}, shaper {}",
            self.total,
            sims_done.saturating_sub(cached),
            self.policer_drops.load(Ordering::Relaxed),
            self.queue_drops.load(Ordering::Relaxed),
            self.shaper_drops.load(Ordering::Relaxed),
        );
        if final_line {
            let _ = writeln!(err);
        }
        let _ = err.flush();
    }

    fn finish(&self) {
        if self.enabled && self.total > 0 {
            self.print(self.done.load(Ordering::Relaxed), true);
        }
    }
}

/// Throughput and remaining-time estimate for a progress line.
///
/// Callers pass **simulation** counts (`sims_done`, `planned_sims`), not
/// grid-point counts — see [`Progress`] — so cluster-reused points never
/// inflate the ETA. Returns `(sims_per_sec, Some(eta_secs))`; the ETA is
/// `None` until the first slot lands (with `done == 0` there is no rate
/// to extrapolate from, and `total / ε` would print astronomical
/// nonsense). An instantly-served grid (all cache hits, elapsed ≈ 0)
/// yields a huge but finite rate and a zero ETA, never a division by
/// zero or `NaN`.
fn throughput_eta(done: usize, total: usize, elapsed_secs: f64) -> (f64, Option<f64>) {
    if done == 0 {
        return (0.0, None);
    }
    let rate = done as f64 / elapsed_secs.max(1e-9);
    let eta = total.saturating_sub(done) as f64 / rate;
    (rate, Some(eta))
}

/// The grid-execution engine: fans [`Job`]s over threads, with an
/// optional persistent result cache and a symmetry-cluster pre-pass. See
/// the module docs for semantics.
#[derive(Debug, Clone)]
pub struct Runner {
    threads: usize,
    cache_dir: Option<PathBuf>,
    progress: bool,
    cluster: ClusterMode,
}

/// Default cache location: `results/cache/` at the repository root.
pub fn default_cache_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results/cache")
}

impl Default for Runner {
    fn default() -> Runner {
        Runner {
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(1),
            cache_dir: Some(default_cache_dir()),
            progress: std::io::stderr().is_terminal(),
            cluster: ClusterMode::Exact,
        }
    }
}

impl Runner {
    /// A runner configured from the environment (`DSV_THREADS`,
    /// `DSV_CACHE`, `DSV_PROGRESS`, `DSV_CLUSTER`); the defaults are all
    /// cores, the persistent cache, a progress meter when stderr is a
    /// TTY, and exact clustering.
    pub fn from_env() -> Runner {
        let mut r = Runner::default();
        r.threads = dsv_sim::env::count_from_env("DSV_THREADS", r.threads);
        if let Ok(v) = std::env::var("DSV_CACHE") {
            let v = v.trim();
            r.cache_dir = match v {
                "0" | "off" | "" => None,
                path => Some(PathBuf::from(path)),
            };
        }
        if let Some(on) = dsv_sim::env::flag_from_env("DSV_PROGRESS") {
            r.progress = on;
        }
        if let Ok(v) = std::env::var("DSV_CLUSTER") {
            r.cluster = cluster_mode_from_str(v.trim());
        }
        r
    }

    /// A single-threaded runner with no cache, no progress output and no
    /// clustering — the reference configuration for determinism
    /// comparisons (every point individually simulated).
    pub fn serial() -> Runner {
        Runner {
            threads: 1,
            cache_dir: None,
            progress: false,
            cluster: ClusterMode::Off,
        }
    }

    /// Set the worker-thread count (1 = serial execution).
    pub fn with_threads(mut self, threads: usize) -> Runner {
        self.threads = threads.max(1);
        self
    }

    /// Set the cache directory, or disable caching with `None`.
    pub fn with_cache(mut self, dir: Option<PathBuf>) -> Runner {
        self.cache_dir = dir;
        self
    }

    /// Force the progress meter on or off.
    pub fn with_progress(mut self, on: bool) -> Runner {
        self.progress = on;
        self
    }

    /// Set the cluster mode.
    pub fn with_cluster(mut self, mode: ClusterMode) -> Runner {
        self.cluster = mode;
        self
    }

    /// Run every job, in parallel, returning outcomes **in job order**.
    ///
    /// Outcomes are pure functions of each job's config (every RNG in a
    /// run is seeded from it), so the result is identical for any thread
    /// count — parallel output is byte-for-byte the serial output. Under
    /// exact clustering (the default) symmetric points share one
    /// simulation, which is byte-identical too; use
    /// [`Runner::run_clustered`] to also see each point's provenance.
    pub fn run(&self, jobs: &[Job]) -> Vec<RunOutcome> {
        self.run_clustered(jobs)
            .into_iter()
            .map(|p| p.outcome)
            .collect()
    }

    /// Run a batch of aggregate configurations, outcomes in input order,
    /// through the same thread pool, persistent cache and cluster
    /// pre-pass as [`run`].
    ///
    /// [`run`]: Runner::run
    pub fn run_aggregate_batch(&self, cfgs: &[AggregateConfig]) -> Vec<AggregateOutcome> {
        self.run_aggregate_clustered(cfgs)
            .into_iter()
            .map(|p| p.outcome)
            .collect()
    }

    /// [`Runner::run`] with provenance: each outcome carries whether it
    /// was simulated, cache-served or cluster-reused.
    pub fn run_clustered(&self, jobs: &[Job]) -> Vec<ClusterPoint<RunOutcome>> {
        self.run_batch(jobs)
    }

    /// [`Runner::run_aggregate_batch`] with provenance.
    pub fn run_aggregate_clustered(
        &self,
        cfgs: &[AggregateConfig],
    ) -> Vec<ClusterPoint<AggregateOutcome>> {
        self.run_batch(cfgs)
    }

    /// Run a batch of transport-level jobs, outcomes in input order,
    /// through the same thread pool, persistent cache and cluster
    /// pre-pass as [`run`].
    ///
    /// [`run`]: Runner::run
    pub fn run_flows_batch(&self, jobs: &[FlowJob]) -> Vec<FlowsOutcome> {
        self.run_flows_clustered(jobs)
            .into_iter()
            .map(|p| p.outcome)
            .collect()
    }

    /// [`Runner::run_flows_batch`] with provenance.
    pub fn run_flows_clustered(&self, jobs: &[FlowJob]) -> Vec<ClusterPoint<FlowsOutcome>> {
        self.run_batch(jobs)
    }

    /// The one batch pipeline behind every entry point. A serial pre-pass
    /// addresses every point once (skipped when neither the cache nor
    /// clustering needs addresses) and partitions the batch into exact
    /// classes by kind and address; the class representatives then fan
    /// out over the pool, each through [`Runner::produce`], and every
    /// other member gets its representative's outcome transplanted
    /// through the two rank maps (representative label order → canonical
    /// order → member label order).
    fn run_batch<J: GridJob>(&self, jobs: &[J]) -> Vec<ClusterPoint<J::Outcome>> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let addrs: Vec<Address> = if self.cluster == ClusterMode::Off && self.cache_dir.is_none() {
            Vec::new()
        } else {
            jobs.iter().map(GridJob::address).collect()
        };
        let rep_of = if self.cluster == ClusterMode::Off {
            (0..n).collect()
        } else {
            first_seen(&addrs)
        };
        let reps: Vec<usize> = (0..n).filter(|&i| rep_of[i] == i).collect();
        let mut slot_of = vec![usize::MAX; n];
        for (slot, &i) in reps.iter().enumerate() {
            slot_of[i] = slot;
        }

        let stages_before = profile::snapshot();
        let progress = Progress::new(n, reps.len(), self.progress);
        let rep_points: Vec<ClusterPoint<J::Outcome>> = self
            .fan_out(reps.len(), &progress, |slot| {
                self.produce(&jobs[reps[slot]], addrs.get(reps[slot]))
            })
            .into_iter()
            .map(|(outcome, hit)| ClusterPoint {
                outcome,
                source: PointSource::direct(hit),
            })
            .collect();

        let out = (0..n)
            .map(|i| {
                let rep = rep_of[i];
                let point = &rep_points[slot_of[rep]];
                if rep == i {
                    return point.clone();
                }
                // Same canonical form ⟹ same flow count.
                let outcome = point
                    .outcome
                    .to_canonical(&addrs[rep].ranks)
                    .to_label_order(&addrs[i].ranks)
                    .expect("class members share a flow count");
                progress.record_reused(outcome.drops());
                ClusterPoint {
                    outcome,
                    source: PointSource::Reused {
                        representative: rep,
                    },
                }
            })
            .collect();
        progress.finish();
        profile::report(&format!("batch of {n}"), &stages_before);
        out
    }

    /// The fan-out engine: `n` points, each produced by
    /// `exec(i) -> (outcome, cache_hit)`, fanned over the scoped thread
    /// pool with results returned **in index order** regardless of thread
    /// count; each lands on the live progress line.
    fn fan_out<O: GridOutcome>(
        &self,
        n: usize,
        progress: &Progress,
        exec: impl Fn(usize) -> (O, bool) + Sync,
    ) -> Vec<(O, bool)> {
        if n == 0 {
            return Vec::new();
        }
        let slots: Vec<OnceLock<(O, bool)>> = (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.clamp(1, n);
        std::thread::scope(|scope| {
            for _ in 0..workers {
                scope.spawn(|| loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    if i >= n {
                        break;
                    }
                    let result = exec(i);
                    progress.record_counts(result.0.drops(), result.1);
                    if slots[i].set(result).is_err() {
                        panic!("each slot is filled once");
                    }
                });
            }
        });
        slots
            .into_iter()
            .map(|s| s.into_inner().expect("worker filled every slot"))
            .collect()
    }

    /// One point through the result cache, given the address the
    /// pre-pass computed (`None`: caching is off): served from its entry
    /// when one addresses exactly this point, else executed and stored in
    /// canonical flow order. Returns `(outcome, cache_hit)`.
    fn produce<J: GridJob>(&self, job: &J, addr: Option<&Address>) -> (J::Outcome, bool) {
        let (Some(dir), Some(addr)) = (&self.cache_dir, addr) else {
            return (job.execute(), false);
        };
        let path = keys::cache_path(dir, addr.kind, &addr.json);
        let cached = load_cached::<J::Outcome>(&path, addr.kind, &addr.json);
        if let Some(outcome) = cached.and_then(|c| c.to_label_order(&addr.ranks)) {
            return (outcome, true);
        }
        let outcome = job.execute();
        store_cached(
            dir,
            &path,
            &CacheEntry {
                kind: addr.kind,
                config: &addr.json,
                outcome: outcome.to_canonical(&addr.ranks),
            },
        );
        (outcome, false)
    }

    /// Run a QBone figure's grid (`rates × depths`) through this runner.
    pub fn qbone_sweep(
        &self,
        base: &QboneConfig,
        rates: &[u64],
        depths: &[u32],
        label: impl Into<String>,
    ) -> SweepResult {
        let jobs = grid_jobs(rates, depths, |rate, depth| {
            let mut cfg = base.clone();
            cfg.profile = EfProfile::new(rate, depth);
            Job::Qbone(cfg)
        });
        self.collect_sweep(jobs, rates, depths, label)
    }

    /// Run a local-testbed grid through this runner.
    pub fn local_sweep(
        &self,
        base: &LocalConfig,
        rates: &[u64],
        depths: &[u32],
        label: impl Into<String>,
    ) -> SweepResult {
        let jobs = grid_jobs(rates, depths, |rate, depth| {
            let mut cfg = base.clone();
            cfg.profile = EfProfile::new(rate, depth);
            Job::Local(cfg)
        });
        self.collect_sweep(jobs, rates, depths, label)
    }

    fn collect_sweep(
        &self,
        jobs: Vec<Job>,
        rates: &[u64],
        depths: &[u32],
        label: impl Into<String>,
    ) -> SweepResult {
        let outcomes = self.run(&jobs);
        let points = depths
            .iter()
            .flat_map(|&depth| rates.iter().map(move |&rate| (rate, depth)))
            .zip(outcomes)
            .map(
                |((token_rate_bps, bucket_depth_bytes), outcome)| SweepPoint {
                    token_rate_bps,
                    bucket_depth_bytes,
                    outcome,
                },
            )
            .collect();
        SweepResult {
            label: label.into(),
            points,
        }
    }

    /// Run a batch of QBone configurations, outcomes in input order.
    pub fn run_qbone_batch(&self, cfgs: &[QboneConfig]) -> Vec<RunOutcome> {
        let jobs: Vec<Job> = cfgs.iter().cloned().map(Job::Qbone).collect();
        self.run(&jobs)
    }

    /// Run a batch of local-testbed configurations, outcomes in input order.
    pub fn run_local_batch(&self, cfgs: &[LocalConfig]) -> Vec<RunOutcome> {
        let jobs: Vec<Job> = cfgs.iter().cloned().map(Job::Local).collect();
        self.run(&jobs)
    }

    /// Run a batch of AF configurations, outcomes in input order.
    pub fn run_af_batch(&self, cfgs: &[AfConfig]) -> Vec<RunOutcome> {
        let jobs: Vec<Job> = cfgs.iter().cloned().map(Job::Af).collect();
        self.run(&jobs)
    }
}

/// Parse a `DSV_CLUSTER` value; unrecognized input warns on stderr and
/// falls back to the exact default rather than silently changing
/// semantics.
fn cluster_mode_from_str(v: &str) -> ClusterMode {
    match v {
        "off" | "0" => ClusterMode::Off,
        "" | "exact" | "1" => ClusterMode::Exact,
        _ => {
            eprintln!(
                "[runner] DSV_CLUSTER={v:?} not recognized (expected off or exact); \
                 using exact clustering"
            );
            ClusterMode::Exact
        }
    }
}

/// Map each index to the first index with the same kind and address
/// (itself for class representatives).
fn first_seen(addrs: &[Address]) -> Vec<usize> {
    let mut seen: HashMap<(&str, &str), usize> = HashMap::with_capacity(addrs.len());
    addrs
        .iter()
        .enumerate()
        .map(|(i, a)| *seen.entry((a.kind, a.json.as_str())).or_insert(i))
        .collect()
}

/// Build the depth-major job grid (the order `SweepResult` documents).
fn grid_jobs(rates: &[u64], depths: &[u32], mut make: impl FnMut(u64, u32) -> Job) -> Vec<Job> {
    let mut jobs = Vec::with_capacity(rates.len() * depths.len());
    for &depth in depths {
        for &rate in rates {
            jobs.push(make(rate, depth));
        }
    }
    jobs
}

/// Read `path` and run `parse` over its contents, re-reading once if the
/// first attempt does not yield a value.
///
/// `store_cached` publishes entries with a tmp-file write + rename, which
/// is atomic on POSIX — but when *another process* is recomputing the
/// same grid (two figure binaries sharing `results/cache/`), some
/// filesystems (overlay and network mounts in particular) expose a window
/// where a read racing the rename returns truncated or stale bytes. Every
/// writer of a given path serializes the same pure-function outcome, so
/// the content is never wrong, only possibly torn; one re-read after a
/// failed parse (or a guard mismatch) lands after the rename and
/// recovers the entry. A second failure means a genuinely absent or
/// corrupt entry, which degrades to recomputation as before.
fn retry_torn_read<T>(path: &Path, parse: impl Fn(&str) -> Option<T>) -> Option<T> {
    for attempt in 0..2 {
        // A missing file is a plain cache miss: nothing to retry.
        let text = fs::read_to_string(path).ok()?;
        if let Some(v) = parse(&text) {
            return Some(v);
        }
        if attempt == 0 {
            std::thread::yield_now();
        }
    }
    None
}

/// Load the outcome of the entry at `path` if it exists *and* answers
/// exactly `(kind, config)`.
fn load_cached<O: Deserialize>(path: &Path, kind: &str, config: &str) -> Option<O> {
    retry_torn_read(path, |text| {
        let entry = serde_json::parse_value(text).ok()?;
        let field = |k| entry.get(k).and_then(Value::as_str);
        if field("kind") != Some(kind) || field("config") != Some(config) {
            return None;
        }
        O::from_value(entry.get("outcome")?).ok()
    })
}

/// Persist a cache entry atomically (tmp file + rename), best-effort:
/// a read-only results directory degrades to "no cache", not a panic.
fn store_cached<O: Serialize>(dir: &Path, path: &Path, entry: &CacheEntry<'_, O>) {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    if fs::create_dir_all(dir).is_err() {
        return;
    }
    let json = serde_json::to_string_pretty(entry).expect("cache entry serializes");
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    if fs::write(&tmp, json).is_ok() && fs::rename(&tmp, path).is_err() {
        let _ = fs::remove_file(&tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{DEPTH_2MTU, DEPTH_3MTU};
    use crate::qbone::ClipId2;

    fn tiny_base() -> QboneConfig {
        QboneConfig::new(
            ClipId2::Lost,
            1_000_000,
            EfProfile::new(1_000_000, DEPTH_2MTU),
        )
    }

    /// One job through `runner`'s cache path, addressed as a batch's
    /// pre-pass addresses it; returns `(outcome, cache_hit)`.
    fn run_one(runner: &Runner, job: &Job) -> (RunOutcome, bool) {
        runner.produce(job, Some(&job.address()))
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let base = tiny_base();
        let rates = [900_000u64, 1_400_000];
        let depths = [DEPTH_2MTU, DEPTH_3MTU];
        let serial = Runner::serial().qbone_sweep(&base, &rates, &depths, "d");
        let parallel = Runner::serial()
            .with_threads(4)
            .qbone_sweep(&base, &rates, &depths, "d");
        assert_eq!(
            serde_json::to_string(&serial).unwrap(),
            serde_json::to_string(&parallel).unwrap()
        );
    }

    #[test]
    fn duplicate_jobs_cluster_to_one_simulation() {
        // Three jobs, two identical: exact mode simulates the two
        // distinct points and transplants the duplicate, with the
        // provenance saying so — and the outcomes byte-match a full
        // unclustered run.
        let mut other = tiny_base();
        other.profile = EfProfile::new(1_400_000, DEPTH_3MTU);
        let jobs = [
            Job::Qbone(tiny_base()),
            Job::Qbone(other),
            Job::Qbone(tiny_base()),
        ];
        let clustered = Runner::serial()
            .with_cluster(ClusterMode::Exact)
            .run_clustered(&jobs);
        assert!(matches!(clustered[0].source, PointSource::Simulated));
        assert!(matches!(clustered[1].source, PointSource::Simulated));
        assert!(matches!(
            clustered[2].source,
            PointSource::Reused { representative: 0 }
        ));
        let full = Runner::serial().run(&jobs);
        for (c, f) in clustered.iter().zip(&full) {
            assert_eq!(
                serde_json::to_string(&c.outcome).unwrap(),
                serde_json::to_string(f).unwrap()
            );
        }
    }

    #[test]
    fn cluster_mode_parsing_warns_and_defaults() {
        assert_eq!(cluster_mode_from_str("off"), ClusterMode::Off);
        assert_eq!(cluster_mode_from_str("0"), ClusterMode::Off);
        assert_eq!(cluster_mode_from_str("exact"), ClusterMode::Exact);
        assert_eq!(cluster_mode_from_str("1"), ClusterMode::Exact);
        assert_eq!(cluster_mode_from_str(""), ClusterMode::Exact);
        // Anything else, any `approx:<eps>` included, warns and falls
        // back to the exact default.
        assert_eq!(cluster_mode_from_str("approx:0.05"), ClusterMode::Exact);
        assert_eq!(cluster_mode_from_str("approx:"), ClusterMode::Exact);
        assert_eq!(cluster_mode_from_str("approx:-1"), ClusterMode::Exact);
        assert_eq!(cluster_mode_from_str("approx:inf"), ClusterMode::Exact);
        assert_eq!(cluster_mode_from_str("fast"), ClusterMode::Exact);
    }

    #[test]
    fn cache_round_trips_and_guards_config() {
        let dir = std::env::temp_dir().join(format!("dsv-runner-test-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let runner = Runner::serial().with_cache(Some(dir.clone()));
        let job = Job::Qbone(tiny_base());
        let (cold, hit0) = run_one(&runner, &job);
        assert!(!hit0, "first run must be a miss");
        let (warm, hit1) = run_one(&runner, &job);
        assert!(hit1, "second run must hit");
        assert_eq!(
            serde_json::to_string(&cold).unwrap(),
            serde_json::to_string(&warm).unwrap()
        );
        // A different profile is a different address: no false hit.
        let mut other = tiny_base();
        other.profile = EfProfile::new(1_100_000, DEPTH_3MTU);
        let (_, hit2) = run_one(&runner, &Job::Qbone(other));
        assert!(!hit2, "changed config must miss");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_cache_entries_fall_back_to_execution() {
        let dir = std::env::temp_dir().join(format!("dsv-runner-corrupt-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let runner = Runner::serial().with_cache(Some(dir.clone()));
        let job = Job::Qbone(tiny_base());
        // Poison the exact cache path this job addresses.
        let path = keys::cache_path(&dir, job.kind(), &job.address().json);
        fs::write(&path, "{not json").unwrap();
        let (_, hit) = run_one(&runner, &job);
        assert!(!hit, "corrupt entry must not count as a hit");
        // And it must have been repaired in place.
        let (_, hit2) = run_one(&runner, &job);
        assert!(hit2, "repaired entry hits");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn torn_reads_are_retried_exactly_once() {
        let dir = std::env::temp_dir().join(format!("dsv-runner-torn-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        let path = dir.join("entry.json");
        fs::write(&path, "payload").unwrap();

        // A parse that fails once (as if racing a rename) succeeds on the
        // re-read.
        let calls = std::cell::Cell::new(0usize);
        let got = retry_torn_read(&path, |text| {
            calls.set(calls.get() + 1);
            (calls.get() == 2).then(|| text.to_string())
        });
        assert_eq!(got.as_deref(), Some("payload"));
        assert_eq!(calls.get(), 2);

        // A persistently bad entry is read twice, no more.
        let calls = std::cell::Cell::new(0usize);
        let got: Option<()> = retry_torn_read(&path, |_| {
            calls.set(calls.get() + 1);
            None
        });
        assert_eq!(got, None);
        assert_eq!(calls.get(), 2);

        // A missing file is a plain miss: zero parse attempts, no retry.
        let calls = std::cell::Cell::new(0usize);
        let got: Option<()> = retry_torn_read(&dir.join("absent.json"), |_| {
            calls.set(calls.get() + 1);
            Some(())
        });
        assert_eq!(got, None);
        assert_eq!(calls.get(), 0);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn clustered_cache_serves_aggregates_and_transport_jobs() {
        use crate::smoothing::SmoothingServer;
        // Two rotations of one 2-flow aggregate (one exact class, its
        // member transplanted through the rank maps) and two smoothing
        // jobs (two classes), through the clustered cache path twice.
        let agg = AggregateConfig::new(
            ClipId2::Lost,
            1_000_000,
            2,
            EfProfile::new(2_200_000, DEPTH_3MTU),
        );
        let aggs = [agg.clone(), agg.with_rotation(1)];
        let smoothing = |server| {
            FlowJob::Smoothing(SmoothingConfig::new(
                ClipId2::Lost,
                1_000_000,
                server,
                EfProfile::new(1_100_000, DEPTH_2MTU),
            ))
        };
        let flows = [
            smoothing(SmoothingServer::Tcp),
            smoothing(SmoothingServer::Bursty),
        ];
        fn lines<O: Serialize>(points: &[ClusterPoint<O>]) -> Vec<String> {
            points
                .iter()
                .map(|p| serde_json::to_string(&p.outcome).unwrap())
                .collect()
        }
        let dir = std::env::temp_dir().join(format!("dsv-runner-clustered-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let cached = Runner::serial()
            .with_cluster(ClusterMode::Exact)
            .with_cache(Some(dir.clone()));
        let first = (
            cached.run_aggregate_clustered(&aggs),
            cached.run_flows_clustered(&flows),
        );
        assert!(matches!(first.0[1].source, PointSource::Reused { .. }));
        let second = (
            cached.run_aggregate_clustered(&aggs),
            cached.run_flows_clustered(&flows),
        );
        let served =
            |s: &PointSource| matches!(s, PointSource::Cached | PointSource::Reused { .. });
        assert!(second.0.iter().all(|p| served(&p.source)));
        assert!(second.1.iter().all(|p| served(&p.source)));

        let reference = (
            Runner::serial().run_aggregate_clustered(&aggs),
            Runner::serial().run_flows_clustered(&flows),
        );
        for pass in [&first, &second] {
            assert_eq!(lines(&pass.0), lines(&reference.0));
            assert_eq!(lines(&pass.1), lines(&reference.1));
        }
        // Rotation 1 is a relabelling, not a copy: its flows swap places.
        assert_ne!(lines(&reference.0)[0], lines(&reference.0)[1]);

        // Exactly one entry per class, at the path its address names.
        let mut want: Vec<PathBuf> = aggs
            .iter()
            .map(GridJob::address)
            .chain(flows.iter().map(GridJob::address))
            .map(|a| keys::cache_path(&dir, a.kind, &a.json))
            .collect();
        want.sort();
        want.dedup();
        assert_eq!(want.len(), 3);
        let mut have: Vec<PathBuf> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        have.sort();
        assert_eq!(have, want);
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn concurrent_writers_never_corrupt_a_read() {
        // Several "processes" recomputing the same point store the same
        // entry while readers poll it: every successful load must return
        // the one true outcome, and failed loads only mean "miss".
        let dir = std::env::temp_dir().join(format!("dsv-runner-race-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let job = Job::Qbone(tiny_base());
        let config = job.address().json;
        let path = keys::cache_path(&dir, job.kind(), &config);
        let entry = CacheEntry {
            kind: job.kind(),
            config: &config,
            outcome: job.execute(),
        };
        let expected = serde_json::to_string(&entry.outcome).unwrap();
        std::thread::scope(|scope| {
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..40 {
                        store_cached(&dir, &path, &entry);
                    }
                });
            }
            for _ in 0..3 {
                scope.spawn(|| {
                    for _ in 0..200 {
                        if let Some(outcome) = load_cached::<RunOutcome>(&path, job.kind(), &config)
                        {
                            assert_eq!(serde_json::to_string(&outcome).unwrap(), expected);
                        }
                    }
                });
            }
        });
        // Once every writer has finished, the entry is durably published.
        // (A reader can finish its polls before the first store lands, so
        // this is checked after the scope joins the writers.)
        assert!(
            load_cached::<RunOutcome>(&path, job.kind(), &config).is_some(),
            "entry should become visible to readers"
        );
        // No temp files leak from the racing writers.
        let leftovers: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .filter_map(|e| e.ok())
            .filter(|e| e.file_name().to_string_lossy().starts_with(".tmp-"))
            .collect();
        assert!(leftovers.is_empty(), "stray temp files: {leftovers:?}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn thread_count_env_policy_warns_and_defaults() {
        // `from_env` routes DSV_THREADS through the shared dsv-sim parser:
        // valid values apply, garbage falls back to the default (with a
        // stderr warning) instead of being silently ignored.
        let default_threads = Runner::default().threads;
        std::env::set_var("DSV_THREADS", "3");
        assert_eq!(Runner::from_env().threads, 3);
        std::env::set_var("DSV_THREADS", "0");
        assert_eq!(Runner::from_env().threads, default_threads);
        std::env::set_var("DSV_THREADS", "many");
        assert_eq!(Runner::from_env().threads, default_threads);
        std::env::remove_var("DSV_THREADS");
        assert_eq!(Runner::from_env().threads, default_threads);
    }

    #[test]
    fn progress_eta_is_sane_on_edge_cases() {
        // Before any point lands there is no rate to extrapolate from:
        // no ETA rather than `total / ε` nonsense.
        let (rate, eta) = throughput_eta(0, 100, 0.0);
        assert_eq!(rate, 0.0);
        assert_eq!(eta, None);
        // An instantly-cached grid (elapsed ≈ 0) must stay finite.
        let (rate, eta) = throughput_eta(100, 100, 0.0);
        assert!(rate.is_finite() && rate > 0.0);
        assert_eq!(eta, Some(0.0));
        // Normal mid-flight estimate: 10 done in 5 s, 30 to go → 15 s.
        let (rate, eta) = throughput_eta(10, 40, 5.0);
        assert!((rate - 2.0).abs() < 1e-12);
        assert!((eta.unwrap() - 15.0).abs() < 1e-12);
        // done > total (caller bug or re-counted cache hits) saturates
        // to zero remaining rather than going negative.
        let (_, eta) = throughput_eta(5, 3, 1.0);
        assert_eq!(eta, Some(0.0));
    }

    #[test]
    fn eta_counts_simulation_slots_not_reused_points() {
        // A 40-point grid clustering down to 30 simulations, 10 of them
        // done after 5 s: the reused points land for free, so the honest
        // remaining time is the 20 pending *simulations* (10 s). Feeding
        // the ETA grid-point totals instead would promise 15 s — a 50%
        // overestimate that grows with the reuse ratio.
        let (_, eta_sims) = throughput_eta(10, 30, 5.0);
        assert!((eta_sims.unwrap() - 10.0).abs() < 1e-12);
        let (_, eta_points) = throughput_eta(10, 40, 5.0);
        assert!(eta_points.unwrap() > eta_sims.unwrap());
    }

    #[test]
    fn empty_grid_produces_no_output_and_no_panic() {
        // An empty job list returns early: no progress line, no division
        // by the zero elapsed time, just an empty result.
        let out = Runner::serial().with_progress(true).run(&[]);
        assert!(out.is_empty());
        let out = Runner::serial()
            .with_cluster(ClusterMode::Exact)
            .with_progress(true)
            .run(&[]);
        assert!(out.is_empty());
    }
}
