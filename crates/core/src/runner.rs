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
//!   equivalence classes by the very same canonical address. Under
//!   [`ClusterMode::Exact`] (what [`Runner::from_env`] runs) only one
//!   representative per class is simulated and every other member's
//!   outcome is transplanted from it — sound because equal canonical
//!   forms mean the specs are relabellings of one another and the
//!   engine's dynamics are label-blind (validated by
//!   `aggregate::tests::rotated_declarations_permute_per_flow_outcomes_exactly`).
//!   Aggregate outcomes transplant through per-flow canonical-rank maps
//!   ([`crate::aggregate::media_flow_ranks`]); single-stream outcomes are
//!   flow-agnostic and transplant by clone. Each point's [`PointSource`]
//!   records which of these served it. [`ClusterMode::Off`] simulates
//!   every point: it is the reference the tests hold exact clustering to,
//!   not a knob.
//!
//! One pipeline serves every testbed. Any [`GridJob`] — [`Job`]
//! (single-stream, VQM-scored), [`AggregateConfig`] (N flows behind one
//! policer) or [`FlowJob`] (transport) — runs through the generic
//! [`Runner::run`], or [`Runner::run_clustered`] to also see each point's
//! provenance; `run_aggregate_clustered` and `run_flows_clustered` are
//! one-line aliases of the latter. Rate × depth grids are built with
//! [`crate::sweep::sweep_jobs`], and golden-backed tests load the same
//! jobs through [`crate::golden::golden`].
//!
//! The cache deliberately does **not** hash the simulator code itself:
//! after changing simulation behaviour, delete `results/cache/` (or run
//! with `DSV_CACHE=0`) to force cold recomputation.
//!
//! [`Runner::from_env`] takes its worker count (`DSV_THREADS`), cache
//! (`DSV_CACHE`) and progress meter (`DSV_PROGRESS`) from the process's
//! [`RunConfig`]; each batch's stage report prints under `DSV_PROFILE`.

use std::collections::HashMap;
use std::fs;
use std::io::{self, Write};
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::sync::OnceLock;
use std::time::Instant;

use serde::{Deserialize, Serialize, Value};

use crate::af::{af_spec, run_af, AfConfig};
use crate::af_tcp::{af_tcp_spec, run_af_tcp, AfTcpConfig};
use crate::aggregate::{
    aggregate_spec, media_flow_ranks, run_aggregate, AggregateConfig, AggregateOutcome,
};
use crate::config::RunConfig;
use crate::experiment::RunOutcome;
use crate::flows::FlowsOutcome;
use crate::keys;
use crate::local::{local_spec, run_local, LocalConfig};
use crate::profile;
use crate::qbone::{qbone_spec, run_qbone, QboneConfig};
use crate::smoothing::{run_smoothing, smoothing_spec, SmoothingConfig};
use dsv_scenario::{canonicalize, ScenarioSpec};

/// One kind of grid work. The runner's single pipeline — address,
/// cluster, cache lookup-and-store, transplant — and the goldens
/// ([`crate::golden::golden`]) are written once over this trait;
/// [`Job`], [`AggregateConfig`] and [`FlowJob`] plug in.
pub trait GridJob: Sync {
    /// What one run produces.
    type Outcome: GridOutcome;
    /// Short tag naming the experiment; part of the cache key and of
    /// the golden checksums.
    fn kind(&self) -> &'static str;
    /// Canonical JSON of the configuration (the golden checksums hash
    /// this).
    fn config_json(&self) -> String;
    /// The point's semantic identity: its compiled scenario spec, the
    /// scoring parameters that shape the outcome but live outside the
    /// topology, and how many media flows its outcome reports (0 for a
    /// flow-agnostic outcome). The batch pre-pass derives the point's
    /// address and rank map from it, once per point.
    fn identity(&self) -> (ScenarioSpec, Value, u32);
    /// Run the experiment this job describes.
    fn execute(&self) -> Self::Outcome;
}

/// The outcome of a [`GridJob`], as the pipeline handles it.
pub trait GridOutcome: Clone + Send + Sync + Serialize + Deserialize {
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

impl GridJob for Job {
    type Outcome = RunOutcome;

    fn kind(&self) -> &'static str {
        match self {
            Job::Qbone(_) => "qbone",
            Job::Local(_) => "local",
            Job::Af(_) => "af",
        }
    }

    fn config_json(&self) -> String {
        match self {
            Job::Qbone(cfg) => json(cfg),
            Job::Local(cfg) => json(cfg),
            Job::Af(cfg) => json(cfg),
        }
    }

    fn identity(&self) -> (ScenarioSpec, Value, u32) {
        match self {
            Job::Qbone(cfg) => (
                qbone_spec(cfg),
                serde::object_value(&[
                    ("clip", &cfg.clip),
                    ("encoding_bps", &cfg.encoding_bps),
                    ("score_vs_best", &cfg.score_vs_best),
                ]),
                0,
            ),
            Job::Local(cfg) => (
                local_spec(cfg),
                serde::object_value(&[("clip", &cfg.clip), ("cap_bps", &cfg.cap_bps)]),
                0,
            ),
            Job::Af(cfg) => (
                af_spec(cfg),
                serde::object_value(&[("clip", &cfg.clip), ("encoding_bps", &cfg.encoding_bps)]),
                0,
            ),
        }
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
#[derive(Debug, Clone)]
pub enum FlowJob {
    /// A TCP-smoothing run on the QBone path (one media flow).
    Smoothing(SmoothingConfig),
    /// An AF-TCP rate-guarantee run (N bulk flows).
    AfTcp(AfTcpConfig),
}

impl GridJob for FlowJob {
    type Outcome = FlowsOutcome;

    fn kind(&self) -> &'static str {
        match self {
            FlowJob::Smoothing(_) => "smoothing",
            FlowJob::AfTcp(_) => "af_tcp",
        }
    }

    fn config_json(&self) -> String {
        match self {
            FlowJob::Smoothing(cfg) => json(cfg),
            FlowJob::AfTcp(cfg) => json(cfg),
        }
    }

    fn identity(&self) -> (ScenarioSpec, Value, u32) {
        match self {
            FlowJob::Smoothing(cfg) => (
                smoothing_spec(cfg),
                serde::object_value(&[("clip", &cfg.clip), ("encoding_bps", &cfg.encoding_bps)]),
                1,
            ),
            FlowJob::AfTcp(cfg) => (af_tcp_spec(cfg), Value::Object(Vec::new()), cfg.flows()),
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

    fn kind(&self) -> &'static str {
        "aggregate"
    }

    fn config_json(&self) -> String {
        json(self)
    }

    fn identity(&self) -> (ScenarioSpec, Value, u32) {
        (
            aggregate_spec(self),
            serde::object_value(&[("clip", &self.clip), ("encoding_bps", &self.encoding_bps)]),
            self.flows,
        )
    }

    fn execute(&self) -> AggregateOutcome {
        run_aggregate(self)
    }
}

fn json(cfg: &impl Serialize) -> String {
    serde_json::to_string(cfg).expect("config serializes")
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
    /// Canonicalize the job's spec once and derive both the address and
    /// the rank map of its media flows from the result.
    fn of<J: GridJob>(job: &J) -> Address {
        let (spec, scoring, flows) = job.identity();
        let canon = canonicalize(&spec);
        Address {
            kind: job.kind(),
            ranks: media_flow_ranks(&canon, flows),
            json: keys::address_json(&canon.spec, &scoring),
        }
    }
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
        AggregateOutcome {
            per_flow: canonical_order(&self.per_flow, ranks),
        }
    }

    fn to_label_order(&self, ranks: &[usize]) -> Option<AggregateOutcome> {
        label_order(&self.per_flow, ranks).map(|per_flow| AggregateOutcome { per_flow })
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
        FlowsOutcome {
            per_flow: canonical_order(&self.per_flow, ranks),
        }
    }

    fn to_label_order(&self, ranks: &[usize]) -> Option<FlowsOutcome> {
        label_order(&self.per_flow, ranks).map(|per_flow| FlowsOutcome { per_flow })
    }
}

/// Label-indexed per-flow entries in canonical order:
/// `canon[ranks[i]] = per_flow[i]` (see [`media_flow_ranks`]).
fn canonical_order<T: Clone>(per_flow: &[T], ranks: &[usize]) -> Vec<T> {
    let mut canon = per_flow.to_vec();
    for (i, f) in per_flow.iter().enumerate() {
        canon[ranks[i]] = f.clone();
    }
    canon
}

/// Canonical-order entries back in a point's flow-label order
/// (`per_flow[i] = canon[ranks[i]]`); `None` if the flow counts differ.
fn label_order<T: Clone>(canon: &[T], ranks: &[usize]) -> Option<Vec<T>> {
    (canon.len() == ranks.len()).then(|| ranks.iter().map(|&p| canon[p].clone()).collect())
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

/// The grid-execution engine: fans [`GridJob`]s over threads, with an
/// optional persistent result cache and a symmetry-cluster pre-pass. See
/// the module docs for semantics.
#[derive(Debug, Clone)]
pub struct Runner {
    threads: usize,
    cache_dir: Option<PathBuf>,
    progress: bool,
    cluster: ClusterMode,
}

impl Runner {
    /// A runner configured by the process's [`RunConfig`] (`DSV_THREADS`,
    /// `DSV_CACHE`, `DSV_PROGRESS`): by default all cores, the persistent
    /// cache and a progress meter when stderr is a TTY; always exact
    /// clustering.
    pub fn from_env() -> Runner {
        Runner::from_config(RunConfig::get())
    }

    /// A runner configured by `config`'s `threads`, `cache_dir` and
    /// `progress`; always exact clustering.
    pub fn from_config(config: &RunConfig) -> Runner {
        Runner {
            threads: config.threads,
            cache_dir: config.cache_dir.clone(),
            progress: config.progress,
            cluster: ClusterMode::Exact,
        }
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
    pub fn run<J: GridJob>(&self, jobs: &[J]) -> Vec<J::Outcome> {
        self.run_clustered(jobs)
            .into_iter()
            .map(|p| p.outcome)
            .collect()
    }

    /// [`Runner::run`] with provenance: each outcome carries whether it
    /// was simulated, cache-served or cluster-reused.
    ///
    /// The one batch pipeline. A serial pre-pass addresses every point
    /// once (skipped when neither the cache nor clustering needs
    /// addresses) and partitions the batch into exact classes by kind and
    /// address; the class representatives then fan out over the pool,
    /// each through the result cache, and every other member gets its
    /// representative's outcome transplanted through the two rank maps
    /// (representative label order → canonical order → member label
    /// order).
    pub fn run_clustered<J: GridJob>(&self, jobs: &[J]) -> Vec<ClusterPoint<J::Outcome>> {
        let n = jobs.len();
        if n == 0 {
            return Vec::new();
        }
        let addrs: Vec<Address> = if self.cluster == ClusterMode::Off && self.cache_dir.is_none() {
            Vec::new()
        } else {
            jobs.iter().map(Address::of).collect()
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

        let (out, stages) = profile::measure(|| {
            let progress = Progress::new(n, reps.len(), self.progress);
            let rep_points: Vec<ClusterPoint<J::Outcome>> = self.fan_out(reps.len(), |slot| {
                let (outcome, hit) = self.produce(&jobs[reps[slot]], addrs.get(reps[slot]));
                progress.record_counts(outcome.drops(), hit);
                ClusterPoint {
                    outcome,
                    source: PointSource::direct(hit),
                }
            });
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
            out
        });
        profile::report(&format!("batch of {n}"), &stages);
        out
    }

    /// [`Runner::run_clustered`] over aggregate configurations.
    pub fn run_aggregate_clustered(
        &self,
        cfgs: &[AggregateConfig],
    ) -> Vec<ClusterPoint<AggregateOutcome>> {
        self.run_clustered(cfgs)
    }

    /// [`Runner::run_clustered`] over transport-level jobs.
    pub fn run_flows_clustered(&self, jobs: &[FlowJob]) -> Vec<ClusterPoint<FlowsOutcome>> {
        self.run_clustered(jobs)
    }

    /// The fan-out engine: `exec(i)` for each of `n` points, fanned over
    /// the scoped thread pool, results returned **in index order**
    /// regardless of thread count. Each worker hands its stage totals
    /// ([`crate::profile`]) back to the calling thread as it finishes.
    pub(crate) fn fan_out<T: Send + Sync>(
        &self,
        n: usize,
        exec: impl Fn(usize) -> T + Sync,
    ) -> Vec<T> {
        if n == 0 {
            return Vec::new();
        }
        let slots: Vec<OnceLock<T>> = (0..n).map(|_| OnceLock::new()).collect();
        let next = AtomicUsize::new(0);
        let workers = self.threads.clamp(1, n);
        std::thread::scope(|scope| {
            let handles: Vec<_> = (0..workers)
                .map(|_| {
                    scope.spawn(|| {
                        loop {
                            let i = next.fetch_add(1, Ordering::Relaxed);
                            if i >= n {
                                break;
                            }
                            if slots[i].set(exec(i)).is_err() {
                                panic!("each slot is filled once");
                            }
                        }
                        profile::snapshot()
                    })
                })
                .collect();
            for handle in handles {
                match handle.join() {
                    Ok(stages) => profile::absorb(&stages),
                    Err(panic) => std::panic::resume_unwind(panic),
                }
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
            &path,
            &CacheEntry {
                kind: addr.kind,
                config: &addr.json,
                outcome: outcome.to_canonical(&addr.ranks),
            },
        );
        (outcome, false)
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

/// Read `path` and run `parse` over its contents, re-reading once if the
/// first attempt does not yield a value.
///
/// `store_cached` publishes entries with [`publish`] (a tmp-file write +
/// rename), which is atomic on POSIX — but when *another process* is recomputing the
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

/// Persist a cache entry, best-effort: a read-only results directory
/// degrades to "no cache", not a panic.
fn store_cached<O: Serialize>(path: &Path, entry: &CacheEntry<'_, O>) {
    let json = serde_json::to_string_pretty(entry).expect("cache entry serializes");
    let _ = publish(path, &json);
}

/// Write `text` to `path` atomically, creating its directory: into a temp
/// file beside it, named uniquely per process and per write, then renamed
/// over `path`. A reader sees the old file or the new one, and concurrent
/// writers of one path (figure binaries sharing a cache, tests
/// regenerating one golden) each publish a whole file.
pub(crate) fn publish(path: &Path, text: &str) -> io::Result<()> {
    static TMP_SEQ: AtomicU64 = AtomicU64::new(0);
    let dir = path.parent().unwrap_or(Path::new("."));
    fs::create_dir_all(dir)?;
    let tmp = dir.join(format!(
        ".tmp-{}-{}",
        std::process::id(),
        TMP_SEQ.fetch_add(1, Ordering::Relaxed)
    ));
    let published = fs::write(&tmp, text).and_then(|()| fs::rename(&tmp, path));
    if published.is_err() {
        let _ = fs::remove_file(&tmp);
    }
    published
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::experiment::{EfProfile, DEPTH_2MTU, DEPTH_3MTU};
    use crate::qbone::ClipId2;
    use crate::sweep::sweep_jobs;

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
        runner.produce(job, Some(&Address::of(job)))
    }

    #[test]
    fn parallel_matches_serial_exactly() {
        let jobs = sweep_jobs(
            &[900_000, 1_400_000],
            &[DEPTH_2MTU, DEPTH_3MTU],
            |profile| {
                Job::Qbone(QboneConfig {
                    profile,
                    ..tiny_base()
                })
            },
        );
        let serial = Runner::serial().run(&jobs);
        let parallel = Runner::serial().with_threads(4).run(&jobs);
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
        let path = keys::cache_path(&dir, job.kind(), &Address::of(&job).json);
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
        let first = (cached.run_clustered(&aggs), cached.run_clustered(&flows));
        assert!(matches!(first.0[1].source, PointSource::Reused { .. }));
        let second = (cached.run_clustered(&aggs), cached.run_clustered(&flows));
        let served =
            |s: &PointSource| matches!(s, PointSource::Cached | PointSource::Reused { .. });
        assert!(second.0.iter().all(|p| served(&p.source)));
        assert!(second.1.iter().all(|p| served(&p.source)));

        let reference = (
            Runner::serial().run_clustered(&aggs),
            Runner::serial().run_clustered(&flows),
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
            .map(Address::of)
            .chain(flows.iter().map(Address::of))
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
        let config = Address::of(&job).json;
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
                        store_cached(&path, &entry);
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
    fn concurrent_publishes_of_one_path_all_land() {
        // Tests regenerating one golden publish one path at once: every
        // write must succeed and leave exactly that file behind (with one
        // shared temp name, a writer's rename could find its temp file
        // already renamed away by another).
        let dir = std::env::temp_dir().join(format!("dsv-runner-publish-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        let path = dir.join("golden.json");
        let start = std::sync::Barrier::new(4);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    start.wait();
                    for _ in 0..50 {
                        publish(&path, "{}").expect("every publish succeeds");
                    }
                });
            }
        });
        let files: Vec<_> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name())
            .collect();
        assert_eq!(files, ["golden.json"]);
        assert_eq!(fs::read_to_string(&path).unwrap(), "{}");
        let _ = fs::remove_dir_all(&dir);
    }

    #[test]
    fn thread_count_env_policy_warns_and_defaults() {
        // A runner takes DSV_THREADS as its `RunConfig` parsed it: valid
        // values apply, garbage falls back to the default (with a stderr
        // warning) instead of being silently ignored.
        let threads = |value: Option<&str>| {
            let config = RunConfig::from_vars(|name| {
                value.filter(|_| name == "DSV_THREADS").map(str::to_string)
            });
            Runner::from_config(&config).threads
        };
        let default_threads = threads(None);
        assert!(default_threads >= 1);
        assert_eq!(threads(Some("3")), 3);
        assert_eq!(threads(Some("0")), default_threads);
        assert_eq!(threads(Some("many")), default_threads);
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
    fn each_batch_reports_its_own_peaks() {
        use crate::smoothing::SmoothingServer;
        // A deep-queue transport batch between two runs of a shallow QBone
        // batch: the later shallow batch reports its own high-water marks,
        // not the peak the deep batch left behind.
        let runner = Runner::serial().with_threads(2);
        let shallow = [Job::Qbone(tiny_base())];
        let deep = [FlowJob::Smoothing(SmoothingConfig::new(
            ClipId2::Lost,
            1_000_000,
            SmoothingServer::Tcp,
            EfProfile::new(1_100_000, DEPTH_2MTU),
        ))];
        let (_, alone) = profile::measure(|| runner.run(&shallow));
        let (_, deep) = profile::measure(|| runner.run(&deep));
        let (_, after) = profile::measure(|| runner.run(&shallow));
        assert!(
            deep.queue_high_water > alone.queue_high_water,
            "deep {deep:?}, shallow {alone:?}"
        );
        let peaks = |s: &profile::ProfileSnapshot| {
            (s.points, s.events, s.queue_high_water, s.pool_high_water)
        };
        assert_eq!(peaks(&after), peaks(&alone));
    }

    #[test]
    fn empty_grid_produces_no_output_and_no_panic() {
        // An empty job list returns early: no progress line, no division
        // by the zero elapsed time, just an empty result.
        let out = Runner::serial().with_progress(true).run::<Job>(&[]);
        assert!(out.is_empty());
        let out = Runner::serial()
            .with_cluster(ClusterMode::Exact)
            .with_progress(true)
            .run::<Job>(&[]);
        assert!(out.is_empty());
    }
}
