//! `benchmark` — the repository's performance ledger.
//!
//! Runs one named sweep workload through the public [`Runner`] API and
//! prints, as JSON on stdout, every end-to-end metric (untraced run) or
//! every per-layer metric (`--trace 1`) together with its correctness
//! verdict. The last stdout line is always
//! `{"correct", "attempted", "failed", "metrics"}`; the line before it is
//! the full report: runner configuration, sample counts and check notes.
//! See `README.md` beside this file for the workloads, the metrics and
//! how to read a trace.

mod alloc;
mod micro;
mod probe;
mod trace;
mod workload;

use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

use dsv_core::prelude::*;
use dsv_core::{artifacts, keys, profile, qoe};
use dsv_sim::SimRng;
use serde::{Num, Serialize, Value};

use workload::{Jobs, WORKLOADS};

/// End-to-end metrics `(name, unit)`, reported by every untraced run.
const END_TO_END: [(&str, &str); 4] = [
    ("points_per_s", "points/s"),
    ("sweep_s_p50", "s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics `(name, unit)`, reported by every traced run.
const PER_LAYER: [(&str, &str); 22] = [
    ("runner.simulated_frac", "fraction"),
    ("runner.cache_hit_us", "us"),
    ("runner.parallel_speedup", "x"),
    ("runner.overhead_frac", "fraction"),
    ("core.spec_us", "us"),
    ("scenario.canonicalize_us", "us"),
    ("keys.address_us", "us"),
    ("scenario.compile_us", "us"),
    ("sim.simulate_ms", "ms"),
    ("sim.ns_per_event", "ns"),
    ("sim.events_per_point", "count"),
    ("sim.events_per_packet", "count"),
    ("sim.queue_high_water", "count"),
    ("net.pool_high_water", "count"),
    ("qoe.score_ms", "ms"),
    ("vqm.ns_per_frame", "ns"),
    ("sim.wheel_ns_per_op", "ns"),
    ("diffserv.policer_ns_per_verdict", "ns"),
    ("net.qdisc_ns_per_op", "ns"),
    ("net.wred_ns_per_op", "ns"),
    ("alloc.per_point", "count"),
    ("trace.overhead_frac", "fraction"),
];

/// Timed set-ups before the rounds when a set-up fills the result cache
/// (`warm_replay`); elsewhere one set-up precedes every timed round. The
/// fills also set that workload's peak RSS, which depends on how the
/// heavy jobs of each fill's order overlap on the threads: with three
/// fills its spread between runs reached 7%.
const SET_UPS_WITH_FILL: usize = 5;
/// Alternated serial, cache-replay and traced passes per traced run.
const TRACE_PASSES: usize = 3;
/// Timed rounds per run even when `--seconds` elapses sooner.
const MIN_ROUNDS: usize = 5;
/// Run length when `--seconds` is not given (`run_seconds` in
/// `BENCHMARK.json`).
const DEFAULT_SECONDS: f64 = 20.0;

const USAGE: &str = "usage: benchmark --workload <name|all> [--seed N] [--seconds S] \
                     [--trace 0|1] [--trace-file PATH]\n       benchmark --smoke [--seed N]\n\
                     workloads: qbone_paper_grid, aggregate_rotation, transport_tcp, warm_replay";

fn main() -> ExitCode {
    // Every DSV_* variable changes what the engine runs (thread count,
    // cache, clustering, estimator, queue backend, audit): refuse them
    // rather than measure a different program.
    if let Some(var) = std::env::vars_os()
        .map(|(k, _)| k.to_string_lossy().into_owned())
        .find(|k| k.starts_with("DSV_"))
    {
        eprintln!("benchmark: refusing to run with {var} set; unset every DSV_* variable");
        return ExitCode::from(2);
    }
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("benchmark: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let result = if args.smoke {
        smoke(&args)
    } else if args.workload == "all" {
        run_all(&args)
    } else {
        let mode = if args.trace {
            Mode::Trace
        } else {
            Mode::Measure
        };
        run_workload(&args.workload, &args, mode).map(|run| {
            println!("{}", to_json(&run.report));
            run.summary
        })
    };
    match result {
        Ok(summary) => {
            println!("{}", to_json(&summary.to_value()));
            if summary.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(msg) => {
            eprintln!("benchmark: {msg}");
            ExitCode::FAILURE
        }
    }
}

struct Args {
    workload: String,
    seed: Option<u64>,
    seconds: f64,
    trace: bool,
    trace_file: Option<PathBuf>,
    smoke: bool,
}

fn parse_args(mut it: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: None,
        seconds: DEFAULT_SECONDS,
        trace: false,
        trace_file: None,
        smoke: false,
    };
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = Some(value()?.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be a positive number".to_string());
                }
                args.seconds = s;
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    v => return Err(format!("--trace takes 0 or 1, not {v:?}")),
                }
            }
            "--trace-file" => args.trace_file = Some(PathBuf::from(value()?)),
            "--smoke" => args.smoke = true,
            _ => return Err(format!("unknown argument {flag:?}")),
        }
    }
    if !args.smoke && args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!("unknown workload {:?}", args.workload));
    }
    if args.trace_file.is_some() && (args.workload == "all" || args.smoke || !args.trace) {
        return Err("--trace-file needs --trace 1 and a single workload".to_string());
    }
    Ok(args)
}

#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// Timed rounds with tracing off: the end-to-end metrics.
    Measure,
    /// Timed rounds, serial passes and the traced pass: the per-layer metrics.
    Trace,
    /// One round with every correctness check and no timing.
    Smoke,
}

/// The last stdout line.
#[derive(Default)]
struct Summary {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, &'static str, f64)>,
}

impl Summary {
    fn correct(&self) -> bool {
        self.failed == 0
    }

    fn to_value(&self) -> Value {
        Value::Object(vec![
            ("correct".to_string(), self.correct().to_value()),
            ("attempted".to_string(), self.attempted.to_value()),
            ("failed".to_string(), self.failed.to_value()),
            ("metrics".to_string(), metrics_value(&self.metrics)),
        ])
    }
}

fn metrics_value(metrics: &[(String, &'static str, f64)]) -> Value {
    Value::Object(
        metrics
            .iter()
            .map(|(name, unit, value)| {
                (
                    name.clone(),
                    Value::Object(vec![
                        ("value".to_string(), Value::Num(Num::F(*value))),
                        ("unit".to_string(), unit.to_value()),
                    ]),
                )
            })
            .collect(),
    )
}

fn to_json(value: &Value) -> String {
    serde_json::to_string(value).expect("reports serialize")
}

/// The repository checkout the benchmark was built from.
fn repo_root() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("..")
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Point-level correctness bookkeeping.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    notes: Vec<String>,
}

impl Checks {
    /// Compare every point of `got` that `want` pins, byte for byte.
    fn points<'a>(
        &mut self,
        what: &str,
        got: &[String],
        want: impl ExactSizeIterator<Item = Option<&'a String>>,
    ) {
        if want.len() != got.len() {
            self.require(
                &format!("{what}: {} points, expected {}", got.len(), want.len()),
                false,
            );
            return;
        }
        let (mut differ, mut first) = (0, None);
        for (i, (got, want)) in got.iter().zip(want).enumerate() {
            if let Some(want) = want {
                self.attempted += 1;
                if got != want {
                    self.failed += 1;
                    differ += 1;
                    first.get_or_insert(i);
                }
            }
        }
        if let Some(first) = first {
            self.note(format!(
                "{what}: {differ} points differ, first at point {first}"
            ));
        }
    }

    /// One pass/fail check that is not a point comparison.
    fn require(&mut self, what: &str, ok: bool) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.note(what.to_string());
        }
    }

    fn note(&mut self, note: String) {
        const MAX_NOTES: usize = 20;
        if self.notes.len() < MAX_NOTES {
            self.notes.push(note);
        }
    }
}

/// A result-cache directory inside the checkout, removed when dropped.
struct CacheDir(PathBuf);

impl CacheDir {
    fn new(root: &Path) -> CacheDir {
        CacheDir(
            root.join("benchmark/.cache")
                .join(std::process::id().to_string()),
        )
    }

    /// Empty the directory, so the next batch starts cold.
    fn reset(&self) -> Result<(), String> {
        let _ = fs::remove_dir_all(&self.0);
        fs::create_dir_all(&self.0).map_err(|e| format!("{}: {e}", self.0.display()))
    }
}

impl Drop for CacheDir {
    fn drop(&mut self) {
        let _ = fs::remove_dir_all(&self.0);
        // Leave no empty parent behind; fails harmlessly while another
        // run still owns a sibling.
        if let Some(parent) = self.0.parent() {
            let _ = fs::remove_dir(parent);
        }
    }
}

/// The filesystem type `path` lives on, from the process's mount table.
fn fs_type(path: &Path) -> Option<String> {
    let path = path.canonicalize().ok()?;
    let mounts = fs::read_to_string("/proc/self/mounts").ok()?;
    mounts
        .lines()
        .filter_map(|line| {
            let mut fields = line.split_whitespace().skip(1);
            Some((fields.next()?, fields.next()?))
        })
        .filter(|(mount, _)| path.starts_with(mount))
        .max_by_key(|(mount, _)| mount.len())
        .map(|(_, ty)| ty.to_string())
}

/// This process's peak resident set (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status =
        fs::read_to_string("/proc/self/status").map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}

/// Linear-interpolation quantile of unsorted samples.
fn quantile(xs: &[f64], q: f64) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let pos = q * (sorted.len() - 1) as f64;
    let (lo, hi) = (pos.floor() as usize, pos.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

fn median(xs: &[f64]) -> f64 {
    quantile(xs, 0.5)
}

/// `x` with four significant digits, for the stderr summary.
fn significant(x: f64) -> String {
    let digits = if x == 0.0 || !x.is_finite() {
        0
    } else {
        (3 - x.abs().log10().floor() as i32).max(0) as usize
    };
    format!("{x:.digits$}")
}

/// Sample count and quartiles (plus extremes and the lower decile) of a
/// set of timings, for the report.
fn distribution(xs: &[f64]) -> Value {
    let mut fields = vec![("count".to_string(), xs.len().to_value())];
    if !xs.is_empty() {
        for (name, q) in [
            ("min", 0.0),
            ("p10", 0.1),
            ("p25", 0.25),
            ("p50", 0.5),
            ("p75", 0.75),
            ("max", 1.0),
        ] {
            fields.push((name.to_string(), quantile(xs, q).to_value()));
        }
    }
    Value::Object(fields)
}

/// Timed samples, each with the host-speed probe that followed it.
#[derive(Default)]
struct Samples {
    wall_s: Vec<f64>,
    probe_s: Vec<f64>,
}

impl Samples {
    fn push(&mut self, wall_s: f64, probe_s: f64) {
        self.wall_s.push(wall_s);
        self.probe_s.push(probe_s);
    }

    /// Each sample rescaled to the reference host's speed (see
    /// [`probe`]).
    fn ref_s(&self) -> Vec<f64> {
        self.wall_s
            .iter()
            .zip(&self.probe_s)
            .map(|(wall, probe)| wall * probe::REF_S / probe)
            .collect()
    }

    /// The report's view: wall times, rescaled times and probe times.
    fn to_value(&self, name: &str) -> [(String, Value); 3] {
        [
            (format!("{name}_s"), distribution(&self.wall_s)),
            (format!("{name}_ref_s"), distribution(&self.ref_s())),
            (format!("{name}_probe_s"), distribution(&self.probe_s)),
        ]
    }
}

/// One workload in one process: its jobs, the measured runner, and the
/// correctness verdicts gathered along the way.
struct Workload {
    name: &'static str,
    /// The jobs, in their committed order, and each one's committed
    /// outcome (`None` where no file pins it).
    jobs: Jobs,
    expected: Vec<Option<String>>,
    seed: Option<u64>,
    /// Draws the job order of each batch from `seed`; without a seed
    /// every batch runs the committed order.
    orders: Option<SimRng>,
    /// The measured configuration: all cores, exact clustering, no
    /// progress meter; a result cache for `warm_replay` only.
    runner: Runner,
    cache: Option<CacheDir>,
    root: PathBuf,
    checks: Checks,
}

/// One batch of every job.
struct Batch {
    secs: f64,
    /// Points this batch simulated (neither cached nor transplanted).
    simulated: usize,
    /// Each point's outcome as compact JSON, in committed job order.
    lines: Vec<String>,
}

/// What a workload run prints.
struct Run {
    report: Value,
    summary: Summary,
}

fn run_workload(name: &str, args: &Args, mode: Mode) -> Result<Run, String> {
    let mut w = Workload::new(name, args.seed)?;
    let fills = if w.cache.is_some() && mode != Mode::Smoke {
        SET_UPS_WITH_FILL
    } else {
        1
    };
    let mut set_ups = Samples::default();
    let mut fill = None;
    for _ in 0..fills {
        let (secs, filled) = w.set_up()?;
        set_ups.push(secs, probe::time(nproc()));
        fill = filled;
    }
    let reference = w.reference(fill);
    let runner = w.runner.clone();
    let Batch {
        simulated,
        lines: warm,
        ..
    } = w.batch(&runner);
    w.checks.points(
        "warm-up round vs reference",
        &warm,
        reference.iter().map(Option::as_ref),
    );

    let mut rounds = Samples::default();
    let metrics = match mode {
        Mode::Smoke => Vec::new(),
        Mode::Measure => {
            rounds = w.timed_rounds(&warm, args.seconds, &mut set_ups)?;
            let sweep_s = median(&rounds.ref_s());
            vec![
                w.jobs.len() as f64 / sweep_s,
                sweep_s,
                median(&set_ups.ref_s()),
                peak_rss_mb()?,
            ]
        }
        Mode::Trace => {
            rounds = w.timed_rounds(&warm, args.seconds, &mut set_ups)?;
            w.per_layer(
                &warm,
                simulated,
                median(&rounds.wall_s),
                args.trace_file.as_deref(),
            )?
        }
    };
    let table: &[(&str, &'static str)] = match mode {
        Mode::Smoke => &[],
        Mode::Measure => &END_TO_END,
        Mode::Trace => &PER_LAYER,
    };
    let metrics: Vec<(String, &'static str, f64)> = table
        .iter()
        .zip(metrics)
        .map(|(&(name, unit), v)| (name.to_string(), unit, v))
        .collect();
    Ok(w.finish(mode, metrics, simulated, &rounds, &set_ups))
}

impl Workload {
    fn new(name: &str, seed: Option<u64>) -> Result<Workload, String> {
        let name = WORKLOADS
            .into_iter()
            .find(|w| *w == name)
            .ok_or_else(|| format!("unknown workload {name:?}"))?;
        let root = repo_root();
        let jobs = Jobs::for_workload(name).expect("every listed workload has jobs");
        let expected = workload::committed(&jobs, &root)?;
        let mut runner = Runner::serial()
            .with_threads(nproc())
            .with_cluster(ClusterMode::Exact)
            .with_progress(false);
        let cache = (name == "warm_replay").then(|| CacheDir::new(&root));
        if let Some(cache) = &cache {
            runner = runner.with_cache(Some(cache.0.clone()));
        }
        Ok(Workload {
            name,
            jobs,
            expected,
            seed,
            orders: seed.map(SimRng::seed_from_u64),
            runner,
            cache,
            root,
            checks: Checks::default(),
        })
    }

    /// One timed set-up: a cold artifact store rebuilt for every clip,
    /// codec and rate the jobs use and, for `warm_replay`, a fresh result
    /// cache filled with every point. Returns the time and the fill's
    /// outcomes.
    fn set_up(&mut self) -> Result<(f64, Option<Vec<String>>), String> {
        if let Some(cache) = &self.cache {
            cache.reset()?;
        }
        let t0 = Instant::now();
        artifacts::clear();
        self.jobs.warm_artifacts();
        let runner = self.runner.clone();
        let filled = self.cache.is_some().then(|| self.batch(&runner).lines);
        Ok((t0.elapsed().as_secs_f64(), filled))
    }

    /// The jobs in the order of the next batch: drawn from the seed, or
    /// the committed order; `order[i]` is the committed index of the job
    /// at position `i`.
    fn next_order(&mut self) -> (Jobs, Vec<usize>) {
        match &mut self.orders {
            Some(rng) => self.jobs.shuffled(rng),
            None => (self.jobs.clone(), (0..self.jobs.len()).collect()),
        }
    }

    /// Run every job once through `runner`, in the next order.
    fn batch(&mut self, runner: &Runner) -> Batch {
        let (jobs, order) = self.next_order();
        let t0 = Instant::now();
        let out = jobs.run(runner);
        let secs = t0.elapsed().as_secs_f64();
        Batch {
            secs,
            simulated: out.simulated(),
            lines: workload::unshuffle(out.lines(), &order),
        }
    }

    /// What each point of the warm-up round must reproduce: the committed
    /// files, which pin every point but the rotated aggregate members;
    /// for a cache replay, the set-up fill it replays; for aggregates, one
    /// cluster-off run, so every transplanted rotation is checked against
    /// its own simulation. The fill and the cluster-off run are checked
    /// against the committed files first.
    fn reference(&mut self, fill: Option<Vec<String>>) -> Vec<Option<String>> {
        let observed = match fill {
            Some(fill) => Some(("set-up fill", fill)),
            None if !self.jobs.aggregate.is_empty() => {
                let unclustered = self.runner.clone().with_cluster(ClusterMode::Off);
                Some(("cluster-off run", self.batch(&unclustered).lines))
            }
            None => None,
        };
        match observed {
            Some((what, lines)) => {
                self.checks.points(
                    &format!("{what} vs committed outcomes"),
                    &lines,
                    self.expected.iter().map(Option::as_ref),
                );
                lines.into_iter().map(Some).collect()
            }
            None => self.expected.clone(),
        }
    }

    /// Timed rounds until `seconds` have passed (at least [`MIN_ROUNDS`]),
    /// each followed by the host-speed probe and checked byte for byte
    /// against the warm-up round outside its timing. Where a set-up only
    /// rebuilds artifacts, one more timed set-up precedes every round and
    /// shares its probe, so `setup_s` samples the whole run rather than
    /// its first milliseconds.
    fn timed_rounds(
        &mut self,
        warm: &[String],
        seconds: f64,
        set_ups: &mut Samples,
    ) -> Result<Samples, String> {
        let mut rounds = Samples::default();
        let runner = self.runner.clone();
        let start = Instant::now();
        while rounds.wall_s.len() < MIN_ROUNDS || start.elapsed().as_secs_f64() < seconds {
            let set_up_s = match self.cache {
                None => Some(self.set_up()?.0),
                Some(_) => None,
            };
            let round = self.batch(&runner);
            let probe_s = probe::time(nproc());
            rounds.push(round.secs, probe_s);
            if let Some(secs) = set_up_s {
                set_ups.push(secs, probe_s);
            }
            self.checks.points(
                "timed round vs warm-up",
                &round.lines,
                warm.iter().map(Some),
            );
        }
        Ok(rounds)
    }

    /// The per-layer metrics, in [`PER_LAYER`] order. `parallel_s` is the
    /// median timed round of the measured runner.
    fn per_layer(
        &mut self,
        warm: &[String],
        simulated: usize,
        parallel_s: f64,
        trace_file: Option<&Path>,
    ) -> Result<Vec<f64>, String> {
        let n = self.jobs.len() as f64;
        let serial = self.runner.clone().with_threads(1).with_cache(None);

        // The result cache the one-thread warm pass replays: set-up filled
        // it for `warm_replay`; elsewhere one parallel batch fills it here.
        let fill_cache;
        let cache = match &self.cache {
            Some(cache) => cache,
            None => {
                fill_cache = CacheDir::new(&self.root);
                fill_cache.reset()?;
                self.jobs
                    .run(&self.runner.clone().with_cache(Some(fill_cache.0.clone())));
                &fill_cache
            }
        };
        let cache_dir = cache.0.clone();
        let cached = serial.clone().with_cache(Some(cache_dir.clone()));

        // One-thread cold pass (the runner's own event count and
        // allocations, and the base of the overhead ratios), one-thread
        // warm pass (the cost of a cache hit) and the traced pass,
        // alternated; every time below is a median over the passes.
        let (mut cold_s, mut warm_s, mut traced_s) = (Vec::new(), Vec::new(), Vec::new());
        let mut layer_ns: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
        let mut allocs = 0;
        let mut last = None;
        for _ in 0..TRACE_PASSES {
            let (jobs, order) = self.next_order();
            let before = profile::snapshot();
            let t0 = Instant::now();
            let (out, count) = alloc::count(|| jobs.run(&serial));
            cold_s.push(t0.elapsed().as_secs_f64());
            let runner_events = profile::snapshot().since(&before).events;
            allocs = count;
            let lines = workload::unshuffle(out.lines(), &order);
            self.checks
                .points("serial pass vs warm-up", &lines, warm.iter().map(Some));

            let replay = self.batch(&cached);
            warm_s.push(replay.secs);
            self.checks
                .require("the warm cache served every point", replay.simulated == 0);
            self.checks.points(
                "cache replay vs warm-up",
                &replay.lines,
                warm.iter().map(Some),
            );

            let mut rec = trace::Recorder::new();
            let t0 = Instant::now();
            let totals = trace::traced_pass(&self.jobs, &mut rec);
            traced_s.push(t0.elapsed().as_secs_f64());
            self.checks.require(
                &format!(
                    "traced events {} equal the runner's {runner_events}",
                    totals.events
                ),
                totals.events == runner_events,
            );
            self.checks.require(
                "every traced address names a cache entry the runner wrote",
                totals
                    .addresses
                    .iter()
                    .all(|(kind, address)| keys::cache_path(&cache_dir, kind, address).exists()),
            );
            for (name, ns) in rec.self_ns() {
                layer_ns.entry(name).or_default().push(ns as f64);
            }
            last = Some((rec, totals));
        }
        let (rec, totals) = last.expect("at least one traced pass");
        if let Some(path) = trace_file {
            fs::write(path, rec.chrome_json()).map_err(|e| format!("{}: {e}", path.display()))?;
        }

        let ns = |name: &str| layer_ns.get(name).map_or(0.0, |v| median(v));
        let layers_ns: f64 = layer_ns
            .keys()
            .filter(|name| **name != trace::POINT)
            .map(|name| ns(name))
            .sum();
        let (serial_cold_s, serial_warm_s) = (median(&cold_s), median(&warm_s));
        let traced_s = median(&traced_s);
        let (points, sims) = (totals.points as f64, totals.simulated as f64);
        let events = totals.events as f64;
        // The measured runner's configuration on one thread: a warm cache
        // for `warm_replay`, cold everywhere else.
        let serial_s = if self.cache.is_some() {
            serial_warm_s
        } else {
            serial_cold_s
        };
        let score_ms = if totals.scored > 0 {
            ns("qoe.score") / totals.scored as f64 / 1e6
        } else {
            micro::score_ms_calibration()
        };
        Ok(vec![
            simulated as f64 / n,
            serial_warm_s * 1e6 / n,
            serial_s / parallel_s,
            1.0 - layers_ns / (serial_cold_s * 1e9),
            ns("core.spec") / points / 1e3,
            ns("scenario.canonicalize") / points / 1e3,
            ns("keys.address") / points / 1e3,
            ns("scenario.compile") / sims / 1e3,
            ns("sim.simulate") / sims / 1e6,
            ns("sim.simulate") / events,
            events / sims,
            events / totals.packets as f64,
            totals.queue_high_water as f64,
            totals.pool_high_water as f64,
            score_ms,
            micro::vqm_ns_per_frame(),
            micro::wheel_ns_per_op(),
            micro::policer_ns_per_verdict(),
            micro::qdisc_ns_per_op(),
            micro::wred_ns_per_op(),
            allocs as f64 / n,
            traced_s / serial_cold_s - 1.0,
        ])
    }

    fn finish(
        self,
        mode: Mode,
        metrics: Vec<(String, &'static str, f64)>,
        simulated: usize,
        rounds: &Samples,
        set_ups: &Samples,
    ) -> Run {
        let cache_dir = self.cache.as_ref().map(|c| {
            c.0.strip_prefix(&self.root)
                .unwrap_or(&c.0)
                .display()
                .to_string()
        });
        let cache_fs = self.cache.as_ref().and_then(|c| fs_type(&c.0));
        let field = |k: &str, v: Value| (k.to_string(), v);
        let config = Value::Object(vec![
            field("threads", nproc().to_value()),
            field("nproc", nproc().to_value()),
            field("cluster", "exact".to_value()),
            field("qoe", qoe::mode().label().to_value()),
            field("cache_dir", cache_dir.to_value()),
            field("cache_fs", cache_fs.to_value()),
            field("seed", self.seed.to_value()),
        ]);
        let mode_name = match mode {
            Mode::Measure => "measure",
            Mode::Trace => "trace",
            Mode::Smoke => "smoke",
        };
        let summary = Summary {
            attempted: self.checks.attempted,
            failed: self.checks.failed,
            metrics,
        };
        let report = Value::Object(vec![
            field("workload", self.name.to_value()),
            field("mode", mode_name.to_value()),
            field("config", config),
            field("points_per_round", self.jobs.len().to_value()),
            field("simulated_per_round", simulated.to_value()),
            field(
                "samples",
                Value::Object(
                    rounds
                        .to_value("round")
                        .into_iter()
                        .chain(set_ups.to_value("set_up"))
                        .collect(),
                ),
            ),
            field(
                "checks",
                Value::Object(vec![
                    field("attempted", summary.attempted.to_value()),
                    field("failed", summary.failed.to_value()),
                    field("notes", self.checks.notes.to_value()),
                ]),
            ),
            field("metrics", metrics_value(&summary.metrics)),
        ]);
        Run { report, summary }
    }
}

/// `--workload all`: each workload in a child process of its own, so
/// `peak_rss_mb` is per workload. Children's reports pass through to
/// stdout; one stderr line per workload is derived from its summary; the
/// final summary prefixes every metric with its workload.
fn run_all(args: &Args) -> Result<Summary, String> {
    let exe = std::env::current_exe().map_err(|e| format!("current executable: {e}"))?;
    let mut all = Summary::default();
    for name in WORKLOADS {
        let mut cmd = Command::new(&exe);
        cmd.args(["--workload", name, "--seconds", &args.seconds.to_string()]);
        cmd.args(["--trace", if args.trace { "1" } else { "0" }]);
        if let Some(seed) = args.seed {
            cmd.args(["--seed", &seed.to_string()]);
        }
        let out = cmd
            .stderr(Stdio::inherit())
            .output()
            .map_err(|e| format!("{name}: {e}"))?;
        let stdout = String::from_utf8_lossy(&out.stdout);
        let mut lines: Vec<&str> = stdout.lines().collect();
        let last = lines
            .pop()
            .ok_or_else(|| format!("{name}: no result ({})", out.status))?;
        for line in lines {
            println!("{line}");
        }
        let summary = serde_json::parse_value(last).map_err(|e| format!("{name}: {e}"))?;
        let count = |k: &str| match summary.get(k) {
            Some(Value::Num(n)) => n.as_u64().unwrap_or(0),
            _ => 0,
        };
        let mut line = format!("{name}:");
        if let Some(Value::Object(metrics)) = summary.get("metrics") {
            for (metric, v) in metrics {
                let value = match v.get("value") {
                    Some(Value::Num(n)) => n.as_f64(),
                    _ => f64::NAN,
                };
                let unit = PER_LAYER
                    .iter()
                    .chain(&END_TO_END)
                    .find(|(m, _)| *m == metric)
                    .map_or("", |(_, u)| *u);
                line.push_str(&format!(" {metric} {} {unit} |", significant(value)));
                all.metrics.push((format!("{name}.{metric}"), unit, value));
            }
        }
        eprintln!(
            "{line} {} of {} checks failed",
            count("failed"),
            count("attempted")
        );
        all.attempted += count("attempted");
        all.failed += count("failed");
    }
    Ok(all)
}

/// `--smoke`: every workload once, with every correctness check and no
/// timing.
fn smoke(args: &Args) -> Result<Summary, String> {
    let mut all = Summary::default();
    for name in WORKLOADS {
        let run = run_workload(name, args, Mode::Smoke)?;
        println!("{}", to_json(&run.report));
        all.attempted += run.summary.attempted;
        all.failed += run.summary.failed;
    }
    Ok(all)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    fn benchmark_json() -> Value {
        let path = repo_root().join("BENCHMARK.json");
        let text = fs::read_to_string(&path).expect("BENCHMARK.json is readable");
        serde_json::parse_value(&text).expect("BENCHMARK.json parses")
    }

    fn entries<'v>(doc: &'v Value, key: &str) -> &'v [Value] {
        match doc.get(key) {
            Some(Value::Array(items)) => items,
            _ => panic!("BENCHMARK.json has no `{key}` array"),
        }
    }

    fn str_field<'v>(entry: &'v Value, key: &str) -> &'v str {
        entry
            .get(key)
            .and_then(Value::as_str)
            .unwrap_or_else(|| panic!("entry without string `{key}`: {entry:?}"))
    }

    fn valid_name(name: &str) -> bool {
        name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn benchmark_json_matches_the_name_tables() {
        let doc = benchmark_json();
        let Value::Object(fields) = &doc else {
            panic!("BENCHMARK.json is not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(
            keys,
            [
                "command",
                "paths",
                "run_seconds",
                "workloads",
                "end_to_end",
                "per_layer"
            ]
        );
        match doc.get("run_seconds") {
            Some(Value::Num(n)) => assert_eq!(n.as_u64().map(|s| s as f64), Some(DEFAULT_SECONDS)),
            other => panic!("run_seconds is {other:?}"),
        }

        let workloads: Vec<&str> = entries(&doc, "workloads")
            .iter()
            .map(|w| str_field(w, "name"))
            .collect();
        assert_eq!(workloads, WORKLOADS);
        for w in entries(&doc, "workloads") {
            let why = str_field(w, "why");
            assert!(
                !why.is_empty() && why.len() <= 200 && !why.contains('\n'),
                "why: {why:?}"
            );
        }

        let mut seen = HashSet::new();
        let mut setup_bound = 0.0;
        let mut max_bound: f64 = 0.0;
        for (key, table) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<(&str, &str)> = entries(&doc, key)
                .iter()
                .map(|m| (str_field(m, "name"), str_field(m, "unit")))
                .collect();
            assert_eq!(listed, table, "{key} differs from the binary's table");
            for m in entries(&doc, key) {
                let name = str_field(m, "name");
                let unit = str_field(m, "unit");
                assert!(valid_name(name), "bad metric name {name:?}");
                assert!(
                    unit.len() <= 16
                        && unit
                            .chars()
                            .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                    "bad unit {unit:?}"
                );
                assert!(seen.insert(name), "metric {name} listed twice");
                if key == "end_to_end" {
                    let Some(Value::Num(bound)) = m.get("bound") else {
                        panic!("{name} has no bound")
                    };
                    let bound = bound.as_f64();
                    assert!(bound > 0.0 && bound <= 0.25, "{name} bound {bound}");
                    max_bound = max_bound.max(bound);
                    if name == "setup_s" {
                        setup_bound = bound;
                    }
                }
            }
        }
        assert!(WORKLOADS.iter().all(|w| valid_name(w)));
        assert_eq!(setup_bound, max_bound, "setup_s carries the largest bound");
    }

    #[test]
    fn job_counts_hold() {
        let count = |name| Jobs::for_workload(name).expect("listed").len();
        assert_eq!(count("qbone_paper_grid"), 144);
        assert_eq!(count("aggregate_rotation"), 110);
        assert_eq!(count("transport_tcp"), 40);
        assert_eq!(count("warm_replay"), 294);

        let members = Jobs::for_workload("aggregate_rotation")
            .expect("listed")
            .aggregate;
        let classes: HashSet<String> = members
            .iter()
            .map(|cfg| dsv_scenario::canonicalize(&dsv_core::aggregate::aggregate_spec(cfg)).json())
            .collect();
        assert_eq!(
            classes.len(),
            40,
            "110 members collapse to 40 canonical classes"
        );
    }

    #[test]
    fn shuffle_draws_a_permutation_that_unshuffle_inverts() {
        let jobs = Jobs::for_workload("warm_replay").expect("listed");
        let (shuffled, order) = jobs.shuffled(&mut SimRng::seed_from_u64(7));
        let configs = |jobs: &Jobs| -> Vec<String> {
            jobs.qbone
                .iter()
                .map(|j| format!("{j:?}"))
                .chain(jobs.aggregate.iter().map(|c| format!("{c:?}")))
                .chain(jobs.flows.iter().map(|j| format!("{j:?}")))
                .collect()
        };
        let (committed, drawn) = (configs(&jobs), configs(&shuffled));
        assert_ne!(committed, drawn, "the seed moves jobs");
        for (position, &index) in order.iter().enumerate() {
            assert_eq!(drawn[position], committed[index]);
        }
        assert_eq!(workload::unshuffle(drawn, &order), committed);
    }

    #[test]
    fn committed_files_pin_every_grid() {
        for name in WORKLOADS {
            let jobs = Jobs::for_workload(name).expect("listed");
            let expected =
                workload::committed(&jobs, &repo_root()).expect("committed files match the grids");
            let pinned = expected.iter().filter(|e| e.is_some()).count();
            let rotated =
                jobs.aggregate.len() - jobs.aggregate.iter().filter(|c| c.rotation == 0).count();
            assert_eq!(pinned, jobs.len() - rotated, "{name}");
        }
    }

    #[test]
    fn args_reject_unknown_workloads_and_bad_values() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(str::to_string));
        assert!(parse("--workload qbone_paper_grid --seed 3 --seconds 10 --trace 1").is_ok());
        assert!(parse("--workload nope").is_err());
        assert!(parse("--workload all --trace 2").is_err());
        assert!(parse("--workload all --seconds 0").is_err());
        assert!(parse("--workload all --trace 1 --trace-file t.json").is_err());
    }

    #[test]
    fn quantiles_interpolate() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0, 5.0], 0.75), 4.0);
        assert_eq!(median(&[1.0, 2.0]), 1.5);
        assert_eq!(significant(0.00011698), "0.0001170");
        assert_eq!(significant(9391.10), "9391");
    }

    #[test]
    fn samples_rescale_by_their_own_probe() {
        let mut s = Samples::default();
        s.push(0.5, probe::REF_S);
        s.push(1.0, 2.0 * probe::REF_S);
        assert_eq!(s.ref_s(), [0.5, 0.5]);
    }
}
