//! The four named workloads: their job grids, how one round runs, and
//! the committed outcomes every point must reproduce.
//!
//! The grids are the ones the committed result files pin: the paper's
//! Figures 7–12 (`results/fig07…fig12_*.json`), the Figure 16 aggregate
//! grid re-declared at every rotation up to 4 (`findings_aggregate.json`
//! pins rotation 0), and the Figure 17/18 transport grids
//! (`findings_tcp_smoothing.json`, `findings_af_tcp.json`). The golden
//! files' config checksums are recomputed here, so a grid that drifts
//! from the committed one is reported as a failed check, not measured.

use std::fs;
use std::path::Path;

use dsv_bench::figures::qbone_grid;
use dsv_core::artifacts::{self, Codec};
use dsv_core::keys::fnv1a64;
use dsv_core::prelude::*;
use dsv_core::smoothing::{DEPTH_10MTU, DEPTH_40MTU};
use dsv_sim::SimRng;
use serde::Value;

/// Workload names, in the order `--workload all` runs them.
pub const WORKLOADS: [&str; 4] = [
    "qbone_paper_grid",
    "aggregate_rotation",
    "transport_tcp",
    "warm_replay",
];

/// Figures 7–12: committed file, clip and encoding rate.
const QBONE_FIGURES: [(&str, ClipId2, u64); 6] = [
    ("fig07_qbone_lost_1700k", ClipId2::Lost, 1_700_000),
    ("fig08_qbone_lost_1500k", ClipId2::Lost, 1_500_000),
    ("fig09_qbone_lost_1000k", ClipId2::Lost, 1_000_000),
    ("fig10_qbone_dark_1700k", ClipId2::Dark, 1_700_000),
    ("fig11_qbone_dark_1500k", ClipId2::Dark, 1_500_000),
    ("fig12_qbone_dark_1000k", ClipId2::Dark, 1_000_000),
];
const PAPER_DEPTHS: [u32; 2] = [DEPTH_2MTU, DEPTH_3MTU];

/// One round's jobs, grouped by the runner entry point that serves them.
#[derive(Debug, Clone, Default)]
pub struct Jobs {
    /// Single-stream VQM-scored points (`Runner::run_clustered`).
    pub qbone: Vec<Job>,
    /// Multi-flow aggregates (`Runner::run_aggregate_clustered`).
    pub aggregate: Vec<AggregateConfig>,
    /// Transport-level jobs (`Runner::run_flows_clustered`).
    pub flows: Vec<FlowJob>,
}

/// One round's outcomes with their provenance, in job order.
pub struct Outcomes {
    qbone: Vec<ClusterPoint<RunOutcome>>,
    aggregate: Vec<ClusterPoint<AggregateOutcome>>,
    flows: Vec<ClusterPoint<FlowsOutcome>>,
}

impl Jobs {
    /// The jobs of a named workload, in their committed order.
    pub fn for_workload(name: &str) -> Option<Jobs> {
        let jobs = match name {
            "qbone_paper_grid" => Jobs {
                qbone: qbone_jobs(),
                ..Jobs::default()
            },
            "aggregate_rotation" => Jobs {
                aggregate: rotation_members(),
                ..Jobs::default()
            },
            "transport_tcp" => Jobs {
                flows: [smoothing_jobs(), af_tcp_jobs()].concat(),
                ..Jobs::default()
            },
            "warm_replay" => Jobs {
                qbone: qbone_jobs(),
                aggregate: rotation_members(),
                flows: [smoothing_jobs(), af_tcp_jobs()].concat(),
            },
            _ => return None,
        };
        Some(jobs)
    }

    /// Grid points per round.
    pub fn len(&self) -> usize {
        self.qbone.len() + self.aggregate.len() + self.flows.len()
    }

    /// The same jobs in an order drawn from `rng` — a Fisher–Yates
    /// shuffle within each runner entry point — and that order:
    /// `order[i]` is the index in `self` of the job at position `i`.
    pub fn shuffled(&self, rng: &mut SimRng) -> (Jobs, Vec<usize>) {
        let mut order = Vec::with_capacity(self.len());
        let mut draw = |len: usize| {
            let base = order.len();
            let mut perm: Vec<usize> = (0..len).collect();
            for i in (1..len).rev() {
                perm.swap(i, rng.uniform_u64(0, i as u64) as usize);
            }
            order.extend(perm.iter().map(|&i| base + i));
            perm
        };
        let jobs = Jobs {
            qbone: pick(&self.qbone, &draw(self.qbone.len())),
            aggregate: pick(&self.aggregate, &draw(self.aggregate.len())),
            flows: pick(&self.flows, &draw(self.flows.len())),
        };
        (jobs, order)
    }

    /// One round: every job through `runner`'s public batch entry points.
    pub fn run(&self, runner: &Runner) -> Outcomes {
        Outcomes {
            qbone: runner.run_clustered(&self.qbone),
            aggregate: runner.run_aggregate_clustered(&self.aggregate),
            flows: runner.run_flows_clustered(&self.flows),
        }
    }

    /// Build every memoized artifact the jobs read: encodings for every
    /// streamed clip and rate, plus source and reference features for the
    /// VQM-scored ones.
    pub fn warm_artifacts(&self) {
        let scored = |clip: ClipId2, encoding_bps: u64| {
            artifacts::source_features(clip.into());
            artifacts::reference_features(clip.into(), Codec::Mpeg1, encoding_bps);
        };
        for job in &self.qbone {
            if let Job::Qbone(cfg) = job {
                scored(cfg.clip, cfg.encoding_bps);
            }
        }
        for cfg in &self.aggregate {
            scored(cfg.clip, cfg.encoding_bps);
        }
        for job in &self.flows {
            if let FlowJob::Smoothing(cfg) = job {
                if cfg.server != SmoothingServer::Abr {
                    artifacts::encoding(cfg.clip.into(), Codec::Mpeg1, cfg.encoding_bps);
                }
            }
        }
    }
}

impl Outcomes {
    /// Each point's outcome as compact JSON, in job order — the bytes
    /// the correctness checks compare.
    pub fn lines(&self) -> Vec<String> {
        fn json<T: serde::Serialize>(
            points: &[ClusterPoint<T>],
        ) -> impl Iterator<Item = String> + '_ {
            points
                .iter()
                .map(|p| serde_json::to_string(&p.outcome).expect("outcomes serialize"))
        }
        json(&self.qbone)
            .chain(json(&self.aggregate))
            .chain(json(&self.flows))
            .collect()
    }

    /// How many points this round actually simulated (neither cached
    /// nor transplanted from a cluster representative).
    pub fn simulated(&self) -> usize {
        let simulated = |s: &PointSource| matches!(s, PointSource::Simulated);
        self.qbone.iter().filter(|p| simulated(&p.source)).count()
            + self
                .aggregate
                .iter()
                .filter(|p| simulated(&p.source))
                .count()
            + self.flows.iter().filter(|p| simulated(&p.source)).count()
    }
}

fn pick<T: Clone>(items: &[T], order: &[usize]) -> Vec<T> {
    order.iter().map(|&i| items[i].clone()).collect()
}

/// Lines of a batch run in `order` (see [`Jobs::shuffled`]), back in
/// the jobs' own order.
pub fn unshuffle(lines: Vec<String>, order: &[usize]) -> Vec<String> {
    let mut out = vec![String::new(); lines.len()];
    for (line, &i) in lines.into_iter().zip(order) {
        out[i] = line;
    }
    out
}

fn qbone_jobs() -> Vec<Job> {
    let mut jobs = Vec::new();
    for (_, clip, enc) in QBONE_FIGURES {
        for depth in PAPER_DEPTHS {
            for rate in qbone_grid(enc) {
                jobs.push(Job::Qbone(QboneConfig::new(
                    clip,
                    enc,
                    EfProfile::new(rate, depth),
                )));
            }
        }
    }
    jobs
}

/// The Figure 16 grid: depth-major, then flow count, then rate fraction.
fn aggregate_grid() -> Vec<AggregateConfig> {
    const ENC: u64 = 1_000_000;
    let mut cfgs = Vec::new();
    for depth in PAPER_DEPTHS {
        for flows in [1u32, 2, 4, 8] {
            for frac in [0.9, 1.0, 1.1, 1.25, 1.4] {
                let rate = (ENC as f64 * flows as f64 * frac) as u64;
                cfgs.push(AggregateConfig::new(
                    ClipId2::Lost,
                    ENC,
                    flows,
                    EfProfile::new(rate, depth),
                ));
            }
        }
    }
    cfgs
}

/// Every grid config re-declared at each distinct rotation up to 4.
fn rotation_members() -> Vec<AggregateConfig> {
    aggregate_grid()
        .into_iter()
        .flat_map(|cfg| (0..cfg.flows.min(4)).map(move |rot| cfg.clone().with_rotation(rot)))
        .collect()
}

/// The Figure 17 grid: server-major, then token rate, then depth.
fn smoothing_jobs() -> Vec<FlowJob> {
    let mut jobs = Vec::new();
    for server in [
        SmoothingServer::Bursty,
        SmoothingServer::Tcp,
        SmoothingServer::Abr,
    ] {
        for rate in [800_000u64, 1_650_000, 5_000_000] {
            for depth in [DEPTH_2MTU, DEPTH_10MTU, DEPTH_40MTU] {
                jobs.push(FlowJob::Smoothing(SmoothingConfig::new(
                    ClipId2::Lost,
                    1_500_000,
                    server,
                    EfProfile::new(rate, depth),
                )));
            }
        }
    }
    jobs
}

/// The Figure 18 grid: the srTCM provisioning ladder, the same ladder
/// under trTCM, then the RTT and target heterogeneity probes.
fn af_tcp_jobs() -> Vec<FlowJob> {
    const BOTTLENECK: u64 = 6_000_000;
    let mut jobs = Vec::new();
    for trtcm in [false, true] {
        for frac in [0.3, 0.5, 0.7, 0.85, 0.95] {
            let per_flow = (BOTTLENECK as f64 * frac / 4.0) as u64;
            let mut cfg = AfTcpConfig::new(vec![per_flow; 4], vec![0; 4]);
            cfg.trtcm = trtcm;
            jobs.push(FlowJob::AfTcp(cfg));
        }
    }
    for (targets, rtts) in [
        (vec![1_050_000; 4], vec![0, 0, 40, 40]),
        (vec![250_000, 500_000, 750_000, 1_350_000], vec![0; 4]),
        (vec![500_000, 1_000_000, 1_500_000, 2_700_000], vec![0; 4]),
    ] {
        jobs.push(FlowJob::AfTcp(AfTcpConfig::new(targets, rtts)));
    }
    jobs
}

/// The committed outcome of each point of `jobs` (a workload's jobs in
/// their committed order), as compact JSON; `None` for rotated aggregate
/// members, which no file pins.
pub fn committed(jobs: &Jobs, root: &Path) -> Result<Vec<Option<String>>, String> {
    let mut out = Vec::with_capacity(jobs.len());
    if !jobs.qbone.is_empty() {
        for (file, _, enc) in QBONE_FIGURES {
            let doc = read_result(root, file)?;
            let points = array(&doc, "points", file)?;
            let grid: Vec<(u64, u32)> = PAPER_DEPTHS
                .iter()
                .flat_map(|&d| qbone_grid(enc).into_iter().map(move |r| (r, d)))
                .collect();
            if points.len() != grid.len() {
                return Err(format!(
                    "{file}: {} points, expected {}",
                    points.len(),
                    grid.len()
                ));
            }
            for (point, &(rate, depth)) in points.iter().zip(&grid) {
                let at = |key: &str| match point.get(key) {
                    Some(Value::Num(n)) => n.as_u64(),
                    _ => None,
                };
                if at("token_rate_bps") != Some(rate)
                    || at("bucket_depth_bytes") != Some(depth as u64)
                {
                    return Err(format!(
                        "{file}: point order differs from the grid at {rate} bps/{depth} B"
                    ));
                }
                out.push(Some(compact(point.get("outcome"), file)?));
            }
        }
    }
    if !jobs.aggregate.is_empty() {
        let grid = aggregate_grid();
        let configs = grid.iter().map(|c| ("aggregate", to_json(c)));
        let outcomes = golden(root, "findings_aggregate", configs)?;
        for (cfg, outcome) in grid.iter().zip(outcomes) {
            out.push(Some(outcome));
            out.extend((1..cfg.flows.min(4)).map(|_| None));
        }
    }
    if !jobs.flows.is_empty() {
        for (file, grid) in [
            ("findings_tcp_smoothing", smoothing_jobs()),
            ("findings_af_tcp", af_tcp_jobs()),
        ] {
            let configs = grid.iter().map(|job| {
                let json = match job {
                    FlowJob::Smoothing(cfg) => to_json(cfg),
                    FlowJob::AfTcp(cfg) => to_json(cfg),
                };
                (job.kind(), json)
            });
            out.extend(golden(root, file, configs)?.into_iter().map(Some));
        }
    }
    if out.len() != jobs.len() {
        return Err(format!(
            "committed outcomes cover {} of {} points",
            out.len(),
            jobs.len()
        ));
    }
    Ok(out)
}

/// The outcomes of a golden file, after checking that its config checksum
/// is the one `dsv_core::golden` computes for `configs` (kind, config
/// JSON) — i.e. that the file pins exactly this grid.
fn golden<'a>(
    root: &Path,
    file: &str,
    configs: impl Iterator<Item = (&'a str, String)>,
) -> Result<Vec<String>, String> {
    let mut bytes = Vec::new();
    let mut count = 0;
    for (kind, json) in configs {
        bytes.extend_from_slice(kind.as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(json.as_bytes());
        bytes.push(0xff);
        count += 1;
    }
    let doc = read_result(root, file)?;
    let want = format!("{:016x}", fnv1a64(&bytes));
    if doc.get("config_fnv").and_then(Value::as_str) != Some(want.as_str()) {
        return Err(format!(
            "{file}: config checksum is not the benchmark grid's {want}"
        ));
    }
    let outcomes = array(&doc, "outcomes", file)?;
    if outcomes.len() != count {
        return Err(format!(
            "{file}: {} outcomes for {count} configs",
            outcomes.len()
        ));
    }
    outcomes.iter().map(|o| compact(Some(o), file)).collect()
}

fn to_json<T: serde::Serialize>(value: &T) -> String {
    serde_json::to_string(value).expect("configs serialize")
}

fn read_result(root: &Path, file: &str) -> Result<Value, String> {
    let path = root.join("results").join(format!("{file}.json"));
    let text = fs::read_to_string(&path).map_err(|e| format!("{}: {e}", path.display()))?;
    serde_json::parse_value(&text).map_err(|e| format!("{}: {e}", path.display()))
}

fn array<'v>(doc: &'v Value, key: &str, file: &str) -> Result<&'v [Value], String> {
    match doc.get(key) {
        Some(Value::Array(items)) => Ok(items),
        _ => Err(format!("{file}: no `{key}` array")),
    }
}

fn compact(value: Option<&Value>, file: &str) -> Result<String, String> {
    let value = value.ok_or_else(|| format!("{file}: a point has no outcome"))?;
    Ok(serde_json::to_string(value).expect("values serialize"))
}
