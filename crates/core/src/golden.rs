//! Golden-backed experiment results for the paper-finding tests.
//!
//! The paper-finding tests assert qualitative claims (monotonicity,
//! crossings, cutoffs) over grids of simulation runs. Re-simulating the
//! grids on every `cargo test` made the suite's cold-cache cost dominate
//! CI; [`golden_outcomes`] instead loads a committed `results/<name>.json`
//! when one exists and only re-simulates when
//!
//! * the file is missing (first run — the file is then written), or
//! * `DSV_REGEN=1` is set (explicit regeneration), or
//! * never silently: if the committed file was generated from *different*
//!   job configurations than the test now requests, the checksum guard
//!   fails loudly instead of returning stale outcomes.
//!
//! The checksum is FNV-1a over every job's `(kind, canonical config
//! JSON)` — the same content-addressing the runner's cache uses — so any
//! change to a tested configuration (grid points, seeds, profiles)
//! invalidates the golden by construction.

use std::fs;
use std::path::PathBuf;

use serde::{Deserialize, Serialize};

use crate::aggregate::{AggregateConfig, AggregateOutcome};
use crate::experiment::{EfProfile, RunOutcome};
use crate::flows::FlowsOutcome;
use crate::keys::fnv1a64;
use crate::local::LocalConfig;
use crate::qbone::QboneConfig;
use crate::runner::{FlowJob, Job, Runner};
use crate::sweep::{SweepPoint, SweepResult};

/// On-disk format of a golden results file.
#[derive(Debug, Serialize, Deserialize)]
struct GoldenFile {
    /// FNV-1a (hex) over the generating jobs' kinds + config JSON.
    config_fnv: String,
    /// Number of jobs (redundant with `outcomes.len()`, kept for diffs).
    jobs: usize,
    /// One outcome per job, in job order.
    outcomes: Vec<RunOutcome>,
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

fn regen_requested() -> bool {
    dsv_sim::env::flag_from_env("DSV_REGEN").unwrap_or(false)
}

/// Checksum over the jobs that generate a golden file.
fn jobs_fnv(jobs: &[Job]) -> String {
    let mut bytes = Vec::new();
    for job in jobs {
        bytes.extend_from_slice(job.kind().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(job.config_json().as_bytes());
        bytes.push(0xff);
    }
    format!("{:016x}", fnv1a64(&bytes))
}

/// Outcomes for `jobs`, loaded from `results/<name>.json` when the
/// committed golden matches, otherwise simulated (and the golden
/// rewritten). See module docs for the exact rules.
///
/// # Panics
/// Panics if the committed golden was generated from different job
/// configurations (stale golden) or cannot be parsed — both cases need a
/// deliberate `DSV_REGEN=1` rerun, never a silent re-bless.
pub fn golden_outcomes(name: &str, jobs: &[Job]) -> Vec<RunOutcome> {
    let path = results_dir().join(format!("{name}.json"));
    let sum = jobs_fnv(jobs);

    if !regen_requested() {
        if let Ok(text) = fs::read_to_string(&path) {
            let file: GoldenFile = serde_json::from_str(&text).unwrap_or_else(|e| {
                panic!(
                    "golden {} is unreadable ({e}); regenerate with DSV_REGEN=1",
                    path.display()
                )
            });
            assert_eq!(
                file.config_fnv,
                sum,
                "stale golden {}: it was generated from different job \
                 configurations (checksum {} on disk, {} expected). The tested \
                 grid changed — rerun with DSV_REGEN=1 and commit the result.",
                path.display(),
                file.config_fnv,
                sum
            );
            assert_eq!(
                file.outcomes.len(),
                jobs.len(),
                "golden {}: outcome count mismatch despite matching checksum",
                path.display()
            );
            return file.outcomes;
        }
    }

    let outcomes = Runner::from_env().run(jobs);
    let file = GoldenFile {
        config_fnv: sum,
        jobs: jobs.len(),
        outcomes: outcomes.clone(),
    };
    let text = serde_json::to_string_pretty(&file).expect("golden serializes");
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    // Atomic replace so a parallel reader never sees a half-written file.
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, &text).expect("write golden temp file");
    fs::rename(&tmp, &path).expect("publish golden file");
    outcomes
}

/// Assemble sweep points from outcomes in the runner's (depth-major)
/// grid order — the same zip [`crate::runner::Runner::qbone_sweep`] uses.
fn assemble_sweep(
    outcomes: Vec<RunOutcome>,
    rates: &[u64],
    depths: &[u32],
    label: &str,
) -> SweepResult {
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
        label: label.to_string(),
        points,
    }
}

/// A golden-backed QBone sweep: the same `rates × depths` grid
/// [`crate::sweep::qbone_sweep`] runs, with outcomes served through
/// [`golden_outcomes`] under the same staleness rules.
pub fn golden_qbone_sweep(
    name: &str,
    base: &QboneConfig,
    rates: &[u64],
    depths: &[u32],
    label: &str,
) -> SweepResult {
    let mut jobs = Vec::with_capacity(rates.len() * depths.len());
    for &depth in depths {
        for &rate in rates {
            let mut cfg = base.clone();
            cfg.profile = EfProfile::new(rate, depth);
            jobs.push(Job::Qbone(cfg));
        }
    }
    assemble_sweep(golden_outcomes(name, &jobs), rates, depths, label)
}

/// A golden-backed local-testbed sweep (see [`golden_qbone_sweep`]).
pub fn golden_local_sweep(
    name: &str,
    base: &LocalConfig,
    rates: &[u64],
    depths: &[u32],
    label: &str,
) -> SweepResult {
    let mut jobs = Vec::with_capacity(rates.len() * depths.len());
    for &depth in depths {
        for &rate in rates {
            let mut cfg = base.clone();
            cfg.profile = EfProfile::new(rate, depth);
            jobs.push(Job::Local(cfg));
        }
    }
    assemble_sweep(golden_outcomes(name, &jobs), rates, depths, label)
}

/// On-disk format of a golden aggregate-sweep file (same rules as
/// [`GoldenFile`], different outcome shape).
#[derive(Debug, Serialize, Deserialize)]
struct GoldenAggregateFile {
    /// FNV-1a (hex) over the generating configs' canonical JSON.
    config_fnv: String,
    /// Number of configs.
    jobs: usize,
    /// One aggregate outcome per config, in config order.
    outcomes: Vec<AggregateOutcome>,
}

/// Checksum over the aggregate configs that generate a golden file.
fn aggregate_fnv(cfgs: &[AggregateConfig]) -> String {
    let mut bytes = Vec::new();
    for cfg in cfgs {
        bytes.extend_from_slice(b"aggregate");
        bytes.push(0);
        let json = serde_json::to_string(cfg).expect("config serializes");
        bytes.extend_from_slice(json.as_bytes());
        bytes.push(0xff);
    }
    format!("{:016x}", fnv1a64(&bytes))
}

/// Golden-backed EF-aggregate outcomes: the multi-flow analogue of
/// [`golden_outcomes`], with the same load-else-simulate and staleness
/// rules over `results/<name>.json`.
///
/// # Panics
/// Panics on a stale or unreadable golden — regenerate deliberately with
/// `DSV_REGEN=1`.
pub fn golden_aggregate(name: &str, cfgs: &[AggregateConfig]) -> Vec<AggregateOutcome> {
    let path = results_dir().join(format!("{name}.json"));
    let sum = aggregate_fnv(cfgs);

    if !regen_requested() {
        if let Ok(text) = fs::read_to_string(&path) {
            let file: GoldenAggregateFile = serde_json::from_str(&text).unwrap_or_else(|e| {
                panic!(
                    "golden {} is unreadable ({e}); regenerate with DSV_REGEN=1",
                    path.display()
                )
            });
            assert_eq!(
                file.config_fnv,
                sum,
                "stale golden {}: it was generated from different aggregate \
                 configurations (checksum {} on disk, {} expected). The tested \
                 grid changed — rerun with DSV_REGEN=1 and commit the result.",
                path.display(),
                file.config_fnv,
                sum
            );
            assert_eq!(
                file.outcomes.len(),
                cfgs.len(),
                "golden {}: outcome count mismatch despite matching checksum",
                path.display()
            );
            return file.outcomes;
        }
    }

    let outcomes = Runner::from_env().run_aggregate_batch(cfgs);
    let file = GoldenAggregateFile {
        config_fnv: sum,
        jobs: cfgs.len(),
        outcomes: outcomes.clone(),
    };
    let text = serde_json::to_string_pretty(&file).expect("golden serializes");
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, &text).expect("write golden temp file");
    fs::rename(&tmp, &path).expect("publish golden file");
    outcomes
}

/// On-disk format of a golden transport-run file (same rules as
/// [`GoldenFile`], per-flow outcome shape).
#[derive(Debug, Serialize, Deserialize)]
struct GoldenFlowsFile {
    /// FNV-1a (hex) over the generating jobs' kinds + config JSON.
    config_fnv: String,
    /// Number of jobs.
    jobs: usize,
    /// One per-flow outcome set per job, in job order.
    outcomes: Vec<FlowsOutcome>,
}

/// Checksum over the transport jobs that generate a golden file.
fn flow_jobs_fnv(jobs: &[FlowJob]) -> String {
    let mut bytes = Vec::new();
    for job in jobs {
        bytes.extend_from_slice(job.kind().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(job.config_json().as_bytes());
        bytes.push(0xff);
    }
    format!("{:016x}", fnv1a64(&bytes))
}

/// Golden-backed transport-level outcomes: the [`FlowJob`] analogue of
/// [`golden_outcomes`], with the same load-else-simulate and staleness
/// rules over `results/<name>.json`.
///
/// # Panics
/// Panics on a stale or unreadable golden — regenerate deliberately with
/// `DSV_REGEN=1`.
pub fn golden_flows(name: &str, jobs: &[FlowJob]) -> Vec<FlowsOutcome> {
    let path = results_dir().join(format!("{name}.json"));
    let sum = flow_jobs_fnv(jobs);

    if !regen_requested() {
        if let Ok(text) = fs::read_to_string(&path) {
            let file: GoldenFlowsFile = serde_json::from_str(&text).unwrap_or_else(|e| {
                panic!(
                    "golden {} is unreadable ({e}); regenerate with DSV_REGEN=1",
                    path.display()
                )
            });
            assert_eq!(
                file.config_fnv,
                sum,
                "stale golden {}: it was generated from different job \
                 configurations (checksum {} on disk, {} expected). The tested \
                 grid changed — rerun with DSV_REGEN=1 and commit the result.",
                path.display(),
                file.config_fnv,
                sum
            );
            assert_eq!(
                file.outcomes.len(),
                jobs.len(),
                "golden {}: outcome count mismatch despite matching checksum",
                path.display()
            );
            return file.outcomes;
        }
    }

    let outcomes = Runner::from_env().run_flows_batch(jobs);
    let file = GoldenFlowsFile {
        config_fnv: sum,
        jobs: jobs.len(),
        outcomes: outcomes.clone(),
    };
    let text = serde_json::to_string_pretty(&file).expect("golden serializes");
    if let Some(parent) = path.parent() {
        let _ = fs::create_dir_all(parent);
    }
    let tmp = path.with_extension("json.tmp");
    fs::write(&tmp, &text).expect("write golden temp file");
    fs::rename(&tmp, &path).expect("publish golden file");
    outcomes
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::af_tcp::AfTcpConfig;
    use crate::experiment::{EfProfile, DEPTH_2MTU, DEPTH_3MTU};
    use crate::qbone::{ClipId2, QboneConfig};
    use crate::smoothing::{SmoothingConfig, SmoothingServer};

    #[test]
    fn checksum_tracks_configuration() {
        let a = Job::Qbone(QboneConfig::new(
            ClipId2::Lost,
            1_500_000,
            EfProfile::new(1_600_000, DEPTH_2MTU),
        ));
        let b = Job::Qbone(QboneConfig::new(
            ClipId2::Lost,
            1_500_000,
            EfProfile::new(1_600_000, DEPTH_3MTU),
        ));
        assert_eq!(
            jobs_fnv(std::slice::from_ref(&a)),
            jobs_fnv(std::slice::from_ref(&a))
        );
        assert_ne!(
            jobs_fnv(std::slice::from_ref(&a)),
            jobs_fnv(std::slice::from_ref(&b))
        );
        assert_ne!(jobs_fnv(&[a.clone(), b.clone()]), jobs_fnv(&[b, a]));
    }

    #[test]
    fn flow_checksum_tracks_configuration() {
        let a = FlowJob::Smoothing(SmoothingConfig::new(
            ClipId2::Lost,
            1_500_000,
            SmoothingServer::Tcp,
            EfProfile::new(1_600_000, DEPTH_2MTU),
        ));
        let b = FlowJob::AfTcp(AfTcpConfig::new(vec![1_000_000; 2], vec![0, 20]));
        let mut c = AfTcpConfig::new(vec![1_000_000; 2], vec![0, 20]);
        c.trtcm = true;
        let c = FlowJob::AfTcp(c);
        assert_eq!(
            flow_jobs_fnv(std::slice::from_ref(&a)),
            flow_jobs_fnv(std::slice::from_ref(&a))
        );
        assert_ne!(
            flow_jobs_fnv(std::slice::from_ref(&b)),
            flow_jobs_fnv(std::slice::from_ref(&c)),
            "the marker kind is part of the tested configuration"
        );
        assert_ne!(
            flow_jobs_fnv(&[a.clone(), b.clone()]),
            flow_jobs_fnv(&[b, a])
        );
    }
}
