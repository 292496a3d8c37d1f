//! Golden-backed experiment results for the paper-finding tests.
//!
//! The paper-finding tests assert qualitative claims (monotonicity,
//! crossings, cutoffs) over grids of simulation runs. Re-simulating the
//! grids on every `cargo test` made the suite's cold-cache cost dominate
//! CI; [`golden`] instead loads a committed `results/<name>.json` when one
//! exists and only re-simulates when
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
//! invalidates the golden by construction. One loader serves every
//! [`GridJob`]: single-stream [`crate::runner::Job`]s, aggregates and
//! transport [`crate::runner::FlowJob`]s write the same file layout,
//! `{config_fnv, jobs, outcomes}`.
//!
//! Regeneration simulates through the runner and publishes the file with
//! a temp-file write and a rename, under a temp name unique to each write,
//! so the tests of one binary regenerating one golden at once all succeed.

use std::fs;
use std::path::PathBuf;

use crate::config::RunConfig;
use crate::keys::fnv1a64;
use crate::runner::{publish, GridJob, Runner};

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../results")
}

/// Checksum over the jobs that generate a golden file: FNV-1a (hex) over
/// each job's kind, a `0` byte, its config JSON and a `0xff` byte.
fn config_fnv<J: GridJob>(jobs: &[J]) -> String {
    let mut bytes = Vec::new();
    for job in jobs {
        bytes.extend_from_slice(job.kind().as_bytes());
        bytes.push(0);
        bytes.extend_from_slice(job.config_json().as_bytes());
        bytes.push(0xff);
    }
    format!("{:016x}", fnv1a64(&bytes))
}

/// A golden file's checksum and outcomes.
fn parse_golden<O: serde::Deserialize>(text: &str) -> serde_json::Result<(String, Vec<O>)> {
    let file = serde_json::parse_value(text)?;
    Ok((
        serde::de_field(&file, "config_fnv")?,
        serde::de_field(&file, "outcomes")?,
    ))
}

/// Outcomes for `jobs`, loaded from `results/<name>.json` when the
/// committed golden matches, otherwise simulated (and the golden
/// rewritten). See module docs for the exact rules.
///
/// # Panics
/// Panics if the committed golden was generated from different job
/// configurations (stale golden) or cannot be parsed — both cases need a
/// deliberate `DSV_REGEN=1` rerun, never a silent re-bless.
pub fn golden<J: GridJob>(name: &str, jobs: &[J]) -> Vec<J::Outcome> {
    let path = results_dir().join(format!("{name}.json"));

    if !RunConfig::get().regen {
        if let Ok(text) = fs::read_to_string(&path) {
            let (on_disk, outcomes) = parse_golden(&text).unwrap_or_else(|e| {
                panic!(
                    "golden {} is unreadable ({e}); regenerate with DSV_REGEN=1",
                    path.display()
                )
            });
            let sum = config_fnv(jobs);
            assert_eq!(
                on_disk,
                sum,
                "stale golden {}: it was generated from different job \
                 configurations (checksum {on_disk} on disk, {sum} expected). The \
                 tested grid changed — rerun with DSV_REGEN=1 and commit the result.",
                path.display(),
            );
            assert_eq!(
                outcomes.len(),
                jobs.len(),
                "golden {}: outcome count mismatch despite matching checksum",
                path.display()
            );
            return outcomes;
        }
    }

    let outcomes = Runner::from_env().run(jobs);
    publish(&path, &golden_text(jobs, &outcomes)).expect("publish golden file");
    outcomes
}

/// The golden file of `jobs` and their `outcomes`.
fn golden_text<J: GridJob>(jobs: &[J], outcomes: &[J::Outcome]) -> String {
    let file = serde::object_value(&[
        ("config_fnv", &config_fnv(jobs)),
        ("jobs", &jobs.len()),
        ("outcomes", &outcomes),
    ]);
    serde_json::to_string_pretty(&file).expect("golden serializes")
}

/// Exact clustering's contract on a golden's grid: `jobs`, every one
/// simulated on its own ([`Runner::serial`]: no clustering, no cache),
/// give back the committed `results/<name>.json` byte for byte.
///
/// # Panics
/// If the committed file is missing or any byte differs.
pub fn assert_reproduced_point_by_point<J: GridJob>(name: &str, jobs: &[J]) {
    let path = results_dir().join(format!("{name}.json"));
    let committed = fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("golden {} is unreadable ({e})", path.display()));
    let simulated = golden_text(jobs, &Runner::serial().run(jobs));
    assert!(
        simulated == committed,
        "golden {} moved when every point was simulated on its own",
        path.display()
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::af_tcp::AfTcpConfig;
    use crate::experiment::{EfProfile, DEPTH_2MTU, DEPTH_3MTU};
    use crate::qbone::{ClipId2, QboneConfig};
    use crate::runner::{FlowJob, Job};
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
            config_fnv(std::slice::from_ref(&a)),
            config_fnv(std::slice::from_ref(&a))
        );
        assert_ne!(
            config_fnv(std::slice::from_ref(&a)),
            config_fnv(std::slice::from_ref(&b))
        );
        assert_ne!(config_fnv(&[a.clone(), b.clone()]), config_fnv(&[b, a]));
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
            config_fnv(std::slice::from_ref(&a)),
            config_fnv(std::slice::from_ref(&a))
        );
        assert_ne!(
            config_fnv(std::slice::from_ref(&b)),
            config_fnv(std::slice::from_ref(&c)),
            "the marker kind is part of the tested configuration"
        );
        assert_ne!(config_fnv(&[a.clone(), b.clone()]), config_fnv(&[b, a]));
    }
}
