//! Whole-pipeline determinism: a run is a pure function of its
//! configuration and seed, from packet trace through VQM score. This is
//! the property that makes every number in EXPERIMENTS.md reproducible by
//! `cargo run`.

use dsv_core::prelude::*;

#[test]
fn qbone_runs_are_bit_identical() {
    let cfg = QboneConfig::new(
        ClipId2::Lost,
        1_500_000,
        EfProfile::new(1_600_000, DEPTH_2MTU),
    );
    let (a_out, a_rep) = run_qbone_detailed(&cfg);
    let (b_out, b_rep) = run_qbone_detailed(&cfg);
    assert_eq!(a_out.quality, b_out.quality);
    assert_eq!(a_out.frame_loss, b_out.frame_loss);
    assert_eq!(a_out.policer_drops, b_out.policer_drops);
    assert_eq!(a_rep.arrival, b_rep.arrival);
    assert_eq!(a_rep.playback.displayed, b_rep.playback.displayed);
}

#[test]
fn local_runs_are_bit_identical_including_cross_traffic() {
    let mut cfg = LocalConfig::new(
        ClipId2::Lost,
        EfProfile::new(1_300_000, DEPTH_3MTU),
        LocalTransport::Udp,
    );
    cfg.cross_traffic = true;
    let a = run_local(&cfg);
    let b = run_local(&cfg);
    assert_eq!(a.quality, b.quality);
    assert_eq!(a.rx_packets, b.rx_packets);
    assert_eq!(a.mean_delay_ms, b.mean_delay_ms);
}

#[test]
fn seeds_change_cross_traffic_but_not_the_regime() {
    let mk = |seed: u64| {
        let mut cfg = LocalConfig::new(
            ClipId2::Lost,
            EfProfile::new(1_600_000, DEPTH_3MTU),
            LocalTransport::Udp,
        );
        cfg.cross_traffic = true;
        cfg.seed = seed;
        run_local(&cfg)
    };
    let a = mk(1);
    let b = mk(2);
    // Different random background, same conclusion.
    assert!(
        (a.quality - b.quality).abs() < 0.2,
        "seeds flipped the regime: {} vs {}",
        a.quality,
        b.quality
    );
}

/// A QBone sweep of clip Lost at `enc` over `rates` and both paper
/// depths, through `runner`.
fn lost_sweep(runner: &Runner, enc: u64, rates: &[u64], label: &str) -> SweepResult {
    let depths = [DEPTH_2MTU, DEPTH_3MTU];
    let jobs = sweep_jobs(rates, &depths, |profile| {
        Job::Qbone(QboneConfig::new(ClipId2::Lost, enc, profile))
    });
    SweepResult::new(label, rates, &depths, runner.run(&jobs))
}

#[test]
fn parallel_sweep_is_byte_identical_to_serial() {
    // The runner fans grid points across threads; because every outcome
    // is a pure function of its config, the serialized SweepResult must
    // be byte-for-byte what a serial run produces.
    let rates = [900_000u64, 1_400_000];
    let label = "2x2 determinism grid";
    let serial = lost_sweep(&Runner::serial(), 1_000_000, &rates, label);
    let parallel = lost_sweep(&Runner::serial().with_threads(8), 1_000_000, &rates, label);
    assert_eq!(
        serde_json::to_string_pretty(&serial).unwrap(),
        serde_json::to_string_pretty(&parallel).unwrap(),
        "parallel sweep diverged from serial"
    );
}

#[test]
fn cached_sweep_replays_the_computed_result() {
    let dir = std::env::temp_dir().join(format!("dsv-determinism-cache-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let rates = [900_000u64, 1_400_000];
    let runner = Runner::serial().with_cache(Some(dir.clone()));
    let cold = lost_sweep(&runner, 1_000_000, &rates, "cache grid");
    assert_eq!(
        std::fs::read_dir(&dir).unwrap().count(),
        4,
        "each grid point persists one cache entry"
    );
    let warm = lost_sweep(&runner, 1_000_000, &rates, "cache grid");
    assert_eq!(
        serde_json::to_string_pretty(&cold).unwrap(),
        serde_json::to_string_pretty(&warm).unwrap(),
        "cache replay diverged from computation"
    );
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn sweep_encodes_each_artifact_at_most_once() {
    use dsv_core::artifacts::{self, Codec};
    // An encoding rate no other test uses, so the process-wide counter
    // for this key is entirely ours. No test in this binary clears the
    // artifact store, so the one encode cannot be repeated.
    let enc = 1_234_567u64;
    lost_sweep(
        &Runner::serial().with_threads(4),
        enc,
        &[900_011, 1_400_011],
        "at-most-once grid",
    );
    assert_eq!(
        artifacts::encode_runs(dsv_media::scene::ClipId::Lost, Codec::Mpeg1, enc),
        1,
        "4 grid points and 4 workers must share one encode"
    );
}

#[test]
fn tcp_runs_are_bit_identical() {
    let mut cfg = LocalConfig::new(
        ClipId2::Lost,
        EfProfile::new(1_300_000, DEPTH_3MTU),
        LocalTransport::Tcp,
    );
    cfg.shaped = true;
    let a = run_local(&cfg);
    let b = run_local(&cfg);
    assert_eq!(a.quality, b.quality);
    assert_eq!(a.rx_packets, b.rx_packets);
}
