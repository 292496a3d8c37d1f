//! The VQM scorer against its scalar reference.
//!
//! `dsv-vqm` scores a segment the network left intact by taking the
//! reference's own score from a shared cell, and searches alignment
//! offsets four at a time. Both are exact rewrites: [`scalar`] keeps the
//! one-offset search and the segment loop they replaced, and every test
//! here requires the scorer's [`VqmResult`] to match it bit for bit (the
//! overall score, every [`SegmentScore`] and the failed count), through a
//! shared [`Reference`], through a one-off [`Vqm::score_streams`] and
//! through `dsv_core::qoe::score_session`; and the lane search to find
//! the scalar search's offset and correlation on every window, at both
//! stream edges and on ties.

use std::sync::{Arc, Barrier};

use dsv_core::artifacts::{self, Codec};
use dsv_core::experiment::{received_features_from, EfProfile, DEPTH_2MTU};
use dsv_core::qbone::{run_qbone_detailed, ClipId2, QboneConfig};
use dsv_media::features::{displayed_stream, encode_features, FeatureFrame};
use dsv_media::scene::ClipId;
use dsv_vqm::calibration::{align, Calibration};
use dsv_vqm::{Reference, SegmentScore, Vqm, VqmResult};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// The scorer as it was before shared references and lane search: one
/// offset at a time, every segment aligned.
mod scalar {
    use dsv_media::features::FeatureFrame;
    use dsv_vqm::calibration::Calibration;
    use dsv_vqm::params::{extract, QualityParams};
    use dsv_vqm::score::composite;
    use dsv_vqm::{SegmentScore, VqmConfig};

    /// What the scalar scorer reports.
    pub struct Scored {
        pub overall: f64,
        pub segments: Vec<SegmentScore>,
        pub failed_segments: usize,
    }

    /// The one-offset alignment search.
    pub fn align(
        received: &[f64],
        reference: &[f64],
        ref_base: usize,
        uncertainty: usize,
        threshold: f64,
    ) -> Calibration {
        let mut best: Option<(i32, f64)> = None;
        let len = received.len();
        if len == 0 {
            return Calibration::Failed;
        }
        let n = len as f64;
        let ma = received.iter().sum::<f64>() / n;
        let mut va = 0.0;
        for x in received {
            va += (x - ma).powi(2);
        }
        if va < 1e-12 {
            return Calibration::Failed;
        }
        let va_sqrt = va.sqrt();
        let lo = -(uncertainty as i64);
        let hi = uncertainty as i64;
        for off in lo..=hi {
            let start = ref_base as i64 + off;
            if start < 0 || (start as usize + len) > reference.len() {
                continue;
            }
            let window = &reference[start as usize..start as usize + len];
            let mb = window.iter().sum::<f64>() / n;
            let mut cov = 0.0;
            let mut vb = 0.0;
            for (x, y) in received.iter().zip(window) {
                cov += (x - ma) * (y - mb);
                vb += (y - mb).powi(2);
            }
            if vb < 1e-12 {
                continue;
            }
            let c = cov / (va_sqrt * vb.sqrt());
            if best.is_none_or(|(_, bc)| c > bc) {
                best = Some((off as i32, c));
            }
        }
        match best {
            Some((offset, correlation)) if correlation >= threshold => Calibration::Aligned {
                offset,
                correlation,
            },
            _ => Calibration::Failed,
        }
    }

    /// The segment loop, aligning every segment against whole TI copies.
    pub fn score_streams(
        cfg: &VqmConfig,
        reference: &[FeatureFrame],
        received: &[FeatureFrame],
    ) -> Scored {
        assert_eq!(reference.len(), received.len());
        let n = reference.len();
        if n == 0 {
            return Scored {
                overall: cfg.failed_segment_score,
                segments: Vec::new(),
                failed_segments: 0,
            };
        }
        let ref_ti: Vec<f64> = reference.iter().map(|f| f.ti).collect();
        let rec_ti: Vec<f64> = received.iter().map(|f| f.ti).collect();
        let stride = cfg.segment_frames - cfg.overlap_frames;
        let mut starts: Vec<usize> = (0..)
            .map(|k| k * stride)
            .take_while(|s| s + cfg.segment_frames <= n)
            .collect();
        if starts.is_empty() {
            starts.push(0);
        }
        let mut segments = Vec::with_capacity(starts.len());
        for &start in &starts {
            let end = (start + cfg.segment_frames).min(n);
            let (w_lo, w_hi) = if end - start > 2 * cfg.overlap_frames {
                (start + cfg.overlap_frames, end - cfg.overlap_frames)
            } else {
                (start, end)
            };
            let cal = align(
                &rec_ti[w_lo..w_hi],
                &ref_ti,
                w_lo,
                cfg.alignment_uncertainty,
                cfg.calibration_threshold,
            );
            segments.push(match cal {
                Calibration::Failed => SegmentScore {
                    start,
                    score: cfg.failed_segment_score,
                    calibrated: false,
                    offset: 0,
                    params: QualityParams::default(),
                },
                Calibration::Aligned { offset, .. } => {
                    let ref_lo = (w_lo as i64 + offset as i64) as usize;
                    let ref_hi = ref_lo + (w_hi - w_lo);
                    let p = extract(&reference[ref_lo..ref_hi], &received[w_lo..w_hi]);
                    SegmentScore {
                        start,
                        score: composite(&p, &cfg.weights),
                        calibrated: true,
                        offset,
                        params: p,
                    }
                }
            });
        }
        let failed = segments.iter().filter(|s| !s.calibrated).count();
        let overall = segments.iter().map(|s| s.score).sum::<f64>() / segments.len() as f64;
        Scored {
            overall,
            segments,
            failed_segments: failed,
        }
    }
}

/// The scalar scorer's result under the default configuration.
fn scalar(reference: &[FeatureFrame], received: &[FeatureFrame]) -> scalar::Scored {
    scalar::score_streams(&Vqm::default().config, reference, received)
}

/// Every bit of every parameter of a segment.
fn segment_bits(s: &SegmentScore) -> (usize, u64, bool, i32, [u64; 7]) {
    let p = &s.params;
    let params = [
        p.si_loss,
        p.si_gain,
        p.ti_loss,
        p.ti_gain,
        p.freeze_fraction,
        p.luma_diff,
        p.chroma_diff,
    ]
    .map(f64::to_bits);
    (s.start, s.score.to_bits(), s.calibrated, s.offset, params)
}

/// Require `got` to be bit-identical to the scalar scorer's `want`.
fn assert_identical(got: &VqmResult, want: &scalar::Scored, what: &str) {
    assert_eq!(
        got.overall.to_bits(),
        want.overall.to_bits(),
        "{what}: overall {} against {}",
        got.overall,
        want.overall
    );
    assert_eq!(got.segments.len(), want.segments.len(), "{what}: segments");
    for (k, (g, w)) in got.segments.iter().zip(&want.segments).enumerate() {
        assert_eq!(segment_bits(g), segment_bits(w), "{what}: segment {k}");
    }
    assert_eq!(got.failed_segments, want.failed_segments, "{what}: failed");
}

/// Both scorer entry points against the scalar one.
fn check(shared: &Reference, received: &[FeatureFrame], what: &str) -> VqmResult {
    let want = scalar(shared, received);
    let got = shared.score(received);
    assert_identical(&got, &want, &format!("{what} (shared reference)"));
    assert_identical(
        &Vqm::default().score_streams(shared, received),
        &want,
        &format!("{what} (one-off reference)"),
    );
    got
}

/// Clip Lost's 1.5 Mbps encoding: the shared reference, and each frame's
/// source features and encoding fidelity, from which sessions are built
/// as `received_features_from` builds them.
struct Clip {
    reference: Arc<Reference>,
    source: Arc<Vec<FeatureFrame>>,
    fidelity: Vec<f64>,
}

fn lost() -> Clip {
    let encoding = artifacts::encoding(ClipId::Lost, Codec::Mpeg1, 1_500_000);
    Clip {
        reference: artifacts::reference_features(ClipId::Lost, Codec::Mpeg1, 1_500_000),
        source: artifacts::source_features(ClipId::Lost),
        fidelity: encoding.frames.iter().map(|f| f.fidelity).collect(),
    }
}

impl Clip {
    /// The stream a viewer sees who displays `displayed` (a source frame
    /// per slot), each frame at its `fidelity`.
    fn session(&self, fidelity: &[f64], displayed: &[u32]) -> Vec<FeatureFrame> {
        let per_frame: Vec<FeatureFrame> = self
            .source
            .iter()
            .zip(fidelity)
            .map(|(s, &f)| encode_features(*s, f))
            .collect();
        displayed_stream(&per_frame, displayed)
    }
}

/// A seeded session: freeze runs (a slot repeating the last frame shown
/// for 1 to 40 slots), single lost frames, stretches received at another
/// fidelity, and single slots where one feature other than TI moves by
/// a rounding step, each present or not.
fn random_session(clip: &Clip, rng: &mut SmallRng) -> Vec<FeatureFrame> {
    let n = clip.source.len();
    let mut displayed: Vec<u32> = (0..n as u32).collect();
    let mut fidelity = clip.fidelity.clone();
    let pick = |rng: &mut SmallRng, hi: usize| rng.gen_range(0..hi as u64) as usize;
    for _ in 0..pick(rng, 4) {
        let at = pick(rng, n - 1) + 1;
        let run = 1 + pick(rng, 40);
        for slot in at..(at + run).min(n) {
            displayed[slot] = displayed[at - 1];
        }
    }
    for _ in 0..pick(rng, 4) {
        let at = pick(rng, n - 1) + 1;
        displayed[at] = displayed[at - 1];
    }
    for _ in 0..pick(rng, 3) {
        let at = pick(rng, n);
        let len = 1 + pick(rng, 120);
        let switched = 0.3 + 0.7 * rng.gen::<f64>();
        for f in &mut fidelity[at..(at + len).min(n)] {
            *f = switched;
        }
    }
    let mut received = clip.session(&fidelity, &displayed);
    for _ in 0..pick(rng, 3) {
        let f = &mut received[pick(rng, n)];
        let feature = match pick(rng, 4) {
            0 => &mut f.si,
            1 => &mut f.y_mean,
            2 => &mut f.chroma,
            _ => &mut f.fidelity,
        };
        *feature = f64::from_bits(feature.to_bits() + 1);
    }
    received
}

#[test]
fn random_freezes_losses_and_fidelity_switches() {
    let clip = lost();
    let mut rng = SmallRng::seed_from_u64(0x5eed_d1ff);
    let (mut intact, mut total) = (0, 0);
    for trial in 0..40 {
        let received = random_session(&clip, &mut rng);
        let got = check(&clip.reference, &received, &format!("trial {trial}"));
        intact += got.intact_segments;
        total += got.segments.len();
    }
    // The draws reach both paths: segments taken from the reference and
    // segments aligned.
    assert!(intact > 0 && intact < total, "{intact} of {total} intact");
}

/// Every bit of a calibration: the offset and correlation, or failure.
fn calibration_bits(c: Calibration) -> Option<(i32, u64)> {
    match c {
        Calibration::Aligned {
            offset,
            correlation,
        } => Some((offset, correlation.to_bits())),
        Calibration::Failed => None,
    }
}

/// Require the lane search to find what the scalar search finds.
fn assert_same_search(
    received: &[f64],
    reference: &[f64],
    ref_base: usize,
    uncertainty: usize,
    threshold: f64,
    what: &str,
) -> Calibration {
    let got = align(received, reference, ref_base, uncertainty, threshold);
    let want = scalar::align(received, reference, ref_base, uncertainty, threshold);
    assert_eq!(calibration_bits(got), calibration_bits(want), "{what}");
    got
}

#[test]
fn the_lane_search_matches_the_scalar_search_on_every_window() {
    // A `VqmResult` shows the offset a search chose, not its correlation:
    // compare the searches themselves on every scoring window of seeded
    // sessions, and on windows whose ±100 search is clipped at either end
    // of the stream.
    let clip = lost();
    let ref_ti: Vec<f64> = clip.reference.iter().map(|f| f.ti).collect();
    let n = ref_ti.len();
    let mut rng = SmallRng::seed_from_u64(3);
    for trial in 0..8 {
        let rec_ti: Vec<f64> = random_session(&clip, &mut rng)
            .iter()
            .map(|f| f.ti)
            .collect();
        let windows = (0..10).map(|k| (100 + 200 * k, 100)).chain([
            (0, 100),
            (37, 150),
            (n - 100, 100),
            (n - 163, 150),
        ]);
        for (lo, len) in windows {
            let what = format!("trial {trial}, window at {lo}");
            assert_same_search(&rec_ti[lo..lo + len], &ref_ti, lo, 100, 0.35, &what);
        }
    }
}

#[test]
fn windows_clipped_at_both_edges_search_the_offsets_that_fit() {
    // A 150-frame reference and a 100-frame window: at ref_base 20 the
    // search of ±50 loses 30 offsets below the stream and 20 above it,
    // leaving 51 (12 groups of four and 3 alone). Every ref_base and a few
    // window lengths move the cuts through every lane.
    let r: Vec<f64> = (0..150)
        .map(|i| ((i * i) as f64 * 0.013).sin() * 9.0 + 10.0)
        .collect();
    for len in [97, 98, 99, 100] {
        for ref_base in 0..=(150 - len) {
            let rec: Vec<f64> = r[ref_base..ref_base + len]
                .iter()
                .enumerate()
                .map(|(i, x)| x + (i % 5) as f64 * 0.01)
                .collect();
            let what = format!("len {len}, ref_base {ref_base}");
            let cal = assert_same_search(&rec, &r, ref_base, 50, -1.0, &what);
            assert!(matches!(cal, Calibration::Aligned { .. }), "{what}");
        }
    }
    // A window longer than the reference fits nowhere.
    let cal = assert_same_search(&r, &r[..100], 0, 50, -1.0, "too long");
    assert_eq!(cal, Calibration::Failed);
}

#[test]
fn tied_correlations_take_the_lowest_offset() {
    // A profile that repeats every `period` frames has bit-identical
    // windows, so bit-identical correlations, `period` offsets apart. The
    // lowest must win, whether the ties share a group of four (period 2,
    // 3), sit in the same lane of successive groups (period 4) or cross
    // lanes (5, 7).
    for period in [2usize, 3, 4, 5, 7] {
        let r: Vec<f64> = (0..400)
            .map(|i| ((i % period) as f64 * 1.7).sin() * 10.0 + 12.0)
            .collect();
        let what = format!("period {period}");
        let cal = assert_same_search(&r[150..250], &r, 150, 50, 0.35, &what);
        let lowest = -((50 / period * period) as i32);
        assert!(
            matches!(cal, Calibration::Aligned { offset, .. } if offset == lowest),
            "{what}: {cal:?}"
        );
    }
}

#[test]
fn single_losses_and_the_intact_stream() {
    let clip = lost();
    let identity: Vec<u32> = (0..clip.source.len() as u32).collect();
    let pristine = clip.session(&clip.fidelity, &identity);
    let got = check(&clip.reference, &pristine, "no loss");
    assert_eq!(got.intact_segments, got.segments.len());
    // One lost frame at a time, at a window's edges and inside it, at the
    // clip's ends and in an overlap margin no scoring window covers.
    for lost_at in [1, 99, 100, 101, 150, 199, 200, 299, 300, 1099, 1100, 2149] {
        let mut displayed = identity.clone();
        displayed[lost_at] = displayed[lost_at - 1];
        let received = clip.session(&clip.fidelity, &displayed);
        check(&clip.reference, &received, &format!("frame {lost_at} lost"));
    }
}

#[test]
fn short_and_empty_clips() {
    let clip = lost();
    for n in [299, 250, 201, 200, 199, 150, 2, 1] {
        let frames = clip.reference[..n].to_vec();
        let shared = Reference::new(Vqm::default(), frames.clone());
        let got = check(&shared, &frames, &format!("{n} frames, intact"));
        assert_eq!(got.segments.len(), 1);
        if n > 1 {
            let mut displayed: Vec<u32> = (0..n as u32).collect();
            displayed[n / 2] = displayed[n / 2 - 1];
            let received = displayed_stream(&frames, &displayed);
            check(&shared, &received, &format!("{n} frames, one lost"));
            let frozen = displayed_stream(&frames, &vec![0; n]);
            check(&shared, &frozen, &format!("{n} frames, frozen"));
        }
    }
    let empty = Reference::new(Vqm::default(), Vec::new());
    let got = check(&empty, &[], "empty");
    assert_eq!(got.overall, 1.0);
}

#[test]
fn flat_windows_fail_calibration() {
    let clip = lost();
    // A reference whose motion stops for its first 700 frames: the first
    // three segments' windows are flat and fail, intact or not.
    let mut frames = clip.reference.to_vec();
    for f in &mut frames[..700] {
        f.ti = 2.5;
    }
    let shared = Reference::new(Vqm::default(), frames.clone());
    let got = check(&shared, &frames, "flat reference, intact");
    assert!(got.failed_segments >= 3, "{} failed", got.failed_segments);
    let mut displayed: Vec<u32> = (0..frames.len() as u32).collect();
    displayed[1500] = 1499;
    let received = displayed_stream(&frames, &displayed);
    check(&shared, &received, "flat reference, one lost");
    // A received stream frozen across whole windows: flat TI there.
    let frozen: Vec<u32> = (0..clip.source.len() as u32)
        .map(|i| if (300..900).contains(&i) { 299 } else { i })
        .collect();
    let received = clip.session(&clip.fidelity, &frozen);
    let got = check(&clip.reference, &received, "frozen windows");
    assert!(got.failed_segments >= 2, "{} failed", got.failed_segments);
}

#[test]
fn one_reference_across_many_sessions_and_threads() {
    let clip = lost();
    // A fresh reference, so its cells fill while the threads race.
    let shared = Reference::new(Vqm::default(), clip.reference.to_vec());
    let mut rng = SmallRng::seed_from_u64(7);
    let identity: Vec<u32> = (0..clip.source.len() as u32).collect();
    let sessions: Vec<Vec<FeatureFrame>> = std::iter::once(clip.session(&clip.fidelity, &identity))
        .chain((0..11).map(|_| random_session(&clip, &mut rng)))
        .collect();
    let wanted: Vec<scalar::Scored> = sessions.iter().map(|s| scalar(&shared, s)).collect();
    let start = Barrier::new(3);
    std::thread::scope(|scope| {
        for worker in 0..3 {
            let (shared, sessions, wanted, start) = (&shared, &sessions, &wanted, &start);
            scope.spawn(move || {
                // All three begin together with the intact session, racing
                // to fill the same cells, then walk the rest from their
                // own starting points.
                start.wait();
                let order = std::iter::once(0).chain((0..11).map(|k| 1 + (k + 4 * worker) % 11));
                for i in order {
                    assert_identical(
                        &shared.score(&sessions[i]),
                        &wanted[i],
                        &format!("worker {worker}, session {i}"),
                    );
                }
            });
        }
    });
    assert_eq!(shared.self_scored_segments(), 10);
}

#[test]
fn a_scored_run_and_its_score_against_the_best_encoding() {
    // A lossy Lost 1.0 Mbps point, scored against its own encoding and
    // against the 1.7 Mbps one, through the executor and through
    // `score_session` directly.
    let mut cfg = QboneConfig::new(
        ClipId2::Lost,
        1_000_000,
        EfProfile::new(1_036_000, DEPTH_2MTU),
    );
    cfg.score_vs_best = true;
    let (outcome, report) = run_qbone_detailed(&cfg);
    let source = artifacts::source_features(ClipId::Lost);
    let reference = artifacts::reference_features(ClipId::Lost, Codec::Mpeg1, 1_000_000);
    let best = artifacts::reference_features(ClipId::Lost, Codec::Mpeg1, 1_700_000);
    let received = received_features_from(&source, &report);
    let same = scalar(&reference, &received);
    let vs_best = scalar(&best, &received);
    assert!(same.overall > 0.0, "the point loses frames");
    check(&reference, &received, "same encoding");
    check(&best, &received, "best encoding");
    let score = dsv_core::qoe::score_session(&source, &reference, &report, Some(&best));
    for (what, quality) in [
        ("executor", outcome.quality),
        ("score_session", score.quality),
    ] {
        assert_eq!(quality.to_bits(), same.overall.to_bits(), "{what}");
    }
    for (what, quality) in [
        ("executor", outcome.quality_vs_best),
        ("score_session", score.quality_vs_best),
    ] {
        assert_eq!(
            quality.map(f64::to_bits),
            Some(vs_best.overall.to_bits()),
            "{what} against the best encoding"
        );
    }
    assert_eq!(score.failed_segments, same.failed_segments);
}
