//! Temporal calibration.
//!
//! The VQM tool "performs both spatial and temporal calibration" before
//! scoring, searching an **alignment uncertainty** window for the shift
//! that best aligns the received frames with the reference (paper §3.1.3).
//! Our reduced-reference features have no spatial shift by construction,
//! so calibration is purely temporal: find the offset that maximizes the
//! normalized cross-correlation of the TI (motion) profiles.
//!
//! Calibration *fails* when no candidate offset produces a decent
//! correlation — which is exactly what happens to heavily impaired
//! segments (long freezes destroy the motion profile). The paper handles
//! those segments by assigning the worst score, and [`crate::Vqm`] does
//! the same.

/// Result of a calibration attempt.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Calibration {
    /// Best alignment offset (received index + offset = reference index)
    /// and the correlation achieved.
    Aligned {
        /// Frames of shift.
        offset: i32,
        /// Normalized cross-correlation at that shift (−1..1).
        correlation: f64,
    },
    /// No offset achieved the required correlation.
    Failed,
}

/// Pearson correlation of two equal-length slices; `None` if either side
/// has no variance (flat profiles cannot be aligned).
pub fn correlation(a: &[f64], b: &[f64]) -> Option<f64> {
    assert_eq!(a.len(), b.len());
    let n = a.len() as f64;
    if a.is_empty() {
        return None;
    }
    let ma = a.iter().sum::<f64>() / n;
    let mb = b.iter().sum::<f64>() / n;
    let mut cov = 0.0;
    let mut va = 0.0;
    let mut vb = 0.0;
    for (x, y) in a.iter().zip(b) {
        cov += (x - ma) * (y - mb);
        va += (x - ma).powi(2);
        vb += (y - mb).powi(2);
    }
    if va < 1e-12 || vb < 1e-12 {
        return None;
    }
    Some(cov / (va.sqrt() * vb.sqrt()))
}

/// Search for the best temporal alignment.
///
/// `received` is the window to align; `reference` must cover
/// `[ref_base - uncertainty, ref_base + received.len() + uncertainty)`
/// (callers clamp at stream edges). `ref_base` is the reference index that
/// a zero offset maps `received[0]` to. Offsets are searched in
/// `[-uncertainty, +uncertainty]`; an offset whose window would leave the
/// reference is skipped, and on equal correlations the lowest offset wins.
///
/// The search runs four offsets at a time ([`correlations`]), each with
/// its own accumulators summed in index order, exactly as a one-offset
/// loop sums them, so the result is bit-identical to [`correlation`] at
/// the chosen offset.
pub fn align(
    received: &[f64],
    reference: &[f64],
    ref_base: usize,
    uncertainty: usize,
    threshold: f64,
) -> Calibration {
    let len = received.len();
    if len == 0 || len > reference.len() {
        return Calibration::Failed;
    }
    // The received-side mean and variance are the same at every offset;
    // hoist them out of the search.
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
    // The reference starts whose window lies inside the reference.
    let first = ref_base.saturating_sub(uncertainty);
    let last = (ref_base + uncertainty).min(reference.len() - len);
    let mut best: Option<(usize, f64)> = None;
    let mut consider = |start: usize, c: Option<f64>| {
        if let Some(c) = c {
            if best.is_none_or(|(_, bc)| c > bc) {
                best = Some((start, c));
            }
        }
    };
    let mut start = first;
    while start + LANES <= last + 1 {
        let window = &reference[start..start + len + LANES - 1];
        for (j, c) in correlations::<LANES>(received, ma, va_sqrt, window)
            .into_iter()
            .enumerate()
        {
            consider(start + j, c);
        }
        start += LANES;
    }
    for start in start..=last {
        let [c] = correlations::<1>(received, ma, va_sqrt, &reference[start..start + len]);
        consider(start, c);
    }
    match best {
        Some((start, correlation)) if correlation >= threshold => Calibration::Aligned {
            offset: (start as i64 - ref_base as i64) as i32,
            correlation,
        },
        _ => Calibration::Failed,
    }
}

/// Offsets [`align`] searches together.
const LANES: usize = 4;

/// The correlation of `received` (mean `ma`, root of its summed squared
/// deviations `va_sqrt`) with each of the `L` windows of its length that
/// start at `window[0]`, …, `window[L - 1]`; `None` where a window is flat.
///
/// Each lane keeps its own sums, each added in index order from the same
/// start value as a one-window loop (`Iterator::sum`'s `-0.0` for the
/// mean, `0.0` for the products), so lane `j` is bit-identical to
/// [`correlation`] on `window[j..j + received.len()]`. The lanes are
/// independent chains the processor can overlap; no sum is reordered.
fn correlations<const L: usize>(
    received: &[f64],
    ma: f64,
    va_sqrt: f64,
    window: &[f64],
) -> [Option<f64>; L] {
    let len = received.len();
    let n = len as f64;
    let window = &window[..len + L - 1];
    let mut sum = [-0.0f64; L];
    for i in 0..len {
        let w = &window[i..i + L];
        for j in 0..L {
            sum[j] += w[j];
        }
    }
    let mb = sum.map(|s| s / n);
    let mut cov = [0.0f64; L];
    let mut vb = [0.0f64; L];
    for (i, x) in received.iter().enumerate() {
        let xa = x - ma;
        let w = &window[i..i + L];
        for j in 0..L {
            let d = w[j] - mb[j];
            cov[j] += xa * d;
            vb[j] += d.powi(2);
        }
    }
    std::array::from_fn(|j| {
        if vb[j] < 1e-12 {
            None
        } else {
            Some(cov[j] / (va_sqrt * vb[j].sqrt()))
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn wave(n: usize, phase: usize) -> Vec<f64> {
        (0..n)
            .map(|i| ((i + phase) as f64 * 0.37).sin() * 10.0 + 12.0)
            .collect()
    }

    #[test]
    fn perfect_alignment_at_zero() {
        let r = wave(400, 0);
        let cal = align(&r[100..200], &r, 100, 50, 0.35);
        match cal {
            Calibration::Aligned {
                offset,
                correlation,
            } => {
                assert_eq!(offset, 0);
                assert!(correlation > 0.999);
            }
            Calibration::Failed => panic!("must align"),
        }
    }

    #[test]
    fn finds_shifted_alignment() {
        let r = wave(400, 0);
        // The received window actually corresponds to reference 117..217.
        let rec = &r[117..217];
        let cal = align(rec, &r, 100, 50, 0.35);
        match cal {
            Calibration::Aligned { offset, .. } => assert_eq!(offset, 17),
            Calibration::Failed => panic!("must align"),
        }
    }

    #[test]
    fn flat_received_fails() {
        let r = wave(400, 0);
        let rec = vec![5.0; 100];
        assert_eq!(align(&rec, &r, 100, 50, 0.35), Calibration::Failed);
    }

    #[test]
    fn uncorrelated_noise_fails() {
        let r = wave(400, 0);
        // A different-frequency profile that never correlates ≥ 0.35.
        let rec: Vec<f64> = (0..100)
            .map(|i| ((i * i) as f64 * 0.7).sin() * 10.0)
            .collect();
        match align(&rec, &r, 100, 50, 0.35) {
            Calibration::Failed => {}
            Calibration::Aligned { correlation, .. } => {
                assert!(correlation < 0.5, "suspicious correlation {correlation}")
            }
        }
    }

    #[test]
    fn respects_reference_bounds() {
        let r = wave(120, 0);
        // ref_base 0 with uncertainty 50: negative starts are skipped, not
        // panicked on.
        let rec = wave(100, 0);
        let cal = align(&rec, &r, 0, 50, 0.35);
        assert!(matches!(cal, Calibration::Aligned { offset: 0, .. }));
    }

    #[test]
    fn empty_received_fails() {
        let r = wave(100, 0);
        assert_eq!(align(&[], &r, 0, 10, 0.35), Calibration::Failed);
    }

    #[test]
    fn align_matches_correlation_bit_for_bit() {
        // The hoisted search must report exactly what `correlation` would
        // compute at the chosen offset — the sweep's byte-identical
        // results depend on it.
        let r = wave(400, 3);
        let rec = &r[117..217];
        match align(rec, &r, 100, 50, 0.35) {
            Calibration::Aligned {
                offset,
                correlation: c,
            } => {
                let start = (100 + offset as i64) as usize;
                let direct = correlation(rec, &r[start..start + rec.len()]).unwrap();
                assert_eq!(c.to_bits(), direct.to_bits());
            }
            Calibration::Failed => panic!("must align"),
        }
    }

    #[test]
    fn flat_reference_windows_are_skipped() {
        // Flat stretches of the reference cannot correlate: the search
        // skips them and aligns where the reference moves.
        let mut r = vec![4.0; 300];
        for (i, x) in r.iter_mut().enumerate().skip(180) {
            *x = (i as f64 * 0.37).sin() * 10.0 + 12.0;
        }
        let rec = r[190..250].to_vec();
        match align(&rec, &r, 150, 50, 0.35) {
            Calibration::Aligned { offset, .. } => assert_eq!(offset, 40),
            Calibration::Failed => panic!("must align"),
        }
        assert_eq!(align(&rec, &r[..180], 60, 50, 0.35), Calibration::Failed);
    }

    #[test]
    fn correlation_basics() {
        let a = [1.0, 2.0, 3.0];
        assert!((correlation(&a, &[2.0, 4.0, 6.0]).unwrap() - 1.0).abs() < 1e-12);
        assert!((correlation(&a, &[3.0, 2.0, 1.0]).unwrap() + 1.0).abs() < 1e-12);
        assert_eq!(correlation(&a, &[5.0, 5.0, 5.0]), None);
        assert_eq!(correlation(&[], &[]), None);
    }
}
