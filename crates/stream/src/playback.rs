//! The renderer playback/concealment model.
//!
//! The paper instrumented DirectShow clients with a storage filter that
//! recorded each frame's **arrival time** and **presentation time**, then
//! emulated the renderer's concealment offline: "The most common and
//! simplest technique is to keep repeating the last received frame until a
//! new frame arrives. This is the approach we chose to emulate" (§3.1.2,
//! Figure 2). This module is that emulation: a pure function from arrival
//! times to the sequence of frame indices actually displayed in each
//! presentation slot.
//!
//! Playback starts a configurable buffering delay after the first frame
//! arrives; thereafter slot `k` is presented at `start + k·frame_interval`.
//! Slot `k` shows frame `k` if it is decodable and fully arrived by its
//! presentation time, otherwise it repeats the previously shown frame —
//! exactly the offset-based buffer-empty behaviour of the paper's script.

use dsv_media::frame::frame_interval;
use dsv_sim::{SimDuration, SimTime};

/// Playback configuration.
#[derive(Debug, Clone, Copy)]
pub struct PlaybackConfig {
    /// Delay between the first arrival and the first presented frame.
    pub startup_buffer: SimDuration,
}

impl Default for PlaybackConfig {
    fn default() -> Self {
        PlaybackConfig {
            // Streaming clients of the era buffered a few seconds; 3 s is
            // well within what MMS/Video Charger clients used.
            startup_buffer: SimDuration::from_secs(3),
        }
    }
}

/// What the viewer saw.
#[derive(Debug, Clone, PartialEq)]
pub struct PlaybackResult {
    /// For each presentation slot, the source-frame index displayed.
    pub displayed: Vec<u32>,
    /// Wall time at which slot 0 was presented.
    pub start: SimTime,
    /// Number of slots that repeated an earlier frame.
    pub repeats: usize,
    /// Longest run of consecutive repeated slots.
    pub longest_freeze: usize,
    /// True if no frame was ever displayable (total failure — the VQM
    /// pipeline assigns the worst score).
    pub total_failure: bool,
}

impl PlaybackResult {
    /// Fraction of slots showing stale (repeated) content — the "fraction
    /// of lost frames" the paper plots.
    pub fn frame_loss_fraction(&self) -> f64 {
        if self.displayed.is_empty() {
            return 1.0;
        }
        self.repeats as f64 / self.displayed.len() as f64
    }
}

/// Run the concealment emulation.
///
/// `arrival[i]` is the completion time of frame `i` if it both fully
/// arrived and was decodable, else `None`. The result has exactly
/// `arrival.len()` slots.
pub fn playback_schedule(arrival: &[Option<SimTime>], cfg: &PlaybackConfig) -> PlaybackResult {
    let n = arrival.len();
    let first_arrival = arrival.iter().flatten().min().copied();
    let Some(first) = first_arrival else {
        return PlaybackResult {
            displayed: vec![0; n],
            start: SimTime::ZERO,
            repeats: n,
            longest_freeze: n,
            total_failure: true,
        };
    };
    let start = first + cfg.startup_buffer;
    let iv = frame_interval();

    let mut displayed = Vec::with_capacity(n);
    let mut last_shown: Option<u32> = None;
    let mut repeats = 0usize;
    let mut longest = 0usize;
    let mut run = 0usize;
    for k in 0..n {
        let slot_time = start + iv * k as u64;
        let fresh = matches!(arrival[k], Some(t) if t <= slot_time);
        if fresh {
            displayed.push(k as u32);
            last_shown = Some(k as u32);
            run = 0;
        } else {
            match last_shown {
                Some(prev) => displayed.push(prev),
                None => {
                    // Nothing shown yet: hold the first frame that will
                    // ever be displayable (client splash of first decoded
                    // frame).
                    let first_ok = arrival
                        .iter()
                        .position(|a| a.is_some())
                        .expect("first_arrival exists") as u32;
                    displayed.push(first_ok);
                }
            }
            repeats += 1;
            run += 1;
            longest = longest.max(run);
        }
    }
    PlaybackResult {
        displayed,
        start,
        repeats,
        longest_freeze: longest,
        total_failure: false,
    }
}

/// Convenience: presentation wall-time of slot `k` for a given start.
pub fn slot_time(start: SimTime, k: usize) -> SimTime {
    start + frame_interval() * k as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use dsv_media::frame::presentation_time;

    fn cfg() -> PlaybackConfig {
        PlaybackConfig {
            startup_buffer: SimDuration::from_secs(1),
        }
    }

    /// Arrivals exactly on a nominal schedule from t=0.
    fn on_time(n: usize) -> Vec<Option<SimTime>> {
        (0..n).map(|k| Some(presentation_time(k as u32))).collect()
    }

    #[test]
    fn perfect_arrivals_display_everything() {
        let r = playback_schedule(&on_time(100), &cfg());
        assert_eq!(r.repeats, 0);
        assert_eq!(r.frame_loss_fraction(), 0.0);
        assert_eq!(r.displayed, (0..100).collect::<Vec<u32>>());
        assert!(!r.total_failure);
        assert_eq!(r.start, presentation_time(0) + SimDuration::from_secs(1));
    }

    #[test]
    fn lost_frame_repeats_previous() {
        let mut a = on_time(10);
        a[4] = None;
        let r = playback_schedule(&a, &cfg());
        assert_eq!(r.displayed[4], 3);
        assert_eq!(r.displayed[5], 5);
        assert_eq!(r.repeats, 1);
        assert_eq!(r.longest_freeze, 1);
        assert!((r.frame_loss_fraction() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn burst_loss_freezes() {
        let mut a = on_time(20);
        for slot in a.iter_mut().take(13).skip(5) {
            *slot = None;
        }
        let r = playback_schedule(&a, &cfg());
        for k in 5..13 {
            assert_eq!(r.displayed[k], 4);
        }
        assert_eq!(r.longest_freeze, 8);
        assert_eq!(r.repeats, 8);
    }

    #[test]
    fn late_frame_counts_as_repeat() {
        let mut a = on_time(10);
        // Frame 6 arrives 5 s late: past its slot.
        a[6] = Some(presentation_time(6) + SimDuration::from_secs(5));
        let r = playback_schedule(&a, &cfg());
        assert_eq!(r.displayed[6], 5);
        assert_eq!(r.repeats, 1);
    }

    #[test]
    fn slightly_late_frame_absorbed_by_buffer() {
        let mut a = on_time(10);
        // Frame 6 arrives 0.5 s late: within the 1 s startup buffer.
        a[6] = Some(presentation_time(6) + SimDuration::from_millis(500));
        let r = playback_schedule(&a, &cfg());
        assert_eq!(r.displayed[6], 6);
        assert_eq!(r.repeats, 0);
    }

    #[test]
    fn missing_head_shows_first_available() {
        let mut a = on_time(10);
        a[0] = None;
        a[1] = None;
        let r = playback_schedule(&a, &cfg());
        // Slots 0 and 1 hold frame 2 (first ever displayable).
        assert_eq!(r.displayed[0], 2);
        assert_eq!(r.displayed[1], 2);
        assert_eq!(r.displayed[2], 2);
        // Two repeats? Slot 2 shows frame 2 freshly: repeats = 2.
        assert_eq!(r.repeats, 2);
    }

    #[test]
    fn total_failure() {
        let a: Vec<Option<SimTime>> = vec![None; 50];
        let r = playback_schedule(&a, &cfg());
        assert!(r.total_failure);
        assert_eq!(r.frame_loss_fraction(), 1.0);
        assert_eq!(r.displayed.len(), 50);
    }

    #[test]
    fn empty_input() {
        let r = playback_schedule(&[], &cfg());
        assert!(r.total_failure);
        assert_eq!(r.frame_loss_fraction(), 1.0);
    }

    #[test]
    fn start_depends_on_first_arrival_not_frame_zero() {
        // Frame 0 lost; frame 1 arrives at t=10s. Playback starts 11s.
        let mut a: Vec<Option<SimTime>> = vec![None; 5];
        a[1] = Some(SimTime::from_secs(10));
        a[2] = Some(SimTime::from_secs(10));
        let r = playback_schedule(&a, &cfg());
        assert_eq!(r.start, SimTime::from_secs(11));
        assert_eq!(r.displayed[0], 1);
    }
}
