//! The dispatch loop.
//!
//! A simulation is a [`World`] — a state machine that consumes timestamped
//! events and may schedule more — plus an [`EventQueue`]. The [`run`] /
//! [`run_until`] functions drain the queue, dispatching each event to the
//! world at its scheduled time.
//!
//! This deliberately mirrors the poll-based structure of event-driven
//! network stacks: components never block and never own threads; all
//! interleaving is explicit in the queue.

use crate::queue::EventQueue;
use crate::time::SimTime;

/// A simulation world: the owner of all component state.
pub trait World {
    /// The event alphabet of this world.
    type Event;

    /// Handle one event at its scheduled time. New events may be scheduled
    /// on `queue` at any time `>= now`.
    fn handle(&mut self, now: SimTime, event: Self::Event, queue: &mut EventQueue<Self::Event>);
}

/// Statistics returned by the dispatch loop.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RunStats {
    /// Number of events dispatched.
    pub dispatched: u64,
    /// Virtual time of the last dispatched event (or `ZERO` if none).
    pub end_time: SimTime,
    /// True if the run stopped because the horizon was reached rather than
    /// because the queue drained.
    pub hit_horizon: bool,
}

/// Run until the event queue is empty.
pub fn run<W: World>(world: &mut W, queue: &mut EventQueue<W::Event>) -> RunStats {
    run_until(world, queue, SimTime::MAX)
}

/// Run until the queue is empty or the next event is strictly after
/// `horizon`. Events scheduled exactly at the horizon are dispatched.
///
/// The loop uses [`EventQueue::pop_at_or_before`] — a fused peek + pop —
/// so each dispatched event costs one queue operation, not two.
pub fn run_until<W: World>(
    world: &mut W,
    queue: &mut EventQueue<W::Event>,
    horizon: SimTime,
) -> RunStats {
    let mut dispatched = 0u64;
    let mut end_time = SimTime::ZERO;
    while let Some((now, ev)) = queue.pop_at_or_before(horizon) {
        world.handle(now, ev, queue);
        dispatched += 1;
        end_time = now;
    }
    RunStats {
        dispatched,
        end_time,
        // The loop exits either because the queue drained or because the
        // remaining events are all after the horizon.
        hit_horizon: !queue.is_empty(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// A world that re-schedules itself `remaining` times at a fixed period
    /// and records every delivery.
    struct Ticker {
        period: SimDuration,
        remaining: u32,
        log: Vec<SimTime>,
    }

    impl World for Ticker {
        type Event = ();
        fn handle(&mut self, now: SimTime, _ev: (), q: &mut EventQueue<()>) {
            self.log.push(now);
            if self.remaining > 0 {
                self.remaining -= 1;
                q.schedule(now + self.period, ());
            }
        }
    }

    #[test]
    fn runs_to_completion() {
        let mut w = Ticker {
            period: SimDuration::from_millis(10),
            remaining: 9,
            log: vec![],
        };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        let stats = run(&mut w, &mut q);
        assert_eq!(stats.dispatched, 10);
        assert!(!stats.hit_horizon);
        assert_eq!(stats.end_time, SimTime::from_millis(90));
        assert_eq!(w.log.len(), 10);
        assert_eq!(w.log[3], SimTime::from_millis(30));
    }

    #[test]
    fn horizon_is_inclusive() {
        let mut w = Ticker {
            period: SimDuration::from_millis(10),
            remaining: 100,
            log: vec![],
        };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        let stats = run_until(&mut w, &mut q, SimTime::from_millis(50));
        assert!(stats.hit_horizon);
        // Events at 0,10,20,30,40,50 fire; the one at 60 does not.
        assert_eq!(w.log.len(), 6);
        assert_eq!(*w.log.last().unwrap(), SimTime::from_millis(50));
        // The pending event is still queued.
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(60)));
    }

    #[test]
    fn empty_queue_returns_immediately() {
        let mut w = Ticker {
            period: SimDuration::from_millis(1),
            remaining: 0,
            log: vec![],
        };
        let mut q = EventQueue::new();
        let stats = run(&mut w, &mut q);
        assert_eq!(stats.dispatched, 0);
        assert_eq!(stats.end_time, SimTime::ZERO);
    }

    #[test]
    fn resume_after_horizon_continues_cleanly() {
        let mut w = Ticker {
            period: SimDuration::from_millis(10),
            remaining: 5,
            log: vec![],
        };
        let mut q = EventQueue::new();
        q.schedule(SimTime::ZERO, ());
        run_until(&mut w, &mut q, SimTime::from_millis(25));
        let stats = run(&mut w, &mut q);
        assert_eq!(w.log.len(), 6);
        assert_eq!(stats.end_time, SimTime::from_millis(50));
    }
}
