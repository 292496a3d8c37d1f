//! Property-based equivalence: the timing-wheel event queue must deliver
//! the **exact** sequence of `(time, seq, event)` triples the binary heap
//! delivers, over arbitrary interleavings of scheduling and dispatch.
//!
//! The heap is the ordering oracle (`DSV_QUEUE=heap` keeps it selectable
//! at runtime); these properties are why the oracle can be trusted to be
//! redundant: ties broken by schedule order, events scheduled *during*
//! dispatch, far-future timestamps (up to `SimTime::MAX` sentinels) and
//! spans that cross every wheel level all round-trip identically.
//!
//! Reserved stamps (`reserve` now, `schedule_reserved` later or never —
//! how the network elides no-op port wake-ups) are held to a stronger
//! oracle: each reserved event must be delivered exactly where an eager
//! `schedule` at reservation time would have put it. Stamps filed at a
//! later instant (`reserve_filed_at` — how the network files the one
//! event that replaces a chain of relay hops) are checked against a plain
//! sorted list of `(time, filing instant, sequence)` keys.

use dsv_sim::engine::RunStats;
use dsv_sim::{run_until, EventQueue, QueueBackend, SimDuration, SimTime, Stamp, World};
use proptest::prelude::*;

/// Drive both backends through the same operation script and assert they
/// agree on every observable: popped `(time, event)` pairs, `peek_time`,
/// `len` and `now` after each step.
///
/// `ops` entries are `(op_selector, delta_ns)`:
/// * selector 0–5 → schedule one event `delta_ns` after the current
///   watermark (six weights so scheduling dominates and queues grow),
/// * selector 6–7 → pop one event,
/// * selector 8   → fused `pop_at_or_before(now + delta_ns)`.
///
/// Scheduling against `queue.now()` after pops is exactly "scheduling
/// during dispatch": new events land relative to the delivery watermark,
/// like a `World::handle` callback would.
fn check_equivalence(ops: &[(u8, u64)], label: &str) {
    let mut wheel: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Wheel);
    let mut heap: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Heap);
    let mut next_event: u64 = 0;
    let mut delivered_w: Vec<(SimTime, u64)> = Vec::new();
    let mut delivered_h: Vec<(SimTime, u64)> = Vec::new();

    for &(op, delta_ns) in ops {
        match op {
            0..=5 => {
                let at = wheel.now() + SimDuration::from_nanos(delta_ns);
                wheel.schedule(at, next_event);
                heap.schedule(at, next_event);
                next_event += 1;
            }
            6 | 7 => {
                let w = wheel.pop();
                let h = heap.pop();
                prop_assert_eq!(w, h, "{}: pop mismatch", label);
                if let Some(pair) = w {
                    delivered_w.push(pair);
                }
                if let Some(pair) = h {
                    delivered_h.push(pair);
                }
            }
            _ => {
                let horizon = wheel.now() + SimDuration::from_nanos(delta_ns);
                let w = wheel.pop_at_or_before(horizon);
                let h = heap.pop_at_or_before(horizon);
                prop_assert_eq!(w, h, "{}: pop_at_or_before mismatch", label);
                if let Some((at, _)) = w {
                    prop_assert!(at <= horizon, "{}: horizon violated", label);
                }
                if let Some(pair) = w {
                    delivered_w.push(pair);
                }
                if let Some(pair) = h {
                    delivered_h.push(pair);
                }
            }
        }
        prop_assert_eq!(wheel.peek_time(), heap.peek_time(), "{}: peek", label);
        prop_assert_eq!(wheel.len(), heap.len(), "{}: len", label);
        prop_assert_eq!(wheel.now(), heap.now(), "{}: now", label);
    }

    // Drain both completely; the tails must agree too.
    loop {
        let w = wheel.pop();
        let h = heap.pop();
        prop_assert_eq!(w, h, "{}: drain mismatch", label);
        match w {
            Some(pair) => {
                delivered_w.push(pair);
                delivered_h.push(h.unwrap());
            }
            None => break,
        }
    }
    prop_assert_eq!(
        &delivered_w,
        &delivered_h,
        "{}: full sequences differ",
        label
    );

    // Delivery is totally ordered by time, and the event ids of equal-time
    // runs are ascending — FIFO tie-breaking by schedule order.
    for pair in delivered_w.windows(2) {
        prop_assert!(pair[0].0 <= pair[1].0, "{}: time went backwards", label);
        if pair[0].0 == pair[1].0 {
            prop_assert!(
                pair[0].1 < pair[1].1,
                "{}: tie at {} broke schedule order",
                label,
                pair[0].0
            );
        }
    }
}

/// Drive both backends through a script mixing eager schedules with
/// stamp reservations that are filed later, or never, and check
/// them against an eager reference queue that scheduled every reserved
/// event at reservation time.
///
/// `ops` entries are `(op_selector, delta_ns, pick)`:
/// * selector 0–3 → schedule one event `delta_ns` after the watermark,
/// * selector 4–5 → reserve a stamp for an event due `delta_ns`
///   after the watermark, or exactly at it when `pick` is even,
/// * selector 6   → file the `pick`-th outstanding reservation with
///   `schedule_reserved` if its key is still ahead; one whose key has
///   passed stays unscheduled for good,
/// * selector 7–8 → pop one event.
///
/// Reservations still outstanding at the end are never scheduled. The
/// delivered sequence must equal the reference's with exactly the
/// never-scheduled events removed.
fn check_reservations(ops: &[(u8, u64, u16)], label: &str) {
    let mut lazy: [EventQueue<u64>; 2] = [
        EventQueue::with_backend(QueueBackend::Wheel),
        EventQueue::with_backend(QueueBackend::Heap),
    ];
    let mut eager: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Heap);
    let mut outstanding: Vec<(SimTime, Stamp, u64)> = Vec::new();
    let mut unscheduled: Vec<u64> = Vec::new();
    let mut delivered: Vec<(SimTime, u64)> = Vec::new();
    let mut next_event: u64 = 0;

    for &(op, delta_ns, pick) in ops {
        let now = lazy[0].now();
        match op {
            0..=3 => {
                let at = now + SimDuration::from_nanos(delta_ns);
                for q in &mut lazy {
                    q.schedule(at, next_event);
                }
                eager.schedule(at, next_event);
                next_event += 1;
            }
            4 | 5 => {
                let at = if pick % 2 == 0 {
                    now
                } else {
                    now + SimDuration::from_nanos(delta_ns)
                };
                let seq = lazy[0].reserve();
                prop_assert_eq!(seq, lazy[1].reserve(), "{}: reserved stamp", label);
                // The reference takes the same stamp eagerly.
                eager.schedule(at, next_event);
                outstanding.push((at, seq, next_event));
                next_event += 1;
            }
            6 => {
                if outstanding.is_empty() {
                    continue;
                }
                let (at, seq, event) = outstanding.remove(pick as usize % outstanding.len());
                let ahead = lazy[0].is_ahead(at, seq);
                prop_assert_eq!(ahead, lazy[1].is_ahead(at, seq), "{}: is_ahead", label);
                if ahead {
                    for q in &mut lazy {
                        q.schedule_reserved(at, seq, event);
                    }
                } else {
                    unscheduled.push(event);
                }
            }
            _ => {
                let w = lazy[0].pop();
                prop_assert_eq!(w, lazy[1].pop(), "{}: pop mismatch", label);
                delivered.extend(w);
            }
        }
        prop_assert_eq!(lazy[0].peek_time(), lazy[1].peek_time(), "{}: peek", label);
        prop_assert_eq!(lazy[0].len(), lazy[1].len(), "{}: len", label);
        prop_assert_eq!(lazy[0].now(), lazy[1].now(), "{}: now", label);
    }
    unscheduled.extend(outstanding.iter().map(|&(_, _, event)| event));
    loop {
        let w = lazy[0].pop();
        prop_assert_eq!(w, lazy[1].pop(), "{}: drain mismatch", label);
        match w {
            Some(pair) => delivered.push(pair),
            None => break,
        }
    }
    let mut expected = Vec::new();
    while let Some((at, event)) = eager.pop() {
        if !unscheduled.contains(&event) {
            expected.push((at, event));
        }
    }
    prop_assert_eq!(
        &delivered,
        &expected,
        "{}: reserved events left their eager positions",
        label
    );
    prop_assert_eq!(
        delivered.len() + unscheduled.len(),
        next_event as usize,
        "{}: every event is delivered or never scheduled",
        label
    );
}

/// Drive both backends through a script mixing eager schedules with
/// stamps filed at a later instant, and check every delivery against a
/// sorted list of `(time, filing instant, sequence)` keys.
///
/// `ops` entries are `(op_selector, delta_ns, pick)`:
/// * selector 0–3 → schedule one event `delta_ns` after the watermark,
/// * selector 4–5 → reserve a stamp filed `delta_ns / 2` after the
///   watermark (at it when `pick` is even) for an event due `delta_ns`
///   after the watermark; filed at once when `pick % 3 == 0`, otherwise
///   held back,
/// * selector 6   → file the `pick`-th held-back reservation if its key is
///   still ahead; one whose key has passed stays unscheduled for good,
/// * selector 7–8 → pop one event.
fn check_filed_stamps(ops: &[(u8, u64, u16)], label: &str) {
    let mut queues: [EventQueue<u64>; 2] = [
        EventQueue::with_backend(QueueBackend::Wheel),
        EventQueue::with_backend(QueueBackend::Heap),
    ];
    // Pending events of the reference, as `(time, stamp, event)`.
    let mut reference: Vec<(SimTime, Stamp, u64)> = Vec::new();
    let mut held: Vec<(SimTime, Stamp, u64)> = Vec::new();
    let mut next_event: u64 = 0;

    for &(op, delta_ns, pick) in ops {
        let now = queues[0].now();
        match op {
            0..=3 => {
                let at = now + SimDuration::from_nanos(delta_ns);
                let stamp = queues[0].reserve();
                prop_assert_eq!(stamp, queues[1].reserve(), "{}: stamp", label);
                for q in &mut queues {
                    q.schedule_reserved(at, stamp, next_event);
                }
                reference.push((at, stamp, next_event));
                next_event += 1;
            }
            4 | 5 => {
                let filed = if pick % 2 == 0 {
                    now
                } else {
                    now + SimDuration::from_nanos(delta_ns / 2)
                };
                let at = now + SimDuration::from_nanos(delta_ns);
                let stamp = queues[0].reserve_filed_at(filed);
                prop_assert_eq!(stamp, queues[1].reserve_filed_at(filed), "{}: filed", label);
                prop_assert_eq!(stamp.filed(), filed, "{}: filing instant", label);
                if pick % 3 == 0 {
                    for q in &mut queues {
                        q.schedule_reserved(at, stamp, next_event);
                    }
                    reference.push((at, stamp, next_event));
                } else {
                    held.push((at, stamp, next_event));
                }
                next_event += 1;
            }
            6 => {
                if held.is_empty() {
                    continue;
                }
                let (at, stamp, event) = held.remove(pick as usize % held.len());
                let ahead = queues[0].is_ahead(at, stamp);
                prop_assert_eq!(ahead, queues[1].is_ahead(at, stamp), "{}: ahead", label);
                if ahead {
                    for q in &mut queues {
                        q.schedule_reserved(at, stamp, event);
                    }
                    reference.push((at, stamp, event));
                }
            }
            _ => {
                let w = queues[0].pop();
                prop_assert_eq!(w, queues[1].pop(), "{}: pop mismatch", label);
                let first = (0..reference.len()).min_by_key(|&i| (reference[i].0, reference[i].1));
                let expected = first.map(|i| {
                    let (at, _, event) = reference.swap_remove(i);
                    (at, event)
                });
                prop_assert_eq!(w, expected, "{}: out of key order", label);
            }
        }
        prop_assert_eq!(queues[0].len(), reference.len(), "{}: len", label);
        prop_assert_eq!(queues[1].len(), reference.len(), "{}: len", label);
        prop_assert_eq!(
            queues[0].last_stamp(),
            queues[1].last_stamp(),
            "{}: last",
            label
        );
    }
    reference.sort_by_key(|&(at, stamp, _)| (at, stamp));
    for (at, _, event) in reference {
        let w = queues[0].pop();
        prop_assert_eq!(w, queues[1].pop(), "{}: drain mismatch", label);
        prop_assert_eq!(w, Some((at, event)), "{}: drain out of key order", label);
    }
    prop_assert_eq!(queues[0].pop(), None, "{}: leftover event", label);
}

proptest! {
    /// Near-future traffic with heavy ties: deltas span only a few wheel
    /// ticks (the tick is 2.048 µs), so many events collapse onto the same
    /// slot and many onto the same nanosecond.
    #[test]
    fn wheel_matches_heap_with_ties(
        ops in prop::collection::vec((0u8..9, 0u64..8_192), 1..400),
    ) {
        check_equivalence(&ops, "ties");
    }

    /// The simulator's real shape: mostly near-future (per-packet) deltas
    /// with occasional far jumps (timeouts, session ends) that cascade
    /// across upper wheel levels.
    #[test]
    fn wheel_matches_heap_bimodal(
        ops in prop::collection::vec((0u8..9, 0u64..40_000_000_000), 1..300),
    ) {
        check_equivalence(&ops, "bimodal");
    }

    /// Spans that cross *every* level boundary: deltas up to ~2^63 ns push
    /// entries into the top wheel levels and exercise multi-level cascades
    /// on the way back down.
    #[test]
    fn wheel_matches_heap_overflow_spans(
        ops in prop::collection::vec((0u8..9, 0u64..9_000_000_000_000_000_000), 1..150),
    ) {
        check_equivalence(&ops, "overflow-spans");
    }

    /// The absolute far edge of the time axis: a three-regime mix of
    /// near-future ties, top-level spans (~2^62 ns) and deltas chosen so
    /// `now + delta` **saturates at `SimTime::MAX`**. Entries past the
    /// wheel's covered span park in its overflow list; near-future pops
    /// then drag the cursor forward until the parked entries must re-file
    /// — regression coverage for the reintegration bug where re-filing
    /// started from the current cursor instead of the earliest parked
    /// tick and could reorder (or worse, never release) far-horizon
    /// events.
    #[test]
    fn wheel_matches_heap_at_the_saturating_edge(
        ops in prop::collection::vec((0u8..9, 0u64..3, 0u64..16_384), 1..200),
    ) {
        let shaped: Vec<(u8, u64)> = ops
            .iter()
            .map(|&(op, regime, small)| {
                let delta = match regime {
                    0 => small,                // near-future ties
                    1 => (1u64 << 62) + small, // top wheel levels
                    _ => u64::MAX - small,     // saturates at SimTime::MAX
                };
                (op, delta)
            })
            .collect();
        check_equivalence(&shaped, "saturating-edge");
    }
}

proptest! {
    /// Reservations among heavily tied near-future traffic: many reserved
    /// keys share an instant with eager events and with each other, and
    /// many are filed at the very instant they fall due.
    #[test]
    fn reserved_events_land_where_eager_ones_would_with_ties(
        ops in prop::collection::vec((0u8..9, 0u64..8_192, 0u16..1_024), 1..400),
    ) {
        check_reservations(&ops, "reserve-ties");
    }

    /// Reservations across the simulator's bimodal spans, so reserved
    /// events are filed into upper wheel levels and cascade back down.
    #[test]
    fn reserved_events_land_where_eager_ones_would_bimodal(
        ops in prop::collection::vec((0u8..9, 0u64..40_000_000_000, 0u16..1_024), 1..300),
    ) {
        check_reservations(&ops, "reserve-bimodal");
    }

    /// Stamps filed at later instants among heavily tied near-future
    /// traffic: many keys share a due instant, and many share a filing
    /// instant with eager events filed then.
    #[test]
    fn filed_stamps_deliver_in_key_order_with_ties(
        ops in prop::collection::vec((0u8..9, 0u64..8_192, 0u16..1_024), 1..400),
    ) {
        check_filed_stamps(&ops, "filed-ties");
    }

    /// Stamps filed at later instants across bimodal spans.
    #[test]
    fn filed_stamps_deliver_in_key_order_bimodal(
        ops in prop::collection::vec((0u8..9, 0u64..40_000_000_000, 0u16..1_024), 1..300),
    ) {
        check_filed_stamps(&ops, "filed-bimodal");
    }
}

/// `SimTime::MAX` sentinels (zero-rate links park events there) must sort
/// after everything else on both backends and still tie-break FIFO.
#[test]
fn max_time_sentinels_agree() {
    let mut wheel: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Wheel);
    let mut heap: EventQueue<u64> = EventQueue::with_backend(QueueBackend::Heap);
    for (at, ev) in [
        (SimTime::MAX, 0),
        (SimTime::from_secs(5), 1),
        (SimTime::MAX, 2),
        (SimTime::ZERO, 3),
    ] {
        wheel.schedule(at, ev);
        heap.schedule(at, ev);
    }
    let mut got = Vec::new();
    loop {
        let w = wheel.pop();
        assert_eq!(w, heap.pop());
        match w {
            Some(pair) => got.push(pair),
            None => break,
        }
    }
    assert_eq!(
        got,
        vec![
            (SimTime::ZERO, 3),
            (SimTime::from_secs(5), 1),
            (SimTime::MAX, 0),
            (SimTime::MAX, 2),
        ]
    );
}

/// A periodic world for driving the full `run_until` loop (the fused
/// `pop_at_or_before` path the engine actually uses) over both backends.
struct Ticker {
    period: SimDuration,
    remaining: u32,
    log: Vec<SimTime>,
}

impl World for Ticker {
    type Event = u64;
    fn handle(&mut self, now: SimTime, ev: u64, q: &mut EventQueue<u64>) {
        self.log.push(now);
        if self.remaining > 0 {
            self.remaining -= 1;
            q.schedule(now + self.period, ev + 1);
        }
    }
}

fn run_ticker(backend: QueueBackend, horizon: SimTime) -> (RunStats, Vec<SimTime>) {
    let mut world = Ticker {
        period: SimDuration::from_millis(10),
        remaining: 50,
        log: Vec::new(),
    };
    let mut queue: EventQueue<u64> = EventQueue::with_backend(backend);
    queue.schedule(SimTime::ZERO, 0);
    let stats = run_until(&mut world, &mut queue, horizon);
    (stats, world.log)
}

/// `run_until` is horizon-inclusive: an event scheduled *exactly at* the
/// horizon dispatches, the first event beyond it stays queued, and both
/// backends agree on the dispatch count, end time and `hit_horizon`.
#[test]
fn run_until_horizon_is_inclusive_on_both_backends() {
    // The ticker fires every 10 ms starting at 0; a 100 ms horizon lands
    // exactly on the 11th event (t = 100 ms).
    let horizon = SimTime::from_millis(100);
    let (wheel, wheel_log) = run_ticker(QueueBackend::Wheel, horizon);
    let (heap, heap_log) = run_ticker(QueueBackend::Heap, horizon);

    assert_eq!(wheel, heap, "backends disagree on RunStats");
    assert_eq!(wheel_log, heap_log, "backends disagree on dispatch times");

    assert_eq!(
        *wheel_log.last().unwrap(),
        horizon,
        "the event exactly at the horizon must be dispatched"
    );
    assert_eq!(wheel.dispatched, 11);
    assert_eq!(wheel.end_time, horizon);
    assert!(
        wheel.hit_horizon,
        "the 12th event (t = 110 ms) is still pending"
    );
}

/// A horizon beyond the last event runs the world dry: `hit_horizon` is
/// false and `end_time` is the last dispatch, not the horizon.
#[test]
fn run_until_past_the_end_agrees_with_free_running() {
    let horizon = SimTime::from_secs(3600);
    for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
        let (stats, log) = run_ticker(backend, horizon);
        assert_eq!(stats.dispatched, 51, "{backend:?}");
        assert_eq!(stats.end_time, SimTime::from_millis(500), "{backend:?}");
        assert!(!stats.hit_horizon, "{backend:?}");
        assert_eq!(log.len(), 51);
    }
}

/// Resuming after a horizon stop continues exactly where the run left
/// off — the fused pop must not have consumed the beyond-horizon event.
#[test]
fn run_until_resumes_without_losing_events() {
    for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
        let mut world = Ticker {
            period: SimDuration::from_millis(10),
            remaining: 50,
            log: Vec::new(),
        };
        let mut queue: EventQueue<u64> = EventQueue::with_backend(backend);
        queue.schedule(SimTime::ZERO, 0);
        // Stop between events (95 ms), then resume to the end.
        let first = run_until(&mut world, &mut queue, SimTime::from_millis(95));
        assert_eq!(first.dispatched, 10, "{backend:?}");
        assert!(first.hit_horizon, "{backend:?}");
        let rest = run_until(&mut world, &mut queue, SimTime::from_secs(3600));
        assert_eq!(first.dispatched + rest.dispatched, 51, "{backend:?}");
        assert_eq!(rest.end_time, SimTime::from_millis(500), "{backend:?}");
        // No event was dispatched twice and none was skipped.
        assert_eq!(world.log.len(), 51, "{backend:?}");
        assert!(world.log.windows(2).all(|w| w[0] < w[1]), "{backend:?}");
    }
}

/// A far-future horizon releases everything; a past horizon releases
/// nothing — on both backends.
#[test]
fn horizon_extremes_agree() {
    for backend in [QueueBackend::Wheel, QueueBackend::Heap] {
        let mut q: EventQueue<u64> = EventQueue::with_backend(backend);
        q.schedule(SimTime::from_secs(10), 1);
        q.schedule(SimTime::from_secs(20), 2);
        assert_eq!(q.pop_at_or_before(SimTime::from_secs(9)), None);
        assert_eq!(q.len(), 2);
        assert_eq!(
            q.pop_at_or_before(SimTime::MAX),
            Some((SimTime::from_secs(10), 1))
        );
        assert_eq!(
            q.pop_at_or_before(SimTime::MAX),
            Some((SimTime::from_secs(20), 2))
        );
        assert_eq!(q.pop_at_or_before(SimTime::MAX), None);
    }
}
