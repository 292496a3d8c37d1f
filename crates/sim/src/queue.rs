//! The time-ordered event queue.
//!
//! [`EventQueue`] delivers `(time, stamp, event)` triples in **total,
//! stable** order: events fire by ascending time, and two events scheduled
//! for the same instant are delivered in scheduling order (a [`Stamp`] is
//! the filing instant, then a sequence number). This is what
//! makes simulations reproducible — component interleavings never depend
//! on the container's internals.
//!
//! A component that *may* need an event later can claim its place in that
//! order now and file the event later, or never: see [`crate::stamped`]
//! for [`EventQueue::reserve`] and [`EventQueue::schedule_reserved`].
//!
//! Two interchangeable backends implement that contract:
//!
//! * [`QueueBackend::Wheel`] — a hierarchical timing wheel (see
//!   `crate::wheel`): `O(1)` schedule, amortized `O(1)` pop, no
//!   per-event comparisons through a heap. This is the fast path for the
//!   simulator's workload of densely clustered near-future events, and
//!   what [`EventQueue::new`] and [`EventQueue::with_capacity`] build.
//! * [`QueueBackend::Heap`] — the original binary heap of
//!   `(time, stamp, event)` triples, kept as an independently correct
//!   reference for tests, which build it with [`EventQueue::with_backend`].
//!
//! Both backends produce identical delivery sequences: property-tested
//! in `tests/queue_equivalence.rs`, and compared on whole workloads by
//! `tests/hop_chain_equivalence.rs`, whose per-hop and per-tick
//! references run on the heap.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::stamped::Stamp;
use crate::time::SimTime;
use crate::wheel::{Entry, Wheel};

/// Which container implements the queue's ordering contract.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum QueueBackend {
    /// Hierarchical timing wheel (what every simulation runs on).
    Wheel,
    /// Binary heap (the reference the tests compare the wheel with).
    Heap,
}

/// Heap adapter: inverts the `(time, stamp)` order so `BinaryHeap` (a
/// max-heap) pops the earliest entry first.
struct HeapEntry<E>(Entry<E>);

impl<E> PartialEq for HeapEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.0.at == other.0.at && self.0.stamp == other.0.stamp
    }
}
impl<E> Eq for HeapEntry<E> {}

impl<E> PartialOrd for HeapEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for HeapEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the earliest (time, stamp)
        // pops first.
        other
            .0
            .at
            .cmp(&self.0.at)
            .then_with(|| other.0.stamp.cmp(&self.0.stamp))
    }
}

enum Backend<E> {
    Wheel(Wheel<E>),
    Heap(BinaryHeap<HeapEntry<E>>),
}

/// A time-ordered queue of events of type `E` with stable FIFO tie-breaking.
///
/// ```
/// use dsv_sim::{EventQueue, SimTime};
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_millis(2), "b");
/// q.schedule(SimTime::from_millis(1), "a");
/// q.schedule(SimTime::from_millis(2), "c");
/// assert_eq!(q.pop(), Some((SimTime::from_millis(1), "a")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "b")));
/// assert_eq!(q.pop(), Some((SimTime::from_millis(2), "c")));
/// assert_eq!(q.pop(), None);
/// ```
pub struct EventQueue<E> {
    backend: Backend<E>,
    /// The stamp the next scheduled or reserved event takes.
    pub(crate) next_seq: u64,
    /// The timestamp of the most recently popped event; scheduling into the
    /// past is a logic error and panics (debug builds and release alike —
    /// a causality violation invalidates the whole run).
    pub(crate) watermark: SimTime,
    /// Stamp of the most recently popped event (`None` before the first
    /// pop): with `watermark`, the delivery key of the event being
    /// dispatched, which reserved keys are compared against.
    pub(crate) last: Option<Stamp>,
    /// Pending-event count, tracked here so the schedule fast path never
    /// has to ask the backend (the wheel's answer would be a second enum
    /// dispatch per event).
    len: usize,
    /// Largest number of simultaneously pending events ever observed —
    /// the statistic that sizes [`EventQueue::with_capacity`] pre-sizing
    /// (surfaced per run through `dsv-core`'s `DSV_PROFILE=1` report).
    high_water: usize,
}

impl<E> EventQueue<E> {
    /// Create an empty queue on the timing wheel.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::Wheel)
    }

    /// Create an empty queue on the timing wheel with pre-allocated
    /// capacity.
    pub fn with_capacity(cap: usize) -> Self {
        Self::with_backend_and_capacity(QueueBackend::Wheel, cap)
    }

    /// Create an empty queue on an explicit backend (tests and benches
    /// compare the wheel with the heap).
    pub fn with_backend(backend: QueueBackend) -> Self {
        Self::with_backend_and_capacity(backend, 0)
    }

    /// Explicit backend and pre-allocated capacity.
    pub fn with_backend_and_capacity(backend: QueueBackend, cap: usize) -> Self {
        let backend = match backend {
            QueueBackend::Wheel => Backend::Wheel(Wheel::with_capacity(cap)),
            QueueBackend::Heap => Backend::Heap(BinaryHeap::with_capacity(cap)),
        };
        EventQueue {
            backend,
            next_seq: 0,
            watermark: SimTime::ZERO,
            last: None,
            len: 0,
            high_water: 0,
        }
    }

    /// Which backend this queue runs on.
    pub fn backend(&self) -> QueueBackend {
        match self.backend {
            Backend::Wheel(_) => QueueBackend::Wheel,
            Backend::Heap(_) => QueueBackend::Heap,
        }
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the last popped event's time — that
    /// would mean a component tried to rewrite history. The message names
    /// both instants (and their difference), because a bare "causality
    /// violation" is useless when debugging a new qdisc.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        if at < self.watermark {
            self.causality_panic(at);
        }
        let stamp = self.reserve();
        self.insert(Entry { at, stamp, event });
    }

    /// File an entry under its key on whichever backend is active.
    #[inline]
    pub(crate) fn insert(&mut self, entry: Entry<E>) {
        match &mut self.backend {
            Backend::Wheel(w) => w.schedule(entry),
            Backend::Heap(h) => h.push(HeapEntry(entry)),
        }
        self.len += 1;
        if self.len > self.high_water {
            self.high_water = self.len;
        }
    }

    /// Abort on an attempt to file an event behind the delivered key.
    #[cold]
    #[inline(never)]
    pub(crate) fn causality_panic(&self, at: SimTime) -> ! {
        panic!(
            "causality violation: scheduling an event at {at} but the queue \
             already delivered an event at {} (attempted timestamp is {} \
             before the watermark; seq of offending schedule: {})",
            self.watermark,
            self.watermark.saturating_since(at),
            self.next_seq,
        );
    }

    /// Remove and return the earliest event together with its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = match &mut self.backend {
            Backend::Wheel(w) => w.pop()?,
            Backend::Heap(h) => h.pop()?.0,
        };
        Some(self.deliver(entry))
    }

    /// Fused `peek_time` + `pop`: remove and return the earliest event iff
    /// it is scheduled at or before `horizon`. One ordering decision per
    /// dispatched event instead of two — the dispatch loop's fast path,
    /// inlined into every loop that instantiates it (a binary that can
    /// audit runs two: see `dsv_net::observer`).
    #[inline(always)]
    pub fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<(SimTime, E)> {
        let entry = match &mut self.backend {
            Backend::Wheel(w) => w.pop_at_or_before(horizon)?,
            Backend::Heap(h) => {
                if h.peek()?.0.at > horizon {
                    return None;
                }
                h.pop().expect("peeked entry exists").0
            }
        };
        Some(self.deliver(entry))
    }

    /// Advance the delivery key to a just-popped entry.
    #[inline]
    fn deliver(&mut self, entry: Entry<E>) -> (SimTime, E) {
        debug_assert!(self.is_ahead(entry.at, entry.stamp));
        self.watermark = entry.at;
        self.last = Some(entry.stamp);
        self.len -= 1;
        (entry.at, entry.event)
    }

    /// The timestamp of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Wheel(w) => w.peek(),
            Backend::Heap(h) => h.peek().map(|e| e.0.at),
        }
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        debug_assert_eq!(
            self.len,
            match &self.backend {
                Backend::Wheel(w) => w.len(),
                Backend::Heap(h) => h.len(),
            }
        );
        self.len
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The time of the most recently delivered event (the queue's notion of
    /// "now").
    pub fn now(&self) -> SimTime {
        self.watermark
    }

    /// Total number of sequence numbers ever taken, by
    /// [`EventQueue::schedule`] or a reservation (diagnostic).
    pub fn scheduled_count(&self) -> u64 {
        self.next_seq
    }

    /// Largest number of simultaneously pending events ever observed.
    /// Feed this back into [`EventQueue::with_capacity`] to pre-size the
    /// queue for a workload; `DSV_PROFILE=1` reports it per batch.
    pub fn high_water(&self) -> usize {
        self.high_water
    }
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// Run a test closure against both backends — the ordering contract is
    /// backend-independent.
    fn on_both(f: impl Fn(EventQueue<u64>)) {
        f(EventQueue::with_backend(QueueBackend::Wheel));
        f(EventQueue::with_backend(QueueBackend::Heap));
    }

    #[test]
    fn orders_by_time() {
        on_both(|mut q| {
            for i in (0..100u64).rev() {
                q.schedule(SimTime::from_nanos(i * 10), i);
            }
            let mut last = SimTime::ZERO;
            let mut n = 0;
            while let Some((t, _)) = q.pop() {
                assert!(t >= last);
                last = t;
                n += 1;
            }
            assert_eq!(n, 100);
        });
    }

    #[test]
    fn fifo_on_ties() {
        on_both(|mut q| {
            let t = SimTime::from_millis(5);
            for i in 0..50 {
                q.schedule(t, i);
            }
            for i in 0..50 {
                assert_eq!(q.pop().unwrap().1, i);
            }
        });
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(1), ());
        q.pop();
        q.schedule(SimTime::from_millis(1), ());
    }

    #[test]
    fn causality_panic_names_both_instants() {
        let result = std::panic::catch_unwind(|| {
            let mut q = EventQueue::new();
            q.schedule(SimTime::from_secs(2), ());
            q.pop();
            q.schedule(SimTime::from_millis(500), ());
        });
        let msg = *result.unwrap_err().downcast::<String>().expect("panic msg");
        assert!(msg.contains("2.000000s"), "watermark missing: {msg}");
        assert!(msg.contains("0.500000s"), "offender missing: {msg}");
        assert!(msg.contains("1.500000s"), "difference missing: {msg}");
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        on_both(|mut q| {
            q.schedule(SimTime::from_secs(1), 1);
            q.pop();
            q.schedule(SimTime::from_secs(1), 2); // same instant: fine
            assert_eq!(q.pop(), Some((SimTime::from_secs(1), 2)));
        });
    }

    #[test]
    fn peek_and_now_track_state() {
        on_both(|mut q| {
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            q.schedule(SimTime::from_millis(3), 7);
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
            assert_eq!(q.len(), 1);
            q.pop();
            assert_eq!(q.now(), SimTime::from_millis(3));
            assert_eq!(q.scheduled_count(), 1);
            assert_eq!(q.high_water(), 1);
        });
    }

    #[test]
    fn interleaved_schedule_pop_is_stable() {
        // Schedule batches while draining; FIFO order must hold per instant.
        on_both(|mut q| {
            let t = SimTime::from_secs(1);
            q.schedule(t, 0);
            q.schedule(t + SimDuration::from_nanos(1), 10);
            assert_eq!(q.pop().unwrap().1, 0);
            q.schedule(t + SimDuration::from_nanos(1), 11);
            assert_eq!(q.pop().unwrap().1, 10);
            assert_eq!(q.pop().unwrap().1, 11);
        });
    }

    #[test]
    fn pop_at_or_before_respects_horizon() {
        on_both(|mut q| {
            q.schedule(SimTime::from_millis(10), 1);
            q.schedule(SimTime::from_millis(20), 2);
            let h = SimTime::from_millis(10); // inclusive
            assert_eq!(q.pop_at_or_before(h), Some((SimTime::from_millis(10), 1)));
            assert_eq!(q.pop_at_or_before(h), None);
            assert_eq!(q.len(), 1); // the later event is untouched
            assert_eq!(
                q.pop_at_or_before(SimTime::MAX),
                Some((SimTime::from_millis(20), 2))
            );
            assert_eq!(q.pop_at_or_before(SimTime::MAX), None);
        });
    }

    #[test]
    fn high_water_tracks_peak_population() {
        on_both(|mut q| {
            for i in 0..32 {
                q.schedule(SimTime::from_micros(i), i);
            }
            for _ in 0..32 {
                q.pop();
            }
            q.schedule(SimTime::from_secs(1), 99);
            assert_eq!(q.high_water(), 32);
        });
    }

    #[test]
    fn backend_selection_is_explicit() {
        let q: EventQueue<()> = EventQueue::with_backend(QueueBackend::Heap);
        assert_eq!(q.backend(), QueueBackend::Heap);
        let q: EventQueue<()> = EventQueue::with_backend(QueueBackend::Wheel);
        assert_eq!(q.backend(), QueueBackend::Wheel);
    }

    #[test]
    fn max_time_sentinels_are_delivered_last() {
        on_both(|mut q| {
            q.schedule(SimTime::MAX, 1); // e.g. arrival over a stalled link
            q.schedule(SimTime::from_secs(100), 2);
            assert_eq!(q.pop().unwrap().1, 2);
            assert_eq!(q.pop(), Some((SimTime::MAX, 1)));
        });
    }
}
