//! Reserved stamps: filing an event under a delivery key claimed earlier.
//!
//! Every event the [`EventQueue`] delivers carries a `(time, seq)` key.
//! The `seq` half — the event's *stamp* — is drawn from the queue's
//! counter when the event is scheduled, so same-instant events fire in
//! scheduling order. A component that *may* need an event later can claim
//! its stamp now: [`EventQueue::reserve_seq`] takes the number an eager
//! [`EventQueue::schedule`] would have taken, and
//! [`EventQueue::schedule_reserved`] later files the event under exactly
//! that `(time, seq)` key — or never, if the event turns out to be a
//! no-op. Either way no other event's delivery position moves.
//!
//! Stamps are therefore not always filed in ascending order, so both
//! backends order by the full key, never by insertion order. `dsv-net`
//! uses this for an output port's `PortReady` wake-up: starting a
//! transmission reserves the stamp, and the wake-up is filed only when a
//! packet waits behind it.

use crate::queue::EventQueue;
use crate::time::SimTime;
use crate::wheel::Entry;

impl<E> EventQueue<E> {
    /// Claim the sequence number the next [`EventQueue::schedule`] would
    /// take, without scheduling anything. Pass it to
    /// [`EventQueue::schedule_reserved`] to file an event exactly where an
    /// eager `schedule` at this moment would have put it; a reservation
    /// that is never scheduled only leaves a gap in the numbering.
    pub fn reserve_seq(&mut self) -> u64 {
        let seq = self.next_seq;
        self.next_seq += 1;
        seq
    }

    /// Schedule `event` under a sequence number claimed earlier with
    /// [`EventQueue::reserve_seq`]: it is delivered at `(at, seq)` in the
    /// total order, ahead of every later-scheduled event at the same
    /// instant.
    ///
    /// # Panics
    /// Panics if `(at, seq)` is no longer ahead of the queue (see
    /// [`EventQueue::is_ahead`]): the event would have been delivered
    /// already.
    pub fn schedule_reserved(&mut self, at: SimTime, seq: u64, event: E) {
        debug_assert!(
            seq < self.next_seq,
            "sequence number {seq} was never reserved"
        );
        if !self.is_ahead(at, seq) {
            self.causality_panic(at);
        }
        self.insert(Entry { at, seq, event });
    }

    /// True iff the delivery key `(at, seq)` is strictly after the key of
    /// the most recently popped event — i.e. an event filed under it would
    /// still be delivered. Before the first pop every key is ahead.
    #[inline]
    pub fn is_ahead(&self, at: SimTime, seq: u64) -> bool {
        (at, Some(seq)) > (self.watermark, self.last_seq)
    }
}

#[cfg(test)]
mod tests {
    use crate::queue::{EventQueue, QueueBackend};
    use crate::time::SimTime;

    fn on_both(f: impl Fn(EventQueue<u32>)) {
        f(EventQueue::with_backend(QueueBackend::Wheel));
        f(EventQueue::with_backend(QueueBackend::Heap));
    }

    fn drain(q: &mut EventQueue<u32>) -> Vec<u32> {
        let mut got = Vec::new();
        while let Some((_, v)) = q.pop_at_or_before(SimTime::MAX) {
            got.push(v);
        }
        got
    }

    #[test]
    fn orders_by_time_then_stamp() {
        on_both(|mut q| {
            let t = SimTime::from_millis(1);
            let s: Vec<u64> = (0..5).map(|_| q.reserve_seq()).collect();
            // Same instant, stamps deliberately filed out of order; s[0]
            // is never filed.
            q.schedule_reserved(t, s[3], 3);
            q.schedule_reserved(t, s[1], 1);
            q.schedule_reserved(t, s[2], 2);
            // The largest stamp at an earlier instant still goes first.
            q.schedule_reserved(SimTime::from_micros(1), s[4], 0);
            // A fresh stamp sorts after every reserved one at its instant.
            q.schedule(t, 4);
            assert_eq!(drain(&mut q), vec![0, 1, 2, 3, 4]);
        });
    }

    #[test]
    fn setup_stamps_order_before_runtime_ones() {
        on_both(|mut q| {
            let t = SimTime::ZERO;
            // Setup: a start event, then a stamp claimed for a wake-up
            // that may turn out to be needed.
            q.schedule(t, 0);
            let setup = q.reserve_seq();
            assert_eq!(q.pop_at_or_before(t), Some((t, 0)));
            // While handling t = 0: a runtime event at the same instant,
            // then the setup wake-up filed after it.
            q.schedule(t, 2);
            q.schedule_reserved(t, setup, 1);
            assert_eq!(q.pop_at_or_before(t).unwrap().1, 1);
            assert_eq!(q.pop_at_or_before(t).unwrap().1, 2);
        });
    }

    #[test]
    fn horizon_is_inclusive_and_state_tracks() {
        on_both(|mut q| {
            assert!(q.is_empty());
            let late = q.reserve_seq();
            assert!(q.is_empty(), "a reservation is not a pending event");
            q.schedule(SimTime::from_millis(10), 1);
            q.schedule_reserved(SimTime::from_millis(20), late, 2);
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(10)));
            assert_eq!(q.len(), 2);
            assert_eq!(q.high_water(), 2);
            assert_eq!(
                q.scheduled_count(),
                2,
                "a filed reservation takes no new stamp"
            );
            let h = SimTime::from_millis(10);
            assert_eq!(q.pop_at_or_before(h).map(|(_, v)| v), Some(1));
            assert_eq!(q.pop_at_or_before(h), None);
            assert_eq!(q.now(), SimTime::from_millis(10));
            assert_eq!(q.len(), 1);
            assert!(q.is_ahead(SimTime::from_millis(20), late));
        });
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn scheduling_into_past_panics() {
        let mut q = EventQueue::new();
        let seq = q.reserve_seq();
        q.schedule(SimTime::from_secs(1), ());
        q.pop_at_or_before(SimTime::MAX);
        // The smaller stamp does not make an earlier instant deliverable.
        q.schedule_reserved(SimTime::from_millis(1), seq, ());
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    fn scheduling_a_passed_reservation_panics() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(1);
        let seq = q.reserve_seq();
        q.schedule(t, ());
        q.pop();
        // Same instant, but the reserved key sorts before the delivered one.
        q.schedule_reserved(t, seq, ());
    }

    #[test]
    fn reserved_seq_lands_where_an_eager_schedule_would() {
        on_both(|mut q| {
            let t = SimTime::from_millis(1);
            q.schedule(t, 0);
            let seq = q.reserve_seq();
            q.schedule(t, 2);
            let unused = q.reserve_seq(); // never scheduled: a gap, no event
            q.schedule(t, 3);
            assert_eq!(q.pop(), Some((t, 0)));
            assert!(q.is_ahead(t, seq));
            q.schedule_reserved(t, seq, 1);
            assert_eq!(q.pop(), Some((t, 1)));
            assert!(!q.is_ahead(t, seq), "its own key is no longer ahead");
            assert!(q.is_ahead(t, unused));
            assert_eq!(q.pop(), Some((t, 2)));
            assert_eq!(q.pop(), Some((t, 3)));
            assert_eq!(q.pop(), None);
            assert_eq!(q.scheduled_count(), 5);
            assert_eq!(q.high_water(), 3);
        });
    }

    /// Differential: both backends deliver identical sequences when
    /// stamps are reserved in one order and filed in another, on a
    /// pseudo-random workload with heavy same-instant ties.
    #[test]
    fn backends_agree_on_random_workload() {
        let mut wheel = EventQueue::with_backend(QueueBackend::Wheel);
        let mut heap = EventQueue::with_backend(QueueBackend::Heap);
        let mut x = 0x2545_f491_4f6c_dd1du64;
        let mut rnd = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        let mut reserved = Vec::new();
        for i in 0..5_000u32 {
            // 200 distinct instants over 50 ms: ~25 events per instant.
            let at = SimTime::from_micros(rnd() % 200 * 250);
            if rnd() % 3 == 0 {
                wheel.schedule(at, i);
                heap.schedule(at, i);
            } else {
                let seq = wheel.reserve_seq();
                assert_eq!(heap.reserve_seq(), seq);
                reserved.push((at, seq, i));
            }
        }
        // File the reservations in a scrambled order; every fifth one is
        // never filed.
        for k in (1..reserved.len()).rev() {
            reserved.swap(k, (rnd() % (k as u64 + 1)) as usize);
        }
        for &(at, seq, v) in reserved.iter().filter(|r| r.2 % 5 != 0) {
            wheel.schedule_reserved(at, seq, v);
            heap.schedule_reserved(at, seq, v);
        }
        assert_eq!(wheel.len(), heap.len());
        let mut delivered = 0;
        loop {
            let a = wheel.pop_at_or_before(SimTime::MAX);
            let b = heap.pop_at_or_before(SimTime::MAX);
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
            delivered += 1;
        }
        assert!(delivered > 3_000, "workload is not vacuous: {delivered}");
    }
}
