//! Stamps: an event's place among the events due at the same instant.
//!
//! Every event the [`EventQueue`] delivers carries a `(time, stamp)` key.
//! A [`Stamp`] is the instant the event was filed, then a sequence number
//! drawn from the queue's counter, so same-instant events fire in filing
//! order. An event scheduled now is stamped with the delivery watermark,
//! and the counter grows with it, so for such events the stamp order is
//! simply scheduling order.
//!
//! A component that *may* need an event later can claim its stamp now:
//! [`EventQueue::reserve`] takes the stamp an eager
//! [`EventQueue::schedule`] would have taken, and
//! [`EventQueue::schedule_reserved`] later files the event under exactly
//! that `(time, stamp)` key — or never, if the event turns out to be a
//! no-op. Either way no other event's delivery position moves.
//!
//! A component that computes what a chain of events *would* have done can
//! also stamp the one event it files in their place as if it had been
//! filed at a later instant: [`EventQueue::reserve_filed_at`]. It then
//! sorts against every event filed at any other instant exactly as the
//! elided chain's last event would have; only against events filed at
//! that very instant does its sequence number decide instead.
//!
//! Stamps are therefore not always filed in ascending order, so both
//! backends order by the full key, never by insertion order. `dsv-net`
//! uses reservations for an output port's `PortReady` wake-up (starting a
//! transmission reserves the stamp, and the wake-up is filed only when a
//! packet waits behind it) and future-filed stamps for the relay hops it
//! computes instead of dispatching. Applications reach future-filed
//! stamps through `AppCtx::set_timer_filed_at`: a paced server that runs
//! its pacer ahead past idle ticks stamps its one wake-up as filed a tick
//! before it fires, where the tick chain would have filed it. They also
//! reach them through `AppCtx::send_at`: every event a packet sent ahead
//! of its instant files is stamped where a send at that instant would
//! have filed it.

use crate::queue::EventQueue;
use crate::time::SimTime;
use crate::wheel::Entry;

/// An event's place among the events due at the same instant: the instant
/// it was filed, then its sequence number (see the module docs). The
/// default stamp, `(ZERO, 0)`, is no later than any event's.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct Stamp {
    filed: SimTime,
    seq: u64,
}

impl Stamp {
    /// The instant the event counts as filed at.
    pub fn filed(self) -> SimTime {
        self.filed
    }

    /// The sequence number it took from the queue's counter.
    pub fn seq(self) -> u64 {
        self.seq
    }

    /// A stamp filed at time zero (unit tests of the backends).
    #[cfg(test)]
    pub(crate) fn from_seq(seq: u64) -> Stamp {
        Stamp {
            filed: SimTime::ZERO,
            seq,
        }
    }
}

impl<E> EventQueue<E> {
    /// Claim the stamp the next [`EventQueue::schedule`] would take,
    /// without scheduling anything. Pass it to
    /// [`EventQueue::schedule_reserved`] to file an event exactly where an
    /// eager `schedule` at this moment would have put it; a reservation
    /// that is never scheduled only leaves a gap in the numbering.
    pub fn reserve(&mut self) -> Stamp {
        self.reserve_filed_at(self.watermark)
    }

    /// Claim a stamp that counts as filed at `filed`, an instant not
    /// before the watermark: among events due at the same instant it sorts
    /// after every event filed before `filed` and before every event filed
    /// after it, whenever those are scheduled.
    pub fn reserve_filed_at(&mut self, filed: SimTime) -> Stamp {
        debug_assert!(filed >= self.watermark, "stamp filed in the past");
        let seq = self.next_seq;
        self.next_seq += 1;
        Stamp { filed, seq }
    }

    /// Schedule `event` under a stamp claimed earlier with
    /// [`EventQueue::reserve`] or [`EventQueue::reserve_filed_at`]: it is
    /// delivered at `(at, stamp)` in the total order.
    ///
    /// # Panics
    /// Panics if `(at, stamp)` is no longer ahead of the queue (see
    /// [`EventQueue::is_ahead`]): the event would have been delivered
    /// already.
    pub fn schedule_reserved(&mut self, at: SimTime, stamp: Stamp, event: E) {
        debug_assert!(
            stamp.seq < self.next_seq,
            "stamp {stamp:?} was never reserved"
        );
        if !self.is_ahead(at, stamp) {
            self.causality_panic(at);
        }
        self.insert(Entry { at, stamp, event });
    }

    /// True iff the delivery key `(at, stamp)` is strictly after the key
    /// of the most recently popped event — i.e. an event filed under it
    /// would still be delivered. Before the first pop every key is ahead.
    #[inline]
    pub fn is_ahead(&self, at: SimTime, stamp: Stamp) -> bool {
        (at, Some(stamp)) > (self.watermark, self.last)
    }

    /// The stamp of the most recently popped event (`None` before the
    /// first pop).
    pub fn last_stamp(&self) -> Option<Stamp> {
        self.last
    }
}

#[cfg(test)]
mod tests {
    use super::Stamp;
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
            let s: Vec<Stamp> = (0..5).map(|_| q.reserve()).collect();
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
            let setup = q.reserve();
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
            let late = q.reserve();
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
        let seq = q.reserve();
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
        let seq = q.reserve();
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
            let seq = q.reserve();
            q.schedule(t, 2);
            let unused = q.reserve(); // never scheduled: a gap, no event
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

    #[test]
    fn a_stamp_filed_later_sorts_by_its_filing_instant() {
        on_both(|mut q| {
            let ms = SimTime::from_millis;
            q.schedule(ms(2), 0);
            // Claimed at time zero, filed as if at 2 ms.
            let late = q.reserve_filed_at(ms(2));
            assert_eq!(late.filed(), ms(2));
            q.schedule(ms(5), 1); // filed at 0
            q.schedule_reserved(ms(5), late, 2);
            assert_eq!(q.pop(), Some((ms(2), 0)));
            q.schedule(ms(5), 3); // filed at 2 ms, numbered after `late`
            q.schedule(ms(3), 9);
            assert_eq!(q.pop(), Some((ms(3), 9)));
            assert_eq!(q.last_stamp().map(Stamp::filed), Some(ms(2)));
            q.schedule(ms(5), 4); // filed at 3 ms
            assert_eq!(drain(&mut q), vec![1, 2, 3, 4]);
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
                let seq = wheel.reserve();
                assert_eq!(heap.reserve(), seq);
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
