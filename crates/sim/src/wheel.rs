//! The hierarchical timing wheel backing the default [`crate::EventQueue`].
//!
//! A binary heap pays `O(log n)` pointer-chasing comparisons on every
//! `push` and `pop`, and the entries it sifts are moved on every
//! comparison. A timing wheel exploits what a network simulation actually
//! does — almost every event is scheduled a short, bounded distance into
//! the future — to make `schedule` an `O(1)` array append and `pop` an
//! amortized `O(1)` buffer drain.
//!
//! ## Structure
//!
//! Virtual time is quantized into **ticks** of `2^TICK_SHIFT` ns. The
//! wheel is a hierarchy of up to [`LEVELS`] levels of [`SLOTS`] slots
//! each; level `l` spans `SLOTS^l` ticks per slot. With the production
//! constants (9 levels × 6 bits = 54 bits of tick space vs. 44 bits of
//! representable ticks) the hierarchy covers the full 64-bit nanosecond
//! range — even `SimTime::MAX` sentinels, e.g. arrivals over a zero-rate
//! link, land in a top-level slot. Ticks beyond the configured levels'
//! span (possible only if the level count or tick width is reduced) fall
//! into an **overflow list** that is re-filed once the wheel proper
//! drains — far-horizon schedules degrade gracefully instead of indexing
//! out of bounds. Each level keeps a 64-bit occupancy bitmap, so finding
//! the next non-empty slot is a `trailing_zeros`, never a scan.
//!
//! An event at tick `t` is filed by the highest bit in which `t` differs
//! from the wheel's **cursor** (the tick of the batch currently being
//! delivered): `level = highest_differing_bit / SLOT_BITS`. This is the
//! Linux/tokio timer-wheel indexing scheme; its invariant is that a slot's
//! index at its level is always strictly ahead of the cursor's index at
//! that level, so slots never wrap and bitmaps never need rotation.
//!
//! ## Exact total order
//!
//! Delivery order must be **provably identical** to the binary heap's
//! `(time, seq)` order — byte-identical experiment results depend on it.
//! `seq` is the [`crate::EventQueue`]'s schedule sequence number (FIFO
//! tie-break), and it need not grow with insertion order: a sequence
//! number reserved earlier may be scheduled later. The wheel guarantees
//! the order without trusting any insertion-order subtlety:
//!
//! 1. All events of the earliest occupied tick are gathered into a `front`
//!    buffer (either a level-0 slot taken whole, or the cursor-tick events
//!    of a cascaded higher-level slot). Every other event in the wheel is
//!    in a strictly later tick.
//! 2. The buffer is **sorted by `(time, seq)`** before delivery (held in
//!    descending order so `pop` is a `Vec::pop`).
//! 3. Events scheduled during dispatch at ticks `<= cursor` (ties with
//!    "now", or times between the watermark and the current batch) are
//!    merge-inserted into the same sorted buffer.
//!
//! Step 2 makes per-slot ordering irrelevant: however events arrived in a
//! slot (directly, re-filed by a cascade, or parked in overflow), the
//! delivered order is the total `(time, seq)` order restricted to that
//! tick, and ticks are delivered in increasing order. Tie-breaking
//! therefore never depends on wheel internals, exactly as the heap's order
//! never depends on heap internals.

use crate::time::SimTime;

/// log2 of the tick width in nanoseconds: 2^20 ns ≈ 1.05 ms per tick.
///
/// A coarse tick is a pure performance parameter — delivered order is the
/// total `(time, seq)` order regardless (see module docs), so the only
/// trade-off is where events spend time. Port and timer events in the
/// simulated topologies sit tens of microseconds to tens of milliseconds
/// apart: with ~1 ms ticks nearly all of them land in level 0 or merge
/// straight into the sorted front batch, cascades are rare, and the
/// per-refill slot scan amortizes over large batches. Swept empirically
/// over 2^11..2^24; 2^20 maximized delivered events/sec on the QBone
/// sweep workload.
const TICK_SHIFT: u32 = 20;

/// log2 of the slot count per level.
const SLOT_BITS: u32 = 6;

/// Slots per level.
const SLOTS: usize = 1 << SLOT_BITS;

/// Bitmask selecting a slot index.
const SLOT_MASK: u64 = (SLOTS - 1) as u64;

/// Default level count, covering every representable tick: ticks are
/// `u64 >> TICK_SHIFT` bits wide, and 9 levels × 6 bits = 54 bits cover
/// them with room to spare.
const LEVELS: usize = 9;

/// One scheduled event (shared with the heap backend in `queue.rs`),
/// delivered in `(at, seq)` order.
pub(crate) struct Entry<E> {
    pub(crate) at: SimTime,
    pub(crate) seq: u64,
    pub(crate) event: E,
}

#[inline]
fn tick_of(at: SimTime) -> u64 {
    at.as_nanos() >> TICK_SHIFT
}

/// Hierarchical timing wheel with exact `(time, seq)` delivery order.
pub(crate) struct Wheel<E> {
    /// `levels × SLOTS` slot lists, level-major.
    slots: Vec<Vec<Entry<E>>>,
    /// Per-level occupancy bitmaps (bit `i` set ⇔ `slots[l*SLOTS+i]` is
    /// non-empty).
    occ: [u64; LEVELS],
    /// Number of active levels (`LEVELS` in production; tests shrink it to
    /// force the overflow path without scheduling astronomically far).
    levels: usize,
    /// Tick of the batch currently in `front` (or of the last delivered
    /// batch). Every event stored in the wheel is at a strictly later
    /// tick; events scheduled at `<= cursor` go straight into `front`.
    cursor: u64,
    /// The earliest-tick batch, sorted descending by `(time, seq)` so the
    /// next event to deliver is `front.last()`.
    front: Vec<Entry<E>>,
    /// Scratch buffer for cascades. Capacities circulate between `front`,
    /// the slots and this buffer via `swap`/`drain` — after warm-up the
    /// wheel performs **zero** allocations regardless of traffic shape.
    scratch: Vec<Entry<E>>,
    /// Events whose tick is beyond the active levels' span from the
    /// cursor. Unreachable with the production constants (54-bit span vs.
    /// 44-bit ticks) but load-bearing whenever `levels` or `TICK_SHIFT`
    /// shrinks; re-filed when the wheel proper drains. All overflow ticks
    /// are strictly greater than every tick filed in the wheel proper, so
    /// reintegration at drain time preserves the total order.
    overflow: Vec<Entry<E>>,
    /// Total events held (wheel + front + overflow).
    len: usize,
}

impl<E> Wheel<E> {
    pub(crate) fn with_capacity(cap: usize) -> Self {
        Self::with_capacity_and_levels(cap, LEVELS)
    }

    /// A wheel with a reduced level count — only meaningful for tests that
    /// need to exercise the overflow path with small timestamps.
    pub(crate) fn with_capacity_and_levels(cap: usize, levels: usize) -> Self {
        assert!((1..=LEVELS).contains(&levels), "levels out of range");
        let mut slots = Vec::with_capacity(LEVELS * SLOTS);
        slots.resize_with(LEVELS * SLOTS, Vec::new);
        Wheel {
            slots,
            occ: [0; LEVELS],
            levels,
            cursor: 0,
            // The front buffer absorbs every same-tick burst; give it the
            // requested capacity so steady state never reallocates.
            front: Vec::with_capacity(cap.min(1024)),
            scratch: Vec::new(),
            overflow: Vec::new(),
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Timestamp of the next event to be delivered.
    pub(crate) fn peek(&self) -> Option<SimTime> {
        debug_assert!(self.len == 0 || !self.front.is_empty());
        self.front.last().map(|e| e.at)
    }

    /// File an event. `(at, seq)` must be strictly greater than every pair
    /// already delivered (the queue's watermark enforces the time half).
    pub(crate) fn schedule(&mut self, entry: Entry<E>) {
        let tick = tick_of(entry.at);
        if tick <= self.cursor {
            // Ties with the current batch (or times between the watermark
            // and the batch tick): merge into the sorted front buffer.
            let key = (entry.at, entry.seq);
            let pos = self.front.partition_point(|e| (e.at, e.seq) > key);
            self.front.insert(pos, entry);
        } else {
            self.file(tick, entry);
            if self.front.is_empty() {
                // Keep the "front holds the earliest batch" invariant so
                // `peek` stays O(1) and borrow-free.
                self.refill();
            }
        }
        self.len += 1;
    }

    /// Deliver the earliest event.
    pub(crate) fn pop(&mut self) -> Option<Entry<E>> {
        let e = self.front.pop()?;
        self.len -= 1;
        if self.front.is_empty() {
            self.refill();
        }
        Some(e)
    }

    /// Fused peek + pop: deliver the earliest event iff it is at or before
    /// `horizon`. One branch on the front buffer instead of a `peek` and a
    /// `pop` that each re-check it — the dispatch loop's hot path.
    pub(crate) fn pop_at_or_before(&mut self, horizon: SimTime) -> Option<Entry<E>> {
        // Optimistically pop; a beyond-horizon entry goes straight back
        // (same slot, capacity untouched). The failure case fires once per
        // `run_until` horizon, the success case once per event.
        let e = self.front.pop()?;
        if e.at > horizon {
            self.front.push(e);
            return None;
        }
        self.len -= 1;
        if self.front.is_empty() {
            self.refill();
        }
        Some(e)
    }

    /// Insert into the wheel proper (`tick > self.cursor`), or into the
    /// overflow list if the tick is beyond the active levels' span.
    #[inline]
    fn file(&mut self, tick: u64, entry: Entry<E>) {
        debug_assert!(tick > self.cursor);
        let high = 63 - (tick ^ self.cursor).leading_zeros();
        let level = (high / SLOT_BITS) as usize;
        if level >= self.levels {
            // Beyond the representable span: park it. Overflow ticks are
            // strictly greater than every representable tick, so delivery
            // order is preserved by reintegrating only once the wheel
            // proper is empty (see `refill`).
            self.overflow.push(entry);
            return;
        }
        let idx = ((tick >> (SLOT_BITS * level as u32)) & SLOT_MASK) as usize;
        self.slots[level * SLOTS + idx].push(entry);
        self.occ[level] |= 1 << idx;
    }

    /// Advance the cursor to the next occupied tick and load its events
    /// into `front` (sorted descending). Called only with `front` empty.
    fn refill(&mut self) {
        debug_assert!(self.front.is_empty());
        loop {
            // Level 0 is occupied on the vast majority of refills; check it
            // before the general scan.
            let level = if self.occ[0] != 0 {
                0
            } else {
                match self.occ.iter().position(|&b| b != 0) {
                    Some(l) => l,
                    None => {
                        if self.overflow.is_empty() {
                            return; // wheel empty
                        }
                        // The wheel proper drained; jump the cursor to the
                        // earliest overflow tick (every overflow tick is
                        // strictly ahead of the cursor, so time never moves
                        // backwards). Entries at that tick become the next
                        // batch directly — indexing relative to `min_tick-1`
                        // would be wrong, as a tick adjacent to the cursor
                        // across a high power-of-two boundary still differs
                        // in a high bit and would re-overflow forever.
                        // Later entries re-file; any still beyond the new
                        // span just land back in overflow.
                        let parked = std::mem::take(&mut self.overflow);
                        let min_tick = parked
                            .iter()
                            .map(|e| tick_of(e.at))
                            .min()
                            .expect("overflow non-empty");
                        self.cursor = min_tick;
                        for e in parked {
                            let tick = tick_of(e.at);
                            if tick == self.cursor {
                                self.front.push(e);
                            } else {
                                self.file(tick, e);
                            }
                        }
                        debug_assert!(!self.front.is_empty());
                        self.front
                            .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                        return;
                    }
                }
            };
            let idx = self.occ[level].trailing_zeros() as u64;
            if level == 0 {
                // A level-0 slot holds exactly one tick's events: take the
                // whole slot as the new front (swapping retains the old
                // front's capacity for the emptied slot).
                self.cursor = (self.cursor & !SLOT_MASK) | idx;
                self.occ[0] &= !(1 << idx);
                std::mem::swap(&mut self.front, &mut self.slots[idx as usize]);
            } else {
                // Cascade: move the cursor to the start of the slot's tick
                // range and re-file its events relative to the new cursor.
                // Events exactly at the new cursor tick form the batch.
                let shift = SLOT_BITS * level as u32;
                let upper = (self.cursor >> (shift + SLOT_BITS)) << (shift + SLOT_BITS);
                self.cursor = upper | (idx << shift);
                self.occ[level] &= !(1 << idx);
                // Swap the slot with the (empty) scratch buffer and drain:
                // the slot inherits scratch's capacity and scratch keeps
                // its own, so cascades never free or allocate.
                std::mem::swap(
                    &mut self.scratch,
                    &mut self.slots[level * SLOTS + idx as usize],
                );
                while let Some(e) = self.scratch.pop() {
                    let tick = tick_of(e.at);
                    if tick == self.cursor {
                        self.front.push(e);
                    } else {
                        self.file(tick, e);
                    }
                }
            }
            if !self.front.is_empty() {
                self.front
                    .sort_unstable_by_key(|e| std::cmp::Reverse((e.at, e.seq)));
                return;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(ns: u64, seq: u64) -> Entry<u64> {
        Entry {
            at: SimTime::from_nanos(ns),
            seq,
            event: seq,
        }
    }

    fn drain(w: &mut Wheel<u64>) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some(e) = w.pop() {
            out.push((e.at.as_nanos(), e.seq));
        }
        out
    }

    #[test]
    fn delivers_in_time_then_seq_order() {
        let mut w = Wheel::with_capacity(0);
        // Deliberately shuffled times, including exact ties.
        let times = [5_000u64, 10, 5_000, 2_000_000, 10, 0, 987_654_321, 5_000];
        for (seq, &t) in times.iter().enumerate() {
            w.schedule(entry(t, seq as u64));
        }
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        expect.sort();
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn far_future_cascades_preserve_order() {
        let mut w = Wheel::with_capacity(0);
        // Spans hitting several levels, plus a MAX sentinel.
        let times = [
            u64::MAX,
            1 << 40,
            (1 << 40) + 1,
            1 << 20,
            3,
            (1 << 40) + 1,
            1 << 55,
        ];
        for (seq, &t) in times.iter().enumerate() {
            w.schedule(entry(t, seq as u64));
        }
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        expect.sort();
        assert_eq!(drain(&mut w), expect);
    }

    #[test]
    fn schedule_during_dispatch_at_same_tick() {
        let mut w = Wheel::with_capacity(0);
        w.schedule(entry(100, 0));
        w.schedule(entry(100, 1));
        assert_eq!(w.pop().unwrap().seq, 0);
        // Same instant as the in-flight batch: must come after seq 1.
        w.schedule(entry(100, 2));
        // Earlier tick than the batch is impossible here (tick(100) == 0
        // == cursor), but a later event interleaves correctly too.
        w.schedule(entry(5_000, 3));
        assert_eq!(w.pop().unwrap().seq, 1);
        assert_eq!(w.pop().unwrap().seq, 2);
        assert_eq!(w.pop().unwrap().seq, 3);
        assert!(w.pop().is_none());
        assert_eq!(w.len(), 0);
    }

    #[test]
    fn earlier_than_front_insert_lands_first() {
        let mut w = Wheel::with_capacity(0);
        w.schedule(entry(10_000_000, 0)); // front holds tick of 10 ms
        assert_eq!(w.peek(), Some(SimTime::from_nanos(10_000_000)));
        // Now schedule something earlier than the already-fetched front
        // but after the watermark (cursor has advanced to the 10 ms tick).
        w.schedule(entry(9_999_000, 1));
        assert_eq!(w.pop().unwrap().seq, 1);
        assert_eq!(w.pop().unwrap().seq, 0);
    }

    #[test]
    fn interleaved_pop_schedule_monotone() {
        let mut w = Wheel::with_capacity(0);
        let mut seq = 0u64;
        for i in 0..64u64 {
            w.schedule(entry(i * 1_000_003, seq));
            seq += 1;
        }
        let mut last = 0u64;
        let mut popped = 0;
        while let Some(e) = w.pop() {
            assert!(e.at.as_nanos() >= last);
            last = e.at.as_nanos();
            popped += 1;
            if popped % 3 == 0 {
                w.schedule(Entry {
                    at: e.at + crate::SimDuration::from_micros(17 * (popped % 11) as u64),
                    seq,
                    event: seq,
                });
                seq += 1;
                popped += 0;
            }
            if seq > 200 {
                break;
            }
        }
        while w.pop().is_some() {}
        assert_eq!(w.len(), 0);
    }

    /// Two active levels span `2^(6*2) = 4096` ticks (`2^32` ns): anything
    /// past that from the cursor must take the overflow path and still
    /// come back in exact `(time, seq)` order.
    #[test]
    fn overflow_past_top_level_preserves_order() {
        let span_ns = 1u64 << (TICK_SHIFT + 2 * SLOT_BITS);
        let mut w = Wheel::with_capacity_and_levels(0, 2);
        let times = [
            span_ns * 3,     // overflow
            7,               // level 0
            span_ns * 3,     // overflow tie
            span_ns - 1,     // top of the representable span
            span_ns * 900,   // deep overflow
            span_ns + 5,     // overflow by one tick block
            u64::MAX,        // sentinel, far beyond everything
            span_ns * 3 + 1, // neighbour of the tie pair
        ];
        for (seq, &t) in times.iter().enumerate() {
            w.schedule(entry(t, seq as u64));
        }
        assert_eq!(w.len(), times.len());
        let mut expect: Vec<(u64, u64)> = times
            .iter()
            .enumerate()
            .map(|(s, &t)| (t, s as u64))
            .collect();
        expect.sort();
        assert_eq!(drain(&mut w), expect);
    }

    /// Scheduling into overflow while draining, including entries that
    /// re-overflow at reintegration time (the parked set spans more than
    /// one representable window).
    #[test]
    fn overflow_reintegration_is_incremental() {
        let span_ns = 1u64 << (TICK_SHIFT + 2 * SLOT_BITS);
        let mut w = Wheel::with_capacity_and_levels(0, 2);
        let mut expect = Vec::new();
        let mut seq = 0u64;
        let mut sched = |w: &mut Wheel<u64>, t: u64| {
            w.schedule(entry(t, seq));
            expect.push((t, seq));
            seq += 1;
        };
        // Near events plus parked events in three distinct far windows.
        for i in 0..10 {
            sched(&mut w, i * 1_000);
            sched(&mut w, span_ns * 2 + i);
            sched(&mut w, span_ns * 7000 + i * span_ns);
        }
        // Drain halfway, then add more overflow relative to the new cursor.
        let mut got = Vec::new();
        for _ in 0..10 {
            let e = w.pop().unwrap();
            got.push((e.at.as_nanos(), e.seq));
        }
        sched(&mut w, span_ns * 2 + 500);
        sched(&mut w, u64::MAX);
        while let Some(e) = w.pop() {
            got.push((e.at.as_nanos(), e.seq));
        }
        expect.sort();
        assert_eq!(got, expect);
        assert_eq!(w.len(), 0);
    }

    /// The production configuration never overflows: every representable
    /// tick (44 bits) fits the 54-bit span, including `u64::MAX`.
    #[test]
    fn full_levels_never_overflow() {
        let mut w = Wheel::with_capacity(0);
        for (seq, &t) in [u64::MAX, u64::MAX - 1, 1u64 << 63, 0].iter().enumerate() {
            w.schedule(entry(t, seq as u64));
        }
        assert!(w.overflow.is_empty());
        let order: Vec<u64> = drain(&mut w).into_iter().map(|(t, _)| t).collect();
        assert_eq!(order, vec![0, 1 << 63, u64::MAX - 1, u64::MAX]);
    }
}
