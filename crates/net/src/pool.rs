//! A generational slab for in-flight packets.
//!
//! Every hop a packet takes used to allocate: the network boxed the packet
//! into its `Arrive` event and freed the box on delivery. [`PacketPool`]
//! replaces that traffic with slot recycling — a packet entering the wire
//! is `insert`ed into the pool and the event carries only a small
//! [`PacketRef`]; the arrival handler `take`s it back out, returning the
//! slot to a free list. Steady-state forwarding performs **zero** heap
//! allocations regardless of how many packets are in flight.
//!
//! Refs are *generational*: each slot carries a generation counter bumped
//! on every `take`, and a [`PacketRef`] only resolves against the
//! generation it was issued for. A stale or duplicated ref (an event bug —
//! e.g. an `Arrive` dispatched twice) panics immediately instead of
//! silently delivering some other packet that happens to occupy the slot.
//!
//! The generation counter does **not** wrap: a slot whose counter reaches
//! `u32::MAX` is retired (never returned to the free list), so no two
//! refs to the same slot are ever issued with the same generation — even
//! across the 2^32 recycle cycles a long run can accumulate. The
//! cost is one leaked slot per 2^32 takes, which is unreachable as a
//! memory concern long before it is reachable as a correctness one.

use crate::packet::Packet;

/// A small, `Copy` handle to a packet parked in a [`PacketPool`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PacketRef {
    idx: u32,
    gen: u32,
}

struct Slot<P> {
    gen: u32,
    pkt: Option<Packet<P>>,
}

/// Generational slab holding packets between transmission and arrival.
pub struct PacketPool<P> {
    slots: Vec<Slot<P>>,
    free: Vec<u32>,
    live: usize,
    high_water: usize,
}

impl<P> PacketPool<P> {
    /// An empty pool.
    pub fn new() -> Self {
        Self::with_capacity(0)
    }

    /// An empty pool with room for `cap` in-flight packets before the
    /// backing storage reallocates.
    pub fn with_capacity(cap: usize) -> Self {
        PacketPool {
            slots: Vec::with_capacity(cap),
            free: Vec::with_capacity(cap),
            live: 0,
            high_water: 0,
        }
    }

    /// Park a packet, returning the handle that retrieves it.
    pub fn insert(&mut self, pkt: Packet<P>) -> PacketRef {
        self.live += 1;
        if self.live > self.high_water {
            self.high_water = self.live;
        }
        match self.free.pop() {
            Some(idx) => {
                let slot = &mut self.slots[idx as usize];
                debug_assert!(slot.pkt.is_none());
                slot.pkt = Some(pkt);
                PacketRef { idx, gen: slot.gen }
            }
            None => {
                let idx = u32::try_from(self.slots.len()).expect("pool capacity");
                self.slots.push(Slot {
                    gen: 0,
                    pkt: Some(pkt),
                });
                PacketRef { idx, gen: 0 }
            }
        }
    }

    /// Retrieve a parked packet, freeing its slot.
    ///
    /// # Panics
    /// Panics if `r` is stale (its slot was already taken) — that means an
    /// event was duplicated or delivered out of its lifecycle.
    pub fn take(&mut self, r: PacketRef) -> Packet<P> {
        let slot = &mut self.slots[r.idx as usize];
        assert_eq!(
            slot.gen, r.gen,
            "stale PacketRef: slot {} is at generation {}, ref was issued for {}",
            r.idx, slot.gen, r.gen
        );
        let pkt = slot.pkt.take().expect("live generation implies a packet");
        // Never wrap the generation: refs are only issued for generations
        // `< u32::MAX`, so retiring the slot at the ceiling guarantees a
        // stale ref can never collide with a later one (aliasing after
        // 2^32 recycles of one slot). The retired slot is simply not
        // returned to the free list.
        slot.gen += 1;
        if slot.gen < u32::MAX {
            self.free.push(r.idx);
        }
        self.live -= 1;
        pkt
    }

    /// Borrow a parked packet mutably without freeing its slot — the
    /// router pass-through path inspects (and may re-mark) a packet while
    /// it stays parked for its next hop.
    ///
    /// # Panics
    /// Panics if `r` is stale, exactly like [`PacketPool::take`].
    pub fn get_mut(&mut self, r: PacketRef) -> &mut Packet<P> {
        let slot = &mut self.slots[r.idx as usize];
        assert_eq!(
            slot.gen, r.gen,
            "stale PacketRef: slot {} is at generation {}, ref was issued for {}",
            r.idx, slot.gen, r.gen
        );
        slot.pkt.as_mut().expect("live generation implies a packet")
    }

    /// Packets currently parked.
    pub fn live(&self) -> usize {
        self.live
    }

    /// Peak number of simultaneously parked packets — the in-flight
    /// high-water mark that sizes [`PacketPool::with_capacity`].
    pub fn high_water(&self) -> usize {
        self.high_water
    }

    /// Test hook: age a slot's generation counter to `gen`, returning the
    /// ref re-issued for that generation, so tests can force the retire
    /// path without 2^32 real recycles.
    #[cfg(test)]
    fn force_generation(&mut self, r: PacketRef, gen: u32) -> PacketRef {
        let slot = &mut self.slots[r.idx as usize];
        assert_eq!(slot.gen, r.gen, "can only age a live, current ref");
        slot.gen = gen;
        PacketRef { idx: r.idx, gen }
    }
}

impl<P> Default for PacketPool<P> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Dscp, FlowId, NodeId, PacketId, Proto};
    use dsv_sim::SimTime;

    fn pkt(id: u64) -> Packet<u32> {
        Packet {
            id: PacketId(id),
            flow: FlowId(1),
            src: NodeId(0),
            dst: NodeId(1),
            size: 1500,
            dscp: Dscp::BEST_EFFORT,
            proto: Proto::Udp,
            fragment: None,
            sent_at: SimTime::ZERO,
            payload: id as u32,
        }
    }

    #[test]
    fn roundtrips_and_recycles_slots() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(1));
        let b = pool.insert(pkt(2));
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.take(a).id, PacketId(1));
        // The freed slot is reused for the next insert...
        let c = pool.insert(pkt(3));
        assert_eq!(pool.live(), 2);
        assert_eq!(pool.high_water(), 2);
        assert_eq!(pool.take(c).id, PacketId(3));
        assert_eq!(pool.take(b).id, PacketId(2));
        assert_eq!(pool.live(), 0);
    }

    #[test]
    #[should_panic(expected = "stale PacketRef")]
    fn stale_ref_panics() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(1));
        pool.take(a);
        pool.insert(pkt(2)); // reuses the slot under a new generation
        pool.take(a); // the old handle must not resolve
    }

    /// Forcing a slot's generation to the ceiling must retire it: the
    /// slot is never handed out again, so a ref from before the "wrap"
    /// can never alias a later packet.
    #[test]
    fn generation_ceiling_retires_slot_instead_of_wrapping() {
        let mut pool = PacketPool::new();
        let a = pool.insert(pkt(1));
        // Age the slot to one take away from the ceiling.
        let a = pool.force_generation(a, u32::MAX - 1);
        assert_eq!(pool.take(a).id, PacketId(1));
        // The slot hit u32::MAX and was retired: the next insert must use
        // a fresh slot rather than recycling it at a wrapped generation.
        let b = pool.insert(pkt(2));
        assert_eq!(pool.live(), 1);
        let taken = pool.take(b);
        assert_eq!(taken.id, PacketId(2));
        // With the old wrapping behaviour, `a` (gen MAX-1) could
        // eventually alias a recycled slot whose counter wrapped back to
        // MAX-1. Now the retired slot's counter is pinned at MAX, which
        // no issued ref ever carries.
        let stale = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let mut p = pool;
            p.take(a)
        }));
        assert!(stale.is_err(), "stale ref into a retired slot must panic");
    }

    #[test]
    fn high_water_tracks_peak() {
        let mut pool = PacketPool::new();
        let refs: Vec<_> = (0..10).map(|i| pool.insert(pkt(i))).collect();
        for r in refs {
            pool.take(r);
        }
        pool.insert(pkt(99));
        assert_eq!(pool.high_water(), 10);
        assert_eq!(pool.live(), 1);
    }
}
