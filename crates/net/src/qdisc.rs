//! Queueing disciplines for output ports.
//!
//! Two disciplines cover the paper's router configurations:
//!
//! * [`DropTailQueue`] — a plain FIFO with byte and packet limits, used on
//!   hosts and best-effort ports;
//! * [`StrictPriorityQueue`] — "a simple priority queue structure, with the
//!   high priority queue being assigned to traffic marked with the EF DSCP"
//!   (paper §3.2.1.2). Lower band index = higher priority; each band is its
//!   own drop-tail FIFO.

use std::collections::VecDeque;

use crate::packet::{Dscp, Packet};

/// Outcome of an enqueue attempt.
#[derive(Debug, PartialEq, Eq, Clone, Copy)]
pub enum EnqueueResult {
    /// Packet accepted.
    Queued,
    /// Packet rejected (queue full); the caller owns the drop accounting.
    Dropped,
}

/// A queueing discipline attached to an output port.
///
/// Disciplines are passive containers: the port logic calls
/// [`Qdisc::enqueue`] on arrival and [`Qdisc::dequeue`] whenever the link
/// becomes idle.
pub trait Qdisc<P> {
    /// Offer a packet. Returns [`EnqueueResult::Dropped`] if rejected; the
    /// packet is handed back via the return slot in that case.
    fn enqueue(&mut self, pkt: Packet<P>) -> Result<(), Packet<P>>;

    /// Take the next packet to transmit, honouring the discipline's order.
    fn dequeue(&mut self) -> Option<Packet<P>>;

    /// Number of queued packets across all internal bands.
    fn len(&self) -> usize;

    /// Queued bytes across all internal bands.
    fn bytes(&self) -> u64;

    /// True if nothing is queued.
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Largest packet size (bytes) for which, **whenever the discipline is
    /// empty**, an [`Qdisc::enqueue`] immediately followed by a
    /// [`Qdisc::dequeue`] is guaranteed to hand the very same packet back
    /// unchanged — for any DSCP, with no observable side effects.
    ///
    /// The port logic caches this bound and transmits straight through an
    /// idle port when `size <= cap`, skipping both virtual calls on the
    /// forwarding fast path. The bound may be conservative (a packet above
    /// it simply takes the classic enqueue/dequeue route, which produces
    /// the identical event sequence); disciplines whose admission decision
    /// has per-packet side effects (e.g. WRED's average-occupancy filter)
    /// keep the default of `0`, which disables pass-through entirely.
    fn direct_admit_cap(&self) -> u32 {
        0
    }

    /// The band packets of class `dscp` join, if it is first-come
    /// first-served: each of its packets leaves before every packet, of
    /// any class, that arrives after it, and is admitted by the band's
    /// drop-tail `limits` against the band's own occupancy alone. Such a
    /// packet's departure is then a function of its arrival, the port's
    /// free instant and the same-class packets ahead of it, which is what
    /// lets the network compute a relay hop instead of dispatching it
    /// (see [`crate::network`]).
    ///
    /// The default, `None`, keeps every packet on the per-hop path: a
    /// lower strict-priority band (a later high-priority arrival
    /// overtakes it), or a discipline whose admission has per-packet side
    /// effects, like WRED's random early drop.
    fn fifo_band(&self, dscp: Dscp) -> Option<FifoBand> {
        let _ = dscp;
        None
    }
}

/// A first-come first-served band of a discipline (see
/// [`Qdisc::fifo_band`]): its limits and what it holds now.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FifoBand {
    /// The band's drop-tail limits.
    pub limits: QueueLimits,
    /// Packets queued in the band.
    pub len: usize,
    /// Bytes queued in the band.
    pub bytes: u64,
}

impl FifoBand {
    /// Whether the band admits a `size`-byte packet on top of `len`
    /// packets and `bytes` bytes already waiting.
    pub fn admits(&self, len: usize, bytes: u64, size: u32) -> bool {
        len < self.limits.max_packets && bytes + u64::from(size) <= self.limits.max_bytes
    }
}

/// Capacity limits for a FIFO band.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct QueueLimits {
    /// Maximum queued packets (inclusive).
    pub max_packets: usize,
    /// Maximum queued bytes (inclusive).
    pub max_bytes: u64,
}

impl QueueLimits {
    /// A practically unlimited queue (used for host send buffers).
    pub const UNBOUNDED: QueueLimits = QueueLimits {
        max_packets: usize::MAX,
        max_bytes: u64::MAX,
    };

    /// A limit expressed in packets only.
    pub const fn packets(n: usize) -> QueueLimits {
        QueueLimits {
            max_packets: n,
            max_bytes: u64::MAX,
        }
    }

    /// A limit expressed in bytes only.
    pub const fn bytes(n: u64) -> QueueLimits {
        QueueLimits {
            max_packets: usize::MAX,
            max_bytes: n,
        }
    }
}

/// A drop-tail FIFO.
#[derive(Debug)]
pub struct DropTailQueue<P> {
    q: VecDeque<Packet<P>>,
    bytes: u64,
    limits: QueueLimits,
    /// Cumulative count of rejected packets (diagnostic).
    pub drops: u64,
}

impl<P> DropTailQueue<P> {
    /// Create with the given limits.
    pub fn new(limits: QueueLimits) -> Self {
        DropTailQueue {
            q: VecDeque::new(),
            bytes: 0,
            limits,
            drops: 0,
        }
    }

    fn fits(&self, pkt_size: u32) -> bool {
        self.band().admits(self.q.len(), self.bytes, pkt_size)
    }

    fn band(&self) -> FifoBand {
        FifoBand {
            limits: self.limits,
            len: self.q.len(),
            bytes: self.bytes,
        }
    }
}

impl<P> Qdisc<P> for DropTailQueue<P> {
    fn enqueue(&mut self, pkt: Packet<P>) -> Result<(), Packet<P>> {
        if self.fits(pkt.size) {
            self.bytes += pkt.size as u64;
            self.q.push_back(pkt);
            Ok(())
        } else {
            self.drops += 1;
            Err(pkt)
        }
    }

    fn dequeue(&mut self) -> Option<Packet<P>> {
        let pkt = self.q.pop_front()?;
        self.bytes -= pkt.size as u64;
        Some(pkt)
    }

    fn len(&self) -> usize {
        self.q.len()
    }

    fn bytes(&self) -> u64 {
        self.bytes
    }

    fn direct_admit_cap(&self) -> u32 {
        if self.limits.max_packets == 0 {
            return 0;
        }
        u32::try_from(self.limits.max_bytes).unwrap_or(u32::MAX)
    }

    fn fifo_band(&self, _dscp: Dscp) -> Option<FifoBand> {
        Some(self.band())
    }
}

/// Maps a DSCP to a priority band (0 = highest priority).
pub type BandClassifier = fn(Dscp) -> usize;

/// The classifier used by the paper's routers: EF-marked packets go to the
/// high-priority band 0, everything else to band 1.
pub fn ef_high_priority(dscp: Dscp) -> usize {
    if dscp.is_ef() {
        0
    } else {
        1
    }
}

/// Strict priority scheduler over N drop-tail bands.
///
/// `dequeue` always serves the lowest-indexed non-empty band, emulating the
/// paper's EF-over-best-effort service at every core router.
pub struct StrictPriorityQueue<P> {
    bands: Vec<DropTailQueue<P>>,
    classify: BandClassifier,
}

impl<P> StrictPriorityQueue<P> {
    /// Create with per-band limits; `limits.len()` fixes the band count.
    pub fn new(limits: Vec<QueueLimits>, classify: BandClassifier) -> Self {
        assert!(!limits.is_empty(), "need at least one band");
        StrictPriorityQueue {
            bands: limits.into_iter().map(DropTailQueue::new).collect(),
            classify,
        }
    }

    /// The standard two-band EF configuration used across the testbeds.
    pub fn ef_default(ef_limits: QueueLimits, be_limits: QueueLimits) -> Self {
        StrictPriorityQueue::new(vec![ef_limits, be_limits], ef_high_priority)
    }

    /// Number of queued packets in one band (diagnostic).
    pub fn band_len(&self, band: usize) -> usize {
        self.bands[band].len()
    }

    /// Cumulative drops in one band (diagnostic).
    pub fn band_drops(&self, band: usize) -> u64 {
        self.bands[band].drops
    }
}

impl<P> Qdisc<P> for StrictPriorityQueue<P> {
    fn enqueue(&mut self, pkt: Packet<P>) -> Result<(), Packet<P>> {
        let band = (self.classify)(pkt.dscp).min(self.bands.len() - 1);
        self.bands[band].enqueue(pkt)
    }

    fn dequeue(&mut self) -> Option<Packet<P>> {
        self.bands.iter_mut().find_map(|b| b.dequeue())
    }

    fn len(&self) -> usize {
        self.bands.iter().map(|b| b.q.len()).sum()
    }

    fn bytes(&self) -> u64 {
        self.bands.iter().map(|b| b.bytes).sum()
    }

    fn direct_admit_cap(&self) -> u32 {
        // The min across bands is conservative: a packet may classify to a
        // roomier band, but underestimating only reroutes it through the
        // ordinary enqueue/dequeue pair.
        self.bands
            .iter()
            .map(|b| Qdisc::<P>::direct_admit_cap(b))
            .min()
            .unwrap_or(0)
    }

    /// Only the top band is first-come first-served: a packet in any
    /// other band is overtaken by a higher-priority one that arrives
    /// while it waits.
    fn fifo_band(&self, dscp: Dscp) -> Option<FifoBand> {
        let band = (self.classify)(dscp).min(self.bands.len() - 1);
        (band == 0).then(|| self.bands[0].band())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, NodeId, PacketId, Proto};
    use dsv_sim::SimTime;

    fn pkt(id: u64, size: u32, dscp: Dscp) -> Packet<()> {
        Packet {
            id: PacketId(id),
            flow: FlowId(0),
            src: NodeId(0),
            dst: NodeId(1),
            size,
            dscp,
            proto: Proto::Udp,
            fragment: None,
            sent_at: SimTime::ZERO,
            payload: (),
        }
    }

    #[test]
    fn droptail_fifo_order() {
        let mut q = DropTailQueue::new(QueueLimits::UNBOUNDED);
        for i in 0..5 {
            q.enqueue(pkt(i, 100, Dscp::BEST_EFFORT)).unwrap();
        }
        for i in 0..5 {
            assert_eq!(q.dequeue().unwrap().id, PacketId(i));
        }
        assert!(q.is_empty());
    }

    #[test]
    fn droptail_packet_limit() {
        let mut q = DropTailQueue::new(QueueLimits::packets(2));
        assert!(q.enqueue(pkt(0, 100, Dscp::BEST_EFFORT)).is_ok());
        assert!(q.enqueue(pkt(1, 100, Dscp::BEST_EFFORT)).is_ok());
        let rejected = q.enqueue(pkt(2, 100, Dscp::BEST_EFFORT));
        assert_eq!(rejected.unwrap_err().id, PacketId(2));
        assert_eq!(q.drops, 1);
        q.dequeue();
        assert!(q.enqueue(pkt(3, 100, Dscp::BEST_EFFORT)).is_ok());
    }

    #[test]
    fn droptail_byte_limit() {
        let mut q = DropTailQueue::new(QueueLimits::bytes(3000));
        assert!(q.enqueue(pkt(0, 1500, Dscp::BEST_EFFORT)).is_ok());
        assert!(q.enqueue(pkt(1, 1500, Dscp::BEST_EFFORT)).is_ok());
        assert!(q.enqueue(pkt(2, 1, Dscp::BEST_EFFORT)).is_err());
        assert_eq!(q.bytes(), 3000);
        q.dequeue();
        assert_eq!(q.bytes(), 1500);
        assert!(q.enqueue(pkt(3, 1500, Dscp::BEST_EFFORT)).is_ok());
    }

    #[test]
    fn priority_serves_ef_first() {
        let mut q: StrictPriorityQueue<()> =
            StrictPriorityQueue::ef_default(QueueLimits::packets(10), QueueLimits::packets(10));
        q.enqueue(pkt(0, 100, Dscp::BEST_EFFORT)).unwrap();
        q.enqueue(pkt(1, 100, Dscp::EF)).unwrap();
        q.enqueue(pkt(2, 100, Dscp::BEST_EFFORT)).unwrap();
        q.enqueue(pkt(3, 100, Dscp::EF_QBONE)).unwrap();
        assert_eq!(q.dequeue().unwrap().id, PacketId(1));
        assert_eq!(q.dequeue().unwrap().id, PacketId(3));
        assert_eq!(q.dequeue().unwrap().id, PacketId(0));
        assert_eq!(q.dequeue().unwrap().id, PacketId(2));
    }

    #[test]
    fn priority_band_isolation_on_overflow() {
        let mut q: StrictPriorityQueue<()> =
            StrictPriorityQueue::ef_default(QueueLimits::packets(1), QueueLimits::packets(10));
        q.enqueue(pkt(0, 100, Dscp::EF)).unwrap();
        // EF band full: EF packet dropped, BE unaffected.
        assert!(q.enqueue(pkt(1, 100, Dscp::EF)).is_err());
        assert!(q.enqueue(pkt(2, 100, Dscp::BEST_EFFORT)).is_ok());
        assert_eq!(q.band_drops(0), 1);
        assert_eq!(q.band_len(1), 1);
        assert_eq!(q.len(), 2);
    }

    #[test]
    fn out_of_range_band_clamps() {
        fn everything_band_9(_: Dscp) -> usize {
            9
        }
        let mut q: StrictPriorityQueue<()> =
            StrictPriorityQueue::new(vec![QueueLimits::packets(4); 2], everything_band_9);
        q.enqueue(pkt(0, 10, Dscp::BEST_EFFORT)).unwrap();
        assert_eq!(q.band_len(1), 1);
    }

    #[test]
    fn only_drop_tail_and_the_top_priority_band_are_fifo() {
        let mut fifo = DropTailQueue::<()>::new(QueueLimits::packets(2));
        fifo.enqueue(pkt(0, 100, Dscp::BEST_EFFORT)).unwrap();
        let band = Qdisc::<()>::fifo_band(&fifo, Dscp::EF).expect("drop-tail is FIFO");
        assert_eq!((band.len, band.bytes), (1, 100));
        assert!(band.admits(band.len, band.bytes, 1500));
        assert!(!band.admits(band.len + 1, band.bytes, 1));

        let mut prio: StrictPriorityQueue<()> =
            StrictPriorityQueue::ef_default(QueueLimits::bytes(3000), QueueLimits::packets(10));
        prio.enqueue(pkt(0, 1500, Dscp::EF)).unwrap();
        prio.enqueue(pkt(1, 700, Dscp::BEST_EFFORT)).unwrap();
        let ef = prio.fifo_band(Dscp::EF_QBONE).expect("the EF band is FIFO");
        assert_eq!((ef.len, ef.bytes), (1, 1500));
        assert!(ef.admits(ef.len, ef.bytes, 1500));
        assert!(!ef.admits(ef.len, ef.bytes, 1501));
        assert_eq!(prio.fifo_band(Dscp::BEST_EFFORT), None);
    }

    #[test]
    fn bytes_accounting_across_bands() {
        let mut q: StrictPriorityQueue<()> =
            StrictPriorityQueue::ef_default(QueueLimits::UNBOUNDED, QueueLimits::UNBOUNDED);
        q.enqueue(pkt(0, 700, Dscp::EF)).unwrap();
        q.enqueue(pkt(1, 300, Dscp::BEST_EFFORT)).unwrap();
        assert_eq!(q.bytes(), 1000);
        q.dequeue();
        assert_eq!(q.bytes(), 300);
    }
}
