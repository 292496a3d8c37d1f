//! Measurement: per-flow counters, drop accounting, delay statistics, and
//! optional packet-level traces.
//!
//! The paper's analysis needs three observables from the network: how many
//! packets a flow lost and *where* (the EF policer vs. queue overflow), the
//! one-way delay distribution of delivered packets, and — for Figure 6 — a
//! time series of bytes leaving the source. [`NetStats`] collects all three
//! with O(1) per-packet cost; full traces are opt-in per flow.

use std::collections::HashMap;

use dsv_sim::{SimDuration, SimTime};

use crate::histogram::DurationHistogram;
use crate::packet::{DropReason, FlowId, NodeId, Packet, PacketId};

/// Running summary of a sequence of durations.
#[derive(Debug, Clone, Copy, Default)]
pub struct DelaySummary {
    /// Number of samples.
    pub count: u64,
    /// Sum of all samples (for the mean).
    sum_ns: u128,
    /// Smallest sample.
    pub min: SimDuration,
    /// Largest sample.
    pub max: SimDuration,
}

impl DelaySummary {
    /// Record one sample.
    pub fn record(&mut self, d: SimDuration) {
        if self.count == 0 {
            self.min = d;
            self.max = d;
        } else {
            self.min = self.min.min(d);
            self.max = self.max.max(d);
        }
        self.count += 1;
        self.sum_ns += d.as_nanos() as u128;
    }

    /// Mean of the recorded samples, or zero if none.
    pub fn mean(&self) -> SimDuration {
        if self.count == 0 {
            SimDuration::ZERO
        } else {
            SimDuration::from_nanos((self.sum_ns / self.count as u128) as u64)
        }
    }
}

/// Per-flow counters.
#[derive(Debug, Clone, Default)]
pub struct FlowCounters {
    /// Packets handed to the network by the source application.
    pub tx_packets: u64,
    /// Bytes handed to the network by the source application.
    pub tx_bytes: u64,
    /// Packets delivered to the destination application.
    pub rx_packets: u64,
    /// Bytes delivered to the destination application.
    pub rx_bytes: u64,
    /// Drops by reason.
    pub drops: HashMap<DropReason, u64>,
    /// One-way delay of delivered packets.
    pub delay: DelaySummary,
    /// Full delay distribution (log-scale buckets) for jitter analysis.
    pub delay_hist: DurationHistogram,
}

impl FlowCounters {
    /// Total packets dropped for any reason.
    pub fn total_drops(&self) -> u64 {
        self.drops.values().sum()
    }

    /// Drops attributed to one reason.
    pub fn drops_for(&self, reason: DropReason) -> u64 {
        self.drops.get(&reason).copied().unwrap_or(0)
    }

    /// Fraction of transmitted packets that were lost (0 if nothing sent).
    pub fn loss_fraction(&self) -> f64 {
        if self.tx_packets == 0 {
            0.0
        } else {
            1.0 - self.rx_packets as f64 / self.tx_packets as f64
        }
    }

    /// Mean throughput over `span` based on delivered bytes.
    pub fn goodput_bps(&self, span: SimDuration) -> f64 {
        if span.is_zero() {
            0.0
        } else {
            self.rx_bytes as f64 * 8.0 / span.as_secs_f64()
        }
    }
}

/// One entry of an opt-in packet trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceEntry {
    /// When the event occurred.
    pub at: SimTime,
    /// The instant the record counts as filed at: that of the event whose
    /// dispatch made it, or, for a packet sent ahead, of the callback that
    /// would have handed it over at `at`. Entries at one instant read in
    /// this order.
    pub filed: SimTime,
    /// The packet involved.
    pub packet: PacketId,
    /// Wire size in bytes.
    pub size: u32,
    /// What happened.
    pub kind: TraceKind,
    /// Where it happened.
    pub node: NodeId,
}

/// Trace event kinds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceKind {
    /// Source application handed the packet to the network.
    Sent,
    /// Destination application received the packet.
    Delivered,
    /// The packet was discarded.
    Dropped(DropReason),
}

/// Workspace-wide network statistics collector.
#[derive(Debug, Default)]
pub struct NetStats {
    /// A simulation tracks a handful of flows, and the counters are
    /// touched for every packet event: a linear scan over a small vector
    /// is cheaper than hashing the flow id each time (and gives the
    /// [`flows`](NetStats::flows) iterator first-seen order for free).
    flows: Vec<(FlowId, FlowCounters)>,
    traced: HashMap<FlowId, Vec<TraceEntry>>,
    /// Fast path: skip the trace-table probe entirely when no flow is
    /// traced (the common case for sweep runs).
    tracing: bool,
}

impl NetStats {
    /// Create an empty collector.
    pub fn new() -> Self {
        Self::default()
    }

    /// Enable full per-packet tracing for `flow` (needed by rate-series
    /// figures; costs memory proportional to packet count).
    pub fn trace_flow(&mut self, flow: FlowId) {
        self.traced.entry(flow).or_default();
        self.tracing = true;
    }

    /// Whether `flow`'s packets are traced.
    #[inline]
    pub(crate) fn is_traced(&self, flow: FlowId) -> bool {
        self.tracing && self.traced.contains_key(&flow)
    }

    fn flow_mut(&mut self, flow: FlowId) -> &mut FlowCounters {
        match self.flows.iter().position(|(f, _)| *f == flow) {
            Some(i) => &mut self.flows[i].1,
            None => {
                self.flows.push((flow, FlowCounters::default()));
                &mut self.flows.last_mut().expect("just pushed").1
            }
        }
    }

    /// Record `pkt` handed to the network by its source application at
    /// `node`, at its `sent_at`, by a callback filed at `filed`.
    pub fn on_sent<P>(&mut self, filed: SimTime, pkt: &Packet<P>, node: NodeId) {
        let c = self.flow_mut(pkt.flow);
        c.tx_packets += 1;
        c.tx_bytes += pkt.size as u64;
        self.trace(pkt.sent_at, filed, pkt, TraceKind::Sent, node);
    }

    /// Record `pkt` delivered to its destination application at `node`
    /// at `at`, by an event filed at `filed`.
    pub fn on_delivered<P>(&mut self, at: SimTime, filed: SimTime, pkt: &Packet<P>, node: NodeId) {
        let c = self.flow_mut(pkt.flow);
        c.rx_packets += 1;
        c.rx_bytes += pkt.size as u64;
        let delay = pkt.age(at);
        c.delay.record(delay);
        c.delay_hist.record(delay);
        self.trace(at, filed, pkt, TraceKind::Delivered, node);
    }

    /// Record `pkt` dropped at `node` at `at` for `reason`, by an event
    /// filed at `filed`.
    pub fn on_dropped<P>(
        &mut self,
        at: SimTime,
        filed: SimTime,
        pkt: &Packet<P>,
        node: NodeId,
        reason: DropReason,
    ) {
        let c = self.flow_mut(pkt.flow);
        *c.drops.entry(reason).or_insert(0) += 1;
        self.trace(at, filed, pkt, TraceKind::Dropped(reason), node);
    }

    /// Add an entry to `pkt`'s flow trace, if traced, in `(at, filed)`
    /// order, after every entry with the same key. Entries are recorded as
    /// events are dispatched, which is that order, except a packet sent
    /// ahead (`AppCtx::send_at`), whose send is recorded before the events
    /// up to its instant: it still reads where a send made at its instant,
    /// by a callback filed where it counts as filed, would have.
    fn trace<P>(
        &mut self,
        at: SimTime,
        filed: SimTime,
        pkt: &Packet<P>,
        kind: TraceKind,
        node: NodeId,
    ) {
        if !self.tracing {
            return;
        }
        if let Some(log) = self.traced.get_mut(&pkt.flow) {
            let entry = TraceEntry {
                at,
                filed,
                packet: pkt.id,
                size: pkt.size,
                kind,
                node,
            };
            let key = (at, filed);
            if log.last().is_some_and(|last| (last.at, last.filed) > key) {
                let i = log.partition_point(|e| (e.at, e.filed) <= key);
                log.insert(i, entry);
            } else {
                log.push(entry);
            }
        }
    }

    /// Counters for one flow (zeroes if the flow never appeared).
    pub fn flow(&self, flow: FlowId) -> FlowCounters {
        self.flows
            .iter()
            .find(|(f, _)| *f == flow)
            .map(|(_, c)| c.clone())
            .unwrap_or_default()
    }

    /// All flows observed, in first-seen order.
    pub fn flows(&self) -> impl Iterator<Item = (&FlowId, &FlowCounters)> {
        self.flows.iter().map(|(f, c)| (f, c))
    }

    /// The trace for a flow, if tracing was enabled.
    pub fn trace_of(&self, flow: FlowId) -> Option<&[TraceEntry]> {
        self.traced.get(&flow).map(|v| v.as_slice())
    }

    /// Windowed send-rate series for a traced flow: bits per second of
    /// `Sent` events in consecutive windows of `window` length, from t=0.
    /// This regenerates Figure 6-style "instantaneous transmission rate"
    /// curves.
    pub fn send_rate_series(&self, flow: FlowId, window: SimDuration) -> Vec<(SimTime, f64)> {
        let Some(trace) = self.traced.get(&flow) else {
            return Vec::new();
        };
        assert!(!window.is_zero(), "window must be positive");
        let mut out: Vec<(SimTime, f64)> = Vec::new();
        let mut win_start = SimTime::ZERO;
        let mut bytes_in_win = 0u64;
        for e in trace {
            if e.kind != TraceKind::Sent {
                continue;
            }
            while e.at >= win_start + window {
                out.push((win_start, bytes_in_win as f64 * 8.0 / window.as_secs_f64()));
                win_start += window;
                bytes_in_win = 0;
            }
            bytes_in_win += e.size as u64;
        }
        out.push((win_start, bytes_in_win as f64 * 8.0 / window.as_secs_f64()));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{Dscp, Proto};

    const F: FlowId = FlowId(1);
    const N: NodeId = NodeId(0);

    /// Packet `id` of `flow`, `size` bytes, sent at `sent_at`.
    fn pkt(flow: FlowId, id: u64, size: u32, sent_at: SimTime) -> Packet<()> {
        Packet {
            id: PacketId(id),
            flow,
            src: N,
            dst: NodeId(1),
            size,
            dscp: Dscp::EF,
            proto: Proto::Udp,
            fragment: None,
            sent_at,
            payload: (),
        }
    }

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::new();
        let (a, b) = (
            pkt(F, 1, 1000, SimTime::ZERO),
            pkt(F, 2, 500, SimTime::ZERO),
        );
        s.on_sent(SimTime::ZERO, &a, N);
        s.on_sent(SimTime::ZERO, &b, N);
        let ms = SimTime::from_millis;
        s.on_delivered(ms(10), ms(9), &a, N);
        s.on_dropped(ms(5), ms(4), &b, N, DropReason::PolicerNonConformant);
        let c = s.flow(F);
        assert_eq!(c.tx_packets, 2);
        assert_eq!(c.tx_bytes, 1500);
        assert_eq!(c.rx_packets, 1);
        assert_eq!(c.drops_for(DropReason::PolicerNonConformant), 1);
        assert_eq!(c.total_drops(), 1);
        assert!((c.loss_fraction() - 0.5).abs() < 1e-12);
        assert_eq!(c.delay.mean(), SimDuration::from_millis(10));
    }

    #[test]
    fn unknown_flow_is_zero() {
        let s = NetStats::new();
        let c = s.flow(FlowId(99));
        assert_eq!(c.tx_packets, 0);
        assert_eq!(c.loss_fraction(), 0.0);
    }

    #[test]
    fn delay_summary_min_max_mean() {
        let mut d = DelaySummary::default();
        d.record(SimDuration::from_millis(10));
        d.record(SimDuration::from_millis(30));
        d.record(SimDuration::from_millis(20));
        assert_eq!(d.min, SimDuration::from_millis(10));
        assert_eq!(d.max, SimDuration::from_millis(30));
        assert_eq!(d.mean(), SimDuration::from_millis(20));
        assert_eq!(d.count, 3);
    }

    #[test]
    fn tracing_is_opt_in() {
        let mut s = NetStats::new();
        s.on_sent(SimTime::ZERO, &pkt(F, 1, 100, SimTime::ZERO), N);
        assert!(s.trace_of(F).is_none());
        s.trace_flow(FlowId(2));
        s.on_sent(SimTime::ZERO, &pkt(FlowId(2), 2, 100, SimTime::ZERO), N);
        assert_eq!(s.trace_of(FlowId(2)).unwrap().len(), 1);
    }

    /// A send recorded ahead of its instant reads, among the entries at
    /// that instant, where the instant it counts as filed at puts it;
    /// an entry filed at that same instant reads after it.
    #[test]
    fn same_instant_entries_read_in_filing_order() {
        let ms = SimTime::from_millis;
        let mut s = NetStats::new();
        s.trace_flow(F);
        s.on_sent(ms(5), &pkt(F, 3, 100, ms(10)), N);
        s.on_delivered(ms(10), ms(2), &pkt(F, 1, 100, ms(0)), NodeId(1));
        s.on_dropped(
            ms(10),
            ms(5),
            &pkt(F, 0, 100, ms(0)),
            N,
            DropReason::NoRoute,
        );
        s.on_dropped(
            ms(10),
            ms(7),
            &pkt(F, 2, 100, ms(1)),
            N,
            DropReason::QueueOverflow,
        );
        s.on_sent(ms(5), &pkt(F, 4, 100, ms(11)), N);
        let read: Vec<(u64, u64)> = s
            .trace_of(F)
            .unwrap()
            .iter()
            .map(|e| (e.at.as_nanos() / 1_000_000, e.packet.0))
            .collect();
        assert_eq!(read, [(10, 1), (10, 3), (10, 0), (10, 2), (11, 4)]);
    }

    #[test]
    fn rate_series_windows() {
        let mut s = NetStats::new();
        s.trace_flow(F);
        // 1000 B at t=0.1s, 2000 B at t=0.15s, 500 B at t=1.2s.
        for (id, size, at) in [(1, 1000, 100), (2, 2000, 150), (3, 500, 1200)] {
            let at = SimTime::from_millis(at);
            s.on_sent(at, &pkt(F, id, size, at), N);
        }
        let series = s.send_rate_series(F, SimDuration::from_secs(1));
        assert_eq!(series.len(), 2);
        assert!((series[0].1 - 24_000.0).abs() < 1e-9); // 3000 B in 1 s
        assert!((series[1].1 - 4_000.0).abs() < 1e-9); // 500 B in 1 s
    }

    #[test]
    fn goodput() {
        let c = FlowCounters {
            rx_bytes: 125_000, // 1 Mbit
            ..FlowCounters::default()
        };
        assert!((c.goodput_bps(SimDuration::from_secs(1)) - 1_000_000.0).abs() < 1e-9);
        assert_eq!(c.goodput_bps(SimDuration::ZERO), 0.0);
    }
}
