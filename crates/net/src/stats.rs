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
use crate::packet::{DropReason, FlowId, NodeId, PacketId};

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

    fn flow_mut(&mut self, flow: FlowId) -> &mut FlowCounters {
        match self.flows.iter().position(|(f, _)| *f == flow) {
            Some(i) => &mut self.flows[i].1,
            None => {
                self.flows.push((flow, FlowCounters::default()));
                &mut self.flows.last_mut().expect("just pushed").1
            }
        }
    }

    /// Record a transmission by the source application.
    pub fn on_sent(
        &mut self,
        at: SimTime,
        flow: FlowId,
        packet: PacketId,
        size: u32,
        node: NodeId,
    ) {
        let c = self.flow_mut(flow);
        c.tx_packets += 1;
        c.tx_bytes += size as u64;
        self.trace(
            flow,
            TraceEntry {
                at,
                packet,
                size,
                kind: TraceKind::Sent,
                node,
            },
        );
    }

    /// Record a delivery to the destination application.
    pub fn on_delivered(
        &mut self,
        at: SimTime,
        flow: FlowId,
        packet: PacketId,
        size: u32,
        node: NodeId,
        delay: SimDuration,
    ) {
        let c = self.flow_mut(flow);
        c.rx_packets += 1;
        c.rx_bytes += size as u64;
        c.delay.record(delay);
        c.delay_hist.record(delay);
        self.trace(
            flow,
            TraceEntry {
                at,
                packet,
                size,
                kind: TraceKind::Delivered,
                node,
            },
        );
    }

    /// Record a drop.
    pub fn on_dropped(
        &mut self,
        at: SimTime,
        flow: FlowId,
        packet: PacketId,
        size: u32,
        node: NodeId,
        reason: DropReason,
    ) {
        let c = self.flow_mut(flow);
        *c.drops.entry(reason).or_insert(0) += 1;
        self.trace(
            flow,
            TraceEntry {
                at,
                packet,
                size,
                kind: TraceKind::Dropped(reason),
                node,
            },
        );
    }

    fn trace(&mut self, flow: FlowId, entry: TraceEntry) {
        if !self.tracing {
            return;
        }
        if let Some(log) = self.traced.get_mut(&flow) {
            log.push(entry);
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

    const F: FlowId = FlowId(1);
    const N: NodeId = NodeId(0);

    #[test]
    fn counters_accumulate() {
        let mut s = NetStats::new();
        s.on_sent(SimTime::ZERO, F, PacketId(1), 1000, N);
        s.on_sent(SimTime::ZERO, F, PacketId(2), 500, N);
        s.on_delivered(
            SimTime::from_millis(10),
            F,
            PacketId(1),
            1000,
            N,
            SimDuration::from_millis(10),
        );
        s.on_dropped(
            SimTime::from_millis(5),
            F,
            PacketId(2),
            500,
            N,
            DropReason::PolicerNonConformant,
        );
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
        s.on_sent(SimTime::ZERO, F, PacketId(1), 100, N);
        assert!(s.trace_of(F).is_none());
        s.trace_flow(FlowId(2));
        s.on_sent(SimTime::ZERO, FlowId(2), PacketId(2), 100, N);
        assert_eq!(s.trace_of(FlowId(2)).unwrap().len(), 1);
    }

    #[test]
    fn rate_series_windows() {
        let mut s = NetStats::new();
        s.trace_flow(F);
        // 1000 B at t=0.1s, 2000 B at t=0.15s, 500 B at t=1.2s.
        s.on_sent(SimTime::from_millis(100), F, PacketId(1), 1000, N);
        s.on_sent(SimTime::from_millis(150), F, PacketId(2), 2000, N);
        s.on_sent(SimTime::from_millis(1200), F, PacketId(3), 500, N);
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
