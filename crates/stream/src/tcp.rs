//! Mini-TCP: a Reno-style transport sufficient to reproduce the paper's
//! TCP-streaming observations.
//!
//! The paper's local experiments found that "TCP streaming, because of the
//! intrinsic rate adaptation capability of TCP, resulted in a smoother
//! traffic flow that produced better quality results" (§4.2/§5). What
//! matters for that finding is TCP's self-clocking (ACK-paced transmission
//! smooths bursts), loss-triggered multiplicative back-off (the flow adapts
//! *under* the policer's rate instead of blasting through it), and reliable
//! delivery (policer drops become *lateness*, not missing frames).
//!
//! [`TcpSender`] and [`TcpReceiver`] are pure state machines: they consume
//! events with explicit timestamps and return actions (segments to emit,
//! timers to arm), so they are unit-testable without a network and reusable
//! by the server/client applications in this crate. Those applications
//! hand every [`SenderActions`] to [`SenderActions::perform`], the one
//! place segments meet the network, and every retransmission timer to
//! [`TcpSender::on_rto_timer`].
//!
//! Simplifications relative to a production stack, none of which affect the
//! reproduced behaviour: byte-granularity cumulative ACKs without SACK, a
//! single RTT sample in flight (Karn's algorithm), no delayed ACKs, no
//! receiver flow control (the client's storage filter consumes everything),
//! no connection management (the MMS-style control channel plays that
//! role).

use std::collections::BTreeMap;

use dsv_net::app::{AppCtx, SendSpec};
use dsv_net::packet::{Dscp, FlowId, NodeId, Proto};
use dsv_sim::{SimDuration, SimTime};

use crate::payload::{StreamPayload, TcpSegment, HEADER_BYTES};

/// Maximum segment payload (bytes), aligned with the media chunk payload.
pub const MSS: u32 = 1448;

/// Actions the caller must perform after driving the sender.
#[derive(Debug, Default, PartialEq, Eq)]
pub struct SenderActions {
    /// Segments to transmit now: `(seq, len)` byte ranges.
    pub segments: Vec<(u64, u32)>,
    /// If set, (re)arm the retransmission timer this far in the future.
    pub arm_rto: Option<SimDuration>,
}

impl SenderActions {
    /// Carry the actions out for an application: send each segment to
    /// `dst` as a `flow` packet marked `dscp`, and arm the retransmission
    /// timer under `rto_token`. Returns the number of segments sent.
    pub fn perform(
        self,
        ctx: &mut AppCtx<StreamPayload>,
        dst: NodeId,
        flow: FlowId,
        dscp: Dscp,
        rto_token: u64,
    ) -> u64 {
        let sent = self.segments.len() as u64;
        for (seq, len) in self.segments {
            ctx.send(SendSpec {
                dst,
                flow,
                size: len + HEADER_BYTES,
                dscp,
                proto: Proto::Tcp,
                fragment: None,
                payload: StreamPayload::Tcp(TcpSegment {
                    seq,
                    len,
                    ack: 0,
                    is_ack: false,
                }),
            });
        }
        if let Some(delay) = self.arm_rto {
            ctx.set_timer(delay, rto_token);
        }
        sent
    }
}

/// Reno-style TCP sender.
#[derive(Debug, Clone)]
pub struct TcpSender {
    /// Bytes the application has written (stream length so far).
    write_end: u64,
    /// Oldest unacknowledged byte.
    snd_una: u64,
    /// Next byte to send for the first time.
    snd_nxt: u64,
    /// Congestion window, bytes (f64 for additive-increase fractions).
    cwnd: f64,
    /// Slow-start threshold, bytes.
    ssthresh: f64,
    /// Smoothed RTT (None until first sample).
    srtt: Option<SimDuration>,
    rttvar: SimDuration,
    /// Current retransmission timeout.
    rto: SimDuration,
    /// Outstanding RTT probe: (ack value that completes it, send time).
    probe: Option<(u64, SimTime)>,
    /// Duplicate-ACK counter.
    dupacks: u32,
    /// If in fast recovery, the snd_nxt at entry (new-Reno-lite exit).
    recovery_point: Option<u64>,
    /// Deadline of the armed RTO timer, if any. Every assignment of a new
    /// deadline returns `arm_rto` for exactly it (see `on_rto_timer`).
    rto_deadline: Option<SimTime>,
    /// Diagnostic: number of retransmission timeouts taken.
    pub timeouts: u64,
    /// Diagnostic: number of fast retransmits triggered.
    pub fast_retransmits: u64,
}

impl Default for TcpSender {
    fn default() -> Self {
        Self::new()
    }
}

impl TcpSender {
    /// New sender with a standard initial window of 2 MSS.
    pub fn new() -> TcpSender {
        TcpSender {
            write_end: 0,
            snd_una: 0,
            snd_nxt: 0,
            cwnd: 2.0 * MSS as f64,
            ssthresh: 64.0 * 1024.0,
            srtt: None,
            rttvar: SimDuration::ZERO,
            rto: SimDuration::from_secs(1),
            probe: None,
            dupacks: 0,
            recovery_point: None,
            rto_deadline: None,
            timeouts: 0,
            fast_retransmits: 0,
        }
    }

    /// Append `bytes` of application data to the stream.
    pub fn write(&mut self, bytes: u64) {
        self.write_end += bytes;
    }

    /// Bytes in flight.
    pub fn flight(&self) -> u64 {
        self.snd_nxt - self.snd_una
    }

    /// Current congestion window in bytes (diagnostics).
    pub fn cwnd(&self) -> u64 {
        self.cwnd as u64
    }

    /// All application bytes delivered and acknowledged?
    pub fn all_acked(&self) -> bool {
        self.snd_una == self.write_end
    }

    /// Oldest unacknowledged byte (diagnostics).
    pub fn snd_una(&self) -> u64 {
        self.snd_una
    }

    /// Current RTO deadline, if armed.
    pub fn rto_deadline(&self) -> Option<SimTime> {
        self.rto_deadline
    }

    /// Emit as many new segments as the window allows.
    pub fn poll_send(&mut self, now: SimTime) -> SenderActions {
        let mut acts = SenderActions::default();
        let window_end = self.snd_una + self.cwnd as u64;
        while self.snd_nxt < self.write_end && self.snd_nxt < window_end {
            let len = ((self.write_end - self.snd_nxt).min(MSS as u64))
                .min(window_end - self.snd_nxt) as u32;
            if len == 0 {
                break;
            }
            acts.segments.push((self.snd_nxt, len));
            if self.probe.is_none() {
                self.probe = Some((self.snd_nxt + len as u64, now));
            }
            self.snd_nxt += len as u64;
        }
        if !acts.segments.is_empty() && self.rto_deadline.is_none() {
            self.rto_deadline = Some(now + self.rto);
            acts.arm_rto = Some(self.rto);
        }
        acts
    }

    /// Process a cumulative ACK.
    pub fn on_ack(&mut self, now: SimTime, ack: u64) -> SenderActions {
        let mut acts = SenderActions::default();
        if ack > self.snd_una {
            // New data acknowledged.
            self.snd_una = ack;
            // After a timeout rewound snd_nxt, a late ACK for bytes sent
            // before the rewind can pass it: those bytes need no resend.
            self.snd_nxt = self.snd_nxt.max(self.snd_una);
            self.dupacks = 0;
            // RTT sample (Karn: only if the probe wasn't retransmitted —
            // probes are cleared on any retransmission).
            if let Some((probe_ack, sent_at)) = self.probe {
                if ack >= probe_ack {
                    let sample = now.saturating_since(sent_at);
                    self.update_rtt(sample);
                    self.probe = None;
                }
            }
            if let Some(rp) = self.recovery_point {
                if ack >= rp {
                    // Leave fast recovery.
                    self.recovery_point = None;
                    self.cwnd = self.ssthresh;
                } else {
                    // NewReno partial ACK: the next hole starts exactly at
                    // `ack`; retransmit it immediately instead of waiting
                    // for an RTO (essential under policers, which drop
                    // several segments per window), and send *only* the
                    // retransmission — injecting new data as well would
                    // double the ACK-clocked rate into the very policer
                    // that is already dropping.
                    let len = ((self.write_end - ack).min(MSS as u64)) as u32;
                    if len > 0 {
                        acts.segments.push((ack, len));
                    }
                    self.rto_deadline = Some(now + self.rto);
                    acts.arm_rto = Some(self.rto);
                    return acts;
                }
            } else if self.cwnd < self.ssthresh {
                // Slow start.
                self.cwnd += MSS as f64;
            } else {
                // Congestion avoidance: +MSS per RTT.
                self.cwnd += MSS as f64 * MSS as f64 / self.cwnd;
            }
            // Restart the RTO for remaining flight.
            if self.flight() > 0 {
                self.rto_deadline = Some(now + self.rto);
                acts.arm_rto = Some(self.rto);
            } else {
                self.rto_deadline = None;
            }
        } else if ack == self.snd_una && self.flight() > 0 {
            self.dupacks += 1;
            if self.dupacks == 3 && self.recovery_point.is_none() {
                // Fast retransmit.
                self.fast_retransmits += 1;
                self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * MSS as f64);
                self.cwnd = self.ssthresh + 3.0 * MSS as f64;
                self.recovery_point = Some(self.snd_nxt);
                let len = ((self.write_end - self.snd_una).min(MSS as u64)) as u32;
                if len > 0 {
                    acts.segments.push((self.snd_una, len));
                }
                self.probe = None;
                self.rto_deadline = Some(now + self.rto);
                acts.arm_rto = Some(self.rto);
            } else if self.recovery_point.is_some() {
                // Inflate during recovery.
                self.cwnd += MSS as f64;
            }
        }
        // Window may have opened.
        let more = self.poll_send(now);
        acts.segments.extend(more.segments);
        if acts.arm_rto.is_none() {
            acts.arm_rto = more.arm_rto;
        }
        acts
    }

    /// A retransmission timer armed by an earlier `arm_rto` fired at
    /// `now`: take the timeout iff `now` has reached the current deadline.
    ///
    /// A timer whose deadline an ACK has since moved (or cleared) is stale
    /// and does nothing; it needs no re-arm. Every deadline this sender
    /// sets lies at least the 200 ms RTO floor ahead and is armed, in the
    /// same call, by a timer for exactly that instant, so when a deadline
    /// falls due the first timer event to see it is that direct arm — the
    /// timeout always fires there, at the deadline itself.
    pub fn on_rto_timer(&mut self, now: SimTime) -> SenderActions {
        match self.rto_deadline {
            Some(deadline) if now >= deadline => self.on_timeout(now),
            _ => SenderActions::default(),
        }
    }

    /// The retransmission timeout: collapse the window and go back to the
    /// oldest unacknowledged byte. [`TcpSender::on_rto_timer`] calls this
    /// once the deadline has passed.
    pub fn on_timeout(&mut self, now: SimTime) -> SenderActions {
        let mut acts = SenderActions::default();
        if self.flight() == 0 {
            self.rto_deadline = None;
            return acts;
        }
        // Classic Reno timeout response.
        self.timeouts += 1;
        self.ssthresh = (self.flight() as f64 / 2.0).max(2.0 * MSS as f64);
        self.cwnd = MSS as f64;
        self.recovery_point = None;
        self.dupacks = 0;
        self.probe = None;
        self.rto = (self.rto * 2).min(SimDuration::from_secs(60));
        // Go-back-N from snd_una.
        self.snd_nxt = self.snd_una;
        let len = ((self.write_end - self.snd_una).min(MSS as u64)) as u32;
        if len > 0 {
            acts.segments.push((self.snd_una, len));
            self.snd_nxt = self.snd_una + len as u64;
        }
        self.rto_deadline = Some(now + self.rto);
        acts.arm_rto = Some(self.rto);
        acts
    }

    fn update_rtt(&mut self, sample: SimDuration) {
        match self.srtt {
            None => {
                self.srtt = Some(sample);
                self.rttvar = sample / 2;
            }
            Some(srtt) => {
                let diff = if sample > srtt {
                    sample - srtt
                } else {
                    srtt - sample
                };
                self.rttvar = (self.rttvar * 3 + diff) / 4;
                let new_srtt =
                    SimDuration::from_nanos((srtt.as_nanos() * 7 + sample.as_nanos()) / 8);
                self.srtt = Some(new_srtt);
            }
        }
        let srtt = self.srtt.expect("just set");
        self.rto = (srtt + self.rttvar * 4)
            .max(SimDuration::from_millis(200))
            .min(SimDuration::from_secs(60));
    }
}

/// TCP receiver: reassembles the byte stream and produces cumulative ACKs.
#[derive(Debug, Default, Clone)]
pub struct TcpReceiver {
    /// Next contiguous byte expected.
    rcv_nxt: u64,
    /// Out-of-order ranges `start → end`.
    ooo: BTreeMap<u64, u64>,
}

impl TcpReceiver {
    /// New receiver at stream offset 0.
    pub fn new() -> TcpReceiver {
        TcpReceiver::default()
    }

    /// Contiguously delivered prefix length.
    pub fn delivered(&self) -> u64 {
        self.rcv_nxt
    }

    /// Process a data segment; returns the ACK value to send back.
    pub fn on_segment(&mut self, seq: u64, len: u32) -> u64 {
        let end = seq + len as u64;
        if end > self.rcv_nxt {
            let start = seq.max(self.rcv_nxt);
            // Merge [start, end) into the OOO map.
            self.ooo
                .entry(start)
                .and_modify(|e| *e = (*e).max(end))
                .or_insert(end);
            // Coalesce and advance rcv_nxt.
            while let Some((&s, &e)) = self.ooo.range(..=self.rcv_nxt).next_back() {
                self.ooo.remove(&s);
                self.rcv_nxt = self.rcv_nxt.max(e);
            }
        }
        self.rcv_nxt
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const T0: SimTime = SimTime::ZERO;

    fn t(ms: u64) -> SimTime {
        SimTime::from_millis(ms)
    }

    #[test]
    fn slow_start_grows_window() {
        let mut s = TcpSender::new();
        s.write(1_000_000);
        let a = s.poll_send(T0);
        assert_eq!(a.segments.len(), 2, "IW = 2 MSS");
        assert!(a.arm_rto.is_some());
        // ACK both: cwnd grows by MSS per ACK; window opens.
        let a2 = s.on_ack(t(50), (2 * MSS) as u64);
        assert!(
            a2.segments.len() >= 3,
            "window should grow: {}",
            a2.segments.len()
        );
    }

    #[test]
    fn rtt_estimation_sets_rto() {
        let mut s = TcpSender::new();
        s.write(10_000);
        s.poll_send(T0);
        s.on_ack(t(80), MSS as u64);
        assert!(s.srtt.is_some());
        let srtt = s.srtt.unwrap();
        assert_eq!(srtt, SimDuration::from_millis(80));
        assert!(s.rto >= SimDuration::from_millis(200));
    }

    #[test]
    fn fast_retransmit_on_three_dupacks() {
        let mut s = TcpSender::new();
        s.write(100_000);
        // Grow window a bit.
        s.poll_send(T0);
        s.on_ack(t(20), (2 * MSS) as u64);
        let before_flight = s.flight();
        assert!(before_flight > 0);
        let una = s.snd_una();
        // Three dup ACKs.
        assert!(s.on_ack(t(30), una).segments.is_empty());
        assert!(s.on_ack(t(31), una).segments.is_empty());
        let a = s.on_ack(t(32), una);
        assert!(
            a.segments.iter().any(|&(seq, _)| seq == una),
            "must retransmit the lost segment: {:?}",
            a.segments
        );
    }

    #[test]
    fn timeout_collapses_window_and_backs_off() {
        let mut s = TcpSender::new();
        s.write(100_000);
        s.poll_send(T0);
        let rto_before = s.rto;
        let a = s.on_timeout(t(1000));
        assert_eq!(s.cwnd(), MSS as u64);
        assert!(s.rto >= rto_before * 2);
        assert_eq!(a.segments.len(), 1);
        assert_eq!(a.segments[0].0, 0);
    }

    #[test]
    fn stale_rto_timer_is_a_no_op_and_the_direct_arm_fires() {
        let mut s = TcpSender::new();
        s.write(100_000);
        let first = s.poll_send(T0).arm_rto.expect("first send arms");
        // An ACK at 900 ms pushes the deadline past the first timer's
        // instant and arms a timer for exactly the new deadline.
        let moved = s.on_ack(t(900), MSS as u64).arm_rto.expect("ACK re-arms");
        let deadline = s.rto_deadline().expect("flight remains");
        assert_eq!(deadline, t(900) + moved);
        assert!(deadline > T0 + first);
        // The first timer (armed at 0) is now stale: nothing happens.
        assert_eq!(s.on_rto_timer(T0 + first), SenderActions::default());
        assert_eq!(s.timeouts, 0);
        assert_eq!(s.rto_deadline(), Some(deadline));
        // The timer armed by the ACK falls due at the deadline and fires.
        let acts = s.on_rto_timer(deadline);
        assert_eq!(s.timeouts, 1);
        assert_eq!(acts.segments.len(), 1);
        assert!(acts.arm_rto.is_some());
    }

    #[test]
    fn recovery_exit_restores_half_window() {
        let mut s = TcpSender::new();
        s.write(1_000_000);
        s.poll_send(T0);
        // Build a decent window.
        let mut acked = 0u64;
        for i in 0..10 {
            acked += MSS as u64;
            s.on_ack(t(10 + i), acked);
        }
        let cwnd_before = s.cwnd();
        let una = s.snd_una();
        s.on_ack(t(30), una);
        s.on_ack(t(31), una);
        s.on_ack(t(32), una);
        assert!(s.recovery_point.is_some());
        // ACK past the recovery point.
        let rp = s.recovery_point.unwrap();
        s.on_ack(t(60), rp);
        assert!(s.recovery_point.is_none());
        assert!(
            s.cwnd() < cwnd_before,
            "window halved after loss: {} vs {}",
            s.cwnd(),
            cwnd_before
        );
    }

    #[test]
    fn sender_completes_stream() {
        // Drive a lossless exchange to completion.
        let mut s = TcpSender::new();
        let mut r = TcpReceiver::new();
        s.write(50_000);
        let mut now = T0;
        let mut pending: Vec<(u64, u32)> = s.poll_send(now).segments;
        let mut rounds = 0;
        while !s.all_acked() {
            rounds += 1;
            assert!(rounds < 1000, "no progress");
            now += SimDuration::from_millis(10);
            let mut acks = Vec::new();
            for (seq, len) in pending.drain(..) {
                acks.push(r.on_segment(seq, len));
            }
            let mut next = Vec::new();
            for ack in acks {
                next.extend(s.on_ack(now, ack).segments);
            }
            if next.is_empty() && !s.all_acked() {
                next.extend(s.on_timeout(now + s.rto).segments);
            }
            pending = next;
        }
        assert_eq!(r.delivered(), 50_000);
    }

    #[test]
    fn receiver_reorders() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_segment(1448, 1448), 0); // gap
        assert_eq!(r.on_segment(0, 1448), 2896); // fills, jumps
        assert_eq!(r.delivered(), 2896);
    }

    #[test]
    fn receiver_ignores_duplicates_and_overlaps() {
        let mut r = TcpReceiver::new();
        assert_eq!(r.on_segment(0, 1000), 1000);
        assert_eq!(r.on_segment(0, 1000), 1000); // exact dup
        assert_eq!(r.on_segment(500, 1000), 1500); // overlap extends
        assert_eq!(r.on_segment(200, 100), 1500); // fully covered
    }

    #[test]
    fn receiver_merges_many_gaps() {
        let mut r = TcpReceiver::new();
        r.on_segment(3000, 1000);
        r.on_segment(1000, 1000);
        assert_eq!(r.delivered(), 0);
        r.on_segment(0, 1000);
        assert_eq!(r.delivered(), 2000);
        r.on_segment(2000, 1000);
        assert_eq!(r.delivered(), 4000);
    }
}
