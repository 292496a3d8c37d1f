//! Cross-traffic generators and sinks.
//!
//! The paper's wide-area experiments ran against uncontrolled Internet2
//! background traffic, and a few local experiments added interfering
//! cross-traffic explicitly. These applications reproduce that: constant
//! bit rate and on-off (bursty) sources plus a counting sink.
//! All randomness comes from a seeded [`SimRng`], so "background Internet
//! load" is exactly reproducible.

use dsv_sim::{SimDuration, SimRng, SimTime};

use crate::app::{AppCtx, Application, SendSpec};
use crate::packet::{Dscp, FlowId, NodeId, Packet, Proto};

/// Constant-bit-rate source: fixed-size packets at a fixed interval.
pub struct CbrSource {
    /// Destination host.
    pub dst: NodeId,
    /// Flow label.
    pub flow: FlowId,
    /// Packet size in bytes.
    pub packet_size: u32,
    /// Target rate in bits per second.
    pub rate_bps: u64,
    /// DSCP marking.
    pub dscp: Dscp,
    /// Stop sending at this time (packets strictly before).
    pub stop_at: SimTime,
}

impl CbrSource {
    fn interval(&self) -> SimDuration {
        SimDuration::for_bytes_at_bps(self.packet_size as u64, self.rate_bps)
    }

    fn emit<P: Default>(&self, ctx: &mut AppCtx<P>) {
        ctx.send(SendSpec {
            dst: self.dst,
            flow: self.flow,
            size: self.packet_size,
            dscp: self.dscp,
            proto: Proto::Udp,
            fragment: None,
            payload: P::default(),
        });
    }
}

impl<P: Default> Application<P> for CbrSource {
    fn on_start(&mut self, ctx: &mut AppCtx<P>) {
        if ctx.now() < self.stop_at {
            self.emit(ctx);
            ctx.set_timer(self.interval(), 0);
        }
    }

    fn on_packet(&mut self, _ctx: &mut AppCtx<P>, _pkt: Packet<P>) {}

    fn on_timer(&mut self, ctx: &mut AppCtx<P>, _token: u64) {
        if ctx.now() < self.stop_at {
            self.emit(ctx);
            ctx.set_timer(self.interval(), 0);
        }
    }
}

/// On-off source: exponentially distributed ON periods during which it sends
/// CBR at `peak_rate_bps`, separated by exponentially distributed OFF
/// periods. Aggregates of such sources are the classic bursty-background
/// model.
pub struct OnOffSource {
    /// Destination host.
    pub dst: NodeId,
    /// Flow label.
    pub flow: FlowId,
    /// Packet size in bytes.
    pub packet_size: u32,
    /// Send rate while ON, bits per second.
    pub peak_rate_bps: u64,
    /// Mean ON duration.
    pub mean_on: SimDuration,
    /// Mean OFF duration.
    pub mean_off: SimDuration,
    /// DSCP marking.
    pub dscp: Dscp,
    /// Stop time.
    pub stop_at: SimTime,
    /// Seeded generator.
    pub rng: SimRng,
    on_until: SimTime,
}

/// Timer tokens for [`OnOffSource`].
const TOK_SEND: u64 = 0;
const TOK_START_ON: u64 = 1;

impl OnOffSource {
    /// Construct with the burst state initialised to OFF.
    #[allow(clippy::too_many_arguments)]
    pub fn new(
        dst: NodeId,
        flow: FlowId,
        packet_size: u32,
        peak_rate_bps: u64,
        mean_on: SimDuration,
        mean_off: SimDuration,
        dscp: Dscp,
        stop_at: SimTime,
        rng: SimRng,
    ) -> Self {
        OnOffSource {
            dst,
            flow,
            packet_size,
            peak_rate_bps,
            mean_on,
            mean_off,
            dscp,
            stop_at,
            rng,
            on_until: SimTime::ZERO,
        }
    }

    fn schedule_on<P>(&mut self, ctx: &mut AppCtx<P>) {
        let off = self.rng.exponential(self.mean_off.as_secs_f64());
        ctx.set_timer(SimDuration::from_secs_f64(off), TOK_START_ON);
    }

    fn send_interval(&self) -> SimDuration {
        SimDuration::for_bytes_at_bps(self.packet_size as u64, self.peak_rate_bps)
    }
}

impl<P: Default> Application<P> for OnOffSource {
    fn on_start(&mut self, ctx: &mut AppCtx<P>) {
        self.schedule_on(ctx);
    }

    fn on_packet(&mut self, _ctx: &mut AppCtx<P>, _pkt: Packet<P>) {}

    fn on_timer(&mut self, ctx: &mut AppCtx<P>, token: u64) {
        if ctx.now() >= self.stop_at {
            return;
        }
        match token {
            TOK_START_ON => {
                let on = self.rng.exponential(self.mean_on.as_secs_f64());
                self.on_until = ctx.now() + SimDuration::from_secs_f64(on);
                ctx.set_timer(SimDuration::ZERO, TOK_SEND);
            }
            TOK_SEND => {
                if ctx.now() < self.on_until {
                    ctx.send(SendSpec {
                        dst: self.dst,
                        flow: self.flow,
                        size: self.packet_size,
                        dscp: self.dscp,
                        proto: Proto::Udp,
                        fragment: None,
                        payload: P::default(),
                    });
                    ctx.set_timer(self.send_interval(), TOK_SEND);
                } else {
                    self.schedule_on(ctx);
                }
            }
            _ => unreachable!("unknown timer token {token}"),
        }
    }
}

/// A sink that counts what it receives (delivery stats also accumulate in
/// [`crate::stats::NetStats`]; the sink's own counter is occasionally
/// convenient in unit tests).
#[derive(Debug, Default)]
pub struct CountingSink {
    /// Packets received.
    pub packets: u64,
    /// Bytes received.
    pub bytes: u64,
}

impl<P> Application<P> for CountingSink {
    fn on_start(&mut self, _ctx: &mut AppCtx<P>) {}
    fn on_packet(&mut self, _ctx: &mut AppCtx<P>, pkt: Packet<P>) {
        self.packets += 1;
        self.bytes += pkt.size as u64;
    }
    fn on_timer(&mut self, _ctx: &mut AppCtx<P>, _token: u64) {}
    fn absorbs(&self) -> Option<fn(&P) -> bool> {
        Some(|_| true)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::Link;
    use crate::network::{NetworkBuilder, Simulation};

    fn run_source(app: Box<dyn Application<()> + Send>) -> crate::stats::FlowCounters {
        let mut b = NetworkBuilder::new();
        let rx = b.add_host("rx", Box::new(CountingSink::default()));
        let r = b.add_router("r");
        let tx = b.add_host("tx", app);
        b.connect(tx, r, Link::fast_ethernet());
        b.connect(r, rx, Link::fast_ethernet());
        let mut sim = Simulation::new(b.build());
        sim.run();
        sim.net.stats.flow(FlowId(5))
    }

    #[test]
    fn cbr_rate_is_exact() {
        // 1 Mbps of 500-B packets for 2 s = 500 packets.
        let c = run_source(Box::new(CbrSource {
            dst: NodeId(0),
            flow: FlowId(5),
            packet_size: 500,
            rate_bps: 1_000_000,
            dscp: Dscp::BEST_EFFORT,
            stop_at: SimTime::from_secs(2),
        }));
        assert_eq!(c.tx_packets, 500);
        assert_eq!(c.rx_packets, 500);
    }

    #[test]
    fn onoff_duty_cycle_scales_rate() {
        let c = run_source(Box::new(OnOffSource::new(
            NodeId(0),
            FlowId(5),
            500,
            2_000_000,
            SimDuration::from_millis(100),
            SimDuration::from_millis(100),
            Dscp::BEST_EFFORT,
            SimTime::from_secs(20),
            SimRng::seed_from_u64(3),
        )));
        // 50 % duty cycle at 2 Mbps ≈ 1 Mbps ⇒ ~250 pkt/s × 20 s = 5000.
        // On/off boundaries are random; allow a generous band.
        assert!(
            (3500..=6500).contains(&c.tx_packets),
            "sent {}",
            c.tx_packets
        );
    }

    #[test]
    fn sources_are_deterministic() {
        let mk = || {
            run_source(Box::new(OnOffSource::new(
                NodeId(0),
                FlowId(5),
                500,
                1_000_000,
                SimDuration::from_millis(50),
                SimDuration::from_millis(50),
                Dscp::BEST_EFFORT,
                SimTime::from_secs(3),
                SimRng::seed_from_u64(99),
            )))
        };
        assert_eq!(mk().tx_packets, mk().tx_packets);
    }
}
