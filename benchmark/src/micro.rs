//! Micro-loops over the public primitives the event loop spends its
//! time in. Each returns the median over [`REPEATS`] timed loops of
//! nanoseconds per operation.

use std::hint::black_box;
use std::time::Instant;

use dsv_core::artifacts::{self, Codec};
use dsv_core::prelude::*;
use dsv_core::qoe;
use dsv_diffserv::policer::Policer;
use dsv_media::features::displayed_stream;
use dsv_net::packet::{Dscp, FlowId, NodeId, Packet, PacketId, Proto};
use dsv_net::qdisc::{DropTailQueue, Qdisc, QueueLimits};
use dsv_net::wred::WredQueue;
use dsv_sim::{EventQueue, QueueBackend, SimDuration, SimTime};
use dsv_vqm::Vqm;

const OPS: u64 = 1 << 20;
const REPEATS: usize = 5;

fn median_ns_per_op(ops: u64, mut body: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            body();
            t0.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    crate::median(&samples)
}

fn pkt(id: u64, dscp: Dscp) -> Packet<()> {
    Packet {
        id: PacketId(id),
        flow: FlowId(1),
        src: NodeId(0),
        dst: NodeId(1),
        size: 1500,
        dscp,
        proto: Proto::Udp,
        fragment: None,
        sent_at: SimTime::ZERO,
        payload: (),
    }
}

/// Timing-wheel schedule-and-pop at a standing 4,096 pending events, with
/// the simulator's bimodal shape: mostly near-future per-packet events,
/// one in 16 a far-future timeout (the `benches/engine.rs` shape).
pub fn wheel_ns_per_op() -> f64 {
    let mut q = EventQueue::with_backend_and_capacity(QueueBackend::Wheel, 4096);
    for i in 0..4096u64 {
        q.schedule(SimTime::from_nanos(i * 37), i);
    }
    median_ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (t, v) = q.pop().expect("population maintained");
            let delta = if v % 16 == 0 {
                SimDuration::from_millis(150 + (v % 7) * 100)
            } else {
                SimDuration::from_micros(1 + v % 50)
            };
            q.schedule(t + delta, black_box(v));
        }
    })
}

/// `Policer::ef_drop` verdicts with arrivals spaced so conformant and
/// dropped packets alternate.
pub fn policer_ns_per_verdict() -> f64 {
    let mut p = Policer::ef_drop(12_000_000, 3000);
    let (mut t, mut id) = (0u64, 0u64);
    median_ns_per_op(OPS, || {
        for _ in 0..OPS {
            t += 500_000;
            id += 1;
            black_box(p.police(SimTime::from_nanos(t), pkt(id, Dscp::EF)));
        }
    })
}

/// DropTail enqueue plus dequeue.
pub fn qdisc_ns_per_op() -> f64 {
    let mut q = DropTailQueue::new(QueueLimits::packets(1024));
    let mut id = 0u64;
    median_ns_per_op(OPS, || {
        for _ in 0..OPS {
            id += 1;
            let _ = q.enqueue(pkt(id, Dscp::BEST_EFFORT));
            black_box(q.dequeue());
        }
    })
}

/// `WredQueue::af_default` enqueue (plus a dequeue when admitted) over a
/// standing 40-packet backlog, so the RED curves of the yellow and red
/// precedences are live; colors cycle green, yellow, red.
pub fn wred_ns_per_op() -> f64 {
    let mut q = WredQueue::af_default(120_000, 23);
    for id in 0..40 {
        let _ = q.enqueue(pkt(id, Dscp::af(1, 1)));
    }
    let mut id = 40u64;
    median_ns_per_op(OPS, || {
        for _ in 0..OPS {
            id += 1;
            if q.enqueue(pkt(id, Dscp::af(1, 1 + (id % 3) as u8))).is_ok() {
                black_box(q.dequeue());
            }
        }
    })
}

/// Full VQM scoring of clip Lost against a copy that repeats every 13th
/// frame, per frame.
pub fn vqm_ns_per_frame() -> f64 {
    let reference = ClipId::Lost.model().source_features();
    let displayed: Vec<u32> = (0..reference.len() as u32)
        .map(|i| if i % 13 == 5 { i - 1 } else { i })
        .collect();
    let received = displayed_stream(&reference, &displayed);
    let vqm = Vqm::default();
    median_ns_per_op(reference.len() as u64, || {
        black_box(vqm.score_streams(&reference, &received).overall);
    })
}

/// `qoe::score_session` on one lossy QBone session — clip Lost at
/// 1.5 Mbit/s through a 2-MTU bucket just above the encoding rate — in
/// milliseconds. The stand-in `qoe.score_ms` of a workload that scores
/// no session.
pub fn score_ms_calibration() -> f64 {
    let cfg = QboneConfig::new(
        ClipId2::Lost,
        1_500_000,
        EfProfile::new(1_550_000, DEPTH_2MTU),
    );
    let (_, report) = run_qbone_detailed(&cfg);
    let source = artifacts::source_features(ClipId::Lost);
    let reference = artifacts::reference_features(ClipId::Lost, Codec::Mpeg1, 1_500_000);
    median_ns_per_op(1, || {
        black_box(qoe::score_session(&source, &reference, &report, None));
    }) / 1e6
}
