//! The traced pass: a workload's jobs re-run serially through the public
//! functions of each layer, with a span around every call.
//!
//! Per point: `core.spec` builds the scenario spec,
//! `scenario.canonicalize` and `keys.address` compute its cache and
//! cluster identity, and — for the first point of each identity, as the
//! runner's exact clustering does — `scenario.compile` builds the
//! network, `sim.simulate` runs it to its horizon and `qoe.score` scores
//! each media client. Spans live in memory; [`Recorder::chrome_json`]
//! renders them as Chrome trace-event JSON, which Perfetto opens.

use std::collections::{BTreeMap, HashSet};
use std::hint::black_box;
use std::time::Instant;

use dsv_core::artifacts::{self, ArtifactStore, Codec};
use dsv_core::keys;
use dsv_core::prelude::*;
use dsv_core::qoe;
use dsv_net::network::Simulation;
use dsv_scenario::{canonicalize, compile, CompileOptions, CompiledScenario, ScenarioSpec};
use dsv_sim::SimTime;
use serde::{Serialize, Value};

use crate::workload::Jobs;

/// Name of the span that encloses one grid point's steps.
pub const POINT: &str = "point";

/// One timed call: its layer name, interval (ns since the recorder
/// started), enclosing span and grid point.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: Option<usize>,
    point: usize,
}

/// An in-memory span recorder.
pub struct Recorder {
    origin: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Recorder {
    pub fn new() -> Recorder {
        Recorder {
            origin: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    /// Run `f` inside a span; spans opened by `f` become its children.
    pub fn span<T>(
        &mut self,
        name: &'static str,
        point: usize,
        f: impl FnOnce(&mut Recorder) -> T,
    ) -> T {
        let idx = self.spans.len();
        self.spans.push(Span {
            name,
            start_ns: self.now_ns(),
            end_ns: 0,
            parent: self.open.last().copied(),
            point,
        });
        self.open.push(idx);
        let out = f(self);
        self.open.pop();
        self.spans[idx].end_ns = self.now_ns();
        out
    }

    fn now_ns(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Self time per span name: each span's duration minus its children's.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut own: Vec<u64> = self.spans.iter().map(|s| s.end_ns - s.start_ns).collect();
        for s in &self.spans {
            if let Some(p) = s.parent {
                own[p] -= s.end_ns - s.start_ns;
            }
        }
        let mut by_name = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(own) {
            *by_name.entry(s.name).or_insert(0) += ns;
        }
        by_name
    }

    /// Chrome trace-event JSON (complete events, microseconds).
    pub fn chrome_json(&self) -> String {
        let us = |ns: u64| Value::Num(serde::Num::F(ns as f64 / 1e3));
        let events = self
            .spans
            .iter()
            .map(|s| {
                Value::Object(vec![
                    ("name".to_string(), s.name.to_value()),
                    ("ph".to_string(), "X".to_value()),
                    ("ts".to_string(), us(s.start_ns)),
                    ("dur".to_string(), us(s.end_ns - s.start_ns)),
                    ("pid".to_string(), 1u32.to_value()),
                    ("tid".to_string(), 1u32.to_value()),
                    (
                        "args".to_string(),
                        Value::Object(vec![
                            ("point".to_string(), s.point.to_value()),
                            ("parent".to_string(), s.parent.to_value()),
                        ]),
                    ),
                ])
            })
            .collect();
        let doc = Value::Object(vec![
            ("traceEvents".to_string(), Value::Array(events)),
            ("displayTimeUnit".to_string(), "ms".to_value()),
        ]);
        serde_json::to_string(&doc).expect("trace serializes")
    }
}

/// Counts taken at the layer boundaries of one traced pass.
#[derive(Default)]
pub struct Totals {
    /// Grid points traced.
    pub points: usize,
    /// Points that compiled and simulated (one per cluster class).
    pub simulated: usize,
    /// Media sessions scored.
    pub scored: usize,
    /// Events the simulations dispatched.
    pub events: u64,
    /// Packets the simulations sent, every flow.
    pub packets: u64,
    /// Largest pending-event population of any simulation.
    pub queue_high_water: usize,
    /// Largest in-flight packet count of any simulation.
    pub pool_high_water: usize,
    /// Each point's `(kind, address)`: the runner's cache identity.
    pub addresses: Vec<(&'static str, String)>,
}

/// Trace every point of `jobs` in job order.
pub fn traced_pass(jobs: &Jobs, rec: &mut Recorder) -> Totals {
    let mut pass = Pass {
        rec,
        totals: Totals::default(),
        seen: HashSet::new(),
    };
    for job in &jobs.qbone {
        let Job::Qbone(cfg) = job else {
            unreachable!("workloads hold only QBone single-stream jobs")
        };
        pass.point(
            "qbone",
            || dsv_core::qbone::qbone_spec(cfg),
            scoring(&[
                ("clip", cfg.clip.to_value()),
                ("encoding_bps", cfg.encoding_bps.to_value()),
                ("score_vs_best", cfg.score_vs_best.to_value()),
            ]),
            Some((cfg.clip, cfg.encoding_bps)),
        );
    }
    for cfg in &jobs.aggregate {
        pass.point(
            "aggregate",
            || dsv_core::aggregate::aggregate_spec(cfg),
            scoring(&[
                ("clip", cfg.clip.to_value()),
                ("encoding_bps", cfg.encoding_bps.to_value()),
            ]),
            Some((cfg.clip, cfg.encoding_bps)),
        );
    }
    for job in &jobs.flows {
        match job {
            FlowJob::Smoothing(cfg) => pass.point(
                job.kind(),
                || dsv_core::smoothing::smoothing_spec(cfg),
                scoring(&[
                    ("clip", cfg.clip.to_value()),
                    ("encoding_bps", cfg.encoding_bps.to_value()),
                ]),
                None,
            ),
            FlowJob::AfTcp(cfg) => pass.point(
                job.kind(),
                || dsv_core::af_tcp::af_tcp_spec(cfg),
                scoring(&[]),
                None,
            ),
        }
    }
    pass.totals
}

/// The scoring parameters the runner pairs with a spec in its address.
fn scoring(fields: &[(&str, Value)]) -> Value {
    Value::Object(
        fields
            .iter()
            .map(|(k, v)| (k.to_string(), v.clone()))
            .collect(),
    )
}

struct Pass<'r> {
    rec: &'r mut Recorder,
    totals: Totals,
    seen: HashSet<String>,
}

impl Pass<'_> {
    /// One grid point. `scored` names the clip and encoding its media
    /// clients are VQM-scored against; `None` for transport-level jobs,
    /// which the runner does not score.
    fn point(
        &mut self,
        kind: &'static str,
        spec: impl FnOnce() -> ScenarioSpec,
        scoring: Value,
        scored: Option<(ClipId2, u64)>,
    ) {
        let id = self.totals.points;
        self.totals.points += 1;
        let Pass { rec, totals, seen } = self;
        rec.span(POINT, id, |rec| {
            let spec = rec.span("core.spec", id, |_| spec());
            let canon = rec.span("scenario.canonicalize", id, |_| canonicalize(&spec));
            let address = rec.span("keys.address", id, |_| {
                keys::cache_address(canon.spec.to_value(), scoring)
            });
            let first_of_class = seen.insert(format!("{kind}\0{address}"));
            totals.addresses.push((kind, address));
            if !first_of_class {
                return;
            }
            let compiled = rec.span("scenario.compile", id, |_| {
                compile(
                    &spec,
                    CompileOptions {
                        store: Some(&ArtifactStore),
                        wrap: None,
                    },
                )
                .expect("workload specs compile")
            });
            let CompiledScenario {
                net,
                clients,
                horizon,
                ..
            } = compiled;
            let horizon = horizon.expect("workload specs set a horizon");
            let sim = rec.span("sim.simulate", id, |_| {
                let mut sim = Simulation::new(net);
                totals.events += sim.run_until(SimTime::ZERO + horizon).dispatched;
                sim
            });
            totals.simulated += 1;
            totals.packets += sim
                .net
                .stats
                .flows()
                .map(|(_, c)| c.tx_packets)
                .sum::<u64>();
            totals.queue_high_water = totals.queue_high_water.max(sim.queue.high_water());
            totals.pool_high_water = totals.pool_high_water.max(sim.net.pool_high_water());
            if let Some((clip, encoding_bps)) = scored {
                let source = artifacts::source_features(clip.into());
                let reference =
                    artifacts::reference_features(clip.into(), Codec::Mpeg1, encoding_bps);
                for (_, client) in &clients {
                    let report = client.borrow().report();
                    rec.span("qoe.score", id, |_| {
                        black_box(qoe::score_session(&source, &reference, &report, None))
                    });
                    totals.scored += 1;
                }
            }
        });
    }
}
