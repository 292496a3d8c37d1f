//! `dsv` — command-line front end for single experiments.
//!
//! ```text
//! dsv qbone --clip lost --encoding 1500000 --rate 1600000 --depth 3000 [--vs-best] [--cross-traffic] [--bursty|--multirate]
//! dsv local --clip dark --rate 1300000 --depth 4500 [--tcp] [--shaped] [--cross-traffic] [--multi-rate-tiers]
//! dsv af    --clip lost --encoding 1500000 --cross-load 5000000 [--cross-cir 3500000]
//! dsv run   --scenario examples/scenario_qbone.json
//! ```
//!
//! The first three subcommands run the paper's fixed testbeds. `run`
//! compiles an arbitrary declarative [`dsv_scenario::ScenarioSpec`] from
//! a JSON file and reports per-flow and per-client statistics. A
//! configuration that does not compile (a media rate below the encoders'
//! floor, a zero token rate) exits with status 2 and the compile error on
//! stderr, whichever subcommand built it.
//!
//! Prints the run outcome as aligned text and, with `--json`, as a JSON
//! object on stdout.

use std::process::exit;

use dsv_core::af::try_run_af;
use dsv_core::local::try_run_local;
use dsv_core::prelude::*;
use dsv_core::qbone::try_run_qbone;
use dsv_scenario::CompileError;
use serde::Serialize;

fn usage() -> ! {
    eprintln!(
        "usage:\n  dsv qbone --clip <lost|dark> --encoding <bps> --rate <bps> --depth <bytes> \\\n            [--vs-best] [--cross-traffic] [--bursty|--multirate] [--seed N] [--json]\n  dsv local --clip <lost|dark> --rate <bps> --depth <bytes> \\\n            [--tcp] [--shaped] [--cross-traffic] [--multi-rate-tiers] [--seed N] [--json]\n  dsv af    --clip <lost|dark> --encoding <bps> --cross-load <bps> [--cross-cir <bps>] [--json]\n  dsv run   --scenario <spec.json> [--json]"
    );
    exit(2)
}

struct Args {
    flags: Vec<String>,
}

impl Args {
    fn flag(&self, name: &str) -> bool {
        self.flags.iter().any(|f| f == name)
    }
    fn value(&self, name: &str) -> Option<&str> {
        self.flags
            .iter()
            .position(|f| f == name)
            .and_then(|i| self.flags.get(i + 1))
            .map(|s| s.as_str())
    }
    fn u64_or(&self, name: &str, default: u64) -> u64 {
        match self.value(name) {
            None => default,
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for {name}: {v}");
                usage()
            }),
        }
    }
    fn required_u64(&self, name: &str) -> u64 {
        match self.value(name) {
            Some(v) => v.parse().unwrap_or_else(|_| {
                eprintln!("invalid value for {name}: {v}");
                usage()
            }),
            None => {
                eprintln!("missing required option {name}");
                usage()
            }
        }
    }
    fn clip(&self) -> ClipId2 {
        match self.value("--clip") {
            Some("lost") | None => ClipId2::Lost,
            Some("dark") => ClipId2::Dark,
            Some(other) => {
                eprintln!("unknown clip {other}");
                usage()
            }
        }
    }
}

/// The result of a compiled run, or exit 2 with the compile error.
fn or_exit<T>(result: Result<T, CompileError>) -> T {
    result.unwrap_or_else(|e| {
        eprintln!("{e}");
        exit(2)
    })
}

fn print_outcome(out: &RunOutcome, json: bool) {
    if json {
        println!("{}", serde_json::to_string_pretty(out).expect("serialize"));
        return;
    }
    println!("quality (VQM, 0=best) : {:.3}", out.quality);
    if let Some(q) = out.quality_vs_best {
        println!("quality vs 1.7M ref   : {q:.3}");
    }
    println!("frame loss            : {:.2} %", 100.0 * out.frame_loss);
    println!("packet loss           : {:.2} %", 100.0 * out.packet_loss);
    println!("policer drops         : {}", out.policer_drops);
    println!("queue drops           : {}", out.queue_drops);
    println!("shaper drops          : {}", out.shaper_drops);
    println!("packets delivered     : {}", out.rx_packets);
    println!("mean delay            : {:.1} ms", out.mean_delay_ms);
    println!("longest freeze        : {} frames", out.longest_freeze);
    println!("failed VQM segments   : {}", out.failed_segments);
    if out.collapses > 0 || out.broken {
        println!(
            "server collapses      : {} (broken: {})",
            out.collapses, out.broken
        );
    }
}

/// Summary of one flow's counters after a scenario run.
#[derive(Serialize)]
struct FlowSummary {
    flow: u32,
    tx_packets: u64,
    rx_packets: u64,
    drops: u64,
    mean_delay_ms: f64,
}

/// Summary of one stream client after a scenario run.
#[derive(Serialize)]
struct ClientSummary {
    node: String,
    frames: u32,
    frame_loss: f64,
    packets_received: u64,
}

/// Summary of one id-recording sink after a scenario run.
#[derive(Serialize)]
struct SinkSummary {
    node: String,
    delivered: u64,
}

/// Everything `dsv run` reports about a scenario run.
#[derive(Serialize)]
struct ScenarioSummary {
    scenario: String,
    end_time_secs: f64,
    events: u64,
    flows: Vec<FlowSummary>,
    clients: Vec<ClientSummary>,
    sinks: Vec<SinkSummary>,
}

/// Compile and run a [`dsv_scenario::ScenarioSpec`] from a JSON file.
fn run_scenario(path: &str, json: bool) {
    let text = std::fs::read_to_string(path).unwrap_or_else(|e| {
        eprintln!("cannot read {path}: {e}");
        exit(2)
    });
    let spec: dsv_scenario::ScenarioSpec = serde_json::from_str(&text).unwrap_or_else(|e| {
        eprintln!("invalid scenario spec {path}: {e}");
        exit(2)
    });
    let exec = or_exit(dsv_core::execute(&spec));

    let summary = ScenarioSummary {
        scenario: spec.name.clone(),
        end_time_secs: exec.run.end_time.as_secs_f64(),
        events: exec.run.dispatched,
        flows: exec
            .stats
            .flows()
            .map(|(f, c)| FlowSummary {
                flow: f.0,
                tx_packets: c.tx_packets,
                rx_packets: c.rx_packets,
                drops: c.drops.values().sum(),
                mean_delay_ms: c.delay.mean().as_millis_f64(),
            })
            .collect(),
        clients: exec
            .clients
            .iter()
            .map(|(name, h)| {
                let rep = h.borrow().report();
                ClientSummary {
                    node: name.clone(),
                    frames: rep.received.len() as u32,
                    frame_loss: rep.frame_loss_fraction(),
                    packets_received: rep.packets_received,
                }
            })
            .collect(),
        sinks: exec
            .id_sinks
            .iter()
            .map(|(name, h)| SinkSummary {
                node: name.clone(),
                delivered: h.borrow().ids.len() as u64,
            })
            .collect(),
    };

    if json {
        println!(
            "{}",
            serde_json::to_string_pretty(&summary).expect("serialize")
        );
        return;
    }
    println!("scenario              : {}", summary.scenario);
    println!("simulated time        : {:.3} s", summary.end_time_secs);
    println!("events dispatched     : {}", summary.events);
    for f in &summary.flows {
        println!(
            "flow {:>4}             : tx {} rx {} drops {} mean delay {:.2} ms",
            f.flow, f.tx_packets, f.rx_packets, f.drops, f.mean_delay_ms
        );
    }
    for c in &summary.clients {
        println!(
            "client {:<12}   : {} frames, {:.2} % frame loss, {} packets",
            c.node,
            c.frames,
            100.0 * c.frame_loss,
            c.packets_received
        );
    }
    for s in &summary.sinks {
        println!("sink {:<14}   : {} packets delivered", s.node, s.delivered);
    }
}

fn main() {
    let mut argv = std::env::args().skip(1);
    let Some(cmd) = argv.next() else { usage() };
    let args = Args {
        flags: argv.collect(),
    };
    let json = args.flag("--json");

    let outcome = match cmd.as_str() {
        "qbone" => {
            let mut cfg = QboneConfig::new(
                args.clip(),
                args.required_u64("--encoding"),
                EfProfile::new(
                    args.required_u64("--rate"),
                    args.required_u64("--depth") as u32,
                ),
            );
            cfg.score_vs_best = args.flag("--vs-best");
            cfg.cross_traffic = args.flag("--cross-traffic");
            cfg.seed = args.u64_or("--seed", cfg.seed);
            if args.flag("--bursty") {
                cfg.server = QboneServer::Bursty;
            } else if args.flag("--multirate") {
                cfg.server = QboneServer::MultiRatePaced;
            }
            or_exit(try_run_qbone(&cfg)).0
        }
        "local" => {
            let transport = if args.flag("--tcp") {
                LocalTransport::Tcp
            } else {
                LocalTransport::Udp
            };
            let mut cfg = LocalConfig::new(
                args.clip(),
                EfProfile::new(
                    args.required_u64("--rate"),
                    args.required_u64("--depth") as u32,
                ),
                transport,
            );
            cfg.shaped = args.flag("--shaped");
            cfg.cross_traffic = args.flag("--cross-traffic");
            cfg.multi_rate = args.flag("--multi-rate-tiers");
            cfg.seed = args.u64_or("--seed", cfg.seed);
            or_exit(try_run_local(&cfg)).0
        }
        "run" => {
            let path = args.value("--scenario").unwrap_or_else(|| {
                eprintln!("missing required option --scenario");
                usage()
            });
            run_scenario(path, json);
            return;
        }
        "af" => {
            let mut cfg = AfConfig::new(
                args.clip(),
                args.required_u64("--encoding"),
                args.required_u64("--cross-load"),
            );
            if let Some(_v) = args.value("--cross-cir") {
                cfg.cross_cir_bps = args.required_u64("--cross-cir");
            }
            or_exit(try_run_af(&cfg))
        }
        _ => usage(),
    };
    print_outcome(&outcome, json);
}
