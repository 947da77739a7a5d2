//! `simulate` — run any sidecar protocol scenario from the command line.
//!
//! ```text
//! simulate <ccd|ackred|retx> [options]
//!
//!   --packets N        data units to deliver          (default 2000)
//!   --loss PCT         loss rate on the lossy segment (default 1.0)
//!   --seed S           determinism seed               (default 1)
//!   --seeds K          average over K seeds           (default 1)
//!   --interval MS      quACK interval, CCD only       (default 30)
//!   --ack-every N      client ACK thinning, ackred    (default 32)
//!   --baseline         also run the no-sidecar baseline
//!   --metrics-out      dump the runs' merged metrics as a bench report
//!   --trace-out [PATH] dump the runs' merged flight-recorder trace
//! ```
//!
//! Examples:
//!
//! ```text
//! cargo run -p sidecar-bench --release --bin simulate -- retx --loss 2 --baseline
//! cargo run -p sidecar-bench --release --bin simulate -- ccd --packets 5000 --seeds 5
//! ```

use sidecar_bench::{BenchReport, RunObs};
use sidecar_netsim::link::LossModel;
use sidecar_netsim::time::SimDuration;
use sidecar_proto::protocols::ack_reduction::AckReductionScenario;
use sidecar_proto::protocols::ccd::CcdScenario;
use sidecar_proto::protocols::retx::RetxScenario;
use sidecar_proto::protocols::ScenarioReport;
use std::process::exit;

#[derive(Debug)]
struct Options {
    protocol: String,
    packets: u64,
    loss: f64,
    seed: u64,
    seeds: u64,
    interval_ms: u64,
    ack_every: u32,
    baseline: bool,
}

fn usage() -> ! {
    eprintln!(
        "usage: simulate <ccd|ackred|retx> [--packets N] [--loss PCT] \
         [--seed S] [--seeds K] [--interval MS] [--ack-every N] [--baseline] \
         [--metrics-out] [--trace-out [PATH]]"
    );
    exit(2)
}

fn parse_args() -> Options {
    let mut args = std::env::args().skip(1).peekable();
    let protocol = match args.next() {
        Some(p) if ["ccd", "ackred", "retx"].contains(&p.as_str()) => p,
        _ => usage(),
    };
    let mut opts = Options {
        protocol,
        packets: 2_000,
        loss: 1.0,
        seed: 1,
        seeds: 1,
        interval_ms: 30,
        ack_every: 32,
        baseline: false,
    };
    while let Some(flag) = args.next() {
        let mut value = |name: &str| -> String {
            args.next().unwrap_or_else(|| {
                eprintln!("{name} needs a value");
                usage()
            })
        };
        match flag.as_str() {
            "--packets" => opts.packets = value("--packets").parse().unwrap_or_else(|_| usage()),
            "--loss" => opts.loss = value("--loss").parse().unwrap_or_else(|_| usage()),
            "--seed" => opts.seed = value("--seed").parse().unwrap_or_else(|_| usage()),
            "--seeds" => opts.seeds = value("--seeds").parse().unwrap_or_else(|_| usage()),
            "--interval" => {
                opts.interval_ms = value("--interval").parse().unwrap_or_else(|_| usage())
            }
            "--ack-every" => {
                opts.ack_every = value("--ack-every").parse().unwrap_or_else(|_| usage())
            }
            "--baseline" => opts.baseline = true,
            // Both are written by `RunObs::write_out` at exit, which reads
            // the optional trace path from the arguments itself.
            "--metrics-out" => {}
            "--trace-out" => {
                args.next_if(|path| !path.starts_with("--"));
            }
            other => {
                eprintln!("unknown flag {other}");
                usage()
            }
        }
    }
    opts
}

fn loss_model(pct: f64) -> LossModel {
    if pct <= 0.0 {
        LossModel::None
    } else {
        LossModel::Bernoulli { p: pct / 100.0 }
    }
}

fn print_report(label: &str, r: &ScenarioReport) {
    let completion = match r.completion {
        Some(t) => format!("{:.3} s", t.as_secs_f64()),
        None => "did not finish (budget 120 simulated s)".into(),
    };
    println!("{label}:");
    println!("  completion        {completion}");
    if let Some(g) = r.goodput_bps {
        println!("  goodput           {:.2} Mbit/s", g / 1e6);
    }
    println!("  server sent       {} packets", r.server_sent);
    println!("  e2e retransmits   {}", r.server_retransmissions);
    println!("  client ACKs       {}", r.client_acks);
    if r.sidecar_messages > 0 {
        println!(
            "  sidecar traffic   {} msgs, {:.1} kB",
            r.sidecar_messages,
            r.sidecar_bytes as f64 / 1e3
        );
    }
    if r.proxy_retransmissions > 0 {
        println!("  in-network retx   {}", r.proxy_retransmissions);
    }
}

fn average(reports: Vec<ScenarioReport>) -> ScenarioReport {
    let k = reports.len() as u64;
    let kf = k as f64;
    let finished: Vec<f64> = reports
        .iter()
        .filter_map(|r| r.completion.map(|t| t.as_secs_f64()))
        .collect();
    let completion = if finished.len() == reports.len() {
        Some(sidecar_netsim::time::SimTime::from_nanos(
            (finished.iter().sum::<f64>() / kf * 1e9) as u64,
        ))
    } else {
        None
    };
    let goodputs: Vec<f64> = reports.iter().filter_map(|r| r.goodput_bps).collect();
    ScenarioReport {
        completion,
        goodput_bps: if goodputs.is_empty() {
            None
        } else {
            Some(goodputs.iter().sum::<f64>() / goodputs.len() as f64)
        },
        server_sent: reports.iter().map(|r| r.server_sent).sum::<u64>() / k,
        server_retransmissions: reports
            .iter()
            .map(|r| r.server_retransmissions)
            .sum::<u64>()
            / k,
        client_acks: reports.iter().map(|r| r.client_acks).sum::<u64>() / k,
        sidecar_messages: reports.iter().map(|r| r.sidecar_messages).sum::<u64>() / k,
        sidecar_bytes: reports.iter().map(|r| r.sidecar_bytes).sum::<u64>() / k,
        proxy_retransmissions: reports.iter().map(|r| r.proxy_retransmissions).sum::<u64>() / k,
        degradations: reports.iter().map(|r| r.degradations).sum(),
        recoveries: reports.iter().map(|r| r.recoveries).sum(),
        // An averaged report has no single world's registry, event ring,
        // sampler, or scoreboard behind it.
        ..ScenarioReport::default()
    }
}

fn main() {
    let opts = parse_args();
    let seeds: Vec<u64> = (0..opts.seeds).map(|i| opts.seed + i).collect();
    println!(
        "protocol {} | {} packets | {}% loss | seeds {:?}\n",
        opts.protocol, opts.packets, opts.loss, seeds
    );

    let (side, base): (Vec<ScenarioReport>, Vec<ScenarioReport>) = match opts.protocol.as_str() {
        "ccd" => {
            let base_cfg = CcdScenario::default();
            let scenario = CcdScenario {
                total_packets: opts.packets,
                quack_interval: SimDuration::from_millis(opts.interval_ms),
                downstream: sidecar_netsim::link::LinkConfig {
                    loss: loss_model(opts.loss),
                    ..base_cfg.downstream
                },
                ..base_cfg
            };
            (
                seeds.iter().map(|&s| scenario.run_sidecar(s)).collect(),
                if opts.baseline {
                    seeds.iter().map(|&s| scenario.run_baseline(s)).collect()
                } else {
                    vec![]
                },
            )
        }
        "ackred" => {
            let base_cfg = AckReductionScenario::default();
            let scenario = AckReductionScenario {
                total_packets: opts.packets,
                reduced_ack_every: opts.ack_every,
                downstream: sidecar_netsim::link::LinkConfig {
                    loss: loss_model(opts.loss),
                    ..base_cfg.downstream
                },
                ..base_cfg
            };
            (
                seeds.iter().map(|&s| scenario.run_sidecar(s)).collect(),
                if opts.baseline {
                    seeds
                        .iter()
                        .map(|&s| scenario.run_baseline_normal(s))
                        .collect()
                } else {
                    vec![]
                },
            )
        }
        "retx" => {
            let base_cfg = RetxScenario::default();
            let scenario = RetxScenario {
                total_packets: opts.packets,
                subpath: sidecar_netsim::link::LinkConfig {
                    loss: loss_model(opts.loss),
                    ..base_cfg.subpath
                },
                ..base_cfg
            };
            (
                seeds.iter().map(|&s| scenario.run_sidecar(s)).collect(),
                if opts.baseline {
                    seeds.iter().map(|&s| scenario.run_baseline(s)).collect()
                } else {
                    vec![]
                },
            )
        }
        _ => usage(),
    };

    let mut obs = RunObs::default();
    for r in side.iter().chain(&base) {
        obs.add(&r.metrics, &r.trace);
    }
    let mut report = BenchReport::new("simulate");
    let ls = format!("{}", opts.loss);
    let ps = opts.packets.to_string();
    {
        let mut push = |variant: &str, r: &ScenarioReport| {
            let params = [
                ("protocol", opts.protocol.as_str()),
                ("loss_pct", ls.as_str()),
                ("packets", ps.as_str()),
                ("variant", variant),
            ];
            if let Some(t) = r.completion {
                report.push("completion_time", &params, t.as_secs_f64(), "s");
            }
            if let Some(g) = r.goodput_bps {
                report.push("goodput", &params, g, "bps");
            }
            report.push("e2e_retx", &params, r.server_retransmissions as f64, "msgs");
            report.push("client_acks", &params, r.client_acks as f64, "msgs");
            if r.sidecar_messages > 0 {
                report.push("quack_msgs", &params, r.sidecar_messages as f64, "msgs");
            }
        };

        let side = average(side);
        print_report("sidecar", &side);
        push("sidecar", &side);
        if !base.is_empty() {
            let base = average(base);
            println!();
            print_report("baseline", &base);
            push("baseline", &base);
        }
    }
    report.write_default().expect("write BENCH_simulate.json");
    obs.write_out("simulate");
}
