//! **Adversary-resilience experiment**: what does an active attacker cost?
//!
//! The paper's §5 asks "how do we handle adversarial proxies?" — this
//! experiment answers for the whole control channel. An on-path attacker
//! who cannot read the pre-shared key tries the three classic moves
//! against every protocol, at swept intensities: *forgery* (well-formed
//! quACKs with poisoned contents injected next to every honest datagram),
//! *replay* (each captured datagram re-delivered 1/2/4 extra times), and
//! *tampering* (a bit-flipped copy of every datagram, 1/4/16 flips). A
//! stateful-firewall row starves the control flow instead: any idle gap
//! longer than the rule's timeout eats the next datagram.
//!
//! Every sidecar run speaks the authenticated channel; its baseline twin
//! runs the same lowered fault script with no sidecar at all. Expected
//! shape: goodput ratio ≥ ~1.0 at *every* intensity — the MAC/replay
//! window rejects attack datagrams before they touch protocol state, and
//! a starved channel degrades to baseline behavior. The `rejected/run`
//! column counts envelope rejections (the attacks actually landing), and
//! the closing microbench prices the per-quACK MAC.
//!
//! Regenerate: `cargo run -p sidecar-bench --release --bin exp_adversary`

use sidecar_bench::{measure_best_of, per_item_nanos, BenchReport, RunObs, Table};
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_proto::protocols::ack_reduction::AckReductionScenario;
use sidecar_proto::protocols::ccd::CcdScenario;
use sidecar_proto::protocols::retx::RetxScenario;
use sidecar_proto::protocols::{FaultScript, ScenarioReport};
use sidecar_proto::{AuthConfig, ChannelAuth, SidecarMessage};

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn attacks() -> Vec<(&'static str, FaultScript)> {
    let always = (at(0), at(600_000));
    let mut v = vec![
        ("none", FaultScript::default()),
        (
            "forge flood",
            FaultScript {
                fault_seed: 17,
                forge_control: Some(always),
                ..FaultScript::default()
            },
        ),
    ];
    for copies in [1, 2, 4] {
        v.push((
            match copies {
                1 => "replay x1",
                2 => "replay x2",
                _ => "replay x4",
            },
            FaultScript {
                fault_seed: 18,
                replay_control: Some((copies, SimDuration::from_millis(5), always.0, always.1)),
                ..FaultScript::default()
            },
        ));
    }
    for flips in [1, 4, 16] {
        v.push((
            match flips {
                1 => "tamper ≤1 bit",
                4 => "tamper ≤4 bits",
                _ => "tamper ≤16 bits",
            },
            FaultScript {
                fault_seed: 19,
                tamper_control: Some((flips, always.0, always.1)),
                ..FaultScript::default()
            },
        ));
    }
    v.push((
        "firewall 20ms idle",
        FaultScript {
            fault_seed: 20,
            firewall_idle: Some((SimDuration::from_millis(20), always.0, always.1)),
            ..FaultScript::default()
        },
    ));
    v
}

const SEEDS: [u64; 3] = [11, 22, 33];

fn auth() -> AuthConfig {
    AuthConfig::from_secret(0x5EC2_E7A1, 1)
}

/// Per-cell averages over the seeds.
struct Cell {
    side_bps: f64,
    base_bps: f64,
    rejected: f64,
    injected: f64,
    degradations: f64,
}

/// Averages one attack row over the seeds, adding every run to `obs`.
fn average(obs: &mut RunObs, runs: impl Fn(u64) -> (ScenarioReport, ScenarioReport)) -> Cell {
    let mut cell = Cell {
        side_bps: 0.0,
        base_bps: 0.0,
        rejected: 0.0,
        injected: 0.0,
        degradations: 0.0,
    };
    for &seed in &SEEDS {
        let (side, base) = runs(seed);
        obs.add(&side.metrics, &side.trace);
        obs.add(&base.metrics, &base.trace);
        assert!(
            side.completion.is_some() && base.completion.is_some(),
            "attacked run did not complete (seed {seed}): {side:?} / {base:?}"
        );
        cell.side_bps += side.goodput_bps.unwrap_or(0.0);
        cell.base_bps += base.goodput_bps.unwrap_or(0.0);
        cell.degradations += side.degradations as f64;
        cell.rejected += side.metrics.counter_sum("auth.rejected.") as f64;
        cell.injected += (side.metrics.counter("netsim.fault.forge")
            + side.metrics.counter("netsim.fault.replay")
            + side.metrics.counter("netsim.fault.tamper")
            + side.metrics.counter("netsim.fault.firewall")) as f64;
    }
    let k = SEEDS.len() as f64;
    cell.side_bps /= k;
    cell.base_bps /= k;
    cell.rejected /= k;
    cell.injected /= k;
    cell.degradations /= k;
    cell
}

fn row(table: &mut Table, report: &mut BenchReport, protocol: &str, attack: &str, cell: &Cell) {
    table.row(&[
        protocol.into(),
        attack.into(),
        format!("{:.2}", cell.side_bps / 1e6),
        format!("{:.2}", cell.base_bps / 1e6),
        format!("{:.3}", cell.side_bps / cell.base_bps),
        format!("{:.0}", cell.injected),
        format!("{:.0}", cell.rejected),
        format!("{:.1}", cell.degradations),
    ]);
    let attack_key = attack.replace(' ', "_");
    let params = [("protocol", protocol), ("attack", attack_key.as_str())];
    report.push("sidecar_goodput", &params, cell.side_bps, "bps");
    report.push("baseline_goodput", &params, cell.base_bps, "bps");
    report.push("goodput_ratio", &params, cell.side_bps / cell.base_bps, "x");
    report.push("attack_injected", &params, cell.injected, "count");
    report.push("auth_rejected", &params, cell.rejected, "count");
    report.push("degradations", &params, cell.degradations, "count");
}

/// Prices the authenticated envelope on the hot path: seal + verify of a
/// paper-default 82-byte quACK, against the plain encode + decode twin.
fn mac_microbench(report: &mut BenchReport) {
    let quack = SidecarMessage::Quack {
        epoch: 1,
        bytes: vec![0x5A; 82],
    };
    let cfg = auth();
    let mut tx = ChannelAuth::new(cfg.with_nonce(1));
    let mut rx = ChannelAuth::new(cfg.with_nonce(2));
    let sealed = measure_best_of(5, 2_000, 200, &mut |_| {
        let (tag, body) = tx.seal(&quack, 5);
        rx.open(tag, &body).expect("sealed quACK verifies")
    });
    let plain = measure_best_of(5, 2_000, 200, &mut |_| {
        let (tag, body) = quack.encode_for_flow(5);
        SidecarMessage::decode_flow(tag, &body).expect("plain quACK decodes")
    });
    let sealed_ns = per_item_nanos(sealed, 1);
    let plain_ns = per_item_nanos(plain, 1);
    println!(
        "\nper-quACK control-path cost (82-byte quack, seal+verify vs plain\n\
         encode+decode): authenticated {sealed_ns:.0} ns, plain {plain_ns:.0} ns,\n\
         MAC overhead {:.0} ns/quACK",
        sealed_ns - plain_ns
    );
    report.push("quack_auth_ns", &[], sealed_ns, "ns");
    report.push("quack_plain_ns", &[], plain_ns, "ns");
    report.push("quack_mac_overhead_ns", &[], sealed_ns - plain_ns, "ns");
}

fn main() {
    println!(
        "adversary resilience: authenticated sidecar vs no-sidecar twin under\n\
         active attack (same lowered script on both runs; averaged over seeds\n\
         {SEEDS:?})\n"
    );
    let mut report = BenchReport::new("exp_adversary");
    let mut obs = RunObs::default();
    let mut table = Table::new(&[
        "protocol",
        "attack",
        "sidecar (Mbit/s)",
        "baseline (Mbit/s)",
        "ratio",
        "injected/run",
        "rejected/run",
        "degr/run",
    ]);

    let retx = RetxScenario {
        total_packets: 1_200,
        auth: Some(auth()),
        ..RetxScenario::default()
    };
    for (name, script) in attacks() {
        let cell = average(&mut obs, |seed| {
            (
                retx.run_sidecar_faulted(seed, &script),
                retx.run_baseline_faulted(seed, &script),
            )
        });
        row(&mut table, &mut report, "retx", name, &cell);
    }

    let ackred = AckReductionScenario {
        total_packets: 1_200,
        auth: Some(auth()),
        ..AckReductionScenario::default()
    };
    for (name, script) in attacks() {
        let cell = average(&mut obs, |seed| {
            (
                ackred.run_sidecar_faulted(seed, &script),
                ackred.run_baseline_faulted(seed, ackred.reduced_ack_every, &script),
            )
        });
        row(&mut table, &mut report, "ack-reduction", name, &cell);
    }

    let ccd = CcdScenario {
        total_packets: 10_000,
        auth: Some(auth()),
        ..CcdScenario::default()
    };
    for (name, script) in attacks() {
        let cell = average(&mut obs, |seed| {
            (
                ccd.run_sidecar_faulted(seed, &script),
                ccd.run_baseline_faulted(seed, &script),
            )
        });
        row(&mut table, &mut report, "ccd", name, &cell);
    }

    table.print();
    mac_microbench(&mut report);
    report
        .write_default()
        .expect("write BENCH_exp_adversary.json");
    obs.write_out("exp_adversary");
    println!(
        "\nexpected shape: the ratio stays at or above ~1.0 in every row —\n\
         forged and replayed datagrams die at the envelope (rejected/run\n\
         tracks injected/run), tampered copies fail the MAC, and the\n\
         firewall rows degrade to exact baseline behavior. No attack at any\n\
         intensity pushes an authenticated protocol below its no-sidecar\n\
         twin."
    );
}
