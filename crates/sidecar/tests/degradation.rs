//! Failure transparency: when the sidecar path breaks mid-flow, every
//! protocol must fall back to (and perform like) its end-to-end baseline,
//! and must recover when the path heals.
//!
//! "Hosts can take advantage of [sidecars] when they are available, while
//! remaining completely functional when they are not" (paper §1). These
//! tests drive that claim end to end with deterministic fault scripts:
//! control blackouts, byte-corrupted quACK streams, and proxy
//! crash/restart — the same script is lowered onto the sidecar run and its
//! baseline twin, so goodput ratios compare identical fault weather.

use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_proto::protocols::ack_reduction::AckReductionScenario;
use sidecar_proto::protocols::ccd::CcdScenario;
use sidecar_proto::protocols::retx::RetxScenario;
use sidecar_proto::protocols::{FaultScript, ScenarioReport};

fn at(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

/// Sidecar control datagrams vanish from t=50ms onward — the sidecar
/// session is dead but the data path is untouched.
fn control_blackout() -> FaultScript {
    FaultScript {
        fault_seed: 7,
        drop_control: Some((at(50), at(600_000))),
        ..FaultScript::default()
    }
}

/// Every sidecar payload gets up to 6 random bit flips for the whole run.
fn corruption_flood() -> FaultScript {
    FaultScript {
        fault_seed: 21,
        corrupt_control: Some((6, at(0), at(600_000))),
        ..FaultScript::default()
    }
}

/// The proxy dies mid-transfer and comes back half a second later.
fn crash_restart(from_ms: u64, until_ms: u64) -> FaultScript {
    FaultScript {
        fault_seed: 3,
        proxy_crash: Some((at(from_ms), at(until_ms))),
        ..FaultScript::default()
    }
}

fn goodput(r: &ScenarioReport) -> f64 {
    r.goodput_bps.unwrap_or(0.0)
}

/// Degraded-mode goodput must stay within 10% of the baseline twin under
/// the same faults (the ISSUE's failure-transparency bound).
fn assert_transparent(label: &str, sidecar: &ScenarioReport, baseline: &ScenarioReport) {
    assert!(
        sidecar.completion.is_some(),
        "{label}: faulted sidecar run never completed: {sidecar:?}"
    );
    assert!(
        baseline.completion.is_some(),
        "{label}: faulted baseline run never completed: {baseline:?}"
    );
    let ratio = goodput(sidecar) / goodput(baseline);
    assert!(
        ratio >= 0.9,
        "{label}: degraded sidecar goodput {:.2} Mbit/s is materially worse than \
         baseline {:.2} Mbit/s (ratio {ratio:.3})",
        goodput(sidecar) / 1e6,
        goodput(baseline) / 1e6,
    );
}

/// Like [`assert_transparent`], but averaged over seeds. Corruption scripts
/// leave the (garbled) control datagrams *on* the links, so they interleave
/// with data and shift the per-packet Bernoulli loss draws: the sidecar run
/// and its twin see different loss realizations of the same process. A
/// single seed can diverge well beyond the degradation cost being measured
/// (NewReno on a lossy path is realization-sensitive), so the transparency
/// bound is on the mean ratio, with a loose per-seed floor.
fn assert_transparent_mean(label: &str, runs: &[(ScenarioReport, ScenarioReport)]) {
    let mut sum = 0.0;
    for (i, (sidecar, baseline)) in runs.iter().enumerate() {
        assert!(
            sidecar.completion.is_some(),
            "{label}[{i}]: faulted sidecar run never completed: {sidecar:?}"
        );
        assert!(
            baseline.completion.is_some(),
            "{label}[{i}]: faulted baseline run never completed: {baseline:?}"
        );
        let ratio = goodput(sidecar) / goodput(baseline);
        assert!(
            ratio >= 0.7,
            "{label}[{i}]: ratio {ratio:.3} is below even the per-seed floor"
        );
        sum += ratio;
    }
    let mean = sum / runs.len() as f64;
    assert!(
        mean >= 0.9,
        "{label}: mean goodput ratio over {} seeds is {mean:.3} (< 0.9)",
        runs.len(),
    );
}

// ---------------------------------------------------------------- retx ----

#[test]
fn retx_control_blackout_degrades_to_baseline() {
    let scenario = RetxScenario {
        total_packets: 1_200,
        ..RetxScenario::default()
    };
    let script = control_blackout();
    let side = scenario.run_sidecar_faulted(11, &script);
    // drop_control only touches sidecar datagrams, so the baseline twin is
    // oblivious to this script — faulted and plain baselines coincide.
    let base = scenario.run_baseline_faulted(11, &script);
    assert!(side.degradations >= 1, "never degraded: {side:?}");
    assert_transparent("retx/control-blackout", &side, &base);
}

#[test]
fn retx_corrupted_quacks_never_panic_or_break_the_flow() {
    let scenario = RetxScenario {
        total_packets: 1_200,
        ..RetxScenario::default()
    };
    let script = corruption_flood();
    let runs: Vec<_> = [12, 13, 14]
        .map(|seed| {
            (
                scenario.run_sidecar_faulted(seed, &script),
                scenario.run_baseline_faulted(seed, &script),
            )
        })
        .into_iter()
        .collect();
    assert_transparent_mean("retx/corruption", &runs);
}

#[test]
fn retx_proxy_crash_mid_transfer_completes() {
    let scenario = RetxScenario {
        total_packets: 1_200,
        ..RetxScenario::default()
    };
    // The sender-side proxy is on the forwarding path: its outage stalls
    // both runs equally; post-restart the sidecar session re-handshakes.
    let script = crash_restart(300, 800);
    let side = scenario.run_sidecar_faulted(13, &script);
    let base = scenario.run_baseline_faulted(13, &script);
    assert_transparent("retx/crash-restart", &side, &base);
}

// ----------------------------------------------------- ack reduction ----

#[test]
fn ack_reduction_control_blackout_degrades_to_baseline() {
    let scenario = AckReductionScenario {
        total_packets: 1_200,
        ..AckReductionScenario::default()
    };
    let script = control_blackout();
    let side = scenario.run_sidecar_faulted(21, &script);
    // The honest twin keeps the client's reduced-ACK cadence: degradation
    // swaps the *server* back to pure e2e control, but it cannot reach
    // across the network and reconfigure the client's ACK policy (that
    // would itself need a working control channel).
    let base = scenario.run_baseline_faulted(21, scenario.reduced_ack_every, &script);
    assert!(side.degradations >= 1, "never degraded: {side:?}");
    assert_transparent("ackred/control-blackout", &side, &base);
}

#[test]
fn ack_reduction_corrupted_quacks_never_panic_or_break_the_flow() {
    let scenario = AckReductionScenario {
        total_packets: 1_200,
        ..AckReductionScenario::default()
    };
    let script = corruption_flood();
    let side = scenario.run_sidecar_faulted(22, &script);
    let base = scenario.run_baseline_faulted(22, scenario.reduced_ack_every, &script);
    assert_transparent("ackred/corruption", &side, &base);
}

#[test]
fn ack_reduction_proxy_crash_recovers_the_session() {
    let scenario = AckReductionScenario {
        total_packets: 2_000,
        ..AckReductionScenario::default()
    };
    let script = crash_restart(200, 700);
    let side = scenario.run_sidecar_faulted(23, &script);
    let base = scenario.run_baseline_faulted(23, scenario.reduced_ack_every, &script);
    assert_transparent("ackred/crash-restart", &side, &base);
    // The 500ms outage outlives the liveness timeout, so the server must
    // have degraded; the restarted proxy's epoch announcement (or a hello
    // retry) re-enables it.
    assert!(side.degradations >= 1, "never degraded: {side:?}");
    assert!(side.recoveries >= 1, "never recovered: {side:?}");
}

// ----------------------------------------------------------------- ccd ----

#[test]
fn ccd_control_blackout_degrades_to_baseline() {
    // Long enough that the one-off handover cost (~350ms of frozen steering
    // until the liveness timeout trips, then NewReno re-ramping from the
    // small steered window) amortizes below the 10% bound: after the
    // fallback both runs are byte-for-byte the same sender and forwarder.
    let scenario = CcdScenario {
        total_packets: 10_000,
        ..CcdScenario::default()
    };
    let script = control_blackout();
    let side = scenario.run_sidecar_faulted(31, &script);
    let base = scenario.run_baseline_faulted(31, &script);
    assert!(side.degradations >= 1, "never degraded: {side:?}");
    assert_transparent("ccd/control-blackout", &side, &base);
}

#[test]
fn ccd_corrupted_quacks_never_panic_or_break_the_flow() {
    let scenario = CcdScenario {
        total_packets: 1_200,
        ..CcdScenario::default()
    };
    let script = corruption_flood();
    let side = scenario.run_sidecar_faulted(32, &script);
    let base = scenario.run_baseline_faulted(32, &script);
    assert_transparent("ccd/corruption", &side, &base);
}

#[test]
fn ccd_proxy_crash_mid_transfer_completes() {
    let scenario = CcdScenario {
        total_packets: 1_200,
        ..CcdScenario::default()
    };
    let script = crash_restart(200, 700);
    let side = scenario.run_sidecar_faulted(33, &script);
    let base = scenario.run_baseline_faulted(33, &script);
    assert_transparent("ccd/crash-restart", &side, &base);
}

// ---------------------------------------------------------- adversary ----
//
// Active attackers: forged control datagrams, replayed captures, tampered
// copies, and a stateful firewall that eats idle control flows. With the
// authenticated channel enabled every protocol must hold its goodput at
// (or above) the e2e baseline under every attack — forged and replayed
// datagrams are rejected by the MAC/replay-window check before they can
// touch protocol state, and a starved channel degrades to the baseline.

/// Inject a well-formed forged quACK alongside every sidecar datagram.
fn forge_flood() -> FaultScript {
    FaultScript {
        fault_seed: 17,
        forge_control: Some((at(0), at(600_000))),
        ..FaultScript::default()
    }
}

/// Replay each captured sidecar datagram `copies` times, 5ms apart.
fn replay_storm(copies: u32) -> FaultScript {
    FaultScript {
        fault_seed: 18,
        replay_control: Some((copies, SimDuration::from_millis(5), at(0), at(600_000))),
        ..FaultScript::default()
    }
}

/// Deliver a bit-flipped copy next to every sidecar datagram.
fn tamper_flood(flips: u32) -> FaultScript {
    FaultScript {
        fault_seed: 19,
        tamper_control: Some((flips, at(0), at(600_000))),
        ..FaultScript::default()
    }
}

/// Stateful firewall: ctrl flows idle longer than `idle_ms` lose their
/// next datagram.
fn firewall(idle_ms: u64) -> FaultScript {
    FaultScript {
        fault_seed: 20,
        firewall_idle: Some((SimDuration::from_millis(idle_ms), at(0), at(600_000))),
        ..FaultScript::default()
    }
}

/// Forgery against the *legacy* (unauthenticated) wire: the forged quACK
/// parses cleanly and its bogus epoch pollutes the session. The protocols
/// must still survive it — epoch resync and supervision absorb the damage
/// without panics or a wedged flow. (The authenticated twin of this test
/// lives in `adversary` below and asserts rejection instead.)
#[test]
fn forged_quacks_never_wedge_an_unauthenticated_flow() {
    let script = forge_flood();
    let retx = RetxScenario {
        total_packets: 1_200,
        ..RetxScenario::default()
    };
    let ackred = AckReductionScenario {
        total_packets: 1_200,
        ..AckReductionScenario::default()
    };
    let ccd = CcdScenario {
        total_packets: 1_200,
        ..CcdScenario::default()
    };
    let r = retx.run_sidecar_faulted(51, &script);
    assert!(r.completion.is_some(), "retx wedged: {r:?}");
    let a = ackred.run_sidecar_faulted(51, &script);
    assert!(a.completion.is_some(), "ackred wedged: {a:?}");
    let c = ccd.run_sidecar_faulted(51, &script);
    assert!(c.completion.is_some(), "ccd wedged: {c:?}");
}

mod adversary {
    use super::*;
    use sidecar_proto::AuthConfig;

    fn auth() -> AuthConfig {
        AuthConfig::from_secret(0x5EC2_E7A1, 1)
    }

    /// Every attack datagram that reaches an authenticated receiver must be
    /// rejected (never decoded into protocol state): the run records auth
    /// rejections and the attack's injection counter is non-zero.
    fn assert_rejected(label: &str, report: &ScenarioReport, fault: &str) {
        assert!(
            report.metrics.counter(&format!("netsim.fault.{fault}")) > 0,
            "{label}: the {fault} attack never fired: {:?}",
            report.metrics
        );
        assert!(
            report.metrics.counter_sum("auth.rejected.") > 0,
            "{label}: no auth rejections under {fault}: {:?}",
            report.metrics
        );
    }

    #[test]
    fn retx_holds_baseline_goodput_under_every_attack() {
        let scenario = RetxScenario {
            total_packets: 1_200,
            auth: Some(auth()),
            ..RetxScenario::default()
        };
        for (name, fault, script) in [
            ("forge", "forge", forge_flood()),
            ("replay", "replay", replay_storm(2)),
            ("tamper", "tamper", tamper_flood(4)),
        ] {
            let side = scenario.run_sidecar_faulted(52, &script);
            let base = scenario.run_baseline_faulted(52, &script);
            assert_transparent(&format!("retx/{name}"), &side, &base);
            assert_rejected(&format!("retx/{name}"), &side, fault);
        }
    }

    #[test]
    fn retx_firewalled_control_flow_degrades_to_baseline() {
        let scenario = RetxScenario {
            total_packets: 1_200,
            auth: Some(auth()),
            ..RetxScenario::default()
        };
        // Idle threshold below the quACK cadence: the firewall eats every
        // control datagram, which is a blackout by another name.
        let script = firewall(20);
        let side = scenario.run_sidecar_faulted(53, &script);
        let base = scenario.run_baseline_faulted(53, &script);
        assert!(side.degradations >= 1, "never degraded: {side:?}");
        assert_transparent("retx/firewall", &side, &base);
    }

    #[test]
    fn ackred_holds_baseline_goodput_under_every_attack() {
        let scenario = AckReductionScenario {
            total_packets: 1_200,
            auth: Some(auth()),
            ..AckReductionScenario::default()
        };
        for (name, fault, script) in [
            ("forge", "forge", forge_flood()),
            ("replay", "replay", replay_storm(2)),
            ("tamper", "tamper", tamper_flood(4)),
        ] {
            let side = scenario.run_sidecar_faulted(54, &script);
            let base = scenario.run_baseline_faulted(54, scenario.reduced_ack_every, &script);
            assert_transparent(&format!("ackred/{name}"), &side, &base);
            assert_rejected(&format!("ackred/{name}"), &side, fault);
        }
    }

    #[test]
    fn ccd_holds_baseline_goodput_under_every_attack() {
        // Long run for the same amortization reason as the blackout test:
        // if sustained rejection noise trips the error budget, the one-off
        // handover cost must wash out against the horizon.
        let scenario = CcdScenario {
            total_packets: 10_000,
            auth: Some(auth()),
            ..CcdScenario::default()
        };
        for (name, fault, script) in [
            ("forge", "forge", forge_flood()),
            ("replay", "replay", replay_storm(2)),
            ("tamper", "tamper", tamper_flood(4)),
        ] {
            let side = scenario.run_sidecar_faulted(55, &script);
            let base = scenario.run_baseline_faulted(55, &script);
            assert_transparent(&format!("ccd/{name}"), &side, &base);
            assert_rejected(&format!("ccd/{name}"), &side, fault);
        }
    }

    #[test]
    fn ccd_firewalled_control_flow_degrades_to_baseline() {
        let scenario = CcdScenario {
            total_packets: 10_000,
            auth: Some(auth()),
            ..CcdScenario::default()
        };
        let script = firewall(20);
        let side = scenario.run_sidecar_faulted(56, &script);
        let base = scenario.run_baseline_faulted(56, &script);
        assert!(side.degradations >= 1, "never degraded: {side:?}");
        assert_transparent("ccd/firewall", &side, &base);
    }

    #[test]
    fn adversarial_runs_are_deterministic() {
        let scenario = RetxScenario {
            total_packets: 600,
            auth: Some(auth()),
            ..RetxScenario::default()
        };
        for script in [
            forge_flood(),
            replay_storm(2),
            tamper_flood(4),
            firewall(20),
        ] {
            assert_eq!(
                scenario.run_sidecar_faulted(57, &script),
                scenario.run_sidecar_faulted(57, &script),
                "retx not deterministic under {script:?}"
            );
        }
    }
}

// ------------------------------------------------------ short outages ----
//
// The world only discards timers that fire *during* an outage. A periodic
// chain whose node crashes and restarts between two fires therefore still
// has its pre-crash event queued, and an `on_restart` that re-arms
// unconditionally leaves two chains alive: the node emits (or sweeps) at
// double rate for the rest of the run. Each affected chain must look the
// same after an outage shorter than its period as after a longer one.

mod short_outage {
    use super::*;
    use sidecar_netsim::fault::FaultPlan;
    use sidecar_netsim::link::LinkConfig;
    use sidecar_netsim::node::NodeId;
    use sidecar_netsim::transport::{CcAlgorithm, ReceiverConfig, SenderConfig};
    use sidecar_netsim::world::World;
    use sidecar_proto::protocols::ack_reduction::AckRedProxy;
    use sidecar_proto::protocols::ccd::{CcdClient, CcdProxy, CcdServer};
    use sidecar_proto::{FlowTableConfig, SidecarConfig, SupervisionConfig};

    /// The default 30 ms quACK interval, spelled out: the outages below are
    /// sized against it.
    const INTERVAL: SimDuration = SimDuration::from_millis(30);

    #[test]
    fn ccd_proxy_emit_chain_survives_a_sub_interval_outage_once() {
        // A 10 Mbit/s downstream keeps the flow (and so the proxy's
        // session) alive well past the restart.
        let mut scenario = CcdScenario {
            total_packets: 3_000,
            quack_interval: INTERVAL,
            ..CcdScenario::default()
        };
        scenario.downstream.rate_bps = 10_000_000;
        let short = scenario.run_sidecar_faulted(3, &crash_restart(1_000, 1_010));
        let long = scenario.run_sidecar_faulted(3, &crash_restart(1_000, 1_100));
        assert!(
            short.sidecar_messages.abs_diff(long.sidecar_messages) <= 16,
            "10 ms outage: {} sidecar messages, 100 ms outage: {}",
            short.sidecar_messages,
            long.sidecar_messages
        );
    }

    /// QuACKs a `CcdClient` emitted over 10 s around a crash of the client
    /// itself (fault scripts only crash proxies, so this world is built by
    /// hand).
    fn client_quacks(outage_ms: u64) -> u64 {
        let sidecar = CcdScenario::default().sidecar;
        let mut w = World::new(9);
        let server = w.add_node(Box::new(CcdServer::new(
            SenderConfig {
                total_packets: Some(500),
                ..SenderConfig::default()
            },
            sidecar,
            SimDuration::from_millis(25),
            CcAlgorithm::NewReno,
            SupervisionConfig::default(),
        )));
        let proxy = w.add_node(Box::new(CcdProxy::new(
            sidecar,
            INTERVAL,
            45_000_000.0,
            2_048,
            SimDuration::from_millis(45),
            SupervisionConfig::default(),
        )));
        let client = w.add_node(Box::new(CcdClient::new(
            ReceiverConfig::default(),
            sidecar,
            INTERVAL,
            SupervisionConfig::default(),
        )));
        let link = LinkConfig::default();
        w.connect(server, proxy, link.clone(), link.clone());
        w.connect(proxy, client, link.clone(), link);
        w.install_faults(FaultPlan::new(1).crash_restart(client, at(1_000), at(1_000 + outage_ms)));
        w.run_until(at(10_000));
        w.node_as::<CcdClient>(client).quacks_sent().0
    }

    #[test]
    fn ccd_client_emit_chain_survives_a_sub_interval_outage_once() {
        let (short, long) = (client_quacks(10), client_quacks(100));
        assert!(
            short.abs_diff(long) <= 4,
            "10 ms outage: {short} quACKs, 100 ms outage: {long}"
        );
    }

    /// A world holding one otherwise idle `AckRedProxy` (its periodic idle
    /// sweep, every 20 ms here, is the only traffic) under `faults`.
    fn sweep_world(faults: impl FnOnce(NodeId) -> FaultPlan) -> World {
        let mut w = World::new(9);
        let proxy = w.add_node(Box::new(
            AckRedProxy::new(SidecarConfig::paper_default()).with_flow_table(FlowTableConfig {
                idle_timeout: SimDuration::from_millis(20),
                ..FlowTableConfig::default()
            }),
        ));
        w.install_faults(faults(proxy));
        w
    }

    /// Events the idle proxy processes in 10 s around a crash: nothing but
    /// its sweeps and the two fault edges. The sweep sends nothing, so the
    /// chain count shows in the event total rather than in
    /// `sidecar_messages`.
    fn sweep_events(outage_ms: u64) -> u64 {
        // Sweeps land on multiples of 20 ms; the outage starts between two.
        let mut w = sweep_world(|proxy| {
            FaultPlan::new(1).crash_restart(proxy, at(1_005), at(1_005 + outage_ms))
        });
        w.run_until(at(10_000));
        w.events_processed()
    }

    /// The sweep due at 1.020 s falls inside the outage, so the world has
    /// discarded it by the time `on_restart` disarms its guard: cancelling
    /// that handle would leave a record nothing collects, and `World::step`
    /// off its no-cancellation fast path for the rest of the run. The final
    /// kill lets the periodic chain, and so the queue, drain.
    #[test]
    fn no_cancellation_outlives_the_queue_after_a_crash() {
        let mut w = sweep_world(|proxy| {
            FaultPlan::new(1)
                .crash_restart(proxy, at(1_005), at(1_055))
                .kill(proxy, at(2_000))
        });
        w.run_until_idle(10_000);
        assert_eq!(w.events_pending(), 0);
        assert_eq!(w.cancellations_pending(), 0);
    }

    #[test]
    fn ackred_proxy_sweep_chain_survives_a_sub_period_outage_once() {
        let (short, long) = (sweep_events(5), sweep_events(50));
        assert!(
            short.abs_diff(long) <= 4,
            "5 ms outage: {short} events, 50 ms outage: {long}"
        );
    }
}

// -------------------------------------------------------- determinism ----

#[test]
fn faulted_runs_are_deterministic() {
    let retx = RetxScenario {
        total_packets: 600,
        ..RetxScenario::default()
    };
    let ackred = AckReductionScenario {
        total_packets: 600,
        ..AckReductionScenario::default()
    };
    let ccd = CcdScenario {
        total_packets: 600,
        ..CcdScenario::default()
    };
    for script in [
        control_blackout(),
        corruption_flood(),
        crash_restart(150, 500),
    ] {
        assert_eq!(
            retx.run_sidecar_faulted(42, &script),
            retx.run_sidecar_faulted(42, &script),
            "retx not deterministic under {script:?}"
        );
        assert_eq!(
            ackred.run_sidecar_faulted(42, &script),
            ackred.run_sidecar_faulted(42, &script),
            "ackred not deterministic under {script:?}"
        );
        assert_eq!(
            ccd.run_sidecar_faulted(42, &script),
            ccd.run_sidecar_faulted(42, &script),
            "ccd not deterministic under {script:?}"
        );
    }
}
