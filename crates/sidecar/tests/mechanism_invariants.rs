//! Metric-asserting mechanism tests: one invariant per paper protocol,
//! pinned against the `ScenarioReport::metrics` snapshot rather than ad-hoc
//! node counters. These are the §2.1–§2.3 mechanisms stated as arithmetic
//! over the observability registry, so a refactor that silently changes
//! *how much* the mechanisms fire (not just whether the flow completes)
//! fails loudly here.

use sidecar_netsim::link::{LinkConfig, LossModel};
use sidecar_netsim::time::SimDuration;
use sidecar_proto::protocols::ack_reduction::AckReductionScenario;
use sidecar_proto::protocols::ccd::CcdScenario;
use sidecar_proto::protocols::manyflow::{ManyFlowProtocol, ManyFlowScenario};
use sidecar_proto::protocols::retx::RetxScenario;
use sidecar_proto::FlowTableConfig;

/// §4.3 / §2.2: with `QuackFrequency::EveryPackets(2)` the proxy quACKs
/// once per two observed data packets — the quACK count tracks `packets/n`
/// within the one-packet tail, never the (reduced) ACK count.
#[test]
fn ackred_quacks_track_observed_packets_over_n() {
    let scenario = AckReductionScenario {
        total_packets: 600,
        ..AckReductionScenario::default()
    };
    let report = scenario.run_sidecar(11);
    assert!(report.completion.is_some(), "{report:?}");
    let m = &report.metrics;

    let observed = m.counter("quack.observed");
    let quacks = m.counter("sidecar.sent.quack");
    assert!(observed >= 600, "producer must see every data packet");
    // Every second observation forces an emit: |observed - 2·quacks| ≤ 1.
    assert!(
        (2 * quacks).abs_diff(observed) <= 1,
        "quACKs {quacks} must be ⌊observed/2⌋ of {observed}"
    );
    // The registry and the report count the same wire messages.
    assert_eq!(quacks, report.sidecar_messages);
    // Clean links: every quACK decodes, nothing burns the error budget.
    assert!(m.counter("quack.decoded") > 0);
    assert_eq!(m.counter("quack.err.threshold"), 0, "{m:?}");
    assert_eq!(m.counter("quack.err.malformed"), 0);
    assert_eq!(report.degradations, 0);
}

/// §2.3: the sender-side proxy only retransmits packets the quACK stream
/// proved missing, so in-network retransmissions are bounded by what the
/// simulator actually dropped — and on a 2% subpath they recover most of it.
#[test]
fn retx_proxy_retransmissions_bounded_by_simulated_drops() {
    let scenario = RetxScenario {
        total_packets: 800,
        ..RetxScenario::default()
    };
    let report = scenario.run_sidecar(13);
    assert!(report.completion.is_some(), "{report:?}");
    let m = &report.metrics;

    let dropped = m.counter_sum("netsim.drop.");
    assert!(dropped > 0, "2% subpath loss must drop packets");
    assert!(
        report.proxy_retransmissions <= dropped,
        "proxy retransmitted {} of only {dropped} drops",
        report.proxy_retransmissions
    );
    // The quACK feedback loop did the work: decodes happened, and the
    // confirmed-missing stream the proxy acted on is also drop-bounded.
    assert!(m.counter("quack.decoded") > 0);
    assert!(m.counter("quack.newly_missing") <= dropped);
    // Identifiers confirmed received never exceed identifiers observed.
    assert!(m.counter("quack.confirmed_received") <= m.counter("quack.observed"));
}

/// §2.1 / §3.2: on a lossless, uncongested path every quACK decodes below
/// the threshold — zero decode failures, zero packets reported missing.
#[test]
fn ccd_lossless_path_decodes_every_quack_below_threshold() {
    let scenario = CcdScenario {
        total_packets: 300,
        downstream: LinkConfig {
            loss: LossModel::None,
            // Deep queue so slow-start bursts cannot cause congestive
            // drops, which would legitimately show up as missing.
            queue_packets: 8_192,
            ..CcdScenario::default().downstream
        },
        buffer_cap: 8_192,
        ..CcdScenario::default()
    };
    let report = scenario.run_sidecar(17);
    assert!(report.completion.is_some(), "{report:?}");
    let m = &report.metrics;

    assert!(m.counter("quack.decoded") > 0, "{m:?}");
    assert_eq!(m.counter("quack.err.threshold"), 0, "{m:?}");
    assert_eq!(m.counter("quack.err.malformed"), 0);
    assert_eq!(m.counter("quack.err.wrong_epoch"), 0);
    assert_eq!(m.counter("quack.err.count_inconsistent"), 0);
    assert_eq!(
        m.counter("quack.newly_missing"),
        0,
        "nothing was dropped, so nothing may be reported missing: {m:?}"
    );
    assert_eq!(m.counter_sum("netsim.drop."), 0);
    // Both supervised consumers (server + proxy) handshook into Active and
    // stayed there.
    assert_eq!(report.degradations, 0);
    assert!(m.counter("supervisor.transitions") >= 2);
    assert!(m.counter("sidecar.handshake.accepted") >= 2);
    assert_eq!(m.counter("sidecar.handshake.rejected"), 0);
    // The proxy's flow table held the single flow for the whole run.
    assert!(m.counter("flowtable.created") >= 1, "{m:?}");
    assert_eq!(m.counter("flowtable.evicted.idle"), 0, "{m:?}");
    assert_eq!(m.counter("flowtable.evicted.capacity"), 0, "{m:?}");
}

/// §2.1: a CCD client quACKs at every tick only while its sketch moves.
/// Once its flow has finished it sends one keepalive every
/// `k = ⌊liveness_timeout / 2 / interval⌋` ticks (5 with the defaults),
/// never fewer, and the proxy does not take the quiet for death.
#[test]
fn ccd_idle_clients_keep_alive_at_one_in_k() {
    const FLOWS: u64 = 8;
    let s = ManyFlowScenario::new(ManyFlowProtocol::CongestionDivision, FLOWS as u32);
    let report = s.run();
    let m = &report.metrics;
    assert_eq!(report.completed as u64, FLOWS, "{report:?}");

    // The proxy's upstream quACKs are tallied per flow as its sessions are
    // reaped (all of them, by the end); every other quACK is a client's.
    assert_eq!(report.live_flows_at_end, 0, "{report:?}");
    let proxy = m.histogram("flowtable.flow_quacks").map_or(0, |h| h.sum);
    let clients = m.counter("sidecar.sent.quack") - proxy;

    let interval = SimDuration::from_millis(30);
    let k = (s.supervision.liveness_timeout / 2).as_nanos() / interval.as_nanos();
    let ticks = s.horizon.as_nanos() / interval.as_nanos();
    // Every tick up to the slowest completion may send, and so may the
    // k − 1 after it; of the rest, one in k.
    let active = (report.slowest_completion_secs / interval.as_secs_f64()).ceil() as u64 + k;
    let most = FLOWS * (active + (ticks - active).div_ceil(k));
    assert!(clients <= most, "{clients} client quACKs, at most {most}");
    assert!(
        clients >= FLOWS * (ticks / k),
        "{clients} client quACKs: a keepalive every {k} ticks over {ticks} is {}",
        FLOWS * (ticks / k)
    );
    // Both supervised sessions of every flow went Connecting → Active once
    // and never degraded.
    assert_eq!(m.counter("supervisor.transitions"), 2 * FLOWS, "{m:?}");
}

/// DESIGN §10: the flow table evicts only on idle expiry or capacity
/// pressure. A lossless single-flow transfer neither idles mid-flight nor
/// pressures the default 8 × 64 table, so both eviction counters must stay
/// at zero for every protocol — a nonzero count here means per-flow quACK
/// state was silently dropped and rebuilt behind a healthy flow's back.
#[test]
fn flow_table_never_evicts_in_lossless_scenarios() {
    let retx = RetxScenario {
        total_packets: 400,
        subpath: LinkConfig {
            loss: LossModel::None,
            ..RetxScenario::default().subpath
        },
        ..RetxScenario::default()
    };
    let ackred = AckReductionScenario {
        total_packets: 400,
        ..AckReductionScenario::default() // both links lossless by default
    };
    for (label, report) in [
        ("retx", retx.run_sidecar(19)),
        ("ackred", ackred.run_sidecar(23)),
    ] {
        assert!(report.completion.is_some(), "{label}: {report:?}");
        let m = &report.metrics;
        assert_eq!(m.counter_sum("netsim.drop."), 0, "{label}: {m:?}");
        assert!(
            m.counter("flowtable.created") >= 1,
            "{label}: the proxy must route through the flow table: {m:?}"
        );
        assert_eq!(m.counter("flowtable.evicted.idle"), 0, "{label}: {m:?}");
        assert_eq!(m.counter("flowtable.evicted.capacity"), 0, "{label}: {m:?}");
        assert_eq!(m.counter("sidecar.flow_mismatch"), 0, "{label}: {m:?}");
    }
}

/// ISSUE 8 / DESIGN §14: a lossless 10k-flow run through a
/// [`FlowTableConfig::sized_for`] slab must finish with **zero evictions
/// and zero threshold failures** — the engine's capacity claim stated as
/// arithmetic. ACK reduction carries the invariant (the lightest proxy
/// tier, so 10k flows stay affordable in a debug build); links are
/// provisioned so the only possible eviction causes would be table bugs:
/// deep queues absorb the 10k-flow slow-start burst, the idle timeout
/// outlives the horizon, and `sized_for`'s 2× headroom must absorb the
/// hashed shard imbalance.
#[test]
fn lossless_10k_flow_run_has_zero_evictions_and_threshold_failures() {
    const FLOWS: u32 = 10_000;
    let mut s = ManyFlowScenario::new(ManyFlowProtocol::AckReduction, FLOWS);
    s.packets_per_flow = 8;
    s.table = FlowTableConfig::sized_for(FLOWS as usize, SimDuration::from_secs(300));
    s.trunk = LinkConfig {
        rate_bps: 2_000_000_000,
        delay: SimDuration::from_millis(25),
        queue_packets: 131_072,
        ..LinkConfig::default()
    };
    s.edge = LinkConfig {
        rate_bps: 2_000_000_000,
        delay: SimDuration::from_millis(2),
        queue_packets: 131_072,
        ..s.edge
    };
    s.horizon = SimDuration::from_secs(60);
    let report = s.run();
    let m = &report.metrics;

    assert_eq!(report.completed, FLOWS, "every flow must finish");
    assert_eq!(
        m.counter_sum("netsim.drop."),
        0,
        "the run must actually be lossless: {m:?}"
    );
    // The headline invariant: a sized-for table under a lossless population
    // never sheds state…
    assert_eq!(report.evictions_idle, 0, "{report:?}");
    assert_eq!(report.evictions_capacity, 0, "{report:?}");
    assert_eq!(report.live_flows_at_end, FLOWS as usize);
    assert_eq!(m.counter("flowtable.created"), FLOWS as u64);
    // …and no sketch ever overflows or misdecodes.
    assert!(m.counter("quack.decoded") > 0);
    assert_eq!(m.counter("quack.err.threshold"), 0, "{m:?}");
    assert_eq!(m.counter("quack.err.malformed"), 0);
    assert_eq!(m.counter("quack.err.count_inconsistent"), 0);
}

/// ISSUE 8: under deliberate overcommit (24 flows through a 2×4 table),
/// every capacity-evicted flow's next packet rebuilds a fresh session and
/// its subsequent quACK stream resyncs **cleanly** — consumers may see the
/// benign `stale` outcome while counts catch up, but never a decode error
/// (threshold / malformed / wrong-epoch / count-inconsistent), and every
/// flow still completes via end-to-end recovery.
#[test]
fn overcommitted_table_resyncs_evicted_flows_without_decode_errors() {
    const FLOWS: u32 = 24;
    let mut s = ManyFlowScenario::new(ManyFlowProtocol::AckReduction, FLOWS);
    s.packets_per_flow = 32;
    s.horizon = SimDuration::from_secs(30);
    s.table = FlowTableConfig {
        shards: 2,
        per_shard: 4,
        idle_timeout: SimDuration::from_secs(2),
    };
    let report = s.run();
    let m = &report.metrics;

    assert!(
        report.evictions_capacity > 0,
        "overcommit must force LRU evictions: {report:?}"
    );
    assert!(
        m.counter("flowtable.created") > FLOWS as u64,
        "evicted flows must return and rebuild sessions: {m:?}"
    );
    assert_eq!(report.completed, FLOWS, "{report:?}");
    // Clean resync, never a decode error.
    assert_eq!(m.counter("quack.err.threshold"), 0, "{m:?}");
    assert_eq!(m.counter("quack.err.malformed"), 0, "{m:?}");
    assert_eq!(m.counter("quack.err.wrong_epoch"), 0, "{m:?}");
    assert_eq!(m.counter("quack.err.count_inconsistent"), 0, "{m:?}");
    // One supervisor transition per flow (Handshaking → Active): no flow
    // ever fell back to degraded mode over an eviction.
    assert_eq!(m.counter("supervisor.transitions"), FLOWS as u64, "{m:?}");
}

/// Every evicted session is reaped, whichever path evicted it: the idle
/// sweep, or the LRU and idle evictions a new flow's insert makes. For the
/// single-table proxies (ACK reduction, CCD) each eviction therefore lands
/// exactly one `flowtable.flow_quacks` observation.
#[test]
fn every_eviction_is_reaped_under_overcommit() {
    for protocol in [
        ManyFlowProtocol::AckReduction,
        ManyFlowProtocol::CongestionDivision,
    ] {
        let mut s = ManyFlowScenario::new(protocol, 24);
        s.packets_per_flow = 32;
        s.horizon = SimDuration::from_secs(30);
        s.table = FlowTableConfig {
            shards: 2,
            per_shard: 4,
            idle_timeout: SimDuration::from_secs(2),
        };
        let report = s.run();
        assert!(report.evictions_capacity > 0, "{protocol:?}: {report:?}");
        let reaped = report
            .metrics
            .histogram("flowtable.flow_quacks")
            .map_or(0, |h| h.count);
        assert_eq!(
            reaped,
            report.evictions(),
            "{protocol:?}: evictions that skipped the reaper"
        );
    }
}
