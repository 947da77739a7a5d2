//! Per-layer probes: timings of single public functions of each layer, taken
//! from outside. They run in every traced run, whatever the workload, so a
//! trace document always says what each layer cost on that machine at that
//! moment. Inputs are fixed (not seeded): a probe compares two versions of
//! one function, so it needs the same input every time.

use crate::gen::{sketch_round, PacketStream, Rng};
use sidecar_galois::poly::eval_monic;
use sidecar_galois::{Field, Fp32, NewtonWorkspace};
use sidecar_live::wire;
use sidecar_netsim::link::LinkConfig;
use sidecar_netsim::node::{Context, IfaceId, Node};
use sidecar_netsim::packet::{FlowId, Packet};
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::World;
use sidecar_obs::{Event, EventTrace, FlowScoreboard, HealthDim, MetricsRegistry, TraceClass};
use sidecar_proto::{
    AuthConfig, ChannelAuth, FlowTable, FlowTableConfig, QuackConsumer, QuackFrequency,
    QuackProducer, SidecarConfig, SidecarMessage,
};
use sidecar_quack::wire::WireFormat;
use sidecar_quack::Quack32;
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Wall time one probe may take, split over [`BATCHES`] timed batches.
const BUDGET: Duration = Duration::from_millis(90);
const BATCHES: usize = 9;

/// Median nanoseconds per call of `op` over [`BATCHES`] equal batches, the
/// batch size chosen so each takes its share of [`BUDGET`].
fn ns_per_call(mut op: impl FnMut()) -> f64 {
    let t0 = Instant::now();
    let mut calls = 0u64;
    while t0.elapsed() < BUDGET / (BATCHES as u32 * 2) {
        op();
        calls += 1;
    }
    let per_batch = calls.max(1) * 2;
    let mut batches: Vec<f64> = (0..BATCHES)
        .map(|_| {
            let t0 = Instant::now();
            for _ in 0..per_batch {
                op();
            }
            t0.elapsed().as_nanos() as f64 / per_batch as f64
        })
        .collect();
    batches.sort_by(f64::total_cmp);
    batches[BATCHES / 2]
}

const T: usize = 20;
const LOG_LEN: usize = 1_000;

fn sidecar_cfg() -> SidecarConfig {
    SidecarConfig {
        frequency: QuackFrequency::Adaptive(SimDuration::from_millis(3)),
        ..SidecarConfig::paper_default()
    }
}

/// A consumer that has logged `ids`, none of them acknowledged yet.
fn logged_consumer(ids: &[u64]) -> QuackConsumer<Fp32> {
    let mut consumer = QuackConsumer::new(sidecar_cfg(), SimDuration::from_millis(1));
    for (i, &id) in ids.iter().enumerate() {
        consumer.record_sent(id, i as u64, SimTime::ZERO);
    }
    consumer
}

/// The quACK of a producer that saw all of `ids` but every `drop_every`-th.
fn quack_of(ids: &[u64], drop_every: Option<usize>) -> Vec<u8> {
    let mut producer = QuackProducer::<Fp32>::new(sidecar_cfg());
    for (i, &id) in ids.iter().enumerate() {
        if drop_every.is_none_or(|n| !(i + 1).is_multiple_of(n)) {
            producer.observe(id);
        }
    }
    let SidecarMessage::Quack { bytes, .. } = producer.emit() else {
        unreachable!("a producer emits quACKs");
    };
    bytes
}

/// Source of the bare netsim topology: 32 packets a millisecond.
struct Burst {
    left: u64,
    next_seq: u64,
}

impl Node for Burst {
    fn on_start(&mut self, ctx: &mut Context) {
        ctx.set_timer_after(SimDuration::from_millis(1), 0);
    }

    fn on_packet(&mut self, _iface: IfaceId, _packet: Packet, _ctx: &mut Context) {}

    fn on_timer(&mut self, _token: u64, ctx: &mut Context) {
        for _ in 0..32.min(self.left) {
            let seq = self.next_seq;
            self.next_seq += 1;
            self.left -= 1;
            ctx.send(
                IfaceId(0),
                Packet::data(FlowId(1), seq, seq, 1_500, ctx.now()),
            );
        }
        if self.left > 0 {
            ctx.set_timer_after(SimDuration::from_millis(1), 0);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Forwards between its two interfaces; with one interface, a sink.
struct Hop {
    ifaces: usize,
    seen: u64,
}

impl Node for Hop {
    fn on_packet(&mut self, iface: IfaceId, packet: Packet, ctx: &mut Context) {
        self.seen += 1;
        if self.ifaces == 2 {
            ctx.send(IfaceId(1 - iface.0), packet);
        }
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A bare two-hop forwarding world of harness-defined nodes: the event
/// engine (scheduler, links, dispatch) with no transport or sidecar on it.
/// Returns `(ns per event, events)`; the event count repeats exactly.
fn netsim_events() -> (f64, f64) {
    const PACKETS: u64 = 100_000;
    let mut world = World::new(1);
    let source = world.add_node(Box::new(Burst {
        left: PACKETS,
        next_seq: 0,
    }));
    let hop = world.add_node(Box::new(Hop { ifaces: 2, seen: 0 }));
    let sink = world.add_node(Box::new(Hop { ifaces: 1, seen: 0 }));
    world.connect(source, hop, LinkConfig::default(), LinkConfig::default());
    world.connect(hop, sink, LinkConfig::default(), LinkConfig::default());
    let t0 = Instant::now();
    world.run_until(SimTime::ZERO + SimDuration::from_secs(10));
    let took = t0.elapsed();
    assert_eq!(
        world.node_as::<Hop>(sink).seen,
        PACKETS,
        "the bare world lost packets"
    );
    let events = world.events_processed();
    (took.as_nanos() as f64 / events as f64, events as f64)
}

/// Plain std loopback UDP: one datagram there and one back. The floor no
/// change to the live host can beat.
fn socket_rtt_ns() -> f64 {
    let (a, b) = sidecar_live::loopback_pair().expect("bind loopback pair");
    let image = wire::encode(&PacketStream::new(1, 1).next_packet(0));
    let mut buf = [0u8; 256];
    ns_per_call(|| {
        a.send(&image).expect("loopback send");
        let n = b.recv(&mut buf).expect("loopback recv");
        b.send(&buf[..n]).expect("loopback send");
        a.recv(&mut buf).expect("loopback recv");
    })
}

/// Runs every probe; returns `(metric name, value)` pairs.
pub fn run_all() -> Vec<(&'static str, f64)> {
    let mut out: Vec<(&'static str, f64)> = Vec::new();
    let mut rng = Rng::new(0x9A10);
    let round = sketch_round(&mut rng, LOG_LEN, T);
    let ids = &round.ids;

    // galois
    let mut sums = [Fp32::ZERO; T];
    let fold = ns_per_call(|| {
        for batch in ids.chunks_exact(32) {
            Fp32::fold_power_sums(&mut sums, black_box(batch), false);
        }
    });
    out.push(("galois.fold_ns_per_id", fold / (LOG_LEN / 32 * 32) as f64));
    let mut sender = Quack32::new(T);
    sender.insert_batch(ids);
    let mut receiver = Quack32::new(T);
    receiver.insert_batch(&round.received);
    let diff = sender.difference(&receiver);
    let diff_sums: Vec<Fp32> = diff.power_sums().map(Fp32::from_u64).collect();
    let workspace = NewtonWorkspace::<Fp32>::new(T);
    let mut coeffs = Vec::new();
    out.push((
        "galois.newton_ns",
        ns_per_call(|| workspace.coefficients_into(black_box(&diff_sums), &mut coeffs)),
    ));
    out.push((
        "galois.roots_ns",
        ns_per_call(|| {
            for &id in ids {
                black_box(eval_monic(&coeffs, Fp32::from_u64(id)));
            }
        }),
    ));

    // core
    let mut quack = Quack32::new(T);
    let insert = ns_per_call(|| {
        for &id in ids {
            quack.insert(black_box(id));
        }
    });
    out.push(("core.insert_ns_per_id", insert / LOG_LEN as f64));
    let insert_batch = ns_per_call(|| quack.insert_batch(black_box(ids)));
    out.push(("core.insert_batch_ns_per_id", insert_batch / LOG_LEN as f64));
    let format = WireFormat::paper_default(T);
    let image = format.encode(&receiver);
    out.push((
        "core.wire_encode_ns",
        ns_per_call(|| drop(black_box(format.encode(&receiver)))),
    ));
    out.push((
        "core.wire_decode_ns",
        ns_per_call(|| drop(black_box(format.decode::<Fp32>(&image, None)))),
    ));
    out.push((
        "core.difference_ns",
        ns_per_call(|| drop(black_box(sender.difference(&receiver)))),
    ));
    let mut decodes = 0u64;
    let mut decode_failures = 0u64;
    out.push((
        "core.decode_ns",
        ns_per_call(|| {
            decodes += 1;
            let ok = diff
                .decode_with_log(ids)
                .is_ok_and(|d| d.missing() == round.dropped.as_slice());
            decode_failures += !ok as u64;
        }),
    ));
    out.push((
        "core.decode_fail_share",
        decode_failures as f64 / decodes.max(1) as f64,
    ));
    let nothing_missing = sender.difference(&sender);
    out.push((
        "core.decode_m0_ns",
        ns_per_call(|| drop(black_box(nothing_missing.decode_with_log(ids)))),
    ));

    // sidecar: codec and auth, on the 82-byte quACK of flow 7.
    let msg = SidecarMessage::Quack {
        epoch: 3,
        bytes: image.clone(),
    };
    let (tag, body) = msg.encode_for_flow(7);
    out.push((
        "sidecar.messages.encode_ns",
        ns_per_call(|| drop(black_box(msg.encode_for_flow(7)))),
    ));
    out.push((
        "sidecar.messages.decode_ns",
        ns_per_call(|| drop(black_box(SidecarMessage::decode_flow(tag, &body)))),
    ));
    let auth = AuthConfig::from_secret(crate::workloads::AUTH_SECRET, 1);
    let mut sealer = ChannelAuth::new(auth.with_nonce(2));
    let mut opener = ChannelAuth::new(auth.with_nonce(1));
    out.push((
        "sidecar.auth.seal_ns",
        ns_per_call(|| drop(black_box(sealer.seal(&msg, 7)))),
    ));
    // Each open needs a fresh sequence number (a replay is refused), so the
    // probe seals too and the seal's cost is taken back out.
    let seal_ns = out.last().expect("just pushed").1;
    let seal_open = ns_per_call(|| {
        let (tag, body) = sealer.seal(&msg, 7);
        black_box(opener.open(tag, &body)).expect("own seal opens");
    });
    out.push(("sidecar.auth.open_ns", (seal_open - seal_ns).max(0.0)));
    let (tag, mut tampered) = sealer.seal(&msg, 7);
    *tampered.last_mut().expect("sealed body") ^= 1; // MAC no longer matches
    out.push((
        "sidecar.auth.reject_ns",
        ns_per_call(|| assert!(black_box(opener.open(tag, &tampered)).is_err())),
    ));

    // sidecar: flow table. 64 resident flows hit; 256 flows through a full
    // 128-slot table insert and LRU-evict.
    let table_cfg = FlowTableConfig {
        shards: 8,
        per_shard: 16,
        idle_timeout: SimDuration::from_secs(300),
    };
    let mut table: FlowTable<QuackProducer<Fp32>> = FlowTable::new(table_cfg);
    let cfg = sidecar_cfg();
    let mut clock = 0u64;
    let mut tick = || {
        clock += 1;
        SimTime::from_nanos(clock)
    };
    for f in 1..=64u32 {
        table.get_or_insert_with(FlowId(f), tick(), || QuackProducer::new(cfg));
    }
    out.push((
        "sidecar.flows.bytes_per_flow",
        table.bytes_per_flow() as f64,
    ));
    let mut flow = 0u32;
    out.push((
        "sidecar.flows.lookup_ns",
        ns_per_call(|| {
            flow = flow % 64 + 1;
            black_box(table.get_mut(FlowId(flow), tick())).expect("resident flow");
        }),
    ));
    let mut flow = 0u32;
    out.push((
        "sidecar.flows.churn_ns",
        ns_per_call(|| {
            flow = flow % 256 + 1;
            black_box(table.get_or_insert_with(FlowId(flow), tick(), || QuackProducer::new(cfg)));
        }),
    ));

    // sidecar: endpoints.
    let mut producer = QuackProducer::<Fp32>::new(cfg);
    let observe = ns_per_call(|| {
        for &id in ids {
            producer.observe(black_box(id));
        }
    });
    out.push((
        "sidecar.endpoint.observe_ns_per_id",
        observe / LOG_LEN as f64,
    ));
    out.push((
        "sidecar.endpoint.emit_ns",
        ns_per_call(|| drop(black_box(producer.emit()))),
    ));
    let mut consumer = QuackConsumer::<Fp32>::new(cfg, SimDuration::from_millis(1));
    let mut n = 0u64;
    out.push((
        "sidecar.endpoint.record_sent_ns",
        ns_per_call(|| {
            n += 1;
            consumer.record_sent(black_box(ids[n as usize % LOG_LEN]), n, SimTime::ZERO);
            if n.is_multiple_of(4_096) {
                consumer.reset(0); // keep the log from growing without bound
            }
        }),
    ));
    // process_quack consumes the log it decodes against, so each call gets
    // a freshly logged consumer; the logging is priced and taken out.
    let logged = &ids[..300];
    let log_ns = ns_per_call(|| drop(black_box(logged_consumer(logged))));
    for (name, drop_every) in [
        ("sidecar.endpoint.process_quack_ns", None),
        ("sidecar.endpoint.process_quack_lossy_ns", Some(16)),
    ] {
        let quack = quack_of(logged, drop_every);
        let now = SimTime::ZERO + SimDuration::from_millis(50);
        let both = ns_per_call(|| {
            let mut c = logged_consumer(logged);
            black_box(c.process_quack(now, 0, &quack)).expect("prepared quACK decodes");
        });
        out.push((name, (both - log_ns).max(0.0)));
    }

    // netsim
    let (ns_per_event, events) = netsim_events();
    out.push(("netsim.ns_per_event", ns_per_event));
    out.push(("netsim.events", events));

    // live
    let mut stream = PacketStream::new(1, 1);
    let data = stream.next_packet(0);
    let data_image = wire::encode(&data);
    let ctrl = Packet::sidecar(
        FlowId(7),
        tag,
        body.clone(),
        28 + body.len() as u32,
        SimTime::ZERO,
    );
    let ctrl_image = wire::encode(&ctrl);
    out.push((
        "live.wire.encode_ns",
        ns_per_call(|| drop(black_box(wire::encode(&data)))),
    ));
    out.push((
        "live.wire.decode_ns",
        ns_per_call(|| drop(black_box(wire::decode(&data_image)))),
    ));
    out.push((
        "live.wire.decode_ctrl_ns",
        ns_per_call(|| drop(black_box(wire::decode(&ctrl_image)))),
    ));
    out.push(("live.socket.rtt_ns", socket_rtt_ns()));

    // obs
    let mut trace = EventTrace::with_capacity(1 << 12);
    let mut seq = 0u64;
    out.push((
        "obs.trace_record_ns",
        ns_per_call(|| {
            seq += 1;
            trace.record(
                seq,
                Event::HopDeliver {
                    node: 1,
                    iface: 0,
                    class: TraceClass::Data,
                    flow: 1,
                    seq,
                },
            );
        }),
    ));
    let board = FlowScoreboard::with_capacity(256);
    let mut flow = 0u32;
    out.push((
        "obs.scoreboard_record_ns",
        ns_per_call(|| {
            flow = flow % 64 + 1;
            board.record(flow, HealthDim::ProxyRetx);
        }),
    ));
    let registry = MetricsRegistry::new();
    out.push((
        "obs.metrics_inc_ns",
        ns_per_call(|| registry.inc("bench.probe")),
    ));
    out
}
