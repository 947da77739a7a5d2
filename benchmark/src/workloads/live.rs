//! `live_relay` and `live_lossy`: a generator/sink thread drives data
//! packets through `SenderSideProxy -> ReceiverSideProxy` hosted on one
//! `LiveDriver` over three loopback socket pairs, while the main thread runs
//! the driver. All traffic crosses the host loopback interface, and a data
//! datagram is ~45 bytes (the live wire carries `Packet::size` as a field,
//! not as payload), so this is the smallest-packet regime where per-packet
//! cost dominates.

use super::{finish_trace, histogram_detail, Outcome, RunArgs, AUTH_SECRET};
use crate::gen::{derive_seed, PacketStream};
use crate::json::Json;
use crate::span::Tracer;
use crate::spec::Workload;
use crate::stats::{median, quartiles, Histogram, SliceRates};
use crate::{alloc, procfs};
use sidecar_galois::Fp32;
use sidecar_live::{loopback_pair, wire, DriverStats, LiveDriver};
use sidecar_netsim::node::{Context, IfaceId, Node, NodeId};
use sidecar_netsim::packet::{FlowId, Packet, Payload};
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::Driver;
use sidecar_proto::protocols::retx::{ReceiverSideProxy, SenderSideProxy};
use sidecar_proto::{
    AuthConfig, ChannelAuth, FlowTable, FlowTableConfig, QuackConsumer, QuackFrequency,
    QuackProducer, SidecarConfig, SidecarMessage, SupervisionConfig,
};
use std::net::UdpSocket;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// How the generator offers load.
#[derive(Clone, Copy, Debug, PartialEq)]
enum Load {
    /// At most `window` packets in flight; the next leaves when one lands.
    Closed { window: u64 },
    /// One packet every `1/rate` seconds whatever the system does; each is
    /// timed from when it was due.
    Open { rate_pps: u64 },
}

/// The two live workloads differ only in these knobs.
#[derive(Clone, Copy, Debug)]
struct Shape {
    load: Load,
    flows: u32,
    /// Drop every n-th data packet leaving the sender-side proxy.
    loss_every: Option<u64>,
    auth: bool,
    /// Packets delivered before timing starts: handshakes done, caches and
    /// socket buffers warm. Fixed work, so it shows in `setup_s`.
    warmup_packets: u64,
}

fn shape(workload: Workload) -> Shape {
    match workload {
        // Saturating relay: the `live` host does almost all the work and
        // the quACK math almost none. A window of 1 measures wake-up
        // latency instead of the program (9.6k vs 15.8k pkts/s run to run).
        Workload::LiveRelay => Shape {
            load: Load::Closed { window: 32 },
            flows: 1,
            loss_every: None,
            auth: false,
            warmup_packets: 20_000,
        },
        // A fifth of the relay's capacity, so queues stay short and latency
        // means the path, while 1-in-17 loss keeps recovery (decode with
        // m > 0, buffer-and-retransmit, HMAC seal/open) doing real work.
        // 17, not 16: the drop policy counts packets, the flows rotate, and
        // a period that is a multiple of 8 would aim every drop at one flow
        // (half its packets), which resets that flow's session now and then
        // and loses what it had buffered.
        Workload::LiveLossy => Shape {
            load: Load::Open { rate_pps: 20_000 },
            flows: 8,
            loss_every: Some(17),
            auth: true,
            warmup_packets: 5_000,
        },
        other => unreachable!("{other:?} is not a live workload"),
    }
}

/// The sidecar parameters of the repository's own loopback suite.
fn sidecar_cfg() -> SidecarConfig {
    SidecarConfig {
        threshold: 64,
        frequency: QuackFrequency::Adaptive(SimDuration::from_millis(3)),
        reorder_grace: SimDuration::from_millis(2),
        ..SidecarConfig::paper_default()
    }
}

const SUBPATH_RTT: SimDuration = SimDuration::from_millis(4);
const BUFFER_CAP: usize = 4_096;
/// A closed-loop receive that waits this long has lost its window.
const RECV_TIMEOUT: Duration = Duration::from_millis(250);
/// Most packets the open loop lets be in flight at once. A loopback UDP
/// socket buffers ~270 small datagrams (212 992 bytes of 768-byte skbs), and
/// a datagram dropped at a full buffer before the first proxy or after the
/// second is a loss no sidecar can repair.
const MAX_OUTSTANDING: u64 = 128;
/// How long the sink keeps listening after the last send.
const DRAIN: Duration = Duration::from_millis(300);

/// Harness-defined forwarder for the bare-forwarding baseline: what the
/// host costs with no sidecar logic on it.
struct BareForwarder;

impl Node for BareForwarder {
    fn on_packet(&mut self, iface: IfaceId, packet: Packet, ctx: &mut Context) {
        ctx.send(IfaceId(1 - iface.0), packet);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// The system under test plus the two sockets the generator holds.
struct Chain {
    driver: LiveDriver,
    proxy_a: NodeId,
    proxy_b: NodeId,
    gen_sock: UdpSocket,
    sink_sock: UdpSocket,
    /// Local port of each of the six sockets, by the name of its end.
    ports: [(&'static str, u16); 6],
}

/// Datagrams the kernel dropped at each of the chain's sockets because the
/// receive buffer was full (`drops`, the last column of `/proc/net/udp`).
/// When packets go missing this says at which hop, and so whose fault it
/// was: the sink's buffer overflows when the generator stalls, a proxy's
/// when the host does.
fn socket_drops(ports: &[(&'static str, u16); 6]) -> Vec<(&'static str, u64)> {
    let table = std::fs::read_to_string("/proc/net/udp").unwrap_or_default();
    // Columns: sl, local address:PORT (hex), ..., drops.
    let drops_at = |port: u16| -> u64 {
        table
            .lines()
            .map(|line| line.split_ascii_whitespace().collect::<Vec<_>>())
            .filter(|cols| {
                cols.get(1)
                    .and_then(|local| local.rsplit(':').next())
                    .is_some_and(|hex| u16::from_str_radix(hex, 16) == Ok(port))
            })
            .filter_map(|cols| cols.last()?.parse::<u64>().ok())
            .sum()
    };
    ports
        .iter()
        .map(|&(name, port)| (name, drops_at(port)))
        .collect()
}

fn attach(driver: &mut LiveDriver, node: NodeId, iface: usize, socket: UdpSocket) {
    let peer = socket
        .peer_addr()
        .expect("loopback_pair connects both ends");
    driver
        .attach_socket(node, IfaceId(iface), socket, peer)
        .expect("attach loopback socket");
}

fn build_chain(shape: &Shape, seed: u64, bare: bool) -> Chain {
    let mut driver = LiveDriver::new(seed);
    let (node_a, node_b): (Box<dyn Node>, Box<dyn Node>) = if bare {
        (Box::new(BareForwarder), Box::new(BareForwarder))
    } else {
        let mut a = SenderSideProxy::new(
            sidecar_cfg(),
            SUBPATH_RTT,
            BUFFER_CAP,
            SupervisionConfig::default(),
        );
        let mut b = ReceiverSideProxy::new(sidecar_cfg());
        if shape.auth {
            let auth = AuthConfig::from_secret(AUTH_SECRET, 1);
            a = a.with_auth(auth.with_nonce(1));
            b = b.with_auth(auth.with_nonce(2));
        }
        (Box::new(a), Box::new(b))
    };
    let proxy_a = driver.install(node_a);
    let proxy_b = driver.install(node_b);
    let (gen_sock, a0) = loopback_pair().expect("bind loopback pair");
    let (a1, b0) = loopback_pair().expect("bind loopback pair");
    let (b1, sink_sock) = loopback_pair().expect("bind loopback pair");
    let port = |s: &UdpSocket| s.local_addr().expect("bound socket").port();
    let ports = [
        ("gen", port(&gen_sock)),
        ("proxy_a.0", port(&a0)),
        ("proxy_a.1", port(&a1)),
        ("proxy_b.0", port(&b0)),
        ("proxy_b.1", port(&b1)),
        ("sink", port(&sink_sock)),
    ];
    attach(&mut driver, proxy_a, 0, a0);
    attach(&mut driver, proxy_a, 1, a1);
    attach(&mut driver, proxy_b, 0, b0);
    attach(&mut driver, proxy_b, 1, b1);
    // Bare forwarders cannot repair a loss, so their baseline runs without.
    if let (Some(every), false) = (shape.loss_every, bare) {
        driver.set_egress_loss(proxy_a, IfaceId(1), every);
    }
    Chain {
        driver,
        proxy_a,
        proxy_b,
        gen_sock,
        sink_sock,
        ports,
    }
}

/// What the generator/sink thread measured.
#[derive(Default)]
struct GenReport {
    sent: u64,
    delivered: u64,
    duplicates: u64,
    sink_decode_errors: u64,
    recv_timeouts: u64,
    /// Unique packets landed inside the timed phase.
    timed_delivered: u64,
    /// Unique packets per complete one-second slice of the timed phase.
    slices: Option<SliceRates>,
    latency: Histogram,
    lag: Histogram,
    timed_wall_ns: u64,
    /// What the process's cumulative counters rose by over the timed phase.
    timed: Counters,
    /// Packets sent before the drain, the ones that must land; sequence
    /// numbers from here on are the drain's. `u64::MAX` until the drain.
    counted: u64,
    /// The first few of those that never landed, for the report.
    missing: Vec<u64>,
}

/// The cumulative counters the timed phase is bracketed by: a snapshot, or
/// the difference of two.
#[derive(Clone, Copy, Default)]
struct Counters {
    /// CPU of the whole process, and of the generator thread alone.
    proc_cpu_ns: u64,
    gen_cpu_ns: u64,
    allocs: u64,
    alloc_bytes: u64,
    ctx_switches: u64,
}

impl Counters {
    fn read(traced: bool) -> Counters {
        let (allocs, alloc_bytes) = alloc::snapshot();
        Counters {
            proc_cpu_ns: procfs::process_cpu_ns(),
            gen_cpu_ns: procfs::thread_cpu_ns(),
            allocs,
            alloc_bytes,
            // Walking /proc/self/task costs tens of microseconds; only the
            // traced run pays it.
            ctx_switches: if traced {
                procfs::context_switches()
            } else {
                0
            },
        }
    }

    fn since(self, before: Counters) -> Counters {
        Counters {
            proc_cpu_ns: self.proc_cpu_ns - before.proc_cpu_ns,
            gen_cpu_ns: self.gen_cpu_ns - before.gen_cpu_ns,
            allocs: self.allocs - before.allocs,
            alloc_bytes: self.alloc_bytes - before.alloc_bytes,
            ctx_switches: self.ctx_switches - before.ctx_switches,
        }
    }

    /// The generator thread's share of the process's CPU.
    fn gen_cpu_share(&self) -> f64 {
        self.gen_cpu_ns as f64 / self.proc_cpu_ns.max(1) as f64
    }
}

/// Seen-once bookkeeping over sequence numbers.
struct SeqSet(Vec<u64>);

impl SeqSet {
    fn with_capacity(seqs: u64) -> Self {
        SeqSet(vec![0; (seqs as usize).div_ceil(64)])
    }

    /// Marks `seq`; false if it was already marked.
    fn insert(&mut self, seq: u64) -> bool {
        let (word, bit) = ((seq / 64) as usize, seq % 64);
        if word >= self.0.len() {
            self.0.resize(word + 1, 0);
        }
        let fresh = self.0[word] & (1 << bit) == 0;
        self.0[word] |= 1 << bit;
        fresh
    }

    /// The first few sequence numbers below `sent` that never landed.
    fn missing(&self, sent: u64) -> Vec<u64> {
        (0..sent)
            .filter(|seq| {
                self.0
                    .get((seq / 64) as usize)
                    .is_none_or(|w| w & (1 << (seq % 64)) == 0)
            })
            .take(8)
            .collect()
    }
}

/// The generator/sink thread: sends the seeded stream into the chain,
/// receives it back, and owns every measurement of the timed phase.
struct Generator {
    shape: Shape,
    stream: PacketStream,
    gen_sock: UdpSocket,
    sink_sock: UdpSocket,
    epoch: Instant,
    seen: SeqSet,
    buf: Vec<u8>,
    report: GenReport,
    /// Generator-clock nanosecond at which timing started (0 = not yet).
    timed_start_ns: u64,
    timed_ns: u64,
    traced: bool,
    /// When the chain's set-up began; warm-up ends the set-up.
    setup_from: Instant,
}

impl Generator {
    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    fn send(&mut self, stamp_ns: u64) {
        let packet = self.stream.next_packet(stamp_ns);
        // A full socket buffer drops the datagram; the sequence number then
        // never lands and is counted as failed.
        let _ = self.gen_sock.send(&wire::encode(&packet));
        self.report.sent += 1;
    }

    fn in_timed_phase(&self, now_ns: u64) -> bool {
        self.timed_start_ns != 0 && now_ns < self.timed_start_ns + self.timed_ns
    }

    /// Accounts for one datagram that reached the sink. Returns whether it
    /// was a first delivery.
    fn landed(&mut self, len: usize, now_ns: u64) -> bool {
        let Ok(packet) = wire::decode(&self.buf[..len]) else {
            self.report.sink_decode_errors += 1;
            return false;
        };
        if packet.seq >= self.report.counted {
            return false; // one of the drain's uncounted packets
        }
        if !self.seen.insert(packet.seq) {
            self.report.duplicates += 1;
            return false;
        }
        self.report.delivered += 1;
        let sent_ns = packet.sent_at.as_nanos();
        if self.in_timed_phase(now_ns) && sent_ns >= self.timed_start_ns {
            self.report.timed_delivered += 1;
            self.report.latency.record(now_ns.saturating_sub(sent_ns));
            if let Some(slices) = self.report.slices.as_mut() {
                slices.record(now_ns - self.timed_start_ns);
            }
        }
        true
    }

    /// Publishes how long set-up took, warm-up included.
    fn warmed_up(&self, setup_ns: &AtomicU64) {
        setup_ns.store(
            self.setup_from.elapsed().as_nanos() as u64,
            Ordering::SeqCst,
        );
    }

    fn start_timing(&mut self, now_ns: u64) -> Counters {
        self.timed_start_ns = now_ns.max(1);
        self.report.slices = Some(SliceRates::new(self.timed_ns));
        Counters::read(self.traced)
    }

    fn stop_timing(&mut self, before: Counters, now_ns: u64) {
        self.report.timed = Counters::read(self.traced).since(before);
        self.report.timed_wall_ns = now_ns - self.timed_start_ns;
    }

    /// Closed loop: keep `window` packets in flight until the timed phase
    /// is over. `setup_ns` is set when the warm-up packets have landed.
    fn run_closed(&mut self, window: u64, setup_ns: &AtomicU64) {
        self.sink_sock
            .set_read_timeout(Some(RECV_TIMEOUT))
            .expect("set read timeout");
        let mut in_flight = 0u64;
        let mut counters = None;
        loop {
            while in_flight < window {
                let now = self.now_ns();
                self.send(now);
                in_flight += 1;
            }
            match self.sink_sock.recv(&mut self.buf) {
                Ok(len) => {
                    let now = self.now_ns();
                    if self.landed(len, now) {
                        in_flight = in_flight.saturating_sub(1);
                    }
                }
                Err(_) => {
                    // The window is gone (or the host stalled): refill it
                    // and flag the run instead of measuring the timeout.
                    self.report.recv_timeouts += 1;
                    in_flight = 0;
                }
            }
            let now = self.now_ns();
            match &counters {
                None if self.report.delivered >= self.shape.warmup_packets => {
                    self.warmed_up(setup_ns);
                    if self.timed_ns == 0 {
                        break;
                    }
                    counters = Some(self.start_timing(now));
                }
                Some(_) if now >= self.timed_start_ns + self.timed_ns => {
                    self.stop_timing(counters.take().expect("timing started"), now);
                    break;
                }
                _ => {}
            }
        }
    }

    /// Open loop: packet `k` is due at `start + k / rate` and stamped with
    /// that instant, so a late generator or a stalled system both show up
    /// as latency. Between sends the loop polls the sink and yields; a
    /// sleeping wait would add the kernel's ~50 µs timer slack to every
    /// packet, more than the path under test takes.
    fn run_open(&mut self, rate_pps: u64, setup_ns: &AtomicU64) {
        self.sink_sock
            .set_nonblocking(true)
            .expect("set nonblocking");
        let gap_ns = 1_000_000_000 / rate_pps;
        let start = self.now_ns();
        let timed_from = start + self.shape.warmup_packets * gap_ns;
        let mut next_due = start;
        let mut counters = None;
        loop {
            let mut now = self.now_ns();
            if counters.is_none() && now >= timed_from {
                self.warmed_up(setup_ns);
                if self.timed_ns == 0 {
                    break;
                }
                counters = Some(self.start_timing(timed_from));
            }
            if counters.is_some() && now >= self.timed_start_ns + self.timed_ns {
                self.stop_timing(counters.take().expect("timing started"), now);
                break;
            }
            // Open loop, but never more than `MAX_OUTSTANDING` packets
            // unaccounted for. In normal running about twenty are (the
            // lost ones waiting for their retransmission), so the cap does
            // not bind; after a stall of the generator or the host it keeps
            // the catch-up burst inside every socket buffer on the path.
            // Held-back packets keep their due time, so the wait is
            // measured, not hidden.
            while next_due <= now && self.report.sent - self.report.delivered < MAX_OUTSTANDING {
                if self.in_timed_phase(next_due) {
                    self.report.lag.record(now - next_due);
                }
                self.send(next_due);
                next_due += gap_ns;
                now = self.now_ns();
            }
            while let Ok(len) = self.sink_sock.recv(&mut self.buf) {
                let now = self.now_ns();
                self.landed(len, now);
            }
            std::thread::yield_now();
        }
        self.sink_sock.set_nonblocking(false).expect("set blocking");
    }

    /// After the last counted send: listen until everything landed or
    /// `DRAIN` ran out. What is still missing then counts as failed.
    ///
    /// The sidecar leaves a trailing loss to the end-to-end transport ("any
    /// continuous suffix of missing packets [is] in transit", §3.3), and
    /// there is none here. So the drain keeps a trickle of uncounted packets
    /// flowing: each one that lands turns the losses before it from a
    /// suffix into a gap the proxy repairs.
    fn drain(&mut self) {
        self.report.counted = self.report.sent;
        self.sink_sock
            .set_read_timeout(Some(Duration::from_millis(1)))
            .expect("set read timeout");
        let deadline = Instant::now() + DRAIN;
        while self.report.delivered < self.report.counted && Instant::now() < deadline {
            let now = self.now_ns();
            let packet = self.stream.next_packet(now);
            let _ = self.gen_sock.send(&wire::encode(&packet));
            if let Ok(len) = self.sink_sock.recv(&mut self.buf) {
                let now = self.now_ns();
                self.landed(len, now);
            }
        }
    }
}

/// Everything one chain run yields.
struct ChainRun {
    gen: GenReport,
    stats: DriverStats,
    /// Seconds from before the chain was built to the end of warm-up.
    setup_s: f64,
    proxy_retx: u64,
    degradations: u64,
    quacks_sent: u64,
    control_sent: u64,
    socket_drops: Vec<(&'static str, u64)>,
    /// The process's peak resident set when this chain had finished
    /// (filled in by the caller).
    peak_rss_mb: f64,
}

/// Builds a chain, runs the generator against it for `timed` (zero: warm
/// up only) while this thread hosts the driver, and tears it all down.
fn run_chain(shape: &Shape, seed: u64, timed: Duration, bare: bool, traced: bool) -> ChainRun {
    let t0 = Instant::now();
    let mut chain = build_chain(shape, derive_seed(seed, 0xD21), bare);
    let expected = shape.warmup_packets
        + match shape.load {
            Load::Closed { .. } => 200_000 * (timed.as_secs() + 1),
            Load::Open { rate_pps } => rate_pps * (timed.as_secs() + 1),
        };
    let mut generator = Generator {
        shape: *shape,
        stream: PacketStream::new(seed, shape.flows),
        gen_sock: chain.gen_sock.try_clone().expect("clone socket"),
        sink_sock: chain.sink_sock.try_clone().expect("clone socket"),
        epoch: Instant::now(),
        seen: SeqSet::with_capacity(expected),
        buf: vec![0; 2_048],
        report: GenReport {
            counted: u64::MAX,
            ..GenReport::default()
        },
        timed_start_ns: 0,
        timed_ns: timed.as_nanos() as u64,
        traced,
        setup_from: t0,
    };
    let setup_ns = AtomicU64::new(0);
    let done = AtomicBool::new(false);
    let gen = std::thread::scope(|scope| {
        let handle = std::thread::Builder::new()
            .name("bench-gen".into())
            .spawn_scoped(scope, || {
                alloc::exclude_this_thread();
                match shape.load {
                    Load::Closed { window } => generator.run_closed(window, &setup_ns),
                    Load::Open { rate_pps } => generator.run_open(rate_pps, &setup_ns),
                }
                generator.drain();
                generator.report.missing = generator.seen.missing(generator.report.counted);
                done.store(true, Ordering::SeqCst);
                std::mem::take(&mut generator.report)
            })
            .expect("spawn generator thread");
        let mut deadline = SimTime::ZERO;
        while !done.load(Ordering::SeqCst) {
            deadline = chain.driver.now().max(deadline) + SimDuration::from_millis(20);
            chain.driver.run_until(deadline);
        }
        handle.join().expect("generator thread panicked")
    });
    let stats = chain.driver.stats();
    let socket_drops = socket_drops(&chain.ports);
    let d = &chain.driver as &dyn Driver;
    let (proxy_retx, degradations, quacks_sent, control_sent) = if bare {
        (0, 0, 0, 0)
    } else {
        let a: &SenderSideProxy = d.node_as(chain.proxy_a);
        let b: &ReceiverSideProxy = d.node_as(chain.proxy_b);
        (
            a.retransmitted,
            a.degradations(),
            b.quacks_sent,
            a.control_sent,
        )
    };
    ChainRun {
        gen,
        stats,
        setup_s: setup_ns.load(Ordering::SeqCst) as f64 / 1e9,
        proxy_retx,
        degradations,
        quacks_sent,
        control_sent,
        socket_drops,
        peak_rss_mb: 0.0,
    }
}

/// CPU the system under test spent per delivered packet: the whole
/// process's CPU over the timed phase minus the generator thread's own.
fn cpu_ns_per_pkt(gen: &GenReport) -> f64 {
    let system_ns = gen.timed.proc_cpu_ns.saturating_sub(gen.timed.gen_cpu_ns);
    system_ns as f64 / gen.timed_delivered.max(1) as f64
}

fn slice_rates(gen: &GenReport) -> Vec<f64> {
    gen.slices.as_ref().map_or_else(Vec::new, SliceRates::rates)
}

/// Median over the one-second slices; a run shorter than a slice falls
/// back to the whole timed phase.
fn pkts_per_s(gen: &GenReport) -> f64 {
    let rates = slice_rates(gen);
    if rates.is_empty() {
        gen.timed_delivered as f64 / (gen.timed_wall_ns.max(1) as f64 / 1e9)
    } else {
        median(&rates)
    }
}

/// Correctness and generator-hygiene checks shared by both binaries.
fn judge(out: &mut Outcome, shape: &Shape, run: &ChainRun, bare: bool) {
    let g = &run.gen;
    out.attempted += g.counted;
    out.failed += g.counted - g.delivered + g.sink_decode_errors;
    if !g.missing.is_empty() {
        out.detail(
            "missing_seqs",
            Json::nums(&g.missing.iter().map(|&s| s as f64).collect::<Vec<_>>()),
        );
    }
    out.check(g.timed_delivered > 0, || {
        "nothing landed in the timed phase".into()
    });
    out.check(run.stats.decode_errors == 0, || {
        format!("{} datagrams failed wire::decode", run.stats.decode_errors)
    });
    out.check(run.degradations == 0, || {
        format!("{} sidecar sessions degraded", run.degradations)
    });
    if shape.loss_every.is_some() && !bare {
        out.check(run.proxy_retx > 0, || {
            "the proxy never retransmitted".into()
        });
    }
    // Where the kernel dropped datagrams at a full receive buffer. On the
    // subpath between the proxies that is a loss the sidecar repairs; before
    // the first proxy or after the second nothing can, so when packets are
    // missing this says at which hop they went.
    let lost = g.counted - g.delivered;
    if lost > 0 {
        for &(socket, drops) in run.socket_drops.iter().filter(|(_, d)| *d > 0) {
            out.problems.push(format!(
                "{lost} packets missing; the kernel dropped {drops} datagrams at {socket}'s full receive buffer"
            ));
        }
    }
    if g.recv_timeouts > 0 {
        out.invalid.push(format!(
            "{} closed-loop receives timed out",
            g.recv_timeouts
        ));
    }
    let lag_p99_us = g.lag.percentile(99.0) / 1e3;
    if !g.lag.is_empty() && lag_p99_us > 1_000.0 {
        out.invalid
            .push(format!("generator ran {lag_p99_us:.0} us late at p99"));
    }
    // An open-loop generator spins between sends by design; only in a
    // closed loop is its CPU share a sign that it, not the system, is the
    // bottleneck.
    let share = g.timed.gen_cpu_share();
    if matches!(shape.load, Load::Closed { .. }) && share > 0.5 {
        out.invalid
            .push(format!("generator used {share:.2} of the process's CPU"));
    }
}

/// How many chains one run builds, warms and times, one after the other.
/// Which CPU each of the host's threads lands on, and what the kernel does
/// with the sockets, differs from chain to chain more than within one; the
/// median over chains is steadier than one chain timed for as long, and
/// every chain's set-up feeds `setup_s`.
const INSTANCES: usize = 5;

pub fn run(args: &RunArgs) -> Outcome {
    let shape = shape(args.workload);
    let timed = Duration::from_secs_f64(args.seconds);
    if args.traced {
        return run_traced(args, &shape, timed);
    }
    let mut out = Outcome::default();
    let instances = if args.quick { 1 } else { INSTANCES };
    let runs: Vec<ChainRun> = (0..instances)
        .map(|i| {
            let seed = derive_seed(args.seed, 0xC4A1 + i as u64);
            let mut run = run_chain(&shape, seed, timed / instances as u32, false, false);
            run.peak_rss_mb = procfs::peak_rss_mb();
            judge(&mut out, &shape, &run, false);
            run
        })
        .collect();
    let over = |f: &dyn Fn(&ChainRun) -> f64| -> Vec<f64> { runs.iter().map(f).collect() };
    let setups = over(&|r| r.setup_s);
    let rates = over(&|r| pkts_per_s(&r.gen));
    out.metric("setup_s", median(&setups));
    out.metric("pkts_per_s", median(&rates));
    out.metric("cpu_ns_per_pkt", median(&over(&|r| cpu_ns_per_pkt(&r.gen))));
    out.metric(
        "latency_p50_us",
        median(&over(&|r| r.gen.latency.percentile(50.0) / 1e3)),
    );
    out.metric(
        "latency_p99_us",
        median(&over(&|r| r.gen.latency.percentile(99.0) / 1e3)),
    );
    // The first chain's peak is the fresh-process figure. Later chains only
    // add what the allocator keeps of the earlier ones, which varies run to
    // run by a third and says nothing about one proxy chain's footprint.
    out.metric("peak_rss_mb", runs[0].peak_rss_mb);
    out.detail(
        "peak_rss_mb_after_each_chain",
        Json::nums(&over(&|r| r.peak_rss_mb)),
    );
    let sum = |f: &dyn Fn(&ChainRun) -> u64| Json::Num(runs.iter().map(f).sum::<u64>() as f64);
    out.detail("instances", Json::Num(instances as f64));
    out.detail(
        "latency",
        Json::Arr(
            runs.iter()
                .map(|r| histogram_detail(&r.gen.latency))
                .collect(),
        ),
    );
    out.detail("setup_s_samples", Json::nums(&setups));
    out.detail("pkts_per_s_samples", Json::nums(&rates));
    out.detail("pkts_per_s_quartiles", Json::nums(&quartiles(&rates)));
    out.detail("delivered", sum(&|r| r.gen.delivered));
    out.detail("duplicates", sum(&|r| r.gen.duplicates));
    out.detail("proxy_retx", sum(&|r| r.proxy_retx));
    out.detail(
        "socket_drops",
        sum(&|r| r.socket_drops.iter().map(|(_, d)| *d).sum()),
    );
    out.detail(
        "gen_lag_p99_us",
        Json::nums(&over(&|r| r.gen.lag.percentile(99.0) / 1e3)),
    );
    out.detail(
        "gen_lag_max_us",
        Json::nums(&over(&|r| r.gen.lag.max() as f64 / 1e3)),
    );
    out.detail(
        "gen_cpu_share",
        Json::nums(&over(&|r| r.gen.timed.gen_cpu_share())),
    );
    out
}

/// Traced run: the same loop with the counting allocator and context-switch
/// counts, then the same loop over bare forwarders, then a single-threaded
/// replica of the proxy pipeline under spans. What the replica cannot reach
/// (thread hand-off, wake-ups, timers, syscalls) is reported as
/// `live.unattributed_ns_per_pkt`, not hidden.
fn run_traced(args: &RunArgs, shape: &Shape, timed: Duration) -> Outcome {
    let mut out = Outcome::default();
    let run = run_chain(shape, args.seed, timed.mul_f64(0.6), false, true);
    let bare = run_chain(shape, args.seed, timed.mul_f64(0.3), true, true);
    judge(&mut out, shape, &run, false);
    out.check(bare.gen.delivered == bare.gen.counted, || {
        format!(
            "bare forwarders lost {} packets",
            bare.gen.counted - bare.gen.delivered
        )
    });
    let g = &run.gen;
    let per_pkt = |x: u64| x as f64 / g.timed_delivered.max(1) as f64;
    let cpu = cpu_ns_per_pkt(g);
    let bare_cpu = cpu_ns_per_pkt(&bare.gen);
    let mut tracer = Tracer::with_capacity(1 << 16);
    let replica = replica_ns_per_pkt(shape, args.seed, &mut tracer);
    out.metric("traced.pkts_per_s", pkts_per_s(g));
    out.metric("traced.cpu_ns_per_pkt", cpu);
    out.metric("traced.latency_p50_us", g.latency.percentile(50.0) / 1e3);
    out.metric("traced.latency_p99_us", g.latency.percentile(99.0) / 1e3);
    out.metric("live.bare_forward_cpu_ns_per_pkt", bare_cpu);
    out.metric("live.sidecar_added_ns_per_pkt", cpu - bare_cpu);
    out.metric("live.replica_ns_per_pkt", replica);
    out.metric("live.unattributed_ns_per_pkt", cpu - replica);
    out.metric(
        "live.dispatch_ns_per_pkt",
        run.stats.dispatch_ns as f64 / run.stats.packets_in.max(1) as f64,
    );
    out.metric("live.allocs_per_pkt", per_pkt(g.timed.allocs));
    out.metric("live.alloc_bytes_per_pkt", per_pkt(g.timed.alloc_bytes));
    out.metric("live.ctx_switches_per_pkt", per_pkt(g.timed.ctx_switches));
    out.metric("live.packets_in", run.stats.packets_in as f64);
    out.metric("live.packets_out", run.stats.packets_out as f64);
    out.metric("live.send_errors", run.stats.send_errors as f64);
    out.metric("live.decode_errors", run.stats.decode_errors as f64);
    out.metric("live.dropped_by_policy", run.stats.dropped_by_policy as f64);
    out.metric("live.duplicates", g.duplicates as f64);
    out.metric(
        "live.socket_drops",
        run.socket_drops.iter().map(|(_, d)| *d).sum::<u64>() as f64,
    );
    // Little's-law cross-check on the closed loop: a full window over the
    // throughput should sit near the measured median. Informational only.
    if let Load::Closed { window } = shape.load {
        out.metric(
            "live.littles_law_latency_us",
            window as f64 / pkts_per_s(g) * 1e6,
        );
    }
    out.metric("sidecar.retx.proxy_retx", run.proxy_retx as f64);
    out.metric("sidecar.retx.quacks_sent", run.quacks_sent as f64);
    out.metric(
        "sidecar.retx.retx_per_drop",
        run.proxy_retx as f64 / run.stats.dropped_by_policy.max(1) as f64,
    );
    out.metric("sidecar.retx.degradations", run.degradations as f64);
    out.metric(
        "sidecar.ctrl_msgs_per_unit",
        (run.quacks_sent + run.control_sent) as f64 / g.delivered.max(1) as f64,
    );
    out.metric(
        "gen.lag_p99_us",
        if g.lag.is_empty() {
            0.0
        } else {
            g.lag.percentile(99.0) / 1e3
        },
    );
    out.metric("gen.cpu_share", g.timed.gen_cpu_share());
    finish_trace(&mut out, args, &tracer);
    out.detail("latency", histogram_detail(&g.latency));
    out
}

/// Packets per replica batch: what one 3 ms quACK interval holds at the
/// relay's ~100k packets/s.
const REPLICA_BATCH: usize = 300;
const REPLICA_BATCHES: u64 = 200;

/// Replays the workload's packet stream, on this thread alone, through a
/// replica of the two proxies' data and control paths built only from
/// public functions. Stages run batch-major (decode all, look up all, ...)
/// so a span brackets 300 calls and its own cost disappears.
fn replica_ns_per_pkt(shape: &Shape, seed: u64, tracer: &mut Tracer) -> f64 {
    let cfg = sidecar_cfg();
    let table_cfg = FlowTableConfig::default();
    let mut consumers: FlowTable<QuackConsumer<Fp32>> = FlowTable::new(table_cfg);
    let mut producers: FlowTable<QuackProducer<Fp32>> = FlowTable::new(table_cfg);
    let auth_cfg = AuthConfig::from_secret(AUTH_SECRET, 1);
    let mut seal = shape.auth.then(|| ChannelAuth::new(auth_cfg.with_nonce(2)));
    let mut open = shape.auth.then(|| ChannelAuth::new(auth_cfg.with_nonce(1)));
    let mut stream = PacketStream::new(seed, shape.flows);
    let mut tag = 0u64;
    for batch in 0..REPLICA_BATCHES {
        let now = SimTime::from_nanos((batch + 1) * 3_000_000);
        let images: Vec<Vec<u8>> = (0..REPLICA_BATCH)
            .map(|_| wire::encode(&stream.next_packet(0)))
            .collect();
        let lost = |i: usize| {
            shape
                .loss_every
                .is_some_and(|n| (i as u64 + 1).is_multiple_of(n))
        };
        tracer.span("replica.batch", batch, |t| {
            // Sender-side proxy, data path.
            let packets: Vec<Packet> = t.span("live.wire.decode", batch, |_| {
                images
                    .iter()
                    .map(|b| wire::decode(b).expect("own image"))
                    .collect()
            });
            t.span("sidecar.flows.lookup", batch, |_| {
                for p in &packets {
                    consumers
                        .get_or_insert_with(p.flow, now, || QuackConsumer::new(cfg, SUBPATH_RTT));
                }
            });
            t.span("sidecar.endpoint.record_sent", batch, |_| {
                for p in &packets {
                    tag += 1;
                    let c = consumers.get_mut(p.flow, now).expect("just ensured");
                    c.record_sent(p.id, tag, now);
                }
            });
            let forwarded: Vec<Vec<u8>> = t.span("live.wire.encode", batch, |_| {
                packets.iter().map(wire::encode).collect()
            });
            // Receiver-side proxy, data path (minus the policy's drops).
            let arrived: Vec<Packet> = t.span("live.wire.decode", batch, |_| {
                forwarded
                    .iter()
                    .enumerate()
                    .filter(|(i, _)| !lost(*i))
                    .map(|(_, b)| wire::decode(b).expect("own image"))
                    .collect()
            });
            t.span("sidecar.flows.lookup", batch, |_| {
                for p in &arrived {
                    producers.get_or_insert_with(p.flow, now, || QuackProducer::new(cfg));
                }
            });
            t.span("sidecar.endpoint.observe", batch, |_| {
                for p in &arrived {
                    producers
                        .get_mut(p.flow, now)
                        .expect("just ensured")
                        .observe(p.id);
                }
            });
            t.span("live.wire.encode", batch, |_| {
                for p in &arrived {
                    std::hint::black_box(wire::encode(p));
                }
            });
            // Control path, once per flow per batch: emit, seal or encode,
            // cross the wire, open or decode, decode the quACK.
            for flow in 1..=shape.flows {
                let msg = t.span("sidecar.endpoint.emit", batch, |_| {
                    producers
                        .get_mut(FlowId(flow), now)
                        .expect("flow is live")
                        .emit()
                });
                let (proto, body) = match seal.as_mut() {
                    Some(auth) => t.span("sidecar.auth.seal", batch, |_| auth.seal(&msg, flow)),
                    None => t.span("sidecar.messages.encode", batch, |_| {
                        msg.encode_for_flow(flow)
                    }),
                };
                let size = body.len() as u32 + 28;
                let ctrl = Packet::sidecar(FlowId(flow), proto, body, size, now);
                let image = t.span("live.wire.encode", batch, |_| wire::encode(&ctrl));
                let ctrl = t.span("live.wire.decode", batch, |_| {
                    wire::decode(&image).expect("own image")
                });
                let Payload::Sidecar { proto, bytes } = ctrl.payload else {
                    unreachable!("a sidecar packet decodes to a sidecar payload");
                };
                let opened = match open.as_mut() {
                    Some(auth) => t.span("sidecar.auth.open", batch, |_| {
                        auth.open(proto, &bytes).ok()
                    }),
                    None => t.span("sidecar.messages.decode", batch, |_| {
                        SidecarMessage::decode_flow(proto, &bytes).ok()
                    }),
                };
                let Some((_, SidecarMessage::Quack { epoch, bytes })) = opened else {
                    unreachable!("the replica's own quACK opens");
                };
                t.span("sidecar.endpoint.process_quack", batch, |_| {
                    let c = consumers.get_mut(FlowId(flow), now).expect("flow is live");
                    let _ = c.process_quack(now, epoch, &bytes);
                    std::hint::black_box(c.poll_expired(now));
                });
            }
        });
    }
    // Image generation is the generator's work, not the proxies'.
    let batches: u64 = tracer
        .spans()
        .iter()
        .filter(|s| s.name == "replica.batch")
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    batches as f64 / (REPLICA_BATCHES as usize * REPLICA_BATCH) as f64
}
