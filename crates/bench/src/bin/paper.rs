//! **The paper's claims, checked**: Table 2, Table 3, Figs. 5–6, §1 and the
//! §4.3 arithmetic of the Sidecar (HotNets '22) evaluation, the §2 protocol
//! experiments, and three extensions (the §4.3 frequency ablation, the IBLT
//! comparison and the sharing hazard), as one table of rows
//! `(section, claim, paper value, measured value, check)`.
//!
//! * **Deterministic claims are checked exactly**: wire sizes, Table 3's
//!   closed form to the paper's printed precision, the §4.3 arithmetic, and
//!   the direction of each seeded simulation (the sidecar finishes first,
//!   sends fewer ACKs, …), not today's number.
//! * **Timing claims are same-process ratios inside a stated band**
//!   (construction linear in `t`, decode near zero at `m = 0`), plus one
//!   absolute: the §1 "< 100 µs decode".
//! * **Times on this machine, sweep cells and the deviations EXPERIMENTS.md
//!   records** are printed and written but assert nothing. The paper's
//!   times are from a 2019 MacBook Pro.
//!
//! Every row lands in `BENCH_paper.json` as the metric its claim names
//! (`table2.wire_size|scheme=power_sums`: the name is the section's old
//! report name plus the cell); the bin exits 1 if any check fails. The
//! exact rows also run under `cargo test`.
//!
//! Regenerate: `cargo run -p sidecar-bench --release --bin paper`

use sidecar_bench::baselines::iblt::Iblt;
use sidecar_bench::baselines::strawman::{estimated_decode_days, EchoQuack, HashQuack};
use sidecar_bench::{measure_best_of, workload, BenchReport, Table, TRIALS, WARMUP};
use sidecar_galois::{Field, Fp16, Fp24, Fp32};
use sidecar_netsim::link::{LinkConfig, LossModel};
use sidecar_netsim::node::IfaceId;
use sidecar_netsim::router::FlowRouter;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::transport::{CcAlgorithm, ReceiverConfig, ReceiverNode};
use sidecar_netsim::transport::{SenderConfig, SenderNode};
use sidecar_netsim::{FlowId, World};
use sidecar_proto::protocols::retx::{ReceiverSideProxy, RetxScenario, SenderSideProxy};
use sidecar_proto::protocols::ScenarioReport;
use sidecar_proto::protocols::{ack_reduction::AckReductionScenario, ccd::CcdScenario};
use sidecar_proto::{QuackFrequency, SidecarConfig, SupervisionConfig};
use sidecar_quack::collision::{collision_percentage, collision_probability};
use sidecar_quack::collision::{collision_probability_monte_carlo, expected_colliding_packets};
use sidecar_quack::{PowerSumQuack, Quack32, WireFormat};
use std::fmt::Display;
use std::process::ExitCode;
use Check::{Above, Band, Below, Deviation, Exact, Info};

/// The paper's benchmark point: n sent packets, t (= m) missing.
const N: usize = 1000;
const T: usize = 20;

/// What a row asserts about its measured value.
#[derive(Clone, Copy)]
enum Check {
    /// A sweep cell or a time on this machine: printed, never asserted.
    Info,
    /// A deliberate difference from the paper, recorded in EXPERIMENTS.md:
    /// printed with its reason, never asserted.
    Deviation(&'static str),
    /// Equal, up to f64 rounding.
    Exact(f64),
    /// Strictly above.
    Above(f64),
    /// Strictly below.
    Below(f64),
    /// Strictly between the two bounds.
    Band(f64, f64),
}

impl Check {
    /// Whether `v` passes. A non-finite value (a flow that never finished)
    /// fails every row, informational ones included.
    fn holds(self, v: f64) -> bool {
        v.is_finite()
            && match self {
                Info | Deviation(_) => true,
                Exact(x) => (v - x).abs() <= 1e-9 * x.abs().max(1.0),
                Above(x) => v > x,
                Below(x) => v < x,
                Band(lo, hi) => lo < v && v < hi,
            }
    }

    fn describe(self) -> String {
        match self {
            Info => String::new(),
            Deviation(why) => format!("deviation: {why}"),
            Exact(x) => format!("= {}", fmt_value(x)),
            Above(x) => format!("> {}", fmt_value(x)),
            Below(x) => format!("< {}", fmt_value(x)),
            Band(lo, hi) => format!("in ({}, {})", fmt_value(lo), fmt_value(hi)),
        }
    }
}

/// `paper` to its printed precision: within half a unit of its last
/// printed digit, which is `last_digit`.
fn printed(paper: f64, last_digit: f64) -> Check {
    Band(paper - last_digit / 2.0, paper + last_digit / 2.0)
}

struct Row {
    section: &'static str,
    /// The metric key: `<report>.<name>|<param>=<value>…`, params sorted.
    claim: String,
    /// The paper's value as printed ("" where it prints none).
    paper: &'static str,
    value: f64,
    unit: &'static str,
    check: Check,
}

/// The rows gathered so far, and the section new rows belong to.
#[derive(Default)]
struct Claims {
    section: &'static str,
    report: &'static str,
    rows: Vec<Row>,
}

impl Claims {
    /// Starts `section`; its claims are named after the old `report`.
    fn section(&mut self, section: &'static str, report: &'static str) {
        (self.section, self.report) = (section, report);
    }

    fn row(
        &mut self,
        claim: impl Display,
        paper: &'static str,
        value: f64,
        unit: &'static str,
        check: Check,
    ) {
        let (section, claim) = (self.section, format!("{}.{claim}", self.report));
        self.rows.push(Row {
            section,
            claim,
            paper,
            value,
            unit,
            check,
        });
    }

    fn info(&mut self, claim: impl Display, value: f64, unit: &'static str) {
        self.row(claim, "", value, unit, Info);
    }

    fn failed(&self) -> impl Iterator<Item = &Row> {
        self.rows.iter().filter(|r| !r.check.holds(r.value))
    }
}

/// Four significant digits (integers as they are), exponent form outside
/// [0.001, 1e9).
fn fmt_value(v: f64) -> String {
    match v.abs() {
        a if a == a.trunc() && a < 1e9 => format!("{v:.0}"),
        a if (1e-3..1e9).contains(&a) => {
            format!("{v:.*}", (3 - a.log10().floor() as i32).max(0) as usize)
        }
        _ => format!("{v:.3e}"),
    }
}

/// The fastest of three 100-trial means of `f`, in µs. The paper reports
/// the mean of 100 trials with warmup; preemption on a shared machine only
/// ever makes a mean slower, so the fastest of three is the one a timing
/// ratio can rely on.
fn time_us<R>(mut f: impl FnMut(usize) -> R) -> f64 {
    measure_best_of(3, TRIALS, WARMUP, &mut f).as_nanos() as f64 / 1e3
}

/// The [`time_us`] of folding `ids` into a fresh sketch.
fn construct_us<Q>(ids: &[u64], new: impl Fn() -> Q, insert: impl Fn(&mut Q, u64)) -> f64 {
    time_us(|_| {
        let mut q = new();
        ids.iter().for_each(|&id| insert(&mut q, id));
        q
    })
}

fn quack<F: Field>(t: usize, ids: &[u64]) -> PowerSumQuack<F> {
    let mut q = PowerSumQuack::new(t);
    ids.iter().for_each(|&id| q.insert(id));
    q
}

/// Table 3 as the paper prints it: `(b, probability, its last digit)`.
const TABLE3: [(u32, &str, f64); 4] = [
    (8, "0.98", 0.01),
    (16, "0.015", 1e-3),
    (24, "6.0e-05", 1e-6),
    (32, "2.3e-07", 1e-8),
];

/// Sizes, Table 3's closed form and the §4.3 arithmetic: deterministic,
/// each checked exactly, so `cargo test` runs them too.
fn exact_claims(c: &mut Claims) {
    let (_, received) = workload(N, T, 32, 0xB00);
    let mut echo = EchoQuack::new(32);
    received.iter().for_each(|&id| echo.insert(id));
    let fmt = WireFormat::paper_default(T);
    c.section("Table 2", "table2");
    let k = |scheme| format!("wire_size|scheme={scheme}");
    let (s1, s1_bits) = (echo.wire_bits() as f64, Exact((32 * (N - T)) as f64));
    c.row(k("strawman1"), "32000 = b·n", s1, "bits", s1_bits);
    let s2 = HashQuack::wire_bits(16) as f64;
    c.row(k("strawman2"), "272 = 256+c", s2, "bits", Exact(272.0));
    let ps = fmt.encoded_bits() as f64;
    c.row(k("power_sums"), "656 = t·b+c", ps, "bits", Exact(656.0));

    c.section("§1", "headline");
    let bytes = fmt.encode(&quack::<Fp32>(T, &received)).len() as f64;
    c.row("quack_size", "82 B", bytes, "bytes", Exact(82.0));
    let (chance, digits) = (collision_percentage(32, N as u64), printed(2.3e-5, 1e-6));
    c.row("indeterminate_chance", "0.000023 %", chance, "%", digits);

    c.section("Table 3", "table3");
    for (b, paper, digit) in TABLE3 {
        let k = |name| format!("{name}|b={b}");
        let p = collision_probability(b, N as u64);
        let digits = printed(paper.parse().expect("a number"), digit);
        c.row(k("collision_probability"), paper, p, "p", digits);
        let colliding = expected_colliding_packets(b, N as u64);
        c.info(k("expected_colliding_packets"), colliding, "packets");
    }

    // Once per 60 ms RTT at 200 Mbit/s in 1500 B packets, 2 % of them lost.
    c.section("§4.3", "freq_selection");
    let pkts = 200e6 * 0.060 / 12_000.0;
    c.row("ccd_packets_per_rtt", "≈1000", pkts, "packets", Exact(1e3));
    c.row(
        "ccd_missing_per_rtt",
        "20",
        pkts * 0.02,
        "packets",
        Exact(20.0),
    );
    // ACK reduction: a quACK per n = 32 packets with `c` omitted beats
    // Strawman 1's b·n bits at any t < n.
    let k = |scheme: &str| format!("ackred_bits_per_window|scheme={scheme}");
    let mut echo = EchoQuack::new(32);
    (0..32).for_each(|id| echo.insert(id));
    let b_n = echo.wire_bits() as f64;
    c.row(k("strawman1"), "b·n", b_n, "bits", Exact(1024.0));
    for t in [4, 8, 16] {
        let fmt = WireFormat {
            id_bits: 32,
            threshold: t,
            count_bits: 0,
        };
        let (bits, t_b) = (fmt.encoded_bits() as f64, Exact(32.0 * t as f64));
        let claim = k(&format!("power_sums|t={t}"));
        c.row(claim, "t·b < b·n", bits, "bits", t_b);
    }
    // Retransmission: the interval that sees t = 20 losses at 1 Gbit/s.
    let intervals = [
        (0.001, 240.0),
        (0.005, 48.0),
        (0.01, 24.0),
        (0.02, 12.0),
        (0.05, 4.8),
    ];
    for (loss, ms) in intervals {
        let interval = 20.0 / loss * 12_000.0 / 1e9 * 1e3;
        c.row(
            format!("retx_quack_interval|loss={loss}"),
            "",
            interval,
            "ms",
            Exact(ms),
        );
    }
}

/// Table 2's times and the §1 per-packet and decode times, at n = 1000,
/// t = 20, b = 32, c = 16.
fn quack_times(c: &mut Claims) {
    const NOTE1: Check = Deviation("note 1, the paper splits strawman work the other way");
    let (sent, received) = workload(N, T, 32, 0xB00);
    c.section("Table 2", "table2");
    let k = |scheme| format!("construction_time|scheme={scheme}");
    let s1 = construct_us(&received, || EchoQuack::new(32), EchoQuack::insert);
    c.row(k("strawman1"), "222 us", s1, "us", NOTE1);
    let s2 = time_us(|_| {
        let mut q = HashQuack::new();
        received.iter().for_each(|&id| q.insert(id));
        q.digest()
    });
    c.row(k("strawman2"), "387 ns", s2, "us", NOTE1);
    let ps = construct_us(&received, || Quack32::new(T), Quack32::insert);
    c.row(k("power_sums"), "106 us", ps, "us", Info);
    let mut echo = EchoQuack::new(32);
    received.iter().for_each(|&id| echo.insert(id));
    let s1 = time_us(|_| echo.decode_missing(&sent));
    c.row("decode_time|scheme=strawman1", "126 us", s1, "us", Info);

    // Strawman 2 decodes by subset search: it succeeds at n = 16, m = 2,
    // and at n = 1000 the budgeted search's rate extrapolates to C(n, m)/2
    // candidates.
    let (small_sent, small_received) = workload(16, 2, 32, 0xB01);
    let mut small = HashQuack::new();
    small_received.iter().for_each(|&id| small.insert(id));
    let found = small.decode_missing(&small_sent, &small.digest(), 1_000_000);
    let found = found.map_or(0, |f| f.len()) as f64;
    c.row(
        "strawman2_search_found|m=2|n=16",
        "",
        found,
        "ids",
        Exact(2.0),
    );
    let mut hash = HashQuack::new();
    received.iter().for_each(|&id| hash.insert(id));
    const BUDGET: u64 = 20_000;
    let start = std::time::Instant::now();
    assert!(hash.decode_missing(&sent, &hash.digest(), BUDGET).is_none());
    let rate = BUDGET as f64 / start.elapsed().as_secs_f64();
    c.info("strawman2_search_rate", rate, "candidates/s");
    let days = estimated_decode_days(N as u64, T as u64, 1e9 / rate);
    let k = |scheme| format!("decode_time|scheme={scheme}");
    c.row(k("strawman2"), "≈7e+06 days", days, "days", Above(7e6));

    let fmt = WireFormat::paper_default(T);
    let sender = quack::<Fp32>(T, &sent);
    let wire = fmt.encode(&quack::<Fp32>(T, &received));
    let decode = time_us(|_| {
        let rx: Quack32 = fmt.decode(&wire, None).expect("own encoding");
        sender.decode_against(&rx, &sent).expect("t losses decode")
    });
    c.row(k("power_sums"), "61 us", decode, "us", Info);

    c.section("§1", "headline");
    let per_packet = ps * 1e3 / received.len() as f64;
    c.row("per_packet_processing", "≈100 ns", per_packet, "ns", Info);
    let diff = sender.difference(&quack(T, &received));
    let decode = time_us(|_| diff.decode_with_log(&sent).expect("t losses"));
    c.row("decode_time", "< 100 us", decode, "us", Below(100.0));
}

/// Table 3's Monte-Carlo cross-check, at the widths whose collisions are
/// common enough to sample.
fn table3_monte_carlo(c: &mut Claims) {
    c.section("Table 3", "table3");
    for ((b, paper, digit), trials) in TABLE3.into_iter().zip([20_000, 2_000_000]) {
        let p = collision_probability_monte_carlo(b, N as u64, trials, 0x7AB1E3 + b as u64);
        let digits = printed(paper.parse().expect("a number"), digit);
        c.row(
            format!("collision_probability_mc|b={b}"),
            paper,
            p,
            "p",
            digits,
        );
    }
}

/// Runs `sweep` three times and keeps each cell's fastest pass: a slowdown
/// on a shared machine spoils one pass's cells, not all three.
fn best_of_passes(sweep: impl Fn() -> Vec<[f64; 3]>) -> Vec<[f64; 3]> {
    let mut best = sweep();
    for _ in 1..3 {
        for (best, pass) in best.iter_mut().zip(sweep()) {
            for (b, v) in best.iter_mut().zip(pass) {
                *b = b.min(v);
            }
        }
    }
    best
}

/// Fig. 5: construction time of n = 1000 identifiers vs t, for b = 16, 24
/// and 32.
fn fig5(c: &mut Claims) {
    fn construct<F: Field>(t: usize, bits: u32, seed: u64) -> f64 {
        let ids = workload(N, 0, bits, seed).0;
        construct_us(&ids, || PowerSumQuack::<F>::new(t), PowerSumQuack::insert)
    }
    c.section("Fig. 5", "fig5");
    let ts: Vec<usize> = (10..=50).step_by(5).collect();
    let cells = best_of_passes(|| {
        let widths = |t| {
            [
                construct::<Fp16>(t, 16, 0xF16),
                construct::<Fp24>(t, 24, 0xF24),
                construct::<Fp32>(t, 32, 0xF32),
            ]
        };
        ts.iter().map(|&t| widths(t)).collect()
    });
    for (t, cell) in ts.iter().zip(&cells) {
        for (b, d) in [16, 24, 32].into_iter().zip(cell) {
            c.info(format!("construction_time|b={b}|t={t}"), *d, "us");
        }
    }
    let (t10, t50) = (cells[0], cells[8]);
    let (growth, linear) = (t50[2] / t10[2], Band(2.5, 12.0));
    c.row("growth_t10_to_t50|b=32", "5x (∝ t)", growth, "x", linear);
    let why = Deviation("Fp16 multiplies; its exp/log tables (Fp16Table) are slower here");
    c.row("b16_over_b32|t=50", "< 1", t50[0] / t50[2], "x", why);
}

/// Fig. 6: decode time vs missing packets m, n = 1000, t = 20, for b = 16,
/// 24 and 32.
fn fig6(c: &mut Claims) {
    fn decode<F: Field>(bits: u32, m: usize, seed: u64) -> f64 {
        let (sent, received) = workload(N, m, bits, seed);
        let diff = quack::<F>(T, &sent).difference(&quack(T, &received));
        // Identifier collisions at b = 16 may add indeterminates, never misses.
        assert_eq!(diff.decode_with_log(&sent).expect("m ≤ t").num_missing(), m);
        time_us(|_| diff.decode_with_log(&sent).expect("m ≤ t"))
    }
    c.section("Fig. 6", "fig6");
    let ms: Vec<usize> = (0..=T).step_by(2).collect();
    let cells = best_of_passes(|| {
        let widths = |m| {
            [
                decode::<Fp16>(16, m, 0x616),
                decode::<Fp24>(24, m, 0x624),
                decode::<Fp32>(32, m, 0x632),
            ]
        };
        ms.iter().map(|&m| widths(m)).collect()
    });
    for (m, cell) in ms.iter().zip(&cells) {
        for (b, d) in [16, 24, 32].into_iter().zip(cell) {
            c.info(format!("decode_time|b={b}|m={m}"), *d, "us");
        }
    }
    let b32: Vec<f64> = cells.iter().map(|cell| cell[2]).collect();
    c.row("m0_over_m20|b=32", "≈0", b32[0] / b32[10], "x", Below(0.05));
    // Decode time summed over m = 12..20 against m = 2..10: 80/30 ≈ 2.7 if
    // proportional to m, 1 if constant, 6 if quadratic. Five cells a side
    // average out a slow one.
    let upper_over_lower = b32[6..].iter().sum::<f64>() / b32[1..6].iter().sum::<f64>();
    let linear = Band(1.3, 5.0);
    c.row(
        "m12_20_over_m2_10|b=32",
        "2.7 (∝ m)",
        upper_over_lower,
        "x",
        linear,
    );
}

/// Seed means of the report fields the §2 rows read.
struct Mean {
    secs: f64,
    goodput: f64,
    e2e_retx: f64,
    in_net_retx: f64,
    client_acks: f64,
    quacks: f64,
    quack_bytes: f64,
}

fn mean(seeds: &[u64], run: impl Fn(u64) -> ScenarioReport) -> Mean {
    let runs: Vec<_> = seeds.iter().map(|&s| run(s)).collect();
    let avg = |f: fn(&ScenarioReport) -> f64| runs.iter().map(f).sum::<f64>() / runs.len() as f64;
    Mean {
        secs: avg(ScenarioReport::completion_secs),
        goodput: avg(|r| r.goodput_bps.unwrap_or(0.0)),
        e2e_retx: avg(|r| r.server_retransmissions as f64),
        in_net_retx: avg(|r| r.proxy_retransmissions as f64),
        client_acks: avg(|r| r.client_acks as f64),
        quacks: avg(|r| r.sidecar_messages as f64),
        quack_bytes: avg(|r| r.sidecar_bytes as f64),
    }
}

/// §2.1: division against end-to-end NewReno (and a BBR-like sender) as
/// the 50 Mbit/s / 20 ms downstream grows lossy; 2000 packets, 3 seeds.
fn ccd(c: &mut Claims) {
    c.section("§2.1", "exp_ccd");
    for loss in [0.0, 0.005, 0.01, 0.02] {
        let base = CcdScenario::default();
        let loss_model = match loss {
            0.0 => LossModel::None,
            p => LossModel::Bernoulli { p },
        };
        let downstream = LinkConfig {
            loss: loss_model,
            ..base.downstream.clone()
        };
        let side = CcdScenario { downstream, ..base };
        let bbr = CcdScenario {
            baseline_cc: CcAlgorithm::Bbr,
            ..side.clone()
        };
        let seeds = [5, 6, 7];
        let newreno = mean(&seeds, |s| side.run_baseline(s));
        let bbr = mean(&seeds, |s| bbr.run_baseline(s));
        let divided = mean(&seeds, |s| side.run_sidecar(s));
        for (variant, m) in [("bbr", &bbr), ("newreno", &newreno), ("sidecar", &divided)] {
            let k = |name| format!("{name}|loss={loss}|variant={variant}");
            c.info(k("completion_time"), m.secs, "s");
            c.info(k("goodput"), m.goodput, "bps");
            c.info(k("e2e_retx"), m.e2e_retx, "msgs");
        }
        c.info(format!("quack_msgs|loss={loss}"), divided.quacks, "msgs");
        let (paper, check) = match loss {
            0.0 => ("≈1 (clean)", Above(0.8)),
            _ => ("> 1 (PEP faster)", Above(1.0)),
        };
        let speedup = newreno.secs / divided.secs;
        c.row(format!("speedup|loss={loss}"), paper, speedup, "x", check);
    }
}

/// §2.2: the client ACKs every 2 packets, every 32, or every 32 with the
/// proxy quACKing every 2; 2000 packets, 3 seeds.
fn ackred(c: &mut Claims) {
    c.section("§2.2", "exp_ackred");
    let s = AckReductionScenario::default();
    let seeds = [101, 102, 103];
    let normal = mean(&seeds, |x| s.run_baseline_normal(x));
    let naive = mean(&seeds, |x| s.run_baseline_reduced(x));
    let sidecar = mean(&seeds, |x| s.run_sidecar(x));
    for (variant, m) in [
        ("normal", &normal),
        ("naive", &naive),
        ("sidecar", &sidecar),
    ] {
        let ((acks_paper, acks), (slowdown_paper, slowdown)) = match variant {
            "sidecar" => (
                ("≈1/16 of normal", Below(normal.client_acks / 8.0)),
                ("< naive's", Below(naive.secs / normal.secs)),
            ),
            _ => (("", Info), ("", Info)),
        };
        let k = |name| format!("{name}|variant={variant}");
        c.info(k("completion_time"), m.secs, "s");
        c.row(k("client_acks"), acks_paper, m.client_acks, "msgs", acks);
        c.info(k("quack_msgs"), m.quacks, "msgs");
        let vs_normal = m.secs / normal.secs;
        c.row(
            k("slowdown_vs_normal"),
            slowdown_paper,
            vs_normal,
            "x",
            slowdown,
        );
    }
}

/// §2.3: in-network retransmission across a 100 Mbit/s / 5 ms subpath as
/// its loss grows; 2000 packets, 3 seeds.
fn retx(c: &mut Claims) {
    c.section("§2.3", "exp_retx");
    for loss in [0.005, 0.01, 0.02, 0.05] {
        let subpath = LinkConfig {
            rate_bps: 100_000_000,
            delay: SimDuration::from_millis(5),
            loss: LossModel::Bernoulli { p: loss },
            ..LinkConfig::default()
        };
        let s = RetxScenario {
            total_packets: 2_000,
            subpath,
            ..RetxScenario::default()
        };
        let seeds = [11, 22, 33];
        let plain = mean(&seeds, |x| s.run_baseline(x));
        let side = mean(&seeds, |x| s.run_sidecar(x));
        let k = |name| format!("{name}|loss={loss}");
        let kv = |name, variant| format!("{name}|loss={loss}|variant={variant}");
        c.info(kv("completion_time", "baseline"), plain.secs, "s");
        c.info(kv("completion_time", "sidecar"), side.secs, "s");
        c.info(kv("e2e_retx", "baseline"), plain.e2e_retx, "msgs");
        let fewer = Below(plain.e2e_retx);
        c.row(
            kv("e2e_retx", "sidecar"),
            "< baseline's",
            side.e2e_retx,
            "msgs",
            fewer,
        );
        c.row(
            k("in_net_retx"),
            "> 0",
            side.in_net_retx,
            "msgs",
            Above(0.0),
        );
        c.info(k("quack_msgs"), side.quacks, "msgs");
        c.row(k("speedup"), "> 1", plain.secs / side.secs, "x", Above(1.0));
    }
}

/// §4.3 ablation: the CCD quACK interval, and fixed retransmission
/// schedules against the adaptive one at 2 % subpath loss; 1500 packets,
/// 3 seeds.
fn frequency(c: &mut Claims) {
    c.section("§4.3 ablation", "exp_frequency");
    let intervals = [15, 30, 60, 120, 240, 480];
    let ccd = intervals.map(|ms| {
        let quack_interval = SimDuration::from_millis(ms);
        let s = CcdScenario {
            total_packets: 1_500,
            quack_interval,
            ..CcdScenario::default()
        };
        mean(&[1, 2, 3], |x| s.run_sidecar(x))
    });
    for (ms, m) in intervals.into_iter().zip(&ccd) {
        let (paper, check) = match ms {
            480 => ("slower than 60 ms (1 RTT)", Above(ccd[2].secs)),
            _ => ("", Info),
        };
        let k = |name| format!("{name}|interval_ms={ms}");
        c.row(k("ccd_completion_time"), paper, m.secs, "s", check);
        c.info(k("ccd_quack_msgs"), m.quacks, "msgs");
        c.info(k("ccd_quack_bytes"), m.quack_bytes, "bytes");
    }

    let fixed = |ms| QuackFrequency::Interval(SimDuration::from_millis(ms));
    let adaptive = QuackFrequency::Adaptive(SimDuration::from_millis(5));
    let schedules = [
        ("fixed_2_ms", fixed(2)),
        ("fixed_5_ms", fixed(5)),
        ("fixed_20_ms", fixed(20)),
        ("fixed_80_ms", fixed(80)),
        ("adaptive", adaptive),
    ];
    let retx = schedules.map(|(_, frequency)| {
        let base = RetxScenario::default();
        let sidecar = SidecarConfig {
            frequency,
            ..base.sidecar
        };
        let s = RetxScenario {
            total_packets: 1_500,
            sidecar,
            ..base
        };
        mean(&[11, 22, 33], |x| s.run_sidecar(x))
    });
    for ((schedule, _), m) in schedules.into_iter().zip(&retx) {
        let ((time_paper, time), (quacks_paper, quacks)) = match schedule {
            "adaptive" => (
                ("faster than fixed 80 ms", Below(retx[3].secs)),
                ("fewer than fixed 5 ms", Below(retx[1].quacks)),
            ),
            _ => (("", Info), ("", Info)),
        };
        let k = |name| format!("{name}|schedule={schedule}");
        c.row(k("retx_completion_time"), time_paper, m.secs, "s", time);
        c.info(k("retx_in_net_retx"), m.in_net_retx, "msgs");
        c.row(k("retx_quack_msgs"), quacks_paper, m.quacks, "msgs", quacks);
    }
}

/// §5: the power-sum quACK (t = d) against an IBLT of capacity d on the
/// same n = 1000 set difference.
fn sketch_compare(c: &mut Claims) {
    c.section("§5 IBLT", "sketch_compare");
    for d in [5, 10, 20, 40] {
        let (sent, received) = workload(N, d, 32, 0x1B17 + d as u64);
        let quack_bytes = WireFormat::paper_default(d).encoded_bytes() as f64;
        let quack_construct = construct_us(&received, || Quack32::new(d), Quack32::insert);
        let diff = quack::<Fp32>(d, &sent).difference(&quack(d, &received));
        let quack_decode = time_us(|_| diff.decode_with_log(&sent).expect("d ≤ t"));

        let iblt = |ids: &[u64]| {
            let mut t = Iblt::with_capacity(d, 1);
            ids.iter().for_each(|&id| t.insert(id));
            t
        };
        let iblt_construct = construct_us(&received, || Iblt::with_capacity(d, 1), Iblt::insert);
        let (is, ir) = (iblt(&sent), iblt(&received));
        let idiff = is.difference(&ir);
        let decoded = idiff.clone().decode().expect("IBLT peeling at capacity");
        assert_eq!(decoded.missing.len(), d);
        let iblt_decode = time_us(|_| idiff.clone().decode().expect("as above"));

        let k = |name, sketch| format!("{name}|d={d}|sketch={sketch}");
        let t_b_c = Exact(4.0 * d as f64 + 2.0);
        c.row(
            k("wire_size", "power_sums"),
            "(t·b+c)/8",
            quack_bytes,
            "bytes",
            t_b_c,
        );
        c.info(k("construction_time", "power_sums"), quack_construct, "us");
        c.info(k("decode_time", "power_sums"), quack_decode, "us");
        let (bytes, larger) = (is.wire_bytes() as f64, Above(5.0 * quack_bytes));
        c.row(k("wire_size", "iblt"), "", bytes, "bytes", larger);
        c.info(k("construction_time", "iblt"), iblt_construct, "us");
        let faster = Below(quack_decode / 4.0);
        c.row(k("decode_time", "iblt"), "", iblt_decode, "us", faster);
    }
}

/// Two NewReno flows of 1200 packets through a 20 Mbit/s / 5 ms lossy
/// bottleneck; `assist` brackets it with the retransmission proxy pair,
/// which recovers every drop on it, congestive queue drops included.
/// Returns the two completion times.
fn shared_bottleneck(seed: u64, assist: bool, loss: f64) -> (f64, f64) {
    let ms = SimDuration::from_millis;
    let mut w = World::new(seed);
    let (f1, f2) = (FlowId(1), FlowId(2));
    let sender = |flow, id_seed| SenderConfig {
        flow,
        total_packets: Some(1_200),
        id_seed,
        peer_max_ack_delay: ms(100),
        ..SenderConfig::default()
    };
    let s1 = w.add_node(SenderNode::boxed(sender(f1, seed ^ 1)));
    let s2 = w.add_node(SenderNode::boxed(sender(f2, seed ^ 2)));
    let mut mux = FlowRouter::new();
    mux.add_duplex_route(f1, IfaceId(0), IfaceId(2));
    mux.add_duplex_route(f2, IfaceId(1), IfaceId(2));
    let mux = w.add_node(mux.boxed());
    let mut demux = FlowRouter::new();
    demux.add_duplex_route(f1, IfaceId(0), IfaceId(1));
    demux.add_duplex_route(f2, IfaceId(0), IfaceId(2));
    let demux = w.add_node(demux.boxed());
    let client = |flow| ReceiverConfig {
        flow,
        ack_every: 32,
        max_ack_delay: ms(50),
        immediate_on_gap: false,
        ..ReceiverConfig::default()
    };
    let r1 = w.add_node(ReceiverNode::boxed(client(f1)));
    let r2 = w.add_node(ReceiverNode::boxed(client(f2)));

    let edge = LinkConfig {
        rate_bps: 1_000_000_000,
        delay: ms(20),
        ..LinkConfig::default()
    };
    let bottleneck = LinkConfig {
        rate_bps: 20_000_000,
        delay: ms(5),
        loss: LossModel::Bernoulli { p: loss },
        queue_packets: 256,
        ..LinkConfig::default()
    };
    w.connect(s1, mux, edge.clone(), edge.clone());
    w.connect(s2, mux, edge.clone(), edge.clone());
    if assist {
        let cfg = SidecarConfig {
            frequency: QuackFrequency::Adaptive(ms(5)),
            reorder_grace: ms(3),
            ..SidecarConfig::paper_default()
        };
        let supervision = SupervisionConfig::default();
        let a = w.add_node(Box::new(SenderSideProxy::new(
            cfg,
            ms(12),
            4_096,
            supervision,
        )));
        let b = w.add_node(Box::new(ReceiverSideProxy::new(cfg)));
        w.connect(mux, a, edge.clone(), edge.clone());
        w.connect(a, b, bottleneck.clone(), bottleneck);
        w.connect(b, demux, edge.clone(), edge.clone());
    } else {
        w.connect(mux, demux, bottleneck.clone(), bottleneck);
    }
    w.connect(demux, r1, edge.clone(), edge.clone());
    w.connect(demux, r2, edge.clone(), edge);

    w.run_until(SimTime::ZERO + SimDuration::from_secs(180));
    let done = |n| {
        let stats = w.node_as::<SenderNode>(n).stats();
        stats
            .completed_at
            .map_or(f64::INFINITY, |t| t.as_secs_f64())
    };
    (done(s1), done(s2))
}

/// §5 sharing: the hazard of recovering queue drops, 3 seeds. At 3 % the
/// random loss dominates and the proxies help both flows; at 1 % the queue
/// binds, and recovering its drops hides congestion from NewReno.
fn fairness(c: &mut Claims) {
    c.section("§5 fairness", "exp_fairness");
    for loss in [0.01, 0.03] {
        // Flow 1's and flow 2's mean completion times and their ratio.
        let [plain, sidecar] = [false, true].map(|assist| {
            let fct = [4, 5, 6].map(|s| shared_bottleneck(s, assist, loss));
            let t1 = fct.iter().map(|f| f.0).sum::<f64>() / 3.0;
            let t2 = fct.iter().map(|f| f.1).sum::<f64>() / 3.0;
            [t1, t2, t1.max(t2) / t1.min(t2)]
        });
        let names = ["flow1_fct", "flow2_fct", "fairness_ratio"];
        for (variant, measured) in [("plain", plain), ("sidecar", sidecar)] {
            for (i, name) in names.iter().enumerate() {
                let (paper, check) = match (variant, loss, i) {
                    ("sidecar", 0.03, 0 | 1) => ("< plain (helps)", Below(plain[i])),
                    ("sidecar", 0.01, 2) => ("> plain (hazard)", Above(plain[i])),
                    _ => ("", Info),
                };
                let claim = format!("{name}|loss={loss}|variant={variant}");
                c.row(claim, paper, measured[i], ["s", "s", "x"][i], check);
            }
        }
    }
}

fn main() -> ExitCode {
    let mut c = Claims::default();
    exact_claims(&mut c);
    quack_times(&mut c);
    table3_monte_carlo(&mut c);
    fig5(&mut c);
    fig6(&mut c);
    ccd(&mut c);
    ackred(&mut c);
    retx(&mut c);
    frequency(&mut c);
    sketch_compare(&mut c);
    fairness(&mut c);

    // Sections print in label order (figures, tables, then §§), each in
    // the order its rows were measured.
    c.rows.sort_by_key(|r| r.section);
    let mut table = Table::new(&["section", "claim", "paper", "measured", "check"]);
    let mut report = BenchReport::new("paper");
    for (i, r) in c.rows.iter().enumerate() {
        let section = if i > 0 && c.rows[i - 1].section == r.section {
            ""
        } else {
            r.section
        };
        let verdict = match (r.check, r.check.holds(r.value)) {
            (_, false) => "FAIL ",
            (Info | Deviation(_), true) => "",
            _ => "ok ",
        };
        table.row(&[
            section.into(),
            r.claim.clone(),
            r.paper.into(),
            format!("{} {}", fmt_value(r.value), r.unit),
            format!("{verdict}{}", r.check.describe()),
        ]);
        if r.value.is_finite() {
            let mut parts = r.claim.split('|');
            let name = parts.next().expect("split yields one part");
            let params: Vec<_> = parts.filter_map(|p| p.split_once('=')).collect();
            report.push(name, &params, r.value, r.unit);
        }
    }
    table.print();
    report.write_default().expect("write BENCH_paper.json");
    sidecar_bench::write_metrics_out("paper");
    sidecar_bench::write_trace_out("paper");
    let failed = c.failed().count();
    if failed > 0 {
        println!("paper: {failed} of {} checks failed", c.rows.len());
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The wire sizes, Table 3's closed form and the §4.3 arithmetic are
    /// checked by the same rows the bin prints.
    #[test]
    fn exact_claims_hold() {
        let mut c = Claims::default();
        exact_claims(&mut c);
        let failed: Vec<_> = c.failed().map(|r| (&r.claim, r.value)).collect();
        assert!(failed.is_empty(), "failed claims: {failed:?}");
        let checked = c
            .rows
            .iter()
            .filter(|r| !matches!(r.check, Info | Deviation(_)))
            .count();
        assert_eq!(checked, 20);
    }

    #[test]
    fn checks_judge_their_bounds() {
        assert!(Exact(82.0).holds(82.0) && !Exact(82.0).holds(83.0));
        assert!(Above(1.0).holds(1.01) && !Above(1.0).holds(1.0));
        assert!(printed(0.98, 0.01).holds(0.97996) && !printed(0.98, 0.01).holds(0.974));
        let unfinished = f64::INFINITY;
        assert!(!Info.holds(unfinished) && !Above(1.0).holds(unfinished));
    }
}
