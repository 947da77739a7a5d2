//! **Table 2**: strawman quACKs vs. the power-sum quACK.
//!
//! Paper values (2019 MacBook Pro, n = 1000, t = 20, b = 32, c = 16,
//! average of 100 trials with warmup):
//!
//! | scheme     | construction | decoding    | size (bits)      |
//! |------------|--------------|-------------|------------------|
//! | Strawman 1 | 222 us       | 126 us      | b·n   = 32000    |
//! | Strawman 2 | 387 ns       | ≈7e+06 days | 256+c = 272      |
//! | Power sums | 106 us       | 61 us       | t·b+c = 656      |
//!
//! Absolute times differ on other hardware; the *shape* must hold:
//! Strawman 1 pays ~50× the bandwidth, Strawman 2's decode is astronomically
//! infeasible, the power-sum quACK is competitive on every axis.
//!
//! Regenerate: `cargo run -p sidecar-bench --release --bin table2`

use sidecar_bench::baselines::strawman::{
    estimated_decode_days, hash_sorted, EchoQuack, HashQuack,
};
use sidecar_bench::{fmt_days, fmt_duration, measure_mean, workload, BenchReport, Table};
use sidecar_quack::{PowerSumQuack, Quack32, WireFormat};
use std::time::Instant;

const N: usize = 1000;
const T: usize = 20;
const B: u32 = 32;
const C: u32 = 16;

fn main() {
    let (sent, received) = workload(N, T, B, 0xB00);
    println!(
        "Table 2 reproduction: n = {N}, t = {T}, b = {B}, c = {C} \
         ({} received, {} missing), 100 trials with warmup\n",
        received.len(),
        N - received.len()
    );

    // --- Strawman 1: echo every identifier -------------------------------
    let s1_construct = measure_mean(|_| {
        let mut q = EchoQuack::new(B);
        for &id in &received {
            q.insert(id);
        }
        q
    });
    let mut echo = EchoQuack::new(B);
    for &id in &received {
        echo.insert(id);
    }
    let s1_decode = measure_mean(|_| echo.decode_missing(&sent));
    let s1_bits = echo.wire_bits();

    // --- Strawman 2: hash of sorted concatenation ------------------------
    let s2_construct = measure_mean(|_| {
        let mut q = HashQuack::new();
        for &id in &received {
            q.insert(id);
        }
        q.digest()
    });
    // Per-candidate cost of the brute-force search: one merge + one hash of
    // the candidate subset.
    let per_hash = measure_mean(|_| hash_sorted(&received));
    let s2_days = estimated_decode_days(N as u64, T as u64, per_hash.as_nanos() as f64);
    let s2_bits = HashQuack::wire_bits(C);

    // --- Power sums -------------------------------------------------------
    let ps_construct = measure_mean(|_| {
        let mut q = Quack32::new(T);
        for &id in &received {
            q.insert(id);
        }
        q
    });
    let fmt = WireFormat {
        id_bits: B,
        threshold: T,
        count_bits: C,
    };
    let mut sender = Quack32::new(T);
    for &id in &sent {
        sender.insert(id);
    }
    let mut receiver = Quack32::new(T);
    for &id in &received {
        receiver.insert(id);
    }
    let wire = fmt.encode(&receiver);
    let ps_bits = fmt.encoded_bits();
    let ps_decode = measure_mean(|_| {
        let rx: PowerSumQuack<sidecar_galois::Fp32> = fmt.decode(&wire, None).unwrap();
        sender.decode_against(&rx, &sent).unwrap()
    });

    // Sanity: the decode really finds the missing 20.
    let rx: Quack32 = fmt.decode(&wire, None).unwrap();
    let decoded = sender.decode_against(&rx, &sent).unwrap();
    assert_eq!(decoded.num_missing(), T);
    assert!(decoded.missing().len() + decoded.indeterminate().len() >= T);

    let mut report = BenchReport::new("table2");
    for (scheme, construct, bits) in [
        ("strawman1", s1_construct, s1_bits as f64),
        ("strawman2", s2_construct, s2_bits as f64),
        ("power_sums", ps_construct, ps_bits as f64),
    ] {
        let params = [("scheme", scheme)];
        report.push(
            "construction_time",
            &params,
            construct.as_nanos() as f64 / 1e3,
            "us",
        );
        report.push("wire_size", &params, bits, "bits");
    }
    report.push(
        "decode_time",
        &[("scheme", "strawman1")],
        s1_decode.as_nanos() as f64 / 1e3,
        "us",
    );
    report.push(
        "decode_time_days",
        &[("scheme", "strawman2")],
        s2_days,
        "days",
    );
    report.push(
        "decode_time",
        &[("scheme", "power_sums")],
        ps_decode.as_nanos() as f64 / 1e3,
        "us",
    );
    report.write_default().expect("write BENCH_table2.json");
    sidecar_bench::write_metrics_out("table2");
    sidecar_bench::write_trace_out("table2");

    let mut table = Table::new(&[
        "scheme",
        "construction",
        "decoding",
        "size (bits)",
        "paper constr.",
        "paper decode",
        "paper size",
    ]);
    table.row(&[
        "Strawman 1".into(),
        fmt_duration(s1_construct),
        fmt_duration(s1_decode),
        format!("b·n = {s1_bits}"),
        "222 us".into(),
        "126 us".into(),
        "32000".into(),
    ]);
    table.row(&[
        "Strawman 2".into(),
        fmt_duration(s2_construct),
        fmt_days(s2_days),
        format!("256+c = {s2_bits}"),
        "387 ns".into(),
        "≈7e+06 days".into(),
        "272".into(),
    ]);
    table.row(&[
        "Power Sums".into(),
        fmt_duration(ps_construct),
        fmt_duration(ps_decode),
        format!("t·b+c = {ps_bits}"),
        "106 us".into(),
        "61 us".into(),
        "656".into(),
    ]);
    table.print();

    println!(
        "\nper-candidate hash for the Strawman-2 search: {}",
        fmt_duration(per_hash)
    );
    println!(
        "power-sum quACK wire size: {} bytes (paper: 82 bytes)",
        fmt.encoded_bytes()
    );

    // Demonstrate that Strawman 2 decode is *possible* but explodes: a tiny
    // instance succeeds, the real instance's budgeted search gives up.
    let (small_sent, small_received) = workload(16, 2, B, 0xB01);
    let mut small = HashQuack::new();
    for &id in &small_received {
        small.insert(id);
    }
    let digest = small.digest();
    let start = Instant::now();
    let found = small
        .decode_missing(&small_sent, &digest, 1_000_000)
        .unwrap();
    println!(
        "\nStrawman-2 search at n=16, m=2: found {:?} in {}",
        found,
        fmt_duration(start.elapsed())
    );
    let mut real = HashQuack::new();
    for &id in &received {
        real.insert(id);
    }
    let digest = real.digest();
    let start = Instant::now();
    let budget = 200_000;
    assert!(real.decode_missing(&sent, &digest, budget).is_none());
    let burned = start.elapsed();
    let rate = budget as f64 / burned.as_secs_f64();
    println!(
        "Strawman-2 search at n={N}, m={T}: gave up after {budget} candidates in {} \
         ({rate:.0} candidates/s → {} total)",
        fmt_duration(burned),
        fmt_days(estimated_decode_days(N as u64, T as u64, 1e9 / rate))
    );
}
