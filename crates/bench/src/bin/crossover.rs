//! **Ablation (§4.3)**: candidate-plugging vs. polynomial-factoring decode.
//!
//! The paper: "for a small n, such as here, it is more efficient to plug in
//! all candidate roots than to solve the roots directly" (§4.2) and "for
//! large n, we can use the decoding algorithm that depends only on t"
//! (§4.3). This harness sweeps the log size `n` at fixed `t = m = 20` and
//! locates the crossover between the `O(n·m)` plugging decoder and the
//! `O(m² log p)` factoring decoder.
//!
//! Regenerate: `cargo run -p sidecar-bench --release --bin crossover`

use sidecar_bench::{fmt_duration, measure_mean_with, workload, BenchReport, Table};
use sidecar_quack::Quack32;

const T: usize = 20;

fn main() {
    println!(
        "§4.2/§4.3 ablation: decode by candidate plugging (O(n·m)) vs \
         polynomial factoring (O(m² log p)), t = m = {T}, b = 32\n"
    );
    let mut table = Table::new(&[
        "n (log size)",
        "plugging",
        "factoring (log-indexed)",
        "factoring (ids only)",
        "winner",
    ]);
    let mut report = BenchReport::new("crossover");
    let mut crossover: Option<usize> = None;
    for n in [
        500usize, 1_000, 2_000, 5_000, 10_000, 20_000, 50_000, 100_000,
    ] {
        let (sent, received) = workload(n, T, 32, 0xC805);
        let mut sender = Quack32::new(T);
        for &id in &sent {
            sender.insert(id);
        }
        let mut receiver = Quack32::new(T);
        for &id in &received {
            receiver.insert(id);
        }
        let diff = sender.difference(&receiver);
        // Verify both agree before timing.
        assert_eq!(
            diff.decode_with_log(&sent).unwrap(),
            diff.decode_with_log_by_factoring(&sent).unwrap()
        );
        let trials = if n >= 50_000 { 20 } else { 60 };
        let plug = measure_mean_with(trials, 5, &mut |_| diff.decode_with_log(&sent).unwrap());
        let fact = measure_mean_with(trials, 5, &mut |_| {
            diff.decode_with_log_by_factoring(&sent).unwrap()
        });
        // The pure §4.3 form: no log at all — O(t² log p) flat in n.
        let ids_only = measure_mean_with(trials, 5, &mut |_| {
            diff.decode_missing_identifiers().unwrap()
        });
        let winner = if plug <= fact.min(ids_only) {
            "plugging"
        } else {
            "factoring"
        };
        if plug > ids_only && crossover.is_none() {
            crossover = Some(n);
        }
        let ns = n.to_string();
        for (mode, d) in [
            ("plugging", plug),
            ("factoring_log", fact),
            ("factoring_ids", ids_only),
        ] {
            report.push(
                "decode_time",
                &[("n", &ns), ("mode", mode)],
                d.as_nanos() as f64 / 1e3,
                "us",
            );
        }
        table.row(&[
            n.to_string(),
            fmt_duration(plug),
            fmt_duration(fact),
            fmt_duration(ids_only),
            winner.into(),
        ]);
    }
    table.print();
    if let Some(n) = crossover {
        report.push("crossover_n", &[], n as f64, "packets");
    }
    report.write_default().expect("write BENCH_crossover.json");
    match crossover {
        Some(n) => println!(
            "\ncrossover at n ≈ {n}: below it plug candidates (the paper's \
             §4.2 choice at n = 1000), above it factor the locator (§4.3)."
        ),
        None => println!(
            "\nno crossover in range — plugging won throughout on this \
             machine; factoring's advantage appears at larger n."
        ),
    }
}
