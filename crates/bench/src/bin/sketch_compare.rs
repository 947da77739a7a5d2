//! **Extension (§5)**: the power-sum quACK vs. an invertible Bloom lookup
//! table on the same set-difference job.
//!
//! Both constructions come from the straggler-identification work the
//! paper cites; this harness quantifies the trade-off the paper's §5
//! question ("what similar protocol-agnostic digests could we design?")
//! invites: the IBLT decodes in `O(d)` and lists *both* directions of the
//! difference, but costs ~an order of magnitude more bandwidth and fails
//! probabilistically; the power sums are byte-tight and deterministic up to
//! the threshold.
//!
//! Regenerate: `cargo run -p sidecar-bench --release --bin sketch_compare`

use sidecar_bench::baselines::iblt::Iblt;
use sidecar_bench::{fmt_duration, measure_mean, workload, BenchReport, Table};
use sidecar_quack::{Quack32, WireFormat};

const N: usize = 1000;

fn main() {
    println!("power-sum quACK vs IBLT, n = {N} packets, d missing, 100-trial means\n");
    let mut table = Table::new(&[
        "d",
        "quACK bytes",
        "IBLT bytes",
        "quACK construct",
        "IBLT construct",
        "quACK decode",
        "IBLT decode",
    ]);
    let mut report = BenchReport::new("sketch_compare");
    for d in [5usize, 10, 20, 40] {
        let (sent, received) = workload(N, d, 32, 0x1B17 + d as u64);

        // Power sums at threshold t = d.
        let fmt = WireFormat::paper_default(d);
        let ps_construct = measure_mean(|_| {
            let mut q = Quack32::new(d);
            for &id in &received {
                q.insert(id);
            }
            q
        });
        let mut sender = Quack32::new(d);
        for &id in &sent {
            sender.insert(id);
        }
        let mut receiver = Quack32::new(d);
        for &id in &received {
            receiver.insert(id);
        }
        let diff = sender.difference(&receiver);
        let ps_decode = measure_mean(|_| diff.decode_with_log(&sent).unwrap());

        // IBLT at capacity d.
        let iblt_construct = measure_mean(|_| {
            let mut t = Iblt::with_capacity(d, 1);
            for &id in &received {
                t.insert(id);
            }
            t
        });
        let mut is = Iblt::with_capacity(d, 1);
        for &id in &sent {
            is.insert(id);
        }
        let mut ir = Iblt::with_capacity(d, 1);
        for &id in &received {
            ir.insert(id);
        }
        let idiff = is.difference(&ir);
        // Sanity: it decodes to the right answer.
        let decoded = idiff.clone().decode().expect("IBLT peeling failed");
        assert_eq!(decoded.missing.len(), d);
        let iblt_decode = measure_mean(|_| idiff.clone().decode().unwrap());

        let ds = d.to_string();
        for (sketch, bytes, construct, decode) in [
            ("power_sums", fmt.encoded_bytes(), ps_construct, ps_decode),
            ("iblt", is.wire_bytes(), iblt_construct, iblt_decode),
        ] {
            let params = [("d", ds.as_str()), ("sketch", sketch)];
            report.push("wire_size", &params, bytes as f64, "bytes");
            report.push(
                "construction_time",
                &params,
                construct.as_nanos() as f64 / 1e3,
                "us",
            );
            report.push("decode_time", &params, decode.as_nanos() as f64 / 1e3, "us");
        }
        table.row(&[
            d.to_string(),
            fmt.encoded_bytes().to_string(),
            is.wire_bytes().to_string(),
            fmt_duration(ps_construct),
            fmt_duration(iblt_construct),
            fmt_duration(ps_decode),
            fmt_duration(iblt_decode),
        ]);
    }
    table.print();
    report
        .write_default()
        .expect("write BENCH_sketch_compare.json");
    sidecar_bench::write_metrics_out("sketch_compare");
    sidecar_bench::write_trace_out("sketch_compare");
    println!(
        "\nshape: the quACK is ~10x smaller on the wire; the IBLT decodes \
         ~40x faster and also reports receiver-side extras — but can stall \
         probabilistically and its cells dwarf the 82-byte quACK the \
         sidecar protocols were sized around."
    );
}
