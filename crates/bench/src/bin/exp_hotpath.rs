//! **Hot path**: quACK insert and decode throughput across field widths,
//! thresholds, and batch sizes.
//!
//! The paper's viability argument puts the quACK in the per-packet data
//! path ("the receiver updates the sums when receiving each packet", §3.2),
//! so inserts/sec and decodes/sec are the system's scaling ceiling. This
//! harness measures:
//!
//! * **inserts/sec** — scalar `insert` (batch = 1) versus `insert_batch`
//!   at several batch sizes, for every field width and threshold. The
//!   batched path converts identifiers once and advances the `t` running
//!   powers with a lane-parallel strength-reduced ladder.
//! * **decodes/sec** — `decode_with_log` against logs of 1000 and 5000
//!   identifiers with exactly `t = 20` missing.
//! * **speedup ratios** — batched over scalar, machine-independent; the
//!   CI perf gate enforces the headline `Fp64, t = 20, batch ≥ 32 ⇒ ≥ 2x`
//!   floor on these.
//! * **control datagrams/sec** — what every quACK pays around the math on
//!   its way to the wire and back: the paper-format wire codec (`t = 20`,
//!   `b = 32`, `c = 16`, 82 bytes) and the HMAC envelope over that quACK
//!   (seal, open, and the refusal of a tampered copy).
//! * **field multiplications and inversions/sec** per arithmetic backend —
//!   the EXPERIMENTS.md ablation (table-driven vs widening 16-bit; 64-bit
//!   multiplies by Montgomery reduction). Informational: these cells have
//!   no row in `bench/baseline.json`, so the gate never reads them.
//!
//! Results go to stdout (table) and `BENCH_quack.json`
//! (`sidecar-bench/v1` schema, compared against `bench/baseline.json` by
//! the `perf_gate` bin — see README).
//!
//! Regenerate: `cargo run -p sidecar-bench --release --bin exp_hotpath`

use sidecar_bench::{
    calibration_ops_per_sec, measure_best_of, measure_mean_with, ops_per_sec, BenchReport,
    IdentifierGenerator, Table,
};
use sidecar_galois::{Field, Fp16, Fp16Table, Fp24, Fp32, Fp64};
use sidecar_proto::{AuthConfig, ChannelAuth, SidecarMessage};
use sidecar_quack::{PowerSumQuack, WireFormat};
use std::time::Duration;

/// Identifiers folded per insert trial.
const N_IDS: usize = 4096;
/// Control datagrams encoded, decoded, sealed or opened per control trial.
const N_CTRL: usize = 1024;
/// Every cell reports the fastest of [`REPS`] independent means of
/// [`TRIALS`] runs. These metrics gate CI, so the estimator must shrug
/// off scheduler preemption — a single mean does not (observed >15%
/// run-to-run swings on busy single-core runners). The repetitions are
/// *interleaved* across the entire sweep (rep loop outside, cell loop
/// inside): one cell's reps are spread over several seconds, so a
/// contention burst can depress at most one of them, and the minimum
/// discards it.
const REPS: usize = 7;
const TRIALS: usize = 10;
const WARMUP: usize = 3;

const THRESHOLDS: &[usize] = &[10, 20, 40];
const BATCHES: &[usize] = &[1, 8, 32, 256];

/// One measured sweep cell: a reusable workload closure (owning its quACK
/// or decoder state) plus the best mean observed so far.
struct Cell {
    field: &'static str,
    t: usize,
    /// Insert cells: batch size. Decode cells: number of sent packets.
    /// Control cells: quACK bytes on the wire.
    n: usize,
    /// Empty for insert cells; `"serial"` for decode cells (the label the
    /// baseline rows carry); metric name for control cells.
    mode: &'static str,
    run: Box<dyn FnMut() -> Duration>,
    best: Option<Duration>,
}

impl Cell {
    fn rep(&mut self) {
        let d = (self.run)();
        if self.best.is_none_or(|b| d < b) {
            self.best = Some(d);
        }
    }

    fn ops(&self, per: usize) -> f64 {
        ops_per_sec(self.best.expect("REPS >= 1"), per)
    }
}

fn insert_cells<F: Field>(field: &'static str, cells: &mut Vec<Cell>) {
    let mut generator = IdentifierGenerator::new(F::BITS, 0x401_7A7 + F::BITS as u64);
    let ids = generator.take_ids(N_IDS);
    for &t in THRESHOLDS {
        for &batch in BATCHES {
            let ids = ids.clone();
            let mut quack = PowerSumQuack::<F>::new(t);
            cells.push(Cell {
                field,
                t,
                n: batch,
                mode: "",
                run: Box::new(move || {
                    measure_mean_with(TRIALS, WARMUP, &mut |_| {
                        if batch == 1 {
                            for &id in &ids {
                                quack.insert(id);
                            }
                        } else {
                            for chunk in ids.chunks(batch) {
                                quack.insert_batch(chunk);
                            }
                        }
                        quack.count()
                    })
                }),
                best: None,
            });
        }
    }
}

fn decode_cells<F: Field>(field: &'static str, cells: &mut Vec<Cell>) {
    const T: usize = 20;
    for &n in &[1000usize, 5000] {
        let mut generator = IdentifierGenerator::new(F::BITS, 0xDEC0DE + n as u64);
        let sent = generator.take_ids(n);
        let mut sender = PowerSumQuack::<F>::new(T);
        let mut receiver = PowerSumQuack::<F>::new(T);
        sender.insert_batch(&sent);
        for (i, &id) in sent.iter().enumerate() {
            if i % (n / T) != 0 {
                receiver.insert(id);
            }
        }
        let diff = sender.difference(&receiver);
        assert_eq!(diff.count() as usize, T, "workload must miss exactly t");
        cells.push(Cell {
            field,
            t: T,
            n,
            mode: "serial",
            run: Box::new(move || {
                measure_mean_with(TRIALS, WARMUP, &mut |_| {
                    diff.decode_with_log(&sent).unwrap().missing().len()
                })
            }),
            best: None,
        });
    }
}

/// The control-datagram path around the paper's quACK (`t = 20`, `b = 32`,
/// `c = 16`): wire codec, then the authenticated envelope over its 82
/// bytes. Each trial handles [`N_CTRL`] datagrams.
fn control_cells(cells: &mut Vec<Cell>) {
    const T: usize = 20;
    let mut quack = PowerSumQuack::<Fp32>::new(T);
    quack.insert_batch(&IdentifierGenerator::new(32, 0xC0DEC).take_ids(980));
    let format = WireFormat::paper_default(T);
    let image = format.encode(&quack);
    let wire_bytes = image.len();
    let msg = SidecarMessage::Quack {
        epoch: 1,
        bytes: image.clone(),
    };
    let auth = AuthConfig::from_secret(0x5EC2E7, 1);

    // An opener with the sealer's session established, the next N_CTRL
    // datagrams of that session, and a tampered copy of the first. Every
    // open trial starts from a clone of the opener, so each of its
    // datagrams carries a sequence number the replay window has not seen.
    let mut sealer = ChannelAuth::new(auth.with_nonce(1));
    let mut opener = ChannelAuth::new(auth.with_nonce(2));
    let (tag, hello) = sealer.seal(&msg, 7);
    opener.open(tag, &hello).expect("own seal opens");
    let sealed: Vec<Vec<u8>> = (0..N_CTRL).map(|_| sealer.seal(&msg, 7).1).collect();
    let mut tampered = sealed[0].clone();
    *tampered.last_mut().expect("sealed body") ^= 1;

    type Trial = Box<dyn FnMut() -> usize>;
    let trials: [(&'static str, Trial); 5] = [
        (
            "wire_encodes_per_sec",
            Box::new(move || (0..N_CTRL).map(|_| format.encode(&quack).len()).sum()),
        ),
        (
            "wire_decodes_per_sec",
            Box::new(move || {
                (0..N_CTRL)
                    .filter(|_| format.decode::<Fp32>(&image, None).is_ok())
                    .count()
            }),
        ),
        (
            "auth_seals_per_sec",
            Box::new(move || (0..N_CTRL).map(|_| sealer.seal(&msg, 7).1.len()).sum()),
        ),
        ("auth_opens_per_sec", {
            let opener = opener.clone();
            Box::new(move || {
                let mut rx = opener.clone();
                let opened = sealed.iter().filter(|b| rx.open(tag, b).is_ok()).count();
                assert_eq!(opened, N_CTRL, "fresh sequence numbers must open");
                opened
            })
        }),
        (
            "auth_rejects_per_sec",
            Box::new(move || {
                (0..N_CTRL)
                    .filter(|_| opener.open(tag, &tampered).is_err())
                    .count()
            }),
        ),
    ];
    for (mode, mut run) in trials {
        cells.push(Cell {
            field: "Fp32",
            t: T,
            n: wire_bytes,
            mode,
            run: Box::new(move || measure_mean_with(TRIALS, WARMUP, &mut |_| run())),
            best: None,
        });
    }
}

/// Raw field arithmetic for one backend: a chain of 1024 dependent
/// multiplications over pseudo-random operands (the same 64-bit draws for
/// every backend) and 64 Fermat inversions.
fn field_ops<F: Field>(backend: &'static str, table: &mut Table, report: &mut BenchReport) {
    let draws = IdentifierGenerator::new(64, 0xF1E1D).take_ids(1024);
    let operands: Vec<F> = draws.into_iter().map(F::from_u64).collect();
    let mul = measure_best_of(REPS, TRIALS, WARMUP, &mut |_| {
        operands
            .iter()
            .fold(F::ONE, |acc, &x| acc * std::hint::black_box(x))
    });
    let invertible: Vec<F> = (1..=64u64).map(|v| F::from_u64(v * 7919)).collect();
    let inv = measure_best_of(REPS, TRIALS, WARMUP, &mut |_| {
        invertible
            .iter()
            .fold(F::ONE, |acc, &x| acc + std::hint::black_box(x).inv())
    });
    let mul_ops = ops_per_sec(mul, operands.len());
    let inv_ops = ops_per_sec(inv, invertible.len());
    table.row(&[
        backend.to_string(),
        format!("{mul_ops:.2e}"),
        format!("{:.2}", 1e9 / mul_ops),
        format!("{inv_ops:.2e}"),
        format!("{:.0}", 1e9 / inv_ops),
    ]);
    let params = &[("backend", backend)];
    report.push("field_mul_ops_per_sec", params, mul_ops, "ops/s");
    report.push("field_inv_ops_per_sec", params, inv_ops, "ops/s");
}

fn main() {
    println!("Hot-path throughput: inserts/sec, decodes/sec, control datagrams/sec\n");

    // Build every cell first, then interleave the repetitions across all
    // of them — see the comment on `REPS`.
    let mut cells = Vec::new();
    insert_cells::<Fp16>("Fp16", &mut cells);
    insert_cells::<Fp24>("Fp24", &mut cells);
    insert_cells::<Fp32>("Fp32", &mut cells);
    insert_cells::<Fp64>("Fp64", &mut cells);
    let insert_count = cells.len();
    decode_cells::<Fp32>("Fp32", &mut cells);
    decode_cells::<Fp64>("Fp64", &mut cells);
    let decode_end = cells.len();
    control_cells(&mut cells);
    for _rep in 0..REPS {
        for cell in cells.iter_mut() {
            cell.rep();
        }
    }
    let (inserts, rest) = cells.split_at(insert_count);
    let (decodes, controls) = rest.split_at(decode_end - insert_count);

    let mut report = BenchReport::new("quack");
    report.push("calibration", &[], calibration_ops_per_sec(), "ops/s");

    let mut insert_table = Table::new(&["field", "t", "batch", "inserts/sec", "vs scalar"]);
    for cell in inserts {
        let scalar = inserts
            .iter()
            .find(|c| c.field == cell.field && c.t == cell.t && c.n == 1)
            .expect("batch=1 cell exists");
        let ops = cell.ops(N_IDS);
        let speedup = ops / scalar.ops(N_IDS);
        insert_table.row(&[
            cell.field.to_string(),
            cell.t.to_string(),
            cell.n.to_string(),
            format!("{ops:.2e}"),
            format!("{speedup:.2}x"),
        ]);
        let t = cell.t.to_string();
        let batch = cell.n.to_string();
        report.push(
            "inserts_per_sec",
            &[("field", cell.field), ("t", &t), ("batch", &batch)],
            ops,
            "ops/s",
        );
        if cell.n > 1 {
            report.push(
                "insert_speedup",
                &[("field", cell.field), ("t", &t), ("batch", &batch)],
                speedup,
                "x",
            );
        }
    }
    insert_table.print();

    println!();
    let mut decode_table = Table::new(&["field", "t", "n", "decodes/sec"]);
    for cell in decodes {
        let ops = cell.ops(1);
        let t = cell.t.to_string();
        let n = cell.n.to_string();
        decode_table.row(&[
            cell.field.to_string(),
            t.clone(),
            n.clone(),
            format!("{ops:.2e}"),
        ]);
        report.push(
            "decodes_per_sec",
            &[
                ("field", cell.field),
                ("t", &t),
                ("n", &n),
                ("mode", cell.mode),
            ],
            ops,
            "ops/s",
        );
    }
    decode_table.print();

    println!();
    let mut control_table = Table::new(&["control datagram op", "bytes", "ops/sec", "ns/op"]);
    for cell in controls {
        let ops = cell.ops(N_CTRL);
        let bytes = cell.n.to_string();
        control_table.row(&[
            cell.mode.to_string(),
            bytes.clone(),
            format!("{ops:.2e}"),
            format!("{:.0}", 1e9 / ops),
        ]);
        let params: &[(&str, &str)] = if cell.mode.starts_with("wire_") {
            &[("t", "20"), ("b", "32"), ("c", "16")]
        } else {
            &[("bytes", &bytes)]
        };
        report.push(cell.mode, params, ops, "ops/s");
    }
    control_table.print();

    println!();
    let mut field_table = Table::new(&["backend", "mul/sec", "ns/mul", "inv/sec", "ns/inv"]);
    field_ops::<Fp16>("Fp16", &mut field_table, &mut report);
    field_ops::<Fp16Table>("Fp16Table", &mut field_table, &mut report);
    field_ops::<Fp24>("Fp24", &mut field_table, &mut report);
    field_ops::<Fp32>("Fp32", &mut field_table, &mut report);
    field_ops::<Fp64>("Fp64", &mut field_table, &mut report);
    field_table.print();

    // The acceptance headline: batched 64-bit inserts at t = 20.
    let headline = report
        .get("insert_speedup|batch=32|field=Fp64|t=20")
        .expect("headline metric present")
        .value;
    println!(
        "\nheadline: Fp64 t=20 batch=32 insert speedup {headline:.2}x over scalar \
         (acceptance floor: 2.00x)"
    );

    report.write_default().expect("write BENCH_quack.json");
}
