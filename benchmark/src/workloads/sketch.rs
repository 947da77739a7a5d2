//! `sketch`: the paper's Table 2 on one thread. Each round a receiver
//! `Quack32` (t = 20) folds 980 of 1000 seeded identifiers one insert at a
//! time, the quACK crosses `WireFormat::paper_default(20)`, a sender sketch
//! `insert_batch`es all 1000, and `difference` + `decode_with_log` recover
//! the 20 missing log positions. `galois` and `core` do all the work here
//! and under 1 % of it in `live_relay`, so a field-arithmetic or decoder
//! change has one workload that shows it and four where the prediction is
//! no change.

use super::{finish_trace, histogram_detail, Outcome, RunArgs, SETUP_REPEATS};
use crate::gen::{derive_seed, sketch_round, Rng, SketchRound};
use crate::json::Json;
use crate::procfs;
use crate::span::{totals_by_name, Tracer};
use crate::stats::{median, quartiles, Histogram, SliceRates};
use sidecar_galois::poly::eval_monic;
use sidecar_galois::{Field, Fp32, NewtonWorkspace};
use sidecar_quack::wire::WireFormat;
use sidecar_quack::Quack32;
use std::hint::black_box;
use std::time::{Duration, Instant};

const THRESHOLD: usize = 20;
const LOG_LEN: usize = 1_000;
/// Distinct input sets a run cycles through, so no round is served from a
/// branch predictor trained on one set.
const ROUND_POOL: usize = 64;
/// Rounds decoded before timing starts. Fixed work, so it shows in `setup_s`.
const WARMUP_ROUNDS: usize = 1_500;
/// Spans kept by the traced run: ~13 000 rounds, a 12 MB span file.
const SPAN_CAPACITY: usize = 1 << 17;

fn round_pool(seed: u64) -> Vec<SketchRound> {
    let mut rng = Rng::new(derive_seed(seed, 0x5CE7));
    (0..ROUND_POOL)
        .map(|_| sketch_round(&mut rng, LOG_LEN, THRESHOLD))
        .collect()
}

/// One full round. Returns the decode time (difference + decode) and
/// whether the decoded positions were exactly the dropped ones.
fn round(input: &SketchRound, format: &WireFormat) -> (Duration, bool) {
    let mut receiver = Quack32::new(THRESHOLD);
    for &id in &input.received {
        receiver.insert(id);
    }
    let wire = format.encode(&receiver);
    let received: Quack32 = format.decode(&wire, None).expect("own encoding decodes");
    let mut sender = Quack32::new(THRESHOLD);
    sender.insert_batch(&input.ids);
    let t0 = Instant::now();
    let decoded = sender.difference(&received).decode_with_log(&input.ids);
    let took = t0.elapsed();
    (
        took,
        decoded.is_ok_and(|d| d.missing() == input.dropped.as_slice()),
    )
}

/// The same round with every stage under a span. Inside `core.decode`,
/// after the real call, the harness replays the decoder's two galois stages
/// (Newton's identities, then the locator evaluated over the whole log)
/// through the public galois functions as child spans: the parent's self
/// time is then the real decode, and the children say how much of it field
/// arithmetic alone accounts for.
fn traced_round(t: &mut Tracer, req: u64, input: &SketchRound, format: &WireFormat) -> bool {
    let span = t.enter("sketch.round", req);
    let mut receiver = Quack32::new(THRESHOLD);
    t.span("core.insert", req, |_| {
        for &id in &input.received {
            receiver.insert(id);
        }
    });
    let wire = t.span("core.wire_encode", req, |_| format.encode(&receiver));
    let received: Quack32 = t.span("core.wire_decode", req, |_| {
        format.decode(&wire, None).expect("own encoding decodes")
    });
    let mut sender = Quack32::new(THRESHOLD);
    t.span("core.insert_batch", req, |_| {
        sender.insert_batch(&input.ids)
    });
    let diff = t.span("core.difference", req, |_| sender.difference(&received));
    let sums: Vec<Fp32> = diff.power_sums().map(Fp32::from_u64).collect();
    let mut coeffs = Vec::with_capacity(THRESHOLD + 1);
    let ok = t.span("core.decode", req, |t| {
        let decoded = diff.decode_with_log(&input.ids);
        t.span("galois.newton", req, |_| {
            NewtonWorkspace::<Fp32>::new(THRESHOLD).coefficients_into(&sums, &mut coeffs)
        });
        t.span("galois.roots", req, |_| {
            for &id in &input.ids {
                black_box(eval_monic(&coeffs, Fp32::from_u64(id)));
            }
        });
        decoded.is_ok_and(|d| d.missing() == input.dropped.as_slice())
    });
    t.exit(span);
    ok
}

pub fn run(args: &RunArgs) -> Outcome {
    let format = WireFormat::paper_default(THRESHOLD);
    let mut out = Outcome::default();

    // Set-up: build the input pool and warm the decoder, several times.
    let mut pool = Vec::new();
    let setups: Vec<f64> = (0..SETUP_REPEATS)
        .map(|_| {
            let t0 = Instant::now();
            pool = round_pool(args.seed);
            for i in 0..WARMUP_ROUNDS {
                black_box(round(&pool[i % ROUND_POOL], &format));
            }
            t0.elapsed().as_secs_f64()
        })
        .collect();

    // The traced run times a short untraced stretch first, to price the spans.
    let timed = Duration::from_secs_f64(if args.traced {
        args.seconds * 0.1
    } else {
        args.seconds
    });
    let mut decode = Histogram::new();
    let mut slices = SliceRates::new(timed.as_nanos() as u64);
    let mut rounds = 0u64;
    let mut wrong = 0u64;
    let cpu0 = procfs::thread_cpu_ns();
    let t0 = Instant::now();
    loop {
        let (took, ok) = round(&pool[rounds as usize % ROUND_POOL], &format);
        let elapsed = t0.elapsed();
        if elapsed >= timed {
            break; // a round that straddles the end is not counted
        }
        rounds += 1;
        wrong += !ok as u64;
        decode.record(took.as_nanos() as u64);
        slices.record(elapsed.as_nanos() as u64);
    }
    let wall_s = timed.as_secs_f64();
    let cpu_ns = procfs::thread_cpu_ns() - cpu0;
    out.attempted = rounds;
    out.failed = wrong;
    out.check(rounds > 0, || "no round finished".into());
    out.check(wrong == 0, || {
        format!("{wrong} rounds decoded the wrong set")
    });

    let ids = (rounds as usize * LOG_LEN) as f64;
    let slice_rates: Vec<f64> = slices.rates().iter().map(|r| r * LOG_LEN as f64).collect();
    let ids_per_s = if slice_rates.is_empty() {
        ids / wall_s
    } else {
        median(&slice_rates)
    };
    out.detail("rounds", Json::Num(rounds as f64));
    out.detail("decode", histogram_detail(&decode));

    if !args.traced {
        out.metric("setup_s", median(&setups));
        out.metric("pkts_per_s", ids_per_s);
        out.metric("cpu_ns_per_pkt", cpu_ns as f64 / ids.max(1.0));
        out.metric("latency_p50_us", decode.percentile(50.0) / 1e3);
        out.metric("latency_p99_us", decode.percentile(99.0) / 1e3);
        out.metric("peak_rss_mb", procfs::peak_rss_mb());
        out.detail("setup_s_samples", Json::nums(&setups));
        out.detail(
            "pkts_per_s_slice_quartiles",
            Json::nums(&quartiles(&slice_rates)),
        );
        return out;
    }

    // Traced phase: the same rounds under spans, for as long again.
    let untraced_round_ns = wall_s * 1e9 / rounds.max(1) as f64;
    let traced_for = Duration::from_secs_f64(args.seconds * 0.4);
    let mut tracer = Tracer::with_capacity(SPAN_CAPACITY);
    let t0 = Instant::now();
    let mut req = 0u64;
    while t0.elapsed() < traced_for && tracer.spans().len() + 16 < SPAN_CAPACITY {
        let ok = traced_round(&mut tracer, req, &pool[req as usize % ROUND_POOL], &format);
        out.attempted += 1;
        out.failed += !ok as u64;
        req += 1;
    }
    let failed = out.failed;
    out.check(failed == 0, || {
        format!("{failed} rounds decoded the wrong set")
    });

    let totals = totals_by_name(tracer.spans());
    let total = |name: &str| totals.get(name).map_or(0, |t| t.total_ns) as f64;
    let round_total = total("sketch.round");
    let stage_names = [
        "core.insert",
        "core.wire_encode",
        "core.wire_decode",
        "core.insert_batch",
        "core.difference",
        "core.decode",
    ];
    let children: f64 = stage_names.iter().map(|n| total(n)).sum();
    // The galois replay is extra work the untraced round does not do; take
    // it out before comparing the two.
    let replay = total("galois.newton") + total("galois.roots");
    let traced_round_ns = (round_total - replay) / req.max(1) as f64;
    out.metric("trace.children_share", children / round_total.max(1.0));
    out.check(
        (children / round_total.max(1.0) - 1.0).abs() <= 0.10,
        || {
            format!(
                "stage spans cover {:.3} of the round span",
                children / round_total
            )
        },
    );
    out.metric(
        "trace.overhead_share",
        traced_round_ns / untraced_round_ns - 1.0,
    );
    out.metric("traced.pkts_per_s", ids_per_s);
    out.metric("traced.cpu_ns_per_pkt", cpu_ns as f64 / ids.max(1.0));
    out.metric("traced.latency_p50_us", decode.percentile(50.0) / 1e3);
    out.metric("traced.latency_p99_us", decode.percentile(99.0) / 1e3);
    finish_trace(&mut out, args, &tracer);
    out
}
