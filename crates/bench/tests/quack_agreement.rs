//! Every quACK construction (all field widths, both 16- and 64-bit
//! arithmetic backends, Strawman 1) agrees on the same workloads.

use sidecar_bench::baselines::strawman::EchoQuack;
use sidecar_bench::IdentifierGenerator;
use sidecar_galois::{Field, Fp16, Fp16Table, Fp24, Fp32, Fp64};
use sidecar_quack::PowerSumQuack;
use std::collections::HashSet;

/// Builds a workload of distinct identifiers valid for all widths.
fn workload(seed: u64, n: usize, missing_every: usize) -> (Vec<u64>, Vec<u64>, Vec<u64>) {
    // Use 16-bit identifiers (the narrowest width) so every field accepts
    // them, and force distinctness to keep ground truth unambiguous.
    let mut generator = IdentifierGenerator::new(16, seed);
    let mut seen = HashSet::new();
    let mut sent = Vec::with_capacity(n);
    while sent.len() < n {
        let id = generator.next_id();
        if id < 65_521 && seen.insert(id) {
            sent.push(id);
        }
    }
    let mut received = Vec::new();
    let mut dropped = Vec::new();
    for (i, &id) in sent.iter().enumerate() {
        if i % missing_every == missing_every - 1 {
            dropped.push(id);
        } else {
            received.push(id);
        }
    }
    (sent, received, dropped)
}

fn power_sum_missing<F: Field>(sent: &[u64], received: &[u64], t: usize) -> Vec<u64> {
    let mut s = PowerSumQuack::<F>::new(t);
    let mut r = PowerSumQuack::<F>::new(t);
    for &id in sent {
        s.insert(id);
    }
    for &id in received {
        r.insert(id);
    }
    let decoded = s.decode_against(&r, sent).expect("within threshold");
    assert!(decoded.is_fully_determined(), "distinct ids: no ambiguity");
    decoded.missing_values(sent)
}

#[test]
fn all_field_widths_agree_with_each_other_and_with_strawman1() {
    for seed in [3u64, 17, 99] {
        let (sent, received, dropped) = workload(seed, 400, 25);
        let expected = dropped;

        assert_eq!(power_sum_missing::<Fp16>(&sent, &received, 20), expected);
        assert_eq!(
            power_sum_missing::<Fp16Table>(&sent, &received, 20),
            expected
        );
        assert_eq!(power_sum_missing::<Fp24>(&sent, &received, 20), expected);
        assert_eq!(power_sum_missing::<Fp32>(&sent, &received, 20), expected);
        assert_eq!(power_sum_missing::<Fp64>(&sent, &received, 20), expected);

        let mut echo = EchoQuack::new(16);
        for &id in &received {
            echo.insert(id);
        }
        assert_eq!(echo.decode_missing(&sent), expected);
    }
}
