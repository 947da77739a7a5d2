//! Differential oracle for the quACK wire codec.
//!
//! The reference model below is the codec as it stood before the
//! word-at-a-time rewrite: a writer that fills one output byte per loop
//! turn and a reader that moves one *bit* per loop turn. It is slow and
//! obviously right, which is what an oracle is for. The properties drive
//! the public [`WireFormat::encode`] / [`WireFormat::decode`] and the
//! reference over every supported identifier width, thresholds 0..=64 and
//! byte-aligned as well as ragged count widths, and require identical wire
//! bytes, identical decoded sums and counts, and identical typed errors on
//! corrupted input.

use proptest::prelude::*;
use sidecar_galois::{Field, Fp16, Fp24, Fp32, Fp64};
use sidecar_quack::{PowerSumQuack, WireError, WireFormat};

/// Reference MSB-first bit packer: at most one output byte per loop turn.
struct RefBitWriter {
    bytes: Vec<u8>,
    /// Bits already used in the final byte (0..8).
    used: u32,
}

impl RefBitWriter {
    fn new() -> Self {
        RefBitWriter {
            bytes: Vec::new(),
            used: 0,
        }
    }

    fn write(&mut self, value: u64, bits: u32) {
        assert!(bits <= 64);
        assert!(bits == 64 || value < (1u64 << bits));
        let mut remaining = bits;
        while remaining > 0 {
            if self.used == 0 {
                self.bytes.push(0);
            }
            let free = 8 - self.used;
            let take = free.min(remaining);
            let shifted = (value >> (remaining - take)) & ((1u64 << take) - 1);
            let last = self.bytes.last_mut().expect("pushed above");
            *last |= (shifted as u8) << (free - take);
            self.used = (self.used + take) % 8;
            remaining -= take;
        }
    }
}

/// Reference MSB-first bit unpacker: one bit per loop turn.
struct RefBitReader<'a> {
    bytes: &'a [u8],
    bit_pos: usize,
}

impl RefBitReader<'_> {
    fn read(&mut self, bits: u32) -> u64 {
        let mut value = 0u64;
        for _ in 0..bits {
            let byte = self.bytes[self.bit_pos / 8];
            let bit = (byte >> (7 - (self.bit_pos % 8))) & 1;
            value = (value << 1) | bit as u64;
            self.bit_pos += 1;
        }
        value
    }
}

fn mask(value: u64, bits: u32) -> u64 {
    if bits >= 64 {
        value
    } else {
        value & ((1u64 << bits) - 1)
    }
}

/// Reference encoder over raw field values (which need not be canonical:
/// the corruption properties use that to plant out-of-range sums).
fn ref_encode(fmt: &WireFormat, raw_sums: &[u64], count: u32) -> Vec<u8> {
    assert_eq!(raw_sums.len(), fmt.threshold);
    let mut w = RefBitWriter::new();
    for &sum in raw_sums {
        w.write(sum, fmt.id_bits);
    }
    if fmt.count_bits > 0 {
        w.write(mask(count as u64, fmt.count_bits), fmt.count_bits);
    }
    w.bytes
}

/// Reference decoder: `(sums, count)` or the typed error the codec
/// promises, checked in the codec's order (length first, then the first
/// non-canonical sum).
fn ref_decode(
    fmt: &WireFormat,
    modulus: u64,
    bytes: &[u8],
    count_override: Option<u32>,
) -> Result<(Vec<u64>, u32), WireError> {
    let expected = (fmt.id_bits as usize * fmt.threshold + fmt.count_bits as usize).div_ceil(8);
    if bytes.len() != expected {
        return Err(WireError::Length {
            expected,
            actual: bytes.len(),
        });
    }
    let mut r = RefBitReader { bytes, bit_pos: 0 };
    let mut sums = Vec::with_capacity(fmt.threshold);
    for index in 0..fmt.threshold {
        let raw = r.read(fmt.id_bits);
        if raw >= modulus {
            return Err(WireError::NonCanonicalSum { index });
        }
        sums.push(raw);
    }
    let count = if fmt.count_bits > 0 {
        r.read(fmt.count_bits) as u32
    } else {
        count_override.unwrap_or(0)
    };
    Ok((sums, count))
}

/// What the codec under test decoded, in the reference's shape.
fn decode_under_test<F: Field>(
    fmt: &WireFormat,
    bytes: &[u8],
    count_override: Option<u32>,
) -> Result<(Vec<u64>, u32), WireError> {
    fmt.decode::<F>(bytes, count_override)
        .map(|q| (q.power_sums().collect(), q.count()))
}

/// One generated case, shared by the four field widths.
#[derive(Clone, Debug)]
struct Case {
    threshold: usize,
    count_bits: u32,
    /// Raw material for the sums; reduced into `0..MODULUS` per field.
    raw: Vec<u64>,
    count: u32,
    count_override: Option<u32>,
    /// Corruption material: (byte position, xor mask) pairs, a length
    /// delta, and the sums to overwrite with an out-of-range value.
    flips: Vec<(usize, u8)>,
    length_delta: usize,
    non_canonical_at: Vec<usize>,
}

fn arb_case() -> impl Strategy<Value = Case> {
    let count_bits = prop_oneof![
        Just(0u32),
        Just(1u32),
        Just(5u32),
        Just(16u32),
        Just(31u32),
        Just(32u32)
    ];
    // The vendored proptest shim stops at 4-tuples, hence the nesting.
    let shape = (
        0usize..65,
        count_bits,
        proptest::collection::vec(any::<u64>(), 64),
        any::<u32>(),
    );
    let corruption = (
        prop_oneof![Just(None), any::<u32>().prop_map(Some)],
        proptest::collection::vec((0usize..1024, 1u8..255), 1..8),
        1usize..9,
        proptest::collection::vec(0usize..64, 1..4),
    );
    (shape, corruption).prop_map(
        |(
            (threshold, count_bits, raw, count),
            (count_override, flips, length_delta, non_canonical_at),
        )| Case {
            threshold,
            count_bits,
            raw,
            count,
            count_override,
            flips,
            length_delta,
            non_canonical_at,
        },
    )
}

/// The whole differential check for one field width.
fn check<F: Field>(case: &Case) -> Result<(), TestCaseError> {
    let fmt = WireFormat {
        id_bits: F::BITS,
        threshold: case.threshold,
        count_bits: case.count_bits,
    };
    let sums: Vec<u64> = case.raw[..case.threshold]
        .iter()
        .map(|r| r % F::MODULUS)
        .collect();
    let quack = PowerSumQuack::<F>::from_parts(sums.clone(), case.count);

    // Encode: identical bytes, of the advertised length.
    let wire = fmt.encode(&quack);
    let reference = ref_encode(&fmt, &sums, case.count);
    prop_assert_eq!(&wire, &reference);
    prop_assert_eq!(wire.len(), fmt.encoded_bytes());

    // Decode of the honest image: identical sums and count, and the sums
    // are the ones that went in.
    let got = decode_under_test::<F>(&fmt, &wire, case.count_override);
    let want = ref_decode(&fmt, F::MODULUS, &wire, case.count_override);
    prop_assert_eq!(&got, &want);
    let (back, count) = got.expect("honest image decodes");
    prop_assert_eq!(back, sums.clone());
    let expect_count = if case.count_bits == 0 {
        case.count_override.unwrap_or(0)
    } else {
        mask(case.count as u64, case.count_bits) as u32
    };
    prop_assert_eq!(count, expect_count);

    // Wrong lengths, both directions: the same `Length` error.
    let mut long = wire.clone();
    long.resize(wire.len() + case.length_delta, 0xA5);
    prop_assert_eq!(
        decode_under_test::<F>(&fmt, &long, case.count_override),
        ref_decode(&fmt, F::MODULUS, &long, case.count_override)
    );
    if !wire.is_empty() {
        let short = &wire[..wire.len().saturating_sub(case.length_delta)];
        let got = decode_under_test::<F>(&fmt, short, case.count_override);
        prop_assert_eq!(
            got,
            Err(WireError::Length {
                expected: wire.len(),
                actual: short.len()
            })
        );
        prop_assert_eq!(
            got,
            ref_decode(&fmt, F::MODULUS, short, case.count_override)
        );
    }

    // Byte soup of the right length: whatever the reference says.
    if !wire.is_empty() {
        let mut soup = wire.clone();
        for &(pos, xor) in &case.flips {
            let at = pos % soup.len();
            soup[at] ^= xor;
        }
        prop_assert_eq!(
            decode_under_test::<F>(&fmt, &soup, case.count_override),
            ref_decode(&fmt, F::MODULUS, &soup, case.count_override)
        );
    }

    // Planted out-of-range sums (all ones is >= p for every field): the
    // *first* offending index is reported, and it is the reference's.
    if case.threshold > 0 {
        let mut planted = sums.clone();
        let mut first = usize::MAX;
        for &at in &case.non_canonical_at {
            let at = at % case.threshold;
            planted[at] = mask(u64::MAX, F::BITS);
            first = first.min(at);
        }
        let evil = ref_encode(&fmt, &planted, case.count);
        let got = decode_under_test::<F>(&fmt, &evil, case.count_override);
        prop_assert_eq!(got, Err(WireError::NonCanonicalSum { index: first }));
        prop_assert_eq!(
            got,
            ref_decode(&fmt, F::MODULUS, &evil, case.count_override)
        );
        // The boundary itself: p is rejected, p - 1 is accepted.
        planted[first] = F::MODULUS;
        let edge = ref_encode(&fmt, &planted, case.count);
        prop_assert_eq!(
            decode_under_test::<F>(&fmt, &edge, case.count_override),
            ref_decode(&fmt, F::MODULUS, &edge, case.count_override)
        );
        planted[first] = F::MODULUS - 1;
        for &at in &case.non_canonical_at {
            let at = at % case.threshold;
            planted[at] = F::MODULUS - 1;
        }
        let top = ref_encode(&fmt, &planted, case.count);
        let got = decode_under_test::<F>(&fmt, &top, case.count_override);
        prop_assert_eq!(
            &got,
            &ref_decode(&fmt, F::MODULUS, &top, case.count_override)
        );
        prop_assert_eq!(got.expect("p - 1 is canonical").0, planted);
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// 16-bit identifiers: the smallest modulus, so flipped bytes land on
    /// the canonical-sum check most often here.
    #[test]
    fn codec_matches_reference_b16(case in arb_case()) {
        check::<Fp16>(&case)?;
    }

    /// 24-bit identifiers.
    #[test]
    fn codec_matches_reference_b24(case in arb_case()) {
        check::<Fp24>(&case)?;
    }

    /// 32-bit identifiers — the paper's format.
    #[test]
    fn codec_matches_reference_b32(case in arb_case()) {
        check::<Fp32>(&case)?;
    }

    /// 64-bit identifiers: the widest field, where a value fills the whole
    /// accumulator word.
    #[test]
    fn codec_matches_reference_b64(case in arb_case()) {
        check::<Fp64>(&case)?;
    }
}

/// The paper's headline image, spelled out: 20 sums of 32 bits and a 16-bit
/// count are 82 bytes, big-endian, in order.
#[test]
fn paper_default_image_is_plain_big_endian() {
    let fmt = WireFormat::paper_default(20);
    let sums: Vec<u64> = (0..20u64)
        .map(|i| (i * 0x0101_0101 + 7) % Fp32::MODULUS)
        .collect();
    let quack = PowerSumQuack::<Fp32>::from_parts(sums.clone(), 0x1_BEEF);
    let wire = fmt.encode(&quack);
    let mut expect = Vec::new();
    for s in &sums {
        expect.extend_from_slice(&(*s as u32).to_be_bytes());
    }
    expect.extend_from_slice(&0xBEEFu16.to_be_bytes());
    assert_eq!(wire, expect);
    assert_eq!(wire, ref_encode(&fmt, &sums, 0x1_BEEF));
}
