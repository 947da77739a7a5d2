//! Bit-exact wire codec for power-sum quACKs (paper §3.2, §4.2 "QuACK
//! Size").
//!
//! A quACK on the wire is `t` power sums of `b` bits each, followed by a
//! `c`-bit wrapping count: `b·t + c` bits total, rounded up to whole bytes.
//! The paper's headline configuration (`t = 20`, `b = 32`, `c = 16`) is
//! 656 bits = **82 bytes** (Table 2).
//!
//! `c` must only be large enough to represent the count *difference* between
//! consecutive quACKs ("the count itself can wraparound", §3.2), and may be
//! zero when the count travels out of band — the ACK-reduction protocol
//! quACKs every `n` packets so "we can omit c, which is always n" (§4.3).

use crate::power_sum::PowerSumQuack;
use sidecar_galois::Field;

/// Default count width: the paper's `c = 16` bits.
pub const DEFAULT_COUNT_BITS: u32 = 16;

/// Wire-format parameters for a quACK stream.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct WireFormat {
    /// Identifier width `b` in bits (16, 24, 32 or 64).
    pub id_bits: u32,
    /// Threshold `t`: number of power sums.
    pub threshold: usize,
    /// Count width `c` in bits (0 ⇒ count omitted and supplied out of band).
    pub count_bits: u32,
}

/// Errors when decoding a quACK from the wire.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum WireError {
    /// The buffer is not exactly the expected encoded length.
    Length {
        /// Bytes expected per [`WireFormat::encoded_bytes`].
        expected: usize,
        /// Bytes provided.
        actual: usize,
    },
    /// A decoded power sum is not a canonical field representative
    /// (`>= MODULUS`), indicating corruption or a format mismatch.
    NonCanonicalSum {
        /// Index of the offending power sum.
        index: usize,
    },
}

impl core::fmt::Display for WireError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            WireError::Length { expected, actual } => {
                write!(f, "encoded quACK must be {expected} bytes, got {actual}")
            }
            WireError::NonCanonicalSum { index } => {
                write!(f, "power sum {index} is not a canonical field element")
            }
        }
    }
}

impl std::error::Error for WireError {}

impl WireFormat {
    /// The paper's default format for a given threshold: 32-bit identifiers,
    /// 16-bit count.
    pub fn paper_default(threshold: usize) -> Self {
        WireFormat {
            id_bits: 32,
            threshold,
            count_bits: DEFAULT_COUNT_BITS,
        }
    }

    /// Encoded size in bits: `b·t + c`.
    pub fn encoded_bits(&self) -> usize {
        self.id_bits as usize * self.threshold + self.count_bits as usize
    }

    /// Encoded size in whole bytes.
    pub fn encoded_bytes(&self) -> usize {
        self.encoded_bits().div_ceil(8)
    }

    /// Serializes a quACK. The count is truncated to `c` bits (wrapping
    /// semantics, §3.2).
    ///
    /// # Panics
    ///
    /// Panics if the quACK's field width or threshold disagree with this
    /// format.
    pub fn encode<F: Field>(&self, quack: &PowerSumQuack<F>) -> Vec<u8> {
        assert_eq!(F::BITS, self.id_bits, "field width mismatch");
        assert_eq!(quack.threshold(), self.threshold, "threshold mismatch");
        let mut bytes = vec![0u8; self.encoded_bytes()];
        let mut w = BitWriter::new(&mut bytes);
        for sum in quack.power_sums() {
            w.write(sum, self.id_bits);
        }
        if self.count_bits > 0 {
            w.write(mask(quack.count() as u64, self.count_bits), self.count_bits);
        }
        bytes
    }

    /// Deserializes a quACK. `count_override` supplies the count when
    /// `count_bits == 0` (e.g. the fixed `n` of ACK reduction).
    pub fn decode<F: Field>(
        &self,
        bytes: &[u8],
        count_override: Option<u32>,
    ) -> Result<PowerSumQuack<F>, WireError> {
        assert_eq!(F::BITS, self.id_bits, "field width mismatch");
        let expected = self.encoded_bytes();
        if bytes.len() != expected {
            return Err(WireError::Length {
                expected,
                actual: bytes.len(),
            });
        }
        let mut r = BitReader::new(bytes);
        let mut sums = Vec::with_capacity(self.threshold);
        for index in 0..self.threshold {
            let raw = r.read(self.id_bits);
            if raw >= F::MODULUS {
                return Err(WireError::NonCanonicalSum { index });
            }
            sums.push(F::from_u64(raw));
        }
        let count = if self.count_bits > 0 {
            r.read(self.count_bits) as u32
        } else {
            count_override.unwrap_or(0)
        };
        Ok(PowerSumQuack::from_field_sums(sums, count))
    }
}

#[inline]
fn mask(value: u64, bits: u32) -> u64 {
    if bits >= 64 {
        value
    } else {
        value & ((1u64 << bits) - 1)
    }
}

/// Where a `bits`-wide field starting at absolute bit `bit_pos` sits: the
/// first byte it touches, how many bytes it spans (a field of up to 64
/// bits at a bit offset of up to 7 spans at most 9), and how far its last
/// bit is from the end of that span.
#[inline]
fn field_span(bit_pos: usize, bits: u32) -> (usize, usize, u32) {
    debug_assert!((1..=64).contains(&bits));
    let offset = (bit_pos % 8) as u32;
    let span = (offset + bits).div_ceil(8);
    (bit_pos / 8, span as usize, span * 8 - offset - bits)
}

/// MSB-first bit packer over a zeroed, exactly-sized output: each field is
/// shifted into place in one `u128` and OR-ed into the bytes it spans.
struct BitWriter<'a> {
    bytes: &'a mut [u8],
    bit_pos: usize,
}

impl<'a> BitWriter<'a> {
    fn new(bytes: &'a mut [u8]) -> Self {
        BitWriter { bytes, bit_pos: 0 }
    }

    fn write(&mut self, value: u64, bits: u32) {
        debug_assert!(bits == 64 || value < (1u64 << bits));
        let (first, span, shift) = field_span(self.bit_pos, bits);
        let word = ((value as u128) << shift).to_be_bytes();
        for (dst, src) in self.bytes[first..first + span]
            .iter_mut()
            .zip(&word[16 - span..])
        {
            *dst |= src;
        }
        self.bit_pos += bits as usize;
    }
}

/// MSB-first bit unpacker: gathers the bytes a field spans into one `u128`,
/// then shifts and masks once.
struct BitReader<'a> {
    bytes: &'a [u8],
    bit_pos: usize,
}

impl<'a> BitReader<'a> {
    fn new(bytes: &'a [u8]) -> Self {
        BitReader { bytes, bit_pos: 0 }
    }

    fn read(&mut self, bits: u32) -> u64 {
        let (first, span, shift) = field_span(self.bit_pos, bits);
        let mut word = [0u8; 16];
        word[16 - span..].copy_from_slice(&self.bytes[first..first + span]);
        self.bit_pos += bits as usize;
        mask((u128::from_be_bytes(word) >> shift) as u64, bits)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::power_sum::{Quack16, Quack24, Quack32, Quack64};

    #[test]
    fn paper_headline_size_is_82_bytes() {
        let fmt = WireFormat::paper_default(20);
        assert_eq!(fmt.encoded_bits(), 656);
        assert_eq!(fmt.encoded_bytes(), 82);
    }

    #[test]
    fn roundtrip_32bit() {
        let mut q = Quack32::new(20);
        for id in 0..1000u64 {
            q.insert(id.wrapping_mul(0x9E37_79B9));
        }
        let fmt = WireFormat::paper_default(20);
        let bytes = fmt.encode(&q);
        assert_eq!(bytes.len(), 82);
        let back: Quack32 = fmt.decode(&bytes, None).unwrap();
        assert_eq!(
            back.power_sums().collect::<Vec<_>>(),
            q.power_sums().collect::<Vec<_>>()
        );
        assert_eq!(back.count(), q.count() & 0xFFFF);
    }

    #[test]
    fn roundtrip_24bit_unaligned() {
        // 24-bit sums exercise non-byte-aligned packing thoroughly.
        let mut q = Quack24::new(7);
        for id in [1u64, 500_000, 16_000_000, 3] {
            q.insert(id);
        }
        let fmt = WireFormat {
            id_bits: 24,
            threshold: 7,
            count_bits: 5,
        };
        assert_eq!(fmt.encoded_bits(), 24 * 7 + 5);
        let bytes = fmt.encode(&q);
        assert_eq!(bytes.len(), (24 * 7 + 5usize).div_ceil(8));
        let back: Quack24 = fmt.decode(&bytes, None).unwrap();
        assert_eq!(
            back.power_sums().collect::<Vec<_>>(),
            q.power_sums().collect::<Vec<_>>()
        );
        assert_eq!(back.count(), 4);
    }

    #[test]
    fn roundtrip_16_and_64() {
        let mut q16 = Quack16::new(3);
        q16.insert(500);
        let fmt16 = WireFormat {
            id_bits: 16,
            threshold: 3,
            count_bits: 16,
        };
        let back: Quack16 = fmt16.decode(&fmt16.encode(&q16), None).unwrap();
        assert_eq!(back.count(), 1);
        assert_eq!(
            back.power_sums().collect::<Vec<_>>(),
            q16.power_sums().collect::<Vec<_>>()
        );

        let mut q64 = Quack64::new(4);
        q64.insert(u64::MAX - 100);
        let fmt64 = WireFormat {
            id_bits: 64,
            threshold: 4,
            count_bits: 32,
        };
        let back: Quack64 = fmt64.decode(&fmt64.encode(&q64), None).unwrap();
        assert_eq!(
            back.power_sums().collect::<Vec<_>>(),
            q64.power_sums().collect::<Vec<_>>()
        );
    }

    #[test]
    fn count_omitted_with_override() {
        // ACK reduction omits c (§4.3); count arrives out of band.
        let mut q = Quack32::new(5);
        for id in 0..32u64 {
            q.insert(id * 3 + 1);
        }
        let fmt = WireFormat {
            id_bits: 32,
            threshold: 5,
            count_bits: 0,
        };
        assert_eq!(fmt.encoded_bytes(), 20);
        let bytes = fmt.encode(&q);
        let back: Quack32 = fmt.decode(&bytes, Some(32)).unwrap();
        assert_eq!(back.count(), 32);
    }

    #[test]
    fn count_wraps_at_c_bits() {
        let mut q = Quack32::new(1);
        for id in 0..70_000u64 {
            q.insert(id);
        }
        let fmt = WireFormat {
            id_bits: 32,
            threshold: 1,
            count_bits: 16,
        };
        let back: Quack32 = fmt.decode(&fmt.encode(&q), None).unwrap();
        assert_eq!(back.count(), 70_000 % 65_536);
    }

    #[test]
    fn length_mismatch_rejected() {
        let fmt = WireFormat::paper_default(20);
        let err = fmt
            .decode::<sidecar_galois::Fp32>(&[0u8; 81], None)
            .unwrap_err();
        assert_eq!(
            err,
            WireError::Length {
                expected: 82,
                actual: 81
            }
        );
        assert!(err.to_string().contains("82 bytes"));
    }

    #[test]
    fn non_canonical_sum_rejected() {
        let fmt = WireFormat {
            id_bits: 32,
            threshold: 1,
            count_bits: 0,
        };
        // 0xFFFF_FFFF >= p = 2^32 - 5.
        let bytes = vec![0xFF, 0xFF, 0xFF, 0xFF];
        let err = fmt
            .decode::<sidecar_galois::Fp32>(&bytes, None)
            .unwrap_err();
        assert_eq!(err, WireError::NonCanonicalSum { index: 0 });
    }

    #[test]
    fn decoded_quack_decodes_losses() {
        // End-to-end: serialize the receiver's quACK, ship it, decode
        // missing packets on the sender.
        let sent: Vec<u64> = (0..100u64).map(|i| i * 7919 + 13).collect();
        let mut sender = Quack32::new(10);
        let mut receiver = Quack32::new(10);
        for &id in &sent {
            sender.insert(id);
        }
        for (i, &id) in sent.iter().enumerate() {
            if !(40..44).contains(&i) {
                receiver.insert(id);
            }
        }
        let fmt = WireFormat::paper_default(10);
        let wire = fmt.encode(&receiver);
        let received: Quack32 = fmt.decode(&wire, None).unwrap();
        let decoded = sender.decode_against(&received, &sent).unwrap();
        assert_eq!(decoded.missing_values(&sent), sent[40..44].to_vec());
    }

    #[test]
    fn bitwriter_reader_roundtrip_mixed_widths() {
        let mut bytes = [0u8; 11];
        let mut w = BitWriter::new(&mut bytes);
        w.write(0b101, 3);
        w.write(0xABCD, 16);
        w.write(1, 1);
        w.write(u64::MAX, 64);
        w.write(0, 4);
        let mut r = BitReader::new(&bytes);
        assert_eq!(r.read(3), 0b101);
        assert_eq!(r.read(16), 0xABCD);
        assert_eq!(r.read(1), 1);
        assert_eq!(r.read(64), u64::MAX);
        assert_eq!(r.read(4), 0);
    }
}
