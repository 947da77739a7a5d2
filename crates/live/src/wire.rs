//! UDP wire codec for [`Packet`].
//!
//! The simulator moves `Packet` values by ownership; the live datapath has
//! to move them through real datagrams. One datagram carries exactly one
//! packet. The encoding is explicit little-endian with no
//! self-describing framing — a fixed header, then a payload whose shape is
//! picked by the payload tag:
//!
//! ```text
//! offset  size  field
//!      0     2  magic 0x5C1D
//!      2     1  version (1)
//!      3     1  kind    (0 data, 1 ack, 2 sidecar)
//!      4     1  ptag    (0 none, 1 data, 2 ack, 3 sidecar)
//!      5     4  flow
//!      9     4  size    (simulated on-the-wire bytes, *not* datagram len)
//!     13     8  id
//!     21     8  seq
//!     29     8  sent_at (ns on the sender's driver clock)
//!     37     …  payload (by ptag)
//! ```
//!
//! Payloads: `data` is a `u64` unit; `ack` is `largest u64, immediate u8,
//! count u16, count × (start u64, end u64)`; `sidecar` is `proto u8,
//! len u32, len bytes`.
//!
//! Decoding is *total*: any byte string returns `Ok` or a typed
//! [`WireError`], never panics and never over-allocates — the ACK range
//! count and sidecar body length are validated against the bytes actually
//! present before any allocation sized by them (the same class of bug as
//! the `messages.rs` truncation fix, guarded here by construction). The
//! fuzz test below feeds arbitrary and truncated images through `decode`.

use sidecar_netsim::packet::{AckInfo, FlowId, Packet, PacketKind, Payload};
use sidecar_netsim::time::SimTime;

/// First two bytes of every datagram.
pub const MAGIC: u16 = 0x5C1D;
/// Codec version byte.
pub const VERSION: u8 = 1;
/// Fixed header length in bytes.
pub const HEADER_LEN: usize = 37;
/// Largest datagram `encode` will produce / `decode` will accept. Fits
/// comfortably in one unfragmented loopback datagram and bounds every
/// allocation the decoder performs.
pub const MAX_DATAGRAM: usize = 65_507;

/// Why a datagram failed to decode.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum WireError {
    /// Shorter than the fixed header, or the payload claims more bytes than
    /// the datagram holds.
    Truncated,
    /// First two bytes are not [`MAGIC`].
    BadMagic,
    /// Unknown version byte.
    BadVersion(u8),
    /// Unknown packet-kind byte.
    BadKind(u8),
    /// Unknown payload-tag byte, or a tag that contradicts the kind.
    BadTag(u8),
    /// Trailing garbage after a well-formed packet.
    TrailingBytes(usize),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "datagram truncated"),
            WireError::BadMagic => write!(f, "bad magic"),
            WireError::BadVersion(v) => write!(f, "unknown version {v}"),
            WireError::BadKind(k) => write!(f, "unknown kind {k}"),
            WireError::BadTag(t) => write!(f, "unknown payload tag {t}"),
            WireError::TrailingBytes(n) => write!(f, "{n} trailing bytes"),
        }
    }
}

impl std::error::Error for WireError {}

fn kind_byte(kind: PacketKind) -> u8 {
    match kind {
        PacketKind::Data => 0,
        PacketKind::Ack => 1,
        PacketKind::Sidecar => 2,
    }
}

fn ptag_byte(payload: &Payload) -> u8 {
    match payload {
        Payload::None => 0,
        Payload::Data { .. } => 1,
        Payload::Ack(_) => 2,
        Payload::Sidecar { .. } => 3,
    }
}

/// Encodes `packet` into a fresh datagram image.
pub fn encode(packet: &Packet) -> Vec<u8> {
    let mut out = Vec::with_capacity(HEADER_LEN + 32);
    encode_into(packet, &mut out);
    out
}

/// Encodes `packet` into `out`, replacing its contents: a caller that keeps
/// one buffer allocates only while the buffer grows to its largest image.
pub fn encode_into(packet: &Packet, out: &mut Vec<u8>) {
    out.clear();
    out.extend_from_slice(&MAGIC.to_le_bytes());
    out.push(VERSION);
    out.push(kind_byte(packet.kind));
    out.push(ptag_byte(&packet.payload));
    out.extend_from_slice(&packet.flow.0.to_le_bytes());
    out.extend_from_slice(&packet.size.to_le_bytes());
    out.extend_from_slice(&packet.id.to_le_bytes());
    out.extend_from_slice(&packet.seq.to_le_bytes());
    out.extend_from_slice(&packet.sent_at.as_nanos().to_le_bytes());
    match &packet.payload {
        Payload::None => {}
        Payload::Data { unit } => out.extend_from_slice(&unit.to_le_bytes()),
        Payload::Ack(info) => {
            out.extend_from_slice(&info.largest.to_le_bytes());
            out.push(info.immediate as u8);
            let count = info.ranges.len().min(u16::MAX as usize) as u16;
            out.extend_from_slice(&count.to_le_bytes());
            for &(s, e) in info.ranges.iter().take(count as usize) {
                out.extend_from_slice(&s.to_le_bytes());
                out.extend_from_slice(&e.to_le_bytes());
            }
        }
        Payload::Sidecar { proto, bytes } => {
            out.push(*proto);
            out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
            out.extend_from_slice(bytes);
        }
    }
    debug_assert!(out.len() <= MAX_DATAGRAM, "packet exceeds one datagram");
}

/// A bounds-checked little-endian cursor over one datagram.
struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    fn take(&mut self, n: usize) -> Result<&'a [u8], WireError> {
        let end = self.pos.checked_add(n).ok_or(WireError::Truncated)?;
        if end > self.buf.len() {
            return Err(WireError::Truncated);
        }
        let out = &self.buf[self.pos..end];
        self.pos = end;
        Ok(out)
    }

    fn u8(&mut self) -> Result<u8, WireError> {
        Ok(self.take(1)?[0])
    }

    fn u16(&mut self) -> Result<u16, WireError> {
        Ok(u16::from_le_bytes(self.take(2)?.try_into().unwrap()))
    }

    fn u32(&mut self) -> Result<u32, WireError> {
        Ok(u32::from_le_bytes(self.take(4)?.try_into().unwrap()))
    }

    fn u64(&mut self) -> Result<u64, WireError> {
        Ok(u64::from_le_bytes(self.take(8)?.try_into().unwrap()))
    }

    fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }
}

/// Decodes one datagram image back into a [`Packet`].
pub fn decode(buf: &[u8]) -> Result<Packet, WireError> {
    if buf.len() > MAX_DATAGRAM {
        return Err(WireError::Truncated);
    }
    let mut r = Reader { buf, pos: 0 };
    if r.u16()? != MAGIC {
        return Err(WireError::BadMagic);
    }
    let version = r.u8()?;
    if version != VERSION {
        return Err(WireError::BadVersion(version));
    }
    let kind = match r.u8()? {
        0 => PacketKind::Data,
        1 => PacketKind::Ack,
        2 => PacketKind::Sidecar,
        other => return Err(WireError::BadKind(other)),
    };
    let ptag = r.u8()?;
    let flow = FlowId(r.u32()?);
    let size = r.u32()?;
    let id = r.u64()?;
    let seq = r.u64()?;
    let sent_at = SimTime::from_nanos(r.u64()?);
    let payload = match ptag {
        0 => Payload::None,
        1 => Payload::Data { unit: r.u64()? },
        2 => {
            let largest = r.u64()?;
            let immediate = r.u8()? != 0;
            let count = r.u16()? as usize;
            // Each range is 16 bytes; refuse counts the datagram cannot
            // hold *before* allocating for them.
            if count.saturating_mul(16) > r.remaining() {
                return Err(WireError::Truncated);
            }
            let mut ranges = Vec::with_capacity(count);
            for _ in 0..count {
                let s = r.u64()?;
                let e = r.u64()?;
                ranges.push((s, e));
            }
            Payload::Ack(AckInfo {
                largest,
                ranges,
                immediate,
            })
        }
        3 => {
            let proto = r.u8()?;
            let len = r.u32()? as usize;
            if len > r.remaining() {
                return Err(WireError::Truncated);
            }
            Payload::Sidecar {
                proto,
                bytes: r.take(len)?.to_vec(),
            }
        }
        other => return Err(WireError::BadTag(other)),
    };
    if r.remaining() != 0 {
        return Err(WireError::TrailingBytes(r.remaining()));
    }
    Ok(Packet {
        flow,
        kind,
        size,
        id,
        seq,
        sent_at,
        payload,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn samples() -> Vec<Packet> {
        vec![
            Packet::data(
                FlowId(7),
                42,
                0xDEAD_BEEF,
                1500,
                SimTime::from_nanos(123_456),
            ),
            Packet::data_unit(FlowId(0), u64::MAX, 3, u64::MAX, 0, SimTime::ZERO),
            Packet::ack(
                FlowId(9),
                11,
                AckInfo {
                    largest: 100,
                    ranges: vec![(90, 100), (50, 60), (10, 10)],
                    immediate: true,
                },
                64,
                SimTime::from_nanos(5),
            ),
            Packet::ack(FlowId(1), 0, AckInfo::default(), 64, SimTime::ZERO),
            Packet::sidecar(
                FlowId(3),
                2,
                vec![1, 2, 3, 4, 5],
                82,
                SimTime::from_nanos(7),
            ),
            Packet::sidecar(FlowId(3), 0, Vec::new(), 40, SimTime::ZERO),
            Packet {
                flow: FlowId(4),
                kind: PacketKind::Data,
                size: 1500,
                id: 1,
                seq: 2,
                sent_at: SimTime::from_nanos(3),
                payload: Payload::None,
            },
        ]
    }

    #[test]
    fn roundtrips_every_packet_shape() {
        let mut reused = Vec::new();
        for pkt in samples() {
            let wire = encode(&pkt);
            encode_into(&pkt, &mut reused);
            assert_eq!(reused, wire, "encode_into replaces the buffer's contents");
            let back = decode(&wire).unwrap();
            assert_eq!(back, pkt);
        }
    }

    #[test]
    fn rejects_bad_magic_version_kind_tag() {
        let wire = encode(&samples()[0]);
        let mut bad = wire.clone();
        bad[0] ^= 0xFF;
        assert_eq!(decode(&bad), Err(WireError::BadMagic));
        let mut bad = wire.clone();
        bad[2] = 9;
        assert_eq!(decode(&bad), Err(WireError::BadVersion(9)));
        let mut bad = wire.clone();
        bad[3] = 7;
        assert_eq!(decode(&bad), Err(WireError::BadKind(7)));
        let mut bad = wire.clone();
        bad[4] = 200;
        assert_eq!(decode(&bad), Err(WireError::BadTag(200)));
    }

    #[test]
    fn rejects_trailing_garbage() {
        let mut wire = encode(&samples()[0]);
        wire.push(0);
        assert_eq!(decode(&wire), Err(WireError::TrailingBytes(1)));
    }

    #[test]
    fn forged_ack_range_count_cannot_force_allocation() {
        // An ACK claiming 65535 ranges in a 60-byte datagram must be
        // refused by arithmetic, not by trying to read (or reserve) them.
        let pkt = Packet::ack(FlowId(1), 2, AckInfo::default(), 64, SimTime::ZERO);
        let mut wire = encode(&pkt);
        let count_off = HEADER_LEN + 8 + 1;
        wire[count_off..count_off + 2].copy_from_slice(&u16::MAX.to_le_bytes());
        assert_eq!(decode(&wire), Err(WireError::Truncated));
    }

    proptest! {
        /// Decode is total: arbitrary images never panic, and every prefix
        /// truncation of a valid image decodes or errors cleanly.
        #[test]
        fn decode_is_total(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode(&bytes);
        }

        #[test]
        fn truncations_of_valid_images_are_rejected_cleanly(idx in 0usize..7, cut in 0usize..300) {
            let pkt = &samples()[idx];
            let wire = encode(pkt);
            let cut = cut.min(wire.len());
            let image = &wire[..cut];
            if let Ok(back) = decode(image) { prop_assert_eq!(&back, pkt) }
        }
    }
}
