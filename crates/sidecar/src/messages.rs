//! Sidecar protocol wire messages.
//!
//! Sidecars "communicate with each other by sending quACKs … They can also
//! configure sidecar protocol parameters with each other such as the
//! communication frequency and properties of the quACK" (paper §2). This
//! module defines the small message vocabulary and a compact binary
//! encoding; messages travel in [`sidecar_netsim::Payload::Sidecar`]
//! datagrams (the sidecar protocol is spoken in the clear between
//! consenting sidecars — it never touches the E2E-encrypted base protocol).

use sidecar_netsim::time::SimDuration;

/// Message-type tags (the `proto` byte of `Payload::Sidecar`).
///
/// Each legacy tag has a flow-tagged twin at `tag + FLOW_OFFSET` whose body
/// is prefixed with a 4-byte big-endian flow id (carried next to the epoch
/// for `Quack`). Flow 0 always encodes with the legacy tag, so single-flow
/// wire traffic is byte-identical to pre-flow-table builds, and legacy
/// untagged messages parse as flow 0.
pub mod tag {
    /// A quACK payload.
    pub const QUACK: u8 = 1;
    /// A configuration update (e.g. new emission interval).
    pub const CONFIGURE: u8 = 2;
    /// A reset announcement (threshold exceeded; new epoch).
    pub const RESET: u8 = 3;
    /// A parameter offer opening (or re-opening) a sidecar session.
    pub const HELLO: u8 = 4;
    /// Distance between a legacy tag and its flow-tagged twin.
    pub const FLOW_OFFSET: u8 = 4;
    /// A quACK payload tagged with a non-zero flow id.
    pub const QUACK_FLOW: u8 = QUACK + FLOW_OFFSET;
    /// A configuration update tagged with a non-zero flow id.
    pub const CONFIGURE_FLOW: u8 = CONFIGURE + FLOW_OFFSET;
    /// A reset announcement tagged with a non-zero flow id.
    pub const RESET_FLOW: u8 = RESET + FLOW_OFFSET;
    /// A parameter offer tagged with a non-zero flow id.
    pub const HELLO_FLOW: u8 = HELLO + FLOW_OFFSET;
    /// Distance between a wire tag (legacy 1..=4 or flow-tagged 5..=8) and
    /// its authenticated twin (9..=16): the sealed envelope of
    /// [`crate::auth::ChannelAuth`] reuses the inner encoding under
    /// `inner_tag + AUTH_OFFSET`. To the plain decoders these tags are
    /// simply unknown (auth-unaware endpoints reject sealed traffic), so
    /// legacy and flow wire images are untouched.
    pub const AUTH_OFFSET: u8 = 8;
    /// An authenticated (sealed) legacy quACK.
    pub const QUACK_AUTH: u8 = QUACK + AUTH_OFFSET;
    /// An authenticated (sealed) legacy configuration update.
    pub const CONFIGURE_AUTH: u8 = CONFIGURE + AUTH_OFFSET;
    /// An authenticated (sealed) legacy reset announcement.
    pub const RESET_AUTH: u8 = RESET + AUTH_OFFSET;
    /// An authenticated (sealed) legacy parameter offer.
    pub const HELLO_AUTH: u8 = HELLO + AUTH_OFFSET;
    /// An authenticated (sealed) flow-tagged quACK.
    pub const QUACK_FLOW_AUTH: u8 = QUACK_FLOW + AUTH_OFFSET;
    /// An authenticated (sealed) flow-tagged configuration update.
    pub const CONFIGURE_FLOW_AUTH: u8 = CONFIGURE_FLOW + AUTH_OFFSET;
    /// An authenticated (sealed) flow-tagged reset announcement.
    pub const RESET_FLOW_AUTH: u8 = RESET_FLOW + AUTH_OFFSET;
    /// An authenticated (sealed) flow-tagged parameter offer.
    pub const HELLO_FLOW_AUTH: u8 = HELLO_FLOW + AUTH_OFFSET;
}

/// Nominal UDP/IPv4 header overhead added to every sidecar datagram body
/// for link accounting.
pub const HEADER_OVERHEAD: u32 = 28;

/// Largest sidecar datagram body that fits in one real UDP datagram: the
/// IPv4 maximum UDP payload (65,507 bytes) minus [`HEADER_OVERHEAD`].
/// Bodies beyond this cannot be emitted on a live socket, and the legacy
/// `wire_size` arithmetic would silently truncate their length accounting —
/// the checked encoders reject them with [`MessageError::Oversized`]
/// instead.
pub const MAX_BODY: usize = 65_507 - HEADER_OVERHEAD as usize;

/// A decoded sidecar message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SidecarMessage {
    /// An encoded quACK (opaque to the simulator; decoded by the consumer
    /// with the negotiated [`crate::SidecarConfig`]). `epoch` guards against
    /// mixing sums across resets.
    Quack {
        /// Reset epoch the quACK belongs to.
        epoch: u32,
        /// Wire-encoded quACK (`b·t + c` bits).
        bytes: Vec<u8>,
    },
    /// Consumer-to-producer tuning: change the emission interval
    /// (in-network retransmission adapts this to the loss ratio, §2.3).
    Configure {
        /// New emission interval.
        interval: SimDuration,
    },
    /// Either side announces a reset to a new epoch (§3.3 "Exceeding the
    /// threshold").
    Reset {
        /// The new epoch number.
        epoch: u32,
    },
    /// A parameter offer: the quACK shape and emission schedule the
    /// offering sidecar uses (§3.2's three parameters). The responder
    /// accepts only an offer of its own shape `(t, b, c)` (see
    /// [`crate::negotiate`]); otherwise the session does not start and the
    /// flow runs end to end.
    Hello {
        /// Proposed threshold `t`.
        threshold: u32,
        /// Proposed identifier width `b` in bits.
        id_bits: u8,
        /// Proposed count width `c` in bits.
        count_bits: u8,
        /// The offerer's emission interval (0 = per-packet schedule). It is
        /// neither compared nor applied: only `Configure` sets the interval.
        interval: SimDuration,
    },
}

/// Encoding/decoding failures.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum MessageError {
    /// The tag byte is not a known message type.
    UnknownTag(u8),
    /// The body is too short for the message type.
    Truncated,
    /// The encoded body exceeds [`MAX_BODY`] and cannot travel in one UDP
    /// datagram (the carried value is the offending body length).
    Oversized(usize),
}

impl core::fmt::Display for MessageError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            MessageError::UnknownTag(t) => write!(f, "unknown sidecar message tag {t}"),
            MessageError::Truncated => write!(f, "truncated sidecar message"),
            MessageError::Oversized(len) => {
                write!(f, "sidecar message body of {len} bytes exceeds {MAX_BODY}")
            }
        }
    }
}

impl std::error::Error for MessageError {}

impl SidecarMessage {
    /// Serializes to `(tag, body)` for a sidecar datagram.
    pub fn encode(&self) -> (u8, Vec<u8>) {
        match self {
            SidecarMessage::Quack { epoch, bytes } => {
                let mut body = Vec::with_capacity(4 + bytes.len());
                body.extend_from_slice(&epoch.to_be_bytes());
                body.extend_from_slice(bytes);
                (tag::QUACK, body)
            }
            SidecarMessage::Configure { interval } => {
                (tag::CONFIGURE, interval.as_nanos().to_be_bytes().to_vec())
            }
            SidecarMessage::Reset { epoch } => (tag::RESET, epoch.to_be_bytes().to_vec()),
            SidecarMessage::Hello {
                threshold,
                id_bits,
                count_bits,
                interval,
            } => {
                let mut body = Vec::with_capacity(14);
                body.extend_from_slice(&threshold.to_be_bytes());
                body.push(*id_bits);
                body.push(*count_bits);
                body.extend_from_slice(&interval.as_nanos().to_be_bytes());
                (tag::HELLO, body)
            }
        }
    }

    /// Parses a sidecar datagram body.
    pub fn decode(tag_byte: u8, body: &[u8]) -> Result<Self, MessageError> {
        match tag_byte {
            tag::QUACK => {
                if body.len() < 4 {
                    return Err(MessageError::Truncated);
                }
                let epoch = u32::from_be_bytes(body[..4].try_into().expect("4 bytes"));
                Ok(SidecarMessage::Quack {
                    epoch,
                    bytes: body[4..].to_vec(),
                })
            }
            tag::CONFIGURE => {
                let ns: [u8; 8] = body.try_into().map_err(|_| MessageError::Truncated)?;
                Ok(SidecarMessage::Configure {
                    interval: SimDuration::from_nanos(u64::from_be_bytes(ns)),
                })
            }
            tag::RESET => {
                let e: [u8; 4] = body.try_into().map_err(|_| MessageError::Truncated)?;
                Ok(SidecarMessage::Reset {
                    epoch: u32::from_be_bytes(e),
                })
            }
            tag::HELLO => {
                if body.len() != 14 {
                    return Err(MessageError::Truncated);
                }
                Ok(SidecarMessage::Hello {
                    threshold: u32::from_be_bytes(body[..4].try_into().expect("4 bytes")),
                    id_bits: body[4],
                    count_bits: body[5],
                    interval: SimDuration::from_nanos(u64::from_be_bytes(
                        body[6..14].try_into().expect("8 bytes"),
                    )),
                })
            }
            other => Err(MessageError::UnknownTag(other)),
        }
    }

    /// Serializes to `(tag, body)` for a sidecar datagram belonging to
    /// `flow`. Flow 0 uses the legacy untagged encoding (byte-identical to
    /// [`SidecarMessage::encode`]); any other flow uses the flow-tagged twin
    /// tag with the flow id as a 4-byte big-endian body prefix, sitting
    /// right next to the epoch for `Quack` bodies.
    pub fn encode_for_flow(&self, flow: u32) -> (u8, Vec<u8>) {
        let (t, body) = self.encode();
        if flow == 0 {
            return (t, body);
        }
        let mut tagged = Vec::with_capacity(4 + body.len());
        tagged.extend_from_slice(&flow.to_be_bytes());
        tagged.extend_from_slice(&body);
        (t + tag::FLOW_OFFSET, tagged)
    }

    /// Parses a sidecar datagram body into `(flow, message)`. Legacy tags
    /// parse as flow 0; flow-tagged twins strip the 4-byte flow prefix and
    /// parse the remainder with the legacy decoder.
    pub fn decode_flow(tag_byte: u8, body: &[u8]) -> Result<(u32, Self), MessageError> {
        if (tag::QUACK_FLOW..=tag::HELLO_FLOW).contains(&tag_byte) {
            if body.len() < 4 {
                return Err(MessageError::Truncated);
            }
            let flow = u32::from_be_bytes(body[..4].try_into().expect("4 bytes"));
            let msg = Self::decode(tag_byte - tag::FLOW_OFFSET, &body[4..])?;
            Ok((flow, msg))
        } else {
            Ok((0, Self::decode(tag_byte, body)?))
        }
    }

    /// Serializes to `(tag, body)`, rejecting bodies over [`MAX_BODY`] with
    /// a typed error instead of letting an impossible-to-transmit datagram
    /// reach the wire (where the old length accounting silently truncated).
    pub fn try_encode(&self) -> Result<(u8, Vec<u8>), MessageError> {
        let (t, body) = self.encode();
        if body.len() > MAX_BODY {
            return Err(MessageError::Oversized(body.len()));
        }
        Ok((t, body))
    }

    /// [`SidecarMessage::encode_for_flow`] with the [`MAX_BODY`] check: the
    /// flow prefix counts toward the limit, so a body that fits untagged can
    /// still be rejected for a non-zero flow.
    pub fn try_encode_for_flow(&self, flow: u32) -> Result<(u8, Vec<u8>), MessageError> {
        let (t, body) = self.encode_for_flow(flow);
        if body.len() > MAX_BODY {
            return Err(MessageError::Oversized(body.len()));
        }
        Ok((t, body))
    }

    /// On-the-wire size of the sidecar datagram body plus a nominal
    /// UDP/IP-style header overhead used for link accounting. Saturates
    /// (rather than truncating) on bodies too large to encode — such
    /// messages are rejected by [`SidecarMessage::try_encode`] before any
    /// wire accounting can see them.
    pub fn wire_size(&self) -> u32 {
        let (_, body) = self.encode();
        HEADER_OVERHEAD.saturating_add(u32::try_from(body.len()).unwrap_or(u32::MAX))
    }

    /// [`SidecarMessage::wire_size`] for the flow-tagged encoding: non-zero
    /// flows pay 4 extra bytes for the flow id prefix.
    pub fn wire_size_for_flow(&self, flow: u32) -> u32 {
        self.wire_size() + if flow == 0 { 0 } else { 4 }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quack_roundtrip() {
        let msg = SidecarMessage::Quack {
            epoch: 7,
            bytes: vec![0xDE, 0xAD, 0xBE, 0xEF],
        };
        let (t, body) = msg.encode();
        assert_eq!(t, tag::QUACK);
        assert_eq!(SidecarMessage::decode(t, &body).unwrap(), msg);
    }

    #[test]
    fn configure_roundtrip() {
        let msg = SidecarMessage::Configure {
            interval: SimDuration::from_millis(120),
        };
        let (t, body) = msg.encode();
        assert_eq!(SidecarMessage::decode(t, &body).unwrap(), msg);
    }

    #[test]
    fn reset_roundtrip() {
        let msg = SidecarMessage::Reset { epoch: 42 };
        let (t, body) = msg.encode();
        assert_eq!(SidecarMessage::decode(t, &body).unwrap(), msg);
    }

    #[test]
    fn hello_roundtrip() {
        let msg = SidecarMessage::Hello {
            threshold: 20,
            id_bits: 32,
            count_bits: 16,
            interval: SimDuration::from_millis(60),
        };
        let (t, body) = msg.encode();
        assert_eq!(t, tag::HELLO);
        assert_eq!(body.len(), 14);
        assert_eq!(SidecarMessage::decode(t, &body).unwrap(), msg);
        assert_eq!(
            SidecarMessage::decode(tag::HELLO, &body[..13]),
            Err(MessageError::Truncated)
        );
    }

    #[test]
    fn decode_errors() {
        assert_eq!(
            SidecarMessage::decode(99, &[]),
            Err(MessageError::UnknownTag(99))
        );
        assert_eq!(
            SidecarMessage::decode(tag::QUACK, &[1, 2]),
            Err(MessageError::Truncated)
        );
        assert_eq!(
            SidecarMessage::decode(tag::CONFIGURE, &[0; 7]),
            Err(MessageError::Truncated)
        );
        assert_eq!(
            SidecarMessage::decode(tag::RESET, &[0; 5]),
            Err(MessageError::Truncated)
        );
        assert!(MessageError::UnknownTag(99).to_string().contains("99"));
    }

    #[test]
    fn flow_zero_encodes_legacy() {
        // Flow 0 must stay byte-identical to the untagged encoding so
        // pre-flow-table golden traces and wire sizes are unchanged.
        let msg = SidecarMessage::Quack {
            epoch: 3,
            bytes: vec![1, 2, 3],
        };
        assert_eq!(msg.encode_for_flow(0), msg.encode());
        assert_eq!(msg.wire_size_for_flow(0), msg.wire_size());
    }

    #[test]
    fn flow_tagged_roundtrip_every_message() {
        let msgs = [
            SidecarMessage::Quack {
                epoch: 9,
                bytes: vec![0xAB; 82],
            },
            SidecarMessage::Configure {
                interval: SimDuration::from_millis(7),
            },
            SidecarMessage::Reset { epoch: 11 },
            SidecarMessage::Hello {
                threshold: 20,
                id_bits: 32,
                count_bits: 16,
                interval: SimDuration::from_millis(60),
            },
        ];
        for msg in msgs {
            let (t, body) = msg.encode_for_flow(0xC0FFEE);
            let (legacy_t, _) = msg.encode();
            assert_eq!(t, legacy_t + tag::FLOW_OFFSET);
            assert_eq!(&body[..4], &0xC0FFEE_u32.to_be_bytes());
            let (flow, decoded) = SidecarMessage::decode_flow(t, &body).unwrap();
            assert_eq!(flow, 0xC0FFEE);
            assert_eq!(decoded, msg);
            assert_eq!(msg.wire_size_for_flow(0xC0FFEE), msg.wire_size() + 4);
        }
    }

    #[test]
    fn legacy_tags_decode_as_flow_zero() {
        let msg = SidecarMessage::Reset { epoch: 5 };
        let (t, body) = msg.encode();
        assert_eq!(SidecarMessage::decode_flow(t, &body).unwrap(), (0, msg));
    }

    #[test]
    fn flow_tagged_decode_errors() {
        // Too short for even the flow prefix.
        assert_eq!(
            SidecarMessage::decode_flow(tag::QUACK_FLOW, &[1, 2]),
            Err(MessageError::Truncated)
        );
        // Flow prefix present but inner body truncated (Reset wants 4 bytes).
        assert_eq!(
            SidecarMessage::decode_flow(tag::RESET_FLOW, &[0, 0, 0, 1, 9]),
            Err(MessageError::Truncated)
        );
        // Unknown tag above the flow-tagged range.
        assert_eq!(
            SidecarMessage::decode_flow(99, &[0; 8]),
            Err(MessageError::UnknownTag(99))
        );
    }

    #[test]
    fn auth_tags_are_unknown_to_the_plain_decoders() {
        // Sealed envelopes must be opaque to auth-unaware endpoints: the
        // authenticated twin range falls through `decode_flow`'s range
        // check into the legacy decoder and comes back UnknownTag.
        for t in tag::QUACK_AUTH..=tag::HELLO_FLOW_AUTH {
            assert_eq!(
                SidecarMessage::decode_flow(t, &[0; 64]),
                Err(MessageError::UnknownTag(t)),
            );
            assert_eq!(
                SidecarMessage::decode(t, &[0; 64]),
                Err(MessageError::UnknownTag(t)),
            );
        }
    }

    #[test]
    fn oversized_bodies_rejected_with_typed_error() {
        // Quack body = 4-byte epoch + sketch bytes, so MAX_BODY - 4 sketch
        // bytes is the largest encodable quACK.
        let at_limit = SidecarMessage::Quack {
            epoch: 1,
            bytes: vec![0; MAX_BODY - 4],
        };
        assert!(at_limit.try_encode().is_ok());
        // The same message no longer fits once the 4-byte flow prefix is
        // added.
        assert_eq!(
            at_limit.try_encode_for_flow(7),
            Err(MessageError::Oversized(MAX_BODY + 4))
        );
        let over = SidecarMessage::Quack {
            epoch: 1,
            bytes: vec![0; MAX_BODY - 3],
        };
        assert_eq!(
            over.try_encode(),
            Err(MessageError::Oversized(MAX_BODY + 1))
        );
        assert_eq!(over.try_encode_for_flow(0), over.try_encode());
        let display = MessageError::Oversized(MAX_BODY + 1).to_string();
        assert!(display.contains("65479"), "{display}");
        // wire_size saturates rather than wrapping for oversized bodies.
        assert_eq!(over.wire_size(), HEADER_OVERHEAD + (MAX_BODY as u32) + 1);
    }

    #[test]
    fn paper_quack_wire_size() {
        // An 82-byte quACK plus epoch and headers.
        let msg = SidecarMessage::Quack {
            epoch: 0,
            bytes: vec![0; 82],
        };
        assert_eq!(msg.wire_size(), 28 + 4 + 82);
    }
}
