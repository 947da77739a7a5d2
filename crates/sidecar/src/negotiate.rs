//! The handshake offer: one quACK shape per session.
//!
//! The quACK consumer offers §3.2's `(t, b, c)` in a
//! [`SidecarMessage::Hello`]. Both ends must agree on every quACK's
//! `b·t + c` bits, so a producer accepts only its own [`SidecarConfig`]'s
//! shape; on any other offer no session forms and the flow runs end to
//! end. The offered interval is not compared: `Configure` alone sets it.

use crate::config::{QuackFrequency, SidecarConfig};
use crate::messages::SidecarMessage;
use sidecar_netsim::time::SimDuration;

/// Builds the `Hello` offer announcing `config`'s parameters.
pub fn offer(config: &SidecarConfig) -> SidecarMessage {
    let interval = match config.frequency {
        QuackFrequency::Interval(d) | QuackFrequency::Adaptive(d) => d,
        QuackFrequency::EveryPackets(_) => SimDuration::ZERO,
    };
    SidecarMessage::Hello {
        threshold: config.threshold as u32,
        id_bits: config.id_bits as u8,
        count_bits: config.count_bits as u8,
        interval,
    }
}

/// Whether `msg` is a `Hello` offering exactly `spec`'s quACK shape.
pub(crate) fn offers_shape(spec: &SidecarConfig, msg: &SidecarMessage) -> bool {
    let &SidecarMessage::Hello {
        threshold,
        id_bits,
        count_bits,
        ..
    } = msg
    else {
        return false;
    };
    let shape = spec.wire_format();
    (threshold as usize, id_bits.into(), count_bits.into())
        == (shape.threshold, shape.id_bits, shape.count_bits)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn offer_accept_roundtrip() {
        let config = SidecarConfig::paper_default();
        let hello = offer(&config);
        assert!(offers_shape(&config, &hello));
        // The offer survives the wire with its shape intact.
        let (proto, body) = hello.encode_for_flow(7);
        let (_, decoded) = SidecarMessage::decode_flow(proto, &body).unwrap();
        assert_eq!(decoded, hello);
        assert!(offers_shape(&config, &decoded));
    }

    #[test]
    fn packet_count_schedules_survive_the_wire() {
        let config = SidecarConfig {
            frequency: QuackFrequency::EveryPackets(2),
            ..SidecarConfig::paper_default()
        };
        let hello = offer(&config);
        assert!(matches!(
            hello,
            SidecarMessage::Hello { interval, .. } if interval == SimDuration::ZERO
        ));
        let (proto, body) = hello.encode_for_flow(0);
        let (_, decoded) = SidecarMessage::decode_flow(proto, &body).unwrap();
        assert!(offers_shape(&config, &decoded));
    }

    #[test]
    fn rejections() {
        let base = SidecarConfig::paper_default();
        let differ = [
            SidecarConfig {
                threshold: base.threshold + 1,
                ..base
            },
            SidecarConfig {
                threshold: base.threshold - 1,
                ..base
            },
            SidecarConfig {
                id_bits: 16,
                ..base
            },
            SidecarConfig {
                id_bits: 64,
                ..base
            },
            SidecarConfig {
                count_bits: 0,
                ..base
            },
            SidecarConfig {
                count_bits: 32,
                ..base
            },
        ];
        for other in differ {
            assert!(!offers_shape(&base, &offer(&other)), "{other:?}");
            assert!(!offers_shape(&other, &offer(&base)), "{other:?}");
        }
        // The interval is no part of the shape: `Configure` sets it.
        for frequency in [
            QuackFrequency::Interval(SimDuration::from_secs(3600)),
            QuackFrequency::Adaptive(SimDuration::from_millis(1)),
            QuackFrequency::EveryPackets(32),
        ] {
            let other = SidecarConfig { frequency, ..base };
            assert!(offers_shape(&base, &offer(&other)), "{other:?}");
        }
    }

    #[test]
    fn responder_grace_is_local_policy() {
        // Grace never travels: an offer from a side with other reordering
        // slack is the same offer.
        let config = SidecarConfig::paper_default();
        let other = SidecarConfig {
            reorder_grace: SimDuration::from_millis(42),
            ..config
        };
        assert_eq!(offer(&other), offer(&config));
        assert!(offers_shape(&config, &offer(&other)));
    }

    #[test]
    fn non_hello_is_a_typed_error() {
        // Any sidecar datagram can land where a handshake is expected; a
        // message that is not a `Hello` is not an offer.
        for msg in [
            SidecarMessage::Reset { epoch: 1 },
            SidecarMessage::Configure {
                interval: SimDuration::from_millis(5),
            },
            SidecarMessage::Quack {
                epoch: 0,
                bytes: vec![0u8; 82],
            },
        ] {
            assert!(!offers_shape(&SidecarConfig::paper_default(), &msg));
        }
    }
}
