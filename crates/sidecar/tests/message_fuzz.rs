//! Fuzz-style property tests: sidecar message parsing and quACK processing
//! must be total (no panics) over arbitrary byte soup.

use proptest::prelude::*;
use sidecar_galois::Fp32;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_proto::{QuackConsumer, SidecarConfig, SidecarMessage};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Message decoding is total over arbitrary (tag, body) pairs, and every
    /// successfully decoded message re-encodes to the same bytes.
    #[test]
    fn message_decode_is_total_and_roundtrips(tag in any::<u8>(),
                                              body in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok(msg) = SidecarMessage::decode(tag, &body) {
            let (tag2, body2) = msg.encode();
            prop_assert_eq!(tag2, tag);
            prop_assert_eq!(body2, body);
        }
    }

    /// The consumer survives arbitrary quACK bytes at arbitrary epochs with
    /// arbitrary prior state, without panicking.
    #[test]
    fn consumer_processes_arbitrary_bytes_without_panic(
        bytes in proptest::collection::vec(any::<u8>(), 0..128),
        epoch in 0u32..3,
        prior in proptest::collection::vec((any::<u64>(), any::<bool>()), 0..40),
    ) {
        let cfg = SidecarConfig {
            reorder_grace: SimDuration::from_millis(1),
            ..SidecarConfig::paper_default()
        };
        let mut consumer: QuackConsumer<Fp32> = QuackConsumer::new(cfg, SimDuration::from_millis(1));
        for (i, &(id, _)) in prior.iter().enumerate() {
            consumer.record_sent(id, i as u64, SimTime::ZERO);
        }
        let _ = consumer.process_quack(SimTime::ZERO + SimDuration::from_millis(5), epoch, &bytes);
        let _ = consumer.poll_expired(SimTime::ZERO + SimDuration::from_millis(50));
    }

    /// Flow-aware decoding is total over arbitrary (tag, body) pairs, and
    /// every successful decode re-encodes to the same wire image — except
    /// that a flow-tagged body carrying flow 0 canonicalizes to the legacy
    /// encoding (both images decode to the same message).
    #[test]
    fn flow_decode_is_total_and_roundtrips(tag in any::<u8>(),
                                           body in proptest::collection::vec(any::<u8>(), 0..256)) {
        if let Ok((flow, msg)) = SidecarMessage::decode_flow(tag, &body) {
            let (tag2, body2) = msg.clone().encode_for_flow(flow);
            if flow == 0 {
                prop_assert_eq!(SidecarMessage::decode_flow(tag2, &body2), Ok((flow, msg)));
            } else {
                prop_assert_eq!(tag2, tag);
                prop_assert_eq!(body2, body);
            }
        }
    }

    /// Authenticated envelope: sealing any message for any flow under any
    /// session parameters opens to exactly the sealed message, and opening
    /// is total (no panics) over arbitrary byte soup at the auth tags.
    #[test]
    fn sealed_messages_roundtrip_and_open_is_total(
        epoch in any::<u32>(),
        flow in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..128),
        secret in any::<u64>(),
        key_id in any::<u32>(),
        junk_tag in any::<u8>(),
        junk in proptest::collection::vec(any::<u8>(), 0..300),
    ) {
        use sidecar_proto::{AuthConfig, ChannelAuth};

        let cfg = AuthConfig::from_secret(secret, key_id);
        let mut tx = ChannelAuth::new(cfg.with_nonce(1));
        let mut rx = ChannelAuth::new(cfg.with_nonce(2));
        let msg = SidecarMessage::Quack { epoch, bytes: payload };
        let (tag, sealed) = tx.seal(&msg, flow);
        prop_assert_eq!(rx.open(tag, &sealed), Ok((flow, msg)));
        // Arbitrary bytes never panic the opener (and never verify, except
        // for the vanishing 2^-128 MAC-collision case proptest won't hit).
        let _ = rx.open(junk_tag, &junk);
    }

    /// Any single bit flip anywhere in a sealed body is rejected.
    #[test]
    fn sealed_messages_reject_any_single_bit_flip(
        epoch in any::<u32>(),
        flow in any::<u32>(),
        payload in proptest::collection::vec(any::<u8>(), 0..64),
        bit in any::<u16>(),
    ) {
        use sidecar_proto::{AuthConfig, ChannelAuth};

        let cfg = AuthConfig::from_secret(0xF1DE_117E, 3);
        let mut tx = ChannelAuth::new(cfg.with_nonce(1));
        let mut rx = ChannelAuth::new(cfg.with_nonce(2));
        let (tag, mut sealed) = tx.seal(&SidecarMessage::Quack { epoch, bytes: payload }, flow);
        let bit = bit as usize % (sealed.len() * 8);
        sealed[bit / 8] ^= 1 << (bit % 8);
        prop_assert!(rx.open(tag, &sealed).is_err());
    }

    /// The checked encoders agree with the infallible ones below the wire
    /// maximum and reject with a typed error above it — for every variant,
    /// at every flow. Decoding the truncated *image* of an oversized body
    /// (what the old silently-truncating length accounting would have put
    /// on the wire) stays total: it parses as a shorter message or fails
    /// cleanly, never panics.
    #[test]
    fn oversized_encode_rejected_and_truncated_images_decode_totally(
        flow in any::<u32>(),
        pad in 0usize..8,
        cut in 0usize..64,
    ) {
        use sidecar_proto::messages::MAX_BODY;

        let msg = SidecarMessage::Quack { epoch: 9, bytes: vec![0xA5; MAX_BODY - 7 + pad] };
        let (_, body) = msg.encode_for_flow(flow);
        match msg.try_encode_for_flow(flow) {
            Ok((t2, b2)) => {
                prop_assert!(body.len() <= MAX_BODY);
                prop_assert_eq!((t2, b2), msg.encode_for_flow(flow));
            }
            Err(e) => {
                prop_assert!(body.len() > MAX_BODY);
                prop_assert_eq!(e, sidecar_proto::MessageError::Oversized(body.len()));
            }
        }
        // Truncated-length images: decode every prefix an attacker (or the
        // old truncating arithmetic) could present at either tag family.
        let cut = body.len().saturating_sub(cut);
        let (tag, _) = msg.encode_for_flow(flow);
        let _ = SidecarMessage::decode_flow(tag, &body[..cut]);
        let _ = SidecarMessage::decode(tag, &body[..cut]);
    }

    /// Wire roundtrip of every message variant.
    #[test]
    fn every_variant_roundtrips(epoch in any::<u32>(),
                                payload in proptest::collection::vec(any::<u8>(), 0..128),
                                interval_ns in any::<u64>()) {
        let variants = vec![
            SidecarMessage::Quack { epoch, bytes: payload.clone() },
            SidecarMessage::Configure { interval: SimDuration::from_nanos(interval_ns) },
            SidecarMessage::Reset { epoch },
            SidecarMessage::Hello {
                threshold: epoch,
                id_bits: payload.first().copied().unwrap_or(32),
                count_bits: payload.last().copied().unwrap_or(16),
                interval: SimDuration::from_nanos(interval_ns),
            },
        ];
        for msg in variants {
            let (tag, body) = msg.encode();
            prop_assert_eq!(SidecarMessage::decode(tag, &body).unwrap(), msg);
        }
    }
}
