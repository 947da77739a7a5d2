//! Adversarial-input robustness for the quACK consumer.
//!
//! The paper's §5 asks "how do we handle adversarial proxies?" — full
//! answers need authentication (out of scope for the sketch itself), but
//! the consumer must at minimum survive malformed, forged, replayed, and
//! corrupted quACKs without panicking, corrupting its mirror, or
//! fabricating losses, and must recover once honest quACKs resume. These
//! tests pin that contract down.

use sidecar_galois::Fp32;
use sidecar_netsim::link::LinkConfig;
use sidecar_netsim::node::{Context, IfaceId, Node};
use sidecar_netsim::packet::{FlowId, Packet};
use sidecar_netsim::rng::SimRng;
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::World;
use sidecar_proto::{ProcessError, QuackConsumer, QuackProducer, SidecarConfig, SidecarMessage};

fn cfg() -> SidecarConfig {
    SidecarConfig {
        reorder_grace: SimDuration::from_millis(5),
        ..SidecarConfig::paper_default()
    }
}

fn t(ms: u64) -> SimTime {
    SimTime::ZERO + SimDuration::from_millis(ms)
}

fn quack_bytes(msg: SidecarMessage) -> (u32, Vec<u8>) {
    match msg {
        SidecarMessage::Quack { epoch, bytes } => (epoch, bytes),
        other => panic!("expected quack, got {other:?}"),
    }
}

/// A healthy exchange to set up state.
fn setup(n: u64) -> (QuackProducer<Fp32>, QuackConsumer<Fp32>) {
    let mut producer = QuackProducer::new(cfg());
    let mut consumer = QuackConsumer::new(cfg(), SimDuration::from_millis(5));
    for i in 0..n {
        let id = i * 101 + 3;
        consumer.record_sent(id, i, t(0));
        producer.observe(id);
    }
    (producer, consumer)
}

#[test]
fn wrong_length_bytes_rejected_cleanly() {
    let (_, mut consumer) = setup(10);
    for len in [0usize, 1, 81, 83, 4096] {
        let junk = vec![0xAAu8; len];
        assert_eq!(
            consumer.process_quack(t(10), 0, &junk),
            Err(ProcessError::Malformed),
            "len {len}"
        );
    }
    // State untouched: an honest quACK still settles everything.
    let (mut producer, consumer2) = setup(10);
    let _ = consumer2; // fresh pair for the happy path
    let (epoch, bytes) = quack_bytes(producer.emit());
    let report = consumer.process_quack(t(20), epoch, &bytes).unwrap();
    assert_eq!(report.received.len(), 10);
}

#[test]
fn non_canonical_power_sums_rejected() {
    let (_, mut consumer) = setup(5);
    // 82 bytes of 0xFF: every 32-bit sum is 0xFFFF_FFFF >= p.
    let forged = vec![0xFFu8; 82];
    assert_eq!(
        consumer.process_quack(t(10), 0, &forged),
        Err(ProcessError::Malformed)
    );
}

#[test]
fn replayed_quack_is_idempotent() {
    let (mut producer, mut consumer) = setup(30);
    // One packet missing.
    let extra = 99_999u64;
    consumer.record_sent(extra, 30, t(1));
    let (epoch, bytes) = quack_bytes(producer.emit());
    let r1 = consumer.process_quack(t(10), epoch, &bytes).unwrap();
    assert_eq!(r1.received.len(), 30);
    // Replay the identical quACK (attacker or network duplicate): count is
    // unchanged, so it re-processes harmlessly — no new verdicts appear.
    let r2 = consumer.process_quack(t(11), epoch, &bytes).unwrap();
    assert!(r2.received.is_empty());
    assert!(r2.newly_missing.len() <= 1); // the same straggler at most once
    assert_eq!(consumer.stats.confirmed_received, 30);
}

#[test]
fn forged_count_ahead_of_mirror_demands_reset_not_panic() {
    let (mut producer, mut consumer) = setup(10);
    // Attacker claims to have received far more than was ever sent: take a
    // legitimate quACK and graft an inflated count into the trailing c bits.
    let (epoch, mut bytes) = quack_bytes(producer.emit());
    let len = bytes.len();
    bytes[len - 2] = 0xFF;
    bytes[len - 1] = 0xF0;
    let result = consumer.process_quack(t(10), epoch, &bytes);
    assert!(
        matches!(
            result,
            Err(ProcessError::ThresholdExceeded { .. }) | Err(ProcessError::CountInconsistent)
        ),
        "got {result:?}"
    );
    // Recovery: coordinated reset, then honest operation resumes.
    let next = consumer.epoch() + 1;
    let _ = consumer.reset(next);
    producer.reset(next);
    for i in 0..5u64 {
        let id = i + 70_000;
        consumer.record_sent(id, i, t(20));
        producer.observe(id);
    }
    let (e, b) = quack_bytes(producer.emit());
    let report = consumer.process_quack(t(30), e, &b).unwrap();
    assert_eq!(report.received.len(), 5);
}

#[test]
fn random_bit_flips_never_panic_and_never_fabricate_losses_silently() {
    let mut rng = SimRng::new(0xBAD);
    for trial in 0..200u64 {
        let (mut producer, mut consumer) = setup(50);
        let (epoch, mut bytes) = quack_bytes(producer.emit());
        // Flip 1..8 random bits.
        let flips = 1 + (rng.next_u64() % 8) as usize;
        for _ in 0..flips {
            let bit = rng.below(bytes.len() as u64 * 8);
            bytes[(bit / 8) as usize] ^= 1 << (bit % 8);
        }
        // Must not panic; any Ok result must not confirm losses for
        // delivered packets *immediately* (they would need grace expiry,
        // and a later honest quACK resurrects them first).
        match consumer.process_quack(t(10), epoch, &bytes) {
            Ok(_) | Err(_) => {}
        }
        // Honest follow-up: emit a fresh quACK covering one more packet.
        let id = 1_000_000 + trial;
        consumer.record_sent(id, 50, t(11));
        producer.observe(id);
        let (e, b) = quack_bytes(producer.emit());
        match consumer.process_quack(t(12), e, &b) {
            Ok(report) => {
                // Any limbo verdicts the corruption caused are resurrected
                // by the honest quACK before grace expires…
                let _ = report;
                let losses = consumer.poll_expired(t(20));
                assert!(
                    losses.is_empty(),
                    "trial {trial}: corrupted quACK caused {} false losses",
                    losses.len()
                );
            }
            Err(ProcessError::Stale) => {
                // A bit flip that inflated the count makes honest quACKs
                // look stale — a real (documented) DoS vector absent
                // authentication; the consumer stays consistent and a
                // reset recovers.
                let next = consumer.epoch() + 1;
                let _ = consumer.reset(next);
                producer.reset(next);
            }
            Err(_) => {}
        }
    }
}

/// With the authenticated channel, replayed quACKs die at the envelope:
/// the replay window rejects the duplicate sequence number before the
/// power-sum payload is ever decoded, so the consumer never even sees it.
#[test]
fn replayed_sealed_quack_rejected_before_decode() {
    use sidecar_proto::{AuthConfig, AuthError, ChannelAuth};

    let psk = AuthConfig::from_secret(0xD00D_F00D, 9);
    let mut tx = ChannelAuth::new(psk.with_nonce(1));
    let mut rx = ChannelAuth::new(psk.with_nonce(2));

    let (mut producer, mut consumer) = setup(12);
    let (epoch, bytes) = quack_bytes(producer.emit());
    let msg = SidecarMessage::Quack {
        epoch,
        bytes: bytes.clone(),
    };
    let (tag, sealed) = tx.seal(&msg, 5);

    // First delivery verifies and yields the inner quACK…
    let (flow, opened) = rx.open(tag, &sealed).expect("honest quACK verifies");
    assert_eq!(flow, 5);
    let (e, b) = quack_bytes(opened);
    assert_eq!(
        consumer.process_quack(t(10), e, &b).unwrap().received.len(),
        12
    );

    // …but the byte-identical replay is killed by the replay window. The
    // payload is still perfectly well-formed — the error is `Replayed`,
    // not a decode failure, proving rejection happens before decode.
    assert_eq!(rx.open(tag, &sealed), Err(AuthError::Replayed));
    assert_eq!(rx.stats.rejected, 1);
    // The consumer's mirror never saw the replay: still exactly 12.
    assert_eq!(consumer.stats.confirmed_received, 12);
}

/// A forged plain-wire quACK (the strongest thing an attacker without the
/// PSK can build) is rejected as unauthenticated by an authenticated
/// receiver — again without touching the quACK decoder.
#[test]
fn forged_and_tampered_datagrams_rejected_at_the_envelope() {
    use sidecar_proto::{AuthConfig, AuthError, ChannelAuth, AUTH_OVERHEAD};

    let psk = AuthConfig::from_secret(0xD00D_F00D, 9);
    let mut tx = ChannelAuth::new(psk.with_nonce(1));
    let mut rx = ChannelAuth::new(psk.with_nonce(2));

    // Forgery: well-formed legacy encoding, no MAC.
    let (mut producer, _) = setup(8);
    let forged = producer.emit();
    let (plain_tag, plain_body) = forged.encode_for_flow(5);
    assert_eq!(
        rx.open(plain_tag, &plain_body),
        Err(AuthError::NotAuthenticated(plain_tag))
    );

    // Tampering: flip one bit of a sealed datagram's inner payload.
    let (tag, mut sealed) = tx.seal(&producer.emit(), 5);
    sealed[AUTH_OVERHEAD + 3] ^= 0x40;
    assert_eq!(rx.open(tag, &sealed), Err(AuthError::BadMac));
    assert_eq!(rx.stats.rejected, 2);
    assert_eq!(rx.stats.accepted, 0);
}

/// Sends its scripted control datagrams, one per timer, and counts what
/// comes back.
struct ControlPeer {
    script: Vec<(SimDuration, u8, Vec<u8>)>,
    replies: usize,
}

impl Node for ControlPeer {
    fn on_start(&mut self, ctx: &mut Context) {
        for (token, (at, ..)) in self.script.iter().enumerate() {
            ctx.set_timer_after(*at, token as u64);
        }
    }

    fn on_packet(&mut self, _iface: IfaceId, _packet: Packet, _ctx: &mut Context) {
        self.replies += 1;
    }

    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        let (_, proto, body) = self.script[token as usize].clone();
        let size = body.len() as u32;
        ctx.send(
            IfaceId(0),
            Packet::sidecar(FlowId(5), proto, body, size, ctx.now()),
        );
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// A node built `with_auth` never acts on a forgery, in whatever
/// configuration this test binary was compiled: a `Hello` sealed under the
/// wrong pre-shared secret and a plain (unsealed) `Reset` create no session
/// and draw no reply, while the same `Hello` under the right secret does
/// both.
#[test]
fn node_built_with_auth_rejects_wrong_psk_and_unsealed_control() {
    use sidecar_proto::protocols::retx::ReceiverSideProxy;
    use sidecar_proto::{offer, AuthConfig, ChannelAuth};

    let psk = AuthConfig::from_secret(0xD00D_F00D, 9);
    let hello = offer(&cfg());
    let wrong =
        ChannelAuth::new(AuthConfig::from_secret(0xBAD_5EC2E7, 9).with_nonce(1)).seal(&hello, 5);
    let plain = SidecarMessage::Reset { epoch: 3 }.encode_for_flow(5);
    let honest = ChannelAuth::new(psk.with_nonce(1)).seal(&hello, 5);
    let ms = SimDuration::from_millis;

    let mut w = World::new(7);
    let peer = w.add_node(Box::new(ControlPeer {
        script: vec![
            (ms(0), wrong.0, wrong.1),
            (ms(1), plain.0, plain.1),
            (ms(10), honest.0, honest.1),
        ],
        replies: 0,
    }));
    let proxy = w.add_node(Box::new(
        ReceiverSideProxy::new(cfg()).with_auth(psk.with_nonce(2)),
    ));
    w.connect(peer, proxy, LinkConfig::default(), LinkConfig::default());

    w.run_until(t(9));
    assert_eq!(w.node_as::<ReceiverSideProxy>(proxy).live_flows(), 0);
    assert_eq!(w.node_as::<ControlPeer>(peer).replies, 0);

    w.run_until(t(15));
    assert_eq!(w.node_as::<ReceiverSideProxy>(proxy).live_flows(), 1);
    assert!(w.node_as::<ControlPeer>(peer).replies >= 1);
}

#[test]
fn stale_count_dos_is_bounded_by_reset() {
    // Deliberate version of the DoS above: attacker replays a forged high
    // count; honest quACKs then read as stale until a reset.
    let (mut producer, mut consumer) = setup(10);
    let (epoch, mut bytes) = quack_bytes(producer.emit());
    let len = bytes.len();
    // Forge count = real + 100 (within threshold so it processes).
    let real_count = u16::from_be_bytes([bytes[len - 2], bytes[len - 1]]);
    let forged = real_count.wrapping_add(15);
    bytes[len - 2..].copy_from_slice(&forged.to_be_bytes());
    // The forged quACK claims 15 *extra* receptions: count ahead of the
    // mirror ⇒ inconsistency or garbage decode; either error or a stale
    // mark may result. Whatever happens must not panic…
    let _ = consumer.process_quack(t(10), epoch, &bytes);
    // …and after the (possibly needed) reset, the pair works again.
    let next = consumer.epoch() + 1;
    let _ = consumer.reset(next);
    producer.reset(next);
    for i in 0..3u64 {
        let id = i + 1;
        consumer.record_sent(id, i, t(20));
        producer.observe(id);
    }
    let (e, b) = quack_bytes(producer.emit());
    assert_eq!(
        consumer.process_quack(t(30), e, &b).unwrap().received.len(),
        3
    );
}
