//! Authenticated, replay-protected control channel (DESIGN.md §12).
//!
//! The paper's §5 asks "how do we handle adversarial proxies?". Without
//! integrity protection a forged quACK can silently steer the division
//! proxy, a replayed quACK can fabricate losses and trigger bogus proxy
//! retransmissions, and a forged `Reset` can desync epochs at will. This
//! module closes that hole with zero new dependencies: an HMAC-SHA256 over
//! the crate's own [`sidecar_quack::sha256`], truncated to a 16-byte tag,
//! carried on *authenticated twin* wire tags (the same twin-tag pattern
//! [`crate::messages::tag::FLOW_OFFSET`] already uses for flow tagging) so
//! legacy and flow-tagged wire images stay byte-identical.
//!
//! ## Envelope wire format
//!
//! An authenticated datagram reuses the inner message's wire tag shifted by
//! [`crate::messages::tag::AUTH_OFFSET`] (so tags 1..=8 become 9..=16) and
//! wraps the inner body in a fixed 36-byte envelope:
//!
//! ```text
//! [key_id: u32 BE][nonce: u64 BE][seq: u64 BE][mac: 16 bytes][inner body…]
//! ```
//!
//! * `key_id` names the pre-shared secret generation in use.
//! * `nonce` is the *sender's* session nonce, picked once per run per
//!   direction; `(key_id, nonce)` identifies the receive session, so
//!   decoding is stateless (IPsec-SPI style) and the very first sealed
//!   message — the handshake `Hello` of [`crate::negotiate`] — is what
//!   establishes the session at the responder. That is the "key-id/nonce
//!   piggybacked on the Hello exchange": the negotiation wire body itself
//!   is unchanged.
//! * `seq` increases monotonically per sender and feeds an RFC 4303-style
//!   sliding [`ReplayWindow`] at the receiver, so within-run replays are
//!   rejected *before* the inner body is even decoded. Cross-run replay is
//!   out of scope: a fresh run re-derives fresh session nonces (and the
//!   simulator's adversary can only capture in-run traffic anyway).
//! * `mac` is the first 16 bytes of `HMAC-SHA256(session_key, domain ||
//!   auth_tag || key_id || nonce || seq || inner_body)` with the
//!   domain-separation string in this module's `DOMAIN`.
//!
//! The per-session key is `HMAC-SHA256(psk, domain || key_id || nonce)` —
//! derived independently by any receiver holding the same pre-shared
//! secret, but distinct per direction because each sender owns its nonce.
//!
//! Authentication is chosen per node at run time (`with_auth`, from the
//! scenario's `auth: Option<AuthConfig>`); there is no build of this crate
//! that cannot authenticate, so a node built `with_auth` never accepts a
//! forgery.

use crate::config::AuthConfig;
use crate::messages::{tag, MessageError, SidecarMessage};
use sidecar_quack::sha256::Sha256;
use std::collections::HashMap;

/// Truncated MAC length carried on the wire (bytes).
pub const MAC_LEN: usize = 16;

/// Fixed envelope overhead of an authenticated datagram body (bytes):
/// key id (4) + nonce (8) + sequence (8) + truncated MAC (16).
pub const AUTH_OVERHEAD: usize = 4 + 8 + 8 + MAC_LEN;

/// Sliding replay-window width in sequence numbers (RFC 4303 uses 64).
pub const REPLAY_WINDOW: u64 = 64;

/// Why an inbound control datagram was rejected by [`ChannelAuth::open`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AuthError {
    /// The datagram does not carry an authenticated twin tag at all. An
    /// authenticated receiver accepts *only* sealed control traffic, so
    /// plain legacy/flow tags (and arbitrary unknown tags) land here.
    NotAuthenticated(u8),
    /// The body is too short to hold the authentication envelope.
    Truncated,
    /// The key id does not name the configured pre-shared secret.
    UnknownKey(u32),
    /// The MAC did not verify: forged or tampered content.
    BadMac,
    /// The sequence number was already accepted (within-run replay).
    Replayed,
    /// The sequence number fell behind the sliding replay window.
    Stale,
    /// The MAC verified but the inner body failed to decode. Honest
    /// senders never produce this; it exists so `open` stays total.
    Malformed(MessageError),
}

impl AuthError {
    /// Stable short label: the suffix of this rejection's metrics counter.
    pub fn kind(&self) -> &'static str {
        match self {
            AuthError::NotAuthenticated(_) => "unauthenticated",
            AuthError::Truncated => "truncated",
            AuthError::UnknownKey(_) => "unknown_key",
            AuthError::BadMac => "bad_mac",
            AuthError::Replayed => "replayed",
            AuthError::Stale => "stale",
            AuthError::Malformed(_) => "malformed",
        }
    }
}

impl core::fmt::Display for AuthError {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        match self {
            AuthError::NotAuthenticated(t) => {
                write!(f, "unauthenticated control datagram (tag {t})")
            }
            AuthError::Truncated => write!(f, "truncated authentication envelope"),
            AuthError::UnknownKey(id) => write!(f, "unknown key id {id}"),
            AuthError::BadMac => write!(f, "MAC verification failed"),
            AuthError::Replayed => write!(f, "replayed control sequence number"),
            AuthError::Stale => write!(f, "control sequence number behind replay window"),
            AuthError::Malformed(e) => write!(f, "authenticated but malformed: {e}"),
        }
    }
}

impl std::error::Error for AuthError {}

/// Counters kept by a [`ChannelAuth`] endpoint.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct AuthStats {
    /// Datagrams sealed and handed to the wire.
    pub sealed: u64,
    /// Inbound datagrams that passed every check.
    pub accepted: u64,
    /// Inbound datagrams rejected (any [`AuthError`]).
    pub rejected: u64,
}

/// An HMAC-SHA256 key (RFC 2104) with its two pad blocks already absorbed:
/// the SHA-256 states after `key ^ ipad` and after `key ^ opad`. A MAC then
/// costs only the message's own blocks plus the outer finish, which is what
/// makes it worth holding one of these per session instead of the raw key.
#[derive(Clone)]
struct HmacKey {
    inner: Sha256,
    outer: Sha256,
}

impl HmacKey {
    fn new(key: &[u8]) -> Self {
        const BLOCK: usize = 64;
        let mut block = [0u8; BLOCK];
        if key.len() > BLOCK {
            block[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let absorbed = |pad: u8| {
            let mut state = Sha256::new();
            state.update(&block.map(|b| b ^ pad));
            state
        };
        HmacKey {
            inner: absorbed(0x36),
            outer: absorbed(0x5c),
        }
    }

    /// The MAC of the concatenation of `parts`, streamed part by part.
    fn mac(&self, parts: &[&[u8]]) -> [u8; 32] {
        let mut inner = self.inner.clone();
        for part in parts {
            inner.update(part);
        }
        let mut outer = self.outer.clone();
        outer.update(&inner.finalize());
        outer.finalize()
    }
}

/// Key material stays out of `{:?}` output.
impl core::fmt::Debug for HmacKey {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.write_str("HmacKey(..)")
    }
}

/// HMAC-SHA256 (RFC 2104) over the crate's own SHA-256 core.
pub fn hmac_sha256(key: &[u8], message: &[u8]) -> [u8; 32] {
    HmacKey::new(key).mac(&[message])
}

/// Domain-separation string for every MAC and key derivation in this
/// module (also the literal CI greps both rlibs for, to prove every build
/// carries the MAC code).
const DOMAIN: &[u8] = b"sidecar-auth-v1";

/// Derives the per-session key for `(key_id, nonce)` from the pre-shared
/// secret. Any endpoint holding `psk` can derive any session's key, which
/// is what makes decoding stateless; directions differ because each sender
/// owns its nonce.
fn session_key(psk: &[u8; 32], key_id: u32, nonce: u64) -> HmacKey {
    HmacKey::new(&HmacKey::new(psk).mac(&[DOMAIN, &key_id.to_be_bytes(), &nonce.to_be_bytes()]))
}

/// Computes the truncated envelope MAC. The authenticated tag byte and the
/// full envelope header are folded in, so nothing outside the (unprotected)
/// link headers is malleable.
fn mac16(
    key: &HmacKey,
    auth_tag: u8,
    key_id: u32,
    nonce: u64,
    seq: u64,
    inner: &[u8],
) -> [u8; MAC_LEN] {
    let full = key.mac(&[
        DOMAIN,
        &[auth_tag],
        &key_id.to_be_bytes(),
        &nonce.to_be_bytes(),
        &seq.to_be_bytes(),
        inner,
    ]);
    let mut out = [0u8; MAC_LEN];
    out.copy_from_slice(&full[..MAC_LEN]);
    out
}

/// Constant-time byte comparison (single accumulated difference bit).
fn ct_eq(a: &[u8], b: &[u8]) -> bool {
    a.len() == b.len() && a.iter().zip(b).fold(0u8, |acc, (x, y)| acc | (x ^ y)) == 0
}

/// RFC 4303-style sliding replay window: highest accepted sequence number
/// plus a 64-bit bitmap of recently accepted ones. Sequence numbers start
/// at 1 (0 is never valid on the wire).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ReplayWindow {
    /// Highest sequence number accepted so far (0 = nothing yet).
    max: u64,
    /// Bit `i` set ⇔ `max - i` was accepted (bit 0 is `max` itself).
    bitmap: u64,
}

impl ReplayWindow {
    /// A fresh window that has accepted nothing.
    pub fn new() -> Self {
        ReplayWindow::default()
    }

    /// Checks `seq` against the window and, when acceptable, marks it
    /// accepted. Exactly one acceptance per sequence number, ever.
    pub fn check_and_update(&mut self, seq: u64) -> Result<(), AuthError> {
        if seq == 0 {
            return Err(AuthError::Stale);
        }
        if self.max == 0 || seq > self.max {
            let shift = seq - self.max;
            self.bitmap = if self.max == 0 || shift >= REPLAY_WINDOW {
                1
            } else {
                (self.bitmap << shift) | 1
            };
            self.max = seq;
            return Ok(());
        }
        let behind = self.max - seq;
        if behind >= REPLAY_WINDOW {
            return Err(AuthError::Stale);
        }
        let bit = 1u64 << behind;
        if self.bitmap & bit != 0 {
            return Err(AuthError::Replayed);
        }
        self.bitmap |= bit;
        Ok(())
    }
}

/// One receive session: the derived key and its replay window.
#[derive(Clone, Debug)]
struct RxSession {
    key: HmacKey,
    window: ReplayWindow,
}

/// One endpoint's authenticated control channel: seals outbound messages
/// under its own `(key_id, nonce)` session and opens inbound datagrams
/// against lazily derived per-sender receive sessions.
///
/// Receive sessions are only cached *after* a MAC verifies, so an attacker
/// spraying bogus nonces cannot grow the session map: every entry proves
/// knowledge of the pre-shared secret.
#[derive(Clone, Debug)]
pub struct ChannelAuth {
    cfg: AuthConfig,
    tx_key: HmacKey,
    tx_seq: u64,
    rx: HashMap<(u32, u64), RxSession>,
    /// Seal/open counters.
    pub stats: AuthStats,
}

impl ChannelAuth {
    /// Creates an endpoint. `cfg.nonce` is this sender's session nonce and
    /// must be unique among the peers sharing `cfg.psk` within a run.
    pub fn new(cfg: AuthConfig) -> Self {
        ChannelAuth {
            tx_key: session_key(&cfg.psk, cfg.key_id, cfg.nonce),
            cfg,
            tx_seq: 0,
            rx: HashMap::new(),
            stats: AuthStats::default(),
        }
    }

    /// Next outbound sequence number (the count of sealed datagrams).
    pub fn tx_seq(&self) -> u64 {
        self.tx_seq
    }

    /// Seals `msg` for `flow` into an authenticated `(tag, body)` pair.
    pub fn seal(&mut self, msg: &SidecarMessage, flow: u32) -> (u8, Vec<u8>) {
        let (inner_tag, inner) = msg.encode_for_flow(flow);
        let auth_tag = inner_tag + tag::AUTH_OFFSET;
        self.tx_seq += 1;
        let mac = mac16(
            &self.tx_key,
            auth_tag,
            self.cfg.key_id,
            self.cfg.nonce,
            self.tx_seq,
            &inner,
        );
        let mut body = Vec::with_capacity(AUTH_OVERHEAD + inner.len());
        body.extend_from_slice(&self.cfg.key_id.to_be_bytes());
        body.extend_from_slice(&self.cfg.nonce.to_be_bytes());
        body.extend_from_slice(&self.tx_seq.to_be_bytes());
        body.extend_from_slice(&mac);
        body.extend_from_slice(&inner);
        self.stats.sealed += 1;
        (auth_tag, body)
    }

    /// Opens an inbound `(tag, body)` pair: envelope parse, key check, MAC
    /// verification, replay-window check, and only *then* the inner decode
    /// — a replayed datagram is rejected before its body is ever parsed.
    pub fn open(&mut self, tag_byte: u8, body: &[u8]) -> Result<(u32, SidecarMessage), AuthError> {
        let res = self.open_inner(tag_byte, body);
        match res {
            Ok(_) => self.stats.accepted += 1,
            Err(_) => self.stats.rejected += 1,
        }
        res
    }

    fn open_inner(
        &mut self,
        tag_byte: u8,
        body: &[u8],
    ) -> Result<(u32, SidecarMessage), AuthError> {
        let lo = tag::QUACK + tag::AUTH_OFFSET;
        let hi = tag::HELLO_FLOW + tag::AUTH_OFFSET;
        if !(lo..=hi).contains(&tag_byte) {
            return Err(AuthError::NotAuthenticated(tag_byte));
        }
        if body.len() < AUTH_OVERHEAD {
            return Err(AuthError::Truncated);
        }
        let key_id = u32::from_be_bytes(body[..4].try_into().expect("4 bytes"));
        let nonce = u64::from_be_bytes(body[4..12].try_into().expect("8 bytes"));
        let seq = u64::from_be_bytes(body[12..20].try_into().expect("8 bytes"));
        let mac = &body[20..20 + MAC_LEN];
        let inner = &body[AUTH_OVERHEAD..];
        if key_id != self.cfg.key_id {
            return Err(AuthError::UnknownKey(key_id));
        }
        // Fetch (or derive) the sender's session key, verify the MAC, and
        // only cache the session once the MAC proves knowledge of the PSK.
        let id = (key_id, nonce);
        let verifies = |key: &HmacKey| ct_eq(&mac16(key, tag_byte, key_id, nonce, seq, inner), mac);
        let window = match self.rx.get_mut(&id) {
            Some(session) if verifies(&session.key) => &mut session.window,
            Some(_) => return Err(AuthError::BadMac),
            None => {
                let key = session_key(&self.cfg.psk, key_id, nonce);
                if !verifies(&key) {
                    return Err(AuthError::BadMac);
                }
                let window = ReplayWindow::new();
                &mut self
                    .rx
                    .entry(id)
                    .or_insert(RxSession { key, window })
                    .window
            }
        };
        window.check_and_update(seq)?;
        SidecarMessage::decode_flow(tag_byte - tag::AUTH_OFFSET, inner)
            .map_err(AuthError::Malformed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use sidecar_netsim::time::SimDuration;

    fn cfg(nonce: u64) -> AuthConfig {
        AuthConfig::from_secret(0xFEED_FACE_CAFE_BEEF, 1).with_nonce(nonce)
    }

    fn sample_messages() -> Vec<SidecarMessage> {
        vec![
            SidecarMessage::Quack {
                epoch: 7,
                bytes: vec![0xAB; 82],
            },
            SidecarMessage::Configure {
                interval: SimDuration::from_millis(9),
            },
            SidecarMessage::Reset { epoch: 41 },
            SidecarMessage::Hello {
                threshold: 20,
                id_bits: 32,
                count_bits: 16,
                interval: SimDuration::from_millis(60),
            },
        ]
    }

    #[test]
    fn hmac_sha256_rfc4231_vectors() {
        // RFC 4231 test case 1.
        let out = hmac_sha256(&[0x0b; 20], b"Hi There");
        let expect = [
            0xb0, 0x34, 0x4c, 0x61, 0xd8, 0xdb, 0x38, 0x53, 0x5c, 0xa8, 0xaf, 0xce, 0xaf, 0x0b,
            0xf1, 0x2b, 0x88, 0x1d, 0xc2, 0x00, 0xc9, 0x83, 0x3d, 0xa7, 0x26, 0xe9, 0x37, 0x6c,
            0x2e, 0x32, 0xcf, 0xf7,
        ];
        assert_eq!(out, expect);
        // RFC 4231 test case 2 ("Jefe").
        let out = hmac_sha256(b"Jefe", b"what do ya want for nothing?");
        let expect = [
            0x5b, 0xdc, 0xc1, 0x46, 0xbf, 0x60, 0x75, 0x4e, 0x6a, 0x04, 0x24, 0x26, 0x08, 0x95,
            0x75, 0xc7, 0x5a, 0x00, 0x3f, 0x08, 0x9d, 0x27, 0x39, 0x83, 0x9d, 0xec, 0x58, 0xb9,
            0x64, 0xec, 0x38, 0x43,
        ];
        assert_eq!(out, expect);
        // RFC 4231 test case 6: key longer than the block size gets hashed.
        let out = hmac_sha256(
            &[0xaa; 131],
            b"Test Using Larger Than Block-Size Key - Hash Key First",
        );
        let expect = [
            0x60, 0xe4, 0x31, 0x59, 0x1e, 0xe0, 0xb6, 0x7f, 0x0d, 0x8a, 0x26, 0xaa, 0xcb, 0xf5,
            0xb7, 0x7f, 0x8e, 0x0b, 0xc6, 0x21, 0x37, 0x28, 0xc5, 0x14, 0x05, 0x46, 0x04, 0x0f,
            0x0e, 0xe3, 0x7f, 0x54,
        ];
        assert_eq!(out, expect);
    }

    #[test]
    fn hmac_sha256_rfc4231_multi_block_vectors() {
        use sidecar_quack::sha256::to_hex;
        // Test case 3: 50 bytes of data, so the inner hash pads into a
        // second block after the ipad block.
        assert_eq!(
            to_hex(&hmac_sha256(&[0xaa; 20], &[0xdd; 50])),
            "773ea91e36800e46854db8ebd09181a72959098b3ef8c122d9635514ced565fe"
        );
        // Test case 4: 25-byte key 0x01..=0x19.
        let key: Vec<u8> = (1..=25u8).collect();
        assert_eq!(
            to_hex(&hmac_sha256(&key, &[0xcd; 50])),
            "82558a389a443c0ea4cc819899f2083a85f0faa3e578f8077a2e3ff46729665b"
        );
        // Test case 7: key *and* data longer than the block size.
        assert_eq!(
            to_hex(&hmac_sha256(
                &[0xaa; 131],
                b"This is a test using a larger than block-size key and a larger \
                  than block-size data. The key needs to be hashed before being \
                  used by the HMAC algorithm."
            )),
            "9b09ffa71b942fcb27635fbcd5b0e944bfdc63644f0713938a7f51535c3a35e2"
        );
    }

    /// RFC 2104 as the textbook writes it — hash `key ^ ipad ‖ message`,
    /// then `key ^ opad ‖ that` — from the raw key on every call. The
    /// reference the cached-state [`HmacKey`] must agree with.
    fn hmac_textbook(key: &[u8], message: &[u8]) -> [u8; 32] {
        let mut block = [0u8; 64];
        if key.len() > 64 {
            block[..32].copy_from_slice(&Sha256::digest(key));
        } else {
            block[..key.len()].copy_from_slice(key);
        }
        let mut inner: Vec<u8> = block.iter().map(|b| b ^ 0x36).collect();
        inner.extend_from_slice(message);
        let mut outer: Vec<u8> = block.iter().map(|b| b ^ 0x5c).collect();
        outer.extend_from_slice(&Sha256::digest(&inner));
        Sha256::digest(&outer)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Streaming a message into a keyed state part by part — any
        /// split, empty parts included — is the one-shot HMAC of the
        /// concatenation, for keys shorter than, equal to and longer than
        /// the hash block, and one key serves many messages.
        #[test]
        fn keyed_streaming_mac_equals_one_shot_hmac(
            key in proptest::collection::vec(any::<u8>(), 0..201),
            message in proptest::collection::vec(any::<u8>(), 0..300),
            cuts in proptest::collection::vec(0usize..300, 0..6),
        ) {
            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (message.len() + 1)).collect();
            cuts.push(0);
            cuts.push(message.len());
            cuts.sort_unstable();
            let parts: Vec<&[u8]> = cuts.windows(2).map(|w| &message[w[0]..w[1]]).collect();
            let keyed = HmacKey::new(&key);
            let want = hmac_textbook(&key, &message);
            prop_assert_eq!(keyed.mac(&parts), want);
            prop_assert_eq!(keyed.mac(&[&message]), want);
            prop_assert_eq!(hmac_sha256(&key, &message), want);
            // The cached states are not consumed by use.
            prop_assert_eq!(keyed.mac(&parts), want);
        }
    }

    #[test]
    fn seal_open_roundtrip_every_variant_and_flow() {
        for flow in [0u32, 1, 0xC0FFEE] {
            let mut tx = ChannelAuth::new(cfg(1));
            let mut rx = ChannelAuth::new(cfg(2));
            for msg in sample_messages() {
                let (t, body) = tx.seal(&msg, flow);
                let (inner_tag, _) = msg.encode_for_flow(flow);
                assert_eq!(t, inner_tag + tag::AUTH_OFFSET);
                let (got_flow, got) = rx.open(t, &body).expect("honest seal must open");
                assert_eq!(got_flow, flow);
                assert_eq!(got, msg);
            }
        }
    }

    #[test]
    fn forged_datagram_with_wrong_psk_is_rejected() {
        let mut attacker = ChannelAuth::new(AuthConfig::from_secret(0x0BAD_0BAD, 1).with_nonce(66));
        let mut rx = ChannelAuth::new(cfg(2));
        let (t, body) = attacker.seal(&SidecarMessage::Reset { epoch: 99 }, 0);
        assert_eq!(rx.open(t, &body), Err(AuthError::BadMac));
        assert_eq!(rx.stats.accepted, 0);
    }

    #[test]
    fn unauthenticated_tags_are_rejected_outright() {
        let mut rx = ChannelAuth::new(cfg(2));
        let msg = SidecarMessage::Reset { epoch: 5 };
        // Legacy and flow-tagged (unsealed) encodings both land outside the
        // authenticated tag range.
        for flow in [0u32, 9] {
            let (t, body) = msg.encode_for_flow(flow);
            assert_eq!(rx.open(t, &body), Err(AuthError::NotAuthenticated(t)));
        }
        assert_eq!(
            rx.open(200, &[0; 64]),
            Err(AuthError::NotAuthenticated(200))
        );
    }

    #[test]
    fn tampered_bytes_are_rejected_everywhere() {
        let mut tx = ChannelAuth::new(cfg(1));
        let (t, body) = tx.seal(
            &SidecarMessage::Quack {
                epoch: 3,
                bytes: vec![0x44; 82],
            },
            7,
        );
        for i in 0..body.len() {
            let mut rx = ChannelAuth::new(cfg(2));
            let mut evil = body.clone();
            evil[i] ^= 0x01;
            let err = rx.open(t, &evil).expect_err("bit flip must be rejected");
            assert!(
                matches!(
                    err,
                    AuthError::BadMac | AuthError::UnknownKey(_) | AuthError::Stale
                ),
                "byte {i}: unexpected {err:?}"
            );
            assert_eq!(rx.stats.accepted, 0);
        }
        // Flipping the tag byte within the authenticated range must fail
        // too (the tag is folded into the MAC).
        let mut rx = ChannelAuth::new(cfg(2));
        let other = if t == tag::QUACK + tag::AUTH_OFFSET {
            tag::RESET + tag::AUTH_OFFSET
        } else {
            tag::QUACK + tag::AUTH_OFFSET
        };
        assert_eq!(rx.open(other, &body), Err(AuthError::BadMac));
    }

    #[test]
    fn truncated_envelope_is_rejected() {
        let mut tx = ChannelAuth::new(cfg(1));
        let (t, body) = tx.seal(&SidecarMessage::Reset { epoch: 1 }, 0);
        let mut rx = ChannelAuth::new(cfg(2));
        assert_eq!(
            rx.open(t, &body[..AUTH_OVERHEAD - 1]),
            Err(AuthError::Truncated)
        );
    }

    #[test]
    fn replayed_datagram_is_rejected_and_only_once_accepted() {
        let mut tx = ChannelAuth::new(cfg(1));
        let mut rx = ChannelAuth::new(cfg(2));
        let (t, body) = tx.seal(&SidecarMessage::Reset { epoch: 1 }, 0);
        assert!(rx.open(t, &body).is_ok());
        for _ in 0..3 {
            assert_eq!(rx.open(t, &body), Err(AuthError::Replayed));
        }
        assert_eq!(rx.stats.accepted, 1);
        assert_eq!(rx.stats.rejected, 3);
    }

    #[test]
    fn sessions_are_directional() {
        // tx seals under nonce 1; a datagram replayed *back at the sender*
        // still verifies (same PSK) but lands in a distinct (key_id, nonce)
        // session — it cannot confuse tx's own outbound sequence space.
        let mut tx = ChannelAuth::new(cfg(1));
        let (t, body) = tx.seal(&SidecarMessage::Reset { epoch: 1 }, 0);
        let mut tx2 = tx.clone();
        assert!(tx2.open(t, &body).is_ok());
        assert_eq!(tx2.open(t, &body), Err(AuthError::Replayed));
    }

    #[test]
    fn wrong_key_id_is_rejected() {
        let mut tx = ChannelAuth::new(cfg(1));
        let (t, body) = tx.seal(&SidecarMessage::Reset { epoch: 1 }, 0);
        let mut rx =
            ChannelAuth::new(AuthConfig::from_secret(0xFEED_FACE_CAFE_BEEF, 2).with_nonce(2));
        assert_eq!(rx.open(t, &body), Err(AuthError::UnknownKey(1)));
    }

    #[test]
    fn replay_window_accepts_reordering_within_the_window() {
        let mut w = ReplayWindow::new();
        assert!(w.check_and_update(10).is_ok());
        assert!(w.check_and_update(7).is_ok());
        assert!(w.check_and_update(9).is_ok());
        assert_eq!(w.check_and_update(7), Err(AuthError::Replayed));
        assert!(w.check_and_update(100).is_ok());
        // 100 - 64 = 36: anything at or below is stale now.
        assert_eq!(w.check_and_update(36), Err(AuthError::Stale));
        assert!(w.check_and_update(37).is_ok());
        assert_eq!(w.check_and_update(0), Err(AuthError::Stale));
    }

    #[test]
    fn auth_wire_overhead_is_fixed() {
        let mut tx = ChannelAuth::new(cfg(1));
        for msg in sample_messages() {
            for flow in [0u32, 5] {
                let (_, inner) = msg.encode_for_flow(flow);
                let (_, sealed) = tx.seal(&msg, flow);
                assert_eq!(sealed.len(), inner.len() + AUTH_OVERHEAD);
            }
        }
    }
}
