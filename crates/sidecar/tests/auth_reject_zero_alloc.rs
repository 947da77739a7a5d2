//! Zero-allocation proof for the control channel's reject path.
//!
//! DESIGN.md §12 promises that a forged control datagram is "rejected
//! before the body parses". An attacker chooses how many forgeries arrive,
//! so the reject path is the one an endpoint may have to run at line rate:
//! it must not touch the allocator either. A counting global allocator
//! wraps the system allocator; after one honest datagram has established a
//! receive session, every way [`ChannelAuth::open`] can refuse a datagram
//! short of a verified MAC — plain tag, truncated envelope, unknown key id,
//! tampered MAC under an established session, and a bogus nonce that makes
//! the receiver derive a session key first — must leave the counter
//! unchanged.
//!
//! This file holds exactly one test: the harness runs test files in one
//! process per file but multiple tests per process on worker threads, and a
//! concurrent test's allocations would race the counter.

use sidecar_proto::{AuthConfig, AuthError, ChannelAuth, SidecarMessage, AUTH_OVERHEAD};
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicU64, Ordering};

/// Counts every allocator entry point that can acquire memory.
struct CountingAlloc;

static ALLOCS: AtomicU64 = AtomicU64::new(0);

// SAFETY: defers entirely to the system allocator; the counter is a relaxed
// atomic with no other side effects.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc(layout) }
    }
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.alloc_zeroed(layout) }
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        unsafe { System.realloc(ptr, layout, new_size) }
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn cfg(nonce: u64) -> AuthConfig {
    AuthConfig::from_secret(0xFEED_FACE_CAFE_BEEF, 1).with_nonce(nonce)
}

#[test]
fn rejected_datagrams_do_not_allocate() {
    let msg = SidecarMessage::Quack {
        epoch: 7,
        bytes: vec![0xAB; 82],
    };
    let mut tx = ChannelAuth::new(cfg(1));
    let mut rx = ChannelAuth::new(cfg(2));

    // Establish tx's receive session at rx, then build every bad datagram
    // up front so the measured window holds nothing but `open` calls.
    let (tag, first) = tx.seal(&msg, 7);
    assert_eq!(rx.open(tag, &first), Ok((7, msg.clone())));
    let (_, sealed) = tx.seal(&msg, 7);
    let mut bad_mac = sealed.clone();
    *bad_mac.last_mut().expect("sealed body") ^= 1;
    let truncated = &sealed[..AUTH_OVERHEAD - 1];
    let mut unknown_key = sealed.clone();
    unknown_key[3] ^= 0x40;
    let mut bogus_nonce = sealed.clone();
    bogus_nonce[11] ^= 0x40;
    let (plain_tag, plain) = msg.encode_for_flow(7);

    let baseline = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..64 {
        assert_eq!(rx.open(tag, &bad_mac), Err(AuthError::BadMac));
        assert_eq!(rx.open(tag, truncated), Err(AuthError::Truncated));
        assert_eq!(rx.open(tag, &unknown_key), Err(AuthError::UnknownKey(65)));
        assert_eq!(rx.open(tag, &bogus_nonce), Err(AuthError::BadMac));
        assert_eq!(
            rx.open(plain_tag, &plain),
            Err(AuthError::NotAuthenticated(plain_tag))
        );
    }
    let rejecting = ALLOCS.load(Ordering::Relaxed) - baseline;
    assert_eq!(rejecting, 0, "refusing a datagram must not allocate");

    assert_eq!(rx.stats.accepted, 1);
    assert_eq!(rx.stats.rejected, 5 * 64);
    // Nothing above disturbed the established session: the untampered
    // datagram still opens.
    assert_eq!(rx.open(tag, &sealed), Ok((7, msg)));
}
