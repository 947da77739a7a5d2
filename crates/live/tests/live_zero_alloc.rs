//! Steady-state zero-allocation proof for the live driver's I/O loop, and
//! proof that the loop runs on the caller's thread alone.
//!
//! The counting allocator is `netsim/tests/zero_alloc.rs`'s. A forwarder
//! relays 32-packet bursts between two loopback socket pairs; after a
//! warm-up, a thousand more bursts must not touch the allocator — each
//! datagram is received into and decoded from the driver's one buffer, and
//! encoded into its other — and attaching sockets plus running must not
//! have started a thread.
//!
//! This file holds exactly one test: the harness runs test files in one
//! process per file but multiple tests per process on worker threads, and a
//! concurrent test's allocations would race the counter.

use sidecar_live::{loopback_pair, wire, LiveDriver};
use sidecar_netsim::node::{Context, IfaceId, Node};
use sidecar_netsim::packet::{FlowId, Packet};
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::Driver;
use std::alloc::{GlobalAlloc, Layout, System};
use std::any::Any;
use std::net::UdpSocket;
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

/// Relays every packet out of the other interface.
struct Forwarder;

impl Node for Forwarder {
    fn on_packet(&mut self, iface: IfaceId, packet: Packet, ctx: &mut Context) {
        ctx.send(IfaceId(1 - iface.0), packet);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

const BURST: u64 = 32;

/// Threads of this process.
fn threads() -> usize {
    std::fs::read_dir("/proc/self/task")
        .expect("read /proc/self/task")
        .count()
}

/// Sends one burst into the forwarder and runs the driver in short slices
/// until the whole burst has come out the other side.
fn relay_burst(driver: &mut LiveDriver, gen: &UdpSocket, sink: &UdpSocket, images: &[Vec<u8>]) {
    for image in images {
        gen.send(image).expect("send into the relay");
    }
    let mut buf = [0u8; 256];
    let mut landed = 0;
    for _ in 0..1_000 {
        let deadline = driver.now() + SimDuration::from_micros(200);
        driver.run_until(deadline);
        while sink.recv(&mut buf).is_ok() {
            landed += 1;
        }
        if landed == images.len() {
            return;
        }
    }
    panic!("only {landed} of {} packets came through", images.len());
}

#[test]
fn steady_state_relay_is_zero_alloc_on_one_thread() {
    let threads_before = threads();
    let mut driver = LiveDriver::new(9);
    let fwd = driver.install(Box::new(Forwarder));
    let (gen, in_sock) = loopback_pair().expect("bind loopback pair");
    let (out_sock, sink) = loopback_pair().expect("bind loopback pair");
    let (gen_addr, sink_addr) = (gen.local_addr().unwrap(), sink.local_addr().unwrap());
    driver
        .attach_socket(fwd, IfaceId(0), in_sock, gen_addr)
        .expect("attach");
    driver
        .attach_socket(fwd, IfaceId(1), out_sock, sink_addr)
        .expect("attach");
    sink.set_nonblocking(true).expect("set nonblocking");
    let images: Vec<Vec<u8>> = (0..BURST)
        .map(|seq| {
            wire::encode(&Packet::data(
                FlowId(1),
                seq,
                seq * 31 + 7,
                1200,
                SimTime::ZERO,
            ))
        })
        .collect();

    // Warm-up: the trace ring, interned metrics, the action pool and the
    // encode buffer reach their plateau.
    for _ in 0..200 {
        relay_burst(&mut driver, &gen, &sink, &images);
    }
    let before = ALLOCS.load(Ordering::Relaxed);
    for _ in 0..1_000 {
        relay_burst(&mut driver, &gen, &sink, &images);
    }
    let allocs = ALLOCS.load(Ordering::Relaxed) - before;
    let threads_after = threads();

    assert_eq!(driver.stats().packets_in, 1_200 * BURST);
    assert_eq!(
        allocs,
        0,
        "the I/O loop allocated {allocs} times over {} packets",
        1_000 * BURST
    );
    assert_eq!(
        threads_after, threads_before,
        "attaching sockets and running started threads"
    );
}
