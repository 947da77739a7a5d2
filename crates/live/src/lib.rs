//! Live UDP datapath for the Sidecar reproduction.
//!
//! The protocols in this repo (transport, sidecars, supervision, auth, the
//! flow table) are sans-IO [`Node`] state machines. The simulator hosts them
//! behind [`sidecar_netsim::Driver`]; [`LiveDriver`] is the other host, and
//! runs the *same unmodified state machines* over real `UdpSocket`s.
//!
//! Design constraints (and how they are met):
//!
//! * **One thread, no async runtime.** Sockets are non-blocking; the run
//!   loop fires due timers, delivers injected packets, then reads each
//!   socket into one driver-owned buffer until `WouldBlock` (a few dozen
//!   datagrams per turn, so a flooded socket cannot starve the rest) and
//!   decodes in place. Callbacks run only there: nodes need no locks.
//! * **Parking is one `ppoll(2)`.** A sweep that reads nothing blocks in
//!   `ppoll` over every socket until one is readable or the next timer or
//!   the deadline is due. std cannot wait on several sockets: reader
//!   threads cannot share one with a draining loop (`O_NONBLOCK` and
//!   `SO_RCVTIMEO` live on the open file description `try_clone` shares),
//!   and a `yield_now` spin nearly doubled the CPU per packet. So the crate
//!   is `deny(unsafe_code)` with one audited exception, `sys.rs`.
//! * **One clock.** Wall time since a monotonic [`Instant`] epoch maps onto
//!   the simulator's nanosecond [`SimTime`] axis, so every timestamp a
//!   protocol sees (RTT samples, deadlines, trace stamps) is in one domain.
//! * **Simulator-faithful timers.** A binary heap ordered by
//!   `(deadline, arm order)` fires each timer *at its armed deadline* even
//!   when the OS wakes the loop late — `GuardedTimer` and friends compare
//!   fire time to deadline by equality, per the [`Driver`] dispatch rules.
//! * **Flight recorder parity.** Egress, ingress and policy losses go
//!   through the [`WorldObs`] hop taps the simulator's links call
//!   (`hop_enqueue`, `hop_deliver`, `hop_drop`), so [`sidecar_obs::Lifecycle`]
//!   certifies a live run with the same code path as a simulated one.
//!
//! What a live host *cannot* promise (see the [`Driver`] module docs):
//! FIFO delivery, loss-free links, or bit-exact reproducibility. The
//! loopback suite certifies causal invariants instead of byte-identical
//! traces.

#![deny(unsafe_code)]
#![warn(missing_docs)]

pub mod admin;
pub mod cli;
mod sys;
pub mod wire;

use sidecar_netsim::node::{Action, Context, IfaceId, Node, NodeId};
use sidecar_netsim::obs::WorldObs;
use sidecar_netsim::packet::{Packet, PacketKind};
use sidecar_netsim::rng::SimRng;
use sidecar_netsim::time::SimTime;
use sidecar_netsim::Driver;
use sidecar_obs::DropCause;
use std::cmp::Reverse;
use std::collections::{BinaryHeap, HashSet, VecDeque};
use std::io::ErrorKind;
use std::net::{SocketAddr, UdpSocket};
use std::time::{Duration, Instant};

/// Most datagrams one socket's turn of a sweep reads.
const BURST: usize = 32;

/// Per-run counters the live driver keeps about itself (the bench reads
/// these to price the per-packet dispatch overhead).
#[derive(Clone, Copy, Debug, Default)]
pub struct DriverStats {
    /// Node callbacks dispatched (packets + timers + starts).
    pub dispatches: u64,
    /// Wall nanoseconds spent inside node callbacks and action application.
    pub dispatch_ns: u64,
    /// Datagrams decoded and delivered to a node.
    pub packets_in: u64,
    /// Datagrams encoded and handed to the kernel.
    pub packets_out: u64,
    /// Egress packets dropped by the deterministic loss policy.
    pub dropped_by_policy: u64,
    /// Datagrams the kernel refused to send.
    pub send_errors: u64,
    /// Ingress datagrams that failed [`wire::decode`].
    pub decode_errors: u64,
    /// Receive errors other than `WouldBlock` (e.g. the ICMP refusal of an
    /// earlier send, reported once); reading carries on past them.
    pub recv_errors: u64,
}

/// One pending timer, ordered by `(deadline, unique arm sequence)`: equal
/// deadlines fire in arm order, like the simulator's stable event queue.
#[derive(PartialEq, Eq, PartialOrd, Ord)]
struct TimerEntry {
    at: SimTime,
    seq: u64,
    node: NodeId,
    token: u64,
    handle: u64,
}

/// A node interface bound to a (non-blocking) socket.
struct Port {
    node: NodeId,
    iface: IfaceId,
    socket: UdpSocket,
    peer: SocketAddr,
    /// `Some(n)`: drop every `n`-th data packet here (the live twin of the
    /// simulator's loss models, deterministic so tests reproduce).
    drop_every: Option<u64>,
    /// Data packets that reached this port (drives `drop_every`).
    data_seen: u64,
}

/// Hosts sans-IO [`Node`] state machines over real UDP sockets. See the
/// crate docs for the design; see [`sidecar_netsim::driver`] for the
/// dispatch rules this implementation upholds.
pub struct LiveDriver {
    /// Wall-clock origin: driver time 0.
    epoch: Instant,
    /// High-water mark of dispatched time (monotone).
    now: SimTime,
    nodes: Vec<Option<Box<dyn Node>>>,
    started: bool,
    rng: SimRng,
    obs: WorldObs,
    timers: BinaryHeap<Reverse<TimerEntry>>,
    cancelled: HashSet<u64>,
    /// Next timer-handle value (run-unique, threaded through
    /// `Context::set_handle_base`). Starts at 1 so handle 0 never exists.
    handle_seq: u64,
    arm_seq: u64,
    /// Two to four entries in practice: found by a linear scan.
    ports: Vec<Port>,
    /// `ports`' sockets, in the same order, as `ppoll` wants them.
    poll_fds: Vec<sys::PollFd>,
    /// Packets from [`Driver::inject`] not yet delivered.
    injected: VecDeque<(NodeId, IfaceId, Packet)>,
    /// Every datagram is received into, and decoded from, this buffer.
    rx_buf: Vec<u8>,
    /// Every datagram is encoded into, and sent from, this buffer.
    tx_buf: Vec<u8>,
    /// Pooled action buffer (steady-state dispatch allocates nothing).
    actions: Vec<Action>,
    stats: DriverStats,
}

impl LiveDriver {
    /// Creates a driver whose clock starts at 0 now. `seed` feeds the
    /// deterministic RNG handed to node callbacks.
    pub fn new(seed: u64) -> Self {
        LiveDriver {
            epoch: Instant::now(),
            now: SimTime::ZERO,
            nodes: Vec::new(),
            started: false,
            rng: SimRng::new(seed),
            obs: WorldObs::new(),
            timers: BinaryHeap::new(),
            cancelled: HashSet::new(),
            handle_seq: 1,
            arm_seq: 0,
            ports: Vec::new(),
            poll_fds: Vec::new(),
            injected: VecDeque::new(),
            rx_buf: vec![0; wire::MAX_DATAGRAM],
            tx_buf: Vec::new(),
            actions: Vec::new(),
            stats: DriverStats::default(),
        }
    }

    /// This driver's observability state (metrics + event trace).
    pub fn obs(&self) -> &WorldObs {
        &self.obs
    }

    /// Mutable observability state.
    pub fn obs_mut(&mut self) -> &mut WorldObs {
        &mut self.obs
    }

    /// The driver's self-measurement counters.
    pub fn stats(&self) -> DriverStats {
        self.stats
    }

    /// Binds `node`'s interface `iface` to a socket, which the driver makes
    /// non-blocking: datagrams arriving on it are decoded and dispatched to
    /// the node, and the node's sends out of `iface` go to `peer`. Must be
    /// called before the first `run_until`.
    pub fn attach_socket(
        &mut self,
        node: NodeId,
        iface: IfaceId,
        socket: UdpSocket,
        peer: SocketAddr,
    ) -> std::io::Result<()> {
        assert!(!self.started, "attach sockets before the driver runs");
        assert!(node.0 < self.nodes.len(), "unknown {node:?}");
        socket.set_nonblocking(true)?;
        self.poll_fds.push(sys::PollFd::readable(&socket));
        self.ports.push(Port {
            node,
            iface,
            socket,
            peer,
            drop_every: None,
            data_seen: 0,
        });
        Ok(())
    }

    /// Deterministically drops every `every`-th **data** packet the node
    /// sends out of `iface` (recorded as a `HopDrop` loss, exactly like a
    /// simulated lossy link). Control and ACK packets are never dropped.
    pub fn set_egress_loss(&mut self, node: NodeId, iface: IfaceId, every: u64) {
        assert!(every > 0, "drop period must be positive");
        let port = self
            .ports
            .iter_mut()
            .find(|p| p.node == node && p.iface == iface)
            .expect("attach the socket before configuring loss");
        port.drop_every = Some(every);
    }

    /// Wall time on the driver axis (never behind dispatched time).
    fn wall_now(&self) -> SimTime {
        let wall =
            SimTime::from_nanos(self.epoch.elapsed().as_nanos().min(u64::MAX as u128) as u64);
        wall.max(self.now)
    }

    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        let at = self.wall_now();
        for i in 0..self.nodes.len() {
            self.dispatch(NodeId(i), at, |node, ctx| node.on_start(ctx));
        }
    }

    /// Earliest live (uncancelled) timer deadline.
    fn next_timer_at(&mut self) -> Option<SimTime> {
        while let Some(Reverse(entry)) = self.timers.peek() {
            if self.cancelled.remove(&entry.handle) {
                self.timers.pop();
                continue;
            }
            return Some(entry.at);
        }
        None
    }

    /// Fires every uncancelled timer with `deadline <= limit`, each at its
    /// own armed deadline in `(deadline, arm order)` sequence.
    fn fire_due_timers(&mut self, limit: SimTime) {
        loop {
            match self.timers.peek() {
                Some(Reverse(entry)) if entry.at <= limit => {}
                _ => return,
            }
            let Reverse(entry) = self.timers.pop().expect("peeked");
            if self.cancelled.remove(&entry.handle) {
                continue;
            }
            let (node, token, at) = (entry.node, entry.token, entry.at);
            self.dispatch(node, at, |n, ctx| n.on_timer(token, ctx));
        }
    }

    /// Runs one callback at `at`, then applies its recorded actions.
    fn dispatch<F>(&mut self, id: NodeId, at: SimTime, f: F)
    where
        F: FnOnce(&mut dyn Node, &mut Context),
    {
        debug_assert!(at >= self.now, "clock must not run backwards");
        self.now = self.now.max(at);
        let mut node = self.nodes[id.0].take().expect("re-entrant dispatch");
        let mut actions = std::mem::take(&mut self.actions);
        debug_assert!(actions.is_empty());
        let t0 = Instant::now();
        {
            let mut ctx = Context::with_obs(
                self.now,
                id,
                &mut self.rng,
                &mut actions,
                Some(&mut self.obs),
            );
            ctx.set_handle_base(self.handle_seq);
            f(node.as_mut(), &mut ctx);
        }
        self.nodes[id.0] = Some(node);
        for action in actions.drain(..) {
            match action {
                Action::Send { iface, packet } => self.transmit(id, iface, packet),
                Action::Timer { at, token, handle } => {
                    self.handle_seq = handle.raw() + 1;
                    self.arm_seq += 1;
                    self.timers.push(Reverse(TimerEntry {
                        at: at.max(self.now),
                        seq: self.arm_seq,
                        node: id,
                        token,
                        handle: handle.raw(),
                    }));
                }
                Action::CancelTimer { handle } => {
                    self.cancelled.insert(handle.raw());
                }
            }
        }
        self.stats.dispatch_ns += t0.elapsed().as_nanos() as u64;
        self.stats.dispatches += 1;
        self.actions = actions;
    }

    /// Encodes and sends one packet out of `(node, iface)`'s attached
    /// socket, applying the deterministic loss policy and recording the
    /// hop exactly as the simulator's link layer would: `HopEnqueue` only
    /// on a successful handoff, `HopDrop` (and no enqueue) otherwise.
    fn transmit(&mut self, node: NodeId, iface: IfaceId, packet: Packet) {
        let port = self
            .ports
            .iter_mut()
            .find(|p| p.node == node && p.iface == iface)
            .unwrap_or_else(|| panic!("{node:?} {iface:?} has no attached socket"));
        if packet.kind == PacketKind::Data {
            port.data_seen += 1;
            if let Some(every) = port.drop_every {
                if port.data_seen.is_multiple_of(every) {
                    self.stats.dropped_by_policy += 1;
                    self.obs
                        .hop_drop(self.now, node, iface, &packet, DropCause::Loss);
                    return;
                }
            }
        }
        wire::encode_into(&packet, &mut self.tx_buf);
        match port.socket.send_to(&self.tx_buf, port.peer) {
            Ok(_) => {
                self.stats.packets_out += 1;
                self.obs.hop_enqueue(self.now, node, iface, &packet);
            }
            Err(_) => {
                // The kernel refused the datagram (buffer full): the live
                // twin of a queue-overflow drop.
                self.stats.send_errors += 1;
                self.obs
                    .hop_drop(self.now, node, iface, &packet, DropCause::Queue);
            }
        }
    }

    /// Delivers one packet now (at most at `deadline`, unless dispatched
    /// time is already past it). Timers due before it fire first, each at
    /// its own deadline: the clock never runs back.
    fn deliver(&mut self, node: NodeId, iface: IfaceId, packet: Packet, deadline: SimTime) {
        let at = self.wall_now().min(deadline).max(self.now);
        self.fire_due_timers(at);
        self.stats.packets_in += 1;
        self.obs.hop_deliver(at.max(self.now), node, iface, &packet);
        self.dispatch(node, at, |n, ctx| n.on_packet(iface, packet, ctx));
    }

    /// Reads each port until `WouldBlock` (at most `BURST` datagrams) and
    /// delivers what decodes. Returns whether any datagram arrived.
    fn sweep(&mut self, deadline: SimTime) -> bool {
        let mut arrived = false;
        for i in 0..self.ports.len() {
            let (node, iface) = (self.ports[i].node, self.ports[i].iface);
            for _ in 0..BURST {
                let len = match self.ports[i].socket.recv(&mut self.rx_buf) {
                    Ok(len) => len,
                    Err(e) if e.kind() == ErrorKind::WouldBlock => break,
                    Err(_) => {
                        self.stats.recv_errors += 1;
                        self.obs.metrics.inc("live.recv_errors");
                        continue;
                    }
                };
                arrived = true;
                match wire::decode(&self.rx_buf[..len]) {
                    Ok(packet) => self.deliver(node, iface, packet, deadline),
                    Err(_) => {
                        self.stats.decode_errors += 1;
                        self.obs.metrics.inc("live.decode_errors");
                    }
                }
            }
        }
        arrived
    }
}

impl Driver for LiveDriver {
    fn now(&self) -> SimTime {
        self.now
    }

    fn install(&mut self, node: Box<dyn Node>) -> NodeId {
        assert!(!self.started, "install nodes before the driver runs");
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        id
    }

    fn inject(&mut self, node: NodeId, iface: IfaceId, packet: Packet) {
        assert!(node.0 < self.nodes.len(), "unknown {node:?}");
        self.injected.push_back((node, iface, packet));
    }

    fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.ensure_started();
        loop {
            let wall = self.wall_now();
            self.fire_due_timers(wall.min(deadline));
            // An injection is due the moment it is made, as in the
            // simulator: deliver it even when the wall clock has already
            // passed `deadline` (a slow start must not strand it).
            while let Some((node, iface, packet)) = self.injected.pop_front() {
                self.deliver(node, iface, packet, deadline);
            }
            if wall >= deadline {
                break;
            }
            if self.sweep(deadline) {
                continue;
            }
            // Nothing arrived: park until a socket is readable or the
            // earliest timer or the deadline is due.
            let next = self.next_timer_at().map_or(deadline, |t| t.min(deadline));
            let wait = next.as_nanos().saturating_sub(self.wall_now().as_nanos());
            sys::wait_readable(&mut self.poll_fds, Duration::from_nanos(wait))
                .expect("ppoll over the driver's own sockets");
        }
        // Clamp forward so subsequent scheduling is relative to the
        // deadline, mirroring `World::run_until`.
        self.now = self.now.max(deadline);
        self.now
    }

    fn is_idle(&self) -> bool {
        let live = |Reverse(e): &Reverse<TimerEntry>| !self.cancelled.contains(&e.handle);
        self.injected.is_empty() && !self.timers.iter().any(live)
    }

    fn node_dyn(&self, id: NodeId) -> &dyn Node {
        self.nodes[id.0]
            .as_deref()
            .expect("node is being dispatched")
    }

    fn node_dyn_mut(&mut self, id: NodeId) -> &mut dyn Node {
        self.nodes[id.0]
            .as_deref_mut()
            .expect("node is being dispatched")
    }
}

/// Binds two loopback sockets and connects them to each other, returning
/// `(a, b)`. The cheapest way to build a bidirectional live "link" for
/// tests, benches, and single-machine demos.
pub fn loopback_pair() -> std::io::Result<(UdpSocket, UdpSocket)> {
    let a = UdpSocket::bind("127.0.0.1:0")?;
    let b = UdpSocket::bind("127.0.0.1:0")?;
    a.connect(b.local_addr()?)?;
    b.connect(a.local_addr()?)?;
    Ok((a, b))
}

#[cfg(test)]
mod tests {
    use super::*;
    use sidecar_netsim::packet::FlowId;
    use sidecar_netsim::time::SimDuration;
    use std::any::Any;

    /// Echoes data packets back out the ingress interface after `delay`,
    /// recording fire-time accuracy.
    struct Echo {
        delay: SimDuration,
        held: Vec<(IfaceId, Packet)>,
        packets: u64,
        timers: u64,
        /// (armed deadline, ctx.now() at fire) pairs.
        fires: Vec<(SimTime, SimTime)>,
        armed_at: Vec<SimTime>,
    }

    impl Echo {
        fn boxed(delay: SimDuration) -> Box<Self> {
            Box::new(Echo {
                delay,
                held: Vec::new(),
                packets: 0,
                timers: 0,
                fires: Vec::new(),
                armed_at: Vec::new(),
            })
        }
    }

    impl Node for Echo {
        fn on_packet(&mut self, iface: IfaceId, packet: Packet, ctx: &mut Context) {
            self.packets += 1;
            self.held.push((iface, packet));
            let deadline = ctx.now() + self.delay;
            ctx.set_timer_at(deadline, 7);
            self.armed_at.push(deadline);
        }

        fn on_timer(&mut self, token: u64, ctx: &mut Context) {
            assert_eq!(token, 7);
            self.timers += 1;
            let armed = self.armed_at[self.fires.len()];
            self.fires.push((armed, ctx.now()));
            if let Some((iface, pkt)) = self.held.pop() {
                ctx.send(iface, pkt);
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Counts received data packets.
    struct Sink {
        packets: u64,
    }

    impl Node for Sink {
        fn on_packet(&mut self, _iface: IfaceId, _packet: Packet, _ctx: &mut Context) {
            self.packets += 1;
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn echo_roundtrip_over_real_sockets() {
        let mut driver = LiveDriver::new(7);
        let echo = driver.install(Echo::boxed(SimDuration::from_millis(2)));
        let sink = driver.install(Box::new(Sink { packets: 0 }));
        let (s_echo, s_sink) = loopback_pair().unwrap();
        let echo_peer = s_sink.local_addr().unwrap();
        let sink_peer = s_echo.local_addr().unwrap();
        driver
            .attach_socket(echo, IfaceId(0), s_echo, echo_peer)
            .unwrap();
        driver
            .attach_socket(sink, IfaceId(0), s_sink, sink_peer)
            .unwrap();

        // Seed a packet through the sink's socket: the sink node sends it
        // to the echo, which holds it for 2 ms and sends it back.
        let d = &mut driver as &mut dyn Driver;
        d.inject(
            sink,
            IfaceId(0),
            Packet::data(FlowId(1), 1, 0xAB, 1500, SimTime::ZERO),
        );
        driver.run_until(SimTime::from_nanos(1_000_000)); // 1 ms: inject lands
        assert_eq!(
            (&driver as &dyn Driver).node_as::<Sink>(sink).packets,
            1,
            "injected packet reached the sink node"
        );

        // Now drive a real socket hop: the echo node's send goes through
        // the kernel to the sink's socket.
        let pkt = Packet::data(FlowId(1), 2, 0xCD, 1500, SimTime::ZERO);
        driver.inject(echo, IfaceId(0), pkt);
        driver.run_until(SimTime::from_nanos(30_000_000)); // 30 ms
        let echo_ref: &Echo = (&driver as &dyn Driver).node_as(echo);
        assert_eq!(echo_ref.packets, 1);
        assert_eq!(echo_ref.timers, 1);
        // Dispatch rule 2: the timer fired with ctx.now() == armed deadline.
        for &(armed, fired) in &echo_ref.fires {
            assert_eq!(armed, fired, "timer must fire at its armed deadline");
        }
        let sink_ref: &Sink = (&driver as &dyn Driver).node_as(sink);
        assert_eq!(sink_ref.packets, 2, "echoed packet crossed the kernel");
        let stats = driver.stats();
        assert_eq!(stats.packets_out, 1);
        assert!(stats.packets_in >= 2);
        assert_eq!(stats.decode_errors, 0);
    }

    #[test]
    fn undelivered_injections_keep_the_driver_busy() {
        let mut driver = LiveDriver::new(3);
        let sink = driver.install(Box::new(Sink { packets: 0 }));
        let d: &mut dyn Driver = &mut driver;
        assert!(d.is_idle());
        let pkt = Packet::data(FlowId(3), 1, 42, 1500, SimTime::ZERO);
        d.inject(sink, IfaceId(0), pkt);
        assert!(!d.is_idle(), "an injected packet is pending work");
        d.run_until(SimTime::from_nanos(1_000_000));
        assert!(d.is_idle());
        assert_eq!(d.node_as::<Sink>(sink).packets, 1);
    }

    #[test]
    fn cancelled_timers_never_fire_and_handles_are_unique() {
        struct Canceller {
            fired: Vec<u64>,
            handles: Vec<u64>,
        }
        impl Node for Canceller {
            fn on_start(&mut self, ctx: &mut Context) {
                let a = ctx.set_timer_after(SimDuration::from_millis(1), 1);
                let b = ctx.set_timer_after(SimDuration::from_millis(2), 2);
                let c = ctx.set_timer_after(SimDuration::from_millis(3), 3);
                self.handles.extend([a.raw(), b.raw(), c.raw()]);
                ctx.cancel_timer(b);
            }
            fn on_packet(&mut self, _i: IfaceId, _p: Packet, _c: &mut Context) {}
            fn on_timer(&mut self, token: u64, ctx: &mut Context) {
                self.fired.push(token);
                if token == 1 {
                    self.handles
                        .push(ctx.set_timer_after(SimDuration::from_millis(1), 4).raw());
                }
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut driver = LiveDriver::new(1);
        let id = driver.install(Box::new(Canceller {
            fired: Vec::new(),
            handles: Vec::new(),
        }));
        driver.run_until(SimTime::from_nanos(20_000_000));
        assert!(driver.is_idle());
        let node: &Canceller = (&driver as &dyn Driver).node_as(id);
        assert_eq!(
            node.fired,
            vec![1, 4, 3],
            "deadline order, no cancelled fire"
        );
        let mut handles = node.handles.clone();
        handles.sort_unstable();
        handles.dedup();
        assert_eq!(handles.len(), node.handles.len(), "handles are run-unique");
    }

    #[test]
    fn egress_loss_policy_drops_deterministically() {
        struct Blaster {
            n: u64,
        }
        impl Node for Blaster {
            fn on_start(&mut self, ctx: &mut Context) {
                for seq in 0..self.n {
                    ctx.send(
                        IfaceId(0),
                        Packet::data(FlowId(1), seq, seq.wrapping_mul(0x9E37), 1500, ctx.now()),
                    );
                }
            }
            fn on_packet(&mut self, _i: IfaceId, _p: Packet, _c: &mut Context) {}
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut driver = LiveDriver::new(1);
        let blaster = driver.install(Box::new(Blaster { n: 20 }));
        let sink = driver.install(Box::new(Sink { packets: 0 }));
        let (s_a, s_b) = loopback_pair().unwrap();
        let a_peer = s_b.local_addr().unwrap();
        let b_peer = s_a.local_addr().unwrap();
        driver
            .attach_socket(blaster, IfaceId(0), s_a, a_peer)
            .unwrap();
        driver.attach_socket(sink, IfaceId(0), s_b, b_peer).unwrap();
        driver.set_egress_loss(blaster, IfaceId(0), 5);
        driver.run_until(SimTime::from_nanos(100_000_000));
        let stats = driver.stats();
        assert_eq!(stats.dropped_by_policy, 4, "every 5th of 20 dropped");
        assert_eq!(stats.packets_out, 16);
        let sink_ref: &Sink = (&driver as &dyn Driver).node_as(sink);
        assert_eq!(sink_ref.packets, 16);
        // The ring saw 16 enqueues, 16 delivers, 4 drops.
        let trace = &driver.obs().trace;
        assert_eq!(trace.count_kind("hop_enqueue"), 16);
        assert_eq!(trace.count_kind("hop_drop"), 4);
        assert_eq!(trace.count_kind("hop_deliver"), 16);
    }
}
