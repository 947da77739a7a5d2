//! The [`Driver`] seam: what a host must provide to run sans-IO [`Node`]
//! state machines.
//!
//! Every protocol in this reproduction is written against [`Node`] and
//! [`Context`](crate::node::Context) — callbacks *record* sends and timer
//! arms, and the host applies them. That contract never mentions the
//! simulator, so the same state machine can be hosted by two very
//! different drivers:
//!
//! * [`World`] — the discrete-event simulator: virtual time, perfectly
//!   FIFO links, exact one-shot timers, seeded determinism;
//! * `sidecar-live`'s `LiveDriver` — real `UdpSocket`s drained by one
//!   thread that parks in `ppoll(2)`, wall-clock time mapped onto the same
//!   nanosecond [`SimTime`] axis, and a binary-heap timer set.
//!
//! The trait is deliberately small: a clock, node installation, a packet
//! ingress tap, and a bounded run loop. Everything else (what a "send"
//! means, how timers fire) is the driver's business, constrained only by
//! the dispatch rules below.
//!
//! # Dispatch rules every driver must uphold
//!
//! 1. **Monotone clock.** `Context::now()` never decreases across
//!    callbacks on the same driver.
//! 2. **Timers fire at their armed deadline.** A timer armed for `at` is
//!    dispatched with `Context::now() == max(at, arm time)` — protocols
//!    (e.g. `GuardedTimer`) compare the fire time against the armed
//!    deadline by equality. A live driver that wakes late must still
//!    dispatch the callback at the armed timestamp, in deadline order.
//! 3. **One-shot, cancellable timers.** A cancelled handle never reaches
//!    `on_timer`; an uncancelled one fires exactly once.
//! 4. **Unique timer handles.** Handle values never repeat across the
//!    run (drivers thread a monotone base through
//!    [`Context::set_handle_base`](crate::node::Context::set_handle_base)).
//! 5. **Actions apply after the callback**, in recorded order.
//!
//! What the simulator additionally guarantees — FIFO per-link delivery,
//! loss only where the model says so, bit-exact reproducibility from a
//! seed — real sockets do *not*. Protocols must not rely on those; the
//! live loopback suite exists to catch any that do.

use crate::node::{IfaceId, Node, NodeId};
use crate::packet::Packet;
use crate::time::SimTime;
use crate::world::World;

/// A host for sans-IO [`Node`] state machines. See the module docs for the
/// dispatch rules implementations must uphold.
pub trait Driver {
    /// The driver's current time on the shared nanosecond axis.
    fn now(&self) -> SimTime;

    /// Installs a node; its `on_start` runs before the first packet or
    /// timer is dispatched to it.
    fn install(&mut self, node: Box<dyn Node>) -> NodeId;

    /// Hands an externally received packet to a hosted node, as if it had
    /// just arrived on `iface`. The dispatch happens inside the driver's
    /// run loop, not re-entrantly.
    fn inject(&mut self, node: NodeId, iface: IfaceId, packet: Packet);

    /// Runs dispatches until `deadline` (driver time), then returns the
    /// clock. For the simulator this drains due events and clamps the
    /// virtual clock; for a live driver it blocks on sockets and timers
    /// until the wall clock passes the deadline.
    fn run_until(&mut self, deadline: SimTime) -> SimTime;

    /// Whether any work (queued events, pending timers) remains.
    fn is_idle(&self) -> bool;

    /// Borrows a hosted node.
    ///
    /// # Panics
    ///
    /// May panic if `id` was not returned by this driver's `install`.
    fn node_dyn(&self, id: NodeId) -> &dyn Node;

    /// Mutably borrows a hosted node.
    ///
    /// # Panics
    ///
    /// May panic if `id` was not returned by this driver's `install`.
    fn node_dyn_mut(&mut self, id: NodeId) -> &mut dyn Node;
}

impl dyn Driver + '_ {
    /// Borrows a hosted node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is of a different type.
    pub fn node_as<T: Node>(&self, id: NodeId) -> &T {
        self.node_dyn(id)
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutably borrows a hosted node downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is of a different type.
    pub fn node_as_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        self.node_dyn_mut(id)
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }
}

impl Driver for World {
    fn now(&self) -> SimTime {
        World::now(self)
    }

    fn install(&mut self, node: Box<dyn Node>) -> NodeId {
        self.add_node(node)
    }

    fn inject(&mut self, node: NodeId, iface: IfaceId, packet: Packet) {
        World::inject(self, node, iface, packet);
    }

    fn run_until(&mut self, deadline: SimTime) -> SimTime {
        World::run_until(self, deadline)
    }

    fn is_idle(&self) -> bool {
        self.events_pending() == 0
    }

    fn node_dyn(&self, id: NodeId) -> &dyn Node {
        World::node_dyn(self, id)
    }

    fn node_dyn_mut(&mut self, id: NodeId) -> &mut dyn Node {
        World::node_dyn_mut(self, id)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::Context;
    use crate::time::SimDuration;

    /// A node that echoes every data packet back out its ingress interface
    /// after a fixed timer delay, counting dispatches.
    struct Echo {
        delay: SimDuration,
        held: Vec<(IfaceId, Packet)>,
        packets: u64,
        timers: u64,
    }

    impl Node for Echo {
        fn name(&self) -> &str {
            "echo"
        }

        fn on_packet(&mut self, iface: IfaceId, packet: Packet, ctx: &mut Context) {
            self.packets += 1;
            self.held.push((iface, packet));
            ctx.set_timer_after(self.delay, 7);
        }

        fn on_timer(&mut self, token: u64, ctx: &mut Context) {
            assert_eq!(token, 7);
            self.timers += 1;
            if let Some((iface, pkt)) = self.held.pop() {
                ctx.send(iface, pkt);
            }
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    /// Counts packets delivered to it.
    struct Sink {
        packets: u64,
    }

    impl Node for Sink {
        fn name(&self) -> &str {
            "sink"
        }

        fn on_packet(&mut self, _iface: IfaceId, _packet: Packet, _ctx: &mut Context) {
            self.packets += 1;
        }

        fn as_any(&self) -> &dyn std::any::Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
            self
        }
    }

    #[test]
    fn world_hosts_nodes_behind_the_driver_seam() {
        use crate::link::LinkConfig;

        let mut world = World::new(7);
        // Topology is driver-specific (the trait only covers hosting), so
        // wire the echo to a sink with World's own API first.
        let echo_id = world.add_node(Box::new(Echo {
            delay: SimDuration::from_millis(5),
            held: Vec::new(),
            packets: 0,
            timers: 0,
        }));
        let sink_id = world.add_node(Box::new(Sink { packets: 0 }));
        world.connect(
            echo_id,
            sink_id,
            LinkConfig::default(),
            LinkConfig::default(),
        );

        let driver: &mut dyn Driver = &mut world;
        let pkt = Packet::data(crate::packet::FlowId(3), 1, 42, 1500, SimTime::ZERO);
        driver.inject(echo_id, IfaceId(0), pkt);
        assert!(!driver.is_idle());
        driver.run_until(SimTime::ZERO + SimDuration::from_secs(1));
        assert!(driver.is_idle());
        let echo: &Echo = driver.node_as(echo_id);
        assert_eq!((echo.packets, echo.timers), (1, 1));
        let sink: &Sink = driver.node_as(sink_id);
        assert_eq!(sink.packets, 1, "echoed packet crossed the link");
    }
}
