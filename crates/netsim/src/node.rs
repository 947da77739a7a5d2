//! The [`Node`] trait and the [`Context`] handed to node callbacks.
//!
//! Nodes are sans-IO state machines: callbacks receive a [`Context`] that
//! *records* intended actions (packet sends, timer arms) which the world
//! applies after the callback returns. This keeps the borrow graph simple,
//! keeps nodes unit-testable without a world, and makes every effect of a
//! callback observable in tests.

use crate::obs::WorldObs;
use crate::packet::Packet;
use crate::rng::SimRng;
use crate::time::{SimDuration, SimTime};
use std::any::Any;

/// Index of a node within its world.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct NodeId(pub usize);

/// Index of an interface within one node's interface list (assigned in
/// `connect` order).
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct IfaceId(pub usize);

/// Index of a unidirectional link within the world.
#[derive(Copy, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub struct LinkId(pub usize);

/// Identifies one armed timer for cancellation.
///
/// Handles are world-unique and allocated at arm time, so a node can store
/// the handle of its live timer chain and [`Context::cancel_timer`] the
/// stale one when re-arming — replacing the old "check state on fire"
/// lazy-cancellation idiom that let superseded timer events accumulate in
/// the queue. Cancelling a handle that already fired is a silent no-op
/// (the cancellation record is dropped lazily), but cancel only handles
/// you know to be pending — that keeps the world's cancellation set small.
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
pub struct TimerHandle(pub(crate) u64);

impl TimerHandle {
    /// The raw handle value. Drivers outside this crate use it to advance
    /// their own monotone handle counters past what a callback allocated.
    pub fn raw(self) -> u64 {
        self.0
    }
}

/// An action a node requested during a callback.
#[derive(Debug)]
pub enum Action {
    /// Transmit `packet` out of interface `iface`.
    Send {
        /// Egress interface.
        iface: IfaceId,
        /// The packet to transmit.
        packet: Packet,
    },
    /// Fire [`Node::on_timer`] with `token` at time `at`.
    Timer {
        /// Absolute fire time.
        at: SimTime,
        /// Opaque token echoed back to the node.
        token: u64,
        /// Handle for cancellation (assigned at arm time).
        handle: TimerHandle,
    },
    /// Cancel a previously armed timer (including one armed earlier in the
    /// same callback).
    CancelTimer {
        /// The handle returned by the arm call.
        handle: TimerHandle,
    },
}

/// Execution context for one node callback.
///
/// Timers are one-shot; arming returns a [`TimerHandle`] that can be passed
/// to [`Context::cancel_timer`], so re-arming a guarded timer cancels the
/// stale chain instead of leaving it queued. The old lazy-cancellation
/// idiom (ignore stale fires by checking node state) still works — a
/// cancelled or superseded timer simply never reaches `on_timer`.
pub struct Context<'a> {
    now: SimTime,
    node: NodeId,
    rng: &'a mut SimRng,
    actions: &'a mut Vec<Action>,
    /// First handle value this callback may allocate (world-assigned;
    /// 0-based in world-less unit tests).
    handle_base: u64,
    /// Timers armed so far in this callback.
    timers_armed: u64,
    obs: Option<&'a mut WorldObs>,
}

impl<'a> Context<'a> {
    /// Builds a context without an observability handle — obs calls through
    /// it are no-ops. Node unit tests use this.
    pub fn new(
        now: SimTime,
        node: NodeId,
        rng: &'a mut SimRng,
        actions: &'a mut Vec<Action>,
    ) -> Self {
        Self::with_obs(now, node, rng, actions, None)
    }

    /// Builds a context carrying the host's observability handle.
    pub fn with_obs(
        now: SimTime,
        node: NodeId,
        rng: &'a mut SimRng,
        actions: &'a mut Vec<Action>,
        obs: Option<&'a mut WorldObs>,
    ) -> Self {
        Context {
            now,
            node,
            rng,
            actions,
            handle_base: 0,
            timers_armed: 0,
            obs,
        }
    }

    /// Sets the first [`TimerHandle`] value this callback allocates. A
    /// driver (the world, or a live-socket host) passes its monotone handle
    /// counter here so handles are unique across the whole run; unit-test
    /// contexts keep the 0 default.
    pub fn set_handle_base(&mut self, base: u64) {
        self.handle_base = base;
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// The node being called back (useful for logging in shared impls).
    pub fn node_id(&self) -> NodeId {
        self.node
    }

    /// Deterministic randomness.
    pub fn rng(&mut self) -> &mut SimRng {
        self.rng
    }

    /// Queues `packet` for transmission out of `iface`.
    pub fn send(&mut self, iface: IfaceId, packet: Packet) {
        self.actions.push(Action::Send { iface, packet });
    }

    /// Arms a one-shot timer at absolute time `at`, returning its handle
    /// for optional cancellation.
    pub fn set_timer_at(&mut self, at: SimTime, token: u64) -> TimerHandle {
        debug_assert!(at >= self.now, "timer in the past");
        let handle = TimerHandle(self.handle_base + self.timers_armed);
        self.timers_armed += 1;
        self.actions.push(Action::Timer { at, token, handle });
        handle
    }

    /// Arms a one-shot timer `delay` from now, returning its handle for
    /// optional cancellation.
    pub fn set_timer_after(&mut self, delay: SimDuration, token: u64) -> TimerHandle {
        self.set_timer_at(self.now + delay, token)
    }

    /// Cancels a pending timer by handle: the queued event is dropped at
    /// pop time and never reaches [`Node::on_timer`]. Cancelling a handle
    /// that already fired is a no-op.
    pub fn cancel_timer(&mut self, handle: TimerHandle) {
        self.actions.push(Action::CancelTimer { handle });
    }
}

/// What a node may say to its host's observability handle. Every method is a
/// no-op through a context built without one ([`Context::new`]).
impl Context<'_> {
    /// The host's observability handle, if this callback runs inside one.
    pub fn obs(&mut self) -> Option<&mut WorldObs> {
        self.obs.as_deref_mut()
    }

    /// Adds one to a host-scoped counter.
    pub fn obs_inc(&mut self, name: &'static str) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.metrics.inc(name);
        }
    }

    /// Adds `n` to a host-scoped counter.
    pub fn obs_add(&mut self, name: &'static str, n: u64) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.metrics.add(name, n);
        }
    }

    /// Records `value` into a host-scoped histogram.
    pub fn obs_observe(&mut self, name: &'static str, bounds: &[u64], value: u64) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.metrics.observe(name, bounds, value);
        }
    }

    /// Sets a host-scoped gauge to `value`.
    pub fn obs_gauge(&mut self, name: &'static str, value: f64) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.metrics.gauge_set(name, value);
        }
    }

    /// Appends `event` to the host's trace, stamped with the current time.
    pub fn obs_event(&mut self, event: sidecar_obs::Event) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.trace.record(self.now.as_nanos(), event);
        }
    }

    /// Records one unhealthy event for `flow` on the host's per-flow health
    /// scoreboard. One lock-free atomic add on the packet path; the
    /// scoreboard ranks flows for `/flows` and the health proptests.
    pub fn obs_flow_health(&mut self, flow: u32, dim: sidecar_obs::HealthDim) {
        if let Some(obs) = self.obs.as_deref_mut() {
            obs.scoreboard.record(flow, dim);
        }
    }

    /// Allocates the next host-scoped control-datagram sequence for
    /// flight-recorder stamping. Sequences start at 1 so a stamped control
    /// packet is distinguishable from an unstamped one; without a handle
    /// (unit tests) every call returns 0.
    pub fn next_ctrl_seq(&mut self) -> u64 {
        match self.obs.as_deref_mut() {
            Some(obs) => {
                obs.ctrl_seq += 1;
                obs.ctrl_seq
            }
            None => 0,
        }
    }
}

/// A simulated network element: host, proxy, router, sink…
///
/// Implementations must be deterministic functions of (state, inputs, rng).
pub trait Node: Any {
    /// Called once when the simulation starts; arm initial timers and send
    /// initial packets here.
    fn on_start(&mut self, _ctx: &mut Context) {}

    /// A packet arrived on `iface`.
    fn on_packet(&mut self, iface: IfaceId, packet: Packet, ctx: &mut Context);

    /// A timer armed with `token` fired.
    fn on_timer(&mut self, _token: u64, _ctx: &mut Context) {}

    /// The node came back from a scripted crash
    /// (see [`crate::fault::FaultPlan`]). Volatile state should be reset
    /// here — a sidecar proxy wipes its quACK log and bumps its epoch. The
    /// default keeps all state (a plain forwarder survives reboots intact).
    ///
    /// Timers armed before the crash did *not* fire during the outage; ones
    /// scheduled past the restart still will, so stale-timer checks (the
    /// lazy-cancellation idiom) keep working unchanged.
    fn on_restart(&mut self, _ctx: &mut Context) {}

    /// Human-readable name for traces.
    fn name(&self) -> &str {
        "node"
    }

    /// Downcast support (stats extraction after a run).
    fn as_any(&self) -> &dyn Any;

    /// Mutable downcast support.
    fn as_any_mut(&mut self) -> &mut dyn Any;
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::packet::{FlowId, Packet};

    struct Echoer {
        seen: usize,
    }

    impl Node for Echoer {
        fn on_packet(&mut self, iface: IfaceId, packet: Packet, ctx: &mut Context) {
            self.seen += 1;
            ctx.send(iface, packet);
            ctx.set_timer_after(SimDuration::from_millis(1), 7);
        }

        fn as_any(&self) -> &dyn Any {
            self
        }

        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    #[test]
    fn context_records_actions() {
        let mut rng = SimRng::new(1);
        let mut actions = Vec::new();
        let mut ctx = Context::new(SimTime::from_nanos(100), NodeId(3), &mut rng, &mut actions);
        assert_eq!(ctx.now(), SimTime::from_nanos(100));
        assert_eq!(ctx.node_id(), NodeId(3));

        let mut node = Echoer { seen: 0 };
        let pkt = Packet::data(FlowId(0), 1, 0xAB, 100, SimTime::ZERO);
        node.on_packet(IfaceId(0), pkt, &mut ctx);
        assert_eq!(node.seen, 1);
        assert_eq!(actions.len(), 2);
        assert!(matches!(
            actions[0],
            Action::Send {
                iface: IfaceId(0),
                ..
            }
        ));
        match actions[1] {
            Action::Timer { at, token, handle } => {
                assert_eq!(at, SimTime::from_nanos(100) + SimDuration::from_millis(1));
                assert_eq!(token, 7);
                assert_eq!(handle, TimerHandle(0));
            }
            _ => panic!("expected timer"),
        }
    }

    #[test]
    fn handles_are_distinct_and_cancel_records() {
        let mut rng = SimRng::new(1);
        let mut actions = Vec::new();
        let mut ctx = Context::new(SimTime::ZERO, NodeId(0), &mut rng, &mut actions);
        ctx.set_handle_base(41);
        let a = ctx.set_timer_after(SimDuration::from_millis(1), 1);
        let b = ctx.set_timer_after(SimDuration::from_millis(2), 1);
        assert_ne!(a, b);
        assert_eq!(a, TimerHandle(41));
        assert_eq!(b, TimerHandle(42));
        ctx.cancel_timer(a);
        assert!(matches!(
            actions[2],
            Action::CancelTimer { handle } if handle == a
        ));
    }
}
