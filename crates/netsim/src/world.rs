//! The [`World`]: topology plus the discrete-event loop.
//!
//! A world owns nodes, links, and one event queue. Events are totally
//! ordered by `(time, insertion sequence)`, and all randomness flows from
//! the world seed, so a `(topology, seed)` pair reproduces a run exactly —
//! the property every protocol experiment and regression test in this
//! reproduction leans on.

use crate::fault::{ControlAction, FaultPlan, LinkTarget};
use crate::link::{Link, LinkConfig, LinkOutcome, LinkStats};
use crate::node::{Action, Context, IfaceId, LinkId, Node, NodeId, TimerHandle};
use crate::obs::WorldObs;
use crate::packet::{FlowId, Packet, Payload};
use crate::rng::SimRng;
use crate::sched::EventQueue;
use crate::time::{SimDuration, SimTime};
use sidecar_obs::{ControlKind, DropCause};
use std::collections::{HashMap, HashSet};

/// One end of a duplex attachment: which link an interface transmits into
/// and who receives.
#[derive(Copy, Clone, Debug)]
struct IfaceEnd {
    link: LinkId,
    peer: NodeId,
    peer_iface: IfaceId,
}

enum EventKind {
    Arrival {
        node: NodeId,
        iface: IfaceId,
        packet: Packet,
    },
    Timer {
        node: NodeId,
        token: u64,
        /// Cancellation identity (see [`TimerHandle`]); world-scheduled
        /// timers always carry a nonzero handle.
        handle: TimerHandle,
    },
    /// A scripted outage edge from an installed [`FaultPlan`].
    Fault {
        node: NodeId,
        /// `false` = crash, `true` = restart.
        up: bool,
    },
}

/// A [`FaultPlan`] resolved against a concrete topology, plus the dedicated
/// corruption RNG (independent of the world's stream so installing a plan
/// never perturbs link loss draws).
struct ActiveFaults {
    plan: FaultPlan,
    rng: SimRng,
    /// Blackout windows with `LinkTarget::Between` lowered to link ids.
    blackout_windows: Vec<(LinkId, SimTime, SimTime)>,
    /// Stateful-firewall memory: when each control flow was last seen.
    ctrl_seen: HashMap<FlowId, SimTime>,
}

impl ActiveFaults {
    fn blacked_out(&self, link: LinkId, now: SimTime) -> bool {
        self.blackout_windows
            .iter()
            .any(|&(l, from, until)| l == link && from <= now && now < until)
    }

    /// Flips 1..=`max_flips` random bits of a sidecar payload body.
    fn corrupt(&mut self, packet: &mut Packet, max_flips: u32) {
        if let Payload::Sidecar { bytes, .. } = &mut packet.payload {
            if bytes.is_empty() {
                return;
            }
            let flips = 1 + self.rng.below(max_flips.max(1) as u64);
            for _ in 0..flips {
                let i = self.rng.below(bytes.len() as u64) as usize;
                let bit = self.rng.below(8) as u32;
                bytes[i] ^= 1 << bit;
            }
        }
    }
}

/// A complete simulated network.
pub struct World {
    nodes: Vec<Option<Box<dyn Node>>>,
    node_ifaces: Vec<Vec<IfaceEnd>>,
    links: Vec<Link>,
    queue: EventQueue<EventKind>,
    now: SimTime,
    rng: SimRng,
    event_seq: u64,
    started: bool,
    events_processed: u64,
    node_down: Vec<bool>,
    faults: Option<ActiveFaults>,
    /// Reused per-dispatch action buffer: the steady-state loop allocates
    /// nothing for callback actions once its capacity has warmed up.
    action_pool: Vec<Action>,
    /// Handles of cancelled-but-not-yet-popped timers.
    cancelled: HashSet<u64>,
    /// Next [`TimerHandle`] value to hand out (starts at 1; 0 is the
    /// world-less unit-test base and never reaches this queue).
    timer_handle_seq: u64,
    obs: WorldObs,
}

impl World {
    /// Creates an empty world with the given determinism seed.
    pub fn new(seed: u64) -> Self {
        World {
            nodes: Vec::new(),
            node_ifaces: Vec::new(),
            links: Vec::new(),
            queue: EventQueue::new(),
            now: SimTime::ZERO,
            rng: SimRng::new(seed),
            event_seq: 0,
            started: false,
            events_processed: 0,
            node_down: Vec::new(),
            faults: None,
            action_pool: Vec::new(),
            cancelled: HashSet::new(),
            timer_handle_seq: 1,
            obs: WorldObs::new(),
        }
    }

    /// Events currently queued (scheduler-load metric for benches).
    pub fn events_pending(&self) -> usize {
        self.queue.len()
    }

    /// Cancellations recorded but not yet matched to a popped timer. With an
    /// empty queue this must be zero: anything left names a handle that had
    /// already fired, and keeps `step` off its no-cancellation fast path.
    #[doc(hidden)]
    pub fn cancellations_pending(&self) -> usize {
        self.cancelled.len()
    }

    /// This world's observability state: a fresh metrics registry and event
    /// trace, scoped to this world (see [`crate::obs`]).
    pub fn obs(&self) -> &WorldObs {
        &self.obs
    }

    /// Mutable access to this world's observability state — scenario runners
    /// use it to fold protocol-level stats into the registry before
    /// snapshotting.
    pub fn obs_mut(&mut self) -> &mut WorldObs {
        &mut self.obs
    }

    /// Adds a node, returning its id.
    pub fn add_node(&mut self, node: Box<dyn Node>) -> NodeId {
        assert!(!self.started, "topology is frozen once the world runs");
        let id = NodeId(self.nodes.len());
        self.nodes.push(Some(node));
        self.node_ifaces.push(Vec::new());
        self.node_down.push(false);
        id
    }

    /// Installs a fault script (see [`crate::fault`]): schedules every
    /// outage edge as a simulation event, lowers `Between` blackouts to the
    /// concrete links of this topology, and seeds the dedicated corruption
    /// RNG from [`FaultPlan::seed`].
    ///
    /// # Panics
    ///
    /// Panics if the world has already started, if a plan was already
    /// installed, or if the plan references nodes/links that do not exist —
    /// all configuration errors, caught loudly at install time.
    pub fn install_faults(&mut self, plan: FaultPlan) {
        assert!(
            !self.started,
            "faults must be installed before the world runs"
        );
        assert!(self.faults.is_none(), "a fault plan is already installed");
        for outage in &plan.outages {
            assert!(
                outage.node.0 < self.nodes.len(),
                "outage references unknown {:?}",
                outage.node
            );
            for (at, up) in outage.edges() {
                let seq = self.next_seq();
                self.queue.push(
                    at,
                    seq,
                    EventKind::Fault {
                        node: outage.node,
                        up,
                    },
                );
            }
        }
        let mut blackout_windows = Vec::new();
        for blackout in &plan.blackouts {
            match blackout.target {
                LinkTarget::Link(link) => {
                    assert!(
                        link.0 < self.links.len(),
                        "blackout references unknown {link:?}"
                    );
                    blackout_windows.push((link, blackout.from, blackout.until));
                }
                LinkTarget::Between(a, b) => {
                    assert!(a.0 < self.nodes.len(), "blackout references unknown {a:?}");
                    assert!(b.0 < self.nodes.len(), "blackout references unknown {b:?}");
                    let mut found = false;
                    for end in &self.node_ifaces[a.0] {
                        if end.peer == b {
                            blackout_windows.push((end.link, blackout.from, blackout.until));
                            found = true;
                        }
                    }
                    for end in &self.node_ifaces[b.0] {
                        if end.peer == a {
                            blackout_windows.push((end.link, blackout.from, blackout.until));
                            found = true;
                        }
                    }
                    assert!(found, "no links between {a:?} and {b:?}");
                }
            }
        }
        for rule in &plan.control {
            if let Some(source) = rule.source {
                assert!(
                    source.0 < self.nodes.len(),
                    "control fault references unknown {source:?}"
                );
            }
        }
        self.faults = Some(ActiveFaults {
            rng: SimRng::new(plan.seed),
            plan,
            blackout_windows,
            ctrl_seen: HashMap::new(),
        });
    }

    /// Whether `node` is currently down due to a scripted outage.
    pub fn is_node_down(&self, node: NodeId) -> bool {
        self.node_down[node.0]
    }

    /// Connects `a` and `b` with a duplex pair of unidirectional links
    /// (`a→b` configured by `ab`, `b→a` by `ba`). Returns the new interface
    /// ids on `a` and `b` respectively.
    pub fn connect(
        &mut self,
        a: NodeId,
        b: NodeId,
        ab: LinkConfig,
        ba: LinkConfig,
    ) -> (IfaceId, IfaceId) {
        assert!(!self.started, "topology is frozen once the world runs");
        let link_ab = LinkId(self.links.len());
        self.links.push(Link::new(ab));
        let link_ba = LinkId(self.links.len());
        self.links.push(Link::new(ba));
        let iface_a = IfaceId(self.node_ifaces[a.0].len());
        let iface_b = IfaceId(self.node_ifaces[b.0].len());
        self.node_ifaces[a.0].push(IfaceEnd {
            link: link_ab,
            peer: b,
            peer_iface: iface_b,
        });
        self.node_ifaces[b.0].push(IfaceEnd {
            link: link_ba,
            peer: a,
            peer_iface: iface_a,
        });
        (iface_a, iface_b)
    }

    /// Current simulated time.
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Total events processed so far (loop-progress metric for tests).
    pub fn events_processed(&self) -> u64 {
        self.events_processed
    }

    /// Statistics of the `a→b` link returned by `connect` as seen from
    /// node `a`'s interface.
    pub fn link_stats(&self, node: NodeId, iface: IfaceId) -> &LinkStats {
        let end = &self.node_ifaces[node.0][iface.0];
        &self.links[end.link.0].stats
    }

    /// Immutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is of a different type.
    pub fn node_as<T: Node>(&self, id: NodeId) -> &T {
        self.nodes[id.0]
            .as_ref()
            .expect("node is being dispatched")
            .as_any()
            .downcast_ref::<T>()
            .expect("node type mismatch")
    }

    /// Mutable access to a node, downcast to its concrete type.
    ///
    /// # Panics
    ///
    /// Panics if the node is of a different type.
    pub fn node_as_mut<T: Node>(&mut self, id: NodeId) -> &mut T {
        self.nodes[id.0]
            .as_mut()
            .expect("node is being dispatched")
            .as_any_mut()
            .downcast_mut::<T>()
            .expect("node type mismatch")
    }

    /// Borrows a node as `dyn Node` (no downcast). Drivers use this to
    /// reach hosted state machines without knowing their concrete type.
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly while `id` is being dispatched.
    pub fn node_dyn(&self, id: NodeId) -> &dyn Node {
        self.nodes[id.0]
            .as_deref()
            .expect("node is being dispatched")
    }

    /// Mutably borrows a node as `dyn Node` (no downcast).
    ///
    /// # Panics
    ///
    /// Panics if called re-entrantly while `id` is being dispatched.
    pub fn node_dyn_mut(&mut self, id: NodeId) -> &mut dyn Node {
        self.nodes[id.0]
            .as_deref_mut()
            .expect("node is being dispatched")
    }

    /// Enqueues a packet arrival at `node`/`iface` for the current time, as
    /// if a link had just delivered it: the ingress seam a
    /// [`Driver`](crate::driver::Driver) uses to hand externally sourced packets to a
    /// hosted node. The event goes through the ordinary queue, so it is
    /// FIFO-ordered after anything already due now and dispatched with full
    /// trace/obs accounting.
    pub fn inject(&mut self, node: NodeId, iface: IfaceId, packet: Packet) {
        let at = self.now;
        let seq = self.next_seq();
        self.queue.push(
            at,
            seq,
            EventKind::Arrival {
                node,
                iface,
                packet,
            },
        );
    }

    /// Runs `on_start` on every node if not yet done.
    fn ensure_started(&mut self) {
        if self.started {
            return;
        }
        self.started = true;
        for i in 0..self.nodes.len() {
            self.dispatch(NodeId(i), |node, ctx| node.on_start(ctx));
        }
    }

    /// Processes the next event. Returns `false` when the queue is empty.
    pub fn step(&mut self) -> bool {
        self.ensure_started();
        let Some((at, kind)) = self.queue.pop_due(None) else {
            return false;
        };
        self.process(at, kind);
        true
    }

    /// Advances the clock to `at` and handles one popped event.
    fn process(&mut self, at: SimTime, kind: EventKind) {
        debug_assert!(at >= self.now, "time went backwards");
        self.now = at;
        self.events_processed += 1;
        match kind {
            EventKind::Arrival {
                node,
                iface,
                packet,
            } => {
                if self.node_down[node.0] {
                    // The receiver is crashed: the packet evaporates at its
                    // door.
                    self.obs
                        .link_drop(self.now, node, iface, &packet, DropCause::NodeDown);
                    return;
                }
                self.obs.hop_deliver(self.now, node, iface, &packet);
                self.dispatch(node, |n, ctx| n.on_packet(iface, packet, ctx));
            }
            EventKind::Timer {
                node,
                token,
                handle,
            } => {
                if !self.cancelled.is_empty() && self.cancelled.remove(&handle.0) {
                    // Cancelled before firing: the event is consumed silently
                    // (it still counts toward `events_processed`, exactly as
                    // a lazily-ignored stale fire would have).
                    return;
                }
                if self.node_down[node.0] {
                    // Timers firing during an outage are discarded; a node
                    // re-arms what it needs from `on_restart`.
                    return;
                }
                self.dispatch(node, |n, ctx| n.on_timer(token, ctx));
            }
            EventKind::Fault { node, up } => {
                self.obs.outage(self.now, node, up);
                self.node_down[node.0] = !up;
                if up {
                    self.obs.restart(self.now, node);
                    self.dispatch(node, |n, ctx| n.on_restart(ctx));
                }
            }
        }
    }

    /// Runs until the queue is empty or simulated time would exceed
    /// `deadline`; returns the time of the last processed event.
    pub fn run_until(&mut self, deadline: SimTime) -> SimTime {
        self.ensure_started();
        while let Some((at, kind)) = self.queue.pop_due(Some(deadline)) {
            self.process(at, kind);
        }
        // Clamp the clock forward to the deadline so subsequent scheduling
        // is relative to it.
        if self.now < deadline {
            self.now = deadline;
        }
        self.now
    }

    /// Runs until no events remain (natural quiescence). `max_events` guards
    /// against livelock in buggy protocols.
    ///
    /// # Panics
    ///
    /// Panics if `max_events` is exceeded — a deterministic signal that a
    /// protocol is spinning.
    pub fn run_until_idle(&mut self, max_events: u64) -> SimTime {
        self.ensure_started();
        let mut budget = max_events;
        while self.step() {
            budget = budget
                .checked_sub(1)
                .unwrap_or_else(|| panic!("simulation exceeded {max_events} events; livelock?"));
        }
        self.now
    }

    /// Dispatches a callback on one node, then applies its actions.
    fn dispatch<F>(&mut self, id: NodeId, f: F)
    where
        F: FnOnce(&mut dyn Node, &mut Context),
    {
        let mut node = self.nodes[id.0].take().expect("re-entrant dispatch");
        // Reuse the pooled buffer: after warmup the steady-state dispatch
        // loop performs no heap allocation for actions.
        let mut actions = std::mem::take(&mut self.action_pool);
        debug_assert!(actions.is_empty());
        {
            let obs = Some(&mut self.obs);
            let mut ctx = Context::with_obs(self.now, id, &mut self.rng, &mut actions, obs);
            ctx.set_handle_base(self.timer_handle_seq);
            f(node.as_mut(), &mut ctx);
        }
        self.nodes[id.0] = Some(node);
        for action in actions.drain(..) {
            match action {
                Action::Send { iface, packet } => self.transmit(id, iface, packet),
                Action::Timer { at, token, handle } => {
                    self.timer_handle_seq = handle.0 + 1;
                    let seq = self.next_seq();
                    self.queue.push(
                        at.max(self.now),
                        seq,
                        EventKind::Timer {
                            node: id,
                            token,
                            handle,
                        },
                    );
                }
                Action::CancelTimer { handle } => {
                    self.cancelled.insert(handle.0);
                }
            }
        }
        self.action_pool = actions;
    }

    /// Pushes a packet into the link behind `(node, iface)`, applying any
    /// installed fault rules (blackouts, the stateful firewall, control
    /// mangling, and active-adversary injection) first.
    fn transmit(&mut self, node: NodeId, iface: IfaceId, mut packet: Packet) {
        let end = *self.node_ifaces[node.0]
            .get(iface.0)
            .unwrap_or_else(|| panic!("node {node:?} has no interface {iface:?}"));
        let mut copies = 1u32;
        let mut extra_delay = SimDuration::ZERO;
        // Attacker-injected packets riding the same link: (packet, delay
        // beyond `extra_delay`). Delivered after the original's offers so
        // the honest datagram keeps its queue position.
        let mut replicas: Vec<(Packet, SimDuration)> = Vec::new();
        if let Some(faults) = self.faults.as_mut() {
            if faults.blacked_out(end.link, self.now) {
                self.obs
                    .link_drop(self.now, node, iface, &packet, DropCause::Blackout);
                return;
            }
            // Stateful firewall: a control flow idle past the timeout loses
            // its next datagram while the middlebox re-establishes state
            // (the timestamp is refreshed, so the packet after this one
            // passes). The very first packet of a flow passes too — the
            // firewall admits new "connections", it only evicts idle ones.
            if let Some(idle) = faults.plan.match_firewall(packet.kind, self.now) {
                let prior = faults.ctrl_seen.insert(packet.flow, self.now);
                if let Some(prev) = prior {
                    if self.now - prev >= idle {
                        self.obs
                            .control_fault(self.now, node, ControlKind::Firewall);
                        self.obs
                            .link_drop(self.now, node, iface, &packet, DropCause::Injected);
                        return;
                    }
                }
            }
            match faults
                .plan
                .match_control(packet.kind, node, self.now)
                .cloned()
            {
                Some(ControlAction::Drop) => {
                    self.obs
                        .link_drop(self.now, node, iface, &packet, DropCause::Injected);
                    return;
                }
                Some(ControlAction::Duplicate) => {
                    copies = 2;
                    self.obs
                        .control_fault(self.now, node, ControlKind::Duplicate);
                }
                Some(ControlAction::Delay(extra)) => {
                    extra_delay = extra;
                    self.obs.control_fault(self.now, node, ControlKind::Delay);
                }
                Some(ControlAction::Corrupt { max_flips }) => {
                    faults.corrupt(&mut packet, max_flips);
                    self.obs.control_fault(self.now, node, ControlKind::Corrupt);
                }
                Some(ControlAction::Forge { proto, body }) => {
                    // The adversary crafts its own datagram from whole cloth
                    // and injects it alongside the observed one. It carries
                    // the same flow id (the attacker can read headers) but
                    // attacker-chosen content.
                    let size = (28 + body.len()) as u32;
                    let forged = Packet::sidecar(packet.flow, proto, body, size, self.now);
                    replicas.push((forged, SimDuration::ZERO));
                    self.obs.control_fault(self.now, node, ControlKind::Forge);
                }
                Some(ControlAction::Replay { copies: n, delay }) => {
                    for i in 0..n {
                        replicas.push((packet.clone(), delay * (i as u64 + 1)));
                    }
                    self.obs.control_fault(self.now, node, ControlKind::Replay);
                }
                Some(ControlAction::Tamper { max_flips }) => {
                    let mut evil = packet.clone();
                    faults.corrupt(&mut evil, max_flips);
                    replicas.push((evil, SimDuration::ZERO));
                    self.obs.control_fault(self.now, node, ControlKind::Tamper);
                }
                None => {}
            }
        }
        if copies == 1 && replicas.is_empty() {
            // Steady-state fast path: hand the packet to the link by value —
            // no clone, so plain forwarding traffic allocates nothing here.
            self.offer_to_link(node, iface, end, packet, extra_delay);
            return;
        }
        for _ in 0..copies {
            self.offer_to_link(node, iface, end, packet.clone(), extra_delay);
        }
        for (replica, extra) in replicas {
            self.offer_to_link(node, iface, end, replica, extra_delay + extra);
        }
    }

    /// Offers one packet to the link behind `end`, scheduling the arrival
    /// (plus `extra_delay`) or accounting for the drop.
    fn offer_to_link(
        &mut self,
        node: NodeId,
        iface: IfaceId,
        end: IfaceEnd,
        packet: Packet,
        extra_delay: SimDuration,
    ) {
        let link = &mut self.links[end.link.0];
        let cause = match link.offer(self.now, packet.size, &mut self.rng) {
            LinkOutcome::Deliver(at) => {
                self.obs.delivered();
                self.obs.hop_enqueue(self.now, node, iface, &packet);
                let seq = self.next_seq();
                self.queue.push(
                    at + extra_delay,
                    seq,
                    EventKind::Arrival {
                        node: end.peer,
                        iface: end.peer_iface,
                        packet,
                    },
                );
                return;
            }
            LinkOutcome::DropQueue => DropCause::Queue,
            LinkOutcome::DropLoss => DropCause::Loss,
        };
        // The packet evaporates; the link's stats recorded it.
        self.obs.link_drop(self.now, node, iface, &packet, cause);
    }

    fn next_seq(&mut self) -> u64 {
        let s = self.event_seq;
        self.event_seq += 1;
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LossModel;
    use crate::packet::{FlowId, PacketKind, Payload};
    use crate::time::SimDuration;
    use std::any::Any;

    /// Sends `total` packets, one per `interval`.
    struct Blaster {
        total: u64,
        sent: u64,
        interval: SimDuration,
    }

    impl Node for Blaster {
        fn on_start(&mut self, ctx: &mut Context) {
            ctx.set_timer_after(SimDuration::ZERO, 0);
        }

        fn on_packet(&mut self, _iface: IfaceId, _packet: Packet, _ctx: &mut Context) {}

        fn on_timer(&mut self, _token: u64, ctx: &mut Context) {
            if self.sent < self.total {
                let pkt = Packet::data(FlowId(0), self.sent, self.sent * 7 + 1, 1500, ctx.now());
                ctx.send(IfaceId(0), pkt);
                self.sent += 1;
                ctx.set_timer_after(self.interval, 0);
            }
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    /// Counts arrivals and records sequence order.
    #[derive(Default)]
    struct Sink {
        received: Vec<u64>,
        last_arrival: Option<SimTime>,
    }

    impl Node for Sink {
        fn on_packet(&mut self, _iface: IfaceId, packet: Packet, ctx: &mut Context) {
            assert_eq!(packet.kind, PacketKind::Data);
            assert!(matches!(packet.payload, Payload::Data { .. }));
            self.received.push(packet.seq);
            self.last_arrival = Some(ctx.now());
        }

        fn as_any(&self) -> &dyn Any {
            self
        }
        fn as_any_mut(&mut self) -> &mut dyn Any {
            self
        }
    }

    fn blaster_world(seed: u64, loss: LossModel, total: u64) -> (World, NodeId, NodeId) {
        let mut w = World::new(seed);
        let src = w.add_node(Box::new(Blaster {
            total,
            sent: 0,
            interval: SimDuration::from_micros(100),
        }));
        let dst = w.add_node(Box::new(Sink::default()));
        let cfg = LinkConfig {
            loss,
            ..LinkConfig::default()
        };
        w.connect(src, dst, cfg, LinkConfig::default());
        (w, src, dst)
    }

    #[test]
    fn lossless_delivery_in_order() {
        let (mut w, src, dst) = blaster_world(1, LossModel::None, 100);
        w.run_until_idle(100_000);
        let sink = w.node_as::<Sink>(dst);
        assert_eq!(sink.received.len(), 100);
        assert!(sink.received.windows(2).all(|p| p[0] < p[1]));
        assert_eq!(w.link_stats(src, IfaceId(0)).delivered, 100);
    }

    #[test]
    fn conservation_under_loss() {
        let (mut w, src, dst) = blaster_world(2, LossModel::Bernoulli { p: 0.3 }, 1000);
        w.run_until_idle(1_000_000);
        let stats = w.link_stats(src, IfaceId(0)).clone();
        let sink = w.node_as::<Sink>(dst);
        // Every offered packet is delivered or dropped — none lost track of.
        assert_eq!(stats.offered, 1000);
        assert_eq!(
            stats.delivered + stats.dropped_loss + stats.dropped_queue,
            stats.offered
        );
        assert_eq!(sink.received.len() as u64, stats.delivered);
        // With p=0.3 over 1000 packets, deliveries land far from both ends.
        assert!((500..900).contains(&(stats.delivered as usize)));
    }

    #[test]
    fn identical_seeds_identical_runs() {
        let run = |seed| {
            let (mut w, _, dst) = blaster_world(seed, LossModel::Bernoulli { p: 0.2 }, 500);
            w.run_until_idle(1_000_000);
            let sink = w.node_as::<Sink>(dst);
            (sink.received.clone(), w.now(), w.events_processed())
        };
        assert_eq!(run(77), run(77));
        assert_ne!(run(77).0, run(78).0);
    }

    #[test]
    fn run_until_respects_deadline() {
        let (mut w, _, dst) = blaster_world(3, LossModel::None, 1000);
        // 1000 packets at 100 us intervals = 100 ms of sending; the first
        // arrival lands just after 1 ms (12 us serialization + 1 ms delay).
        // Stop at 5 ms: roughly 40 arrivals.
        let deadline = SimTime::from_nanos(5_000_000);
        w.run_until(deadline);
        assert_eq!(w.now(), deadline);
        let early = w.node_as::<Sink>(dst).received.len();
        assert!(early > 0 && early < 60, "got {early}");
        // Resume to completion.
        w.run_until_idle(1_000_000);
        assert_eq!(w.node_as::<Sink>(dst).received.len(), 1000);
    }

    #[test]
    fn step_returns_false_when_idle() {
        let mut w = World::new(0);
        let a = w.add_node(Box::new(Sink::default()));
        let b = w.add_node(Box::new(Sink::default()));
        w.connect(a, b, LinkConfig::default(), LinkConfig::default());
        assert!(!w.step()); // no events at all
    }

    #[test]
    #[should_panic(expected = "node type mismatch")]
    fn downcast_mismatch_panics() {
        let mut w = World::new(0);
        let a = w.add_node(Box::new(Sink::default()));
        let _ = w.node_as::<Blaster>(a);
    }

    #[test]
    #[should_panic(expected = "livelock")]
    fn livelock_guard_fires() {
        /// A node that reschedules itself forever.
        struct Spinner;
        impl Node for Spinner {
            fn on_start(&mut self, ctx: &mut Context) {
                ctx.set_timer_after(SimDuration::from_nanos(1), 0);
            }
            fn on_packet(&mut self, _: IfaceId, _: Packet, _: &mut Context) {}
            fn on_timer(&mut self, _: u64, ctx: &mut Context) {
                ctx.set_timer_after(SimDuration::from_nanos(1), 0);
            }
            fn as_any(&self) -> &dyn Any {
                self
            }
            fn as_any_mut(&mut self) -> &mut dyn Any {
                self
            }
        }
        let mut w = World::new(0);
        w.add_node(Box::new(Spinner));
        w.run_until_idle(10_000);
    }
}
