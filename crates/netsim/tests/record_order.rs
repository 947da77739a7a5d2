//! Pins what the world tells the flight recorder, and in which order, at
//! every site that drops, mangles or delivers a packet or flips a node's
//! availability: per site, the exact sequence of event kinds stamped at that
//! instant and the `netsim.*` counters that moved. The goldens cover loss,
//! crash and blackout over long runs; this is the one place the adversary
//! and firewall sites' record order (`control_fault` → `link_drop` →
//! `hop_drop`) is written down.

use sidecar_netsim::fault::FaultPlan;
use sidecar_netsim::link::{LinkConfig, LossModel};
use sidecar_netsim::node::{Context, IfaceId, Node};
use sidecar_netsim::packet::{FlowId, Packet, PacketKind};
use sidecar_netsim::time::{SimDuration, SimTime};
use sidecar_netsim::world::World;
use sidecar_netsim::Forwarder;
use std::any::Any;

/// Site spacing, and the width of every fault window.
const T: u64 = 10_000_000;
const MS: u64 = 1_000_000;
/// 100 B at 1 Gbit/s plus the default link's 1 ms propagation delay.
const HOP: u64 = 800 + MS;

fn t(ns: u64) -> SimTime {
    SimTime::from_nanos(ns)
}

/// Sends one packet out of interface 0 at each listed time: the data packet
/// with that number, or (`None`) a control datagram stamped the way the
/// protocols stamp theirs.
struct Script(Vec<(u64, Option<u64>)>);

impl Node for Script {
    fn on_start(&mut self, ctx: &mut Context) {
        for (i, (at, _)) in self.0.iter().enumerate() {
            ctx.set_timer_at(t(*at), i as u64);
        }
    }
    fn on_packet(&mut self, _iface: IfaceId, _packet: Packet, _ctx: &mut Context) {}
    fn on_timer(&mut self, token: u64, ctx: &mut Context) {
        let mut packet = match self.0[token as usize].1 {
            Some(seq) => Packet::data(FlowId(1), seq, seq * 7 + 1, 100, ctx.now()),
            None => Packet::sidecar(FlowId(1), 1, vec![0xAA; 16], 100, ctx.now()),
        };
        if packet.kind == PacketKind::Sidecar {
            packet.seq = ctx.next_ctrl_seq();
        }
        ctx.send(IfaceId(0), packet);
    }
    fn as_any(&self) -> &dyn Any {
        self
    }
    fn as_any_mut(&mut self) -> &mut dyn Any {
        self
    }
}

#[test]
fn every_site_records_in_the_pinned_order() {
    let mut w = World::new(3);
    // a ⇄ f ⇄ b. a→f holds two packets (one in service, one queued); b→f
    // loses everything; the rest are clean.
    let data = [(2 * T, 2), (2 * T, 3), (2 * T, 4), (3 * T, 5), (4 * T, 6)];
    let mut from_a: Vec<_> = data.iter().map(|&(at, seq)| (at, Some(seq))).collect();
    from_a.extend([(5 * T, None), (5 * T + 5 * MS, None)]);
    from_a.extend((6..=12).map(|k| (k * T, None)));
    let a = w.add_node(Box::new(Script(from_a)));
    let f = w.add_node(Forwarder::boxed());
    let b = w.add_node(Box::new(Script(vec![(T, Some(1))])));
    let tight = LinkConfig {
        queue_packets: 1,
        ..LinkConfig::default()
    };
    let lossy = LinkConfig {
        loss: LossModel::Bernoulli { p: 1.0 },
        ..LinkConfig::default()
    };
    w.connect(a, f, tight, LinkConfig::default());
    w.connect(f, b, LinkConfig::default(), lossy);
    let win = |k: u64| (t(k * T), t(k * T + MS));
    w.install_faults(
        FaultPlan::new(9)
            .crash_restart(f, t(3 * T + MS / 2), t(3 * T + 2 * MS))
            .blackout_between(a, f, win(4).0, win(4).1)
            .firewall_control(SimDuration::from_millis(2), t(5 * T), t(6 * T))
            .drop_control(win(6).0, win(6).1)
            .duplicate_control(win(7).0, win(7).1)
            .delay_control(SimDuration::from_millis(3), win(8).0, win(8).1)
            .corrupt_control(4, win(9).0, win(9).1)
            .forge_control(1, vec![0xEE; 8], win(10).0, win(10).1)
            .replay_control(1, SimDuration::from_millis(1), win(11).0, win(11).1)
            .tamper_control(4, win(12).0, win(12).1),
    );

    const DROP: [&str; 2] = ["link_drop", "hop_drop"];
    const ONE: [&str; 2] = ["control_fault", "hop_enqueue"];
    const TWO: [&str; 3] = ["control_fault", "hop_enqueue", "hop_enqueue"];
    // (site, instant, kinds recorded at that instant, counters that moved by 1).
    #[rustfmt::skip]
    let sites: [(&str, u64, &[&str], &[&str]); 17] = [
        ("link loss", T, &DROP, &["drop.loss"]),
        ("queue overflow", 2 * T, &["hop_enqueue", "hop_enqueue", "link_drop", "hop_drop"], &["drop.queue"]),
        ("arrival, forwarded on", 2 * T + HOP, &["hop_deliver", "hop_enqueue"], &[]),
        ("enqueue", 3 * T, &["hop_enqueue"], &[]),
        ("crash edge", 3 * T + MS / 2, &["outage"], &["fault.outage"]),
        ("arrival at a crashed node", 3 * T + HOP, &DROP, &["drop.node_down"]),
        ("restore edge, on_restart", 3 * T + 2 * MS, &["outage", "restart"], &["fault.restore", "restart"]),
        ("blackout", 4 * T, &DROP, &["drop.blackout"]),
        ("firewall admits a new flow", 5 * T, &["hop_enqueue"], &[]),
        ("idle-firewall drop", 5 * T + 5 * MS, &["control_fault", "link_drop", "hop_drop"], &["drop.injected", "fault.firewall"]),
        ("control Drop", 6 * T, &DROP, &["drop.injected"]),
        ("control Duplicate", 7 * T, &TWO, &["fault.duplicate"]),
        ("control Delay", 8 * T, &ONE, &["fault.delay"]),
        ("control Corrupt", 9 * T, &ONE, &["fault.corrupt"]),
        ("control Forge", 10 * T, &TWO, &["fault.forge"]),
        ("control Replay", 11 * T, &TWO, &["fault.replay"]),
        ("control Tamper", 12 * T, &TWO, &["fault.tamper"]),
    ];
    let mut before = w.obs().metrics.snapshot();
    for (site, at, kinds, moved) in sites {
        w.run_until(t(at));
        let stamped_now = w.obs().trace.events().filter(|(ns, _)| *ns == at);
        let got: Vec<&str> = stamped_now.map(|(_, e)| e.kind()).collect();
        assert_eq!(got, kinds, "{site}: kinds recorded at {at}");
        let after = w.obs().metrics.snapshot();
        let delta = |(name, v): &(String, u64)| (name.clone(), v - before.counter(name));
        let deltas = after.counters.iter().map(delta);
        let got: Vec<_> = deltas
            .filter(|(n, d)| *d != 0 && n != "netsim.delivered")
            .collect();
        let want: Vec<_> = moved.iter().map(|n| (format!("netsim.{n}"), 1)).collect();
        assert_eq!(got, want, "{site}: counters moved by {at}");
        before = after;
    }
}
