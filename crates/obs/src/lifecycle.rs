//! Per-packet lifecycle reconstruction — the flight recorder's read side.
//!
//! The write side stamps every simulated data packet and sidecar control
//! datagram with a [`TraceId`] and records typed hop/protocol events into
//! per-world [`EventTrace`] rings. This module merges those rings back into
//! per-packet [`PacketTimeline`]s, checks the causal invariants the sidecar
//! design promises (a proxy retransmission is always *reacting* to a quACK
//! decode; every accepted hop resolves to delivery xor drop), and answers
//! the paper's diagnostic questions: which packets went missing, on which
//! subpath segment, and how fast the sidecar reacted (§2.3).
//!
//! Reconstruction is honest about truncation: a ring that evicted records
//! ([`EventTrace::dropped`] > 0) can prove nothing about events it forgot,
//! so [`Lifecycle::is_complete`] is false and [`Lifecycle::check_causal`]
//! refuses to certify the run rather than vouching for a partial history.

use std::collections::BTreeMap;
use std::fmt;

use crate::event::{DropCause, Event, TraceClass};
use crate::trace::EventTrace;

/// Identity of one traced object as it moves across nodes.
///
/// Data packets are identified by `(flow, packet number)` — both already on
/// the wire, so the stamp costs zero extra bytes. Control datagrams get a
/// world-scoped control sequence in the same `seq` field.
#[derive(Copy, Clone, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub struct TraceId {
    /// Which `(flow, seq)` namespace this id lives in.
    pub class: TraceClass,
    /// Flow id.
    pub flow: u32,
    /// Packet number (data) or control sequence (ctrl).
    pub seq: u64,
}

impl TraceId {
    /// A data-packet id.
    pub fn data(flow: u32, seq: u64) -> Self {
        TraceId {
            class: TraceClass::Data,
            flow,
            seq,
        }
    }

    /// A control-datagram id.
    pub fn ctrl(flow: u32, seq: u64) -> Self {
        TraceId {
            class: TraceClass::Ctrl,
            flow,
            seq,
        }
    }

    /// Parses the `Display` form: `<flow>:<seq>` for data packets,
    /// `ctrl:<flow>:<seq>` for control datagrams (the same syntax
    /// `exp_reaction --explain` accepts).
    pub fn parse(text: &str) -> Result<TraceId, String> {
        let bad = || format!("bad trace id {text:?} (want <flow>:<seq> or ctrl:<flow>:<seq>)");
        let (class, rest) = match text.strip_prefix("ctrl:") {
            Some(rest) => (TraceClass::Ctrl, rest),
            None => (TraceClass::Data, text),
        };
        let (flow, seq) = rest.split_once(':').ok_or_else(bad)?;
        Ok(TraceId {
            class,
            flow: flow.parse().map_err(|_| bad())?,
            seq: seq.parse().map_err(|_| bad())?,
        })
    }
}

impl fmt::Display for TraceId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.class {
            TraceClass::Data => write!(f, "{}:{}", self.flow, self.seq),
            TraceClass::Ctrl => write!(f, "ctrl:{}:{}", self.flow, self.seq),
        }
    }
}

/// One traced object's time-ordered lifecycle events.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PacketTimeline {
    /// The object the steps belong to.
    pub id: TraceId,
    /// `(sim-nanoseconds, event)` records, oldest first.
    pub steps: Vec<(u64, Event)>,
}

impl PacketTimeline {
    /// Timestamp of the first recorded step.
    pub fn first_at(&self) -> u64 {
        self.steps.first().map_or(0, |&(at, _)| at)
    }

    /// Timestamp of the last recorded step.
    pub fn last_at(&self) -> u64 {
        self.steps.last().map_or(0, |&(at, _)| at)
    }

    /// Count of steps matching `pred`.
    fn count(&self, pred: impl Fn(&Event) -> bool) -> usize {
        self.steps.iter().filter(|(_, e)| pred(e)).count()
    }

    /// True when at least one hop delivered this object.
    pub fn delivered(&self) -> bool {
        self.count(|e| matches!(e, Event::HopDeliver { .. })) > 0
    }

    /// True when at least one hop dropped this object.
    pub fn dropped(&self) -> bool {
        self.count(|e| matches!(e, Event::HopDrop { .. })) > 0
    }

    /// True when a proxy retransmitted this object (§2.3 in-network
    /// recovery).
    pub fn proxy_retransmitted(&self) -> bool {
        self.count(|e| matches!(e, Event::ProxyRetx { .. })) > 0
    }
}

/// Merged view of a run's lifecycle events, grouped per [`TraceId`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Lifecycle {
    timelines: BTreeMap<TraceId, PacketTimeline>,
    /// Records evicted from the source rings before reconstruction saw them.
    dropped_records: u64,
}

impl Lifecycle {
    /// Reconstructs timelines from one ring.
    pub fn from_trace(trace: &EventTrace) -> Self {
        Self::from_rings([trace])
    }

    /// Reconstructs timelines by merging several per-node/per-world rings.
    ///
    /// Each ring is already time-ordered; the merge is a stable sort on the
    /// timestamp, so same-stamp records keep their ring order and the result
    /// is deterministic for deterministic inputs.
    pub fn from_rings<'a, I>(rings: I) -> Self
    where
        I: IntoIterator<Item = &'a EventTrace>,
    {
        let mut merged: Vec<(u64, Event)> = Vec::new();
        let mut dropped_records = 0u64;
        for ring in rings {
            dropped_records += ring.dropped();
            merged.extend(ring.events().copied());
        }
        merged.sort_by_key(|&(at, _)| at);
        let mut timelines: BTreeMap<TraceId, PacketTimeline> = BTreeMap::new();
        for (at, event) in merged {
            if let Some(id) = lifecycle_id(&event) {
                timelines
                    .entry(id)
                    .or_insert_with(|| PacketTimeline {
                        id,
                        steps: Vec::new(),
                    })
                    .steps
                    .push((at, event));
            }
        }
        Lifecycle {
            timelines,
            dropped_records,
        }
    }

    /// True when every source ring retained its full history. A truncated
    /// reconstruction still renders what it has, but never claims
    /// completeness (and [`Lifecycle::check_causal`] refuses to certify it).
    pub fn is_complete(&self) -> bool {
        self.dropped_records == 0
    }

    /// Records the source rings evicted before reconstruction.
    pub fn dropped_records(&self) -> u64 {
        self.dropped_records
    }

    /// Number of distinct traced objects.
    pub fn len(&self) -> usize {
        self.timelines.len()
    }

    /// True when no lifecycle events were found.
    pub fn is_empty(&self) -> bool {
        self.timelines.is_empty()
    }

    /// The timeline for `id`, if any step mentioned it.
    pub fn get(&self, id: TraceId) -> Option<&PacketTimeline> {
        self.timelines.get(&id)
    }

    /// All timelines in `TraceId` order.
    pub fn timelines(&self) -> impl Iterator<Item = &PacketTimeline> {
        self.timelines.values()
    }

    /// Data-packet timelines only (control datagrams excluded).
    pub fn data_timelines(&self) -> impl Iterator<Item = &PacketTimeline> {
        self.timelines
            .values()
            .filter(|t| t.id.class == TraceClass::Data)
    }

    /// Checks the causal invariants of a *complete* reconstruction:
    ///
    /// 1. steps within each timeline are time-ordered (merge sanity);
    /// 2. every `ProxyRetx` is preceded (same `TraceId`, `≤` timestamp) by a
    ///    `DecodeMissing` — in-network retransmission is always a *reaction*
    ///    to a quACK decode, never spontaneous;
    /// 3. hop accounting: deliveries never outnumber enqueues, and at
    ///    quiescence every accepted hop resolved to delivery xor drop
    ///    (`delivers + node_down drops == enqueues`; loss/queue/blackout/
    ///    injected drops happen at transmit time, before any enqueue).
    ///
    /// Worlds stop at a wall-clock deadline rather than at queue drain, so
    /// a timeline may legitimately end with one unresolved `HopEnqueue` —
    /// the packet was on the wire when the simulation cut off (periodic
    /// quACK emitters guarantee this for the last control datagram). That
    /// exact shape — exactly one missing resolution *and* the final step is
    /// the enqueue — is accepted; an unresolved enqueue followed by later
    /// activity on the same packet is still a violation (packets cannot
    /// silently vanish mid-trace).
    ///
    /// Returns the first violation found, or an error immediately when the
    /// source rings were truncated — a partial history can satisfy or
    /// violate any of these vacuously, so nothing is certified.
    pub fn check_causal(&self) -> Result<(), String> {
        if !self.is_complete() {
            return Err(format!(
                "ring truncated ({} records evicted): causal invariants unverifiable",
                self.dropped_records
            ));
        }
        for tl in self.timelines.values() {
            let mut prev = 0u64;
            let mut decode_seen = false;
            let mut enq = 0usize;
            let mut delivered = 0usize;
            let mut arrival_drops = 0usize;
            for &(at, ref event) in &tl.steps {
                if at < prev {
                    return Err(format!("{}: steps out of order at {at}ns", tl.id));
                }
                prev = at;
                match *event {
                    Event::DecodeMissing { .. } => decode_seen = true,
                    Event::ProxyRetx { .. } if !decode_seen => {
                        return Err(format!(
                            "{}: proxy_retx at {at}ns with no preceding decode_missing",
                            tl.id
                        ));
                    }
                    Event::HopEnqueue { .. } => enq += 1,
                    Event::HopDeliver { .. } => delivered += 1,
                    Event::HopDrop {
                        cause: DropCause::NodeDown,
                        ..
                    } => arrival_drops += 1,
                    _ => {}
                }
                if delivered + arrival_drops > enq {
                    return Err(format!(
                        "{}: {delivered} deliveries + {arrival_drops} arrival drops \
                         outnumber {enq} enqueues at {at}ns",
                        tl.id
                    ));
                }
            }
            let in_flight_at_end = delivered + arrival_drops + 1 == enq
                && matches!(tl.steps.last(), Some(&(_, Event::HopEnqueue { .. })));
            if delivered + arrival_drops != enq && !in_flight_at_end {
                return Err(format!(
                    "{}: {enq} enqueues resolved into {delivered} deliveries + \
                     {arrival_drops} arrival drops (packet vanished mid-trace)",
                    tl.id
                ));
            }
        }
        Ok(())
    }

    /// Timelines whose final step is an unresolved `HopEnqueue`: packets on
    /// the wire when the simulation deadline cut the trace. These pass
    /// [`check_causal`](Self::check_causal) (the cutoff is not a protocol
    /// bug) but callers claiming delivery completeness should surface the
    /// count.
    pub fn in_flight_at_end(&self) -> usize {
        self.timelines
            .values()
            .filter(|tl| {
                let mut unresolved = 0i64;
                for (_, event) in &tl.steps {
                    match *event {
                        Event::HopEnqueue { .. } => unresolved += 1,
                        Event::HopDeliver { .. } => unresolved -= 1,
                        Event::HopDrop {
                            cause: DropCause::NodeDown,
                            ..
                        } => unresolved -= 1,
                        _ => {}
                    }
                }
                unresolved == 1 && matches!(tl.steps.last(), Some(&(_, Event::HopEnqueue { .. })))
            })
            .count()
    }

    /// Human-readable timeline for one object: `+offset` per step relative
    /// to the first record, an e2e-recovery cross-reference when the lost
    /// packet number's data unit reappears under a fresh packet number, and
    /// an explicit truncation warning when the source rings evicted records.
    pub fn explain(&self, id: TraceId) -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        let Some(tl) = self.timelines.get(&id) else {
            let _ = writeln!(out, "{id}: no lifecycle events recorded");
            if !self.is_complete() {
                let _ = writeln!(
                    out,
                    "  (ring truncated: {} records evicted — the packet may have \
                     been traced and forgotten)",
                    self.dropped_records
                );
            }
            return out;
        };
        let t0 = tl.first_at();
        let _ = writeln!(
            out,
            "{} ({} packet, {} events, t0={}ns)",
            id,
            id.class.as_str(),
            tl.steps.len(),
            t0
        );
        if !self.is_complete() {
            let _ = writeln!(
                out,
                "  ! ring truncated ({} records evicted): timeline may be partial",
                self.dropped_records
            );
        }
        for &(at, ref event) in &tl.steps {
            let _ = writeln!(out, "  +{:>10.3}ms  {}", ms_since(t0, at), event);
            // A transport-declared loss is recovered end to end under a
            // fresh packet number; follow the data unit there.
            if let Event::E2eLost { flow, unit, .. } = *event {
                if let Some((rt, rseq)) = self.find_e2e_retx(flow, unit, at) {
                    let _ = writeln!(
                        out,
                        "  +{:>10.3}ms  ... unit {unit} recovered by e2e retx as {}",
                        ms_since(t0, rt),
                        TraceId::data(flow, rseq)
                    );
                }
            }
        }
        out
    }

    /// Earliest `E2eRetx` of `(flow, unit)` at or after `after`.
    fn find_e2e_retx(&self, flow: u32, unit: u64, after: u64) -> Option<(u64, u64)> {
        self.data_timelines()
            .filter(|t| t.id.flow == flow)
            .flat_map(|t| t.steps.iter())
            .filter_map(|&(at, ref e)| match *e {
                Event::E2eRetx {
                    flow: f,
                    seq,
                    unit: u,
                    ..
                } if f == flow && u == unit && at >= after => Some((at, seq)),
                _ => None,
            })
            .min()
    }

    /// QuACK→retx reaction latencies (nanoseconds) for §2.3-style
    /// *in-network* recovery: for every `ProxyRetx`, the gap since the first
    /// `DecodeMissing` on the same `TraceId`. Pairs missing a decode are
    /// skipped (they would violate [`Lifecycle::check_causal`] anyway).
    pub fn proxy_reaction_latencies(&self) -> Vec<u64> {
        let mut out = Vec::new();
        for tl in self.data_timelines() {
            let first_decode = tl
                .steps
                .iter()
                .find_map(|&(at, ref e)| matches!(e, Event::DecodeMissing { .. }).then_some(at));
            let Some(t_decode) = first_decode else {
                continue;
            };
            for &(at, ref e) in &tl.steps {
                if matches!(e, Event::ProxyRetx { .. }) && at >= t_decode {
                    out.push(at - t_decode);
                }
            }
        }
        out
    }

    /// QuACK→retx reaction latencies (nanoseconds) for protocols whose
    /// recovery stays *end to end* (§2.1 CCD, §2.2 ACK reduction): the
    /// transport retransmits a data unit under a fresh packet number, so the
    /// join runs `DecodeMissing(pn)` → `E2eLost(pn, unit)` → `E2eRetx(_,
    /// unit)`. Units whose loss the quACK never reported (e.g. lost on the
    /// un-proxied segment) have no quACK reaction and are skipped.
    pub fn e2e_reaction_latencies(&self) -> Vec<u64> {
        // (flow, unit) -> earliest decode_missing stamp among the unit's
        // lost packet numbers.
        let mut first_decode: BTreeMap<(u32, u64), u64> = BTreeMap::new();
        for tl in self.data_timelines() {
            let decode = tl
                .steps
                .iter()
                .find_map(|&(at, ref e)| matches!(e, Event::DecodeMissing { .. }).then_some(at));
            let Some(t_decode) = decode else { continue };
            for (_, e) in &tl.steps {
                if let Event::E2eLost { flow, unit, .. } = *e {
                    first_decode
                        .entry((flow, unit))
                        .and_modify(|t| *t = (*t).min(t_decode))
                        .or_insert(t_decode);
                }
            }
        }
        let mut out = Vec::new();
        for tl in self.data_timelines() {
            for &(at, ref e) in &tl.steps {
                if let Event::E2eRetx { flow, unit, .. } = *e {
                    if let Some(&t_decode) = first_decode.get(&(flow, unit)) {
                        if at >= t_decode {
                            out.push(at - t_decode);
                        }
                    }
                }
            }
        }
        out
    }

    /// Data-packet drops attributed to `(node, iface)` path segments — the
    /// per-subpath loss breakdown §2.3's frequency tuning keys off.
    pub fn drop_segments(&self) -> BTreeMap<(u32, u32), u64> {
        let mut out: BTreeMap<(u32, u32), u64> = BTreeMap::new();
        for tl in self.data_timelines() {
            for (_, e) in &tl.steps {
                if let Event::HopDrop { node, iface, .. } = *e {
                    *out.entry((node, iface)).or_default() += 1;
                }
            }
        }
        out
    }
}

/// Which timeline an event belongs to, if it is a lifecycle event at all.
fn lifecycle_id(event: &Event) -> Option<TraceId> {
    Some(match *event {
        Event::HopEnqueue {
            class, flow, seq, ..
        }
        | Event::HopDeliver {
            class, flow, seq, ..
        }
        | Event::HopDrop {
            class, flow, seq, ..
        } => TraceId { class, flow, seq },
        Event::QuackFold { flow, seq, .. }
        | Event::DecodeMissing { flow, seq, .. }
        | Event::ProxyRetx { flow, seq, .. }
        | Event::E2eLost { flow, seq, .. }
        | Event::E2eRetx { flow, seq, .. } => TraceId::data(flow, seq),
        _ => return None,
    })
}

fn ms_since(t0: u64, at: u64) -> f64 {
    (at - t0) as f64 / 1_000_000.0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn hop(kind: u8, node: u32, seq: u64) -> Event {
        match kind {
            0 => Event::HopEnqueue {
                node,
                iface: 0,
                class: TraceClass::Data,
                flow: 1,
                seq,
            },
            1 => Event::HopDeliver {
                node,
                iface: 0,
                class: TraceClass::Data,
                flow: 1,
                seq,
            },
            _ => Event::HopDrop {
                node,
                iface: 0,
                class: TraceClass::Data,
                flow: 1,
                seq,
                cause: DropCause::Loss,
            },
        }
    }

    #[test]
    fn trace_id_display_parse_roundtrip() {
        for id in [
            TraceId::data(7, 4182),
            TraceId::ctrl(0, 9),
            TraceId::data(0, 0),
        ] {
            assert_eq!(TraceId::parse(&id.to_string()).unwrap(), id);
        }
        assert!(TraceId::parse("7").is_err());
        assert!(TraceId::parse("a:b").is_err());
        assert!(TraceId::parse("ctrl:7").is_err());
    }

    #[test]
    fn reconstruction_groups_and_orders() {
        let mut ring = EventTrace::with_capacity(64);
        ring.record(10, hop(0, 0, 5));
        ring.record(20, hop(0, 0, 6));
        ring.record(30, hop(1, 1, 5));
        ring.record(40, hop(1, 1, 6));
        ring.record(15, Event::Restart { node: 2 }); // not a lifecycle event
        let lc = Lifecycle::from_trace(&ring);
        assert!(lc.is_complete());
        assert_eq!(lc.len(), 2);
        let tl = lc.get(TraceId::data(1, 5)).unwrap();
        assert_eq!(tl.steps.len(), 2);
        assert!(tl.delivered());
        assert!(!tl.dropped());
        lc.check_causal().unwrap();
    }

    #[test]
    fn truncated_ring_refuses_certification() {
        let mut ring = EventTrace::with_capacity(1);
        ring.record(10, hop(0, 0, 5));
        ring.record(20, hop(1, 1, 5));
        let lc = Lifecycle::from_trace(&ring);
        assert!(!lc.is_complete());
        assert!(lc.check_causal().is_err());
        let text = lc.explain(TraceId::data(1, 5));
        assert!(text.contains("truncated"), "{text}");
    }

    #[test]
    fn spontaneous_proxy_retx_is_a_violation() {
        // First send lost at transmit (drop, no enqueue), then a proxy retx
        // with no quACK decode in front of it: violation.
        let mut ring = EventTrace::with_capacity(64);
        ring.record(10, hop(2, 1, 5));
        ring.record(
            30,
            Event::ProxyRetx {
                node: 1,
                flow: 1,
                seq: 5,
            },
        );
        ring.record(40, hop(0, 1, 5));
        ring.record(50, hop(1, 2, 5));
        let lc = Lifecycle::from_trace(&ring);
        assert!(lc.check_causal().is_err());
        // With the decode in front it passes.
        let mut ring2 = EventTrace::with_capacity(64);
        ring2.record(10, hop(2, 1, 5));
        ring2.record(
            25,
            Event::DecodeMissing {
                node: 1,
                flow: 1,
                seq: 5,
            },
        );
        ring2.record(
            30,
            Event::ProxyRetx {
                node: 1,
                flow: 1,
                seq: 5,
            },
        );
        ring2.record(40, hop(0, 1, 5));
        ring2.record(50, hop(1, 2, 5));
        let lc2 = Lifecycle::from_trace(&ring2);
        lc2.check_causal().unwrap();
        assert_eq!(lc2.proxy_reaction_latencies(), vec![5]);
    }

    #[test]
    fn trailing_enqueue_is_in_flight_at_cutoff_not_a_violation() {
        // The deadline cut the trace with the packet on the wire: the lone
        // unresolved enqueue is the final step, so accounting tolerates it
        // but the packet is reported as in flight.
        let mut ring = EventTrace::with_capacity(64);
        ring.record(10, hop(0, 0, 5));
        let lc = Lifecycle::from_trace(&ring);
        lc.check_causal().unwrap();
        assert_eq!(lc.in_flight_at_end(), 1);
    }

    #[test]
    fn vanish_mid_trace_is_a_violation() {
        // Enqueue with no resolution followed by *later* activity on the
        // same packet: the packet silently vanished mid-trace, which the
        // cutoff exemption must not excuse.
        let mut ring = EventTrace::with_capacity(64);
        ring.record(10, hop(0, 0, 5));
        ring.record(20, hop(0, 0, 5));
        ring.record(30, hop(1, 1, 5));
        let lc = Lifecycle::from_trace(&ring);
        assert!(lc.check_causal().unwrap_err().contains("vanished"));
        assert_eq!(lc.in_flight_at_end(), 0);
    }

    #[test]
    fn e2e_reaction_joins_through_lost_unit() {
        let mut ring = EventTrace::with_capacity(64);
        // pn 5 carries unit 4; quACK reports it missing at t=100; transport
        // declares the loss at t=150 and resends unit 4 as pn 9 at t=160.
        ring.record(
            100,
            Event::DecodeMissing {
                node: 0,
                flow: 1,
                seq: 5,
            },
        );
        ring.record(
            150,
            Event::E2eLost {
                node: 0,
                flow: 1,
                seq: 5,
                unit: 4,
            },
        );
        ring.record(
            160,
            Event::E2eRetx {
                node: 0,
                flow: 1,
                seq: 9,
                unit: 4,
            },
        );
        let lc = Lifecycle::from_trace(&ring);
        assert_eq!(lc.e2e_reaction_latencies(), vec![60]);
        let text = lc.explain(TraceId::data(1, 5));
        assert!(text.contains("recovered by e2e retx as 1:9"), "{text}");
    }

    #[test]
    fn drop_segments_attribute_by_node_and_iface() {
        let mut ring = EventTrace::with_capacity(64);
        ring.record(10, hop(2, 1, 5));
        ring.record(20, hop(2, 1, 6));
        let lc = Lifecycle::from_trace(&ring);
        let segs = lc.drop_segments();
        assert_eq!(segs.get(&(1, 0)), Some(&2));
    }
}
