//! The world's event queue: a calendar-queue timer wheel.
//!
//! The world processes events in `(time, insertion sequence)` order — a
//! total order, since sequences are unique, so a `(topology, seed)` pair
//! replays bit-identically. The tests below pin that order against a plain
//! `BinaryHeap` of the same keys.
//!
//! # Wheel layout
//!
//! The wheel is a single-level calendar queue: `NSLOTS` slots of
//! `SLOT_NS` nanoseconds each (2^14 × 2^13 ns ≈ 134 ms of horizon).
//! Event payloads live in a free-listed slab — the pool that makes
//! steady-state scheduling allocation-free — and each slot is an intrusive
//! singly-linked list threaded through the slab (a head index per slot, a
//! `next` index per node), so inserting anywhere in the horizon is O(1) and
//! touches no growable buffer: slot occupancy can migrate around the wheel
//! forever without a single per-slot `Vec` needing to learn its high-water
//! mark.
//!
//! * Events within the horizon link into `slots[(at >> SLOT_BITS) % NSLOTS]`
//!   (O(1) insert, no ordering work).
//! * Events in the *current* slot go to a small `due` vector kept sorted
//!   descending by `(at, seq)` (earliest at the back, popped O(1)): a slot
//!   spans 8.2 µs of nanosecond-resolution timestamps, so sub-slot order
//!   is restored per slot, not globally.
//! * Events past the horizon overflow into a plain binary heap (far-future
//!   fault edges, long supervision deadlines) and migrate into the wheel as
//!   the cursor approaches — the only O(log n) path, reserved for the rare
//!   far-out arm.
//!
//! Popping walks the current slot's list into `due` and sorts it once
//! (one branch-predictable `sort_unstable` over 24-byte `(time, seq, slab
//! index)` keys beats per-pop heap sifts, and the buffer is shared so its
//! capacity plateaus at the global max-slot-occupancy), then pops `due`
//! from the back until empty. Slot occupancy is a 16 Kbit bitmap so
//! cursor advances skip empty regions a word at a time.

use crate::time::SimTime;
use std::cmp::Ordering;
use std::collections::BinaryHeap;

/// log2 of the slot width in nanoseconds (2^13 ns ≈ 8.2 µs per slot).
const SLOT_BITS: u32 = 13;
/// log2 of the slot count (2^14 = 16384 slots ≈ 134 ms horizon).
const WHEEL_BITS: u32 = 14;
/// Number of wheel slots.
const NSLOTS: u64 = 1 << WHEEL_BITS;
/// Occupancy-bitmap words (64 slots per word).
const WORDS: usize = (NSLOTS / 64) as usize;

/// A 24-byte wheel entry: full ordering key plus the slab index of the
/// event payload.
#[derive(Copy, Clone, Debug)]
struct Entry {
    at: SimTime,
    seq: u64,
    idx: u32,
}

impl PartialEq for Entry {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl Eq for Entry {}
impl PartialOrd for Entry {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Entry {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed on purpose: sorting ascending under this Ord yields
        // descending `(at, seq)`, so the earliest event sits at the back
        // of the `due` vector and pops in O(1).
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// A heap entry carrying its payload inline (wheel overflow).
struct HeapEntry<T> {
    at: SimTime,
    seq: u64,
    kind: T,
}

impl<T> PartialEq for HeapEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}
impl<T> Eq for HeapEntry<T> {}
impl<T> PartialOrd for HeapEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for HeapEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (other.at, other.seq).cmp(&(self.at, self.seq))
    }
}

/// Sentinel slab index terminating a slot's intrusive list.
const NIL: u32 = u32::MAX;

/// A pooled event: its full ordering key, its payload, and the intrusive
/// link to the next event in the same slot (NIL when unlinked).
struct SlabNode<T> {
    at: SimTime,
    seq: u64,
    next: u32,
    kind: Option<T>,
}

/// The calendar-queue timer wheel (see the module docs for the layout).
pub(crate) struct EventQueue<T> {
    /// Pooled event nodes; `free` recycles vacated cells.
    slab: Vec<SlabNode<T>>,
    free: Vec<u32>,
    /// Head slab index of each slot's intrusive list (NIL when empty).
    slots: Vec<u32>,
    /// Occupancy bitmap over the slots.
    words: [u64; WORDS],
    /// Absolute slot index of the cursor (`at >> SLOT_BITS` of the newest
    /// drained slot). Everything strictly below has been drained into
    /// `due` or delivered.
    cur_slot: u64,
    /// Events of the current slot, sorted descending by `(at, seq)` —
    /// earliest last, popped from the back.
    due: Vec<Entry>,
    /// Beyond-horizon events, ordered by `(at, seq)`, payload inline.
    overflow: BinaryHeap<HeapEntry<T>>,
    /// Entries resident in `slots` (excludes `due` and `overflow`).
    wheel_len: usize,
    /// Total events queued.
    len: usize,
}

impl<T> EventQueue<T> {
    pub(crate) fn new() -> Self {
        EventQueue {
            slab: Vec::new(),
            free: Vec::new(),
            slots: vec![NIL; NSLOTS as usize],
            words: [0; WORDS],
            cur_slot: 0,
            due: Vec::new(),
            overflow: BinaryHeap::new(),
            wheel_len: 0,
            len: 0,
        }
    }

    pub(crate) fn len(&self) -> usize {
        self.len
    }

    fn alloc(&mut self, at: SimTime, seq: u64, kind: T) -> u32 {
        let node = SlabNode {
            at,
            seq,
            next: NIL,
            kind: Some(kind),
        };
        if let Some(idx) = self.free.pop() {
            self.slab[idx as usize] = node;
            idx
        } else {
            let idx = self.slab.len() as u32;
            self.slab.push(node);
            idx
        }
    }

    fn take(&mut self, idx: u32) -> T {
        let kind = self.slab[idx as usize]
            .kind
            .take()
            .expect("slab cell vacant");
        self.free.push(idx);
        kind
    }

    /// Queues `kind` at `(at, seq)`. `seq` must be unique and increasing
    /// across pushes (the world's event sequence).
    pub(crate) fn push(&mut self, at: SimTime, seq: u64, kind: T) {
        self.len += 1;
        let slot = at.tick(SLOT_BITS);
        if slot >= self.cur_slot + NSLOTS {
            self.overflow.push(HeapEntry { at, seq, kind });
        } else {
            self.insert_wheel(at, seq, kind);
        }
    }

    /// Places an in-horizon event into `due` (current slot) or its slot.
    fn insert_wheel(&mut self, at: SimTime, seq: u64, kind: T) {
        let slot = at.tick(SLOT_BITS);
        debug_assert!(slot >= self.cur_slot, "event behind the cursor");
        debug_assert!(slot < self.cur_slot + NSLOTS, "event past the horizon");
        let idx = self.alloc(at, seq, kind);
        if slot == self.cur_slot {
            // Keep the descending sort: find the insertion point (rare
            // path — only zero/sub-slot-delay events land here).
            let entry = Entry { at, seq, idx };
            let pos = self.due.partition_point(|e| *e < entry);
            self.due.insert(pos, entry);
        } else {
            let phys = (slot % NSLOTS) as usize;
            self.slab[idx as usize].next = self.slots[phys];
            self.slots[phys] = idx;
            self.words[phys >> 6] |= 1 << (phys & 63);
            self.wheel_len += 1;
        }
    }

    /// Moves every overflow event whose slot entered the horizon into the
    /// wheel (or `due`), preserving total order via the per-event key.
    fn migrate_overflow(&mut self) {
        while let Some(top) = self.overflow.peek() {
            if top.at.tick(SLOT_BITS) >= self.cur_slot + NSLOTS {
                break;
            }
            let e = self.overflow.pop().expect("peeked entry");
            self.insert_wheel(e.at, e.seq, e.kind);
        }
    }

    /// Physical index of the first occupied slot at/after `start`
    /// (circular). Caller guarantees at least one slot is occupied.
    fn find_occupied(&self, start: u64) -> u64 {
        let w0 = (start >> 6) as usize;
        let masked = self.words[w0] & (!0u64 << (start & 63));
        if masked != 0 {
            return ((w0 as u64) << 6) + masked.trailing_zeros() as u64;
        }
        for step in 1..=WORDS {
            let w = (w0 + step) % WORDS;
            if self.words[w] != 0 {
                return ((w as u64) << 6) + self.words[w].trailing_zeros() as u64;
            }
        }
        unreachable!("find_occupied on an empty wheel");
    }

    /// Pops the earliest event by `(at, seq)`; with `limit`, only if it
    /// fires at or before the limit.
    pub(crate) fn pop_due(&mut self, limit: Option<SimTime>) -> Option<(SimTime, T)> {
        loop {
            self.migrate_overflow();
            if let Some(head) = self.due.last() {
                if limit.is_some_and(|d| head.at > d) {
                    return None;
                }
                let e = self.due.pop().expect("checked entry");
                self.len -= 1;
                let kind = self.take(e.idx);
                return Some((e.at, kind));
            }
            if self.wheel_len == 0 {
                // Only beyond-horizon events remain (if any): jump the
                // cursor to the earliest one and let migration pull it in.
                let top_at = self.overflow.peek().map(|e| e.at)?;
                if limit.is_some_and(|d| top_at > d) {
                    return None;
                }
                self.cur_slot = top_at.tick(SLOT_BITS);
                continue;
            }
            // Advance the cursor to the next occupied slot and drain it.
            let start = (self.cur_slot + 1) % NSLOTS;
            let phys = self.find_occupied(start);
            let slot = self.cur_slot + 1 + (phys + NSLOTS - start) % NSLOTS;
            if limit.is_some_and(|d| slot << SLOT_BITS > d.as_nanos()) {
                // Everything left fires past the limit; leave state as-is.
                return None;
            }
            self.cur_slot = slot;
            let phys = phys as usize;
            self.words[phys >> 6] &= !(1 << (phys & 63));
            // Walk the slot's list into the (empty) due buffer and sort it
            // once. The buffer is the wheel's only growable hot-path
            // storage; its capacity plateaus at the max slot occupancy.
            debug_assert!(self.due.is_empty());
            let mut head = std::mem::replace(&mut self.slots[phys], NIL);
            while head != NIL {
                let node = &mut self.slab[head as usize];
                self.due.push(Entry {
                    at: node.at,
                    seq: node.seq,
                    idx: head,
                });
                head = std::mem::replace(&mut node.next, NIL);
            }
            self.wheel_len -= self.due.len();
            // Entry's Ord is reversed, so ascending sort = earliest last.
            self.due.sort_unstable();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SimRng;
    use crate::time::SimDuration;

    fn drain<T>(q: &mut EventQueue<T>) -> Vec<(SimTime, T)> {
        let mut out = Vec::new();
        while let Some(ev) = q.pop_due(None) {
            out.push(ev);
        }
        out
    }

    /// `pop_due` on the reference model: a plain binary heap of the same keys.
    fn heap_pop_due(
        heap: &mut BinaryHeap<HeapEntry<u64>>,
        limit: Option<SimTime>,
    ) -> Option<(SimTime, u64)> {
        if limit.is_some_and(|d| heap.peek().is_none_or(|e| e.at > d)) {
            return None;
        }
        heap.pop().map(|e| (e.at, e.kind))
    }

    #[test]
    fn fifo_tie_break_at_equal_times() {
        let mut q = EventQueue::new();
        let t = SimTime::from_nanos(5_000);
        for seq in 0..100u64 {
            q.push(t, seq, seq);
        }
        let got: Vec<u64> = drain(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn wheel_matches_heap_on_random_workloads() {
        // Interleaved pushes and pops with times spanning sub-slot gaps,
        // multi-slot gaps, and beyond-horizon jumps (overflow path). Half of
        // the pops carry a limit — `World::run_until`'s path — a sub-slot
        // step, a millisecond, or a second (past the 134 ms horizon) ahead.
        for seed in 0..8u64 {
            let mut rng = SimRng::new(seed);
            let mut q = EventQueue::new();
            let mut heap = BinaryHeap::new();
            let mut t = 0u64;
            // The world's clock: nothing is scheduled before it.
            let mut floor = 0u64;
            let (mut granted, mut refused) = (0u32, 0u32);
            for seq in 0..4_000u64 {
                t += match rng.below(4) {
                    0 => rng.below(1 << 10), // same slot
                    1 => rng.below(1 << 16), // nearby slots
                    2 => rng.below(1 << 24), // far slots
                    _ => rng.below(1 << 29), // often past horizon
                };
                let at = SimTime::from_nanos(floor + t);
                q.push(at, seq, seq);
                heap.push(HeapEntry { at, seq, kind: seq });
                if rng.below(3) != 0 {
                    continue;
                }
                let limit = match rng.below(6) {
                    0 => Some(floor + rng.below(1 << 12)),
                    1 => Some(floor + rng.below(1 << 20)),
                    2 => Some(floor + rng.below(1 << 30)),
                    _ => None,
                }
                .map(SimTime::from_nanos);
                let got = q.pop_due(limit);
                assert_eq!(got, heap_pop_due(&mut heap, limit), "seed {seed} seq {seq}");
                assert_eq!(q.len(), heap.len(), "seed {seed} seq {seq}");
                match (got, limit) {
                    (Some((at, _)), _) => {
                        floor = at.as_nanos();
                        granted += u32::from(limit.is_some());
                    }
                    (None, Some(limit)) => {
                        // Refused: asking again changes nothing, and the
                        // clock clamps forward as `run_until` does.
                        assert_eq!(q.pop_due(Some(limit)), None);
                        assert_eq!(q.len(), heap.len());
                        floor = floor.max(limit.as_nanos());
                        refused += 1;
                    }
                    (None, None) => unreachable!("an event was just pushed"),
                }
            }
            assert!(
                granted > 50 && refused > 50,
                "{granted} granted, {refused} refused"
            );
            let rest: Vec<_> = std::iter::from_fn(|| heap_pop_due(&mut heap, None)).collect();
            assert_eq!(drain(&mut q), rest, "seed {seed}");
        }
    }

    #[test]
    fn pop_due_respects_limit() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_nanos(10), 0, "a");
        q.push(SimTime::from_nanos(20_000_000), 1, "b"); // later slot
        q.push(
            SimTime::ZERO + SimDuration::from_secs(10), // overflow
            2,
            "c",
        );
        let lim = Some(SimTime::from_nanos(100));
        assert_eq!(q.pop_due(lim), Some((SimTime::from_nanos(10), "a")));
        assert_eq!(q.pop_due(lim), None);
        assert_eq!(q.pop_due(lim), None, "limit check must not consume");
        assert_eq!(
            q.pop_due(None),
            Some((SimTime::from_nanos(20_000_000), "b"))
        );
        assert_eq!(
            q.pop_due(None),
            Some((SimTime::ZERO + SimDuration::from_secs(10), "c"))
        );
        assert_eq!(q.pop_due(None), None);
        assert_eq!(q.len(), 0);
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut q = EventQueue::new();
        // 10 s apart: every event lives in overflow until the cursor jumps.
        for i in 0..20u64 {
            q.push(SimTime::ZERO + SimDuration::from_secs(10 * (20 - i)), i, i);
        }
        let got: Vec<u64> = drain(&mut q).into_iter().map(|(_, v)| v).collect();
        assert_eq!(got, (0..20u64).rev().collect::<Vec<_>>());
    }
}
