//! The bounded ring buffer of timestamped events.

use std::collections::VecDeque;
use std::fmt::Write as _;

use crate::event::Event;

/// A bounded ring of `(sim-nanoseconds, Event)` records.
///
/// When full, the oldest record is evicted and `dropped` counts it — the
/// trace degrades by forgetting history, never by blocking or reallocating
/// without bound. Timestamps are caller-supplied simulated time, so a
/// rendering of a deterministic run is byte-stable (the property the
/// golden-trace tests pin).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EventTrace {
    capacity: usize,
    events: VecDeque<(u64, Event)>,
    dropped: u64,
    /// When false, [`EventTrace::record`] is a no-op (retained records
    /// stay readable). Perf harnesses switch the recorder off so the
    /// diagnostics ring does not distort engine measurements.
    enabled: bool,
}

impl EventTrace {
    /// Default ring capacity.
    pub const DEFAULT_CAPACITY: usize = 16_384;

    /// A trace with [`EventTrace::DEFAULT_CAPACITY`].
    pub fn new() -> Self {
        Self::with_capacity(Self::DEFAULT_CAPACITY)
    }

    /// A trace holding at most `capacity` events (min 1).
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(1);
        EventTrace {
            capacity,
            events: VecDeque::with_capacity(capacity),
            dropped: 0,
            enabled: true,
        }
    }

    /// Turns recording on or off (on by default). Disabling does not clear
    /// retained records.
    pub fn set_enabled(&mut self, enabled: bool) {
        self.enabled = enabled;
    }

    /// Whether [`EventTrace::record`] currently retains events.
    pub fn is_enabled(&self) -> bool {
        self.enabled
    }

    /// Appends an event stamped with `at_ns` simulated nanoseconds,
    /// evicting the oldest record if the ring is full. No-op while
    /// disabled via [`EventTrace::set_enabled`].
    pub fn record(&mut self, at_ns: u64, event: Event) {
        if !self.enabled {
            return;
        }
        if self.events.len() == self.capacity {
            self.events.pop_front();
            self.dropped += 1;
        }
        self.events.push_back((at_ns, event));
    }

    /// Records retained, oldest first.
    pub fn events(&self) -> impl Iterator<Item = &(u64, Event)> {
        self.events.iter()
    }

    /// Number of retained records.
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// True when nothing is retained.
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Records evicted because the ring was full.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Ring capacity.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// How many retained events have the given kind tag (see
    /// [`Event::kind`]).
    pub fn count_kind(&self, kind: &str) -> usize {
        self.events.iter().filter(|(_, e)| e.kind() == kind).count()
    }

    /// Renders one `"<ns> <event>"` line per record (trailing newline when
    /// non-empty). This is the golden-fixture format.
    ///
    /// A truncated ring announces itself: when any record was evicted, the
    /// rendering opens with a `# truncated dropped=<n>` comment line so a
    /// partial trace can never masquerade as a complete one. Complete traces
    /// carry no header and render exactly as before.
    pub fn render(&self) -> String {
        let mut out = String::new();
        if self.dropped > 0 {
            let _ = writeln!(out, "# truncated dropped={}", self.dropped);
        }
        for (at, event) in &self.events {
            let _ = writeln!(out, "{at} {event}");
        }
        out
    }

    /// Appends every record of `other` (and its eviction debt) into this
    /// ring, subject to this ring's own capacity. Bench binaries use this
    /// to merge the traces of their runs, in run order, into the one trace
    /// they dump via `--trace-out`.
    pub fn absorb(&mut self, other: &EventTrace) {
        self.dropped += other.dropped;
        for &(at, event) in &other.events {
            self.record(at, event);
        }
    }

    /// Parses one [`EventTrace::render`] line back into `(ns, Event)`.
    pub fn parse_line(line: &str) -> Result<(u64, Event), String> {
        let (at, rest) = line
            .split_once(' ')
            .ok_or_else(|| format!("missing timestamp in {line:?}"))?;
        let at = at
            .parse()
            .map_err(|_| format!("bad timestamp in {line:?}"))?;
        Ok((at, Event::parse(rest)?))
    }
}

impl Default for EventTrace {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn records_in_order_and_renders() {
        let mut t = EventTrace::with_capacity(8);
        t.record(5, Event::Restart { node: 1 });
        t.record(9, Event::Outage { node: 2, up: true });
        assert_eq!(t.len(), 2);
        assert_eq!(t.count_kind("restart"), 1);
        let text = t.render();
        assert_eq!(text, "5 restart node=1\n9 outage node=2 up=true\n");
        for line in text.lines() {
            EventTrace::parse_line(line).unwrap();
        }
    }

    #[test]
    fn ring_evicts_oldest() {
        let mut t = EventTrace::with_capacity(2);
        for i in 0..5 {
            t.record(i, Event::Restart { node: i as u32 });
        }
        assert_eq!(t.len(), 2);
        assert_eq!(t.dropped(), 3);
        let nodes: Vec<u32> = t
            .events()
            .map(|&(_, e)| match e {
                Event::Restart { node } => node,
                _ => unreachable!(),
            })
            .collect();
        assert_eq!(nodes, vec![3, 4]);
    }

    #[test]
    fn capacity_floor_is_one() {
        let mut t = EventTrace::with_capacity(0);
        assert_eq!(t.capacity(), 1);
        t.record(0, Event::Restart { node: 0 });
        t.record(1, Event::Restart { node: 1 });
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn truncated_ring_announces_itself() {
        let mut t = EventTrace::with_capacity(2);
        t.record(0, Event::Restart { node: 0 });
        t.record(1, Event::Restart { node: 1 });
        assert!(!t.render().starts_with('#'), "complete trace has no header");
        t.record(2, Event::Restart { node: 2 });
        let text = t.render();
        assert!(text.starts_with("# truncated dropped=1\n"), "{text}");
        // Event lines after the header still parse.
        for line in text.lines().filter(|l| !l.starts_with('#')) {
            EventTrace::parse_line(line).unwrap();
        }
    }

    #[test]
    fn absorb_appends_and_carries_debt() {
        let mut a = EventTrace::with_capacity(8);
        a.record(1, Event::Restart { node: 1 });
        let mut b = EventTrace::with_capacity(1);
        b.record(2, Event::Restart { node: 2 });
        b.record(3, Event::Restart { node: 3 });
        assert_eq!(b.dropped(), 1);
        a.absorb(&b);
        assert_eq!(a.len(), 2);
        assert_eq!(a.dropped(), 1);
        let mut c = EventTrace::with_capacity(8);
        c.absorb(&a);
        assert_eq!(c.render(), a.render());
    }

    #[test]
    fn parse_line_rejects_garbage() {
        assert!(EventTrace::parse_line("restart node=1").is_err());
        assert!(EventTrace::parse_line("x restart node=1").is_err());
        assert!(EventTrace::parse_line("5").is_err());
    }
}
