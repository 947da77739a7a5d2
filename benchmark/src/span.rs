//! Harness-side spans: the traced run wraps each call into a layer in a
//! span, keeps them in a preallocated buffer, and writes them out when the
//! run ends. A layer's self time is its span's duration minus the part of
//! that interval its child spans cover.

use std::collections::BTreeMap;
use std::io::Write as _;
use std::path::Path;
use std::time::Instant;

/// One recorded span. `parent == 0` marks a root; ids start at 1.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: u32,
    pub name: &'static str,
    /// Request identifier shared by the spans of one round / packet batch.
    pub req: u64,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Records spans into a buffer allocated up front, so recording itself
/// never allocates inside a timed region. When the buffer is full further
/// spans are counted in `dropped` and otherwise ignored.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    pub dropped: u64,
}

impl Tracer {
    pub fn with_capacity(spans: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(spans),
            stack: Vec::with_capacity(16),
            dropped: 0,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span under the innermost open one. Returns 0 (a no-op id for
    /// [`Tracer::exit`]) when the buffer is full.
    pub fn enter(&mut self, name: &'static str, req: u64) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return 0;
        }
        let id = self.spans.len() as u32 + 1;
        let parent = self.stack.last().copied().unwrap_or(0);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            id,
            parent,
            name,
            req,
            start_ns,
            end_ns: start_ns,
        });
        self.stack.push(id);
        id
    }

    /// Closes span `id`, which must be the innermost open one.
    pub fn exit(&mut self, id: u32) {
        if id == 0 {
            return;
        }
        let end_ns = self.now_ns();
        let top = self.stack.pop();
        debug_assert_eq!(top, Some(id), "spans close innermost first");
        self.spans[id as usize - 1].end_ns = end_ns;
    }

    /// Runs `f` inside a span.
    pub fn span<T>(&mut self, name: &'static str, req: u64, f: impl FnOnce(&mut Self) -> T) -> T {
        let id = self.enter(name, req);
        let out = f(self);
        self.exit(id);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// One JSON object per line: `{id, parent, name, req, start_ns, end_ns}`.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for s in &self.spans {
            writeln!(
                out,
                "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"req\":{},\"start_ns\":{},\"end_ns\":{}}}",
                s.id, s.parent, s.name, s.req, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

/// Totals for all spans of one name.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct NameTotals {
    pub count: u64,
    pub total_ns: u64,
    pub self_ns: u64,
}

/// Per-span self time: duration minus the union of the children's
/// intervals, each clipped to the parent's own interval.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if s.parent != 0 {
            let p = &spans[s.parent as usize - 1];
            let (lo, hi) = (s.start_ns.max(p.start_ns), s.end_ns.min(p.end_ns));
            if lo < hi {
                children[s.parent as usize - 1].push((lo, hi));
            }
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0u64;
            let mut reach = s.start_ns;
            for &(lo, hi) in kids.iter() {
                let lo = lo.max(reach);
                if hi > lo {
                    covered += hi - lo;
                    reach = hi;
                }
            }
            (s.end_ns - s.start_ns) - covered
        })
        .collect()
}

/// Span totals grouped by name, in name order.
pub fn totals_by_name(spans: &[Span]) -> BTreeMap<&'static str, NameTotals> {
    let selfs = self_times(spans);
    let mut out: BTreeMap<&'static str, NameTotals> = BTreeMap::new();
    for (s, self_ns) in spans.iter().zip(selfs) {
        let t = out.entry(s.name).or_default();
        t.count += 1;
        t.total_ns += s.end_ns - s.start_ns;
        t.self_ns += self_ns;
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: u32, name: &'static str, start_ns: u64, end_ns: u64) -> Span {
        Span {
            id,
            parent,
            name,
            req: 0,
            start_ns,
            end_ns,
        }
    }

    #[test]
    fn self_time_subtracts_the_union_of_clipped_children() {
        let spans = [
            span(1, 0, "round", 100, 200),
            span(2, 1, "a", 110, 140),
            // Overlaps `a` by 10: the union covers 110..160, not 30 + 30.
            span(3, 1, "b", 130, 160),
            // Runs past the parent's end: only 190..200 counts.
            span(4, 1, "c", 190, 230),
            // A grandchild reduces `a`, never `round`.
            span(5, 2, "a.inner", 115, 125),
        ];
        assert_eq!(self_times(&spans), vec![100 - 50 - 10, 20, 30, 40, 10]);
        let by_name = totals_by_name(&spans);
        assert_eq!(
            by_name["round"],
            NameTotals {
                count: 1,
                total_ns: 100,
                self_ns: 40
            }
        );
        assert_eq!(by_name["a"].self_ns, 20);
    }

    #[test]
    fn tracer_nests_and_stops_at_capacity() {
        let mut t = Tracer::with_capacity(3);
        t.span("outer", 7, |t| {
            t.span("inner", 7, |_| ());
            t.span("inner", 7, |_| ());
            t.span("lost", 7, |_| ());
        });
        let names: Vec<_> = t.spans().iter().map(|s| (s.name, s.parent)).collect();
        assert_eq!(names, [("outer", 0), ("inner", 1), ("inner", 1)]);
        assert_eq!(t.dropped, 1);
        assert!(t.spans().iter().all(|s| s.end_ns >= s.start_ns));
        let outer = &t.spans()[0];
        assert!(t.spans()[1..]
            .iter()
            .all(|s| s.start_ns >= outer.start_ns && s.end_ns <= outer.end_ns));
    }
}
