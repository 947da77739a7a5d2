//! Plain-data snapshots of a registry, with a stable text encoding.

use std::fmt::Write as _;

/// A point-in-time copy of one histogram.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct HistogramSnapshot {
    /// Metric name.
    pub name: String,
    /// Upper-inclusive bucket bounds, strictly increasing.
    pub bounds: Vec<u64>,
    /// Bucket counts; always `bounds.len() + 1` entries (last is overflow).
    pub buckets: Vec<u64>,
    /// Total observations.
    pub count: u64,
    /// Sum of observed values.
    pub sum: u64,
}

impl HistogramSnapshot {
    /// Estimates the `q`-quantile (`0.0 ..= 1.0`) by linear interpolation
    /// inside the bucket containing the target rank.
    ///
    /// Bucket `i` spans `(bounds[i-1], bounds[i]]` (the first spans
    /// `[0, bounds[0]]`); ranks are spread uniformly across the span. Ranks
    /// landing in the overflow bucket clamp to the last bound — the
    /// histogram holds no upper edge to interpolate toward, so the estimate
    /// is a stated lower bound there. Returns `None` for an empty histogram
    /// or a `q` outside `[0, 1]`.
    pub fn percentile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = q * self.count as f64;
        let mut below = 0u64;
        for (i, &in_bucket) in self.buckets.iter().enumerate() {
            let cum = below + in_bucket;
            if (cum as f64) >= rank && in_bucket > 0 {
                let Some(&upper) = self.bounds.get(i) else {
                    // Overflow bucket: clamp to the histogram's last bound
                    // (or 0 for a bound-less histogram).
                    return Some(self.bounds.last().copied().unwrap_or(0) as f64);
                };
                let lower = if i == 0 { 0 } else { self.bounds[i - 1] };
                let within = (rank - below as f64) / in_bucket as f64;
                return Some(lower as f64 + within * (upper - lower) as f64);
            }
            below = cum;
        }
        Some(self.bounds.last().copied().unwrap_or(0) as f64)
    }

    /// Median estimate; see [`HistogramSnapshot::percentile`].
    pub fn p50(&self) -> Option<f64> {
        self.percentile(0.50)
    }

    /// 90th-percentile estimate; see [`HistogramSnapshot::percentile`].
    pub fn p90(&self) -> Option<f64> {
        self.percentile(0.90)
    }

    /// 99th-percentile estimate; see [`HistogramSnapshot::percentile`].
    pub fn p99(&self) -> Option<f64> {
        self.percentile(0.99)
    }
}

/// A point-in-time copy of a [`crate::MetricsRegistry`].
///
/// All three collections are sorted by name (registry maps are `BTreeMap`s),
/// so snapshots of deterministic runs compare equal with `==` and encode to
/// identical text. The encoding is line-based:
///
/// ```text
/// counter <name> <u64>
/// gauge <name> <f64>
/// hist <name> count=<u64> sum=<u64> bounds=<b0,b1,…> buckets=<c0,c1,…>
/// ```
///
/// Names must contain no whitespace (registry names are code-chosen
/// identifiers like `quack.sent`). Floats use Rust's shortest-roundtrip
/// formatting, so `parse(encode(s)) == s` for finite gauge values.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// Counter values, sorted by name.
    pub counters: Vec<(String, u64)>,
    /// Gauge values, sorted by name.
    pub gauges: Vec<(String, f64)>,
    /// Histogram snapshots, sorted by name.
    pub histograms: Vec<HistogramSnapshot>,
}

impl MetricsSnapshot {
    /// Value of counter `name` (0 if absent — counters default to zero).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map_or(0, |(_, v)| *v)
    }

    /// Value of gauge `name`, if present.
    pub fn gauge(&self, name: &str) -> Option<f64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Histogram `name`, if present.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSnapshot> {
        self.histograms.iter().find(|h| h.name == name)
    }

    /// True when nothing was ever recorded.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty() && self.histograms.is_empty()
    }

    /// Sum of every counter whose name starts with `prefix` — convenient for
    /// families like `netsim.drop.*`.
    pub fn counter_sum(&self, prefix: &str) -> u64 {
        self.counters
            .iter()
            .filter(|(n, _)| n.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// Folds `other` into this snapshot, as if one registry had recorded
    /// both: counters and histograms add (wrapping, like the registry's
    /// atomics) and gauges take `other`'s value. Names stay sorted.
    ///
    /// # Panics
    ///
    /// If a histogram present in both has different bounds.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for (name, value) in &other.counters {
            match self.counters.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => self.counters[i].1 = self.counters[i].1.wrapping_add(*value),
                Err(i) => self.counters.insert(i, (name.clone(), *value)),
            }
        }
        for (name, value) in &other.gauges {
            match self.gauges.binary_search_by(|(n, _)| n.cmp(name)) {
                Ok(i) => self.gauges[i].1 = *value,
                Err(i) => self.gauges.insert(i, (name.clone(), *value)),
            }
        }
        for h in &other.histograms {
            match self.histograms.binary_search_by(|m| m.name.cmp(&h.name)) {
                Err(i) => self.histograms.insert(i, h.clone()),
                Ok(i) => {
                    let mine = &mut self.histograms[i];
                    let name = &h.name;
                    assert_eq!(mine.bounds, h.bounds, "merging {name:?}: mismatched bounds");
                    for (cell, n) in mine.buckets.iter_mut().zip(&h.buckets) {
                        *cell = cell.wrapping_add(*n);
                    }
                    mine.count = mine.count.wrapping_add(h.count);
                    mine.sum = mine.sum.wrapping_add(h.sum);
                }
            }
        }
    }

    /// Renders the stable text encoding (one metric per line, trailing
    /// newline when non-empty).
    pub fn encode(&self) -> String {
        let mut out = String::new();
        for (name, value) in &self.counters {
            let _ = writeln!(out, "counter {name} {value}");
        }
        for (name, value) in &self.gauges {
            let _ = writeln!(out, "gauge {name} {value:?}");
        }
        for h in &self.histograms {
            let _ = writeln!(
                out,
                "hist {} count={} sum={} bounds={} buckets={}",
                h.name,
                h.count,
                h.sum,
                join(&h.bounds),
                join(&h.buckets),
            );
        }
        out
    }

    /// Parses text produced by [`MetricsSnapshot::encode`]. Blank lines and
    /// `#`-prefixed comments are ignored.
    pub fn parse(text: &str) -> Result<MetricsSnapshot, String> {
        let mut snap = MetricsSnapshot::default();
        for (i, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let err = |what: &str| format!("line {}: {what}: {line:?}", i + 1);
            let mut parts = line.split_whitespace();
            match parts.next() {
                Some("counter") => {
                    let name = parts.next().ok_or_else(|| err("missing name"))?;
                    let value = parts
                        .next()
                        .and_then(|v| v.parse::<u64>().ok())
                        .ok_or_else(|| err("bad counter value"))?;
                    snap.counters.push((name.to_string(), value));
                    if parts.next().is_some() {
                        return Err(err("trailing garbage"));
                    }
                }
                Some("gauge") => {
                    let name = parts.next().ok_or_else(|| err("missing name"))?;
                    let value = parts
                        .next()
                        .and_then(|v| v.parse::<f64>().ok())
                        .ok_or_else(|| err("bad gauge value"))?;
                    snap.gauges.push((name.to_string(), value));
                    if parts.next().is_some() {
                        return Err(err("trailing garbage"));
                    }
                }
                Some("hist") => {
                    let name = parts.next().ok_or_else(|| err("missing name"))?;
                    let mut h = HistogramSnapshot {
                        name: name.to_string(),
                        ..HistogramSnapshot::default()
                    };
                    for field in parts {
                        let (key, value) =
                            field.split_once('=').ok_or_else(|| err("bad hist field"))?;
                        match key {
                            "count" => {
                                h.count = value.parse().map_err(|_| err("bad hist count"))?;
                            }
                            "sum" => {
                                h.sum = value.parse().map_err(|_| err("bad hist sum"))?;
                            }
                            "bounds" => {
                                h.bounds = split_u64s(value).ok_or_else(|| err("bad bounds"))?
                            }
                            "buckets" => {
                                h.buckets = split_u64s(value).ok_or_else(|| err("bad buckets"))?
                            }
                            _ => return Err(err("unknown hist field")),
                        }
                    }
                    if h.buckets.len() != h.bounds.len() + 1 {
                        return Err(err("bucket count must be bounds + 1"));
                    }
                    snap.histograms.push(h);
                }
                Some(_) => return Err(err("unknown record kind")),
                None => unreachable!("blank lines are skipped"),
            }
        }
        Ok(snap)
    }
}

fn join(values: &[u64]) -> String {
    values
        .iter()
        .map(|v| v.to_string())
        .collect::<Vec<_>>()
        .join(",")
}

fn split_u64s(text: &str) -> Option<Vec<u64>> {
    if text.is_empty() {
        return Some(Vec::new());
    }
    text.split(',').map(|p| p.parse().ok()).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> MetricsSnapshot {
        MetricsSnapshot {
            counters: vec![("a.b".into(), 3), ("z".into(), u64::MAX)],
            gauges: vec![("g".into(), -0.125), ("h".into(), 1e300)],
            histograms: vec![HistogramSnapshot {
                name: "fill".into(),
                bounds: vec![1, 4, 16],
                buckets: vec![2, 0, 5, 1],
                count: 8,
                sum: 77,
            }],
        }
    }

    #[test]
    fn encode_parse_roundtrip() {
        let s = sample();
        let text = s.encode();
        assert_eq!(MetricsSnapshot::parse(&text).unwrap(), s);
        // Stable: re-encode is byte-identical.
        assert_eq!(MetricsSnapshot::parse(&text).unwrap().encode(), text);
    }

    #[test]
    fn empty_roundtrip_and_lookups() {
        let empty = MetricsSnapshot::default();
        assert!(empty.is_empty());
        assert_eq!(empty.encode(), "");
        assert_eq!(MetricsSnapshot::parse("").unwrap(), empty);
        assert_eq!(empty.counter("x"), 0);
        assert_eq!(empty.gauge("x"), None);
        assert!(empty.histogram("x").is_none());
    }

    #[test]
    fn prefix_sum() {
        let s = MetricsSnapshot {
            counters: vec![
                ("drop.loss".into(), 2),
                ("drop.queue".into(), 3),
                ("sent".into(), 9),
            ],
            ..MetricsSnapshot::default()
        };
        assert_eq!(s.counter_sum("drop."), 5);
        assert_eq!(s.counter_sum(""), 14);
    }

    #[test]
    fn comments_and_blanks_ignored() {
        let text = "# header\n\ncounter a 1\n";
        assert_eq!(MetricsSnapshot::parse(text).unwrap().counter("a"), 1);
    }

    #[test]
    fn malformed_lines_rejected() {
        for bad in [
            "counter a",
            "counter a x",
            "gauge g",
            "hist h count=1 sum=2 bounds=1 buckets=1", // buckets != bounds+1
            "hist h count=x",
            "hist h what=1",
            "wat a 1",
            "counter a 1 extra",
        ] {
            assert!(MetricsSnapshot::parse(bad).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn percentiles_interpolate_within_buckets() {
        // 10 observations uniform over [0, 100] in bounds {10, 50, 100}:
        // 1 in [0,10], 4 in (10,50], 5 in (50,100].
        let h = HistogramSnapshot {
            name: "lat".into(),
            bounds: vec![10, 50, 100],
            buckets: vec![1, 4, 5, 0],
            count: 10,
            sum: 500,
        };
        // rank 5 → bucket (10,50] holds ranks 2..=5 → upper edge exactly.
        assert_eq!(h.p50(), Some(50.0));
        // rank 9 → bucket (50,100], 4th of 5 ranks → 50 + 0.8*50 = 90.
        assert_eq!(h.p90(), Some(90.0));
        // rank 9.9 → 50 + (9.9-5)/5 * 50 = 99.
        assert!((h.p99().unwrap() - 99.0).abs() < 1e-9);
        assert_eq!(h.percentile(0.0), Some(0.0), "lower edge of first bucket");
        assert_eq!(h.percentile(1.0), Some(100.0));
        assert_eq!(h.percentile(1.5), None);
    }

    #[test]
    fn percentiles_overflow_clamps_to_last_bound() {
        let h = HistogramSnapshot {
            name: "lat".into(),
            bounds: vec![10],
            buckets: vec![1, 9],
            count: 10,
            sum: 0,
        };
        assert_eq!(h.p99(), Some(10.0));
        let empty = HistogramSnapshot::default();
        assert_eq!(empty.p50(), None);
    }

    #[test]
    fn empty_bounds_histogram_roundtrips() {
        let s = MetricsSnapshot {
            histograms: vec![HistogramSnapshot {
                name: "h".into(),
                bounds: vec![],
                buckets: vec![4],
                count: 4,
                sum: 10,
            }],
            ..MetricsSnapshot::default()
        };
        assert_eq!(MetricsSnapshot::parse(&s.encode()).unwrap(), s);
    }

    #[test]
    fn merge_adds_counters_and_merges_histograms() {
        let mut a = MetricsSnapshot {
            counters: vec![("c".into(), 3)],
            gauges: vec![("g".into(), 1.0)],
            histograms: vec![HistogramSnapshot {
                name: "h".into(),
                bounds: vec![2],
                buckets: vec![1, 0],
                count: 1,
                sum: 1,
            }],
        };
        let b = MetricsSnapshot {
            counters: vec![("b".into(), 7), ("c".into(), 2)],
            gauges: vec![("g".into(), 9.0)],
            histograms: vec![HistogramSnapshot {
                name: "h".into(),
                bounds: vec![2],
                buckets: vec![0, 1],
                count: 1,
                sum: 5,
            }],
        };
        a.merge(&b);
        assert_eq!(a.counter("c"), 5);
        assert_eq!(a.gauge("g"), Some(9.0));
        let h = a.histogram("h").unwrap();
        assert_eq!(h.buckets, vec![1, 1]);
        assert_eq!(h.count, 2);
        assert_eq!(h.sum, 6);
        // A name new to `a` lands in sorted position.
        assert_eq!(a.counters, vec![("b".into(), 7), ("c".into(), 5)]);
        // Merging into an empty snapshot copies.
        let mut empty = MetricsSnapshot::default();
        empty.merge(&b);
        assert_eq!(empty, b);
    }

    #[test]
    #[should_panic(expected = "mismatched bounds")]
    fn merge_rejects_mismatched_histogram_bounds() {
        let hist = |bounds: Vec<u64>| MetricsSnapshot {
            histograms: vec![HistogramSnapshot {
                name: "h".into(),
                buckets: vec![0; bounds.len() + 1],
                bounds,
                count: 0,
                sum: 0,
            }],
            ..MetricsSnapshot::default()
        };
        hist(vec![2]).merge(&hist(vec![4]));
    }
}
