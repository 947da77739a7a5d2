//! The live registry: counters, gauges, and fixed-bucket histograms.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use crate::snapshot::{HistogramSnapshot, MetricsSnapshot};

/// A handle to one monotonic counter.
///
/// Cloning is cheap (an `Arc` bump); incrementing is one relaxed atomic add
/// with no lock and no map lookup, so hot loops should fetch the handle once
/// with [`MetricsRegistry::counter`] and hold it.
#[derive(Clone, Debug)]
pub struct Counter {
    cell: Arc<AtomicU64>,
}

impl Counter {
    /// Adds one.
    pub fn inc(&self) {
        self.cell.fetch_add(1, Ordering::Relaxed);
    }

    /// Adds `n`.
    pub fn add(&self, n: u64) {
        self.cell.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.cell.load(Ordering::Relaxed)
    }
}

/// A fixed-bucket histogram: `bounds.len() + 1` buckets, where bucket `i`
/// counts observations `v <= bounds[i]` (first matching bound wins) and the
/// final bucket is the overflow (`v > bounds.last()`).
#[derive(Debug)]
struct Histogram {
    bounds: Vec<u64>,
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum: AtomicU64,
}

impl Histogram {
    fn new(bounds: &[u64]) -> Self {
        assert!(
            bounds.windows(2).all(|w| w[0] < w[1]),
            "histogram bounds must be strictly increasing: {bounds:?}"
        );
        Histogram {
            bounds: bounds.to_vec(),
            buckets: (0..bounds.len() + 1).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
        }
    }

    fn observe(&self, value: u64) {
        let idx = self
            .bounds
            .iter()
            .position(|&b| value <= b)
            .unwrap_or(self.bounds.len());
        self.buckets[idx].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }
}

#[derive(Debug, Default)]
struct Inner {
    counters: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    // Gauges store the f64 bit pattern so one atomic type serves both.
    gauges: Mutex<BTreeMap<&'static str, Arc<AtomicU64>>>,
    histograms: Mutex<BTreeMap<&'static str, Arc<Histogram>>>,
}

/// A registry of named metrics.
///
/// The handle is `Clone` (shared `Arc` inner) and `Sync`; registration takes
/// a short mutex, but recording through a held [`Counter`] is lock-free. All
/// names are `&'static str` so the registry never allocates per event.
///
/// Each host (a simulated `World` or a `LiveDriver`) owns a *fresh*
/// registry, which keeps metric-asserting tests isolated from each other
/// even though the test harness runs them on concurrent threads. There is
/// no process-wide registry: code that wants the counts of several runs
/// merges their snapshots ([`MetricsSnapshot::merge`]).
#[derive(Clone, Debug, Default)]
pub struct MetricsRegistry {
    inner: Arc<Inner>,
}

impl MetricsRegistry {
    /// A fresh, empty registry.
    pub fn new() -> Self {
        MetricsRegistry::default()
    }

    /// Registers (or finds) a counter and returns a lock-free handle to it.
    pub fn counter(&self, name: &'static str) -> Counter {
        let mut map = self.inner.counters.lock().expect("counter map poisoned");
        let cell = map.entry(name).or_default().clone();
        Counter { cell }
    }

    /// Adds one to `name` (registering it on first use).
    pub fn inc(&self, name: &'static str) {
        self.counter(name).inc();
    }

    /// Adds `n` to `name` (registering it on first use).
    pub fn add(&self, name: &'static str, n: u64) {
        self.counter(name).add(n);
    }

    /// Current value of counter `name` (0 if never registered).
    pub fn counter_value(&self, name: &str) -> u64 {
        let map = self.inner.counters.lock().expect("counter map poisoned");
        map.get(name).map_or(0, |c| c.load(Ordering::Relaxed))
    }

    /// Sets gauge `name` to `value`.
    pub fn gauge_set(&self, name: &'static str, value: f64) {
        let mut map = self.inner.gauges.lock().expect("gauge map poisoned");
        map.entry(name)
            .or_default()
            .store(value.to_bits(), Ordering::Relaxed);
    }

    /// Current value of gauge `name`, if it was ever set.
    pub fn gauge_value(&self, name: &str) -> Option<f64> {
        let map = self.inner.gauges.lock().expect("gauge map poisoned");
        map.get(name)
            .map(|g| f64::from_bits(g.load(Ordering::Relaxed)))
    }

    /// Records `value` into histogram `name` with the given bucket `bounds`
    /// (upper-inclusive, strictly increasing; a final overflow bucket is
    /// implicit). All observations of one name must agree on `bounds`.
    pub fn observe(&self, name: &'static str, bounds: &[u64], value: u64) {
        let hist = {
            let mut map = self
                .inner
                .histograms
                .lock()
                .expect("histogram map poisoned");
            map.entry(name)
                .or_insert_with(|| Arc::new(Histogram::new(bounds)))
                .clone()
        };
        hist.observe(value);
    }

    /// Copies the current values into a plain-data, order-stable snapshot.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let counters = self
            .inner
            .counters
            .lock()
            .expect("counter map poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), v.load(Ordering::Relaxed)))
            .collect();
        let gauges = self
            .inner
            .gauges
            .lock()
            .expect("gauge map poisoned")
            .iter()
            .map(|(&k, v)| (k.to_string(), f64::from_bits(v.load(Ordering::Relaxed))))
            .collect();
        let histograms = self
            .inner
            .histograms
            .lock()
            .expect("histogram map poisoned")
            .iter()
            .map(|(&k, h)| HistogramSnapshot {
                name: k.to_string(),
                bounds: h.bounds.clone(),
                buckets: h
                    .buckets
                    .iter()
                    .map(|b| b.load(Ordering::Relaxed))
                    .collect(),
                count: h.count.load(Ordering::Relaxed),
                sum: h.sum.load(Ordering::Relaxed),
            })
            .collect();
        MetricsSnapshot {
            counters,
            gauges,
            histograms,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_register_and_add() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a");
        c.inc();
        c.add(4);
        reg.inc("a");
        reg.add("b", 7);
        assert_eq!(c.get(), 6);
        assert_eq!(reg.counter_value("a"), 6);
        assert_eq!(reg.counter_value("b"), 7);
        assert_eq!(reg.counter_value("missing"), 0);
    }

    #[test]
    fn handles_share_one_cell() {
        let reg = MetricsRegistry::new();
        let c1 = reg.counter("shared");
        let c2 = reg.counter("shared");
        c1.inc();
        c2.inc();
        assert_eq!(reg.counter_value("shared"), 2);
    }

    #[test]
    fn gauges_overwrite() {
        let reg = MetricsRegistry::new();
        assert_eq!(reg.gauge_value("g"), None);
        reg.gauge_set("g", 1.5);
        reg.gauge_set("g", -2.25);
        assert_eq!(reg.gauge_value("g"), Some(-2.25));
    }

    #[test]
    fn histogram_buckets_are_upper_inclusive() {
        let reg = MetricsRegistry::new();
        for v in [0, 1, 2, 3, 4, 100] {
            reg.observe("h", &[1, 4], v);
        }
        let snap = reg.snapshot();
        let h = snap.histogram("h").unwrap();
        assert_eq!(h.bounds, vec![1, 4]);
        assert_eq!(h.buckets, vec![2, 3, 1]); // <=1: {0,1}; <=4: {2,3,4}; >4: {100}
        assert_eq!(h.count, 6);
        assert_eq!(h.sum, 110);
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn unsorted_bounds_rejected() {
        MetricsRegistry::new().observe("bad", &[4, 1], 0);
    }

    #[test]
    fn snapshot_is_sorted_and_deterministic() {
        let reg = MetricsRegistry::new();
        reg.inc("z");
        reg.inc("a");
        reg.gauge_set("m", 1.0);
        let s1 = reg.snapshot();
        let s2 = reg.snapshot();
        assert_eq!(s1, s2);
        assert_eq!(s1.counters[0].0, "a");
        assert_eq!(s1.counters[1].0, "z");
    }
}
