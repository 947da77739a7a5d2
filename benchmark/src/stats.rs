//! Order statistics for the benchmark's own reporting: quartiles that match
//! Python's `statistics.quantiles` (the driver's spread rule), the "highest
//! percentile with at least ten samples beyond it" rule, and a fixed-size
//! latency histogram so timing a million packets costs the harness 80 KiB,
//! not a sample buffer that would swamp `peak_rss_mb`.

/// Median of unsorted values; `NaN` for an empty slice.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// `[q1, q2, q3]` as Python's `statistics.quantiles(values, n=4)` gives them
/// (the default "exclusive" method). One value has no spread: all three
/// quartiles are that value.
pub fn quartiles(values: &[f64]) -> [f64; 3] {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => [f64::NAN; 3],
        1 => [v[0]; 3],
        _ => {
            let m = n + 1;
            [1usize, 2, 3].map(|i| {
                let j = (i * m / 4).clamp(1, n - 1);
                let delta = (i * m) as f64 - (j * 4) as f64;
                (v[j - 1] * (4.0 - delta) + v[j] * delta) / 4.0
            })
        }
    }
}

/// Interquartile distance as a share of the median (the driver's spread).
pub fn spread(values: &[f64]) -> f64 {
    let [q1, q2, q3] = quartiles(values);
    if q2 == 0.0 {
        0.0
    } else {
        ((q3 - q1) / q2).abs()
    }
}

/// Throughput per one-second slice of a timed phase. A slice's rate is
/// taken between its first and last completion, so it carries the clock's
/// digits instead of rounding to a whole count per second, and the median
/// over slices shrugs off a slice the machine spent elsewhere.
pub struct SliceRates {
    /// Per slice: completions, first and last completion time (ns).
    slices: Vec<(u64, u64, u64)>,
}

impl SliceRates {
    /// Only slices that fit whole inside `timed_ns` are kept.
    pub fn new(timed_ns: u64) -> Self {
        SliceRates {
            slices: vec![(0, 0, 0); (timed_ns / 1_000_000_000) as usize],
        }
    }

    /// One completion at `at_ns` since the timed phase began.
    pub fn record(&mut self, at_ns: u64) {
        if let Some((count, first, last)) = self.slices.get_mut((at_ns / 1_000_000_000) as usize) {
            if *count == 0 {
                *first = at_ns;
            }
            *count += 1;
            *last = at_ns;
        }
    }

    /// Completions per second of every slice that saw at least two.
    pub fn rates(&self) -> Vec<f64> {
        self.slices
            .iter()
            .filter(|(count, first, last)| *count >= 2 && last > first)
            .map(|(count, first, last)| (count - 1) as f64 * 1e9 / (last - first) as f64)
            .collect()
    }
}

/// The percentiles a tail may be reported at, in tenths of a percent,
/// lowest first (integers, so 10 000 samples do support p99.9 exactly).
const TAIL_LADDER_PERMILLE: [u64; 6] = [500, 750, 900, 950, 990, 999];

/// The highest percentile of the ladder (50, 75, 90, 95, 99, 99.9) that
/// still has at least ten of `n` samples beyond it; `None` when even the
/// median does not (n < 20).
pub fn supported_tail(n: u64) -> Option<f64> {
    TAIL_LADDER_PERMILLE
        .iter()
        .rfind(|&&p| n.saturating_mul(1_000 - p) >= 10_000)
        .map(|&p| p as f64 / 10.0)
}

/// Sub-buckets per power of two: 128 keeps a bucket under 0.8 % wide.
const SUB_BITS: u32 = 7;
const SUB: usize = 1 << SUB_BITS;
/// Values up to 2^40 ns (18 minutes) are recorded exactly to the bucket.
const OCTAVES: usize = 40 - SUB_BITS as usize + 1;

/// A log-linear histogram of nanosecond values (HdrHistogram's layout):
/// values below 128 get a bucket each, larger ones 128 buckets per octave.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; OCTAVES * SUB],
            total: 0,
            max: 0,
        }
    }

    fn index(value: u64) -> usize {
        let v = value.min((1 << 40) - 1);
        if v < SUB as u64 {
            return v as usize;
        }
        let octave = 63 - v.leading_zeros() - SUB_BITS + 1;
        let sub = (v >> (octave - 1)) as usize - SUB;
        octave as usize * SUB + sub
    }

    /// Inclusive lower bound and width of bucket `i`.
    fn bounds(i: usize) -> (u64, u64) {
        let (octave, sub) = (i / SUB, i % SUB);
        if octave == 0 {
            (sub as u64, 1)
        } else {
            let width = 1u64 << (octave - 1);
            ((SUB + sub) as u64 * width, width)
        }
    }

    pub fn record(&mut self, value_ns: u64) {
        self.counts[Self::index(value_ns)] += 1;
        self.total += 1;
        self.max = self.max.max(value_ns);
    }

    pub fn len(&self) -> u64 {
        self.total
    }

    pub fn is_empty(&self) -> bool {
        self.total == 0
    }

    pub fn max(&self) -> u64 {
        self.max
    }

    /// The value at percentile `p` (0–100), interpolated inside its bucket
    /// by rank so neighbouring runs do not snap to the same bucket edge.
    pub fn percentile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return f64::NAN;
        }
        let rank = (p / 100.0 * self.total as f64).clamp(0.0, self.total as f64);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c > 0 && (seen + c) as f64 >= rank {
                let (lo, width) = Self::bounds(i);
                let inside = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return (lo as f64 + inside * width as f64).min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_statistics() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), [2.75, 5.5, 8.25]);
        // statistics.quantiles([3, 1], n=4) == [0.5, 2.0, 3.5]
        assert_eq!(quartiles(&[3.0, 1.0]), [0.5, 2.0, 3.5]);
        // statistics.quantiles([10, 20, 30, 40, 50], n=4) == [15.0, 30.0, 45.0]
        assert_eq!(
            quartiles(&[50.0, 10.0, 40.0, 20.0, 30.0]),
            [15.0, 30.0, 45.0]
        );
        assert_eq!(spread(&[50.0, 10.0, 40.0, 20.0, 30.0]), 1.0);
        assert_eq!(quartiles(&[7.0]), [7.0; 3]);
    }

    #[test]
    fn slice_rates_use_the_span_between_completions() {
        let mut s = SliceRates::new(2_500_000_000);
        for i in 0..=100u64 {
            s.record(i * 5_000_000); // 200/s over the first half second
        }
        s.record(1_000_000_000);
        s.record(1_250_000_000); // 1 completion in 0.25 s
        s.record(2_100_000_000); // beyond the two whole slices: dropped
        assert_eq!(s.rates(), [200.0, 4.0]);
    }

    #[test]
    fn tail_needs_ten_samples_beyond_it() {
        assert_eq!(supported_tail(19), None);
        assert_eq!(supported_tail(20), Some(50.0));
        assert_eq!(supported_tail(199), Some(90.0));
        assert_eq!(supported_tail(200), Some(95.0));
        assert_eq!(supported_tail(999), Some(95.0));
        assert_eq!(supported_tail(1_000), Some(99.0));
        assert_eq!(supported_tail(9_999), Some(99.0));
        assert_eq!(supported_tail(10_000), Some(99.9));
    }

    #[test]
    fn histogram_buckets_are_contiguous_and_tight() {
        let mut last_end = 0;
        for i in 0..OCTAVES * SUB {
            let (lo, width) = Histogram::bounds(i);
            assert_eq!(lo, last_end, "bucket {i} leaves a gap");
            assert_eq!(Histogram::index(lo), i);
            assert_eq!(Histogram::index(lo + width - 1), i);
            assert!(lo < 128 || (width as f64 / lo as f64) < 0.008);
            last_end = lo + width;
        }
    }

    #[test]
    fn histogram_percentiles_track_exact_ones() {
        let mut h = Histogram::new();
        let values: Vec<u64> = (1..=100_000u64).map(|i| i * 37 % 1_000_003 + 50).collect();
        for &v in &values {
            h.record(v);
        }
        let mut sorted = values.clone();
        sorted.sort_unstable();
        for p in [50.0, 90.0, 99.0, 99.9] {
            let exact = sorted[((p / 100.0) * sorted.len() as f64) as usize - 1] as f64;
            let got = h.percentile(p);
            assert!((got - exact).abs() / exact < 0.01, "p{p}: {got} vs {exact}");
        }
        assert_eq!(h.len(), 100_000);
        assert_eq!(h.percentile(100.0), *sorted.last().unwrap() as f64);
    }
}
