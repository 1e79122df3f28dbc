//! Named counters and histograms collected during a run.
//!
//! [`Histogram`] is a *streaming* fixed-bucket histogram: memory stays
//! O(buckets) no matter how many observations arrive, so population-scale
//! load runs (millions of calls) can record every sample, and only the
//! span of buckets actually touched is stored, so thousands of snapshot
//! frames can each hold their own. Buckets are
//! log-spaced (16 sub-buckets per power of two), giving ~3% relative
//! resolution on percentile queries; `count`, `sum`, `mean`, `min` and
//! `max` are exact. Two histograms bucket identically, so shard-local
//! histograms merge into a global one without losing resolution.

use std::fmt;
use std::sync::Arc;

use crate::idmap::IdMap;

/// A monotonically increasing named counter.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct Counter(pub u64);

/// Sub-bucket resolution: 2^4 = 16 linear sub-buckets per octave.
const SUB_BITS: u32 = 4;
const SUB: usize = 1 << SUB_BITS;
/// Smallest resolvable magnitude: values in `(0, 2^MIN_EXP)` share the
/// underflow bucket.
const MIN_EXP: i32 = -10;
/// Largest resolvable octave: values `>= 2^(MAX_EXP + 1)` share the
/// overflow bucket.
const MAX_EXP: i32 = 20;
const OCTAVES: usize = (MAX_EXP - MIN_EXP + 1) as usize;
/// Bucket 0 holds zero/negative/underflow; the last bucket holds overflow.
const NUM_BUCKETS: usize = OCTAVES * SUB + 2;

/// A streaming histogram with a fixed number of log-spaced buckets.
///
/// `observe` is O(1) amortised (the stored window grows at most
/// `NUM_BUCKETS` slots over a histogram's life); `count`, `sum`, `mean`,
/// `min` and `max` are exact, while `percentile` is approximate to the
/// bucket resolution (~3%) but always clamped into the observed
/// `[min, max]` range — so a histogram holding a single repeated value
/// reports that exact value at every percentile.
#[derive(Clone, PartialEq)]
pub struct Histogram {
    /// Bucket index of `window[0]`.
    first: usize,
    /// Counts of buckets `first..first + window.len()`: the span from
    /// the lowest to the highest occupied bucket, so both ends are
    /// non-zero and equal contents compare equal.
    window: Vec<u64>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for Histogram {
    fn default() -> Self {
        Histogram {
            first: 0,
            window: Vec::new(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }
}

fn bucket_index(value: f64) -> usize {
    // NaN, zero, negatives and positive underflow all land in bucket 0.
    if value.is_nan() || value < (2.0f64).powi(MIN_EXP) {
        return 0;
    }
    let bits = value.to_bits();
    let exp = ((bits >> 52) & 0x7FF) as i32 - 1023;
    if exp > MAX_EXP {
        return NUM_BUCKETS - 1;
    }
    let sub = ((bits >> (52 - SUB_BITS)) & (SUB as u64 - 1)) as usize;
    1 + (exp - MIN_EXP) as usize * SUB + sub
}

/// Midpoint of a regular bucket's value range.
fn bucket_midpoint(index: usize) -> f64 {
    if index == 0 {
        return 0.0;
    }
    if index == NUM_BUCKETS - 1 {
        return (2.0f64).powi(MAX_EXP + 1);
    }
    let i = index - 1;
    let exp = MIN_EXP + (i / SUB) as i32;
    let sub = (i % SUB) as f64;
    (2.0f64).powi(exp) * (1.0 + (sub + 0.5) / SUB as f64)
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram::default()
    }

    /// Records one observation.
    ///
    /// NaN lands in the underflow bucket and counts toward `count`, but
    /// never becomes the running min/max — otherwise one bad sample
    /// would leave the extremes stuck at the ±infinity sentinels while
    /// `count > 0`, and every merge downstream would inherit them.
    pub fn observe(&mut self, value: f64) {
        self.add(bucket_index(value), 1);
        self.count += 1;
        self.sum += value;
        if !value.is_nan() {
            if value < self.min {
                self.min = value;
            }
            if value > self.max {
                self.max = value;
            }
        }
    }

    /// Adds `n > 0` to bucket `index`, growing the window to reach it.
    fn add(&mut self, index: usize, n: u64) {
        // An index below the window wraps past any window's end.
        match self.window.get_mut(index.wrapping_sub(self.first)) {
            Some(slot) => *slot += n,
            None => self.grow(index, n),
        }
    }

    /// [`Histogram::add`] for a bucket outside the window: at most
    /// `NUM_BUCKETS` slots are ever added over a histogram's life.
    #[cold]
    fn grow(&mut self, index: usize, n: u64) {
        if self.window.is_empty() {
            self.first = index;
        } else if index < self.first {
            let below = self.first - index;
            self.window.splice(0..0, std::iter::repeat_n(0, below));
            self.first = index;
        }
        let at = index - self.first;
        if at >= self.window.len() {
            self.window.resize(at + 1, 0);
        }
        self.window[at] += n;
    }

    /// The count in bucket `index`: zero outside the stored window.
    fn bucket(&self, index: usize) -> u64 {
        index
            .checked_sub(self.first)
            .and_then(|at| self.window.get(at))
            .map_or(0, |&n| n)
    }

    /// Every stored bucket as `(bucket_index, count)`, in value order.
    fn buckets(&self) -> impl Iterator<Item = (usize, u64)> + '_ {
        self.window
            .iter()
            .enumerate()
            .map(|(at, &n)| (self.first + at, n))
    }

    /// True when the min/max fields hold real observations. An empty
    /// histogram (or one that has only seen NaN) keeps the sentinels
    /// `min = +inf, max = -inf`, which this ordering check rejects.
    fn has_extremes(&self) -> bool {
        self.min <= self.max
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all observations.
    pub fn sum(&self) -> f64 {
        self.sum
    }

    /// Arithmetic mean; 0.0 when empty.
    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// Smallest observation, or `None` when empty.
    pub fn min(&self) -> Option<f64> {
        self.has_extremes().then_some(self.min)
    }

    /// Largest observation, or `None` when empty.
    pub fn max(&self) -> Option<f64> {
        self.has_extremes().then_some(self.max)
    }

    /// The `p`-th percentile (0–100) by nearest rank over the buckets.
    ///
    /// Accurate to the bucket resolution (~3% relative), exact at the
    /// extremes (`p == 0` → min, `p == 100` → max), and always within
    /// the observed `[min, max]`. Returns the 0.0 sentinel when the
    /// histogram is empty (tested; use [`Histogram::count`] to
    /// distinguish an empty histogram from one that observed zeros).
    ///
    /// # Panics
    ///
    /// Panics if `p` is outside `[0, 100]`.
    pub fn percentile(&self, p: f64) -> f64 {
        assert!((0.0..=100.0).contains(&p), "percentile out of range: {p}");
        if self.count == 0 {
            return 0.0;
        }
        // Without finite extremes (all observations NaN, or a windowed
        // delta) the raw bucket midpoints stand, which place every NaN
        // in the zero bucket.
        let clamped = self.has_extremes();
        if clamped && p == 0.0 {
            return self.min;
        }
        if clamped && p == 100.0 {
            return self.max;
        }
        let rank = ((p / 100.0) * self.count as f64).ceil().max(1.0) as u64;
        let mut seen = 0;
        for (i, n) in self.buckets() {
            seen += n;
            if seen >= rank {
                let midpoint = bucket_midpoint(i);
                return if clamped {
                    midpoint.clamp(self.min, self.max)
                } else {
                    midpoint
                };
            }
        }
        if clamped {
            self.max
        } else {
            0.0
        }
    }

    /// Folds another histogram into this one. Bucketing is identical for
    /// all histograms, so merging loses no resolution; shard-local
    /// histograms combine into a global view this way.
    pub fn merge(&mut self, other: &Histogram) {
        for (i, n) in other.buckets().filter(|&(_, n)| n > 0) {
            self.add(i, n);
        }
        self.count += other.count;
        self.sum += other.sum;
        // Fold extremes only when `other` actually has some: merging an
        // empty (or all-NaN) histogram must not drag the sentinels in.
        if other.has_extremes() {
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }
    }

    /// Occupied buckets as `(range_midpoint, count)` pairs, in value order.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (f64, u64)> + '_ {
        self.buckets()
            .filter(|&(_, n)| n > 0)
            .map(|(i, n)| (bucket_midpoint(i), n))
    }

    /// The observations recorded since `prev` was sampled, as a new
    /// histogram: the **windowed** view of a cumulative series. `prev`
    /// must be an earlier sample of the same stream (every bucket of
    /// `prev` is ≤ the corresponding bucket here); counts and sums
    /// subtract exactly.
    ///
    /// A window cannot recover which exact values arrived inside it, so
    /// the result carries **no min/max extremes** — `min()`/`max()`
    /// return `None` and percentiles fall back to bucket midpoints
    /// (~3% resolution). Critically, an *empty* window (no new samples)
    /// keeps the `+inf/-inf` sentinels, so merging it into an
    /// accumulator never poisons the accumulator's extremes — the same
    /// guard the PR 2 empty-shard merge fix established.
    pub fn delta_from(&self, prev: &Histogram) -> Histogram {
        let mut out = Histogram::new();
        debug_assert!(
            prev.buckets().all(|(i, old)| old <= self.bucket(i)),
            "a bucket shrank since `prev` was sampled"
        );
        for (i, cur) in self.buckets() {
            let old = prev.bucket(i);
            if cur > old {
                out.add(i, cur - old);
            }
        }
        out.count = self.count.saturating_sub(prev.count);
        out.sum = if out.count == 0 { 0.0 } else { self.sum - prev.sum };
        // min/max stay at the empty sentinels: the window's true
        // extremes are unknowable from cumulative bucket counts.
        out
    }
}

impl fmt::Debug for Histogram {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Histogram")
            .field("count", &self.count)
            .field("mean", &self.mean())
            .field("min", &self.min())
            .field("max", &self.max())
            .finish()
    }
}

/// Name-interned storage shared by counters and histograms: the hash
/// index resolves a name to a slot in `entries` once, and the value
/// lives in a flat vector from then on. Iteration is always name-sorted
/// (see [`Registry::sorted`]), so nothing downstream — fingerprints,
/// rendering, merges — can observe hash-map order.
#[derive(Clone, Debug, Default)]
struct Registry<V> {
    index: IdMap<Arc<str>, u32>,
    entries: Vec<(Arc<str>, V)>,
}

impl<V: Default> Registry<V> {
    fn slot(&mut self, name: &str) -> &mut V {
        if let Some(&i) = self.index.get(name) {
            return &mut self.entries[i as usize].1;
        }
        let i = self.entries.len() as u32;
        // One allocation per name, shared by the index and the entry.
        let name: Arc<str> = name.into();
        self.index.insert(Arc::clone(&name), i);
        self.entries.push((name, V::default()));
        &mut self.entries[i as usize].1
    }

    fn get(&self, name: &str) -> Option<&V> {
        self.index.get(name).map(|&i| &self.entries[i as usize].1)
    }

    /// Entries in name order. Sorting ~dozens of keys on each (rare)
    /// read is what buys the allocation- and compare-free hot path.
    fn sorted(&self) -> Vec<&(Arc<str>, V)> {
        let mut refs: Vec<_> = self.entries.iter().collect();
        refs.sort_unstable_by(|a, b| a.0.cmp(&b.0));
        refs
    }
}

/// The statistics sink shared by every node in a [`Network`](crate::Network).
#[derive(Clone, Debug, Default)]
pub struct Stats {
    counters: Registry<u64>,
    histograms: Registry<Histogram>,
}

impl Stats {
    /// Creates an empty sink.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Increments `name` by one.
    pub fn count(&mut self, name: &str) {
        self.count_by(name, 1);
    }

    /// Increments `name` by `value`.
    pub fn count_by(&mut self, name: &str, value: u64) {
        *self.counters.slot(name) += value;
    }

    /// Current value of a counter (0 if never incremented).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Records an observation under `name`.
    pub fn observe(&mut self, name: &str, value: f64) {
        self.histograms.slot(name).observe(value);
    }

    /// The named histogram, if any observation was recorded.
    pub fn histogram(&self, name: &str) -> Option<&Histogram> {
        self.histograms.get(name)
    }

    /// Iterates over all counters in name order.
    pub fn counters(&self) -> impl Iterator<Item = (&str, u64)> {
        self.counters
            .sorted()
            .into_iter()
            .map(|(k, v)| (k.as_ref(), *v))
    }

    /// Iterates over all histograms in name order.
    pub fn histograms(&self) -> impl Iterator<Item = (&str, &Histogram)> {
        self.histograms
            .sorted()
            .into_iter()
            .map(|(k, v)| (k.as_ref(), v))
    }

    /// Folds another sink into this one (counters add; histograms merge).
    pub fn merge(&mut self, other: &Stats) {
        for (k, v) in &other.counters.entries {
            *self.counters.slot(k) += v;
        }
        for (k, h) in &other.histograms.entries {
            self.histograms.slot(k).merge(h);
        }
    }
}

impl fmt::Display for Stats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "counters:")?;
        for (k, v) in self.counters() {
            writeln!(f, "  {k}: {v}")?;
        }
        writeln!(f, "histograms:")?;
        for (k, h) in self.histograms() {
            writeln!(
                f,
                "  {k}: n={} mean={:.3} p50={:.3} p95={:.3} max={:.3}",
                h.count(),
                h.mean(),
                h.percentile(50.0),
                h.percentile(95.0),
                h.max().unwrap_or(0.0)
            )?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_accumulate() {
        let mut s = Stats::new();
        s.count("a");
        s.count("a");
        s.count_by("a", 3);
        assert_eq!(s.counter("a"), 5);
        assert_eq!(s.counter("missing"), 0);
    }

    #[test]
    fn histogram_statistics() {
        let mut h = Histogram::new();
        for v in [1.0, 2.0, 3.0, 4.0, 5.0] {
            h.observe(v);
        }
        assert_eq!(h.count(), 5);
        assert!((h.mean() - 3.0).abs() < 1e-12);
        assert_eq!(h.sum(), 15.0);
        assert_eq!(h.min(), Some(1.0));
        assert_eq!(h.max(), Some(5.0));
        assert_eq!(h.percentile(0.0), 1.0);
        // Percentiles are bucket-resolution approximations (~3%).
        let p50 = h.percentile(50.0);
        assert!((p50 - 3.0).abs() / 3.0 < 0.05, "p50 = {p50}");
        assert_eq!(h.percentile(100.0), 5.0);
    }

    #[test]
    fn memory_is_bounded_by_buckets() {
        // A million observations cost no more memory than ten: the
        // histogram is a window of buckets, never a Vec of samples.
        let mut h = Histogram::new();
        for i in 0..1_000_000u64 {
            h.observe((i % 977) as f64 + 0.5);
        }
        assert_eq!(h.count(), 1_000_000);
        assert!(h.window.len() <= NUM_BUCKETS, "{} slots", h.window.len());
        let p99 = h.percentile(99.0);
        assert!((900.0..=977.0).contains(&p99), "p99 = {p99}");
    }

    #[test]
    fn empty_histogram_is_none_and_sentinel() {
        let h = Histogram::new();
        assert_eq!(h.mean(), 0.0);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        // Documented sentinel: empty percentile is 0.0.
        assert_eq!(h.percentile(99.0), 0.0);
        assert_eq!(h.percentile(0.0), 0.0);
    }

    #[test]
    fn single_value_percentiles_are_exact() {
        let mut h = Histogram::new();
        h.observe(7.3);
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 7.3, "p{p}");
        }
        assert_eq!(h.min(), Some(7.3));
        assert_eq!(h.max(), Some(7.3));
    }

    #[test]
    fn tied_values_percentiles_are_exact() {
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.observe(42.0);
        }
        for p in [0.0, 25.0, 50.0, 99.0, 100.0] {
            assert_eq!(h.percentile(p), 42.0, "p{p}");
        }
    }

    #[test]
    fn negative_and_zero_observations_are_exact_at_extremes() {
        let mut h = Histogram::new();
        h.observe(-5.0);
        h.observe(0.0);
        h.observe(10.0);
        assert_eq!(h.min(), Some(-5.0));
        assert_eq!(h.max(), Some(10.0));
        assert_eq!(h.count(), 3);
        assert_eq!(h.percentile(0.0), -5.0);
        assert_eq!(h.percentile(100.0), 10.0);
    }

    #[test]
    fn percentile_resolution_within_buckets() {
        let mut h = Histogram::new();
        for i in 1..=10_000 {
            h.observe(i as f64 / 10.0); // 0.1 .. 1000.0
        }
        for p in [10.0, 50.0, 90.0, 99.0] {
            let exact = p * 10.0; // true percentile of the uniform ramp
            let approx = h.percentile(p);
            assert!(
                (approx - exact).abs() / exact < 0.05,
                "p{p}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn extreme_magnitudes_land_in_clamp_buckets() {
        let mut h = Histogram::new();
        h.observe(1e-9); // underflow bucket
        h.observe(1e12); // overflow bucket
        assert_eq!(h.count(), 2);
        assert_eq!(h.percentile(0.0), 1e-9);
        assert_eq!(h.percentile(100.0), 1e12);
    }

    #[test]
    #[should_panic(expected = "percentile out of range")]
    fn percentile_range_checked() {
        Histogram::new().percentile(101.0);
    }

    #[test]
    fn merge_combines_shards() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut whole = Histogram::new();
        for i in 0..1000 {
            let v = (i as f64).mul_add(0.37, 1.0);
            whole.observe(v);
            if i % 2 == 0 {
                a.observe(v);
            } else {
                b.observe(v);
            }
        }
        a.merge(&b);
        assert_eq!(a.count(), whole.count());
        assert!((a.sum() - whole.sum()).abs() < 1e-9);
        assert_eq!(a.min(), whole.min());
        assert_eq!(a.max(), whole.max());
        for p in [5.0, 50.0, 95.0] {
            assert_eq!(a.percentile(p), whole.percentile(p), "p{p}");
        }
    }

    #[test]
    fn merge_into_empty_preserves_extremes() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        b.observe(3.0);
        a.merge(&b);
        assert_eq!(a.min(), Some(3.0));
        assert_eq!(a.max(), Some(3.0));
        assert_eq!(a.count(), 1);
    }

    #[test]
    fn merge_of_empty_does_not_poison_extremes() {
        // Folding an empty shard histogram into a populated one must
        // leave min/max untouched — not drag in the ±inf sentinels.
        let mut a = Histogram::new();
        a.observe(2.0);
        a.observe(9.0);
        a.merge(&Histogram::new());
        assert_eq!(a.min(), Some(2.0));
        assert_eq!(a.max(), Some(9.0));
        assert_eq!(a.count(), 2);
        assert_eq!(a.percentile(0.0), 2.0);
        assert_eq!(a.percentile(100.0), 9.0);

        // And the symmetric case: merging shards where some are empty
        // (e.g. a KPI no call on that shard ever hit) stays finite.
        let mut merged = Histogram::new();
        for shard in [Histogram::new(), a.clone(), Histogram::new()] {
            merged.merge(&shard);
        }
        assert_eq!(merged.min(), Some(2.0));
        assert_eq!(merged.max(), Some(9.0));
    }

    #[test]
    fn windowed_delta_subtracts_exactly() {
        let mut prev = Histogram::new();
        for v in [1.0, 5.0, 9.0] {
            prev.observe(v);
        }
        let mut cur = prev.clone();
        for v in [2.0, 40.0] {
            cur.observe(v);
        }
        let w = cur.delta_from(&prev);
        assert_eq!(w.count(), 2);
        assert!((w.sum() - 42.0).abs() < 1e-9);
        assert!((w.mean() - 21.0).abs() < 1e-9);
        // Window extremes are unknowable: percentiles fall back to
        // bucket midpoints (~3%) instead of clamping to fake extremes.
        assert_eq!(w.min(), None);
        assert_eq!(w.max(), None);
        let p100 = w.percentile(100.0);
        assert!((p100 - 40.0).abs() / 40.0 < 0.05, "p100 = {p100}");
        let buckets: Vec<(f64, u64)> = w.nonzero_buckets().collect();
        assert_eq!(buckets.iter().map(|b| b.1).sum::<u64>(), 2);
    }

    #[test]
    fn merge_of_empty_window_delta_does_not_poison_extremes() {
        // The PR 2 regression (merging an empty shard histogram) extended
        // to windowed sampling: a snapshot window in which a KPI saw no
        // new samples produces an empty delta, and folding that window
        // into an accumulator must leave min/max untouched.
        let mut cum = Histogram::new();
        cum.observe(3.0);
        cum.observe(30.0);
        let empty_window = cum.delta_from(&cum.clone());
        assert_eq!(empty_window.count(), 0);
        assert_eq!(empty_window.min(), None);
        assert_eq!(empty_window.max(), None);
        assert_eq!(empty_window.sum(), 0.0);

        let mut acc = Histogram::new();
        acc.observe(7.0);
        acc.merge(&empty_window);
        assert_eq!(acc.min(), Some(7.0));
        assert_eq!(acc.max(), Some(7.0));
        assert_eq!(acc.percentile(100.0), 7.0);
    }

    /// The histogram as it was before its storage went compact: all
    /// `NUM_BUCKETS` slots, every answer computed over the whole array.
    /// The compact form must give the same answers bit for bit.
    #[derive(Clone)]
    struct Dense {
        buckets: [u64; NUM_BUCKETS],
        sum: f64,
        min: f64,
        max: f64,
    }

    impl Dense {
        fn new() -> Dense {
            Dense {
                buckets: [0; NUM_BUCKETS],
                sum: 0.0,
                min: f64::INFINITY,
                max: f64::NEG_INFINITY,
            }
        }

        fn of(values: impl IntoIterator<Item = f64>) -> (Histogram, Dense) {
            let (mut h, mut d) = (Histogram::new(), Dense::new());
            for v in values {
                h.observe(v);
                d.buckets[bucket_index(v)] += 1;
                d.sum += v;
                d.min = d.min.min(v);
                d.max = d.max.max(v);
            }
            (h, d)
        }

        fn merge(&mut self, other: &Dense) {
            for (a, b) in self.buckets.iter_mut().zip(&other.buckets) {
                *a += b;
            }
            self.sum += other.sum;
            self.min = self.min.min(other.min);
            self.max = self.max.max(other.max);
        }

        /// `self - prev`, without extremes.
        fn delta_from(&self, prev: &Dense) -> Dense {
            let mut out = Dense::new();
            for (i, slot) in out.buckets.iter_mut().enumerate() {
                *slot = self.buckets[i] - prev.buckets[i];
            }
            out.sum = self.sum - prev.sum;
            out
        }

        fn count(&self) -> u64 {
            self.buckets.iter().sum()
        }

        fn percentile(&self, p: f64) -> f64 {
            let clamped = self.min <= self.max;
            if clamped && p == 0.0 {
                return self.min;
            }
            if clamped && p == 100.0 {
                return self.max;
            }
            let rank = ((p / 100.0) * self.count() as f64).ceil().max(1.0) as u64;
            let mut seen = 0;
            let at = self.buckets.iter().position(|&n| {
                seen += n;
                seen >= rank
            });
            let midpoint = bucket_midpoint(at.expect("rank <= count"));
            if clamped {
                midpoint.clamp(self.min, self.max)
            } else {
                midpoint
            }
        }

        fn assert_matches(&self, h: &Histogram) {
            assert_eq!(h.count(), self.count());
            assert_eq!(h.sum().to_bits(), self.sum.to_bits());
            let extremes = (self.min <= self.max).then_some((self.min, self.max));
            assert_eq!(h.min().zip(h.max()), extremes);
            for p in [0.0, 1.0, 5.0, 50.0, 95.0, 99.0, 100.0] {
                assert_eq!(h.percentile(p), self.percentile(p), "p{p}");
            }
            let occupied: Vec<(f64, u64)> = (0..NUM_BUCKETS)
                .filter(|&i| self.buckets[i] > 0)
                .map(|i| (bucket_midpoint(i), self.buckets[i]))
                .collect();
            assert_eq!(h.nonzero_buckets().collect::<Vec<_>>(), occupied);
            // The window spans exactly the occupied buckets, which is
            // what lets equal contents compare equal.
            assert_eq!(h.window.len(), h.window.iter().rposition(|&n| n > 0).map_or(0, |i| i + 1));
            assert!(h.window.first().is_none_or(|&n| n > 0));
        }
    }

    #[test]
    fn sparse_histogram_reproduces_dense_answers_exactly() {
        let (h, dense) = Dense::of((1..=5_000).map(|i| i as f64 * 0.73));
        dense.assert_matches(&h);
        assert_eq!(h.mean(), dense.sum / 5_000.0);
        assert!(h.window.len() < NUM_BUCKETS / 2, "{} slots", h.window.len());
        // A copy observed in another order holds the same window.
        let (back, _) = Dense::of((1..=5_000).rev().map(|i| i as f64 * 0.73));
        assert_eq!(back.window, h.window);
        assert_eq!(back.first, h.first);
    }

    #[test]
    fn sparse_merge_matches_dense_merge() {
        let (mut a, mut dense_a) = Dense::of((0..500).step_by(3).map(|i| i as f64 + 0.5));
        let (b, dense_b) = Dense::of((0..500).filter(|i| i % 3 != 0).map(|i| (i * 7) as f64 + 0.25));
        a.merge(&b);
        dense_a.merge(&dense_b);
        dense_a.assert_matches(&a);
        // Merging into the empty identity is a copy.
        let mut id = Histogram::new();
        id.merge(&a);
        assert_eq!(id, a);
    }

    #[test]
    fn window_growth_merge_and_delta_match_the_dense_reference() {
        // Observations below and above the current window.
        let (grown, dense) = Dense::of([40.0, 41.0, 0.003, 9e5, 40.5, -1.0, 1e9]);
        dense.assert_matches(&grown);

        // A merge of disjoint windows, in both directions.
        let (low, dense_low) = Dense::of([0.5, 0.7, 0.9]);
        let (high, dense_high) = Dense::of([3_000.0, 5_000.0]);
        let (mut up, mut down) = (low.clone(), high.clone());
        up.merge(&high);
        down.merge(&low);
        let mut dense_both = dense_low.clone();
        dense_both.merge(&dense_high);
        dense_both.assert_matches(&up);
        dense_both.assert_matches(&down);
        assert_eq!(up, down);

        // A delta across different windows: the later sample has grown
        // on both sides of the earlier one.
        let (early, dense_early) = Dense::of([20.0, 22.0, 25.0]);
        let mut late = early.clone();
        let mut dense_late = dense_early.clone();
        let (more, dense_more) = Dense::of([1.0, 22.0, 700.0, 700.0]);
        late.merge(&more);
        dense_late.merge(&dense_more);
        dense_late.delta_from(&dense_early).assert_matches(&late.delta_from(&early));
        // ... and one that leaves the edges of the window unchanged.
        let mut inner = late.clone();
        inner.observe(22.0);
        let w = inner.delta_from(&late);
        assert_eq!((w.count(), w.window.len()), (1, 1));
        assert_eq!(late.delta_from(&late), Histogram::new());
    }

    #[test]
    fn nan_observation_does_not_poison_extremes() {
        let mut h = Histogram::new();
        h.observe(f64::NAN);
        // count > 0 but there is no real extreme to report.
        assert_eq!(h.count(), 1);
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
        assert!(h.percentile(0.0).is_finite());
        assert!(h.percentile(100.0).is_finite());

        h.observe(5.0);
        assert_eq!(h.min(), Some(5.0));
        assert_eq!(h.max(), Some(5.0));

        // Merging an all-NaN histogram into a real one is also inert.
        let mut nan_only = Histogram::new();
        nan_only.observe(f64::NAN);
        let mut real = Histogram::new();
        real.observe(1.0);
        real.merge(&nan_only);
        assert_eq!(real.min(), Some(1.0));
        assert_eq!(real.max(), Some(1.0));
    }

    #[test]
    fn stats_merge_adds_counters_and_histograms() {
        let mut a = Stats::new();
        let mut b = Stats::new();
        a.count("x");
        b.count_by("x", 4);
        b.count("only_b");
        a.observe("h", 1.0);
        b.observe("h", 3.0);
        a.merge(&b);
        assert_eq!(a.counter("x"), 5);
        assert_eq!(a.counter("only_b"), 1);
        let h = a.histogram("h").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 4.0);
    }

    #[test]
    fn display_renders_all() {
        let mut s = Stats::new();
        s.count("calls");
        s.observe("setup_ms", 12.0);
        let out = s.to_string();
        assert!(out.contains("calls: 1"));
        assert!(out.contains("setup_ms"));
    }

    #[test]
    fn counter_iteration_order_is_name_sorted() {
        // The interned store is insertion-ordered internally; the public
        // iteration (which feeds fingerprints) must stay name-sorted.
        let mut s = Stats::new();
        s.count("zeta");
        s.count("alpha");
        s.count("mid");
        s.count("zeta");
        let names: Vec<&str> = s.counters().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["alpha", "mid", "zeta"]);
        assert_eq!(s.counter("zeta"), 2);
    }

    #[test]
    fn histogram_iteration_order_is_name_sorted() {
        let mut s = Stats::new();
        s.observe("z", 1.0);
        s.observe("a", 1.0);
        let names: Vec<&str> = s.histograms().map(|(k, _)| k).collect();
        assert_eq!(names, vec!["a", "z"]);
    }
}
