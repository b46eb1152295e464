//! The observability core: metric primitives every runtime layer shares.
//!
//! Everything here is built for the hot path of a server that is also
//! doing real work:
//!
//! * **One dependency.**  The vendored `serde`, so a snapshot is the
//!   `metrics` wire reply itself; nothing here allocates per event.
//! * **Relaxed atomics, no locks.**  An increment is one
//!   `fetch_add(Relaxed)`; a histogram record is three.  Metrics are
//!   monotone counters — cross-metric ordering carries no meaning, so
//!   relaxed ordering is exactly right.
//! * **Static registration.**  Every metric is a `static` declared in
//!   [`metrics`], named in [`names`]; there is no runtime registry to
//!   lock or grow.  The `metrics` wire verb and the text exposition walk
//!   the same fixed catalog.
//! * **Associative histogram merge.**  Histograms use a fixed 64-bucket
//!   log2 layout ([`bucket_index`]) so that merging two snapshots is an
//!   element-wise wrapping add — bit-exactly associative and
//!   commutative, which is what lets a fleet router fold per-shard
//!   histograms into one distribution in any order.
//! * **Runtime kill switch.**  [`set_enabled`]`(false)` turns every
//!   record path into a single relaxed load + branch, so instrumentation
//!   overhead can be *measured* (the `obs_overhead` bench) instead of
//!   assumed.
//!
//! [`snapshot::MetricsSnapshot`] is the plain-data view: the `metrics`
//! verb's reply as it crosses the wire, what the router merges across
//! shards, and what [`text::render`] formats for Prometheus-style scrapes.

#![forbid(unsafe_code)]

pub mod metrics;
pub mod names;
pub mod snapshot;
pub mod text;

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Instant;

/// Number of histogram buckets.  Bucket `0` holds exactly the value `0`;
/// bucket `i` (for `1 <= i < 63`) holds `[2^(i-1), 2^i)`; bucket `63`
/// holds everything from `2^62` up.  The layout is fixed so that two
/// histograms recorded by different processes merge element-wise.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// Global instrumentation switch, on by default.  Checked with one
/// relaxed load on every record path; flipping it off makes every
/// counter increment and span timer a near-no-op, which is how the
/// `obs_overhead` bench isolates the cost of instrumentation itself.
static ENABLED: AtomicBool = AtomicBool::new(true);

/// Turn instrumentation on or off process-wide.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::Relaxed);
}

/// Whether instrumentation is currently enabled.
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// The bucket a value lands in: `0` for `0`, otherwise the position of
/// the highest set bit plus one, clamped to the last bucket.  Monotone
/// in `value`, total (every `u64` has a bucket), and stable across
/// processes — the merge invariant depends on all three.
pub fn bucket_index(value: u64) -> usize {
    let bits = (u64::BITS - value.leading_zeros()) as usize;
    bits.min(HISTOGRAM_BUCKETS - 1)
}

/// The largest value bucket `index` can hold (`u64::MAX` for the last,
/// open-ended bucket).  Used as the `le` bound in text exposition and as
/// the value reported by [`snapshot::quantile`].
pub fn bucket_upper_bound(index: usize) -> u64 {
    if index >= HISTOGRAM_BUCKETS - 1 {
        u64::MAX
    } else {
        (1u64 << index) - 1
    }
}

/// A monotonically increasing event count.
#[derive(Debug, Default)]
pub struct Counter {
    value: AtomicU64,
}

impl Counter {
    /// A zeroed counter, usable in `static` position.
    pub const fn new() -> Self {
        Self { value: AtomicU64::new(0) }
    }

    /// Count one event.
    pub fn inc(&self) {
        self.add(1);
    }

    /// Count `n` events at once (wrapping, like the merge).
    pub fn add(&self, n: u64) {
        if enabled() {
            self.value.fetch_add(n, Ordering::Relaxed);
        }
    }

    /// Current count.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A last-write-wins level (merged across shards by `max`, so a single
/// degraded shard keeps a fleet-level boolean gauge raised).
#[derive(Debug, Default)]
pub struct Gauge {
    value: AtomicU64,
}

impl Gauge {
    /// A zeroed gauge, usable in `static` position.
    pub const fn new() -> Self {
        Self { value: AtomicU64::new(0) }
    }

    /// Set the level.
    pub fn set(&self, value: u64) {
        if enabled() {
            self.value.store(value, Ordering::Relaxed);
        }
    }

    /// Current level.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// A fixed-layout log2 histogram: 64 buckets, a total count, and a
/// wrapping sum.  Recording is three relaxed `fetch_add`s; there is no
/// lock and no allocation.  The per-field relaxed atomics mean a
/// concurrent snapshot can observe a record "in flight" (count without
/// sum, or vice versa) — fine for monitoring, which is the contract.
#[derive(Debug)]
pub struct Histogram {
    count: AtomicU64,
    sum: AtomicU64,
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

impl Histogram {
    /// A zeroed histogram, usable in `static` position.
    pub const fn new() -> Self {
        Self {
            count: AtomicU64::new(0),
            sum: AtomicU64::new(0),
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        if !enabled() {
            return;
        }
        self.buckets[bucket_index(value)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum.fetch_add(value, Ordering::Relaxed);
    }

    /// Total observations.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Wrapping sum of all observations.
    pub fn sum(&self) -> u64 {
        self.sum.load(Ordering::Relaxed)
    }

    /// Copy the bucket array out (relaxed, per-bucket).
    pub fn buckets(&self) -> [u64; HISTOGRAM_BUCKETS] {
        let mut out = [0u64; HISTOGRAM_BUCKETS];
        for (slot, bucket) in out.iter_mut().zip(&self.buckets) {
            *slot = bucket.load(Ordering::Relaxed);
        }
        out
    }

    /// Time a span into this histogram (nanoseconds).
    pub fn span(&self) -> SpanTimer<'_> {
        SpanTimer::start(self)
    }
}

/// A family of counters keyed by a small, fixed label set.  Lookup is a
/// linear scan over `&'static str`s — the sets here have at most ~16
/// entries, where a scan beats any hash — and an unknown label falls
/// back to the **last** cell, so every family's label list ends in a
/// catch-all (`"other"`).
#[derive(Debug)]
pub struct CounterVec {
    label_key: &'static str,
    labels: &'static [&'static str],
    cells: &'static [Counter],
}

impl CounterVec {
    /// Bind a label list to its cell array.  Lengths are checked at
    /// compile time (these are built in `static` position).
    pub const fn new(
        label_key: &'static str,
        labels: &'static [&'static str],
        cells: &'static [Counter],
    ) -> Self {
        assert!(labels.len() == cells.len(), "one cell per label");
        assert!(!labels.is_empty(), "a label family needs at least a catch-all");
        Self { label_key, labels, cells }
    }

    /// The label dimension's name (e.g. `"verb"`).
    pub fn label_key(&self) -> &'static str {
        self.label_key
    }

    /// The counter for `label`, or the catch-all cell for a label that
    /// is not in the family.
    pub fn with(&self, label: &str) -> &Counter {
        &self.cells[self.position(label)]
    }

    /// Iterate `(label, cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Counter)> {
        self.labels.iter().copied().zip(self.cells.iter())
    }

    fn position(&self, label: &str) -> usize {
        self.labels.iter().position(|l| *l == label).unwrap_or(self.labels.len() - 1)
    }
}

/// A family of histograms keyed by a small, fixed label set; same
/// lookup and catch-all contract as [`CounterVec`].
#[derive(Debug)]
pub struct HistogramVec {
    label_key: &'static str,
    labels: &'static [&'static str],
    cells: &'static [Histogram],
}

impl HistogramVec {
    /// Bind a label list to its cell array (compile-time checked).
    pub const fn new(
        label_key: &'static str,
        labels: &'static [&'static str],
        cells: &'static [Histogram],
    ) -> Self {
        assert!(labels.len() == cells.len(), "one cell per label");
        assert!(!labels.is_empty(), "a label family needs at least a catch-all");
        Self { label_key, labels, cells }
    }

    /// The label dimension's name (e.g. `"verb"`).
    pub fn label_key(&self) -> &'static str {
        self.label_key
    }

    /// The histogram for `label`, or the catch-all cell.
    pub fn with(&self, label: &str) -> &Histogram {
        &self.cells[self.position(label)]
    }

    /// Iterate `(label, cell)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&'static str, &Histogram)> {
        self.labels.iter().copied().zip(self.cells.iter())
    }

    fn position(&self, label: &str) -> usize {
        self.labels.iter().position(|l| *l == label).unwrap_or(self.labels.len() - 1)
    }
}

/// Times one span into a histogram, in nanoseconds.  Dropping the timer
/// records the elapsed time; [`finish`](Self::finish) does the same but
/// hands the measurement back.  When instrumentation is disabled the
/// timer never reads the clock — the construction cost is one relaxed
/// load.
#[derive(Debug)]
pub struct SpanTimer<'a> {
    hist: &'a Histogram,
    start: Option<Instant>,
}

impl<'a> SpanTimer<'a> {
    /// Start timing into `hist`.
    pub fn start(hist: &'a Histogram) -> Self {
        Self { hist, start: enabled().then(Instant::now) }
    }

    /// Stop, record, and return the elapsed nanoseconds (0 when
    /// instrumentation was disabled at start).
    pub fn finish(mut self) -> u64 {
        self.observe()
    }

    fn observe(&mut self) -> u64 {
        match self.start.take() {
            Some(started) => {
                let ns = saturating_ns(started.elapsed());
                self.hist.record(ns);
                ns
            }
            None => 0,
        }
    }
}

impl Drop for SpanTimer<'_> {
    fn drop(&mut self) {
        self.observe();
    }
}

/// A `Duration` as nanoseconds, clamped to `u64::MAX` (584 years).
fn saturating_ns(elapsed: std::time::Duration) -> u64 {
    u64::try_from(elapsed.as_nanos()).unwrap_or(u64::MAX)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_covers_the_edges() {
        assert_eq!(bucket_index(0), 0);
        assert_eq!(bucket_index(1), 1);
        assert_eq!(bucket_index(2), 2);
        assert_eq!(bucket_index(3), 2);
        assert_eq!(bucket_index(4), 3);
        assert_eq!(bucket_index(1023), 10);
        assert_eq!(bucket_index(1024), 11);
        assert_eq!(bucket_index(u64::MAX), HISTOGRAM_BUCKETS - 1);
    }

    #[test]
    fn bucket_upper_bounds_nest() {
        assert_eq!(bucket_upper_bound(0), 0);
        assert_eq!(bucket_upper_bound(1), 1);
        assert_eq!(bucket_upper_bound(10), 1023);
        assert_eq!(bucket_upper_bound(HISTOGRAM_BUCKETS - 1), u64::MAX);
        for i in 0..HISTOGRAM_BUCKETS - 1 {
            assert!(bucket_index(bucket_upper_bound(i)) == i, "bound of bucket {i} stays inside");
        }
    }

    #[test]
    fn counters_and_gauges_count() {
        let c = Counter::new();
        c.inc();
        c.add(4);
        assert_eq!(c.get(), 5);
        let g = Gauge::new();
        g.set(7);
        g.set(3);
        assert_eq!(g.get(), 3);
    }

    #[test]
    fn histogram_records_count_sum_and_buckets() {
        let h = Histogram::new();
        for v in [0, 1, 1, 1000, 70_000] {
            h.record(v);
        }
        assert_eq!(h.count(), 5);
        assert_eq!(h.sum(), 71_002);
        let buckets = h.buckets();
        assert_eq!(buckets[0], 1);
        assert_eq!(buckets[1], 2);
        assert_eq!(buckets[10], 1);
        assert_eq!(buckets.iter().sum::<u64>(), 5);
    }

    #[test]
    fn vec_families_fall_back_to_the_catch_all() {
        static CELLS: [Counter; 3] = [const { Counter::new() }; 3];
        static VEC: CounterVec = CounterVec::new("verb", &["a", "b", "other"], &CELLS);
        VEC.with("a").inc();
        VEC.with("nonsense").inc();
        VEC.with("more nonsense").inc();
        assert_eq!(VEC.with("a").get(), 1);
        assert_eq!(VEC.with("b").get(), 0);
        assert_eq!(VEC.with("other").get(), 2);
        assert_eq!(VEC.iter().count(), 3);
        assert_eq!(VEC.label_key(), "verb");
    }

    #[test]
    fn span_timer_records_once_on_drop_or_finish() {
        let h = Histogram::new();
        {
            let _span = h.span();
        }
        assert_eq!(h.count(), 1);
        let ns = h.span().finish();
        assert_eq!(h.count(), 2);
        assert!(ns < 1_000_000_000, "a no-op span should not take a second");
    }
}
