//! Plain-data metric snapshots: the `metrics` wire verb's reply (the
//! serde impls here are its JSON), what a fleet router merges across
//! shards, and what the text exposition renders.
//!
//! The merge is the load-bearing part.  Each shard process samples its
//! own static registry; the router folds the per-shard snapshots into
//! one fleet-level view.  For that fold to be order-independent the
//! per-series combine must be associative and commutative **bit
//! exactly** — so counters and histogram buckets combine by
//! `wrapping_add` (no saturation, no floats) and gauges by `max`.  The
//! proptest suite in `tests/histogram_props.rs` pins this down.

use crate::{bucket_upper_bound, HISTOGRAM_BUCKETS};
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

/// What kind of series a sample came from.  On the wire it is its
/// [`as_str`](Self::as_str) spelling; an unknown spelling (a newer
/// peer's kind) fails to decode rather than merge under a wrong rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SampleKind {
    /// Monotone event count; merges by wrapping sum.
    Counter,
    /// Last-written level; merges by max.
    Gauge,
    /// Log2-bucketed distribution; merges element-wise.
    Histogram,
}

impl SampleKind {
    /// Wire spelling.
    pub fn as_str(self) -> &'static str {
        match self {
            SampleKind::Counter => "counter",
            SampleKind::Gauge => "gauge",
            SampleKind::Histogram => "histogram",
        }
    }

    /// Parse the wire spelling.
    pub fn parse(s: &str) -> Option<Self> {
        match s {
            "counter" => Some(SampleKind::Counter),
            "gauge" => Some(SampleKind::Gauge),
            "histogram" => Some(SampleKind::Histogram),
            _ => None,
        }
    }
}

impl Serialize for SampleKind {
    fn write_json(&self, out: &mut String) -> Result<(), SerdeError> {
        self.as_str().write_json(out)
    }
}

impl Deserialize for SampleKind {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        value
            .as_str()
            .and_then(SampleKind::parse)
            .ok_or_else(|| SerdeError::custom(format!("unknown metric kind {value:?}")))
    }
}

/// One sampled series (one scalar, or one histogram, for one label of a
/// family).  Unlabeled series carry empty `label_key`/`label_value`.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SeriesSample {
    /// Canonical metric name.
    pub name: String,
    /// Series kind (decides the merge rule).
    pub kind: SampleKind,
    /// Label dimension (e.g. `"verb"`), empty when unlabeled.
    pub label_key: String,
    /// Label value (e.g. `"evaluate"`), empty when unlabeled.
    pub label_value: String,
    /// Counter/gauge value; for histograms, the observation count.
    pub value: u64,
    /// Histogram observation sum (wrapping); 0 for scalars.
    pub sum: u64,
    /// Histogram buckets, trimmed to the last non-zero entry (empty
    /// for scalars and never-recorded histograms).
    pub buckets: Vec<u64>,
}

impl SeriesSample {
    /// An unlabeled counter or gauge sample.
    pub fn scalar(name: &str, kind: SampleKind, value: u64) -> Self {
        Self {
            name: name.to_string(),
            kind,
            label_key: String::new(),
            label_value: String::new(),
            value,
            sum: 0,
            buckets: Vec::new(),
        }
    }

    /// An unlabeled histogram sample; `buckets` is trimmed here.
    pub fn histogram(name: &str, count: u64, sum: u64, buckets: &[u64]) -> Self {
        Self {
            name: name.to_string(),
            kind: SampleKind::Histogram,
            label_key: String::new(),
            label_value: String::new(),
            value: count,
            sum,
            buckets: trim_buckets(buckets),
        }
    }

    /// Attach a family label.
    pub fn labeled(mut self, key: &str, value: &str) -> Self {
        self.label_key = key.to_string();
        self.label_value = value.to_string();
        self
    }

    /// The identity two samples must share to be merged.
    fn merge_key(&self) -> (&str, &str, &str) {
        (&self.name, &self.label_key, &self.label_value)
    }

    /// Fold `other` into `self` (same merge key assumed): wrapping sum
    /// for counters and histograms, max for gauges.
    fn combine(&mut self, other: &SeriesSample) {
        match self.kind {
            SampleKind::Counter => self.value = self.value.wrapping_add(other.value),
            SampleKind::Gauge => self.value = self.value.max(other.value),
            SampleKind::Histogram => {
                self.value = self.value.wrapping_add(other.value);
                self.sum = self.sum.wrapping_add(other.sum);
                merge_buckets(&mut self.buckets, &other.buckets);
            }
        }
    }

    /// Approximate quantile of a histogram sample: the upper bound of
    /// the bucket where the cumulative count crosses `q * count`.
    /// Returns 0 for empty histograms and scalars.
    pub fn quantile(&self, q: f64) -> u64 {
        quantile(self.value, &self.buckets, q)
    }
}

/// A full registry sample from one process (or a merged fleet view).
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct MetricsSnapshot {
    /// Every sampled series, sorted by `(name, label_key, label_value)`
    /// after a merge; in registry order when freshly sampled.
    pub series: Vec<SeriesSample>,
}

impl MetricsSnapshot {
    /// Fold `other` into `self` and canonicalize the order.  Matching
    /// series combine per their kind; series only one side has are
    /// kept as-is.  Because every per-series combine is associative and
    /// commutative and the result order is canonical, the whole-merge
    /// is too — fleets can fold shard snapshots in any order.
    pub fn merge(&mut self, other: &MetricsSnapshot) {
        for sample in &other.series {
            match self.series.iter_mut().find(|s| s.merge_key() == sample.merge_key()) {
                Some(existing) => existing.combine(sample),
                None => self.series.push(sample.clone()),
            }
        }
        for sample in &mut self.series {
            let trimmed = trim_buckets(&sample.buckets);
            sample.buckets = trimmed;
        }
        self.series.sort_by(|a, b| a.merge_key().cmp(&b.merge_key()));
    }

    /// The sample for `name` (first label when the name is a family).
    pub fn find(&self, name: &str) -> Option<&SeriesSample> {
        self.series.iter().find(|s| s.name == name)
    }

    /// The sample for `name` with `label_value`.
    pub fn find_labeled(&self, name: &str, label_value: &str) -> Option<&SeriesSample> {
        self.series.iter().find(|s| s.name == name && s.label_value == label_value)
    }
}

/// Drop trailing zero buckets (the canonical trimmed form; an all-zero
/// array becomes empty).
pub fn trim_buckets(buckets: &[u64]) -> Vec<u64> {
    let len = buckets.iter().rposition(|&b| b != 0).map_or(0, |i| i + 1);
    buckets[..len.min(HISTOGRAM_BUCKETS)].to_vec()
}

/// Element-wise wrapping add of `other` into `acc`, padding `acc` to
/// `other`'s length first.
fn merge_buckets(acc: &mut Vec<u64>, other: &[u64]) {
    if acc.len() < other.len() {
        acc.resize(other.len(), 0);
    }
    for (slot, &b) in acc.iter_mut().zip(other.iter()) {
        *slot = slot.wrapping_add(b);
    }
}

/// Approximate quantile over a (possibly trimmed) bucket array: the
/// upper bound of the bucket where the cumulative count reaches
/// `ceil(q * count)`.  An upper bound, never an interpolation — honest
/// about the log2 resolution.
pub fn quantile(count: u64, buckets: &[u64], q: f64) -> u64 {
    if count == 0 {
        return 0;
    }
    let clamped = q.clamp(0.0, 1.0);
    // count is a histogram population; f64 round-off above 2^53 events
    // only blurs which bucket edge is reported, never panics.
    let rank = ((clamped * count as f64).ceil() as u64).max(1);
    let mut seen = 0u64;
    for (index, &bucket) in buckets.iter().enumerate() {
        seen = seen.saturating_add(bucket);
        if seen >= rank {
            return bucket_upper_bound(index);
        }
    }
    bucket_upper_bound(HISTOGRAM_BUCKETS - 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bucket_index;

    fn hist(name: &str, values: &[u64]) -> SeriesSample {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        let mut sum = 0u64;
        for &v in values {
            buckets[bucket_index(v)] += 1;
            sum = sum.wrapping_add(v);
        }
        SeriesSample::histogram(name, values.len() as u64, sum, &buckets)
    }

    #[test]
    fn trimming_is_idempotent_and_drops_only_trailing_zeros() {
        assert_eq!(trim_buckets(&[0, 0, 0]), Vec::<u64>::new());
        assert_eq!(trim_buckets(&[1, 0, 2, 0, 0]), vec![1, 0, 2]);
        assert_eq!(trim_buckets(&trim_buckets(&[1, 0, 2, 0, 0])), vec![1, 0, 2]);
    }

    #[test]
    fn merge_sums_counters_and_maxes_gauges() {
        let mut a = MetricsSnapshot {
            series: vec![
                SeriesSample::scalar("c", SampleKind::Counter, 2),
                SeriesSample::scalar("g", SampleKind::Gauge, 1),
            ],
        };
        let b = MetricsSnapshot {
            series: vec![
                SeriesSample::scalar("c", SampleKind::Counter, 3),
                SeriesSample::scalar("g", SampleKind::Gauge, 0),
                SeriesSample::scalar("only_b", SampleKind::Counter, 9),
            ],
        };
        a.merge(&b);
        assert_eq!(a.find("c").map(|s| s.value), Some(5));
        assert_eq!(a.find("g").map(|s| s.value), Some(1), "gauge merge takes the max");
        assert_eq!(a.find("only_b").map(|s| s.value), Some(9), "one-sided series survive");
    }

    #[test]
    fn merge_adds_histograms_element_wise() {
        let mut a = MetricsSnapshot { series: vec![hist("h", &[1, 1000])] };
        let b = MetricsSnapshot { series: vec![hist("h", &[1, 2, u64::MAX])] };
        a.merge(&b);
        let merged = a.find("h").unwrap();
        assert_eq!(merged.value, 5);
        assert_eq!(merged.buckets.iter().sum::<u64>(), 5, "merge preserves totals");
        assert_eq!(merged.buckets[bucket_index(1)], 2);
        assert_eq!(merged.buckets[bucket_index(u64::MAX)], 1);
    }

    #[test]
    fn labeled_series_merge_per_label() {
        let mut a = MetricsSnapshot {
            series: vec![SeriesSample::scalar("c", SampleKind::Counter, 1).labeled("verb", "x")],
        };
        let b = MetricsSnapshot {
            series: vec![
                SeriesSample::scalar("c", SampleKind::Counter, 1).labeled("verb", "x"),
                SeriesSample::scalar("c", SampleKind::Counter, 7).labeled("verb", "y"),
            ],
        };
        a.merge(&b);
        assert_eq!(a.find_labeled("c", "x").map(|s| s.value), Some(2));
        assert_eq!(a.find_labeled("c", "y").map(|s| s.value), Some(7));
    }

    #[test]
    fn quantiles_report_bucket_upper_bounds() {
        let h = hist("h", &[1, 1, 1, 1000]);
        assert_eq!(h.quantile(0.5), 1, "p50 of {{1,1,1,1000}} sits in the 1-bucket");
        assert_eq!(h.quantile(1.0), 1023, "p100 reports the top bucket's bound");
        assert_eq!(hist("e", &[]).quantile(0.5), 0, "empty histogram quantile is 0");
    }

    #[test]
    fn sample_kinds_round_trip_their_wire_spelling() {
        for kind in [SampleKind::Counter, SampleKind::Gauge, SampleKind::Histogram] {
            assert_eq!(SampleKind::parse(kind.as_str()), Some(kind));
        }
        assert_eq!(SampleKind::parse("nonsense"), None);
    }
}
