//! The static metric catalog: every series the workspace records, as
//! const-constructed statics, plus the fixed [`registry`] that the
//! `metrics` wire verb, the text exposition, and the fleet merge all
//! walk.
//!
//! Consumers increment through these statics directly
//! (`pdb_obs::metrics::ENGINE_PSR_RUNS_TOTAL.inc()`); nothing is
//! registered at runtime, so there is no lock between a recording
//! thread and a scrape.

use crate::snapshot::{MetricsSnapshot, SampleKind, SeriesSample};
use crate::{names, Counter, CounterVec, Gauge, Histogram, HistogramVec};

/// Every protocol verb plus the `"other"` catch-all, the label set of
/// the per-verb server families.  `pdb-server` asserts this list covers
/// `Request::verb()` exactly, so an unlisted verb can only ever be a
/// new one that test catches.
pub const VERB_LABELS: &[&str] = &[
    "create_session",
    "register_query",
    "evaluate",
    "quality",
    "recommend_probe",
    "apply_mutation",
    "apply_probe",
    "drop_session",
    "persist",
    "stats",
    "metrics",
    "shutdown",
    "other",
];

/// Where a failed request died: `decode` (the line never parsed),
/// `handler` (dispatch returned an error reply), `io` (writing the
/// reply back failed), `compaction` (the auto-compaction a mutation ran
/// failed; the mutation itself was applied), plus the structural
/// catch-all.
pub const ERROR_CLASS_LABELS: &[&str] = &["decode", "handler", "io", "compaction", "other"];

/// Ring slots the per-shard forward-latency family distinguishes;
/// fleets larger than 16 shards fold the tail into `"other"`.
pub const SHARD_LABELS: &[&str] = &[
    "0", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10", "11", "12", "13", "14", "15", "other",
];

static SERVER_REQUESTS_CELLS: [Counter; VERB_LABELS.len()] =
    [const { Counter::new() }; VERB_LABELS.len()];
/// Requests dispatched, by verb.
pub static SERVER_REQUESTS_TOTAL: CounterVec =
    CounterVec::new("verb", VERB_LABELS, &SERVER_REQUESTS_CELLS);

static SERVER_LATENCY_CELLS: [Histogram; VERB_LABELS.len()] =
    [const { Histogram::new() }; VERB_LABELS.len()];
/// Request handling latency (decode to reply body), by verb.
pub static SERVER_REQUEST_LATENCY_NS: HistogramVec =
    HistogramVec::new("verb", VERB_LABELS, &SERVER_LATENCY_CELLS);

static SERVER_ERRORS_CELLS: [Counter; ERROR_CLASS_LABELS.len()] =
    [const { Counter::new() }; ERROR_CLASS_LABELS.len()];
/// Failed requests, by error class.
pub static SERVER_ERRORS_TOTAL: CounterVec =
    CounterVec::new("class", ERROR_CLASS_LABELS, &SERVER_ERRORS_CELLS);

/// One WAL append, framing through durability acknowledgment.
pub static WAL_APPEND_LATENCY_NS: Histogram = Histogram::new();
/// One group-commit fsync.
pub static WAL_FSYNC_LATENCY_NS: Histogram = Histogram::new();
/// Records covered per completed group-commit flush window.
pub static WAL_FSYNC_BATCH_RECORDS: Histogram = Histogram::new();
/// 1 while the WAL is fail-stopped on a sticky fsync error.
pub static WAL_DEGRADED: Gauge = Gauge::new();

/// Full PSR dynamic-programming runs.
pub static ENGINE_PSR_RUNS_TOTAL: Counter = Counter::new();
/// Mutations folded in incrementally by the delta kernel.
pub static ENGINE_DELTA_PATCHES_TOTAL: Counter = Counter::new();
/// Rows rewritten by the windowed PSR scan inside delta patches.
pub static ENGINE_REBUILT_ROWS_TOTAL: Counter = Counter::new();
/// Positions the PSR scan advanced through, full or windowed, from where
/// it resumed.
pub static ENGINE_PSR_ROWS_SCANNED_TOTAL: Counter = Counter::new();
/// In-flight factors multiplied while re-forming PSR's running product.
pub static ENGINE_PSR_REFORM_FACTORS_TOTAL: Counter = Counter::new();
/// Stored rank-probability rows after each PSR run and delta pass.
pub static ENGINE_PSR_LIVE_ROWS: Histogram = Histogram::new();

static FLEET_FORWARD_CELLS: [Histogram; SHARD_LABELS.len()] =
    [const { Histogram::new() }; SHARD_LABELS.len()];
/// Router-side latency of one forwarded request, by shard.
pub static FLEET_FORWARD_LATENCY_NS: HistogramVec =
    HistogramVec::new("shard", SHARD_LABELS, &FLEET_FORWARD_CELLS);

/// Forward attempts retried on a fresh connection.
pub static FLEET_RETRIES_TOTAL: Counter = Counter::new();
/// Dead shards the router had respawned.
pub static FLEET_RESPAWNS_TOTAL: Counter = Counter::new();

/// One registered metric: a canonical name bound to its series.
#[derive(Debug)]
pub struct MetricDef {
    /// Canonical name (a constant from [`names`]).
    pub name: &'static str,
    /// One-line meaning, surfaced by the text exposition as `# HELP`.
    pub help: &'static str,
    /// The live series behind the name.
    pub series: SeriesRef,
}

/// A reference into the static catalog.
#[derive(Debug)]
pub enum SeriesRef {
    /// A single counter.
    Counter(&'static Counter),
    /// A single gauge.
    Gauge(&'static Gauge),
    /// A single histogram.
    Histogram(&'static Histogram),
    /// A counter family.
    CounterVec(&'static CounterVec),
    /// A histogram family.
    HistogramVec(&'static HistogramVec),
}

static REGISTRY: [MetricDef; 16] = [
    MetricDef {
        name: names::SERVER_REQUESTS_TOTAL,
        help: "requests dispatched, by verb",
        series: SeriesRef::CounterVec(&SERVER_REQUESTS_TOTAL),
    },
    MetricDef {
        name: names::SERVER_REQUEST_LATENCY_NS,
        help: "request handling latency, by verb",
        series: SeriesRef::HistogramVec(&SERVER_REQUEST_LATENCY_NS),
    },
    MetricDef {
        name: names::SERVER_ERRORS_TOTAL,
        help: "failed requests, by error class",
        series: SeriesRef::CounterVec(&SERVER_ERRORS_TOTAL),
    },
    MetricDef {
        name: names::WAL_APPEND_LATENCY_NS,
        help: "WAL append latency, framing through durability",
        series: SeriesRef::Histogram(&WAL_APPEND_LATENCY_NS),
    },
    MetricDef {
        name: names::WAL_FSYNC_LATENCY_NS,
        help: "group-commit fsync latency",
        series: SeriesRef::Histogram(&WAL_FSYNC_LATENCY_NS),
    },
    MetricDef {
        name: names::WAL_FSYNC_BATCH_RECORDS,
        help: "records covered per group-commit flush",
        series: SeriesRef::Histogram(&WAL_FSYNC_BATCH_RECORDS),
    },
    MetricDef {
        name: names::WAL_DEGRADED,
        help: "1 while the WAL is fail-stopped on a sticky fsync error",
        series: SeriesRef::Gauge(&WAL_DEGRADED),
    },
    MetricDef {
        name: names::ENGINE_PSR_RUNS_TOTAL,
        help: "full PSR dynamic-programming runs",
        series: SeriesRef::Counter(&ENGINE_PSR_RUNS_TOTAL),
    },
    MetricDef {
        name: names::ENGINE_DELTA_PATCHES_TOTAL,
        help: "mutations folded in by the incremental delta kernel",
        series: SeriesRef::Counter(&ENGINE_DELTA_PATCHES_TOTAL),
    },
    MetricDef {
        name: names::ENGINE_REBUILT_ROWS_TOTAL,
        help: "rows rewritten by the windowed PSR scan inside delta patches",
        series: SeriesRef::Counter(&ENGINE_REBUILT_ROWS_TOTAL),
    },
    MetricDef {
        name: names::ENGINE_PSR_ROWS_SCANNED_TOTAL,
        help: "positions the PSR scan advanced through from where it resumed, full or windowed",
        series: SeriesRef::Counter(&ENGINE_PSR_ROWS_SCANNED_TOTAL),
    },
    MetricDef {
        name: names::ENGINE_PSR_REFORM_FACTORS_TOTAL,
        help: "in-flight factors multiplied while re-forming the PSR running product",
        series: SeriesRef::Counter(&ENGINE_PSR_REFORM_FACTORS_TOTAL),
    },
    MetricDef {
        name: names::ENGINE_PSR_LIVE_ROWS,
        help: "rank-probability rows stored after each PSR run and delta pass, up to the tail cut",
        series: SeriesRef::Histogram(&ENGINE_PSR_LIVE_ROWS),
    },
    MetricDef {
        name: names::FLEET_FORWARD_LATENCY_NS,
        help: "router-side forwarded-request latency, by shard",
        series: SeriesRef::HistogramVec(&FLEET_FORWARD_LATENCY_NS),
    },
    MetricDef {
        name: names::FLEET_RETRIES_TOTAL,
        help: "forward attempts retried on a fresh connection",
        series: SeriesRef::Counter(&FLEET_RETRIES_TOTAL),
    },
    MetricDef {
        name: names::FLEET_RESPAWNS_TOTAL,
        help: "dead shard processes respawned",
        series: SeriesRef::Counter(&FLEET_RESPAWNS_TOTAL),
    },
];

/// The fixed catalog, in [`names::ALL`] order.
pub fn registry() -> &'static [MetricDef] {
    &REGISTRY
}

/// Sample every registered series into a plain-data snapshot.
///
/// Family cells are sampled per label; histogram bucket arrays are
/// trimmed to their last non-zero bucket (an empty array means "never
/// recorded"), which keeps wire replies proportional to what actually
/// happened instead of `64 × series`.
pub fn snapshot() -> MetricsSnapshot {
    let mut series = Vec::new();
    for def in registry() {
        match &def.series {
            SeriesRef::Counter(c) => {
                series.push(SeriesSample::scalar(def.name, SampleKind::Counter, c.get()))
            }
            SeriesRef::Gauge(g) => {
                series.push(SeriesSample::scalar(def.name, SampleKind::Gauge, g.get()))
            }
            SeriesRef::Histogram(h) => {
                series.push(SeriesSample::histogram(def.name, h.count(), h.sum(), &h.buckets()))
            }
            SeriesRef::CounterVec(v) => {
                for (label, cell) in v.iter() {
                    series.push(
                        SeriesSample::scalar(def.name, SampleKind::Counter, cell.get())
                            .labeled(v.label_key(), label),
                    );
                }
            }
            SeriesRef::HistogramVec(v) => {
                for (label, cell) in v.iter() {
                    series.push(
                        SeriesSample::histogram(
                            def.name,
                            cell.count(),
                            cell.sum(),
                            &cell.buckets(),
                        )
                        .labeled(v.label_key(), label),
                    );
                }
            }
        }
    }
    MetricsSnapshot { series }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_matches_the_canonical_name_list_in_order() {
        let registered: Vec<&str> = registry().iter().map(|d| d.name).collect();
        assert_eq!(registered, names::ALL, "registry and names::ALL must list the same metrics");
    }

    #[test]
    fn snapshot_covers_every_registered_name() {
        let snap = snapshot();
        for name in names::ALL {
            assert!(
                snap.series.iter().any(|s| s.name == *name),
                "snapshot is missing registered metric {name}"
            );
        }
    }

    #[test]
    fn family_snapshots_sample_every_label() {
        let snap = snapshot();
        let verbs: Vec<&str> = snap
            .series
            .iter()
            .filter(|s| s.name == names::SERVER_REQUESTS_TOTAL)
            .map(|s| s.label_value.as_str())
            .collect();
        assert_eq!(verbs, VERB_LABELS);
    }

    #[test]
    fn every_help_line_is_nonempty() {
        for def in registry() {
            assert!(!def.help.is_empty(), "{} has no help text", def.name);
        }
    }
}
