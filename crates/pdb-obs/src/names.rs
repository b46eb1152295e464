//! Canonical metric names — the single place a series name may be
//! spelled as a string literal.
//!
//! Every name registered in [`crate::metrics::registry`] comes from a
//! constant in this file, and the `metric-drift` lint in `pdb-analyze`
//! cross-checks **every string literal in this file** against the
//! metric reference table in the README (both directions).  Adding a
//! metric therefore means: add the constant here, add the registry
//! entry, and document it in the README table — the lint fails the
//! build if any of the three drifts.
//!
//! Naming follows the Prometheus conventions the text exposition
//! targets: `<layer>_<what>[_<unit>]`, `_total` for counters,
//! `_ns` for nanosecond histograms.

/// Requests dispatched, by verb (counter family).
pub const SERVER_REQUESTS_TOTAL: &str = "server_requests_total";
/// Request handling latency, by verb (nanosecond histogram family).
pub const SERVER_REQUEST_LATENCY_NS: &str = "server_request_latency_ns";
/// Failed requests, by error class (counter family).
pub const SERVER_ERRORS_TOTAL: &str = "server_errors_total";

/// Time one WAL append spends framing + waiting for durability.
pub const WAL_APPEND_LATENCY_NS: &str = "wal_append_latency_ns";
/// Time one group-commit fsync takes.
pub const WAL_FSYNC_LATENCY_NS: &str = "wal_fsync_latency_ns";
/// Records each completed group-commit flush window covered.
pub const WAL_FSYNC_BATCH_RECORDS: &str = "wal_fsync_batch_records";
/// 1 while the WAL's group commit is fail-stopped on a sticky fsync
/// error, 0 otherwise (gauge; fleet merge takes the max).
pub const WAL_DEGRADED: &str = "wal_degraded";

/// Full PSR dynamic-programming runs (counter).
pub const ENGINE_PSR_RUNS_TOTAL: &str = "engine_psr_runs_total";
/// Mutations folded in via the incremental delta kernel (counter).
pub const ENGINE_DELTA_PATCHES_TOTAL: &str = "engine_delta_patches_total";
/// Rows the delta kernel rewrote with the windowed PSR scan (counter).
pub const ENGINE_REBUILT_ROWS_TOTAL: &str = "engine_rebuilt_rows_total";
/// Positions the PSR scan advanced through, full or windowed, counted
/// from where it resumed: position 0 for a full run, the checkpoint above
/// the first rewritten row for a windowed scan (counter).
pub const ENGINE_PSR_ROWS_SCANNED_TOTAL: &str = "engine_psr_rows_scanned_total";
/// In-flight factors the PSR scan multiplied while re-forming its running
/// product after an ill-conditioned step or for an ill-conditioned row
/// (counter).  Its ratio to [`ENGINE_PSR_ROWS_SCANNED_TOTAL`] is a few
/// when each x-tuple's alternatives sit in a narrow score band, and
/// hundreds when null-mass alternatives spread across the ranking.
pub const ENGINE_PSR_REFORM_FACTORS_TOTAL: &str = "engine_psr_reform_factors_total";
/// Rows of the rank-probability matrix stored after each PSR run and
/// each delta pass: the tail cut, where the probability that fewer than
/// `k` tuples rank above first drops to 1e-18 (Lemma 2's cut on complete
/// data), or every row when it never does (histogram).
pub const ENGINE_PSR_LIVE_ROWS: &str = "engine_psr_live_rows";

/// Router-side latency of one forwarded request, by shard (histogram
/// family).
pub const FLEET_FORWARD_LATENCY_NS: &str = "fleet_forward_latency_ns";
/// Forward attempts that failed and were retried on a fresh connection
/// (counter).
pub const FLEET_RETRIES_TOTAL: &str = "fleet_retries_total";
/// Dead shard processes the router asked the supervisor to respawn
/// (counter).
pub const FLEET_RESPAWNS_TOTAL: &str = "fleet_respawns_total";

/// Every canonical name, in registry order.
pub const ALL: &[&str] = &[
    SERVER_REQUESTS_TOTAL,
    SERVER_REQUEST_LATENCY_NS,
    SERVER_ERRORS_TOTAL,
    WAL_APPEND_LATENCY_NS,
    WAL_FSYNC_LATENCY_NS,
    WAL_FSYNC_BATCH_RECORDS,
    WAL_DEGRADED,
    ENGINE_PSR_RUNS_TOTAL,
    ENGINE_DELTA_PATCHES_TOTAL,
    ENGINE_REBUILT_ROWS_TOTAL,
    ENGINE_PSR_ROWS_SCANNED_TOTAL,
    ENGINE_PSR_REFORM_FACTORS_TOTAL,
    ENGINE_PSR_LIVE_ROWS,
    FLEET_FORWARD_LATENCY_NS,
    FLEET_RETRIES_TOTAL,
    FLEET_RESPAWNS_TOTAL,
];
