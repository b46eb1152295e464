//! # pdb-store — durable snapshots and a probe-outcome write-ahead log
//!
//! The paper's adaptive cleaning loop is long-lived and *stateful*:
//! probe outcomes permanently mutate the database, and the batch/delta
//! engines keep one shared evaluation alive across them.  This crate
//! makes that state survive restarts:
//!
//! * [`snapshot`] — a versioned, checksummed **binary snapshot format**
//!   for probabilistic databases (columnar tuple/score/probability
//!   layout, XXH64 integrity trailer) with bit-exact `f64` round trips;
//! * [`wal`] — an append-only **write-ahead log** of session lifecycle
//!   events (`create_session`, `register_query`, `apply_probe` with the
//!   resolved mutation), tolerant of torn tails;
//! * [`store`] — the **store directory** combining both: group commit,
//!   which fsyncs every append before it is acknowledged (the appender
//!   that finds no flush window open leads one; the store starts no
//!   thread), checkpoints, log compaction, and recovery, which hands each
//!   session back as a base state (its dataset or last checkpoint) plus the
//!   records journalled after it — the server, not this crate, folds
//!   those records into an evaluation, through the same calls a live
//!   request runs;
//! * [`spec`] — the durable [`DatasetSpec`] describing a session's base
//!   database (materialized by `pdb_gen::spec::build_dataset`, above
//!   this crate);
//! * [`hash`] — the self-contained XXH64 both formats use;
//! * [`error`] — [`StoreError`]: corruption is always a clean error with
//!   a path and byte offset, never a panic.
//!
//! `pdb-server` journals every session-mutating request into a store
//! (`pdb serve --store-dir`) and rebuilds its sessions from it on
//! startup; `pdb export` / `pdb import` / `pdb recover` drive the
//! formats from the command line.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod error;
pub mod hash;
mod le;
pub mod snapshot;
pub mod spec;
pub mod store;
pub mod wal;

pub use error::{Result, StoreError};
pub use snapshot::{Snapshot, SNAPSHOT_MAGIC, SNAPSHOT_VERSION};
pub use spec::DatasetSpec;
pub use store::{
    CompactionStats, FlushPolicy, RecoveredSession, Recovery, SessionCheckpoint, Store, WAL_FILE,
};
pub use wal::{Wal, WalRecord, WAL_VERSION};
