//! The store directory: one write-ahead log plus checkpoint snapshots,
//! with crash recovery from the log.
//!
//! ## Directory layout
//!
//! ```text
//! <store-dir>/
//!   wal.log                     the write-ahead log (see [`crate::wal`])
//!   snapshot-<sid>-<seq>.pdbs   checkpoint snapshots (see [`crate::Snapshot`])
//! ```
//!
//! ## Recovery
//!
//! [`Store::open`] reads the log front to back (truncating a torn tail,
//! never erroring on one) and hands each live session back as a
//! [`RecoveredSession`]: a base state plus the records journalled after
//! it.  This crate only turns bytes into databases; it evaluates
//! nothing.  The server folds each tail record in through the same
//! session calls a live request runs, so recovery and serving share one
//! state machine.
//!
//! * `create_session` starts a base: the journalled [`DatasetSpec`]
//!   materialized through the caller-supplied builder (the generators
//!   are deterministic, so the base database comes back bit-for-bit), no
//!   queries and no probes;
//! * `checkpoint` starts a new base from the referenced snapshot, its
//!   query set and its probe count, and discards every earlier record of
//!   that session — the snapshot *is* those records, pre-applied;
//! * `register_query`, `apply_probe` and `apply_mutation` join the
//!   session's tail, each with its index in the log;
//! * `drop_session` removes the session.
//!
//! A record for a session the log never created fails recovery with
//! [`StoreError::Replay`] naming the record.
//!
//! ## Checkpoints and compaction
//!
//! [`Store::checkpoint`] writes a session's current (mutated) database as
//! a snapshot and appends a `checkpoint` record; from then on recovery of
//! that session starts at the snapshot.  Appending alone never shrinks
//! the log, so [`Store::truncate_log`] compacts it: records that precede
//! a session's last checkpoint — and all records of dropped sessions —
//! are filtered out, the survivors are atomically rewritten, and
//! unreferenced snapshot files are deleted.  The filter is a pure
//! function of the log, so it needs no access to live sessions and can
//! run while they keep serving (their appends simply wait on the log
//! lock for the rewrite's duration).

use crate::error::{Result, StoreError};
use crate::snapshot::Snapshot;
use crate::spec::DatasetSpec;
use crate::wal::{Wal, WalRecord};
use pdb_core::{DbError, RankedDatabase, Result as DbResult};
use pdb_quality::WeightedQuery;
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

/// File name of the write-ahead log inside a store directory.
pub const WAL_FILE: &str = "wal.log";

/// File name of the single-writer lock inside a store directory.
pub const LOCK_FILE: &str = "store.lock";

/// A session's full durable state, as handed to [`Store::checkpoint`].
#[derive(Debug, Clone)]
pub struct SessionCheckpoint {
    /// The session id.
    pub session: u64,
    /// The session's current (mutated) database.
    pub db: RankedDatabase,
    /// Registered queries, in registration order.
    pub specs: Vec<WeightedQuery>,
    /// Budget units one probe costs.
    pub probe_cost: u64,
    /// Probability that one probe succeeds.
    pub probe_success: f64,
    /// Probes applied to the session so far.
    pub probes: u64,
}

/// One session as the log leaves it: the state of its last
/// `create_session` or `checkpoint` record, and every record journalled
/// after that.
#[derive(Debug)]
pub struct RecoveredSession {
    /// The session's base state.  For a `create_session` record: the
    /// built dataset, no queries and no probes.  For a `checkpoint`
    /// record: the snapshot's database, query set and probe count.
    pub base: SessionCheckpoint,
    /// Log index of the record the base comes from.
    pub base_record: u64,
    /// The `register_query`, `apply_probe` and `apply_mutation` records
    /// journalled after the base, in log order, each with its log index.
    pub tail: Vec<(u64, WalRecord)>,
}

/// What [`Store::open`] read back from the directory.
#[derive(Debug)]
pub struct Recovery {
    /// Recovered sessions, ascending by id.
    pub sessions: Vec<RecoveredSession>,
    /// One past the largest session id the log has ever mentioned: the
    /// smallest id the server may assign next.  `None` when the log
    /// names `u64::MAX`, which has no successor, so no id is left.
    pub next_session_id: Option<u64>,
    /// Valid records read from the log.
    pub records: u64,
    /// Bytes of torn tail truncated from the log (0 for a clean log).
    pub truncated_bytes: u64,
}

/// What [`Store::truncate_log`] did.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CompactionStats {
    /// Records in the log before filtering.
    pub records_before: u64,
    /// Records surviving the filter.
    pub records_after: u64,
    /// Snapshot files deleted because no surviving record references
    /// them.
    pub snapshots_removed: usize,
}

/// How the store batches fsyncs.  Every store group-commits: an append
/// blocks until an fsync covering its record has completed, so an
/// acknowledged append is durable — only the fsync count amortizes
/// across concurrent appenders.  The store starts no thread: the first
/// appender that finds no flush window open leads one, and every record
/// framed before its fsync starts rides along.  The default (batch 64,
/// no linger) is what `pdb serve` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Batch concurrent appends into one fsync per window.
    GroupCommit {
        /// End a `max_wait` linger early once this many unsynced records
        /// are pending.  It does not cap a batch: each fsync covers every
        /// record framed before it started, so with no linger this bound
        /// changes nothing.
        max_batch: usize,
        /// Optional linger: the leading appender keeps collecting up to
        /// this long before it fsyncs, trading commit latency for fuller
        /// batches.  Zero — the recommended setting — fsyncs at once;
        /// batches still form from the records that accrue *while* the
        /// previous fsync runs, so on a fast device a linger only taxes
        /// every commit (the same reason PostgreSQL ships
        /// `commit_delay = 0`).
        max_wait: Duration,
    },
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy::GroupCommit { max_batch: 64, max_wait: Duration::ZERO }
    }
}

/// Group-commit state shared by every appender.  `dirty`/`synced` are
/// monotone record counts: an append registers `dirty += 1` only *after*
/// its frame is fully written, so a window that read `target = dirty`
/// and then fsync'd covers every registered record.
#[derive(Debug, Default)]
struct FlushState {
    /// Records fully framed into the log file.
    dirty: u64,
    /// Records covered by a completed fsync (or a compaction rewrite,
    /// which is durable by construction).
    synced: u64,
    /// Completed flush windows (observability: tests and benches assert
    /// that this stays well below the append count under concurrency).
    flushes: u64,
    /// Sticky flush failure: the log fail-stops — every waiting and
    /// future append errors — instead of acknowledging records whose
    /// durability is unknown.
    error: Option<String>,
    /// Whether an appender is leading a flush window (lingering or
    /// fsyncing); the others wait for it to finish.
    leading: bool,
}

/// A durable session store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: Mutex<Wal>,
    snapshot_seq: AtomicU64,
    records_since_truncate: AtomicU64,
    flush: Mutex<FlushState>,
    /// Signalled by appenders when a record becomes pending (ends a
    /// leader's linger once `max_batch` records are pending).
    pending: Condvar,
    /// Signalled when a window ends: `synced` advanced, `error` was set
    /// or the leader stepped down.
    done: Condvar,
    max_batch: u64,
    max_wait: Duration,
    /// Holds the OS advisory lock on [`LOCK_FILE`] for the store's
    /// lifetime (released automatically when the handle closes, so a
    /// killed process never leaves a stale lock behind).
    _lock: fs::File,
}

/// Builder callback materializing a [`DatasetSpec`] (dependency-inverted:
/// the generators live in `pdb-gen`, above this crate).
pub type DatasetBuilder<'a> = dyn Fn(&DatasetSpec) -> DbResult<RankedDatabase> + 'a;

impl Store {
    /// Open (or create) the store directory, read the log, and return
    /// the store plus every session it recovered.  `build` materializes
    /// the dataset specs journalled by `create_session` records (pass
    /// `pdb_gen::spec::build_dataset`).  Appends group-commit under the
    /// default [`FlushPolicy`].
    /// Fails if another process already holds the store open: two
    /// writers appending to (and open-truncating) the same log through
    /// independent handles would interleave frames and destroy each
    /// other's acknowledged records.
    pub fn open(dir: &Path, build: &DatasetBuilder<'_>) -> Result<(Self, Recovery)> {
        Self::open_with_policy(dir, FlushPolicy::default(), build)
    }

    /// [`open`](Self::open) with an explicit [`FlushPolicy`] for the
    /// group commit that batches fsyncs.
    pub fn open_with_policy(
        dir: &Path,
        policy: FlushPolicy,
        build: &DatasetBuilder<'_>,
    ) -> Result<(Self, Recovery)> {
        let FlushPolicy::GroupCommit { max_batch, max_wait } = policy;
        if max_batch == 0 {
            return Err(StoreError::io(
                "opening",
                dir,
                std::io::Error::other("group commit needs max_batch >= 1"),
            ));
        }
        fs::create_dir_all(dir).map_err(|e| StoreError::io("creating", dir, e))?;
        let lock_path = dir.join(LOCK_FILE);
        let lock_err = |e| StoreError::io("creating", &lock_path, e);
        // pdb-analyze: allow(durability-pattern): the lock file carries no data, it exists only to be flock'd; losing it on crash is correct
        let lock = fs::File::create(&lock_path).map_err(lock_err)?;
        lock.try_lock().map_err(|e| {
            StoreError::io(
                "locking",
                &lock_path,
                std::io::Error::other(format!(
                    "another process holds this store open ({e}); \
                     a store directory has exactly one writer"
                )),
            )
        })?;
        let (wal, replay) = Wal::open(&dir.join(WAL_FILE))?;
        let snapshot_seq = max_snapshot_seq(dir)?;
        let store = Self {
            dir: dir.to_path_buf(),
            wal: Mutex::new(wal),
            snapshot_seq: AtomicU64::new(snapshot_seq),
            // Count the records the log already holds: a server that is
            // restarted more often than it appends `compact_every`
            // records would otherwise never reach its auto-compaction
            // threshold, and the log would grow without bound across
            // restarts.
            records_since_truncate: AtomicU64::new(replay.records.len() as u64),
            flush: Mutex::new(FlushState::default()),
            pending: Condvar::new(),
            done: Condvar::new(),
            max_batch: max_batch as u64,
            max_wait,
            _lock: lock,
        };
        let recovery = group_records(dir, replay.records, replay.truncated_bytes, build)?;
        Ok((store, recovery))
    }

    /// Read-only recovery preview (the dry run behind `pdb recover`):
    /// scan and group the log **without** creating the directory,
    /// writing a header, or truncating a torn tail on disk.  The torn
    /// tail a real [`open`](Self::open) would truncate is only
    /// *reported*, via [`Recovery::truncated_bytes`].
    pub fn peek(dir: &Path, build: &DatasetBuilder<'_>) -> Result<Recovery> {
        let path = dir.join(WAL_FILE);
        let bytes = fs::read(&path).map_err(|e| StoreError::io("reading", &path, e))?;
        let (records, valid_len) = crate::wal::scan(&bytes, &path)?;
        group_records(dir, records, (bytes.len() - valid_len) as u64, build)
    }

    /// Lock the log, failing — not panicking — when a previous writer
    /// panicked while holding it.  `Wal::append` already rolls back or
    /// fail-stops on its own errors; a *poisoned lock* additionally means
    /// even that bookkeeping may have been interrupted mid-update, so
    /// every later log operation reports a clean error instead of
    /// guessing at the log's state.
    fn wal(&self) -> Result<MutexGuard<'_, Wal>> {
        self.wal.lock().map_err(|_| {
            StoreError::io(
                "locking",
                &self.dir,
                std::io::Error::other("log lock poisoned: a writer panicked mid-operation"),
            )
        })
    }

    /// Append one record to the log.  The call blocks until a batched
    /// flush covering the record completed, so an acknowledged append is
    /// durable.
    pub fn append(&self, record: &WalRecord) -> Result<()> {
        // The span covers framing *and* the wait for durability, so the
        // histogram reports what an acknowledged append actually costs
        // callers (mostly the wait).
        let _span = pdb_obs::metrics::WAL_APPEND_LATENCY_NS.span();
        self.wal()?.append(record)?;
        self.wait_durable()?;
        self.records_since_truncate.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// The group-commit state.  It is a handful of scalars with no
    /// multi-field invariant a panicking holder could tear, so a poisoned
    /// guard is recovered.
    fn flush_state(&self) -> MutexGuard<'_, FlushState> {
        self.flush.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// Register one fully framed record and block until an fsync covers
    /// it.  Must be called *after* [`Wal::append`] returned — the dirty
    /// count's meaning is "frames completely in the file".  When no
    /// window is open, this appender leads one; otherwise it waits, and
    /// if the open window ends without covering its record, it (or
    /// another waiter) leads the next.
    fn wait_durable(&self) -> Result<()> {
        let mut state = self.flush_state();
        state.dirty += 1;
        let seq = state.dirty;
        if state.leading && !self.max_wait.is_zero() {
            self.pending.notify_one();
        }
        while state.synced < seq {
            if let Some(why) = &state.error {
                return Err(StoreError::io(
                    "syncing",
                    &self.dir,
                    std::io::Error::other(format!("group-commit flush failed: {why}")),
                ));
            }
            state = if state.leading {
                self.done.wait(state).unwrap_or_else(PoisonError::into_inner)
            } else {
                self.lead_window(state)
            };
        }
        Ok(())
    }

    /// Lead one flush window: linger for a fuller batch (`max_wait` —
    /// zero skips the linger entirely), fsync once, advance `synced` and
    /// wake the group.  One fsync covers every record registered before
    /// `target` was read, because a record's frame is completely written
    /// before its registration.
    fn lead_window<'a>(
        &'a self,
        mut state: MutexGuard<'a, FlushState>,
    ) -> MutexGuard<'a, FlushState> {
        state.leading = true;
        let window = Instant::now();
        while !self.max_wait.is_zero() && state.dirty - state.synced < self.max_batch {
            let Some(remaining) = self.max_wait.checked_sub(window.elapsed()) else { break };
            let (next, timeout) =
                self.pending.wait_timeout(state, remaining).unwrap_or_else(PoisonError::into_inner);
            state = next;
            if timeout.timed_out() {
                break;
            }
        }
        let target = state.dirty;
        drop(state);
        // fsync on a duplicated handle, *outside* the log lock: appenders
        // keep framing records while the sync runs, and those records
        // become the next batch.
        let handle = self.wal.lock().unwrap_or_else(PoisonError::into_inner).sync_handle();
        let fsync_span = pdb_obs::metrics::WAL_FSYNC_LATENCY_NS.span();
        let result = handle.and_then(|file| {
            file.sync_data().map_err(|e| StoreError::io("syncing", &self.dir.join(WAL_FILE), e))
        });
        fsync_span.finish();
        let mut state = self.flush_state();
        match result {
            Ok(()) => {
                // How many records this one fsync made durable — the
                // batch-size distribution is the whole story of group
                // commit (1 everywhere means the policy amortizes
                // nothing).  Saturating: a concurrent compaction may have
                // already marked everything synced, making this window
                // empty.
                let batch = target.saturating_sub(state.synced);
                if batch > 0 {
                    pdb_obs::metrics::WAL_FSYNC_BATCH_RECORDS.record(batch);
                }
                state.synced = state.synced.max(target);
                state.flushes += 1;
            }
            Err(err) => {
                pdb_obs::metrics::WAL_DEGRADED.set(1);
                state.error = Some(err.to_string());
            }
        }
        state.leading = false;
        self.done.notify_all();
        state
    }

    /// Completed group-commit flush windows.  Under concurrency this
    /// stays well below the append count — the whole point of group
    /// commit.
    pub fn flushes(&self) -> u64 {
        self.flush_state().flushes
    }

    /// The sticky fsync failure, if one has happened (`None` on a
    /// healthy log).  Once set, the log has fail-stopped: every waiting
    /// and future append errors.  Surfaced through `stats`/`metrics` so
    /// operators see the degradation before the next write trips over
    /// it.
    pub fn flush_error(&self) -> Option<String> {
        self.flush_state().error.clone()
    }

    /// Records appended since the last [`truncate_log`](Self::truncate_log)
    /// (or since open).  Servers use this as the auto-compaction trigger.
    pub fn records_since_truncate(&self) -> u64 {
        self.records_since_truncate.load(Ordering::Relaxed)
    }

    /// Total records currently in the log.
    pub fn records(&self) -> u64 {
        // Reads a plain counter; recovering a poisoned guard cannot
        // observe torn state, and a stats read should not fail.
        self.wal.lock().unwrap_or_else(PoisonError::into_inner).records()
    }

    /// Write `state` as a checkpoint: its database becomes a snapshot
    /// file and a `checkpoint` record is appended, so recovery of this
    /// session starts at the snapshot instead of its first record.
    /// Returns the snapshot's file name.
    ///
    /// Callers must hold the session's own lock across the state capture
    /// *and* this call, so no probe record for the session can land
    /// between the captured state and its checkpoint record.
    pub fn checkpoint(&self, state: &SessionCheckpoint) -> Result<String> {
        let seq = self.snapshot_seq.fetch_add(1, Ordering::Relaxed) + 1;
        let name = format!("snapshot-{}-{seq}.pdbs", state.session);
        Snapshot::write(&state.db, &self.dir.join(&name))?;
        self.append(&WalRecord::Checkpoint {
            session: state.session,
            snapshot: name.clone(),
            probe_cost: state.probe_cost,
            probe_success: state.probe_success,
            specs: state.specs.clone(),
            probes: state.probes,
        })?;
        Ok(name)
    }

    /// Compact the log: drop records superseded by a later checkpoint of
    /// their session (and all records of dropped sessions), atomically
    /// rewrite the survivors, and delete snapshot files nothing
    /// references anymore.
    ///
    /// The filter is computed from the log alone, under the log lock:
    /// concurrent appends simply wait, and any record appended after the
    /// lock is released post-dates every checkpoint the filter saw, so it
    /// is never dropped.
    pub fn truncate_log(&self) -> Result<CompactionStats> {
        let mut wal = self.wal()?;
        let records = crate::wal::scan_file(wal.path())?;
        let kept = filter_compacted(&records);
        let stats = CompactionStats {
            records_before: records.len() as u64,
            records_after: kept.len() as u64,
            snapshots_removed: 0,
        };
        wal.rewrite(&kept)?;
        self.records_since_truncate.store(0, Ordering::Relaxed);
        {
            // The rewrite was written atomically and fsync'd, and no
            // frame can land while the log lock is held: everything
            // framed so far is durable, so release any waiting appenders.
            let mut state = self.flush_state();
            state.synced = state.synced.max(state.dirty);
            self.done.notify_all();
        }
        drop(wal);

        // Garbage-collect ONLY the snapshot files referenced by records
        // the filter just dropped.  A directory sweep of "everything not
        // referenced by a kept record" would race a concurrent
        // `checkpoint`: its snapshot file exists before its WAL record
        // does, so the sweep would delete a file whose record lands right
        // after the filter — leaving the log pointing at a missing file
        // and making the next recovery fail.  Dropped-record snapshots
        // cannot race that way (their records are already superseded);
        // files orphaned by a crash between snapshot write and record
        // append merely leak until a later compaction drops their
        // record, and are harmless.
        let referenced: std::collections::HashSet<&str> =
            kept.iter().filter_map(checkpoint_snapshot).collect();
        let mut removed = 0;
        for name in records.iter().filter_map(checkpoint_snapshot) {
            if !referenced.contains(name) && fs::remove_file(self.dir.join(name)).is_ok() {
                removed += 1;
            }
        }
        Ok(CompactionStats { snapshots_removed: removed, ..stats })
    }
}

/// Group scanned records by session: each live session's last base and
/// the records after it (checkpoint snapshots are loaded relative to
/// `dir`).
fn group_records(
    dir: &Path,
    records: Vec<WalRecord>,
    truncated_bytes: u64,
    build: &DatasetBuilder<'_>,
) -> Result<Recovery> {
    let mut sessions: BTreeMap<u64, RecoveredSession> = BTreeMap::new();
    let mut max_id = 0u64;
    let total = records.len() as u64;
    for (index, record) in (0u64..).zip(records) {
        max_id = max_id.max(record.session());
        let base = match record {
            WalRecord::CreateSession { session, dataset, probe_cost, probe_success } => {
                let db = build(&dataset)
                    .map_err(|source| StoreError::Replay { record: index, source })?;
                SessionCheckpoint {
                    session,
                    db,
                    specs: Vec::new(),
                    probe_cost,
                    probe_success,
                    probes: 0,
                }
            }
            // The snapshot already contains every earlier record's
            // effect: the session starts over from it.
            WalRecord::Checkpoint {
                session,
                snapshot,
                probe_cost,
                probe_success,
                specs,
                probes,
            } => {
                let db = Snapshot::read(&dir.join(&snapshot))?;
                SessionCheckpoint { session, db, specs, probe_cost, probe_success, probes }
            }
            WalRecord::DropSession { session } => {
                sessions.remove(&session);
                continue;
            }
            record => {
                let session = record.session();
                let recovered = sessions.get_mut(&session).ok_or_else(|| StoreError::Replay {
                    record: index,
                    source: DbError::invalid_parameter(format!(
                        "log references session {session} before creating it"
                    )),
                })?;
                recovered.tail.push((index, record));
                continue;
            }
        };
        sessions
            .insert(base.session, RecoveredSession { base, base_record: index, tail: Vec::new() });
    }
    Ok(Recovery {
        sessions: sessions.into_values().collect(),
        next_session_id: max_id.checked_add(1),
        records: total,
        truncated_bytes,
    })
}

/// The snapshot file a record references, if it is a checkpoint.
fn checkpoint_snapshot(record: &WalRecord) -> Option<&str> {
    match record {
        WalRecord::Checkpoint { snapshot, .. } => Some(snapshot.as_str()),
        _ => None,
    }
}

/// The compaction filter: keep a record iff its session is still alive
/// and the record is not superseded by a later checkpoint of the same
/// session.
///
/// One caveat: recovery derives `next_session_id` from the ids the log
/// mentions, and erasing every record of a dropped session could erase
/// the *highest* id ever assigned — a restart would then reuse it, and a
/// stale client holding the old id would silently operate on someone
/// else's new session.  When filtering would lower the log's maximum
/// mentioned id, a single `drop_session` tombstone for that id is kept
/// as the high-water mark.
fn filter_compacted(records: &[WalRecord]) -> Vec<WalRecord> {
    let mut dropped: std::collections::HashSet<u64> = std::collections::HashSet::new();
    let mut last_checkpoint: std::collections::HashMap<u64, usize> =
        std::collections::HashMap::new();
    for (index, record) in records.iter().enumerate() {
        match record {
            WalRecord::DropSession { session } => {
                dropped.insert(*session);
            }
            WalRecord::Checkpoint { session, .. } => {
                last_checkpoint.insert(*session, index);
            }
            _ => {}
        }
    }
    let mut kept = Vec::new();
    for (index, record) in records.iter().enumerate() {
        let session = record.session();
        let superseded =
            last_checkpoint.get(&session).is_some_and(|&checkpoint| index < checkpoint);
        if !dropped.contains(&session) && !superseded {
            kept.push(record.clone());
        }
    }
    if let Some(max_id) = records.iter().map(WalRecord::session).max() {
        if kept.iter().map(WalRecord::session).max() != Some(max_id) {
            kept.push(WalRecord::DropSession { session: max_id });
        }
    }
    kept
}

/// Largest `<seq>` among existing `snapshot-<sid>-<seq>.pdbs` files, so
/// new checkpoints never collide with files from a previous run.
fn max_snapshot_seq(dir: &Path) -> Result<u64> {
    let mut max = 0u64;
    for entry in fs::read_dir(dir).map_err(|e| StoreError::io("listing", dir, e))? {
        let entry = entry.map_err(|e| StoreError::io("listing", dir, e))?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        if let Some(seq) = name
            .strip_prefix("snapshot-")
            .and_then(|rest| rest.strip_suffix(".pdbs"))
            .and_then(|rest| rest.rsplit('-').next())
            .and_then(|seq| seq.parse::<u64>().ok())
        {
            max = max.max(seq);
        }
    }
    Ok(max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_engine::delta::XTupleMutation;
    use pdb_engine::queries::TopKQuery;

    fn udb1() -> RankedDatabase {
        RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ])
        .unwrap()
    }

    /// udb1 after `probe1`: x-tuple 2 collapsed onto rank position 2.
    fn udb2() -> RankedDatabase {
        let mut db = udb1();
        db.collapse_x_tuple_in_place(2, 2).unwrap();
        db
    }

    fn build(spec: &DatasetSpec) -> DbResult<RankedDatabase> {
        match spec {
            DatasetSpec::Udb1 => Ok(udb1()),
            DatasetSpec::Inline { x_tuples } => RankedDatabase::from_scored_x_tuples(x_tuples),
            other => Err(DbError::invalid_parameter(format!("test builder: {other:?}"))),
        }
    }

    fn temp_store(name: &str) -> PathBuf {
        let dir = std::env::temp_dir().join("pdb-store-store-test").join(name);
        fs::remove_dir_all(&dir).ok();
        dir
    }

    fn pt2_query() -> WeightedQuery {
        WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 })
    }

    fn pt2() -> WalRecord {
        WalRecord::RegisterQuery {
            session: 1,
            query: TopKQuery::PTk { k: 2, threshold: 0.4 },
            weight: 1.0,
        }
    }

    fn create1() -> WalRecord {
        WalRecord::CreateSession {
            session: 1,
            dataset: DatasetSpec::Udb1,
            probe_cost: 1,
            probe_success: 0.8,
        }
    }

    fn probe1() -> WalRecord {
        WalRecord::ApplyProbe {
            session: 1,
            x_tuple: 2,
            mutation: XTupleMutation::CollapseToAlternative { keep_pos: 2 },
        }
    }

    fn reweight0() -> WalRecord {
        WalRecord::ApplyProbe {
            session: 1,
            x_tuple: 0,
            mutation: XTupleMutation::Reweight { probs: vec![0.5, 0.5] },
        }
    }

    /// The post-probe state of session 1, as the server would checkpoint it.
    fn checkpoint1() -> SessionCheckpoint {
        SessionCheckpoint {
            session: 1,
            db: udb2(),
            specs: vec![pt2_query()],
            probe_cost: 1,
            probe_success: 0.8,
            probes: 1,
        }
    }

    fn tail_indices(session: &RecoveredSession) -> Vec<u64> {
        session.tail.iter().map(|(index, _)| *index).collect()
    }

    #[test]
    fn create_register_probe_replays_to_the_mutated_state() {
        let dir = temp_store("basic");
        {
            let (store, recovery) = Store::open(&dir, &build).unwrap();
            assert!(recovery.sessions.is_empty());
            assert_eq!(recovery.next_session_id, Some(1));
            store.append(&create1()).unwrap();
            store.append(&pt2()).unwrap();
            store.append(&probe1()).unwrap();
        }

        let (_, recovery) = Store::open(&dir, &build).unwrap();
        assert_eq!(recovery.records, 3);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.next_session_id, Some(2));
        // The base is the built dataset; the registration and the probe
        // wait in the tail for the server to fold in.
        let session = &recovery.sessions[0];
        assert_eq!((session.base.session, session.base_record), (1, 0));
        assert_eq!(session.base.db, udb1());
        assert!(session.base.specs.is_empty());
        assert_eq!(session.base.probes, 0);
        assert_eq!(session.tail, vec![(1, pt2()), (2, probe1())]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn checkpoint_supersedes_earlier_records_and_compaction_drops_them() {
        let dir = temp_store("checkpoint");
        let (store, _) = Store::open(&dir, &build).unwrap();
        store.append(&create1()).unwrap();
        store.append(&pt2()).unwrap();
        store.append(&probe1()).unwrap();

        // Checkpoint the post-probe state (as the server would, from the
        // live session).
        let name = store.checkpoint(&checkpoint1()).unwrap();
        assert!(dir.join(&name).exists());

        // A probe after the checkpoint must survive compaction.
        store.append(&reweight0()).unwrap();
        let stats = store.truncate_log().unwrap();
        assert_eq!(stats.records_before, 5);
        assert_eq!(stats.records_after, 2, "checkpoint + post-checkpoint probe");
        assert_eq!(store.records_since_truncate(), 0);

        drop(store);
        let (_, recovery) = Store::open(&dir, &build).unwrap();
        let session = &recovery.sessions[0];
        // The base is the snapshot with its counters; only the
        // post-checkpoint probe is left to replay.
        assert_eq!(session.base_record, 0);
        assert_eq!(session.base.db, udb2());
        assert_eq!(session.base.specs, vec![pt2_query()]);
        assert_eq!(session.base.probes, 1, "the checkpointed probe count");
        assert_eq!(session.tail, vec![(1, reweight0())]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn dropped_sessions_vanish_from_recovery_and_compaction() {
        let dir = temp_store("dropped");
        let (store, _) = Store::open(&dir, &build).unwrap();
        store.append(&create1()).unwrap();
        store
            .append(&WalRecord::CreateSession {
                session: 2,
                dataset: DatasetSpec::Inline { x_tuples: vec![vec![(1.0, 0.5)], vec![(2.0, 1.0)]] },
                probe_cost: 3,
                probe_success: 0.5,
            })
            .unwrap();
        store.append(&WalRecord::DropSession { session: 1 }).unwrap();
        let stats = store.truncate_log().unwrap();
        assert_eq!(stats.records_after, 1, "only session 2's create survives");

        drop(store);
        let (_, recovery) = Store::open(&dir, &build).unwrap();
        assert_eq!(recovery.sessions.len(), 1);
        let session = &recovery.sessions[0];
        assert_eq!(session.base.session, 2);
        assert_eq!((session.base.probe_cost, session.base.probe_success), (3, 0.5));
        assert!(session.base.specs.is_empty() && session.tail.is_empty(), "an idle session");
        // Ids never regress below what the log has seen — session 2 is
        // the highest surviving mention after compaction.
        assert!(recovery.next_session_id.is_some_and(|id| id >= 3));
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn compaction_preserves_the_high_water_session_id() {
        let dir = temp_store("high-water");
        let (store, _) = Store::open(&dir, &build).unwrap();
        store.append(&create1()).unwrap();
        store
            .append(&WalRecord::CreateSession {
                session: 2,
                dataset: DatasetSpec::Udb1,
                probe_cost: 1,
                probe_success: 0.8,
            })
            .unwrap();
        store.append(&WalRecord::DropSession { session: 2 }).unwrap();
        let stats = store.truncate_log().unwrap();
        // Session 1's create survives, plus the tombstone pinning id 2.
        assert_eq!(stats.records_after, 2);
        drop(store);
        let (_, recovery) = Store::open(&dir, &build).unwrap();
        assert_eq!(recovery.sessions.len(), 1);
        assert_eq!(
            recovery.next_session_id,
            Some(3),
            "ids must never regress to a dropped session's id"
        );
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_store_directory_has_exactly_one_writer() {
        let dir = temp_store("single-writer");
        let (store, _) = Store::open(&dir, &build).unwrap();
        let err = Store::open(&dir, &build).unwrap_err();
        assert!(err.to_string().contains("one writer"), "{err}");
        // The read-only peek is not a writer and stays available.
        assert!(Store::peek(&dir, &build).is_ok());
        drop(store);
        assert!(Store::open(&dir, &build).is_ok(), "lock released on drop");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_of_an_inconsistent_log_is_a_clean_error() {
        let dir = temp_store("inconsistent");
        let (store, _) = Store::open(&dir, &build).unwrap();
        // Probe for a session that was never created.
        store.append(&probe1()).unwrap();
        drop(store);
        let err = Store::open(&dir, &build).unwrap_err();
        assert!(matches!(err, StoreError::Replay { record: 0, .. }), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_appends_survive_reopen_and_match_the_in_process_state() {
        let policy = FlushPolicy::GroupCommit {
            max_batch: 8,
            max_wait: std::time::Duration::from_millis(20),
        };
        let dir = temp_store("group-commit");
        {
            let (store, _) = Store::open_with_policy(&dir, policy, &build).unwrap();
            store.append(&create1()).unwrap();
            store.append(&pt2()).unwrap();
            store.append(&probe1()).unwrap();
        }

        // The recovered session is exactly the records appended in
        // process.
        let (_, recovery) = Store::open(&dir, &build).unwrap();
        assert_eq!(recovery.records, 3);
        assert_eq!(recovery.sessions.len(), 1);
        let session = &recovery.sessions[0];
        assert_eq!(session.base.session, 1);
        assert_eq!(session.base.db, udb1());
        assert_eq!(session.tail, vec![(1, pt2()), (2, probe1())]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_batches_concurrent_appends_into_fewer_flushes() {
        let dir = temp_store("group-commit-batching");
        let policy = FlushPolicy::GroupCommit {
            max_batch: 4,
            max_wait: std::time::Duration::from_millis(100),
        };
        let (store, _) = Store::open_with_policy(&dir, policy, &build).unwrap();
        store.append(&create1()).unwrap();
        store.append(&pt2()).unwrap();

        let store = std::sync::Arc::new(store);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        store.append(&reweight0()).unwrap();
                    }
                })
            })
            .collect();
        for thread in threads {
            thread.join().unwrap();
        }

        let flushes = store.flushes();
        assert!(flushes > 0, "the flusher ran");
        assert!(flushes < 66, "66 appends batched into {flushes} flushes");
        assert_eq!(store.records(), 66);

        // Every acknowledged append survives a reopen.
        drop(store);
        let (_, recovery) = Store::open(&dir, &build).unwrap();
        assert_eq!(recovery.records, 66);
        let session = &recovery.sessions[0];
        assert_eq!(tail_indices(session), (1..66).collect::<Vec<u64>>());
        let probes = session.tail.iter().filter(|(_, record)| *record == reweight0()).count();
        assert_eq!(probes, 64);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_interoperates_with_compaction() {
        let dir = temp_store("group-commit-compaction");
        let policy = FlushPolicy::GroupCommit {
            max_batch: 8,
            max_wait: std::time::Duration::from_millis(20),
        };
        let (store, _) = Store::open_with_policy(&dir, policy, &build).unwrap();
        store.append(&create1()).unwrap();
        store.append(&pt2()).unwrap();
        store.append(&probe1()).unwrap();
        store.checkpoint(&checkpoint1()).unwrap();
        let stats = store.truncate_log().unwrap();
        assert_eq!(stats.records_after, 1, "checkpoint survives");
        // Appends keep working (and keep being acknowledged) after the
        // rewrite advanced the synced watermark.
        store.append(&reweight0()).unwrap();
        drop(store);
        let (_, recovery) = Store::open(&dir, &build).unwrap();
        let session = &recovery.sessions[0];
        assert_eq!(session.base.probes, 1);
        assert_eq!(session.tail, vec![(1, reweight0())]);
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn group_commit_rejects_an_empty_batch_bound() {
        let dir = temp_store("group-commit-zero");
        let policy = FlushPolicy::GroupCommit {
            max_batch: 0,
            max_wait: std::time::Duration::from_millis(1),
        };
        let err = Store::open_with_policy(&dir, policy, &build).unwrap_err();
        assert!(err.to_string().contains("max_batch"), "{err}");
        fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn snapshot_seq_never_reuses_names_across_reopens() {
        let dir = temp_store("seq");
        let checkpoint = SessionCheckpoint {
            session: 1,
            db: udb1(),
            specs: Vec::new(),
            probe_cost: 1,
            probe_success: 0.8,
            probes: 0,
        };
        let (store, _) = Store::open(&dir, &build).unwrap();
        store.append(&create1()).unwrap();
        let first = store.checkpoint(&checkpoint).unwrap();
        drop(store);
        let (store, _) = Store::open(&dir, &build).unwrap();
        let second = store.checkpoint(&checkpoint).unwrap();
        assert_ne!(first, second);
        fs::remove_dir_all(&dir).ok();
    }
}
