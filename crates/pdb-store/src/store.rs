//! The store directory: one write-ahead log plus checkpoint snapshots,
//! with crash recovery by delta replay.
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
//! [`Store::open`] replays the log front to back (truncating a torn tail,
//! never erroring on one).  Per session the replay mirrors exactly what
//! the live server did:
//!
//! * `create_session` materializes the journalled [`DatasetSpec`] through
//!   the caller-supplied builder (the generators are deterministic, so
//!   the base database comes back bit-for-bit);
//! * `checkpoint` loads the referenced snapshot instead and discards
//!   every earlier record of that session — the snapshot *is* those
//!   records, pre-applied;
//! * `register_query` re-plans the session's shared evaluation (one PSR
//!   run at the new `k_max`, just like live registration);
//! * `apply_probe` records are buffered and folded in through
//!   [`BatchQuality::replay_in_place`] — **one in-place delta pass per
//!   probe** on the shared master matrix, with a single quality refresh
//!   per session at the end.  Recovery cost is O(probes) delta passes,
//!   not a PSR rerun per probe.
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
use pdb_engine::delta::{DeltaStats, XTupleMutation};
use pdb_quality::{BatchQuality, WeightedQuery};
use std::collections::BTreeMap;
use std::fs;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError};
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

/// The evaluation state a session recovered in.
#[derive(Debug)]
pub enum RecoveredState {
    /// No queries were registered: only the database exists.
    Idle(RankedDatabase),
    /// The live shared evaluation, rebuilt by one PSR run plus delta
    /// replay of the journalled probes.
    Live(Box<BatchQuality<'static>>),
}

impl RecoveredState {
    /// The recovered database version.
    pub fn database(&self) -> &RankedDatabase {
        match self {
            RecoveredState::Idle(db) => db,
            RecoveredState::Live(batch) => batch.database(),
        }
    }
}

/// One session rebuilt from the log.
#[derive(Debug)]
pub struct RecoveredSession {
    /// The session's id (as originally assigned by the server).
    pub id: u64,
    /// Budget units one probe costs.
    pub probe_cost: u64,
    /// Probability that one probe succeeds.
    pub probe_success: f64,
    /// Registered queries, in registration order.
    pub specs: Vec<WeightedQuery>,
    /// Total probes ever applied (checkpointed + replayed).
    pub probes: u64,
    /// Probes replayed from the log during this recovery (excludes those
    /// already baked into a checkpoint snapshot).
    pub probes_replayed: u64,
    /// How the replayed delta passes produced their rows.
    pub replay_stats: DeltaStats,
    /// The recovered evaluation state.
    pub state: RecoveredState,
}

/// What [`Store::open`] rebuilt from the directory.
#[derive(Debug)]
pub struct Recovery {
    /// Recovered sessions, ascending by id.
    pub sessions: Vec<RecoveredSession>,
    /// The smallest session id the server may assign next (one past the
    /// largest id the log has ever mentioned).
    pub next_session_id: u64,
    /// Valid records replayed from the log.
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

/// How the store's flusher batches fsyncs.  Every store group-commits:
/// a dedicated flusher thread fsyncs the log once per window, and an
/// append blocks until a flush covering its record has completed, so an
/// acknowledged append is durable — only the fsync count amortizes
/// across concurrent appenders.  The default (batch 64, no linger) is
/// what `pdb serve` runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FlushPolicy {
    /// Batch concurrent appends into one fsync per window.
    GroupCommit {
        /// Flush as soon as this many unsynced records are pending.
        max_batch: usize,
        /// Optional linger: keep collecting up to this long after pending
        /// records were first observed before flushing, trading commit
        /// latency for fuller batches.  Zero — the recommended setting —
        /// flushes as soon as the device is free; batches still form from
        /// the records that accrue *while* the previous fsync runs, so on
        /// a fast device a linger only taxes every commit (the same
        /// reason PostgreSQL ships `commit_delay = 0`).
        max_wait: Duration,
    },
}

impl Default for FlushPolicy {
    fn default() -> Self {
        FlushPolicy::GroupCommit { max_batch: 64, max_wait: Duration::ZERO }
    }
}

/// State shared between group-commit appenders and the flusher thread.
/// `dirty`/`synced` are monotone record counts: an append registers
/// `dirty += 1` only *after* its frame is fully written, so a flush that
/// read `target = dirty` and then fsync'd covers every registered record.
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
    /// Set by [`Store::drop`]; the flusher drains pending work and exits.
    shutdown: bool,
}

#[derive(Debug)]
struct FlushShared {
    state: Mutex<FlushState>,
    /// Signalled by appenders when a record becomes pending.
    work: Condvar,
    /// Signalled by the flusher when `synced` advances or `error` is set.
    done: Condvar,
}

impl FlushShared {
    fn state(&self) -> MutexGuard<'_, FlushState> {
        // The guarded state is a handful of scalars with no multi-field
        // invariant a panicking holder could tear; recover the guard.
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// The group-commit flusher: one background thread fsync'ing the log once
/// per window on behalf of every concurrent appender.
#[derive(Debug)]
struct Flusher {
    shared: Arc<FlushShared>,
    handle: Option<std::thread::JoinHandle<()>>,
}

/// A durable session store rooted at one directory.
#[derive(Debug)]
pub struct Store {
    dir: PathBuf,
    wal: Arc<Mutex<Wal>>,
    snapshot_seq: AtomicU64,
    records_since_truncate: AtomicU64,
    flusher: Flusher,
    /// Holds the OS advisory lock on [`LOCK_FILE`] for the store's
    /// lifetime (released automatically when the handle closes, so a
    /// killed process never leaves a stale lock behind).
    _lock: fs::File,
}

/// Builder callback materializing a [`DatasetSpec`] (dependency-inverted:
/// the generators live in `pdb-gen`, above this crate).
pub type DatasetBuilder<'a> = dyn Fn(&DatasetSpec) -> DbResult<RankedDatabase> + 'a;

impl Store {
    /// Open (or create) the store directory, replay the log, and return
    /// the store plus everything it recovered.  `build` materializes the
    /// dataset specs journalled by `create_session` records (pass
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
    /// flusher thread that batches fsyncs.
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
        let wal = Arc::new(Mutex::new(wal));
        let flusher = spawn_flusher(dir, Arc::clone(&wal), max_batch, max_wait)?;
        let snapshot_seq = max_snapshot_seq(dir)?;
        let store = Self {
            dir: dir.to_path_buf(),
            wal,
            snapshot_seq: AtomicU64::new(snapshot_seq),
            // Count the records the log already holds: a server that is
            // restarted more often than it appends `compact_every`
            // records would otherwise never reach its auto-compaction
            // threshold, and the log would grow without bound across
            // restarts.
            records_since_truncate: AtomicU64::new(replay.records.len() as u64),
            flusher,
            _lock: lock,
        };
        let recovery = replay_records(dir, replay.records, replay.truncated_bytes, build)?;
        Ok((store, recovery))
    }

    /// Read-only recovery preview (the dry run behind `pdb recover`):
    /// scan and replay the log **without** creating the directory,
    /// writing a header, or truncating a torn tail on disk.  The torn
    /// tail a real [`open`](Self::open) would truncate is only
    /// *reported*, via [`Recovery::truncated_bytes`].
    pub fn peek(dir: &Path, build: &DatasetBuilder<'_>) -> Result<Recovery> {
        let path = dir.join(WAL_FILE);
        let bytes = fs::read(&path).map_err(|e| StoreError::io("reading", &path, e))?;
        let (records, valid_len) = crate::wal::scan(&bytes, &path)?;
        replay_records(dir, records, (bytes.len() - valid_len) as u64, build)
    }

    /// The store's root directory.
    pub fn dir(&self) -> &Path {
        &self.dir
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
        self.flusher.wait_durable(&self.dir)?;
        self.records_since_truncate.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    /// Completed group-commit flush windows.  Under concurrency this
    /// stays well below the append count — the whole point of group
    /// commit.
    pub fn flushes(&self) -> u64 {
        self.flusher.shared.state().flushes
    }

    /// The flusher's sticky fsync failure, if one has happened (`None`
    /// on a healthy log).  Once set, the log has fail-stopped: every
    /// waiting and future append errors.  Surfaced through
    /// `stats`/`metrics` so operators see the degradation before the
    /// next write trips over it.
    pub fn flush_error(&self) -> Option<String> {
        self.flusher.shared.state().error.clone()
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
            let mut state = self.flusher.shared.state();
            state.synced = state.synced.max(state.dirty);
            self.flusher.shared.done.notify_all();
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

impl Drop for Store {
    fn drop(&mut self) {
        let flusher = &mut self.flusher;
        flusher.shared.state().shutdown = true;
        flusher.shared.work.notify_all();
        flusher.shared.done.notify_all();
        if let Some(handle) = flusher.handle.take() {
            // The flusher drains pending work before exiting; a
            // panicked flusher already left the sticky error set.
            // pdb-analyze: allow(error-swallow): drop path; a panicked flusher already fail-stopped every waiter via the sticky error
            let _ = handle.join();
        }
    }
}

impl Flusher {
    /// Register one fully framed record and block until a flush covers
    /// it.  Must be called *after* [`Wal::append`] returned — the
    /// dirty count's meaning is "frames completely in the file".
    fn wait_durable(&self, dir: &Path) -> Result<()> {
        let mut state = self.shared.state();
        state.dirty += 1;
        let seq = state.dirty;
        self.shared.work.notify_one();
        while state.synced < seq {
            if let Some(why) = &state.error {
                return Err(StoreError::io(
                    "syncing",
                    dir,
                    std::io::Error::other(format!("group-commit flush failed: {why}")),
                ));
            }
            state = self.shared.done.wait(state).unwrap_or_else(PoisonError::into_inner);
        }
        Ok(())
    }
}

/// Start the group-commit flusher thread.
fn spawn_flusher(
    dir: &Path,
    wal: Arc<Mutex<Wal>>,
    max_batch: usize,
    max_wait: Duration,
) -> Result<Flusher> {
    let shared = Arc::new(FlushShared {
        state: Mutex::new(FlushState::default()),
        work: Condvar::new(),
        done: Condvar::new(),
    });
    let thread_shared = Arc::clone(&shared);
    let log_path = dir.join(WAL_FILE);
    let handle = std::thread::Builder::new()
        .name("pdb-store-flusher".to_string())
        .spawn(move || flusher_loop(&wal, &thread_shared, max_batch as u64, max_wait, &log_path))
        .map_err(|e| StoreError::io("spawning the flusher for", dir, e))?;
    Ok(Flusher { shared, handle: Some(handle) })
}

/// The flusher: wait for pending records, optionally linger for a fuller
/// batch (`max_wait` — zero skips the linger entirely), fsync once,
/// advance `synced`, repeat.  One fsync covers every record registered
/// before `target` was read, because a record's frame is completely
/// written before its registration.
fn flusher_loop(
    wal: &Mutex<Wal>,
    shared: &FlushShared,
    max_batch: u64,
    max_wait: Duration,
    log_path: &Path,
) {
    loop {
        let target = {
            let mut state = shared.state();
            loop {
                if state.dirty > state.synced {
                    break;
                }
                if state.shutdown {
                    return;
                }
                state = shared.work.wait(state).unwrap_or_else(PoisonError::into_inner);
            }
            let window = Instant::now();
            while !max_wait.is_zero() && state.dirty - state.synced < max_batch && !state.shutdown {
                let Some(remaining) = max_wait.checked_sub(window.elapsed()) else { break };
                let (next, timeout) = shared
                    .work
                    .wait_timeout(state, remaining)
                    .unwrap_or_else(PoisonError::into_inner);
                state = next;
                if timeout.timed_out() {
                    break;
                }
            }
            state.dirty
        };
        // fsync on a duplicated handle, *outside* the log lock: appenders
        // keep framing records while the sync runs, and those records
        // become the next batch.
        let handle = {
            let guard = wal.lock().unwrap_or_else(PoisonError::into_inner);
            guard.sync_handle()
        };
        let fsync_span = pdb_obs::metrics::WAL_FSYNC_LATENCY_NS.span();
        let result = handle
            .and_then(|file| file.sync_data().map_err(|e| StoreError::io("syncing", log_path, e)));
        fsync_span.finish();
        let mut state = shared.state();
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
        shared.done.notify_all();
    }
}

/// Replay scanned records into recovered sessions (checkpoint snapshots
/// are loaded relative to `dir`).
fn replay_records(
    dir: &Path,
    records: Vec<WalRecord>,
    truncated_bytes: u64,
    build: &DatasetBuilder<'_>,
) -> Result<Recovery> {
    let mut sessions: BTreeMap<u64, SessionBuild> = BTreeMap::new();
    let mut max_id = 0u64;
    let total = records.len() as u64;
    for (index, record) in records.into_iter().enumerate() {
        let index = index as u64;
        max_id = max_id.max(record.session());
        match record {
            WalRecord::CreateSession { session, dataset, probe_cost, probe_success } => {
                let db = build(&dataset)
                    .map_err(|source| StoreError::Replay { record: index, source })?;
                sessions.insert(session, SessionBuild::new(db, probe_cost, probe_success));
            }
            WalRecord::RegisterQuery { session, query, weight } => {
                let s = lookup(&mut sessions, session, index)?;
                s.flush()?;
                s.specs.push(WeightedQuery::weighted(query, weight));
                s.replan(index)?;
            }
            WalRecord::ApplyProbe { session, x_tuple, mutation }
            | WalRecord::ApplyMutation { session, x_tuple, mutation } => {
                let s = lookup(&mut sessions, session, index)?;
                s.pending.push((index, x_tuple, mutation));
                s.probes += 1;
                s.probes_replayed += 1;
            }
            WalRecord::DropSession { session } => {
                sessions.remove(&session);
            }
            WalRecord::Checkpoint {
                session,
                snapshot,
                probe_cost,
                probe_success,
                specs,
                probes,
            } => {
                let db = Snapshot::read(&dir.join(&snapshot))?;
                // The snapshot already contains every earlier record's
                // effect, including buffered probes: start over from it.
                let mut s = SessionBuild::new(db, probe_cost, probe_success);
                s.specs = specs;
                s.probes = probes;
                s.replan(index)?;
                sessions.insert(session, s);
            }
        }
    }

    let mut recovered = Vec::with_capacity(sessions.len());
    for (id, mut s) in sessions {
        s.flush()?;
        recovered.push(s.finish(id));
    }
    Ok(Recovery {
        sessions: recovered,
        next_session_id: max_id + 1,
        records: total,
        truncated_bytes,
    })
}

/// Look up a session during replay; a record naming an unknown session
/// means the log is internally inconsistent.
fn lookup(
    sessions: &mut BTreeMap<u64, SessionBuild>,
    session: u64,
    record: u64,
) -> Result<&mut SessionBuild> {
    sessions.get_mut(&session).ok_or_else(|| StoreError::Replay {
        record,
        source: DbError::invalid_parameter(format!(
            "log references session {session} before creating it"
        )),
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

/// Replay-time accumulator for one session.
struct SessionBuild {
    probe_cost: u64,
    probe_success: f64,
    specs: Vec<WeightedQuery>,
    state: RecoveredState,
    /// Probe records not yet folded into `state`, as
    /// `(record index, x-tuple, mutation)`.
    pending: Vec<(u64, usize, XTupleMutation)>,
    probes: u64,
    probes_replayed: u64,
    stats: DeltaStats,
}

impl SessionBuild {
    fn new(db: RankedDatabase, probe_cost: u64, probe_success: f64) -> Self {
        Self {
            probe_cost,
            probe_success,
            specs: Vec::new(),
            state: RecoveredState::Idle(db),
            pending: Vec::new(),
            probes: 0,
            probes_replayed: 0,
            stats: DeltaStats::default(),
        }
    }

    /// Fold the buffered probes into the live evaluation: one delta pass
    /// per probe.  The live server refuses a mutation before the first
    /// `register_query`, so a log holding one for an idle session was not
    /// written by it, and replay rejects it the same way.
    fn flush(&mut self) -> Result<()> {
        let Some(&(first, ..)) = self.pending.first() else { return Ok(()) };
        let pending = std::mem::take(&mut self.pending);
        let RecoveredState::Live(batch) = &mut self.state else {
            return Err(StoreError::Replay {
                record: first,
                source: DbError::invalid_parameter(
                    "mutation for a session with no registered query",
                ),
            });
        };
        let update = batch
            .replay_in_place(pending.into_iter().map(|(_, l, m)| (l, m)))
            .map_err(|source| StoreError::Replay { record: first, source })?;
        self.stats.accumulate(&update.stats);
        Ok(())
    }

    /// Re-plan the shared evaluation over the current database — exactly
    /// what live `register_query` does (and what a checkpoint load needs
    /// when queries were registered).
    fn replan(&mut self, at_record: u64) -> Result<()> {
        if self.specs.is_empty() {
            return Ok(());
        }
        let db = self.state.database().clone();
        let batch = BatchQuality::from_owned(db, self.specs.clone())
            .map_err(|source| StoreError::Replay { record: at_record, source })?;
        self.state = RecoveredState::Live(Box::new(batch));
        Ok(())
    }

    fn finish(self, id: u64) -> RecoveredSession {
        RecoveredSession {
            id,
            probe_cost: self.probe_cost,
            probe_success: self.probe_success,
            specs: self.specs,
            probes: self.probes,
            probes_replayed: self.probes_replayed,
            replay_stats: self.stats,
            state: self.state,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
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

    #[test]
    fn create_register_probe_replays_to_the_mutated_state() {
        let dir = temp_store("basic");
        {
            let (store, recovery) = Store::open(&dir, &build).unwrap();
            assert!(recovery.sessions.is_empty());
            assert_eq!(recovery.next_session_id, 1);
            store.append(&create1()).unwrap();
            store.append(&pt2()).unwrap();
            store.append(&probe1()).unwrap();
        }

        let (_, recovery) = Store::open(&dir, &build).unwrap();
        assert_eq!(recovery.records, 3);
        assert_eq!(recovery.truncated_bytes, 0);
        assert_eq!(recovery.next_session_id, 2);
        let session = &recovery.sessions[0];
        assert_eq!((session.id, session.probes, session.probes_replayed), (1, 1, 1));
        assert!(session.replay_stats.rows_total() > 0, "probe replayed via delta pass");

        // The recovered state matches replaying the same steps in process.
        let mut mirror = BatchQuality::from_owned(
            udb1(),
            vec![WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 })],
        )
        .unwrap();
        mirror
            .apply_collapse_in_place(2, &XTupleMutation::CollapseToAlternative { keep_pos: 2 })
            .unwrap();
        let RecoveredState::Live(batch) = &session.state else { panic!("live session") };
        assert_eq!(batch.database(), mirror.database());
        assert!((batch.aggregate_quality() - mirror.aggregate_quality()).abs() < 1e-12);
        assert!((batch.aggregate_quality() - (-1.85)).abs() < 0.005, "udb1 → udb2");
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
        let mut live = BatchQuality::from_owned(
            udb1(),
            vec![WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 })],
        )
        .unwrap();
        live.apply_collapse_in_place(2, &XTupleMutation::CollapseToAlternative { keep_pos: 2 })
            .unwrap();
        let name = store
            .checkpoint(&SessionCheckpoint {
                session: 1,
                db: live.database().clone(),
                specs: vec![WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 })],
                probe_cost: 1,
                probe_success: 0.8,
                probes: 1,
            })
            .unwrap();
        assert!(dir.join(&name).exists());

        // A probe after the checkpoint must survive compaction.
        store
            .append(&WalRecord::ApplyProbe {
                session: 1,
                x_tuple: 0,
                mutation: XTupleMutation::Reweight { probs: vec![0.5, 0.5] },
            })
            .unwrap();
        let stats = store.truncate_log().unwrap();
        assert_eq!(stats.records_before, 5);
        assert_eq!(stats.records_after, 2, "checkpoint + post-checkpoint probe");
        assert_eq!(store.records_since_truncate(), 0);

        drop(store);
        let (_, recovery) = Store::open(&dir, &build).unwrap();
        let session = &recovery.sessions[0];
        assert_eq!(session.probes, 2, "checkpointed probe count + replayed probe");
        assert_eq!(session.probes_replayed, 1, "only the post-checkpoint probe replays");
        // Mirror: checkpointed state + the reweight.
        live.apply_collapse_in_place(0, &XTupleMutation::Reweight { probs: vec![0.5, 0.5] })
            .unwrap();
        assert_eq!(session.state.database(), live.database());
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
        assert_eq!(recovery.sessions[0].id, 2);
        assert!(matches!(recovery.sessions[0].state, RecoveredState::Idle(_)));
        // Ids never regress below what the log has seen — session 2 is
        // the highest surviving mention after compaction.
        assert!(recovery.next_session_id >= 3);
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
        assert_eq!(recovery.next_session_id, 3, "ids must never regress to a dropped session's id");
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
    fn a_mutation_for_a_session_without_a_query_fails_replay() {
        let dir = temp_store("idle-mutation");
        let (store, _) = Store::open(&dir, &build).unwrap();
        store.append(&create1()).unwrap();
        // No register_query first: the live server refuses this mutation,
        // so a log holding it was written by hand.
        store.append(&probe1()).unwrap();
        drop(store);
        let err = Store::open(&dir, &build).unwrap_err();
        assert!(matches!(err, StoreError::Replay { record: 1, .. }), "{err}");
        assert!(err.to_string().contains("no registered query"), "{err}");
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

        // The recovered session is the same steps applied in process.
        let (_, recovery) = Store::open(&dir, &build).unwrap();
        assert_eq!(recovery.records, 3);
        assert_eq!(recovery.sessions.len(), 1);
        let session = &recovery.sessions[0];
        assert_eq!((session.id, session.probes), (1, 1));
        let mut mirror = BatchQuality::from_owned(
            udb1(),
            vec![WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 })],
        )
        .unwrap();
        mirror
            .apply_collapse_in_place(2, &XTupleMutation::CollapseToAlternative { keep_pos: 2 })
            .unwrap();
        let RecoveredState::Live(batch) = &session.state else { panic!("live session") };
        assert_eq!(batch.database(), mirror.database());
        assert_eq!(batch.answers().unwrap(), mirror.answers().unwrap());
        assert!((batch.aggregate_quality() - mirror.aggregate_quality()).abs() < 1e-12);
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
        // Replay applies mutations only to a session with a query, like
        // the live server.
        store.append(&pt2()).unwrap();

        let store = std::sync::Arc::new(store);
        let threads: Vec<_> = (0..4)
            .map(|_| {
                let store = std::sync::Arc::clone(&store);
                std::thread::spawn(move || {
                    for _ in 0..16 {
                        store
                            .append(&WalRecord::ApplyProbe {
                                session: 1,
                                x_tuple: 0,
                                mutation: XTupleMutation::Reweight { probs: vec![0.5, 0.5] },
                            })
                            .unwrap();
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
        assert_eq!(recovery.sessions[0].probes, 64);
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
        let mut live = BatchQuality::from_owned(
            udb1(),
            vec![WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 })],
        )
        .unwrap();
        live.apply_collapse_in_place(2, &XTupleMutation::CollapseToAlternative { keep_pos: 2 })
            .unwrap();
        store
            .checkpoint(&SessionCheckpoint {
                session: 1,
                db: live.database().clone(),
                specs: vec![WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 })],
                probe_cost: 1,
                probe_success: 0.8,
                probes: 1,
            })
            .unwrap();
        let stats = store.truncate_log().unwrap();
        assert_eq!(stats.records_after, 1, "checkpoint survives");
        // Appends keep working (and keep being acknowledged) after the
        // rewrite advanced the synced watermark.
        store
            .append(&WalRecord::ApplyProbe {
                session: 1,
                x_tuple: 0,
                mutation: XTupleMutation::Reweight { probs: vec![0.5, 0.5] },
            })
            .unwrap();
        drop(store);
        let (_, recovery) = Store::open(&dir, &build).unwrap();
        assert_eq!(recovery.sessions[0].probes, 2);
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
