//! Persistent evaluation sessions and the map that holds them.
//!
//! A [`Session`] pins one database together with a live
//! [`BatchQuality`] evaluation: the paper's adaptive-cleaning loop is
//! stateful (each probe outcome must be folded into the evaluation it was
//! planned from), so the server keeps the shared PSR run alive across
//! requests instead of rebuilding the world per call.  A mutation is then
//! one O(k_max)-per-affected-row delta pass shared by every registered
//! query — never a full PSR rebuild.
//!
//! The [`SessionManager`] keeps its `session-id → session` map behind one
//! [`RwLock`].  A request holds the map's read lock only long enough to
//! clone one session's `Arc`, and each session sits behind its own
//! [`Mutex`], so one slow evaluation blocks only its own session — the
//! map, and every other session, stay available.  No map guard is ever
//! live while a session lock is taken (pdb-analyze's `lock-order` lint
//! checks this).
//!
//! A `Session` is also the only code that turns a journalled record into
//! evaluation state.  On startup the store hands each session back as a
//! base state (its dataset or last checkpoint) plus the records
//! journalled after it, and [`Session::replay`] folds every one of them
//! in through [`Session::register_query`] and [`Session::apply_mutation`]
//! — the calls a live request runs — so from its base on, a recovered
//! session repeats the live replies bit for bit.  (A checkpoint base
//! with queries is re-planned by a fresh PSR run, which agrees with the
//! live delta-patched state to rounding, not bit for bit.)
//!
//! [`SessionIds`] allocates session ids for a server and for the fleet
//! router alike.

use crate::protocol::{
    Answers, ApplyMutation, CreateSession, Persisted, ProbeAdvice, ProbeApplied,
    ProbeRecommendation, QualityReport, QueryRegistered, RegisterQuery, SessionCreated, SessionRef,
    SessionStat,
};
use pdb_clean::{best_single_probe, CleaningContext, CleaningSetup};
use pdb_core::{DbError, RankedDatabase, Result as DbResult};
use pdb_engine::delta::{DeltaStats, XTupleMutation};
use pdb_gen::spec::build_dataset;
use pdb_gen::MovConfig;
use pdb_obs::metrics as obs;
use pdb_quality::{BatchQuality, WeightedQuery};
use pdb_store::store::{CompactionStats, Recovery, SessionCheckpoint};
use pdb_store::{DatasetSpec, RecoveredSession, Snapshot, Store, StoreError, WalRecord};
use std::collections::hash_map::{Entry, HashMap};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Instant;

/// The most tuples a `create_session` may ask a generator for, so no
/// request can make the server allocate without bound.  Far above
/// anything the experiments, the examples or servebench generate.
const MAX_GENERATED_TUPLES: usize = 10_000_000;

/// The session map: id → the session behind its own lock.
type SessionMap = HashMap<u64, Arc<Mutex<Session>>>;

/// One live session: a database, its cleaning parameters and (once a query
/// is registered) the shared batch evaluation serving every registered
/// query from one PSR run.
#[derive(Debug)]
pub struct Session {
    specs: Vec<WeightedQuery>,
    state: State,
    probe_cost: u64,
    probe_success: f64,
    /// When the session was created (or recovered) in this process.
    created: Instant,
    /// Probes applied over the session's lifetime (survives recovery via
    /// the checkpoint record's counter).
    probes: u64,
    /// Set (under the session's own lock) when the session is dropped,
    /// *before* it leaves the session map: a racing request that already
    /// cloned the session's `Arc` out of the map must not mutate — or
    /// journal records for — a session whose `drop_session` record is
    /// already in the log, or the log becomes unreplayable.
    dropped: bool,
    /// Set when an in-memory mutation succeeded but its journal append
    /// failed: the live state is now *ahead of* the durable log, so a
    /// restart would silently serve different results.  The session
    /// fail-stops (every serving verb errors) until a successful
    /// `persist` re-checkpoints the live state — which makes log and
    /// memory agree again — or the session is dropped.
    journal_fault: Option<String>,
}

/// The evaluation state: until the first query is registered there is
/// nothing to evaluate, so the session only holds the database.  The live
/// evaluation is boxed: it dwarfs the idle variant, and sessions move
/// (into the session map, out of `register_query`) while in either state.
#[derive(Debug)]
enum State {
    /// No registered queries yet.
    Idle(RankedDatabase),
    /// The live shared evaluation (owns the database).
    Live(Box<BatchQuality<'static>>),
}

impl Session {
    fn new(db: RankedDatabase, probe_cost: u64, probe_success: f64) -> DbResult<Self> {
        if probe_cost == 0 {
            return Err(DbError::invalid_parameter("probe_cost must be at least 1"));
        }
        if !(0.0..=1.0).contains(&probe_success) || !probe_success.is_finite() {
            return Err(DbError::InvalidProbability {
                prob: probe_success,
                context: "session probe success probability".to_string(),
            });
        }
        Ok(Self {
            specs: Vec::new(),
            state: State::Idle(db),
            probe_cost,
            probe_success,
            created: Instant::now(),
            probes: 0,
            dropped: false,
            journal_fault: None,
        })
    }

    /// Fail if the session was dropped or its live state diverged from
    /// the durable log.
    fn ensure_journalled(&self) -> DbResult<()> {
        self.ensure_not_dropped()?;
        match &self.journal_fault {
            None => Ok(()),
            Some(fault) => Err(DbError::invalid_parameter(format!(
                "session state diverged from the durable log (journalling failed: {fault}); \
                 send persist to re-checkpoint it, or drop_session"
            ))),
        }
    }

    /// Fail if the session was dropped (it may still be reachable through
    /// an `Arc` cloned out of the session map before the removal).
    pub(crate) fn ensure_not_dropped(&self) -> DbResult<()> {
        if self.dropped {
            return Err(DbError::invalid_parameter("session was dropped"));
        }
        Ok(())
    }

    /// Mark the session dropped (called under its lock, after the drop
    /// record is journalled or its create record failed to be, and
    /// before the session-map removal).
    pub(crate) fn mark_dropped(&mut self) {
        self.dropped = true;
    }

    /// Record a journal-append failure (see `journal_fault`).
    pub(crate) fn set_journal_fault(&mut self, fault: impl Into<String>) {
        self.journal_fault = Some(fault.into());
    }

    /// A successful checkpoint captured the live state into the store:
    /// log and memory agree again.
    pub(crate) fn clear_journal_fault(&mut self) {
        self.journal_fault = None;
    }

    /// Rebuild a session from a checkpointed state — the inverse of
    /// [`checkpoint_state`](Self::checkpoint_state).  The parameters are
    /// validated like a new session's, and a base with queries is
    /// re-planned once, as live registration does.
    pub fn from_checkpoint(checkpoint: SessionCheckpoint) -> DbResult<Self> {
        let SessionCheckpoint { db, specs, probe_cost, probe_success, probes, .. } = checkpoint;
        let mut session = Self::new(db, probe_cost, probe_success)?;
        if !specs.is_empty() {
            let batch = BatchQuality::from_owned(session.database().clone(), specs.clone())?;
            session.state = State::Live(Box::new(batch));
        }
        session.specs = specs;
        session.probes = probes;
        Ok(session)
    }

    /// Rebuild one recovered session: start from its base and fold every
    /// tail record in through the live request path.  Returns the
    /// session, the number of replayed mutations and their summed delta
    /// statistics.  A record that fails is a [`StoreError::Replay`]
    /// naming it.
    pub fn replay(recovered: RecoveredSession) -> pdb_store::Result<(Self, u64, DeltaStats)> {
        let RecoveredSession { base, base_record, tail } = recovered;
        let mut session = Self::from_checkpoint(base)
            .map_err(|source| StoreError::Replay { record: base_record, source })?;
        let (mut mutations, mut stats) = (0, DeltaStats::default());
        for (record, entry) in tail {
            let applied = session
                .replay_record(entry)
                .map_err(|source| StoreError::Replay { record, source })?;
            if let Some(applied) = applied {
                mutations += 1;
                stats.accumulate(&applied.update.stats);
            }
        }
        Ok((session, mutations, stats))
    }

    /// Fold one journalled tail record into the session through the call
    /// its live request ran, returning a mutation's reply.
    fn replay_record(&mut self, record: WalRecord) -> DbResult<Option<ProbeApplied>> {
        match record {
            WalRecord::RegisterQuery { session, query, weight } => {
                self.register_query(&RegisterQuery { session, query, weight })?;
                Ok(None)
            }
            WalRecord::ApplyProbe { session, x_tuple, mutation }
            | WalRecord::ApplyMutation { session, x_tuple, mutation } => {
                // The live path resolves an insert's target itself; the
                // journalled one must be the index it resolved to.
                let target = self.mutation_target(&mutation, x_tuple);
                if target != x_tuple {
                    return Err(DbError::invalid_parameter(format!(
                        "inserts are append-only: target x-index {x_tuple} must equal the \
                         x-tuple count {target}"
                    )));
                }
                self.apply_mutation(&ApplyMutation::new(session, x_tuple, mutation)).map(Some)
            }
            other => {
                Err(DbError::internal(format!("a {other:?} record cannot follow a session's base")))
            }
        }
    }

    /// The session's per-session counters for the `stats` verb.
    pub fn stat(&self, id: u64) -> SessionStat {
        SessionStat {
            session: id,
            age_ms: self.created.elapsed().as_millis() as u64,
            queries: self.specs.len(),
            probes: self.probes,
        }
    }

    /// The session's full durable state (cloned), as a checkpoint for the
    /// store.
    pub fn checkpoint_state(&self, id: u64) -> SessionCheckpoint {
        SessionCheckpoint {
            session: id,
            db: self.database().clone(),
            specs: self.specs.clone(),
            probe_cost: self.probe_cost,
            probe_success: self.probe_success,
            probes: self.probes,
        }
    }

    /// The session's current database version.
    pub fn database(&self) -> &RankedDatabase {
        match &self.state {
            State::Idle(db) => db,
            State::Live(batch) => batch.database(),
        }
    }

    fn live(&self) -> DbResult<&BatchQuality<'static>> {
        match &self.state {
            State::Live(batch) => Ok(batch),
            State::Idle(_) => Err(DbError::invalid_parameter(
                "session has no registered queries yet; send register_query first",
            )),
        }
    }

    fn live_mut(&mut self) -> DbResult<&mut BatchQuality<'static>> {
        match &mut self.state {
            State::Live(batch) => Ok(batch),
            State::Idle(_) => Err(DbError::invalid_parameter(
                "session has no registered queries yet; send register_query first",
            )),
        }
    }

    /// Register one weighted query: the query set is re-planned and the
    /// shared PSR run re-executed at the (possibly new) `k_max`.
    /// Registration is the expensive, rare operation; probes stay on the
    /// delta path.
    pub fn register_query(&mut self, req: &RegisterQuery) -> DbResult<QueryRegistered> {
        self.ensure_journalled()?;
        let mut specs = self.specs.clone();
        specs.push(WeightedQuery::weighted(req.query, req.weight));
        let db = self.database().clone();
        let batch = BatchQuality::from_owned(db, specs.clone())?;
        let registered = QueryRegistered {
            session: req.session,
            index: specs.len() - 1,
            k_max: batch.evaluation().k_max(),
        };
        self.specs = specs;
        self.state = State::Live(Box::new(batch));
        Ok(registered)
    }

    /// Answer every registered query from the shared matrix.
    pub fn evaluate(&self) -> DbResult<Answers> {
        self.ensure_journalled()?;
        Ok(Answers { answers: self.live()?.answers()? })
    }

    /// Per-query and aggregate quality plus the aggregate decomposition.
    pub fn quality(&self) -> DbResult<QualityReport> {
        self.ensure_journalled()?;
        let batch = self.live()?;
        Ok(QualityReport {
            qualities: batch.quality_vector(),
            weights: batch.weights().to_vec(),
            aggregate: batch.aggregate_quality(),
            g: batch.aggregate_breakdown(),
        })
    }

    /// The cleaning setup of the current database version (uniform probe
    /// cost / success, re-derived so it always matches the x-tuple count —
    /// null collapses shrink the database).
    fn cleaning_setup(&self) -> DbResult<CleaningSetup> {
        CleaningSetup::uniform(self.database().num_x_tuples(), self.probe_cost, self.probe_success)
    }

    /// The single probe maximizing the expected aggregate improvement.
    pub fn recommend_probe(&self) -> DbResult<ProbeAdvice> {
        self.ensure_journalled()?;
        let batch = self.live()?;
        let ctx = CleaningContext::from_batch(batch);
        let setup = self.cleaning_setup()?;
        let recommendation = best_single_probe(&ctx, &setup)
            .map(|(x_tuple, expected_gain)| ProbeRecommendation { x_tuple, expected_gain });
        Ok(ProbeAdvice { recommendation })
    }

    /// The x-tuple index a mutation actually targets: an
    /// [`XTupleMutation::Insert`] is append-only, so its target is always
    /// the *current* x-tuple count (clients cannot know it; the wire
    /// `x_tuple` field is ignored for inserts); every other mutation
    /// targets the index named on the wire.  The manager journals this
    /// resolved index, which keeps WAL replay deterministic.
    pub fn mutation_target(&self, mutation: &XTupleMutation, x_tuple: usize) -> usize {
        match mutation {
            XTupleMutation::Insert { .. } => self.database().num_x_tuples(),
            _ => x_tuple,
        }
    }

    /// Fold one mutation — a probe outcome or a streaming insert/remove —
    /// into the session: one in-place delta pass on the live evaluation.
    pub fn apply_mutation(&mut self, req: &ApplyMutation) -> DbResult<ProbeApplied> {
        self.ensure_journalled()?;
        let l = self.mutation_target(&req.mutation, req.x_tuple);
        let update = self.live_mut()?.apply_collapse_in_place(l, &req.mutation)?;
        self.probes += 1;
        Ok(ProbeApplied::new(req.session, update))
    }
}

/// The session-id allocator of a server or a fleet router.  The first
/// id is 1, and an id is handed out or pinned only if it has a
/// successor, so the counter never overflows and never hands out an id
/// twice; once the next id would be `u64::MAX`, every allocation fails.
#[derive(Debug)]
pub struct SessionIds {
    /// The next id to hand out.
    next: AtomicU64,
}

impl SessionIds {
    /// An allocator whose next id is `next` (`None`: no id is left, as
    /// when a recovered log names `u64::MAX`).
    pub fn starting_at(next: Option<u64>) -> Self {
        Self { next: AtomicU64::new(next.unwrap_or(u64::MAX).max(1)) }
    }

    /// The id the next [`allocate`](Self::allocate) hands out (`None`:
    /// no id is left).
    pub fn next_id(&self) -> Option<u64> {
        Some(self.next.load(Ordering::Relaxed)).filter(|&next| next != u64::MAX)
    }

    /// The next free id.
    pub fn allocate(&self) -> DbResult<u64> {
        self.next
            .fetch_update(Ordering::Relaxed, Ordering::Relaxed, |id| id.checked_add(1))
            .map_err(|_| DbError::invalid_parameter("no session id is left to allocate"))
    }

    /// Accept a client-pinned id and keep later allocations above it.
    /// Id 0 is reserved, and so is `u64::MAX`, which has no successor.
    pub fn pin(&self, id: u64) -> DbResult<u64> {
        match id.checked_add(1) {
            Some(next) if id != 0 => {
                self.next.fetch_max(next, Ordering::Relaxed);
                Ok(id)
            }
            _ => Err(DbError::invalid_parameter(format!("session id {id} is reserved"))),
        }
    }
}

/// Counters a [`SessionManager`] maintains for the `stats` verb.
#[derive(Debug, Default)]
struct Counters {
    live: AtomicU64,
    created: AtomicU64,
    probes: AtomicU64,
}

/// The session store.
///
/// One `RwLock<HashMap<..>>` holds every session; a lookup only takes the
/// *read* side, so lookups proceed in parallel.  Sessions are handed out
/// as `Arc<Mutex<Session>>` clones: the map lock is released before the
/// session lock is taken, so a long-running evaluation never blocks the
/// store.
#[derive(Debug)]
pub struct SessionManager {
    sessions: RwLock<SessionMap>,
    ids: SessionIds,
    counters: Counters,
    /// Set while a compaction runs: a mutation that reaches the
    /// threshold meanwhile skips compacting instead of waiting.
    compacting: AtomicBool,
    /// The durable store, when the server runs with `--store-dir`: every
    /// session-mutating request is journalled into it (under the
    /// session's own lock, so a session's records and its in-memory
    /// state always agree in order).
    store: Option<Store>,
    /// Auto-compaction threshold: the mutation that finds this many
    /// records in the log since its last truncation checkpoints every
    /// session and truncates the log before it replies (0 disables
    /// auto-compaction).
    compact_every: u64,
}

impl Default for SessionManager {
    fn default() -> Self {
        Self::new()
    }
}

impl SessionManager {
    /// An empty, in-memory store.
    pub fn new() -> Self {
        Self {
            sessions: RwLock::new(HashMap::new()),
            ids: SessionIds::starting_at(Some(1)),
            counters: Counters::default(),
            compacting: AtomicBool::new(false),
            store: None,
            compact_every: 0,
        }
    }

    /// A manager journalling to `store`, with every session the store
    /// recovered rebuilt by [`Session::replay`].
    pub fn with_store(
        store: Store,
        recovery: Recovery,
        compact_every: u64,
    ) -> pdb_store::Result<Self> {
        let mut manager = Self::new();
        manager.store = Some(store);
        manager.compact_every = compact_every;
        manager.ids = SessionIds::starting_at(recovery.next_session_id);
        for recovered in recovery.sessions {
            let id = recovered.base.session;
            let (session, ..) = Session::replay(recovered)?;
            manager.write_map().insert(id, Arc::new(Mutex::new(session)));
            manager.count_created();
        }
        Ok(manager)
    }

    /// The durable store backing this manager, if any.
    pub fn store(&self) -> Option<&Store> {
        self.store.as_ref()
    }

    /// Sessions currently live.
    pub fn sessions_live(&self) -> u64 {
        self.counters.live.load(Ordering::Relaxed)
    }

    /// Sessions created since the store was built.
    pub fn sessions_created(&self) -> u64 {
        self.counters.created.load(Ordering::Relaxed)
    }

    /// Probes applied across all sessions.
    pub fn probes_applied(&self) -> u64 {
        self.counters.probes.load(Ordering::Relaxed)
    }

    /// The id the next unpinned `create_session` gets (`None`: no id is
    /// left).  A recovered manager starts above every id its log names.
    pub fn next_session_id(&self) -> Option<u64> {
        self.ids.next_id()
    }

    /// Lock the session map for reading, recovering from poisoning.  The
    /// only code that ever runs under the map lock is a `HashMap`
    /// get/insert/remove/key scan — none of which can leave the map
    /// observably torn when a panic unwinds through them — so a poisoned
    /// map recovers its guard instead of condemning every future request.
    fn read_map(&self) -> RwLockReadGuard<'_, SessionMap> {
        self.sessions.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// Lock the session map for writing (same poisoning argument as
    /// [`read_map`](Self::read_map)).
    fn write_map(&self) -> RwLockWriteGuard<'_, SessionMap> {
        self.sessions.write().unwrap_or_else(PoisonError::into_inner)
    }

    /// Count one more live session.
    fn count_created(&self) {
        self.counters.live.fetch_add(1, Ordering::Relaxed);
        self.counters.created.fetch_add(1, Ordering::Relaxed);
    }

    /// Create a session over the requested dataset (journalled when a
    /// store is attached).
    ///
    /// The new session enters the map already locked, and stays locked
    /// until its create record is appended: session ids are predictable,
    /// so a concurrent request for the id waits for that record instead
    /// of journalling ahead of it (a log no recovery could replay).  On
    /// append failure the session is marked dropped and removed, and its
    /// id is burned.
    ///
    /// A request may pin an explicit session id (`req.session`): a fleet
    /// router allocates ids fleet-wide so every shard agrees on them, and
    /// a shard must honor the router's choice.  A pinned id that already
    /// exists or that [`SessionIds::pin`] reserves is an error, and the
    /// local allocator is bumped past every pinned id so locally
    /// allocated ids never collide with routed ones.
    pub fn create(&self, req: &CreateSession) -> DbResult<SessionCreated> {
        let db = build_requested(&req.dataset)?;
        let info = SessionCreated { session: 0, tuples: db.len(), x_tuples: db.num_x_tuples() };
        let handle = Arc::new(Mutex::new(Session::new(db, req.probe_cost, req.probe_success)?));
        // Poisoning recovery: no other thread has seen this lock yet.
        let mut session = handle.lock().unwrap_or_else(PoisonError::into_inner);
        let id = self.insert_vacant(req.session, &handle)?;
        if let Err(err) = self.journal_create(&session, id, req) {
            session.mark_dropped();
            self.write_map().remove(&id);
            return Err(err);
        }
        // Counted under the session's lock: a racing drop_session of this
        // id decrements `live` only after this increment.
        self.count_created();
        Ok(SessionCreated { session: id, ..info })
    }

    /// Insert `handle` under the pinned id, or under the next id the
    /// allocator hands out, as one step under the map's write lock.  A
    /// pinned id that is taken is an error; an allocated id that a racing
    /// pin took draws the next one.
    fn insert_vacant(&self, pinned: Option<u64>, handle: &Arc<Mutex<Session>>) -> DbResult<u64> {
        loop {
            let id = match pinned {
                Some(id) => self.ids.pin(id)?,
                None => self.ids.allocate()?,
            };
            match self.write_map().entry(id) {
                Entry::Vacant(slot) => {
                    slot.insert(Arc::clone(handle));
                    return Ok(id);
                }
                Entry::Occupied(_) if pinned.is_some() => {
                    return Err(DbError::invalid_parameter(format!("session {id} already exists")));
                }
                Entry::Occupied(_) => {}
            }
        }
    }

    /// Journal a new session's base.  A snapshot spec names a file
    /// *outside* the store; the log must never depend on it surviving,
    /// so the data is checkpointed into the store instead of a create
    /// record.
    fn journal_create(&self, session: &Session, id: u64, req: &CreateSession) -> DbResult<()> {
        let Some(store) = &self.store else { return Ok(()) };
        match &req.dataset {
            DatasetSpec::Snapshot { .. } => {
                store.checkpoint(&session.checkpoint_state(id)).map(drop)
            }
            _ => store.append(&WalRecord::CreateSession {
                session: id,
                dataset: req.dataset.clone(),
                probe_cost: req.probe_cost,
                probe_success: req.probe_success,
            }),
        }
        .map_err(DbError::from)
    }

    /// Journal a record for a just-mutated session.  An append failure
    /// leaves the live state ahead of the log, so the session is marked
    /// faulted and fail-stops (see `Session::journal_fault`) instead of
    /// silently serving state a restart would not reproduce.
    fn journal_mutation(&self, s: &mut Session, record: WalRecord) -> DbResult<()> {
        let Some(store) = &self.store else { return Ok(()) };
        store.append(&record).map_err(|err| {
            s.set_journal_fault(err.to_string());
            DbError::invalid_parameter(format!(
                "the request was applied in memory but journalling it failed ({err}); the \
                 session is fail-stopped until a successful persist re-checkpoints it"
            ))
        })
    }

    /// Register a query in a session, journalling on success.  The append
    /// happens under the session's lock, so the log's record order
    /// matches the order the session changed in.
    pub fn register_query(&self, req: &RegisterQuery) -> DbResult<QueryRegistered> {
        self.with_session(req.session, |s| {
            let registered = s.register_query(req)?;
            let record = WalRecord::RegisterQuery {
                session: req.session,
                query: req.query,
                weight: req.weight,
            };
            self.journal_mutation(s, record)?;
            Ok(registered)
        })
    }

    /// Fold one mutation — a probe outcome or a streaming insert/remove —
    /// into a session, journalling the resolved mutation on success
    /// (under the session's lock, like
    /// [`register_query`](Self::register_query)).
    ///
    /// The journalled `x_tuple` is the *resolved* target index (for an
    /// insert, the pre-insert x-tuple count), captured before the
    /// mutation runs so replay re-applies it to the identical database
    /// version.
    ///
    /// Mutations are the records that grow the log with the work done,
    /// so they drive auto-compaction: once the session's lock is
    /// released, a mutation that finds `compact_every` records in the
    /// log since its last truncation, and no compaction running, runs
    /// [`compact`](Self::compact) before it returns.  The mutation is
    /// applied and journalled whatever the compaction's outcome; a
    /// failure is counted as `server_errors_total{class="compaction"}`,
    /// and the next mutation tries again.
    pub fn apply_mutation(&self, req: &ApplyMutation) -> DbResult<ProbeApplied> {
        let applied = self.with_session(req.session, |s| {
            let x_tuple = s.mutation_target(&req.mutation, req.x_tuple);
            let applied = s.apply_mutation(req)?;
            let record = WalRecord::apply_mutation(req.session, x_tuple, req.mutation.clone());
            self.journal_mutation(s, record)?;
            Ok(applied)
        })?;
        self.counters.probes.fetch_add(1, Ordering::Relaxed);
        let due = self.store.as_ref().is_some_and(|store| {
            self.compact_every > 0 && store.records_since_truncate() >= self.compact_every
        });
        if due && !self.compacting.swap(true, Ordering::Acquire) {
            let compacted = self.compact();
            self.compacting.store(false, Ordering::Release);
            if compacted.is_err() {
                obs::SERVER_ERRORS_TOTAL.with("compaction").inc();
            }
        }
        Ok(applied)
    }

    /// Checkpoint one session into the store now (`persist` verb).
    pub fn persist(&self, id: u64) -> DbResult<Persisted> {
        let store = self.store.as_ref().ok_or_else(|| {
            DbError::invalid_parameter(
                "server has no durable store; start it with --store-dir to use persist",
            )
        })?;
        self.with_session(id, |s| {
            s.ensure_not_dropped()?;
            let state = s.checkpoint_state(id);
            let snapshot = store.checkpoint(&state).map_err(DbError::from)?;
            // The checkpoint captured the session's *live* state, so any
            // earlier journal divergence is healed.
            s.clear_journal_fault();
            Ok(Persisted { session: id, snapshot, tuples: state.db.len(), probes: state.probes })
        })
    }

    /// Ids of every live session (a racy snapshot; callers tolerate
    /// sessions vanishing before they get to them).
    fn session_ids(&self) -> Vec<u64> {
        let mut ids: Vec<u64> = self.read_map().keys().copied().collect();
        ids.sort_unstable();
        ids
    }

    /// Per-session counters for the `stats` verb, ascending by id.
    ///
    /// Uses `try_lock` and skips sessions busy in a long evaluation: a
    /// monitoring poll must never hang behind one slow session (the
    /// whole point of per-session locking), so this is a racy snapshot
    /// and a session mid-request may be momentarily absent from it.
    pub fn session_stats(&self) -> Vec<SessionStat> {
        self.session_ids()
            .into_iter()
            .filter_map(|id| {
                let handle = self.session(id).ok()?;
                let stat = handle.try_lock().ok().map(|s| s.stat(id));
                stat
            })
            .collect()
    }

    /// [`persist`](Self::persist) every live session, then truncate the
    /// log.  Records that land concurrently are never lost: each
    /// session's checkpoint is appended under that session's lock, and
    /// the truncation filter only drops records that precede their
    /// session's last checkpoint.
    pub fn compact(&self) -> DbResult<CompactionStats> {
        let store = self.store.as_ref().ok_or_else(|| {
            DbError::invalid_parameter("server has no durable store; nothing to compact")
        })?;
        for id in self.session_ids() {
            // pdb-analyze: allow(error-swallow): a session dropped since the id snapshot refuses its checkpoint (one after its drop record would resurrect it on replay), and a live one whose checkpoint fails keeps its records, which the truncation leaves in the log
            let _ = self.persist(id);
        }
        store.truncate_log().map_err(DbError::from)
    }

    /// Look up a session (the returned handle outlives the map lock).
    pub fn session(&self, id: u64) -> DbResult<Arc<Mutex<Session>>> {
        self.read_map()
            .get(&id)
            .cloned()
            .ok_or_else(|| DbError::invalid_parameter(format!("unknown session {id}")))
    }

    /// Drop a session (journalled, so recovery does not resurrect it).
    ///
    /// The drop record is appended and the session marked dropped under
    /// the session's own lock, *before* it leaves the session map: a
    /// racing request that cloned the session's `Arc` before the removal
    /// then observes the mark and fails instead of journalling records
    /// after the drop record (which would make the log unreplayable).
    /// On append failure nothing is dropped — the session keeps serving
    /// and the client may retry.
    pub fn drop_session(&self, id: u64) -> DbResult<SessionRef> {
        let handle = self.session(id)?;
        {
            // Poisoning recovery is safe here even though the session
            // state may be torn: the drop path only reads/writes the
            // `dropped` flag and journals a record that does not depend
            // on session state — and the session is being discarded.
            let mut session = handle.lock().unwrap_or_else(PoisonError::into_inner);
            session
                .ensure_not_dropped()
                .map_err(|_| DbError::invalid_parameter(format!("unknown session {id}")))?;
            if let Some(store) = &self.store {
                store.append(&WalRecord::DropSession { session: id }).map_err(DbError::from)?;
            }
            session.mark_dropped();
        }
        if self.write_map().remove(&id).is_some() {
            self.counters.live.fetch_sub(1, Ordering::Relaxed);
        }
        Ok(SessionRef { session: id })
    }

    /// Run `op` on a session under its own lock.
    pub fn with_session<T>(
        &self,
        id: u64,
        op: impl FnOnce(&mut Session) -> DbResult<T>,
    ) -> DbResult<T> {
        let handle = self.session(id)?;
        // A poisoned session lock means a previous request panicked
        // mid-mutation; its evaluation state may be torn, so the session
        // fail-stops (every request errors) until it is dropped — unlike
        // the map lock, whose state can never tear.
        let mut session = handle.lock().map_err(|_| {
            DbError::internal(format!(
                "session {id} is unavailable: a previous request panicked while mutating it; \
                 drop the session and reopen it from its last snapshot"
            ))
        })?;
        op(&mut session)
    }
}

/// Build the dataset a `create_session` names.  A generated spec above
/// [`MAX_GENERATED_TUPLES`] is refused before anything is built, and a
/// snapshot path that is missing, not a regular file or not a snapshot
/// gets one reply that names only the path, so a client cannot tell
/// such paths apart.
fn build_requested(spec: &DatasetSpec) -> DbResult<RankedDatabase> {
    let generated = match spec {
        DatasetSpec::Synthetic { tuples } => *tuples,
        DatasetSpec::Mov { x_tuples } => {
            x_tuples.saturating_mul(MovConfig::paper_default().max_alternatives)
        }
        DatasetSpec::Snapshot { path } => {
            return Snapshot::read(Path::new(path)).map_err(|err| match err {
                StoreError::Io { .. } | StoreError::BadMagic { .. } => {
                    DbError::invalid_parameter(format!("{path} is not a readable snapshot file"))
                }
                other => other.into(),
            });
        }
        DatasetSpec::Udb1 | DatasetSpec::Inline { .. } => 0,
    };
    if generated > MAX_GENERATED_TUPLES {
        return Err(DbError::invalid_parameter(format!(
            "{spec:?} would generate up to {generated} tuples; the limit is {MAX_GENERATED_TUPLES}"
        )));
    }
    build_dataset(spec)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::protocol::DatasetSpec;
    use pdb_engine::queries::TopKQuery;

    fn create_req(dataset: DatasetSpec) -> CreateSession {
        CreateSession { dataset, probe_cost: 1, probe_success: 0.8, session: None }
    }

    fn register_req(session: u64, k: usize) -> RegisterQuery {
        RegisterQuery { session, query: TopKQuery::PTk { k, threshold: 0.4 }, weight: 1.0 }
    }

    #[test]
    fn session_lifecycle_on_udb1() {
        let mgr = SessionManager::new();
        let created = mgr.create(&create_req(DatasetSpec::Udb1)).unwrap();
        assert_eq!(created.tuples, 7);
        assert_eq!(created.x_tuples, 4);
        assert_eq!(mgr.sessions_live(), 1);

        // No queries yet: evaluation verbs fail, registration fixes that.
        let id = created.session;
        assert!(mgr.with_session(id, |s| s.evaluate()).is_err());
        let reg = mgr.with_session(id, |s| s.register_query(&register_req(id, 2))).unwrap();
        assert_eq!(reg.index, 0);
        assert_eq!(reg.k_max, 2);

        let answers = mgr.with_session(id, |s| s.evaluate()).unwrap();
        assert_eq!(answers.answers.len(), 1);
        assert_eq!(answers.answers[0].len(), 3); // PT-2 = {t1, t2, t5}

        let quality = mgr.with_session(id, |s| s.quality()).unwrap();
        assert!((quality.aggregate - (-2.55)).abs() < 0.005);
        assert_eq!(quality.g.len(), 4);

        let advice = mgr.with_session(id, |s| s.recommend_probe()).unwrap();
        let rec = advice.recommendation.expect("udb1 is uncertain");
        assert!(rec.expected_gain > 0.0);

        mgr.drop_session(id).unwrap();
        assert_eq!(mgr.sessions_live(), 0);
        assert!(mgr.session(id).is_err());
        assert!(mgr.drop_session(id).is_err());
    }

    #[test]
    fn registering_a_larger_k_replans_the_shared_run() {
        let mgr = SessionManager::new();
        let id = mgr.create(&create_req(DatasetSpec::Udb1)).unwrap().session;
        let r1 = mgr.with_session(id, |s| s.register_query(&register_req(id, 2))).unwrap();
        assert_eq!(r1.k_max, 2);
        let r2 = mgr.with_session(id, |s| s.register_query(&register_req(id, 4))).unwrap();
        assert_eq!((r2.index, r2.k_max), (1, 4));
        let quality = mgr.with_session(id, |s| s.quality()).unwrap();
        assert_eq!(quality.qualities.len(), 2);
    }

    #[test]
    fn delta_and_rebuild_probe_paths_agree() {
        let mgr = SessionManager::new();
        let id = mgr.create(&create_req(DatasetSpec::Udb1)).unwrap().session;
        mgr.with_session(id, |s| s.register_query(&register_req(id, 2))).unwrap();
        let mutation = XTupleMutation::CollapseToAlternative { keep_pos: 2 };
        let req = ApplyMutation::new(id, 2, mutation);
        let delta = mgr.with_session(id, |s| s.apply_mutation(&req)).unwrap().update;
        // The rebuild oracle: a fresh evaluation of the mutated database.
        let mut db = build_dataset(&DatasetSpec::Udb1).unwrap();
        db.collapse_x_tuple_in_place(2, 2).unwrap();
        let specs = vec![WeightedQuery::new(register_req(id, 2).query)];
        let rebuild = BatchQuality::from_owned(db, specs).unwrap();
        assert!((delta.aggregate - rebuild.aggregate_quality()).abs() < 1e-9);
        assert!((delta.aggregate - (-1.85)).abs() < 0.005); // udb1 → udb2
        assert!(delta.stats.rows_total() > 0, "delta path patched rows");
        // Recommendations after the probe see the shrunk x-tuple set.
        let advice = mgr.with_session(id, |s| s.recommend_probe()).unwrap();
        assert!(advice.recommendation.is_some());
    }

    #[test]
    fn invalid_session_parameters_are_rejected() {
        let mgr = SessionManager::new();
        assert!(mgr
            .create(&CreateSession {
                dataset: DatasetSpec::Udb1,
                probe_cost: 0,
                probe_success: 0.5,
                session: None
            })
            .is_err());
        assert!(mgr
            .create(&CreateSession {
                dataset: DatasetSpec::Udb1,
                probe_cost: 1,
                probe_success: 1.5,
                session: None
            })
            .is_err());
        assert_eq!(mgr.sessions_live(), 0);
    }

    #[test]
    fn failed_registration_leaves_the_session_usable() {
        let mgr = SessionManager::new();
        let id = mgr.create(&create_req(DatasetSpec::Udb1)).unwrap().session;
        mgr.with_session(id, |s| s.register_query(&register_req(id, 2))).unwrap();
        // k = 0 is rejected by the batch planner; the session keeps serving
        // its previous query set.
        let bad = RegisterQuery { session: id, query: TopKQuery::UKRanks { k: 0 }, weight: 1.0 };
        assert!(mgr.with_session(id, |s| s.register_query(&bad)).is_err());
        let quality = mgr.with_session(id, |s| s.quality()).unwrap();
        assert_eq!(quality.qualities.len(), 1);
    }

    #[test]
    fn store_backed_sessions_survive_a_reopen() {
        let dir = std::env::temp_dir().join("pdb-server-session-store-test");
        std::fs::remove_dir_all(&dir).ok();
        let open = || Store::open(&dir, &build_dataset).unwrap();

        let (store, recovery) = open();
        let mgr = SessionManager::with_store(store, recovery, 0).unwrap();
        let id = mgr.create(&create_req(DatasetSpec::Udb1)).unwrap().session;
        mgr.register_query(&register_req(id, 2)).unwrap();
        let probe =
            ApplyMutation::new(id, 2, XTupleMutation::CollapseToAlternative { keep_pos: 2 });
        mgr.apply_mutation(&probe).unwrap();
        let before = mgr.with_session(id, |s| s.quality()).unwrap();
        let answers_before = mgr.with_session(id, |s| s.evaluate()).unwrap();
        drop(mgr);

        // Reopen the directory: the session rehydrates by WAL replay.
        let (store, recovery) = open();
        assert_eq!(recovery.records, 3);
        assert_eq!(recovery.sessions.len(), 1);
        let mgr = SessionManager::with_store(store, recovery, 0).unwrap();
        assert_eq!(mgr.sessions_live(), 1);
        let after = mgr.with_session(id, |s| s.quality()).unwrap();
        assert!((after.aggregate - before.aggregate).abs() < 1e-12);
        assert_eq!(mgr.with_session(id, |s| s.evaluate()).unwrap(), answers_before);
        let stats = mgr.session_stats();
        assert_eq!(stats.len(), 1);
        assert_eq!((stats[0].session, stats[0].queries, stats[0].probes), (id, 1, 1));

        // New ids never collide with recovered ones.
        let second = mgr.create(&create_req(DatasetSpec::Udb1)).unwrap().session;
        assert!(second > id);

        // persist + compact: the log shrinks to the two checkpoints.
        let persisted = mgr.persist(id).unwrap();
        assert!(persisted.snapshot.ends_with(".pdbs"));
        assert_eq!(persisted.probes, 1);
        let compaction = mgr.compact().unwrap();
        assert_eq!(compaction.records_after, 2, "one checkpoint per live session");
        drop(mgr);

        // Recovery after compaction loads the checkpoint snapshots.
        let (_, recovery) = open();
        assert_eq!(recovery.sessions.len(), 2);
        let recovered = &recovery.sessions[0];
        assert_eq!(recovered.base.probes, 1);
        assert!(recovered.tail.is_empty(), "checkpoint absorbed the probe");
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn the_mutation_reaching_compact_every_compacts_before_it_returns() {
        let dir = std::env::temp_dir().join("pdb-server-session-inline-compaction-test");
        std::fs::remove_dir_all(&dir).ok();
        let (store, recovery) = Store::open(&dir, &build_dataset).unwrap();
        let mgr = SessionManager::with_store(store, recovery, 3).unwrap();
        let id = mgr.create(&create_req(DatasetSpec::Udb1)).unwrap().session;
        mgr.register_query(&register_req(id, 2)).unwrap();
        // The third record: compacted to the session's checkpoint.
        let probe = XTupleMutation::CollapseToAlternative { keep_pos: 2 };
        mgr.apply_mutation(&ApplyMutation::new(id, 2, probe)).unwrap();
        let store = mgr.store().unwrap();
        assert_eq!((store.records(), store.records_since_truncate()), (1, 0));
        assert_eq!(mgr.probes_applied(), 1);

        // A compaction that fails still leaves the mutation applied (and
        // journalled into the open log), and is counted.
        let failures = || obs::SERVER_ERRORS_TOTAL.with("compaction").get();
        let before = failures();
        std::fs::remove_dir_all(&dir).unwrap();
        let reweight = XTupleMutation::Reweight { probs: vec![0.4, 0.5] };
        for _ in 0..3 {
            mgr.apply_mutation(&ApplyMutation::new(id, 0, reweight.clone())).unwrap();
        }
        assert_eq!(failures(), before + 1);
        assert_eq!(mgr.probes_applied(), 4);
        assert_eq!(mgr.session_stats()[0].probes, 4);
    }

    #[test]
    fn racing_creates_pinned_to_one_id_admit_exactly_one() {
        let dir = std::env::temp_dir().join("pdb-server-session-pinned-race-test");
        std::fs::remove_dir_all(&dir).ok();
        let (store, recovery) = Store::open(&dir, &build_dataset).unwrap();
        let mgr = SessionManager::with_store(store, recovery, 0).unwrap();
        let rounds = 40;
        for id in 1..=rounds {
            let pinned = CreateSession { session: Some(id), ..create_req(DatasetSpec::Udb1) };
            let start = std::sync::Barrier::new(2);
            let replies: Vec<_> = std::thread::scope(|scope| {
                let racers: Vec<_> = (0..2)
                    .map(|_| {
                        scope.spawn(|| {
                            start.wait();
                            mgr.create(&pinned)
                        })
                    })
                    .collect();
                racers.into_iter().map(|racer| racer.join().unwrap()).collect()
            });
            let created = replies.iter().filter(|reply| reply.is_ok()).count();
            assert_eq!(created, 1, "round {id}: {replies:?}");
            assert!(replies.iter().any(|reply| reply
                .as_ref()
                .is_err_and(|err| err.to_string().contains("already exists"))));
            assert_eq!(mgr.sessions_live(), id);
        }
        drop(mgr);
        // One create record per id.
        let recovery = Store::peek(&dir, &build_dataset).unwrap();
        assert_eq!((recovery.records, recovery.sessions.len() as u64), (rounds, rounds));
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn journal_faulted_sessions_fail_stop_until_persisted() {
        let dir = std::env::temp_dir().join("pdb-server-session-fault-test");
        std::fs::remove_dir_all(&dir).ok();
        let (store, recovery) = Store::open(&dir, &build_dataset).unwrap();
        let mgr = SessionManager::with_store(store, recovery, 0).unwrap();
        let id = mgr.create(&create_req(DatasetSpec::Udb1)).unwrap().session;
        mgr.register_query(&register_req(id, 2)).unwrap();

        // Simulate an append failure after an in-memory mutation.
        mgr.with_session(id, |s| {
            s.set_journal_fault("disk full");
            Ok(())
        })
        .unwrap();
        let err = mgr.with_session(id, |s| s.evaluate()).unwrap_err();
        assert!(err.to_string().contains("diverged"), "{err}");
        assert!(mgr.register_query(&register_req(id, 3)).is_err());

        // persist re-checkpoints the live state: log and memory agree
        // again, the session serves.
        mgr.persist(id).unwrap();
        mgr.with_session(id, |s| s.evaluate()).unwrap();
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn persist_without_a_store_is_a_clean_error() {
        let mgr = SessionManager::new();
        let id = mgr.create(&create_req(DatasetSpec::Udb1)).unwrap().session;
        let err = mgr.persist(id).unwrap_err();
        assert!(err.to_string().contains("--store-dir"), "{err}");
        assert!(mgr.compact().is_err());
    }

    #[test]
    fn create_session_opens_a_session_over_a_snapshot_file() {
        let dir = std::env::temp_dir().join("pdb-server-session-create-snapshot-test");
        std::fs::create_dir_all(&dir).unwrap();
        let snapshot = dir.join("udb1.pdbs");
        let db = build_dataset(&DatasetSpec::Udb1).unwrap();
        pdb_store::Snapshot::write(&db, &snapshot).unwrap();

        let mgr = SessionManager::new();
        let req = create_req(DatasetSpec::Snapshot { path: snapshot.display().to_string() });
        let created = mgr.create(&req).unwrap();
        assert_eq!((created.tuples, created.x_tuples), (7, 4));
        let reg = mgr.register_query(&register_req(created.session, 2)).unwrap();
        assert_eq!(reg.k_max, 2);

        // A missing path, a directory, a text file and a device all get
        // one reply, which names the path and not the OS error; the
        // device is refused unread.
        let text = dir.join("notes.txt");
        std::fs::write(&text, "not a snapshot").unwrap();
        for path in [dir.join("nope.pdbs"), dir.clone(), text, "/dev/zero".into()] {
            let path = path.display().to_string();
            let req = create_req(DatasetSpec::Snapshot { path: path.clone() });
            let err = mgr.create(&req).unwrap_err();
            let reply = format!("invalid parameter: {path} is not a readable snapshot file");
            assert_eq!(err.to_string(), reply);
        }
        assert_eq!(mgr.sessions_live(), 1);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn replay_returns_the_live_replies_record_by_record() {
        let dir = std::env::temp_dir().join("pdb-server-session-replay-test");
        std::fs::remove_dir_all(&dir).ok();
        let (store, recovery) = Store::open(&dir, &build_dataset).unwrap();
        let mgr = SessionManager::with_store(store, recovery, 0).unwrap();
        // x-tuples 0 and 2 carry null mass.
        let dataset = DatasetSpec::Inline {
            x_tuples: vec![
                vec![(21.0, 0.5), (32.0, 0.3)],
                vec![(30.0, 0.7), (22.0, 0.3)],
                vec![(25.0, 0.4), (27.0, 0.2)],
                vec![(26.0, 1.0)],
                vec![(24.0, 0.6), (29.0, 0.4)],
            ],
        };
        let id = mgr.create(&create_req(dataset)).unwrap().session;
        mgr.register_query(&register_req(id, 2)).unwrap();
        let mut live = Vec::new();
        let mut apply = |x_tuple, mutation| {
            let req = ApplyMutation::new(id, x_tuple, mutation);
            live.push(mgr.apply_mutation(&req).unwrap());
        };
        // Rank positions: 32 30 29 27 26 25 24 22 21.
        apply(1, XTupleMutation::CollapseToAlternative { keep_pos: 1 });
        apply(0, XTupleMutation::CollapseToNull);
        let global = TopKQuery::GlobalTopk { k: 3 };
        mgr.register_query(&RegisterQuery { session: id, query: global, weight: 2.0 }).unwrap();
        apply(1, XTupleMutation::Reweight { probs: vec![0.3, 0.4] });
        let arrival = vec![(28.5, 0.5), (23.0, 0.25)];
        apply(0, XTupleMutation::Insert { key: "s9".into(), alternatives: arrival });
        apply(2, XTupleMutation::Remove);
        // Now 30 29 28.5 27 25 24 23: x-tuple 2 holds 29 and 24.
        apply(2, XTupleMutation::CollapseToAlternative { keep_pos: 1 });
        drop(mgr);

        // No checkpoint: the base is the created dataset, and every
        // registration and mutation replays from the tail.
        let recovery = Store::peek(&dir, &build_dataset).unwrap();
        let recovered = recovery.sessions.into_iter().next().unwrap();
        assert_eq!(recovered.tail.len(), 8);
        let mut session = Session::from_checkpoint(recovered.base.clone()).unwrap();
        let mut replayed = Vec::new();
        for (_, record) in recovered.tail.clone() {
            replayed.extend(session.replay_record(record).unwrap());
        }
        assert_eq!(replayed, live, "replay returns each live reply bit for bit");

        let (session, mutations, stats) = Session::replay(recovered).unwrap();
        let mut live_stats = DeltaStats::default();
        live.iter().for_each(|applied| live_stats.accumulate(&applied.update.stats));
        assert_eq!((mutations, stats), (6, live_stats));
        assert_eq!(session.stat(id).probes, 6);
        std::fs::remove_dir_all(&dir).ok();
    }

    #[test]
    fn a_recovered_largest_id_exhausts_the_allocator_without_reuse() {
        let dir = std::env::temp_dir().join("pdb-server-session-largest-id-test");
        std::fs::remove_dir_all(&dir).ok();
        let open = || Store::open(&dir, &build_dataset).unwrap();
        let (store, recovery) = open();
        let mgr = SessionManager::with_store(store, recovery, 0).unwrap();
        let id = mgr.create(&create_req(DatasetSpec::Udb1)).unwrap().session;
        mgr.register_query(&register_req(id, 2)).unwrap();
        let probe = XTupleMutation::CollapseToAlternative { keep_pos: 2 };
        mgr.apply_mutation(&ApplyMutation::new(id, 2, probe)).unwrap();
        // This server refuses to pin u64::MAX, which has no successor...
        let pinned = CreateSession { session: Some(u64::MAX), ..create_req(DatasetSpec::Udb1) };
        let err = mgr.create(&pinned).unwrap_err();
        assert!(err.to_string().contains("reserved"), "{err}");
        // ...but an older one journalled it.
        let record = WalRecord::CreateSession {
            session: u64::MAX,
            dataset: DatasetSpec::Udb1,
            probe_cost: 1,
            probe_success: 0.8,
        };
        mgr.store().unwrap().append(&record).unwrap();
        let before = mgr.with_session(id, |s| s.quality()).unwrap();
        drop(mgr);

        let (store, recovery) = open();
        assert_eq!(recovery.next_session_id, None);
        let mgr = SessionManager::with_store(store, recovery, 0).unwrap();
        let err = mgr.create(&create_req(DatasetSpec::Udb1)).unwrap_err();
        assert!(err.to_string().contains("no session id is left"), "{err}");
        assert_eq!(mgr.sessions_live(), 2);
        assert_eq!(mgr.with_session(id, |s| s.quality()).unwrap(), before);
        std::fs::remove_dir_all(&dir).ok();
    }
}
