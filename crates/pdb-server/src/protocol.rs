//! Wire protocol of the cleaning service.
//!
//! The server speaks **newline-delimited JSON** over TCP: every request is
//! one JSON value on one line, and every request produces exactly one JSON
//! response line.  A request is a single-entry object whose key is the verb
//! (`{"evaluate": {"session": 3}}`); the verbs that carry no payload
//! (`stats`, `metrics`, `shutdown`) may also be sent as bare strings
//! (`"stats"`).
//! Responses follow the same shape with the response kind as the key, and
//! every error — parse failure, unknown session, engine error — comes back
//! as `{"error": {"message": "..."}}` instead of closing the connection.
//!
//! The payloads reuse the workspace's serde implementations, so the types
//! that cross the wire here (query answers, quality reports, probe
//! recommendations, [`BatchCollapseUpdate`],
//! [`DeltaStats`](pdb_engine::delta::DeltaStats)) are exactly
//! the ones the in-process engines return — a served session and a direct
//! [`pdb_quality::BatchQuality`] call produce byte-identical JSON.
//!
//! ## Verbs
//!
//! | Verb | Payload | Response |
//! |------|---------|----------|
//! | `create_session` | [`CreateSession`] | `session_created` ([`SessionCreated`]) |
//! | `register_query` | [`RegisterQuery`] | `query_registered` ([`QueryRegistered`]) |
//! | `evaluate` | [`SessionRef`] | `answers` ([`Answers`]) |
//! | `quality` | [`SessionRef`] | `quality_report` ([`QualityReport`]) |
//! | `recommend_probe` | [`SessionRef`] | `probe_recommendation` ([`ProbeAdvice`]) |
//! | `apply_mutation` | [`ApplyMutation`] | `probe_applied` ([`ProbeApplied`]) |
//! | `apply_probe` | [`ApplyProbe`] | `probe_applied` ([`ProbeApplied`]) |
//! | `drop_session` | [`SessionRef`] | `session_dropped` ([`SessionRef`]) |
//! | `persist` | [`SessionRef`] | `persisted` ([`Persisted`]) |
//! | `stats` | — | `stats` ([`ServerStats`]) |
//! | `metrics` | — | `metrics` ([`MetricsReply`]) |
//! | `shutdown` | — | `shutting_down` |
//!
//! `create_session` is the only verb that opens a session: its
//! [`DatasetSpec`] names a generated, inline or snapshot-file database
//! (`{"Snapshot": {"path": ...}}` opens one that `pdb export` or
//! `persist` wrote).
//!
//! `apply_mutation` is the canonical mutation verb: it accepts every
//! [`XTupleMutation`] variant, including the streaming `Insert`/`Remove`
//! membership mutations.  `apply_probe` is its historical alias — same
//! payload shape ([`ApplyProbe`] is a type alias of [`ApplyMutation`]),
//! same response, same WAL record.  The typed [`Client`](crate::Client)
//! does not send it; the server answers it until the next change to the
//! serving benchmark, which names the verb.
//!
//! Floats travel in Rust's shortest round-trip form, so every `f64`
//! decodes to the bits it was encoded from: plain decimals in
//! [1e-4, 1e16) (`0.43200000000000005`, `2.0`), exponent form outside it
//! (`1e-7`, `-2.5e-300`), and `0.0` / `-0.0` for the zeros.
//!
//! ## Encoding and decoding
//!
//! [`encode`] runs the value's `Serialize` impl, which writes compact
//! JSON straight into the line: the derived impls of the payloads write
//! their field names as literals and each value through its own impl, and
//! the hand-written impls here ([`Request`], [`Response`],
//! [`CreateSession`], [`ServerStats`], [`EvalMode`]) do the same for the
//! envelopes and the optional keys.  No value tree is built, so a reply
//! costs its bytes.  Golden-line tests pin the bytes of every response
//! kind.  Decoding ([`decode_request`], [`decode_response`]) parses into
//! the vendored `serde::Value` tree and reads the typed value out of it;
//! a server decodes only request lines, which are short.  The fleet
//! router checks each reply line it relays with `serde_json::validate`,
//! the decoder's own scan building no tree, so it relays exactly the
//! lines a client can decode.  Either direction reads at most
//! [`MAX_LINE`] bytes of a line.
//!
//! See the README section *Serving & sessions* for one request/response
//! example per verb.

use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::{QueryAnswer, TopKQuery};
use pdb_quality::BatchCollapseUpdate;
use serde::{Deserialize, Error as SerdeError, Serialize, Value};

// ---------------------------------------------------------------------------
// Request payloads
// ---------------------------------------------------------------------------

/// Which database a new session evaluates.
///
/// The type lives in `pdb-store` (it doubles as a write-ahead-log
/// payload: a journalled `create_session` record must rebuild the same
/// database on recovery); every variant is deterministic, so a client
/// can rebuild the identical database locally — that is what the
/// loopback equivalence test and the `server_throughput` bench rely on.
/// Materialize a spec with [`pdb_gen::spec::build_dataset`].
pub use pdb_store::DatasetSpec;

/// Payload of `create_session`, the one verb that opens a session.
///
/// A [`DatasetSpec::Snapshot`] opens the session over a snapshot file on
/// the server's filesystem (one `pdb export` or a `persist` wrote).  On a
/// store-backed server the file is checkpointed into the store before the
/// session opens, so the session survives restarts without the file.
///
/// `session` is optional on the wire (omitted when `None`, and absent in
/// every pre-fleet request): a plain client lets the server assign the
/// next id, while the fleet router pre-assigns fleet-wide unique ids so
/// two shards never hand out the same one.
#[derive(Debug, Clone, PartialEq)]
pub struct CreateSession {
    /// Database the session evaluates.
    pub dataset: DatasetSpec,
    /// Budget units one `pclean` probe costs (uniform across x-tuples).
    pub probe_cost: u64,
    /// Probability that one probe succeeds (uniform across x-tuples).
    pub probe_success: f64,
    /// Requested session id (`None`: the server assigns the next free
    /// one).  Creating an id that already exists is an error.
    pub session: Option<u64>,
}

impl Serialize for CreateSession {
    fn write_json(&self, out: &mut String) -> Result<(), SerdeError> {
        out.push_str("{\"dataset\":");
        self.dataset.write_json(out)?;
        out.push_str(",\"probe_cost\":");
        self.probe_cost.write_json(out)?;
        out.push_str(",\"probe_success\":");
        self.probe_success.write_json(out)?;
        if let Some(session) = self.session {
            out.push_str(",\"session\":");
            session.write_json(out)?;
        }
        out.push('}');
        Ok(())
    }
}

impl Deserialize for CreateSession {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let entries = object_entries(value, "create_session")?;
        Ok(CreateSession {
            dataset: required_field(entries, "dataset", "create_session")?,
            probe_cost: required_field(entries, "probe_cost", "create_session")?,
            probe_success: required_field(entries, "probe_success", "create_session")?,
            session: optional_field(entries, "session")?,
        })
    }
}

/// Payload of `register_query`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RegisterQuery {
    /// Target session.
    pub session: u64,
    /// The query to register (semantics + `k` + parameters).
    pub query: TopKQuery,
    /// The query's weight in the session's aggregate quality.
    pub weight: f64,
}

/// Payload of the verbs that only name a session (`evaluate`, `quality`,
/// `recommend_probe`, `drop_session`) and of the `session_dropped`
/// response.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionRef {
    /// Target session.
    pub session: u64,
}

/// How `apply_mutation` folds the mutation into the session's
/// evaluation.  The `mode` field is mandatory on the wire and `"delta"` is
/// its only accepted value; the full-rebuild oracle runs in process (tests
/// and benches), not on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EvalMode {
    /// One in-place delta pass on the shared master matrix (the session
    /// path: one windowed PSR scan to the last changed row, shared by
    /// every registered query).
    Delta,
}

impl Serialize for EvalMode {
    fn write_json(&self, out: &mut String) -> Result<(), SerdeError> {
        out.push_str("\"delta\"");
        Ok(())
    }
}

impl Deserialize for EvalMode {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        match value.as_str() {
            Some("delta") => Ok(EvalMode::Delta),
            _ => Err(SerdeError::custom(format!(
                "expected \"delta\" for an evaluation mode, found {value:?}"
            ))),
        }
    }
}

/// Payload of `apply_mutation` (and of its historical alias
/// `apply_probe`): one mutation of a single x-tuple — a probe outcome or
/// a streaming insert/remove.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ApplyMutation {
    /// Target session.
    pub session: u64,
    /// The mutated x-tuple (index into the session's current database).
    /// Ignored for [`XTupleMutation::Insert`], whose target is always the
    /// appended index (the server resolves it to the current x-tuple
    /// count — clients cannot know it).
    pub x_tuple: usize,
    /// The mutation to fold in.
    pub mutation: XTupleMutation,
    /// Always [`EvalMode::Delta`], the session path.
    pub mode: EvalMode,
}

impl ApplyMutation {
    /// A request folding `mutation` of x-tuple `x_tuple` into `session`.
    pub fn new(session: u64, x_tuple: usize, mutation: XTupleMutation) -> Self {
        Self { session, x_tuple, mutation, mode: EvalMode::Delta }
    }
}

/// Payload of `apply_probe`: one observed probe outcome.  A probe outcome
/// *is* a mutation, so this is an alias of [`ApplyMutation`] — the verbs
/// differ in name only.
pub type ApplyProbe = ApplyMutation;

/// One request of the wire protocol.
///
/// Serializes as a single-entry JSON object keyed by the verb; `stats` and
/// `shutdown` additionally parse from bare strings.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// `create_session`: load/generate a database and open a session on it.
    CreateSession(CreateSession),
    /// `register_query`: add a weighted query to a session (re-plans the
    /// shared evaluation).
    RegisterQuery(RegisterQuery),
    /// `evaluate`: answer every registered query from the shared matrix.
    Evaluate(SessionRef),
    /// `quality`: per-query and aggregate PWS-quality plus the aggregate
    /// per-x-tuple decomposition.
    Quality(SessionRef),
    /// `recommend_probe`: the single probe maximizing the expected
    /// aggregate improvement (Theorem 2 on the aggregate context).
    RecommendProbe(SessionRef),
    /// `apply_mutation`: fold one mutation — a probe outcome or a
    /// streaming insert/remove — into the session.
    ApplyMutation(ApplyMutation),
    /// `apply_probe`: fold one observed probe outcome into the session
    /// (historical alias of `apply_mutation`; same payload, response and
    /// WAL record).
    ApplyProbe(ApplyProbe),
    /// `drop_session`: discard a session.
    DropSession(SessionRef),
    /// `persist`: checkpoint a session's current state into the store
    /// (snapshot + WAL record), so recovery starts from the snapshot.
    Persist(SessionRef),
    /// `stats`: server-wide counters.
    Stats,
    /// `metrics`: every registered observability series (counters,
    /// gauges, latency histograms) as one snapshot.
    Metrics,
    /// `shutdown`: stop accepting connections and drain in-flight requests.
    Shutdown,
}

impl Request {
    /// The protocol verb naming this request on the wire.
    pub fn verb(&self) -> &'static str {
        match self {
            Request::CreateSession(_) => "create_session",
            Request::RegisterQuery(_) => "register_query",
            Request::Evaluate(_) => "evaluate",
            Request::Quality(_) => "quality",
            Request::RecommendProbe(_) => "recommend_probe",
            Request::ApplyMutation(_) => "apply_mutation",
            Request::ApplyProbe(_) => "apply_probe",
            Request::DropSession(_) => "drop_session",
            Request::Persist(_) => "persist",
            Request::Stats => "stats",
            Request::Metrics => "metrics",
            Request::Shutdown => "shutdown",
        }
    }
}

impl Serialize for Request {
    fn write_json(&self, out: &mut String) -> Result<(), SerdeError> {
        write_envelope_key(self.verb(), out);
        match self {
            Request::CreateSession(p) => p.write_json(out)?,
            Request::RegisterQuery(p) => p.write_json(out)?,
            Request::Evaluate(p)
            | Request::Quality(p)
            | Request::RecommendProbe(p)
            | Request::DropSession(p)
            | Request::Persist(p) => p.write_json(out)?,
            Request::ApplyMutation(p) | Request::ApplyProbe(p) => p.write_json(out)?,
            Request::Stats | Request::Metrics | Request::Shutdown => out.push_str("{}"),
        }
        out.push('}');
        Ok(())
    }
}

impl Deserialize for Request {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        if let Some(verb) = value.as_str() {
            return match verb {
                "stats" => Ok(Request::Stats),
                "metrics" => Ok(Request::Metrics),
                "shutdown" => Ok(Request::Shutdown),
                other => Err(SerdeError::custom(format!(
                    "verb {other:?} requires a payload; send {{\"{other}\": {{...}}}}"
                ))),
            };
        }
        let (verb, payload) = single_entry(value, "request")?;
        match verb {
            "create_session" => Ok(Request::CreateSession(Deserialize::from_value(payload)?)),
            "register_query" => Ok(Request::RegisterQuery(Deserialize::from_value(payload)?)),
            "evaluate" => Ok(Request::Evaluate(Deserialize::from_value(payload)?)),
            "quality" => Ok(Request::Quality(Deserialize::from_value(payload)?)),
            "recommend_probe" => Ok(Request::RecommendProbe(Deserialize::from_value(payload)?)),
            "apply_mutation" => Ok(Request::ApplyMutation(Deserialize::from_value(payload)?)),
            "apply_probe" => Ok(Request::ApplyProbe(Deserialize::from_value(payload)?)),
            "drop_session" => Ok(Request::DropSession(Deserialize::from_value(payload)?)),
            "persist" => Ok(Request::Persist(Deserialize::from_value(payload)?)),
            "stats" => Ok(Request::Stats),
            "metrics" => Ok(Request::Metrics),
            "shutdown" => Ok(Request::Shutdown),
            other => Err(SerdeError::custom(format!("unknown request verb {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Response payloads
// ---------------------------------------------------------------------------

/// Response to `create_session`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SessionCreated {
    /// Identifier of the new session.
    pub session: u64,
    /// Tuples in the loaded/generated database.
    pub tuples: usize,
    /// X-tuples (entities) in the database.
    pub x_tuples: usize,
}

/// Response to `register_query`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct QueryRegistered {
    /// The session the query was registered in.
    pub session: u64,
    /// Index of the query within the session (registration order).
    pub index: usize,
    /// The `k` of the session's one shared PSR run after re-planning.
    pub k_max: usize,
}

/// Response to `evaluate`: every registered query's answer, in
/// registration order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Answers {
    /// Per-query answers.
    pub answers: Vec<QueryAnswer>,
}

/// Response to `quality`: the session's quality state.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityReport {
    /// `S(D, Q_q)` per registered query, in registration order.
    pub qualities: Vec<f64>,
    /// The per-query aggregate weights, in registration order.
    pub weights: Vec<f64>,
    /// The aggregate quality `Σ_q w_q·S(D, Q_q)`.
    pub aggregate: f64,
    /// The aggregate per-x-tuple decomposition `g_agg(l, D)`.
    pub g: Vec<f64>,
}

/// A recommended probe: the x-tuple whose single probe maximizes the
/// expected aggregate quality improvement.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeRecommendation {
    /// The x-tuple to probe.
    pub x_tuple: usize,
    /// Expected aggregate improvement of that one probe (Theorem 2).
    pub expected_gain: f64,
}

/// Response to `recommend_probe`.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ProbeAdvice {
    /// The best single probe, or `None` when the database is effectively
    /// certain (no probe can improve the aggregate quality).
    pub recommendation: Option<ProbeRecommendation>,
}

/// Response to `apply_probe`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ProbeApplied {
    /// The mutated session.
    pub session: u64,
    /// The mode that produced the update.
    pub mode: EvalMode,
    /// Refreshed qualities, aggregate decomposition and delta statistics —
    /// exactly what [`pdb_quality::BatchQuality::apply_collapse_in_place`]
    /// returns in process.
    pub update: BatchCollapseUpdate,
}

impl ProbeApplied {
    /// The reply to a mutation of `session` that produced `update`.
    pub fn new(session: u64, update: BatchCollapseUpdate) -> Self {
        Self { session, mode: EvalMode::Delta, update }
    }
}

/// Response to `persist`: where a session's checkpoint landed.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Persisted {
    /// The checkpointed session.
    pub session: u64,
    /// File name of the snapshot inside the store directory.
    pub snapshot: String,
    /// Tuples in the snapshotted database version.
    pub tuples: usize,
    /// Probes baked into the snapshot (recovery replays only probes
    /// applied after this point).
    pub probes: u64,
}

/// Per-session counters inside [`ServerStats`]: what an operator needs
/// to see how big each session is and how much work a recovery of it
/// would replay.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SessionStat {
    /// The session id.
    pub session: u64,
    /// Milliseconds since the session was created (or recovered).
    pub age_ms: u64,
    /// Registered queries.
    pub queries: usize,
    /// Probes applied so far.
    pub probes: u64,
}

/// Response to `stats`: server-wide counters.
#[derive(Debug, Clone, PartialEq)]
pub struct ServerStats {
    /// Sessions currently live.
    pub sessions_live: u64,
    /// Sessions created since the server started.
    pub sessions_created: u64,
    /// Requests served since the server started (including errors).
    pub requests_served: u64,
    /// Probes applied across all sessions.
    pub probes_applied: u64,
    /// Shard processes behind this address: 1 for a server, the ring
    /// size for a fleet router.
    pub shards: usize,
    /// Requests handled at once (`--threads`); a fleet router reports
    /// the sum over its shards.
    pub threads: usize,
    /// Whether sessions are journalled to a durable store
    /// (`--store-dir`).
    pub durable: bool,
    /// Transient connect/read failures retried away by this process's
    /// outbound [`Client`](crate::Client)s (always 0 on a plain shard
    /// server; the fleet router reports its shard-connection retries
    /// here, summed into the merged fleet stats).
    pub connect_retries: u64,
    /// Group commit's sticky fsync failure, if one has happened: once an
    /// fsync fails the WAL fail-stops, and every in-flight and future
    /// append errors.  Surfaced here so operators see a degraded store
    /// *before* the next write fails, not at it.
    /// `None` (omitted on the wire) on a healthy or non-durable server;
    /// a merged fleet reply carries the first degraded shard's message.
    pub flush_error: Option<String>,
    /// Per-session age / query / probe counters, ascending by id.
    pub sessions: Vec<SessionStat>,
    /// The id the next `create_session` without a pinned id gets: above
    /// every id the server handed out, dropped ones included.  A fleet
    /// router reports its own allocator's.  `None` (`null` on the wire)
    /// when no id is left.
    pub next_session_id: Option<u64>,
}

impl Serialize for ServerStats {
    fn write_json(&self, out: &mut String) -> Result<(), SerdeError> {
        out.push_str("{\"sessions_live\":");
        self.sessions_live.write_json(out)?;
        out.push_str(",\"sessions_created\":");
        self.sessions_created.write_json(out)?;
        out.push_str(",\"requests_served\":");
        self.requests_served.write_json(out)?;
        out.push_str(",\"probes_applied\":");
        self.probes_applied.write_json(out)?;
        out.push_str(",\"shards\":");
        self.shards.write_json(out)?;
        out.push_str(",\"threads\":");
        self.threads.write_json(out)?;
        out.push_str(",\"durable\":");
        self.durable.write_json(out)?;
        out.push_str(",\"connect_retries\":");
        self.connect_retries.write_json(out)?;
        if let Some(flush_error) = &self.flush_error {
            out.push_str(",\"flush_error\":");
            flush_error.write_json(out)?;
        }
        out.push_str(",\"sessions\":");
        self.sessions.write_json(out)?;
        out.push_str(",\"next_session_id\":");
        self.next_session_id.write_json(out)?;
        out.push('}');
        Ok(())
    }
}

impl Deserialize for ServerStats {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        let entries = object_entries(value, "stats")?;
        Ok(ServerStats {
            sessions_live: required_field(entries, "sessions_live", "stats")?,
            sessions_created: required_field(entries, "sessions_created", "stats")?,
            requests_served: required_field(entries, "requests_served", "stats")?,
            probes_applied: required_field(entries, "probes_applied", "stats")?,
            shards: required_field(entries, "shards", "stats")?,
            threads: required_field(entries, "threads", "stats")?,
            durable: required_field(entries, "durable", "stats")?,
            connect_retries: required_field(entries, "connect_retries", "stats")?,
            // Absent (every pre-observability reply) and null both mean
            // "no sticky flush failure".
            flush_error: optional_field(entries, "flush_error")?,
            sessions: required_field(entries, "sessions", "stats")?,
            // Absent (a reply from before the key) reads as no id left,
            // so a router seeded from it hands out no id twice.
            next_session_id: optional_field(entries, "next_session_id")?,
        })
    }
}

/// Response to `metrics`: every registered series of the answering
/// process — or, from a fleet router, the associative merge of every
/// shard's snapshot plus the router's own series.  It is pdb-obs's own
/// snapshot type, so a reply merges and renders as decoded; a series of
/// a kind this build does not know fails to decode.
pub type MetricsReply = pdb_obs::snapshot::MetricsSnapshot;

/// Error payload.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ErrorReply {
    /// Human-readable description of what went wrong.
    pub message: String,
}

/// One response of the wire protocol (single-entry JSON object keyed by
/// the response kind).
#[derive(Debug, Clone, PartialEq)]
pub enum Response {
    /// `session_created`
    SessionCreated(SessionCreated),
    /// `query_registered`
    QueryRegistered(QueryRegistered),
    /// `answers`
    Answers(Answers),
    /// `quality_report`
    QualityReport(QualityReport),
    /// `probe_recommendation`
    ProbeRecommendation(ProbeAdvice),
    /// `probe_applied`
    ProbeApplied(ProbeApplied),
    /// `session_dropped`
    SessionDropped(SessionRef),
    /// `persisted`
    Persisted(Persisted),
    /// `stats`
    Stats(ServerStats),
    /// `metrics`
    Metrics(MetricsReply),
    /// `shutting_down`
    ShuttingDown,
    /// `error`
    Error(ErrorReply),
}

impl Response {
    /// The protocol key naming this response on the wire.
    pub fn kind(&self) -> &'static str {
        match self {
            Response::SessionCreated(_) => "session_created",
            Response::QueryRegistered(_) => "query_registered",
            Response::Answers(_) => "answers",
            Response::QualityReport(_) => "quality_report",
            Response::ProbeRecommendation(_) => "probe_recommendation",
            Response::ProbeApplied(_) => "probe_applied",
            Response::SessionDropped(_) => "session_dropped",
            Response::Persisted(_) => "persisted",
            Response::Stats(_) => "stats",
            Response::Metrics(_) => "metrics",
            Response::ShuttingDown => "shutting_down",
            Response::Error(_) => "error",
        }
    }

    /// Build an error response from any displayable error.
    pub fn error(err: impl std::fmt::Display) -> Self {
        Response::Error(ErrorReply { message: err.to_string() })
    }
}

impl Serialize for Response {
    fn write_json(&self, out: &mut String) -> Result<(), SerdeError> {
        write_envelope_key(self.kind(), out);
        match self {
            Response::SessionCreated(p) => p.write_json(out)?,
            Response::QueryRegistered(p) => p.write_json(out)?,
            Response::Answers(p) => p.write_json(out)?,
            Response::QualityReport(p) => p.write_json(out)?,
            Response::ProbeRecommendation(p) => p.write_json(out)?,
            Response::ProbeApplied(p) => p.write_json(out)?,
            Response::SessionDropped(p) => p.write_json(out)?,
            Response::Persisted(p) => p.write_json(out)?,
            Response::Stats(p) => p.write_json(out)?,
            Response::Metrics(p) => p.write_json(out)?,
            Response::ShuttingDown => out.push_str("{}"),
            Response::Error(p) => p.write_json(out)?,
        }
        out.push('}');
        Ok(())
    }
}

impl Deserialize for Response {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        if value.as_str() == Some("shutting_down") {
            return Ok(Response::ShuttingDown);
        }
        let (kind, payload) = single_entry(value, "response")?;
        match kind {
            "session_created" => Ok(Response::SessionCreated(Deserialize::from_value(payload)?)),
            "query_registered" => Ok(Response::QueryRegistered(Deserialize::from_value(payload)?)),
            "answers" => Ok(Response::Answers(Deserialize::from_value(payload)?)),
            "quality_report" => Ok(Response::QualityReport(Deserialize::from_value(payload)?)),
            "probe_recommendation" => {
                Ok(Response::ProbeRecommendation(Deserialize::from_value(payload)?))
            }
            "probe_applied" => Ok(Response::ProbeApplied(Deserialize::from_value(payload)?)),
            "session_dropped" => Ok(Response::SessionDropped(Deserialize::from_value(payload)?)),
            "persisted" => Ok(Response::Persisted(Deserialize::from_value(payload)?)),
            "stats" => Ok(Response::Stats(Deserialize::from_value(payload)?)),
            "metrics" => Ok(Response::Metrics(Deserialize::from_value(payload)?)),
            "shutting_down" => Ok(Response::ShuttingDown),
            "error" => Ok(Response::Error(Deserialize::from_value(payload)?)),
            other => Err(SerdeError::custom(format!("unknown response kind {other:?}"))),
        }
    }
}

// ---------------------------------------------------------------------------
// Line framing
// ---------------------------------------------------------------------------

/// The longest line either side reads, newline included (16 MiB), so a
/// peer that never sends a newline cannot make a connection buffer more.
/// The server caps each request line at it ([`serve_connection`]
/// answers one error reply and closes the connection), and a
/// [`Client`](crate::Client) each reply line, so the fleet router's shard
/// connections are capped too.  Requests name their datasets (inline
/// ones are a few tuples; larger ones are generated or opened from a
/// snapshot file), so none comes near it.  The longest replies carry a
/// session's `g`, one float per x-tuple and at least 4 bytes each
/// (`0.0,`): a generated dataset (at most 10⁷ tuples, so at most
/// ~3.3·10⁶ MOV x-tuples) stays under the cap, while a session opened
/// from a snapshot of more than ~4·10⁶ x-tuples answers `quality` and
/// mutations with lines a client refuses.
///
/// [`serve_connection`]: crate::serve_connection
pub const MAX_LINE: usize = 16 << 20;

/// Serialize a protocol value as one compact JSON line (no trailing
/// newline).
pub fn encode<T: Serialize>(value: &T) -> Result<String, SerdeError> {
    serde_json::to_string(value)
}

/// Parse one request line.
pub fn decode_request(line: &str) -> Result<Request, SerdeError> {
    serde_json::from_str(line)
}

/// Parse one response line.
pub fn decode_response(line: &str) -> Result<Response, SerdeError> {
    serde_json::from_str(line)
}

/// Encode `response` as its reply line.  A response that cannot be
/// encoded (a non-finite float) becomes an `encoding failed` error line,
/// so every request still gets exactly one reply.
pub fn encode_reply(response: &Response) -> String {
    encode(response)
        .unwrap_or_else(|err| format!("{{\"error\":{{\"message\":\"encoding failed: {err}\"}}}}"))
}

/// Open a protocol envelope, `{"<key>":`; the payload and the closing
/// `}` follow.  `key` is a verb or response kind, a literal that needs
/// no escaping.
fn write_envelope_key(key: &str, out: &mut String) {
    out.push_str("{\"");
    out.push_str(key);
    out.push_str("\":");
}

/// The entries of a JSON object payload (manual-impl helper).
fn object_entries<'v>(value: &'v Value, what: &str) -> Result<&'v [(String, Value)], SerdeError> {
    value.as_map().ok_or_else(|| SerdeError::custom(format!("expected an object for {what}")))
}

/// A mandatory field of a manually deserialized payload.
fn required_field<T: Deserialize>(
    entries: &[(String, Value)],
    key: &str,
    what: &str,
) -> Result<T, SerdeError> {
    let value = Value::map_get(entries, key)
        .ok_or_else(|| SerdeError::custom(format!("missing field {key:?} in {what}")))?;
    T::from_value(value)
}

/// An optional field: absent and `null` both mean `None`, so pre-fleet
/// requests (which never sent the field) keep parsing unchanged.
fn optional_field<T: Deserialize>(
    entries: &[(String, Value)],
    key: &str,
) -> Result<Option<T>, SerdeError> {
    match Value::map_get(entries, key) {
        None | Some(Value::Null) => Ok(None),
        Some(value) => T::from_value(value).map(Some),
    }
}

/// The single `(key, value)` entry of a protocol envelope.
fn single_entry<'v>(value: &'v Value, what: &str) -> Result<(&'v str, &'v Value), SerdeError> {
    let entries = value.as_map().ok_or_else(|| {
        SerdeError::custom(format!("expected a single-entry object for a {what}"))
    })?;
    match entries {
        [(key, payload)] => Ok((key.as_str(), payload)),
        _ => Err(SerdeError::custom(format!(
            "expected exactly one verb key in a {what}, found {} entries",
            entries.len()
        ))),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_engine::delta::DeltaStats;
    use pdb_obs::snapshot::{SampleKind, SeriesSample};

    fn round_trip_request(req: &Request) {
        let json = encode(req).unwrap();
        let back = decode_request(&json).unwrap();
        assert_eq!(&back, req, "via {json}");
    }

    fn round_trip_response(resp: &Response) {
        let json = encode(resp).unwrap();
        let back = decode_response(&json).unwrap();
        assert_eq!(&back, resp, "via {json}");
    }

    #[test]
    fn every_request_verb_round_trips() {
        for request in every_request_verb() {
            round_trip_request(&request);
        }
    }

    /// One request of every verb (two for `create_session`, whose
    /// `session` is optional, and three for `apply_mutation`).
    fn every_request_verb() -> Vec<Request> {
        vec![
            Request::CreateSession(CreateSession {
                dataset: DatasetSpec::Synthetic { tuples: 1000 },
                probe_cost: 2,
                probe_success: 0.8,
                session: None,
            }),
            Request::CreateSession(CreateSession {
                dataset: DatasetSpec::Udb1,
                probe_cost: 1,
                probe_success: 0.8,
                session: Some(41),
            }),
            Request::RegisterQuery(RegisterQuery {
                session: 7,
                query: TopKQuery::PTk { k: 15, threshold: 0.1 },
                weight: 1.5,
            }),
            Request::Evaluate(SessionRef { session: 7 }),
            Request::Quality(SessionRef { session: 7 }),
            Request::RecommendProbe(SessionRef { session: 7 }),
            Request::ApplyProbe(ApplyMutation::new(
                7,
                3,
                XTupleMutation::CollapseToAlternative { keep_pos: 12 },
            )),
            Request::ApplyMutation(ApplyMutation::new(
                7,
                4,
                XTupleMutation::Insert {
                    key: "s9".to_string(),
                    alternatives: vec![(4.5, 0.5), (3.0, 0.25)],
                },
            )),
            Request::ApplyMutation(ApplyMutation::new(7, 2, XTupleMutation::Remove)),
            Request::DropSession(SessionRef { session: 7 }),
            Request::Persist(SessionRef { session: 7 }),
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
        ]
    }

    #[test]
    fn optional_session_ids_stay_off_the_wire_when_unset() {
        // Pre-fleet JSON (no `session` key) keeps parsing, and `None`
        // round-trips *without* emitting the key — old servers would
        // reject an always-present null.
        let req = Request::CreateSession(CreateSession {
            dataset: DatasetSpec::Udb1,
            probe_cost: 1,
            probe_success: 0.8,
            session: None,
        });
        let json = encode(&req).unwrap();
        assert!(!json.contains("\"session\""), "{json}");
        let parsed = decode_request(
            "{\"create_session\": {\"dataset\": \"Udb1\", \"probe_cost\": 1, \
             \"probe_success\": 0.8}}",
        )
        .unwrap();
        assert_eq!(parsed, req);
        // An explicit null is also `None`.
        let parsed = decode_request(
            "{\"create_session\": {\"dataset\": \"Udb1\", \"probe_cost\": 1, \
             \"probe_success\": 0.8, \"session\": null}}",
        )
        .unwrap();
        assert_eq!(parsed, req);
        // Missing mandatory fields still error with context.
        let err = decode_request("{\"create_session\": {\"dataset\": \"Udb1\"}}").unwrap_err();
        assert!(err.to_string().contains("probe_cost"), "{err}");
        let err = decode_request(
            "{\"create_session\": {\"dataset\": {\"Snapshot\": {}}, \"probe_cost\": 1, \
             \"probe_success\": 0.8}}",
        )
        .unwrap_err();
        assert!(err.to_string().contains("path"), "{err}");
    }

    #[test]
    fn every_response_kind_round_trips() {
        for response in every_response_kind() {
            round_trip_response(&response);
        }
    }

    /// One response of every kind (two for the kinds with optional parts).
    fn every_response_kind() -> Vec<Response> {
        vec![
            Response::SessionCreated(SessionCreated { session: 1, tuples: 7, x_tuples: 4 }),
            Response::QueryRegistered(QueryRegistered { session: 1, index: 0, k_max: 15 }),
            Response::Answers(Answers { answers: Vec::new() }),
            Response::QualityReport(QualityReport {
                qualities: vec![-2.55, -1.0],
                weights: vec![1.0, 0.5],
                aggregate: -3.05,
                g: vec![-1.0, -2.05],
            }),
            // Floats outside [1e-4, 1e16) travel in exponent form.
            Response::QualityReport(QualityReport {
                qualities: vec![-2.551325921692723],
                weights: vec![1.0],
                aggregate: -2.551325921692723,
                g: vec![-0.9709505944546685, 1e-7, -0.0, 0.0, -2.5e-300, 1e16],
            }),
            Response::ProbeRecommendation(ProbeAdvice {
                recommendation: Some(ProbeRecommendation { x_tuple: 2, expected_gain: 0.56 }),
            }),
            Response::ProbeRecommendation(ProbeAdvice { recommendation: None }),
            Response::ProbeApplied(ProbeApplied::new(
                1,
                BatchCollapseUpdate {
                    qualities: vec![-1.85],
                    aggregate: -1.85,
                    aggregate_delta: 0.7,
                    g: vec![0.0, -1.85],
                    stats: DeltaStats::default(),
                },
            )),
            Response::SessionDropped(SessionRef { session: 1 }),
            Response::Persisted(Persisted {
                session: 1,
                snapshot: "snapshot-1-3.pdbs".to_string(),
                tuples: 7,
                probes: 2,
            }),
            Response::Stats(ServerStats {
                sessions_live: 1,
                sessions_created: 2,
                requests_served: 10,
                probes_applied: 3,
                shards: 8,
                threads: 4,
                durable: true,
                connect_retries: 5,
                flush_error: None,
                sessions: vec![SessionStat { session: 1, age_ms: 1234, queries: 2, probes: 3 }],
                next_session_id: Some(3),
            }),
            Response::Stats(ServerStats {
                sessions_live: 0,
                sessions_created: 0,
                requests_served: 1,
                probes_applied: 0,
                shards: 1,
                threads: 1,
                durable: true,
                connect_retries: 0,
                flush_error: Some("syncing wal.log: disk gone".to_string()),
                sessions: Vec::new(),
                next_session_id: None,
            }),
            Response::Metrics(MetricsReply {
                series: vec![
                    SeriesSample::scalar("engine_psr_runs_total", SampleKind::Counter, 3),
                    SeriesSample::histogram(
                        "server_request_latency_ns",
                        2,
                        1025,
                        &[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1],
                    )
                    .labeled("verb", "evaluate"),
                ],
            }),
            Response::ShuttingDown,
            Response::error("boom"),
        ]
    }

    /// The line of each entry of `every_request_verb()`, byte for byte.
    const GOLDEN_REQUESTS: [&str; 14] = [
        r#"{"create_session":{"dataset":{"Synthetic":{"tuples":1000}},"probe_cost":2,"probe_success":0.8}}"#,
        r#"{"create_session":{"dataset":"Udb1","probe_cost":1,"probe_success":0.8,"session":41}}"#,
        r#"{"register_query":{"session":7,"query":{"PTk":{"k":15,"threshold":0.1}},"weight":1.5}}"#,
        r#"{"evaluate":{"session":7}}"#,
        r#"{"quality":{"session":7}}"#,
        r#"{"recommend_probe":{"session":7}}"#,
        r#"{"apply_probe":{"session":7,"x_tuple":3,"mutation":{"CollapseToAlternative":{"keep_pos":12}},"mode":"delta"}}"#,
        r#"{"apply_mutation":{"session":7,"x_tuple":4,"mutation":{"Insert":{"key":"s9","alternatives":[[4.5,0.5],[3.0,0.25]]}},"mode":"delta"}}"#,
        r#"{"apply_mutation":{"session":7,"x_tuple":2,"mutation":"Remove","mode":"delta"}}"#,
        r#"{"drop_session":{"session":7}}"#,
        r#"{"persist":{"session":7}}"#,
        r#"{"stats":{}}"#,
        r#"{"metrics":{}}"#,
        r#"{"shutdown":{}}"#,
    ];

    /// The line of each entry of `every_response_kind()`, byte for byte.
    const GOLDEN_RESPONSES: [&str; 15] = [
        r#"{"session_created":{"session":1,"tuples":7,"x_tuples":4}}"#,
        r#"{"query_registered":{"session":1,"index":0,"k_max":15}}"#,
        r#"{"answers":{"answers":[]}}"#,
        r#"{"quality_report":{"qualities":[-2.55,-1.0],"weights":[1.0,0.5],"aggregate":-3.05,"g":[-1.0,-2.05]}}"#,
        r#"{"quality_report":{"qualities":[-2.551325921692723],"weights":[1.0],"aggregate":-2.551325921692723,"g":[-0.9709505944546685,1e-7,-0.0,0.0,-2.5e-300,1e16]}}"#,
        r#"{"probe_recommendation":{"recommendation":{"x_tuple":2,"expected_gain":0.56}}}"#,
        r#"{"probe_recommendation":{"recommendation":null}}"#,
        r#"{"probe_applied":{"session":1,"mode":"delta","update":{"qualities":[-1.85],"aggregate":-1.85,"aggregate_delta":0.7,"g":[0.0,-1.85],"stats":{"rows_copied":0,"rows_swapped":0,"rows_rebuilt":0,"rows_dropped":0,"windowed_scans":0}}}}"#,
        r#"{"session_dropped":{"session":1}}"#,
        r#"{"persisted":{"session":1,"snapshot":"snapshot-1-3.pdbs","tuples":7,"probes":2}}"#,
        r#"{"stats":{"sessions_live":1,"sessions_created":2,"requests_served":10,"probes_applied":3,"shards":8,"threads":4,"durable":true,"connect_retries":5,"sessions":[{"session":1,"age_ms":1234,"queries":2,"probes":3}],"next_session_id":3}}"#,
        r#"{"stats":{"sessions_live":0,"sessions_created":0,"requests_served":1,"probes_applied":0,"shards":1,"threads":1,"durable":true,"connect_retries":0,"flush_error":"syncing wal.log: disk gone","sessions":[],"next_session_id":null}}"#,
        r#"{"metrics":{"series":[{"name":"engine_psr_runs_total","kind":"counter","label_key":"","label_value":"","value":3,"sum":0,"buckets":[]},{"name":"server_request_latency_ns","kind":"histogram","label_key":"verb","label_value":"evaluate","value":2,"sum":1025,"buckets":[0,1,0,0,0,0,0,0,0,0,0,1]}]}}"#,
        r#"{"shutting_down":{}}"#,
        r#"{"error":{"message":"boom"}}"#,
    ];

    /// Requests and replies keep their exact bytes: clients, the router's
    /// relay and journalled lines see text, not values.
    #[test]
    fn every_request_and_response_encodes_to_its_golden_line() {
        let requests = every_request_verb();
        assert_eq!(requests.len(), GOLDEN_REQUESTS.len());
        for (request, golden) in requests.iter().zip(GOLDEN_REQUESTS) {
            assert_eq!(encode(request).unwrap(), golden);
        }
        let responses = every_response_kind();
        assert_eq!(responses.len(), GOLDEN_RESPONSES.len());
        for (response, golden) in responses.iter().zip(GOLDEN_RESPONSES) {
            assert_eq!(encode(response).unwrap(), golden);
            assert_eq!(encode_reply(response), golden);
        }
    }

    #[test]
    fn answers_and_escaped_error_messages_encode_to_their_golden_lines() {
        use pdb_core::TupleId;
        use pdb_engine::queries::{AnswerTuple, TupleSetAnswer, UKRanksAnswer};
        let tuple = |position, id, prob| AnswerTuple { position, id: TupleId(id), prob };
        // U-kRanks with an unreachable rank, then a PT-k and a
        // Global-topk tuple set.
        let answers = Response::Answers(Answers {
            answers: vec![
                QueryAnswer::UKRanks(UKRanksAnswer {
                    winners: vec![Some(tuple(1, 4, 0.42)), Some(tuple(1, 4, 0.28)), None],
                }),
                QueryAnswer::TupleSet(TupleSetAnswer {
                    tuples: vec![
                        tuple(0, 2, 0.4),
                        tuple(1, 4, 0.7),
                        tuple(3, 6, 0.43200000000000005),
                    ],
                }),
                QueryAnswer::TupleSet(TupleSetAnswer {
                    tuples: vec![tuple(1, 4, 0.7), tuple(9999, 10_000, 1e-7)],
                }),
            ],
        });
        assert_eq!(
            encode_reply(&answers),
            r#"{"answers":{"answers":[{"UKRanks":{"winners":[{"position":1,"id":4,"prob":0.42},{"position":1,"id":4,"prob":0.28},null]}},{"TupleSet":{"tuples":[{"position":0,"id":2,"prob":0.4},{"position":1,"id":4,"prob":0.7},{"position":3,"id":6,"prob":0.43200000000000005}]}},{"TupleSet":{"tuples":[{"position":1,"id":4,"prob":0.7},{"position":9999,"id":10000,"prob":1e-7}]}}]}}"#
        );
        // Quotes, backslashes and control characters are escaped;
        // non-ASCII text and U+007F pass through as UTF-8.
        for (message, golden) in [
            (
                "bad \"x\" at C:\\tmp\nnext\u{1} line: température 温度 😀",
                r#"{"error":{"message":"bad \"x\" at C:\\tmp\nnext\u0001 line: température 温度 😀"}}"#,
            ),
            (
                "tab\there\r\u{8}\u{c}\u{1f}\u{7f}/",
                "{\"error\":{\"message\":\"tab\\there\\r\\b\\f\\u001f\u{7f}/\"}}",
            ),
        ] {
            assert_eq!(encode_reply(&Response::error(message)), golden);
        }
    }

    /// `serde_json::validate` accepts `line` exactly when the decoder's
    /// `from_str::<Value>` does.
    fn check_agrees(line: &str) -> Result<(), String> {
        let validated = serde_json::validate(line).is_ok();
        let parsed = serde_json::from_str::<Value>(line).is_ok();
        if validated == parsed {
            Ok(())
        } else {
            Err(format!("validate ok = {validated}, from_str ok = {parsed} on {line:?}"))
        }
    }

    /// Every reply line a server sends, every prefix of it (a reply that
    /// EOF cut short), and every single-byte replacement or deletion.
    #[test]
    fn validate_agrees_with_from_str_on_replies_their_truncations_and_byte_mutations() {
        const REPLACEMENTS: &[u8] = b"{}[]\":,.-+0e\\u x";
        for response in every_response_kind() {
            let line = encode(&response).unwrap();
            serde_json::validate(&line).unwrap();
            for cut in 0..line.len() {
                check_agrees(&line[..cut]).unwrap();
            }
            for at in 0..line.len() {
                let mut deleted = line.clone().into_bytes();
                deleted.remove(at);
                check_agrees(&String::from_utf8(deleted).unwrap()).unwrap();
                for &byte in REPLACEMENTS {
                    let mut mutated = line.clone().into_bytes();
                    mutated[at] = byte;
                    check_agrees(&String::from_utf8(mutated).unwrap()).unwrap();
                }
            }
        }
    }

    /// The relay's line check (`serde_json::validate`) and the reply
    /// decoder refuse a reply nested past 128 levels with the same error,
    /// and the check keeps no stack while it scans.
    #[test]
    fn check_line_refuses_nesting_past_128_levels() {
        // An error reply whose message is an array `depth` levels deep;
        // the envelope adds two levels.
        let reply = |depth: usize| {
            format!("{{\"error\":{{\"message\":{}{}}}}}", "[".repeat(depth), "]".repeat(depth))
        };
        serde_json::validate(&reply(126)).unwrap();
        let wide = format!(
            "{{\"error\":{{\"message\":[{}]}}}}",
            vec!["[".repeat(125) + &"]".repeat(125); 3].join(",")
        );
        serde_json::validate(&wide).unwrap();
        for deep in [reply(127), "{\"error\":{\"message\":".to_string() + &"[".repeat(10_000)] {
            let err = serde_json::validate(&deep).unwrap_err();
            assert!(err.to_string().contains("recursion limit exceeded"), "{err}");
            let err = decode_response(&deep).unwrap_err();
            assert!(err.to_string().contains("recursion limit exceeded"), "{err}");
            check_agrees(&deep).unwrap();
        }
        // A 10,000-deep reply is refused on a thread whose stack could
        // not hold 10,000 frames.
        let deep = reply(10_000);
        let refused = std::thread::Builder::new()
            .stack_size(32 * 1024)
            .spawn(move || serde_json::validate(&deep).is_err())
            .unwrap()
            .join()
            .unwrap();
        assert!(refused);
    }

    /// Tokens random lines are drawn from: JSON's punctuation, literals,
    /// number and escape pieces, whitespace, and a multi-byte character.
    const TOKENS: &[&str] = &[
        "{", "}", "[", "]", "\"", ":", ",", " ", "\t", "0", "7", "-", "+", ".", "e", "E", "\\",
        "u", "d83d", "de00", "00e9", "n", "null", "true", "false", "\"a\"", "é", "x",
    ];

    proptest::proptest! {
        #![proptest_config(proptest::ProptestConfig::with_cases(2048))]

        #[test]
        fn validate_agrees_with_from_str_on_random_lines(
            picks in proptest::collection::vec(0..TOKENS.len(), 0..40)
        ) {
            let line: String = picks.iter().map(|&i| TOKENS[i]).collect();
            proptest::prop_assert_eq!(check_agrees(&line), Ok(()));
        }

        #[test]
        fn validate_agrees_with_from_str_on_mutated_replies(
            kind in 0..15usize,
            edits in proptest::collection::vec((0..4096usize, 0..TOKENS.len()), 1..4)
        ) {
            let responses = every_response_kind();
            let mut line = encode(&responses[kind % responses.len()]).unwrap();
            for (at, token) in edits {
                let at = at % (line.len() + 1);
                // Every reply line is ASCII, and so every offset a
                // char boundary until a multi-byte token lands.
                if line.is_char_boundary(at) {
                    line.insert_str(at, TOKENS[token]);
                }
            }
            proptest::prop_assert_eq!(check_agrees(&line), Ok(()));
        }
    }

    #[test]
    fn payloadless_verbs_parse_from_bare_strings() {
        assert_eq!(decode_request("\"stats\"").unwrap(), Request::Stats);
        assert_eq!(decode_request("\"metrics\"").unwrap(), Request::Metrics);
        assert_eq!(decode_request("\"shutdown\"").unwrap(), Request::Shutdown);
        assert_eq!(decode_request("{\"stats\": {}}").unwrap(), Request::Stats);
        assert_eq!(decode_request("{\"metrics\": {}}").unwrap(), Request::Metrics);
    }

    #[test]
    fn stats_without_flush_error_keep_parsing_and_omit_the_key() {
        // Pre-observability stats JSON (no `flush_error` key) must keep
        // parsing, and a healthy server's reply must not grow the key.
        let json = "{\"stats\": {\"sessions_live\": 0, \"sessions_created\": 0, \
                    \"requests_served\": 1, \"probes_applied\": 0, \"shards\": 1, \
                    \"threads\": 1, \"durable\": false, \"connect_retries\": 0, \
                    \"sessions\": []}}";
        let parsed = decode_response(json).unwrap();
        match &parsed {
            Response::Stats(stats) => assert_eq!(stats.flush_error, None),
            other => panic!("expected stats, got {}", other.kind()),
        }
        let encoded = encode(&parsed).unwrap();
        assert!(!encoded.contains("flush_error"), "{encoded}");
    }

    /// The `metrics` reply is pdb-obs's snapshot on the wire: one counter
    /// and one histogram series encode exactly as the field-by-field
    /// wire mirror this replaced did, and a kind this build does not know
    /// fails at decode instead of merging under a wrong rule.
    #[test]
    fn metrics_replies_convert_to_mergeable_snapshots() {
        let counter = "{\"name\":\"engine_psr_runs_total\",\"kind\":\"counter\",\
                       \"label_key\":\"\",\"label_value\":\"\",\"value\":3,\"sum\":0,\
                       \"buckets\":[]}";
        let histogram = "{\"name\":\"server_request_latency_ns\",\"kind\":\"histogram\",\
                         \"label_key\":\"verb\",\"label_value\":\"evaluate\",\"value\":2,\
                         \"sum\":1025,\"buckets\":[0,1,0,0,0,0,0,0,0,0,0,1]}";
        let line = format!("{{\"metrics\":{{\"series\":[{counter},{histogram}]}}}}");
        let reply = Response::Metrics(MetricsReply {
            series: vec![
                SeriesSample::scalar("engine_psr_runs_total", SampleKind::Counter, 3),
                SeriesSample::histogram(
                    "server_request_latency_ns",
                    2,
                    1025,
                    &[0, 1, 0, 0, 0, 0, 0, 0, 0, 0, 0, 1, 0, 0],
                )
                .labeled("verb", "evaluate"),
            ],
        });
        assert_eq!(encode(&reply).unwrap(), line);
        assert_eq!(decode_response(&line).unwrap(), reply);
        let bad = line.replace("\"counter\"", "\"tachometer\"");
        let err = decode_response(&bad).unwrap_err();
        assert!(err.to_string().contains("tachometer"), "{err}");
    }

    #[test]
    fn every_wire_verb_has_a_metrics_label() {
        // The per-verb request counters/histograms in pdb-obs use a fixed
        // label set; a verb missing from it would silently fold into the
        // "other" catch-all cell.  Keep the two lists in lockstep.
        let requests = [
            Request::CreateSession(CreateSession {
                dataset: DatasetSpec::Synthetic { tuples: 10 },
                probe_cost: 1,
                probe_success: 0.8,
                session: None,
            }),
            Request::RegisterQuery(RegisterQuery {
                session: 0,
                query: TopKQuery::PTk { k: 5, threshold: 0.1 },
                weight: 1.0,
            }),
            Request::Evaluate(SessionRef { session: 0 }),
            Request::Quality(SessionRef { session: 0 }),
            Request::RecommendProbe(SessionRef { session: 0 }),
            Request::ApplyMutation(ApplyMutation::new(0, 0, XTupleMutation::Remove)),
            Request::ApplyProbe(ApplyMutation::new(0, 0, XTupleMutation::CollapseToNull)),
            Request::DropSession(SessionRef { session: 0 }),
            Request::Persist(SessionRef { session: 0 }),
            Request::Stats,
            Request::Metrics,
            Request::Shutdown,
        ];
        for req in &requests {
            assert!(
                pdb_obs::metrics::VERB_LABELS.contains(&req.verb()),
                "verb {} is missing from pdb_obs::metrics::VERB_LABELS",
                req.verb()
            );
        }
        // Every non-catch-all label must correspond to a real verb, too.
        let verbs: Vec<&str> = requests.iter().map(|r| r.verb()).collect();
        for label in pdb_obs::metrics::VERB_LABELS {
            assert!(
                *label == "other" || verbs.contains(label),
                "VERB_LABELS entry {label} does not match any wire verb"
            );
        }
    }

    #[test]
    fn eval_mode_uses_lowercase_wire_names() {
        assert_eq!(encode(&EvalMode::Delta).unwrap(), "\"delta\"");
        assert!(serde_json::from_str::<EvalMode>("\"Delta\"").is_err());
        // The full rebuild is an in-process oracle, not a wire mode.
        assert!(serde_json::from_str::<EvalMode>("\"rebuild\"").is_err());
    }

    #[test]
    fn malformed_requests_are_rejected_with_context() {
        assert!(decode_request("{}").is_err());
        assert!(decode_request("{\"evaluate\": {}, \"quality\": {}}").is_err());
        assert!(decode_request("{\"bogus\": {}}").is_err());
        // `create_session` over a snapshot spec opens a session from a
        // file; there is no second verb for it.
        let err = decode_request(
            "{\"restore\": {\"snapshot\": \"/tmp/db.pdbs\", \"probe_cost\": 1, \
             \"probe_success\": 0.8}}",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown request verb \"restore\""), "{err}");
        // No verb hands out a store file's bytes.
        let err = decode_request(
            "{\"fetch_chunk\": {\"snapshot\": \"snapshot-1-2.pdbs\", \"offset\": 0, \
             \"max_len\": 65536}}",
        )
        .unwrap_err();
        assert!(err.to_string().contains("unknown request verb \"fetch_chunk\""), "{err}");
        assert!(decode_request("\"evaluate\"").is_err());
        assert!(decode_request("not json").is_err());
    }

    #[test]
    fn dataset_specs_build_and_round_trip() {
        use pdb_gen::spec::build_dataset;
        for spec in [
            DatasetSpec::Udb1,
            DatasetSpec::Synthetic { tuples: 100 },
            DatasetSpec::Mov { x_tuples: 20 },
            DatasetSpec::Inline { x_tuples: vec![vec![(1.0, 0.5), (2.0, 0.5)], vec![(3.0, 1.0)]] },
        ] {
            let db = build_dataset(&spec).unwrap();
            assert!(!db.is_empty());
            let json = encode(&spec).unwrap();
            let back: DatasetSpec = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec);
        }
        assert_eq!(build_dataset(&DatasetSpec::Udb1).unwrap().len(), 7);
        // Generated datasets are deterministic: clients can mirror them.
        let a = build_dataset(&DatasetSpec::Synthetic { tuples: 200 }).unwrap();
        let b = build_dataset(&DatasetSpec::Synthetic { tuples: 200 }).unwrap();
        assert_eq!(a.len(), b.len());
        for pos in 0..a.len() {
            assert_eq!(a.tuple(pos).score.to_bits(), b.tuple(pos).score.to_bits());
            assert_eq!(a.tuple(pos).prob.to_bits(), b.tuple(pos).prob.to_bits());
        }
    }
}
