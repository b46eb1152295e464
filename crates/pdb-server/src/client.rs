//! Blocking client for the newline-delimited JSON protocol.
//!
//! One [`Client`] wraps one TCP connection; [`Client::call`] sends a
//! request line and reads the matching response line.  The typed
//! convenience methods unwrap the expected response kind and surface
//! `{"error": ...}` replies as [`ClientError::Server`].

use crate::protocol::{
    self, Answers, ApplyMutation, CreateSession, DatasetSpec, MetricsReply, Persisted, ProbeAdvice,
    ProbeApplied, QualityReport, QueryRegistered, RegisterQuery, Request, Response, ServerStats,
    SessionCreated, SessionRef, MAX_LINE,
};
use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::TopKQuery;
use std::fmt;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Why a client call failed.
#[derive(Debug)]
pub enum ClientError {
    /// The connection failed or closed mid-call.
    Io(std::io::Error),
    /// The server's bytes did not parse as a protocol response, or the
    /// response kind did not match the request.
    Protocol(String),
    /// The server answered with `{"error": ...}`.
    Server(String),
}

impl fmt::Display for ClientError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ClientError::Io(err) => write!(f, "connection error: {err}"),
            ClientError::Protocol(msg) => write!(f, "protocol error: {msg}"),
            ClientError::Server(msg) => write!(f, "server error: {msg}"),
        }
    }
}

impl std::error::Error for ClientError {}

impl From<std::io::Error> for ClientError {
    fn from(err: std::io::Error) -> Self {
        ClientError::Io(err)
    }
}

/// How [`Client::connect_with`] treats a server that is slow to accept:
/// a per-attempt connect timeout, a bounded number of attempts, and a
/// jittered exponential backoff between them.  A dead shard then costs a
/// caller at most `attempts × connect_timeout` plus the backoffs —
/// bounded — instead of hanging in the kernel's default connect timeout
/// or erroring on the first refused SYN while the shard is mid-restart.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RetryPolicy {
    /// Per-attempt connect timeout.
    pub connect_timeout: Duration,
    /// Total connect attempts (clamped to at least 1).
    pub attempts: u32,
    /// Backoff before the second attempt; later attempts double it
    /// (capped at 64×) and jitter keeps retrying clients from
    /// stampeding a restarting shard in lockstep.
    pub base_backoff: Duration,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        Self {
            connect_timeout: Duration::from_secs(2),
            attempts: 5,
            base_backoff: Duration::from_millis(20),
        }
    }
}

/// A connected protocol client.
#[derive(Debug)]
pub struct Client {
    reader: BufReader<TcpStream>,
    writer: BufWriter<TcpStream>,
    /// Connect attempts beyond the first that this connection needed
    /// (see [`connect_with`](Self::connect_with)); a fleet router sums
    /// these into the `connect_retries` stats counter.
    retries: u64,
}

impl Client {
    /// Connect to a running server (single attempt, OS default timeout).
    pub fn connect(addr: impl ToSocketAddrs) -> std::io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        Self::from_stream(stream)
    }

    /// Connect with a per-attempt timeout and bounded, jittered retry on
    /// transient connect failures (refused while a shard restarts,
    /// unreachable, timed out).  Returns the last error once the attempt
    /// budget is spent.
    pub fn connect_with(addr: impl ToSocketAddrs, policy: &RetryPolicy) -> std::io::Result<Self> {
        let attempts = policy.attempts.max(1);
        let mut last_err = None;
        for attempt in 0..attempts {
            if attempt > 0 {
                std::thread::sleep(jittered_backoff(policy.base_backoff, attempt));
            }
            match Self::connect_once(&addr, policy.connect_timeout) {
                Ok(mut client) => {
                    client.retries = u64::from(attempt);
                    return Ok(client);
                }
                Err(err) => last_err = Some(err),
            }
        }
        // pdb-analyze: allow(panic-path): attempts >= 1, so the loop ran and set last_err
        Err(last_err.unwrap())
    }

    /// One connect attempt across every resolved address.
    fn connect_once(addr: &impl ToSocketAddrs, timeout: Duration) -> std::io::Result<Client> {
        let mut last_err = None;
        for sock_addr in addr.to_socket_addrs()? {
            match TcpStream::connect_timeout(&sock_addr, timeout) {
                Ok(stream) => return Self::from_stream(stream),
                Err(err) => last_err = Some(err),
            }
        }
        Err(last_err.unwrap_or_else(|| {
            std::io::Error::new(std::io::ErrorKind::InvalidInput, "address resolved to nothing")
        }))
    }

    fn from_stream(stream: TcpStream) -> std::io::Result<Self> {
        // pdb-analyze: allow(error-swallow): latency knob only; correctness does not depend on it
        let _ = stream.set_nodelay(true);
        let read_half = stream.try_clone()?;
        Ok(Self { reader: BufReader::new(read_half), writer: BufWriter::new(stream), retries: 0 })
    }

    /// Connect attempts beyond the first this connection needed.
    pub fn connect_retries(&self) -> u64 {
        self.retries
    }

    /// Send one request and read its response: [`call_line`](Self::call_line)
    /// between encoding the request and decoding the reply.
    pub fn call(&mut self, request: &Request) -> Result<Response, ClientError> {
        let line = protocol::encode(request)
            .map_err(|err| ClientError::Protocol(format!("encoding request failed: {err}")))?;
        let reply = self.call_line(&line)?;
        protocol::decode_response(reply.trim_end())
            .map_err(|err| ClientError::Protocol(format!("parsing response failed: {err}")))
    }

    /// Send one request line (no newline) and return the reply line as
    /// the server wrote it, without its newline and without decoding it;
    /// the fleet router relays shard replies this way.  A connection
    /// closed before any reply byte is [`ClientError::Io`].  A reply line
    /// that EOF cut short, one that reaches [`MAX_LINE`] bytes without
    /// its newline (read no further), and one that is not UTF-8 are
    /// [`ClientError::Protocol`], since their bytes are not a whole reply.
    pub fn call_line(&mut self, line: &str) -> Result<String, ClientError> {
        self.writer.write_all(line.as_bytes())?;
        self.writer.write_all(b"\n")?;
        self.writer.flush()?;
        let mut reply = Vec::new();
        (&mut self.reader).take(MAX_LINE as u64).read_until(b'\n', &mut reply)?;
        match reply.last() {
            None => Err(ClientError::Io(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                "server closed the connection",
            ))),
            Some(b'\n') => {
                reply.pop();
                String::from_utf8(reply)
                    .map_err(|err| ClientError::Protocol(format!("reply line is not UTF-8: {err}")))
            }
            Some(_) if reply.len() >= MAX_LINE => {
                Err(ClientError::Protocol(format!("reply line exceeds {MAX_LINE} bytes")))
            }
            Some(_) => Err(ClientError::Protocol(format!(
                "reply cut short after {} bytes: the server closed the connection mid-line",
                reply.len()
            ))),
        }
    }

    /// `create_session`: open a session over `dataset` with uniform probe
    /// cost / success probability.
    pub fn create_session(
        &mut self,
        dataset: DatasetSpec,
        probe_cost: u64,
        probe_success: f64,
    ) -> Result<SessionCreated, ClientError> {
        match self.call(&Request::CreateSession(CreateSession {
            dataset,
            probe_cost,
            probe_success,
            session: None,
        }))? {
            Response::SessionCreated(created) => Ok(created),
            other => Err(unexpected("session_created", &other)),
        }
    }

    /// `register_query`: add a weighted query to the session.
    pub fn register_query(
        &mut self,
        session: u64,
        query: TopKQuery,
        weight: f64,
    ) -> Result<QueryRegistered, ClientError> {
        match self.call(&Request::RegisterQuery(RegisterQuery { session, query, weight }))? {
            Response::QueryRegistered(registered) => Ok(registered),
            other => Err(unexpected("query_registered", &other)),
        }
    }

    /// `evaluate`: every registered query's answer.
    pub fn evaluate(&mut self, session: u64) -> Result<Answers, ClientError> {
        match self.call(&Request::Evaluate(SessionRef { session }))? {
            Response::Answers(answers) => Ok(answers),
            other => Err(unexpected("answers", &other)),
        }
    }

    /// `quality`: the session's quality report.
    pub fn quality(&mut self, session: u64) -> Result<QualityReport, ClientError> {
        match self.call(&Request::Quality(SessionRef { session }))? {
            Response::QualityReport(report) => Ok(report),
            other => Err(unexpected("quality_report", &other)),
        }
    }

    /// `recommend_probe`: the best next probe, if any.
    pub fn recommend_probe(&mut self, session: u64) -> Result<ProbeAdvice, ClientError> {
        match self.call(&Request::RecommendProbe(SessionRef { session }))? {
            Response::ProbeRecommendation(advice) => Ok(advice),
            other => Err(unexpected("probe_recommendation", &other)),
        }
    }

    /// `apply_mutation`: fold one mutation — a probe outcome or a
    /// streaming insert/remove — into the session.  `x_tuple` is ignored
    /// for [`XTupleMutation::Insert`] (the server resolves the append-only
    /// target itself).
    pub fn apply_mutation(
        &mut self,
        session: u64,
        x_tuple: usize,
        mutation: XTupleMutation,
    ) -> Result<ProbeApplied, ClientError> {
        let request = ApplyMutation::new(session, x_tuple, mutation);
        match self.call(&Request::ApplyMutation(request))? {
            Response::ProbeApplied(applied) => Ok(applied),
            other => Err(unexpected("probe_applied", &other)),
        }
    }

    /// `apply_mutation` with [`XTupleMutation::Insert`]: a brand-new
    /// x-tuple arrives (append-only; the server picks the new x-index and
    /// reports the grown database in the update).
    pub fn insert_x_tuple(
        &mut self,
        session: u64,
        key: impl Into<String>,
        alternatives: Vec<(f64, f64)>,
    ) -> Result<ProbeApplied, ClientError> {
        let mutation = XTupleMutation::Insert { key: key.into(), alternatives };
        self.apply_mutation(session, 0, mutation)
    }

    /// `apply_mutation` with [`XTupleMutation::Remove`]: x-tuple `x_tuple`
    /// departs entirely (no null mass required, unlike a null collapse).
    pub fn remove_x_tuple(
        &mut self,
        session: u64,
        x_tuple: usize,
    ) -> Result<ProbeApplied, ClientError> {
        self.apply_mutation(session, x_tuple, XTupleMutation::Remove)
    }

    /// `drop_session`: discard the session.
    pub fn drop_session(&mut self, session: u64) -> Result<SessionRef, ClientError> {
        match self.call(&Request::DropSession(SessionRef { session }))? {
            Response::SessionDropped(dropped) => Ok(dropped),
            other => Err(unexpected("session_dropped", &other)),
        }
    }

    /// `persist`: checkpoint the session into the server's store.
    pub fn persist(&mut self, session: u64) -> Result<Persisted, ClientError> {
        match self.call(&Request::Persist(SessionRef { session }))? {
            Response::Persisted(persisted) => Ok(persisted),
            other => Err(unexpected("persisted", &other)),
        }
    }

    /// `stats`: server-wide counters.
    pub fn stats(&mut self) -> Result<ServerStats, ClientError> {
        match self.call(&Request::Stats)? {
            Response::Stats(stats) => Ok(stats),
            other => Err(unexpected("stats", &other)),
        }
    }

    /// `metrics`: every registered observability series, as pdb-obs's
    /// mergeable snapshot.
    pub fn metrics(&mut self) -> Result<MetricsReply, ClientError> {
        match self.call(&Request::Metrics)? {
            Response::Metrics(reply) => Ok(reply),
            other => Err(unexpected("metrics", &other)),
        }
    }

    /// `shutdown`: ask the server to drain and stop.
    pub fn shutdown(&mut self) -> Result<(), ClientError> {
        match self.call(&Request::Shutdown)? {
            Response::ShuttingDown => Ok(()),
            other => Err(unexpected("shutting_down", &other)),
        }
    }
}

/// Exponential backoff with full jitter: `base × 2^attempt` (growth
/// capped at 64×), scaled by a random factor in `[0.5, 1.0]` so a fleet
/// of clients retrying a restarting shard spreads out instead of
/// stampeding in lockstep.  The jitter source is SplitMix64 over the
/// clock's sub-second nanos — cheap, dependency-free, and plenty for
/// de-synchronizing sleeps.
fn jittered_backoff(base: Duration, attempt: u32) -> Duration {
    let capped = base.saturating_mul(1u32 << attempt.min(6));
    let nanos = std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| u64::from(d.subsec_nanos()))
        .unwrap_or(0);
    let mut z = nanos.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^= z >> 31;
    let frac = (z >> 11) as f64 / (1u64 << 53) as f64;
    capped.mul_f64(0.5 + 0.5 * frac)
}

/// Map a mismatched (or error) response to the matching [`ClientError`].
fn unexpected(wanted: &str, got: &Response) -> ClientError {
    match got {
        Response::Error(reply) => ClientError::Server(reply.message.clone()),
        other => ClientError::Protocol(format!("expected {wanted:?}, got {:?}", other.kind())),
    }
}
