//! The consistent-hash router: one listener speaking the existing wire
//! protocol, forwarding every request to the shard process that owns it.
//!
//! Every protocol verb has an explicit routing decision (pdb-analyze's
//! `protocol-drift` lint checks this table against the protocol's verb
//! set, so a new verb cannot silently fall through):
//!
//! | Verb | Routing |
//! |------|---------|
//! | `create_session` | router assigns a fleet-wide id, pins it into the request, routes by ring |
//! | `register_query` | by session id over the ring |
//! | `evaluate` | by session id over the ring |
//! | `quality` | by session id over the ring |
//! | `recommend_probe` | by session id over the ring |
//! | `apply_mutation` | by session id over the ring |
//! | `apply_probe` | by session id over the ring |
//! | `drop_session` | by session id over the ring |
//! | `persist` | by session id over the ring |
//! | `stats` | broadcast to every shard, replies merged |
//! | `metrics` | broadcast to every shard, snapshots merged with the router's own |
//! | `shutdown` | the router stops, drains its connections, then shuts every shard down |
//!
//! The router holds no session state of its own — only the id allocator
//! and the ring — so it never becomes a second consistency domain: a
//! session lives exactly where the ring says, and the shard's WAL is the
//! only durability story.
//!
//! **Lines are relayed, not re-encoded.**  The router decodes a request
//! line only to route it: the line goes to the owning shard as it
//! arrived (only `create_session` is re-encoded, with the fleet-wide id
//! pinned into it), and the shard's reply line goes back to the client
//! byte for byte.  Only `stats` and `metrics` replies are decoded, to
//! merge them.  Each relayed reply must pass [`serde_json::validate`],
//! the decoder's own JSON scan run without building a value tree.
//! Forwarding **never panics on a malformed shard reply**: a reply that
//! fails the check, that EOF cut short, or that reaches
//! [`pdb_server::MAX_LINE`] bytes without a newline becomes a `shard N
//! replied malformed: …` error line for the client, and the connection to
//! that shard is dropped.
//!
//! Client connections run through pdb-server's own accept and
//! connection loops ([`pdb_server::accept_connections`],
//! [`pdb_server::serve_connection`]), so persistent clients behave
//! identically against a router and a single server.

use crate::fleet::Fleet;
use crate::ring::HashRing;
use pdb_obs::snapshot::MetricsSnapshot;
use pdb_server::protocol::{self, ServerStats};
use pdb_server::{accept_connections, serve_connection, wake_listener};
use pdb_server::{Client, ClientError, Request, Response, RetryPolicy, SessionIds};
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forward attempts per request: the first try plus one retry after the
/// shard was respawned.  More would stall the client behind a shard that
/// is genuinely gone.
const FORWARD_ATTEMPTS: usize = 2;

/// The most client connections the router serves at once.  Each holds at
/// most one connection per shard, so router connections alone never fill
/// a shard's cap: the rest is left for direct clients and
/// `Fleet::shutdown`.
const MAX_CONNECTIONS: usize = 128;
const _: () = assert!(MAX_CONNECTIONS < pdb_server::MAX_CONNECTIONS);

/// One router connection's connections to the shards, by shard index.
/// One client's requests flow down one TCP stream per shard, so replies
/// never interleave across router connections.
type ShardConns = Vec<Option<Client>>;

/// State shared by every router connection thread.
struct RouterShared {
    fleet: Fleet,
    ring: HashRing,
    /// Fleet-wide session id allocator: the router pins an id into every
    /// `create_session` it forwards, so ids are unique across shards and
    /// the ring can route by them.
    next_id: SessionIds,
    shutdown: AtomicBool,
    /// Connect attempts beyond the first across every shard connection
    /// the router ever made (surfaced as `connect_retries` in merged
    /// stats).
    connect_retries: AtomicU64,
    /// Per-shard connect policy.
    retry: RetryPolicy,
}

/// A bound (but not yet running) fleet router.
pub struct Router {
    listener: TcpListener,
    shared: RouterShared,
}

impl Router {
    /// Bind the router over a spawned fleet.  The session-id allocator
    /// is seeded from the largest `next_session_id` of the shards, which
    /// recovered it from their logs, so no id the fleet ever handed out,
    /// a dropped session's included, is handed out again.  Fails when a
    /// shard's `stats` cannot be read.
    pub fn bind(addr: &str, fleet: Fleet) -> std::io::Result<Self> {
        let listener = TcpListener::bind(addr)?;
        let retry = RetryPolicy::default();
        let mut shared = RouterShared {
            ring: HashRing::with_default_replicas(fleet.len()),
            next_id: SessionIds::starting_at(Some(1)),
            shutdown: AtomicBool::new(false),
            connect_retries: AtomicU64::new(0),
            retry,
            fleet,
        };
        shared.seed_next_id()?;
        Ok(Self { listener, shared })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept and route connections until a `shutdown` request arrives,
    /// then drain, shut the fleet down and return.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let shared = &self.shared;
        accept_connections(&self.listener, &shared.shutdown, MAX_CONNECTIONS, |stream| {
            let mut conns = shared.no_conns();
            let route = |line: &str| shared.route(line, &mut conns, addr);
            // pdb-analyze: allow(error-swallow): a failed reply write only ends this client's connection; the router keeps no metric for it
            let _ = serve_connection(stream, &shared.shutdown, route);
        });
        // Every connection thread has ended, so none forwards to (and
        // respawns) a shard that is stopping.
        shared.fleet.shutdown();
        Ok(())
    }
}

impl RouterShared {
    /// Seed the id allocator from the shards' next ids; a shard with no
    /// id left leaves none to the router either.
    fn seed_next_id(&mut self) -> std::io::Result<()> {
        let mut conns = self.no_conns();
        let mut next = Some(1);
        for shard in self.ring.shards() {
            let stats = self.shard_stats(&mut conns, shard).map_err(std::io::Error::other)?;
            next = next.zip(stats.next_session_id).map(|(ours, theirs)| ours.max(theirs));
        }
        self.next_id = SessionIds::starting_at(next);
        Ok(())
    }

    /// A router connection's shard connections before its first request:
    /// none.
    fn no_conns(&self) -> ShardConns {
        std::iter::repeat_with(|| None).take(self.fleet.len()).collect()
    }

    /// The shard owning `session` (the ring is never empty: a fleet has
    /// at least one shard).
    fn shard_of(&self, session: u64) -> usize {
        self.ring.shard_for(session).unwrap_or(0)
    }

    /// Connect to `shard`.  `ensure` first: a dead shard is respawned —
    /// and recovers its WAL — before the connect.
    fn connect(&self, shard: usize) -> std::io::Result<Client> {
        let addr = self.fleet.ensure(shard)?;
        let client = Client::connect_with(addr, &self.retry)?;
        self.connect_retries.fetch_add(client.connect_retries(), Ordering::Relaxed);
        Ok(client)
    }

    /// Forward one request line to `shard` and return the reply line to
    /// relay (see [`forward_over`]).
    fn forward_line(&self, conns: &mut ShardConns, shard: usize, line: &str) -> String {
        match conns.get_mut(shard) {
            Some(conn) => forward_over(conn, shard, line, || self.connect(shard)),
            None => error_line(format!("shard {shard} is not in the fleet")),
        }
    }

    /// Forward `request` to `shard` and decode the reply: the `stats`
    /// and `metrics` broadcasts, whose replies the router merges.
    fn forward(&self, conns: &mut ShardConns, shard: usize, request: &Request) -> Response {
        let line = match protocol::encode(request) {
            Ok(line) => line,
            Err(err) => return Response::error(format!("encoding request failed: {err}")),
        };
        let reply = self.forward_line(conns, shard, &line);
        protocol::decode_response(&reply).unwrap_or_else(|err| {
            Response::error(format!(
                "shard {shard} replied malformed: parsing response failed: {err}"
            ))
        })
    }

    /// `stats` from `shard`, or why it could not be read.
    fn shard_stats(&self, conns: &mut ShardConns, shard: usize) -> Result<ServerStats, String> {
        match self.forward(conns, shard, &Request::Stats) {
            Response::Stats(stats) => Ok(stats),
            Response::Error(reply) => {
                Err(format!("stats from shard {shard} failed: {}", reply.message))
            }
            other => Err(format!("stats from shard {shard} returned {:?}", other.kind())),
        }
    }

    /// Broadcast `stats` and merge the replies: counters sum, session
    /// lists concatenate (sorted by id), `durable` holds only if every
    /// shard journals, `shards` reports the *fleet's* shard count and
    /// `next_session_id` the router's own next id.
    fn merged_stats(&self, conns: &mut ShardConns) -> Response {
        let mut merged = ServerStats {
            sessions_live: 0,
            sessions_created: 0,
            requests_served: 0,
            probes_applied: 0,
            shards: self.ring.len(),
            threads: 0,
            durable: true,
            connect_retries: self.connect_retries.load(Ordering::Relaxed),
            flush_error: None,
            sessions: Vec::new(),
            next_session_id: self.next_id.next_id(),
        };
        for shard in self.ring.shards() {
            let stats = match self.shard_stats(conns, shard) {
                Ok(stats) => stats,
                Err(err) => return Response::error(err),
            };
            merged.sessions_live += stats.sessions_live;
            merged.sessions_created += stats.sessions_created;
            merged.requests_served += stats.requests_served;
            merged.probes_applied += stats.probes_applied;
            merged.threads += stats.threads;
            merged.durable &= stats.durable;
            merged.connect_retries += stats.connect_retries;
            if merged.flush_error.is_none() {
                if let Some(err) = stats.flush_error {
                    // First degraded shard wins; name it so the operator
                    // knows where to look.
                    merged.flush_error = Some(format!("shard {shard}: {err}"));
                }
            }
            merged.sessions.extend(stats.sessions);
        }
        merged.sessions.sort_by_key(|s| s.session);
        Response::Stats(merged)
    }

    /// Broadcast `metrics` and merge every shard's snapshot with the
    /// router's own series (forward latency, retries, respawns).  The
    /// merge is associative and order-canonical, so the result is
    /// identical no matter which shard replies first.
    fn merged_metrics(&self, conns: &mut ShardConns) -> Response {
        let mut merged = MetricsSnapshot::default();
        for shard in self.ring.shards() {
            match self.forward(conns, shard, &Request::Metrics) {
                Response::Metrics(snapshot) => merged.merge(&snapshot),
                Response::Error(reply) => {
                    return Response::error(format!(
                        "metrics from shard {shard} failed: {}",
                        reply.message
                    ))
                }
                other => {
                    return Response::error(format!(
                        "metrics from shard {shard} returned {:?}",
                        other.kind()
                    ))
                }
            }
        }
        merged.merge(&pdb_obs::metrics::snapshot());
        Response::Metrics(merged)
    }

    /// Route one request line (see the module-level table) and return
    /// the reply line.
    fn route(&self, line: &str, conns: &mut ShardConns, router_addr: SocketAddr) -> String {
        let request = match protocol::decode_request(line) {
            Ok(request) => request,
            Err(err) => return error_line(format!("malformed request: {err}")),
        };
        let target = match request {
            // The shard must see the pinned id, so this is the one
            // request the router re-encodes.
            Request::CreateSession(mut create) => {
                let id = match pin_id(&self.next_id, &mut create.session) {
                    Ok(id) => id,
                    Err(err) => return error_line(err),
                };
                return match protocol::encode(&Request::CreateSession(create)) {
                    Ok(pinned) => self.forward_line(conns, self.shard_of(id), &pinned),
                    Err(err) => error_line(format!("encoding request failed: {err}")),
                };
            }
            Request::RegisterQuery(req) => self.shard_of(req.session),
            Request::Evaluate(req)
            | Request::Quality(req)
            | Request::RecommendProbe(req)
            | Request::DropSession(req)
            | Request::Persist(req) => self.shard_of(req.session),
            Request::ApplyMutation(req) | Request::ApplyProbe(req) => self.shard_of(req.session),
            Request::Stats => return protocol::encode_reply(&self.merged_stats(conns)),
            Request::Metrics => return protocol::encode_reply(&self.merged_metrics(conns)),
            // The fleet shuts down in `Router::run`, once the connection
            // threads drained.
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                wake_listener(router_addr);
                return protocol::encode_reply(&Response::ShuttingDown);
            }
        };
        self.forward_line(conns, target, line)
    }
}

/// Forward one request line to `shard` over `conn`, connecting through
/// `connect` when `conn` holds no connection, and return the reply line
/// to relay.  When the connection died, the forward is retried once over
/// a new one (`connect` respawns a dead shard first).  A retry can
/// re-send a request the dead shard already applied *and journalled*, so
/// callers needing exactly-once during a crash window send idempotent
/// mutations (e.g. `reweight`) — the router guarantees no *loss*, not
/// de-duplication.  A reply that EOF cut short, that reaches
/// [`pdb_server::MAX_LINE`] bytes without a newline, or that is not one
/// JSON value ([`serde_json::validate`]) becomes an error line and drops
/// `conn`: the stream position is unknowable.
fn forward_over(
    conn: &mut Option<Client>,
    shard: usize,
    line: &str,
    mut connect: impl FnMut() -> std::io::Result<Client>,
) -> String {
    // Shards past the fixed label set share the "other" cell; the last
    // SHARD_LABELS entry *is* "other", so indexing covers both.
    let label = pdb_obs::metrics::SHARD_LABELS.get(shard).copied().unwrap_or("other");
    let _span = pdb_obs::metrics::FLEET_FORWARD_LATENCY_NS.with(label).span();
    let mut last_io = None;
    for attempt in 0..FORWARD_ATTEMPTS {
        if attempt > 0 {
            pdb_obs::metrics::FLEET_RETRIES_TOTAL.inc();
        }
        let client = match conn {
            Some(client) => client,
            None => match connect() {
                Ok(client) => conn.insert(client),
                Err(err) => {
                    last_io = Some(err.to_string());
                    continue;
                }
            },
        };
        match relay(client, line) {
            Ok(reply) => return reply,
            Err(ClientError::Io(err)) => {
                // The connection died mid-call; the shard may be gone.
                // Drop it and let the next attempt respawn + reconnect.
                *conn = None;
                last_io = Some(err.to_string());
            }
            Err(ClientError::Protocol(msg) | ClientError::Server(msg)) => {
                *conn = None;
                return error_line(format!("shard {shard} replied malformed: {msg}"));
            }
        }
    }
    error_line(format!(
        "shard {shard} is unavailable: {}",
        last_io.unwrap_or_else(|| "no forward attempts".to_string())
    ))
}

/// Send `line` over `client` and return the reply line once it passed
/// the syntax check.
fn relay(client: &mut Client, line: &str) -> Result<String, ClientError> {
    let reply = client.call_line(line)?;
    serde_json::validate(&reply)
        .map_err(|err| ClientError::Protocol(format!("parsing response failed: {err}")))?;
    Ok(reply)
}

/// The reply line of an error the router answers itself.
fn error_line(message: impl std::fmt::Display) -> String {
    protocol::encode_reply(&Response::error(message))
}

/// Assign a fleet-wide session id if the request has none, and pin it
/// into the request so the shard honors it.  A client-pinned id still
/// bumps the allocator past it; one [`SessionIds::pin`] reserves is
/// refused here, before any shard sees it.
fn pin_id(ids: &SessionIds, session: &mut Option<u64>) -> Result<u64, String> {
    let id = match *session {
        Some(id) => ids.pin(id),
        None => ids.allocate(),
    }
    .map_err(|err| err.to_string())?;
    *session = Some(id);
    Ok(id)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::io::{BufRead, BufReader, Write};

    /// A reply a decode-and-re-encode relay would rewrite: spaces, an
    /// upper-case exponent and a float that is not in shortest form.
    const VALID: &str = "{ \"quality_report\": {\"qualities\": [-2.5], \"weights\": [1.0], \
                         \"aggregate\": -2.5, \"g\": [1E-7, -0.0, 0.10000000000000001]} }";

    #[test]
    fn relayed_lines_pass_byte_for_byte_and_a_malformed_reply_drops_the_connection() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let valid = format!("{VALID}\n");
        // A stand-in shard.  Per accepted connection: the replies it
        // writes, one per request line it reads, and whether it then
        // hangs up.  The second connection's only reply is cut short; the
        // third's reaches the line cap without a newline (a relay that read
        // past the cap would read on to the hang-up and call it cut short).
        let script = [
            (vec![valid.clone(), "{\"answers\":]\n".to_string()], false),
            (vec!["{\"answers\":{\"answ".to_string()], true),
            (vec!["x".repeat(pdb_server::MAX_LINE)], true),
            (vec![valid], false),
        ];
        let shard = std::thread::spawn(move || {
            let mut requests = Vec::new();
            let mut held = Vec::new();
            for (replies, hang_up) in script {
                let (stream, _) = listener.accept().unwrap();
                let mut reader = BufReader::new(stream.try_clone().unwrap());
                let mut writer = stream;
                for reply in replies {
                    let mut request = String::new();
                    reader.read_line(&mut request).unwrap();
                    requests.push(request);
                    writer.write_all(reply.as_bytes()).unwrap();
                }
                if !hang_up {
                    held.push(writer);
                }
            }
            requests
        });

        let line = "{\"quality\":  {\"session\": 7}}";
        let connects = Cell::new(0);
        let connect = || {
            connects.set(connects.get() + 1);
            Client::connect(addr)
        };
        let malformed = |reply: &str| match protocol::decode_response(reply).unwrap() {
            Response::Error(err) => err.message.starts_with("shard 3 replied malformed: "),
            _ => false,
        };
        let mut conn = None;
        assert_eq!(forward_over(&mut conn, 3, line, connect), VALID);
        assert_eq!((connects.get(), conn.is_some()), (1, true));
        // A syntactically broken reply on the same connection.
        let reply = forward_over(&mut conn, 3, line, connect);
        assert!(malformed(&reply), "{reply}");
        assert_eq!((connects.get(), conn.is_some()), (1, false));
        // The next forward reconnects, and EOF cuts its reply short.
        let reply = forward_over(&mut conn, 3, line, connect);
        assert!(malformed(&reply) && reply.contains("cut short"), "{reply}");
        assert_eq!((connects.get(), conn.is_some()), (2, false));
        // A reply that reaches the cap is read no further.
        let reply = forward_over(&mut conn, 3, line, connect);
        assert!(malformed(&reply) && reply.contains("exceeds 16777216 bytes"), "{reply}");
        assert_eq!((connects.get(), conn.is_some()), (3, false));
        let reply = forward_over(&mut conn, 3, line, connect);
        assert_eq!(reply, VALID);
        assert_eq!((connects.get(), conn.is_some()), (4, true));
        // Every request line reached the shard as it was given.
        assert_eq!(shard.join().unwrap(), vec![format!("{line}\n"); 5]);
    }

    #[test]
    fn pin_id_refuses_an_id_without_a_successor() {
        let ids = SessionIds::starting_at(Some(1));
        assert!(pin_id(&ids, &mut Some(u64::MAX)).is_err());
        assert!(pin_id(&ids, &mut Some(0)).is_err());
        // Neither refusal moved (or overflowed) the allocator.
        let mut fresh = None;
        assert_eq!(pin_id(&ids, &mut fresh).unwrap(), 1);
        assert_eq!(fresh, Some(1), "the allocated id is pinned into the request");
        // The largest pinnable id leaves nothing to allocate.
        assert_eq!(pin_id(&ids, &mut Some(u64::MAX - 1)).unwrap(), u64::MAX - 1);
        let err = pin_id(&ids, &mut None).unwrap_err();
        assert!(err.contains("no session id is left"), "{err}");
    }
}
