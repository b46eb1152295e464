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
//! only durability story.  Forwarding **never panics on a malformed
//! shard reply**: every decode failure becomes an `{"error": ...}` line
//! for the client, and the poisoned connection is dropped.
//!
//! Client connections run through pdb-server's own accept and
//! connection loops ([`pdb_server::accept_connections`],
//! [`pdb_server::serve_connection`]), so persistent clients behave
//! identically against a router and a single server.

use crate::fleet::Fleet;
use crate::ring::HashRing;
use pdb_obs::snapshot::MetricsSnapshot;
use pdb_server::protocol::{self, CreateSession, ServerStats};
use pdb_server::{accept_connections, serve_connection, wake_listener};
use pdb_server::{Client, ClientError, Request, Response, RetryPolicy, SessionIds};
use std::collections::hash_map::Entry;
use std::collections::HashMap;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

/// Forward attempts per request: the first try plus one retry after the
/// shard was respawned.  More would stall the client behind a shard that
/// is genuinely gone.
const FORWARD_ATTEMPTS: usize = 2;

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
    /// is seeded past every session the shards recovered from their
    /// stores, so new ids never collide with rehydrated ones.
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
        shared.seed_next_id();
        Ok(Self { listener, shared })
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept and route connections until a `shutdown` request arrives,
    /// then drain, shut the fleet down and return.  Connections are not
    /// limited: the router does no evaluation work of its own, so a
    /// connection's thread is almost always parked on I/O.
    pub fn run(self) -> std::io::Result<()> {
        let addr = self.listener.local_addr()?;
        let shared = &self.shared;
        accept_connections(&self.listener, &shared.shutdown, usize::MAX, |stream| {
            // Shard connections are per-router-connection: one client's
            // requests flow down one TCP stream per shard, so replies can
            // never interleave across router connections.
            let mut clients = HashMap::new();
            let route = |line: &str| match protocol::decode_request(line) {
                Ok(request) => shared.dispatch(request, &mut clients, addr),
                Err(err) => Response::error(format!("malformed request: {err}")),
            };
            // pdb-analyze: allow(error-swallow): a failed reply write only ends this client's connection; the router keeps no metric for it
            let _ = serve_connection(stream, &shared.shutdown, route);
        });
        // Every connection thread has dropped its shard connections, so
        // this router holds no shard's connection slot while it shuts
        // the fleet down.
        shared.fleet.shutdown();
        Ok(())
    }
}

impl RouterShared {
    /// Seed the id allocator from the shards' recovered sessions.
    fn seed_next_id(&mut self) {
        let mut clients = HashMap::new();
        let mut max_seen = 0;
        for shard in self.ring.shards() {
            if let Response::Stats(stats) = self.forward(&mut clients, shard, &Request::Stats) {
                max_seen = stats.sessions.iter().map(|s| s.session).fold(max_seen, u64::max);
            }
        }
        self.next_id = SessionIds::starting_at(max_seen.checked_add(1));
    }

    /// The shard owning `session` (the ring is never empty: a fleet has
    /// at least one shard).
    fn shard_of(&self, session: u64) -> usize {
        self.ring.shard_for(session).unwrap_or(0)
    }

    /// A connected client for `shard`, creating (and caching) one if the
    /// connection map has none.  `ensure` first: a dead shard is
    /// respawned — and recovers its WAL — before the connect.
    fn client_for<'a>(
        &self,
        clients: &'a mut HashMap<usize, Client>,
        shard: usize,
    ) -> Result<&'a mut Client, std::io::Error> {
        match clients.entry(shard) {
            Entry::Occupied(entry) => Ok(entry.into_mut()),
            Entry::Vacant(entry) => {
                let addr = self.fleet.ensure(shard)?;
                let client = Client::connect_with(addr, &self.retry)?;
                self.connect_retries.fetch_add(client.connect_retries(), Ordering::Relaxed);
                Ok(entry.insert(client))
            }
        }
    }

    /// Forward one request to `shard`, retrying once through a respawn
    /// when the connection died.  A retry can re-send a request the dead
    /// shard already applied *and journalled*, so callers needing
    /// exactly-once during a crash window send idempotent mutations
    /// (e.g. `reweight`) — the router guarantees no *loss*, not
    /// de-duplication.
    fn forward(
        &self,
        clients: &mut HashMap<usize, Client>,
        shard: usize,
        request: &Request,
    ) -> Response {
        // Shards past the fixed label set share the "other" cell; the
        // last SHARD_LABELS entry *is* "other", so indexing covers both.
        let label = pdb_obs::metrics::SHARD_LABELS.get(shard).copied().unwrap_or("other");
        let _span = pdb_obs::metrics::FLEET_FORWARD_LATENCY_NS.with(label).span();
        let mut last_io = None;
        for attempt in 0..FORWARD_ATTEMPTS {
            if attempt > 0 {
                pdb_obs::metrics::FLEET_RETRIES_TOTAL.inc();
            }
            let client = match self.client_for(clients, shard) {
                Ok(client) => client,
                Err(err) => {
                    last_io = Some(err.to_string());
                    continue;
                }
            };
            match client.call(request) {
                Ok(response) => return response,
                Err(ClientError::Io(err)) => {
                    // The connection died mid-call; the shard may be
                    // gone.  Drop the cached connection and let the next
                    // attempt respawn + reconnect.
                    clients.remove(&shard);
                    last_io = Some(err.to_string());
                }
                Err(ClientError::Protocol(msg)) => {
                    // The shard replied bytes that do not parse: the
                    // stream position is unknowable, so the connection
                    // is poisoned.  Surface a clean error — never panic.
                    clients.remove(&shard);
                    return Response::error(format!("shard {shard} replied malformed: {msg}"));
                }
                Err(ClientError::Server(msg)) => {
                    return Response::error(format!("shard {shard}: {msg}"))
                }
            }
        }
        Response::error(format!(
            "shard {shard} is unavailable: {}",
            last_io.unwrap_or_else(|| "no forward attempts".to_string())
        ))
    }

    /// Broadcast `stats` and merge the replies: counters sum, session
    /// lists concatenate (sorted by id), `durable` holds only if every
    /// shard journals, and `shards` reports the *fleet's* shard count.
    fn merged_stats(&self, clients: &mut HashMap<usize, Client>) -> Response {
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
        };
        for shard in self.ring.shards() {
            match self.forward(clients, shard, &Request::Stats) {
                Response::Stats(stats) => {
                    merged.sessions_live += stats.sessions_live;
                    merged.sessions_created += stats.sessions_created;
                    merged.requests_served += stats.requests_served;
                    merged.probes_applied += stats.probes_applied;
                    merged.threads += stats.threads;
                    merged.durable &= stats.durable;
                    merged.connect_retries += stats.connect_retries;
                    if merged.flush_error.is_none() {
                        if let Some(err) = stats.flush_error {
                            // First degraded shard wins; name it so the
                            // operator knows where to look.
                            merged.flush_error = Some(format!("shard {shard}: {err}"));
                        }
                    }
                    merged.sessions.extend(stats.sessions);
                }
                Response::Error(reply) => {
                    return Response::error(format!(
                        "stats from shard {shard} failed: {}",
                        reply.message
                    ))
                }
                other => {
                    return Response::error(format!(
                        "stats from shard {shard} returned {:?}",
                        other.kind()
                    ))
                }
            }
        }
        merged.sessions.sort_by_key(|s| s.session);
        Response::Stats(merged)
    }

    /// Broadcast `metrics` and merge every shard's snapshot with the
    /// router's own series (forward latency, retries, respawns, ring
    /// remaps).  The merge is associative and order-canonical, so the
    /// result is identical no matter which shard replies first.
    fn merged_metrics(&self, clients: &mut HashMap<usize, Client>) -> Response {
        let mut merged = MetricsSnapshot::default();
        for shard in self.ring.shards() {
            match self.forward(clients, shard, &Request::Metrics) {
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

    /// Route one request (see the module-level table).
    fn dispatch(
        &self,
        mut request: Request,
        clients: &mut HashMap<usize, Client>,
        router_addr: SocketAddr,
    ) -> Response {
        let target = match &mut request {
            Request::CreateSession(CreateSession { session, .. }) => {
                match pin_id(&self.next_id, session) {
                    Ok(id) => self.shard_of(id),
                    Err(err) => return Response::error(err),
                }
            }
            Request::RegisterQuery(req) => self.shard_of(req.session),
            Request::Evaluate(req)
            | Request::Quality(req)
            | Request::RecommendProbe(req)
            | Request::DropSession(req)
            | Request::Persist(req) => self.shard_of(req.session),
            Request::ApplyMutation(req) | Request::ApplyProbe(req) => self.shard_of(req.session),
            Request::Stats => return self.merged_stats(clients),
            Request::Metrics => return self.merged_metrics(clients),
            // The fleet shuts down in `Router::run`, after the connection
            // threads drained: a shard serving one connection at a time
            // may be held by one of them, and a polite `shutdown` would
            // queue behind it.
            Request::Shutdown => {
                self.shutdown.store(true, Ordering::SeqCst);
                wake_listener(router_addr);
                return Response::ShuttingDown;
            }
        };
        self.forward(clients, target, &request)
    }
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
