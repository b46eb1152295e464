//! The TCP server: listener, one thread per connection, and request
//! dispatch.
//!
//! Built on `std::net` only.  [`accept_connections`] serves each accepted
//! connection on a thread of its own, at most [`MAX_CONNECTIONS`] at
//! once; each connection thread reads newline-delimited JSON requests,
//! dispatches them against the shared [`SessionManager`], and writes one
//! response line per request.  A `shutdown` request flips the shared
//! stop flag and wakes the listener; every connection already accepted
//! then finishes its in-flight request and ends (idle connections poll
//! the flag on a short read timeout, so a parked persistent client never
//! wedges the drain), and [`Server::run`] returns after joining those
//! threads, so nothing it started still holds the store.  The server
//! starts no other thread: the mutation that brings the log to
//! `--compact-every` records runs the compaction itself, before it
//! replies (see [`SessionManager::apply_mutation`]).
//!
//! The accept loop ([`accept_connections`]), the per-connection loop
//! ([`serve_connection`]) and the listener self-wake ([`wake_listener`])
//! are public: the fleet router accepts and serves its connections
//! through the same three functions.
//!
//! **Requests, not connections, are the limited unit**: a request holds
//! one of `--threads` slots from before it is decoded until its reply
//! line is encoded, so an idle connection, or one whose client is slow
//! to read, holds none.  Size `--threads` to the cores; the per-session
//! locking (see [`crate::session`]) keeps one slow evaluation from
//! blocking other *sessions*.

use crate::protocol::{self, Request, Response, ServerStats, MAX_LINE};
use crate::session::SessionManager;
use pdb_obs::metrics as obs;
use pdb_store::FlushPolicy;
use std::io::{BufRead, BufReader, BufWriter, Read, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Condvar, Mutex, PoisonError};
use std::thread;

/// How a [`Server`] is configured (`pdb serve --addr --threads
/// --store-dir --compact-every --flush --flush-batch --flush-wait-ms`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:7878`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Requests handled at once, each from its decode until its reply
    /// line is encoded; connections are capped at [`MAX_CONNECTIONS`].
    pub threads: usize,
    /// Durable store directory.  When set, [`Server::bind`] recovers
    /// every journalled session from it (WAL replay through the live
    /// session calls) and every session-mutating request is journalled and
    /// fsync'd before it is acknowledged.  `None` keeps sessions purely
    /// in memory.
    pub store_dir: Option<String>,
    /// Auto-compaction threshold: the mutation that finds this many
    /// records in the log since its last truncation checkpoints all
    /// sessions and truncates the log before it replies (0 disables).
    pub compact_every: u64,
    /// How the store's group commit batches journal fsyncs (only
    /// meaningful with a `store_dir`).
    pub flush: FlushPolicy,
}

impl Default for ServerConfig {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7878".to_string(),
            threads: 4,
            store_dir: None,
            compact_every: 1024,
            flush: FlushPolicy::default(),
        }
    }
}

/// The most connections [`Server::run`] serves at once; later clients
/// wait in the accept queue.
pub const MAX_CONNECTIONS: usize = 256;

/// A bound (but not yet running) cleaning service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    manager: SessionManager,
    threads: usize,
}

impl Server {
    /// Bind the listener and build the session store.  With a
    /// `store_dir` configured this is also where crash recovery happens:
    /// every journalled record is replayed through the live session calls
    /// (one delta pass per journalled probe) and every recovered session
    /// is live before the first connection is accepted.  The server does not accept connections
    /// until [`run`](Self::run) is called.
    pub fn bind(config: &ServerConfig) -> std::io::Result<Self> {
        let listener = TcpListener::bind(&config.addr)?;
        let manager = match &config.store_dir {
            Some(dir) => {
                let invalid = |err: pdb_store::StoreError| {
                    std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string())
                };
                let (store, recovery) = pdb_store::Store::open_with_policy(
                    std::path::Path::new(dir),
                    config.flush,
                    &pdb_gen::spec::build_dataset,
                )
                .map_err(invalid)?;
                SessionManager::with_store(store, recovery, config.compact_every)
                    .map_err(invalid)?
            }
            None => SessionManager::new(),
        };
        Ok(Self { listener, manager, threads: config.threads.max(1) })
    }

    /// Sessions recovered from the store at bind time (0 without a
    /// store).  Lets operators and tests confirm a recovery happened
    /// before any client connects.
    pub fn sessions_recovered(&self) -> u64 {
        self.manager.sessions_created()
    }

    /// The address the listener actually bound (resolves port 0).
    pub fn local_addr(&self) -> std::io::Result<SocketAddr> {
        self.listener.local_addr()
    }

    /// Accept and serve connections until a `shutdown` request arrives,
    /// then drain in-flight requests and return.
    pub fn run(self) -> std::io::Result<()> {
        let ctx = HandlerContext {
            manager: self.manager,
            shutdown: AtomicBool::new(false),
            requests: AtomicU64::new(0),
            addr: self.listener.local_addr()?,
            threads: self.threads,
        };
        let slots = Slots::default();
        accept_connections(&self.listener, &ctx.shutdown, MAX_CONNECTIONS, |stream| {
            let handle = |line: &str| {
                // Freed once the reply is encoded, before it is written.
                let _slot = slots.take(ctx.threads);
                protocol::encode_reply(&handle_line(line, &ctx))
            };
            if serve_connection(stream, &ctx.shutdown, handle).is_err() {
                obs::SERVER_ERRORS_TOTAL.with("io").inc();
            }
        });
        Ok(())
    }
}

/// Everything a connection thread needs to serve its requests.
struct HandlerContext {
    manager: SessionManager,
    shutdown: AtomicBool,
    requests: AtomicU64,
    addr: SocketAddr,
    threads: usize,
}

/// Accept connections on `listener` until `shutdown` is set, serving each
/// on a thread of its own with `serve`, at most `max_connections` at
/// once: with every slot taken, the next client waits in the accept
/// queue until a connection ends.  `pdb serve` passes
/// [`MAX_CONNECTIONS`]; the fleet router passes a smaller cap of its own.
///
/// Finished threads are joined at each accept, so an ended connection
/// keeps no stack mapped, and the rest are joined before this returns.
/// A connection's slot is freed when its thread ends, even by a panic
/// in `serve`.  Set `shutdown` and then call [`wake_listener`] to stop
/// the loop; `serve` must return once `shutdown` is set
/// ([`serve_connection`] does).
pub fn accept_connections(
    listener: &TcpListener,
    shutdown: &AtomicBool,
    max_connections: usize,
    serve: impl Fn(TcpStream) + Sync,
) {
    let slots = Slots::default();
    let serve = &serve;
    thread::scope(|scope| {
        let mut threads: Vec<thread::ScopedJoinHandle<'_, ()>> = Vec::new();
        loop {
            let slot = slots.take(max_connections.max(1));
            let conn = listener.accept();
            if shutdown.load(Ordering::SeqCst) {
                break; // the wake-up connection (or a raced client) is dropped
            }
            let (finished, running) =
                std::mem::take(&mut threads).into_iter().partition(|t| t.is_finished());
            threads = running;
            for handle in finished {
                // pdb-analyze: allow(error-swallow): join only errs if the connection thread panicked; its slot is already free
                let _ = handle.join();
            }
            let spawned = conn.and_then(|(stream, _)| {
                thread::Builder::new().spawn_scoped(scope, move || {
                    let _slot = slot;
                    serve(stream);
                })
            });
            match spawned {
                Ok(handle) => threads.push(handle),
                // Persistent accept failures (e.g. EMFILE when the fd
                // limit is hit) and failed spawns yield Err immediately
                // and repeatedly; back off briefly instead of
                // busy-spinning a core.  The connection, if any, is
                // dropped unserved.
                Err(_) => thread::sleep(std::time::Duration::from_millis(10)),
            }
        }
        for handle in threads {
            // pdb-analyze: allow(error-swallow): join only errs if the connection thread panicked; shutdown must still reap the rest
            let _ = handle.join();
        }
    });
}

/// Slots that bound how many holders run at once (the connections of
/// [`accept_connections`], the requests of [`Server::run`]): how many are
/// taken, and a wake-up for a waiter when one is freed.
#[derive(Default)]
struct Slots {
    taken: Mutex<usize>,
    freed: Condvar,
}

impl Slots {
    /// Wait until fewer than `max` slots are taken, and take one.
    fn take(&self, max: usize) -> Slot<'_> {
        // Poisoning recovery: the lock only guards a count, which every
        // holder leaves consistent.
        let taken = self.taken.lock().unwrap_or_else(PoisonError::into_inner);
        let mut taken = self
            .freed
            .wait_while(taken, |taken| *taken >= max)
            .unwrap_or_else(PoisonError::into_inner);
        *taken += 1;
        Slot(self)
    }
}

/// One taken slot, freed on drop — also when its holder unwinds.
struct Slot<'a>(&'a Slots);

impl Drop for Slot<'_> {
    fn drop(&mut self) {
        let mut taken = self.0.taken.lock().unwrap_or_else(PoisonError::into_inner);
        *taken -= 1;
        self.0.freed.notify_one();
    }
}

/// How often an idle connection wakes from a blocking read to re-check
/// the shutdown flag.  Without the timeout, a connection parked on a
/// persistent client that never sends another request would block the
/// final join forever, hanging shutdown.
const IDLE_POLL: std::time::Duration = std::time::Duration::from_millis(100);

/// Serve one connection: one reply line per request line, until the
/// client disconnects or `shutdown` is set.  `handle` turns each request
/// line (trailing whitespace trimmed; blank lines are skipped) into the
/// reply line to write (without its newline).  The server and the fleet
/// router both run their connections through this loop, so persistent
/// clients see the same behaviour from either.
///
/// Reads poll `shutdown` every 100 ms (`IDLE_POLL`), and a line split
/// across packets is reassembled.  Once `shutdown` is set, an idle
/// connection ends at its next poll and a busy one after writing its
/// in-flight reply.  A line that reaches [`MAX_LINE`] bytes
/// without a newline gets one error reply, and the connection ends.
/// Returns an error only when a reply could not be written; read
/// failures, and a line that is not UTF-8, end the connection like a
/// disconnect.
pub fn serve_connection(
    stream: TcpStream,
    shutdown: &AtomicBool,
    mut handle: impl FnMut(&str) -> String,
) -> std::io::Result<()> {
    // Nagle off: request/response lines are tiny and latency-bound.
    // Best-effort — a socket that cannot disable Nagle still serves
    // correctly, just with worse latency.
    // pdb-analyze: allow(error-swallow): latency knob only; correctness does not depend on it
    let _ = stream.set_nodelay(true);
    // The read timeout is NOT best-effort: the shutdown drain relies on
    // idle connections waking from blocked reads (see IDLE_POLL).  A
    // connection whose socket cannot take a timeout would park its
    // thread forever, so drop it instead of serving it.
    if stream.set_read_timeout(Some(IDLE_POLL)).is_err() {
        return Ok(());
    }
    let Ok(read_half) = stream.try_clone() else {
        return Ok(());
    };
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut line = Vec::new();

    loop {
        // A timeout mid-line leaves the bytes read so far in `line`; the
        // next pass appends to them, so split packets reassemble cleanly.
        line.clear();
        loop {
            let room = MAX_LINE.saturating_sub(line.len()) as u64;
            match (&mut reader).take(room).read_until(b'\n', &mut line) {
                Ok(0) if line.is_empty() => return Ok(()), // client disconnected
                // One full line, a line EOF ended, or the cap.
                Ok(_) => break,
                Err(err)
                    if matches!(
                        err.kind(),
                        std::io::ErrorKind::WouldBlock
                            | std::io::ErrorKind::TimedOut
                            | std::io::ErrorKind::Interrupted
                    ) =>
                {
                    if shutdown.load(Ordering::SeqCst) {
                        return Ok(()); // idle connection: nothing in flight to drain
                    }
                }
                Err(_) => return Ok(()),
            }
        }
        if line.len() >= MAX_LINE && line.last() != Some(&b'\n') {
            let refusal = Response::error(format!(
                "malformed request: request line exceeds {MAX_LINE} bytes"
            ));
            return write_line(&mut writer, &protocol::encode_reply(&refusal));
        }
        let Ok(text) = std::str::from_utf8(&line) else {
            return Ok(());
        };
        if text.trim().is_empty() {
            continue;
        }
        write_line(&mut writer, &handle(text.trim_end()))?;
        // Finish the in-flight request, then stop picking up new ones so
        // shutdown can drain: a persistent client must reconnect (and will
        // be refused once the listener stopped).
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
}

/// Write `line` and its newline, and flush.
fn write_line(writer: &mut impl Write, line: &str) -> std::io::Result<()> {
    writer.write_all(line.as_bytes())?;
    writer.write_all(b"\n")?;
    writer.flush()
}

/// Wake a listener blocked in `accept` on `addr` so its loop observes
/// the shutdown flag; the connection is dropped unserved.  A wildcard
/// bind address (0.0.0.0 / ::) is not connectable on every platform, so
/// the wake targets the loopback of the bound port instead.
pub fn wake_listener(addr: SocketAddr) {
    let ip = match addr.ip() {
        IpAddr::V4(ip) if ip.is_unspecified() => IpAddr::V4(Ipv4Addr::LOCALHOST),
        IpAddr::V6(ip) if ip.is_unspecified() => IpAddr::V6(Ipv6Addr::LOCALHOST),
        ip => ip,
    };
    // pdb-analyze: allow(error-swallow): best-effort self-wake; the next client to connect wakes the accept loop too
    let _ = TcpStream::connect(SocketAddr::new(ip, addr.port()));
}

/// Answer one request line: decode, dispatch, and count it in the
/// server's per-verb metrics.
fn handle_line(line: &str, ctx: &HandlerContext) -> Response {
    let response = match protocol::decode_request(line) {
        Ok(request) => {
            // Per-verb counters + latency span: the span covers the
            // handler only (not the socket write), so the histogram
            // measures the work a verb costs, not the client's draining
            // speed.
            let verb = request.verb();
            obs::SERVER_REQUESTS_TOTAL.with(verb).inc();
            let span = obs::SERVER_REQUEST_LATENCY_NS.with(verb).span();
            let response = dispatch(request, ctx);
            span.finish();
            if matches!(response, Response::Error(_)) {
                obs::SERVER_ERRORS_TOTAL.with("handler").inc();
            }
            response
        }
        Err(err) => {
            obs::SERVER_ERRORS_TOTAL.with("decode").inc();
            Response::error(format!("malformed request: {err}"))
        }
    };
    ctx.requests.fetch_add(1, Ordering::Relaxed);
    response
}

/// Route one request to the session store.
fn dispatch(request: Request, ctx: &HandlerContext) -> Response {
    let manager = &ctx.manager;
    match request {
        Request::CreateSession(req) => match manager.create(&req) {
            Ok(created) => Response::SessionCreated(created),
            Err(err) => Response::error(err),
        },
        Request::RegisterQuery(req) => match manager.register_query(&req) {
            Ok(registered) => Response::QueryRegistered(registered),
            Err(err) => Response::error(err),
        },
        Request::Evaluate(req) => match manager.with_session(req.session, |s| s.evaluate()) {
            Ok(answers) => Response::Answers(answers),
            Err(err) => Response::error(err),
        },
        Request::Quality(req) => match manager.with_session(req.session, |s| s.quality()) {
            Ok(report) => Response::QualityReport(report),
            Err(err) => Response::error(err),
        },
        Request::RecommendProbe(req) => {
            match manager.with_session(req.session, |s| s.recommend_probe()) {
                Ok(advice) => Response::ProbeRecommendation(advice),
                Err(err) => Response::error(err),
            }
        }
        // `apply_probe` is the historical alias of `apply_mutation`: same
        // payload, same handler, same response kind.
        Request::ApplyMutation(req) | Request::ApplyProbe(req) => {
            match manager.apply_mutation(&req) {
                Ok(applied) => Response::ProbeApplied(applied),
                Err(err) => Response::error(err),
            }
        }
        Request::DropSession(req) => match manager.drop_session(req.session) {
            Ok(dropped) => Response::SessionDropped(dropped),
            Err(err) => Response::error(err),
        },
        Request::Persist(req) => match manager.persist(req.session) {
            Ok(persisted) => Response::Persisted(persisted),
            Err(err) => Response::error(err),
        },
        Request::Stats => Response::Stats(ServerStats {
            sessions_live: manager.sessions_live(),
            sessions_created: manager.sessions_created(),
            requests_served: ctx.requests.load(Ordering::Relaxed) + 1,
            probes_applied: manager.probes_applied(),
            // Shard processes behind this address: a router reports its
            // ring size here.
            shards: 1,
            threads: ctx.threads,
            durable: manager.store().is_some(),
            connect_retries: 0,
            flush_error: manager.store().and_then(|store| store.flush_error()),
            sessions: manager.session_stats(),
            next_session_id: manager.next_session_id(),
        }),
        Request::Metrics => Response::Metrics(pdb_obs::metrics::snapshot()),
        Request::Shutdown => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            wake_listener(ctx.addr);
            Response::ShuttingDown
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn a_second_request_waits_for_the_only_slot_until_its_holder_unwinds() {
        let slots = &Slots::default();
        let (taken_tx, taken) = std::sync::mpsc::channel();
        let (release, release_rx) = std::sync::mpsc::channel::<()>();
        let (served_tx, served) = std::sync::mpsc::channel();
        thread::scope(|scope| {
            let holder = scope.spawn(move || {
                let _slot = slots.take(1);
                taken_tx.send(()).unwrap();
                release_rx.recv().unwrap();
                panic!("the first request's handler fails");
            });
            taken.recv().unwrap();
            scope.spawn(move || {
                let _slot = slots.take(1);
                served_tx.send(()).unwrap();
            });
            let timeout = |ms| std::time::Duration::from_millis(ms);
            assert!(served.recv_timeout(timeout(200)).is_err(), "the slot is still held");
            release.send(()).unwrap();
            assert!(holder.join().is_err(), "the holder unwound");
            served.recv_timeout(timeout(10_000)).expect("the freed slot serves the second request");
        });
    }

    #[test]
    fn a_connection_whose_handler_panics_frees_its_slot() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let shutdown = Arc::new(AtomicBool::new(false));
        let stop = Arc::clone(&shutdown);
        let accepted = AtomicU64::new(0);
        let accepting = thread::spawn(move || {
            accept_connections(&listener, &stop, 1, |mut stream| {
                if accepted.fetch_add(1, Ordering::SeqCst) == 0 {
                    panic!("the first connection's handler fails");
                }
                writeln!(stream, "served").unwrap();
            })
        });
        let first = TcpStream::connect(addr).unwrap();
        // With one slot, the second connection is served only once the
        // first handler's unwinding freed the slot.
        let second = TcpStream::connect(addr).unwrap();
        second.set_read_timeout(Some(std::time::Duration::from_secs(10))).unwrap();
        let mut line = String::new();
        BufReader::new(second).read_line(&mut line).unwrap();
        assert_eq!(line, "served\n");
        drop(first);
        shutdown.store(true, Ordering::SeqCst);
        wake_listener(addr);
        accepting.join().unwrap();
    }
}
