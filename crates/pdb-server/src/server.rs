//! The TCP server: listener, worker thread pool and request dispatch.
//!
//! Built on `std::net` only.  The listener thread accepts connections and
//! hands them to a fixed pool of worker threads over an MPSC queue; each
//! worker reads newline-delimited JSON requests off its connection,
//! dispatches them against the shared [`SessionManager`], and writes one
//! response line per request.  A `shutdown` request flips the shared stop
//! flag and wakes the listener; the queue is then drained — every
//! connection already accepted finishes its in-flight request before its
//! worker exits (idle connections poll the flag on a short read timeout,
//! so a parked persistent client never wedges the drain) — and
//! [`Server::run`] returns after joining the pool and any auto-compaction
//! still running, so nothing it started still holds the store.
//!
//! The per-connection loop ([`serve_connection`]) and the listener
//! self-wake ([`wake_listener`]) are public: the fleet router serves its
//! connections through the same two functions.
//!
//! **Connections, not requests, are the pooled unit**: a worker serves
//! one connection for that connection's lifetime, so at most `--threads`
//! *connections* are served concurrently and the `threads + 1`-th
//! concurrent persistent client waits in the accept queue until a slot
//! frees.  Size `--threads` to the expected number of concurrent
//! long-lived clients; the per-session locking (see
//! [`crate::session`]) is what keeps one slow evaluation from blocking
//! other *sessions* once their connections hold a worker.

use crate::protocol::{self, Request, Response, ServerStats};
use crate::session::SessionManager;
use pdb_obs::metrics as obs;
use pdb_store::FlushPolicy;
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{IpAddr, Ipv4Addr, Ipv6Addr, SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread;

/// How a [`Server`] is configured (`pdb serve --addr --threads
/// --store-dir --compact-every --flush --flush-batch --flush-wait-ms`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServerConfig {
    /// Address to bind (`127.0.0.1:7878`; port 0 picks an ephemeral port).
    pub addr: String,
    /// Worker threads handling connections.  Each worker owns one
    /// connection for its lifetime, so this is also the maximum number of
    /// concurrently served connections — size it to the expected number
    /// of concurrent persistent clients.
    pub threads: usize,
    /// Durable store directory.  When set, [`Server::bind`] recovers
    /// every journalled session from it (WAL replay through the live
    /// session calls) and every session-mutating request is journalled and
    /// fsync'd before it is acknowledged.  `None` keeps sessions purely
    /// in memory.
    pub store_dir: Option<String>,
    /// Auto-compaction threshold: checkpoint all sessions and truncate
    /// the log once this many records accumulate (0 disables).
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

/// A bound (but not yet running) cleaning service.
#[derive(Debug)]
pub struct Server {
    listener: TcpListener,
    manager: Arc<SessionManager>,
    shutdown: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
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
                SessionManager::with_store(Arc::new(store), recovery, config.compact_every)
                    .map_err(invalid)?
            }
            None => SessionManager::new(),
        };
        Ok(Self {
            listener,
            manager: Arc::new(manager),
            shutdown: Arc::new(AtomicBool::new(false)),
            requests: Arc::new(AtomicU64::new(0)),
            threads: config.threads.max(1),
        })
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
        let addr = self.listener.local_addr()?;
        // Bounded: with every worker busy, at most `threads` further
        // accepted connections are buffered (the send below then blocks),
        // so excess clients genuinely wait in the OS accept backlog as
        // documented instead of accumulating in an unbounded queue.
        let (queue_tx, queue_rx) = mpsc::sync_channel::<TcpStream>(self.threads);
        let queue_rx = Arc::new(Mutex::new(queue_rx));
        let compaction = Arc::new(Mutex::new(None));

        let workers: Vec<thread::JoinHandle<()>> = (0..self.threads)
            .map(|_| {
                let queue_rx = Arc::clone(&queue_rx);
                let ctx = HandlerContext {
                    manager: Arc::clone(&self.manager),
                    shutdown: Arc::clone(&self.shutdown),
                    requests: Arc::clone(&self.requests),
                    compaction: Arc::clone(&compaction),
                    addr,
                    threads: self.threads,
                };
                thread::spawn(move || loop {
                    // Take the queue lock only long enough to pop one
                    // connection; handling happens outside it.  Poisoning
                    // recovery: the lock only ever guards `recv()`, which
                    // cannot leave the channel torn, so one worker's panic
                    // must not idle the rest of the pool.
                    let conn = queue_rx.lock().unwrap_or_else(PoisonError::into_inner).recv();
                    let Ok(stream) = conn else {
                        break; // queue closed: drain complete
                    };
                    if serve_connection(stream, &ctx.shutdown, |line| handle_line(line, &ctx))
                        .is_err()
                    {
                        obs::SERVER_ERRORS_TOTAL.with("io").inc();
                    }
                })
            })
            .collect();

        for conn in self.listener.incoming() {
            if self.shutdown.load(Ordering::SeqCst) {
                break; // the wake-up connection (or a raced client) is dropped
            }
            match conn {
                Ok(stream) => {
                    // A send can only fail after every worker exited, which
                    // only happens once shutdown already drained the queue.
                    if queue_tx.send(stream).is_err() {
                        break;
                    }
                }
                Err(_) => {
                    // Persistent accept failures (e.g. EMFILE when the fd
                    // limit is hit) yield Err immediately and repeatedly;
                    // back off briefly instead of busy-spinning a core.
                    thread::sleep(std::time::Duration::from_millis(10));
                    continue;
                }
            }
        }

        // Close the queue: workers finish the connections already accepted
        // (draining their in-flight requests) and then exit.
        drop(queue_tx);
        for worker in workers {
            // pdb-analyze: allow(error-swallow): join only errs if the worker panicked; shutdown must still reap the rest
            let _ = worker.join();
        }
        // The workers are gone, so no compaction starts after this one.
        if let Some(handle) = compaction.lock().unwrap_or_else(PoisonError::into_inner).take() {
            // pdb-analyze: allow(error-swallow): join only errs if the compaction panicked; its claim and the log are already settled either way
            let _ = handle.join();
        }
        Ok(())
    }
}

/// Everything a worker needs to serve one connection.
struct HandlerContext {
    manager: Arc<SessionManager>,
    shutdown: Arc<AtomicBool>,
    requests: Arc<AtomicU64>,
    /// The auto-compaction thread started last, joined by [`Server::run`].
    compaction: Arc<Mutex<Option<thread::JoinHandle<()>>>>,
    addr: SocketAddr,
    threads: usize,
}

/// How often an idle connection wakes from a blocking read to re-check
/// the shutdown flag.  Without the timeout, a connection parked on a
/// persistent client that never sends another request would block the
/// final join forever, hanging shutdown.
const IDLE_POLL: std::time::Duration = std::time::Duration::from_millis(100);

/// Serve one connection: one reply line per request line, until the
/// client disconnects or `shutdown` is set.  `handle` turns each request
/// line (trailing newline trimmed; blank lines are skipped) into its
/// reply.  The server and the fleet router both run their connections
/// through this loop, so persistent clients see the same behaviour from
/// either.
///
/// Reads poll `shutdown` every 100 ms (`IDLE_POLL`), and a line split
/// across packets is reassembled.  Once `shutdown` is set, an idle
/// connection ends at its next poll and a busy one after writing its
/// in-flight reply.  Returns an error only when a reply could not be
/// written; read failures end the connection like a disconnect.
pub fn serve_connection(
    stream: TcpStream,
    shutdown: &AtomicBool,
    mut handle: impl FnMut(&str) -> Response,
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
    let mut line = String::new();

    loop {
        // A timeout mid-line leaves the bytes read so far in `line`; the
        // next pass appends to them, so split packets reassemble cleanly.
        line.clear();
        loop {
            match reader.read_line(&mut line) {
                Ok(0) => return Ok(()), // client disconnected
                Ok(_) => break,         // one full line (or EOF mid-line)
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
        if line.trim().is_empty() {
            continue;
        }
        let response = handle(line.trim_end());
        let payload = protocol::encode(&response).unwrap_or_else(|err| {
            format!("{{\"error\":{{\"message\":\"encoding failed: {err}\"}}}}")
        });
        writeln!(writer, "{payload}").and_then(|()| writer.flush())?;
        // Finish the in-flight request, then stop picking up new ones so
        // shutdown can drain: a persistent client must reconnect (and will
        // be refused once the listener stopped).
        if shutdown.load(Ordering::SeqCst) {
            return Ok(());
        }
    }
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
                Ok(applied) => {
                    manager.record_probe();
                    // Compaction is triggered by the mutation path (the
                    // only verbs that grow the log proportionally to work
                    // done) but runs on its own thread: checkpointing
                    // every live session must not stall the mutation that
                    // happened to trip the threshold.  A failed compaction
                    // must not fail any mutation either — it is applied
                    // *and* journalled — so errors only surface
                    // operationally (the log keeps growing until a
                    // compaction succeeds).
                    if manager.begin_compaction() {
                        // Spawned under the slot's lock, so the slot holds
                        // the latest compaction: the one it replaces has
                        // released its claim and is exiting.
                        let mut slot =
                            ctx.compaction.lock().unwrap_or_else(PoisonError::into_inner);
                        if let Some(previous) = slot.take() {
                            // pdb-analyze: allow(error-swallow): join only errs if that compaction panicked; its claim is already released
                            let _ = previous.join();
                        }
                        let manager = Arc::clone(manager);
                        *slot = Some(thread::spawn(move || {
                            let _ = manager.run_claimed_compaction();
                        }));
                    }
                    Response::ProbeApplied(applied)
                }
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
        Request::FetchChunk(req) => match manager.fetch_chunk(&req) {
            Ok(chunk) => Response::Chunk(chunk),
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
        }),
        Request::Metrics => Response::Metrics(pdb_obs::metrics::snapshot().into()),
        Request::Shutdown => {
            ctx.shutdown.store(true, Ordering::SeqCst);
            wake_listener(ctx.addr);
            Response::ShuttingDown
        }
    }
}
