//! # pdb-server — a concurrent cleaning service with persistent sessions
//!
//! The paper's adaptive-cleaning loop is inherently *stateful*: probe
//! outcomes must be folded into a live evaluation, not re-derived from
//! scratch per call.  This crate turns the workspace's batch/delta engines
//! into a long-running service:
//!
//! * [`protocol`] — the newline-delimited JSON wire protocol
//!   (`create_session`, `register_query`, `evaluate`, `quality`,
//!   `recommend_probe`, `apply_mutation`, `drop_session`, `persist`,
//!   `stats`, `metrics`, `shutdown`), encoded and decoded by the
//!   vendored `serde_json`, whose one JSON scan also checks each reply
//!   the fleet router relays;
//! * [`session`] — persistent sessions (a database + a live
//!   [`pdb_quality::BatchQuality`]) in one map whose lock is held only to
//!   look a session up, each session behind its own lock, so concurrent
//!   callers on different sessions never contend;
//!   with a `--store-dir`, every session-mutating request is journalled
//!   to a `pdb-store` write-ahead log, the mutation that brings the log
//!   to `--compact-every` records checkpoints every session and
//!   truncates the log before it replies, and on startup each session is
//!   rebuilt by replaying its records through the same session calls
//!   (see the *Persistence & recovery* README section);
//! * [`server`] — the `std::net` TCP server: one thread per connection
//!   (at most [`MAX_CONNECTIONS`]) and no other thread, at most
//!   `--threads` requests handled at once, with graceful drain on
//!   `shutdown`.  Its
//!   accept loop ([`accept_connections`]), per-connection loop
//!   ([`serve_connection`], which caps a request line at
//!   [`MAX_LINE`] bytes) and listener self-wake
//!   ([`wake_listener`]) also serve the fleet router's connections;
//! * [`client`] — a blocking client used by `pdb call`, the loopback
//!   integration test, the `server_throughput` bench and the fleet
//!   router ([`Client::call_line`] sends a line and returns the reply
//!   line undecoded, refusing one that reaches [`MAX_LINE`] bytes).
//!
//! A session keeps the one shared PSR run of its registered query set
//! alive across requests, so applying a probe outcome is a single
//! in-place delta patch shared by every registered query: a windowed PSR
//! scan of the rows the mutation changes inside the live prefix, the
//! database's own index patch, and the Theorem-1 weights of the mutated
//! x-tuple's rows (every other weight moves with its row) — the
//! `server_throughput` bench measures that round trip, and the
//! `batch_evaluation` bench compares the patch with an in-process full
//! re-evaluation.
//!
//! ```no_run
//! use pdb_server::{Client, DatasetSpec, Server, ServerConfig};
//! use pdb_engine::queries::TopKQuery;
//!
//! let server = Server::bind(&ServerConfig::default()).unwrap();
//! let addr = server.local_addr().unwrap();
//! std::thread::spawn(move || server.run());
//!
//! let mut client = Client::connect(addr).unwrap();
//! let session = client.create_session(DatasetSpec::Udb1, 1, 0.8).unwrap().session;
//! client.register_query(session, TopKQuery::PTk { k: 2, threshold: 0.4 }, 1.0).unwrap();
//! let answers = client.evaluate(session).unwrap();
//! assert_eq!(answers.answers[0].len(), 3); // {t1, t2, t5}
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod client;
pub mod protocol;
pub mod server;
pub mod session;

pub use client::{Client, ClientError, RetryPolicy};
pub use protocol::{DatasetSpec, Request, Response, MAX_LINE};
pub use server::{
    accept_connections, serve_connection, wake_listener, Server, ServerConfig, MAX_CONNECTIONS,
};
pub use session::{Session, SessionIds, SessionManager};
