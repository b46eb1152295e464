//! `pdb serve` and the fleet router let go of the thread of every
//! connection that ended.  Both serve each client connection on its own
//! thread (`pdb_server::accept_connections`), and an exited thread that
//! nobody joins keeps its stack mapped, so a process that kept every
//! handle until shutdown grew by two memory mappings (a stack and its
//! guard page) per connection it had ever served.
//!
//! Before it shuts either down, each test also sends a `fetch_chunk`
//! line: no verb hands out a store file's bytes, so both answer it as
//! an unknown verb and keep serving the connection.
//!
//! Linux-only: the tests count the process's `/proc/<pid>/maps` lines.
#![cfg(target_os = "linux")]

mod common;

use common::{Conn, Pdb};
use pdb_server::protocol::decode_response;
use pdb_server::{Client, Response};
use std::time::Duration;

/// One-request connections the test opens after its warm-up.
const CONNECTIONS: usize = 300;

/// Mapping growth a process may show over `CONNECTIONS` connections.
/// Keeping every handle adds two lines per connection (600 here).
const MAX_GROWTH: usize = 50;

/// How long one request may wait for its reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Lines of the process's memory map.
fn mappings(pid: u32) -> usize {
    std::fs::read_to_string(format!("/proc/{pid}/maps")).expect("read maps").lines().count()
}

/// Open a connection, send one `stats` (a router forwards it to the
/// shard), close.
fn one_request(addr: &str) {
    let mut client = Client::connect(addr).expect("connect");
    client.stats().expect("stats");
}

/// On one connection, a `fetch_chunk` line gets the unknown-verb error
/// and the `stats` line after it still gets its reply.
fn fetch_chunk_is_an_unknown_verb(addr: &str) {
    let mut conn = Conn::connect(addr, REPLY_TIMEOUT);
    let mut call = |line: &str| decode_response(&conn.call(line)).expect("decode reply");
    let fetch = r#"{"fetch_chunk": {"snapshot": "snapshot-1-1.pdbs", "offset": 0, "max_len": 64}}"#;
    match call(fetch) {
        Response::Error(reply) => assert!(
            reply.message.contains("unknown request verb \"fetch_chunk\""),
            "{}",
            reply.message
        ),
        other => panic!("expected an error reply to fetch_chunk, got {}", other.kind()),
    }
    match call("\"stats\"") {
        Response::Stats(_) => {}
        other => panic!("expected a stats reply after the error, got {}", other.kind()),
    }
}

/// `CONNECTIONS` one-request connections must not grow the process's
/// memory map by `MAX_GROWTH` lines; then a `fetch_chunk` line must get
/// the unknown-verb error, and the process must shut down.
fn lets_go_of_finished_connection_threads(served: Pdb, what: &str) {
    let pid = served.pid();
    // Warm up: the first connections map the allocator arenas and the
    // thread stacks that later threads reuse.
    for _ in 0..20 {
        one_request(&served.addr);
    }
    let before = mappings(pid);
    for _ in 0..CONNECTIONS {
        one_request(&served.addr);
    }
    let after = mappings(pid);
    assert!(
        after < before + MAX_GROWTH,
        "{CONNECTIONS} ended connections grew the {what}'s maps from {before} to {after} lines"
    );
    fetch_chunk_is_an_unknown_verb(&served.addr);

    let mut conn = Conn::connect(&served.addr, REPLY_TIMEOUT);
    served.shut_down(&mut conn);
}

#[test]
fn the_router_lets_go_of_finished_connection_threads() {
    let fleet =
        Pdb::spawn(&["fleet", "serve", "--addr", "127.0.0.1:0", "--shards", "1", "--threads", "2"]);
    lets_go_of_finished_connection_threads(fleet, "router");
}

#[test]
fn pdb_serve_lets_go_of_finished_connection_threads() {
    let server = Pdb::spawn(&["serve", "--addr", "127.0.0.1:0", "--threads", "2"]);
    lets_go_of_finished_connection_threads(server, "server");
}
