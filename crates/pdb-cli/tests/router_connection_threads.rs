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

use pdb_server::protocol::decode_response;
use pdb_server::{Client, Response};
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// One-request connections the test opens after its warm-up.
const CONNECTIONS: usize = 300;

/// Mapping growth a process may show over `CONNECTIONS` connections.
/// Keeping every handle adds two lines per connection (600 here).
const MAX_GROWTH: usize = 50;

/// A `pdb serve` or `pdb fleet serve` process and the shard pids it
/// announced, killed on drop so a failing test never leaks them (shards
/// explicitly: a killed router cannot reap them).
struct Served {
    child: Child,
    addr: String,
    shard_pids: Vec<u32>,
}

impl Drop for Served {
    fn drop(&mut self) {
        for pid in &self.shard_pids {
            let pid = pid.to_string();
            let _ = Command::new("kill").args(["-9", &pid]).stderr(Stdio::null()).status();
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `pdb <args>` and wait for its readiness line.
fn spawn(args: &[&str]) -> Served {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pdb"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn pdb");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut served = Served { child, addr: String::new(), shard_pids: Vec::new() };
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    while served.addr.is_empty() {
        line.clear();
        if reader.read_line(&mut line).expect("read pdb stdout") == 0 {
            panic!("pdb {args:?} exited before announcing readiness");
        }
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            // "pdb-fleet shard <i> pid <pid> listening on <addr>"
            ["pdb-fleet", "shard", _, "pid", pid, ..] => {
                served.shard_pids.push(pid.parse().expect("shard pid"))
            }
            // "pdb-fleet router listening on <addr> (<n> shards)"
            ["pdb-fleet", "router", "listening", "on", addr, ..] => served.addr = addr.to_string(),
            // "pdb-server listening on <addr> (<n> threads)"
            ["pdb-server", "listening", "on", addr, ..] => served.addr = addr.to_string(),
            _ => {}
        }
    }
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    served
}

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
    let stream = TcpStream::connect(addr).expect("connect");
    stream.set_read_timeout(Some(Duration::from_secs(20))).expect("set read timeout");
    let mut reader = BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut call = |line: &str| {
        writeln!(writer, "{line}").and_then(|()| writer.flush()).expect("send request");
        let mut reply = String::new();
        reader.read_line(&mut reply).expect("read reply");
        decode_response(reply.trim_end()).expect("decode reply")
    };
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
fn lets_go_of_finished_connection_threads(mut served: Served, what: &str) {
    let pid = served.child.id();
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

    Client::connect(&served.addr).expect("connect").shutdown().expect("shutdown reply");
    let deadline = Instant::now() + Duration::from_secs(20);
    while served.child.try_wait().expect("poll pdb").is_none() {
        assert!(Instant::now() < deadline, "the {what} did not exit after shutdown");
        std::thread::sleep(Duration::from_millis(20));
    }
    // A clean exit reaped the shards; their pids may be reused.
    served.shard_pids.clear();
}

#[test]
fn the_router_lets_go_of_finished_connection_threads() {
    let fleet =
        spawn(&["fleet", "serve", "--addr", "127.0.0.1:0", "--shards", "1", "--threads", "2"]);
    lets_go_of_finished_connection_threads(fleet, "router");
}

#[test]
fn pdb_serve_lets_go_of_finished_connection_threads() {
    let server = spawn(&["serve", "--addr", "127.0.0.1:0", "--threads", "2"]);
    lets_go_of_finished_connection_threads(server, "server");
}
