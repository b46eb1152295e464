//! The fleet router relays shard replies byte for byte: the `evaluate`
//! and `quality` reply lines a client reads through `pdb fleet serve`
//! equal, byte for byte, the lines the owning shard writes to a client
//! connected straight to it.
//!
//! The fleet runs two shards with `--threads 1`: the router's connection
//! to a shard holds no request slot while it is idle, so the one slot
//! also serves the direct connection.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// Sessions the test opens; the ring spreads them over both shards.
const SESSIONS: u64 = 6;

/// A `pdb fleet serve` process and its shards, killed on drop so a
/// failing test never leaks them (shards explicitly: a killed router
/// cannot reap them).
struct Fleet {
    child: Child,
    addr: String,
    shard_pids: Vec<u32>,
    shard_addrs: Vec<String>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        for pid in &self.shard_pids {
            let pid = pid.to_string();
            let _ = Command::new("kill").args(["-9", &pid]).stderr(Stdio::null()).status();
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `pdb fleet serve --shards 2 --threads 1` and wait for the
/// router's readiness line.
fn spawn_fleet() -> Fleet {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pdb"))
        .args(["fleet", "serve", "--addr", "127.0.0.1:0", "--shards", "2", "--threads", "1"])
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn pdb fleet serve");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut fleet =
        Fleet { child, addr: String::new(), shard_pids: Vec::new(), shard_addrs: Vec::new() };
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    while fleet.addr.is_empty() {
        line.clear();
        if reader.read_line(&mut line).expect("read pdb stdout") == 0 {
            panic!("pdb fleet serve exited before announcing readiness");
        }
        match line.split_whitespace().collect::<Vec<_>>()[..] {
            // "pdb-fleet shard <i> pid <pid> listening on <addr>"
            ["pdb-fleet", "shard", _, "pid", pid, "listening", "on", addr] => {
                fleet.shard_pids.push(pid.parse().expect("shard pid"));
                fleet.shard_addrs.push(addr.to_string());
            }
            // "pdb-fleet router listening on <addr> (<n> shards)"
            ["pdb-fleet", "router", "listening", "on", addr, ..] => fleet.addr = addr.to_string(),
            _ => {}
        }
    }
    // Keep draining stdout so the process never blocks on a full pipe.
    std::thread::spawn(move || {
        let mut sink = String::new();
        while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
            sink.clear();
        }
    });
    fleet
}

/// A raw connection: one request line in, the reply line out, as bytes
/// on the wire (newline stripped).
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(Duration::from_secs(20))).expect("set read timeout");
        Self { reader: BufReader::new(stream.try_clone().expect("clone stream")), writer: stream }
    }

    fn call(&mut self, line: &str) -> String {
        writeln!(self.writer, "{line}").and_then(|()| self.writer.flush()).expect("send request");
        let mut reply = String::new();
        self.reader.read_line(&mut reply).expect("read reply");
        assert!(reply.ends_with('\n'), "reply cut short: {reply:?}");
        reply.pop();
        reply
    }
}

#[test]
fn routed_evaluate_and_quality_lines_equal_the_owning_shards_lines() {
    let fleet = spawn_fleet();
    let mut router = Raw::connect(&fleet.addr);
    for session in 1..=SESSIONS {
        let tuples = 300 * session;
        let created = router.call(&format!(
            "{{\"create_session\": {{\"dataset\": {{\"Synthetic\": {{\"tuples\": {tuples}}}}}, \
             \"probe_cost\": 1, \"probe_success\": 0.8}}}}"
        ));
        assert!(created.starts_with(&format!("{{\"session_created\":{{\"session\":{session},")));
        for query in [r#"{"PTk": {"k": 15, "threshold": 0.1}}"#, r#"{"UKRanks": {"k": 5}}"#] {
            let registered = router.call(&format!(
                "{{\"register_query\": {{\"session\": {session}, \"query\": {query}, \
                 \"weight\": 1.0}}}}"
            ));
            assert!(registered.starts_with("{\"query_registered\":"), "{registered}");
        }
    }

    let mut shards: Vec<Raw> = fleet.shard_addrs.iter().map(|addr| Raw::connect(addr)).collect();
    let mut owned = vec![0; shards.len()];
    for session in 1..=SESSIONS {
        for verb in ["evaluate", "quality"] {
            let line = format!("{{\"{verb}\": {{\"session\": {session}}}}}");
            let routed = router.call(&line);
            assert!(!routed.starts_with("{\"error\":"), "{routed}");
            let direct: Vec<String> = shards.iter_mut().map(|shard| shard.call(&line)).collect();
            let owners: Vec<usize> =
                (0..direct.len()).filter(|&i| !direct[i].starts_with("{\"error\":")).collect();
            assert_eq!(owners.len(), 1, "session {session} lives on one shard: {direct:?}");
            assert_eq!(routed, direct[owners[0]], "{verb} of session {session}");
            owned[owners[0]] += 1;
        }
    }
    assert!(owned.iter().all(|&n| n > 0), "every shard owns a session: {owned:?}");

    // `stats` is still merged across both shards.
    let stats = router.call("\"stats\"");
    assert!(stats.contains("\"shards\":2,\"threads\":2,"), "{stats}");

    drop(shards);
    assert_eq!(router.call("\"shutdown\""), "{\"shutting_down\":{}}");
    let mut fleet = fleet;
    let deadline = Instant::now() + Duration::from_secs(20);
    while fleet.child.try_wait().expect("poll pdb").is_none() {
        assert!(Instant::now() < deadline, "the router did not exit after shutdown");
        std::thread::sleep(Duration::from_millis(20));
    }
    // A clean exit reaped the shards; their pids may be reused.
    fleet.shard_pids.clear();
}
