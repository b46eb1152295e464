//! A fleet answers every persistent client, however many more clients
//! there are than request slots (`--threads`) per shard.  The router
//! keeps a connection to every shard it has used for each of its client
//! connections, and an idle connection holds no request slot, so no
//! client waits for another client's connection to end.

use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::process::{Child, Command, Stdio};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long one request may wait for its reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Requests each client of the two-shard test sends.
const REQUESTS: usize = 200;

/// How long the two-shard test's clients may take for all their requests.
const REQUESTS_DEADLINE: Duration = Duration::from_secs(30);

/// A `pdb fleet serve` process and its shards, killed on drop so a
/// failing test never leaks them (shards explicitly: a killed router
/// cannot reap them).  The router goes first: a shard killed under a
/// forward in flight would fail it, and the router would respawn it.
struct Fleet {
    child: Child,
    addr: String,
    shard_pids: Vec<u32>,
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        for pid in &self.shard_pids {
            let pid = pid.to_string();
            let _ = Command::new("kill").args(["-9", &pid]).stderr(Stdio::null()).status();
        }
    }
}

impl Fleet {
    /// Spawn `pdb fleet serve --shards <shards> --threads <threads>` and
    /// wait for the router's readiness line.
    fn spawn(shards: usize, threads: usize) -> Self {
        let (shards, threads) = (shards.to_string(), threads.to_string());
        let mut child = Command::new(env!("CARGO_BIN_EXE_pdb"))
            .args(["fleet", "serve", "--addr", "127.0.0.1:0", "--shards", &shards])
            .args(["--threads", &threads])
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .expect("spawn pdb fleet serve");
        let stdout = child.stdout.take().expect("piped stdout");
        let mut fleet = Fleet { child, addr: String::new(), shard_pids: Vec::new() };
        let mut reader = BufReader::new(stdout);
        let mut line = String::new();
        while fleet.addr.is_empty() {
            line.clear();
            if reader.read_line(&mut line).expect("read pdb stdout") == 0 {
                panic!("pdb fleet serve exited before announcing readiness");
            }
            match line.split_whitespace().collect::<Vec<_>>()[..] {
                // "pdb-fleet shard <i> pid <pid> listening on <addr>"
                ["pdb-fleet", "shard", _, "pid", pid, ..] => {
                    fleet.shard_pids.push(pid.parse().expect("shard pid"))
                }
                // "pdb-fleet router listening on <addr> (<n> shards)"
                ["pdb-fleet", "router", "listening", "on", addr, ..] => {
                    fleet.addr = addr.to_string()
                }
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

    /// Send `shutdown` through the router and wait for it to exit cleanly.
    fn shut_down(mut self) {
        assert_eq!(Raw::connect(&self.addr).call("\"shutdown\""), "{\"shutting_down\":{}}");
        let deadline = Instant::now() + Duration::from_secs(20);
        loop {
            if let Some(status) = self.child.try_wait().expect("poll pdb") {
                assert!(status.success(), "the router exited with {status}");
                // A clean exit reaped the shards; their pids may be reused.
                self.shard_pids.clear();
                return;
            }
            assert!(Instant::now() < deadline, "the router did not exit after shutdown");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

/// A persistent connection: one request line in, the reply line out
/// (newline stripped), every reply due within `REPLY_TIMEOUT`.
struct Raw {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Raw {
    fn connect(addr: &str) -> Self {
        let stream = TcpStream::connect(addr).expect("connect");
        stream.set_read_timeout(Some(REPLY_TIMEOUT)).expect("set read timeout");
        Self { reader: BufReader::new(stream.try_clone().expect("clone stream")), writer: stream }
    }

    fn call(&mut self, line: &str) -> String {
        // One write: a line split over two segments would wait out the
        // delayed ACK of the first.
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("send request");
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(n) if n > 0 => reply.trim_end().to_string(),
            other => panic!("no reply to {line} within {REPLY_TIMEOUT:?}: {other:?}"),
        }
    }
}

/// `threads + 1` persistent clients through a one-shard fleet with
/// `threads` request slots: each client's `stats` reaches the shard over
/// a shard connection of its own, and every client gets its replies.
fn more_clients_than_request_slots_each_get_replies(threads: usize) {
    let fleet = Fleet::spawn(1, threads);
    let mut clients: Vec<Raw> = (0..=threads).map(|_| Raw::connect(&fleet.addr)).collect();
    for round in 0..2 {
        for (i, client) in clients.iter_mut().enumerate() {
            let reply = client.call("\"stats\"");
            assert!(reply.starts_with("{\"stats\":"), "client {i}, round {round}: {reply}");
        }
    }
    drop(clients);
    fleet.shut_down();
}

#[test]
fn two_clients_of_a_one_thread_shard_each_get_replies() {
    more_clients_than_request_slots_each_get_replies(1);
}

#[test]
fn five_clients_of_a_four_thread_shard_each_get_replies() {
    more_clients_than_request_slots_each_get_replies(4);
}

#[test]
fn two_clients_that_use_both_shards_of_a_one_thread_fleet_finish() {
    let fleet = Fleet::spawn(2, 1);
    // One session on each shard, set up over a connection that ends
    // before the clients start.
    let ring = pdb_fleet::HashRing::with_default_replicas(2);
    let mut setup = Raw::connect(&fleet.addr);
    let mut owned = [None, None];
    for session in 1.. {
        let created = setup.call(
            r#"{"create_session": {"dataset": "Udb1", "probe_cost": 1, "probe_success": 0.8}}"#,
        );
        assert!(created.starts_with(&format!("{{\"session_created\":{{\"session\":{session},")));
        let registered = setup.call(&format!(
            "{{\"register_query\": {{\"session\": {session}, \
             \"query\": {{\"PTk\": {{\"k\": 2, \"threshold\": 0.4}}}}, \"weight\": 1.0}}}}"
        ));
        assert!(registered.starts_with("{\"query_registered\":"), "{registered}");
        owned[ring.shard_for(session).expect("non-empty ring")].get_or_insert(session);
        if owned.iter().all(Option::is_some) {
            break;
        }
    }
    drop(setup);
    let sessions = owned.map(|session| session.expect("a session on each shard"));

    // Client 0 starts on shard 0 and client 1 on shard 1; each then
    // alternates between the two.
    let start = Barrier::new(2);
    let started = Instant::now();
    std::thread::scope(|scope| {
        for client in 0..2 {
            let (start, sessions, addr) = (&start, &sessions, &fleet.addr);
            scope.spawn(move || {
                let mut raw = Raw::connect(addr);
                start.wait();
                for i in 0..REQUESTS {
                    let session = sessions[(client + i) % 2];
                    let reply = raw.call(&format!("{{\"evaluate\": {{\"session\": {session}}}}}"));
                    assert!(reply.starts_with("{\"answers\":"), "client {client}: {reply}");
                }
            });
        }
    });
    let took = started.elapsed();
    assert!(took < REQUESTS_DEADLINE, "2 × {REQUESTS} requests took {took:?}");
    fleet.shut_down();
}
