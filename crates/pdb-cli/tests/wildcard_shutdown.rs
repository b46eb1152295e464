//! `pdb serve` and `pdb fleet serve` bound to the wildcard address
//! (`0.0.0.0`) still exit after a `shutdown` request.  Both wake their
//! blocked listener through the loopback of the bound port, because an
//! unspecified address is not connectable on every platform.
//!
//! The fleet cases run one shard with one request slot (`--threads 1`).
//! In the first, `shutdown` goes over a router connection that already
//! used the shard, so the router holds a connection to it.  In the
//! second, a client connected straight to the shard keeps its
//! connection open through the whole shutdown.  An idle connection holds
//! no request slot, so the shard serves the router's `shutdown` at once,
//! and the router exits before `Fleet::shutdown`'s 5 s deadline, at which
//! it kills a shard still running.

use std::io::{BufRead, Write};
use std::net::{SocketAddr, TcpStream};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a process may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// How long one request may wait for its reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(8);

/// `Fleet::shutdown`'s deadline for the shards to exit.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(5);

/// A spawned `pdb` process and the shards it announced, killed on drop
/// so a failing test never leaks them (shards explicitly: a killed
/// router cannot reap them).
struct Spawned {
    child: Child,
    shard_pids: Vec<u32>,
    shard_addrs: Vec<SocketAddr>,
}

impl Drop for Spawned {
    fn drop(&mut self) {
        for pid in &self.shard_pids {
            let pid = pid.to_string();
            let _ = Command::new("kill").args(["-9", &pid]).stderr(Stdio::null()).status();
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Spawn `pdb <args>` and return it with the port of the address the
/// line starting with `ready` announces.
fn spawn(args: &[&str], ready: &str) -> (Spawned, u16) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_pdb"))
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .expect("spawn pdb");
    let stdout = child.stdout.take().expect("piped stdout");
    let mut spawned = Spawned { child, shard_pids: Vec::new(), shard_addrs: Vec::new() };
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read pdb stdout") == 0 {
            panic!("pdb {args:?} exited before announcing readiness");
        }
        // "pdb-fleet shard <i> pid <pid> listening on <addr>"
        if let ["pdb-fleet", "shard", _, "pid", pid, "listening", "on", addr] =
            line.split_whitespace().collect::<Vec<_>>()[..]
        {
            spawned.shard_pids.push(pid.parse().expect("shard pid"));
            spawned.shard_addrs.push(addr.parse().expect("shard address"));
        }
        if let Some(rest) = line.trim().strip_prefix(ready) {
            let addr: SocketAddr =
                rest.split_whitespace().next().expect("address").parse().expect("socket address");
            assert!(addr.ip().is_unspecified(), "bound the wildcard address: {line:?}");
            // Keep draining stdout so the process never blocks on a full pipe.
            std::thread::spawn(move || {
                let mut sink = String::new();
                while matches!(reader.read_line(&mut sink), Ok(n) if n > 0) {
                    sink.clear();
                }
            });
            return (spawned, addr.port());
        }
    }
}

/// On one loopback connection, send each `setup` line and then
/// `shutdown`, wait for the process to exit cleanly, and return how long
/// it took to exit after the reply.  Every reply must arrive within
/// `REPLY_TIMEOUT`, so a wedged shutdown fails the test instead of
/// hanging it.
fn shut_down(mut spawned: Spawned, port: u16, setup: &[&str]) -> Duration {
    let stream = TcpStream::connect(SocketAddr::from(([127, 0, 0, 1], port))).expect("connect");
    stream.set_read_timeout(Some(REPLY_TIMEOUT)).expect("set read timeout");
    let mut reader = std::io::BufReader::new(stream.try_clone().expect("clone stream"));
    let mut writer = stream;
    let mut call = |line: &str| {
        writeln!(writer, "{line}").and_then(|()| writer.flush()).expect("send request");
        let mut reply = String::new();
        match reader.read_line(&mut reply) {
            Ok(n) if n > 0 => reply,
            other => panic!("no reply to {line} within {REPLY_TIMEOUT:?}: {other:?}"),
        }
    };
    for line in setup {
        let reply = call(line);
        assert!(!reply.contains("\"error\""), "{line} failed: {reply}");
    }
    let reply = call("\"shutdown\"");
    assert!(reply.contains("shutting_down"), "shutdown reply: {reply}");
    let replied = Instant::now();
    let deadline = replied + EXIT_TIMEOUT;
    loop {
        if let Some(status) = spawned.child.try_wait().expect("poll pdb") {
            assert!(status.success(), "pdb exited with {status}");
            // A clean exit reaped the shards; their pids may be reused.
            spawned.shard_pids.clear();
            return replied.elapsed();
        }
        assert!(Instant::now() < deadline, "pdb still running {EXIT_TIMEOUT:?} after shutdown");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn serve_on_the_wildcard_address_exits_after_shutdown() {
    let (spawned, port) =
        spawn(&["serve", "--addr", "0.0.0.0:0", "--threads", "1"], "pdb-server listening on ");
    shut_down(spawned, port, &[]);
}

#[test]
fn fleet_serve_on_the_wildcard_address_exits_after_shutdown() {
    let (spawned, port) = spawn(
        &["fleet", "serve", "--addr", "0.0.0.0:0", "--shards", "1", "--threads", "1"],
        "pdb-fleet router listening on ",
    );
    // The router keeps its connection to the shard open for this
    // router connection.
    let create =
        r#"{"create_session": {"dataset": "Udb1", "probe_cost": 1, "probe_success": 0.8}}"#;
    shut_down(spawned, port, &[create]);
}

#[test]
fn fleet_serve_exits_after_shutdown_while_a_client_holds_a_one_thread_shard() {
    let (spawned, port) = spawn(
        &["fleet", "serve", "--addr", "0.0.0.0:0", "--shards", "1", "--threads", "1"],
        "pdb-fleet router listening on ",
    );
    // A client straight to the shard, served once and kept open until
    // the router has exited.
    let direct = TcpStream::connect(spawned.shard_addrs[0]).expect("connect to the shard");
    direct.set_read_timeout(Some(REPLY_TIMEOUT)).expect("set read timeout");
    let mut reader = std::io::BufReader::new(direct.try_clone().expect("clone stream"));
    writeln!(&direct, "\"stats\"").expect("send stats to the shard");
    let mut reply = String::new();
    reader.read_line(&mut reply).expect("stats reply from the shard");
    assert!(reply.contains("\"stats\""), "stats reply: {reply}");
    let exited = shut_down(spawned, port, &[]);
    assert!(exited < SHUTDOWN_DEADLINE, "the router took {exited:?} to exit: it killed the shard");
    drop(direct);
}
