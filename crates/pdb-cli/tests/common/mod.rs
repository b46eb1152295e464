//! The one process harness of the `pdb` process tests.
//!
//! [`Pdb::spawn`] starts `pdb serve` or `pdb fleet serve` as the leader
//! of a process group of its own, which every shard the router spawns
//! joins, a respawned one included.  Dropping the [`Pdb`] SIGKILLs that
//! group, the only kill that reaches a shard the router respawned, so a
//! failing test leaks no process.  [`Conn`] sends each request line in
//! one write: a line split over two segments waits out the server's
//! delayed ACK of the first.

// Each test file uses a part of the harness.
#![allow(dead_code)]

use std::ffi::OsStr;
use std::fmt::Debug;
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{TcpStream, ToSocketAddrs};
use std::os::unix::process::CommandExt;
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// How long a `pdb` process may take to exit after its `shutdown` reply.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// A running `pdb serve` or `pdb fleet serve` process and the shards it
/// announced.
pub struct Pdb {
    child: Child,
    /// The address the server or the router announced.
    pub addr: String,
    /// Each shard's pid, by index, as `pdb fleet serve` announced them.
    pub shard_pids: Vec<u32>,
    /// Each shard's address, by index.
    pub shard_addrs: Vec<String>,
    /// The threads draining the process's stdout and stderr.
    drains: Vec<JoinHandle<String>>,
}

impl Pdb {
    /// Spawn `pdb <args>` and wait for its readiness line.
    pub fn spawn<S: AsRef<OsStr> + Debug>(args: &[S]) -> Self {
        Self::try_spawn(args).unwrap_or_else(|exited| panic!("{exited}"))
    }

    /// Spawn `pdb <args>` and wait for its readiness line, or say how it
    /// exited without one and what it wrote to stderr.
    pub fn try_spawn<S: AsRef<OsStr> + Debug>(args: &[S]) -> Result<Self, String> {
        let mut child = Command::new(env!("CARGO_BIN_EXE_pdb"))
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::piped())
            .process_group(0)
            .spawn()
            .expect("spawn pdb");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let stderr = drain(child.stderr.take().expect("piped stderr"));
        let mut pdb = Pdb {
            child,
            addr: String::new(),
            shard_pids: Vec::new(),
            shard_addrs: Vec::new(),
            drains: Vec::new(),
        };
        let mut line = String::new();
        while pdb.addr.is_empty() {
            line.clear();
            if stdout.read_line(&mut line).expect("read pdb stdout") == 0 {
                let status = pdb.child.wait().expect("wait for pdb");
                let stderr = stderr.join().expect("drain pdb stderr");
                return Err(format!(
                    "pdb {args:?} exited with {status} before readiness: {stderr}"
                ));
            }
            match line.split_whitespace().collect::<Vec<_>>()[..] {
                // "pdb-fleet shard <i> pid <pid> listening on <addr>"
                ["pdb-fleet", "shard", _, "pid", pid, "listening", "on", addr] => {
                    pdb.shard_pids.push(pid.parse().expect("shard pid"));
                    pdb.shard_addrs.push(addr.to_string());
                }
                // "pdb-fleet router listening on <addr> (<n> shards)" or
                // "pdb-server listening on <addr> (<n> threads)"
                ["pdb-fleet", "router", "listening", "on", addr, ..]
                | ["pdb-server", "listening", "on", addr, ..] => pdb.addr = addr.to_string(),
                _ => {}
            }
        }
        pdb.drains = vec![stderr, drain(stdout)];
        Ok(pdb)
    }

    /// The `pdb` process's pid.
    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    /// SIGKILL the process that shard `index` announced.
    pub fn kill_shard(&self, index: usize) {
        let pid = self.shard_pids[index].to_string();
        let status = Command::new("kill").args(["-9", &pid]).status().expect("run kill -9");
        assert!(status.success(), "kill -9 shard {index}");
    }

    /// Send `shutdown` over `conn`, wait for the process to exit cleanly,
    /// and return how long it took to exit after the reply.
    pub fn shut_down(mut self, conn: &mut Conn) -> Duration {
        assert_eq!(conn.call("\"shutdown\""), "{\"shutting_down\":{}}");
        let replied = Instant::now();
        loop {
            if let Some(status) = self.child.try_wait().expect("poll pdb") {
                assert!(status.success(), "pdb exited with {status}");
                return replied.elapsed();
            }
            let waited = replied.elapsed();
            assert!(waited < EXIT_TIMEOUT, "pdb still running {waited:?} after shutdown");
            std::thread::sleep(Duration::from_millis(20));
        }
    }
}

impl Drop for Pdb {
    fn drop(&mut self) {
        // A `pdb` that exited cleanly has already reaped its shards, and
        // its group id may have been reused.
        if !matches!(self.child.try_wait(), Ok(Some(status)) if status.success()) {
            let group = format!("-{}", self.child.id());
            let _ = Command::new("kill").args(["-9", "--", &group]).stderr(Stdio::null()).status();
        }
        let _ = self.child.kill();
        let _ = self.child.wait();
        // The pipes closed when the process exited.
        for drain in self.drains.drain(..) {
            let _ = drain.join();
        }
    }
}

/// Read `pipe` to its end on a thread of its own, so the process never
/// blocks on a full pipe; echo each line to the test's output and return
/// them all.
fn drain(pipe: impl Read + Send + 'static) -> JoinHandle<String> {
    std::thread::spawn(move || {
        let mut text = String::new();
        for line in BufReader::new(pipe).lines().map_while(Result::ok) {
            eprintln!("{line}");
            text += &line;
            text.push('\n');
        }
        text
    })
}

/// A persistent connection: one request line in, sent in one write, and
/// the reply line out, newline stripped.
pub struct Conn {
    reader: BufReader<TcpStream>,
    writer: TcpStream,
}

impl Conn {
    /// Connect to `addr`; each reply is due within `timeout`.
    pub fn connect(addr: impl ToSocketAddrs + Debug, timeout: Duration) -> Self {
        let stream =
            TcpStream::connect(&addr).unwrap_or_else(|err| panic!("connect {addr:?}: {err}"));
        stream.set_read_timeout(Some(timeout)).expect("set read timeout");
        Self { reader: BufReader::new(stream.try_clone().expect("clone stream")), writer: stream }
    }

    /// Send `line` and return its reply line.
    pub fn call(&mut self, line: &str) -> String {
        self.writer.write_all(format!("{line}\n").as_bytes()).expect("send request");
        let mut reply = String::new();
        match self.reader.read_line(&mut reply) {
            Ok(_) if reply.ends_with('\n') => {
                reply.pop();
                reply
            }
            other => panic!("no whole reply to {line}: {other:?} after {reply:?}"),
        }
    }
}

/// A fresh store directory under the system temp dir, removed on drop.
/// Declared before the processes that write into it, it drops after
/// every one of them is killed.
pub struct StoreDir(pub PathBuf);

impl StoreDir {
    pub fn new(name: &str) -> Self {
        let dir = std::env::temp_dir().join(format!("pdb-cli-{name}-{}", std::process::id()));
        std::fs::remove_dir_all(&dir).ok();
        Self(dir)
    }

    /// The directory as a `--store-dir` argument.
    pub fn arg(&self) -> String {
        self.0.display().to_string()
    }
}

impl Drop for StoreDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}
