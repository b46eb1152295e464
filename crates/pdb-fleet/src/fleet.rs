//! The shard-process supervisor.
//!
//! A [`Fleet`] spawns N `pdb serve` shard processes (each a full
//! [`pdb_server::Server`] with its own store directory and WAL, started
//! with the `pdb serve` flags the fleet was given), parses their
//! readiness lines to learn the ephemeral addresses they bound, and
//! can respawn a shard that died — the respawn reuses the shard's store
//! directory, so WAL replay rehydrates every journalled session before
//! the shard accepts its first forwarded request.  That recovery path is
//! what makes the router's failover lossless for acknowledged probes.
//!
//! The supervisor deliberately runs *processes*, not threads: the point
//! of the fleet is that one shard can be SIGKILLed (or OOM-killed, or
//! segfault) without taking the others down, which no amount of
//! in-process sharding provides.

use pdb_server::protocol::{self, Request};
use std::io::{BufRead, BufReader, Read, Write};
use std::net::{SocketAddr, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// The readiness line prefix `pdb serve` — and so every shard — prints
/// once its listener is bound.
pub const SHARD_READY_PREFIX: &str = "pdb-server listening on ";

/// How long [`Fleet::shutdown`] waits for the shards to exit before it
/// kills the ones still running.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(5);

/// How a [`Fleet`] spawns its shard processes.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// The `pdb` binary to spawn shards with (the CLI passes its own
    /// `current_exe`).
    pub program: PathBuf,
    /// Shard processes to run.
    pub shards: usize,
    /// Base store directory; shard `i` journals into `<dir>/shard-<i>`,
    /// and the directory holds no other `shard-<i>`.  `None` runs shards
    /// in memory — a killed shard then loses its sessions on respawn, so
    /// durability-sensitive fleets set this.
    pub store_dir: Option<PathBuf>,
    /// Further `pdb serve` flags, passed to every shard as given
    /// (`--threads`, `--compact-every`, `--flush*`).
    pub shard_flags: Vec<String>,
}

impl FleetConfig {
    /// The `pdb serve` argument vector for shard `index`.
    fn shard_args(&self, index: usize) -> Vec<String> {
        let mut args = vec!["serve".to_string(), "--addr".to_string(), "127.0.0.1:0".to_string()];
        if let Some(base) = &self.store_dir {
            args.push("--store-dir".to_string());
            args.push(base.join(format!("shard-{index}")).display().to_string());
        }
        args.extend(self.shard_flags.iter().cloned());
        args
    }

    /// Refuse a store directory that holds shard stores other than
    /// exactly those of shards `0..shards` (under another count the ring
    /// would route sessions to shards that never journalled them), then
    /// create the missing ones, so that a first start cut short after its
    /// first shard restarts with the same count.
    fn prepare_store_dir(&self) -> std::io::Result<()> {
        let Some(base) = &self.store_dir else { return Ok(()) };
        let at = |err: std::io::Error| {
            std::io::Error::new(err.kind(), format!("store directory {}: {err}", base.display()))
        };
        std::fs::create_dir_all(base).map_err(at)?;
        let mut held = Vec::new();
        for entry in std::fs::read_dir(base).map_err(at)? {
            let name = entry.map_err(at)?.file_name().to_string_lossy().into_owned();
            let index = name.strip_prefix("shard-").and_then(|index| index.parse::<usize>().ok());
            held.extend(index.filter(|index| name == format!("shard-{index}")));
        }
        held.sort_unstable();
        if !held.is_empty() && !held.iter().copied().eq(0..self.shards) {
            let names: Vec<String> = held.iter().map(|index| format!("shard-{index}")).collect();
            let message = format!(
                "{} holds {} shard stores ({}), not those of a {}-shard fleet: a store-backed \
                 fleet restarts with the shard count it was created with",
                base.display(),
                held.len(),
                names.join(", "),
                self.shards
            );
            return Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, message));
        }
        for index in 0..self.shards {
            std::fs::create_dir_all(base.join(format!("shard-{index}"))).map_err(at)?;
        }
        Ok(())
    }
}

/// One live (or recently dead) shard process.
#[derive(Debug)]
struct ShardHandle {
    child: Child,
    addr: SocketAddr,
}

/// The process currently serving one shard, as `pdb fleet serve`
/// announces it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardStatus {
    /// Shard index (also the ring identity).
    pub index: usize,
    /// OS pid of the current process serving this shard.
    pub pid: u32,
    /// Address the shard bound.
    pub addr: SocketAddr,
}

/// A supervised set of shard processes.
#[derive(Debug)]
pub struct Fleet {
    config: FleetConfig,
    shards: Vec<Mutex<ShardHandle>>,
}

impl Fleet {
    /// Spawn every shard and wait for each to announce readiness.  Any
    /// shard failing to come up kills the ones already running.  A store
    /// directory that holds another count's shard stores is refused
    /// before any shard is spawned.
    pub fn spawn(config: FleetConfig) -> std::io::Result<Self> {
        if config.shards == 0 {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "a fleet needs at least 1 shard",
            ));
        }
        config.prepare_store_dir()?;
        let mut shards = Vec::with_capacity(config.shards);
        for index in 0..config.shards {
            match spawn_shard(&config, index) {
                Ok((child, addr)) => shards.push(Mutex::new(ShardHandle { child, addr })),
                Err(err) => {
                    for handle in &shards {
                        kill_handle(&mut lock(handle));
                    }
                    return Err(err);
                }
            }
        }
        Ok(Self { config, shards })
    }

    /// Number of shard slots.
    pub fn len(&self) -> usize {
        self.shards.len()
    }

    /// Whether the fleet has no shards (never true after `spawn`).
    pub fn is_empty(&self) -> bool {
        self.shards.is_empty()
    }

    /// Every shard's current pid and address, by index.
    pub fn statuses(&self) -> Vec<ShardStatus> {
        self.shards
            .iter()
            .enumerate()
            .map(|(index, slot)| {
                let handle = lock(slot);
                ShardStatus { index, pid: handle.child.id(), addr: handle.addr }
            })
            .collect()
    }

    /// Make sure `shard` is being served, respawning its process if it
    /// died.  The respawn reuses the shard's store directory, so every
    /// journalled session is recovered (WAL replay) before the new
    /// process accepts a connection.  Returns the (possibly new) address.
    pub fn ensure(&self, shard: usize) -> std::io::Result<SocketAddr> {
        let mut handle = lock(self.slot(shard)?);
        match handle.child.try_wait() {
            Ok(None) => Ok(handle.addr), // still running
            // Exited (or unknowable): respawn into the same slot.
            Ok(Some(_)) | Err(_) => {
                let (child, addr) = spawn_shard(&self.config, shard)?;
                pdb_obs::metrics::FLEET_RESPAWNS_TOTAL.inc();
                *handle = ShardHandle { child, addr };
                Ok(addr)
            }
        }
    }

    /// Ask every shard to drain and stop, wait for them to exit until
    /// one shared deadline, and kill the ones still running then, or
    /// that could not be asked.  A shard's reply is not awaited: the
    /// request may wait for a request slot behind a long request of a
    /// client connected to it directly.  The router calls this once its
    /// own connections have drained, so only such a direct client's
    /// in-flight request can be cut, and every acknowledged record is
    /// already durable.
    pub fn shutdown(&self) {
        let mut handles: Vec<_> = self.shards.iter().map(lock).collect();
        // Held open until the shards exit, so a shard that reaches the
        // request can write its reply.
        let mut requests = Vec::new();
        for handle in &mut handles {
            match send_shutdown(handle.addr) {
                Ok(stream) => requests.push(stream),
                Err(_) => kill_handle(handle),
            }
        }
        let deadline = Instant::now() + SHUTDOWN_DEADLINE;
        for handle in &mut handles {
            while matches!(handle.child.try_wait(), Ok(None)) && Instant::now() < deadline {
                std::thread::sleep(Duration::from_millis(20));
            }
            kill_handle(handle);
        }
    }

    fn slot(&self, shard: usize) -> std::io::Result<&Mutex<ShardHandle>> {
        self.shards.get(shard).ok_or_else(|| {
            std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                format!("no shard {shard} in a fleet of {}", self.shards.len()),
            )
        })
    }
}

impl Drop for Fleet {
    /// Last-resort cleanup: never leak shard processes.  A graceful
    /// [`shutdown`](Self::shutdown) beforehand makes this a no-op (the
    /// children are already reaped).
    fn drop(&mut self) {
        for slot in &self.shards {
            kill_handle(&mut lock(slot));
        }
    }
}

/// Lock a shard slot, recovering from poisoning: the slot only guards a
/// `Child` + address pair, which a panicking thread cannot leave torn in
/// any way that matters more than losing the whole shard would.
fn lock(slot: &Mutex<ShardHandle>) -> std::sync::MutexGuard<'_, ShardHandle> {
    slot.lock().unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Send `shutdown` to the shard at `addr` without waiting for the reply.
fn send_shutdown(addr: SocketAddr) -> std::io::Result<TcpStream> {
    let mut stream = TcpStream::connect_timeout(&addr, Duration::from_millis(500))?;
    let line = protocol::encode(&Request::Shutdown)
        .map_err(|err| std::io::Error::new(std::io::ErrorKind::InvalidData, err.to_string()))?;
    writeln!(stream, "{line}")?;
    Ok(stream)
}

fn kill_handle(handle: &mut ShardHandle) {
    // pdb-analyze: allow(error-swallow): the process may already be dead, which is the goal
    let _ = handle.child.kill();
    // pdb-analyze: allow(error-swallow): reap only; the exit status of a killed shard carries no signal
    let _ = handle.child.wait();
}

/// Spawn one shard process and wait for its readiness line.
fn spawn_shard(config: &FleetConfig, index: usize) -> std::io::Result<(Child, SocketAddr)> {
    let mut child = Command::new(&config.program)
        .args(config.shard_args(index))
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()?;
    let stdout = child.stdout.take().ok_or_else(|| {
        std::io::Error::new(std::io::ErrorKind::BrokenPipe, "shard stdout was not captured")
    })?;
    let mut reader = BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line)? == 0 {
            kill_handle(&mut ShardHandle { child, addr: ([127, 0, 0, 1], 0).into() });
            return Err(std::io::Error::new(
                std::io::ErrorKind::UnexpectedEof,
                format!("shard {index} exited before announcing readiness"),
            ));
        }
        if let Some(rest) = line.trim().strip_prefix(SHARD_READY_PREFIX) {
            let addr = rest.split_whitespace().next().unwrap_or("").parse().map_err(|_| {
                std::io::Error::new(
                    std::io::ErrorKind::InvalidData,
                    format!("shard {index} announced an unparsable address: {}", line.trim()),
                )
            })?;
            // Keep draining the pipe so the shard never blocks on a full
            // stdout buffer; the drain thread dies with the process.
            std::thread::spawn(move || {
                let mut sink = Vec::new();
                // pdb-analyze: allow(error-swallow): a broken pipe here just means the shard exited
                let _ = reader.read_to_end(&mut sink);
            });
            return Ok((child, addr));
        }
        // Anything before the readiness line (e.g. the recovery summary)
        // is informational; keep reading.
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn each_shard_binds_its_own_port_and_store_and_takes_the_flags_as_given() {
        let config = FleetConfig {
            program: PathBuf::from("pdb"),
            shards: 2,
            store_dir: Some(PathBuf::from("/var/lib/pdb")),
            shard_flags: ["--threads", "1", "--flush-batch", "8"].map(String::from).to_vec(),
        };
        assert_eq!(
            config.shard_args(1),
            [
                "serve",
                "--addr",
                "127.0.0.1:0",
                "--store-dir",
                "/var/lib/pdb/shard-1",
                "--threads",
                "1",
                "--flush-batch",
                "8"
            ]
        );
        let in_memory = FleetConfig { store_dir: None, ..config };
        assert_eq!(
            in_memory.shard_args(0),
            ["serve", "--addr", "127.0.0.1:0", "--threads", "1", "--flush-batch", "8"]
        );
    }

    /// A temporary store directory, removed on drop.
    struct TempDir(PathBuf);

    impl Drop for TempDir {
        fn drop(&mut self) {
            let _ = std::fs::remove_dir_all(&self.0);
        }
    }

    #[test]
    fn a_store_dir_restarts_only_with_the_shard_count_it_was_created_with() {
        let dir = TempDir(
            std::env::temp_dir().join(format!("pdb-fleet-store-dir-{}", std::process::id())),
        );
        std::fs::remove_dir_all(&dir.0).ok();
        // No such program: every spawn that gets past the check fails.
        let config = |shards| FleetConfig {
            program: dir.0.join("no-such-pdb"),
            shards,
            store_dir: Some(dir.0.clone()),
            shard_flags: Vec::new(),
        };
        let spawn = |shards| Fleet::spawn(config(shards)).unwrap_err();
        let held = || {
            let mut names: Vec<String> = std::fs::read_dir(&dir.0)
                .unwrap()
                .map(|entry| entry.unwrap().file_name().into_string().unwrap())
                .collect();
            names.sort();
            names
        };

        // A first start cut short at its first shard leaves every
        // shard's store, so it restarts with the same count.
        assert_eq!(spawn(3).kind(), std::io::ErrorKind::NotFound);
        assert_eq!(held(), ["shard-0", "shard-1", "shard-2"]);
        assert_eq!(spawn(3).kind(), std::io::ErrorKind::NotFound);
        for shards in [2, 4] {
            let err = spawn(shards);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(
                err.to_string().contains("holds 3 shard stores (shard-0, shard-1, shard-2)"),
                "{err}"
            );
            assert_eq!(held(), ["shard-0", "shard-1", "shard-2"], "refused before any change");
        }

        // Any other file is not a shard store; a gap is refused.
        std::fs::write(dir.0.join("shard-01"), b"").unwrap();
        std::fs::remove_dir(dir.0.join("shard-1")).unwrap();
        for shards in [2, 3] {
            let err = spawn(shards);
            assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
            assert!(err.to_string().contains("holds 2 shard stores (shard-0, shard-2)"), "{err}");
        }

        // A store directory that cannot be one is named in the error.
        let file = dir.0.join("shard-01");
        let config = FleetConfig { store_dir: Some(file.clone()), ..config(1) };
        let err = Fleet::spawn(config).unwrap_err();
        assert!(err.to_string().contains(&format!("store directory {}", file.display())), "{err}");
    }
}
