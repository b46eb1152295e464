//! `pdb serve` and `pdb fleet serve` bound to the wildcard address
//! (`0.0.0.0`) still exit after a `shutdown` request.  Both wake their
//! blocked listener through the loopback of the bound port, because an
//! unspecified address is not connectable on every platform.

use pdb_server::Client;
use std::io::BufRead;
use std::net::SocketAddr;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a process may take to exit after `shutdown`.
const EXIT_TIMEOUT: Duration = Duration::from_secs(20);

/// A spawned `pdb` process, killed on drop so a failing test never leaks
/// it (a fleet's shards are reaped by the router on its own shutdown).
struct Spawned(Child);

impl Drop for Spawned {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
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
    let spawned = Spawned(child);
    let mut reader = std::io::BufReader::new(stdout);
    let mut line = String::new();
    loop {
        line.clear();
        if reader.read_line(&mut line).expect("read pdb stdout") == 0 {
            panic!("pdb {args:?} exited before announcing readiness");
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

/// Send `shutdown` over loopback and wait for the process to exit cleanly.
fn shut_down(mut spawned: Spawned, port: u16) {
    let mut client = Client::connect(SocketAddr::from(([127, 0, 0, 1], port))).expect("connect");
    client.shutdown().expect("shutdown reply");
    let deadline = Instant::now() + EXIT_TIMEOUT;
    loop {
        if let Some(status) = spawned.0.try_wait().expect("poll pdb") {
            assert!(status.success(), "pdb exited with {status}");
            return;
        }
        assert!(Instant::now() < deadline, "pdb still running {EXIT_TIMEOUT:?} after shutdown");
        std::thread::sleep(Duration::from_millis(20));
    }
}

#[test]
fn serve_on_the_wildcard_address_exits_after_shutdown() {
    let (spawned, port) =
        spawn(&["serve", "--addr", "0.0.0.0:0", "--threads", "1"], "pdb-server listening on ");
    shut_down(spawned, port);
}

#[test]
fn fleet_serve_on_the_wildcard_address_exits_after_shutdown() {
    let (spawned, port) = spawn(
        &["fleet", "serve", "--addr", "0.0.0.0:0", "--shards", "1", "--threads", "1"],
        "pdb-fleet router listening on ",
    );
    shut_down(spawned, port);
}
