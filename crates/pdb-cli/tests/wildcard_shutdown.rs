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

mod common;

use common::{Conn, Pdb};
use std::net::SocketAddr;
use std::time::Duration;

/// How long one request may wait for its reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(8);

/// `Fleet::shutdown`'s deadline for the shards to exit.
const SHUTDOWN_DEADLINE: Duration = Duration::from_secs(5);

/// A loopback connection to the port that `pdb` announced on the
/// wildcard address.
fn loopback(pdb: &Pdb) -> Conn {
    let addr: SocketAddr = pdb.addr.parse().expect("socket address");
    assert!(addr.ip().is_unspecified(), "bound the wildcard address: {addr}");
    Conn::connect(SocketAddr::from(([127, 0, 0, 1], addr.port())), REPLY_TIMEOUT)
}

#[test]
fn serve_on_the_wildcard_address_exits_after_shutdown() {
    let server = Pdb::spawn(&["serve", "--addr", "0.0.0.0:0", "--threads", "1"]);
    let mut conn = loopback(&server);
    server.shut_down(&mut conn);
}

#[test]
fn fleet_serve_on_the_wildcard_address_exits_after_shutdown() {
    let fleet =
        Pdb::spawn(&["fleet", "serve", "--addr", "0.0.0.0:0", "--shards", "1", "--threads", "1"]);
    // The router keeps its connection to the shard open for this
    // router connection.
    let mut conn = loopback(&fleet);
    let create =
        r#"{"create_session": {"dataset": "Udb1", "probe_cost": 1, "probe_success": 0.8}}"#;
    let reply = conn.call(create);
    assert!(!reply.contains("\"error\""), "{create} failed: {reply}");
    fleet.shut_down(&mut conn);
}

#[test]
fn fleet_serve_exits_after_shutdown_while_a_client_holds_a_one_thread_shard() {
    let fleet =
        Pdb::spawn(&["fleet", "serve", "--addr", "0.0.0.0:0", "--shards", "1", "--threads", "1"]);
    // A client straight to the shard, served once and kept open until
    // the router has exited.
    let mut direct = Conn::connect(&fleet.shard_addrs[0], REPLY_TIMEOUT);
    let reply = direct.call("\"stats\"");
    assert!(reply.contains("\"stats\""), "stats reply: {reply}");
    let mut conn = loopback(&fleet);
    let exited = fleet.shut_down(&mut conn);
    assert!(exited < SHUTDOWN_DEADLINE, "the router took {exited:?} to exit: it killed the shard");
    drop(direct);
}
