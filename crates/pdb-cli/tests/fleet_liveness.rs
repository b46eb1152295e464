//! A fleet answers every persistent client, however many more clients
//! there are than request slots (`--threads`) per shard.  The router
//! keeps a connection to every shard it has used for each of its client
//! connections, and an idle connection holds no request slot, so no
//! client waits for another client's connection to end.

mod common;

use common::{Conn, Pdb};
use std::sync::Barrier;
use std::time::{Duration, Instant};

/// How long one request may wait for its reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(5);

/// Requests each client of the two-shard test sends.
const REQUESTS: usize = 200;

/// How long the two-shard test's clients may take for all their requests.
const REQUESTS_DEADLINE: Duration = Duration::from_secs(30);

/// Spawn `pdb fleet serve --shards <shards> --threads <threads>`.
fn spawn_fleet(shards: usize, threads: usize) -> Pdb {
    let (shards, threads) = (shards.to_string(), threads.to_string());
    Pdb::spawn(&[
        "fleet",
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--shards",
        &shards,
        "--threads",
        &threads,
    ])
}

/// Send `shutdown` through the router and wait for it to exit cleanly.
fn shut_down(fleet: Pdb) {
    let mut conn = Conn::connect(&fleet.addr, REPLY_TIMEOUT);
    fleet.shut_down(&mut conn);
}

/// `threads + 1` persistent clients through a one-shard fleet with
/// `threads` request slots: each client's `stats` reaches the shard over
/// a shard connection of its own, and every client gets its replies.
fn more_clients_than_request_slots_each_get_replies(threads: usize) {
    let fleet = spawn_fleet(1, threads);
    let mut clients: Vec<Conn> =
        (0..=threads).map(|_| Conn::connect(&fleet.addr, REPLY_TIMEOUT)).collect();
    for round in 0..2 {
        for (i, client) in clients.iter_mut().enumerate() {
            let reply = client.call("\"stats\"");
            assert!(reply.starts_with("{\"stats\":"), "client {i}, round {round}: {reply}");
        }
    }
    drop(clients);
    shut_down(fleet);
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
    let fleet = spawn_fleet(2, 1);
    // One session on each shard, set up over a connection that ends
    // before the clients start.
    let ring = pdb_fleet::HashRing::with_default_replicas(2);
    let mut setup = Conn::connect(&fleet.addr, REPLY_TIMEOUT);
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
                let mut conn = Conn::connect(addr, REPLY_TIMEOUT);
                start.wait();
                for i in 0..REQUESTS {
                    let session = sessions[(client + i) % 2];
                    let reply = conn.call(&format!("{{\"evaluate\": {{\"session\": {session}}}}}"));
                    assert!(reply.starts_with("{\"answers\":"), "client {client}: {reply}");
                }
            });
        }
    });
    let took = started.elapsed();
    assert!(took < REQUESTS_DEADLINE, "2 × {REQUESTS} requests took {took:?}");
    shut_down(fleet);
}
