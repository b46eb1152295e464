//! Fleet kill-and-recover: a real `pdb fleet serve` process tree — one
//! router over three store-backed shard processes — serves six sessions
//! under concurrent client traffic while one shard is SIGKILLed
//! mid-stream.  The router must fail over (respawn the shard into its
//! store directory, WAL replay rehydrates its sessions) and **zero
//! acknowledged mutations may be lost**: after the traffic drains, every
//! session's answers and qualities must match an uninterrupted
//! in-process mirror at 1e-12.
//!
//! The mid-kill traffic is `Reweight` with absolute probabilities — the
//! idempotent mutation — because the router's failover retry is
//! at-least-once: a request the dying shard journalled but never
//! acknowledged may be applied twice (once by replay, once by the
//! retry), which for an absolute reweight is state-identical.
//!
//! A second test restarts a store-backed fleet and checks that it hands
//! out no session id twice, a dropped session's included; a third, that
//! it restarts only with the shard count it was created with.

mod common;

use common::{Conn, Pdb, StoreDir};
use pdb_quality::{BatchQuality, TopKQuery, WeightedQuery, XTupleMutation};
use pdb_server::{Client, DatasetSpec};
use std::time::Duration;

const TOL: f64 = 1e-12;
const SHARDS: usize = 3;
/// Request slots per shard: one, for the several connections each shard
/// holds (every router connection, six traffic threads and the main
/// client, opens its own connection per shard it uses).  An idle
/// connection holds no slot.
const THREADS_PER_SHARD: usize = 1;
const SESSIONS: usize = 6;
const ROUNDS: usize = 150;

/// How long the `shutdown` request may wait for its reply.
const REPLY_TIMEOUT: Duration = Duration::from_secs(20);

/// Spawn a store-backed `pdb fleet serve` of `shards` shards.
fn spawn_fleet(shards: usize, store: &StoreDir) -> Result<Pdb, String> {
    let (shards, threads) = (shards.to_string(), THREADS_PER_SHARD.to_string());
    Pdb::try_spawn(&[
        "fleet",
        "serve",
        "--addr",
        "127.0.0.1:0",
        "--shards",
        &shards,
        "--threads",
        &threads,
        "--store-dir",
        &store.arg(),
        "--flush",
        "group-commit",
    ])
}

/// Send `shutdown` through the router and wait for it to exit cleanly.
/// The reply comes first; the router then drains its connections and
/// stops every shard, a respawned one included, before it exits.
fn shut_down(fleet: Pdb) {
    let mut conn = Conn::connect(&fleet.addr, REPLY_TIMEOUT);
    fleet.shut_down(&mut conn);
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() <= TOL, "{what}: served {a} vs mirror {b}");
}

/// The deterministic reweight program of one session's traffic thread:
/// `(x_tuple, mutation)` in program order.  Absolute probabilities, so
/// replaying any prefix twice is state-identical.
fn reweight_program(session: usize, members: &[usize]) -> Vec<(usize, XTupleMutation)> {
    let mut out = Vec::with_capacity(ROUNDS);
    for round in 0..ROUNDS {
        let target = 3 + (round % 3); // x-tuples 3..5: disjoint from the collapsed ones
        let m = members[target];
        let probs: Vec<f64> =
            (0..m).map(|j| (0.2 + 0.05 * ((session + round + j) % 5) as f64) / m as f64).collect();
        out.push((target, XTupleMutation::Reweight { probs }));
    }
    out
}

/// Apply one mutation through the router, retrying through failover
/// windows: a `Server`-side error or a broken connection both mean "try
/// again" — the mutation is idempotent and the router respawns the dead
/// shard on the next forward.
fn apply_with_retry(
    client: &mut Client,
    addr: &str,
    session: u64,
    x_tuple: usize,
    mutation: &XTupleMutation,
) {
    for _ in 0..200 {
        match client.apply_mutation(session, x_tuple, mutation.clone()) {
            Ok(_) => return,
            Err(_) => {
                std::thread::sleep(Duration::from_millis(20));
                if let Ok(fresh) = Client::connect(addr) {
                    *client = fresh;
                }
            }
        }
    }
    panic!("session {session}: reweight never acknowledged across 200 attempts");
}

#[test]
fn fleet_survives_a_sigkilled_shard_with_zero_lost_mutations() {
    let store = StoreDir::new("fleet-kill-and-recover");

    let fleet = spawn_fleet(SHARDS, &store).unwrap();
    let mut client = Client::connect(&fleet.addr).expect("connect to router");

    // ---- phase 1: six sessions spread over the ring ------------------
    let queries = [
        WeightedQuery::new(TopKQuery::PTk { k: 4, threshold: 0.1 }),
        WeightedQuery::weighted(TopKQuery::UKRanks { k: 6 }, 0.5),
    ];
    let mut mirrors = Vec::new();
    let mut sessions = Vec::new();
    for i in 0..SESSIONS {
        let spec = DatasetSpec::Synthetic { tuples: 120 + 40 * i };
        let created = client.create_session(spec.clone(), 1, 0.8).expect("create_session");
        sessions.push(created.session);
        let mut mirror =
            BatchQuality::from_owned(pdb_gen::build_dataset(&spec).unwrap(), queries.to_vec())
                .expect("mirror batch");
        for wq in &queries {
            client.register_query(created.session, wq.query, wq.weight).expect("register_query");
        }
        // Two collapse probes per session before the kill, asserted live.
        for l in [0usize, 1] {
            let keep_pos = mirror.database().x_tuple(l).members[0];
            let mutation = XTupleMutation::CollapseToAlternative { keep_pos };
            let served = client
                .apply_mutation(created.session, l, mutation.clone())
                .expect("pre-kill probe");
            let direct = mirror.apply_collapse_in_place(l, &mutation).expect("mirror probe");
            assert_close(served.update.aggregate, direct.aggregate, "pre-kill aggregate");
        }
        mirrors.push(mirror);
    }

    // The ring the router uses is deterministic, so the test knows which
    // shard owns which session without asking.
    let ring = pdb_fleet::HashRing::with_default_replicas(SHARDS);
    let victim = ring.shard_for(sessions[0]).expect("non-empty ring");
    assert!(
        sessions.iter().any(|&s| ring.shard_for(s) != Some(victim)),
        "at least one session must live outside the victim shard"
    );

    // ---- phase 2: concurrent traffic, SIGKILL mid-stream -------------
    let programs: Vec<Vec<(usize, XTupleMutation)>> = mirrors
        .iter()
        .enumerate()
        .map(|(i, mirror)| {
            let members: Vec<usize> = (0..mirror.database().num_x_tuples())
                .map(|x| mirror.database().x_tuple(x).members.len())
                .collect();
            reweight_program(i, &members)
        })
        .collect();

    let workers: Vec<_> = sessions
        .iter()
        .zip(&programs)
        .map(|(&session, program)| {
            let addr = fleet.addr.clone();
            let program = program.clone();
            std::thread::spawn(move || {
                let mut client = Client::connect(&addr).expect("traffic client connects");
                for (x_tuple, mutation) in &program {
                    apply_with_retry(&mut client, &addr, session, *x_tuple, mutation);
                }
            })
        })
        .collect();

    std::thread::sleep(Duration::from_millis(30));
    fleet.kill_shard(victim);

    for worker in workers {
        worker.join().expect("traffic thread");
    }

    // Every acknowledged reweight goes into the mirrors in program order
    // (threads are per-session, so per-session order is program order).
    for (mirror, program) in mirrors.iter_mut().zip(&programs) {
        for (x_tuple, mutation) in program {
            mirror.apply_collapse_in_place(*x_tuple, mutation).expect("mirror reweight");
        }
    }

    // ---- phase 3: zero lost mutations across the whole fleet ---------
    let mut client = Client::connect(&fleet.addr).expect("reconnect to router");
    let stats = client.stats().expect("merged stats");
    assert!(stats.durable, "every shard reports a durable store");
    assert_eq!(stats.shards, SHARDS);
    assert_eq!(stats.threads, SHARDS * THREADS_PER_SHARD, "--threads reaches every shard");
    assert_eq!(stats.sessions_live as usize, SESSIONS, "no session was lost to the kill");

    for (i, (&session, mirror)) in sessions.iter().zip(&mirrors).enumerate() {
        let answers = client.evaluate(session).expect("evaluate after failover");
        assert_eq!(answers.answers, mirror.answers().unwrap(), "session {i} answers");
        let report = client.quality(session).expect("quality after failover");
        assert_close(
            report.aggregate,
            mirror.aggregate_quality(),
            &format!("session {i} aggregate"),
        );
        let mirror_qualities = mirror.quality_vector();
        for (q, quality) in report.qualities.iter().enumerate() {
            assert_close(*quality, mirror_qualities[q], &format!("session {i} quality {q}"));
        }
    }

    shut_down(fleet);
}

#[test]
fn a_restarted_fleet_hands_out_no_session_id_twice() {
    let store = StoreDir::new("fleet-restart");
    let fleet = spawn_fleet(SHARDS, &store).unwrap();
    let mut client = Client::connect(&fleet.addr).expect("connect to router");
    for expected in [1, 2] {
        let created = client.create_session(DatasetSpec::Udb1, 1, 0.8).expect("create_session");
        assert_eq!(created.session, expected);
    }
    client.drop_session(2).expect("drop_session");
    assert_eq!(client.stats().expect("merged stats").next_session_id, Some(3));
    shut_down(fleet);

    // One past the largest id any shard's log names, the dropped
    // session's included.
    let past_named = (0..SHARDS)
        .map(|shard| {
            let dir = store.0.join(format!("shard-{shard}"));
            let recovery = pdb_store::Store::peek(&dir, &pdb_gen::build_dataset).expect("peek");
            recovery.next_session_id.expect("an id is left")
        })
        .max()
        .expect("a fleet has shards");
    assert_eq!(past_named, 3, "the log of the shard that owned session 2 still names it");

    let fleet = spawn_fleet(SHARDS, &store).unwrap();
    let mut client = Client::connect(&fleet.addr).expect("connect to the restarted router");
    let created = client.create_session(DatasetSpec::Udb1, 1, 0.8).expect("create_session");
    assert!(created.session >= past_named, "session {} was handed out before", created.session);
    let stats = client.stats().expect("merged stats");
    assert_eq!(stats.next_session_id, Some(created.session + 1), "the router's next id");
    assert_eq!(stats.sessions_live, 2, "sessions 1 and {} live", created.session);
    shut_down(fleet);
}

#[test]
fn a_store_backed_fleet_restarts_only_with_its_own_shard_count() {
    let store = StoreDir::new("fleet-shard-count");
    let fleet = spawn_fleet(SHARDS, &store).unwrap();
    let mut client = Client::connect(&fleet.addr).expect("connect to router");
    for expected in 1..=SESSIONS as u64 {
        let created = client.create_session(DatasetSpec::Udb1, 1, 0.8).expect("create_session");
        assert_eq!(created.session, expected);
    }
    shut_down(fleet);

    // Under another count the ring would send sessions to shards that
    // never journalled them, so the restart is refused before any shard
    // store is created or any shard spawned.
    let held = || std::fs::read_dir(&store.0).unwrap().count();
    for shards in [SHARDS - 1, SHARDS + 1] {
        let Err(refusal) = spawn_fleet(shards, &store) else {
            panic!("{SHARDS} shards' stores served a {shards}-shard fleet");
        };
        assert!(refusal.contains(&format!("holds {SHARDS} shard stores")), "{refusal}");
        assert_eq!(held(), SHARDS, "{refusal}");
    }

    let fleet = spawn_fleet(SHARDS, &store).unwrap();
    let mut client = Client::connect(&fleet.addr).expect("connect to the restarted router");
    for session in 1..=SESSIONS as u64 {
        let query = TopKQuery::PTk { k: 2, threshold: 0.4 };
        client.register_query(session, query, 1.0).expect("every session is served");
    }
    shut_down(fleet);
}
