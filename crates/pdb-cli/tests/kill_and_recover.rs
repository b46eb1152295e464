//! Kill-and-recover: a store-backed `pdb serve` process is killed
//! (SIGKILL — no drain, no graceful shutdown) mid-session after several
//! applied probes plus a streaming insert and remove, restarted on the
//! same `--store-dir`, and must serve the recovered session with answers
//! and qualities matching an uninterrupted in-process mirror at 1e-12.
//!
//! This is the end-to-end proof of the durability chain: every
//! `apply_mutation` was fsync'd into the write-ahead log
//! before it was acknowledged, so none of the acknowledged mutations may
//! be lost, and recovery replays them through the delta engine onto the
//! journalled base dataset — including the re-allocation of tuple ids for
//! inserted x-tuples, which must come out byte-identical on replay.

mod common;

use common::{Pdb, StoreDir};
use pdb_quality::{BatchQuality, TopKQuery, WeightedQuery, XTupleMutation};
use pdb_server::{Client, DatasetSpec};

const TOL: f64 = 1e-12;

/// Spawn `pdb serve --store-dir <dir>` on an ephemeral port.
fn spawn_server(store: &StoreDir) -> Pdb {
    Pdb::spawn(&["serve", "--addr", "127.0.0.1:0", "--threads", "2", "--store-dir", &store.arg()])
}

fn assert_close(a: f64, b: f64, what: &str) {
    assert!((a - b).abs() <= TOL, "{what}: served {a} vs mirror {b}");
}

#[test]
fn killed_server_recovers_sessions_from_its_store() {
    let store = StoreDir::new("kill-and-recover");

    let spec = DatasetSpec::Synthetic { tuples: 400 };
    let queries = [
        WeightedQuery::new(TopKQuery::PTk { k: 5, threshold: 0.1 }),
        WeightedQuery::weighted(TopKQuery::UKRanks { k: 8 }, 0.5),
        WeightedQuery::weighted(TopKQuery::GlobalTopk { k: 12 }, 2.0),
    ];

    // ---- phase 1: scripted session against the first server ----------
    let first = spawn_server(&store);
    let mut client = Client::connect(&first.addr).expect("connect to first server");
    let created = client.create_session(spec.clone(), 1, 0.8).expect("create_session");
    assert_eq!(created.tuples, 400);

    // The uninterrupted in-process mirror of the same session.
    let db = pdb_gen::build_dataset(&spec).expect("mirror dataset");
    let mut mirror = BatchQuality::from_owned(db, queries.to_vec()).expect("mirror batch");
    for wq in &queries {
        client.register_query(created.session, wq.query, wq.weight).expect("register_query");
    }

    // Apply four probes (≥ 3, as the acceptance criterion demands),
    // mirroring each on the in-process session.
    for probe in 0..4usize {
        let l = probe * 7; // spread over distinct x-tuples
        let keep_pos = mirror.database().x_tuple(l).members[0];
        let mutation = XTupleMutation::CollapseToAlternative { keep_pos };
        let served =
            client.apply_mutation(created.session, l, mutation.clone()).expect("apply_mutation");
        let direct = mirror.apply_collapse_in_place(l, &mutation).expect("mirror probe");
        assert_close(served.update.aggregate, direct.aggregate, "live aggregate");
    }

    // Two streaming mutations ride the same WAL before the kill: a new
    // entity arrives, an existing one departs.  Both are acknowledged, so
    // both must survive — including the fresh tuple ids the insert
    // allocates, which replay re-derives rather than reads.
    let alternatives = vec![(875.5, 0.5), (431.25, 0.3)];
    let arrival =
        XTupleMutation::Insert { key: "arrival".into(), alternatives: alternatives.clone() };
    let appended_at = mirror.database().num_x_tuples();
    let served =
        client.insert_x_tuple(created.session, "arrival", alternatives).expect("streaming insert");
    let direct = mirror.apply_collapse_in_place(appended_at, &arrival).expect("mirror insert");
    assert_close(served.update.aggregate, direct.aggregate, "insert aggregate");

    let served = client.remove_x_tuple(created.session, 3).expect("streaming remove");
    let direct = mirror.apply_collapse_in_place(3, &XTupleMutation::Remove).expect("mirror remove");
    assert_close(served.update.aggregate, direct.aggregate, "remove aggregate");

    // ---- phase 2: kill the process, no drain, mid-session ------------
    drop(first); // SIGKILLs it: it has not exited cleanly
    drop(client);

    // ---- phase 3: restart on the same store and compare ---------------
    let second = spawn_server(&store);
    let mut client = Client::connect(&second.addr).expect("connect to restarted server");

    let stats = client.stats().expect("stats");
    assert!(stats.durable, "restarted server reports a durable store");
    assert_eq!(stats.sessions_live, 1, "the killed session recovered");
    assert_eq!(stats.sessions[0].session, created.session);
    assert_eq!(stats.sessions[0].queries, 3);
    assert_eq!(stats.sessions[0].probes, 6, "all acknowledged mutations survived the kill");

    let answers = client.evaluate(created.session).expect("evaluate recovered session");
    assert_eq!(answers.answers, mirror.answers().expect("mirror answers"), "recovered answers");

    let report = client.quality(created.session).expect("quality of recovered session");
    assert_close(report.aggregate, mirror.aggregate_quality(), "recovered aggregate");
    let mirror_qualities = mirror.quality_vector();
    for (q, quality) in report.qualities.iter().enumerate() {
        assert_close(*quality, mirror_qualities[q], &format!("recovered quality {q}"));
    }

    // The recovered session keeps evolving: one more probe on both sides.
    let l = 2;
    let keep_pos = mirror.database().x_tuple(l).members[0];
    let mutation = XTupleMutation::CollapseToAlternative { keep_pos };
    let served =
        client.apply_mutation(created.session, l, mutation.clone()).expect("post-recovery probe");
    let direct = mirror.apply_collapse_in_place(l, &mutation).expect("mirror post-recovery probe");
    assert_close(served.update.aggregate, direct.aggregate, "post-recovery aggregate");

    // persist: the session checkpoints into the store on demand.
    let persisted = client.persist(created.session).expect("persist verb");
    assert!(persisted.snapshot.ends_with(".pdbs"), "{}", persisted.snapshot);
    assert_eq!(persisted.probes, 7);
    assert!(store.0.join(&persisted.snapshot).exists(), "snapshot file written");

    client.shutdown().expect("graceful shutdown of the restarted server");
}
