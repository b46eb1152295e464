//! Loopback durability: a store-backed server journals its sessions,
//! auto-compacts its log, serves `persist` and `create_session` over a
//! snapshot file, and rehydrates everything after a restart — all over a
//! real TCP connection.
//!
//! (The harsher variant — SIGKILL instead of a graceful restart — lives
//! in `pdb-cli/tests/kill_and_recover.rs`, which drives the real `pdb`
//! binary.)

use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::TopKQuery;
use pdb_quality::{BatchQuality, WeightedQuery};
use pdb_server::protocol::CreateSession;
use pdb_server::{Client, DatasetSpec, Request, Response, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::Path;
use std::thread;

const TOL: f64 = 1e-12;

fn boot(
    store_dir: &Path,
    compact_every: u64,
) -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>, u64) {
    // No retry: `Server::run` owns the store and returns after joining
    // its connection threads, so the previous server has released the
    // store's single-writer lock.
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        store_dir: Some(store_dir.display().to_string()),
        compact_every,
        ..Default::default()
    })
    .expect("bind store-backed server");
    let addr = server.local_addr().expect("bound address");
    let recovered = server.sessions_recovered();
    (addr, thread::spawn(move || server.run()), recovered)
}

#[test]
fn store_backed_server_restarts_with_its_sessions() {
    let dir = std::env::temp_dir()
        .join("pdb-server-durability-test")
        .join(format!("run-{}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();

    let spec = DatasetSpec::Synthetic { tuples: 300 };
    let query = TopKQuery::PTk { k: 6, threshold: 0.1 };
    let mut mirror = BatchQuality::from_owned(
        pdb_gen::build_dataset(&spec).unwrap(),
        vec![WeightedQuery::new(query)],
    )
    .unwrap();

    // ---- first server: session + probes, aggressive auto-compaction --
    let (addr, handle, recovered) = boot(&dir, 3);
    assert_eq!(recovered, 0, "fresh store");
    let mut client = Client::connect(addr).unwrap();
    let session = client.create_session(spec, 1, 0.8).unwrap().session;
    client.register_query(session, query, 1.0).unwrap();
    for probe in 0..5usize {
        let l = probe * 3;
        let keep_pos = mirror.database().x_tuple(l).members[0];
        let mutation = XTupleMutation::CollapseToAlternative { keep_pos };
        client.apply_mutation(session, l, mutation.clone()).unwrap();
        mirror.apply_collapse_in_place(l, &mutation).unwrap();
        if probe == 0 {
            // The first probe is the third record: its reply comes only
            // after the compaction it ran, which left just the session's
            // checkpoint in the log.
            let recovery = pdb_store::Store::peek(&dir, &pdb_gen::build_dataset).unwrap();
            assert_eq!(recovery.records, 1, "the log was compacted before the reply");
            assert_eq!(recovery.sessions[0].base.probes, 1);
            assert!(recovery.sessions[0].tail.is_empty());
        }
    }
    client.shutdown().unwrap();
    handle.join().expect("server thread").expect("clean shutdown");

    // ---- snapshot files prove auto-compaction checkpointed the session
    // (threshold 3 < the 7 records this session wrote) ----------------
    let snapshots = std::fs::read_dir(&dir)
        .unwrap()
        .filter_map(|e| e.ok())
        .filter(|e| e.file_name().to_string_lossy().starts_with("snapshot-"))
        .count();
    assert!(snapshots >= 1, "auto-compaction wrote a checkpoint snapshot");
    // ...and it bounded the log.
    let recovery = pdb_store::Store::peek(&dir, &pdb_gen::build_dataset).expect("peek store");
    assert!(
        recovery.records < 7,
        "log was truncated below the raw record count, found {}",
        recovery.records
    );

    // ---- second server: recovery + a snapshot session over the wire --
    let (addr, handle, recovered) = boot(&dir, 0);
    assert_eq!(recovered, 1, "the session rehydrated at bind time");
    let mut client = Client::connect(addr).unwrap();

    let report = client.quality(session).unwrap();
    assert!((report.aggregate - mirror.aggregate_quality()).abs() <= TOL);
    assert_eq!(client.evaluate(session).unwrap().answers, mirror.answers().unwrap());

    // Open a second session, pinned to a fresh id, from the snapshot a
    // `persist` of the recovered session wrote, copied out of the store.
    let persisted = client.persist(session).unwrap();
    let copied = dir.with_extension("pdbs");
    std::fs::copy(dir.join(&persisted.snapshot), &copied).unwrap();
    let pinned = session + 41;
    let create = Request::CreateSession(CreateSession {
        dataset: DatasetSpec::Snapshot { path: copied.display().to_string() },
        probe_cost: 1,
        probe_success: 0.8,
        session: Some(pinned),
    });
    let restored = match client.call(&create).unwrap() {
        Response::SessionCreated(created) => created,
        other => panic!("expected session_created, got {}", other.kind()),
    };
    assert_eq!(restored.session, pinned, "a pinned session id is kept");
    assert_eq!(restored.tuples, mirror.database().len());
    client.register_query(pinned, query, 1.0).unwrap();
    let restored_report = client.quality(pinned).unwrap();
    assert!((restored_report.aggregate - mirror.aggregate_quality()).abs() <= TOL);
    // A second create pinned to a live id is refused.
    match client.call(&create).unwrap() {
        Response::Error(reply) => {
            assert!(reply.message.contains("already exists"), "{}", reply.message)
        }
        other => panic!("expected an error, got {}", other.kind()),
    }

    let stats = client.stats().unwrap();
    assert!(stats.durable);
    assert_eq!(stats.sessions_live, 2);
    assert_eq!(stats.sessions.len(), 2);
    assert!(stats.sessions[0].probes == 5 && stats.sessions[0].queries == 1);

    client.shutdown().unwrap();
    handle.join().expect("server thread").expect("clean shutdown");

    // ---- the snapshot session is durable too --------------------------
    std::fs::remove_file(&copied).unwrap(); // durability must not need it
    let (_, _, recovered) = boot(&dir, 0);
    assert_eq!(recovered, 2, "both sessions survive another restart");
    std::fs::remove_dir_all(&dir).ok();
}
