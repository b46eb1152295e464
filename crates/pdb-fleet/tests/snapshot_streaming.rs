//! Peer snapshot streaming: a session living on one store-backed server
//! is rehydrated on a *second* server — separate process-style store
//! directory, no shared disk — purely through the wire protocol
//! (`persist` → chunked `fetch_chunk` download → `create_session` over
//! the downloaded file), and the replica's answers and qualities match
//! the source at 1e-12.

use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::TopKQuery;
use pdb_server::{Client, DatasetSpec, Server, ServerConfig};
use std::net::SocketAddr;
use std::path::Path;
use std::thread;

const TOL: f64 = 1e-12;

fn boot(store_dir: &Path) -> (SocketAddr, thread::JoinHandle<std::io::Result<()>>) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        store_dir: Some(store_dir.display().to_string()),
        compact_every: 0,
        ..Default::default()
    })
    .expect("bind store-backed server");
    let addr = server.local_addr().expect("bound address");
    (addr, thread::spawn(move || server.run()))
}

#[test]
fn streamed_replica_matches_the_source_session() {
    let base = std::env::temp_dir()
        .join("pdb-fleet-streaming-test")
        .join(format!("run-{}", std::process::id()));
    std::fs::remove_dir_all(&base).ok();
    let (src_dir, dst_dir, scratch) = (base.join("src"), base.join("dst"), base.join("scratch"));
    std::fs::create_dir_all(&src_dir).unwrap();
    std::fs::create_dir_all(&dst_dir).unwrap();

    let (src_addr, src_handle) = boot(&src_dir);
    let (dst_addr, dst_handle) = boot(&dst_dir);
    let mut src = Client::connect(src_addr).unwrap();
    let mut dst = Client::connect(dst_addr).unwrap();

    // A session with history: queries registered and probes applied, so
    // the streamed snapshot carries a mutated database, not a fresh one.
    let spec = DatasetSpec::Synthetic { tuples: 200 };
    let query = TopKQuery::PTk { k: 5, threshold: 0.2 };
    // A live mirror tracks the collapses so each probe's keep position is
    // read from the *current* database (collapses compact rows out, so
    // positions shift as the session mutates).
    let mut mirror = pdb_quality::BatchQuality::from_owned(
        pdb_gen::build_dataset(&spec).unwrap(),
        vec![pdb_quality::WeightedQuery::new(query)],
    )
    .unwrap();
    let session = src.create_session(spec, 1, 0.8).unwrap().session;
    src.register_query(session, query, 1.0).unwrap();
    for x_tuple in [0usize, 3, 7] {
        let keep_pos = mirror.database().x_tuple(x_tuple).members[0];
        let mutation = XTupleMutation::CollapseToAlternative { keep_pos };
        src.apply_mutation(session, x_tuple, mutation.clone()).unwrap();
        mirror.apply_collapse_in_place(x_tuple, &mutation).unwrap();
    }
    let source_report = src.quality(session).unwrap();
    let source_answers = src.evaluate(session).unwrap().answers;

    // Stream it across.  The destination knows nothing about the source:
    // different store, different WAL, same session id.
    let created = pdb_fleet::stream_session(&mut src, &mut dst, session, &scratch, 1, 0.8).unwrap();
    assert_eq!(created.session, session, "the replica keeps the source's session id");
    assert!(created.tuples > 0, "the streamed snapshot carries the database");

    // The replica must reproduce the source bit-for-bit (same snapshot
    // bytes → same database → same PSR run) once the same query set is
    // registered.
    dst.register_query(session, query, 1.0).unwrap();
    let replica_report = dst.quality(session).unwrap();
    assert!((replica_report.aggregate - source_report.aggregate).abs() <= TOL);
    assert_eq!(replica_report.qualities.len(), source_report.qualities.len());
    for (a, b) in replica_report.qualities.iter().zip(&source_report.qualities) {
        assert!((a - b).abs() <= TOL);
    }
    assert_eq!(dst.evaluate(session).unwrap().answers, source_answers);

    // The streamed session is durable on the destination: opening it
    // checkpointed the file into the store, so it survives losing the
    // scratch file.
    std::fs::remove_dir_all(&scratch).unwrap();
    let stats = dst.stats().unwrap();
    assert!(stats.durable);
    assert_eq!(stats.sessions_live, 1);

    // A second stream of the same id must fail cleanly (the id exists).
    let dup = pdb_fleet::stream_session(&mut src, &mut dst, session, &scratch, 1, 0.8);
    assert!(dup.is_err(), "opening over a live session id must be rejected");

    src.shutdown().unwrap();
    dst.shutdown().unwrap();
    src_handle.join().unwrap().unwrap();
    dst_handle.join().unwrap().unwrap();
    std::fs::remove_dir_all(&base).ok();
}
