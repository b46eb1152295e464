//! Serving-path throughput: one `apply_mutation` round trip on a live
//! session — the in-place delta patch every registered query shares plus
//! the refreshed qualities — measured end-to-end over a real loopback TCP
//! connection to a running `pdb-server`.
//!
//! The server has no full-rebuild mode; the in-process comparison of the
//! delta patch against a from-scratch PSR + TP rerun is the
//! `batch/collapse` group of the `batch_evaluation` bench.  The
//! `server-smoke` CI job runs this target in quick mode and commits its
//! medians as `BENCH_server.json` (see
//! `crates/bench/src/bin/bench_json.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::TopKQuery;
use pdb_server::{Client, DatasetSpec, Server, ServerConfig};
use std::cell::Cell;
use std::hint::black_box;
use std::time::Duration;

const TUPLES: usize = 10_000;

/// The registered query mix: three PT-k tenants with distinct `k`
/// (k_max = 50 drives the shared PSR run).
const KS: [usize; 3] = [5, 15, 50];

/// One `apply_mutation` + refreshed qualities round trip per iteration.  The
/// mutation alternates between the x-tuple's original probabilities and a
/// copy with the first and last alternatives' masses exchanged: like a
/// collapse, it perturbs cumulative mass only inside the x-tuple's own
/// rank window (the x-tuple total is preserved, so rows below its last
/// alternative keep their factors), and the session returns to the same
/// state every two iterations so the series is stationary.
fn bench_probe_requality(c: &mut Criterion) {
    let server = Server::bind(&ServerConfig {
        addr: "127.0.0.1:0".to_string(),
        threads: 2,
        ..ServerConfig::default()
    })
    .expect("bind ephemeral port");
    let addr = server.local_addr().expect("bound address");
    let server_thread = std::thread::spawn(move || server.run());

    let spec = DatasetSpec::Synthetic { tuples: TUPLES };
    // The generator is deterministic, so the client can mirror the
    // database to learn x-tuple 0's alternative probabilities.
    let db = pdb_gen::spec::build_dataset(&spec).expect("mirror dataset");
    let original: Vec<f64> = db.x_tuple(0).members.iter().map(|&pos| db.tuple(pos).prob).collect();
    let mut swapped = original.clone();
    swapped.swap(0, original.len() - 1);

    let mut client = Client::connect(addr).expect("connect");
    let mut group = c.benchmark_group("server/probe_requality");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));

    let session = client.create_session(spec, 1, 0.8).expect("create_session").session;
    for &k in &KS {
        client
            .register_query(session, TopKQuery::PTk { k, threshold: 0.1 }, 1.0)
            .expect("register_query");
    }
    let flip = Cell::new(false);
    group.bench_with_input(BenchmarkId::new("session_delta", TUPLES), &TUPLES, |b, _| {
        b.iter(|| {
            let probs = if flip.replace(!flip.get()) { &original } else { &swapped };
            let mutation = XTupleMutation::Reweight { probs: probs.clone() };
            let applied = client.apply_mutation(session, 0, mutation).expect("apply_mutation");
            black_box(applied.update.aggregate)
        })
    });
    client.drop_session(session).expect("drop_session");
    group.finish();

    client.shutdown().expect("shutdown");
    server_thread.join().expect("server thread").expect("clean shutdown");
}

criterion_group!(benches, bench_probe_requality);
criterion_main!(benches);
