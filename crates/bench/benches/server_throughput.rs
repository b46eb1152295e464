//! Serving-path throughput: one `apply_mutation` round trip on a live
//! session — the in-place delta patch every registered query shares plus
//! the refreshed qualities — measured end-to-end over a real loopback TCP
//! connection to a running `pdb-server`; and the encoding of that
//! mutation's `probe_applied` reply line, and the encoding, relay check
//! and decoding of an `evaluate` reply line, on their own.
//!
//! The server has no full-rebuild mode; the in-process comparison of the
//! delta patch against a from-scratch PSR + TP rerun is the
//! `batch/collapse` group of the `batch_evaluation` bench.  The
//! `server-smoke` CI job runs this target in quick mode and commits its
//! medians as `BENCH_server.json` (see
//! `crates/bench/src/bin/bench_json.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdb_engine::batch::BatchEvaluation;
use pdb_engine::delta::{DeltaStats, XTupleMutation};
use pdb_engine::queries::TopKQuery;
use pdb_quality::BatchCollapseUpdate;
use pdb_server::protocol::{self, Answers, ProbeApplied};
use pdb_server::{Client, DatasetSpec, Response, Server, ServerConfig};
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

/// A `probe_applied` reply shaped like `clean_loop`'s: three refreshed
/// qualities and `g` over `x_tuples` x-tuples, of which only the 58
/// holding a tuple above Lemma 2's cut are non-zero.
fn probe_applied_reply(x_tuples: usize) -> Response {
    const NON_ZERO: usize = 58;
    let stride = x_tuples / NON_ZERO;
    let mut g = vec![0.0; x_tuples];
    for i in 0..NON_ZERO {
        // Full-precision values in [-0.4, -0.001).
        g[i * stride] = -(0.001 + ((i as f64 + 0.5) * 0.618_033_988_749_895).fract() * 0.4);
    }
    let update = BatchCollapseUpdate {
        qualities: vec![-2.551_325_921_692_723, -6.903_517_284_102_517, -11.862_140_093_517_203],
        aggregate: -21.316_983_299_312_443,
        aggregate_delta: 0.057_128_339_407_812_6,
        g,
        stats: DeltaStats {
            rows_copied: 9_911,
            rows_swapped: 0,
            rows_rebuilt: 44,
            rows_dropped: 2,
            windowed_scans: 1,
        },
    };
    Response::ProbeApplied(ProbeApplied::new(1, update))
}

/// An `answers` reply shaped like servebench's `fleet_read`: one U-kRanks
/// (k = 5), PT-k (k = 15, τ = 0.1) and Global-topk (k = 50) answer over
/// 10³ complete x-tuples × 10 alternatives.
fn evaluate_reply() -> Response {
    let db = pdb_gen::spec::build_dataset(&DatasetSpec::Synthetic { tuples: TUPLES })
        .expect("generated dataset");
    let queries = vec![
        TopKQuery::UKRanks { k: 5 },
        TopKQuery::PTk { k: 15, threshold: 0.1 },
        TopKQuery::GlobalTopk { k: 50 },
    ];
    let answers = BatchEvaluation::new(&db, queries).and_then(|batch| batch.answers());
    Response::Answers(Answers { answers: answers.expect("evaluate the query set") })
}

/// One reply line on its own.  `encode_probe_applied` has `g` over 1,000
/// x-tuples (58 non-zero) and only the 58 non-zero entries: the zeros past
/// the cut should cost far less than the digits of the live entries, and
/// `server-smoke` gates the ratio of the two.  The `evaluate` reply of
/// [`evaluate_reply`] is encoded (`encode_evaluate`), checked as the fleet
/// router checks each reply it relays (`check_evaluate`), and decoded as
/// a client decodes it (`decode_evaluate`).
fn bench_encode_replies(c: &mut Criterion) {
    let mut group = c.benchmark_group("server/wire");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for (name, x_tuples) in [("g1000_nz58", 1_000), ("g58", 58)] {
        let reply = probe_applied_reply(x_tuples);
        group.bench_with_input(BenchmarkId::new("encode_probe_applied", name), &reply, |b, r| {
            b.iter(|| protocol::encode(black_box(r)))
        });
    }
    let reply = evaluate_reply();
    group.bench_with_input(BenchmarkId::new("encode_evaluate", "n10000"), &reply, |b, r| {
        b.iter(|| protocol::encode(black_box(r)))
    });
    let line = protocol::encode(&reply).expect("encode the evaluate reply");
    group.bench_with_input(BenchmarkId::new("check_evaluate", "n10000"), &line, |b, l| {
        b.iter(|| serde_json::validate(black_box(l)))
    });
    group.bench_with_input(BenchmarkId::new("decode_evaluate", "n10000"), &line, |b, l| {
        b.iter(|| protocol::decode_response(black_box(l)))
    });
    group.finish();
}

criterion_group!(benches, bench_probe_requality, bench_encode_replies);
criterion_main!(benches);
