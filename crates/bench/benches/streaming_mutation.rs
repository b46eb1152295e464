//! Streaming membership mutations on a served batch: one incremental
//! insert/remove patch of the shared ρ matrix re-serving every registered
//! query vs rebuilding the whole batch evaluation (PSR + per-query
//! answers) on the mutated database.  Same workload shape as
//! `batch/collapse`, with the membership mutations on the new axis.  Each
//! mutation sits at the middle of the live prefix (the tuple at
//! `live_rows() / 2`, ~1,000 of ~2,000 rows at k_max 200), so each `delta`
//! arm rewrites the rows below it with one windowed PSR scan, asserted
//! before timing.  `streaming/null_mass_k50` runs 24 null-mass reweights,
//! inserts and removes inside the live prefix of a 3·10³-tuple database at
//! k_max 50, one scan each, against rebuilding after each mutation.
//! `streaming/db` times the database's own index patch, with no matrix,
//! at the middle of the same 10⁴-tuple live prefix: a reweight and its
//! restore (O(alternatives): no tuple moves) against an insert and its
//! removal (each moves every row below it).  The `bench-smoke` CI job
//! runs this target in quick mode, emits `BENCH_streaming.json` (see
//! `crates/bench/src/bin/bench_json.rs`), asserts every delta patch
//! beats its rebuild and that the reweight pair costs under a tenth of
//! the insert/remove pair.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdb_bench::synthetic;
use pdb_core::RankedDatabase;
use pdb_engine::batch::BatchEvaluation;
use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::TopKQuery;
use pdb_experiments::sharing_exp::batch_query_set as query_set;
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

const TUPLES: usize = 10_000;
const QUERIES: usize = 10;

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming/insert");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let db = synthetic(TUPLES);
    let queries: Vec<TopKQuery> = query_set(QUERIES).into_iter().map(|s| s.query).collect();
    let batch = BatchEvaluation::new(&db, queries.clone()).unwrap();
    // The arrival's first alternative lands in the middle of the live
    // prefix: the rows below it take its factor.
    let mid = db.tuple(batch.master().live_rows() / 2).score;
    let alternatives = vec![(mid + 0.25, 0.25), (mid * 0.5, 0.1)];
    let l = db.num_x_tuples();
    let mutation =
        XTupleMutation::Insert { key: "arrival".into(), alternatives: alternatives.clone() };
    assert_one_scan(&batch, l, &mutation);
    // One shared delta pass grows the master matrix and re-serves all
    // registered queries; each iteration patches a fresh clone, like the
    // rebuild arm starting from the unmutated database.
    group.bench_with_input(BenchmarkId::new("delta", QUERIES), &l, |b, &l| {
        b.iter(|| {
            let mut next = batch.clone();
            let stats = next.apply_collapse_in_place(black_box(l), &mutation).unwrap();
            (next, stats)
        })
    });
    // Baseline: apply the arrival to the database and rebuild the whole
    // batch evaluation — both sides start from the same `(db, mutation)`
    // input a streaming session receives.
    group.bench_with_input(BenchmarkId::new("full_rebuild", QUERIES), &db, |b, db| {
        b.iter(|| {
            let mut grown = db.clone();
            grown.insert_x_tuple_in_place("arrival".into(), &alternatives).unwrap();
            let batch = BatchEvaluation::new(black_box(&grown), queries.clone()).unwrap();
            black_box(&batch);
            grown.len()
        })
    });
    group.finish();
}

fn bench_remove(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming/remove");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let db = synthetic(TUPLES);
    let queries: Vec<TopKQuery> = query_set(QUERIES).into_iter().map(|s| s.query).collect();
    let batch = BatchEvaluation::new(&db, queries.clone()).unwrap();
    // Remove the entity at the middle of the live prefix: the rows below
    // it lose its factor.
    let l = db.tuple(batch.master().live_rows() / 2).x_index;
    assert_one_scan(&batch, l, &XTupleMutation::Remove);
    group.bench_with_input(BenchmarkId::new("delta", QUERIES), &l, |b, &l| {
        b.iter(|| {
            let mut next = batch.clone();
            let stats =
                next.apply_collapse_in_place(black_box(l), &XTupleMutation::Remove).unwrap();
            (next, stats)
        })
    });
    group.bench_with_input(BenchmarkId::new("full_rebuild", QUERIES), &db, |b, db| {
        b.iter(|| {
            let mut shrunk = db.clone();
            shrunk.remove_x_tuple_in_place(l).unwrap();
            let batch = BatchEvaluation::new(black_box(&shrunk), queries.clone()).unwrap();
            black_box(&batch);
            shrunk.len()
        })
    });
    group.finish();
}

/// Check, before timing, that patching `batch` with `mutation` rewrites
/// rows with exactly one windowed scan, so the `delta` arm times a scan.
fn assert_one_scan(batch: &BatchEvaluation<'_>, l: usize, mutation: &XTupleMutation) {
    let stats = batch.clone().apply_collapse_in_place(l, mutation).unwrap();
    assert_eq!(stats.windowed_scans, 1, "{mutation:?} on x-tuple {l}: {stats:?}");
}

/// Mutations in the null-mass run.
const RUN: usize = 24;

/// The synthetic fixture at 3·10³ tuples (300 x-tuples × 10) with every
/// x-tuple rescaled to a total mass drawn from [0.6, 0.99), the served
/// `null_churn` database's shape: no x-tuple saturates and the tail cut
/// ends the live prefix.
fn null_mass_db(rng: &mut StdRng) -> RankedDatabase {
    let db = synthetic(3_000);
    let x_tuples: Vec<Vec<(f64, f64)>> = db
        .x_tuples()
        .map(|info| {
            let scale = rng.gen_range(0.6..0.99) / info.total_mass;
            info.members.iter().map(|&p| (db.tuple(p).score, db.tuple(p).prob * scale)).collect()
        })
        .collect();
    RankedDatabase::from_scored_x_tuples(&x_tuples).expect("rescaled x-tuples stay valid")
}

/// A run of reweights, inserts and removes in turn, each aimed at a
/// tuple drawn from the live prefix the run has reached, so that each
/// rewrites rows with one windowed scan.  Returns the run and the
/// database after each of its mutations.
fn null_mass_run(
    batch: &BatchEvaluation<'_>,
    rng: &mut StdRng,
) -> (Vec<(usize, XTupleMutation)>, Vec<RankedDatabase>) {
    let mut next = batch.clone();
    (0..RUN)
        .map(|i| {
            let db = next.database();
            let inside = db.tuple(rng.gen_range(0..next.master().live_rows()));
            let (l, total) = (inside.x_index, rng.gen_range(0.6..0.99));
            let (l, mutation) = match i % 3 {
                0 => {
                    let info = db.x_tuple(l);
                    let scale = total / info.total_mass;
                    let probs = info.members.iter().map(|&p| db.tuple(p).prob * scale).collect();
                    (l, XTupleMutation::Reweight { probs })
                }
                1 => {
                    let alternatives =
                        (0..5).map(|_| (inside.score + rng.gen_range(-30.0..30.0), total / 5.0));
                    let key = format!("arrival{i}");
                    let arrival =
                        XTupleMutation::Insert { key, alternatives: alternatives.collect() };
                    (db.num_x_tuples(), arrival)
                }
                _ => (l, XTupleMutation::Remove),
            };
            let stats = next.apply_collapse_in_place(l, &mutation).unwrap();
            assert_eq!(stats.windowed_scans, 1, "mutation {i} ({mutation:?}): {stats:?}");
            ((l, mutation), next.database().clone())
        })
        .unzip()
}

fn bench_null_mass_run(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming/null_mass_k50");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let mut rng = StdRng::seed_from_u64(42);
    let db = null_mass_db(&mut rng);
    // servebench's three queries: U-kRanks k = 5, PT-k k = 15, Global-topk
    // k = 50.
    let queries = vec![
        TopKQuery::UKRanks { k: 5 },
        TopKQuery::PTk { k: 15, threshold: 0.1 },
        TopKQuery::GlobalTopk { k: 50 },
    ];
    let batch = BatchEvaluation::new(&db, queries.clone()).unwrap();
    let (run, states) = null_mass_run(&batch, &mut rng);
    // Each iteration applies the whole run to a fresh clone.
    group.bench_with_input(BenchmarkId::new("delta", RUN), &run, |b, run| {
        b.iter(|| {
            let mut next = batch.clone();
            for (l, mutation) in run {
                next.apply_collapse_in_place(black_box(*l), mutation).unwrap();
            }
            next
        })
    });
    // Baseline: rebuild the whole batch evaluation on the database each
    // mutation of the run leaves (prepared above, so only the 24 rebuilds
    // are timed).
    group.bench_with_input(BenchmarkId::new("full_rebuild", RUN), &states, |b, states| {
        b.iter(|| {
            for db in states {
                black_box(BatchEvaluation::new(black_box(db), queries.clone()).unwrap());
            }
        })
    });
    group.finish();
}

fn bench_database_patch(c: &mut Criterion) {
    let mut group = c.benchmark_group("streaming/db");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let mut db = synthetic(TUPLES);
    let queries: Vec<TopKQuery> = query_set(QUERIES).into_iter().map(|s| s.query).collect();
    let mid = BatchEvaluation::new(&db, queries).unwrap().master().live_rows() / 2;
    // Reweight the x-tuple at the middle of the live prefix towards its
    // first alternative, then restore it.
    let l = db.tuple(mid).x_index;
    let info = db.x_tuple(l);
    let original: Vec<f64> = info.members.iter().map(|&p| db.tuple(p).prob).collect();
    let mut sharpened: Vec<f64> = original.iter().map(|p| p * 0.5).collect();
    sharpened[0] += info.total_mass * 0.5;
    group.bench_function(BenchmarkId::new("reweight_and_back", TUPLES), |b| {
        b.iter(|| {
            db.reweight_x_tuple_in_place(black_box(l), &sharpened).unwrap();
            db.reweight_x_tuple_in_place(black_box(l), &original).unwrap();
        })
    });
    // An arrival whose alternatives land at the same place, then its
    // removal.
    let score = db.tuple(mid).score;
    let alternatives = vec![(score + 0.25, 0.25), (score * 0.5, 0.1)];
    group.bench_function(BenchmarkId::new("insert_and_remove", TUPLES), |b| {
        b.iter(|| {
            let l = db.insert_x_tuple_in_place("arrival".into(), black_box(&alternatives)).unwrap();
            db.remove_x_tuple_in_place(l).unwrap();
        })
    });
    group.finish();
}

criterion_group!(benches, bench_insert, bench_remove, bench_null_mass_run, bench_database_patch);
criterion_main!(benches);
