//! Streaming membership mutations on a served batch: one incremental
//! insert/remove patch of the shared ρ matrix re-serving every registered
//! query vs rebuilding the whole batch evaluation (PSR + per-query
//! answers) on the mutated database.  The insert patch shifts the ρ
//! row-groups below the arrival and multiplies one binomial factor into
//! every other row; the remove patch (the `q' = 0` collapse) rewrites
//! the rows that carried the departing factor with one windowed PSR scan.  Same workload shape as `batch/collapse`,
//! with the membership mutations on the new axis; the `bench-smoke` CI
//! job runs this target in quick mode, emits `BENCH_streaming.json` (see
//! `crates/bench/src/bin/bench_json.rs`) and asserts the delta patch
//! beats the rebuild.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdb_bench::synthetic;
use pdb_engine::batch::BatchEvaluation;
use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::TopKQuery;
use pdb_experiments::sharing_exp::batch_query_set as query_set;
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
    // The arrival straddles the middle of the ranking: half the rows
    // shift and rescale, half only rescale.
    let mid = db.tuple(db.len() / 2).score;
    let alternatives = vec![(mid + 0.25, 0.25), (mid * 0.5, 0.1)];
    let l = db.num_x_tuples();
    let mutation =
        XTupleMutation::Insert { key: "arrival".into(), alternatives: alternatives.clone() };
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
    // Remove a mid-ranking entity: plenty of affected rows below it.
    let l = db.tuple(db.len() / 2).x_index;
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

criterion_group!(benches, bench_insert, bench_remove);
criterion_main!(benches);
