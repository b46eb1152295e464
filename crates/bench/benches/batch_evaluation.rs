//! Batched multi-query shared evaluation: one PSR run at `k_max` serving a
//! whole registered query set vs one independent evaluation per query,
//! the shared delta repatch vs a full batch rebuild after a probe outcome,
//! and answering a registered query set from the shared matrix.
//! Times the same workload as the `batch-q` experiment (n = 10⁴); the
//! `bench-smoke` CI job runs this target in quick mode and commits its
//! medians as `BENCH_batch.json` (see `crates/bench/src/bin/bench_json.rs`).

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdb_bench::synthetic;
use pdb_engine::batch::BatchEvaluation;
use pdb_engine::delta::XTupleMutation;
use pdb_engine::psr::rank_probabilities;
use pdb_engine::queries::{pt_k, TopKQuery};
// The same registered query set the batch-q experiment measures, so the
// committed BENCH_batch.json and the experiment figures track one
// workload.
use pdb_experiments::datasets::DEFAULT_THRESHOLD as THRESHOLD;
use pdb_experiments::sharing_exp::batch_query_set as query_set;
use pdb_quality::{quality_tp_with, BatchQuality};
use std::hint::black_box;
use std::time::Duration;

const TUPLES: usize = 10_000;

fn bench_batch_vs_independent(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch/query_plus_quality");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let db = synthetic(TUPLES);
    for &q in &[2usize, 10] {
        let specs = query_set(q);
        group.bench_with_input(BenchmarkId::new("independent", q), &q, |b, _| {
            b.iter(|| {
                let mut out = Vec::with_capacity(specs.len());
                for spec in &specs {
                    let rp = rank_probabilities(black_box(&db), spec.query.k()).unwrap();
                    let answer = pt_k(&db, &rp, THRESHOLD).unwrap();
                    out.push((answer.len(), quality_tp_with(&db, &rp)));
                }
                out
            })
        });
        group.bench_with_input(BenchmarkId::new("shared", q), &q, |b, _| {
            b.iter(|| {
                let batch = BatchQuality::new(black_box(&db), specs.clone()).unwrap();
                let answers = batch.answers().unwrap();
                (answers.len(), batch.quality_vector())
            })
        });
    }
    group.finish();
}

fn bench_collapse_repatch(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch/collapse");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let db = synthetic(TUPLES);
    let queries: Vec<TopKQuery> = query_set(10).into_iter().map(|s| s.query).collect();
    let batch = BatchEvaluation::new(&db, queries.clone()).unwrap();
    // Probe the x-tuple at the middle of the live prefix (row ~1,000 above
    // the tail cut at ~2,000 for k_max 200): the delta pass rewrites the
    // rows below it with one windowed PSR scan, checked before timing.
    let l = db.tuple(batch.master().live_rows() / 2).x_index;
    let keep = db.x_tuple(l).members[0];
    let mutation = XTupleMutation::CollapseToAlternative { keep_pos: keep };
    let stats = batch.clone().apply_collapse_in_place(l, &mutation).unwrap();
    assert_eq!(stats.windowed_scans, 1, "the collapse of x-tuple {l} runs one scan: {stats:?}");
    // One shared delta pass re-serves all 10 registered queries.  Each
    // iteration patches a fresh clone, so the database and matrix copy is
    // timed along with the patch.
    group.bench_with_input(BenchmarkId::new("delta_repatch", 10), &l, |b, &l| {
        b.iter(|| {
            let mut next = batch.clone();
            let stats = next.apply_collapse_in_place(black_box(l), &mutation).unwrap();
            (next, stats)
        })
    });
    // Baseline: rebuild the whole batch evaluation on the mutated database.
    let mut mutated = db.clone();
    mutated.collapse_x_tuple_in_place(l, keep).unwrap();
    group.bench_with_input(BenchmarkId::new("full_rebuild", 10), &mutated, |b, mutated| {
        b.iter(|| BatchEvaluation::new(black_box(mutated), queries.clone()).unwrap())
    });
    group.finish();
}

/// The `evaluate` verb's engine work: answering servebench's three
/// registered queries (U-kRanks k = 5, PT-k k = 15 τ = 0.1, Global-topk
/// k = 50) from one shared run over 10³ complete x-tuples × 10.
fn bench_answers(c: &mut Criterion) {
    let mut group = c.benchmark_group("batch/answers");
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let db = synthetic(TUPLES);
    let queries = vec![
        TopKQuery::UKRanks { k: 5 },
        TopKQuery::PTk { k: 15, threshold: 0.1 },
        TopKQuery::GlobalTopk { k: 50 },
    ];
    let batch = BatchEvaluation::new(&db, queries).unwrap();
    group.bench_function(BenchmarkId::from_parameter(format!("n{TUPLES}")), |b| {
        b.iter(|| black_box(&batch).answers().unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_batch_vs_independent, bench_collapse_repatch, bench_answers);
criterion_main!(benches);
