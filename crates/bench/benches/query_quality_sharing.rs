//! Figure 5: sharing the PSR run between query evaluation and quality
//! computation.  Compares (a) evaluating PT-k and quality with two
//! independent PSR runs vs one shared run, and (b) the marginal cost of
//! each query semantics and of the quality score once the rank
//! probabilities are available.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdb_bench::{mov, synthetic};
use pdb_core::RankedDatabase;
use pdb_engine::psr::rank_probabilities;
use pdb_engine::queries::{global_topk, pt_k, u_k_ranks};
use pdb_quality::{quality_tp, quality_tp_with};
use std::hint::black_box;
use std::time::Duration;

const THRESHOLD: f64 = 0.1;

fn bench_sharing(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig5a/query_plus_quality");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let db = synthetic(50_000);
    for &k in &[15usize, 50, 100] {
        group.bench_with_input(BenchmarkId::new("non_sharing", k), &k, |b, &k| {
            b.iter(|| {
                let rp = rank_probabilities(black_box(&db), k).unwrap();
                let answer = pt_k(&db, &rp, THRESHOLD).unwrap();
                let quality = quality_tp(&db, k).unwrap();
                (answer, quality)
            })
        });
        group.bench_with_input(BenchmarkId::new("sharing", k), &k, |b, &k| {
            b.iter(|| {
                let rp = rank_probabilities(black_box(&db), k).unwrap();
                let answer = pt_k(&db, &rp, THRESHOLD).unwrap();
                let quality = quality_tp_with(&db, &rp);
                (answer, quality)
            })
        });
    }
    group.finish();
}

fn bench_marginal_costs(db_name: &str, db: &RankedDatabase, c: &mut Criterion) {
    let mut group = c.benchmark_group(format!("fig5bc/marginal_{db_name}"));
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &k in &[15usize, 100] {
        let rp = rank_probabilities(db, k).unwrap();
        group.bench_with_input(BenchmarkId::new("psr", k), &k, |b, &k| {
            b.iter(|| rank_probabilities(black_box(db), k).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("pt_k_select", k), &rp, |b, rp| {
            b.iter(|| pt_k(black_box(db), rp, THRESHOLD).unwrap())
        });
        group.bench_with_input(BenchmarkId::new("u_k_ranks_select", k), &rp, |b, rp| {
            b.iter(|| u_k_ranks(black_box(db), rp))
        });
        group.bench_with_input(BenchmarkId::new("global_topk_select", k), &rp, |b, rp| {
            b.iter(|| global_topk(black_box(db), rp))
        });
        group.bench_with_input(BenchmarkId::new("quality_extra", k), &rp, |b, rp| {
            b.iter(|| quality_tp_with(black_box(db), rp))
        });
    }
    group.finish();
}

fn bench_marginal(c: &mut Criterion) {
    let synthetic_db = synthetic(50_000);
    bench_marginal_costs("synthetic", &synthetic_db, c);
    let mov_db = mov(4_999);
    bench_marginal_costs("mov", &mov_db, c);
}

criterion_group!(benches, bench_sharing, bench_marginal);
criterion_main!(benches);
