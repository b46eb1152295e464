//! Adaptive re-planning: per-probe full PSR rebuild vs the incremental
//! delta engine, on the synthetic generator's default workload.
//!
//! Two granularities:
//!
//! * `delta/` — the kernel itself: one single-x-tuple mutation applied via
//!   the in-place delta engine (a one-query
//!   [`BatchEvaluation::apply_collapse_in_place`]) against one full
//!   [`rank_probabilities`] rerun on the same database (a reweighting
//!   mutation, so the database size stays fixed and the step can be
//!   repeated indefinitely);
//! * `adaptive_session/` — a whole budgeted session (probes collapse
//!   x-tuples) in each [`ReplanMode`], probe stream held fixed.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdb_bench::{cleaning_setup, synthetic};
use pdb_clean::{run_adaptive_session_with, ReplanMode};
use pdb_engine::batch::BatchEvaluation;
use pdb_engine::delta::XTupleMutation;
use pdb_engine::psr::rank_probabilities;
use pdb_engine::queries::TopKQuery;
use rand::{rngs::StdRng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

const K: usize = 50;

fn bench_delta_vs_rebuild(c: &mut Criterion) {
    let mut group = c.benchmark_group("delta/reweight_k50");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &tuples in &[10_000usize, 50_000] {
        let db = synthetic(tuples);
        // Reweight an x-tuple near the middle of the ranking, alternating
        // between two sharpenings of its distribution (a probe that
        // narrows an entity without collapsing it).
        let l = db.tuple(db.len() / 2).x_index;
        let m = db.x_tuple(l).members.len();
        let probs_a: Vec<f64> =
            (0..m).map(|i| if i == 0 { 0.9 } else { 0.1 / (m - 1) as f64 }).collect();
        let probs_b: Vec<f64> = probs_a.iter().rev().copied().collect();
        let mutations = [
            XTupleMutation::Reweight { probs: probs_a },
            XTupleMutation::Reweight { probs: probs_b },
        ];
        let mut eval =
            BatchEvaluation::from_owned(db.clone(), vec![TopKQuery::UKRanks { k: K }]).unwrap();
        let mut flip = 0usize;
        group.bench_with_input(BenchmarkId::new("incremental", tuples), &(), |b, ()| {
            b.iter(|| {
                flip ^= 1;
                eval.apply_collapse_in_place(l, black_box(&mutations[flip])).unwrap()
            })
        });
        group.bench_with_input(BenchmarkId::new("full_rebuild", tuples), &db, |b, db| {
            b.iter(|| rank_probabilities(black_box(db), K).unwrap())
        });
    }
    group.finish();
}

fn bench_adaptive_session(c: &mut Criterion) {
    let mut group = c.benchmark_group("adaptive_session/n10000_k50");
    group.sample_size(10);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(3));
    let db = synthetic(10_000);
    let setup = cleaning_setup(db.num_x_tuples());
    for &budget in &[16u64, 64] {
        for (name, mode) in
            [("incremental", ReplanMode::Incremental), ("full_rebuild", ReplanMode::FullRebuild)]
        {
            group.bench_with_input(BenchmarkId::new(name, budget), &budget, |b, &budget| {
                b.iter(|| {
                    let mut rng = StdRng::seed_from_u64(7);
                    run_adaptive_session_with(black_box(&db), &setup, K, budget, mode, &mut rng)
                        .unwrap()
                })
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_delta_vs_rebuild, bench_adaptive_session);
criterion_main!(benches);
