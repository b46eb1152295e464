//! PSR rank-probability computation: incremental O(kn) algorithm vs the
//! O(n·m·k) recomputing reference, across database sizes and k.
//!
//! This is the shared substrate of every query and of the TP quality
//! algorithm, so its scaling underpins Figures 4(e)/4(f) and 5.
//!
//! `psr/mass_k50_10000tuples` runs the scan on the synthetic fixture with
//! every x-tuple rescaled to one total mass.  Below 1 the x-tuples carry
//! null mass and never saturate, which is where PSR's running product
//! used to be rebuilt from every passed x-tuple and where the tail cut,
//! not Lemma 2's, ends the scan; mass 0.5 keeps every factor divisible
//! and is the floor the other masses are held to.
//! `psr/mass_k50_10000tuples_spread` redraws every alternative's score
//! uniformly over the fixture's score range, so each x-tuple's
//! alternatives spread across the whole ranking and many factors are in
//! flight at once.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use pdb_bench::synthetic;
use pdb_core::RankedDatabase;
use pdb_engine::psr::{rank_probabilities, rank_probabilities_exact};
use rand::{rngs::StdRng, Rng, SeedableRng};
use std::hint::black_box;
use std::time::Duration;

fn bench_psr_vs_size(c: &mut Criterion) {
    let mut group = c.benchmark_group("psr/size_k15");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &tuples in &[1_000usize, 5_000, 20_000] {
        let db = synthetic(tuples);
        group.bench_with_input(BenchmarkId::new("incremental", tuples), &db, |b, db| {
            b.iter(|| rank_probabilities(black_box(db), 15).unwrap())
        });
        if tuples <= 5_000 {
            group.bench_with_input(BenchmarkId::new("exact_reference", tuples), &db, |b, db| {
                b.iter(|| rank_probabilities_exact(black_box(db), 15).unwrap())
            });
        }
    }
    group.finish();
}

fn bench_psr_vs_k(c: &mut Criterion) {
    let mut group = c.benchmark_group("psr/k_5000tuples");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let db = synthetic(5_000);
    for &k in &[1usize, 15, 50, 200] {
        group.bench_with_input(BenchmarkId::from_parameter(k), &k, |b, &k| {
            b.iter(|| rank_probabilities(black_box(&db), k).unwrap())
        });
    }
    group.finish();
}

/// The synthetic fixture with every x-tuple's alternatives rescaled to
/// total mass `total`; scores, and so the ranking, are unchanged.
fn synthetic_with_mass(tuples: usize, total: f64) -> RankedDatabase {
    let db = synthetic(tuples);
    let x_tuples: Vec<Vec<(f64, f64)>> = db
        .x_tuples()
        .map(|info| {
            let scale = total / info.total_mass;
            info.members.iter().map(|&p| (db.tuple(p).score, db.tuple(p).prob * scale)).collect()
        })
        .collect();
    RankedDatabase::from_scored_x_tuples(&x_tuples).expect("rescaled x-tuples stay valid")
}

/// [`synthetic_with_mass`] with every alternative's score redrawn, from a
/// fixed seed, uniformly over the fixture's score range.
fn synthetic_spread_with_mass(tuples: usize, total: f64) -> RankedDatabase {
    let db = synthetic_with_mass(tuples, total);
    let scores = db.tuples().map(|t| t.score);
    let (lo, hi) =
        scores.fold((f64::INFINITY, f64::NEG_INFINITY), |(lo, hi), s| (lo.min(s), hi.max(s)));
    let mut rng = StdRng::seed_from_u64(42);
    let x_tuples: Vec<Vec<(f64, f64)>> = db
        .x_tuples()
        .map(|info| {
            info.members.iter().map(|&p| (rng.gen_range(lo..hi), db.tuple(p).prob)).collect()
        })
        .collect();
    RankedDatabase::from_scored_x_tuples(&x_tuples).expect("redrawn scores stay valid")
}

fn bench_psr_vs_mass(c: &mut Criterion) {
    let mut group = c.benchmark_group("psr/mass_k50_10000tuples");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    for &total in &[1.0, 0.999, 0.99, 0.9, 0.5] {
        let db = synthetic_with_mass(10_000, total);
        group.bench_with_input(BenchmarkId::from_parameter(total), &db, |b, db| {
            b.iter(|| rank_probabilities(black_box(db), 50).unwrap())
        });
    }
    group.finish();

    let mut group = c.benchmark_group("psr/mass_k50_10000tuples_spread");
    group.sample_size(20);
    group.warm_up_time(Duration::from_millis(500));
    group.measurement_time(Duration::from_secs(2));
    let db = synthetic_spread_with_mass(10_000, 0.9);
    group.bench_with_input(BenchmarkId::from_parameter(0.9), &db, |b, db| {
        b.iter(|| rank_probabilities(black_box(db), 50).unwrap())
    });
    group.finish();
}

criterion_group!(benches, bench_psr_vs_size, bench_psr_vs_k, bench_psr_vs_mass);
criterion_main!(benches);
