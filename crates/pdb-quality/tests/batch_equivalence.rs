//! Equivalence of the batched multi-query shared evaluation and
//! independent per-query runs.
//!
//! [`BatchQuality`] promises that every registered query is served from
//! the one shared `k_max` PSR run exactly as if it had paid its own full
//! PSR + TP pipeline: identical rank probabilities (the prefix property
//! is bit-for-bit), identical answers, and quality scores within the
//! documented 1e-8 tolerance of an independent run.  These tests pin that
//! promise across proptest-generated databases and query sets — including
//! `kᵢ = n`, `kᵢ > n`, single-query degenerate batches, duplicate `kᵢ`,
//! and mixed semantics — and across delta-patched (post-collapse) batch
//! states.

use pdb_core::RankedDatabase;
use pdb_engine::batch::BatchEvaluation;
use pdb_engine::psr::{rank_probabilities, RankAccess};
use pdb_quality::{
    quality_tp, quality_tp_with, BatchQuality, TopKQuery, WeightedQuery, XTupleMutation,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// Tolerance of a batch-served quality score against an independent full
/// PSR + TP run.
const TOLERANCE: f64 = 1e-8;

fn x_tuple() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (vec((0.0f64..100.0, 0.05f64..1.0), 1..4), 0.1f64..1.0).prop_map(|(alts, mass)| {
        let total: f64 = alts.iter().map(|(_, w)| w).sum();
        alts.into_iter().map(|(s, w)| (s, w / total * mass)).collect()
    })
}

fn db() -> impl Strategy<Value = RankedDatabase> {
    vec(x_tuple(), 2..8).prop_map(|x| RankedDatabase::from_scored_x_tuples(&x).unwrap())
}

/// An abstract query drawn as (semantics selector, k selector, weight);
/// `k` is resolved against the database size so the set covers `kᵢ = n`
/// and `kᵢ > n` alongside small prefixes.
fn query_set() -> impl Strategy<Value = Vec<(u8, usize, f64)>> {
    vec((0u8..3, 0usize..12, 0.0f64..3.0), 1..6)
}

fn resolve_queries(db: &RankedDatabase, raw: &[(u8, usize, f64)]) -> Vec<WeightedQuery> {
    let n = db.len();
    raw.iter()
        .map(|&(kind, k_sel, weight)| {
            // k ranges over 1..=n+2: prefixes, the full matrix and beyond.
            let k = 1 + k_sel % (n + 2);
            let query = match kind {
                0 => TopKQuery::PTk { k, threshold: 0.1 },
                1 => TopKQuery::UKRanks { k },
                _ => TopKQuery::GlobalTopk { k },
            };
            WeightedQuery::weighted(query, weight)
        })
        .collect()
}

/// Every registered query's shared-matrix service must match what it
/// would get from its own full PSR run.
fn assert_batch_matches_independent(db: &RankedDatabase, specs: &[WeightedQuery], ctx: &str) {
    let batch = BatchQuality::new(db, specs.to_vec()).unwrap();
    let qualities = batch.quality_vector();
    let answers = batch.answers().unwrap();
    let mut aggregate = 0.0;
    for (q, spec) in specs.iter().enumerate() {
        let k = spec.query.k();
        // Quality: independent full PSR + TP run, tolerance 1e-8.
        let independent = quality_tp(db, k).unwrap();
        assert!(
            (qualities[q] - independent).abs() < TOLERANCE,
            "{ctx}: query {q} quality {} vs independent {independent}",
            qualities[q]
        );
        aggregate += spec.weight * independent;
        // Answers: identical to an independent evaluation.
        let independent_answer = spec.query.evaluate(db).unwrap();
        assert_eq!(answers[q], independent_answer, "{ctx}: query {q} answer");
        // Rank probabilities: the prefix property is bit-for-bit.
        let rp = rank_probabilities(db, k).unwrap();
        let ranks = batch.evaluation().ranks(q);
        for pos in 0..db.len() {
            assert_eq!(ranks.top_k_prob(pos), rp.top_k_prob(pos), "{ctx}: q {q} pos {pos}");
            for h in 1..=k {
                assert_eq!(
                    ranks.rank_prob(pos, h),
                    rp.rank_prob(pos, h),
                    "{ctx}: q {q} pos {pos} h {h}"
                );
            }
        }
    }
    assert!(
        (batch.aggregate_quality() - aggregate).abs() < TOLERANCE,
        "{ctx}: aggregate {} vs independent {aggregate}",
        batch.aggregate_quality()
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn batch_matches_independent_runs((db, raw) in (db(), query_set())) {
        let specs = resolve_queries(&db, &raw);
        assert_batch_matches_independent(&db, &specs, "fresh batch");
    }

    #[test]
    fn single_query_batch_matches_shared_evaluation(
        db in db(),
        k_sel in 0usize..12,
        threshold in 0.01f64..0.9,
    ) {
        // The degenerate one-query batch must collapse to exactly what one
        // PSR run shared by the answer and TP produces (including k = n
        // and k > n).
        let k = 1 + k_sel % (db.len() + 2);
        let specs = vec![WeightedQuery::new(TopKQuery::PTk { k, threshold })];
        assert_batch_matches_independent(&db, &specs, "single-query batch");

        let batch = BatchQuality::new(&db, specs).unwrap();
        let rp = rank_probabilities(&db, k).unwrap();
        prop_assert!((batch.quality_vector()[0] - quality_tp_with(&db, &rp)).abs() < TOLERANCE);
        prop_assert_eq!(batch.evaluation().ranks(0).top_k_probs(), rp.top_k_probs());
    }

    #[test]
    fn collapsed_batch_still_matches_independent_runs(
        (db, raw) in (db(), query_set()),
        x_sel in any::<usize>(),
        alt_sel in any::<usize>(),
    ) {
        // After a delta-patched probe outcome, every query must still be
        // served as if freshly evaluated on the mutated database.
        let specs = resolve_queries(&db, &raw);
        let queries: Vec<TopKQuery> = specs.iter().map(|s| s.query).collect();
        let mut next = BatchEvaluation::new(&db, queries.clone()).unwrap();
        let l = x_sel % db.num_x_tuples();
        let members = &db.x_tuple(l).members;
        let keep_pos = members[alt_sel % members.len()];
        next.apply_collapse_in_place(l, &XTupleMutation::CollapseToAlternative { keep_pos })
            .unwrap();
        let mutated = next.database();
        for (q, query) in queries.iter().enumerate() {
            let independent = rank_probabilities(mutated, query.k()).unwrap();
            let ranks = next.ranks(q);
            for pos in 0..mutated.len() {
                for h in 1..=query.k() {
                    let got = ranks.rank_prob(pos, h);
                    let want = independent.rank_prob(pos, h);
                    prop_assert!(
                        (got - want).abs() < TOLERANCE,
                        "q {} pos {} h {}: {} vs {}", q, pos, h, got, want
                    );
                }
            }
        }
    }
}

#[test]
fn duplicate_and_equal_k_queries_share_one_snapshot() {
    let db = RankedDatabase::from_scored_x_tuples(&[
        vec![(21.0, 0.6), (32.0, 0.4)],
        vec![(30.0, 0.7), (22.0, 0.3)],
        vec![(25.0, 0.4), (27.0, 0.6)],
        vec![(26.0, 1.0)],
    ])
    .unwrap();
    let n = db.len();
    // Three queries at the same k, plus k = n and k = n + 2.
    let specs = vec![
        WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 }),
        WeightedQuery::weighted(TopKQuery::UKRanks { k: 2 }, 2.0),
        WeightedQuery::weighted(TopKQuery::GlobalTopk { k: 2 }, 0.5),
        WeightedQuery::new(TopKQuery::PTk { k: n, threshold: 0.1 }),
        WeightedQuery::new(TopKQuery::GlobalTopk { k: n + 2 }),
    ];
    let batch = BatchQuality::new(&db, specs.clone()).unwrap();
    // One snapshot serves all three k = 2 queries; k_max = n + 2.
    assert_eq!(batch.evaluation().plan().snapshot_ks(), &[2, n]);
    assert_eq!(batch.evaluation().k_max(), n + 2);
    assert_batch_matches_independent(&db, &specs, "duplicate-k batch");
}
