//! Batched quality evaluation across a registered query set.
//!
//! [`BatchQuality`] layers per-query PWS-quality on top of the engine's
//! [`BatchEvaluation`]: every registered query `(kᵢ, semantics, weight)`
//! gets its quality score from the one shared `k_max` PSR run, and the
//! batch exposes the **aggregate** quantities a multi-tenant cleaner
//! optimizes —
//!
//! ```text
//! S_agg(D)   = Σ_q w_q · S(D, Q_q)
//! g_agg(l,D) = Σ_q w_q · g_q(l, D)
//! ```
//!
//! Theorem 1 makes the per-query scores nearly free: the tuple weights ωᵢ
//! depend only on the database (never on `k`), so one weight pass plus one
//! dot product with each query's top-k probability vector yields the whole
//! quality vector.  Both run over the shared matrix's live prefix only
//! (the tail cut at `k_max`, see `RankProbabilities`; Lemma 2's cut on
//! complete data): a tuple past it reads as pᵢ = 0 under every registered
//! query (its true pᵢ is at most `TAIL_EPSILON`, 1e-18), so its weight
//! never counts.
//! And because the aggregate is a fixed positive combination of
//! per-query scores, Theorem 2 applies to it verbatim — the cleaning
//! planners in `pdb-clean` run unchanged on a `CleaningContext` built
//! from `g_agg` (see `CleaningContext::from_batch` there), so one plan
//! maximizes the expected improvement summed over every registered query.
//!
//! Probe outcomes flow through
//! [`BatchQuality::apply_collapse_in_place`]: one delta pass on the
//! shared matrix re-serves every query, and the returned
//! [`BatchCollapseUpdate`] carries the refreshed quality vector and
//! aggregate decomposition for re-planning.
//!
//! A single query is a one-query batch, so this is the crate's one
//! evaluation type: `CleaningContext::prepare` builds a one-query batch,
//! the server holds one per session.

use crate::tp::tuple_weight;
use pdb_core::{DbError, RankedDatabase, Result};
use pdb_engine::batch::BatchEvaluation;
use pdb_engine::delta::{DeltaStats, XTupleMutation};
use pdb_engine::psr::RankAccess;
use pdb_engine::queries::{QueryAnswer, TopKQuery};
use serde::{Deserialize, Serialize};

/// One registered query together with its serving weight (the importance
/// the aggregate quality assigns to it).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WeightedQuery {
    /// The query (semantics + `k` + parameters).
    pub query: TopKQuery,
    /// Non-negative finite weight `w_q` in the aggregate `Σ_q w_q·S_q`.
    pub weight: f64,
}

impl WeightedQuery {
    /// A query with the default weight 1.
    pub fn new(query: TopKQuery) -> Self {
        Self { query, weight: 1.0 }
    }

    /// A query with an explicit weight.
    pub fn weighted(query: TopKQuery, weight: f64) -> Self {
        Self { query, weight }
    }
}

/// Result of applying one probe outcome to a [`BatchQuality`] in place:
/// everything an aggregate re-planner needs for the next probe.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct BatchCollapseUpdate {
    /// `S(D′, Q_q)` for every registered query, in registration order.
    pub qualities: Vec<f64>,
    /// The new aggregate quality `Σ_q w_q·S(D′, Q_q)`.
    pub aggregate: f64,
    /// Change to the aggregate quality realised by this mutation.
    pub aggregate_delta: f64,
    /// The aggregate per-x-tuple decomposition `g_agg(l, D′)`, indexed by
    /// the mutated database's x-indices.
    pub g: Vec<f64>,
    /// How the (single, shared) delta pass produced the updated rows.
    pub stats: DeltaStats,
}

/// A set of weighted queries served — answers *and* quality scores — from
/// one shared PSR run.
#[derive(Debug, Clone)]
pub struct BatchQuality<'a> {
    eval: BatchEvaluation<'a>,
    weights: Vec<f64>,
    /// Cached Theorem-1 tuple weights ωᵢ of the current database version,
    /// for the master matrix's live prefix.  They depend only on the
    /// database (never on `k`), so one O(live) pass serves every
    /// registered query's quality.  A tuple's weight depends only on its
    /// own x-tuple's masses, so a mutation carries the others with their
    /// rows ([`RowMoves::carry`](pdb_engine::delta::RowMoves::carry)) and
    /// computes only the mutated x-tuple's rows and the rows newly inside
    /// the live prefix.
    tuple_w: Vec<f64>,
    /// Cached aggregate quality `Σ_q w_q·S_q` of the current database
    /// version, maintained at construction and across mutations so a
    /// serving loop never rescans the matrix for the pre-probe score.
    aggregate: f64,
}

/// The Theorem-1 weights of the live prefix of `eval`'s master matrix:
/// the only tuples any registered query can rank.
fn live_tuple_weights(eval: &BatchEvaluation<'_>) -> Vec<f64> {
    let db = eval.database();
    (0..eval.master().live_rows()).map(|pos| tuple_weight(db, pos)).collect()
}

/// `Σ_q w_q·S_q` from a quality vector.
fn weighted_aggregate(qualities: &[f64], weights: &[f64]) -> f64 {
    qualities.iter().zip(weights).map(|(s, w)| s * w).sum()
}

fn validate_weights(weights: &[f64]) -> Result<()> {
    for (q, &w) in weights.iter().enumerate() {
        if !w.is_finite() || w < 0.0 {
            return Err(DbError::invalid_parameter(format!(
                "query {q} has invalid weight {w}; weights must be finite and non-negative"
            )));
        }
    }
    Ok(())
}

impl<'a> BatchQuality<'a> {
    /// Plan the query set and run PSR once at `k_max`, borrowing the
    /// database.
    pub fn new(db: &'a RankedDatabase, specs: Vec<WeightedQuery>) -> Result<Self> {
        Self::build(specs, |queries| BatchEvaluation::new(db, queries))
    }

    /// [`new`](Self::new) taking ownership of the database (the long-lived
    /// serving form).
    pub fn from_owned(
        db: RankedDatabase,
        specs: Vec<WeightedQuery>,
    ) -> Result<BatchQuality<'static>> {
        BatchQuality::build(specs, |queries| BatchEvaluation::from_owned(db, queries))
    }

    /// Validate the weights, then run the engine evaluation and fill the
    /// quality caches.
    fn build(
        specs: Vec<WeightedQuery>,
        evaluate: impl FnOnce(Vec<TopKQuery>) -> Result<BatchEvaluation<'a>>,
    ) -> Result<Self> {
        let (queries, weights): (Vec<TopKQuery>, Vec<f64>) =
            specs.into_iter().map(|s| (s.query, s.weight)).unzip();
        validate_weights(&weights)?;
        let eval = evaluate(queries)?;
        let tuple_w = live_tuple_weights(&eval);
        let mut batch = Self { eval, weights, tuple_w, aggregate: 0.0 };
        batch.aggregate = weighted_aggregate(&batch.quality_vector(), &batch.weights);
        Ok(batch)
    }

    /// The underlying engine-level batch evaluation.
    pub fn evaluation(&self) -> &BatchEvaluation<'a> {
        &self.eval
    }

    /// The database under evaluation.
    pub fn database(&self) -> &RankedDatabase {
        self.eval.database()
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.eval.num_queries()
    }

    /// The per-query weights, in registration order.
    pub fn weights(&self) -> &[f64] {
        &self.weights
    }

    /// Answer every registered query from the shared matrix.
    pub fn answers(&self) -> Result<Vec<QueryAnswer>> {
        self.eval.answers()
    }

    /// `Σ_q w_q · pᵢ^{(q)}`: each tuple's top-k probability combined
    /// across the registered queries, over the live prefix (every later
    /// tuple combines to zero).  This is the only per-tuple quantity the
    /// aggregate quality and its decomposition need.
    pub fn combined_top_k_probs(&self) -> Vec<f64> {
        self.per_query_parts().1
    }

    /// `S(D, Q_q)` for every registered query: one dot product per query
    /// of the cached tuple weights (ωᵢ is independent of `k`) with its
    /// top-k probabilities, over the live prefix.
    pub fn quality_vector(&self) -> Vec<f64> {
        self.per_query_parts().0
    }

    /// The aggregate quality `Σ_q w_q · S(D, Q_q)` of the current database
    /// version (cached; maintained across mutations).
    pub fn aggregate_quality(&self) -> f64 {
        self.aggregate
    }

    /// One pass over the per-query top-k vectors producing the quality
    /// vector *and* the combined probabilities together: the single
    /// weighted-scan implementation behind `quality_vector`,
    /// `combined_top_k_probs`, `aggregate_parts` and the post-mutation
    /// refresh.
    fn per_query_parts(&self) -> (Vec<f64>, Vec<f64>) {
        let w = &self.tuple_w;
        let mut combined = vec![0.0; w.len()];
        let mut qualities = Vec::with_capacity(self.num_queries());
        for q in 0..self.num_queries() {
            let wq = self.weights[q];
            let ranks = self.eval.ranks(q);
            let probs = ranks.top_k_probs();
            let mut quality = 0.0;
            for ((wi, &p), c) in w.iter().zip(probs).zip(combined.iter_mut()) {
                quality += wi * p;
                // pdb-analyze: allow(float-eq): sparsity gate against an exact literal weight; a near-zero weight must still contribute
                if wq != 0.0 {
                    *c += wq * p;
                }
            }
            qualities.push(quality);
        }
        (qualities, combined)
    }

    /// Fold a combined probability vector into the per-x-tuple aggregate
    /// decomposition `g_agg`.
    fn g_from_combined(&self, combined: &[f64]) -> Vec<f64> {
        let db = self.database();
        let mut g = vec![0.0; db.num_x_tuples()];
        for (pos, (w, c)) in self.tuple_w.iter().zip(combined).enumerate() {
            let term = w * c;
            // pdb-analyze: allow(float-eq): sparsity gate — skips exactly-zero terms so untouched x-tuples stay untouched; near-zero terms must accumulate
            if term != 0.0 {
                g[db.tuple(pos).x_index] += term;
            }
        }
        g
    }

    /// The aggregate per-x-tuple decomposition `g_agg(l, D)`: cleaning
    /// x-tuple `l` removes `−g_agg(l, D)` of weighted ambiguity across the
    /// whole query set in expectation.  Sums to
    /// [`aggregate_quality`](Self::aggregate_quality).
    pub fn aggregate_breakdown(&self) -> Vec<f64> {
        self.aggregate_parts().0
    }

    /// [`aggregate_breakdown`](Self::aggregate_breakdown) and
    /// [`combined_top_k_probs`](Self::combined_top_k_probs) from one
    /// O(live·Q) accumulation pass — the form `CleaningContext::from_batch`
    /// consumes, since an aggregate re-planner needs both per probe.
    pub fn aggregate_parts(&self) -> (Vec<f64>, Vec<f64>) {
        let (_, combined) = self.per_query_parts();
        (self.g_from_combined(&combined), combined)
    }

    /// Apply a single-x-tuple mutation (one observed probe outcome) to the
    /// batch: one shared delta pass patches the master matrix, every
    /// registered query is re-served from it, and the refreshed quality
    /// vector / aggregate decomposition are returned for re-planning.  On
    /// `Err` nothing is modified.  A caller that still needs the
    /// pre-mutation state (an oracle, a what-if branch) applies the
    /// mutation to a clone.
    pub fn apply_collapse_in_place(
        &mut self,
        l: usize,
        mutation: &XTupleMutation,
    ) -> Result<BatchCollapseUpdate> {
        let (stats, moves) = self.eval.apply_collapse_with_moves(l, mutation)?;
        let (db, live) = (self.eval.database(), self.eval.master().live_rows());
        moves.carry(&mut self.tuple_w, live, |pos| tuple_weight(db, pos));
        let (qualities, combined) = self.per_query_parts();
        let aggregate = weighted_aggregate(&qualities, &self.weights);
        let aggregate_delta = aggregate - self.aggregate;
        self.aggregate = aggregate;
        let g = self.g_from_combined(&combined);
        Ok(BatchCollapseUpdate { qualities, aggregate, aggregate_delta, g, stats })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pw::quality_pw;
    use crate::tp::quality_tp;

    fn udb1() -> RankedDatabase {
        RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ])
        .unwrap()
    }

    fn specs() -> Vec<WeightedQuery> {
        vec![
            WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 }),
            WeightedQuery::weighted(TopKQuery::GlobalTopk { k: 3 }, 2.0),
            WeightedQuery::weighted(TopKQuery::UKRanks { k: 1 }, 0.5),
        ]
    }

    #[test]
    fn quality_vector_matches_independent_tp_runs() {
        let db = udb1();
        let batch = BatchQuality::new(&db, specs()).unwrap();
        let qualities = batch.quality_vector();
        let mut aggregate = 0.0;
        for (q, spec) in specs().iter().enumerate() {
            let independent = quality_tp(&db, spec.query.k()).unwrap();
            assert!(
                (qualities[q] - independent).abs() < 1e-10,
                "query {q}: {} vs {independent}",
                qualities[q]
            );
            aggregate += spec.weight * independent;
        }
        assert!((batch.aggregate_quality() - aggregate).abs() < 1e-10);
    }

    #[test]
    fn aggregate_breakdown_sums_to_aggregate_quality() {
        let db = udb1();
        let batch = BatchQuality::new(&db, specs()).unwrap();
        let g = batch.aggregate_breakdown();
        assert_eq!(g.len(), 4);
        assert!((g.iter().sum::<f64>() - batch.aggregate_quality()).abs() < 1e-10);
        // Ambiguity contributions are non-positive for non-negative weights.
        assert!(g.iter().all(|&v| v <= 1e-12));
    }

    #[test]
    fn zero_weight_queries_do_not_move_the_aggregate() {
        let db = udb1();
        let mut with_zero = specs();
        with_zero.push(WeightedQuery::weighted(TopKQuery::PTk { k: 4, threshold: 0.1 }, 0.0));
        let a = BatchQuality::new(&db, specs()).unwrap().aggregate_quality();
        let b = BatchQuality::new(&db, with_zero).unwrap().aggregate_quality();
        assert!((a - b).abs() < 1e-12);
    }

    #[test]
    fn invalid_weights_are_rejected() {
        let db = udb1();
        let bad = vec![WeightedQuery::weighted(TopKQuery::UKRanks { k: 1 }, -1.0)];
        assert!(BatchQuality::new(&db, bad).is_err());
        let nan = vec![WeightedQuery::weighted(TopKQuery::UKRanks { k: 1 }, f64::NAN)];
        assert!(BatchQuality::new(&db, nan).is_err());
    }

    #[test]
    fn weighted_query_round_trips_through_json() {
        for spec in specs() {
            let json = serde_json::to_string(&spec).unwrap();
            let back: WeightedQuery = serde_json::from_str(&json).unwrap();
            assert_eq!(back, spec, "via {json}");
        }
    }

    #[test]
    fn batch_collapse_update_round_trips_through_json() {
        let mut batch = BatchQuality::from_owned(udb1(), specs()).unwrap();
        let update = batch
            .apply_collapse_in_place(2, &XTupleMutation::CollapseToAlternative { keep_pos: 2 })
            .unwrap();
        let json = serde_json::to_string(&update).unwrap();
        let back: BatchCollapseUpdate = serde_json::from_str(&json).unwrap();
        // The vendored serde_json prints shortest-round-trip floats, so the
        // decoded update is bit-identical, not merely close.
        assert_eq!(back, update, "via {json}");
    }

    #[test]
    fn evaluation_is_send_and_sync() {
        // Sessions move between server threads, and read-only query
        // evaluation may fan out across threads.
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<BatchQuality<'static>>();
    }

    #[test]
    fn collapse_refreshes_every_quality() {
        let batch = BatchQuality::from_owned(udb1(), specs()).unwrap();
        let before = batch.aggregate_quality();
        let mut next = batch.clone();
        let update = next
            .apply_collapse_in_place(2, &XTupleMutation::CollapseToAlternative { keep_pos: 2 })
            .unwrap();
        assert!(update.aggregate > before, "cleaning improves the weighted aggregate");
        assert!((update.aggregate_delta - (update.aggregate - before)).abs() < 1e-12);
        assert!((update.g.iter().sum::<f64>() - update.aggregate).abs() < 1e-10);
        assert!(update.stats.rows_total() > 0);
        for (q, spec) in specs().iter().enumerate() {
            let independent = quality_tp(next.database(), spec.query.k()).unwrap();
            assert!(
                (update.qualities[q] - independent).abs() < 1e-8,
                "query {q}: {} vs {independent}",
                update.qualities[q]
            );
        }
        // The clone the mutation was applied to is independent.
        assert!((batch.aggregate_quality() - before).abs() < 1e-12);
    }

    /// 150 x-tuples × 4 alternatives, each inside its own 3-point score
    /// band, every one with null mass (totals 0.6–0.84): none saturates,
    /// so the tail cut ends the live prefix well inside the table.
    fn null_mass_chain() -> RankedDatabase {
        let x: Vec<Vec<(f64, f64)>> = (0..150)
            .map(|i| {
                let prob = 0.15 + 0.01 * (i % 7) as f64;
                (0..4).map(|j| (1000.0 - 4.0 * i as f64 - 0.9 * j as f64, prob)).collect()
            })
            .collect();
        RankedDatabase::from_scored_x_tuples(&x).unwrap()
    }

    #[test]
    fn carried_tuple_weights_equal_a_full_recompute_after_every_mutation_kind() {
        let specs = vec![
            WeightedQuery::new(TopKQuery::UKRanks { k: 3 }),
            WeightedQuery::new(TopKQuery::GlobalTopk { k: 8 }),
        ];
        let mut batch = BatchQuality::from_owned(null_mass_chain(), specs).unwrap();
        let bits = |w: &[f64]| w.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let mut cut_moved_down = false;
        let mut arrived_inside = false;
        for kind in 0..6 {
            let live = batch.evaluation().master().live_rows();
            assert!(live < batch.database().len() / 2, "the tail cut ends the prefix: {live}");
            let db = batch.database();
            let l = db.tuple(live / 2).x_index;
            let members = db.x_tuple(l).members.clone();
            let (target, mutation) = match kind {
                // Withdrawing mass above the cut moves the cut down.
                0 => (l, XTupleMutation::Reweight { probs: vec![0.02; members.len()] }),
                1 => (l, XTupleMutation::Reweight { probs: vec![0.2; members.len()] }),
                2 => (l, XTupleMutation::CollapseToAlternative { keep_pos: members[1] }),
                3 => (l, XTupleMutation::CollapseToNull),
                4 => {
                    let score = db.tuple(live / 3).score;
                    let alternatives = vec![(score + 0.1, 0.3), (score - 2.0, 0.3)];
                    (
                        db.num_x_tuples(),
                        XTupleMutation::Insert { key: "arrival".into(), alternatives },
                    )
                }
                _ => (l, XTupleMutation::Remove),
            };
            batch.apply_collapse_in_place(target, &mutation).unwrap();
            let after = batch.evaluation().master().live_rows();
            cut_moved_down |= after > live;
            if kind == 4 {
                arrived_inside = batch.database().x_tuple(target).members[0] < live;
            }
            assert_eq!(batch.tuple_w.len(), after, "{mutation:?}");
            assert_eq!(
                bits(&batch.tuple_w),
                bits(&live_tuple_weights(&batch.eval)),
                "{mutation:?}: carried weights vs a full recompute"
            );
        }
        assert!(cut_moved_down, "one mutation moved the tail cut down");
        assert!(arrived_inside, "the arrival landed inside the live prefix");
    }

    #[test]
    fn apply_collapse_chains_across_owned_evaluations() {
        let top2 = vec![WeightedQuery::new(TopKQuery::UKRanks { k: 2 })];
        let mut batch = BatchQuality::from_owned(udb1(), top2).unwrap();
        let mut quality = batch.aggregate_quality();
        for l in [2usize, 1, 0] {
            let keep_pos = batch.database().x_tuple(l).members[0];
            let update = batch
                .apply_collapse_in_place(l, &XTupleMutation::CollapseToAlternative { keep_pos })
                .unwrap();
            assert!(update.aggregate >= quality - 1e-12, "collapsing never hurts the quality");
            quality = update.aggregate;
        }
        // Every x-tuple is certain now, so the ambiguity is fully resolved.
        assert!(quality.abs() < 1e-9);
        assert!((quality - quality_pw(batch.database(), 2).unwrap()).abs() < 1e-8);
    }
}
