//! Batched multi-query shared evaluation.
//!
//! A serving-scale deployment answers many registered top-k queries —
//! different `k`, different semantics, different thresholds — over the
//! *same* ranked database.  Evaluating each query independently costs one
//! full PSR run per query, O(Σᵢ n·kᵢ) in total.  But the rank-probability
//! matrix has a **prefix structure** (see
//! [`RankProbabilities::prefix`]): a single PSR run at
//! `k_max = maxᵢ kᵢ` contains the run at every smaller `k` bit for bit,
//! so one O(n·k_max) scan serves the whole batch:
//!
//! ```text
//! independent:  Σᵢ n·kᵢ   polynomial steps  (Q full PSR runs)
//! batched:      n·k_max   polynomial steps  + one O(n·k_max) prefix-sum pass
//! ```
//!
//! The per-query *snapshots* are deliberately cheap: a query at `kᵢ`
//! needs its tuples' rank-h probabilities (columns `1..=kᵢ` of the master
//! matrix, read in place — no copy) and its top-kᵢ probability vector
//! (the running prefix sum of each master row, cut at `kᵢ`).  Both cover
//! only the master's live prefix, the rows above its tail cut at `k_max`
//! (see [`RankProbabilities`]); every later tuple reads as probability
//! zero under every registered query.  A snapshot keeps the master's
//! prefix rather than re-cutting at its own `kᵢ` (as
//! [`RankProbabilities::prefix`] does), so its entries between the two
//! cuts are at most [`TAIL_EPSILON`](crate::psr::TAIL_EPSILON).  One pass
//! over the master emits every registered query's top-k vector at once,
//! so the batch's total extra work is a single scan of the matrix it
//! already computed — materializing per-query ρ copies would cost more
//! than the shared PSR run itself.  [`QueryRanks`] is that zero-copy
//! view; the query semantics and the TP quality algorithm accept it
//! through the [`RankAccess`] trait.
//!
//! [`BatchPlan`] performs the planning step (deduplicate the `kᵢ`, pick
//! `k_max`, map each query to its snapshot); [`BatchEvaluation`] executes
//! it.  Single-x-tuple mutations (probe outcomes) are carried through the
//! incremental delta engine **once**, on the master matrix, and every
//! per-query snapshot is re-derived from the patched master — one delta
//! pass instead of one per registered query
//! ([`BatchEvaluation::apply_collapse_in_place`]).
//!
//! [`BatchEvaluation`] is the engine's one evaluation type: a single
//! query is a one-query batch (its master matrix *is* that query's PSR
//! run), and a caller that needs the pre-mutation state keeps a clone.
//! The quality layer on top (per-query PWS-quality, aggregate-improvement
//! cleaning) lives in `pdb-quality`'s `batch` module, which wraps this
//! type.

use crate::delta::{mutate_in_place, DeltaStats, RowMoves, XTupleMutation};
use crate::psr::{rank_probabilities, RankAccess, RankProbabilities};
use crate::queries::{QueryAnswer, TopKQuery};
use pdb_core::{DbError, RankedDatabase, Result};
use serde::{Deserialize, Serialize};
use std::borrow::Cow;

/// How a set of registered queries maps onto one shared PSR run: the
/// planning step of the batch engine.
///
/// The plan is a pure function of the query list (not of any database):
/// it picks `k_max`, deduplicates the smaller `kᵢ` into the snapshot list,
/// and records which snapshot serves each query.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BatchPlan {
    k_max: usize,
    /// Distinct `kᵢ < k_max` needing a prefix snapshot, ascending.
    snapshot_ks: Vec<usize>,
    /// Per query: index into `snapshot_ks`, or `None` for queries served
    /// directly from the master (`kᵢ = k_max`) matrix.
    snapshot_of: Vec<Option<usize>>,
}

impl BatchPlan {
    /// Plan a query set.  Fails on an empty set or a query with `k = 0`.
    pub fn plan(queries: &[TopKQuery]) -> Result<Self> {
        if queries.is_empty() {
            return Err(DbError::invalid_parameter("a batch needs at least one registered query"));
        }
        for (i, q) in queries.iter().enumerate() {
            if q.k() == 0 {
                return Err(DbError::invalid_parameter(format!(
                    "registered query {i} has k = 0; k must be at least 1"
                )));
            }
        }
        // Emptiness already errored above, so the fold's 0 identity is
        // never the final answer; it just keeps this expression total.
        let k_max = queries.iter().map(|q| q.k()).fold(0, usize::max);
        let mut snapshot_ks: Vec<usize> =
            queries.iter().map(|q| q.k()).filter(|&k| k < k_max).collect();
        snapshot_ks.sort_unstable();
        snapshot_ks.dedup();
        let snapshot_of = queries
            .iter()
            .map(|q| {
                if q.k() == k_max {
                    None
                } else {
                    // pdb-analyze: allow(panic-path): snapshot_ks was built from these exact k values two lines up
                    Some(snapshot_ks.binary_search(&q.k()).expect("k was collected above"))
                }
            })
            .collect();
        Ok(Self { k_max, snapshot_ks, snapshot_of })
    }

    /// The `k` the one shared PSR run uses.
    pub fn k_max(&self) -> usize {
        self.k_max
    }

    /// Number of registered queries covered by the plan.
    pub fn num_queries(&self) -> usize {
        self.snapshot_of.len()
    }

    /// The distinct `kᵢ < k_max` that get a prefix snapshot (ascending).
    pub fn snapshot_ks(&self) -> &[usize] {
        &self.snapshot_ks
    }

    /// Per-tuple polynomial steps of one shared run (`k_max`) vs `Q`
    /// independent runs (`Σᵢ kᵢ`): the amortization factor the batch
    /// engine approaches, ignoring the (much cheaper) prefix-sum pass.
    pub fn amortization(&self, queries: &[TopKQuery]) -> f64 {
        let independent: usize = queries.iter().map(|q| q.k()).sum();
        independent as f64 / self.k_max as f64
    }
}

/// Zero-copy view of one registered query's rank probabilities inside the
/// shared master matrix.
///
/// Rank-h probabilities are read from the master's rows in place (columns
/// `1..=k` are exactly the smaller run's matrix — the prefix property);
/// only the per-tuple top-k vector is materialized, once per distinct `k`,
/// by the batch's single prefix-sum pass.  Implements [`RankAccess`], so
/// the query semantics and quality algorithms consume it exactly like an
/// owned matrix.
#[derive(Debug, Clone, Copy)]
pub struct QueryRanks<'m> {
    master: &'m RankProbabilities,
    k: usize,
    top_k: &'m [f64],
}

impl RankAccess for QueryRanks<'_> {
    fn k(&self) -> usize {
        self.k
    }

    fn num_tuples(&self) -> usize {
        self.master.num_tuples()
    }

    fn rank_prob(&self, pos: usize, h: usize) -> f64 {
        assert!(h >= 1 && h <= self.k, "rank h = {h} out of 1..={}", self.k);
        self.master.rank_prob(pos, h)
    }

    fn top_k_prob(&self, pos: usize) -> f64 {
        assert!(pos < self.num_tuples(), "position {pos} out of {}", self.num_tuples());
        self.top_k.get(pos).copied().unwrap_or(0.0)
    }

    fn top_k_probs(&self) -> &[f64] {
        self.top_k
    }
}

/// One PSR run at `k_max` serving a whole set of registered queries.
///
/// See the [module docs](self) for the amortization model.  The evaluation
/// owns (or borrows) the database;
/// [`apply_collapse_in_place`](BatchEvaluation::apply_collapse_in_place)
/// advances it across probe outcomes with a single delta pass shared by
/// every query.
#[derive(Debug, Clone)]
pub struct BatchEvaluation<'a> {
    db: Cow<'a, RankedDatabase>,
    queries: Vec<TopKQuery>,
    plan: BatchPlan,
    /// The shared matrix, computed at `plan.k_max()`.
    master: RankProbabilities,
    /// Per-snapshot top-k probability vectors, parallel to
    /// `plan.snapshot_ks()`; each is the prefix sum of the master's rows
    /// cut at that snapshot's `k`.
    snapshot_top_k: Vec<Vec<f64>>,
}

impl<'a> BatchEvaluation<'a> {
    /// Plan `queries` and run PSR once at `k_max`, borrowing the database.
    pub fn new(db: &'a RankedDatabase, queries: Vec<TopKQuery>) -> Result<Self> {
        Self::build(Cow::Borrowed(db), queries)
    }

    /// [`new`](Self::new) taking ownership of the database — the form
    /// long-lived serving sessions use, since the evaluation then borrows
    /// nothing.
    pub fn from_owned(
        db: RankedDatabase,
        queries: Vec<TopKQuery>,
    ) -> Result<BatchEvaluation<'static>> {
        BatchEvaluation::build(Cow::Owned(db), queries)
    }

    fn build(db: Cow<'a, RankedDatabase>, queries: Vec<TopKQuery>) -> Result<Self> {
        let plan = BatchPlan::plan(&queries)?;
        let master = rank_probabilities(&db, plan.k_max())?;
        let snapshot_top_k = snapshot_top_ks(&master, plan.snapshot_ks());
        Ok(Self { db, queries, plan, master, snapshot_top_k })
    }

    /// The database under evaluation.
    pub fn database(&self) -> &RankedDatabase {
        &self.db
    }

    /// The registered queries, in registration order.
    pub fn queries(&self) -> &[TopKQuery] {
        &self.queries
    }

    /// Number of registered queries.
    pub fn num_queries(&self) -> usize {
        self.queries.len()
    }

    /// The plan mapping queries onto the shared run.
    pub fn plan(&self) -> &BatchPlan {
        &self.plan
    }

    /// The `k` of the one shared PSR run.
    pub fn k_max(&self) -> usize {
        self.plan.k_max()
    }

    /// The shared `k_max` rank-probability matrix.
    pub fn master(&self) -> &RankProbabilities {
        &self.master
    }

    /// The zero-copy rank-probability view serving registered query `q` —
    /// the master matrix itself for `k_q = k_max`, the shared prefix
    /// snapshot otherwise.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a registered query index.
    pub fn ranks(&self, q: usize) -> QueryRanks<'_> {
        assert!(q < self.queries.len(), "query {q} of {}", self.queries.len());
        match self.plan.snapshot_of[q] {
            Some(s) => QueryRanks {
                master: &self.master,
                k: self.plan.snapshot_ks[s],
                top_k: &self.snapshot_top_k[s],
            },
            None => QueryRanks {
                master: &self.master,
                k: self.plan.k_max,
                top_k: self.master.top_k_probs(),
            },
        }
    }

    /// Answer registered query `q` from the shared matrix.
    ///
    /// # Panics
    ///
    /// Panics if `q` is not a registered query index (parameter errors,
    /// e.g. an invalid PT-k threshold, are returned as `Err`).
    pub fn answer(&self, q: usize) -> Result<QueryAnswer> {
        self.queries[q].evaluate_with(self.database(), &self.ranks(q))
    }

    /// Answer every registered query, in registration order.
    pub fn answers(&self) -> Result<Vec<QueryAnswer>> {
        (0..self.queries.len()).map(|q| self.answer(q)).collect()
    }

    /// Apply a single-x-tuple mutation (one observed probe outcome) to the
    /// database and to **every** registered query's rank probabilities.
    ///
    /// The delta engine patches the master matrix once — O(k_max) per
    /// affected row, exactly as for a single query — and the per-query
    /// snapshots are re-derived from the patched master by the one
    /// prefix-sum pass, so the whole batch is updated in one delta pass
    /// instead of one per query.  On `Err` nothing is modified.
    pub fn apply_collapse_in_place(
        &mut self,
        l: usize,
        mutation: &XTupleMutation,
    ) -> Result<DeltaStats> {
        self.apply_collapse_with_moves(l, mutation).map(|(stats, _)| stats)
    }

    /// [`apply_collapse_in_place`](Self::apply_collapse_in_place), also
    /// returning how the delta pass moved the master's live rows, so a
    /// caller that keeps one value per live row (the quality layer's
    /// tuple weights) moves its values with them instead of recomputing
    /// them all.
    pub fn apply_collapse_with_moves(
        &mut self,
        l: usize,
        mutation: &XTupleMutation,
    ) -> Result<(DeltaStats, RowMoves)> {
        // Rows ranked above the mutated x-tuple's first alternative are
        // untouched by the delta pass *and* keep their positions, so their
        // snapshot entries stay valid; only the suffix is recomputed.  An
        // insert targets the appended x-index, so its arrival's first
        // alternative is read once it is inserted.
        let before = (l < self.db.num_x_tuples()).then(|| self.db.x_tuple(l).members[0]);
        let patch = mutate_in_place(self.db.to_mut(), &mut self.master, l, mutation)?;
        let untouched = before.unwrap_or_else(|| self.db.x_tuple(l).members[0]);
        refresh_snapshot_top_ks(
            &self.master,
            self.plan.snapshot_ks(),
            untouched,
            &mut self.snapshot_top_k,
        );
        Ok((patch.stats, patch.moves))
    }
}

/// One pass over the master's live prefix emitting every snapshot's top-k
/// vector: the prefix sum of each row, cut at each distinct snapshot `k`.
/// Summing left to right reproduces the smaller run's own top-k sum bit
/// for bit (it adds the identical values in the identical order).  Every
/// snapshot covers the master's live prefix, which contains its own tail
/// cut; the entries in between are at most
/// [`TAIL_EPSILON`](crate::psr::TAIL_EPSILON).
fn snapshot_top_ks(master: &RankProbabilities, ks: &[usize]) -> Vec<Vec<f64>> {
    let mut out: Vec<Vec<f64>> = ks.iter().map(|_| Vec::new()).collect();
    refresh_snapshot_top_ks(master, ks, 0, &mut out);
    out
}

/// Recompute the snapshot vectors for positions `start..` only (rows above
/// `start` are known untouched — the delta engine's untouched-prefix
/// guarantee) and resize them to the master's current live prefix.
fn refresh_snapshot_top_ks(
    master: &RankProbabilities,
    ks: &[usize],
    start: usize,
    out: &mut [Vec<f64>],
) {
    let live = master.live_rows();
    let start = start.min(live);
    for v in out.iter_mut() {
        v.resize(live, 0.0);
    }
    let Some(&k_last) = ks.last() else {
        return;
    };
    // `pos` indexes into every snapshot's output vector at once, so a
    // plain indexed loop is clearer than zipping `ks.len()` iterators.
    #[allow(clippy::needless_range_loop)]
    for pos in start..live {
        let row = master.rank_probs(pos);
        let row = &row[..k_last];
        let mut sum = 0.0;
        let mut s = 0;
        for (h0, &v) in row.iter().enumerate() {
            sum += v;
            while s < ks.len() && ks[s] == h0 + 1 {
                out[s][pos] = sum;
                s += 1;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psr::rank_probabilities_exact;

    fn udb1() -> RankedDatabase {
        RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ])
        .unwrap()
    }

    fn mixed_queries() -> Vec<TopKQuery> {
        vec![
            TopKQuery::PTk { k: 2, threshold: 0.4 },
            TopKQuery::UKRanks { k: 1 },
            TopKQuery::GlobalTopk { k: 4 },
            TopKQuery::PTk { k: 4, threshold: 0.1 },
            TopKQuery::UKRanks { k: 3 },
        ]
    }

    fn assert_view_matches(view: &QueryRanks<'_>, rp: &RankProbabilities, tol: f64, what: &str) {
        assert_eq!(view.k(), rp.k(), "{what}");
        assert_eq!(view.num_tuples(), rp.num_tuples(), "{what}");
        for pos in 0..rp.num_tuples() {
            let got = view.top_k_prob(pos);
            let want = rp.top_k_prob(pos);
            assert!((got - want).abs() <= tol, "{what} pos {pos}: top-k {got} vs {want}");
            for h in 1..=rp.k() {
                let got = view.rank_prob(pos, h);
                let want = rp.rank_prob(pos, h);
                assert!((got - want).abs() <= tol, "{what} pos {pos} h {h}: {got} vs {want}");
            }
        }
    }

    #[test]
    fn plan_deduplicates_and_maps_queries() {
        let queries = mixed_queries();
        let plan = BatchPlan::plan(&queries).unwrap();
        assert_eq!(plan.k_max(), 4);
        assert_eq!(plan.num_queries(), 5);
        assert_eq!(plan.snapshot_ks(), &[1, 2, 3]);
        assert!((plan.amortization(&queries) - 14.0 / 4.0).abs() < 1e-12);
    }

    #[test]
    fn plan_round_trips_through_json() {
        let plan = BatchPlan::plan(&mixed_queries()).unwrap();
        let json = serde_json::to_string(&plan).unwrap();
        let back: BatchPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan, "via {json}");
    }

    #[test]
    fn plan_rejects_degenerate_inputs() {
        assert!(BatchPlan::plan(&[]).is_err());
        assert!(BatchPlan::plan(&[TopKQuery::UKRanks { k: 0 }]).is_err());
    }

    #[test]
    fn every_query_is_served_from_an_independent_runs_matrix() {
        let db = udb1();
        let queries = mixed_queries();
        let batch = BatchEvaluation::new(&db, queries.clone()).unwrap();
        assert_eq!(batch.num_queries(), 5);
        assert_eq!(batch.k_max(), 4);
        for (q, query) in queries.iter().enumerate() {
            let independent = rank_probabilities(&db, query.k()).unwrap();
            // Bit-for-bit: prefix columns and prefix sums reproduce the
            // independent run exactly.
            assert_view_matches(&batch.ranks(q), &independent, 0.0, &format!("query {q}"));
            let from_batch = batch.answer(q).unwrap();
            let from_scratch = query.evaluate(&db).unwrap();
            assert_eq!(from_batch, from_scratch, "query {q}");
        }
        let answers = batch.answers().unwrap();
        assert_eq!(answers.len(), 5);
        for (q, a) in answers.iter().enumerate() {
            assert_eq!(a, &batch.answer(q).unwrap());
        }
    }

    #[test]
    fn single_query_batch_degenerates_to_one_run() {
        let db = udb1();
        let batch =
            BatchEvaluation::new(&db, vec![TopKQuery::PTk { k: 2, threshold: 0.4 }]).unwrap();
        assert_eq!(batch.plan().snapshot_ks(), &[] as &[usize]);
        assert_eq!(batch.ranks(0).top_k_probs(), batch.master().top_k_probs());
        assert_eq!(batch.answer(0).unwrap().len(), 3); // {t1, t2, t5}
    }

    #[test]
    fn collapse_patches_every_registered_query() {
        let db = udb1();
        let queries = mixed_queries();
        let batch = BatchEvaluation::from_owned(db, queries.clone()).unwrap();
        // Collapse S3 to its 27° reading: the paper's udb1 → udb2 step.
        let mut next = batch.clone();
        let stats = next
            .apply_collapse_in_place(2, &XTupleMutation::CollapseToAlternative { keep_pos: 2 })
            .unwrap();
        assert_eq!(stats.rows_dropped, 1);
        assert_eq!(next.database().len(), 6);
        for (q, query) in queries.iter().enumerate() {
            let oracle = rank_probabilities_exact(next.database(), query.k()).unwrap();
            assert_view_matches(&next.ranks(q), &oracle, 1e-9, &format!("query {q}"));
        }
        // The clone the mutation was applied to is independent.
        assert_eq!(batch.database().len(), 7);
    }

    #[test]
    fn in_place_collapse_chains_across_mutations() {
        let db = udb1();
        let mut batch = BatchEvaluation::from_owned(db, mixed_queries()).unwrap();
        batch
            .apply_collapse_in_place(2, &XTupleMutation::CollapseToAlternative { keep_pos: 2 })
            .unwrap();
        batch
            .apply_collapse_in_place(1, &XTupleMutation::Reweight { probs: vec![0.9, 0.1] })
            .unwrap();
        let keep = batch.database().x_tuple(0).members[0];
        batch
            .apply_collapse_in_place(0, &XTupleMutation::CollapseToAlternative { keep_pos: keep })
            .unwrap();
        assert_eq!(batch.database().num_x_tuples(), 4);
        for q in 0..batch.num_queries() {
            let independent = rank_probabilities(batch.database(), batch.queries()[q].k()).unwrap();
            assert_view_matches(&batch.ranks(q), &independent, 1e-8, &format!("query {q}"));
        }
    }

    #[test]
    fn streaming_insert_and_remove_patch_every_registered_query() {
        let db = udb1();
        let mut batch = BatchEvaluation::from_owned(db, mixed_queries()).unwrap();
        // A new sensor arrives (append-only target index = current count),
        // then an old full-mass one departs.
        let arrival = XTupleMutation::Insert {
            key: "S5".into(),
            alternatives: vec![(28.0, 0.5), (23.0, 0.3)],
        };
        batch.apply_collapse_in_place(4, &arrival).unwrap();
        assert_eq!(batch.database().num_x_tuples(), 5);
        assert_eq!(batch.database().len(), 9);
        batch.apply_collapse_in_place(1, &XTupleMutation::Remove).unwrap();
        assert_eq!(batch.database().num_x_tuples(), 4);
        assert_eq!(batch.database().len(), 7);
        for q in 0..batch.num_queries() {
            let independent = rank_probabilities(batch.database(), batch.queries()[q].k()).unwrap();
            assert_view_matches(&batch.ranks(q), &independent, 1e-8, &format!("query {q}"));
        }
    }

    #[test]
    fn an_insert_refreshes_the_snapshots_from_its_arrival_down() {
        // Forty null-mass x-tuples ranked one after the other: at
        // k_max = 3 the tail cut falls inside the table.
        let x: Vec<Vec<(f64, f64)>> =
            (0..40).map(|i| vec![(100.0 - i as f64, 0.5), (99.5 - i as f64, 0.4)]).collect();
        let db = RankedDatabase::from_scored_x_tuples(&x).unwrap();
        let queries = vec![
            TopKQuery::UKRanks { k: 1 },
            TopKQuery::PTk { k: 2, threshold: 0.1 },
            TopKQuery::GlobalTopk { k: 3 },
        ];
        let mut batch = BatchEvaluation::from_owned(db, queries.clone()).unwrap();
        let live = batch.master().live_rows();
        assert!(live + 10 < batch.database().len(), "the cut lies inside the table: {live}");
        let cut_score = batch.database().tuple(live).score;
        // Above every tuple, inside the stored prefix, and below the cut.
        for (i, score) in [101.0, cut_score + 5.25, cut_score - 5.25].into_iter().enumerate() {
            let l = batch.database().num_x_tuples();
            let arrival =
                XTupleMutation::Insert { key: format!("a{i}"), alternatives: vec![(score, 0.6)] };
            batch.apply_collapse_in_place(l, &arrival).unwrap();
            // The partial refresh equals a full pass over the patched
            // master, bit for bit.
            let full = snapshot_top_ks(&batch.master, batch.plan.snapshot_ks());
            assert_eq!(batch.snapshot_top_k, full, "arrival {i} at score {score}");
            // And it serves every query as independent runs do.
            let fresh = rank_probabilities(batch.database(), batch.k_max()).unwrap();
            assert_eq!(batch.master().live_rows(), fresh.live_rows(), "arrival {i}");
            for (q, query) in queries.iter().enumerate() {
                let independent = rank_probabilities(batch.database(), query.k()).unwrap();
                let what = format!("arrival {i}, query {q}");
                assert_view_matches(&batch.ranks(q), &independent, 1e-12, &what);
            }
        }
    }

    #[test]
    fn failed_collapse_leaves_the_batch_unchanged() {
        let db = udb1();
        let mut batch = BatchEvaluation::new(&db, mixed_queries()).unwrap();
        let before = batch.master().clone();
        // keep_pos 1 is not an alternative of x-tuple 0.
        assert!(batch
            .apply_collapse_in_place(0, &XTupleMutation::CollapseToAlternative { keep_pos: 1 })
            .is_err());
        assert_eq!(batch.master(), &before);
        assert_eq!(batch.database().len(), 7);
    }
}
