//! Probabilistic top-k query semantics.
//!
//! The paper (Section III-B) studies the three query semantics that (a)
//! conceptually evaluate a deterministic top-k query in every possible
//! world and (b) can answer from rank-probability information alone:
//!
//! * **U-kRanks** — for every rank h ∈ 1..k, return the tuple most likely to
//!   occupy exactly rank h.
//! * **PT-k** — return every tuple whose top-k probability is at least a
//!   user threshold `T`.
//! * **Global-topk** — return the `k` tuples with the highest top-k
//!   probabilities (ties broken by rank).
//!
//! All three are answered here from rank-probability information (any
//! [`RankAccess`] implementor — an owned
//! [`RankProbabilities`](crate::psr::RankProbabilities) matrix or a
//! zero-copy batch view), which is what allows the query evaluation to
//! share its PSR run with quality computation (Section IV-C) and with
//! other registered queries ([`crate::batch`]).  Each one scans only the
//! live prefix ([`RankAccess::live_rows`]): a tuple past the tail cut
//! reads as probability zero (its true top-k probability is at most
//! [`TAIL_EPSILON`](crate::psr::TAIL_EPSILON)) and qualifies under none
//! of the semantics.

use crate::psr::{rank_probabilities, RankAccess};
use pdb_core::{DbError, RankedDatabase, Result, TupleId};
use serde::{Deserialize, Serialize};

/// One tuple of a query answer, identified by its rank position in the
/// sorted database, together with the probability that earned it the spot.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AnswerTuple {
    /// Rank position in the [`RankedDatabase`] (0 = highest-ranked tuple).
    pub position: usize,
    /// Original tuple identifier.
    pub id: TupleId,
    /// The probability that qualified the tuple: a rank-h probability for
    /// U-kRanks, the top-k probability for PT-k and Global-topk.
    pub prob: f64,
}

/// Answer of a U-kRanks query: one winner per rank.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct UKRanksAnswer {
    /// `winners[h-1]` is the tuple whose probability of occupying rank `h`
    /// is highest, or `None` if no tuple can occupy rank `h` in any world
    /// (possible when the database has fewer than `h` tuples with non-null
    /// mass).
    pub winners: Vec<Option<AnswerTuple>>,
}

impl UKRanksAnswer {
    /// The `k` the query was asked with.
    pub fn k(&self) -> usize {
        self.winners.len()
    }

    /// Distinct tuples appearing as winners (a tuple may win several ranks).
    pub fn distinct_winners(&self) -> Vec<AnswerTuple> {
        let mut seen = std::collections::BTreeSet::new();
        let mut out = Vec::new();
        for w in self.winners.iter().flatten() {
            if seen.insert(w.position) {
                out.push(*w);
            }
        }
        out
    }
}

/// Answer of a PT-k or Global-topk query: a set of tuples listed in
/// descending rank order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TupleSetAnswer {
    /// Qualifying tuples in descending rank order.
    pub tuples: Vec<AnswerTuple>,
}

impl TupleSetAnswer {
    /// Number of tuples in the answer.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the answer is empty.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Whether a rank position is part of the answer.
    pub fn contains_position(&self, pos: usize) -> bool {
        self.tuples.iter().any(|t| t.position == pos)
    }

    /// Positions of the answer tuples.
    pub fn positions(&self) -> Vec<usize> {
        self.tuples.iter().map(|t| t.position).collect()
    }
}

/// Evaluate a **U-kRanks** query from precomputed rank probabilities.
///
/// Ties (two tuples equally likely to occupy rank h) are broken in favour of
/// the higher-ranked tuple, keeping the answer deterministic.  One pass
/// down the live rows fills every rank at once: each rank keeps the first
/// position holding its strict maximum, which is what a scan of that
/// rank's column alone would keep.
pub fn u_k_ranks<R: RankAccess + ?Sized>(db: &RankedDatabase, rp: &R) -> UKRanksAnswer {
    let mut winners: Vec<Option<AnswerTuple>> = vec![None; rp.k()];
    for pos in 0..rp.live_rows() {
        for (h0, best) in winners.iter_mut().enumerate() {
            let p = rp.rank_prob(pos, h0 + 1);
            if p <= 0.0 {
                continue;
            }
            if best.is_none_or(|b| p > b.prob) {
                *best = Some(AnswerTuple { position: pos, id: db.tuple(pos).id, prob: p });
            }
        }
    }
    UKRanksAnswer { winners }
}

/// Evaluate a **PT-k** query: tuples whose top-k probability is at least
/// `threshold`.
///
/// Returns an error if the threshold lies outside `(0, 1]`.
pub fn pt_k<R: RankAccess + ?Sized>(
    db: &RankedDatabase,
    rp: &R,
    threshold: f64,
) -> Result<TupleSetAnswer> {
    if !(threshold > 0.0 && threshold <= 1.0) {
        return Err(DbError::invalid_parameter(format!(
            "PT-k threshold must lie in (0, 1], got {threshold}"
        )));
    }
    let tuples = rp
        .top_k_probs()
        .iter()
        .enumerate()
        .filter(|&(_, &p)| p >= threshold)
        .map(|(pos, &prob)| AnswerTuple { position: pos, id: db.tuple(pos).id, prob })
        .collect();
    Ok(TupleSetAnswer { tuples })
}

/// Evaluate a **Global-topk** query: the `k` tuples with the highest top-k
/// probabilities, ties broken in favour of the higher-ranked tuple.
pub fn global_topk<R: RankAccess + ?Sized>(db: &RankedDatabase, rp: &R) -> TupleSetAnswer {
    let k = rp.k();
    let probs = rp.top_k_probs();
    let mut order: Vec<usize> = (0..probs.len()).filter(|&p| probs[p] > 0.0).collect();
    if order.len() > k {
        // Descending top-k probability, ties by ascending position (higher
        // rank first).  total_cmp rather than partial_cmp: probabilities
        // are finite and non-negative here, so the orders agree, but
        // total_cmp cannot panic if a NaN ever slips through.  The order
        // is total, so the k it selects are exactly the first k of a full
        // sort, and only those k are then sorted.
        if k > 0 {
            order.select_nth_unstable_by(k - 1, |&a, &b| {
                probs[b].total_cmp(&probs[a]).then(a.cmp(&b))
            });
        }
        order.truncate(k);
    }
    order.sort_unstable();
    let tuples = order
        .into_iter()
        .map(|pos| AnswerTuple { position: pos, id: db.tuple(pos).id, prob: probs[pos] })
        .collect();
    TupleSetAnswer { tuples }
}

/// A probabilistic top-k query under one of the paper's three semantics.
///
/// This enum is the convenience entry point used by the experiment harness:
/// it bundles the semantics with their parameters and evaluates through a
/// single PSR run.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub enum TopKQuery {
    /// U-kRanks with the given `k`.
    UKRanks {
        /// Number of ranks to report.
        k: usize,
    },
    /// PT-k with the given `k` and probability threshold.
    PTk {
        /// Number of top ranks considered.
        k: usize,
        /// Minimum top-k probability for a tuple to qualify.
        threshold: f64,
    },
    /// Global-topk with the given `k`.
    GlobalTopk {
        /// Number of tuples to return.
        k: usize,
    },
}

impl TopKQuery {
    /// The `k` parameter of the query.
    pub fn k(&self) -> usize {
        match *self {
            TopKQuery::UKRanks { k } | TopKQuery::PTk { k, .. } | TopKQuery::GlobalTopk { k } => k,
        }
    }

    /// Evaluate the query on a database, running PSR internally.
    pub fn evaluate(&self, db: &RankedDatabase) -> Result<QueryAnswer> {
        let rp = rank_probabilities(db, self.k())?;
        self.evaluate_with(db, &rp)
    }

    /// Evaluate the query from precomputed rank probabilities (computation
    /// sharing with quality evaluation, Section IV-C of the paper).
    pub fn evaluate_with<R: RankAccess + ?Sized>(
        &self,
        db: &RankedDatabase,
        rp: &R,
    ) -> Result<QueryAnswer> {
        if rp.k() != self.k() {
            return Err(DbError::invalid_parameter(format!(
                "rank probabilities were computed for k = {} but the query has k = {}",
                rp.k(),
                self.k()
            )));
        }
        Ok(match *self {
            TopKQuery::UKRanks { .. } => QueryAnswer::UKRanks(u_k_ranks(db, rp)),
            TopKQuery::PTk { threshold, .. } => QueryAnswer::TupleSet(pt_k(db, rp, threshold)?),
            TopKQuery::GlobalTopk { .. } => QueryAnswer::TupleSet(global_topk(db, rp)),
        })
    }
}

/// Result of evaluating a [`TopKQuery`].
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum QueryAnswer {
    /// Per-rank winners (U-kRanks).
    UKRanks(UKRanksAnswer),
    /// A set of qualifying tuples (PT-k, Global-topk).
    TupleSet(TupleSetAnswer),
}

impl QueryAnswer {
    /// Number of distinct tuples in the answer.
    pub fn len(&self) -> usize {
        match self {
            QueryAnswer::UKRanks(a) => a.distinct_winners().len(),
            QueryAnswer::TupleSet(a) => a.len(),
        }
    }

    /// Whether the answer contains no tuples.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::BatchEvaluation;
    use crate::psr::rank_probabilities;
    use proptest::prelude::*;

    /// U-kRanks as one scan down the live rows per rank: the oracle for
    /// the single row-major pass.
    fn u_k_ranks_by_column<R: RankAccess + ?Sized>(db: &RankedDatabase, rp: &R) -> UKRanksAnswer {
        let k = rp.k();
        let mut winners = Vec::with_capacity(k);
        for h in 1..=k {
            let mut best: Option<AnswerTuple> = None;
            for pos in 0..rp.live_rows() {
                let p = rp.rank_prob(pos, h);
                if p <= 0.0 {
                    continue;
                }
                let better = match &best {
                    None => true,
                    Some(b) => p > b.prob,
                };
                if better {
                    best = Some(AnswerTuple { position: pos, id: db.tuple(pos).id, prob: p });
                }
            }
            winners.push(best);
        }
        UKRanksAnswer { winners }
    }

    /// Global-topk by sorting every live row: the oracle for selection.
    fn global_topk_by_full_sort<R: RankAccess + ?Sized>(
        db: &RankedDatabase,
        rp: &R,
    ) -> TupleSetAnswer {
        let k = rp.k();
        let mut order: Vec<usize> =
            (0..rp.live_rows()).filter(|&p| rp.top_k_prob(p) > 0.0).collect();
        order.sort_by(|&a, &b| rp.top_k_prob(b).total_cmp(&rp.top_k_prob(a)).then(a.cmp(&b)));
        order.truncate(k);
        order.sort_unstable();
        let tuples = order
            .into_iter()
            .map(|pos| AnswerTuple {
                position: pos,
                id: db.tuple(pos).id,
                prob: rp.top_k_prob(pos),
            })
            .collect();
        TupleSetAnswer { tuples }
    }

    /// Alternative lists that x-tuples copy whole, so that many tuples tie
    /// exactly in score and in every probability PSR derives for them.
    /// Two lists leave null mass.
    const TIED_ALTERNATIVES: [&[(f64, f64)]; 4] =
        [&[(5.0, 0.5), (3.0, 0.5)], &[(4.0, 1.0)], &[(4.0, 0.25), (2.0, 0.25)], &[(3.0, 0.75)]];

    fn tied_database(picks: &[usize]) -> RankedDatabase {
        let x_tuples: Vec<Vec<(f64, f64)>> =
            picks.iter().map(|&i| TIED_ALTERNATIVES[i].to_vec()).collect();
        RankedDatabase::from_scored_x_tuples(&x_tuples).unwrap()
    }

    /// Both kernels agree with their oracles on `rp`; returns the number
    /// of positive top-k probabilities and whether one tie straddles the
    /// Global-topk cut.
    fn check_kernels<R: RankAccess + ?Sized>(
        db: &RankedDatabase,
        rp: &R,
    ) -> Result<(usize, bool), TestCaseError> {
        prop_assert_eq!(u_k_ranks(db, rp), u_k_ranks_by_column(db, rp));
        let answer = global_topk(db, rp);
        prop_assert_eq!(&answer, &global_topk_by_full_sort(db, rp));
        let probs = rp.top_k_probs();
        let positive = probs.iter().filter(|&&p| p > 0.0).count();
        let cut_tie = answer.tuples.iter().any(|t| {
            probs.iter().enumerate().any(|(pos, &p)| p == t.prob && !answer.contains_position(pos))
        });
        Ok((positive, cut_tie))
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// Selection and the one-pass U-kRanks give the full scans'
        /// answers, through an owned matrix and through batch views, for
        /// k on both sides of the number of positive top-k probabilities.
        #[test]
        fn selecting_kernels_answer_exactly_as_the_full_scans(
            picks in proptest::collection::vec(0..TIED_ALTERNATIVES.len(), 1..16),
            ks in proptest::collection::vec(1usize..24, 1..4),
        ) {
            let db = tied_database(&picks);
            for &k in &ks {
                check_kernels(&db, &rank_probabilities(&db, k).unwrap())?;
            }
            let queries: Vec<TopKQuery> = ks
                .iter()
                .flat_map(|&k| [TopKQuery::UKRanks { k }, TopKQuery::GlobalTopk { k }])
                .collect();
            let batch = BatchEvaluation::new(&db, queries).unwrap();
            for q in 0..batch.num_queries() {
                check_kernels(&db, &batch.ranks(q))?;
            }
        }
    }

    /// The proptest's inputs reach both sides of the positive count and
    /// ties at the Global-topk cut.
    #[test]
    fn tied_databases_reach_cut_ties_and_both_sides_of_the_positive_count() {
        let db = tied_database(&[0, 1, 0, 2, 3, 1, 0, 2, 3, 3, 1]);
        let (mut below, mut above, mut ties) = (false, false, 0);
        for k in 1..=db.len() + 2 {
            let rp = rank_probabilities(&db, k).unwrap();
            let (positive, cut_tie) = check_kernels(&db, &rp).unwrap();
            below |= k < positive;
            above |= k > positive;
            ties += usize::from(cut_tie);
        }
        assert!(below && above && ties > 0, "below {below}, above {above}, cut ties {ties}");
    }

    fn udb1() -> RankedDatabase {
        RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ])
        .unwrap()
    }

    fn pos_of(db: &RankedDatabase, score: f64) -> usize {
        db.tuples().position(|t| t.score == score).unwrap()
    }

    #[test]
    fn pt2_matches_the_paper() {
        // "If k = 2 and T = 0.4, then the answer of the PT-k query is
        // {t1, t2, t5}".
        let db = udb1();
        let rp = rank_probabilities(&db, 2).unwrap();
        let ans = pt_k(&db, &rp, 0.4).unwrap();
        let expected: Vec<usize> = vec![pos_of(&db, 32.0), pos_of(&db, 30.0), pos_of(&db, 27.0)];
        assert_eq!(ans.positions(), expected);
        assert!(ans.contains_position(pos_of(&db, 30.0)));
        assert!(!ans.contains_position(pos_of(&db, 26.0)));
        assert!(!ans.is_empty());
    }

    #[test]
    fn pt_k_threshold_is_validated() {
        let db = udb1();
        let rp = rank_probabilities(&db, 2).unwrap();
        assert!(pt_k(&db, &rp, 0.0).is_err());
        assert!(pt_k(&db, &rp, 1.5).is_err());
        assert!(pt_k(&db, &rp, -0.1).is_err());
        assert!(pt_k(&db, &rp, 1.0).is_ok());
    }

    #[test]
    fn pt_k_with_tiny_threshold_returns_all_nonzero_tuples() {
        let db = udb1();
        let rp = rank_probabilities(&db, 2).unwrap();
        let ans = pt_k(&db, &rp, 1e-12).unwrap();
        assert_eq!(ans.len(), rp.nonzero_positions().len());
    }

    #[test]
    fn u_k_ranks_picks_the_most_likely_tuple_per_rank() {
        let db = udb1();
        let rp = rank_probabilities(&db, 2).unwrap();
        let ans = u_k_ranks(&db, &rp);
        assert_eq!(ans.k(), 2);
        // Rank 1: t2 (30°C) has probability 0.7 * 0.6 = 0.42 of being the
        // top tuple, higher than t1's 0.4.
        let rank1 = ans.winners[0].unwrap();
        assert_eq!(rank1.position, pos_of(&db, 30.0));
        assert!((rank1.prob - 0.42).abs() < 1e-9);
        // Every winner's probability is the maximum over tuples for that rank.
        for (h0, w) in ans.winners.iter().enumerate() {
            let max =
                (0..db.len()).map(|p| rp.rank_prob(p, h0 + 1)).fold(f64::NEG_INFINITY, f64::max);
            assert!((w.unwrap().prob - max).abs() < 1e-12);
        }
    }

    #[test]
    fn u_k_ranks_reports_unreachable_ranks_as_none() {
        // A single uncertain tuple: rank 2 can never be occupied.
        let db = RankedDatabase::from_scored_x_tuples(&[vec![(1.0, 0.5)]]).unwrap();
        let rp = rank_probabilities(&db, 2).unwrap();
        let ans = u_k_ranks(&db, &rp);
        assert!(ans.winners[0].is_some());
        assert!(ans.winners[1].is_none());
        assert_eq!(ans.distinct_winners().len(), 1);
    }

    #[test]
    fn distinct_winners_deduplicates() {
        // One near-certain high tuple can win several ranks... construct a
        // case where the same tuple wins rank 1 and rank 2 is unreachable.
        let db = RankedDatabase::from_scored_x_tuples(&[vec![(5.0, 0.9)]]).unwrap();
        let rp = rank_probabilities(&db, 2).unwrap();
        let ans = u_k_ranks(&db, &rp);
        assert_eq!(ans.distinct_winners().len(), 1);
    }

    #[test]
    fn global_topk_returns_k_highest_probabilities() {
        let db = udb1();
        let rp = rank_probabilities(&db, 2).unwrap();
        let ans = global_topk(&db, &rp);
        assert_eq!(ans.len(), 2);
        // t2 (0.7) and t5 (0.432) have the two highest top-2 probabilities.
        assert_eq!(ans.positions(), vec![pos_of(&db, 30.0), pos_of(&db, 27.0)]);
    }

    #[test]
    fn global_topk_is_limited_by_available_tuples() {
        let db = RankedDatabase::from_scored_x_tuples(&[vec![(1.0, 0.5)]]).unwrap();
        let rp = rank_probabilities(&db, 3).unwrap();
        let ans = global_topk(&db, &rp);
        assert_eq!(ans.len(), 1);
    }

    #[test]
    fn query_answers_round_trip_through_json() {
        let db = udb1();
        for query in [
            TopKQuery::PTk { k: 2, threshold: 0.4 },
            TopKQuery::UKRanks { k: 2 },
            TopKQuery::GlobalTopk { k: 2 },
        ] {
            let query_json = serde_json::to_string(&query).unwrap();
            let query_back: TopKQuery = serde_json::from_str(&query_json).unwrap();
            assert_eq!(query_back, query, "via {query_json}");

            let answer = query.evaluate(&db).unwrap();
            let json = serde_json::to_string(&answer).unwrap();
            let back: QueryAnswer = serde_json::from_str(&json).unwrap();
            // Float fields survive bit-for-bit (shortest-round-trip
            // printing), so full equality holds.
            assert_eq!(back, answer, "via {json}");
        }
    }

    #[test]
    fn query_enum_dispatches_and_validates() {
        let db = udb1();
        let q = TopKQuery::PTk { k: 2, threshold: 0.4 };
        assert_eq!(q.k(), 2);
        let ans = q.evaluate(&db).unwrap();
        assert_eq!(ans.len(), 3);
        assert!(!ans.is_empty());

        let q = TopKQuery::UKRanks { k: 2 };
        assert!(matches!(q.evaluate(&db).unwrap(), QueryAnswer::UKRanks(_)));

        let q = TopKQuery::GlobalTopk { k: 2 };
        assert_eq!(q.evaluate(&db).unwrap().len(), 2);

        // Mismatched k between precomputed probabilities and query.
        let rp = rank_probabilities(&db, 3).unwrap();
        assert!(TopKQuery::GlobalTopk { k: 2 }.evaluate_with(&db, &rp).is_err());
    }
}
