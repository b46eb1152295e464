//! Property-based tests of PSR and the query semantics.

use pdb_core::RankedDatabase;
use pdb_engine::oracle::rank_probabilities_by_enumeration;
use pdb_engine::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

mod common;

fn x_tuple() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (vec((0.0f64..100.0, 0.05f64..1.0), 1..5), 0.1f64..1.0).prop_map(|(alts, mass)| {
        let total: f64 = alts.iter().map(|(_, w)| w).sum();
        alts.into_iter().map(|(s, w)| (s, w / total * mass)).collect()
    })
}

fn db() -> impl Strategy<Value = RankedDatabase> {
    vec(x_tuple(), 1..7).prop_map(|x| RankedDatabase::from_scored_x_tuples(&x).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// The incremental PSR agrees with the exact reference and with the
    /// possible-world oracle.
    #[test]
    fn psr_agrees_with_reference_and_oracle(db in db(), k in 1usize..6) {
        let fast = rank_probabilities(&db, k).unwrap();
        let exact = rank_probabilities_exact(&db, k).unwrap();
        let oracle = rank_probabilities_by_enumeration(&db, k).unwrap();
        for pos in 0..db.len() {
            for h in 1..=k {
                prop_assert!((fast.rank_prob(pos, h) - exact.rank_prob(pos, h)).abs() < 1e-9);
                prop_assert!((fast.rank_prob(pos, h) - oracle.rank_prob(pos, h)).abs() < 1e-9);
            }
        }
    }

    /// On clustered null-mass data, where the scan re-forms its running
    /// product from frozen and in-flight factors, PSR still agrees with
    /// the exact reference.
    #[test]
    fn psr_agrees_with_reference_on_clustered_null_mass(
        db in common::clustered_null_mass_db(),
        k in 1usize..13,
    ) {
        let fast = rank_probabilities(&db, k).unwrap();
        let exact = rank_probabilities_exact(&db, k).unwrap();
        for pos in 0..db.len() {
            for h in 1..=k {
                prop_assert!((fast.rank_prob(pos, h) - exact.rank_prob(pos, h)).abs() < 1e-9);
            }
        }
    }

    /// On null-mass data, clustered or spread, no x-tuple saturates and
    /// PSR stores exactly the prefix above the tail cut: the first
    /// position where T(i) = Pr[fewer than k existing tuples rank above
    /// i], computed independently per position, is at most ε.  The stored
    /// entries match the exact reference, and every entry the cut drops
    /// is at most 1e-15 there.
    #[test]
    fn psr_stores_exactly_the_tail_cut_prefix_on_null_mass(
        db in common::null_mass_db(),
        k in 1usize..9,
    ) {
        let rp = rank_probabilities(&db, k).unwrap();
        prop_assert_eq!(rp.live_rows(), common::expected_tail_cut(&db, k));
        let exact = rank_probabilities_exact(&db, k).unwrap();
        for pos in 0..rp.live_rows() {
            for h in 1..=k {
                prop_assert!((rp.rank_prob(pos, h) - exact.rank_prob(pos, h)).abs() < 1e-9);
            }
        }
        common::assert_oracle_tail_vanishes(&db, &rp, "fresh run");
    }

    /// On complete x-tuples PSR stores exactly the tail cut's prefix,
    /// which Lemma 2's cut bounds: the rows up to and including the
    /// position where the `k`-th x-tuple completes (each saturates at its
    /// last alternative here), where T drops to 0, or fewer when T first
    /// drops to ε above it.  The stored rows match the exact reference,
    /// and the reference's rows past the prefix are zero up to the mass
    /// saturated x-tuples may miss.
    #[test]
    fn psr_stores_exactly_the_tail_cut_prefix_on_complete_data(
        (db, k) in common::complete_db_with_inner_cut(),
    ) {
        let rp = rank_probabilities(&db, k).unwrap();
        let mut completions: Vec<usize> =
            db.x_tuples().map(|info| *info.members.last().unwrap()).collect();
        completions.sort_unstable();
        let lemma2 = completions.get(k - 1).map_or(db.len(), |&last| (last + 1).min(db.len()));
        let cut = common::expected_tail_cut(&db, k);
        prop_assert!(cut <= lemma2, "tail cut {} below Lemma 2's {}", cut, lemma2);
        prop_assert_eq!(rp.live_rows(), cut);
        prop_assert_eq!(rp.num_tuples(), db.len());
        let exact = rank_probabilities_exact(&db, k).unwrap();
        for pos in 0..db.len() {
            for h in 1..=k {
                prop_assert!((rp.rank_prob(pos, h) - exact.rank_prob(pos, h)).abs() < 1e-9);
                if pos >= cut {
                    prop_assert!(exact.rank_prob(pos, h).abs() < 1e-10);
                }
            }
        }
    }

    /// A tuple's top-k probability never exceeds its existential
    /// probability, and a certain tuple ranked first is always in the
    /// answer.
    #[test]
    fn top_k_probability_is_dominated_by_existence(db in db(), k in 1usize..6) {
        let rp = rank_probabilities(&db, k).unwrap();
        for pos in 0..db.len() {
            prop_assert!(rp.top_k_prob(pos) <= db.tuple(pos).prob + 1e-9);
        }
        // The highest-ranked tuple is in the top-k whenever it exists.
        prop_assert!((rp.top_k_prob(0) - db.tuple(0).prob).abs() < 1e-9);
    }

    /// The expected answer size equals the expected number of existing
    /// tuples truncated at k (computed from the world oracle), and the
    /// nonzero-probability positions form a prefix-closed set under rank
    /// domination within each x-tuple... at minimum they are consistent
    /// with the reported probabilities.
    #[test]
    fn expected_answer_size_is_consistent(db in db(), k in 1usize..5) {
        let rp = rank_probabilities(&db, k).unwrap();
        let by_enum = rank_probabilities_by_enumeration(&db, k).unwrap();
        prop_assert!((rp.expected_answer_size() - by_enum.expected_answer_size()).abs() < 1e-9);
        for pos in rp.nonzero_positions() {
            prop_assert!(rp.top_k_prob(pos) > 0.0);
        }
    }

    /// PT-k answers grow as the threshold shrinks and are consistent with
    /// Global-topk: the Global-topk answer contains the k highest top-k
    /// probabilities, so any PT-k answer with a threshold above the k-th
    /// highest probability is a subset of it.
    #[test]
    fn pt_k_and_global_topk_are_consistent(db in db(), k in 1usize..5) {
        let rp = rank_probabilities(&db, k).unwrap();
        let loose = pt_k(&db, &rp, 0.05).unwrap();
        let tight = pt_k(&db, &rp, 0.5).unwrap();
        prop_assert!(tight.len() <= loose.len());
        for t in &tight.tuples {
            prop_assert!(loose.contains_position(t.position));
        }

        let global = global_topk(&db, &rp);
        prop_assert!(global.len() <= k);
        if let Some(kth) = global.tuples.iter().map(|t| t.prob).fold(None, |acc: Option<f64>, p| {
            Some(acc.map_or(p, |a| a.min(p)))
        }) {
            let above_kth = pt_k(&db, &rp, (kth + 1e-9).min(1.0)).unwrap();
            for t in &above_kth.tuples {
                prop_assert!(
                    global.contains_position(t.position),
                    "tuples strictly above the k-th probability must be in Global-topk"
                );
            }
        }
    }

    /// U-kRanks winners are achievable: their probability is positive and
    /// they exist in the database.
    #[test]
    fn u_k_ranks_winners_are_achievable(db in db(), k in 1usize..5) {
        let rp = rank_probabilities(&db, k).unwrap();
        let answer = u_k_ranks(&db, &rp);
        prop_assert_eq!(answer.k(), k);
        for (h0, winner) in answer.winners.iter().enumerate() {
            if let Some(w) = winner {
                prop_assert!(w.prob > 0.0);
                prop_assert!(w.position < db.len());
                prop_assert!((rp.rank_prob(w.position, h0 + 1) - w.prob).abs() < 1e-12);
            }
        }
    }
}
