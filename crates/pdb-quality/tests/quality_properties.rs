//! Property-based tests of the PWS-quality algorithms.

use pdb_core::RankedDatabase;
use pdb_engine::psr::rank_probabilities;
use pdb_quality::prelude::*;
use proptest::collection::vec;
use proptest::prelude::*;

fn x_tuple() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (vec((0.0f64..50.0, 0.05f64..1.0), 1..4), 0.2f64..1.0).prop_map(|(alts, mass)| {
        let total: f64 = alts.iter().map(|(_, w)| w).sum();
        alts.into_iter().map(|(s, w)| (s, w / total * mass)).collect()
    })
}

fn db() -> impl Strategy<Value = RankedDatabase> {
    vec(x_tuple(), 1..7).prop_map(|x| RankedDatabase::from_scored_x_tuples(&x).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// PW, PWR and TP agree; the pw-result distribution is a distribution;
    /// the quality lies in [-log2(#results), 0].
    #[test]
    fn algorithms_agree_and_bounds_hold(db in db(), k in 1usize..5) {
        let dist = pwr_result_distribution(&db, k).unwrap();
        let pw = quality_pw(&db, k).unwrap();
        let pwr = quality_pwr(&db, k).unwrap();
        let tp = quality_tp(&db, k).unwrap();
        prop_assert!((pw - pwr).abs() < 1e-8);
        prop_assert!((pw - tp).abs() < 1e-8);
        prop_assert!((dist.total_prob() - 1.0).abs() < 1e-8);
        prop_assert!(pw <= 1e-9);
        prop_assert!(pw >= -(dist.len() as f64).log2() - 1e-9);
        // The bounded PWR either completes with the same value or gives up.
        match quality_pwr_bounded(&db, k, dist.len() as u64).unwrap() {
            Some(q) => prop_assert!((q - pwr).abs() < 1e-9),
            None => prop_assert!(false, "budget equal to the result count must suffice"),
        }
        prop_assert!(quality_pwr_bounded(&db, k, 0).unwrap().is_none() || dist.is_empty());
    }

    /// Collapsing an uncertain x-tuple to one of its alternatives never
    /// creates new pw-results: the cleaned database's quality is bounded
    /// below by... in general cleaning a *specific* outcome may not improve
    /// the score, but the expectation over outcomes does (Theorem 2).  Here
    /// we check the expectation directly against the mixture of collapsed
    /// databases.
    #[test]
    fn expected_quality_over_collapse_outcomes_never_decreases(db in db(), k in 1usize..4) {
        let before = quality_tp(&db, k).unwrap();
        for l in 0..db.num_x_tuples() {
            let info = db.x_tuple(l);
            let mut expectation = 0.0;
            let mut mass = 0.0;
            for &pos in &info.members.clone() {
                let p = db.tuple(pos).prob;
                if p <= 0.0 {
                    continue;
                }
                let mut cleaned = db.clone();
                cleaned.collapse_x_tuple_in_place(l, pos).unwrap();
                expectation += p * quality_tp(&cleaned, k).unwrap();
                mass += p;
            }
            let null = info.null_prob();
            if null > 1e-9 {
                let mut cleaned = db.clone();
                if cleaned.collapse_x_tuple_to_null_in_place(l).is_ok() {
                    expectation += null * quality_tp(&cleaned, k).unwrap();
                    mass += null;
                } else {
                    // Collapsing the only x-tuple to null empties the
                    // database: a certain (empty) answer with quality 0.
                    expectation += null * 0.0;
                    mass += null;
                }
            }
            prop_assume!(mass > 0.9);
            prop_assert!(
                expectation + 1e-9 >= before,
                "x-tuple {}: expected quality {} after cleaning vs {} before",
                l,
                expectation,
                before
            );
        }
    }

    /// The quality breakdown sums to the score and every x-tuple
    /// contribution is non-positive.
    #[test]
    fn breakdown_is_a_non_positive_decomposition(db in db(), k in 1usize..5) {
        let rp = rank_probabilities(&db, k).unwrap();
        let b = quality_breakdown(&db, &rp);
        let sum: f64 = b.x_tuple_contribution.iter().sum();
        prop_assert!((sum - quality_tp_with(&db, &rp)).abs() < 1e-9);
        for &g in &b.x_tuple_contribution {
            prop_assert!(g <= 1e-9);
        }
    }
}
