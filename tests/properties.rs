//! Property-based tests (proptest) of the core invariants.
//!
//! Rather than fixing specific databases, these tests let proptest generate
//! arbitrary x-tuple databases (including degenerate shapes: certain
//! tuples, zero-probability tuples, tied scores, sub-full mass) and check
//! the paper's structural invariants on every one of them.

use proptest::collection::vec;
use proptest::prelude::*;
use uncertain_topk::prelude::*;

/// Strategy: one x-tuple as a list of (score, weight) pairs; weights are
/// normalised so the total mass is `mass ≤ 1`.
fn x_tuple_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (vec((0.0f64..100.0, 0.01f64..1.0), 1..5), 0.05f64..1.0).prop_map(|(alts, mass)| {
        let total: f64 = alts.iter().map(|(_, w)| w).sum();
        alts.into_iter().map(|(score, w)| (score, w / total * mass)).collect()
    })
}

/// Strategy: a whole database of 1..8 x-tuples.
fn db_strategy() -> impl Strategy<Value = RankedDatabase> {
    vec(x_tuple_strategy(), 1..8)
        .prop_map(|x| RankedDatabase::from_scored_x_tuples(&x).expect("generated mass is valid"))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Rank probabilities are probabilities, rows sum to the top-k
    /// probability, and the total expected answer size never exceeds k.
    #[test]
    fn psr_output_is_a_probability_assignment(db in db_strategy(), k in 1usize..6) {
        let rp = rank_probabilities(&db, k).unwrap();
        let mut total = 0.0;
        for pos in 0..db.len() {
            let mut row_sum = 0.0;
            for h in 1..=k {
                let p = rp.rank_prob(pos, h);
                prop_assert!((-1e-12..=1.0 + 1e-9).contains(&p));
                row_sum += p;
            }
            prop_assert!((row_sum - rp.top_k_prob(pos)).abs() < 1e-9);
            total += rp.top_k_prob(pos);
        }
        prop_assert!(total <= k as f64 + 1e-6);
    }

    /// For each rank h, at most one tuple can occupy it per world, so the
    /// rank-h probabilities across tuples sum to at most 1.
    #[test]
    fn rank_slots_are_not_oversubscribed(db in db_strategy(), k in 1usize..6) {
        let rp = rank_probabilities(&db, k).unwrap();
        for h in 1..=k {
            let slot_mass: f64 = (0..db.len()).map(|p| rp.rank_prob(p, h)).sum();
            prop_assert!(slot_mass <= 1.0 + 1e-9);
        }
    }

    /// Top-k probability is monotone in k: widening the answer can only
    /// increase a tuple's chance of being part of it.
    #[test]
    fn top_k_probability_is_monotone_in_k(db in db_strategy(), k in 1usize..5) {
        let small = rank_probabilities(&db, k).unwrap();
        let large = rank_probabilities(&db, k + 1).unwrap();
        for pos in 0..db.len() {
            prop_assert!(large.top_k_prob(pos) + 1e-9 >= small.top_k_prob(pos));
        }
    }

    /// The pw-result distribution is a probability distribution and the
    /// three quality algorithms agree on its entropy.
    #[test]
    fn quality_algorithms_agree(db in db_strategy(), k in 1usize..5) {
        let dist = pwr_result_distribution(&db, k).unwrap();
        prop_assert!((dist.total_prob() - 1.0).abs() < 1e-8);
        let pw = quality_pw(&db, k).unwrap();
        let tp = quality_tp(&db, k).unwrap();
        prop_assert!((dist.quality() - pw).abs() < 1e-8);
        prop_assert!((tp - pw).abs() < 1e-8);
        // Quality is bounded by [-log2(#results), 0].
        prop_assert!(pw <= 1e-9);
        prop_assert!(pw >= -(dist.len() as f64).log2() - 1e-9);
    }

    /// Collapsing an x-tuple (a successful cleaning) never increases the
    /// number of possible worlds and keeps the database valid.
    #[test]
    fn collapse_preserves_validity(db in db_strategy(), which in any::<prop::sample::Index>()) {
        let l = which.index(db.num_x_tuples());
        let members = db.x_tuple(l).members.clone();
        let keep = members[which.index(members.len())];
        let mut cleaned = db.clone();
        cleaned.collapse_x_tuple_in_place(l, keep).unwrap();
        prop_assert_eq!(cleaned.num_x_tuples(), db.num_x_tuples());
        prop_assert!(cleaned.world_count() <= db.world_count());
        prop_assert!(cleaned.x_tuple(l).members.len() == 1);
    }

    /// Theorem 2: cleaning never hurts in expectation, and the expected
    /// improvement is bounded by the total ambiguity |S|.
    #[test]
    fn expected_improvement_is_bounded(
        db in db_strategy(),
        k in 1usize..4,
        sc in 0.0f64..1.0,
        cost in 1u64..5,
        budget in 0u64..20,
    ) {
        let ctx = CleaningContext::prepare(&db, k).unwrap();
        let setup = CleaningSetup::uniform(db.num_x_tuples(), cost, sc).unwrap();
        let plan = plan_greedy(&ctx, &setup, budget).unwrap();
        prop_assert!(plan.validate(&setup, budget).is_ok());
        let improvement = expected_improvement(&ctx, &setup, &plan);
        prop_assert!(improvement >= -1e-12);
        prop_assert!(improvement <= -ctx.quality + 1e-9);
    }

    /// The greedy plan never beats the DP optimum, and both respect the
    /// budget.
    #[test]
    fn dp_dominates_greedy(
        db in db_strategy(),
        k in 1usize..4,
        budget in 0u64..15,
    ) {
        let ctx = CleaningContext::prepare(&db, k).unwrap();
        let setup = CleaningSetup::uniform(db.num_x_tuples(), 2, 0.7).unwrap();
        let dp = plan_dp(&ctx, &setup, budget).unwrap();
        let greedy = plan_greedy(&ctx, &setup, budget).unwrap();
        prop_assert!(dp.validate(&setup, budget).is_ok());
        prop_assert!(greedy.validate(&setup, budget).is_ok());
        let v_dp = expected_improvement(&ctx, &setup, &dp);
        let v_greedy = expected_improvement(&ctx, &setup, &greedy);
        prop_assert!(v_dp + 1e-9 >= v_greedy);
    }

    /// Theorem 2's closed form equals the exhaustive expectation over all
    /// cleaned databases (Equation 17) for small plans.
    #[test]
    fn theorem_2_matches_exhaustive_expectation(
        db in db_strategy(),
        k in 1usize..3,
        sc in 0.1f64..1.0,
    ) {
        let ctx = CleaningContext::prepare(&db, k).unwrap();
        let setup = CleaningSetup::uniform(db.num_x_tuples(), 1, sc).unwrap();
        // Clean the first candidate (if any) twice.
        let mut plan = CleaningPlan::empty(db.num_x_tuples());
        if let Some(&l) = ctx.candidates().first() {
            plan.set_count(l, 2);
        }
        let fast = expected_improvement(&ctx, &setup, &plan);
        let slow = expected_improvement_exhaustive(&db, k, &setup, &plan).unwrap();
        prop_assert!((fast - slow).abs() < 1e-7, "fast {} vs exhaustive {}", fast, slow);
    }
}
