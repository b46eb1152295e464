//! End-to-end checks of the paper's running example (Tables I & II,
//! Figures 2 & 3) through the public facade crate.

use uncertain_topk::core::examples::{udb1, udb2};
use uncertain_topk::prelude::*;
use uncertain_topk::quality::{pw_result_distribution, pwr_result_distribution};

#[test]
fn table_one_and_two_shapes() {
    let db1 = udb1();
    let db2 = udb2();
    assert_eq!(db1.num_x_tuples(), 4);
    assert_eq!(db1.num_tuples(), 7);
    assert_eq!(db2.num_tuples(), 6);
    // udb2 is udb1 with sensor S3 cleaned to its 27 °C reading.
    assert!(db2.x_tuple(2).unwrap().is_certain());
}

#[test]
fn possible_world_probability_example() {
    // "a possible world W = {t0, t3, t4, t6} exists with probability 0.072"
    let ranked = udb1().rank_by(&ScoreRanking);
    let worlds: Vec<_> = pdb_core::world::worlds(&ranked).unwrap().collect();
    assert_eq!(worlds.len(), 8);
    let target_scores = [21.0, 22.0, 25.0, 26.0];
    let w = worlds
        .iter()
        .find(|w| {
            let scores: Vec<f64> =
                w.existing_positions().iter().map(|&p| ranked.tuple(p).score).collect();
            target_scores.iter().all(|s| scores.contains(s)) && scores.len() == 4
        })
        .expect("the world {t0, t3, t4, t6} exists");
    assert!((w.prob - 0.072).abs() < 1e-12);
}

#[test]
fn pt2_answer_matches_the_introduction() {
    // "If k = 2 and T = 0.4, then the answer of the PT-k query is {t1, t2, t5}"
    let db = udb1().rank_by(&ScoreRanking);
    let answer = pt_k(&db, &rank_probabilities(&db, 2).unwrap(), 0.4).unwrap();
    let ids: Vec<usize> = answer.tuples.iter().map(|t| t.id.0).collect();
    assert_eq!(ids, vec![1, 2, 5]);
}

#[test]
fn pw_result_counts_and_qualities_match_figures_2_and_3() {
    let db1 = udb1().rank_by(&ScoreRanking);
    let db2 = udb2().rank_by(&ScoreRanking);

    let dist1 = pwr_result_distribution(&db1, 2).unwrap();
    let dist2 = pwr_result_distribution(&db2, 2).unwrap();
    assert_eq!(dist1.len(), 7, "Figure 2 shows seven pw-results for udb1");
    assert_eq!(dist2.len(), 4, "Figure 3 shows four pw-results for udb2");

    assert!((dist1.quality() - (-2.55)).abs() < 0.005);
    assert!((dist2.quality() - (-1.85)).abs() < 0.005);

    // The example pw-result (t1, t2) has probability 0.28.
    let pw1 = pw_result_distribution(&db1, 2).unwrap();
    assert!(pw1.results.iter().any(|r| (r.prob - 0.28).abs() < 1e-12));
}

#[test]
fn cleaning_s3_turns_udb1_into_udb2_and_improves_quality() {
    let db1 = udb1().rank_by(&ScoreRanking);
    let q1 = quality_tp(&db1, 2).unwrap();
    let q2 = quality_tp(&udb2().rank_by(&ScoreRanking), 2).unwrap();
    assert!(q2 > q1, "udb2 must be less ambiguous than udb1");

    // The expected-improvement model agrees: cleaning S3 with certainty
    // yields an expected improvement of exactly -g(S3).
    let ctx = CleaningContext::prepare(&db1, 2).unwrap();
    let setup = CleaningSetup::uniform(4, 1, 1.0).unwrap();
    let mut plan = CleaningPlan::empty(4);
    plan.set_count(2, 1);
    let expected = expected_improvement(&ctx, &setup, &plan);
    assert!(expected > 0.0);
    // The realised improvement depends on which reading S3 turns out to
    // have; the expectation averages the 27 °C (udb2) and 25 °C outcomes.
    let q2_alt = {
        let pos_25 = db1.tuples().position(|t| t.score == 25.0).unwrap();
        let mut cleaned = db1.clone();
        cleaned.collapse_x_tuple_in_place(2, pos_25).unwrap();
        quality_tp(&cleaned, 2).unwrap()
    };
    let mixture = 0.6 * q2 + 0.4 * q2_alt;
    assert!((ctx.quality + expected - mixture).abs() < 1e-9);
}

#[test]
fn u_k_ranks_and_global_topk_answers_are_consistent_on_udb1() {
    let db = udb1().rank_by(&ScoreRanking);
    let rp = rank_probabilities(&db, 2).unwrap();

    let uk = u_k_ranks(&db, &rp);
    assert_eq!(uk.k(), 2);
    // Every winner must hold the maximum rank probability for its rank.
    for (h0, winner) in uk.winners.iter().enumerate() {
        let winner = winner.expect("both ranks are reachable on udb1");
        let best = (0..db.len()).map(|p| rp.rank_prob(p, h0 + 1)).fold(f64::MIN, f64::max);
        assert!((winner.prob - best).abs() < 1e-12);
    }

    let gt = global_topk(&db, &rp);
    assert_eq!(gt.len(), 2);
    // Global-topk returns the tuples with the two highest top-2
    // probabilities: t2 (0.7) and t5 (0.432).
    let probs: Vec<f64> = gt.tuples.iter().map(|t| t.prob).collect();
    assert!((probs[0] - 0.7).abs() < 1e-9);
    assert!((probs[1] - 0.432).abs() < 1e-9);
}
