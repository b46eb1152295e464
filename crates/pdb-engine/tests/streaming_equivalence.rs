//! Equivalence of the streaming mutation path and the full-rebuild
//! oracle.
//!
//! The streaming API extends [`XTupleMutation`] with [`Insert`] and
//! [`Remove`]: the database grows and shrinks under the maintained rank
//! probabilities instead of only collapsing in place.  These tests mirror
//! `delta_equivalence.rs` for the new membership mutations: after any
//! interleaving of inserts, removes, collapses and reweights, the
//! incrementally patched ρ matrix must match a fresh PSR run on the
//! mutated database to 1e-12, and the exact oracle within the documented
//! tolerance — including the awkward corners (shrinking towards empty, `k >= n` crossings in both
//! directions, and re-inserting an entity that was just removed).
//!
//! [`Insert`]: XTupleMutation::Insert
//! [`Remove`]: XTupleMutation::Remove

use pdb_core::RankedDatabase;
use pdb_engine::batch::BatchEvaluation;
use pdb_engine::delta::XTupleMutation;
use pdb_engine::psr::rank_probabilities_exact;
use pdb_engine::queries::TopKQuery;
use proptest::collection::vec;
use proptest::prelude::*;

mod common;

/// Documented tolerance of the delta path against the exact oracle, per
/// row entry, after a handful of chained mutations.
const DELTA_TOLERANCE: f64 = 1e-8;

/// One PSR run at `k` (a one-query batch, the type the server runs),
/// advanced in place by the delta engine.
fn evaluation(db: RankedDatabase, k: usize) -> BatchEvaluation<'static> {
    BatchEvaluation::from_owned(db, vec![TopKQuery::UKRanks { k }]).unwrap()
}

fn assert_matches_exact(eval: &BatchEvaluation<'_>, tol: f64, context: &str) {
    let db = eval.database();
    let rp = eval.master();
    assert_eq!(rp.num_tuples(), db.len(), "{context}: ρ matrix tracks the database size");
    common::assert_matches_fresh(db, rp, context);
    let oracle = rank_probabilities_exact(db, rp.k()).unwrap();
    for pos in 0..db.len() {
        for h in 1..=rp.k() {
            let got = rp.rank_prob(pos, h);
            let want = oracle.rank_prob(pos, h);
            assert!(
                (got - want).abs() < tol,
                "{context}: pos {pos} h {h}: delta {got} vs exact {want}"
            );
        }
    }
}

/// One abstract mutation step, resolved against whatever database the
/// sequence has produced so far.
#[derive(Debug, Clone)]
struct Step {
    x_sel: usize,
    kind: u8,
    alt_sel: usize,
    weights: Vec<f64>,
}

fn step() -> impl Strategy<Value = Step> {
    (any::<usize>(), 0u8..5, any::<usize>(), vec(0.0f64..1.0, 8))
        .prop_map(|(x_sel, kind, alt_sel, weights)| Step { x_sel, kind, alt_sel, weights })
}

/// Resolve an abstract step into a concrete valid mutation for `db`, or
/// `None` when the step must be skipped (e.g. a removal that would empty
/// the database).
fn resolve(db: &RankedDatabase, s: &Step) -> Option<(usize, XTupleMutation)> {
    let m = db.num_x_tuples();
    let l = s.x_sel % m;
    let info = db.x_tuple(l);
    match s.kind {
        0 => {
            let keep_pos = info.members[s.alt_sel % info.members.len()];
            Some((l, XTupleMutation::CollapseToAlternative { keep_pos }))
        }
        1 if info.null_prob() > 1e-9 && m > 1 => Some((l, XTupleMutation::CollapseToNull)),
        1 => None,
        2 => {
            // Reweight: scale the drawn weights so the total mass stays in
            // (0, 1]; keeps the database valid for any draw.
            let raw: Vec<f64> = info
                .members
                .iter()
                .enumerate()
                .map(|(i, _)| s.weights[i % s.weights.len()])
                .collect();
            let total: f64 = raw.iter().sum();
            if total <= 0.0 {
                return None;
            }
            let target = 0.2 + 0.8 * s.weights[0];
            let probs = raw.iter().map(|w| w / total * target).collect();
            Some((l, XTupleMutation::Reweight { probs }))
        }
        3 => {
            // Insert: a fresh entity appended at x-index m with one to
            // three alternatives whose mass stays in (0, 1].
            let count = 1 + s.alt_sel % 3;
            let raw: Vec<(f64, f64)> =
                (0..count).map(|i| (s.weights[i] * 100.0, 0.05 + 0.9 * s.weights[i + 3])).collect();
            let total: f64 = raw.iter().map(|&(_, p)| p).sum();
            let target = 0.2 + 0.8 * s.weights[6];
            let alternatives = raw.iter().map(|&(sc, p)| (sc, p / total * target)).collect();
            let key = format!("ins{}", s.x_sel % 97);
            Some((m, XTupleMutation::Insert { key, alternatives }))
        }
        4 if m > 1 => Some((l, XTupleMutation::Remove)),
        _ => None,
    }
}

fn x_tuple() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (vec((0.0f64..100.0, 0.05f64..1.0), 1..5), 0.1f64..1.0).prop_map(|(alts, mass)| {
        let total: f64 = alts.iter().map(|(_, w)| w).sum();
        alts.into_iter().map(|(s, w)| (s, w / total * mass)).collect()
    })
}

fn db() -> impl Strategy<Value = RankedDatabase> {
    vec(x_tuple(), 2..8).prop_map(|x| RankedDatabase::from_scored_x_tuples(&x).unwrap())
}

/// An adversarial database family: clustered scores and near-certain
/// alternatives make the mutated factors heavy (`q > MAX_DIVISOR_Q`), so
/// inserts and removes land next to saturated and re-formed rows.
fn adversarial_db() -> impl Strategy<Value = RankedDatabase> {
    vec((0.0f64..5.0, 0.0f64..1.0), 3..10).prop_map(|alts| {
        let x: Vec<Vec<(f64, f64)>> = alts
            .into_iter()
            .map(|(s, raw)| {
                let p = if raw < 0.5 { 0.85 + raw * 0.3 } else { 0.01 + (raw - 0.5) * 0.58 };
                vec![(s, p)]
            })
            .collect();
        RankedDatabase::from_scored_x_tuples(&x).unwrap()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// After every step of a random insert/remove/collapse/reweight
    /// interleaving, the streaming delta matches the exact full rebuild.
    #[test]
    fn streaming_sequences_match_the_exact_oracle(
        db in db(),
        k in 1usize..6,
        steps in vec(step(), 1..8),
    ) {
        let mut eval = evaluation(db, k);
        for (i, s) in steps.iter().enumerate() {
            let Some((l, mutation)) = resolve(eval.database(), s) else { continue };
            eval.apply_collapse_in_place(l, &mutation).unwrap();
            assert_matches_exact(&eval, DELTA_TOLERANCE, &format!("step {i} ({mutation:?})"));
        }
    }

    /// Near-certain single-alternative databases force saturation and
    /// heavy factors; streaming membership changes must still track the
    /// oracle there.
    #[test]
    fn adversarial_streaming_sequences_match_the_exact_oracle(
        db in adversarial_db(),
        k in 1usize..4,
        steps in vec(step(), 1..6),
    ) {
        let mut eval = evaluation(db, k);
        for (i, s) in steps.iter().enumerate() {
            let Some((l, mutation)) = resolve(eval.database(), s) else { continue };
            eval.apply_collapse_in_place(l, &mutation).unwrap();
            assert_matches_exact(&eval, DELTA_TOLERANCE, &format!("step {i} ({mutation:?})"));
        }
    }

    /// Clustered null-mass databases: inserts, removes and reweights
    /// next to x-tuples that never saturate, so many rows are rewritten,
    /// often through the windowed scan's frozen × in-flight re-forms.
    #[test]
    fn clustered_null_mass_streaming_sequences_match_the_exact_oracle(
        db in common::clustered_null_mass_db(),
        k in 1usize..13,
        steps in vec(step(), 1..8),
    ) {
        let mut eval = evaluation(db, k);
        for (i, s) in steps.iter().enumerate() {
            let Some((l, mutation)) = resolve(eval.database(), s) else { continue };
            eval.apply_collapse_in_place(l, &mutation).unwrap();
            assert_matches_exact(&eval, DELTA_TOLERANCE, &format!("step {i} ({mutation:?})"));
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Complete x-tuples whose Lemma-2 cut lies inside the table, under a
    /// mix that moves the cut both ways: removals and sub-unit reweights
    /// of x-tuples that saturate above it move it down (the rows it passes
    /// become live and are rebuilt), top-ranked complete inserts and
    /// collapses move it up (rows leave storage).  After every step the
    /// stored prefix is exactly a fresh run's and every row matches the
    /// exact oracle.
    #[test]
    fn streaming_mutations_that_move_the_cut_match_the_exact_oracle(
        (db, k) in common::complete_db_with_inner_cut(),
        steps in vec(common::cut_step(true), 1..10),
    ) {
        let mut eval = evaluation(db, k);
        for (i, s) in steps.iter().enumerate() {
            let live = eval.master().live_rows();
            let Some((l, mutation)) = common::resolve_cut_step(eval.database(), live, s) else {
                continue;
            };
            eval.apply_collapse_in_place(l, &mutation).unwrap();
            common::assert_live_prefix_matches_exact(
                eval.database(),
                eval.master(),
                DELTA_TOLERANCE,
                &format!("step {i} ({mutation:?})"),
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Null-mass databases, clustered or spread, under reweights,
    /// removals and inserts that move the tail cut both ways: a removal
    /// or a reweight down above it moves it down, a top-ranked arrival or
    /// a reweight up moves it up, and a reweight or an arrival wholly past
    /// it leaves it.  After every step the stored prefix is exactly a
    /// fresh run's, every row matches a fresh run and the exact oracle,
    /// and every oracle entry past the prefix is at most 1e-15.
    #[test]
    fn null_mass_streaming_mutations_that_move_the_tail_cut_match_a_fresh_run(
        db in common::null_mass_db(),
        k in 1usize..9,
        steps in vec(common::tail_step(true), 1..10),
    ) {
        let mut eval = evaluation(db, k);
        for (i, s) in steps.iter().enumerate() {
            let live = eval.master().live_rows();
            let Some((l, mutation)) = common::resolve_tail_step(eval.database(), live, s) else {
                continue;
            };
            eval.apply_collapse_in_place(l, &mutation).unwrap();
            let context = format!("step {i} ({mutation:?})");
            common::assert_live_prefix_matches_exact(
                eval.database(),
                eval.master(),
                DELTA_TOLERANCE,
                &context,
            );
            common::assert_oracle_tail_vanishes(eval.database(), eval.master(), &context);
        }
    }
}

#[test]
fn shrinking_to_the_last_entity_stays_exact_and_the_final_removal_errors() {
    let db = RankedDatabase::from_scored_x_tuples(&[
        vec![(21.0, 0.6), (32.0, 0.4)],
        vec![(30.0, 0.7), (22.0, 0.3)],
        vec![(25.0, 0.4), (27.0, 0.6)],
        vec![(26.0, 1.0)],
    ])
    .unwrap();
    let mut eval = evaluation(db, 2);
    // Remove from the front so every surviving x-index shifts each time.
    for step in 0..3 {
        eval.apply_collapse_in_place(0, &XTupleMutation::Remove).unwrap();
        assert_eq!(eval.database().num_x_tuples(), 3 - step);
        assert_matches_exact(&eval, DELTA_TOLERANCE, &format!("shrink step {step}"));
    }
    // The last entity may not be removed: databases stay non-empty, same
    // as the null-collapse invariant.
    let err = eval.apply_collapse_in_place(0, &XTupleMutation::Remove).unwrap_err();
    assert!(matches!(err, pdb_core::DbError::EmptyDatabase), "{err:?}");
    assert_eq!(eval.database().num_x_tuples(), 1, "failed removal leaves the database intact");
    assert_matches_exact(&eval, DELTA_TOLERANCE, "after rejected removal");
}

#[test]
fn inserts_cross_the_k_geq_n_boundary_in_both_directions() {
    // Start with n = 2 < k = 4: every rank position is representable.
    let db =
        RankedDatabase::from_scored_x_tuples(&[vec![(10.0, 0.5), (9.0, 0.5)], vec![(8.0, 0.7)]])
            .unwrap();
    let mut eval = evaluation(db, 4);
    // Grow across the k = n boundary one insert at a time.
    for (i, (score, prob)) in [(7.0, 0.9), (11.0, 0.4), (6.5, 0.25)].iter().enumerate() {
        let l = eval.database().num_x_tuples();
        let mutation =
            XTupleMutation::Insert { key: format!("g{i}"), alternatives: vec![(*score, *prob)] };
        eval.apply_collapse_in_place(l, &mutation).unwrap();
        assert_matches_exact(&eval, DELTA_TOLERANCE, &format!("grow step {i}"));
    }
    // And shrink back below it.
    for step in 0..3 {
        eval.apply_collapse_in_place(0, &XTupleMutation::Remove).unwrap();
        assert_matches_exact(&eval, DELTA_TOLERANCE, &format!("shrink-back step {step}"));
    }
    assert_eq!(eval.database().num_x_tuples(), 2);
}

#[test]
fn reinserting_a_removed_entity_matches_a_fresh_evaluation() {
    let db = RankedDatabase::from_scored_x_tuples(&[
        vec![(21.0, 0.6), (32.0, 0.4)],
        vec![(30.0, 0.7), (22.0, 0.3)],
        vec![(25.0, 0.4), (27.0, 0.6)],
    ])
    .unwrap();
    let mut eval = evaluation(db, 2);
    let departed: Vec<(f64, f64)> = {
        let db = eval.database();
        db.x_tuple(1).members.iter().map(|&p| (db.tuple(p).score, db.tuple(p).prob)).collect()
    };
    eval.apply_collapse_in_place(1, &XTupleMutation::Remove).unwrap();
    assert_matches_exact(&eval, DELTA_TOLERANCE, "after remove");

    // The same alternatives come back under a fresh key: tuple ids are
    // newly allocated, the x-index lands at the end, and the maintained
    // probabilities agree with a from-scratch evaluation of the result.
    let l = eval.database().num_x_tuples();
    let mutation = XTupleMutation::Insert { key: "returned".into(), alternatives: departed };
    eval.apply_collapse_in_place(l, &mutation).unwrap();
    assert_matches_exact(&eval, DELTA_TOLERANCE, "after re-insert");
    assert_eq!(eval.database().num_x_tuples(), 3);
    assert_eq!(eval.database().x_tuple(l).key, "returned");
}
