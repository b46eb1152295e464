//! Equivalence of the incremental delta engine and the full-rebuild
//! oracles.
//!
//! A one-query [`BatchEvaluation`] (the type the server runs) promises
//! that, after any sequence of single-x-tuple mutations, its master rank
//! probabilities match what [`rank_probabilities`] computes from scratch
//! on the mutated database to 1e-12 (rewritten rows match the PSR scan
//! bit for bit, and copied rows keep the value an earlier scan wrote),
//! and what [`rank_probabilities_exact`] computes within the documented
//! tolerance.  These tests pin that promise across proptest-generated
//! collapse / reweight sequences (including clustered null-mass
//! databases, whose heavy factors make the scan re-form its product) and
//! on deterministic databases that force the saturated and
//! heavy-factor (`q > MAX_DIVISOR_Q`) regimes.

use pdb_core::RankedDatabase;
use pdb_engine::batch::BatchEvaluation;
use pdb_engine::delta::XTupleMutation;
use pdb_engine::psr::{rank_probabilities, rank_probabilities_exact};
use pdb_engine::queries::TopKQuery;
use proptest::collection::vec;
use proptest::prelude::*;

mod common;

/// Documented tolerance of the delta path against the exact oracle, per
/// row entry, after a handful of chained mutations.
const DELTA_TOLERANCE: f64 = 1e-8;

/// One PSR run at `k`, advanced in place by the delta engine.
fn evaluation(db: RankedDatabase, k: usize) -> BatchEvaluation<'static> {
    BatchEvaluation::from_owned(db, vec![TopKQuery::UKRanks { k }]).unwrap()
}

fn assert_matches_exact(eval: &BatchEvaluation<'_>, tol: f64, context: &str) {
    let db = eval.database();
    let rp = eval.master();
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
    (any::<usize>(), 0u8..3, any::<usize>(), vec(0.0f64..1.0, 8))
        .prop_map(|(x_sel, kind, alt_sel, weights)| Step { x_sel, kind, alt_sel, weights })
}

/// Resolve an abstract step into a concrete valid mutation for `db`, or
/// `None` when the step must be skipped (e.g. a null collapse that would
/// empty the database).
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
        _ => {
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
/// alternatives drive the PSR saturation machinery and make the mutated
/// factors heavy (`q > MAX_DIVISOR_Q`).
fn adversarial_db() -> impl Strategy<Value = RankedDatabase> {
    // The raw probability draw is bimodal: half the x-tuples are
    // near-certain (0.85..1.0), the rest are light (0.01..0.3).
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

    /// After every mutation of a random sequence, the delta evaluation
    /// matches the exact full rebuild within the documented tolerance.
    #[test]
    fn mutation_sequences_match_the_exact_oracle(
        db in db(),
        k in 1usize..6,
        steps in vec(step(), 1..6),
    ) {
        let mut eval = evaluation(db, k);
        for (i, s) in steps.iter().enumerate() {
            let Some((l, mutation)) = resolve(eval.database(), s) else { continue };
            eval.apply_collapse_in_place(l, &mutation).unwrap();
            assert_matches_exact(&eval, DELTA_TOLERANCE, &format!("step {i} ({mutation:?})"));
        }
    }

    /// Near-certain single-alternative databases force saturation and
    /// heavy factors; the delta path must still track the oracle.
    #[test]
    fn adversarial_sequences_match_the_exact_oracle(
        db in adversarial_db(),
        k in 1usize..4,
        steps in vec(step(), 1..5),
    ) {
        let mut eval = evaluation(db, k);
        for (i, s) in steps.iter().enumerate() {
            let Some((l, mutation)) = resolve(eval.database(), s) else { continue };
            eval.apply_collapse_in_place(l, &mutation).unwrap();
            assert_matches_exact(&eval, DELTA_TOLERANCE, &format!("step {i} ({mutation:?})"));
        }
    }

    /// Clustered null-mass databases push most factors above
    /// `MAX_DIVISOR_Q`, so the scan that rewrites the changed rows often
    /// re-forms its product from the frozen and in-flight factors.
    #[test]
    fn clustered_null_mass_sequences_match_the_exact_oracle(
        db in common::clustered_null_mass_db(),
        k in 1usize..13,
        steps in vec(step(), 1..6),
    ) {
        let mut eval = evaluation(db, k);
        for (i, s) in steps.iter().enumerate() {
            let Some((l, mutation)) = resolve(eval.database(), s) else { continue };
            eval.apply_collapse_in_place(l, &mutation).unwrap();
            assert_matches_exact(&eval, DELTA_TOLERANCE, &format!("step {i} ({mutation:?})"));
        }
    }

    /// The delta result also matches the production (incremental PSR)
    /// rebuild — the path the adaptive session would otherwise take.
    #[test]
    fn single_collapse_matches_the_incremental_rebuild(db in db(), k in 1usize..6) {
        let keep_pos = db.x_tuple(0).members[0];
        let mut eval = evaluation(db, k);
        eval.apply_collapse_in_place(0, &XTupleMutation::CollapseToAlternative { keep_pos })
            .unwrap();
        let (db2, rp2) = (eval.database(), eval.master());
        let rebuilt = rank_probabilities(db2, k).unwrap();
        for pos in 0..db2.len() {
            for h in 1..=k {
                prop_assert!(
                    (rp2.rank_prob(pos, h) - rebuilt.rank_prob(pos, h)).abs() < DELTA_TOLERANCE
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Complete x-tuples whose Lemma-2 cut lies inside the table: a
    /// reweight below full mass of an x-tuple that saturates above the cut
    /// moves the cut down, and its newly live rows must be rebuilt; a
    /// collapse moves it up and rows leave storage.  After every step the
    /// stored prefix is exactly a fresh run's and every row matches a
    /// fresh run and the exact oracle.
    #[test]
    fn mutations_that_move_the_cut_match_the_exact_oracle(
        (db, k) in common::complete_db_with_inner_cut(),
        steps in vec(common::cut_step(false), 1..8),
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

    /// Null-mass databases, clustered or spread, whose tail cut moves
    /// with each reweight: down when an x-tuple above it loses mass, up
    /// when one gains mass, and not at all when the x-tuple lies wholly
    /// past it.  After every step the stored prefix is exactly a fresh
    /// run's, every row matches a fresh run and the exact oracle, and
    /// every oracle entry past the prefix is at most 1e-15.
    #[test]
    fn null_mass_mutations_that_move_the_tail_cut_match_a_fresh_run(
        db in common::null_mass_db(),
        k in 1usize..9,
        steps in vec(common::tail_step(false), 1..10),
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

/// Every stored row of `eval`'s master is a fresh PSR run's row, bit for
/// bit.
fn assert_bit_identical_to_a_fresh_run(eval: &BatchEvaluation<'_>) {
    let (db, rp) = (eval.database(), eval.master());
    let fresh = rank_probabilities(db, rp.k()).unwrap();
    let bits = |row: &[f64]| row.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
    for pos in 0..db.len() {
        assert_eq!(bits(&rp.rank_probs(pos)), bits(&fresh.rank_probs(pos)), "row {pos}");
    }
}

#[test]
fn windowed_scan_handles_a_mass_resurrection() {
    // A near-certain blocker shadows thirty single-alternative x-tuples at
    // k = 2; collapsing it to null drops its factor from q = 0.99 to 0
    // below it, so one windowed scan rewrites every shadowed row.
    let mut x = vec![vec![(1000.0, 0.99)], vec![(999.0, 0.99)]];
    for i in 0..30 {
        x.push(vec![(500.0 - i as f64, 0.5)]);
    }
    let mut eval = evaluation(RankedDatabase::from_scored_x_tuples(&x).unwrap(), 2);
    let stats = eval.apply_collapse_in_place(0, &XTupleMutation::CollapseToNull).unwrap();
    let (db2, rp2) = (eval.database(), eval.master());
    assert_eq!(stats.rows_rebuilt, db2.len(), "every surviving row rebuilt: {stats:?}");
    assert_eq!(stats.windowed_scans, 1, "expected the windowed scan: {stats:?}");
    let oracle = rank_probabilities_exact(db2, 2).unwrap();
    for pos in 0..db2.len() {
        for h in 1..=2 {
            assert!((rp2.rank_prob(pos, h) - oracle.rank_prob(pos, h)).abs() < 1e-9);
        }
    }
    // The windowed scan shares the full PSR scan's arithmetic, so its rows
    // are the fresh run's rows bit for bit.
    assert_bit_identical_to_a_fresh_run(&eval);
}

#[test]
fn rows_rewritten_below_a_long_prefix_match_a_fresh_run_bit_for_bit() {
    // Many rows above the blocker, only two shadowed rows below it: the
    // scan advances through the whole prefix but writes just those two,
    // and they come out as a fresh run's rows.
    let mut x: Vec<Vec<(f64, f64)>> = Vec::new();
    for i in 0..12 {
        x.push(vec![(1000.0 - i as f64, 0.3), (500.0 - i as f64, 0.3), (100.0 - i as f64, 0.2)]);
    }
    x.push(vec![(50.0, 0.9)]); // the blocker (null mass 0.1)
    x.push(vec![(40.0, 0.5)]);
    x.push(vec![(30.0, 0.5)]);
    let mut eval = evaluation(RankedDatabase::from_scored_x_tuples(&x).unwrap(), 1);
    let stats = eval.apply_collapse_in_place(12, &XTupleMutation::CollapseToNull).unwrap();
    let (db2, rp2) = (eval.database(), eval.master());
    assert_eq!(stats.rows_rebuilt, 2, "{stats:?}");
    let oracle = rank_probabilities_exact(db2, 1).unwrap();
    for pos in 0..db2.len() {
        assert!((rp2.rank_prob(pos, 1) - oracle.rank_prob(pos, 1)).abs() < 1e-9);
    }
    assert_bit_identical_to_a_fresh_run(&eval);
}

#[test]
fn k_edge_cases() {
    let db = RankedDatabase::from_scored_x_tuples(&[
        vec![(10.0, 0.5), (9.0, 0.5)],
        vec![(8.0, 0.7)],
        vec![(7.0, 1.0)],
    ])
    .unwrap();
    // k = 0 is rejected up front, exactly like the full pipeline.
    assert!(BatchEvaluation::from_owned(db.clone(), vec![TopKQuery::UKRanks { k: 0 }]).is_err());
    // k far beyond n: every rank position is representable and the delta
    // still matches the oracle.
    for k in [db.len(), db.len() + 7] {
        let mut eval = evaluation(db.clone(), k);
        eval.apply_collapse_in_place(0, &XTupleMutation::CollapseToAlternative { keep_pos: 0 })
            .unwrap();
        eval.apply_collapse_in_place(1, &XTupleMutation::CollapseToNull).unwrap();
        assert_matches_exact(&eval, 1e-9, "k >= n");
    }
}

#[test]
fn collapsing_every_x_tuple_yields_a_certain_database() {
    let db = RankedDatabase::from_scored_x_tuples(&[
        vec![(21.0, 0.6), (32.0, 0.4)],
        vec![(30.0, 0.7), (22.0, 0.3)],
        vec![(25.0, 0.4), (27.0, 0.6)],
        vec![(26.0, 1.0)],
    ])
    .unwrap();
    let mut eval = evaluation(db, 2);
    for l in 0..4 {
        let keep_pos = eval.database().x_tuple(l).members[0];
        eval.apply_collapse_in_place(l, &XTupleMutation::CollapseToAlternative { keep_pos })
            .unwrap();
    }
    let db = eval.database();
    assert!(db.tuples().all(|t| (t.prob - 1.0).abs() < 1e-12));
    assert_matches_exact(&eval, 1e-9, "fully collapsed");
    // Top-2 of a certain 4-tuple database is deterministic.
    assert_eq!(eval.master().nonzero_positions().len(), 2);
}
