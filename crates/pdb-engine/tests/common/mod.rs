//! Generators shared by the PSR and delta-engine property suites.

use pdb_core::RankedDatabase;
use pdb_engine::delta::XTupleMutation;
use pdb_engine::psr::{rank_probabilities, rank_probabilities_exact, RankProbabilities};
use proptest::collection::vec;
use proptest::prelude::*;

/// Clustered null-mass databases, the regime where PSR freezes passed
/// x-tuples out of its running product: 5–40 x-tuples, each with 1–5
/// alternatives inside one 6-point score band and a total mass in
/// [0.55, 0.999], so every factor crosses `MAX_DIVISOR_Q` and none
/// saturates.  Band centres share a 0–100 range, so a frozen
/// ill-conditioned factor often sits next to an in-flight one.
pub fn clustered_null_mass_db() -> impl Strategy<Value = RankedDatabase> {
    let x_tuple = (0.0f64..100.0, vec((0.0f64..6.0, 0.05f64..1.0), 1..6), 0.55f64..0.999).prop_map(
        |(centre, alts, mass)| {
            let total: f64 = alts.iter().map(|(_, w)| w).sum();
            alts.into_iter().map(|(offset, w)| (centre + offset, w / total * mass)).collect()
        },
    );
    vec(x_tuple, 5..41).prop_map(|x: Vec<Vec<(f64, f64)>>| {
        RankedDatabase::from_scored_x_tuples(&x).expect("generated x-tuples are valid")
    })
}

/// Complete x-tuples (each total mass 1 up to rounding) paired with a `k`
/// small enough that Lemma 2's cut usually falls inside the table:
/// 12–30 x-tuples of 1–4 alternatives scattered over one 0–100 score
/// range, and `k` in 1..=4, so the `k`-th x-tuple to complete does so
/// well before the last position.
pub fn complete_db_with_inner_cut() -> impl Strategy<Value = (RankedDatabase, usize)> {
    let x_tuple = vec((0.0f64..100.0, 0.05f64..1.0), 1..5).prop_map(|alts| {
        let total: f64 = alts.iter().map(|(_, w)| w).sum();
        alts.into_iter().map(|(score, w)| (score, w / total)).collect::<Vec<_>>()
    });
    (vec(x_tuple, 12..31), 1usize..5).prop_map(|(x, k)| {
        (RankedDatabase::from_scored_x_tuples(&x).expect("generated x-tuples are valid"), k)
    })
}

/// One abstract step of a sequence that moves Lemma 2's cut, resolved by
/// [`resolve_cut_step`] against the database the sequence has reached.
// The PSR suite shares this module but runs no mutations.
#[allow(dead_code)]
#[derive(Debug, Clone)]
pub struct CutStep {
    kind: usize,
    x_sel: usize,
    alt_sel: usize,
    mass: f64,
}

/// Cut-moving steps: probe outcomes only (a reweight below full mass and a
/// collapse), or with `streaming` also a removal and a top-ranked insert.
#[allow(dead_code)]
pub fn cut_step(streaming: bool) -> impl Strategy<Value = CutStep> {
    let kinds: usize = if streaming { 4 } else { 2 };
    (0..kinds, any::<usize>(), any::<usize>(), 0.3f64..0.95)
        .prop_map(|(kind, x_sel, alt_sel, mass)| CutStep { kind, x_sel, alt_sel, mass })
}

/// A concrete mutation for `db`, whose stored live prefix has `live` rows,
/// or `None` when the step has no valid target:
///
/// * kind 0 reweights an x-tuple that saturates above the cut to total
///   `mass < 1`, and kind 2 removes one: the cut moves down and the rows
///   it passes become live;
/// * kind 1 collapses any x-tuple to one of its alternatives, and kind 3
///   inserts a complete x-tuple ranked above every tuple: the cut moves up
///   (or stays) and rows leave storage.
#[allow(dead_code)]
pub fn resolve_cut_step(
    db: &RankedDatabase,
    live: usize,
    s: &CutStep,
) -> Option<(usize, XTupleMutation)> {
    let m = db.num_x_tuples();
    let saturated_above_cut: Vec<usize> = (0..m)
        .filter(|&l| {
            let info = db.x_tuple(l);
            info.members.last().is_some_and(|&last| last < live) && info.null_prob() <= 1e-9
        })
        .collect();
    match s.kind {
        0 | 2 if saturated_above_cut.is_empty() => None,
        0 => {
            let l = saturated_above_cut[s.x_sel % saturated_above_cut.len()];
            let probs = db.x_tuple(l).members.iter().map(|&p| db.tuple(p).prob * s.mass).collect();
            Some((l, XTupleMutation::Reweight { probs }))
        }
        2 if m > 1 => {
            Some((saturated_above_cut[s.x_sel % saturated_above_cut.len()], XTupleMutation::Remove))
        }
        1 => {
            let l = s.x_sel % m;
            let members = &db.x_tuple(l).members;
            let keep_pos = members[s.alt_sel % members.len()];
            Some((l, XTupleMutation::CollapseToAlternative { keep_pos }))
        }
        3 => {
            let top = db.tuple(0).score;
            let count = 1 + s.alt_sel % 3;
            let alternatives =
                (0..count).map(|i| (top + 1.0 + i as f64, 1.0 / count as f64)).collect();
            Some((m, XTupleMutation::Insert { key: format!("top{}", s.x_sel % 97), alternatives }))
        }
        _ => None,
    }
}

/// Every ρ entry and every top-k probability of `rp` within 1e-12 of a
/// fresh PSR run on `db`: the delta pass rewrites every changed row with
/// the PSR scan itself, so a chain of mutations accumulates no error.
#[allow(dead_code)]
pub fn assert_matches_fresh(db: &RankedDatabase, rp: &RankProbabilities, context: &str) {
    let fresh = rank_probabilities(db, rp.k()).unwrap();
    for pos in 0..db.len() {
        for h in 1..=rp.k() {
            let (got, want) = (rp.rank_prob(pos, h), fresh.rank_prob(pos, h));
            assert!(
                (got - want).abs() <= 1e-12,
                "{context}: pos {pos} h {h}: {got} vs fresh {want}"
            );
        }
        let (got, want) = (rp.top_k_prob(pos), fresh.top_k_prob(pos));
        assert!((got - want).abs() <= 1e-12, "{context}: pos {pos} p: {got} vs fresh {want}");
    }
}

/// The stored matrix after a mutation: exactly as many rows as a fresh
/// PSR run stores, every entry and top-k probability within 1e-12 of that
/// run's, every entry (stored or past the prefix) within `tol` of the
/// exact oracle, and the oracle's rows past the prefix zero up to
/// the mass saturated x-tuples may miss (< 1e-12 each).
#[allow(dead_code)]
pub fn assert_live_prefix_matches_exact(
    db: &RankedDatabase,
    rp: &RankProbabilities,
    tol: f64,
    context: &str,
) {
    let k = rp.k();
    let fresh = rank_probabilities(db, k).unwrap();
    assert_eq!(rp.live_rows(), fresh.live_rows(), "{context}: stored rows vs a fresh PSR run");
    assert_matches_fresh(db, rp, context);
    assert_eq!(rp.num_tuples(), db.len(), "{context}: the matrix covers every tuple");
    let oracle = rank_probabilities_exact(db, k).unwrap();
    for pos in 0..db.len() {
        for h in 1..=k {
            let (got, want) = (rp.rank_prob(pos, h), oracle.rank_prob(pos, h));
            assert!((got - want).abs() < tol, "{context}: pos {pos} h {h}: {got} vs exact {want}");
            if pos >= rp.live_rows() {
                assert!(want.abs() < 1e-10, "{context}: oracle row {pos} past the cut: {want}");
            }
        }
    }
}
