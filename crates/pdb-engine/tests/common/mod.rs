//! Generators shared by the PSR and delta-engine property suites.

use pdb_core::RankedDatabase;
use pdb_engine::delta::XTupleMutation;
use pdb_engine::poly::multiply_binomial_in;
use pdb_engine::psr::{
    rank_probabilities, rank_probabilities_exact, RankProbabilities, TAIL_EPSILON,
};
use proptest::collection::vec;
use proptest::prelude::*;

/// The PSR scan's saturation threshold: an x-tuple whose mass above a
/// position reaches it counts as certain there.
#[allow(dead_code)]
const SATURATED: f64 = 1.0 - 1e-12;

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

/// Spread null-mass databases, the regime where many x-tuples are in
/// flight at once: 5–40 x-tuples, each with 1–5 alternatives scored
/// anywhere in one 0–100 range and a total mass in [0.55, 0.999], so none
/// saturates and each x-tuple's factor changes all down the ranking.
pub fn spread_null_mass_db() -> impl Strategy<Value = RankedDatabase> {
    let x_tuple =
        (vec((0.0f64..100.0, 0.05f64..1.0), 1..6), 0.55f64..0.999).prop_map(|(alts, mass)| {
            let total: f64 = alts.iter().map(|(_, w)| w).sum();
            alts.into_iter().map(|(score, w)| (score, w / total * mass)).collect()
        });
    vec(x_tuple, 5..41).prop_map(|x: Vec<Vec<(f64, f64)>>| {
        RankedDatabase::from_scored_x_tuples(&x).expect("generated x-tuples are valid")
    })
}

/// Either null-mass family: clustered or spread alternatives.
#[allow(dead_code)]
pub fn null_mass_db() -> impl Strategy<Value = RankedDatabase> {
    (any::<bool>(), clustered_null_mass_db(), spread_null_mass_db())
        .prop_map(|(clustered, a, b)| if clustered { a } else { b })
}

/// T(pos) = Pr[fewer than `k` existing tuples rank above `pos`], computed
/// on its own: one Poisson-binomial product over every x-tuple's clamped
/// mass above `pos`, counting saturated x-tuples as certain, as the PSR
/// scan does.
#[allow(dead_code)]
pub fn tail_probability(db: &RankedDatabase, k: usize, pos: usize) -> f64 {
    let mut poly = vec![0.0; k];
    poly[0] = 1.0;
    let mut certain = 0;
    for info in db.x_tuples() {
        let mut q = 0.0f64;
        for &member in info.members.iter().take_while(|&&member| member < pos) {
            q = (q + db.tuple(member).prob).min(1.0);
        }
        if q >= SATURATED {
            certain += 1;
        } else if q > 0.0 {
            multiply_binomial_in(&mut poly, q);
        }
    }
    poly.iter().take(k.saturating_sub(certain)).sum()
}

/// The first position where [`tail_probability`] is at most
/// [`TAIL_EPSILON`], or `n`: where PSR's stored prefix must end.
#[allow(dead_code)]
pub fn expected_tail_cut(db: &RankedDatabase, k: usize) -> usize {
    (0..db.len()).find(|&pos| tail_probability(db, k, pos) <= TAIL_EPSILON).unwrap_or(db.len())
}

/// Every entry of the exact oracle past `rp`'s stored prefix is at most
/// 1e-15: the rows the tail cut drops hold nothing above ε, up to the
/// oracle's own rounding.
#[allow(dead_code)]
pub fn assert_oracle_tail_vanishes(db: &RankedDatabase, rp: &RankProbabilities, context: &str) {
    let oracle = rank_probabilities_exact(db, rp.k()).unwrap();
    for pos in rp.live_rows()..db.len() {
        for h in 1..=rp.k() {
            let want = oracle.rank_prob(pos, h);
            assert!(want <= 1e-15, "{context}: oracle row {pos} h {h} past the cut: {want}");
        }
    }
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

/// Steps that move the tail cut of a null-mass database, resolved by
/// [`resolve_tail_step`]: probe outcomes only (reweights), or with
/// `streaming` also removals and inserts.
#[allow(dead_code)]
pub fn tail_step(streaming: bool) -> impl Strategy<Value = CutStep> {
    let kinds: usize = if streaming { 6 } else { 3 };
    (0..kinds, any::<usize>(), any::<usize>(), 0.3f64..0.95)
        .prop_map(|(kind, x_sel, alt_sel, mass)| CutStep { kind, x_sel, alt_sel, mass })
}

/// A concrete mutation for the null-mass database `db`, whose stored
/// prefix has `live` rows, or `None` when the step has no valid target:
///
/// * kind 0 reweights an x-tuple with an alternative above the cut down
///   to `mass` times its total, and kind 3 removes one: T rises below it
///   and the cut moves down;
/// * kind 1 reweights one up, towards total mass 1 (its null mass shrinks
///   by the factor `mass`), and kind 4 inserts an x-tuple ranked above
///   every tuple: T falls and the cut moves up;
/// * kind 2 reweights an x-tuple wholly past the cut, and kind 5 inserts
///   one ranked below every tuple: the cut stays.
#[allow(dead_code)]
pub fn resolve_tail_step(
    db: &RankedDatabase,
    live: usize,
    s: &CutStep,
) -> Option<(usize, XTupleMutation)> {
    let m = db.num_x_tuples();
    let (above, past): (Vec<usize>, Vec<usize>) =
        (0..m).partition(|&l| db.x_tuple(l).members[0] < live);
    let pick = |ls: &[usize]| (!ls.is_empty()).then(|| ls[s.x_sel % ls.len()]);
    let scaled = |l: usize, factor: f64| {
        let probs = db.x_tuple(l).members.iter().map(|&p| db.tuple(p).prob * factor).collect();
        Some((l, XTupleMutation::Reweight { probs }))
    };
    let arrival = |score: f64| {
        let count = 1 + s.alt_sel % 3;
        let total = 0.55 + 0.44 * s.mass;
        let alternatives = (0..count).map(|i| (score - i as f64, total / count as f64)).collect();
        Some((m, XTupleMutation::Insert { key: format!("tail{}", s.x_sel % 97), alternatives }))
    };
    match s.kind {
        0 => scaled(pick(&above)?, s.mass),
        1 => {
            let l = pick(&above)?;
            let total = db.x_tuple(l).total_mass;
            scaled(l, (1.0 - (1.0 - total) * s.mass) / total)
        }
        2 => scaled(pick(&past)?, s.mass),
        3 if m > 1 => Some((pick(&above)?, XTupleMutation::Remove)),
        4 => arrival(db.tuple(0).score + 3.0),
        5 => arrival(db.tuple(db.len() - 1).score - 1.0),
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
