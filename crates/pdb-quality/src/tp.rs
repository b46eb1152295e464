//! The TP quality algorithm (Theorem 1 of the paper).
//!
//! Theorem 1 rewrites the PWS-quality of a top-k query as a weighted sum of
//! the tuples' top-k probabilities:
//!
//! ```text
//! S(D, Q) = Σ_i ωᵢ · pᵢ
//! ωᵢ = log₂ eᵢ + (1/eᵢ)·( Y(1 − E≥ᵢ) − Y(1 − E>ᵢ) )
//! ```
//!
//! where `E≥ᵢ` / `E>ᵢ` are the existential masses of the same x-tuple's
//! alternatives ranked at-or-above / strictly-above tuple `i`, and
//! `Y(x) = x·log₂ x`.  The top-k probabilities come from PSR, the weights
//! from a single incremental pass over the sorted tuples, so the whole
//! computation is O(k·n) — and the expensive part (PSR) is exactly what
//! query evaluation needs anyway, enabling the computation sharing of
//! Section IV-C (see [`crate::batch`]).
//!
//! Implicit null alternatives need no special handling: a null tuple's
//! weight is identically zero (its at-or-above mass is the full x-tuple
//! mass 1, so both `Y` terms cancel against `log₂ e`), which the PW/TP
//! cross-check tests confirm empirically.

use crate::pw_results::plogp;
use pdb_core::{RankedDatabase, Result};
use pdb_engine::psr::{rank_probabilities, RankAccess};
use serde::{Deserialize, Serialize};

/// Per-x-tuple decomposition of the quality score, used by the cleaning
/// algorithms.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct QualityBreakdown {
    /// The PWS-quality score `S(D, Q) = Σ g(l, D)`.
    pub quality: f64,
    /// `g(l, D) = Σ_{tᵢ ∈ τ_l} ωᵢ·pᵢ` for every x-tuple `l`: the x-tuple's
    /// contribution to the quality score (Section V-B of the paper).  Always
    /// ≤ 0; cleaning x-tuple `l` removes `−g(l, D)` of ambiguity in
    /// expectation.
    pub x_tuple_contribution: Vec<f64>,
}

impl QualityBreakdown {
    /// `g(l, D)` for one x-tuple.
    pub fn g(&self, l: usize) -> f64 {
        self.x_tuple_contribution[l]
    }

    /// Number of x-tuples.
    pub fn num_x_tuples(&self) -> usize {
        self.x_tuple_contribution.len()
    }
}

/// The weight ωᵢ of one tuple (Equation 6 / 8 of the paper).
///
/// `pos` is the tuple's rank position.  Tuples with zero existential
/// probability get weight 0 (they can never appear in an answer, so their
/// product ωᵢ·pᵢ is zero regardless).
pub fn tuple_weight(db: &RankedDatabase, pos: usize) -> f64 {
    let e = db.tuple(pos).prob;
    if e <= 0.0 {
        return 0.0;
    }
    let at_or_above = db.higher_or_equal_mass_within(pos);
    let above = db.higher_mass_within(pos);
    let y_hi = plogp((1.0 - at_or_above).max(0.0));
    let y_lo = plogp((1.0 - above).max(0.0));
    e.log2() + (y_hi - y_lo) / e
}

/// All tuple weights, indexed by rank position.
pub fn tuple_weights(db: &RankedDatabase) -> Vec<f64> {
    (0..db.len()).map(|pos| tuple_weight(db, pos)).collect()
}

/// Compute the PWS-quality with the TP algorithm, running PSR internally.
pub fn quality_tp(db: &RankedDatabase, k: usize) -> Result<f64> {
    let rp = rank_probabilities(db, k)?;
    Ok(quality_tp_with(db, &rp))
}

/// Compute the PWS-quality from precomputed rank probabilities
/// (computation sharing with query evaluation).
pub fn quality_tp_with<R: RankAccess + ?Sized>(db: &RankedDatabase, rp: &R) -> f64 {
    let mut total = 0.0;
    for (pos, &p) in rp.top_k_probs().iter().enumerate() {
        if p > 0.0 {
            total += tuple_weight(db, pos) * p;
        }
    }
    total
}

/// Compute the quality together with its per-x-tuple decomposition
/// `g(l, D)`, the input of the cleaning problem.
pub fn quality_breakdown<R: RankAccess + ?Sized>(db: &RankedDatabase, rp: &R) -> QualityBreakdown {
    let mut per_x = vec![0.0; db.num_x_tuples()];
    for (pos, &p) in rp.top_k_probs().iter().enumerate() {
        if p > 0.0 {
            per_x[db.tuple(pos).x_index] += tuple_weight(db, pos) * p;
        }
    }
    let quality = per_x.iter().sum();
    QualityBreakdown { quality, x_tuple_contribution: per_x }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pw::quality_pw;
    use crate::pwr::quality_pwr;

    #[test]
    fn quality_breakdown_round_trips_through_json() {
        let db = udb1();
        let breakdown = quality_breakdown(&db, &rank_probabilities(&db, 2).unwrap());
        let json = serde_json::to_string(&breakdown).unwrap();
        let back: QualityBreakdown = serde_json::from_str(&json).unwrap();
        assert_eq!(back, breakdown, "via {json}");
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

    fn udb2() -> RankedDatabase {
        RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(27.0, 1.0)],
            vec![(26.0, 1.0)],
        ])
        .unwrap()
    }

    #[test]
    fn matches_paper_values_on_the_running_example() {
        assert!((quality_tp(&udb1(), 2).unwrap() - (-2.55)).abs() < 0.005);
        assert!((quality_tp(&udb2(), 2).unwrap() - (-1.85)).abs() < 0.005);
    }

    #[test]
    fn agrees_with_pw_and_pwr_on_udb1_for_all_k() {
        let db = udb1();
        for k in 1..=6 {
            let tp = quality_tp(&db, k).unwrap();
            let pw = quality_pw(&db, k).unwrap();
            let pwr = quality_pwr(&db, k).unwrap();
            assert!((tp - pw).abs() < 1e-8, "k={k}: TP {tp} vs PW {pw}");
            assert!((tp - pwr).abs() < 1e-8, "k={k}: TP {tp} vs PWR {pwr}");
        }
    }

    #[test]
    fn agrees_with_pw_on_databases_with_null_mass() {
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(10.0, 0.5)],
            vec![(9.0, 0.4), (8.0, 0.2)],
            vec![(7.0, 0.9)],
            vec![(6.0, 1.0)],
        ])
        .unwrap();
        for k in 1..=4 {
            let tp = quality_tp(&db, k).unwrap();
            let pw = quality_pw(&db, k).unwrap();
            assert!((tp - pw).abs() < 1e-8, "k={k}: TP {tp} vs PW {pw}");
        }
    }

    #[test]
    fn agrees_with_pw_on_random_databases() {
        use rand::{rngs::StdRng, Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(99);
        for trial in 0..25 {
            let m = rng.gen_range(2..7);
            let mut x_tuples = Vec::new();
            for _ in 0..m {
                let alts = rng.gen_range(1..4);
                let mut remaining: f64 = 1.0;
                let mut v = Vec::new();
                for _ in 0..alts {
                    let p = remaining * rng.gen_range(0.2..0.95);
                    remaining -= p;
                    v.push((rng.gen_range(0.0..100.0), p));
                }
                x_tuples.push(v);
            }
            let db = RankedDatabase::from_scored_x_tuples(&x_tuples).unwrap();
            let k = rng.gen_range(1..5);
            let tp = quality_tp(&db, k).unwrap();
            let pw = quality_pw(&db, k).unwrap();
            assert!((tp - pw).abs() < 1e-8, "trial {trial} (k={k}): TP {tp} vs PW {pw}");
        }
    }

    #[test]
    fn certain_database_has_zero_quality_and_zero_weights() {
        let db =
            RankedDatabase::from_scored_x_tuples(&[vec![(3.0, 1.0)], vec![(2.0, 1.0)]]).unwrap();
        assert_eq!(quality_tp(&db, 2).unwrap(), 0.0);
        assert!(tuple_weights(&db).iter().all(|&w| w == 0.0));
    }

    #[test]
    fn weights_are_non_positive_for_top_ranked_alternatives() {
        // For the highest-ranked alternative of an x-tuple, E> = 0 so
        // ω = log2(e) + Y(1−e)/e ≤ 0 with equality only at e = 1.
        let db = udb1();
        let w = tuple_weights(&db);
        assert!(w[0] < 0.0); // 32 °C, e = 0.4
        assert!(w.iter().all(|&x| x <= 1e-12));
    }

    #[test]
    fn zero_probability_tuples_have_zero_weight() {
        let db = RankedDatabase::from_scored_x_tuples(&[vec![(5.0, 0.0), (4.0, 1.0)]]).unwrap();
        let w = tuple_weights(&db);
        assert_eq!(w[0], 0.0);
    }

    #[test]
    fn breakdown_sums_to_quality_and_is_non_positive() {
        let db = udb1();
        let rp = rank_probabilities(&db, 2).unwrap();
        let b = quality_breakdown(&db, &rp);
        assert_eq!(b.num_x_tuples(), 4);
        let sum: f64 = (0..4).map(|l| b.g(l)).sum();
        assert!((sum - b.quality).abs() < 1e-12);
        assert!((b.quality - quality_tp(&db, 2).unwrap()).abs() < 1e-12);
        assert!(b.x_tuple_contribution.iter().all(|&g| g <= 1e-12));
        // The certain sensor S4 still contributes ambiguity because its
        // membership in the answer is uncertain; the certain x-tuple of a
        // certain database would contribute zero (covered above).
    }
}
