//! Descriptive statistics over a ranked probabilistic database.
//!
//! These are not part of the paper's algorithms; they support the
//! experiment harness (dataset summaries printed next to every figure) and
//! sanity checks in tests.

use crate::ranked::RankedDatabase;
use serde::{Deserialize, Serialize};

/// Summary statistics of a ranked database.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatabaseStats {
    /// Number of tuples `n`.
    pub num_tuples: usize,
    /// Number of x-tuples `m`.
    pub num_x_tuples: usize,
    /// Average number of explicit alternatives per x-tuple.
    pub avg_alternatives: f64,
    /// Largest number of alternatives in any x-tuple.
    pub max_alternatives: usize,
    /// Number of x-tuples that are already certain (single alternative with
    /// probability 1).
    pub certain_x_tuples: usize,
    /// Number of x-tuples carrying null mass (total probability < 1).
    pub x_tuples_with_null: usize,
    /// Mean existential probability across all tuples.
    pub mean_prob: f64,
    /// Mean per-x-tuple entropy (in bits) of the alternative distribution,
    /// including the null alternative.  A rough measure of how ambiguous
    /// the database is before any query is asked.
    pub mean_x_tuple_entropy: f64,
    /// Minimum and maximum ranking scores.
    pub score_range: (f64, f64),
}

/// Compute summary statistics for a ranked database.
pub fn describe(db: &RankedDatabase) -> DatabaseStats {
    let n = db.len();
    let m = db.num_x_tuples();
    let mut max_alternatives = 0;
    let mut certain = 0;
    let mut with_null = 0;
    let mut entropy_sum = 0.0;
    for info in db.x_tuples() {
        max_alternatives = max_alternatives.max(info.members.len());
        if info.has_null() {
            with_null += 1;
        } else if info.members.len() == 1 {
            certain += 1;
        }
        let mut h = 0.0;
        for &pos in &info.members {
            let p = db.tuple(pos).prob;
            if p > 0.0 {
                h -= p * p.log2();
            }
        }
        let null = info.null_prob();
        if null > 0.0 {
            h -= null * null.log2();
        }
        entropy_sum += h;
    }
    let mean_prob = db.tuples().map(|t| t.prob).sum::<f64>() / n as f64;
    let mut lo = f64::INFINITY;
    let mut hi = f64::NEG_INFINITY;
    for t in db.tuples() {
        lo = lo.min(t.score);
        hi = hi.max(t.score);
    }
    DatabaseStats {
        num_tuples: n,
        num_x_tuples: m,
        avg_alternatives: n as f64 / m as f64,
        max_alternatives,
        certain_x_tuples: certain,
        x_tuples_with_null: with_null,
        mean_prob,
        mean_x_tuple_entropy: entropy_sum / m as f64,
        score_range: (lo, hi),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn describe_udb1() {
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ])
        .unwrap();
        let s = describe(&db);
        assert_eq!(s.num_tuples, 7);
        assert_eq!(s.num_x_tuples, 4);
        assert_eq!(s.max_alternatives, 2);
        assert_eq!(s.certain_x_tuples, 1);
        assert_eq!(s.x_tuples_with_null, 0);
        assert!((s.avg_alternatives - 1.75).abs() < 1e-12);
        assert!((s.mean_prob - (0.6 + 0.4 + 0.7 + 0.3 + 0.4 + 0.6 + 1.0) / 7.0).abs() < 1e-12);
        assert_eq!(s.score_range, (21.0, 32.0));
        // Entropy of S4 is 0; the three binary sensors contribute positive
        // entropy, so the mean lies strictly between 0 and 1 bit.
        assert!(s.mean_x_tuple_entropy > 0.0 && s.mean_x_tuple_entropy < 1.0);
    }

    #[test]
    fn certain_database_has_zero_entropy() {
        let db =
            RankedDatabase::from_scored_x_tuples(&[vec![(1.0, 1.0)], vec![(2.0, 1.0)]]).unwrap();
        let s = describe(&db);
        assert_eq!(s.certain_x_tuples, 2);
        assert_eq!(s.mean_x_tuple_entropy, 0.0);
    }

    #[test]
    fn null_mass_is_counted() {
        let db =
            RankedDatabase::from_scored_x_tuples(&[vec![(1.0, 0.5)], vec![(2.0, 1.0)]]).unwrap();
        let s = describe(&db);
        assert_eq!(s.x_tuples_with_null, 1);
        assert_eq!(s.certain_x_tuples, 1);
    }
}
