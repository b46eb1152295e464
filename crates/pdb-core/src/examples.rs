//! The running examples of the paper: `udb1` (Table I) and `udb2`
//! (Table II).
//!
//! `udb1` stores the current temperature of four sensors S1–S4; `udb2` is
//! the database obtained from `udb1` after a successful `pclean(S3)` whose
//! outcome is the 27 °C reading (tuple `t5`).  These small databases are used
//! throughout the paper (and throughout this workspace's tests) to
//! illustrate pw-results, PWS-quality (−2.55 vs −1.85 for a PT-2 query) and
//! the benefit of cleaning.

use crate::database::{Database, DatabaseBuilder};

/// Table I of the paper: database `udb1`.
///
/// | Sensor | Tuple | Temp (°C) | Prob |
/// |--------|-------|-----------|------|
/// | S1     | t0    | 21        | 0.6  |
/// | S1     | t1    | 32        | 0.4  |
/// | S2     | t2    | 30        | 0.7  |
/// | S2     | t3    | 22        | 0.3  |
/// | S3     | t4    | 25        | 0.4  |
/// | S3     | t5    | 27        | 0.6  |
/// | S4     | t6    | 26        | 1.0  |
pub fn udb1() -> Database<f64> {
    let mut b = DatabaseBuilder::new();
    b.x_tuple("S1").tuple(21.0, 0.6).tuple(32.0, 0.4);
    b.x_tuple("S2").tuple(30.0, 0.7).tuple(22.0, 0.3);
    b.x_tuple("S3").tuple(25.0, 0.4).tuple(27.0, 0.6);
    b.x_tuple("S4").tuple(26.0, 1.0);
    // pdb-analyze: allow(panic-path): static paper dataset; the literals above are valid by construction
    b.build().expect("udb1 is a valid database")
}

/// Table II of the paper: database `udb2`, i.e. `udb1` after sensor S3 has
/// been successfully cleaned and reported 27 °C.
pub fn udb2() -> Database<f64> {
    let mut b = DatabaseBuilder::new();
    b.x_tuple("S1").tuple(21.0, 0.6).tuple(32.0, 0.4);
    b.x_tuple("S2").tuple(30.0, 0.7).tuple(22.0, 0.3);
    b.x_tuple("S3").tuple(27.0, 1.0);
    b.x_tuple("S4").tuple(26.0, 1.0);
    // pdb-analyze: allow(panic-path): static paper dataset; the literals above are valid by construction
    b.build().expect("udb2 is a valid database")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ranking::ScoreRanking;
    use crate::world;

    #[test]
    fn udb1_matches_table_one() {
        let db = udb1();
        assert_eq!(db.num_x_tuples(), 4);
        assert_eq!(db.num_tuples(), 7);
        let probs: Vec<f64> = db.tuples().map(|t| t.prob).collect();
        assert_eq!(probs, vec![0.6, 0.4, 0.7, 0.3, 0.4, 0.6, 1.0]);
    }

    #[test]
    fn udb2_matches_table_two() {
        let db = udb2();
        assert_eq!(db.num_x_tuples(), 4);
        assert_eq!(db.num_tuples(), 6);
        assert!(db.x_tuple(2).unwrap().is_certain());
    }

    #[test]
    fn udb2_is_udb1_with_s3_collapsed() {
        let r1 = udb1().rank_by(&ScoreRanking);
        let pos_27 = r1.tuples().position(|t| t.score == 27.0).unwrap();
        let mut cleaned = r1.clone();
        cleaned.collapse_x_tuple_in_place(2, pos_27).unwrap();
        let r2 = udb2().rank_by(&ScoreRanking);
        let scores1: Vec<(f64, f64)> = cleaned.tuples().map(|t| (t.score, t.prob)).collect();
        let scores2: Vec<(f64, f64)> = r2.tuples().map(|t| (t.score, t.prob)).collect();
        assert_eq!(scores1, scores2);
    }

    #[test]
    fn world_counts_match_paper() {
        // udb1 has 2*2*2*1 = 8 possible worlds; udb2 has 4.
        assert_eq!(udb1().rank_by(&ScoreRanking).world_count(), 8);
        assert_eq!(udb2().rank_by(&ScoreRanking).world_count(), 4);
        let total: f64 =
            world::worlds(&udb1().rank_by(&ScoreRanking)).unwrap().map(|w| w.prob).sum();
        assert!((total - 1.0).abs() < 1e-12);
    }
}
