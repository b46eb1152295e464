//! Null-tuple materialisation.
//!
//! The paper's data model (Section III-A) conceptually completes every
//! x-tuple whose explicit probability mass is below 1 with a *null* tuple
//! carrying the remaining mass, ranked below every non-null tuple.  The
//! pw-result-based quality algorithms (PW and PWR) need those null tuples
//! to be explicit — a possible world with fewer than `k` real tuples pads
//! its top-k answer with nulls, and which entity's null appears is part of
//! the formal pw-result.  The TP algorithm does not need them (a null
//! tuple's weight ωᵢ is exactly zero), which this module's tests verify
//! indirectly through the PW ≡ TP cross-checks elsewhere in the crate.

use pdb_core::{RankedDatabase, Result, TupleId};

/// Outcome of materialising null tuples.
#[derive(Debug, Clone)]
pub struct AugmentedDatabase {
    /// The database with explicit null tuples appended (every x-tuple has
    /// total mass 1 up to floating point).
    pub db: RankedDatabase,
    /// For every rank position of the augmented database, the x-tuple index
    /// whose null it represents, or `None` for a real tuple.  Real tuples
    /// keep their original rank positions (nulls sort below everything).
    pub null_of: Vec<Option<usize>>,
}

/// Materialise the implicit null tuples of `db`.
///
/// Null tuples are given a score strictly below the minimum real score and
/// are ordered among themselves by x-tuple index, matching the paper's
/// requirement that the ranking function assigns a unique rank to every
/// tuple.  Real tuples keep their rank positions.
pub fn augment_with_nulls(db: &RankedDatabase) -> Result<AugmentedDatabase> {
    let n = db.len();
    let min_score = db.tuples().map(|t| t.score).fold(f64::INFINITY, f64::min);
    // A score gap below every real tuple; the exact value is irrelevant as
    // long as ordering is preserved, ties among nulls break by tuple id.
    let null_score = if min_score.is_finite() { min_score - 1.0 } else { -1.0 };

    let mut entries: Vec<(TupleId, usize, f64, f64)> =
        db.tuples().map(|t| (t.id, t.x_index, t.score, t.prob)).collect();
    let max_id = db.tuples().map(|t| t.id.0).max().unwrap_or(0);

    let mut next_id = max_id + 1;
    for (l, info) in db.x_tuples().enumerate() {
        if info.has_null() {
            entries.push((TupleId(next_id), l, null_score, info.null_prob()));
            next_id += 1;
        }
    }
    let keys = db.x_tuples().map(|x| x.key.clone()).collect();
    let augmented = RankedDatabase::from_entries(entries, keys)?;

    // Nulls sort after all real tuples (strictly smaller score), in x-tuple
    // order (increasing tuple id).
    let mut null_of = vec![None; augmented.len()];
    for (pos, slot) in null_of.iter_mut().enumerate().skip(n) {
        let t = augmented.tuple(pos);
        debug_assert!(t.id.0 > max_id, "null tuples occupy the tail positions");
        *slot = Some(t.x_index);
    }
    Ok(AugmentedDatabase { db: augmented, null_of })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn full_mass_database_is_unchanged() {
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(26.0, 1.0)],
        ])
        .unwrap();
        let aug = augment_with_nulls(&db).unwrap();
        assert_eq!(aug.db.len(), db.len());
        assert!(aug.null_of.iter().all(|x| x.is_none()));
    }

    #[test]
    fn nulls_are_appended_below_real_tuples() {
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(10.0, 0.5)],
            vec![(9.0, 0.4), (8.0, 0.2)],
            vec![(7.0, 1.0)],
        ])
        .unwrap();
        let aug = augment_with_nulls(&db).unwrap();
        // Two x-tuples are under-full, so two nulls appear.
        assert_eq!(aug.db.len(), db.len() + 2);
        // Real tuples keep their positions and scores.
        for pos in 0..db.len() {
            assert_eq!(aug.db.tuple(pos).score, db.tuple(pos).score);
            assert!(aug.null_of[pos].is_none());
        }
        // Null tuples follow, ordered by x-tuple index, with the missing mass.
        assert_eq!(aug.null_of[db.len()], Some(0));
        assert_eq!(aug.null_of[db.len() + 1], Some(1));
        assert!((aug.db.tuple(db.len()).prob - 0.5).abs() < 1e-12);
        assert!((aug.db.tuple(db.len() + 1).prob - 0.4).abs() < 1e-12);
        // Every x-tuple of the augmented database has full mass.
        for info in aug.db.x_tuples() {
            assert!((info.total_mass - 1.0).abs() < 1e-9);
        }
    }

    #[test]
    fn world_count_is_preserved() {
        // Materialising nulls does not change the set of possible worlds.
        let db =
            RankedDatabase::from_scored_x_tuples(&[vec![(10.0, 0.5)], vec![(9.0, 0.7)]]).unwrap();
        let aug = augment_with_nulls(&db).unwrap();
        assert_eq!(db.world_count(), aug.db.world_count());
    }
}
