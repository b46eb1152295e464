//! Possible-world semantics: enumeration and per-world top-k evaluation.
//!
//! A possible world picks exactly one alternative (possibly the implicit
//! null alternative) from every x-tuple; its probability is the product of
//! the chosen alternatives' probabilities and all world probabilities sum to
//! 1 (Section III-A).  Enumeration is exponential in the number of x-tuples
//! and is therefore only exposed for *small* databases; it serves as the
//! correctness oracle (the "PW" baseline) for every efficient algorithm in
//! this workspace.

use crate::error::{DbError, Result};
use crate::ranked::RankedDatabase;

/// Default cap on the number of worlds [`WorldIter`] will agree to
/// enumerate.  Chosen so that oracle computations stay in the millisecond
/// range; raise it explicitly via [`worlds_with_limit`] when needed.
pub const DEFAULT_WORLD_LIMIT: u128 = 1 << 22;

/// One possible world of a ranked database.
#[derive(Debug, Clone, PartialEq)]
pub struct PossibleWorld {
    /// For every x-tuple index `l`, the rank position of the chosen
    /// alternative, or `None` when the null alternative was chosen.
    pub chosen: Vec<Option<usize>>,
    /// Probability of this world (product of the chosen alternatives'
    /// existential probabilities).
    pub prob: f64,
}

impl PossibleWorld {
    /// Rank positions of the tuples that exist in this world, in descending
    /// rank order (i.e. ascending position).
    pub fn existing_positions(&self) -> Vec<usize> {
        let mut v: Vec<usize> = self.chosen.iter().filter_map(|c| *c).collect();
        v.sort_unstable();
        v
    }

    /// The deterministic top-k answer in this world: the `k` highest-ranked
    /// existing tuples (fewer if the world contains fewer than `k` non-null
    /// tuples), as rank positions in descending rank order.
    pub fn top_k(&self, k: usize) -> Vec<usize> {
        let mut v = self.existing_positions();
        v.truncate(k);
        v
    }

    /// Whether the tuple at the given rank position exists in this world.
    pub fn contains(&self, pos: usize) -> bool {
        self.chosen.contains(&Some(pos))
    }
}

/// Iterator over all possible worlds of a database (odometer enumeration).
#[derive(Debug, Clone)]
pub struct WorldIter {
    /// Per x-tuple: the list of alternatives (`None` = null) and their
    /// probabilities.
    alternatives: Vec<Vec<(Option<usize>, f64)>>,
    /// Current odometer state; `None` once exhausted.
    state: Option<Vec<usize>>,
}

impl WorldIter {
    fn new(db: &RankedDatabase) -> Self {
        let alternatives = db
            .x_tuples()
            .map(|info| {
                let mut alts: Vec<(Option<usize>, f64)> =
                    info.members.iter().map(|&pos| (Some(pos), db.tuple(pos).prob)).collect();
                if info.has_null() {
                    alts.push((None, info.null_prob()));
                }
                alts
            })
            .collect::<Vec<_>>();
        let state = Some(vec![0; alternatives.len()]);
        Self { alternatives, state }
    }
}

impl Iterator for WorldIter {
    type Item = PossibleWorld;

    fn next(&mut self) -> Option<PossibleWorld> {
        let state = self.state.as_mut()?;
        let mut chosen = Vec::with_capacity(state.len());
        let mut prob = 1.0;
        for (l, &idx) in state.iter().enumerate() {
            let (pos, p) = self.alternatives[l][idx];
            chosen.push(pos);
            prob *= p;
        }
        // Advance the odometer.
        let mut exhausted = true;
        for l in (0..state.len()).rev() {
            state[l] += 1;
            if state[l] < self.alternatives[l].len() {
                exhausted = false;
                break;
            }
            state[l] = 0;
        }
        if exhausted {
            self.state = None;
        }
        Some(PossibleWorld { chosen, prob })
    }
}

/// Enumerate all possible worlds of `db`, refusing when the world count
/// exceeds [`DEFAULT_WORLD_LIMIT`].
pub fn worlds(db: &RankedDatabase) -> Result<WorldIter> {
    worlds_with_limit(db, DEFAULT_WORLD_LIMIT)
}

/// Enumerate all possible worlds of `db`, refusing when the world count
/// exceeds `limit`.
pub fn worlds_with_limit(db: &RankedDatabase, limit: u128) -> Result<WorldIter> {
    let count = db.world_count();
    if count > limit {
        return Err(DbError::TooManyWorlds { worlds: count, limit });
    }
    Ok(WorldIter::new(db))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn udb1() -> RankedDatabase {
        RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ])
        .unwrap()
    }

    #[test]
    fn world_probabilities_sum_to_one() {
        let db = udb1();
        let total: f64 = worlds(&db).unwrap().map(|w| w.prob).sum();
        assert!((total - 1.0).abs() < 1e-12);
        assert_eq!(worlds(&db).unwrap().count(), 8);
    }

    #[test]
    fn worlds_include_null_alternatives() {
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(10.0, 0.5)], // null prob 0.5
            vec![(9.0, 1.0)],
        ])
        .unwrap();
        let ws: Vec<_> = worlds(&db).unwrap().collect();
        assert_eq!(ws.len(), 2);
        let total: f64 = ws.iter().map(|w| w.prob).sum();
        assert!((total - 1.0).abs() < 1e-12);
        // One of the worlds does not contain the uncertain tuple.
        assert!(ws.iter().any(|w| w.chosen[0].is_none()));
    }

    #[test]
    fn paper_example_world_probability() {
        // The paper: W = {t0, t3, t4, t6} exists with probability
        // 0.6 * 0.3 * 0.4 * 1 = 0.072.
        let db = udb1();
        // Identify rank positions by score.
        let pos_of = |score: f64| {
            db.tuples().position(|t| (t.score - score).abs() < 1e-9).expect("score present")
        };
        let target: Vec<usize> = {
            let mut v = vec![pos_of(21.0), pos_of(22.0), pos_of(25.0), pos_of(26.0)];
            v.sort_unstable();
            v
        };
        let w =
            worlds(&db).unwrap().find(|w| w.existing_positions() == target).expect("world exists");
        assert!((w.prob - 0.072).abs() < 1e-12);
    }

    #[test]
    fn per_world_top_k_takes_highest_ranked() {
        let db = udb1();
        let pos_25 = db.tuples().position(|t| t.score == 25.0).unwrap();
        let pos_26 = db.tuples().position(|t| t.score == 26.0).unwrap();
        let pos_21 = db.tuples().position(|t| t.score == 21.0).unwrap();
        let pos_22 = db.tuples().position(|t| t.score == 22.0).unwrap();
        // World {t0(21), t3(22), t4(25), t6(26)}: top-2 = (26, 25).
        let w = worlds(&db)
            .unwrap()
            .find(|w| {
                let e = w.existing_positions();
                e.contains(&pos_21) && e.contains(&pos_22) && e.contains(&pos_25)
            })
            .unwrap();
        assert_eq!(w.top_k(2), vec![pos_26, pos_25]);
        assert!(w.contains(pos_26));
        // Asking for more than the world holds returns everything.
        assert_eq!(w.top_k(10).len(), 4);
    }

    #[test]
    fn enumeration_limit_is_enforced() {
        let db = udb1();
        let err = worlds_with_limit(&db, 4).unwrap_err();
        assert!(matches!(err, DbError::TooManyWorlds { worlds: 8, limit: 4 }));
    }
}
