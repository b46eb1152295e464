//! Brute-force oracles based on possible-world enumeration.
//!
//! These functions implement the *conceptual* query process of Figure 1(a)
//! of the paper literally: expand the database into possible worlds, run a
//! deterministic top-k query in each, and aggregate.  They are exponential
//! in the number of x-tuples and exist purely as correctness oracles for
//! the efficient algorithms (PSR, the query semantics, and the quality
//! algorithms); they refuse to run on databases above the enumeration
//! limit.

use crate::psr::RankProbabilities;
use pdb_core::world::{worlds_with_limit, DEFAULT_WORLD_LIMIT};
use pdb_core::{RankedDatabase, Result};

/// Compute exact rank-h probabilities (h = 1..k) by enumerating every
/// possible world.
pub fn rank_probabilities_by_enumeration(
    db: &RankedDatabase,
    k: usize,
) -> Result<RankProbabilities> {
    rank_probabilities_by_enumeration_with_limit(db, k, DEFAULT_WORLD_LIMIT)
}

/// Same as [`rank_probabilities_by_enumeration`] with an explicit world
/// limit.
pub fn rank_probabilities_by_enumeration_with_limit(
    db: &RankedDatabase,
    k: usize,
    limit: u128,
) -> Result<RankProbabilities> {
    if k == 0 {
        return Err(pdb_core::DbError::invalid_parameter("k must be at least 1"));
    }
    let n = db.len();
    let mut rho = vec![0.0; n * k];
    for w in worlds_with_limit(db, limit)? {
        for (rank0, &pos) in w.top_k(k).iter().enumerate() {
            rho[pos * k + rank0] += w.prob;
        }
    }
    Ok(RankProbabilities::from_rho(k, n, rho))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::psr::rank_probabilities;

    #[test]
    fn oracle_agrees_with_psr_on_udb1() {
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ])
        .unwrap();
        for k in 1..=4 {
            let oracle = rank_probabilities_by_enumeration(&db, k).unwrap();
            let fast = rank_probabilities(&db, k).unwrap();
            for pos in 0..db.len() {
                for h in 1..=k {
                    assert!((oracle.rank_prob(pos, h) - fast.rank_prob(pos, h)).abs() < 1e-10);
                }
            }
        }
    }

    #[test]
    fn oracle_validates_parameters_and_size() {
        let db =
            RankedDatabase::from_scored_x_tuples(&[vec![(1.0, 0.5)], vec![(2.0, 0.5)]]).unwrap();
        assert!(rank_probabilities_by_enumeration(&db, 0).is_err());
        assert!(rank_probabilities_by_enumeration_with_limit(&db, 1, 2).is_err());
    }
}
