//! The rank-sorted physical representation of a probabilistic database.
//!
//! Every algorithm in this workspace (PSR, the quality algorithms PW / PWR /
//! TP, and the cleaning algorithms) assumes that "tuples in `D` are arranged
//! in descending order of ranks" (Section IV of the paper).
//! [`RankedDatabase`] is that arrangement: tuples are flattened out of their
//! x-tuples, scored by a ranking function, and sorted so that position 0
//! holds the highest-ranked tuple.

use crate::error::{DbError, Result};
use crate::tuple::TupleId;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// One tuple of a [`RankedDatabase`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct RankedTuple {
    /// Original tuple identifier (stable across ranking).
    pub id: TupleId,
    /// Index of the x-tuple this tuple belongs to (`0..m`).
    pub x_index: usize,
    /// Ranking score; higher scores appear earlier in the database.
    pub score: f64,
    /// Existential probability `eᵢ`.
    pub prob: f64,
}

/// The rank order of [`RankedDatabase`]: descending score, ties broken
/// by ascending tuple id.  `Less` means `a` ranks above `b`.
fn rank_order(a: &RankedTuple, b: &RankedTuple) -> Ordering {
    b.score.total_cmp(&a.score).then_with(|| a.id.cmp(&b.id))
}

/// Per-x-tuple metadata kept alongside the sorted tuple array.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct XTupleInfo {
    /// Human-readable key of the entity.
    pub key: String,
    /// Positions (indices into the sorted tuple array) of this x-tuple's
    /// alternatives, in descending rank order.
    pub members: Vec<usize>,
    /// Total existential mass of the explicit alternatives.
    pub total_mass: f64,
}

impl XTupleInfo {
    /// Probability of the implicit null alternative.
    pub fn null_prob(&self) -> f64 {
        (1.0 - self.total_mass).max(0.0)
    }

    /// Whether the implicit null alternative exists: null mass above
    /// [`PROB_EPSILON`](crate::PROB_EPSILON).  A smaller gap is rounding
    /// residue of a complete x-tuple (`0.3 + 0.3 + 0.3 + 0.1 < 1` in f64).
    pub fn has_null(&self) -> bool {
        self.null_prob() > crate::PROB_EPSILON
    }
}

/// A probabilistic database flattened and sorted by descending rank.
///
/// Positions (`usize` indices into [`RankedDatabase::tuples`]) double as
/// ranks: position 0 is the globally highest-ranked tuple.  Ties in score
/// are broken by the original tuple id (smaller id ranks higher), which
/// makes the order — and therefore every downstream computation —
/// deterministic.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RankedDatabase {
    tuples: Vec<RankedTuple>,
    x_tuples: Vec<XTupleInfo>,
    /// For each tuple position, the existential mass of *strictly
    /// higher-ranked* tuples within the same x-tuple.  This is the quantity
    /// `Σ_{tᵢ' ∈ τ_l ∧ tᵢ' > tᵢ} eᵢ'` that appears in Lemma 1 and in the
    /// weight ωᵢ of Theorem 1; precomputing it keeps those algorithms
    /// O(1)-per-tuple.
    higher_mass_within: Vec<f64>,
}

impl RankedDatabase {
    /// Build a ranked database from `(tuple id, x-tuple index, score, prob)`
    /// entries plus the per-x-tuple keys.
    ///
    /// Entries may be given in any order; they are sorted by descending
    /// score with ties broken by tuple id.
    pub fn from_entries(
        entries: Vec<(TupleId, usize, f64, f64)>,
        x_keys: Vec<String>,
    ) -> Result<Self> {
        if entries.is_empty() || x_keys.is_empty() {
            return Err(DbError::EmptyDatabase);
        }
        for &(id, x_index, score, prob) in &entries {
            if !score.is_finite() {
                return Err(DbError::NonFiniteScore { tuple_index: id.0 });
            }
            if !prob.is_finite() || !(0.0..=1.0 + crate::PROB_EPSILON).contains(&prob) {
                return Err(DbError::InvalidProbability {
                    prob,
                    context: format!("x-tuple #{x_index}, tuple {id}"),
                });
            }
            if x_index >= x_keys.len() {
                return Err(DbError::index_out_of_range(format!(
                    "tuple {id} references x-tuple {x_index} but only {} keys were supplied",
                    x_keys.len()
                )));
            }
        }
        let mut tuples: Vec<RankedTuple> = entries
            .into_iter()
            .map(|(id, x_index, score, prob)| RankedTuple { id, x_index, score, prob })
            .collect();
        tuples.sort_by(rank_order);

        let mut x_tuples: Vec<XTupleInfo> = x_keys
            .into_iter()
            .map(|key| XTupleInfo { key, members: Vec::new(), total_mass: 0.0 })
            .collect();
        let mut higher_mass_within = vec![0.0; tuples.len()];
        for (pos, t) in tuples.iter().enumerate() {
            let info = &mut x_tuples[t.x_index];
            higher_mass_within[pos] = info.total_mass;
            info.members.push(pos);
            info.total_mass += t.prob;
        }
        for (l, info) in x_tuples.iter().enumerate() {
            if info.total_mass > 1.0 + 1e-6 {
                return Err(DbError::XTupleMassExceedsOne {
                    x_tuple: info.key.clone(),
                    total: info.total_mass,
                });
            }
            if info.members.is_empty() {
                return Err(DbError::EmptyXTuple { x_tuple: format!("#{l} ({})", info.key) });
            }
        }
        Ok(Self { tuples, x_tuples, higher_mass_within })
    }

    /// Build a ranked database directly from per-x-tuple `(score, prob)`
    /// alternative lists.  Convenient for tests and generators.
    pub fn from_scored_x_tuples(x_tuples: &[Vec<(f64, f64)>]) -> Result<Self> {
        let mut entries = Vec::new();
        let mut keys = Vec::with_capacity(x_tuples.len());
        let mut next_id = 0;
        for (l, alts) in x_tuples.iter().enumerate() {
            keys.push(format!("x{l}"));
            for &(score, prob) in alts {
                entries.push((TupleId(next_id), l, score, prob));
                next_id += 1;
            }
        }
        Self::from_entries(entries, keys)
    }

    /// Number of tuples, `n` in the paper.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// Whether the database holds no tuples (never true for a successfully
    /// constructed database).
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Number of x-tuples, `m` in the paper.
    pub fn num_x_tuples(&self) -> usize {
        self.x_tuples.len()
    }

    /// The tuple at the given rank position (0 = highest rank).
    ///
    /// # Panics
    ///
    /// Panics if `pos >= self.len()`.
    pub fn tuple(&self, pos: usize) -> &RankedTuple {
        &self.tuples[pos]
    }

    /// Iterate over tuples in descending rank order.
    pub fn tuples(&self) -> std::slice::Iter<'_, RankedTuple> {
        self.tuples.iter()
    }

    /// All tuples as a slice, in descending rank order.
    pub fn as_slice(&self) -> &[RankedTuple] {
        &self.tuples
    }

    /// Metadata of the x-tuple with the given index.
    ///
    /// # Panics
    ///
    /// Panics if `x_index >= self.num_x_tuples()`.
    pub fn x_tuple(&self, x_index: usize) -> &XTupleInfo {
        &self.x_tuples[x_index]
    }

    /// Iterate over the x-tuple metadata.
    pub fn x_tuples(&self) -> std::slice::Iter<'_, XTupleInfo> {
        self.x_tuples.iter()
    }

    /// Existential mass of tuples in the *same x-tuple* as the tuple at
    /// `pos` that are ranked strictly higher than it:
    /// `Σ_{tᵢ' ∈ τ_l, tᵢ' > tᵢ} eᵢ'`.
    pub fn higher_mass_within(&self, pos: usize) -> f64 {
        self.higher_mass_within[pos]
    }

    /// Existential mass of tuples in the same x-tuple ranked higher than
    /// *or equal to* the tuple at `pos` (i.e. including the tuple itself):
    /// `Σ_{tᵢ' ∈ τ_l, tᵢ' ≥ tᵢ} eᵢ'`.
    pub fn higher_or_equal_mass_within(&self, pos: usize) -> f64 {
        self.higher_mass_within[pos] + self.tuples[pos].prob
    }

    /// Number of possible worlds of this database, saturating at
    /// `u128::MAX`.  An x-tuple with total mass < 1 contributes an extra
    /// (null) alternative.
    pub fn world_count(&self) -> u128 {
        let mut count: u128 = 1;
        for info in &self.x_tuples {
            let alts = info.members.len() as u128 + u128::from(info.has_null());
            count = count.saturating_mul(alts.max(1));
        }
        count
    }

    /// Fold x-tuple `l`'s within-x-tuple masses in member (rank) order,
    /// exactly as [`from_entries`](Self::from_entries) folds them: each
    /// member's `higher_mass_within` is the running sum above it, and
    /// `total_mass` the sum of all.  O(alternatives).
    fn fold_masses(&mut self, l: usize) {
        let Self { tuples, x_tuples, higher_mass_within } = self;
        let info = &mut x_tuples[l];
        let mut mass = 0.0;
        for &pos in &info.members {
            higher_mass_within[pos] = mass;
            mass += tuples[pos].prob;
        }
        info.total_mass = mass;
    }

    /// Drop the rows at the ascending positions `gone` (alternatives of
    /// one x-tuple, already out of every member list): the tuple column
    /// and the mass column are compacted in one `copy_within` pass, and
    /// every member position below the first dropped row moves up by the
    /// number of rows dropped above it.  The surviving tuples keep their
    /// order and their masses, so no re-sort and no refold is needed.
    fn drop_rows(&mut self, gone: &[usize]) {
        let Some(&first) = gone.first() else {
            return;
        };
        let Self { tuples, x_tuples, higher_mass_within } = self;
        let n = tuples.len();
        let mut write = first;
        for (j, &pos) in gone.iter().enumerate() {
            let next = gone.get(j + 1).copied().unwrap_or(n);
            tuples.copy_within(pos + 1..next, write);
            higher_mass_within.copy_within(pos + 1..next, write);
            write += next - pos - 1;
        }
        tuples.truncate(write);
        higher_mass_within.truncate(write);
        for info in x_tuples.iter_mut() {
            for pos in info.members.iter_mut().rev() {
                if *pos < first {
                    break;
                }
                *pos -= gone.partition_point(|&g| g < *pos);
            }
        }
    }

    /// Apply a *successful* `pclean(τ_l)` whose outcome is the
    /// alternative at rank position `keep_pos` (Definition 5 of the
    /// paper): every other alternative of x-tuple `l` is removed and the
    /// kept alternative becomes certain (probability 1).
    ///
    /// Surviving tuples keep their relative order: the dropped
    /// alternatives are compacted out of the tuple and mass columns in
    /// one `copy_within` pass, and the other x-tuples' member positions
    /// below the first of them move up by the rows dropped above them —
    /// no re-sort, no refold, no key cloning.  Only the rows from the
    /// first dropped alternative down move: O(m + n − first).
    /// Returns an error if `keep_pos` does not belong to x-tuple `l`; on
    /// error the database is unchanged.  A caller that still needs the
    /// uncleaned database cleans a clone.
    pub fn collapse_x_tuple_in_place(&mut self, l: usize, keep_pos: usize) -> Result<()> {
        if l >= self.x_tuples.len() {
            return Err(DbError::index_out_of_range(format!(
                "x-tuple {l} of {}",
                self.x_tuples.len()
            )));
        }
        if self.tuples.get(keep_pos).map(|t| t.x_index) != Some(l) {
            return Err(DbError::index_out_of_range(format!(
                "tuple position {keep_pos} is not an alternative of x-tuple {l}"
            )));
        }
        self.tuples[keep_pos].prob = 1.0;
        let mut gone = std::mem::replace(&mut self.x_tuples[l].members, vec![keep_pos]);
        gone.retain(|&pos| pos != keep_pos);
        self.fold_masses(l);
        self.drop_rows(&gone);
        Ok(())
    }

    /// Give x-tuple `l`'s alternatives new existential probabilities;
    /// they keep their scores (and therefore their rank positions).
    /// `probs[i]` applies to the alternative at
    /// `self.x_tuple(l).members[i]`, i.e. probabilities are given in the
    /// x-tuple's rank order.
    ///
    /// This is the "probability reweighting" mutation of the incremental
    /// re-evaluation engine: a partial cleaning observation (or an updated
    /// sensor model) that sharpens an entity's distribution without
    /// collapsing it.  The usual construction invariants are validated
    /// before anything is touched: every probability must lie in `[0, 1]`
    /// and the x-tuple's total mass must not exceed 1.  On error the
    /// database is unchanged.  No tuple moves and no other x-tuple's
    /// masses change, so only `l`'s masses are refolded: O(alternatives).
    pub fn reweight_x_tuple_in_place(&mut self, l: usize, probs: &[f64]) -> Result<()> {
        if l >= self.x_tuples.len() {
            return Err(DbError::index_out_of_range(format!(
                "x-tuple {l} of {}",
                self.x_tuples.len()
            )));
        }
        let info = &self.x_tuples[l];
        if probs.len() != info.members.len() {
            return Err(DbError::invalid_parameter(format!(
                "x-tuple {l} has {} alternatives but {} probabilities were supplied",
                info.members.len(),
                probs.len()
            )));
        }
        let mut total = 0.0;
        for &p in probs {
            if !p.is_finite() || !(0.0..=1.0 + crate::PROB_EPSILON).contains(&p) {
                return Err(DbError::InvalidProbability {
                    prob: p,
                    context: format!("x-tuple #{l} ({})", info.key),
                });
            }
            total += p;
        }
        if total > 1.0 + 1e-6 {
            return Err(DbError::XTupleMassExceedsOne { x_tuple: info.key.clone(), total });
        }
        for (&pos, &p) in self.x_tuples[l].members.iter().zip(probs) {
            self.tuples[pos].prob = p;
        }
        self.fold_masses(l);
        Ok(())
    }

    /// Apply a successful `pclean(τ_l)` whose outcome is x-tuple `l`'s
    /// implicit *null* alternative (Definition 5 of the paper; the entity
    /// turns out to have no reading).  All explicit alternatives of `l`
    /// are removed; because a certain null tuple ranks below everything
    /// and never enters a top-k answer, the x-tuple is dropped from the
    /// physical representation, exactly as
    /// [`remove_x_tuple_in_place`](Self::remove_x_tuple_in_place) drops
    /// it.  On error the database is unchanged.
    pub fn collapse_x_tuple_to_null_in_place(&mut self, l: usize) -> Result<()> {
        if l >= self.x_tuples.len() {
            return Err(DbError::index_out_of_range(format!(
                "x-tuple {l} of {}",
                self.x_tuples.len()
            )));
        }
        if !self.x_tuples[l].has_null() {
            return Err(DbError::invalid_parameter(format!(
                "x-tuple {l} has no null alternative to collapse to"
            )));
        }
        self.remove_x_tuple_in_place(l)
    }

    /// Insert a brand-new x-tuple built from `(score, prob)` alternatives
    /// (the streaming-arrival mutation), returning its x-index, which is
    /// always `self.num_x_tuples()` before the call — inserts append to
    /// the x-tuple table, so existing x-indices stay stable.
    ///
    /// The new alternatives receive fresh [`TupleId`]s larger than every
    /// id already in the database (allocated in the order given), which
    /// keeps the rank order deterministic: a new tuple that ties an
    /// existing score ranks *below* it, exactly as
    /// [`from_entries`](Self::from_entries) would place it.  The usual
    /// construction invariants are validated up front (finite scores,
    /// probabilities in `[0, 1]`, total mass ≤ 1, at least one
    /// alternative); on error the database is unchanged.
    ///
    /// The existing tuples never change order, so nothing is re-sorted:
    /// the arrivals are sorted by the rank order among themselves, each
    /// finds its slot by binary search, and one back-to-front pass
    /// splices them into the tuple and mass columns, moving only the rows
    /// below the first slot.  The other x-tuples' member positions below
    /// it move down by the arrivals above them, and only the new
    /// x-tuple's masses are folded.  Allocating the fresh ids reads every
    /// id once.
    pub fn insert_x_tuple_in_place(
        &mut self,
        key: String,
        alternatives: &[(f64, f64)],
    ) -> Result<usize> {
        let l = self.x_tuples.len();
        if alternatives.is_empty() {
            return Err(DbError::EmptyXTuple { x_tuple: format!("#{l} ({key})") });
        }
        let next_id = self.tuples.iter().map(|t| t.id.0 + 1).max().unwrap_or(0);
        let mut total = 0.0;
        for (i, &(score, prob)) in alternatives.iter().enumerate() {
            if !score.is_finite() {
                return Err(DbError::NonFiniteScore { tuple_index: next_id + i });
            }
            if !prob.is_finite() || !(0.0..=1.0 + crate::PROB_EPSILON).contains(&prob) {
                return Err(DbError::InvalidProbability {
                    prob,
                    context: format!("x-tuple #{l} ({key})"),
                });
            }
            total += prob;
        }
        if total > 1.0 + 1e-6 {
            return Err(DbError::XTupleMassExceedsOne { x_tuple: key, total });
        }
        let mut arrivals: Vec<RankedTuple> = alternatives
            .iter()
            .enumerate()
            .map(|(i, &(score, prob))| RankedTuple {
                id: TupleId(next_id + i),
                x_index: l,
                score,
                prob,
            })
            .collect();
        arrivals.sort_by(rank_order);
        // Arrival `j` lands below `slots[j]` existing tuples and `j`
        // earlier arrivals.  Its id is fresh, so it ranks below every
        // existing tuple of equal score.
        let slots: Vec<usize> = arrivals
            .iter()
            .map(|a| self.tuples.partition_point(|t| rank_order(t, a) == Ordering::Less))
            .collect();
        let Self { tuples, x_tuples, higher_mass_within } = self;
        let n = tuples.len();
        tuples.resize(n + arrivals.len(), arrivals[0]);
        higher_mass_within.resize(n + arrivals.len(), 0.0);
        let mut end = n;
        for (j, (&slot, arrival)) in slots.iter().zip(&arrivals).enumerate().rev() {
            tuples.copy_within(slot..end, slot + j + 1);
            higher_mass_within.copy_within(slot..end, slot + j + 1);
            tuples[slot + j] = *arrival;
            end = slot;
        }
        for info in x_tuples.iter_mut() {
            for pos in info.members.iter_mut().rev() {
                if *pos < slots[0] {
                    break;
                }
                *pos += slots.partition_point(|&slot| slot <= *pos);
            }
        }
        let members = slots.iter().enumerate().map(|(j, &slot)| slot + j).collect();
        x_tuples.push(XTupleInfo { key, members, total_mass: 0.0 });
        self.fold_masses(l);
        Ok(l)
    }

    /// Remove x-tuple `l` and every one of its alternatives (the
    /// streaming-departure mutation), regardless of null mass — unlike
    /// [`collapse_x_tuple_to_null_in_place`](Self::collapse_x_tuple_to_null_in_place),
    /// which models an *observation* and therefore requires the null
    /// alternative to have been possible.  Later x-tuples are re-indexed
    /// densely (index `l+1` becomes `l`, and so on).  The alternatives
    /// are compacted out of the tuple and mass columns in one
    /// `copy_within` pass and the other member positions below the first
    /// of them move up, as for a collapse; no re-sort, no refold.  The
    /// re-indexing reads every tuple's x-index once.  Removing the last
    /// x-tuple is an error (a [`RankedDatabase`] is never empty); on error
    /// the database is unchanged.
    pub fn remove_x_tuple_in_place(&mut self, l: usize) -> Result<()> {
        if l >= self.x_tuples.len() {
            return Err(DbError::index_out_of_range(format!(
                "x-tuple {l} of {}",
                self.x_tuples.len()
            )));
        }
        if self.x_tuples[l].members.len() == self.tuples.len() {
            return Err(DbError::EmptyDatabase);
        }
        let gone = self.x_tuples.remove(l).members;
        self.drop_rows(&gone);
        for t in &mut self.tuples {
            if t.x_index > l {
                t.x_index -= 1;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// udb1 of Table I, expressed directly as scored x-tuples.
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
    fn tuples_are_sorted_descending() {
        let db = udb1();
        let scores: Vec<f64> = db.tuples().map(|t| t.score).collect();
        assert_eq!(scores, vec![32.0, 30.0, 27.0, 26.0, 25.0, 22.0, 21.0]);
        assert_eq!(db.len(), 7);
        assert_eq!(db.num_x_tuples(), 4);
        assert!(!db.is_empty());
    }

    #[test]
    fn ties_break_by_tuple_id() {
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(10.0, 0.5)],
            vec![(10.0, 0.5)],
            vec![(10.0, 1.0)],
        ])
        .unwrap();
        let ids: Vec<usize> = db.tuples().map(|t| t.id.0).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn members_are_listed_in_rank_order() {
        let db = udb1();
        // x-tuple 0 = {21 (pos 6), 32 (pos 0)} -> members sorted by rank.
        assert_eq!(db.x_tuple(0).members, vec![0, 6]);
        assert_eq!(db.x_tuple(2).members, vec![2, 4]);
        assert!((db.x_tuple(0).total_mass - 1.0).abs() < 1e-12);
        assert_eq!(db.x_tuples().count(), 4);
    }

    #[test]
    fn higher_mass_within_matches_definition() {
        let db = udb1();
        // Position 4 is the 25-degree tuple of sensor S3; its higher-ranked
        // sibling (27 degrees, prob 0.6) contributes 0.6.
        assert!((db.higher_mass_within(4) - 0.6).abs() < 1e-12);
        assert!((db.higher_or_equal_mass_within(4) - 1.0).abs() < 1e-12);
        // Position 0 (32 degrees) has no higher-ranked sibling.
        assert_eq!(db.higher_mass_within(0), 0.0);
    }

    #[test]
    fn world_count_multiplies_alternative_counts() {
        let db = udb1();
        // 2 * 2 * 2 * 1 = 8 (all x-tuples have full mass, no null).
        assert_eq!(db.world_count(), 8);

        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(10.0, 0.5)],            // + null
            vec![(9.0, 0.4), (8.0, 0.6)], // no null
        ])
        .unwrap();
        assert_eq!(db.world_count(), 4);
    }

    #[test]
    fn collapse_x_tuple_makes_entity_certain() {
        let db = udb1();
        // Clean sensor S3 (x-index 2) to its 27-degree reading (position 2),
        // reproducing the udb1 -> udb2 transition of the paper.
        let mut cleaned = db.clone();
        cleaned.collapse_x_tuple_in_place(2, 2).unwrap();
        assert_eq!(cleaned.len(), 6);
        assert_eq!(cleaned.num_x_tuples(), 4);
        let s3 = cleaned.x_tuple(2);
        assert_eq!(s3.members.len(), 1);
        assert!((s3.total_mass - 1.0).abs() < 1e-12);
        assert!((cleaned.tuple(s3.members[0]).prob - 1.0).abs() < 1e-12);
    }

    #[test]
    fn collapse_keeps_exactly_one_tuple_under_duplicate_ids() {
        // from_entries does not enforce TupleId uniqueness; the collapse
        // must select the revealed alternative by position, not by id.
        let db = RankedDatabase::from_entries(
            vec![(TupleId(7), 0, 10.0, 0.5), (TupleId(7), 0, 9.0, 0.5), (TupleId(1), 1, 8.0, 1.0)],
            vec!["a".into(), "b".into()],
        )
        .unwrap();
        let mut cleaned = db.clone();
        cleaned.collapse_x_tuple_in_place(0, 1).unwrap();
        assert_eq!(cleaned.x_tuple(0).members.len(), 1);
        assert_eq!(cleaned.tuple(cleaned.x_tuple(0).members[0]).score, 9.0);
        assert!((cleaned.x_tuple(0).total_mass - 1.0).abs() < 1e-12);
    }

    #[test]
    fn collapse_rejects_foreign_positions() {
        let mut db = udb1();
        assert!(db.collapse_x_tuple_in_place(2, 0).is_err());
        assert!(db.collapse_x_tuple_in_place(99, 0).is_err());
        assert_eq!(db, udb1(), "rejected collapses leave the database unchanged");
    }

    #[test]
    fn collapse_to_null_removes_the_entity() {
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(10.0, 0.5)], // null prob 0.5
            vec![(9.0, 1.0)],
        ])
        .unwrap();
        let mut cleaned = db.clone();
        cleaned.collapse_x_tuple_to_null_in_place(0).unwrap();
        assert_eq!(cleaned.num_x_tuples(), 1);
        assert_eq!(cleaned.len(), 1);
        assert_eq!(cleaned.tuple(0).score, 9.0);
        // The second x-tuple had no null mass: collapsing it is an error.
        assert!(db.clone().collapse_x_tuple_to_null_in_place(1).is_err());
    }

    #[test]
    fn reweight_x_tuple_replaces_member_probabilities() {
        let db = udb1();
        // Sharpen sensor S3 (members at positions 2 and 4) towards 27°.
        let mut updated = db.clone();
        updated.reweight_x_tuple_in_place(2, &[0.9, 0.1]).unwrap();
        assert_eq!(updated.len(), db.len());
        assert_eq!(updated.x_tuple(2).members, db.x_tuple(2).members);
        assert!((updated.tuple(2).prob - 0.9).abs() < 1e-12);
        assert!((updated.tuple(4).prob - 0.1).abs() < 1e-12);
        // Other x-tuples are untouched.
        assert_eq!(updated.tuple(0).prob, db.tuple(0).prob);

        // Mass may also be withdrawn, opening a null alternative.
        let mut partial = db.clone();
        partial.reweight_x_tuple_in_place(2, &[0.5, 0.2]).unwrap();
        assert!((partial.x_tuple(2).null_prob() - 0.3).abs() < 1e-12);
    }

    #[test]
    fn reweight_x_tuple_validates_input() {
        let mut db = udb1();
        assert!(db.reweight_x_tuple_in_place(99, &[0.5]).is_err());
        assert!(db.reweight_x_tuple_in_place(2, &[0.5]).is_err(), "arity mismatch");
        assert!(db.reweight_x_tuple_in_place(2, &[0.7, 0.7]).is_err(), "mass above 1");
        assert!(db.reweight_x_tuple_in_place(2, &[-0.1, 0.5]).is_err(), "negative probability");
        assert_eq!(db, udb1(), "rejected reweights leave the database unchanged");
    }

    #[test]
    fn insert_x_tuple_threads_new_alternatives_into_rank_order() {
        let mut db = udb1();
        let l = db.insert_x_tuple_in_place("S5".into(), &[(28.0, 0.5), (23.0, 0.5)]).unwrap();
        assert_eq!(l, 4);
        assert_eq!(db.num_x_tuples(), 5);
        assert_eq!(db.len(), 9);
        assert_eq!(db.x_tuple(4).key, "S5");
        let scores: Vec<f64> = db.tuples().map(|t| t.score).collect();
        assert_eq!(scores, vec![32.0, 30.0, 28.0, 27.0, 26.0, 25.0, 23.0, 22.0, 21.0]);
        // Fresh ids, larger than every pre-existing one, in argument order.
        let inserted = db.x_tuple(4).members.clone();
        assert_eq!(inserted, vec![2, 6]);
        assert_eq!(db.tuple(2).id.0, 7);
        assert_eq!(db.tuple(6).id.0, 8);
        // Existing x-tuples keep their indices and membership.
        assert_eq!(db.x_tuple(0).key, "x0");
        assert!((db.higher_mass_within(6) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn insert_breaks_score_ties_below_existing_tuples() {
        let mut db = RankedDatabase::from_scored_x_tuples(&[vec![(10.0, 0.5)]]).unwrap();
        db.insert_x_tuple_in_place("x1".into(), &[(10.0, 0.5)]).unwrap();
        // Same score: the older tuple (smaller id) keeps rank 0, matching
        // what from_entries would produce for the combined entry set.
        assert_eq!(db.tuple(0).id.0, 0);
        assert_eq!(db.tuple(1).id.0, 1);
        let rebuilt =
            RankedDatabase::from_scored_x_tuples(&[vec![(10.0, 0.5)], vec![(10.0, 0.5)]]).unwrap();
        assert_eq!(db, rebuilt);
    }

    #[test]
    fn insert_x_tuple_validates_input() {
        let mut db = udb1();
        let before = db.clone();
        assert!(matches!(
            db.insert_x_tuple_in_place("e".into(), &[]),
            Err(DbError::EmptyXTuple { .. })
        ));
        assert!(matches!(
            db.insert_x_tuple_in_place("e".into(), &[(f64::NAN, 0.5)]),
            Err(DbError::NonFiniteScore { .. })
        ));
        assert!(matches!(
            db.insert_x_tuple_in_place("e".into(), &[(1.0, 1.5)]),
            Err(DbError::InvalidProbability { .. })
        ));
        assert!(matches!(
            db.insert_x_tuple_in_place("e".into(), &[(1.0, 0.7), (2.0, 0.7)]),
            Err(DbError::XTupleMassExceedsOne { .. })
        ));
        assert_eq!(db, before, "failed inserts must leave the database unchanged");
    }

    #[test]
    fn remove_x_tuple_drops_the_entity_and_reindexes() {
        let db = udb1();
        // Unlike collapse-to-null, removal works even with zero null mass.
        assert!(db.x_tuple(1).null_prob() <= 1e-12);
        let mut smaller = db.clone();
        smaller.remove_x_tuple_in_place(1).unwrap();
        assert_eq!(smaller.num_x_tuples(), 3);
        assert_eq!(smaller.len(), 5);
        assert_eq!(smaller.x_tuple(1).key, "x2");
        let scores: Vec<f64> = smaller.tuples().map(|t| t.score).collect();
        assert_eq!(scores, vec![32.0, 27.0, 26.0, 25.0, 21.0]);
        assert!(smaller.tuples().all(|t| t.x_index < 3));
    }

    #[test]
    fn remove_x_tuple_rejects_out_of_range_and_last_entity() {
        let mut db = RankedDatabase::from_scored_x_tuples(&[vec![(1.0, 1.0)]]).unwrap();
        assert!(matches!(db.remove_x_tuple_in_place(1), Err(DbError::IndexOutOfRange { .. })));
        assert!(matches!(db.remove_x_tuple_in_place(0), Err(DbError::EmptyDatabase)));
    }

    #[test]
    fn remove_then_reinsert_round_trips_through_fresh_ids() {
        let db = udb1();
        let mut back = db.clone();
        back.remove_x_tuple_in_place(3).unwrap();
        let l = back.insert_x_tuple_in_place("x3".into(), &[(26.0, 1.0)]).unwrap();
        assert_eq!(l, 3);
        assert_eq!(back.num_x_tuples(), db.num_x_tuples());
        let scores: Vec<f64> = back.tuples().map(|t| t.score).collect();
        let original: Vec<f64> = db.tuples().map(|t| t.score).collect();
        assert_eq!(scores, original);
    }

    #[test]
    fn from_entries_validates_input() {
        assert!(matches!(
            RankedDatabase::from_entries(vec![], vec![]),
            Err(DbError::EmptyDatabase)
        ));
        assert!(matches!(
            RankedDatabase::from_entries(vec![(TupleId(0), 3, 1.0, 0.5)], vec!["a".into()]),
            Err(DbError::IndexOutOfRange { .. })
        ));
        assert!(matches!(
            RankedDatabase::from_entries(vec![(TupleId(0), 0, f64::NAN, 0.5)], vec!["a".into()]),
            Err(DbError::NonFiniteScore { .. })
        ));
        assert!(matches!(
            RankedDatabase::from_entries(vec![(TupleId(0), 0, 1.0, 1.5)], vec!["a".into()]),
            Err(DbError::InvalidProbability { .. })
        ));
        // An x-tuple key with no member tuples is rejected.
        assert!(matches!(
            RankedDatabase::from_entries(
                vec![(TupleId(0), 0, 1.0, 0.5)],
                vec!["a".into(), "b".into()]
            ),
            Err(DbError::EmptyXTuple { .. })
        ));
        // Over-full x-tuple.
        assert!(matches!(
            RankedDatabase::from_scored_x_tuples(&[vec![(1.0, 0.7), (2.0, 0.7)]]),
            Err(DbError::XTupleMassExceedsOne { .. })
        ));
    }

    #[test]
    fn serde_round_trip() {
        let db = udb1();
        let json = serde_json::to_string(&db).unwrap();
        let back: RankedDatabase = serde_json::from_str(&json).unwrap();
        assert_eq!(db, back);
    }
}
