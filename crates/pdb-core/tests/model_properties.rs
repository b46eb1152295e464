//! Property-based tests of the data model and possible-world semantics.

use pdb_core::world::{worlds_with_limit, DEFAULT_WORLD_LIMIT};
use pdb_core::{RankedDatabase, TupleId};
use proptest::collection::vec;
use proptest::prelude::*;

/// Strategy: raw (score, weight) alternatives for one x-tuple; weights are
/// normalised to a total mass in (0, 1].
fn x_tuple() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (vec((-50.0f64..50.0, 0.05f64..1.0), 1..5), 0.1f64..1.0).prop_map(|(alts, mass)| {
        let total: f64 = alts.iter().map(|(_, w)| w).sum();
        alts.into_iter().map(|(s, w)| (s, w / total * mass)).collect()
    })
}

fn db() -> impl Strategy<Value = RankedDatabase> {
    vec(x_tuple(), 1..7).prop_map(|x| RankedDatabase::from_scored_x_tuples(&x).unwrap())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    /// Tuples are sorted by descending score with ties broken by id; the
    /// per-x-tuple member lists agree with the tuple array.
    #[test]
    fn ranked_database_is_sorted_and_consistent(db in db()) {
        for w in db.as_slice().windows(2) {
            prop_assert!(
                w[0].score > w[1].score || (w[0].score == w[1].score && w[0].id < w[1].id)
            );
        }
        let mut seen = vec![false; db.len()];
        for (l, info) in db.x_tuples().enumerate() {
            let mut mass = 0.0;
            let mut last_pos = None;
            for &pos in &info.members {
                prop_assert_eq!(db.tuple(pos).x_index, l);
                prop_assert!(!seen[pos]);
                seen[pos] = true;
                if let Some(prev) = last_pos {
                    prop_assert!(pos > prev, "members listed in rank order");
                }
                last_pos = Some(pos);
                mass += db.tuple(pos).prob;
            }
            prop_assert!((mass - info.total_mass).abs() < 1e-9);
            prop_assert!(info.total_mass <= 1.0 + 1e-6);
        }
        prop_assert!(seen.into_iter().all(|s| s), "every tuple belongs to exactly one x-tuple");
    }

    /// The precomputed within-x-tuple prefix masses match their definition.
    #[test]
    fn higher_mass_within_matches_definition(db in db()) {
        for pos in 0..db.len() {
            let t = db.tuple(pos);
            let expected: f64 = db
                .x_tuple(t.x_index)
                .members
                .iter()
                .filter(|&&p| p < pos)
                .map(|&p| db.tuple(p).prob)
                .sum();
            prop_assert!((db.higher_mass_within(pos) - expected).abs() < 1e-9);
            prop_assert!(
                (db.higher_or_equal_mass_within(pos) - (expected + t.prob)).abs() < 1e-9
            );
        }
    }

    /// Possible-world probabilities form a distribution and the world count
    /// matches the enumeration.
    #[test]
    fn possible_worlds_form_a_distribution(db in db()) {
        prop_assume!(db.world_count() <= DEFAULT_WORLD_LIMIT);
        let worlds: Vec<_> = worlds_with_limit(&db, DEFAULT_WORLD_LIMIT).unwrap().collect();
        prop_assert_eq!(worlds.len() as u128, db.world_count());
        let total: f64 = worlds.iter().map(|w| w.prob).sum();
        prop_assert!((total - 1.0).abs() < 1e-9);
        for w in &worlds {
            prop_assert!(w.prob >= 0.0);
            // Exactly one (possibly null) choice per x-tuple.
            prop_assert_eq!(w.chosen.len(), db.num_x_tuples());
            // Existing tuples are distinct and sorted by rank.
            let e = w.existing_positions();
            for pair in e.windows(2) {
                prop_assert!(pair[0] < pair[1]);
            }
        }
    }

    /// A tuple's marginal existence probability (summed over worlds) equals
    /// its existential probability.
    #[test]
    fn world_marginals_match_existential_probabilities(db in db()) {
        prop_assume!(db.world_count() <= 1 << 12);
        let worlds: Vec<_> = worlds_with_limit(&db, 1 << 12).unwrap().collect();
        for pos in 0..db.len() {
            let marginal: f64 = worlds.iter().filter(|w| w.contains(pos)).map(|w| w.prob).sum();
            prop_assert!((marginal - db.tuple(pos).prob).abs() < 1e-9);
        }
    }

    /// Collapsing any x-tuple to any of its members keeps the database
    /// valid, makes that entity certain, and never increases the number of
    /// worlds.
    #[test]
    fn collapse_is_well_behaved(db in db(), idx in any::<prop::sample::Index>()) {
        let l = idx.index(db.num_x_tuples());
        let members = db.x_tuple(l).members.clone();
        let keep = members[idx.index(members.len())];
        let mut cleaned = db.clone();
        cleaned.collapse_x_tuple_in_place(l, keep).unwrap();
        prop_assert_eq!(cleaned.num_x_tuples(), db.num_x_tuples());
        prop_assert!(cleaned.world_count() <= db.world_count());
        let info = cleaned.x_tuple(l);
        prop_assert_eq!(info.members.len(), 1);
        prop_assert!((cleaned.tuple(info.members[0]).prob - 1.0).abs() < 1e-9);
        prop_assert_eq!(cleaned.tuple(info.members[0]).id, db.tuple(keep).id);
        // Other x-tuples are untouched (same ids and probabilities).
        for (other, orig) in cleaned.x_tuples().zip(db.x_tuples()) {
            if std::ptr::eq(other, info) {
                continue;
            }
            prop_assert_eq!(other.members.len(), orig.members.len());
        }
    }

    /// Round-tripping through `from_entries` preserves the database.
    #[test]
    fn from_entries_round_trip(db in db()) {
        let entries: Vec<(TupleId, usize, f64, f64)> =
            db.tuples().map(|t| (t.id, t.x_index, t.score, t.prob)).collect();
        let keys = db.x_tuples().map(|x| x.key.clone()).collect();
        let rebuilt = RankedDatabase::from_entries(entries, keys).unwrap();
        prop_assert_eq!(rebuilt, db);
    }
}
