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

/// `db` rebuilt from scratch by `from_entries` over its own tuples (in
/// rank order) and x-tuple keys.
fn rebuilt(db: &RankedDatabase) -> RankedDatabase {
    let entries = db.tuples().map(|t| (t.id, t.x_index, t.score, t.prob)).collect();
    let keys = db.x_tuples().map(|x| x.key.clone()).collect();
    RankedDatabase::from_entries(entries, keys).unwrap()
}

/// `patched` equals `from_entries` over its own tuples and keys, with
/// every score, probability and mass compared by its bits.
fn assert_matches_rebuild(patched: &RankedDatabase) -> Result<(), TestCaseError> {
    let fresh = rebuilt(patched);
    prop_assert_eq!(patched, &fresh);
    for (pos, (a, b)) in patched.tuples().zip(fresh.tuples()).enumerate() {
        prop_assert_eq!((a.id, a.x_index), (b.id, b.x_index), "position {}", pos);
        prop_assert_eq!(a.score.to_bits(), b.score.to_bits(), "position {}", pos);
        prop_assert_eq!(a.prob.to_bits(), b.prob.to_bits(), "position {}", pos);
        prop_assert_eq!(
            patched.higher_mass_within(pos).to_bits(),
            fresh.higher_mass_within(pos).to_bits(),
            "higher_mass_within at position {}",
            pos
        );
    }
    for (l, (a, b)) in patched.x_tuples().zip(fresh.x_tuples()).enumerate() {
        prop_assert_eq!(&a.key, &b.key);
        prop_assert_eq!(&a.members, &b.members, "members of x-tuple {}", l);
        prop_assert_eq!(a.total_mass.to_bits(), b.total_mass.to_bits(), "total_mass of {}", l);
    }
    Ok(())
}

/// Integer scores from a narrow band, so that ties are common.
fn tied_x_tuple() -> impl Strategy<Value = Vec<(f64, f64)>> {
    (vec((0u8..8, 0.05f64..1.0), 1..5), 0.3f64..1.0).prop_map(|(alts, mass)| {
        let total: f64 = alts.iter().map(|(_, w)| w).sum();
        alts.into_iter().map(|(s, w)| (f64::from(s), w / total * mass)).collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Every in-place mutator patches the tuple order, the member lists
    /// and the within-x-tuple masses to exactly what `from_entries`
    /// builds from the mutated tuples, across random chains of all five
    /// mutators over tied scores, null mass and single-alternative
    /// x-tuples; a rejected mutation leaves the database unchanged.
    #[test]
    fn in_place_mutators_match_a_rebuild(
        x in vec(tied_x_tuple(), 1..7),
        steps in vec((0usize..5, any::<usize>(), any::<usize>(), 0.05f64..1.0, tied_x_tuple()), 1..16),
    ) {
        let mut db = RankedDatabase::from_scored_x_tuples(&x).unwrap();
        for (i, (kind, a, b, mass, arrival)) in steps.into_iter().enumerate() {
            let before = db.clone();
            let m = db.num_x_tuples();
            let l = a % m;
            let members = db.x_tuple(l).members.clone();
            let result = match kind {
                0 => db.collapse_x_tuple_in_place(l, members[b % members.len()]),
                1 => db.collapse_x_tuple_to_null_in_place(l),
                2 => {
                    let weights: Vec<f64> = (0..members.len()).map(|j| ((b >> j) % 7 + 1) as f64).collect();
                    let total: f64 = weights.iter().sum();
                    let probs: Vec<f64> = weights.iter().map(|w| w / total * mass).collect();
                    db.reweight_x_tuple_in_place(l, &probs)
                }
                3 => {
                    // Arrivals tie existing scores, and some land above the
                    // first tuple or below the last.
                    let (top, bottom) = (db.tuple(0).score, db.tuple(db.len() - 1).score);
                    let mut alternatives = arrival;
                    match b % 3 {
                        0 => alternatives[0].0 = top + 1.0,
                        1 => alternatives[0].0 = bottom - 1.0,
                        _ => {}
                    }
                    db.insert_x_tuple_in_place(format!("arrival{i}"), &alternatives).map(|new| {
                        assert_eq!(new, m);
                    })
                }
                _ => {
                    // Every other removal takes the x-tuple holding the
                    // largest id, so the next arrival reuses its ids.
                    let l = if b % 2 == 0 {
                        db.tuples().max_by_key(|t| t.id).unwrap().x_index
                    } else {
                        l
                    };
                    db.remove_x_tuple_in_place(l)
                }
            };
            if result.is_err() {
                prop_assert_eq!(&db, &before, "step {} (kind {}) failed but changed the database", i, kind);
            }
            assert_matches_rebuild(&db)?;
        }
    }
}
