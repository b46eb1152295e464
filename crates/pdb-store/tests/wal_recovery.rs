//! Recovery equivalence: a store-backed session replayed from its
//! write-ahead log must match the uninterrupted in-process session.
//!
//! The property suite drives randomized sessions (random inline
//! databases, half of whose x-tuples are clustered null-mass entities,
//! query sets whose `k` routinely exceeds `n`, random
//! collapse / null / reweight / insert / remove sequences) twice: once
//! directly on a [`BatchQuality`] mirror, and once as journalled records
//! — collapses as the historical `ApplyProbe` kind, streaming membership
//! changes as the newer `ApplyMutation` kind, so both record kinds replay
//! in one log — in a store that is then dropped and reopened.  The recovered evaluation must
//! agree with the mirror — answers exactly, qualities at 1e-12 — even
//! when random garbage is appended to the log first (the torn tail a
//! crash mid-append leaves behind).

use pdb_core::RankedDatabase;
use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::TopKQuery;
use pdb_quality::{BatchQuality, WeightedQuery};
use pdb_store::{DatasetSpec, RecoveredState, Store, WalRecord};
use proptest::collection::vec;
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};

const TOL: f64 = 1e-12;

/// A fresh store directory per proptest case (cases run concurrently
/// across test threads).
fn fresh_dir() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let id = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir()
        .join("pdb-store-wal-recovery")
        .join(format!("case-{}-{id}", std::process::id()));
    std::fs::remove_dir_all(&dir).ok();
    dir
}

fn build(spec: &DatasetSpec) -> pdb_core::Result<RankedDatabase> {
    match spec {
        DatasetSpec::Inline { x_tuples } => RankedDatabase::from_scored_x_tuples(x_tuples),
        other => panic!("this suite only journals inline datasets, got {other:?}"),
    }
}

/// One abstract probe step, resolved against the evolving database.
#[derive(Debug, Clone)]
struct Step {
    x_sel: usize,
    kind: u8,
    alt_sel: usize,
    weights: Vec<f64>,
}

fn step() -> impl Strategy<Value = Step> {
    (any::<usize>(), 0u8..5, any::<usize>(), vec(0.05f64..1.0, 6))
        .prop_map(|(x_sel, kind, alt_sel, weights)| Step { x_sel, kind, alt_sel, weights })
}

fn resolve(db: &RankedDatabase, s: &Step) -> Option<(usize, XTupleMutation)> {
    let m = db.num_x_tuples();
    let l = s.x_sel % m;
    let info = db.x_tuple(l);
    match s.kind {
        0 => {
            let keep_pos = info.members[s.alt_sel % info.members.len()];
            Some((l, XTupleMutation::CollapseToAlternative { keep_pos }))
        }
        1 if info.null_prob() > 1e-9 && m > 1 => Some((l, XTupleMutation::CollapseToNull)),
        1 => None,
        2 => {
            let raw: Vec<f64> = info
                .members
                .iter()
                .enumerate()
                .map(|(i, _)| s.weights[i % s.weights.len()])
                .collect();
            let total: f64 = raw.iter().sum();
            let target = 0.2 + 0.75 * s.weights[0];
            Some((
                l,
                XTupleMutation::Reweight {
                    probs: raw.iter().map(|w| w / total * target).collect(),
                },
            ))
        }
        3 => {
            // Insert: a fresh entity appended at x-index m.
            let count = 1 + s.alt_sel % 3;
            let raw: Vec<(f64, f64)> =
                (0..count).map(|i| (s.weights[i] * 100.0, s.weights[i + 3])).collect();
            let total: f64 = raw.iter().map(|&(_, p)| p).sum();
            let target = 0.2 + 0.75 * s.weights[0];
            let alternatives = raw.iter().map(|&(sc, p)| (sc, p / total * target)).collect();
            let key = format!("ins{}", s.x_sel % 89);
            Some((m, XTupleMutation::Insert { key, alternatives }))
        }
        4 if m > 1 => Some((l, XTupleMutation::Remove)),
        _ => None,
    }
}

/// Half the x-tuples spread their alternatives over scores 0–100 with any
/// total mass.  The other half mirror pdb-engine's `clustered_null_mass_db`:
/// alternatives inside one 6-point band and a total of 0.55–0.999, so no
/// factor saturates and replayed PSR runs and delta passes re-form the
/// frozen × in-flight product.
fn x_tuple() -> impl Strategy<Value = Vec<(f64, f64)>> {
    let alts = vec((0.0f64..100.0, 0.05f64..1.0), 1..4);
    (0u8..2, 0.0f64..100.0, alts, 0.1f64..1.0, 0.55f64..0.999).prop_map(
        |(clustered, centre, alts, spread_mass, clustered_mass)| {
            let (start, width, mass) = match clustered {
                0 => (0.0, 1.0, spread_mass),
                _ => (centre, 0.06, clustered_mass),
            };
            let total: f64 = alts.iter().map(|(_, w)| w).sum();
            alts.into_iter().map(|(s, w)| (start + s * width, w / total * mass)).collect()
        },
    )
}

/// A query whose `k` may exceed the database size (k ≥ n is a planning
/// edge case the batch engine clamps internally).
fn query() -> impl Strategy<Value = WeightedQuery> {
    (1usize..30, 0u8..3, 0.05f64..0.9, 0.2f64..2.0).prop_map(|(k, kind, threshold, weight)| {
        let query = match kind {
            0 => TopKQuery::PTk { k, threshold },
            1 => TopKQuery::UKRanks { k },
            _ => TopKQuery::GlobalTopk { k },
        };
        WeightedQuery::weighted(query, weight)
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Journal → drop → reopen reproduces the uninterrupted session,
    /// torn tail included.
    #[test]
    fn recovery_matches_the_uninterrupted_mirror(
        x_tuples in vec(x_tuple(), 2..7),
        queries in vec(query(), 1..4),
        steps in vec(step(), 0..5),
        garbage in vec(any::<u8>(), 0..48),
    ) {
        let dir = fresh_dir();
        let spec = DatasetSpec::Inline { x_tuples };
        let db = build(&spec).unwrap();

        // Uninterrupted in-process session.
        let mut mirror = BatchQuality::from_owned(db, queries.clone()).unwrap();

        // The same session, journalled record by record.
        {
            let (store, _) = Store::open(&dir, &build).unwrap();
            store.append(&WalRecord::CreateSession {
                session: 1,
                dataset: spec.clone(),
                probe_cost: 1,
                probe_success: 0.8,
            }).unwrap();
            for wq in &queries {
                store.append(&WalRecord::RegisterQuery {
                    session: 1,
                    query: wq.query,
                    weight: wq.weight,
                }).unwrap();
            }
            for s in &steps {
                let Some((l, mutation)) = resolve(mirror.database(), s) else { continue };
                mirror.apply_collapse_in_place(l, &mutation).unwrap();
                // Streaming membership changes journal as the newer
                // `ApplyMutation` record kind; collapses and reweights stay
                // on the historical `ApplyProbe` kind so one log carries
                // both and replay must treat them identically.
                let record = match &mutation {
                    XTupleMutation::Insert { .. } | XTupleMutation::Remove => {
                        WalRecord::ApplyMutation { session: 1, x_tuple: l, mutation }
                    }
                    _ => WalRecord::ApplyProbe { session: 1, x_tuple: l, mutation },
                };
                store.append(&record).unwrap();
            }
        }

        // Crash: random bytes torn onto the log tail.
        let wal = dir.join(pdb_store::WAL_FILE);
        if !garbage.is_empty() {
            let mut bytes = std::fs::read(&wal).unwrap();
            bytes.extend_from_slice(&garbage);
            std::fs::write(&wal, &bytes).unwrap();
        }

        // Recover and compare.
        let (_, recovery) = Store::open(&dir, &build).unwrap();
        prop_assert_eq!(recovery.sessions.len(), 1);
        let session = &recovery.sessions[0];
        prop_assert_eq!((recovery.truncated_bytes > 0) as usize, (!garbage.is_empty()) as usize);
        let RecoveredState::Live(recovered) = &session.state else {
            panic!("queries were registered; session must recover live");
        };
        prop_assert_eq!(recovered.database(), mirror.database());
        prop_assert!((recovered.aggregate_quality() - mirror.aggregate_quality()).abs() <= TOL);
        let (got_q, want_q) = (recovered.quality_vector(), mirror.quality_vector());
        for (q, (got, want)) in got_q.iter().zip(&want_q).enumerate() {
            prop_assert!((got - want).abs() <= TOL, "quality of query {}: {} vs {}", q, got, want);
        }
        prop_assert_eq!(recovered.answers().unwrap(), mirror.answers().unwrap());

        std::fs::remove_dir_all(&dir).ok();
    }
}

/// Registrations interleaved *between* probes: replay must re-plan at
/// each registration exactly like the live session did.
#[test]
fn interleaved_registrations_replay_exactly() {
    let dir = fresh_dir();
    let spec = DatasetSpec::Inline {
        x_tuples: vec![
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ],
    };
    let db = build(&spec).unwrap();
    let q1 = WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 });
    let q2 = WeightedQuery::weighted(TopKQuery::GlobalTopk { k: 9 }, 2.0); // k > n
    let probe = XTupleMutation::CollapseToAlternative { keep_pos: 2 };

    // Live: register q1, probe, register q2 (re-plans over the mutated
    // database), probe again.
    let mut mirror = BatchQuality::from_owned(db.clone(), vec![q1]).unwrap();
    mirror.apply_collapse_in_place(2, &probe).unwrap();
    let mut mirror = BatchQuality::from_owned(mirror.database().clone(), vec![q1, q2]).unwrap();
    let second = XTupleMutation::Reweight { probs: vec![0.3, 0.2] };
    mirror.apply_collapse_in_place(0, &second).unwrap();
    // A streaming arrival and departure ride the same log as the newer
    // `ApplyMutation` record kind.
    let arrival =
        XTupleMutation::Insert { key: "s9".into(), alternatives: vec![(28.5, 0.5), (23.0, 0.25)] };
    let appended_at = mirror.database().num_x_tuples();
    mirror.apply_collapse_in_place(appended_at, &arrival).unwrap();
    mirror.apply_collapse_in_place(1, &XTupleMutation::Remove).unwrap();

    let (store, _) = Store::open(&dir, &build).unwrap();
    for record in [
        WalRecord::CreateSession { session: 1, dataset: spec, probe_cost: 1, probe_success: 0.8 },
        WalRecord::RegisterQuery { session: 1, query: q1.query, weight: q1.weight },
        WalRecord::ApplyProbe { session: 1, x_tuple: 2, mutation: probe },
        WalRecord::RegisterQuery { session: 1, query: q2.query, weight: q2.weight },
        WalRecord::ApplyProbe { session: 1, x_tuple: 0, mutation: second },
        WalRecord::ApplyMutation { session: 1, x_tuple: appended_at, mutation: arrival },
        WalRecord::ApplyMutation { session: 1, x_tuple: 1, mutation: XTupleMutation::Remove },
    ] {
        store.append(&record).unwrap();
    }
    drop(store);

    let (_, recovery) = Store::open(&dir, &build).unwrap();
    let session = &recovery.sessions[0];
    assert_eq!(session.probes_replayed, 4);
    let RecoveredState::Live(recovered) = &session.state else { panic!("live session") };
    assert_eq!(recovered.database(), mirror.database());
    assert!((recovered.aggregate_quality() - mirror.aggregate_quality()).abs() <= TOL);
    assert_eq!(recovered.answers().unwrap(), mirror.answers().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}
