//! Recovery equivalence: a store-backed session replayed from its
//! write-ahead log by [`Session::replay`] must match the uninterrupted
//! in-process session.
//!
//! The property suite drives randomized sessions (random inline
//! databases, half of whose x-tuples are clustered null-mass entities,
//! query sets whose `k` routinely exceeds `n`, random
//! collapse / null / reweight / insert / remove sequences) twice: once
//! directly on a [`BatchQuality`] mirror, and once as journalled records
//! — collapses as the historical `ApplyProbe` kind, streaming membership
//! changes as the newer `ApplyMutation` kind, so both record kinds replay
//! in one log — in a store that is then dropped and reopened.  The
//! recovered session must agree with the mirror — answers exactly,
//! qualities at 1e-12, the probe counter exactly — even when random
//! garbage is appended to the log first (the torn tail a crash
//! mid-append leaves behind).

use pdb_core::RankedDatabase;
use pdb_engine::delta::XTupleMutation;
use pdb_engine::queries::TopKQuery;
use pdb_quality::{BatchQuality, WeightedQuery};
use pdb_server::Session;
use pdb_store::{DatasetSpec, SessionCheckpoint, Store, StoreError, WalRecord};
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
        .join("pdb-server-wal-recovery")
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
        let mut applied = 0u64;

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
                applied += 1;
                // Streaming membership changes journal as the newer
                // `ApplyMutation` record kind; collapses and reweights stay
                // on the historical `ApplyProbe` kind so one log carries
                // both and replay must treat them identically.
                let record = match &mutation {
                    XTupleMutation::Insert { .. } | XTupleMutation::Remove => {
                        WalRecord::apply_mutation(1, l, mutation)
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
        let (_, mut recovery) = Store::open(&dir, &build).unwrap();
        prop_assert_eq!(recovery.sessions.len(), 1);
        prop_assert_eq!((recovery.truncated_bytes > 0) as usize, (!garbage.is_empty()) as usize);
        let (recovered, mutations, _) = Session::replay(recovery.sessions.remove(0)).unwrap();
        prop_assert_eq!(mutations, applied);
        let stat = recovered.stat(1);
        prop_assert_eq!((stat.queries, stat.probes), (queries.len(), applied));
        prop_assert_eq!(recovered.database(), mirror.database());
        let report = recovered.quality().expect("queries were registered; session must recover live");
        prop_assert!((report.aggregate - mirror.aggregate_quality()).abs() <= TOL);
        let (got_q, want_q) = (report.qualities, mirror.quality_vector());
        for (q, (got, want)) in got_q.iter().zip(&want_q).enumerate() {
            prop_assert!((got - want).abs() <= TOL, "quality of query {}: {} vs {}", q, got, want);
        }
        prop_assert_eq!(recovered.evaluate().unwrap().answers, mirror.answers().unwrap());

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
        WalRecord::apply_mutation(1, appended_at, arrival),
        WalRecord::apply_mutation(1, 1, XTupleMutation::Remove),
    ] {
        store.append(&record).unwrap();
    }
    drop(store);

    let (_, mut recovery) = Store::open(&dir, &build).unwrap();
    let (recovered, mutations, _) = Session::replay(recovery.sessions.remove(0)).unwrap();
    assert_eq!(mutations, 4);
    assert_eq!(recovered.database(), mirror.database());
    let report = recovered.quality().expect("live session");
    assert!((report.aggregate - mirror.aggregate_quality()).abs() <= TOL);
    assert_eq!(recovered.evaluate().unwrap().answers, mirror.answers().unwrap());
    std::fs::remove_dir_all(&dir).ok();
}

fn udb1_spec() -> DatasetSpec {
    DatasetSpec::Inline {
        x_tuples: vec![
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ],
    }
}

fn pt2() -> WeightedQuery {
    WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 })
}

/// Create session 1 over udb1, register PT-2 and collapse x-tuple 2
/// (udb1 → udb2); return the matching in-process mirror.
fn journal_udb2(store: &Store) -> BatchQuality<'static> {
    let probe = XTupleMutation::CollapseToAlternative { keep_pos: 2 };
    for record in [
        WalRecord::CreateSession {
            session: 1,
            dataset: udb1_spec(),
            probe_cost: 1,
            probe_success: 0.8,
        },
        WalRecord::RegisterQuery { session: 1, query: pt2().query, weight: 1.0 },
        WalRecord::ApplyProbe { session: 1, x_tuple: 2, mutation: probe.clone() },
    ] {
        store.append(&record).unwrap();
    }
    let db = build(&udb1_spec()).unwrap();
    let mut mirror = BatchQuality::from_owned(db, vec![pt2()]).unwrap();
    mirror.apply_collapse_in_place(2, &probe).unwrap();
    mirror
}

/// A replayed probe is the in-process session's probe: same database,
/// answers and aggregate (udb1 → udb2), with the delta pass's rows and
/// the probe counter accounted; an idle session replays idle.
#[test]
fn a_replayed_probe_matches_the_in_process_session() {
    let dir = fresh_dir();
    let (store, _) = Store::open(&dir, &build).unwrap();
    let mirror = journal_udb2(&store);
    let idle = WalRecord::CreateSession {
        session: 2,
        dataset: udb1_spec(),
        probe_cost: 3,
        probe_success: 0.5,
    };
    store.append(&idle).unwrap();
    drop(store);

    let (_, recovery) = Store::open(&dir, &build).unwrap();
    let mut sessions = recovery.sessions.into_iter();
    let (recovered, mutations, stats) = Session::replay(sessions.next().unwrap()).unwrap();
    assert_eq!(mutations, 1);
    assert!(stats.rows_total() > 0, "probe replayed via delta pass");
    assert_eq!(recovered.stat(1).probes, 1);
    assert_eq!(recovered.database(), mirror.database());
    let report = recovered.quality().unwrap();
    assert!((report.aggregate - mirror.aggregate_quality()).abs() < 1e-12);
    assert!((report.aggregate - (-1.85)).abs() < 0.005, "udb1 → udb2");
    assert_eq!(recovered.evaluate().unwrap().answers, mirror.answers().unwrap());

    let (idle, mutations, _) = Session::replay(sessions.next().unwrap()).unwrap();
    assert_eq!((mutations, idle.stat(2).queries, idle.stat(2).probes), (0, 0, 0));
    assert!(idle.quality().is_err(), "no query registered");
    std::fs::remove_dir_all(&dir).ok();
}

/// A checkpoint base replays only the records after it, and its probe
/// counter carries over.
#[test]
fn a_checkpoint_base_replays_only_its_tail() {
    let dir = fresh_dir();
    let (store, _) = Store::open(&dir, &build).unwrap();
    let mut mirror = journal_udb2(&store);
    store
        .checkpoint(&SessionCheckpoint {
            session: 1,
            db: mirror.database().clone(),
            specs: vec![pt2()],
            probe_cost: 1,
            probe_success: 0.8,
            probes: 1,
        })
        .unwrap();
    let reweight = XTupleMutation::Reweight { probs: vec![0.5, 0.5] };
    store
        .append(&WalRecord::ApplyProbe { session: 1, x_tuple: 0, mutation: reweight.clone() })
        .unwrap();
    store.truncate_log().unwrap();
    drop(store);
    mirror.apply_collapse_in_place(0, &reweight).unwrap();

    let (_, mut recovery) = Store::open(&dir, &build).unwrap();
    let (recovered, mutations, _) = Session::replay(recovery.sessions.remove(0)).unwrap();
    assert_eq!(mutations, 1, "only the post-checkpoint probe replays");
    assert_eq!(recovered.stat(1).probes, 2, "checkpointed probe count + replayed probe");
    assert_eq!(recovered.database(), mirror.database());
    let report = recovered.quality().unwrap();
    assert!((report.aggregate - mirror.aggregate_quality()).abs() <= TOL);
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn a_mutation_for_a_session_without_a_query_fails_replay() {
    let dir = fresh_dir();
    let (store, _) = Store::open(&dir, &build).unwrap();
    let create = WalRecord::CreateSession {
        session: 1,
        dataset: udb1_spec(),
        probe_cost: 1,
        probe_success: 0.8,
    };
    store.append(&create).unwrap();
    // No register_query first: the live server refuses this mutation,
    // so a log holding it was written by hand.
    let probe = XTupleMutation::CollapseToAlternative { keep_pos: 2 };
    store.append(&WalRecord::ApplyProbe { session: 1, x_tuple: 2, mutation: probe }).unwrap();
    drop(store);
    let (_, mut recovery) = Store::open(&dir, &build).unwrap();
    let err = Session::replay(recovery.sessions.remove(0)).unwrap_err();
    assert!(matches!(err, StoreError::Replay { record: 1, .. }), "{err}");
    assert!(err.to_string().contains("no registered queries"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}

/// An insert journalled at anything but the append index is not what
/// the live server wrote, and replay rejects it.
#[test]
fn an_insert_away_from_the_append_index_fails_replay() {
    let dir = fresh_dir();
    let (store, _) = Store::open(&dir, &build).unwrap();
    journal_udb2(&store);
    let arrival = XTupleMutation::Insert { key: "s9".into(), alternatives: vec![(28.5, 0.5)] };
    store.append(&WalRecord::apply_mutation(1, 1, arrival)).unwrap();
    drop(store);
    let (_, mut recovery) = Store::open(&dir, &build).unwrap();
    let err = Session::replay(recovery.sessions.remove(0)).unwrap_err();
    assert!(matches!(err, StoreError::Replay { record: 3, .. }), "{err}");
    assert!(err.to_string().contains("append-only"), "{err}");
    std::fs::remove_dir_all(&dir).ok();
}
