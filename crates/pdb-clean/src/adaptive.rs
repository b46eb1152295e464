//! Adaptive (re-planning) cleaning.
//!
//! The paper plans the whole cleaning campaign up front and notes
//! (Section V-A) that "it is possible that an x-tuple is cleaned
//! successfully before performing the assigned number of cleaning
//! operations … the interesting problem about how to update the list so
//! that the rest of resources can be used to further improve the quality
//! will be studied in future work."  This module implements that adaptive
//! strategy as a simulator: probes are executed one at a time, the outcome
//! (success with the revealed value, or failure) is observed, and the
//! remaining budget is re-planned against the *updated* database.
//!
//! Re-planning needs the fresh per-x-tuple contribution vector `g(l, D′)`
//! after every observed outcome.  Two [`ReplanMode`]s provide it:
//!
//! * [`ReplanMode::Incremental`] (the default) runs PSR **once** at
//!   session start, as a one-query [`BatchQuality`], and then patches
//!   the rank probabilities through the delta engine
//!   ([`BatchQuality::apply_collapse_in_place`]) after each successful
//!   probe — one windowed PSR scan to the last changed row of the live
//!   prefix instead of a full O(n·k) run per probe.  The update it returns carries the refreshed `g`, whose
//!   Theorem-1 weights cover only the live prefix (the tail cut, Lemma
//!   2's on complete data);
//! * [`ReplanMode::FullRebuild`] re-runs the full pipeline after every
//!   probe.  It is kept as the correctness oracle and as the baseline the
//!   `adaptive_replanning` benchmark and the `adaptive-n` / `adaptive-c`
//!   experiments measure the delta path against.
//!
//! Each step picks its probe by the crate's candidacy rule and attempt
//! order, and reveals its outcome through the draw of
//! [`simulate_cleaning`](crate::simulate_cleaning) (see the crate docs).
//!
//! The simulator is used by the `adaptive_cleaning` example, by the
//! `pdb adaptive` CLI command and by tests comparing the adaptive policy
//! against the paper's static plans; it is not required for reproducing
//! any figure.

use crate::improvement::{is_candidate, select_alternative, Attempt};
use crate::model::CleaningSetup;
use pdb_core::{DbError, RankedDatabase, Result};
use pdb_engine::psr::rank_probabilities;
use pdb_quality::{
    quality_breakdown, quality_tp, BatchQuality, DeltaStats, TopKQuery, WeightedQuery,
    XTupleMutation,
};
use rand::Rng;
use serde::{Deserialize, Serialize};

/// How the session recomputes the contribution vector `g(l, D′)` after an
/// observed probe outcome.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize, Default)]
pub enum ReplanMode {
    /// One full PSR run up front, per-probe delta updates afterwards.
    #[default]
    Incremental,
    /// The full PSR + TP pipeline is re-run for every probe (the
    /// correctness oracle / benchmark baseline).
    FullRebuild,
}

impl std::fmt::Display for ReplanMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            ReplanMode::Incremental => "incremental",
            ReplanMode::FullRebuild => "full-rebuild",
        })
    }
}

/// Outcome of one adaptive cleaning session.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AdaptiveOutcome {
    /// Quality of the database before any probe.
    pub initial_quality: f64,
    /// Quality of the database after the session.
    pub final_quality: f64,
    /// Number of probes performed (successful or not).
    pub probes: u64,
    /// Number of probes that succeeded.
    pub successes: u64,
    /// Budget actually spent.
    pub spent: u64,
    /// Accumulated delta-engine statistics (all zeros under
    /// [`ReplanMode::FullRebuild`]).
    pub delta_stats: DeltaStats,
}

impl AdaptiveOutcome {
    /// Realised quality improvement of the session.
    pub fn improvement(&self) -> f64 {
        self.final_quality - self.initial_quality
    }
}

/// The evaluation state a session re-plans from.
enum EvalState {
    Rebuild(RankedDatabase),
    Incremental(Box<BatchQuality<'static>>),
}

impl EvalState {
    fn database(&self) -> &RankedDatabase {
        match self {
            EvalState::Rebuild(db) => db,
            EvalState::Incremental(batch) => batch.database(),
        }
    }
}

/// Run one adaptive cleaning session with the default
/// [`ReplanMode::Incremental`] re-planning.
///
/// See [`run_adaptive_session_with`].
pub fn run_adaptive_session<R: Rng + ?Sized>(
    db: &RankedDatabase,
    setup: &CleaningSetup,
    k: usize,
    budget: u64,
    rng: &mut R,
) -> Result<AdaptiveOutcome> {
    run_adaptive_session_with(db, setup, k, budget, ReplanMode::default(), rng)
}

/// Run one adaptive cleaning session.
///
/// At every step the x-tuple with the best marginal-gain-per-cost ratio
/// *under the current database state* is probed once (greedy re-planning);
/// the probe succeeds with its sc-probability, in which case the true
/// alternative is revealed (drawn from the existential probabilities) and
/// the x-tuple collapses.  The session ends when the budget cannot afford
/// any useful probe or no candidate remains.
///
/// An x-tuple that has already collapsed (it is now certain, or resolved
/// to null and left the database) is never probed again, so budget is only
/// ever spent on entities that still carry ambiguity.  If the *last*
/// remaining entity resolves to null the database becomes empty and
/// certain: the session ends with a final quality of 0.  Any other
/// collapse failure is reported as an error rather than swallowed.
///
/// `setup` indexes x-tuples by their position in the *original* database;
/// the simulator tracks the original index of every surviving x-tuple, so
/// costs and sc-probabilities stay attached to the right entity even after
/// null collapses remove x-tuples (and shift the indices) of the evolving
/// database.
pub fn run_adaptive_session_with<R: Rng + ?Sized>(
    db: &RankedDatabase,
    setup: &CleaningSetup,
    k: usize,
    budget: u64,
    mode: ReplanMode,
    rng: &mut R,
) -> Result<AdaptiveOutcome> {
    if setup.len() != db.num_x_tuples() {
        return Err(DbError::invalid_parameter(format!(
            "setup covers {} x-tuples but the database has {}",
            setup.len(),
            db.num_x_tuples()
        )));
    }
    let mut remaining = budget;
    let mut probes = 0u64;
    let mut successes = 0u64;
    let mut delta_stats = DeltaStats::default();
    // Per *original* x-tuple bookkeeping: number of failed probes already
    // spent (the marginal gain of the next probe shrinks accordingly,
    // Lemma 4) and whether the entity has already collapsed.
    let mut failed_attempts = vec![0u64; db.num_x_tuples()];
    let mut resolved = vec![false; db.num_x_tuples()];
    // Current x-index -> original x-index.  Collapse-to-alternative keeps
    // indices stable; collapse-to-null removes the entry.
    let mut orig_of: Vec<usize> = (0..db.num_x_tuples()).collect();

    // The contribution vector g(l, D′) the next probe is planned from:
    // carried across probes by the incremental mode, rebuilt before every
    // plan by the full-rebuild mode.
    let mut g = Vec::new();
    let initial_quality;
    let mut state = match mode {
        ReplanMode::Incremental => {
            // Quality depends only on k, so any one semantics serves.
            let query = WeightedQuery::new(TopKQuery::UKRanks { k });
            let batch = Box::new(BatchQuality::from_owned(db.clone(), vec![query])?);
            g = batch.aggregate_breakdown();
            initial_quality = g.iter().sum();
            EvalState::Incremental(batch)
        }
        ReplanMode::FullRebuild => {
            initial_quality = quality_tp(db, k)?;
            EvalState::Rebuild(db.clone())
        }
    };
    // Set when the last entity resolves to null: the database is empty and
    // certain, so its quality is 0 by definition.
    let mut emptied = false;

    loop {
        // Re-plan against the current state: obtain the per-x-tuple
        // contributions g(l, D′) and pick the best affordable probe.
        if let EvalState::Rebuild(current) = &state {
            let rp = rank_probabilities(current, k)?;
            g = quality_breakdown(current, &rp).x_tuple_contribution;
        }
        let best = Attempt::best(g.iter().enumerate().filter_map(|(l, &gl)| {
            let ol = orig_of[l];
            // Lemma 5 picks the candidates; an entity that already
            // collapsed never is one, whatever residue its updated g holds.
            let affordable = setup.cost(ol) <= remaining;
            (is_candidate(gl) && !resolved[ol] && affordable).then(|| {
                Attempt::new(l, failed_attempts[ol] + 1, gl, setup.sc_prob(ol), setup.cost(ol))
            })
        }));
        let Some(Attempt { l, .. }) = best else { break };
        let ol = orig_of[l];

        remaining -= setup.cost(ol);
        probes += 1;
        if rng.gen::<f64>() >= setup.sc_prob(ol) {
            failed_attempts[ol] += 1;
            continue;
        }
        successes += 1;
        // Reveal the true alternative of x-tuple l and collapse it.
        let chosen = select_alternative(state.database(), l, rng.gen());
        let applied = match &mut state {
            EvalState::Rebuild(current) => match chosen {
                Some(keep_pos) => current.collapse_x_tuple_in_place(l, keep_pos),
                None => current.collapse_x_tuple_to_null_in_place(l),
            },
            EvalState::Incremental(batch) => {
                let mutation = match chosen {
                    Some(keep_pos) => XTupleMutation::CollapseToAlternative { keep_pos },
                    None => XTupleMutation::CollapseToNull,
                };
                batch.apply_collapse_in_place(l, &mutation).map(|update| {
                    g = update.g;
                    delta_stats.accumulate(&update.stats);
                })
            }
        };
        match applied {
            Ok(()) => match chosen {
                Some(_) => resolved[ol] = true,
                None => {
                    orig_of.remove(l);
                }
            },
            // The entity that resolved to null was the last one: the
            // database is now empty and fully certain.
            Err(DbError::EmptyDatabase) => {
                emptied = true;
                break;
            }
            // Anything else is a logic error — report it, don't swallow it.
            Err(e) => return Err(e),
        }
    }

    let final_quality = if emptied {
        0.0
    } else {
        match &state {
            EvalState::Rebuild(current) => quality_tp(current, k)?,
            // Σ g, the sum the initial quality and `CleaningContext` use.
            EvalState::Incremental(_) => g.iter().sum(),
        }
    };
    Ok(AdaptiveOutcome {
        initial_quality,
        final_quality,
        probes,
        successes,
        spent: budget - remaining,
        delta_stats,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::plan_greedy;
    use crate::improvement::{expected_improvement, simulate_cleaning, CleaningContext};
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn adaptive_outcome_round_trips_through_json() {
        let db = udb1();
        let setup = CleaningSetup::uniform(db.num_x_tuples(), 1, 0.8).unwrap();
        let mut rng = StdRng::seed_from_u64(7);
        let outcome = run_adaptive_session(&db, &setup, 2, 5, &mut rng).unwrap();
        let json = serde_json::to_string(&outcome).unwrap();
        let back: AdaptiveOutcome = serde_json::from_str(&json).unwrap();
        assert_eq!(back, outcome, "via {json}");
    }

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
    fn validates_setup_arity() {
        let db = udb1();
        let setup = CleaningSetup::uniform(3, 1, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        assert!(run_adaptive_session(&db, &setup, 2, 10, &mut rng).is_err());
    }

    #[test]
    fn zero_budget_changes_nothing() {
        let db = udb1();
        let setup = CleaningSetup::uniform(4, 1, 0.9).unwrap();
        for mode in [ReplanMode::Incremental, ReplanMode::FullRebuild] {
            let mut rng = StdRng::seed_from_u64(1);
            let outcome = run_adaptive_session_with(&db, &setup, 2, 0, mode, &mut rng).unwrap();
            assert_eq!(outcome.probes, 0);
            assert_eq!(outcome.spent, 0);
            assert_eq!(outcome.improvement(), 0.0);
        }
    }

    #[test]
    fn certain_probes_with_ample_budget_remove_all_ambiguity() {
        let db = udb1();
        let setup = CleaningSetup::uniform(4, 1, 1.0).unwrap();
        let mut rng = StdRng::seed_from_u64(2);
        let outcome = run_adaptive_session(&db, &setup, 2, 100, &mut rng).unwrap();
        assert!(outcome.final_quality.abs() < 1e-9);
        assert_eq!(outcome.successes, outcome.probes);
        // Only the three uncertain sensors ever need probing.
        assert!(outcome.probes <= 3);
        assert!(outcome.spent <= 3);
    }

    /// Regression (re-probe audit): with certain probes, every probe must
    /// collapse a *distinct* entity — a collapsed (now-certain) x-tuple can
    /// never be re-probed and burn budget, in either re-planning mode.
    /// With k ≥ n every uncertain entity keeps contributing ambiguity
    /// until it collapses, so the probe count is pinned to *exactly* the
    /// number of initially-uncertain x-tuples.
    #[test]
    fn collapsed_entities_are_never_reprobed() {
        let db = udb1();
        let setup = CleaningSetup::uniform(4, 1, 1.0).unwrap();
        for mode in [ReplanMode::Incremental, ReplanMode::FullRebuild] {
            for seed in 0..40 {
                let mut rng = StdRng::seed_from_u64(seed);
                let outcome =
                    run_adaptive_session_with(&db, &setup, 7, 100, mode, &mut rng).unwrap();
                assert_eq!(outcome.probes, 3, "mode {mode}, seed {seed}: {outcome:?}");
                assert_eq!(outcome.successes, 3);
                assert_eq!(outcome.spent, 3);
                assert!(outcome.final_quality.abs() < 1e-9);
            }
        }
    }

    /// Regression (null-collapse index remap): when entities can resolve
    /// to null, the x-indices of the evolving database shift; costs,
    /// sc-probabilities and probe counts must stay attached to the right
    /// entity, and every entity still collapses exactly once.
    #[test]
    fn null_collapses_keep_setup_indices_aligned() {
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(10.0, 0.5)],
            vec![(9.0, 0.5)],
            vec![(8.0, 0.5)],
            vec![(7.0, 1.0)],
        ])
        .unwrap();
        // Distinct costs so a mis-mapped index would change `spent`.
        let setup = CleaningSetup::new(vec![1, 2, 4, 8], vec![1.0, 1.0, 1.0, 1.0]).unwrap();
        for mode in [ReplanMode::Incremental, ReplanMode::FullRebuild] {
            for seed in 0..40 {
                let mut rng = StdRng::seed_from_u64(seed);
                let outcome =
                    run_adaptive_session_with(&db, &setup, 4, 100, mode, &mut rng).unwrap();
                // The three uncertain entities are probed exactly once each
                // (x-tuple 3 is certain; k ≥ n keeps each one a candidate
                // until it collapses), whatever mix of null/alternative
                // outcomes the seed produces.
                assert_eq!(outcome.probes, 3, "mode {mode}, seed {seed}: {outcome:?}");
                assert_eq!(outcome.spent, 1 + 2 + 4, "mode {mode}, seed {seed}");
                assert!(outcome.final_quality.abs() < 1e-9);
            }
        }
    }

    /// Sampling-drift bugfix: a complete x-tuple whose member mass rounds
    /// to just below 1 must never be routed to a null collapse.
    #[test]
    fn fp_drift_never_selects_a_phantom_null() {
        // 0.3 + 0.3 + 0.3 + 0.1 sums to 0.9999999999999999 in f64, yet the
        // x-tuple is logically complete.
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(10.0, 0.3), (9.0, 0.3), (8.0, 0.3), (7.0, 0.1)],
            vec![(6.0, 1.0)],
        ])
        .unwrap();
        assert!(db.x_tuple(0).null_prob() > 0.0, "the phantom gap exists");
        assert!(db.x_tuple(0).null_prob() <= pdb_core::PROB_EPSILON);
        // A draw landing at (or beyond) the summed mass selects the last
        // positive-probability alternative instead of null.
        let just_below_one = 1.0 - f64::EPSILON / 2.0;
        assert_eq!(select_alternative(&db, 0, just_below_one), Some(3));
        assert_eq!(select_alternative(&db, 0, 0.95), Some(3));
        // Ordinary draws still hit their alternative...
        assert_eq!(select_alternative(&db, 0, 0.0), Some(0));
        assert_eq!(select_alternative(&db, 0, 0.65), Some(2));
        // ...and genuine missing mass still resolves to null.
        let partial =
            RankedDatabase::from_scored_x_tuples(&[vec![(10.0, 0.6)], vec![(6.0, 1.0)]]).unwrap();
        assert_eq!(select_alternative(&partial, 0, 0.7), None);
        assert_eq!(select_alternative(&partial, 0, 0.5), Some(0));
    }

    /// When the last entity resolves to null the session ends cleanly with
    /// the (empty, certain) database's quality of zero — the budget
    /// bookkeeping still reflects the probe that emptied it.
    #[test]
    fn emptying_the_database_ends_the_session_with_zero_quality() {
        let db = RankedDatabase::from_scored_x_tuples(&[vec![(10.0, 0.5)]]).unwrap();
        let setup = CleaningSetup::uniform(1, 1, 1.0).unwrap();
        let mut seen_null = false;
        for mode in [ReplanMode::Incremental, ReplanMode::FullRebuild] {
            for seed in 0..20 {
                let mut rng = StdRng::seed_from_u64(seed);
                let outcome = run_adaptive_session_with(&db, &setup, 1, 5, mode, &mut rng).unwrap();
                assert_eq!(outcome.probes, 1);
                assert_eq!(outcome.spent, 1);
                assert!(outcome.final_quality.abs() < 1e-12);
                assert!(outcome.improvement() > 0.0);
                if outcome.successes == 1 {
                    seen_null = true;
                }
            }
        }
        assert!(seen_null, "some seed resolved the entity (to null or its alternative)");
    }

    /// The incremental session takes exactly the same probes as the
    /// full-rebuild oracle and lands on the same realised quality.
    #[test]
    fn incremental_and_rebuild_sessions_agree() {
        let db = udb1();
        let setup = CleaningSetup::new(vec![2, 3, 1, 4], vec![0.4, 0.6, 0.8, 0.5]).unwrap();
        for seed in 0..60 {
            let mut rng = StdRng::seed_from_u64(seed);
            let inc =
                run_adaptive_session_with(&db, &setup, 2, 6, ReplanMode::Incremental, &mut rng)
                    .unwrap();
            let mut rng = StdRng::seed_from_u64(seed);
            let full =
                run_adaptive_session_with(&db, &setup, 2, 6, ReplanMode::FullRebuild, &mut rng)
                    .unwrap();
            assert_eq!(inc.probes, full.probes, "seed {seed}");
            assert_eq!(inc.successes, full.successes, "seed {seed}");
            assert_eq!(inc.spent, full.spent, "seed {seed}");
            assert!(
                (inc.final_quality - full.final_quality).abs() < 1e-8,
                "seed {seed}: {} vs {}",
                inc.final_quality,
                full.final_quality
            );
            // Only the incremental mode reports delta activity.
            assert_eq!(full.delta_stats, DeltaStats::default());
            assert_eq!(u64::from(inc.delta_stats.rows_dropped > 0), inc.successes.min(1));
        }
    }

    #[test]
    fn never_spends_more_than_the_budget_and_never_hurts() {
        let db = udb1();
        let setup = CleaningSetup::new(vec![2, 3, 1, 4], vec![0.4, 0.6, 0.8, 0.5]).unwrap();
        for seed in 0..50 {
            let mut rng = StdRng::seed_from_u64(seed);
            let outcome = run_adaptive_session(&db, &setup, 2, 6, &mut rng).unwrap();
            assert!(outcome.spent <= 6);
            assert!(outcome.improvement() >= -1e-12, "cleaning never decreases quality");
            assert!(outcome.successes <= outcome.probes);
        }
    }

    #[test]
    fn adaptive_replanning_beats_the_static_plan_on_average() {
        // With unreliable probes, the static plan wastes budget on x-tuples
        // that happen to succeed early (or keeps probing hopeless ones),
        // while the adaptive policy redirects the remaining budget.  On
        // average the adaptive realised improvement should be at least the
        // static plan's.
        let db = udb1();
        let setup = CleaningSetup::new(vec![1, 1, 1, 1], vec![0.5, 0.5, 0.5, 0.5]).unwrap();
        let k = 2;
        let budget = 4;
        let ctx = CleaningContext::prepare(&db, k).unwrap();
        let static_plan = plan_greedy(&ctx, &setup, budget).unwrap();
        let static_expected = expected_improvement(&ctx, &setup, &static_plan);

        let trials = 600;
        let mut adaptive_total = 0.0;
        let mut static_total = 0.0;
        for seed in 0..trials {
            let mut rng = StdRng::seed_from_u64(seed);
            adaptive_total +=
                run_adaptive_session(&db, &setup, k, budget, &mut rng).unwrap().improvement();
            let mut rng = StdRng::seed_from_u64(10_000 + seed);
            let cleaned = simulate_cleaning(&db, &setup, &static_plan, &mut rng).unwrap().unwrap();
            static_total += quality_tp(&cleaned, k).unwrap() - ctx.quality;
        }
        let adaptive_mean = adaptive_total / trials as f64;
        let static_mean = static_total / trials as f64;
        // Sanity: the static Monte-Carlo mean tracks Theorem 2.
        assert!((static_mean - static_expected).abs() < 0.1);
        assert!(
            adaptive_mean + 0.02 >= static_mean,
            "adaptive {adaptive_mean} should not lose to static {static_mean}"
        );
    }
}
