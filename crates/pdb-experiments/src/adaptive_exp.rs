//! Adaptive re-planning at scale: incremental deltas vs per-probe full
//! rebuilds.
//!
//! These experiments go beyond the paper (whose Section V-A leaves
//! adaptive re-planning as future work): they measure the wall-clock cost
//! of one adaptive cleaning session when every observed probe outcome
//! triggers a full PSR + TP rerun ([`ReplanMode::FullRebuild`], O(C·n·k)
//! for `C` probes) against the incremental delta engine
//! ([`ReplanMode::Incremental`], one PSR run up front and O(k)-per-row
//! patches afterwards), sweeping the database size (`adaptive-n`) and the
//! cleaning budget (`adaptive-c`).

use crate::datasets;
use crate::report::{ExperimentResult, Series};
use crate::scale::{time_ms, Scale};
use pdb_clean::{run_adaptive_session_with, AdaptiveOutcome, CleaningSetup, ReplanMode};
use pdb_core::{RankedDatabase, Result};
use rand::{rngs::StdRng, SeedableRng};

/// Seed of the probe-outcome stream; both modes replay the same stream so
/// their sessions are directly comparable.
const SESSION_SEED: u64 = 0x5EED;

/// Time one adaptive session in each re-planning mode on the same
/// database, setup and random stream.
fn timed_pair(
    db: &RankedDatabase,
    setup: &CleaningSetup,
    k: usize,
    budget: u64,
) -> Result<((AdaptiveOutcome, f64), (AdaptiveOutcome, f64))> {
    let mut rng = StdRng::seed_from_u64(SESSION_SEED);
    let (inc, inc_ms) = time_ms(|| {
        run_adaptive_session_with(db, setup, k, budget, ReplanMode::Incremental, &mut rng)
    });
    let mut rng = StdRng::seed_from_u64(SESSION_SEED);
    let (full, full_ms) = time_ms(|| {
        run_adaptive_session_with(db, setup, k, budget, ReplanMode::FullRebuild, &mut rng)
    });
    Ok(((inc?, inc_ms), (full?, full_ms)))
}

fn push_pair(
    result: &mut ExperimentResult,
    series: &mut [(&str, Vec<(f64, f64)>); 2],
    x: f64,
    pair: &((AdaptiveOutcome, f64), (AdaptiveOutcome, f64)),
) {
    let ((inc, inc_ms), (full, full_ms)) = pair;
    series[0].1.push((x, *inc_ms));
    series[1].1.push((x, *full_ms));
    result.push_note(format!(
        "x = {x}: incremental {:.2} ms / full-rebuild {:.2} ms ({:.1}x); \
         probes {} vs {}, improvement {:.4} vs {:.4}; delta rows: {} rewritten, {} copied",
        inc_ms,
        full_ms,
        full_ms / inc_ms.max(1e-9),
        inc.probes,
        full.probes,
        inc.improvement(),
        full.improvement(),
        inc.delta_stats.rows_rebuilt,
        inc.delta_stats.rows_copied,
    ));
}

fn finish(mut result: ExperimentResult, series: [(&str, Vec<(f64, f64)>); 2]) -> ExperimentResult {
    for (name, points) in series {
        result.push_series(Series::new(name, points));
    }
    result
}

/// `adaptive-n`: session wall-clock vs database size at a fixed budget.
pub fn adaptive_n(scale: Scale) -> Result<ExperimentResult> {
    let sizes: Vec<usize> = scale.pick(vec![1_000, 2_000, 4_000], vec![10_000, 20_000, 50_000]);
    let budget = scale.pick(8, 64);
    let k = datasets::DEFAULT_K;
    let mut result = ExperimentResult::new(
        "adaptive-n",
        "adaptive session wall-clock vs database size",
        "tuples n",
        "session time (ms)",
    );
    result.push_note(format!("k = {k}; budget C = {budget}; one session per point, shared seed"));
    let mut series = [("incremental", Vec::new()), ("full-rebuild", Vec::new())];
    for &n in &sizes {
        let db = datasets::synthetic_with_tuples(n)?;
        let setup = datasets::default_cleaning_setup(db.num_x_tuples())?;
        let pair = timed_pair(&db, &setup, k, budget)?;
        push_pair(&mut result, &mut series, n as f64, &pair);
    }
    Ok(finish(result, series))
}

/// `adaptive-c`: session wall-clock vs cleaning budget at a fixed size.
pub fn adaptive_c(scale: Scale) -> Result<ExperimentResult> {
    let budgets: Vec<u64> = scale.pick(vec![2, 4, 8, 16], vec![8, 16, 32, 64, 128]);
    let n = scale.pick(2_000, 10_000);
    let k = datasets::DEFAULT_K;
    let db = datasets::synthetic_with_tuples(n)?;
    let setup = datasets::default_cleaning_setup(db.num_x_tuples())?;
    let mut result = ExperimentResult::new(
        "adaptive-c",
        "adaptive session wall-clock vs cleaning budget",
        "budget C",
        "session time (ms)",
    );
    result
        .push_note(format!("k = {k}; n = {} tuples; one session per point, shared seed", db.len()));
    let mut series = [("incremental", Vec::new()), ("full-rebuild", Vec::new())];
    for &budget in &budgets {
        let pair = timed_pair(&db, &setup, k, budget)?;
        push_pair(&mut result, &mut series, budget as f64, &pair);
    }
    Ok(finish(result, series))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn adaptive_n_reports_both_replan_modes() {
        let r = adaptive_n(Scale::Quick).unwrap();
        for name in ["incremental", "full-rebuild"] {
            let s = r.series_named(name).unwrap();
            assert_eq!(s.points.len(), 3, "{name}");
            assert!(s.points.iter().all(|&(_, ms)| ms >= 0.0));
        }
        assert!(r.notes.iter().any(|n| n.contains("probes")));
    }

    #[test]
    fn adaptive_c_sweeps_the_budget() {
        let r = adaptive_c(Scale::Quick).unwrap();
        for name in ["incremental", "full-rebuild"] {
            assert_eq!(r.series_named(name).unwrap().points.len(), 4, "{name}");
        }
    }
}
