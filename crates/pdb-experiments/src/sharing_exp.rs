//! Experiments on sharing computation between query evaluation and quality
//! computation (Figure 5 of the paper, Section IV-C), and on the batched
//! multi-query generalisation of that sharing (`batch-q`, beyond the
//! paper): one PSR run at `k_max` serving a whole registered query set.

use crate::datasets;
use crate::report::{ExperimentResult, Series};
use crate::scale::{min_time_ms, time_ms, Scale};
use pdb_core::{RankedDatabase, Result};
use pdb_engine::psr::rank_probabilities;
use pdb_engine::queries::{global_topk, pt_k, u_k_ranks, TopKQuery};
use pdb_quality::{quality_tp, quality_tp_with, BatchQuality, WeightedQuery};

fn sweep_ks(scale: Scale) -> Vec<usize> {
    scale.pick(vec![5, 15, 30, 50, 80, 100], vec![1, 5, 15, 30, 50, 80, 100])
}

/// Figure 5(a): total time to obtain a PT-k answer *and* its quality score,
/// with and without sharing the PSR run.
pub fn fig5a(scale: Scale) -> Result<ExperimentResult> {
    let db = datasets::default_synthetic(scale)?;
    let mut result = ExperimentResult::new(
        "fig5a",
        "query + quality evaluation time, sharing vs non-sharing (PT-k)",
        "k",
        "time (ms)",
    );
    let mut sharing = Vec::new();
    let mut non_sharing = Vec::new();
    for &k in &sweep_ks(scale) {
        let x = k as f64;
        // Non-sharing: the query evaluates PSR, then quality evaluation
        // re-runs PSR from scratch.
        let (res, ms) = time_ms(|| -> Result<()> {
            let rp = rank_probabilities(&db, k)?;
            let _answer = pt_k(&db, &rp, datasets::DEFAULT_THRESHOLD)?;
            let _quality = quality_tp(&db, k)?;
            Ok(())
        });
        res?;
        non_sharing.push((x, ms));

        // Sharing: one PSR run feeds both the answer and the quality score.
        let (res, ms) = time_ms(|| -> Result<()> {
            let rp = rank_probabilities(&db, k)?;
            let _answer = pt_k(&db, &rp, datasets::DEFAULT_THRESHOLD)?;
            let _quality = quality_tp_with(&db, &rp);
            Ok(())
        });
        res?;
        sharing.push((x, ms));
    }
    result.push_note(format!("{} x-tuples, {} tuples", db.num_x_tuples(), db.len()));
    result.push_series(Series::new("non-sharing", non_sharing));
    result.push_series(Series::new("sharing", sharing));
    Ok(result)
}

/// Figure 5(b): PT-k evaluation time vs the *extra* time needed to compute
/// the quality from the shared rank probabilities (synthetic data).
pub fn fig5b(scale: Scale) -> Result<ExperimentResult> {
    let db = datasets::default_synthetic(scale)?;
    query_vs_quality_breakdown("fig5b", "PT-k time vs extra quality time (synthetic)", &db, scale)
}

/// Figure 5(d): the same breakdown on the MOV dataset.
pub fn fig5d(scale: Scale) -> Result<ExperimentResult> {
    let db = datasets::mov_dataset(scale)?;
    query_vs_quality_breakdown("fig5d", "PT-k time vs extra quality time (MOV)", &db, scale)
}

fn query_vs_quality_breakdown(
    id: &str,
    title: &str,
    db: &RankedDatabase,
    scale: Scale,
) -> Result<ExperimentResult> {
    let mut result = ExperimentResult::new(id, title, "k", "time (ms)");
    let mut query_points = Vec::new();
    let mut quality_points = Vec::new();
    for &k in &sweep_ks(scale) {
        let x = k as f64;
        // Query evaluation: PSR + PT-k selection.
        let (rp, query_ms) = time_ms(|| rank_probabilities(db, k));
        let rp = rp?;
        let (answer, select_ms) = time_ms(|| pt_k(db, &rp, datasets::DEFAULT_THRESHOLD));
        answer?;
        query_points.push((x, query_ms + select_ms));
        // Quality evaluation reusing the shared rank probabilities.
        let (_q, quality_ms) = time_ms(|| quality_tp_with(db, &rp));
        quality_points.push((x, quality_ms));
    }
    result.push_note(format!("{} x-tuples, {} tuples", db.num_x_tuples(), db.len()));
    result.push_series(Series::new("PT-k", query_points));
    result.push_series(Series::new("Quality", quality_points));
    Ok(result)
}

/// Figure 5(c): evaluation time of the three query semantics compared with
/// the extra quality-computation time.
pub fn fig5c(scale: Scale) -> Result<ExperimentResult> {
    let db = datasets::default_synthetic(scale)?;
    let mut result = ExperimentResult::new(
        "fig5c",
        "query evaluation time per semantics vs extra quality time",
        "k",
        "time (ms)",
    );
    let mut ukranks_points = Vec::new();
    let mut global_points = Vec::new();
    let mut ptk_points = Vec::new();
    let mut quality_points = Vec::new();
    for &k in &sweep_ks(scale) {
        let x = k as f64;
        let (rp, psr_ms) = time_ms(|| rank_probabilities(&db, k));
        let rp = rp?;
        let (_a, ms) = time_ms(|| u_k_ranks(&db, &rp));
        ukranks_points.push((x, psr_ms + ms));
        let (_a, ms) = time_ms(|| global_topk(&db, &rp));
        global_points.push((x, psr_ms + ms));
        let (a, ms) = time_ms(|| pt_k(&db, &rp, datasets::DEFAULT_THRESHOLD));
        a?;
        ptk_points.push((x, psr_ms + ms));
        let (_q, ms) = time_ms(|| quality_tp_with(&db, &rp));
        quality_points.push((x, ms));
    }
    result.push_note(format!("{} x-tuples, {} tuples", db.num_x_tuples(), db.len()));
    result.push_series(Series::new("U-kRanks", ukranks_points));
    result.push_series(Series::new("Global-topk", global_points));
    result.push_series(Series::new("PT-k", ptk_points));
    result.push_series(Series::new("Quality", quality_points));
    Ok(result)
}

/// The `k` of the largest registered query in the `batch-q` sweep.
pub const BATCH_K_MAX: usize = 200;

/// The registered query set of the `batch-q` experiment: `q` PT-k queries
/// with `k` spread evenly up to [`BATCH_K_MAX`] (for `q = 10`:
/// k = 20, 40, …, 200), all with weight 1.
pub fn batch_query_set(q: usize) -> Vec<WeightedQuery> {
    (1..=q)
        .map(|i| {
            WeightedQuery::new(TopKQuery::PTk {
                k: (BATCH_K_MAX * i).div_ceil(q),
                threshold: datasets::DEFAULT_THRESHOLD,
            })
        })
        .collect()
}

/// Beyond the paper: batched shared evaluation of a registered query set
/// vs one independent evaluation per query, sweeping the batch size `Q`
/// (n = 10⁴ tuples at quick scale, 10⁵ at paper scale).
///
/// Both sides produce every query's PT-k answer *and* quality score.  The
/// independent side runs one full PSR per query (Σᵢ n·kᵢ polynomial
/// steps); the batched side runs PSR once at `k_max` and serves every
/// query from prefix snapshots, so its cost stays ≈ n·k_max and the
/// speedup approaches Σᵢ kᵢ / k_max (5.5× for the 10-query set).
pub fn batch_q(scale: Scale) -> Result<ExperimentResult> {
    let n = scale.pick(10_000, 100_000);
    let db = datasets::synthetic_with_tuples(n)?;
    let mut result = ExperimentResult::new(
        "batch-q",
        "batched multi-query evaluation vs independent per-query runs",
        "Q (registered queries)",
        "time (ms)",
    );

    let mut independent = Vec::new();
    let mut batched = Vec::new();
    let mut speedups = Vec::new();
    for &q in &scale.pick(vec![2usize, 5, 10], vec![2, 5, 10, 20, 50]) {
        let x = q as f64;
        let specs = batch_query_set(q);

        // Independent: one full evaluation (PSR + answer + quality) per
        // registered query.
        let ((), indep_ms) = min_time_ms(|| -> Result<()> {
            for spec in &specs {
                let rp = rank_probabilities(&db, spec.query.k())?;
                let _answer = pt_k(&db, &rp, datasets::DEFAULT_THRESHOLD)?;
                let _quality = quality_tp_with(&db, &rp);
            }
            Ok(())
        })?;
        independent.push((x, indep_ms));

        // Batched: one PSR run at k_max serves every answer and quality.
        let ((), batch_ms) = min_time_ms(|| -> Result<()> {
            let batch = BatchQuality::new(&db, specs.clone())?;
            let _answers = batch.answers()?;
            let _qualities = batch.quality_vector();
            Ok(())
        })?;
        batched.push((x, batch_ms));
        speedups.push((x, indep_ms / batch_ms.max(1e-9)));
    }
    result.push_note(format!(
        "{} x-tuples, {} tuples, k_max = {BATCH_K_MAX}",
        db.num_x_tuples(),
        db.len()
    ));
    if let Some(&(q, s)) = speedups.last() {
        result.push_note(format!("shared-vs-independent speedup at Q = {q}: {s:.1}x"));
    }
    result.push_series(Series::new("independent", independent));
    result.push_series(Series::new("batched", batched));
    result.push_series(Series::new("speedup", speedups));
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig5a_sharing_is_not_slower_on_average() {
        let r = fig5a(Scale::Quick).unwrap();
        let sharing = r.series_named("sharing").unwrap();
        let non_sharing = r.series_named("non-sharing").unwrap();
        assert_eq!(sharing.points.len(), non_sharing.points.len());
        let total = |s: &Series| s.points.iter().map(|(_, y)| y).sum::<f64>();
        // Sharing skips one full PSR run per k, so the sweep total must be
        // smaller (allow generous slack for timer noise).
        assert!(
            total(sharing) < total(non_sharing) * 1.05,
            "sharing {} vs non-sharing {}",
            total(sharing),
            total(non_sharing)
        );
    }

    #[test]
    fn fig5b_quality_overhead_is_a_small_fraction() {
        let r = fig5b(Scale::Quick).unwrap();
        let query = r.series_named("PT-k").unwrap();
        let quality = r.series_named("Quality").unwrap();
        let query_total: f64 = query.points.iter().map(|(_, y)| y).sum();
        let quality_total: f64 = quality.points.iter().map(|(_, y)| y).sum();
        // The paper reports the quality overhead dropping to ~6% of the
        // query time; we only require it to stay below the query time.
        assert!(
            quality_total < query_total,
            "quality overhead {quality_total} should be below query time {query_total}"
        );
    }

    #[test]
    fn fig5c_has_all_four_series() {
        let r = fig5c(Scale::Quick).unwrap();
        for name in ["U-kRanks", "Global-topk", "PT-k", "Quality"] {
            assert!(!r.series_named(name).unwrap().points.is_empty(), "{name}");
        }
    }

    #[test]
    fn batch_q_produces_all_three_series() {
        // Wall-clock ratios are asserted only in the opt-in perf check
        // below — under a parallel `cargo test` on an oversubscribed
        // runner even a 2x margin can flake, and a timing blip must not
        // fail the functional suite.
        let r = batch_q(Scale::Quick).unwrap();
        for name in ["independent", "batched", "speedup"] {
            let series = r.series_named(name).unwrap();
            assert_eq!(series.points.len(), 3, "{name}");
            assert!(series.points.iter().all(|&(_, y)| y > 0.0), "{name}");
        }
        assert!(r.notes.iter().any(|n| n.contains("speedup at Q = 10")));
    }

    /// Opt-in perf regression check (`cargo test -- --ignored`): the
    /// 10-query batch must beat independent evaluation by well over 2x
    /// (amortization bound 5.5x; ~3.3-4x measured on one idle core).
    /// Run alone, not under the parallel test harness.
    #[test]
    #[ignore = "wall-clock assertion; run explicitly on an idle machine"]
    fn batch_q_beats_independent_evaluation() {
        let r = batch_q(Scale::Quick).unwrap();
        let q = 10.0;
        let indep = r.series_named("independent").unwrap().y_at(q).unwrap();
        let batch = r.series_named("batched").unwrap().y_at(q).unwrap();
        assert!(
            indep > 2.0 * batch,
            "10-query batch should be well over 2x faster: independent {indep} ms vs \
             batched {batch} ms"
        );
        assert!(r.series_named("speedup").unwrap().y_at(q).unwrap() > 2.0);
    }

    #[test]
    fn batch_query_set_spreads_ks_up_to_k_max() {
        let specs = batch_query_set(10);
        let ks: Vec<usize> = specs.iter().map(|s| s.query.k()).collect();
        assert_eq!(ks, vec![20, 40, 60, 80, 100, 120, 140, 160, 180, 200]);
        assert_eq!(batch_query_set(1)[0].query.k(), BATCH_K_MAX);
    }

    #[test]
    fn fig5d_runs_on_mov() {
        let r = fig5d(Scale::Quick).unwrap();
        assert_eq!(r.series.len(), 2);
        assert!(r.notes[0].contains("x-tuples"));
    }
}
