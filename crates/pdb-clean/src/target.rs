//! Minimum-cost cleaning for a target quality (the paper's future work).
//!
//! Section VII of the paper closes with: *"We will also examine other
//! uncertain data cleaning problem\[s\], e.g., how to use minimal cost to
//! attain a given quality score."*  This module implements that dual
//! problem: instead of maximising the expected improvement under a fixed
//! budget, find the cheapest plan whose expected improvement reaches a
//! target.
//!
//! Two solvers are provided:
//!
//! * [`min_cost_greedy`] — repeatedly buy the attempt with the best
//!   improvement-per-cost ratio until the target is reached (the natural
//!   dual of the paper's Greedy algorithm);
//! * [`min_cost_optimal`] — exponential + binary search over the budget,
//!   solving the forward problem optimally with [`plan_dp`] at each probe;
//!   the smallest budget whose optimal improvement reaches the target is
//!   returned together with the corresponding plan.
//!
//! Because a cleaning attempt can fail, some targets are unreachable with
//! any finite budget: the achievable improvement is capped by
//! [`max_achievable_improvement`], the limit of Theorem 2 as every attempt
//! count goes to infinity.

use crate::algorithms::{plan_dp, validate};
use crate::improvement::{expected_improvement, marginal_gain, Attempt, CleaningContext};
use crate::model::{CleaningPlan, CleaningSetup};
use pdb_core::{DbError, Result};
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// A plan found by one of the min-cost solvers.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TargetPlan {
    /// The cleaning plan.
    pub plan: CleaningPlan,
    /// Total cost of the plan.
    pub cost: u64,
    /// Expected quality improvement of the plan (≥ the requested target).
    pub expected_improvement: f64,
}

/// The largest expected improvement any plan can achieve, regardless of
/// budget: `Σ_l −g(l, D)` over candidates whose sc-probability is positive
/// (an x-tuple that can never be cleaned successfully contributes nothing).
pub fn max_achievable_improvement(ctx: &CleaningContext, setup: &CleaningSetup) -> f64 {
    ctx.candidate_iter().filter(|&l| setup.sc_prob(l) > 0.0).map(|l| -ctx.g[l]).sum()
}

fn validate_target(ctx: &CleaningContext, setup: &CleaningSetup, target: f64) -> Result<()> {
    validate(ctx, setup)?;
    if !target.is_finite() || target < 0.0 {
        return Err(DbError::invalid_parameter(format!(
            "target improvement must be a non-negative finite number, got {target}"
        )));
    }
    Ok(())
}

/// Greedy minimum-cost plan reaching `target_improvement`.
///
/// Returns `Ok(None)` when the target exceeds the achievable improvement
/// (within a small tolerance to absorb the asymptotic tail of repeated
/// failed attempts: the greedy loop stops once the residual gap can no
/// longer be closed by a full unit of marginal gain).
pub fn min_cost_greedy(
    ctx: &CleaningContext,
    setup: &CleaningSetup,
    target_improvement: f64,
) -> Result<Option<TargetPlan>> {
    validate_target(ctx, setup, target_improvement)?;
    let mut plan = CleaningPlan::empty(ctx.num_x_tuples());
    if target_improvement <= 0.0 {
        return Ok(Some(TargetPlan { plan, cost: 0, expected_improvement: 0.0 }));
    }
    if target_improvement > max_achievable_improvement(ctx, setup) + 1e-12 {
        return Ok(None);
    }

    // Lazy best-ratio selection, as in the forward Greedy: the candidate
    // heap holds, per x-tuple, its *next* attempt.
    // A cleaner that never succeeds scores 0 and surfaces only once no
    // attempt can gain anything, which ends the search below.
    let mut heap: BinaryHeap<Attempt> =
        ctx.candidate_iter().map(|l| Attempt::planned(ctx, setup, l, 1)).collect();

    let mut achieved = 0.0;
    let mut cost = 0u64;
    while achieved + 1e-12 < target_improvement {
        let Some(item) = heap.pop() else {
            // Numerically unreachable tail (marginal gains underflowed).
            return Ok(None);
        };
        let gain = marginal_gain(ctx, setup, item.l, item.j);
        if gain <= 0.0 {
            return Ok(None);
        }
        plan.add_attempt(item.l);
        cost += setup.cost(item.l);
        achieved += gain;
        heap.push(Attempt::planned(ctx, setup, item.l, item.j + 1));
    }
    let expected = expected_improvement(ctx, setup, &plan);
    Ok(Some(TargetPlan { plan, cost, expected_improvement: expected }))
}

/// Minimum-budget plan (optimal with respect to the DP forward solver)
/// reaching `target_improvement`.
///
/// Doubles the budget until the optimal improvement reaches the target,
/// then binary-searches the smallest sufficient budget, and finally
/// re-plans at that budget.  Returns `Ok(None)` when the target is
/// unreachable.  `max_budget` bounds the search (and the DP table size).
pub fn min_cost_optimal(
    ctx: &CleaningContext,
    setup: &CleaningSetup,
    target_improvement: f64,
    max_budget: u64,
) -> Result<Option<TargetPlan>> {
    validate_target(ctx, setup, target_improvement)?;
    if target_improvement <= 0.0 {
        return Ok(Some(TargetPlan {
            plan: CleaningPlan::empty(ctx.num_x_tuples()),
            cost: 0,
            expected_improvement: 0.0,
        }));
    }
    if target_improvement > max_achievable_improvement(ctx, setup) + 1e-12 {
        return Ok(None);
    }
    let reaches = |budget: u64| -> Result<bool> {
        let plan = plan_dp(ctx, setup, budget)?;
        Ok(expected_improvement(ctx, setup, &plan) + 1e-12 >= target_improvement)
    };

    // Exponential search for a sufficient budget.
    let mut hi = 1u64;
    while hi < max_budget && !reaches(hi)? {
        hi = (hi * 2).min(max_budget);
    }
    if !reaches(hi)? {
        return Ok(None);
    }
    // Binary search for the smallest sufficient budget.
    let mut lo = 0u64;
    while lo + 1 < hi {
        let mid = lo + (hi - lo) / 2;
        if reaches(mid)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    let plan = plan_dp(ctx, setup, hi)?;
    let expected = expected_improvement(ctx, setup, &plan);
    Ok(Some(TargetPlan { cost: plan.total_cost(setup), plan, expected_improvement: expected }))
}

/// Convenience wrapper: minimum cost to raise the quality score itself to
/// at least `target_quality` (in expectation).
pub fn min_cost_for_quality_greedy(
    ctx: &CleaningContext,
    setup: &CleaningSetup,
    target_quality: f64,
) -> Result<Option<TargetPlan>> {
    min_cost_greedy(ctx, setup, (target_quality - ctx.quality).max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_core::RankedDatabase;

    fn udb1() -> RankedDatabase {
        RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ])
        .unwrap()
    }

    fn ctx_and_setup(sc: f64) -> (CleaningContext, CleaningSetup) {
        let db = udb1();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        let setup = CleaningSetup::new(vec![2, 3, 1, 5], vec![sc; 4]).unwrap();
        (ctx, setup)
    }

    #[test]
    fn max_achievable_equals_total_ambiguity_when_cleaning_can_succeed() {
        let (ctx, setup) = ctx_and_setup(0.5);
        assert!((max_achievable_improvement(&ctx, &setup) - (-ctx.quality)).abs() < 1e-9);
        // With sc-probability 0 nothing is achievable.
        let hopeless = CleaningSetup::uniform(4, 1, 0.0).unwrap();
        assert_eq!(max_achievable_improvement(&ctx, &hopeless), 0.0);
    }

    #[test]
    fn zero_target_costs_nothing() {
        let (ctx, setup) = ctx_and_setup(0.9);
        let plan = min_cost_greedy(&ctx, &setup, 0.0).unwrap().unwrap();
        assert_eq!(plan.cost, 0);
        let plan = min_cost_optimal(&ctx, &setup, 0.0, 1_000).unwrap().unwrap();
        assert_eq!(plan.cost, 0);
    }

    #[test]
    fn unreachable_targets_are_reported() {
        let (ctx, setup) = ctx_and_setup(0.9);
        let too_much = -ctx.quality + 1.0;
        assert!(min_cost_greedy(&ctx, &setup, too_much).unwrap().is_none());
        assert!(min_cost_optimal(&ctx, &setup, too_much, 10_000).unwrap().is_none());
        // Negative and non-finite targets are rejected outright.
        assert!(min_cost_greedy(&ctx, &setup, -1.0).is_err());
        assert!(min_cost_optimal(&ctx, &setup, f64::NAN, 100).is_err());
    }

    #[test]
    fn greedy_plans_reach_the_target_and_respect_reported_cost() {
        let (ctx, setup) = ctx_and_setup(0.7);
        let total = -ctx.quality;
        for fraction in [0.25, 0.5, 0.9] {
            let target = total * fraction;
            let result = min_cost_greedy(&ctx, &setup, target).unwrap().unwrap();
            assert!(result.expected_improvement + 1e-9 >= target);
            assert_eq!(result.cost, result.plan.total_cost(&setup));
            assert!(result.plan.total_attempts() > 0);
        }
    }

    #[test]
    fn optimal_cost_never_exceeds_greedy_cost() {
        let (ctx, setup) = ctx_and_setup(0.6);
        let total = -ctx.quality;
        for fraction in [0.3, 0.6, 0.85] {
            let target = total * fraction;
            let greedy = min_cost_greedy(&ctx, &setup, target).unwrap().unwrap();
            let optimal = min_cost_optimal(&ctx, &setup, target, 10_000).unwrap().unwrap();
            assert!(optimal.expected_improvement + 1e-9 >= target);
            assert!(
                optimal.cost <= greedy.cost,
                "optimal cost {} should not exceed greedy cost {}",
                optimal.cost,
                greedy.cost
            );
        }
    }

    #[test]
    fn optimal_cost_is_minimal_by_exhaustive_check() {
        // Every budget below the reported one must fail to reach the target
        // even with the optimal forward plan.
        let (ctx, setup) = ctx_and_setup(0.8);
        let target = -ctx.quality * 0.7;
        let optimal = min_cost_optimal(&ctx, &setup, target, 10_000).unwrap().unwrap();
        for budget in 0..optimal.cost {
            let plan = plan_dp(&ctx, &setup, budget).unwrap();
            assert!(
                expected_improvement(&ctx, &setup, &plan) + 1e-12 < target,
                "budget {budget} should be insufficient (optimal cost {})",
                optimal.cost
            );
        }
    }

    #[test]
    fn quality_target_wrapper_translates_correctly() {
        let (ctx, setup) = ctx_and_setup(0.9);
        // Ask for quality at least half-way between the current score and 0.
        let target_quality = ctx.quality / 2.0;
        let result = min_cost_for_quality_greedy(&ctx, &setup, target_quality).unwrap().unwrap();
        assert!(ctx.quality + result.expected_improvement + 1e-9 >= target_quality);
        // A target below the current quality is free.
        let free = min_cost_for_quality_greedy(&ctx, &setup, ctx.quality - 1.0).unwrap().unwrap();
        assert_eq!(free.cost, 0);
    }

    #[test]
    fn greedy_falls_back_to_none_when_gains_underflow() {
        // Tiny sc-probability: the achievable cap is still the full
        // ambiguity, but reaching 99.99% of it requires astronomically many
        // attempts; the solver must terminate (either plan or None) rather
        // than loop forever.
        let (ctx, setup) = ctx_and_setup(1e-3);
        let target = -ctx.quality * 0.9999;
        let result = min_cost_greedy(&ctx, &setup, target).unwrap();
        if let Some(plan) = result {
            assert!(plan.expected_improvement + 1e-9 >= target);
        }
    }
}
