//! Cleaning algorithms: DP (optimal), Greedy, RandP and RandU.
//!
//! Section V-C of the paper reduces the cleaning problem to a 0/1 knapsack:
//! the `j`-th attempt on x-tuple `l` is an item of value `b(l, D, j)`
//! (Equation 21) and cost `c_l`, and because the marginal values are
//! non-increasing in `j` (Lemma 4) an optimal knapsack solution can always
//! be rearranged into attempt *prefixes*, i.e. a valid `(X, M)` pair
//! (Theorem 3).  Section V-D then gives four solvers:
//!
//! * [`plan_dp`] — dynamic programming over the knapsack, optimal,
//!   `O(C²·|Z|)` time;
//! * [`plan_greedy`] — pick items by value-per-unit-cost with a lazy heap,
//!   `O(C·|Z|·log |Z|)`, near-optimal in practice;
//! * [`plan_rand_p`] — random selection weighted by the x-tuples' top-k
//!   probability mass;
//! * [`plan_rand_u`] — uniformly random selection (the fairness baseline).
//!
//! [`plan_exhaustive`] enumerates every feasible plan and exists purely as
//! the optimality oracle for small instances.

use crate::improvement::{expected_improvement, marginal_gain, Attempt, CleaningContext};
use crate::model::{CleaningPlan, CleaningSetup};
use pdb_core::{DbError, Result};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::collections::BinaryHeap;

/// Validate that the context and setup describe the same x-tuples.
pub(crate) fn validate(ctx: &CleaningContext, setup: &CleaningSetup) -> Result<()> {
    if ctx.num_x_tuples() != setup.len() {
        return Err(DbError::invalid_parameter(format!(
            "cleaning context covers {} x-tuples but the setup covers {}",
            ctx.num_x_tuples(),
            setup.len()
        )));
    }
    Ok(())
}

/// The candidate set `Z` restricted to x-tuples that are affordable at all.
fn affordable_candidates(ctx: &CleaningContext, setup: &CleaningSetup, budget: u64) -> Vec<usize> {
    ctx.candidates().into_iter().filter(|&l| setup.cost(l) <= budget).collect()
}

// ---------------------------------------------------------------------------
// DP (optimal)
// ---------------------------------------------------------------------------

/// Optimal cleaning plan via dynamic programming over the equivalent 0/1
/// knapsack problem (Section V-D.1).
///
/// Runs in `O(C² · |Z| / min_cost)` time and `O(C · |Z|)` memory, which is
/// practical for budgets in the thousands; the paper's Figure 6(d) shows the
/// same quadratic blow-up for large `C`.
pub fn plan_dp(ctx: &CleaningContext, setup: &CleaningSetup, budget: u64) -> Result<CleaningPlan> {
    validate(ctx, setup)?;
    let m = ctx.num_x_tuples();
    let candidates = affordable_candidates(ctx, setup, budget);
    let budget_usize = usize::try_from(budget)
        .map_err(|_| DbError::invalid_parameter("budget too large for the DP algorithm"))?;
    let mut plan = CleaningPlan::empty(m);
    if candidates.is_empty() || budget == 0 {
        return Ok(plan);
    }

    // best[row][c]: maximum expected improvement using the first `row`
    // candidates and at most `c` budget units.
    let width = budget_usize + 1;
    let rows = candidates.len() + 1;
    let mut best = vec![0.0_f64; rows * width];

    for (row, &l) in candidates.iter().enumerate() {
        let cost = setup.cost(l) as usize;
        let max_attempts = budget_usize / cost;
        let (prev, cur) = best.split_at_mut((row + 1) * width);
        let prev = &prev[row * width..(row + 1) * width];
        let cur = &mut cur[..width];
        for c in 0..width {
            // Option: zero attempts on l.
            let mut value = prev[c];
            // Option: j attempts on l (value of the prefix of marginal gains).
            let mut prefix = 0.0;
            for j in 1..=max_attempts.min(c / cost) {
                prefix += marginal_gain(ctx, setup, l, j as u64);
                let candidate = prev[c - j * cost] + prefix;
                if candidate > value {
                    value = candidate;
                }
            }
            cur[c] = value;
        }
    }

    // Reconstruct the attempt counts by walking the table backwards.
    let mut c = budget_usize;
    for row in (0..candidates.len()).rev() {
        let l = candidates[row];
        let cost = setup.cost(l) as usize;
        let target = best[(row + 1) * width + c];
        let prev = &best[row * width..(row + 1) * width];
        let mut prefix = 0.0;
        let mut best_j = 0usize;
        let mut best_val = prev[c];
        for j in 1..=(c / cost) {
            prefix += marginal_gain(ctx, setup, l, j as u64);
            let candidate = prev[c - j * cost] + prefix;
            if candidate > best_val + 1e-15 {
                best_val = candidate;
                best_j = j;
            }
        }
        debug_assert!((best_val - target).abs() < 1e-9);
        if best_j > 0 {
            plan.set_count(l, best_j as u64);
            c -= best_j * cost;
        }
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Greedy
// ---------------------------------------------------------------------------

/// Greedy cleaning plan (Section V-D.4): repeatedly take the attempt with
/// the highest expected improvement per budget unit, as long as it fits.
///
/// Because marginal gains are non-increasing (Lemma 4), only the *next*
/// attempt of each x-tuple needs to sit in the heap.
pub fn plan_greedy(
    ctx: &CleaningContext,
    setup: &CleaningSetup,
    budget: u64,
) -> Result<CleaningPlan> {
    validate(ctx, setup)?;
    let m = ctx.num_x_tuples();
    let mut plan = CleaningPlan::empty(m);
    let mut remaining = budget;

    let mut heap: BinaryHeap<Attempt> = affordable_candidates(ctx, setup, budget)
        .into_iter()
        .map(|l| Attempt::planned(ctx, setup, l, 1))
        .collect();

    while let Some(item) = heap.pop() {
        if item.score <= 0.0 || remaining == 0 {
            break;
        }
        let cost = setup.cost(item.l);
        if cost > remaining {
            // Nothing cheaper will come from this x-tuple (its cost is
            // fixed), so drop it and keep looking at the others.
            continue;
        }
        plan.add_attempt(item.l);
        remaining -= cost;
        // Attempts beyond the budget's capacity can never be taken.
        if cost <= remaining {
            heap.push(Attempt::planned(ctx, setup, item.l, item.j + 1));
        }
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Random heuristics
// ---------------------------------------------------------------------------

/// RandU (Section V-D.2): pick affordable candidate x-tuples uniformly at
/// random, with replacement, until the budget can buy no further attempt.
pub fn plan_rand_u<R: Rng + ?Sized>(
    ctx: &CleaningContext,
    setup: &CleaningSetup,
    budget: u64,
    rng: &mut R,
) -> Result<CleaningPlan> {
    validate(ctx, setup)?;
    let candidates = ctx.candidates();
    let weights = vec![1.0; candidates.len()];
    random_plan(ctx, setup, budget, &candidates, &weights, rng)
}

/// RandP (Section V-D.3): like RandU, but an x-tuple's selection probability
/// is proportional to its top-k probability mass `Σ_{tᵢ∈τ_l} pᵢ / k`.
pub fn plan_rand_p<R: Rng + ?Sized>(
    ctx: &CleaningContext,
    setup: &CleaningSetup,
    budget: u64,
    rng: &mut R,
) -> Result<CleaningPlan> {
    validate(ctx, setup)?;
    let candidates = ctx.candidates();
    let weights: Vec<f64> = candidates.iter().map(|&l| ctx.x_topk[l].max(0.0)).collect();
    random_plan(ctx, setup, budget, &candidates, &weights, rng)
}

fn random_plan<R: Rng + ?Sized>(
    ctx: &CleaningContext,
    setup: &CleaningSetup,
    budget: u64,
    candidates: &[usize],
    weights: &[f64],
    rng: &mut R,
) -> Result<CleaningPlan> {
    let mut plan = CleaningPlan::empty(ctx.num_x_tuples());
    let mut remaining = budget;
    if candidates.is_empty() {
        return Ok(plan);
    }
    loop {
        // Restrict the draw to x-tuples that still fit the remaining budget
        // so the selection loop always terminates.
        let affordable: Vec<usize> =
            (0..candidates.len()).filter(|&i| setup.cost(candidates[i]) <= remaining).collect();
        if affordable.is_empty() {
            break;
        }
        let total_weight: f64 = affordable.iter().map(|&i| weights[i]).sum();
        let chosen_idx = if total_weight <= 0.0 {
            affordable[rng.gen_range(0..affordable.len())]
        } else {
            let mut u = rng.gen::<f64>() * total_weight;
            let mut chosen = affordable[affordable.len() - 1];
            for &i in &affordable {
                if u < weights[i] {
                    chosen = i;
                    break;
                }
                u -= weights[i];
            }
            chosen
        };
        let l = candidates[chosen_idx];
        plan.add_attempt(l);
        remaining -= setup.cost(l);
    }
    Ok(plan)
}

// ---------------------------------------------------------------------------
// Exhaustive oracle
// ---------------------------------------------------------------------------

/// Enumerate every feasible plan and return one with maximum expected
/// improvement.  Exponential; only usable on tiny instances, where it serves
/// as the optimality oracle for [`plan_dp`].
pub fn plan_exhaustive(
    ctx: &CleaningContext,
    setup: &CleaningSetup,
    budget: u64,
) -> Result<CleaningPlan> {
    validate(ctx, setup)?;
    let candidates = affordable_candidates(ctx, setup, budget);
    let mut best = CleaningPlan::empty(ctx.num_x_tuples());
    let mut best_value = 0.0;
    let mut current = CleaningPlan::empty(ctx.num_x_tuples());
    #[allow(clippy::too_many_arguments)]
    fn recurse(
        ctx: &CleaningContext,
        setup: &CleaningSetup,
        candidates: &[usize],
        idx: usize,
        remaining: u64,
        current: &mut CleaningPlan,
        best: &mut CleaningPlan,
        best_value: &mut f64,
    ) {
        if idx == candidates.len() {
            let value = expected_improvement(ctx, setup, current);
            if value > *best_value + 1e-15 {
                *best_value = value;
                *best = current.clone();
            }
            return;
        }
        let l = candidates[idx];
        let cost = setup.cost(l);
        let max_attempts = remaining / cost;
        for attempts in 0..=max_attempts {
            current.set_count(l, attempts);
            recurse(
                ctx,
                setup,
                candidates,
                idx + 1,
                remaining - attempts * cost,
                current,
                best,
                best_value,
            );
        }
        current.set_count(l, 0);
    }
    recurse(ctx, setup, &candidates, 0, budget, &mut current, &mut best, &mut best_value);
    Ok(best)
}

// ---------------------------------------------------------------------------
// Algorithm selector
// ---------------------------------------------------------------------------

/// The cleaning algorithms evaluated in the paper, as a selectable enum
/// (used by the experiment harness and the CLI).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CleaningAlgorithm {
    /// Optimal dynamic programming (Section V-D.1).
    Dp,
    /// Greedy by improvement-per-cost (Section V-D.4).
    Greedy,
    /// Random, weighted by top-k probability (Section V-D.3).
    RandP,
    /// Random, uniform (Section V-D.2).
    RandU,
}

impl CleaningAlgorithm {
    /// All algorithms, in the order the paper's figures list them.
    pub const ALL: [CleaningAlgorithm; 4] = [
        CleaningAlgorithm::Dp,
        CleaningAlgorithm::Greedy,
        CleaningAlgorithm::RandP,
        CleaningAlgorithm::RandU,
    ];

    /// Human-readable name matching the paper.
    pub fn name(&self) -> &'static str {
        match self {
            CleaningAlgorithm::Dp => "DP",
            CleaningAlgorithm::Greedy => "Greedy",
            CleaningAlgorithm::RandP => "RandP",
            CleaningAlgorithm::RandU => "RandU",
        }
    }

    /// Produce a cleaning plan with this algorithm.  The random heuristics
    /// draw from `rng`; DP and Greedy ignore it.
    pub fn plan<R: Rng + ?Sized>(
        &self,
        ctx: &CleaningContext,
        setup: &CleaningSetup,
        budget: u64,
        rng: &mut R,
    ) -> Result<CleaningPlan> {
        match self {
            CleaningAlgorithm::Dp => plan_dp(ctx, setup, budget),
            CleaningAlgorithm::Greedy => plan_greedy(ctx, setup, budget),
            CleaningAlgorithm::RandP => plan_rand_p(ctx, setup, budget, rng),
            CleaningAlgorithm::RandU => plan_rand_u(ctx, setup, budget, rng),
        }
    }
}

impl std::fmt::Display for CleaningAlgorithm {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pdb_core::RankedDatabase;
    use rand::{rngs::StdRng, SeedableRng};

    fn udb1() -> RankedDatabase {
        RankedDatabase::from_scored_x_tuples(&[
            vec![(21.0, 0.6), (32.0, 0.4)],
            vec![(30.0, 0.7), (22.0, 0.3)],
            vec![(25.0, 0.4), (27.0, 0.6)],
            vec![(26.0, 1.0)],
        ])
        .unwrap()
    }

    fn random_db(seed: u64, m: usize) -> RankedDatabase {
        use rand::Rng;
        let mut rng = StdRng::seed_from_u64(seed);
        let mut x_tuples = Vec::new();
        for _ in 0..m {
            let alts = rng.gen_range(1..4);
            let mut remaining: f64 = 1.0;
            let mut v = Vec::new();
            for _ in 0..alts {
                let p = remaining * rng.gen_range(0.2..0.9);
                remaining -= p;
                v.push((rng.gen_range(0.0..100.0), p));
            }
            x_tuples.push(v);
        }
        RankedDatabase::from_scored_x_tuples(&x_tuples).unwrap()
    }

    #[test]
    fn dp_matches_the_exhaustive_optimum_on_small_instances() {
        use rand::Rng;
        for seed in 0..8 {
            let db = random_db(seed, 5);
            let ctx = CleaningContext::prepare(&db, 2).unwrap();
            let mut rng = StdRng::seed_from_u64(seed + 100);
            let costs: Vec<u64> = (0..5).map(|_| rng.gen_range(1..=4)).collect();
            let probs: Vec<f64> = (0..5).map(|_| rng.gen_range(0.2..1.0)).collect();
            let setup = CleaningSetup::new(costs, probs).unwrap();
            for budget in [0_u64, 1, 3, 7, 12] {
                let dp = plan_dp(&ctx, &setup, budget).unwrap();
                let brute = plan_exhaustive(&ctx, &setup, budget).unwrap();
                let v_dp = expected_improvement(&ctx, &setup, &dp);
                let v_brute = expected_improvement(&ctx, &setup, &brute);
                assert!(dp.validate(&setup, budget).is_ok());
                assert!(
                    (v_dp - v_brute).abs() < 1e-9,
                    "seed {seed}, budget {budget}: DP {v_dp} vs exhaustive {v_brute}"
                );
            }
        }
    }

    #[test]
    fn greedy_is_feasible_and_close_to_optimal() {
        let db = udb1();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        let setup = CleaningSetup::new(vec![2, 3, 1, 4], vec![0.6, 0.8, 0.5, 0.9]).unwrap();
        for budget in [1_u64, 2, 5, 10, 50] {
            let greedy = plan_greedy(&ctx, &setup, budget).unwrap();
            let dp = plan_dp(&ctx, &setup, budget).unwrap();
            assert!(greedy.validate(&setup, budget).is_ok());
            let v_greedy = expected_improvement(&ctx, &setup, &greedy);
            let v_dp = expected_improvement(&ctx, &setup, &dp);
            assert!(v_greedy <= v_dp + 1e-12, "greedy cannot beat the optimum");
            // The knapsack greedy guarantee is weak in theory, but on these
            // instances it should stay within a comfortable factor.
            assert!(
                v_greedy >= 0.5 * v_dp - 1e-12,
                "budget {budget}: greedy {v_greedy} too far from optimal {v_dp}"
            );
        }
    }

    #[test]
    fn greedy_never_selects_useless_x_tuples() {
        // S4 (certain) has g = 0 in a certain database; nothing is selected.
        let db =
            RankedDatabase::from_scored_x_tuples(&[vec![(3.0, 1.0)], vec![(2.0, 1.0)]]).unwrap();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        let setup = CleaningSetup::uniform(2, 1, 0.9).unwrap();
        assert!(ctx.candidates().is_empty());
        let plan = plan_greedy(&ctx, &setup, 100).unwrap();
        assert_eq!(plan.total_attempts(), 0);
        let plan = plan_dp(&ctx, &setup, 100).unwrap();
        assert_eq!(plan.total_attempts(), 0);
    }

    #[test]
    fn zero_budget_produces_the_empty_plan() {
        let db = udb1();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        let setup = CleaningSetup::uniform(4, 1, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(0);
        for algo in CleaningAlgorithm::ALL {
            let plan = algo.plan(&ctx, &setup, 0, &mut rng).unwrap();
            assert_eq!(plan.total_attempts(), 0, "{algo}");
        }
    }

    #[test]
    fn random_heuristics_spend_the_budget() {
        let db = udb1();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        let setup = CleaningSetup::uniform(4, 2, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(5);
        for budget in [2_u64, 7, 20] {
            let u = plan_rand_u(&ctx, &setup, budget, &mut rng).unwrap();
            let p = plan_rand_p(&ctx, &setup, budget, &mut rng).unwrap();
            for plan in [&u, &p] {
                assert!(plan.validate(&setup, budget).is_ok());
                // With uniform cost 2, the leftover is at most 1 unit.
                assert!(budget - plan.total_cost(&setup) < 2);
            }
        }
    }

    #[test]
    fn rand_p_prefers_high_topk_x_tuples() {
        // Construct a database where x-tuple 0 has (almost) all the top-k
        // probability mass; RandP should pick it far more often than RandU.
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(100.0, 0.5), (99.0, 0.5)],
            vec![(1.0, 0.5), (0.5, 0.5)],
        ])
        .unwrap();
        let ctx = CleaningContext::prepare(&db, 1).unwrap();
        let setup = CleaningSetup::uniform(2, 1, 0.5).unwrap();
        let mut rng = StdRng::seed_from_u64(11);
        let mut rand_p_hits = 0u64;
        for _ in 0..200 {
            let plan = plan_rand_p(&ctx, &setup, 1, &mut rng).unwrap();
            if plan.count(0) == 1 {
                rand_p_hits += 1;
            }
        }
        // x-tuple 0 holds ~100% of the top-1 mass, so RandP should almost
        // always pick it.
        assert!(rand_p_hits > 180, "RandP picked the heavy x-tuple only {rand_p_hits}/200 times");
    }

    #[test]
    fn ordering_of_algorithms_matches_the_paper_on_average() {
        // Figure 6(a): DP ≥ Greedy ≥ RandP ≥ RandU (in expectation).
        let db = random_db(77, 12);
        let ctx = CleaningContext::prepare(&db, 3).unwrap();
        use rand::Rng;
        let mut setup_rng = StdRng::seed_from_u64(78);
        let costs: Vec<u64> = (0..12).map(|_| setup_rng.gen_range(1..=10)).collect();
        let probs: Vec<f64> = (0..12).map(|_| setup_rng.gen_range(0.0..1.0)).collect();
        let setup = CleaningSetup::new(costs, probs).unwrap();
        let budget = 30;

        let dp = expected_improvement(&ctx, &setup, &plan_dp(&ctx, &setup, budget).unwrap());
        let greedy =
            expected_improvement(&ctx, &setup, &plan_greedy(&ctx, &setup, budget).unwrap());
        let mut rng = StdRng::seed_from_u64(79);
        let trials = 60;
        let mut rp_sum = 0.0;
        let mut ru_sum = 0.0;
        for _ in 0..trials {
            rp_sum += expected_improvement(
                &ctx,
                &setup,
                &plan_rand_p(&ctx, &setup, budget, &mut rng).unwrap(),
            );
            ru_sum += expected_improvement(
                &ctx,
                &setup,
                &plan_rand_u(&ctx, &setup, budget, &mut rng).unwrap(),
            );
        }
        let rand_p = rp_sum / trials as f64;
        let rand_u = ru_sum / trials as f64;
        assert!(dp >= greedy - 1e-12);
        assert!(greedy >= rand_p - 1e-9, "greedy {greedy} vs RandP {rand_p}");
        assert!(
            rand_p >= rand_u - 0.05 * rand_u.abs().max(1e-9),
            "RandP {rand_p} vs RandU {rand_u}"
        );
        assert!(dp > 0.0);
    }

    #[test]
    fn algorithm_enum_metadata() {
        assert_eq!(CleaningAlgorithm::Dp.name(), "DP");
        assert_eq!(CleaningAlgorithm::Greedy.to_string(), "Greedy");
        assert_eq!(CleaningAlgorithm::ALL.len(), 4);
    }

    #[test]
    fn mismatched_setup_is_rejected() {
        let db = udb1();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        let setup = CleaningSetup::uniform(3, 1, 0.5).unwrap();
        assert!(plan_dp(&ctx, &setup, 10).is_err());
        assert!(plan_greedy(&ctx, &setup, 10).is_err());
        let mut rng = StdRng::seed_from_u64(0);
        assert!(plan_rand_u(&ctx, &setup, 10, &mut rng).is_err());
        assert!(plan_rand_p(&ctx, &setup, 10, &mut rng).is_err());
        assert!(plan_exhaustive(&ctx, &setup, 10).is_err());
    }
}
