//! Expected quality improvement of a cleaning plan.
//!
//! The central quantity of the cleaning problem (Definition 6 of the paper)
//! is the expected improvement `I(X, M, D, Q) = E[S(D′, Q)] − S(D, Q)` over
//! the random outcome `D′` of executing the plan.  Theorem 2 collapses the
//! expectation into closed form:
//!
//! ```text
//! I(X, M, D, Q) = − Σ_{τ_l ∈ X} (1 − (1 − P_l)^{M_l}) · g(l, D)
//! ```
//!
//! where `g(l, D) = Σ_{tᵢ ∈ τ_l} ωᵢ·pᵢ` is x-tuple `l`'s contribution to the
//! quality score.  This module provides that closed form, the marginal gain
//! `b(l, D, j)` of the `j`-th attempt (Equation 21), the brute-force
//! expectation over all possible cleaned databases (Equation 17 — the test
//! oracle for Theorem 2), and a Monte-Carlo cleaning simulator that actually
//! executes a plan.
//!
//! It is also the one home of three cleaning rules the rest of the crate
//! routes through: candidacy (`is_candidate`, Lemma 5), the attempt order
//! (`Attempt`, gain per unit cost) and the revealed outcome
//! (`select_alternative`, which reveals null only for an x-tuple whose
//! null mass exceeds [`PROB_EPSILON`](pdb_core::PROB_EPSILON)).

use crate::model::{CleaningPlan, CleaningSetup};
use pdb_core::{DbError, RankedDatabase, Result, TupleId};
use pdb_quality::{quality_tp, BatchQuality, TopKQuery, WeightedQuery};
use rand::Rng;
use serde::{Deserialize, Serialize};
use std::cmp::Ordering;

/// `g(l, D)` values below this magnitude are treated as zero: cleaning such
/// an x-tuple cannot measurably improve quality (Lemma 5).
pub const G_EPSILON: f64 = 1e-12;

/// The candidacy rule (Lemma 5): cleaning x-tuple `l` can improve the
/// quality only when its contribution `g(l, D)` is negative, and a `g`
/// within [`G_EPSILON`] of zero is rounding residue.  Every planner, the
/// target solvers and the adaptive session select through it.
pub(crate) fn is_candidate(g_l: f64) -> bool {
    g_l < -G_EPSILON
}

/// Everything the cleaning algorithms need to know about the database and
/// the query: the quality score, its per-x-tuple decomposition `g(l, D)`,
/// and the per-x-tuple top-k probability mass (used by the RandP heuristic).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CleaningContext {
    /// The `k` of the top-k query being improved.
    pub k: usize,
    /// The PWS-quality `S(D, Q)` of the query on the un-cleaned database.
    pub quality: f64,
    /// `g(l, D)` for every x-tuple.
    pub g: Vec<f64>,
    /// `Σ_{tᵢ ∈ τ_l} pᵢ` for every x-tuple (RandP's selection weight).
    pub x_topk: Vec<f64>,
}

impl CleaningContext {
    /// Run the shared PSR + TP evaluation once and extract the quantities
    /// the cleaning algorithms need.  The quality of a top-k query depends
    /// only on `k`, so a one-query batch of any semantics serves it.
    pub fn prepare(db: &RankedDatabase, k: usize) -> Result<Self> {
        let query = WeightedQuery::new(TopKQuery::UKRanks { k });
        Ok(Self::from_batch(&BatchQuality::new(db, vec![query])?))
    }

    /// The *aggregate* cleaning context of a whole registered query set:
    /// quality and decomposition are the weighted sums `Σ_q w_q·S_q` and
    /// `g_agg(l) = Σ_q w_q·g_q(l)` served by the batch's one shared PSR
    /// run.
    ///
    /// The aggregate is a fixed non-negative combination of per-query
    /// qualities, so Theorem 2 (and Lemmas 4/5 behind the planners) apply
    /// to it verbatim: every planner in [`crate::algorithms`] runs
    /// unchanged on the returned context and then maximizes the expected
    /// improvement summed over every registered query — the
    /// pick-one-plan-for-all-tenants step of a multi-query deployment.
    ///
    /// The per-tuple work covers only the batch's live prefix (the tail
    /// cut at `k_max`, Lemma 2's on complete data), so a context costs
    /// O(live·Q + m), not O(n·Q).
    pub fn from_batch(batch: &BatchQuality<'_>) -> Self {
        let db = batch.database();
        let (g, combined) = batch.aggregate_parts();
        let quality = g.iter().sum();
        let mut x_topk = vec![0.0; db.num_x_tuples()];
        // `combined` covers the shared matrix's live prefix; every later
        // tuple has probability zero under every registered query.
        for (pos, &p) in combined.iter().enumerate() {
            x_topk[db.tuple(pos).x_index] += p;
        }
        Self { k: batch.evaluation().k_max(), quality, g, x_topk }
    }

    /// Number of x-tuples.
    pub fn num_x_tuples(&self) -> usize {
        self.g.len()
    }

    /// The candidate set `Z`: x-tuples whose contribution `g(l, D)` is
    /// non-zero, i.e. the only ones worth cleaning (Lemma 5 of the paper).
    pub fn candidates(&self) -> Vec<usize> {
        self.candidate_iter().collect()
    }

    /// [`candidates`](Self::candidates) in increasing x-index, unallocated.
    pub(crate) fn candidate_iter(&self) -> impl Iterator<Item = usize> + '_ {
        (0..self.g.len()).filter(|&l| is_candidate(self.g[l]))
    }
}

/// One `pclean` attempt — the `j`-th on x-tuple `l` — ordered by its
/// expected improvement per budget unit, `b(l, D, j) / c_l`, with ties
/// going to the lower x-index so every choice is deterministic.  This is
/// the one attempt order: [`plan_greedy`](crate::algorithms::plan_greedy)
/// and [`min_cost_greedy`](crate::target::min_cost_greedy) heap it, and
/// [`best_single_probe`] and the adaptive session take its maximum
/// ([`Attempt::best`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Attempt {
    /// `b(l, D, j) / c_l`.
    pub(crate) score: f64,
    /// The x-tuple.
    pub(crate) l: usize,
    /// Which attempt on it, from 1.
    pub(crate) j: u64,
}

impl Attempt {
    /// Attempt `j` on x-tuple `l`, whose contribution is `g_l` and whose
    /// cleaner succeeds with `sc_prob` at `cost` per attempt.
    pub(crate) fn new(l: usize, j: u64, g_l: f64, sc_prob: f64, cost: u64) -> Self {
        Self { score: marginal_gain_raw(g_l, sc_prob, j) / cost as f64, l, j }
    }

    /// Attempt `j` on x-tuple `l` of a planning context.
    pub(crate) fn planned(ctx: &CleaningContext, setup: &CleaningSetup, l: usize, j: u64) -> Self {
        Self::new(l, j, ctx.g[l], setup.sc_prob(l), setup.cost(l))
    }

    /// The best of `attempts`, if it improves the quality at all: a score
    /// of zero (a cleaner that never succeeds, or a gain that underflowed)
    /// is never worth its cost, however ambiguous the x-tuple is.
    pub(crate) fn best(attempts: impl Iterator<Item = Attempt>) -> Option<Attempt> {
        attempts.max().filter(|a| a.score > 0.0)
    }
}

impl PartialEq for Attempt {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other) == Ordering::Equal
    }
}
impl Eq for Attempt {}
impl PartialOrd for Attempt {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Attempt {
    fn cmp(&self, other: &Self) -> Ordering {
        self.score.total_cmp(&other.score).then_with(|| other.l.cmp(&self.l))
    }
}

/// The marginal gain `b(l, D, j)` of raising x-tuple `l`'s attempt count
/// from `j − 1` to `j` (Equation 21): `−(1 − P_l)^{j−1} · P_l · g(l, D)`.
///
/// Monotonically non-increasing in `j` (Lemma 4), which is what makes the
/// greedy algorithm near-optimal.
pub fn marginal_gain(ctx: &CleaningContext, setup: &CleaningSetup, l: usize, j: u64) -> f64 {
    marginal_gain_raw(ctx.g[l], setup.sc_prob(l), j)
}

/// [`marginal_gain`] from raw components: the x-tuple's quality
/// contribution `g(l, D)` and its sc-probability.  Used by callers whose
/// `g` vector comes from an incrementally maintained evaluation rather
/// than a [`CleaningContext`].
pub fn marginal_gain_raw(g_l: f64, sc_prob: f64, j: u64) -> f64 {
    if j == 0 {
        return 0.0;
    }
    -(1.0 - sc_prob).powi((j - 1).min(i32::MAX as u64) as i32) * sc_prob * g_l
}

/// The expected quality improvement of a plan (Theorem 2).
pub fn expected_improvement(
    ctx: &CleaningContext,
    setup: &CleaningSetup,
    plan: &CleaningPlan,
) -> f64 {
    let mut total = 0.0;
    for l in 0..ctx.num_x_tuples() {
        let m = plan.count(l);
        if m > 0 {
            total -= setup.success_prob(l, m) * ctx.g[l];
        }
    }
    total
}

/// The single next cleaning action with the best expected improvement per
/// unit cost: `argmax_l b(l, D, 1) / c_l` over the candidate set.
///
/// Returns the chosen x-tuple and the expected improvement `b(l, D, 1)` of
/// one attempt on it, or `None` when no x-tuple can improve the quality
/// (the database is effectively certain, or no candidate's cleaner can
/// succeed).  On a context built with
/// [`CleaningContext::from_batch`] this is the probe maximizing the
/// *aggregate* improvement across every registered query — the greedy
/// serving-loop step of a multi-query deployment.  Ties break toward the
/// lower x-index, keeping the choice deterministic.
pub fn best_single_probe(ctx: &CleaningContext, setup: &CleaningSetup) -> Option<(usize, f64)> {
    let best = Attempt::best(ctx.candidate_iter().map(|l| Attempt::planned(ctx, setup, l, 1)))?;
    Some((best.l, marginal_gain(ctx, setup, best.l, 1)))
}

/// Outcome of the cleaning attempts on one x-tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CleanOutcome {
    /// Every attempt failed (or none was made): the x-tuple is unchanged.
    Unchanged,
    /// Cleaning succeeded and the true alternative is the tuple at this
    /// rank position.
    Tuple(usize),
    /// Cleaning succeeded and the entity turned out to have no reading (the
    /// implicit null alternative was the truth).
    Null,
}

/// Apply per-x-tuple outcomes, producing the cleaned database.
///
/// A [`CleanOutcome::Null`] needs an x-tuple whose null alternative exists
/// ([`XTupleInfo::has_null`](pdb_core::ranked::XTupleInfo::has_null)), the rule
/// [`RankedDatabase::collapse_x_tuple_to_null_in_place`] applies too;
/// otherwise, or when a [`CleanOutcome::Tuple`] names another x-tuple's
/// position, nothing is built and an error is returned.
///
/// Returns `Ok(None)` when every x-tuple collapsed to null and nothing is
/// left (the degenerate fully-certain empty database, whose quality is 0).
pub fn apply_outcomes(
    db: &RankedDatabase,
    outcomes: &[CleanOutcome],
) -> Result<Option<RankedDatabase>> {
    if outcomes.len() != db.num_x_tuples() {
        return Err(DbError::invalid_parameter(format!(
            "got {} outcomes for {} x-tuples",
            outcomes.len(),
            db.num_x_tuples()
        )));
    }
    // Validate every outcome before building.
    for (l, &outcome) in outcomes.iter().enumerate() {
        match outcome {
            CleanOutcome::Tuple(pos) if pos >= db.len() || db.tuple(pos).x_index != l => {
                return Err(DbError::index_out_of_range(format!(
                    "outcome of x-tuple {l} references position {pos}"
                )));
            }
            CleanOutcome::Null if !db.x_tuple(l).has_null() => {
                return Err(DbError::invalid_parameter(format!(
                    "x-tuple {l} has no null alternative to collapse to"
                )));
            }
            _ => {}
        }
    }
    let mut entries: Vec<(TupleId, usize, f64, f64)> = Vec::new();
    let mut keys = Vec::new();
    let mut next_index = 0usize;
    for (l, info) in db.x_tuples().enumerate() {
        match outcomes[l] {
            CleanOutcome::Null => continue,
            CleanOutcome::Unchanged => {
                for &pos in &info.members {
                    let t = db.tuple(pos);
                    entries.push((t.id, next_index, t.score, t.prob));
                }
            }
            CleanOutcome::Tuple(pos) => {
                let t = db.tuple(pos);
                entries.push((t.id, next_index, t.score, 1.0));
            }
        }
        keys.push(info.key.clone());
        next_index += 1;
    }
    if entries.is_empty() {
        return Ok(None);
    }
    RankedDatabase::from_entries(entries, keys).map(Some)
}

/// Expected quality of the cleaned database computed the hard way
/// (Equation 17): enumerate every possible cleaned database, evaluate its
/// quality with TP, and weight by the outcome probability.  Exponential in
/// the number of selected x-tuples; used as the oracle that validates
/// Theorem 2.
pub fn expected_quality_exhaustive(
    db: &RankedDatabase,
    k: usize,
    setup: &CleaningSetup,
    plan: &CleaningPlan,
) -> Result<f64> {
    plan.validate(setup, u64::MAX)?;
    let selected = plan.selected();
    // Cap the enumeration: each selected x-tuple multiplies the outcome
    // count by (|τ_l| + 2).
    let mut combos: u128 = 1;
    for &l in &selected {
        combos = combos.saturating_mul(db.x_tuple(l).members.len() as u128 + 2);
    }
    if combos > 1 << 20 {
        return Err(DbError::TooManyWorlds { worlds: combos, limit: 1 << 20 });
    }

    let mut outcomes = vec![CleanOutcome::Unchanged; db.num_x_tuples()];
    let mut total = 0.0;
    enumerate_outcomes(db, k, setup, plan, &selected, 0, 1.0, &mut outcomes, &mut total)?;
    Ok(total)
}

#[allow(clippy::too_many_arguments)]
fn enumerate_outcomes(
    db: &RankedDatabase,
    k: usize,
    setup: &CleaningSetup,
    plan: &CleaningPlan,
    selected: &[usize],
    idx: usize,
    prob: f64,
    outcomes: &mut Vec<CleanOutcome>,
    total: &mut f64,
) -> Result<()> {
    // pdb-analyze: allow(float-eq): exact-zero branch probabilities are assigned, not computed; the gate prunes impossible outcome branches
    if prob == 0.0 {
        return Ok(());
    }
    if idx == selected.len() {
        let quality = match apply_outcomes(db, outcomes)? {
            Some(cleaned) => quality_tp(&cleaned, k)?,
            None => 0.0,
        };
        *total += prob * quality;
        return Ok(());
    }
    let l = selected[idx];
    let info = db.x_tuple(l);
    let success = setup.success_prob(l, plan.count(l));
    // Every attempt failed, or one succeeded and revealed an explicit
    // alternative, or the null alternative when the x-tuple has one.
    let revealed = info.members.iter().map(|&pos| (CleanOutcome::Tuple(pos), db.tuple(pos).prob));
    let null = info.has_null().then(|| (CleanOutcome::Null, info.null_prob()));
    let succeeded = revealed.chain(null).map(|(outcome, p)| (outcome, p * success));
    for (outcome, p) in std::iter::once((CleanOutcome::Unchanged, 1.0 - success)).chain(succeeded) {
        outcomes[l] = outcome;
        enumerate_outcomes(db, k, setup, plan, selected, idx + 1, prob * p, outcomes, total)?;
    }
    outcomes[l] = CleanOutcome::Unchanged;
    Ok(())
}

/// Expected improvement computed exhaustively (Equation 17 minus the
/// original quality); the oracle counterpart of [`expected_improvement`].
pub fn expected_improvement_exhaustive(
    db: &RankedDatabase,
    k: usize,
    setup: &CleaningSetup,
    plan: &CleaningPlan,
) -> Result<f64> {
    let before = quality_tp(db, k)?;
    Ok(expected_quality_exhaustive(db, k, setup, plan)? - before)
}

/// Map a uniform draw `u ∈ [0, 1)` to the alternative a successful
/// `pclean(τ_l)` reveals (a rank position), or to `None` for the implicit
/// null alternative.  The one outcome draw: [`simulate_cleaning`] and the
/// adaptive session both reveal through it.
///
/// A *complete* x-tuple's member probabilities can sum to slightly below 1
/// (e.g. `0.9999999999999998`) purely from floating-point rounding; a draw
/// landing in that phantom gap must not be routed to a null alternative
/// the model says does not exist.  Null is therefore only selected when
/// the x-tuple has one ([`XTupleInfo::has_null`](pdb_core::ranked::XTupleInfo::has_null));
/// otherwise the residual `u` is rounding noise and the last alternative
/// with positive probability is selected.
pub(crate) fn select_alternative(db: &RankedDatabase, l: usize, u: f64) -> Option<usize> {
    let info = db.x_tuple(l);
    let mut u = u;
    let mut last_positive = None;
    for &pos in &info.members {
        let p = db.tuple(pos).prob;
        if p > 0.0 {
            last_positive = Some(pos);
            if u < p {
                return Some(pos);
            }
            u -= p;
        }
    }
    if info.has_null() {
        None
    } else {
        last_positive
    }
}

/// Execute a cleaning plan once: every selected x-tuple's attempts succeed
/// or fail at random (sc-probability), and a successful cleaning reveals
/// the true alternative drawn from the existential probabilities, through
/// the adaptive session's draw: a null only for an x-tuple whose null
/// mass exceeds [`PROB_EPSILON`](pdb_core::PROB_EPSILON).
///
/// Returns the cleaned database, or `None` in the degenerate case where
/// every x-tuple collapsed to null.
pub fn simulate_cleaning<R: Rng + ?Sized>(
    db: &RankedDatabase,
    setup: &CleaningSetup,
    plan: &CleaningPlan,
    rng: &mut R,
) -> Result<Option<RankedDatabase>> {
    if plan.len() != db.num_x_tuples() || setup.len() != db.num_x_tuples() {
        return Err(DbError::invalid_parameter("plan/setup do not cover the database's x-tuples"));
    }
    let mut outcomes = vec![CleanOutcome::Unchanged; db.num_x_tuples()];
    for (l, outcome) in outcomes.iter_mut().enumerate() {
        let attempts = plan.count(l);
        if attempts == 0 || rng.gen::<f64>() >= setup.success_prob(l, attempts) {
            continue; // not selected, or every attempt failed
        }
        *outcome =
            select_alternative(db, l, rng.gen()).map_or(CleanOutcome::Null, CleanOutcome::Tuple);
    }
    apply_outcomes(db, &outcomes)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{rngs::StdRng, SeedableRng};

    #[test]
    fn cleaning_context_round_trips_through_json() {
        let ctx = CleaningContext::prepare(&udb1(), 2).unwrap();
        let json = serde_json::to_string(&ctx).unwrap();
        let back: CleaningContext = serde_json::from_str(&json).unwrap();
        assert_eq!(back, ctx, "via {json}");
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
    fn context_exposes_quality_and_candidates() {
        let db = udb1();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        assert_eq!(ctx.num_x_tuples(), 4);
        assert!((ctx.quality - (-2.55)).abs() < 0.005);
        assert!((ctx.g.iter().sum::<f64>() - ctx.quality).abs() < 1e-12);
        // Sum of per-x-tuple top-k mass equals k for a full-mass database.
        assert!((ctx.x_topk.iter().sum::<f64>() - 2.0).abs() < 1e-9);
        // The three uncertain sensors are candidates; S4 is already certain
        // (its single tuple has weight ω = 0), so cleaning it cannot help.
        assert_eq!(ctx.candidates(), vec![0, 1, 2]);
    }

    #[test]
    fn certain_database_has_no_candidates() {
        let db =
            RankedDatabase::from_scored_x_tuples(&[vec![(3.0, 1.0)], vec![(2.0, 1.0)]]).unwrap();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        assert!(ctx.candidates().is_empty());
        assert_eq!(ctx.quality, 0.0);
    }

    #[test]
    fn marginal_gains_decrease_and_sum_to_improvement() {
        let db = udb1();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        let setup = CleaningSetup::uniform(4, 1, 0.6).unwrap();
        for l in 0..4 {
            let gains: Vec<f64> = (1..=5).map(|j| marginal_gain(&ctx, &setup, l, j)).collect();
            for w in gains.windows(2) {
                assert!(w[0] >= w[1] - 1e-12, "marginal gains must be non-increasing");
            }
            assert!(gains.iter().all(|&b| b >= 0.0));
            // Equation 22: the improvement of cleaning l alone M times is the
            // sum of the first M marginal gains.
            let mut plan = CleaningPlan::empty(4);
            plan.set_count(l, 3);
            let sum: f64 = gains.iter().take(3).sum();
            assert!((expected_improvement(&ctx, &setup, &plan) - sum).abs() < 1e-12);
        }
        assert_eq!(marginal_gain(&ctx, &setup, 0, 0), 0.0);
    }

    #[test]
    fn theorem_2_matches_the_exhaustive_expectation() {
        let db = udb1();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        let setup = CleaningSetup::new(vec![1, 2, 1, 3], vec![0.7, 0.5, 0.9, 1.0]).unwrap();
        // Try several plans, including multi-x-tuple and multi-attempt ones.
        let plans = vec![
            CleaningPlan::from_counts(vec![1, 0, 0, 0]),
            CleaningPlan::from_counts(vec![0, 2, 0, 0]),
            CleaningPlan::from_counts(vec![1, 1, 1, 0]),
            CleaningPlan::from_counts(vec![3, 0, 2, 1]),
        ];
        for plan in plans {
            let fast = expected_improvement(&ctx, &setup, &plan);
            let slow = expected_improvement_exhaustive(&db, 2, &setup, &plan).unwrap();
            assert!((fast - slow).abs() < 1e-8, "plan {:?}: {fast} vs {slow}", plan.counts());
            assert!(fast >= -1e-12, "cleaning can never hurt in expectation");
        }
    }

    #[test]
    fn theorem_2_holds_with_null_mass() {
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(10.0, 0.5)],
            vec![(9.0, 0.4), (8.0, 0.2)],
            vec![(7.0, 1.0)],
        ])
        .unwrap();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        let setup = CleaningSetup::uniform(3, 1, 0.8).unwrap();
        let plan = CleaningPlan::from_counts(vec![2, 1, 0]);
        let fast = expected_improvement(&ctx, &setup, &plan);
        let slow = expected_improvement_exhaustive(&db, 2, &setup, &plan).unwrap();
        assert!((fast - slow).abs() < 1e-8, "{fast} vs {slow}");
    }

    #[test]
    fn cleaning_the_whole_database_recovers_all_quality_in_the_limit() {
        // With sc-probability 1 and one attempt everywhere, the expected
        // improvement equals −S(D, Q): the cleaned database is certain.
        let db = udb1();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        let setup = CleaningSetup::uniform(4, 1, 1.0).unwrap();
        let plan = CleaningPlan::from_counts(vec![1, 1, 1, 1]);
        let imp = expected_improvement(&ctx, &setup, &plan);
        assert!((imp - (-ctx.quality)).abs() < 1e-9);
    }

    #[test]
    fn apply_outcomes_collapses_and_drops() {
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(10.0, 0.5)],
            vec![(9.0, 0.4), (8.0, 0.6)],
        ])
        .unwrap();
        let cleaned =
            apply_outcomes(&db, &[CleanOutcome::Null, CleanOutcome::Tuple(1)]).unwrap().unwrap();
        assert_eq!(cleaned.num_x_tuples(), 1);
        assert_eq!(cleaned.len(), 1);
        assert!((cleaned.tuple(0).prob - 1.0).abs() < 1e-12);

        // An all-null outcome yields the empty database sentinel, once
        // every x-tuple has a null alternative.
        let partial = RankedDatabase::from_scored_x_tuples(&[
            vec![(10.0, 0.5)],
            vec![(9.0, 0.4), (8.0, 0.5)],
        ])
        .unwrap();
        let all_null = [CleanOutcome::Null, CleanOutcome::Null];
        assert!(apply_outcomes(&partial, &all_null).unwrap().is_none());

        // A null outcome on a complete x-tuple is rejected.
        assert!(apply_outcomes(&db, &all_null).is_err());
        // Wrong position is rejected.
        assert!(apply_outcomes(&db, &[CleanOutcome::Tuple(1), CleanOutcome::Unchanged]).is_err());
        // Wrong arity is rejected.
        assert!(apply_outcomes(&db, &[CleanOutcome::Unchanged]).is_err());
    }

    /// X-tuple 0 misses 5·10⁻⁹ of its mass, below `PROB_EPSILON`: a gap
    /// of rounding size, so it has no null alternative.
    fn db_with_a_rounding_gap() -> RankedDatabase {
        let db = RankedDatabase::from_scored_x_tuples(&[
            vec![(10.0, 0.5), (9.0, 0.5 - 5e-9)],
            vec![(8.0, 1.0)],
        ])
        .unwrap();
        assert!(db.x_tuple(0).null_prob() > 0.0);
        assert!(!db.x_tuple(0).has_null());
        db
    }

    /// An `RngCore` whose every `f64` draw is the largest one below 1.
    struct TopOfRange;

    impl rand::RngCore for TopOfRange {
        fn next_u64(&mut self) -> u64 {
            u64::MAX
        }
    }

    /// Regression: a draw in a gap below `PROB_EPSILON` reveals the last
    /// alternative with positive probability.  `simulate_cleaning` once
    /// revealed a null there and dropped the entity.
    #[test]
    fn simulated_cleaning_reveals_no_null_in_a_rounding_gap() {
        let db = db_with_a_rounding_gap();
        let setup = CleaningSetup::uniform(2, 1, 1.0).unwrap();
        let plan = CleaningPlan::from_counts(vec![1, 0]);
        let cleaned = simulate_cleaning(&db, &setup, &plan, &mut TopOfRange).unwrap().unwrap();
        assert_eq!(cleaned.num_x_tuples(), 2, "the entity survives");
        let kept = cleaned.x_tuple(0);
        assert_eq!(kept.members.len(), 1);
        assert_eq!(cleaned.tuple(kept.members[0]).score, 9.0);
        assert_eq!(cleaned.tuple(kept.members[0]).prob, 1.0);
    }

    /// Regression: `apply_outcomes` applies the null rule of
    /// `collapse_x_tuple_to_null_in_place`.
    #[test]
    fn a_null_outcome_needs_null_mass_above_prob_epsilon() {
        let db = db_with_a_rounding_gap();
        let null = [CleanOutcome::Null, CleanOutcome::Unchanged];
        assert!(apply_outcomes(&db, &null).is_err());
        assert!(db.clone().collapse_x_tuple_to_null_in_place(0).is_err());
    }

    #[test]
    fn simulation_converges_to_the_expected_improvement() {
        let db = udb1();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        let setup = CleaningSetup::uniform(4, 1, 0.7).unwrap();
        let plan = CleaningPlan::from_counts(vec![1, 2, 1, 0]);
        let expected = expected_improvement(&ctx, &setup, &plan);

        let mut rng = StdRng::seed_from_u64(1234);
        let trials = 4000;
        let mut total = 0.0;
        for _ in 0..trials {
            let cleaned = simulate_cleaning(&db, &setup, &plan, &mut rng).unwrap();
            let q = match cleaned {
                Some(d) => quality_tp(&d, 2).unwrap(),
                None => 0.0,
            };
            total += q - ctx.quality;
        }
        let mean = total / trials as f64;
        assert!(
            (mean - expected).abs() < 0.05,
            "Monte-Carlo mean {mean} should approach Theorem 2 value {expected}"
        );
    }

    #[test]
    fn batch_context_aggregates_single_query_contexts() {
        use pdb_quality::{TopKQuery, WeightedQuery};
        let db = udb1();
        let specs = vec![
            WeightedQuery::weighted(TopKQuery::PTk { k: 1, threshold: 0.1 }, 1.0),
            WeightedQuery::weighted(TopKQuery::PTk { k: 3, threshold: 0.1 }, 2.0),
        ];
        let batch = BatchQuality::new(&db, specs).unwrap();
        let ctx = CleaningContext::from_batch(&batch);
        let c1 = CleaningContext::prepare(&db, 1).unwrap();
        let c3 = CleaningContext::prepare(&db, 3).unwrap();
        assert_eq!(ctx.k, 3);
        assert!((ctx.quality - (c1.quality + 2.0 * c3.quality)).abs() < 1e-9);
        for l in 0..4 {
            assert!((ctx.g[l] - (c1.g[l] + 2.0 * c3.g[l])).abs() < 1e-9, "g[{l}]");
            assert!(
                (ctx.x_topk[l] - (c1.x_topk[l] + 2.0 * c3.x_topk[l])).abs() < 1e-9,
                "x_topk[{l}]"
            );
        }
        // Theorem 2 on the aggregate context = weighted sum of Theorem 2
        // on the per-query contexts.
        let setup = CleaningSetup::uniform(4, 1, 0.8).unwrap();
        let plan = CleaningPlan::from_counts(vec![1, 2, 0, 1]);
        let agg = expected_improvement(&ctx, &setup, &plan);
        let single = expected_improvement(&c1, &setup, &plan)
            + 2.0 * expected_improvement(&c3, &setup, &plan);
        assert!((agg - single).abs() < 1e-9);
    }

    #[test]
    fn best_single_probe_maximizes_gain_per_cost() {
        let db = udb1();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        // Uniform costs: the best probe targets the largest |g|.
        let setup = CleaningSetup::uniform(4, 1, 0.8).unwrap();
        let (l, gain) = best_single_probe(&ctx, &setup).unwrap();
        let expected_l = (0..4).min_by(|&a, &b| ctx.g[a].partial_cmp(&ctx.g[b]).unwrap()).unwrap();
        assert_eq!(l, expected_l);
        assert!((gain - marginal_gain(&ctx, &setup, l, 1)).abs() < 1e-12);
        assert!(gain > 0.0);

        // A certain database has no probe worth making.
        let certain =
            RankedDatabase::from_scored_x_tuples(&[vec![(3.0, 1.0)], vec![(2.0, 1.0)]]).unwrap();
        let ctx = CleaningContext::prepare(&certain, 2).unwrap();
        let setup = CleaningSetup::uniform(2, 1, 0.8).unwrap();
        assert!(best_single_probe(&ctx, &setup).is_none());

        // Probes that can never succeed (sc-probability 0) are not worth
        // making either, however ambiguous the database is.
        let db = udb1();
        let ctx = CleaningContext::prepare(&db, 2).unwrap();
        let hopeless = CleaningSetup::uniform(4, 1, 0.0).unwrap();
        assert!(best_single_probe(&ctx, &hopeless).is_none());
    }

    #[test]
    fn simulation_validates_inputs() {
        let db = udb1();
        let setup = CleaningSetup::uniform(3, 1, 0.5).unwrap();
        let plan = CleaningPlan::empty(3);
        let mut rng = StdRng::seed_from_u64(0);
        assert!(simulate_cleaning(&db, &setup, &plan, &mut rng).is_err());
    }
}
