//! # pdb-clean — budgeted cleaning of uncertain data for top-k quality
//!
//! This crate implements the second contribution of the ICDE 2013 paper
//! *"Cleaning Uncertain Data for Top-k Queries"*: given a limited budget,
//! decide which x-tuples to probe (and how many times) so that the expected
//! PWS-quality improvement of a top-k query is maximised.
//!
//! * [`model`] — cleaning costs, sc-probabilities, budgets and plans
//!   (Definition 5 / 7 of the paper).
//! * [`improvement`] — the expected quality improvement in closed form
//!   (Theorem 2), the exhaustive oracle (Equation 17) and a Monte-Carlo
//!   cleaning simulator.
//! * [`algorithms`] — the four solvers of Section V-D: optimal DP, Greedy,
//!   RandP and RandU, plus an exhaustive optimality oracle.
//!
//! Two extensions the paper lists as future work are also provided:
//!
//! * [`target`] — minimum-cost cleaning to reach a target quality;
//! * [`adaptive`] — adaptive cleaning that re-plans after observing each
//!   probe's outcome.
//!
//! ## One rule per cleaning decision
//!
//! * **Null existence** — [`XTupleInfo::has_null`](pdb_core::ranked::XTupleInfo::has_null):
//!   null mass above [`PROB_EPSILON`](pdb_core::PROB_EPSILON); a smaller
//!   gap is rounding.  A probe reveals null only then, and
//!   [`apply_outcomes`] refuses any other null outcome.
//! * **Candidacy** (Lemma 5) — `improvement::is_candidate`,
//!   `g(l, D) < −`[`G_EPSILON`](improvement::G_EPSILON): behind
//!   [`CleaningContext::candidates`], [`max_achievable_improvement`] and
//!   the adaptive step.
//! * **Attempt order** (Theorem 2, Lemma 4) — `improvement::Attempt`, gain
//!   per unit cost with ties to the lower x-index: [`plan_greedy`] and
//!   [`min_cost_greedy`] heap it, [`best_single_probe`] and the adaptive
//!   step take its maximum.
//! * **Revealed outcome** (Definition 5) — `improvement::select_alternative`,
//!   the one draw [`simulate_cleaning`] and the adaptive session share.
//!
//! ```
//! use pdb_core::prelude::*;
//! use pdb_clean::prelude::*;
//!
//! let db = pdb_core::examples::udb1().rank_by(&ScoreRanking);
//! let ctx = CleaningContext::prepare(&db, 2).unwrap();
//! // Every probe costs 1 unit and succeeds with probability 0.8.
//! let setup = CleaningSetup::uniform(db.num_x_tuples(), 1, 0.8).unwrap();
//! let plan = plan_greedy(&ctx, &setup, 3).unwrap();
//! let gain = expected_improvement(&ctx, &setup, &plan);
//! assert!(gain > 0.0);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod adaptive;
pub mod algorithms;
pub mod improvement;
pub mod model;
pub mod target;

pub use adaptive::{run_adaptive_session, run_adaptive_session_with, AdaptiveOutcome, ReplanMode};
pub use algorithms::{
    plan_dp, plan_exhaustive, plan_greedy, plan_rand_p, plan_rand_u, CleaningAlgorithm,
};
pub use improvement::{
    apply_outcomes, best_single_probe, expected_improvement, expected_improvement_exhaustive,
    expected_quality_exhaustive, marginal_gain, marginal_gain_raw, simulate_cleaning, CleanOutcome,
    CleaningContext,
};
pub use model::{CleaningPlan, CleaningSetup};
pub use target::{
    max_achievable_improvement, min_cost_for_quality_greedy, min_cost_greedy, min_cost_optimal,
    TargetPlan,
};

/// Convenience prelude bringing the most frequently used items into scope.
pub mod prelude {
    pub use crate::adaptive::{
        run_adaptive_session, run_adaptive_session_with, AdaptiveOutcome, ReplanMode,
    };
    pub use crate::algorithms::{
        plan_dp, plan_exhaustive, plan_greedy, plan_rand_p, plan_rand_u, CleaningAlgorithm,
    };
    pub use crate::improvement::{
        best_single_probe, expected_improvement, expected_improvement_exhaustive, marginal_gain,
        simulate_cleaning, CleanOutcome, CleaningContext,
    };
    pub use crate::model::{CleaningPlan, CleaningSetup};
    pub use crate::target::{
        max_achievable_improvement, min_cost_for_quality_greedy, min_cost_greedy, min_cost_optimal,
        TargetPlan,
    };
}
