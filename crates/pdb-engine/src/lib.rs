//! # pdb-engine — PSR and probabilistic top-k query semantics
//!
//! This crate implements the query-processing substrate of the ICDE 2013
//! paper *"Cleaning Uncertain Data for Top-k Queries"*:
//!
//! * [`psr`] — the PSR rank-probability algorithm (reference \[15\] of the
//!   paper): for every tuple, the probability ρᵢ(h) of occupying rank `h`
//!   and the top-k probability pᵢ, in O(n·k) time.
//! * [`queries`] — the three probabilistic top-k query semantics the paper
//!   studies (U-kRanks, PT-k and Global-topk), all answered from the PSR
//!   output so the same computation can be shared with quality evaluation.
//! * [`delta`] — incremental re-evaluation: carry a completed PSR result
//!   across single-x-tuple mutations (probe outcomes), rewriting only the
//!   rows a mutation changes with one windowed PSR scan instead of a full
//!   O(n·k) rerun.
//! * [`batch`] — batched multi-query shared evaluation: one PSR run at
//!   `k_max` serves a whole set of registered queries through prefix
//!   snapshots, and one delta pass re-patches them all.
//! * [`poly`] — the truncated generating-function polynomial operations
//!   PSR runs on coefficient slices.
//! * [`oracle`] — brute-force possible-world oracles used to validate the
//!   efficient algorithms on small databases.
//!
//! ```
//! use pdb_core::prelude::*;
//! use pdb_engine::prelude::*;
//!
//! let db = pdb_core::examples::udb1().rank_by(&ScoreRanking);
//! let rp = rank_probabilities(&db, 2).unwrap();
//! let answer = pt_k(&db, &rp, 0.4).unwrap();
//! assert_eq!(answer.len(), 3); // {t1, t2, t5} in the paper
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod batch;
pub mod delta;
pub mod oracle;
pub mod poly;
pub mod psr;
pub mod queries;

pub use batch::{BatchEvaluation, BatchPlan, QueryRanks};
pub use delta::{apply_mutation_in_place, DeltaStats, RowMoves, XTupleMutation};
pub use psr::{rank_probabilities, rank_probabilities_exact, RankAccess, RankProbabilities};
pub use queries::{
    global_topk, pt_k, u_k_ranks, AnswerTuple, QueryAnswer, TopKQuery, TupleSetAnswer,
    UKRanksAnswer,
};

/// Convenience prelude bringing the most frequently used items into scope.
pub mod prelude {
    pub use crate::batch::{BatchEvaluation, BatchPlan, QueryRanks};
    pub use crate::delta::{DeltaStats, XTupleMutation};
    pub use crate::psr::{
        rank_probabilities, rank_probabilities_exact, RankAccess, RankProbabilities,
    };
    pub use crate::queries::{
        global_topk, pt_k, u_k_ranks, AnswerTuple, QueryAnswer, TopKQuery, TupleSetAnswer,
        UKRanksAnswer,
    };
}
