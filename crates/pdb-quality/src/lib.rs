//! # pdb-quality — PWS-quality of probabilistic top-k queries
//!
//! This crate implements the first contribution of the ICDE 2013 paper
//! *"Cleaning Uncertain Data for Top-k Queries"*: computing the
//! **PWS-quality** (the negated entropy of the pw-result distribution,
//! Definition 4) of U-kRanks, PT-k and Global-topk queries, with three
//! algorithms of increasing sophistication:
//!
//! | Algorithm | Module | Cost | Role |
//! |-----------|--------|------|------|
//! | PW  | [`pw`]  | exponential (possible worlds) | ground-truth baseline |
//! | PWR | [`pwr`] | `O(n^{k+1})` (pw-results)      | avoids world expansion |
//! | TP  | [`tp`]  | `O(k·n)` (Theorem 1 + PSR)     | the paper's fast path |
//!
//! [`batch::BatchQuality`] runs PSR once and serves both query answers and
//! quality scores from it (Section IV-C, the configuration the paper
//! benchmarks in Figure 5), for one query or a whole set of registered
//! queries: one PSR run at `k_max` serves every query's answer *and*
//! quality score, plus the aggregate decomposition a multi-query cleaner
//! plans from.  It is the crate's one evaluation type; a caller that only
//! needs one `k` may equally run
//! [`rank_probabilities`](pdb_engine::psr::rank_probabilities) and pass
//! the matrix to a query and to [`tp::quality_tp_with`].
//!
//! ```
//! use pdb_core::prelude::*;
//! use pdb_quality::prelude::*;
//!
//! let db = pdb_core::examples::udb1().rank_by(&ScoreRanking);
//! // The three algorithms agree; TP is the one to use in practice.
//! let q = quality_tp(&db, 2).unwrap();
//! assert!((q - quality_pw(&db, 2).unwrap()).abs() < 1e-8);
//! assert!((q - (-2.55)).abs() < 0.005); // the paper's udb1 value
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod augment;
pub mod batch;
pub mod pw;
pub mod pw_results;
pub mod pwr;
pub mod tp;

pub use batch::{BatchCollapseUpdate, BatchQuality, WeightedQuery};
pub use pw::{pw_result_distribution, quality_pw};
pub use pw_results::{PwEntry, PwResult, PwResultSet};
pub use pwr::{pwr_result_distribution, quality_pwr, quality_pwr_bounded};
pub use tp::{quality_breakdown, quality_tp, quality_tp_with, tuple_weights, QualityBreakdown};

// Re-exported so downstream crates (the adaptive cleaning session, the
// batch consumers in pdb-clean and the CLI) can name probe mutations and
// registered queries without depending on pdb-engine directly.
pub use pdb_engine::delta::{DeltaStats, XTupleMutation};
pub use pdb_engine::queries::{QueryAnswer, TopKQuery};

/// Convenience prelude bringing the most frequently used items into scope.
pub mod prelude {
    pub use crate::batch::{BatchCollapseUpdate, BatchQuality, WeightedQuery};
    pub use crate::pw::{pw_result_distribution, quality_pw};
    pub use crate::pw_results::{PwEntry, PwResult, PwResultSet};
    pub use crate::pwr::{pwr_result_distribution, quality_pwr, quality_pwr_bounded};
    pub use crate::tp::{
        quality_breakdown, quality_tp, quality_tp_with, tuple_weights, QualityBreakdown,
    };
    pub use pdb_engine::delta::{DeltaStats, XTupleMutation};
    pub use pdb_engine::queries::{QueryAnswer, TopKQuery};
}
