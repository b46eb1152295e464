//! # uncertain-topk
//!
//! A Rust reproduction of **"Cleaning Uncertain Data for Top-k Queries"**
//! (Mo, Cheng, Li, Cheung, Yang — ICDE 2013).
//!
//! This facade crate re-exports the workspace crates under a single name so
//! downstream users can depend on `uncertain-topk` alone:
//!
//! * [`core`] — the x-tuple probabilistic database model and possible-world
//!   semantics ([`pdb_core`]).
//! * [`engine`] — the PSR rank-probability algorithm and the probabilistic
//!   top-k query semantics U-kRanks, PT-k and Global-topk ([`pdb_engine`]).
//! * [`quality`] — PWS-quality computation: the PW, PWR and TP algorithms
//!   ([`pdb_quality`]).
//! * [`clean`] — budgeted cleaning: expected-improvement model and the DP,
//!   Greedy, RandP and RandU algorithms ([`pdb_clean`]).
//! * [`gen`] — the synthetic and MOV dataset generators used by the paper's
//!   evaluation ([`pdb_gen`]).
//! * [`store`] — durable binary snapshots, the probe-outcome write-ahead
//!   log and crash recovery for cleaning sessions ([`pdb_store`]).
//! * [`experiments`] — drivers that regenerate every figure of the
//!   evaluation section ([`pdb_experiments`]).
//!
//! ## Quickstart
//!
//! ```
//! use uncertain_topk::prelude::*;
//!
//! // Table I of the paper: four temperature sensors.
//! let db = uncertain_topk::core::examples::udb1().rank_by(&ScoreRanking);
//!
//! // Evaluate a PT-2 query (threshold 0.4) and its PWS-quality from one
//! // PSR run.
//! let query = WeightedQuery::new(TopKQuery::PTk { k: 2, threshold: 0.4 });
//! let batch = BatchQuality::new(&db, vec![query]).unwrap();
//! let answers = batch.answers().unwrap();
//! assert_eq!(answers[0].len(), 3); // {t1, t2, t5} in the paper
//! let quality = batch.aggregate_quality();
//! assert!((quality - (-2.55)).abs() < 0.01);
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub use pdb_clean as clean;
pub use pdb_core as core;
pub use pdb_engine as engine;
pub use pdb_experiments as experiments;
pub use pdb_gen as gen;
pub use pdb_quality as quality;
pub use pdb_store as store;

/// One-stop prelude re-exporting the most commonly used items of every
/// workspace crate.
pub mod prelude {
    pub use pdb_clean::prelude::*;
    pub use pdb_core::prelude::*;
    pub use pdb_engine::prelude::*;
    pub use pdb_gen::prelude::*;
    pub use pdb_quality::prelude::*;
}
