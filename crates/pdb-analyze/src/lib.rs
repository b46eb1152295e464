//! Workspace invariant checker for the probabilistic-database serving
//! stack.
//!
//! The repo's hardest-won invariants — "errors become replies, not
//! panics", "shard lock drops before session lock", "every published
//! file is tmp+fsync+rename'd", "the wire verb set is consistent
//! everywhere it is written down" — are enforced here as named lints
//! over a hand-rolled lexer, so they are machine-checked on every PR
//! instead of living in prose.  See the README's *Static analysis*
//! section for the lint catalog and suppression syntax.
//!
//! The crate depends only on the vendored JSON codec, which reads
//! `bench-drift`'s bench-id maps (same vendoring philosophy as
//! `vendor/`): [`lexer`] classifies tokens, [`scanner`] recovers just
//! enough structure (items, test regions, suppressions), and each
//! module in [`lints`] is a small token-pattern pass.  On top of the
//! per-file view, [`callgraph`] resolves call edges across the whole
//! workspace and [`summaries`] computes per-function facts that a
//! fixpoint propagates along those edges — which is what lets
//! `panic-path` and `lock-order` see through function calls and powers
//! the whole-program lints (`cast-truncation`, `error-swallow`,
//! `div-guard`, `dead-verb`).  See `DESIGN.md` for the pipeline and each
//! lint's soundness caveats.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod bench_drift;
pub mod callgraph;
pub mod diag;
pub mod lexer;
pub mod lints;
pub mod scanner;
pub mod summaries;
pub mod workspace;

pub use diag::Diagnostic;

use std::path::{Path, PathBuf};

/// Find the workspace root: the nearest ancestor of `start` containing a
/// `Cargo.toml` with a `[workspace]` table.
pub fn find_workspace_root(start: &Path) -> Option<PathBuf> {
    let mut dir = Some(start);
    while let Some(d) = dir {
        let manifest = d.join("Cargo.toml");
        if let Ok(text) = std::fs::read_to_string(&manifest) {
            if text.contains("[workspace]") {
                return Some(d.to_path_buf());
            }
        }
        dir = d.parent();
    }
    None
}
