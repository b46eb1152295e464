//! **div-guard**: the paper's numerical-stability invariant as a lint.
//!
//! The PSR scan divides its running polynomial by `(1 - q)`-style
//! factors; when the divisor approaches zero the division is
//! ill-conditioned and the scan must re-form the product instead
//! (`MAX_DIVISOR_Q` in `psr.rs`, `DIVISION_REBUILD_THRESHOLD` in
//! `poly.rs`).  Any division in the incremental kernels whose divisor is
//! not a literal must therefore be dominated by one of the stability
//! gates — a bare `a / q` with a probability-derived divisor is exactly
//! the bug class the paper's Section on incremental re-evaluation warns
//! about.
//!
//! "Dominated" is approximated textually: one of the gate identifiers
//! appears earlier in the same function body (a `debug_assert!`, an
//! `if`/`else if` condition, or a windowing check all count).  Literal
//! divisors (`x / 2.0`) are never flagged.

use crate::callgraph::CallGraph;
use crate::diag::Diagnostic;
use crate::lexer::SourceFile;
use crate::summaries::FnSummary;

/// The kernels the invariant covers.
pub fn in_scope(rel: &str) -> bool {
    rel.starts_with("crates/pdb-engine/src/")
        && (rel.ends_with("/delta.rs") || rel.ends_with("/psr.rs") || rel.ends_with("/poly.rs"))
}

/// Run the lint over every in-scope function in the graph.
pub fn check(graph: &CallGraph, sums: &[FnSummary], files: &[SourceFile]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (id, f) in graph.fns.iter().enumerate() {
        if f.in_test || !in_scope(&files[f.file].path) {
            continue;
        }
        out.extend(check_fn(&files[f.file].path, &sums[id]));
    }
    out
}

/// The per-function core, scope-free (fixture tests call this).
pub fn check_fn(path: &str, sum: &FnSummary) -> Vec<Diagnostic> {
    sum.divisions
        .iter()
        .filter(|d| !d.guarded)
        .map(|d| {
            Diagnostic::new(
                "div-guard",
                path,
                d.line,
                "division with a non-literal divisor is not dominated by a stability gate \
                 (MAX_DIVISOR_Q / DIVISION_REBUILD_THRESHOLD); \
                 ill-conditioned factors must be re-formed, not divided",
            )
        })
        .collect()
}
