//! Workspace walking, lint dispatch, and suppression handling.
//!
//! The analyzer walks the `src/` trees of the first-party crates
//! (`crates/*` plus the root facade crate), and additionally the root
//! `examples/` and `tests/` directories as *auxiliary* roots: those get
//! the style lints (`float-eq`) and suppression hygiene, but stay out of
//! the call graph — examples unwrap freely by design, and linking their
//! `main`s into the reachability analysis would drown the request-path
//! signal.  `vendor/` is deliberately excluded: those crates are
//! stand-ins for external dependencies and follow their upstreams'
//! idioms, not this repo's invariants.  Crate-local `tests/` and
//! `benches/` are also excluded — integration tests unwrap freely, and
//! the fixture corpus under `crates/pdb-analyze/tests/fixtures/` exists
//! precisely to violate every lint.
//!
//! ## Pipeline
//!
//! [`run`] is two-phase.  Phase 1 lexes every main-root file, builds the
//! whole-workspace [`crate::callgraph::CallGraph`], computes per-function
//! [`crate::summaries`] facts, and propagates the transitive ones
//! (may-panic, takes-lock) to a fixpoint.  Phase 2 dispatches the
//! per-file lints (now parameterized by the propagated facts where it
//! matters) plus the whole-program lints that only make sense with the
//! graph in hand (`cast-truncation`, `error-swallow`, `div-guard`,
//! `dead-verb`, interprocedural `panic-path`).
//!
//! ## Suppressions
//!
//! A finding on line `N` of a file is suppressed by a comment
//!
//! ```text
//! // pdb-analyze: allow(<lint>): <reason>
//! ```
//!
//! either trailing on line `N` or standing alone on the line above.  The
//! reason is mandatory: a suppression without one is itself reported
//! (lint `suppression`), as are suppressions naming unknown lints and
//! suppressions that no longer match any finding (so stale allows rot
//! away instead of accumulating).

use crate::callgraph::CallGraph;
use crate::diag::{is_known_lint, Diagnostic};
use crate::lexer::SourceFile;
use crate::lints;
use crate::scanner::{suppressions, FileContext};
use crate::summaries;
use std::path::{Path, PathBuf};

/// Run every lint over the workspace rooted at `root`; returns the
/// surviving diagnostics (suppressions already applied) sorted by file
/// and line.
pub fn run(root: &Path) -> std::io::Result<Vec<Diagnostic>> {
    let mains = source_files(root)?;
    let auxes = aux_source_files(root)?;
    let n_main = mains.len();

    let mut files: Vec<SourceFile> = Vec::with_capacity(n_main + auxes.len());
    for rel in mains.iter().chain(auxes.iter()) {
        let src = std::fs::read_to_string(root.join(rel))?;
        let rel_str = rel.to_string_lossy().replace('\\', "/");
        files.push(SourceFile::lex(rel_str, src));
    }
    let ctxs: Vec<FileContext> = files.iter().map(FileContext::new).collect();
    let include: Vec<bool> = (0..files.len()).map(|i| i < n_main).collect();

    // Phase 1: whole-workspace dataflow.
    let graph = CallGraph::build(&files, &ctxs, &include);
    let sums = summaries::compute(&graph, &files);
    let prop = summaries::propagate(&graph, &sums);
    let takes_lock = |name: &str| graph.any_named(name, |id| prop.takes_lock[id]);

    // Phase 2: lint dispatch.
    let mut raw: Vec<Diagnostic> = Vec::new();
    let mut sups: Vec<(String, crate::scanner::Suppression)> = Vec::new();

    for (fi, file) in files.iter().enumerate() {
        let rel_str = &file.path;
        let ctx = &ctxs[fi];
        if fi < n_main {
            if panic_path_applies(rel_str) {
                raw.extend(lints::panic_path::check(file, ctx));
            }
            raw.extend(lints::lock_order::check_with(file, ctx, &takes_lock));
            if rel_str.starts_with("crates/pdb-store/src/") {
                raw.extend(lints::durability::check(file, ctx));
            }
            raw.extend(lints::float_eq::check(file, ctx));
            if is_crate_root(rel_str) {
                raw.extend(lints::forbid_unsafe::check(file));
            }
        } else {
            raw.extend(lints::float_eq::check(file, ctx));
        }
        for s in suppressions(file) {
            sups.push((rel_str.clone(), s));
        }
    }

    raw.extend(lints::cast_truncation::check(&graph, &sums, &files));
    raw.extend(lints::error_swallow::check(&graph, &sums, &files));
    raw.extend(lints::div_guard::check(&graph, &sums, &files));
    raw.extend(lints::panic_path::check_interprocedural(&graph, &sums, &files, &|p| {
        panic_path_applies(p)
    }));
    raw.extend(lints::dead_verb::check(&graph, &files));
    raw.extend(lints::protocol_drift::check(root));
    raw.extend(lints::metric_drift::check(root));

    Ok(apply_suppressions(raw, sups))
}

/// Which files the panic-path lint covers: the server's request and
/// replay path, the store's WAL and recovery path, the CLI's command
/// path, and the fleet router's forwarding path (a router panic takes
/// down every shard's clients at once, so it is held to the same bar as
/// the server).
fn panic_path_applies(rel: &str) -> bool {
    rel.starts_with("crates/pdb-server/src/")
        || rel.starts_with("crates/pdb-store/src/")
        || rel.starts_with("crates/pdb-cli/src/")
        || rel.starts_with("crates/pdb-fleet/src/")
}

/// Crate roots that must carry `#![forbid(unsafe_code)]`.
fn is_crate_root(rel: &str) -> bool {
    rel == "src/lib.rs"
        || rel == "src/main.rs"
        || (rel.starts_with("crates/")
            && (rel.ends_with("/src/lib.rs")
                || rel.ends_with("/src/main.rs")
                || (rel.contains("/src/bin/") && rel.ends_with(".rs"))))
}

/// Enforce the suppression rules and drop suppressed findings.
fn apply_suppressions(
    raw: Vec<Diagnostic>,
    sups: Vec<(String, crate::scanner::Suppression)>,
) -> Vec<Diagnostic> {
    let mut out: Vec<Diagnostic> = Vec::new();
    let mut used = vec![false; sups.len()];

    for d in raw {
        // One comment may suppress several findings on its line; `used`
        // only feeds the stale-suppression check.
        let matching = sups.iter().position(|(file, s)| {
            !s.reason.is_empty() && *file == d.file && s.lint == d.lint && s.covers_line == d.line
        });
        match matching {
            Some(k) => used[k] = true,
            None => out.push(d),
        }
    }

    for (k, (file, s)) in sups.iter().enumerate() {
        if !is_known_lint(&s.lint) {
            out.push(Diagnostic::new(
                "suppression",
                file,
                s.line,
                format!("unknown lint `{}` in allow(...)", s.lint),
            ));
            continue;
        }
        if s.reason.is_empty() {
            out.push(Diagnostic::new(
                "suppression",
                file,
                s.line,
                format!(
                    "allow({}) needs a reason: `// pdb-analyze: allow({}): <why>`",
                    s.lint, s.lint
                ),
            ));
            continue;
        }
        if !used[k] {
            out.push(Diagnostic::new(
                "suppression",
                file,
                s.line,
                format!("allow({}) matches no finding; remove the stale suppression", s.lint),
            ));
        }
    }

    out.sort_by(|a, b| (&a.file, a.line, a.lint).cmp(&(&b.file, b.line, b.lint)));
    out
}

/// Workspace-relative paths of every first-party source file (the main
/// roots: root `src/` plus every `crates/*/src/`).  These feed the call
/// graph.
pub fn source_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    let root_src = root.join("src");
    if root_src.is_dir() {
        collect_rs(&root_src, &mut out)?;
    }
    let crates = root.join("crates");
    if crates.is_dir() {
        let mut crate_dirs: Vec<PathBuf> = std::fs::read_dir(&crates)?
            .filter_map(|e| e.ok())
            .map(|e| e.path())
            .filter(|p| p.is_dir())
            .collect();
        crate_dirs.sort();
        for dir in crate_dirs {
            let src = dir.join("src");
            if src.is_dir() {
                collect_rs(&src, &mut out)?;
            }
        }
    }
    rel_sorted(root, out)
}

/// Auxiliary roots: root `examples/` and root `tests/`.  Style lints and
/// suppression hygiene only — excluded from the call graph (see the
/// module docs for why).
pub fn aux_source_files(root: &Path) -> std::io::Result<Vec<PathBuf>> {
    let mut out = Vec::new();
    for sub in ["examples", "tests"] {
        let dir = root.join(sub);
        if dir.is_dir() {
            collect_rs(&dir, &mut out)?;
        }
    }
    rel_sorted(root, out)
}

fn rel_sorted(root: &Path, abs: Vec<PathBuf>) -> std::io::Result<Vec<PathBuf>> {
    let mut rels: Vec<PathBuf> =
        abs.into_iter().filter_map(|p| p.strip_prefix(root).ok().map(PathBuf::from)).collect();
    rels.sort();
    Ok(rels)
}

fn collect_rs(dir: &Path, out: &mut Vec<PathBuf>) -> std::io::Result<()> {
    let mut entries: Vec<PathBuf> =
        std::fs::read_dir(dir)?.filter_map(|e| e.ok()).map(|e| e.path()).collect();
    entries.sort();
    for path in entries {
        if path.is_dir() {
            collect_rs(&path, out)?;
        } else if path.extension().is_some_and(|e| e == "rs") {
            out.push(path);
        }
    }
    Ok(())
}
