//! Per-function dataflow facts and their fixpoint propagation over the
//! call graph.
//!
//! [`compute`] extracts **direct** facts from each function body by
//! token-pattern matching (the same discipline as the per-file lints):
//!
//! - *may-panic*: `.unwrap()` / `.expect(` method calls and the
//!   panicking macros (`panic!`, `unreachable!`, `todo!`,
//!   `unimplemented!`).  Explicit indexing is deliberately **not** a
//!   transitive fact — the engine kernels index slices pervasively and
//!   treating every index as a panic would drown the real findings; the
//!   intraprocedural `panic-path` lint still flags indexing inside the
//!   request/replay/CLI files themselves.
//! - *takes-lock*: a `.lock()` call anywhere in the body.
//! - *returns-Result*: the signature's return type mentions `Result`.
//! - *narrowing casts*: `as u8/u16/u32/i8/i16/i32`, with a `guarded`
//!   flag when the surrounding function shows a dominating bound check
//!   (`try_from` or a `::MAX` comparison earlier in the body).
//! - *discarded Results*: `let _ = call(...)` statements and
//!   statement-terminated `.ok();`.
//! - *divisions*: `/` (and `/=`) with a non-literal divisor, with a
//!   `guarded` flag when one of the engine's numerical-stability
//!   constants (`MAX_DIVISOR_Q`, `DIVISION_REBUILD_THRESHOLD`) appears
//!   earlier in the body.
//!
//! [`propagate`] then runs a worklist fixpoint pushing the boolean facts
//! (may-panic, takes-lock) from callees to callers over the resolved
//! call edges, so "this handler transitively reaches a panic" is a graph
//! query, not a textual one.

use crate::callgraph::CallGraph;
use crate::lexer::{SourceFile, TokenKind};
use crate::lints::{is_keyword, is_method_call};

/// The panicking macros shared with the intraprocedural `panic-path`.
pub const PANIC_MACROS: &[&str] = &["panic", "unreachable", "todo", "unimplemented"];

/// Integer types a cast can narrow into on every supported platform.
/// `usize`/`u64` are treated as widening (the workspace only targets
/// 64-bit hosts; DESIGN.md records the caveat).
pub const NARROW_INTS: &[&str] = &["u8", "u16", "u32", "i8", "i16", "i32"];

/// The engine's numerical-stability gates: a division dominated by any
/// of these identifiers counts as guarded.
pub const DIV_GUARDS: &[&str] = &["MAX_DIVISOR_Q", "DIVISION_REBUILD_THRESHOLD"];

/// One direct panic site inside a function.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PanicSite {
    /// Line of the panicking call/macro.
    pub line: u32,
    /// What panics (`".unwrap()"`, `"panic!"`, ...).
    pub what: String,
}

/// One narrowing `as` cast.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CastSite {
    /// Line of the `as` keyword.
    pub line: u32,
    /// The narrow target type (`"u32"`, ...).
    pub target: String,
    /// Whether a dominating bound check was found earlier in the body.
    pub guarded: bool,
}

/// One `let _ = ...` / `.ok();` discarding a value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DiscardSite {
    /// Line of the discarding statement.
    pub line: u32,
    /// The discarded callee's name, when the statement contains a call
    /// (`None` for a bare `.ok();` whose receiver is not a direct call).
    pub callee: Option<String>,
    /// `"let _ ="` or `".ok()"` — used in the diagnostic message.
    pub form: &'static str,
}

/// One division with a non-literal divisor.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DivSite {
    /// Line of the `/` operator.
    pub line: u32,
    /// Whether a stability gate dominates the division.
    pub guarded: bool,
}

/// Direct (intraprocedural) facts of one function.
#[derive(Debug, Clone, Default)]
pub struct FnSummary {
    /// Direct panic sites.
    pub panics: Vec<PanicSite>,
    /// Whether the body calls `.lock()` directly.
    pub takes_lock: bool,
    /// Whether the signature returns a `Result`.
    pub returns_result: bool,
    /// Narrowing casts.
    pub casts: Vec<CastSite>,
    /// Discarded fallible values.
    pub discards: Vec<DiscardSite>,
    /// Divisions by non-literal divisors.
    pub divisions: Vec<DivSite>,
}

/// Facts after fixpoint propagation over the call graph.
#[derive(Debug)]
pub struct Propagated {
    /// Function transitively reaches a direct panic site.
    pub may_panic: Vec<bool>,
    /// Function transitively takes a session `.lock()`.
    pub takes_lock: Vec<bool>,
}

/// Compute the direct summary of every function in the graph.
pub fn compute(graph: &CallGraph, files: &[SourceFile]) -> Vec<FnSummary> {
    graph
        .fns
        .iter()
        .map(|f| summarize(&files[f.file], f.span.sig.clone(), f.span.body.clone()))
        .collect()
}

/// Run the worklist fixpoint: a caller inherits `may_panic`/`takes_lock`
/// from every resolved callee.  Monotone boolean facts over a finite
/// graph, so the loop terminates after at most `|fns|` sweeps (in
/// practice two or three).
pub fn propagate(graph: &CallGraph, sums: &[FnSummary]) -> Propagated {
    let n = graph.fns.len();
    let mut may_panic: Vec<bool> = sums.iter().map(|s| !s.panics.is_empty()).collect();
    let mut takes_lock: Vec<bool> = sums.iter().map(|s| s.takes_lock).collect();

    // Reverse edges once: callee -> callers.
    let mut callers: Vec<Vec<usize>> = vec![Vec::new(); n];
    for (caller, sites) in graph.calls.iter().enumerate() {
        for site in sites {
            for &t in &site.targets {
                callers[t].push(caller);
            }
        }
    }

    let mut work: std::collections::VecDeque<usize> =
        (0..n).filter(|&i| may_panic[i] || takes_lock[i]).collect();
    while let Some(f) = work.pop_front() {
        for &c in &callers[f] {
            let grew_panic = may_panic[f] && !may_panic[c];
            let grew_lock = takes_lock[f] && !takes_lock[c];
            if grew_panic {
                may_panic[c] = true;
            }
            if grew_lock {
                takes_lock[c] = true;
            }
            if grew_panic || grew_lock {
                work.push_back(c);
            }
        }
    }
    Propagated { may_panic, takes_lock }
}

/// Extract the direct facts of one function given its raw token ranges.
fn summarize(
    file: &SourceFile,
    sig: std::ops::Range<usize>,
    body: std::ops::Range<usize>,
) -> FnSummary {
    let code: Vec<usize> =
        file.code_indices().into_iter().filter(|&ti| ti >= body.start && ti < body.end).collect();
    let mut out = FnSummary { returns_result: returns_result(file, sig), ..Default::default() };

    for i in 0..code.len() {
        let t = &file.tokens[code[i]];
        match t.kind {
            TokenKind::Ident => {
                let text = file.text(t);
                if (text == "unwrap" || text == "expect") && is_method_call(file, &code, i) {
                    out.panics.push(PanicSite { line: t.line, what: format!(".{text}()") });
                } else if PANIC_MACROS.contains(&text) && bang_follows(file, &code, i) {
                    out.panics.push(PanicSite { line: t.line, what: format!("{text}!") });
                } else if text == "lock" && is_method_call(file, &code, i) {
                    out.takes_lock = true;
                } else if text == "as" {
                    if let Some(&nti) = code.get(i + 1) {
                        let nt = &file.tokens[nti];
                        let target = file.text(nt);
                        if nt.kind == TokenKind::Ident && NARROW_INTS.contains(&target) {
                            out.casts.push(CastSite {
                                line: t.line,
                                target: target.to_string(),
                                guarded: cast_guarded(file, &code, i),
                            });
                        }
                    }
                } else if text == "let" && let_discard(file, &code, i) {
                    out.discards.push(DiscardSite {
                        line: t.line,
                        callee: first_call_in_stmt(file, &code, i),
                        form: "let _ =",
                    });
                } else if text == "ok" && ok_dropped(file, &code, i) {
                    out.discards.push(DiscardSite {
                        line: t.line,
                        callee: receiver_call(file, &code, i),
                        form: ".ok()",
                    });
                }
            }
            TokenKind::Punct if file.text(t) == "/" => {
                if let Some(div) = division_site(file, &code, i) {
                    out.divisions.push(div);
                }
            }
            _ => {}
        }
    }
    out
}

/// Whether the signature's return type mentions `Result` after `->`.
fn returns_result(file: &SourceFile, sig: std::ops::Range<usize>) -> bool {
    let code: Vec<usize> =
        file.code_indices().into_iter().filter(|&ti| ti >= sig.start && ti < sig.end).collect();
    let mut seen_arrow = false;
    for i in 0..code.len() {
        let t = &file.tokens[code[i]];
        if t.kind == TokenKind::Punct
            && file.text(t) == "-"
            && crate::lints::adjacent_puncts(file, &code, i, "-", ">")
        {
            seen_arrow = true;
        }
        if seen_arrow && t.kind == TokenKind::Ident && file.text(t) == "Result" {
            return true;
        }
    }
    false
}

/// `name !` with the bang directly attached (macro invocation).
fn bang_follows(file: &SourceFile, code: &[usize], i: usize) -> bool {
    code.get(i + 1).is_some_and(|&ti| {
        let t = &file.tokens[ti];
        t.kind == TokenKind::Punct && file.text(t) == "!" && t.start == file.tokens[code[i]].end
    })
}

/// A dominating bound check for a cast at `code[i]`: `try_from` or a
/// `::MAX` token earlier in the same body.  `MAX` must be the exact
/// token — domain constants like `MAX_RECORD_LEN` deliberately do not
/// count, because the analyzer cannot evaluate whether they fit the
/// target type.
fn cast_guarded(file: &SourceFile, code: &[usize], i: usize) -> bool {
    code[..i].iter().any(|&ti| {
        let t = &file.tokens[ti];
        t.kind == TokenKind::Ident && matches!(file.text(t), "try_from" | "MAX")
    })
}

/// `let _ =` with a plain `_` pattern (not `_x`, not a tuple).
fn let_discard(file: &SourceFile, code: &[usize], i: usize) -> bool {
    let under = code.get(i + 1).map(|&ti| &file.tokens[ti]);
    let eq = code.get(i + 2).map(|&ti| &file.tokens[ti]);
    matches!(under, Some(t) if t.kind == TokenKind::Ident && file.text(t) == "_")
        && matches!(eq, Some(t) if t.kind == TokenKind::Punct && file.text(t) == "=")
}

/// The first non-macro call name inside the statement starting at
/// `code[i]` (scans to the `;` at bracket depth 0).
fn first_call_in_stmt(file: &SourceFile, code: &[usize], i: usize) -> Option<String> {
    let mut depth = 0isize;
    let mut j = i;
    while let Some(&ti) = code.get(j) {
        let t = &file.tokens[ti];
        if t.kind == TokenKind::Punct {
            match file.text(t) {
                "(" | "[" | "{" => depth += 1,
                ")" | "]" | "}" => depth -= 1,
                ";" if depth == 0 => return None,
                _ => {}
            }
        }
        if t.kind == TokenKind::Ident && !is_keyword(file.text(t)) {
            let next = code.get(j + 1).map(|&n| &file.tokens[n]);
            if matches!(next, Some(n) if n.kind == TokenKind::Punct && file.text(n) == "(") {
                return Some(file.text(t).to_string());
            }
        }
        j += 1;
    }
    None
}

/// `.ok()` immediately followed by `;` — the Result is dropped on the
/// floor.  `.ok()?`, `.ok().map(...)` etc. are conversions, not
/// swallows, and are left alone.
fn ok_dropped(file: &SourceFile, code: &[usize], i: usize) -> bool {
    if !is_method_call(file, code, i) {
        return false;
    }
    let close = code.get(i + 2).map(|&ti| &file.tokens[ti]);
    let semi = code.get(i + 3).map(|&ti| &file.tokens[ti]);
    matches!(close, Some(t) if file.text(t) == ")")
        && matches!(semi, Some(t) if t.kind == TokenKind::Punct && file.text(t) == ";")
}

/// For `recv(...).ok();`, the name of `recv`; `None` when the receiver
/// is not a direct call.
fn receiver_call(file: &SourceFile, code: &[usize], i: usize) -> Option<String> {
    // code[i-1] is `.`; before it either `)` (call receiver) or an ident.
    if i < 2 {
        return None;
    }
    let before = &file.tokens[code[i - 2]];
    if before.kind == TokenKind::Punct && file.text(before) == ")" {
        // Walk back to the matching `(`, then the ident before it.
        let mut depth = 0isize;
        let mut j = i - 2;
        loop {
            let t = &file.tokens[code[j]];
            if t.kind == TokenKind::Punct {
                match file.text(t) {
                    ")" | "]" | "}" => depth += 1,
                    "(" | "[" | "{" => {
                        depth -= 1;
                        if depth == 0 {
                            break;
                        }
                    }
                    _ => {}
                }
            }
            if j == 0 {
                return None;
            }
            j -= 1;
        }
        let name = &file.tokens[*code.get(j.checked_sub(1)?)?];
        if name.kind == TokenKind::Ident && !is_keyword(file.text(name)) {
            return Some(file.text(name).to_string());
        }
    }
    None
}

/// Classify the `/` at `code[i]`: a division whose divisor is not a
/// numeric literal.  Handles `/=`; skips path separators and operators
/// that merely contain a slash-adjacent shape (`a / b` needs an
/// expression on the left).
fn division_site(file: &SourceFile, code: &[usize], i: usize) -> Option<DivSite> {
    let t = &file.tokens[code[i]];
    // Left operand must end an expression.
    let prev = &file.tokens[*code.get(i.checked_sub(1)?)?];
    let prev_ok = match prev.kind {
        TokenKind::Ident => !is_keyword(file.text(prev)),
        TokenKind::Int | TokenKind::Float => true,
        TokenKind::Punct => matches!(file.text(prev), ")" | "]"),
        _ => false,
    };
    if !prev_ok {
        return None;
    }
    // Divisor: the token after the `/` (or after the `=` of `/=`).
    let mut j = i + 1;
    let next = &file.tokens[*code.get(j)?];
    if next.kind == TokenKind::Punct && file.text(next) == "=" && next.start == t.end {
        j += 1;
    }
    let divisor = &file.tokens[*code.get(j)?];
    if matches!(divisor.kind, TokenKind::Int | TokenKind::Float) {
        return None;
    }
    let guarded = code[..i].iter().any(|&ti| {
        let g = &file.tokens[ti];
        g.kind == TokenKind::Ident && DIV_GUARDS.contains(&file.text(g))
    });
    Some(DivSite { line: t.line, guarded })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::callgraph::CallGraph;
    use crate::scanner::FileContext;

    fn sums_of(src: &str) -> (CallGraph, Vec<FnSummary>) {
        let files = vec![SourceFile::lex("t.rs", src)];
        let ctxs: Vec<FileContext> = files.iter().map(FileContext::new).collect();
        let graph = CallGraph::build(&files, &ctxs, &[true]);
        let sums = compute(&graph, &files);
        (graph, sums)
    }

    fn summary<'a>(graph: &CallGraph, sums: &'a [FnSummary], name: &str) -> &'a FnSummary {
        &sums[graph.by_name[name][0]]
    }

    #[test]
    fn direct_facts_are_extracted() {
        let (g, s) = sums_of(
            "fn f(x: Option<u8>) -> Result<(), E> {\n\
             x.unwrap();\n\
             panic!(\"no\");\n\
             let g = m.lock();\n\
             let n = big as u32;\n\
             let _ = fallible();\n\
             fs::remove_file(p).ok();\n\
             let r = a / b;\n\
             Ok(())\n}\n",
        );
        let f = summary(&g, &s, "f");
        assert_eq!(f.panics.len(), 2, "{f:?}");
        assert_eq!(f.panics[0].what, ".unwrap()");
        assert_eq!(f.panics[1].what, "panic!");
        assert!(f.takes_lock);
        assert!(f.returns_result);
        assert_eq!(f.casts.len(), 1);
        assert!(!f.casts[0].guarded);
        assert_eq!(f.discards.len(), 2, "{f:?}");
        assert_eq!(f.discards[0].callee.as_deref(), Some("fallible"));
        assert_eq!(f.discards[1].callee.as_deref(), Some("remove_file"));
        assert_eq!(f.divisions.len(), 1);
        assert!(!f.divisions[0].guarded);
    }

    #[test]
    fn guards_are_recognized() {
        let (g, s) = sums_of(
            "fn casts(n: usize, m: usize) -> (u32, u32) {\n\
             let early = m as u32;\n\
             if n > u32::MAX as usize { return (0, 0); }\n\
             (early, n as u32)\n}\n\
             fn div(q: f64, x: f64) -> f64 {\n\
             if q <= MAX_DIVISOR_Q { x / q } else { 0.0 }\n}\n",
        );
        // The first cast precedes any bound check; the second is
        // dominated by the `u32::MAX` comparison.
        let casts = &summary(&g, &s, "casts").casts;
        assert_eq!(casts.len(), 2);
        assert!(!casts[0].guarded);
        assert!(casts[1].guarded);
        let div = &summary(&g, &s, "div").divisions;
        assert_eq!(div.len(), 1);
        assert!(div[0].guarded);
    }

    #[test]
    fn literal_divisors_and_conversion_ok_are_skipped() {
        let (g, s) = sums_of(
            "fn f(a: f64) -> Option<f64> {\n\
             let h = a / 2.0;\n\
             let v = probe().ok()?;\n\
             let w = probe().ok().map(|x| x);\n\
             Some(h)\n}\n",
        );
        let f = summary(&g, &s, "f");
        assert!(f.divisions.is_empty(), "{f:?}");
        assert!(f.discards.is_empty(), "{f:?}");
    }

    #[test]
    fn fixpoint_propagates_transitively() {
        let (g, s) = sums_of(
            "fn root() { mid(); }\n\
             fn mid() { leaf(); locker(); }\n\
             fn leaf() { x.unwrap(); }\n\
             fn locker() { m.lock(); }\n\
             fn clean() {}\n",
        );
        let p = propagate(&g, &s);
        assert!(p.may_panic[g.by_name["root"][0]]);
        assert!(p.takes_lock[g.by_name["root"][0]]);
        assert!(p.may_panic[g.by_name["mid"][0]]);
        assert!(!p.may_panic[g.by_name["clean"][0]]);
        assert!(!p.takes_lock[g.by_name["leaf"][0]]);
    }
}
