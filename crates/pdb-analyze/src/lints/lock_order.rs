//! **lock-order**: a session-map lock guard (`RwLock` `read()`/`write()`)
//! must not be live when a per-session `Mutex` is taken (`.lock()`).
//!
//! The server's deadlock-freedom argument (see
//! `pdb-server/src/session.rs`) is exactly this ordering: the map lock is
//! only held for map operations, and every session `Mutex` is locked
//! *after* the map guard is dropped.  The lint enforces the argument
//! per function body:
//!
//! - a `let` binding whose initializer ends in `.read()`/`.write()`
//!   followed only by *guard-preserving* adapters (`unwrap`, `expect`,
//!   `unwrap_or_else`, ...) makes the guard **live** until its scope
//!   closes or it is explicitly `drop(...)`ed;
//! - a `.read()`/`.write()` used mid-expression keeps a temporary guard
//!   live to the end of the statement;
//! - any `.lock()` while a guard is live is a violation.
//!
//! `try_lock()` is not flagged: it cannot block, so it cannot deadlock
//! against the map guard.

use crate::diag::Diagnostic;
use crate::lexer::{SourceFile, TokenKind};
use crate::scanner::{functions, FileContext};

/// Method names that keep returning the guard (so the binding still owns
/// it).  Anything else (`.get(..)`, `.len()`, ...) consumes the guard
/// expression into a derived value and the temporary dies with the
/// statement.
const GUARD_PRESERVING: &[&str] = &["unwrap", "expect", "unwrap_or_else", "unwrap_or", "map_err"];

struct Guard {
    name: String,
    /// The guard dies when brace depth drops below this.
    min_depth: isize,
    line: u32,
}

/// Run the lint on one file, intraprocedurally (fixtures and files
/// analyzed without a call graph).
pub fn check(file: &SourceFile, ctx: &FileContext) -> Vec<Diagnostic> {
    check_with(file, ctx, &|_| false)
}

/// The interprocedural form: `takes_lock(name)` answers whether a callee
/// named `name` *transitively* ends up in `.lock()` (the workspace pass
/// feeds the fixpoint summaries in here).  A call to such a function
/// while a map guard is live deadlocks exactly like an inline
/// `.lock()` — the lock is merely one stack frame further down.
pub fn check_with(
    file: &SourceFile,
    ctx: &FileContext,
    takes_lock: &dyn Fn(&str) -> bool,
) -> Vec<Diagnostic> {
    let code = file.code_indices();
    let mut out = Vec::new();
    for f in functions(file) {
        // Map the raw-token body range back to positions in `code`.
        let body: Vec<usize> =
            code.iter().copied().filter(|&ti| ti >= f.body.start && ti < f.body.end).collect();
        if body.is_empty() || ctx.in_test(&file.tokens[f.body.start]) {
            continue;
        }
        check_body(file, &body, takes_lock, &mut out);
    }
    out
}

fn check_body(
    file: &SourceFile,
    body: &[usize],
    takes_lock: &dyn Fn(&str) -> bool,
    out: &mut Vec<Diagnostic>,
) {
    let mut depth = 0isize;
    let mut guards: Vec<Guard> = Vec::new();
    // Statement-local state.
    let mut stmt_guard_live = false; // a temporary read()/write() guard
    let mut let_names: Vec<String> = Vec::new();
    let mut in_let_pattern = false;
    let mut let_was_if = false;
    let mut i = 0usize;
    while i < body.len() {
        let ti = body[i];
        let t = &file.tokens[ti];
        let text = file.text(t);
        match t.kind {
            TokenKind::Punct => match text {
                "{" => {
                    depth += 1;
                    // Condition temporaries (`if map.read().unwrap().x() {`)
                    // drop before the block body runs.
                    stmt_guard_live = false;
                    let_was_if = false;
                }
                "}" => {
                    depth -= 1;
                    guards.retain(|g| depth >= g.min_depth);
                    stmt_guard_live = false;
                    let_was_if = false;
                }
                ";" => {
                    stmt_guard_live = false;
                    in_let_pattern = false;
                    let_names.clear();
                    let_was_if = false;
                }
                "=" if in_let_pattern => {
                    in_let_pattern = false;
                }
                _ => {}
            },
            TokenKind::Ident => match text {
                "if" | "while" => let_was_if = true,
                "let" => {
                    in_let_pattern = true;
                    let_names.clear();
                }
                "mut" => {}
                "drop" => {
                    // `drop(name)` releases a named guard.
                    if let (Some(&p), Some(&n)) = (body.get(i + 1), body.get(i + 2)) {
                        if file.text(&file.tokens[p]) == "("
                            && file.tokens[n].kind == TokenKind::Ident
                        {
                            let name = file.text(&file.tokens[n]);
                            guards.retain(|g| g.name != name);
                        }
                    }
                }
                // Relative to `code_indices` positions inside `body`.
                "read" | "write" if is_no_arg_method(file, body, i) => {
                    if in_let_pattern {
                        // `let x = ... .read()` cannot appear while the
                        // pattern is still open; ignore.
                    } else if let Some(end) = guard_preserving_chain_end(file, body, i) {
                        // Chain ends the statement: a named guard if we
                        // are in a let statement.
                        if !let_names.is_empty() && stmt_ends_at(file, body, end) {
                            let min_depth = if let_was_if { depth + 1 } else { depth };
                            guards.push(Guard {
                                name: let_names.last().cloned().unwrap_or_default(),
                                min_depth,
                                line: t.line,
                            });
                            let_names.clear();
                            let_was_if = false;
                        } else {
                            stmt_guard_live = true;
                        }
                    } else {
                        stmt_guard_live = true;
                    }
                }
                "lock" if is_no_arg_method(file, body, i) => {
                    if let Some(g) = guards.last() {
                        out.push(Diagnostic::new(
                            "lock-order",
                            &file.path,
                            t.line,
                            format!(
                                ".lock() taken while map guard `{}` (line {}) is live; \
                                 drop the map guard first",
                                g.name, g.line
                            ),
                        ));
                    } else if stmt_guard_live {
                        out.push(Diagnostic::new(
                            "lock-order",
                            &file.path,
                            t.line,
                            ".lock() taken in the same statement as a map read()/write() \
                             guard; split the statement so the guard drops first",
                        ));
                    }
                }
                name if in_let_pattern => {
                    let_names.push(name.to_string());
                }
                name if is_call_at(file, body, i) && takes_lock(name) => {
                    if let Some(g) = guards.last() {
                        out.push(Diagnostic::new(
                            "lock-order",
                            &file.path,
                            t.line,
                            format!(
                                "`{name}(...)` takes a session lock transitively while map \
                                 guard `{}` (line {}) is live; drop the map guard first",
                                g.name, g.line
                            ),
                        ));
                    } else if stmt_guard_live {
                        out.push(Diagnostic::new(
                            "lock-order",
                            &file.path,
                            t.line,
                            format!(
                                "`{name}(...)` takes a session lock transitively in the same \
                                 statement as a map read()/write() guard; split the statement \
                                 so the guard drops first"
                            ),
                        ));
                    }
                }
                _ => {}
            },
            _ => {}
        }
        i += 1;
    }
}

/// `body[i]` is an ident; is it `.name()` with an empty argument list?
fn is_no_arg_method(file: &SourceFile, body: &[usize], i: usize) -> bool {
    if !is_method_call_at(file, body, i) {
        return false;
    }
    body.get(i + 2).is_some_and(|&ti| file.text(&file.tokens[ti]) == ")")
}

fn is_method_call_at(file: &SourceFile, body: &[usize], i: usize) -> bool {
    let prev_is_dot = i > 0 && file.text(&file.tokens[body[i - 1]]) == ".";
    let next_is_paren = body.get(i + 1).is_some_and(|&ti| file.text(&file.tokens[ti]) == "(");
    prev_is_dot && next_is_paren
}

/// `body[i]` is an ident; is it a call (free or method), `name(...)`?
fn is_call_at(file: &SourceFile, body: &[usize], i: usize) -> bool {
    body.get(i + 1).is_some_and(|&ti| file.text(&file.tokens[ti]) == "(")
}

/// From the `read`/`write` ident at `body[i]`, walk the trailing method
/// chain as long as every link is guard-preserving.  Returns the position
/// just past the chain (at the token that ends it) if the whole chain is
/// guard-preserving, `None` if a non-preserving method appears.
fn guard_preserving_chain_end(file: &SourceFile, body: &[usize], i: usize) -> Option<usize> {
    // Skip our own `()`.
    let mut j = i + 3; // ident ( )
    loop {
        let Some(&ti) = body.get(j) else { return Some(j) };
        if file.text(&file.tokens[ti]) != "." {
            return Some(j);
        }
        let Some(&mi) = body.get(j + 1) else { return Some(j) };
        let m = &file.tokens[mi];
        if m.kind != TokenKind::Ident || !GUARD_PRESERVING.contains(&file.text(m)) {
            return None;
        }
        // Skip the argument list (may hold a closure).
        let Some(&pi) = body.get(j + 2) else { return Some(j + 2) };
        if file.text(&file.tokens[pi]) != "(" {
            return None;
        }
        let close = matching_close_in(file, body, j + 2)?;
        j = close + 1;
    }
}

/// Whether the chain ending at `body[pos]` ends its statement: `;`, the
/// enclosing `}`, or the `{` opening an `if let` body.
fn stmt_ends_at(file: &SourceFile, body: &[usize], pos: usize) -> bool {
    body.get(pos).is_none_or(|&ti| matches!(file.text(&file.tokens[ti]), ";" | "}" | "{"))
}

fn matching_close_in(file: &SourceFile, body: &[usize], open: usize) -> Option<usize> {
    let mut depth = 0isize;
    for (off, &ti) in body[open..].iter().enumerate() {
        let t = &file.tokens[ti];
        if t.kind != TokenKind::Punct {
            continue;
        }
        match file.text(t) {
            "(" | "[" | "{" => depth += 1,
            ")" | "]" | "}" => {
                depth -= 1;
                if depth == 0 {
                    return Some(open + off);
                }
            }
            _ => {}
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::FileContext;

    fn run(src: &str) -> Vec<u32> {
        let file = SourceFile::lex("t.rs", src);
        let ctx = FileContext::new(&file);
        check(&file, &ctx).into_iter().map(|d| d.line).collect()
    }

    #[test]
    fn lock_under_live_guard_is_flagged() {
        let src = "fn f(&self) {\n\
                   let shard = self.shards[i].read().unwrap();\n\
                   let s = handle.lock().unwrap();\n\
                   }\n";
        assert_eq!(run(src), vec![3]);
    }

    #[test]
    fn guard_dropped_before_lock_is_fine() {
        let src = "fn f(&self) {\n\
                   let handle = { let shard = self.shards[i].read().unwrap(); shard.get(&id).cloned() };\n\
                   let s = handle.lock().unwrap();\n\
                   }\n";
        assert_eq!(run(src), Vec::<u32>::new());
    }

    #[test]
    fn explicit_drop_releases_guard() {
        let src = "fn f(&self) {\n\
                   let shard = map.read().unwrap_or_else(|e| e.into_inner());\n\
                   drop(shard);\n\
                   let s = handle.lock().unwrap();\n\
                   }\n";
        assert_eq!(run(src), Vec::<u32>::new());
    }

    #[test]
    fn temporary_guard_in_same_statement_is_flagged() {
        let src = "fn f(&self) {\n\
                   let v = map.read().unwrap().get(&id).unwrap().lock().unwrap();\n\
                   }\n";
        assert_eq!(run(src), vec![2]);
    }

    #[test]
    fn derived_value_does_not_hold_guard() {
        let src = "fn f(&self) {\n\
                   let ids = map.read().unwrap().keys().cloned().collect::<Vec<_>>();\n\
                   let s = handle.lock().unwrap();\n\
                   }\n";
        assert_eq!(run(src), Vec::<u32>::new());
    }

    #[test]
    fn if_let_guard_scopes_to_its_block() {
        let src = "fn f(&self) {\n\
                   if let Ok(shard) = map.read() {\n\
                   let n = shard.len();\n\
                   }\n\
                   let s = handle.lock().unwrap();\n\
                   }\n";
        assert_eq!(run(src), Vec::<u32>::new());
    }

    #[test]
    fn transitive_lock_via_callee_is_flagged() {
        let src = "fn f(&self) {\n\
                   let shard = map.read().unwrap();\n\
                   compact_session(id);\n\
                   }\n\
                   fn g(&self) {\n\
                   compact_session(id);\n\
                   }\n";
        let file = SourceFile::lex("t.rs", src);
        let ctx = FileContext::new(&file);
        let got: Vec<u32> = check_with(&file, &ctx, &|n| n == "compact_session")
            .into_iter()
            .map(|d| d.line)
            .collect();
        // Flagged under the live guard in `f`; fine with no guard in `g`.
        assert_eq!(got, vec![3]);
    }

    #[test]
    fn try_lock_is_not_flagged() {
        let src = "fn f(&self) {\n\
                   let shard = map.read().unwrap();\n\
                   let s = handle.try_lock();\n\
                   }\n";
        assert_eq!(run(src), Vec::<u32>::new());
    }
}
