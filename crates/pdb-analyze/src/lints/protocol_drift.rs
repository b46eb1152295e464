//! **protocol-drift**: the wire-protocol verb set is defined once and
//! echoed in four places; this lint keeps all of them in sync.
//!
//! Source of truth: the string returned per variant by
//! `Request::verb()` in `crates/pdb-server/src/protocol.rs`.  Checked
//! against it:
//!
//! 1. the match arms of `impl Deserialize for Request` in the same file
//!    (a verb you can serialize but not parse is drift),
//! 2. the `//! | `verb` |` doc table at the top of `protocol.rs`,
//! 3. the public client methods in `crates/pdb-server/src/client.rs`
//!    (every verb needs a typed method; a wire alias, whose payload type
//!    is a `type` alias of another verb's payload, is covered by that
//!    verb's method),
//! 4. the `pdb call` usage text in `crates/pdb-cli/src/args.rs`,
//! 5. the README's verb table (both directions),
//! 6. the fleet router's routing table in
//!    `crates/pdb-fleet/src/router.rs` (a verb the router cannot route
//!    dead-ends every fleet deployment).

use crate::diag::Diagnostic;
use crate::lexer::{SourceFile, TokenKind};
use crate::scanner::functions;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

const PROTOCOL: &str = "crates/pdb-server/src/protocol.rs";
const CLIENT: &str = "crates/pdb-server/src/client.rs";
const ARGS: &str = "crates/pdb-cli/src/args.rs";
const README: &str = "README.md";
const ROUTER: &str = "crates/pdb-fleet/src/router.rs";

/// Run the cross-file check from the workspace root.
pub fn check(root: &Path) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    let Some(protocol) = load(root, PROTOCOL, &mut out) else { return out };
    let Some(client) = load(root, CLIENT, &mut out) else { return out };
    let Some(args) = load(root, ARGS, &mut out) else { return out };
    let readme = match std::fs::read_to_string(root.join(README)) {
        Ok(text) => text,
        Err(e) => {
            out.push(Diagnostic::new("protocol-drift", README, 1, format!("unreadable: {e}")));
            return out;
        }
    };

    let verbs = verb_fn_strings(&protocol);
    if verbs.is_empty() {
        out.push(Diagnostic::new(
            "protocol-drift",
            PROTOCOL,
            1,
            "could not find any verb strings in fn verb()",
        ));
        return out;
    }

    // 1. Deserialize arms.
    let arms = deserialize_arms(&protocol);
    diff_sets(&verbs, &arms, PROTOCOL, "impl Deserialize for Request match arms", &mut out);

    // 2. protocol.rs doc table.
    let doc_rows = table_rows(&protocol.src, "//! | Verb", "//! |");
    diff_sets(&verbs, &doc_rows, PROTOCOL, "the //! verb doc table", &mut out);

    // 3. Client methods (superset is fine: connect/call are not verbs).
    let methods: BTreeSet<String> = functions(&client).into_iter().map(|f| f.name).collect();
    let aliases = alias_verbs(&protocol);
    for v in &verbs {
        let target = aliases.get(v).unwrap_or(v);
        if !methods.contains(target) {
            out.push(Diagnostic::new(
                "protocol-drift",
                CLIENT,
                1,
                format!("no client method for verb `{v}`"),
            ));
        }
    }

    // 4. CLI usage text mentions every verb.
    for v in &verbs {
        if !args.src.contains(v.as_str()) {
            out.push(Diagnostic::new(
                "protocol-drift",
                ARGS,
                1,
                format!("usage text does not mention verb `{v}`"),
            ));
        }
    }

    // 5. README verb table, both directions.
    let readme_rows = table_rows(&readme, "| Verb", "|");
    if readme_rows.is_empty() {
        out.push(Diagnostic::new(
            "protocol-drift",
            README,
            1,
            "README has no verb table (header row starting `| Verb`)",
        ));
    } else {
        diff_sets(&verbs, &readme_rows, README, "the README verb table", &mut out);
    }

    // 6. Fleet router routing table, both directions.  The router exists
    // only when the fleet crate does; if the file is missing the whole
    // check is skipped rather than reported (the crate layout lint owns
    // that).
    if let Ok(router) = std::fs::read_to_string(root.join(ROUTER)) {
        let router_rows = table_rows(&router, "//! | Verb", "//! |");
        if router_rows.is_empty() {
            out.push(Diagnostic::new(
                "protocol-drift",
                ROUTER,
                1,
                "router has no routing doc table (header row starting `//! | Verb`)",
            ));
        } else {
            diff_sets(&verbs, &router_rows, ROUTER, "the router routing table", &mut out);
        }
    }
    out
}

fn load(root: &Path, rel: &'static str, out: &mut Vec<Diagnostic>) -> Option<SourceFile> {
    match std::fs::read_to_string(root.join(rel)) {
        Ok(src) => Some(SourceFile::lex(rel, src)),
        Err(e) => {
            out.push(Diagnostic::new("protocol-drift", rel, 1, format!("unreadable: {e}")));
            None
        }
    }
}

fn diff_sets(
    truth: &BTreeSet<String>,
    observed: &BTreeSet<String>,
    file: &'static str,
    what: &str,
    out: &mut Vec<Diagnostic>,
) {
    for v in truth.difference(observed) {
        out.push(Diagnostic::new(
            "protocol-drift",
            file,
            1,
            format!("verb `{v}` is missing from {what}"),
        ));
    }
    for v in observed.difference(truth) {
        out.push(Diagnostic::new(
            "protocol-drift",
            file,
            1,
            format!("{what} lists `{v}`, which fn verb() does not return"),
        ));
    }
}

/// `alias verb → target verb` for every verb whose payload type is a
/// `type` alias of another verb's payload (`Request::ApplyProbe(ApplyProbe)`
/// with `type ApplyProbe = ApplyMutation;`): the two verbs carry the same
/// request, so the target's client method can send either.
fn alias_verbs(file: &SourceFile) -> BTreeMap<String, String> {
    fn text<'a>(file: &'a SourceFile, code: &[usize], k: usize) -> &'a str {
        code.get(k).map_or("", |&t| file.text(&file.tokens[t]))
    }
    let code = file.code_indices();
    let mut aliased = BTreeMap::new(); // alias type -> target type
    let mut payload = BTreeMap::new(); // Request variant -> payload type
    let mut k = 0usize;
    while k < code.len() {
        let t = |j: usize| text(file, &code, j);
        if t(k) == "type" && t(k + 2) == "=" && t(k + 4) == ";" {
            aliased.insert(t(k + 1), t(k + 3));
        } else if t(k) == "enum" && t(k + 1) == "Request" && t(k + 2) == "{" {
            let close = super::matching_close(file, &code, k + 2).unwrap_or(code.len());
            for j in k + 3..close {
                if t(j + 1) == "(" && t(j + 3) == ")" {
                    payload.insert(t(j), t(j + 2));
                }
            }
            k = close;
        }
        k += 1;
    }
    let arms = super::dead_verb::verb_arms(file);
    let verb_of: BTreeMap<&str, &str> = arms
        .iter()
        .filter_map(|(variant, verb, _)| Some((*payload.get(variant.as_str())?, verb.as_str())))
        .collect();
    arms.iter()
        .filter_map(|(variant, verb, _)| {
            let target = aliased.get(payload.get(variant.as_str())?)?;
            Some((verb.clone(), verb_of.get(target)?.to_string()))
        })
        .collect()
}

/// The string literals inside `fn verb(..)`.
fn verb_fn_strings(file: &SourceFile) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    for f in functions(file) {
        if f.name != "verb" {
            continue;
        }
        for t in &file.tokens[f.body.clone()] {
            if t.kind == TokenKind::Str {
                out.insert(unquote(file.text(t)));
            }
        }
    }
    out
}

/// String literals followed by `=>` inside `impl Deserialize for Request`.
fn deserialize_arms(file: &SourceFile) -> BTreeSet<String> {
    let code = file.code_indices();
    let mut out = BTreeSet::new();
    let mut i = 0usize;
    while i + 3 < code.len() {
        let texts: Vec<&str> = (0..4).map(|k| file.text(&file.tokens[code[i + k]])).collect();
        if texts == ["impl", "Deserialize", "for", "Request"] {
            // Find the impl block's braces.
            let mut j = i + 4;
            while j < code.len() && file.text(&file.tokens[code[j]]) != "{" {
                j += 1;
            }
            let Some(close) = super::matching_close(file, &code, j) else { break };
            for k in j..close {
                let t = &file.tokens[code[k]];
                if t.kind == TokenKind::Str && super::adjacent_puncts(file, &code, k + 1, "=", ">")
                {
                    out.insert(unquote(file.text(t)));
                }
            }
            break;
        }
        i += 1;
    }
    out
}

/// Rows of a pipe table: from the line starting with `header_prefix`,
/// collect the first backticked word of every following line that starts
/// with `row_prefix`, until the table ends.
fn table_rows(text: &str, header_prefix: &str, row_prefix: &str) -> BTreeSet<String> {
    let mut out = BTreeSet::new();
    let mut in_table = false;
    for line in text.lines() {
        let trimmed = line.trim_start();
        if !in_table {
            if trimmed.starts_with(header_prefix) {
                in_table = true;
            }
            continue;
        }
        if !trimmed.starts_with(row_prefix) {
            break;
        }
        if let Some(name) = first_backticked(trimmed) {
            out.insert(name);
        }
    }
    out
}

fn first_backticked(line: &str) -> Option<String> {
    let open = line.find('`')?;
    let rest = &line[open + 1..];
    let close = rest.find('`')?;
    Some(rest[..close].to_string())
}

fn unquote(s: &str) -> String {
    s.trim_matches('"').to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verb_strings_and_arms_extracted() {
        let src = r#"
impl Request {
    pub fn verb(&self) -> &'static str {
        match self {
            Request::A(_) => "alpha",
            Request::B => "beta",
        }
    }
}
impl Deserialize for Request {
    fn from_value(v: &Value) -> Result<Self, SerdeError> {
        match key {
            "alpha" => parse_a(v),
            "gamma" => parse_g(v),
            other => err(other),
        }
    }
}
"#;
        let file = SourceFile::lex("p.rs", src);
        let verbs = verb_fn_strings(&file);
        assert_eq!(verbs, ["alpha", "beta"].iter().map(|s| s.to_string()).collect());
        let arms = deserialize_arms(&file);
        assert_eq!(arms, ["alpha", "gamma"].iter().map(|s| s.to_string()).collect());
    }

    #[test]
    fn table_rows_stop_at_table_end() {
        let text = "intro\n| Verb | Payload |\n|---|---|\n| `a` | x |\n| `b` | y |\n\n| `c` | unrelated |\n";
        let rows = table_rows(text, "| Verb", "|");
        assert_eq!(rows, ["a", "b"].iter().map(|s| s.to_string()).collect());
    }
}
