//! Diagnostics: the unit of output every lint produces.

use std::fmt;

/// The named lints the analyzer ships.
pub const LINTS: &[&str] = &[
    "panic-path",
    "lock-order",
    "durability-pattern",
    "float-eq",
    "forbid-unsafe",
    "protocol-drift",
    "metric-drift",
    "cast-truncation",
    "error-swallow",
    "div-guard",
    "dead-verb",
    "suppression",
];

/// One-line description per lint, in [`LINTS`] order (`--list-lints`).
pub const LINT_DOCS: &[(&str, &str)] = &[
    ("panic-path", "no unwrap/expect/panic!/indexing on request, replay, or CLI paths (interprocedural: reachable panics count)"),
    ("lock-order", "session-map guard must drop before a session Mutex is taken (interprocedural: callees that lock count)"),
    ("durability-pattern", "published files must be written tmp + fsync + rename"),
    ("float-eq", "no ==/!= on probability floats; compare with an epsilon"),
    ("forbid-unsafe", "every crate root must carry #![forbid(unsafe_code)]"),
    ("protocol-drift", "the wire verb set must agree everywhere it is written down"),
    ("metric-drift", "every registered pdb-obs metric must appear in the README metric table, and vice versa"),
    ("cast-truncation", "narrowing `as` casts on store/server paths need try_from or a ::MAX guard"),
    ("error-swallow", "`let _ =` / `.ok();` must not discard fallible results on store/server paths"),
    ("div-guard", "non-literal divisors in engine kernels need a stability-gate check first"),
    ("dead-verb", "every wire verb needs a handler reachable from the server run loop"),
    ("suppression", "suppressions must name a known lint, carry a reason, and match a finding"),
];

/// Whether `name` is a lint the analyzer knows about.
pub fn is_known_lint(name: &str) -> bool {
    LINTS.contains(&name)
}

/// One finding, pointing at a file and line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Lint that produced the finding.
    pub lint: &'static str,
    /// Repo-relative path of the offending file.
    pub file: String,
    /// 1-based line of the finding.
    pub line: u32,
    /// Human-readable description.
    pub message: String,
}

impl Diagnostic {
    /// Build a diagnostic.
    pub fn new(lint: &'static str, file: &str, line: u32, message: impl Into<String>) -> Self {
        Self { lint, file: file.to_string(), line, message: message.into() }
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}:{}: [{}] {}", self.file, self.line, self.lint, self.message)
    }
}

/// Render findings as a single JSON document:
/// `{"findings":[{"lint":..,"file":..,"line":..,"message":..},...],"count":N}`.
///
/// The schema is pinned by a test — tooling parses this, so additions
/// must be additive.  Hand-rolled (the crate is dependency-free); the
/// only strings needing escapes are paths and messages.
pub fn to_json(findings: &[Diagnostic]) -> String {
    let mut out = String::from("{\"findings\":[");
    for (i, d) in findings.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&format!(
            "{{\"lint\":\"{}\",\"file\":\"{}\",\"line\":{},\"message\":\"{}\"}}",
            json_escape(d.lint),
            json_escape(&d.file),
            d.line,
            json_escape(&d.message)
        ));
    }
    out.push_str(&format!("],\"count\":{}}}", findings.len()));
    out
}

fn json_escape(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// Render one finding as a GitHub Actions workflow command
/// (`::error file=...,line=...,title=...::message`), so findings surface
/// as PR annotations on the offending lines.
pub fn to_github(d: &Diagnostic) -> String {
    format!(
        "::error file={},line={},title=pdb-analyze[{}]::{}",
        gh_property_escape(&d.file),
        d.line,
        gh_property_escape(d.lint),
        gh_data_escape(&d.message)
    )
}

/// Workflow-command data escaping: `%`, CR, LF.
fn gh_data_escape(s: &str) -> String {
    s.replace('%', "%25").replace('\r', "%0D").replace('\n', "%0A")
}

/// Workflow-command property escaping: data escapes plus `:` and `,`.
fn gh_property_escape(s: &str) -> String {
    gh_data_escape(s).replace(':', "%3A").replace(',', "%2C")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_file_line_lint_message() {
        let d = Diagnostic::new("float-eq", "crates/x/src/lib.rs", 12, "comparison of f64 with ==");
        assert_eq!(d.to_string(), "crates/x/src/lib.rs:12: [float-eq] comparison of f64 with ==");
    }

    #[test]
    fn known_lints() {
        assert!(is_known_lint("panic-path"));
        assert!(is_known_lint("cast-truncation"));
        assert!(is_known_lint("dead-verb"));
        assert!(!is_known_lint("spelling"));
    }

    #[test]
    fn every_lint_is_documented_in_order() {
        assert_eq!(LINTS.len(), LINT_DOCS.len());
        for (name, (doc_name, doc)) in LINTS.iter().zip(LINT_DOCS) {
            assert_eq!(name, doc_name);
            assert!(!doc.is_empty());
        }
    }

    #[test]
    fn json_schema_is_pinned() {
        let findings = vec![
            Diagnostic::new("float-eq", "crates/x/src/lib.rs", 12, "a \"quoted\"\nmessage"),
            Diagnostic::new("panic-path", "src/lib.rs", 3, "plain"),
        ];
        assert_eq!(
            to_json(&findings),
            "{\"findings\":[\
             {\"lint\":\"float-eq\",\"file\":\"crates/x/src/lib.rs\",\"line\":12,\
             \"message\":\"a \\\"quoted\\\"\\nmessage\"},\
             {\"lint\":\"panic-path\",\"file\":\"src/lib.rs\",\"line\":3,\"message\":\"plain\"}\
             ],\"count\":2}"
        );
        assert_eq!(to_json(&[]), "{\"findings\":[],\"count\":0}");
    }

    #[test]
    fn github_format_escapes_workflow_command_chars() {
        let d = Diagnostic::new("float-eq", "src/a.rs", 7, "50% of:\nthings");
        assert_eq!(
            to_github(&d),
            "::error file=src/a.rs,line=7,title=pdb-analyze[float-eq]::50%25 of:%0Athings"
        );
    }
}
