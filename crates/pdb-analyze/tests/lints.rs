//! Fixture-based acceptance tests: every lint has at least one bad
//! fixture pinning exact `file:line` diagnostics and one good fixture
//! that must come back clean.  The fixtures live under
//! `tests/fixtures/` and are lexed, never compiled — several of them
//! would not type-check on purpose.

use pdb_analyze::callgraph::CallGraph;
use pdb_analyze::lexer::SourceFile;
use pdb_analyze::lints;
use pdb_analyze::scanner::FileContext;
use pdb_analyze::summaries::{self, FnSummary};
use pdb_analyze::Diagnostic;
use std::path::{Path, PathBuf};

fn fixture(name: &str) -> SourceFile {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("tests/fixtures").join(name);
    let src = std::fs::read_to_string(&path)
        .unwrap_or_else(|e| panic!("missing fixture {}: {e}", path.display()));
    SourceFile::lex(name, src)
}

/// Run a per-file lint over a fixture and return the finding lines.
fn lines(diags: &[Diagnostic]) -> Vec<u32> {
    diags.iter().map(|d| d.line).collect()
}

fn run_on(name: &str, check: fn(&SourceFile, &FileContext) -> Vec<Diagnostic>) -> Vec<Diagnostic> {
    let file = fixture(name);
    let ctx = FileContext::new(&file);
    check(&file, &ctx)
}

#[test]
fn panic_path_bad_fixture_pins_lines() {
    let diags = run_on("panic_path_bad.rs", lints::panic_path::check);
    assert_eq!(lines(&diags), vec![5, 6, 8, 10, 12, 19], "{diags:?}");
    assert!(diags.iter().all(|d| d.lint == "panic-path" && d.file == "panic_path_bad.rs"));
    assert!(diags[0].message.contains(".unwrap()"), "{}", diags[0].message);
    assert!(diags[2].message.contains("panic!"), "{}", diags[2].message);
    assert!(diags[3].message.contains("indexing"), "{}", diags[3].message);
}

#[test]
fn panic_path_good_fixture_is_clean() {
    let diags = run_on("panic_path_good.rs", lints::panic_path::check);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn lock_order_bad_fixture_pins_lines() {
    let diags = run_on("lock_order_bad.rs", lints::lock_order::check);
    assert_eq!(lines(&diags), vec![7, 11, 17], "{diags:?}");
    assert!(diags.iter().all(|d| d.lint == "lock-order"));
    // The named-guard diagnostic names the guard and where it was taken.
    assert!(diags[0].message.contains("`shard` (line 5)"), "{}", diags[0].message);
    // The single-statement form gets its own wording.
    assert!(diags[1].message.contains("same statement"), "{}", diags[1].message);
}

#[test]
fn lock_order_good_fixture_is_clean() {
    let diags = run_on("lock_order_good.rs", lints::lock_order::check);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn durability_bad_fixture_pins_lines() {
    let diags = run_on("durability_bad.rs", lints::durability::check);
    assert_eq!(lines(&diags), vec![4, 10, 14], "{diags:?}");
    assert!(diags.iter().all(|d| d.lint == "durability-pattern"));
    assert!(diags[0].message.contains("sync_all/sync_data and rename"), "{}", diags[0].message);
    assert!(diags[1].message.contains("fs::write"), "{}", diags[1].message);
    assert!(diags[2].message.contains("without rename"), "{}", diags[2].message);
}

#[test]
fn durability_good_fixture_is_clean() {
    let diags = run_on("durability_good.rs", lints::durability::check);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn float_eq_bad_fixture_pins_lines() {
    let diags = run_on("float_eq_bad.rs", lints::float_eq::check);
    assert_eq!(lines(&diags), vec![4, 7, 10], "{diags:?}");
    assert!(diags.iter().all(|d| d.lint == "float-eq"));
    assert!(diags[0].message.contains("`==`"), "{}", diags[0].message);
    assert!(diags[1].message.contains("`!=`"), "{}", diags[1].message);
}

#[test]
fn float_eq_good_fixture_is_clean() {
    let diags = run_on("float_eq_good.rs", lints::float_eq::check);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn forbid_unsafe_bad_fixture_pins_line_one() {
    let diags = lints::forbid_unsafe::check(&fixture("forbid_unsafe_bad.rs"));
    assert_eq!(lines(&diags), vec![1], "{diags:?}");
    assert_eq!(diags[0].lint, "forbid-unsafe");
    assert!(diags[0].message.contains("#![forbid(unsafe_code)]"), "{}", diags[0].message);
}

#[test]
fn forbid_unsafe_good_fixture_is_clean() {
    let diags = lints::forbid_unsafe::check(&fixture("forbid_unsafe_good.rs"));
    assert!(diags.is_empty(), "{diags:?}");
}

/// Lex a fixture under an in-scope pseudo-path, build the one-file call
/// graph and summaries, and run a graph-level lint on it.
fn run_graph_lint(
    name: &str,
    pseudo_path: &str,
    check: fn(&CallGraph, &[FnSummary], &[SourceFile]) -> Vec<Diagnostic>,
) -> Vec<Diagnostic> {
    let src = fixture(name);
    let file = SourceFile::lex(pseudo_path, src.src.clone());
    let ctx = FileContext::new(&file);
    let files = vec![file];
    let ctxs = vec![ctx];
    let graph = CallGraph::build(&files, &ctxs, &[true]);
    let sums = summaries::compute(&graph, &files);
    check(&graph, &sums, &files)
}

#[test]
fn cast_truncation_bad_fixture_pins_lines() {
    let diags = run_graph_lint(
        "cast_truncation_bad.rs",
        "crates/pdb-store/src/wal.rs",
        lints::cast_truncation::check,
    );
    assert_eq!(lines(&diags), vec![3, 7, 8], "{diags:?}");
    assert!(diags.iter().all(|d| d.lint == "cast-truncation"));
    assert!(diags[0].message.contains("u32::try_from"), "{}", diags[0].message);
    assert!(diags[1].message.contains("`as u16`"), "{}", diags[1].message);
}

#[test]
fn cast_truncation_good_fixture_is_clean() {
    let diags = run_graph_lint(
        "cast_truncation_good.rs",
        "crates/pdb-store/src/wal.rs",
        lints::cast_truncation::check,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn error_swallow_bad_fixture_pins_lines() {
    let diags = run_graph_lint(
        "error_swallow_bad.rs",
        "crates/pdb-store/src/recovery.rs",
        lints::error_swallow::check,
    );
    assert_eq!(lines(&diags), vec![3, 4], "{diags:?}");
    assert!(diags.iter().all(|d| d.lint == "error-swallow"));
    assert!(diags[0].message.contains("`sync_all(...)`"), "{}", diags[0].message);
    assert!(diags[1].message.contains(".ok()"), "{}", diags[1].message);
}

#[test]
fn error_swallow_good_fixture_is_clean() {
    let diags = run_graph_lint(
        "error_swallow_good.rs",
        "crates/pdb-store/src/recovery.rs",
        lints::error_swallow::check,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn div_guard_bad_fixture_pins_lines() {
    let diags = run_graph_lint(
        "div_guard_bad.rs",
        "crates/pdb-engine/src/delta.rs",
        lints::div_guard::check,
    );
    assert_eq!(lines(&diags), vec![3, 7, 15], "{diags:?}");
    assert!(diags.iter().all(|d| d.lint == "div-guard"));
    assert!(diags[0].message.contains("stability gate"), "{}", diags[0].message);
}

#[test]
fn div_guard_good_fixture_is_clean() {
    let diags = run_graph_lint(
        "div_guard_good.rs",
        "crates/pdb-engine/src/delta.rs",
        lints::div_guard::check,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn div_guard_only_covers_the_kernels() {
    // The same divisions outside delta/psr/poly are out of scope.
    let diags = run_graph_lint(
        "div_guard_bad.rs",
        "crates/pdb-engine/src/batch.rs",
        lints::div_guard::check,
    );
    assert!(diags.is_empty(), "{diags:?}");
}

// ---------------------------------------------------------------------------
// Mini-workspace tests: suppression semantics and protocol drift need a
// directory tree, so each test builds a throwaway workspace in the temp
// dir and runs the workspace/cross-file entry points on it.
// ---------------------------------------------------------------------------

struct TempWorkspace {
    root: PathBuf,
}

impl TempWorkspace {
    fn new(name: &str, files: &[(&str, &str)]) -> Self {
        let root = std::env::temp_dir().join(format!("pdb-analyze-{name}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        for (rel, content) in files {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, content).unwrap();
        }
        TempWorkspace { root }
    }
}

impl Drop for TempWorkspace {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.root);
    }
}

#[test]
fn suppressions_require_reasons_and_must_match() {
    let lib = "\
#![forbid(unsafe_code)]

fn sparsity_gate(x: f64) -> bool {
    // pdb-analyze: allow(float-eq): the value is assigned, not computed
    x == 0.0
}

fn reasonless(x: f64) -> bool {
    x != 0.0 // pdb-analyze: allow(float-eq)
}

fn unknown_lint(x: f64) -> f64 {
    // pdb-analyze: allow(no-such-lint): misspelled on purpose
    x
}

fn stale(x: f64) -> f64 {
    // pdb-analyze: allow(float-eq): nothing on the next line triggers it
    x + 1.0
}
";
    let ws =
        TempWorkspace::new("suppression", &[("Cargo.toml", "[workspace]\n"), ("src/lib.rs", lib)]);
    let diags = pdb_analyze::workspace::run(&ws.root).unwrap();
    // protocol-drift reports the missing server files in this synthetic
    // tree; everything else is what this test is about.
    let got: Vec<(&str, u32)> =
        diags.iter().filter(|d| d.lint != "protocol-drift").map(|d| (d.lint, d.line)).collect();
    assert_eq!(
        got,
        vec![
            ("float-eq", 9),     // reasonless suppression does not suppress
            ("suppression", 9),  // ...and is itself reported
            ("suppression", 13), // unknown lint name
            ("suppression", 18), // stale: matches no finding
        ],
        "{diags:?}"
    );
    // The well-formed suppression on line 4 silenced the finding on line 5.
    assert!(!got.contains(&("float-eq", 5)), "{diags:?}");
}

const DRIFT_PROTOCOL: &str = "\
//! | Verb | Payload | Response |
//! |------|---------|----------|
//! | `alpha` | — | `ok` |

impl Request {
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Alpha => \"alpha\",
            Request::Beta => \"beta\",
        }
    }
}

impl Deserialize for Request {
    fn from_value(value: &Value) -> Result<Self, SerdeError> {
        match verb {
            \"alpha\" => Ok(Request::Alpha),
            other => Err(other),
        }
    }
}
";

const DRIFT_CLIENT: &str = "\
impl Client {
    pub fn alpha(&mut self) -> Result<(), Error> {
        Ok(())
    }
}
";

const DRIFT_README: &str = "\
# fixture

| Verb | Payload | Response |
|------|---------|----------|
| `alpha` | — | `ok` |
| `gamma` | — | `ok` |
";

#[test]
fn protocol_drift_catches_every_echo_site() {
    let ws = TempWorkspace::new(
        "drift",
        &[
            ("Cargo.toml", "[workspace]\n"),
            ("crates/pdb-server/src/protocol.rs", DRIFT_PROTOCOL),
            ("crates/pdb-server/src/client.rs", DRIFT_CLIENT),
            ("crates/pdb-cli/src/args.rs", "pub const USAGE: &str = \"alpha\";\n"),
            ("README.md", DRIFT_README),
        ],
    );
    let diags = lints::protocol_drift::check(&ws.root);
    let messages: Vec<&str> = diags.iter().map(|d| d.message.as_str()).collect();
    assert_eq!(diags.len(), 6, "{diags:?}");
    assert!(messages.iter().any(|m| m.contains("`beta`") && m.contains("match arms")));
    assert!(messages.iter().any(|m| m.contains("`beta`") && m.contains("doc table")));
    assert!(messages.iter().any(|m| m.contains("no client method for verb `beta`")));
    assert!(messages.iter().any(|m| m.contains("usage text does not mention verb `beta`")));
    assert!(messages.iter().any(|m| m.contains("`beta`") && m.contains("README verb table")));
    assert!(messages
        .iter()
        .any(|m| m.contains("`gamma`") && m.contains("fn verb() does not return")));
}

#[test]
fn protocol_drift_clean_when_all_sites_agree() {
    let protocol = DRIFT_PROTOCOL
        .replace("| `alpha` | — | `ok` |", "| `alpha` | — | `ok` |\n//! | `beta` | — | `ok` |")
        .replace(
            "\"alpha\" => Ok(Request::Alpha),",
            "\"alpha\" => Ok(Request::Alpha),\n            \"beta\" => Ok(Request::Beta),",
        );
    let client = DRIFT_CLIENT.replace(
        "    pub fn alpha(&mut self) -> Result<(), Error> {\n        Ok(())\n    }",
        "    pub fn alpha(&mut self) -> Result<(), Error> {\n        Ok(())\n    }\n\
         \n    pub fn beta(&mut self) -> Result<(), Error> {\n        Ok(())\n    }",
    );
    let readme = DRIFT_README.replace("| `gamma` | — | `ok` |", "| `beta` | — | `ok` |");
    let ws = TempWorkspace::new(
        "drift-clean",
        &[
            ("Cargo.toml", "[workspace]\n"),
            ("crates/pdb-server/src/protocol.rs", &protocol),
            ("crates/pdb-server/src/client.rs", &client),
            ("crates/pdb-cli/src/args.rs", "pub const USAGE: &str = \"alpha beta\";\n"),
            ("README.md", &readme),
        ],
    );
    let diags = lints::protocol_drift::check(&ws.root);
    assert!(diags.is_empty(), "{diags:?}");
}

#[test]
fn protocol_drift_lets_a_wire_alias_share_its_targets_client_method() {
    // `beta` carries `alpha`'s payload type under a `type` alias, so the
    // typed `alpha` method covers it; as a payload of its own it needs a
    // method of its own.
    let protocol = |beta_payload: &str| {
        format!(
            "\
//! | Verb | Payload | Response |
//! |------|---------|----------|
//! | `alpha` | — | `ok` |
//! | `beta` | — | `ok` |

pub struct AlphaReq;
{beta_payload}

pub enum Request {{
    Alpha(AlphaReq),
    Beta(BetaReq),
}}

impl Request {{
    pub fn verb(&self) -> &'static str {{
        match self {{
            Request::Alpha(_) => \"alpha\",
            Request::Beta(_) => \"beta\",
        }}
    }}
}}

impl Deserialize for Request {{
    fn from_value(value: &Value) -> Result<Self, SerdeError> {{
        match verb {{
            \"alpha\" => Ok(Request::Alpha(AlphaReq)),
            \"beta\" => Ok(Request::Beta(AlphaReq)),
            other => Err(other),
        }}
    }}
}}
"
        )
    };
    let readme = DRIFT_README.replace("| `gamma` | — | `ok` |", "| `beta` | — | `ok` |");
    let check = |beta_payload: &str| {
        let ws = TempWorkspace::new(
            "drift-alias",
            &[
                ("Cargo.toml", "[workspace]\n"),
                ("crates/pdb-server/src/protocol.rs", &protocol(beta_payload)),
                ("crates/pdb-server/src/client.rs", DRIFT_CLIENT),
                ("crates/pdb-cli/src/args.rs", "pub const USAGE: &str = \"alpha beta\";\n"),
                ("README.md", &readme),
            ],
        );
        lints::protocol_drift::check(&ws.root)
    };
    let diags = check("pub type BetaReq = AlphaReq;");
    assert!(diags.is_empty(), "{diags:?}");
    let diags = check("pub struct BetaReq;");
    assert_eq!(diags.len(), 1, "{diags:?}");
    assert!(diags[0].message.contains("no client method for verb `beta`"), "{diags:?}");
}

/// Strip the protocol-drift noise a synthetic tree always produces
/// (missing server files) so mini-workspace tests can assert exactly.
fn without_drift(diags: Vec<Diagnostic>) -> Vec<Diagnostic> {
    diags.into_iter().filter(|d| d.lint != "protocol-drift").collect()
}

#[test]
fn interprocedural_panic_path_sees_through_calls() {
    // The server entry calls into an "engine" file that panic-path does
    // not cover intraprocedurally; the reachable unwrap is still
    // reported (with a witness chain), the unreachable one is not.
    let server = "#![forbid(unsafe_code)]\npub fn run() { kernel_step(); }\n";
    let engine = "#![forbid(unsafe_code)]\n\
                  pub fn kernel_step(x: Option<u32>) {\n\
                  helper(x);\n\
                  }\n\
                  fn helper(x: Option<u32>) {\n\
                  x.unwrap();\n\
                  }\n\
                  fn island(x: Option<u32>) {\n\
                  x.unwrap();\n\
                  }\n";
    let ws = TempWorkspace::new(
        "interproc-panic",
        &[
            ("Cargo.toml", "[workspace]\n"),
            ("crates/pdb-server/src/lib.rs", server),
            ("crates/pdb-engine/src/lib.rs", engine),
        ],
    );
    let diags = without_drift(pdb_analyze::workspace::run(&ws.root).unwrap());
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!(
        (d.lint, d.file.as_str(), d.line),
        ("panic-path", "crates/pdb-engine/src/lib.rs", 6)
    );
    assert!(d.message.contains("run -> kernel_step -> helper"), "{}", d.message);
}

#[test]
fn interprocedural_lock_order_flags_locking_callees() {
    // `compact` holds a shard guard while calling `purge`, which takes a
    // session lock one frame down.
    let session = "#![forbid(unsafe_code)]\n\
                   pub fn compact(&self) {\n\
                   let shard = self.map.read().unwrap_or_else(|e| e.into_inner());\n\
                   purge(shard.id());\n\
                   }\n\
                   fn purge(id: u64) {\n\
                   let s = handle.lock();\n\
                   drop(s);\n\
                   }\n";
    let ws = TempWorkspace::new(
        "interproc-lock",
        &[("Cargo.toml", "[workspace]\n"), ("crates/pdb-server/src/session.rs", session)],
    );
    let diags = without_drift(pdb_analyze::workspace::run(&ws.root).unwrap());
    assert_eq!(diags.len(), 1, "{diags:?}");
    let d = &diags[0];
    assert_eq!((d.lint, d.line), ("lock-order", 4));
    assert!(d.message.contains("`purge(...)` takes a session lock transitively"), "{}", d.message);
}

#[test]
fn dead_verb_requires_a_reachable_handler() {
    let protocol = "\
impl Request {
    pub fn verb(&self) -> &'static str {
        match self {
            Request::Evaluate => \"evaluate\",
            Request::Orphan => \"orphan\",
            Request::Unreached => \"unreached\",
        }
    }
}
";
    let server = "\
pub fn run() {
    dispatch();
}
fn dispatch(req: Request) -> Response {
    match req {
        Request::Evaluate => respond(),
    }
}
fn cold(req: Request) -> Response {
    match req {
        Request::Unreached => respond(),
    }
}
";
    let files = vec![
        SourceFile::lex("crates/pdb-server/src/protocol.rs", protocol.to_string()),
        SourceFile::lex("crates/pdb-server/src/server.rs", server.to_string()),
    ];
    let ctxs: Vec<FileContext> = files.iter().map(FileContext::new).collect();
    let graph = CallGraph::build(&files, &ctxs, &[true, true]);
    let diags = lints::dead_verb::check(&graph, &files);
    assert_eq!(lines(&diags), vec![5, 6], "{diags:?}");
    assert!(diags[0].message.contains("`orphan`") && diags[0].message.contains("no function"));
    assert!(diags[1].message.contains("`unreached`") && diags[1].message.contains("no call chain"));
    // `evaluate` has a handler reachable from run(): not reported.
    assert!(!diags.iter().any(|d| d.message.contains("`evaluate`")), "{diags:?}");
}

#[test]
fn scan_roots_cover_examples_and_root_tests() {
    // The walker must reach root src/, examples/ and root tests/ — a
    // float-eq violation in each shows up with the right path.  The
    // unwrap in the example must NOT feed the call graph (examples are
    // aux roots), so no interprocedural panic-path appears.
    let ws = TempWorkspace::new(
        "scan-roots",
        &[
            ("Cargo.toml", "[workspace]\n"),
            ("src/lib.rs", "#![forbid(unsafe_code)]\nfn a(x: f64) -> bool { x == 0.0 }\n"),
            ("examples/demo.rs", "fn main() { let p: f64 = 0.1; if p == 0.3 { opt().unwrap(); } }\n"),
            ("tests/integration.rs", "fn close(x: f64) -> bool { x == 0.25 }\n#[test]\nfn t() { assert!(close(0.25)); }\n"),
        ],
    );
    let diags = without_drift(pdb_analyze::workspace::run(&ws.root).unwrap());
    let got: Vec<(&str, &str, u32)> =
        diags.iter().map(|d| (d.lint, d.file.as_str(), d.line)).collect();
    assert_eq!(
        got,
        vec![
            ("float-eq", "examples/demo.rs", 1),
            ("float-eq", "src/lib.rs", 2),
            ("float-eq", "tests/integration.rs", 1),
        ],
        "{diags:?}"
    );
}

/// The real workspace must stay clean — this is the in-process twin of
/// CI's `cargo run -p pdb-analyze -- --check` gate, so a regression
/// fails `cargo test` too, not just the dedicated CI job.
#[test]
fn the_workspace_itself_is_clean() {
    let root = pdb_analyze::find_workspace_root(Path::new(env!("CARGO_MANIFEST_DIR")))
        .expect("workspace root above the crate");
    let diags = pdb_analyze::workspace::run(&root).unwrap();
    assert!(diags.is_empty(), "workspace lints regressed:\n{diags:#?}");
}
