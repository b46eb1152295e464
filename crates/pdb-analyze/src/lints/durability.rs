//! **durability-pattern**: every file created in `pdb-store` must be
//! fsync'd and published atomically.
//!
//! The store's crash-safety story (PR 5) is: write to a temp path, call
//! `sync_all`/`sync_data`, then `rename` into place (and fsync the parent
//! directory).  This lint keeps new code on that path:
//!
//! - `fs::write(..)` is always flagged — it neither syncs nor renames;
//! - a function body containing `File::create` must also contain a
//!   `sync_all`/`sync_data` call *and* a `rename` call, otherwise the
//!   `File::create` is flagged.
//!
//! Append-mode opens (`OpenOptions`) are not matched by the pattern: the
//! store's group commit fsyncs every WAL append before it is
//! acknowledged (the appender that finds no flush window open leads
//! one), and the recovery test suite covers that path.

use crate::diag::Diagnostic;
use crate::lexer::{SourceFile, TokenKind};
use crate::scanner::{functions, FileContext};

/// Run the lint on one file.
pub fn check(file: &SourceFile, ctx: &FileContext) -> Vec<Diagnostic> {
    let code = file.code_indices();
    let mut out = Vec::new();
    for f in functions(file) {
        if ctx.in_test(&file.tokens[f.body.start]) {
            continue;
        }
        let body: Vec<usize> =
            code.iter().copied().filter(|&ti| ti >= f.body.start && ti < f.body.end).collect();
        let mut creates: Vec<u32> = Vec::new();
        let mut has_sync = false;
        let mut has_rename = false;
        for (i, &ti) in body.iter().enumerate() {
            let t = &file.tokens[ti];
            if t.kind != TokenKind::Ident {
                continue;
            }
            match file.text(t) {
                "create" if path_call(file, &body, i, "File") => creates.push(t.line),
                "write" if path_call(file, &body, i, "fs") => {
                    out.push(Diagnostic::new(
                        "durability-pattern",
                        &file.path,
                        t.line,
                        "fs::write is not durable; use the tmp+fsync+rename helper",
                    ));
                }
                "sync_all" | "sync_data" => has_sync = true,
                "rename" => has_rename = true,
                _ => {}
            }
        }
        for line in creates {
            let missing = match (has_sync, has_rename) {
                (false, false) => "sync_all/sync_data and rename",
                (false, true) => "sync_all/sync_data",
                (true, false) => "rename",
                (true, true) => continue,
            };
            out.push(Diagnostic::new(
                "durability-pattern",
                &file.path,
                line,
                format!(
                    "File::create without {missing} in the same function; \
                     publish files via tmp+fsync+rename"
                ),
            ));
        }
    }
    out.sort_by_key(|d| d.line);
    out
}

/// `Qual::name(` — the ident at `body[i]` called through a `::` path whose
/// last segment is `qual` (`File::create`, `fs::write`,
/// `std::fs::write`).
fn path_call(file: &SourceFile, body: &[usize], i: usize, qual: &str) -> bool {
    // Followed by `(`.
    if body.get(i + 1).is_none_or(|&ti| file.text(&file.tokens[ti]) != "(") {
        return false;
    }
    // Preceded by `qual` `:` `:`.
    if i < 3 {
        return false;
    }
    let c1 = &file.tokens[body[i - 1]];
    let c2 = &file.tokens[body[i - 2]];
    let q = &file.tokens[body[i - 3]];
    c1.kind == TokenKind::Punct
        && file.text(c1) == ":"
        && c2.kind == TokenKind::Punct
        && file.text(c2) == ":"
        && q.kind == TokenKind::Ident
        && file.text(q) == qual
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::scanner::FileContext;

    fn run(src: &str) -> Vec<(u32, String)> {
        let file = SourceFile::lex("t.rs", src);
        let ctx = FileContext::new(&file);
        check(&file, &ctx).into_iter().map(|d| (d.line, d.message)).collect()
    }

    #[test]
    fn bare_create_is_flagged() {
        let got =
            run("fn save(p: &Path) {\n  let f = File::create(p)?;\n  f.write_all(b\"x\")?;\n}\n");
        assert_eq!(got.len(), 1);
        assert_eq!(got[0].0, 2);
        assert!(got[0].1.contains("sync_all/sync_data and rename"), "{}", got[0].1);
    }

    #[test]
    fn tmp_fsync_rename_is_fine() {
        let got = run(
            "fn save(p: &Path) {\n  let tmp = p.with_extension(\"tmp\");\n  let f = File::create(&tmp)?;\n  f.write_all(b\"x\")?;\n  f.sync_data()?;\n  fs::rename(&tmp, p)?;\n}\n",
        );
        assert!(got.is_empty(), "{got:?}");
    }

    #[test]
    fn fs_write_always_flagged() {
        let got = run("fn save(p: &Path) {\n  fs::write(p, b\"x\")?;\n}\n");
        assert_eq!(got.len(), 1);
        assert!(got[0].1.contains("fs::write"));
    }

    #[test]
    fn create_missing_only_rename() {
        let got = run("fn save(p: &Path) {\n  let f = File::create(p)?;\n  f.sync_all()?;\n}\n");
        assert_eq!(got.len(), 1);
        assert!(got[0].1.contains("without rename"), "{}", got[0].1);
    }

    #[test]
    fn test_code_is_skipped() {
        let got = run("#[test]\nfn t() { let f = File::create(p).unwrap(); }\n");
        assert!(got.is_empty(), "{got:?}");
    }
}
