//! `pdb-analyze bench-drift <BENCH_*.json>`: compare the bench-id set of
//! the committed baseline (`git show HEAD:<file>`) against the freshly
//! emitted file in the working tree.
//!
//! CI used to carry three copy-pasted shell snippets doing this with
//! `grep -o '"[^"]*"' | sort | diff`; this subcommand is the single
//! implementation.  Drift in either direction — an id added by a bench
//! rename, or an id that stopped being emitted — fails the check, which
//! is the point: the committed `BENCH_*.json` baselines are the
//! regression-tracking anchor, so renames must update them explicitly.

use std::collections::BTreeSet;
use std::path::Path;
use std::process::Command;

/// The result of one drift comparison.
#[derive(Debug, PartialEq, Eq)]
pub struct Drift {
    /// Ids in the fresh file but not the committed baseline.
    pub added: Vec<String>,
    /// Ids in the committed baseline but not the fresh file.
    pub removed: Vec<String>,
}

impl Drift {
    /// No drift in either direction.
    pub fn is_clean(&self) -> bool {
        self.added.is_empty() && self.removed.is_empty()
    }
}

/// Compare committed vs fresh bench-id sets for `file` (a path relative
/// to the repository root, e.g. `BENCH_batch.json`).
pub fn check(root: &Path, file: &str) -> Result<Drift, String> {
    let fresh_text =
        std::fs::read_to_string(root.join(file)).map_err(|e| format!("cannot read {file}: {e}"))?;
    let fresh = top_level_keys(&fresh_text).map_err(|e| format!("{file} (working tree): {e}"))?;

    let show = Command::new("git")
        .arg("show")
        .arg(format!("HEAD:{file}"))
        .current_dir(root)
        .output()
        .map_err(|e| format!("cannot run git show: {e}"))?;
    if !show.status.success() {
        return Err(format!(
            "git show HEAD:{file} failed: {}",
            String::from_utf8_lossy(&show.stderr).trim()
        ));
    }
    let committed_text = String::from_utf8_lossy(&show.stdout).into_owned();
    let committed = top_level_keys(&committed_text).map_err(|e| format!("{file} (HEAD): {e}"))?;

    Ok(Drift {
        added: fresh.difference(&committed).cloned().collect(),
        removed: committed.difference(&fresh).cloned().collect(),
    })
}

/// The top-level keys of a JSON object (keys of nested objects are not
/// bench ids), read with the workspace's one JSON parser.
pub fn top_level_keys(text: &str) -> Result<BTreeSet<String>, String> {
    let value: serde::Value = serde_json::from_str(text).map_err(|e| e.to_string())?;
    let entries = value.as_map().ok_or("not a JSON object")?;
    if entries.is_empty() {
        return Err("no top-level keys found — not a bench-id map".to_string());
    }
    Ok(entries.iter().map(|(key, _)| key.clone()).collect())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn keys_of_flat_map() {
        let keys = top_level_keys("{\n  \"a/b/1\": 4.0,\n  \"c\": 2\n}\n").unwrap();
        assert_eq!(keys, ["a/b/1", "c"].iter().map(|s| s.to_string()).collect());
    }

    #[test]
    fn nested_keys_and_string_values_ignored() {
        let keys =
            top_level_keys("{\"top\": {\"inner\": 1}, \"s\": \"val:ue\", \"t\": [\"x\"]}").unwrap();
        assert_eq!(keys, ["top", "s", "t"].iter().map(|s| s.to_string()).collect());
    }

    #[test]
    fn rejects_non_object() {
        assert!(top_level_keys("[1, 2]").is_err());
        assert!(top_level_keys("{\"a\": 1").is_err());
    }
}
