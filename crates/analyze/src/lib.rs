//! quaestor-analyze: the workspace invariant linter.
//!
//! Machine-checks the concurrency and robustness invariants that earlier
//! PRs enforced by comment and one-off audit:
//!
//! * `std-sync-lock` — no `std::sync::Mutex`/`RwLock` outside `vendor/`
//!   (they would be invisible to the `lockcheck` runtime detector).
//! * `unwrap-in-io-crate` — no naked `.unwrap()`/`.expect(` in non-test
//!   code of the I/O-facing crates.
//! * `lock-order` — within a function body, no acquisition of a
//!   higher-ranked lock before a lower-ranked one, per the declared
//!   hierarchy in `analyze/lock-order.toml`.
//! * `depth-cap` — `get_*`/`decode_*` pub fns in the codec files must
//!   evidence a recursion-depth cap.
//! * `lock-rank-lists` — the runtime rank table, `analyze/lock-order.toml`
//!   and the rank table in `crates/analyze/DESIGN.md` list the same
//!   `(name, rank)` pairs.
//! * `bad-allow` — every suppression needs a reason.
//!
//! Suppression: `// analyze: allow(<rule>) <reason>` on the offending
//! line or the line above. See `crates/analyze/DESIGN.md` for the full
//! rule rationale and the lock-rank table.

pub mod config;
pub mod lexer;
pub mod ranks;
pub mod rules;

use std::path::{Path, PathBuf};

pub use config::Config;
pub use rules::{Diagnostic, FileInfo};

/// Lint every non-vendored crate under `root` using the config at
/// `root/analyze/lock-order.toml`. Returns diagnostics sorted by path
/// and line.
pub fn lint_workspace(root: &Path) -> Result<Vec<Diagnostic>, String> {
    let cfg = Config::load(&root.join("analyze").join("lock-order.toml"))?;
    let crates_dir = root.join("crates");
    let mut files = Vec::new();
    let entries = std::fs::read_dir(&crates_dir)
        .map_err(|e| format!("cannot read {}: {e}", crates_dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        if path.is_dir() {
            collect_rs_files(&path, &mut files)?;
        }
    }
    files.sort();

    let mut diags = Vec::new();
    for file in files {
        let rel = file
            .strip_prefix(root)
            .unwrap_or(&file)
            .to_string_lossy()
            .replace('\\', "/");
        let crate_name = rel
            .strip_prefix("crates/")
            .and_then(|r| r.split('/').next())
            .unwrap_or("")
            .to_owned();
        let in_test_tree = ["/tests/", "/benches/", "/examples/"]
            .iter()
            .any(|d| rel.contains(d));
        let src = std::fs::read_to_string(&file)
            .map_err(|e| format!("cannot read {}: {e}", file.display()))?;
        let info = FileInfo {
            rel_path: &rel,
            crate_name: &crate_name,
            in_test_tree,
        };
        diags.extend(rules::lint_source(&info, &src, &cfg));
    }
    diags.extend(ranks::lint(root, &cfg)?);
    diags.sort_by(|a, b| (a.file.as_str(), a.line, a.rule).cmp(&(b.file.as_str(), b.line, b.rule)));
    Ok(diags)
}

fn collect_rs_files(dir: &Path, out: &mut Vec<PathBuf>) -> Result<(), String> {
    let entries =
        std::fs::read_dir(dir).map_err(|e| format!("cannot read {}: {e}", dir.display()))?;
    for entry in entries {
        let entry = entry.map_err(|e| e.to_string())?;
        let path = entry.path();
        let name = entry.file_name();
        let name = name.to_string_lossy();
        if path.is_dir() {
            // `fixtures/` holds deliberately-bad linter test inputs;
            // `target/` is build output.
            if name == "fixtures" || name == "target" {
                continue;
            }
            collect_rs_files(&path, out)?;
        } else if name.ends_with(".rs") {
            out.push(path);
        }
    }
    Ok(())
}
