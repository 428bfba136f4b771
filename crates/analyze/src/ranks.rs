//! Rule `lock-rank-lists`: the lock hierarchy is written down three
//! times, and the three lists must agree.
//!
//! The runtime table ([`RUNTIME_TABLE`]) is what `lockcheck` enforces,
//! `analyze/lock-order.toml` is what the `lock-order` rule checks, and the
//! rank table in [`DOCUMENTED_TABLE`] is what a reader trusts. Each of the
//! first and last must hold exactly the `(name, rank)` pairs the TOML
//! declares; a pair on one side only is a finding in that list's file.

use std::path::Path;

use crate::config::Config;
use crate::rules::Diagnostic;

/// Workspace-relative path of the runtime rank table.
pub const RUNTIME_TABLE: &str = "crates/common/src/lock_rank.rs";

/// Workspace-relative path of the document holding the rank table.
pub const DOCUMENTED_TABLE: &str = "crates/analyze/DESIGN.md";

/// Heading of the section whose table lists the ranks.
const DOC_SECTION: &str = "## Lock-rank hierarchy";

/// One lock as a list names it.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Listed {
    /// Hierarchy name, e.g. `store.shard`.
    pub name: String,
    /// Rank.
    pub rank: u32,
    /// 1-based line of the entry.
    pub line: u32,
}

/// The locks of one list, and the line a missing lock is reported at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RankList {
    /// The line where the list starts.
    pub anchor: u32,
    /// Its entries, in file order.
    pub entries: Vec<Listed>,
}

/// Check the workspace at `root`: each of the two lists it has (a
/// minimal workspace may have neither) against `cfg`.
pub fn lint(root: &Path, cfg: &Config) -> Result<Vec<Diagnostic>, String> {
    let mut diags = Vec::new();
    for (rel, parse) in [
        (RUNTIME_TABLE, runtime_ranks as fn(&str) -> RankList),
        (DOCUMENTED_TABLE, documented_ranks),
    ] {
        let path = root.join(rel);
        if path.exists() {
            let text = std::fs::read_to_string(&path)
                .map_err(|e| format!("cannot read {}: {e}", path.display()))?;
            diags.extend(check(cfg, rel, &parse(&text)));
        }
    }
    Ok(diags)
}

/// Every `: LockRank = ("name", rank)` constant of the runtime table.
pub fn runtime_ranks(src: &str) -> RankList {
    let entries = src
        .lines()
        .zip(1..)
        .filter_map(|(line, no)| {
            let tuple = line.split_once(": LockRank = (")?.1.split_once(')')?.0;
            let (name, rank) = tuple.split_once(',')?;
            Some(Listed {
                name: name.trim().trim_matches('"').to_owned(),
                rank: rank.trim().parse().ok()?,
                line: no,
            })
        })
        .collect();
    RankList { anchor: 1, entries }
}

/// The `| rank | `name` | … |` rows of the table in the
/// `## Lock-rank hierarchy` section. Without that section the list is
/// empty, so every declared lock is reported missing.
pub fn documented_ranks(doc: &str) -> RankList {
    let mut lines = doc.lines().zip(1..);
    let Some((_, anchor)) = lines.by_ref().find(|(l, _)| l.trim() == DOC_SECTION) else {
        return RankList {
            anchor: 1,
            entries: Vec::new(),
        };
    };
    let entries = lines
        .take_while(|(l, _)| !l.starts_with("## "))
        .filter_map(|(line, no)| {
            let mut cells = line.split('|').skip(1).map(str::trim);
            let rank = cells.next()?.parse().ok()?;
            let name = cells.next()?.trim_matches('`').to_owned();
            Some(Listed {
                name,
                rank,
                line: no,
            })
        })
        .collect();
    RankList { anchor, entries }
}

/// Check the list in `file` against the hierarchy `cfg` declares.
pub fn check(cfg: &Config, file: &str, list: &RankList) -> Vec<Diagnostic> {
    let diag = |line, message| Diagnostic {
        file: file.to_owned(),
        line,
        rule: "lock-rank-lists",
        message,
    };
    let mut diags = Vec::new();
    for l in &list.entries {
        if !cfg
            .locks
            .iter()
            .any(|c| c.name == l.name && c.rank == l.rank)
        {
            diags.push(diag(
                l.line,
                format!(
                    "`{}` (rank {}) is not declared in analyze/lock-order.toml",
                    l.name, l.rank
                ),
            ));
        }
    }
    for c in &cfg.locks {
        if !list
            .entries
            .iter()
            .any(|l| l.name == c.name && l.rank == c.rank)
        {
            diags.push(diag(
                list.anchor,
                format!(
                    "`{}` (rank {}) from analyze/lock-order.toml is missing here",
                    c.name, c.rank
                ),
            ));
        }
    }
    diags
}
