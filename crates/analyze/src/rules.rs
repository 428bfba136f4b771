//! The lint rules, over the token stream from [`crate::lexer`].
//!
//! Every rule emits [`Diagnostic`]s with a stable rule name; any
//! diagnostic (except `bad-allow` itself) can be suppressed with a
//! comment on the same line or the line directly above:
//!
//! ```text
//! // analyze: allow(<rule>) <one-line reason>
//! ```
//!
//! A reason is mandatory — an allow without one is itself a diagnostic
//! (`bad-allow`), so suppressions stay auditable.

use crate::config::Config;
use crate::lexer::{lex, Lexed, Tok, Token};

/// Stable names of all rules, for docs and allow validation.
pub const RULE_NAMES: &[&str] = &[
    "std-sync-lock",
    "unwrap-in-io-crate",
    "lock-order",
    "depth-cap",
    "blocking-in-loop",
    "lock-rank-lists",
    "bad-allow",
];

/// One linter finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Workspace-relative path.
    pub file: String,
    /// 1-based line.
    pub line: u32,
    /// Stable rule name (one of [`RULE_NAMES`]).
    pub rule: &'static str,
    /// Human-readable explanation.
    pub message: String,
}

impl std::fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "{}:{}: [{}] {}",
            self.file, self.line, self.rule, self.message
        )
    }
}

/// Where a source file sits in the workspace (drives rule applicability).
#[derive(Debug, Clone)]
pub struct FileInfo<'a> {
    /// Path relative to the workspace root, `/`-separated.
    pub rel_path: &'a str,
    /// Crate directory name under `crates/` (e.g. `net`).
    pub crate_name: &'a str,
    /// True for integration tests / benches / examples — code that never
    /// ships, so the unwrap audit does not apply.
    pub in_test_tree: bool,
}

struct Allow {
    line: u32,
    rule: String,
    has_reason: bool,
}

/// Lint one source file.
pub fn lint_source(info: &FileInfo<'_>, src: &str, cfg: &Config) -> Vec<Diagnostic> {
    let lexed = lex(src);
    let allows = collect_allows(&lexed);
    let test_regions = test_regions(&lexed.tokens);
    let mut diags = Vec::new();

    // bad-allow: reason-less or unknown-rule allows are findings
    // themselves and can never be suppressed.
    for a in &allows {
        if !RULE_NAMES.contains(&a.rule.as_str()) {
            diags.push(Diagnostic {
                file: info.rel_path.to_owned(),
                line: a.line,
                rule: "bad-allow",
                message: format!("allow names unknown rule `{}`", a.rule),
            });
        } else if !a.has_reason {
            diags.push(Diagnostic {
                file: info.rel_path.to_owned(),
                line: a.line,
                rule: "bad-allow",
                message: format!(
                    "allow({}) without a reason — add a one-line justification",
                    a.rule
                ),
            });
        }
    }

    std_sync_lock(info, &lexed, &mut diags);
    if cfg.io_crates.iter().any(|c| c == info.crate_name) && !info.in_test_tree {
        unwrap_in_io_crate(info, &lexed, &test_regions, &mut diags);
    }
    lock_order(info, &lexed, cfg, &mut diags);
    if cfg.depth_cap_files.iter().any(|f| f == info.rel_path) {
        depth_cap(info, &lexed, &mut diags);
    }
    if cfg.loop_files.iter().any(|f| f == info.rel_path) {
        blocking_in_loop(info, &lexed, &test_regions, cfg, &mut diags);
    }

    diags.retain(|d| d.rule == "bad-allow" || !is_allowed(&allows, d));
    diags.sort_by(|a, b| (a.line, a.rule).cmp(&(b.line, b.rule)));
    diags
}

fn is_allowed(allows: &[Allow], d: &Diagnostic) -> bool {
    allows
        .iter()
        .any(|a| a.rule == d.rule && a.has_reason && (a.line == d.line || a.line + 1 == d.line))
}

fn collect_allows(lexed: &Lexed) -> Vec<Allow> {
    let mut out = Vec::new();
    for (line, text) in &lexed.comments {
        let Some(rest) = text.trim().strip_prefix("analyze: allow(") else {
            continue;
        };
        let Some(close) = rest.find(')') else {
            out.push(Allow {
                line: *line,
                rule: rest.trim().to_owned(),
                has_reason: false,
            });
            continue;
        };
        let rule = rest[..close].trim().to_owned();
        let reason = rest[close + 1..].trim();
        out.push(Allow {
            line: *line,
            rule,
            has_reason: !reason.is_empty(),
        });
    }
    out
}

/// Line ranges covered by `#[cfg(test)]`-gated items.
fn test_regions(toks: &[Token]) -> Vec<(u32, u32)> {
    let mut regions = Vec::new();
    let mut i = 0;
    while i < toks.len() {
        // `#` `[` cfg `(` … test … `)` `]`
        if toks[i].is_punct('#')
            && toks.get(i + 1).is_some_and(|t| t.is_punct('['))
            && toks.get(i + 2).is_some_and(|t| t.is_ident("cfg"))
            && toks.get(i + 3).is_some_and(|t| t.is_punct('('))
        {
            let attr_end = match match_balanced(toks, i + 3, '(', ')') {
                Some(e) => e,
                None => break,
            };
            let mentions_test = toks[i + 3..=attr_end].iter().any(|t| t.is_ident("test"));
            if mentions_test {
                // Find the gated item's body: the next `{` before any `;`
                // at this nesting (a `;` first means a braceless item).
                let mut j = attr_end + 1;
                // Skip the closing `]` of the attribute.
                while j < toks.len() && toks[j].is_punct(']') {
                    j += 1;
                }
                let mut body_start = None;
                while j < toks.len() {
                    if toks[j].is_punct('{') {
                        body_start = Some(j);
                        break;
                    }
                    if toks[j].is_punct(';') {
                        break;
                    }
                    j += 1;
                }
                if let Some(open) = body_start {
                    if let Some(close) = match_balanced(toks, open, '{', '}') {
                        regions.push((toks[open].line, toks[close].line));
                        i = close + 1;
                        continue;
                    }
                }
            }
            i = attr_end + 1;
            continue;
        }
        i += 1;
    }
    regions
}

fn in_regions(regions: &[(u32, u32)], line: u32) -> bool {
    regions.iter().any(|(a, b)| (*a..=*b).contains(&line))
}

/// Index of the token closing the group opened at `open_idx`.
fn match_balanced(toks: &[Token], open_idx: usize, open: char, close: char) -> Option<usize> {
    let mut depth = 0usize;
    for (j, t) in toks.iter().enumerate().skip(open_idx) {
        if t.is_punct(open) {
            depth += 1;
        } else if t.is_punct(close) {
            depth -= 1;
            if depth == 0 {
                return Some(j);
            }
        }
    }
    None
}

/// Rule `std-sync-lock`: no `std::sync::Mutex` / `RwLock` outside
/// `vendor/` — everything must go through the instrumented `parking_lot`
/// so the `lockcheck` detector sees it.
fn std_sync_lock(info: &FileInfo<'_>, lexed: &Lexed, diags: &mut Vec<Diagnostic>) {
    let toks = &lexed.tokens;
    let mut flag = |line: u32, which: &str| {
        diags.push(Diagnostic {
            file: info.rel_path.to_owned(),
            line,
            rule: "std-sync-lock",
            message: format!(
                "std::sync::{which} bypasses the lockcheck detector — use the \
                 workspace `parking_lot` (vendored, instrumented) instead"
            ),
        });
    };
    for i in 0..toks.len() {
        if !(toks[i].is_ident("std")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("sync"))
            && toks.get(i + 4).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 5).is_some_and(|t| t.is_punct(':')))
        {
            continue;
        }
        match toks.get(i + 6) {
            Some(t) if t.is_ident("Mutex") || t.is_ident("RwLock") => {
                let which = match &t.tok {
                    Tok::Ident(s) => s.clone(),
                    _ => unreachable!(),
                };
                flag(t.line, &which);
            }
            // `use std::sync::{…, Mutex, …}`
            Some(t) if t.is_punct('{') => {
                if let Some(end) = match_balanced(toks, i + 6, '{', '}') {
                    for inner in &toks[i + 6..=end] {
                        if inner.is_ident("Mutex") || inner.is_ident("RwLock") {
                            let which = match &inner.tok {
                                Tok::Ident(s) => s.clone(),
                                _ => unreachable!(),
                            };
                            flag(inner.line, &which);
                        }
                    }
                }
            }
            _ => {}
        }
    }
}

/// Rule `unwrap-in-io-crate`: no naked `.unwrap()` / `.expect(` in
/// non-test code of I/O-facing crates — convert to a typed error or
/// annotate why the panic is impossible/intended.
fn unwrap_in_io_crate(
    info: &FileInfo<'_>,
    lexed: &Lexed,
    test_regions: &[(u32, u32)],
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &lexed.tokens;
    for i in 0..toks.len() {
        if !toks[i].is_punct('.') {
            continue;
        }
        let Some(name_tok) = toks.get(i + 1) else {
            continue;
        };
        let is_target = name_tok.is_ident("unwrap") || name_tok.is_ident("expect");
        if !is_target || !toks.get(i + 2).is_some_and(|t| t.is_punct('(')) {
            continue;
        }
        if in_regions(test_regions, name_tok.line) {
            continue;
        }
        let which = match &name_tok.tok {
            Tok::Ident(s) => s.clone(),
            _ => unreachable!(),
        };
        diags.push(Diagnostic {
            file: info.rel_path.to_owned(),
            line: name_tok.line,
            rule: "unwrap-in-io-crate",
            message: format!(
                ".{which}() in I/O-facing crate `{}` — return a typed error, or \
                 annotate why this cannot panic",
                info.crate_name
            ),
        });
    }
}

/// One matched lock acquisition inside a function body.
struct Acq {
    lock_name: String,
    rank: u32,
    line: u32,
}

/// Rule `lock-order`: within a function body, a token-level acquisition
/// of a higher-ranked lock must not precede one of a lower-ranked lock
/// (per `analyze/lock-order.toml`).
fn lock_order(info: &FileInfo<'_>, lexed: &Lexed, cfg: &Config, diags: &mut Vec<Diagnostic>) {
    if cfg.locks.is_empty() {
        return;
    }
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("fn") {
            i += 1;
            continue;
        }
        // Find the body `{`, giving up at `;` (trait method signature).
        let mut j = i + 1;
        let mut open = None;
        while j < toks.len() {
            if toks[j].is_punct('{') {
                open = Some(j);
                break;
            }
            if toks[j].is_punct(';') {
                break;
            }
            j += 1;
        }
        let Some(open) = open else {
            i = j + 1;
            continue;
        };
        let Some(close) = match_balanced(toks, open, '{', '}') else {
            break;
        };
        check_body(info, &toks[open..=close], cfg, diags);
        // Nested fns/closures inside the body are covered by this same
        // scan (acquisition order is per *thread*, and a closure runs on
        // whatever thread calls it — the conservative flat view is fine).
        i = close + 1;
    }
}

fn check_body(info: &FileInfo<'_>, body: &[Token], cfg: &Config, diags: &mut Vec<Diagnostic>) {
    let mut acquisitions: Vec<Acq> = Vec::new();
    let mut i = 0;
    while i < body.len() {
        let Tok::Ident(word) = &body[i].tok else {
            i += 1;
            continue;
        };
        let Some(spec) = cfg.lock_for_ident(word) else {
            i += 1;
            continue;
        };
        // Matcher: ident, optionally ONE balanced `[…]` or `(…)` group
        // (`shards[k]`, `self.shard(id)`), then `.read(`/`.write(`/`.lock(`.
        let mut j = i + 1;
        if body.get(j).is_some_and(|t| t.is_punct('[')) {
            match match_balanced(body, j, '[', ']') {
                Some(e) => j = e + 1,
                None => break,
            }
        } else if body.get(j).is_some_and(|t| t.is_punct('(')) {
            match match_balanced(body, j, '(', ')') {
                Some(e) => j = e + 1,
                None => break,
            }
        }
        let is_acquire = body.get(j).is_some_and(|t| t.is_punct('.'))
            && body
                .get(j + 1)
                .is_some_and(|t| t.is_ident("read") || t.is_ident("write") || t.is_ident("lock"))
            && body.get(j + 2).is_some_and(|t| t.is_punct('('));
        if is_acquire {
            acquisitions.push(Acq {
                lock_name: spec.name.clone(),
                rank: spec.rank,
                line: body[i].line,
            });
            i = j + 3;
        } else {
            i += 1;
        }
    }

    let mut reported: Vec<(String, String)> = Vec::new();
    for (a_idx, later) in acquisitions.iter().enumerate() {
        for earlier in &acquisitions[..a_idx] {
            if earlier.rank > later.rank && earlier.lock_name != later.lock_name {
                let key = (earlier.lock_name.clone(), later.lock_name.clone());
                if reported.contains(&key) {
                    continue;
                }
                reported.push(key);
                diags.push(Diagnostic {
                    file: info.rel_path.to_owned(),
                    line: later.line,
                    rule: "lock-order",
                    message: format!(
                        "`{}` (rank {}) acquired after `{}` (rank {}, line {}) — \
                         declared hierarchy requires strictly increasing ranks",
                        later.lock_name, later.rank, earlier.lock_name, earlier.rank, earlier.line
                    ),
                });
            }
        }
    }
}

/// Rule `depth-cap`: in the configured codec files, every `get_*` /
/// `decode_*` pub fn must evidence a recursion-depth cap: a
/// depth-named identifier, a `deeper` call, or delegation to a `*_at`
/// depth-threading helper.
fn depth_cap(info: &FileInfo<'_>, lexed: &Lexed, diags: &mut Vec<Diagnostic>) {
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        if !toks[i].is_ident("pub") {
            i += 1;
            continue;
        }
        let mut j = i + 1;
        // `pub(crate)` / `pub(super)`.
        if toks.get(j).is_some_and(|t| t.is_punct('(')) {
            match match_balanced(toks, j, '(', ')') {
                Some(e) => j = e + 1,
                None => break,
            }
        }
        if !toks.get(j).is_some_and(|t| t.is_ident("fn")) {
            i += 1;
            continue;
        }
        let Some(name_tok) = toks.get(j + 1) else {
            break;
        };
        let Tok::Ident(name) = &name_tok.tok else {
            i = j + 1;
            continue;
        };
        if !(name.starts_with("get_") || name.starts_with("decode_")) {
            i = j + 1;
            continue;
        }
        // Body.
        let mut k = j + 2;
        let mut open = None;
        while k < toks.len() {
            if toks[k].is_punct('{') {
                open = Some(k);
                break;
            }
            if toks[k].is_punct(';') {
                break;
            }
            k += 1;
        }
        let Some(open) = open else {
            i = k + 1;
            continue;
        };
        let Some(close) = match_balanced(toks, open, '{', '}') else {
            break;
        };
        let body = &toks[open..=close];
        let capped = body.iter().any(|t| match &t.tok {
            Tok::Ident(w) => {
                w == "deeper" || w.to_ascii_lowercase().contains("depth") || w.ends_with("_at")
            }
            _ => false,
        });
        if !capped {
            diags.push(Diagnostic {
                file: info.rel_path.to_owned(),
                line: name_tok.line,
                rule: "depth-cap",
                message: format!(
                    "pub fn `{name}` decodes untrusted bytes with no visible \
                     recursion-depth cap (no depth ident, `deeper` call, or \
                     `*_at` delegation)"
                ),
            });
        }
        i = close + 1;
    }
}

/// Method calls that park the calling thread until a peer acts — fatal
/// on an event-loop thread, where one parked handler stalls every
/// connection on the shard. The nonblocking forms (`try_recv`, plain
/// `read`/`write` on a nonblocking fd) are the sanctioned spellings.
const LOOP_BLOCKING_CALLS: &[&str] = &[
    "recv",
    "recv_timeout",
    "write_all",
    "read_exact",
    "read_to_end",
    "read_to_string",
    "join",
];

/// Rule `blocking-in-loop`: non-test code in the configured event-loop
/// files may not park its thread — no `thread::sleep`, no blocking
/// channel/socket calls, and no acquisition of a lock ranked below the
/// configured floor (a lower-ranked lock may be held across blocking
/// work by wider subsystems; the loop's own leaf locks sit at or above
/// it).
fn blocking_in_loop(
    info: &FileInfo<'_>,
    lexed: &Lexed,
    test_regions: &[(u32, u32)],
    cfg: &Config,
    diags: &mut Vec<Diagnostic>,
) {
    let toks = &lexed.tokens;
    let mut i = 0;
    while i < toks.len() {
        if in_regions(test_regions, toks[i].line) {
            i += 1;
            continue;
        }
        // `thread :: sleep` (matches `std::thread::sleep` too).
        if toks[i].is_ident("thread")
            && toks.get(i + 1).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 2).is_some_and(|t| t.is_punct(':'))
            && toks.get(i + 3).is_some_and(|t| t.is_ident("sleep"))
        {
            diags.push(Diagnostic {
                file: info.rel_path.to_owned(),
                line: toks[i].line,
                rule: "blocking-in-loop",
                message: "`thread::sleep` on an event-loop thread stalls every \
                          connection on the shard — use a poller wait timeout instead"
                    .into(),
            });
            i += 4;
            continue;
        }
        // `.recv(` / `.write_all(` / … blocking method calls.
        if toks[i].is_punct('.') {
            if let Some(name_tok) = toks.get(i + 1) {
                if let Tok::Ident(name) = &name_tok.tok {
                    if LOOP_BLOCKING_CALLS.iter().any(|c| c == name)
                        && toks.get(i + 2).is_some_and(|t| t.is_punct('('))
                    {
                        diags.push(Diagnostic {
                            file: info.rel_path.to_owned(),
                            line: name_tok.line,
                            rule: "blocking-in-loop",
                            message: format!(
                                ".{name}() blocks the event-loop thread — use the \
                                 nonblocking form (`try_recv`, plain `read`/`write` on \
                                 the nonblocking fd) and rely on readiness re-reporting"
                            ),
                        });
                        i += 3;
                        continue;
                    }
                }
            }
        }
        // Lock acquisitions below the rank floor, using the same
        // ident-based matcher as `lock-order`.
        if let Tok::Ident(word) = &toks[i].tok {
            if let Some(spec) = cfg.lock_for_ident(word) {
                let mut j = i + 1;
                if toks.get(j).is_some_and(|t| t.is_punct('[')) {
                    match match_balanced(toks, j, '[', ']') {
                        Some(e) => j = e + 1,
                        None => break,
                    }
                } else if toks.get(j).is_some_and(|t| t.is_punct('(')) {
                    match match_balanced(toks, j, '(', ')') {
                        Some(e) => j = e + 1,
                        None => break,
                    }
                }
                let is_acquire = toks.get(j).is_some_and(|t| t.is_punct('.'))
                    && toks.get(j + 1).is_some_and(|t| {
                        t.is_ident("read") || t.is_ident("write") || t.is_ident("lock")
                    })
                    && toks.get(j + 2).is_some_and(|t| t.is_punct('('));
                if is_acquire {
                    if spec.rank < cfg.loop_lock_rank_floor {
                        diags.push(Diagnostic {
                            file: info.rel_path.to_owned(),
                            line: toks[i].line,
                            rule: "blocking-in-loop",
                            message: format!(
                                "lock `{}` (rank {}) acquired on an event-loop thread — \
                                 loop files may only take their own leaf locks \
                                 (rank ≥ {}); lower-ranked locks can be held across \
                                 blocking work by other subsystems",
                                spec.name, spec.rank, cfg.loop_lock_rank_floor
                            ),
                        });
                    }
                    i = j + 3;
                    continue;
                }
            }
        }
        i += 1;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn info() -> FileInfo<'static> {
        FileInfo {
            rel_path: "crates/net/src/x.rs",
            crate_name: "net",
            in_test_tree: false,
        }
    }

    fn cfg() -> Config {
        crate::config::parse(
            r#"
            [rules]
            io_crates = ["net"]
            depth_cap_files = ["crates/net/src/x.rs"]
            [[lock]]
            name = "store.shard"
            rank = 20
            idents = ["shard", "shards"]
            [[lock]]
            name = "store.index"
            rank = 30
            idents = ["indexes"]
            "#,
        )
        .expect("test config")
    }

    #[test]
    fn flags_std_sync_and_use_groups() {
        let src = "use std::sync::Mutex;\nuse std::sync::{Arc, RwLock};\nuse std::sync::atomic::AtomicU64;";
        let d = lint_source(&info(), src, &cfg());
        let rules: Vec<_> = d.iter().map(|d| (d.rule, d.line)).collect();
        assert_eq!(rules, vec![("std-sync-lock", 1), ("std-sync-lock", 2)]);
    }

    #[test]
    fn unwrap_flagged_outside_tests_only() {
        let src = "fn f() { x.unwrap(); y.unwrap_or(z); }\n#[cfg(test)]\nmod tests { fn g() { x.unwrap(); } }";
        let d = lint_source(&info(), src, &cfg());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "unwrap-in-io-crate");
        assert_eq!(d[0].line, 1);
    }

    #[test]
    fn allow_with_reason_suppresses_and_without_reports() {
        let src = "fn f() {\n    // analyze: allow(unwrap-in-io-crate) length checked above\n    x.unwrap();\n    // analyze: allow(unwrap-in-io-crate)\n    y.unwrap();\n}";
        let d = lint_source(&info(), src, &cfg());
        let rules: Vec<_> = d.iter().map(|d| (d.rule, d.line)).collect();
        // Line 3 suppressed; line 4's allow has no reason (bad-allow) and
        // does not suppress line 5.
        assert!(rules.contains(&("bad-allow", 4)));
        assert!(rules.contains(&("unwrap-in-io-crate", 5)));
        assert!(!rules.iter().any(|(_, l)| *l == 3));
    }

    #[test]
    fn lock_order_flags_descending_pair() {
        let src = "fn bad(&self) {\n    let i = self.indexes.write();\n    let s = self.shard(id).write();\n}";
        let d = lint_source(&info(), src, &cfg());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "lock-order");
        assert_eq!(d[0].line, 3);
        assert!(d[0].message.contains("store.shard"));
        assert!(d[0].message.contains("store.index"));
        assert!(d[0].message.contains("line 2"));
    }

    #[test]
    fn lock_order_accepts_documented_order_and_same_class() {
        // shard → index is the declared order; shards.iter() is not an
        // acquisition token; two same-class acquisitions are exempt.
        let src = "fn good(&self) {\n    let s = self.shard(id).write();\n    let i = self.indexes.write();\n}\nfn sweeps(&self) {\n    let all: Vec<_> = self.shards.iter().map(|s| s.write()).collect();\n    let a = self.shards[0].read();\n    let b = self.shards[1].read();\n}";
        let d = lint_source(&info(), src, &cfg());
        assert!(d.is_empty(), "unexpected: {d:?}");
    }

    fn loop_info() -> FileInfo<'static> {
        FileInfo {
            rel_path: "crates/net/src/evloop.rs",
            crate_name: "net",
            in_test_tree: false,
        }
    }

    fn loop_cfg() -> Config {
        crate::config::parse(
            r#"
            [rules]
            loop_files = ["crates/net/src/evloop.rs"]
            loop_lock_rank_floor = 67
            [[lock]]
            name = "kv.pubsub.channels"
            rank = 60
            idents = ["channels"]
            [[lock]]
            name = "net.server.shard.inbox"
            rank = 68
            idents = ["inbox"]
            "#,
        )
        .expect("loop test config")
    }

    #[test]
    fn blocking_in_loop_flags_sleep_blocking_calls_and_low_locks() {
        let src = "fn run(&self) {\n    std::thread::sleep(d);\n    let m = rx.recv();\n    s.write_all(&buf);\n    let c = self.channels.read();\n    let t = self.inbox.lock();\n}";
        let d = lint_source(&loop_info(), src, &loop_cfg());
        let hits: Vec<_> = d
            .iter()
            .filter(|d| d.rule == "blocking-in-loop")
            .map(|d| d.line)
            .collect();
        // sleep (2), recv (3), write_all (4), channels rank 60 < 67 (5) —
        // but never the loop's own inbox at rank 68 (6).
        assert_eq!(hits, vec![2, 3, 4, 5], "got: {d:?}");
        assert!(d.iter().any(|d| d.message.contains("kv.pubsub.channels")));
    }

    #[test]
    fn blocking_in_loop_accepts_nonblocking_forms_and_test_code() {
        let src = "fn ok(&self) {\n    let t = self.inbox.lock();\n    while let Some(m) = sub.try_recv() { push(m); }\n    let n = stream.read(&mut buf);\n    let w = stream.write(&buf);\n}\n#[cfg(test)]\nmod tests {\n    fn t() { std::thread::sleep(d); let _ = rx.recv(); }\n}";
        let d = lint_source(&loop_info(), src, &loop_cfg());
        assert!(
            !d.iter().any(|d| d.rule == "blocking-in-loop"),
            "unexpected: {d:?}"
        );
    }

    #[test]
    fn blocking_in_loop_only_applies_to_configured_files() {
        // Same source, but the file is not in loop_files.
        let other = FileInfo {
            rel_path: "crates/net/src/server.rs",
            crate_name: "net",
            in_test_tree: false,
        };
        let src = "fn run(&self) { std::thread::sleep(d); }";
        let d = lint_source(&other, src, &loop_cfg());
        assert!(d.is_empty(), "unexpected: {d:?}");
    }

    #[test]
    fn depth_cap_requires_evidence() {
        let src = "pub fn get_value(r: &mut Reader) -> V { get_value_at(r, 0) }\npub fn decode_naked(r: &mut Reader) -> V { r.next() }\npub fn helper() {}\nfn get_private() {}";
        let d = lint_source(&info(), src, &cfg());
        assert_eq!(d.len(), 1);
        assert_eq!(d[0].rule, "depth-cap");
        assert_eq!(d[0].line, 2);
        assert!(d[0].message.contains("decode_naked"));
    }
}
