//! Fixture-driven linter tests: each rule is proven against a known-bad
//! snippet under `tests/fixtures/` (a directory the workspace walker
//! deliberately skips), asserting exact rule names and file:line
//! positions, allow-annotation suppression, and the CLI's exit codes.

use std::collections::BTreeSet;
use std::path::PathBuf;
use std::process::Command;

use quaestor_analyze::rules::{lint_source, FileInfo};
use quaestor_analyze::{config, Config};

/// A config shaped like the workspace's, scoped to the fixture idents.
fn cfg() -> Config {
    config::parse(
        r#"
        [rules]
        io_crates = ["net"]
        depth_cap_files = ["crates/net/src/codec.rs"]
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
    .expect("fixture config")
}

/// Lint a fixture as if it sat at `rel_path`; return (line, rule) pairs.
fn lint(rel_path: &str, crate_name: &str, src: &str) -> Vec<(u32, &'static str)> {
    let info = FileInfo {
        rel_path,
        crate_name,
        in_test_tree: false,
    };
    lint_source(&info, src, &cfg())
        .into_iter()
        .map(|d| (d.line, d.rule))
        .collect()
}

#[test]
fn std_sync_fixture_flags_every_form() {
    let src = include_str!("fixtures/std_sync.rs");
    assert_eq!(
        lint("crates/net/src/x.rs", "net", src),
        vec![
            (3, "std-sync-lock"),
            (4, "std-sync-lock"),
            (8, "std-sync-lock"),
            (9, "std-sync-lock"),
        ]
    );
}

#[test]
fn unwrap_fixture_flags_shipped_code_only() {
    let src = include_str!("fixtures/unwraps.rs");
    assert_eq!(
        lint("crates/net/src/x.rs", "net", src),
        vec![(4, "unwrap-in-io-crate"), (8, "unwrap-in-io-crate")]
    );
    // Same file in a non-I/O crate: the rule does not apply.
    assert_eq!(lint("crates/webcache/src/x.rs", "webcache", src), vec![]);
    // Same file in a test tree: exempt even in an I/O crate.
    let info = FileInfo {
        rel_path: "crates/net/tests/x.rs",
        crate_name: "net",
        in_test_tree: true,
    };
    assert!(lint_source(&info, src, &cfg()).is_empty());
}

#[test]
fn lock_inversion_fixture_mirrors_the_seeded_runtime_test() {
    let src = include_str!("fixtures/lock_inversion.rs");
    let diags = lint_source(
        &FileInfo {
            rel_path: "crates/store/src/table.rs",
            crate_name: "store",
            in_test_tree: false,
        },
        src,
        &cfg(),
    );
    assert_eq!(diags.len(), 1, "unexpected: {diags:?}");
    assert_eq!(diags[0].rule, "lock-order");
    assert_eq!(diags[0].line, 9);
    assert!(diags[0].message.contains("`store.shard` (rank 20)"));
    assert!(diags[0].message.contains("`store.index` (rank 30, line 8)"));
}

#[test]
fn depth_cap_fixture_requires_evidence_in_codec_files() {
    let src = include_str!("fixtures/depth_cap.rs");
    assert_eq!(
        lint("crates/net/src/codec.rs", "net", src),
        vec![(12, "depth-cap")]
    );
    // The rule only applies to the configured codec files.
    assert_eq!(lint("crates/net/src/other.rs", "net", src), vec![]);
}

#[test]
fn allowed_fixture_is_fully_suppressed() {
    let src = include_str!("fixtures/allowed.rs");
    assert_eq!(lint("crates/net/src/x.rs", "net", src), vec![]);
}

#[test]
fn bad_allow_fixture_reports_and_suppresses_nothing() {
    let src = include_str!("fixtures/bad_allow.rs");
    assert_eq!(
        lint("crates/net/src/x.rs", "net", src),
        vec![
            (5, "bad-allow"),
            (6, "unwrap-in-io-crate"),
            (10, "bad-allow"),
            (11, "unwrap-in-io-crate"),
        ]
    );
}

#[test]
fn workspace_config_parses_and_orders_the_real_hierarchy() {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../../analyze/lock-order.toml");
    let cfg = Config::load(&path).expect("workspace lock-order.toml");
    for c in ["net", "durability", "client", "core"] {
        assert!(cfg.io_crates.iter().any(|x| x == c), "missing io crate {c}");
    }
    let rank = |name: &str| {
        cfg.locks
            .iter()
            .find(|l| l.name == name)
            .unwrap_or_else(|| panic!("missing lock {name}"))
            .rank
    };
    assert!(rank("store.shard") < rank("store.index"));
    assert!(rank("store.db.tables") < rank("store.shard"));
    assert!(rank("durability.snapshot_gate") < rank("store.db.tables"));
    // Sorted by rank, ranks unique (parse() enforces both).
    assert!(cfg.locks.windows(2).all(|w| w[0].rank < w[1].rank));
}

/// `(name, rank)` pairs of the runtime table: every
/// `: LockRank = ("name", rank)` constant in `lock_rank.rs`.
fn runtime_ranks(src: &str) -> BTreeSet<(String, u32)> {
    src.split(": LockRank = (")
        .skip(1)
        .map(|rest| {
            let (tuple, _) = rest.split_once(')').expect("closing paren");
            let (name, rank) = tuple.split_once(',').expect("name, rank");
            let name = name.trim().trim_matches('"').to_owned();
            (name, rank.trim().parse().expect("numeric rank"))
        })
        .collect()
}

/// `(name, rank)` pairs of the `| rank | `name` | ... |` rows in the
/// DESIGN.md rank table.
fn documented_ranks(doc: &str) -> BTreeSet<(String, u32)> {
    let table = doc
        .split_once("## Lock-rank hierarchy")
        .expect("rank table section")
        .1;
    table
        .lines()
        .filter_map(|line| {
            let mut cells = line.split('|').skip(1).map(str::trim);
            let rank = cells.next()?.parse().ok()?;
            let name = cells.next()?.trim_matches('`').to_owned();
            Some((name, rank))
        })
        .collect()
}

#[test]
fn lock_rank_lists_agree() {
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("../..");
    let read = |rel: &str| std::fs::read_to_string(root.join(rel)).expect(rel);
    let runtime = runtime_ranks(&read("crates/common/src/lock_rank.rs"));
    let cfg = Config::load(&root.join("analyze/lock-order.toml")).expect("lock-order.toml");
    let configured: BTreeSet<(String, u32)> =
        cfg.locks.iter().map(|l| (l.name.clone(), l.rank)).collect();
    let documented = documented_ranks(&read("crates/analyze/DESIGN.md"));
    assert!(!runtime.is_empty());
    assert_eq!(runtime, configured, "lock_rank.rs vs lock-order.toml");
    assert_eq!(runtime, documented, "lock_rank.rs vs analyze/DESIGN.md");
}

// --- CLI exit codes, against throwaway mini-workspaces -----------------

const MINI_TOML: &str = r#"
[rules]
io_crates = ["demo"]
depth_cap_files = []
[[lock]]
name = "demo.shard"
rank = 20
idents = ["shards"]
[[lock]]
name = "demo.index"
rank = 30
idents = ["indexes"]
"#;

fn mini_workspace(tag: &str, lib_rs: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("quaestor-analyze-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(dir.join("analyze")).expect("mkdir analyze");
    std::fs::create_dir_all(dir.join("crates/demo/src")).expect("mkdir crate");
    std::fs::write(dir.join("analyze/lock-order.toml"), MINI_TOML).expect("toml");
    std::fs::write(dir.join("crates/demo/src/lib.rs"), lib_rs).expect("lib.rs");
    dir
}

fn run_lint(root: &std::path::Path) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_quaestor-analyze"))
        .args(["lint", "--root"])
        .arg(root)
        .output()
        .expect("spawn quaestor-analyze")
}

#[test]
fn cli_exits_nonzero_with_named_positions_on_a_dirty_workspace() {
    let root = mini_workspace(
        "dirty",
        "use std::sync::Mutex;\npub fn f(x: Option<u32>) -> u32 {\n    x.unwrap()\n}\n",
    );
    let out = run_lint(&root);
    assert_eq!(out.status.code(), Some(1), "expected exit 1");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(
        stdout.contains("crates/demo/src/lib.rs:1: [std-sync-lock]"),
        "stdout: {stdout}"
    );
    assert!(
        stdout.contains("crates/demo/src/lib.rs:3: [unwrap-in-io-crate]"),
        "stdout: {stdout}"
    );
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("2 diagnostic(s)"), "stderr: {stderr}");
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cli_exits_zero_on_a_clean_workspace() {
    let root = mini_workspace(
        "clean",
        "pub fn f(x: Option<u32>) -> u32 {\n    x.unwrap_or(0)\n}\n",
    );
    let out = run_lint(&root);
    assert_eq!(out.status.code(), Some(0), "expected exit 0");
    assert!(String::from_utf8_lossy(&out.stderr).contains("analyze: clean"));
    let _ = std::fs::remove_dir_all(&root);
}

#[test]
fn cli_usage_and_config_errors_exit_two() {
    let out = Command::new(env!("CARGO_BIN_EXE_quaestor-analyze"))
        .output()
        .expect("spawn");
    assert_eq!(out.status.code(), Some(2), "no-args usage");
    let missing =
        std::env::temp_dir().join(format!("quaestor-analyze-missing-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&missing);
    let out = run_lint(&missing);
    assert_eq!(out.status.code(), Some(2), "missing workspace root");
}
