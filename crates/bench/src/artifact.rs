//! `BENCH_*.json` artifact writer: every payload the harness emits is
//! stamped with the git revision, whether the tree had uncommitted
//! changes, the host's core count and CPU model, and common run metadata,
//! so a result file found in CI weeks later still says exactly what
//! produced it.

use std::path::Path;
use std::time::{SystemTime, UNIX_EPOCH};

/// Write one machine-readable benchmark payload as
/// `<out>/BENCH_<name>.json`, stamping a `meta` object (git revision and
/// dirty flag, core count, CPU model, wall-clock timestamp, harness
/// version, experiment name) into the top-level JSON object.
pub fn write_bench_json(out: &Path, name: &str, json: &str) {
    let path = out.join(format!("BENCH_{name}.json"));
    if let Some(parent) = path.parent() {
        let _ = std::fs::create_dir_all(parent);
    }
    match std::fs::write(&path, stamp_meta(name, json)) {
        Ok(()) => println!("(wrote {})", path.display()),
        Err(e) => eprintln!("(could not write {}: {e})", path.display()),
    }
}

/// What a payload was measured on: the tree and the host.
#[derive(Debug, Default)]
struct Meta {
    git_rev: Option<String>,
    /// Whether the working tree differs from `git_rev`; `None` when git
    /// cannot tell.
    git_dirty: Option<bool>,
    cores: Option<usize>,
    cpu_model: Option<String>,
}

impl Meta {
    /// The tree and host of this process.
    fn here() -> Meta {
        Meta {
            git_rev: git_rev(),
            git_dirty: git_dirty(),
            cores: std::thread::available_parallelism().ok().map(|n| n.get()),
            cpu_model: cpu_model(),
        }
    }
}

/// Stamp `json` with this process's [`Meta`] (see [`splice_meta`]).
fn stamp_meta(name: &str, json: &str) -> String {
    let unix_ms = SystemTime::now()
        .duration_since(UNIX_EPOCH)
        .map(|d| d.as_millis())
        .unwrap_or(0);
    splice_meta(name, json, &Meta::here(), unix_ms)
}

/// Splice the `meta` object in right after the payload's opening brace.
/// Payloads are hand-rolled JSON objects (the vendored serde stand-in
/// has no derive); anything that doesn't start with `{` is passed
/// through untouched.
fn splice_meta(name: &str, json: &str, meta: &Meta, unix_ms: u128) -> String {
    let trimmed = json.trim_start();
    let Some(rest) = trimmed.strip_prefix('{') else {
        return json.to_owned();
    };
    if rest.trim_start().starts_with('}') {
        return json.to_owned(); // empty object: nothing to splice before
    }
    let or_null = |v: Option<String>| v.unwrap_or_else(|| "null".into());
    format!(
        "{{\n  \"meta\": {{\"experiment\": {}, \"git_rev\": {}, \"git_dirty\": {}, \
         \"cores\": {}, \"cpu_model\": {}, \"harness_version\": \"{}\", \
         \"generated_at_unix_ms\": {unix_ms}}},{}",
        json_str(name),
        json_str(meta.git_rev.as_deref().unwrap_or("unknown")),
        or_null(meta.git_dirty.map(|d| d.to_string())),
        or_null(meta.cores.map(|n| n.to_string())),
        or_null(meta.cpu_model.as_deref().map(json_str)),
        env!("CARGO_PKG_VERSION"),
        rest
    )
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if u32::from(c) < 0x20 => out.push_str(&format!("\\u{:04x}", u32::from(c))),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Whether a tracked file differs from `git_rev`; `None` when git cannot
/// be run here. Untracked files (an `--out-dir` of results) and the
/// `BENCH_*.json` files the harness writes itself do not count, so one
/// run's artifacts do not mark the next one's tree dirty.
fn git_dirty() -> Option<bool> {
    let out = std::process::Command::new("git")
        .args(["status", "--porcelain", "--untracked-files=no"])
        .output()
        .ok()?;
    out.status
        .success()
        .then(|| changes_other_than_artifacts(&String::from_utf8_lossy(&out.stdout)))
}

/// Whether `git status --porcelain` output names a changed file other
/// than a `BENCH_*.json` artifact.
fn changes_other_than_artifacts(porcelain: &str) -> bool {
    porcelain.lines().any(|line| {
        let path = line.get(3..).unwrap_or(line);
        let name = path.rsplit('/').next().unwrap_or(path);
        !(name.starts_with("BENCH_") && name.ends_with(".json"))
    })
}

/// The first `model name` of `/proc/cpuinfo`.
fn cpu_model() -> Option<String> {
    let info = std::fs::read_to_string("/proc/cpuinfo").ok()?;
    info.lines()
        .find(|l| l.starts_with("model name"))
        .and_then(|l| l.split_once(':'))
        .map(|(_, model)| model.trim().to_owned())
}

/// Resolve the current git revision by reading `.git/HEAD` (searching
/// upward from the working directory) — no subprocess, no extra deps.
fn git_rev() -> Option<String> {
    let mut dir = std::env::current_dir().ok()?;
    loop {
        let git = dir.join(".git");
        if git.is_dir() {
            let head = std::fs::read_to_string(git.join("HEAD")).ok()?;
            let head = head.trim();
            let rev = match head.strip_prefix("ref: ") {
                Some(reference) => std::fs::read_to_string(git.join(reference)).ok()?,
                None => head.to_owned(), // detached HEAD holds the sha itself
            };
            let rev = rev.trim();
            return (!rev.is_empty()).then(|| rev.to_owned());
        }
        if !dir.pop() {
            return None;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamp_preserves_payload_and_adds_meta() {
        let stamped = stamp_meta("net", "{\n  \"experiment\": \"net\",\n  \"rows\": []\n}\n");
        let parsed: serde_json::Value = serde_json::from_str(&stamped).expect("valid json");
        let obj = parsed.as_object().unwrap();
        assert_eq!(
            obj.get("experiment").unwrap().as_str().unwrap(),
            "net",
            "original payload keys survive"
        );
        let meta = obj.get("meta").unwrap().as_object().unwrap();
        assert_eq!(meta.get("experiment").unwrap().as_str().unwrap(), "net");
        for key in ["git_rev", "git_dirty", "cores", "cpu_model"] {
            assert!(meta.contains_key(key), "{key}");
        }
        assert!(meta.get("generated_at_unix_ms").unwrap().as_i64().is_some());
    }

    #[test]
    fn splice_renders_the_tree_and_host_and_null_for_the_unknown() {
        use serde_json::Value;
        let meta_of = |meta: &Meta| {
            let spliced = splice_meta("replication", "{\"rows\": [1]}", meta, 42);
            let parsed: Value = serde_json::from_str(&spliced).expect("valid json");
            let obj = parsed.as_object().unwrap();
            assert_eq!(obj.get("rows").unwrap().as_array().unwrap().len(), 1);
            obj.get("meta").unwrap().as_object().unwrap().clone()
        };
        let m = meta_of(&Meta {
            git_rev: Some("abc123".into()),
            git_dirty: Some(true),
            cores: Some(2),
            cpu_model: Some("Xeon \"E5\" \\ v4".into()),
        });
        assert_eq!(m.get("git_rev").unwrap().as_str(), Some("abc123"));
        assert_eq!(m.get("git_dirty"), Some(&Value::Bool(true)));
        assert_eq!(m.get("cores").unwrap().as_i64(), Some(2));
        assert_eq!(
            m.get("cpu_model").unwrap().as_str(),
            Some("Xeon \"E5\" \\ v4")
        );
        assert_eq!(m.get("generated_at_unix_ms").unwrap().as_i64(), Some(42));

        let m = meta_of(&Meta::default());
        assert_eq!(m.get("git_rev").unwrap().as_str(), Some("unknown"));
        for key in ["git_dirty", "cores", "cpu_model"] {
            assert!(m.get(key).unwrap().is_null(), "{key}");
        }
    }

    #[test]
    fn the_harness_own_artifacts_do_not_make_the_tree_dirty() {
        assert!(!changes_other_than_artifacts(""));
        assert!(!changes_other_than_artifacts(
            " M BENCH_replication.json\n M bench-artifacts/BENCH_net.json\n"
        ));
        assert!(changes_other_than_artifacts(
            " M BENCH_replication.json\nM  crates/durability/src/wal.rs\n"
        ));
        assert!(changes_other_than_artifacts("R  old.rs -> new.rs\n"));
    }

    #[test]
    fn non_object_payloads_pass_through() {
        assert_eq!(stamp_meta("x", "[1, 2]"), "[1, 2]");
    }

    #[test]
    fn repo_git_rev_resolves_here() {
        // The test runs inside the repo, so HEAD must resolve to a sha.
        let rev = git_rev().expect("in a git repo");
        assert!(rev.len() >= 7, "{rev}");
        assert!(rev.chars().all(|c| c.is_ascii_hexdigit()), "{rev}");
    }
}
