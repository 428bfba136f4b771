//! End-to-end benchmark of the Quaestor stack over loopback.
//!
//! ```text
//! cargo run --release --offline --manifest-path e2ebench/Cargo.toml -- \
//!     --workload read-heavy --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One process builds the whole stack (see `stack.rs`) and replays a
//! closed-loop operation stream generated from the seed before timing.
//! Cache time is logical: the server and every session share one
//! `ManualClock` that the load thread advances by a fixed step per op, so
//! TTLs, EBF refreshes and hit counts do not depend on the machine's
//! speed; latency is real wall time. `NOTES.md` explains the design.
//!
//! Every run times the stream on a freshly set-up stack. `--trace 0` then
//! sets the stack up again (3 to 9 set-ups in all) and prints the
//! end-to-end metrics, with the median set-up time.
//! `--trace 1` instead replays the stream on a second fresh stack with
//! tracing and prints the per-layer metrics; on the single-thread
//! workloads every count of the two runs must agree. The last line of
//! standard output is one JSON object.

mod probe;
mod runner;
mod stack;
mod stats;
mod workload;

use std::collections::BTreeMap;
use std::process::ExitCode;
use std::time::Instant;

use runner::{Phase, PhaseResult};
use stack::{DataDir, Stack};
use stats::{layer_p50, median_f64, percentile, ratio, Tail};
use workload::{specs, Catalog, Spec};

/// Set-ups per untraced run: at least `MIN_SETUPS`, more while together
/// they took under `SETUP_BUDGET_S` (a short set-up jitters most), at
/// most `MAX_SETUPS`. `setup_s` is their median.
const MIN_SETUPS: usize = 3;
const MAX_SETUPS: usize = 9;
const SETUP_BUDGET_S: f64 = 2.0;

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|e| format!("{flag} {value}: {e}"))
        };
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(number()?),
            "--seconds" => seconds = Some(number()?),
            "--trace" => trace = Some(number()?),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let seconds = seconds.unwrap_or(10);
    if !(1..=60).contains(&seconds) {
        return Err(format!("--seconds {seconds} must lie in 1..=60"));
    }
    let trace = match trace.unwrap_or(0) {
        0 => false,
        1 => true,
        t => return Err(format!("--trace {t} must be 0 or 1")),
    };
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace,
    })
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("e2ebench: {e}");
            eprintln!(
                "usage: e2ebench --workload <{}> --seed <n> --seconds <1-60> --trace <0|1>",
                specs().map(|s| s.name).join("|")
            );
            return ExitCode::from(2);
        }
    };
    let Some(spec) = specs().into_iter().find(|s| s.name == args.workload) else {
        eprintln!("e2ebench: unknown workload {}", args.workload);
        return ExitCode::from(2);
    };
    let root = match std::env::current_dir() {
        Ok(cwd) => cwd
            .join(".e2ebench-data")
            .join(format!("run-{}", std::process::id())),
        Err(e) => {
            eprintln!("e2ebench: no working directory: {e}");
            return ExitCode::from(2);
        }
    };
    let outcome = run(&spec, &args, &root);
    let _ = std::fs::remove_dir_all(&root);
    if let Some(parent) = root.parent() {
        // Only succeeds once no other run is using it.
        let _ = std::fs::remove_dir(parent);
    }
    match outcome {
        Ok(report) => {
            println!("{}", report.json());
            if report.correct {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("e2ebench: {e}");
            ExitCode::FAILURE
        }
    }
}

/// The result line.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// name → (value, unit)
    metrics: BTreeMap<String, (f64, &'static str)>,
}

impl Report {
    fn json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(name, (value, unit))| {
                let value = if value.is_finite() { *value } else { 0.0 };
                format!("\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        println!("{name} = {value} {unit}");
        self.metrics.insert(name.to_owned(), (value, unit));
    }
}

fn run(spec: &Spec, args: &Args, root: &std::path::Path) -> Result<Report, String> {
    let timed_ops = spec.ops_per_second * args.seconds as usize;
    let streams = workload::streams(spec, args.seed, timed_ops);
    let catalog = Catalog::new(&spec.data, &streams);
    println!(
        "workload={} seed={} timed_ops={} warmup_ops={} threads={} sessions_per_thread={} \
         cores={}",
        spec.name,
        args.seed,
        timed_ops,
        spec.warmup_ops,
        spec.threads,
        spec.sessions,
        std::thread::available_parallelism().map_or(0, |n| n.get())
    );
    let mut setup_n = 0;
    // Set-up is timed from the first file written to the end of warm-up.
    let mut setup = |traced: bool| -> Result<(Stack, f64), String> {
        setup_n += 1;
        let started = Instant::now();
        let dir = DataDir::create(root, &format!("setup-{setup_n}")).map_err(|e| e.to_string())?;
        let stack =
            Stack::build(spec, args.seed, dir, traced).map_err(|e| format!("set-up: {e}"))?;
        runner::drive(&stack, spec, &streams, &catalog, Phase::Warmup)
            .map_err(|e| format!("set-up: {e}"))?;
        Ok((stack, started.elapsed().as_secs_f64()))
    };

    // The timed phase runs on the first stack of every run, traced or
    // not, so it always starts from the same process state.
    let (stack, first_setup_s) = setup(false)?;
    println!(
        "host_probe_ms = {:.3} (drift diagnostic only)",
        host_probe_ms()
    );
    let cpu_before = cpu_jiffies();
    let timed = runner::drive(&stack, spec, &streams, &catalog, Phase::Timed)?;
    if let (Some((total0, steal0)), Some((total1, steal1))) = (cpu_before, cpu_jiffies()) {
        println!(
            "host_steal_pct = {:.1} (drift diagnostic only)",
            100.0 * ratio(steal1 - steal0, total1 - total0)
        );
    }
    // Read before any later set-up can raise it: the measured stack's peak.
    let peak_rss = peak_rss_mib();
    drop(stack);
    if !args.trace {
        let mut setups = vec![first_setup_s];
        // A run with failed ops is reported as it stands.
        while timed.failed == 0
            && setups.len() < MAX_SETUPS
            && (setups.len() < MIN_SETUPS || setups.iter().sum::<f64>() < SETUP_BUDGET_S)
        {
            let (stack, secs) = setup(false)?;
            setups.push(secs);
            drop(stack);
        }
        println!("setup_s samples: {setups:?}");
        return end_to_end(&timed, median_f64(&setups), peak_rss);
    }
    let (stack, _) = setup(true)?;
    let traced = runner::drive(&stack, spec, &streams, &catalog, Phase::Traced)?;
    drop(stack);
    per_layer(spec, &timed, &traced)
}

fn end_to_end(r: &PhaseResult, setup_s: f64, peak_rss: f64) -> Result<Report, String> {
    let mut report = Report {
        correct: r.failed == 0,
        attempted: r.attempted,
        failed: r.failed,
        metrics: BTreeMap::new(),
    };
    if let Some(e) = &r.first_error {
        println!("first failure: {e}");
    }
    // Read and query medians are reported. Throughput (a mean), write
    // latency (on read-heavy, a round trip after an idle stretch) and the
    // tails (writes stop at p90: read-heavy issues too few of them for
    // p99) are only printed: on a shared host they follow the
    // hypervisor more than the code (NOTES.md).
    println!(
        "ops_per_s = {} 1/s (diagnostic, not a metric)",
        r.completed as f64 / r.wall_s
    );
    let timings = [
        ("read_p50_us", &r.read_ns, 0.50, true),
        ("read_p99_us", &r.read_ns, 0.99, false),
        ("query_p50_us", &r.query_ns, 0.50, true),
        ("query_p99_us", &r.query_ns, 0.99, false),
        ("write_p50_us", &r.write_ns, 0.50, false),
        ("write_p90_us", &r.write_ns, 0.90, false),
    ];
    for (name, samples, q, reported) in timings {
        let Tail {
            value,
            samples: n,
            beyond,
        } = percentile(samples, q).map_err(|e| format!("{name}: {e}"))?;
        println!("{name}: exact over {n} samples, {beyond} beyond it");
        let us = value as f64 / 1e3;
        if reported {
            report.put(name, us, "us");
        } else {
            println!("{name} = {us} us (diagnostic, not a metric)");
        }
    }
    let c = &r.counts;
    report.put(
        "cache_miss_ratio",
        ratio(c.origin_served, c.reads + c.queries),
        "ratio",
    );
    report.put(
        "origin_calls_per_op",
        ratio(c.origin_calls, r.completed),
        "calls/op",
    );
    report.put("setup_s", setup_s, "s");
    report.put("peak_rss_mib", peak_rss, "MiB");
    Ok(report)
}

fn per_layer(spec: &Spec, timed: &PhaseResult, traced: &PhaseResult) -> Result<Report, String> {
    let mut problems = Vec::new();
    if timed.failed + traced.failed > 0 {
        problems.push(format!(
            "{} timed and {} traced operations failed (first: {})",
            timed.failed,
            traced.failed,
            timed
                .first_error
                .as_deref()
                .or(traced.first_error.as_deref())
                .unwrap_or("?")
        ));
    }
    println!(
        "timed phase {:.2} s, traced replay {:.2} s",
        timed.wall_s, traced.wall_s
    );
    println!("timed counts:  {:?}", timed.counts);
    println!("traced counts: {:?}", traced.counts);
    if spec.threads == 1 && timed.counts != traced.counts {
        problems.push("the traced replay's counts differ from the timed run's".to_owned());
    }
    for p in &problems {
        println!("check failed: {p}");
    }
    let mut report = Report {
        correct: problems.is_empty(),
        attempted: timed.attempted + traced.attempted,
        failed: timed.failed + traced.failed,
        metrics: BTreeMap::new(),
    };
    let ops = timed.completed;
    let t = &timed.counts;
    let s = &timed.scrape;
    let l = &traced.layers;
    let reads_queries = t.reads + t.queries;
    let median = |name: &str, samples: Option<&Vec<u64>>, per_unit: f64| {
        let mut samples = samples.cloned().unwrap_or_default();
        layer_p50(&mut samples)
            .map(|v| v as f64 / per_unit)
            .map_err(|e| format!("{name}: {e}"))
    };
    let spans = |name: &str| l.span_self_us.get(name);
    let repl = |name: &str| l.repl_span_us.get(name);
    let service = |kind: &str| l.service_ns.get(kind);
    // Counts come from the timed run (they equal the replay's); times,
    // TTLs, bytes and staleness from the replay.
    let rows: [(&str, Result<f64, String>, &'static str); 32] = [
        (
            "client.self_us_p50",
            median("client.self", Some(&l.client_self_ns), 1e3),
            "us",
        ),
        (
            "client.browser_hit_ratio",
            Ok(ratio(t.browser_served, reads_queries)),
            "ratio",
        ),
        (
            "client.cdn_hit_ratio",
            Ok(ratio(t.cdn_served, reads_queries)),
            "ratio",
        ),
        (
            "client.revalidations_per_op",
            Ok(ratio(t.revalidations, ops)),
            "1/op",
        ),
        (
            "client.useless_revalidation_ratio",
            Ok(ratio(l.useless_revalidations, l.revalidated_ops)),
            "ratio",
        ),
        (
            "client.ebf_refreshes_per_op",
            Ok(ratio(t.ebf_refreshes, ops)),
            "1/op",
        ),
        (
            "webcache.browser_evictions_per_op",
            Ok(ratio(s.browser_evictions, ops)),
            "1/op",
        ),
        (
            "webcache.cdn_purges_per_write",
            Ok(ratio(s.cdn_purges, t.writes)),
            "1/write",
        ),
        ("bloom.ebf_fill_ratio", Ok(l.ebf_fill_mean), "ratio"),
        (
            "bloom.ebf_inserts_per_write",
            Ok(ratio(s.ebf_inserts, t.writes)),
            "1/write",
        ),
        (
            "net.transport_us_p50",
            median("net.transport", Some(&l.transport_ns), 1e3),
            "us",
        ),
        (
            "net.response_bytes_per_call",
            Ok(ratio(l.response_bytes, l.calls)),
            "B/call",
        ),
        (
            "core.service_us_p50.get_record",
            median("get_record", service("get_record"), 1e3),
            "us",
        ),
        (
            "core.service_us_p50.query",
            median("query", service("query"), 1e3),
            "us",
        ),
        (
            "core.service_us_p50.ebf_snapshot",
            median("ebf_snapshot", service("ebf_snapshot"), 1e3),
            "us",
        ),
        (
            "core.service_us_p50.write",
            median("write", service("write"), 1e3),
            "us",
        ),
        (
            "store.plan_us_p50",
            median("store.plan", spans("store.plan"), 1.0),
            "us",
        ),
        (
            "store.query_us_p50",
            median("store.query", spans("store.query"), 1.0),
            "us",
        ),
        (
            "store.index_probes_per_query",
            Ok(ratio(s.index_probes, s.origin_queries)),
            "1/query",
        ),
        (
            "store.full_scans_per_query",
            Ok(ratio(s.full_scans, s.origin_queries)),
            "1/query",
        ),
        (
            "invalidb.evaluations_per_write",
            Ok(ratio(s.match_evaluations, t.writes)),
            "1/write",
        ),
        (
            "invalidb.pruning_ratio",
            Ok(ratio(s.match_pruned, s.match_pruned + s.match_evaluations)),
            "ratio",
        ),
        (
            "invalidb.query_invalidations_per_write",
            Ok(ratio(s.query_invalidations, t.writes)),
            "1/write",
        ),
        (
            "ttl.record_ttl_ms_p50",
            median("record ttl", Some(&l.record_ttls), 1.0),
            "ms",
        ),
        (
            "ttl.query_ttl_ms_p50",
            median("query ttl", Some(&l.query_ttls), 1.0),
            "ms",
        ),
        (
            "durability.wal_append_us_p50",
            median("wal.append", spans("wal.append"), 1.0),
            "us",
        ),
        (
            "durability.frames_per_write",
            Ok(ratio(s.wal_frames, t.writes)),
            "1/write",
        ),
        (
            "repl.primary_write_us_p50",
            median("net.server", repl("net.server"), 1.0),
            "us",
        ),
        (
            "repl.ship_us_p50",
            median("repl.ship", repl("repl.ship"), 1.0),
            "us",
        ),
        (
            "obs.trace_overhead_ratio",
            Ok(l.trace_overhead_ratio),
            "ratio",
        ),
        ("stale_read_ratio", Ok(l.stale_read_ratio), "ratio"),
        (
            "delta_violation_ratio",
            Ok(l.delta_violation_ratio),
            "ratio",
        ),
    ];
    for (name, value, unit) in rows {
        report.put(name, value?, unit);
    }
    println!(
        "staleness (reads, stale reads, Δ violations, queries, stale queries): {:?}",
        l.staleness_counts
    );
    Ok(report)
}

/// Peak resident set of this process, from `/proc/self/status`.
fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// All CPU time and the part of it stolen by the hypervisor, in jiffies
/// summed over cores, from `/proc/stat`: the share stolen during the
/// timed phase is printed beside the metrics as a drift diagnostic.
fn cpu_jiffies() -> Option<(u64, u64)> {
    let stat = std::fs::read_to_string("/proc/stat").ok()?;
    let fields: Vec<u64> = stat
        .lines()
        .next()?
        .split_whitespace()
        .skip(1)
        .take(8)
        .map(|f| f.parse().ok())
        .collect::<Option<_>>()?;
    // user nice system idle iowait irq softirq steal
    Some((fields.iter().sum(), *fields.get(7)?))
}

/// Time a fixed CPU loop: a host-speed reading printed beside the
/// metrics so drift between runs can be told apart from a regression.
/// Never used to scale a metric.
fn host_probe_ms() -> f64 {
    let started = Instant::now();
    let mut x = std::hint::black_box(0x2545_f491_4f6c_dd1d_u64);
    for _ in 0..20_000_000 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
    }
    std::hint::black_box(x);
    started.elapsed().as_secs_f64() * 1e3
}
