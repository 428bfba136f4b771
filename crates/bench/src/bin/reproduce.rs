//! Regenerate every table and figure of the paper's evaluation.
//!
//! ```text
//! cargo run -p quaestor-bench --release --bin reproduce -- all
//! cargo run -p quaestor-bench --release --bin reproduce -- fig8a fig10
//! cargo run -p quaestor-bench --release --bin reproduce -- --full tab1
//! cargo run -p quaestor-bench --release --bin reproduce -- --out-dir=target durability
//! ```

use quaestor_bench::*;

/// Where `BENCH_*.json` artifacts land (the `--out-dir=<path>` flag;
/// default: the current directory).
fn out_dir(args: &[String]) -> std::path::PathBuf {
    args.iter()
        .find_map(|a| a.strip_prefix("--out-dir="))
        .map(std::path::PathBuf::from)
        .unwrap_or_else(|| std::path::PathBuf::from("."))
}

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Hidden re-exec mode: the `net` experiment's C10k soak spawns this
    // same binary as the client swarm so server and 10k clients each
    // get their own process (and fd budget).
    if args.first().map(String::as_str) == Some("--c10k-client") {
        run_c10k_client(&args[1..]);
        return;
    }
    let full = args.iter().any(|a| a == "--full");
    let scale = if full { Scale::Full } else { Scale::Quick };
    let out = out_dir(&args);
    let targets: Vec<&str> = args
        .iter()
        .filter(|a| !a.starts_with("--"))
        .map(String::as_str)
        .collect();
    let targets: Vec<&str> = if targets.is_empty() || targets.contains(&"all") {
        vec![
            "fig1",
            "fig8a",
            "fig8b",
            "fig8c",
            "fig8d",
            "fig8e",
            "fig8f",
            "fig9",
            "fig10",
            "fig11",
            "tab1",
            "fig12",
            "thinks",
            "ablation-ttl",
            "ablation-rep",
            "ablation-quantile",
            "ablation-fpr",
            "batch",
            "shards",
            "matchidx",
            "query",
            "durability",
            "replication",
            "net",
            "obs",
        ]
    } else {
        targets
    };

    println!("Quaestor reproduction harness — scale: {scale:?}\n");
    for t in targets {
        let start = std::time::Instant::now();
        match t {
            "fig1" => run_fig1(),
            "fig8a" | "fig8b" | "fig8c" => run_fig8_systems(scale, t),
            "fig8d" | "fig8e" => run_fig8_query_count(scale, t),
            "fig8f" => run_fig8f(scale),
            "fig9" => run_fig9(scale),
            "fig10" => run_fig10(scale),
            "fig11" => run_fig11(scale),
            "tab1" => run_tab1(scale),
            "fig12" => run_fig12(scale),
            "thinks" => run_thinks(scale),
            "ablation-ttl" => run_ablation_ttl(scale),
            "ablation-rep" => run_ablation_rep(scale),
            "ablation-quantile" => run_ablation_quantile(scale),
            "ablation-fpr" => run_ablation_fpr(),
            "batch" => run_batch(scale),
            "shards" => run_shards(scale),
            "matchidx" => run_matchidx(scale, &out),
            "query" => run_query(scale, &out),
            "durability" => run_durability(scale, &out),
            "replication" => run_replication(scale, &out),
            "net" => run_net(scale, &out),
            "obs" => run_obs(scale, &out),
            other => {
                eprintln!("unknown experiment '{other}' — see DESIGN.md for the index");
                std::process::exit(2);
            }
        }
        println!("  [{t} took {:.1}s]\n", start.elapsed().as_secs_f64());
    }
}

fn run_fig1() {
    println!("== Figure 1: first-load page latency by region (warm CDN, cold browser) ==");
    let mut t = TableWriter::new(&["region", "Quaestor (ms)", "uncached DBaaS (ms)", "speedup"]);
    for r in fig1_page_load() {
        t.row(vec![
            r.region.into(),
            r.quaestor_ms.to_string(),
            r.uncached_ms.to_string(),
            format!("{:.1}x", r.uncached_ms as f64 / r.quaestor_ms.max(1) as f64),
        ]);
    }
    t.print();
}

fn run_fig8_systems(scale: Scale, which: &str) {
    println!("== Figures 8a-8c: read-heavy workload, system comparison ({which}) ==");
    let rows = fig8_systems(scale);
    let mut t = TableWriter::new(&[
        "connections",
        "system",
        "throughput (ops/s)",
        "read lat (ms)",
        "query lat (ms)",
    ]);
    for r in &rows {
        t.row(vec![
            r.connections.to_string(),
            r.system.into(),
            format!("{:.0}", r.throughput),
            format!("{:.1}", r.read_latency_ms),
            format!("{:.1}", r.query_latency_ms),
        ]);
    }
    t.print();
}

fn run_fig8_query_count(scale: Scale, which: &str) {
    println!("== Figures 8d/8e: query-count sweep ({which}) ==");
    let mut t = TableWriter::new(&[
        "queries",
        "read lat (ms)",
        "query lat (ms)",
        "client qry hit",
        "client read hit",
        "CDN qry hit",
        "CDN read hit",
    ]);
    for r in fig8_query_count(scale) {
        t.row(vec![
            r.query_count.to_string(),
            format!("{:.1}", r.read_latency_ms),
            format!("{:.1}", r.query_latency_ms),
            format!("{:.2}", r.client_query_hit_rate),
            format!("{:.2}", r.client_read_hit_rate),
            format!("{:.2}", r.cdn_query_hit_rate),
            format!("{:.2}", r.cdn_read_hit_rate),
        ]);
    }
    t.print();
}

fn run_fig8f(scale: Scale) {
    println!("== Figure 8f: query latency histogram ==");
    let h = fig8f_histogram(scale);
    let mut t = TableWriter::new(&["latency bucket (ms)", "count", "share"]);
    for (bucket, count) in h.iter_buckets() {
        t.row(vec![
            format!(">= {bucket}"),
            count.to_string(),
            format!("{:.1}%", 100.0 * count as f64 / h.count() as f64),
        ]);
    }
    t.print();
    println!(
        "(client hits ~0 ms, CDN hits ~4 ms, misses ~{} ms)",
        quaestor_sim::LatencyModel::default().origin_ms
    );
}

fn run_fig9(scale: Scale) {
    println!("== Figure 9: query hit rate vs update rate (per EBF refresh interval) ==");
    let mut t = TableWriter::new(&["queries", "refresh (s)", "update rate", "query hit rate"]);
    for r in fig9_update_rates(scale) {
        t.row(vec![
            r.query_count.to_string(),
            r.refresh_s.to_string(),
            format!("{:.2}", r.update_rate),
            format!("{:.3}", r.query_hit_rate),
        ]);
    }
    t.print();
}

fn run_fig10(scale: Scale) {
    println!("== Figure 10: stale read/query rates vs EBF refresh interval ==");
    let mut t = TableWriter::new(&[
        "clients",
        "refresh (s)",
        "query staleness",
        "read staleness",
    ]);
    for r in fig10_staleness(scale) {
        t.row(vec![
            r.clients.to_string(),
            r.refresh_s.to_string(),
            format!("{:.4}", r.query_staleness),
            format!("{:.4}", r.read_staleness),
        ]);
    }
    t.print();
}

fn run_fig11(scale: Scale) {
    println!("== Figure 11: CDF of estimated vs true TTLs (1% write rate, 10 min) ==");
    let report = fig11_ttl_cdf(scale);
    let points: Vec<u64> = vec![
        1_000, 5_000, 10_000, 30_000, 60_000, 120_000, 240_000, 360_000, 480_000, 600_000,
    ];
    let mut t = TableWriter::new(&["TTL (s)", "CDF estimated", "CDF true"]);
    for (ttl, est, tru) in report.cdf_points(&points) {
        t.row(vec![
            (ttl / 1_000).to_string(),
            format!("{:.3}", est),
            format!("{:.3}", tru),
        ]);
    }
    t.print();
}

fn run_tab1(scale: Scale) {
    println!("== Table 1: latency for increasing document counts (Zipf 0.99) ==");
    let mut t = TableWriter::new(&["documents", "queries", "query lat (ms)", "read lat (ms)"]);
    for r in tab1_document_counts(scale) {
        t.row(vec![
            r.documents.to_string(),
            r.queries.to_string(),
            format!("{:.1}", r.query_latency_ms),
            format!("{:.1}", r.read_latency_ms),
        ]);
    }
    t.print();
}

fn run_fig12(scale: Scale) {
    println!("== Figure 12: InvaliDB matching throughput vs cluster size ==");
    let mut t = TableWriter::new(&[
        "nodes",
        "active queries",
        "throughput (match ops/s)",
        "p99 latency (ms)",
    ]);
    for r in fig12_invalidb_scaling(scale) {
        t.row(vec![
            r.nodes.to_string(),
            r.active_queries.to_string(),
            format!("{:.0}", r.throughput_ops_per_sec),
            format!("{:.2}", r.p99_latency_ms),
        ]);
    }
    t.print();
}

fn run_thinks(scale: Scale) {
    println!("== §6.2 production anecdote: flash-sale crowd ==");
    let r = thinks_flash_sale(scale);
    println!(
        "requests: {}  CDN hits: {}  origin requests: {}  CDN hit rate: {:.1}%",
        r.requests,
        r.cdn_hits,
        r.origin_requests,
        r.cdn_hit_rate * 100.0
    );
    println!("(paper reports a 98% CDN hit rate letting 2 DBaaS servers carry >20k req/s)");
}

fn run_ablation_ttl(scale: Scale) {
    println!("== Ablation: TTL strategy (the §3 straw-man comparison) ==");
    let mut t = TableWriter::new(&["strategy", "query hit rate", "query staleness"]);
    for r in ablation_ttl_strategies(scale) {
        t.row(vec![
            r.strategy.into(),
            format!("{:.3}", r.query_hit_rate),
            format!("{:.4}", r.query_staleness),
        ]);
    }
    t.print();
}

fn run_ablation_rep(scale: Scale) {
    println!("== Ablation: result representation (id-list vs object-list) ==");
    let mut t = TableWriter::new(&["policy", "query lat (ms)", "origin reads"]);
    for r in ablation_representation(scale) {
        t.row(vec![
            r.policy.into(),
            format!("{:.1}", r.query_latency_ms),
            r.invalidations.to_string(),
        ]);
    }
    t.print();
}

fn run_ablation_quantile(scale: Scale) {
    println!("== Ablation: Poisson TTL quantile p (Eq. 1) ==");
    let mut t = TableWriter::new(&["quantile p", "query hit rate", "origin reads"]);
    for r in ablation_quantile(scale) {
        t.row(vec![
            format!("{:.2}", r.quantile),
            format!("{:.3}", r.query_hit_rate),
            r.query_invalidations.to_string(),
        ]);
    }
    t.print();
}

fn run_ablation_fpr() {
    println!("== Ablation: EBF size vs false-positive rate (20k stale entries) ==");
    let mut t = TableWriter::new(&["size (bytes)", "k", "measured FPR", "expected FPR"]);
    for r in ablation_fpr() {
        t.row(vec![
            r.size_bytes.to_string(),
            r.k.to_string(),
            format!("{:.4}", r.measured_fpr),
            format!("{:.4}", r.expected_fpr),
        ]);
    }
    t.print();
    println!("(paper: 14.6 KB holds 20k stale queries at ~6% FPR in one TCP congestion window)");
}

fn run_batch(scale: Scale) {
    println!("== Service layer: batch write amortization (N writes, simulated WAN) ==");
    let mut t = TableWriter::new(&[
        "mode",
        "ops",
        "round trips",
        "network (ms)",
        "server wall (us)",
    ]);
    for r in batch_write_amortization(scale) {
        t.row(vec![
            r.mode.into(),
            r.ops.to_string(),
            r.round_trips.to_string(),
            r.simulated_network_ms.to_string(),
            r.wall_us.to_string(),
        ]);
    }
    t.print();
    println!("(one Batch request = one wire round trip; the origin resolves each table once per run of writes)");
}

fn run_matchidx(scale: Scale, out: &std::path::Path) {
    println!("== InvaliDB predicate index: indexed vs linear matching ==");
    let rows = matchidx_comparison(scale);
    let mut t = TableWriter::new(&[
        "queries",
        "events",
        "indexed evals",
        "pruned",
        "linear evals",
        "reduction",
        "indexed wall (us)",
        "linear wall (us)",
    ]);
    for r in &rows {
        t.row(vec![
            r.queries.to_string(),
            r.events.to_string(),
            r.indexed_evaluations.to_string(),
            r.pruned.to_string(),
            r.linear_evaluations.to_string(),
            format!("{:.1}x", r.evaluation_reduction()),
            r.indexed_wall_us.to_string(),
            r.linear_wall_us.to_string(),
        ]);
    }
    t.print();
    let json = matchidx_json(&rows);
    write_bench_json(out, "matching", &json);
}

fn run_query(scale: Scale, out: &std::path::Path) {
    println!("== Query engine: planner vs forced reference scan ==");
    let rows = query_engine_comparison(scale);
    let mut t = TableWriter::new(&[
        "docs",
        "shape",
        "plan",
        "results",
        "planner (us)",
        "scan (us)",
        "speedup",
    ]);
    for r in &rows {
        t.row(vec![
            r.docs.to_string(),
            r.shape.into(),
            r.plan.clone(),
            r.result_len.to_string(),
            format!("{:.1}", r.planner_us),
            format!("{:.1}", r.scan_us),
            format!("{:.0}x", r.speedup()),
        ]);
    }
    t.print();
    println!("(every row asserted planner == reference scan before timing)");
    let json = query_engine_json(&rows);
    write_bench_json(out, "query", &json);
}

fn run_durability(scale: Scale, out: &std::path::Path) {
    println!("== Durability: WAL append throughput & crash recovery ==");
    let append = durability_append(scale);
    let mut t = TableWriter::new(&["mode", "group", "writes", "wall (ms)", "appends/s"]);
    for r in &append {
        t.row(vec![
            r.mode.into(),
            r.group_commit.to_string(),
            r.writes.to_string(),
            (r.wall_us / 1_000).to_string(),
            format!("{:.0}", r.throughput()),
        ]);
    }
    t.print();
    println!("-- kill-and-recover round trips (fsync=Always; loss must be 0) --");
    let recovery = durability_recovery(scale);
    let mut t = TableWriter::new(&["acked writes", "lost", "records", "recovery (ms)"]);
    for r in &recovery {
        t.row(vec![
            r.acknowledged.to_string(),
            r.lost.to_string(),
            r.recovered_records.to_string(),
            format!("{:.1}", r.recovery_wall_us as f64 / 1_000.0),
        ]);
    }
    t.print();
    let json = durability_json(&append, &recovery);
    write_bench_json(out, "durability", &json);
}

fn run_replication(scale: Scale, out: &std::path::Path) {
    println!("== Replication: replica lag vs write rate (async shipping) ==");
    let rows = replication_lag(scale);
    let mut t = TableWriter::new(&[
        "target rate",
        "writes",
        "achieved rate",
        "mean lag",
        "max lag",
        "drain (ms)",
        "converged",
    ]);
    for r in &rows {
        t.row(vec![
            if r.target_rate == 0 {
                "unthrottled".into()
            } else {
                format!("{}/s", r.target_rate)
            },
            r.writes.to_string(),
            format!("{:.0}/s", r.achieved_rate),
            format!("{:.2}", r.mean_lag_frames),
            r.max_lag_frames.to_string(),
            format!("{:.1}", r.convergence_ms),
            r.converged.to_string(),
        ]);
    }
    t.print();
    println!("(lag in WAL frames = acked-but-not-replica-durable writes a crash at that instant would hand to failover)");
    println!("\n== Replication: commit latency of sequential writes (default ReplConfig) ==");
    let commit = replication_commit_latency(scale);
    let mut t = TableWriter::new(&["mode", "fsync", "writes", "acked", "p50 (us)", "p99 (us)"]);
    for r in &commit {
        t.row(vec![
            r.mode.into(),
            format!("{:?}", r.fsync),
            r.writes.to_string(),
            r.acked.to_string(),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
        ]);
    }
    t.print();
    println!("\n== Replication: a fresh replica catching up a loaded primary ==");
    let catch_up = replication_catch_up(scale);
    let mut t = TableWriter::new(&[
        "docs",
        "frames",
        "wall (ms)",
        "frames/s",
        "batches",
        "fsyncs",
    ]);
    t.row(vec![
        catch_up.docs.to_string(),
        catch_up.frames.to_string(),
        format!("{:.1}", catch_up.wall_ms),
        format!("{:.0}", catch_up.frames_per_sec()),
        catch_up.batches.to_string(),
        catch_up.fsyncs.to_string(),
    ]);
    t.print();
    let json = replication_json(&rows, &commit, &catch_up);
    write_bench_json(out, "replication", &json);
    // A replica group-commits each batch: more fsyncs than batches means
    // it is paying for frames, not batches.
    if catch_up.fsyncs > catch_up.batches {
        eprintln!(
            "replication: the replica fsynced {} times for {} batches",
            catch_up.fsyncs, catch_up.batches
        );
        std::process::exit(1);
    }
}

/// Client half of the C10k soak (`--c10k-client <addr> <conns>`):
/// subscribe a swarm of raw framed sockets, report readiness on stdout,
/// then drain the fan-out burst and report the delivered count. See
/// `net_c10k` for the stdout line protocol.
fn run_c10k_client(args: &[String]) {
    quaestor_common::raise_fd_limit();
    let addr: std::net::SocketAddr = args
        .first()
        .and_then(|a| a.parse().ok())
        .expect("--c10k-client <addr> <conns>");
    let conns: usize = args
        .get(1)
        .and_then(|a| a.parse().ok())
        .expect("--c10k-client <addr> <conns>");
    let key = quaestor_query::QueryKey::of(&c10k_query());
    let started = std::time::Instant::now();
    let mut swarm =
        quaestor_sim::subscribe_swarm(addr, &key, conns, std::time::Duration::from_secs(30));
    let connect_wall_us = started.elapsed().as_micros();
    println!("ready {}", swarm.len());
    use std::io::Write as _;
    std::io::stdout().flush().expect("flush ready line");
    let fanout_started = std::time::Instant::now();
    let delivered = quaestor_sim::drain_pushes(&mut swarm, C10K_BURST);
    println!(
        "done {delivered} {connect_wall_us} {}",
        fanout_started.elapsed().as_micros()
    );
}

fn run_net(scale: Scale, out: &std::path::Path) {
    println!("== Network layer: wire throughput & latency, in-process vs loopback TCP ==");
    let mut rows = net_sweep(scale);
    // The C10k soak: 10k concurrent subscriber connections held by a
    // child process (this binary, re-exec'd), one write burst fanned
    // out to all of them. Reported as a row so BENCH_net.json carries
    // it alongside the sweep; per-op percentiles are not measured for
    // pushes, so p50/p99 are 0 there.
    match std::env::current_exe().and_then(|exe| net_c10k(&exe)) {
        Ok(c) => {
            println!(
                "(c10k soak: {}/{} subscribed, {}/{} pushes delivered, \
                 {:.0} pushes/s over {:.1}s fan-out)",
                c.subscribed,
                c.connections,
                c.delivered,
                c.expected,
                c.push_rate(),
                c.fanout_wall_us as f64 / 1e6
            );
            rows.push(NetBenchRow {
                mode: "c10k-push",
                connections: c.connections,
                pipeline_depth: 1,
                ops: c.delivered,
                wall_us: c.fanout_wall_us,
                throughput: c.push_rate(),
                p50_us: 0,
                p99_us: 0,
            });
        }
        Err(e) => println!("(c10k soak skipped: {e})"),
    }
    let mut t = TableWriter::new(&[
        "mode", "conns", "depth", "ops", "req/s", "p50 (us)", "p99 (us)",
    ]);
    for r in &rows {
        t.row(vec![
            r.mode.into(),
            r.connections.to_string(),
            r.pipeline_depth.to_string(),
            r.ops.to_string(),
            format!("{:.0}", r.throughput),
            r.p50_us.to_string(),
            r.p99_us.to_string(),
        ]);
    }
    t.print();
    let best_loopback = rows
        .iter()
        .filter(|r| r.mode == "loopback")
        .map(|r| r.throughput)
        .fold(0.0f64, f64::max);
    println!("(best loopback throughput: {best_loopback:.0} req/s; identical client code in both modes — only the connect target changes)");
    let json = net_json(&rows);
    write_bench_json(out, "net", &json);
}

fn run_obs(scale: Scale, out: &std::path::Path) {
    println!("== Observability: tracing overhead & Δ-atomicity staleness audit ==");
    let overhead = tracing_overhead(scale);
    let mut t = TableWriter::new(&[
        "ops/run",
        "runs",
        "1-in-N",
        "off cpu (ms)",
        "on cpu (ms)",
        "off wall (ms)",
        "on wall (ms)",
        "overhead",
        "spans",
    ]);
    t.row(vec![
        overhead.ops_per_run.to_string(),
        overhead.runs.to_string(),
        overhead.sample_interval.to_string(),
        (overhead.off_cpu_us / 1_000).to_string(),
        (overhead.on_cpu_us / 1_000).to_string(),
        (overhead.off_wall_us / 1_000).to_string(),
        (overhead.on_wall_us / 1_000).to_string(),
        format!("{:.1}%", overhead.overhead() * 100.0),
        overhead.spans_recorded.to_string(),
    ]);
    t.print();
    println!(
        "(claim under test: ambient 1-in-{} sampling costs < 5% CPU on the loopback workload)",
        overhead.sample_interval
    );
    let staleness = staleness_audit(scale);
    let mut t = TableWriter::new(&[
        "promised Δ (ms)",
        "reads",
        "stale",
        "violations",
        "p99 (ms)",
    ]);
    t.row(vec![
        staleness.promised_ms.to_string(),
        staleness.reads.to_string(),
        staleness.stale_reads.to_string(),
        staleness.violations.to_string(),
        staleness.delta_ms.percentile(0.99).unwrap_or(0).to_string(),
    ]);
    t.print();
    println!("(claim under test: 100% of audited reads fall within the promised Δ)");
    let json = obs_json(&overhead, &staleness);
    write_bench_json(out, "obs", &json);
}

fn run_shards(scale: Scale) {
    println!("== Service layer: shared-nothing scale-out via ShardRouter ==");
    let mut t = TableWriter::new(&["shards", "ops", "wall (ms)", "throughput (ops/s)"]);
    for r in sharded_scaleout(scale) {
        t.row(vec![
            r.shards.to_string(),
            r.ops.to_string(),
            r.wall_ms.to_string(),
            format!("{:.0}", r.throughput_ops_s),
        ]);
    }
    t.print();
    println!("(identical client code per row; only the connect target changes)");
}
