//! One function per paper artifact.

use quaestor_bloom::{BloomFilter, BloomParams};
use quaestor_common::Histogram;
use quaestor_invalidb::{PipelineConfig, ThreadedPipeline};
use quaestor_sim::{
    flash_sale, page_load, ttl_estimation_cdf, FlashSaleReport, LatencyModel, PageLoadReport,
    SimConfig, Simulation, SystemVariant, TtlCdfReport,
};
use quaestor_ttl::EstimatorConfig;
use quaestor_workload::{OperationMix, WorkloadConfig};

/// Experiment scale: `quick` (default, minutes) or `full` (closer to the
/// paper's parameter ranges; tens of minutes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// ~10x-scaled-down parameters.
    Quick,
    /// Paper-scale parameters.
    Full,
}

impl Scale {
    fn connections(&self) -> Vec<usize> {
        match self {
            Scale::Quick => vec![30, 60, 120, 180, 240, 300],
            Scale::Full => vec![300, 600, 1_200, 1_800, 2_400, 3_000],
        }
    }

    fn docs_per_table(&self) -> usize {
        match self {
            Scale::Quick => 1_000,
            Scale::Full => 10_000,
        }
    }

    fn duration_ms(&self) -> u64 {
        match self {
            Scale::Quick => 6_000,
            Scale::Full => 30_000,
        }
    }

    fn warmup_ms(&self) -> u64 {
        match self {
            Scale::Quick => 1_500,
            Scale::Full => 5_000,
        }
    }
}

fn base_sim(scale: Scale, connections: usize) -> SimConfig {
    let clients = 10;
    SimConfig {
        variant: SystemVariant::Quaestor,
        workload: WorkloadConfig {
            tables: 10,
            docs_per_table: scale.docs_per_table(),
            queries_per_table: 100,
            avg_result_size: 10,
            zipf_theta: 0.8,
            mix: OperationMix::read_heavy(),
        },
        clients,
        connections_per_client: (connections / clients).max(1),
        ebf_refresh_ms: 1_000,
        duration_ms: scale.duration_ms(),
        warmup_ms: scale.warmup_ms(),
        latency: LatencyModel::default(),
        seed: 42,
        measure_staleness: false,
        origin_capacity_ops_per_sec: Some(15_000.0),
        client_capacity_ops_per_sec: Some(15_000.0),
        server: Default::default(),
    }
}

// ---------------------------------------------------------------- fig 8a-c

/// One cell of the Figures 8a–8c sweep.
#[derive(Debug, Clone)]
pub struct Fig8Row {
    /// Connection count.
    pub connections: usize,
    /// System variant label.
    pub system: &'static str,
    /// Throughput (ops/s) — Figure 8a.
    pub throughput: f64,
    /// Mean record-read latency (ms) — Figure 8b.
    pub read_latency_ms: f64,
    /// Mean query latency (ms) — Figure 8c.
    pub query_latency_ms: f64,
}

/// Run the read-heavy system comparison behind Figures 8a, 8b and 8c.
pub fn fig8_systems(scale: Scale) -> Vec<Fig8Row> {
    let mut rows = Vec::new();
    for &conns in &scale.connections() {
        for variant in SystemVariant::all() {
            let mut cfg = base_sim(scale, conns);
            cfg.variant = variant;
            let report = Simulation::new(cfg).run();
            rows.push(Fig8Row {
                connections: conns,
                system: variant.label(),
                throughput: report.throughput_ops_per_sec,
                read_latency_ms: report.read_latency_ms.mean(),
                query_latency_ms: report.query_latency_ms.mean(),
            });
        }
    }
    rows
}

// ---------------------------------------------------------------- fig 8d/e

/// One row of the Figure 8d/8e query-count sweep.
#[derive(Debug, Clone)]
pub struct Fig8dRow {
    /// Total distinct queries (tables × queries-per-table).
    pub query_count: usize,
    /// Mean record-read latency (ms).
    pub read_latency_ms: f64,
    /// Mean query latency (ms).
    pub query_latency_ms: f64,
    /// Client cache hit rate for queries.
    pub client_query_hit_rate: f64,
    /// Client cache hit rate for reads.
    pub client_read_hit_rate: f64,
    /// CDN hit rate for queries.
    pub cdn_query_hit_rate: f64,
    /// CDN hit rate for reads.
    pub cdn_read_hit_rate: f64,
}

/// Run the query-count sweep behind Figures 8d and 8e.
pub fn fig8_query_count(scale: Scale) -> Vec<Fig8dRow> {
    let sweeps = match scale {
        Scale::Quick => vec![100, 200, 400, 600, 800, 1_000],
        Scale::Full => vec![1_000, 2_000, 4_000, 6_000, 8_000, 10_000],
    };
    let mut rows = Vec::new();
    for qc in sweeps {
        let mut cfg = base_sim(scale, 120);
        cfg.workload.queries_per_table = qc / cfg.workload.tables;
        // More queries need more categories; keep ~10 docs per result.
        cfg.workload.avg_result_size =
            (cfg.workload.docs_per_table / cfg.workload.queries_per_table.max(1)).clamp(1, 10);
        // This sweep measures a steady-state coverage effect ("a larger
        // portion of keys is part of a cached query result"), so it needs
        // to run well past cold start.
        cfg.duration_ms = scale.duration_ms() * 5;
        cfg.warmup_ms = cfg.duration_ms / 2;
        let report = Simulation::new(cfg).run();
        rows.push(Fig8dRow {
            query_count: qc,
            read_latency_ms: report.read_latency_ms.mean(),
            query_latency_ms: report.query_latency_ms.mean(),
            client_query_hit_rate: report.query_client_hit_rate,
            client_read_hit_rate: report.record_client_hit_rate,
            cdn_query_hit_rate: report.query_cdn_hit_rate,
            cdn_read_hit_rate: report.record_cdn_hit_rate,
        });
    }
    rows
}

// ------------------------------------------------------------------ fig 8f

/// The Figure 8f query-latency histogram.
pub fn fig8f_histogram(scale: Scale) -> Histogram {
    let cfg = base_sim(scale, 120);
    Simulation::new(cfg).run().query_latency_ms
}

// ------------------------------------------------------------------- fig 9

/// One line point of Figure 9.
#[derive(Debug, Clone)]
pub struct Fig9Row {
    /// Fraction of operations that are updates.
    pub update_rate: f64,
    /// EBF refresh interval (s).
    pub refresh_s: u64,
    /// Total distinct queries.
    pub query_count: usize,
    /// Client cache hit rate for queries.
    pub query_hit_rate: f64,
}

/// Run the update-rate sweep behind Figure 9 (client query cache hit
/// rates for varying update rates and EBF refresh intervals).
pub fn fig9_update_rates(scale: Scale) -> Vec<Fig9Row> {
    let rates = [0.01, 0.05, 0.10, 0.15, 0.20];
    // (refresh seconds, query count factor) — three refresh lines at 1k
    // queries plus the 10k-query line at 1 s, as in the figure.
    let lines: [(u64, usize); 4] = [(1, 1_000), (10, 1_000), (100, 1_000), (1, 10_000)];
    let mut rows = Vec::new();
    for &(refresh_s, qc) in &lines {
        for &rate in &rates {
            let mut cfg = base_sim(scale, 120);
            cfg.workload.mix = OperationMix::with_update_rate(rate);
            let qc_scaled = match scale {
                Scale::Quick => qc / 10,
                Scale::Full => qc,
            };
            cfg.workload.queries_per_table = (qc_scaled / cfg.workload.tables).max(1);
            cfg.ebf_refresh_ms = refresh_s * 1_000;
            let report = Simulation::new(cfg).run();
            rows.push(Fig9Row {
                update_rate: rate,
                refresh_s,
                query_count: qc_scaled,
                query_hit_rate: report.query_client_hit_rate,
            });
        }
    }
    rows
}

// ------------------------------------------------------------------ fig 10

/// One point of Figure 10.
#[derive(Debug, Clone)]
pub struct Fig10Row {
    /// EBF refresh interval (s).
    pub refresh_s: u64,
    /// Number of clients.
    pub clients: usize,
    /// Stale query rate.
    pub query_staleness: f64,
    /// Stale read rate.
    pub read_staleness: f64,
}

/// Run the staleness-vs-refresh-interval sweep behind Figure 10 (10/100
/// clients with 6 browser-like connections each).
pub fn fig10_staleness(scale: Scale) -> Vec<Fig10Row> {
    let refreshes = [1u64, 5, 10, 20, 30, 50];
    let client_counts = match scale {
        Scale::Quick => vec![10usize, 50],
        Scale::Full => vec![10usize, 100],
    };
    let mut rows = Vec::new();
    for &clients in &client_counts {
        for &r in &refreshes {
            let mut cfg = base_sim(scale, clients * 6);
            cfg.clients = clients;
            cfg.connections_per_client = 6;
            cfg.ebf_refresh_ms = r * 1_000;
            cfg.measure_staleness = true;
            cfg.workload.mix = OperationMix::with_update_rate(0.05);
            cfg.duration_ms = (r * 1_000 * 4).max(scale.duration_ms());
            cfg.warmup_ms = cfg.duration_ms / 6;
            let report = Simulation::new(cfg).run();
            rows.push(Fig10Row {
                refresh_s: r,
                clients,
                query_staleness: report.query_staleness_rate(),
                read_staleness: report.record_staleness_rate(),
            });
        }
    }
    rows
}

// ------------------------------------------------------------------ fig 11

/// Run the TTL-estimation CDF comparison of Figure 11 (1% write rate,
/// 10 simulated minutes).
pub fn fig11_ttl_cdf(scale: Scale) -> TtlCdfReport {
    let queries = match scale {
        Scale::Quick => 300,
        Scale::Full => 1_000,
    };
    ttl_estimation_cdf(queries, 600_000, 1.0, 11)
}

// ------------------------------------------------------------------ tab 1

/// One row of Table 1.
#[derive(Debug, Clone)]
pub struct Tab1Row {
    /// Total documents.
    pub documents: usize,
    /// Total distinct queries.
    pub queries: usize,
    /// Mean query latency (ms).
    pub query_latency_ms: f64,
    /// Mean read latency (ms).
    pub read_latency_ms: f64,
}

/// Run the document-count sweep of Table 1 (Zipf 0.99). The paper's 10 M
/// row is reproduced at 1 M in quick mode (memory-scaled; see
/// EXPERIMENTS.md).
pub fn tab1_document_counts(scale: Scale) -> Vec<Tab1Row> {
    let sweeps: Vec<(usize, usize)> = match scale {
        // (total docs, total queries); tables of 10k docs each as in §6.2
        Scale::Quick => vec![(10_000, 100), (100_000, 1_000), (500_000, 5_000)],
        Scale::Full => vec![(10_000, 100), (100_000, 1_000), (1_000_000, 10_000)],
    };
    let mut rows = Vec::new();
    for (docs, queries) in sweeps {
        let tables = (docs / 10_000).max(1);
        let mut cfg = base_sim(scale, 120);
        cfg.workload.tables = tables;
        cfg.workload.docs_per_table = docs / tables;
        cfg.workload.queries_per_table = (queries / tables).max(1);
        cfg.workload.zipf_theta = 0.99;
        cfg.duration_ms = scale.duration_ms() * 2; // caches take longer to fill
        cfg.warmup_ms = scale.warmup_ms();
        let report = Simulation::new(cfg).run();
        rows.push(Tab1Row {
            documents: docs,
            queries,
            query_latency_ms: report.query_latency_ms.mean(),
            read_latency_ms: report.read_latency_ms.mean(),
        });
    }
    rows
}

// ------------------------------------------------------------------ fig 12

/// One point of Figure 12.
#[derive(Debug, Clone)]
pub struct Fig12Row {
    /// Matching nodes in the cluster.
    pub nodes: usize,
    /// Active queries at this load level.
    pub active_queries: usize,
    /// Sustained matching throughput (match evaluations/s, whole cluster).
    pub throughput_ops_per_sec: f64,
    /// 99th-percentile notification latency (ms).
    pub p99_latency_ms: f64,
}

/// Run the InvaliDB scalability sweep of Figure 12: for each cluster
/// size, raise the number of active queries until the latency bound is
/// crossed, reporting sustained throughput at each step.
pub fn fig12_invalidb_scaling(scale: Scale) -> Vec<Fig12Row> {
    let node_counts: Vec<usize> = match scale {
        Scale::Quick => vec![1, 2, 4],
        Scale::Full => vec![1, 2, 4, 8, 16],
    };
    let steps: Vec<usize> = match scale {
        Scale::Quick => vec![500, 1_000, 2_000, 4_000],
        Scale::Full => vec![500, 1_000, 2_000, 4_000, 8_000],
    };
    let duration_ms = match scale {
        Scale::Quick => 1_000,
        Scale::Full => 5_000,
    };
    let mut rows = Vec::new();
    for &nodes in &node_counts {
        for &qpn in &steps {
            let report = ThreadedPipeline::new(PipelineConfig {
                nodes,
                queries_per_node: qpn,
                inserts_per_sec: 1_000,
                duration_ms,
                tag_vocabulary: 1_000,
            })
            .run();
            rows.push(Fig12Row {
                nodes,
                active_queries: nodes * qpn,
                throughput_ops_per_sec: report.match_evaluations as f64 / report.wall.as_secs_f64(),
                p99_latency_ms: report.latency_us.percentile(0.99).unwrap_or(0) as f64 / 1_000.0,
            });
        }
    }
    rows
}

// ------------------------------------------------- fig 1 & production story

/// Run the Figure 1 page-load comparison.
pub fn fig1_page_load() -> Vec<PageLoadReport> {
    page_load(20, 6)
}

/// Run the §6.2 "Thinks" flash-sale scenario.
pub fn thinks_flash_sale(scale: Scale) -> FlashSaleReport {
    match scale {
        Scale::Quick => flash_sale(2_000, 10, 50),
        Scale::Full => flash_sale(50_000, 10, 500),
    }
}

// --------------------------------------------------------------- ablations

/// One row of the TTL-strategy ablation (§3's straw-man comparison).
#[derive(Debug, Clone)]
pub struct AblationTtlRow {
    /// Strategy label.
    pub strategy: &'static str,
    /// Client query hit rate.
    pub query_hit_rate: f64,
    /// Query staleness rate.
    pub query_staleness: f64,
}

/// Ablation: static TTLs (short/long straw-men) vs estimated TTLs, with
/// and without the EBF.
pub fn ablation_ttl_strategies(scale: Scale) -> Vec<AblationTtlRow> {
    let mk = |label: &'static str, min_ttl: u64, max_ttl: u64, use_ebf: bool| -> AblationTtlRow {
        let mut cfg = base_sim(scale, 60);
        cfg.workload.mix = OperationMix::with_update_rate(0.05);
        cfg.measure_staleness = true;
        cfg.server.estimator = EstimatorConfig {
            min_ttl_ms: min_ttl,
            max_ttl_ms: max_ttl,
            ..Default::default()
        };
        if !use_ebf {
            // Simulate "no EBF" by never refreshing it (staleness is then
            // bounded only by the TTL).
            cfg.ebf_refresh_ms = u64::MAX / 4;
        }
        let report = Simulation::new(cfg).run();
        AblationTtlRow {
            strategy: label,
            query_hit_rate: report.query_client_hit_rate,
            query_staleness: report.query_staleness_rate(),
        }
    };
    vec![
        mk("static 1s, no EBF", 1_000, 1_000, false),
        mk("static 60s, no EBF", 60_000, 60_000, false),
        mk("estimated, no EBF", 1_000, 600_000, false),
        mk("estimated + EBF", 1_000, 600_000, true),
    ]
}

/// One row of the representation ablation.
#[derive(Debug, Clone)]
pub struct AblationRepRow {
    /// Policy label.
    pub policy: &'static str,
    /// Mean query latency (ms).
    pub query_latency_ms: f64,
    /// Query invalidations the server performed.
    pub invalidations: u64,
}

/// Ablation: forced object-lists vs forced id-lists vs the cost model.
pub fn ablation_representation(scale: Scale) -> Vec<AblationRepRow> {
    let mk = |label: &'static str, rt_cost: f64, inval_cost: f64| -> AblationRepRow {
        let mut cfg = base_sim(scale, 60);
        cfg.workload.mix = OperationMix::with_update_rate(0.10);
        cfg.server.cost = quaestor_ttl::CostModel {
            invalidation_cost: inval_cost,
            round_trip_cost: rt_cost,
        };
        let sim = Simulation::new(cfg);
        let report = sim.run();
        AblationRepRow {
            policy: label,
            query_latency_ms: report.query_latency_ms.mean(),
            invalidations: report.origin_reads, // proxy: origin load
        }
    };
    vec![
        // Huge round-trip cost => object-lists always win.
        mk("always object-list", 1e9, 1.0),
        // Zero round-trip cost (HTTP/2 push) => id-lists always win.
        mk("always id-list", 0.0, 1e9),
        mk("cost model (default)", 3.0, 1.0),
    ]
}

/// One row of the quantile ablation (Eq. 1's `p`).
#[derive(Debug, Clone)]
pub struct AblationQuantileRow {
    /// Quantile p.
    pub quantile: f64,
    /// Client query hit rate.
    pub query_hit_rate: f64,
    /// Server-side query invalidations (EBF insertions).
    pub query_invalidations: u64,
}

/// Ablation: sweep the Poisson quantile `p` — "by varying the quantile,
/// higher/lower TTLs and thus cache hit rates can be traded off against
/// more or fewer invalidations".
pub fn ablation_quantile(scale: Scale) -> Vec<AblationQuantileRow> {
    [0.5, 0.7, 0.8, 0.9, 0.99]
        .iter()
        .map(|&q| {
            let mut cfg = base_sim(scale, 60);
            cfg.workload.mix = OperationMix::with_update_rate(0.05);
            cfg.server.estimator = EstimatorConfig {
                quantile: q,
                ..Default::default()
            };
            let report = Simulation::new(cfg).run();
            AblationQuantileRow {
                quantile: q,
                query_hit_rate: report.query_client_hit_rate,
                query_invalidations: report.origin_reads,
            }
        })
        .collect()
}

/// One row of the EBF-size ablation.
#[derive(Debug, Clone)]
pub struct AblationFprRow {
    /// Filter size in bytes.
    pub size_bytes: usize,
    /// Hash count k.
    pub k: u32,
    /// Measured false-positive rate at 20 000 entries.
    pub measured_fpr: f64,
    /// Analytic expectation.
    pub expected_fpr: f64,
}

/// Ablation: EBF size vs false-positive rate at the paper's 20 000-stale-
/// query load (§3.3 claims 6% at 14.6 KB).
pub fn ablation_fpr() -> Vec<AblationFprRow> {
    [4_096usize, 8_192, 14_600, 32_768, 65_536]
        .iter()
        .map(|&bytes| {
            let params = BloomParams {
                m_bits: bytes * 8,
                k: 4,
            };
            let mut filter = BloomFilter::new(params);
            for i in 0..20_000 {
                filter.insert(format!("stale-query-{i}").as_bytes());
            }
            let trials = 50_000;
            let fp = (0..trials)
                .filter(|i| filter.contains(format!("fresh-query-{i}").as_bytes()))
                .count();
            AblationFprRow {
                size_bytes: bytes,
                k: params.k,
                measured_fpr: fp as f64 / trials as f64,
                expected_fpr: params.expected_fpr(20_000),
            }
        })
        .collect()
}

// ------------------------------------------------- Service-layer experiments

/// One row of the batch-write amortization experiment.
#[derive(Debug, Clone)]
pub struct BatchWriteRow {
    /// "singleton" or "batched".
    pub mode: &'static str,
    /// Writes issued.
    pub ops: usize,
    /// Wire round trips charged by the latency model.
    pub round_trips: u64,
    /// Total simulated network time (ms).
    pub simulated_network_ms: u64,
    /// Wall-clock server-side execution time (µs) — shows the lock/lookup
    /// amortization of the batch fast path, independent of the network.
    pub wall_us: u128,
}

/// Write-path amortization: N singleton `Service::call` writes versus one
/// `Request::Batch` of the same N writes, through the simulated-WAN
/// middleware. Batching collapses N round trips into one and lets the
/// server resolve the target table once per run of writes.
pub fn batch_write_amortization(scale: Scale) -> Vec<BatchWriteRow> {
    use quaestor_common::ManualClock;
    use quaestor_core::{QuaestorServer, Request, ServiceExt};
    use quaestor_document::doc;
    use quaestor_sim::LatencyInjector;

    let ops = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 20_000,
    };
    let mut rows = Vec::new();
    for (mode, batched) in [("singleton", false), ("batched", true)] {
        let clock = ManualClock::new();
        let server = QuaestorServer::with_defaults(clock.clone());
        let svc = LatencyInjector::new(server, LatencyModel::default(), 7);
        let start = std::time::Instant::now();
        if batched {
            let reqs = (0..ops)
                .map(|i| Request::Insert {
                    table: "t".into(),
                    id: format!("r{i}"),
                    doc: doc! { "n" => i as i64 },
                })
                .collect();
            let results = svc.batch(reqs).expect("batch transport");
            assert!(results.iter().all(Result::is_ok));
        } else {
            for i in 0..ops {
                svc.insert("t", &format!("r{i}"), doc! { "n" => i as i64 })
                    .expect("insert");
            }
        }
        rows.push(BatchWriteRow {
            mode,
            ops,
            round_trips: svc.observed().count(),
            simulated_network_ms: svc.total_simulated_ms(),
            wall_us: start.elapsed().as_micros(),
        });
    }
    rows
}

/// One row of the shared-nothing scale-out experiment.
#[derive(Debug, Clone)]
pub struct ShardScaleRow {
    /// Cluster size.
    pub shards: usize,
    /// Total operations driven.
    pub ops: usize,
    /// Wall-clock time (ms) for the whole run.
    pub wall_ms: u128,
    /// Operations per wall-clock second.
    pub throughput_ops_s: f64,
}

/// Scale-out: the identical multi-threaded client workload against a
/// 1-node "cluster" and sharded clusters — only the `connect` target
/// changes, per the `Service` redesign. Tables are hash-partitioned, so
/// shards share nothing and writes parallelize across nodes.
pub fn sharded_scaleout(scale: Scale) -> Vec<ShardScaleRow> {
    use quaestor_common::SystemClock;
    use quaestor_core::{QuaestorServer, Service, ServiceExt, ShardRouter};
    use quaestor_document::doc;
    use quaestor_query::{Filter, Query};
    use std::sync::Arc;

    let (tables, ops_per_thread, threads) = match scale {
        Scale::Quick => (16, 400, 4),
        Scale::Full => (64, 2_000, 8),
    };
    let mut rows = Vec::new();
    for shards in [1usize, 2, 4] {
        let clock = SystemClock::shared();
        let nodes: Vec<Arc<dyn Service>> = (0..shards)
            .map(|_| QuaestorServer::with_defaults(clock.clone()) as Arc<dyn Service>)
            .collect();
        let cluster = ShardRouter::new(nodes);
        let start = std::time::Instant::now();
        std::thread::scope(|s| {
            for w in 0..threads {
                let cluster = cluster.clone();
                s.spawn(move || {
                    for i in 0..ops_per_thread {
                        let table = format!("t{}", (w * ops_per_thread + i) % tables);
                        let id = format!("w{w}-r{i}");
                        cluster
                            .insert(&table, &id, doc! { "w" => w as i64, "i" => i as i64 })
                            .expect("insert");
                        if i % 8 == 0 {
                            let q = Query::table(&table).filter(Filter::eq("w", w as i64));
                            cluster.query(&q).expect("query");
                        }
                    }
                });
            }
        });
        let wall = start.elapsed();
        let ops = threads * ops_per_thread;
        rows.push(ShardScaleRow {
            shards,
            ops,
            wall_ms: wall.as_millis(),
            throughput_ops_s: ops as f64 / wall.as_secs_f64(),
        });
    }
    rows
}

/// One row of the predicate-index experiment: indexed vs linear matching
/// of the same event stream against N registered queries.
#[derive(Debug, Clone)]
pub struct MatchIdxRow {
    /// Registered queries (90% indexable equality, 10% residual range).
    pub queries: usize,
    /// Events processed.
    pub events: usize,
    /// Matcher evaluations the indexed node performed.
    pub indexed_evaluations: u64,
    /// Candidate evaluations the index pruned.
    pub pruned: u64,
    /// Matcher evaluations the linear reference performed.
    pub linear_evaluations: u64,
    /// Wall-clock of the indexed run (µs).
    pub indexed_wall_us: u128,
    /// Wall-clock of the linear run (µs).
    pub linear_wall_us: u128,
    /// Notifications emitted (identical for both nodes by construction).
    pub notifications: u64,
}

impl MatchIdxRow {
    /// `linear_evaluations / indexed_evaluations` — the headline number.
    pub fn evaluation_reduction(&self) -> f64 {
        self.linear_evaluations as f64 / (self.indexed_evaluations.max(1)) as f64
    }
}

/// The `matchidx` experiment: drive identical write streams through a
/// predicate-indexed [`MatchingNode`] and the linear reference, at rising
/// query counts. The events are built before timing and both nodes see
/// them once untimed, so the wall columns time matching alone. Asserts
/// notification equivalence as it goes — a bench run that diverged would
/// be measuring a bug.
pub fn matchidx_comparison(scale: Scale) -> Vec<MatchIdxRow> {
    use quaestor_invalidb::MatchingNode;
    use quaestor_query::{Filter, Query, QueryKey};

    let (counts, events): (Vec<usize>, usize) = match scale {
        Scale::Quick => (vec![100, 1_000, 10_000], 1_000),
        Scale::Full => (vec![100, 1_000, 10_000, 50_000], 5_000),
    };
    let mut rows = Vec::new();
    for &queries in &counts {
        let nodes = || {
            let mut indexed = MatchingNode::new();
            let mut linear = MatchingNode::linear();
            for q in 0..queries {
                // 90% equality (indexable), 10% range (residual): a
                // realistic mix keeps the residual scan path honest.
                let query = if q % 10 == 9 {
                    Query::table("stream").filter(Filter::gt("score", (q % 100) as i64))
                } else {
                    Query::table("stream").filter(Filter::eq("tag", format!("v{q}")))
                };
                let key = QueryKey::of(&query);
                indexed.register(query.clone(), key.clone(), vec![]);
                linear.register(query, key, vec![]);
            }
            (indexed, linear)
        };
        // Built before any timing, so the walls time matching alone.
        let stream: Vec<quaestor_store::WriteEvent> = (0..events as u64)
            .map(|i| {
                let image = quaestor_document::doc! {
                    "_id" => format!("r{i}"),
                    "tag" => format!("v{}", (i as usize * 37) % queries),
                    "score" => (i % 100) as i64
                };
                quaestor_store::WriteEvent {
                    table: "stream".into(),
                    id: format!("r{i}").into(),
                    kind: quaestor_store::WriteKind::Insert,
                    image: std::sync::Arc::new(image),
                    version: 1,
                    seq: i,
                    at: quaestor_common::Timestamp::from_millis(i),
                }
            })
            .collect();
        // One untimed pass through a pair of its own warms the caches and
        // the allocator; the timed pass starts from the same state.
        let (mut indexed, mut linear) = nodes();
        for event in &stream {
            indexed.process(event);
            linear.process(event);
        }
        let (mut indexed, mut linear) = nodes();
        let mut notifications = 0u64;
        let start = std::time::Instant::now();
        for event in &stream {
            notifications += indexed.process(event).len() as u64;
        }
        let indexed_wall = start.elapsed();
        let start = std::time::Instant::now();
        let mut linear_notifications = 0u64;
        for event in &stream {
            linear_notifications += linear.process(event).len() as u64;
        }
        let linear_wall = start.elapsed();
        assert_eq!(
            notifications, linear_notifications,
            "indexed and linear matching diverged at {queries} queries"
        );
        rows.push(MatchIdxRow {
            queries,
            events,
            indexed_evaluations: indexed.evaluations(),
            pruned: indexed.evaluations_skipped(),
            linear_evaluations: linear.evaluations(),
            indexed_wall_us: indexed_wall.as_micros(),
            linear_wall_us: linear_wall.as_micros(),
            notifications,
        });
    }
    rows
}

/// Render `matchidx` rows as the machine-readable `BENCH_matching.json`
/// payload (hand-rolled: the vendored serde stand-in has no derive).
pub fn matchidx_json(rows: &[MatchIdxRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"matchidx\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"queries\": {}, \"events\": {}, \"indexed_evaluations\": {}, \
             \"pruned\": {}, \"linear_evaluations\": {}, \"indexed_wall_us\": {}, \
             \"linear_wall_us\": {}, \"notifications\": {}, \"evaluation_reduction\": {:.2}}}{}\n",
            r.queries,
            r.events,
            r.indexed_evaluations,
            r.pruned,
            r.linear_evaluations,
            r.indexed_wall_us,
            r.linear_wall_us,
            r.notifications,
            r.evaluation_reduction(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// -------------------------------------------------------------- query engine

/// One row of the `query` experiment: the same query through the planner
/// and through the forced reference scan.
#[derive(Debug, Clone)]
pub struct QueryEngineRow {
    /// Table size.
    pub docs: usize,
    /// Query shape label (`point`, `range`, `sorted-limit`, `topk`).
    pub shape: &'static str,
    /// Access path + sort strategy the planner chose.
    pub plan: String,
    /// Result cardinality.
    pub result_len: usize,
    /// Mean wall-clock per planner-served query (µs).
    pub planner_us: f64,
    /// Mean wall-clock per forced-scan query (µs).
    pub scan_us: f64,
}

impl QueryEngineRow {
    /// `scan_us / planner_us` — the headline number per row.
    pub fn speedup(&self) -> f64 {
        self.scan_us / self.planner_us.max(0.001)
    }
}

fn plan_label(plan: &quaestor_store::QueryPlan) -> String {
    use quaestor_store::{AccessPath, SortStrategy};
    let access = match &plan.access {
        AccessPath::HashProbe { .. } => "hash-probe",
        AccessPath::RangeScan { .. } => "range-scan",
        AccessPath::FullScan { .. } => "full-scan",
        AccessPath::Empty => "empty",
    };
    let sort = match &plan.sort {
        SortStrategy::IndexOrder { .. } => "index-order",
        SortStrategy::TopK { .. } => "top-k",
        SortStrategy::FullSort => "full-sort",
    };
    format!("{access}+{sort}")
}

/// Core of the `query` experiment over explicit table sizes: four query
/// shapes per size — an indexed point lookup, a selective indexed range,
/// a sorted `LIMIT` on the ordered-indexed path, and a sorted `LIMIT` on
/// an unindexed path (the bounded top-k case) — each timed through
/// `Table::query` (planner) and `Table::scan_query` (forced reference
/// scan). Asserts result equivalence as it goes: a bench run that
/// diverged would be measuring a bug.
pub fn query_engine_comparison_sizes(sizes: &[usize]) -> Vec<QueryEngineRow> {
    use quaestor_document::doc;
    use quaestor_query::{Filter, Order, Query};
    use quaestor_store::{Database, IndexKind};

    let mut rows = Vec::new();
    for &n in sizes {
        let db = Database::new();
        db.declare_index("bench", "category", IndexKind::Hash);
        db.declare_index("bench", "score", IndexKind::Ordered);
        let table = db.create_table("bench");
        // ~10 docs per category (the paper's average result size); a
        // unique monotone score; a decorrelated unindexed noise field.
        let domain = (n / 10).max(1);
        for i in 0..n {
            table
                .insert(
                    &format!("d{i:07}"),
                    doc! {
                        "category" => (i % domain) as i64,
                        "score" => i as i64,
                        "noise" => ((i as u64).wrapping_mul(2_654_435_761) % n as u64) as i64
                    },
                )
                .unwrap();
        }
        let mid = (n / 2) as i64;
        let shapes: Vec<(&'static str, Query)> = vec![
            (
                "point",
                Query::table("bench").filter(Filter::eq("category", (domain / 2) as i64)),
            ),
            (
                "range",
                Query::table("bench").filter(Filter::and([
                    Filter::gte("score", mid),
                    Filter::lt("score", mid + 10),
                ])),
            ),
            (
                "sorted-limit",
                Query::table("bench")
                    .sort_by("score", Order::Desc)
                    .limit(10),
            ),
            (
                "topk",
                Query::table("bench").sort_by("noise", Order::Asc).limit(10),
            ),
        ];
        for (shape, q) in shapes {
            let ids = |docs: &[std::sync::Arc<quaestor_document::Document>]| -> Vec<String> {
                docs.iter()
                    .map(|d| d["_id"].as_str().unwrap().to_owned())
                    .collect()
            };
            let planned = table.query(&q);
            let reference = table.scan_query(&q);
            assert_eq!(
                ids(&planned),
                ids(&reference),
                "planner diverged from the reference scan on {shape}@{n}"
            );
            let planner_iters = (1_000_000 / n).clamp(10, 1_000);
            let scan_iters = (300_000 / n).clamp(1, 300);
            let start = std::time::Instant::now();
            for _ in 0..planner_iters {
                std::hint::black_box(table.query(&q));
            }
            let planner_us = start.elapsed().as_micros() as f64 / planner_iters as f64;
            let start = std::time::Instant::now();
            for _ in 0..scan_iters {
                std::hint::black_box(table.scan_query(&q));
            }
            let scan_us = start.elapsed().as_micros() as f64 / scan_iters as f64;
            rows.push(QueryEngineRow {
                docs: n,
                shape,
                plan: plan_label(&table.explain(&q)),
                result_len: planned.len(),
                planner_us,
                scan_us,
            });
        }
    }
    rows
}

/// The `query` experiment at the standard scales: 1k → 100k quick,
/// 1k → 1M full (the Table-1 sweep sizes).
pub fn query_engine_comparison(scale: Scale) -> Vec<QueryEngineRow> {
    let sizes: &[usize] = match scale {
        Scale::Quick => &[1_000, 10_000, 100_000],
        Scale::Full => &[1_000, 10_000, 100_000, 1_000_000],
    };
    query_engine_comparison_sizes(sizes)
}

/// Render `query` rows as the machine-readable `BENCH_query.json` payload
/// (hand-rolled like `matchidx_json`; the vendored serde stand-in has no
/// derive).
pub fn query_engine_json(rows: &[QueryEngineRow]) -> String {
    let mut out = String::from("{\n  \"experiment\": \"query\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"docs\": {}, \"shape\": \"{}\", \"plan\": \"{}\", \"result_len\": {}, \
             \"planner_us\": {:.1}, \"scan_us\": {:.1}, \"speedup\": {:.1}}}{}\n",
            r.docs,
            r.shape,
            r.plan,
            r.result_len,
            r.planner_us,
            r.scan_us,
            r.speedup(),
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// ---------------------------------------------------------------- durability

/// One row of the append-throughput half of the `durability` experiment.
#[derive(Debug, Clone)]
pub struct DurabilityAppendRow {
    /// Human label of the fsync/group configuration.
    pub mode: &'static str,
    /// Group-commit batch size.
    pub group_commit: usize,
    /// Writes appended.
    pub writes: usize,
    /// Wall clock for the whole run (µs).
    pub wall_us: u128,
}

impl DurabilityAppendRow {
    /// Appends per second.
    pub fn throughput(&self) -> f64 {
        self.writes as f64 / (self.wall_us.max(1) as f64 / 1e6)
    }
}

/// One row of the recovery half: a kill-and-recover round trip.
#[derive(Debug, Clone)]
pub struct DurabilityRecoveryRow {
    /// Distinct records with acknowledged writes before the simulated
    /// crash, each audited against its last acknowledged state.
    pub acknowledged: usize,
    /// Audited records lost or wrong across the crash (must be 0: the
    /// sweep runs under fsync `Always`).
    pub lost: usize,
    /// Records in the recovered table.
    pub recovered_records: usize,
    /// Wall clock of `QuaestorServer::open` recovery (µs).
    pub recovery_wall_us: u128,
}

fn bench_temp_dir(tag: &str) -> std::path::PathBuf {
    quaestor_common::scratch_dir(&format!("bench-{tag}"))
}

/// Append-throughput sweep: the same insert workload against a durable
/// server under rising group-commit sizes (and the two extreme fsync
/// policies), measuring acknowledged writes per second.
pub fn durability_append(scale: Scale) -> Vec<DurabilityAppendRow> {
    use quaestor_common::ManualClock;
    use quaestor_core::QuaestorServer;
    use quaestor_durability::{DurabilityConfig, FsyncPolicy};

    let writes = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 20_000,
    };
    let configs: Vec<(&'static str, FsyncPolicy, usize)> = vec![
        ("fsync=always", FsyncPolicy::Always, 1),
        ("group=8", FsyncPolicy::EveryN(8), 8),
        ("group=64", FsyncPolicy::EveryN(64), 64),
        ("group=512", FsyncPolicy::EveryN(512), 512),
        ("os-default", FsyncPolicy::OsDefault, 64),
    ];
    let mut rows = Vec::new();
    for (mode, fsync, group_commit) in configs {
        let dir = bench_temp_dir("append");
        let durability = DurabilityConfig {
            fsync,
            group_commit,
            ..DurabilityConfig::default()
        };
        let server =
            QuaestorServer::open_with(&dir, Default::default(), durability, ManualClock::new())
                .expect("open durable server");
        let start = std::time::Instant::now();
        for i in 0..writes {
            server
                .insert(
                    "stream",
                    &format!("r{i}"),
                    quaestor_document::doc! { "n" => i as i64 },
                )
                .unwrap();
        }
        server.flush().unwrap();
        let wall_us = start.elapsed().as_micros();
        rows.push(DurabilityAppendRow {
            mode,
            group_commit,
            writes,
            wall_us,
        });
        drop(server);
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

/// Recovery-time sweep: kill-and-recover round trips at rising log sizes
/// under fsync `Always`, asserting zero acknowledged-write loss as it
/// goes (a recovery bench that lost data would be measuring a bug).
pub fn durability_recovery(scale: Scale) -> Vec<DurabilityRecoveryRow> {
    use quaestor_durability::FsyncPolicy;
    use quaestor_sim::{crash_recovery, CrashConfig};

    let sizes: Vec<usize> = match scale {
        Scale::Quick => vec![300, 1_000, 3_000],
        Scale::Full => vec![1_000, 10_000, 50_000],
    };
    let mut rows = Vec::new();
    for ops in sizes {
        let dir = bench_temp_dir("recovery");
        let report = crash_recovery(
            &dir,
            CrashConfig {
                writers: 4,
                kill_after_ops: ops,
                fsync: FsyncPolicy::Always,
                group_commit: 64,
            },
        );
        assert!(
            report.zero_loss(),
            "fsync=Always lost {} of {} acknowledged writes",
            report.lost,
            report.acknowledged
        );
        rows.push(DurabilityRecoveryRow {
            acknowledged: report.acknowledged,
            lost: report.lost,
            recovered_records: report.recovered_records,
            recovery_wall_us: report.recovery_wall_us,
        });
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

/// Render the two durability sweeps as the `BENCH_durability.json`
/// payload (hand-rolled like `matchidx_json`; the vendored serde stand-in
/// has no derive).
pub fn durability_json(
    append: &[DurabilityAppendRow],
    recovery: &[DurabilityRecoveryRow],
) -> String {
    let mut out = String::from("{\n  \"experiment\": \"durability\",\n  \"append\": [\n");
    for (i, r) in append.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"group_commit\": {}, \"writes\": {}, \"wall_us\": {}, \
             \"appends_per_sec\": {:.0}}}{}\n",
            r.mode,
            r.group_commit,
            r.writes,
            r.wall_us,
            r.throughput(),
            if i + 1 == append.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"recovery\": [\n");
    for (i, r) in recovery.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"acknowledged\": {}, \"lost\": {}, \"recovered_records\": {}, \
             \"recovery_wall_us\": {}}}{}\n",
            r.acknowledged,
            r.lost,
            r.recovered_records,
            r.recovery_wall_us,
            if i + 1 == recovery.len() { "" } else { "," }
        ));
    }
    out.push_str("  ]\n}\n");
    out
}

// -------------------------------------------------------------- replication

/// One row of the replication-lag experiment: a primary/replica pair
/// driven at a target write rate, sampling how far the replica's
/// *durable* LSN trails the primary's log tip.
#[derive(Debug, Clone)]
pub struct ReplicationRow {
    /// Target write rate (writes/s); `0` means unthrottled.
    pub target_rate: usize,
    /// Writes driven through the primary.
    pub writes: usize,
    /// Write rate actually achieved (writes/s) — sleep granularity makes
    /// the throttled rows land below their target.
    pub achieved_rate: f64,
    /// Mean sampled lag, in WAL frames.
    pub mean_lag_frames: f64,
    /// Worst sampled lag, in WAL frames.
    pub max_lag_frames: u64,
    /// Time from the last write until the replica's durable LSN reached
    /// the primary's (ms) — the drain time of the shipping pipeline.
    pub convergence_ms: f64,
    /// Whether the replica durably converged within the deadline (a
    /// `false` here is a bug, not a measurement).
    pub converged: bool,
}

/// Replication lag vs write rate: one primary + one replica per row,
/// asynchronous shipping (`ack_replicas = 0` — the semi-sync gate would
/// clamp lag to zero by construction and measure only the gate).
///
/// Lag is sampled every few writes as `primary.last_lsn -
/// replica.durable_lsn`: the number of acknowledged-but-not-yet-
/// replica-durable frames a primary crash at that instant would hand to
/// the failover audit. After the last write the convergence time is the
/// pipeline's drain latency.
pub fn replication_lag(scale: Scale) -> Vec<ReplicationRow> {
    use quaestor_document::doc;
    use quaestor_repl::{ReplConfig, ReplNode};
    use std::time::{Duration, Instant};

    let writes = match scale {
        Scale::Quick => 400,
        Scale::Full => 4_000,
    };
    let rates: &[usize] = &[200, 1_000, 0];
    let cfg = ReplConfig {
        reconnect_backoff: Duration::from_millis(20),
        ..ReplConfig::default()
    };
    let mut rows = Vec::new();
    for &rate in rates {
        let dir = bench_temp_dir("replication");
        let primary = ReplNode::open_primary(dir.join("primary"), cfg).expect("open primary");
        let replica = ReplNode::open_replica(dir.join("replica"), primary.repl_addr(), cfg)
            .expect("open replica");
        // Warm-up: prove the shipping session is live before the clock
        // starts, so the first connect doesn't count as lag.
        primary
            .server()
            .insert("t", "warm", doc! {})
            .expect("warm-up write");
        let deadline = Instant::now() + Duration::from_secs(10);
        while replica.status().durable_lsn < primary.status().durable_lsn {
            assert!(
                Instant::now() < deadline,
                "replica never caught up after connect"
            );
            std::thread::sleep(Duration::from_millis(1));
        }

        let pause = (rate > 0).then(|| Duration::from_secs_f64(1.0 / rate as f64));
        let mut lags: Vec<u64> = Vec::new();
        let start = Instant::now();
        for i in 0..writes {
            primary
                .server()
                .insert("t", &format!("r{i}"), doc! { "n" => i as i64 })
                .expect("insert");
            if i % 8 == 0 {
                lags.push(
                    primary
                        .status()
                        .last_lsn
                        .saturating_sub(replica.status().durable_lsn),
                );
            }
            if let Some(p) = pause {
                std::thread::sleep(p);
            }
        }
        let elapsed = start.elapsed();

        let target = primary.status().durable_lsn;
        let conv_start = Instant::now();
        let conv_deadline = conv_start + Duration::from_secs(15);
        let mut converged = true;
        while replica.status().durable_lsn < target {
            if Instant::now() >= conv_deadline {
                converged = false;
                break;
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        let convergence_ms = conv_start.elapsed().as_secs_f64() * 1e3;

        rows.push(ReplicationRow {
            target_rate: rate,
            writes,
            achieved_rate: writes as f64 / elapsed.as_secs_f64().max(1e-9),
            mean_lag_frames: if lags.is_empty() {
                0.0
            } else {
                lags.iter().sum::<u64>() as f64 / lags.len() as f64
            },
            max_lag_frames: lags.iter().copied().max().unwrap_or(0),
            convergence_ms,
            converged,
        });
        replica.kill();
        primary.kill();
        drop(replica);
        drop(primary);
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

/// Client-visible latency of sequential writes through a primary
/// `ReplNode` at the default `ReplConfig`.
#[derive(Debug, Clone)]
pub struct CommitLatencyRow {
    /// `"semi-sync"` (`ack_replicas = 1`, one replica) or `"local"`.
    pub mode: &'static str,
    /// Both nodes' fsync policy.
    pub fsync: quaestor_durability::FsyncPolicy,
    /// Writes attempted.
    pub writes: usize,
    /// Writes acknowledged: a row stops at the first write the semi-sync
    /// gate times out (`ack_timeout`).
    pub acked: usize,
    /// Median latency of the acknowledged writes (µs).
    pub p50_us: u64,
    /// 99th-percentile latency of the acknowledged writes (µs).
    pub p99_us: u64,
}

/// Commit latency: semi-sync writes under `FsyncPolicy::Always` and
/// `OsDefault`, beside local-only `Always` writes on the same machine.
pub fn replication_commit_latency(scale: Scale) -> Vec<CommitLatencyRow> {
    use quaestor_core::ServiceExt;
    use quaestor_document::doc;
    use quaestor_durability::{DurabilityConfig, FsyncPolicy};
    use quaestor_repl::{ReplConfig, ReplNode};
    use std::time::Instant;

    let writes = match scale {
        Scale::Quick => 200,
        Scale::Full => 2_000,
    };
    let cases = [
        ("semi-sync", FsyncPolicy::Always),
        ("semi-sync", FsyncPolicy::OsDefault),
        ("local", FsyncPolicy::Always),
    ];
    let mut rows = Vec::new();
    for (mode, fsync) in cases {
        let dir = bench_temp_dir("commit-latency");
        let node = ReplConfig {
            durability: DurabilityConfig {
                fsync,
                ..DurabilityConfig::default()
            },
            ..ReplConfig::default()
        };
        let semi_sync = mode == "semi-sync";
        let primary = ReplNode::open_primary(
            dir.join("primary"),
            ReplConfig {
                ack_replicas: usize::from(semi_sync),
                ..node
            },
        )
        .expect("open primary");
        let replica = semi_sync.then(|| {
            ReplNode::open_replica(dir.join("replica"), primary.repl_addr(), node)
                .expect("open replica")
        });
        // Warm-up: the table exists and the session is live before the
        // clock starts.
        let mut latency_us = Histogram::new();
        if primary.insert("t", "warm", doc! {}).is_ok() {
            for i in 0..writes {
                let started = Instant::now();
                let doc = doc! { "n" => i as i64 };
                if primary.insert("t", &format!("r{i}"), doc).is_err() {
                    break;
                }
                latency_us.record(started.elapsed().as_micros() as u64);
            }
        }
        rows.push(CommitLatencyRow {
            mode,
            fsync,
            writes,
            acked: latency_us.count() as usize,
            p50_us: latency_us.percentile(0.50).unwrap_or(0),
            p99_us: latency_us.percentile(0.99).unwrap_or(0),
        });
        replica.inspect(|r| r.kill());
        primary.kill();
        let _ = std::fs::remove_dir_all(&dir);
    }
    rows
}

/// A fresh replica catching up a loaded primary over the replication
/// port.
#[derive(Debug, Clone)]
pub struct CatchUpRow {
    /// Documents on the primary.
    pub docs: usize,
    /// WAL frames the replica caught up (the primary's whole log).
    pub frames: u64,
    /// From opening the replica until the primary holds its ack of the
    /// primary's last LSN (ms).
    pub wall_ms: f64,
    /// `ReplFrames` batches the replica received (`repl.batches`).
    pub batches: u64,
    /// The replica's segment fsyncs (`durability.fsyncs`).
    pub fsyncs: u64,
}

impl CatchUpRow {
    /// Frames caught up per second of wall time.
    pub fn frames_per_sec(&self) -> f64 {
        self.frames as f64 / (self.wall_ms / 1e3).max(1e-9)
    }
}

/// Catch-up: load a primary with workload documents (fsynced in large
/// groups, untimed), open it as a `ReplNode` primary at the default
/// `ReplConfig`, then time an empty replica from open until it has the
/// whole log, and read its batch and fsync counters through
/// `Request::Metrics`.
pub fn replication_catch_up(scale: Scale) -> CatchUpRow {
    use quaestor_core::{QuaestorServer, ServerConfig, ServiceExt};
    use quaestor_durability::{DurabilityConfig, FsyncPolicy};
    use quaestor_repl::{ReplConfig, ReplNode};
    use rand::{rngs::StdRng, SeedableRng};
    use std::time::{Duration, Instant};

    let docs = match scale {
        Scale::Quick => 2_000,
        Scale::Full => 20_000,
    };
    let dir = bench_temp_dir("catch-up");
    {
        let loader = QuaestorServer::open_with(
            dir.join("primary"),
            ServerConfig::default(),
            DurabilityConfig {
                fsync: FsyncPolicy::EveryN(4_096),
                group_commit: 4_096,
                ..DurabilityConfig::default()
            },
            quaestor_common::SystemClock::shared(),
        )
        .expect("open loader");
        let config = WorkloadConfig::default();
        let mut rng = StdRng::seed_from_u64(7);
        let table = loader.database().create_table("posts");
        for i in 0..docs {
            let doc = config.make_doc(i, &mut rng);
            table.insert(&WorkloadConfig::doc_id(i), doc).expect("load");
        }
        loader.flush().expect("flush load");
    }
    let cfg = ReplConfig::default();
    let primary = ReplNode::open_primary(dir.join("primary"), cfg).expect("open primary");
    let frames = primary.status().last_lsn;
    let started = Instant::now();
    let replica = ReplNode::open_replica(dir.join("replica"), primary.repl_addr(), cfg)
        .expect("open replica");
    // Caught up once the primary holds the replica's ack of its last
    // LSN: the replica sends that ack after it counted the batch.
    let deadline = started + Duration::from_secs(60);
    while primary.max_session_ack() < frames {
        assert!(Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(Duration::from_micros(200));
    }
    let wall_ms = started.elapsed().as_secs_f64() * 1e3;
    let metrics = replica.node_metrics().expect("scrape replica");
    let row = CatchUpRow {
        docs,
        frames,
        wall_ms,
        batches: metrics.counter("repl.batches").unwrap_or(0),
        fsyncs: metrics.counter("durability.fsyncs").unwrap_or(0),
    };
    replica.kill();
    primary.kill();
    let _ = std::fs::remove_dir_all(&dir);
    row
}

/// Render replication rows as the machine-readable
/// `BENCH_replication.json` payload (hand-rolled like `matchidx_json`).
pub fn replication_json(
    rows: &[ReplicationRow],
    commit: &[CommitLatencyRow],
    catch_up: &CatchUpRow,
) -> String {
    let mut out = String::from("{\n  \"experiment\": \"replication\",\n  \"rows\": [\n");
    for (i, r) in rows.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"target_rate\": {}, \"writes\": {}, \"achieved_rate\": {:.0}, \
             \"mean_lag_frames\": {:.2}, \"max_lag_frames\": {}, \
             \"convergence_ms\": {:.1}, \"converged\": {}}}{}\n",
            r.target_rate,
            r.writes,
            r.achieved_rate,
            r.mean_lag_frames,
            r.max_lag_frames,
            r.convergence_ms,
            r.converged,
            if i + 1 == rows.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n  \"commit_latency\": [\n");
    for (i, r) in commit.iter().enumerate() {
        out.push_str(&format!(
            "    {{\"mode\": \"{}\", \"fsync\": \"{:?}\", \"writes\": {}, \"acked\": {}, \
             \"p50_us\": {}, \"p99_us\": {}}}{}\n",
            r.mode,
            r.fsync,
            r.writes,
            r.acked,
            r.p50_us,
            r.p99_us,
            if i + 1 == commit.len() { "" } else { "," }
        ));
    }
    out.push_str(&format!(
        "  ],\n  \"catch_up\": [\n    {{\"docs\": {}, \"frames\": {}, \"wall_ms\": {:.1}, \
         \"frames_per_s\": {:.0}, \"batches\": {}, \"fsyncs\": {}}}\n  ]\n}}\n",
        catch_up.docs,
        catch_up.frames,
        catch_up.wall_ms,
        catch_up.frames_per_sec(),
        catch_up.batches,
        catch_up.fsyncs
    ));
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn durability_json_renders_both_sweeps() {
        let append = vec![DurabilityAppendRow {
            mode: "group=64",
            group_commit: 64,
            writes: 1_000,
            wall_us: 500_000,
        }];
        assert_eq!(append[0].throughput(), 2_000.0);
        let recovery = vec![DurabilityRecoveryRow {
            acknowledged: 1_000,
            lost: 0,
            recovered_records: 400,
            recovery_wall_us: 12_345,
        }];
        let json = durability_json(&append, &recovery);
        assert!(json.contains("\"appends_per_sec\": 2000"));
        assert!(json.contains("\"recovery_wall_us\": 12345"));
        assert!(json.contains("\"experiment\": \"durability\""));
    }

    #[test]
    fn replication_json_renders_rows() {
        let rows = vec![ReplicationRow {
            target_rate: 0,
            writes: 400,
            achieved_rate: 12_345.6,
            mean_lag_frames: 3.25,
            max_lag_frames: 17,
            convergence_ms: 8.05,
            converged: true,
        }];
        let commit = vec![CommitLatencyRow {
            mode: "semi-sync",
            fsync: quaestor_durability::FsyncPolicy::OsDefault,
            writes: 200,
            acked: 200,
            p50_us: 412,
            p99_us: 1_250,
        }];
        let catch_up = CatchUpRow {
            docs: 2_000,
            frames: 2_001,
            wall_ms: 50.0,
            batches: 8,
            fsyncs: 8,
        };
        let json = replication_json(&rows, &commit, &catch_up);
        assert!(json.contains("\"experiment\": \"replication\""));
        assert!(json.contains("\"achieved_rate\": 12346"));
        assert!(json.contains("\"mean_lag_frames\": 3.25"));
        assert!(json.contains("\"converged\": true"));
        assert!(json.contains(
            "{\"mode\": \"semi-sync\", \"fsync\": \"OsDefault\", \"writes\": 200, \
             \"acked\": 200, \"p50_us\": 412, \"p99_us\": 1250}"
        ));
        assert!(json.contains(
            "{\"docs\": 2000, \"frames\": 2001, \"wall_ms\": 50.0, \"frames_per_s\": 40020, \
             \"batches\": 8, \"fsyncs\": 8}"
        ));
        let parsed: serde_json::Value = serde_json::from_str(&json).expect("valid json");
        assert!(parsed.as_object().unwrap().contains_key("catch_up"));
    }

    #[test]
    fn query_engine_rows_use_the_expected_plans() {
        // Small size: the test asserts plan shapes and equivalence (the
        // experiment asserts result equality internally); wall-clock
        // claims live in the release-mode reproduce run.
        let rows = query_engine_comparison_sizes(&[2_000]);
        let by = |shape: &str| rows.iter().find(|r| r.shape == shape).unwrap();
        assert_eq!(by("point").plan, "hash-probe+full-sort");
        assert_eq!(by("range").plan, "range-scan+full-sort");
        assert_eq!(by("sorted-limit").plan, "full-scan+index-order");
        assert_eq!(by("topk").plan, "full-scan+top-k");
        assert_eq!(by("point").result_len, 10);
        assert_eq!(by("range").result_len, 10);
        assert_eq!(by("sorted-limit").result_len, 10);
        let json = query_engine_json(&rows);
        assert!(json.contains("\"shape\": \"point\""));
        assert!(json.contains("\"speedup\""));
    }

    #[test]
    fn matchidx_prunes_an_order_of_magnitude() {
        let rows = matchidx_comparison(Scale::Quick);
        let big = rows.iter().find(|r| r.queries == 10_000).unwrap();
        assert!(
            big.evaluation_reduction() >= 10.0,
            "expected ≥10× fewer evaluations at 10k queries, got {:.1}×",
            big.evaluation_reduction()
        );
        assert_eq!(
            big.indexed_evaluations + big.pruned,
            big.linear_evaluations,
            "pruned + evaluated must equal the linear scan"
        );
        let json = matchidx_json(&rows);
        assert!(json.contains("\"queries\": 10000"));
    }

    #[test]
    fn fig8_ordering_holds_at_small_scale() {
        // One small connection point, all four systems: Quaestor must beat
        // everything; uncached must lose to everything.
        let mut rows = Vec::new();
        for variant in SystemVariant::all() {
            let mut cfg = base_sim(Scale::Quick, 40);
            cfg.variant = variant;
            // Long enough for the Zipf head to warm the caches.
            cfg.duration_ms = 15_000;
            cfg.warmup_ms = 5_000;
            let report = Simulation::new(cfg).run();
            rows.push((variant.label(), report.throughput_ops_per_sec));
        }
        let get = |label: &str| rows.iter().find(|(l, _)| *l == label).unwrap().1;
        assert!(
            get("Quaestor") > get("Uncached") * 3.0,
            "Quaestor {} vs uncached {}",
            get("Quaestor"),
            get("Uncached")
        );
        assert!(get("CDN only") > get("Uncached"));
        assert!(get("EBF only") > get("Uncached"));
    }

    #[test]
    fn fpr_ablation_matches_paper_claim() {
        let rows = ablation_fpr();
        let paper = rows.iter().find(|r| r.size_bytes == 14_600).unwrap();
        assert!(
            (paper.measured_fpr - 0.06).abs() < 0.02,
            "14.6KB @ 20k entries should be ~6%, got {}",
            paper.measured_fpr
        );
        // Monotone: bigger filters, fewer false positives.
        for w in rows.windows(2) {
            assert!(w[0].measured_fpr >= w[1].measured_fpr - 0.005);
        }
    }

    #[test]
    fn fig11_cdf_report_is_populated() {
        let r = fig11_ttl_cdf(Scale::Quick);
        assert!(r.estimated.count() > 50);
        assert!(r.true_ttls.count() > 50);
    }

    #[test]
    fn batching_collapses_round_trips() {
        let rows = batch_write_amortization(Scale::Quick);
        let by = |m: &str| rows.iter().find(|r| r.mode == m).unwrap().clone();
        let single = by("singleton");
        let batched = by("batched");
        assert_eq!(single.round_trips, single.ops as u64);
        assert_eq!(batched.round_trips, 1, "one wire round trip for the batch");
        assert!(
            batched.simulated_network_ms * 100 < single.simulated_network_ms,
            "network time must collapse by ~N: {} vs {}",
            batched.simulated_network_ms,
            single.simulated_network_ms
        );
    }

    #[test]
    fn sharded_clusters_hold_the_same_data() {
        // Correctness of scale-out (perf is environment-dependent; the
        // reproduce binary reports it): every row completes its ops.
        let rows = sharded_scaleout(Scale::Quick);
        assert_eq!(rows.len(), 3);
        assert!(rows.iter().all(|r| r.ops > 0 && r.throughput_ops_s > 0.0));
    }
}
