//! Networked cluster: four origin shards, each behind its own TCP
//! server, fronted by a `ShardRouter` of `RemoteService`s — the
//! paper's scale-out story running over real sockets.
//!
//! ```sh
//! cargo run --release --example networked_cluster
//! ```
//!
//! Topology (everything in one process, but every `Service` call to a
//! shard crosses a real loopback TCP connection):
//!
//! ```text
//! QuaestorClient → MetricsLayer → ShardRouter ─┬─ MetricsLayer → RemoteService ── tcp ── NetServer ── shard 0
//!                                              ├─ MetricsLayer → RemoteService ── tcp ── NetServer ── shard 1
//!                                              ├─ MetricsLayer → RemoteService ── tcp ── NetServer ── shard 2
//!                                              └─ MetricsLayer → RemoteService ── tcp ── NetServer ── shard 3
//! ```
//!
//! The per-shard `MetricsLayer` times every call on its pool, so its
//! `service.latency.*` histograms are the wire round trips.
//!
//! The client code is identical to the in-process examples — only the
//! connect target changed. That is the entire point of the `Service`
//! seam.

use std::sync::Arc;

use quaestor::prelude::*;

const SHARDS: usize = 4;

fn main() {
    let clock = SystemClock::shared();

    // ---- server side: one origin + NetServer per shard ------------------
    let origins: Vec<Arc<QuaestorServer>> = (0..SHARDS)
        .map(|_| QuaestorServer::with_defaults(clock.clone()))
        .collect();
    let servers: Vec<quaestor::net::NetServer> = origins
        .iter()
        .map(|origin| {
            quaestor::net::NetServer::bind("127.0.0.1:0", origin.clone()).expect("bind shard")
        })
        .collect();
    for (i, s) in servers.iter().enumerate() {
        println!("shard {i} listening on {}", s.local_addr());
    }

    // ---- client side: remote pool per shard, router, metrics, SDK -------
    let wires: Vec<Arc<MetricsLayer>> = servers
        .iter()
        .map(|s| {
            let remote = RemoteService::connect(
                s.local_addr(),
                RemoteServiceConfig {
                    pool_size: 2,
                    ..Default::default()
                },
            )
            .expect("connect shard");
            MetricsLayer::new(remote)
        })
        .collect();
    let router = ShardRouter::new(
        wires
            .iter()
            .map(|w| w.clone() as Arc<dyn Service>)
            .collect(),
    );
    let metrics = MetricsLayer::new(router.clone());
    let client = QuaestorClient::connect_service(
        metrics.clone(),
        &[],
        ClientConfig::default(),
        clock.clone(),
    );

    // ---- workload: writes, reads, queries, a cross-shard batch ----------
    for i in 0..40 {
        let table = format!("t{}", i % 8); // 8 tables spread over 4 shards
        client
            .insert(&table, &format!("r{i}"), doc! { "i" => i as i64 })
            .expect("insert");
    }
    for i in 0..40 {
        let table = format!("t{}", i % 8);
        let rec = client.read_record(&table, &format!("r{i}")).expect("read");
        assert_eq!(rec.doc["i"].as_i64(), Some(i as i64));
    }
    let q = Query::table("t0").filter(Filter::gte("i", 0));
    let qr = client.query(&q).expect("query");
    println!("query over the wire: {} records from t0", qr.docs.len());
    let results = client
        .batch(
            (0..16)
                .map(|i| Request::Insert {
                    table: format!("t{}", i % 8),
                    id: format!("b{i}"),
                    doc: doc! { "batch" => true },
                })
                .collect(),
        )
        .expect("batch");
    assert!(results.iter().all(Result::is_ok));
    println!("cross-shard batch: {} ops, all ok", results.len());

    // ---- the paper's invalidation loop, across the cluster --------------
    let (flat, _at) = metrics.fetch_ebf().expect("ebf union");
    println!(
        "flat EBF union across {SHARDS} shards: {} bits set",
        flat.count_ones()
    );

    // ---- metrics --------------------------------------------------------
    let m = metrics.metrics();
    println!("\n-- MetricsLayer (client side of the wire) --");
    println!(
        "calls: {} (writes {}, reads {}, queries {}, batches {})",
        m.total_calls(),
        m.writes.get(),
        m.record_reads.get(),
        m.queries.get(),
        m.batches.get(),
    );
    let snap = m.registry().snapshot();
    for kind in ["insert", "get_record", "query", "batch"] {
        if let Some(h) = snap
            .histogram(&format!("service.latency.{kind}"))
            .filter(|h| h.count > 0)
        {
            println!(
                "{kind:>12}: p50 {} us, p95 {} us, p99 {} us",
                h.p50, h.p95, h.p99
            );
        }
    }
    println!("\n-- per-shard transport --");
    for (i, (wire, server)) in wires.iter().zip(&servers).enumerate() {
        let snap = wire.metrics().registry().snapshot();
        let inserts = snap
            .histogram("service.latency.insert")
            .expect("registered with the layer");
        println!(
            "shard {i}: {} requests over {} connections; insert p50 {} us, p99 {} us",
            server.requests_served(),
            server.connections_accepted(),
            inserts.p50,
            inserts.p99,
        );
    }

    // ---- shutdown -------------------------------------------------------
    for s in &servers {
        s.shutdown();
    }
    println!("\nall shards shut down cleanly");
}
