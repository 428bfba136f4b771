//! Integration tests of the `Service` protocol layer: typed round trips,
//! batch semantics, shard routing, middleware composition — and the
//! redesign's core promise: *the same client code runs unmodified against
//! one node and against a sharded cluster*.

use quaestor::prelude::*;
use std::sync::Arc;

/// Build a service topology: `shards == 1` is a single origin node,
/// `shards > 1` a shared-nothing cluster behind a `ShardRouter`.
fn topology(shards: usize, clock: Arc<ManualClock>) -> Arc<dyn Service> {
    let nodes: Vec<Arc<dyn Service>> = (0..shards)
        .map(|_| QuaestorServer::with_defaults(clock.clone()) as Arc<dyn Service>)
        .collect();
    if shards == 1 {
        nodes.into_iter().next().unwrap()
    } else {
        ShardRouter::new(nodes) as Arc<dyn Service>
    }
}

/// The workload used by the one-node-vs-cluster tests. Takes only a
/// client — it cannot know (and must not care) what is behind it.
fn drive_unmodified_client(client: &QuaestorClient, clock: &ManualClock) -> Vec<i64> {
    for (table, id, n) in [("posts", "p1", 1), ("users", "u1", 2), ("orders", "o1", 3)] {
        client.insert(table, id, doc! { "n" => n }).unwrap();
    }
    // Cached query + record reads, an EBF-driven revalidation cycle.
    let q = Query::table("posts").filter(Filter::eq("n", 1));
    assert_eq!(client.query(&q).unwrap().docs.len(), 1);
    assert_eq!(client.query(&q).unwrap().served_by, ServedBy::Layer(0));
    clock.advance(10);
    client
        .update("posts", "p1", &Update::new().set("n", 10))
        .unwrap();
    clock.advance(2_000);
    let fresh = client.query(&Query::table("posts").filter(Filter::eq("n", 10)));
    assert_eq!(fresh.unwrap().docs.len(), 1);
    // A cross-table batch.
    let results = client
        .batch(vec![
            Request::Update {
                table: "users".into(),
                id: "u1".into(),
                update: Update::new().inc("n", 1.0),
            },
            Request::Delete {
                table: "orders".into(),
                id: "o1".into(),
            },
            Request::GetRecord {
                table: "users".into(),
                id: "u1".into(),
            },
        ])
        .unwrap();
    assert!(results.iter().all(Result::is_ok));
    // Read-your-writes across the batch.
    ["posts", "users"]
        .iter()
        .map(|t| {
            let id = if *t == "posts" { "p1" } else { "u1" };
            client.read_record(t, id).unwrap().doc["n"]
                .as_i64()
                .unwrap()
        })
        .collect()
}

#[test]
fn same_client_code_against_one_node_and_cluster() {
    let mut observed = Vec::new();
    for shards in [1usize, 2, 4] {
        let clock = ManualClock::new();
        let service = topology(shards, clock.clone());
        let client =
            QuaestorClient::connect_service(service, &[], ClientConfig::default(), clock.clone());
        observed.push(drive_unmodified_client(&client, &clock));
    }
    assert_eq!(
        observed[0], observed[1],
        "1 node and 2 shards must be observationally identical"
    );
    assert_eq!(observed[0], observed[2]);
    assert_eq!(observed[0], vec![10, 3]);
}

/// Like [`topology`], but every node sits behind its own real TCP server
/// and is reached through a `RemoteService` pool. The returned servers
/// keep the sockets alive for the test's duration.
fn networked_topology(
    shards: usize,
    clock: Arc<ManualClock>,
) -> (Arc<dyn Service>, Vec<quaestor::net::NetServer>) {
    let servers: Vec<quaestor::net::NetServer> = (0..shards)
        .map(|_| {
            quaestor::net::NetServer::bind(
                "127.0.0.1:0",
                QuaestorServer::with_defaults(clock.clone()),
            )
            .expect("bind loopback")
        })
        .collect();
    let remotes: Vec<Arc<dyn Service>> = servers
        .iter()
        .map(|s| {
            RemoteService::connect(s.local_addr(), RemoteServiceConfig::default())
                .expect("connect loopback") as Arc<dyn Service>
        })
        .collect();
    let service = if shards == 1 {
        remotes.into_iter().next().unwrap()
    } else {
        ShardRouter::new(remotes) as Arc<dyn Service>
    };
    (service, servers)
}

#[test]
fn same_client_code_against_remote_node_and_remote_cluster() {
    // The conformance promise, extended across the wire: the *identical*
    // workload (`drive_unmodified_client`, byte-for-byte the same client
    // code as the in-process test above) runs against a remote single
    // node and a remote 4-shard cluster and observes identical results.
    let mut observed = Vec::new();
    for shards in [1usize, 4] {
        let clock = ManualClock::new();
        let (service, servers) = networked_topology(shards, clock.clone());
        let client =
            QuaestorClient::connect_service(service, &[], ClientConfig::default(), clock.clone());
        observed.push(drive_unmodified_client(&client, &clock));
        for s in &servers {
            assert!(s.requests_served() > 0, "traffic actually crossed the wire");
            s.shutdown();
        }
    }
    assert_eq!(
        observed[0],
        vec![10, 3],
        "remote topologies must be observationally identical to local ones"
    );
    assert_eq!(observed[0], observed[1]);
}

#[test]
fn metrics_layer_over_remote_service_reports_real_network_latency() {
    let clock = ManualClock::new();
    let (service, servers) = networked_topology(1, clock.clone());
    let metrics = MetricsLayer::new(service);
    let svc: &dyn Service = &*metrics;
    for i in 0..20 {
        svc.insert("t", &format!("r{i}"), doc! { "i" => i })
            .unwrap();
    }
    svc.get_record("t", "r0").unwrap();
    let snap = metrics.metrics().registry().snapshot();
    let inserts = snap.histogram("service.latency.insert").unwrap();
    assert_eq!(inserts.count, 20);
    assert!(
        inserts.p50 > 0,
        "a TCP round trip takes at least a microsecond"
    );
    assert!(inserts.p50 <= inserts.p99);
    assert_eq!(
        snap.histogram("service.latency.get_record").unwrap().count,
        1
    );
    for s in &servers {
        s.shutdown();
    }
}

#[test]
fn cluster_spreads_tables_and_serves_through_cdn() {
    let clock = ManualClock::new();
    let servers: Vec<Arc<QuaestorServer>> = (0..2)
        .map(|_| QuaestorServer::with_defaults(clock.clone()))
        .collect();
    // A CDN in front of the *cluster*: both shards purge into it.
    let cdn = Arc::new(InvalidationCache::new("cdn", 10_000));
    for s in &servers {
        s.register_cdn(cdn.clone());
    }
    let router = ShardRouter::new(
        servers
            .iter()
            .map(|s| s.clone() as Arc<dyn Service>)
            .collect(),
    );
    let writer = QuaestorClient::connect_service(
        router.clone(),
        std::slice::from_ref(&cdn),
        ClientConfig::default(),
        clock.clone(),
    );
    let a = QuaestorClient::connect_service(
        router.clone(),
        std::slice::from_ref(&cdn),
        ClientConfig::default(),
        clock.clone(),
    );
    let b = QuaestorClient::connect_service(
        router.clone(),
        std::slice::from_ref(&cdn),
        ClientConfig::default(),
        clock.clone(),
    );
    for i in 0..16 {
        writer
            .insert(&format!("t{i}"), "x", doc! { "i" => i })
            .unwrap();
    }
    // Tables actually spread across the two nodes.
    let spread = (0..16)
        .map(|i| router.shard_for(&format!("t{i}")))
        .collect::<std::collections::HashSet<_>>();
    assert_eq!(spread.len(), 2, "tables must land on both shards");
    // Client A's reads warm the shared CDN for client B.
    a.read_record("t3", "x").unwrap();
    let r = b.read_record("t3", "x").unwrap();
    assert_eq!(r.served_by, ServedBy::Layer(1), "CDN hit behind the router");
    // A write through the router purges the CDN copy on the owning shard.
    clock.advance(10);
    writer
        .update("t3", "x", &Update::new().inc("i", 100.0))
        .unwrap();
    clock.advance(2_000);
    let fresh = b.read_record("t3", "x").unwrap();
    assert_eq!(fresh.doc["i"], Value::Int(103));
}

#[test]
fn batch_is_ordered_and_reports_per_op() {
    let clock = ManualClock::new();
    let service = topology(2, clock.clone());
    // Ordering within one table: insert → update → read → delete → read.
    let results = service
        .batch(vec![
            Request::Insert {
                table: "t".into(),
                id: "a".into(),
                doc: doc! { "n" => 1 },
            },
            Request::Update {
                table: "t".into(),
                id: "a".into(),
                update: Update::new().inc("n", 1.0),
            },
            Request::GetRecord {
                table: "t".into(),
                id: "a".into(),
            },
            Request::Delete {
                table: "t".into(),
                id: "a".into(),
            },
            Request::GetRecord {
                table: "t".into(),
                id: "a".into(),
            },
        ])
        .unwrap();
    assert_eq!(results.len(), 5);
    assert!(matches!(
        results[0],
        Ok(Response::Written { version: 1, .. })
    ));
    assert!(matches!(
        results[1],
        Ok(Response::Written { version: 2, .. })
    ));
    match &results[2] {
        Ok(Response::Record(r)) => assert_eq!(r.doc["n"], Value::Int(2)),
        other => panic!("expected the read to see the update, got {other:?}"),
    }
    assert!(matches!(results[3], Ok(Response::Deleted { version: 2 })));
    assert!(
        results[4].is_err(),
        "the read after the delete fails — per-op results, strict order"
    );
}

#[test]
fn middleware_stack_composes_under_the_client() {
    // client → MetricsLayer → LatencyInjector → ShardRouter → 2 servers.
    let clock = ManualClock::new();
    let cluster = topology(2, clock.clone());
    let injector = LatencyInjector::new(cluster, quaestor::sim::LatencyModel::default(), 11);
    let metrics = MetricsLayer::new(injector.clone());
    let client = QuaestorClient::connect_service(
        metrics.clone(),
        &[],
        ClientConfig::default(),
        clock.clone(),
    );
    // Seed through a *different* session so the reader's own-write cache
    // (read-your-writes) does not absorb the reads under test.
    let writer = QuaestorClient::connect_service(
        metrics.clone(),
        &[],
        ClientConfig::default(),
        clock.clone(),
    );
    writer.insert("t", "a", doc! { "n" => 1 }).unwrap();
    client.read_record("t", "a").unwrap();
    client.read_record("t", "a").unwrap(); // browser hit: no service call
    let m = metrics.metrics();
    assert_eq!(m.writes.get(), 1);
    assert_eq!(
        m.record_reads.get(),
        1,
        "the second read must be absorbed by the browser cache"
    );
    assert_eq!(m.ebf_snapshots.get(), 2, "one connect EBF each");
    // Each service call paid one simulated WAN round trip.
    assert_eq!(injector.observed().count(), m.total_calls());
    assert!(injector.total_simulated_ms() > 0);
}

#[test]
fn ebf_union_flags_staleness_from_any_shard() {
    let clock = ManualClock::new();
    let service = topology(4, clock.clone());
    let client = QuaestorClient::connect_service(
        service.clone(),
        &[],
        ClientConfig::default(),
        clock.clone(),
    );
    // Read records in 8 tables (spread over 4 shards), then have a second
    // writer invalidate half of them.
    for i in 0..8 {
        client
            .insert(&format!("t{i}"), "x", doc! { "v" => 0 })
            .unwrap();
    }
    let reader = QuaestorClient::connect_service(
        service.clone(),
        &[],
        ClientConfig::default(),
        clock.clone(),
    );
    for i in 0..8 {
        reader.read_record(&format!("t{i}"), "x").unwrap();
    }
    clock.advance(10);
    for i in 0..4 {
        client
            .update(&format!("t{i}"), "x", &Update::new().set("v", 1))
            .unwrap();
    }
    clock.advance(2_000); // > Δ: the reader refreshes its (unioned) EBF
    for i in 0..8 {
        let r = reader.read_record(&format!("t{i}"), "x").unwrap();
        let expect = if i < 4 { 1 } else { 0 };
        assert_eq!(r.doc["v"], Value::Int(expect), "table t{i}");
    }
}

#[test]
fn client_request_stitches_one_trace_across_every_layer() {
    // The observability acceptance criterion: one traced client
    // interaction against a 2-shard *remote* cluster (real TCP, durable
    // origins) yields a single trace whose spans attribute time to the
    // client, wire, service, router, planner, and WAL layers.
    let clock = ManualClock::new();
    let servers: Vec<quaestor::net::NetServer> = (0..2)
        .map(|i| {
            let dir = quaestor_common::scratch_dir(&format!("obs-stitch-{i}"));
            let origin = QuaestorServer::open_with(
                &dir,
                ServerConfig::default(),
                DurabilityConfig::default(),
                clock.clone(),
            )
            .expect("open durable origin");
            quaestor::net::NetServer::bind("127.0.0.1:0", origin).expect("bind loopback")
        })
        .collect();
    let remotes: Vec<Arc<dyn Service>> = servers
        .iter()
        .map(|s| {
            RemoteService::connect(s.local_addr(), RemoteServiceConfig::default())
                .expect("connect loopback") as Arc<dyn Service>
        })
        .collect();
    let service = MetricsLayer::new(ShardRouter::new(remotes));
    let svc: &dyn Service = &*service;

    // One client request cycle under a forced trace root: a write (which
    // must reach the WAL) and the query that reads it back.
    let root = quaestor::obs::Trace::start("client.request");
    let trace_id = root.context().expect("forced root is sampled").trace_id;
    svc.insert("articles", "a1", doc! { "section" => "frontpage" })
        .unwrap();
    let q = Query::table("articles").filter(Filter::eq("section", "frontpage"));
    assert_eq!(svc.query(&q).unwrap().versions.len(), 1);
    drop(root);

    let spans = quaestor::obs::spans_for(trace_id);
    let names: std::collections::BTreeSet<&str> = spans.iter().map(|s| s.name).collect();
    for layer in [
        "client.request", // the client's root
        "service.insert", // MetricsLayer
        "service.query",
        "router.route",    // ShardRouter
        "client.call",     // RemoteService (wire egress)
        "net.client.send", // RemoteService: encode and write
        "net.client.recv", // RemoteService: wait for the reply and decode it
        "net.server",      // NetServer (wire ingress, adopted context)
        "store.plan",      // planner
        "store.query",     // executor
        "wal.append",      // durability
    ] {
        assert!(names.contains(layer), "missing {layer} in {names:?}");
    }
    assert!(names.len() >= 5, "at least 5 layers of attribution");
    // The client's transport spans split each `client.call`.
    let calls: std::collections::BTreeSet<u64> = spans
        .iter()
        .filter(|s| s.name == "client.call")
        .map(|s| s.span_id)
        .collect();
    for s in spans
        .iter()
        .filter(|s| s.name == "net.client.send" || s.name == "net.client.recv")
    {
        assert!(calls.contains(&s.parent), "{} outside client.call", s.name);
    }
    // Every span carries duration attribution and the dump renders the
    // stitched tree.
    let dump = quaestor::obs::render_trace(trace_id);
    assert!(dump.contains("net.server"), "{dump}");
    assert!(dump.contains("wal.append"), "{dump}");
    for s in &servers {
        s.shutdown();
    }
}

#[test]
fn metrics_request_snapshots_the_unified_registry_of_a_remote_node() {
    // `Request::Metrics` conformance: a remote node behind real TCP
    // reports its unified registry — the origin's `server.*` counters
    // and the node's `service.*` counters and latency histograms —
    // through the same `Service` client as every other request.
    let clock = ManualClock::new();
    // Server side: MetricsLayer *on the node* so its service.* series
    // ride along in the snapshot.
    let origin = MetricsLayer::new(QuaestorServer::with_defaults(clock.clone()));
    let server = quaestor::net::NetServer::bind("127.0.0.1:0", origin).expect("bind loopback");
    let remote = RemoteService::connect(server.local_addr(), RemoteServiceConfig::default())
        .expect("connect loopback");
    let svc: &dyn Service = &*remote;

    for i in 0..3 {
        svc.insert("t", &format!("r{i}"), doc! { "i" => i })
            .unwrap();
    }
    svc.get_record("t", "r0").unwrap();
    let q = Query::table("t").filter(Filter::eq("i", 1));
    svc.query(&q).unwrap();

    let snap = svc.node_metrics().expect("metrics over the wire");
    // Origin counters.
    assert_eq!(snap.counter("server.writes"), Some(3));
    assert_eq!(snap.counter("server.record_reads"), Some(1));
    assert_eq!(snap.counter("server.query_reads"), Some(1));
    // Executed plans record actual vs estimated cardinality.
    assert!(snap.counter("server.query_card_actual").is_some());
    // The node's MetricsLayer counters + latency histograms.
    assert_eq!(snap.counter("service.writes"), Some(3));
    let lat = snap
        .histogram("service.latency.insert")
        .expect("latency series");
    assert_eq!(lat.count, 3);
    assert!(lat.p50 <= lat.p99);
    // The snapshot renders as stable text exposition.
    let text = snap.render_text();
    assert!(text.contains("counter server.writes 3"), "{text}");
    server.shutdown();
}
