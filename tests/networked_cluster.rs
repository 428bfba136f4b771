//! The headline integration test of the network subsystem: a
//! `ShardRouter` of four `RemoteService` shards, each shard an origin
//! running behind its own `NetServer` — four "processes" (threads with
//! nothing shared but TCP) composed by the exact middleware that served
//! the in-process cluster.

use quaestor::common::Error;
use quaestor::prelude::*;
use std::sync::Arc;

struct RemoteCluster {
    origins: Vec<Arc<QuaestorServer>>,
    servers: Vec<quaestor::net::NetServer>,
    /// One `MetricsLayer` per shard's pool: it times every wire call.
    wires: Vec<Arc<MetricsLayer>>,
    router: Arc<ShardRouter>,
}

fn remote_cluster(
    shards: usize,
    clock: Arc<ManualClock>,
    config: RemoteServiceConfig,
) -> RemoteCluster {
    let origins: Vec<Arc<QuaestorServer>> = (0..shards)
        .map(|_| QuaestorServer::with_defaults(clock.clone()))
        .collect();
    let servers: Vec<quaestor::net::NetServer> = origins
        .iter()
        .map(|o| quaestor::net::NetServer::bind("127.0.0.1:0", o.clone()).expect("bind"))
        .collect();
    let wires: Vec<Arc<MetricsLayer>> = servers
        .iter()
        .map(|s| {
            MetricsLayer::new(
                RemoteService::connect(s.local_addr(), config.clone()).expect("connect"),
            )
        })
        .collect();
    let router = ShardRouter::new(
        wires
            .iter()
            .map(|w| w.clone() as Arc<dyn Service>)
            .collect(),
    );
    RemoteCluster {
        origins,
        servers,
        wires,
        router,
    }
}

#[test]
fn four_shard_remote_router_places_routes_and_unions_like_local() {
    let clock = ManualClock::new();
    let cluster = remote_cluster(4, clock.clone(), RemoteServiceConfig::default());
    let svc: &dyn Service = &*cluster.router;

    // Writes spread across 32 tables; each lands ONLY on its owner, and
    // ownership is decided by the same stable hash the local router uses.
    for i in 0..32 {
        let table = format!("t{i}");
        svc.insert(&table, "x", doc! { "i" => i as i64 }).unwrap();
        let owner = cluster.router.shard_for(&table);
        assert!(
            cluster.origins[owner].database().table(&table).is_ok(),
            "owner shard must hold {table}"
        );
        for (s, origin) in cluster.origins.iter().enumerate() {
            if s != owner {
                assert!(
                    origin.database().table(&table).is_err(),
                    "shard {s} must not see {table}"
                );
            }
        }
    }
    let spread: std::collections::HashSet<usize> = (0..32)
        .map(|i| cluster.router.shard_for(&format!("t{i}")))
        .collect();
    assert_eq!(spread.len(), 4, "32 tables must cover all 4 shards");

    // Reads route back through the wire.
    for i in 0..32 {
        let rec = svc.get_record(&format!("t{i}"), "x").unwrap();
        assert_eq!(rec.doc["i"], Value::Int(i as i64));
    }

    // A cross-shard batch reassembles in submission order with per-op
    // results, exactly as on the local router.
    let results = svc
        .batch(
            (0..12)
                .map(|i| Request::Update {
                    table: format!("t{i}"),
                    id: "x".into(),
                    update: Update::new().inc("i", 100.0),
                })
                .chain(std::iter::once(Request::Delete {
                    table: "t0".into(),
                    id: "missing".into(),
                }))
                .collect(),
        )
        .unwrap();
    assert_eq!(results.len(), 13);
    for r in &results[..12] {
        assert!(matches!(r, Ok(Response::Written { version: 2, .. })));
    }
    assert!(matches!(results[12], Err(Error::NotFound { .. })));

    // Flat EBF fan-out across remote shards: a read warmed on one shard,
    // invalidated by a write, must surface in the *unioned* filter.
    svc.get_record("t5", "x").unwrap();
    clock.advance(10);
    svc.update("t5", "x", &Update::new().set("i", 999)).unwrap();
    let (flat, _at) = svc.fetch_ebf().unwrap();
    assert!(
        flat.contains(QueryKey::record("t5", "x").as_str().as_bytes()),
        "staleness from shard {} must cross the wire into the union",
        cluster.router.shard_for("t5")
    );

    // Cluster-wide flush fans out over TCP (all in-memory: min LSN 0).
    assert_eq!(svc.flush().unwrap(), 0);

    // Every shard did real network work.
    for (i, s) in cluster.servers.iter().enumerate() {
        assert!(
            s.requests_served() > 0,
            "shard {i} must have served over the socket"
        );
    }

    for s in &cluster.servers {
        s.shutdown();
    }
}

#[test]
fn full_sdk_stack_over_four_remote_shards() {
    // QuaestorClient → MetricsLayer → ShardRouter → 4× RemoteService.
    let clock = ManualClock::new();
    let cluster = remote_cluster(4, clock.clone(), RemoteServiceConfig::default());
    let metrics = MetricsLayer::new(cluster.router.clone());
    let client = QuaestorClient::connect_service(
        metrics.clone(),
        &[],
        ClientConfig::default(),
        clock.clone(),
    );
    let reader = QuaestorClient::connect_service(
        metrics.clone(),
        &[],
        ClientConfig::default(),
        clock.clone(),
    );
    // The bounded-staleness loop of the paper, across remote shards:
    // warm reads, invalidate half, refresh the (unioned) EBF, observe.
    for i in 0..8 {
        client
            .insert(&format!("t{i}"), "x", doc! { "v" => 0 })
            .unwrap();
    }
    for i in 0..8 {
        reader.read_record(&format!("t{i}"), "x").unwrap();
    }
    clock.advance(10);
    for i in 0..4 {
        client
            .update(&format!("t{i}"), "x", &Update::new().set("v", 1))
            .unwrap();
    }
    clock.advance(2_000); // > Δ: the reader refreshes its EBF
    for i in 0..8 {
        let r = reader.read_record(&format!("t{i}"), "x").unwrap();
        let expect = if i < 4 { 1 } else { 0 };
        assert_eq!(r.doc["v"], Value::Int(expect), "table t{i}");
    }
    // The wire answered with real latency for every kind used.
    let snap = metrics.metrics().registry().snapshot();
    for kind in ["insert", "ebf_snapshot"] {
        let h = snap.histogram(&format!("service.latency.{kind}")).unwrap();
        assert!(h.count > 0, "no {kind} latency recorded");
    }
    // Each shard's pool timed the calls it carried.
    for w in &cluster.wires {
        let snap = w.metrics().registry().snapshot();
        assert!(snap.histograms.iter().map(|(_, h)| h.count).sum::<u64>() > 0);
    }
    for s in &cluster.servers {
        s.shutdown();
    }
}

#[test]
fn a_dead_shard_fails_its_tables_with_net_error_while_others_serve() {
    let clock = ManualClock::new();
    let cluster = remote_cluster(
        4,
        clock.clone(),
        RemoteServiceConfig {
            // Keep the dead-shard probes fast: give up reconnecting at
            // a short deadline instead of the 10s default.
            request_timeout: std::time::Duration::from_millis(500),
            connect_timeout: std::time::Duration::from_millis(200),
            ..Default::default()
        },
    );
    let svc: &dyn Service = &*cluster.router;
    for i in 0..8 {
        svc.insert(&format!("t{i}"), "x", doc! { "i" => i as i64 })
            .unwrap();
    }
    // Kill exactly one shard.
    let dead = cluster.router.shard_for("t3");
    cluster.servers[dead].shutdown();
    // Shorten the surviving handle's patience so the test stays fast:
    // reconnect attempts against the dead address give up at the
    // request deadline.
    for i in 0..8 {
        let table = format!("t{i}");
        let owner = cluster.router.shard_for(&table);
        let result = svc.get_record(&table, "x");
        if owner == dead {
            match result {
                Err(Error::Net(_)) => {}
                other => panic!("dead shard must yield Error::Net, got {other:?}"),
            }
        } else {
            assert_eq!(
                result.unwrap().doc["i"],
                Value::Int(i as i64),
                "live shards must keep serving"
            );
        }
    }
    for s in &cluster.servers {
        s.shutdown();
    }
}
