//! Integration tests of the server-side pipeline: store → change stream →
//! InvaliDB → EBF → CDN purges, without the client SDK in the loop.

use quaestor::common::ManualClock;
use quaestor::core::{QuaestorServer, ServerConfig};
use quaestor::prelude::*;
use quaestor::store::{Database, WriteKind};
use std::sync::Arc;

#[test]
fn change_stream_orders_and_describes_writes() {
    let db = Database::new();
    let sub = db.subscribe_changes();
    let t = db.create_table("posts");
    t.insert("a", doc! { "n" => 1 }).unwrap();
    t.update("a", &Update::new().inc("n", 1.0), None).unwrap();
    t.delete("a", None).unwrap();
    let events = sub.drain();
    assert_eq!(events.len(), 3);
    assert_eq!(events[0].kind, WriteKind::Insert);
    assert_eq!(events[1].kind, WriteKind::Update);
    assert_eq!(events[1].image["n"], Value::Int(2), "after-image");
    assert_eq!(events[2].kind, WriteKind::Delete);
    assert!(events[0].seq < events[1].seq && events[1].seq < events[2].seq);
}

#[test]
fn server_pipeline_detects_all_figure5_transitions() {
    let clock = ManualClock::new();
    let server = QuaestorServer::with_defaults(clock.clone());
    server
        .insert("posts", "p", doc! { "title" => "post" })
        .unwrap();
    let q = Query::table("posts").filter(Filter::contains("tags", "example"));
    let resp = server.query(&q).unwrap();
    assert!(resp.ttl_ms > 0, "admitted, so cacheable");
    assert_eq!(resp.ids.len(), 0);

    let inval = |server: &QuaestorServer| server.metrics().query_invalidations.get();

    // add
    clock.advance(10);
    server
        .update("posts", "p", &Update::new().push("tags", "example"))
        .unwrap();
    assert_eq!(inval(&server), 1, "add invalidates");

    // re-cache, then change (object-list ⇒ change invalidates)
    server.query(&q).unwrap();
    clock.advance(10);
    server
        .update("posts", "p", &Update::new().push("tags", "music"))
        .unwrap();
    assert_eq!(inval(&server), 2, "change invalidates object-lists");

    // re-cache, then remove
    server.query(&q).unwrap();
    clock.advance(10);
    server
        .update("posts", "p", &Update::new().pull("tags", "example"))
        .unwrap();
    assert_eq!(inval(&server), 3, "remove invalidates");
}

#[test]
fn service_protocol_drives_the_full_pipeline() {
    // The Figure 5 transitions of `server_pipeline_detects_all_figure5_
    // transitions`, driven purely through `Service::call` — no inherent
    // server methods — proving the protocol layer carries the whole
    // write → matching → invalidation pipeline.
    let clock = ManualClock::new();
    let server = QuaestorServer::with_defaults(clock.clone());
    let svc: &dyn Service = &*server;

    svc.insert("posts", "p", doc! { "title" => "post" })
        .unwrap();
    let q = Query::table("posts").filter(Filter::contains("tags", "example"));
    let resp = svc.query(&q).unwrap();
    assert!(resp.ttl_ms > 0, "admitted, so cacheable");

    clock.advance(10);
    svc.update("posts", "p", &Update::new().push("tags", "example"))
        .unwrap();
    let (flat, _) = svc.fetch_ebf().unwrap();
    assert!(
        flat.contains(QueryKey::of(&q).as_str().as_bytes()),
        "protocol-level write invalidated the protocol-level query"
    );
    // The per-table partition sees it; an unrelated table's does not.
    svc.insert("other", "x", doc! { "n" => 1 }).unwrap();
    let (posts_ebf, _) = svc.fetch_ebf_partition("posts").unwrap();
    let (other_ebf, _) = svc.fetch_ebf_partition("other").unwrap();
    assert!(posts_ebf.contains(QueryKey::of(&q).as_str().as_bytes()));
    assert!(!other_ebf.contains(QueryKey::of(&q).as_str().as_bytes()));
    // Change streams work through the protocol too.
    svc.query(&q).unwrap(); // re-register
    let sub = quaestor::core::ServiceExt::subscribe(svc, &QueryKey::of(&q)).unwrap();
    svc.update("posts", "p", &Update::new().pull("tags", "example"))
        .unwrap();
    assert!(
        sub.try_recv().is_some(),
        "notification via Service subscribe"
    );
}

#[test]
fn per_table_partitioned_ebf_isolates_tables() {
    let clock = ManualClock::new();
    let server = QuaestorServer::with_defaults(clock.clone());
    server.insert("a", "x", doc! { "n" => 1 }).unwrap();
    server.insert("b", "x", doc! { "n" => 1 }).unwrap();
    server.get_record("a", "x").unwrap();
    server.get_record("b", "x").unwrap();
    server
        .update("a", "x", &Update::new().inc("n", 1.0))
        .unwrap();

    // Table-specific snapshot: only table a's partition carries the entry.
    let (pa, _) = server.ebf_partition_snapshot("a");
    let (pb, _) = server.ebf_partition_snapshot("b");
    assert!(pa.contains(QueryKey::record("a", "x").as_str().as_bytes()));
    assert!(!pb.contains(QueryKey::record("a", "x").as_str().as_bytes()));
    // The union sees it too.
    let (u, _) = server.ebf_snapshot();
    assert!(u.contains(QueryKey::record("a", "x").as_str().as_bytes()));
}

#[test]
fn ttl_estimates_shrink_for_hot_records() {
    let clock = ManualClock::new();
    let server = QuaestorServer::with_defaults(clock.clone());
    server.insert("t", "hot", doc! { "n" => 0 }).unwrap();
    server.insert("t", "cold", doc! { "n" => 0 }).unwrap();
    // Hammer "hot" with writes at a steady rate.
    for _ in 0..30 {
        clock.advance(200);
        server
            .update("t", "hot", &Update::new().inc("n", 1.0))
            .unwrap();
    }
    let hot_ttl = server.get_record("t", "hot").unwrap().ttl_ms;
    let cold_ttl = server.get_record("t", "cold").unwrap().ttl_ms;
    assert!(
        hot_ttl * 10 < cold_ttl,
        "hot record TTL {hot_ttl} must be far below cold TTL {cold_ttl}"
    );
}

#[test]
fn capacity_eviction_keeps_hot_queries_cached() {
    let clock = ManualClock::new();
    let db = Database::with_clock(clock.clone());
    let mut cfg = ServerConfig {
        max_cached_queries: 3,
        ..ServerConfig::default()
    };
    cfg.invalidb.max_queries = 8;
    let server = QuaestorServer::new(db, cfg, clock.clone());
    for i in 0..20 {
        server
            .insert("t", &format!("r{i}"), doc! { "g" => (i % 10) as i64 })
            .unwrap();
    }
    // Query g=0 often (hot), then probe many cold queries.
    let hot = Query::table("t").filter(Filter::eq("g", 0));
    for _ in 0..10 {
        assert!(server.query(&hot).unwrap().ttl_ms > 0);
    }
    let mut rejected = 0;
    for g in 1..10 {
        let q = Query::table("t").filter(Filter::eq("g", g as i64));
        // Cold queries churn through the remaining two slots; each starts
        // with one read so they evict each other, never the hot query.
        if server.query(&q).unwrap().ttl_ms == 0 {
            rejected += 1;
        }
    }
    assert!(server.query(&hot).unwrap().ttl_ms > 0, "hot query survives");
    let _ = rejected; // cold queries may or may not be rejected; hot must stay
}

#[test]
fn uncacheable_responses_never_enter_caches() {
    let clock = ManualClock::new();
    let db = Database::with_clock(clock.clone());
    let mut cfg = ServerConfig {
        max_cached_queries: 1,
        ..ServerConfig::default()
    };
    cfg.invalidb.max_queries = 1;
    let server = QuaestorServer::new(db, cfg, clock.clone());
    let cdn = Arc::new(InvalidationCache::new("cdn", 100));
    server.register_cdn(cdn.clone());
    let client = QuaestorClient::connect(
        server.clone(),
        std::slice::from_ref(&cdn),
        ClientConfig::default(),
        clock.clone(),
    );
    server.insert("t", "a", doc! { "g" => 1 }).unwrap();
    server.insert("t", "b", doc! { "g" => 2 }).unwrap();
    let q1 = Query::table("t").filter(Filter::eq("g", 1));
    let q2 = Query::table("t").filter(Filter::eq("g", 2));
    client.query(&q1).unwrap();
    client.query(&q1).unwrap(); // q1 hot, occupies the only slot
    let r = client.query(&q2).unwrap(); // rejected -> ttl 0
    assert_eq!(r.docs.len(), 1, "still correct, just uncacheable");
    // Re-querying q2 must go to the origin again (nothing was cached).
    let r2 = client.query(&q2).unwrap();
    assert_eq!(r2.served_by, ServedBy::Origin);
}
