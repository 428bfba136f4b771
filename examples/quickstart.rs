//! Quickstart: stand up a Quaestor deployment in-process, cache a query
//! in a browser cache and a CDN, watch a write invalidate it.
//!
//! ```sh
//! cargo run --example quickstart
//! ```

use quaestor::prelude::*;
use std::sync::Arc;

fn main() {
    // Virtual time: the example controls the clock explicitly, so TTL and
    // EBF behaviour is fully deterministic.
    let clock = ManualClock::new();

    // The origin: document store + EBF + InvaliDB + TTL estimator.
    let server = QuaestorServer::with_defaults(clock.clone());

    // One shared CDN edge (invalidation-based: the server purges it).
    let cdn = Arc::new(InvalidationCache::new("cdn-edge", 100_000));
    server.register_cdn(cdn.clone());

    // A client: private browser cache + the shared CDN + the EBF.
    let client = QuaestorClient::connect(
        server.clone(),
        std::slice::from_ref(&cdn),
        ClientConfig::default(),
        clock.clone(),
    );

    println!("== load data ==");
    client
        .insert(
            "posts",
            "p1",
            doc! { "title" => "First Post", "tags" => vec!["example", "other"], "likes" => 10 },
        )
        .unwrap();
    client
        .insert(
            "posts",
            "p2",
            doc! { "title" => "Second Post", "tags" => vec!["example"], "likes" => 3 },
        )
        .unwrap();

    // The paper's running example:
    //   SELECT * FROM posts WHERE tags CONTAINS 'example'
    let q = Query::table("posts").filter(Filter::contains("tags", "example"));

    println!("== first query: cache miss, served by the origin ==");
    let r1 = client.query(&q).unwrap();
    println!("  served_by={:?}, {} results", r1.served_by, r1.docs.len());
    assert_eq!(r1.served_by, ServedBy::Origin);

    println!("== second query: browser cache hit (zero network) ==");
    let r2 = client.query(&q).unwrap();
    println!("  served_by={:?}", r2.served_by);
    assert_eq!(r2.served_by, ServedBy::Layer(0));

    println!("== another client benefits from the warm CDN ==");
    let other = QuaestorClient::connect(
        server.clone(),
        std::slice::from_ref(&cdn),
        ClientConfig::default(),
        clock.clone(),
    );
    let r3 = other.query(&q).unwrap();
    println!("  served_by={:?} (layer 1 = CDN)", r3.served_by);
    assert_eq!(r3.served_by, ServedBy::Layer(1));

    println!("== a write invalidates the cached result ==");
    clock.advance(100);
    server
        .update("posts", "p2", &Update::new().pull("tags", "example"))
        .unwrap();
    // The CDN copy was purged synchronously; the browser copy cannot be —
    // that is what the Expiring Bloom Filter is for.
    let (ebf, generated_at) = server.ebf_snapshot();
    println!(
        "  EBF generated at t={generated_at} marks the query stale: {}",
        ebf.contains(QueryKey::of(&q).as_str().as_bytes())
    );

    println!("== after the EBF refresh interval, the client revalidates ==");
    clock.advance(1_000); // Δ = 1s in the default config
    let r4 = client.query(&q).unwrap();
    println!(
        "  revalidated={}, fresh result has {} post(s)",
        r4.revalidated,
        r4.docs.len()
    );
    assert!(r4.revalidated);
    assert_eq!(r4.docs.len(), 1);

    println!("== server metrics ==");
    for (name, value) in server.metrics_snapshot().counters {
        println!("  {name:>32}: {value}");
    }
}
