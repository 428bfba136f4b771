//! Micro-benchmarks of the hot paths: Bloom probes, EBF maintenance,
//! query normalization, predicate matching, LRU churn, store CRUD,
//! encoding and decoding cached bodies, frame checksums, and the origin's
//! query path.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion, Throughput};
use quaestor_bloom::{BloomFilter, BloomParams, CountingBloomFilter, ExpiringBloomFilter};
use quaestor_client::body::object_list_body;
use quaestor_common::ManualClock;
use quaestor_core::{IndexKind, QuaestorServer};
use quaestor_document::{decode_value, doc, Update, Value};
use quaestor_durability::frame::{crc32, crc32_bytewise};
use quaestor_query::{matcher, Filter, Query, QueryKey};
use quaestor_store::Database;
use quaestor_webcache::LruCache;
use quaestor_workload::WorkloadConfig;
use rand::rngs::StdRng;
use rand::SeedableRng;

fn bloom_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("bloom");
    let params = BloomParams::PAPER_DEFAULT;
    let mut filter = BloomFilter::new(params);
    for i in 0..20_000 {
        filter.insert(format!("q{i}").as_bytes());
    }
    group.throughput(Throughput::Elements(1));
    group.bench_function("contains_hit", |b| {
        b.iter(|| filter.contains(black_box(b"q100")))
    });
    group.bench_function("contains_miss", |b| {
        b.iter(|| filter.contains(black_box(b"not-present")))
    });
    group.bench_function("insert", |b| {
        let mut f = BloomFilter::new(params);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            f.insert(&i.to_le_bytes());
        })
    });
    group.bench_function("counting_insert_remove", |b| {
        let mut cbf = CountingBloomFilter::new(params);
        b.iter(|| {
            cbf.insert(b"key");
            cbf.remove(b"key");
        })
    });
    group.bench_function("flat_snapshot_clone", |b| {
        let clock = ManualClock::new();
        let ebf = ExpiringBloomFilter::new(params, clock);
        for i in 0..1_000 {
            let k = format!("q{i}");
            ebf.report_read(&k, 60_000);
            ebf.invalidate(&k);
        }
        b.iter(|| ebf.flat_snapshot())
    });
    group.finish();
}

fn query_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("query");
    let q = Query::table("posts").filter(Filter::and([
        Filter::contains("tags", "example"),
        Filter::gt("likes", 10),
        Filter::eq("author.name", "ada"),
    ]));
    group.bench_function("normalize", |b| b.iter(|| QueryKey::of(black_box(&q))));
    let mut d = doc! { "likes" => 42 };
    d.insert(
        "tags",
        Value::Array(vec![Value::str("example"), Value::str("music")]),
    );
    d.insert(
        "author",
        Value::Object(
            [("name".to_string(), Value::str("ada"))]
                .into_iter()
                .collect(),
        ),
    );
    group.throughput(Throughput::Elements(1));
    group.bench_function("match_hit", |b| {
        b.iter(|| matcher::matches(black_box(&q.filter), black_box(&d)))
    });
    group.finish();
}

fn lru_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("lru");
    group.bench_function("insert_evict_churn", |b| {
        let mut lru: LruCache<u64> = LruCache::new(1_024);
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            lru.insert(format!("k{}", i % 4_096), i);
        })
    });
    group.bench_function("hot_get", |b| {
        let mut lru: LruCache<u64> = LruCache::new(1_024);
        for i in 0..1_024u64 {
            lru.insert(format!("k{i}"), i);
        }
        b.iter(|| lru.get(black_box("k512")).copied())
    });
    group.finish();
}

fn store_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("store");
    let db = Database::new();
    let t = db.create_table("posts");
    t.create_index("category");
    for i in 0..10_000 {
        t.insert(
            &format!("p{i}"),
            doc! { "category" => (i % 1000) as i64, "n" => i },
        )
        .unwrap();
    }
    group.bench_function("get", |b| b.iter(|| t.get(black_box("p5000"))));
    group.bench_function("indexed_query", |b| {
        let q = Query::table("posts").filter(Filter::eq("category", 7));
        b.iter(|| t.query(black_box(&q)))
    });
    group.bench_function("update_inc", |b| {
        let u = Update::new().inc("n", 1.0);
        b.iter(|| t.update("p1", &u, None).unwrap())
    });
    for size in [10usize, 100] {
        group.bench_with_input(BenchmarkId::new("scan_query", size), &size, |b, &_s| {
            let q = Query::table("posts").filter(Filter::gt("n", 9_990));
            b.iter(|| t.query(black_box(&q)))
        });
    }
    group.finish();
}

/// A cached object-list body: the ten members of one `read-heavy` query
/// result, as the origin encodes them and a cache-hit client decodes them.
/// The ten workload documents of a 10-member query result.
fn ten_docs() -> Vec<Arc<quaestor_document::Document>> {
    let config = WorkloadConfig::default();
    let mut rng = StdRng::seed_from_u64(7);
    (0..10)
        .map(|i| {
            let mut d = config.make_doc(i, &mut rng);
            d.insert("_id", Value::str(WorkloadConfig::doc_id(i)));
            Arc::new(d)
        })
        .collect()
}

fn body_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("body");
    let docs = ten_docs();
    let body = object_list_body(&docs);
    group.throughput(Throughput::Bytes(body.len() as u64));
    group.bench_function("encode_object_list_10", |b| {
        b.iter(|| object_list_body(black_box(&docs)))
    });
    group.bench_function("decode_object_list_10", |b| {
        b.iter(|| decode_value(black_box(&body)).unwrap())
    });
    group.finish();
}

/// The CRC behind every WAL, net and snapshot frame, over the cached
/// body of a 10-member query result: the slicing-by-8 kernel and the
/// byte-at-a-time loop it replaced.
fn frame_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("frame");
    let body = object_list_body(&ten_docs());
    group.throughput(Throughput::Bytes(body.len() as u64));
    group.bench_with_input(BenchmarkId::new("crc32", "slicing8"), &body, |b, body| {
        b.iter(|| crc32(black_box(body)))
    });
    group.bench_with_input(BenchmarkId::new("crc32", "bytewise"), &body, |b, body| {
        b.iter(|| crc32_bytewise(black_box(body)))
    });
    group.finish();
}

/// `QuaestorServer::query`, the origin side of every query cache miss and
/// revalidation, for a 10-member equality query over a hash index on a
/// 10k-doc table: re-evaluating a registered query, and evaluating one
/// never seen before (a first InvaliDB registration per iteration).
fn server_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("server");
    let server = QuaestorServer::with_defaults(ManualClock::new());
    server.declare_index("posts", "category", IndexKind::Hash);
    for i in 0..10_000 {
        server
            .insert(
                "posts",
                &format!("p{i}"),
                doc! { "category" => (i % 1000) as i64, "n" => i },
            )
            .unwrap();
    }
    let registered = Query::table("posts").filter(Filter::eq("category", 7));
    server.query(&registered).unwrap();
    group.bench_function("query_registered_10", |b| {
        b.iter(|| server.query(black_box(&registered)).unwrap())
    });
    group.bench_function("query_first_registration_10", |b| {
        // A conjunct no record fails makes each iteration's query new.
        let mut i = 0i64;
        b.iter(|| {
            i += 1;
            let fresh = Query::table("posts").filter(Filter::and([
                Filter::eq("category", 8),
                Filter::ne("n", -i),
            ]));
            server.query(black_box(&fresh)).unwrap()
        })
    });
    group.finish();
}

criterion_group!(
    benches,
    bloom_benches,
    query_benches,
    lru_benches,
    store_benches,
    body_benches,
    frame_benches,
    server_benches
);
criterion_main!(benches);
