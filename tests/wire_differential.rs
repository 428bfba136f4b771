//! The wire carries every caching field.
//!
//! One seeded session script runs twice: against an in-process
//! `QuaestorServer`, and against the same kind of server behind a
//! `NetServer` reached through `RemoteService` over loopback. Each run has
//! its own browser caches and CDN on its own logical clock. Every
//! operation's outcome, every client counter and every cache entry (body,
//! ETag, TTL) must agree. The origin's responses carry ETags, TTLs,
//! representations, ids, versions and documents; a field the codec
//! dropped or changed would show up here as a different entry or a
//! different hit.
//!
//! The proptest below checks the bytes themselves: a body rendered from a
//! response that crossed the wire equals the body rendered from the
//! response before it did.

use std::sync::Arc;

use proptest::prelude::*;
use quaestor::client::body::{id_list_body, object_list_body, record_body};
use quaestor::core::{QueryResponse, RecordResponse, Response, ServerConfig, Service};
use quaestor::net::codec::{decode_response, encode_response, WireResponse};
use quaestor::prelude::*;
use quaestor::store::Database;
use quaestor::ttl::{CostModel, Representation};
use quaestor::webcache::CacheEntry;

const SESSIONS: usize = 3;
const RECORDS: usize = 12;
const OPS: usize = 400;

/// A small deterministic generator (SplitMix64), so a seed names a script.
struct Script(u64);

impl Script {
    fn below(&mut self, n: u64) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % n
    }
}

fn id(i: u64) -> String {
    format!("r{i}")
}

fn queries() -> Vec<Query> {
    vec![
        Query::table("t").filter(Filter::eq("g", 0)),
        Query::table("t").filter(Filter::eq("g", 1)),
        Query::table("t").filter(Filter::eq("g", 2)),
        Query::table("t").filter(Filter::gte("n", 8)),
        Query::table("t").sort_by("n", Order::Desc).limit(3),
    ]
}

/// What one run observed.
#[derive(Debug, PartialEq)]
struct Observed {
    /// Each operation's outcome, rendered.
    outcomes: Vec<String>,
    /// Each session's `ClientMetrics` counters.
    counters: Vec<[u64; 8]>,
    /// Per key: each session's browser entry, then the CDN's.
    entries: Vec<(String, Vec<Option<CacheEntry>>)>,
    /// Query hits on a cached id-list and on a cached object-list.
    id_list_hits: usize,
    object_list_hits: usize,
}

fn counters(c: &QuaestorClient) -> [u64; 8] {
    use std::sync::atomic::Ordering::Relaxed;
    let m = c.metrics();
    [
        m.query_client_hits.load(Relaxed),
        m.query_cdn_hits.load(Relaxed),
        m.query_origin.load(Relaxed),
        m.record_client_hits.load(Relaxed),
        m.record_cdn_hits.load(Relaxed),
        m.record_origin.load(Relaxed),
        m.revalidations.load(Relaxed),
        m.ebf_refreshes.load(Relaxed),
    ]
}

fn canonical(doc: &Document) -> String {
    Value::Object(doc.clone()).canonical()
}

fn run(seed: u64, networked: bool) -> Observed {
    let clock = ManualClock::new();
    // Id-lists cost nothing here, so every query the cost model has seen
    // change becomes an id-list; a query's first answer is an object-list.
    let config = ServerConfig {
        cost: CostModel {
            invalidation_cost: 1.0,
            round_trip_cost: 0.0,
        },
        ..ServerConfig::default()
    };
    let server = QuaestorServer::new(Database::with_clock(clock.clone()), config, clock.clone());
    let cdn = Arc::new(InvalidationCache::new("cdn", 4_096));
    server.register_cdn(cdn.clone());
    let net = networked.then(|| NetServer::bind("127.0.0.1:0", server.clone()).expect("bind"));
    let service: Arc<dyn Service> = match &net {
        Some(net) => RemoteService::connect(net.local_addr(), RemoteServiceConfig::default())
            .expect("connect"),
        None => server.clone(),
    };
    let sessions: Vec<QuaestorClient> = (0..SESSIONS)
        .map(|_| {
            QuaestorClient::connect_service(
                service.clone(),
                std::slice::from_ref(&cdn),
                ClientConfig::default(),
                clock.clone(),
            )
        })
        .collect();
    let delta = ClientConfig::default().ebf_refresh_ms;
    let levels = [
        Consistency::DeltaAtomic,
        Consistency::DeltaAtomic,
        Consistency::Causal,
        Consistency::Strong,
    ];
    let queries = queries();
    let mut script = Script(seed);
    let mut outcomes = Vec::new();
    let (mut id_list_hits, mut object_list_hits) = (0, 0);
    for i in 0..RECORDS as u64 {
        let doc = doc! { "g" => (i % 3) as i64, "n" => i as i64 };
        let result = sessions[i as usize % SESSIONS].insert("t", &id(i), doc);
        outcomes.push(format!("insert {}: {result:?}", id(i)));
    }
    for _ in 0..OPS {
        let session = &sessions[script.below(SESSIONS as u64) as usize];
        let level = levels[script.below(levels.len() as u64) as usize];
        let outcome = match script.below(10) {
            0..=3 => {
                // One id in thirteen was never inserted.
                let id = id(script.below(RECORDS as u64 + 1));
                let read = session.read_record_with("t", &id, level).map(|o| {
                    let doc = canonical(&o.doc);
                    (o.version, o.served_by, o.revalidated, doc)
                });
                format!("read {id} {level:?}: {read:?}")
            }
            4..=6 => {
                let q = &queries[script.below(queries.len() as u64) as usize];
                let out = session.query_with(q, level).map(|o| {
                    if o.served_by != ServedBy::Origin && !o.docs.is_empty() {
                        if o.record_fetches.is_empty() {
                            object_list_hits += 1;
                        } else {
                            id_list_hits += 1;
                        }
                    }
                    let docs: Vec<String> = o.docs.iter().map(canonical).collect();
                    (o.etag, o.served_by, o.record_fetches, o.revalidated, docs)
                });
                format!("query {q:?} {level:?}: {out:?}")
            }
            7 | 8 => {
                let id = id(script.below(RECORDS as u64));
                let update = if script.below(2) == 0 {
                    Update::new().set("g", script.below(3) as i64)
                } else {
                    Update::new().inc("n", 1.0)
                };
                format!("update {id}: {:?}", session.update("t", &id, &update))
            }
            _ => {
                // Often past Δ, so EBF refreshes and expiries interleave.
                let ms = script.below(3 * delta);
                clock.advance(ms);
                format!("advance {ms}")
            }
        };
        outcomes.push(outcome);
    }
    let now = clock.now();
    let keys = (0..=RECORDS as u64)
        .map(|i| QueryKey::record("t", &id(i)))
        .chain(queries.iter().map(QueryKey::of));
    let entries = keys
        .map(|key| {
            let mut held: Vec<Option<CacheEntry>> = sessions
                .iter()
                .map(|s| s.browser_cache().peek(key.as_str(), now))
                .collect();
            held.push(cdn.peek(key.as_str(), now));
            (key.as_str().to_owned(), held)
        })
        .collect();
    Observed {
        outcomes,
        counters: sessions.iter().map(counters).collect(),
        entries,
        id_list_hits,
        object_list_hits,
    }
}

#[test]
fn in_process_and_loopback_sessions_cache_the_same_bytes() {
    for seed in [1, 2, 3] {
        let local = run(seed, false);
        let remote = run(seed, true);
        assert!(
            local.id_list_hits > 0 && local.object_list_hits > 0,
            "seed {seed}: the script must hit both representations \
             ({} id-list hits, {} object-list hits)",
            local.id_list_hits,
            local.object_list_hits
        );
        assert!(
            local
                .entries
                .iter()
                .any(|(_, held)| held.iter().flatten().next().is_some()),
            "seed {seed}: nothing left cached to compare"
        );
        for (i, (a, b)) in local.outcomes.iter().zip(&remote.outcomes).enumerate() {
            assert_eq!(a, b, "seed {seed}: operation {i} differs");
        }
        assert_eq!(local.counters, remote.counters, "seed {seed}: counters");
        for ((key, a), (_, b)) in local.entries.iter().zip(&remote.entries) {
            assert_eq!(a, b, "seed {seed}: cached entries of {key}");
        }
        assert_eq!(local, remote, "seed {seed}");
    }
}

/// Quotes, backslashes, raw control characters, multi-byte text.
const STRINGS: &str = "[a-c\"\\\u{0}\u{1}\n/é€😀 ]{0,8}";

fn arb_value() -> BoxedStrategy<Value> {
    let leaf = prop_oneof![
        Just(Value::Null),
        any::<bool>().prop_map(Value::Bool),
        any::<i64>().prop_map(Value::Int),
        (-1e12f64..1e12).prop_map(Value::Float),
        // Integral floats render as integers.
        (-1_000_000i64..1_000_000).prop_map(|i| Value::Float(i as f64)),
        STRINGS.prop_map(Value::str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
            proptest::collection::btree_map(STRINGS, inner, 0..4)
                .prop_map(|m| Value::Object(m.into_iter().collect())),
        ]
    })
}

fn arb_doc() -> impl Strategy<Value = Document> {
    proptest::collection::btree_map(STRINGS, arb_value(), 0..5)
        .prop_map(|m| m.into_iter().collect())
}

fn over_the_wire(resp: Response) -> Response {
    match decode_response(&encode_response(&resp)).expect("decode") {
        WireResponse::Plain(back) => back,
        WireResponse::Stream => panic!("not a stream"),
    }
}

proptest! {
    #[test]
    fn bodies_rendered_after_the_wire_equal_bodies_rendered_before(
        docs in proptest::collection::vec(arb_doc(), 0..4),
        ids in proptest::collection::vec(STRINGS, 0..4),
        id_list in any::<bool>(),
        etag in any::<u64>(),
        ttl_ms in any::<u64>(),
    ) {
        let doc = Arc::new(docs.first().cloned().unwrap_or_default());
        let record = RecordResponse { etag, ttl_ms, doc: doc.clone() };
        let Response::Record(back) = over_the_wire(Response::Record(record)) else {
            panic!("a record response came back as another variant");
        };
        prop_assert_eq!(record_body(&back.doc), record_body(&doc));
        // The body is the document model's canonical rendering.
        let rendered = canonical(&doc);
        prop_assert_eq!(&record_body(&doc)[..], rendered.as_bytes());

        let query = QueryResponse {
            etag,
            ttl_ms,
            representation: if id_list {
                Representation::IdList
            } else {
                Representation::ObjectList
            },
            versions: (0..ids.len() as u64).collect(),
            ids,
            docs: docs.into_iter().map(Arc::new).collect(),
        };
        let Response::Query(back) = over_the_wire(Response::Query(query.clone())) else {
            panic!("a query response came back as another variant");
        };
        prop_assert_eq!(back.representation, query.representation);
        prop_assert_eq!(object_list_body(&back.docs), object_list_body(&query.docs));
        prop_assert_eq!(id_list_body(&back.ids), id_list_body(&query.ids));
    }
}
