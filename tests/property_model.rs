//! Property-based differential tests: the sharded store, the InvaliDB
//! matcher and the reference query semantics must always agree, and the
//! cache+EBF stack must never corrupt data.

use proptest::prelude::*;
use quaestor::core::{Request, Response, Service, ServiceExt};
use quaestor::document::{doc, Document, Value};
use quaestor::invalidb::{InvaliDbCluster, NotificationEvent};
use quaestor::query::{matcher, Filter, Op, Order, Query, QueryKey};
use quaestor::store::Database;
use std::sync::Arc;

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-20i64..20).prop_map(Value::Int),
        "[a-c]{1,3}".prop_map(Value::str),
        Just(Value::Null),
    ]
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        ("[a-d]", arb_value()).prop_map(|(f, v)| Filter::Cmp(f.as_str().into(), Op::Eq(v))),
        ("[a-d]", -20i64..20).prop_map(|(f, v)| Filter::gt(f.as_str(), v)),
        ("[a-d]", -20i64..20).prop_map(|(f, v)| Filter::lte(f.as_str(), v)),
        "[a-d]".prop_map(|f| Filter::exists(f.as_str())),
    ];
    leaf.prop_recursive(2, 8, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Filter::And),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Filter::Or),
            inner.prop_map(Filter::not),
        ]
    })
}

fn arb_doc() -> impl Strategy<Value = Document> {
    proptest::collection::btree_map("[a-d]", arb_value(), 0..5)
        .prop_map(|m| m.into_iter().collect())
}

/// One step of the predicate-index equivalence workload.
#[derive(Debug, Clone)]
enum MatchOp {
    Register(usize),
    Deregister(usize),
    Write(usize, Document),
    Delete(usize),
}

fn arb_match_op() -> impl Strategy<Value = MatchOp> {
    prop_oneof![
        (0usize..12).prop_map(MatchOp::Register),
        (0usize..12).prop_map(MatchOp::Deregister),
        ((0usize..8), arb_doc()).prop_map(|(slot, d)| MatchOp::Write(slot, d)),
        (0usize..8).prop_map(MatchOp::Delete),
    ]
}

/// The query universe for the equivalence test: a mix of indexable
/// equalities (incl. conjunctions) and residual shapes (ranges, Or, Not).
fn match_query(i: usize) -> Query {
    let filter = match i % 6 {
        0 => Filter::eq("a", (i as i64) % 4),
        1 => Filter::eq("b", "bb"),
        2 => Filter::and([Filter::eq("a", (i as i64) % 3), Filter::gt("c", -5)]),
        3 => Filter::gt("c", (i as i64) % 4 - 2),
        4 => Filter::or([Filter::eq("a", 0), Filter::eq("b", "ab")]),
        _ => Filter::not(Filter::eq("d", (i as i64) % 3)),
    };
    Query::table("t").filter(filter)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The predicate-indexed `MatchingNode` must produce exactly the same
    /// notifications as the linear-scan reference across arbitrary
    /// register / deregister / write / delete sequences, and its
    /// `evaluations + evaluations_skipped` must account for every
    /// evaluation the linear node performed.
    #[test]
    fn predicate_index_equals_linear_scan(
        ops in proptest::collection::vec(arb_match_op(), 1..60),
    ) {
        use quaestor::invalidb::MatchingNode;

        let mut indexed = MatchingNode::new();
        let mut linear = MatchingNode::linear();
        let mut alive: Vec<Option<bool>> = vec![None; 8]; // record exists?
        let mut seq = 0u64;
        for op in ops {
            match op {
                MatchOp::Register(i) => {
                    let q = match_query(i);
                    let k = QueryKey::of(&q);
                    indexed.register(q.clone(), k.clone(), vec![]);
                    linear.register(q, k, vec![]);
                }
                MatchOp::Deregister(i) => {
                    let k = QueryKey::of(&match_query(i));
                    prop_assert_eq!(indexed.deregister(&k), linear.deregister(&k));
                }
                MatchOp::Write(slot, d) => {
                    seq += 1;
                    let id = format!("r{slot}");
                    let mut with_id = d.clone();
                    with_id.insert("_id", Value::str(&id));
                    let kind = if alive[slot] == Some(true) {
                        quaestor::store::WriteKind::Update
                    } else {
                        quaestor::store::WriteKind::Insert
                    };
                    alive[slot] = Some(true);
                    let ev = quaestor::store::WriteEvent {
                        table: "t".into(),
                        id: id.as_str().into(),
                        kind,
                        image: Arc::new(with_id),
                        version: seq,
                        seq,
                        at: quaestor::common::Timestamp::from_millis(seq),
                    };
                    let mut a = indexed.process(&ev);
                    let mut b = linear.process(&ev);
                    a.sort_by(|x, y| x.query.cmp(&y.query));
                    b.sort_by(|x, y| x.query.cmp(&y.query));
                    prop_assert_eq!(a, b, "write divergence at seq {}", seq);
                }
                MatchOp::Delete(slot) => {
                    if alive[slot] != Some(true) {
                        continue;
                    }
                    alive[slot] = Some(false);
                    seq += 1;
                    let id = format!("r{slot}");
                    let ev = quaestor::store::WriteEvent {
                        table: "t".into(),
                        id: id.as_str().into(),
                        kind: quaestor::store::WriteKind::Delete,
                        image: Arc::new(Document::new()),
                        version: seq,
                        seq,
                        at: quaestor::common::Timestamp::from_millis(seq),
                    };
                    let mut a = indexed.process(&ev);
                    let mut b = linear.process(&ev);
                    a.sort_by(|x, y| x.query.cmp(&y.query));
                    b.sort_by(|x, y| x.query.cmp(&y.query));
                    prop_assert_eq!(a, b, "delete divergence at seq {}", seq);
                }
            }
        }
        prop_assert_eq!(
            indexed.evaluations() + indexed.evaluations_skipped(),
            linear.evaluations() + linear.evaluations_skipped(),
            "the index must account for every pruned evaluation"
        );
    }

    /// The store's (index-capable, sharded) query execution must agree
    /// with the reference semantics `matcher::execute` for any documents,
    /// filter and pagination.
    #[test]
    fn store_query_matches_reference(
        docs in proptest::collection::vec(arb_doc(), 0..30),
        filter in arb_filter(),
        limit in proptest::option::of(0usize..10),
        offset in 0usize..5,
        desc in any::<bool>(),
    ) {
        let db = Database::new();
        let table = db.create_table("t");
        table.create_index("a");
        let mut reference_docs = Vec::new();
        for (i, d) in docs.iter().enumerate() {
            let id = format!("r{i:03}");
            table.insert(&id, d.clone()).unwrap();
            let mut with_id = d.clone();
            with_id.insert("_id", Value::str(&id));
            reference_docs.push(with_id);
        }
        let mut q = Query::table("t")
            .filter(filter)
            .sort_by("b", if desc { Order::Desc } else { Order::Asc })
            .offset(offset);
        q.limit = limit;
        let got: Vec<String> = table
            .query(&q)
            .iter()
            .map(|d| d["_id"].as_str().unwrap().to_owned())
            .collect();
        let want: Vec<String> = matcher::execute(&q, reference_docs.iter())
            .iter()
            .map(|d| d["_id"].as_str().unwrap().to_owned())
            .collect();
        prop_assert_eq!(got, want);
    }

    /// InvaliDB's incremental matching must agree with re-evaluating the
    /// query from scratch after every write.
    #[test]
    fn invalidb_tracks_reference_result(
        initial in proptest::collection::vec(arb_doc(), 0..10),
        updates in proptest::collection::vec((0usize..10, arb_doc()), 1..20),
        filter in arb_filter(),
    ) {
        let cluster = InvaliDbCluster::default();
        let q = Query::table("t").filter(filter.clone());
        // Seed state.
        let mut current: Vec<Option<Document>> = vec![None; 10];
        let mut seeded = Vec::new();
        for (i, d) in initial.iter().enumerate() {
            let mut with_id = d.clone();
            with_id.insert("_id", Value::str(format!("r{i}")));
            if matcher::matches(&filter, &with_id) {
                seeded.push(Arc::new(with_id.clone()));
            }
            current[i] = Some(with_id);
        }
        cluster.register_query(&q, &QueryKey::of(&q), &seeded, cluster.ingest_mark());

        let mut seq = 100u64;
        for (slot, newdoc) in updates {
            seq += 1;
            let id = format!("r{slot}");
            let mut with_id = newdoc.clone();
            with_id.insert("_id", Value::str(&id));
            let was = current[slot]
                .as_ref()
                .is_some_and(|d| matcher::matches(&filter, d));
            let is = matcher::matches(&filter, &with_id);
            let kind = if current[slot].is_some() {
                quaestor::store::WriteKind::Update
            } else {
                quaestor::store::WriteKind::Insert
            };
            let event = quaestor::store::WriteEvent {
                table: "t".into(),
                id: id.as_str().into(),
                kind,
                image: Arc::new(with_id.clone()),
                version: seq,
                seq,
                at: quaestor::common::Timestamp::from_millis(seq),
            };
            let notes = cluster.on_write(&event);
            current[slot] = Some(with_id);
            match (was, is) {
                (false, true) => {
                    prop_assert_eq!(notes.len(), 1, "expected add for {}", id);
                    prop_assert_eq!(notes[0].event, NotificationEvent::Add);
                }
                (true, false) => {
                    prop_assert_eq!(notes.len(), 1, "expected remove for {}", id);
                    prop_assert_eq!(notes[0].event, NotificationEvent::Remove);
                }
                (true, true) => {
                    prop_assert_eq!(notes.len(), 1, "expected change for {}", id);
                    prop_assert_eq!(notes[0].event, NotificationEvent::Change);
                }
                (false, false) => prop_assert!(notes.is_empty(), "expected silence for {}", id),
            }
        }
    }

    /// Round-tripping documents through the full client/cache/server
    /// stack (serialize → cache → parse) never changes their content.
    #[test]
    fn cached_bodies_roundtrip_documents(
        fields in proptest::collection::btree_map("[a-z]{1,6}", prop_oneof![
            (-1_000_000i64..1_000_000).prop_map(Value::Int),
            "[a-zA-Z0-9 _.-]{0,16}".prop_map(Value::str),
            any::<bool>().prop_map(Value::Bool),
            Just(Value::Null),
        ], 0..8)
    ) {
        use quaestor::prelude::*;
        let clock = ManualClock::new();
        let server = QuaestorServer::with_defaults(clock.clone());
        let client = QuaestorClient::connect(
            server.clone(), &[], ClientConfig::default(), clock.clone());
        let document: Document = fields.into_iter().collect();
        client.insert("t", "x", document.clone()).unwrap();
        // First read fills the browser cache; second parses the cached body.
        client.read_record("t", "x").unwrap();
        let got = client.read_record("t", "x").unwrap();
        prop_assert_eq!(got.served_by, ServedBy::Layer(0));
        for (k, v) in &document {
            prop_assert_eq!(got.doc.get(k.as_str()), Some(v), "field {}", k);
        }
    }

    /// Updates applied through the server must equal updates applied to a
    /// plain map (the store adds only `_id`).
    #[test]
    fn server_updates_match_plain_application(
        base in arb_doc(),
        incs in proptest::collection::vec(("[a-d]", -5.0f64..5.0), 1..6),
    ) {
        use quaestor::prelude::*;
        let clock = ManualClock::new();
        let server = QuaestorServer::with_defaults(clock.clone());
        server.insert("t", "x", base.clone()).unwrap();
        let mut expected = base.clone();
        expected.insert("_id", Value::str("x"));
        for (field, delta) in incs {
            let update = Update::new().inc(field.as_str(), delta);
            let server_result = server.update("t", "x", &update);
            let plain_result = update.apply(&mut expected);
            prop_assert_eq!(server_result.is_ok(), plain_result.is_ok());
        }
        let current = server.get_record("t", "x").unwrap();
        prop_assert_eq!((*current.doc).clone(), expected);
    }

    /// A `Request::Batch` of writes through `Service::call` must be
    /// observationally identical to the same writes issued as singleton
    /// calls: same per-op outcomes, same final state, in order.
    #[test]
    fn batched_writes_match_singleton_writes(
        docs in proptest::collection::vec(arb_doc(), 1..8),
        rewrites in proptest::collection::vec((0usize..8, arb_doc()), 0..8),
    ) {
        use quaestor::common::ManualClock;
        use quaestor::core::QuaestorServer;

        let mut requests: Vec<Request> = Vec::new();
        for (i, d) in docs.iter().enumerate() {
            requests.push(Request::Insert {
                table: "t".into(),
                id: format!("r{i}"),
                doc: d.clone(),
            });
        }
        for (slot, d) in &rewrites {
            requests.push(Request::Replace {
                table: "t".into(),
                id: format!("r{slot}"), // may or may not exist: error path too
                doc: d.clone(),
            });
        }

        let batched = QuaestorServer::with_defaults(ManualClock::new());
        let singleton = QuaestorServer::with_defaults(ManualClock::new());
        let batch_results = batched.batch(requests.clone()).unwrap();
        let single_results: Vec<_> = requests
            .into_iter()
            .map(|r| Service::call(&*singleton, r))
            .collect();
        prop_assert_eq!(batch_results.len(), single_results.len());
        for (b, s) in batch_results.iter().zip(&single_results) {
            match (b, s) {
                (Ok(Response::Written { version: vb, image: ib }),
                 Ok(Response::Written { version: vs, image: is })) => {
                    prop_assert_eq!(vb, vs);
                    prop_assert_eq!(ib.as_ref(), is.as_ref());
                }
                (Err(eb), Err(es)) => prop_assert_eq!(eb, es),
                other => prop_assert!(false, "outcome mismatch: {:?}", other),
            }
        }
        // Final states agree table-wide.
        for i in 0..8 {
            let id = format!("r{i}");
            let a = batched.get_record("t", &id).ok().map(|r| (r.etag, (*r.doc).clone()));
            let b = singleton.get_record("t", &id).ok().map(|r| (r.etag, (*r.doc).clone()));
            prop_assert_eq!(a, b, "record {}", id);
        }
    }
}
