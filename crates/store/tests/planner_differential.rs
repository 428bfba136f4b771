//! Differential tests for the query planner: for any documents, declared
//! indexes, filter shape and pagination, `Table::query` (the planner) and
//! `Table::scan_query` (the kept reference scan) must return the *same*
//! documents in the *same* order — and `Table::explain` must pick the
//! access path each filter shape is supposed to get.

use std::sync::Arc;

use proptest::prelude::*;
use quaestor_document::{doc, Document, Value};
use quaestor_query::{Filter, Op, Order, Query};
use quaestor_store::{AccessPath, Database, IndexKind, SortStrategy, Table};

fn ids_of(docs: &[Arc<Document>]) -> Vec<String> {
    docs.iter()
        .map(|d| d["_id"].as_str().unwrap().to_owned())
        .collect()
}

// ---------------------------------------------------------------- proptest

fn arb_value() -> impl Strategy<Value = Value> {
    prop_oneof![
        (-8i64..8).prop_map(Value::Int),
        (-4i64..4).prop_map(|i| Value::Float(i as f64 + 0.5)),
        "[a-c]{1,2}".prop_map(Value::str),
        Just(Value::Null),
        // Array fields: the multikey cases (implicit $elemMatch, the
        // multi-element range trap, whole-array keys).
        proptest::collection::vec((-8i64..8).prop_map(Value::Int), 1..3).prop_map(Value::Array),
    ]
}

fn arb_doc() -> impl Strategy<Value = Document> {
    proptest::collection::btree_map("[a-d]", arb_value(), 0..4)
        .prop_map(|m| m.into_iter().collect())
}

fn arb_filter() -> impl Strategy<Value = Filter> {
    let leaf = prop_oneof![
        Just(Filter::True),
        ("[a-d]", arb_value()).prop_map(|(p, v)| Filter::Cmp(p.as_str().into(), Op::Eq(v))),
        ("[a-d]", -8i64..8).prop_map(|(p, v)| Filter::gt(p.as_str(), v)),
        ("[a-d]", -8i64..8).prop_map(|(p, v)| Filter::gte(p.as_str(), v)),
        ("[a-d]", -8i64..8).prop_map(|(p, v)| Filter::lt(p.as_str(), v)),
        ("[a-d]", -8i64..8).prop_map(|(p, v)| Filter::lte(p.as_str(), v)),
        ("[a-d]", proptest::collection::vec(arb_value(), 0..3))
            .prop_map(|(p, vs)| Filter::is_in(p.as_str(), vs)),
        ("[a-d]", arb_value()).prop_map(|(p, v)| Filter::Cmp(p.as_str().into(), Op::Contains(v))),
        "[a-d]".prop_map(|p| Filter::exists(p.as_str())),
        ("[a-d]", arb_value()).prop_map(|(p, v)| Filter::ne(p.as_str(), v)),
    ];
    leaf.prop_recursive(2, 10, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 1..4).prop_map(Filter::And),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Filter::Or),
            proptest::collection::vec(inner.clone(), 1..3).prop_map(Filter::Nor),
            inner.prop_map(Filter::not),
        ]
    })
}

/// Which indexes to declare, as a bitmask over a fixed spec universe.
fn arb_indexes() -> impl Strategy<Value = Vec<(&'static str, IndexKind)>> {
    let universe = [
        ("a", IndexKind::Hash),
        ("b", IndexKind::Hash),
        ("a", IndexKind::Ordered),
        ("b", IndexKind::Ordered),
        ("c", IndexKind::Ordered),
        ("d", IndexKind::Hash),
        ("d", IndexKind::Ordered),
    ];
    (0u32..128).prop_map(move |mask| {
        universe
            .iter()
            .enumerate()
            .filter(|(i, _)| mask & (1 << i) != 0)
            .map(|(_, spec)| *spec)
            .collect()
    })
}

proptest! {
    /// The headline differential: planner ≡ reference scan, for every
    /// combination of docs, indexes, filters (equalities, ranges, `$or`,
    /// negations, array fields), sort order, limit and offset — results
    /// identical including order.
    #[test]
    fn planner_equals_reference_scan(
        docs in proptest::collection::vec(arb_doc(), 0..25),
        late_docs in proptest::collection::vec(arb_doc(), 0..8),
        indexes in arb_indexes(),
        filter in arb_filter(),
        sort_path in proptest::option::of("[a-d]"),
        desc in any::<bool>(),
        limit in proptest::option::of(0usize..8),
        offset in 0usize..4,
    ) {
        let db = Database::new();
        let table = db.create_table("t");
        for (i, d) in docs.iter().enumerate() {
            table.insert(&format!("r{i:03}"), d.clone()).unwrap();
        }
        // Declare half the indexes after the initial load (backfill path),
        // the rest before the late writes (maintenance path).
        for (path, kind) in &indexes {
            db.declare_index("t", *path, *kind);
        }
        for (i, d) in late_docs.iter().enumerate() {
            table.insert(&format!("s{i:03}"), d.clone()).unwrap();
        }
        let mut q = Query::table("t").filter(filter).offset(offset);
        if let Some(p) = &sort_path {
            q = q.sort_by(p.as_str(), if desc { Order::Desc } else { Order::Asc });
        }
        q.limit = limit;

        let planned = ids_of(&table.query(&q));
        let reference = ids_of(&table.scan_query(&q));
        prop_assert_eq!(
            &planned, &reference,
            "plan {:?} diverged from the reference scan", table.explain(&q)
        );
        // query_ids must agree with the document path, in order.
        prop_assert_eq!(table.query_ids(&q), planned);
    }

    /// Mutations keep every index kind fresh: after updates and deletes
    /// the planner still agrees with the reference scan.
    #[test]
    fn planner_agrees_after_updates_and_deletes(
        docs in proptest::collection::vec(arb_doc(), 1..15),
        rewrites in proptest::collection::vec((0usize..15, arb_doc()), 0..8),
        deletes in proptest::collection::vec(0usize..15, 0..5),
        filter in arb_filter(),
    ) {
        let db = Database::new();
        db.declare_index("t", "a", IndexKind::Hash);
        db.declare_index("t", "a", IndexKind::Ordered);
        db.declare_index("t", "b", IndexKind::Ordered);
        let table = db.create_table("t");
        for (i, d) in docs.iter().enumerate() {
            table.insert(&format!("r{i:03}"), d.clone()).unwrap();
        }
        for (slot, d) in &rewrites {
            let id = format!("r{:03}", slot % docs.len());
            let _ = table.replace(&id, d.clone(), None);
        }
        for slot in &deletes {
            let _ = table.delete(&format!("r{:03}", slot % docs.len()), None);
        }
        let q = Query::table("t").filter(filter);
        prop_assert_eq!(ids_of(&table.query(&q)), ids_of(&table.scan_query(&q)));
    }
}

// ------------------------------------------------------------ explain pins

fn loaded_table(db: &Arc<Database>) -> Arc<Table> {
    let table = db.create_table("posts");
    for i in 0..50i64 {
        table
            .insert(
                &format!("p{i:02}"),
                doc! {
                    "topic" => if i % 5 == 0 { "db" } else { "ml" },
                    "author" => format!("u{}", i % 10),
                    "likes" => i,
                    "noise" => (i * 37) % 50
                },
            )
            .unwrap();
    }
    table
}

#[test]
fn explain_picks_hash_probe_for_indexed_equality() {
    let db = Database::new();
    let table = loaded_table(&db);
    table.create_index("topic");
    let q = Query::table("posts").filter(Filter::eq("topic", "db"));
    let plan = table.explain(&q);
    assert_eq!(
        plan.access,
        AccessPath::HashProbe {
            paths: vec!["topic".into()],
            estimated: 10,
        }
    );
    assert_eq!(plan.sort, SortStrategy::FullSort);
}

#[test]
fn explain_intersects_multiple_equalities_smallest_first() {
    let db = Database::new();
    let table = loaded_table(&db);
    table.create_index("topic"); // 10 postings for "db"
    table.create_index("author"); // 5 postings for "u0"
    let q = Query::table("posts").filter(Filter::and([
        Filter::eq("topic", "db"),
        Filter::eq("author", "u0"),
    ]));
    match table.explain(&q).access {
        AccessPath::HashProbe { paths, estimated } => {
            assert_eq!(
                paths,
                vec!["author".into(), "topic".into()],
                "smallest first"
            );
            assert_eq!(estimated, 5);
        }
        other => panic!("expected hash probe, got {other:?}"),
    }
    let hits = table.query(&q);
    assert_eq!(ids_of(&hits), ids_of(&table.scan_query(&q)));
}

#[test]
fn explain_picks_range_scan_for_indexed_ranges() {
    let db = Database::new();
    let table = loaded_table(&db);
    table.create_ordered_index("likes");
    let q = Query::table("posts").filter(Filter::and([
        Filter::gte("likes", 10),
        Filter::lt("likes", 14),
    ]));
    match table.explain(&q).access {
        AccessPath::RangeScan { path, estimated } => {
            assert_eq!(path, "likes".into());
            assert_eq!(estimated, 4, "merged bounds walk exactly the interval");
        }
        other => panic!("expected range scan, got {other:?}"),
    }
    assert_eq!(table.query(&q).len(), 4);
}

#[test]
fn explain_serves_equality_from_ordered_index_without_hash() {
    let db = Database::new();
    let table = loaded_table(&db);
    table.create_ordered_index("likes");
    let q = Query::table("posts").filter(Filter::eq("likes", 7));
    assert!(matches!(
        table.explain(&q).access,
        AccessPath::RangeScan { estimated: 1, .. }
    ));
    assert_eq!(table.query(&q).len(), 1);
}

#[test]
fn explain_falls_back_to_full_scan() {
    let db = Database::new();
    let table = loaded_table(&db);
    // No indexes at all: everything scans.
    let range = Query::table("posts").filter(Filter::gt("likes", 10));
    assert!(matches!(
        table.explain(&range).access,
        AccessPath::FullScan { estimated: 50 }
    ));
    // Indexed paths don't help $or at the top level.
    table.create_index("topic");
    let or = Query::table("posts").filter(Filter::or([
        Filter::eq("topic", "db"),
        Filter::gt("likes", 45),
    ]));
    assert!(matches!(or.filter, Filter::Or(_)));
    assert!(matches!(
        table.explain(&or).access,
        AccessPath::FullScan { .. }
    ));
}

#[test]
fn explain_detects_unsatisfiable_merged_bounds() {
    let db = Database::new();
    let table = loaded_table(&db);
    table.create_ordered_index("likes");
    let q = Query::table("posts").filter(Filter::and([
        Filter::gt("likes", 40),
        Filter::lt("likes", 10),
    ]));
    assert_eq!(table.explain(&q).access, AccessPath::Empty);
    assert!(table.query(&q).is_empty());
    assert!(table.scan_query(&q).is_empty());
}

#[test]
fn explain_pushes_sort_into_ordered_index() {
    let db = Database::new();
    let table = loaded_table(&db);
    table.create_ordered_index("likes");
    let q = Query::table("posts").sort_by("likes", Order::Desc).limit(5);
    let plan = table.explain(&q);
    assert_eq!(
        plan.sort,
        SortStrategy::IndexOrder {
            path: "likes".into(),
            reverse: true,
        }
    );
    let likes: Vec<i64> = table
        .query(&q)
        .iter()
        .map(|d| d["likes"].as_i64().unwrap())
        .collect();
    assert_eq!(likes, vec![49, 48, 47, 46, 45]);
}

#[test]
fn explain_combines_range_access_with_index_order() {
    let db = Database::new();
    let table = loaded_table(&db);
    table.create_ordered_index("likes");
    let q = Query::table("posts")
        .filter(Filter::gte("likes", 20))
        .sort_by("likes", Order::Asc)
        .offset(2)
        .limit(3);
    let plan = table.explain(&q);
    assert!(matches!(plan.access, AccessPath::RangeScan { .. }));
    assert!(matches!(
        plan.sort,
        SortStrategy::IndexOrder { reverse: false, .. }
    ));
    let likes: Vec<i64> = table
        .query(&q)
        .iter()
        .map(|d| d["likes"].as_i64().unwrap())
        .collect();
    assert_eq!(likes, vec![22, 23, 24]);
}

#[test]
fn explain_uses_topk_when_sort_key_is_not_indexed() {
    let db = Database::new();
    let table = loaded_table(&db);
    let q = Query::table("posts")
        .sort_by("noise", Order::Asc)
        .offset(1)
        .limit(4);
    assert_eq!(table.explain(&q).sort, SortStrategy::TopK { k: 5 });
    assert_eq!(ids_of(&table.query(&q)), ids_of(&table.scan_query(&q)));
    // Sort-less limits are top-k under the deterministic _id order.
    let bare = Query::table("posts").limit(3);
    assert_eq!(table.explain(&bare).sort, SortStrategy::TopK { k: 3 });
    assert_eq!(
        ids_of(&table.query(&bare)),
        vec!["p00".to_string(), "p01".into(), "p02".into()]
    );
}

#[test]
fn multikey_ordered_index_disables_pushdown_but_stays_exact() {
    let db = Database::new();
    let table = db.create_table("posts");
    table.create_ordered_index("tags");
    table
        .insert("a", doc! { "tags" => vec![1i64, 100] })
        .unwrap();
    table.insert("b", doc! { "tags" => vec![7i64] }).unwrap();
    table.insert("c", doc! { "tags" => 55i64 }).unwrap();
    // The multi-element trap: `tags > 5 AND tags < 9` matches "a" via two
    // *different* elements (100 and 1) — merged bounds would miss it.
    let q =
        Query::table("posts").filter(Filter::and([Filter::gt("tags", 5), Filter::lt("tags", 9)]));
    let got = ids_of(&table.query(&q));
    assert_eq!(got, ids_of(&table.scan_query(&q)));
    assert!(got.contains(&"a".to_string()), "multi-element match kept");
    // And sort pushdown is off: whole-array order != element order.
    let sorted = Query::table("posts").sort_by("tags", Order::Asc).limit(2);
    assert_eq!(table.explain(&sorted).sort, SortStrategy::TopK { k: 2 });
    assert_eq!(
        ids_of(&table.query(&sorted)),
        ids_of(&table.scan_query(&sorted))
    );
}

#[test]
fn missing_sort_fields_emit_at_the_null_position() {
    let db = Database::new();
    let table = db.create_table("posts");
    table.create_ordered_index("rank");
    table.insert("has1", doc! { "rank" => 2i64 }).unwrap();
    table.insert("none", doc! { "other" => 1i64 }).unwrap();
    table
        .insert("null", doc! { "rank" => Value::Null })
        .unwrap();
    table.insert("has2", doc! { "rank" => 1i64 }).unwrap();
    // LIMIT keeps the index-order path (unlimited full-scan sorts are
    // priced as cheaper via scan + sort); 4 covers every record.
    let asc = Query::table("posts").sort_by("rank", Order::Asc).limit(4);
    assert!(matches!(
        table.explain(&asc).sort,
        SortStrategy::IndexOrder { reverse: false, .. }
    ));
    // Unlimited sorts over a full scan deliberately stay on the sort
    // path — same results either way.
    let unlimited = Query::table("posts").sort_by("rank", Order::Asc);
    assert_eq!(table.explain(&unlimited).sort, SortStrategy::FullSort);
    assert_eq!(
        ids_of(&table.query(&unlimited)),
        ids_of(&table.scan_query(&unlimited))
    );
    // "none" and "null" tie at the Null rank; `_id` breaks the tie.
    assert_eq!(
        ids_of(&table.query(&asc)),
        vec!["none", "null", "has2", "has1"]
    );
    assert_eq!(ids_of(&table.query(&asc)), ids_of(&table.scan_query(&asc)));
    let desc = Query::table("posts").sort_by("rank", Order::Desc).limit(3);
    assert_eq!(
        ids_of(&table.query(&desc)),
        ids_of(&table.scan_query(&desc))
    );
}

#[test]
fn hash_probe_matches_numeric_equality_beyond_2_pow_53() {
    // Int(2^60) == Float(2^60) under the f64-projected numeric order;
    // the probe must hit even though their canonical strings differ
    // (Value's Hash goes through the equality-consistent rendering).
    let db = Database::new();
    let table = db.create_table("posts");
    table.create_index("n");
    table.insert("big", doc! { "n" => 1i64 << 60 }).unwrap();
    let q = Query::table("posts").filter(Filter::eq("n", (1u64 << 60) as f64));
    assert!(matches!(
        table.explain(&q).access,
        AccessPath::HashProbe { .. }
    ));
    assert_eq!(table.query(&q).len(), 1);
    assert_eq!(ids_of(&table.query(&q)), ids_of(&table.scan_query(&q)));
}

#[test]
fn planner_counters_track_access_paths() {
    let db = Database::new();
    let table = loaded_table(&db);
    table.create_index("topic");
    table.create_ordered_index("likes");
    table
        .query(&Query::table("posts").filter(Filter::eq("topic", "db")))
        .len();
    table
        .query(&Query::table("posts").filter(Filter::gt("likes", 40)))
        .len();
    table.query(&Query::table("posts")).len();
    table
        .query(&Query::table("posts").sort_by("noise", Order::Asc).limit(2))
        .len();
    let stats = db.query_stats();
    assert_eq!(stats.index_probes.get(), 1);
    assert_eq!(stats.range_scans.get(), 1);
    assert_eq!(
        stats.full_scans.get(),
        2,
        "bare scan + unindexed top-k scan"
    );
    assert_eq!(
        stats.topk_short_circuits.get(),
        1,
        "only the LIMIT query short-circuited its sort"
    );
}

#[test]
fn declared_indexes_apply_to_later_tables() {
    let db = Database::new();
    db.declare_index("late", "n", IndexKind::Ordered);
    let table = db.create_table("late");
    for i in 0..20i64 {
        table
            .insert(&format!("r{i:02}"), doc! { "n" => i })
            .unwrap();
    }
    let q = Query::table("late").filter(Filter::lt("n", 3));
    assert!(matches!(
        table.explain(&q).access,
        AccessPath::RangeScan { estimated: 3, .. }
    ));
    // Redeclaration is idempotent.
    db.declare_index("late", "n", IndexKind::Ordered);
    assert_eq!(ids_of(&table.query(&q)), vec!["r00", "r01", "r02"]);
}
