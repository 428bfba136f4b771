//! Canonical query strings: the cache key.
//!
//! Web caches "only serve non-expired resources by their unique URL" (§2),
//! so Quaestor addresses a cached query result by its *normalized query
//! string*. Normalization must guarantee:
//!
//! 1. **Determinism** — the same `Query` value always yields the same key.
//! 2. **Structural identification** — queries differing only in the order
//!    of commutative conjuncts/disjuncts or `$in` lists map to one key, so
//!    the cache is not fragmented and InvaliDB maintains one result per
//!    logical query.
//!
//! The key doubles as the EBF member for stale queries ("the key (i.e. the
//! normalized query string or record id) is hashed", §3.1).

use quaestor_common::fx_hash_str;
use quaestor_document::{Path, Value};
use serde::{Deserialize, Serialize};

use crate::filter::{Filter, Op, Order, Query};

/// A normalized query key: the canonical string plus its stable hash.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct QueryKey {
    canonical: String,
}

impl QueryKey {
    /// Normalize a query into its canonical cache key.
    pub fn of(query: &Query) -> QueryKey {
        let mut s = String::with_capacity(64);
        s.push_str("q:");
        s.push_str(&query.table);
        s.push('?');
        write_filter(&normalize_filter(&query.filter), &mut s);
        if !query.sort.is_empty() {
            s.push_str("&sort=");
            for (i, k) in query.sort.iter().enumerate() {
                if i > 0 {
                    s.push(',');
                }
                s.push_str(k.path.as_str());
                s.push(match k.order {
                    Order::Asc => '+',
                    Order::Desc => '-',
                });
            }
        }
        if let Some(l) = query.limit {
            s.push_str("&limit=");
            s.push_str(&l.to_string());
        }
        if query.offset > 0 {
            s.push_str("&offset=");
            s.push_str(&query.offset.to_string());
        }
        QueryKey { canonical: s }
    }

    /// Key for a record read (records share the EBF namespace with
    /// queries; Theorem 1 "subsumes record caching, if q is substituted by
    /// the record id").
    pub fn record(table: &str, id: &str) -> QueryKey {
        QueryKey {
            canonical: format!("r:{table}/{id}"),
        }
    }

    /// The canonical string (usable as a URL path + query string).
    pub fn as_str(&self) -> &str {
        &self.canonical
    }

    /// Rehydrate a key from a canonical string previously produced by
    /// [`as_str`](Self::as_str) — the decode half of transporting keys
    /// over the wire or storing them in a log. The string is trusted:
    /// no re-normalization happens, so feeding anything that did not
    /// come from a `QueryKey` yields a key that matches nothing.
    pub fn from_canonical(canonical: impl Into<String>) -> QueryKey {
        QueryKey {
            canonical: canonical.into(),
        }
    }

    /// Stable 64-bit hash, used for partitioning queries across InvaliDB
    /// matching nodes and EBF shards.
    pub fn stable_hash(&self) -> u64 {
        fx_hash_str(&self.canonical)
    }

    /// True if this key denotes a record rather than a query.
    pub fn is_record(&self) -> bool {
        self.canonical.starts_with("r:")
    }

    /// The table this key addresses (`q:<table>?...` / `r:<table>/<id>`) —
    /// the routing key for shard routers and per-table EBF partitions.
    pub fn table(&self) -> &str {
        let rest = self.canonical.get(2..).unwrap_or("");
        let end = rest.find(['?', '/']).unwrap_or(rest.len());
        &rest[..end]
    }
}

impl std::fmt::Display for QueryKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.canonical)
    }
}

/// One index-servable conjunct of a filter: a predicate every matching
/// document *must* satisfy, in a shape a secondary index can serve.
///
/// Extracted by [`index_bindings`]; consumed by the store's query planner
/// (equality → hash-index probe, range → ordered-index scan).
#[derive(Debug, Clone, PartialEq)]
pub enum IndexBinding {
    /// The field at `path` equals `value` (or, for array fields, some
    /// element does — the matcher's implicit `$elemMatch`).
    Eq {
        /// Pinned field path.
        path: Path,
        /// Pinned value.
        value: Value,
    },
    /// The field at `path` (or some array element) lies in a half-open
    /// interval under the canonical BSON-style value order. Exactly one
    /// side is set per extracted conjunct (`$gt`/`$gte` → `lower`,
    /// `$lt`/`$lte` → `upper`); the planner merges sides per path where
    /// that is semantically safe.
    Range {
        /// Bounded field path.
        path: Path,
        /// Lower bound `(value, inclusive)`.
        lower: Option<(Value, bool)>,
        /// Upper bound `(value, inclusive)`.
        upper: Option<(Value, bool)>,
    },
}

impl IndexBinding {
    /// The bound field path.
    pub fn path(&self) -> &Path {
        match self {
            IndexBinding::Eq { path, .. } | IndexBinding::Range { path, .. } => path,
        }
    }
}

/// Decompose a filter's top-level conjunction into index-servable
/// conjuncts. Every returned binding is a *necessary* condition: a
/// document violating it cannot match the filter, so an index probe over
/// the binding plus a residual re-check of the full filter is exact.
///
/// Call this on a [`normalize_filter`]-normalized filter — normalization
/// flattens nested `And`s and collapses singleton combinators, so the
/// top-level walk here sees every conjunct. (On a non-normalized filter
/// the result is still sound, merely incomplete.) Operators that missing
/// fields can satisfy (`$ne`, `$nin`, `$exists:false`) and operators with
/// value semantics an equality/order index cannot mirror (`$contains` on
/// strings is substring match, `$in` is a union, …) are never extracted.
pub fn index_bindings(filter: &Filter) -> Vec<IndexBinding> {
    let mut out = Vec::new();
    match filter {
        Filter::And(fs) => {
            for f in fs {
                push_binding(f, &mut out);
            }
        }
        f => push_binding(f, &mut out),
    }
    out
}

fn push_binding(f: &Filter, out: &mut Vec<IndexBinding>) {
    let Filter::Cmp(path, op) = f else { return };
    let binding = match op {
        Op::Eq(v) => IndexBinding::Eq {
            path: path.clone(),
            value: v.clone(),
        },
        Op::Gt(v) => IndexBinding::Range {
            path: path.clone(),
            lower: Some((v.clone(), false)),
            upper: None,
        },
        Op::Gte(v) => IndexBinding::Range {
            path: path.clone(),
            lower: Some((v.clone(), true)),
            upper: None,
        },
        Op::Lt(v) => IndexBinding::Range {
            path: path.clone(),
            lower: None,
            upper: Some((v.clone(), false)),
        },
        Op::Lte(v) => IndexBinding::Range {
            path: path.clone(),
            lower: None,
            upper: Some((v.clone(), true)),
        },
        _ => return,
    };
    out.push(binding);
}

/// Structurally normalize a filter:
/// * flatten nested `And`/`Or` of the same kind,
/// * drop `True` from conjunctions, collapse singleton combinators,
/// * sort commutative operand lists (`And`, `Or`, `Nor`, `$in`, `$nin`,
///   `$all`) by canonical rendering,
/// * cancel double negation.
pub fn normalize_filter(filter: &Filter) -> Filter {
    match filter {
        Filter::True => Filter::True,
        Filter::Cmp(path, op) => Filter::Cmp(path.clone(), normalize_op(op)),
        Filter::And(fs) => {
            let mut flat = Vec::new();
            flatten_and(fs, &mut flat);
            flat.retain(|f| !matches!(f, Filter::True));
            normalize_list(flat, Filter::And, Filter::True)
        }
        Filter::Or(fs) => {
            let mut flat = Vec::new();
            flatten_or(fs, &mut flat);
            // An empty disjunction is unsatisfiable — it must stay `Or([])`
            // (there is deliberately no `False` variant; it never occurs in
            // user queries).
            normalize_list(flat, Filter::Or, Filter::Or(Vec::new()))
        }
        Filter::Nor(fs) => {
            let mut items: Vec<Filter> = fs.iter().map(normalize_filter).collect();
            sort_filters(&mut items);
            Filter::Nor(items)
        }
        Filter::Not(inner) => match normalize_filter(inner) {
            // ¬¬f = f
            Filter::Not(f) => *f,
            f => Filter::Not(Box::new(f)),
        },
    }
}

fn flatten_and(fs: &[Filter], out: &mut Vec<Filter>) {
    for f in fs {
        match normalize_filter(f) {
            Filter::And(inner) => out.extend(inner),
            other => out.push(other),
        }
    }
}

fn flatten_or(fs: &[Filter], out: &mut Vec<Filter>) {
    for f in fs {
        match normalize_filter(f) {
            Filter::Or(inner) => out.extend(inner),
            other => out.push(other),
        }
    }
}

fn normalize_list(
    mut items: Vec<Filter>,
    wrap: impl FnOnce(Vec<Filter>) -> Filter,
    empty: Filter,
) -> Filter {
    sort_filters(&mut items);
    items.dedup();
    match items.len() {
        0 => empty,
        1 => items.pop().unwrap(),
        _ => wrap(items),
    }
}

fn sort_filters(items: &mut [Filter]) {
    items.sort_by_cached_key(|f| {
        let mut s = String::new();
        write_filter(f, &mut s);
        s
    });
}

fn normalize_op(op: &Op) -> Op {
    match op {
        Op::In(vs) => {
            let mut vs = vs.clone();
            vs.sort();
            vs.dedup();
            Op::In(vs)
        }
        Op::Nin(vs) => {
            let mut vs = vs.clone();
            vs.sort();
            vs.dedup();
            Op::Nin(vs)
        }
        Op::All(vs) => {
            let mut vs = vs.clone();
            vs.sort();
            vs.dedup();
            Op::All(vs)
        }
        other => other.clone(),
    }
}

fn write_filter(f: &Filter, out: &mut String) {
    match f {
        Filter::True => out.push_str("true"),
        Filter::Cmp(path, op) => {
            out.push_str(path.as_str());
            out.push_str(op.name());
            match op {
                Op::Eq(v)
                | Op::Ne(v)
                | Op::Gt(v)
                | Op::Gte(v)
                | Op::Lt(v)
                | Op::Lte(v)
                | Op::Contains(v) => out.push_str(&v.canonical()),
                Op::In(vs) | Op::Nin(vs) | Op::All(vs) => {
                    out.push('[');
                    for (i, v) in vs.iter().enumerate() {
                        if i > 0 {
                            out.push(',');
                        }
                        out.push_str(&v.canonical());
                    }
                    out.push(']');
                }
                Op::Exists(b) => out.push_str(if *b { "1" } else { "0" }),
                Op::Size(n) => out.push_str(&n.to_string()),
                Op::StartsWith(s) => {
                    out.push('"');
                    out.push_str(s);
                    out.push('"');
                }
            }
        }
        Filter::And(fs) => write_combo("and", fs, out),
        Filter::Or(fs) => write_combo("or", fs, out),
        Filter::Nor(fs) => write_combo("nor", fs, out),
        Filter::Not(inner) => {
            out.push_str("not(");
            write_filter(inner, out);
            out.push(')');
        }
    }
}

fn write_combo(name: &str, fs: &[Filter], out: &mut String) {
    out.push_str(name);
    out.push('(');
    for (i, f) in fs.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        write_filter(f, out);
    }
    out.push(')');
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use quaestor_document::Value;

    #[test]
    fn table_extraction_from_keys() {
        let q = Query::table("posts").filter(Filter::eq("a", 1));
        assert_eq!(QueryKey::of(&q).table(), "posts");
        assert_eq!(QueryKey::record("users", "7").table(), "users");
        let bare = Query::table("plain");
        assert_eq!(QueryKey::of(&bare).table(), "plain");
    }

    #[test]
    fn commutative_conjunctions_share_a_key() {
        let a = Query::table("posts").filter(Filter::and([
            Filter::eq("topic", "db"),
            Filter::gt("likes", 5),
        ]));
        let b = Query::table("posts").filter(Filter::and([
            Filter::gt("likes", 5),
            Filter::eq("topic", "db"),
        ]));
        assert_eq!(QueryKey::of(&a), QueryKey::of(&b));
    }

    #[test]
    fn in_list_order_is_irrelevant() {
        let a = Query::table("t").filter(Filter::is_in(
            "x",
            vec![Value::Int(3), Value::Int(1), Value::Int(1)],
        ));
        let b = Query::table("t").filter(Filter::is_in("x", vec![Value::Int(1), Value::Int(3)]));
        assert_eq!(QueryKey::of(&a), QueryKey::of(&b));
    }

    #[test]
    fn nested_and_flattens() {
        let a = Filter::and([
            Filter::eq("a", 1),
            Filter::and([Filter::eq("b", 2), Filter::eq("c", 3)]),
        ]);
        let b = Filter::and([Filter::eq("c", 3), Filter::eq("b", 2), Filter::eq("a", 1)]);
        assert_eq!(normalize_filter(&a), normalize_filter(&b));
    }

    #[test]
    fn double_negation_cancels() {
        let f = Filter::not(Filter::not(Filter::eq("a", 1)));
        assert_eq!(normalize_filter(&f), Filter::eq("a", 1));
    }

    #[test]
    fn singleton_combinators_collapse() {
        let f = Filter::and([Filter::eq("a", 1)]);
        assert_eq!(normalize_filter(&f), Filter::eq("a", 1));
        let f = Filter::or([Filter::eq("a", 1)]);
        assert_eq!(normalize_filter(&f), Filter::eq("a", 1));
        let f = Filter::and([Filter::True, Filter::eq("a", 1)]);
        assert_eq!(normalize_filter(&f), Filter::eq("a", 1));
    }

    #[test]
    fn duplicate_conjuncts_dedup() {
        let f = Filter::and([Filter::eq("a", 1), Filter::eq("a", 1)]);
        assert_eq!(normalize_filter(&f), Filter::eq("a", 1));
    }

    #[test]
    fn different_semantics_different_keys() {
        let a = Query::table("posts").filter(Filter::gt("likes", 5));
        let b = Query::table("posts").filter(Filter::gte("likes", 5));
        assert_ne!(QueryKey::of(&a), QueryKey::of(&b));
        let c = Query::table("other").filter(Filter::gt("likes", 5));
        assert_ne!(QueryKey::of(&a), QueryKey::of(&c));
    }

    #[test]
    fn pagination_distinguishes_keys() {
        let base = Query::table("posts").filter(Filter::eq("a", 1));
        let limited = base.clone().limit(10);
        let offset = base.clone().offset(5);
        let sorted = base.clone().sort_by("likes", Order::Desc);
        let keys: Vec<String> = [&base, &limited, &offset, &sorted]
            .iter()
            .map(|q| QueryKey::of(q).as_str().to_string())
            .collect();
        for i in 0..keys.len() {
            for j in (i + 1)..keys.len() {
                assert_ne!(keys[i], keys[j]);
            }
        }
    }

    #[test]
    fn object_literal_keys_are_escaped() {
        // One key spelled to look like two fields must not share a key
        // (and so web-cache entries) with the two-field literal.
        let obj = |pairs: &[(&str, i64)]| {
            Value::Object(
                pairs
                    .iter()
                    .map(|(k, v)| (k.to_string(), Value::Int(*v)))
                    .collect(),
            )
        };
        let tricky = Query::table("t").filter(Filter::eq("f", obj(&[(r#"a":1,"b"#, 2)])));
        let plain = Query::table("t").filter(Filter::eq("f", obj(&[("a", 1), ("b", 2)])));
        assert_ne!(QueryKey::of(&tricky), QueryKey::of(&plain));
        assert_eq!(QueryKey::of(&plain).as_str(), r#"q:t?f$eq{"a":1,"b":2}"#);
    }

    #[test]
    fn record_keys_distinct_from_query_keys() {
        let r = QueryKey::record("posts", "42");
        assert!(r.is_record());
        assert_eq!(r.as_str(), "r:posts/42");
        let q = QueryKey::of(&Query::table("posts"));
        assert!(!q.is_record());
    }

    #[test]
    fn numeric_literal_forms_unify() {
        // 5 and 5.0 are the same point in Mongo's order; same cache key.
        let a = Query::table("t").filter(Filter::eq("x", 5));
        let b = Query::table("t").filter(Filter::eq("x", 5.0));
        assert_eq!(QueryKey::of(&a), QueryKey::of(&b));
    }

    #[test]
    fn index_bindings_decompose_conjunctions() {
        let f = normalize_filter(&Filter::and([
            Filter::eq("topic", "db"),
            Filter::gt("likes", 5),
            Filter::lte("likes", 20),
            Filter::or([Filter::eq("a", 1), Filter::eq("b", 2)]),
            Filter::not(Filter::eq("c", 3)),
            Filter::ne("d", 4),
        ]));
        let bindings = index_bindings(&f);
        assert_eq!(bindings.len(), 3, "eq + two range sides, nothing else");
        assert!(bindings.contains(&IndexBinding::Eq {
            path: "topic".into(),
            value: Value::str("db"),
        }));
        assert!(bindings.contains(&IndexBinding::Range {
            path: "likes".into(),
            lower: Some((Value::Int(5), false)),
            upper: None,
        }));
        assert!(bindings.contains(&IndexBinding::Range {
            path: "likes".into(),
            lower: None,
            upper: Some((Value::Int(20), true)),
        }));
    }

    #[test]
    fn index_bindings_on_single_predicates() {
        let gte = index_bindings(&Filter::gte("n", 7));
        assert_eq!(
            gte,
            vec![IndexBinding::Range {
                path: "n".into(),
                lower: Some((Value::Int(7), true)),
                upper: None,
            }]
        );
        assert_eq!(gte[0].path().as_str(), "n");
        assert!(index_bindings(&Filter::True).is_empty());
        assert!(index_bindings(&Filter::or([Filter::eq("a", 1)])).is_empty());
        // Normalization collapses the singleton Or, making it extractable.
        let collapsed = normalize_filter(&Filter::or([Filter::eq("a", 1)]));
        assert_eq!(index_bindings(&collapsed).len(), 1);
    }

    fn arb_filter() -> impl Strategy<Value = Filter> {
        let leaf = prop_oneof![
            Just(Filter::True),
            ("[a-c]", -5i64..5).prop_map(|(p, v)| Filter::eq(p.as_str(), v)),
            ("[a-c]", -5i64..5).prop_map(|(p, v)| Filter::gt(p.as_str(), v)),
            ("[a-c]", proptest::collection::vec(-5i64..5, 0..3))
                .prop_map(|(p, vs)| { Filter::is_in(p.as_str(), vs.into_iter().map(Value::Int)) }),
        ];
        leaf.prop_recursive(3, 16, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Filter::And),
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Filter::Or),
                inner.prop_map(Filter::not),
            ]
        })
    }

    proptest! {
        #[test]
        fn normalization_is_idempotent(f in arb_filter()) {
            let once = normalize_filter(&f);
            let twice = normalize_filter(&once);
            prop_assert_eq!(once, twice);
        }

        #[test]
        fn normalization_preserves_semantics(f in arb_filter(),
            fields in proptest::collection::btree_map("[a-c]", -5i64..5, 0..4)) {
            let doc: quaestor_document::Document = fields
                .into_iter()
                .map(|(k, v)| (k, Value::Int(v)))
                .collect();
            let norm = normalize_filter(&f);
            prop_assert_eq!(
                crate::matcher::matches(&f, &doc),
                crate::matcher::matches(&norm, &doc),
                "normalization changed semantics: {:?} vs {:?}", f, norm
            );
        }

        #[test]
        fn key_is_deterministic(f in arb_filter()) {
            let q = Query::table("t").filter(f);
            prop_assert_eq!(QueryKey::of(&q), QueryKey::of(&q));
        }
    }
}
