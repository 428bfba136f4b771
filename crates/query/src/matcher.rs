//! Predicate evaluation against documents.
//!
//! This is InvaliDB's inner loop ("Is Match? / Was Match?", Figure 6): for
//! every incoming after-image, every registered query in the object
//! partition is re-evaluated. The implementation is allocation-free for
//! all operators except none — evaluation only borrows.

use quaestor_document::{Document, Path, Value};

use crate::filter::{Filter, Op, Query, SortKey};

/// Does `doc` satisfy `filter`?
pub fn matches(filter: &Filter, doc: &Document) -> bool {
    match filter {
        Filter::True => true,
        Filter::Cmp(path, op) => eval_cmp(doc, path, op),
        Filter::And(fs) => fs.iter().all(|f| matches(f, doc)),
        Filter::Or(fs) => fs.iter().any(|f| matches(f, doc)),
        Filter::Nor(fs) => !fs.iter().any(|f| matches(f, doc)),
        Filter::Not(f) => !matches(f, doc),
    }
}

/// Resolve a (possibly dotted) path against a document, with the same
/// traversal rules the operators use. Exposed so InvaliDB's predicate
/// index can derive candidate values from an after-image.
pub fn resolve_path<'a>(doc: &'a Document, path: &Path) -> Option<&'a Value> {
    resolve(doc, path)
}

fn resolve<'a>(doc: &'a Document, path: &Path) -> Option<&'a Value> {
    let mut segs = path.segments();
    let head = segs.next()?;
    let mut cur = doc.get(head)?;
    for seg in segs {
        match cur {
            Value::Object(map) => cur = map.get(seg)?,
            Value::Array(items) => {
                let idx: usize = seg.parse().ok()?;
                cur = items.get(idx)?;
            }
            _ => return None,
        }
    }
    Some(cur)
}

fn eval_cmp(doc: &Document, path: &Path, op: &Op) -> bool {
    let field = resolve(doc, path);
    match op {
        Op::Exists(want) => field.is_some() == *want,
        _ => match field {
            Some(v) => eval_op(v, op),
            // Missing fields satisfy only Ne / Nin (MongoDB semantics:
            // {$ne: x} matches documents lacking the field entirely).
            None => matches!(op, Op::Ne(_) | Op::Nin(_)),
        },
    }
}

/// MongoDB's implicit array semantics: a comparison on an array field
/// matches if the array itself satisfies it or **any element** does.
fn scalar_or_any_element(v: &Value, pred: impl Fn(&Value) -> bool) -> bool {
    if pred(v) {
        return true;
    }
    if let Value::Array(items) = v {
        return items.iter().any(pred);
    }
    false
}

fn eval_op(v: &Value, op: &Op) -> bool {
    match op {
        Op::Eq(rhs) => scalar_or_any_element(v, |x| x == rhs),
        Op::Ne(rhs) => !scalar_or_any_element(v, |x| x == rhs),
        Op::Gt(rhs) => scalar_or_any_element(v, |x| x > rhs),
        Op::Gte(rhs) => scalar_or_any_element(v, |x| x >= rhs),
        Op::Lt(rhs) => scalar_or_any_element(v, |x| x < rhs),
        Op::Lte(rhs) => scalar_or_any_element(v, |x| x <= rhs),
        Op::In(set) => scalar_or_any_element(v, |x| set.iter().any(|s| s == x)),
        Op::Nin(set) => !scalar_or_any_element(v, |x| set.iter().any(|s| s == x)),
        Op::Contains(rhs) => match v {
            Value::Array(items) => items.iter().any(|x| x == rhs),
            Value::Str(s) => rhs.as_str().is_some_and(|sub| s.contains(sub)),
            _ => false,
        },
        Op::All(set) => match v {
            Value::Array(items) => set.iter().all(|s| items.iter().any(|x| x == s)),
            _ => false,
        },
        Op::Exists(_) => unreachable!("handled in eval_cmp"),
        Op::Size(n) => v.as_array().is_some_and(|a| a.len() == *n),
        Op::StartsWith(prefix) => {
            scalar_or_any_element(v, |x| x.as_str().is_some_and(|s| s.starts_with(prefix)))
        }
    }
}

/// Compare two documents under a sort specification; ties broken by `_id`
/// so result order is total and deterministic (required for InvaliDB's
/// `changeIndex` events to be well defined).
pub fn compare_docs(a: &Document, b: &Document, sort: &[SortKey]) -> std::cmp::Ordering {
    use crate::filter::Order;
    use std::cmp::Ordering;
    const NULL: Value = Value::Null;
    for key in sort {
        let va = resolve(a, &key.path).unwrap_or(&NULL);
        let vb = resolve(b, &key.path).unwrap_or(&NULL);
        let ord = va.cmp(vb);
        let ord = match key.order {
            Order::Asc => ord,
            Order::Desc => ord.reverse(),
        };
        if ord != Ordering::Equal {
            return ord;
        }
    }
    let ida = a.get("_id").unwrap_or(&NULL);
    let idb = b.get("_id").unwrap_or(&NULL);
    ida.cmp(idb)
}

/// Execute `query` over an iterator of documents: filter, sort, offset,
/// limit. This is the reference semantics the store and InvaliDB must both
/// agree with (property-tested in the store crate).
pub fn execute<'a>(query: &Query, docs: impl Iterator<Item = &'a Document>) -> Vec<&'a Document> {
    let mut hits: Vec<&Document> = docs.filter(|d| matches(&query.filter, d)).collect();
    if !query.sort.is_empty() {
        hits.sort_by(|a, b| compare_docs(a, b, &query.sort));
    } else {
        // Deterministic order even without ORDER BY: sort by _id.
        hits.sort_by(|a, b| compare_docs(a, b, &[]));
    }
    let start = query.offset.min(hits.len());
    let end = match query.limit {
        Some(l) => (start + l).min(hits.len()),
        None => hits.len(),
    };
    hits[start..end].to_vec()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::filter::{Filter, Order, Query};
    use quaestor_document::{doc, varray};

    fn post(id: i64, tags: &[&str], likes: i64) -> Document {
        let mut d = doc! {
            "_id" => format!("post{id}"),
            "likes" => likes,
            "author" => "ada"
        };
        d.insert(
            "tags",
            Value::Array(tags.iter().map(|t| Value::str(*t)).collect()),
        );
        d
    }

    #[test]
    fn contains_matches_paper_example() {
        // SELECT * FROM posts WHERE tags CONTAINS 'example'
        let f = Filter::contains("tags", "example");
        assert!(matches(&f, &post(1, &["example", "music"], 3)));
        assert!(!matches(&f, &post(2, &["music"], 3)));
        assert!(!matches(&f, &doc! { "_id" => "x" }));
    }

    #[test]
    fn eq_on_arrays_matches_any_element() {
        let f = Filter::eq("tags", "music");
        assert!(matches(&f, &post(1, &["example", "music"], 0)));
        assert!(!matches(&f, &post(1, &["example"], 0)));
    }

    #[test]
    fn ne_matches_missing_field() {
        let f = Filter::ne("missing", 1);
        assert!(matches(&f, &doc! { "a" => 1 }));
        let f2 = Filter::eq("missing", 1);
        assert!(!matches(&f2, &doc! { "a" => 1 }));
    }

    #[test]
    fn range_operators() {
        let d = post(1, &[], 10);
        assert!(matches(&Filter::gt("likes", 9), &d));
        assert!(!matches(&Filter::gt("likes", 10), &d));
        assert!(matches(&Filter::gte("likes", 10), &d));
        assert!(matches(&Filter::lt("likes", 11), &d));
        assert!(matches(&Filter::lte("likes", 10), &d));
        // Numeric cross-type: likes > 9.5 (float vs int field)
        assert!(matches(&Filter::gt("likes", 9.5), &d));
    }

    #[test]
    fn in_nin_all_size() {
        let d = post(1, &["a", "b"], 5);
        assert!(matches(
            &Filter::is_in("likes", vec![Value::Int(5), Value::Int(7)]),
            &d
        ));
        assert!(matches(
            &Filter::Cmp("likes".into(), Op::Nin(vec![Value::Int(9)])),
            &d
        ));
        assert!(matches(
            &Filter::Cmp(
                "tags".into(),
                Op::All(vec![Value::str("a"), Value::str("b")])
            ),
            &d
        ));
        assert!(!matches(
            &Filter::Cmp(
                "tags".into(),
                Op::All(vec![Value::str("a"), Value::str("z")])
            ),
            &d
        ));
        assert!(matches(&Filter::Cmp("tags".into(), Op::Size(2)), &d));
        assert!(!matches(&Filter::Cmp("tags".into(), Op::Size(3)), &d));
    }

    #[test]
    fn string_operators() {
        let d = doc! { "title" => "Hello World" };
        assert!(matches(&Filter::starts_with("title", "Hello"), &d));
        assert!(!matches(&Filter::starts_with("title", "World"), &d));
        assert!(matches(
            &Filter::Cmp("title".into(), Op::Contains(Value::str("lo Wo"))),
            &d
        ));
    }

    #[test]
    fn boolean_combinators() {
        let d = post(1, &["x"], 5);
        let f = Filter::and([Filter::eq("author", "ada"), Filter::gt("likes", 1)]);
        assert!(matches(&f, &d));
        let f = Filter::or([Filter::eq("author", "bob"), Filter::gt("likes", 1)]);
        assert!(matches(&f, &d));
        let f = Filter::Nor(vec![Filter::eq("author", "bob"), Filter::gt("likes", 100)]);
        assert!(matches(&f, &d));
        assert!(matches(&Filter::not(Filter::eq("author", "bob")), &d));
        assert!(!matches(&Filter::not(Filter::eq("author", "ada")), &d));
    }

    #[test]
    fn nested_paths() {
        let d = doc! {
            "author" => Value::Object(
                [("name".to_string(), Value::str("ada")),
                 ("stats".to_string(), Value::Object(
                    [("followers".to_string(), Value::Int(1000))].into_iter().collect()))]
                .into_iter().collect())
        };
        assert!(matches(&Filter::eq("author.name", "ada"), &d));
        assert!(matches(&Filter::gt("author.stats.followers", 500), &d));
        assert!(!matches(&Filter::eq("author.name.x", "ada"), &d));
    }

    #[test]
    fn execute_sort_offset_limit() {
        let docs = [
            post(3, &[], 30),
            post(1, &[], 10),
            post(4, &[], 40),
            post(2, &[], 20),
        ];
        let q = Query::table("posts")
            .sort_by("likes", Order::Desc)
            .offset(1)
            .limit(2);
        let result = execute(&q, docs.iter());
        let likes: Vec<i64> = result
            .iter()
            .map(|d| d["likes"].as_i64().unwrap())
            .collect();
        assert_eq!(likes, vec![30, 20]);
    }

    #[test]
    fn execute_is_deterministic_without_sort() {
        let docs = [post(2, &[], 1), post(1, &[], 1), post(3, &[], 1)];
        let q = Query::table("posts");
        let r1: Vec<String> = execute(&q, docs.iter())
            .iter()
            .map(|d| d["_id"].as_str().unwrap().to_string())
            .collect();
        assert_eq!(r1, vec!["post1", "post2", "post3"]);
    }

    #[test]
    fn sort_ties_broken_by_id() {
        let a = post(1, &[], 5);
        let b = post(2, &[], 5);
        assert_eq!(
            compare_docs(
                &a,
                &b,
                &[SortKey {
                    path: "likes".into(),
                    order: Order::Asc
                }]
            ),
            std::cmp::Ordering::Less
        );
    }

    #[test]
    fn missing_sort_field_sorts_as_null_first() {
        let mut a = post(1, &[], 5);
        a.remove("likes");
        let b = post(2, &[], 5);
        let sort = [SortKey {
            path: "likes".into(),
            order: Order::Asc,
        }];
        assert_eq!(compare_docs(&a, &b, &sort), std::cmp::Ordering::Less);
    }

    #[test]
    fn contains_rejects_non_array_non_string() {
        let d = doc! { "n" => 5 };
        assert!(!matches(
            &Filter::Cmp("n".into(), Op::Contains(Value::Int(5))),
            &d
        ));
        let _ = varray![1]; // keep macro import used
    }
}
