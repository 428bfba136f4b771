//! Secondary indexes: hash indexes for equality, ordered indexes for
//! ranges and sort pushdown.
//!
//! The evaluation's generated queries are selective ("100 distinct
//! queries per table were generated to initially return on average 10
//! documents", §6.1); serving them at cache speed only pays off if origin
//! evaluation is O(result), not O(table). Both index kinds are *multikey*
//! in the MongoDB sense: array fields index every element (plus the whole
//! array), mirroring the matcher's implicit `$elemMatch` semantics so
//! that index candidate sets never miss a match.
//!
//! Posting lists hold interned `Arc<str>` ids — the same interning the
//! write path uses for [`WriteEvent.id`](crate::event::WriteEvent) and
//! the table's shard maps — so collecting candidates is refcount bumps,
//! not string allocations.

use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

use quaestor_document::{Document, Path, Value};
use quaestor_query::matcher;

use quaestor_common::{FxHashMap, FxHashSet};

/// A set of interned document ids (one index posting list).
pub type IdSet = FxHashSet<Arc<str>>;

/// Which index structure to maintain over a path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// Equality-only hash index.
    Hash,
    /// BTree index over the canonical value order (ranges + sort).
    Ordered,
}

/// The values a document contributes to an index over `path`: the value
/// itself, plus — for arrays — every element (multikey). Resolves the
/// path against the document directly (borrowing, not cloning), so index
/// maintenance allocates O(field value), not O(document).
fn keys_of<'a>(doc: &'a Document, path: &Path) -> Vec<&'a Value> {
    match matcher::resolve_path(doc, path) {
        Some(whole @ Value::Array(items)) => {
            let mut keys: Vec<&Value> = items.iter().collect();
            // The array itself is also a key so whole-array equality and
            // cross-type range comparisons hit.
            keys.push(whole);
            keys
        }
        Some(v) => vec![v],
        None => Vec::new(),
    }
}

/// A hash index from the value at one field path to the ids of documents
/// holding (or, for arrays, containing) that value.
#[derive(Debug)]
pub struct HashIndex {
    path: Path,
    map: FxHashMap<Value, IdSet>,
}

impl HashIndex {
    /// New index over `path`.
    pub fn new(path: impl Into<Path>) -> HashIndex {
        HashIndex {
            path: path.into(),
            map: FxHashMap::default(),
        }
    }

    /// Indexed path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Index a (new) document state.
    pub fn insert(&mut self, id: &Arc<str>, doc: &Document) {
        for key in keys_of(doc, &self.path) {
            self.map.entry(key.clone()).or_default().insert(id.clone());
        }
    }

    /// Remove a document state from the index.
    pub fn remove(&mut self, id: &str, doc: &Document) {
        for key in keys_of(doc, &self.path) {
            if let Some(set) = self.map.get_mut(key) {
                set.remove(id);
                if set.is_empty() {
                    self.map.remove(key);
                }
            }
        }
    }

    /// Replace old state with new state.
    pub fn update(&mut self, id: &Arc<str>, old: &Document, new: &Document) {
        self.remove(id, old);
        self.insert(id, new);
    }

    /// Ids of documents whose indexed field equals (or, for arrays,
    /// contains) `value`.
    pub fn lookup(&self, value: &Value) -> Option<&IdSet> {
        self.map.get(value)
    }

    /// Number of distinct indexed values.
    pub fn cardinality(&self) -> usize {
        self.map.len()
    }
}

/// An ordered secondary index: a BTree over the canonical value order
/// (`Value::cmp`, the exact order `matcher::compare_docs` sorts by),
/// mapping each value to the ids of documents holding it.
///
/// Serves two access paths the hash index cannot:
/// * **range scans** — `$gt/$gte/$lt/$lte` conjuncts become one
///   `BTreeMap::range` walk over the bounded interval;
/// * **sort pushdown** — when a query sorts by this path (and the index
///   has never seen an array value), walking the tree emits documents
///   already in sort order, so `ORDER BY … LIMIT k` stops after `k`
///   matches instead of sorting the full match set.
///
/// Documents lacking the field are tracked in a separate `absent` set:
/// they sort as `Null` (exactly `compare_docs`' treatment) but match no
/// range predicate (the matcher rejects missing fields for every range
/// operator), so scans include them only when the caller asks.
#[derive(Debug)]
pub struct OrderedIndex {
    path: Path,
    map: BTreeMap<Value, IdSet>,
    absent: IdSet,
    /// True once any array value was indexed. A multikey index files one
    /// document under several keys, which breaks the "one key per doc"
    /// invariant sort pushdown and cross-predicate bound intersection
    /// rely on; both are disabled for the index's lifetime then
    /// (conservative: removals never clear the flag).
    multikey: bool,
}

impl OrderedIndex {
    /// New ordered index over `path`.
    pub fn new(path: impl Into<Path>) -> OrderedIndex {
        OrderedIndex {
            path: path.into(),
            map: BTreeMap::new(),
            absent: IdSet::default(),
            multikey: false,
        }
    }

    /// Indexed path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// True if any array value was ever indexed (see type docs).
    pub fn is_multikey(&self) -> bool {
        self.multikey
    }

    /// Number of distinct indexed values.
    pub fn cardinality(&self) -> usize {
        self.map.len()
    }

    /// Index a (new) document state.
    pub fn insert(&mut self, id: &Arc<str>, doc: &Document) {
        let keys = keys_of(doc, &self.path);
        if keys.is_empty() {
            self.absent.insert(id.clone());
            return;
        }
        if keys.len() > 1 {
            self.multikey = true;
        }
        for key in keys {
            self.map.entry(key.clone()).or_default().insert(id.clone());
        }
    }

    /// Remove a document state from the index.
    pub fn remove(&mut self, id: &str, doc: &Document) {
        let keys = keys_of(doc, &self.path);
        if keys.is_empty() {
            self.absent.remove(id);
            return;
        }
        for key in keys {
            if let Some(set) = self.map.get_mut(key) {
                set.remove(id);
                if set.is_empty() {
                    self.map.remove(key);
                }
            }
        }
    }

    /// Replace old state with new state.
    pub fn update(&mut self, id: &Arc<str>, old: &Document, new: &Document) {
        self.remove(id, old);
        self.insert(id, new);
    }

    /// Estimate the number of ids in `bounds`, walking buckets until the
    /// estimate exceeds `cap` (cost-based planning wants "smaller than
    /// the current best plan?", not an exact count).
    pub fn estimate_range(&self, bounds: RangeBounds<'_>, cap: usize) -> usize {
        if bounds.is_empty() {
            return 0;
        }
        let mut n = 0;
        for set in self.map.range(bounds.as_range()).map(|(_, s)| s) {
            n += set.len();
            if n > cap {
                break;
            }
        }
        n
    }

    /// All ids with some indexed key in `bounds`, deduplicated (a
    /// multikey document can land in several buckets of one interval).
    pub fn range_ids(&self, bounds: RangeBounds<'_>) -> Vec<Arc<str>> {
        if bounds.is_empty() {
            return Vec::new();
        }
        let mut seen = IdSet::default();
        for (_, set) in self.map.range(bounds.as_range()) {
            for id in set {
                seen.insert(id.clone());
            }
        }
        seen.into_iter().collect()
    }

    /// The interval's id buckets in key order (ascending or descending),
    /// for in-order emission. `include_absent` merges the absent set into
    /// the `Null` position — first ascending, last descending — since
    /// missing fields sort exactly like `Null` under `compare_docs`.
    /// Callers must only rely on the order when `!is_multikey()`.
    ///
    /// `max_ids` stops collecting once that many ids were gathered (only
    /// whole buckets are kept — a bucket's internal order is decided
    /// later by the full sort spec, so splitting one would be wrong).
    /// Only pass it when every collected id is known to be emitted (e.g.
    /// `Filter::True` with a `LIMIT`): a `LIMIT 10` over millions of rows
    /// then touches ~10 tree entries instead of all of them.
    pub fn buckets_in_order(
        &self,
        bounds: RangeBounds<'_>,
        descending: bool,
        include_absent: bool,
        max_ids: Option<usize>,
    ) -> Vec<Vec<Arc<str>>> {
        let cap = max_ids.unwrap_or(usize::MAX);
        let mut out: Vec<Vec<Arc<str>>> = Vec::new();
        let mut count = 0usize;
        // Consumed once, at the Null slot.
        let mut absent_bucket = if include_absent && !self.absent.is_empty() {
            Some(self.absent.iter().cloned().collect::<Vec<_>>())
        } else {
            None
        };
        if cap == 0 {
            return out;
        }
        if bounds.is_empty() {
            if let Some(absent) = absent_bucket {
                out.push(absent);
            }
            return out;
        }
        let mut push = |mut bucket: Vec<Arc<str>>, out: &mut Vec<Vec<Arc<str>>>| {
            count += bucket.len();
            if bucket.is_empty() {
                return false;
            }
            bucket.shrink_to_fit();
            out.push(bucket);
            count >= cap
        };
        if descending {
            // Null (the minimum value) is the last bucket descending; the
            // absent set joins it — or trails everything — and is only
            // reached if the cap wasn't hit earlier.
            for (key, set) in self.map.range(bounds.as_range()).rev() {
                let mut bucket: Vec<Arc<str>> = set.iter().cloned().collect();
                if key.is_null() {
                    if let Some(absent) = absent_bucket.take() {
                        bucket.extend(absent);
                    }
                }
                if push(bucket, &mut out) {
                    return out;
                }
            }
            if let Some(absent) = absent_bucket {
                push(absent, &mut out);
            }
        } else {
            // Ascending: the absent set leads (merged into an explicit
            // Null bucket when one heads the interval).
            let mut range = self.map.range(bounds.as_range()).peekable();
            let leading_null = range.peek().is_some_and(|(k, _)| k.is_null());
            if !leading_null {
                if let Some(absent) = absent_bucket.take() {
                    if push(absent, &mut out) {
                        return out;
                    }
                }
            }
            for (key, set) in range {
                let mut bucket: Vec<Arc<str>> = set.iter().cloned().collect();
                if key.is_null() {
                    if let Some(absent) = absent_bucket.take() {
                        bucket.extend(absent);
                    }
                }
                if push(bucket, &mut out) {
                    return out;
                }
            }
        }
        out
    }
}

/// A resolved pair of interval endpoints over the canonical value order.
#[derive(Debug, Clone, Copy)]
pub struct RangeBounds<'a> {
    /// Lower endpoint.
    pub lower: Bound<&'a Value>,
    /// Upper endpoint.
    pub upper: Bound<&'a Value>,
}

impl<'a> RangeBounds<'a> {
    /// The unbounded interval.
    pub fn all() -> RangeBounds<'static> {
        RangeBounds {
            lower: Bound::Unbounded,
            upper: Bound::Unbounded,
        }
    }

    /// The degenerate point interval `[v, v]`.
    pub fn point(v: &'a Value) -> RangeBounds<'a> {
        RangeBounds {
            lower: Bound::Included(v),
            upper: Bound::Included(v),
        }
    }

    /// True if no value can lie within the bounds. Checked before every
    /// `BTreeMap::range` call, which panics on inverted bounds.
    pub fn is_empty(&self) -> bool {
        use std::cmp::Ordering::*;
        match (&self.lower, &self.upper) {
            (Bound::Unbounded, _) | (_, Bound::Unbounded) => false,
            (Bound::Included(a), Bound::Included(b)) => a.cmp(b) == Greater,
            (Bound::Included(a), Bound::Excluded(b))
            | (Bound::Excluded(a), Bound::Included(b))
            | (Bound::Excluded(a), Bound::Excluded(b)) => a.cmp(b) != Less,
        }
    }

    fn as_range(&self) -> (Bound<&'a Value>, Bound<&'a Value>) {
        (self.lower, self.upper)
    }
}

/// A table's secondary indexes, both kinds, behind one lock.
#[derive(Debug, Default)]
pub struct IndexSet {
    /// Equality (hash) indexes.
    pub hash: Vec<HashIndex>,
    /// Ordered (BTree) indexes.
    pub ordered: Vec<OrderedIndex>,
}

impl IndexSet {
    /// The hash index over `path`, if declared.
    pub fn hash_on(&self, path: &Path) -> Option<&HashIndex> {
        self.hash.iter().find(|i| i.path() == path)
    }

    /// The ordered index over `path`, if declared.
    pub fn ordered_on(&self, path: &Path) -> Option<&OrderedIndex> {
        self.ordered.iter().find(|i| i.path() == path)
    }

    /// Index a new document state into every index.
    pub fn insert(&mut self, id: &Arc<str>, doc: &Document) {
        for idx in &mut self.hash {
            idx.insert(id, doc);
        }
        for idx in &mut self.ordered {
            idx.insert(id, doc);
        }
    }

    /// Remove a document state from every index.
    pub fn remove(&mut self, id: &str, doc: &Document) {
        for idx in &mut self.hash {
            idx.remove(id, doc);
        }
        for idx in &mut self.ordered {
            idx.remove(id, doc);
        }
    }

    /// Replace old state with new state in every index.
    pub fn update(&mut self, id: &Arc<str>, old: &Document, new: &Document) {
        for idx in &mut self.hash {
            idx.update(id, old, new);
        }
        for idx in &mut self.ordered {
            idx.update(id, old, new);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_document::doc;

    fn id(s: &str) -> Arc<str> {
        Arc::from(s)
    }

    #[test]
    fn scalar_index_lookup() {
        let mut idx = HashIndex::new("topic");
        idx.insert(&id("p1"), &doc! { "topic" => "db" });
        idx.insert(&id("p2"), &doc! { "topic" => "db" });
        idx.insert(&id("p3"), &doc! { "topic" => "ml" });
        let hits = idx.lookup(&Value::str("db")).unwrap();
        assert_eq!(hits.len(), 2);
        assert!(hits.contains("p1") && hits.contains("p2"));
        assert!(idx.lookup(&Value::str("none")).is_none());
    }

    #[test]
    fn multikey_array_index() {
        let mut idx = HashIndex::new("tags");
        let d = doc! { "tags" => vec!["example", "music"] };
        idx.insert(&id("p1"), &d);
        assert!(idx.lookup(&Value::str("example")).unwrap().contains("p1"));
        assert!(idx.lookup(&Value::str("music")).unwrap().contains("p1"));
    }

    #[test]
    fn update_moves_entries() {
        let mut idx = HashIndex::new("topic");
        let old = doc! { "topic" => "db" };
        let new = doc! { "topic" => "ml" };
        idx.insert(&id("p1"), &old);
        idx.update(&id("p1"), &old, &new);
        assert!(idx.lookup(&Value::str("db")).is_none());
        assert!(idx.lookup(&Value::str("ml")).unwrap().contains("p1"));
    }

    #[test]
    fn remove_cleans_empty_buckets() {
        let mut idx = HashIndex::new("topic");
        let d = doc! { "topic" => "db" };
        idx.insert(&id("p1"), &d);
        idx.remove("p1", &d);
        assert_eq!(idx.cardinality(), 0);
    }

    #[test]
    fn nested_path_indexing() {
        let mut idx = HashIndex::new("author.name");
        idx.insert(
            &id("p1"),
            &doc! { "author" => Value::Object(
            [("name".to_string(), Value::str("ada"))].into_iter().collect()) },
        );
        assert!(idx.lookup(&Value::str("ada")).unwrap().contains("p1"));
    }

    #[test]
    fn missing_field_not_indexed() {
        let mut idx = HashIndex::new("topic");
        idx.insert(&id("p1"), &doc! { "other" => 1 });
        assert_eq!(idx.cardinality(), 0);
    }

    #[test]
    fn ordered_range_scan() {
        let mut idx = OrderedIndex::new("n");
        for i in 0..10i64 {
            idx.insert(&id(&format!("r{i}")), &doc! { "n" => i });
        }
        let bounds = RangeBounds {
            lower: Bound::Excluded(&Value::Int(3)),
            upper: Bound::Included(&Value::Int(6)),
        };
        let mut ids: Vec<String> = idx
            .range_ids(bounds)
            .iter()
            .map(|s| s.to_string())
            .collect();
        ids.sort();
        assert_eq!(ids, vec!["r4", "r5", "r6"]);
        assert_eq!(idx.estimate_range(bounds, 100), 3);
        assert!(idx.estimate_range(bounds, 1) <= 3);
        assert!(!idx.is_multikey());
    }

    #[test]
    fn ordered_int_float_share_a_key() {
        let mut idx = OrderedIndex::new("n");
        idx.insert(&id("a"), &doc! { "n" => 3 });
        idx.insert(&id("b"), &doc! { "n" => 3.0 });
        assert_eq!(idx.cardinality(), 1, "3 and 3.0 are the same point");
        let hits = idx.range_ids(RangeBounds::point(&Value::Float(3.0)));
        assert_eq!(hits.len(), 2);
    }

    #[test]
    fn ordered_multikey_flag_and_dedup() {
        let mut idx = OrderedIndex::new("tags");
        idx.insert(&id("p1"), &doc! { "tags" => vec![1, 2] });
        assert!(idx.is_multikey());
        // One interval covering both elements still yields the id once.
        let bounds = RangeBounds {
            lower: Bound::Included(&Value::Int(0)),
            upper: Bound::Included(&Value::Int(9)),
        };
        assert_eq!(idx.range_ids(bounds).len(), 1);
    }

    #[test]
    fn ordered_absent_tracked_separately() {
        let mut idx = OrderedIndex::new("n");
        idx.insert(&id("has"), &doc! { "n" => 1 });
        idx.insert(&id("not"), &doc! { "other" => 1 });
        // Range scans never see absent docs (range ops reject missing).
        assert_eq!(idx.range_ids(RangeBounds::all()).len(), 1);
        // Ordered emission places them at the Null position when asked.
        let asc = idx.buckets_in_order(RangeBounds::all(), false, true, None);
        assert_eq!(asc.len(), 2);
        assert_eq!(asc[0][0].as_ref(), "not");
        let desc = idx.buckets_in_order(RangeBounds::all(), true, true, None);
        assert_eq!(desc[1][0].as_ref(), "not");
        // Explicit Null merges with absent into one tie bucket.
        idx.insert(&id("null"), &doc! { "n" => Value::Null });
        let asc = idx.buckets_in_order(RangeBounds::all(), false, true, None);
        assert_eq!(asc.len(), 2);
        assert_eq!(asc[0].len(), 2, "null + absent share the first bucket");
    }

    #[test]
    fn inverted_bounds_are_empty_not_a_panic() {
        let mut idx = OrderedIndex::new("n");
        idx.insert(&id("a"), &doc! { "n" => 5 });
        let inverted = RangeBounds {
            lower: Bound::Included(&Value::Int(9)),
            upper: Bound::Included(&Value::Int(1)),
        };
        assert!(inverted.is_empty());
        assert!(idx.range_ids(inverted).is_empty());
        assert_eq!(idx.estimate_range(inverted, 10), 0);
        let point_excluded = RangeBounds {
            lower: Bound::Included(&Value::Int(5)),
            upper: Bound::Excluded(&Value::Int(5)),
        };
        assert!(point_excluded.is_empty());
        assert!(!RangeBounds::point(&Value::Int(5)).is_empty());
        assert!(!RangeBounds::all().is_empty());
    }

    #[test]
    fn capped_bucket_collection_keeps_whole_buckets() {
        let mut idx = OrderedIndex::new("n");
        for i in 0..100i64 {
            idx.insert(&id(&format!("r{i:03}")), &doc! { "n" => i / 10 });
        }
        // Buckets of 10; a cap of 15 needs two whole buckets.
        let capped = idx.buckets_in_order(RangeBounds::all(), false, true, Some(15));
        assert_eq!(capped.len(), 2);
        assert_eq!(capped.iter().map(Vec::len).sum::<usize>(), 20);
        // Descending collection starts from the top key.
        let desc = idx.buckets_in_order(RangeBounds::all(), true, true, Some(1));
        assert_eq!(desc.len(), 1);
        assert!(desc[0][0].starts_with("r09"));
        // Cap 0 collects nothing; no cap collects everything.
        assert!(idx
            .buckets_in_order(RangeBounds::all(), false, true, Some(0))
            .is_empty());
        assert_eq!(
            idx.buckets_in_order(RangeBounds::all(), false, true, None)
                .len(),
            10
        );
    }

    #[test]
    fn ordered_update_and_remove_maintain_buckets() {
        let mut idx = OrderedIndex::new("n");
        let old = doc! { "n" => 1 };
        let new = doc! { "n" => 2 };
        idx.insert(&id("a"), &old);
        idx.update(&id("a"), &old, &new);
        assert!(idx.range_ids(RangeBounds::point(&Value::Int(1))).is_empty());
        assert_eq!(idx.range_ids(RangeBounds::point(&Value::Int(2))).len(), 1);
        idx.remove("a", &new);
        assert_eq!(idx.cardinality(), 0);
        // Absent bookkeeping mirrors value bookkeeping.
        let bare = doc! { "other" => 1 };
        idx.insert(&id("b"), &bare);
        idx.remove("b", &bare);
        assert!(idx
            .buckets_in_order(RangeBounds::all(), false, true, None)
            .is_empty());
    }
}
