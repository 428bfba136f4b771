//! One matching node: stateless-query matching with was-match/is-match
//! state, accelerated by a **query predicate index**.
//!
//! The paper scales matching by partitioning queries and objects across a
//! grid of such nodes (Figure 6); within one node this module makes the
//! per-event cost sub-linear in the number of registered queries. Every
//! query whose normalized filter pins a field to a single equality value
//! is filed under `(path, value)` in a hash index; an incoming after-image
//! then only has to be evaluated against
//!
//! 1. the queries filed under a `(path, value)` pair the image actually
//!    carries (exact-match candidates),
//! 2. the queries currently matching the record (`was_matching` reverse
//!    index — required for Remove/Change detection), and
//! 3. the *residual* scan list: queries with no usable equality binding
//!    (ranges, `$or`, negations, `$contains`, ...).
//!
//! Every candidate is still evaluated with the full filter, so the index
//! is a pure pruning layer: false positives cost one evaluation, false
//! negatives are impossible because an indexed query's equality predicate
//! is a necessary condition for a match (see [`Query::index_binding`]).

use std::sync::Arc;

use quaestor_common::{FxHashMap, FxHashSet};
use quaestor_document::{Document, Path, Value};
use quaestor_query::{matcher, Query, QueryKey};
use quaestor_store::{WriteEvent, WriteKind};

use crate::event::{Notification, NotificationEvent};

/// Slot handle into the query slab; index structures store these instead
/// of cloning `QueryKey` strings on the hot path.
type Slot = u32;

struct RegisteredQuery {
    query: Query,
    key: QueryKey,
    /// Ids (within this node's object partition) currently matching.
    matching: FxHashSet<Arc<str>>,
    /// `(path string, canonical value)` this query is filed under in the
    /// equality index, if indexable.
    binding: Option<(String, String)>,
}

/// All queries indexed on one field path of one table.
struct PathIndex {
    /// Parsed path, resolved once per event against the after-image.
    path: Path,
    /// canonical(value) → queries pinned to exactly that value.
    by_value: FxHashMap<String, FxHashSet<Slot>>,
}

/// Per-table index structures: the table check that used to be a per-query
/// branch is now a single hash lookup.
#[derive(Default)]
struct TableIndex {
    /// Equality index, keyed by path string.
    eq: FxHashMap<String, PathIndex>,
    /// record id → queries currently matching it ("Was Match?" inverted).
    matched_by: FxHashMap<Arc<str>, FxHashSet<Slot>>,
    /// Queries with no indexable equality predicate — always evaluated.
    residual: FxHashSet<Slot>,
    /// Every query registered for this table.
    all: FxHashSet<Slot>,
}

/// A matching-task instance responsible for one query partition × one
/// object partition.
///
/// "Simple static matching conditions ... are stateless, meaning that no
/// additional information is required to determine whether a given
/// after-image satisfies them. As a consequence, the only state required
/// for providing add, remove or change notifications to stateless queries
/// is the former matching status on a per-record basis." (§4.1)
pub struct MatchingNode {
    /// Slab of registered queries; freed slots are reused.
    slots: Vec<Option<RegisteredQuery>>,
    free: Vec<Slot>,
    by_key: FxHashMap<QueryKey, Slot>,
    tables: FxHashMap<String, TableIndex>,
    /// Match evaluations performed (the ops/s measure of Figure 12).
    evaluations: u64,
    /// Registered same-table queries the predicate index proved could not
    /// change state, so they were never evaluated.
    evaluations_skipped: u64,
    /// Reference mode: evaluate every same-table query linearly (the
    /// pre-index behaviour), used by differential tests and benchmarks.
    #[cfg(any(test, feature = "oracle"))]
    linear: bool,
    /// Reusable candidate buffer (avoids a per-event allocation).
    scratch: Vec<Slot>,
    /// Reusable canonical-value buffer for index lookups.
    scratch_val: String,
}

impl Default for MatchingNode {
    fn default() -> Self {
        Self::new()
    }
}

impl std::fmt::Debug for MatchingNode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MatchingNode")
            .field("queries", &self.by_key.len())
            .field("evaluations", &self.evaluations)
            .field("evaluations_skipped", &self.evaluations_skipped)
            .finish_non_exhaustive()
    }
}

impl MatchingNode {
    /// An empty node with the predicate index enabled.
    pub fn new() -> MatchingNode {
        MatchingNode {
            slots: Vec::new(),
            free: Vec::new(),
            by_key: FxHashMap::default(),
            tables: FxHashMap::default(),
            evaluations: 0,
            evaluations_skipped: 0,
            #[cfg(any(test, feature = "oracle"))]
            linear: false,
            scratch: Vec::new(),
            scratch_val: String::new(),
        }
    }

    /// An empty node that scans every same-table query per event — the
    /// exact pre-index semantics, kept as a test oracle for equivalence
    /// tests and the indexed-vs-linear benchmark.
    #[cfg(any(test, feature = "oracle"))]
    pub fn linear() -> MatchingNode {
        MatchingNode {
            linear: true,
            ..Self::new()
        }
    }

    /// Register a query, seeding its state with the subset of the initial
    /// result that falls into this node's object partition.
    pub fn register(&mut self, query: Query, key: QueryKey, initial_ids: Vec<Arc<str>>) {
        // Replace semantics: a re-registration drops the old state first.
        self.deregister(&key);
        let binding = query.index_binding().map(|(p, v)| {
            // Keys use the equality-consistent rendering: Value equality is
            // lossy above 2^53, so canonical() strings would miss matches.
            let mut key = String::new();
            v.eq_canonical_into(&mut key);
            (p.as_str().to_owned(), key)
        });
        let slot = match self.free.pop() {
            Some(s) => s,
            None => {
                self.slots.push(None);
                (self.slots.len() - 1) as Slot
            }
        };
        let table = self.tables.entry(query.table.clone()).or_default();
        table.all.insert(slot);
        match &binding {
            Some((path, canon)) => {
                table
                    .eq
                    .entry(path.clone())
                    .or_insert_with(|| PathIndex {
                        path: Path::from(path.as_str()),
                        by_value: FxHashMap::default(),
                    })
                    .by_value
                    .entry(canon.clone())
                    .or_default()
                    .insert(slot);
            }
            None => {
                table.residual.insert(slot);
            }
        }
        for id in &initial_ids {
            table.matched_by.entry(id.clone()).or_default().insert(slot);
        }
        self.by_key.insert(key.clone(), slot);
        self.slots[slot as usize] = Some(RegisteredQuery {
            matching: initial_ids.into_iter().collect(),
            query,
            key,
            binding,
        });
    }

    /// Overwrite the matching set of the registered query `key` with
    /// `ids`, this node's share of a fresh initial result, in place. The
    /// result is the state [`register`](Self::register) would build for
    /// the same query, without rebuilding its slot and index entries; it
    /// costs nothing when the set is unchanged. `ids` must be distinct.
    /// Returns false, changing nothing, if `key` is not registered.
    pub fn reseed<'a, I>(&mut self, key: &QueryKey, ids: I) -> bool
    where
        I: Iterator<Item = &'a str> + Clone,
    {
        let Some(&slot) = self.by_key.get(key) else {
            return false;
        };
        let reg = self.slots[slot as usize].as_mut().expect("live slot");
        if ids.clone().count() == reg.matching.len()
            && ids.clone().all(|id| reg.matching.contains(id))
        {
            return true;
        }
        let table = self
            .tables
            .get_mut(&reg.query.table)
            .expect("registered table");
        let fresh: FxHashSet<&str> = ids.clone().collect();
        reg.matching.retain(|id| {
            let keep = fresh.contains(&**id);
            if !keep {
                unlink(&mut table.matched_by, id, slot);
            }
            keep
        });
        for id in ids {
            if !reg.matching.contains(id) {
                let id: Arc<str> = Arc::from(id);
                table.matched_by.entry(id.clone()).or_default().insert(slot);
                reg.matching.insert(id);
            }
        }
        true
    }

    /// Deregister; returns whether the query was present.
    pub fn deregister(&mut self, key: &QueryKey) -> bool {
        let Some(slot) = self.by_key.remove(key) else {
            return false;
        };
        let reg = self.slots[slot as usize].take().expect("live slot");
        self.free.push(slot);
        let Some(table) = self.tables.get_mut(&reg.query.table) else {
            return true;
        };
        table.all.remove(&slot);
        table.residual.remove(&slot);
        if let Some((path, canon)) = &reg.binding {
            if let Some(pi) = table.eq.get_mut(path) {
                if let Some(slots) = pi.by_value.get_mut(canon) {
                    slots.remove(&slot);
                    if slots.is_empty() {
                        pi.by_value.remove(canon);
                    }
                }
                if pi.by_value.is_empty() {
                    table.eq.remove(path);
                }
            }
        }
        for id in &reg.matching {
            unlink(&mut table.matched_by, id, slot);
        }
        if table.all.is_empty() {
            self.tables.remove(&reg.query.table);
        }
        true
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.by_key.len()
    }

    /// Total match evaluations performed.
    pub fn evaluations(&self) -> u64 {
        self.evaluations
    }

    /// Total candidate evaluations the predicate index pruned away: the
    /// linear scan would have performed `evaluations + evaluations_skipped`
    /// evaluations for the same event stream.
    pub fn evaluations_skipped(&self) -> u64 {
        self.evaluations_skipped
    }

    /// Match one after-image against the registered queries of its table
    /// ("Is Match? / Was Match?", Figure 6), consulting only the predicate
    /// index's candidates unless this node is in linear reference mode.
    pub fn process(&mut self, event: &WriteEvent) -> Vec<Notification> {
        let mut out = Vec::new();
        let Some(table) = self.tables.get_mut(event.table.as_ref()) else {
            return out;
        };
        let mut candidates = std::mem::take(&mut self.scratch);
        candidates.clear();
        #[cfg(any(test, feature = "oracle"))]
        let linear = self.linear;
        #[cfg(not(any(test, feature = "oracle")))]
        let linear = false;
        if linear {
            candidates.extend(table.all.iter().copied());
        } else {
            if event.kind != WriteKind::Delete {
                // Exact-match candidates: queries filed under a (path,
                // value) pair the after-image carries. Mirrors the
                // matcher's implicit array semantics — an Eq predicate is
                // satisfied by the whole value or by any array element.
                let mut val = std::mem::take(&mut self.scratch_val);
                for pi in table.eq.values() {
                    if let Some(v) = matcher::resolve_path(&event.image, &pi.path) {
                        val.clear();
                        v.eq_canonical_into(&mut val);
                        if let Some(slots) = pi.by_value.get(val.as_str()) {
                            candidates.extend(slots.iter().copied());
                        }
                        if let Value::Array(items) = v {
                            for item in items {
                                val.clear();
                                item.eq_canonical_into(&mut val);
                                if let Some(slots) = pi.by_value.get(val.as_str()) {
                                    candidates.extend(slots.iter().copied());
                                }
                            }
                        }
                    }
                }
                self.scratch_val = val;
                // Residual scan list: no pruning possible.
                candidates.extend(table.residual.iter().copied());
            }
            // Was-match candidates: a query that currently matches this
            // record must be re-checked even if the new image no longer
            // satisfies its equality binding (Remove detection). Deletes
            // need nothing else: `is` is false for every query, so only
            // currently-matching queries can emit (Remove).
            if let Some(slots) = table.matched_by.get(event.id.as_ref()) {
                candidates.extend(slots.iter().copied());
            }
            candidates.sort_unstable();
            candidates.dedup();
        }
        self.evaluations_skipped += (table.all.len() - candidates.len()) as u64;
        self.evaluations += candidates.len() as u64;
        for &slot in &candidates {
            let reg = self.slots[slot as usize].as_mut().expect("live slot");
            out.extend(step(reg, slot, &mut table.matched_by, event));
        }
        self.scratch = candidates;
        out
    }

    /// Match one event against the registered query `key` alone: the
    /// per-query step of [`process`](Self::process), without consulting
    /// or touching any other query. A registration replays the events
    /// that raced its evaluation through this, so no other query sees an
    /// event twice. `None` if `key` is not registered, the event is on
    /// another table, or the query's state did not change.
    pub fn process_query(&mut self, key: &QueryKey, event: &WriteEvent) -> Option<Notification> {
        let &slot = self.by_key.get(key)?;
        let reg = self.slots[slot as usize].as_mut().expect("live slot");
        if reg.query.table != *event.table {
            return None;
        }
        let table = self.tables.get_mut(event.table.as_ref())?;
        self.evaluations += 1;
        step(reg, slot, &mut table.matched_by, event)
    }

    /// Current matching ids of a query within this partition (tests).
    pub fn matching_ids(&self, key: &QueryKey) -> Option<Vec<String>> {
        self.by_key.get(key).map(|&slot| {
            let reg = self.slots[slot as usize].as_ref().expect("live slot");
            let mut v: Vec<String> = reg.matching.iter().map(|s| s.to_string()).collect();
            v.sort();
            v
        })
    }
}

/// "Is Match? / Was Match?" for one query (in `slot`) and one event:
/// update the query's matching set and the table's was-match index, and
/// report the transition.
fn step(
    reg: &mut RegisteredQuery,
    slot: Slot,
    matched_by: &mut FxHashMap<Arc<str>, FxHashSet<Slot>>,
    event: &WriteEvent,
) -> Option<Notification> {
    let was = reg.matching.contains(event.id.as_ref());
    let is = event.kind != WriteKind::Delete && matcher::matches(&reg.query.filter, &event.image);
    let notify = match (was, is) {
        (false, true) => {
            reg.matching.insert(event.id.clone());
            matched_by.entry(event.id.clone()).or_default().insert(slot);
            NotificationEvent::Add
        }
        (true, false) => {
            reg.matching.remove(event.id.as_ref());
            unlink(matched_by, &event.id, slot);
            NotificationEvent::Remove
        }
        (true, true) => NotificationEvent::Change,
        (false, false) => return None,
    };
    Some(Notification {
        query: reg.key.clone(),
        event: notify,
        record_id: event.id.clone(),
        at: event.at,
    })
}

/// Drop `slot` from the was-match entry of record `id`, and the entry
/// itself once no query matches the record.
fn unlink(matched_by: &mut FxHashMap<Arc<str>, FxHashSet<Slot>>, id: &str, slot: Slot) {
    if let Some(slots) = matched_by.get_mut(id) {
        slots.remove(&slot);
        if slots.is_empty() {
            matched_by.remove(id);
        }
    }
}

/// Convenience for tests: build a [`WriteEvent`].
pub fn write_event(
    table: &str,
    id: &str,
    kind: WriteKind,
    image: Document,
    seq: u64,
) -> WriteEvent {
    WriteEvent {
        table: Arc::from(table),
        id: Arc::from(id),
        kind,
        image: Arc::new(image),
        version: seq,
        seq,
        at: quaestor_common::Timestamp::from_millis(seq),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_document::{doc, Value};
    use quaestor_query::Filter;

    fn tags_query() -> (Query, QueryKey) {
        let q = Query::table("posts").filter(Filter::contains("tags", "example"));
        let k = QueryKey::of(&q);
        (q, k)
    }

    fn post(tags: &[&str]) -> Document {
        let mut d = doc! { "title" => "post" };
        d.insert(
            "tags",
            Value::Array(tags.iter().map(|t| Value::str(*t)).collect()),
        );
        d
    }

    #[test]
    fn figure_5_event_sequence() {
        // Figure 5: create untagged → +example (add) → +music (change)
        // → -example (remove).
        let (q, k) = tags_query();
        let mut node = MatchingNode::new();
        node.register(q, k.clone(), vec![]);

        let n1 = node.process(&write_event("posts", "p1", WriteKind::Insert, post(&[]), 1));
        assert!(n1.is_empty(), "untagged post matches nothing");

        let n2 = node.process(&write_event(
            "posts",
            "p1",
            WriteKind::Update,
            post(&["example"]),
            2,
        ));
        assert_eq!(n2.len(), 1);
        assert_eq!(n2[0].event, NotificationEvent::Add);

        let n3 = node.process(&write_event(
            "posts",
            "p1",
            WriteKind::Update,
            post(&["example", "music"]),
            3,
        ));
        assert_eq!(n3[0].event, NotificationEvent::Change);

        let n4 = node.process(&write_event(
            "posts",
            "p1",
            WriteKind::Update,
            post(&["music"]),
            4,
        ));
        assert_eq!(n4[0].event, NotificationEvent::Remove);
        assert_eq!(node.matching_ids(&k).unwrap().len(), 0);
    }

    #[test]
    fn delete_of_matching_record_is_remove() {
        let (q, k) = tags_query();
        let mut node = MatchingNode::new();
        node.register(q, k, vec!["p1".into()]);
        let n = node.process(&write_event(
            "posts",
            "p1",
            WriteKind::Delete,
            post(&["example"]), // before-image
            2,
        ));
        assert_eq!(n[0].event, NotificationEvent::Remove);
    }

    #[test]
    fn delete_of_non_matching_record_is_silent() {
        let (q, k) = tags_query();
        let mut node = MatchingNode::new();
        node.register(q, k, vec![]);
        let n = node.process(&write_event("posts", "p9", WriteKind::Delete, post(&[]), 2));
        assert!(n.is_empty());
    }

    #[test]
    fn initial_result_seeding_makes_first_update_a_change() {
        let (q, k) = tags_query();
        let mut node = MatchingNode::new();
        node.register(q, k, vec!["p1".into()]);
        let n = node.process(&write_event(
            "posts",
            "p1",
            WriteKind::Update,
            post(&["example", "new"]),
            2,
        ));
        assert_eq!(
            n[0].event,
            NotificationEvent::Change,
            "was already matching"
        );
    }

    #[test]
    fn other_tables_are_ignored() {
        let (q, k) = tags_query();
        let mut node = MatchingNode::new();
        node.register(q, k, vec![]);
        let n = node.process(&write_event(
            "users",
            "u1",
            WriteKind::Insert,
            post(&["example"]),
            1,
        ));
        assert!(n.is_empty());
        assert_eq!(node.evaluations(), 0, "cross-table events are not matched");
        assert_eq!(node.evaluations_skipped(), 0, "nor counted as pruned");
    }

    #[test]
    fn multiple_queries_each_get_notifications() {
        let mut node = MatchingNode::new();
        let (q1, k1) = tags_query();
        let q2 = Query::table("posts").filter(Filter::contains("tags", "music"));
        let k2 = QueryKey::of(&q2);
        node.register(q1, k1.clone(), vec![]);
        node.register(q2, k2.clone(), vec![]);
        let n = node.process(&write_event(
            "posts",
            "p1",
            WriteKind::Insert,
            post(&["example", "music"]),
            1,
        ));
        assert_eq!(n.len(), 2, "both queries gained the record");
        assert!(n.iter().all(|x| x.event == NotificationEvent::Add));
    }

    #[test]
    fn deregister_stops_notifications() {
        let (q, k) = tags_query();
        let mut node = MatchingNode::new();
        node.register(q, k.clone(), vec![]);
        assert!(node.deregister(&k));
        assert!(!node.deregister(&k));
        let n = node.process(&write_event(
            "posts",
            "p1",
            WriteKind::Insert,
            post(&["example"]),
            1,
        ));
        assert!(n.is_empty());
    }

    // ---------------------------------------------- predicate-index tests

    fn eq_query(i: usize) -> (Query, QueryKey) {
        let q = Query::table("t").filter(Filter::eq("tag", format!("v{i}")));
        let k = QueryKey::of(&q);
        (q, k)
    }

    #[test]
    fn indexed_equality_query_still_tracks_membership() {
        let mut node = MatchingNode::new();
        let (q, k) = eq_query(7);
        node.register(q, k.clone(), vec![]);
        let add = node.process(&write_event(
            "t",
            "r1",
            WriteKind::Insert,
            doc! { "tag" => "v7" },
            1,
        ));
        assert_eq!(add.len(), 1);
        assert_eq!(add[0].event, NotificationEvent::Add);
        // The record drifts to a different value: Remove, found via the
        // was-match reverse index (the eq index no longer lists the query).
        let rm = node.process(&write_event(
            "t",
            "r1",
            WriteKind::Update,
            doc! { "tag" => "v8" },
            2,
        ));
        assert_eq!(rm.len(), 1);
        assert_eq!(rm[0].event, NotificationEvent::Remove);
        assert!(node.matching_ids(&k).unwrap().is_empty());
    }

    #[test]
    fn array_fields_hit_equality_index_per_element() {
        // matcher::matches treats Eq on an array as "any element equals";
        // the index must derive candidates from the elements too.
        let mut node = MatchingNode::new();
        let (q, k) = eq_query(3);
        node.register(q, k, vec![]);
        let mut d = Document::new();
        d.insert(
            "tag",
            Value::Array(vec![Value::str("v1"), Value::str("v3")]),
        );
        let n = node.process(&write_event("t", "r1", WriteKind::Insert, d, 1));
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].event, NotificationEvent::Add);
    }

    #[test]
    fn conjunction_with_equality_is_indexed_but_fully_evaluated() {
        // And([Eq(tag,v1), Gt(likes,10)]): filed under tag=v1, but the Gt
        // conjunct must still be checked on every candidate.
        let mut node = MatchingNode::new();
        let q = Query::table("t").filter(Filter::and([
            Filter::eq("tag", "v1"),
            Filter::gt("likes", 10),
        ]));
        let k = QueryKey::of(&q);
        node.register(q, k, vec![]);
        let miss = node.process(&write_event(
            "t",
            "r1",
            WriteKind::Insert,
            doc! { "tag" => "v1", "likes" => 5 },
            1,
        ));
        assert!(miss.is_empty(), "equality hit but conjunction fails");
        let hit = node.process(&write_event(
            "t",
            "r1",
            WriteKind::Update,
            doc! { "tag" => "v1", "likes" => 50 },
            2,
        ));
        assert_eq!(hit.len(), 1);
        assert_eq!(hit[0].event, NotificationEvent::Add);
    }

    #[test]
    fn numeric_equality_unifies_int_and_float() {
        // Eq(5) must be found for an image carrying 5.0 — Value equality
        // and canonical rendering agree on numeric unification.
        let mut node = MatchingNode::new();
        let q = Query::table("t").filter(Filter::eq("n", 5));
        let k = QueryKey::of(&q);
        node.register(q, k, vec![]);
        let n = node.process(&write_event(
            "t",
            "r1",
            WriteKind::Insert,
            doc! { "n" => 5.0 },
            1,
        ));
        assert_eq!(n.len(), 1, "5.0 must hit the index entry for 5");
    }

    #[test]
    fn giant_integers_match_through_lossy_numeric_equality() {
        // Value's numeric order compares through f64, so Int(2^53 + 1) ==
        // Float(2^53 as f64) even though their canonical strings differ.
        // The index keys on the equality-consistent rendering and must
        // agree with the linear scan here.
        let huge_query = 9_007_199_254_740_993i64; // 2^53 + 1
        let huge_image = 9_007_199_254_740_992.0f64; // 2^53
        let q = Query::table("t").filter(Filter::eq("n", huge_query));
        let k = QueryKey::of(&q);
        let mut indexed = MatchingNode::new();
        let mut linear = MatchingNode::linear();
        indexed.register(q.clone(), k.clone(), vec![]);
        linear.register(q, k, vec![]);
        let ev = write_event("t", "r1", WriteKind::Insert, doc! { "n" => huge_image }, 1);
        let a = indexed.process(&ev);
        let b = linear.process(&ev);
        assert_eq!(a, b);
        assert_eq!(a.len(), 1, "lossy-equal numerics must still match");
    }

    #[test]
    fn reregistration_replaces_state() {
        let mut node = MatchingNode::new();
        let (q, k) = eq_query(1);
        node.register(q.clone(), k.clone(), vec!["r1".into()]);
        node.register(q, k.clone(), vec![]);
        assert_eq!(node.query_count(), 1);
        assert!(node.matching_ids(&k).unwrap().is_empty());
    }

    #[test]
    fn reseed_replaces_matching_set_in_place() {
        let mut node = MatchingNode::new();
        let (q, k) = eq_query(1);
        node.register(q, k.clone(), vec!["r1".into(), "r2".into()]);
        assert!(node.reseed(&k, ["r2", "r3"].into_iter()));
        assert_eq!(node.matching_ids(&k).unwrap(), ["r2", "r3"]);
        // r1 left the was-match index: its deletion is silent now, and
        // r3's is a Remove.
        let gone = write_event("t", "r1", WriteKind::Delete, doc! { "tag" => "v1" }, 1);
        assert!(node.process(&gone).is_empty());
        let r3 = write_event("t", "r3", WriteKind::Delete, doc! { "tag" => "v1" }, 2);
        assert_eq!(node.process(&r3)[0].event, NotificationEvent::Remove);
        assert!(!node.reseed(&eq_query(2).1, std::iter::empty()));
    }

    #[test]
    fn predicate_index_prunes_10x_at_10k_queries() {
        // The ISSUE acceptance criterion: at 10k registered equality
        // queries the evaluation count must drop ≥10× vs the linear scan,
        // with identical notifications.
        const QUERIES: usize = 10_000;
        let mut indexed = MatchingNode::new();
        let mut linear = MatchingNode::linear();
        for i in 0..QUERIES {
            let (q, k) = eq_query(i);
            indexed.register(q.clone(), k.clone(), vec![]);
            linear.register(q, k, vec![]);
        }
        for e in 0..50u64 {
            let image = doc! { "tag" => format!("v{}", (e as usize * 37) % QUERIES) };
            let ev = write_event("t", &format!("r{e}"), WriteKind::Insert, image, e);
            let mut a = indexed.process(&ev);
            let mut b = linear.process(&ev);
            a.sort_by(|x, y| x.query.cmp(&y.query));
            b.sort_by(|x, y| x.query.cmp(&y.query));
            assert_eq!(a, b, "indexed and linear notifications diverged");
        }
        assert_eq!(
            indexed.evaluations() + indexed.evaluations_skipped(),
            linear.evaluations(),
            "pruned + evaluated must account for the full linear scan"
        );
        assert!(
            indexed.evaluations() * 10 <= linear.evaluations(),
            "index only cut evaluations from {} to {}",
            linear.evaluations(),
            indexed.evaluations()
        );
    }

    #[test]
    fn linear_mode_counts_no_skips() {
        let mut node = MatchingNode::linear();
        let (q, k) = eq_query(0);
        node.register(q, k, vec![]);
        node.process(&write_event(
            "t",
            "r1",
            WriteKind::Insert,
            doc! { "tag" => "nope" },
            1,
        ));
        assert_eq!(node.evaluations(), 1);
        assert_eq!(node.evaluations_skipped(), 0);
    }
}
