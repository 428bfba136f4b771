//! The cost-aware query planner.
//!
//! [`Table::query`](crate::Table::query) routes every read through one
//! plan built here (local, sharded and remote topologies all reach it via
//! the same `Table`), decomposing the normalized filter into
//! index-servable conjuncts:
//!
//! * equality conjuncts with a declared hash index → **hash probe**, all
//!   servable equalities intersected smallest-posting-list-first;
//! * range conjuncts (`$gt/$gte/$lt/$lte`, and equalities with only an
//!   ordered index) → **ordered-index range scan**, bounds merged per
//!   path when the index is not multikey;
//! * everything else → candidates re-checked with the full filter (the
//!   residual predicate), falling back to the reference **shard scan**
//!   when no index serves the filter.
//!
//! Access paths are priced by estimated candidate count (posting-list
//! lengths are exact; range estimates walk buckets capped at the best
//! cost so far) and the cheapest wins. Sorting is planned separately:
//! emission in ordered-index order when the primary sort key is indexed
//! (stopping at `offset + limit`), a bounded top-k heap when a `limit`
//! bounds the result, and a full sort only when nothing better applies.

use std::sync::Arc;

use quaestor_obs::Counter;

use quaestor_document::{Path, Value};
use quaestor_query::{index_bindings, normalize_filter, IndexBinding, Order, Query};

use crate::index::{IndexSet, RangeBounds};

/// How the planner will produce the candidate set of a query.
#[derive(Debug, Clone, PartialEq)]
pub enum AccessPath {
    /// Probe hash indexes with the filter's equality bindings and
    /// intersect the posting lists, smallest first.
    HashProbe {
        /// Indexed paths probed, in intersection order.
        paths: Vec<Path>,
        /// Size of the smallest posting list (the intersection's upper
        /// bound), measured at plan time.
        estimated: usize,
    },
    /// Walk one ordered index over the merged bound interval.
    RangeScan {
        /// The scanned index's path.
        path: Path,
        /// Capped bucket-walk estimate of ids in the interval.
        estimated: usize,
    },
    /// The reference path: scan every shard.
    FullScan {
        /// Table size at plan time.
        estimated: usize,
    },
    /// The filter is unsatisfiable over an index (inverted bounds); the
    /// result is provably empty without touching a shard.
    Empty,
}

impl AccessPath {
    /// The planner's candidate-count estimate for this path (0 for a
    /// provably empty result) — compared against the actual result
    /// cardinality by [`QueryStats::record_cardinality`].
    pub fn estimated(&self) -> usize {
        match self {
            AccessPath::HashProbe { estimated, .. }
            | AccessPath::RangeScan { estimated, .. }
            | AccessPath::FullScan { estimated } => *estimated,
            AccessPath::Empty => 0,
        }
    }
}

/// How the planner will order (and truncate) the hits.
#[derive(Debug, Clone, PartialEq)]
pub enum SortStrategy {
    /// Emit in ordered-index order, stopping at `offset + limit`
    /// matches; no sort happens at all.
    IndexOrder {
        /// The index whose key order is the primary sort order.
        path: Path,
        /// True for a descending walk.
        reverse: bool,
    },
    /// Keep the best `offset + limit` hits in a bounded binary heap —
    /// O(n log k) instead of the full sort's O(n log n).
    TopK {
        /// Heap capacity (`offset + limit`).
        k: usize,
    },
    /// Sort the whole match set (always by the query's sort keys with the
    /// `_id` tie-break, even for sort-less queries — result order is
    /// deterministic either way).
    FullSort,
}

/// The chosen execution strategy for one query — what
/// [`Table::explain`](crate::Table::explain) returns and what tests pin.
#[derive(Debug, Clone, PartialEq)]
pub struct QueryPlan {
    /// Candidate generation.
    pub access: AccessPath,
    /// Ordering / truncation.
    pub sort: SortStrategy,
}

/// Per-database counters of planner decisions, shared by all tables. A
/// server binds each into its registry as `server.query_*`.
#[derive(Debug, Default)]
pub struct QueryStats {
    /// Queries served by a hash-index probe (or proven empty by one).
    pub index_probes: Counter,
    /// Queries served by an ordered-index range scan.
    pub range_scans: Counter,
    /// Queries that fell back to the reference shard scan.
    pub full_scans: Counter,
    /// Queries whose sort was cut short: a bounded top-k heap replaced
    /// the full sort, or an in-index-order emission stopped early at
    /// `offset + limit`.
    pub topk_short_circuits: Counter,
    /// Sum of planner-estimated result cardinalities over executed
    /// plans.
    pub card_estimated: Counter,
    /// Sum of actual result cardinalities over the same executed plans.
    /// Together with `card_estimated` this measures how well the cost
    /// model predicts real result sizes (seed data for adaptive TTLs).
    pub card_actual: Counter,
}

impl QueryStats {
    pub(crate) fn record_access(&self, access: &AccessPath) {
        let counter = match access {
            AccessPath::HashProbe { .. } | AccessPath::Empty => &self.index_probes,
            AccessPath::RangeScan { .. } => &self.range_scans,
            AccessPath::FullScan { .. } => &self.full_scans,
        };
        counter.inc();
    }

    pub(crate) fn record_short_circuit(&self) {
        self.topk_short_circuits.inc();
    }

    /// Record one executed plan's estimated vs. actual result
    /// cardinality.
    pub(crate) fn record_cardinality(&self, estimated: usize, actual: usize) {
        self.card_estimated.add(estimated as u64);
        self.card_actual.add(actual as u64);
    }
}

/// One endpoint of a merged interval, owned (plan outlives the binding
/// borrow).
type Endpoint = Option<(Value, bool)>;

/// A per-path merged range: the tightest lower and upper bound among the
/// path's range conjuncts (only merged across conjuncts when the index is
/// not multikey — see [`merge_bounds`]).
#[derive(Debug, Clone)]
pub(crate) struct OwnedBounds {
    pub lower: Endpoint,
    pub upper: Endpoint,
}

impl OwnedBounds {
    pub(crate) fn as_range_bounds(&self) -> RangeBounds<'_> {
        fn side(e: &Endpoint) -> std::ops::Bound<&Value> {
            match e {
                None => std::ops::Bound::Unbounded,
                Some((v, true)) => std::ops::Bound::Included(v),
                Some((v, false)) => std::ops::Bound::Excluded(v),
            }
        }
        RangeBounds {
            lower: side(&self.lower),
            upper: side(&self.upper),
        }
    }
}

/// The internal, executable plan: the public description plus the owned
/// values the executor needs.
#[derive(Debug)]
pub(crate) struct Plan {
    pub describe: QueryPlan,
    pub detail: AccessDetail,
}

#[derive(Debug)]
pub(crate) enum AccessDetail {
    HashProbe { bindings: Vec<(Path, Value)> },
    RangeScan { path: Path, bounds: OwnedBounds },
    FullScan,
    Empty,
}

/// Merge two endpoints into the tighter one. `is_lower` flips the
/// direction (lower bounds maximize, upper bounds minimize); at equal
/// values the exclusive endpoint is tighter.
fn tighter(a: Endpoint, b: Endpoint, is_lower: bool) -> Endpoint {
    match (a, b) {
        (None, x) | (x, None) => x,
        (Some((va, ia)), Some((vb, ib))) => {
            let ord = va.cmp(&vb);
            let keep_a = if is_lower {
                ord == std::cmp::Ordering::Greater
            } else {
                ord == std::cmp::Ordering::Less
            };
            if keep_a {
                Some((va, ia))
            } else if ord == std::cmp::Ordering::Equal {
                // Equal values: exclusive beats inclusive on either side.
                Some((va, ia && ib))
            } else {
                Some((vb, ib))
            }
        }
    }
}

/// Build the plan for `query` against the table's current indexes.
///
/// `table_len` prices the fallback shard scan. The chosen access path is
/// the cheapest by estimated candidates; every path's candidates are
/// re-checked against the full filter, so index choice never changes
/// results, only cost.
pub(crate) fn plan_query(query: &Query, indexes: &IndexSet, table_len: usize) -> Plan {
    let normalized = normalize_filter(&query.filter);
    let bindings = index_bindings(&normalized);

    // --- hash-probe option: all equality bindings with a hash index.
    let mut eq_bindings: Vec<(Path, Value, usize)> = Vec::new();
    for b in &bindings {
        if let IndexBinding::Eq { path, value } = b {
            if let Some(idx) = indexes.hash_on(path) {
                let len = idx.lookup(value).map_or(0, |s| s.len());
                eq_bindings.push((path.clone(), value.clone(), len));
            }
        }
    }
    // Smallest posting list first: the intersection starts from it and
    // the others only answer membership probes.
    eq_bindings.sort_by_key(|(_, _, len)| *len);
    let hash_option = (!eq_bindings.is_empty()).then(|| {
        let estimated = eq_bindings[0].2;
        (
            AccessPath::HashProbe {
                paths: eq_bindings.iter().map(|(p, _, _)| p.clone()).collect(),
                estimated,
            },
            AccessDetail::HashProbe {
                bindings: eq_bindings.into_iter().map(|(p, v, _)| (p, v)).collect(),
            },
        )
    });

    // --- range-scan options: per ordered-indexed path, the merged (or,
    // for multikey indexes, per-conjunct) interval. Equalities double as
    // point intervals when no hash index serves them.
    let mut range_options: Vec<(Path, OwnedBounds)> = Vec::new();
    for b in &bindings {
        let path = b.path();
        let Some(idx) = indexes.ordered_on(path) else {
            continue;
        };
        let bounds = match b {
            IndexBinding::Eq { value, .. } => {
                if indexes.hash_on(path).is_some() {
                    continue; // the hash probe already covers it exactly
                }
                OwnedBounds {
                    lower: Some((value.clone(), true)),
                    upper: Some((value.clone(), true)),
                }
            }
            IndexBinding::Range { lower, upper, .. } => OwnedBounds {
                lower: lower.clone(),
                upper: upper.clone(),
            },
        };
        // Merging bounds that come from *different* conjuncts is only
        // exact when each document has exactly one index key: with a
        // multikey (array) index, `a > 5 AND a < 9` can be satisfied by
        // two different elements with no single key inside (5, 9).
        if !idx.is_multikey() {
            if let Some((_, existing)) = range_options.iter_mut().find(|(p, _)| p == path) {
                existing.lower = tighter(existing.lower.take(), bounds.lower, true);
                existing.upper = tighter(existing.upper.take(), bounds.upper, false);
                continue;
            }
        }
        range_options.push((path.clone(), bounds));
    }

    // --- choose the cheapest access path.
    let mut best = (
        AccessPath::FullScan {
            estimated: table_len,
        },
        AccessDetail::FullScan,
    );
    if let Some(hash) = hash_option {
        if hash.0.estimated() <= best.0.estimated() {
            best = hash;
        }
    }
    for (path, bounds) in range_options {
        let cap = best.0.estimated();
        let rb = bounds.as_range_bounds();
        if rb.is_empty() {
            best = (AccessPath::Empty, AccessDetail::Empty);
            break;
        }
        let estimated = indexes
            .ordered_on(&path)
            .map_or(usize::MAX, |idx| idx.estimate_range(rb, cap));
        if estimated < cap {
            best = (
                AccessPath::RangeScan {
                    path: path.clone(),
                    estimated,
                },
                AccessDetail::RangeScan { path, bounds },
            );
        }
    }
    let (access, detail) = best;

    // --- sort strategy.
    let sort = plan_sort(query, indexes, &access);

    Plan {
        describe: QueryPlan { access, sort },
        detail,
    }
}

fn plan_sort(query: &Query, indexes: &IndexSet, access: &AccessPath) -> SortStrategy {
    if let Some(first) = query.sort.first() {
        // In-order emission applies when the walked index *is* the
        // primary sort key's index (and one key per doc holds).
        let pushdown = match access {
            // Over a full scan, walking the sort index only pays when a
            // LIMIT lets emission stop early: unlimited, it would trade
            // one sequential shard pass plus sorting the survivors for
            // O(table) id materialization and random fetches.
            AccessPath::FullScan { .. } => {
                query.limit.is_some()
                    && indexes
                        .ordered_on(&first.path)
                        .is_some_and(|i| !i.is_multikey())
            }
            // A range scan on the sort path fetches exactly the same
            // candidates either way — in-order emission just skips the
            // sort, so it pays with or without a limit.
            AccessPath::RangeScan { path, .. } => {
                *path == first.path && indexes.ordered_on(path).is_some_and(|i| !i.is_multikey())
            }
            AccessPath::HashProbe { .. } | AccessPath::Empty => false,
        };
        if pushdown {
            return SortStrategy::IndexOrder {
                path: first.path.clone(),
                reverse: first.order == Order::Desc,
            };
        }
    }
    match query.limit {
        Some(limit) => SortStrategy::TopK {
            k: query.offset.saturating_add(limit),
        },
        None => SortStrategy::FullSort,
    }
}

/// A bounded "best k under a comparator" binary heap: the replacement for
/// sort-then-truncate on `LIMIT k` queries. Keeps the k smallest items
/// seen (a max-heap whose root is evicted by anything smaller), so
/// pushing n items costs O(n log k) comparisons instead of the full
/// sort's O(n log n).
pub(crate) struct TopK<T, F: Fn(&T, &T) -> std::cmp::Ordering> {
    cap: usize,
    heap: Vec<T>,
    cmp: F,
    truncated: bool,
}

impl<T, F: Fn(&T, &T) -> std::cmp::Ordering> TopK<T, F> {
    pub(crate) fn new(cap: usize, cmp: F) -> Self {
        TopK {
            cap,
            heap: Vec::with_capacity(cap.min(1024)),
            cmp,
            truncated: false,
        }
    }

    /// True if any pushed item was rejected or evicted (the heap really
    /// did less work than a full sort would have).
    pub(crate) fn truncated(&self) -> bool {
        self.truncated
    }

    pub(crate) fn push(&mut self, item: T) {
        if self.cap == 0 {
            self.truncated = true;
            return;
        }
        if self.heap.len() < self.cap {
            self.heap.push(item);
            self.sift_up(self.heap.len() - 1);
            return;
        }
        // Full: only items smaller than the current maximum (the root)
        // belong to the best k.
        if (self.cmp)(&item, &self.heap[0]) == std::cmp::Ordering::Less {
            self.heap[0] = item;
            self.sift_down(0);
        }
        self.truncated = true;
    }

    /// The kept items, smallest first.
    pub(crate) fn into_sorted(self) -> Vec<T> {
        let TopK { mut heap, cmp, .. } = self;
        heap.sort_by(|a, b| cmp(a, b));
        heap
    }

    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / 2;
            if (self.cmp)(&self.heap[i], &self.heap[parent]) == std::cmp::Ordering::Greater {
                self.heap.swap(i, parent);
                i = parent;
            } else {
                break;
            }
        }
    }

    fn sift_down(&mut self, mut i: usize) {
        loop {
            let (l, r) = (2 * i + 1, 2 * i + 2);
            let mut largest = i;
            if l < self.heap.len()
                && (self.cmp)(&self.heap[l], &self.heap[largest]) == std::cmp::Ordering::Greater
            {
                largest = l;
            }
            if r < self.heap.len()
                && (self.cmp)(&self.heap[r], &self.heap[largest]) == std::cmp::Ordering::Greater
            {
                largest = r;
            }
            if largest == i {
                return;
            }
            self.heap.swap(i, largest);
            i = largest;
        }
    }
}

/// Apply offset/limit to an already-ordered hit list.
pub(crate) fn paginate<T>(mut hits: Vec<T>, offset: usize, limit: Option<usize>) -> Vec<T> {
    let start = offset.min(hits.len());
    let end = match limit {
        Some(l) => start.saturating_add(l).min(hits.len()),
        None => hits.len(),
    };
    hits.drain(..start);
    hits.truncate(end - start);
    hits
}

/// Shared handle to a database's planner counters.
pub type QueryStatsRef = Arc<QueryStats>;

#[cfg(test)]
mod tests {
    use super::*;

    fn cmp_i64(a: &i64, b: &i64) -> std::cmp::Ordering {
        a.cmp(b)
    }

    #[test]
    fn topk_keeps_smallest_k_sorted() {
        let mut tk = TopK::new(3, cmp_i64);
        for v in [9i64, 1, 8, 2, 7, 3, 0] {
            tk.push(v);
        }
        assert!(tk.truncated());
        assert_eq!(tk.into_sorted(), vec![0, 1, 2]);
    }

    #[test]
    fn topk_under_capacity_is_a_plain_sort() {
        let mut tk = TopK::new(10, cmp_i64);
        for v in [3i64, 1, 2] {
            tk.push(v);
        }
        assert!(!tk.truncated());
        assert_eq!(tk.into_sorted(), vec![1, 2, 3]);
    }

    #[test]
    fn topk_zero_capacity_is_empty() {
        let mut tk = TopK::new(0, cmp_i64);
        tk.push(5);
        assert!(tk.into_sorted().is_empty());
    }

    #[test]
    fn tighter_picks_the_narrower_endpoint() {
        let five = || Some((Value::Int(5), true));
        let five_x = || Some((Value::Int(5), false));
        let nine = || Some((Value::Int(9), true));
        // Lower bounds maximize; upper bounds minimize.
        assert_eq!(tighter(five(), nine(), true), nine());
        assert_eq!(tighter(five(), nine(), false), five());
        assert_eq!(tighter(None, nine(), true), nine());
        // Equal values: exclusive wins.
        assert_eq!(tighter(five(), five_x(), true), five_x());
        assert_eq!(tighter(five(), five_x(), false), five_x());
    }

    #[test]
    fn paginate_clamps() {
        let v = vec![1, 2, 3, 4, 5];
        assert_eq!(paginate(v.clone(), 1, Some(2)), vec![2, 3]);
        assert_eq!(paginate(v.clone(), 0, None), v);
        assert_eq!(paginate(v.clone(), 9, Some(2)), Vec::<i32>::new());
        assert_eq!(paginate(v, 4, Some(9)), vec![5]);
    }
}
