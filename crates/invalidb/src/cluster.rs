//! InvaliDB's inline deployment: one matching node, the sorted-query
//! layer and the replay window that closes the activation race.
//!
//! The paper spreads InvaliDB over a query × object grid of Storm nodes
//! (Figure 6) to scale it out; [`crate::ThreadedPipeline`] measures that
//! partitioning for Figure 12. A server matches every write on the
//! writing thread, where a grid would split no work, so it runs one
//! [`MatchingNode`] for the stateless queries and one map of
//! [`SortedQueryState`]s for the stateful ones.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use quaestor_common::FxHashMap;
use quaestor_document::Document;
use quaestor_query::{Query, QueryKey};
use quaestor_store::WriteEvent;

use crate::event::Notification;
use crate::matching::MatchingNode;
use crate::sorted::SortedQueryState;

/// Events the replay window keeps. A registration whose mark is further
/// behind than this reports an [overrun](Replay::overrun).
pub const REPLAY_WINDOW: usize = 256;

/// What a registration's replay found.
#[derive(Debug)]
pub struct Replay {
    /// The registering query's notifications from the buffered events
    /// ingested after the caller's mark: changes that raced the initial
    /// evaluation, to be applied as invalidations at once.
    pub raced: Vec<Notification>,
    /// More than [`REPLAY_WINDOW`] events were ingested since the mark,
    /// so the oldest of the raced events are gone and the initial result
    /// may already be stale without any notification saying so.
    pub overrun: bool,
}

/// The InvaliDB of one server: query registration, write ingestion and
/// the replay window.
///
/// Deterministic and inline: [`on_write`](Self::on_write) matches the
/// event on the caller's thread and returns every notification it
/// caused, as the simulator requires.
#[derive(Default)]
pub struct InvaliDbCluster {
    /// The stateless queries.
    node: Mutex<MatchingNode>,
    /// The stateful (sorted) queries, by key.
    sorted: Mutex<FxHashMap<QueryKey, SortedQueryState>>,
    /// The last [`REPLAY_WINDOW`] events, tagged with their ingest
    /// sequence number and kept in that order.
    replay: Mutex<VecDeque<(u64, WriteEvent)>>,
    /// Events ingested so far; [`ingest_mark`](Self::ingest_mark) reads it.
    ingest_seq: AtomicU64,
}

impl std::fmt::Debug for InvaliDbCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvaliDbCluster")
            .field("queries", &self.query_count())
            .finish()
    }
}

impl InvaliDbCluster {
    /// Current ingest watermark. Capture this **before** evaluating a
    /// query's initial result; pass it to [`register_query`] so only
    /// events that raced the evaluation are replayed.
    ///
    /// [`register_query`]: InvaliDbCluster::register_query
    pub fn ingest_mark(&self) -> u64 {
        self.ingest_seq.load(Ordering::SeqCst)
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        let stateless = self.node.lock().query_count();
        stateless + self.sorted.lock().len()
    }

    /// Register a query for invalidation detection. `key` is the query's
    /// [`QueryKey::of`]. Admission is the caller's: the cluster holds
    /// every query it is given.
    ///
    /// "Every new query is initially evaluated on Quaestor and then sent
    /// to InvaliDB together with the initial result set. To rule out the
    /// possibility of missing updates in the timeframe between the initial
    /// query evaluation and the successful query activation, all recently
    /// received objects are replayed for a query when it is installed."
    ///
    /// Registering a query that is already registered *replaces* its
    /// state: the outcome equals [`deregister_query`] followed by a first
    /// registration. A live stateless query is replaced in place — its
    /// matching set is overwritten with the fresh initial ids and nothing
    /// is rebuilt or cloned; stateful queries are rebuilt. Either way, the
    /// buffered events ingested after `mark` are then matched against
    /// this query alone: no other query sees them twice.
    ///
    /// [`deregister_query`]: InvaliDbCluster::deregister_query
    pub fn register_query(
        &self,
        query: &Query,
        key: &QueryKey,
        initial_result: &[Arc<Document>],
        mark: u64,
    ) -> Replay {
        debug_assert_eq!(key, &QueryKey::of(query));
        // Held until the query is installed: an event ingested meanwhile
        // is either buffered before the replay reads it or matched after
        // the query is in place.
        let replay = self.replay.lock();
        // The buffer is ordered by ingest sequence (`on_write` assigns
        // each number under its lock), so the first event after the mark
        // is found by bisection.
        let events = replay
            .range(replay.partition_point(|&(seq, _)| seq <= mark)..)
            .map(|(_, ev)| ev);
        let overrun = replay.front().is_some_and(|&(oldest, _)| oldest > mark + 1);
        let raced = if query.is_stateful() {
            // The initial result of a stateful query must be its FULL
            // (unwindowed) matching set, for offset bookkeeping.
            let mut state =
                SortedQueryState::new(query.clone(), key.clone(), initial_result.to_vec());
            let raced = events.flat_map(|ev| state.process(ev)).collect();
            self.sorted.lock().insert(key.clone(), state);
            raced
        } else {
            let ids = initial_result
                .iter()
                .filter_map(|d| d.get("_id").and_then(|v| v.as_str()));
            let mut node = self.node.lock();
            if !node.reseed(key, ids.clone()) {
                node.register(query.clone(), key.clone(), ids.map(Arc::from).collect());
            }
            events
                .filter_map(|ev| node.process_query(key, ev))
                .collect()
        };
        Replay { raced, overrun }
    }

    /// Deactivate a query; returns whether it was registered.
    pub fn deregister_query(&self, key: &QueryKey) -> bool {
        if self.node.lock().deregister(key) {
            return true;
        }
        self.sorted.lock().remove(key).is_some()
    }

    /// Ingest one write event; returns all notifications it caused.
    pub fn on_write(&self, event: &WriteEvent) -> Vec<Notification> {
        {
            let mut replay = self.replay.lock();
            let seq = self.ingest_seq.fetch_add(1, Ordering::SeqCst) + 1;
            if replay.len() == REPLAY_WINDOW {
                replay.pop_front();
            }
            replay.push_back((seq, event.clone()));
        }
        let mut out = self.node.lock().process(event);
        // Every stateful query sees every event of its table.
        for state in self.sorted.lock().values_mut() {
            out.extend(state.process(event));
        }
        out
    }

    /// Total match evaluations of the stateless queries (Figure 12's ops
    /// measure).
    pub fn total_evaluations(&self) -> u64 {
        self.node.lock().evaluations()
    }

    /// Total candidate evaluations the predicate index pruned;
    /// `total_evaluations + total_evaluations_skipped` is what a linear
    /// scan would have cost.
    pub fn total_evaluations_skipped(&self) -> u64 {
        self.node.lock().evaluations_skipped()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::NotificationEvent;
    use crate::matching::write_event;
    use quaestor_document::{doc, Value};
    use quaestor_query::{Filter, Order};
    use quaestor_store::WriteKind;

    fn post(id: &str, tags: &[&str], score: i64) -> Document {
        let mut d = doc! { "_id" => id, "score" => score };
        d.insert(
            "tags",
            Value::Array(tags.iter().map(|t| Value::str(*t)).collect()),
        );
        d
    }

    fn insert(id: &str, tags: &[&str], seq: u64) -> WriteEvent {
        write_event("posts", id, WriteKind::Insert, post(id, tags, 0), seq)
    }

    fn tagged(tag: &str) -> (Query, QueryKey) {
        let q = Query::table("posts").filter(Filter::contains("tags", tag));
        let key = QueryKey::of(&q);
        (q, key)
    }

    #[test]
    fn add_notification_through_grid() {
        let c = InvaliDbCluster::default();
        let (q, key) = tagged("example");
        c.register_query(&q, &key, &[], c.ingest_mark());
        let n = c.on_write(&insert("p1", &["example"], 1));
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].query, key);
        assert_eq!(n[0].event, NotificationEvent::Add);
    }

    #[test]
    fn initial_result_split_across_rows() {
        let c = InvaliDbCluster::default();
        let (q, key) = tagged("t");
        let initial: Vec<Arc<Document>> = (0..20)
            .map(|i| Arc::new(post(&format!("p{i}"), &["t"], i)))
            .collect();
        c.register_query(&q, &key, &initial, c.ingest_mark());
        // Removing any of the seeded records must notify Remove.
        let n = c.on_write(&write_event(
            "posts",
            "p7",
            WriteKind::Update,
            post("p7", &[], 7),
            100,
        ));
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].event, NotificationEvent::Remove);
    }

    #[test]
    fn replay_closes_activation_race() {
        let c = InvaliDbCluster::default();
        // A write arrives BEFORE the query is registered (initial result
        // was computed before this write - the race).
        c.on_write(&insert("p1", &["example"], 1));
        let (q, key) = tagged("example");
        // Initial result predates the insert: empty.
        let replay = c.register_query(&q, &key, &[], 0);
        assert_eq!(replay.raced.len(), 1, "the raced write is replayed");
        assert_eq!(replay.raced[0].event, NotificationEvent::Add);
        assert!(!replay.overrun);
    }

    #[test]
    fn reregistration_replays_only_events_after_the_mark() {
        let c = InvaliDbCluster::default();
        let (q, key) = tagged("x");
        c.register_query(&q, &key, &[], c.ingest_mark());
        let p1 = post("p1", &["x"], 1);
        c.on_write(&write_event(
            "posts",
            "p1",
            WriteKind::Insert,
            p1.clone(),
            1,
        ));
        let mark = c.ingest_mark();
        c.on_write(&insert("p2", &["x"], 2));
        // The re-evaluation at `mark` saw p1 but not p2: only p2's insert
        // raced it, and it re-enters the replaced matching set.
        let replay = c.register_query(&q, &key, &[Arc::new(p1)], mark);
        assert_eq!(replay.raced.len(), 1);
        assert_eq!(replay.raced[0].record_id.as_ref(), "p2");
        assert_eq!(replay.raced[0].event, NotificationEvent::Add);
        assert_eq!(c.query_count(), 1);
    }

    #[test]
    fn replay_matches_only_the_registering_query() {
        let c = InvaliDbCluster::default();
        let (x, kx) = tagged("x");
        let (y, ky) = tagged("y");
        c.register_query(&x, &kx, &[], c.ingest_mark());
        c.register_query(&y, &ky, &[], c.ingest_mark());
        let mark = c.ingest_mark();
        // Enters both queries, which hear of it now.
        assert_eq!(c.on_write(&insert("p1", &["x", "y"], 1)).len(), 2);
        // x re-registers with a result evaluated before the insert: the
        // replay re-adds p1 to x and leaves y alone.
        let replay = c.register_query(&x, &kx, &[], mark);
        assert_eq!(replay.raced.len(), 1, "{:?}", replay.raced);
        assert_eq!(replay.raced[0].query, kx);
        assert_eq!(replay.raced[0].event, NotificationEvent::Add);
        // y's state is as the write left it: p1 still matches.
        let n = c.on_write(&write_event(
            "posts",
            "p1",
            WriteKind::Delete,
            post("p1", &["x", "y"], 0),
            2,
        ));
        assert_eq!(n.len(), 2);
        assert!(n.iter().all(|n| n.event == NotificationEvent::Remove));
    }

    #[test]
    fn replay_overrun_is_reported() {
        let c = InvaliDbCluster::default();
        let (q, key) = tagged("x");
        let mark = c.ingest_mark();
        // One insert enters the query, then more unrelated writes than the
        // window holds push it out.
        c.on_write(&insert("p0", &["x"], 1));
        for i in 1..=300 {
            c.on_write(&insert(&format!("o{i}"), &["other"], 1 + i));
        }
        // The initial result predates the insert, and no raced event that
        // is still buffered touches the query: only the overrun says so.
        let replay = c.register_query(&q, &key, &[], mark);
        assert!(replay.raced.is_empty());
        assert!(
            replay.overrun,
            "the insert that raced fell out of the window"
        );
    }

    #[test]
    fn capacity_limit_enforced() {
        // The replay window is the cluster's one bound: a mark exactly
        // REPLAY_WINDOW events behind still replays every raced event; one
        // event further back is an overrun.
        let c = InvaliDbCluster::default();
        for i in 0..=REPLAY_WINDOW as u64 {
            c.on_write(&insert(&format!("p{i}"), &["x"], i + 1));
        }
        let (q, key) = tagged("x");
        let behind = c.ingest_mark() - REPLAY_WINDOW as u64;
        let within = c.register_query(&q, &key, &[], behind);
        assert_eq!(within.raced.len(), REPLAY_WINDOW);
        assert!(!within.overrun);
        let past = c.register_query(&q, &key, &[], behind - 1);
        assert_eq!(past.raced.len(), REPLAY_WINDOW);
        assert!(past.overrun);
        assert_eq!(c.query_count(), 1);
    }

    #[test]
    fn stateful_queries_route_to_sorted_layer() {
        let c = InvaliDbCluster::default();
        let q = Query::table("posts")
            .filter(Filter::True)
            .sort_by("score", Order::Desc)
            .limit(1);
        let key = QueryKey::of(&q);
        let mark = c.ingest_mark();
        c.register_query(
            &q,
            &key,
            &[Arc::new(post("a", &[], 10)), Arc::new(post("b", &[], 5))],
            mark,
        );
        // New leader: b->20 overtakes a.
        let n = c.on_write(&write_event(
            "posts",
            "b",
            WriteKind::Update,
            post("b", &[], 20),
            1,
        ));
        assert!(n.iter().any(|x| x.query == key
            && x.record_id.as_ref() == "b"
            && x.event == NotificationEvent::Add));
        assert!(n
            .iter()
            .any(|x| x.record_id.as_ref() == "a" && x.event == NotificationEvent::Remove));
        assert!(c.deregister_query(&key));
        assert!(!c.deregister_query(&key));
    }

    #[test]
    fn deregistered_queries_stay_silent() {
        let c = InvaliDbCluster::default();
        let (q, key) = tagged("x");
        c.register_query(&q, &key, &[], c.ingest_mark());
        c.deregister_query(&key);
        assert!(c.on_write(&insert("p1", &["x"], 1)).is_empty());
    }

    #[test]
    fn evaluations_counted_once_per_owning_row() {
        let c = InvaliDbCluster::default();
        let (q, key) = tagged("x");
        c.register_query(&q, &key, &[], c.ingest_mark());
        for i in 0..40 {
            c.on_write(&insert(&format!("p{i}"), &["x"], i));
        }
        // Each write is matched exactly once.
        assert_eq!(c.total_evaluations(), 40);
    }
}
