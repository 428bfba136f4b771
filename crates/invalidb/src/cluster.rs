//! The partitioned matching grid (Figure 6) with ingestion semantics.

use std::collections::VecDeque;
use std::sync::Arc;

use parking_lot::Mutex;
use quaestor_common::{fx_hash_str, Error, FxHashMap, Result};
use quaestor_document::Document;
use quaestor_query::{Query, QueryKey};
use quaestor_store::WriteEvent;

use crate::event::Notification;
use crate::matching::MatchingNode;
use crate::sorted::SortedQueryState;

/// Cluster geometry and limits.
#[derive(Debug, Clone, Copy)]
pub struct ClusterConfig {
    /// Number of query partitions (grid columns).
    pub query_partitions: usize,
    /// Number of object partitions (grid rows).
    pub object_partitions: usize,
    /// Maximum number of registered queries (the capacity constraint the
    /// admission model manages against).
    pub max_queries: usize,
    /// Size of the replay ring buffer used to close the activation race.
    pub replay_buffer: usize,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            query_partitions: 2,
            object_partitions: 2,
            max_queries: 100_000,
            replay_buffer: 256,
        }
    }
}

/// The InvaliDB cluster: a `query_partitions × object_partitions` grid of
/// [`MatchingNode`]s plus the sorted-query layer.
///
/// This is the **inline** deployment: `on_write` synchronously routes the
/// event to the grid row owning the record and collects notifications from
/// every query-partition column — deterministic and single-threaded, as
/// the simulator requires. [`crate::ThreadedPipeline`] wraps the same grid
/// in real threads for the Figure 12 benchmark.
pub struct InvaliDbCluster {
    config: ClusterConfig,
    /// grid[row][col] — row = object partition, col = query partition.
    grid: Vec<Vec<Mutex<MatchingNode>>>,
    /// Sorted-query layer, partitioned by query.
    sorted: Vec<Mutex<FxHashMap<QueryKey, SortedQueryState>>>,
    /// Recent events for registration replay, tagged with their ingest
    /// sequence number.
    replay: Mutex<VecDeque<(u64, WriteEvent)>>,
    /// Monotonic ingest counter; `ingest_mark()` lets callers bound what
    /// a later registration must replay.
    ingest_seq: std::sync::atomic::AtomicU64,
    registered: Mutex<FxHashMap<QueryKey, bool /* stateful */>>,
}

impl std::fmt::Debug for InvaliDbCluster {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("InvaliDbCluster")
            .field("config", &self.config)
            .field("queries", &self.registered.lock().len())
            .finish()
    }
}

impl InvaliDbCluster {
    /// Build a cluster with the given geometry.
    pub fn new(config: ClusterConfig) -> InvaliDbCluster {
        assert!(config.query_partitions > 0 && config.object_partitions > 0);
        InvaliDbCluster {
            config,
            grid: (0..config.object_partitions)
                .map(|_| {
                    (0..config.query_partitions)
                        .map(|_| Mutex::new(MatchingNode::new()))
                        .collect()
                })
                .collect(),
            sorted: (0..config.query_partitions)
                .map(|_| Mutex::new(FxHashMap::default()))
                .collect(),
            replay: Mutex::new(VecDeque::new()),
            ingest_seq: std::sync::atomic::AtomicU64::new(0),
            registered: Mutex::new(FxHashMap::default()),
        }
    }

    /// Current ingest watermark. Capture this **before** evaluating a
    /// query's initial result; pass it to [`register_query`] so only
    /// events that raced the evaluation are replayed.
    ///
    /// [`register_query`]: InvaliDbCluster::register_query
    pub fn ingest_mark(&self) -> u64 {
        self.ingest_seq.load(std::sync::atomic::Ordering::SeqCst)
    }

    /// Geometry.
    pub fn config(&self) -> ClusterConfig {
        self.config
    }

    fn query_partition(&self, key: &QueryKey) -> usize {
        (key.stable_hash() % self.config.query_partitions as u64) as usize
    }

    fn object_partition(&self, id: &str) -> usize {
        (fx_hash_str(id) % self.config.object_partitions as u64) as usize
    }

    /// Number of registered queries.
    pub fn query_count(&self) -> usize {
        self.registered.lock().len()
    }

    /// Register a query for invalidation detection. `key` is the query's
    /// [`QueryKey::of`].
    ///
    /// "Every new query is initially evaluated on Quaestor and then sent
    /// to InvaliDB together with the initial result set. To rule out the
    /// possibility of missing updates in the timeframe between the initial
    /// query evaluation and the successful query activation, all recently
    /// received objects are replayed for a query when it is installed."
    ///
    /// Registering a query that is already registered *replaces* its
    /// state: the outcome equals [`deregister_query`] followed by a first
    /// registration. A live stateless query is replaced in place — each
    /// grid row's matching set is overwritten with the fresh initial ids
    /// and nothing is rebuilt or cloned; stateful queries are rebuilt.
    /// Either way, the buffered events ingested after `replay_from` are
    /// then replayed through the query's cells.
    ///
    /// Returns the notifications produced by the replay (they represent
    /// changes that raced the activation and must invalidate immediately).
    ///
    /// [`deregister_query`]: InvaliDbCluster::deregister_query
    pub fn register_query(
        &self,
        query: &Query,
        key: &QueryKey,
        initial_result: &[Arc<Document>],
        replay_from: u64,
    ) -> Result<Vec<Notification>> {
        debug_assert_eq!(key, &QueryKey::of(query));
        let stateful = query.is_stateful();
        let live = {
            let mut reg = self.registered.lock();
            let live = reg.contains_key(key);
            if !live {
                if reg.len() >= self.config.max_queries {
                    return Err(Error::Capacity(format!(
                        "InvaliDB at its {}-query capacity",
                        self.config.max_queries
                    )));
                }
                reg.insert(key.clone(), stateful);
            }
            live
        };
        let col = self.query_partition(key);
        let mut replayed = Vec::new();
        if stateful {
            // Stateful queries live in the by-query sorted layer. NOTE:
            // the initial result for stateful queries must be the FULL
            // matching set (unwindowed) for offset bookkeeping.
            let mut layer = self.sorted[col].lock();
            let mut state =
                SortedQueryState::new(query.clone(), key.clone(), initial_result.to_vec());
            let replay = self.replay.lock();
            for (_, ev) in replay.range(Self::replay_start(&replay, replay_from)..) {
                replayed.extend(state.process(ev));
            }
            layer.insert(key.clone(), state);
            return Ok(replayed);
        }
        // Stateless: split the initial ids across the object rows.
        let ids: Vec<(usize, &str)> = initial_result
            .iter()
            .filter_map(|d| d.get("_id").and_then(|v| v.as_str()))
            .map(|id| (self.object_partition(id), id))
            .collect();
        for (row, grid_row) in self.grid.iter().enumerate() {
            let row_ids = ids.iter().filter(|(r, _)| *r == row).map(|&(_, id)| id);
            let mut node = grid_row[col].lock();
            if !(live && node.reseed(key, row_ids.clone())) {
                node.register(query.clone(), key.clone(), row_ids.map(Arc::from).collect());
            }
        }
        let replay = self.replay.lock();
        for (_, ev) in replay.range(Self::replay_start(&replay, replay_from)..) {
            let row = self.object_partition(&ev.id);
            replayed.extend(self.grid[row][col].lock().process(ev));
        }
        Ok(replayed)
    }

    /// Index of the first buffered event ingested after `mark`. The buffer
    /// is ordered by ingest sequence: `on_write` assigns each sequence
    /// number under the buffer's lock.
    fn replay_start(replay: &VecDeque<(u64, WriteEvent)>, mark: u64) -> usize {
        replay.partition_point(|&(seq, _)| seq <= mark)
    }

    /// Deactivate a query.
    pub fn deregister_query(&self, key: &QueryKey) -> bool {
        let Some(stateful) = self.registered.lock().remove(key) else {
            return false;
        };
        let col = self.query_partition(key);
        if stateful {
            self.sorted[col].lock().remove(key).is_some()
        } else {
            let mut any = false;
            for row in &self.grid {
                any |= row[col].lock().deregister(key);
            }
            any
        }
    }

    /// Ingest one write event; returns all notifications it caused.
    pub fn on_write(&self, event: &WriteEvent) -> Vec<Notification> {
        // Record for replay. The sequence number is taken under the
        // buffer's lock, so the buffer stays in sequence order.
        {
            let mut replay = self.replay.lock();
            let seq = self
                .ingest_seq
                .fetch_add(1, std::sync::atomic::Ordering::SeqCst)
                + 1;
            replay.push_back((seq, event.clone()));
            while replay.len() > self.config.replay_buffer {
                replay.pop_front();
            }
        }
        let row = self.object_partition(&event.id);
        let mut out = Vec::new();
        // Stateless grid: only the owning object row matches, across all
        // query columns.
        for cell in &self.grid[row] {
            out.extend(cell.lock().process(event));
        }
        // Sorted layer: partitioned by query, so every partition sees the
        // event (each holds different queries).
        for part in &self.sorted {
            let mut part = part.lock();
            for state in part.values_mut() {
                out.extend(state.process(event));
            }
        }
        out
    }

    /// Total match evaluations across the grid (Figure 12's ops measure).
    pub fn total_evaluations(&self) -> u64 {
        self.grid
            .iter()
            .flatten()
            .map(|n| n.lock().evaluations())
            .sum()
    }

    /// Total candidate evaluations the predicate index pruned across the
    /// grid; `total_evaluations + total_evaluations_skipped` is what a
    /// linear scan would have cost.
    pub fn total_evaluations_skipped(&self) -> u64 {
        self.grid
            .iter()
            .flatten()
            .map(|n| n.lock().evaluations_skipped())
            .sum()
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
            "tags".into(),
            Value::Array(tags.iter().map(|t| Value::str(*t)).collect()),
        );
        d
    }

    fn cluster(q: usize, o: usize) -> InvaliDbCluster {
        InvaliDbCluster::new(ClusterConfig {
            query_partitions: q,
            object_partitions: o,
            max_queries: 64,
            replay_buffer: 16,
        })
    }

    #[test]
    fn add_notification_through_grid() {
        let c = cluster(3, 3);
        let q = Query::table("posts").filter(Filter::contains("tags", "example"));
        let key = QueryKey::of(&q);
        c.register_query(&q, &key, &[], c.ingest_mark()).unwrap();
        let n = c.on_write(&write_event(
            "posts",
            "p1",
            WriteKind::Insert,
            post("p1", &["example"], 1),
            1,
        ));
        assert_eq!(n.len(), 1);
        assert_eq!(n[0].query, key);
        assert_eq!(n[0].event, NotificationEvent::Add);
    }

    #[test]
    fn partitioning_never_loses_notifications() {
        // The same workload must produce the same notification multiset
        // for any grid geometry.
        let workloads: Vec<WriteEvent> = (0..50)
            .map(|i| {
                let id = format!("p{}", i % 10);
                let tags: &[&str] = if i % 3 == 0 { &["example"] } else { &["other"] };
                write_event(
                    "posts",
                    &id,
                    WriteKind::Update,
                    post(&id, tags, i),
                    i as u64,
                )
            })
            .collect();
        let mut baselines: Option<Vec<(String, String)>> = None;
        for (qp, op) in [(1, 1), (2, 3), (4, 4)] {
            let c = cluster(qp, op);
            // Seed records first so updates have prior state.
            let q = Query::table("posts").filter(Filter::contains("tags", "example"));
            c.register_query(&q, &QueryKey::of(&q), &[], c.ingest_mark())
                .unwrap();
            let mut got: Vec<(String, String)> = Vec::new();
            for ev in &workloads {
                for n in c.on_write(ev) {
                    got.push((n.record_id.to_string(), format!("{:?}", n.event)));
                }
            }
            got.sort();
            match &baselines {
                None => baselines = Some(got),
                Some(base) => {
                    assert_eq!(base, &got, "grid {qp}x{op} diverged from the 1x1 baseline")
                }
            }
        }
    }

    #[test]
    fn initial_result_split_across_rows() {
        let c = cluster(2, 4);
        let q = Query::table("posts").filter(Filter::contains("tags", "t"));
        let initial: Vec<Arc<Document>> = (0..20)
            .map(|i| Arc::new(post(&format!("p{i}"), &["t"], i)))
            .collect();
        c.register_query(&q, &QueryKey::of(&q), &initial, c.ingest_mark())
            .unwrap();
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
        let c = cluster(2, 2);
        // A write arrives BEFORE the query is registered (initial result
        // was computed before this write - the race).
        c.on_write(&write_event(
            "posts",
            "p1",
            WriteKind::Insert,
            post("p1", &["example"], 1),
            1,
        ));
        let q = Query::table("posts").filter(Filter::contains("tags", "example"));
        // Initial result predates the insert: empty.
        let replayed = c.register_query(&q, &QueryKey::of(&q), &[], 0).unwrap();
        assert_eq!(replayed.len(), 1, "the raced write is replayed");
        assert_eq!(replayed[0].event, NotificationEvent::Add);
    }

    #[test]
    fn reregistration_replays_only_events_after_the_mark() {
        let c = cluster(2, 2);
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        let key = QueryKey::of(&q);
        c.register_query(&q, &key, &[], c.ingest_mark()).unwrap();
        let p1 = post("p1", &["x"], 1);
        c.on_write(&write_event(
            "posts",
            "p1",
            WriteKind::Insert,
            p1.clone(),
            1,
        ));
        let mark = c.ingest_mark();
        c.on_write(&write_event(
            "posts",
            "p2",
            WriteKind::Insert,
            post("p2", &["x"], 2),
            2,
        ));
        // The re-evaluation at `mark` saw p1 but not p2: only p2's insert
        // raced it, and it re-enters the replaced matching set.
        let replayed = c.register_query(&q, &key, &[Arc::new(p1)], mark).unwrap();
        assert_eq!(replayed.len(), 1);
        assert_eq!(replayed[0].record_id.as_ref(), "p2");
        assert_eq!(replayed[0].event, NotificationEvent::Add);
        assert_eq!(c.query_count(), 1);
    }

    #[test]
    fn capacity_limit_enforced() {
        let c = InvaliDbCluster::new(ClusterConfig {
            query_partitions: 1,
            object_partitions: 1,
            max_queries: 2,
            replay_buffer: 4,
        });
        for i in 0..2 {
            let q = Query::table("t").filter(Filter::eq("n", i));
            c.register_query(&q, &QueryKey::of(&q), &[], c.ingest_mark())
                .unwrap();
        }
        let q3 = Query::table("t").filter(Filter::eq("n", 99));
        assert!(matches!(
            c.register_query(&q3, &QueryKey::of(&q3), &[], c.ingest_mark()),
            Err(Error::Capacity(_))
        ));
        assert_eq!(c.query_count(), 2);
    }

    #[test]
    fn stateful_queries_route_to_sorted_layer() {
        let c = cluster(2, 2);
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
        )
        .unwrap();
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
        let c = cluster(2, 2);
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        let key = QueryKey::of(&q);
        c.register_query(&q, &key, &[], c.ingest_mark()).unwrap();
        c.deregister_query(&key);
        let n = c.on_write(&write_event(
            "posts",
            "p1",
            WriteKind::Insert,
            post("p1", &["x"], 1),
            1,
        ));
        assert!(n.is_empty());
    }

    #[test]
    fn evaluations_counted_once_per_owning_row() {
        let c = cluster(1, 4);
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        c.register_query(&q, &QueryKey::of(&q), &[], c.ingest_mark())
            .unwrap();
        for i in 0..40 {
            c.on_write(&write_event(
                "posts",
                &format!("p{i}"),
                WriteKind::Insert,
                post(&format!("p{i}"), &["x"], i),
                i as u64,
            ));
        }
        // Each write is matched exactly once (by its owning row).
        assert_eq!(c.total_evaluations(), 40);
    }
}
