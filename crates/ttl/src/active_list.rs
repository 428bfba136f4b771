//! The active list: shared state for every currently cached query.
//!
//! "The current TTL estimate for a query is kept in a shared partitioned
//! data structure called the active list, which is accessed by all
//! Quaestor nodes." (§4.2)

use parking_lot::RwLock;
use quaestor_common::{fx_hash_str, Timestamp};
use quaestor_query::QueryKey;
use std::collections::HashMap;

use crate::cost::Representation;

/// Per-query cache state.
#[derive(Debug, Clone)]
pub struct QueryState {
    /// Current TTL estimate in ms.
    pub ttl_ms: u64,
    /// Last time the query was served by the origin (read timestamp used
    /// to derive actual TTLs on invalidation).
    pub last_read_at: Timestamp,
    /// Chosen result representation.
    pub representation: Representation,
    /// Total origin reads.
    pub reads: u64,
    /// Total invalidations observed.
    pub invalidations: u64,
    /// Result-membership changes seen (add/remove/changeIndex events) —
    /// these invalidate both representations.
    pub membership_changes: u64,
    /// In-place result mutations seen (change events) — these only
    /// invalidate object-lists.
    pub value_changes: u64,
    /// When the query first appeared (rates are computed over the span
    /// since then).
    pub first_seen: Timestamp,
}

impl QueryState {
    /// Observed read rate in events/ms over the query's lifetime.
    pub fn read_rate(&self, now: Timestamp) -> f64 {
        self.reads as f64 / now.since(self.first_seen).max(1) as f64
    }

    /// Observed membership-change rate in events/ms.
    pub fn membership_change_rate(&self, now: Timestamp) -> f64 {
        self.membership_changes as f64 / now.since(self.first_seen).max(1) as f64
    }

    /// Observed value-change rate in events/ms.
    pub fn value_change_rate(&self, now: Timestamp) -> f64 {
        self.value_changes as f64 / now.since(self.first_seen).max(1) as f64
    }
}

/// A sharded map `QueryKey → QueryState`.
pub struct ActiveList {
    shards: Vec<RwLock<HashMap<QueryKey, QueryState>>>,
}

impl std::fmt::Debug for ActiveList {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ActiveList")
            .field("len", &self.len())
            .finish()
    }
}

impl ActiveList {
    /// An active list with `shards` partitions.
    pub fn new(shards: usize) -> ActiveList {
        assert!(shards > 0);
        ActiveList {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &QueryKey) -> &RwLock<HashMap<QueryKey, QueryState>> {
        let idx = (fx_hash_str(key.as_str()) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    /// Record an origin read of `key` served with `ttl_ms`; creates the
    /// entry on first sight.
    pub fn on_origin_read(
        &self,
        key: &QueryKey,
        ttl_ms: u64,
        representation: Representation,
        now: Timestamp,
    ) {
        let mut shard = self.shard(key).write();
        let entry = shard.entry(key.clone()).or_insert(QueryState {
            ttl_ms,
            last_read_at: now,
            representation,
            reads: 0,
            invalidations: 0,
            membership_changes: 0,
            value_changes: 0,
            first_seen: now,
        });
        entry.ttl_ms = ttl_ms;
        entry.last_read_at = now;
        entry.representation = representation;
        entry.reads += 1;
    }

    /// Record an invalidation; returns the **actual TTL** ("the difference
    /// between the invalidation time stamp and the previous read time
    /// stamp") for the estimator's EWMA, or `None` if the query is not
    /// tracked.
    pub fn on_invalidation(&self, key: &QueryKey, now: Timestamp) -> Option<u64> {
        let mut shard = self.shard(key).write();
        let entry = shard.get_mut(key)?;
        entry.invalidations += 1;
        Some(now.since(entry.last_read_at))
    }

    /// Record an InvaliDB notification for cost-model bookkeeping.
    pub fn on_notification(&self, key: &QueryKey, is_membership_change: bool) {
        if let Some(entry) = self.shard(key).write().get_mut(key) {
            if is_membership_change {
                entry.membership_changes += 1;
            } else {
                entry.value_changes += 1;
            }
        }
    }

    /// Update the stored TTL estimate (after EWMA refinement).
    pub fn set_ttl(&self, key: &QueryKey, ttl_ms: u64) {
        if let Some(entry) = self.shard(key).write().get_mut(key) {
            entry.ttl_ms = ttl_ms;
        }
    }

    /// Snapshot one query's state.
    pub fn get(&self, key: &QueryKey) -> Option<QueryState> {
        self.shard(key).read().get(key).cloned()
    }

    /// Remove a query (deactivation).
    pub fn remove(&self, key: &QueryKey) -> Option<QueryState> {
        self.shard(key).write().remove(key)
    }

    /// Number of tracked queries.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().len()).sum()
    }

    /// True if nothing is tracked.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Snapshot of all entries (O(n)).
    #[cfg(test)]
    fn snapshot(&self) -> Vec<(QueryKey, QueryState)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.read();
            out.extend(shard.iter().map(|(k, v)| (k.clone(), v.clone())));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_query::{Filter, Query};

    fn key(n: i64) -> QueryKey {
        QueryKey::of(&Query::table("posts").filter(Filter::eq("n", n)))
    }

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn read_then_invalidation_yields_actual_ttl() {
        let al = ActiveList::new(4);
        let k = key(1);
        al.on_origin_read(&k, 5_000, Representation::ObjectList, ts(100));
        let actual = al.on_invalidation(&k, ts(1_300)).unwrap();
        assert_eq!(actual, 1_200);
        let state = al.get(&k).unwrap();
        assert_eq!(state.reads, 1);
        assert_eq!(state.invalidations, 1);
    }

    #[test]
    fn invalidation_of_unknown_query_is_none() {
        let al = ActiveList::new(4);
        assert!(al.on_invalidation(&key(9), ts(5)).is_none());
    }

    #[test]
    fn ttl_updates_persist() {
        let al = ActiveList::new(4);
        let k = key(1);
        al.on_origin_read(&k, 5_000, Representation::IdList, ts(0));
        al.set_ttl(&k, 2_500);
        assert_eq!(al.get(&k).unwrap().ttl_ms, 2_500);
        assert_eq!(al.get(&k).unwrap().representation, Representation::IdList);
    }

    #[test]
    fn remove_and_len() {
        let al = ActiveList::new(4);
        for i in 0..10 {
            al.on_origin_read(&key(i), 1_000, Representation::ObjectList, ts(0));
        }
        assert_eq!(al.len(), 10);
        assert!(al.remove(&key(3)).is_some());
        assert!(al.remove(&key(3)).is_none());
        assert_eq!(al.len(), 9);
        assert_eq!(al.snapshot().len(), 9);
    }

    #[test]
    fn reads_accumulate_and_refresh_read_time() {
        let al = ActiveList::new(4);
        let k = key(1);
        al.on_origin_read(&k, 1_000, Representation::ObjectList, ts(0));
        al.on_origin_read(&k, 1_000, Representation::ObjectList, ts(500));
        let actual = al.on_invalidation(&k, ts(800)).unwrap();
        assert_eq!(actual, 300, "measured from the latest read");
        assert_eq!(al.get(&k).unwrap().reads, 2);
    }
}
