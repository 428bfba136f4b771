//! Capacity management: which queries earn an InvaliDB slot.
//!
//! "The throughput of the invalidation pipeline is the limiting constraint
//! of query caching and determines how many queries can be cached at the
//! same time. Through a capacity management model only queries that are
//! sufficiently cachable are admitted and prioritized based on the costs
//! of maintaining them." (§4.1)
//!
//! Each query gets a **cachability score** = reads / (invalidations + 1):
//! exactly the Zipf insight of §7 — "even if only a small subset of 'hot'
//! queries can be actively matched against update operations, this is
//! sufficient to achieve high cache hit rates". When the pipeline is full,
//! a new query is admitted only by evicting a strictly lower-scored one.

use parking_lot::Mutex;
use quaestor_query::QueryKey;
use std::collections::HashMap;

/// Outcome of an admission request.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AdmissionDecision {
    /// Query admitted into free capacity.
    Admitted,
    /// Query admitted; the contained lower-priority query was evicted and
    /// must be deregistered from InvaliDB (and no longer cached).
    AdmittedEvicting(QueryKey),
    /// Pipeline full of higher-value queries; serve uncached.
    Rejected,
}

#[derive(Debug, Clone, Copy, Default)]
struct Slot {
    reads: u64,
    invalidations: u64,
}

impl Slot {
    fn score(&self) -> f64 {
        self.reads as f64 / (self.invalidations as f64 + 1.0)
    }
}

/// Tracks the bounded set of actively matched (cached) queries.
#[derive(Debug)]
pub struct CapacityManager {
    max_slots: usize,
    slots: Mutex<HashMap<QueryKey, Slot>>,
}

impl CapacityManager {
    /// A manager with `max_slots` of matching capacity.
    pub fn new(max_slots: usize) -> CapacityManager {
        assert!(max_slots > 0);
        CapacityManager {
            max_slots,
            slots: Mutex::new(HashMap::new()),
        }
    }

    /// Currently admitted queries.
    pub fn len(&self) -> usize {
        self.slots.lock().len()
    }

    /// True if no query is admitted.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Is the query currently admitted?
    pub fn contains(&self, key: &QueryKey) -> bool {
        self.slots.lock().contains_key(key)
    }

    /// Request admission for `key` (idempotent for admitted queries).
    pub fn request_admission(&self, key: &QueryKey) -> AdmissionDecision {
        let mut slots = self.slots.lock();
        if let Some(slot) = slots.get_mut(key) {
            slot.reads += 1;
            return AdmissionDecision::Admitted;
        }
        if slots.len() < self.max_slots {
            slots.insert(
                key.clone(),
                Slot {
                    reads: 1,
                    invalidations: 0,
                },
            );
            return AdmissionDecision::Admitted;
        }
        // Full: find the weakest admitted query. A newcomer has score
        // 1/(0+1) = 1; it replaces the victim only if strictly stronger.
        let victim = slots
            .iter()
            .min_by(|a, b| a.1.score().total_cmp(&b.1.score()))
            .map(|(k, s)| (k.clone(), s.score()));
        match victim {
            Some((vkey, vscore)) if vscore < 1.0 => {
                slots.remove(&vkey);
                slots.insert(
                    key.clone(),
                    Slot {
                        reads: 1,
                        invalidations: 0,
                    },
                );
                AdmissionDecision::AdmittedEvicting(vkey)
            }
            _ => AdmissionDecision::Rejected,
        }
    }

    /// Record a read of an admitted query (raises its priority).
    pub fn on_read(&self, key: &QueryKey) {
        if let Some(slot) = self.slots.lock().get_mut(key) {
            slot.reads += 1;
        }
    }

    /// Record an invalidation of an admitted query (lowers its priority).
    pub fn on_invalidation(&self, key: &QueryKey) {
        if let Some(slot) = self.slots.lock().get_mut(key) {
            slot.invalidations += 1;
        }
    }

    /// Explicitly release a slot (query deactivated).
    #[cfg(test)]
    fn release(&self, key: &QueryKey) -> bool {
        self.slots.lock().remove(key).is_some()
    }

    /// Cachability score of an admitted query.
    #[cfg(test)]
    fn score(&self, key: &QueryKey) -> Option<f64> {
        self.slots.lock().get(key).map(|s| s.score())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_query::{Filter, Query};

    fn key(n: i64) -> QueryKey {
        QueryKey::of(&Query::table("t").filter(Filter::eq("n", n)))
    }

    #[test]
    fn admits_until_full() {
        let cm = CapacityManager::new(2);
        assert_eq!(cm.request_admission(&key(1)), AdmissionDecision::Admitted);
        assert_eq!(cm.request_admission(&key(2)), AdmissionDecision::Admitted);
        assert_eq!(cm.len(), 2);
    }

    #[test]
    fn readmission_is_idempotent() {
        let cm = CapacityManager::new(1);
        cm.request_admission(&key(1));
        assert_eq!(cm.request_admission(&key(1)), AdmissionDecision::Admitted);
        assert_eq!(cm.len(), 1);
    }

    #[test]
    fn full_pipeline_rejects_newcomers_against_strong_queries() {
        let cm = CapacityManager::new(1);
        cm.request_admission(&key(1));
        cm.on_read(&key(1));
        cm.on_read(&key(1)); // score 3.0
        assert_eq!(cm.request_admission(&key(2)), AdmissionDecision::Rejected);
    }

    #[test]
    fn weak_queries_are_evicted_for_newcomers() {
        let cm = CapacityManager::new(1);
        cm.request_admission(&key(1));
        // key(1) gets hammered by invalidations: score 1/(5+1) < 1.
        for _ in 0..5 {
            cm.on_invalidation(&key(1));
        }
        match cm.request_admission(&key(2)) {
            AdmissionDecision::AdmittedEvicting(victim) => assert_eq!(victim, key(1)),
            other => panic!("expected eviction, got {other:?}"),
        }
        assert!(cm.contains(&key(2)) && !cm.contains(&key(1)));
    }

    #[test]
    fn hot_queries_outrank_churny_ones() {
        let cm = CapacityManager::new(2);
        cm.request_admission(&key(1));
        cm.request_admission(&key(2));
        for _ in 0..10 {
            cm.on_read(&key(1)); // hot
            cm.on_invalidation(&key(2)); // churny
        }
        // key(2): score 1/11 — evicted for the newcomer.
        match cm.request_admission(&key(3)) {
            AdmissionDecision::AdmittedEvicting(victim) => assert_eq!(victim, key(2)),
            other => panic!("expected eviction of key(2), got {other:?}"),
        }
        assert!(cm.contains(&key(1)));
    }

    #[test]
    fn release_frees_a_slot() {
        let cm = CapacityManager::new(1);
        cm.request_admission(&key(1));
        assert!(cm.release(&key(1)));
        assert!(!cm.release(&key(1)));
        assert_eq!(cm.request_admission(&key(2)), AdmissionDecision::Admitted);
    }

    #[test]
    fn score_reflects_reads_per_invalidation() {
        let cm = CapacityManager::new(4);
        cm.request_admission(&key(1)); // 1 read
        cm.on_read(&key(1)); // 2 reads
        cm.on_invalidation(&key(1)); // 1 inval
        assert!((cm.score(&key(1)).unwrap() - 1.0).abs() < 1e-9); // 2/(1+1)
        assert!(cm.score(&key(9)).is_none());
    }
}
