//! The in-memory Expiring Bloom Filter.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use parking_lot::Mutex;
use quaestor_common::{ClockRef, FxHashMap, Timestamp};

use crate::counting::CountingBloomFilter;
use crate::filter::{BloomFilter, BloomParams};

/// Per-key TTL ledger entry.
#[derive(Debug, Clone, Copy)]
struct KeyState {
    /// Highest cache-copy expiry the server ever issued for this key:
    /// `max(read_time + TTL)` over all reads. A write before this instant
    /// makes some cached copy stale (Definition 1).
    expires_at: Timestamp,
}

/// Counters exposed for monitoring and the evaluation harness.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EbfStats {
    /// Cacheable reads reported (ledger writes).
    pub reads_reported: u64,
    /// Invalidations that actually added a key (non-expired entry hit).
    pub inserted: u64,
    /// Invalidations ignored because no live cached copy could exist.
    pub skipped: u64,
    /// Keys removed after their residency expired.
    pub expired: u64,
}

struct Inner {
    cbf: CountingBloomFilter,
    ledger: FxHashMap<String, KeyState>,
    /// Pending removals: one entry per successful insert, due at the
    /// residency deadline that was current at insert time.
    removals: BinaryHeap<Reverse<(Timestamp, String)>>,
    stats: EbfStats,
}

/// The Expiring Bloom Filter: a Counting Bloom filter of *potentially
/// stale* keys plus the TTL ledger that admits and evicts them.
///
/// Lifecycle of a key (§3.3, Figure 7):
///
/// 1. Every cacheable read/query is **reported** with its issued TTL; the
///    ledger records the latest point in time up to which some web cache
///    may legitimately serve a copy.
/// 2. An **invalidation** (from InvaliDB or a direct record write) checks
///    the ledger: "only non-expired queries are added to the Bloom filter
///    upon invalidation". If a live copy may exist, the key is inserted
///    and a removal is scheduled for the recorded deadline.
/// 3. **Expiry**: once the highest previously issued TTL has passed, all
///    caches have evicted the stale copy, and the key is removed from the
///    counting filter ("after their TTL is expired, queries are removed
///    from the Bloom filter").
///
/// All methods are thread-safe; the hot path takes one short mutex, which
/// sustains well over the paper's 150 k ops/s per instance (benchmarked in
/// `quaestor-bench`).
pub struct ExpiringBloomFilter {
    inner: Mutex<Inner>,
    clock: ClockRef,
}

impl std::fmt::Debug for ExpiringBloomFilter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let inner = self.inner.lock();
        f.debug_struct("ExpiringBloomFilter")
            .field("tracked_keys", &inner.ledger.len())
            .field("stats", &inner.stats)
            .finish()
    }
}

impl ExpiringBloomFilter {
    /// A fresh EBF with the given geometry and time source.
    pub fn new(params: BloomParams, clock: ClockRef) -> ExpiringBloomFilter {
        ExpiringBloomFilter {
            inner: Mutex::new(Inner {
                cbf: CountingBloomFilter::new(params),
                ledger: FxHashMap::default(),
                removals: BinaryHeap::new(),
                stats: EbfStats::default(),
            }),
            clock,
        }
    }

    /// Record that `key` was served with `ttl_ms`: some cache may hold a
    /// copy until `now + ttl_ms`.
    pub fn report_read(&self, key: &str, ttl_ms: u64) {
        let deadline = self.clock.now().plus(ttl_ms);
        let mut inner = self.inner.lock();
        inner.stats.reads_reported += 1;
        // Most reads repeat a key the ledger already holds: only a new
        // key pays for its owned copy.
        match inner.ledger.get_mut(key) {
            Some(state) => state.expires_at = state.expires_at.max(deadline),
            None => {
                inner.ledger.insert(
                    key.to_owned(),
                    KeyState {
                        expires_at: deadline,
                    },
                );
            }
        }
    }

    /// A write invalidated `key`. Returns `true` if the key was added to
    /// the filter (i.e. a non-expired cached copy may exist).
    pub fn invalidate(&self, key: &str) -> bool {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        inner.expire_due(now);
        let deadline = match inner.ledger.get(key) {
            Some(state) if state.expires_at > now => state.expires_at,
            _ => {
                inner.stats.skipped += 1;
                return false;
            }
        };
        inner.cbf.insert(key.as_bytes());
        inner.removals.push(Reverse((deadline, key.to_owned())));
        inner.stats.inserted += 1;
        true
    }

    /// Is `key` (potentially) stale right now?
    pub fn is_stale(&self, key: &str) -> bool {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        inner.expire_due(now);
        inner.cbf.contains(key.as_bytes())
    }

    /// Snapshot the flat client filter, stamped with its generation time
    /// `t1` (Theorem 1's staleness bound is `Δ = t2 − t1`).
    pub fn flat_snapshot(&self) -> (BloomFilter, Timestamp) {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        inner.expire_due(now);
        (inner.cbf.flat().clone(), now)
    }

    /// Drive expiry and ledger pruning explicitly (also happens lazily on
    /// every operation). Returns the number of removals performed.
    pub fn tick(&self) -> usize {
        let now = self.clock.now();
        let mut inner = self.inner.lock();
        let before = inner.stats.expired;
        inner.expire_due(now);
        inner.ledger.retain(|_, s| s.expires_at > now);
        (inner.stats.expired - before) as usize
    }

    /// Monitoring counters.
    pub fn stats(&self) -> EbfStats {
        self.inner.lock().stats
    }

    /// Number of keys currently tracked in the TTL ledger.
    pub fn tracked_keys(&self) -> usize {
        self.inner.lock().ledger.len()
    }

    /// Bloom geometry.
    pub fn params(&self) -> BloomParams {
        self.inner.lock().cbf.params()
    }
}

impl Inner {
    fn expire_due(&mut self, now: Timestamp) {
        while let Some(Reverse((deadline, _))) = self.removals.peek() {
            if *deadline > now {
                break;
            }
            let Reverse((_, key)) = self.removals.pop().unwrap();
            self.cbf.remove(key.as_bytes());
            self.stats.expired += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_common::{Clock, ManualClock};
    use std::sync::Arc;

    fn ebf() -> (ExpiringBloomFilter, Arc<ManualClock>) {
        let clock = ManualClock::new();
        (
            ExpiringBloomFilter::new(BloomParams::optimal(500, 0.001), clock.clone()),
            clock,
        )
    }

    #[test]
    fn invalidation_of_cached_key_marks_stale() {
        let (ebf, _) = ebf();
        ebf.report_read("q1", 1_000);
        assert!(!ebf.is_stale("q1"), "fresh until invalidated");
        assert!(ebf.invalidate("q1"));
        assert!(ebf.is_stale("q1"));
    }

    #[test]
    fn invalidation_without_cached_copy_is_skipped() {
        let (ebf, _) = ebf();
        assert!(!ebf.invalidate("never-read"), "no cache can hold it");
        assert!(!ebf.is_stale("never-read"));
        assert_eq!(ebf.stats().skipped, 1);
    }

    #[test]
    fn invalidation_after_ttl_expiry_is_skipped() {
        let (ebf, clock) = ebf();
        ebf.report_read("q1", 100);
        clock.advance(150);
        assert!(!ebf.invalidate("q1"), "all copies already expired");
    }

    #[test]
    fn key_leaves_filter_when_highest_ttl_expires() {
        let (ebf, clock) = ebf();
        ebf.report_read("q1", 100);
        ebf.report_read("q1", 500); // highest issued TTL wins
        clock.advance(10);
        assert!(ebf.invalidate("q1"));
        clock.advance(200);
        assert!(ebf.is_stale("q1"), "first TTL passed, highest not yet");
        clock.advance(300); // now at t=510 > 500
        assert!(!ebf.is_stale("q1"), "residency ended");
        assert_eq!(ebf.stats().expired, 1);
    }

    #[test]
    fn fresh_read_after_invalidation_does_not_extend_residency() {
        let (ebf, clock) = ebf();
        ebf.report_read("q1", 100);
        clock.advance(10);
        ebf.invalidate("q1"); // removal due at t=100
        clock.advance(10); // t=20: revalidation got a fresh copy
        ebf.report_read("q1", 1_000);
        clock.advance(85); // t=105 > 100
        assert!(
            !ebf.is_stale("q1"),
            "the stale copies died at t=100; the t=20 copy is fresh"
        );
    }

    #[test]
    fn reinvalidation_after_fresh_read_uses_new_deadline() {
        let (ebf, clock) = ebf();
        ebf.report_read("q1", 100);
        clock.advance(10);
        ebf.invalidate("q1");
        clock.advance(10);
        ebf.report_read("q1", 1_000); // fresh copy until t=1020
        clock.advance(10); // t=30
        assert!(ebf.invalidate("q1"), "fresh copy now stale too");
        clock.advance(500); // t=530 < 1020
        assert!(ebf.is_stale("q1"));
        clock.advance(600); // t=1130 > 1020
        assert!(!ebf.is_stale("q1"));
    }

    #[test]
    fn flat_snapshot_carries_generation_time() {
        let (ebf, clock) = ebf();
        ebf.report_read("q1", 1_000);
        ebf.invalidate("q1");
        clock.advance(42);
        let (flat, t1) = ebf.flat_snapshot();
        assert_eq!(t1, Timestamp::from_millis(42));
        assert!(flat.contains(b"q1"));
        assert!(!flat.contains(b"q2"));
    }

    #[test]
    fn tick_prunes_ledger() {
        let (ebf, clock) = ebf();
        for i in 0..50 {
            ebf.report_read(&format!("q{i}"), 100);
        }
        assert_eq!(ebf.tracked_keys(), 50);
        clock.advance(200);
        ebf.tick();
        assert_eq!(ebf.tracked_keys(), 0);
    }

    #[test]
    fn definition_1_invariant_randomized() {
        // Randomized check of Definition 1: after any sequence of reads,
        // writes and clock advances, a key invalidated while a non-expired
        // read exists must be contained until that read's deadline.
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let (ebf, clock) = ebf();
        // deadline[i] = latest read deadline per key, in-filter-until
        let mut deadline = [Timestamp::ZERO; 8];
        let mut stale_until = [Timestamp::ZERO; 8];
        for _ in 0..2_000 {
            let key_idx = rng.gen_range(0..8usize);
            let key = format!("key{key_idx}");
            match rng.gen_range(0..3) {
                0 => {
                    let ttl = rng.gen_range(1..200u64);
                    ebf.report_read(&key, ttl);
                    deadline[key_idx] = deadline[key_idx].max(clock.now().plus(ttl));
                }
                1 => {
                    let added = ebf.invalidate(&key);
                    let expect = deadline[key_idx] > clock.now();
                    assert_eq!(added, expect, "admission must follow the ledger");
                    if added {
                        stale_until[key_idx] = deadline[key_idx];
                    }
                }
                _ => {
                    clock.advance(rng.gen_range(1..50));
                }
            }
            // No false negatives: every key whose staleness window is
            // still open must be contained.
            for (i, &until) in stale_until.iter().enumerate() {
                if until > clock.now() {
                    assert!(
                        ebf.is_stale(&format!("key{i}")),
                        "key{i} must be stale until {until} (now {})",
                        clock.now()
                    );
                }
            }
        }
    }
}
