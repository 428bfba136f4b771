//! Chains of caches between a client and the origin.

use std::sync::Arc;

use quaestor_common::Timestamp;

use crate::cache::{Cache, ExpirationCache, InvalidationCache};
use crate::entry::CacheEntry;

pub use crate::cache::LayerKind;

/// How the client wants this fetch handled — the consistency lever of
/// §3.2 (Figure 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FetchMode {
    /// Normal cached load: any fresh copy anywhere may answer.
    CachedLoad,
    /// Revalidation: bypass expiration-based caches (the copy there may be
    /// stale — the EBF said so), but invalidation-based caches are kept
    /// fresh by purges and may answer. "Adjusting Δ ... allows
    /// revalidation requests to be answered by invalidation-based caches
    /// instead of the origin servers." (§3.2)
    Revalidate,
    /// Strong consistency: "explicit revalidation (cache miss at all
    /// levels)" — straight to the origin.
    Bypass,
}

/// Who ultimately served a fetch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ServedBy {
    /// Cache level `i` (0 = closest to the client).
    Layer(usize),
    /// The origin server.
    Origin,
}

/// Result of a fetch through the hierarchy.
#[derive(Debug, Clone)]
pub struct FetchOutcome {
    /// The response (always fresh according to the serving node's view).
    pub entry: CacheEntry,
    /// Which node answered.
    pub served_by: ServedBy,
}

/// An ordered chain of caches from client to origin.
///
/// Levels are `Arc`-shared [`Cache`] trait objects, so a CDN edge can be
/// common to many clients while each client keeps a private browser cache
/// — the topology of Figure 3 — and custom tier implementations slot in
/// without touching the traversal logic.
#[derive(Debug, Clone, Default)]
pub struct CacheHierarchy {
    layers: Vec<Arc<dyn Cache>>,
}

impl CacheHierarchy {
    /// An empty hierarchy (every fetch goes to the origin).
    pub fn new() -> CacheHierarchy {
        CacheHierarchy { layers: Vec::new() }
    }

    /// Append a cache level (closest-first order).
    pub fn push(mut self, cache: Arc<dyn Cache>) -> Self {
        self.layers.push(cache);
        self
    }

    /// Append an expiration-based level (closest-first order).
    pub fn push_expiration(self, cache: Arc<ExpirationCache>) -> Self {
        self.push(cache)
    }

    /// Append an invalidation-based level.
    pub fn push_invalidation(self, cache: Arc<InvalidationCache>) -> Self {
        self.push(cache)
    }

    /// Number of levels.
    pub fn depth(&self) -> usize {
        self.layers.len()
    }

    /// Fetch `key` at `now` with the given mode; `origin` is invoked on a
    /// full miss and must return the authoritative fresh entry. The
    /// response is stored at every level the request traversed (standard
    /// HTTP response caching on the way back).
    pub fn fetch(
        &self,
        key: &str,
        now: Timestamp,
        mode: FetchMode,
        origin: impl FnOnce() -> CacheEntry,
    ) -> FetchOutcome {
        let mut traversed: Vec<usize> = Vec::with_capacity(self.layers.len());
        for (i, layer) in self.layers.iter().enumerate() {
            let consult = match mode {
                FetchMode::CachedLoad => true,
                FetchMode::Revalidate => layer.kind() == LayerKind::Invalidation,
                FetchMode::Bypass => false,
            };
            if consult {
                if let Some(entry) = layer.get(key, now) {
                    // Fill the caches the request passed through.
                    for &j in &traversed {
                        self.layers[j].put(key, entry.clone());
                    }
                    return FetchOutcome {
                        entry,
                        served_by: ServedBy::Layer(i),
                    };
                }
            }
            traversed.push(i);
        }
        let entry = origin();
        for &j in &traversed {
            self.layers[j].put(key, entry.clone());
        }
        FetchOutcome {
            entry,
            served_by: ServedBy::Origin,
        }
    }

    /// Purge `key` from every purgeable level (the origin's asynchronous
    /// invalidation). Expiration-based levels refuse the purge — they
    /// *cannot* be purged, which is why the EBF exists.
    pub fn purge(&self, key: &str) -> usize {
        self.layers.iter().filter(|l| l.purge(key)).count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn setup() -> (Arc<ExpirationCache>, Arc<InvalidationCache>, CacheHierarchy) {
        let browser = Arc::new(ExpirationCache::new("browser", 128));
        let cdn = Arc::new(InvalidationCache::new("cdn", 128));
        let h = CacheHierarchy::new()
            .push_expiration(browser.clone())
            .push_invalidation(cdn.clone());
        (browser, cdn, h)
    }

    fn fresh(etag: u64, now: Timestamp) -> CacheEntry {
        CacheEntry::new(&b"body"[..], etag, now, 1_000)
    }

    #[test]
    fn miss_goes_to_origin_and_fills_all_levels() {
        let (browser, cdn, h) = setup();
        let now = Timestamp::from_millis(0);
        let out = h.fetch("k", now, FetchMode::CachedLoad, || fresh(1, now));
        assert_eq!(out.served_by, ServedBy::Origin);
        assert_eq!(browser.len(), 1, "browser filled on response path");
        assert_eq!(cdn.len(), 1, "cdn filled on response path");
    }

    #[test]
    fn second_fetch_hits_browser() {
        let (_, _, h) = setup();
        let now = Timestamp::from_millis(0);
        h.fetch("k", now, FetchMode::CachedLoad, || fresh(1, now));
        let out = h.fetch("k", now.plus(10), FetchMode::CachedLoad, || {
            panic!("must not reach origin")
        });
        assert_eq!(out.served_by, ServedBy::Layer(0));
    }

    #[test]
    fn cdn_hit_fills_browser() {
        let (browser, cdn, h) = setup();
        let now = Timestamp::from_millis(0);
        cdn.put("k", fresh(1, now));
        let out = h.fetch("k", now.plus(1), FetchMode::CachedLoad, || {
            panic!("cdn should answer")
        });
        assert_eq!(out.served_by, ServedBy::Layer(1));
        assert_eq!(browser.len(), 1, "browser warmed by the pass-through");
    }

    #[test]
    fn revalidation_skips_browser_but_uses_cdn() {
        let (browser, cdn, h) = setup();
        let now = Timestamp::from_millis(0);
        browser.put("k", fresh(1, now)); // possibly stale copy
        cdn.put("k", fresh(2, now)); // fresh copy (purged on changes)
        let out = h.fetch("k", now.plus(1), FetchMode::Revalidate, || {
            panic!("cdn should answer the revalidation")
        });
        assert_eq!(out.served_by, ServedBy::Layer(1));
        assert_eq!(out.entry.etag, 2, "got the CDN copy, not the browser one");
        // And the browser copy was refreshed:
        assert_eq!(
            browser.peek("k", now.plus(2)).unwrap().etag,
            2,
            "revalidation proactively updates stale caches"
        );
    }

    #[test]
    fn bypass_reaches_origin_despite_fresh_copies() {
        let (browser, cdn, h) = setup();
        let now = Timestamp::from_millis(0);
        browser.put("k", fresh(1, now));
        cdn.put("k", fresh(1, now));
        let out = h.fetch("k", now.plus(1), FetchMode::Bypass, || {
            fresh(9, now.plus(1))
        });
        assert_eq!(out.served_by, ServedBy::Origin);
        assert_eq!(out.entry.etag, 9);
    }

    #[test]
    fn purge_hits_invalidation_layers_only() {
        let (browser, cdn, h) = setup();
        let now = Timestamp::from_millis(0);
        browser.put("k", fresh(1, now));
        cdn.put("k", fresh(1, now));
        assert_eq!(h.purge("k"), 1, "only the CDN layer purged");
        assert_eq!(cdn.len(), 0);
        assert_eq!(browser.len(), 1, "browser cache is unreachable");
    }

    #[test]
    fn expired_copies_fall_through() {
        let (_, _, h) = setup();
        let t0 = Timestamp::from_millis(0);
        h.fetch("k", t0, FetchMode::CachedLoad, || {
            CacheEntry::new(&b"v1"[..], 1, t0, 100)
        });
        // After expiry everywhere, the origin is asked again.
        let out = h.fetch("k", t0.plus(200), FetchMode::CachedLoad, || {
            CacheEntry::new(&b"v2"[..], 2, t0.plus(200), 100)
        });
        assert_eq!(out.served_by, ServedBy::Origin);
        assert_eq!(out.entry.etag, 2);
    }

    #[test]
    fn shared_cdn_across_two_clients() {
        // Two hierarchies (two clients) share one CDN: client A's miss
        // warms the CDN; client B then hits it — the "side effect" cache
        // hits of §6.2.
        let cdn = Arc::new(InvalidationCache::new("cdn", 128));
        let ha = CacheHierarchy::new()
            .push_expiration(Arc::new(ExpirationCache::new("a", 16)))
            .push_invalidation(cdn.clone());
        let hb = CacheHierarchy::new()
            .push_expiration(Arc::new(ExpirationCache::new("b", 16)))
            .push_invalidation(cdn);
        let now = Timestamp::from_millis(0);
        ha.fetch("k", now, FetchMode::CachedLoad, || fresh(1, now));
        let out = hb.fetch("k", now.plus(1), FetchMode::CachedLoad, || {
            panic!("client B must hit the shared CDN")
        });
        assert_eq!(out.served_by, ServedBy::Layer(1));
    }

    #[test]
    fn empty_hierarchy_always_origin() {
        let h = CacheHierarchy::new();
        let now = Timestamp::from_millis(0);
        let out = h.fetch("k", now, FetchMode::CachedLoad, || fresh(1, now));
        assert_eq!(out.served_by, ServedBy::Origin);
        assert_eq!(h.depth(), 0);
    }
}
