//! The unified metrics registry: named counters, gauges and histograms
//! registered once and snapshotted anywhere — including across the wire
//! via `Request::Metrics`.
//!
//! Handles are cheap clones of `Arc`-shared state, so a component keeps
//! the handles it writes as fields while its registry snapshots the
//! same cells.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use quaestor_common::{lock_rank, Histogram};

/// A monotonically increasing named counter.
#[derive(Debug, Clone, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    /// A fresh, unregistered counter at 0.
    pub fn new() -> Counter {
        Counter::default()
    }

    /// Increment by one.
    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    /// Increment by `n`.
    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named gauge: a value that goes up *and* down (lag, queue depth).
#[derive(Debug, Clone, Default)]
pub struct Gauge(Arc<AtomicU64>);

impl Gauge {
    /// A fresh, unregistered gauge at 0.
    pub fn new() -> Gauge {
        Gauge::default()
    }

    /// Overwrite the value.
    #[inline]
    pub fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A named latency histogram handle (shared, lock-ranked).
#[derive(Debug, Clone)]
pub struct HistogramHandle {
    obs_hist: Arc<Mutex<Histogram>>,
}

impl Default for HistogramHandle {
    fn default() -> Self {
        Self::new()
    }
}

impl HistogramHandle {
    /// A fresh, unregistered histogram.
    pub fn new() -> HistogramHandle {
        HistogramHandle {
            obs_hist: Arc::new(Mutex::with_rank(
                Histogram::new(),
                lock_rank::OBS_METRIC_HIST.0,
                lock_rank::OBS_METRIC_HIST.1,
            )),
        }
    }

    /// Record one observation.
    pub fn record(&self, value: u64) {
        self.obs_hist.lock().record(value);
    }

    /// The exposition summary of the current contents.
    pub fn summary(&self) -> HistogramSummary {
        HistogramSummary::of(&self.obs_hist.lock())
    }
}

/// The fixed-width digest of a histogram carried in snapshots (and over
/// the wire — shipping full bucket arrays per metric would dwarf the
/// payload they describe).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct HistogramSummary {
    /// Observation count.
    pub count: u64,
    /// Smallest observation (0 if empty).
    pub min: u64,
    /// Largest observation.
    pub max: u64,
    /// Arithmetic mean (0.0 if empty).
    pub mean: f64,
    /// Median; 0 if empty.
    pub p50: u64,
    /// 95th percentile; 0 if empty.
    pub p95: u64,
    /// 99th percentile; 0 if empty.
    pub p99: u64,
}

impl HistogramSummary {
    /// Digest a histogram.
    pub fn of(h: &Histogram) -> HistogramSummary {
        HistogramSummary {
            count: h.count(),
            min: h.min(),
            max: h.max(),
            mean: h.mean(),
            p50: h.percentile(0.50).unwrap_or(0),
            p95: h.percentile(0.95).unwrap_or(0),
            p99: h.percentile(0.99).unwrap_or(0),
        }
    }
}

#[derive(Debug, Default)]
struct RegistryInner {
    counters: BTreeMap<String, Counter>,
    gauges: BTreeMap<String, Gauge>,
    histograms: BTreeMap<String, HistogramHandle>,
}

/// A set of named metrics. Instances are cheap `Arc` clones; a component
/// that owns its metrics (one server, one middleware layer) holds its own
/// registry, and its `Request::Metrics` answer snapshots it.
#[derive(Debug, Clone, Default)]
pub struct Registry {
    registry_state: Arc<Mutex<RegistryInner>>,
}

impl Registry {
    /// An empty registry.
    pub fn new() -> Registry {
        Registry {
            registry_state: Arc::new(Mutex::with_rank(
                RegistryInner::default(),
                lock_rank::OBS_REGISTRY.0,
                lock_rank::OBS_REGISTRY.1,
            )),
        }
    }

    /// Get or register the counter named `name`.
    pub fn counter(&self, name: &str) -> Counter {
        let mut inner = self.registry_state.lock();
        inner.counters.entry(name.to_owned()).or_default().clone()
    }

    /// Register (or re-point) `name` at an existing counter handle —
    /// how a struct field created before the registry joins it.
    pub fn bind_counter(&self, name: &str, handle: &Counter) {
        self.registry_state
            .lock()
            .counters
            .insert(name.to_owned(), handle.clone());
    }

    /// Get or register the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut inner = self.registry_state.lock();
        inner.gauges.entry(name.to_owned()).or_default().clone()
    }

    /// Get or register the histogram named `name`.
    pub fn histogram(&self, name: &str) -> HistogramHandle {
        let mut inner = self.registry_state.lock();
        inner.histograms.entry(name.to_owned()).or_default().clone()
    }

    /// Snapshot every registered metric, sorted by name.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let inner = self.registry_state.lock();
        MetricsSnapshot {
            counters: inner
                .counters
                .iter()
                .map(|(n, c)| (n.clone(), c.get()))
                .collect(),
            gauges: inner
                .gauges
                .iter()
                .map(|(n, g)| (n.clone(), g.get()))
                .collect(),
            histograms: inner
                .histograms
                .iter()
                .map(|(n, h)| (n.clone(), h.summary()))
                .collect(),
        }
    }
}

/// A point-in-time copy of a registry's metrics — plain data, mergeable
/// (the `ShardRouter` prefixes and concatenates per-shard snapshots) and
/// wire-encodable (`Response::Metrics`).
#[derive(Debug, Clone, Default, PartialEq)]
pub struct MetricsSnapshot {
    /// `(name, value)` pairs, sorted by name within one source registry.
    pub counters: Vec<(String, u64)>,
    /// `(name, value)` pairs, sorted by name within one source registry.
    pub gauges: Vec<(String, u64)>,
    /// `(name, digest)` pairs, sorted by name within one source registry.
    pub histograms: Vec<(String, HistogramSummary)>,
}

impl MetricsSnapshot {
    /// Look up a counter by exact name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }

    /// Look up a gauge by exact name.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.iter().find(|(n, _)| n == name).map(|(_, v)| *v)
    }

    /// Look up a histogram digest by exact name.
    pub fn histogram(&self, name: &str) -> Option<&HistogramSummary> {
        self.histograms
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, h)| h)
    }

    /// Append every entry of `other`, prefixing its names (the router
    /// merges shard snapshots as `shard0.`, `shard1.`, …; middleware
    /// merges its own series with an empty prefix).
    pub fn merge_prefixed(&mut self, prefix: &str, other: MetricsSnapshot) {
        let pre = |n: String| {
            if prefix.is_empty() {
                n
            } else {
                format!("{prefix}{n}")
            }
        };
        self.counters
            .extend(other.counters.into_iter().map(|(n, v)| (pre(n), v)));
        self.gauges
            .extend(other.gauges.into_iter().map(|(n, v)| (pre(n), v)));
        self.histograms
            .extend(other.histograms.into_iter().map(|(n, h)| (pre(n), h)));
    }

    /// The stable text exposition: one line per metric, sections in
    /// fixed order, each section sorted by name. Byte-stable across
    /// runs with identical values, so it diffs and greps cleanly.
    pub fn render_text(&self) -> String {
        let mut counters = self.counters.clone();
        counters.sort();
        let mut gauges = self.gauges.clone();
        gauges.sort();
        let mut hists = self.histograms.clone();
        hists.sort_by(|a, b| a.0.cmp(&b.0));
        let mut out = String::from("# quaestor metrics v1\n");
        for (n, v) in &counters {
            out.push_str(&format!("counter {n} {v}\n"));
        }
        for (n, v) in &gauges {
            out.push_str(&format!("gauge {n} {v}\n"));
        }
        for (n, h) in &hists {
            out.push_str(&format!(
                "hist {n} count={} min={} max={} mean={:.1} p50={} p95={} p99={}\n",
                h.count, h.min, h.max, h.mean, h.p50, h.p95, h.p99
            ));
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_get_or_register_returns_shared_handles() {
        let r = Registry::new();
        let a = r.counter("x");
        let b = r.counter("x");
        a.inc();
        assert_eq!(b.get(), 1);
        let g = r.gauge("lag");
        g.set(7);
        let h = r.histogram("lat");
        h.record(10);
        h.record(30);
        let snap = r.snapshot();
        assert_eq!(snap.counter("x"), Some(1));
        assert_eq!(snap.gauge("lag"), Some(7));
        let hs = snap.histogram("lat").unwrap();
        assert_eq!(hs.count, 2);
        assert_eq!(hs.mean, 20.0);
        assert!(hs.p50 <= hs.p99);
    }

    #[test]
    fn bind_points_a_name_at_an_existing_handle() {
        let r = Registry::new();
        let field = Counter::new();
        field.add(9);
        r.bind_counter("migrated", &field);
        assert_eq!(r.snapshot().counter("migrated"), Some(9));
        field.inc();
        assert_eq!(r.snapshot().counter("migrated"), Some(10));
    }

    #[test]
    fn snapshot_merge_prefixes_names() {
        let a = Registry::new();
        a.counter("reads").add(1);
        let b = Registry::new();
        b.counter("reads").add(2);
        let mut snap = MetricsSnapshot::default();
        snap.merge_prefixed("shard0.", a.snapshot());
        snap.merge_prefixed("shard1.", b.snapshot());
        assert_eq!(snap.counter("shard0.reads"), Some(1));
        assert_eq!(snap.counter("shard1.reads"), Some(2));
    }

    #[test]
    fn exposition_is_stable_and_sorted() {
        let r = Registry::new();
        r.counter("b").add(2);
        r.counter("a").add(1);
        r.gauge("g").set(5);
        r.histogram("h").record(100);
        let text = r.snapshot().render_text();
        let expected = "# quaestor metrics v1\n\
                        counter a 1\n\
                        counter b 2\n\
                        gauge g 5\n\
                        hist h count=1 min=100 max=100 mean=100.0 p50=100 p95=100 p99=100\n";
        assert_eq!(text, expected);
        // Stability: a second render is byte-identical.
        assert_eq!(text, r.snapshot().render_text());
    }

    #[test]
    fn empty_histogram_digest_is_all_zero() {
        let h = HistogramHandle::new();
        let s = h.summary();
        assert_eq!((s.count, s.p50, s.p99), (0, 0, 0));
    }
}
