//! Write-rate sampling.
//!
//! "For each database record, Quaestor can estimate (through sampling)
//! the rate of incoming writes λ_w in some time window t." (§4.2)

use std::collections::VecDeque;

use parking_lot::Mutex;
use quaestor_common::{FxHashMap, Timestamp};

/// Ring of recent write timestamps per key, bounded in count and window.
#[derive(Debug)]
struct KeyWindow {
    writes: VecDeque<Timestamp>,
}

/// Sliding-window estimator of per-key write rates.
///
/// The rate is `(#writes in window) / window`, in writes per millisecond.
/// Keys with fewer than two observed writes report `None` — the estimator
/// falls back to its default TTL for them.
#[derive(Debug)]
pub struct WriteRateSampler {
    window_ms: u64,
    max_samples: usize,
    keys: Mutex<FxHashMap<String, KeyWindow>>,
}

impl WriteRateSampler {
    /// A sampler with the given window (e.g. 60 000 ms) keeping at most
    /// `max_samples` timestamps per key.
    pub fn new(window_ms: u64, max_samples: usize) -> WriteRateSampler {
        assert!(window_ms > 0 && max_samples >= 2);
        WriteRateSampler {
            window_ms,
            max_samples,
            keys: Mutex::new(FxHashMap::default()),
        }
    }

    /// Record a write to `key` at `now`.
    pub fn record_write(&self, key: &str, now: Timestamp) {
        let mut keys = self.keys.lock();
        let win = keys.entry(key.to_owned()).or_insert_with(|| KeyWindow {
            writes: VecDeque::with_capacity(8),
        });
        win.writes.push_back(now);
        while win.writes.len() > self.max_samples {
            win.writes.pop_front();
        }
        let horizon = now.minus(self.window_ms);
        while win.writes.front().is_some_and(|&t| t < horizon) {
            win.writes.pop_front();
        }
    }

    /// Estimated write rate of `key` at `now`, in writes **per ms**.
    /// `None` until at least two writes fall inside the window.
    pub fn rate(&self, key: &str, now: Timestamp) -> Option<f64> {
        self.rate_in(&self.keys.lock(), key, now)
    }

    /// [`rate`](Self::rate) of each key, in order, read under one lock
    /// acquisition. A query result's combined rate (λ_min of the
    /// minimum-of-exponentials model) is the sum of its members' rates,
    /// keys with no estimate contributing 0.
    pub fn rates<'a>(
        &self,
        keys: impl IntoIterator<Item = &'a str>,
        now: Timestamp,
    ) -> Vec<Option<f64>> {
        let map = self.keys.lock();
        keys.into_iter()
            .map(|k| self.rate_in(&map, k, now))
            .collect()
    }

    fn rate_in(
        &self,
        map: &FxHashMap<String, KeyWindow>,
        key: &str,
        now: Timestamp,
    ) -> Option<f64> {
        let win = map.get(key)?;
        let horizon = now.minus(self.window_ms);
        let live = win.writes.iter().filter(|&&t| t >= horizon).count();
        if live < 2 {
            return None;
        }
        // Effective window: from the older of (window start, first sample)
        // to now — avoids overestimating rates for keys hot only recently.
        let first = *win.writes.iter().find(|&&t| t >= horizon)?;
        let span = now.since(first).max(1);
        Some((live as f64 - 1.0) / span as f64)
    }

    /// Drop all state for keys not written since `horizon` (maintenance).
    pub fn prune(&self, horizon: Timestamp) {
        self.keys
            .lock()
            .retain(|_, w| w.writes.back().is_some_and(|&t| t >= horizon));
    }

    /// Number of tracked keys.
    pub fn tracked_keys(&self) -> usize {
        self.keys.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(ms: u64) -> Timestamp {
        Timestamp::from_millis(ms)
    }

    #[test]
    fn no_estimate_below_two_samples() {
        let s = WriteRateSampler::new(10_000, 32);
        assert!(s.rate("k", ts(0)).is_none());
        s.record_write("k", ts(100));
        assert!(s.rate("k", ts(200)).is_none());
    }

    #[test]
    fn steady_rate_is_recovered() {
        let s = WriteRateSampler::new(100_000, 64);
        // one write every 500 ms => 0.002 writes/ms
        for i in 0..20 {
            s.record_write("k", ts(i * 500));
        }
        let rate = s.rate("k", ts(20 * 500)).unwrap();
        assert!(
            (rate - 0.002).abs() < 0.0005,
            "expected ~0.002 w/ms, got {rate}"
        );
    }

    #[test]
    fn old_writes_age_out_of_window() {
        let s = WriteRateSampler::new(1_000, 64);
        s.record_write("k", ts(0));
        s.record_write("k", ts(100));
        assert!(s.rate("k", ts(200)).is_some());
        assert!(
            s.rate("k", ts(5_000)).is_none(),
            "both samples left the window"
        );
    }

    #[test]
    fn rates_sum_to_the_combined_rate() {
        let s = WriteRateSampler::new(100_000, 64);
        for i in 1..=10 {
            s.record_write("a", ts(i * 1_000)); // 0.001 w/ms
        }
        for i in 1..=20 {
            s.record_write("b", ts(i * 500)); // 0.002 w/ms
        }
        let now = ts(10_000);
        let rates = s.rates(["a", "b", "silent"], now);
        assert_eq!(rates, [s.rate("a", now), s.rate("b", now), None]);
        let combined: f64 = rates.iter().flatten().sum();
        assert!(
            (combined - 0.003).abs() < 0.001,
            "expected ~0.003, got {combined}"
        );
    }

    #[test]
    fn sample_cap_bounds_memory() {
        let s = WriteRateSampler::new(u64::MAX / 2, 8);
        for i in 0..100 {
            s.record_write("k", ts(i * 10));
        }
        // Rate computed from the 8 newest samples only.
        let rate = s.rate("k", ts(1_000)).unwrap();
        assert!(rate > 0.0);
    }

    #[test]
    fn prune_drops_idle_keys() {
        let s = WriteRateSampler::new(10_000, 8);
        s.record_write("old", ts(0));
        s.record_write("new", ts(5_000));
        s.prune(ts(1_000));
        assert_eq!(s.tracked_keys(), 1);
    }
}
