//! The benchmark's own arithmetic: exact percentiles over raw samples,
//! guarded ratios, span self-time folding and the staleness check.
//! Everything here is pure so the unit tests below can pin it.

use std::collections::HashMap;

use quaestor_obs::SpanRecord;
use quaestor_sim::StalenessAudit;

/// One percentile of a sample set, with the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the percentile's rank.
    pub value: u64,
    /// Samples in the set.
    pub samples: usize,
    /// Samples ranked strictly above the percentile.
    pub beyond: usize,
}

/// Fewest samples a percentile must have beyond it to count as a number.
pub const MIN_BEYOND: usize = 10;

/// Nearest-rank percentile `q` (0 < q < 1) of `sorted` (ascending): the
/// sample at rank `ceil(q * n)`. Errors when fewer than [`MIN_BEYOND`]
/// samples lie beyond it, since such a tail is noise, not a number.
pub fn percentile(sorted: &[u64], q: f64) -> Result<Tail, String> {
    assert!(
        q > 0.0 && q < 1.0,
        "percentile must lie strictly inside (0, 1)"
    );
    debug_assert!(
        sorted.windows(2).all(|w| w[0] <= w[1]),
        "samples must be sorted"
    );
    let n = sorted.len();
    // The epsilon keeps float error in `q * n` (0.9 * 30 is a hair above
    // 27) from pushing the rank up by one.
    let rank = ((q * n as f64 - 1e-9).ceil() as usize).max(1);
    let beyond = n.saturating_sub(rank);
    if n == 0 || beyond < MIN_BEYOND {
        return Err(format!(
            "p{} over {n} samples has {beyond} beyond it (need {MIN_BEYOND})",
            q * 100.0
        ));
    }
    Ok(Tail {
        value: sorted[rank - 1],
        samples: n,
        beyond,
    })
}

/// Median of a per-layer sample set; 0 when the layer saw no work at all
/// (the workload does not exercise it), an error when it saw too little.
pub fn layer_p50(samples: &mut [u64]) -> Result<u64, String> {
    if samples.is_empty() {
        return Ok(0);
    }
    samples.sort_unstable();
    percentile(samples, 0.5).map(|t| t.value)
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Median of a small set of measurements (set-up repetitions).
pub fn median_f64(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    assert!(n > 0, "median of nothing");
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Fold the spans of one trace into self time per span name: a span's
/// duration minus the part of its interval that its direct children
/// cover. A child timed on another thread may lie partly or wholly
/// outside its parent: a replication ship starts after the WAL append
/// that handed it its trace has ended.
pub fn self_times(spans: &[SpanRecord]) -> Vec<(&'static str, u64)> {
    let by_id: HashMap<u64, &SpanRecord> = spans.iter().map(|s| (s.span_id, s)).collect();
    let mut covered_us: HashMap<u64, u64> = HashMap::new();
    for s in spans {
        if let Some(p) = by_id.get(&s.parent) {
            let start = s.start_us.max(p.start_us);
            let end = (s.start_us + s.dur_us).min(p.start_us + p.dur_us);
            *covered_us.entry(p.span_id).or_default() += end.saturating_sub(start);
        }
    }
    spans
        .iter()
        .map(|s| {
            let covered = covered_us.get(&s.span_id).copied().unwrap_or(0);
            (s.name, s.dur_us.saturating_sub(covered))
        })
        .collect()
}

/// Ground-truth staleness of what the sessions read. Record reads go
/// through [`StalenessAudit`] (staleness timed from the superseding
/// write); queries compare the result ETag a session saw against the
/// origin's current one.
#[derive(Debug)]
pub struct Staleness {
    audit: StalenessAudit,
    stale_queries: u64,
    queries: u64,
}

impl Staleness {
    /// Audit against a promised bound of `delta_ms`.
    pub fn new(delta_ms: u64) -> Staleness {
        Staleness {
            audit: StalenessAudit::new(delta_ms),
            stale_queries: 0,
            queries: 0,
        }
    }

    /// An acknowledged write of `version` at logical time `at_ms`.
    pub fn write(&mut self, table: &str, id: &str, version: u64, at_ms: u64) {
        self.audit.note_write(table, id, version, at_ms);
    }

    /// A record read that returned `version` at logical time `at_ms`.
    pub fn read(&mut self, table: &str, id: &str, version: u64, at_ms: u64) {
        self.audit.note_read(table, id, version, at_ms);
    }

    /// A query that returned result ETag `seen` while the origin's
    /// current result has ETag `truth`.
    pub fn query(&mut self, seen: u64, truth: u64) {
        self.queries += 1;
        if seen != truth {
            self.stale_queries += 1;
        }
    }

    /// Share of reads and queries that returned a superseded version.
    pub fn stale_read_ratio(&self) -> f64 {
        let r = self.audit.report();
        ratio(r.stale_reads + self.stale_queries, r.reads + self.queries)
    }

    /// Share of record reads staler than the promised bound.
    pub fn delta_violation_ratio(&self) -> f64 {
        let r = self.audit.report();
        ratio(r.violations, r.reads)
    }

    /// `(record reads, stale record reads, Δ violations, queries, stale
    /// queries)` for the run log.
    pub fn counts(&self) -> (u64, u64, u64, u64, u64) {
        let r = self.audit.report();
        (
            r.reads,
            r.stale_reads,
            r.violations,
            self.queries,
            self.stale_queries,
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles_are_exact_samples() {
        let samples: Vec<u64> = (1..=100).collect();
        let p50 = percentile(&samples, 0.5).unwrap();
        assert_eq!(
            p50,
            Tail {
                value: 50,
                samples: 100,
                beyond: 50
            }
        );
        let p90 = percentile(&samples, 0.9).unwrap();
        assert_eq!((p90.value, p90.beyond), (90, 10));
        let thirty: Vec<u64> = (1..=30).collect();
        assert_eq!(percentile(&thirty, 0.1).unwrap().value, 3);
        assert_eq!(
            percentile(&(1..=300).collect::<Vec<u64>>(), 0.9)
                .unwrap()
                .value,
            270
        );
        // Sub-microsecond differences survive: nothing is bucketed.
        let ns = [
            4_001, 4_002, 4_003, 4_004, 4_005, 4_006, 4_007, 4_008, 4_009, 4_010, 4_011,
        ];
        assert_eq!(percentile(&ns, 0.05).unwrap().value, 4_001);
    }

    #[test]
    fn thin_tails_are_errors_not_numbers() {
        let samples: Vec<u64> = (1..=100).collect();
        // p99 of 100 samples has 1 sample beyond it.
        assert!(percentile(&samples, 0.99).is_err());
        // p99 needs 1000 samples to have 10 beyond.
        let big: Vec<u64> = (1..=1000).collect();
        let p99 = percentile(&big, 0.99).unwrap();
        assert_eq!((p99.value, p99.beyond), (990, 10));
        assert!(percentile(&big[..999], 0.99).is_err());
        assert!(percentile(&[], 0.5).is_err());
    }

    #[test]
    fn layer_medians_read_zero_only_for_unexercised_layers() {
        assert_eq!(layer_p50(&mut []), Ok(0));
        let mut few = vec![3, 1, 2];
        assert!(layer_p50(&mut few).is_err());
        let mut many: Vec<u64> = (0..40).rev().collect();
        assert_eq!(layer_p50(&mut many), Ok(19));
    }

    #[test]
    fn ratios_and_medians() {
        assert_eq!(ratio(0, 0), 0.0);
        assert_eq!(ratio(1, 4), 0.25);
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median_f64(&[4.0, 1.0, 2.0, 3.0]), 2.5);
    }

    fn span(id: u64, parent: u64, name: &'static str, start_us: u64, dur_us: u64) -> SpanRecord {
        SpanRecord {
            trace_id: 1,
            span_id: id,
            parent,
            name,
            start_us,
            dur_us,
        }
    }

    #[test]
    fn self_time_subtracts_what_direct_children_cover() {
        let spans = [
            span(1, 0, "bench.op", 0, 100),
            span(2, 1, "client.call", 10, 80),
            span(3, 2, "net.server", 20, 50),
            span(4, 3, "store.plan", 25, 5),
            span(5, 3, "store.query", 30, 20),
            // A remote child that outlasts its parent covers only the
            // part of it that overlaps.
            span(6, 5, "late", 40, 25),
            span(7, 3, "wal.append", 55, 5),
            // Shipping starts after the append that handed it off.
            span(8, 7, "repl.ship", 75, 20),
        ];
        let folded = self_times(&spans);
        assert_eq!(
            folded,
            vec![
                ("bench.op", 20),
                ("client.call", 30),
                ("net.server", 20),
                ("store.plan", 5),
                ("store.query", 10),
                ("late", 25),
                ("wal.append", 5),
                ("repl.ship", 20),
            ]
        );
    }

    #[test]
    fn staleness_checker_fires() {
        // An audit that promises Δ = 0 flags every stale read.
        let mut s = Staleness::new(0);
        s.write("t", "a", 1, 0);
        s.write("t", "a", 2, 10);
        s.read("t", "a", 2, 11); // fresh
        s.read("t", "a", 1, 10); // superseded the moment it was read
        s.read("t", "a", 1, 15); // superseded 5 ms ago
        assert_eq!(s.counts(), (3, 2, 1, 0, 0));
        // The zero-staleness read is stale but within any bound; the
        // 5 ms one breaks Δ = 0.
        assert!((s.delta_violation_ratio() - 1.0 / 3.0).abs() < 1e-12);
        s.query(7, 7);
        s.query(7, 8);
        assert!((s.stale_read_ratio() - 3.0 / 5.0).abs() < 1e-12);

        // The same history under a generous bound has no violations.
        let mut loose = Staleness::new(1_000);
        loose.write("t", "a", 1, 0);
        loose.write("t", "a", 2, 10);
        loose.read("t", "a", 1, 15);
        assert_eq!(loose.delta_violation_ratio(), 0.0);
        assert_eq!(loose.stale_read_ratio(), 1.0);
    }
}
