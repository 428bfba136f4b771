//! The §3.3 capacity claim: "the Redis-based implementation of the
//! Expiring Bloom Filter provides sufficient performance to sustain a
//! throughput of >150 K queries or invalidations per second for each
//! Redis instance."
//!
//! Benchmarks the server-side EBF's mixed read/invalidate workload; the
//! origin keeps one such filter per table (`PartitionedEbf`).

use criterion::{criterion_group, criterion_main, Criterion, Throughput};
use quaestor_bloom::{BloomParams, ExpiringBloomFilter};
use quaestor_common::SystemClock;

fn ebf_throughput(c: &mut Criterion) {
    let mut group = c.benchmark_group("ebf_throughput");
    group.throughput(Throughput::Elements(1));

    group.bench_function("in_memory_mixed_op", |b| {
        let ebf = ExpiringBloomFilter::new(BloomParams::PAPER_DEFAULT, SystemClock::shared());
        let mut i = 0u64;
        b.iter(|| {
            i += 1;
            let key = format!("q{}", i % 10_000);
            match i % 3 {
                0 => ebf.report_read(&key, 60_000),
                1 => {
                    ebf.invalidate(&key);
                }
                _ => {
                    ebf.is_stale(&key);
                }
            }
        })
    });

    // The >150k ops/s claim corresponds to <6.7 µs per op; criterion's
    // per-op timing in the reports verifies it directly.
    group.finish();
}

criterion_group!(benches, ebf_throughput);
criterion_main!(benches);
