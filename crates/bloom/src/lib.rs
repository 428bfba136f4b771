//! The Bloom filter family, culminating in the **Expiring Bloom Filter**
//! (EBF) — contribution (1) of the paper.
//!
//! > "The purpose of the Expiring Bloom Filter (EBF) is to answer the
//! > question whether a given query or record is potentially stale. ...
//! > By allowing occasional false positives with probability f, the EBF
//! > achieves a very small size that is provably space-optimal within a
//! > constant factor (1.44) and allows O(1) lookups." (§3.1)
//!
//! Layer by layer:
//!
//! * [`BloomFilter`] — the flat bit-vector filter shipped to clients
//!   ("clients receive a flat, immutable copy of the EBF"). Supports
//!   bitwise-OR union for the per-table partitioning scheme of §3.3.
//! * [`CountingBloomFilter`] — the server-side representation: "the EBF is
//!   maintained as a Counting Bloom filter which allows discarding queries
//!   once they are no longer stale". It incrementally maintains the flat
//!   filter on 0↔non-0 counter transitions, because "it is inefficient to
//!   generate the non-counting Bloom filter for each request".
//! * [`ExpiringBloomFilter`] — adds the TTL ledger: "the server-side EBF
//!   also tracks a separate mapping of queries to their respective TTLs.
//!   In this way, only non-expired queries are added to the Bloom filter
//!   upon invalidation. After their TTL is expired, queries are removed
//!   from the Bloom filter."
//! * [`PartitionedEbf`] — per-table EBF instances with a union read
//!   ("the aggregated EBF is constructed by a union over the EBF
//!   partitions through a bitwise OR-operation").

pub mod counting;
pub mod ebf;
pub mod filter;
pub mod partitioned;

pub use counting::CountingBloomFilter;
pub use ebf::{EbfStats, ExpiringBloomFilter};
pub use filter::{BloomFilter, BloomParams};
pub use partitioned::PartitionedEbf;
