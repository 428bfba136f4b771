//! InvaliDB — the distributed real-time query invalidation pipeline,
//! contribution (2) of the paper (§4.1).
//!
//! > "The invalidation pipeline (InvaliDB) matches change operations to
//! > cached queries. For each cached query, it determines whether an
//! > update changes the result set. ... The matching workload is
//! > distributed by hash-partitioning both the stream of incoming data
//! > objects and the set of active queries orthogonally to one another."
//!
//! Pieces:
//!
//! * [`Notification`] / [`NotificationEvent`] — the `add` / `remove` /
//!   `change` / `changeIndex` events of Figure 5.
//! * [`MatchingNode`] — one cell of the Figure 6 grid: responsible for one
//!   query partition × one object partition. Keeps per-query *former
//!   matching status* ("the only state required ... is the former matching
//!   status on a per-record basis"), and prunes candidates with a query
//!   predicate index so per-event cost is sub-linear in the number of
//!   registered queries (see `DESIGN.md`).
//! * [`SortedQueryState`] — the order-maintaining layer for stateful
//!   queries (ORDER BY / LIMIT / OFFSET), "partitioned by query".
//! * [`InvaliDbCluster`] — the inline deployment a server runs: one
//!   matching node and the sorted layer, fed every write by the server.
//!   A registration seeds the query with its initial result, then replays
//!   the buffered writes that raced the evaluation against that query
//!   alone; the window is a constant ([`REPLAY_WINDOW`]), and a mark older
//!   than the window is reported as an overrun.
//! * [`pipeline`] — query partitioning in real threads: each matching
//!   node is a thread with its own share of the queries. It measures how
//!   matching scales with nodes for Figure 12 (wall-clock latency).
//!
//! The paper runs this on Apache Storm; the substance — the partitioning
//! scheme and its linear scalability — is independent of Storm and is
//! what this crate reproduces.

pub mod cluster;
pub mod event;
pub mod matching;
pub mod pipeline;
pub mod sorted;

pub use cluster::{InvaliDbCluster, Replay, REPLAY_WINDOW};
pub use event::{Notification, NotificationEvent};
pub use matching::MatchingNode;
pub use pipeline::{PipelineConfig, PipelineReport, ThreadedPipeline};
pub use sorted::SortedQueryState;
