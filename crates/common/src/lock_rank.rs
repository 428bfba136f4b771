//! The workspace lock-rank hierarchy.
//!
//! Every long-lived lock in the workspace is constructed with
//! [`parking_lot::Mutex::with_rank`] using a `(name, rank)` pair from this
//! table. Under `RUSTFLAGS="--cfg lockcheck"` the vendored `parking_lot`
//! enforces that locks are only acquired in strictly increasing rank order
//! per thread (same-name lock *classes*, like the table shards, are exempt
//! so slice-ordered sweeps stay legal); an inversion panics with both
//! acquisition sites.
//!
//! The static linter (`cargo run -p quaestor-analyze -- lint`) checks a
//! token-level projection of the same hierarchy from
//! `analyze/lock-order.toml`. Keep all three in sync: this table, that
//! TOML file, and `crates/analyze/DESIGN.md`.
//!
//! Rank gaps are deliberate — new locks slot in between existing ones
//! without renumbering the world.

/// A `(name, rank)` pair for [`parking_lot::Mutex::with_rank`].
pub type LockRank = (&'static str, u32);

/// `QuaestorServer`'s global commit lock — held across whole BOCC
/// validate+apply cycles, so it is the outermost lock in the system.
pub const CORE_COMMIT: LockRank = ("core.commit", 5);
/// `DurabilityEngine::snapshot_gate` — serialises snapshot attempts. Held
/// across `Database::table()` lookups and per-shard reads during
/// `snapshot()`, so it ranks *below* `store.db.tables` and `store.shard`
/// despite living in the durability crate (found empirically by the
/// `lockcheck` detector, not by reading the code).
pub const DURABILITY_SNAPSHOT_GATE: LockRank = ("durability.snapshot_gate", 8);
/// `Database::tables` — the table map, outermost store lock.
pub const STORE_DB_TABLES: LockRank = ("store.db.tables", 10);
/// `Database::index_registry` — declarative index specs; held (via an
/// `if let` scrutinee temporary) across `ensure_index`, so it must rank
/// below every lock `ensure_index` takes.
pub const STORE_DB_INDEX_REGISTRY: LockRank = ("store.db.index_registry", 12);
/// `Table::shards[i]` — one per shard; a lock *class* (same name), so
/// slice-ordered multi-shard sweeps (`ensure_index`, `snapshot`) are
/// exempt from the order check among themselves.
pub const STORE_SHARD: LockRank = ("store.shard", 20);
/// `Table::indexes` — acquired while a shard write lock is held
/// (shard → index is the documented store order from PR 5).
pub const STORE_INDEX: LockRank = ("store.index", 30);
/// `Database::sink` / `Table::sink` — the shared durability-sink slot,
/// read while a shard write lock (and the index lock path) is active.
pub const STORE_SINK: LockRank = ("store.sink", 40);
/// `ChangeStream::taps` — publish fan-out, called under the sink read.
pub const STORE_CHANGES: LockRank = ("store.changes", 45);
/// `DurabilityEngine::state` — WAL writer state; appends run under a
/// shard write lock via the sink.
pub const DURABILITY_WAL: LockRank = ("durability.wal", 55);
/// `PubSub::channels` — kv fan-out map (leaf; nothing nests inside it).
pub const KV_PUBSUB_CHANNELS: LockRank = ("kv.pubsub.channels", 60);
/// `ReplicatedService::election` — serializes fail-over elections (two
/// concurrent probe-and-promote passes can crown two primaries when a
/// probe fails transiently). Held across endpoint probes, which take
/// the `net.client.*` locks, so it ranks below that whole range.
pub const CLIENT_FAILOVER_ELECTION: LockRank = ("client.failover.election", 62);
/// `Server::accept` — accept-thread handle slot.
pub const NET_SERVER_ACCEPT: LockRank = ("net.server.accept", 65);
/// `Server::workers` — worker-thread handles.
pub const NET_SERVER_WORKERS: LockRank = ("net.server.workers", 66);
/// The fallback `poll(2)` backend's fd registration table (leaf with
/// respect to the loop: copied out before the blocking syscall, never
/// held across it; the epoll backend has no lock at all).
pub const NET_POLL_REGISTRY: LockRank = ("net.poll.registry", 67);
/// One event-loop shard's cross-thread task inbox (accepts, stream
/// notifies, shutdown). Publish-side notify hooks take it while
/// `kv.pubsub.channels` (60) is read-held, so it ranks above that.
pub const NET_SHARD_INBOX: LockRank = ("net.server.shard.inbox", 68);
/// One event-loop shard's force-close registry: token → socket clone,
/// so `NetServer::shutdown` can sever connections a wedged handler is
/// still serving. Leaf within the shard (installed/removed by the loop,
/// drained once by shutdown).
pub const NET_SHARD_CONNS: LockRank = ("net.server.shard.conns", 69);
/// `RemoteService::slots[i]` — connection-pool slots (a class: one per
/// slot, only ever one held at a time).
pub const NET_CLIENT_SLOT: LockRank = ("net.client.slot", 70);
/// Client-side per-connection write half, with the registrations of
/// callers waiting for the reader-token holder to route their replies
/// (acquired under a pool slot). The reader token itself is an atomic
/// word, not a lock.
pub const NET_CLIENT_WRITER: LockRank = ("net.client.conn.writer", 74);
/// `ReplNode::role_state` — replication role, epoch, and fence LSN. Held
/// across promotion, which attaches the durability sink (`store.sink`,
/// rank 40) and persists the epoch file, so it ranks below every store
/// and durability lock.
pub const REPL_NODE_ROLE: LockRank = ("repl.node.role", 3);
/// `ReplNode` thread-handle and follower-socket slots (`accept_slot`,
/// `follower_slot`, `follower_conn`, `follow_target`) — a class: only
/// ever held briefly to install, signal, retarget, or join, never while
/// calling into lower layers.
pub const REPL_THREADS: LockRank = ("repl.node.threads", 88);
/// `ReplNode::sessions` — per-replica shipping-session registry (leaf;
/// pushed on accept, swept on shutdown, scanned by the ack-wait loop).
pub const REPL_SESSIONS: LockRank = ("repl.node.sessions", 90);
/// `ReplicatedService::state` — the client failover router's
/// believed-primary index (leaf: read/updated around endpoint calls,
/// never held across them).
pub const CLIENT_FAILOVER_ROUTER: LockRank = ("client.failover.router", 92);
/// `obs` trace-handoff map (WAL append → replication-ship stitching).
/// Taken after a frame is staged — potentially while I/O-layer locks are
/// held — so it ranks above every service lock.
pub const OBS_HANDOFF: LockRank = ("obs.trace.handoff", 93);
/// `obs::Registry` inner map — name → metric handle. Registration and
/// snapshots may run while middleware holds service-layer locks, so it
/// sits in the leaf-high range.
pub const OBS_REGISTRY: LockRank = ("obs.registry", 94);
/// One `obs::HistogramHandle`'s histogram — recorded into from
/// middleware after a call completes; nothing is acquired under it.
pub const OBS_METRIC_HIST: LockRank = ("obs.metric.hist", 96);
/// The global span ring buffer — pushed into from `SpanGuard::drop`,
/// which can run while *any* other lock is held, so it must outrank
/// every other lock in the workspace. Nothing nests inside it.
pub const OBS_TRACE_COLLECTOR: LockRank = ("obs.trace.collector", 98);
