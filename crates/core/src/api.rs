//! The typed request/response protocol between clients and the server
//! tier.
//!
//! The paper's architecture (Figure 3) is a *tiered request path*: client
//! SDK → expiration caches → invalidation caches/CDN → origin server.
//! Everything the SDK asks of the server tier is expressed as a
//! [`Request`] and answered with a [`Response`], carried by the
//! [`Service`] trait. That seam is where deployment topology lives:
//!
//! * [`QuaestorServer`] implements `Service` directly (one origin node);
//! * [`ShardRouter`] hash-partitions tables across N shared-nothing
//!   origin nodes behind the same trait;
//! * [`MetricsLayer`] (here) and `LatencyInjector` (in `quaestor-sim`)
//!   wrap any `Service` to observe or perturb the request stream;
//! * [`Request::Batch`] amortizes per-request overhead on the write path
//!   (one table resolution per run of writes instead of one per write).
//!
//! The client SDK (`quaestor-client`) speaks *only* `dyn Service`, so the
//! same client code runs unmodified against a single node, a sharded
//! cluster, or any middleware composition.

use std::sync::Arc;
use std::time::Instant;

use quaestor_bloom::BloomFilter;
use quaestor_common::{stable_bucket, Error, Result, Timestamp, Version};
use quaestor_document::{Document, Update};
use quaestor_obs::{Counter, HistogramHandle, MetricsSnapshot, Registry};
use quaestor_query::{Query, QueryKey};
use quaestor_store::Table;

use crate::response::{QueryResponse, RecordResponse};
use crate::server::QuaestorServer;

/// One request against the Quaestor server tier.
#[derive(Debug, Clone)]
pub enum Request {
    /// Origin read of one record (cache miss or revalidation).
    GetRecord {
        /// Table name.
        table: String,
        /// Primary key.
        id: String,
    },
    /// Origin evaluation of a query.
    Query(Query),
    /// Insert a new record.
    Insert {
        /// Table name.
        table: String,
        /// Primary key.
        id: String,
        /// Document to store.
        doc: Document,
    },
    /// Partially update a record.
    Update {
        /// Table name.
        table: String,
        /// Primary key.
        id: String,
        /// Update operators.
        update: Update,
    },
    /// Replace a record wholesale.
    Replace {
        /// Table name.
        table: String,
        /// Primary key.
        id: String,
        /// Replacement document.
        doc: Document,
    },
    /// Delete a record.
    Delete {
        /// Table name.
        table: String,
        /// Primary key.
        id: String,
    },
    /// Fetch the Expiring Bloom Filter — the flat union when `table` is
    /// `None`, or one table's partition (the lower-FPR client option).
    EbfSnapshot {
        /// Restrict to one table's partition.
        table: Option<String>,
    },
    /// Execute several requests in one round trip. Sub-request results are
    /// reported individually and in order; writes take a fast path that
    /// amortizes table resolution across consecutive ops on one table.
    Batch(Vec<Request>),
    /// Subscribe to the real-time change stream of one cached query
    /// (§3.2's websocket alternative to EBF polling).
    Subscribe {
        /// The query (or record) key to watch.
        key: QueryKey,
    },
    /// Force the origin's write-ahead log to stable storage (group-commit
    /// drain + fsync). A no-op answered with LSN 0 on in-memory servers.
    Flush,
    /// Where does this node stand in its replication group? Answered by
    /// every node (a plain server reports [`ReplRole::Standalone`]); the
    /// failover router uses it both as a health probe and to elect the
    /// live node with the highest durable LSN.
    ReplicationStatus,
    /// Promote this node to primary for `epoch`. Only replication-aware
    /// nodes accept it (a plain server answers `BadRequest`); sent by the
    /// failover router to the election winner.
    Promote {
        /// The new epoch — must exceed every epoch the group has seen.
        epoch: u64,
    },
    /// Snapshot the node's unified metrics registry (server counters,
    /// per-kind service latencies, planner statistics). Answered by
    /// every node; a [`ShardRouter`] fans it out and merges per-shard
    /// snapshots under `shard<i>.` prefixes.
    Metrics,
}

impl Request {
    /// The table this request addresses — the shard-routing key. `None`
    /// for requests without a single home (flat EBF snapshots, batches).
    pub fn table(&self) -> Option<&str> {
        match self {
            Request::GetRecord { table, .. }
            | Request::Insert { table, .. }
            | Request::Update { table, .. }
            | Request::Replace { table, .. }
            | Request::Delete { table, .. } => Some(table),
            Request::Query(q) => Some(&q.table),
            Request::EbfSnapshot { table } => table.as_deref(),
            Request::Subscribe { key } => Some(key.table()),
            Request::Batch(_)
            | Request::Flush
            | Request::ReplicationStatus
            | Request::Promote { .. }
            | Request::Metrics => None,
        }
    }

    /// True for mutating requests.
    pub fn is_write(&self) -> bool {
        matches!(
            self,
            Request::Insert { .. }
                | Request::Update { .. }
                | Request::Replace { .. }
                | Request::Delete { .. }
        )
    }

    /// Short label for metrics and diagnostics.
    pub fn kind(&self) -> &'static str {
        match self {
            Request::GetRecord { .. } => "get_record",
            Request::Query(_) => "query",
            Request::Insert { .. } => "insert",
            Request::Update { .. } => "update",
            Request::Replace { .. } => "replace",
            Request::Delete { .. } => "delete",
            Request::EbfSnapshot { .. } => "ebf_snapshot",
            Request::Batch(_) => "batch",
            Request::Subscribe { .. } => "subscribe",
            Request::Flush => "flush",
            Request::ReplicationStatus => "replication_status",
            Request::Promote { .. } => "promote",
            Request::Metrics => "metrics",
        }
    }
}

/// A node's role in a replication group.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ReplRole {
    /// Not participating in replication (a plain single node).
    Standalone,
    /// Accepts writes and ships WAL frames to its replicas.
    Primary,
    /// Applies shipped frames; writes are rejected (fencing).
    Replica,
}

/// Answer to [`Request::ReplicationStatus`]: where this node stands in
/// the replicated log.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ReplicationStatus {
    /// The node's current role.
    pub role: ReplRole,
    /// The replication epoch the node believes is current (0 for a
    /// standalone node). Bumped by every promotion.
    pub epoch: u64,
    /// Highest LSN in the node's log (staged; not necessarily synced).
    /// A replica stages and fsyncs each shipped batch under one lock, so
    /// its log's end is always fsynced: for a replica this is the LSN it
    /// durably holds, which is what an election ranks replicas by.
    pub last_lsn: u64,
    /// Highest LSN fsynced to the node's own stable storage. A replica
    /// reports the lower of that and its applied LSN, so a frame it does
    /// not serve yet does not count; while it applies a batch this lags
    /// `last_lsn`.
    pub durable_lsn: u64,
}

/// The answer to one [`Request`]; variants pair with request variants.
#[derive(Debug)]
pub enum Response {
    /// Answer to [`Request::GetRecord`].
    Record(RecordResponse),
    /// Answer to [`Request::Query`].
    Query(QueryResponse),
    /// Answer to a successful insert/update/replace: the stored version
    /// and after-image (the SDK caches them for read-your-writes).
    Written {
        /// The record's new version (its ETag).
        version: Version,
        /// The after-image as stored.
        image: Arc<Document>,
    },
    /// Answer to a successful delete.
    Deleted {
        /// The version the deleted record had.
        version: Version,
    },
    /// Answer to [`Request::EbfSnapshot`].
    Ebf {
        /// The (possibly unioned) staleness filter.
        filter: BloomFilter,
        /// Filter generation time — the client's Δ reference point.
        at: Timestamp,
    },
    /// Answer to [`Request::Batch`]: one result per sub-request, in
    /// submission order. Sub-requests fail individually; the batch call
    /// itself only fails on transport-level problems.
    Batch(Vec<Result<Response>>),
    /// Answer to [`Request::Subscribe`].
    Stream(quaestor_kv::Subscription),
    /// Answer to [`Request::Flush`].
    Flushed {
        /// Highest log sequence number durable on disk (0 when the
        /// target server has no durability engine).
        lsn: u64,
    },
    /// Answer to [`Request::ReplicationStatus`] and [`Request::Promote`]
    /// (a successful promotion reports the node's new status).
    Replication(ReplicationStatus),
    /// Answer to [`Request::Metrics`]: the node's registry snapshot
    /// (plus, through middleware and routers, their merged series).
    Metrics(MetricsSnapshot),
}

fn unexpected(wanted: &str, got: &Response) -> Error {
    Error::Internal(format!(
        "protocol violation: expected {wanted} response, got {}",
        match got {
            Response::Record(_) => "Record",
            Response::Query(_) => "Query",
            Response::Written { .. } => "Written",
            Response::Deleted { .. } => "Deleted",
            Response::Ebf { .. } => "Ebf",
            Response::Batch(_) => "Batch",
            Response::Stream(_) => "Stream",
            Response::Flushed { .. } => "Flushed",
            Response::Replication(_) => "Replication",
            Response::Metrics(_) => "Metrics",
        }
    ))
}

/// A node in the request path: the origin server, a shard router, or any
/// middleware wrapping one of them.
pub trait Service: Send + Sync {
    /// Handle one request.
    fn call(&self, req: Request) -> Result<Response>;

    /// Like [`call`](Self::call), but a node that cannot be reached right
    /// now fails the call at once instead of being waited for (no
    /// reconnect backoff). For callers with somewhere else to go: a
    /// replication router's election probes and read rotation. Defaults
    /// to `call`.
    fn call_if_reachable(&self, req: Request) -> Result<Response> {
        self.call(req)
    }
}

impl<S: Service + ?Sized> Service for Arc<S> {
    fn call(&self, req: Request) -> Result<Response> {
        (**self).call(req)
    }

    fn call_if_reachable(&self, req: Request) -> Result<Response> {
        (**self).call_if_reachable(req)
    }
}

/// Typed convenience wrappers over [`Service::call`]. Blanket-implemented,
/// so they are available on `dyn Service` as well.
pub trait ServiceExt: Service {
    /// Read one record.
    fn get_record(&self, table: &str, id: &str) -> Result<RecordResponse> {
        match self.call(Request::GetRecord {
            table: table.to_owned(),
            id: id.to_owned(),
        })? {
            Response::Record(r) => Ok(r),
            other => Err(unexpected("Record", &other)),
        }
    }

    /// Evaluate a query.
    fn query(&self, query: &Query) -> Result<QueryResponse> {
        match self.call(Request::Query(query.clone()))? {
            Response::Query(r) => Ok(r),
            other => Err(unexpected("Query", &other)),
        }
    }

    /// Insert a record; returns version and after-image.
    fn insert(&self, table: &str, id: &str, doc: Document) -> Result<(Version, Arc<Document>)> {
        match self.call(Request::Insert {
            table: table.to_owned(),
            id: id.to_owned(),
            doc,
        })? {
            Response::Written { version, image } => Ok((version, image)),
            other => Err(unexpected("Written", &other)),
        }
    }

    /// Partially update a record; returns version and after-image.
    fn update(&self, table: &str, id: &str, update: &Update) -> Result<(Version, Arc<Document>)> {
        match self.call(Request::Update {
            table: table.to_owned(),
            id: id.to_owned(),
            update: update.clone(),
        })? {
            Response::Written { version, image } => Ok((version, image)),
            other => Err(unexpected("Written", &other)),
        }
    }

    /// Replace a record; returns version and after-image.
    fn replace(&self, table: &str, id: &str, doc: Document) -> Result<(Version, Arc<Document>)> {
        match self.call(Request::Replace {
            table: table.to_owned(),
            id: id.to_owned(),
            doc,
        })? {
            Response::Written { version, image } => Ok((version, image)),
            other => Err(unexpected("Written", &other)),
        }
    }

    /// Delete a record; returns the deleted version.
    fn delete(&self, table: &str, id: &str) -> Result<Version> {
        match self.call(Request::Delete {
            table: table.to_owned(),
            id: id.to_owned(),
        })? {
            Response::Deleted { version } => Ok(version),
            other => Err(unexpected("Deleted", &other)),
        }
    }

    /// Fetch the flat (all-tables) EBF with its generation time.
    ///
    /// (Named distinctly from `QuaestorServer::ebf_snapshot`, whose
    /// infallible signature predates the protocol layer: on an
    /// `Arc<QuaestorServer>` receiver trait methods would otherwise
    /// shadow the inherent ones.)
    fn fetch_ebf(&self) -> Result<(BloomFilter, Timestamp)> {
        match self.call(Request::EbfSnapshot { table: None })? {
            Response::Ebf { filter, at } => Ok((filter, at)),
            other => Err(unexpected("Ebf", &other)),
        }
    }

    /// Fetch one table's EBF partition.
    fn fetch_ebf_partition(&self, table: &str) -> Result<(BloomFilter, Timestamp)> {
        match self.call(Request::EbfSnapshot {
            table: Some(table.to_owned()),
        })? {
            Response::Ebf { filter, at } => Ok((filter, at)),
            other => Err(unexpected("Ebf", &other)),
        }
    }

    /// Execute a batch; returns per-request results in order.
    fn batch(&self, requests: Vec<Request>) -> Result<Vec<Result<Response>>> {
        match self.call(Request::Batch(requests))? {
            Response::Batch(results) => Ok(results),
            other => Err(unexpected("Batch", &other)),
        }
    }

    /// Flush the origin's WAL; returns the durable LSN (0 = in-memory).
    fn flush(&self) -> Result<u64> {
        match self.call(Request::Flush)? {
            Response::Flushed { lsn } => Ok(lsn),
            other => Err(unexpected("Flushed", &other)),
        }
    }

    /// The node's replication status — also the failover router's health
    /// probe (any node answers, whatever its role).
    fn replication_status(&self) -> Result<ReplicationStatus> {
        match self.call(Request::ReplicationStatus)? {
            Response::Replication(status) => Ok(status),
            other => Err(unexpected("Replication", &other)),
        }
    }

    /// Promote the node to primary for `epoch`; returns its new status.
    /// Refused (`BadRequest`) by nodes that are not replication-aware.
    fn promote(&self, epoch: u64) -> Result<ReplicationStatus> {
        match self.call(Request::Promote { epoch })? {
            Response::Replication(status) => Ok(status),
            other => Err(unexpected("Replication", &other)),
        }
    }

    /// Subscribe to a query's change stream.
    fn subscribe(&self, key: &QueryKey) -> Result<quaestor_kv::Subscription> {
        match self.call(Request::Subscribe { key: key.clone() })? {
            Response::Stream(sub) => Ok(sub),
            other => Err(unexpected("Stream", &other)),
        }
    }

    /// Snapshot the serving node's unified metrics registry (through a
    /// router: every shard, merged under `shard<i>.` prefixes).
    fn node_metrics(&self) -> Result<MetricsSnapshot> {
        match self.call(Request::Metrics)? {
            Response::Metrics(snap) => Ok(snap),
            other => Err(unexpected("Metrics", &other)),
        }
    }
}

impl<S: Service + ?Sized> ServiceExt for S {}

impl Service for QuaestorServer {
    fn call(&self, req: Request) -> Result<Response> {
        match req {
            Request::GetRecord { table, id } => self.get_record(&table, &id).map(Response::Record),
            Request::Query(query) => self.query(&query).map(Response::Query),
            Request::Insert { table, id, doc } => self
                .insert(&table, &id, doc)
                .map(|(version, image)| Response::Written { version, image }),
            Request::Update { table, id, update } => self
                .update(&table, &id, &update)
                .map(|(version, image)| Response::Written { version, image }),
            Request::Replace { table, id, doc } => self
                .replace(&table, &id, doc)
                .map(|(version, image)| Response::Written { version, image }),
            Request::Delete { table, id } => self
                .delete(&table, &id)
                .map(|version| Response::Deleted { version }),
            Request::EbfSnapshot { table } => {
                let (filter, at) = match table {
                    Some(t) => self.ebf_partition_snapshot(&t),
                    None => self.ebf_snapshot(),
                };
                Ok(Response::Ebf { filter, at })
            }
            Request::Batch(requests) => Ok(Response::Batch(self.call_batch(requests))),
            Request::Subscribe { key } => Ok(Response::Stream(self.subscribe_query_stream(&key))),
            Request::Flush => self.flush().map(|lsn| Response::Flushed { lsn }),
            Request::ReplicationStatus => {
                // A plain server is its own one-node "group": standalone,
                // epoch 0, log positions from its engine (0 = in-memory).
                let (last_lsn, durable_lsn) = match self.durability() {
                    Some(engine) => (engine.last_lsn(), engine.durable_lsn()),
                    None => (0, 0),
                };
                Ok(Response::Replication(ReplicationStatus {
                    role: if self.is_replica() {
                        ReplRole::Replica
                    } else {
                        ReplRole::Standalone
                    },
                    epoch: 0,
                    last_lsn,
                    durable_lsn,
                }))
            }
            Request::Promote { .. } => Err(Error::BadRequest(
                "promote: this node is not replication-aware".to_owned(),
            )),
            Request::Metrics => Ok(Response::Metrics(self.metrics_snapshot())),
        }
    }
}

impl QuaestorServer {
    /// The batch fast path. Reads and nested batches dispatch through the
    /// normal path; consecutive writes to one table resolve the table
    /// handle (a lock on the database's table map) once per run instead
    /// of once per write. Each write still flows through the full
    /// invalidation pipeline, and results are reported per-op in
    /// submission order.
    fn call_batch(&self, requests: Vec<Request>) -> Vec<Result<Response>> {
        let mut out = Vec::with_capacity(requests.len());
        let mut cached: Option<(String, Arc<Table>)> = None;
        for req in requests {
            if !req.is_write() {
                cached = None;
                out.push(self.call(req));
                continue;
            }
            // analyze: allow(unwrap-in-io-crate) is_write() variants all structurally carry a table name
            let table_name = req.table().expect("writes always carry a table").to_owned();
            let handle = match &cached {
                Some((name, t)) if *name == table_name => t.clone(),
                _ => {
                    // Inserts may create the table; other writes require it.
                    let resolved = if matches!(req, Request::Insert { .. }) {
                        Ok(self.database().create_table(&table_name))
                    } else {
                        self.database().table(&table_name)
                    };
                    match resolved {
                        Ok(t) => {
                            cached = Some((table_name.clone(), t.clone()));
                            t
                        }
                        Err(e) => {
                            cached = None;
                            out.push(Err(e));
                            continue;
                        }
                    }
                }
            };
            let result = match req {
                Request::Insert { id, doc, .. } => handle.insert(&id, doc),
                Request::Update { id, update, .. } => handle.update(&id, &update, None),
                Request::Replace { id, doc, .. } => handle.replace(&id, doc, None),
                Request::Delete { id, .. } => handle.delete(&id, None),
                _ => unreachable!("is_write() covers exactly the four write variants"),
            };
            out.push(result.map(|event| {
                self.after_write(&event);
                if matches!(event.kind, quaestor_store::WriteKind::Delete) {
                    Response::Deleted {
                        version: event.version,
                    }
                } else {
                    Response::Written {
                        version: event.version,
                        image: event.image,
                    }
                }
            }));
        }
        out
    }
}

/// The request kinds tracked by per-kind latency histograms, in slot
/// order ([`Request::kind`] strings).
const LATENCY_KINDS: [&str; 13] = [
    "get_record",
    "query",
    "insert",
    "update",
    "replace",
    "delete",
    "ebf_snapshot",
    "batch",
    "subscribe",
    "flush",
    "replication_status",
    "promote",
    "metrics",
];

fn latency_slot(kind: &str) -> Option<usize> {
    LATENCY_KINDS.iter().position(|k| *k == kind)
}

/// The static `service.*` span name for a request kind (span names are
/// `&'static str`; formatting one per call would allocate on the hot
/// path even with tracing off).
fn service_span_name(kind: &str) -> &'static str {
    match kind {
        "get_record" => "service.get_record",
        "query" => "service.query",
        "insert" => "service.insert",
        "update" => "service.update",
        "replace" => "service.replace",
        "delete" => "service.delete",
        "ebf_snapshot" => "service.ebf_snapshot",
        "batch" => "service.batch",
        "subscribe" => "service.subscribe",
        "flush" => "service.flush",
        "replication_status" => "service.replication_status",
        "promote" => "service.promote",
        "metrics" => "service.metrics",
        _ => "service.other",
    }
}

/// Per-kind call counters for a [`MetricsLayer`].
///
/// Every field is a registry handle: counters live on the layer's own
/// [`Registry`] under `service.*` names, latency histograms under
/// `service.latency.<kind>`, read through [`ServiceMetrics::registry`]
/// or a `Request::Metrics` call through the layer.
#[derive(Debug)]
pub struct ServiceMetrics {
    /// `GetRecord` calls.
    pub record_reads: Counter,
    /// `Query` calls.
    pub queries: Counter,
    /// Write calls (insert/update/replace/delete), top-level only.
    pub writes: Counter,
    /// `EbfSnapshot` calls.
    pub ebf_snapshots: Counter,
    /// `Batch` calls.
    pub batches: Counter,
    /// Total sub-requests carried by batches, counted recursively
    /// through nested batches (a nested batch contributes itself plus
    /// its contents).
    pub batched_ops: Counter,
    /// `Subscribe` calls.
    pub subscribes: Counter,
    /// `Flush` calls.
    pub flushes: Counter,
    /// Replication control-plane calls (`ReplicationStatus` + `Promote`).
    pub repl_controls: Counter,
    /// `Metrics` (registry snapshot) calls.
    pub metrics_requests: Counter,
    /// Calls that returned an error.
    pub errors: Counter,
    /// Per-request-kind call latency in **microseconds**, one slot per
    /// [`Request::kind`] (`LATENCY_KINDS` order). A fixed array of
    /// per-kind handles rather than one shared map: the hot path takes
    /// only the lock of the kind it records, so callers of different
    /// kinds never contend.
    latencies: [HistogramHandle; LATENCY_KINDS.len()],
    registry: Registry,
}

impl Default for ServiceMetrics {
    fn default() -> Self {
        let registry = Registry::new();
        ServiceMetrics {
            record_reads: registry.counter("service.record_reads"),
            queries: registry.counter("service.queries"),
            writes: registry.counter("service.writes"),
            ebf_snapshots: registry.counter("service.ebf_snapshots"),
            batches: registry.counter("service.batches"),
            batched_ops: registry.counter("service.batched_ops"),
            subscribes: registry.counter("service.subscribes"),
            flushes: registry.counter("service.flushes"),
            repl_controls: registry.counter("service.repl_controls"),
            metrics_requests: registry.counter("service.metrics_requests"),
            errors: registry.counter("service.errors"),
            latencies: std::array::from_fn(|i| {
                registry.histogram(&format!("service.latency.{}", LATENCY_KINDS[i]))
            }),
            registry,
        }
    }
}

impl ServiceMetrics {
    /// Total top-level calls observed.
    pub fn total_calls(&self) -> u64 {
        self.record_reads.get()
            + self.queries.get()
            + self.writes.get()
            + self.ebf_snapshots.get()
            + self.batches.get()
            + self.subscribes.get()
            + self.flushes.get()
            + self.repl_controls.get()
            + self.metrics_requests.get()
    }

    /// Record one call's latency under its request kind.
    pub fn record_latency(&self, kind: &str, micros: u64) {
        if let Some(slot) = latency_slot(kind) {
            self.latencies[slot].record(micros);
        }
    }

    /// The registry holding every `service.*` series of this instance.
    pub fn registry(&self) -> &Registry {
        &self.registry
    }
}

/// Middleware that counts requests flowing to an inner [`Service`].
pub struct MetricsLayer {
    inner: Arc<dyn Service>,
    metrics: ServiceMetrics,
}

impl std::fmt::Debug for MetricsLayer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("MetricsLayer")
            .field("calls", &self.metrics.total_calls())
            .finish()
    }
}

impl MetricsLayer {
    /// Wrap `inner`.
    pub fn new(inner: Arc<dyn Service>) -> Arc<MetricsLayer> {
        Arc::new(MetricsLayer {
            inner,
            metrics: ServiceMetrics::default(),
        })
    }

    /// Observed counters.
    pub fn metrics(&self) -> &ServiceMetrics {
        &self.metrics
    }
}

impl MetricsLayer {
    /// Count and time `req`, handing it to the inner service through
    /// `forward`.
    fn observe(
        &self,
        req: Request,
        forward: impl FnOnce(&dyn Service, Request) -> Result<Response>,
    ) -> Result<Response> {
        let kind = req.kind();
        let _span = quaestor_obs::span(service_span_name(kind));
        let counter = match &req {
            Request::GetRecord { .. } => &self.metrics.record_reads,
            Request::Query(_) => &self.metrics.queries,
            Request::Insert { .. }
            | Request::Update { .. }
            | Request::Replace { .. }
            | Request::Delete { .. } => &self.metrics.writes,
            Request::EbfSnapshot { .. } => &self.metrics.ebf_snapshots,
            Request::Batch(ops) => {
                fn count_ops(ops: &[Request]) -> u64 {
                    ops.iter()
                        .map(|op| match op {
                            Request::Batch(inner) => 1 + count_ops(inner),
                            _ => 1,
                        })
                        .sum()
                }
                self.metrics.batched_ops.add(count_ops(ops));
                &self.metrics.batches
            }
            Request::Subscribe { .. } => &self.metrics.subscribes,
            Request::Flush => &self.metrics.flushes,
            Request::ReplicationStatus | Request::Promote { .. } => &self.metrics.repl_controls,
            Request::Metrics => &self.metrics.metrics_requests,
        };
        counter.inc();
        let started = Instant::now();
        let result = forward(&*self.inner, req);
        self.metrics
            .record_latency(kind, started.elapsed().as_micros() as u64);
        if result.is_err() {
            self.metrics.errors.inc();
        }
        // A metrics snapshot flowing through this layer picks up the
        // layer's own `service.*` series — one request reports the whole
        // stack, however it is composed.
        match result {
            Ok(Response::Metrics(mut snap)) => {
                snap.merge_prefixed("", self.metrics.registry.snapshot());
                Ok(Response::Metrics(snap))
            }
            other => other,
        }
    }
}

impl Service for MetricsLayer {
    fn call(&self, req: Request) -> Result<Response> {
        self.observe(req, |inner, req| inner.call(req))
    }

    fn call_if_reachable(&self, req: Request) -> Result<Response> {
        self.observe(req, |inner, req| inner.call_if_reachable(req))
    }
}

/// A shared-nothing cluster front: hash-partitions *tables* across N
/// origin nodes. Every request with a table routes to the owning shard;
/// flat EBF snapshots fan out to all shards and union the filters;
/// batches split per shard (preserving per-shard order, so each shard
/// still gets the batch write fast path) and reassemble results in
/// submission order.
pub struct ShardRouter {
    shards: Vec<Arc<dyn Service>>,
}

impl std::fmt::Debug for ShardRouter {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShardRouter")
            .field("shards", &self.shards.len())
            .finish()
    }
}

impl ShardRouter {
    /// Build a router over `shards` (at least one).
    pub fn new(shards: Vec<Arc<dyn Service>>) -> Arc<ShardRouter> {
        assert!(!shards.is_empty(), "ShardRouter needs at least one shard");
        Arc::new(ShardRouter { shards })
    }

    /// Number of shards.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    /// The shard index owning `table` (stable across calls and processes:
    /// keyed by the workspace's stable hash with avalanche finalization).
    pub fn shard_for(&self, table: &str) -> usize {
        stable_bucket(table.as_bytes(), self.shards.len() as u64) as usize
    }

    fn fan_out_ebf(&self) -> Result<Response> {
        let mut union: Option<(BloomFilter, Timestamp)> = None;
        for shard in &self.shards {
            let (filter, at) = shard.fetch_ebf()?;
            union = Some(match union {
                None => (filter, at),
                Some((mut acc, acc_at)) => {
                    // Union is only defined across identical geometries
                    // (`union_with` asserts); a misconfigured cluster must
                    // surface as a protocol error, not a panic.
                    if acc.params() != filter.params() {
                        return Err(Error::Internal(format!(
                            "EBF geometry mismatch across shards: {:?} vs {:?} — \
                             all shards must share BloomParams",
                            acc.params(),
                            filter.params()
                        )));
                    }
                    acc.union_with(&filter);
                    // The *oldest* generation bounds the client's Δ, so it
                    // is the honest timestamp for the union.
                    (acc, acc_at.min(at))
                }
            });
        }
        // analyze: allow(unwrap-in-io-crate) shard count is asserted nonzero at construction
        let (filter, at) = union.expect("at least one shard");
        Ok(Response::Ebf { filter, at })
    }

    /// Merge every shard's registry snapshot under a `shard<i>.` prefix
    /// — one `Metrics` request observes the whole cluster.
    fn fan_out_metrics(&self) -> Result<Response> {
        let mut merged = MetricsSnapshot::default();
        for (i, shard) in self.shards.iter().enumerate() {
            match shard.call(Request::Metrics)? {
                Response::Metrics(snap) => merged.merge_prefixed(&format!("shard{i}."), snap),
                other => return Err(unexpected("Metrics", &other)),
            }
        }
        Ok(Response::Metrics(merged))
    }

    /// A flush must drain **every** shard's log before the cluster can
    /// claim durability; report the minimum durable LSN — the honest
    /// cluster-wide bound (LSNs are per-shard sequences, so any scalar is
    /// a convention; the minimum never overstates).
    fn fan_out_flush(&self) -> Result<Response> {
        let mut lsn = u64::MAX;
        for shard in &self.shards {
            lsn = lsn.min(shard.flush()?);
        }
        Ok(Response::Flushed { lsn })
    }

    fn split_batch(&self, requests: Vec<Request>) -> Result<Response> {
        let mut slots: Vec<Option<Result<Response>>> = Vec::new();
        slots.resize_with(requests.len(), || None);
        let mut pending: Vec<Vec<(usize, Request)>> = vec![Vec::new(); self.shards.len()];
        for (pos, req) in requests.into_iter().enumerate() {
            match req.table() {
                // Routable sub-requests accumulate into per-shard runs
                // (preserving per-shard order, so each shard still gets
                // the batch write fast path). Requests on different
                // shards touch disjoint tables, so only their relative
                // order to *global* requests below can be observed.
                Some(table) => pending[self.shard_for(table)].push((pos, req)),
                // Table-less sub-requests (nested batches, flat EBF
                // snapshots) observe every shard, so they are a barrier:
                // flush all accumulated runs first, exactly matching the
                // strict submission order a single node would execute.
                None => {
                    self.flush_pending(&mut pending, &mut slots)?;
                    slots[pos] = Some(self.call(req));
                }
            }
        }
        self.flush_pending(&mut pending, &mut slots)?;
        Ok(Response::Batch(
            slots
                .into_iter()
                // analyze: allow(unwrap-in-io-crate) flush_pending fills every slot exactly once by construction
                .map(|s| s.expect("every position filled exactly once"))
                .collect(),
        ))
    }

    /// Dispatch every accumulated per-shard run and file the results into
    /// their submission-order slots.
    fn flush_pending(
        &self,
        pending: &mut [Vec<(usize, Request)>],
        slots: &mut [Option<Result<Response>>],
    ) -> Result<()> {
        for (shard, work) in self.shards.iter().zip(pending.iter_mut()) {
            if work.is_empty() {
                continue;
            }
            let (positions, reqs): (Vec<usize>, Vec<Request>) =
                std::mem::take(work).into_iter().unzip();
            let results = shard.batch(reqs)?;
            if results.len() != positions.len() {
                return Err(Error::Internal(format!(
                    "shard returned {} batch results for {} requests",
                    results.len(),
                    positions.len()
                )));
            }
            for (pos, result) in positions.into_iter().zip(results) {
                slots[pos] = Some(result);
            }
        }
        Ok(())
    }
}

impl ShardRouter {
    /// Route `req`: a single-table request goes to its shard through
    /// `forward`; batches and fan-outs, which wait on every shard, use
    /// `call`.
    fn route(
        &self,
        req: Request,
        forward: impl FnOnce(&dyn Service, Request) -> Result<Response>,
    ) -> Result<Response> {
        let _span = quaestor_obs::span("router.route");
        match req {
            Request::Batch(requests) => self.split_batch(requests),
            Request::EbfSnapshot { table: None } => self.fan_out_ebf(),
            Request::Flush => self.fan_out_flush(),
            Request::Metrics => self.fan_out_metrics(),
            req => match req.table() {
                Some(table) => forward(&*self.shards[self.shard_for(table)], req),
                None => Err(Error::BadRequest(format!(
                    "cannot route table-less request '{}'",
                    req.kind()
                ))),
            },
        }
    }
}

impl Service for ShardRouter {
    fn call(&self, req: Request) -> Result<Response> {
        self.route(req, |shard, req| shard.call(req))
    }

    fn call_if_reachable(&self, req: Request) -> Result<Response> {
        self.route(req, |shard, req| shard.call_if_reachable(req))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_common::ManualClock;
    use quaestor_document::{doc, Value};
    use quaestor_query::Filter;

    fn server() -> Arc<QuaestorServer> {
        QuaestorServer::with_defaults(ManualClock::new())
    }

    #[test]
    fn request_table_routing_keys() {
        let q = Request::Query(Query::table("posts"));
        assert_eq!(q.table(), Some("posts"));
        let w = Request::Insert {
            table: "users".into(),
            id: "u1".into(),
            doc: doc! {},
        };
        assert_eq!(w.table(), Some("users"));
        assert!(w.is_write());
        let s = Request::Subscribe {
            key: QueryKey::record("orders", "o1"),
        };
        assert_eq!(s.table(), Some("orders"));
        assert_eq!(Request::EbfSnapshot { table: None }.table(), None);
        assert_eq!(Request::Batch(Vec::new()).table(), None);
    }

    #[test]
    fn server_roundtrips_each_variant() {
        let s = server();
        let svc: &dyn Service = &*s;
        let (v, image) = svc.insert("t", "a", doc! { "n" => 1 }).unwrap();
        assert_eq!(v, 1);
        assert_eq!(image["n"], Value::Int(1));
        let r = svc.get_record("t", "a").unwrap();
        assert_eq!(r.etag, 1);
        let (v2, _) = svc.update("t", "a", &Update::new().inc("n", 1.0)).unwrap();
        assert_eq!(v2, 2);
        let (v3, image) = svc.replace("t", "a", doc! { "n" => 9 }).unwrap();
        assert_eq!(v3, 3);
        assert_eq!(image["n"], Value::Int(9));
        let q = Query::table("t").filter(Filter::eq("n", 9));
        let qr = svc.query(&q).unwrap();
        assert_eq!(qr.ids, vec!["a"]);
        let (ebf, _) = svc.fetch_ebf().unwrap();
        assert!(!ebf.contains(b"nothing-stale-here"));
        let sub = svc.subscribe(&QueryKey::of(&q)).unwrap();
        assert_eq!(svc.delete("t", "a").unwrap(), 3);
        assert!(sub.try_recv().is_some(), "delete notified the stream");
        assert!(svc.get_record("t", "a").is_err());
    }

    #[test]
    fn batch_applies_in_order_with_per_op_results() {
        let s = server();
        let svc: &dyn Service = &*s;
        let results = svc
            .batch(vec![
                Request::Insert {
                    table: "t".into(),
                    id: "a".into(),
                    doc: doc! { "n" => 1 },
                },
                Request::Update {
                    table: "t".into(),
                    id: "a".into(),
                    update: Update::new().inc("n", 1.0),
                },
                Request::Delete {
                    table: "t".into(),
                    id: "missing".into(),
                },
                Request::GetRecord {
                    table: "t".into(),
                    id: "a".into(),
                },
            ])
            .unwrap();
        assert_eq!(results.len(), 4);
        assert!(matches!(
            results[0],
            Ok(Response::Written { version: 1, .. })
        ));
        assert!(matches!(
            results[1],
            Ok(Response::Written { version: 2, .. })
        ));
        assert!(matches!(results[2], Err(Error::NotFound { .. })));
        match &results[3] {
            Ok(Response::Record(r)) => {
                // Ordering: the read observes the earlier update.
                assert_eq!(r.doc["n"], Value::Int(2));
            }
            other => panic!("expected record, got {other:?}"),
        }
    }

    #[test]
    fn batch_writes_drive_the_invalidation_pipeline() {
        let s = server();
        let svc: &dyn Service = &*s;
        svc.insert("t", "a", doc! { "tag" => "hot" }).unwrap();
        let q = Query::table("t").filter(Filter::eq("tag", "hot"));
        svc.query(&q).unwrap();
        svc.batch(vec![Request::Update {
            table: "t".into(),
            id: "a".into(),
            update: Update::new().set("tag", "cold"),
        }])
        .unwrap();
        let (flat, _) = svc.fetch_ebf().unwrap();
        assert!(
            flat.contains(QueryKey::of(&q).as_str().as_bytes()),
            "batched write must invalidate like a singleton write"
        );
    }

    #[test]
    fn flush_routes_through_service_and_router() {
        // In-memory single node: flush is the LSN-0 no-op.
        let s = server();
        let svc: &dyn Service = &*s;
        assert_eq!(svc.flush().unwrap(), 0);
        assert_eq!(Request::Flush.table(), None, "flush is table-less");
        assert!(!Request::Flush.is_write());
        // Routed: fans out to every shard (all in-memory here -> min 0),
        // and inside a batch it acts as a barrier like other table-less
        // requests.
        let (router, _servers) = cluster(2);
        let svc: &dyn Service = &*router;
        assert_eq!(svc.flush().unwrap(), 0);
        let results = svc
            .batch(vec![
                Request::Insert {
                    table: "t".into(),
                    id: "a".into(),
                    doc: doc! { "n" => 1 },
                },
                Request::Flush,
            ])
            .unwrap();
        assert!(matches!(results[0], Ok(Response::Written { .. })));
        assert!(matches!(results[1], Ok(Response::Flushed { .. })));
    }

    #[test]
    fn plain_server_answers_replication_status_and_refuses_promote() {
        let s = server();
        let svc: &dyn Service = &*s;
        let status = svc.replication_status().unwrap();
        assert_eq!(status.role, ReplRole::Standalone);
        assert_eq!(status.epoch, 0);
        assert_eq!((status.last_lsn, status.durable_lsn), (0, 0), "in-memory");
        let err = svc.promote(1).unwrap_err();
        assert!(matches!(err, Error::BadRequest(_)), "got: {err}");
        assert_eq!(Request::ReplicationStatus.table(), None);
        assert_eq!(Request::Promote { epoch: 1 }.table(), None);
        assert!(!Request::ReplicationStatus.is_write());
        assert!(!Request::Promote { epoch: 1 }.is_write());
    }

    #[test]
    fn metrics_layer_counts_by_kind() {
        let s = server();
        let layer = MetricsLayer::new(s);
        let svc: &dyn Service = &*layer;
        svc.insert("t", "a", doc! { "n" => 1 }).unwrap();
        svc.get_record("t", "a").unwrap();
        let _ = svc.get_record("t", "missing");
        svc.query(&Query::table("t")).unwrap();
        svc.batch(vec![
            Request::GetRecord {
                table: "t".into(),
                id: "a".into(),
            },
            Request::GetRecord {
                table: "t".into(),
                id: "a".into(),
            },
        ])
        .unwrap();
        let m = layer.metrics();
        assert_eq!(m.writes.get(), 1);
        assert_eq!(m.record_reads.get(), 2);
        assert_eq!(m.queries.get(), 1);
        assert_eq!(m.batches.get(), 1);
        assert_eq!(m.batched_ops.get(), 2);
        assert_eq!(m.errors.get(), 1);
        assert_eq!(m.total_calls(), 5);
    }

    #[test]
    fn metrics_layer_records_per_kind_latency() {
        let s = server();
        let layer = MetricsLayer::new(s);
        let svc: &dyn Service = &*layer;
        for i in 0..10 {
            svc.insert("t", &format!("r{i}"), doc! { "n" => i })
                .unwrap();
        }
        svc.get_record("t", "r0").unwrap();
        let snap = layer.metrics().registry().snapshot();
        let inserts = snap.histogram("service.latency.insert").unwrap();
        assert_eq!(inserts.count, 10);
        assert!(inserts.p50 <= inserts.p95 && inserts.p95 <= inserts.p99);
        let count = |kind: &str| {
            snap.histogram(&format!("service.latency.{kind}"))
                .unwrap()
                .count
        };
        assert_eq!(count("get_record"), 1);
        assert_eq!(count("query"), 0, "no queries ran");
    }

    #[test]
    fn metrics_request_snapshots_the_unified_registry() {
        let s = server();
        let layer = MetricsLayer::new(s);
        let svc: &dyn Service = &*layer;
        svc.insert("t", "a", doc! { "n" => 1 }).unwrap();
        svc.get_record("t", "a").unwrap();
        let snap = svc.node_metrics().unwrap();
        // The snapshot unifies the origin's counters and the layer's own
        // series in one response.
        assert_eq!(snap.counter("server.writes"), Some(1));
        assert_eq!(snap.counter("service.writes"), Some(1));
        assert_eq!(snap.counter("service.record_reads"), Some(1));
        assert!(snap.histogram("service.latency.insert").unwrap().count >= 1);
        assert!(snap.render_text().starts_with("# quaestor metrics v1\n"));
        // `Metrics` requests count like any other call kind.
        svc.node_metrics().unwrap();
        assert_eq!(layer.metrics().metrics_requests.get(), 2);
        assert_eq!(layer.metrics().total_calls(), 4);
    }

    #[test]
    fn metrics_fan_out_prefixes_per_shard_series() {
        let (router, _servers) = cluster(2);
        let svc: &dyn Service = &*router;
        svc.insert("t", "a", doc! { "n" => 1 }).unwrap();
        let shard = router.shard_for("t");
        let snap = svc.node_metrics().unwrap();
        assert_eq!(
            snap.counter(&format!("shard{shard}.server.writes")),
            Some(1)
        );
        assert_eq!(
            snap.counter(&format!("shard{}.server.writes", 1 - shard)),
            Some(0)
        );
    }

    fn cluster(n: usize) -> (Arc<ShardRouter>, Vec<Arc<QuaestorServer>>) {
        let clock = ManualClock::new();
        let servers: Vec<Arc<QuaestorServer>> = (0..n)
            .map(|_| QuaestorServer::with_defaults(clock.clone()))
            .collect();
        let router = ShardRouter::new(
            servers
                .iter()
                .map(|s| s.clone() as Arc<dyn Service>)
                .collect(),
        );
        (router, servers)
    }

    #[test]
    fn table_less_requests_are_ordering_barriers_in_routed_batches() {
        let (router, _servers) = cluster(2);
        let svc: &dyn Service = &*router;
        // Warm the EBF residency for the record, then batch an
        // invalidating update followed by a flat EBF snapshot: the
        // snapshot must observe the update, exactly as on a single node.
        svc.insert("t", "x", doc! { "n" => 1 }).unwrap();
        svc.get_record("t", "x").unwrap();
        let results = svc
            .batch(vec![
                Request::Update {
                    table: "t".into(),
                    id: "x".into(),
                    update: Update::new().inc("n", 1.0),
                },
                Request::EbfSnapshot { table: None },
            ])
            .unwrap();
        match &results[1] {
            Ok(Response::Ebf { filter, .. }) => assert!(
                filter.contains(QueryKey::record("t", "x").as_str().as_bytes()),
                "the in-batch snapshot must see the earlier in-batch write"
            ),
            other => panic!("expected Ebf, got {other:?}"),
        }
        // Nested batches barrier too: the inner read sees the outer
        // insert that precedes it.
        let results = svc
            .batch(vec![
                Request::Insert {
                    table: "t".into(),
                    id: "y".into(),
                    doc: doc! { "n" => 7 },
                },
                Request::Batch(vec![Request::GetRecord {
                    table: "t".into(),
                    id: "y".into(),
                }]),
            ])
            .unwrap();
        match &results[1] {
            Ok(Response::Batch(inner)) => match &inner[0] {
                Ok(Response::Record(r)) => assert_eq!(r.doc["n"], Value::Int(7)),
                other => panic!("nested read must see the insert, got {other:?}"),
            },
            other => panic!("expected nested batch, got {other:?}"),
        }
    }

    #[test]
    fn heterogeneous_ebf_geometry_is_an_error_not_a_panic() {
        let clock = ManualClock::new();
        let odd_cfg = crate::config::ServerConfig {
            bloom: quaestor_bloom::BloomParams { m_bits: 512, k: 3 },
            ..Default::default()
        };
        let odd = QuaestorServer::new(
            quaestor_store::Database::with_clock(clock.clone()),
            odd_cfg,
            clock.clone(),
        );
        let normal = QuaestorServer::with_defaults(clock.clone());
        let router = ShardRouter::new(vec![odd as Arc<dyn Service>, normal as Arc<dyn Service>]);
        let err = router.fetch_ebf().unwrap_err();
        assert!(err.to_string().contains("geometry mismatch"), "got: {err}");
    }

    #[test]
    fn shard_routing_is_stable_and_spreads_tables() {
        let (router, _servers) = cluster(4);
        for table in ["posts", "users", "orders", "events"] {
            let first = router.shard_for(table);
            for _ in 0..10 {
                assert_eq!(router.shard_for(table), first, "routing must be stable");
            }
        }
        let distinct: std::collections::HashSet<usize> = (0..64)
            .map(|i| router.shard_for(&format!("table{i}")))
            .collect();
        assert!(
            distinct.len() > 1,
            "64 tables must not all hash to one shard"
        );
    }

    #[test]
    fn sharded_data_lands_only_on_the_owner() {
        let (router, servers) = cluster(2);
        let svc: &dyn Service = &*router;
        for i in 0..20 {
            let table = format!("t{i}");
            svc.insert(&table, "x", doc! { "i" => i as i64 }).unwrap();
            let owner = router.shard_for(&table);
            assert_eq!(servers[owner].database().total_records(), {
                // Count tables owned by this shard so far.
                (0..=i)
                    .filter(|j| router.shard_for(&format!("t{j}")) == owner)
                    .count()
            });
            assert!(
                servers[1 - owner].database().table(&table).is_err(),
                "non-owner shard must never see the table"
            );
            // And reads route back to the same place.
            assert_eq!(
                svc.get_record(&table, "x").unwrap().doc["i"],
                Value::Int(i as i64)
            );
        }
    }

    #[test]
    fn cross_shard_batch_fans_out_and_reassembles_in_order() {
        let (router, servers) = cluster(2);
        let svc: &dyn Service = &*router;
        // Find two tables living on different shards.
        let t0 = (0..32)
            .map(|i| format!("a{i}"))
            .find(|t| router.shard_for(t) == 0)
            .unwrap();
        let t1 = (0..32)
            .map(|i| format!("b{i}"))
            .find(|t| router.shard_for(t) == 1)
            .unwrap();
        let mut reqs = Vec::new();
        for i in 0..10i64 {
            let table = if i % 2 == 0 { &t0 } else { &t1 };
            reqs.push(Request::Insert {
                table: table.clone(),
                id: format!("r{i}"),
                doc: doc! { "i" => i },
            });
        }
        let results = svc.batch(reqs).unwrap();
        assert_eq!(results.len(), 10);
        for r in &results {
            assert!(matches!(r, Ok(Response::Written { version: 1, .. })));
        }
        assert_eq!(servers[0].database().total_records(), 5);
        assert_eq!(servers[1].database().total_records(), 5);
        // Flat EBF fan-out: make a key stale on shard 1, observe it
        // through the router's union.
        svc.get_record(&t1, "r1").unwrap();
        svc.update(&t1, "r1", &Update::new().inc("i", 10.0))
            .unwrap();
        let (flat, _) = svc.fetch_ebf().unwrap();
        assert!(flat.contains(QueryKey::record(&t1, "r1").as_str().as_bytes()));
    }

    /// Answers every request with an error naming the method it came in
    /// through.
    struct MethodProbe;

    impl Service for MethodProbe {
        fn call(&self, _req: Request) -> Result<Response> {
            Err(Error::Internal("call".into()))
        }

        fn call_if_reachable(&self, _req: Request) -> Result<Response> {
            Err(Error::Internal("call_if_reachable".into()))
        }
    }

    fn method_of(result: Result<Response>) -> String {
        match result {
            Err(Error::Internal(method)) => method,
            other => panic!("the probe answers with its method, got {other:?}"),
        }
    }

    #[test]
    fn metrics_layer_counts_and_forwards_call_if_reachable() {
        let layer = MetricsLayer::new(Arc::new(MethodProbe));
        let get = || Request::GetRecord {
            table: "t".into(),
            id: "a".into(),
        };
        assert_eq!(
            method_of(layer.call_if_reachable(get())),
            "call_if_reachable"
        );
        assert_eq!(method_of(layer.call(get())), "call");
        assert_eq!(layer.metrics().record_reads.get(), 2);
        assert_eq!(layer.metrics().errors.get(), 2);
    }

    #[test]
    fn shard_router_forwards_call_if_reachable_for_single_table_requests() {
        let router = ShardRouter::new(vec![Arc::new(MethodProbe), Arc::new(MethodProbe)]);
        for table in ["a", "b", "c", "d"] {
            let get = Request::GetRecord {
                table: table.into(),
                id: "x".into(),
            };
            assert_eq!(
                method_of(router.call_if_reachable(get)),
                "call_if_reachable"
            );
        }
        // A batch waits on every shard it touches, through `call`'s split.
        let batch = Request::Batch(vec![Request::GetRecord {
            table: "a".into(),
            id: "x".into(),
        }]);
        assert_eq!(method_of(router.call_if_reachable(batch)), "call");
        // A fan-out likewise.
        assert_eq!(method_of(router.call_if_reachable(Request::Flush)), "call");
    }
}
