//! The Quaestor origin server.

use std::sync::Arc;

use parking_lot::RwLock;
use quaestor_bloom::{BloomFilter, PartitionedEbf};
use quaestor_common::{ClockRef, Error, Result, SystemClock, Timestamp};
use quaestor_document::{Document, Update};
use quaestor_durability::{DurabilityConfig, DurabilityEngine, WalRecord};
use quaestor_invalidb::{InvaliDbCluster, Notification};
use quaestor_query::{Query, QueryKey};
use quaestor_store::{Database, IndexKind, WriteEvent};
use quaestor_ttl::{
    ActiveList, AdmissionDecision, CapacityManager, CostModel, QueryState, Representation,
    TtlEstimator, WriteRateSampler,
};
use quaestor_webcache::InvalidationCache;

use crate::config::ServerConfig;
use crate::metrics::ServerMetrics;
use crate::response::{result_etag, QueryResponse, RecordResponse};

/// Write-rate sampling window: a record's rate counts its writes of the
/// last minute.
const SAMPLER_WINDOW_MS: u64 = 60_000;

/// Write timestamps the sampler keeps per record.
const SAMPLER_MAX_SAMPLES: usize = 32;

/// Per-record cache hit rate the representation cost model assumes: the
/// paper measured client cache hit rates of "up to 60% for records".
const ASSUMED_RECORD_HIT_RATE: f64 = 0.6;

/// The origin server of Figure 3: database service + cache coherence
/// machinery.
///
/// Thread-safe; one instance stands for the server tier and concurrency
/// is exercised by threads.
pub struct QuaestorServer {
    config: ServerConfig,
    db: Arc<Database>,
    ebf: PartitionedEbf,
    estimator: TtlEstimator,
    sampler: WriteRateSampler,
    active: ActiveList,
    capacity: CapacityManager,
    cost: CostModel,
    invalidb: InvaliDbCluster,
    /// Invalidation-based caches (CDN edges / reverse proxies) the server
    /// purges asynchronously.
    cdns: RwLock<Vec<Arc<InvalidationCache>>>,
    /// Per-query change streams clients can subscribe to (§3.2).
    streams: Arc<quaestor_kv::PubSub>,
    /// The write-ahead log + snapshot engine, when this server was opened
    /// from (or bound to) a durability directory. `None` = in-memory.
    durability: Option<Arc<DurabilityEngine>>,
    /// Replica mode: the WAL is fed exclusively by replicated frames from
    /// the primary ([`apply_replicated`](Self::apply_replicated)), so the
    /// server must never append frames of its own — a locally assigned
    /// LSN would collide with the primary's stream and silently shadow a
    /// shipped frame. Flipped off by [`promote`](Self::promote).
    replica: std::sync::atomic::AtomicBool,
    clock: ClockRef,
    metrics: ServerMetrics,
}

impl std::fmt::Debug for QuaestorServer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuaestorServer")
            .field("active_queries", &self.active.len())
            .finish_non_exhaustive()
    }
}

impl QuaestorServer {
    /// Build a server over an existing database.
    pub fn new(db: Arc<Database>, config: ServerConfig, clock: ClockRef) -> Arc<QuaestorServer> {
        Arc::new(Self::build(db, config, clock, None))
    }

    fn build(
        db: Arc<Database>,
        config: ServerConfig,
        clock: ClockRef,
        durability: Option<Arc<DurabilityEngine>>,
    ) -> QuaestorServer {
        let metrics = ServerMetrics::new(db.query_stats());
        if let Some(engine) = &durability {
            let stats = engine.stats();
            let registry = metrics.registry();
            registry.bind_counter("durability.fsyncs", &stats.fsyncs);
            registry.bind_counter("durability.frames_written", &stats.frames_written);
        }
        QuaestorServer {
            ebf: PartitionedEbf::new(config.bloom, clock.clone()),
            estimator: TtlEstimator::new(config.estimator),
            sampler: WriteRateSampler::new(SAMPLER_WINDOW_MS, SAMPLER_MAX_SAMPLES),
            active: ActiveList::new(16),
            capacity: CapacityManager::new(config.max_cached_queries),
            cost: config.cost,
            invalidb: InvaliDbCluster::default(),
            cdns: RwLock::new(Vec::new()),
            streams: quaestor_kv::PubSub::new(),
            durability,
            replica: std::sync::atomic::AtomicBool::new(false),
            clock,
            metrics,
            config,
            db,
        }
    }

    /// A server with default config over a fresh database (tests/examples).
    pub fn with_defaults(clock: ClockRef) -> Arc<QuaestorServer> {
        let db = Database::with_clock(clock.clone());
        Self::new(db, ServerConfig::default(), clock)
    }

    /// Open a **durable** server with default configuration: recover
    /// state from `path` (creating the directory on first open), then
    /// write-ahead-log every subsequent write there.
    pub fn open(path: impl AsRef<std::path::Path>) -> Result<Arc<QuaestorServer>> {
        Self::open_with(
            path,
            ServerConfig::default(),
            DurabilityConfig::default(),
            SystemClock::shared(),
        )
    }

    /// [`open`](Self::open) with explicit configuration. Recovery fully
    /// completes *before* the server can serve: tables are restored from
    /// the newest snapshot plus WAL replay, recovered queries are
    /// re-registered with InvaliDB (so invalidation detection resumes),
    /// and replayed delete tombstones warm-start the EBF sketch (caches
    /// out there may still hold those records — mark them stale rather
    /// than hope their TTLs were short).
    pub fn open_with(
        path: impl AsRef<std::path::Path>,
        config: ServerConfig,
        durability: DurabilityConfig,
        clock: ClockRef,
    ) -> Result<Arc<QuaestorServer>> {
        let (engine, recovery) = DurabilityEngine::open(path, durability)?;
        let db = Database::with_clock(clock.clone());
        let meta = recovery.restore(&db)?;
        let server = Arc::new(Self::build(db, config, clock, Some(engine.clone())));
        // The EBF's read ledger died with the old process, so a plain
        // invalidate would no-op ("no cached copy can exist"). After a
        // crash that reasoning is wrong for deleted records: some cache
        // may hold them from before. Re-seed residency with the worst
        // case — any pre-crash copy was served with at most the
        // estimator's TTL ceiling — then invalidate, so the sketch
        // carries each tombstone until every possible copy has expired.
        let warm_ttl = server.config.estimator.max_ttl_ms;
        for (table, id) in &meta.tombstones {
            let key = QueryKey::record(table, id);
            server.ebf.report_read(table, key.as_str(), warm_ttl);
            server.ebf.invalidate(table, key.as_str());
        }
        for query in meta.queries {
            server.reregister_recovered(query)?;
        }
        // Attach the sink only now: replayed writes and recovery-time
        // bookkeeping must never be re-logged.
        server.db.attach_sink(engine);
        Ok(server)
    }

    /// Open a durable server in **replica mode**: recover exactly like
    /// [`open_with`](Self::open_with), but leave the durability sink
    /// detached and suppress every self-appended frame. The WAL is fed
    /// exclusively through [`apply_replicated`](Self::apply_replicated)
    /// by a replication session, so every LSN on disk is the primary's
    /// LSN — which is what makes duplicate frame delivery and
    /// reconnection re-sends no-ops by construction. Reads (including
    /// cacheable queries, EBF reporting and InvaliDB registration for
    /// *local* readers) work normally; writes must be rejected upstream
    /// by the replication layer. [`promote`](Self::promote) turns the
    /// server into a logging primary in place.
    pub fn open_replica_with(
        path: impl AsRef<std::path::Path>,
        config: ServerConfig,
        durability: DurabilityConfig,
        clock: ClockRef,
    ) -> Result<Arc<QuaestorServer>> {
        let (engine, recovery) = DurabilityEngine::open(path, durability)?;
        let db = Database::with_clock(clock.clone());
        let meta = recovery.restore(&db)?;
        let server = Arc::new(Self::build(db, config, clock, Some(engine)));
        server
            .replica
            .store(true, std::sync::atomic::Ordering::Release);
        let warm_ttl = server.config.estimator.max_ttl_ms;
        for (table, id) in &meta.tombstones {
            let key = QueryKey::record(table, id);
            server.ebf.report_read(table, key.as_str(), warm_ttl);
            server.ebf.invalidate(table, key.as_str());
        }
        for query in meta.queries {
            server.reregister_recovered(query)?;
        }
        // No attach_sink: the replica's log is written by append_replicated.
        Ok(server)
    }

    /// True while this server is a replica (self-logging suppressed).
    pub fn is_replica(&self) -> bool {
        self.replica.load(std::sync::atomic::Ordering::Acquire)
    }

    /// Promote a replica to primary: attach the durability sink so local
    /// writes are logged (continuing the LSN sequence the replica applied
    /// up to) and re-enable query-set logging. Idempotent; a no-op on a
    /// server that is already a primary.
    pub fn promote(&self) {
        if !self
            .replica
            .swap(false, std::sync::atomic::Ordering::AcqRel)
        {
            return;
        }
        if let Some(engine) = &self.durability {
            self.db.attach_sink(engine.clone());
        }
    }

    /// Apply one replicated WAL record to the served state, driving the
    /// same invalidation pipeline a local write would (EBF, InvaliDB,
    /// purges, change streams) — replica lag is cache age, so the EBF
    /// bound applies to replica reads verbatim. Returns `true` if the
    /// record changed state, `false` for stale duplicates (version-keyed
    /// replay makes re-delivery a no-op). Frame persistence is separate:
    /// the replication session appends to the WAL via
    /// [`DurabilityEngine::append_replicated`] *before* applying here.
    pub fn apply_replicated(&self, record: &WalRecord) -> Result<bool> {
        match record {
            WalRecord::Write {
                table,
                id,
                kind,
                image,
                version,
                seq,
                at,
            } => {
                let t = self.db.create_table(table);
                let applied = t.apply_recovered_write(
                    *kind,
                    id,
                    Arc::new(image.clone()),
                    *version,
                    *seq,
                    Timestamp::from_millis(*at),
                );
                if applied {
                    if let Some(event) = record.to_event() {
                        self.after_write(&event);
                    }
                }
                Ok(applied)
            }
            WalRecord::CreateTable { table } => {
                self.db.create_table(table);
                Ok(true)
            }
            // The primary's query registrations are bookkeeping for *its*
            // recovery; a replica serves its own readers and registers
            // their queries itself.
            WalRecord::RegisterQuery { .. } | WalRecord::DeregisterQuery { .. } => Ok(false),
        }
    }

    /// Re-activate one recovered query. Admission is re-run (capacity may
    /// have shrunk across the restart); a query that no longer fits is
    /// dropped from the durable set instead of failing the open.
    fn reregister_recovered(&self, query: Query) -> Result<()> {
        let key = QueryKey::of(&query);
        match self.capacity.request_admission(&key) {
            AdmissionDecision::Admitted => {}
            AdmissionDecision::AdmittedEvicting(victim) => self.evict_query(&victim)?,
            AdmissionDecision::Rejected => {
                // Not re-registered: drop it from the durable set so the
                // next recovery does not retry a query this deployment
                // cannot hold. (Replicas never self-append: their LSNs
                // must stay the primary's.)
                if !self.is_replica() {
                    if let Some(d) = &self.durability {
                        d.log_deregister_query(&key)?;
                    }
                }
                return Ok(());
            }
        }
        self.db.create_table(&query.table);
        let mark = self.invalidb.ingest_mark();
        let initial = if query.is_stateful() {
            let mut unwindowed = query.clone();
            unwindowed.limit = None;
            unwindowed.offset = 0;
            self.db.query(&unwindowed)?
        } else {
            self.db.query(&query)?
        };
        // Nothing serves yet, so no write can have raced the evaluation:
        // the replay has nothing to report.
        self.invalidb.register_query(&query, &key, &initial, mark);
        // Warm EBF residency: caches may hold this query's pre-crash
        // result, and the read ledger died with the old process. Assume
        // the worst-case TTL so future invalidations of those copies reach
        // the sketch.
        self.ebf
            .report_read(&query.table, key.as_str(), self.config.estimator.max_ttl_ms);
        Ok(())
    }

    /// The underlying database (for loading data and direct inspection).
    pub fn database(&self) -> &Arc<Database> {
        &self.db
    }

    /// Declare a secondary index for `table`'s `path` (idempotent),
    /// creating the table if it does not exist yet. On a durable server
    /// this is the post-[`open`](Self::open) registration hook: recovery
    /// rebuilds tables *before* the application runs, so declaring here
    /// indexes the recovered data immediately — and the declaration
    /// sticks to any table of that name created later (schemaless
    /// auto-creation included).
    pub fn declare_index(
        &self,
        table: &str,
        path: impl Into<quaestor_document::Path>,
        kind: IndexKind,
    ) {
        self.db.create_table(table);
        self.db.declare_index(table, path, kind);
    }

    /// Server metrics.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The node's registry snapshot — the [`Request::Metrics`] payload.
    /// InvaliDB's two match totals join it here, at scrape time: they
    /// live on the matching node, and copying them into counters would
    /// put work on the per-write path.
    ///
    /// [`Request::Metrics`]: crate::Request::Metrics
    pub fn metrics_snapshot(&self) -> quaestor_obs::MetricsSnapshot {
        let mut snap = self.metrics.registry().snapshot();
        snap.counters.extend([
            (
                "server.match_evaluations".to_owned(),
                self.invalidb.total_evaluations(),
            ),
            (
                "server.match_evaluations_pruned".to_owned(),
                self.invalidb.total_evaluations_skipped(),
            ),
        ]);
        // Registry snapshots list counters by name; keep that order.
        snap.counters.sort_unstable();
        snap
    }

    /// Configuration in effect.
    pub fn config(&self) -> &ServerConfig {
        &self.config
    }

    /// Register an invalidation-based cache for asynchronous purges.
    pub fn register_cdn(&self, cache: Arc<InvalidationCache>) {
        self.cdns.write().push(cache);
    }

    fn now(&self) -> Timestamp {
        self.clock.now()
    }

    fn purge(&self, key: &QueryKey) {
        let cdns = self.cdns.read();
        for cdn in cdns.iter() {
            if cdn.purge(key.as_str()) {
                self.metrics.purges.inc();
            }
        }
    }

    /// Evict one actively matched query: deregister it and treat every
    /// cached copy as stale (conservative; it can no longer be
    /// invalidated).
    fn evict_query(&self, victim: &QueryKey) -> Result<()> {
        self.invalidb.deregister_query(victim);
        self.ebf.invalidate(victim.table(), victim.as_str());
        self.active.remove(victim);
        self.purge(victim);
        if !self.is_replica() {
            if let Some(d) = &self.durability {
                d.log_deregister_query(victim)?;
            }
        }
        Ok(())
    }

    // ---- durability ------------------------------------------------------

    /// The attached durability engine, if this server is durable.
    pub fn durability(&self) -> Option<&Arc<DurabilityEngine>> {
        self.durability.as_ref()
    }

    /// Force the write-ahead log's group-commit buffer to stable storage.
    /// Returns the durable LSN; 0 for an in-memory server (everything
    /// "durable" trivially — there is nothing to lose that a flush would
    /// save).
    pub fn flush(&self) -> Result<u64> {
        match &self.durability {
            Some(d) => d.flush(),
            None => Ok(0),
        }
    }

    /// Write a snapshot of the current state and compact the log below
    /// it. Errors on an in-memory server.
    pub fn checkpoint(&self) -> Result<u64> {
        match &self.durability {
            Some(d) => d.snapshot(&self.db),
            None => Err(Error::BadRequest(
                "checkpoint requires a durable server (QuaestorServer::open)".into(),
            )),
        }
    }

    // ---- the EBF endpoint ----------------------------------------------

    /// Serve the flat EBF (union over table partitions) with its
    /// generation timestamp — step 1 of the §3.1 request flow.
    pub fn ebf_snapshot(&self) -> (BloomFilter, Timestamp) {
        self.metrics.ebf_snapshots.inc();
        self.ebf.union_snapshot()
    }

    /// Serve a single table's EBF partition (the lower-FPR client option).
    pub fn ebf_partition_snapshot(&self, table: &str) -> (BloomFilter, Timestamp) {
        self.metrics.ebf_snapshots.inc();
        self.ebf.partition_snapshot(table)
    }

    // ---- reads -----------------------------------------------------------

    /// Origin read of one record (cache miss or revalidation).
    pub fn get_record(&self, table: &str, id: &str) -> Result<RecordResponse> {
        self.metrics.record_reads.inc();
        let t = self.db.table(table)?;
        let rec = t.get(id).ok_or_else(|| quaestor_common::Error::NotFound {
            table: table.to_owned(),
            id: id.to_owned(),
        })?;
        // The record key is also the record's key in the write-rate sampler.
        let key = QueryKey::record(table, id);
        let rate = self.sampler.rate(key.as_str(), self.now());
        let ttl_ms = self.estimator.record_ttl(rate);
        // Report to the EBF *before* replying, so any invalidation racing
        // this response finds the ledger entry (Figure 7 step 2).
        self.ebf.report_read(table, key.as_str(), ttl_ms);
        Ok(RecordResponse {
            etag: rec.version,
            ttl_ms,
            doc: rec.doc,
        })
    }

    /// Origin evaluation of a query (cache miss or revalidation) — step 4
    /// of the §3.1 request flow: evaluate, decide representation, estimate
    /// TTL, register with InvaliDB, report to the EBF, reply cacheably.
    pub fn query(&self, query: &Query) -> Result<QueryResponse> {
        self.metrics.query_reads.inc();
        let now = self.now();
        let key = QueryKey::of(query);
        // Watermark BEFORE evaluation: anything ingested after this point
        // raced the evaluation and must be replayed on registration.
        let mark = self.invalidb.ingest_mark();
        // Schemaless DBaaS semantics: querying a table that does not exist
        // yet creates it and returns the empty result.
        self.db.create_table(&query.table);
        // Each member's version is read under the same shard lock as its
        // document, so `versions` and the ETag label exactly the
        // documents served, however writers race this evaluation.
        let hits = self.db.query_records(query)?;
        let mut ids = Vec::with_capacity(hits.len());
        let mut versions = Vec::with_capacity(hits.len());
        let mut docs = Vec::with_capacity(hits.len());
        for (id, rec) in hits {
            ids.push(id.to_string());
            versions.push(rec.version);
            docs.push(rec.doc);
        }
        let etag = result_etag(ids.iter().map(String::as_str).zip(versions.iter().copied()));

        // Admission: is this query worth one of the InvaliDB slots?
        let admitted = match self.capacity.request_admission(&key) {
            AdmissionDecision::Admitted => true,
            AdmissionDecision::AdmittedEvicting(victim) => {
                self.evict_query(&victim)?;
                true
            }
            AdmissionDecision::Rejected => {
                self.metrics.capacity_rejections.inc();
                false
            }
        };

        if !admitted {
            // Served uncacheable: ttl 0, not registered anywhere.
            return Ok(QueryResponse {
                etag,
                ttl_ms: 0,
                representation: Representation::ObjectList,
                ids,
                versions,
                docs,
            });
        }

        // One record key per member, the member's key in both the
        // write-rate sampler and the EBF; each member's rate is read once
        // and feeds both the query's initial TTL and the member's own.
        let member_keys: Vec<QueryKey> = ids
            .iter()
            .map(|id| QueryKey::record(&query.table, id))
            .collect();
        let rates = self
            .sampler
            .rates(member_keys.iter().map(QueryKey::as_str), now);

        // Representation decision from observed per-query workload; TTL:
        // EWMA-refined estimate if we have history, otherwise the Poisson
        // initial estimate from the result set's write rates.
        let state = self.active.get(&key);
        let representation = match &state {
            Some(state) => self.decide_representation(state, ids.len(), now),
            None => Representation::ObjectList,
        };
        let ttl_ms = match &state {
            Some(state) if state.invalidations > 0 => state.ttl_ms,
            _ => self
                .estimator
                .initial_query_ttl(rates.iter().flatten().sum()),
        };

        // Register with InvaliDB. A query that is already registered gets
        // its matching state replaced by this evaluation's result, then
        // the writes that raced the evaluation are replayed against it
        // (see `InvaliDbCluster::register_query`). Stateful queries need
        // the full unwindowed matching set.
        let replay = if query.is_stateful() {
            let mut unwindowed = query.clone();
            unwindowed.limit = None;
            unwindowed.offset = 0;
            let initial = self.db.query(&unwindowed)?;
            self.invalidb.register_query(query, &key, &initial, mark)
        } else {
            self.invalidb.register_query(query, &key, &docs, mark)
        };
        // Durable registration: recovery re-registers the query so its
        // cached copies keep being invalidated after a restart. (No-op
        // frame-wise when the query is already in the durable set.
        // Replicas skip it — their WAL carries only the primary's LSNs.)
        if !self.is_replica() {
            if let Some(d) = &self.durability {
                d.log_register_query(query, &key)?;
            }
        }

        // Report the cacheable read, then handle any raced notifications
        // as regular invalidations (they arrived between evaluation and
        // activation).
        let ebf = self.ebf.partition(&query.table);
        ebf.report_read(key.as_str(), ttl_ms);
        self.active
            .on_origin_read(&key, ttl_ms, representation, now);
        for n in replay.raced {
            self.apply_notification(&n);
        }
        // Raced writes fell out of the replay window: this result may be
        // stale already. Flag and purge it like a raced invalidation, but
        // feed no TTL sample: no write was seen to end its lifetime.
        if replay.overrun {
            ebf.invalidate(key.as_str());
            self.purge(&key);
        }

        // Per-record side effect: "all records in a result are inserted
        // into the cache as individual entries" (§6.2) — the server
        // reports each member read so the EBF can cover them, and the
        // response carries the members so caches can store them. The
        // client caches a member under the query's TTL, so the EBF must
        // hold the member at least that long: a shorter record TTL would
        // let the filter forget a key a browser still holds, and a later
        // write to it would go unflagged past Δ.
        for (rkey, rate) in member_keys.iter().zip(rates) {
            let member_ttl = self.estimator.record_ttl(rate).max(ttl_ms);
            ebf.report_read(rkey.as_str(), member_ttl);
        }

        Ok(QueryResponse {
            etag,
            ttl_ms,
            representation,
            ids,
            versions,
            docs,
        })
    }

    fn decide_representation(
        &self,
        state: &QueryState,
        result_size: usize,
        now: Timestamp,
    ) -> Representation {
        let w = quaestor_ttl::cost::QueryWorkload {
            // Rates are per-ms in the state; the cost model only compares
            // relative magnitudes, so a consistent unit suffices.
            read_rate: state.read_rate(now),
            membership_change_rate: state.membership_change_rate(now),
            change_rate: state.value_change_rate(now),
            result_size,
            record_hit_rate: ASSUMED_RECORD_HIT_RATE,
        };
        self.cost.choose(&w)
    }

    // ---- writes ----------------------------------------------------------

    /// Insert a record, driving the full invalidation pipeline. Returns
    /// the stored version and after-image (the client SDK caches them for
    /// read-your-writes).
    pub fn insert(&self, table: &str, id: &str, doc: Document) -> Result<(u64, Arc<Document>)> {
        let t = self.db.create_table(table);
        let event = t.insert(id, doc)?;
        self.after_write(&event);
        Ok((event.version, event.image))
    }

    /// Partially update a record; returns version and after-image.
    pub fn update(&self, table: &str, id: &str, update: &Update) -> Result<(u64, Arc<Document>)> {
        let t = self.db.table(table)?;
        let event = t.update(id, update, None)?;
        self.after_write(&event);
        Ok((event.version, event.image))
    }

    /// Replace a record; returns version and after-image.
    pub fn replace(&self, table: &str, id: &str, doc: Document) -> Result<(u64, Arc<Document>)> {
        let t = self.db.table(table)?;
        let event = t.replace(id, doc, None)?;
        self.after_write(&event);
        Ok((event.version, event.image))
    }

    /// Delete a record; returns the deleted version.
    pub fn delete(&self, table: &str, id: &str) -> Result<u64> {
        let t = self.db.table(table)?;
        let event = t.delete(id, None)?;
        self.after_write(&event);
        Ok(event.version)
    }

    // ---- change streams ---------------------------------------------------

    /// Subscribe to real-time change notifications for one cached query —
    /// the "websocket-based query result change streams" of §3.2. Each
    /// message is the serialized notification event kind and record id.
    pub fn subscribe_query_stream(&self, key: &QueryKey) -> quaestor_kv::Subscription {
        self.streams.subscribe(key.as_str())
    }

    /// The write → invalidation pipeline of Figure 7 (step 4): sample the
    /// write rate, invalidate the record key, feed InvaliDB, and apply
    /// every resulting query invalidation.
    pub(crate) fn after_write(&self, event: &WriteEvent) {
        self.metrics.writes.inc();
        let now = self.now();
        let rkey = QueryKey::record(&event.table, &event.id);
        self.sampler.record_write(rkey.as_str(), now);
        // Record-level invalidation.
        if self.ebf.invalidate(&event.table, rkey.as_str()) {
            self.metrics.record_invalidations.inc();
        }
        self.purge(&rkey);
        // Query-level invalidations via InvaliDB.
        for n in self.invalidb.on_write(event) {
            self.apply_notification(&n);
        }
        // Auto-checkpoint: the write itself is already logged, so a
        // snapshot failure here must not fail the write — it only delays
        // compaction until the next attempt.
        if let Some(d) = &self.durability {
            if d.wants_snapshot() {
                let _ = d.snapshot(&self.db);
            }
        }
    }

    fn apply_notification(&self, n: &Notification) {
        // Push to subscribed change streams regardless of representation:
        // subscribers want every event.
        self.streams.publish(
            n.query.as_str(),
            bytes::Bytes::from(format!("{:?}:{}", n.event, n.record_id)),
        );
        let is_membership = n.event.invalidates_id_list();
        self.active.on_notification(&n.query, is_membership);
        // Does this event invalidate the representation actually cached?
        let state = self.active.get(&n.query);
        let invalidates = match state.as_ref().map(|s| s.representation) {
            Some(Representation::IdList) => is_membership,
            // Unknown state: be conservative, invalidate.
            Some(Representation::ObjectList) | None => true,
        };
        if !invalidates {
            return;
        }
        self.metrics.query_invalidations.inc();
        // Table is encoded in the query key's table; use the notification
        // query key against that table's EBF partition.
        self.ebf.invalidate(n.query.table(), n.query.as_str());
        self.capacity.on_invalidation(&n.query);
        self.purge(&n.query);
        // EWMA refinement from the observed actual TTL (Eq. 2).
        if let Some(actual) = self.active.on_invalidation(&n.query, n.at) {
            if let Some(state) = self.active.get(&n.query) {
                let refined = self.estimator.refine_query_ttl(state.ttl_ms, actual);
                self.active.set_ttl(&n.query, refined);
            }
        }
    }

    /// Ground-truth ETag of a query's *current* result — used by the
    /// simulator's staleness detector to compare what a client observed
    /// against what a linearizable system would have returned.
    pub fn current_query_etag(&self, query: &Query) -> Result<u64> {
        let hits = self.db.query_records(query)?;
        Ok(result_etag(
            hits.iter().map(|(id, rec)| (&**id, rec.version)),
        ))
    }

    /// Number of actively matched (cached) queries.
    pub fn active_query_count(&self) -> usize {
        self.invalidb.query_count()
    }

    /// Direct access to the active list (diagnostics, benches).
    pub fn active_list(&self) -> &ActiveList {
        &self.active
    }

    /// Direct access to the EBF family (diagnostics, benches).
    pub fn ebf(&self) -> &PartitionedEbf {
        &self.ebf
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_common::ManualClock;
    use quaestor_document::{doc, Value};
    use quaestor_query::Filter;

    fn server() -> (Arc<QuaestorServer>, Arc<ManualClock>) {
        let clock = ManualClock::new();
        let server = QuaestorServer::with_defaults(clock.clone());
        (server, clock)
    }

    fn tagged(id: &str, tags: &[&str]) -> Document {
        let mut d = doc! { "kind" => "post" };
        d.insert(
            "tags",
            Value::Array(tags.iter().map(|t| Value::str(*t)).collect()),
        );
        let _ = id;
        d
    }

    #[test]
    fn record_read_reports_to_ebf() {
        let (s, _) = server();
        s.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
        let resp = s.get_record("posts", "p1").unwrap();
        assert!(resp.ttl_ms > 0);
        assert_eq!(resp.etag, 1);
        // A subsequent write must mark the record stale.
        s.update("posts", "p1", &Update::new().set("kind", "draft"))
            .unwrap();
        let (flat, _) = s.ebf_snapshot();
        assert!(flat.contains(QueryKey::record("posts", "p1").as_str().as_bytes()));
    }

    #[test]
    fn scrape_names_exactly_the_server_counters() {
        let (s, _) = server();
        s.insert("posts", "p1", tagged("p1", &["example"])).unwrap();
        s.get_record("posts", "p1").unwrap();
        s.query(&Query::table("posts").filter(Filter::contains("tags", "example")))
            .unwrap();
        // An equality query the write below cannot match: InvaliDB's
        // predicate index prunes it instead of evaluating it.
        s.query(&Query::table("posts").filter(Filter::eq("kind", "draft")))
            .unwrap();
        let mut tx = crate::Transaction::new();
        tx.update("posts", "p1", Update::new().push("tags", "more"));
        s.commit(tx).unwrap();

        let snap = s.metrics_snapshot();
        let names: Vec<&str> = snap.counters.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(
            names,
            [
                "server.capacity_rejections",
                "server.ebf_snapshots",
                "server.match_evaluations",
                "server.match_evaluations_pruned",
                "server.purges",
                "server.query_card_actual",
                "server.query_card_estimated",
                "server.query_full_scans",
                "server.query_index_probes",
                "server.query_invalidations",
                "server.query_range_scans",
                "server.query_reads",
                "server.query_topk_short_circuits",
                "server.record_invalidations",
                "server.record_reads",
                "server.tx_aborts",
                "server.tx_commits",
                "server.writes",
            ]
        );
        assert!(snap.gauges.is_empty() && snap.histograms.is_empty());
        for name in [
            "server.record_reads",
            "server.query_reads",
            "server.writes",
            "server.tx_commits",
            "server.match_evaluations",
            "server.match_evaluations_pruned",
            "server.query_full_scans",
            "server.query_card_estimated",
            "server.query_card_actual",
        ] {
            assert!(snap.counter(name).unwrap() > 0, "{name} stayed 0");
        }
    }

    #[test]
    fn unread_record_write_is_not_inserted() {
        let (s, _) = server();
        s.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
        s.update("posts", "p1", &Update::new().set("kind", "draft"))
            .unwrap();
        // p1 was never served cacheably before the write... but the insert
        // itself wasn't either. No EBF entry.
        let (flat, _) = s.ebf_snapshot();
        assert!(!flat.contains(QueryKey::record("posts", "p1").as_str().as_bytes()));
    }

    #[test]
    fn query_lifecycle_with_invalidation() {
        let (s, clock) = server();
        s.insert("posts", "p1", tagged("p1", &["example"])).unwrap();
        s.insert("posts", "p2", tagged("p2", &["music"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "example"));
        let resp = s.query(&q).unwrap();
        assert!(resp.ttl_ms > 0, "admitted, so cacheable");
        assert_eq!(resp.ids, vec!["p1"]);
        assert_eq!(s.active_query_count(), 1);

        clock.advance(1_000);
        // p2 gains the tag -> enters the result -> add notification ->
        // query invalidated.
        s.update("posts", "p2", &Update::new().push("tags", "example"))
            .unwrap();
        let (flat, _) = s.ebf_snapshot();
        assert!(
            flat.contains(QueryKey::of(&q).as_str().as_bytes()),
            "query key must be stale in the EBF"
        );
        assert_eq!(s.metrics().query_invalidations.get(), 1);
    }

    #[test]
    fn irrelevant_writes_do_not_invalidate_queries() {
        let (s, _) = server();
        s.insert("posts", "p1", tagged("p1", &["example"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "example"));
        s.query(&q).unwrap();
        s.insert("posts", "p9", tagged("p9", &["unrelated"]))
            .unwrap();
        let (flat, _) = s.ebf_snapshot();
        assert!(!flat.contains(QueryKey::of(&q).as_str().as_bytes()));
    }

    #[test]
    fn cdn_purge_on_invalidation() {
        let (s, _) = server();
        let cdn = Arc::new(InvalidationCache::new("cdn", 64));
        s.register_cdn(cdn.clone());
        s.insert("posts", "p1", tagged("p1", &["example"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "example"));
        let resp = s.query(&q).unwrap();
        // Simulate the CDN having cached it.
        cdn.put(
            QueryKey::of(&q).as_str(),
            quaestor_webcache::CacheEntry::new(&b"[]"[..], resp.etag, Timestamp::ZERO, 60_000),
        );
        s.update("posts", "p1", &Update::new().pull("tags", "example"))
            .unwrap();
        assert_eq!(cdn.len(), 0, "stale result purged from the CDN");
        assert!(s.metrics().purges.get() >= 1);
    }

    #[test]
    fn ewma_refines_query_ttl_after_invalidation() {
        let (s, clock) = server();
        s.insert("posts", "p1", tagged("p1", &["t"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "t"));
        let r1 = s.query(&q).unwrap();
        let initial_ttl = r1.ttl_ms;
        clock.advance(2_000); // actual TTL will be 2000 ms
        s.update("posts", "p1", &Update::new().pull("tags", "t"))
            .unwrap();
        let state = s.active_list().get(&QueryKey::of(&q)).unwrap();
        assert!(
            state.ttl_ms < initial_ttl,
            "EWMA must pull the estimate down towards 2000 (was {initial_ttl}, now {})",
            state.ttl_ms
        );
    }

    #[test]
    fn capacity_rejection_serves_uncacheable() {
        let clock = ManualClock::new();
        let db = Database::with_clock(clock.clone());
        let cfg = ServerConfig {
            max_cached_queries: 1,
            ..ServerConfig::default()
        };
        let s = QuaestorServer::new(db, cfg, clock.clone());
        s.insert("t", "a", doc! { "n" => 1 }).unwrap();
        let q1 = Query::table("t").filter(Filter::eq("n", 1));
        let r1 = s.query(&q1).unwrap();
        assert!(r1.ttl_ms > 0);
        // Raise q1's score so q2 cannot evict it.
        s.query(&q1).unwrap();
        let q2 = Query::table("t").filter(Filter::eq("n", 2));
        let r2 = s.query(&q2).unwrap();
        assert_eq!(r2.ttl_ms, 0, "rejected, so uncacheable");
    }

    #[test]
    fn vetoed_write_does_not_fan_out() {
        struct Veto;
        impl quaestor_store::WriteSink for Veto {
            fn append(&self, _event: &WriteEvent) -> Result<u64> {
                Err(Error::Io("disk full".into()))
            }
        }
        let clock = ManualClock::new();
        let db = Database::with_clock(clock.clone());
        db.attach_sink(Arc::new(Veto));
        let s = QuaestorServer::new(db, ServerConfig::default(), clock);
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        assert!(s.query(&q).unwrap().ttl_ms > 0, "registered with InvaliDB");
        let err = s.insert("posts", "p1", tagged("p1", &["x"])).unwrap_err();
        assert_eq!(err.status_code(), 500);
        // The write was never acknowledged, so nothing downstream of the
        // store heard of it.
        assert_eq!(s.metrics().writes.get(), 0);
        assert_eq!(s.metrics().record_invalidations.get(), 0);
        assert_eq!(s.metrics().query_invalidations.get(), 0);
        assert_eq!(s.invalidb.ingest_mark(), 0, "InvaliDB ingested nothing");
        assert_eq!(
            s.metrics_snapshot().counter("server.match_evaluations"),
            Some(0)
        );
    }

    #[test]
    fn delete_invalidates_containing_queries() {
        let (s, _) = server();
        s.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        s.query(&q).unwrap();
        s.delete("posts", "p1").unwrap();
        let (flat, _) = s.ebf_snapshot();
        assert!(flat.contains(QueryKey::of(&q).as_str().as_bytes()));
    }

    fn temp_dir(tag: &str) -> std::path::PathBuf {
        quaestor_common::scratch_dir(&format!("server-{tag}"))
    }

    /// The frames above `after` in `engine`'s log, read the way a
    /// replication session reads them (a tail cursor's raw frames).
    fn frames_after(engine: &DurabilityEngine, after: u64) -> Vec<u8> {
        let mut tail = engine.tail(after).unwrap();
        let mut raw = Vec::new();
        engine.read_tail(&mut tail, usize::MAX, &mut raw).unwrap();
        raw
    }

    /// Ship `batch` to a replica the way a replication session does:
    /// append it to the replica's WAL, then apply what the log accepted.
    /// Returns how many frames were accepted.
    fn ship(batch: &[u8], dst: &DurabilityEngine, replica: &QuaestorServer) -> usize {
        let frames = quaestor_durability::ShippedFrame::parse_batch(batch).unwrap();
        let fresh = dst.append_replicated(&frames).unwrap();
        for f in fresh {
            replica.apply_replicated(&f.record).unwrap();
        }
        fresh.len()
    }

    fn open_durable(dir: &std::path::Path) -> Arc<QuaestorServer> {
        QuaestorServer::open_with(
            dir,
            ServerConfig::default(),
            quaestor_durability::DurabilityConfig::default(),
            ManualClock::new(),
        )
        .unwrap()
    }

    #[test]
    fn durable_server_recovers_state_queries_and_tombstones() {
        let dir = temp_dir("recover");
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        let qkey = QueryKey::of(&q);
        {
            let s = open_durable(&dir);
            s.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
            s.insert("posts", "p2", tagged("p2", &["y"])).unwrap();
            let resp = s.query(&q).unwrap();
            assert!(resp.ttl_ms > 0);
            s.delete("posts", "p2").unwrap();
            // Crash: drop without flush (fsync=Always already persisted).
        }
        let s = open_durable(&dir);
        // Data back.
        let rec = s.get_record("posts", "p1").unwrap();
        assert_eq!(rec.etag, 1);
        assert!(s.get_record("posts", "p2").is_err());
        // EBF warm-started from the recovered delete tombstone: caches
        // holding p2 must revalidate.
        let (flat, _) = s.ebf_snapshot();
        assert!(
            flat.contains(QueryKey::record("posts", "p2").as_str().as_bytes()),
            "recovered tombstone must mark the record stale"
        );
        // The query was re-registered: a write entering its result must
        // invalidate the recovered registration.
        assert_eq!(s.active_query_count(), 1);
        s.update("posts", "p1", &Update::new().push("tags", "fresh"))
            .unwrap(); // value change on a member -> invalidation
        let (flat, _) = s.ebf_snapshot();
        assert!(
            flat.contains(qkey.as_str().as_bytes()),
            "re-registered query must keep invalidating after recovery"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopen_twice_yields_identical_state() {
        let dir = temp_dir("idem");
        {
            let s = open_durable(&dir);
            for i in 0..10 {
                s.insert("t", &format!("r{i}"), doc! { "n" => i }).unwrap();
            }
            s.update("t", "r3", &Update::new().set("n", 99)).unwrap();
            s.delete("t", "r4").unwrap();
        }
        let snapshot_of = |s: &Arc<QuaestorServer>| {
            let t = s.database().table("t").unwrap();
            let mut recs: Vec<(String, u64, String)> = t
                .snapshot()
                .into_iter()
                .map(|(id, r)| (id, r.version, Value::Object((*r.doc).clone()).canonical()))
                .collect();
            recs.sort();
            (recs, t.seq())
        };
        let s1 = open_durable(&dir);
        let state1 = snapshot_of(&s1);
        drop(s1);
        let s2 = open_durable(&dir);
        assert_eq!(state1, snapshot_of(&s2), "recovery must be idempotent");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn flush_and_checkpoint_roundtrip() {
        let dir = temp_dir("checkpoint");
        {
            let s = open_durable(&dir);
            for i in 0..20 {
                s.insert("t", &format!("r{i}"), doc! { "n" => i }).unwrap();
            }
            let lsn = s.flush().unwrap();
            assert!(lsn >= 20);
            let snap_lsn = s.checkpoint().unwrap();
            assert_eq!(snap_lsn, s.durability().unwrap().last_lsn());
            s.insert("t", "post-snap", doc! { "n" => 100 }).unwrap();
        }
        let s = open_durable(&dir);
        assert_eq!(s.database().table("t").unwrap().len(), 21);
        assert!(s.get_record("t", "post-snap").is_ok());
        // In-memory servers: flush is a no-op, checkpoint is an error.
        let (mem, _) = server();
        assert_eq!(mem.flush().unwrap(), 0);
        assert!(mem.checkpoint().is_err());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn declared_indexes_cover_recovered_tables_and_planner_metrics() {
        use quaestor_query::Order;
        use quaestor_store::AccessPath;
        let dir = temp_dir("declare-idx");
        {
            let s = open_durable(&dir);
            for i in 0..40i64 {
                s.insert("posts", &format!("p{i:02}"), doc! { "likes" => i })
                    .unwrap();
            }
        }
        // Reopen: recovery rebuilds the table *before* the app declares
        // its indexes; the declaration must index the recovered data.
        let s = open_durable(&dir);
        s.declare_index("posts", "likes", IndexKind::Ordered);
        let table = s.database().table("posts").unwrap();
        let range = Query::table("posts").filter(Filter::and([
            quaestor_query::Filter::gte("likes", 10),
            quaestor_query::Filter::lt("likes", 13),
        ]));
        assert!(matches!(
            table.explain(&range).access,
            AccessPath::RangeScan { estimated: 3, .. }
        ));
        let resp = s.query(&range).unwrap();
        assert_eq!(resp.ids.len(), 3);
        // A sorted LIMIT over an unindexed path takes the top-k path.
        let topk = Query::table("posts")
            .sort_by("missing", Order::Asc)
            .limit(2);
        s.query(&topk).unwrap();
        let snap = s.metrics_snapshot();
        let get = |name: &str| snap.counter(name).unwrap();
        assert_eq!(get("server.query_range_scans"), 1);
        assert!(get("server.query_topk_short_circuits") >= 1);
        assert!(get("server.query_full_scans") >= 1);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replica_applies_shipped_frames_without_self_logging() {
        let primary_dir = temp_dir("repl-primary");
        let replica_dir = temp_dir("repl-replica");
        let primary = open_durable(&primary_dir);
        let replica = QuaestorServer::open_replica_with(
            &replica_dir,
            ServerConfig::default(),
            quaestor_durability::DurabilityConfig::default(),
            ManualClock::new(),
        )
        .unwrap();
        assert!(replica.is_replica());

        // Writes on the primary; ship its frames to the replica the way a
        // replication session would: append to the replica WAL, then apply.
        primary.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
        primary.insert("posts", "p2", tagged("p2", &["y"])).unwrap();
        primary.delete("posts", "p2").unwrap();
        let src = primary.durability().unwrap();
        let dst = replica.durability().unwrap();
        let shipped = ship(&frames_after(src, 0), dst, &replica);
        assert_eq!(shipped as u64, src.last_lsn());
        assert_eq!(dst.last_lsn(), src.last_lsn());
        assert_eq!(replica.get_record("posts", "p1").unwrap().etag, 1);
        assert!(replica.get_record("posts", "p2").is_err());

        // A replica-side cacheable query must NOT append to the replica's
        // WAL (its LSNs are the primary's), but must still register for
        // invalidation so replicated writes mark local caches stale.
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        let resp = replica.query(&q).unwrap();
        assert!(resp.ttl_ms > 0);
        assert_eq!(dst.last_lsn(), src.last_lsn(), "query must not self-log");

        // A replicated write entering the result invalidates the query.
        primary
            .update("posts", "p1", &Update::new().push("tags", "fresh"))
            .unwrap();
        let after = src.last_lsn();
        ship(&frames_after(src, dst.last_lsn()), dst, &replica);
        assert_eq!(dst.last_lsn(), after);
        let (flat, _) = replica.ebf_snapshot();
        assert!(
            flat.contains(QueryKey::of(&q).as_str().as_bytes()),
            "replicated write must invalidate the replica-registered query"
        );

        // Duplicate re-delivery is a no-op end to end: the WAL's LSN gate
        // rejects every already-applied frame, and a session only applies
        // what the gate accepted — so state is untouched. (Version-keyed
        // replay alone is not enough: replaying an insert whose delete
        // came later would resurrect the record.)
        let before = replica.database().total_records();
        assert_eq!(
            ship(&frames_after(src, 0), dst, &replica),
            0,
            "every frame is a duplicate"
        );
        assert_eq!(replica.database().total_records(), before);

        // Promotion attaches the sink: local writes log with continuing
        // LSNs.
        replica.promote();
        assert!(!replica.is_replica());
        replica.insert("posts", "p3", tagged("p3", &["z"])).unwrap();
        assert_eq!(dst.last_lsn(), after + 1, "post-promotion write must log");
        std::fs::remove_dir_all(&primary_dir).unwrap();
        std::fs::remove_dir_all(&replica_dir).unwrap();
    }

    #[test]
    fn query_versions_and_etag_label_the_documents_served() {
        use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
        use std::time::{Duration, Instant};
        // A writer bumps `counter` on every member of one equality query
        // while this thread re-evaluates the query. Each update bumps the
        // version too, so a member's version is always `counter + 1`: a
        // version read apart from its document breaks that.
        const MEMBERS: usize = 10;
        let (s, _) = server();
        s.declare_index("t", "category", IndexKind::Hash);
        for i in 0..MEMBERS {
            s.insert(
                "t",
                &format!("m{i}"),
                doc! { "category" => "c", "counter" => 0 },
            )
            .unwrap();
        }
        let q = Query::table("t").filter(Filter::eq("category", "c"));
        let stop = AtomicBool::new(false);
        let writes = AtomicU64::new(0);
        let mislabelled = std::thread::scope(|scope| {
            scope.spawn(|| {
                let bump = Update::new().inc("counter", 1.0);
                while !stop.load(Relaxed) {
                    for i in 0..MEMBERS {
                        s.update("t", &format!("m{i}"), &bump).unwrap();
                    }
                    writes.fetch_add(MEMBERS as u64, Relaxed);
                }
            });
            // At least 2 000 queries racing at least 2 000 writes, within
            // a 10 s cap.
            let started = Instant::now();
            let mut queries = 0;
            let mut mislabelled = None;
            while mislabelled.is_none()
                && (queries < 2_000 || writes.load(Relaxed) < 2_000)
                && started.elapsed() < Duration::from_secs(10)
            {
                queries += 1;
                let resp = match s.query(&q) {
                    Ok(resp) => resp,
                    Err(e) => {
                        mislabelled = Some(format!("query {queries} failed: {e}"));
                        break;
                    }
                };
                let labelled = resp.ids.len() == MEMBERS
                    && resp.docs.iter().zip(&resp.ids).zip(&resp.versions).all(
                        |((doc, id), &version)| {
                            doc["_id"] == Value::str(id)
                                && doc["counter"].as_i64() == Some(version as i64 - 1)
                        },
                    );
                let etag = result_etag(
                    resp.ids
                        .iter()
                        .map(String::as_str)
                        .zip(resp.versions.iter().copied()),
                );
                if !labelled || resp.etag != etag {
                    mislabelled = Some(format!(
                        "query {queries}: versions {:?} and etag {} label the docs {:?}",
                        resp.versions, resp.etag, resp.docs
                    ));
                }
            }
            stop.store(true, Relaxed);
            mislabelled
        });
        assert_eq!(mislabelled, None);
        assert!(writes.into_inner() > 0, "the writer never ran");
    }

    #[test]
    fn member_records_reported_for_ebf_coverage() {
        let (s, _) = server();
        s.insert("posts", "p1", tagged("p1", &["x"])).unwrap();
        let q = Query::table("posts").filter(Filter::contains("tags", "x"));
        s.query(&q).unwrap();
        // p1 was reported as a side effect of the query; a write to p1
        // must now mark the *record* stale too.
        s.update("posts", "p1", &Update::new().set("kind", "draft"))
            .unwrap();
        let (flat, _) = s.ebf_snapshot();
        assert!(flat.contains(QueryKey::record("posts", "p1").as_str().as_bytes()));
    }
}
