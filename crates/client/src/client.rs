//! The client SDK proper.

use std::cell::RefCell;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::Mutex;
use quaestor_bloom::BloomFilter;
use quaestor_common::{ClockRef, Error, Result, Timestamp};
use quaestor_core::response::record_body;
use quaestor_core::{
    QuaestorServer, QueryResponse, RecordResponse, Request, Response, Service, ServiceExt,
};
use quaestor_document::{decode_value, Document, Update, Value};
use quaestor_query::{Query, QueryKey};
use quaestor_webcache::{
    CacheEntry, CacheHierarchy, ExpirationCache, FetchMode, InvalidationCache, ServedBy,
};

use crate::config::{ClientConfig, Consistency};
use crate::outcome::{QueryOutcome, ReadOutcome};
use crate::session::SessionState;

/// Per-layer hit counters, split by operation class (Figure 8e reports
/// client and CDN hit rates for reads and queries separately).
#[derive(Debug, Default)]
pub struct ClientMetrics {
    /// Queries answered by the private browser cache.
    pub query_client_hits: AtomicU64,
    /// Queries answered by a shared (CDN) layer.
    pub query_cdn_hits: AtomicU64,
    /// Queries answered by the origin.
    pub query_origin: AtomicU64,
    /// Record reads answered by the browser cache.
    pub record_client_hits: AtomicU64,
    /// Record reads answered by a shared layer.
    pub record_cdn_hits: AtomicU64,
    /// Record reads answered by the origin.
    pub record_origin: AtomicU64,
    /// Reads the EBF promoted to revalidations.
    pub revalidations: AtomicU64,
    /// EBF refreshes performed.
    pub ebf_refreshes: AtomicU64,
}

impl ClientMetrics {
    fn count(&self, is_query: bool, served_by: ServedBy) {
        let counter = match (is_query, served_by) {
            (true, ServedBy::Layer(0)) => &self.query_client_hits,
            (true, ServedBy::Layer(_)) => &self.query_cdn_hits,
            (true, ServedBy::Origin) => &self.query_origin,
            (false, ServedBy::Layer(0)) => &self.record_client_hits,
            (false, ServedBy::Layer(_)) => &self.record_cdn_hits,
            (false, ServedBy::Origin) => &self.record_origin,
        };
        counter.fetch_add(1, Ordering::Relaxed);
    }

    /// Client-cache hit rate over queries.
    pub fn query_client_hit_rate(&self) -> f64 {
        let h = self.query_client_hits.load(Ordering::Relaxed);
        let total = h
            + self.query_cdn_hits.load(Ordering::Relaxed)
            + self.query_origin.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    }

    /// Client-cache hit rate over record reads.
    pub fn record_client_hit_rate(&self) -> f64 {
        let h = self.record_client_hits.load(Ordering::Relaxed);
        let total = h
            + self.record_cdn_hits.load(Ordering::Relaxed)
            + self.record_origin.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    }

    /// CDN hit rate over queries.
    pub fn query_cdn_hit_rate(&self) -> f64 {
        let h = self.query_cdn_hits.load(Ordering::Relaxed);
        let total = h
            + self.query_client_hits.load(Ordering::Relaxed)
            + self.query_origin.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    }

    /// CDN hit rate over record reads.
    pub fn record_cdn_hit_rate(&self) -> f64 {
        let h = self.record_cdn_hits.load(Ordering::Relaxed);
        let total = h
            + self.record_client_hits.load(Ordering::Relaxed)
            + self.record_origin.load(Ordering::Relaxed);
        if total == 0 {
            0.0
        } else {
            h as f64 / total as f64
        }
    }
}

struct ClientInner {
    ebf: BloomFilter,
    ebf_at: Timestamp,
    /// Per-table partition filters (lazily fetched) when
    /// `ClientConfig::per_table_ebf` is set.
    table_ebfs: quaestor_common::FxHashMap<String, (BloomFilter, Timestamp)>,
    session: SessionState,
}

/// A connected Quaestor client: private browser cache + shared CDN layers
/// + EBF-driven coherence.
///
/// The client speaks only the [`Service`] protocol: every data operation
/// is a [`Request`] through [`Service::call`], so the same client runs
/// unmodified against a single [`QuaestorServer`], a
/// [`ShardRouter`](quaestor_core::ShardRouter) cluster, or any middleware
/// stack (metrics, simulated latency, ...).
pub struct QuaestorClient {
    service: Arc<dyn Service>,
    browser: Arc<ExpirationCache>,
    hierarchy: CacheHierarchy,
    clock: ClockRef,
    config: ClientConfig,
    inner: Mutex<ClientInner>,
    metrics: ClientMetrics,
}

impl std::fmt::Debug for QuaestorClient {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("QuaestorClient").finish_non_exhaustive()
    }
}

impl QuaestorClient {
    /// Connect to a single origin server. Convenience over
    /// [`connect_service`](QuaestorClient::connect_service).
    pub fn connect(
        server: Arc<QuaestorServer>,
        cdns: &[Arc<InvalidationCache>],
        config: ClientConfig,
        clock: ClockRef,
    ) -> QuaestorClient {
        Self::connect_service(server, cdns, config, clock)
    }

    /// Connect to any [`Service`] — a server, a shard router, or a
    /// middleware stack: build the cache chain (private browser cache,
    /// then the given shared CDN layers) and fetch the initial EBF —
    /// "upon connection, the client gets a piggybacked EBF" (§3.1).
    ///
    /// # Panics
    ///
    /// Panics if the initial EBF fetch fails (e.g. a misconfigured
    /// cluster with mismatched Bloom geometry). Use
    /// [`try_connect_service`](QuaestorClient::try_connect_service) to
    /// handle that as an error instead.
    pub fn connect_service(
        service: Arc<dyn Service>,
        cdns: &[Arc<InvalidationCache>],
        config: ClientConfig,
        clock: ClockRef,
    ) -> QuaestorClient {
        Self::try_connect_service(service, cdns, config, clock)
            // analyze: allow(unwrap-in-io-crate) documented `# Panics` contract; fallible twin is try_connect_service
            .expect("initial EBF snapshot must succeed on connect")
    }

    /// Fallible [`connect_service`](QuaestorClient::connect_service):
    /// surfaces an initial-EBF failure (a protocol or cluster
    /// misconfiguration error) to the caller instead of panicking.
    pub fn try_connect_service(
        service: Arc<dyn Service>,
        cdns: &[Arc<InvalidationCache>],
        config: ClientConfig,
        clock: ClockRef,
    ) -> Result<QuaestorClient> {
        let browser = Arc::new(ExpirationCache::new(
            "browser",
            config.browser_cache_capacity,
        ));
        let mut hierarchy = CacheHierarchy::new();
        if config.use_browser_cache {
            hierarchy = hierarchy.push_expiration(browser.clone());
        }
        for cdn in cdns {
            hierarchy = hierarchy.push_invalidation(cdn.clone());
        }
        let (ebf, ebf_at) = service.fetch_ebf()?;
        Ok(QuaestorClient {
            service,
            browser,
            hierarchy,
            clock,
            config,
            inner: Mutex::new(ClientInner {
                ebf,
                ebf_at,
                table_ebfs: quaestor_common::FxHashMap::default(),
                session: SessionState::default(),
            }),
            metrics: ClientMetrics::default(),
        })
    }

    /// The service this client talks to.
    pub fn service(&self) -> &Arc<dyn Service> {
        &self.service
    }

    /// Per-layer hit counters.
    pub fn metrics(&self) -> &ClientMetrics {
        &self.metrics
    }

    /// This client's private browser cache (diagnostics).
    pub fn browser_cache(&self) -> &Arc<ExpirationCache> {
        &self.browser
    }

    /// Age of the current EBF — the client's actual Δ bound right now.
    pub fn ebf_age(&self) -> u64 {
        let inner = self.inner.lock();
        self.clock.now().since(inner.ebf_at)
    }

    /// Force an EBF refresh (normally piggybacked automatically).
    pub fn refresh_ebf(&self) -> Result<()> {
        let mut inner = self.inner.lock();
        self.refresh_ebf_locked(&mut inner)
    }

    fn refresh_ebf_locked(&self, inner: &mut ClientInner) -> Result<()> {
        let (ebf, at) = self.service.fetch_ebf()?;
        inner.ebf = ebf;
        inner.ebf_at = at;
        inner.session.on_ebf_refresh();
        self.metrics.ebf_refreshes.fetch_add(1, Ordering::Relaxed);
        Ok(())
    }

    fn maybe_refresh_ebf(&self, inner: &mut ClientInner) -> Result<()> {
        if self.config.use_ebf && self.clock.now().since(inner.ebf_at) >= self.config.ebf_refresh_ms
        {
            self.refresh_ebf_locked(inner)?;
        }
        Ok(())
    }

    /// Probe the staleness filter for `key`, honouring the per-table-EBF
    /// option (each partition refreshes on its own Δ schedule).
    fn filter_says_stale(&self, inner: &mut ClientInner, table: &str, key: &str) -> Result<bool> {
        if !self.config.use_ebf {
            return Ok(false);
        }
        if self.config.per_table_ebf {
            let now = self.clock.now();
            let needs_refresh = inner
                .table_ebfs
                .get(table)
                .is_none_or(|(_, at)| now.since(*at) >= self.config.ebf_refresh_ms);
            if needs_refresh {
                let (flat, at) = self.service.fetch_ebf_partition(table)?;
                inner.table_ebfs.insert(table.to_owned(), (flat, at));
                // Whitelist entries belong to the previous filter
                // generation; clearing is conservative and safe.
                inner.session.on_ebf_refresh();
                self.metrics.ebf_refreshes.fetch_add(1, Ordering::Relaxed);
            }
            Ok(inner.table_ebfs[table].0.contains(key.as_bytes()))
        } else {
            Ok(inner.ebf.contains(key.as_bytes()))
        }
    }

    /// Decide the fetch mode for a key under the current EBF and session
    /// state. Returns (mode, counts_as_revalidation).
    fn decide_mode(
        &self,
        inner: &mut ClientInner,
        table: &str,
        key: &str,
        consistency: Consistency,
    ) -> Result<(FetchMode, bool)> {
        if consistency == Consistency::Strong {
            return Ok((FetchMode::Bypass, true));
        }
        let stale =
            self.filter_says_stale(inner, table, key)? && !inner.session.whitelist.contains(key);
        if stale {
            return Ok((FetchMode::Revalidate, true));
        }
        if consistency == Consistency::Causal && inner.session.read_newer_than_ebf {
            // "Every read happening before the next EBF refresh is turned
            // into a revalidation." (§3.2, option 2)
            return Ok((FetchMode::Revalidate, true));
        }
        Ok((FetchMode::CachedLoad, false))
    }

    fn note_freshness(&self, inner: &mut ClientInner, entry: &CacheEntry, revalidated: bool) {
        // Data stored after the EBF was generated is "newer than the EBF".
        if revalidated || entry.stored_at > inner.ebf_at {
            inner.session.read_newer_than_ebf = true;
        }
    }

    // ---- reads -----------------------------------------------------------

    /// Read one record with the client's default consistency.
    pub fn read_record(&self, table: &str, id: &str) -> Result<ReadOutcome> {
        self.read_record_with(table, id, self.config.consistency)
    }

    /// Read one record at an explicit consistency level.
    pub fn read_record_with(
        &self,
        table: &str,
        id: &str,
        consistency: Consistency,
    ) -> Result<ReadOutcome> {
        let key = QueryKey::record(table, id);
        let mut inner = self.inner.lock();
        self.maybe_refresh_ebf(&mut inner)?;
        let (mode, revalidated) = self.decide_mode(&mut inner, table, key.as_str(), consistency)?;
        if revalidated {
            self.metrics.revalidations.fetch_add(1, Ordering::Relaxed);
        }
        let (entry, served_by) = self.fetch_record(table, id, key.as_str(), mode)?;
        self.metrics.count(false, served_by);

        // Monotonic reads: never step backwards; a regressed version
        // triggers a revalidation that fetches a fresh copy.
        let mut entry = entry;
        let mut served = served_by;
        if inner.session.observe_version(key.as_str(), entry.etag) {
            // A cache (e.g. an out-of-date CDN edge) served an older
            // version than this session already saw. The stale copy may
            // survive at intermediate layers, so the repair bypasses all
            // of them and refreshes the chain with the origin copy.
            let (fresh, sb) = self.fetch_record(table, id, key.as_str(), FetchMode::Bypass)?;
            self.metrics.revalidations.fetch_add(1, Ordering::Relaxed);
            inner.session.observe_version(key.as_str(), fresh.etag);
            entry = fresh;
            served = sb;
        }
        if revalidated || served == ServedBy::Origin {
            inner.session.whitelist.insert(key.as_str().to_owned());
        }
        self.note_freshness(&mut inner, &entry, revalidated);
        let doc = parse_doc(&entry.body)?;
        Ok(ReadOutcome {
            doc,
            version: entry.etag,
            served_by: served,
            revalidated,
        })
    }

    fn fetch_record(
        &self,
        table: &str,
        id: &str,
        key: &str,
        mode: FetchMode,
    ) -> Result<(CacheEntry, ServedBy)> {
        let now = self.clock.now();
        let captured: RefCell<Option<Result<RecordResponse>>> = RefCell::new(None);
        let outcome = self.hierarchy.fetch(key, now, mode, || {
            let resp = self.service.get_record(table, id);
            match resp {
                Ok(r) => {
                    let entry = CacheEntry::new(r.body.clone(), r.etag, now, r.ttl_ms);
                    *captured.borrow_mut() = Some(Ok(r));
                    entry
                }
                Err(e) => {
                    *captured.borrow_mut() = Some(Err(e));
                    // A dummy uncacheable entry; the error is propagated
                    // below and the entry (ttl 0) is never stored.
                    CacheEntry::new(bytes::Bytes::new(), 0, now, 0)
                }
            }
        });
        if let Some(Err(e)) = captured.into_inner() {
            return Err(e);
        }
        Ok((outcome.entry, outcome.served_by))
    }

    /// Execute a query with the client's default consistency.
    pub fn query(&self, query: &Query) -> Result<QueryOutcome> {
        self.query_with(query, self.config.consistency)
    }

    /// Execute a query at an explicit consistency level.
    pub fn query_with(&self, query: &Query, consistency: Consistency) -> Result<QueryOutcome> {
        let key = QueryKey::of(query);
        let mut inner = self.inner.lock();
        self.maybe_refresh_ebf(&mut inner)?;
        let (mode, revalidated) =
            self.decide_mode(&mut inner, &query.table, key.as_str(), consistency)?;
        if revalidated {
            self.metrics.revalidations.fetch_add(1, Ordering::Relaxed);
        }
        let now = self.clock.now();
        let captured: RefCell<Option<Result<QueryResponse>>> = RefCell::new(None);
        let outcome = self.hierarchy.fetch(key.as_str(), now, mode, || {
            let resp = self.service.query(query);
            match resp {
                Ok(r) => {
                    let entry = CacheEntry::new(r.body.clone(), r.etag, now, r.ttl_ms);
                    *captured.borrow_mut() = Some(Ok(r));
                    entry
                }
                Err(e) => {
                    *captured.borrow_mut() = Some(Err(e));
                    CacheEntry::new(bytes::Bytes::new(), 0, now, 0)
                }
            }
        });
        let origin_resp = match captured.into_inner() {
            Some(Err(e)) => return Err(e),
            Some(Ok(r)) => Some(r),
            None => None,
        };
        self.metrics.count(true, outcome.served_by);
        if revalidated || outcome.served_by == ServedBy::Origin {
            inner.session.whitelist.insert(key.as_str().to_owned());
        }
        self.note_freshness(&mut inner, &outcome.entry, revalidated);
        drop(inner); // record fetches below re-lock per record

        // Assemble the result. Origin responses carry the docs; cached
        // bodies are parsed, and id-lists are assembled record by record
        // (each an independent cached fetch with its own EBF check).
        if let Some(resp) = origin_resp {
            // "All records in a result are inserted into the cache as
            // individual entries, thus causing read cache hits by side
            // effect" (§6.2): each member becomes its own cache entry
            // with its own ETag. Only clients with a private cache do so.
            let mut inner = self.inner.lock();
            for ((id, version), doc) in resp
                .ids
                .iter()
                .zip(&resp.versions)
                .zip(&resp.docs)
                .filter(|_| self.config.use_browser_cache)
            {
                let rkey = QueryKey::record(&query.table, id);
                let body = record_body(doc);
                self.browser.put(
                    rkey.as_str(),
                    CacheEntry::new(body, *version, self.clock.now(), resp.ttl_ms),
                );
                inner.session.observe_version(rkey.as_str(), *version);
            }
            drop(inner);
            return Ok(QueryOutcome {
                // Documents decoded off the wire are this response's own:
                // move them out. Only shared ones (an in-process origin
                // hands out the store's) are copied.
                docs: resp
                    .docs
                    .into_iter()
                    .map(|d| Arc::try_unwrap(d).unwrap_or_else(|d| (*d).clone()))
                    .collect(),
                etag: resp.etag,
                served_by: outcome.served_by,
                record_fetches: Vec::new(),
                revalidated,
            });
        }
        let body = parse_body(&outcome.entry.body)?;
        match body {
            ParsedBody::Objects(docs) => Ok(QueryOutcome {
                docs,
                etag: outcome.entry.etag,
                served_by: outcome.served_by,
                record_fetches: Vec::new(),
                revalidated,
            }),
            ParsedBody::Ids(ids) => {
                let mut docs = Vec::with_capacity(ids.len());
                let mut fetches = Vec::with_capacity(ids.len());
                for id in &ids {
                    let r = self.read_record_with(&query.table, id, consistency)?;
                    fetches.push(r.served_by);
                    docs.push(r.doc);
                }
                Ok(QueryOutcome {
                    docs,
                    etag: outcome.entry.etag,
                    served_by: outcome.served_by,
                    record_fetches: fetches,
                    revalidated,
                })
            }
        }
    }

    // ---- writes ------------------------------------------------------------

    /// Insert a record; caches the result locally (read-your-writes).
    pub fn insert(&self, table: &str, id: &str, doc: Document) -> Result<()> {
        let (version, image) = self.service.insert(table, id, doc)?;
        self.cache_own_write(table, id, version, &image);
        Ok(())
    }

    /// Partially update a record; caches the after-image locally.
    pub fn update(&self, table: &str, id: &str, update: &Update) -> Result<()> {
        let (version, image) = self.service.update(table, id, update)?;
        self.cache_own_write(table, id, version, &image);
        Ok(())
    }

    /// Replace a record wholesale; caches the after-image locally.
    pub fn replace(&self, table: &str, id: &str, doc: Document) -> Result<()> {
        let (version, image) = self.service.replace(table, id, doc)?;
        self.cache_own_write(table, id, version, &image);
        Ok(())
    }

    /// Delete a record; evicts it locally.
    pub fn delete(&self, table: &str, id: &str) -> Result<()> {
        self.service.delete(table, id)?;
        self.after_own_delete(table, id);
        Ok(())
    }

    fn after_own_delete(&self, table: &str, id: &str) {
        let key = QueryKey::record(table, id);
        self.browser.evict(key.as_str());
        let mut inner = self.inner.lock();
        inner.session.read_newer_than_ebf = true;
    }

    /// Execute several requests in one round trip. Results are reported
    /// per-op, in order; successful writes — including writes inside
    /// nested batches — are absorbed into the session exactly like their
    /// singleton counterparts (read-your-writes holds across batches).
    pub fn batch(&self, requests: Vec<Request>) -> Result<Vec<Result<Response>>> {
        let identities: Vec<BatchIdentity> = requests.iter().map(BatchIdentity::of).collect();
        let results = self.service.batch(requests)?;
        self.absorb_batch_outcomes(&identities, &results)?;
        Ok(results)
    }

    /// Fold successful batch writes into the session (own-write cache,
    /// whitelist, monotonic versions), recursing into nested batches. A
    /// result list whose shape disagrees with what was submitted is a
    /// protocol violation — surfaced as an error rather than silently
    /// dropping read-your-writes for the unmatched tail.
    fn absorb_batch_outcomes(
        &self,
        identities: &[BatchIdentity],
        results: &[Result<Response>],
    ) -> Result<()> {
        if identities.len() != results.len() {
            return Err(Error::Internal(format!(
                "protocol violation: batch returned {} results for {} requests",
                results.len(),
                identities.len()
            )));
        }
        for (identity, result) in identities.iter().zip(results) {
            match (identity, result) {
                (BatchIdentity::Write(table, id), Ok(Response::Written { version, image })) => {
                    self.cache_own_write(table, id, *version, image);
                }
                (BatchIdentity::Write(table, id), Ok(Response::Deleted { .. })) => {
                    self.after_own_delete(table, id);
                }
                (BatchIdentity::Nested(inner), Ok(Response::Batch(inner_results))) => {
                    self.absorb_batch_outcomes(inner, inner_results)?;
                }
                _ => {}
            }
        }
        Ok(())
    }

    /// "Read-your-writes consistency is obtained by having the client
    /// cache its own writes within a session." (§3.2)
    fn cache_own_write(&self, table: &str, id: &str, version: u64, image: &Document) {
        let key = QueryKey::record(table, id);
        let body = record_body(image);
        let now = self.clock.now();
        // Own writes are authoritative: cache with the refresh interval as
        // a conservative local TTL.
        self.browser.put(
            key.as_str(),
            CacheEntry::new(body, version, now, self.config.ebf_refresh_ms.max(1_000)),
        );
        let mut inner = self.inner.lock();
        inner.session.observe_version(key.as_str(), version);
        inner.session.whitelist.insert(key.as_str().to_owned());
        inner.session.read_newer_than_ebf = true;
    }

    /// Subscribe to the real-time change stream of a query (§3.2's
    /// websocket alternative to EBF polling).
    pub fn subscribe(&self, query: &Query) -> Result<quaestor_kv::Subscription> {
        self.service.subscribe(&QueryKey::of(query))
    }
}

/// The write-identity skeleton of a batch request, kept client-side so
/// outcomes can be folded back into the session after dispatch.
enum BatchIdentity {
    /// A write op targeting `(table, id)`.
    Write(String, String),
    /// A nested batch.
    Nested(Vec<BatchIdentity>),
    /// Anything session-neutral (reads, queries, EBF snapshots...).
    Other,
}

impl BatchIdentity {
    fn of(req: &Request) -> BatchIdentity {
        match req {
            Request::Insert { table, id, .. }
            | Request::Update { table, id, .. }
            | Request::Replace { table, id, .. }
            | Request::Delete { table, id } => BatchIdentity::Write(table.clone(), id.clone()),
            Request::Batch(inner) => {
                BatchIdentity::Nested(inner.iter().map(BatchIdentity::of).collect())
            }
            _ => BatchIdentity::Other,
        }
    }
}

enum ParsedBody {
    Objects(Vec<Document>),
    Ids(Vec<String>),
}

fn parse_doc(body: &[u8]) -> Result<Document> {
    match decode_value(body)
        .map_err(|e| Error::Internal(format!("malformed cached record body: {e}")))?
    {
        Value::Object(map) => Ok(map),
        other => Err(Error::Internal(format!(
            "cached record body is not an object: {other}"
        ))),
    }
}

fn parse_body(body: &[u8]) -> Result<ParsedBody> {
    let v = decode_value(body)
        .map_err(|e| Error::Internal(format!("malformed cached query body: {e}")))?;
    let Value::Array(items) = v else {
        return Err(Error::Internal("cached query body is not an array".into()));
    };
    if items.iter().all(|e| matches!(e, Value::Str(_))) && !items.is_empty() {
        Ok(ParsedBody::Ids(
            items
                .into_iter()
                .filter_map(|e| match e {
                    Value::Str(id) => Some(id),
                    _ => None,
                })
                .collect(),
        ))
    } else {
        items
            .into_iter()
            .map(|e| match e {
                Value::Object(map) => Ok(map),
                other => Err(Error::Internal(format!(
                    "query body element is not an object: {other}"
                ))),
            })
            .collect::<Result<_>>()
            .map(ParsedBody::Objects)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_common::{Clock, ManualClock};
    use quaestor_document::doc;
    use quaestor_query::Filter;

    fn setup() -> (
        Arc<QuaestorServer>,
        Arc<InvalidationCache>,
        Arc<ManualClock>,
    ) {
        let clock = ManualClock::new();
        let server = QuaestorServer::with_defaults(clock.clone());
        let cdn = Arc::new(InvalidationCache::new("cdn", 4_096));
        server.register_cdn(cdn.clone());
        (server, cdn, clock)
    }

    fn client(
        server: &Arc<QuaestorServer>,
        cdn: &Arc<InvalidationCache>,
        clock: &Arc<ManualClock>,
    ) -> QuaestorClient {
        QuaestorClient::connect(
            server.clone(),
            std::slice::from_ref(cdn),
            ClientConfig::default(),
            clock.clone(),
        )
    }

    #[test]
    fn second_read_hits_browser_cache() {
        let (server, cdn, clock) = setup();
        server.insert("posts", "p1", doc! { "n" => 1 }).unwrap();
        let c = client(&server, &cdn, &clock);
        let r1 = c.read_record("posts", "p1").unwrap();
        assert_eq!(r1.served_by, ServedBy::Origin);
        let r2 = c.read_record("posts", "p1").unwrap();
        assert_eq!(r2.served_by, ServedBy::Layer(0), "browser hit");
        assert_eq!(r2.doc["n"], Value::Int(1));
    }

    #[test]
    fn two_clients_share_the_cdn() {
        let (server, cdn, clock) = setup();
        server.insert("posts", "p1", doc! { "n" => 1 }).unwrap();
        let a = client(&server, &cdn, &clock);
        let b = client(&server, &cdn, &clock);
        a.read_record("posts", "p1").unwrap();
        let r = b.read_record("posts", "p1").unwrap();
        assert_eq!(r.served_by, ServedBy::Layer(1), "CDN warmed by client A");
    }

    #[test]
    fn stale_query_is_revalidated_after_ebf_refresh() {
        let (server, cdn, clock) = setup();
        server
            .insert("posts", "p1", doc! { "tag" => "hot" })
            .unwrap();
        let c = client(&server, &cdn, &clock);
        let q = Query::table("posts").filter(Filter::eq("tag", "hot"));
        let r1 = c.query(&q).unwrap();
        assert_eq!(r1.docs.len(), 1);
        // Another client's write invalidates the query.
        clock.advance(100);
        server
            .update("posts", "p1", &Update::new().set("tag", "cold"))
            .unwrap();
        // Before the EBF refresh the browser copy would be served; after
        // Δ the refreshed EBF promotes the read to a revalidation.
        clock.advance(1_000);
        let r2 = c.query(&q).unwrap();
        assert!(r2.revalidated, "EBF flagged the query stale");
        assert_eq!(r2.docs.len(), 0, "fresh result observed");
    }

    #[test]
    fn staleness_is_bounded_by_delta() {
        let (server, cdn, clock) = setup();
        server
            .insert("posts", "p1", doc! { "tag" => "hot" })
            .unwrap();
        let c = client(&server, &cdn, &clock);
        let q = Query::table("posts").filter(Filter::eq("tag", "hot"));
        c.query(&q).unwrap();
        clock.advance(10);
        server
            .update("posts", "p1", &Update::new().set("tag", "cold"))
            .unwrap();
        // Within Δ the client may legally serve the stale copy...
        let stale = c.query(&q).unwrap();
        assert_eq!(stale.docs.len(), 1, "within Δ stale reads are allowed");
        // ...but never beyond Δ.
        clock.advance(2_000);
        let fresh = c.query(&q).unwrap();
        assert_eq!(fresh.docs.len(), 0, "Δ-atomicity restored");
    }

    #[test]
    fn read_your_writes() {
        let (server, cdn, clock) = setup();
        let c = client(&server, &cdn, &clock);
        c.insert("posts", "p1", doc! { "n" => 1 }).unwrap();
        c.update("posts", "p1", &Update::new().inc("n", 1.0))
            .unwrap();
        let r = c.read_record("posts", "p1").unwrap();
        assert_eq!(r.doc["n"], Value::Int(2), "own write visible");
        assert_eq!(r.served_by, ServedBy::Layer(0), "served from own cache");
    }

    #[test]
    fn strong_consistency_always_hits_origin() {
        let (server, cdn, clock) = setup();
        server.insert("posts", "p1", doc! { "n" => 1 }).unwrap();
        let c = client(&server, &cdn, &clock);
        c.read_record("posts", "p1").unwrap(); // warm caches
        let r = c
            .read_record_with("posts", "p1", Consistency::Strong)
            .unwrap();
        assert_eq!(r.served_by, ServedBy::Origin);
        assert!(r.revalidated);
    }

    #[test]
    fn causal_promotes_reads_after_own_write() {
        let (server, cdn, clock) = setup();
        server.insert("posts", "p1", doc! { "n" => 1 }).unwrap();
        server.insert("posts", "p2", doc! { "n" => 2 }).unwrap();
        let c = client(&server, &cdn, &clock);
        c.read_record("posts", "p2").unwrap(); // warm p2
                                               // Own write makes the session "newer than the EBF".
        c.update("posts", "p1", &Update::new().inc("n", 1.0))
            .unwrap();
        let r = c
            .read_record_with("posts", "p2", Consistency::Causal)
            .unwrap();
        assert!(
            r.revalidated,
            "causal mode must revalidate after observing post-EBF data"
        );
    }

    #[test]
    fn monotonic_reads_never_regress() {
        let (server, cdn, clock) = setup();
        server.insert("posts", "p1", doc! { "n" => 1 }).unwrap();
        let c = client(&server, &cdn, &clock);
        // Observe v2 directly from the origin.
        server
            .update("posts", "p1", &Update::new().inc("n", 1.0))
            .unwrap();
        let r1 = c
            .read_record_with("posts", "p1", Consistency::Strong)
            .unwrap();
        assert_eq!(r1.version, 2);
        // Poison the CDN with a stale v1 copy (as an out-of-date edge
        // might hold).
        let stale_body =
            bytes::Bytes::from(Value::Object(doc! { "_id" => "p1", "n" => 1 }).canonical());
        cdn.put(
            QueryKey::record("posts", "p1").as_str(),
            CacheEntry::new(stale_body, 1, clock.now(), 60_000),
        );
        c.browser_cache().clear(); // force the next read to the CDN
        let r2 = c.read_record("posts", "p1").unwrap();
        assert!(r2.version >= 2, "monotonic reads repaired the regression");
        assert_eq!(r2.doc["n"], Value::Int(2));
    }

    #[test]
    fn metrics_track_layers() {
        let (server, cdn, clock) = setup();
        server.insert("posts", "p1", doc! { "n" => 1 }).unwrap();
        let c = client(&server, &cdn, &clock);
        c.read_record("posts", "p1").unwrap(); // origin
        c.read_record("posts", "p1").unwrap(); // browser
        let m = c.metrics();
        assert_eq!(m.record_origin.load(Ordering::Relaxed), 1);
        assert_eq!(m.record_client_hits.load(Ordering::Relaxed), 1);
        assert!((m.record_client_hit_rate() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn subscription_receives_change_stream() {
        let (server, cdn, clock) = setup();
        server
            .insert("posts", "p1", doc! { "tag" => "hot" })
            .unwrap();
        let c = client(&server, &cdn, &clock);
        let q = Query::table("posts").filter(Filter::eq("tag", "hot"));
        c.query(&q).unwrap(); // registers the query in InvaliDB
        let sub = c.subscribe(&q).unwrap();
        server
            .update("posts", "p1", &Update::new().set("tag", "cold"))
            .unwrap();
        let msg = sub.try_recv().expect("change notification delivered");
        let text = String::from_utf8(msg.to_vec()).unwrap();
        assert!(text.contains("Remove") && text.contains("p1"), "{text}");
    }

    #[test]
    fn query_members_warm_the_record_cache() {
        // §6.2: "all records in a result are inserted into the cache as
        // individual entries, thus causing read cache hits by side effect".
        let (server, cdn, clock) = setup();
        server
            .insert("posts", "p1", doc! { "tag" => "hot", "n" => 1 })
            .unwrap();
        let c = client(&server, &cdn, &clock);
        let q = Query::table("posts").filter(Filter::eq("tag", "hot"));
        c.query(&q).unwrap();
        let r = c.read_record("posts", "p1").unwrap();
        assert_eq!(
            r.served_by,
            ServedBy::Layer(0),
            "record read must hit the browser cache warmed by the query"
        );
        assert_eq!(r.version, 1, "correct ETag cached");
    }

    #[test]
    fn field_names_with_quotes_survive_cached_bodies() {
        let (server, cdn, clock) = setup();
        let mut d = doc! { "tag" => "hot" };
        d.insert(r#"a"b"#.into(), Value::str(r#"c\d"#));
        let writer = client(&server, &cdn, &clock);
        writer.insert("posts", "p1", d.clone()).unwrap();
        // Own-write cache, then origin, browser and CDN copies for other
        // sessions, for both record and query bodies.
        let own = writer.read_record("posts", "p1").unwrap();
        assert_eq!(own.served_by, ServedBy::Layer(0));
        assert_eq!(own.doc[r#"a"b"#], d[r#"a"b"#]);
        let reader = client(&server, &cdn, &clock);
        let late = client(&server, &cdn, &clock);
        let q = Query::table("posts").filter(Filter::eq("tag", "hot"));
        for (c, expect) in [
            (&reader, ServedBy::Origin),
            (&reader, ServedBy::Layer(0)),
            (&late, ServedBy::Layer(1)),
        ] {
            let r = c.read_record("posts", "p1").unwrap();
            assert_eq!(r.served_by, expect);
            assert_eq!(r.doc[r#"a"b"#], d[r#"a"b"#]);
            let r = c.query(&q).unwrap();
            assert_eq!(r.served_by, expect);
            assert_eq!(r.docs[0][r#"a"b"#], d[r#"a"b"#]);
        }
    }

    #[test]
    fn a_very_deep_cached_body_is_an_error_not_a_stack_overflow() {
        let (server, cdn, clock) = setup();
        server.insert("posts", "p1", doc! { "n" => 1 }).unwrap();
        let c = client(&server, &cdn, &clock);
        let depth = 200_000;
        let body = format!("{}{}", "[".repeat(depth), "]".repeat(depth));
        cdn.put(
            QueryKey::record("posts", "p1").as_str(),
            CacheEntry::new(bytes::Bytes::from(body), 1, clock.now(), 60_000),
        );
        // An uncapped recursive parse overflows a 2 MiB stack here.
        let read = std::thread::scope(|s| {
            std::thread::Builder::new()
                .stack_size(2 << 20)
                .spawn_scoped(s, || c.read_record("posts", "p1").map(|r| r.doc))
                .unwrap()
                .join()
                .unwrap()
        });
        assert!(read.is_err());
    }

    #[test]
    fn per_table_ebf_detects_staleness_in_its_partition() {
        let (server, cdn, clock) = setup();
        server
            .insert("posts", "p1", doc! { "tag" => "hot" })
            .unwrap();
        server
            .insert("users", "u1", doc! { "name" => "ada" })
            .unwrap();
        let cfg = ClientConfig {
            per_table_ebf: true,
            ..ClientConfig::default()
        };
        let c = QuaestorClient::connect(
            server.clone(),
            std::slice::from_ref(&cdn),
            cfg,
            clock.clone(),
        );
        let q = Query::table("posts").filter(Filter::eq("tag", "hot"));
        c.query(&q).unwrap();
        c.read_record("users", "u1").unwrap();
        clock.advance(100);
        server
            .update("posts", "p1", &Update::new().set("tag", "cold"))
            .unwrap();
        clock.advance(1_000);
        // The posts partition flags the query stale...
        let r = c.query(&q).unwrap();
        assert!(r.revalidated);
        assert!(r.docs.is_empty());
        // ...while the users partition stays clean: cached hit, no
        // revalidation.
        let u = c.read_record("users", "u1").unwrap();
        assert!(!u.revalidated);
        assert_eq!(u.served_by, ServedBy::Layer(0));
    }

    #[test]
    fn nested_batch_writes_keep_read_your_writes() {
        let (server, cdn, clock) = setup();
        let c = client(&server, &cdn, &clock);
        c.insert("posts", "p1", doc! { "n" => 1 }).unwrap();
        c.read_record("posts", "p1").unwrap(); // warm the browser cache
        let results = c
            .batch(vec![Request::Batch(vec![
                Request::Update {
                    table: "posts".into(),
                    id: "p1".into(),
                    update: Update::new().inc("n", 1.0),
                },
                Request::Insert {
                    table: "posts".into(),
                    id: "p2".into(),
                    doc: doc! { "n" => 9 },
                },
            ])])
            .unwrap();
        assert!(matches!(results[0], Ok(Response::Batch(_))));
        // Both nested writes must be visible immediately from the own-
        // write cache, not served stale from the pre-batch copy.
        let r1 = c.read_record("posts", "p1").unwrap();
        assert_eq!(r1.doc["n"], Value::Int(2), "nested update absorbed");
        assert_eq!(r1.served_by, ServedBy::Layer(0));
        let r2 = c.read_record("posts", "p2").unwrap();
        assert_eq!(r2.doc["n"], Value::Int(9), "nested insert absorbed");
        assert_eq!(r2.served_by, ServedBy::Layer(0));
    }

    #[test]
    fn uncached_after_delete() {
        let (server, cdn, clock) = setup();
        let c = client(&server, &cdn, &clock);
        c.insert("posts", "p1", doc! { "n" => 1 }).unwrap();
        c.read_record("posts", "p1").unwrap();
        c.delete("posts", "p1").unwrap();
        assert!(c.read_record("posts", "p1").is_err(), "gone is gone");
    }
}
