//! A single table (collection) of documents.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::RwLock;
use quaestor_common::lock_rank;
use quaestor_common::{fx_hash_str, ClockRef, Error, FxHashMap, Result, Timestamp, Version};
use quaestor_document::{Document, Path, Update, Value};
use quaestor_query::{matcher, Order, Query, SortKey};

use crate::event::{WriteEvent, WriteKind};
use crate::index::{HashIndex, IndexKind, IndexSet, OrderedIndex, RangeBounds};
use crate::plan::{
    paginate, plan_query, AccessDetail, QueryPlan, QueryStatsRef, SortStrategy, TopK,
};
use crate::sink::WriteSink;
use quaestor_query::Filter;

/// Shared, swappable slot holding the database's attached [`WriteSink`]
/// (one slot per database, cloned into every table).
pub(crate) type SinkSlot = Arc<RwLock<Option<Arc<dyn WriteSink>>>>;

/// A fresh, empty [`SinkSlot`] registered under [`lock_rank::STORE_SINK`]
/// (the alias can't carry the rank through `Default`).
pub(crate) fn new_sink_slot() -> SinkSlot {
    Arc::new(RwLock::with_rank(
        None,
        lock_rank::STORE_SINK.0,
        lock_rank::STORE_SINK.1,
    ))
}

/// A staged-but-not-yet-durable sink ticket; resolved by
/// `Table::commit_pending` after the shard lock is released.
type Pending = Option<(Arc<dyn WriteSink>, u64)>;

/// A stored record: the document plus its version and write timestamp.
#[derive(Debug, Clone)]
pub struct StoredRecord {
    /// The document (shared, immutable snapshot).
    pub doc: Arc<Document>,
    /// Monotonically increasing per-record version; doubles as the ETag.
    pub version: Version,
    /// Time of the last write.
    pub updated_at: Timestamp,
}

#[derive(Default)]
struct Shard {
    /// Keys are interned `Arc<str>` so every returned [`WriteEvent`] can
    /// carry the id by refcount bump instead of a fresh allocation.
    map: FxHashMap<Arc<str>, StoredRecord>,
}

/// A table of documents, sharded by hashed primary key.
///
/// Every mutation method returns the [`WriteEvent`] it produced, with the
/// after-image; the server hands it to InvaliDB.
pub struct Table {
    name: Arc<str>,
    shards: Vec<RwLock<Shard>>,
    indexes: RwLock<IndexSet>,
    stats: QueryStatsRef,
    seq: AtomicU64,
    sink: SinkSlot,
    clock: ClockRef,
}

impl std::fmt::Debug for Table {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Table")
            .field("name", &self.name)
            .field("len", &self.len())
            .finish()
    }
}

impl Table {
    pub(crate) fn new(
        name: String,
        shards: usize,
        sink: SinkSlot,
        clock: ClockRef,
        stats: QueryStatsRef,
    ) -> Table {
        assert!(shards > 0);
        Table {
            name: Arc::from(name),
            shards: (0..shards)
                .map(|_| {
                    RwLock::with_rank(
                        Shard::default(),
                        lock_rank::STORE_SHARD.0,
                        lock_rank::STORE_SHARD.1,
                    )
                })
                .collect(),
            indexes: RwLock::with_rank(
                IndexSet::default(),
                lock_rank::STORE_INDEX.0,
                lock_rank::STORE_INDEX.1,
            ),
            stats,
            seq: AtomicU64::new(0),
            sink,
            clock,
        }
    }

    /// Table name.
    pub fn name(&self) -> &str {
        &self.name
    }

    fn shard(&self, id: &str) -> &RwLock<Shard> {
        let idx = (fx_hash_str(id) % self.shards.len() as u64) as usize;
        &self.shards[idx]
    }

    fn next_seq(&self) -> u64 {
        self.seq.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// Number of records.
    pub fn len(&self) -> usize {
        self.shards.iter().map(|s| s.read().map.len()).sum()
    }

    /// True if the table holds no records.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Declare a hash index over `path` (idempotent). Existing records
    /// are indexed immediately.
    pub fn create_index(&self, path: impl Into<Path>) {
        self.ensure_index(&path.into(), IndexKind::Hash);
    }

    /// Declare an ordered (BTree) index over `path` (idempotent): serves
    /// range predicates and sort pushdown. Existing records are indexed
    /// immediately.
    pub fn create_ordered_index(&self, path: impl Into<Path>) {
        self.ensure_index(&path.into(), IndexKind::Ordered);
    }

    /// Declare an index of `kind` over `path` unless one already exists.
    ///
    /// The build excludes writers by holding *every* shard write lock: a
    /// write that slipped between the backfill scan and the index's
    /// registration would otherwise be missing from the index forever.
    /// Writers take exactly one shard lock, always before the index
    /// lock, so acquiring all of them (and then the index lock) cannot
    /// deadlock against them; readers never hold the index lock across a
    /// shard access.
    pub fn ensure_index(&self, path: &Path, kind: IndexKind) {
        let exists = |idxs: &IndexSet| match kind {
            IndexKind::Hash => idxs.hash_on(path).is_some(),
            IndexKind::Ordered => idxs.ordered_on(path).is_some(),
        };
        if exists(&self.indexes.read()) {
            return;
        }
        let shards: Vec<_> = self.shards.iter().map(|s| s.write()).collect();
        let mut idxs = self.indexes.write();
        if exists(&idxs) {
            return; // raced another declaration of the same index
        }
        let backfill = |insert: &mut dyn FnMut(&Arc<str>, &Document)| {
            for shard in &shards {
                for (id, rec) in &shard.map {
                    insert(id, &rec.doc);
                }
            }
        };
        match kind {
            IndexKind::Hash => {
                let mut idx = HashIndex::new(path.clone());
                backfill(&mut |id, doc| idx.insert(id, doc));
                idxs.hash.push(idx);
            }
            IndexKind::Ordered => {
                let mut idx = OrderedIndex::new(path.clone());
                backfill(&mut |id, doc| idx.insert(id, doc));
                idxs.ordered.push(idx);
            }
        }
    }

    fn index_insert(&self, id: &Arc<str>, doc: &Document) {
        self.indexes.write().insert(id, doc);
    }

    fn index_update(&self, id: &Arc<str>, old: &Document, new: &Document) {
        self.indexes.write().update(id, old, new);
    }

    fn index_remove(&self, id: &str, doc: &Document) {
        self.indexes.write().remove(id, doc);
    }

    /// Build the write's event and stage it with the attached sink. Callers
    /// invoke this while still holding the record's shard write lock:
    /// same-record events must reach the log in *apply order*, or a
    /// delete + re-insert (which resets the version to 1) could replay
    /// as insert-then-delete and lose the acknowledged re-insert. Only
    /// the cheap staging happens under the lock — the fsync half lives
    /// in [`commit_pending`](Self::commit_pending).
    fn stage(
        &self,
        id: Arc<str>,
        kind: WriteKind,
        image: Arc<Document>,
        version: Version,
        at: Timestamp,
    ) -> Result<(WriteEvent, Pending)> {
        // Zero-copy: table name and id travel as refcount bumps.
        let event = WriteEvent {
            table: self.name.clone(),
            id,
            kind,
            image,
            version,
            seq: self.next_seq(),
            at,
        };
        // Durability staging BEFORE acknowledgement: an attached sink
        // (the WAL) sees the event synchronously; if it fails, the
        // caller gets an error instead of an ack. The in-memory apply
        // has already happened — the write is not silently lost, it is
        // *unreported*, exactly what recovery-or-retry semantics need.
        let pending = match self.sink.read().clone() {
            Some(sink) => {
                let ticket = sink.append(&event)?;
                Some((sink, ticket))
            }
            None => None,
        };
        Ok((event, pending))
    }

    /// Second durability phase, run after the shard lock is released:
    /// wait for the staged ticket to be durable per the sink's fsync
    /// policy. Concurrent writers batch here — one fsync covers every
    /// ticket staged before it (group commit).
    fn commit_pending(pending: Pending) -> Result<()> {
        match pending {
            Some((sink, ticket)) => sink.commit(ticket),
            None => Ok(()),
        }
    }

    /// Insert a new record. The document gets an `_id` field set to `id`.
    /// Fails with [`Error::AlreadyExists`] on duplicate primary keys.
    pub fn insert(&self, id: &str, mut doc: Document) -> Result<WriteEvent> {
        doc.insert("_id".to_owned(), Value::str(id));
        let now = self.clock.now();
        let arc = Arc::new(doc);
        let key: Arc<str> = Arc::from(id);
        let mut shard = self.shard(id).write();
        if shard.map.contains_key(id) {
            return Err(Error::AlreadyExists {
                table: self.name.to_string(),
                id: id.to_owned(),
            });
        }
        shard.map.insert(
            key.clone(),
            StoredRecord {
                doc: arc.clone(),
                version: 1,
                updated_at: now,
            },
        );
        self.index_insert(&key, &arc);
        let (event, pending) = self.stage(key, WriteKind::Insert, arc, 1, now)?;
        drop(shard);
        Self::commit_pending(pending)?;
        Ok(event)
    }

    /// Read a record.
    pub fn get(&self, id: &str) -> Option<StoredRecord> {
        self.shard(id).read().map.get(id).cloned()
    }

    /// Apply a partial [`Update`]; returns the event with the after-image.
    /// `expected_version` enables optimistic concurrency (None = last
    /// writer wins).
    pub fn update(
        &self,
        id: &str,
        update: &Update,
        expected_version: Option<Version>,
    ) -> Result<WriteEvent> {
        let now = self.clock.now();
        let mut shard = self.shard(id).write();
        let key = shard
            .map
            .get_key_value(id)
            .map(|(k, _)| k.clone())
            .ok_or_else(|| Error::NotFound {
                table: self.name.to_string(),
                id: id.to_owned(),
            })?;
        let rec = shard.map.get_mut(id).expect("key just resolved");
        if let Some(expected) = expected_version {
            if rec.version != expected {
                return Err(Error::VersionMismatch {
                    table: self.name.to_string(),
                    id: id.to_owned(),
                    expected,
                    actual: rec.version,
                });
            }
        }
        // Apply to a clone so a failed operator leaves the record
        // untouched (atomicity of the update batch).
        let mut doc = (*rec.doc).clone();
        update.apply(&mut doc)?;
        doc.insert("_id".to_owned(), Value::str(id));
        let old = rec.doc.clone();
        let new = Arc::new(doc);
        rec.doc = new.clone();
        rec.version += 1;
        rec.updated_at = now;
        let version = rec.version;
        self.index_update(&key, &old, &new);
        let (event, pending) = self.stage(key, WriteKind::Update, new, version, now)?;
        drop(shard);
        Self::commit_pending(pending)?;
        Ok(event)
    }

    /// Replace the whole document (upsert = false).
    pub fn replace(
        &self,
        id: &str,
        mut doc: Document,
        expected_version: Option<Version>,
    ) -> Result<WriteEvent> {
        doc.insert("_id".to_owned(), Value::str(id));
        let now = self.clock.now();
        let arc = Arc::new(doc);
        let mut shard = self.shard(id).write();
        let key = shard
            .map
            .get_key_value(id)
            .map(|(k, _)| k.clone())
            .ok_or_else(|| Error::NotFound {
                table: self.name.to_string(),
                id: id.to_owned(),
            })?;
        let rec = shard.map.get_mut(id).expect("key just resolved");
        if let Some(expected) = expected_version {
            if rec.version != expected {
                return Err(Error::VersionMismatch {
                    table: self.name.to_string(),
                    id: id.to_owned(),
                    expected,
                    actual: rec.version,
                });
            }
        }
        let old = rec.doc.clone();
        rec.doc = arc.clone();
        rec.version += 1;
        rec.updated_at = now;
        let version = rec.version;
        self.index_update(&key, &old, &arc);
        let (event, pending) = self.stage(key, WriteKind::Update, arc, version, now)?;
        drop(shard);
        Self::commit_pending(pending)?;
        Ok(event)
    }

    /// Delete a record. The event carries the before-image.
    pub fn delete(&self, id: &str, expected_version: Option<Version>) -> Result<WriteEvent> {
        let now = self.clock.now();
        let mut shard = self.shard(id).write();
        let rec = shard.map.get(id).ok_or_else(|| Error::NotFound {
            table: self.name.to_string(),
            id: id.to_owned(),
        })?;
        if let Some(expected) = expected_version {
            if rec.version != expected {
                return Err(Error::VersionMismatch {
                    table: self.name.to_string(),
                    id: id.to_owned(),
                    expected,
                    actual: rec.version,
                });
            }
        }
        let (key, rec) = shard.map.remove_entry(id).unwrap();
        let (old, version) = (rec.doc, rec.version);
        self.index_remove(id, &old);
        let (event, pending) = self.stage(key, WriteKind::Delete, old, version, now)?;
        drop(shard);
        Self::commit_pending(pending)?;
        Ok(event)
    }

    /// Execute a query through the cost-aware planner: hash-index probes
    /// for equality conjuncts, ordered-index range scans for range
    /// conjuncts, sort/limit pushdown where the sort key is
    /// ordered-indexed, bounded top-k otherwise, and the reference shard
    /// scan as the fallback. The chosen plan never changes results: it
    /// returns what the reference scan `scan_query` (built with the
    /// `oracle` feature) returns. See [`explain`](Self::explain) for plan
    /// inspection.
    pub fn query(&self, query: &Query) -> Vec<Arc<Document>> {
        self.execute(query)
            .into_iter()
            .map(|(_, rec)| rec.doc)
            .collect()
    }

    /// [`query`](Self::query) with each member's primary key and stored
    /// record. A member's document and version are read together under
    /// its shard lock, so the version always labels that document, even
    /// while writers race the query.
    pub fn query_records(&self, query: &Query) -> Vec<(Arc<str>, StoredRecord)> {
        self.execute(query)
    }

    /// Ids of all records matching a query (the id-list representation).
    /// Served from the plan's candidate ids directly — no per-document
    /// `_id` field extraction.
    pub fn query_ids(&self, query: &Query) -> Vec<String> {
        self.execute(query)
            .iter()
            .map(|(id, _)| id.to_string())
            .collect()
    }

    /// The plan [`query`](Self::query) would execute right now (plans are
    /// priced against live index cardinalities, so the answer can change
    /// as data and declared indexes change).
    pub fn explain(&self, query: &Query) -> QueryPlan {
        debug_assert_eq!(query.table.as_str(), &*self.name);
        let table_len = self.len();
        let idxs = self.indexes.read();
        plan_query(query, &idxs, table_len).describe
    }

    /// The reference read path: scan every shard, sort the full match
    /// set, then truncate. A test oracle, kept verbatim for differential
    /// tests and the planner-vs-scan benchmarks; real reads go through
    /// [`query`](Self::query).
    #[cfg(any(test, feature = "oracle"))]
    pub fn scan_query(&self, query: &Query) -> Vec<Arc<Document>> {
        debug_assert_eq!(query.table.as_str(), &*self.name);
        let mut hits: Vec<Arc<Document>> = Vec::new();
        for shard in &self.shards {
            let shard = shard.read();
            hits.extend(
                shard
                    .map
                    .values()
                    .filter(|rec| matcher::matches(&query.filter, &rec.doc))
                    .map(|rec| rec.doc.clone()),
            );
        }
        hits.sort_by(|a, b| matcher::compare_docs(a, b, &query.sort));
        paginate(hits, query.offset, query.limit)
    }

    /// Plan and run a query, returning `(id, record)` pairs in result
    /// order.
    fn execute(&self, query: &Query) -> Vec<(Arc<str>, StoredRecord)> {
        debug_assert_eq!(query.table.as_str(), &*self.name);
        // Shard locks must never be taken while holding the index lock
        // (writers hold a shard lock while they update indexes), so the
        // table size is sampled first and candidates leave the index
        // lock as materialized id lists.
        let table_len = self.len();
        enum Candidates {
            Ids(Vec<Arc<str>>),
            Buckets(Vec<Vec<Arc<str>>>),
            Scan,
        }
        let (plan, candidates) = {
            let _plan_span = quaestor_obs::span("store.plan");
            let idxs = self.indexes.read();
            let plan = plan_query(query, &idxs, table_len);
            let candidates = if matches!(plan.detail, AccessDetail::Empty) {
                Candidates::Ids(Vec::new())
            } else if let SortStrategy::IndexOrder { path, reverse } = &plan.describe.sort {
                let (bounds, include_absent) = match &plan.detail {
                    AccessDetail::RangeScan { bounds, .. } => (bounds.as_range_bounds(), false),
                    // Sort pushdown over a full scan: every document is
                    // in the sort key's index (absent ones sort as Null).
                    _ => (RangeBounds::all(), true),
                };
                // With no residual predicate every candidate is a match,
                // so collection itself can stop at `offset + limit`.
                let max_ids = if matches!(query.filter, Filter::True) {
                    query.limit.map(|l| query.offset.saturating_add(l))
                } else {
                    None
                };
                match idxs.ordered_on(path) {
                    Some(idx) => Candidates::Buckets(idx.buckets_in_order(
                        bounds,
                        *reverse,
                        include_absent,
                        max_ids,
                    )),
                    None => Candidates::Scan,
                }
            } else {
                match &plan.detail {
                    AccessDetail::HashProbe { bindings } => {
                        Candidates::Ids(Self::hash_probe(&idxs, bindings))
                    }
                    AccessDetail::RangeScan { path, bounds } => match idxs.ordered_on(path) {
                        Some(idx) => Candidates::Ids(idx.range_ids(bounds.as_range_bounds())),
                        None => Candidates::Scan,
                    },
                    AccessDetail::FullScan => Candidates::Scan,
                    AccessDetail::Empty => unreachable!("handled above"),
                }
            };
            (plan, candidates)
        };
        self.stats.record_access(&plan.describe.access);

        let _query_span = quaestor_obs::span("store.query");
        let results = match candidates {
            Candidates::Buckets(buckets) => self.emit_in_order(query, buckets),
            Candidates::Ids(ids) => {
                let hits: Vec<(Arc<str>, StoredRecord)> = ids
                    .into_iter()
                    .filter_map(|id| self.get(&id).map(|rec| (id, rec)))
                    .filter(|(_, rec)| matcher::matches(&query.filter, &rec.doc))
                    .collect();
                self.order_hits(query, &plan.describe.sort, hits)
            }
            Candidates::Scan => self.scan_and_order(query, &plan.describe.sort),
        };
        // Actual result size vs. the plan's estimate: the cost model's
        // report card, aggregated per database.
        self.stats
            .record_cardinality(plan.describe.access.estimated(), results.len());
        results
    }

    /// Intersect the posting lists of all servable equality bindings,
    /// starting from the smallest list (the others answer membership
    /// probes only).
    fn hash_probe(idxs: &IndexSet, bindings: &[(Path, quaestor_document::Value)]) -> Vec<Arc<str>> {
        let mut lists = Vec::with_capacity(bindings.len());
        for (path, value) in bindings {
            match idxs.hash_on(path).and_then(|i| i.lookup(value)) {
                Some(set) => lists.push(set),
                // One pinned value has no postings: nothing can match.
                None => return Vec::new(),
            }
        }
        let Some((base, rest)) = lists.split_first() else {
            return Vec::new();
        };
        base.iter()
            .filter(|id| rest.iter().all(|s| s.contains(*id)))
            .cloned()
            .collect()
    }

    /// Emit matches in ordered-index order, stopping at `offset + limit`.
    /// `buckets` groups candidate ids by equal primary sort key, already
    /// in emission order; within a bucket the full sort spec (remaining
    /// keys, `_id` tie-break) decides.
    fn emit_in_order(
        &self,
        query: &Query,
        buckets: Vec<Vec<Arc<str>>>,
    ) -> Vec<(Arc<str>, StoredRecord)> {
        let want = match query.limit {
            Some(l) => match query.offset.saturating_add(l) {
                0 => return Vec::new(),
                w => w,
            },
            None => usize::MAX,
        };
        let mut seen = 0usize;
        let mut out = Vec::new();
        'buckets: for bucket in buckets {
            let mut hits: Vec<(Arc<str>, StoredRecord)> = bucket
                .into_iter()
                .filter_map(|id| self.get(&id).map(|rec| (id, rec)))
                .filter(|(_, rec)| matcher::matches(&query.filter, &rec.doc))
                .collect();
            hits.sort_by(|a, b| matcher::compare_docs(&a.1.doc, &b.1.doc, &query.sort));
            for hit in hits {
                if seen >= query.offset {
                    out.push(hit);
                }
                seen += 1;
                if seen >= want {
                    // Emission stopped before exhausting the candidates:
                    // the limit was served without sorting the rest.
                    self.stats.record_short_circuit();
                    break 'buckets;
                }
            }
        }
        out
    }

    /// Order an index-produced candidate hit list per the sort strategy.
    fn order_hits(
        &self,
        query: &Query,
        strategy: &SortStrategy,
        mut hits: Vec<(Arc<str>, StoredRecord)>,
    ) -> Vec<(Arc<str>, StoredRecord)> {
        match strategy {
            SortStrategy::TopK { k } => {
                // The hits are already materialized, so carry the record
                // alongside the extracted keys — no re-fetch — but compare
                // on the keys, not by re-resolving paths per comparison.
                let mut tk = TopK::new(*k, |a: &(SortEntry, StoredRecord), b: &_| {
                    compare_entries(&a.0, &b.0, &query.sort)
                });
                for (id, rec) in hits {
                    let entry = sort_entry(id, &rec.doc, &query.sort);
                    tk.push((entry, rec));
                }
                if tk.truncated() {
                    self.stats.record_short_circuit();
                }
                let ordered = tk
                    .into_sorted()
                    .into_iter()
                    .map(|(entry, rec)| (entry.id, rec))
                    .collect();
                paginate(ordered, query.offset, query.limit)
            }
            _ => {
                hits.sort_by(|a, b| matcher::compare_docs(&a.1.doc, &b.1.doc, &query.sort));
                paginate(hits, query.offset, query.limit)
            }
        }
    }

    /// The fallback path: scan every shard, feeding matches straight into
    /// the bounded top-k heap when a limit applies (no O(n) intermediate
    /// hit list, no O(n log n) sort).
    fn scan_and_order(
        &self,
        query: &Query,
        strategy: &SortStrategy,
    ) -> Vec<(Arc<str>, StoredRecord)> {
        let fast_filter = matches!(query.filter, Filter::True);
        match strategy {
            SortStrategy::TopK { k } => {
                // The heap holds only extracted sort keys and ids — not
                // documents — so the n-k losers of a 1M-doc scan cost a few
                // `Value` clones each instead of an `Arc<Document>` clone
                // plus per-comparison path resolution over the full doc.
                // Winners are fetched by id afterwards; a record deleted
                // concurrently between scan and fetch simply drops out, the
                // same as if the scan had run a moment later.
                let mut tk = TopK::new(*k, |a: &SortEntry, b: &SortEntry| {
                    compare_entries(a, b, &query.sort)
                });
                for shard in &self.shards {
                    let shard = shard.read();
                    for (id, rec) in &shard.map {
                        if fast_filter || matcher::matches(&query.filter, &rec.doc) {
                            tk.push(sort_entry(id.clone(), &rec.doc, &query.sort));
                        }
                    }
                }
                if tk.truncated() {
                    self.stats.record_short_circuit();
                }
                let winners = tk
                    .into_sorted()
                    .into_iter()
                    .filter_map(|entry| self.get(&entry.id).map(|rec| (entry.id, rec)))
                    .collect();
                paginate(winners, query.offset, query.limit)
            }
            _ => {
                let mut hits: Vec<(Arc<str>, StoredRecord)> = Vec::new();
                for shard in &self.shards {
                    let shard = shard.read();
                    hits.extend(
                        shard
                            .map
                            .iter()
                            .filter(|(_, rec)| {
                                fast_filter || matcher::matches(&query.filter, &rec.doc)
                            })
                            .map(|(id, rec)| (id.clone(), rec.clone())),
                    );
                }
                hits.sort_by(|a, b| matcher::compare_docs(&a.1.doc, &b.1.doc, &query.sort));
                paginate(hits, query.offset, query.limit)
            }
        }
    }

    // ---- durability hooks ------------------------------------------------

    /// Current value of the per-table write-sequence counter (the `seq`
    /// of the most recent write; 0 if none). Snapshotted by the
    /// durability layer so recovery restores monotonic sequencing.
    pub fn seq(&self) -> u64 {
        self.seq.load(Ordering::SeqCst)
    }

    /// Raise the sequence counter to at least `seq`. Recovery calls this
    /// while replaying so post-recovery writes continue the total order
    /// instead of re-issuing already-logged sequence numbers.
    pub fn set_seq_floor(&self, seq: u64) {
        self.seq.fetch_max(seq, Ordering::SeqCst);
    }

    /// Restore one record exactly as snapshotted: no event is made, no
    /// sink is invoked, version and timestamp are taken verbatim.
    pub fn restore_record(&self, id: &str, doc: Arc<Document>, version: Version, at: Timestamp) {
        let key: Arc<str> = Arc::from(id);
        {
            let mut shard = self.shard(id).write();
            shard.map.insert(
                key.clone(),
                StoredRecord {
                    doc: doc.clone(),
                    version,
                    updated_at: at,
                },
            );
        }
        self.index_insert(&key, &doc);
    }

    /// Replay one logged write during recovery, keyed on the recorded
    /// version (and raising the seq floor to the recorded `seq`): the
    /// event applies only if it is *newer* than the in-memory record, so
    /// replay is idempotent and robust to log frames whose append order
    /// raced the in-memory apply order. No event is made and no sink is
    /// invoked. Returns true if the event changed state.
    pub fn apply_recovered_write(
        &self,
        kind: WriteKind,
        id: &str,
        image: Arc<Document>,
        version: Version,
        seq: u64,
        at: Timestamp,
    ) -> bool {
        self.set_seq_floor(seq);
        match kind {
            WriteKind::Delete => {
                let removed = {
                    let mut shard = self.shard(id).write();
                    match shard.map.get(id) {
                        // A delete tombstone beats any version at or
                        // below it (the delete of v3 logs version 3).
                        Some(rec) if rec.version <= version => {
                            shard.map.remove_entry(id).map(|(_, rec)| rec.doc)
                        }
                        _ => None,
                    }
                };
                match removed {
                    Some(doc) => {
                        self.index_remove(id, &doc);
                        true
                    }
                    None => false,
                }
            }
            WriteKind::Insert | WriteKind::Update => {
                let applied = {
                    let mut shard = self.shard(id).write();
                    match shard.map.get_key_value(id).map(|(k, _)| k.clone()) {
                        Some(key) => {
                            let rec = shard.map.get_mut(id).expect("key just resolved");
                            if rec.version >= version {
                                None
                            } else {
                                let old = rec.doc.clone();
                                rec.doc = image.clone();
                                rec.version = version;
                                rec.updated_at = at;
                                Some((key, Some(old)))
                            }
                        }
                        None => {
                            let key: Arc<str> = Arc::from(id);
                            shard.map.insert(
                                key.clone(),
                                StoredRecord {
                                    doc: image.clone(),
                                    version,
                                    updated_at: at,
                                },
                            );
                            Some((key, None))
                        }
                    }
                };
                match applied {
                    Some((key, Some(old))) => {
                        self.index_update(&key, &old, &image);
                        true
                    }
                    Some((key, None)) => {
                        self.index_insert(&key, &image);
                        true
                    }
                    None => false,
                }
            }
        }
    }

    /// Iterate a snapshot of all records (used for index builds and tests).
    pub fn snapshot(&self) -> Vec<(String, StoredRecord)> {
        let mut out = Vec::with_capacity(self.len());
        for shard in &self.shards {
            let shard = shard.read();
            out.extend(shard.map.iter().map(|(k, v)| (k.to_string(), v.clone())));
        }
        out
    }

    /// Deliberately acquires the index lock and *then* a shard lock —
    /// the exact inversion of the documented shard → index order. Exists
    /// only so the `lockcheck` regression test can prove the runtime
    /// detector fires with both acquisition sites named; compiled solely
    /// under `RUSTFLAGS="--cfg lockcheck"`.
    #[cfg(lockcheck)]
    #[doc(hidden)]
    pub fn seeded_index_then_shard_inversion(&self) {
        let _idxs = self.indexes.read();
        // analyze: allow(lock-order) deliberate seeded inversion; the lockcheck regression test asserts the detector panic
        let _shard = self.shards[0].read();
    }
}

/// A top-k heap entry: the query's sort keys (and the `_id` tie-break)
/// extracted once per candidate. Heap comparisons become plain `Value`
/// comparisons instead of repeated dotted-path resolution over the
/// document, and the scan path's heap holds no documents at all.
struct SortEntry {
    keys: Box<[Value]>,
    id_key: Value,
    id: Arc<str>,
}

/// Extract `doc`'s sort keys per `sort`; absent paths become `Null`,
/// exactly as [`matcher::compare_docs`] resolves them.
fn sort_entry(id: Arc<str>, doc: &Document, sort: &[SortKey]) -> SortEntry {
    let keys = sort
        .iter()
        .map(|key| {
            matcher::resolve_path(doc, &key.path)
                .cloned()
                .unwrap_or(Value::Null)
        })
        .collect();
    SortEntry {
        keys,
        id_key: doc.get("_id").cloned().unwrap_or(Value::Null),
        id,
    }
}

/// [`matcher::compare_docs`] over pre-extracted keys: same per-key
/// Asc/Desc handling, same `_id`-value tie-break, so the top-k paths
/// stay byte-identical with the reference full-sort semantics.
fn compare_entries(a: &SortEntry, b: &SortEntry, sort: &[SortKey]) -> std::cmp::Ordering {
    for (i, key) in sort.iter().enumerate() {
        let ord = a.keys[i].cmp(&b.keys[i]);
        let ord = match key.order {
            Order::Asc => ord,
            Order::Desc => ord.reverse(),
        };
        if ord != std::cmp::Ordering::Equal {
            return ord;
        }
    }
    a.id_key.cmp(&b.id_key)
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_common::ManualClock;
    use quaestor_document::doc;
    use quaestor_query::{Filter, Order};

    fn table() -> Table {
        Table::new(
            "posts".into(),
            4,
            new_sink_slot(),
            ManualClock::new(),
            QueryStatsRef::default(),
        )
    }

    #[test]
    fn insert_get_roundtrip() {
        let t = table();
        t.insert("p1", doc! { "title" => "hello" }).unwrap();
        let rec = t.get("p1").unwrap();
        assert_eq!(rec.version, 1);
        assert_eq!(rec.doc["title"], Value::str("hello"));
        assert_eq!(rec.doc["_id"], Value::str("p1"), "_id is set");
    }

    #[test]
    fn duplicate_insert_fails() {
        let t = table();
        t.insert("p1", doc! {"a" => 1}).unwrap();
        let err = t.insert("p1", doc! {"a" => 2}).unwrap_err();
        assert_eq!(err.status_code(), 409);
    }

    #[test]
    fn update_bumps_version_and_publishes_after_image() {
        let t = table();
        let first = t.insert("p1", doc! { "likes" => 1 }).unwrap();
        let ev = t
            .update("p1", &Update::new().inc("likes", 1.0), None)
            .unwrap();
        assert_eq!(ev.version, 2);
        assert_eq!(ev.image["likes"], Value::Int(2));
        assert_eq!(first.kind, WriteKind::Insert);
        assert_eq!(ev.kind, WriteKind::Update);
        assert!(first.seq < ev.seq, "sequence is monotonic");
    }

    #[test]
    fn occ_version_check() {
        let t = table();
        t.insert("p1", doc! { "a" => 1 }).unwrap();
        t.update("p1", &Update::new().set("a", 2), Some(1)).unwrap();
        let err = t
            .update("p1", &Update::new().set("a", 3), Some(1))
            .unwrap_err();
        assert!(matches!(err, Error::VersionMismatch { actual: 2, .. }));
    }

    #[test]
    fn failed_update_leaves_record_untouched() {
        let t = table();
        t.insert("p1", doc! { "title" => "post" }).unwrap();
        // $inc on a string fails after... batch containing a valid set too.
        let bad = Update::new().set("x", 1).inc("title", 1.0);
        assert!(t.update("p1", &bad, None).is_err());
        let rec = t.get("p1").unwrap();
        assert_eq!(rec.version, 1);
        assert!(!rec.doc.contains_key("x"), "no partial application");
    }

    #[test]
    fn delete_publishes_before_image() {
        let t = table();
        let first = t.insert("p1", doc! { "title" => "bye" }).unwrap();
        let ev = t.delete("p1", None).unwrap();
        assert_eq!(ev.kind, WriteKind::Delete);
        assert_eq!(ev.image["title"], Value::str("bye"));
        assert!(t.get("p1").is_none());
        assert!(first.seq < ev.seq);
        assert!(t.delete("p1", None).is_err());
    }

    #[test]
    fn query_scan_filters_and_sorts() {
        let t = table();
        for (id, likes) in [("a", 3), ("b", 1), ("c", 2)] {
            t.insert(id, doc! { "likes" => likes }).unwrap();
        }
        let q = Query::table("posts")
            .filter(Filter::gt("likes", 1))
            .sort_by("likes", Order::Desc);
        let r = t.query(&q);
        let likes: Vec<i64> = r.iter().map(|d| d["likes"].as_i64().unwrap()).collect();
        assert_eq!(likes, vec![3, 2]);
    }

    #[test]
    fn query_uses_index_consistently_with_scan() {
        let t = table();
        for i in 0..100 {
            let topic = if i % 3 == 0 { "db" } else { "ml" };
            t.insert(&format!("p{i}"), doc! { "topic" => topic, "n" => i })
                .unwrap();
        }
        let q = Query::table("posts").filter(Filter::and([
            Filter::eq("topic", "db"),
            Filter::gt("n", 50),
        ]));
        let scanned = t.query(&q);
        t.create_index("topic");
        let indexed = t.query(&q);
        assert_eq!(scanned.len(), indexed.len());
        let ids = |v: &Vec<Arc<Document>>| -> Vec<String> {
            v.iter()
                .map(|d| d["_id"].as_str().unwrap().to_owned())
                .collect()
        };
        assert_eq!(ids(&scanned), ids(&indexed));
    }

    #[test]
    fn index_stays_fresh_across_updates_and_deletes() {
        let t = table();
        t.create_index("topic");
        t.insert("p1", doc! { "topic" => "db" }).unwrap();
        t.update("p1", &Update::new().set("topic", "ml"), None)
            .unwrap();
        let q_db = Query::table("posts").filter(Filter::eq("topic", "db"));
        let q_ml = Query::table("posts").filter(Filter::eq("topic", "ml"));
        assert!(t.query(&q_db).is_empty());
        assert_eq!(t.query(&q_ml).len(), 1);
        t.delete("p1", None).unwrap();
        assert!(t.query(&q_ml).is_empty());
    }

    #[test]
    fn query_ids_returns_primary_keys() {
        let t = table();
        t.insert("a", doc! { "x" => 1 }).unwrap();
        t.insert("b", doc! { "x" => 1 }).unwrap();
        let ids = t.query_ids(&Query::table("posts").filter(Filter::eq("x", 1)));
        assert_eq!(ids, vec!["a".to_string(), "b".to_string()]);
    }

    #[test]
    fn offset_limit_pagination() {
        let t = table();
        for i in 0..10 {
            t.insert(&format!("p{i:02}"), doc! { "n" => i }).unwrap();
        }
        let q = Query::table("posts")
            .sort_by("n", Order::Asc)
            .offset(3)
            .limit(4);
        let r = t.query(&q);
        let ns: Vec<i64> = r.iter().map(|d| d["n"].as_i64().unwrap()).collect();
        assert_eq!(ns, vec![3, 4, 5, 6]);
    }

    #[test]
    fn sink_sees_writes_before_ack_and_can_veto() {
        struct Veto(std::sync::atomic::AtomicBool, std::sync::atomic::AtomicU64);
        impl crate::sink::WriteSink for Veto {
            fn append(&self, _event: &WriteEvent) -> Result<u64> {
                let n = self.1.fetch_add(1, Ordering::Relaxed);
                if self.0.load(Ordering::Relaxed) {
                    Err(Error::Io("disk full".into()))
                } else {
                    Ok(n)
                }
            }
        }
        let t = table();
        let sink = Arc::new(Veto(
            std::sync::atomic::AtomicBool::new(false),
            std::sync::atomic::AtomicU64::new(0),
        ));
        *t.sink.write() = Some(sink.clone());
        t.insert("p1", doc! { "a" => 1 }).unwrap();
        assert_eq!(sink.1.load(Ordering::Relaxed), 1, "sink saw the write");
        // Failing sink => the operation errors: no ack, and no event for
        // the caller to fan out.
        sink.0.store(true, Ordering::Relaxed);
        let err = t.insert("p2", doc! { "a" => 2 }).unwrap_err();
        assert_eq!(err.status_code(), 500);
    }

    #[test]
    fn recovery_replay_is_version_keyed_and_idempotent() {
        let t = table();
        t.restore_record(
            "p1",
            Arc::new(doc! { "_id" => "p1", "n" => 1 }),
            2,
            Timestamp::ZERO,
        );
        t.set_seq_floor(2);
        // Stale replay (version 1 < stored 2): no-op.
        assert!(!t.apply_recovered_write(
            WriteKind::Update,
            "p1",
            Arc::new(doc! { "_id" => "p1", "n" => 0 }),
            1,
            1,
            Timestamp::ZERO,
        ));
        assert_eq!(t.get("p1").unwrap().doc["n"], Value::Int(1));
        // Newer replay applies; applying it twice is a no-op the second
        // time (idempotent recovery).
        let img = Arc::new(doc! { "_id" => "p1", "n" => 9 });
        assert!(t.apply_recovered_write(
            WriteKind::Update,
            "p1",
            img.clone(),
            3,
            3,
            Timestamp::from_millis(5),
        ));
        assert!(!t.apply_recovered_write(
            WriteKind::Update,
            "p1",
            img,
            3,
            3,
            Timestamp::from_millis(5),
        ));
        assert_eq!(t.get("p1").unwrap().version, 3);
        assert_eq!(t.seq(), 3, "seq floor follows the replayed frames");
        // Delete tombstone at the current version removes the record.
        assert!(t.apply_recovered_write(
            WriteKind::Delete,
            "p1",
            Arc::new(doc! {}),
            3,
            4,
            Timestamp::from_millis(6),
        ));
        assert!(t.get("p1").is_none());
        // Post-recovery writes continue the sequence past the floor.
        let ev = t.insert("p2", doc! { "x" => 1 }).unwrap();
        assert_eq!(ev.seq, 5);
    }

    #[test]
    fn index_built_under_concurrent_writes_is_complete() {
        // The build takes every shard write lock, so a write can never
        // slip between the backfill scan and the index registration and
        // go missing from the index forever.
        let t = table();
        let t = Arc::new(t);
        std::thread::scope(|s| {
            for w in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..250 {
                        t.insert(&format!("w{w}-{i}"), doc! { "n" => i as i64 })
                            .unwrap();
                    }
                });
            }
            // Declare both kinds mid-stream.
            t.create_ordered_index("n");
            t.create_index("n");
        });
        // Selective windows go through the ordered index; summed, they
        // must account for every written record.
        let mut range_total = 0;
        for lo in (0..250).step_by(50) {
            let q = Query::table("posts").filter(Filter::and([
                Filter::gte("n", lo),
                Filter::lt("n", lo + 50),
            ]));
            assert!(matches!(
                t.explain(&q).access,
                crate::plan::AccessPath::RangeScan { .. }
            ));
            range_total += t.query(&q).len();
        }
        assert_eq!(range_total, 1000, "no write lost by the ordered build");
        // Point probes through the hash index must see all 4 writers.
        let q = Query::table("posts").filter(Filter::eq("n", 123));
        assert!(matches!(
            t.explain(&q).access,
            crate::plan::AccessPath::HashProbe { .. }
        ));
        assert_eq!(t.query(&q).len(), 4, "no write lost by the hash build");
    }

    #[test]
    fn concurrent_inserts_are_safe() {
        let t = table();
        let t = Arc::new(t);
        std::thread::scope(|s| {
            for w in 0..4 {
                let t = t.clone();
                s.spawn(move || {
                    for i in 0..250 {
                        t.insert(&format!("w{w}-{i}"), doc! { "w" => w as i64 })
                            .unwrap();
                    }
                });
            }
        });
        assert_eq!(t.len(), 1000);
    }
}
