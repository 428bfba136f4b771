//! The database: a set of named tables sharing one change stream.

use std::sync::Arc;

use parking_lot::RwLock;
use quaestor_common::lock_rank;
use quaestor_common::{ClockRef, Error, FxHashMap, Result, SystemClock};
use quaestor_document::Path;
use quaestor_query::Query;

use crate::changes::{ChangeStream, ChangeSubscription};
use crate::index::IndexKind;
use crate::plan::{QueryStats, QueryStatsRef};
use crate::sink::WriteSink;
use crate::table::{new_sink_slot, SinkSlot, StoredRecord, Table};

/// A multi-table document database.
///
/// All tables publish their writes into one [`ChangeStream`], which is
/// what InvaliDB's changestream-ingestion tasks subscribe to.
pub struct Database {
    tables: RwLock<FxHashMap<String, Arc<Table>>>,
    changes: Arc<ChangeStream>,
    /// The attached durability sink, shared with every table. Swappable
    /// at runtime so recovery can replay *before* attaching the log.
    sink: SinkSlot,
    /// Declarative index specs by table name: applied to the named table
    /// the moment it exists — whether it is created *after* the
    /// declaration or already was (including tables rebuilt by crash
    /// recovery before the application re-declares its indexes).
    index_registry: RwLock<FxHashMap<String, Vec<(Path, IndexKind)>>>,
    /// Planner decision counters shared by every table.
    query_stats: QueryStatsRef,
    clock: ClockRef,
    shards_per_table: usize,
}

impl std::fmt::Debug for Database {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Database")
            .field("tables", &self.tables.read().len())
            .finish()
    }
}

impl Database {
    /// A database on the system clock with the default shard count.
    pub fn new() -> Arc<Database> {
        Self::with_clock(SystemClock::shared())
    }

    /// A database on an explicit clock (virtual time in the simulator).
    pub fn with_clock(clock: ClockRef) -> Arc<Database> {
        Self::with_config(clock, 8)
    }

    /// Full configuration: clock and per-table shard count ("2 shard
    /// servers" in the paper's MongoDB deployment).
    pub fn with_config(clock: ClockRef, shards_per_table: usize) -> Arc<Database> {
        Arc::new(Database {
            tables: RwLock::with_rank(
                FxHashMap::default(),
                lock_rank::STORE_DB_TABLES.0,
                lock_rank::STORE_DB_TABLES.1,
            ),
            changes: Arc::new(ChangeStream::new()),
            sink: new_sink_slot(),
            index_registry: RwLock::with_rank(
                FxHashMap::default(),
                lock_rank::STORE_DB_INDEX_REGISTRY.0,
                lock_rank::STORE_DB_INDEX_REGISTRY.1,
            ),
            query_stats: Arc::new(QueryStats::default()),
            clock,
            shards_per_table,
        })
    }

    /// Attach a durability sink: from now on every write on every table
    /// (existing and future) flows through it *before* acknowledgement,
    /// and new tables are announced via [`WriteSink::table_created`].
    pub fn attach_sink(&self, sink: Arc<dyn WriteSink>) {
        *self.sink.write() = Some(sink);
    }

    /// Create (or return the existing) table named `name`. Indexes
    /// declared for the name via [`declare_index`](Self::declare_index)
    /// are created with the table.
    pub fn create_table(&self, name: &str) -> Arc<Table> {
        if let Some(t) = self.tables.read().get(name) {
            return t.clone();
        }
        let mut created = false;
        let table = {
            let mut tables = self.tables.write();
            tables
                .entry(name.to_owned())
                .or_insert_with(|| {
                    created = true;
                    Arc::new(Table::new(
                        name.to_owned(),
                        self.shards_per_table,
                        self.changes.clone(),
                        self.sink.clone(),
                        self.clock.clone(),
                        self.query_stats.clone(),
                    ))
                })
                .clone()
        };
        if created {
            if let Some(specs) = self.index_registry.read().get(name) {
                for (path, kind) in specs {
                    table.ensure_index(path, *kind);
                }
            }
            // Best-effort metadata: a failed CreateTable frame only means
            // an *empty* table might be absent after recovery — any table
            // with data is reconstructed from its write frames.
            if let Some(sink) = self.sink.read().clone() {
                let _ = sink.table_created(name);
            }
        }
        table
    }

    /// Declare an index over `table`'s `path` (idempotent). Applies to
    /// the table immediately if it exists — including tables just rebuilt
    /// by crash recovery — and to any table of that name created later,
    /// so one declaration site covers fresh and recovered deployments
    /// alike.
    pub fn declare_index(&self, table: &str, path: impl Into<Path>, kind: IndexKind) {
        let path = path.into();
        {
            let mut reg = self.index_registry.write();
            let specs = reg.entry(table.to_owned()).or_default();
            if !specs.iter().any(|(p, k)| *p == path && *k == kind) {
                specs.push((path.clone(), kind));
            }
        }
        // analyze: allow(lock-order) registry write guard is block-scoped above and already released
        if let Some(t) = self.tables.read().get(table).cloned() {
            t.ensure_index(&path, kind);
        }
    }

    /// Planner decision counters, aggregated across all tables.
    pub fn query_stats(&self) -> &QueryStatsRef {
        &self.query_stats
    }

    /// Look up an existing table.
    pub fn table(&self, name: &str) -> Result<Arc<Table>> {
        self.tables
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| Error::UnknownTable(name.to_owned()))
    }

    /// Names of all tables.
    pub fn table_names(&self) -> Vec<String> {
        self.tables.read().keys().cloned().collect()
    }

    /// Execute a query against its table.
    pub fn query(&self, query: &Query) -> Result<Vec<Arc<quaestor_document::Document>>> {
        Ok(self.table(&query.table)?.query(query))
    }

    /// Execute a query against its table, returning each member's primary
    /// key and stored record (see [`Table::query_records`]).
    pub fn query_records(&self, query: &Query) -> Result<Vec<(Arc<str>, StoredRecord)>> {
        Ok(self.table(&query.table)?.query_records(query))
    }

    /// Subscribe to the global change stream (all tables).
    pub fn subscribe_changes(&self) -> ChangeSubscription {
        self.changes.subscribe()
    }

    /// Total record count across tables.
    pub fn total_records(&self) -> usize {
        self.tables.read().values().map(|t| t.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_document::doc;
    use quaestor_query::Filter;

    #[test]
    fn create_table_is_idempotent() {
        let db = Database::new();
        let t1 = db.create_table("posts");
        let t2 = db.create_table("posts");
        assert!(Arc::ptr_eq(&t1, &t2));
    }

    #[test]
    fn unknown_table_errors() {
        let db = Database::new();
        assert!(matches!(db.table("nope"), Err(Error::UnknownTable(_))));
        let q = Query::table("nope");
        assert!(db.query(&q).is_err());
    }

    #[test]
    fn change_stream_spans_tables() {
        let db = Database::new();
        let sub = db.subscribe_changes();
        db.create_table("a").insert("1", doc! { "x" => 1 }).unwrap();
        db.create_table("b").insert("2", doc! { "x" => 2 }).unwrap();
        let events = sub.drain();
        assert_eq!(events.len(), 2);
        let tables: Vec<&str> = events.iter().map(|e| e.table.as_ref()).collect();
        assert!(tables.contains(&"a") && tables.contains(&"b"));
    }

    #[test]
    fn query_routes_to_table() {
        let db = Database::new();
        let t = db.create_table("posts");
        t.insert("p1", doc! { "topic" => "db" }).unwrap();
        t.insert("p2", doc! { "topic" => "ml" }).unwrap();
        let r = db
            .query(&Query::table("posts").filter(Filter::eq("topic", "db")))
            .unwrap();
        assert_eq!(r.len(), 1);
    }

    #[test]
    fn total_records_sums_tables() {
        let db = Database::new();
        db.create_table("a").insert("1", doc! {"x" => 1}).unwrap();
        db.create_table("b").insert("2", doc! {"x" => 1}).unwrap();
        db.create_table("b").insert("3", doc! {"x" => 1}).unwrap();
        assert_eq!(db.total_records(), 3);
        assert_eq!(db.table_names().len(), 2);
    }
}
