//! Optimistic ACID transactions (§3.2).
//!
//! "These optimistic transactions exploit the fact that caching reduces
//! transaction durations and can thereby achieve low abort rates with a
//! variant of backwards-oriented optimistic concurrency control ... the
//! key idea is to collect read sets of transactions in the client and
//! validate them at commit time to detect both violations \[of\]
//! serializability and stale reads."
//!
//! The client accumulates `(table, id, version)` entries for every read
//! (cached reads included — that is the point: reads are fast because they
//! hit caches) and a buffered write set. At commit,
//! [`QuaestorServer::commit`] validates the read set against current
//! versions under a global commit lock and applies the writes atomically.

use parking_lot::Mutex;
use quaestor_common::{lock_rank, Error, Result, Version};
use quaestor_document::{Document, Update};

use crate::server::QuaestorServer;

/// A buffered transactional write.
#[derive(Debug, Clone)]
pub enum WriteOp {
    /// Insert a new record.
    Insert {
        /// Target table.
        table: String,
        /// Primary key.
        id: String,
        /// Document to insert.
        doc: Document,
    },
    /// Apply a partial update.
    Update {
        /// Target table.
        table: String,
        /// Primary key.
        id: String,
        /// Update operators.
        update: Update,
    },
    /// Delete a record.
    Delete {
        /// Target table.
        table: String,
        /// Primary key.
        id: String,
    },
}

/// A client-side transaction: read set + buffered writes.
#[derive(Debug, Default)]
pub struct Transaction {
    reads: Vec<(String, String, Version)>,
    writes: Vec<WriteOp>,
}

impl Transaction {
    /// Begin an empty transaction.
    pub fn new() -> Transaction {
        Transaction::default()
    }

    /// Record a read observation (typically from a cached response's
    /// ETag).
    pub fn observe(&mut self, table: &str, id: &str, version: Version) {
        self.reads.push((table.to_owned(), id.to_owned(), version));
    }

    /// Buffer an insert.
    pub fn insert(&mut self, table: &str, id: &str, doc: Document) {
        self.writes.push(WriteOp::Insert {
            table: table.to_owned(),
            id: id.to_owned(),
            doc,
        });
    }

    /// Buffer an update.
    pub fn update(&mut self, table: &str, id: &str, update: Update) {
        self.writes.push(WriteOp::Update {
            table: table.to_owned(),
            id: id.to_owned(),
            update,
        });
    }

    /// Buffer a delete.
    pub fn delete(&mut self, table: &str, id: &str) {
        self.writes.push(WriteOp::Delete {
            table: table.to_owned(),
            id: id.to_owned(),
        });
    }
}

/// The server-side commit lock: BOCC validates against a stable snapshot,
/// which a single global mutex provides (the paper's scheme validates in
/// the server tier; contention is low because transactions are short).
static COMMIT_LOCK: Mutex<()> =
    Mutex::with_rank((), lock_rank::CORE_COMMIT.0, lock_rank::CORE_COMMIT.1);

impl QuaestorServer {
    /// Validate and atomically apply a transaction.
    ///
    /// Validation: every record in the read set must still be at the
    /// observed version (stale cached reads or concurrent commits abort).
    /// Application: writes run through the normal invalidation pipeline.
    pub fn commit(&self, tx: Transaction) -> Result<()> {
        let _guard = COMMIT_LOCK.lock();
        // Validate.
        for (table, id, version) in &tx.reads {
            let t = self.database().table(table)?;
            let current = t.get(id).map(|r| r.version).unwrap_or(0);
            if current != *version {
                self.metrics().tx_aborts.inc();
                return Err(Error::TransactionAborted(format!(
                    "read of '{table}/{id}' observed v{version}, now v{current}"
                )));
            }
        }
        // Apply. Each write flows through after_write → EBF/InvaliDB/purge.
        for op in tx.writes {
            match op {
                WriteOp::Insert { table, id, doc } => {
                    self.insert(&table, &id, doc)?;
                }
                WriteOp::Update { table, id, update } => {
                    self.update(&table, &id, &update)?;
                }
                WriteOp::Delete { table, id } => {
                    self.delete(&table, &id)?;
                }
            }
        }
        self.metrics().tx_commits.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_common::ManualClock;
    use quaestor_document::doc;

    #[test]
    fn clean_commit_applies_writes() {
        let s = QuaestorServer::with_defaults(ManualClock::new());
        s.insert("t", "a", doc! { "n" => 1 }).unwrap();
        let r = s.get_record("t", "a").unwrap();
        let mut tx = Transaction::new();
        tx.observe("t", "a", r.etag);
        tx.update("t", "a", Update::new().inc("n", 1.0));
        tx.insert("t", "b", doc! { "n" => 5 });
        s.commit(tx).unwrap();
        assert_eq!(
            s.get_record("t", "a").unwrap().doc["n"],
            quaestor_document::Value::Int(2)
        );
        assert!(s.get_record("t", "b").is_ok());
    }

    #[test]
    fn stale_read_aborts() {
        let s = QuaestorServer::with_defaults(ManualClock::new());
        s.insert("t", "a", doc! { "n" => 1 }).unwrap();
        let r = s.get_record("t", "a").unwrap();
        // A concurrent writer bumps the version.
        s.update("t", "a", &Update::new().inc("n", 1.0)).unwrap();
        let mut tx = Transaction::new();
        tx.observe("t", "a", r.etag);
        tx.update("t", "a", Update::new().inc("n", 10.0));
        let err = s.commit(tx).unwrap_err();
        assert!(matches!(err, Error::TransactionAborted(_)));
        // The buffered write was not applied.
        assert_eq!(
            s.get_record("t", "a").unwrap().doc["n"],
            quaestor_document::Value::Int(2)
        );
    }

    #[test]
    fn read_of_deleted_record_aborts() {
        let s = QuaestorServer::with_defaults(ManualClock::new());
        s.insert("t", "a", doc! { "n" => 1 }).unwrap();
        let r = s.get_record("t", "a").unwrap();
        s.delete("t", "a").unwrap();
        let mut tx = Transaction::new();
        tx.observe("t", "a", r.etag);
        assert!(s.commit(tx).is_err());
    }

    #[test]
    fn write_only_transactions_always_commit() {
        let s = QuaestorServer::with_defaults(ManualClock::new());
        let mut tx = Transaction::new();
        tx.insert("t", "x", doc! { "n" => 1 });
        s.commit(tx).unwrap();
        assert_eq!(s.metrics().tx_commits.get(), 1);
    }

    #[test]
    fn committed_writes_invalidate_caches() {
        use quaestor_query::{Filter, Query};
        let s = QuaestorServer::with_defaults(ManualClock::new());
        s.insert("t", "a", doc! { "tag" => "hot" }).unwrap();
        let q = Query::table("t").filter(Filter::eq("tag", "hot"));
        s.query(&q).unwrap();
        let mut tx = Transaction::new();
        tx.update("t", "a", Update::new().set("tag", "cold"));
        s.commit(tx).unwrap();
        let (flat, _) = s.ebf_snapshot();
        assert!(
            flat.contains(quaestor_query::QueryKey::of(&q).as_str().as_bytes()),
            "transactional writes flow through the invalidation pipeline"
        );
    }
}
