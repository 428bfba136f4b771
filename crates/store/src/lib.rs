//! Sharded document store — the MongoDB substitute.
//!
//! Quaestor "is agnostic of its underlying database system" (§2); what it
//! requires from the database is exactly what this crate provides:
//!
//! * **Tables of nested documents** with versioned CRUD and partial
//!   updates (`quaestor_document::Update`), sharded by hashed primary key
//!   like the paper's MongoDB cluster ("documents were sharded through
//!   their hashed primary key", §6.1).
//! * **Query execution** over single tables (the InvaliDB scope: no joins,
//!   no aggregations) through a cost-aware planner: hash indexes serve
//!   equality predicates, ordered (BTree) indexes serve ranges and
//!   sort/limit pushdown, and a bounded top-k heap replaces full sorts on
//!   `LIMIT` queries — see [`plan`] and `DESIGN.md`.
//! * **Monotonic writes**: a per-record version sequence and a global
//!   sequence number per table; "monotonic writes ... are assumed to be
//!   given by the database" (§3.2).
//! * **After-images with every write**: "InvaliDB continuously matches
//!   record after-images provided with each incoming write operation"
//!   (§4.1). Every insert/update/delete returns a [`WriteEvent`] carrying
//!   the full after-image; the server hands it to InvaliDB.
//! * A **durability seam**: an attachable [`WriteSink`] observes every
//!   write synchronously *before* acknowledgement (how
//!   `quaestor-durability` write-ahead-logs the store), and version-keyed
//!   replay hooks ([`Table::apply_recovered_write`],
//!   [`Table::set_seq_floor`]) let crash recovery rebuild tables
//!   idempotently on the existing `seq` total order.

pub mod database;
pub mod event;
pub mod index;
pub mod plan;
pub mod sink;
pub mod table;

pub use database::Database;
pub use event::{WriteEvent, WriteKind};
pub use index::{HashIndex, IndexKind, OrderedIndex};
pub use plan::{AccessPath, QueryPlan, QueryStats, SortStrategy};
pub use sink::WriteSink;
pub use table::{StoredRecord, Table};
