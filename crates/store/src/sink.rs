//! The durability hook: a synchronous observer on the write path.
//!
//! A [`WriteSink`] is called *inline*, after the in-memory apply but
//! before the write is acknowledged to the caller. That placement is what turns
//! an attached write-ahead log into a real durability guarantee: under an
//! always-fsync policy, a write that returned `Ok` is on disk.
//!
//! The store deliberately knows nothing about logs or files; it only
//! offers the seam. `quaestor-durability` implements the trait.

use quaestor_common::Result;

use crate::event::WriteEvent;

/// A synchronous observer of every write, called before acknowledgement.
///
/// The protocol is two-phase so the expensive half can happen outside
/// the record's critical section: [`append`](WriteSink::append) *stages*
/// the event (called under the record's shard write lock — this is what
/// fixes same-record ordering in the log) and returns a ticket;
/// [`commit`](WriteSink::commit) *makes it durable* per the sink's
/// policy and is called after the lock is released, immediately before
/// the write is acknowledged. Concurrent committers naturally batch: a
/// WAL implementation can fsync once for every ticket staged so far and
/// let the others observe that they are already covered (group commit).
pub trait WriteSink: Send + Sync {
    /// Stage one write event, returning an ordering ticket (the WAL's
    /// LSN). Called while the record's shard lock is held, so
    /// same-record events are staged in apply order. Returning an error
    /// fails the originating operation: the in-memory state has already
    /// advanced, but the caller never sees an acknowledgement, so the
    /// write is *not lost silently* — it is reported as failed and will
    /// be recovered or retried by the application.
    fn append(&self, event: &WriteEvent) -> Result<u64>;

    /// Make the staged event `ticket` durable according to the sink's
    /// policy. Called after the shard lock is released and before the
    /// write is acknowledged. Default: no-op (for observer-only sinks).
    fn commit(&self, ticket: u64) -> Result<()> {
        let _ = ticket;
        Ok(())
    }

    /// A table was created. Default: ignore. Lets a log capture empty
    /// tables that exist between snapshots.
    fn table_created(&self, name: &str) -> Result<()> {
        let _ = name;
        Ok(())
    }
}
