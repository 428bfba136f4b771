//! The event every write returns: what changed, with its after-image.

use std::sync::Arc;

use quaestor_common::{Timestamp, Version};
use quaestor_document::Document;

/// Kind of write that produced an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteKind {
    /// New record created.
    Insert,
    /// Existing record modified (partial update or full replace).
    Update,
    /// Record removed.
    Delete,
}

/// One write operation with its after-image, returned by every write
/// call of [`Table`](crate::Table).
///
/// For deletes the after-image is the *before*-image (the last state of
/// the record) so that InvaliDB can determine which query results the
/// record used to belong to.
#[derive(Debug, Clone)]
pub struct WriteEvent {
    /// Table the write hit. Interned: cloning the event (into InvaliDB's
    /// replay window, or into each notification's record id) bumps a
    /// refcount instead of copying the string.
    pub table: Arc<str>,
    /// Primary key, interned like `table`.
    pub id: Arc<str>,
    /// Insert / update / delete.
    pub kind: WriteKind,
    /// Full document state after the write (before-image for deletes).
    pub image: Arc<Document>,
    /// Version the write produced.
    pub version: Version,
    /// Per-table global sequence number: totally orders all writes on the
    /// table, giving the "global order of all writes" monotonic-writes
    /// relies on.
    pub seq: u64,
    /// Database timestamp of the write.
    pub at: Timestamp,
}
