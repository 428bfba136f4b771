//! Read outcomes: data plus where it came from (for latency accounting).

use quaestor_document::Document;
use quaestor_webcache::ServedBy;

/// Result of a record read.
#[derive(Debug, Clone)]
pub struct ReadOutcome {
    /// The document.
    pub doc: Document,
    /// Record version observed.
    pub version: u64,
    /// Who served it (browser cache / CDN / origin).
    pub served_by: ServedBy,
    /// Whether the EBF forced a revalidation.
    pub revalidated: bool,
}

/// Result of a query read.
#[derive(Debug, Clone)]
pub struct QueryOutcome {
    /// The result documents, in result order.
    pub docs: Vec<Document>,
    /// The result ETag observed (hash over member ids and versions) —
    /// comparable against the server's current ETag for staleness checks.
    pub etag: u64,
    /// Who served the query entry itself.
    pub served_by: ServedBy,
    /// For id-list results: who served each member record fetch (empty
    /// for object-lists, which carry the documents inline).
    pub record_fetches: Vec<ServedBy>,
    /// Whether the EBF forced a revalidation of the query.
    pub revalidated: bool,
}
