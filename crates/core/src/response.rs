//! Cacheable origin responses.
//!
//! A response carries only what the client cannot derive from its own
//! request. The client knows the cache key (it built the request) and
//! renders the cached body itself from the documents, so neither crosses
//! the wire: see `quaestor_client::body`, the one owner of the cached-body
//! format.

use std::fmt::Write;
use std::sync::Arc;

use quaestor_common::{fx_hash_bytes, Version};
use quaestor_document::Document;
use quaestor_ttl::Representation;

/// An origin response for one record read.
#[derive(Debug, Clone)]
pub struct RecordResponse {
    /// Version validator (the record version).
    pub etag: Version,
    /// Estimated freshness lifetime, ms. Every cache layer stores the
    /// record under it.
    pub ttl_ms: u64,
    /// The record itself.
    pub doc: Arc<Document>,
}

/// An origin response for one query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Version validator (hash over member ids+versions).
    pub etag: Version,
    /// Estimated freshness lifetime, ms. `0` means the query was not
    /// admitted for caching (capacity manager): no layer may store it.
    pub ttl_ms: u64,
    /// The representation cache layers store: the member documents
    /// (object-list) or only their ids (id-list).
    pub representation: Representation,
    /// Member record ids, in result order.
    pub ids: Vec<String>,
    /// Member record versions, aligned with `ids`. Lets the SDK insert
    /// each member into its own cache as an individual entry ("all
    /// records in a result are inserted into the cache as individual
    /// entries, thus causing read cache hits by side effect", §6.2).
    pub versions: Vec<Version>,
    /// Member documents, aligned with `ids`, for both representations:
    /// the caller needs no second round trip, and the client caches
    /// each member from them.
    pub docs: Vec<Arc<Document>>,
}

/// ETag for a query result: a stable hash over the `id:version;` text of
/// its `(id, version)` pairs.
pub fn result_etag<'a>(pairs: impl IntoIterator<Item = (&'a str, Version)>) -> Version {
    let mut acc = String::new();
    for (id, v) in pairs {
        acc.push_str(id);
        acc.push(':');
        // Writing into a `String` cannot fail.
        let _ = write!(acc, "{v}");
        acc.push(';');
    }
    fx_hash_bytes(acc.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn etag_changes_with_versions() {
        let a = result_etag([("x", 1u64)]);
        let b = result_etag([("x", 2u64)]);
        let c = result_etag([("y", 1u64)]);
        assert_ne!(a, b);
        assert_ne!(a, c);
        let a2 = result_etag([("x", 1u64)]);
        assert_eq!(a, a2, "deterministic");
        // The hash input is the `id:version;` text of every pair.
        assert_eq!(
            result_etag([("a", 7u64), ("b", 12_345_678_901)]),
            fx_hash_bytes(b"a:7;b:12345678901;")
        );
    }
}
