//! The cached-body format: the one place that writes and reads the
//! bodies cache layers store.
//!
//! Origin responses carry documents, not bodies. The client renders a
//! body only when a cache layer will store it, and parses one only when a
//! cache layer served it. Three shapes exist, all canonical JSON written
//! by `quaestor_document`'s writer:
//!
//! | key | body |
//! |---|---|
//! | `r:<table>/<id>` | the record, one object ([`record_body`]) |
//! | object-list query | an array of the member records ([`object_list_body`]) |
//! | id-list query | an array of the member ids ([`id_list_body`]) |
//!
//! Every client renders the same bytes for the same documents, so a
//! body written by one session and served to another from a shared CDN
//! parses back to the documents the origin sent.

use std::sync::Arc;

use bytes::Bytes;
use quaestor_common::{Error, Result, Timestamp, Version};
use quaestor_core::{QueryResponse, RecordResponse};
use quaestor_document::{decode_value, write_document, write_str, Document, Str, Value};
use quaestor_ttl::Representation;
use quaestor_webcache::CacheEntry;

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

/// The cache entry of one record stored at `now`: its body, its version
/// as the ETag, and `ttl_ms`.
pub(crate) fn record_entry(
    doc: &Document,
    version: Version,
    now: Timestamp,
    ttl_ms: u64,
) -> CacheEntry {
    CacheEntry::new(record_body(doc), version, now, ttl_ms)
}

/// Copy a finished body into its shared buffer. `Bytes::from(String)`
/// would first shrink the `String` in place, and the spare capacity it
/// cuts off stays behind as heap fragments: with glibc malloc that raised
/// the `update-heavy` benchmark workload's peak RSS by about 6%.
fn freeze(body: &str) -> Bytes {
    Bytes::from(body)
}

/// An origin response as the cache layers see it: a validator, a
/// lifetime, and the body they store.
pub(crate) trait Cacheable {
    /// The ETag.
    fn etag(&self) -> Version;
    /// The freshness lifetime, ms; `0` means no layer may store it.
    fn ttl_ms(&self) -> u64;
    /// The body cache layers store.
    fn render(&self) -> Bytes;
}

impl Cacheable for RecordResponse {
    fn etag(&self) -> Version {
        self.etag
    }

    fn ttl_ms(&self) -> u64 {
        self.ttl_ms
    }

    fn render(&self) -> Bytes {
        record_body(&self.doc)
    }
}

impl Cacheable for QueryResponse {
    fn etag(&self) -> Version {
        self.etag
    }

    fn ttl_ms(&self) -> u64 {
        self.ttl_ms
    }

    fn render(&self) -> Bytes {
        match self.representation {
            Representation::ObjectList => object_list_body(&self.docs),
            Representation::IdList => id_list_body(&self.ids),
        }
    }
}

/// A cached query body, parsed.
pub(crate) enum ParsedBody {
    /// An object-list: the member records.
    Objects(Vec<Document>),
    /// An id-list: the member ids, each fetched as its own record.
    Ids(Vec<Str>),
}

/// Parse a cached record body.
pub(crate) fn parse_doc(body: &[u8]) -> Result<Document> {
    match decode_value(body)
        .map_err(|e| Error::Internal(format!("malformed cached record body: {e}")))?
    {
        Value::Object(map) => Ok(map),
        other => Err(Error::Internal(format!(
            "cached record body is not an object: {other}"
        ))),
    }
}

/// Parse a cached query body. A non-empty array of strings is an
/// id-list; anything else must be an array of records.
pub(crate) fn parse_body(body: &[u8]) -> Result<ParsedBody> {
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
}
