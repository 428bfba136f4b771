//! MongoDB-style document model.
//!
//! Quaestor assumes "records to be rich nested documents that are contained
//! in tables" (§2). This crate provides that record model:
//!
//! * [`Value`] — a JSON-like value with a **BSON-style total order** so
//!   that range predicates and `ORDER BY` have well-defined semantics
//!   across types, like MongoDB's comparison rules.
//! * [`Document`] — a record or nested object: one vector of fields
//!   sorted by key, with the methods of an ordered map and **dotted-path**
//!   access (`author.name`, `tags.0`), the addressing scheme MongoDB
//!   predicates use for nested documents.
//! * [`Str`] — the string of keys and string values: immutable, the size
//!   of a `String`, inline up to 22 bytes, so a typical record is one
//!   allocation for its fields plus one per long string or array.
//! * [`update`] — partial update operators (`$set`, `$unset`, `$inc`,
//!   `$push`, `$pull`, `$rename`), matching the "partial updates" operation
//!   class of the paper's workloads (§6.1).
//! * [`canonical`] — the canonical JSON body format below, since records
//!   and query results are served over a REST/HTTP API as cacheable bodies.
//!
//! # Canonical body format
//!
//! Record bodies, object-list and id-list bodies, and the literals inside
//! a normalized query key are canonical JSON. The writer
//! ([`Value::canonical`], [`write_document`], [`write_str`]) and the reader
//! ([`decode_value`]) are one contract:
//!
//! | | writer | reader |
//! |---|---|---|
//! | objects | keys in sorted order, no whitespace | any key order and JSON whitespace; a repeated key keeps its last value |
//! | keys and strings | `"` → `\"`, `\` → `\\`, every other character raw | every JSON escape (`\" \\ \/ \b \f \n \r \t \uXXXX`); a `\u` escape of a surrogate is an error |
//! | control characters | written raw | accepted raw |
//! | integers | decimal | a token with no `.`, `e`, `E`, `+` or `-` after its sign that fits `i64` is `Int`; anything else is parsed as `f64` |
//! | floats | an integral float under 1e15 in magnitude as the integer (`3.0` and `3` share one cache key); others in shortest round-trip form | an integral float comes back as `Int`, which compares equal to it; `NaN` and `inf` render as bare words and do not decode |
//! | nesting | unbounded | more than [`MAX_DECODE_DEPTH`] nested arrays and objects is an error |
//! | UTF-8 | always | validated once, for the whole body |
//!
//! The writer is deterministic, so equal documents produce byte-equal
//! bodies and equal query keys. Keys and ids are escaped like strings,
//! so none can close its own quotes and forge a second field or member.

pub mod canonical;
pub mod document;
pub mod path;
pub mod string;
pub mod update;
pub mod value;

pub use canonical::{decode_value, write_document, write_str, DecodeError, MAX_DECODE_DEPTH};
pub use document::Document;
pub use path::Path;
pub use string::Str;
pub use update::{Update, UpdateOp};
pub use value::Value;
