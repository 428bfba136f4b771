//! Binary encoding of documents, queries and log records.
//!
//! The vendored serde stand-in has no derive machinery, so the WAL speaks
//! a hand-rolled little-endian format: tagged values, length-prefixed
//! strings and containers. The format is *self-delimiting* (every decoder
//! knows exactly how many bytes it consumes), which is what lets the
//! frame layer treat "decoder ran off the end" as a torn tail rather
//! than undefined behaviour.

use std::sync::Arc;

use quaestor_document::{Document, Path, Str, Value};
use quaestor_query::{Filter, Op, Order, Query, SortKey};
use quaestor_store::{WriteEvent, WriteKind};

/// A decode failure. The frame layer maps this to either a tolerated torn
/// tail (at the end of the newest segment) or a hard corruption error.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError(pub String);

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "decode error: {}", self.0)
    }
}

type DResult<T> = Result<T, DecodeError>;

fn err<T>(msg: impl Into<String>) -> DResult<T> {
    Err(DecodeError(msg.into()))
}

/// Cursor over an encoded byte slice.
pub struct Reader<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Reader<'a> {
    /// Read from the start of `buf`.
    pub fn new(buf: &'a [u8]) -> Reader<'a> {
        Reader { buf, pos: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.pos
    }

    fn take(&mut self, n: usize) -> DResult<&'a [u8]> {
        if self.remaining() < n {
            return err(format!("need {n} bytes, have {}", self.remaining()));
        }
        let s = &self.buf[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// `take` into a fixed-size array (for the integer decoders) without
    /// a fallible slice conversion.
    fn take_array<const N: usize>(&mut self) -> DResult<[u8; N]> {
        let s = self.take(N)?;
        let mut out = [0u8; N];
        out.copy_from_slice(s);
        Ok(out)
    }

    /// One byte.
    pub fn u8(&mut self) -> DResult<u8> {
        Ok(self.take(1)?[0])
    }

    /// Little-endian u32.
    pub fn u32(&mut self) -> DResult<u32> {
        Ok(u32::from_le_bytes(self.take_array()?))
    }

    /// Little-endian u64.
    pub fn u64(&mut self) -> DResult<u64> {
        Ok(u64::from_le_bytes(self.take_array()?))
    }

    /// Little-endian i64.
    pub fn i64(&mut self) -> DResult<i64> {
        Ok(i64::from_le_bytes(self.take_array()?))
    }

    /// IEEE-754 f64 from its bit pattern.
    pub fn f64(&mut self) -> DResult<f64> {
        Ok(f64::from_bits(self.u64()?))
    }

    /// Length-prefixed UTF-8 string.
    pub fn str(&mut self) -> DResult<String> {
        self.str_ref().map(str::to_owned)
    }

    /// Length-prefixed UTF-8 string, borrowed from the input.
    fn str_ref(&mut self) -> DResult<&'a str> {
        let n = self.u32()? as usize;
        let bytes = self.take(n)?;
        match std::str::from_utf8(bytes) {
            Ok(s) => Ok(s),
            Err(_) => err("invalid utf-8 in string"),
        }
    }

    /// Length-prefixed raw byte run (the payload-carrying twin of
    /// [`str`](Self::str); used by the wire protocol for opaque bodies
    /// such as serialized responses and Bloom filter bitmaps).
    pub fn bytes(&mut self) -> DResult<&'a [u8]> {
        let n = self.u32()? as usize;
        self.take(n)
    }

    fn count(&mut self, what: &str) -> DResult<usize> {
        let n = self.u32()? as usize;
        // A length prefix can never exceed the bytes that are left; this
        // bounds allocations when decoding garbage.
        if n > self.remaining() {
            return err(format!("{what} count {n} exceeds remaining bytes"));
        }
        Ok(n)
    }
}

/// Append-only encoder; all `put_*` mirror the `Reader` getters.
#[derive(Default)]
pub struct Writer {
    buf: Vec<u8>,
}

impl Writer {
    /// Fresh empty buffer.
    pub fn new() -> Writer {
        Writer::default()
    }

    /// Continue appending to `buf`, keeping what it holds and reusing
    /// its capacity.
    pub fn from_vec(buf: Vec<u8>) -> Writer {
        Writer { buf }
    }

    /// Consume, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// One byte.
    pub fn put_u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Little-endian u32.
    pub fn put_u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian u64.
    pub fn put_u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Little-endian i64.
    pub fn put_i64(&mut self, v: i64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// f64 bit pattern.
    pub fn put_f64(&mut self, v: f64) {
        self.put_u64(v.to_bits());
    }

    /// Length-prefixed UTF-8 string.
    pub fn put_str(&mut self, s: &str) {
        self.put_u32(s.len() as u32);
        self.buf.extend_from_slice(s.as_bytes());
    }

    /// Length-prefixed raw byte run.
    pub fn put_bytes(&mut self, b: &[u8]) {
        self.put_u32(b.len() as u32);
        self.buf.extend_from_slice(b);
    }
}

// ---- Value / Document ----------------------------------------------------

const V_NULL: u8 = 0;
const V_BOOL: u8 = 1;
const V_INT: u8 = 2;
const V_FLOAT: u8 = 3;
const V_STR: u8 = 4;
const V_ARRAY: u8 = 5;
const V_OBJECT: u8 = 6;

/// Encode one [`Value`].
pub fn put_value(w: &mut Writer, v: &Value) {
    match v {
        Value::Null => w.put_u8(V_NULL),
        Value::Bool(b) => {
            w.put_u8(V_BOOL);
            w.put_u8(*b as u8);
        }
        Value::Int(i) => {
            w.put_u8(V_INT);
            w.put_i64(*i);
        }
        Value::Float(f) => {
            w.put_u8(V_FLOAT);
            w.put_f64(*f);
        }
        Value::Str(s) => {
            w.put_u8(V_STR);
            w.put_str(s);
        }
        Value::Array(items) => {
            w.put_u8(V_ARRAY);
            w.put_u32(items.len() as u32);
            for item in items {
                put_value(w, item);
            }
        }
        Value::Object(map) => {
            w.put_u8(V_OBJECT);
            put_document(w, map);
        }
    }
}

/// Hard ceiling on decoder recursion, shared with the canonical JSON
/// reader in `quaestor-document`.
pub use quaestor_document::MAX_DECODE_DEPTH;

pub(crate) fn deeper(depth: usize, what: &str) -> DResult<usize> {
    if depth >= MAX_DECODE_DEPTH {
        return err(format!(
            "{what} nesting exceeds depth cap {MAX_DECODE_DEPTH}"
        ));
    }
    Ok(depth + 1)
}

/// Decode one [`Value`].
pub fn get_value(r: &mut Reader<'_>) -> DResult<Value> {
    get_value_at(r, 0)
}

fn get_value_at(r: &mut Reader<'_>, depth: usize) -> DResult<Value> {
    Ok(match r.u8()? {
        V_NULL => Value::Null,
        V_BOOL => Value::Bool(r.u8()? != 0),
        V_INT => Value::Int(r.i64()?),
        V_FLOAT => Value::Float(r.f64()?),
        V_STR => Value::Str(Str::new(r.str_ref()?)),
        V_ARRAY => {
            let depth = deeper(depth, "value")?;
            let n = r.count("array")?;
            let mut items = Vec::with_capacity(n);
            for _ in 0..n {
                items.push(get_value_at(r, depth)?);
            }
            Value::Array(items)
        }
        V_OBJECT => Value::Object(get_document_at(r, deeper(depth, "value")?)?),
        t => return err(format!("unknown value tag {t}")),
    })
}

/// Encode a [`Document`] (count + sorted key/value pairs).
pub fn put_document(w: &mut Writer, doc: &Document) {
    w.put_u32(doc.len() as u32);
    for (k, v) in doc {
        w.put_str(k);
        put_value(w, v);
    }
}

/// Decode a [`Document`].
pub fn get_document(r: &mut Reader<'_>) -> DResult<Document> {
    get_document_at(r, 0)
}

/// Fields arrive in key order, so each one is appended to a document
/// sized for all of them; keys and strings of up to 22 bytes are built
/// straight from the input. Out-of-order or repeated keys (hostile
/// bytes) still decode: the last value of a key wins.
fn get_document_at(r: &mut Reader<'_>, depth: usize) -> DResult<Document> {
    let n = r.count("document")?;
    // A field takes at least five bytes (a key length and a value tag),
    // which bounds what a count may reserve.
    let mut fields = Vec::with_capacity(n.min(r.remaining() / 5));
    for _ in 0..n {
        let k = Str::new(r.str_ref()?);
        fields.push((k, get_value_at(r, depth)?));
    }
    // Fields written by `put_document` arrive in key order and are kept as
    // they are; any other order is sorted once.
    Ok(fields.into_iter().collect())
}

// ---- Filter / Query ------------------------------------------------------

const OP_EQ: u8 = 0;
const OP_NE: u8 = 1;
const OP_GT: u8 = 2;
const OP_GTE: u8 = 3;
const OP_LT: u8 = 4;
const OP_LTE: u8 = 5;
const OP_IN: u8 = 6;
const OP_NIN: u8 = 7;
const OP_CONTAINS: u8 = 8;
const OP_ALL: u8 = 9;
const OP_EXISTS: u8 = 10;
const OP_SIZE: u8 = 11;
const OP_STARTS_WITH: u8 = 12;

fn put_values(w: &mut Writer, vs: &[Value]) {
    w.put_u32(vs.len() as u32);
    for v in vs {
        put_value(w, v);
    }
}

fn get_values(r: &mut Reader<'_>) -> DResult<Vec<Value>> {
    let n = r.count("value list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_value(r)?);
    }
    Ok(out)
}

fn put_op(w: &mut Writer, op: &Op) {
    match op {
        Op::Eq(v) => {
            w.put_u8(OP_EQ);
            put_value(w, v);
        }
        Op::Ne(v) => {
            w.put_u8(OP_NE);
            put_value(w, v);
        }
        Op::Gt(v) => {
            w.put_u8(OP_GT);
            put_value(w, v);
        }
        Op::Gte(v) => {
            w.put_u8(OP_GTE);
            put_value(w, v);
        }
        Op::Lt(v) => {
            w.put_u8(OP_LT);
            put_value(w, v);
        }
        Op::Lte(v) => {
            w.put_u8(OP_LTE);
            put_value(w, v);
        }
        Op::In(vs) => {
            w.put_u8(OP_IN);
            put_values(w, vs);
        }
        Op::Nin(vs) => {
            w.put_u8(OP_NIN);
            put_values(w, vs);
        }
        Op::Contains(v) => {
            w.put_u8(OP_CONTAINS);
            put_value(w, v);
        }
        Op::All(vs) => {
            w.put_u8(OP_ALL);
            put_values(w, vs);
        }
        Op::Exists(b) => {
            w.put_u8(OP_EXISTS);
            w.put_u8(*b as u8);
        }
        Op::Size(n) => {
            w.put_u8(OP_SIZE);
            w.put_u64(*n as u64);
        }
        Op::StartsWith(s) => {
            w.put_u8(OP_STARTS_WITH);
            w.put_str(s);
        }
    }
}

fn get_op(r: &mut Reader<'_>) -> DResult<Op> {
    Ok(match r.u8()? {
        OP_EQ => Op::Eq(get_value(r)?),
        OP_NE => Op::Ne(get_value(r)?),
        OP_GT => Op::Gt(get_value(r)?),
        OP_GTE => Op::Gte(get_value(r)?),
        OP_LT => Op::Lt(get_value(r)?),
        OP_LTE => Op::Lte(get_value(r)?),
        OP_IN => Op::In(get_values(r)?),
        OP_NIN => Op::Nin(get_values(r)?),
        OP_CONTAINS => Op::Contains(get_value(r)?),
        OP_ALL => Op::All(get_values(r)?),
        OP_EXISTS => Op::Exists(r.u8()? != 0),
        OP_SIZE => Op::Size(r.u64()? as usize),
        OP_STARTS_WITH => Op::StartsWith(r.str()?),
        t => return err(format!("unknown op tag {t}")),
    })
}

const F_TRUE: u8 = 0;
const F_CMP: u8 = 1;
const F_AND: u8 = 2;
const F_OR: u8 = 3;
const F_NOR: u8 = 4;
const F_NOT: u8 = 5;

fn put_filters(w: &mut Writer, fs: &[Filter]) {
    w.put_u32(fs.len() as u32);
    for f in fs {
        put_filter(w, f);
    }
}

fn get_filters(r: &mut Reader<'_>, depth: usize) -> DResult<Vec<Filter>> {
    let n = r.count("filter list")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(get_filter_at(r, depth)?);
    }
    Ok(out)
}

/// Encode a [`Filter`] tree.
pub fn put_filter(w: &mut Writer, f: &Filter) {
    match f {
        Filter::True => w.put_u8(F_TRUE),
        Filter::Cmp(path, op) => {
            w.put_u8(F_CMP);
            w.put_str(path.as_str());
            put_op(w, op);
        }
        Filter::And(fs) => {
            w.put_u8(F_AND);
            put_filters(w, fs);
        }
        Filter::Or(fs) => {
            w.put_u8(F_OR);
            put_filters(w, fs);
        }
        Filter::Nor(fs) => {
            w.put_u8(F_NOR);
            put_filters(w, fs);
        }
        Filter::Not(inner) => {
            w.put_u8(F_NOT);
            put_filter(w, inner);
        }
    }
}

/// Decode a [`Filter`] tree.
pub fn get_filter(r: &mut Reader<'_>) -> DResult<Filter> {
    get_filter_at(r, 0)
}

fn get_filter_at(r: &mut Reader<'_>, depth: usize) -> DResult<Filter> {
    Ok(match r.u8()? {
        F_TRUE => Filter::True,
        F_CMP => {
            let path = Path::new(r.str()?);
            Filter::Cmp(path, get_op(r)?)
        }
        F_AND => Filter::And(get_filters(r, deeper(depth, "filter")?)?),
        F_OR => Filter::Or(get_filters(r, deeper(depth, "filter")?)?),
        F_NOR => Filter::Nor(get_filters(r, deeper(depth, "filter")?)?),
        F_NOT => Filter::Not(Box::new(get_filter_at(r, deeper(depth, "filter")?)?)),
        t => return err(format!("unknown filter tag {t}")),
    })
}

/// Encode a full [`Query`].
pub fn put_query(w: &mut Writer, q: &Query) {
    w.put_str(&q.table);
    put_filter(w, &q.filter);
    w.put_u32(q.sort.len() as u32);
    for key in &q.sort {
        w.put_str(key.path.as_str());
        w.put_u8(matches!(key.order, Order::Desc) as u8);
    }
    match q.limit {
        Some(l) => {
            w.put_u8(1);
            w.put_u64(l as u64);
        }
        None => w.put_u8(0),
    }
    w.put_u64(q.offset as u64);
}

/// Decode a full [`Query`].
// analyze: allow(depth-cap) only the filter recurses, via depth-capped get_filter_at
pub fn get_query(r: &mut Reader<'_>) -> DResult<Query> {
    let table = r.str()?;
    let filter = get_filter(r)?;
    let n = r.count("sort keys")?;
    let mut sort = Vec::with_capacity(n);
    for _ in 0..n {
        let path = Path::new(r.str()?);
        let order = if r.u8()? != 0 {
            Order::Desc
        } else {
            Order::Asc
        };
        sort.push(SortKey { path, order });
    }
    let limit = if r.u8()? != 0 {
        Some(r.u64()? as usize)
    } else {
        None
    };
    let offset = r.u64()? as usize;
    Ok(Query {
        table,
        filter,
        sort,
        limit,
        offset,
    })
}

// ---- WAL records ---------------------------------------------------------

/// One logical record carried by a WAL frame.
#[derive(Debug, Clone, PartialEq)]
pub enum WalRecord {
    /// A write after-image, mirroring [`WriteEvent`] minus the interning.
    Write {
        /// Table name.
        table: String,
        /// Primary key.
        id: String,
        /// Insert / update / delete.
        kind: WriteKind,
        /// After-image (before-image for deletes).
        image: Document,
        /// Record version produced by the write.
        version: u64,
        /// The table's per-write sequence number.
        seq: u64,
        /// Database timestamp of the write (ms).
        at: u64,
    },
    /// A table was created (covers empty tables between snapshots).
    CreateTable {
        /// Table name.
        table: String,
    },
    /// A query was registered with InvaliDB and must be re-registered
    /// after recovery.
    RegisterQuery {
        /// The full query (the normalized key is derivable from it).
        query: Query,
    },
    /// A previously registered query was evicted.
    DeregisterQuery {
        /// The normalized query-key string.
        key: String,
    },
}

const R_WRITE: u8 = 1;
const R_CREATE_TABLE: u8 = 2;
const R_REGISTER_QUERY: u8 = 3;
const R_DEREGISTER_QUERY: u8 = 4;

fn kind_tag(kind: WriteKind) -> u8 {
    match kind {
        WriteKind::Insert => 0,
        WriteKind::Update => 1,
        WriteKind::Delete => 2,
    }
}

impl WalRecord {
    /// Build a `Write` record from a live [`WriteEvent`].
    pub fn from_event(event: &WriteEvent) -> WalRecord {
        WalRecord::Write {
            table: event.table.to_string(),
            id: event.id.to_string(),
            kind: event.kind,
            image: (*event.image).clone(),
            version: event.version,
            seq: event.seq,
            at: event.at.as_millis(),
        }
    }

    /// Reconstruct a [`WriteEvent`] (fresh interned strings).
    pub fn to_event(&self) -> Option<WriteEvent> {
        match self {
            WalRecord::Write {
                table,
                id,
                kind,
                image,
                version,
                seq,
                at,
            } => Some(WriteEvent {
                table: Arc::from(table.as_str()),
                id: Arc::from(id.as_str()),
                kind: *kind,
                image: Arc::new(image.clone()),
                version: *version,
                seq: *seq,
                at: quaestor_common::Timestamp::from_millis(*at),
            }),
            _ => None,
        }
    }

    /// Encode into `w`.
    pub fn encode(&self, w: &mut Writer) {
        match self {
            WalRecord::Write {
                table,
                id,
                kind,
                image,
                version,
                seq,
                at,
            } => {
                w.put_u8(R_WRITE);
                w.put_str(table);
                w.put_str(id);
                w.put_u8(kind_tag(*kind));
                put_document(w, image);
                w.put_u64(*version);
                w.put_u64(*seq);
                w.put_u64(*at);
            }
            WalRecord::CreateTable { table } => {
                w.put_u8(R_CREATE_TABLE);
                w.put_str(table);
            }
            WalRecord::RegisterQuery { query } => {
                w.put_u8(R_REGISTER_QUERY);
                put_query(w, query);
            }
            WalRecord::DeregisterQuery { key } => {
                w.put_u8(R_DEREGISTER_QUERY);
                w.put_str(key);
            }
        }
    }

    /// Decode from `r`.
    pub fn decode(r: &mut Reader<'_>) -> DResult<WalRecord> {
        Ok(match r.u8()? {
            R_WRITE => {
                let table = r.str()?;
                let id = r.str()?;
                let kind = match r.u8()? {
                    0 => WriteKind::Insert,
                    1 => WriteKind::Update,
                    2 => WriteKind::Delete,
                    t => return err(format!("unknown write kind {t}")),
                };
                let image = get_document(r)?;
                let version = r.u64()?;
                let seq = r.u64()?;
                let at = r.u64()?;
                WalRecord::Write {
                    table,
                    id,
                    kind,
                    image,
                    version,
                    seq,
                    at,
                }
            }
            R_CREATE_TABLE => WalRecord::CreateTable { table: r.str()? },
            R_REGISTER_QUERY => WalRecord::RegisterQuery {
                query: get_query(r)?,
            },
            R_DEREGISTER_QUERY => WalRecord::DeregisterQuery { key: r.str()? },
            t => return err(format!("unknown record tag {t}")),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use quaestor_document::doc;

    fn roundtrip_value(v: &Value) -> Value {
        let mut w = Writer::new();
        put_value(&mut w, v);
        let bytes = w.into_bytes();
        let mut r = Reader::new(&bytes);
        let back = get_value(&mut r).unwrap();
        assert_eq!(r.remaining(), 0, "decoder must consume exactly");
        back
    }

    #[test]
    fn value_roundtrips_preserve_numeric_type() {
        // Unlike the canonical-JSON path, the binary codec must keep
        // Int/Float distinct: 3 and 3.0 compare equal but replaying a
        // document should restore the exact variant written.
        let v = Value::Int(3);
        assert!(matches!(roundtrip_value(&v), Value::Int(3)));
        let v = Value::Float(3.0);
        assert!(matches!(roundtrip_value(&v), Value::Float(f) if f == 3.0));
    }

    #[test]
    fn document_roundtrip() {
        let d = doc! {
            "title" => "a \"quoted\" title",
            "likes" => 42,
            "score" => 1.5,
            "tags" => vec!["a", "b"],
            "nested" => Value::Object(doc! { "x" => Value::Null })
        };
        let mut w = Writer::new();
        put_document(&mut w, &d);
        let bytes = w.into_bytes();
        let back = get_document(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(d, back);
    }

    /// One workload document as `put_document` writes it. The WAL,
    /// snapshots and the wire share this encoding, so it must not move
    /// with the in-memory document layout.
    const GOLDEN_WORKLOAD_DOCUMENT: &str = concat!(
        "05000000", // five fields, in key order
        "030000005f6964040a000000646f6330303030303432", // _id: "doc0000042"
        "0800000063617465676f7279022a00000000000000", // category: 42
        "07000000636f756e746572020000000000000000", // counter: 0
        "070000007061796c6f616404200000003965333737396239376634613763313566333963633036303563656463383334",
        "0400000074616773050200000004050000007461673432040400000074616736", // tags
    );

    #[test]
    fn a_workload_document_encodes_to_the_golden_bytes() {
        let d = doc! {
            "category" => 42,
            "counter" => 0,
            "payload" => "9e3779b97f4a7c15f39cc0605cedc834",
            "tags" => vec!["tag42", "tag6"],
            "_id" => "doc0000042"
        };
        let mut w = Writer::new();
        put_document(&mut w, &d);
        let bytes = w.into_bytes();
        let hex: String = bytes.iter().map(|b| format!("{b:02x}")).collect();
        assert_eq!(hex, GOLDEN_WORKLOAD_DOCUMENT);
        assert_eq!(get_document(&mut Reader::new(&bytes)).unwrap(), d);
    }

    #[test]
    fn out_of_order_and_repeated_keys_decode_with_the_last_value() {
        let mut w = Writer::new();
        w.put_u32(3);
        for (k, v) in [("b", 1), ("a", 2), ("b", 3)] {
            w.put_str(k);
            put_value(&mut w, &Value::Int(v));
        }
        let bytes = w.into_bytes();
        let d = get_document(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(d, doc! { "a" => 2, "b" => 3 });
        assert_eq!(d.keys().collect::<Vec<_>>(), ["a", "b"]);
    }

    /// A document whose keys arrive in descending order is sorted once,
    /// not built by inserting each key at the front: at this size the
    /// latter moves about a terabyte of fields.
    #[test]
    fn a_large_document_in_descending_key_order_decodes_in_key_order() {
        let n = 200_000;
        let key = |i: usize| format!("k{i:06}");
        let mut w = Writer::new();
        w.put_u32(n as u32);
        for i in (0..n).rev() {
            w.put_str(&key(i));
            put_value(&mut w, &Value::Int(i as i64));
        }
        let bytes = w.into_bytes();
        let d = get_document(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(d.len(), n);
        assert!(d.keys().zip(d.keys().skip(1)).all(|(a, b)| a < b));
        assert!(d
            .iter()
            .enumerate()
            .all(|(i, (k, v))| *k == key(i) && *v == Value::Int(i as i64)));
    }

    #[test]
    fn query_roundtrip_preserves_key() {
        use quaestor_query::QueryKey;
        let q = Query::table("posts")
            .filter(Filter::and([
                Filter::contains("tags", "example"),
                Filter::not(Filter::eq("hidden", true)),
                Filter::is_in("kind", [Value::str("a"), Value::str("b")]),
                Filter::starts_with("title", "He"),
            ]))
            .sort_by("likes", Order::Desc)
            .limit(20)
            .offset(5);
        let mut w = Writer::new();
        put_query(&mut w, &q);
        let bytes = w.into_bytes();
        let back = get_query(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(q, back);
        assert_eq!(QueryKey::of(&q), QueryKey::of(&back));
    }

    #[test]
    fn wal_record_roundtrip() {
        let records = vec![
            WalRecord::Write {
                table: "posts".into(),
                id: "p1".into(),
                kind: WriteKind::Update,
                image: doc! { "_id" => "p1", "likes" => 3 },
                version: 7,
                seq: 42,
                at: 1_000,
            },
            WalRecord::CreateTable {
                table: "empty".into(),
            },
            WalRecord::RegisterQuery {
                query: Query::table("posts").filter(Filter::eq("topic", "db")),
            },
            WalRecord::DeregisterQuery {
                key: "posts?{}".into(),
            },
        ];
        for rec in &records {
            let mut w = Writer::new();
            rec.encode(&mut w);
            let bytes = w.into_bytes();
            let back = WalRecord::decode(&mut Reader::new(&bytes)).unwrap();
            assert_eq!(*rec, back);
        }
    }

    #[test]
    fn truncated_input_is_an_error_not_a_panic() {
        let rec = WalRecord::Write {
            table: "posts".into(),
            id: "p1".into(),
            kind: WriteKind::Insert,
            image: doc! { "x" => 1 },
            version: 1,
            seq: 1,
            at: 0,
        };
        let mut w = Writer::new();
        rec.encode(&mut w);
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            assert!(
                WalRecord::decode(&mut Reader::new(&bytes[..cut])).is_err(),
                "prefix of {cut} bytes must not decode"
            );
        }
    }

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1e12f64..1e12).prop_map(Value::Float),
            "[a-z\"\\\\]{0,8}".prop_map(Value::str),
        ];
        leaf.prop_recursive(3, 16, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                proptest::collection::btree_map("[a-z]{1,4}", inner, 0..4)
                    .prop_map(|m| Value::Object(m.into_iter().collect())),
            ]
        })
    }

    proptest! {
        #[test]
        fn arbitrary_values_roundtrip(v in arb_value()) {
            prop_assert_eq!(roundtrip_value(&v), v);
        }

        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = WalRecord::decode(&mut Reader::new(&bytes));
            let _ = get_value(&mut Reader::new(&bytes));
        }
    }
}
