//! Binary encoding of the `Service` protocol: every [`Request`],
//! [`Response`] and [`Error`] variant.
//!
//! Builds on the durability crate's hand-rolled little-endian codec
//! ([`quaestor_durability::codec`]) — same `Reader`/`Writer`, same
//! tagged-value document encoding, so a document written to the WAL and
//! a document sent over a socket are byte-identical. This module adds
//! the protocol-layer shapes: requests, typed responses, errors, and
//! the containers (`Batch`) that nest them.
//!
//! Everything is self-delimiting and bounds-checked; decoding untrusted
//! bytes returns a clean [`DecodeError`], never panics, and never
//! allocates more than the input could justify.
//!
//! One variant is special: [`Response::Stream`] carries a live
//! [`quaestor_kv::Subscription`] — a process-local channel endpoint that
//! cannot cross a socket. On the wire it is a **marker**; the stream's
//! messages travel as separate `StreamPush` frames correlated by request
//! id, and the client-side [`RemoteService`](crate::RemoteService)
//! materializes a fresh local subscription fed by those pushes. The
//! decoder therefore returns a [`WireResponse`], which is `Plain` for
//! every self-contained response and `Stream` for the marker.

use std::sync::Arc;

use quaestor_bloom::BloomFilter;
use quaestor_common::{Error, Result, Timestamp};
use quaestor_core::{
    QueryResponse, RecordResponse, ReplRole, ReplicationStatus, Request, Response,
};
use quaestor_document::{Path, Update, UpdateOp};
use quaestor_durability::codec::{
    get_document, get_query, get_value, put_document, put_query, put_value, DecodeError, Reader,
    Writer,
};
use quaestor_obs::{HistogramSummary, MetricsSnapshot, TraceContext};
use quaestor_query::QueryKey;
use quaestor_ttl::Representation;

type DResult<T> = std::result::Result<T, DecodeError>;

fn err<T>(msg: impl Into<String>) -> DResult<T> {
    Err(DecodeError(msg.into()))
}

// ---- Update ---------------------------------------------------------------

const U_SET: u8 = 0;
const U_UNSET: u8 = 1;
const U_INC: u8 = 2;
const U_PUSH: u8 = 3;
const U_PULL: u8 = 4;
const U_RENAME: u8 = 5;

/// Encode an [`Update`] (operator list).
pub fn put_update(w: &mut Writer, update: &Update) {
    let ops = update.ops();
    w.put_u32(ops.len() as u32);
    for op in ops {
        match op {
            UpdateOp::Set(path, value) => {
                w.put_u8(U_SET);
                w.put_str(path.as_str());
                put_value(w, value);
            }
            UpdateOp::Unset(path) => {
                w.put_u8(U_UNSET);
                w.put_str(path.as_str());
            }
            UpdateOp::Inc(path, delta) => {
                w.put_u8(U_INC);
                w.put_str(path.as_str());
                w.put_f64(*delta);
            }
            UpdateOp::Push(path, value) => {
                w.put_u8(U_PUSH);
                w.put_str(path.as_str());
                put_value(w, value);
            }
            UpdateOp::Pull(path, value) => {
                w.put_u8(U_PULL);
                w.put_str(path.as_str());
                put_value(w, value);
            }
            UpdateOp::Rename(from, to) => {
                w.put_u8(U_RENAME);
                w.put_str(from.as_str());
                w.put_str(to.as_str());
            }
        }
    }
}

/// Decode an [`Update`].
// analyze: allow(depth-cap) op count bounded by remaining(); values recurse via depth-capped get_value
pub fn get_update(r: &mut Reader<'_>) -> DResult<Update> {
    let n = {
        let n = r.u32()? as usize;
        if n > r.remaining() {
            return err(format!("update op count {n} exceeds remaining bytes"));
        }
        n
    };
    let mut update = Update::new();
    for _ in 0..n {
        update = match r.u8()? {
            U_SET => {
                let path = Path::new(r.str()?);
                update.set(path, get_value(r)?)
            }
            U_UNSET => update.unset(Path::new(r.str()?)),
            U_INC => {
                let path = Path::new(r.str()?);
                let delta = r.f64()?;
                update.inc(path, delta)
            }
            U_PUSH => {
                let path = Path::new(r.str()?);
                update.push(path, get_value(r)?)
            }
            U_PULL => {
                let path = Path::new(r.str()?);
                update.pull(path, get_value(r)?)
            }
            U_RENAME => {
                let from = Path::new(r.str()?);
                let to = Path::new(r.str()?);
                update.rename(from, to)
            }
            t => return err(format!("unknown update op tag {t}")),
        };
    }
    Ok(update)
}

// ---- Request --------------------------------------------------------------

const RQ_GET_RECORD: u8 = 0;
const RQ_QUERY: u8 = 1;
const RQ_INSERT: u8 = 2;
const RQ_UPDATE: u8 = 3;
const RQ_REPLACE: u8 = 4;
const RQ_DELETE: u8 = 5;
const RQ_EBF: u8 = 6;
const RQ_BATCH: u8 = 7;
const RQ_SUBSCRIBE: u8 = 8;
const RQ_FLUSH: u8 = 9;
const RQ_REPL_STATUS: u8 = 10;
const RQ_PROMOTE: u8 = 11;
const RQ_METRICS: u8 = 12;

// ---- body-prefix tags -----------------------------------------------------
//
// Optional, additive metadata riding in front of an encoded request:
// `[tag u8][len u8][payload; len]`, repeated. Tags occupy `0xF0..=0xFF`
// — disjoint from every request kind tag — so a tagged body is
// unambiguous, and a decoder that does not understand a tag skips
// exactly `len` bytes. This is how the trace context crosses the wire
// without a frame version bump.

/// Lowest byte value reserved for body-prefix tags.
const BODY_TAG_MIN: u8 = 0xF0;
/// The trace-context tag: 17-byte payload
/// `[trace_id u64][span_id u64][sampled u8]`.
pub const BODY_TAG_TRACE: u8 = 0xF0;
const TRACE_PAYLOAD_LEN: usize = 17;

/// Split any body-prefix tags off `body`, parsing the ones we know.
/// Unknown tags (and known tags with unexpected lengths) are skipped —
/// additive evolution: older peers never sent tags, newer peers may
/// send tags this build has never heard of.
fn split_body_tags(body: &[u8]) -> DResult<(Option<TraceContext>, &[u8])> {
    let mut ctx = None;
    let mut rest = body;
    while let [tag, len, payload @ ..] = rest {
        if *tag < BODY_TAG_MIN {
            break;
        }
        let len = *len as usize;
        if payload.len() < len {
            return err(format!(
                "body tag {tag:#04x} claims {len} payload bytes, {} remain",
                payload.len()
            ));
        }
        let (p, after) = payload.split_at(len);
        if *tag == BODY_TAG_TRACE && len == TRACE_PAYLOAD_LEN {
            let mut r = Reader::new(p);
            ctx = Some(TraceContext {
                trace_id: r.u64()?,
                span_id: r.u64()?,
                sampled: r.u8()? != 0,
            });
        }
        rest = after;
    }
    Ok((ctx, rest))
}

fn put_trace_tag(w: &mut Writer, ctx: &TraceContext) {
    w.put_u8(BODY_TAG_TRACE);
    w.put_u8(TRACE_PAYLOAD_LEN as u8);
    w.put_u64(ctx.trace_id);
    w.put_u64(ctx.span_id);
    w.put_u8(ctx.sampled as u8);
}

/// Encode a [`Request`].
pub fn put_request(w: &mut Writer, req: &Request) {
    match req {
        Request::GetRecord { table, id } => {
            w.put_u8(RQ_GET_RECORD);
            w.put_str(table);
            w.put_str(id);
        }
        Request::Query(q) => {
            w.put_u8(RQ_QUERY);
            put_query(w, q);
        }
        Request::Insert { table, id, doc } => {
            w.put_u8(RQ_INSERT);
            w.put_str(table);
            w.put_str(id);
            put_document(w, doc);
        }
        Request::Update { table, id, update } => {
            w.put_u8(RQ_UPDATE);
            w.put_str(table);
            w.put_str(id);
            put_update(w, update);
        }
        Request::Replace { table, id, doc } => {
            w.put_u8(RQ_REPLACE);
            w.put_str(table);
            w.put_str(id);
            put_document(w, doc);
        }
        Request::Delete { table, id } => {
            w.put_u8(RQ_DELETE);
            w.put_str(table);
            w.put_str(id);
        }
        Request::EbfSnapshot { table } => {
            w.put_u8(RQ_EBF);
            match table {
                Some(t) => {
                    w.put_u8(1);
                    w.put_str(t);
                }
                None => w.put_u8(0),
            }
        }
        Request::Batch(reqs) => {
            w.put_u8(RQ_BATCH);
            w.put_u32(reqs.len() as u32);
            for r in reqs {
                put_request(w, r);
            }
        }
        Request::Subscribe { key } => {
            w.put_u8(RQ_SUBSCRIBE);
            w.put_str(key.as_str());
        }
        Request::Flush => w.put_u8(RQ_FLUSH),
        Request::ReplicationStatus => w.put_u8(RQ_REPL_STATUS),
        Request::Promote { epoch } => {
            w.put_u8(RQ_PROMOTE);
            w.put_u64(*epoch);
        }
        Request::Metrics => w.put_u8(RQ_METRICS),
    }
}

/// Hard ceiling on `Batch`-in-`Batch` nesting when decoding untrusted
/// bytes. Real nesting is one or two levels; without a cap, a few KB of
/// crafted batch tags would drive the decoder's recursion to a stack
/// overflow (an abort, not a clean error).
pub const MAX_BATCH_DEPTH: usize = 8;

fn deeper(depth: usize, what: &str) -> DResult<usize> {
    if depth >= MAX_BATCH_DEPTH {
        return err(format!(
            "{what} nesting exceeds depth cap {MAX_BATCH_DEPTH}"
        ));
    }
    Ok(depth + 1)
}

/// Decode a [`Request`].
pub fn get_request(r: &mut Reader<'_>) -> DResult<Request> {
    get_request_at(r, 0)
}

fn get_request_at(r: &mut Reader<'_>, depth: usize) -> DResult<Request> {
    Ok(match r.u8()? {
        RQ_GET_RECORD => Request::GetRecord {
            table: r.str()?,
            id: r.str()?,
        },
        RQ_QUERY => Request::Query(get_query(r)?),
        RQ_INSERT => Request::Insert {
            table: r.str()?,
            id: r.str()?,
            doc: get_document(r)?,
        },
        RQ_UPDATE => {
            let table = r.str()?;
            let id = r.str()?;
            let update = get_update(r)?;
            Request::Update { table, id, update }
        }
        RQ_REPLACE => Request::Replace {
            table: r.str()?,
            id: r.str()?,
            doc: get_document(r)?,
        },
        RQ_DELETE => Request::Delete {
            table: r.str()?,
            id: r.str()?,
        },
        RQ_EBF => Request::EbfSnapshot {
            table: if r.u8()? != 0 { Some(r.str()?) } else { None },
        },
        RQ_BATCH => {
            let depth = deeper(depth, "batch")?;
            let n = r.u32()? as usize;
            if n > r.remaining() {
                return err(format!("batch count {n} exceeds remaining bytes"));
            }
            let mut reqs = Vec::with_capacity(n);
            for _ in 0..n {
                reqs.push(get_request_at(r, depth)?);
            }
            Request::Batch(reqs)
        }
        RQ_SUBSCRIBE => Request::Subscribe {
            key: QueryKey::from_canonical(r.str()?),
        },
        RQ_FLUSH => Request::Flush,
        RQ_REPL_STATUS => Request::ReplicationStatus,
        RQ_PROMOTE => Request::Promote { epoch: r.u64()? },
        RQ_METRICS => Request::Metrics,
        t => return err(format!("unknown request tag {t}")),
    })
}

// ---- Error ----------------------------------------------------------------

const E_UNKNOWN_TABLE: u8 = 0;
const E_NOT_FOUND: u8 = 1;
const E_VERSION_MISMATCH: u8 = 2;
const E_ALREADY_EXISTS: u8 = 3;
const E_BAD_REQUEST: u8 = 4;
const E_TX_ABORTED: u8 = 5;
const E_CAPACITY: u8 = 6;
const E_CLOSED: u8 = 7;
const E_IO: u8 = 8;
const E_NET: u8 = 9;
const E_INTERNAL: u8 = 10;

/// Encode an [`Error`] — service errors cross the process boundary as
/// first-class values, not stringified blobs, so the client sees the
/// same typed error a local call would have produced.
pub fn put_error(w: &mut Writer, e: &Error) {
    match e {
        Error::UnknownTable(t) => {
            w.put_u8(E_UNKNOWN_TABLE);
            w.put_str(t);
        }
        Error::NotFound { table, id } => {
            w.put_u8(E_NOT_FOUND);
            w.put_str(table);
            w.put_str(id);
        }
        Error::VersionMismatch {
            table,
            id,
            expected,
            actual,
        } => {
            w.put_u8(E_VERSION_MISMATCH);
            w.put_str(table);
            w.put_str(id);
            w.put_u64(*expected);
            w.put_u64(*actual);
        }
        Error::AlreadyExists { table, id } => {
            w.put_u8(E_ALREADY_EXISTS);
            w.put_str(table);
            w.put_str(id);
        }
        Error::BadRequest(m) => {
            w.put_u8(E_BAD_REQUEST);
            w.put_str(m);
        }
        Error::TransactionAborted(m) => {
            w.put_u8(E_TX_ABORTED);
            w.put_str(m);
        }
        Error::Capacity(m) => {
            w.put_u8(E_CAPACITY);
            w.put_str(m);
        }
        Error::Closed(m) => {
            w.put_u8(E_CLOSED);
            w.put_str(m);
        }
        Error::Io(m) => {
            w.put_u8(E_IO);
            w.put_str(m);
        }
        Error::Net(m) => {
            w.put_u8(E_NET);
            w.put_str(m);
        }
        Error::Internal(m) => {
            w.put_u8(E_INTERNAL);
            w.put_str(m);
        }
    }
}

/// Decode an [`Error`].
// analyze: allow(depth-cap) flat tag-plus-strings decode, no recursion
pub fn get_error(r: &mut Reader<'_>) -> DResult<Error> {
    Ok(match r.u8()? {
        E_UNKNOWN_TABLE => Error::UnknownTable(r.str()?),
        E_NOT_FOUND => Error::NotFound {
            table: r.str()?,
            id: r.str()?,
        },
        E_VERSION_MISMATCH => Error::VersionMismatch {
            table: r.str()?,
            id: r.str()?,
            expected: r.u64()?,
            actual: r.u64()?,
        },
        E_ALREADY_EXISTS => Error::AlreadyExists {
            table: r.str()?,
            id: r.str()?,
        },
        E_BAD_REQUEST => Error::BadRequest(r.str()?),
        E_TX_ABORTED => Error::TransactionAborted(r.str()?),
        E_CAPACITY => Error::Capacity(r.str()?),
        E_CLOSED => Error::Closed(r.str()?),
        E_IO => Error::Io(r.str()?),
        E_NET => Error::Net(r.str()?),
        E_INTERNAL => Error::Internal(r.str()?),
        t => return err(format!("unknown error tag {t}")),
    })
}

// ---- Response -------------------------------------------------------------

const RS_RECORD: u8 = 0;
const RS_QUERY: u8 = 1;
const RS_WRITTEN: u8 = 2;
const RS_DELETED: u8 = 3;
const RS_EBF: u8 = 4;
const RS_BATCH: u8 = 5;
const RS_STREAM: u8 = 6;
const RS_FLUSHED: u8 = 7;
const RS_REPLICATION: u8 = 8;
const RS_METRICS: u8 = 9;

/// A decoded response: either a self-contained [`Response`], or the
/// marker standing in for [`Response::Stream`] (the live subscription is
/// materialized by the client from `StreamPush` frames).
#[derive(Debug)]
pub enum WireResponse {
    /// Every response variant except `Stream`.
    Plain(Response),
    /// The `Stream` marker: the subscription was accepted.
    Stream,
}

/// Encode a [`Response`].
///
/// `Response::Stream` encodes as a bare marker. A `Stream` *nested in a
/// batch* cannot be correlated to its own push frames (pushes carry the
/// top-level request id), so it is encoded as the error a remote caller
/// will actually experience; the server rejects such requests up front.
pub fn put_response(w: &mut Writer, resp: &Response) {
    match resp {
        Response::Record(rec) => {
            w.put_u8(RS_RECORD);
            put_record_response(w, rec);
        }
        Response::Query(q) => {
            w.put_u8(RS_QUERY);
            put_query_response(w, q);
        }
        Response::Written { version, image } => {
            w.put_u8(RS_WRITTEN);
            w.put_u64(*version);
            put_document(w, image);
        }
        Response::Deleted { version } => {
            w.put_u8(RS_DELETED);
            w.put_u64(*version);
        }
        Response::Ebf { filter, at } => {
            w.put_u8(RS_EBF);
            w.put_bytes(&filter.to_bytes());
            w.put_u64(at.as_millis());
        }
        Response::Batch(results) => {
            w.put_u8(RS_BATCH);
            w.put_u32(results.len() as u32);
            for result in results {
                match result {
                    Ok(Response::Stream(_)) => {
                        w.put_u8(0);
                        put_error(w, &stream_in_batch_error());
                    }
                    Ok(resp) => {
                        w.put_u8(1);
                        put_response(w, resp);
                    }
                    Err(e) => {
                        w.put_u8(0);
                        put_error(w, e);
                    }
                }
            }
        }
        Response::Stream(_) => w.put_u8(RS_STREAM),
        Response::Flushed { lsn } => {
            w.put_u8(RS_FLUSHED);
            w.put_u64(*lsn);
        }
        Response::Replication(status) => {
            w.put_u8(RS_REPLICATION);
            w.put_u8(match status.role {
                ReplRole::Standalone => 0,
                ReplRole::Primary => 1,
                ReplRole::Replica => 2,
            });
            w.put_u64(status.epoch);
            w.put_u64(status.last_lsn);
            w.put_u64(status.durable_lsn);
        }
        Response::Metrics(snap) => {
            w.put_u8(RS_METRICS);
            put_metrics_snapshot(w, snap);
        }
    }
}

fn put_metrics_snapshot(w: &mut Writer, snap: &MetricsSnapshot) {
    w.put_u32(snap.counters.len() as u32);
    for (name, value) in &snap.counters {
        w.put_str(name);
        w.put_u64(*value);
    }
    w.put_u32(snap.gauges.len() as u32);
    for (name, value) in &snap.gauges {
        w.put_str(name);
        w.put_u64(*value);
    }
    w.put_u32(snap.histograms.len() as u32);
    for (name, h) in &snap.histograms {
        w.put_str(name);
        w.put_u64(h.count);
        w.put_u64(h.min);
        w.put_u64(h.max);
        w.put_f64(h.mean);
        w.put_u64(h.p50);
        w.put_u64(h.p95);
        w.put_u64(h.p99);
    }
}

fn get_metrics_snapshot(r: &mut Reader<'_>) -> DResult<MetricsSnapshot> {
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return err(format!("counter count {n} exceeds remaining bytes"));
    }
    let mut counters = Vec::with_capacity(n);
    for _ in 0..n {
        counters.push((r.str()?, r.u64()?));
    }
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return err(format!("gauge count {n} exceeds remaining bytes"));
    }
    let mut gauges = Vec::with_capacity(n);
    for _ in 0..n {
        gauges.push((r.str()?, r.u64()?));
    }
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return err(format!("histogram count {n} exceeds remaining bytes"));
    }
    let mut histograms = Vec::with_capacity(n);
    for _ in 0..n {
        let name = r.str()?;
        histograms.push((
            name,
            HistogramSummary {
                count: r.u64()?,
                min: r.u64()?,
                max: r.u64()?,
                mean: r.f64()?,
                p50: r.u64()?,
                p95: r.u64()?,
                p99: r.u64()?,
            },
        ));
    }
    Ok(MetricsSnapshot {
        counters,
        gauges,
        histograms,
    })
}

/// The error a remote caller sees for a `Subscribe` nested in a `Batch`.
pub fn stream_in_batch_error() -> Error {
    Error::BadRequest(
        "subscribe inside a batch is not supported over the wire \
         (stream pushes correlate to the top-level request id); \
         send the subscribe as its own request"
            .into(),
    )
}

/// Decode a [`Response`]. A nested `Stream` marker inside a batch decodes
/// to the same error the server would have substituted (defense against
/// nonconforming peers).
pub fn get_response(r: &mut Reader<'_>) -> DResult<WireResponse> {
    get_response_at(r, 0)
}

fn get_response_at(r: &mut Reader<'_>, depth: usize) -> DResult<WireResponse> {
    Ok(WireResponse::Plain(match r.u8()? {
        RS_RECORD => Response::Record(get_record_response(r)?),
        RS_QUERY => Response::Query(get_query_response(r)?),
        RS_WRITTEN => Response::Written {
            version: r.u64()?,
            image: Arc::new(get_document(r)?),
        },
        RS_DELETED => Response::Deleted { version: r.u64()? },
        RS_EBF => {
            let filter = match BloomFilter::from_bytes(r.bytes()?) {
                Some(f) => f,
                None => return err("malformed bloom filter bytes"),
            };
            let at = Timestamp::from_millis(r.u64()?);
            Response::Ebf { filter, at }
        }
        RS_BATCH => {
            let depth = deeper(depth, "batch result")?;
            let n = r.u32()? as usize;
            if n > r.remaining() {
                return err(format!("batch result count {n} exceeds remaining bytes"));
            }
            let mut results: Vec<Result<Response>> = Vec::with_capacity(n);
            for _ in 0..n {
                if r.u8()? != 0 {
                    results.push(match get_response_at(r, depth)? {
                        WireResponse::Plain(resp) => Ok(resp),
                        WireResponse::Stream => Err(stream_in_batch_error()),
                    });
                } else {
                    results.push(Err(get_error(r)?));
                }
            }
            Response::Batch(results)
        }
        RS_STREAM => return Ok(WireResponse::Stream),
        RS_FLUSHED => Response::Flushed { lsn: r.u64()? },
        RS_REPLICATION => {
            let role = match r.u8()? {
                0 => ReplRole::Standalone,
                1 => ReplRole::Primary,
                2 => ReplRole::Replica,
                t => return err(format!("unknown replication role tag {t}")),
            };
            Response::Replication(ReplicationStatus {
                role,
                epoch: r.u64()?,
                last_lsn: r.u64()?,
                durable_lsn: r.u64()?,
            })
        }
        RS_METRICS => Response::Metrics(get_metrics_snapshot(r)?),
        t => return err(format!("unknown response tag {t}")),
    }))
}

fn put_record_response(w: &mut Writer, rec: &RecordResponse) {
    w.put_u64(rec.etag);
    w.put_u64(rec.ttl_ms);
    put_document(w, &rec.doc);
}

fn get_record_response(r: &mut Reader<'_>) -> DResult<RecordResponse> {
    Ok(RecordResponse {
        etag: r.u64()?,
        ttl_ms: r.u64()?,
        doc: Arc::new(get_document(r)?),
    })
}

fn put_query_response(w: &mut Writer, q: &QueryResponse) {
    w.put_u64(q.etag);
    w.put_u64(q.ttl_ms);
    w.put_u8(match q.representation {
        Representation::ObjectList => 0,
        Representation::IdList => 1,
    });
    w.put_u32(q.ids.len() as u32);
    for id in &q.ids {
        w.put_str(id);
    }
    w.put_u32(q.versions.len() as u32);
    for v in &q.versions {
        w.put_u64(*v);
    }
    w.put_u32(q.docs.len() as u32);
    for d in &q.docs {
        put_document(w, d);
    }
}

fn get_query_response(r: &mut Reader<'_>) -> DResult<QueryResponse> {
    let etag = r.u64()?;
    let ttl_ms = r.u64()?;
    let representation = match r.u8()? {
        0 => Representation::ObjectList,
        1 => Representation::IdList,
        t => return err(format!("unknown representation tag {t}")),
    };
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return err(format!("id count {n} exceeds remaining bytes"));
    }
    let mut ids = Vec::with_capacity(n);
    for _ in 0..n {
        ids.push(r.str()?);
    }
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return err(format!("version count {n} exceeds remaining bytes"));
    }
    let mut versions = Vec::with_capacity(n);
    for _ in 0..n {
        versions.push(r.u64()?);
    }
    let n = r.u32()? as usize;
    if n > r.remaining() {
        return err(format!("doc count {n} exceeds remaining bytes"));
    }
    let mut docs = Vec::with_capacity(n);
    for _ in 0..n {
        docs.push(Arc::new(get_document(r)?));
    }
    Ok(QueryResponse {
        etag,
        ttl_ms,
        representation,
        ids,
        versions,
        docs,
    })
}

// ---- Convenience: full-message encode helpers -----------------------------

/// Encode a request into a fresh byte vector (the frame body).
pub fn encode_request(req: &Request) -> Vec<u8> {
    let mut w = Writer::new();
    put_request(&mut w, req);
    w.into_bytes()
}

/// Encode a request with an optional trace context riding in front as a
/// body-prefix tag. With `None` the output is byte-identical to
/// [`put_request`].
fn put_request_traced(w: &mut Writer, req: &Request, ctx: Option<TraceContext>) {
    if let Some(ctx) = &ctx {
        put_trace_tag(w, ctx);
    }
    put_request(w, req);
}

/// Replace the contents of `out` with one complete request frame whose
/// body is the request with an optional trace context riding in front
/// as a body-prefix tag (without one, the body is byte-identical to
/// [`encode_request`]). The body is encoded in place behind the frame
/// header, so a caller that keeps `out` allocates nothing per request.
/// A body too large for one frame is refused with its size.
pub fn encode_request_frame(
    request_id: u64,
    req: &Request,
    ctx: Option<TraceContext>,
    out: &mut Vec<u8>,
) -> std::result::Result<(), usize> {
    out.clear();
    let start = crate::wire::begin_frame(crate::wire::FrameKind::Request, request_id, out);
    let mut w = Writer::from_vec(std::mem::take(out));
    put_request_traced(&mut w, req, ctx);
    *out = w.into_bytes();
    crate::wire::finish_frame(out, start)
}

/// Decode a frame body as a request, consuming it exactly. Body-prefix
/// tags (trace context, future metadata) are skipped.
// analyze: allow(depth-cap) thin wrapper over depth-capped get_request
pub fn decode_request(body: &[u8]) -> DResult<Request> {
    Ok(decode_request_traced(body)?.1)
}

/// Decode a frame body as a request, recovering the trace context if
/// the sender attached one.
// analyze: allow(depth-cap) thin wrapper over depth-capped get_request
pub fn decode_request_traced(body: &[u8]) -> DResult<(Option<TraceContext>, Request)> {
    let (ctx, body) = split_body_tags(body)?;
    let mut r = Reader::new(body);
    let req = get_request(&mut r)?;
    if r.remaining() != 0 {
        return err(format!("{} trailing bytes after request", r.remaining()));
    }
    Ok((ctx, req))
}

/// Encode a response into a fresh byte vector (the frame body).
pub fn encode_response(resp: &Response) -> Vec<u8> {
    let mut w = Writer::new();
    put_response(&mut w, resp);
    w.into_bytes()
}

/// Decode a frame body as a response, consuming it exactly.
// analyze: allow(depth-cap) thin wrapper over depth-capped get_response
pub fn decode_response(body: &[u8]) -> DResult<WireResponse> {
    let mut r = Reader::new(body);
    let resp = get_response(&mut r)?;
    if r.remaining() != 0 {
        return err(format!("{} trailing bytes after response", r.remaining()));
    }
    Ok(resp)
}

/// The encoded `Stream` marker (what [`Response::Stream`] becomes on the
/// wire) without needing a live subscription to encode.
pub fn encode_stream_marker() -> Vec<u8> {
    vec![RS_STREAM]
}

/// Encode an error into a fresh byte vector (the frame body).
pub fn encode_error(e: &Error) -> Vec<u8> {
    let mut w = Writer::new();
    put_error(&mut w, e);
    w.into_bytes()
}

/// Decode a frame body as an error, consuming it exactly.
// analyze: allow(depth-cap) thin wrapper over flat get_error
pub fn decode_error(body: &[u8]) -> DResult<Error> {
    let mut r = Reader::new(body);
    let e = get_error(&mut r)?;
    if r.remaining() != 0 {
        return err(format!("{} trailing bytes after error", r.remaining()));
    }
    Ok(e)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use quaestor_document::{doc, Document, Value};
    use quaestor_query::{Filter, Op, Order, Query, SortKey};

    /// The request body `encode_request_frame` frames, staged on its own.
    fn encode_request_traced(req: &Request, ctx: Option<TraceContext>) -> Vec<u8> {
        let mut w = Writer::new();
        put_request_traced(&mut w, req, ctx);
        w.into_bytes()
    }

    // ---- strategies -------------------------------------------------------

    fn arb_value() -> impl Strategy<Value = Value> {
        let leaf = prop_oneof![
            Just(Value::Null),
            any::<bool>().prop_map(Value::Bool),
            any::<i64>().prop_map(Value::Int),
            (-1e12f64..1e12).prop_map(Value::Float),
            "[a-z0-9 ]{0,12}".prop_map(Value::str),
        ];
        leaf.prop_recursive(2, 12, 4, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..4).prop_map(Value::Array),
                proptest::collection::btree_map("[a-z]{1,4}", inner, 0..4)
                    .prop_map(|m| Value::Object(m.into_iter().collect())),
            ]
        })
    }

    fn arb_doc() -> impl Strategy<Value = Document> {
        proptest::collection::btree_map("[a-z_]{1,6}", arb_value(), 0..5)
            .prop_map(|m| m.into_iter().collect())
    }

    fn arb_path() -> impl Strategy<Value = Path> {
        "[a-z]{1,6}(\\.[a-z]{1,4}){0,2}".prop_map(Path::new)
    }

    fn arb_op() -> impl Strategy<Value = Op> {
        prop_oneof![
            arb_value().prop_map(Op::Eq),
            arb_value().prop_map(Op::Ne),
            arb_value().prop_map(Op::Gt),
            arb_value().prop_map(Op::Lte),
            proptest::collection::vec(arb_value(), 0..3).prop_map(Op::In),
            proptest::collection::vec(arb_value(), 0..3).prop_map(Op::All),
            arb_value().prop_map(Op::Contains),
            any::<bool>().prop_map(Op::Exists),
            (0usize..10).prop_map(Op::Size),
            "[a-z]{0,6}".prop_map(Op::StartsWith),
        ]
    }

    fn arb_filter() -> impl Strategy<Value = Filter> {
        let leaf = prop_oneof![
            Just(Filter::True),
            (arb_path(), arb_op()).prop_map(|(p, op)| Filter::Cmp(p, op)),
        ];
        leaf.prop_recursive(2, 8, 3, |inner| {
            prop_oneof![
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Filter::And),
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Filter::Or),
                proptest::collection::vec(inner.clone(), 0..3).prop_map(Filter::Nor),
                inner.prop_map(|f| Filter::Not(Box::new(f))),
            ]
        })
    }

    fn arb_query() -> impl Strategy<Value = Query> {
        (
            "[a-z]{1,8}",
            arb_filter(),
            proptest::collection::vec(
                (arb_path(), any::<bool>()).prop_map(|(path, desc)| SortKey {
                    path,
                    order: if desc { Order::Desc } else { Order::Asc },
                }),
                0..3,
            ),
            proptest::option::of(0usize..1000),
            0usize..100,
        )
            .prop_map(|(table, filter, sort, limit, offset)| Query {
                table,
                filter,
                sort,
                limit,
                offset,
            })
    }

    fn arb_update() -> impl Strategy<Value = Update> {
        proptest::collection::vec(
            prop_oneof![
                (arb_path(), arb_value()).prop_map(|(p, v)| UpdateOp::Set(p, v)),
                arb_path().prop_map(UpdateOp::Unset),
                (arb_path(), -1e9f64..1e9).prop_map(|(p, d)| UpdateOp::Inc(p, d)),
                (arb_path(), arb_value()).prop_map(|(p, v)| UpdateOp::Push(p, v)),
                (arb_path(), arb_value()).prop_map(|(p, v)| UpdateOp::Pull(p, v)),
                (arb_path(), arb_path()).prop_map(|(a, b)| UpdateOp::Rename(a, b)),
            ],
            0..4,
        )
        .prop_map(|ops| {
            let mut u = Update::new();
            for op in ops {
                u = match op {
                    UpdateOp::Set(p, v) => u.set(p, v),
                    UpdateOp::Unset(p) => u.unset(p),
                    UpdateOp::Inc(p, d) => u.inc(p, d),
                    UpdateOp::Push(p, v) => u.push(p, v),
                    UpdateOp::Pull(p, v) => u.pull(p, v),
                    UpdateOp::Rename(a, b) => u.rename(a, b),
                };
            }
            u
        })
    }

    fn arb_key() -> impl Strategy<Value = QueryKey> {
        prop_oneof![
            ("[a-z]{1,6}", "[a-z0-9]{1,8}").prop_map(|(t, id)| QueryKey::record(&t, &id)),
            arb_query().prop_map(|q| QueryKey::of(&q)),
        ]
    }

    /// Every request variant, with one level of batch nesting.
    fn arb_request() -> impl Strategy<Value = Request> {
        let flat = arb_flat_request();
        prop_oneof![
            flat.clone(),
            proptest::collection::vec(flat, 0..4).prop_map(Request::Batch),
        ]
    }

    fn arb_flat_request() -> impl Strategy<Value = Request> {
        prop_oneof![
            ("[a-z]{1,6}", "[a-z0-9]{1,8}")
                .prop_map(|(table, id)| Request::GetRecord { table, id }),
            arb_query().prop_map(Request::Query),
            ("[a-z]{1,6}", "[a-z0-9]{1,8}", arb_doc())
                .prop_map(|(table, id, doc)| Request::Insert { table, id, doc }),
            ("[a-z]{1,6}", "[a-z0-9]{1,8}", arb_update())
                .prop_map(|(table, id, update)| Request::Update { table, id, update }),
            ("[a-z]{1,6}", "[a-z0-9]{1,8}", arb_doc())
                .prop_map(|(table, id, doc)| Request::Replace { table, id, doc }),
            ("[a-z]{1,6}", "[a-z0-9]{1,8}").prop_map(|(table, id)| Request::Delete { table, id }),
            proptest::option::of("[a-z]{1,6}").prop_map(|table| Request::EbfSnapshot { table }),
            arb_key().prop_map(|key| Request::Subscribe { key }),
            Just(Request::Flush),
            Just(Request::ReplicationStatus),
            any::<u64>().prop_map(|epoch| Request::Promote { epoch }),
            Just(Request::Metrics),
        ]
    }

    fn arb_trace_ctx() -> impl Strategy<Value = TraceContext> {
        (any::<u64>(), any::<u64>(), any::<bool>()).prop_map(|(trace_id, span_id, sampled)| {
            TraceContext {
                trace_id,
                span_id,
                sampled,
            }
        })
    }

    fn arb_metrics_snapshot() -> impl Strategy<Value = MetricsSnapshot> {
        let name = "[a-z][a-z0-9._]{0,14}";
        (
            proptest::collection::vec((name, any::<u64>()), 0..5),
            proptest::collection::vec((name, any::<u64>()), 0..4),
            proptest::collection::vec(
                (
                    name,
                    any::<u64>(),
                    any::<u64>(),
                    any::<u64>(),
                    (0u64..1 << 52).prop_map(|x| x as f64 / 7.0),
                    any::<u64>(),
                    any::<u64>(),
                    any::<u64>(),
                ),
                0..3,
            ),
        )
            .prop_map(|(counters, gauges, hists)| MetricsSnapshot {
                counters,
                gauges,
                histograms: hists
                    .into_iter()
                    .map(|(name, count, min, max, mean, p50, p95, p99)| {
                        (
                            name,
                            HistogramSummary {
                                count,
                                min,
                                max,
                                mean,
                                p50,
                                p95,
                                p99,
                            },
                        )
                    })
                    .collect(),
            })
    }

    fn arb_error() -> impl Strategy<Value = Error> {
        prop_oneof![
            "[a-z]{1,8}".prop_map(Error::UnknownTable),
            ("[a-z]{1,6}", "[a-z0-9]{1,8}").prop_map(|(table, id)| Error::NotFound { table, id }),
            ("[a-z]{1,6}", "[a-z0-9]{1,8}", any::<u64>(), any::<u64>()).prop_map(
                |(table, id, expected, actual)| Error::VersionMismatch {
                    table,
                    id,
                    expected,
                    actual,
                }
            ),
            ("[a-z]{1,6}", "[a-z0-9]{1,8}")
                .prop_map(|(table, id)| Error::AlreadyExists { table, id }),
            "[ -~]{0,24}".prop_map(Error::BadRequest),
            "[ -~]{0,24}".prop_map(Error::TransactionAborted),
            "[ -~]{0,24}".prop_map(Error::Capacity),
            "[ -~]{0,24}".prop_map(Error::Closed),
            "[ -~]{0,24}".prop_map(Error::Io),
            "[ -~]{0,24}".prop_map(Error::Net),
            "[ -~]{0,24}".prop_map(Error::Internal),
        ]
    }

    fn arb_bloom() -> impl Strategy<Value = BloomFilter> {
        (
            prop_oneof![Just(256usize), Just(512), Just(1024)],
            1u32..4,
            proptest::collection::vec(proptest::collection::vec(any::<u8>(), 1..8), 0..8),
        )
            .prop_map(|(m_bits, k, keys)| {
                let mut f = BloomFilter::new(quaestor_bloom::BloomParams { m_bits, k });
                for key in keys {
                    f.insert(&key);
                }
                f
            })
    }

    fn arb_record_response() -> impl Strategy<Value = RecordResponse> {
        (any::<u64>(), any::<u64>(), arb_doc()).prop_map(|(etag, ttl_ms, doc)| RecordResponse {
            etag,
            ttl_ms,
            doc: Arc::new(doc),
        })
    }

    fn arb_query_response() -> impl Strategy<Value = QueryResponse> {
        (
            any::<u64>(),
            any::<u64>(),
            any::<bool>(),
            proptest::collection::vec("[a-z0-9]{1,6}", 0..4),
            proptest::collection::vec(any::<u64>(), 0..4),
            proptest::collection::vec(arb_doc(), 0..3),
        )
            .prop_map(
                |(etag, ttl_ms, id_list, ids, versions, docs)| QueryResponse {
                    etag,
                    ttl_ms,
                    representation: if id_list {
                        Representation::IdList
                    } else {
                        Representation::ObjectList
                    },
                    ids,
                    versions,
                    docs: docs.into_iter().map(Arc::new).collect(),
                },
            )
    }

    /// Every response variant except `Stream` (which is a bare marker,
    /// covered separately), with one level of batch nesting.
    fn arb_response() -> impl Strategy<Value = Response> {
        let flat = arb_flat_response();
        prop_oneof![
            flat.clone(),
            proptest::collection::vec(
                prop_oneof![flat.prop_map(Ok), arb_error().prop_map(Err)],
                0..4
            )
            .prop_map(Response::Batch),
        ]
    }

    fn arb_flat_response() -> impl Strategy<Value = Response> {
        prop_oneof![
            arb_record_response().prop_map(Response::Record),
            arb_query_response().prop_map(Response::Query),
            (any::<u64>(), arb_doc()).prop_map(|(version, doc)| Response::Written {
                version,
                image: Arc::new(doc),
            }),
            any::<u64>().prop_map(|version| Response::Deleted { version }),
            (arb_bloom(), any::<u64>()).prop_map(|(filter, at)| Response::Ebf {
                filter,
                at: Timestamp::from_millis(at),
            }),
            any::<u64>().prop_map(|lsn| Response::Flushed { lsn }),
            (0u8..3, any::<u64>(), any::<u64>(), any::<u64>()).prop_map(
                |(role, epoch, last_lsn, durable_lsn)| {
                    Response::Replication(ReplicationStatus {
                        role: match role {
                            0 => ReplRole::Standalone,
                            1 => ReplRole::Primary,
                            _ => ReplRole::Replica,
                        },
                        epoch,
                        last_lsn,
                        durable_lsn,
                    })
                }
            ),
            arb_metrics_snapshot().prop_map(Response::Metrics),
        ]
    }

    // ---- round trips ------------------------------------------------------

    proptest! {
        /// Requests survive encode→decode→re-encode *byte-for-byte*.
        /// (`Request` has no `PartialEq`; identical re-encoded bytes are
        /// a strictly stronger statement anyway.)
        #[test]
        fn request_roundtrip_byte_for_byte(req in arb_request()) {
            let bytes = encode_request(&req);
            let back = decode_request(&bytes).expect("decode");
            prop_assert_eq!(encode_request(&back), bytes);
        }

        #[test]
        fn response_roundtrip_byte_for_byte(resp in arb_response()) {
            let bytes = encode_response(&resp);
            let back = match decode_response(&bytes).expect("decode") {
                WireResponse::Plain(r) => r,
                WireResponse::Stream => panic!("no stream generated"),
            };
            prop_assert_eq!(encode_response(&back), bytes);
        }

        #[test]
        fn error_roundtrip_exact(e in arb_error()) {
            let bytes = encode_error(&e);
            let back = decode_error(&bytes).expect("decode");
            prop_assert_eq!(back, e);
        }

        /// Any strict prefix of a valid encoding is a clean error, never
        /// a panic and never a silent short decode.
        #[test]
        fn truncated_request_is_a_clean_error(req in arb_request(), frac in 0.0f64..1.0) {
            let bytes = encode_request(&req);
            if !bytes.is_empty() {
                let cut = ((bytes.len() - 1) as f64 * frac) as usize;
                prop_assert!(decode_request(&bytes[..cut]).is_err());
            }
        }

        #[test]
        fn truncated_response_is_a_clean_error(resp in arb_response(), frac in 0.0f64..1.0) {
            let bytes = encode_response(&resp);
            let cut = ((bytes.len() - 1) as f64 * frac) as usize;
            prop_assert!(decode_response(&bytes[..cut]).is_err());
        }

        /// Arbitrary garbage decodes to an error, never a panic, and
        /// never an allocation explosion.
        #[test]
        fn garbage_never_panics(bytes in proptest::collection::vec(any::<u8>(), 0..256)) {
            let _ = decode_request(&bytes);
            let _ = decode_request_traced(&bytes);
            let _ = decode_response(&bytes);
            let _ = decode_error(&bytes);
        }

        /// A trace context riding as a body-prefix tag survives the
        /// round trip byte-identically, and a decoder that never heard
        /// of the tag (plain `decode_request`) still recovers the same
        /// request — the tag is purely additive.
        #[test]
        fn trace_tag_roundtrip_and_is_invisible_to_plain_decoder(
            req in arb_request(),
            ctx in arb_trace_ctx(),
        ) {
            let traced = encode_request_traced(&req, Some(ctx));
            let (back_ctx, back) = decode_request_traced(&traced).expect("decode traced");
            prop_assert_eq!(back_ctx, Some(ctx));
            prop_assert_eq!(encode_request(&back), encode_request(&req));
            let plain = decode_request(&traced).expect("plain decode skips the tag");
            prop_assert_eq!(encode_request(&plain), encode_request(&req));
        }

        /// Without a context, the traced encoder emits byte-identical
        /// output to the plain encoder — old peers see no difference.
        #[test]
        fn untraced_encoding_is_byte_identical(req in arb_request()) {
            prop_assert_eq!(encode_request_traced(&req, None), encode_request(&req));
        }

        /// The in-place frame encoder emits exactly the frame of the
        /// staged body, whatever the reused buffer held before.
        #[test]
        fn in_place_request_frame_equals_the_staged_one(
            req in arb_request(),
            ctx in proptest::option::of(arb_trace_ctx()),
            id in any::<u64>(),
            stale in proptest::collection::vec(any::<u8>(), 0..64),
        ) {
            let mut staged = Vec::new();
            crate::wire::encode_frame(
                crate::wire::FrameKind::Request,
                id,
                &encode_request_traced(&req, ctx),
                &mut staged,
            );
            let mut reused = stale;
            prop_assert!(encode_request_frame(id, &req, ctx, &mut reused).is_ok());
            prop_assert_eq!(reused, staged);
        }

        /// Unknown body tags (and a trace tag with the wrong payload
        /// length) are skipped, so future additive metadata never
        /// breaks an old request decoder.
        #[test]
        fn unknown_body_tags_are_skipped(
            req in arb_request(),
            tag in 0xF1u8..=0xFF,
            payload in proptest::collection::vec(any::<u8>(), 0..32),
        ) {
            let mut bytes = vec![tag, payload.len() as u8];
            bytes.extend_from_slice(&payload);
            // A malformed-length trace tag must be skipped, not misparsed.
            bytes.extend_from_slice(&[BODY_TAG_TRACE, 3, 1, 2, 3]);
            bytes.extend_from_slice(&encode_request(&req));
            let (ctx, back) = decode_request_traced(&bytes).expect("decode");
            prop_assert_eq!(ctx, None);
            prop_assert_eq!(encode_request(&back), encode_request(&req));
        }

        /// Any strict prefix of a traced encoding is a clean error.
        #[test]
        fn truncated_traced_request_is_a_clean_error(
            req in arb_request(),
            ctx in arb_trace_ctx(),
            frac in 0.0f64..1.0,
        ) {
            let bytes = encode_request_traced(&req, Some(ctx));
            let cut = ((bytes.len() - 1) as f64 * frac) as usize;
            prop_assert!(decode_request_traced(&bytes[..cut]).is_err());
        }
    }

    // ---- targeted cases ---------------------------------------------------

    #[test]
    fn pathological_nesting_is_a_clean_error_not_a_stack_overflow() {
        // A few KB of repeated Batch tags (each level: tag + count=1)
        // must hit the depth cap, not the thread's stack. Without the
        // cap this body drives ~100k recursive calls and aborts the
        // process — one crafted frame taking down the whole server.
        let mut bytes = Vec::new();
        for _ in 0..100_000 {
            bytes.push(7); // RQ_BATCH
            bytes.extend_from_slice(&1u32.to_le_bytes());
        }
        let err = decode_request(&bytes).unwrap_err();
        assert!(err.0.contains("depth"), "{err}");
        // Same shape on the response side (nested batch results)...
        let mut bytes = Vec::new();
        for _ in 0..100_000 {
            bytes.push(5); // RS_BATCH
            bytes.extend_from_slice(&1u32.to_le_bytes());
            bytes.push(1); // ok tag
        }
        assert!(decode_response(&bytes).is_err());
        // ...and for deeply nested values (arrays of arrays) and filters
        // (Not of Not) inside otherwise valid requests.
        let mut w = Writer::new();
        w.put_u8(2); // RQ_INSERT
        w.put_str("t");
        w.put_str("id");
        w.put_u32(1); // document: one key
        w.put_str("k");
        for _ in 0..100_000 {
            w.put_u8(5); // V_ARRAY
            w.put_u32(1);
        }
        assert!(decode_request(&w.into_bytes()).is_err());
        let mut w = Writer::new();
        w.put_u8(1); // RQ_QUERY
        w.put_str("t");
        for _ in 0..100_000 {
            w.put_u8(5); // F_NOT
        }
        assert!(decode_request(&w.into_bytes()).is_err());
    }

    #[test]
    fn realistic_nesting_still_decodes() {
        // The cap must not reject anything a real client produces: a
        // batch-in-batch with documents a dozen levels deep.
        let mut deep = Value::Int(1);
        for _ in 0..12 {
            deep = Value::Array(vec![deep]);
        }
        let req = Request::Batch(vec![Request::Batch(vec![Request::Insert {
            table: "t".into(),
            id: "a".into(),
            doc: doc! { "deep" => deep },
        }])]);
        let bytes = encode_request(&req);
        assert!(decode_request(&bytes).is_ok());
    }

    #[test]
    fn stream_marker_roundtrips() {
        let bytes = encode_stream_marker();
        assert!(matches!(
            decode_response(&bytes).unwrap(),
            WireResponse::Stream
        ));
    }

    #[test]
    fn nested_stream_in_batch_decodes_to_the_documented_error() {
        // A conforming server substitutes the error at encode time; a
        // nonconforming one that sends the marker nested still yields
        // the same error on decode.
        let mut w = Writer::new();
        w.put_u8(5); // RS_BATCH
        w.put_u32(1);
        w.put_u8(1); // ok
        w.put_u8(6); // RS_STREAM nested
        let bytes = w.into_bytes();
        match decode_response(&bytes).unwrap() {
            WireResponse::Plain(Response::Batch(results)) => {
                assert_eq!(results.len(), 1);
                match &results[0] {
                    Err(Error::BadRequest(msg)) => assert!(msg.contains("subscribe")),
                    other => panic!("expected the stream-in-batch error, got {other:?}"),
                }
            }
            other => panic!("expected a batch, got {other:?}"),
        }
    }

    #[test]
    fn subscribe_key_survives_the_wire() {
        let q = Query::table("posts").filter(Filter::eq("topic", "db"));
        let req = Request::Subscribe {
            key: QueryKey::of(&q),
        };
        let bytes = encode_request(&req);
        match decode_request(&bytes).unwrap() {
            Request::Subscribe { key } => {
                assert_eq!(key, QueryKey::of(&q));
                assert_eq!(key.table(), "posts");
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn update_semantics_survive_the_wire() {
        let update = Update::new()
            .set("a.b", 1)
            .inc("n", 2.5)
            .push("tags", "x")
            .pull("tags", "y")
            .unset("tmp")
            .rename("old", "new");
        let mut w = Writer::new();
        put_update(&mut w, &update);
        let bytes = w.into_bytes();
        let back = get_update(&mut Reader::new(&bytes)).unwrap();
        assert_eq!(back, update);
        // And the decoded update *applies* identically.
        let mut d1 = doc! { "n" => 1, "tags" => vec!["y"], "tmp" => true, "old" => 7 };
        let mut d2 = d1.clone();
        update.apply(&mut d1).unwrap();
        back.apply(&mut d2).unwrap();
        assert_eq!(d1, d2);
    }

    #[test]
    fn ebf_response_preserves_membership() {
        let mut filter = BloomFilter::new(quaestor_bloom::BloomParams::PAPER_DEFAULT);
        filter.insert(b"q:posts?{}");
        filter.insert(b"r:posts/p1");
        let resp = Response::Ebf {
            filter: filter.clone(),
            at: Timestamp::from_millis(12_345),
        };
        let bytes = encode_response(&resp);
        match decode_response(&bytes).unwrap() {
            WireResponse::Plain(Response::Ebf { filter: back, at }) => {
                assert_eq!(back, filter);
                assert_eq!(at.as_millis(), 12_345);
                assert!(back.contains(b"q:posts?{}"));
                assert!(!back.contains(b"r:users/u9"));
            }
            other => panic!("{other:?}"),
        }
    }
}
