//! The frame layer: length-prefixed, CRC-checksummed, versioned frames
//! with a request id for pipelining.
//!
//! Wire layout of one frame (everything little-endian):
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! payload = [u8 version][u8 kind][u64 request_id][body]
//! ```
//!
//! This extends the durability WAL's frame format (same outer
//! `len + crc32` envelope, same CRC-32/IEEE implementation, shared via
//! [`quaestor_durability::frame::crc32`]) with the two things a duplex
//! socket needs that a log does not: a **protocol version** so that a
//! server can refuse a client from the future with a clean error instead
//! of garbage decodes, and a **request id** so that responses can return
//! out of band of other traffic on the connection (pipelining, stream
//! pushes) and still find their caller.
//!
//! A reader distinguishes three outcomes at every frame position, exactly
//! like the WAL: a complete valid frame, *not enough bytes yet* (wait for
//! more from the socket), and a corrupt frame (CRC mismatch, absurd
//! length, unknown version) — which on a socket is unrecoverable, because
//! framing is lost: the connection must be torn down.

use quaestor_durability::frame::crc32;

/// Current protocol version. Bump on any incompatible change to the
/// payload layout; see `DESIGN.md` for the versioning rules.
pub const PROTOCOL_VERSION: u8 = 2;

/// Hard ceiling on a single frame's payload. Bounds the allocation a
/// corrupt or hostile length prefix can trigger. Large batches and EBF
/// snapshots fit comfortably; anything bigger is a protocol violation.
pub const MAX_FRAME_PAYLOAD: u32 = 64 << 20;

/// Frame header size on the wire: `len` + `crc`.
pub const FRAME_HEADER: usize = 8;

/// Payload prologue size: `version` + `kind` + `request_id`.
pub const PAYLOAD_PROLOGUE: usize = 10;

/// Bytes pulled per `read` syscall into a connection's read buffer, on
/// both ends of a connection.
pub(crate) const READ_CHUNK: usize = 64 * 1024;

/// What a frame carries; the first byte after the version.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FrameKind {
    /// Client → server: one encoded `Request`.
    Request,
    /// Server → client: the `Ok(Response)` for the request id.
    ResponseOk,
    /// Server → client: the `Err(Error)` for the request id.
    ResponseErr,
    /// Server → client: one pushed message on the change stream opened by
    /// the `Subscribe` request with this request id. Zero or more of
    /// these follow a `ResponseOk` carrying the `Stream` marker.
    StreamPush,
    /// Client → server: stop the change stream opened by the request
    /// with this id (empty body). Sent when the client-side subscription
    /// has been dropped, so the server can release its forwarder.
    StreamCancel,
    /// Replica → primary: replication handshake — the replica's current
    /// epoch and last WAL LSN. Opens a dedicated replication connection;
    /// both ends are repl-aware, so regular request/response traffic
    /// never shares it.
    ReplHello,
    /// Primary → replica: handshake answer — the primary's epoch, its
    /// fence LSN, and the LSN the replica must resume from (truncating
    /// anything above it first, if its epoch was stale).
    ReplHelloAck,
    /// Primary → replica: a batch of WAL frames, body = concatenated
    /// durability frames (`[len][crc][lsn][record]` each), in LSN order.
    ReplFrames,
    /// Replica → primary: the highest LSN now applied *and durable* on
    /// the replica's own log.
    ReplAck,
}

impl FrameKind {
    fn tag(self) -> u8 {
        match self {
            FrameKind::Request => 0,
            FrameKind::ResponseOk => 1,
            FrameKind::ResponseErr => 2,
            FrameKind::StreamPush => 3,
            FrameKind::StreamCancel => 4,
            FrameKind::ReplHello => 5,
            FrameKind::ReplHelloAck => 6,
            FrameKind::ReplFrames => 7,
            FrameKind::ReplAck => 8,
        }
    }

    fn from_tag(tag: u8) -> Option<FrameKind> {
        Some(match tag {
            0 => FrameKind::Request,
            1 => FrameKind::ResponseOk,
            2 => FrameKind::ResponseErr,
            3 => FrameKind::StreamPush,
            4 => FrameKind::StreamCancel,
            5 => FrameKind::ReplHello,
            6 => FrameKind::ReplHelloAck,
            7 => FrameKind::ReplFrames,
            8 => FrameKind::ReplAck,
            _ => return None,
        })
    }
}

/// True if a body of this size fits in one frame. Callers must check
/// before [`encode_frame`] — an oversized frame would be rejected as
/// `Corrupt` by the peer, tearing down the connection for everyone
/// pipelined on it. ([`finish_frame`] checks for itself.)
pub fn frame_fits(body_len: usize) -> bool {
    body_len <= MAX_FRAME_PAYLOAD as usize - PAYLOAD_PROLOGUE
}

/// Append one complete frame (`kind`, `request_id`, `body`) to `out`.
pub fn encode_frame(kind: FrameKind, request_id: u64, body: &[u8], out: &mut Vec<u8>) {
    debug_assert!(frame_fits(body.len()));
    out.reserve(FRAME_HEADER + PAYLOAD_PROLOGUE + body.len());
    let start = begin_frame(kind, request_id, out);
    out.extend_from_slice(body);
    seal_frame(out, start);
}

/// Append the header and prologue of a frame to `out`, with the length
/// and CRC left as placeholders. The caller appends the body in place
/// and seals the frame with [`finish_frame`], passing the returned start
/// offset — so a body never needs a buffer of its own.
pub fn begin_frame(kind: FrameKind, request_id: u64, out: &mut Vec<u8>) -> usize {
    let start = out.len();
    out.extend_from_slice(&[0; FRAME_HEADER]); // length + crc placeholders
    out.push(PROTOCOL_VERSION);
    out.push(kind.tag());
    out.extend_from_slice(&request_id.to_le_bytes());
    start
}

/// Fill in the length and CRC of the frame begun at `start` by
/// [`begin_frame`]. A body too large for one frame ([`frame_fits`]) is
/// refused with its size, and the partial frame is cut off `out`.
pub fn finish_frame(out: &mut Vec<u8>, start: usize) -> Result<(), usize> {
    let body_len = out.len() - start - FRAME_HEADER - PAYLOAD_PROLOGUE;
    if !frame_fits(body_len) {
        out.truncate(start);
        return Err(body_len);
    }
    seal_frame(out, start);
    Ok(())
}

/// Fill in the length and CRC of the frame begun at `start`, whatever
/// its size.
fn seal_frame(out: &mut [u8], start: usize) {
    let payload_pos = start + FRAME_HEADER;
    let payload_len = out.len() - payload_pos;
    let crc = crc32(&out[payload_pos..]);
    out[start..start + 4].copy_from_slice(&(payload_len as u32).to_le_bytes());
    out[start + 4..payload_pos].copy_from_slice(&crc.to_le_bytes());
}

/// One decoded frame, borrowing its body from the read buffer.
#[derive(Debug)]
pub struct Frame<'a> {
    /// What the body is.
    pub kind: FrameKind,
    /// Correlation id chosen by the requester.
    pub request_id: u64,
    /// The encoded `Request` / `Response` / `Error` / push message.
    pub body: &'a [u8],
    /// Total on-wire size — advance the buffer by this much.
    pub size: usize,
}

/// Outcome of trying to read a frame from the front of `buf`.
#[derive(Debug)]
pub enum FrameDecode<'a> {
    /// A complete, CRC-valid frame.
    Frame(Frame<'a>),
    /// The buffer holds a valid prefix of a frame; read more bytes.
    Incomplete,
    /// Framing is broken (bad CRC, absurd length, unknown version or
    /// kind). The connection cannot be resynchronized and must close.
    Corrupt(String),
}

/// Little-endian u32 at `at`; caller guarantees `b.len() >= at + 4`.
fn le_u32(b: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[at..at + 4]);
    u32::from_le_bytes(a)
}

/// Little-endian u64 at `at`; caller guarantees `b.len() >= at + 8`.
fn le_u64(b: &[u8], at: usize) -> u64 {
    let mut a = [0u8; 8];
    a.copy_from_slice(&b[at..at + 8]);
    u64::from_le_bytes(a)
}

/// Try to decode the frame at the front of `buf`.
pub fn decode_frame(buf: &[u8]) -> FrameDecode<'_> {
    if buf.len() < FRAME_HEADER {
        return FrameDecode::Incomplete;
    }
    let len = le_u32(buf, 0);
    if len > MAX_FRAME_PAYLOAD {
        return FrameDecode::Corrupt(format!("frame payload {len} exceeds cap"));
    }
    let len = len as usize;
    if len < PAYLOAD_PROLOGUE {
        return FrameDecode::Corrupt(format!("frame payload {len} shorter than prologue"));
    }
    if buf.len() < FRAME_HEADER + len {
        return FrameDecode::Incomplete;
    }
    let want = le_u32(buf, 4);
    let payload = &buf[FRAME_HEADER..FRAME_HEADER + len];
    let got = crc32(payload);
    if got != want {
        return FrameDecode::Corrupt(format!(
            "frame crc mismatch: stored {want:#010x}, computed {got:#010x}"
        ));
    }
    let version = payload[0];
    if version != PROTOCOL_VERSION {
        return FrameDecode::Corrupt(format!(
            "unsupported protocol version {version} (speaking {PROTOCOL_VERSION})"
        ));
    }
    let Some(kind) = FrameKind::from_tag(payload[1]) else {
        return FrameDecode::Corrupt(format!("unknown frame kind {}", payload[1]));
    };
    let request_id = le_u64(payload, 2);
    FrameDecode::Frame(Frame {
        kind,
        request_id,
        body: &payload[PAYLOAD_PROLOGUE..],
        size: FRAME_HEADER + len,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One `Response::Record` and one `Response::Query` frame of this
    /// protocol version, byte for byte (see the test below).
    const GOLDEN_RECORD_FRAME: &str = concat!(
        "3a000000",                                                       // payload length
        "94ac9e4b",                                                       // crc32
        "02",                                                             // protocol version
        "01",                                                             // ResponseOk
        "0700000000000000",                                               // request id
        "00",                                                             // Response::Record
        "0300000000000000",                                               // etag
        "60ea000000000000",                                               // ttl_ms
        "02000000030000005f6964040100000061010000006e020100000000000000", // doc
    );
    const GOLDEN_QUERY_FRAME: &str = concat!(
        "85000000",         // payload length
        "f9c36340",         // crc32
        "02",               // protocol version
        "01",               // ResponseOk
        "0700000000000000", // request id
        "01",               // Response::Query
        "efcdab8967452301", // etag
        "8813000000000000", // ttl_ms
        "01",               // id-list
        "02000000",         // two ids
        "0100000061",       // "a"
        "0100000062",       // "b"
        "02000000",         // two versions
        "0300000000000000", // 3
        "0700000000000000", // 7
        "02000000",         // two docs
        "02000000030000005f6964040100000061010000006e020100000000000000",
        "02000000030000005f696404010000006204000000746167730501000000040100000078",
    );

    fn hex(bytes: &[u8]) -> String {
        bytes.iter().map(|b| format!("{b:02x}")).collect()
    }

    /// Pins the layout of the two cacheable responses to
    /// `PROTOCOL_VERSION`: a change to either layout fails here until the
    /// version is bumped and the golden hex regenerated.
    #[test]
    fn response_frames_match_the_golden_bytes_of_this_version() {
        use std::sync::Arc;

        use quaestor_core::{QueryResponse, RecordResponse, Response};
        use quaestor_document::doc;
        use quaestor_ttl::Representation;

        let a = Arc::new(doc! { "_id" => "a", "n" => 1 });
        let b = Arc::new(doc! { "_id" => "b", "tags" => vec!["x"] });
        let record = Response::Record(RecordResponse {
            etag: 3,
            ttl_ms: 60_000,
            doc: a.clone(),
        });
        let query = Response::Query(QueryResponse {
            etag: 0x0123_4567_89ab_cdef,
            ttl_ms: 5_000,
            representation: Representation::IdList,
            ids: vec!["a".into(), "b".into()],
            versions: vec![3, 7],
            docs: vec![a, b],
        });
        for (name, resp, golden) in [
            ("record", record, GOLDEN_RECORD_FRAME),
            ("query", query, GOLDEN_QUERY_FRAME),
        ] {
            let mut frame = Vec::new();
            let body = crate::codec::encode_response(&resp);
            encode_frame(FrameKind::ResponseOk, 7, &body, &mut frame);
            assert_eq!(
                hex(&frame),
                golden,
                "the {name} response frame changed: bump PROTOCOL_VERSION (see \
                 crates/net/DESIGN.md, Versioning rules), then regenerate the golden \
                 hex from the left-hand value"
            );
        }
    }

    #[test]
    fn frame_roundtrip_with_request_id() {
        let mut buf = Vec::new();
        encode_frame(FrameKind::Request, 42, b"hello", &mut buf);
        encode_frame(FrameKind::ResponseErr, u64::MAX, b"", &mut buf);
        match decode_frame(&buf) {
            FrameDecode::Frame(f) => {
                assert_eq!(f.kind, FrameKind::Request);
                assert_eq!(f.request_id, 42);
                assert_eq!(f.body, b"hello");
                match decode_frame(&buf[f.size..]) {
                    FrameDecode::Frame(g) => {
                        assert_eq!(g.kind, FrameKind::ResponseErr);
                        assert_eq!(g.request_id, u64::MAX);
                        assert!(g.body.is_empty());
                        assert_eq!(f.size + g.size, buf.len());
                    }
                    other => panic!("second frame: {other:?}"),
                }
            }
            other => panic!("first frame: {other:?}"),
        }
    }

    #[test]
    fn replication_frame_kinds_roundtrip() {
        for kind in [
            FrameKind::ReplHello,
            FrameKind::ReplHelloAck,
            FrameKind::ReplFrames,
            FrameKind::ReplAck,
        ] {
            let mut buf = Vec::new();
            encode_frame(kind, 3, b"repl", &mut buf);
            match decode_frame(&buf) {
                FrameDecode::Frame(f) => {
                    assert_eq!(f.kind, kind);
                    assert_eq!(f.body, b"repl");
                }
                other => panic!("{kind:?}: {other:?}"),
            }
        }
    }

    #[test]
    fn every_truncation_is_incomplete_not_corrupt() {
        let mut buf = Vec::new();
        encode_frame(FrameKind::StreamPush, 7, b"payload-bytes", &mut buf);
        for cut in 0..buf.len() {
            match decode_frame(&buf[..cut]) {
                FrameDecode::Incomplete => {}
                other => panic!("cut at {cut}: {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flips_are_corrupt() {
        let mut buf = Vec::new();
        encode_frame(FrameKind::Request, 9, b"abc", &mut buf);
        // Flipping any payload byte (after the header) breaks the CRC.
        for pos in FRAME_HEADER..buf.len() {
            let mut bad = buf.clone();
            bad[pos] ^= 0x10;
            assert!(
                matches!(decode_frame(&bad), FrameDecode::Corrupt(_)),
                "flip at {pos} undetected"
            );
        }
    }

    #[test]
    fn future_version_is_refused_cleanly() {
        let mut buf = Vec::new();
        encode_frame(FrameKind::Request, 1, b"", &mut buf);
        buf[FRAME_HEADER] = PROTOCOL_VERSION + 1; // bump version byte
        let crc = crc32(&buf[FRAME_HEADER..]); // re-seal so only version differs
        buf[4..8].copy_from_slice(&crc.to_le_bytes());
        match decode_frame(&buf) {
            FrameDecode::Corrupt(msg) => assert!(msg.contains("version"), "{msg}"),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn absurd_length_is_corrupt_without_allocating() {
        let mut buf = vec![0xFF; 16];
        assert!(matches!(decode_frame(&buf), FrameDecode::Corrupt(_)));
        // A length below the prologue is equally unframeable.
        buf[0..4].copy_from_slice(&3u32.to_le_bytes());
        assert!(matches!(decode_frame(&buf), FrameDecode::Corrupt(_)));
    }
}
