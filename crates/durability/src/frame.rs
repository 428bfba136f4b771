//! Length-prefixed, CRC-checksummed log frames.
//!
//! Wire layout of one frame:
//!
//! ```text
//! [u32 payload_len][u32 crc32(payload)][payload]
//! payload = [u64 lsn][WalRecord]
//! ```
//!
//! The length prefix makes the log self-delimiting; the CRC detects both
//! bit rot and torn writes. A reader distinguishes three outcomes per
//! frame position: a valid frame, a clean end of file, and a *bad tail*
//! (anything else — short header, short payload, CRC mismatch, or a
//! payload that does not decode). Whether a bad tail is tolerated is the
//! recovery layer's decision: at the end of the newest segment it is a
//! torn write and the log is truncated there; anywhere else it is
//! corruption and recovery must fail loudly.

use crate::codec::{Reader, WalRecord, Writer};

/// Hard ceiling on a single frame's payload (a frame holds one write's
/// after-image; 64 MiB is far beyond any sane document). Bounds the
/// allocation a corrupt length prefix can trigger.
pub const MAX_FRAME_PAYLOAD: u32 = 64 << 20;

/// Slicing-by-8 tables: `CRC_TABLES[0]` is the classic byte table, and
/// `CRC_TABLES[k][b]` is the CRC state after byte `b` is followed by `k`
/// zero bytes.
const CRC_TABLES: [[u32; 256]; 8] = crc_tables();

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), eight bytes per
/// step (slicing-by-8): one kernel for WAL frames, net frames and
/// snapshots.
pub fn crc32(data: &[u8]) -> u32 {
    let t = &CRC_TABLES;
    let mut crc = 0xFFFF_FFFFu32;
    let mut words = data.chunks_exact(8);
    for w in &mut words {
        let lo = crc ^ u32::from_le_bytes([w[0], w[1], w[2], w[3]]);
        let hi = u32::from_le_bytes([w[4], w[5], w[6], w[7]]);
        crc = t[7][(lo & 0xFF) as usize]
            ^ t[6][((lo >> 8) & 0xFF) as usize]
            ^ t[5][((lo >> 16) & 0xFF) as usize]
            ^ t[4][(lo >> 24) as usize]
            ^ t[3][(hi & 0xFF) as usize]
            ^ t[2][((hi >> 8) & 0xFF) as usize]
            ^ t[1][((hi >> 16) & 0xFF) as usize]
            ^ t[0][(hi >> 24) as usize];
    }
    for &b in words.remainder() {
        crc = (crc >> 8) ^ t[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

/// The same CRC one byte at a time: the oracle [`crc32`] is tested
/// against.
#[cfg(any(test, feature = "oracle"))]
pub fn crc32_bytewise(data: &[u8]) -> u32 {
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        crc = (crc >> 8) ^ CRC_TABLES[0][((crc ^ b as u32) & 0xFF) as usize];
    }
    !crc
}

const fn crc_tables() -> [[u32; 256]; 8] {
    let mut tables = [[0u32; 256]; 8];
    let mut i = 0;
    while i < 256 {
        let mut c = i as u32;
        let mut k = 0;
        while k < 8 {
            c = if c & 1 != 0 {
                0xEDB8_8320 ^ (c >> 1)
            } else {
                c >> 1
            };
            k += 1;
        }
        tables[0][i] = c;
        i += 1;
    }
    let mut k = 1;
    while k < 8 {
        let mut i = 0;
        while i < 256 {
            let prev = tables[k - 1][i];
            tables[k][i] = (prev >> 8) ^ tables[0][(prev & 0xFF) as usize];
            i += 1;
        }
        k += 1;
    }
    tables
}

/// Encode `(lsn, record)` as one framed byte run, appended to `out`.
pub fn encode_frame(lsn: u64, record: &WalRecord, out: &mut Vec<u8>) {
    let mut w = Writer::new();
    w.put_u64(lsn);
    record.encode(&mut w);
    let payload = w.into_bytes();
    out.extend_from_slice(&(payload.len() as u32).to_le_bytes());
    out.extend_from_slice(&crc32(&payload).to_le_bytes());
    out.extend_from_slice(&payload);
}

/// Outcome of reading one frame position.
#[derive(Debug)]
pub enum FrameRead {
    /// A valid frame: its LSN, record, and total on-disk size in bytes.
    Frame {
        /// Log sequence number carried by the frame.
        lsn: u64,
        /// The decoded record.
        record: WalRecord,
        /// Header + payload size (advance the cursor by this much).
        size: usize,
    },
    /// Clean end: zero bytes remain.
    Eof,
    /// Anything else — short header, short payload, CRC mismatch, or an
    /// undecodable payload. Carries a human-readable reason.
    BadTail(String),
}

/// Read the frame starting at `buf[offset..]`.
pub fn read_frame(buf: &[u8], offset: usize) -> FrameRead {
    let rest = &buf[offset.min(buf.len())..];
    if rest.is_empty() {
        return FrameRead::Eof;
    }
    let (payload, size) = match checked_payload(rest) {
        Ok(p) => p,
        Err(reason) => return FrameRead::BadTail(reason),
    };
    let mut r = Reader::new(payload);
    let lsn = match r.u64() {
        Ok(l) => l,
        Err(e) => return FrameRead::BadTail(format!("bad lsn: {e}")),
    };
    match WalRecord::decode(&mut r) {
        Ok(record) => FrameRead::Frame { lsn, record, size },
        // A CRC-valid but undecodable payload means a writer/reader
        // version skew or a hash collision; both are worth surfacing as a
        // bad tail rather than a panic.
        Err(e) => FrameRead::BadTail(format!("undecodable payload: {e}")),
    }
}

/// One frame of a batch shipped from a replication primary, its CRC
/// checked: its LSN, its record (to apply) and its bytes as the primary's
/// log holds them (to append).
#[derive(Debug)]
pub struct ShippedFrame<'a> {
    /// Log sequence number carried by the frame.
    pub lsn: u64,
    /// The decoded record.
    pub record: WalRecord,
    /// The whole frame, header included.
    pub bytes: &'a [u8],
}

impl<'a> ShippedFrame<'a> {
    /// Check and decode every frame of `batch` (a run of frames, as a
    /// replication batch carries them); the first frame that does not
    /// check fails the whole batch.
    pub fn parse_batch(batch: &'a [u8]) -> Result<Vec<ShippedFrame<'a>>, String> {
        let mut out = Vec::new();
        let mut offset = 0;
        loop {
            match read_frame(batch, offset) {
                FrameRead::Frame { lsn, record, size } => {
                    let bytes = &batch[offset..offset + size];
                    out.push(ShippedFrame { lsn, record, bytes });
                    offset += size;
                }
                FrameRead::Eof => return Ok(out),
                FrameRead::BadTail(reason) => return Err(reason),
            }
        }
    }
}

/// The LSN and on-disk size of the frame at the start of `rest` when it
/// is complete and its CRC holds, without decoding its record (the
/// replication tail ships frames as they are); `None` otherwise.
pub fn frame_lsn(rest: &[u8]) -> Option<(u64, usize)> {
    let (payload, size) = checked_payload(rest).ok()?;
    let lsn = payload.get(..8)?.try_into().ok().map(u64::from_le_bytes)?;
    Some((lsn, size))
}

/// The payload and total size of the frame at the start of `rest`, if
/// its header, length and CRC check out.
fn checked_payload(rest: &[u8]) -> Result<(&[u8], usize), String> {
    if rest.len() < 8 {
        return Err(format!("short frame header: {} bytes", rest.len()));
    }
    let len = le_u32(rest, 0);
    if len > MAX_FRAME_PAYLOAD {
        return Err(format!("frame length {len} exceeds cap"));
    }
    let want = crc32_from(rest);
    let len = len as usize;
    if rest.len() < 8 + len {
        return Err(format!(
            "short frame payload: want {len}, have {}",
            rest.len() - 8
        ));
    }
    let payload = &rest[8..8 + len];
    let got = crc32(payload);
    if got != want {
        return Err(format!(
            "crc mismatch: stored {want:#010x}, computed {got:#010x}"
        ));
    }
    Ok((payload, 8 + len))
}

fn crc32_from(rest: &[u8]) -> u32 {
    le_u32(rest, 4)
}

/// Little-endian u32 at `at`; caller guarantees `b.len() >= at + 4`.
fn le_u32(b: &[u8], at: usize) -> u32 {
    let mut a = [0u8; 4];
    a.copy_from_slice(&b[at..at + 4]);
    u32::from_le_bytes(a)
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rec(table: &str) -> WalRecord {
        WalRecord::CreateTable {
            table: table.into(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32_bytewise(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]
        /// The kernel equals the byte loop on every length up to 4 KiB,
        /// whatever the start of the slice is modulo 8.
        #[test]
        fn crc32_kernel_equals_the_byte_loop(
            bytes in proptest::collection::vec(any::<u8>(), 4_104),
            len in 0..=4_096usize,
        ) {
            for start in 0..8 {
                let data = &bytes[start..start + len];
                prop_assert_eq!(crc32(data), crc32_bytewise(data));
            }
        }
    }

    #[test]
    fn frames_roundtrip_back_to_back() {
        let mut buf = Vec::new();
        encode_frame(1, &rec("a"), &mut buf);
        encode_frame(2, &rec("b"), &mut buf);
        let mut offset = 0;
        let mut lsns = Vec::new();
        loop {
            match read_frame(&buf, offset) {
                FrameRead::Frame { lsn, size, .. } => {
                    lsns.push(lsn);
                    offset += size;
                }
                FrameRead::Eof => break,
                FrameRead::BadTail(e) => panic!("unexpected bad tail: {e}"),
            }
        }
        assert_eq!(lsns, vec![1, 2]);
    }

    #[test]
    fn truncation_is_a_bad_tail_at_every_cut() {
        let mut buf = Vec::new();
        encode_frame(1, &rec("table"), &mut buf);
        for cut in 1..buf.len() {
            match read_frame(&buf[..cut], 0) {
                FrameRead::BadTail(_) => {}
                other => panic!("cut at {cut} gave {other:?}"),
            }
        }
    }

    #[test]
    fn bit_flip_is_a_bad_tail() {
        let mut buf = Vec::new();
        encode_frame(7, &rec("posts"), &mut buf);
        for pos in 8..buf.len() {
            let mut corrupt = buf.clone();
            corrupt[pos] ^= 0x40;
            match read_frame(&corrupt, 0) {
                FrameRead::BadTail(_) => {}
                FrameRead::Frame { .. } => panic!("flip at {pos} went undetected"),
                FrameRead::Eof => panic!("flip at {pos} read as eof"),
            }
        }
    }

    #[test]
    fn frame_lsn_reads_the_header_of_complete_frames_only() {
        let mut buf = Vec::new();
        encode_frame(42, &rec("posts"), &mut buf);
        assert_eq!(frame_lsn(&buf), Some((42, buf.len())));
        assert_eq!(frame_lsn(&buf[..buf.len() - 1]), None, "torn");
        buf[9] ^= 0x01;
        assert_eq!(frame_lsn(&buf), None, "crc mismatch");
        assert_eq!(frame_lsn(&[]), None);
    }

    #[test]
    fn absurd_length_prefix_is_rejected_without_allocating() {
        let mut buf = vec![0xFF, 0xFF, 0xFF, 0xFF]; // len = u32::MAX
        buf.extend_from_slice(&[0; 12]);
        assert!(matches!(read_frame(&buf, 0), FrameRead::BadTail(_)));
    }
}
