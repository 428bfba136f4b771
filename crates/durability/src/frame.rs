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

/// CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320), table-driven.
pub fn crc32(data: &[u8]) -> u32 {
    const TABLE: [u32; 256] = crc_table();
    let mut crc = 0xFFFF_FFFFu32;
    for &b in data {
        let idx = ((crc ^ b as u32) & 0xFF) as usize;
        crc = (crc >> 8) ^ TABLE[idx];
    }
    !crc
}

const fn crc_table() -> [u32; 256] {
    let mut table = [0u32; 256];
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
        table[i] = c;
        i += 1;
    }
    table
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

    fn rec(table: &str) -> WalRecord {
        WalRecord::CreateTable {
            table: table.into(),
        }
    }

    #[test]
    fn crc32_matches_known_vectors() {
        // IEEE CRC-32 of "123456789" is the classic check value.
        assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
        assert_eq!(crc32(b""), 0);
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
