//! Replication wire bodies.
//!
//! The replication stream rides on `quaestor-net`'s frame layer using the
//! four dedicated frame kinds (`ReplHello`, `ReplHelloAck`, `ReplFrames`,
//! `ReplAck`); this module defines what goes *inside* those frames:
//!
//! * [`Hello`] — replica → primary: the replica's adopted epoch and the
//!   last LSN in its own WAL.
//! * [`HelloAck`] — primary → replica: the primary's epoch [`Lineage`]
//!   and the LSN the replica must resume from (truncating anything above
//!   it first if its epoch was stale).
//! * `ReplFrames` bodies — a batch of durability WAL frames in LSN
//!   order, byte-identical to the on-disk WAL (`[len][crc][lsn][record]`
//!   per frame): the primary ships the bytes its log tail reads, and the
//!   replica unpacks them with [`decode_batch`], so a replica persists
//!   exactly what the primary logged.
//! * [`Ack`] — replica → primary: the highest LSN now applied *and*
//!   durable on the replica's own log.
//!
//! Everything here decodes from bytes that already passed the net
//! frame's CRC, so a malformed body is a protocol violation (version
//! skew or a buggy peer), not line noise — decoders answer with a hard
//! error and the session is torn down.

use quaestor_common::{Error, Result};
use quaestor_durability::codec::{Reader, WalRecord, Writer};
use quaestor_durability::frame::{read_frame, FrameRead};

/// Ceiling on the number of `(epoch, start_lsn)` entries a [`HelloAck`]
/// may carry. A lineage grows by one entry per failover; thousands of
/// entries means a corrupt length, not a busy cluster.
pub const MAX_LINEAGE: usize = 1 << 16;

fn violation(what: &str, detail: impl std::fmt::Display) -> Error {
    Error::Net(format!("replication protocol: {what}: {detail}"))
}

/// The epoch history of a replicated log: ascending `(epoch, start_lsn)`
/// pairs, one per promotion, where `start_lsn` is the last LSN of the
/// promoted node's log at promotion time (epoch `e` owns LSNs strictly
/// above its `start_lsn`, up to the next entry's).
///
/// This is what makes fencing exact for arbitrarily stale rejoiners: a
/// replica that last wrote under epoch `e` may keep its log only up to
/// the start of the first epoch newer than `e` — everything above that
/// was written on a timeline the group has since abandoned.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Lineage(pub Vec<(u64, u64)>);

impl Lineage {
    /// The lineage of a freshly bootstrapped primary: epoch 1 owning the
    /// whole log.
    pub fn bootstrap() -> Lineage {
        Lineage(vec![(1, 0)])
    }

    /// The newest epoch (0 for an empty lineage — a node that has never
    /// spoken to a primary).
    pub fn current_epoch(&self) -> u64 {
        self.0.last().map(|&(e, _)| e).unwrap_or(0)
    }

    /// The fence for a peer that last wrote under `peer_epoch`: the
    /// start LSN of the first epoch newer than the peer's, i.e. the
    /// highest LSN the peer is allowed to keep. `None` when the peer's
    /// epoch is current (nothing to fence).
    pub fn fence_for(&self, peer_epoch: u64) -> Option<u64> {
        self.0
            .iter()
            .find(|&&(e, _)| e > peer_epoch)
            .map(|&(_, start)| start)
    }

    /// Append a promotion: `epoch` begins above `start_lsn`. Refuses
    /// non-monotonic entries — a lineage only ever moves forward.
    pub fn push(&mut self, epoch: u64, start_lsn: u64) -> Result<()> {
        if let Some(&(last_epoch, last_start)) = self.0.last() {
            if epoch <= last_epoch {
                return Err(Error::BadRequest(format!(
                    "promote: epoch {epoch} does not exceed current epoch {last_epoch}"
                )));
            }
            if start_lsn < last_start {
                return Err(Error::Internal(format!(
                    "lineage regression: epoch {epoch} would start at {start_lsn}, \
                     below epoch {last_epoch}'s start {last_start}"
                )));
            }
        }
        self.0.push((epoch, start_lsn));
        Ok(())
    }

    /// Encode as `[u32 count][count × (u64 epoch, u64 start_lsn)]`.
    pub fn encode_into(&self, w: &mut Writer) {
        w.put_u32(self.0.len() as u32);
        for &(epoch, start) in &self.0 {
            w.put_u64(epoch);
            w.put_u64(start);
        }
    }

    /// Decode the wire form; validates the count bound and monotonicity.
    // analyze: allow(depth-cap) flat length-prefixed list, capped by MAX_LINEAGE; nothing recursive
    pub fn decode_from(r: &mut Reader<'_>) -> Result<Lineage> {
        let count = r.u32().map_err(|e| violation("lineage count", e))? as usize;
        if count > MAX_LINEAGE {
            return Err(violation("lineage count", format!("{count} exceeds cap")));
        }
        let mut entries = Vec::with_capacity(count.min(r.remaining() / 16 + 1));
        let mut lineage = Lineage::default();
        for _ in 0..count {
            let epoch = r.u64().map_err(|e| violation("lineage epoch", e))?;
            let start = r.u64().map_err(|e| violation("lineage start lsn", e))?;
            entries.push((epoch, start));
        }
        for (epoch, start) in entries {
            lineage
                .push(epoch, start)
                .map_err(|e| violation("lineage order", e))?;
        }
        Ok(lineage)
    }
}

/// Replica → primary handshake: who am I, where does my log end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hello {
    /// The newest epoch the replica has adopted (0 for a fresh node).
    pub epoch: u64,
    /// The last LSN in the replica's own WAL.
    pub last_lsn: u64,
}

impl Hello {
    /// Encode as a `ReplHello` frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.epoch);
        w.put_u64(self.last_lsn);
        w.into_bytes()
    }

    /// Decode a `ReplHello` frame body. Trailing bytes are tolerated so
    /// a newer peer can append fields compatibly.
    // analyze: allow(depth-cap) two fixed u64 fields; nothing recursive to cap
    pub fn decode(body: &[u8]) -> Result<Hello> {
        let mut r = Reader::new(body);
        let epoch = r.u64().map_err(|e| violation("hello epoch", e))?;
        let last_lsn = r.u64().map_err(|e| violation("hello last_lsn", e))?;
        Ok(Hello { epoch, last_lsn })
    }
}

/// Primary → replica handshake answer: the authoritative epoch lineage
/// and where the replica must resume.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HelloAck {
    /// The primary's full epoch lineage; the replica adopts and persists
    /// it, so it can fence *other* stale peers if it is later promoted.
    pub lineage: Lineage,
    /// The LSN to resume shipping after. If this is below the replica's
    /// own last LSN, the replica's suffix above it is on an abandoned
    /// timeline and must be truncated before replay continues.
    pub resume_from: u64,
}

impl HelloAck {
    /// The primary's current epoch (the lineage's newest entry).
    pub fn epoch(&self) -> u64 {
        self.lineage.current_epoch()
    }

    /// Encode as a `ReplHelloAck` frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.resume_from);
        self.lineage.encode_into(&mut w);
        w.into_bytes()
    }

    /// Decode a `ReplHelloAck` frame body.
    // analyze: allow(depth-cap) flat fields plus the capped lineage list; nothing recursive
    pub fn decode(body: &[u8]) -> Result<HelloAck> {
        let mut r = Reader::new(body);
        let resume_from = r.u64().map_err(|e| violation("ack resume_from", e))?;
        let lineage = Lineage::decode_from(&mut r)?;
        Ok(HelloAck {
            lineage,
            resume_from,
        })
    }
}

/// Replica → primary acknowledgement: applied and durable up to here.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Ack {
    /// Highest LSN fsynced to the replica's own log.
    pub durable_lsn: u64,
}

impl Ack {
    /// Encode as a `ReplAck` frame body.
    pub fn encode(&self) -> Vec<u8> {
        let mut w = Writer::new();
        w.put_u64(self.durable_lsn);
        w.into_bytes()
    }

    /// Decode a `ReplAck` frame body.
    // analyze: allow(depth-cap) one fixed u64 field; nothing recursive to cap
    pub fn decode(body: &[u8]) -> Result<Ack> {
        let mut r = Reader::new(body);
        let durable_lsn = r.u64().map_err(|e| violation("ack durable_lsn", e))?;
        Ok(Ack { durable_lsn })
    }
}

/// Pack WAL frames into one `ReplFrames` body, in the given (LSN) order
/// (a primary ships its log's bytes instead; tests script batches).
#[cfg(test)]
pub(crate) fn encode_batch(frames: &[(u64, WalRecord)]) -> Vec<u8> {
    use quaestor_durability::frame::encode_frame;
    let mut out = Vec::new();
    for (lsn, record) in frames {
        encode_frame(*lsn, record, &mut out);
    }
    out
}

/// Unpack a `ReplFrames` body. The outer net frame's CRC already passed,
/// so a bad inner frame is a protocol violation, not a torn tail — the
/// whole batch is rejected.
// analyze: allow(depth-cap) iterative walk over length-delimited frames; record decode caps depth internally
pub fn decode_batch(body: &[u8]) -> Result<Vec<(u64, WalRecord)>> {
    let mut out = Vec::new();
    let mut offset = 0;
    loop {
        match read_frame(body, offset) {
            FrameRead::Frame { lsn, record, size } => {
                out.push((lsn, record));
                offset += size;
            }
            FrameRead::Eof => return Ok(out),
            FrameRead::BadTail(e) => return Err(violation("frame batch", e)),
        }
    }
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
    fn hello_roundtrip() {
        let h = Hello {
            epoch: 3,
            last_lsn: 99,
        };
        assert_eq!(Hello::decode(&h.encode()).unwrap(), h);
        assert!(Hello::decode(&[0; 7]).is_err());
    }

    #[test]
    fn hello_ack_roundtrip_carries_lineage() {
        let mut lineage = Lineage::bootstrap();
        lineage.push(2, 40).unwrap();
        lineage.push(5, 90).unwrap();
        let ack = HelloAck {
            lineage,
            resume_from: 40,
        };
        let back = HelloAck::decode(&ack.encode()).unwrap();
        assert_eq!(back, ack);
        assert_eq!(back.epoch(), 5);
    }

    #[test]
    fn ack_roundtrip() {
        let a = Ack { durable_lsn: 7 };
        assert_eq!(Ack::decode(&a.encode()).unwrap(), a);
    }

    #[test]
    fn lineage_fences_by_peer_epoch() {
        let mut l = Lineage::bootstrap();
        l.push(2, 40).unwrap();
        l.push(5, 90).unwrap();
        // A peer still on epoch 1 may keep nothing above epoch 2's start.
        assert_eq!(l.fence_for(1), Some(40));
        // Epochs 2..4 are all fenced at epoch 5's start.
        assert_eq!(l.fence_for(2), Some(90));
        assert_eq!(l.fence_for(4), Some(90));
        // A current peer is not fenced.
        assert_eq!(l.fence_for(5), None);
        assert_eq!(l.current_epoch(), 5);
    }

    #[test]
    fn lineage_rejects_non_monotonic_entries() {
        let mut l = Lineage::bootstrap();
        l.push(3, 10).unwrap();
        assert!(l.push(3, 20).is_err(), "duplicate epoch");
        assert!(l.push(2, 20).is_err(), "epoch regression");
        assert!(l.push(4, 5).is_err(), "start-lsn regression");
    }

    #[test]
    fn lineage_decode_rejects_garbage() {
        // Absurd count.
        let mut w = Writer::new();
        w.put_u32(u32::MAX);
        assert!(Lineage::decode_from(&mut Reader::new(&w.into_bytes())).is_err());
        // Non-monotonic entries on the wire.
        let mut w = Writer::new();
        w.put_u32(2);
        for &(e, s) in &[(5u64, 10u64), (3u64, 20u64)] {
            w.put_u64(e);
            w.put_u64(s);
        }
        assert!(Lineage::decode_from(&mut Reader::new(&w.into_bytes())).is_err());
    }

    #[test]
    fn batch_roundtrip_preserves_order() {
        let frames = vec![(4, rec("a")), (5, rec("b")), (6, rec("c"))];
        let body = encode_batch(&frames);
        let back = decode_batch(&body).unwrap();
        assert_eq!(back.len(), 3);
        assert_eq!(
            back.iter().map(|(l, _)| *l).collect::<Vec<_>>(),
            vec![4, 5, 6]
        );
        assert!(decode_batch(&[]).unwrap().is_empty());
    }

    #[test]
    fn corrupt_batch_is_rejected_whole() {
        let mut body = encode_batch(&[(1, rec("t"))]);
        let last = body.len() - 1;
        body[last] ^= 0x01;
        assert!(decode_batch(&body).is_err());
    }
}
