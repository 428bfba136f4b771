//! The append-only, segmented write-ahead log.
//!
//! Segments are named `seg-<first-lsn>.wal` (zero-padded so lexical order
//! is LSN order). The writer appends framed records (see [`crate::frame`])
//! with group commit: frames accumulate in an in-memory buffer and are
//! written out when the batch fills, with fsync cadence governed by
//! [`FsyncPolicy`]. Dropping the writer does **not** flush — that is the
//! crash model; call [`Wal::flush`] for a graceful shutdown.
//!
//! Reading tolerates a *torn tail*: a bad frame at the end of the newest
//! segment (a write interrupted by the crash) truncates the log there. A
//! bad frame anywhere else — in any segment that valid data follows — is
//! corruption and surfaces as an error, never as silent data loss.
//!
//! A live log is read by [`WalTail`], which hands back frames as written.
//! A replica stages the frames its primary shipped as they are
//! ([`Wal::stage_frame`]), so its segments hold the primary's bytes.

use std::fs::{File, OpenOptions};
use std::io::{Read as _, Write as _};
use std::path::{Path, PathBuf};

use quaestor_common::{Error, Result};
use quaestor_obs::Counter;

use crate::codec::WalRecord;
use crate::config::{DurabilityConfig, FsyncPolicy};
use crate::frame::{encode_frame, frame_lsn, read_frame, FrameRead};

const SEGMENT_PREFIX: &str = "seg-";
const SEGMENT_SUFFIX: &str = ".wal";

pub(crate) fn io_err(context: &str, e: std::io::Error) -> Error {
    Error::Io(format!("{context}: {e}"))
}

/// Fsync a directory so freshly created/renamed entries survive power
/// loss (fsyncing a file does not persist its directory entry).
pub(crate) fn fsync_dir(dir: &Path) -> Result<()> {
    let f = std::fs::File::open(dir).map_err(|e| io_err("open dir for fsync", e))?;
    f.sync_all().map_err(|e| io_err("fsync dir", e))
}

/// Name of the segment whose first frame has `lsn`.
fn segment_name(lsn: u64) -> String {
    format!("{SEGMENT_PREFIX}{lsn:020}{SEGMENT_SUFFIX}")
}

/// Parse a segment file name back to its first LSN.
fn segment_start(name: &str) -> Option<u64> {
    name.strip_prefix(SEGMENT_PREFIX)?
        .strip_suffix(SEGMENT_SUFFIX)?
        .parse()
        .ok()
}

/// List segment files in `dir`, sorted by starting LSN.
pub fn list_segments(dir: &Path) -> Result<Vec<(u64, PathBuf)>> {
    let mut out = Vec::new();
    let entries = match std::fs::read_dir(dir) {
        Ok(e) => e,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(out),
        Err(e) => return Err(io_err("read wal dir", e)),
    };
    for entry in entries {
        let entry = entry.map_err(|e| io_err("read wal dir entry", e))?;
        if let Some(start) = entry.file_name().to_str().and_then(segment_start) {
            out.push((start, entry.path()));
        }
    }
    out.sort_by_key(|(start, _)| *start);
    Ok(out)
}

/// What a full log scan found.
#[derive(Debug)]
pub struct LogScan {
    /// All valid frames in LSN order.
    pub frames: Vec<(u64, WalRecord)>,
    /// Next LSN the writer should assign.
    pub next_lsn: u64,
    /// Bytes cut off the newest segment because of a torn tail (0 for a
    /// clean log).
    pub truncated_bytes: u64,
}

/// Scan every segment in `dir` starting from `first_lsn`, validating CRCs
/// and LSN continuity.
///
/// A bad frame at the tail of the **newest** segment is treated as a torn
/// write: the segment file is truncated to its valid prefix and the scan
/// succeeds. A bad frame in any older segment is mid-log corruption and
/// fails the scan.
pub fn scan(dir: &Path, first_lsn: u64) -> Result<LogScan> {
    let segments = list_segments(dir)?;
    let mut frames = Vec::new();
    let mut truncated_bytes = 0u64;
    let mut expected_lsn = first_lsn;
    let last_index = segments.len().saturating_sub(1);
    for (i, (start, path)) in segments.iter().enumerate() {
        if *start != expected_lsn {
            return Err(Error::Io(format!(
                "wal gap: segment {} starts at lsn {start}, expected {expected_lsn}",
                path.display()
            )));
        }
        let buf = std::fs::read(path).map_err(|e| io_err("read segment", e))?;
        let mut offset = 0usize;
        loop {
            match read_frame(&buf, offset) {
                FrameRead::Frame { lsn, record, size } => {
                    if lsn != expected_lsn {
                        return Err(Error::Io(format!(
                            "wal corruption in {}: frame lsn {lsn}, expected {expected_lsn}",
                            path.display()
                        )));
                    }
                    frames.push((lsn, record));
                    expected_lsn = lsn + 1;
                    offset += size;
                }
                FrameRead::Eof => break,
                FrameRead::BadTail(reason) => {
                    if i != last_index {
                        return Err(Error::Io(format!(
                            "wal corruption mid-log in {}: {reason} (valid segments follow)",
                            path.display()
                        )));
                    }
                    // A bad frame in the newest segment is only a *torn
                    // tail* if nothing valid follows it. If any complete
                    // frame decodes after the damage, truncating here
                    // would silently discard acknowledged, fsynced
                    // writes — that is mid-log corruption (bit rot in
                    // frame k with frames k+1.. intact) and must fail
                    // loudly. The byte-wise probe is O(bytes) but runs
                    // only on the damaged-recovery path; a false
                    // positive needs a 2^-32 CRC collision at a bogus
                    // offset.
                    if let Some(valid_at) = ((offset + 1)..buf.len())
                        .find(|&probe| matches!(read_frame(&buf, probe), FrameRead::Frame { .. }))
                    {
                        return Err(Error::Io(format!(
                            "wal corruption mid-log in {}: {reason} at byte {offset}, but a                              valid frame follows at byte {valid_at}",
                            path.display()
                        )));
                    }
                    // Torn tail of the newest segment: truncate to the
                    // valid prefix so the next append continues cleanly.
                    truncated_bytes = (buf.len() - offset) as u64;
                    let f = OpenOptions::new()
                        .write(true)
                        .open(path)
                        .map_err(|e| io_err("open segment for truncation", e))?;
                    f.set_len(offset as u64)
                        .map_err(|e| io_err("truncate torn tail", e))?;
                    f.sync_all()
                        .map_err(|e| io_err("sync truncated segment", e))?;
                    break;
                }
            }
        }
    }
    Ok(LogScan {
        frames,
        next_lsn: expected_lsn,
        truncated_bytes,
    })
}

/// How many bytes a [`WalTail`] reads from its segment at a time.
const TAIL_READ_CHUNK: u64 = 1 << 20;

fn compacted(lsn: u64) -> Error {
    Error::Io(format!("wal tail: lsn {lsn} was compacted away"))
}

/// A cursor that follows a live log as the writer writes it out (the
/// replication session's read path): a segment, held open at a byte
/// offset, and the LSN of the next frame there. Each [`read`](Self::read)
/// reads only what was written out since the previous one, checks each
/// frame's length, CRC and LSN without decoding its record, and hands the
/// frames back raw, byte-identical to the segment file.
#[derive(Debug)]
pub struct WalTail {
    dir: PathBuf,
    /// First LSN of the segment being read (its name).
    segment: u64,
    file: File,
    /// Byte offset in the segment of `buf[head]`.
    offset: u64,
    /// Bytes read from `file`; `buf[head..]` are not handed out yet.
    buf: Vec<u8>,
    head: usize,
    /// LSN of the frame at `buf[head]`.
    next_lsn: u64,
    /// Highest LSN handed out; frames at or below it are skipped.
    last_lsn: u64,
}

impl WalTail {
    /// A cursor in `dir` whose first frame handed out is `after + 1`;
    /// errors if the log no longer holds that frame.
    pub fn open(dir: &Path, after: u64) -> Result<WalTail> {
        let segments = list_segments(dir)?;
        let Some((segment, path)) = segments.iter().rev().find(|(s, _)| *s <= after + 1) else {
            return Err(compacted(after + 1));
        };
        Ok(WalTail {
            dir: dir.to_path_buf(),
            segment: *segment,
            file: File::open(path).map_err(|e| io_err("open segment for tail", e))?,
            offset: 0,
            buf: Vec::new(),
            head: 0,
            next_lsn: *segment,
            last_lsn: after,
        })
    }

    /// Highest LSN this cursor has handed out.
    pub fn last_lsn(&self) -> u64 {
        self.last_lsn
    }

    /// Append up to `max` raw frames above [`last_lsn`](Self::last_lsn)
    /// to `out`; returns the new `last_lsn`.
    ///
    /// `written` is the writer's highest written-out LSN, read before the
    /// call. Frames up to it must read back: the cursor follows rotation
    /// into the segment named after its next LSN, and errors when that
    /// segment was compacted away or such a frame does not check. A frame
    /// past `written` that does not check yet is one the writer is still
    /// writing: the call returns ("caught up"), and the next call resumes
    /// at that frame.
    pub fn read(&mut self, written: u64, max: usize, out: &mut Vec<u8>) -> Result<u64> {
        let mut taken = 0;
        loop {
            while taken < max {
                let Some((lsn, size)) = frame_lsn(&self.buf[self.head..]) else {
                    break;
                };
                if lsn != self.next_lsn {
                    return Err(Error::Io(format!(
                        "wal tail: frame lsn {lsn} at byte {} of segment {}, expected {}",
                        self.offset, self.segment, self.next_lsn
                    )));
                }
                if lsn > self.last_lsn {
                    out.extend_from_slice(&self.buf[self.head..self.head + size]);
                    self.last_lsn = lsn;
                    taken += 1;
                }
                self.next_lsn += 1;
                self.head += size;
                self.offset += size as u64;
            }
            if taken == max || self.next_lsn > written {
                return Ok(self.last_lsn);
            }
            self.buf.drain(..self.head);
            self.head = 0;
            let n = (&self.file)
                .take(TAIL_READ_CHUNK)
                .read_to_end(&mut self.buf)
                .map_err(|e| io_err("read segment for tail", e))?;
            if n > 0 {
                continue;
            }
            if !self.buf.is_empty() {
                return Err(Error::Io(format!(
                    "wal tail: frame {} is written out but does not check at byte {} of \
                     segment {}",
                    self.next_lsn, self.offset, self.segment
                )));
            }
            // The segment is done, and frame `next_lsn` opens the next one.
            self.file = match File::open(self.dir.join(segment_name(self.next_lsn))) {
                Ok(f) => f,
                Err(e) if e.kind() == std::io::ErrorKind::NotFound => {
                    return Err(compacted(self.next_lsn))
                }
                Err(e) => return Err(io_err("open segment for tail", e)),
            };
            self.segment = self.next_lsn;
            self.offset = 0;
        }
    }
}

/// Delete or cut back segment files so no frame with LSN above `lsn`
/// survives. Used when a fenced node rejoins as a replica and must drop
/// the unreplicated suffix that diverges from the new primary's history.
/// Must run while no [`Wal`] writer is open on `dir`. Returns the number
/// of frames dropped.
pub fn truncate_above(dir: &Path, lsn: u64) -> Result<u64> {
    let mut dropped = 0u64;
    for (seg_start, path) in &list_segments(dir)? {
        let buf = std::fs::read(path).map_err(|e| io_err("read segment for truncation", e))?;
        // Walk the frame headers: the cut is the first frame above `lsn`
        // (or the end of the valid frames), and everything after it goes.
        let (mut offset, mut cut) = (0, None);
        while let Some((frame, size)) = frame_lsn(&buf[offset..]) {
            if frame > lsn {
                cut.get_or_insert(offset);
                dropped += 1;
            }
            offset += size;
        }
        if *seg_start > lsn {
            std::fs::remove_file(path).map_err(|e| io_err("remove truncated segment", e))?;
        } else if let Some(cut) = cut.or((offset < buf.len()).then_some(offset)) {
            let f = OpenOptions::new()
                .write(true)
                .open(path)
                .map_err(|e| io_err("open segment for truncation", e))?;
            f.set_len(cut as u64)
                .map_err(|e| io_err("truncate segment", e))?;
            f.sync_all()
                .map_err(|e| io_err("sync truncated segment", e))?;
        }
    }
    if dropped > 0 {
        fsync_dir(dir)?;
    }
    Ok(dropped)
}

/// Counters of a log's own I/O. A durable server binds them into its
/// registry as `durability.fsyncs` and `durability.frames_written`.
#[derive(Debug, Clone, Default)]
pub struct WalStats {
    /// Fsyncs of segment data (directory fsyncs are not counted).
    pub fsyncs: Counter,
    /// Frames written out to segment files.
    pub frames_written: Counter,
}

/// The segmented WAL writer.
pub struct Wal {
    dir: PathBuf,
    config: DurabilityConfig,
    /// Open handle on the active segment.
    file: File,
    /// Bytes already written to the active segment.
    segment_bytes: u64,
    /// Next LSN to assign.
    next_lsn: u64,
    /// Encoded-but-unwritten frames (the group-commit buffer) and how
    /// many frames it holds.
    buffer: Vec<u8>,
    buffered_frames: usize,
    /// Frames written to the file but not yet fsynced (for `EveryN`).
    unsynced_frames: usize,
    /// Highest LSN written to the segment file.
    written_lsn: u64,
    /// Highest LSN known fsynced. `commit` under `Always` fast-paths
    /// when another committer's fsync already covered the caller's LSN —
    /// that observation *is* the group commit.
    durable_lsn: u64,
    /// Set when a write or fsync of a segment failed. What the segment
    /// holds past `durable_lsn` is then unknown (a write may have landed
    /// in part, a failed fsync may have dropped pages), so the log keeps
    /// only `durable_lsn` as its end and refuses every later write:
    /// nothing it cannot vouch for is read, shipped or counted. Reopening
    /// recovers what the segments really hold.
    failed: bool,
    stats: WalStats,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("next_lsn", &self.next_lsn)
            .field("buffered_frames", &self.buffered_frames)
            .finish()
    }
}

impl Wal {
    /// Open (creating if needed) the log in `dir`, continuing after
    /// `next_lsn - 1`. [`scan`] must have run first — it both yields
    /// `next_lsn` and repairs any torn tail.
    pub fn open(dir: &Path, config: DurabilityConfig, next_lsn: u64) -> Result<Wal> {
        std::fs::create_dir_all(dir).map_err(|e| io_err("create wal dir", e))?;
        let segments = list_segments(dir)?;
        let (path, segment_bytes) = match segments.last() {
            Some((_, path)) => {
                let len = std::fs::metadata(path)
                    .map_err(|e| io_err("stat segment", e))?
                    .len();
                (path.clone(), len)
            }
            None => (dir.join(segment_name(next_lsn)), 0),
        };
        let created = !path.exists();
        let file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open segment", e))?;
        if created {
            // Persist the new segment's directory entry: frames fsynced
            // into a file whose dir entry is lost are frames lost.
            fsync_dir(dir)?;
        }
        let stats = WalStats::default();
        if segment_bytes > 0 {
            // A writer that crashed may have left frames written but not
            // fsynced; recovery read them back, so make them durable
            // before `durable_lsn` says they are. (Older segments were
            // synced when the log rotated past them.)
            file.sync_data()
                .map_err(|e| io_err("fsync reopened segment", e))?;
            stats.fsyncs.inc();
        }
        Ok(Wal {
            dir: dir.to_path_buf(),
            config,
            file,
            segment_bytes,
            next_lsn,
            buffer: Vec::new(),
            buffered_frames: 0,
            unsynced_frames: 0,
            written_lsn: next_lsn - 1,
            durable_lsn: next_lsn - 1,
            failed: false,
            stats,
        })
    }

    /// This log's I/O counters.
    pub fn stats(&self) -> &WalStats {
        &self.stats
    }

    /// Stage one record into the group-commit buffer; returns its LSN.
    /// Cheap (an in-memory encode) — the durable half is
    /// [`commit`](Self::commit). The two are split so callers can stage
    /// inside a critical section (preserving ordering) and pay for I/O
    /// outside it.
    pub fn stage(&mut self, record: &WalRecord) -> Result<u64> {
        self.check_usable()?;
        let lsn = self.next_lsn;
        self.next_lsn += 1;
        encode_frame(lsn, record, &mut self.buffer);
        self.buffered_frames += 1;
        Ok(lsn)
    }

    /// Stage one already-encoded frame, byte for byte (a frame shipped
    /// by a replication primary, whose CRC and LSN the caller checked:
    /// the LSN is the next one this log assigns).
    pub fn stage_frame(&mut self, lsn: u64, frame: &[u8]) {
        debug_assert_eq!(lsn, self.next_lsn, "staged frame out of order");
        self.next_lsn += 1;
        self.buffer.extend_from_slice(frame);
        self.buffered_frames += 1;
    }

    /// Make the staged `lsn` as durable as the [`FsyncPolicy`] promises.
    /// Under `Always` this returns only once `lsn` is fsynced — and one
    /// committer's fsync covers every LSN staged before it, so
    /// concurrent writers amortize to one sync per batch (group
    /// commit). Under `EveryN(n)` the buffer drains and syncs on its
    /// cadence (loss bounded by `n`); under `OsDefault` the buffer
    /// drains on the group boundary and the page cache does the rest.
    pub fn commit(&mut self, lsn: u64) -> Result<()> {
        match self.config.fsync {
            FsyncPolicy::Always => {
                if self.durable_lsn >= lsn {
                    return Ok(());
                }
                self.write_buffer()?;
                self.sync()?;
            }
            FsyncPolicy::EveryN(n) => {
                let n = n.max(1);
                // `EveryN(n)` promises "at most n acknowledged writes
                // lost", so the in-memory buffer must drain at least
                // every n frames even when the group is larger.
                let write_threshold = self.config.group_commit.max(1).min(n);
                if self.buffered_frames >= write_threshold {
                    self.write_buffer()?;
                }
                if self.unsynced_frames >= n {
                    self.sync()?;
                }
            }
            FsyncPolicy::OsDefault => {
                if self.buffered_frames >= self.config.group_commit.max(1) {
                    self.write_buffer()?;
                }
            }
        }
        Ok(())
    }

    /// Stage + commit in one call (metadata records, tests).
    pub fn append(&mut self, record: &WalRecord) -> Result<u64> {
        let lsn = self.stage(record)?;
        self.commit(lsn)?;
        Ok(lsn)
    }

    /// Write the group-commit buffer to the active segment, rotating
    /// first if the segment is full.
    fn write_buffer(&mut self) -> Result<()> {
        self.check_usable()?;
        if self.buffer.is_empty() {
            return Ok(());
        }
        if self.segment_bytes >= self.config.max_segment_bytes {
            // The new segment's name is the LSN of the first frame it
            // will hold — the oldest frame in the buffer.
            self.rotate(self.next_lsn - self.buffered_frames as u64)?;
        }
        if let Err(e) = self.file.write_all(&self.buffer) {
            return Err(self.fail(io_err("append to segment", e)));
        }
        self.segment_bytes += self.buffer.len() as u64;
        self.unsynced_frames += self.buffered_frames;
        self.stats.frames_written.add(self.buffered_frames as u64);
        self.buffer.clear();
        self.buffered_frames = 0;
        // The buffer always ends at the most recently staged LSN.
        self.written_lsn = self.next_lsn - 1;
        Ok(())
    }

    fn sync(&mut self) -> Result<()> {
        self.check_usable()?;
        if let Err(e) = self.file.sync_data() {
            return Err(self.fail(io_err("fsync segment", e)));
        }
        self.stats.fsyncs.inc();
        self.unsynced_frames = 0;
        self.durable_lsn = self.written_lsn;
        Ok(())
    }

    /// Mark the log failed (see `failed`): drop what was staged or
    /// written since the last fsync, so its end reads `durable_lsn`.
    fn fail(&mut self, e: Error) -> Error {
        self.failed = true;
        self.buffer.clear();
        self.buffered_frames = 0;
        self.unsynced_frames = 0;
        self.next_lsn = self.durable_lsn + 1;
        self.written_lsn = self.durable_lsn;
        e
    }

    /// Refuse to go on once a write or fsync failed, dropping anything
    /// staged since.
    fn check_usable(&mut self) -> Result<()> {
        if !self.failed {
            return Ok(());
        }
        Err(self.fail(Error::Io(
            "wal: an earlier write or fsync failed; reopen the log to recover it".into(),
        )))
    }

    /// Flush the group-commit buffer and fsync regardless of policy;
    /// no fsync when nothing was written since the last one. Returns the
    /// highest LSN now durable on disk.
    pub fn flush(&mut self) -> Result<u64> {
        self.write_buffer()?;
        if self.written_lsn > self.durable_lsn {
            self.sync()?;
        }
        Ok(self.durable_lsn)
    }

    /// Highest LSN assigned so far (`first_lsn - 1` if none).
    pub fn last_lsn(&self) -> u64 {
        self.next_lsn - 1
    }

    /// Highest LSN known fsynced to stable storage.
    pub fn durable(&self) -> u64 {
        self.durable_lsn
    }

    /// Highest LSN written out to the segment files.
    pub fn written(&self) -> u64 {
        self.written_lsn
    }

    /// Write the group-commit buffer out, with no fsync; returns
    /// [`written`](Self::written).
    pub fn write_out(&mut self) -> Result<u64> {
        self.write_buffer()?;
        Ok(self.written_lsn)
    }

    /// Rotate to a fresh segment starting at `first_lsn`. The old segment
    /// is synced first (when it holds unsynced frames) so rotation never
    /// widens the loss window.
    fn rotate(&mut self, first_lsn: u64) -> Result<()> {
        if self.written_lsn > self.durable_lsn {
            self.sync()?;
        }
        let path = self.dir.join(segment_name(first_lsn));
        self.file = OpenOptions::new()
            .create(true)
            .append(true)
            .open(&path)
            .map_err(|e| io_err("open new segment", e))?;
        fsync_dir(&self.dir)?;
        self.segment_bytes = 0;
        Ok(())
    }

    /// Make every later write to the active segment fail, as a failing
    /// disk would: the handle becomes the log directory, opened
    /// read-only.
    #[cfg(test)]
    pub(crate) fn break_writes(&mut self) {
        self.file = File::open(&self.dir).unwrap();
    }

    /// Delete every segment whose frames all have LSN ≤ `keep_lsn`: a
    /// segment is removable when the *next* segment starts at or below
    /// `keep_lsn + 1`. The active (newest) segment always survives.
    /// Returns the number removed.
    pub fn compact_below(&mut self, keep_lsn: u64) -> Result<usize> {
        let segments = list_segments(&self.dir)?;
        let mut removed = 0;
        for window in segments.windows(2) {
            let (_, ref path) = window[0];
            let (next_start, _) = window[1];
            if next_start <= keep_lsn + 1 {
                std::fs::remove_file(path).map_err(|e| io_err("remove compacted segment", e))?;
                removed += 1;
            }
        }
        Ok(removed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_common::scratch_dir;

    fn temp_dir(tag: &str) -> PathBuf {
        scratch_dir(&format!("wal-{tag}"))
    }

    fn rec(i: u64) -> WalRecord {
        WalRecord::CreateTable {
            table: format!("t{i}"),
        }
    }

    #[test]
    fn append_scan_roundtrip() {
        let dir = temp_dir("roundtrip");
        let mut wal = Wal::open(&dir, DurabilityConfig::default(), 1).unwrap();
        for i in 0..10 {
            assert_eq!(wal.append(&rec(i)).unwrap(), i + 1);
        }
        wal.flush().unwrap();
        let scan = scan(&dir, 1).unwrap();
        assert_eq!(scan.frames.len(), 10);
        assert_eq!(scan.next_lsn, 11);
        assert_eq!(scan.truncated_bytes, 0);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn reopening_fsyncs_what_a_crashed_writer_left_unsynced() {
        let dir = temp_dir("reopen-sync");
        let lazy = DurabilityConfig {
            fsync: FsyncPolicy::OsDefault,
            group_commit: 1,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::open(&dir, lazy, 1).unwrap();
        assert_eq!(wal.stats().fsyncs.get(), 0, "an empty segment needs none");
        for i in 0..3 {
            wal.append(&rec(i)).unwrap();
        }
        assert_eq!(wal.written(), 3);
        assert_eq!(wal.stats().fsyncs.get(), 0, "written out, never fsynced");
        drop(wal); // the crash model
        let next_lsn = scan(&dir, 1).unwrap().next_lsn;
        let mut wal = Wal::open(&dir, lazy, next_lsn).unwrap();
        assert_eq!(
            wal.stats().fsyncs.get(),
            1,
            "the reopened segment is synced"
        );
        assert_eq!(wal.flush().unwrap(), 3);
        assert_eq!(wal.stats().fsyncs.get(), 1, "and nothing is left to flush");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn a_failed_write_leaves_the_log_at_its_durable_end_and_refuses_more() {
        let dir = temp_dir("failed-write");
        let mut wal = Wal::open(&dir, DurabilityConfig::default(), 1).unwrap();
        for i in 0..3 {
            wal.append(&rec(i)).unwrap();
        }
        wal.break_writes();
        assert!(wal.append(&rec(3)).is_err());
        assert_eq!((wal.last_lsn(), wal.written(), wal.durable()), (3, 3, 3));
        assert!(wal.stage(&rec(3)).is_err());
        assert!(wal.flush().is_err());
        assert_eq!(wal.last_lsn(), 3);
        drop(wal);
        // Reopening recovers what the segment holds, and the log goes on.
        let next_lsn = scan(&dir, 1).unwrap().next_lsn;
        assert_eq!(next_lsn, 4);
        let mut wal = Wal::open(&dir, DurabilityConfig::default(), next_lsn).unwrap();
        assert_eq!(wal.append(&rec(3)).unwrap(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn group_commit_buffers_until_batch_fills() {
        let dir = temp_dir("group");
        let cfg = DurabilityConfig {
            fsync: FsyncPolicy::OsDefault,
            group_commit: 4,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..3 {
            wal.append(&rec(i)).unwrap();
        }
        // Crash before the batch fills: the 3 buffered frames are lost.
        drop(wal);
        assert_eq!(scan(&dir, 1).unwrap().frames.len(), 0);
        // Refill past the batch boundary: 4 frames hit the file.
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..5 {
            wal.append(&rec(i)).unwrap();
        }
        drop(wal);
        assert_eq!(scan(&dir, 1).unwrap().frames.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn always_policy_survives_unflushed_drop() {
        let dir = temp_dir("always");
        let mut wal = Wal::open(&dir, DurabilityConfig::default(), 1).unwrap();
        for i in 0..7 {
            wal.append(&rec(i)).unwrap();
        }
        drop(wal); // no flush — the crash model
        assert_eq!(scan(&dir, 1).unwrap().frames.len(), 7);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn segments_rotate_and_resume() {
        let dir = temp_dir("rotate");
        let cfg = DurabilityConfig {
            max_segment_bytes: 256,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..50 {
            wal.append(&rec(i)).unwrap();
        }
        wal.flush().unwrap();
        assert!(
            list_segments(&dir).unwrap().len() > 1,
            "256-byte segments must have rotated"
        );
        // Reopen and keep appending across the boundary.
        let s = scan(&dir, 1).unwrap();
        assert_eq!(s.frames.len(), 50);
        let mut wal = Wal::open(&dir, cfg, s.next_lsn).unwrap();
        wal.append(&rec(99)).unwrap();
        wal.flush().unwrap();
        assert_eq!(scan(&dir, 1).unwrap().frames.len(), 51);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_truncates_only_newest_segment() {
        let dir = temp_dir("torn");
        let mut wal = Wal::open(&dir, DurabilityConfig::default(), 1).unwrap();
        for i in 0..5 {
            wal.append(&rec(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Chop bytes off the newest segment.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 3)
            .unwrap();
        let s = scan(&dir, 1).unwrap();
        assert_eq!(s.frames.len(), 4, "last frame torn, first four intact");
        assert!(s.truncated_bytes > 0);
        // Scan repaired the file: a second scan is clean.
        let s2 = scan(&dir, 1).unwrap();
        assert_eq!(s2.truncated_bytes, 0);
        assert_eq!(s2.frames.len(), 4);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mid_log_corruption_is_an_error() {
        let dir = temp_dir("midlog");
        let cfg = DurabilityConfig {
            max_segment_bytes: 128,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..40 {
            wal.append(&rec(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 2);
        // Flip a byte in the FIRST segment — valid segments follow, so
        // this must be corruption, not a torn tail.
        let path = &segments[0].1;
        let mut bytes = std::fs::read(path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(path, &bytes).unwrap();
        let err = scan(&dir, 1).unwrap_err();
        assert!(err.to_string().contains("corruption"), "got: {err}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn bad_frame_with_valid_frames_after_it_is_corruption_even_in_newest_segment() {
        let dir = temp_dir("midseg");
        let mut wal = Wal::open(&dir, DurabilityConfig::default(), 1).unwrap();
        for i in 0..6 {
            wal.append(&rec(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        // Single segment (16 MiB default): flip a byte in the SECOND
        // frame — frames 3..6, all acknowledged and fsynced, follow it.
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Frame 1's size: read it to find frame 2's offset.
        let first_size = match read_frame(&bytes, 0) {
            FrameRead::Frame { size, .. } => size,
            other => panic!("expected frame, got {other:?}"),
        };
        bytes[first_size + 12] ^= 0xFF; // inside frame 2's payload
        std::fs::write(&path, &bytes).unwrap();
        let err = scan(&dir, 1).unwrap_err();
        assert!(
            err.to_string().contains("valid frame follows"),
            "must refuse to truncate past acknowledged frames, got: {err}"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    /// The LSNs of the raw frames in `bytes`.
    fn lsns(bytes: &[u8]) -> Vec<u64> {
        let mut out = Vec::new();
        let mut offset = 0;
        while let FrameRead::Frame { lsn, size, .. } = read_frame(bytes, offset) {
            out.push(lsn);
            offset += size;
        }
        assert_eq!(offset, bytes.len(), "whole frames only");
        out
    }

    fn small_segments() -> DurabilityConfig {
        DurabilityConfig {
            max_segment_bytes: 128,
            ..DurabilityConfig::default()
        }
    }

    #[test]
    fn tail_follows_a_live_writer_across_rotation() {
        let dir = temp_dir("tail");
        let mut wal = Wal::open(&dir, small_segments(), 1).unwrap();
        for i in 0..10 {
            wal.append(&rec(i)).unwrap();
        }
        // From the start: everything, `max` frames at a time.
        let mut tail = WalTail::open(&dir, 0).unwrap();
        let mut out = Vec::new();
        assert_eq!(tail.read(wal.written(), 4, &mut out).unwrap(), 4);
        assert_eq!(lsns(&out), [1, 2, 3, 4]);
        assert_eq!(tail.read(wal.written(), 100, &mut out).unwrap(), 10);
        assert_eq!(lsns(&out), (1..=10).collect::<Vec<_>>());
        // Caught up: nothing more, and no error.
        out.clear();
        assert_eq!(tail.read(wal.written(), 100, &mut out).unwrap(), 10);
        assert!(out.is_empty());
        // From inside the log: the suffix.
        let mut late = WalTail::open(&dir, 7).unwrap();
        assert_eq!(late.read(wal.written(), 100, &mut out).unwrap(), 10);
        assert_eq!(lsns(&out), [8, 9, 10]);
        // The writer rotates on; the cursor follows it.
        let before = list_segments(&dir).unwrap().len();
        for i in 10..30 {
            wal.append(&rec(i)).unwrap();
        }
        assert!(list_segments(&dir).unwrap().len() > before + 1);
        out.clear();
        assert_eq!(tail.read(wal.written(), 100, &mut out).unwrap(), 30);
        assert_eq!(lsns(&out), (11..=30).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_hands_back_the_on_disk_frames_byte_for_byte() {
        let dir = temp_dir("tailbytes");
        let mut wal = Wal::open(&dir, small_segments(), 1).unwrap();
        let mut tail = WalTail::open(&dir, 0).unwrap();
        let mut out = Vec::new();
        for i in 0..25 {
            wal.append(&rec(i)).unwrap();
            if i % 7 == 0 {
                tail.read(wal.written(), 3, &mut out).unwrap();
            }
        }
        while tail.read(wal.written(), 3, &mut out).unwrap() < 25 {}
        let on_disk: Vec<u8> = list_segments(&dir)
            .unwrap()
            .iter()
            .flat_map(|(_, path)| std::fs::read(path).unwrap())
            .collect();
        assert_eq!(out, on_disk);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_reads_a_torn_frame_as_caught_up() {
        let dir = temp_dir("tailtorn");
        let mut wal = Wal::open(&dir, DurabilityConfig::default(), 1).unwrap();
        for i in 0..5 {
            wal.append(&rec(i)).unwrap();
        }
        // Frame 6 is half written, as a reader racing the writer sees it.
        let mut frame = Vec::new();
        encode_frame(6, &rec(5), &mut frame);
        let (_, path) = list_segments(&dir).unwrap().pop().unwrap();
        let mut seg = OpenOptions::new().append(true).open(&path).unwrap();
        seg.write_all(&frame[..frame.len() / 2]).unwrap();
        let mut tail = WalTail::open(&dir, 0).unwrap();
        let mut out = Vec::new();
        assert_eq!(tail.read(5, 100, &mut out).unwrap(), 5);
        assert_eq!(lsns(&out), [1, 2, 3, 4, 5]);
        out.clear();
        assert_eq!(tail.read(5, 100, &mut out).unwrap(), 5, "still caught up");
        assert!(out.is_empty());
        // A torn frame the writer reports written out is damage.
        let err = tail.read(6, 100, &mut out).unwrap_err();
        assert!(err.to_string().contains("does not check"), "got: {err}");
        // The rest of the frame lands; the cursor resumes at it.
        seg.write_all(&frame[frame.len() / 2..]).unwrap();
        assert_eq!(tail.read(6, 100, &mut out).unwrap(), 6);
        assert_eq!(out, frame);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn tail_errors_when_its_segment_was_compacted() {
        let dir = temp_dir("tailgone");
        let mut wal = Wal::open(&dir, small_segments(), 1).unwrap();
        for i in 0..40 {
            wal.append(&rec(i)).unwrap();
        }
        let segments = list_segments(&dir).unwrap();
        assert!(segments.len() > 3);
        // A cursor parked in the first segment...
        let mut parked = WalTail::open(&dir, 0).unwrap();
        let mut out = Vec::new();
        parked.read(wal.written(), 1, &mut out).unwrap();
        // ...and the first two segments compacted away.
        let third = segments[2].0;
        assert_eq!(wal.compact_below(third - 1).unwrap(), 2);
        let err = WalTail::open(&dir, 0).unwrap_err();
        assert!(err.to_string().contains("compacted"), "got: {err}");
        // The parked cursor finishes the segment it holds open, then
        // finds its successor gone.
        let err = parked.read(wal.written(), 100, &mut out).unwrap_err();
        assert!(err.to_string().contains("compacted"), "got: {err}");
        assert_eq!(parked.last_lsn(), segments[1].0 - 1);
        // A cursor inside the retained range still works.
        let mut ok = WalTail::open(&dir, third - 1).unwrap();
        out.clear();
        ok.read(wal.written(), 100, &mut out).unwrap();
        assert_eq!(lsns(&out), (third..=40).collect::<Vec<_>>());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn truncate_above_cuts_frames_and_whole_segments() {
        let dir = temp_dir("truncabove");
        let cfg = DurabilityConfig {
            max_segment_bytes: 128,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..40 {
            wal.append(&rec(i)).unwrap();
        }
        wal.flush().unwrap();
        drop(wal);
        let dropped = truncate_above(&dir, 17).unwrap();
        assert_eq!(dropped, 23, "frames 18..=40 removed");
        let s = scan(&dir, 1).unwrap();
        assert_eq!(s.next_lsn, 18);
        assert_eq!(s.frames.last().unwrap().0, 17);
        // Idempotent: nothing above 17 remains.
        assert_eq!(truncate_above(&dir, 17).unwrap(), 0);
        // The log reopens and continues from the cut.
        let mut wal = Wal::open(&dir, cfg, s.next_lsn).unwrap();
        assert_eq!(wal.append(&rec(99)).unwrap(), 18);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn compaction_drops_fully_covered_segments() {
        let dir = temp_dir("compact");
        let cfg = DurabilityConfig {
            max_segment_bytes: 128,
            ..DurabilityConfig::default()
        };
        let mut wal = Wal::open(&dir, cfg, 1).unwrap();
        for i in 0..40 {
            wal.append(&rec(i)).unwrap();
        }
        wal.flush().unwrap();
        let before = list_segments(&dir).unwrap();
        assert!(before.len() > 2);
        // Keep everything above the second segment's start.
        let keep = before[2].0 - 1;
        let removed = wal.compact_below(keep).unwrap();
        assert_eq!(removed, 2);
        let after = list_segments(&dir).unwrap();
        assert_eq!(after.len(), before.len() - 2);
        // The surviving log still scans cleanly from its new start.
        let s = scan(&dir, after[0].0).unwrap();
        assert_eq!(s.next_lsn, 41);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
