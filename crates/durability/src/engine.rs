//! The durability engine: the [`WriteSink`] implementation that owns the
//! WAL and snapshot files of one database directory.
//!
//! Directory layout:
//!
//! ```text
//! <dir>/wal/seg-<lsn>.wal     append-only log segments
//! <dir>/snap/snap-<lsn>.qsnap full-state snapshots
//! ```
//!
//! Opening the engine performs recovery in one pass: load the newest
//! valid snapshot, scan the log (repairing a torn tail), and hand back a
//! [`Recovery`] that can replay the state into a fresh
//! [`Database`]. Only after `Recovery::restore` has run is the engine
//! attached as the database's write sink, so replayed writes are never
//! re-logged.

use std::path::{Path, PathBuf};
use std::sync::Arc;

use parking_lot::{Condvar, Mutex};
use quaestor_common::{lock_rank, Error, FxHashMap, Result, Timestamp};
use quaestor_query::{Query, QueryKey};
use quaestor_store::{Database, WriteEvent, WriteSink};

use crate::codec::WalRecord;
use crate::config::DurabilityConfig;
use crate::snapshot::{self, SnapshotData, SnapshotRecord, SnapshotTable};
use crate::wal::{self, Wal, WalTail};

/// Statistics of one recovery pass (reported, not interpreted).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// LSN of the snapshot recovery started from (0 = no snapshot).
    pub snapshot_lsn: u64,
    /// WAL frames replayed on top of the snapshot.
    pub replayed_frames: u64,
    /// Write frames among them that actually changed state.
    pub applied_writes: u64,
    /// Bytes truncated off the newest segment (torn tail; 0 = clean).
    pub torn_tail_bytes: u64,
    /// Highest LSN in the recovered log.
    pub last_lsn: u64,
}

/// Everything recovery reconstructs besides raw table state.
#[derive(Debug)]
pub struct RecoveredMeta {
    /// Queries that were actively matched before the crash, in first-
    /// registration order; the server re-registers them before serving.
    pub queries: Vec<Query>,
    /// `(table, id)` pairs whose delete tombstones were replayed from the
    /// log. Caches out there may still hold these records, so the server
    /// warm-starts its EBF sketch by marking them stale.
    pub tombstones: Vec<(String, String)>,
    /// Scan/replay statistics.
    pub report: RecoveryReport,
}

/// Replay the registered-query bookkeeping: the snapshot's set seeded
/// first, then `RegisterQuery`/`DeregisterQuery` frames above the
/// snapshot LSN, preserving first-registration order. The single source
/// of truth shared by [`Recovery::restore`] (what the server
/// re-registers) and [`DurabilityEngine::open`] (the engine's live
/// mirror) — two hand-rolled copies of this rule would drift.
fn replay_query_set(
    snapshot: Option<&(u64, SnapshotData)>,
    frames: &[(u64, WalRecord)],
) -> Vec<(String, Query)> {
    let snapshot_lsn = snapshot.map(|(lsn, _)| *lsn).unwrap_or(0);
    let mut queries: Vec<(String, Query)> = Vec::new();
    if let Some((_, data)) = snapshot {
        for q in &data.queries {
            queries.push((QueryKey::of(q).as_str().to_owned(), q.clone()));
        }
    }
    for (lsn, record) in frames {
        if *lsn <= snapshot_lsn {
            continue;
        }
        match record {
            WalRecord::RegisterQuery { query } => {
                let key = QueryKey::of(query).as_str().to_owned();
                if !queries.iter().any(|(k, _)| *k == key) {
                    queries.push((key, query.clone()));
                }
            }
            WalRecord::DeregisterQuery { key } => {
                queries.retain(|(k, _)| k != key);
            }
            _ => {}
        }
    }
    queries
}

/// The pending result of opening an engine: consumed by
/// [`Recovery::restore`] to populate a database.
#[derive(Debug)]
pub struct Recovery {
    snapshot: Option<(u64, SnapshotData)>,
    frames: Vec<(u64, WalRecord)>,
    torn_tail_bytes: u64,
    last_lsn: u64,
}

impl Recovery {
    /// True when there is nothing on disk yet (fresh directory).
    pub fn is_empty(&self) -> bool {
        self.snapshot.is_none() && self.frames.is_empty()
    }

    /// Replay snapshot + log into `db` (normally a fresh database).
    /// Idempotent by construction: snapshot restore is a plain load and
    /// frame replay is version-keyed (see
    /// [`Table::apply_recovered_write`](quaestor_store::Table::apply_recovered_write)).
    pub fn restore(self, db: &Database) -> Result<RecoveredMeta> {
        let mut report = RecoveryReport {
            torn_tail_bytes: self.torn_tail_bytes,
            last_lsn: self.last_lsn,
            ..RecoveryReport::default()
        };
        let queries = replay_query_set(self.snapshot.as_ref(), &self.frames);
        // Tombstones carried by the snapshot: their delete frames were
        // compacted away, but surviving caches may still hold the
        // records, so the EBF warm-start needs them as much as the
        // replayed ones below.
        let mut tombstones: Vec<(String, String)> = self
            .snapshot
            .as_ref()
            .map(|(_, data)| {
                data.tombstones
                    .iter()
                    .map(|(table, id, _)| (table.clone(), id.clone()))
                    .collect()
            })
            .unwrap_or_default();
        if let Some((lsn, data)) = self.snapshot {
            report.snapshot_lsn = lsn;
            for table in data.tables {
                let t = db.create_table(&table.name);
                for rec in table.records {
                    t.restore_record(
                        &rec.id,
                        Arc::new(rec.doc),
                        rec.version,
                        Timestamp::from_millis(rec.updated_at),
                    );
                }
                t.set_seq_floor(table.seq);
            }
        }
        for (lsn, record) in self.frames {
            if lsn <= report.snapshot_lsn {
                // Frames at or below the snapshot are already reflected
                // in it; skipping (rather than re-applying) keeps replay
                // linear even when compaction has not run yet.
                continue;
            }
            report.replayed_frames += 1;
            match record {
                WalRecord::Write {
                    table,
                    id,
                    kind,
                    image,
                    version,
                    seq,
                    at,
                } => {
                    let t = db.create_table(&table);
                    let applied = t.apply_recovered_write(
                        kind,
                        &id,
                        Arc::new(image),
                        version,
                        seq,
                        Timestamp::from_millis(at),
                    );
                    if applied {
                        report.applied_writes += 1;
                    }
                    if matches!(kind, quaestor_store::WriteKind::Delete) {
                        tombstones.push((table, id));
                    }
                }
                WalRecord::CreateTable { table } => {
                    db.create_table(&table);
                }
                // Query bookkeeping is handled by replay_query_set above.
                WalRecord::RegisterQuery { .. } | WalRecord::DeregisterQuery { .. } => {}
            }
        }
        Ok(RecoveredMeta {
            queries: queries.into_iter().map(|(_, q)| q).collect(),
            tombstones,
            report,
        })
    }
}

struct EngineState {
    wal: Wal,
    /// Live registered-query set, mirrored here so snapshots can persist
    /// it without reaching into InvaliDB.
    queries: FxHashMap<String, Query>,
    /// Recent delete tombstones `(table, id, at_ms)`, mirrored so
    /// snapshots can carry them past the compaction of their frames.
    /// Pruned to `tombstone_retention_ms` of database time at snapshot.
    tombstones: Vec<(String, String, u64)>,
    /// Frames appended since the last snapshot (for auto-snapshot).
    frames_since_snapshot: u64,
    /// Set by [`DurabilityEngine::stop_tails`].
    tails_stopped: bool,
}

/// The write-ahead-logging, snapshotting [`WriteSink`].
pub struct DurabilityEngine {
    dir: PathBuf,
    config: DurabilityConfig,
    state: Mutex<EngineState>,
    /// Notified when frames are written out, and by `stop_tails`.
    written_out: Condvar,
    /// The held `LOCK` file; removed on drop so the directory can be
    /// reopened (a crashed process leaves it behind — staleness is
    /// detected via the recorded pid).
    lock_path: PathBuf,
    /// Held for the whole of [`snapshot`](Self::snapshot); probed by
    /// [`wants_snapshot`](Self::wants_snapshot) so every writer crossing
    /// the auto-checkpoint threshold does not pile onto a full-state
    /// sweep already in flight.
    snapshot_gate: Mutex<()>,
}

impl std::fmt::Debug for DurabilityEngine {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DurabilityEngine")
            .field("dir", &self.dir)
            .finish()
    }
}

/// Take the directory's `LOCK` file, or explain who holds it. Two live
/// engines on one directory would interleave duplicate LSNs into the
/// same segment and corrupt the log, so open refuses. A lock left by a
/// dead process (crash) is detected by its recorded pid and broken.
fn acquire_lock(dir: &Path) -> Result<PathBuf> {
    use std::io::Write as _;
    let lock_path = dir.join("LOCK");
    for _ in 0..8 {
        match std::fs::OpenOptions::new()
            .write(true)
            .create_new(true)
            .open(&lock_path)
        {
            Ok(mut f) => {
                let _ = writeln!(f, "{}", std::process::id());
                return Ok(lock_path);
            }
            Err(e) if e.kind() == std::io::ErrorKind::AlreadyExists => {
                let holder: Option<u32> = std::fs::read_to_string(&lock_path)
                    .ok()
                    .and_then(|c| c.trim().parse().ok());
                let alive = |pid: u32| Path::new(&format!("/proc/{pid}")).exists();
                match holder {
                    Some(pid) if pid == std::process::id() => {
                        return Err(Error::Io(format!(
                            "durability dir {} already open in this process (pid {pid})",
                            dir.display()
                        )));
                    }
                    Some(pid) if alive(pid) => {
                        return Err(Error::Io(format!(
                            "durability dir {} locked by live pid {pid}",
                            dir.display()
                        )));
                    }
                    // Dead holder (or unreadable lock): break it and
                    // retry the create_new race.
                    _ => {
                        let _ = std::fs::remove_file(&lock_path);
                    }
                }
            }
            Err(e) => return Err(Error::Io(format!("create lock file: {e}"))),
        }
    }
    Err(Error::Io(format!(
        "could not acquire lock on {} (stale-lock race)",
        dir.display()
    )))
}

impl Drop for DurabilityEngine {
    fn drop(&mut self) {
        // Intentionally no flush (dropping IS the crash model); only the
        // advisory lock is released.
        let _ = std::fs::remove_file(&self.lock_path);
    }
}

impl DurabilityEngine {
    /// Open (creating if needed) the durability directory and perform the
    /// read half of recovery. The returned [`Recovery`] must be
    /// [`restore`](Recovery::restore)d into a database *before* the
    /// engine is attached as its sink.
    pub fn open(dir: impl AsRef<Path>, config: DurabilityConfig) -> Result<(Arc<Self>, Recovery)> {
        let dir = dir.as_ref().to_path_buf();
        let wal_dir = dir.join("wal");
        let snap_dir = dir.join("snap");
        std::fs::create_dir_all(&wal_dir)
            .and(std::fs::create_dir_all(&snap_dir))
            .map_err(|e| Error::Io(format!("create durability dirs: {e}")))?;
        let lock_path = acquire_lock(&dir)?;

        let snapshot = snapshot::load_latest(&snap_dir)?;
        let snapshot_lsn = snapshot.as_ref().map(|(l, _)| *l).unwrap_or(0);
        let segments = wal::list_segments(&wal_dir)?;
        let first_lsn = segments
            .first()
            .map(|(s, _)| *s)
            .unwrap_or(snapshot_lsn + 1);
        if first_lsn > snapshot_lsn + 1 {
            return Err(Error::Io(format!(
                "wal gap after snapshot: snapshot at lsn {snapshot_lsn}, oldest segment starts \
                 at {first_lsn}"
            )));
        }
        let scan = wal::scan(&wal_dir, first_lsn)?;
        let next_lsn = scan.next_lsn.max(snapshot_lsn + 1);
        let wal = Wal::open(&wal_dir, config, next_lsn)?;

        // Seed the live query mirror from the same derivation restore
        // hands the server, so mirror and re-registration cannot drift.
        let queries: FxHashMap<String, Query> = replay_query_set(snapshot.as_ref(), &scan.frames)
            .into_iter()
            .collect();
        // Seed the tombstone mirror: the snapshot's carried list plus
        // every delete frame above it.
        let mut tombstones: Vec<(String, String, u64)> = snapshot
            .as_ref()
            .map(|(_, data)| data.tombstones.clone())
            .unwrap_or_default();
        for (lsn, record) in &scan.frames {
            if *lsn <= snapshot_lsn {
                continue;
            }
            if let WalRecord::Write {
                table,
                id,
                kind: quaestor_store::WriteKind::Delete,
                at,
                ..
            } = record
            {
                tombstones.push((table.clone(), id.clone(), *at));
            }
        }

        let last_lsn = next_lsn - 1;
        let recovery = Recovery {
            snapshot,
            frames: scan.frames,
            torn_tail_bytes: scan.truncated_bytes,
            last_lsn,
        };
        let engine = Arc::new(DurabilityEngine {
            dir,
            config,
            state: Mutex::with_rank(
                EngineState {
                    wal,
                    queries,
                    tombstones,
                    frames_since_snapshot: 0,
                    tails_stopped: false,
                },
                lock_rank::DURABILITY_WAL.0,
                lock_rank::DURABILITY_WAL.1,
            ),
            written_out: Condvar::new(),
            snapshot_gate: Mutex::with_rank(
                (),
                lock_rank::DURABILITY_SNAPSHOT_GATE.0,
                lock_rank::DURABILITY_SNAPSHOT_GATE.1,
            ),
            lock_path,
        });
        Ok((engine, recovery))
    }

    /// The durability directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// The configuration in effect.
    pub fn config(&self) -> &DurabilityConfig {
        &self.config
    }

    /// Highest LSN assigned so far.
    pub fn last_lsn(&self) -> u64 {
        self.state.lock().wal.last_lsn()
    }

    /// Highest LSN known fsynced to stable storage.
    pub fn durable_lsn(&self) -> u64 {
        self.state.lock().wal.durable()
    }

    /// Run `f` on the locked WAL state; wake the tail readers if it wrote
    /// frames out (after unlocking, so that they do not wake into it).
    fn with_wal<R>(&self, f: impl FnOnce(&mut EngineState) -> R) -> R {
        let mut state = self.state.lock();
        let written = state.wal.written();
        let out = f(&mut state);
        let wrote = state.wal.written() != written;
        drop(state);
        if wrote {
            self.written_out.notify_all();
        }
        out
    }

    /// A cursor over this log whose first frame is `after + 1`.
    pub fn tail(&self, after: u64) -> Result<WalTail> {
        WalTail::open(&self.dir.join("wal"), after)
    }

    /// Block until a frame above `tail`'s cursor is written out, then
    /// append up to `max` raw frames to `out` (see [`WalTail::read`]).
    /// Only written-out frames are visible, so a replica is never ahead
    /// of the primary's segment files. `Error::Closed` after
    /// [`stop_tails`](Self::stop_tails).
    pub fn read_tail(&self, tail: &mut WalTail, max: usize, out: &mut Vec<u8>) -> Result<u64> {
        let mut state = self.state.lock();
        while !state.tails_stopped && state.wal.written() <= tail.last_lsn() {
            self.written_out.wait(&mut state);
        }
        if state.tails_stopped {
            return Err(Error::Closed("wal tail: stopped".into()));
        }
        let written = state.wal.written();
        drop(state);
        tail.read(written, max, out)
    }

    /// Wake every [`read_tail`](Self::read_tail) caller, now and later,
    /// with `Error::Closed` (the node shipping this log is stopping).
    pub fn stop_tails(&self) {
        self.state.lock().tails_stopped = true;
        self.written_out.notify_all();
    }

    /// Write the group-commit buffer out without an fsync the policy did
    /// not ask for, so that a tail sees every frame; returns the highest
    /// written-out LSN.
    pub fn write_out(&self) -> Result<u64> {
        self.with_wal(|state| state.wal.write_out())
    }

    /// Append a frame shipped from a replication primary, preserving its
    /// LSN (possible because [`Wal`] assigns LSNs sequentially: applying
    /// the primary's frames in order reproduces its numbering exactly).
    /// Returns `Ok(false)` for a duplicate (`lsn` ≤ the log's last LSN —
    /// reconnection re-sends are no-ops) and an error for a gap
    /// (`lsn > last + 1`): frames must arrive in order.
    pub fn append_replicated(&self, lsn: u64, record: &WalRecord) -> Result<bool> {
        self.with_wal(|state| {
            let last = state.wal.last_lsn();
            if lsn <= last {
                return Ok(false);
            }
            if lsn > last + 1 {
                return Err(Error::Io(format!(
                    "replication gap: got frame lsn {lsn}, log ends at {last}"
                )));
            }
            let assigned = state.wal.append(record)?;
            if assigned != lsn {
                return Err(Error::Io(format!(
                    "replication lsn mismatch: wal assigned {assigned}, frame says {lsn}"
                )));
            }
            state.frames_since_snapshot += 1;
            // Mirror the same bookkeeping the primary's sink methods keep, so
            // a promoted replica snapshots the full query/tombstone state.
            match record {
                WalRecord::Write {
                    table,
                    id,
                    kind: quaestor_store::WriteKind::Delete,
                    at,
                    ..
                } => {
                    state.tombstones.push((table.clone(), id.clone(), *at));
                }
                WalRecord::RegisterQuery { query } => {
                    state
                        .queries
                        .insert(QueryKey::of(query).as_str().to_owned(), query.clone());
                }
                WalRecord::DeregisterQuery { key } => {
                    state.queries.remove(key);
                }
                _ => {}
            }
            Ok(true)
        })
    }

    /// Currently registered (durable) queries, in no particular order.
    pub fn registered_queries(&self) -> Vec<Query> {
        self.state.lock().queries.values().cloned().collect()
    }

    fn append_record(&self, record: &WalRecord) -> Result<u64> {
        self.with_wal(|state| {
            let lsn = state.wal.append(record)?;
            state.frames_since_snapshot += 1;
            Ok(lsn)
        })
    }

    /// Log a query registration (mirrored into the live set so the next
    /// snapshot carries it). Idempotent: re-registering an
    /// already-durable query appends no frame — the origin re-registers
    /// on every cache-miss evaluation, and logging each would bloat the
    /// log with no information. `key` is the query's [`QueryKey::of`].
    pub fn log_register_query(&self, query: &Query, key: &QueryKey) -> Result<u64> {
        debug_assert_eq!(key, &QueryKey::of(query));
        self.with_wal(|state| {
            if state.queries.contains_key(key.as_str()) {
                return Ok(state.wal.last_lsn());
            }
            let lsn = state.wal.append(&WalRecord::RegisterQuery {
                query: query.clone(),
            })?;
            state.frames_since_snapshot += 1;
            state.queries.insert(key.as_str().to_owned(), query.clone());
            Ok(lsn)
        })
    }

    /// Log a query eviction. Idempotent like
    /// [`log_register_query`](Self::log_register_query).
    pub fn log_deregister_query(&self, key: &QueryKey) -> Result<u64> {
        self.with_wal(|state| {
            if state.queries.remove(key.as_str()).is_none() {
                return Ok(state.wal.last_lsn());
            }
            let lsn = state.wal.append(&WalRecord::DeregisterQuery {
                key: key.as_str().to_owned(),
            })?;
            state.frames_since_snapshot += 1;
            Ok(lsn)
        })
    }

    /// Force the group-commit buffer to disk; returns the durable LSN.
    pub fn flush(&self) -> Result<u64> {
        self.with_wal(|state| state.wal.flush())
    }

    /// Whether the auto-snapshot threshold has been crossed — false
    /// while another snapshot is already in flight (the counter only
    /// resets at the *end* of a snapshot, so without this probe every
    /// concurrent writer would launch its own full-state sweep).
    pub fn wants_snapshot(&self) -> bool {
        let every = self.config.snapshot_every_frames;
        every > 0
            && self.state.lock().frames_since_snapshot >= every
            && self.snapshot_gate.try_lock().is_some()
    }

    /// Write a full snapshot of `db` at the current LSN, then compact:
    /// drop log segments entirely below the snapshot and prune older
    /// snapshot files. Returns the snapshot LSN.
    ///
    /// Concurrent writes during the state capture simply land in frames
    /// above the snapshot LSN captured *before* the sweep, so they replay
    /// on recovery — the snapshot is conservative, never lossy.
    pub fn snapshot(&self, db: &Database) -> Result<u64> {
        // One snapshot at a time: concurrent callers queue here rather
        // than interleaving sweeps, compaction and pruning.
        let _gate = self.snapshot_gate.lock();
        // Capture the LSN floor first: every write acked before this
        // point is either in the tables we are about to sweep or in
        // frames ≤ lsn; writes racing the sweep have frames > lsn and
        // replay fine on top.
        let (lsn, queries, tombstones) = self.with_wal(|state| -> Result<_> {
            let lsn = state.wal.flush()?;
            // Prune the tombstone mirror to the retention window
            // (measured in database time against the newest tombstone).
            let newest = state.tombstones.iter().map(|(_, _, at)| *at).max();
            if let Some(newest) = newest {
                let cutoff = newest.saturating_sub(self.config.tombstone_retention_ms);
                state.tombstones.retain(|(_, _, at)| *at >= cutoff);
            }
            Ok((
                lsn,
                state.queries.values().cloned().collect::<Vec<_>>(),
                state.tombstones.clone(),
            ))
        })?;
        let mut tables = Vec::new();
        for name in db.table_names() {
            let t = db.table(&name)?;
            let records = t
                .snapshot()
                .into_iter()
                .map(|(id, rec)| SnapshotRecord {
                    id,
                    version: rec.version,
                    updated_at: rec.updated_at.as_millis(),
                    doc: (*rec.doc).clone(),
                })
                .collect();
            tables.push(SnapshotTable {
                name,
                seq: t.seq(),
                records,
            });
        }
        let data = SnapshotData {
            tables,
            queries,
            tombstones,
        };
        snapshot::write_snapshot(&self.dir.join("snap"), lsn, &data)?;
        {
            let mut state = self.state.lock();
            state.frames_since_snapshot = 0;
            state.wal.compact_below(lsn)?;
        }
        snapshot::prune_below(&self.dir.join("snap"), lsn)?;
        Ok(lsn)
    }
}

/// Truncate the durability directory `dir` so nothing above `lsn`
/// survives: WAL frames with higher LSNs are cut away and snapshots
/// taken above `lsn` are deleted. A fenced old primary runs this before
/// rejoining as a replica, dropping the unreplicated suffix that
/// diverges from the new primary's history. Must run while the
/// directory is closed (no live engine — the `LOCK` protocol is not
/// consulted here). Returns the number of WAL frames dropped.
pub fn truncate_above(dir: impl AsRef<Path>, lsn: u64) -> Result<u64> {
    let dir = dir.as_ref();
    let dropped = wal::truncate_above(&dir.join("wal"), lsn)?;
    let snap_dir = dir.join("snap");
    let mut snaps_removed = false;
    for (snap_lsn, path) in snapshot::list_snapshots(&snap_dir)? {
        if snap_lsn > lsn {
            std::fs::remove_file(&path)
                .map_err(|e| Error::Io(format!("remove truncated snapshot: {e}")))?;
            snaps_removed = true;
        }
    }
    if snaps_removed {
        wal::fsync_dir(&snap_dir)?;
    }
    Ok(dropped)
}

impl WriteSink for DurabilityEngine {
    /// Stage the event (called under the record's shard lock — cheap:
    /// encode + buffer) and mirror delete tombstones for snapshots.
    fn append(&self, event: &WriteEvent) -> Result<u64> {
        let _span = quaestor_obs::span("wal.append");
        let record = WalRecord::from_event(event);
        let lsn = {
            let mut state = self.state.lock();
            let lsn = state.wal.stage(&record)?;
            state.frames_since_snapshot += 1;
            if matches!(event.kind, quaestor_store::WriteKind::Delete) {
                state.tombstones.push((
                    event.table.to_string(),
                    event.id.to_string(),
                    event.at.as_millis(),
                ));
            }
            lsn
        };
        // Park the trace context keyed by LSN so the replication session
        // that later ships this frame can stitch into the same trace.
        quaestor_obs::note_handoff(lsn);
        Ok(lsn)
    }

    /// Durability phase, called after the shard lock is released: one
    /// committer's fsync covers every LSN staged before it.
    fn commit(&self, ticket: u64) -> Result<()> {
        self.with_wal(|state| state.wal.commit(ticket))
    }

    fn table_created(&self, name: &str) -> Result<()> {
        self.append_record(&WalRecord::CreateTable {
            table: name.to_owned(),
        })?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use quaestor_common::{scratch_dir, ManualClock};
    use quaestor_document::doc;
    use quaestor_query::Filter;
    use quaestor_store::WriteKind;

    fn temp_dir(tag: &str) -> PathBuf {
        scratch_dir(&format!("engine-{tag}"))
    }

    fn durable_db(dir: &Path, config: DurabilityConfig) -> (Arc<Database>, Arc<DurabilityEngine>) {
        let (engine, recovery) = DurabilityEngine::open(dir, config).unwrap();
        let db = Database::with_clock(ManualClock::new());
        recovery.restore(&db).unwrap();
        db.attach_sink(engine.clone());
        (db, engine)
    }

    type RecordState = (String, u64, String);

    fn table_state(db: &Database) -> Vec<(String, Vec<RecordState>)> {
        let mut names = db.table_names();
        names.sort();
        names
            .into_iter()
            .map(|n| {
                let t = db.table(&n).unwrap();
                let mut recs: Vec<RecordState> = t
                    .snapshot()
                    .into_iter()
                    .map(|(id, r)| {
                        (
                            id,
                            r.version,
                            quaestor_document::Value::Object((*r.doc).clone()).canonical(),
                        )
                    })
                    .collect();
                recs.sort();
                (n, recs)
            })
            .collect()
    }

    #[test]
    fn writes_survive_crash_and_reopen() {
        let dir = temp_dir("basic");
        {
            let (db, _engine) = durable_db(&dir, DurabilityConfig::default());
            let t = db.create_table("posts");
            t.insert("p1", doc! { "likes" => 1 }).unwrap();
            t.insert("p2", doc! { "likes" => 2 }).unwrap();
            t.update(
                "p1",
                &quaestor_document::Update::new().inc("likes", 10.0),
                None,
            )
            .unwrap();
            t.delete("p2", None).unwrap();
            // Drop without flush: the crash.
        }
        let (db, engine) = durable_db(&dir, DurabilityConfig::default());
        let t = db.table("posts").unwrap();
        assert_eq!(t.len(), 1);
        let rec = t.get("p1").unwrap();
        assert_eq!(rec.version, 2);
        assert_eq!(rec.doc["likes"], quaestor_document::Value::Int(11));
        assert!(t.get("p2").is_none());
        assert_eq!(t.seq(), 4, "seq counter continues the total order");
        assert_eq!(engine.last_lsn(), 5, "create-table frame + 4 writes");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn recovery_is_idempotent_across_reopens() {
        let dir = temp_dir("idem");
        {
            let (db, _e) = durable_db(&dir, DurabilityConfig::default());
            let t = db.create_table("a");
            for i in 0..20 {
                t.insert(&format!("r{i}"), doc! { "n" => i }).unwrap();
            }
            t.delete("r7", None).unwrap();
        }
        let (db1, e1) = durable_db(&dir, DurabilityConfig::default());
        let s1 = table_state(&db1);
        let seq1 = db1.table("a").unwrap().seq();
        drop((db1, e1));
        let (db2, _e2) = durable_db(&dir, DurabilityConfig::default());
        assert_eq!(s1, table_state(&db2));
        assert_eq!(seq1, db2.table("a").unwrap().seq());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn snapshot_compacts_and_recovery_uses_it() {
        let dir = temp_dir("snap");
        let cfg = DurabilityConfig {
            max_segment_bytes: 512,
            ..DurabilityConfig::default()
        };
        {
            let (db, engine) = durable_db(&dir, cfg);
            let t = db.create_table("posts");
            for i in 0..30 {
                t.insert(&format!("p{i}"), doc! { "n" => i }).unwrap();
            }
            let before = wal::list_segments(&dir.join("wal")).unwrap().len();
            assert!(before > 1, "small segments must have rotated");
            let lsn = engine.snapshot(&db).unwrap();
            assert_eq!(lsn, 31, "30 writes + 1 create-table frame");
            let after = wal::list_segments(&dir.join("wal")).unwrap().len();
            assert!(after < before, "compaction dropped covered segments");
            // Writes after the snapshot land in the surviving log.
            t.insert("extra", doc! { "n" => 99 }).unwrap();
        }
        let (db, engine) = durable_db(&dir, cfg);
        let t = db.table("posts").unwrap();
        assert_eq!(t.len(), 31);
        assert!(t.get("extra").is_some());
        assert_eq!(engine.last_lsn(), 32);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn empty_tables_survive_via_create_table_frames_and_snapshots() {
        let dir = temp_dir("empty");
        {
            let (db, engine) = durable_db(&dir, DurabilityConfig::default());
            db.create_table("nothing_here");
            engine.snapshot(&db).unwrap();
            db.create_table("post_snapshot_table");
        }
        let (db, _e) = durable_db(&dir, DurabilityConfig::default());
        let mut names = db.table_names();
        names.sort();
        assert_eq!(names, vec!["nothing_here", "post_snapshot_table"]);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn registered_queries_and_tombstones_recover() {
        let dir = temp_dir("queries");
        let q1 = Query::table("posts").filter(Filter::eq("topic", "db"));
        let q2 = Query::table("posts").filter(Filter::eq("topic", "ml"));
        {
            let (db, engine) = durable_db(&dir, DurabilityConfig::default());
            let t = db.create_table("posts");
            t.insert("p1", doc! { "topic" => "db" }).unwrap();
            engine.log_register_query(&q1, &QueryKey::of(&q1)).unwrap();
            engine.log_register_query(&q2, &QueryKey::of(&q2)).unwrap();
            engine.log_deregister_query(&QueryKey::of(&q2)).unwrap();
            t.delete("p1", None).unwrap();
        }
        let (engine, recovery) = DurabilityEngine::open(&dir, DurabilityConfig::default()).unwrap();
        let db = Database::with_clock(ManualClock::new());
        let meta = recovery.restore(&db).unwrap();
        assert_eq!(meta.queries, vec![q1.clone()]);
        assert_eq!(
            meta.tombstones,
            vec![("posts".to_string(), "p1".to_string())]
        );
        assert_eq!(engine.registered_queries(), vec![q1.clone()]);
        // Snapshot carries the query set (and the tombstone, whose
        // delete frame compaction just dropped) across restarts.
        db.attach_sink(engine.clone());
        engine.snapshot(&db).unwrap();
        drop((db, engine));
        let (_engine2, recovery2) =
            DurabilityEngine::open(&dir, DurabilityConfig::default()).unwrap();
        let db2 = Database::with_clock(ManualClock::new());
        let meta2 = recovery2.restore(&db2).unwrap();
        assert_eq!(meta2.queries, vec![q1]);
        assert_eq!(meta2.report.replayed_frames, 0, "snapshot covers the log");
        assert_eq!(
            meta2.tombstones,
            vec![("posts".to_string(), "p1".to_string())],
            "tombstone must survive compaction via the snapshot"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn torn_tail_recovers_to_last_valid_lsn() {
        let dir = temp_dir("torn");
        {
            let (db, _e) = durable_db(&dir, DurabilityConfig::default());
            let t = db.create_table("posts");
            for i in 0..5 {
                t.insert(&format!("p{i}"), doc! { "n" => i }).unwrap();
            }
        }
        // Tear the final frame.
        let (_, seg) = wal::list_segments(&dir.join("wal")).unwrap().pop().unwrap();
        let len = std::fs::metadata(&seg).unwrap().len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(&seg)
            .unwrap()
            .set_len(len - 2)
            .unwrap();
        let (engine, recovery) = DurabilityEngine::open(&dir, DurabilityConfig::default()).unwrap();
        let db = Database::with_clock(ManualClock::new());
        let meta = recovery.restore(&db).unwrap();
        assert!(meta.report.torn_tail_bytes > 0);
        let t = db.table("posts").unwrap();
        assert_eq!(t.len(), 4, "last insert torn away, rest intact");
        // New writes continue from the truncated LSN.
        db.attach_sink(engine.clone());
        let ev = t.insert("p4", doc! { "n" => 4 }).unwrap();
        assert_eq!(ev.seq, 5);
        assert_eq!(engine.last_lsn(), 6);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn double_open_is_refused_while_locked_and_stale_locks_break() {
        let dir = temp_dir("lock");
        let (engine, _recovery) =
            DurabilityEngine::open(&dir, DurabilityConfig::default()).unwrap();
        // A second engine on the same directory would interleave
        // duplicate LSNs into the segment files: refused.
        let err = DurabilityEngine::open(&dir, DurabilityConfig::default()).unwrap_err();
        assert!(err.to_string().contains("already open"), "got: {err}");
        drop(engine); // releases the lock
        drop(_recovery);
        // A lock left by a dead process is broken, not fatal.
        std::fs::write(dir.join("LOCK"), "999999999\n").unwrap();
        let (engine, _recovery) = DurabilityEngine::open(&dir, DurabilityConfig::default())
            .expect("stale lock from a dead pid must be broken");
        drop(engine);
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn concurrent_delete_reinsert_recovers_exact_final_state() {
        // Delete + re-insert resets the record version to 1, so replay
        // cannot rely on versions alone across that boundary: the log
        // must carry same-record events in apply order (the sink is
        // invoked under the record's shard lock). Hammer one key from
        // two threads, crash, and require recovery to land on exactly
        // the final in-memory state.
        let dir = temp_dir("reinsert");
        let final_state = {
            let (db, _engine) = durable_db(&dir, DurabilityConfig::default());
            let t = db.create_table("hot");
            std::thread::scope(|s| {
                for _ in 0..2 {
                    let t = &t;
                    s.spawn(move || {
                        for i in 0..200i64 {
                            let _ = t.insert("x", doc! { "i" => i });
                            let _ = t.update(
                                "x",
                                &quaestor_document::Update::new().inc("i", 1.0),
                                None,
                            );
                            let _ = t.delete("x", None);
                        }
                    });
                }
            });
            let _ = t.insert("x", doc! { "i" => -1 });
            t.get("x").map(|r| (r.version, (*r.doc).clone()))
        };
        let (db, _engine) = durable_db(&dir, DurabilityConfig::default());
        let recovered = db
            .table("hot")
            .unwrap()
            .get("x")
            .map(|r| (r.version, (*r.doc).clone()));
        assert_eq!(
            recovered, final_state,
            "replayed state must equal the pre-crash in-memory state"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn append_replicated_preserves_lsns_and_rejects_gaps() {
        let src = temp_dir("repl-src");
        let dst = temp_dir("repl-dst");
        // A primary produces frames...
        {
            let (db, _e) = durable_db(&src, DurabilityConfig::default());
            let t = db.create_table("posts");
            for i in 0..6 {
                t.insert(&format!("p{i}"), doc! { "n" => i }).unwrap();
            }
            t.delete("p0", None).unwrap();
        }
        let (src_engine, src_rec) =
            DurabilityEngine::open(&src, DurabilityConfig::default()).unwrap();
        drop(src_rec);
        let frames = wal::scan(&src.join("wal"), 1).unwrap().frames;
        assert_eq!(frames.len(), 8, "create-table + 6 inserts + 1 delete");

        // ...a replica appends them with LSNs preserved.
        let (dst_engine, dst_rec) =
            DurabilityEngine::open(&dst, DurabilityConfig::default()).unwrap();
        drop(dst_rec);
        // Out-of-order first frame is a gap.
        let (lsn3, rec3) = &frames[2];
        let err = dst_engine.append_replicated(*lsn3, rec3).unwrap_err();
        assert!(err.to_string().contains("replication gap"), "got: {err}");
        for (lsn, record) in &frames {
            assert!(dst_engine.append_replicated(*lsn, record).unwrap());
        }
        // Duplicate delivery is a no-op, not an error.
        for (lsn, record) in frames.iter().take(3) {
            assert!(!dst_engine.append_replicated(*lsn, record).unwrap());
        }
        assert_eq!(dst_engine.last_lsn(), src_engine.last_lsn());
        assert_eq!(dst_engine.durable_lsn(), src_engine.last_lsn());
        drop(dst_engine);
        // The replica's own recovery reproduces the primary's state.
        let (_, recovery) = DurabilityEngine::open(&dst, DurabilityConfig::default()).unwrap();
        let db = Database::with_clock(ManualClock::new());
        let meta = recovery.restore(&db).unwrap();
        assert_eq!(db.table("posts").unwrap().len(), 5);
        assert_eq!(meta.tombstones, vec![("posts".into(), "p0".into())]);
        std::fs::remove_dir_all(&src).unwrap();
        std::fs::remove_dir_all(&dst).unwrap();
    }

    #[test]
    fn truncate_above_drops_wal_suffix_and_newer_snapshots() {
        let dir = temp_dir("trunc");
        {
            let (db, engine) = durable_db(&dir, DurabilityConfig::default());
            let t = db.create_table("posts");
            for i in 0..5 {
                t.insert(&format!("p{i}"), doc! { "n" => i }).unwrap();
            }
            // Snapshot at lsn 6, then two more (unreplicated) writes.
            assert_eq!(engine.snapshot(&db).unwrap(), 6);
            t.insert("late1", doc! { "n" => 98 }).unwrap();
            t.insert("late2", doc! { "n" => 99 }).unwrap();
        }
        // Fence at lsn 7: the snapshot (lsn 6) survives, frame 8 goes.
        assert_eq!(truncate_above(&dir, 7).unwrap(), 1);
        {
            let (engine, recovery) =
                DurabilityEngine::open(&dir, DurabilityConfig::default()).unwrap();
            let db = Database::with_clock(ManualClock::new());
            recovery.restore(&db).unwrap();
            let t = db.table("posts").unwrap();
            assert!(t.get("late1").is_some());
            assert!(t.get("late2").is_none(), "frame above the fence dropped");
            assert_eq!(engine.last_lsn(), 7);
        }
        // Fence below the snapshot: the snapshot itself must go too.
        assert_eq!(truncate_above(&dir, 4).unwrap(), 3);
        let (engine, recovery) = DurabilityEngine::open(&dir, DurabilityConfig::default()).unwrap();
        let db = Database::with_clock(ManualClock::new());
        let meta = recovery.restore(&db).unwrap();
        assert_eq!(meta.report.snapshot_lsn, 0, "newer snapshot deleted");
        assert_eq!(engine.last_lsn(), 4);
        assert_eq!(
            db.table("posts").unwrap().len(),
            3,
            "create-table + 3 inserts"
        );
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn replay_write_events_reconstruct() {
        // WalRecord::from_event/to_event round trip.
        let ev = WriteEvent {
            table: "t".into(),
            id: "x".into(),
            kind: WriteKind::Update,
            image: Arc::new(doc! { "a" => 1 }),
            version: 4,
            seq: 9,
            at: Timestamp::from_millis(77),
        };
        let rec = WalRecord::from_event(&ev);
        let back = rec.to_event().unwrap();
        assert_eq!(back.table, ev.table);
        assert_eq!(back.id, ev.id);
        assert_eq!(back.kind, ev.kind);
        assert_eq!(back.image, ev.image);
        assert_eq!(
            (back.version, back.seq, back.at),
            (ev.version, ev.seq, ev.at)
        );
    }
}
