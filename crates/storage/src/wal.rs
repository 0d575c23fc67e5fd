//! Write-ahead log for record-level transactions (paper Section III item 9:
//! "basic NoSQL-like transactional capabilities").
//!
//! The log is an append-only file of checksummed records. Each data
//! operation (put/delete of one record in one dataset partition) is logged
//! before being applied to the LSM memory component; `Commit` records make a
//! transaction durable. Recovery replays the log, re-applying operations of
//! committed transactions only — uncommitted tails and torn writes are
//! discarded at the first checksum mismatch.

use crate::error::{Result, StorageError};
use crate::faults::{FaultInjector, WritePlan};
use crate::le;
use crate::lock_order::OrderedMutex;
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// Log sequence number: byte offset of the record in the log file.
pub type Lsn = u64;

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A data operation by a transaction.
    Update {
        txn_id: u64,
        dataset: String,
        partition: u32,
        /// `true` = delete (value empty), `false` = put.
        is_delete: bool,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    /// Transaction commit — everything it logged is durable.
    Commit { txn_id: u64 },
    /// Transaction abort — its updates must be ignored at recovery.
    Abort { txn_id: u64 },
    /// All operations before this point are flushed into components; replay
    /// can start here.
    Checkpoint,
    /// Durable ingestion frontier of a feed: committing the surrounding
    /// transaction makes `seq` the feed's last durable sequence number.
    /// Logged immediately before the `Commit` of the batch that carried it,
    /// so recovery can hand a resumed feed the exact restart point.
    FeedCursor { txn_id: u64, feed: String, seq: u64 },
}

impl WalRecord {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(32);
        match self {
            WalRecord::Update { txn_id, dataset, partition, is_delete, key, value } => {
                out.push(1);
                out.extend_from_slice(&txn_id.to_le_bytes());
                out.extend_from_slice(&(dataset.len() as u32).to_le_bytes());
                out.extend_from_slice(dataset.as_bytes());
                out.extend_from_slice(&partition.to_le_bytes());
                out.push(*is_delete as u8);
                out.extend_from_slice(&(key.len() as u32).to_le_bytes());
                out.extend_from_slice(key);
                out.extend_from_slice(&(value.len() as u32).to_le_bytes());
                out.extend_from_slice(value);
            }
            WalRecord::Commit { txn_id } => {
                out.push(2);
                out.extend_from_slice(&txn_id.to_le_bytes());
            }
            WalRecord::Abort { txn_id } => {
                out.push(3);
                out.extend_from_slice(&txn_id.to_le_bytes());
            }
            WalRecord::Checkpoint => out.push(4),
            WalRecord::FeedCursor { txn_id, feed, seq } => {
                out.push(5);
                out.extend_from_slice(&txn_id.to_le_bytes());
                out.extend_from_slice(&(feed.len() as u32).to_le_bytes());
                out.extend_from_slice(feed.as_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
        }
        out
    }

    fn decode(buf: &[u8]) -> Result<WalRecord> {
        let corrupt = || StorageError::Corrupt("bad WAL record".into());
        let mut r = 0usize;
        let take = |n: usize, r: &mut usize| -> Result<&[u8]> {
            if *r + n > buf.len() {
                return Err(corrupt());
            }
            let s = &buf[*r..*r + n];
            *r += n;
            Ok(s)
        };
        let take_u32 = |r: &mut usize| -> Result<u32> {
            let v = le::try_u32_at(buf, *r)?;
            *r += 4;
            Ok(v)
        };
        let take_u64 = |r: &mut usize| -> Result<u64> {
            let v = le::try_u64_at(buf, *r)?;
            *r += 8;
            Ok(v)
        };
        let tag = take(1, &mut r)?[0];
        match tag {
            1 => {
                let txn_id = take_u64(&mut r)?;
                let dlen = take_u32(&mut r)? as usize;
                let dataset = std::str::from_utf8(take(dlen, &mut r)?)
                    .map_err(|_| corrupt())?
                    .to_owned();
                let partition = take_u32(&mut r)?;
                let is_delete = take(1, &mut r)?[0] != 0;
                let klen = take_u32(&mut r)? as usize;
                let key = take(klen, &mut r)?.to_vec();
                let vlen = take_u32(&mut r)? as usize;
                let value = take(vlen, &mut r)?.to_vec();
                Ok(WalRecord::Update { txn_id, dataset, partition, is_delete, key, value })
            }
            2 => Ok(WalRecord::Commit { txn_id: take_u64(&mut r)? }),
            3 => Ok(WalRecord::Abort { txn_id: take_u64(&mut r)? }),
            4 => Ok(WalRecord::Checkpoint),
            5 => {
                let txn_id = take_u64(&mut r)?;
                let flen = take_u32(&mut r)? as usize;
                let feed = std::str::from_utf8(take(flen, &mut r)?)
                    .map_err(|_| corrupt())?
                    .to_owned();
                let seq = take_u64(&mut r)?;
                Ok(WalRecord::FeedCursor { txn_id, feed, seq })
            }
            _ => Err(corrupt()),
        }
    }
}

fn fnv1a(data: &[u8]) -> u32 {
    let mut h: u32 = 0x811c_9dc5;
    for b in data {
        h ^= *b as u32;
        h = h.wrapping_mul(0x0100_0193);
    }
    h
}

/// Appender over a log file.
///
/// Records are staged in an internal buffer and persisted by [`WalWriter::sync`]
/// with one positioned write followed by an fsync — both of which are
/// failpoints when a [`FaultInjector`] is wired in, so crashes can land
/// between, or in the middle of, either step.
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// Records appended but not yet flushed.
    buf: Vec<u8>,
    /// Bytes of valid log on disk; the flush offset.
    persisted: u64,
    faults: Option<Arc<FaultInjector>>,
}

impl WalWriter {
    /// Opens (creating or appending to) the log at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        WalWriter::open_with_faults(path, None)
    }

    /// Opens the log with an optional fault injector on its write paths.
    ///
    /// A torn or corrupt tail left by a crash is truncated here: appending
    /// after garbage would strand every later record behind the scan stop,
    /// silently losing committed transactions on the *next* recovery.
    pub fn open_with_faults( // xlint: allow(blocking, "WAL open/replay happens at storage-env open, before jobs are served")
        path: impl AsRef<Path>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Self> {
        let path = path.as_ref().to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // truncate(false): an existing log must survive reopen — recovery
        // truncates only the invalid tail below, via set_len
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let file_len = file.metadata()?.len();
        let persisted = valid_prefix_len(&path)?;
        if persisted < file_len {
            if let Some(f) = &faults {
                f.on_truncate(&format!(
                    "{}:truncate",
                    crate::faults::target_name(&path)
                ))?;
            }
            let wrap = |source: std::io::Error| StorageError::WalTruncate {
                path: path.clone(),
                valid_len: persisted,
                file_len,
                source,
            };
            file.set_len(persisted).map_err(wrap)?;
            file.sync_data().map_err(wrap)?;
        }
        Ok(WalWriter { file, path, buf: Vec::new(), persisted, faults })
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Appends a record (buffered); returns its LSN.
    pub fn append(&mut self, record: &WalRecord) -> Result<Lsn> {
        if let Some(f) = &self.faults {
            f.check_alive("wal append")?;
        }
        let lsn = self.next_lsn();
        let payload = record.encode();
        let crc = fnv1a(&payload);
        self.buf.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        self.buf.extend_from_slice(&crc.to_le_bytes());
        self.buf.extend_from_slice(&payload);
        Ok(lsn)
    }

    /// Flushes buffered records and forces them to stable storage — the
    /// commit-time durability point.
    ///
    /// On an injected short write the buffer is kept and `sync` may be
    /// retried: the flush rewrites the same byte range at the same offset,
    /// so a partial prefix on disk is simply overwritten.
    pub fn sync(&mut self) -> Result<()> { // xlint: allow(blocking, "WAL sync is the durability contract; group commit amortizes the fdatasync")
        if !self.buf.is_empty() {
            if let Some(f) = self.faults.clone() {
                let target = format!("{}:flush", crate::faults::target_name(&self.path));
                match f.on_write(&target, self.buf.len())? {
                    WritePlan::Full => {}
                    WritePlan::Torn { kept } | WritePlan::Short { kept } => {
                        // a torn flush: only a prefix of the buffered bytes
                        // reaches the file, possibly cutting mid-record
                        if kept > 0 {
                            self.file.write_all_at(&self.buf[..kept], self.persisted)?;
                        }
                        return Err(f.write_failed(&target));
                    }
                }
            }
            self.file.write_all_at(&self.buf, self.persisted)?;
            self.persisted += self.buf.len() as u64;
            self.buf.clear();
        }
        if let Some(f) = self.faults.clone() {
            f.on_sync(&format!("{}:fsync", crate::faults::target_name(&self.path)))?;
        }
        self.file.sync_data()?;
        Ok(())
    }

    /// LSN the next record will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.persisted + self.buf.len() as u64
    }
}

/// Scans a log image, returning intact records and the byte length of the
/// valid prefix (everything after it is a torn/corrupt crash tail).
fn scan_log(buf: &[u8]) -> (Vec<(Lsn, WalRecord)>, u64) {
    let mut out = Vec::new();
    let mut pos = 0usize;
    while pos + 8 <= buf.len() {
        let len = le::u32_at(buf, pos) as usize;
        let crc = le::u32_at(buf, pos + 4);
        if pos + 8 + len > buf.len() {
            break; // torn tail
        }
        let payload = &buf[pos + 8..pos + 8 + len];
        if fnv1a(payload) != crc {
            break; // corrupt tail
        }
        match WalRecord::decode(payload) {
            Ok(rec) => out.push((pos as Lsn, rec)),
            Err(_) => break,
        }
        pos += 8 + len;
    }
    (out, pos as u64)
}

fn read_file_or_empty(path: &Path) -> Result<Vec<u8>> { // xlint: allow(blocking, "WAL replay read at recovery time; single-threaded startup")
    let mut file = match File::open(path) {
        Ok(f) => f,
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(Vec::new()),
        Err(e) => return Err(e.into()),
    };
    let mut buf = Vec::new();
    file.read_to_end(&mut buf)?;
    Ok(buf)
}

/// Reads all intact records from a log file; stops silently at the first
/// torn/corrupt record (the crash tail).
pub fn read_log(path: impl AsRef<Path>) -> Result<Vec<(Lsn, WalRecord)>> {
    Ok(scan_log(&read_file_or_empty(path.as_ref())?).0)
}

/// Byte length of the valid record prefix of a log file (0 if missing).
pub fn valid_prefix_len(path: impl AsRef<Path>) -> Result<u64> {
    Ok(scan_log(&read_file_or_empty(path.as_ref())?).1)
}

/// Truncates the log (after a checkpoint has made all components durable).
pub fn truncate_log(path: impl AsRef<Path>) -> Result<()> {
    match OpenOptions::new().write(true).truncate(true).open(path.as_ref()) {
        Ok(_) => Ok(()),
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
        Err(e) => Err(e.into()),
    }
}

/// One replayable operation: `(txn_id, dataset, partition, is_delete, key, value)`.
pub type ReplayOp = (u64, String, u32, bool, Vec<u8>, Vec<u8>);

/// Replays a log: returns the operations of *committed* transactions, in log
/// order, starting after the last checkpoint.
pub fn committed_operations(
    records: &[(Lsn, WalRecord)],
) -> Vec<ReplayOp> {
    // find last checkpoint
    let start = records
        .iter()
        .rposition(|(_, r)| matches!(r, WalRecord::Checkpoint))
        .map(|i| i + 1)
        .unwrap_or(0);
    let tail = &records[start..];
    let committed: std::collections::HashSet<u64> = tail
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Commit { txn_id } => Some(*txn_id),
            _ => None,
        })
        .collect();
    let aborted: std::collections::HashSet<u64> = tail
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Abort { txn_id } => Some(*txn_id),
            _ => None,
        })
        .collect();
    tail.iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Update { txn_id, dataset, partition, is_delete, key, value }
                if committed.contains(txn_id) && !aborted.contains(txn_id) =>
            {
                Some((
                    *txn_id,
                    dataset.clone(),
                    *partition,
                    *is_delete,
                    key.clone(),
                    value.clone(),
                ))
            }
            _ => None,
        })
        .collect()
}

/// Highest *committed* feed cursor per feed name, over the whole log.
///
/// Unlike data replay this deliberately ignores checkpoints: a cursor is
/// restart metadata, not a re-appliable operation, and a feed resumed long
/// after a checkpoint still needs its frontier.
pub fn committed_feed_cursors(records: &[(Lsn, WalRecord)]) -> HashMap<String, u64> {
    let committed: std::collections::HashSet<u64> = records
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Commit { txn_id } => Some(*txn_id),
            _ => None,
        })
        .collect();
    let aborted: std::collections::HashSet<u64> = records
        .iter()
        .filter_map(|(_, r)| match r {
            WalRecord::Abort { txn_id } => Some(*txn_id),
            _ => None,
        })
        .collect();
    let mut out: HashMap<String, u64> = HashMap::new();
    for (_, r) in records {
        if let WalRecord::FeedCursor { txn_id, feed, seq } = r {
            if committed.contains(txn_id) && !aborted.contains(txn_id) {
                let slot = out.entry(feed.clone()).or_insert(0);
                *slot = (*slot).max(*seq);
            }
        }
    }
    out
}

/// Group commit: concurrent committers of one node's WAL share fsyncs.
///
/// Every committer appends its records under the WAL lock, notes the log's
/// end LSN, releases the lock, and calls [`GroupCommit::sync_through`]. The
/// first committer to reach the sync becomes the *leader*: its `sync()`
/// flushes the whole buffer — including records appended by committers that
/// arrived after it took the lock — and advances the durable high-water
/// mark past all of them. A committer that finds the mark already at or
/// beyond its end LSN piggybacks on that earlier fsync and returns without
/// touching the file, which is what turns N concurrent commits into one
/// fdatasync. A lone committer never finds the mark ahead of itself, so it
/// performs exactly append → write → fsync — the sequence seeded
/// fault-injection schedules count on.
///
/// The durability guarantee: `sync_through(end)` returning `Ok` means every
/// log byte below `end` is on stable storage. `default()` is a fresh
/// protocol instance for one WAL (durable mark at 0).
#[derive(Default)]
pub struct GroupCommit {
    /// Log bytes durably synced (an LSN high-water mark).
    durable: AtomicU64,
    /// Leader fsync rounds (the `storage.wal.group_commits` counter).
    rounds: AtomicU64,
    /// Committers that piggybacked on another committer's fsync (the
    /// `storage.wal.group_commit_waiters` counter).
    waiters: AtomicU64,
}

impl GroupCommit {
    /// Durable high-water mark (bytes of log known synced).
    pub fn durable(&self) -> Lsn {
        self.durable.load(Ordering::Acquire)
    }

    /// Leader fsync rounds performed so far.
    pub fn rounds(&self) -> u64 {
        self.rounds.load(Ordering::Relaxed)
    }

    /// Commits made durable by another committer's fsync.
    pub fn waiters(&self) -> u64 {
        self.waiters.load(Ordering::Relaxed)
    }

    /// Makes every log byte below `end` durable, sharing the fsync with
    /// concurrent committers (see the type docs). `end` must
    /// come from `wal.next_lsn()` observed while holding the WAL lock after
    /// appending; `wal` must be the lock this protocol instance guards.
    pub fn sync_through(&self, wal: &OrderedMutex<WalWriter>, end: Lsn) -> Result<()> { // xlint: allow(blocking, "commit durability point; the group protocol amortizes the fdatasync across committers")
        if self.durable.load(Ordering::Acquire) >= end {
            // an earlier leader's fsync already covered our bytes
            self.waiters.fetch_add(1, Ordering::Relaxed); // xlint: ordering(metric increment; no synchronization carried)
            return Ok(());
        }
        let mut w = wal.lock(); // xlint: lock(wal)
        if self.durable.load(Ordering::Acquire) >= end {
            // a leader finished while we waited for the lock
            self.waiters.fetch_add(1, Ordering::Relaxed); // xlint: ordering(metric increment; no synchronization carried)
            return Ok(());
        }
        // leader: one write + fdatasync covers everything buffered so far,
        // ours and any committer's that appended after our `end`
        w.sync()?;
        let synced = w.next_lsn(); // == persisted: the buffer is empty
        self.durable.fetch_max(synced, Ordering::AcqRel); // xlint: ordering(AcqRel max publishes the durable mark to piggybacking committers)
        self.rounds.fetch_add(1, Ordering::Relaxed); // xlint: ordering(metric increment; no synchronization carried)
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn upd(txn: u64, key: &[u8], val: &[u8]) -> WalRecord {
        WalRecord::Update {
            txn_id: txn,
            dataset: "ds".into(),
            partition: 0,
            is_delete: false,
            key: key.to_vec(),
            value: val.to_vec(),
        }
    }

    #[test]
    fn append_and_read_back() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        let l0 = w.append(&upd(1, b"k1", b"v1")).unwrap();
        let l1 = w.append(&WalRecord::Commit { txn_id: 1 }).unwrap();
        assert!(l1 > l0);
        w.sync().unwrap();
        let recs = read_log(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(recs[0].0, l0);
        assert!(matches!(recs[1].1, WalRecord::Commit { txn_id: 1 }));
    }

    #[test]
    fn reopen_appends_after_existing_records() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&upd(1, b"a", b"1")).unwrap();
            w.sync().unwrap();
        }
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&upd(2, b"b", b"2")).unwrap();
            w.sync().unwrap();
        }
        assert_eq!(read_log(&path).unwrap().len(), 2);
    }

    #[test]
    fn torn_tail_is_dropped() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&upd(1, b"a", b"1")).unwrap();
        w.append(&WalRecord::Commit { txn_id: 1 }).unwrap();
        w.sync().unwrap();
        // simulate a torn write: append garbage length header + partial bytes
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&100u32.to_le_bytes()).unwrap();
            f.write_all(&0u32.to_le_bytes()).unwrap();
            f.write_all(b"short").unwrap();
        }
        let recs = read_log(&path).unwrap();
        assert_eq!(recs.len(), 2, "torn tail ignored");
    }

    #[test]
    fn reopen_truncates_torn_tail_so_new_appends_stay_readable() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&upd(1, b"a", b"1")).unwrap();
            w.append(&WalRecord::Commit { txn_id: 1 }).unwrap();
            w.sync().unwrap();
        }
        // crash tail: a record header promising more bytes than exist
        {
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            use std::io::Write;
            f.write_all(&64u32.to_le_bytes()).unwrap();
            f.write_all(&0u32.to_le_bytes()).unwrap();
            f.write_all(b"partial").unwrap();
        }
        let valid = valid_prefix_len(&path).unwrap();
        assert!(valid < std::fs::metadata(&path).unwrap().len());
        // reopening must truncate the tail, so post-crash appends land
        // directly after the valid prefix and stay replayable
        {
            let mut w = WalWriter::open(&path).unwrap();
            assert_eq!(w.next_lsn(), valid);
            w.append(&upd(2, b"b", b"2")).unwrap();
            w.append(&WalRecord::Commit { txn_id: 2 }).unwrap();
            w.sync().unwrap();
        }
        let recs = read_log(&path).unwrap();
        assert_eq!(recs.len(), 4, "records after the crash point must be readable");
        let ops = committed_operations(&recs);
        assert_eq!(ops.len(), 2);
    }

    #[test]
    fn truncate_failpoint_fires_before_tail_removal() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&upd(1, b"a", b"1")).unwrap();
            w.append(&WalRecord::Commit { txn_id: 1 }).unwrap();
            w.sync().unwrap();
        }
        // crash tail
        {
            use std::io::Write;
            let mut f = OpenOptions::new().append(true).open(&path).unwrap();
            f.write_all(&64u32.to_le_bytes()).unwrap();
            f.write_all(b"partial").unwrap();
        }
        let tail_len = std::fs::metadata(&path).unwrap().len();
        // a crash scheduled on the very first I/O op lands on the truncate
        // failpoint: reopen fails and the torn tail must still be on disk
        let inj = crate::faults::FaultInjector::crash_after(1, 0);
        let err = match WalWriter::open_with_faults(&path, Some(inj.clone())) {
            Err(e) => e,
            Ok(_) => panic!("expected injected crash on truncate"),
        };
        assert!(matches!(err, StorageError::Injected(_)), "{err}");
        assert!(inj.crashed());
        assert_eq!(
            std::fs::metadata(&path).unwrap().len(),
            tail_len,
            "crash before truncate leaves the tail for the next recovery"
        );
        // the next recovery (no faults) then truncates and reopens cleanly
        let w = WalWriter::open(&path).unwrap();
        assert_eq!(w.next_lsn(), std::fs::metadata(&path).unwrap().len());
        assert_eq!(read_log(&path).unwrap().len(), 2);
    }

    #[test]
    fn truncate_error_carries_path_and_offsets() {
        let err = StorageError::WalTruncate {
            path: PathBuf::from("/data/node0/txn.wal"),
            valid_len: 4096,
            file_len: 4103,
            source: std::io::Error::other("disk says no"),
        };
        let msg = err.to_string();
        assert!(msg.contains("/data/node0/txn.wal"), "{msg}");
        assert!(msg.contains("offset 4096"), "{msg}");
        assert!(msg.contains("file length 4103"), "{msg}");
        assert!(msg.contains("disk says no"), "{msg}");
        assert!(std::error::Error::source(&err).is_some(), "source preserved");
    }

    #[test]
    fn sync_is_idempotent_and_incremental() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&upd(1, b"a", b"1")).unwrap();
        w.sync().unwrap();
        let len1 = std::fs::metadata(&path).unwrap().len();
        w.sync().unwrap(); // no new records: no growth
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len1);
        w.append(&WalRecord::Commit { txn_id: 1 }).unwrap();
        w.sync().unwrap();
        assert!(std::fs::metadata(&path).unwrap().len() > len1);
        assert_eq!(read_log(&path).unwrap().len(), 2);
    }

    #[test]
    fn corrupt_crc_stops_replay() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&upd(1, b"a", b"1")).unwrap();
        w.append(&upd(1, b"b", b"2")).unwrap();
        w.sync().unwrap();
        // flip a byte in the second record's payload
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_log(&path).unwrap().len(), 1);
    }

    #[test]
    fn committed_only_replay() {
        let recs = vec![
            (0u64, upd(1, b"a", b"1")),
            (1, upd(2, b"b", b"2")),
            (2, WalRecord::Commit { txn_id: 1 }),
            (3, upd(3, b"c", b"3")),
            (4, WalRecord::Abort { txn_id: 3 }),
            // txn 2 never commits
        ];
        let ops = committed_operations(&recs);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].4, b"a");
    }

    #[test]
    fn checkpoint_bounds_replay() {
        let recs = vec![
            (0u64, upd(1, b"old", b"x")),
            (1, WalRecord::Commit { txn_id: 1 }),
            (2, WalRecord::Checkpoint),
            (3, upd(2, b"new", b"y")),
            (4, WalRecord::Commit { txn_id: 2 }),
        ];
        let ops = committed_operations(&recs);
        assert_eq!(ops.len(), 1);
        assert_eq!(ops[0].4, b"new");
    }

    #[test]
    fn missing_log_reads_empty() {
        let dir = TempDir::new();
        assert!(read_log(dir.path().join("nope.log")).unwrap().is_empty());
        truncate_log(dir.path().join("nope.log")).unwrap();
    }

    #[test]
    fn feed_cursor_roundtrip() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&WalRecord::FeedCursor { txn_id: 7, feed: "feed.Stream".into(), seq: 4242 })
            .unwrap();
        w.append(&WalRecord::Commit { txn_id: 7 }).unwrap();
        w.sync().unwrap();
        let recs = read_log(&path).unwrap();
        assert_eq!(recs.len(), 2);
        assert_eq!(
            recs[0].1,
            WalRecord::FeedCursor { txn_id: 7, feed: "feed.Stream".into(), seq: 4242 }
        );
    }

    #[test]
    fn committed_feed_cursors_takes_max_of_committed_only() {
        let cur = |txn: u64, feed: &str, seq: u64| WalRecord::FeedCursor {
            txn_id: txn,
            feed: feed.into(),
            seq,
        };
        let recs = vec![
            (0u64, cur(1, "a", 10)),
            (1, WalRecord::Commit { txn_id: 1 }),
            (2, cur(2, "a", 20)),
            (3, WalRecord::Commit { txn_id: 2 }),
            (4, cur(3, "a", 30)), // never commits
            (5, cur(4, "b", 5)),
            (6, WalRecord::Abort { txn_id: 4 }),
            // a checkpoint must NOT hide earlier cursors
            (7, WalRecord::Checkpoint),
        ];
        let m = committed_feed_cursors(&recs);
        assert_eq!(m.get("a"), Some(&20));
        assert_eq!(m.get("b"), None);
    }

    #[test]
    fn group_commit_leader_fsync_covers_later_appends() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        let wal = OrderedMutex::new("wal", WalWriter::open(&path).unwrap());
        let gc = GroupCommit::default();
        // two committers append before either syncs
        let (end1, end2) = {
            let mut w = wal.lock(); // xlint: lock(wal)
            w.append(&WalRecord::Commit { txn_id: 1 }).unwrap();
            let e1 = w.next_lsn();
            w.append(&WalRecord::Commit { txn_id: 2 }).unwrap();
            (e1, w.next_lsn())
        };
        // first sync is the leader: its one fsync makes both commits durable
        gc.sync_through(&wal, end1).unwrap();
        assert_eq!(gc.durable(), end2);
        assert_eq!(gc.rounds(), 1);
        assert_eq!(gc.waiters(), 0);
        // second committer piggybacks without touching the file
        gc.sync_through(&wal, end2).unwrap();
        assert_eq!(gc.rounds(), 1, "no second fsync round");
        assert_eq!(gc.waiters(), 1);
        assert_eq!(read_log(&path).unwrap().len(), 2);
    }

    #[test]
    fn delete_operations_roundtrip() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&WalRecord::Update {
            txn_id: 9,
            dataset: "users".into(),
            partition: 3,
            is_delete: true,
            key: b"pk".to_vec(),
            value: vec![],
        })
        .unwrap();
        w.append(&WalRecord::Commit { txn_id: 9 }).unwrap();
        w.sync().unwrap();
        let ops = committed_operations(&read_log(&path).unwrap());
        assert_eq!(ops.len(), 1);
        let (txn, ds, part, is_del, key, _) = &ops[0];
        assert_eq!((*txn, ds.as_str(), *part, *is_del, key.as_slice()),
                   (9u64, "users", 3u32, true, b"pk".as_slice()));
    }
}
