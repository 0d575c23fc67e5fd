//! Write-ahead log for record-level transactions (paper Section III item 9:
//! "basic NoSQL-like transactional capabilities").
//!
//! Each data operation (put/delete of one record in one dataset partition)
//! is logged before being applied to the LSM memory component; `Commit`
//! records make a transaction durable. A writer buffers what is appended as
//! a *record stream* — each record after its LEB128 length
//! ([`asterix_adm::binary::put_len_prefixed`]) — and each
//! [`WalWriter::sync`] writes the stream it buffered as one block,
//! `[len u32][crc u32][body]`: `len` counts the body's bytes, `crc` is their
//! FNV-1a (no record carries a checksum of its own), and the body is the
//! stream coded by `crate::log_block`, which holds every block shape. This
//! module holds the records, the framing, the files, the syncs and what
//! they count, and the segments.
//!
//! A node's log is one type, [`NodeLog`], its one owner: behind one lock it
//! keeps the segments — files named `<prefix>-<base-lsn>.wal`, rotated when
//! a primary index seals a memory component and unlinked, whole segments at
//! a time, once every primary has flushed past them — with each primary's
//! [`LogPin`] and the pause while recovery replays; it alone appends the
//! records that end a transaction and syncs, in group commits. An owner of
//! indexes makes one call after each operation, [`NodeLog::settle`]: its
//! indexes settled, its primary's pin republished and the log rotated and
//! truncated as that settle asks. Recovery reads the retained segments and
//! re-applies the operations of committed transactions that no disk
//! component covers. A block cut short or failing its checksum is a crash
//! tail and is dropped whole with everything after it: one group commit,
//! whose sync returned to nobody. A failed fsync fails the log until it is
//! opened again.

use crate::error::{Result, StorageError};
use crate::faults::{FaultInjector, WritePlan};
use crate::harness::{settle, LsmTree, Settled};
use crate::le::{fnv1a, Cursor};
use crate::lock_order::{self, Level, Mutex};
use crate::log_block::{self, Coder, StreamBytes};
use asterix_adm::binary::{put_len_prefixed, put_varint};
use asterix_obs::{Counter, Gauge, HighWater, MetricsRegistry};
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// Log sequence number: the offset of a record in the log's *decoded*
/// record stream — every record of the node's log, each after its varint
/// length, from the first segment on. A segment's name is the LSN of its
/// first record; block headers and coding take no LSNs, so a record's LSN
/// does not depend on how its bytes were coded in the file.
pub type Lsn = u64;

/// One log record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WalRecord {
    /// A data operation by a transaction: the put or delete of one record in
    /// one dataset partition. `dataset` is the id the catalog gave that
    /// incarnation of the dataset; a put's `value` is the dataset's storage
    /// encoding of the record — the bytes its primary index holds — so replay
    /// moves it into the index as it is.
    Write {
        txn_id: u64,
        dataset: u32,
        partition: u32,
        /// `true` = delete (value empty), `false` = put.
        is_delete: bool,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    /// A data operation naming its dataset by name, in a layout nothing
    /// reads: the repository benchmark's log-append probe still builds and
    /// appends it, and a record of it refuses the log it is in (see
    /// [`scan_log`]).
    Update {
        txn_id: u64,
        dataset: String,
        partition: u32,
        is_delete: bool,
        key: Vec<u8>,
        value: Vec<u8>,
    },
    /// Transaction commit — everything it logged is durable.
    Commit { txn_id: u64 },
    /// Transaction abort — its updates must be ignored at recovery.
    Abort { txn_id: u64 },
    /// First record of every rotated log segment: what replay must not lose
    /// when the segments before it are unlinked — the highest transaction id
    /// handed out and the committed frontier of every feed. It says nothing
    /// about where replay starts; each index's manifest does.
    Checkpoint { max_txn: u64, feed_cursors: Vec<(String, u64)> },
    /// Durable ingestion frontier of a feed: committing the surrounding
    /// transaction makes `seq` the feed's last durable sequence number.
    /// Logged immediately before the `Commit` of the batch that carried it,
    /// so recovery can hand a resumed feed the exact restart point.
    FeedCursor { txn_id: u64, feed: String, seq: u64 },
}

/// Tag bytes of [`WalRecord::Write`] — a put and a delete — and of
/// [`WalRecord::Update`], which no reader knows.
pub(crate) const TAG_PUT: u8 = 10;
const TAG_DELETE: u8 = 11;
const TAG_UPDATE: u8 = 1;

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// The payload of a [`WalRecord::Write`]: tag (put or delete), varints of
/// transaction, dataset id, partition and key length, the key, and a put's
/// value (`None` = delete) as the rest — the record's length ends it.
pub(crate) fn encode_write(out: &mut Vec<u8>, txn_id: u64, dataset: u32, partition: u32, key: &[u8], put: Option<&[u8]>) {
    out.push(if put.is_some() { TAG_PUT } else { TAG_DELETE });
    put_varint(out, txn_id);
    put_varint(out, dataset.into());
    put_varint(out, partition.into());
    put_varint(out, key.len() as u64);
    out.extend_from_slice(key);
    out.extend_from_slice(put.unwrap_or_default());
}

/// Reads a write's transaction, dataset and partition: the varints after
/// its tag.
pub(crate) fn write_ids(c: &mut Cursor<'_>) -> Result<(u64, u32, u32)> {
    Ok((c.varint()?, c.varint()?, c.varint()?))
}

/// A [`WalRecord::Write`] read in place, by the one reader of
/// [`encode_write`]'s layout: replay and the block coder both read it here.
pub(crate) struct WriteRef<'a> {
    pub(crate) is_delete: bool,
    pub(crate) txn_id: u64,
    pub(crate) dataset: u32,
    pub(crate) partition: u32,
    /// The varints of those three, as logged.
    pub(crate) ids: &'a [u8],
    pub(crate) key: &'a [u8],
    pub(crate) value: &'a [u8],
}

impl<'a> WriteRef<'a> {
    /// `record` read as a write; `Corrupt` when it is cut short, is a
    /// delete with a value, or is another kind of record.
    pub(crate) fn read(record: &'a [u8]) -> Result<WriteRef<'a>> {
        let mut c = Cursor::new(record);
        let is_delete = match c.u8()? {
            TAG_PUT => false,
            TAG_DELETE => true,
            tag => return Err(StorageError::Corrupt(format!("log record: tag {tag} is no write's"))),
        };
        let (txn_id, dataset, partition) = write_ids(&mut c)?;
        let ids = &record[1..c.pos()];
        let klen = c.varint()?;
        let key = c.bytes(klen)?;
        let value = c.rest();
        if is_delete && !value.is_empty() {
            return Err(StorageError::Corrupt("log record: a delete with a value".into()));
        }
        Ok(WriteRef { is_delete, txn_id, dataset, partition, ids, key, value })
    }
}

impl WalRecord {
    pub(crate) fn encode_into(&self, out: &mut Vec<u8>) {
        match self {
            WalRecord::Write { txn_id, dataset, partition, is_delete, key, value } => {
                let put = (!is_delete).then_some(value.as_slice());
                encode_write(out, *txn_id, *dataset, *partition, key, put);
            }
            WalRecord::Update { txn_id, dataset, partition, is_delete, key, value } => {
                out.push(TAG_UPDATE);
                out.extend_from_slice(&txn_id.to_le_bytes());
                put_bytes(out, dataset.as_bytes());
                out.extend_from_slice(&partition.to_le_bytes());
                out.push(*is_delete as u8);
                put_bytes(out, key);
                put_bytes(out, value);
            }
            WalRecord::Commit { txn_id } => {
                out.push(2);
                out.extend_from_slice(&txn_id.to_le_bytes());
            }
            WalRecord::Abort { txn_id } => {
                out.push(3);
                out.extend_from_slice(&txn_id.to_le_bytes());
            }
            WalRecord::Checkpoint { max_txn, feed_cursors } => {
                out.push(4);
                out.extend_from_slice(&max_txn.to_le_bytes());
                out.extend_from_slice(&(feed_cursors.len() as u32).to_le_bytes());
                for (feed, seq) in feed_cursors {
                    put_bytes(out, feed.as_bytes());
                    out.extend_from_slice(&seq.to_le_bytes());
                }
            }
            WalRecord::FeedCursor { txn_id, feed, seq } => {
                out.push(5);
                out.extend_from_slice(&txn_id.to_le_bytes());
                put_bytes(out, feed.as_bytes());
                out.extend_from_slice(&seq.to_le_bytes());
            }
        }
    }

    pub(crate) fn decode(buf: &[u8]) -> Result<WalRecord> {
        let mut c = Cursor::new(buf);
        let tag = c.u8()?;
        Ok(match tag {
            TAG_PUT | TAG_DELETE => {
                let WriteRef { is_delete, txn_id, dataset, partition, key, value, .. } = WriteRef::read(buf)?;
                WalRecord::Write { txn_id, dataset, partition, is_delete, key: key.to_vec(), value: value.to_vec() }
            }
            2 => WalRecord::Commit { txn_id: c.u64()? },
            3 => WalRecord::Abort { txn_id: c.u64()? },
            4 => {
                let (max_txn, n) = (c.u64()?, c.u32()?);
                // grown by what the buffer actually holds, never by `n`
                let mut feed_cursors = Vec::new();
                for _ in 0..n {
                    feed_cursors.push((c.str()?.to_owned(), c.u64()?));
                }
                WalRecord::Checkpoint { max_txn, feed_cursors }
            }
            5 => {
                let (txn_id, feed, seq) = (c.u64()?, c.str()?.to_owned(), c.u64()?);
                WalRecord::FeedCursor { txn_id, feed, seq }
            }
            _ => return Err(StorageError::Corrupt(format!("log record: no record has tag {tag}"))),
        })
    }
}

/// What a log's syncs count, each into its `storage.wal.*` counter. A
/// [`NodeLog`]'s are in its registry and pass from one segment's writer to
/// the next; a standalone [`WalWriter`]'s are registered nowhere.
#[derive(Clone, Default)]
struct SyncCounters {
    /// `storage.wal.appended_bytes`: file bytes syncs moved into segments
    /// since open (a rotation's checkpoint, published whole, is not one).
    appended_bytes: Counter,
    /// `storage.wal.record_bytes`: what those syncs held decoded — records
    /// and their varint lengths, the LSNs they took. `appended_bytes` over
    /// this is what coding left of the log.
    record_bytes: Counter,
    /// `storage.wal.code_ns`: time those syncs spent coding their blocks,
    /// under the log's lock.
    code_ns: Counter,
    /// `storage.wal.{header,key,row,cell}_bytes`: what each stream kind took
    /// of `appended_bytes`; the blocks' framing is the rest.
    stream_bytes: [Counter; 4],
}

/// Appends to `out` the block of the record stream `records`: its length
/// and checksum, then the body `coder` makes of the records, which the
/// length counts and the checksum (FNV-1a) covers. The one framing, of a
/// sync's blocks and a rotation's checkpoint alike; returns the body's
/// payload bytes by stream kind.
fn frame_block(coder: &mut Coder, records: &[u8], out: &mut Vec<u8>) -> StreamBytes {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    let kinds = coder.encode(records, out);
    let body = &out[start + 8..];
    let (len, crc) = ((body.len() as u32).to_le_bytes(), fnv1a(body).to_le_bytes());
    out[start..start + 4].copy_from_slice(&len);
    out[start + 4..start + 8].copy_from_slice(&crc);
    kinds
}

/// Appender over one log file.
///
/// Records are staged in an internal buffer and persisted by
/// [`WalWriter::sync`] as one block, with one positioned write followed by
/// an fsync — both of which are failpoints when a [`FaultInjector`] is wired
/// in, so crashes can land between, or in the middle of, either step.
///
/// A writer keeps two positions: where the next block goes in the file
/// (what torn-tail truncation and the fault injector's write lengths are
/// in), and how much record stream the file holds (what LSNs are in).
pub struct WalWriter {
    file: File,
    path: PathBuf,
    /// LSN of the file's first record (0 for a standalone log).
    base: Lsn,
    /// Records appended but not yet written, each after its varint length.
    buf: Vec<u8>,
    /// Blocks coded from `buf[..coded]` that no write has put in the file
    /// whole yet: a retried sync writes these same bytes again.
    blocks: Vec<u8>,
    coded: usize,
    coder: Coder,
    /// Payload bytes by stream kind of the blocks in `blocks`: counted once
    /// they are written whole, however often a short write was retried.
    unwritten: StreamBytes,
    /// File bytes of whole blocks; where the next block is written.
    persisted: u64,
    /// Record-stream bytes those blocks hold.
    stream: u64,
    counters: SyncCounters,
    faults: Option<Arc<FaultInjector>>,
    /// The error of the first failed fsync. The kernel may have dropped the
    /// pages that fsync was to make durable, so every later append and sync
    /// fails with it, until the log is opened again.
    fsync_failed: Option<StorageError>,
}

/// `e` once more, for a later caller: an injected fault stays injected, an
/// I/O error keeps its kind.
fn again(e: &StorageError) -> StorageError {
    match e {
        StorageError::Injected(m) => StorageError::Injected(m.clone()),
        StorageError::Io(e) => StorageError::Io(std::io::Error::new(e.kind(), e.to_string())),
        e => StorageError::Invalid(e.to_string()),
    }
}

impl WalWriter {
    /// Opens (creating or appending to) the log at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        WalWriter::open_with_faults(path, None)
    }

    /// Opens the log with an optional fault injector on its write paths.
    pub fn open_with_faults(path: impl AsRef<Path>, faults: Option<Arc<FaultInjector>>) -> Result<Self> {
        Ok(WalWriter::open_at(path.as_ref(), 0, faults, SyncCounters::default())?.0)
    }

    /// Opens the file whose first record is LSN `base`, returning the intact
    /// records it holds.
    ///
    /// A torn or corrupt tail left by a crash is truncated here: appending
    /// after garbage would strand every later block behind the scan stop,
    /// silently losing committed transactions on the *next* recovery.
    /// The writer's syncs count into `counters`.
    fn open_at(
        path: &Path, base: Lsn, faults: Option<Arc<FaultInjector>>, counters: SyncCounters,
    ) -> Result<(Self, Vec<(Lsn, WalRecord)>)> {
        let path = path.to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // truncate(false): an existing log must survive reopen — recovery
        // truncates only the invalid tail below, via set_len
        let mut file = OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let mut image = Vec::new();
        file.read_to_end(&mut image)?;
        let file_len = image.len() as u64;
        let scan = scan_log(&image, base)?;
        if scan.file_len < file_len {
            if let Some(f) = &faults {
                f.on_truncate(&format!("{}:truncate", crate::faults::target_name(&path)))?;
            }
            let wrap = |source| StorageError::WalTruncate { path: path.clone(), valid_len: scan.file_len, file_len, source };
            file.set_len(scan.file_len).map_err(wrap)?;
            file.sync_data().map_err(wrap)?;
        }
        let writer = WalWriter {
            file,
            path,
            base,
            buf: Vec::new(),
            blocks: Vec::new(),
            coded: 0,
            coder: Coder::default(),
            unwritten: [0; 4],
            persisted: scan.file_len,
            stream: scan.stream_len,
            counters,
            faults,
            fsync_failed: None,
        };
        Ok((writer, scan.records))
    }

    /// Appends a record (buffered); returns its LSN.
    pub fn append(&mut self, record: &WalRecord) -> Result<Lsn> {
        self.append_with(|buf| record.encode_into(buf))
    }

    /// Appends a [`WalRecord::Write`] — the put (`Some`) or delete (`None`)
    /// of `key` — serialised from the borrowed parts straight into the log
    /// buffer; returns its LSN.
    pub fn append_write(
        &mut self,
        txn_id: u64,
        dataset: u32,
        partition: u32,
        key: &[u8],
        put: Option<&[u8]>,
    ) -> Result<Lsn> {
        self.append_with(|buf| encode_write(buf, txn_id, dataset, partition, key, put))
    }

    fn append_with(&mut self, record: impl FnOnce(&mut Vec<u8>)) -> Result<Lsn> {
        self.check_fsync()?;
        if let Some(f) = &self.faults {
            f.check_alive("wal append")?;
        }
        let lsn = self.next_lsn();
        put_len_prefixed(&mut self.buf, record);
        Ok(lsn)
    }

    /// Writes the buffered records as one block and forces it to stable
    /// storage — the commit-time durability point.
    ///
    /// On an injected short write the coded block is kept and `sync` may be
    /// retried: the retry rewrites the same bytes at the same offset, so a
    /// partial prefix on disk is simply overwritten (records appended in
    /// between follow in a block of their own). A failed fsync is not
    /// retried: this and every later call return its error.
    pub fn sync(&mut self) -> Result<()> {
        self.check_fsync()?;
        if !self.buf.is_empty() {
            if self.coded < self.buf.len() {
                let start = Instant::now();
                let kinds = frame_block(&mut self.coder, &self.buf[self.coded..], &mut self.blocks);
                self.counters.code_ns.add(start.elapsed().as_nanos() as u64);
                for (unwritten, coded) in self.unwritten.iter_mut().zip(kinds) {
                    *unwritten += coded;
                }
                self.coded = self.buf.len();
            }
            if let Some(f) = self.faults.clone() {
                let target = format!("{}:flush", crate::faults::target_name(&self.path));
                match f.on_write(&target, self.blocks.len())? {
                    WritePlan::Full => {}
                    WritePlan::Torn { kept } | WritePlan::Short { kept } => {
                        // a torn flush: only a prefix of the block reaches
                        // the file, which a reader drops whole
                        if kept > 0 {
                            self.file.write_all_at(&self.blocks[..kept], self.persisted)?;
                        }
                        return Err(f.write_failed(&target));
                    }
                }
            }
            self.file.write_all_at(&self.blocks, self.persisted)?;
            self.persisted += self.blocks.len() as u64;
            self.stream += self.buf.len() as u64;
            self.counters.appended_bytes.add(self.blocks.len() as u64);
            self.counters.record_bytes.add(self.buf.len() as u64);
            for (counter, bytes) in self.counters.stream_bytes.iter().zip(std::mem::take(&mut self.unwritten)) {
                counter.add(bytes);
            }
            self.buf.clear();
            self.blocks.clear();
            self.coded = 0;
        }
        let synced = match &self.faults {
            Some(f) => f.on_sync(&format!("{}:fsync", crate::faults::target_name(&self.path))),
            None => Ok(()),
        }
        .and_then(|()| Ok(self.file.sync_data()?));
        if let Err(e) = &synced {
            self.fsync_failed = Some(again(e));
        }
        synced
    }

    fn check_fsync(&self) -> Result<()> {
        self.fsync_failed.as_ref().map_or(Ok(()), |e| Err(again(e)))
    }

    /// LSN the next record will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.base + self.stream + self.buf.len() as u64
    }
}

/// What a scan of one log file found.
struct Scan {
    /// The intact records, with their LSNs.
    records: Vec<(Lsn, WalRecord)>,
    /// Bytes of whole blocks: everything after them is a crash tail.
    file_len: u64,
    /// Record-stream bytes those blocks hold.
    stream_len: u64,
}

/// Scans the image of a log file whose first record is LSN `base`, up to
/// its first block that is cut short or fails its checksum (a crash tail).
/// A block past its checksum was written whole, so one that does not read —
/// another version's, or damaged before its checksum was taken — refuses
/// the log rather than cut it short there.
fn scan_log(buf: &[u8], base: Lsn) -> Result<Scan> {
    let mut records = Vec::new();
    let (mut file, mut file_len, mut stream) = (Cursor::new(buf), 0, 0);
    // a block cut short is a torn tail
    while let Ok((crc, body)) = next_block(&mut file) {
        if fnv1a(body) != crc {
            break; // corrupt tail
        }
        let decoded = log_block::decode(body)?;
        let mut c = Cursor::new(&decoded);
        while c.pos() < decoded.len() {
            let lsn = base + stream + c.pos() as Lsn;
            let len = c.varint()?;
            records.push((lsn, WalRecord::decode(c.bytes(len)?)?));
        }
        stream += decoded.len() as u64;
        file_len = file.pos() as u64;
    }
    Ok(Scan { records, file_len, stream_len: stream })
}

/// The next block's checksum and the bytes it covers.
fn next_block<'a>(file: &mut Cursor<'a>) -> Result<(u32, &'a [u8])> {
    let (len, crc) = (file.u32()?, file.u32()?);
    Ok((crc, file.bytes(len as usize)?))
}

fn read_file_or_empty(path: &Path) -> Result<Vec<u8>> {
    match std::fs::read(path) {
        Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
        read => Ok(read?),
    }
}

/// Reads all intact records from a log file; stops silently at the first
/// torn/corrupt block (the crash tail).
pub fn read_log(path: impl AsRef<Path>) -> Result<Vec<(Lsn, WalRecord)>> {
    Ok(scan_log(&read_file_or_empty(path.as_ref())?, 0)?.records)
}

/// Byte length of the valid block prefix of a log file (0 if missing): the
/// end of its last whole block.
pub fn valid_prefix_len(path: impl AsRef<Path>) -> Result<u64> {
    Ok(scan_log(&read_file_or_empty(path.as_ref())?, 0)?.file_len)
}

/// One replayable operation of a committed transaction.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ReplayOp {
    pub lsn: Lsn,
    pub txn_id: u64,
    pub dataset: u32,
    pub partition: u32,
    pub is_delete: bool,
    pub key: Vec<u8>,
    pub value: Vec<u8>,
}

/// What a run of log records says once commits are resolved.
#[derive(Debug, Default)]
pub struct LogTail {
    /// Operations of committed transactions, in log order. Which of them
    /// still need applying is for each index's manifest to say.
    pub ops: Vec<ReplayOp>,
    /// Highest committed cursor per feed, checkpointed frontiers included.
    pub feed_cursors: BTreeMap<String, u64>,
    /// Highest transaction id seen, checkpointed high-water mark included.
    pub max_txn: u64,
}

/// Moves `feed`'s frontier up to `seq`.
fn advance(frontiers: &mut BTreeMap<String, u64>, feed: String, seq: u64) {
    let slot = frontiers.entry(feed).or_insert(0);
    *slot = (*slot).max(seq);
}

/// Resolves a run of log records: a transaction counts if its `Commit` is in
/// the run and no `Abort` is.
pub fn analyze(records: Vec<(Lsn, WalRecord)>) -> LogTail {
    let mut committed = HashSet::new();
    let mut aborted = HashSet::new();
    for (_, r) in &records {
        match r {
            WalRecord::Commit { txn_id } => committed.insert(*txn_id),
            WalRecord::Abort { txn_id } => aborted.insert(*txn_id),
            _ => false,
        };
    }
    let counts = |txn: &u64| committed.contains(txn) && !aborted.contains(txn);
    let mut tail = LogTail::default();
    for (lsn, r) in records {
        match r {
            WalRecord::Write { txn_id, dataset, partition, is_delete, key, value } => {
                tail.max_txn = tail.max_txn.max(txn_id);
                if counts(&txn_id) {
                    tail.ops.push(ReplayOp { lsn, txn_id, dataset, partition, is_delete, key, value });
                }
            }
            // never read back (`scan_log` refuses it), so never analyzed
            WalRecord::Update { txn_id, .. } => tail.max_txn = tail.max_txn.max(txn_id),
            WalRecord::Commit { txn_id } | WalRecord::Abort { txn_id } => {
                tail.max_txn = tail.max_txn.max(txn_id);
            }
            WalRecord::Checkpoint { max_txn, feed_cursors } => {
                tail.max_txn = tail.max_txn.max(max_txn);
                for (feed, seq) in feed_cursors {
                    advance(&mut tail.feed_cursors, feed, seq);
                }
            }
            WalRecord::FeedCursor { txn_id, feed, seq } => {
                tail.max_txn = tail.max_txn.max(txn_id);
                if counts(&txn_id) {
                    advance(&mut tail.feed_cursors, feed, seq);
                }
            }
        }
    }
    tail
}

// ---------------------------------------------------------------------------
// The log of one node
// ---------------------------------------------------------------------------

/// The cell in which a primary index publishes the LSN of the oldest log
/// record it holds only in memory (`Lsn::MAX`: none).
#[expect(clippy::disallowed_types, reason = "moves both ways: stored with Release under its partition's lock, read with Acquire under the log's lock")]
pub type LogPin = Arc<std::sync::atomic::AtomicU64>;

/// A node's log, the one owner of what it logs, syncs and unlinks: segment
/// files `<prefix>-<base-lsn>.wal` under one directory, appended to at the
/// newest, kept behind one lock ([`Level::Wal`]) with the [`LogPin`] of
/// every primary index on the node and the replay pause.
///
/// Group commit: a committer appends under the lock, notes the log's end and
/// lets the lock go. The first to take it back leads: its sync writes every
/// record buffered — later committers' too — and raises the durable mark
/// past them; a committer that finds the mark at or past its end shares
/// that fsync. A lone committer never does, so it does exactly append →
/// write → fsync, which seeded fault schedules count on. A failed round
/// fails every commit it covered (the writer keeps the failure) and none
/// the mark already covers.
pub struct NodeLog {
    state: Mutex<LogState>,
    /// The LSN below which every record is known synced.
    durable: HighWater,
    /// `storage.wal.group_commits`: leader fsync rounds.
    rounds: Counter,
    /// `storage.wal.group_commit_waiters`: commits another's fsync covered.
    waiters: Counter,
}

/// What the log's lock guards. Beside the segments it keeps what rotation
/// and truncation need: the first LSN of every transaction still in flight
/// (its records must stay on disk), each primary's pin, and what the next
/// [`WalRecord::Checkpoint`] must carry — the highest transaction id logged
/// and each feed's committed frontier.
struct LogState {
    dir: PathBuf,
    prefix: String,
    faults: Option<Arc<FaultInjector>>,
    /// Closed segments, oldest first, as `(base, path, file bytes)`; each
    /// ends where the next one — or `active` — begins.
    closed: VecDeque<(Lsn, PathBuf, u64)>,
    active: WalWriter,
    inflight: BTreeMap<u64, Lsn>,
    /// `(txn, feed, seq)` logged by transactions not yet finished.
    pending_cursors: Vec<(u64, String, u64)>,
    frontiers: BTreeMap<String, u64>,
    max_txn: u64,
    /// A rotation published a segment file this log could neither adopt nor
    /// unlink. Appending on, to the old segment, would overlap the LSNs the
    /// stray file claims, and a reopen would take the stray for the newest
    /// segment; so nothing more is appended (reopening is safe: the old
    /// segment still ends where the stray begins).
    stray_segment: bool,
    /// `storage.wal.segments`: segment files currently on disk.
    segments: Gauge,
    /// `storage.wal.truncated_bytes`: segment file bytes unlinked since
    /// open.
    truncated_bytes: Counter,
    /// Each primary index's pin, by name.
    pins: BTreeMap<String, LogPin>,
    /// Operations of committed transactions found at open, until recovery
    /// takes them.
    recovered: Vec<ReplayOp>,
    /// While recovery replays them, they are in no memory component: no
    /// rotation (it is owed) and no truncation.
    replaying: bool,
    rotation_owed: bool,
}

fn segment_path(dir: &Path, prefix: &str, base: Lsn) -> PathBuf {
    dir.join(format!("{prefix}-{base:020}.wal"))
}

impl LogState {
    /// Appends a record (buffered); returns its LSN.
    fn append(&mut self, record: &WalRecord) -> Result<Lsn> {
        self.check_appendable()?;
        let lsn = self.active.append(record)?;
        match record {
            WalRecord::Write { txn_id, .. } | WalRecord::Update { txn_id, .. } => {
                self.opened(*txn_id, lsn);
            }
            WalRecord::FeedCursor { txn_id, feed, seq } => {
                self.opened(*txn_id, lsn);
                self.pending_cursors.push((*txn_id, feed.clone(), *seq));
            }
            WalRecord::Commit { txn_id } | WalRecord::Abort { txn_id } => {
                self.max_txn = self.max_txn.max(*txn_id);
            }
            WalRecord::Checkpoint { .. } => {}
        }
        Ok(lsn)
    }

    /// [`LogState::append`] of a [`WalRecord::Write`] given by its borrowed
    /// parts (see [`WalWriter::append_write`]): the write path's one append
    /// per record, which builds no owned record.
    fn append_write(&mut self, txn_id: u64, dataset: u32, partition: u32, key: &[u8], put: Option<&[u8]>) -> Result<Lsn> {
        self.check_appendable()?;
        let lsn = self.active.append_write(txn_id, dataset, partition, key, put)?;
        self.opened(txn_id, lsn);
        Ok(lsn)
    }

    fn check_appendable(&self) -> Result<()> {
        if self.stray_segment {
            return Err(StorageError::Invalid(format!(
                "log under {} has a segment it could not adopt; reopen it",
                self.dir.display()
            )));
        }
        Ok(())
    }

    /// Transaction `txn` logged a record of its own at `lsn`: until it is
    /// finished, the log keeps everything from its first one on.
    fn opened(&mut self, txn: u64, lsn: Lsn) {
        self.inflight.entry(txn).or_insert(lsn);
        self.max_txn = self.max_txn.max(txn);
    }

    /// Transaction `txn` is over on this log: its records no longer hold
    /// segments back, and if it `committed` (durably), the feed cursors it
    /// logged become frontiers.
    fn finish_txn(&mut self, txn: u64, committed: bool) {
        self.inflight.remove(&txn);
        let frontiers = &mut self.frontiers;
        self.pending_cursors.retain(|(t, feed, seq)| {
            if *t != txn {
                return true;
            }
            if committed {
                advance(frontiers, feed.clone(), *seq);
            }
            false
        });
    }

    /// Closes the active segment and starts the next with a checkpoint.
    ///
    /// The old segment is synced first, so a commit landing in the new one
    /// never outlives updates it depends on; the new file is published
    /// whole ([`crate::io::write_atomic`]), so a segment other than the first
    /// always begins with an intact checkpoint, a block of its own.
    fn rotate(&mut self) -> Result<()> {
        self.active.sync()?;
        let base = self.active.next_lsn();
        let path = segment_path(&self.dir, &self.prefix, base);
        let checkpoint = WalRecord::Checkpoint {
            max_txn: self.max_txn,
            feed_cursors: self.frontiers.iter().map(|(f, s)| (f.clone(), *s)).collect(),
        };
        let mut record = Vec::new();
        put_len_prefixed(&mut record, |buf| checkpoint.encode_into(buf));
        let mut first = Vec::new();
        frame_block(&mut Coder::default(), &record, &mut first);
        crate::io::write_atomic(&path, &first, self.faults.as_ref())?;
        let next = match WalWriter::open_at(&path, base, self.faults.clone(), self.active.counters.clone()) {
            Ok((next, _)) => next,
            Err(e) => {
                self.stray_segment = crate::io::remove_file(&path, self.faults.as_ref()).is_err();
                return Err(e);
            }
        };
        let old = std::mem::replace(&mut self.active, next);
        self.closed.push_back((old.base, old.path, old.persisted));
        self.segments.add(1);
        Ok(())
    }

    /// Unlinks, oldest first, every closed segment that lies wholly below
    /// both `pin` (the first LSN some index has not flushed) and the first
    /// LSN of the oldest transaction in flight.
    fn truncate_below(&mut self, pin: Lsn) -> Result<()> {
        let keep_from = self.inflight.values().copied().fold(pin, Lsn::min);
        while let Some((_, path, file_len)) = self.closed.front() {
            let end = self.closed.get(1).map_or(self.active.base, |next| next.0);
            if end > keep_from {
                break;
            }
            crate::io::remove_file(path, self.faults.as_ref())?;
            self.truncated_bytes.add(*file_len);
            self.segments.add(-1);
            self.closed.pop_front();
        }
        Ok(())
    }

    /// What a primary index's settle asks of the log: a new segment when it
    /// `sealed` a memory component, and when it `published` one, the
    /// unlinking of the segments wholly below every pin and the oldest open
    /// transaction; neither while recovery replays (the rotation is owed). A
    /// failed rotation still truncates; the first error is returned.
    fn checkpoint(&mut self, sealed: bool, published: bool) -> Result<()> {
        if self.replaying {
            self.rotation_owed |= sealed;
            return Ok(());
        }
        let rotated = if sealed { self.rotate() } else { Ok(()) };
        if !published {
            return rotated;
        }
        // a writer's records are either behind its index's pin or, until its
        // transaction finishes, in the log's own in-flight table
        let pin = self.pins.values().map(|p| p.load(Ordering::Acquire)).min();
        rotated.and(self.truncate_below(pin.unwrap_or(Lsn::MAX)))
    }
}

impl NodeLog {
    /// Opens the log under `dir` (creating its first segment if there is
    /// none) for appending, and keeps what a restart must redo for
    /// [`NodeLog::replay`]: the operations of the committed transactions
    /// found in the retained segments. It counts into `registry`:
    /// `storage.wal.{segments, truncated_bytes, group_commits,
    /// group_commit_waiters}` and what its syncs count (`SyncCounters`).
    pub fn open(dir: &Path, prefix: &str, faults: Option<Arc<FaultInjector>>, registry: &MetricsRegistry) -> Result<NodeLog> {
        std::fs::create_dir_all(dir)?;
        let mut bases = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let name = entry?.file_name();
            let base = name
                .to_str()
                .and_then(|n| n.strip_prefix(prefix)?.strip_prefix('-')?.strip_suffix(".wal"))
                .and_then(|digits| digits.parse::<Lsn>().ok());
            bases.extend(base);
        }
        bases.sort_unstable();
        let newest = match bases.pop() {
            Some(base) => base,
            None => {
                // the very first segment: published like every later one, so
                // that the commits synced into it survive with its directory entry
                crate::io::write_atomic(&segment_path(dir, prefix, 0), &[], faults.as_ref())?;
                0
            }
        };
        let kinds = ["storage.wal.header_bytes", "storage.wal.key_bytes", "storage.wal.row_bytes", "storage.wal.cell_bytes"];
        let counters = SyncCounters {
            appended_bytes: registry.counter("storage.wal.appended_bytes"),
            record_bytes: registry.counter("storage.wal.record_bytes"),
            code_ns: registry.counter("storage.wal.code_ns"),
            stream_bytes: kinds.map(|name| registry.counter(name)),
        };
        let (active, mut records) =
            WalWriter::open_at(&segment_path(dir, prefix, newest), newest, faults.clone(), counters)?;
        // Walk back from the newest segment while each older one ends exactly
        // where its successor begins. Truncation unlinks oldest first, so
        // anything beyond a gap had already been let go: finish unlinking it.
        let mut closed = VecDeque::new();
        let mut next_base = newest;
        while let Some(base) = bases.pop() {
            let path = segment_path(dir, prefix, base);
            let older = scan_log(&read_file_or_empty(&path)?, base)?;
            if base + older.stream_len != next_base {
                bases.push(base);
                break;
            }
            records.splice(0..0, older.records);
            closed.push_front((base, path, older.file_len));
            next_base = base;
        }
        for base in bases {
            crate::io::remove_file(&segment_path(dir, prefix, base), faults.as_ref())?;
        }
        let segments = registry.gauge("storage.wal.segments");
        segments.set(closed.len() as i64 + 1);
        let tail = analyze(records);
        let state = LogState {
            dir: dir.to_path_buf(),
            prefix: prefix.to_string(),
            faults,
            closed,
            active,
            inflight: BTreeMap::new(),
            pending_cursors: Vec::new(),
            frontiers: tail.feed_cursors,
            max_txn: tail.max_txn,
            stray_segment: false,
            segments,
            truncated_bytes: registry.counter("storage.wal.truncated_bytes"),
            pins: BTreeMap::new(),
            recovered: tail.ops,
            replaying: false,
            rotation_owed: false,
        };
        Ok(NodeLog {
            state: Mutex::ranked(Level::Wal, state),
            durable: HighWater::new(0),
            rounds: registry.counter("storage.wal.group_commits"),
            waiters: registry.counter("storage.wal.group_commit_waiters"),
        })
    }

    /// Appends a [`WalRecord::Write`] — the put (`Some`) or delete (`None`)
    /// of `key` by transaction `txn_id` — serialised from the borrowed parts
    /// straight into the log buffer; returns its LSN.
    pub fn append_write(&self, txn_id: u64, dataset: u32, partition: u32, key: &[u8], put: Option<&[u8]>) -> Result<Lsn> {
        self.state.lock().append_write(txn_id, dataset, partition, key, put)
    }

    /// Logs a [`WalRecord::FeedCursor`] for each of `feed_cursors`, then
    /// `txn`'s [`WalRecord::Commit`], and returns once they are durable.
    pub fn commit(&self, txn: u64, feed_cursors: &[(String, u64)]) -> Result<()> {
        let end = {
            let mut s = self.state.lock();
            for (feed, seq) in feed_cursors {
                s.append(&WalRecord::FeedCursor { txn_id: txn, feed: feed.clone(), seq: *seq })?;
            }
            s.append(&WalRecord::Commit { txn_id: txn })?;
            s.active.next_lsn()
        };
        self.durable_through(end)
    }

    /// Logs `txn`'s [`WalRecord::Abort`], after the commit of the
    /// `compensation` that restored its before-images, if it wrote any: then
    /// the compensation is over, and both are durable when this returns.
    pub fn abort(&self, txn: u64, compensation: Option<u64>) -> Result<()> {
        let end = {
            let mut s = self.state.lock();
            if let Some(compensation) = compensation {
                s.append(&WalRecord::Commit { txn_id: compensation })?;
            }
            s.append(&WalRecord::Abort { txn_id: txn })?;
            if let Some(compensation) = compensation {
                s.finish_txn(compensation, true);
            }
            s.active.next_lsn()
        };
        compensation.map_or(Ok(()), |_| self.durable_through(end))
    }

    /// Makes every record below `end` durable, as the leader of a round or
    /// covered by one (see the type's docs).
    fn durable_through(&self, end: Lsn) -> Result<()> {
        lock_order::check(lock_order::Wait::Durable);
        if self.durable.get() >= end {
            self.waiters.inc();
            return Ok(());
        }
        let mut s = self.state.lock();
        if self.durable.get() >= end {
            // a leader finished while we waited for the lock
            self.waiters.inc();
            return Ok(());
        }
        s.active.sync()?;
        self.durable.raise(s.active.next_lsn());
        self.rounds.inc();
        Ok(())
    }

    /// Transaction `txn` is over on this log: its records no longer hold
    /// segments back, and if it `committed` (durably), the feed cursors it
    /// logged become frontiers.
    pub fn finish_txn(&self, txn: u64, committed: bool) {
        self.state.lock().finish_txn(txn, committed);
    }

    /// Last committed sequence number of `feed` (0 = none).
    pub fn frontier(&self, feed: &str) -> u64 {
        self.state.lock().frontiers.get(feed).copied().unwrap_or(0)
    }

    /// Highest transaction id this log has seen.
    pub fn max_txn(&self) -> u64 {
        self.state.lock().max_txn
    }

    /// LSN the next record will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.state.lock().active.next_lsn()
    }

    /// The cell in which primary index `index` publishes its oldest
    /// unflushed LSN: the log keeps everything from there on.
    pub fn pin(&self, index: &str) -> LogPin {
        let mut s = self.state.lock();
        Arc::clone(s.pins.entry(index.to_string()).or_insert_with(|| Arc::new(Lsn::MAX.into())))
    }

    /// Primary index `index` is gone and holds nothing back any more.
    pub fn unpin(&self, index: &str) {
        self.state.lock().pins.remove(index);
    }

    /// What an owner of indexes does after each operation on them, the
    /// operation's outcome `applied`: [`settle`] `group` — its indexes in
    /// flush order, the primary last — `force`d or not, if the operation
    /// succeeded; store the primary's first unflushed LSN into `pin`, its
    /// cell from [`NodeLog::pin`]; and keep the log up with what the settle
    /// did to the primary. A seal of a memory component rotates the log (the
    /// records it covers end with the old segment); a publish unlinks the
    /// segments wholly below every pin and the oldest open transaction.
    /// While recovery replays, neither happens, and the rotation is owed.
    ///
    /// Returns the operation's outcome, or the settle's failure, and apart
    /// from it the failure of the log's upkeep (a failed rotation still
    /// truncates; the first error), which the caller reports when it will:
    /// the operation has been applied all the same.
    pub fn settle<T, E: From<StorageError>>(
        &self,
        group: &mut [LsmTree],
        force: bool,
        pin: &LogPin,
        applied: std::result::Result<T, E>,
    ) -> (std::result::Result<T, E>, Result<()>) {
        let out = applied.and_then(|done| Ok((done, settle(group, force)?)));
        pin.store(group.last().and_then(LsmTree::first_unflushed).unwrap_or(Lsn::MAX), Ordering::Release);
        let Settled { sealed, published } = out.as_ref().map_or(Settled::default(), |(_, settled)| *settled);
        let upkeep = if sealed || published { self.state.lock().checkpoint(sealed, published) } else { Ok(()) };
        (out.map(|(done, _)| done), upkeep)
    }

    /// The committed operations the log held at open (once), for recovery:
    /// until [`NodeLog::replayed`], no rotation and no truncation.
    pub fn replay(&self) -> Vec<ReplayOp> {
        let mut s = self.state.lock();
        s.replaying = true;
        std::mem::take(&mut s.recovered)
    }

    /// Replay is done: makes the rotation a replay-time seal asked for.
    pub fn replayed(&self) -> Result<()> {
        let mut s = self.state.lock();
        s.replaying = false;
        let owed = std::mem::take(&mut s.rotation_owed);
        s.checkpoint(owed, owed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::le;
    use crate::log_block::tests::{framing_of, message_row};
    use crate::testutil::TempDir;
    use asterix_adm::binary::read_varint;
    use asterix_adm::Value;
    use rand::SeedableRng;

    fn upd(txn: u64, key: &[u8], val: &[u8]) -> WalRecord {
        WalRecord::Write {
            txn_id: txn,
            dataset: 7,
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
    fn borrowed_and_owned_writes_frame_identically() {
        let dir = TempDir::new();
        let mut owned = WalWriter::open(dir.path().join("owned.log")).unwrap();
        let mut borrowed = WalWriter::open(dir.path().join("borrowed.log")).unwrap();
        owned.append(&upd(3, b"key", b"value")).unwrap();
        borrowed.append_write(3, 7, 0, b"key", Some(b"value")).unwrap();
        let delete = WalRecord::Write {
            txn_id: 3,
            dataset: 7,
            partition: 1,
            is_delete: true,
            key: b"key".to_vec(),
            value: vec![],
        };
        owned.append(&delete).unwrap();
        borrowed.append_write(3, 7, 1, b"key", None).unwrap();
        assert_eq!(owned.buf, borrowed.buf);
        borrowed.sync().unwrap();
        let recs = read_log(dir.path().join("borrowed.log")).unwrap();
        assert_eq!(recs.into_iter().map(|r| r.1).collect::<Vec<_>>(), [upd(3, b"key", b"value"), delete]);
    }

    #[test]
    fn a_frame_of_the_retired_update_layout_refuses_the_log() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&WalRecord::Commit { txn_id: 1 }).unwrap();
        w.append(&WalRecord::Update {
            txn_id: 2,
            dataset: "ds".into(),
            partition: 0,
            is_delete: false,
            key: b"k".to_vec(),
            value: b"v".to_vec(),
        })
        .unwrap();
        w.append(&WalRecord::Commit { txn_id: 2 }).unwrap();
        w.sync().unwrap();
        drop(w);
        let len = std::fs::metadata(&path).unwrap().len();
        // whole and checksummed, so not a crash tail to cut off: an error
        assert!(matches!(read_log(&path), Err(StorageError::Corrupt(_))));
        assert!(matches!(WalWriter::open(&path), Err(StorageError::Corrupt(_))));
        assert_eq!(std::fs::metadata(&path).unwrap().len(), len, "nothing was truncated");
    }

    fn write_payload(txn_id: u64, dataset: u32, partition: u32, key: &[u8], put: Option<&[u8]>) -> Vec<u8> {
        let mut out = Vec::new();
        encode_write(&mut out, txn_id, dataset, partition, key, put);
        out
    }

    #[test]
    fn a_write_is_its_tag_four_varints_the_key_and_the_value() {
        assert_eq!(write_payload(300, 2, 1, b"pk", Some(b"row")), b"\x0a\xac\x02\x02\x01\x02pkrow");
        assert_eq!(write_payload(300, 2, 1, b"pk", None), b"\x0b\xac\x02\x02\x01\x02pk");
        // an empty value is a put, not a delete
        let write = |txn_id, id, key: &[u8], value: &[u8]| WalRecord::Write {
            txn_id,
            dataset: id,
            partition: id,
            is_delete: false,
            key: key.to_vec(),
            value: value.to_vec(),
        };
        let empty = WalRecord::decode(&write_payload(1, 0, 0, b"", Some(b""))).unwrap();
        assert_eq!(empty, write(1, 0, b"", b""));
        // seven bits a byte: 1 byte up to 127, 2 up to 16 383, 5 for u32::MAX
        let varint_len = |v: u64| (64 - v.leading_zeros()).max(1).div_ceil(7) as usize;
        let edges = [0, 127, 128, 16_383, 16_384, u64::from(u32::MAX)];
        for txn_id in edges.into_iter().chain([u64::MAX]) {
            for id in edges.map(|e| e as u32) {
                let payload = write_payload(txn_id, id, id, b"key", Some(b"value"));
                assert_eq!(payload.len(), 1 + varint_len(txn_id) + 2 * varint_len(id.into()) + 1 + 3 + 5);
                assert_eq!(WalRecord::decode(&payload).unwrap(), write(txn_id, id, b"key", b"value"));
            }
        }
    }

    #[test]
    fn a_damaged_write_payload_is_corrupt_never_a_panic() {
        let corrupt = |payload: &[u8]| matches!(WalRecord::decode(payload), Err(StorageError::Corrupt(_)));
        // the value is the rest of the payload, so a cut inside it reads as a
        // shorter put — the frame's length and checksum are what tell them
        // apart; a cut anywhere before it is corrupt
        let put = write_payload(u64::MAX, u32::MAX, 128, b"key", Some(b"value"));
        for cut in 0..put.len() - b"value".len() {
            assert!(corrupt(&put[..cut]), "a put cut at {cut}");
        }
        let delete = write_payload(16_384, 0, 127, b"key", None);
        for cut in 0..delete.len() {
            assert!(corrupt(&delete[..cut]), "a delete cut at {cut}");
        }
        let mut trailing = delete;
        trailing.push(0);
        assert!(corrupt(&trailing), "a delete with a value");
        let mut endless = vec![TAG_PUT];
        endless.extend([0x80; 11]);
        endless.extend([0, 0, 0]);
        assert!(corrupt(&endless), "eleven continuation bytes");
        let mut wide = vec![TAG_PUT];
        for v in [1, u64::from(u32::MAX) + 1, 0, 0] {
            put_varint(&mut wide, v);
        }
        assert!(corrupt(&wide), "a dataset id past u32::MAX");
        let mut long_key = vec![TAG_PUT, 1, 0, 0];
        put_varint(&mut long_key, u64::MAX);
        assert!(corrupt(&long_key), "a key longer than the payload");
    }

    #[test]
    fn appended_bytes_count_what_a_sync_moved_once_however_often_it_was_retried() {
        let dir = TempDir::new();
        let faults = FaultInjector::new(crate::faults::FaultConfig {
            seed: 5,
            short_write_prob: 0.5,
            ..Default::default()
        });
        let log = open_log(&dir, Some(faults.clone()));
        let mut wal = log.state.lock();
        let start = wal.active.next_lsn();
        for txn in 1..=8 {
            wal.append_write(txn, 7, 0, b"key", Some(b"value")).unwrap();
            wal.append(&WalRecord::Commit { txn_id: txn }).unwrap();
            // a short write keeps the coded block for the retry
            assert!((0..64).any(|_| wal.active.sync().is_ok()), "txn {txn} never synced");
        }
        let short = |e: &crate::faults::FaultEvent| matches!(e, crate::faults::FaultEvent::ShortWrite { .. });
        assert!(faults.events().iter().any(short), "no short write to retry");
        // the record stream: a put is its length (1), 5 of header, key and
        // value; a commit its length, tag and transaction
        let records = 1 + 5 + 3 + 5 + 1 + 1 + 8;
        let counters = &wal.active.counters;
        assert_eq!(counters.record_bytes.get(), wal.active.next_lsn() - start);
        assert_eq!(counters.record_bytes.get(), 8 * records);
        // a block a sync: 8 of header, tag, the stream's length and the
        // stream as it is — coded, its eighteen literals and the rest of the
        // parse would take more
        let segment = std::fs::metadata(segment_path(dir.path(), "node", 0)).unwrap().len();
        assert_eq!(counters.appended_bytes.get(), segment);
        assert_eq!(counters.appended_bytes.get(), 8 * (8 + 1 + 1 + records));
        assert!(counters.code_ns.get() > 0, "each sync timed the coding of its block");
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
        let end = {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&upd(1, b"a", b"1")).unwrap();
            w.append(&WalRecord::Commit { txn_id: 1 }).unwrap();
            w.sync().unwrap();
            w.next_lsn()
        };
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
            assert_eq!(std::fs::metadata(&path).unwrap().len(), valid);
            assert_eq!(w.next_lsn(), end);
            w.append(&upd(2, b"b", b"2")).unwrap();
            w.append(&WalRecord::Commit { txn_id: 2 }).unwrap();
            w.sync().unwrap();
        }
        let recs = read_log(&path).unwrap();
        assert_eq!(recs.len(), 4, "records after the crash point must be readable");
        assert_eq!(analyze(recs).ops.len(), 2);
    }

    #[test]
    fn truncate_failpoint_fires_before_tail_removal() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        let (end, valid) = {
            let mut w = WalWriter::open(&path).unwrap();
            w.append(&upd(1, b"a", b"1")).unwrap();
            w.append(&WalRecord::Commit { txn_id: 1 }).unwrap();
            w.sync().unwrap();
            (w.next_lsn(), std::fs::metadata(&path).unwrap().len())
        };
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
        assert_eq!((w.next_lsn(), std::fs::metadata(&path).unwrap().len()), (end, valid));
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
        w.sync().unwrap();
        w.append(&upd(1, b"b", b"2")).unwrap();
        w.sync().unwrap();
        // flip a byte in the second block's payload
        let mut bytes = std::fs::read(&path).unwrap();
        let n = bytes.len();
        bytes[n - 1] ^= 0xff;
        std::fs::write(&path, &bytes).unwrap();
        assert_eq!(read_log(&path).unwrap().len(), 1);
    }

    #[test]
    fn a_sync_writes_its_records_as_one_block() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        // a put of key "a" and value "1": its length (7), tag, transaction,
        // dataset, partition, key length, key, value — eight bytes with no
        // four repeated, so the block holds them as they are
        w.append(&upd(1, b"a", b"1")).unwrap();
        w.sync().unwrap();
        let raw = [0x20, 8, 7, TAG_PUT, 1, 7, 0, 1, b'a', b'1'];
        let mut want = (raw.len() as u32).to_le_bytes().to_vec();
        want.extend_from_slice(&fnv1a(&raw).to_le_bytes());
        want.extend_from_slice(&raw);
        assert_eq!(std::fs::read(&path).unwrap(), want);
        // four commits in one sync: forty bytes, a block small enough to be
        // coded whole. Mostly zeros, parsed as four literals and a run of six
        // at distance one, then the other three records as a match of thirty
        // at distance ten (a token of 15 and 11 more), then the closing
        // token: three sequences, one length byte. Each of the five streams
        // is too short for a code to shrink it, so no flag is set and each
        // is as it is, the literals last.
        for lsn in [8, 18, 28, 38] {
            assert_eq!(w.append(&WalRecord::Commit { txn_id: 1 }).unwrap(), lsn);
        }
        w.sync().unwrap();
        let coded = [
            &[0x22, 40, 0b00000, 3, 1][..],
            &[0x42, 0x0F, 0x00],
            &[11],
            &[1, 10],
            &[0, 0],
            &[9, 2, 1, 0],
        ]
        .concat();
        want.extend_from_slice(&(coded.len() as u32).to_le_bytes());
        want.extend_from_slice(&fnv1a(&coded).to_le_bytes());
        want.extend_from_slice(&coded);
        assert_eq!(std::fs::read(&path).unwrap(), want);
        let lsns: Vec<Lsn> = read_log(&path).unwrap().into_iter().map(|(lsn, _)| lsn).collect();
        assert_eq!(lsns, [0, 8, 18, 28, 38]);
        assert_eq!(w.next_lsn(), 48);
    }

    /// A log of generated messages in group commits.
    struct MessageLog {
        image: Vec<u8>,
        /// The file's length and the records appended after each block.
        ends: Vec<(u64, usize)>,
        records: Vec<(Lsn, WalRecord)>,
    }

    /// The log of group commits of `groups` puts each.
    fn message_log(seed: u64, groups: &[usize]) -> MessageLog {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
        let mut w = WalWriter::open(&path).unwrap();
        let (mut appended, mut ends) = (Vec::new(), vec![(0, 0)]);
        let mut id = 0;
        for (txn, &puts) in groups.iter().enumerate() {
            let txn_id = txn as u64 + 1;
            for _ in 0..puts {
                id += 1;
                let (key, value) = (asterix_adm::binary::encode_key(&[Value::Int(id)]), message_row(&mut rng, id));
                let lsn = w.append_write(txn_id, 3, id as u32 % 4, &key, Some(&value)).unwrap();
                let is_delete = false;
                appended.push((lsn, WalRecord::Write { txn_id, dataset: 3, partition: id as u32 % 4, is_delete, key, value }));
            }
            let commit = WalRecord::Commit { txn_id };
            appended.push((w.append(&commit).unwrap(), commit));
            w.sync().unwrap();
            ends.push((std::fs::metadata(&path).unwrap().len(), appended.len()));
        }
        let image = std::fs::read(&path).unwrap();
        assert_eq!(read_log(&path).unwrap(), appended);
        MessageLog { image, ends, records: appended }
    }

    /// The log's bytes, pinned: a log of four group commits — a few
    /// messages coded whole, a split block of 25 and one of 2 500, and a
    /// lone commit kept raw — and the checkpoint segment one rotation
    /// publishes, each by its length and FNV-1a. A deliberate change of the
    /// format (a new block shape, ROADMAP item 16) updates these constants
    /// and names the change in CHANGES.md; a refactor leaves them alone.
    #[test]
    fn the_logs_bytes_are_pinned() {
        let log = message_log(1, &[5, 25, 2_500, 0]);
        let tags: Vec<u8> = blocks_of(&log.image).iter().map(|&(tag, ..)| tag).collect();
        assert_eq!(tags, [0x22, 0x26, 0x26, 0x20], "a block of each shape");
        assert_eq!((log.image.len(), le::fnv1a(&log.image)), (58_639, 1_051_921_374), "the message log");
        let dir = TempDir::new();
        let (log, _) = recover(&dir, None);
        let mut wal = log.state.lock();
        for (seq, feed) in ["feed.Messages", "feed.Users", "feed.Chirps", "feed.Tweets"].into_iter().enumerate() {
            wal.append(&WalRecord::FeedCursor { txn_id: 41, feed: feed.into(), seq: 7 * seq as u64 }).unwrap();
        }
        wal.append(&WalRecord::Commit { txn_id: 41 }).unwrap();
        wal.active.sync().unwrap();
        wal.finish_txn(41, true);
        wal.rotate().unwrap();
        let checkpoint = std::fs::read(segment_path(dir.path(), "node", wal.active.base)).unwrap();
        assert_eq!(blocks_of(&checkpoint)[0].0, 0x22, "coded whole");
        assert_eq!((checkpoint.len(), le::fnv1a(&checkpoint)), (83, 942_542_492), "a rotation's checkpoint segment");
    }

    /// Every block of a log image, as (tag, stream bytes, file bytes).
    fn blocks_of(image: &[u8]) -> Vec<(u8, usize, usize)> {
        let mut out = Vec::new();
        let mut pos = 0;
        while pos < image.len() {
            let len = le::u32_at(image, pos) as usize;
            let (raw_len, _) = read_varint(&image[pos + 9..]).unwrap();
            out.push((image[pos + 8], raw_len as usize, 8 + len));
            pos += 8 + len;
        }
        out
    }

    #[test]
    fn every_cut_and_every_flipped_byte_drops_a_tail_or_refuses_never_misreads() {
        let MessageLog { image, ends, records } = message_log(3, &[3, 0, 30]);
        let tags: Vec<u8> = blocks_of(&image).iter().map(|&(tag, ..)| tag).collect();
        assert_eq!(tags, [0x22, 0x20, 0x26], "a block of each shape: coded whole, raw, split");
        // the records of the blocks wholly below `at`, and where they end
        let below = |at: usize| *ends.iter().rev().find(|(end, _)| *end as usize <= at).unwrap();
        for cut in 0..=image.len() {
            let scan = scan_log(&image[..cut], 0).unwrap();
            let (end, n) = below(cut);
            assert_eq!(scan.records, records[..n], "cut at {cut}");
            assert_eq!(scan.file_len, end, "cut at {cut}");
        }
        for at in 0..image.len() {
            for flip in [0x01, 0x80, 0xff] {
                let mut damaged = image.clone();
                damaged[at] ^= flip;
                match scan_log(&damaged, 0) {
                    Ok(scan) => assert_eq!(scan.records, records[..below(at).1], "{flip:#x} at {at}"),
                    Err(StorageError::Corrupt(_)) => {}
                    Err(e) => panic!("{flip:#x} at {at}: {e}"),
                }
            }
        }
    }

    #[test]
    fn the_stream_counters_and_the_framing_add_up_to_the_appended_bytes() {
        let dir = TempDir::new();
        let (log, _) = recover(&dir, None);
        let mut wal = log.state.lock();
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for (txn, puts) in [(1, 2_500), (2, 25), (3, 1), (4, 0)] {
            for id in 0..puts {
                wal.append_write(txn, 3, 0, &asterix_adm::binary::encode_key(&[Value::Int(id)]), Some(&message_row(&mut rng, id)))
                    .unwrap();
            }
            wal.append(&WalRecord::Commit { txn_id: txn }).unwrap();
            wal.active.sync().unwrap();
        }
        let image = std::fs::read(segment_path(dir.path(), "node", 0)).unwrap();
        let counters = &wal.active.counters;
        let [headers, keys, rows, cells] = counters.stream_bytes.each_ref().map(Counter::get);
        assert_eq!(counters.appended_bytes.get(), image.len() as u64);
        // each block's length and checksum, and what frames its streams
        let (mut file, mut framing) = (Cursor::new(&image), 0);
        while let Ok((_, body)) = next_block(&mut file) {
            framing += 8 + framing_of(body);
        }
        assert_eq!(headers + keys + rows + cells + framing, counters.appended_bytes.get());
        // the text and the locations, in their cells, are most of it; every
        // key is its `messageId` cell's, so none is logged
        assert!(cells > headers + keys + rows, "{cells} of cells, {headers} {keys} {rows} of the rest");
        assert_eq!(keys, 0);
        assert!(rows > 0);
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
        let tail = analyze(recs);
        assert_eq!(tail.ops.len(), 1);
        assert_eq!((tail.ops[0].lsn, tail.ops[0].key.as_slice()), (0, b"a".as_slice()));
        assert_eq!(tail.max_txn, 3);
    }

    #[test]
    fn checkpoint_carries_state_and_hides_nothing() {
        // where replay starts is each index's manifest's to say, so the
        // operations before a checkpoint stay in the plan
        let recs = vec![
            (0u64, upd(1, b"old", b"x")),
            (1, WalRecord::Commit { txn_id: 1 }),
            (2, WalRecord::Checkpoint { max_txn: 40, feed_cursors: vec![("f".into(), 9)] }),
            (3, upd(2, b"new", b"y")),
            (4, WalRecord::Commit { txn_id: 2 }),
        ];
        let tail = analyze(recs);
        assert_eq!(tail.ops.iter().map(|op| op.key.as_slice()).collect::<Vec<_>>(), [b"old", b"new"]);
        assert_eq!(tail.max_txn, 40);
        assert_eq!(tail.feed_cursors.get("f"), Some(&9));
    }

    #[test]
    fn missing_log_reads_empty() {
        let dir = TempDir::new();
        assert!(read_log(dir.path().join("nope.log")).unwrap().is_empty());
    }

    #[test]
    fn checkpoint_roundtrip() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        let ckpt = WalRecord::Checkpoint {
            max_txn: 77,
            feed_cursors: vec![("feed.A".into(), 5), ("feed.B".into(), 0)],
        };
        let mut w = WalWriter::open(&path).unwrap();
        w.append(&ckpt).unwrap();
        w.sync().unwrap();
        assert_eq!(read_log(&path).unwrap(), vec![(0, ckpt)]);
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
    fn feed_cursors_take_the_max_of_committed_only() {
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
        ];
        let m = analyze(recs).feed_cursors;
        assert_eq!(m.get("a"), Some(&20));
        assert_eq!(m.get("b"), None);
    }

    /// Two commits appended before either syncs; the log's end after each.
    fn two_appended_commits(log: &NodeLog, txns: [u64; 2]) -> (Lsn, Lsn) {
        let mut s = log.state.lock();
        s.append(&WalRecord::Commit { txn_id: txns[0] }).unwrap();
        let end = s.active.next_lsn();
        s.append(&WalRecord::Commit { txn_id: txns[1] }).unwrap();
        (end, s.active.next_lsn())
    }

    #[test]
    fn group_commit_leader_fsync_covers_later_appends() {
        let dir = TempDir::new();
        let log = open_log(&dir, None);
        let path = segment_path(dir.path(), "node", 0);
        let (end1, end2) = two_appended_commits(&log, [1, 2]);
        // first sync is the leader: its one fsync makes both commits durable
        log.durable_through(end1).unwrap();
        assert_eq!(log.durable.get(), end2);
        assert_eq!(log.rounds.get(), 1);
        assert_eq!(log.waiters.get(), 0);
        // second committer piggybacks without touching the file
        log.durable_through(end2).unwrap();
        assert_eq!(log.rounds.get(), 1, "no second fsync round");
        assert_eq!(log.waiters.get(), 1);
        assert_eq!(read_log(&path).unwrap().len(), 2);
    }

    #[test]
    fn a_failed_group_round_fails_every_commit_it_covered_and_no_other() {
        let dir = TempDir::new();
        // the crash point is the log's second fsync
        let log = open_log(&dir, Some(FaultInjector::crash_at(1, ".wal:fsync", 1)));
        log.commit(1, &[]).unwrap();
        let durable = log.durable.get();
        let (end2, end3) = two_appended_commits(&log, [2, 3]);
        // the leader's fsync fails, and so does the commit it was to cover
        assert!(matches!(log.durable_through(end2), Err(StorageError::Injected(_))));
        assert!(matches!(log.durable_through(end3), Err(StorageError::Injected(_))));
        assert_eq!(log.durable.get(), durable, "the mark stays below the failed round");
        // a commit an earlier round made durable needs no fsync
        log.durable_through(durable).unwrap();
        assert_eq!((log.rounds.get(), log.waiters.get()), (1, 1));
    }

    #[test]
    fn a_failed_fsync_fails_the_log_until_it_is_reopened() {
        let dir = TempDir::new();
        let (log, _) = recover(&dir, Some(FaultInjector::crash_at(1, ".wal:fsync", 0)));
        let mut wal = log.state.lock();
        wal.append(&WalRecord::Commit { txn_id: 1 }).unwrap();
        let first = wal.active.sync().unwrap_err().to_string();
        assert!(first.contains("injected crash during fsync"), "{first}");
        // the next sync, an append and a rotation each return that failure,
        // not the injector's refusal of whatever follows its crash
        let later = [wal.active.sync(), wal.append(&WalRecord::Commit { txn_id: 2 }).map(drop), wal.rotate()];
        for e in later.map(Result::unwrap_err) {
            assert!(matches!(e, StorageError::Injected(_)), "{e}");
            assert_eq!(e.to_string(), first);
        }
        drop(wal);
        drop(log);
        let (log, _) = recover(&dir, None);
        let mut wal = log.state.lock();
        wal.append(&WalRecord::Commit { txn_id: 2 }).unwrap();
        wal.active.sync().unwrap();
    }

    #[test]
    fn a_panicked_log_holder_does_not_wedge_the_log() {
        let dir = TempDir::new();
        let log = Arc::new(open_log(&dir, None));
        let holder = Arc::clone(&log);
        let _ = lock_order::join(std::thread::spawn(move || {
            let _state = holder.state.lock();
            panic!("holder dies with the log's guard live");
        }));
        // A bare std::sync::Mutex would now be poisoned and every later
        // lock().unwrap() would panic, wedging commit and abort. The
        // lock_order mutex takes a poisoned lock as it is instead.
        log.commit(1, &[]).unwrap();
        drop(log);
        // and reopening the same directory still succeeds
        let log = open_log(&dir, None);
        assert_eq!(log.max_txn(), 1);
        assert_eq!(segment_files(dir.path()).len(), 1);
    }

    #[test]
    fn delete_operations_roundtrip() {
        let dir = TempDir::new();
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        w.append_write(9, 4, 3, b"pk", None).unwrap();
        w.append(&WalRecord::Commit { txn_id: 9 }).unwrap();
        w.sync().unwrap();
        let ops = analyze(read_log(&path).unwrap()).ops;
        assert_eq!(ops.len(), 1);
        let op = &ops[0];
        assert_eq!(
            (op.txn_id, op.dataset, op.partition, op.is_delete, op.key.as_slice()),
            (9u64, 4u32, 3u32, true, b"pk".as_slice())
        );
    }

    // -- segments ----------------------------------------------------------

    fn segment_files(dir: &Path) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        names.sort();
        names
    }

    /// The node log under `dir`, counting into a registry of its own.
    fn open_log(dir: &TempDir, faults: Option<Arc<FaultInjector>>) -> NodeLog {
        NodeLog::open(dir.path(), "node", faults, &MetricsRegistry::new()).unwrap()
    }

    /// The node log under `dir` and what a restart must redo, replayed as
    /// recovery replays it.
    fn recover(dir: &TempDir, faults: Option<Arc<FaultInjector>>) -> (NodeLog, Vec<ReplayOp>) {
        let log = open_log(dir, faults);
        let ops = log.replay();
        log.replayed().unwrap();
        (log, ops)
    }

    /// One committed single-update transaction.
    fn commit_one(log: &NodeLog, txn: u64) -> Lsn {
        let lsn = log.append_write(txn, 7, 0, format!("k{txn}").as_bytes(), Some(b"v")).unwrap();
        log.commit(txn, &[]).unwrap();
        log.finish_txn(txn, true);
        lsn
    }

    #[test]
    fn lsns_stay_global_across_rotation_and_reopen() {
        let dir = TempDir::new();
        let (log, ops) = recover(&dir, None);
        assert!(ops.is_empty());
        let l1 = commit_one(&log, 1);
        log.state.lock().rotate().unwrap();
        let base = log.state.lock().active.base;
        assert!(base > l1, "the new segment starts where the old one ended");
        let l2 = commit_one(&log, 2);
        assert!(l2 > base, "after the checkpoint that opens the segment");
        assert_eq!(log.state.lock().segments.get(), 2);
        drop(log);
        let (log, ops) = recover(&dir, None);
        assert_eq!(ops.iter().map(|op| (op.lsn, op.txn_id)).collect::<Vec<_>>(), [(l1, 1), (l2, 2)]);
        assert_eq!(log.max_txn(), 2);
        assert_eq!(log.state.lock().segments.get(), 2);
    }

    #[test]
    fn truncation_unlinks_whole_segments_below_the_pin_and_the_oldest_open_txn() {
        let dir = TempDir::new();
        let log = open_log(&dir, None);
        // one primary holds nothing in memory, the other pins what it does
        let (_idle, pin) = (log.pin("a_p0_pri"), log.pin("b_p0_pri"));
        let checkpoint = |sealed, published| log.state.lock().checkpoint(sealed, published);
        let (rotate, truncate) = (|| checkpoint(true, false), || checkpoint(false, true));
        let segments = || log.state.lock().segments.get();
        commit_one(&log, 1);
        rotate().unwrap();
        // txn 2 stays open across the next rotation
        let open_at = log.append_write(2, 7, 0, b"k2", Some(b"v")).unwrap();
        rotate().unwrap();
        let l3 = commit_one(&log, 3);
        assert_eq!(segments(), 3);
        // nothing is pinned, but txn 2 holds its segment (and so the later
        // ones); the first segment goes
        truncate().unwrap();
        assert_eq!(segments(), 2);
        assert!(log.state.lock().truncated_bytes.get() > 0);
        assert!(log.state.lock().closed.front().is_some_and(|(base, ..)| *base <= open_at));
        // txn 2 over, a pin inside the active segment lets every closed one go
        log.finish_txn(2, false);
        pin.store(l3, Ordering::Release);
        truncate().unwrap();
        assert_eq!(segments(), 1);
        assert_eq!(segment_files(dir.path()).len(), 1);
        // a pin inside a closed segment keeps it, until its index is gone
        checkpoint(true, true).unwrap();
        assert_eq!(segments(), 2);
        log.unpin("b_p0_pri");
        truncate().unwrap();
        assert_eq!(segments(), 1);
    }

    #[test]
    fn checkpoint_carries_frontiers_and_txn_ids_past_truncation() {
        let dir = TempDir::new();
        let log = open_log(&dir, None);
        log.commit(41, &[("f".into(), 7)]).unwrap();
        assert_eq!(log.frontier("f"), 0, "not a frontier until its transaction is over");
        log.finish_txn(41, true);
        assert_eq!(log.frontier("f"), 7);
        log.state.lock().checkpoint(true, true).unwrap();
        assert_eq!(log.state.lock().segments.get(), 1, "the cursor's segment is gone");
        drop(log);
        let log = open_log(&dir, None);
        assert!(log.replay().is_empty());
        assert_eq!(log.frontier("f"), 7);
        assert_eq!(log.max_txn(), 41);
    }

    #[test]
    fn replay_holds_rotation_and_truncation_back_and_then_rotates_once() {
        let dir = TempDir::new();
        let l1 = commit_one(&open_log(&dir, None), 1);
        let log = open_log(&dir, None);
        assert_eq!(log.replay().iter().map(|op| op.lsn).collect::<Vec<_>>(), [l1]);
        log.state.lock().checkpoint(true, true).unwrap();
        log.state.lock().checkpoint(true, false).unwrap();
        assert_eq!(segment_files(dir.path()).len(), 1, "no rotation while replaying");
        log.replayed().unwrap();
        // the one rotation owed, and the truncation of the segment it closed
        let s = log.state.lock();
        assert!(s.active.base > l1);
        assert_eq!((s.segments.get(), segment_files(dir.path()).len()), (1, 1));
    }

    #[test]
    fn segments_older_than_a_gap_were_already_let_go() {
        let dir = TempDir::new();
        let (log, _) = recover(&dir, None);
        commit_one(&log, 1);
        log.state.lock().rotate().unwrap();
        commit_one(&log, 2);
        log.state.lock().rotate().unwrap();
        let l3 = commit_one(&log, 3);
        let middle = log.state.lock().closed[1].1.clone();
        drop(log);
        // an unlink that reached the disk ahead of an older one
        std::fs::remove_file(middle).unwrap();
        let (log, ops) = recover(&dir, None);
        assert_eq!(ops.iter().map(|op| op.lsn).collect::<Vec<_>>(), [l3]);
        assert_eq!(log.state.lock().segments.get(), 1);
        assert_eq!(segment_files(dir.path()).len(), 1, "the stranded segment is unlinked");
    }

    #[test]
    fn a_crash_inside_rotation_leaves_a_log_that_reopens_whole() {
        // ops of one rotation: fsync of the old segment, then the four steps
        // of the atomic publish (write, fsync, rename, directory fsync)
        for crash_at in 0..5u64 {
            let dir = TempDir::new();
            let (log, _) = recover(&dir, None);
            let l1 = commit_one(&log, 1);
            drop(log);
            let inj = FaultInjector::crash_after(3, crash_at);
            let (log, _) = recover(&dir, Some(inj.clone()));
            assert!(log.state.lock().rotate().is_err(), "crash_at={crash_at}");
            assert!(inj.crashed());
            drop(log);
            let (log, ops) = recover(&dir, None);
            assert_eq!(ops.iter().map(|op| op.lsn).collect::<Vec<_>>(), [l1], "crash_at={crash_at}");
            let l2 = commit_one(&log, 2);
            drop(log);
            let (_, ops) = recover(&dir, None);
            assert_eq!(ops.iter().map(|op| op.lsn).collect::<Vec<_>>(), [l1, l2]);
        }
    }
}
