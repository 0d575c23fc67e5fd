//! Write-ahead log for record-level transactions (paper Section III item 9:
//! "basic NoSQL-like transactional capabilities").
//!
//! Each data operation (put/delete of one record in one dataset partition)
//! is logged before being applied to the LSM memory component; `Commit`
//! records make a transaction durable. A writer buffers what is appended as
//! a *record stream* — each record after its LEB128 length — and each
//! [`WalWriter::sync`] writes the stream it buffered as one block:
//!
//! ```text
//! [len u32][crc u32][tag][raw_len varint][payload]
//! ```
//!
//! `len` counts the bytes after the checksum, `crc` is their FNV-1a, and the
//! payload is the stream coded (`crate::lz`: an LZ77 parse whose five byte
//! streams are each Huffman-coded, tag `BLOCK_CODED`) or, when coding does
//! not shrink it, the stream as it is (`BLOCK_RAW`); `raw_len` is the
//! stream's length either way. No record carries a checksum of its own: the
//! block's covers them all. A group commit of 2 500 generated messages is
//! coded to ≈ 0.45 of its records, one of 25 to ≈ 0.61; the time a sync
//! spends coding, under the log's lock, is `storage.wal.code_ns`.
//!
//! A node keeps its log as a [`SegmentedWal`]: files named
//! `<prefix>-<base-lsn>.wal`, rotated when a partition seals its memory
//! components and unlinked, whole segments at a time, once every index has
//! flushed past them. Recovery reads the retained segments and re-applies
//! the operations of committed transactions that no disk component covers.
//! A block cut short or failing its checksum is a crash tail and is dropped
//! whole with everything after it: one group commit, whose sync returned to
//! nobody.

use crate::error::{Result, StorageError};
use crate::faults::{FaultInjector, WritePlan};
use crate::le::{fnv1a, Cursor, Format};
use crate::lock_order::OrderedMutex;
use crate::lz;
use asterix_adm::binary::put_varint;
use asterix_obs::{Counter, Gauge, MetricsRegistry};
use std::borrow::Cow;
use std::collections::{BTreeMap, HashSet, VecDeque};
use std::fs::{File, OpenOptions};
use std::io::Read;
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
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
const TAG_PUT: u8 = 10;
const TAG_DELETE: u8 = 11;
const TAG_UPDATE: u8 = 1;

/// Tag bytes of a block: its payload is the record stream as it is, or
/// coded.
const BLOCK_RAW: u8 = 0x20;
const BLOCK_CODED: u8 = 0x22;
/// The block's header (see [`crate::le`]): its tag.
pub(crate) const FORMAT: Format = Format { kind: "log block", headers: &[&[BLOCK_RAW], &[BLOCK_CODED]] };

fn put_bytes(out: &mut Vec<u8>, bytes: &[u8]) {
    out.extend_from_slice(&(bytes.len() as u32).to_le_bytes());
    out.extend_from_slice(bytes);
}

/// The payload of a [`WalRecord::Write`]: tag (put or delete), varints of
/// transaction, dataset id, partition and key length, the key, and a put's
/// value (`None` = delete) as the rest — the frame's length ends it.
fn encode_write(
    out: &mut Vec<u8>,
    txn_id: u64,
    dataset: u32,
    partition: u32,
    key: &[u8],
    put: Option<&[u8]>,
) {
    out.push(if put.is_some() { TAG_PUT } else { TAG_DELETE });
    put_varint(out, txn_id);
    put_varint(out, dataset.into());
    put_varint(out, partition.into());
    put_varint(out, key.len() as u64);
    out.extend_from_slice(key);
    out.extend_from_slice(put.unwrap_or_default());
}

/// Appends one record to the record stream `out` — its varint length, then
/// the record — with `record` writing the record in place.
fn record_into(out: &mut Vec<u8>, record: impl FnOnce(&mut Vec<u8>)) {
    let start = out.len();
    record(out);
    let len = out.len() - start;
    put_varint(out, len as u64);
    // the length was written after the record: turn it to the front
    let varint = out.len() - start - len;
    out[start..].rotate_right(varint);
}

/// Appends to `out` the block of the record stream `records`, coded by
/// `coder` unless that does not shrink it.
fn block_into(out: &mut Vec<u8>, records: &[u8], coder: &mut lz::Coder) {
    let start = out.len();
    out.extend_from_slice(&[0; 8]);
    out.push(BLOCK_CODED);
    put_varint(out, records.len() as u64);
    let payload = out.len();
    coder.compress(records, out);
    if out.len() - payload >= records.len() {
        out.truncate(payload);
        out[start + 8] = BLOCK_RAW;
        out.extend_from_slice(records);
    }
    let len = (out.len() - start - 8) as u32;
    let crc = fnv1a(&out[start + 8..]);
    out[start..start + 4].copy_from_slice(&len.to_le_bytes());
    out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
}

impl WalRecord {
    fn encode_into(&self, out: &mut Vec<u8>) {
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

    fn decode(buf: &[u8]) -> Result<WalRecord> {
        let mut c = Cursor::new(buf);
        let tag = c.u8()?;
        Ok(match tag {
            TAG_PUT | TAG_DELETE => {
                let (txn_id, dataset, partition) = (c.varint()?, c.varint()?, c.varint()?);
                let klen = c.varint()?;
                let key = c.bytes(klen)?.to_vec();
                let value = c.rest().to_vec();
                let is_delete = tag == TAG_DELETE;
                if is_delete && !value.is_empty() {
                    return Err(StorageError::Corrupt("log record: a delete with a value".into()));
                }
                WalRecord::Write { txn_id, dataset, partition, is_delete, key, value }
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
    coder: lz::Coder,
    /// File bytes of whole blocks; where the next block is written.
    persisted: u64,
    /// Record-stream bytes those blocks hold.
    stream: u64,
    /// Nanoseconds syncs have spent coding blocks.
    code_ns: u64,
    faults: Option<Arc<FaultInjector>>,
}

impl WalWriter {
    /// Opens (creating or appending to) the log at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<Self> {
        WalWriter::open_with_faults(path, None)
    }

    /// Opens the log with an optional fault injector on its write paths.
    pub fn open_with_faults(
        path: impl AsRef<Path>,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Self> {
        Ok(WalWriter::open_at(path.as_ref(), 0, faults)?.0)
    }

    /// Opens the file whose first record is LSN `base`, returning the intact
    /// records it holds.
    ///
    /// A torn or corrupt tail left by a crash is truncated here: appending
    /// after garbage would strand every later block behind the scan stop,
    /// silently losing committed transactions on the *next* recovery.
    fn open_at( // xlint: allow(blocking, "WAL open/replay happens at storage-env open, before jobs are served")
        path: &Path,
        base: Lsn,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<(Self, Vec<(Lsn, WalRecord)>)> {
        let path = path.to_path_buf();
        if let Some(parent) = path.parent() {
            std::fs::create_dir_all(parent)?;
        }
        // truncate(false): an existing log must survive reopen — recovery
        // truncates only the invalid tail below, via set_len
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(&path)?;
        let mut image = Vec::new();
        file.read_to_end(&mut image)?;
        let file_len = image.len() as u64;
        let scan = scan_log(&image, base)?;
        if scan.file_len < file_len {
            if let Some(f) = &faults {
                f.on_truncate(&format!(
                    "{}:truncate",
                    crate::faults::target_name(&path)
                ))?;
            }
            let wrap = |source: std::io::Error| StorageError::WalTruncate {
                path: path.clone(),
                valid_len: scan.file_len,
                file_len,
                source,
            };
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
            coder: lz::Coder::default(),
            persisted: scan.file_len,
            stream: scan.stream_len,
            code_ns: 0,
            faults,
        };
        Ok((writer, scan.records))
    }

    /// The log file path.
    pub fn path(&self) -> &Path {
        &self.path
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
        if let Some(f) = &self.faults {
            f.check_alive("wal append")?;
        }
        let lsn = self.next_lsn();
        record_into(&mut self.buf, record);
        Ok(lsn)
    }

    /// Writes the buffered records as one block and forces it to stable
    /// storage — the commit-time durability point.
    ///
    /// On an injected short write the coded block is kept and `sync` may be
    /// retried: the retry rewrites the same bytes at the same offset, so a
    /// partial prefix on disk is simply overwritten (records appended in
    /// between follow in a block of their own).
    pub fn sync(&mut self) -> Result<()> { // xlint: allow(blocking, "WAL sync is the durability contract; group commit amortizes the fdatasync")
        if !self.buf.is_empty() {
            if self.coded < self.buf.len() {
                let start = Instant::now();
                block_into(&mut self.blocks, &self.buf[self.coded..], &mut self.coder);
                self.code_ns += start.elapsed().as_nanos() as u64;
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
            self.buf.clear();
            self.blocks.clear();
            self.coded = 0;
        }
        if let Some(f) = self.faults.clone() {
            f.on_sync(&format!("{}:fsync", crate::faults::target_name(&self.path)))?;
        }
        self.file.sync_data()?;
        Ok(())
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

/// A block's record stream: its payload decoded.
fn decode_block(body: &[u8]) -> Result<Cow<'_, [u8]>> {
    let mut c = Cursor::new(body);
    let tag = c.header(&FORMAT)?;
    let raw_len = c.varint()?;
    let payload = c.rest();
    let stream = match tag {
        [BLOCK_RAW] => (payload.len() == raw_len).then_some(Cow::Borrowed(payload)),
        _ => lz::decompress(payload, raw_len).map(Cow::Owned),
    };
    stream.ok_or_else(|| StorageError::Corrupt(format!("log block: its payload is not a stream of {raw_len} bytes")))
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
        let decoded = decode_block(body)?;
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
// The segmented log of one node
// ---------------------------------------------------------------------------

/// A node's log: segment files `<prefix>-<base-lsn>.wal` under one
/// directory, appended to at the newest.
///
/// Beside the bytes it tracks what rotation and truncation need: the first
/// LSN of every transaction still in flight (its records must stay on
/// disk), and what the next [`WalRecord::Checkpoint`] must carry — the
/// highest transaction id logged and each feed's committed frontier.
pub struct SegmentedWal {
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
}

fn segment_path(dir: &Path, prefix: &str, base: Lsn) -> PathBuf {
    dir.join(format!("{prefix}-{base:020}.wal"))
}

impl SegmentedWal {
    /// Opens the log under `dir` (creating its first segment if there is
    /// none) for appending, and returns it with what a restart must redo:
    /// the operations of the committed transactions found in the retained
    /// segments. Its size is exported through `registry` as
    /// `storage.wal.{segments, truncated_bytes, appended_bytes, record_bytes}`,
    /// the time its syncs spend coding as `storage.wal.code_ns`.
    pub fn recover(
        dir: &Path,
        prefix: &str,
        faults: Option<Arc<FaultInjector>>,
        registry: &MetricsRegistry,
    ) -> Result<(Self, Vec<ReplayOp>)> {
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
        let (active, mut records) =
            WalWriter::open_at(&segment_path(dir, prefix, newest), newest, faults.clone())?;
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
        let wal = SegmentedWal {
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
            appended_bytes: registry.counter("storage.wal.appended_bytes"),
            record_bytes: registry.counter("storage.wal.record_bytes"),
            code_ns: registry.counter("storage.wal.code_ns"),
        };
        Ok((wal, tail.ops))
    }

    /// Appends a record (buffered); returns its LSN.
    pub fn append(&mut self, record: &WalRecord) -> Result<Lsn> {
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

    /// [`SegmentedWal::append`] of a [`WalRecord::Write`] given by its
    /// borrowed parts (see [`WalWriter::append_write`]): the write path's
    /// one append per record, which builds no owned record.
    pub fn append_write(
        &mut self,
        txn_id: u64,
        dataset: u32,
        partition: u32,
        key: &[u8],
        put: Option<&[u8]>,
    ) -> Result<Lsn> {
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

    /// Writes buffered records as one block and forces it to stable
    /// storage. What the write moves into the segment is counted once,
    /// however many times a short write has it retried.
    pub fn sync(&mut self) -> Result<()> {
        let active = &mut self.active;
        let (persisted, stream, code_ns) = (active.persisted, active.stream, active.code_ns);
        let synced = active.sync();
        self.appended_bytes.add(active.persisted - persisted);
        self.record_bytes.add(active.stream - stream);
        self.code_ns.add(active.code_ns - code_ns);
        synced
    }

    /// LSN the next record will receive.
    pub fn next_lsn(&self) -> Lsn {
        self.active.next_lsn()
    }

    /// Transaction `txn` is over on this log: its records no longer hold
    /// segments back, and if it `committed` (durably), the feed cursors it
    /// logged become frontiers.
    pub fn finish_txn(&mut self, txn: u64, committed: bool) {
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

    /// Last committed sequence number of `feed` (0 = none).
    pub fn frontier(&self, feed: &str) -> u64 {
        self.frontiers.get(feed).copied().unwrap_or(0)
    }

    /// Highest transaction id this log has seen.
    pub fn max_txn(&self) -> u64 {
        self.max_txn
    }

    /// Closes the active segment and starts the next with a checkpoint.
    ///
    /// The old segment is synced first, so a commit landing in the new one
    /// never outlives updates it depends on; the new file is published
    /// whole ([`crate::io::write_atomic`]), so a segment other than the first
    /// always begins with an intact checkpoint, a block of its own.
    pub fn rotate(&mut self) -> Result<()> {
        self.sync()?;
        let base = self.active.next_lsn();
        let path = segment_path(&self.dir, &self.prefix, base);
        let checkpoint = WalRecord::Checkpoint {
            max_txn: self.max_txn,
            feed_cursors: self.frontiers.iter().map(|(f, s)| (f.clone(), *s)).collect(),
        };
        let mut record = Vec::new();
        record_into(&mut record, |buf| checkpoint.encode_into(buf));
        let mut first = Vec::new();
        block_into(&mut first, &record, &mut self.active.coder);
        crate::io::write_atomic(&path, &first, self.faults.as_ref())?;
        let next = match WalWriter::open_at(&path, base, self.faults.clone()) {
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
    pub fn truncate_below(&mut self, pin: Lsn) -> Result<()> {
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
/// record below LSN `end` is on stable storage.
pub struct GroupCommit {
    /// Records durably synced (an LSN high-water mark).
    durable: AtomicU64,
    /// `storage.wal.group_commits`: leader fsync rounds.
    rounds: Counter,
    /// `storage.wal.group_commit_waiters`: committers that piggybacked on
    /// another committer's fsync.
    waiters: Counter,
}

impl GroupCommit {
    /// A fresh protocol instance for one WAL (durable mark at 0), counting
    /// into `registry`.
    pub fn new(registry: &MetricsRegistry) -> GroupCommit {
        GroupCommit {
            durable: AtomicU64::new(0),
            rounds: registry.counter("storage.wal.group_commits"),
            waiters: registry.counter("storage.wal.group_commit_waiters"),
        }
    }

    /// Durable high-water mark (the LSN below which every record is known
    /// synced).
    pub fn durable(&self) -> Lsn {
        self.durable.load(Ordering::Acquire)
    }

    /// Makes every record below LSN `end` durable, sharing the fsync with
    /// concurrent committers (see the type docs). `end` must
    /// come from `wal.next_lsn()` observed while holding the WAL lock after
    /// appending; `wal` must be the lock this protocol instance guards.
    pub fn sync_through(&self, wal: &OrderedMutex<SegmentedWal>, end: Lsn) -> Result<()> {
        if self.durable.load(Ordering::Acquire) >= end {
            // an earlier leader's fsync already covered our bytes
            self.waiters.inc();
            return Ok(());
        }
        let mut w = wal.lock(); // xlint: lock(wal)
        if self.durable.load(Ordering::Acquire) >= end {
            // a leader finished while we waited for the lock
            self.waiters.inc();
            return Ok(());
        }
        // leader: one write + fdatasync covers everything buffered so far,
        // ours and any committer's that appended after our `end`
        w.sync()?;
        let synced = w.next_lsn(); // everything appended so far is on disk
        self.durable.fetch_max(synced, Ordering::AcqRel); // xlint: ordering(AcqRel max publishes the durable mark to piggybacking committers)
        self.rounds.inc();
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::le;
    use crate::testutil::TempDir;
    use asterix_adm::binary::read_varint;
    use asterix_adm::{Point, Value};
    use rand::{Rng, SeedableRng};

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
        let (mut wal, _) =
            SegmentedWal::recover(dir.path(), "node", Some(faults.clone()), &MetricsRegistry::new()).unwrap();
        let start = wal.next_lsn();
        for txn in 1..=8 {
            wal.append_write(txn, 7, 0, b"key", Some(b"value")).unwrap();
            wal.append(&WalRecord::Commit { txn_id: txn }).unwrap();
            // a short write keeps the coded block for the retry
            assert!((0..64).any(|_| wal.sync().is_ok()), "txn {txn} never synced");
        }
        let short = |e: &crate::faults::FaultEvent| matches!(e, crate::faults::FaultEvent::ShortWrite { .. });
        assert!(faults.events().iter().any(short), "no short write to retry");
        // the record stream: a put is its length (1), 5 of header, key and
        // value; a commit its length, tag and transaction
        let records = 1 + 5 + 3 + 5 + 1 + 1 + 8;
        assert_eq!(wal.record_bytes.get(), wal.next_lsn() - start);
        assert_eq!(wal.record_bytes.get(), 8 * records);
        // a block a sync: 8 of header, tag, the stream's length and the
        // stream as it is — coded, its eighteen literals and the rest of the
        // parse would take more
        let segment = std::fs::metadata(segment_path(dir.path(), "node", 0)).unwrap().len();
        assert_eq!(wal.appended_bytes.get(), segment);
        assert_eq!(wal.appended_bytes.get(), 8 * (8 + 1 + 1 + records));
        // each sync timed the coding of its block, once
        assert!(wal.code_ns.get() > 0);
        assert_eq!(wal.code_ns.get(), wal.active.code_ns);
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
        let raw = [BLOCK_RAW, 8, 7, TAG_PUT, 1, 7, 0, 1, b'a', b'1'];
        let mut want = (raw.len() as u32).to_le_bytes().to_vec();
        want.extend_from_slice(&fnv1a(&raw).to_le_bytes());
        want.extend_from_slice(&raw);
        assert_eq!(std::fs::read(&path).unwrap(), want);
        // four commits in one sync: forty bytes, mostly zeros, parsed as four
        // literals and a run of six at distance one, then the other three
        // records as a match of thirty at distance ten (a token of 15 and
        // 11 more), then the closing token: three sequences, one length
        // byte. Each of the five streams is too short for a code to shrink
        // it, so no flag is set and each is as it is, the literals last.
        for lsn in [8, 18, 28, 38] {
            assert_eq!(w.append(&WalRecord::Commit { txn_id: 1 }).unwrap(), lsn);
        }
        w.sync().unwrap();
        let coded = [
            &[BLOCK_CODED, 40, 0b00000, 3, 1][..],
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

    /// A message the way a Gleambook load logs it: the storage encoding of
    /// ids, a location and a text of 3 to 11 words.
    fn message_row(rng: &mut impl Rng, id: i64) -> Vec<u8> {
        const WORDS: [&str; 16] = [
            "love", "like", "hate", "the", "its", "verizon", "samsung", "apple", "platform", "speed",
            "voice", "command", "network", "signal", "customization", "reachability",
        ];
        let words = rng.gen_range(3..12);
        let text: Vec<&str> = (0..words).map(|_| WORDS[rng.gen_range(0..WORDS.len())]).collect();
        let location = Point::new(rng.gen_range(0.0..90.0), rng.gen_range(0.0..180.0));
        let message = Value::object(vec![
            ("messageId".into(), Value::Int(id)),
            ("authorId".into(), Value::Int(rng.gen_range(1..=1_000))),
            ("senderLocation".into(), Value::Point(location)),
            ("message".into(), Value::from(text.join(" "))),
        ]);
        let types = asterix_adm::types::gleambook_types();
        asterix_adm::schema_encode::encode_with_schema(&message, types.get("GleambookMessageType").unwrap()).unwrap()
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
        let MessageLog { image, ends, records } = message_log(3, &[3, 1, 9]);
        assert!(blocks_of(&image).iter().any(|&(tag, ..)| tag == BLOCK_CODED), "a block worth coding");
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
    fn a_stream_length_the_block_cannot_hold_is_refused_without_allocating() {
        // a coded block of "abc" that says it decodes to 2^40 or to
        // u64::MAX: refused before a buffer of that size is asked for
        for raw_len in [1u64 << 40, u64::MAX] {
            let mut body = vec![BLOCK_CODED];
            put_varint(&mut body, raw_len);
            lz::Coder::default().compress(b"abc", &mut body);
            let mut log = (body.len() as u32).to_le_bytes().to_vec();
            log.extend_from_slice(&fnv1a(&body).to_le_bytes());
            log.extend_from_slice(&body);
            assert!(matches!(scan_log(&log, 0), Err(StorageError::Corrupt(_))), "raw_len {raw_len}");
        }
        // a raw block whose stream length is not its payload's
        let body = [BLOCK_RAW, 9, 0];
        let mut log = (body.len() as u32).to_le_bytes().to_vec();
        log.extend_from_slice(&fnv1a(&body).to_le_bytes());
        log.extend_from_slice(&body);
        assert!(matches!(scan_log(&log, 0), Err(StorageError::Corrupt(_))));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Generated messages logged in group commits of any size read back
        /// as appended; a block of twenty or more is coded to under 0.64 of
        /// its records, one of sixty or more to under 0.55 (0.61 and 0.52 at
        /// worst in 256 cases).
        #[test]
        fn real_log_blocks_round_trip(
            seed in proptest::prelude::any::<u64>(),
            groups in proptest::collection::vec(0usize..120, 1..5),
        ) {
            let log = message_log(seed, &groups);
            for (&puts, (tag, raw_len, file_len)) in groups.iter().zip(blocks_of(&log.image)) {
                if puts >= 20 {
                    proptest::prop_assert_eq!(tag, BLOCK_CODED);
                    proptest::prop_assert!(100 * file_len < 64 * raw_len, "{} puts: {} of {} bytes", puts, file_len, raw_len);
                }
                if puts >= 60 {
                    proptest::prop_assert!(100 * file_len < 55 * raw_len, "{} puts: {} of {} bytes", puts, file_len, raw_len);
                }
            }
        }
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

    #[test]
    fn group_commit_leader_fsync_covers_later_appends() {
        let dir = TempDir::new();
        let wal = OrderedMutex::new("wal", recover(&dir, None).0);
        let path = segment_path(dir.path(), "node", 0);
        let gc = GroupCommit::new(&MetricsRegistry::new());
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
        assert_eq!(gc.rounds.get(), 1);
        assert_eq!(gc.waiters.get(), 0);
        // second committer piggybacks without touching the file
        gc.sync_through(&wal, end2).unwrap();
        assert_eq!(gc.rounds.get(), 1, "no second fsync round");
        assert_eq!(gc.waiters.get(), 1);
        assert_eq!(read_log(&path).unwrap().len(), 2);
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

    /// The log under `dir`, counting into a registry of its own.
    fn recover(dir: &TempDir, faults: Option<Arc<FaultInjector>>) -> (SegmentedWal, Vec<ReplayOp>) {
        SegmentedWal::recover(dir.path(), "node", faults, &MetricsRegistry::new()).unwrap()
    }

    /// One committed single-update transaction.
    fn commit_one(wal: &mut SegmentedWal, txn: u64) -> Lsn {
        let lsn = wal.append(&upd(txn, format!("k{txn}").as_bytes(), b"v")).unwrap();
        wal.append(&WalRecord::Commit { txn_id: txn }).unwrap();
        wal.sync().unwrap();
        wal.finish_txn(txn, true);
        lsn
    }

    #[test]
    fn lsns_stay_global_across_rotation_and_reopen() {
        let dir = TempDir::new();
        let (mut wal, ops) = recover(&dir, None);
        assert!(ops.is_empty());
        let l1 = commit_one(&mut wal, 1);
        wal.rotate().unwrap();
        let base = wal.active.base;
        assert!(base > l1, "the new segment starts where the old one ended");
        let l2 = commit_one(&mut wal, 2);
        assert!(l2 > base, "after the checkpoint that opens the segment");
        assert_eq!(wal.segments.get(), 2);
        drop(wal);
        let (wal, ops) = recover(&dir, None);
        assert_eq!(ops.iter().map(|op| (op.lsn, op.txn_id)).collect::<Vec<_>>(), [(l1, 1), (l2, 2)]);
        assert_eq!(wal.max_txn(), 2);
        assert_eq!(wal.segments.get(), 2);
    }

    #[test]
    fn truncation_unlinks_whole_segments_below_the_pin_and_the_oldest_open_txn() {
        let dir = TempDir::new();
        let (mut wal, _) = recover(&dir, None);
        commit_one(&mut wal, 1);
        wal.rotate().unwrap();
        // txn 2 stays open across the next rotation
        let open_at = wal.append(&upd(2, b"k2", b"v")).unwrap();
        wal.rotate().unwrap();
        let l3 = commit_one(&mut wal, 3);
        assert_eq!(wal.segments.get(), 3);
        // everything is flushed, but txn 2 holds its segment (and so the
        // later ones); the first segment goes
        wal.truncate_below(wal.next_lsn()).unwrap();
        assert_eq!(wal.segments.get(), 2);
        assert!(wal.truncated_bytes.get() > 0);
        assert!(wal.closed.front().is_some_and(|(base, ..)| *base <= open_at));
        // a pin inside the active segment lets every closed one go
        wal.finish_txn(2, false);
        wal.truncate_below(l3).unwrap();
        assert_eq!(wal.segments.get(), 1);
        assert_eq!(segment_files(dir.path()).len(), 1);
        // and a pin inside a closed segment keeps it
        wal.rotate().unwrap();
        wal.truncate_below(l3).unwrap();
        assert_eq!(wal.segments.get(), 2);
    }

    #[test]
    fn checkpoint_carries_frontiers_and_txn_ids_past_truncation() {
        let dir = TempDir::new();
        let (mut wal, _) = recover(&dir, None);
        wal.append(&WalRecord::FeedCursor { txn_id: 41, feed: "f".into(), seq: 7 }).unwrap();
        wal.append(&WalRecord::Commit { txn_id: 41 }).unwrap();
        wal.sync().unwrap();
        assert_eq!(wal.frontier("f"), 0, "not a frontier until the commit is known durable");
        wal.finish_txn(41, true);
        assert_eq!(wal.frontier("f"), 7);
        wal.rotate().unwrap();
        wal.truncate_below(wal.next_lsn()).unwrap();
        assert_eq!(wal.segments.get(), 1, "the cursor's segment is gone");
        drop(wal);
        let (wal, ops) = recover(&dir, None);
        assert!(ops.is_empty());
        assert_eq!(wal.frontier("f"), 7);
        assert_eq!(wal.max_txn(), 41);
    }

    #[test]
    fn segments_older_than_a_gap_were_already_let_go() {
        let dir = TempDir::new();
        let (mut wal, _) = recover(&dir, None);
        commit_one(&mut wal, 1);
        wal.rotate().unwrap();
        commit_one(&mut wal, 2);
        wal.rotate().unwrap();
        let l3 = commit_one(&mut wal, 3);
        let middle = wal.closed[1].1.clone();
        drop(wal);
        // an unlink that reached the disk ahead of an older one
        std::fs::remove_file(middle).unwrap();
        let (wal, ops) = recover(&dir, None);
        assert_eq!(ops.iter().map(|op| op.lsn).collect::<Vec<_>>(), [l3]);
        assert_eq!(wal.segments.get(), 1);
        assert_eq!(segment_files(dir.path()).len(), 1, "the stranded segment is unlinked");
    }

    #[test]
    fn a_crash_inside_rotation_leaves_a_log_that_reopens_whole() {
        // ops of one rotation: fsync of the old segment, then the four steps
        // of the atomic publish (write, fsync, rename, directory fsync)
        for crash_at in 0..5u64 {
            let dir = TempDir::new();
            let (mut wal, _) = recover(&dir, None);
            let l1 = commit_one(&mut wal, 1);
            drop(wal);
            let inj = FaultInjector::crash_after(3, crash_at);
            let (mut wal, _) = recover(&dir, Some(inj.clone()));
            assert!(wal.rotate().is_err(), "crash_at={crash_at}");
            assert!(inj.crashed());
            drop(wal);
            let (mut wal, ops) = recover(&dir, None);
            assert_eq!(ops.iter().map(|op| op.lsn).collect::<Vec<_>>(), [l1], "crash_at={crash_at}");
            let l2 = commit_one(&mut wal, 2);
            drop(wal);
            let (_, ops) = recover(&dir, None);
            assert_eq!(ops.iter().map(|op| op.lsn).collect::<Vec<_>>(), [l1, l2]);
        }
    }
}
