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
//! `len` counts the bytes after the checksum, `crc` is their FNV-1a, and
//! `raw_len` is the record stream's length. The payload is one of three
//! shapes, whichever `raw_len` calls for and takes fewer bytes than the
//! stream itself, or else the stream as it is (`BLOCK_RAW`):
//!
//! * up to `SMALL_BLOCK` bytes of records, the stream coded whole
//!   (`BLOCK_CODED`; `crate::lz`: an LZ77 parse whose byte streams are each
//!   Huffman-coded) — a few records' streams coded apart would cost more in
//!   framing and lost matches than they save;
//! * past that, the stream *split* into streams of like bytes, each coded on
//!   its own (`BLOCK_SPLIT`), so that a message's random location bytes, its
//!   text and its ids each get their own window and Huffman tables:
//!   * *headers*: per put whose value reads as a row to its last byte, its
//!     tag, the varints of transaction, dataset and partition, and the
//!     varint of its key's length — or, where the key is
//!     [`asterix_adm::binary::encode_key`] of one of its row's cells,
//!     `CELL_KEYED` and that cell's declared position in their stead; per
//!     other record, `WHOLE`, then the record with its length;
//!   * *keys*: the keys of those puts that no cell gives;
//!   * *rows*: per such put, its row's declared count, presence bitmap and
//!     open part ([`asterix_adm::layout::split_row`]);
//!   * *cells `i`*, for each declared position `i` up to the largest
//!     declared count in the block: the cell of the `i`-th declared field of
//!     every such put that has it.
//!
//! Each stream of cells is held in the one form its cells call for — the
//! tag they share, learned as the block is split — a fact of the block,
//! like raw or coded:
//!   * all `int`s: their zigzag varints without their tags, or the zigzag
//!     varints of each one's (wrapping) difference from the one before,
//!     whichever a count of their bytes, taken before either is written,
//!     says is shorter;
//!   * all of one fixed-width type (`double`, `point`, …): the tag once, then
//!     byte 0 of every cell, byte 1 of every cell, and so on;
//!   * all `string`s, [`asterix_adm::fsst::SAMPLE_BYTES`] or more of them: an
//!     FSST table trained on the block's strings, each string's code count
//!     and the codes — kept only where that codes shorter than the cells as
//!     they are;
//!   * any other stream — a mix, an optional field's `null` among `int`s —
//!     as it is.
//!
//! A split payload is the count of streams, then per stream — a stream of
//! cells after the byte of its form — its varint length, the varint length
//! of its coding and that coding, or a 0 and the stream as it is, where
//! coding does not shrink it. A split put's length is not stored, nor is a
//! key its cell gives: decoding puts the record together again and takes
//! both from what it put together. Over the repository benchmark's blocks
//! (seed 1), `scan_agg`'s set-up group commits of 2 500 messages take 0.267
//! of their records and `htap_mix`'s timed ones of ≈ 25 take 0.465; E12's of
//! ≈ 5, coded whole, 0.587. No record carries a checksum of its own: the
//! block's covers them all. The time a sync spends coding, under the log's
//! lock, is `storage.wal.code_ns`; what each stream kind took of the file is
//! `storage.wal.{header,key,row,cell}_bytes`.
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
use crate::lock_order::{self, Mutex};
use crate::lz;
use asterix_adm::binary::{
    cell_key_into, encode_into, fixed_width, int_cell, put_string_cell, put_varint, put_zigzag, string_cell, unzigzag,
    Decoder,
};
use asterix_adm::fsst::{Encoder, SymbolTable, SAMPLE_BYTES};
use asterix_adm::layout::{join_row, split_row};
use asterix_adm::Value;
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

/// Tag bytes of a block: its payload is the record stream as it is, coded
/// whole, or split into streams that are coded each on its own.
const BLOCK_RAW: u8 = 0x20;
const BLOCK_CODED: u8 = 0x22;
const BLOCK_SPLIT: u8 = 0x26;
/// The block's header (see [`crate::le`]): its tag.
pub(crate) const FORMAT: Format =
    Format { kind: "log block", headers: &[&[BLOCK_RAW], &[BLOCK_CODED], &[BLOCK_SPLIT]] };

/// What leads a record kept whole in a split block's headers stream; a put
/// that is split leads with its tag, [`TAG_PUT`], or with `CELL_KEYED` when
/// one of its row's cells gives its key.
const WHOLE: u8 = 0;
const CELL_KEYED: u8 = 1;
/// A split block's first three streams; the cells of declared position `i`
/// are stream `CELLS + i`.
const HEADERS: usize = 0;
const KEYS: usize = 1;
const ROWS: usize = 2;
const CELLS: usize = 3;

/// The form of a split block's stream of cells, the byte before its
/// lengths: as it is; `int`s as their zigzag varints, or as those of their
/// differences; one fixed-width type's cells as their tag and then their
/// bytes plane by plane; `string`s as an FSST table, each one's code count
/// and the codes.
const AS_IS: u8 = 0;
const INTS: u8 = 1;
const DELTAS: u8 = 2;
const PLANES: u8 = 3;
const FSST: u8 = 4;

/// Record-stream bytes up to which a block is coded whole: below that, its
/// streams coded apart cost more in framing and in matches lost between them
/// than their own Huffman tables save. For generated messages the two meet
/// at about eight records, 750 bytes.
const SMALL_BLOCK: usize = 3 << 8;

/// Payload bytes of blocks by stream kind — headers, keys, rows, cells —
/// under these names. A raw or whole-coded block's are all headers: it keeps
/// every record whole.
type StreamBytes = [u64; 4];
const STREAM_METRICS: [&str; 4] =
    ["storage.wal.header_bytes", "storage.wal.key_bytes", "storage.wal.row_bytes", "storage.wal.cell_bytes"];

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
/// the record — with `record` writing the record in place; returns what
/// `record` does.
fn record_into<T>(out: &mut Vec<u8>, record: impl FnOnce(&mut Vec<u8>) -> T) -> T {
    let start = out.len();
    let written = record(out);
    let len = out.len() - start;
    put_varint(out, len as u64);
    // the length was written after the record: turn it to the front
    let varint = out.len() - start - len;
    out[start..].rotate_right(varint);
    written
}

/// Reads a put's transaction, dataset and partition, after its tag.
fn put_ids(c: &mut Cursor<'_>) -> Result<()> {
    c.varint::<u64>()?;
    c.varint::<u32>()?;
    c.varint::<u32>()?;
    Ok(())
}

/// A put's ids (the varints after its tag, before its key's length), key
/// and value, when `record` is one.
fn put_parts(record: &[u8]) -> Option<(&[u8], &[u8], &[u8])> {
    let mut c = Cursor::new(record);
    if c.u8().ok()? != TAG_PUT {
        return None;
    }
    put_ids(&mut c).ok()?;
    let ids = &record[1..c.pos()];
    let klen = c.varint().ok()?;
    let key = c.bytes(klen).ok()?;
    Some((ids, key, c.rest()))
}

/// Bytes of the zigzag varint of `v`.
fn zigzag_len(v: i64) -> usize {
    let z = ((v << 1) ^ (v >> 63)) as u64;
    (64 - z.leading_zeros()).max(1).div_ceil(7) as usize
}

/// The tag every cell of a stream shares, learned cell by cell as a block
/// is split: a cell's tag is its type, and a cell that split whole is a
/// whole value of it.
#[derive(Clone, Copy)]
enum Tag {
    /// No cell yet.
    None,
    One(u8),
    Mixed,
}

impl Tag {
    /// The tag once `cell` — empty for an absent field — is among them.
    fn with(self, cell: &[u8]) -> Tag {
        match (self, cell.first()) {
            (_, None) => self,
            (Tag::None, Some(&tag)) => Tag::One(tag),
            (Tag::One(t), Some(&tag)) if t == tag => self,
            _ => Tag::Mixed,
        }
    }
}

/// Each cell of a stream of cells, in order. The stream was made of whole
/// cells, so none is cut short.
fn each_cell(stream: &[u8]) -> impl Iterator<Item = &[u8]> {
    let mut d = Decoder::new(stream);
    std::iter::from_fn(move || {
        let start = d.position();
        d.skip_value().ok()?;
        Some(&stream[start..d.position()])
    })
}

/// Appends the stream of cells `stream`, whose cells all have the tag
/// `tag`, in the form that tag calls for and returns the form; [`AS_IS`],
/// with nothing appended, where none does. An FSST form is not yet known to
/// code shorter than the stream as it is.
fn form_of(tag: Tag, stream: &[u8], out: &mut Vec<u8>) -> u8 {
    let (Tag::One(tag), Some(first)) = (tag, each_cell(stream).next()) else { return AS_IS };
    if int_cell(first).is_some() {
        // the byte counts decide between values and differences
        let (mut values, mut deltas, mut last) = (0, 0, 0i64);
        for v in each_cell(stream).filter_map(int_cell) {
            (values, deltas, last) = (values + zigzag_len(v), deltas + zigzag_len(v.wrapping_sub(last)), v);
        }
        let form = if deltas < values { DELTAS } else { INTS };
        last = 0;
        for v in each_cell(stream).filter_map(int_cell) {
            put_zigzag(out, if form == DELTAS { v.wrapping_sub(last) } else { v });
            last = v;
        }
        return form;
    }
    if let Some(width) = fixed_width(tag) {
        let n = stream.len() / (1 + width);
        out.push(tag);
        let planes = out.len();
        out.resize(planes + n * width, 0);
        for (i, cell) in stream.chunks_exact(1 + width).enumerate() {
            for (j, byte) in cell[1..].iter().enumerate() {
                out[planes + j * n + i] = *byte;
            }
        }
        return PLANES;
    }
    if string_cell(first).is_none() || stream.len() < SAMPLE_BYTES {
        return AS_IS;
    }
    // a row's bytes were not read as text, so a string may be no UTF-8
    let strings: Option<Vec<&str>> =
        each_cell(stream).map(|cell| string_cell(cell).and_then(|s| std::str::from_utf8(s).ok())).collect();
    let Some(strings) = strings else { return AS_IS };
    let Some(table) = SymbolTable::train(&strings) else { return AS_IS };
    table.write(out);
    put_varint(out, strings.len() as u64);
    let (encoder, mut codes) = (Encoder::new(&table), Vec::with_capacity(stream.len()));
    for s in &strings {
        let start = codes.len();
        encoder.encode(s, &mut codes);
        put_varint(out, (codes.len() - start) as u64);
    }
    out.extend_from_slice(&codes);
    FSST
}

/// The stream of cells that `held`, of the form `form`, holds; `room` is
/// what the block's streams may still take, and shrinks by what this one
/// does. Every count and length is checked against the bytes that hold it
/// before anything is sized by it.
fn cells_of<'a>(form: u8, held: Cow<'a, [u8]>, room: &mut usize) -> Result<Cow<'a, [u8]>> {
    let corrupt = |why: String| StorageError::Corrupt(format!("log block: {why}"));
    let mut out = Vec::new();
    match form {
        AS_IS => {
            *room = room.checked_sub(held.len()).ok_or_else(|| corrupt("streams past the block's records".into()))?;
            return Ok(held);
        }
        INTS | DELTAS => {
            let (mut c, mut last) = (Cursor::new(&held), 0i64);
            while c.pos() < held.len() {
                let v = unzigzag(c.varint()?);
                last = if form == DELTAS { last.wrapping_add(v) } else { v };
                encode_into(&Value::Int(last), &mut out);
                if out.len() > *room {
                    return Err(corrupt("`int`s past the block's records".into()));
                }
            }
        }
        PLANES => {
            let [tag, planes @ ..] = &held[..] else { return Err(corrupt("planes of no type".into())) };
            let width = fixed_width(*tag).ok_or_else(|| corrupt(format!("planes of tag {tag}, no fixed width")))?;
            if planes.len() % width != 0 {
                return Err(corrupt(format!("{} bytes in {width} planes", planes.len())));
            }
            let n = planes.len() / width;
            if n * (1 + width) > *room {
                return Err(corrupt("planes past the block's records".into()));
            }
            out.reserve(n * (1 + width));
            for i in 0..n {
                out.push(*tag);
                out.extend((0..width).map(|j| planes[j * n + i]));
            }
        }
        FSST => {
            let (table, used) = SymbolTable::read(&held).map_err(|e| corrupt(format!("its FSST table: {e}")))?;
            let table = table.ok_or_else(|| corrupt("an FSST table of no symbols".into()))?;
            let mut c = Cursor::at(&held, used);
            let count: usize = c.varint()?;
            // a code count takes a byte at least
            if count > held.len() - c.pos() {
                return Err(corrupt(format!("{count} strings in {} bytes", held.len() - c.pos())));
            }
            let lengths = c.pos();
            let mut coded = 0usize;
            for _ in 0..count {
                coded = coded.saturating_add(c.varint()?);
            }
            let codes = c.rest();
            if coded != codes.len() {
                return Err(corrupt(format!("code counts of {coded} bytes for {} of codes", codes.len())));
            }
            let (mut c, mut at, mut s) = (Cursor::at(&held, lengths), 0, Vec::new());
            for _ in 0..count {
                let len: usize = c.varint()?;
                s.clear();
                table.decode_into(&codes[at..at + len], &mut s).map_err(|e| corrupt(format!("its strings: {e}")))?;
                at += len;
                put_string_cell(&mut out, &s);
                if out.len() > *room {
                    return Err(corrupt("`string`s past the block's records".into()));
                }
            }
        }
        _ => return Err(corrupt(format!("a stream of cells of form {form}"))),
    }
    *room -= out.len();
    Ok(Cow::Owned(out))
}

/// Codes blocks: the LZ coder and the streams a block is split into, kept
/// from one block to the next so that coding one allocates little beyond
/// its output.
#[derive(Default)]
struct BlockCoder {
    lz: lz::Coder,
    /// Headers, keys, rows, then the cells of each declared position.
    streams: Vec<Vec<u8>>,
    /// The tag the cells of each declared position share.
    tags: Vec<Tag>,
    /// The declared position the last put's key came from.
    key_at: usize,
    /// Scratch: a cell's key, a stream in its form, codings.
    key: Vec<u8>,
    form: Vec<u8>,
    coded: Vec<u8>,
    alt: Vec<u8>,
}

impl BlockCoder {
    /// Appends to `out` the block of the record stream `records` — coded
    /// whole up to [`SMALL_BLOCK`] bytes, split and each stream coded past
    /// that, or raw where coding does not shrink it — and returns its
    /// payload's bytes by stream kind.
    fn block_into(&mut self, out: &mut Vec<u8>, records: &[u8]) -> StreamBytes {
        let start = out.len();
        out.extend_from_slice(&[0; 8]);
        out.push(BLOCK_CODED);
        put_varint(out, records.len() as u64);
        let payload = out.len();
        let split = if records.len() > SMALL_BLOCK { self.split(records) } else { None };
        let mut kinds = match split {
            Some(used) => {
                out[start + 8] = BLOCK_SPLIT;
                self.code(used, out)
            }
            None => {
                self.lz.compress(records, out);
                [(out.len() - payload) as u64, 0, 0, 0]
            }
        };
        if out.len() - payload >= records.len() {
            out.truncate(payload);
            out[start + 8] = BLOCK_RAW;
            out.extend_from_slice(records);
            kinds = [records.len() as u64, 0, 0, 0];
        }
        let len = (out.len() - start - 8) as u32;
        let crc = fnv1a(&out[start + 8..]);
        out[start..start + 4].copy_from_slice(&len.to_le_bytes());
        out[start + 4..start + 8].copy_from_slice(&crc.to_le_bytes());
        kinds
    }

    /// Splits the record stream `records` into `self.streams`, learning
    /// the tag each stream of cells shares; returns how many streams it fills
    /// (`None` when `records` is not a record stream).
    fn split(&mut self, records: &[u8]) -> Option<usize> {
        self.streams.resize_with(self.streams.len().max(CELLS), Vec::new);
        for stream in &mut self.streams {
            stream.clear();
        }
        self.tags.clear();
        let (mut used, mut cells) = (CELLS, Vec::new());
        let mut c = Cursor::new(records);
        while c.pos() < records.len() {
            let at = c.pos();
            let len = c.varint().ok()?;
            let record = c.bytes(len).ok()?;
            let parts = put_parts(record).and_then(|(ids, key, row)| Some((ids, key, split_row(row, &mut cells).ok()?)));
            let Some((ids, key, (head, open))) = parts else {
                self.streams[HEADERS].push(WHOLE);
                self.streams[HEADERS].extend_from_slice(&records[at..c.pos()]);
                continue;
            };
            used = used.max(CELLS + cells.len());
            self.streams.resize_with(self.streams.len().max(used), Vec::new);
            self.tags.resize(used - CELLS, Tag::None);
            let keyed = self.key_cell(key, &cells);
            let headers = &mut self.streams[HEADERS];
            headers.push(if keyed.is_some() { CELL_KEYED } else { TAG_PUT });
            headers.extend_from_slice(ids);
            match keyed {
                Some(i) => put_varint(headers, i as u64),
                None => {
                    put_varint(headers, key.len() as u64);
                    self.streams[KEYS].extend_from_slice(key);
                }
            }
            self.streams[ROWS].extend_from_slice(head);
            self.streams[ROWS].extend_from_slice(open);
            for ((stream, tag), cell) in self.streams[CELLS..].iter_mut().zip(&mut self.tags).zip(&cells) {
                stream.extend_from_slice(cell);
                *tag = tag.with(cell);
            }
        }
        Some(used)
    }

    /// The declared position of a cell of `cells` whose value's key is
    /// `key`: the last put's first, as a dataset's puts share theirs.
    fn key_cell(&mut self, key: &[u8], cells: &[&[u8]]) -> Option<usize> {
        let found = std::iter::once(self.key_at).chain(0..cells.len()).find(|&i| {
            self.key.clear();
            cells.get(i).is_some_and(|cell| cell_key_into(cell, &mut self.key).is_ok() && self.key == key)
        })?;
        self.key_at = found;
        Some(found)
    }

    /// Appends the payload of the first `used` streams — their count, then
    /// per stream (a stream of cells after its form) its length, the length
    /// of its coding (an LZ77 parse) and the coding, or a 0 and the stream
    /// as it is where coding does not shrink it — and returns its bytes by
    /// stream kind.
    fn code(&mut self, used: usize, out: &mut Vec<u8>) -> StreamBytes {
        let BlockCoder { lz, streams, tags, form, coded, alt, .. } = self;
        put_varint(out, used as u64);
        let mut kinds = [0; 4];
        for (i, stream) in streams[..used].iter().enumerate() {
            form.clear();
            let mut shape = match i.checked_sub(CELLS) {
                Some(at) => form_of(tags[at], stream, form),
                None => AS_IS,
            };
            let mut held: &[u8] = if shape == AS_IS { stream } else { form };
            let mut size = code_into(lz, held, coded);
            if shape == FSST {
                // the table and the code counts must pay for themselves, and
                // no form outgrows its stream: a decoder bounds the streams
                // by the records they make
                let plain = code_into(lz, stream, alt);
                if plain <= size || form.len() > stream.len() {
                    (shape, held, size) = (AS_IS, stream, plain);
                    std::mem::swap(coded, alt);
                }
            }
            if i >= CELLS {
                out.push(shape);
            }
            put_varint(out, held.len() as u64);
            let bytes = if size < held.len() {
                put_varint(out, coded.len() as u64);
                &coded[..]
            } else {
                put_varint(out, 0);
                held
            };
            out.extend_from_slice(bytes);
            kinds[i.min(CELLS)] += bytes.len() as u64;
        }
        kinds
    }
}

/// Codes `bytes` into `coded` (cleared first), and returns what the stream
/// will take: the coding, or `bytes` as they are where that is no shorter.
fn code_into(lz: &mut lz::Coder, bytes: &[u8], coded: &mut Vec<u8>) -> usize {
    coded.clear();
    if !bytes.is_empty() {
        lz.compress(bytes, coded);
    }
    match coded.len() {
        0 => bytes.len(),
        n => n.min(bytes.len()),
    }
}

/// The record stream of a split block of `raw_len` bytes, from its payload:
/// each stream decoded and put back in its cells, then every record put
/// together again in the order the headers stream gives, a key its cell
/// gives derived from that cell. Every length is checked against `raw_len`
/// before anything is sized by it, and a stream with bytes that no record
/// takes is refused.
fn join_block(payload: &[u8], raw_len: usize) -> Result<Vec<u8>> {
    let corrupt = |why: String| StorageError::Corrupt(format!("log block: {why}"));
    let mut c = Cursor::new(payload);
    let count: usize = c.varint()?;
    // a stream takes two bytes at least
    if count < CELLS || count > payload.len() / 2 {
        return Err(corrupt(format!("{count} streams in {} bytes", payload.len())));
    }
    // a put's bytes are in its streams once, but for a key its cell gives,
    // and a record kept whole with one more, so the streams hold at most
    // twice the records, in their forms and put back in their cells
    let (mut streams, mut total, mut room) = (Vec::with_capacity(count), 0usize, raw_len.saturating_mul(2));
    for i in 0..count {
        let form = if i < CELLS { AS_IS } else { c.u8()? };
        let len: usize = c.varint()?;
        total = total.saturating_add(len);
        if total > raw_len.saturating_mul(2) {
            return Err(corrupt(format!("streams of over {total} bytes for {raw_len} of records")));
        }
        let held = match c.varint()? {
            0 => Cow::Borrowed(c.bytes(len)?),
            coded => Cow::Owned(
                lz::decompress(c.bytes(coded)?, len)
                    .ok_or_else(|| corrupt(format!("a stream that does not decode to {len} bytes")))?,
            ),
        };
        streams.push(cells_of(form, held, &mut room)?);
    }
    if c.pos() != payload.len() {
        return Err(corrupt(format!("{} bytes after its streams", payload.len() - c.pos())));
    }
    let [headers, keys, rows, cells @ ..] = streams.as_slice() else {
        return Err(corrupt("fewer than three streams".into()));
    };
    let (mut h, mut k, mut rows) = (Cursor::new(headers), Cursor::new(keys), Decoder::new(rows));
    let mut columns: Vec<Decoder> = cells.iter().map(|cells| Decoder::new(cells)).collect();
    // what the streams hold, not what `raw_len` says, sizes the records
    let mut out = Vec::with_capacity(raw_len.min(raw_len.saturating_mul(2) - room));
    let mut derived = Vec::new();
    while h.pos() < headers.len() {
        let start = h.pos();
        let tag = h.u8()?;
        if tag == WHOLE {
            let len: usize = h.varint()?;
            h.bytes(len)?;
            out.extend_from_slice(&headers[start + 1..h.pos()]);
        } else if tag == TAG_PUT || tag == CELL_KEYED {
            put_ids(&mut h)?;
            let ids = &headers[start + 1..h.pos()];
            // the cell that gives the key, and where its stream stands
            let mut from = None;
            let key = if tag == TAG_PUT {
                let klen = h.varint()?;
                k.bytes(klen)?
            } else {
                let at: usize = h.varint()?;
                let (Some(column), Some(stream)) = (columns.get(at), cells.get(at)) else {
                    return Err(corrupt(format!("a key from the cells of declared field {at}, which the block has not")));
                };
                let mut cell = Decoder::new(&stream[column.position()..]);
                cell.skip_value().map_err(|e| corrupt(format!("a key's cell: {e}")))?;
                derived.clear();
                cell_key_into(&stream[column.position()..][..cell.position()], &mut derived)
                    .map_err(|e| corrupt(format!("a key's cell: {e}")))?;
                from = Some((at, column.position() + cell.position()));
                &derived[..]
            };
            record_into(&mut out, |record| {
                record.push(TAG_PUT);
                record.extend_from_slice(ids);
                put_varint(record, key.len() as u64);
                record.extend_from_slice(key);
                join_row(&mut rows, &mut columns, record)
            })
            .map_err(|e| corrupt(format!("a put's row does not join: {e}")))?;
            // the row took the cell its key came from
            if from.is_some_and(|(at, end)| columns[at].position() != end) {
                return Err(corrupt("a key from a cell its row has not".into()));
            }
        } else {
            return Err(corrupt(format!("a record led by {tag} in its headers")));
        }
        if out.len() > raw_len {
            return Err(corrupt(format!("records of over {raw_len} bytes")));
        }
    }
    if k.pos() != keys.len() || !rows.is_done() || !columns.iter().all(Decoder::is_done) {
        return Err(corrupt("a stream with bytes no record takes".into()));
    }
    if out.len() != raw_len {
        return Err(corrupt(format!("{} bytes of records, not {raw_len}", out.len())));
    }
    Ok(out)
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
    coder: BlockCoder,
    /// Payload bytes by stream kind of the blocks in `blocks`, and of every
    /// block written whole.
    unwritten: StreamBytes,
    written: StreamBytes,
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
    fn open_at(
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
            coder: BlockCoder::default(),
            unwritten: [0; 4],
            written: [0; 4],
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
    pub fn sync(&mut self) -> Result<()> {
        if !self.buf.is_empty() {
            if self.coded < self.buf.len() {
                let start = Instant::now();
                let kinds = self.coder.block_into(&mut self.blocks, &self.buf[self.coded..]);
                self.code_ns += start.elapsed().as_nanos() as u64;
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
            for (written, unwritten) in self.written.iter_mut().zip(std::mem::take(&mut self.unwritten)) {
                *written += unwritten;
            }
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
        [BLOCK_SPLIT] => return join_block(payload, raw_len).map(Cow::Owned),
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

fn read_file_or_empty(path: &Path) -> Result<Vec<u8>> {
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
    /// `storage.wal.{header,key,row,cell}_bytes`: what each stream kind took
    /// of `appended_bytes`; the blocks' framing is the rest.
    stream_bytes: [Counter; 4],
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
    /// the time its syncs spend coding as `storage.wal.code_ns`, and the
    /// bytes of each kind of stream as `storage.wal.{header,key,row,cell}_bytes`.
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
            stream_bytes: STREAM_METRICS.map(|name| registry.counter(name)),
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
        let (persisted, stream, code_ns, written) = (active.persisted, active.stream, active.code_ns, active.written);
        let synced = active.sync();
        self.appended_bytes.add(active.persisted - persisted);
        self.record_bytes.add(active.stream - stream);
        self.code_ns.add(active.code_ns - code_ns);
        for ((counter, now), then) in self.stream_bytes.iter().zip(active.written).zip(written) {
            counter.add(now - then);
        }
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
        self.active.coder.block_into(&mut first, &record);
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
    pub fn sync_through(&self, wal: &Mutex<SegmentedWal>, end: Lsn) -> Result<()> {
        lock_order::check(lock_order::Wait::GroupCommit);
        if self.durable.load(Ordering::Acquire) >= end {
            // an earlier leader's fsync already covered our bytes
            self.waiters.inc();
            return Ok(());
        }
        let mut w = wal.lock();
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
    use asterix_adm::Point;
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
        asterix_adm::RecordLayout::new(types.get("GleambookMessageType").unwrap()).encode(&message).unwrap()
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
        let MessageLog { image, ends, records } = message_log(3, &[3, 0, 30]);
        let tags: Vec<u8> = blocks_of(&image).iter().map(|&(tag, ..)| tag).collect();
        assert_eq!(tags, [BLOCK_CODED, BLOCK_RAW, BLOCK_SPLIT], "a block of each shape");
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

    /// The log of one checksummed block: `tag`, `raw_len`, `payload`.
    fn one_block(tag: u8, raw_len: u64, payload: &[u8]) -> Vec<u8> {
        let mut body = vec![tag];
        put_varint(&mut body, raw_len);
        body.extend_from_slice(payload);
        let mut log = (body.len() as u32).to_le_bytes().to_vec();
        log.extend_from_slice(&fnv1a(&body).to_le_bytes());
        log.extend_from_slice(&body);
        log
    }

    #[test]
    fn a_stream_length_the_block_cannot_hold_is_refused_without_allocating() {
        let refused = |log: Vec<u8>| matches!(scan_log(&log, 0), Err(StorageError::Corrupt(_)));
        // a block of "abc" coded whole that says it decodes to 2^40 or to
        // u64::MAX: refused before a buffer of that size is asked for
        let mut abc = Vec::new();
        lz::Coder::default().compress(b"abc", &mut abc);
        for raw_len in [1u64 << 40, u64::MAX] {
            assert!(refused(one_block(BLOCK_CODED, raw_len, &abc)), "raw_len {raw_len}");
        }
        // a split block of one commit: three streams as they are, headers
        // of eleven bytes, keys and rows empty
        let commit = [WHOLE, 9, 2, 1, 0, 0, 0, 0, 0, 0, 0];
        let payload = [&[3, 11, 0][..], &commit, &[0, 0, 0, 0]].concat();
        let records = scan_log(&one_block(BLOCK_SPLIT, 10, &payload), 0).unwrap().records;
        assert_eq!(records, [(0, WalRecord::Commit { txn_id: 1 })]);
        // the same streams said to make 2^40 or u64::MAX bytes of records
        for raw_len in [1u64 << 40, u64::MAX] {
            assert!(refused(one_block(BLOCK_SPLIT, raw_len, &payload)), "raw_len {raw_len}");
        }
        // a headers stream that says it is 2^40 bytes, as it is or coded
        // from "abc", in a block of 10 bytes of records or of 2^40
        for (raw_len, coded) in [(10, false), (10, true), (1 << 40, true)] {
            let mut payload = vec![3];
            put_varint(&mut payload, 1 << 40);
            if coded {
                put_varint(&mut payload, abc.len() as u64);
                payload.extend_from_slice(&abc);
            } else {
                payload.push(0);
            }
            payload.extend_from_slice(&[0, 0, 0, 0]);
            assert!(refused(one_block(BLOCK_SPLIT, raw_len, &payload)), "{raw_len} coded {coded}");
        }
        // 2^40 streams, or two
        let mut count = Vec::new();
        put_varint(&mut count, 1 << 40);
        for head in [&count[..], &[2]] {
            assert!(refused(one_block(BLOCK_SPLIT, 10, &[head, &payload[1..]].concat())), "{head:?}");
        }
        // a raw block whose stream length is not its payload's
        assert!(refused(one_block(BLOCK_RAW, 9, &[0])));
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(24))]

        /// Generated messages logged in group commits of any size read back
        /// as appended; a block of twenty or more is split and coded to
        /// under 0.48 of its records, one of sixty or more to under 0.39
        /// (0.472 and 0.384 at worst in 256 cases).
        #[test]
        fn real_log_blocks_round_trip(
            seed in proptest::prelude::any::<u64>(),
            groups in proptest::collection::vec(0usize..120, 1..5),
        ) {
            let log = message_log(seed, &groups);
            for (&puts, (tag, raw_len, file_len)) in groups.iter().zip(blocks_of(&log.image)) {
                if puts >= 20 {
                    proptest::prop_assert_eq!(tag, BLOCK_SPLIT);
                    proptest::prop_assert!(100 * file_len < 48 * raw_len, "{} puts: {} of {} bytes", puts, file_len, raw_len);
                }
                if puts >= 60 {
                    proptest::prop_assert!(100 * file_len < 39 * raw_len, "{} puts: {} of {} bytes", puts, file_len, raw_len);
                }
            }
        }
    }

    /// A row of a type of two declared fields — an `int` and an optional
    /// list — and now and then an open one.
    fn pair_row(rng: &mut impl Rng, id: i64) -> Vec<u8> {
        use asterix_adm::types::{Field, ObjectType, TypeExpr};
        let ty = ObjectType::open(
            "Pair",
            vec![
                Field::required("id", TypeExpr::named("int")),
                Field::optional("tags", TypeExpr::Array(Box::new(TypeExpr::named("string")))),
            ],
        );
        let mut fields = vec![("id".to_string(), Value::Int(id))];
        if rng.gen_bool(0.5) {
            fields.push(("tags".into(), Value::Array((0..rng.gen_range(0..3)).map(|t| Value::from(format!("t{t}"))).collect())));
        }
        if rng.gen_bool(0.3) {
            fields.push(("note".into(), Value::from("open")));
        }
        asterix_adm::RecordLayout::new(&ty).encode(&Value::object(fields)).unwrap()
    }

    /// A double at an edge of its bits, or any one.
    fn edge_double(rng: &mut impl Rng) -> f64 {
        const BITS: [u64; 7] = [
            0x7FF8_0000_0000_0000,     // the quiet NaN
            0xFFF0_0000_0000_0ABC,     // a signalling NaN with a payload and its sign
            0x8000_0000_0000_0000,     // -0.0
            0x0000_0000_0000_0001,     // the least subnormal
            0x800F_FFFF_FFFF_FFFF,     // the greatest negative subnormal
            0x7FF0_0000_0000_0000,     // +inf
            0x0000_0000_0000_0000,     // 0.0
        ];
        match rng.gen_range(0..BITS.len() + 2) {
            i if i < BITS.len() => f64::from_bits(BITS[i]),
            _ => rng.gen_range(-1e6..1e6),
        }
    }

    /// A string of words, some of several bytes a character, and now and
    /// then a character from anywhere that a table trained on the rest
    /// would escape.
    fn edge_string(rng: &mut impl Rng) -> String {
        const WORDS: [&str; 10] = ["día", "naïve", "日本語", "😀", "Ω", "tab\t", "nul\0", "network", "signal", "the"];
        let mut s = String::new();
        for _ in 0..rng.gen_range(0..90) {
            match char::from_u32(rng.gen_range(0x80..0x3_0000)).filter(|_| rng.gen_bool(0.05)) {
                Some(rare) => s.push(rare),
                None => s.push_str(WORDS[rng.gen_range(0..WORDS.len())]),
            }
            s.push(' ');
        }
        s
    }

    /// A row of a type whose every form meets its edges, and the `int` its
    /// key is made from. Declared positions 0, 3 and 4 are a message's
    /// `int`, `point` and `string`; the rest are its own: a `double` where a
    /// message's other `int` is, an optional `int` now and then `null` (its
    /// stream then keeps no form), `int`s that are mostly `i64::MIN` and
    /// `i64::MAX` in turn (their differences wrap), and `double`s of NaN,
    /// -0.0, subnormal and infinite bits, as are the points'.
    fn edge_row(rng: &mut impl Rng, id: i64) -> (i64, Vec<u8>) {
        use asterix_adm::types::{Field, ObjectType, TypeExpr};
        let named = |name: &str, ty: &str| Field::required(name, TypeExpr::named(ty));
        let ty = ObjectType::closed(
            "Edges",
            vec![
                named("m", "int"),
                named("d", "double"),
                Field::optional("maybe", TypeExpr::named("int")),
                named("p", "point"),
                named("s", "string"),
                named("n", "int"),
                named("e", "double"),
            ],
        );
        let n = match rng.gen_range(0..5) {
            0 => rng.gen_range(-3..3),
            _ if id % 2 == 0 => i64::MIN,
            _ => i64::MAX,
        };
        let maybe = match rng.gen_range(0..20) {
            0 => Value::Null,
            i => Value::Int(i),
        };
        let row = Value::object(vec![
            ("m".into(), Value::Int(rng.gen_range(0..1_000))),
            ("d".into(), Value::Double(edge_double(rng))),
            ("maybe".into(), maybe),
            ("p".into(), Value::Point(Point::new(edge_double(rng), edge_double(rng)))),
            ("s".into(), Value::from(edge_string(rng))),
            ("n".into(), Value::Int(n)),
            ("e".into(), Value::Double(edge_double(rng))),
        ]);
        (n, asterix_adm::RecordLayout::new(&ty).encode(&row).unwrap())
    }

    /// A record of any kind: a put whose value is a row of one of three
    /// layouts (five declared fields; two and open ones; seven at the edges
    /// of their forms), bytes that may or may not read as a row, or
    /// nothing; a delete; a commit, an abort, a checkpoint or a feed
    /// cursor. A row's key is most times its first field's, and an edge
    /// row's is also a composite key or one that is no cell's.
    fn any_record(rng: &mut impl Rng, id: i64) -> WalRecord {
        let (txn_id, partition) = (rng.gen_range(1..300), id as u32 % 3);
        let key = asterix_adm::binary::encode_key(&[Value::Int(id)]);
        let write = |dataset, is_delete, key, value| WalRecord::Write { txn_id, dataset, partition, is_delete, key, value };
        match rng.gen_range(0..16) {
            0..=3 => write(3, false, key, message_row(rng, id)),
            4 | 5 => write(5, false, key, pair_row(rng, id)),
            6 => write(5, false, key, (0..rng.gen_range(1..12)).map(|_| rng.gen_range(0..4)).collect()),
            7 => write(3, false, key, Vec::new()),
            8 => write(3, true, key, Vec::new()),
            9 => WalRecord::Commit { txn_id },
            10 => WalRecord::Abort { txn_id },
            11 if rng.gen_bool(0.5) => WalRecord::Checkpoint { max_txn: txn_id, feed_cursors: vec![("f".into(), 7)] },
            11 => WalRecord::FeedCursor { txn_id, feed: "feed".into(), seq: id as u64 },
            _ => {
                let (n, row) = edge_row(rng, id);
                let key = match rng.gen_range(0..3) {
                    0 => asterix_adm::binary::encode_key(&[Value::Int(n), Value::Int(id)]),
                    1 => asterix_adm::binary::encode_key(&[Value::Int(n.wrapping_add(1) ^ 0x55)]),
                    _ => asterix_adm::binary::encode_key(&[Value::Int(n)]),
                };
                write(7, false, key, row)
            }
        }
    }

    /// The payload bytes of a log image that frame its streams: each
    /// block's length, checksum, tag and stream length, and a split block's
    /// stream count and each stream's form and lengths — what the counters
    /// of stream bytes leave of `appended_bytes`.
    fn framing_of(image: &[u8]) -> u64 {
        let mut file = Cursor::new(image);
        let mut framing = 0;
        while let Ok((_, body)) = next_block(&mut file) {
            let mut c = Cursor::new(body);
            let tag = c.header(&FORMAT).unwrap();
            c.varint::<u64>().unwrap();
            // a raw or whole-coded block's payload counts as headers
            let mut streams = body.len() - c.pos();
            if tag == [BLOCK_SPLIT] {
                streams = 0;
                for i in 0..c.varint::<usize>().unwrap() {
                    if i >= CELLS {
                        c.u8().unwrap();
                    }
                    let len: usize = c.varint().unwrap();
                    let len = match c.varint().unwrap() {
                        0 => len,
                        coded => coded,
                    };
                    streams += c.bytes(len).unwrap().len();
                }
            }
            framing += 8 + body.len() - streams;
        }
        framing as u64
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(48))]

        /// Any record stream a writer buffers comes back from its block
        /// byte for byte, and its records as appended: rows of three layouts
        /// side by side, values that are no row, empty values, deletes and
        /// every other kind of record; keys a cell gives, composite keys and
        /// keys no cell gives; and streams of cells in every form at its
        /// edges — `int` differences that wrap, NaN, -0.0 and subnormal
        /// bits in planes, multi-byte and escaped characters through a
        /// table (a stream of 8 KiB of strings in about a third of the
        /// cases), and a `null` among `int`s that leaves its stream as it is.
        #[test]
        fn any_record_stream_round_trips_byte_for_byte(
            seed in proptest::prelude::any::<u64>(),
            n in 1usize..240,
        ) {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let dir = TempDir::new();
            let path = dir.path().join("wal.log");
            let mut w = WalWriter::open(&path).unwrap();
            let mut appended = Vec::new();
            for id in 0..n as i64 {
                let record = any_record(&mut rng, id);
                appended.push((w.append(&record).unwrap(), record));
            }
            let records = w.buf.clone();
            let mut block = Vec::new();
            BlockCoder::default().block_into(&mut block, &records);
            if records.len() > SMALL_BLOCK {
                proptest::prop_assert_eq!(block[8], BLOCK_SPLIT);
            }
            proptest::prop_assert_eq!(decode_block(&block[8..]).unwrap().as_ref(), records.as_slice());
            w.sync().unwrap();
            proptest::prop_assert_eq!(read_log(&path).unwrap(), appended);
        }

        /// Any payload under the split tag, with a good checksum, decodes or
        /// is `Corrupt`, never a panic: bytes made up, and the payload of a
        /// real block with bytes changed. A stream of cells whose FSST table
        /// is damaged, whose code counts disagree with its codes or whose
        /// planes do not divide it is `Corrupt` for that reason, before
        /// anything is sized by it.
        #[test]
        fn any_payload_under_the_split_tag_decodes_or_is_refused(
            payload in proptest::collection::vec(0u8..8, 0..64),
            raw_len in 0u64..400,
            seed in proptest::prelude::any::<u64>(),
            at in proptest::prelude::any::<usize>(),
            flip in 1u8..=255,
        ) {
            let decoded = |log: &[u8]| match scan_log(log, 0) {
                Ok(_) | Err(StorageError::Corrupt(_)) => Ok(()),
                Err(e) => Err(e),
            };
            proptest::prop_assert!(decoded(&one_block(BLOCK_SPLIT, raw_len, &payload)).is_ok());
            let refused = |form: u8, cells: &[u8], why: &str| {
                let log = one_block(BLOCK_SPLIT, 1 << 40, &one_put_payload(form, cells));
                matches!(scan_log(&log, 0), Err(StorageError::Corrupt(e)) if e.contains(why))
            };
            // a table with a symbol of no bytes or of more than eight
            let mut table = Vec::new();
            SymbolTable::train(&["día de la señal", "the network signal"]).unwrap().write(&mut table);
            let mut damaged = table.clone();
            damaged[1 + at % usize::from(table[0])] = if flip <= 8 { 0 } else { flip };
            proptest::prop_assert!(refused(FSST, &[&damaged[..], &[1, 0]].concat(), "FSST table"));
            // code counts of more or fewer bytes than the codes, and more
            // counts than there are bytes
            let mut form = table.clone();
            put_varint(&mut form, payload.len() as u64);
            form.extend_from_slice(&payload);
            let coded = payload.iter().map(|&n| usize::from(n)).sum::<usize>();
            let fewer = flip % 2 == 0 && coded > 0;
            form.resize(form.len() + if fewer { coded - 1 } else { coded + 1 }, 0);
            proptest::prop_assert!(refused(FSST, &form, "code counts"));
            let mut bomb = table.clone();
            put_varint(&mut bomb, 1 << 40);
            bomb.extend_from_slice(&payload);
            proptest::prop_assert!(refused(FSST, &bomb, "strings in"));
            // planes of a point, a byte short of or past whole cells
            let cells = 1 + at % 4;
            let planes = vec![0x7F; 16 * cells + if flip % 2 == 0 { 1 } else { 15 }];
            let point = asterix_adm::binary::encode(&Value::Point(Point::new(1.0, 2.0)))[0];
            proptest::prop_assert!(refused(PLANES, &[&[point][..], &planes].concat(), "planes"));
            proptest::prop_assert!(refused(PLANES, &[&[3][..], &planes].concat(), "planes of tag 3"));
            // a key from the cell of a field the put's row has not: the row
            // declares two fields and has the second only
            let keyed = [&[5, 5, 0, CELL_KEYED, 1, 3, 0, 0, 0, 0, 3, 0, 2, 0b10, 0][..], &[AS_IS, 2, 0, 3, 14, AS_IS, 2, 0, 3, 16]].concat();
            let log = one_block(BLOCK_SPLIT, 1 << 40, &keyed);
            proptest::prop_assert!(matches!(scan_log(&log, 0), Err(StorageError::Corrupt(e)) if e.contains("a cell its row has not")));
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            // enough records to make a split block most times
            let mut records = Vec::new();
            for id in 0..80 {
                record_into(&mut records, |buf| any_record(&mut rng, id).encode_into(buf));
            }
            let mut block = Vec::new();
            BlockCoder::default().block_into(&mut block, &records);
            let mut body = block[8..].to_vec();
            let at = at % body.len();
            body[at] ^= flip;
            let mut c = Cursor::new(&body);
            c.u8().unwrap();
            if let Ok(raw_len) = c.varint::<u64>() {
                proptest::prop_assert!(decoded(&one_block(body[0], raw_len, c.rest())).is_ok());
            }
        }
    }

    /// The payload of a split block of one put of key `k` whose row's one
    /// declared cell is the stream `cells`, held in the form `form`.
    fn one_put_payload(form: u8, cells: &[u8]) -> Vec<u8> {
        let mut payload = vec![4, 5, 0, TAG_PUT, 1, 3, 0, 1, 1, 0, b'k', 3, 0, 1, 1, 0, form];
        put_varint(&mut payload, cells.len() as u64);
        payload.push(0);
        payload.extend_from_slice(cells);
        payload
    }

    #[test]
    fn the_stream_counters_and_the_framing_add_up_to_the_appended_bytes() {
        let dir = TempDir::new();
        let (mut wal, _) = recover(&dir, None);
        let mut rng = rand::rngs::StdRng::seed_from_u64(8);
        for (txn, puts) in [(1, 2_500), (2, 25), (3, 1), (4, 0)] {
            for id in 0..puts {
                wal.append_write(txn, 3, 0, &asterix_adm::binary::encode_key(&[Value::Int(id)]), Some(&message_row(&mut rng, id)))
                    .unwrap();
            }
            wal.append(&WalRecord::Commit { txn_id: txn }).unwrap();
            wal.sync().unwrap();
        }
        let image = std::fs::read(segment_path(dir.path(), "node", 0)).unwrap();
        let [headers, keys, rows, cells] = wal.stream_bytes.each_ref().map(Counter::get);
        assert_eq!(wal.appended_bytes.get(), image.len() as u64);
        assert_eq!(headers + keys + rows + cells + framing_of(&image), wal.appended_bytes.get());
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

    #[test]
    fn group_commit_leader_fsync_covers_later_appends() {
        let dir = TempDir::new();
        let wal = Mutex::ranked(crate::lock_order::Level::Wal, recover(&dir, None).0);
        let path = segment_path(dir.path(), "node", 0);
        let gc = GroupCommit::new(&MetricsRegistry::new());
        // two committers append before either syncs
        let (end1, end2) = {
            let mut w = wal.lock();
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
