//! Leaf groups: the columnar leaf shape of a B+ tree component.
//!
//! A component of an index that has a [`RecordLayout`] — a dataset's primary
//! index — stores its entries not a page at a time but a *group* at a time:
//! up to [`GROUP_RECORDS`] consecutive entries whose cells
//! (`asterix_adm::layout`) are kept column by column. A group is a run of
//! bytes in the file's leaf area (groups follow one another with no padding;
//! the tree's fence index points at a group's first byte):
//!
//! ```text
//! [directory][keys][tombstones][presence * cells][data * cells]
//! directory = [checksum u64][n u32][0 u32] then per chunk [len u32][encoding u8][0 u8][width u16][base i64]
//! ```
//!
//! Every group of a tree has the same chunks in the same order, so the
//! directory's size is known before it is read, and a chunk is found by
//! summing the lengths before it. The chunks:
//!
//! * **keys** — `[prefix_len u16][prefix]`, then each key's bytes past the
//!   shared prefix: side by side when they are all of one length
//!   (`Encoding::Fixed`, that length as `width`), else behind an offset
//!   array (`Encoding::Var`).
//! * **tombstones** — a bitmap of the delete markers; no bytes when the
//!   group has none.
//! * **presence**, one per cell (the layout's columns, then the rest) — a
//!   bitmap of the entries that have the cell; no bytes when all do, or when
//!   none does (its data chunk has none either). A data chunk holds the cells
//!   of those entries only, so entry `i`'s is found by its rank among them.
//! * **data**, one per cell, in ascending [`ColumnKind::width`] — what a
//!   query reads most often of a record are its narrow fields, and this keeps
//!   them next to the keys. By the column's kind: an integer — an `int`'s
//!   varint, a `datetime`'s eight bytes — as its offset from the group's
//!   smallest, in the 0, 1, 2, 4 or 8 bytes the largest offset needs
//!   (`Encoding::For`, `base` the smallest); a fixed-width
//!   value as its bytes past the tag (`Encoding::Fixed`); a string as its
//!   codes under the component's symbol table for the column
//!   (`asterix_adm::fsst`) behind an offset array (`Encoding::Coded`, 2- or
//!   4-byte offsets by the chunk's size), or — where the component has no
//!   table for it, or the table does not make the group's strings shorter —
//!   as its bytes past tag and length (`Encoding::Var`), which is also how a
//!   binary is stored;
//!   anything else — a nested or `any`-typed field, the rest, and any column
//!   in a group where some value is not of the declared form (an optional
//!   field's `null`) — as whole cells behind an offset array
//!   (`Encoding::Tagged`). No bytes (`Encoding::Empty`): no entry has the
//!   cell.
//!
//! The tables are trained on the component's first group and kept with the
//! component's column directory ([`GroupShape::write_tables`]), once. What a
//! cell looks like is `asterix_adm`'s: a string's or a binary's bytes are
//! read and written back with `binary::var_cell` / `put_var_cell`, a string
//! column is trained on, coded and decoded cell by cell with
//! `fsst::SymbolTable::train_cells`, `Encoder::encode_cells` and
//! `SymbolTable::decode_cell` — the helpers the log's blocks use too.
//! Whatever the encoding, cell `i` of a chunk is addressable without reading
//! the cells before it, and reading it gives back the bytes that went in.
//! Everything here is read off disk: a directory that fails its checksum, any
//! offset that leaves its chunk and codes that do not decode are
//! [`StorageError::Corrupt`].

use crate::error::{Result, StorageError};
use crate::le;
use asterix_adm::binary::{put_var_cell, string_cell, var_cell};
use asterix_adm::fsst::{Encoder, SymbolTable};
use asterix_adm::layout::{Cells, ColumnKind, RecordLayout};
use asterix_adm::Column;
use std::sync::Arc;

/// Entries per leaf group. Sized for the merge, which holds one group of
/// each of its inputs (up to eight) and one of its output in memory: about
/// 100 KiB apiece for 100-byte records.
pub const GROUP_RECORDS: usize = 1024;

/// A group is also closed once it holds this many bytes of keys and cells,
/// however few entries that is: what bounds a merge's memory for long
/// records.
const GROUP_BYTES: usize = 256 << 10;

const DIR_HEADER: usize = 16;
const DIR_ENTRY: usize = 16;

const KEYS: usize = 0;
const TOMBSTONES: usize = 1;
const FIRST_PRESENCE: usize = 2;

/// The checksum of a directory: of its bytes past the checksum itself, eight
/// at a time (their number is a multiple of eight). Each step is one-to-one
/// in the state and in the word, so no change to a single word goes unseen.
fn checksum(bytes: &[u8]) -> u64 {
    bytes.chunks_exact(8).fold(0xcbf2_9ce4_8422_2325, |sum: u64, word| {
        (sum.rotate_left(5) ^ le::u64_at(word, 0)).wrapping_mul(0x517c_c1b7_2722_0a95)
    })
}

/// How a chunk's bytes are to be read.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[repr(u8)]
pub(crate) enum Encoding {
    /// No bytes: no tombstone, every cell present, or no cell at all.
    Empty = 0,
    /// One bit per entry.
    Bits = 1,
    /// `width`-byte unsigned offsets from `base`.
    For = 2,
    /// `width` bytes per value.
    Fixed = 3,
    /// `width`-byte offsets, then the values' bytes past tag and length.
    Var = 4,
    /// `width`-byte offsets, then whole cells.
    Tagged = 5,
    /// `width`-byte offsets, then each string's codes.
    Coded = 6,
}

impl Encoding {
    fn from_byte(b: u8) -> Option<Encoding> {
        use Encoding::*;
        [Empty, Bits, For, Fixed, Var, Tagged, Coded].into_iter().find(|e| *e as u8 == b)
    }
}

/// One chunk as the directory describes it.
#[derive(Debug, Clone, Copy)]
pub(crate) struct ChunkMeta {
    /// Where the chunk starts, from the group's first byte.
    pub at: u64,
    pub len: usize,
    pub encoding: Encoding,
    pub width: usize,
    pub base: i64,
}

/// What every group of a tree shares: the layout, from it which chunk holds
/// which cell, and the symbol table each string column is coded with.
#[derive(Debug, Clone)]
pub(crate) struct GroupShape {
    pub layout: Arc<RecordLayout>,
    /// The data chunk of each cell.
    data_chunk: Vec<usize>,
    /// Per cell, the table its `Coded` chunks decode with: a string
    /// column's, when the component's first group had strings to train it on.
    tables: Vec<Option<Arc<SymbolTable>>>,
}

impl GroupShape {
    /// The shape of the groups of a tree of `layout`, before its tables are
    /// trained.
    pub fn new(layout: Arc<RecordLayout>) -> GroupShape {
        let cells = layout.cell_count();
        let width = |cell: usize| layout.columns().get(cell).map_or(usize::MAX, |c| c.kind.width());
        let mut order: Vec<usize> = (0..cells).collect();
        order.sort_by_key(|&cell| (width(cell), cell));
        let mut data_chunk = vec![0; cells];
        for (k, &cell) in order.iter().enumerate() {
            data_chunk[cell] = FIRST_PRESENCE + cells + k;
        }
        GroupShape { layout, data_chunk, tables: vec![None; cells] }
    }

    /// The string columns' cells, in order: the columns that are coded.
    fn text_cells(&self) -> Vec<usize> {
        (0..self.cells()).filter(|&cell| self.kind(cell) == ColumnKind::STRING).collect()
    }

    /// Appends the symbol tables as a component keeps them beside its column
    /// directory: per string column, in order, its table, or no symbols.
    pub fn write_tables(&self, out: &mut Vec<u8>) {
        for cell in self.text_cells() {
            match &self.tables[cell] {
                Some(table) => table.write(out),
                None => out.push(0),
            }
        }
    }

    /// The shape of a tree of `layout` whose tables [`GroupShape::write_tables`]
    /// wrote, every byte of `bytes`.
    pub fn with_tables(layout: Arc<RecordLayout>, bytes: &[u8]) -> Result<GroupShape> {
        let corrupt = |what: String| StorageError::Corrupt(format!("the component's symbol tables: {what}"));
        let mut shape = GroupShape::new(layout);
        let mut at = 0;
        for cell in shape.text_cells() {
            let (table, len) = SymbolTable::read(&bytes[at..]).map_err(|e| corrupt(e.to_string()))?;
            shape.tables[cell] = table.map(Arc::new);
            at += len;
        }
        if at != bytes.len() {
            return Err(corrupt(format!("{} bytes past the last", bytes.len() - at)));
        }
        Ok(shape)
    }

    fn cells(&self) -> usize {
        self.data_chunk.len()
    }

    pub fn chunk_count(&self) -> usize {
        FIRST_PRESENCE + 2 * self.cells()
    }

    /// Bytes of a group's directory.
    pub fn dir_len(&self) -> usize {
        DIR_HEADER + DIR_ENTRY * self.chunk_count()
    }

    fn kind(&self, cell: usize) -> ColumnKind {
        self.layout.columns().get(cell).map_or(ColumnKind::Tagged, |c| c.kind)
    }
}

// ---------------------------------------------------------------------------
// Writing
// ---------------------------------------------------------------------------

/// How a chunk was written: its encoding, width and base.
type Written = (Encoding, usize, i64);

/// Items end to end, and where each ends.
#[derive(Default)]
struct Items {
    bytes: Vec<u8>,
    ends: Vec<usize>,
}

impl Items {
    fn push(&mut self, item: &[u8]) {
        self.bytes.extend_from_slice(item);
        self.ends.push(self.bytes.len());
    }

    fn clear(&mut self) {
        self.bytes.clear();
        self.ends.clear();
    }

    fn iter(&self) -> impl Iterator<Item = &[u8]> + Clone {
        let starts = std::iter::once(0).chain(self.ends.iter().copied());
        starts.zip(&self.ends).map(|(start, end)| &self.bytes[start..*end])
    }
}

/// The cells one column's entries have.
#[derive(Default)]
struct CellColumn {
    /// The cells of the entries that have one.
    cells: Items,
    /// Per entry, whether it has the cell.
    present: Vec<bool>,
}

/// Collects the entries of one group and writes them out.
pub(crate) struct GroupBuilder {
    shape: Arc<GroupShape>,
    keys: Items,
    tombstones: Vec<bool>,
    columns: Vec<CellColumn>,
    bytes: usize,
    /// The cells of the row being added.
    shredded: Cells,
    /// Per cell, what codes its strings; trained when the first group is
    /// written.
    encoders: Option<Vec<Option<Encoder>>>,
    /// The strings of the column being written, coded.
    codes: Items,
}

impl GroupBuilder {
    pub fn new(shape: Arc<GroupShape>) -> GroupBuilder {
        let columns = (0..shape.cells()).map(|_| CellColumn::default()).collect();
        GroupBuilder {
            shape,
            keys: Items::default(),
            tombstones: Vec::new(),
            columns,
            bytes: 0,
            shredded: Cells::default(),
            encoders: None,
            codes: Items::default(),
        }
    }

    /// The shape of the groups written: with the symbol tables once the first
    /// is.
    pub fn shape(&self) -> &Arc<GroupShape> {
        &self.shape
    }

    pub fn len(&self) -> usize {
        self.keys.ends.len()
    }

    pub fn is_full(&self) -> bool {
        self.len() >= GROUP_RECORDS || self.bytes >= GROUP_BYTES
    }

    /// Adds an entry whose cells are those `row` comes apart into.
    pub fn push_row(&mut self, key: &[u8], row: &[u8]) -> Result<()> {
        let mut cells = std::mem::take(&mut self.shredded);
        let shredded = self.shape.layout.shred(row, &mut cells);
        if shredded.is_ok() {
            self.push(key, Some(&cells));
        }
        self.shredded = cells;
        shredded.map_err(StorageError::Adm)
    }

    /// Adds an entry: its cells, or a delete marker without any.
    pub fn push(&mut self, key: &[u8], cells: Option<&Cells>) {
        self.keys.push(key);
        self.tombstones.push(cells.is_none());
        self.bytes += key.len();
        for (i, column) in self.columns.iter_mut().enumerate() {
            let cell = cells.map_or(&[][..], |c| c.get(i));
            column.present.push(!cell.is_empty());
            if !cell.is_empty() {
                column.cells.push(cell);
                self.bytes += cell.len();
            }
        }
    }

    /// Trains a symbol table for each string column on the group about to be
    /// written: the component's first.
    fn train(&mut self) {
        let mut shape = GroupShape::clone(&self.shape);
        let mut encoders: Vec<Option<Encoder>> = (0..shape.cells()).map(|_| None).collect();
        for cell in shape.text_cells() {
            if let Some(table) = SymbolTable::train_cells(self.columns[cell].cells.iter()) {
                encoders[cell] = Some(Encoder::new(&table));
                shape.tables[cell] = Some(Arc::new(table));
            }
        }
        self.shape = Arc::new(shape);
        self.encoders = Some(encoders);
    }

    /// Appends the group to `out` and empties the builder. Returns the bytes
    /// the group's string chunks would take as plain strings, and take.
    pub fn encode(&mut self, out: &mut Vec<u8>) -> (usize, usize) {
        if self.encoders.is_none() {
            self.train();
        }
        let shape = Arc::clone(&self.shape);
        let n = self.len();
        let dir_at = out.len();
        out.resize(dir_at + shape.dir_len(), 0);
        // each chunk's length, and how it was written
        let mut metas: Vec<(usize, Written)> = Vec::with_capacity(shape.chunk_count());
        let mut at = out.len();
        let mut note = |out: &Vec<u8>, written: Written| {
            metas.push((out.len() - at, written));
            at = out.len();
        };
        let written = self.write_keys(out);
        note(out, written);
        let written = write_bits(out, &self.tombstones, false);
        note(out, written);
        for column in &self.columns {
            // no bytes when every entry has the cell — nor when none does:
            // its data chunk has none either
            let written = match column.cells.ends.is_empty() {
                true => (Encoding::Empty, 0, 0),
                false => write_bits(out, &column.present, true),
            };
            note(out, written);
        }
        let mut by_chunk: Vec<usize> = (0..shape.cells()).collect();
        by_chunk.sort_by_key(|&cell| shape.data_chunk[cell]);
        let mut strings = (0, 0);
        for cell in by_chunk {
            let (column, start) = (&self.columns[cell], out.len());
            let encoder = self.encoders.as_ref().and_then(|encoders| encoders[cell].as_ref());
            let written = write_data(out, shape.kind(cell), column, encoder, &mut self.codes);
            if shape.kind(cell) == ColumnKind::STRING && matches!(written.0, Encoding::Var | Encoding::Coded) {
                let count = column.cells.ends.len();
                let plain = column.cells.iter().filter_map(string_cell).map(<[u8]>::len).sum();
                strings.0 += var_size(count, plain).1;
                strings.1 += out.len() - start;
            }
            note(out, written);
        }
        let dir = &mut out[dir_at..dir_at + shape.dir_len()];
        dir[8..12].copy_from_slice(&(n as u32).to_le_bytes());
        for (i, (len, (encoding, width, base))) in metas.into_iter().enumerate() {
            let e = &mut dir[DIR_HEADER + i * DIR_ENTRY..][..DIR_ENTRY];
            e[..4].copy_from_slice(&(len as u32).to_le_bytes());
            e[4] = encoding as u8;
            e[6..8].copy_from_slice(&(width as u16).to_le_bytes());
            e[8..].copy_from_slice(&base.to_le_bytes());
        }
        let sum = checksum(&dir[8..]);
        dir[..8].copy_from_slice(&sum.to_le_bytes());
        self.keys.clear();
        self.tombstones.clear();
        self.bytes = 0;
        for column in &mut self.columns {
            column.cells.clear();
            column.present.clear();
        }
        strings
    }

    fn write_keys(&self, out: &mut Vec<u8>) -> Written {
        let keys = || self.keys.iter();
        // keys arrive sorted: what the first and the last share, all do
        let (first, last) = (keys().next().unwrap_or(&[]), keys().last().unwrap_or(&[]));
        let prefix = crate::btree::common_prefix(first, last);
        out.extend_from_slice(&(prefix as u16).to_le_bytes());
        out.extend_from_slice(&first[..prefix]);
        let suffixes = keys().map(|k| &k[prefix..]);
        let len = first.len() - prefix;
        if suffixes.clone().all(|s| s.len() == len) && len <= u16::MAX as usize {
            suffixes.for_each(|s| out.extend_from_slice(s));
            (Encoding::Fixed, len, 0)
        } else {
            (Encoding::Var, write_var(out, suffixes), 0)
        }
    }
}

/// A bitmap of `bits`, or nothing when every one of them is `quiet`.
fn write_bits(out: &mut Vec<u8>, bits: &[bool], quiet: bool) -> Written {
    if bits.iter().all(|b| *b == quiet) {
        return (Encoding::Empty, 0, 0);
    }
    let start = out.len();
    out.resize(start + bits.len().div_ceil(8), 0);
    for i in (0..bits.len()).filter(|&i| bits[i]) {
        out[start + i / 8] |= 1 << (i % 8);
    }
    (Encoding::Bits, 0, 0)
}

/// The offsets' width of an offset array over `count` items of `bytes` bytes
/// in all, and the bytes of the array and the items.
fn var_size(count: usize, bytes: usize) -> (usize, usize) {
    let width = if (count + 1) * 2 + bytes <= u16::MAX as usize { 2 } else { 4 };
    (width, (count + 1) * width + bytes)
}

/// An offset array and `items` behind it; returns the offsets' width.
/// Offset `k` is where item `k` starts, counted from the array's first byte.
fn write_var<'a>(out: &mut Vec<u8>, items: impl Iterator<Item = &'a [u8]> + Clone) -> usize {
    let (count, bytes) = items.clone().fold((0, 0), |(n, len), item| (n + 1, len + item.len()));
    let width = var_size(count, bytes).0;
    let mut at = (count + 1) * width;
    for len in items.clone().map(<[u8]>::len).chain([0]) {
        out.extend_from_slice(&(at as u32).to_le_bytes()[..width]);
        at += len;
    }
    items.for_each(|item| out.extend_from_slice(item));
    width
}

/// Codes the strings of the `string` cells `cells` into `codes`: whether
/// they are UTF-8 and their codes are fewer bytes than they are.
fn code<'a>(encoder: &Encoder, cells: impl Iterator<Item = &'a [u8]>, codes: &mut Items) -> bool {
    codes.clear();
    let Items { bytes, ends } = codes;
    let mut end = 0;
    let plain = encoder.encode_cells(cells, bytes, |len| {
        end += len;
        ends.push(end);
    });
    plain.is_some_and(|plain| bytes.len() < plain)
}

/// A data chunk; a string column's strings coded by `encoder` if it has one
/// and they come out shorter.
fn write_data(out: &mut Vec<u8>, kind: ColumnKind, column: &CellColumn, encoder: Option<&Encoder>, codes: &mut Items) -> Written {
    let cells = column.cells.iter();
    if column.cells.ends.is_empty() {
        return (Encoding::Empty, 0, 0);
    }
    // an integer column's cells, when every one holds an integer
    if let Some(values) = cells.clone().map(|c| kind.int_of(c)).collect::<Option<Vec<i64>>>() {
        let (min, max) = values.iter().fold((i64::MAX, i64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let span = (max as u64).wrapping_sub(min as u64);
        let width = [0usize, 1, 2, 4].into_iter().find(|w| span >> (8 * w) == 0).unwrap_or(8);
        for v in values {
            out.extend_from_slice(&(v as u64).wrapping_sub(min as u64).to_le_bytes()[..width]);
        }
        return (Encoding::For, width, min);
    }
    let tagged = |tag: u8, len: usize| cells.clone().all(|c| c[0] == tag && c.len() == 1 + len);
    match kind {
        ColumnKind::Fixed { tag, width } if tagged(tag, width as usize) => {
            cells.for_each(|c| out.extend_from_slice(&c[1..]));
            (Encoding::Fixed, width as usize, 0)
        }
        ColumnKind::Bytes { tag } if cells.clone().all(|c| var_cell(c, tag).is_some()) => match encoder {
            Some(encoder) if code(encoder, cells.clone(), codes) => (Encoding::Coded, write_var(out, codes.iter()), 0),
            _ => (Encoding::Var, write_var(out, cells.filter_map(|c| var_cell(c, tag))), 0),
        },
        _ => (Encoding::Tagged, write_var(out, cells), 0),
    }
}

// ---------------------------------------------------------------------------
// Reading
// ---------------------------------------------------------------------------

/// A group's directory.
#[derive(Debug)]
pub(crate) struct GroupDir {
    /// Entries in the group.
    pub n: usize,
    pub chunks: Vec<ChunkMeta>,
    /// Bytes of the whole group: the next one starts that far on.
    pub len: u64,
}

impl GroupDir {
    /// Parses the `shape.dir_len()` bytes a group starts with.
    pub fn parse(bytes: &[u8], shape: &GroupShape) -> Result<GroupDir> {
        let corrupt = |what: &str| StorageError::Corrupt(format!("leaf group directory: {what}"));
        if bytes.len() != shape.dir_len() {
            return Err(corrupt("truncated"));
        }
        if le::try_u64_at(bytes, 0)? != checksum(&bytes[8..]) {
            return Err(corrupt("checksum mismatch"));
        }
        let n = le::try_u32_at(bytes, 8)? as usize;
        if n == 0 || n > GROUP_RECORDS {
            return Err(corrupt("entry count out of range"));
        }
        let mut at = bytes.len() as u64;
        let mut chunks = Vec::with_capacity(shape.chunk_count());
        for e in bytes[DIR_HEADER..].chunks_exact(DIR_ENTRY) {
            let len = le::try_u32_at(e, 0)? as usize;
            let encoding = Encoding::from_byte(e[4]).ok_or_else(|| corrupt("unknown chunk encoding"))?;
            let (width, base) = (le::try_u16_at(e, 6)? as usize, le::try_u64_at(e, 8)? as i64);
            let sound = match encoding {
                Encoding::Empty => len == 0,
                Encoding::Bits => len == n.div_ceil(8),
                Encoding::For => matches!(width, 0 | 1 | 2 | 4 | 8),
                Encoding::Fixed => true,
                Encoding::Var | Encoding::Tagged | Encoding::Coded => matches!(width, 2 | 4),
            };
            if !sound {
                return Err(corrupt("a chunk's length or width contradicts its encoding"));
            }
            chunks.push(ChunkMeta { at, len, encoding, width, base });
            at += len as u64;
        }
        Ok(GroupDir { n, chunks, len: at })
    }
}

/// Where a group's bytes come from.
pub(crate) trait ChunkBytes {
    /// The `len` bytes `at` bytes into the group. They belong to chunk
    /// `chunk`, which ends `end` bytes into the group: reads of one chunk
    /// tend to follow one another, and none goes past its end.
    fn span(&mut self, chunk: usize, at: u64, len: usize, end: u64) -> Result<&[u8]>;
}

/// A group held in memory whole.
impl ChunkBytes for &[u8] {
    fn span(&mut self, _chunk: usize, at: u64, len: usize, _end: u64) -> Result<&[u8]> {
        le::try_bytes_at(self, at as usize, len)
    }
}

/// The little-endian unsigned integer `bytes` holds.
fn uint_of(bytes: &[u8]) -> u64 {
    let mut v = [0u8; 8];
    v[..bytes.len()].copy_from_slice(bytes);
    u64::from_le_bytes(v)
}

/// Index of the first of `n` ascending keys that is not below a target, and
/// whether it is the target; `cmp(i)` orders key `i` against it.
fn lower_bound(n: usize, mut cmp: impl FnMut(usize) -> Result<std::cmp::Ordering>) -> Result<(usize, bool)> {
    let (mut lo, mut hi) = (0, n);
    while lo < hi {
        let mid = (lo + hi) / 2;
        if cmp(mid)?.is_lt() {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    Ok((lo, lo < n && cmp(lo)?.is_eq()))
}

/// Reads one group through its directory.
pub(crate) struct GroupView<'a, S> {
    pub shape: &'a GroupShape,
    pub dir: &'a GroupDir,
    pub src: &'a mut S,
}

impl<'a, S: ChunkBytes> GroupView<'a, S> {
    /// `len` bytes at `off` of chunk `chunk`.
    fn bytes(&mut self, chunk: usize, off: usize, len: usize) -> Result<&[u8]> {
        let meta = &self.dir.chunks[chunk];
        if off.checked_add(len).is_none_or(|end| end > meta.len) {
            return Err(StorageError::Corrupt(format!(
                "leaf group: bytes {off}..+{len} of a chunk of {}",
                meta.len
            )));
        }
        self.src.span(chunk, meta.at + off as u64, len, meta.at + meta.len as u64)
    }

    /// Item `k` behind the offset array at `off` of chunk `chunk`.
    fn var_item(&mut self, chunk: usize, off: usize, k: usize) -> Result<&[u8]> {
        let width = self.dir.chunks[chunk].width;
        let ends = self.bytes(chunk, off + k * width, 2 * width)?;
        let (start, end) = (uint_of(&ends[..width]) as usize, uint_of(&ends[width..]) as usize);
        let len = end.checked_sub(start).ok_or_else(|| StorageError::Corrupt("leaf group: offsets not ascending".into()))?;
        self.bytes(chunk, off + start, len)
    }

    fn bit(&mut self, chunk: usize, i: usize) -> Result<bool> {
        Ok(self.bytes(chunk, i / 8, 1)?[0] & (1 << (i % 8)) != 0)
    }

    /// What every key of the group starts with.
    pub fn key_prefix(&mut self) -> Result<&[u8]> {
        let len = le::try_u16_at(self.bytes(KEYS, 0, 2)?, 0)? as usize;
        self.bytes(KEYS, 2, len)
    }

    /// Key `i` past the group's prefix, which is `prefix_len` bytes.
    pub fn key_suffix(&mut self, prefix_len: usize, i: usize) -> Result<&[u8]> {
        let meta = self.dir.chunks[KEYS];
        match meta.encoding {
            Encoding::Fixed => self.bytes(KEYS, 2 + prefix_len + i * meta.width, meta.width),
            Encoding::Var => self.var_item(KEYS, 2 + prefix_len, i),
            _ => Err(StorageError::Corrupt("leaf group: key chunk is not a key chunk".into())),
        }
    }

    /// Index of the first key >= `target`, and whether it is `target`.
    pub fn search(&mut self, target: &[u8]) -> Result<(usize, bool)> {
        let n = self.dir.n;
        let prefix = self.key_prefix()?;
        let prefix_len = prefix.len();
        match target[..target.len().min(prefix_len)].cmp(prefix) {
            std::cmp::Ordering::Less => return Ok((0, false)),
            std::cmp::Ordering::Greater => return Ok((n, false)),
            std::cmp::Ordering::Equal => {}
        }
        let rest = &target[prefix_len..];
        let meta = self.dir.chunks[KEYS];
        if meta.encoding == Encoding::Fixed {
            // suffixes of one length lie side by side: one read, searched in place
            let (suffixes, width) = (self.bytes(KEYS, 2 + prefix_len, n * meta.width)?, meta.width);
            return lower_bound(n, |i| Ok(suffixes[i * width..(i + 1) * width].cmp(rest)));
        }
        lower_bound(n, |i| Ok(self.key_suffix(prefix_len, i)?.cmp(rest)))
    }

    /// Whether entry `i` is a delete marker.
    pub fn is_tombstone(&mut self, i: usize) -> Result<bool> {
        match self.dir.chunks[TOMBSTONES].encoding {
            Encoding::Empty => Ok(false),
            _ => self.bit(TOMBSTONES, i),
        }
    }

    /// The table the chunk of cell `cell` decodes with, written as
    /// `encoding`: none but for a `Coded` one, which is a string column's of a
    /// component that has a table for it.
    fn table(&self, cell: usize, encoding: Encoding) -> Result<Option<&'a Arc<SymbolTable>>> {
        let shape: &'a GroupShape = self.shape;
        match (encoding, shape.kind(cell), &shape.tables[cell]) {
            (Encoding::Coded, ColumnKind::STRING, Some(table)) => Ok(Some(table)),
            (Encoding::Coded, ..) => Err(StorageError::Corrupt("leaf group: coded strings with no symbol table for them".into())),
            _ => Ok(None),
        }
    }

    /// Entry `i`'s place among the entries that have cell `cell`; `None` if
    /// it has none.
    fn rank(&mut self, cell: usize, i: usize) -> Result<Option<usize>> {
        // a data chunk of no bytes: no entry has the cell, whatever its
        // presence chunk says
        if self.dir.chunks[self.shape.data_chunk[cell]].encoding == Encoding::Empty {
            return Ok(None);
        }
        let chunk = FIRST_PRESENCE + cell;
        if self.dir.chunks[chunk].encoding == Encoding::Empty {
            return Ok(Some(i));
        }
        let bits = self.bytes(chunk, 0, i / 8 + 1)?;
        if bits[i / 8] & (1 << (i % 8)) == 0 {
            return Ok(None);
        }
        let before: u32 = bits[..i / 8].iter().map(|b| b.count_ones()).sum();
        Ok(Some((before + (bits[i / 8] & ((1 << (i % 8)) - 1)).count_ones()) as usize))
    }

    /// Appends entry `i`'s cell `cell` to `out`, as it was pushed.
    pub fn cell(&mut self, cell: usize, i: usize, out: &mut Cells) -> Result<()> {
        let Some(&chunk) = self.shape.data_chunk.get(cell) else {
            return Err(StorageError::Invalid(format!("cell {cell} of a layout of {}", self.shape.cells())));
        };
        let meta = self.dir.chunks[chunk];
        let Some(rank) = self.rank(cell, i)? else {
            out.push(&[]);
            return Ok(());
        };
        let mismatch = || StorageError::Corrupt("leaf group: a chunk's encoding contradicts its column".into());
        match (meta.encoding, self.shape.kind(cell)) {
            (Encoding::For, kind @ (ColumnKind::Varint | ColumnKind::Int { .. })) => {
                let delta = uint_of(self.bytes(chunk, rank * meta.width, meta.width)?);
                let value = (meta.base as u64).wrapping_add(delta) as i64;
                out.push_with(|cell| {
                    kind.put_int(value, cell);
                    Ok(())
                })
            }
            (Encoding::Fixed, ColumnKind::Fixed { tag, width }) if meta.width == width as usize => {
                let payload = self.bytes(chunk, rank * meta.width, meta.width)?;
                out.push_with(|cell| {
                    cell.push(tag);
                    cell.extend_from_slice(payload);
                    Ok(())
                })
            }
            (Encoding::Var, ColumnKind::Bytes { tag }) => {
                let payload = self.var_item(chunk, 0, rank)?;
                out.push_with(|cell| {
                    put_var_cell(cell, tag, payload);
                    Ok(())
                })
            }
            (Encoding::Coded, _) => {
                let table = self.table(cell, meta.encoding)?.ok_or_else(mismatch)?;
                let codes = self.var_item(chunk, 0, rank)?;
                out.push_with(|cell| table.decode_cell(codes, cell).map_err(|e| StorageError::Corrupt(format!("leaf group: {e}"))))
            }
            (Encoding::Tagged, _) => {
                let whole = self.var_item(chunk, 0, rank)?;
                if whole.is_empty() {
                    return Err(StorageError::Corrupt("leaf group: a present cell is empty".into()));
                }
                out.push(whole);
                Ok(())
            }
            _ => Err(mismatch()),
        }
    }

    /// Appends to `out`, a row each, cell `cell` of the consecutive entries
    /// `rows` — what [`GroupView::cell`] hands out of them one at a time,
    /// read a chunk at a time: the presence bits once, then the values of
    /// the entries that have one, which lie side by side.
    pub fn append_cells(&mut self, cell: usize, rows: std::ops::Range<usize>, out: &mut Column) -> Result<()> {
        // the rest is no value: it is read entry by entry, with its names
        let Some(&chunk) = self.shape.data_chunk.get(cell).filter(|_| cell < self.shape.layout.columns().len()) else {
            return Err(StorageError::Invalid(format!("cell {cell} of {} columns", self.shape.layout.columns().len())));
        };
        if rows.end > self.dir.n {
            return Err(StorageError::Invalid(format!("entries {rows:?} of a group of {}", self.dir.n)));
        }
        if rows.is_empty() {
            return Ok(());
        }
        let meta = self.dir.chunks[chunk];
        if meta.encoding == Encoding::Empty {
            // no entry has the cell, whatever its presence chunk says
            rows.for_each(|_| out.push_absent());
            return Ok(());
        }
        let table = self.table(cell, meta.encoding)?;
        let corrupt = |e: asterix_adm::AdmError| StorageError::Corrupt(format!("leaf group: {e}"));
        // which of the entries have the cell, and how many before them do
        let mut bits = [0xFFu8; GROUP_RECORDS / 8];
        let mut first = rows.start;
        if self.dir.chunks[FIRST_PRESENCE + cell].encoding != Encoding::Empty {
            let held = self.bytes(FIRST_PRESENCE + cell, 0, rows.end.div_ceil(8))?;
            bits[..held.len()].copy_from_slice(held);
            let before = &bits[..rows.start / 8];
            let partial = bits[rows.start / 8] & ((1u8 << (rows.start % 8)) - 1);
            first = (before.iter().map(|b| b.count_ones()).sum::<u32>() + partial.count_ones()) as usize;
        }
        let has = |i: usize| bits[i / 8] & (1 << (i % 8)) != 0;
        let count = rows.clone().filter(|i| has(*i)).count();
        match (meta.encoding, self.shape.kind(cell)) {
            _ if count == 0 => rows.for_each(|_| out.push_absent()),
            (Encoding::For, kind @ (ColumnKind::Varint | ColumnKind::Int { .. })) => {
                let packed = self.bytes(chunk, first * meta.width, count * meta.width)?;
                let mut deltas = packed.chunks_exact(meta.width.max(1));
                let mut cell = Vec::with_capacity(9);
                for i in rows {
                    if !has(i) {
                        out.push_absent();
                        continue;
                    }
                    let value = (meta.base as u64).wrapping_add(deltas.next().map_or(0, uint_of)) as i64;
                    // an `int` goes to the column as it is, no cell built
                    if kind == ColumnKind::Varint {
                        out.push_int(value);
                        continue;
                    }
                    cell.clear();
                    kind.put_int(value, &mut cell);
                    out.push_cell(&cell).map_err(corrupt)?;
                }
            }
            (Encoding::Fixed, ColumnKind::Fixed { tag, width }) if meta.width == width as usize && meta.width > 0 => {
                let mut payloads = self.bytes(chunk, first * meta.width, count * meta.width)?.chunks_exact(meta.width).peekable();
                let mut value = [tag; 33];
                for i in rows {
                    match payloads.next_if(|_| has(i)) {
                        Some(payload) => {
                            value[1..=meta.width].copy_from_slice(payload);
                            out.push_cell(&value[..=meta.width]).map_err(corrupt)?;
                        }
                        None => out.push_absent(),
                    }
                }
            }
            (Encoding::Var | Encoding::Tagged | Encoding::Coded, kind) => {
                // where each value starts, and the last one ends
                let offsets = self.bytes(chunk, first * meta.width, (count + 1) * meta.width)?;
                let offsets: Vec<usize> = offsets.chunks_exact(meta.width).map(|o| uint_of(o) as usize).collect();
                if offsets.windows(2).any(|w| w[0] > w[1]) {
                    return Err(StorageError::Corrupt("leaf group: offsets not ascending".into()));
                }
                let values = self.bytes(chunk, offsets[0], offsets[count] - offsets[0])?;
                let value = |k: usize| &values[offsets[k] - offsets[0]..offsets[k + 1] - offsets[0]];
                let mut k = 0;
                let mut rows = rows.peekable();
                while let Some(i) = rows.next() {
                    if !has(i) {
                        out.push_absent();
                        continue;
                    }
                    match (meta.encoding, kind) {
                        (Encoding::Var | Encoding::Coded, ColumnKind::Bytes { tag }) => {
                            // the strings of the entries that follow it, as far as each has one, go with it
                            let from = k;
                            k += 1;
                            while rows.next_if(|i| has(*i)).is_some() {
                                k += 1;
                            }
                            let run = &values[offsets[from] - offsets[0]..offsets[k] - offsets[0]];
                            let lens = offsets[from..=k].windows(2).map(|w| w[1] - w[0]);
                            match table {
                                Some(table) => out.push_coded(table, run, lens),
                                None => out.push_var(tag, run, lens),
                            }
                            .map_err(corrupt)?;
                        }
                        (Encoding::Tagged, _) if !value(k).is_empty() => {
                            out.push_cell(value(k)).map_err(corrupt)?;
                            k += 1;
                        }
                        (Encoding::Tagged, _) => {
                            return Err(StorageError::Corrupt("leaf group: a present cell is empty".into()))
                        }
                        _ => return Err(StorageError::Corrupt("leaf group: a chunk's encoding contradicts its column".into())),
                    }
                }
            }
            _ => return Err(StorageError::Corrupt("leaf group: a chunk's encoding contradicts its column".into())),
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::binary::{encode, encode_key};
    use asterix_adm::types::gleambook_types;
    use asterix_adm::{Point, Value};

    fn shape() -> Arc<GroupShape> {
        let layout = RecordLayout::new(gleambook_types().get("GleambookMessageType").unwrap());
        Arc::new(GroupShape::new(Arc::new(layout)))
    }

    /// The cells of message `i`: the optional fields come and go, every
    /// seventh `inResponseTo` is a `null`, every fifth record has a rest.
    fn cells_of(i: i64) -> Cells {
        with_text(i, &"m".repeat(i as usize % 9))
    }

    /// [`cells_of`] with the message `text`.
    fn with_text(i: i64, text: &str) -> Cells {
        let mut cells = Cells::default();
        cells.push(&encode(&Value::Int(1_000 + i)));
        cells.push(&encode(&Value::Int(i % 37)));
        match i {
            _ if i % 7 == 0 => cells.push(&encode(&Value::Null)),
            _ if i % 3 == 0 => cells.push(&encode(&Value::Int(i64::MAX - i))),
            _ => cells.push(&[]),
        }
        if i % 2 == 0 {
            cells.push(&encode(&Value::Point(Point::new(i as f64, -0.5))));
        } else {
            cells.push(&[]);
        }
        cells.push(&encode(&Value::from(text)));
        if i % 5 == 0 {
            cells.push(&[1, 1, b'x', 1]);
        } else {
            cells.push(&[]);
        }
        cells
    }

    /// Encodes `groups` one after another with one builder, as a
    /// component's are — entries by key, `None` for a delete marker: the
    /// shape they share, its tables trained on the first, and each group's
    /// bytes.
    fn component(groups: &[Vec<(i64, Option<Cells>)>]) -> (Arc<GroupShape>, Vec<Vec<u8>>) {
        let mut b = GroupBuilder::new(shape());
        let mut out = Vec::new();
        for group in groups {
            for (i, cells) in group {
                b.push(&encode_key(&[Value::Int(*i)]), cells.as_ref());
            }
            let mut bytes = Vec::new();
            b.encode(&mut bytes);
            assert_eq!(b.len(), 0);
            out.push(bytes);
        }
        (Arc::clone(b.shape()), out)
    }

    fn group(n: i64, tombstone_every: i64) -> (Arc<GroupShape>, Vec<u8>) {
        let dead = |i: i64| tombstone_every > 0 && i % tombstone_every == 1;
        let (shape, mut groups) = component(&[(0..n).map(|i| (i, (!dead(i)).then(|| cells_of(i)))).collect()]);
        (shape, groups.remove(0))
    }

    #[test]
    fn every_cell_reads_back_as_it_went_in() {
        for (n, tombstone_every) in [(1, 0), (9, 0), (300, 0), (300, 4)] {
            let (shape, bytes) = group(n, tombstone_every);
            let dir = GroupDir::parse(&bytes[..shape.dir_len()], &shape).unwrap();
            assert_eq!((dir.n, dir.len), (n as usize, bytes.len() as u64));
            let mut src = bytes.as_slice();
            let mut view = GroupView { shape: &shape, dir: &dir, src: &mut src };
            let prefix = view.key_prefix().unwrap().to_vec();
            for i in 0..n {
                let key = encode_key(&[Value::Int(i)]);
                assert_eq!(view.search(&key).unwrap(), (i as usize, true));
                assert_eq!([&prefix, view.key_suffix(prefix.len(), i as usize).unwrap()].concat(), key);
                let dead = tombstone_every > 0 && i % tombstone_every == 1;
                assert_eq!(view.is_tombstone(i as usize).unwrap(), dead);
                let mut got = Cells::default();
                for cell in 0..6 {
                    view.cell(cell, i as usize, &mut got).unwrap();
                }
                let want = if dead { Cells::default() } else { cells_of(i) };
                for cell in 0..6 {
                    assert_eq!(got.get(cell), if dead { &[][..] } else { want.get(cell) }, "entry {i} cell {cell}");
                }
            }
            assert_eq!(view.search(&encode_key(&[Value::Int(n)])).unwrap(), (n as usize, false));
            assert_eq!(view.search(&encode_key(&[Value::Int(-1)])).unwrap(), (0, false));
        }
    }

    #[test]
    fn integers_take_the_bytes_their_spread_needs() {
        let (shape, bytes) = group(300, 0);
        let dir = GroupDir::parse(&bytes[..shape.dir_len()], &shape).unwrap();
        let of = |cell: usize| dir.chunks[shape.data_chunk[cell]];
        assert_eq!((of(0).encoding, of(0).width, of(0).base, of(0).len), (Encoding::For, 2, 1_000, 600));
        assert_eq!((of(1).encoding, of(1).width, of(1).len), (Encoding::For, 1, 300));
        assert_eq!(of(2).encoding, Encoding::Tagged, "a null among the ints");
        assert_eq!((of(3).encoding, of(3).len), (Encoding::Fixed, 150 * 16));
        assert_eq!((of(4).encoding, of(4).width), (Encoding::Coded, 2));
        assert_eq!(dir.chunks[KEYS].encoding, Encoding::Fixed);
        assert_eq!(dir.chunks[TOMBSTONES].len, 0);
        assert_eq!(dir.chunks[FIRST_PRESENCE].len, 0, "every record has a messageId");
        assert_eq!(dir.chunks[FIRST_PRESENCE + 3].len, 300usize.div_ceil(8));
        // narrow chunks first: the ints, the point, the string, the rest
        let order: Vec<usize> = (0..6).map(|cell| shape.data_chunk[cell]).collect();
        assert!(order[0] < order[3] && order[1] < order[3] && order[2] < order[3]);
        assert!(order[3] < order[4] && order[4] < order[5]);
    }

    /// Message `i` of about `len` bytes, of words of one small lexicon —
    /// one-, two- and three-byte characters among them; every thirteenth
    /// empty, and every 97th every character up to U+00FF and one the table
    /// has no symbol for, escaped.
    fn words(i: i64, len: usize) -> String {
        const LEXICON: [&str; 8] = [" the", " signal", " café", " 日本", " at&t", " 3G", " love", " é"];
        match i {
            _ if i % 13 == 0 => String::new(),
            _ if i % 97 == 5 => (0..=0xFF).chain([0x1F600 + i as u32]).filter_map(char::from_u32).collect(),
            _ => {
                let (mut text, mut k) = (String::new(), i as usize);
                while text.len() < len {
                    text.push_str(LEXICON[k % LEXICON.len()]);
                    k = k.wrapping_mul(31).wrapping_add(7);
                }
                text
            }
        }
    }

    /// `len` bytes of ideographs no table trained on [`words`] has a symbol
    /// for: its codes are longer than they are.
    fn ideographs(i: i64, len: usize) -> String {
        (0..len / 3).map(|k| char::from_u32(0x4E00 + ((i as u32 * 7_919 + k as u32 * 104_729) % 0x5000)).unwrap()).collect()
    }

    /// A group of `n` messages whose cells force a chunk of every encoding
    /// and width: `authorId`s `spread` apart (a frame of reference of 0, 1,
    /// 2, 4 or 8 bytes), messages of `text` bytes — of [`words`], coded, or
    /// of [`ideographs`] in a component whose table they do not fit, plain —
    /// (2- or 4-byte offsets), an `inResponseTo` that comes and goes and is
    /// now and then a `null` (`Bits` presence, `Tagged` cells), a location
    /// every other record has.
    fn group_of(n: i64, spread: i64, text: usize, coded: bool) -> (Arc<GroupShape>, Vec<u8>) {
        let entry = |i: i64, message: String| {
            let mut cells = Cells::default();
            let all = with_text(i, &message);
            for cell in 0..6 {
                match cell {
                    1 => cells.push(&encode(&Value::Int((i % 3).wrapping_mul(spread)))),
                    _ => cells.push(all.get(cell)),
                }
            }
            (i, Some(cells))
        };
        let mut groups = vec![(0..n).map(|i| entry(i, words(i, text))).collect::<Vec<_>>()];
        if !coded {
            groups.push((0..n).map(|i| entry(i, ideographs(i, text))).collect());
        }
        let (shape, mut bytes) = component(&groups);
        (shape, bytes.pop().unwrap())
    }

    /// What `append_cells` makes of `rows` of each declared cell, against
    /// the same cells read one at a time.
    fn columns_of(shape: &GroupShape, bytes: &[u8], rows: std::ops::Range<usize>) -> Result<Vec<(Column, Column)>> {
        let dir = GroupDir::parse(&bytes[..shape.dir_len()], shape)?;
        let mut src = bytes;
        let mut view = GroupView { shape, dir: &dir, src: &mut src };
        let mut both = Vec::new();
        for (cell, column) in shape.layout.columns().iter().enumerate() {
            let (mut at_once, mut one_by_one) = (Column::of_kind(column.kind), Column::of_kind(column.kind));
            view.append_cells(cell, rows.clone(), &mut at_once)?;
            for i in rows.clone() {
                let mut cells = Cells::default();
                view.cell(cell, i, &mut cells)?;
                one_by_one.push_cell(cells.get(0))?;
            }
            both.push((at_once, one_by_one));
        }
        Ok(both)
    }

    /// Whether two columns hold the same rows, as values and as `i64`s: a
    /// column of codes and one of the strings they decode to do.
    fn same_rows(a: &Column, b: &Column) -> bool {
        a.len() == b.len() && (0..a.len()).all(|i| a.get(i) == b.get(i) && a.int_at(i) == b.int_at(i))
    }

    #[test]
    fn a_chunk_at_a_time_reads_what_a_cell_at_a_time_does() {
        for (spread, width) in [(0, 0), (100, 1), (30_000, 2), (1 << 30, 4), (1 << 62, 8)] {
            for (text, coded, encoding, offsets) in
                [(10, true, Encoding::Coded, 2), (1_500, true, Encoding::Coded, 4), (10, false, Encoding::Var, 2), (400, false, Encoding::Var, 4)]
            {
                let (shape, bytes) = group_of(300, spread, text, coded);
                let dir = GroupDir::parse(&bytes[..shape.dir_len()], &shape).unwrap();
                let of = |cell: usize| dir.chunks[shape.data_chunk[cell]];
                assert_eq!((of(1).encoding, of(1).width), (Encoding::For, width), "authorId {spread} apart");
                assert_eq!((of(4).encoding, of(4).width), (encoding, offsets), "messages of {text} bytes");
                assert_eq!((of(2).encoding, of(3).encoding), (Encoding::Tagged, Encoding::Fixed));
                assert_eq!(dir.chunks[FIRST_PRESENCE].encoding, Encoding::Empty);
                assert_eq!(dir.chunks[FIRST_PRESENCE + 2].encoding, Encoding::Bits);
                // whole, one entry, runs that start and end inside a presence
                // byte, the last entry, none
                for rows in [0..300, 0..1, 5..9, 7..8, 13..250, 299..300, 40..40] {
                    for (cell, (at_once, one_by_one)) in columns_of(&shape, &bytes, rows.clone()).unwrap().iter().enumerate() {
                        assert_eq!(at_once.len(), rows.len());
                        assert!(same_rows(at_once, one_by_one), "cell {cell} of entries {rows:?}");
                    }
                }
                // the strings of a coded chunk stay codes until a row is asked for
                let all = columns_of(&shape, &bytes, 0..300).unwrap();
                assert_eq!(all[4].0.heap_size() < all[4].1.heap_size(), coded, "messages of {text} bytes");
                for i in [0, 5, 97 + 5, 299] {
                    let want = if coded { words(i, text) } else { ideographs(i, text) };
                    assert_eq!(all[4].0.get(i as usize), Value::from(want), "message {i}");
                }
            }
        }
        // the values themselves, once: an int column is a vector of them
        // until the `null` among them makes it one of values
        let (shape, bytes) = group_of(300, 100, 10, true);
        let all = columns_of(&shape, &bytes, 0..300).unwrap();
        assert_eq!((all[0].0.int_at(42), all[1].0.int_at(44)), (Some(1_042), Some(200)));
        assert_eq!((all[2].0.get(7), all[2].0.get(9), all[2].0.get(8)), (Value::Null, Value::Int(i64::MAX - 9), Value::Missing));
        assert_eq!(all[2].0.int_at(9), None, "a column of values");
        assert_eq!(all[3].0.get(4), Value::Point(Point::new(4.0, -0.5)));
        assert_eq!((all[4].0.get(1), all[4].0.get(26)), (Value::from(words(1, 10)), Value::from("")));
        // the rest is not a column
        let dir = GroupDir::parse(&bytes[..shape.dir_len()], &shape).unwrap();
        let mut src = bytes.as_slice();
        let mut view = GroupView { shape: &shape, dir: &dir, src: &mut src };
        assert!(matches!(view.append_cells(5, 0..1, &mut Column::new()), Err(StorageError::Invalid(_))));
    }

    /// Every read of a group: each cell alone and each column a chunk at a
    /// time, all Ok or the first error.
    fn read_all(shape: &GroupShape, bytes: &[u8], n: usize) -> Result<()> {
        columns_of(shape, bytes, 0..n)?;
        let dir = GroupDir::parse(&bytes[..shape.dir_len()], shape)?;
        let mut src = bytes;
        let mut view = GroupView { shape, dir: &dir, src: &mut src };
        for i in 0..n {
            let mut cells = Cells::default();
            (0..6).try_for_each(|cell| view.cell(cell, i, &mut cells))?;
            // what a cell holds decodes: a string among them is UTF-8
            (0..5).try_for_each(|cell| Column::new().push_cell(cells.get(cell)).map_err(StorageError::Adm))?;
        }
        Ok(())
    }

    #[test]
    fn a_damaged_chunk_is_corrupt_not_a_panic() {
        for coded in [true, false] {
            let (shape, bytes) = group_of(120, 30_000, 10, coded);
            // cut short under a sound directory: the chunks at the end are gone
            let short = &bytes[..bytes.len() - 600];
            assert!(matches!(columns_of(&shape, short, 0..120), Err(StorageError::Corrupt(_))));
            // any one byte of the chunks wrong: a different answer or `Corrupt`
            let mut damaged = 0;
            for at in shape.dir_len()..bytes.len() {
                let mut bad = bytes.clone();
                bad[at] ^= 0xA5;
                match read_all(&shape, &bad, 120) {
                    Ok(()) => {}
                    Err(StorageError::Corrupt(_)) => damaged += 1,
                    Err(e) => panic!("byte {at}: {e}"),
                }
            }
            assert!(damaged > 100, "offsets, lengths, codes and UTF-8 are checked ({damaged} caught)");
        }
        // a damaged table: refused when it is read, or one that reads the
        // same codes as other text — never a panic, never text that is not UTF-8
        let (shape, bytes) = group_of(120, 30_000, 10, true);
        let mut tables = Vec::new();
        shape.write_tables(&mut tables);
        let (mut refused, mut misread) = (0, 0);
        for at in 0..tables.len() {
            for flip in [0x01, 0x40, 0x80] {
                let mut bad = tables.clone();
                bad[at] ^= flip;
                match GroupShape::with_tables(Arc::clone(&shape.layout), &bad) {
                    Err(StorageError::Corrupt(_)) => refused += 1,
                    Err(e) => panic!("table byte {at}: {e}"),
                    Ok(other) => match read_all(&other, &bytes, 120) {
                        Ok(()) | Err(StorageError::Corrupt(_)) => misread += 1,
                        Err(e) => panic!("table byte {at}: {e}"),
                    },
                }
            }
        }
        assert!(refused > 0 && misread > 0, "{refused} refused, {misread} read");
        assert!(GroupShape::with_tables(Arc::clone(&shape.layout), &tables[..tables.len() - 1]).is_err(), "cut short");
        assert!(GroupShape::with_tables(Arc::clone(&shape.layout), &[tables.as_slice(), &[0]].concat()).is_err(), "a byte past");
        // codes read under another component's table: other text, or `Corrupt`
        let (other, _) = component(&[(0..120).map(|i| (i, Some(with_text(i, &ideographs(i, 30))))).collect()]);
        assert_ne!(other.tables[4], shape.tables[4]);
        assert!(matches!(read_all(&other, &bytes, 120), Ok(()) | Err(StorageError::Corrupt(_))));
    }

    #[test]
    fn a_damaged_directory_is_corrupt_not_a_panic() {
        let (shape, bytes) = group(40, 3);
        let dir_len = shape.dir_len();
        assert!(matches!(GroupDir::parse(&bytes[..dir_len - 1], &shape), Err(StorageError::Corrupt(_))));
        for bit in 0..dir_len * 8 {
            let mut bad = bytes[..dir_len].to_vec();
            bad[bit / 8] ^= 1 << (bit % 8);
            assert!(matches!(GroupDir::parse(&bad, &shape), Err(StorageError::Corrupt(_))), "bit {bit}");
        }
        // a chunk cut short under a sound directory
        let dir = GroupDir::parse(&bytes[..dir_len], &shape).unwrap();
        let mut src = &bytes[..bytes.len() - 20];
        let mut view = GroupView { shape: &shape, dir: &dir, src: &mut src };
        let mut out = Cells::default();
        assert!(matches!(view.cell(5, 35, &mut out), Err(StorageError::Corrupt(_))), "the last rest cell");
    }

    /// A column no entry of a group has takes no bytes, presence or data —
    /// also in a component whose first group has no strings, which has no
    /// table: its later groups store their strings as they are. A group
    /// written with the bitmap of zeros such a column once took reads the same.
    #[test]
    fn a_column_nobody_has_takes_no_bytes() {
        let without = |i: i64| {
            let mut cells = Cells::default();
            let all = cells_of(i);
            (0..6).for_each(|cell| cells.push(if cell == 4 { &[] } else { all.get(cell) }));
            (i, Some(cells))
        };
        let (shape, groups) = component(&[(0..300).map(without).collect(), (300..400).map(|i| (i, Some(cells_of(i)))).collect()]);
        assert!(shape.tables[4].is_none(), "no strings to train on");
        let mut tables = Vec::new();
        shape.write_tables(&mut tables);
        assert_eq!(tables, [0], "a string column without a table");
        let dir = GroupDir::parse(&groups[0][..shape.dir_len()], &shape).unwrap();
        assert_eq!((dir.chunks[FIRST_PRESENCE + 4].encoding, dir.chunks[shape.data_chunk[4]].encoding), (Encoding::Empty, Encoding::Empty));
        let later = GroupDir::parse(&groups[1][..shape.dir_len()], &shape).unwrap();
        assert_eq!(later.chunks[shape.data_chunk[4]].encoding, Encoding::Var);
        for (bytes, from) in [(&groups[0], 0), (&groups[1], 300)] {
            for (cell, (at_once, one_by_one)) in columns_of(&shape, bytes, 0..(400 - from).min(300)).unwrap().iter().enumerate() {
                assert!(same_rows(at_once, one_by_one), "cell {cell}");
                if cell == 4 {
                    let want = if from == 0 { Value::Missing } else { Value::from("m".repeat(301 % 9)) };
                    assert_eq!(at_once.get(1), want);
                }
            }
        }
        // the bitmap of zeros, under a directory that points at it
        let mut bytes = groups[0].clone();
        let mut old = GroupDir::parse(&bytes[..shape.dir_len()], &shape).unwrap();
        old.chunks[FIRST_PRESENCE + 4] = ChunkMeta { at: bytes.len() as u64, len: 300usize.div_ceil(8), encoding: Encoding::Bits, width: 0, base: 0 };
        bytes.resize(bytes.len() + 300usize.div_ceil(8), 0);
        let mut src = bytes.as_slice();
        let mut view = GroupView { shape: &shape, dir: &old, src: &mut src };
        let mut column = Column::of_kind(ColumnKind::STRING);
        view.append_cells(4, 0..300, &mut column).unwrap();
        let mut cells = Cells::default();
        view.cell(4, 17, &mut cells).unwrap();
        assert_eq!((column.len(), column.get(17), cells.get(0)), (300, Value::Missing, &[][..]));
    }
}
