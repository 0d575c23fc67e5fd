//! Immutable, bulk-loaded on-disk B+ trees.
//!
//! Every LSM disk component is one of these: the memory component is flushed
//! (or several components merged) by streaming *sorted* key/value pairs into
//! a [`BTreeBuilder`], which packs leaves left to right and keeps a fence per
//! leaf — the "well-known efficient B+ tree load" Goetz Graefe contrasts with
//! hashing in the paper's §V-C anecdote (experiment E3). A tree is written
//! once and never updated in place, so it has no internal pages: one level of
//! separators, held in memory while the tree is open, routes every search.
//!
//! ## File layout (append-only, written end to end)
//!
//! ```text
//! [leaf area][fence index][bloom filter][column directory][symbol tables][trailer][zero pad][back u32][magic]
//! ```
//!
//! The *footer*, everything past the leaf area, starts where the leaf area
//! ends (`leaf_end`): right behind the last leaf group, or on the page after
//! the last row leaf. The zero pad makes the file a whole number of pages, as
//! the file manager, the buffer cache and a [`PageStream`] read it. The last
//! eight bytes say how far before them the trailer starts, then give
//! [`FORMAT`]'s magic. The trailer holds the entry count, `leaf_end`, the
//! lengths of the four regions before it, the smallest and the largest key,
//! and an FNV-1a checksum of the footer up to it. A reader opens the file by
//! reading its footer back from the last page.
//!
//! The **fence index** holds, per leaf (a row-leaf page or a leaf group), its
//! *separator* and the byte it starts at: a varint count, then per leaf the
//! separator's length and bytes and how far past the leaf before it the leaf
//! starts, in varints. A separator is the shortest byte string above every
//! key of the leaf before it and not above any key of its own (see
//! [`separator`]). [`DiskBTree::open`] reads the index into memory once, about
//! 20 bytes a leaf (the separator's bytes, a `u32` end and a `u64` start), and
//! a search binary-searches it for the last separator at or below its key. A
//! debug build audits it against the leaves at `finish` and at `open`
//! ([`Fences::audit`]).
//!
//! Keys are composite ADM keys encoded by `asterix_adm::binary::encode_key`,
//! whose bytes order as the values do: a key comparison is a slice
//! comparison, and the formats below rely on it.
//!
//! ## Leaf shapes
//!
//! A tree's leaf area has one of the shapes of [`LeafShape`], chosen when it
//! is built and recorded in its footer, which is laid out alike for all.
//! Each holds, per key, an [`Entry`]: a value, or a delete marker that masks
//! the key's versions in older components.
//!
//! * **Row leaves** ([`BTreeBuilder::new`]): leaf *pages* in the page layout
//!   below, a value an opaque byte string. An entry costs its front-coded key
//!   and, only when it has one, its value: a secondary index's entry — its
//!   secondary and primary key, no value — is its key alone. Secondary
//!   indexes, keyword postings and standalone trees.
//! * **Spatial row leaves** ([`LeafShape::Spatial`]): row leaves whose every
//!   value is an MBR ([`crate::spatial`]: 16 bytes for a point, 32 for a
//!   rectangle). The fence index also holds each leaf's MBR, the union of
//!   its puts' — a delete marker adds nothing to it — so that a search reads
//!   only the leaves whose MBR meets its query ([`DiskBTree::search_leaves`]).
//!   The footer ends in [`SPATIAL_FORMAT`]'s magic, not [`FORMAT`]'s: a tree
//!   is opened only as the shape it was written in. A spatial index.
//! * **Leaf groups** ([`BTreeBuilder::with_layout`]): a dataset's primary
//!   index, whose values are records. The leaf area is a run of *groups* of
//!   up to [`GROUP_RECORDS`](crate::leaf_group::GROUP_RECORDS) entries, each
//!   storing its entries column by column ([`crate::leaf_group`]), with no
//!   padding between them. A value of such a tree is a row its
//!   [`RecordLayout`] can take apart, which [`add`] takes apart into cells
//!   and [`get`] and a cursor's [`entry`] put together again, byte for byte.
//!   A reader that wants some of a record's fields asks a cursor for those
//!   cells ([`BTreeRangeIter::cells`]) and touches the pages of their chunks
//!   only. The footer carries the *column directory* — each column's name,
//!   declared type and kind — and a tree is opened only under the layout it
//!   was written with; and, per string column, the symbol table its strings
//!   are coded with, trained on the tree's first group and read once, at
//!   open.
//!
//! [`add`]: BTreeBuilder::add
//! [`get`]: DiskBTree::get
//! [`entry`]: BTreeRangeIter::entry
//!
//! ## Row-leaf page layout
//!
//! ```text
//! [n u16][restarts u16][entry * n] … [restart offset u16 * restarts]
//! entry = [shared varint][head varint][value_len varint]?[key bytes past `shared`][value]?
//! head  = unshared << 2 | has_value << 1 | delete marker
//! ```
//!
//! Keys are front-coded: an entry keeps the first `shared` bytes of the key
//! before it and stores the `unshared` bytes after them. The head also says
//! whether the entry is a delete marker and whether a value follows; only
//! then are `value_len` (never 0) and the value there, so an entry with
//! neither costs `shared`, a head of one byte for a key of under 32 bytes
//! of its own, and those bytes. Every [`RESTART_INTERVAL`]th entry, the first
//! included, is a *restart*: its `shared` is 0, so it holds its whole key,
//! and the array at the end of the page says where each restart starts. A
//! search binary-searches the restart keys, then decodes at most one
//! interval forward; a cursor applies each entry's delta to the key before
//! it. The varints are LEB128 in their shortest form. Every page of the
//! leaf area is a leaf, so a leaf's next is the page after it; a cursor
//! stops at `leaf_end`. A debug build decodes every entry of every leaf
//! where it is written (at `finish`) and where it is read back (at `open`):
//! keys ascend within and across leaves, every restart decodes to the entry
//! the walk reaches, the entries add up to the trailer's count and, for
//! spatial leaves, every value is an MBR and each fence MBR is the union of
//! its leaf's ([`Fences::audit`]).

use crate::bloom::{hash_pair, BloomFilter};
use crate::cache::BufferCache;
use crate::compaction::LsmMetricsHub;
use crate::error::{Result, StorageError};
use crate::io::{FileId, FileManager, PageFileWriter, PageStream, PAGE_SIZE};
use crate::le::{self, Cursor, Format};
use crate::leaf_group::{ChunkBytes, GroupBuilder, GroupDir, GroupShape, GroupView};
use asterix_adm::binary::put_varint;
use asterix_adm::layout::{Cells, ColumnKind, RecordLayout};
use asterix_adm::{BatchBuilder, Rectangle};
use asterix_obs::Counter;
use std::ops::{Bound, Range};
use std::sync::Arc;

/// The footer's magic, the file's last four bytes (see [`crate::le`]):
/// "BTR8" as a little-endian u32.
pub(crate) const FORMAT: Format = Format { kind: "B+ tree footer", headers: &[&0x4254_5238u32.to_le_bytes()] };
/// The magic of a tree of spatial row leaves: "BTS1".
pub(crate) const SPATIAL_FORMAT: Format = Format { kind: "spatial B+ tree footer", headers: &[&0x4254_5331u32.to_le_bytes()] };
/// The footer's last bytes: how far back the trailer starts, and the magic.
const TAIL: usize = 8;
const PAGE_HEADER: usize = 4; // n u16 + restarts u16
/// What a page's one entry costs beyond its bytes, at most: its restart
/// offset, a `shared` of 0, and a head and a value length of two varint
/// bytes each.
const ENTRY_OVERHEAD: usize = 2 + 1 + 2 + 2;
/// Entries from one restart to the next.
const RESTART_INTERVAL: usize = 16;
/// A row-leaf entry's head: the entry is a delete marker.
const DELETED: usize = 1;
/// A row-leaf entry's head: a value follows the key.
const HAS_VALUE: usize = 2;

/// What a key holds in a tree: a value, or a delete marker that masks the
/// key's versions in older components.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    Put(Vec<u8>),
    Tombstone,
}

impl Entry {
    /// The value of a put; `None` for a delete marker.
    pub fn value(&self) -> Option<&[u8]> {
        match self {
            Entry::Put(value) => Some(value),
            Entry::Tombstone => None,
        }
    }

    /// [`Entry::value`], owned.
    pub fn into_value(self) -> Option<Vec<u8>> {
        match self {
            Entry::Put(value) => Some(value),
            Entry::Tombstone => None,
        }
    }
}

/// What a tree's leaves hold (see the module docs).
#[derive(Debug, Clone, Default)]
pub enum LeafShape {
    /// Row leaves of opaque values.
    #[default]
    Rows,
    /// Row leaves whose values are MBRs, each leaf's MBR in its fence.
    Spatial,
    /// Leaf groups of records that the layout takes apart.
    Groups(Arc<RecordLayout>),
}

impl LeafShape {
    /// The record layout of a tree of leaf groups.
    pub fn layout(&self) -> Option<&Arc<RecordLayout>> {
        match self {
            LeafShape::Groups(layout) => Some(layout),
            _ => None,
        }
    }
}

/// Maximum key+value size storable in one page.
pub const MAX_ENTRY: usize = PAGE_SIZE - PAGE_HEADER - ENTRY_OVERHEAD;

/// Maximum key size, about half a page: a row leaf keeps room for a value
/// beside any key, and a separator, at most a whole key, stays short of a
/// page in the fence index an open tree holds in memory.
pub const MAX_KEY: usize = PAGE_SIZE / 2 - 32;

/// Length of the longest common prefix of `a` and `b`.
pub(crate) fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// The shortest byte string `s` with `prev < s <= next`, for `prev < next`:
/// `next` up to and including the first byte that tells it from `prev`. It
/// routes a search between two sibling leaves as well as `next` itself would.
fn separator(prev: &[u8], next: &[u8]) -> Vec<u8> {
    next[..(common_prefix(prev, next) + 1).min(next.len())].to_vec()
}

/// The column directory of a tree built under `layout`, as its footer holds
/// it: a byte `1`, then each column's name, declared type and kind.
fn column_directory(layout: &RecordLayout) -> Vec<u8> {
    let mut out = vec![1];
    out.extend_from_slice(&(layout.columns().len() as u16).to_le_bytes());
    for column in layout.columns() {
        for text in [&column.name, &column.ty] {
            out.extend_from_slice(&(text.len() as u16).to_le_bytes());
            out.extend_from_slice(text.as_bytes());
        }
        out.extend_from_slice(&match column.kind {
            ColumnKind::Int { tag, width } => [0, tag, width],
            ColumnKind::Varint => [4, 0, 0],
            ColumnKind::Fixed { tag, width } => [1, tag, width],
            ColumnKind::Bytes { tag } => [2, tag, 0],
            ColumnKind::Tagged => [3, 0, 0],
        });
    }
    out
}

// ---------------------------------------------------------------------------
// The fence index
// ---------------------------------------------------------------------------

/// Each leaf's separator and the byte it starts at, in key order, and for
/// spatial leaves each leaf's MBR.
#[derive(Default)]
pub(crate) struct Fences {
    /// The separators, end to end.
    keys: Vec<u8>,
    /// Where each separator ends in `keys`.
    ends: Vec<u32>,
    /// The byte each leaf starts at.
    starts: Vec<u64>,
    /// Each leaf's MBR: the union of its puts' values (spatial leaves only).
    mbrs: Option<Vec<Rectangle>>,
}

/// A leaf as the audit sees it, decoded from its bytes: where it starts,
/// its first and its last key, how many entries it holds and, for spatial
/// leaves, the union of its puts' MBRs.
struct LeafBounds {
    start: u64,
    first: Vec<u8>,
    last: Vec<u8>,
    n: u64,
    mbr: Option<Rectangle>,
}

impl Fences {
    /// The fences of a tree of spatial leaves.
    fn spatial() -> Fences {
        Fences { mbrs: Some(Vec::new()), ..Fences::default() }
    }

    fn len(&self) -> usize {
        self.starts.len()
    }

    fn separator(&self, i: usize) -> &[u8] {
        let from = if i == 0 { 0 } else { self.ends[i - 1] as usize };
        &self.keys[from..self.ends[i] as usize]
    }

    fn push(&mut self, separator: &[u8], start: u64) {
        self.keys.extend_from_slice(separator);
        self.ends.push(self.keys.len() as u32);
        self.starts.push(start);
    }

    /// The byte the leaf `key` belongs in starts at: that of the last
    /// separator at or below it, or of the first leaf; the first without a
    /// key.
    fn find(&self, key: Option<&[u8]>) -> u64 {
        let Some(key) = key else { return self.starts.first().copied().unwrap_or(0) };
        // how many separators are at or below `key`
        let (mut lo, mut hi) = (0, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.separator(mid) <= key {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        self.starts.get(lo.saturating_sub(1)).copied().unwrap_or(0)
    }

    /// The byte each leaf whose MBR meets `query` starts at (spatial leaves).
    fn meeting<'a>(&'a self, query: &'a Rectangle) -> impl Iterator<Item = u64> + 'a {
        let mbrs = self.mbrs.as_deref().unwrap_or_default();
        mbrs.iter().zip(&self.starts).filter(|(mbr, _)| mbr.intersects(query)).map(|(_, &start)| start)
    }

    /// Per leaf: its separator's length and bytes, how far past the leaf
    /// before it the leaf starts, and for spatial leaves its MBR's 32 bytes.
    fn encode(&self, out: &mut Vec<u8>) {
        put_varint(out, self.len() as u64);
        let mut before = 0;
        for (i, &start) in self.starts.iter().enumerate() {
            let separator = self.separator(i);
            put_varint(out, separator.len() as u64);
            out.extend_from_slice(separator);
            put_varint(out, start - before);
            before = start;
            if let Some(mbr) = self.mbrs.as_ref().and_then(|mbrs| mbrs.get(i)) {
                out.extend_from_slice(&crate::spatial::rect_bytes(mbr));
            }
        }
    }

    fn decode(bytes: &[u8], spatial: bool) -> Result<Fences> {
        let mut c = Cursor::new(bytes);
        let (n, mut start): (usize, u64) = (c.varint()?, 0);
        let mut fences = if spatial { Fences::spatial() } else { Fences::default() };
        for _ in 0..n {
            let len = c.varint()?;
            let separator = c.bytes(len)?;
            start = start.checked_add(c.varint()?).ok_or_else(|| StorageError::Corrupt("fence index: a start past 2^64".into()))?;
            fences.push(separator, start);
            if let Some(mbrs) = &mut fences.mbrs {
                mbrs.push(crate::spatial::mbr_of(c.bytes(32)?)?);
            }
        }
        if c.pos() != bytes.len() {
            return Err(StorageError::Corrupt("fence index: bytes past its last fence".into()));
        }
        Ok(fences)
    }

    /// Checks the fence index against `leaves`, each leaf of the tree in key
    /// order, `leaf_end` and `entry_count`: separators ascend strictly; each
    /// leaf's first key is at or above its separator and above the last key
    /// of the leaf before it; the fences point at the leaves, whose starts
    /// ascend from 0 inside the leaf area; a spatial leaf's fence MBR is the
    /// union of its puts' MBRs, bit for bit; and the leaves hold
    /// `entry_count` entries between them. A broken rule is `Corrupt`,
    /// naming `component`.
    /// Debug builds run it at [`BTreeBuilder::finish`] and
    /// [`DiskBTree::open`], over leaves decoded where they were written and
    /// where they are read back ([`leaf_bounds`]).
    fn audit(&self, leaves: &[LeafBounds], leaf_end: u64, entry_count: u64, component: &str) -> Result<()> {
        let broken = |i: usize, rule: String| {
            StorageError::Corrupt(format!("{component}: the fence index, at leaf {i} of {}: {rule}", leaves.len()))
        };
        if self.len() != leaves.len() {
            return Err(broken(self.len(), format!("{} fences", self.len())));
        }
        for (i, leaf) in leaves.iter().enumerate() {
            let (separator, at) = (self.separator(i), self.starts[i]);
            if i > 0 && separator <= self.separator(i - 1) {
                return Err(broken(i, "its separator is not above the one before".into()));
            }
            if leaf.first.as_slice() < separator {
                return Err(broken(i, format!("its first key {:02x?} is below its separator {separator:02x?}", leaf.first)));
            }
            if i > 0 && leaf.first <= leaves[i - 1].last {
                return Err(broken(i, "its first key is not above the last key of the leaf before".into()));
            }
            let ascends = if i == 0 { at == 0 } else { at > self.starts[i - 1] };
            if !ascends || at >= leaf_end || at != leaf.start {
                return Err(broken(i, format!("it starts at byte {}, its fence says {at}, the leaf area ends at {leaf_end}", leaf.start)));
            }
            let fenced = self.mbrs.as_ref().and_then(|mbrs| mbrs.get(i)).map(crate::spatial::rect_bytes);
            if fenced != leaf.mbr.as_ref().map(crate::spatial::rect_bytes) {
                return Err(broken(i, format!("its fence MBR {:?} is not the union of its entries', {:?}", self.mbrs.as_ref().and_then(|m| m.get(i)), leaf.mbr)));
            }
        }
        let held: u64 = leaves.iter().map(|leaf| leaf.n).sum();
        if held != entry_count {
            return Err(StorageError::Corrupt(format!("{component}: its leaves hold {held} entries, its trailer says {entry_count}")));
        }
        Ok(())
    }
}

/// The leaf that `bytes` begin with — a row-leaf page, spatial if the flag
/// says so, or a leaf group of `shape` — and that starts at byte `start` of
/// its file, decoded for the audit ([`Fences::audit`]), and the bytes it
/// takes. A page is decoded entry by entry ([`PageView::audit`]); a group,
/// its first and last key.
fn leaf_bounds(bytes: &[u8], start: u64, shape: Option<&GroupShape>, spatial: bool) -> Result<(LeafBounds, u64)> {
    let Some(shape) = shape else {
        let leaf = PageView::new(le::try_bytes_at(bytes, 0, PAGE_SIZE)?)?.audit(start, spatial)?;
        return Ok((leaf, PAGE_SIZE as u64));
    };
    let dir = GroupDir::parse(le::try_bytes_at(bytes, 0, shape.dir_len())?, shape)?;
    let mut group = le::try_bytes_at(bytes, 0, dir.len as usize)?;
    let mut view = GroupView { shape, dir: &dir, src: &mut group };
    let prefix = view.key_prefix()?.to_vec();
    let first = [&prefix, view.key_suffix(prefix.len(), 0)?].concat();
    let last = [&prefix, view.key_suffix(prefix.len(), dir.n - 1)?].concat();
    Ok((LeafBounds { start, first, last, n: dir.n as u64, mbr: None }, dir.len))
}

// ---------------------------------------------------------------------------
// Page construction & parsing
// ---------------------------------------------------------------------------

struct PageBuilder {
    /// The entries so far, as the page holds them.
    bytes: Vec<u8>,
    /// Where in the page each restart starts.
    restarts: Vec<u16>,
    /// How many entries `bytes` holds.
    n: usize,
    /// The key added last.
    last: Vec<u8>,
    /// The union of the MBRs of its puts so far (spatial leaves).
    mbr: Rectangle,
}

/// Bytes the LEB128 varint of `v` takes.
fn varint_len(v: usize) -> usize {
    (usize::BITS - v.leading_zeros()).max(1).div_ceil(7) as usize
}

/// The head of an entry whose key keeps `unshared` bytes of its own and that
/// holds `value` (`None`: a delete marker), and the value it stores: none
/// for a delete marker or an empty value.
fn head(unshared: usize, value: Option<&[u8]>) -> (usize, Option<&[u8]>) {
    match value {
        None => (unshared << 2 | DELETED, None),
        Some([]) => (unshared << 2, None),
        Some(value) => (unshared << 2 | HAS_VALUE, Some(value)),
    }
}

impl PageBuilder {
    fn new() -> Self {
        PageBuilder { bytes: Vec::new(), restarts: Vec::new(), n: 0, last: Vec::new(), mbr: Rectangle::empty() }
    }

    /// What the next entry, under `key`, keeps of the key before it: nothing
    /// at a restart.
    fn shared(&self, key: &[u8]) -> usize {
        if self.n.is_multiple_of(RESTART_INTERVAL) {
            0
        } else {
            common_prefix(&self.last, key)
        }
    }

    /// Whether the page still fits its size with the entry of `key` and
    /// `value` added: the entry costs its delta against the key before it,
    /// its value if it stores one, and a restart its offset.
    fn fits(&self, key: &[u8], value: Option<&[u8]>) -> bool {
        let (shared, restarts) = (self.shared(key), (self.n + 1).div_ceil(RESTART_INTERVAL));
        let unshared = key.len() - shared;
        let (head, stored) = head(unshared, value);
        let value = stored.map_or(0, |v| varint_len(v.len()) + v.len());
        let entry = varint_len(shared) + varint_len(head) + unshared + value;
        PAGE_HEADER + self.bytes.len() + entry + 2 * restarts <= PAGE_SIZE
    }

    /// Appends the entry of `key` and `value`, whose MBR is `mbr` in a
    /// spatial leaf.
    fn push(&mut self, key: &[u8], value: Option<&[u8]>, mbr: Option<&Rectangle>) {
        if let Some(mbr) = mbr {
            self.mbr = self.mbr.union(mbr);
        }
        let shared = self.shared(key);
        if self.n.is_multiple_of(RESTART_INTERVAL) {
            self.restarts.push((PAGE_HEADER + self.bytes.len()) as u16);
        }
        let (head, stored) = head(key.len() - shared, value);
        put_varint(&mut self.bytes, shared as u64);
        put_varint(&mut self.bytes, head as u64);
        if let Some(value) = stored {
            put_varint(&mut self.bytes, value.len() as u64);
        }
        self.bytes.extend_from_slice(&key[shared..]);
        self.bytes.extend_from_slice(stored.unwrap_or_default());
        self.last.clear();
        self.last.extend_from_slice(key);
        self.n += 1;
    }

    fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// The page's bytes.
    fn emit(&self) -> Vec<u8> {
        let mut page = Vec::with_capacity(PAGE_SIZE);
        page.extend_from_slice(&(self.n as u16).to_le_bytes());
        page.extend_from_slice(&(self.restarts.len() as u16).to_le_bytes());
        page.extend_from_slice(&self.bytes);
        page.resize(PAGE_SIZE - 2 * self.restarts.len(), 0);
        for at in &self.restarts {
            page.extend_from_slice(&at.to_le_bytes());
        }
        page
    }
}

/// Where a walk of a page stands: at entry `idx` (the page's length, past
/// its last), whose value is `value` of the page — `None` for a delete
/// marker — and whose successor starts at byte `next`.
struct Pos {
    idx: usize,
    value: Option<Range<usize>>,
    next: usize,
}

/// Zero-copy view over a leaf page. What it reads comes off disk, so a
/// corrupt page surfaces as `StorageError::Corrupt`, not a panic.
struct PageView<'a> {
    page: &'a [u8],
    n: usize,
    restarts: usize,
    /// Where the restart array starts: the entries end before it.
    end: usize,
}

impl<'a> PageView<'a> {
    fn new(page: &'a [u8]) -> Result<Self> {
        let (n, restarts) = (le::try_u16_at(page, 0)? as usize, le::try_u16_at(page, 2)? as usize);
        match page.len().checked_sub(2 * restarts) {
            Some(end) if end >= PAGE_HEADER && restarts == n.div_ceil(RESTART_INTERVAL) => {
                Ok(PageView { page, n, restarts, end })
            }
            _ => Err(StorageError::Corrupt(format!(
                "a B+-tree page of {} bytes says it holds {n} entries and {restarts} restarts",
                page.len(),
            ))),
        }
    }

    /// Entry `idx`, which starts at byte `off`: its key — the first `shared`
    /// bytes of `key`, which holds the key before it, then its own — is left
    /// in `key`. An `idx` past the last entry is the place past the last,
    /// and leaves `key` as it is.
    fn at(&self, idx: usize, off: usize, key: &mut Vec<u8>) -> Result<Pos> {
        if idx >= self.n {
            return Ok(Pos { idx: self.n, value: None, next: off });
        }
        let mut entry = Cursor::at(&self.page[..self.end], off);
        let (shared, head): (usize, usize) = (entry.varint()?, entry.varint()?);
        let value_len: usize = if head & HAS_VALUE != 0 { entry.varint()? } else { 0 };
        let corrupt = |what: String| StorageError::Corrupt(format!("entry {idx} of a B+-tree page {what}"));
        if shared > key.len() || (shared > 0 && idx.is_multiple_of(RESTART_INTERVAL)) {
            return Err(corrupt(format!("keeps {shared} bytes of a key of {}", key.len())));
        }
        if head & (DELETED | HAS_VALUE) == DELETED | HAS_VALUE || (head & HAS_VALUE != 0 && value_len == 0) {
            return Err(corrupt(format!("has the head {head:#x} and a value of {value_len} bytes")));
        }
        key.truncate(shared);
        key.extend_from_slice(entry.bytes(head >> 2)?);
        let value = entry.pos();
        entry.bytes(value_len)?;
        let value = (head & DELETED == 0).then_some(value..entry.pos());
        Ok(Pos { idx, value, next: entry.pos() })
    }

    /// The first entry, its whole key left in `key`.
    fn first(&self, key: &mut Vec<u8>) -> Result<Pos> {
        self.at(0, PAGE_HEADER, key)
    }

    /// Restart `r`, its whole key left in `key`.
    fn restart(&self, r: usize, key: &mut Vec<u8>) -> Result<Pos> {
        let off = le::try_u16_at(self.page, self.end + 2 * r)? as usize;
        self.at(r * RESTART_INTERVAL, off, key)
    }

    /// The first entry whose key is not `before` the target — keys ascend,
    /// so every key ahead of it is and none after it — with its key left in
    /// `key`: a binary search of the restart keys, then a walk of at most one
    /// interval.
    fn seek(&self, before: impl Fn(&[u8]) -> bool, key: &mut Vec<u8>) -> Result<Pos> {
        let (mut lo, mut hi) = (0, self.restarts);
        while lo < hi {
            let mid = (lo + hi) / 2;
            self.restart(mid, key)?;
            if before(key) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        if lo == 0 {
            return self.first(key);
        }
        let mut at = self.restart(lo - 1, key)?;
        loop {
            at = self.at(at.idx + 1, at.next, key)?;
            if at.idx == self.n || !before(key) {
                return Ok(at);
            }
        }
    }

    /// Decodes every entry, walking from the first: the keys ascend
    /// strictly, each restart decodes, from its offset, to the entry the
    /// walk reaches there, and in a `spatial` leaf every value is an MBR.
    /// Returns the leaf as the audit sees it, as starting at byte `start`.
    fn audit(&self, start: u64, spatial: bool) -> Result<LeafBounds> {
        let broken = |idx: usize, what: &str| StorageError::Corrupt(format!("entry {idx} of a row leaf: {what}"));
        if self.n == 0 {
            return Err(broken(0, "a leaf holds none"));
        }
        let (mut key, mut restart, mut last) = (Vec::new(), Vec::new(), Vec::new());
        let mut at = self.first(&mut key)?;
        let first = key.clone();
        let mut mbr = spatial.then(Rectangle::empty);
        while at.idx < self.n {
            if let (Some(mbr), Some(value)) = (&mut mbr, at.value.clone()) {
                *mbr = mbr.union(&crate::spatial::mbr_of(&self.page[value]).map_err(|e| broken(at.idx, &e.to_string()))?);
            }
            if at.idx > 0 && key <= last {
                return Err(broken(at.idx, "its key is not above the one before"));
            }
            if at.idx.is_multiple_of(RESTART_INTERVAL) {
                let from = self.restart(at.idx / RESTART_INTERVAL, &mut restart)?;
                if from.next != at.next || restart != key {
                    return Err(broken(at.idx, "its restart decodes to another entry"));
                }
            }
            last.clone_from(&key);
            at = self.at(at.idx + 1, at.next, &mut key)?;
        }
        Ok(LeafBounds { start, first, last, n: self.n as u64, mbr })
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// The leaf area under construction, in one of the two shapes.
enum Leaves {
    Pages {
        leaf: PageBuilder,
        written: u64,
    },
    Groups {
        group: Box<GroupBuilder>,
        /// Encoded groups not yet cut into pages.
        buf: Vec<u8>,
        /// Bytes of the leaf area encoded so far: where the next group starts.
        written: u64,
        /// Holds `storage.lsm.string_bytes_*`, bumped per group.
        hub: Arc<LsmMetricsHub>,
    },
}

/// Streams sorted entries into a new B+ tree component file.
pub struct BTreeBuilder {
    writer: PageFileWriter,
    leaves: Leaves,
    /// A fence per leaf begun so far.
    fences: Fences,
    /// Each leaf written, decoded from the bytes it was written as, for the
    /// audit at `finish` (kept by debug builds only).
    bounds: Vec<LeafBounds>,
    /// The key added last (empty before the first): one buffer, reused.
    last_key: Vec<u8>,
    first_key: Vec<u8>,
    entry_count: u64,
    /// Each written key's hash pair (16 bytes a key) when the component has
    /// a bloom filter: it is sized at `finish` for the keys written, which a
    /// merge, whose inputs may hold the same keys, knows only then.
    bloom: Option<Vec<(u64, u64)>>,
}

impl BTreeBuilder {
    /// Starts building a tree of row leaves into `writer`, with a bloom
    /// filter over its keys when `bloom` is set.
    pub fn new(writer: PageFileWriter, bloom: bool) -> Self {
        Self::over(writer, bloom, Leaves::Pages { leaf: PageBuilder::new(), written: 0 })
    }

    /// [`BTreeBuilder::new`] for a tree of leaves of `shape`.
    pub fn with_shape(writer: PageFileWriter, bloom: bool, shape: &LeafShape) -> Self {
        match shape {
            LeafShape::Rows => Self::new(writer, bloom),
            LeafShape::Spatial => BTreeBuilder { fences: Fences::spatial(), ..Self::new(writer, bloom) },
            LeafShape::Groups(layout) => Self::with_layout(writer, bloom, Arc::clone(layout)),
        }
    }

    /// [`BTreeBuilder::new`] for a tree of leaf groups: its values are rows
    /// that `layout` takes apart.
    pub fn with_layout(writer: PageFileWriter, bloom: bool, layout: Arc<RecordLayout>) -> Self {
        let group = Box::new(GroupBuilder::new(Arc::new(GroupShape::new(layout))));
        let hub = Arc::clone(writer.stats().lsm());
        Self::over(writer, bloom, Leaves::Groups { group, buf: Vec::new(), written: 0, hub })
    }

    fn over(writer: PageFileWriter, bloom: bool, leaves: Leaves) -> Self {
        BTreeBuilder {
            writer,
            leaves,
            fences: Fences::default(),
            bounds: Vec::new(),
            last_key: Vec::new(),
            first_key: Vec::new(),
            entry_count: 0,
            bloom: bloom.then(Vec::new),
        }
    }

    /// Appends the next entry: `key` holds `value`, or is a delete marker
    /// under `None`. Keys must arrive in strictly increasing order. A tree
    /// of leaf groups takes the value, a row of its layout, apart here.
    pub fn add(&mut self, key: &[u8], value: Option<&[u8]>) -> Result<()> {
        let size = key.len() + value.map_or(0, <[u8]>::len);
        if size > MAX_ENTRY {
            return Err(StorageError::RecordTooLarge { size, max: MAX_ENTRY });
        }
        if matches!(self.leaves, Leaves::Groups { .. }) {
            return self.add_to_group(key, |group| match value {
                Some(row) => group.push_row(key, row),
                None => {
                    group.push(key, None);
                    Ok(())
                }
            });
        }
        self.admit(key)?;
        let mbr = match (&self.fences.mbrs, value) {
            (Some(_), Some(value)) => Some(crate::spatial::mbr_of(value)?),
            _ => None,
        };
        let mut starts = None;
        if let Leaves::Pages { leaf, written } = &mut self.leaves {
            if !leaf.fits(key, value) {
                Self::finish_leaf(&mut self.writer, leaf, written, &mut self.fences, &mut self.bounds)?;
            }
            if leaf.is_empty() {
                starts = Some(*written * PAGE_SIZE as u64);
            }
            leaf.push(key, value, mbr.as_ref());
        }
        self.admitted(key, starts);
        Ok(())
    }

    /// [`BTreeBuilder::add`] to a tree of leaf groups for an entry already
    /// taken apart (a merge hands on the cells it read): its cells, or none
    /// for a delete marker.
    pub fn add_cells(&mut self, key: &[u8], cells: Option<&Cells>) -> Result<()> {
        self.add_to_group(key, |group| {
            group.push(key, cells);
            Ok(())
        })
    }

    /// Makes room in the group under construction — writing it out if it is
    /// full — for the entry under `key` that `push` adds to it.
    fn add_to_group(&mut self, key: &[u8], push: impl FnOnce(&mut GroupBuilder) -> Result<()>) -> Result<()> {
        self.admit(key)?;
        let Leaves::Groups { group, buf, written, hub } = &mut self.leaves else {
            return Err(StorageError::Invalid("cells added to a tree of row leaves".into()));
        };
        if group.is_full() {
            Self::finish_group(&mut self.writer, group, buf, written, hub, &mut self.bounds)?;
        }
        let starts = (group.len() == 0).then_some(*written);
        push(group)?;
        self.admitted(key, starts);
        Ok(())
    }

    /// Whether `key` may come next.
    fn admit(&self, key: &[u8]) -> Result<()> {
        if key.len() > MAX_KEY {
            return Err(StorageError::RecordTooLarge { size: key.len(), max: MAX_KEY });
        }
        if self.entry_count > 0 && self.last_key.as_slice() >= key {
            return Err(StorageError::Invalid(
                "bulk-load keys must be strictly increasing".into(),
            ));
        }
        Ok(())
    }

    /// `key` is in its leaf, which it begins if `starts` says at what byte.
    fn admitted(&mut self, key: &[u8], starts: Option<u64>) {
        if let Some(start) = starts {
            self.fences.push(&separator(&self.last_key, key), start);
        }
        if self.entry_count == 0 {
            self.first_key = key.to_vec();
        }
        if let Some(pairs) = &mut self.bloom {
            pairs.push(hash_pair(key));
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.entry_count += 1;
    }

    /// Writes the current leaf, and its MBR into a spatial tree's `fences`.
    /// Leaves occupy pages `0..n_leaves` in order, so a leaf's next is the
    /// page after it; a cursor stops at the leaf area's end. A debug build
    /// decodes the page as written into `bounds`.
    fn finish_leaf(
        writer: &mut PageFileWriter,
        leaf: &mut PageBuilder,
        written: &mut u64,
        fences: &mut Fences,
        bounds: &mut Vec<LeafBounds>,
    ) -> Result<()> {
        if leaf.is_empty() {
            return Ok(());
        }
        let leaf = std::mem::replace(leaf, PageBuilder::new());
        let page = leaf.emit();
        if let Some(mbrs) = &mut fences.mbrs {
            mbrs.push(leaf.mbr);
        }
        if cfg!(debug_assertions) {
            bounds.push(leaf_bounds(&page, *written * PAGE_SIZE as u64, None, fences.mbrs.is_some())?.0);
        }
        *written += 1;
        writer.append(&page)?;
        Ok(())
    }

    /// Encodes the current group behind the ones before it and writes the
    /// whole pages that completes. A debug build decodes the group as
    /// encoded into `bounds`.
    fn finish_group(
        writer: &mut PageFileWriter,
        group: &mut GroupBuilder,
        buf: &mut Vec<u8>,
        written: &mut u64,
        hub: &LsmMetricsHub,
        bounds: &mut Vec<LeafBounds>,
    ) -> Result<()> {
        if group.len() == 0 {
            return Ok(());
        }
        let before = buf.len();
        let (plain, coded) = group.encode(buf);
        hub.string_bytes_plain.add(plain as u64);
        hub.string_bytes_coded.add(coded as u64);
        if cfg!(debug_assertions) {
            bounds.push(leaf_bounds(&buf[before..], *written, Some(group.shape().as_ref()), false)?.0);
        }
        *written += (buf.len() - before) as u64;
        let whole = buf.len() / PAGE_SIZE * PAGE_SIZE;
        for page in buf[..whole].chunks_exact(PAGE_SIZE) {
            writer.append(page)?;
        }
        buf.drain(..whole);
        Ok(())
    }

    /// Finalizes the tree: writes the last leaf and the footer behind it.
    /// Returns the opened component description.
    pub fn finish(mut self) -> Result<BuiltTree> {
        // the leaf area's end, and the bytes of its last page not written yet
        let (leaf_end, shape, mut tail) = match &mut self.leaves {
            Leaves::Pages { leaf, written } => {
                Self::finish_leaf(&mut self.writer, leaf, written, &mut self.fences, &mut self.bounds)?;
                (*written * PAGE_SIZE as u64, None, Vec::new())
            }
            Leaves::Groups { group, buf, written, hub } => {
                Self::finish_group(&mut self.writer, group, buf, written, hub, &mut self.bounds)?;
                (*written, Some(Arc::clone(group.shape())), std::mem::take(buf))
            }
        };
        if cfg!(debug_assertions) {
            self.fences.audit(&self.bounds, leaf_end, self.entry_count, &self.writer.name())?;
        }
        let bloom = self.bloom.as_deref().and_then(BloomFilter::of_pairs);
        let mut fences = Vec::new();
        self.fences.encode(&mut fences);
        let bloom_bytes = bloom.as_ref().map(BloomFilter::to_bytes).unwrap_or_default();
        let columns = shape.as_ref().map(|s| column_directory(&s.layout)).unwrap_or_default();
        let mut tables = Vec::new();
        if let Some(shape) = &shape {
            shape.write_tables(&mut tables);
        }
        let regions = [&fences, &bloom_bytes, &columns, &tables];
        let footer = tail.len();
        regions.iter().for_each(|region| tail.extend_from_slice(region));
        let trailer = tail.len();
        tail.extend_from_slice(&self.entry_count.to_le_bytes());
        tail.extend_from_slice(&leaf_end.to_le_bytes());
        regions.iter().for_each(|region| tail.extend_from_slice(&(region.len() as u32).to_le_bytes()));
        let (min_key, max_key) = (self.first_key, self.last_key);
        for key in [&min_key, &max_key] {
            tail.extend_from_slice(&(key.len() as u32).to_le_bytes());
            tail.extend_from_slice(key);
        }
        let sum = le::fnv1a(&tail[footer..]);
        tail.extend_from_slice(&sum.to_le_bytes());
        tail.resize((tail.len() + TAIL).next_multiple_of(PAGE_SIZE) - TAIL, 0);
        tail.extend_from_slice(&((tail.len() - trailer) as u32).to_le_bytes());
        let format = if self.fences.mbrs.is_some() { SPATIAL_FORMAT } else { FORMAT };
        tail.extend_from_slice(format.headers[0]);
        for page in tail.chunks_exact(PAGE_SIZE) {
            self.writer.append(page)?;
        }
        let file = self.writer.finish()?;
        Ok(BuiltTree {
            file,
            fences: self.fences,
            leaf_end,
            entry_count: self.entry_count,
            bloom,
            min_key,
            max_key,
            shape,
        })
    }
}

/// Result of a bulk load: everything needed to construct a [`DiskBTree`].
pub struct BuiltTree {
    pub file: FileId,
    fences: Fences,
    leaf_end: u64,
    pub entry_count: u64,
    pub bloom: Option<BloomFilter>,
    pub min_key: Vec<u8>,
    pub max_key: Vec<u8>,
    shape: Option<Arc<GroupShape>>,
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// The end of a component file, from page `first` on, read back as far as
/// its reader needs.
struct FileEnd {
    first: u64,
    bytes: Vec<u8>,
}

impl FileEnd {
    /// Reads, in front of what it holds, the pages byte `from` needs.
    fn reach(&mut self, manager: &FileManager, file: FileId, from: u64) -> Result<()> {
        let page = from / PAGE_SIZE as u64;
        if page < self.first {
            let mut before = vec![0; (self.first - page) as usize * PAGE_SIZE];
            manager.read_pages_into(file, page, &mut before)?;
            before.extend_from_slice(&self.bytes);
            (self.first, self.bytes) = (page, before);
        }
        Ok(())
    }

    /// The file's bytes from `at` to its end, which [`FileEnd::reach`] read.
    fn bytes_at(&self, at: u64) -> &[u8] {
        &self.bytes[(at - self.first * PAGE_SIZE as u64) as usize..]
    }
}

/// A read-only handle on a B+ tree component; all page reads go through the
/// buffer cache but a merge's ([`DiskBTree::scan_uncached`]).
pub struct DiskBTree {
    cache: Arc<BufferCache>,
    file: FileId,
    /// Where each leaf starts, found by its separator.
    fences: Fences,
    /// Where the leaf area ends, in bytes from the start of the file.
    leaf_end: u64,
    entry_count: u64,
    bloom: Option<BloomFilter>,
    min_key: Vec<u8>,
    max_key: Vec<u8>,
    /// Set for a tree of leaf groups.
    shape: Option<Arc<GroupShape>>,
}

impl DiskBTree {
    /// Wraps a freshly built tree.
    pub fn from_built(cache: Arc<BufferCache>, built: BuiltTree) -> Self {
        DiskBTree {
            cache,
            file: built.file,
            fences: built.fences,
            leaf_end: built.leaf_end,
            entry_count: built.entry_count,
            bloom: built.bloom,
            min_key: built.min_key,
            max_key: built.max_key,
            shape: built.shape,
        }
    }

    /// Opens an existing component file by reading its footer, as a tree of
    /// the leaf `shape` it was written with: leaf groups under the layout
    /// they were written with.
    pub fn open(cache: Arc<BufferCache>, file: FileId, shape: &LeafShape) -> Result<Self> {
        let manager = cache.manager();
        let n_pages = manager.page_count(file)?;
        if n_pages == 0 {
            return Err(StorageError::Corrupt("empty btree file".into()));
        }
        let mut end = FileEnd { first: n_pages - 1, bytes: manager.read_page(file, n_pages - 1)? };
        let mut tail = Cursor::at(&end.bytes, PAGE_SIZE - TAIL);
        let back = u64::from(tail.u32()?);
        let spatial = matches!(shape, LeafShape::Spatial);
        tail.header(if spatial { &SPATIAL_FORMAT } else { &FORMAT })?;
        let corrupt = |what: &str| StorageError::Corrupt(format!("btree footer: {what}"));
        let trailer_at = (n_pages * PAGE_SIZE as u64 - TAIL as u64)
            .checked_sub(back)
            .ok_or_else(|| corrupt("the trailer starts before the file"))?;
        end.reach(manager, file, trailer_at)?;
        let mut trailer = Cursor::new(end.bytes_at(trailer_at));
        let (entry_count, leaf_end) = (trailer.u64()?, trailer.u64()?);
        let lens = [trailer.u32()?, trailer.u32()?, trailer.u32()?, trailer.u32()?].map(|n| n as usize);
        let min_len = trailer.u32()? as usize;
        let min_key = trailer.bytes(min_len)?.to_vec();
        let max_len = trailer.u32()? as usize;
        let max_key = trailer.bytes(max_len)?.to_vec();
        let summed = trailer.pos();
        let sum = trailer.u32()?;
        if lens.iter().try_fold(leaf_end, |at, &len| at.checked_add(len as u64)) != Some(trailer_at) {
            return Err(corrupt("regions out of order"));
        }
        end.reach(manager, file, leaf_end)?;
        let regions = end.bytes_at(leaf_end);
        let regions = &regions[..(trailer_at - leaf_end) as usize + summed];
        if le::fnv1a(regions) != sum {
            return Err(corrupt("checksum mismatch"));
        }
        let mut c = Cursor::new(regions);
        let [fences, bloom, columns, tables] = lens;
        let (fences, bloom, columns, tables) = (c.bytes(fences)?, c.bytes(bloom)?, c.bytes(columns)?, c.bytes(tables)?);
        let bloom = match bloom {
            [] => None,
            bytes => Some(BloomFilter::from_bytes(bytes).ok_or_else(|| corrupt("bad bloom filter"))?),
        };
        let shape = match shape.layout() {
            None if columns.is_empty() && tables.is_empty() => None,
            Some(layout) if columns == column_directory(layout) => {
                Some(Arc::new(GroupShape::with_tables(Arc::clone(layout), tables)?))
            }
            _ => {
                return Err(StorageError::Corrupt(
                    "the tree's column directory is not that of the layout it is opened under".into(),
                ))
            }
        };
        let fences = Fences::decode(fences, spatial)?;
        let tree = DiskBTree { cache, file, fences, leaf_end, entry_count, bloom, min_key, max_key, shape };
        if cfg!(debug_assertions) {
            tree.audit()?;
        }
        Ok(tree)
    }

    /// [`Fences::audit`] of an opened tree, against its leaves as its file
    /// holds them. It reads the file itself, past the page layer, so that a
    /// debug build counts, caches and faults the same I/O as a release
    /// build.
    fn audit(&self) -> Result<()> {
        let manager = self.cache.manager();
        let name = manager.name_of(self.file)?;
        let image = std::fs::read(manager.dir().join(&name))?;
        let mut leaves = Vec::with_capacity(self.fences.len());
        let mut at = 0;
        while at < self.leaf_end {
            let (leaf, len) = leaf_bounds(image.get(at as usize..).unwrap_or_default(), at, self.shape.as_deref(), self.fences.mbrs.is_some())?;
            leaves.push(leaf);
            at += len;
        }
        if at != self.leaf_end {
            return Err(StorageError::Corrupt(format!("{name}: its last leaf runs past the leaf area's end, {}", self.leaf_end)));
        }
        self.fences.audit(&leaves, self.leaf_end, self.entry_count, &name)
    }

    /// The component's file id.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.entry_count
    }

    /// True when the tree holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Smallest key (empty for an empty tree).
    pub fn min_key(&self) -> &[u8] {
        &self.min_key
    }

    /// Largest key.
    pub fn max_key(&self) -> &[u8] {
        &self.max_key
    }

    /// True when the bloom filter (if any) admits the key.
    pub fn may_contain(&self, key: &[u8]) -> bool {
        self.bloom.as_ref().is_none_or(|b| b.may_contain(key))
    }

    /// Whether `key` lies outside what the tree can hold: past its smallest
    /// or largest key, or refused by its bloom filter.
    fn rules_out(&self, key: &[u8]) -> bool {
        self.entry_count == 0
            || !self.may_contain(key)
            || key < self.min_key.as_slice()
            || key > self.max_key.as_slice()
    }

    /// Point lookup: what the tree holds under `key`, if anything. Consults
    /// the bloom filter first.
    pub fn get(&self, key: &[u8]) -> Result<Option<Entry>> {
        if self.shape.is_some() {
            return self.probe(key)?.map(BTreeRangeIter::into_entry).transpose();
        }
        if self.rules_out(key) {
            return Ok(None);
        }
        let page = self.cache.get(self.file, self.fences.find(Some(key)) / PAGE_SIZE as u64)?;
        let (view, mut found) = (PageView::new(&page)?, Vec::with_capacity(key.len()));
        let at = view.seek(|k| k < key, &mut found)?;
        Ok((at.idx < view.n && found == key).then(|| match at.value {
            Some(value) => Entry::Put(page[value].to_vec()),
            None => Entry::Tombstone,
        }))
    }

    /// A cursor standing at `key`, if the tree has it. Consults the bloom
    /// filter first.
    pub fn probe(&self, key: &[u8]) -> Result<Option<BTreeRangeIter>> {
        if self.rules_out(key) {
            return Ok(None);
        }
        let at = self.range(Bound::Included(key), Bound::Unbounded)?;
        Ok((at.key() == Some(key)).then_some(at))
    }

    /// Range scan over `[lo, hi]` with the given bounds (`Bound::Unbounded`
    /// for open ends): a cursor at the first entry in range, and an iterator
    /// of `(key, entry)` pairs in key order.
    pub fn range(
        &self,
        lo: Bound<&[u8]>,
        hi: Bound<Vec<u8>>,
    ) -> Result<BTreeRangeIter> {
        if self.entry_count == 0 {
            return Ok(BTreeRangeIter::empty());
        }
        let tree = TreeRef { cache: Arc::clone(&self.cache), file: self.file, direct: None };
        let start = match lo {
            Bound::Unbounded => None,
            Bound::Included(k) | Bound::Excluded(k) => Some((k, matches!(lo, Bound::Excluded(_)))),
        };
        let at = self.fences.find(start.map(|(k, _)| k));
        self.cursor(tree, at, start, hi)
    }

    /// Hands `visit` every entry — key, and value or `None` for a delete
    /// marker — of the leaves of a spatial tree whose fence MBR meets
    /// `query`, each leaf read through the buffer cache. Returns how many
    /// entries it handed over.
    pub fn search_leaves(&self, query: &Rectangle, mut visit: impl FnMut(&[u8], Option<&[u8]>) -> Result<()>) -> Result<u64> {
        if self.fences.mbrs.is_none() {
            return Err(StorageError::Invalid("a search by MBR of a tree whose leaves are not spatial".into()));
        }
        let (mut key, mut visited) = (Vec::with_capacity(32), 0);
        for start in self.fences.meeting(query) {
            let page = self.cache.get(self.file, start / PAGE_SIZE as u64)?;
            let view = PageView::new(&page)?;
            let mut at = view.first(&mut key)?;
            while at.idx < view.n {
                visit(&key, at.value.clone().map(|value| &page[value]))?;
                at = view.at(at.idx + 1, at.next, &mut key)?;
            }
            visited += view.n as u64;
        }
        Ok(visited)
    }

    /// Full scan in key order.
    pub fn scan(&self) -> Result<BTreeRangeIter> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Full scan in key order outside the buffer cache (see [`PageStream`]):
    /// the leaf area is the file's first pages, in key order.
    pub fn scan_uncached(&self) -> Result<BTreeRangeIter> {
        if self.entry_count == 0 {
            return Ok(BTreeRangeIter::empty());
        }
        let direct = PageStream::new(Arc::clone(self.cache.manager()), self.file);
        let tree = TreeRef { cache: Arc::clone(&self.cache), file: self.file, direct: Some(direct) };
        self.cursor(tree, 0, None, Bound::Unbounded)
    }

    /// A cursor over `tree`'s leaf area from the leaf that starts at byte
    /// `at`: at the first entry from `start` on — past it, if the flag says
    /// so — that is within `hi`.
    fn cursor(&self, tree: TreeRef, at: u64, start: Option<(&[u8], bool)>, hi: Bound<Vec<u8>>) -> Result<BTreeRangeIter> {
        let leaf = match &self.shape {
            None => Leaf::Page(PageCursor::open(tree, at / PAGE_SIZE as u64, self.leaf_end, start)?),
            Some(shape) => Leaf::Group(GroupCursor::open(tree, Arc::clone(shape), self.leaf_end, at, start)?),
        };
        let mut iter = BTreeRangeIter { leaf: Some(leaf), ended: false, hi, key: Vec::with_capacity(32) };
        iter.settle(false)?;
        Ok(iter)
    }
}

struct TreeRef {
    cache: Arc<BufferCache>,
    file: FileId,
    /// Where pages come from instead of the cache, if set.
    direct: Option<PageStream>,
}

/// A place in a tree of row leaves.
struct PageCursor {
    tree: TreeRef,
    /// The leaf the cursor stands in, and its number.
    page: Arc<Vec<u8>>,
    page_no: u64,
    pos: Pos,
    /// The key of the entry at `pos`: the next entry's delta applies to it.
    key: Vec<u8>,
    /// Where the leaf area ends: the footer behind it may begin with any byte.
    leaf_end: u64,
}

impl PageCursor {
    fn open(mut tree: TreeRef, page_no: u64, leaf_end: u64, start: Option<(&[u8], bool)>) -> Result<PageCursor> {
        let page = tree.leaf(page_no, false)?;
        let (view, mut key) = (PageView::new(&page)?, Vec::with_capacity(32));
        let pos = match start {
            None => view.first(&mut key)?,
            Some((target, after)) => view.seek(|k| if after { k <= target } else { k < target }, &mut key)?,
        };
        Ok(PageCursor { tree, page, page_no, pos, key, leaf_end })
    }

    /// Moves to the next entry of the page, or past its last.
    fn step(&mut self) -> Result<()> {
        self.pos = PageView::new(&self.page)?.at(self.pos.idx + 1, self.pos.next, &mut self.key)?;
        Ok(())
    }
}

impl TreeRef {
    /// Leaf page `page_no`; `sequential` when it follows the one read last.
    fn leaf(&mut self, page_no: u64, sequential: bool) -> Result<Arc<Vec<u8>>> {
        match &mut self.direct {
            Some(pages) => pages.page(page_no).map(|p| Arc::new(p.to_vec())),
            // Leaves are packed sequentially at the front of the file, so
            // next-leaf fetches are the readahead path.
            None if sequential => self.cache.get_sequential(self.file, page_no),
            None => self.cache.get(self.file, page_no),
        }
    }
}

/// A page a group reader holds on to, by its number.
type Pin = Option<(u64, Arc<Vec<u8>>)>;

/// The bytes of the leaf group a cursor stands in. Through the buffer cache
/// a read pins the page it needs and keeps it, with the one before it, for
/// the next reads of the same chunk — cells are read in order, so a page is
/// fetched once per chunk, also where a value lies across two, and a chunk
/// nobody reads is never touched; a merge, which reads every chunk, takes
/// the group whole from its [`PageStream`].
struct GroupBytes {
    tree: TreeRef,
    /// The group's first byte in the file.
    start: u64,
    /// Per chunk, the two pages read last, the latest first.
    pins: Vec<[Pin; 2]>,
    /// The page fetched last, for any chunk.
    latest: Pin,
    /// The whole group, when read outside the cache.
    whole: Vec<u8>,
    /// A span that crosses pages, put together.
    scratch: Vec<u8>,
    /// Chunks of the current group opened so far and not yet counted.
    opened: u64,
    chunks_read: Counter,
}

impl GroupBytes {
    /// Appends to `out` bytes `from..from + len` of the file, a page at a
    /// time from the stream.
    fn read_direct(stream: &mut PageStream, from: u64, len: usize, out: &mut Vec<u8>) -> Result<()> {
        let (mut at, end) = (from, from + len as u64);
        while at < end {
            let (page_no, off) = (at / PAGE_SIZE as u64, (at % PAGE_SIZE as u64) as usize);
            let take = (PAGE_SIZE - off).min((end - at) as usize);
            out.extend_from_slice(&stream.page(page_no)?[off..off + take]);
            at += take as u64;
        }
        Ok(())
    }

    /// Page `page_no`, which holds bytes of chunk `chunk`; the chunk's last
    /// byte is on the page before `end`.
    fn pin(&mut self, chunk: usize, page_no: u64, end: u64) -> Result<&[u8]> {
        let holds = |pin: &Pin| pin.as_ref().is_some_and(|(held, _)| *held == page_no);
        if holds(&self.pins[chunk][1]) {
            self.pins[chunk].swap(0, 1);
        } else if !holds(&self.pins[chunk][0]) {
            let held = self.pins[chunk][0].as_ref().map(|(held, _)| *held);
            self.opened += u64::from(held.is_none());
            // small chunks share pages, and are read one after the other:
            // the page fetched last, for whichever chunk, may be this one
            if !holds(&self.latest) {
                let (cache, file) = (&self.tree.cache, self.tree.file);
                let page = match held {
                    // the chunk's next page: those after it, up to the
                    // chunk's last, are read along
                    Some(held) if held + 1 == page_no => cache.get_within(file, page_no, end)?,
                    _ => cache.get(file, page_no)?,
                };
                self.latest = Some((page_no, page));
            }
            let pins = &mut self.pins[chunk];
            pins[1] = pins[0].take();
            pins[0] = self.latest.clone();
        }
        match &self.pins[chunk][0] {
            Some((_, page)) => Ok(page),
            None => Err(StorageError::Invalid("no page pinned".into())),
        }
    }

    /// Adds the chunks opened since the last call to the node's count.
    fn count_opened(&mut self) {
        self.chunks_read.add(std::mem::take(&mut self.opened));
    }
}

impl Drop for GroupBytes {
    fn drop(&mut self) {
        self.count_opened();
    }
}

impl ChunkBytes for GroupBytes {
    fn span(&mut self, chunk: usize, at: u64, len: usize, end: u64) -> Result<&[u8]> {
        if self.tree.direct.is_some() {
            return le::try_bytes_at(&self.whole, at as usize, len);
        }
        let from = self.start + at;
        let end = (self.start + end).div_ceil(PAGE_SIZE as u64);
        let (page_no, off) = (from / PAGE_SIZE as u64, (from % PAGE_SIZE as u64) as usize);
        if off + len <= PAGE_SIZE {
            return le::try_bytes_at(self.pin(chunk, page_no, end)?, off, len);
        }
        let mut scratch = std::mem::take(&mut self.scratch);
        scratch.clear();
        let mut page_no = page_no;
        let mut off = off;
        while scratch.len() < len {
            let take = (PAGE_SIZE - off).min(len - scratch.len());
            scratch.extend_from_slice(le::try_bytes_at(self.pin(chunk, page_no, end)?, off, take)?);
            (page_no, off) = (page_no + 1, 0);
        }
        self.scratch = scratch;
        Ok(&self.scratch)
    }
}

/// A place in a tree of leaf groups.
struct GroupCursor {
    shape: Arc<GroupShape>,
    bytes: GroupBytes,
    dir: GroupDir,
    idx: usize,
    /// The prefix the group's keys share.
    prefix: Vec<u8>,
    leaf_end: u64,
    /// The cells of the value being put together.
    cells: Cells,
    value: Vec<u8>,
    rows_assembled: Counter,
}

impl GroupCursor {
    /// A cursor in the group that starts at byte `at`, at the first entry
    /// from `start` on (past it, if the flag says so).
    fn open(tree: TreeRef, shape: Arc<GroupShape>, leaf_end: u64, at: u64, start: Option<(&[u8], bool)>) -> Result<Box<GroupCursor>> {
        let hub = Arc::clone(tree.cache.stats().lsm());
        let bytes = GroupBytes {
            tree,
            start: 0,
            pins: vec![[None, None]; shape.chunk_count()],
            latest: None,
            whole: Vec::new(),
            scratch: Vec::new(),
            opened: 0,
            chunks_read: hub.chunks_read.clone(),
        };
        let mut cursor = Box::new(GroupCursor {
            shape,
            bytes,
            dir: GroupDir { n: 0, chunks: Vec::new(), len: 0 },
            idx: 0,
            prefix: Vec::new(),
            leaf_end,
            cells: Cells::default(),
            value: Vec::new(),
            rows_assembled: hub.rows_assembled.clone(),
        });
        cursor.enter(at)?;
        if let Some((key, after)) = start {
            let (idx, exact) = cursor.view().search(key)?;
            cursor.idx = idx + usize::from(exact && after);
        }
        Ok(cursor)
    }

    fn view(&mut self) -> GroupView<'_, GroupBytes> {
        GroupView { shape: &self.shape, dir: &self.dir, src: &mut self.bytes }
    }

    /// Moves to the group that starts at byte `start` of the file.
    fn enter(&mut self, start: u64) -> Result<()> {
        let dir_len = self.shape.dir_len();
        if start.checked_add(dir_len as u64).is_none_or(|end| end > self.leaf_end) {
            return Err(StorageError::Corrupt(format!("leaf group at byte {start} of a leaf area of {}", self.leaf_end)));
        }
        let bytes = &mut self.bytes;
        bytes.start = start;
        bytes.count_opened();
        bytes.pins.iter_mut().for_each(|pins| *pins = [None, None]);
        bytes.latest = None;
        if let Some(stream) = &mut bytes.tree.direct {
            bytes.whole.clear();
            GroupBytes::read_direct(stream, start, dir_len, &mut bytes.whole)?;
        }
        self.dir = GroupDir::parse(bytes.span(0, 0, dir_len, dir_len as u64)?, &self.shape)?;
        if self.dir.len > self.leaf_end - start {
            return Err(StorageError::Corrupt("a leaf group runs past the leaf area".into()));
        }
        if let Some(stream) = &mut bytes.tree.direct {
            let rest = self.dir.len as usize - dir_len;
            GroupBytes::read_direct(stream, start + dir_len as u64, rest, &mut bytes.whole)?;
        }
        self.idx = 0;
        let mut prefix = std::mem::take(&mut self.prefix);
        prefix.clear();
        prefix.extend_from_slice(self.view().key_prefix()?);
        self.prefix = prefix;
        Ok(())
    }
}

enum Leaf {
    Page(PageCursor),
    Group(Box<GroupCursor>),
}

/// A cursor over a key range: it stands at an entry ([`key`], [`entry`])
/// and moves to the next ([`advance`]) until the range has no more. As an
/// iterator it yields `Result<(key, Entry)>`, each copied out.
///
/// [`key`]: BTreeRangeIter::key
/// [`entry`]: BTreeRangeIter::entry
/// [`advance`]: BTreeRangeIter::advance
pub struct BTreeRangeIter {
    /// Where the cursor stands, or stood when the range ran out: the leaf
    /// of the last entry handed out stays readable until the cursor goes.
    leaf: Option<Leaf>,
    /// The range has no more entries.
    ended: bool,
    hi: Bound<Vec<u8>>,
    /// The key of the entry the cursor stands at.
    key: Vec<u8>,
}

impl BTreeRangeIter {
    fn empty() -> Self {
        BTreeRangeIter { leaf: None, ended: true, hi: Bound::Unbounded, key: Vec::new() }
    }

    /// The key of the entry the cursor stands at; `None` past the last.
    pub fn key(&self) -> Option<&[u8]> {
        (!self.ended).then_some(self.key.as_slice())
    }

    /// Moves to the next entry of the range.
    pub fn advance(&mut self) -> Result<()> {
        if self.ended {
            return Ok(());
        }
        self.settle(true)
    }

    /// Moves to the next entry if `step` says so, steps over the end of a
    /// leaf to the next one, reads the key of the entry arrived at and
    /// checks it against the upper bound. A failure ends the range.
    fn settle(&mut self, step: bool) -> Result<()> {
        let arrived = self.arrive(step);
        self.ended = !matches!(arrived, Ok(true));
        if arrived.is_err() {
            self.leaf = None;
        }
        arrived.map(drop)
    }

    /// See [`BTreeRangeIter::settle`]; whether there is an entry in range.
    fn arrive(&mut self, step: bool) -> Result<bool> {
        match &mut self.leaf {
            None => return Ok(false),
            Some(Leaf::Page(at)) => {
                if step {
                    at.step()?;
                }
                while at.pos.idx >= PageView::new(&at.page)?.n {
                    // a leaf's next is the page after it, up to the footer
                    let next = at.page_no + 1;
                    if next * PAGE_SIZE as u64 >= at.leaf_end {
                        return Ok(false);
                    }
                    let page = at.tree.leaf(next, true)?;
                    at.pos = PageView::new(&page)?.first(&mut at.key)?;
                    (at.page, at.page_no) = (page, next);
                }
                self.key.clear();
                self.key.extend_from_slice(&at.key);
            }
            Some(Leaf::Group(at)) => {
                at.idx += usize::from(step);
                while at.idx >= at.dir.n {
                    let next = at.bytes.start + at.dir.len;
                    if next >= at.leaf_end {
                        return Ok(false);
                    }
                    at.enter(next)?;
                }
                self.key.clear();
                self.key.extend_from_slice(&at.prefix);
                let (prefix_len, idx) = (at.prefix.len(), at.idx);
                self.key.extend_from_slice(at.view().key_suffix(prefix_len, idx)?);
            }
        }
        Ok(match &self.hi {
            Bound::Unbounded => true,
            Bound::Included(h) => self.key <= *h,
            Bound::Excluded(h) => self.key < *h,
        })
    }

    /// The entry the cursor stands at: its key and its value, `None` for a
    /// delete marker — the value in place for a row leaf, put together from
    /// its cells for a leaf group.
    pub fn entry(&mut self) -> Result<(&[u8], Option<&[u8]>)> {
        let key = self.key.as_slice();
        match &mut self.leaf {
            None => Err(StorageError::Invalid("a cursor past its range has no value".into())),
            Some(_) if self.ended => Err(StorageError::Invalid("a cursor past its range has no value".into())),
            Some(Leaf::Page(at)) => Ok((key, at.pos.value.clone().map(|value| &at.page[value]))),
            Some(Leaf::Group(at)) => {
                let at = &mut **at;
                let mut view = GroupView { shape: &at.shape, dir: &at.dir, src: &mut at.bytes };
                if view.is_tombstone(at.idx)? {
                    return Ok((key, None));
                }
                let cells = at.shape.layout.cell_count();
                if at.value.capacity() == 0 {
                    // a typical record, whole: not grown a doubling at a time
                    (at.cells, at.value) = (Cells::with_capacity(cells, 256), Vec::with_capacity(256));
                }
                at.cells.clear();
                for cell in 0..cells {
                    view.cell(cell, at.idx, &mut at.cells)?;
                }
                at.value.clear();
                at.shape.layout.assemble(&at.cells, &mut at.value);
                at.rows_assembled.inc();
                Ok((key, Some(&at.value)))
            }
        }
    }

    /// [`BTreeRangeIter::entry`], owned: a leaf group's value is the buffer
    /// it was put together in, not a copy of it.
    pub fn into_entry(mut self) -> Result<Entry> {
        if self.entry()?.1.is_none() {
            return Ok(Entry::Tombstone);
        }
        Ok(Entry::Put(match &mut self.leaf {
            Some(Leaf::Group(at)) => std::mem::take(&mut at.value),
            _ => self.entry()?.1.unwrap_or_default().to_vec(),
        }))
    }

    fn group(&mut self) -> Result<&mut GroupCursor> {
        match &mut self.leaf {
            Some(Leaf::Group(at)) => Ok(&mut **at),
            _ => Err(StorageError::Invalid("not a cursor at an entry of a leaf group".into())),
        }
    }

    /// Whether the entry the cursor stands at is a delete marker.
    pub fn is_tombstone(&mut self) -> Result<bool> {
        if let (Some(Leaf::Page(at)), false) = (&self.leaf, self.ended) {
            return Ok(at.pos.value.is_none());
        }
        let at = self.group()?;
        let idx = at.idx;
        at.view().is_tombstone(idx)
    }

    /// Appends to `out` the cells `wanted` (indices into the layout's cells,
    /// as [`asterix_adm::Projection::cells`] lists them) of the entry the
    /// cursor stands at (leaf groups only). Chunks of other cells are not
    /// read.
    pub fn cells(&mut self, wanted: &[usize], out: &mut Cells) -> Result<()> {
        let at = self.group()?;
        let idx = at.idx;
        let mut view = at.view();
        wanted.iter().try_for_each(|&cell| view.cell(cell, idx, out))
    }

    /// Where in its leaf group the cursor stands: the entry's number, and
    /// how many entries the group has (leaf groups only).
    pub fn group_place(&mut self) -> Result<(usize, usize)> {
        let at = self.group()?;
        Ok((at.idx, at.dir.n))
    }

    /// Appends to `builder` what it reads of the entries `runs` — ascending
    /// runs of entry numbers — of the leaf group the cursor stands in, or
    /// stood in when its range ran out: a column at a time, each chunk read
    /// once per run, when the builder takes columns
    /// ([`BatchBuilder::is_columnar`]), else an entry at a time.
    pub fn append_entries(&mut self, runs: &[std::ops::Range<usize>], builder: &mut BatchBuilder<'_>) -> Result<()> {
        let at = self.group()?;
        let wanted = builder.wanted().cells();
        let mut view = GroupView { shape: &at.shape, dir: &at.dir, src: &mut at.bytes };
        if builder.is_columnar() {
            for (k, &cell) in wanted.iter().enumerate() {
                for run in runs {
                    view.append_cells(cell, run.clone(), builder.cell_column(k))?;
                }
            }
            builder.advance(runs.iter().map(ExactSizeIterator::len).sum());
            return Ok(());
        }
        for idx in runs.iter().flat_map(Clone::clone) {
            at.cells.clear();
            wanted.iter().try_for_each(|&cell| view.cell(cell, idx, &mut at.cells))?;
            builder.push_cells(&at.cells)?;
        }
        Ok(())
    }
}

impl Iterator for BTreeRangeIter {
    type Item = Result<(Vec<u8>, Entry)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.key()?;
        let item = self.entry().map(|(key, value)| {
            (key.to_vec(), value.map_or(Entry::Tombstone, |value| Entry::Put(value.to_vec())))
        });
        let item = item.and_then(|item| self.advance().map(|()| item));
        if item.is_err() {
            (self.leaf, self.ended) = (None, true);
        }
        Some(item)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::FileManager;
    use crate::stats::IoStats;
    use crate::testutil::TempDir;
    use asterix_adm::binary::encode_key;
    use asterix_adm::Value;

    fn setup(cache_pages: usize) -> (Arc<BufferCache>, TempDir) {
        let dir = TempDir::new();
        let fm = FileManager::new(dir.path(), IoStats::new()).unwrap();
        (BufferCache::new(fm, cache_pages), dir)
    }

    fn key(i: i64) -> Vec<u8> {
        encode_key(&[Value::Int(i)])
    }

    /// What `build` puts under key `i`.
    fn value(i: i64) -> Entry {
        Entry::Put(format!("value-{i}").into_bytes())
    }

    fn build(cache: &Arc<BufferCache>, name: &str, n: i64, bloom: bool) -> DiskBTree {
        let w = cache.manager().bulk_writer(name).unwrap();
        let mut b = BTreeBuilder::new(w, bloom);
        for i in 0..n {
            b.add(&key(i), value(i).value()).unwrap();
        }
        DiskBTree::from_built(Arc::clone(cache), b.finish().unwrap())
    }

    #[test]
    fn point_lookups() {
        let (cache, _d) = setup(64);
        let t = build(&cache, "t.btree", 10_000, true);
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.get(&key(0)).unwrap(), Some(value(0)));
        assert_eq!(t.get(&key(9_999)).unwrap(), Some(value(9_999)));
        assert_eq!(t.get(&key(4_321)).unwrap(), Some(value(4_321)));
        assert!(t.get(&key(10_000)).unwrap().is_none());
        assert!(t.get(&key(-1)).unwrap().is_none());
    }

    #[test]
    fn full_scan_in_order() {
        let (cache, _d) = setup(64);
        let t = build(&cache, "t.btree", 5_000, false);
        let mut count = 0i64;
        for item in t.scan().unwrap() {
            let (k, v) = item.unwrap();
            assert_eq!(k, key(count));
            assert_eq!(v, value(count));
            count += 1;
        }
        assert_eq!(count, 5_000);
    }

    #[test]
    fn range_scans() {
        let (cache, _d) = setup(64);
        let t = build(&cache, "t.btree", 1_000, false);
        let lo = key(100);
        let items: Vec<_> = t
            .range(Bound::Included(&lo), Bound::Included(key(110)))
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(items.len(), 11);
        assert_eq!(items[0].0, key(100));
        assert_eq!(items[10].0, key(110));
        // exclusive bounds
        let items: Vec<_> = t
            .range(Bound::Excluded(&lo), Bound::Excluded(key(110)))
            .unwrap()
            .map(|r| r.unwrap())
            .collect();
        assert_eq!(items.len(), 9);
        // unbounded high
        let n = t.range(Bound::Included(&key(990)), Bound::Unbounded).unwrap().count();
        assert_eq!(n, 10);
        // range starting between keys
        let t2_lo = key(-5);
        let n = t.range(Bound::Included(&t2_lo), Bound::Included(key(2))).unwrap().count();
        assert_eq!(n, 3);
    }

    #[test]
    fn empty_tree() {
        let (cache, _d) = setup(8);
        let t = build(&cache, "e.btree", 0, false);
        assert!(t.is_empty());
        assert!(t.get(&key(1)).unwrap().is_none());
        assert_eq!(t.scan().unwrap().count(), 0);
    }

    #[test]
    fn single_entry_tree() {
        let (cache, _d) = setup(8);
        let t = build(&cache, "s.btree", 1, true);
        assert_eq!(t.get(&key(0)).unwrap(), Some(value(0)));
        assert!(t.get(&key(1)).unwrap().is_none());
    }

    #[test]
    fn reopen_from_disk() {
        let (cache, dir) = setup(64);
        {
            build(&cache, "r.btree", 2_000, true);
        }
        let fm2 = FileManager::new(dir.path(), IoStats::new()).unwrap();
        let cache2 = BufferCache::new(fm2, 64);
        let fid = cache2.manager().open("r.btree").unwrap();
        let t = DiskBTree::open(Arc::clone(&cache2), fid, &LeafShape::Rows).unwrap();
        assert_eq!(t.len(), 2_000);
        assert_eq!(t.get(&key(1234)).unwrap(), Some(value(1234)));
        assert!(t.get(&key(5555)).unwrap().is_none());
    }

    #[test]
    fn bloom_filter_skips_absent_keys_without_io() {
        let (cache, _d) = setup(64);
        let t = build(&cache, "b.btree", 10_000, true);
        // warm nothing; absent keys far outside should mostly be skipped by
        // the min/max check or bloom, costing no physical reads
        let before = cache.stats().physical_reads();
        for i in 20_000..20_100i64 {
            assert!(t.get(&key(i)).unwrap().is_none());
        }
        assert_eq!(cache.stats().physical_reads(), before, "min/max short-circuit");
    }

    #[test]
    fn rejects_unsorted_input() {
        let (cache, _d) = setup(8);
        let w = cache.manager().bulk_writer("u.btree").unwrap();
        let mut b = BTreeBuilder::new(w, false);
        b.add(&key(5), Some(b"x")).unwrap();
        assert!(b.add(&key(5), Some(b"y")).is_err(), "duplicate key");
        assert!(b.add(&key(4), None).is_err(), "descending key");
    }

    #[test]
    fn rejects_oversized_entry() {
        let (cache, _d) = setup(8);
        let w = cache.manager().bulk_writer("o.btree").unwrap();
        let mut b = BTreeBuilder::new(w, false);
        let huge = vec![0u8; PAGE_SIZE];
        match b.add(&key(1), Some(&huge)) {
            Err(StorageError::RecordTooLarge { .. }) => {}
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn string_and_composite_keys() {
        let (cache, _d) = setup(64);
        let w = cache.manager().bulk_writer("c.btree").unwrap();
        let mut b = BTreeBuilder::new(w, true);
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for i in 0..100 {
            keys.push(encode_key(&[
                Value::from(format!("user{i:03}")),
                Value::Int(i),
            ]));
        }
        for k in &keys {
            b.add(k, Some(b"v")).unwrap();
        }
        let t = DiskBTree::from_built(Arc::clone(&cache), b.finish().unwrap());
        for k in &keys {
            assert!(t.get(k).unwrap().is_some());
        }
        // prefix range: all keys beginning with "user05"
        let lo = encode_key(&[Value::from("user050")]);
        let hi = encode_key(&[Value::from("user059"), Value::Int(i64::MAX)]);
        let n = t.range(Bound::Included(&lo), Bound::Included(hi)).unwrap().count();
        assert_eq!(n, 10);
    }

    // -- the page layout ----------------------------------------------------

    /// The key a secondary index on `authorId` holds for message `id`.
    fn author_key(author: i64, id: i64) -> Vec<u8> {
        encode_key(&[Value::Int(author), Value::Int(id)])
    }

    /// A secondary index's leaves, pinned: 20 000 messages over 2 000
    /// authors, each entry a key of two ints and no value, fill 15 leaf
    /// pages, about 6 bytes an entry.
    #[test]
    fn a_secondary_index_of_20_000_entries_takes_15_leaf_pages() {
        let (cache, _d) = setup(64);
        let mut keys: Vec<Vec<u8>> = (0..20_000).map(|id| author_key(id % 2_000, id)).collect();
        keys.sort();
        let mut b = BTreeBuilder::new(cache.manager().bulk_writer("a.btree").unwrap(), false);
        for k in &keys {
            b.add(k, Some(&[])).unwrap();
        }
        let t = DiskBTree::from_built(Arc::clone(&cache), b.finish().unwrap());
        assert_eq!(t.leaf_end / PAGE_SIZE as u64, 15);
        assert!(t.scan().unwrap().map(|r| r.unwrap()).eq(keys.iter().map(|k| (k.clone(), Entry::Put(Vec::new())))));
        let (lo, hi) = (author_key(700, 0), author_key(700, i64::MAX));
        let got: Vec<_> = t.range(Bound::Excluded(&lo), Bound::Included(hi)).unwrap().map(|r| r.unwrap().0).collect();
        assert_eq!(got, (0..10).map(|m| author_key(700, 700 + 2_000 * m)).collect::<Vec<_>>());
    }

    /// A component of key-only entries and delete markers, pinned by its
    /// length and FNV-1a: 3 000 secondary-index keys, every fifth a delete
    /// marker and every 250th holding a value, written as a flush writes
    /// them. A deliberate change of the row-leaf format updates these
    /// constants and names the change in CHANGES.md; a refactor leaves them
    /// alone.
    #[test]
    fn a_key_only_components_bytes_are_pinned() {
        let (cache, dir) = setup(64);
        let mut b = BTreeBuilder::new(cache.manager().bulk_writer("k.btree").unwrap(), true);
        for id in 0..3_000 {
            let value = match id {
                _ if id % 5 == 4 => None,
                _ if id % 250 == 0 => Some(&b"held"[..]),
                _ => Some(&[][..]),
            };
            b.add(&author_key(id / 7, id), value).unwrap();
        }
        let t = DiskBTree::from_built(Arc::clone(&cache), b.finish().unwrap());
        let image = std::fs::read(dir.path().join("k.btree")).unwrap();
        assert_eq!((t.leaf_end, image.len(), le::fnv1a(&image)), (2 * PAGE_SIZE as u64, 24_576, 2_671_627_446));
        let deleted = t.scan().unwrap().filter(|r| matches!(r, Ok((_, Entry::Tombstone)))).count();
        assert_eq!(deleted, 600);
        assert_eq!(t.get(&author_key(0, 0)).unwrap(), Some(Entry::Put(b"held".to_vec())));
        assert_eq!(t.get(&author_key(0, 4)).unwrap(), Some(Entry::Tombstone));
    }

    /// Where a search lands: the entry's number and its key.
    type Landing = (usize, Vec<u8>);

    /// What a reader makes of a page: each entry walked from the first —
    /// its key and value, `None` for a delete marker — each restart's key,
    /// and where a search for each probe lands — at the first key not below
    /// it (a cursor's start, a get) and the first key above it (a cursor
    /// past an excluded bound).
    type PageRead = (Vec<(Vec<u8>, Option<Vec<u8>>)>, Vec<Vec<u8>>, Vec<[Landing; 2]>);

    fn read_page(page: &[u8], probes: &[Vec<u8>]) -> Result<PageRead> {
        let view = PageView::new(page)?;
        let (mut entries, mut key) = (Vec::new(), Vec::new());
        let mut at = view.first(&mut key)?;
        while at.idx < view.n {
            entries.push((key.clone(), at.value.clone().map(|value| page[value].to_vec())));
            at = view.at(at.idx + 1, at.next, &mut key)?;
        }
        let restarts = (0..view.restarts).map(|r| view.restart(r, &mut key).map(|_| key.clone())).collect::<Result<_>>()?;
        let mut landings = Vec::new();
        for p in probes {
            let mut land = |above: bool| -> Result<Landing> {
                let at = view.seek(|k| if above { k <= p } else { k < p }, &mut key)?;
                Ok((at.idx, key.clone()))
            };
            landings.push([land(false)?, land(true)?]);
        }
        Ok((entries, restarts, landings))
    }

    /// A row leaf, damaged: any one byte flipped, or the page cut short
    /// anywhere, reads as `Corrupt` or as another page — never a panic.
    /// Varints, `shared`, the heads, the restart offsets and the lengths all
    /// come off the page through checked reads.
    #[test]
    fn a_damaged_page_is_corrupt_not_a_panic() {
        // a leaf of secondary-index entries with values of 0 to 2 bytes,
        // every fifth a delete marker
        let mut builder = PageBuilder::new();
        for i in 0..100 {
            let value = vec![i as u8; i as usize % 3];
            builder.push(&author_key(i / 7, 13 * i), (i % 5 != 4).then_some(value.as_slice()), None);
        }
        let page = builder.emit();
        let (entries_end, restarts) = (PAGE_HEADER + builder.bytes.len(), PAGE_SIZE - 2 * builder.restarts.len());
        let keys = read_page(&page, &[]).unwrap().0;
        assert_eq!(keys.len(), builder.n);
        assert_eq!(PageView::new(&page).unwrap().audit(0, false).unwrap().n, builder.n as u64);
        let mut probes = vec![Vec::new(), vec![0xFF]];
        for (k, _) in keys.iter().step_by(7) {
            probes.extend([k.clone(), [k.as_slice(), &[0]].concat(), k[..k.len() - 1].to_vec()]);
        }
        let sound = read_page(&page, &probes).unwrap();
        // every byte of the header, the entries and the restarts, and one
        // in 64 of the unread bytes between them
        let unread = entries_end..restarts;
        let places = || (0..PAGE_SIZE).filter(|at| !unread.contains(at) || at % 64 == 0);
        let (mut corrupt, mut audited) = (0, 0);
        for at in places() {
            let mut bad = page.clone();
            bad[at] ^= 0xA5;
            match read_page(&bad, &probes) {
                Err(StorageError::Corrupt(_)) => corrupt += 1,
                Err(e) => panic!("byte {at}: {e}"),
                Ok(read) => assert!(read != sound || unread.contains(&at), "byte {at}"),
            }
            // the audit refuses whatever damage the entries show
            match PageView::new(&bad).and_then(|view| view.audit(0, false)) {
                Err(StorageError::Corrupt(_)) => audited += 1,
                Err(e) => panic!("byte {at}: {e}"),
                Ok(_) => {}
            }
        }
        assert!(corrupt > builder.n, "lengths, `shared`, heads and restarts are checked ({corrupt} caught)");
        assert!(audited > corrupt, "the audit catches more than a read ({audited} against {corrupt})");
        for len in places() {
            match read_page(&page[..len], &probes) {
                Err(StorageError::Corrupt(_)) => {}
                Err(e) => panic!("cut at {len}: {e}"),
                Ok(read) => assert!(read != sound, "cut at {len}"),
            }
        }
        // named damage: a restart past the entries, two restarts swapped,
        // an entry keeping more of the key before it than there is, a head
        // that says both delete marker and value, and an entry count the
        // restarts disagree with
        let damaged = |at: usize, bytes: &[u8]| {
            let mut bad = page.clone();
            bad[at..at + bytes.len()].copy_from_slice(bytes);
            read_page(&bad, &probes)
        };
        assert!(matches!(damaged(restarts + 2, &[0xFF, 0x1F]), Err(StorageError::Corrupt(_))));
        let swapped = [&page[restarts + 4..restarts + 6], &page[restarts + 2..restarts + 4]].concat();
        assert!(damaged(restarts + 2, &swapped).is_ok_and(|read| read != sound));
        // the first entry: a restart, no value (`i % 3` is 0), a key of its own
        assert_eq!(page[PAGE_HEADER..PAGE_HEADER + 2], [0, (keys[0].0.len() << 2) as u8]);
        let second = PAGE_HEADER + 2 + keys[0].0.len();
        assert!(matches!(damaged(second, &[keys[0].0.len() as u8 + 1]), Err(StorageError::Corrupt(_))));
        assert!(matches!(damaged(PAGE_HEADER + 1, &[page[PAGE_HEADER + 1] | 3]), Err(StorageError::Corrupt(_))));
        assert!(matches!(damaged(0, &[0]), Err(StorageError::Corrupt(_))));
    }

    /// The audit decodes every entry where a leaf is written: a page whose
    /// keys do not ascend is refused at `finish`, naming the component.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not audit their leaves")]
    fn a_leaf_whose_keys_do_not_ascend_fails_the_audit() {
        let (cache, _d) = setup(64);
        let mut b = BTreeBuilder::new(cache.manager().bulk_writer("bad_c9.btree").unwrap(), false);
        for i in 0..20 {
            b.add(&key(i), Some(&[])).unwrap();
        }
        // the last entry stores a key below the one before it
        if let Leaves::Pages { leaf, .. } = &mut b.leaves {
            let last = leaf.bytes.len() - 1;
            leaf.bytes[last] = 0;
        }
        match b.finish() {
            Err(StorageError::Corrupt(why)) => assert!(why.contains("entry 19 of a row leaf"), "{why}"),
            Err(e) => panic!("{e}"),
            Ok(_) => panic!("audit passed"),
        }
    }

    // -- the footer ---------------------------------------------------------

    /// The regions of a component file's footer, as its last bytes and its
    /// trailer place them: `(leaf_end, [fence index, bloom, column directory,
    /// symbol tables])`, each a range of the file.
    fn footer_of(image: &[u8]) -> (u64, [Range<usize>; 4]) {
        let back = le::u32_at(image, image.len() - TAIL) as usize;
        let mut trailer = Cursor::new(&image[image.len() - TAIL - back..]);
        trailer.u64().unwrap();
        let leaf_end = trailer.u64().unwrap();
        let mut at = leaf_end as usize;
        let regions = [(); 4].map(|()| {
            let len = trailer.u32().unwrap() as usize;
            at += len;
            at - len..at
        });
        (leaf_end, regions)
    }

    /// A row-leaf tree of one leaf page: its fence index, right behind the
    /// leaf, begins with its count, the byte 1. A full scan, a range through the cache and a merge's scan outside it
    /// each stop at the last entry.
    #[test]
    fn a_cursor_stops_at_the_leaf_areas_end() {
        let (cache, dir) = setup(64);
        let t = build(&cache, "one.btree", 40, true);
        let image = std::fs::read(dir.path().join("one.btree")).unwrap();
        let (leaf_end, [fences, ..]) = footer_of(&image);
        assert_eq!((leaf_end, fences.start), (PAGE_SIZE as u64, PAGE_SIZE));
        assert_eq!(image[fences.start], 1, "one fence");
        let want: Vec<_> = (0..40).map(|i| (key(i), value(i))).collect();
        assert_eq!(t.scan().unwrap().map(|r| r.unwrap()).collect::<Vec<_>>(), want);
        assert_eq!(t.scan_uncached().unwrap().map(|r| r.unwrap()).collect::<Vec<_>>(), want);
        let tail: Vec<_> = t.range(Bound::Excluded(&key(37)), Bound::Unbounded).unwrap().map(|r| r.unwrap().0).collect();
        assert_eq!(tail, [key(38), key(39)]);
        // and an LSM tree's merge of two such components
        let config = crate::lsm::LsmConfig { merge_policy: crate::lsm::MergePolicy::NoMerge, ..crate::lsm::LsmConfig::new("m") };
        let mut lsm = crate::lsm::LsmTree::new(Arc::clone(&cache), config);
        for half in [0..20, 20..40] {
            for i in half {
                lsm.upsert(key(i), format!("value-{i}").into_bytes()).unwrap();
            }
            lsm.flush().unwrap();
        }
        lsm.merge_newest(2).unwrap();
        assert_eq!(lsm.component_count(), 1);
        let merged: Vec<_> = lsm.scan().unwrap().into_iter().map(|(k, v)| (k, Entry::Put(v))).collect();
        assert_eq!(merged, want);
    }

    /// The footer packs behind the leaves: a leaf-group tree's at the leaf
    /// area's last byte, a row-leaf tree's on the page after its last leaf,
    /// and the file ends on the page that holds the footer's end.
    #[test]
    fn the_footer_starts_where_the_leaf_area_ends() {
        let (cache, dir) = setup(64);
        for (name, t) in [("g.btree", build_groups(&cache, "g.btree", 1_500)), ("r.btree", build(&cache, "r.btree", 3_000, true))] {
            let image = std::fs::read(dir.path().join(name)).unwrap();
            let (leaf_end, regions) = footer_of(&image);
            assert_eq!((leaf_end, regions[0].start), (t.leaf_end, t.leaf_end as usize), "{name}");
            let trailer = regions[3].end;
            assert_eq!(image.len(), (trailer + 1).next_multiple_of(PAGE_SIZE).max(PAGE_SIZE), "{name}: no page past the footer's");
            assert!(image.len() - trailer < PAGE_SIZE + 4 * 1024, "{name}");
            assert_eq!(t.fences.len(), if name == "g.btree" { 2 } else { t.leaf_end as usize / PAGE_SIZE }, "{name}");
        }
    }

    /// A flush-time audit: a fence index whose separators are the leaves'
    /// last keys is refused at `finish`, naming the component.
    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not audit the fence index")]
    fn a_fence_above_its_leafs_first_key_fails_the_audit() {
        let (cache, _d) = setup(64);
        let mut b = BTreeBuilder::new(cache.manager().bulk_writer("bad_c7.btree").unwrap(), false);
        for i in 0..2_000 {
            b.add(&key(i), Some(b"v")).unwrap();
        }
        b.fences.keys.push(0xFF);
        let last = b.fences.ends.len() - 1;
        b.fences.ends[last] += 1;
        match b.finish() {
            Err(StorageError::Corrupt(why)) => assert!(why.starts_with("bad_c7.btree: the fence index"), "{why}"),
            Err(e) => panic!("{e}"),
            Ok(_) => panic!("audit passed"),
        }
    }

    // -- leaf groups --------------------------------------------------------

    use asterix_adm::types::{gleambook_types, ObjectType};

    fn message_layout() -> Arc<RecordLayout> {
        Arc::new(RecordLayout::new(gleambook_types().get("GleambookMessageType").unwrap()))
    }

    /// The row of message `i`. Its text is noise, so that the pages a read
    /// touches are counted against a file of uncoded size.
    fn message(i: i64) -> Vec<u8> {
        let mut fields = vec![
            ("messageId".to_string(), Value::Int(i)),
            ("authorId".into(), Value::Int(i % 97)),
            ("message".into(), Value::from(crate::testutil::noise(i as u64, 75))),
        ];
        if i % 3 == 0 {
            fields.insert(2, ("inResponseTo".into(), Value::Int(i / 3)));
        }
        if i % 10 == 0 {
            fields.push(("mood".into(), Value::from("open")));
        }
        message_layout().encode(&Value::object(fields)).unwrap()
    }

    /// Messages `0..n` as a tree of leaf groups, every seventh a delete marker.
    fn build_groups(cache: &Arc<BufferCache>, name: &str, n: i64) -> DiskBTree {
        let w = cache.manager().bulk_writer(name).unwrap();
        let mut b = BTreeBuilder::with_layout(w, true, message_layout());
        for i in 0..n {
            b.add(&key(i), (i % 7 != 6).then(|| message(i)).as_deref()).unwrap();
        }
        DiskBTree::from_built(Arc::clone(cache), b.finish().unwrap())
    }

    #[test]
    fn leaf_groups_answer_like_row_leaves() {
        let (cache, _d) = setup(256);
        let n = 2 * crate::leaf_group::GROUP_RECORDS as i64 + 300;
        let t = build_groups(&cache, "g.btree", n);
        assert_eq!(t.len(), n as u64);
        for i in [0, 1, 6, 1_023, 1_024, 1_025, 2_047, 2_048, n - 1] {
            let want = if i % 7 == 6 { Entry::Tombstone } else { Entry::Put(message(i)) };
            assert_eq!(t.get(&key(i)).unwrap(), Some(want), "get {i}");
        }
        assert!(t.get(&key(n)).unwrap().is_none());
        assert!(t.get(&key(-1)).unwrap().is_none());
        let mut seen = 0;
        for (i, item) in t.scan().unwrap().enumerate() {
            let (k, v) = item.unwrap();
            assert_eq!(k, key(i as i64));
            assert_eq!(v == Entry::Tombstone, i % 7 == 6);
            seen += 1;
        }
        assert_eq!(seen, n);
        // a range that starts in one group and ends in the next
        let (lo, hi) = (key(1_000), key(1_050));
        let got: Vec<_> = t.range(Bound::Excluded(&lo), Bound::Included(hi)).unwrap().map(|r| r.unwrap().0).collect();
        assert_eq!(got, (1_001..=1_050).map(key).collect::<Vec<_>>());
        // outside the cache: the same entries
        let direct: Vec<_> = t.scan_uncached().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(direct, t.scan().unwrap().map(|r| r.unwrap()).collect::<Vec<_>>());
    }

    #[test]
    fn named_cells_come_out_of_their_chunks_alone() {
        let (cache, _d) = setup(256);
        let t = build_groups(&cache, "c.btree", 3_000);
        let layout = message_layout();
        let wanted = layout.resolve(&["authorId".into()]);
        let counter = |name: &str| cache.stats().registry().snapshot().counter(name).unwrap();
        let (chunks, rows, reads) =
            (counter("storage.lsm.chunks_read"), counter("storage.lsm.rows_assembled"), cache.stats().physical_reads());
        let mut at = t.scan().unwrap();
        let (mut cells, mut live) = (Cells::default(), 0);
        while let Some(k) = at.key().map(<[u8]>::to_vec) {
            if !at.is_tombstone().unwrap() {
                cells.clear();
                at.cells(wanted.cells(), &mut cells).unwrap();
                let got = layout.project(&wanted, &cells).unwrap();
                let id = asterix_adm::binary::decode_key(&k).unwrap()[0].as_i64().unwrap();
                assert_eq!(got.field("authorId"), &Value::Int(id % 97));
                live += 1;
            }
            at.advance().unwrap();
        }
        assert_eq!(live, 3_000 - 3_000 / 7);
        drop(at);
        assert_eq!(counter("storage.lsm.rows_assembled"), rows, "no row was put together");
        // per group: keys, tombstones, authorId's presence and data
        assert_eq!(counter("storage.lsm.chunks_read") - chunks, 3 * 4);
        let file_pages = cache.manager().page_count(t.file()).unwrap();
        let read = cache.stats().physical_reads() - reads;
        assert!(read * 3 < file_pages, "{read} of {file_pages} pages read for one int column");
    }

    #[test]
    fn a_tree_opens_under_the_layout_it_was_written_with() {
        let (cache, _d) = setup(64);
        let file = build_groups(&cache, "o.btree", 50).file();
        let rows = build(&cache, "r.btree", 50, true).file();
        let reopened = DiskBTree::open(Arc::clone(&cache), file, &LeafShape::Groups(message_layout())).unwrap();
        assert_eq!(reopened.get(&key(3)).unwrap(), Some(Entry::Put(message(3))));
        let other = LeafShape::Groups(Arc::new(RecordLayout::new(gleambook_types().get("GleambookUserType").unwrap())));
        for (file, shape) in [(file, &LeafShape::Rows), (file, &other), (rows, &other), (rows, &LeafShape::Spatial), (file, &LeafShape::Spatial)] {
            assert!(matches!(DiskBTree::open(Arc::clone(&cache), file, shape), Err(StorageError::Corrupt(_))));
        }
    }

    /// The column directory in a file's footer leads with a byte `1`, then
    /// the column count, whatever the layout: the bytes every tree a dataset
    /// wrote holds there.
    #[test]
    fn the_column_directory_leads_with_a_one() {
        let (cache, dir) = setup(64);
        build_groups(&cache, "d.btree", 50);
        let image = std::fs::read(dir.path().join("d.btree")).unwrap();
        let (_, [_, _, columns, _]) = footer_of(&image);
        assert_eq!(image[columns][..3], [1, 5, 0], "a one, then five columns as a u16");
        assert_eq!(column_directory(&RecordLayout::new(&ObjectType::open("T", vec![])))[..], [1, 0, 0]);
    }

    #[test]
    fn a_leaf_group_entry_is_a_row_or_a_delete_marker() {
        let (cache, _d) = setup(8);
        let w = cache.manager().bulk_writer("v.btree").unwrap();
        let mut b = BTreeBuilder::with_layout(w, false, message_layout());
        assert!(matches!(b.add(&key(1), Some(&[1])), Err(StorageError::Adm(_))), "not a row of the layout");
        b.add(&key(1), Some(&message(1))).unwrap();
        assert!(b.add(&key(1), None).is_err(), "duplicate key");
        let w = cache.manager().bulk_writer("w.btree").unwrap();
        assert!(matches!(BTreeBuilder::new(w, false).add_cells(&key(1), None), Err(StorageError::Invalid(_))));
    }

    /// Groups follow one another with no padding, so a directory, a bitmap
    /// or a value may lie across two pages: whatever the offset — the
    /// second group's directory is steered across a page boundary last — the
    /// same answers.
    #[test]
    fn a_group_starts_anywhere_in_a_page() {
        let (cache, _d) = setup(256);
        let layout = message_layout();
        let n = crate::leaf_group::GROUP_RECORDS as i64 + 40;
        // a group's size moves by 1 KiB per step of `pad % 7` and by 12 bytes
        // per `pad`; `filler` more bytes in the first group, a quarter in
        // each of four records' `pad` fields — of 128 bytes at least, so that
        // their lengths take two bytes whatever the filler
        let row = |pad: usize, filler: usize, i: i64| {
            let mut fields = vec![
                ("messageId".to_string(), Value::Int(i)),
                ("authorId".into(), Value::Int(i % 50)),
                ("message".into(), Value::from(crate::testutil::noise(i as u64, pad % 7 + (i as usize % 3)))),
            ];
            if i % 4 == 1 {
                fields.insert(2, ("inResponseTo".into(), Value::Int(i - 1)));
            }
            if i < 4 {
                fields.push(("pad".into(), Value::from("p".repeat(128 + 3 * pad + (filler + i as usize) / 4))));
            }
            layout.encode(&Value::object(fields)).unwrap()
        };
        // builds the tree, checks it, and says where in its page the second group starts
        let check = |pad: usize, filler: usize| {
            let w = cache.manager().bulk_writer(&format!("s{pad}-{filler}.btree")).unwrap();
            let mut b = BTreeBuilder::with_layout(w, false, message_layout());
            for i in 0..n {
                b.add(&key(i), (i % 13 != 5).then(|| row(pad, filler, i)).as_deref()).unwrap();
            }
            let start = match &b.leaves {
                Leaves::Groups { buf, .. } => buf.len(),
                Leaves::Pages { .. } => unreachable!(),
            };
            let t = DiskBTree::from_built(Arc::clone(&cache), b.finish().unwrap());
            for (i, item) in t.scan().unwrap().enumerate() {
                let (k, v) = item.unwrap();
                let want = if i % 13 == 5 { Entry::Tombstone } else { Entry::Put(row(pad, filler, i as i64)) };
                assert_eq!((k, v), (key(i as i64), want), "pad {pad} entry {i}");
            }
            for i in [0, 1_023, 1_024, n - 1] {
                assert!(t.get(&key(i)).unwrap().is_some(), "pad {pad} get {i}");
            }
            start
        };
        let starts: std::collections::BTreeSet<usize> = (0..48).map(|pad| check(pad, 0) * 64 / PAGE_SIZE).collect();
        assert!(starts.len() > 16, "the second group started in {} of 64 parts of a page", starts.len());
        let across = PAGE_SIZE - 100;
        let start = check(0, (across + PAGE_SIZE - check(0, 0)) % PAGE_SIZE);
        assert_eq!(start, across, "the second group's directory lies across two pages");
    }
}
