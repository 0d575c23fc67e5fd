//! Immutable, bulk-loaded on-disk B+ trees.
//!
//! Every LSM disk component is one of these: the memory component is flushed
//! (or several components merged) by streaming *sorted* key/value pairs into
//! a [`BTreeBuilder`], which packs leaves left-to-right and then builds the
//! internal levels — exactly the "well-known efficient B+ tree load" Goetz
//! Graefe contrasts with hashing in the paper's §V-C anecdote (experiment E3).
//!
//! ## File layout (append-only, trailer-addressed)
//!
//! ```text
//! [leaf area][internal level 1...][...][root page][meta pages...][trailer page]
//! meta pages = [bloom filter][column directory][symbol tables], end to end
//! ```
//!
//! The trailer (last page) records the root, the height, the entry count,
//! where the leaf area ends, where the bloom filter, the column directory and
//! the symbol tables are, and the min/max keys; readers open the file by
//! reading the trailer.
//! Keys are composite ADM keys encoded by `asterix_adm::binary::encode_key`,
//! whose bytes order as the values do: a key comparison is a slice
//! comparison, and the formats below rely on it.
//!
//! ## Two leaf shapes
//!
//! A tree's leaf area has one of two shapes, chosen when it is built and
//! recorded in its trailer; the internal levels, the bloom filter and the
//! trailer are the same for both.
//!
//! * **Row leaves** ([`BTreeBuilder::new`]): leaf *pages* in the page layout
//!   below, a value an opaque byte string. Secondary indexes (key-only
//!   entries), the R-tree's deleted-key tree and standalone trees.
//! * **Leaf groups** ([`BTreeBuilder::with_layout`]): a dataset's primary
//!   index, whose values are records. The leaf area is a run of *groups* of
//!   up to [`GROUP_RECORDS`](crate::leaf_group::GROUP_RECORDS) entries, each
//!   storing its entries column by column ([`crate::leaf_group`]); the
//!   lowest internal level points at a group's first byte instead of a page.
//!   A value of such a tree is an LSM entry — [`PUT`] and a row the tree's
//!   [`RecordLayout`] can take apart, or [`TOMBSTONE`] — which [`add`] takes
//!   apart into cells and [`get`] and a cursor's `value` put together again,
//!   byte for byte. A reader that wants some of a record's fields asks a
//!   cursor for those cells ([`BTreeRangeIter::cells`]) and touches the pages
//!   of their chunks only. The meta pages carry the *column directory* — each
//!   column's name, declared type and kind — and a tree is opened only under
//!   the layout it was written with; and, per string column, the symbol table
//!   its strings are coded with, trained on the tree's first group and read
//!   once, at open.
//!
//! [`add`]: BTreeBuilder::add
//! [`get`]: DiskBTree::get
//!
//! ## Page layout (leaf and internal pages alike)
//!
//! ```text
//! [is_leaf u8][n u16][next_leaf u64][prefix_len u16][prefix][offset u16 * n][entry * n]
//! entry = [suffix_len u16][suffix][value_len u16][value]
//! ```
//!
//! The longest common prefix of a page's keys is stored once; an entry holds
//! what follows it. A search compares its target with the prefix once, then
//! with suffixes. An internal page's value is a child pointer and its key a
//! *separator*: the shortest byte string above every key of the child to the
//! left and not above any key of this one (see [`separator`]).

use crate::bloom::BloomFilter;
use crate::cache::BufferCache;
use crate::compaction::LsmMetricsHub;
use crate::error::{Result, StorageError};
use crate::io::{FileId, PageFileWriter, PageStream, PAGE_SIZE};
use crate::le::{self, Cursor, Format};
use crate::leaf_group::{ChunkBytes, GroupBuilder, GroupDir, GroupShape, GroupView};
use asterix_adm::layout::{Cells, ColumnKind, RecordLayout};
use asterix_adm::BatchBuilder;
use asterix_obs::Counter;
use std::cmp::Ordering;
use std::ops::Bound;
use std::sync::Arc;

/// The trailer's header (see [`crate::le`]): "BTR5" as a little-endian u32.
pub(crate) const FORMAT: Format = Format { kind: "B+ tree trailer", headers: &[&0x4254_5235u32.to_le_bytes()] };
const PAGE_HEADER: usize = 13; // is_leaf u8 + n u16 + next_leaf u64 + prefix_len u16
const ENTRY_OVERHEAD: usize = 2 /* offset */ + 4 /* lens */;
const NO_NEXT: u64 = u64::MAX;

/// First byte of a leaf-group tree's value: a record follows.
pub const PUT: u8 = 0;
/// The whole of a leaf-group tree's value for a delete marker.
pub const TOMBSTONE: u8 = 1;

/// Maximum key+value size storable in one page.
pub const MAX_ENTRY: usize = PAGE_SIZE - PAGE_HEADER - ENTRY_OVERHEAD;

/// Maximum key size: any two separators, with their child pointers, fit one
/// internal page — so every level is smaller than the one below it — and the
/// smallest and the largest key fit the trailer.
pub const MAX_KEY: usize = PAGE_SIZE / 2 - 32;

/// Length of the longest common prefix of `a` and `b`.
pub(crate) fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// The shortest byte string `s` with `prev < s <= next`, for `prev < next`:
/// `next` up to and including the first byte that tells it from `prev`. It
/// routes a search between two sibling pages as well as `next` itself would.
fn separator(prev: &[u8], next: &[u8]) -> Vec<u8> {
    next[..(common_prefix(prev, next) + 1).min(next.len())].to_vec()
}

/// The column directory of a tree built under `layout`, as its trailer
/// region holds it: whether the records have a declared type, then each
/// column's name, declared type and kind.
fn column_directory(layout: &RecordLayout) -> Vec<u8> {
    let mut out = vec![layout.is_typed() as u8];
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
// Page construction & parsing
// ---------------------------------------------------------------------------

struct PageBuilder {
    is_leaf: bool,
    /// `(key start, key length, value length)` of each entry in `bytes`.
    entries: Vec<(usize, usize, usize)>,
    /// Whole keys, each followed by its value.
    bytes: Vec<u8>,
    /// Length of the prefix the keys so far share (keys arrive sorted, so it
    /// is what the first and the latest share).
    prefix_len: usize,
}

impl PageBuilder {
    fn new(is_leaf: bool) -> Self {
        PageBuilder { is_leaf, entries: Vec::new(), bytes: Vec::new(), prefix_len: 0 }
    }

    /// The shared prefix once `key` joins the page.
    fn prefix_with(&self, key: &[u8]) -> usize {
        match self.entries.first() {
            None => key.len(),
            Some(_) => common_prefix(&self.bytes[..self.prefix_len], key),
        }
    }

    /// Whether the page still fits its size with `key` added: a shorter
    /// shared prefix lengthens the suffix of every entry already in it.
    fn fits(&self, key: &[u8], val_len: usize) -> bool {
        let (n, prefix) = (self.entries.len() + 1, self.prefix_with(key));
        let whole = self.bytes.len() + key.len() + val_len;
        PAGE_HEADER + prefix + n * ENTRY_OVERHEAD + whole - n * prefix <= PAGE_SIZE
    }

    fn push(&mut self, key: &[u8], val: &[u8]) {
        self.prefix_len = self.prefix_with(key);
        self.entries.push((self.bytes.len(), key.len(), val.len()));
        self.bytes.extend_from_slice(key);
        self.bytes.extend_from_slice(val);
    }

    fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Emits the page bytes; `next_leaf` is the forward sibling pointer.
    fn emit(&self, next_leaf: u64) -> Vec<u8> {
        let (n, prefix) = (self.entries.len(), self.prefix_len);
        let mut page = vec![0u8; PAGE_SIZE];
        page[0] = self.is_leaf as u8;
        page[1..3].copy_from_slice(&(n as u16).to_le_bytes());
        page[3..11].copy_from_slice(&next_leaf.to_le_bytes());
        page[11..13].copy_from_slice(&(prefix as u16).to_le_bytes());
        page[PAGE_HEADER..PAGE_HEADER + prefix].copy_from_slice(&self.bytes[..prefix]);
        let table = PAGE_HEADER + prefix;
        let mut at = table + 2 * n;
        for (i, &(start, klen, vlen)) in self.entries.iter().enumerate() {
            // stored offsets are absolute within the page
            page[table + 2 * i..table + 2 * i + 2].copy_from_slice(&(at as u16).to_le_bytes());
            let (suffix, val) = (&self.bytes[start + prefix..start + klen], &self.bytes[start + klen..start + klen + vlen]);
            for part in [suffix, val] {
                page[at..at + 2].copy_from_slice(&(part.len() as u16).to_le_bytes());
                page[at + 2..at + 2 + part.len()].copy_from_slice(part);
                at += 2 + part.len();
            }
        }
        page
    }
}

/// Zero-copy view over a tree page. What it reads comes off disk, so a
/// corrupt page surfaces as `StorageError::Corrupt`, not a panic.
struct PageView<'a> {
    page: &'a [u8],
}

impl<'a> PageView<'a> {
    fn new(page: &'a [u8]) -> Self {
        PageView { page }
    }

    fn is_leaf(&self) -> bool {
        self.page[0] == 1
    }

    fn len(&self) -> usize {
        le::u16_at(self.page, 1) as usize
    }

    fn next_leaf(&self) -> Option<u64> {
        let v = le::u64_at(self.page, 3);
        (v != NO_NEXT).then_some(v)
    }

    /// What every key of the page starts with.
    fn prefix(&self) -> Result<&'a [u8]> {
        le::try_bytes_at(self.page, PAGE_HEADER, le::u16_at(self.page, 11) as usize)
    }

    /// Entry `i`: its key past the page's prefix, and its value.
    fn entry(&self, i: usize) -> Result<(&'a [u8], &'a [u8])> {
        let table = PAGE_HEADER + le::u16_at(self.page, 11) as usize;
        let off = le::try_u16_at(self.page, table + 2 * i)? as usize;
        let klen = le::try_u16_at(self.page, off)? as usize;
        let suffix = le::try_bytes_at(self.page, off + 2, klen)?;
        let voff = off + 2 + klen;
        let vlen = le::try_u16_at(self.page, voff)? as usize;
        Ok((suffix, le::try_bytes_at(self.page, voff + 2, vlen)?))
    }

    /// Index of the first entry with key >= target (lower bound), and
    /// whether that entry's key is the target.
    fn search(&self, target: &[u8]) -> Result<(usize, bool)> {
        let prefix = self.prefix()?;
        // the prefix decides alone unless the target starts with it
        match target[..target.len().min(prefix.len())].cmp(prefix) {
            Ordering::Less => return Ok((0, false)),
            Ordering::Greater => return Ok((self.len(), false)),
            Ordering::Equal => {}
        }
        let rest = &target[prefix.len()..];
        let (mut lo, mut hi) = (0usize, self.len());
        while lo < hi {
            let mid = (lo + hi) / 2;
            if self.entry(mid)?.0 < rest {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        Ok((lo, lo < self.len() && self.entry(lo)?.0 == rest))
    }

    /// The child to descend into for `target` (internal pages): that of the
    /// rightmost entry with key <= target, clamped to the first.
    fn child_for(&self, target: &[u8]) -> Result<u64> {
        let (lb, exact) = self.search(target)?;
        self.child(if exact { lb } else { lb.saturating_sub(1) })
    }

    /// What entry `i` of an internal page points to.
    fn child(&self, i: usize) -> Result<u64> {
        let bytes = self.entry(i)?.1.try_into();
        Ok(u64::from_le_bytes(bytes.map_err(|_| StorageError::Corrupt("internal entry is not a child pointer".into()))?))
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

/// Streams sorted `(key, value)` pairs into a new B+ tree component file.
pub struct BTreeBuilder {
    writer: PageFileWriter,
    leaves: Leaves,
    /// Separator of each completed page (or group) at the level below, with
    /// what points to it.
    pending_level: Vec<(Vec<u8>, u64)>,
    /// The key added last (empty before the first): one buffer, reused.
    last_key: Vec<u8>,
    first_key: Vec<u8>,
    entry_count: u64,
    bloom: Option<BloomFilter>,
}

impl BTreeBuilder {
    /// Starts building a tree of row leaves into `writer`. When
    /// `expected_keys > 0` a bloom filter sized for that many keys is
    /// attached to the component.
    pub fn new(writer: PageFileWriter, expected_keys: usize) -> Self {
        Self::over(writer, expected_keys, Leaves::Pages { leaf: PageBuilder::new(true), written: 0 })
    }

    /// [`BTreeBuilder::new`] for a tree of leaf groups: its values are LSM
    /// entries whose rows `layout` takes apart.
    pub fn with_layout(writer: PageFileWriter, expected_keys: usize, layout: Arc<RecordLayout>) -> Self {
        let group = Box::new(GroupBuilder::new(Arc::new(GroupShape::new(layout))));
        let hub = Arc::clone(writer.stats().lsm());
        Self::over(writer, expected_keys, Leaves::Groups { group, buf: Vec::new(), written: 0, hub })
    }

    fn over(writer: PageFileWriter, expected_keys: usize, leaves: Leaves) -> Self {
        BTreeBuilder {
            writer,
            leaves,
            pending_level: Vec::new(),
            last_key: Vec::new(),
            first_key: Vec::new(),
            entry_count: 0,
            bloom: (expected_keys > 0).then(|| BloomFilter::new(expected_keys, 10)),
        }
    }

    /// Appends the next pair of a tree of row leaves; keys must arrive in
    /// strictly increasing order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if key.len() + value.len() > MAX_ENTRY {
            return Err(StorageError::RecordTooLarge {
                size: key.len() + value.len(),
                max: MAX_ENTRY,
            });
        }
        if matches!(self.leaves, Leaves::Groups { .. }) {
            return Err(StorageError::Invalid("a value added whole to a tree of leaf groups".into()));
        }
        self.admit(key)?;
        if let Leaves::Pages { leaf, written } = &mut self.leaves {
            if !leaf.fits(key, value.len()) {
                Self::finish_leaf(&mut self.writer, leaf, written)?;
            }
            if leaf.is_empty() {
                self.pending_level.push((separator(&self.last_key, key), *written));
            }
            leaf.push(key, value);
        }
        self.admitted(key);
        Ok(())
    }

    /// [`BTreeBuilder::add`] for a tree of leaf groups: the row under `key`,
    /// taken apart here, or none for a delete marker.
    pub fn add_row(&mut self, key: &[u8], row: Option<&[u8]>) -> Result<()> {
        let Some(row) = row else { return self.add_cells(key, None) };
        // as for a row leaf's entry, marker included
        if key.len() + 1 + row.len() > MAX_ENTRY {
            return Err(StorageError::RecordTooLarge { size: key.len() + 1 + row.len(), max: MAX_ENTRY });
        }
        self.add_to_group(key, |group| group.push_row(key, row))
    }

    /// [`BTreeBuilder::add`] for an entry already taken apart (a merge hands
    /// on the cells it read): its cells, or none for a delete marker.
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
            Self::finish_group(&mut self.writer, group, buf, written, hub)?;
        }
        let first = group.len() == 0;
        push(group)?;
        if first {
            self.pending_level.push((separator(&self.last_key, key), *written));
        }
        self.admitted(key);
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

    /// `key` is in its leaf.
    fn admitted(&mut self, key: &[u8]) {
        if self.entry_count == 0 {
            self.first_key = key.to_vec();
        }
        if let Some(b) = &mut self.bloom {
            b.insert(key);
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.entry_count += 1;
    }

    /// Writes the current leaf. Leaves occupy pages `0..n_leaves` in order, so
    /// the next-pointer is simply the following page number; scans detect the
    /// end of the leaf level by landing on a non-leaf page (internal pages,
    /// bloom pages, and the trailer all start with a byte != 1).
    fn finish_leaf(writer: &mut PageFileWriter, leaf: &mut PageBuilder, written: &mut u64) -> Result<()> {
        if leaf.is_empty() {
            return Ok(());
        }
        let page = std::mem::replace(leaf, PageBuilder::new(true));
        *written += 1;
        writer.append(&page.emit(*written))?;
        Ok(())
    }

    /// Encodes the current group behind the ones before it and writes the
    /// whole pages that completes.
    fn finish_group(
        writer: &mut PageFileWriter,
        group: &mut GroupBuilder,
        buf: &mut Vec<u8>,
        written: &mut u64,
        hub: &LsmMetricsHub,
    ) -> Result<()> {
        if group.len() == 0 {
            return Ok(());
        }
        let before = buf.len();
        let (plain, coded) = group.encode(buf);
        hub.string_bytes_plain.add(plain as u64);
        hub.string_bytes_coded.add(coded as u64);
        *written += (buf.len() - before) as u64;
        let whole = buf.len() / PAGE_SIZE * PAGE_SIZE;
        for page in buf[..whole].chunks_exact(PAGE_SIZE) {
            writer.append(page)?;
        }
        buf.drain(..whole);
        Ok(())
    }

    /// Finalizes the tree: writes leaves, internal levels, bloom and column
    /// directory, trailer. Returns the opened component description.
    pub fn finish(mut self) -> Result<BuiltTree> {
        let (leaf_end, shape) = match &mut self.leaves {
            Leaves::Pages { leaf, written } => {
                Self::finish_leaf(&mut self.writer, leaf, written)?;
                (*written * PAGE_SIZE as u64, None)
            }
            Leaves::Groups { group, buf, written, hub } => {
                Self::finish_group(&mut self.writer, group, buf, written, hub)?;
                if !buf.is_empty() {
                    buf.resize(PAGE_SIZE, 0);
                    self.writer.append(buf.as_slice())?;
                }
                (*written, Some(Arc::clone(group.shape())))
            }
        };
        // Build internal levels bottom-up; a page's separator is that of its
        // first child.
        let mut level = std::mem::take(&mut self.pending_level);
        let mut next_page_no = self.writer.page_count();
        let mut height = 0u32;
        while level.len() > 1 {
            let mut upper: Vec<(Vec<u8>, u64)> = Vec::new();
            let mut pb = PageBuilder::new(false);
            for (sep, child) in level {
                if !pb.fits(&sep, 8) {
                    self.writer.append(&pb.emit(NO_NEXT))?;
                    next_page_no += 1;
                    pb = PageBuilder::new(false);
                }
                pb.push(&sep, &child.to_le_bytes());
                if pb.entries.len() == 1 {
                    upper.push((sep, next_page_no));
                }
            }
            self.writer.append(&pb.emit(NO_NEXT))?;
            next_page_no += 1;
            height += 1;
            level = upper;
        }
        // a single-leaf or empty tree roots at its leaf area's start
        let root = level.first().map_or(0, |(_, child)| *child);
        // The bloom filter, the column directory, the symbol tables.
        let bloom_bytes = self.bloom.as_ref().map(|b| b.to_bytes()).unwrap_or_default();
        let columns = shape.as_ref().map(|s| column_directory(&s.layout)).unwrap_or_default();
        let mut tables = Vec::new();
        if let Some(shape) = &shape {
            shape.write_tables(&mut tables);
        }
        let meta_start = next_page_no;
        let mut meta_pages = 0u32;
        for chunk in [bloom_bytes.as_slice(), columns.as_slice(), tables.as_slice()].concat().chunks(PAGE_SIZE) {
            let mut page = vec![0u8; PAGE_SIZE];
            page[..chunk.len()].copy_from_slice(chunk);
            self.writer.append(&page)?;
            meta_pages += 1;
        }
        // Trailer.
        let (min_key, max_key) = (self.first_key, self.last_key);
        let mut trailer = Vec::with_capacity(PAGE_SIZE);
        trailer.extend_from_slice(FORMAT.headers[0]);
        trailer.extend_from_slice(&root.to_le_bytes());
        trailer.extend_from_slice(&self.entry_count.to_le_bytes());
        trailer.extend_from_slice(&leaf_end.to_le_bytes());
        trailer.extend_from_slice(&height.to_le_bytes());
        trailer.extend_from_slice(&meta_start.to_le_bytes());
        trailer.extend_from_slice(&meta_pages.to_le_bytes());
        trailer.extend_from_slice(&(bloom_bytes.len() as u32).to_le_bytes());
        trailer.extend_from_slice(&(columns.len() as u32).to_le_bytes());
        trailer.extend_from_slice(&(tables.len() as u32).to_le_bytes());
        for key in [&min_key, &max_key] {
            trailer.extend_from_slice(&(key.len() as u32).to_le_bytes());
            trailer.extend_from_slice(key);
        }
        trailer.resize(PAGE_SIZE, 0);
        self.writer.append(&trailer)?;
        let file = self.writer.finish()?;
        Ok(BuiltTree {
            file,
            root,
            height,
            leaf_end,
            entry_count: self.entry_count,
            bloom: self.bloom,
            min_key,
            max_key,
            shape,
        })
    }
}

/// Result of a bulk load: everything needed to construct a [`DiskBTree`].
pub struct BuiltTree {
    pub file: FileId,
    root: u64,
    height: u32,
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

/// A read-only handle on a B+ tree component; all page reads go through the
/// buffer cache but a merge's ([`DiskBTree::scan_uncached`]).
pub struct DiskBTree {
    cache: Arc<BufferCache>,
    file: FileId,
    /// The root page — with no internal level, where the leaf area starts.
    root: u64,
    /// Internal levels above the leaf area.
    height: u32,
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
            root: built.root,
            height: built.height,
            leaf_end: built.leaf_end,
            entry_count: built.entry_count,
            bloom: built.bloom,
            min_key: built.min_key,
            max_key: built.max_key,
            shape: built.shape,
        }
    }

    /// Opens an existing component file by reading its trailer page: a tree
    /// of leaf groups under the `layout` it was written with, one of row
    /// leaves under none.
    pub fn open(cache: Arc<BufferCache>, file: FileId, layout: Option<&Arc<RecordLayout>>) -> Result<Self> {
        let n_pages = cache.manager().page_count(file)?;
        if n_pages == 0 {
            return Err(StorageError::Corrupt("empty btree file".into()));
        }
        let page = cache.manager().read_page(file, n_pages - 1)?;
        let mut trailer = Cursor::new(&page);
        trailer.header(&FORMAT)?;
        let (root, entry_count, leaf_end) = (trailer.u64()?, trailer.u64()?, trailer.u64()?);
        let height = trailer.u32()?;
        let (meta_start, meta_pages) = (trailer.u64()?, u64::from(trailer.u32()?));
        let [bloom_len, columns_len, tables_len] = [trailer.u32()?, trailer.u32()?, trailer.u32()?].map(|n| n as usize);
        let min_len = trailer.u32()? as usize;
        let min_key = trailer.bytes(min_len)?.to_vec();
        let max_len = trailer.u32()? as usize;
        let max_key = trailer.bytes(max_len)?.to_vec();
        if leaf_end > meta_start.saturating_mul(PAGE_SIZE as u64) || meta_start.checked_add(meta_pages) != Some(n_pages - 1) {
            return Err(StorageError::Corrupt("btree trailer: regions out of order".into()));
        }
        let mut pages = Vec::with_capacity(meta_pages as usize * PAGE_SIZE);
        for p in 0..meta_pages {
            pages.extend_from_slice(&cache.manager().read_page(file, meta_start + p)?);
        }
        let mut meta = Cursor::new(&pages);
        let (bloom, columns, tables) = (meta.bytes(bloom_len)?, meta.bytes(columns_len)?, meta.bytes(tables_len)?);
        let bloom = match bloom {
            [] => None,
            bytes => Some(BloomFilter::from_bytes(bytes).ok_or_else(|| StorageError::Corrupt("bad bloom filter".into()))?),
        };
        let shape = match layout {
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
        Ok(DiskBTree { cache, file, root, height, leaf_end, entry_count, bloom, min_key, max_key, shape })
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

    /// Where in the leaf area `key` belongs — the leaf page, or the first
    /// byte of the leaf group; the leftmost without a key.
    fn descend(&self, key: Option<&[u8]>) -> Result<u64> {
        let mut at = self.root;
        for _ in 0..self.height {
            let page = self.cache.get(self.file, at)?;
            let view = PageView::new(&page);
            if view.is_leaf() {
                return Err(StorageError::Corrupt("a leaf page among the internal levels".into()));
            }
            at = match key {
                Some(key) => view.child_for(key)?,
                None => view.child(0)?,
            };
        }
        Ok(at)
    }

    /// Point lookup. Consults the bloom filter first.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if self.shape.is_some() {
            return self.probe(key)?.map(BTreeRangeIter::into_value).transpose();
        }
        if self.rules_out(key) {
            return Ok(None);
        }
        let page = self.cache.get(self.file, self.descend(Some(key))?)?;
        let view = PageView::new(&page);
        match view.search(key)? {
            (idx, true) => Ok(Some(view.entry(idx)?.1.to_vec())),
            _ => Ok(None),
        }
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
    /// of `(key, value)` pairs in key order.
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
        let at = self.descend(start.map(|(k, _)| k))?;
        self.cursor(tree, at, start, hi)
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

    /// A cursor over `tree`'s leaf area from `at` (see [`DiskBTree::descend`]):
    /// at the first entry from `start` on — past it, if the flag says so —
    /// that is within `hi`.
    fn cursor(&self, tree: TreeRef, at: u64, start: Option<(&[u8], bool)>, hi: Bound<Vec<u8>>) -> Result<BTreeRangeIter> {
        let leaf = match &self.shape {
            None => Leaf::Page(PageCursor::open(tree, at, start)?),
            Some(shape) => Leaf::Group(GroupCursor::open(tree, Arc::clone(shape), self.leaf_end, at, start)?),
        };
        let mut iter = BTreeRangeIter { leaf: Some(leaf), ended: false, hi, key: Vec::with_capacity(32) };
        iter.settle()?;
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
    page: Arc<Vec<u8>>,
    idx: usize,
}

impl PageCursor {
    fn open(mut tree: TreeRef, page_no: u64, start: Option<(&[u8], bool)>) -> Result<PageCursor> {
        let page = tree.leaf(page_no, false)?;
        let idx = match start {
            None => 0,
            Some((key, after)) => {
                let (idx, exact) = PageView::new(&page).search(key)?;
                idx + usize::from(exact && after)
            }
        };
        Ok(PageCursor { tree, page, idx })
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

/// A cursor over a key range: it stands at an entry ([`key`], [`value`]) and
/// moves to the next ([`advance`]) until the range has no more. As an
/// iterator it yields `Result<(key, value)>`, each copied out.
///
/// [`key`]: BTreeRangeIter::key
/// [`value`]: BTreeRangeIter::value
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
        match &mut self.leaf {
            Some(Leaf::Page(at)) => at.idx += 1,
            Some(Leaf::Group(at)) => at.idx += 1,
            None => {}
        }
        self.settle()
    }

    /// Steps over the end of a leaf to the next one, reads the key of the
    /// entry arrived at and checks it against the upper bound. A failure
    /// ends the range.
    fn settle(&mut self) -> Result<()> {
        let arrived = self.arrive();
        self.ended = !matches!(arrived, Ok(true));
        if arrived.is_err() {
            self.leaf = None;
        }
        arrived.map(drop)
    }

    /// See [`BTreeRangeIter::settle`]; whether there is an entry in range.
    fn arrive(&mut self) -> Result<bool> {
        match &mut self.leaf {
            None => return Ok(false),
            Some(Leaf::Page(at)) => {
                while at.idx >= PageView::new(&at.page).len() {
                    // Leaves are packed first in the file, so the last leaf's
                    // next-pointer lands on a non-leaf page — that is the end
                    // of the scan.
                    let Some(next) = PageView::new(&at.page).next_leaf() else { return Ok(false) };
                    let page = at.tree.leaf(next, true)?;
                    if !PageView::new(&page).is_leaf() {
                        return Ok(false);
                    }
                    (at.page, at.idx) = (page, 0);
                }
                let view = PageView::new(&at.page);
                self.key.clear();
                self.key.extend_from_slice(view.prefix()?);
                self.key.extend_from_slice(view.entry(at.idx)?.0);
            }
            Some(Leaf::Group(at)) => {
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

    /// The entry the cursor stands at, key and value: the value in place for
    /// a row leaf, put together from its cells for a leaf group.
    pub fn entry(&mut self) -> Result<(&[u8], &[u8])> {
        let key = self.key.as_slice();
        match &mut self.leaf {
            None => Err(StorageError::Invalid("a cursor past its range has no value".into())),
            Some(_) if self.ended => Err(StorageError::Invalid("a cursor past its range has no value".into())),
            Some(Leaf::Page(at)) => Ok((key, PageView::new(&at.page).entry(at.idx)?.1)),
            Some(Leaf::Group(at)) => {
                let at = &mut **at;
                let mut view = GroupView { shape: &at.shape, dir: &at.dir, src: &mut at.bytes };
                at.value.clear();
                if view.is_tombstone(at.idx)? {
                    at.value.push(TOMBSTONE);
                    return Ok((key, &at.value));
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
                at.value.push(PUT);
                at.shape.layout.assemble(&at.cells, &mut at.value);
                at.rows_assembled.inc();
                Ok((key, &at.value))
            }
        }
    }

    /// The value of [`BTreeRangeIter::entry`].
    pub fn value(&mut self) -> Result<&[u8]> {
        Ok(self.entry()?.1)
    }

    /// [`BTreeRangeIter::value`], owned: a leaf group's is the buffer it was
    /// put together in, not a copy of it.
    pub fn into_value(mut self) -> Result<Vec<u8>> {
        self.entry()?;
        match &mut self.leaf {
            Some(Leaf::Group(at)) => Ok(std::mem::take(&mut at.value)),
            _ => self.value().map(<[u8]>::to_vec),
        }
    }

    fn group(&mut self) -> Result<&mut GroupCursor> {
        match &mut self.leaf {
            Some(Leaf::Group(at)) => Ok(&mut **at),
            _ => Err(StorageError::Invalid("not a cursor at an entry of a leaf group".into())),
        }
    }

    /// Whether the entry the cursor stands at is a delete marker (leaf
    /// groups only: a row leaf's value is its owner's to read).
    pub fn is_tombstone(&mut self) -> Result<bool> {
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
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        let key = self.key()?.to_vec();
        let item = self.value().map(|value| (key, value.to_vec())).and_then(|item| self.advance().map(|()| item));
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

    fn build(cache: &Arc<BufferCache>, name: &str, n: i64, bloom: bool) -> DiskBTree {
        let w = cache.manager().bulk_writer(name).unwrap();
        let mut b = BTreeBuilder::new(w, if bloom { n as usize } else { 0 });
        for i in 0..n {
            b.add(&key(i), format!("value-{i}").as_bytes()).unwrap();
        }
        DiskBTree::from_built(Arc::clone(cache), b.finish().unwrap())
    }

    #[test]
    fn point_lookups() {
        let (cache, _d) = setup(64);
        let t = build(&cache, "t.btree", 10_000, true);
        assert_eq!(t.len(), 10_000);
        assert_eq!(t.get(&key(0)).unwrap().unwrap(), b"value-0");
        assert_eq!(t.get(&key(9_999)).unwrap().unwrap(), b"value-9999");
        assert_eq!(t.get(&key(4_321)).unwrap().unwrap(), b"value-4321");
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
            assert_eq!(v, format!("value-{count}").as_bytes());
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
        assert_eq!(t.get(&key(0)).unwrap().unwrap(), b"value-0");
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
        let t = DiskBTree::open(Arc::clone(&cache2), fid, None).unwrap();
        assert_eq!(t.len(), 2_000);
        assert_eq!(t.get(&key(1234)).unwrap().unwrap(), b"value-1234");
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
        let mut b = BTreeBuilder::new(w, 0);
        b.add(&key(5), b"x").unwrap();
        assert!(b.add(&key(5), b"y").is_err(), "duplicate key");
        assert!(b.add(&key(4), b"z").is_err(), "descending key");
    }

    #[test]
    fn rejects_oversized_entry() {
        let (cache, _d) = setup(8);
        let w = cache.manager().bulk_writer("o.btree").unwrap();
        let mut b = BTreeBuilder::new(w, 0);
        let huge = vec![0u8; PAGE_SIZE];
        match b.add(&key(1), &huge) {
            Err(StorageError::RecordTooLarge { .. }) => {}
            other => panic!("expected RecordTooLarge, got {other:?}"),
        }
    }

    #[test]
    fn string_and_composite_keys() {
        let (cache, _d) = setup(64);
        let w = cache.manager().bulk_writer("c.btree").unwrap();
        let mut b = BTreeBuilder::new(w, 100);
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for i in 0..100 {
            keys.push(encode_key(&[
                Value::from(format!("user{i:03}")),
                Value::Int(i),
            ]));
        }
        for k in &keys {
            b.add(k, b"v").unwrap();
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

    // -- leaf groups --------------------------------------------------------

    use asterix_adm::schema_encode::encode_with_schema;
    use asterix_adm::types::gleambook_types;

    fn message_layout() -> Arc<RecordLayout> {
        Arc::new(RecordLayout::new(gleambook_types().get("GleambookMessageType")))
    }

    /// The row of message `i`, and `[PUT] ++ row`: what a read of it hands
    /// out. Its text is noise, so that the pages a read touches are counted
    /// against a file of uncoded size.
    fn message(i: i64) -> (Vec<u8>, Vec<u8>) {
        let reg = gleambook_types();
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
        let row = encode_with_schema(&Value::object(fields), reg.get("GleambookMessageType").unwrap()).unwrap();
        let value = [&[PUT][..], &row].concat();
        (row, value)
    }

    /// Messages `0..n` as a tree of leaf groups, every seventh a delete marker.
    fn build_groups(cache: &Arc<BufferCache>, name: &str, n: i64) -> DiskBTree {
        let w = cache.manager().bulk_writer(name).unwrap();
        let mut b = BTreeBuilder::with_layout(w, n as usize, message_layout());
        for i in 0..n {
            b.add_row(&key(i), (i % 7 != 6).then(|| message(i).0).as_deref()).unwrap();
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
            let want = if i % 7 == 6 { vec![TOMBSTONE] } else { message(i).1 };
            assert_eq!(t.get(&key(i)).unwrap().unwrap(), want, "get {i}");
        }
        assert!(t.get(&key(n)).unwrap().is_none());
        assert!(t.get(&key(-1)).unwrap().is_none());
        let mut seen = 0;
        for (i, item) in t.scan().unwrap().enumerate() {
            let (k, v) = item.unwrap();
            assert_eq!(k, key(i as i64));
            assert_eq!(v.len() == 1, i % 7 == 6);
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
        let reopened = DiskBTree::open(Arc::clone(&cache), file, Some(&message_layout())).unwrap();
        assert_eq!(reopened.get(&key(3)).unwrap().unwrap(), message(3).1);
        let other = Arc::new(RecordLayout::new(gleambook_types().get("GleambookUserType")));
        for (file, layout) in [(file, None), (file, Some(&other)), (rows, Some(&other))] {
            assert!(matches!(DiskBTree::open(Arc::clone(&cache), file, layout), Err(StorageError::Corrupt(_))));
        }
    }

    #[test]
    fn a_leaf_group_entry_is_a_row_or_a_delete_marker() {
        let (cache, _d) = setup(8);
        let w = cache.manager().bulk_writer("v.btree").unwrap();
        let mut b = BTreeBuilder::with_layout(w, 0, message_layout());
        assert!(matches!(b.add(&key(1), &message(1).1), Err(StorageError::Invalid(_))), "a value, whole");
        assert!(matches!(b.add_row(&key(1), Some(&[1])), Err(StorageError::Adm(_))), "not a row of the layout");
        b.add_row(&key(1), Some(&message(1).0)).unwrap();
        assert!(b.add_row(&key(1), None).is_err(), "duplicate key");
        let w = cache.manager().bulk_writer("w.btree").unwrap();
        assert!(matches!(BTreeBuilder::new(w, 0).add_cells(&key(1), None), Err(StorageError::Invalid(_))));
    }

    /// Groups follow one another with no padding, so a directory, a bitmap
    /// or a value may lie across two pages: whatever the offset — the
    /// second group's directory is steered across a page boundary last — the
    /// same answers.
    #[test]
    fn a_group_starts_anywhere_in_a_page() {
        let (cache, _d) = setup(256);
        let reg = gleambook_types();
        let ty = reg.get("GleambookMessageType").unwrap();
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
            encode_with_schema(&Value::object(fields), ty).unwrap()
        };
        // builds the tree, checks it, and says where in its page the second group starts
        let check = |pad: usize, filler: usize| {
            let w = cache.manager().bulk_writer(&format!("s{pad}-{filler}.btree")).unwrap();
            let mut b = BTreeBuilder::with_layout(w, 0, message_layout());
            for i in 0..n {
                b.add_row(&key(i), (i % 13 != 5).then(|| row(pad, filler, i)).as_deref()).unwrap();
            }
            let start = match &b.leaves {
                Leaves::Groups { buf, .. } => buf.len(),
                Leaves::Pages { .. } => unreachable!(),
            };
            let t = DiskBTree::from_built(Arc::clone(&cache), b.finish().unwrap());
            for (i, item) in t.scan().unwrap().enumerate() {
                let (k, v) = item.unwrap();
                let want = if i % 13 == 5 { vec![TOMBSTONE] } else { [&[PUT][..], &row(pad, filler, i as i64)].concat() };
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
