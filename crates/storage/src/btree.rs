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
//! [leaf pages...][internal level 1...][...][root page][bloom pages...][trailer page]
//! ```
//!
//! The trailer (last page) records the root page, entry count, bloom-filter
//! location, and min/max keys; readers open the file by reading the trailer.
//! Keys are composite ADM keys encoded by `asterix_adm::binary::encode_key`,
//! whose bytes order as the values do: a key comparison is a slice
//! comparison, and the page format below relies on it.
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
//! with suffixes. An internal page's value is a child page number and its
//! key a *separator*: the shortest byte string above every key of the child
//! to the left and not above any key of this one (see [`separator`]).

use crate::bloom::BloomFilter;
use crate::cache::BufferCache;
use crate::error::{Result, StorageError};
use crate::io::{FileId, PageFileWriter, PageStream, PAGE_SIZE};
use crate::le;
use std::cmp::Ordering;
use std::ops::Bound;
use std::sync::Arc;

/// "BTR2". "BTRE" was the format whose keys needed decoding to be compared
/// and whose pages held them whole; a file of it is refused at open.
const MAGIC: u32 = 0x4254_5232;
const PAGE_HEADER: usize = 13; // is_leaf u8 + n u16 + next_leaf u64 + prefix_len u16
const ENTRY_OVERHEAD: usize = 2 /* offset */ + 4 /* lens */;
const NO_NEXT: u64 = u64::MAX;

/// Maximum key+value size storable in one page.
pub const MAX_ENTRY: usize = PAGE_SIZE - PAGE_HEADER - ENTRY_OVERHEAD;

/// Maximum key size: any two separators, with their child pointers, fit one
/// internal page — so every level is smaller than the one below it — and the
/// smallest and the largest key fit the trailer.
pub const MAX_KEY: usize = PAGE_SIZE / 2 - 32;

/// Length of the longest common prefix of `a` and `b`.
fn common_prefix(a: &[u8], b: &[u8]) -> usize {
    a.iter().zip(b).take_while(|(x, y)| x == y).count()
}

/// The shortest byte string `s` with `prev < s <= next`, for `prev < next`:
/// `next` up to and including the first byte that tells it from `prev`. It
/// routes a search between two sibling pages as well as `next` itself would.
fn separator(prev: &[u8], next: &[u8]) -> Vec<u8> {
    next[..(common_prefix(prev, next) + 1).min(next.len())].to_vec()
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

    /// The page number entry `i` of an internal page points to.
    fn child(&self, i: usize) -> Result<u64> {
        let bytes = self.entry(i)?.1.try_into();
        Ok(u64::from_le_bytes(bytes.map_err(|_| StorageError::Corrupt("internal entry is not a child pointer".into()))?))
    }
}

// ---------------------------------------------------------------------------
// Builder
// ---------------------------------------------------------------------------

/// Streams sorted `(key, value)` pairs into a new B+ tree component file.
pub struct BTreeBuilder {
    writer: PageFileWriter,
    leaf: PageBuilder,
    /// Separator of each completed page at the level below, with its page no.
    pending_level: Vec<(Vec<u8>, u64)>,
    /// The key added last (empty before the first): one buffer, reused.
    last_key: Vec<u8>,
    first_key: Vec<u8>,
    entry_count: u64,
    bloom: Option<BloomFilter>,
    leaves_written: u64,
}

impl BTreeBuilder {
    /// Starts building into `writer`. When `expected_keys > 0` a bloom filter
    /// sized for that many keys is attached to the component.
    pub fn new(writer: PageFileWriter, expected_keys: usize) -> Self {
        BTreeBuilder {
            writer,
            leaf: PageBuilder::new(true),
            pending_level: Vec::new(),
            last_key: Vec::new(),
            first_key: Vec::new(),
            entry_count: 0,
            bloom: (expected_keys > 0).then(|| BloomFilter::new(expected_keys, 10)),
            leaves_written: 0,
        }
    }

    /// Appends the next pair; keys must arrive in strictly increasing order.
    pub fn add(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if key.len() > MAX_KEY {
            return Err(StorageError::RecordTooLarge { size: key.len(), max: MAX_KEY });
        }
        if key.len() + value.len() > MAX_ENTRY {
            return Err(StorageError::RecordTooLarge {
                size: key.len() + value.len(),
                max: MAX_ENTRY,
            });
        }
        if self.entry_count == 0 {
            self.first_key = key.to_vec();
        } else if self.last_key.as_slice() >= key {
            return Err(StorageError::Invalid(
                "bulk-load keys must be strictly increasing".into(),
            ));
        }
        if !self.leaf.fits(key, value.len()) {
            self.finish_leaf()?;
        }
        if self.leaf.is_empty() {
            self.pending_level.push((separator(&self.last_key, key), self.leaves_written));
        }
        self.leaf.push(key, value);
        if let Some(b) = &mut self.bloom {
            b.insert(key);
        }
        self.last_key.clear();
        self.last_key.extend_from_slice(key);
        self.entry_count += 1;
        Ok(())
    }

    /// Writes the current leaf. Leaves occupy pages `0..n_leaves` in order, so
    /// the next-pointer is simply the following page number; scans detect the
    /// end of the leaf level by landing on a non-leaf page (internal pages,
    /// bloom pages, and the trailer all start with a byte != 1).
    fn finish_leaf(&mut self) -> Result<()> {
        if self.leaf.is_empty() {
            return Ok(());
        }
        let page = std::mem::replace(&mut self.leaf, PageBuilder::new(true));
        self.leaves_written += 1;
        self.writer.append(&page.emit(self.leaves_written))?;
        Ok(())
    }

    /// Finalizes the tree: writes leaves, internal levels, bloom, trailer.
    /// Returns the opened component description.
    pub fn finish(mut self) -> Result<BuiltTree> {
        self.finish_leaf()?;
        let n_leaves = self.leaves_written;
        // Build internal levels bottom-up; a page's separator is that of its
        // first child.
        let mut level = std::mem::take(&mut self.pending_level);
        let mut next_page_no = n_leaves;
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
            level = upper;
        }
        // a single-leaf or empty tree roots at page 0
        let root_page = level.first().map_or(0, |(_, page)| *page);
        // Bloom pages.
        let bloom_bytes = self.bloom.as_ref().map(|b| b.to_bytes()).unwrap_or_default();
        let bloom_start = next_page_no;
        let mut bloom_pages = 0u32;
        for chunk in bloom_bytes.chunks(PAGE_SIZE) {
            let mut page = vec![0u8; PAGE_SIZE];
            page[..chunk.len()].copy_from_slice(chunk);
            self.writer.append(&page)?;
            bloom_pages += 1;
        }
        // Trailer.
        let (min_key, max_key) = (self.first_key, self.last_key);
        let mut trailer = vec![0u8; PAGE_SIZE];
        let mut w = 0usize;
        let put = |bytes: &[u8], trailer: &mut Vec<u8>, w: &mut usize| {
            trailer[*w..*w + bytes.len()].copy_from_slice(bytes);
            *w += bytes.len();
        };
        put(&MAGIC.to_le_bytes(), &mut trailer, &mut w);
        put(&root_page.to_le_bytes(), &mut trailer, &mut w);
        put(&self.entry_count.to_le_bytes(), &mut trailer, &mut w);
        put(&n_leaves.to_le_bytes(), &mut trailer, &mut w);
        put(&bloom_start.to_le_bytes(), &mut trailer, &mut w);
        put(&bloom_pages.to_le_bytes(), &mut trailer, &mut w);
        put(&(bloom_bytes.len() as u32).to_le_bytes(), &mut trailer, &mut w);
        put(&(min_key.len() as u32).to_le_bytes(), &mut trailer, &mut w);
        put(&min_key, &mut trailer, &mut w);
        put(&(max_key.len() as u32).to_le_bytes(), &mut trailer, &mut w);
        put(&max_key, &mut trailer, &mut w);
        self.writer.append(&trailer)?;
        let file = self.writer.finish()?;
        Ok(BuiltTree {
            file,
            root_page,
            entry_count: self.entry_count,
            bloom: self.bloom,
            min_key,
            max_key,
        })
    }
}

/// Result of a bulk load: everything needed to construct a [`DiskBTree`].
pub struct BuiltTree {
    pub file: FileId,
    pub root_page: u64,
    pub entry_count: u64,
    pub bloom: Option<BloomFilter>,
    pub min_key: Vec<u8>,
    pub max_key: Vec<u8>,
}

// ---------------------------------------------------------------------------
// Reader
// ---------------------------------------------------------------------------

/// A read-only handle on a B+ tree component; all page reads go through the
/// buffer cache but a merge's ([`DiskBTree::scan_uncached`]).
pub struct DiskBTree {
    cache: Arc<BufferCache>,
    file: FileId,
    root_page: u64,
    entry_count: u64,
    bloom: Option<BloomFilter>,
    min_key: Vec<u8>,
    max_key: Vec<u8>,
}

impl DiskBTree {
    /// Wraps a freshly built tree.
    pub fn from_built(cache: Arc<BufferCache>, built: BuiltTree) -> Self {
        DiskBTree {
            cache,
            file: built.file,
            root_page: built.root_page,
            entry_count: built.entry_count,
            bloom: built.bloom,
            min_key: built.min_key,
            max_key: built.max_key,
        }
    }

    /// Opens an existing component file by reading its trailer page.
    pub fn open(cache: Arc<BufferCache>, file: FileId) -> Result<Self> {
        let n_pages = cache.manager().page_count(file)?;
        if n_pages == 0 {
            return Err(StorageError::Corrupt("empty btree file".into()));
        }
        let trailer = cache.manager().read_page(file, n_pages - 1)?;
        let magic = le::try_u32_at(&trailer, 0)?;
        if magic != MAGIC {
            return Err(StorageError::Corrupt(format!(
                "bad btree magic {magic:#010x} (this version reads {MAGIC:#010x}): not a B+ tree \
                 file, or one written before keys were memcomparable, which is not read"
            )));
        }
        let root_page = le::try_u64_at(&trailer, 4)?;
        let entry_count = le::try_u64_at(&trailer, 12)?;
        let _n_leaves = le::try_u64_at(&trailer, 20)?;
        let bloom_start = le::try_u64_at(&trailer, 28)?;
        let bloom_pages = le::try_u32_at(&trailer, 36)?;
        let bloom_len = le::try_u32_at(&trailer, 40)? as usize;
        let min_len = le::try_u32_at(&trailer, 44)? as usize;
        let min_key = le::try_bytes_at(&trailer, 48, min_len)?.to_vec();
        let mut r = 48 + min_len;
        let max_len = le::try_u32_at(&trailer, r)? as usize;
        r += 4;
        let max_key = le::try_bytes_at(&trailer, r, max_len)?.to_vec();
        let bloom = if bloom_pages > 0 {
            let mut bytes = Vec::with_capacity(bloom_len);
            for p in 0..bloom_pages as u64 {
                let page = cache.manager().read_page(file, bloom_start + p)?;
                bytes.extend_from_slice(&page);
            }
            bytes.truncate(bloom_len);
            Some(
                BloomFilter::from_bytes(&bytes)
                    .ok_or_else(|| StorageError::Corrupt("bad bloom filter".into()))?,
            )
        } else {
            None
        };
        Ok(DiskBTree { cache, file, root_page, entry_count, bloom, min_key, max_key })
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

    /// The leaf `key` belongs to — the leftmost leaf without a key.
    fn leaf_for(&self, key: Option<&[u8]>) -> Result<(Arc<Vec<u8>>, u64)> {
        let mut page_no = self.root_page;
        loop {
            let page = self.cache.get(self.file, page_no)?;
            let view = PageView::new(&page);
            if view.is_leaf() {
                return Ok((page, page_no));
            }
            page_no = match key {
                Some(key) => view.child_for(key)?,
                None => view.child(0)?,
            };
        }
    }

    /// Point lookup. Consults the bloom filter first.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if self.entry_count == 0 || !self.may_contain(key) {
            return Ok(None);
        }
        if key < self.min_key.as_slice() || key > self.max_key.as_slice() {
            return Ok(None);
        }
        let (page, _) = self.leaf_for(Some(key))?;
        let view = PageView::new(&page);
        match view.search(key)? {
            (idx, true) => Ok(Some(view.entry(idx)?.1.to_vec())),
            _ => Ok(None),
        }
    }

    /// Range scan over `[lo, hi]` with the given bounds (`Bound::Unbounded`
    /// for open ends). Yields `(key, value)` pairs in key order.
    pub fn range(
        &self,
        lo: Bound<&[u8]>,
        hi: Bound<Vec<u8>>,
    ) -> Result<BTreeRangeIter> {
        if self.entry_count == 0 {
            return Ok(BTreeRangeIter::empty());
        }
        let (page, page_no, idx) = match lo {
            Bound::Unbounded => {
                let (page, page_no) = self.leaf_for(None)?;
                (page, page_no, 0usize)
            }
            Bound::Included(k) | Bound::Excluded(k) => {
                let (page, page_no) = self.leaf_for(Some(k))?;
                let (idx, exact) = PageView::new(&page).search(k)?;
                let skip = exact && matches!(lo, Bound::Excluded(_));
                (page, page_no, idx + skip as usize)
            }
        };
        Ok(BTreeRangeIter {
            tree: Some(TreeRef { cache: Arc::clone(&self.cache), file: self.file, direct: None }),
            page: Some(page),
            page_no,
            idx,
            hi,
        })
    }

    /// Full scan in key order.
    pub fn scan(&self) -> Result<BTreeRangeIter> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Full scan in key order outside the buffer cache (see [`PageStream`]):
    /// the leaves are the file's first pages, in key order.
    pub fn scan_uncached(&self) -> Result<BTreeRangeIter> {
        if self.entry_count == 0 {
            return Ok(BTreeRangeIter::empty());
        }
        let mut direct = PageStream::new(Arc::clone(self.cache.manager()), self.file);
        let page = Arc::new(direct.page(0)?.to_vec());
        let tree = TreeRef { cache: Arc::clone(&self.cache), file: self.file, direct: Some(direct) };
        Ok(BTreeRangeIter { tree: Some(tree), page: Some(page), page_no: 0, idx: 0, hi: Bound::Unbounded })
    }
}

struct TreeRef {
    cache: Arc<BufferCache>,
    file: FileId,
    /// Where the next leaf comes from instead of the cache, if set.
    direct: Option<PageStream>,
}

/// Iterator over a key range; yields `Result<(key, value)>`.
pub struct BTreeRangeIter {
    tree: Option<TreeRef>,
    page: Option<Arc<Vec<u8>>>,
    page_no: u64,
    idx: usize,
    hi: Bound<Vec<u8>>,
}

impl BTreeRangeIter {
    fn empty() -> Self {
        BTreeRangeIter { tree: None, page: None, page_no: 0, idx: 0, hi: Bound::Unbounded }
    }
}

impl Iterator for BTreeRangeIter {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            let tree = self.tree.as_mut()?;
            let page = self.page.as_ref()?;
            let view = PageView::new(page);
            if self.idx >= view.len() {
                match view.next_leaf() {
                    None => {
                        self.page = None;
                        return None;
                    }
                    Some(next) => {
                        // Leaves are packed sequentially at the front of the
                        // file, so next-leaf fetches are the readahead path.
                        let fetched = match &mut tree.direct {
                            Some(pages) => pages.page(next).map(|p| Arc::new(p.to_vec())),
                            None => tree.cache.get_sequential(tree.file, next),
                        };
                        match fetched {
                            Ok(p) => {
                                // Leaves are packed first in the file, so the
                                // last leaf's next-pointer lands on a non-leaf
                                // page — that is the end of the scan.
                                if !PageView::new(&p).is_leaf() {
                                    self.page = None;
                                    return None;
                                }
                                self.page = Some(p);
                                self.page_no = next;
                                self.idx = 0;
                                continue;
                            }
                            Err(e) => {
                                self.page = None;
                                return Some(Err(e));
                            }
                        }
                    }
                }
            }
            let (key, v) = match view.prefix().and_then(|p| Ok((p, view.entry(self.idx)?))) {
                Ok((prefix, (suffix, v))) => ([prefix, suffix].concat(), v),
                Err(e) => {
                    self.page = None;
                    return Some(Err(e));
                }
            };
            // upper bound check
            let in_range = match &self.hi {
                Bound::Unbounded => true,
                Bound::Included(h) => key <= *h,
                Bound::Excluded(h) => key < *h,
            };
            if !in_range {
                self.page = None;
                return None;
            }
            let item = (key, v.to_vec());
            self.idx += 1;
            return Some(Ok(item));
        }
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
        let t = DiskBTree::open(Arc::clone(&cache2), fid).unwrap();
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
}
