//! R-trees: an in-memory R-tree (LSM memory components) and STR-bulk-loaded
//! on-disk R-trees (LSM disk components).
//!
//! The paper's §V-B spatial study concluded that "the 'right' LSM-based
//! spatial index to provide was simply the R-tree, as R-trees work for both
//! point and non-point data", with one storage tweak: points are not stored
//! as "infinitely small bounding boxes in the index leaves" — leaf entries
//! carry a one-byte shape flag and point entries store 16 bytes instead of 32
//! (experiment E11 measures exactly this).
//!
//! * [`MemRTree`] — insert via least-enlargement choose-subtree and quadratic
//!   split (Guttman), linear remove; backs the LSM memory component.
//! * [`RTreeBuilder`] / [`DiskRTree`] — Sort-Tile-Recursive packing into an
//!   immutable page file with the same trailer-addressed layout as
//!   [`crate::btree`].

use crate::cache::BufferCache;
use crate::error::{Result, StorageError};
use crate::io::{FileId, PageFileWriter, PageStream, PAGE_SIZE};
use crate::le::{Cursor, Format};
use asterix_adm::{Point, Rectangle};
use std::sync::Arc;

/// The trailer's header (see [`crate::le`]): "RTR2" as a little-endian u32.
pub(crate) const FORMAT: Format = Format { kind: "R-tree trailer", headers: &[&0x5254_5232u32.to_le_bytes()] };
const INTERNAL_CAP: usize = 128;

// ---------------------------------------------------------------------------
// In-memory R-tree
// ---------------------------------------------------------------------------

/// One leaf entry: an MBR (possibly degenerate) plus an opaque payload
/// (typically the encoded primary key).
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialEntry {
    pub mbr: Rectangle,
    pub key: Vec<u8>,
}

enum Node {
    Leaf(Vec<SpatialEntry>),
    Internal(Vec<(Rectangle, Box<Node>)>),
}

impl Node {
    fn mbr(&self) -> Rectangle {
        match self {
            Node::Leaf(es) => es
                .iter()
                .fold(Rectangle::empty(), |acc, e| acc.union(&e.mbr)),
            Node::Internal(cs) => cs
                .iter()
                .fold(Rectangle::empty(), |acc, (r, _)| acc.union(r)),
        }
    }
}

/// What a [`MemRTree`] allocates per entry beside its key's bytes, as a
/// counting allocator measures it on x86-64: the entry's slot in its leaf
/// (an MBR and a key, 56 B) at the fill quadratic splits leave, and its
/// share of the nodes above. Random points and random rectangles both cost
/// 80.2–80.6 B an entry with a one-int key, 47 k of them filling a 4 MiB
/// budget (`storage/tests/mem_budget.rs`); the order keys come in does not
/// matter, where the entries lie decides where they go.
pub(crate) const ENTRY_BYTES: usize = 80;

/// A Guttman-style in-memory R-tree with quadratic split.
pub struct MemRTree {
    root: Node,
    max_entries: usize,
    len: usize,
    bytes: usize,
}

impl Default for MemRTree {
    fn default() -> Self {
        Self::new()
    }
}

impl MemRTree {
    /// Creates an empty tree with the default node capacity.
    pub fn new() -> Self {
        Self::with_capacity(16)
    }

    /// Creates an empty tree with nodes holding up to `max_entries` entries.
    pub fn with_capacity(max_entries: usize) -> Self {
        MemRTree {
            root: Node::Leaf(Vec::new()),
            max_entries: max_entries.max(4),
            len: 0,
            bytes: 0,
        }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Bytes held: per entry its key and `ENTRY_BYTES`, what the tree
    /// allocates for it beside the key (for LSM flush budgeting).
    pub fn approx_bytes(&self) -> usize {
        self.bytes
    }

    /// Inserts an entry. The key is kept at its length: spare capacity its
    /// vector had is given back, so that what is counted is what is held.
    pub fn insert(&mut self, mbr: Rectangle, mut key: Vec<u8>) {
        key.shrink_to_fit();
        self.bytes += ENTRY_BYTES + key.len();
        self.len += 1;
        let entry = SpatialEntry { mbr, key };
        if let Some((r1, n1, r2, n2)) = Self::insert_rec(&mut self.root, entry, self.max_entries) {
            // root split: grow the tree
            let old = std::mem::replace(&mut self.root, Node::Internal(Vec::new()));
            drop(old); // old root was moved into n1/n2 by the split
            self.root = Node::Internal(vec![(r1, n1), (r2, n2)]);
        }
    }

    /// Inserts into `node`; on overflow returns the two halves of a split.
    fn insert_rec(
        node: &mut Node,
        entry: SpatialEntry,
        cap: usize,
    ) -> Option<(Rectangle, Box<Node>, Rectangle, Box<Node>)> {
        match node {
            Node::Leaf(entries) => {
                entries.push(entry);
                if entries.len() <= cap {
                    return None;
                }
                let (a, b) = quadratic_split(std::mem::take(entries), |e| e.mbr);
                let (ra, rb) = (
                    a.iter().fold(Rectangle::empty(), |acc, e| acc.union(&e.mbr)),
                    b.iter().fold(Rectangle::empty(), |acc, e| acc.union(&e.mbr)),
                );
                *node = Node::Leaf(Vec::new()); // will be replaced by caller
                Some((ra, Box::new(Node::Leaf(a)), rb, Box::new(Node::Leaf(b))))
            }
            Node::Internal(children) => {
                // choose subtree: least enlargement, ties by smallest area
                let mut best = 0usize;
                let mut best_cost = (f64::INFINITY, f64::INFINITY);
                for (i, (r, _)) in children.iter().enumerate() {
                    let cost = (r.enlargement(&entry.mbr), r.area());
                    if cost < best_cost {
                        best_cost = cost;
                        best = i;
                    }
                }
                let split = Self::insert_rec(&mut children[best].1, entry, cap);
                match split {
                    None => {
                        let child_mbr = children[best].1.mbr();
                        children[best].0 = child_mbr;
                        None
                    }
                    Some((r1, n1, r2, n2)) => {
                        children.remove(best);
                        children.push((r1, n1));
                        children.push((r2, n2));
                        if children.len() <= cap {
                            return None;
                        }
                        let (a, b) = quadratic_split(std::mem::take(children), |(r, _)| *r);
                        let (ra, rb) = (
                            a.iter().fold(Rectangle::empty(), |acc, (r, _)| acc.union(r)),
                            b.iter().fold(Rectangle::empty(), |acc, (r, _)| acc.union(r)),
                        );
                        *node = Node::Internal(Vec::new());
                        Some((
                            ra,
                            Box::new(Node::Internal(a)),
                            rb,
                            Box::new(Node::Internal(b)),
                        ))
                    }
                }
            }
        }
    }

    /// Removes one entry matching `(mbr, key)` exactly; returns whether an
    /// entry was removed. (No tree condensation — acceptable for short-lived
    /// memory components.)
    pub fn remove(&mut self, mbr: &Rectangle, key: &[u8]) -> bool {
        fn rec(node: &mut Node, mbr: &Rectangle, key: &[u8]) -> bool {
            match node {
                Node::Leaf(entries) => {
                    if let Some(pos) = entries
                        .iter()
                        .position(|e| e.mbr == *mbr && e.key == key)
                    {
                        entries.remove(pos);
                        true
                    } else {
                        false
                    }
                }
                Node::Internal(children) => {
                    for (r, child) in children.iter_mut() {
                        if (r.contains_rect(mbr) || r.intersects(mbr))
                            && rec(child, mbr, key) {
                                *r = child.mbr();
                                return true;
                            }
                    }
                    false
                }
            }
        }
        let removed = rec(&mut self.root, mbr, key);
        if removed {
            self.len -= 1;
            self.bytes -= ENTRY_BYTES + key.len();
        }
        removed
    }

    /// All entries whose MBR intersects `query`.
    pub fn search(&self, query: &Rectangle) -> Vec<SpatialEntry> {
        let mut out = Vec::new();
        fn rec(node: &Node, query: &Rectangle, out: &mut Vec<SpatialEntry>) {
            match node {
                Node::Leaf(entries) => {
                    for e in entries {
                        if e.mbr.intersects(query) {
                            out.push(e.clone());
                        }
                    }
                }
                Node::Internal(children) => {
                    for (r, child) in children {
                        if r.intersects(query) {
                            rec(child, query, out);
                        }
                    }
                }
            }
        }
        rec(&self.root, query, &mut out);
        out
    }

    /// All entries, in arbitrary order (used when flushing to disk).
    pub fn entries(&self) -> Vec<SpatialEntry> {
        let mut out = Vec::with_capacity(self.len);
        fn rec(node: &Node, out: &mut Vec<SpatialEntry>) {
            match node {
                Node::Leaf(entries) => out.extend(entries.iter().cloned()),
                Node::Internal(children) => {
                    for (_, c) in children {
                        rec(c, out);
                    }
                }
            }
        }
        rec(&self.root, &mut out);
        out
    }
}

/// Guttman's quadratic split over a generic item type.
fn quadratic_split<T, F: Fn(&T) -> Rectangle>(items: Vec<T>, mbr_of: F) -> (Vec<T>, Vec<T>) {
    let n = items.len();
    debug_assert!(n >= 2);
    let min_fill = (n / 3).max(1);
    // pick seeds: the pair wasting the most area if grouped
    let (mut s1, mut s2, mut worst) = (0usize, 1usize, f64::NEG_INFINITY);
    for i in 0..n {
        for j in i + 1..n {
            let (ri, rj) = (mbr_of(&items[i]), mbr_of(&items[j]));
            let waste = ri.union(&rj).area() - ri.area() - rj.area();
            if waste > worst {
                worst = waste;
                s1 = i;
                s2 = j;
            }
        }
    }
    let mut a: Vec<T> = Vec::new();
    let mut b: Vec<T> = Vec::new();
    let mut ra = Rectangle::empty();
    let mut rb = Rectangle::empty();
    let mut rest: Vec<T> = Vec::with_capacity(n - 2);
    for (idx, item) in items.into_iter().enumerate() {
        if idx == s1 {
            ra = mbr_of(&item);
            a.push(item);
        } else if idx == s2 {
            rb = mbr_of(&item);
            b.push(item);
        } else {
            rest.push(item);
        }
    }
    let total = rest.len() + 2;
    for item in rest {
        let r = mbr_of(&item);
        // force assignment if one side risks under-fill
        let remaining = total - a.len() - b.len();
        if a.len() + remaining <= min_fill {
            ra = ra.union(&r);
            a.push(item);
            continue;
        }
        if b.len() + remaining <= min_fill {
            rb = rb.union(&r);
            b.push(item);
            continue;
        }
        let (ca, cb) = (ra.enlargement(&r), rb.enlargement(&r));
        if ca < cb || (ca == cb && ra.area() <= rb.area()) {
            ra = ra.union(&r);
            a.push(item);
        } else {
            rb = rb.union(&r);
            b.push(item);
        }
    }
    (a, b)
}

// ---------------------------------------------------------------------------
// Disk R-tree (STR bulk load)
// ---------------------------------------------------------------------------

fn write_rect(out: &mut Vec<u8>, r: &Rectangle) {
    out.extend_from_slice(&r.min.x.to_le_bytes());
    out.extend_from_slice(&r.min.y.to_le_bytes());
    out.extend_from_slice(&r.max.x.to_le_bytes());
    out.extend_from_slice(&r.max.y.to_le_bytes());
}

fn read_rect(buf: &[u8]) -> Rectangle {
    let f = |i: usize| crate::le::f64_at(buf, i);
    Rectangle {
        min: Point::new(f(0), f(8)),
        max: Point::new(f(16), f(24)),
    }
}

/// Builds an immutable disk R-tree from a batch of entries using
/// Sort-Tile-Recursive packing.
///
/// `point_optimize` enables the paper's §V-B leaf storage optimization:
/// degenerate (point) MBRs are stored as 16 bytes + flag instead of 32.
pub struct RTreeBuilder {
    writer: PageFileWriter,
    point_optimize: bool,
}

impl RTreeBuilder {
    /// Creates a builder writing into `writer`.
    pub fn new(writer: PageFileWriter, point_optimize: bool) -> Self {
        RTreeBuilder { writer, point_optimize }
    }

    /// Packs `entries` and finalizes the file. Entry keys must fit a page.
    pub fn build(mut self, mut entries: Vec<SpatialEntry>) -> Result<BuiltRTree> {
        for e in &entries {
            if e.key.len() + 64 > PAGE_SIZE / 2 {
                return Err(StorageError::RecordTooLarge {
                    size: e.key.len(),
                    max: PAGE_SIZE / 2 - 64,
                });
            }
        }
        let n = entries.len();
        // Leaf capacity is byte-aware: the point-MBR optimization (16-byte
        // point entries instead of 32-byte rectangles) therefore packs more
        // entries per page and shrinks the component (experiment E11).
        let max_entry_bytes = entries
            .iter()
            .map(|e| {
                let mbr_bytes = if self.point_optimize && e.mbr.is_point() { 16 } else { 32 };
                1 + mbr_bytes + 2 + e.key.len()
            })
            .max()
            .unwrap_or(40);
        let leaf_cap = ((PAGE_SIZE - 3) / max_entry_bytes).clamp(2, 1024);
        // STR: sort by center-x, slice into vertical slabs, sort each by
        // center-y, pack runs of leaf_cap.
        let n_leaves = n.div_ceil(leaf_cap).max(1);
        let slabs = (n_leaves as f64).sqrt().ceil() as usize;
        let slab_size = n.div_ceil(slabs.max(1)).max(1);
        entries.sort_by(|a, b| {
            a.mbr
                .center()
                .x
                .total_cmp(&b.mbr.center().x)
                .then(a.mbr.center().y.total_cmp(&b.mbr.center().y))
        });
        let mut level: Vec<(Rectangle, u64)> = Vec::new();
        let mut page_no = 0u64;
        let mut i = 0usize;
        while i < n {
            let slab_end = (i + slab_size).min(n);
            let slab = &mut entries[i..slab_end];
            slab.sort_by(|a, b| a.mbr.center().y.total_cmp(&b.mbr.center().y));
            let mut j = 0usize;
            while j < slab.len() {
                let run_end = (j + leaf_cap).min(slab.len());
                let run = &slab[j..run_end];
                let page = self.emit_leaf(run)?;
                let mbr = run
                    .iter()
                    .fold(Rectangle::empty(), |acc, e| acc.union(&e.mbr));
                self.writer.append(&page)?;
                level.push((mbr, page_no));
                page_no += 1;
                j = run_end;
            }
            i = slab_end;
        }
        if level.is_empty() {
            // empty tree: emit one empty leaf so the root exists
            let page = self.emit_leaf(&[])?;
            self.writer.append(&page)?;
            level.push((Rectangle::empty(), 0));
            page_no = 1;
        }
        // internal levels
        let mut root_page = level[0].1;
        while level.len() > 1 {
            let mut upper = Vec::new();
            for chunk in level.chunks(INTERNAL_CAP) {
                let mut page = vec![0u8; PAGE_SIZE];
                page[0] = 0;
                page[1..3].copy_from_slice(&(chunk.len() as u16).to_le_bytes());
                let mut w = 3usize;
                let mut mbr = Rectangle::empty();
                for (r, child) in chunk {
                    let mut buf = Vec::with_capacity(40);
                    write_rect(&mut buf, r);
                    buf.extend_from_slice(&child.to_le_bytes());
                    page[w..w + buf.len()].copy_from_slice(&buf);
                    w += buf.len();
                    mbr = mbr.union(r);
                }
                self.writer.append(&page)?;
                upper.push((mbr, page_no));
                page_no += 1;
            }
            level = upper;
            root_page = level[0].1;
        }
        // trailer
        let mut trailer = vec![0u8; PAGE_SIZE];
        trailer[0..4].copy_from_slice(FORMAT.headers[0]);
        trailer[4..12].copy_from_slice(&root_page.to_le_bytes());
        trailer[12..20].copy_from_slice(&(n as u64).to_le_bytes());
        trailer[20] = self.point_optimize as u8;
        self.writer.append(&trailer)?;
        let data_pages = page_no;
        let file = self.writer.finish()?;
        Ok(BuiltRTree { file, root_page, entry_count: n as u64, data_pages })
    }

    fn emit_leaf(&self, run: &[SpatialEntry]) -> Result<Vec<u8>> {
        let mut page = vec![0u8; PAGE_SIZE];
        page[0] = 1;
        page[1..3].copy_from_slice(&(run.len() as u16).to_le_bytes());
        let mut w = 3usize;
        for e in run {
            let mut buf = Vec::with_capacity(40 + e.key.len());
            let as_point = self.point_optimize && e.mbr.is_point();
            buf.push(as_point as u8);
            if as_point {
                buf.extend_from_slice(&e.mbr.min.x.to_le_bytes());
                buf.extend_from_slice(&e.mbr.min.y.to_le_bytes());
            } else {
                write_rect(&mut buf, &e.mbr);
            }
            buf.extend_from_slice(&(e.key.len() as u16).to_le_bytes());
            buf.extend_from_slice(&e.key);
            if w + buf.len() > PAGE_SIZE {
                return Err(StorageError::RecordTooLarge {
                    size: buf.len(),
                    max: PAGE_SIZE - 3,
                });
            }
            page[w..w + buf.len()].copy_from_slice(&buf);
            w += buf.len();
        }
        Ok(page)
    }
}

/// Result of an STR bulk load.
pub struct BuiltRTree {
    pub file: FileId,
    pub root_page: u64,
    pub entry_count: u64,
    /// Tree pages (excluding the trailer) — the component's on-disk size in
    /// pages, compared in experiment E11.
    pub data_pages: u64,
}

/// Read-only handle on a disk R-tree component.
pub struct DiskRTree {
    cache: Arc<BufferCache>,
    file: FileId,
    root_page: u64,
    entry_count: u64,
    data_pages: u64,
}

impl DiskRTree {
    /// Wraps a freshly built component.
    pub fn from_built(cache: Arc<BufferCache>, built: BuiltRTree) -> Self {
        DiskRTree {
            cache,
            file: built.file,
            root_page: built.root_page,
            entry_count: built.entry_count,
            data_pages: built.data_pages,
        }
    }

    /// Opens an existing component file via its trailer, whose root must be
    /// one of the pages before it.
    pub fn open(cache: Arc<BufferCache>, file: FileId) -> Result<Self> {
        let n_pages = cache.manager().page_count(file)?;
        if n_pages == 0 {
            return Err(StorageError::Corrupt("empty rtree file".into()));
        }
        let page = cache.manager().read_page(file, n_pages - 1)?;
        let mut trailer = Cursor::new(&page);
        trailer.header(&FORMAT)?;
        let (root_page, entry_count, data_pages) = (trailer.u64()?, trailer.u64()?, n_pages - 1);
        if root_page >= data_pages {
            return Err(StorageError::Corrupt(format!(
                "rtree trailer: root page {root_page} is not one of the {data_pages} tree pages"
            )));
        }
        Ok(DiskRTree { cache, file, root_page, entry_count, data_pages })
    }

    /// The component file id.
    pub fn file(&self) -> FileId {
        self.file
    }

    /// Number of entries.
    pub fn len(&self) -> u64 {
        self.entry_count
    }

    /// True when the component holds no entries.
    pub fn is_empty(&self) -> bool {
        self.entry_count == 0
    }

    /// Tree pages on disk (E11's storage-size metric).
    pub fn data_pages(&self) -> u64 {
        self.data_pages
    }

    /// All entries intersecting `query`.
    pub fn search(&self, query: &Rectangle) -> Result<Vec<SpatialEntry>> {
        let mut out = Vec::new();
        if self.entry_count == 0 {
            return Ok(out);
        }
        self.search_page(self.root_page, query, &mut out)?;
        Ok(out)
    }

    /// [`DiskRTree::search`] for a query most of the tree intersects (a
    /// merge's), outside the buffer cache (see [`PageStream`]): the leaves
    /// are the file's first pages, in the order a search visits them.
    pub fn search_uncached(&self, query: &Rectangle) -> Result<Vec<SpatialEntry>> {
        let mut out = Vec::new();
        let mut pages = PageStream::new(Arc::clone(self.cache.manager()), self.file);
        let (mut seen, mut page_no) = (0, 0);
        while seen < self.entry_count {
            let page = pages.page(page_no)?;
            if page[0] != 1 {
                return Err(StorageError::Corrupt("rtree leaves hold fewer entries than the trailer counts".into()));
            }
            seen += leaf_entries(page, query, &mut out)?;
            page_no += 1;
        }
        Ok(out)
    }

    fn search_page(
        &self,
        page_no: u64,
        query: &Rectangle,
        out: &mut Vec<SpatialEntry>,
    ) -> Result<()> {
        let page = self.cache.get(self.file, page_no)?;
        if page[0] == 1 {
            leaf_entries(&page, query, out)?;
            return Ok(());
        }
        let mut c = Cursor::new(&page);
        let (_, n) = (c.u8()?, c.u16()?);
        for _ in 0..n {
            let (mbr, child) = (read_rect(c.bytes(32)?), c.u64()?);
            if mbr.intersects(query) {
                self.search_page(child, query, out)?;
            }
        }
        Ok(())
    }
}

/// Appends to `out` the entries of leaf `page` that intersect `query`;
/// returns how many entries the leaf holds.
fn leaf_entries(page: &[u8], query: &Rectangle, out: &mut Vec<SpatialEntry>) -> Result<u64> {
    let mut c = Cursor::new(page);
    let (_, n) = (c.u8()?, c.u16()?);
    for _ in 0..n {
        let mbr = match c.u8()? {
            1 => Point::new(f64::from_bits(c.u64()?), f64::from_bits(c.u64()?)).to_mbr(),
            _ => read_rect(c.bytes(32)?),
        };
        let klen = c.u16()? as usize;
        let key = c.bytes(klen)?;
        if mbr.intersects(query) {
            out.push(SpatialEntry { mbr, key: key.to_vec() });
        }
    }
    Ok(u64::from(n))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::FileManager;
    use crate::stats::IoStats;
    use crate::testutil::TempDir;

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rectangle {
        Rectangle::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn grid_points(n_side: usize) -> Vec<SpatialEntry> {
        let mut out = Vec::new();
        for i in 0..n_side {
            for j in 0..n_side {
                out.push(SpatialEntry {
                    mbr: Point::new(i as f64, j as f64).to_mbr(),
                    key: format!("{i},{j}").into_bytes(),
                });
            }
        }
        out
    }

    #[test]
    fn mem_rtree_insert_search() {
        let mut t = MemRTree::new();
        for e in grid_points(30) {
            t.insert(e.mbr, e.key);
        }
        assert_eq!(t.len(), 900);
        let hits = t.search(&rect(5.0, 5.0, 7.0, 7.0));
        assert_eq!(hits.len(), 9, "3x3 grid points in range");
        let all = t.search(&rect(-1.0, -1.0, 30.0, 30.0));
        assert_eq!(all.len(), 900);
        let none = t.search(&rect(100.0, 100.0, 110.0, 110.0));
        assert!(none.is_empty());
    }

    #[test]
    fn mem_rtree_remove() {
        let mut t = MemRTree::new();
        for e in grid_points(10) {
            t.insert(e.mbr, e.key);
        }
        let target = Point::new(3.0, 4.0).to_mbr();
        assert!(t.remove(&target, b"3,4"));
        assert!(!t.remove(&target, b"3,4"), "already removed");
        assert_eq!(t.len(), 99);
        let hits = t.search(&rect(3.0, 4.0, 3.0, 4.0));
        assert!(hits.is_empty());
    }

    #[test]
    fn mem_rtree_rect_entries() {
        let mut t = MemRTree::new();
        t.insert(rect(0.0, 0.0, 10.0, 10.0), b"big".to_vec());
        t.insert(rect(20.0, 20.0, 21.0, 21.0), b"small".to_vec());
        let hits = t.search(&rect(5.0, 5.0, 6.0, 6.0));
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key, b"big");
    }

    #[test]
    fn mem_rtree_entries_roundtrip() {
        let mut t = MemRTree::with_capacity(4); // force splits
        for e in grid_points(12) {
            t.insert(e.mbr, e.key);
        }
        let mut entries = t.entries();
        assert_eq!(entries.len(), 144);
        entries.sort_by(|a, b| a.key.cmp(&b.key));
        entries.dedup_by(|a, b| a.key == b.key);
        assert_eq!(entries.len(), 144, "no duplicates, none lost");
    }

    fn setup() -> (Arc<BufferCache>, TempDir) {
        let dir = TempDir::new();
        let fm = FileManager::new(dir.path(), IoStats::new()).unwrap();
        (BufferCache::new(fm, 128), dir)
    }

    #[test]
    fn disk_rtree_str_search() {
        let (cache, _d) = setup();
        let w = cache.manager().bulk_writer("r.rtree").unwrap();
        let built = RTreeBuilder::new(w, true).build(grid_points(40)).unwrap();
        let t = DiskRTree::from_built(Arc::clone(&cache), built);
        assert_eq!(t.len(), 1600);
        let hits = t.search(&rect(10.0, 10.0, 14.0, 14.0)).unwrap();
        assert_eq!(hits.len(), 25);
        let all = t.search(&rect(-1.0, -1.0, 40.0, 40.0)).unwrap();
        assert_eq!(all.len(), 1600);
        assert!(t.search(&rect(500.0, 500.0, 501.0, 501.0)).unwrap().is_empty());
    }

    #[test]
    fn disk_rtree_empty_and_reopen() {
        let (cache, dir) = setup();
        {
            let w = cache.manager().bulk_writer("e.rtree").unwrap();
            let built = RTreeBuilder::new(w, true).build(vec![]).unwrap();
            let t = DiskRTree::from_built(Arc::clone(&cache), built);
            assert!(t.is_empty());
            assert!(t.search(&rect(0.0, 0.0, 1.0, 1.0)).unwrap().is_empty());
        }
        let fm2 = FileManager::new(dir.path(), IoStats::new()).unwrap();
        let cache2 = BufferCache::new(fm2, 8);
        let fid = cache2.manager().open("e.rtree").unwrap();
        let t = DiskRTree::open(cache2, fid).unwrap();
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn a_trailer_whose_root_is_not_a_tree_page_is_refused_at_open() {
        let (cache, dir) = setup();
        let w = cache.manager().bulk_writer("r.rtree").unwrap();
        let built = RTreeBuilder::new(w, true).build(grid_points(40)).unwrap();
        let path = dir.path().join("r.rtree");
        let mut file = std::fs::read(&path).unwrap();
        let trailer = file.len() - PAGE_SIZE;
        // the last tree page is a root; the trailer's own page and past it are not
        for (root, opens) in [(built.data_pages - 1, true), (built.data_pages, false), (u64::MAX, false)] {
            file[trailer + 4..trailer + 12].copy_from_slice(&root.to_le_bytes());
            std::fs::write(&path, &file).unwrap();
            let fm = FileManager::new(dir.path(), IoStats::new()).unwrap();
            let cache = BufferCache::new(fm, 8);
            let fid = cache.manager().open("r.rtree").unwrap();
            match DiskRTree::open(cache, fid) {
                Ok(_) => assert!(opens, "root {root} opened"),
                Err(StorageError::Corrupt(why)) => assert!(!opens && why.contains("root page"), "root {root}: {why}"),
                Err(e) => panic!("root {root}: {e}"),
            }
        }
    }

    #[test]
    fn point_optimization_shrinks_component() {
        let (cache, _d) = setup();
        let pts = grid_points(60); // 3600 points
        let w1 = cache.manager().bulk_writer("opt.rtree").unwrap();
        let opt = RTreeBuilder::new(w1, true).build(pts.clone()).unwrap();
        let w2 = cache.manager().bulk_writer("noopt.rtree").unwrap();
        let noopt = RTreeBuilder::new(w2, false).build(pts).unwrap();
        assert!(
            opt.data_pages < noopt.data_pages,
            "point-optimized {} pages vs {} pages",
            opt.data_pages,
            noopt.data_pages
        );
        // identical query results
        let t1 = DiskRTree::from_built(Arc::clone(&cache), opt);
        let t2 = DiskRTree::from_built(Arc::clone(&cache), noopt);
        let q = rect(10.0, 10.0, 20.0, 20.0);
        let mut h1 = t1.search(&q).unwrap();
        let mut h2 = t2.search(&q).unwrap();
        h1.sort_by(|a, b| a.key.cmp(&b.key));
        h2.sort_by(|a, b| a.key.cmp(&b.key));
        assert_eq!(h1, h2);
    }

    #[test]
    fn disk_rtree_rectangles() {
        let (cache, _d) = setup();
        let mut entries = Vec::new();
        for i in 0..200 {
            let x = (i % 20) as f64 * 10.0;
            let y = (i / 20) as f64 * 10.0;
            entries.push(SpatialEntry {
                mbr: rect(x, y, x + 5.0, y + 5.0),
                key: format!("r{i}").into_bytes(),
            });
        }
        let w = cache.manager().bulk_writer("rects.rtree").unwrap();
        let t = DiskRTree::from_built(
            Arc::clone(&cache),
            RTreeBuilder::new(w, true).build(entries).unwrap(),
        );
        let hits = t.search(&rect(0.0, 0.0, 12.0, 12.0)).unwrap();
        assert_eq!(hits.len(), 4, "2x2 block of 10-spaced 5-wide rects");
    }
}
