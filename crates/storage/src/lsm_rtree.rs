//! The LSM R-tree: AsterixDB's spatial secondary index (paper §V-B).
//!
//! Inserts go to an in-memory R-tree; flushes STR-pack it into an immutable
//! disk R-tree component. Deletes follow AsterixDB's design — "we made a
//! change in how deletions were handled for LSM" — by recording deleted keys
//! in a **companion key B+ tree** per component rather than anti-matter
//! entries in the R-tree itself: a candidate from an older component is
//! filtered out when any newer component's deleted-key tree contains its key.
//!
//! Every disk component applies the §V-B leaf-storage optimization (points
//! stored without duplicated MBR corners; experiment E11 compares it with
//! `RTreeBuilder::new(_, false)`).
//!
//! Only what is R-tree-specific lives here: the memory component, the
//! two-file disk component, STR packing and the visibility walk that merges
//! components. The component list and its manifest, ids, sealing, merge
//! scheduling, publishing and retirement are the shared lifecycle in
//! `crate::harness`.

use crate::btree::{BTreeBuilder, BTreeRangeIter, DiskBTree};
use crate::cache::BufferCache;
use crate::error::{Result, StorageError};
use crate::harness::{Built, Component, ComponentKind, Lsm, MemBuf, MergePolicy};
use crate::io::FileId;
use crate::rtree::{DiskRTree, MemRTree, RTreeBuilder, SpatialEntry};
use asterix_adm::{Point, Rectangle};
use std::collections::{BTreeSet, HashSet};
use std::sync::Arc;

/// Configuration of an LSM R-tree.
#[derive(Debug, Clone)]
pub struct LsmRTreeConfig {
    pub name: String,
    /// Memory-component budget in bytes.
    pub mem_budget: usize,
    pub merge_policy: MergePolicy,
}

impl LsmRTreeConfig {
    /// Default configuration.
    pub fn new(name: impl Into<String>) -> Self {
        LsmRTreeConfig {
            name: name.into(),
            mem_budget: 1 << 20,
            merge_policy: MergePolicy::Prefix {
                max_mergable_bytes: 16 << 20,
                max_tolerance_components: 4,
            },
        }
    }
}

/// The rectangle every entry intersects.
fn everything() -> Rectangle {
    Rectangle::new(
        Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
        Point::new(f64::INFINITY, f64::INFINITY),
    )
}

// ---------------------------------------------------------------------------
// The R-tree component kind
// ---------------------------------------------------------------------------

/// One disk component: `<name>_c<id>.rtree` plus, when any key was deleted
/// while it was the memory component, `<name>_c<id>.delkeys`.
pub struct RTreeDisk {
    rtree: DiskRTree,
    /// Keys deleted *logically before* this component was flushed; masks
    /// matching entries in all older components.
    tombstones: Option<DiskBTree>,
}

/// The newest-to-oldest visibility walk shared by searches and merges: an
/// entry is live if no newer component deleted its key and no newer
/// component holds a version of it.
#[derive(Default)]
struct Visibility {
    deleted: HashSet<Vec<u8>>,
    seen: HashSet<Vec<u8>>,
    live: Vec<SpatialEntry>,
}

impl Visibility {
    fn admit(&mut self, entries: Vec<SpatialEntry>) {
        for e in entries {
            if !self.deleted.contains(&e.key) && self.seen.insert(e.key.clone()) {
                self.live.push(e);
            }
        }
    }

    /// Takes in a memory component's entries intersecting `query`, then its
    /// deleted keys. Returns the candidates examined.
    fn visit_mem(&mut self, mem: &RTreeMem, query: &Rectangle) -> u64 {
        let found = mem.rtree.search(query);
        let examined = found.len() as u64;
        self.admit(found);
        self.deleted.extend(mem.tombstones.iter().cloned());
        examined
    }

    /// Takes in the entries `found` in a disk component, then the keys its
    /// companion tree lists as `deleted`, which mask everything older.
    /// Returns the candidates examined.
    fn visit(
        &mut self,
        found: Vec<SpatialEntry>,
        deleted: Option<BTreeRangeIter>,
    ) -> Result<u64> {
        let examined = found.len() as u64;
        self.admit(found);
        for item in deleted.into_iter().flatten() {
            self.deleted.insert(item?.0);
        }
        Ok(examined)
    }
}

/// What the set of a memory component's deleted keys allocates per key
/// beside its bytes, as a counting allocator measures it on x86-64: a key's
/// slot (24 B) and its share of the nodes' slack and the levels above.
/// One-int keys deleted in random order cost 38.8 B a key, 87 k of them
/// filling a 4 MiB budget (`storage/tests/mem_budget.rs`); in ascending
/// order, 48.9 B: a set of keys deleted in key order is counted up to a
/// fifth short.
const DELETED_KEY_BYTES: usize = 39;

/// The memory component: entries plus the keys deleted while it was active
/// (they mask older components, never this one).
#[derive(Default)]
pub struct RTreeMem {
    rtree: MemRTree,
    tombstones: BTreeSet<Vec<u8>>,
    /// Bytes held by `tombstones`: per key its bytes and
    /// [`DELETED_KEY_BYTES`].
    tombstone_bytes: usize,
}

impl MemBuf for RTreeMem {
    fn bytes(&self) -> usize {
        self.rtree.approx_bytes() + self.tombstone_bytes
    }

    fn is_empty(&self) -> bool {
        self.rtree.is_empty() && self.tombstones.is_empty()
    }
}

/// An in-progress merge: the visibility walk, one input component per step
/// — a sealed memory component first, then each disk component read outside
/// the buffer cache.
pub struct RTreeMergeRun {
    id: u64,
    /// The sealed memory component taken in, until it is walked.
    mem: Option<Arc<RTreeMem>>,
    /// Input components not yet walked; the newest is last.
    pending: Vec<Arc<Component<RTreeKind>>>,
    includes_oldest: bool,
    walk: Visibility,
}

/// What the lifecycle harness needs to know about R-tree components: how
/// they are built, which files they own, and how a run of them merges.
pub struct RTreeKind {
    cache: Arc<BufferCache>,
    config: LsmRTreeConfig,
}

impl RTreeKind {
    /// STR-packs `entries` and bulk-loads `tombstones` into the files of
    /// component `id`.
    fn build(
        &self,
        id: u64,
        entries: Vec<SpatialEntry>,
        tombstones: &BTreeSet<Vec<u8>>,
    ) -> Result<Built<RTreeDisk>> {
        let written = (entries.len() + tombstones.len()) as u64;
        let manager = self.cache.manager();
        let writer = manager.bulk_writer(&format!("{}_c{}.rtree", self.config.name, id))?;
        let built = RTreeBuilder::new(writer, true).build(entries)?;
        let size_bytes = manager.page_count(built.file)? * crate::io::PAGE_SIZE as u64;
        let rtree = DiskRTree::from_built(Arc::clone(&self.cache), built);
        let tombstones = if tombstones.is_empty() {
            None
        } else {
            let writer = manager.bulk_writer(&format!("{}_c{}.delkeys", self.config.name, id))?;
            let mut b = BTreeBuilder::new(writer, true);
            for k in tombstones {
                b.add(k, Some(&[]))?;
            }
            Some(DiskBTree::from_built(Arc::clone(&self.cache), b.finish()?))
        };
        Ok(Built { disk: RTreeDisk { rtree, tombstones }, size_bytes, written })
    }
}

impl ComponentKind for RTreeKind {
    type Config = LsmRTreeConfig;
    type Mem = RTreeMem;
    type Disk = RTreeDisk;
    type Run = RTreeMergeRun;

    fn new(cache: Arc<BufferCache>, config: LsmRTreeConfig) -> Self {
        RTreeKind { cache, config }
    }

    fn cache(&self) -> &Arc<BufferCache> {
        &self.cache
    }

    fn name(&self) -> &str {
        &self.config.name
    }

    fn mem_budget(&self) -> usize {
        self.config.mem_budget
    }

    fn merge_policy(&self) -> MergePolicy {
        self.config.merge_policy
    }

    fn files(disk: &RTreeDisk) -> Vec<FileId> {
        std::iter::once(disk.rtree.file())
            .chain(disk.tombstones.as_ref().map(DiskBTree::file))
            .collect()
    }

    fn reopen(&self, files: &[FileId]) -> Result<RTreeDisk> {
        let open_keys = |file: &FileId| DiskBTree::open(Arc::clone(&self.cache), *file, None);
        match files {
            [rtree, tombstones @ ..] if tombstones.len() <= 1 => Ok(RTreeDisk {
                rtree: DiskRTree::open(Arc::clone(&self.cache), *rtree)?,
                tombstones: tombstones.first().map(open_keys).transpose()?,
            }),
            _ => Err(StorageError::Corrupt(format!(
                "R-tree component of {} lists {} files",
                self.config.name,
                files.len()
            ))),
        }
    }

    fn open(
        &self,
        id: u64,
        mem: Option<&Arc<RTreeMem>>,
        inputs: &[Arc<Component<Self>>],
        includes_oldest: bool,
    ) -> Result<RTreeMergeRun> {
        let pending = inputs.iter().rev().cloned().collect();
        Ok(RTreeMergeRun { id, mem: mem.cloned(), pending, includes_oldest, walk: Visibility::default() })
    }

    /// Walks the newest input not yet visited, whatever `budget` says: a
    /// component is the unit an R-tree search can be resumed at.
    fn step(&self, run: &mut RTreeMergeRun, _budget: usize) -> Result<bool> {
        if let Some(mem) = run.mem.take() {
            run.walk.visit_mem(&mem, &everything());
        } else if let Some(comp) = run.pending.pop() {
            let disk = &comp.disk;
            let found = disk.rtree.search_uncached(&everything())?;
            let deleted = disk.tombstones.as_ref().map(DiskBTree::scan_uncached).transpose()?;
            run.walk.visit(found, deleted)?;
        }
        Ok(run.mem.is_none() && run.pending.is_empty())
    }

    fn finish(&self, run: RTreeMergeRun) -> Result<Built<RTreeDisk>> {
        let mut tombstones = BTreeSet::new();
        if !run.includes_oldest {
            // something older is left for the deleted keys to mask
            tombstones.extend(run.walk.deleted);
        }
        self.build(run.id, run.walk.live, &tombstones)
    }
}

// ---------------------------------------------------------------------------
// The LSM R-tree
// ---------------------------------------------------------------------------

/// An LSM-ified R-tree over `(MBR, encoded primary key)` entries: the
/// [`Lsm`] lifecycle plus the reads and writes below.
pub type LsmRTree = Lsm<RTreeKind>;

impl Lsm<RTreeKind> {
    /// Inserts an entry; past the memory budget the memory component is
    /// sealed and, unless an open transaction wrote into it, flushed. A
    /// pending tombstone for the key stays: it masks the key's versions in
    /// older components, never this one.
    pub fn insert(&mut self, mbr: Rectangle, key: Vec<u8>) -> Result<()> {
        self.shared.count_ingested();
        self.mem.active_mut().rtree.insert(mbr, key);
        self.settle(false)
    }

    /// Deletes an entry. If it still lives in the active memory component it
    /// is removed directly; otherwise its key is recorded as a tombstone for
    /// the companion B+ tree.
    pub fn delete(&mut self, mbr: &Rectangle, key: &[u8]) -> Result<()> {
        self.shared.count_ingested();
        let mem = self.mem.active_mut();
        if !mem.rtree.remove(mbr, key) && mem.tombstones.insert(key.to_vec()) {
            mem.tombstone_bytes += key.len() + DELETED_KEY_BYTES;
        }
        self.settle(false)
    }

    /// All live entries intersecting `query`, resolving deletes across
    /// components (newest wins; tombstones mask older components).
    pub fn search(&self, query: &Rectangle) -> Result<Vec<SpatialEntry>> {
        let mut walk = Visibility::default();
        let mut examined = 0;
        for mem in self.mem.newest_first() {
            examined += walk.visit_mem(mem, query);
        }
        // The snapshot keeps a concurrently merged-away component readable.
        for comp in self.shared.snapshot() {
            let deleted = comp.disk.tombstones.as_ref().map(DiskBTree::scan).transpose()?;
            examined += walk.visit(comp.disk.rtree.search(query)?, deleted)?;
        }
        self.shared.count_visited(examined);
        Ok(walk.live)
    }

    /// Count of live entries (full-space search; for tests).
    pub fn count(&self) -> Result<usize> {
        Ok(self.search(&everything())?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::harness::LsmIndex;
    use crate::io::FileManager;
    use crate::stats::IoStats;
    use crate::testutil::TempDir;

    fn setup() -> (Arc<BufferCache>, TempDir) {
        let dir = TempDir::new();
        let fm = FileManager::new(dir.path(), IoStats::new()).unwrap();
        (BufferCache::new(fm, 256), dir)
    }

    fn config(name: &str) -> LsmRTreeConfig {
        LsmRTreeConfig {
            name: name.into(),
            mem_budget: 8 << 10,
            merge_policy: MergePolicy::NoMerge,
        }
    }

    fn pt(x: f64, y: f64) -> Rectangle {
        Point::new(x, y).to_mbr()
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rectangle {
        Rectangle::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    #[test]
    fn insert_search_across_flushes() {
        let (cache, _d) = setup();
        let mut t = LsmRTree::new(cache, config("s"));
        for i in 0..50 {
            for j in 0..50 {
                t.insert(pt(i as f64, j as f64), format!("{i},{j}").into_bytes())
                    .unwrap();
            }
        }
        assert!(t.component_count() > 0, "memory budget forced flushes");
        let hits = t.search(&rect(10.0, 10.0, 12.0, 12.0)).unwrap();
        assert_eq!(hits.len(), 9);
        assert_eq!(t.count().unwrap(), 2500);
    }

    #[test]
    fn delete_in_memory_component() {
        let (cache, _d) = setup();
        let mut t = LsmRTree::new(cache, config("s"));
        t.insert(pt(1.0, 1.0), b"a".to_vec()).unwrap();
        t.insert(pt(2.0, 2.0), b"b".to_vec()).unwrap();
        t.delete(&pt(1.0, 1.0), b"a").unwrap();
        let hits = t.search(&rect(0.0, 0.0, 3.0, 3.0)).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key, b"b");
    }

    #[test]
    fn delete_masks_older_components_via_companion_btree() {
        let (cache, _d) = setup();
        let mut t = LsmRTree::new(cache, config("s"));
        t.insert(pt(1.0, 1.0), b"a".to_vec()).unwrap();
        t.insert(pt(2.0, 2.0), b"b".to_vec()).unwrap();
        t.flush().unwrap();
        // entry now only on disk; delete must go through the tombstone path
        t.delete(&pt(1.0, 1.0), b"a").unwrap();
        let hits = t.search(&rect(0.0, 0.0, 3.0, 3.0)).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].key, b"b");
        // tombstone survives its own flush
        t.flush().unwrap();
        let hits = t.search(&rect(0.0, 0.0, 3.0, 3.0)).unwrap();
        assert_eq!(hits.len(), 1);
    }

    #[test]
    fn reinsert_after_delete_revives() {
        let (cache, _d) = setup();
        let mut t = LsmRTree::new(cache, config("s"));
        t.insert(pt(1.0, 1.0), b"a".to_vec()).unwrap();
        t.flush().unwrap();
        t.delete(&pt(1.0, 1.0), b"a").unwrap();
        t.insert(pt(5.0, 5.0), b"a".to_vec()).unwrap(); // moved object
        let hits = t.search(&rect(0.0, 0.0, 10.0, 10.0)).unwrap();
        assert_eq!(hits.len(), 1);
        assert_eq!(hits[0].mbr, pt(5.0, 5.0), "new position wins");
    }

    #[test]
    fn moved_key_stays_masked_in_older_components() {
        // An insert used to drop the key's pending tombstone ("revive"),
        // un-masking the stale on-disk version: memory entries are never
        // masked by tombstones, only older components are.
        let (cache, _d) = setup();
        let mut t = LsmRTree::new(cache, config("s"));
        t.insert(pt(1.0, 1.0), b"a".to_vec()).unwrap();
        t.flush().unwrap();
        t.delete(&pt(1.0, 1.0), b"a").unwrap();
        t.insert(pt(5.0, 5.0), b"a".to_vec()).unwrap();
        assert!(t.search(&rect(0.0, 0.0, 2.0, 2.0)).unwrap().is_empty(), "old position is gone");
        t.delete(&pt(5.0, 5.0), b"a").unwrap();
        assert_eq!(t.count().unwrap(), 0, "the deleted key is not resurrected");
    }

    #[test]
    fn merge_compacts_components_and_applies_tombstones() {
        let (cache, _d) = setup();
        let mut t = LsmRTree::new(cache, config("s"));
        for i in 0..100 {
            t.insert(pt(i as f64, 0.0), format!("k{i}").into_bytes()).unwrap();
        }
        t.flush().unwrap();
        for i in 0..50 {
            t.delete(&pt(i as f64, 0.0), format!("k{i}").as_bytes()).unwrap();
        }
        t.flush().unwrap();
        assert!(t.component_count() >= 2);
        let n = t.component_count();
        t.merge_newest(n).unwrap();
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.count().unwrap(), 50);
        let hits = t.search(&rect(0.0, 0.0, 49.0, 0.0)).unwrap();
        assert!(hits.is_empty(), "deleted half gone after merge");
    }

    #[test]
    fn automatic_merge_with_constant_policy() {
        let (cache, _d) = setup();
        let mut cfg = config("s");
        cfg.merge_policy = MergePolicy::Constant { max_components: 2 };
        let mut t = LsmRTree::new(cache, cfg);
        for i in 0..3_000 {
            t.insert(
                pt((i % 100) as f64, (i / 100) as f64),
                format!("k{i}").into_bytes(),
            )
            .unwrap();
        }
        t.flush().unwrap();
        assert!(t.component_count() <= 3);
        assert_eq!(t.count().unwrap(), 3_000);
    }
}
