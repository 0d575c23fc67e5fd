//! The LSM R-tree: AsterixDB's spatial secondary index (paper §V-B).
//!
//! Inserts go to an in-memory R-tree; flushes STR-pack it into an immutable
//! disk R-tree component. Deletes follow AsterixDB's design — "we made a
//! change in how deletions were handled for LSM" — by recording deleted keys
//! in a **companion key B+ tree** per component rather than anti-matter
//! entries in the R-tree itself: a candidate from an older component is
//! filtered out when any newer component's deleted-key tree contains its key.
//!
//! The `point_optimize` flag applies the §V-B leaf-storage optimization
//! (points stored without duplicated MBR corners; experiment E11).

use crate::btree::{BTreeBuilder, DiskBTree};
use crate::cache::BufferCache;
use crate::error::Result;
use crate::lsm::{KeyBytes, MergePolicy};
use crate::rtree::{DiskRTree, MemRTree, RTreeBuilder, SpatialEntry};
use asterix_adm::Rectangle;
use std::collections::BTreeSet;
use std::collections::HashSet;
use std::sync::Arc;

struct RTreeComponent {
    rtree: DiskRTree,
    /// Keys deleted *logically before* this component was flushed; masks
    /// matching entries in all older components.
    tombstones: Option<DiskBTree>,
    size_bytes: u64,
}

/// Configuration of an LSM R-tree.
#[derive(Debug, Clone)]
pub struct LsmRTreeConfig {
    pub name: String,
    /// Memory-component budget in bytes.
    pub mem_budget: usize,
    pub merge_policy: MergePolicy,
    /// Apply the point-MBR storage optimization.
    pub point_optimize: bool,
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
            point_optimize: true,
        }
    }
}

/// An LSM-ified R-tree over `(MBR, encoded primary key)` entries.
pub struct LsmRTree {
    cache: Arc<BufferCache>,
    config: LsmRTreeConfig,
    mem: MemRTree,
    mem_tombstones: BTreeSet<KeyBytes>,
    /// Newest first.
    disk: Vec<RTreeComponent>,
    next_id: u64,
}

impl LsmRTree {
    /// Creates an empty LSM R-tree.
    pub fn new(cache: Arc<BufferCache>, config: LsmRTreeConfig) -> Self {
        LsmRTree {
            cache,
            config,
            mem: MemRTree::new(),
            mem_tombstones: BTreeSet::new(),
            disk: Vec::new(),
            next_id: 1,
        }
    }

    /// Number of disk components.
    pub fn component_count(&self) -> usize {
        self.disk.len()
    }

    /// Total tree pages across disk components (E11's size metric).
    pub fn disk_pages(&self) -> u64 {
        self.disk.iter().map(|c| c.rtree.data_pages()).sum()
    }

    /// Inserts an entry; flushes past the memory budget.
    pub fn insert(&mut self, mbr: Rectangle, key: Vec<u8>) -> Result<()> {
        // An insert revives a key: drop any pending tombstone for it.
        self.mem_tombstones.remove(&KeyBytes(key.clone()));
        self.mem.insert(mbr, key);
        self.maybe_flush()
    }

    /// Deletes an entry. If it still lives in the memory component it is
    /// removed directly; otherwise its key is recorded as a tombstone for
    /// the companion B+ tree.
    pub fn delete(&mut self, mbr: &Rectangle, key: &[u8]) -> Result<()> {
        if !self.mem.remove(mbr, key) {
            self.mem_tombstones.insert(KeyBytes(key.to_vec()));
        }
        self.maybe_flush()
    }

    fn maybe_flush(&mut self) -> Result<()> {
        let bytes = self.mem.approx_bytes()
            + self.mem_tombstones.iter().map(|k| k.0.len() + 32).sum::<usize>();
        if bytes > self.config.mem_budget {
            self.flush()?;
        }
        Ok(())
    }

    /// Forces the memory component (entries + tombstones) to disk.
    pub fn flush(&mut self) -> Result<()> {
        if self.mem.is_empty() && self.mem_tombstones.is_empty() {
            return Ok(());
        }
        let id = self.next_id;
        self.next_id += 1;
        let rtree_name = format!("{}_c{}.rtree", self.config.name, id);
        let writer = self.cache.manager().bulk_writer(&rtree_name)?;
        let entries = std::mem::take(&mut self.mem).entries();
        let built = RTreeBuilder::new(writer, self.config.point_optimize).build(entries)?;
        let size_bytes =
            self.cache.manager().page_count(built.file)? * crate::io::PAGE_SIZE as u64;
        let rtree = DiskRTree::from_built(Arc::clone(&self.cache), built);
        let tombstones = if self.mem_tombstones.is_empty() {
            None
        } else {
            let name = format!("{}_c{}.delkeys", self.config.name, id);
            let writer = self.cache.manager().bulk_writer(&name)?;
            let mut b = BTreeBuilder::new(writer, self.mem_tombstones.len());
            for k in std::mem::take(&mut self.mem_tombstones) {
                b.add(&k.0, &[])?;
            }
            Some(DiskBTree::from_built(Arc::clone(&self.cache), b.finish()?))
        };
        self.mem = MemRTree::new();
        self.mem_tombstones = BTreeSet::new();
        self.disk.insert(0, RTreeComponent { rtree, tombstones, size_bytes });
        self.maybe_merge()
    }

    fn maybe_merge(&mut self) -> Result<()> {
        // Loop until the policy is satisfied (cascade): one pick per flush
        // never converges a backlog. The progress guard breaks out if a
        // merge fails to shrink the list (e.g. a degenerate pick).
        loop {
            let sizes: Vec<u64> = self.disk.iter().map(|c| c.size_bytes).collect();
            let Some(n) = self.config.merge_policy.pick_merge(&sizes) else {
                return Ok(());
            };
            let before = self.disk.len();
            self.merge_newest(n)?;
            if self.disk.len() >= before {
                return Ok(());
            }
        }
    }

    /// Merges the `n` newest components into one.
    pub fn merge_newest(&mut self, n: usize) -> Result<()> {
        let n = n.min(self.disk.len());
        if n < 2 {
            return Ok(());
        }
        let includes_oldest = n == self.disk.len();
        // Visibility during the merge: walk newest→oldest accumulating
        // tombstones, keep first (newest) occurrence of each key.
        let everything = Rectangle::new(
            asterix_adm::Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            asterix_adm::Point::new(f64::INFINITY, f64::INFINITY),
        );
        let mut deleted: HashSet<Vec<u8>> = HashSet::new();
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        let mut live: Vec<SpatialEntry> = Vec::new();
        let mut surviving_tombstones: BTreeSet<KeyBytes> = BTreeSet::new();
        for comp in &self.disk[..n] {
            for e in comp.rtree.search(&everything)? {
                if !deleted.contains(&e.key) && seen.insert(e.key.clone()) {
                    live.push(e);
                }
            }
            if let Some(t) = &comp.tombstones {
                for item in t.scan()? {
                    let (k, _) = item?;
                    deleted.insert(k.clone());
                    surviving_tombstones.insert(KeyBytes(k));
                }
            }
        }
        let id = self.next_id;
        self.next_id += 1;
        let rtree_name = format!("{}_c{}.rtree", self.config.name, id);
        let writer = self.cache.manager().bulk_writer(&rtree_name)?;
        let built = RTreeBuilder::new(writer, self.config.point_optimize).build(live)?;
        let size_bytes =
            self.cache.manager().page_count(built.file)? * crate::io::PAGE_SIZE as u64;
        let rtree = DiskRTree::from_built(Arc::clone(&self.cache), built);
        let tombstones = if includes_oldest || surviving_tombstones.is_empty() {
            None // nothing older left to mask
        } else {
            let name = format!("{}_c{}.delkeys", self.config.name, id);
            let writer = self.cache.manager().bulk_writer(&name)?;
            let mut b = BTreeBuilder::new(writer, surviving_tombstones.len());
            for k in surviving_tombstones {
                b.add(&k.0, &[])?;
            }
            Some(DiskBTree::from_built(Arc::clone(&self.cache), b.finish()?))
        };
        // Publish before retiring (same order as `LsmTree::complete_merge`):
        // the merged component replaces its inputs in one step, and only
        // then are the input files deleted. A failed delete is cleanup, not
        // data loss — the orphan is swept by restart recovery.
        let merged = RTreeComponent { rtree, tombstones, size_bytes };
        let removed: Vec<RTreeComponent> = self.disk.splice(..n, [merged]).collect();
        for comp in removed {
            let files = [Some(comp.rtree.file()), comp.tombstones.as_ref().map(DiskBTree::file)];
            for file in files.into_iter().flatten() {
                self.cache.close_file(file);
                if self.cache.manager().delete(file).is_err() {
                    self.cache.stats().lsm().count_retire_failure();
                }
            }
        }
        Ok(())
    }

    /// All live entries intersecting `query`, resolving deletes across
    /// components (newest wins; tombstones mask older components).
    pub fn search(&self, query: &Rectangle) -> Result<Vec<SpatialEntry>> {
        let mut deleted: HashSet<Vec<u8>> = HashSet::new();
        let mut seen: HashSet<Vec<u8>> = HashSet::new();
        let mut out: Vec<SpatialEntry> = Vec::new();
        for e in self.mem.search(query) {
            if seen.insert(e.key.clone()) {
                out.push(e);
            }
        }
        for k in &self.mem_tombstones {
            deleted.insert(k.0.clone());
        }
        for comp in &self.disk {
            for e in comp.rtree.search(query)? {
                if !deleted.contains(&e.key) && seen.insert(e.key.clone()) {
                    out.push(e);
                }
            }
            if let Some(t) = &comp.tombstones {
                for item in t.scan()? {
                    deleted.insert(item?.0);
                }
            }
        }
        Ok(out)
    }

    /// Count of live entries (full-space search; for tests).
    pub fn count(&self) -> Result<usize> {
        let everything = Rectangle::new(
            asterix_adm::Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY),
            asterix_adm::Point::new(f64::INFINITY, f64::INFINITY),
        );
        Ok(self.search(&everything)?.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::faults::{FaultConfig, FaultInjector};
    use crate::io::FileManager;
    use crate::stats::IoStats;
    use crate::testutil::TempDir;
    use asterix_adm::Point;

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
            point_optimize: true,
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
    fn retirement_delete_failure_never_loses_merged_data() {
        // Mirror of the `lsm.rs` regression: the input components used to be
        // drained and deleted (`?` on each delete) *before* the merged one
        // was inserted, so a failed delete dropped both from the tree.
        let dir = TempDir::new();
        let injector = FaultInjector::new(FaultConfig {
            seed: 9,
            delete_fail_prob: 1.0,
            ..FaultConfig::default()
        });
        let fm = FileManager::with_faults(dir.path(), IoStats::new(), Some(injector)).unwrap();
        let cache = BufferCache::new(fm, 256);
        let mut t = LsmRTree::new(cache.clone(), config("s"));
        for i in 0..100 {
            t.insert(pt(i as f64, 0.0), format!("k{i}").into_bytes()).unwrap();
        }
        t.flush().unwrap();
        for i in 0..50 {
            t.delete(&pt(i as f64, 0.0), format!("k{i}").as_bytes()).unwrap();
        }
        t.flush().unwrap();
        assert_eq!(t.component_count(), 2);
        t.merge_newest(2).expect("retirement failures are non-fatal");
        assert_eq!(t.component_count(), 1, "merged component is live");
        assert_eq!(t.count().unwrap(), 50, "no entry lost, tombstones applied");
        // two R-tree files plus the newer component's deleted-key B+ tree
        assert_eq!(cache.stats().lsm().retire_failures(), 3);
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
