//! The spatial index: AsterixDB's R-tree secondary index (paper §V-B), kept
//! the way every other index here is, in an [`LsmTree`].
//!
//! The §V-B study concluded that "the 'right' LSM-based spatial index to
//! provide was simply the R-tree, as R-trees work for both point and
//! non-point data". An LSM R-tree's disk components are immutable and
//! bulk-loaded, and a bulk-loaded R-tree is a B+ tree on Hilbert keys with an
//! MBR per leaf (a Hilbert-packed R-tree: Kamel & Faloutsos, VLDB 1994). So
//! an entry `(mbr, pk)` is stored under the key
//! `[hilbert(centre of mbr)][pk]` with the MBR as its value, and the tree's
//! leaves are spatial ([`LeafShape::Spatial`]): the fence index holds each
//! leaf's MBR, and a search reads only the leaves whose MBR meets its query.
//! The memory component is the tree's own, searched by an MBR filter over
//! its entries. This module is the entry's codec ([`key`], [`value`]) and
//! the search; the tree's owner puts the entries, and deletes one with the
//! tree's delete marker on its key.
//!
//! The value is 16 bytes for a point and 32 for a rectangle: the paper's
//! point-MBR storage optimization ("not storing them as infinitely small
//! bounding boxes in the index leaves"), which experiment E11 measures.
//!
//! The Hilbert key is taken over an order-preserving quantization of the
//! `f64` coordinates — each coordinate's 32 high bits in the order floats
//! compare — so there is no world extent to configure.
//!
//! **Reading past pruned leaves.** A search that skips a leaf can skip what
//! masks an older entry there: a newer component's delete marker, or its
//! re-put of the same key (the same centre) with an extent the query misses.
//! So a candidate `(K, mbr)` found in source *i* — the memory components,
//! then the disk components, newest first — is kept only when no source
//! newer than *i* holds any entry under `K`, which is asked of each newer
//! source newest first, a disk component through its bloom filter first. A
//! candidate from the newest source is asked nothing.

use crate::btree::{Entry, LeafShape};
use crate::error::{Result, StorageError};
use crate::lsm::{LsmConfig, LsmTree};
use crate::spatial_keys::hilbert_d;
use asterix_adm::{Point, Rectangle};

/// One live entry of a search: its MBR and the encoded primary key.
#[derive(Debug, Clone, PartialEq)]
pub struct SpatialEntry {
    pub mbr: Rectangle,
    pub pk: Vec<u8>,
}

/// Bytes of the Hilbert position that starts every key.
const HILBERT_BYTES: usize = 8;

/// The rectangle every entry meets.
pub fn everything() -> Rectangle {
    Rectangle::new(Point::new(f64::NEG_INFINITY, f64::NEG_INFINITY), Point::new(f64::INFINITY, f64::INFINITY))
}

/// A coordinate's 32 high bits, ordered as the coordinates compare.
fn quantize(x: f64) -> u32 {
    let bits = x.to_bits();
    let ordered = if bits >> 63 == 1 { !bits } else { bits | 1 << 63 };
    (ordered >> 32) as u32
}

/// The key of entry `(mbr, pk)`: the Hilbert position of the MBR's centre,
/// big-endian, then the primary key.
pub fn key(mbr: &Rectangle, pk: &[u8]) -> Vec<u8> {
    let centre = mbr.center();
    let mut key = Vec::with_capacity(HILBERT_BYTES + pk.len());
    key.extend_from_slice(&hilbert_d(quantize(centre.x), quantize(centre.y), 32).to_be_bytes());
    key.extend_from_slice(pk);
    key
}

/// An MBR's 32 bytes: its corners' coordinates, little-endian.
pub fn rect_bytes(mbr: &Rectangle) -> [u8; 32] {
    let mut out = [0; 32];
    for (at, c) in out.chunks_exact_mut(8).zip([mbr.min.x, mbr.min.y, mbr.max.x, mbr.max.y]) {
        at.copy_from_slice(&c.to_le_bytes());
    }
    out
}

/// The value an entry of `mbr` stores: a point's 16 bytes, or a
/// rectangle's 32.
pub fn value(mbr: &Rectangle) -> Vec<u8> {
    let bytes = rect_bytes(mbr);
    bytes[..if mbr.is_point() { 16 } else { 32 }].to_vec()
}

/// The MBR a stored value holds: 16 bytes a point, 32 a rectangle.
pub fn mbr_of(value: &[u8]) -> Result<Rectangle> {
    let f = |i: usize| f64::from_le_bytes(value[i..i + 8].try_into().unwrap_or_default());
    match value.len() {
        16 => Ok(Point::new(f(0), f(8)).to_mbr()),
        32 => Ok(Rectangle { min: Point::new(f(0), f(8)), max: Point::new(f(16), f(24)) }),
        n => Err(StorageError::Corrupt(format!("a spatial value of {n} bytes: an MBR takes 16 or 32"))),
    }
}

/// The configuration of the tree of a spatial index `name`: its leaves are
/// spatial.
pub fn config(name: impl Into<String>) -> LsmConfig {
    LsmConfig { leaves: LeafShape::Spatial, ..LsmConfig::new(name) }
}

/// Every live entry of the spatial tree `tree` whose MBR meets `query`: the
/// candidates of each source, the memory components' by a filter over their
/// entries and a disk component's out of the leaves its fences say meet
/// `query`, each kept only when no newer source holds its key (see the
/// module docs).
pub fn search(tree: &LsmTree, query: &Rectangle) -> Result<Vec<SpatialEntry>> {
    let mems: Vec<_> = tree.mem.newest_first().collect();
    // the snapshot keeps a concurrently merged-away component readable
    let disk = tree.shared.snapshot();
    // whether a source newer than `rank` holds an entry under `key`
    let masked = |rank: usize, key: &[u8]| -> Result<bool> {
        if mems.iter().take(rank).any(|mem| mem.get(key).is_some()) {
            return Ok(true);
        }
        for comp in disk.iter().take(rank.saturating_sub(mems.len())) {
            if comp.disk.get(key)?.is_some() {
                return Ok(true);
            }
        }
        Ok(false)
    };
    let mut found = Vec::new();
    let mut keep = |rank: usize, key: &[u8], value: &[u8]| -> Result<()> {
        let mbr = mbr_of(value)?;
        if mbr.intersects(query) && !masked(rank, key)? {
            let pk = key.get(HILBERT_BYTES..).ok_or_else(|| StorageError::Corrupt("a spatial key without its Hilbert position".into()))?;
            found.push(SpatialEntry { mbr, pk: pk.to_vec() });
        }
        Ok(())
    };
    let mut visited = 0;
    for (rank, mem) in mems.iter().enumerate() {
        for (key, entry) in mem.iter() {
            visited += 1;
            if let Entry::Put(value) = entry {
                keep(rank, key, value)?;
            }
        }
    }
    for (i, comp) in disk.iter().enumerate() {
        visited += comp.disk.search_leaves(query, |key, value| value.map_or(Ok(()), |value| keep(mems.len() + i, key, value)))?;
    }
    tree.shared.count_visited(visited);
    Ok(found)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cache::BufferCache;
    use crate::io::FileManager;
    use crate::lsm::MergePolicy;
    use crate::stats::IoStats;
    use crate::testutil::TempDir;

    use std::sync::Arc;

    fn setup() -> (Arc<BufferCache>, TempDir) {
        let dir = TempDir::new();
        let fm = FileManager::new(dir.path(), IoStats::new()).unwrap();
        (BufferCache::new(fm, 256), dir)
    }

    /// An index that flushes past 8 KiB and merges only when asked.
    fn index(cache: Arc<BufferCache>) -> LsmTree {
        LsmTree::new(cache, LsmConfig { mem_budget: 8 << 10, merge_policy: MergePolicy::NoMerge, ..config("s") })
    }

    fn insert(t: &mut LsmTree, mbr: &Rectangle, pk: &[u8]) {
        t.upsert(key(mbr, pk), value(mbr)).unwrap();
    }

    fn delete(t: &mut LsmTree, mbr: &Rectangle, pk: &[u8]) {
        t.delete(key(mbr, pk)).unwrap();
    }

    fn pt(x: f64, y: f64) -> Rectangle {
        Point::new(x, y).to_mbr()
    }

    fn rect(x0: f64, y0: f64, x1: f64, y1: f64) -> Rectangle {
        Rectangle::new(Point::new(x0, y0), Point::new(x1, y1))
    }

    fn pks(mut hits: Vec<SpatialEntry>) -> Vec<Vec<u8>> {
        hits.sort_by(|a, b| a.pk.cmp(&b.pk));
        hits.into_iter().map(|e| e.pk).collect()
    }

    #[test]
    fn a_value_is_sixteen_bytes_for_a_point_and_thirty_two_for_a_rectangle() {
        for (mbr, len) in [(pt(1.5, -2.0), 16), (rect(0.0, 1.0, 2.0, 3.0), 32)] {
            let value = value(&mbr);
            assert_eq!(value.len(), len);
            assert_eq!(mbr_of(&value).unwrap(), mbr);
        }
        assert!(matches!(mbr_of(&[0; 24]), Err(StorageError::Corrupt(_))));
        // the key orders by the centre's place on the curve, then by the pk
        assert_eq!(key(&pt(1.0, 1.0), b"b")[..HILBERT_BYTES], key(&rect(0.0, 0.0, 2.0, 2.0), b"a")[..HILBERT_BYTES]);
        assert!(quantize(-1.0) < quantize(-0.5) && quantize(-0.5) < quantize(0.0) && quantize(0.0) < quantize(3.0));
    }

    #[test]
    fn insert_search_across_flushes() {
        let (cache, _d) = setup();
        let mut t = index(cache);
        for i in 0..50 {
            for j in 0..50 {
                insert(&mut t, &pt(i as f64, j as f64), format!("{i},{j}").as_bytes());
            }
        }
        assert!(t.component_count() > 0, "memory budget forced flushes");
        assert_eq!(search(&t, &rect(10.0, 10.0, 12.0, 12.0)).unwrap().len(), 9);
        assert_eq!(search(&t, &everything()).unwrap().len(), 2500);
        assert_eq!(t.count().unwrap(), 2500);
    }

    #[test]
    fn a_search_reads_only_the_leaves_its_query_meets() {
        let (cache, _d) = setup();
        let mut t = index(Arc::clone(&cache));
        for i in 0..100 {
            for j in 0..100 {
                insert(&mut t, &pt(i as f64, j as f64), &(i * 100 + j as u32).to_be_bytes());
            }
        }
        t.flush().unwrap();
        let n = t.component_count();
        t.merge_newest(n).unwrap();
        let pages = || {
            let snap = cache.stats().registry().snapshot();
            snap.counter("storage.io.cache_hits").unwrap() + snap.counter("storage.io.cache_misses").unwrap()
        };
        let before = pages();
        assert_eq!(search(&t, &rect(40.0, 40.0, 42.0, 42.0)).unwrap().len(), 9);
        let read = pages() - before;
        assert!((1..=4).contains(&read), "{read} of the component's leaves read for 9 of 10 000 entries");
    }

    #[test]
    fn delete_in_memory_component() {
        let (cache, _d) = setup();
        let mut t = index(cache);
        insert(&mut t, &pt(1.0, 1.0), b"a");
        insert(&mut t, &pt(2.0, 2.0), b"b");
        delete(&mut t, &pt(1.0, 1.0), b"a");
        assert_eq!(pks(search(&t, &rect(0.0, 0.0, 3.0, 3.0)).unwrap()), [b"b".to_vec()]);
    }

    #[test]
    fn a_moved_entry_is_found_where_it_went_and_not_where_it_was() {
        let (cache, _d) = setup();
        let mut t = index(cache);
        insert(&mut t, &pt(1.0, 1.0), b"a");
        t.flush().unwrap();
        delete(&mut t, &pt(1.0, 1.0), b"a");
        insert(&mut t, &pt(5.0, 5.0), b"a");
        let hits = search(&t, &rect(0.0, 0.0, 10.0, 10.0)).unwrap();
        assert_eq!(hits, [SpatialEntry { mbr: pt(5.0, 5.0), pk: b"a".to_vec() }], "new position wins");
        assert!(search(&t, &rect(0.0, 0.0, 2.0, 2.0)).unwrap().is_empty(), "old position is gone");
        t.flush().unwrap();
        delete(&mut t, &pt(5.0, 5.0), b"a");
        assert_eq!(t.count().unwrap(), 0, "the deleted entry is not resurrected");
    }

    /// Hazard (a): a delete marker flushed into a newer component whose
    /// leaves' MBRs all miss the query still masks the older put that meets
    /// it — the pruned leaf holding the marker is never read, so the older
    /// candidate must ask the newer component for its key.
    #[test]
    fn a_delete_marker_in_a_pruned_leaf_still_masks_an_older_put() {
        let (cache, _d) = setup();
        let mut t = index(cache);
        insert(&mut t, &pt(1.0, 1.0), b"a");
        insert(&mut t, &pt(2.0, 2.0), b"b");
        t.flush().unwrap();
        // the newer component: the marker, and a put far from the query
        delete(&mut t, &pt(1.0, 1.0), b"a");
        insert(&mut t, &pt(900.0, 900.0), b"z");
        t.flush().unwrap();
        assert_eq!(t.component_count(), 2);
        let query = rect(0.0, 0.0, 3.0, 3.0);
        assert_eq!(pks(search(&t, &query).unwrap()), [b"b".to_vec()]);
        // as it does from the memory component, before any flush
        insert(&mut t, &pt(2.0, 2.0), b"c");
        t.flush().unwrap();
        delete(&mut t, &pt(2.0, 2.0), b"c");
        assert_eq!(pks(search(&t, &query).unwrap()), [b"b".to_vec()]);
    }

    /// Hazard (b): a rectangle put again about the same centre — the same
    /// key — with a smaller extent shadows its old extent, also where the
    /// new one misses the query and its leaf is pruned.
    #[test]
    fn a_smaller_extent_about_the_same_centre_shadows_the_old_one() {
        let (cache, _d) = setup();
        let mut t = index(cache);
        let (big, small) = (rect(0.0, 0.0, 10.0, 10.0), rect(4.0, 4.0, 6.0, 6.0));
        assert_eq!(key(&big, b"r"), key(&small, b"r"), "one centre, one key");
        insert(&mut t, &big, b"r");
        t.flush().unwrap();
        insert(&mut t, &small, b"r");
        let corner = rect(0.0, 0.0, 1.0, 1.0);
        assert!(search(&t, &corner).unwrap().is_empty(), "the old extent, from memory");
        t.flush().unwrap();
        assert_eq!(t.component_count(), 2);
        assert!(search(&t, &corner).unwrap().is_empty(), "the old extent, from disk");
        assert_eq!(search(&t, &rect(4.5, 4.5, 5.0, 5.0)).unwrap(), [SpatialEntry { mbr: small, pk: b"r".to_vec() }]);
        t.merge_newest(2).unwrap();
        assert_eq!(search(&t, &everything()).unwrap(), [SpatialEntry { mbr: small, pk: b"r".to_vec() }]);
    }

    #[test]
    fn merge_compacts_components_and_applies_deletes() {
        let (cache, _d) = setup();
        let mut t = index(cache);
        for i in 0..100 {
            insert(&mut t, &pt(i as f64, 0.0), format!("k{i}").as_bytes());
        }
        t.flush().unwrap();
        for i in 0..50 {
            delete(&mut t, &pt(i as f64, 0.0), format!("k{i}").as_bytes());
        }
        t.flush().unwrap();
        let n = t.component_count();
        t.merge_newest(n).unwrap();
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.count().unwrap(), 50);
        assert!(search(&t, &rect(0.0, 0.0, 49.0, 0.0)).unwrap().is_empty(), "deleted half gone after merge");
    }

    #[test]
    fn a_spatial_component_is_opened_only_as_one() {
        let (cache, _d) = setup();
        let mut t = index(Arc::clone(&cache));
        insert(&mut t, &rect(0.0, 0.0, 1.0, 1.0), b"a");
        t.flush().unwrap();
        drop(t);
        let rows = LsmTree::reopen(Arc::clone(&cache), LsmConfig { mem_budget: 8 << 10, ..LsmConfig::new("s") });
        assert!(matches!(rows, Err(StorageError::Corrupt(why)) if why.contains("s_c1.btree") && why.contains("B+ tree footer")));
        let t = LsmTree::reopen(cache, config("s")).unwrap();
        assert_eq!(search(&t, &everything()).unwrap().len(), 1);
    }
}
