//! Linear hashing — the §V-C baseline.
//!
//! The paper recounts Goetz Graefe's answer to "why do most real database
//! systems stop after offering B+ trees?" even though hashing is O(1):
//! (1) *it is well-known how to efficiently load a B+ tree; it is not known
//! how to do the same for linear hashing*, and (2) *given a modest allocation
//! of memory, their I/O costs in practice will be the same.* Experiment E3
//! measures both claims against this implementation.
//!
//! Classic Litwin linear hashing: buckets are page chains, a split pointer
//! `s` and level `L` grow the table one bucket at a time. All page access
//! flows through the buffer cache so physical I/O is measured under a
//! configurable memory budget; a changed page is written through to the file
//! at once, and `&mut self` on every writer keeps one writer per file. The
//! bucket directory is kept in memory (the structure is a benchmark subject,
//! not a recoverable store — exactly the "prerequisites never figured out"
//! point the paper makes).

use crate::cache::BufferCache;
use crate::error::{Result, StorageError};
use crate::io::{FileId, PAGE_SIZE};
use crate::le::{hash64, Cursor};
use std::sync::Arc;

const NO_OVERFLOW: u64 = u64::MAX;
const HEADER: usize = 10; // n u16 + next u64

struct BucketPage {
    entries: Vec<(Vec<u8>, Vec<u8>)>,
    next: u64,
}

impl BucketPage {
    fn empty() -> Self {
        BucketPage { entries: Vec::new(), next: NO_OVERFLOW }
    }

    fn parse(page: &[u8]) -> Result<Self> {
        let mut c = Cursor::new(page);
        let (n, next) = (c.u16()?, c.u64()?);
        let mut entries = Vec::with_capacity(n.into());
        for _ in 0..n {
            let klen = c.u16()?.into();
            let key = c.bytes(klen)?.to_vec();
            let vlen = c.u16()?.into();
            entries.push((key, c.bytes(vlen)?.to_vec()));
        }
        Ok(BucketPage { entries, next })
    }

    fn used(&self) -> usize {
        HEADER
            + self
                .entries
                .iter()
                .map(|(k, v)| 4 + k.len() + v.len())
                .sum::<usize>()
    }

    fn fits(&self, k: &[u8], v: &[u8]) -> bool {
        self.used() + 4 + k.len() + v.len() <= PAGE_SIZE
    }

    fn emit(&self) -> Vec<u8> {
        let mut page = vec![0u8; PAGE_SIZE];
        page[0..2].copy_from_slice(&(self.entries.len() as u16).to_le_bytes());
        page[2..10].copy_from_slice(&self.next.to_le_bytes());
        let mut w = HEADER;
        for (k, v) in &self.entries {
            page[w..w + 2].copy_from_slice(&(k.len() as u16).to_le_bytes());
            w += 2;
            page[w..w + k.len()].copy_from_slice(k);
            w += k.len();
            page[w..w + 2].copy_from_slice(&(v.len() as u16).to_le_bytes());
            w += 2;
            page[w..w + v.len()].copy_from_slice(v);
            w += v.len();
        }
        page
    }
}

/// Counters specific to linear hashing.
#[derive(Debug, Default, Clone, Copy)]
pub struct HashStats {
    pub splits: u64,
    pub overflow_pages: u64,
    pub entries: u64,
}

/// A linear hash table over encoded keys, with page chains per bucket.
pub struct LinearHash {
    cache: Arc<BufferCache>,
    file: FileId,
    /// Head page of each bucket's chain (bucket index → page number).
    directory: Vec<u64>,
    /// Initial bucket count (N₀).
    base: u64,
    /// Doubling level.
    level: u32,
    /// Split pointer.
    split: u64,
    /// Next free page number in the file.
    next_page: u64,
    /// Average entries per bucket that triggers a split.
    fill_target: usize,
    stats: HashStats,
}

impl LinearHash {
    /// Creates a fresh table in file `name`. `fill_target` is the mean
    /// entries-per-bucket threshold that triggers bucket splits.
    pub fn create(
        cache: Arc<BufferCache>,
        name: &str,
        initial_buckets: u64,
        fill_target: usize,
    ) -> Result<Self> {
        let file = cache.manager().create(name)?;
        let base = initial_buckets.max(1);
        let mut lh = LinearHash {
            cache,
            file,
            directory: Vec::new(),
            base,
            level: 0,
            split: 0,
            next_page: 0,
            fill_target: fill_target.max(1),
            stats: HashStats::default(),
        };
        for _ in 0..base {
            let page_no = lh.alloc_page();
            lh.cache.put(lh.file, page_no, BucketPage::empty().emit())?;
            lh.directory.push(page_no);
        }
        Ok(lh)
    }

    /// The next free page number; the caller writes the page.
    fn alloc_page(&mut self) -> u64 {
        self.next_page += 1;
        self.next_page - 1
    }

    /// Current number of buckets.
    pub fn buckets(&self) -> u64 {
        self.directory.len() as u64
    }

    /// Statistics.
    pub fn stats(&self) -> HashStats {
        self.stats
    }

    fn bucket_of(&self, key: &[u8]) -> usize {
        let h = hash64(key);
        let n = self.base << self.level;
        let mut b = h % n;
        if b < self.split {
            b = h % (n << 1);
        }
        b as usize
    }

    /// Point lookup.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        let mut page_no = self.directory[self.bucket_of(key)];
        loop {
            let page = self.cache.get(self.file, page_no)?;
            let bucket = BucketPage::parse(&page)?;
            for (k, v) in &bucket.entries {
                if k == key {
                    return Ok(Some(v.clone()));
                }
            }
            if bucket.next == NO_OVERFLOW {
                return Ok(None);
            }
            page_no = bucket.next;
        }
    }

    /// Inserts or replaces a key.
    pub fn put(&mut self, key: &[u8], value: &[u8]) -> Result<()> {
        if 4 + key.len() + value.len() > PAGE_SIZE - HEADER {
            return Err(StorageError::RecordTooLarge {
                size: key.len() + value.len(),
                max: PAGE_SIZE - HEADER - 4,
            });
        }
        let bucket = self.bucket_of(key);
        if self.insert_into_chain(self.directory[bucket], key, value)? {
            self.stats.entries += 1;
            // split check: mean occupancy
            if self.stats.entries as usize > self.fill_target * self.directory.len() {
                self.split_one()?;
            }
        }
        Ok(())
    }

    /// Every page of the chain that starts at `head`, with its page number.
    fn chain(&self, head: u64) -> Result<Vec<(u64, BucketPage)>> {
        let mut pages = Vec::new();
        let mut page_no = head;
        while page_no != NO_OVERFLOW {
            let bucket = BucketPage::parse(&self.cache.get(self.file, page_no)?)?;
            pages.push((page_no, bucket));
            page_no = pages[pages.len() - 1].1.next;
        }
        Ok(pages)
    }

    /// Returns true when a *new* key was inserted (false = replaced).
    fn insert_into_chain(&mut self, head: u64, key: &[u8], value: &[u8]) -> Result<bool> {
        let mut pages = self.chain(head)?;
        let entry = (key.to_vec(), value.to_vec());
        // replace the key where the chain holds it, else append to the first
        // page with room, else chain an overflow page
        let holds = pages.iter().position(|(_, b)| b.entries.iter().any(|(k, _)| k == key));
        let Some(at) = holds.or_else(|| pages.iter().position(|(_, b)| b.fits(key, value))) else {
            let tail = pages.len() - 1; // a chain has its head page
            let (last_no, last) = &mut pages[tail];
            last.next = self.alloc_page();
            self.stats.overflow_pages += 1;
            self.cache.put(self.file, *last_no, last.emit())?;
            let fresh = BucketPage { entries: vec![entry], next: NO_OVERFLOW };
            self.cache.put(self.file, last.next, fresh.emit())?;
            return Ok(true);
        };
        let (page_no, bucket) = &mut pages[at];
        match bucket.entries.iter_mut().find(|(k, _)| k == key) {
            Some(slot) => *slot = entry,
            None => bucket.entries.push(entry),
        }
        self.cache.put(self.file, *page_no, bucket.emit())?;
        Ok(holds.is_none())
    }

    /// Removes a key; returns whether it was present.
    pub fn remove(&mut self, key: &[u8]) -> Result<bool> {
        for (page_no, mut bucket) in self.chain(self.directory[self.bucket_of(key)])? {
            if let Some(pos) = bucket.entries.iter().position(|(k, _)| k == key) {
                bucket.entries.remove(pos);
                self.cache.put(self.file, page_no, bucket.emit())?;
                self.stats.entries -= 1;
                return Ok(true);
            }
        }
        Ok(false)
    }

    /// Writes `entries` as the whole chain that starts at page `head`,
    /// chaining overflow pages as they fill: one write per page.
    fn write_chain(&mut self, head: u64, entries: Vec<(Vec<u8>, Vec<u8>)>) -> Result<()> {
        let mut page_no = head;
        let mut bucket = BucketPage::empty();
        for (k, v) in entries {
            if !bucket.fits(&k, &v) {
                bucket.next = self.alloc_page();
                self.stats.overflow_pages += 1;
                self.cache.put(self.file, page_no, bucket.emit())?;
                page_no = bucket.next;
                bucket = BucketPage::empty();
            }
            bucket.entries.push((k, v));
        }
        self.cache.put(self.file, page_no, bucket.emit())
    }

    /// Splits the bucket at the split pointer (the linear-hashing growth
    /// step): rehashes its chain into `s` and its buddy `s + N`.
    fn split_one(&mut self) -> Result<()> {
        let n = self.base << self.level;
        let old_bucket = self.split as usize;
        let buddy_page = self.alloc_page();
        self.directory.push(buddy_page);
        let old_chain = self.chain(self.directory[old_bucket])?;
        // advance split state before rehashing so bucket_of sees the new table
        self.split += 1;
        if self.split == n {
            self.level += 1;
            self.split = 0;
        }
        self.stats.splits += 1;
        // each half is written once, from its head page (overflow pages of
        // the old chain leak in the file; acceptable for a benchmark structure)
        let (stay, moved): (Vec<_>, Vec<_>) = old_chain
            .into_iter()
            .flat_map(|(_, bucket)| bucket.entries)
            .partition(|(k, _)| self.bucket_of(k) == old_bucket);
        self.write_chain(buddy_page, moved)?;
        self.write_chain(self.directory[old_bucket], stay)
    }

    /// Makes the table durable: every page was written when it changed
    /// ([`BufferCache::put`]), this syncs the file.
    pub fn flush(&self) -> Result<()> {
        self.cache.manager().sync(self.file)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::io::FileManager;
    use crate::stats::IoStats;
    use crate::testutil::TempDir;

    fn setup(cache_pages: usize) -> (Arc<BufferCache>, TempDir) {
        let dir = TempDir::new();
        let fm = FileManager::new(dir.path(), IoStats::new()).unwrap();
        (BufferCache::new(fm, cache_pages), dir)
    }

    fn key(i: u64) -> Vec<u8> {
        format!("key-{i:08}").into_bytes()
    }

    #[test]
    fn put_get_many() {
        let (cache, _d) = setup(256);
        let mut h = LinearHash::create(cache, "h.lh", 4, 50).unwrap();
        for i in 0..5_000u64 {
            h.put(&key(i), format!("val-{i}").as_bytes()).unwrap();
        }
        assert!(h.buckets() > 4, "table grew: {} buckets", h.buckets());
        assert!(h.stats().splits > 0);
        for i in (0..5_000).step_by(101) {
            assert_eq!(h.get(&key(i)).unwrap().unwrap(), format!("val-{i}").into_bytes());
        }
        assert!(h.get(b"absent").unwrap().is_none());
        assert_eq!(h.stats().entries, 5_000);
    }

    #[test]
    fn replace_and_remove() {
        let (cache, _d) = setup(64);
        let mut h = LinearHash::create(cache, "h.lh", 4, 50).unwrap();
        h.put(b"k", b"v1").unwrap();
        h.put(b"k", b"v2").unwrap();
        assert_eq!(h.get(b"k").unwrap().unwrap(), b"v2");
        assert_eq!(h.stats().entries, 1, "replace does not double-count");
        assert!(h.remove(b"k").unwrap());
        assert!(!h.remove(b"k").unwrap());
        assert!(h.get(b"k").unwrap().is_none());
    }

    #[test]
    fn survives_tiny_cache() {
        // with a 4-page cache everything spills through writeback constantly
        let (cache, _d) = setup(4);
        let mut h = LinearHash::create(Arc::clone(&cache), "h.lh", 2, 20).unwrap();
        for i in 0..1_000u64 {
            h.put(&key(i), b"v").unwrap();
        }
        h.flush().unwrap();
        for i in 0..1_000u64 {
            assert!(h.get(&key(i)).unwrap().is_some(), "key {i} lost");
        }
        let evictions = cache.stats().registry().snapshot().counter("storage.io.evictions");
        assert!(evictions.unwrap() > 0);
    }

    #[test]
    fn overflow_chains_work() {
        let (cache, _d) = setup(64);
        // fill target absurdly high so no splits happen → chains must absorb
        let mut h = LinearHash::create(cache, "h.lh", 1, usize::MAX / 2).unwrap();
        let big_val = vec![b'x'; 1024];
        for i in 0..100u64 {
            h.put(&key(i), &big_val).unwrap();
        }
        assert_eq!(h.buckets(), 1);
        assert!(h.stats().overflow_pages > 0);
        for i in 0..100u64 {
            assert_eq!(h.get(&key(i)).unwrap().unwrap(), big_val);
        }
    }

    #[test]
    fn a_split_rewrites_chains_longer_than_a_page() {
        let (cache, _d) = setup(64);
        // 20 entries of 1 KiB to a bucket: both halves of a split overflow
        let mut h = LinearHash::create(cache, "h.lh", 1, 20).unwrap();
        let val = |i: u64| vec![i as u8; 1024];
        for i in 0..300u64 {
            h.put(&key(i), &val(i)).unwrap();
        }
        assert!(h.stats().splits > 0 && h.stats().overflow_pages > 0, "{:?}", h.stats());
        assert_eq!(h.stats().entries, 300);
        for i in 0..300u64 {
            assert_eq!(h.get(&key(i)).unwrap().unwrap(), val(i), "key {i}");
        }
    }

    #[test]
    fn rejects_oversized() {
        let (cache, _d) = setup(8);
        let mut h = LinearHash::create(cache, "h.lh", 2, 10).unwrap();
        let huge = vec![0u8; PAGE_SIZE];
        assert!(matches!(
            h.put(b"k", &huge),
            Err(StorageError::RecordTooLarge { .. })
        ));
    }
}
