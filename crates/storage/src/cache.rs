//! The node-level buffer cache (paper Figure 2).
//!
//! A fixed budget of [`PAGE_SIZE`] frames shared by all dataset partitions on
//! a node, split into N lock-striped *shards* (key-hashed) so concurrent
//! scanners do not serialize on one global lock. Each shard owns a slice of
//! the frame budget, its own CLOCK (second-chance) ring, and its own
//! hit/miss/eviction/readahead/coalesced-wait counters — the only copy of
//! each: the cache registers `storage.io.{cache_hits, cache_misses,
//! evictions, readaheads}` and `cache.coalesced_waits` in its file manager's
//! registry as observed counters that sum the shards. Pages are returned as
//! `Arc<Vec<u8>>`, so a reader holding a page is never invalidated by
//! eviction — eviction merely drops the cache's reference.
//!
//! Hits take only a shard *read* lock: the CLOCK reference bit is an
//! [`asterix_obs::Flag`], so the hot path is a shared lock plus one store.
//! Installs and evictions take the shard write lock.
//!
//! Sequential scans go through [`BufferCache::get_sequential`], which turns
//! a miss into one batched physical read of the next `readahead_pages`
//! contiguous pages (LSM component leaves are packed sequentially, so the
//! following leaf fetches hit).
//!
//! The cache holds no deferred writes: a frame is what its page holds on
//! disk, so eviction is free. The files the engine caches (LSM components)
//! are immutable and bulk-written outside the cache; the one structure that
//! updates pages in place, linear hashing, writes through
//! [`BufferCache::put`] — the page is in the file when `put` returns. One
//! writer per file, and no reader of a page while it is being `put`, is the
//! caller's contract ([`crate::linear_hash::LinearHash`] takes `&mut self`).
//!
//! # Request coalescing
//!
//! Concurrent serving turns a cold page into a *miss storm*: N scanners
//! fault the same page at once and, with probe-then-read, all N issue the
//! same physical read. The cache therefore keeps an in-flight-load map
//! (level `cache_inflight`, acquired before `cache_shard`): the first
//! requester of a missing key becomes the **leader** and performs the one
//! physical read; later requesters find the key in-flight, park on the
//! entry's condvar, and share the installed frame when the leader publishes
//! it (counted as `cache.coalesced_waits` plus a logical hit). A failed
//! leader read is published too — every waiter gets a typed
//! [`StorageError::CoalescedLoad`] carrying the cause — and the slot is
//! retired either way, so the next request for the page retries fresh.

use crate::error::{Result, StorageError};
use crate::io::{FileId, FileManager, PAGE_SIZE};
use crate::lock_order::{Condvar, Level, Mutex, RwLock};
use crate::stats::{CacheShardSnapshot, IoStats};
use asterix_obs::Flag;
use std::collections::HashMap;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

/// Fallback stripe count when the host's parallelism cannot be queried.
pub const DEFAULT_SHARDS: usize = 8;

/// Default number of lock stripes: one per hardware thread (clamped to the
/// frame budget at construction). Lock stripes exist to decorrelate
/// concurrent cache hits, and the number of threads that can contend is the
/// worker-pool width — sizing to the machine instead of a hard-coded 8
/// keeps stripe contention flat as core counts grow.
pub fn default_shards() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(DEFAULT_SHARDS)
}

/// Default pages fetched per sequential readahead batch.
pub const DEFAULT_READAHEAD: usize = 8;

/// Construction options for [`BufferCache::with_options`].
#[derive(Debug, Clone, Copy)]
pub struct CacheOptions {
    /// Frame budget in pages; 0 is taken as 1 (a cache holds at least one
    /// frame).
    pub capacity: usize,
    /// Number of lock-striped shards; 0 picks
    /// `min(capacity, available_parallelism())` ([`default_shards`]).
    pub shards: usize,
    /// Pages per sequential readahead batch; 0 or 1 disables readahead.
    pub readahead_pages: usize,
}

impl CacheOptions {
    /// Options with the given capacity and default sharding/readahead.
    pub fn with_capacity(capacity: usize) -> Self {
        CacheOptions { capacity, shards: 0, readahead_pages: DEFAULT_READAHEAD }
    }
}

struct Frame {
    data: Arc<Vec<u8>>,
    /// CLOCK reference bit; atomic so hits can set it under a read lock.
    referenced: Flag,
}

struct ShardInner {
    frames: HashMap<(FileId, u64), Frame>,
    /// CLOCK ring of resident page keys plus the rotating hand.
    ring: Vec<(FileId, u64)>,
    hand: usize,
}

#[expect(clippy::disallowed_types, reason = "inline totals on the hit path, not Counters (see crate::stats); Relaxed: a total publishes nothing")]
struct Shard {
    /// This shard's slice of the frame budget.
    capacity: usize,
    inner: RwLock<ShardInner>,
    hits: std::sync::atomic::AtomicU64,
    misses: std::sync::atomic::AtomicU64,
    evictions: std::sync::atomic::AtomicU64,
    readaheads: std::sync::atomic::AtomicU64,
    coalesced_waits: std::sync::atomic::AtomicU64,
}

impl Shard {
    fn new(capacity: usize) -> Shard {
        Shard {
            capacity,
            inner: RwLock::ranked(
                Level::CacheShard,
                ShardInner {
                    frames: HashMap::with_capacity(capacity),
                    ring: Vec::with_capacity(capacity),
                    hand: 0,
                },
            ),
            hits: Default::default(),
            misses: Default::default(),
            evictions: Default::default(),
            readaheads: Default::default(),
            coalesced_waits: Default::default(),
        }
    }

    /// Hit path: shared lock, reference-bit store.
    fn lookup(&self, key: &(FileId, u64)) -> Option<Arc<Vec<u8>>> {
        let inner = self.inner.read();
        let frame = inner.frames.get(key)?;
        frame.referenced.set(true);
        Some(Arc::clone(&frame.data))
    }
}

/// Outcome slot of one in-flight physical load, shared between the leading
/// reader and its parked waiters.
enum LoadState {
    Pending,
    Ready(Arc<Vec<u8>>),
    /// Rendered leader error (`StorageError` is not `Clone`; waiters wrap
    /// the string in [`StorageError::CoalescedLoad`]).
    Failed(String),
}

struct InflightEntry {
    state: Mutex<LoadState>,
    cv: Condvar,
}

impl InflightEntry {
    fn new() -> InflightEntry {
        InflightEntry { state: Mutex::new(LoadState::Pending), cv: Condvar::new() }
    }

    /// Publishes the leader's outcome and wakes every parked waiter.
    fn resolve(&self, outcome: LoadState) {
        let mut s = self.state.lock();
        *s = outcome;
        drop(s);
        self.cv.notify_all();
    }

    /// Parks until the leader resolves; returns the shared frame or the
    /// leader's rendered error.
    fn wait(&self) -> std::result::Result<Arc<Vec<u8>>, String> {
        let mut s = self.state.lock();
        loop {
            match &*s {
                LoadState::Pending => {}
                LoadState::Ready(d) => return Ok(Arc::clone(d)),
                LoadState::Failed(m) => return Err(m.clone()),
            }
            s = self.cv.wait_on_peer_read(s);
        }
    }
}

/// How a missing-page request relates to the in-flight-load map.
enum InflightRole {
    /// The frame became resident between the miss probe and the map lock.
    Hit(Arc<Vec<u8>>),
    /// Another thread is already reading this page; park on its entry.
    Waiter(Arc<InflightEntry>),
    /// This thread claimed the slot and must perform the physical read.
    Leader(Arc<InflightEntry>),
}

/// A lock-striped CLOCK buffer cache over one [`FileManager`].
pub struct BufferCache {
    manager: Arc<FileManager>,
    capacity: usize,
    readahead_pages: usize,
    shards: Vec<Shard>,
    /// One entry per page key currently being read from disk (see the
    /// module docs, "Request coalescing").
    inflight: Mutex<HashMap<(FileId, u64), Arc<InflightEntry>>>,
}

impl BufferCache {
    /// Creates a cache of `capacity` frames (each [`PAGE_SIZE`] bytes) over
    /// `manager`, with default sharding and readahead. A capacity of 0 is
    /// taken as 1.
    pub fn new(manager: Arc<FileManager>, capacity: usize) -> Arc<Self> {
        Self::with_options(manager, CacheOptions::with_capacity(capacity))
    }

    /// Creates a cache with explicit shard/readahead configuration, and
    /// registers its counters in `manager`'s registry. A manager has one
    /// cache: a registry keeps the first counter registered under a name.
    #[expect(clippy::disallowed_types, reason = "reads the shards' inline totals: see Shard")]
    pub fn with_options(manager: Arc<FileManager>, opts: CacheOptions) -> Arc<Self> {
        let capacity = opts.capacity.max(1);
        let n = if opts.shards > 0 { opts.shards } else { default_shards() };
        let n = n.min(capacity);
        // Split the budget; early shards absorb the remainder so the per-
        // shard capacities sum exactly to `capacity`.
        let (base, rem) = (capacity / n, capacity % n);
        let shards = (0..n).map(|i| Shard::new(base + usize::from(i < rem))).collect();
        let cache = Arc::new(BufferCache {
            manager,
            capacity,
            readahead_pages: opts.readahead_pages,
            shards,
            inflight: Mutex::ranked(Level::CacheInflight, HashMap::new()),
        });
        let registry = cache.manager.stats().registry();
        let observe = |name: &str, counter: fn(&Shard) -> &std::sync::atomic::AtomicU64| {
            let weak: Weak<BufferCache> = Arc::downgrade(&cache);
            registry.observed_counter(name, move || {
                weak.upgrade().map_or(0, |c| {
                    c.shards.iter().map(|s| counter(s).load(Ordering::Relaxed)).sum()
                })
            });
        };
        observe("storage.io.cache_hits", |s| &s.hits);
        observe("storage.io.cache_misses", |s| &s.misses);
        observe("storage.io.evictions", |s| &s.evictions);
        observe("storage.io.readaheads", |s| &s.readaheads);
        // Under the cache-level name (not `storage.io.*`): the counter
        // measures request coalescing in the buffer cache, and the
        // serving-layer dashboards key on `cache.coalesced_waits`.
        observe("cache.coalesced_waits", |s| &s.coalesced_waits);
        cache
    }

    /// The underlying file manager.
    pub fn manager(&self) -> &Arc<FileManager> {
        &self.manager
    }

    /// The file manager's physical I/O counters.
    pub fn stats(&self) -> &Arc<IoStats> {
        self.manager.stats()
    }

    /// Frame budget in pages.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Number of lock stripes.
    pub fn shard_count(&self) -> usize {
        self.shards.len()
    }

    fn shard_for(&self, key: &(FileId, u64)) -> &Shard {
        // Odd-constant multiplicative mix: consecutive pages of one file
        // land on distinct shards, different files are decorrelated.
        let h = (key.0 .0 as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15)
            ^ key.1.wrapping_mul(0xD1B5_4A32_D192_ED03);
        &self.shards[(h % self.shards.len() as u64) as usize]
    }

    /// Reads a page through the cache. Concurrent misses for the same page
    /// coalesce onto one physical read (see the module docs).
    pub fn get(&self, file: FileId, page_no: u64) -> Result<Arc<Vec<u8>>> {
        let key = (file, page_no);
        let shard = self.shard_for(&key);
        if let Some(data) = shard.lookup(&key) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(data);
        }
        match self.inflight_role(key, shard) {
            InflightRole::Hit(data) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Ok(data)
            }
            InflightRole::Waiter(entry) => self.wait_coalesced(key, shard, &entry),
            InflightRole::Leader(entry) => {
                // The one physical read for this key, outside every lock.
                let loaded = self.manager.read_page(file, page_no).map(|buf| {
                    let data = Arc::new(buf);
                    let inserted = self.install(key, Arc::clone(&data), false);
                    (data, inserted)
                });
                self.finish_lead(key, shard, &entry, loaded)
            }
        }
    }

    /// Classifies a missing-page request against the in-flight-load map.
    /// The shard is re-probed *under* the map lock so that a frame installed
    /// by a just-retired leader is seen as a plain hit instead of spawning a
    /// duplicate read.
    fn inflight_role(&self, key: (FileId, u64), shard: &Shard) -> InflightRole {
        let mut map = self.inflight.lock();
        if let Some(entry) = map.get(&key) {
            return InflightRole::Waiter(Arc::clone(entry));
        }
        if let Some(data) = shard.lookup(&key) {
            return InflightRole::Hit(data);
        }
        let entry = Arc::new(InflightEntry::new());
        map.insert(key, Arc::clone(&entry));
        InflightRole::Leader(entry)
    }

    /// Waiter side of a coalesced load: park on the leader's entry, book the
    /// coalesced wait, and share its frame — or surface its failure typed.
    fn wait_coalesced(
        &self,
        key: (FileId, u64),
        shard: &Shard,
        entry: &InflightEntry,
    ) -> Result<Arc<Vec<u8>>> {
        shard.coalesced_waits.fetch_add(1, Ordering::Relaxed);
        match entry.wait() {
            Ok(data) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Ok(data)
            }
            Err(cause) => Err(StorageError::CoalescedLoad { file: key.0, page: key.1, cause }),
        }
    }

    /// Leader side epilogue: retire the in-flight slot, publish the outcome
    /// to parked waiters, and book the miss (or the lost-install hit). The
    /// slot is retired *before* publishing so that any retry triggered by a
    /// published failure opens a fresh slot instead of re-joining this one.
    fn finish_lead(
        &self,
        key: (FileId, u64),
        shard: &Shard,
        entry: &InflightEntry,
        loaded: Result<(Arc<Vec<u8>>, bool)>,
    ) -> Result<Arc<Vec<u8>>> {
        {
            let mut map = self.inflight.lock();
            map.remove(&key);
        }
        match loaded {
            Ok((data, inserted)) => {
                // Insert-side-wins accounting: the miss belongs to whoever
                // actually inserted the frame. Losing the install race (to
                // readahead from another scan of the file) books this access
                // as a hit.
                if inserted {
                    shard.misses.fetch_add(1, Ordering::Relaxed);
                } else {
                    shard.hits.fetch_add(1, Ordering::Relaxed);
                }
                entry.resolve(LoadState::Ready(Arc::clone(&data)));
                Ok(data)
            }
            Err(e) => {
                entry.resolve(LoadState::Failed(e.to_string()));
                Err(e)
            }
        }
    }

    /// Page keys currently being read from disk (diagnostic; races by
    /// nature, but quiescent callers can assert the map drained).
    pub fn inflight_loads(&self) -> usize {
        let map = self.inflight.lock();
        map.len()
    }

    /// Reads a page on a *sequential* scan path. A hit behaves like
    /// [`BufferCache::get`]; a miss fetches a batch of up to
    /// `readahead_pages` contiguous pages (clamped to the file end and the
    /// frame budget) in one physical operation and installs them all, so
    /// the scan's subsequent page fetches hit.
    pub fn get_sequential(&self, file: FileId, page_no: u64) -> Result<Arc<Vec<u8>>> {
        self.get_within(file, page_no, u64::MAX)
    }

    /// [`BufferCache::get_sequential`] for a scan that will read no page at
    /// or past `end`: the batch stops there too.
    pub fn get_within(&self, file: FileId, page_no: u64, end: u64) -> Result<Arc<Vec<u8>>> {
        if self.readahead_pages <= 1 || end <= page_no + 1 {
            return self.get(file, page_no);
        }
        let key = (file, page_no);
        let shard = self.shard_for(&key);
        if let Some(data) = shard.lookup(&key) {
            shard.hits.fetch_add(1, Ordering::Relaxed);
            return Ok(data);
        }
        // The demanded page coalesces exactly like `get`; only a leader
        // performs the batched read (waiters take no readahead of their own
        // — the leader's batch covers the range they were scanning).
        match self.inflight_role(key, shard) {
            InflightRole::Hit(data) => {
                shard.hits.fetch_add(1, Ordering::Relaxed);
                Ok(data)
            }
            InflightRole::Waiter(entry) => self.wait_coalesced(key, shard, &entry),
            InflightRole::Leader(entry) => {
                let loaded = self.read_batch_and_install(file, page_no, end);
                self.finish_lead(key, shard, &entry, loaded)
            }
        }
    }

    /// Readahead leader body: one batched physical read, installing the
    /// demanded page plus up to `readahead_pages - 1` sequential neighbors
    /// before page `end`. Returns the demanded page and whether this call
    /// inserted it.
    fn read_batch_and_install(
        &self,
        file: FileId,
        page_no: u64,
        end: u64,
    ) -> Result<(Arc<Vec<u8>>, bool)> {
        let pages = self.manager.page_count(file)?.min(end);
        let n = self
            .readahead_pages
            .min(pages.saturating_sub(page_no) as usize)
            .min(self.capacity)
            .max(1);
        let mut batch = self.manager.read_pages(file, page_no, n)?;
        let mut first = None;
        for (i, buf) in batch.drain(..).enumerate() {
            let k = (file, page_no + i as u64);
            let data = Arc::new(buf);
            let inserted = self.install(k, Arc::clone(&data), false);
            if i == 0 {
                first = Some((data, inserted));
            } else if inserted {
                // Only pages this call actually brought into the cache
                // count as readahead; already-resident ones are no-ops.
                self.shard_for(&k).readaheads.fetch_add(1, Ordering::Relaxed);
            }
        }
        first.ok_or_else(|| {
            StorageError::Corrupt(format!(
                "readahead batch for file {:?} page {page_no} came back empty",
                file
            ))
        })
    }

    /// Writes a page through the cache: it is in the file when this
    /// returns, and in the cache for the next `get`. `data` must be one page.
    pub fn put(&self, file: FileId, page_no: u64, data: Vec<u8>) -> Result<()> {
        debug_assert_eq!(data.len(), PAGE_SIZE);
        self.manager.write_page(file, page_no, &data)?;
        self.install((file, page_no), Arc::new(data), true);
        Ok(())
    }

    /// Installs a frame, returning `true` when the key was newly inserted
    /// and `false` when a frame was already resident: that one stays, unless
    /// `replace` (a `put`'s new version of the page) says otherwise.
    fn install(&self, key: (FileId, u64), data: Arc<Vec<u8>>, replace: bool) -> bool {
        let shard = self.shard_for(&key);
        let mut inner = shard.inner.write();
        if let Some(frame) = inner.frames.get_mut(&key) {
            if replace {
                frame.data = data;
            }
            frame.referenced.set(true);
            return false;
        }
        while inner.frames.len() >= shard.capacity && !inner.ring.is_empty() {
            // CLOCK sweep: clear reference bits until a victim appears.
            let idx = inner.hand % inner.ring.len();
            let victim_key = inner.ring[idx];
            let referenced = match inner.frames.get(&victim_key) {
                Some(frame) => frame.referenced.swap(false),
                None => {
                    // Ring slot with no backing frame: self-heal by
                    // dropping the stale slot and continuing the sweep.
                    inner.ring.swap_remove(idx);
                    if idx >= inner.ring.len() {
                        inner.hand = 0;
                    }
                    continue;
                }
            };
            if !referenced {
                inner.frames.remove(&victim_key);
                shard.evictions.fetch_add(1, Ordering::Relaxed);
                inner.ring.swap_remove(idx);
                if idx >= inner.ring.len() {
                    inner.hand = 0;
                }
            } else {
                inner.hand = (idx + 1) % inner.ring.len().max(1);
            }
        }
        inner.frames.insert(key, Frame { data, referenced: Flag::new(true) });
        inner.ring.push(key);
        true
    }

    /// Drops all frames of `file`. Concurrent readers may still hold page
    /// `Arc`s — eviction merely drops the cache's reference (see the module
    /// docs).
    pub fn evict_file(&self, file: FileId) {
        for shard in &self.shards {
            let mut inner = shard.inner.write();
            inner.frames.retain(|(fid, _), _| *fid != file);
            inner.ring.retain(|(fid, _)| *fid != file);
            inner.hand = 0;
        }
    }

    /// Like [`BufferCache::evict_file`], but marks a *component close*: the
    /// file is being retired for good (LSM merge/retirement), so no reader
    /// may still hold any of its pages. In debug builds a page whose `Arc`
    /// strong count exceeds the cache's own reference is a pin leak and
    /// panics; release builds behave exactly like `evict_file`.
    pub fn close_file(&self, file: FileId) {
        #[cfg(debug_assertions)]
        self.assert_no_pins(Some(file), "component close (close_file)");
        self.evict_file(file);
    }

    /// Pages currently pinned outside the cache (`Arc` strong count above
    /// the cache's own reference), with their pin counts. Debug/diagnostic.
    pub fn outstanding_pins(&self) -> Vec<((FileId, u64), usize)> {
        let mut out = Vec::new();
        for shard in &self.shards {
            let inner = shard.inner.read();
            for (key, frame) in inner.frames.iter() {
                let pins = Arc::strong_count(&frame.data).saturating_sub(1);
                if pins > 0 {
                    out.push((*key, pins));
                }
            }
        }
        out.sort();
        out
    }

    /// Debug-build pin-leak check: every resident frame of `file` (of every
    /// file if `None`) must be held by the cache alone. Skipped while
    /// unwinding so a test failure does not turn into a double panic
    /// (abort).
    #[cfg(debug_assertions)]
    fn assert_no_pins(&self, file: Option<FileId>, when: &str) {
        if std::thread::panicking() {
            return;
        }
        let leaked: Vec<String> = self
            .outstanding_pins()
            .into_iter()
            .filter(|((fid, _), _)| file.is_none_or(|f| f == *fid))
            .map(|((fid, page), pins)| format!("file {fid:?} page {page} ({pins} pins)"))
            .collect();
        assert!(
            leaked.is_empty(),
            "buffer pin leak at {when}: {} page(s) still pinned outside the cache: [{}]",
            leaked.len(),
            leaked.join(", ")
        );
    }

    /// Number of frames currently resident.
    pub fn resident(&self) -> usize {
        self.shards.iter().map(|s| s.inner.read().frames.len()).sum()
    }

    /// Per-shard counter snapshot (hit/miss/eviction/readahead, residency).
    pub fn shard_snapshots(&self) -> Vec<CacheShardSnapshot> {
        self.shards
            .iter()
            .map(|s| CacheShardSnapshot {
                capacity: s.capacity,
                resident: s.inner.read().frames.len(),
                hits: s.hits.load(Ordering::Relaxed),
                misses: s.misses.load(Ordering::Relaxed),
                evictions: s.evictions.load(Ordering::Relaxed),
                readaheads: s.readaheads.load(Ordering::Relaxed),
                coalesced_waits: s.coalesced_waits.load(Ordering::Relaxed),
            })
            .collect()
    }
}

/// Cache-drop end of the pin-leak protocol: when the cache itself is torn
/// down, no page may still be referenced outside it (debug builds).
impl Drop for BufferCache {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        self.assert_no_pins(None, "cache drop");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::TempDir;

    fn setup(capacity: usize) -> (Arc<BufferCache>, Arc<FileManager>, TempDir) {
        let dir = TempDir::new();
        let fm = FileManager::new(dir.path(), IoStats::new()).unwrap();
        let cache = BufferCache::new(Arc::clone(&fm), capacity);
        (cache, fm, dir)
    }

    fn setup_with(opts: CacheOptions) -> (Arc<BufferCache>, Arc<FileManager>, TempDir) {
        let dir = TempDir::new();
        let fm = FileManager::new(dir.path(), IoStats::new()).unwrap();
        let cache = BufferCache::with_options(Arc::clone(&fm), opts);
        (cache, fm, dir)
    }

    /// Appends only: on a fresh `fm` the read-side counters still stand at
    /// zero afterwards.
    fn make_file_named(fm: &Arc<FileManager>, name: &str, pages: u8) -> FileId {
        let id = fm.create(name).unwrap();
        for i in 0..pages {
            let mut p = vec![0u8; PAGE_SIZE];
            p[0] = i;
            fm.append_page(id, &p).unwrap();
        }
        id
    }

    fn make_file(fm: &Arc<FileManager>, pages: u8) -> FileId {
        make_file_named(fm, "f.pf", pages)
    }

    /// `storage.io.<name>` as a reader of `fm`'s registry sees it.
    fn io(fm: &FileManager, name: &str) -> u64 {
        fm.stats().registry().snapshot().counter(&format!("storage.io.{name}")).unwrap()
    }

    #[test]
    fn hits_avoid_physical_reads() {
        let (cache, fm, _d) = setup(4);
        let id = make_file(&fm, 2);
        assert_eq!(cache.get(id, 0).unwrap()[0], 0);
        assert_eq!(cache.get(id, 0).unwrap()[0], 0);
        assert_eq!(cache.get(id, 1).unwrap()[0], 1);
        assert_eq!(fm.stats().physical_reads(), 2, "two misses");
        assert_eq!(io(&fm, "cache_hits"), 1);
    }

    #[test]
    fn eviction_bounds_residency() {
        let (cache, fm, _d) = setup(2);
        let id = make_file(&fm, 6);
        for p in 0..6 {
            cache.get(id, p).unwrap();
        }
        assert!(cache.resident() <= 2);
        assert!(io(&fm, "evictions") >= 4);
    }

    #[test]
    fn clock_keeps_hot_page() {
        // One shard with room for two pages: the CLOCK second chance must
        // keep the re-referenced page over the one-touch scan pages.
        let (cache, fm, _d) =
            setup_with(CacheOptions { capacity: 2, shards: 1, readahead_pages: 0 });
        let id = make_file(&fm, 4);
        cache.get(id, 0).unwrap();
        for p in 1..4 {
            cache.get(id, p).unwrap();
            cache.get(id, 0).unwrap(); // keep page 0 hot
        }
        let before = fm.stats().physical_reads();
        cache.get(id, 0).unwrap();
        assert_eq!(fm.stats().physical_reads(), before, "hot page stayed resident");
    }

    #[test]
    fn zero_capacity_means_one_frame() {
        let (cache, fm, _d) = setup(0);
        assert_eq!(cache.capacity(), 1);
        let id = make_file(&fm, 2);
        cache.get(id, 0).unwrap();
        cache.get(id, 1).unwrap();
        assert_eq!(cache.resident(), 1, "the last page read stays");
        assert_eq!(io(&fm, "evictions"), 1);
    }

    #[test]
    fn evict_file_drops_frames() {
        let (cache, fm, _d) = setup(8);
        let id = make_file(&fm, 3);
        for p in 0..3 {
            cache.get(id, p).unwrap();
        }
        assert_eq!(cache.resident(), 3);
        cache.evict_file(id);
        assert_eq!(cache.resident(), 0);
    }

    #[test]
    fn sharding_splits_budget_exactly() {
        let (cache, _fm, _d) = setup(10);
        assert_eq!(cache.shard_count(), default_shards().min(10));
        let caps: usize = cache.shard_snapshots().iter().map(|s| s.capacity).sum();
        assert_eq!(caps, 10, "per-shard capacities sum to the budget");
        // tiny budgets clamp the stripe count to at most the page budget
        let (small, _fm2, _d2) = setup(2);
        assert_eq!(small.shard_count(), default_shards().min(2));
    }

    #[test]
    fn per_shard_counters_account_for_all_traffic() {
        let (cache, fm, _d) = setup(16);
        let id = make_file(&fm, 8);
        for p in 0..8 {
            cache.get(id, p).unwrap();
        }
        for p in 0..8 {
            cache.get(id, p).unwrap();
        }
        let snaps = cache.shard_snapshots();
        let hits: u64 = snaps.iter().map(|s| s.hits).sum();
        let misses: u64 = snaps.iter().map(|s| s.misses).sum();
        assert_eq!(hits, io(&fm, "cache_hits"), "the hits a reader sees are the shards'");
        assert_eq!(misses, io(&fm, "cache_misses"), "the misses a reader sees are the shards'");
        assert_eq!(hits, 8);
        assert_eq!(misses, 8);
    }

    #[test]
    fn sequential_readahead_batches_misses() {
        let (cache, fm, _d) =
            setup_with(CacheOptions { capacity: 64, shards: 4, readahead_pages: 4 });
        let id = make_file(&fm, 8);
        for p in 0..8 {
            cache.get_sequential(id, p).unwrap();
        }
        // Two batches of 4: two demand misses, six readahead pages, all
        // later fetches hit.
        assert_eq!(io(&fm, "cache_misses"), 2);
        assert_eq!(io(&fm, "cache_hits"), 6);
        assert_eq!(io(&fm, "readaheads"), 6);
        assert_eq!(fm.stats().physical_reads(), 8, "every page read exactly once");
        let ra: u64 = cache.shard_snapshots().iter().map(|s| s.readaheads).sum();
        assert_eq!(ra, 6, "the readaheads a reader sees are the shards'");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "pin tracking is debug-only")]
    fn pin_leak_trips_on_component_close() {
        let r = std::panic::catch_unwind(|| {
            let (cache, fm, _d) = setup(4);
            let id = make_file(&fm, 2);
            let _pinned = cache.get(id, 0).unwrap();
            cache.close_file(id); // page 0 still pinned -> leak
        });
        let err = r.expect_err("leaked pin must trip the close-time assert");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string());
        assert!(msg.contains("buffer pin leak"), "{msg}");
        assert!(msg.contains("component close"), "{msg}");
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "pin tracking is debug-only")]
    fn pin_leak_trips_on_cache_drop() {
        let (cache, fm, _d) = setup(4);
        let id = make_file(&fm, 1);
        let pinned = cache.get(id, 0).unwrap();
        assert_eq!(cache.outstanding_pins(), vec![((id, 0), 1)]);
        let r = std::panic::catch_unwind(std::panic::AssertUnwindSafe(move || drop(cache)));
        assert!(r.is_err(), "dropping the cache with a pinned page must panic");
        drop(pinned);
    }

    #[test]
    fn released_pins_do_not_trip() {
        let (cache, fm, _d) = setup(4);
        let id = make_file(&fm, 2);
        {
            let _page = cache.get(id, 0).unwrap();
        }
        assert!(cache.outstanding_pins().is_empty());
        cache.close_file(id); // no outstanding pins: fine
    }

    #[test]
    fn readahead_clamps_at_file_end() {
        let (cache, fm, _d) =
            setup_with(CacheOptions { capacity: 64, shards: 2, readahead_pages: 16 });
        let id = make_file(&fm, 3);
        let page = cache.get_sequential(id, 2).unwrap();
        assert_eq!(page[0], 2);
        assert_eq!(fm.stats().physical_reads(), 1, "no read past the last page");
    }
}
