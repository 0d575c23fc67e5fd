//! I/O and cache statistics.
//!
//! The paper's storage arguments (Graefe's B-tree-vs-hashing point in §V-C,
//! the sorted-PK-fetch trick of §V-B) are phrased in terms of *physical I/O
//! under a modest memory allocation*. These counters make that measurable:
//! every physical page read/write and every buffer-cache hit is counted.
//!
//! Every reader takes them from the shared observability registry
//! ([`asterix_obs::MetricsRegistry`]): a `MetricsSnapshot`, and for a phase
//! the `delta` of the snapshots around it. [`IoStats`] is the one place
//! where the counter is not a registry handle: its nine per-page counters
//! stay plain inline atomics, each registered as an *observed* counter that
//! the registry reads through the typed getter at snapshot time — the
//! buffer-cache hit path is tight enough that one extra pointer chase per
//! page shows up on `repro hotpath` (−12 % when it was tried).

use crate::compaction::LsmMetricsHub;
use asterix_obs::MetricsRegistry;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Weak};

/// Shared, thread-safe I/O counters. Cheap to clone (an `Arc` handle).
///
/// Each field is exported by the registry returned by
/// [`IoStats::registry`] as an observed counter.
#[derive(Debug)]
pub struct IoStats {
    registry: Arc<MetricsRegistry>,
    /// Node-wide LSM amplification hub shared by every tree on this device
    /// (registered as `storage.lsm.*` metrics alongside the I/O counters).
    lsm: Arc<LsmMetricsHub>,
    physical_reads: AtomicU64,
    physical_writes: AtomicU64,
    cache_hits: AtomicU64,
    cache_misses: AtomicU64,
    evictions: AtomicU64,
    readaheads: AtomicU64,
    coalesced_waits: AtomicU64,
    bytes_written: AtomicU64,
    bytes_read: AtomicU64,
}

impl IoStats {
    /// Creates a fresh zeroed counter set behind an `Arc`, registered in a
    /// private registry (reachable via [`IoStats::registry`]).
    pub fn new() -> Arc<Self> {
        Self::with_registry(&Arc::new(MetricsRegistry::new()))
    }

    /// Creates a counter set surfaced in `registry` under `storage.io.*`
    /// names. The registry holds only weak snapshot-time readers, so it
    /// never extends the stats' lifetime, and hot-path updates never touch
    /// it.
    pub fn with_registry(registry: &Arc<MetricsRegistry>) -> Arc<Self> {
        let stats = Arc::new(IoStats {
            registry: Arc::clone(registry),
            lsm: Arc::new(LsmMetricsHub::new(registry)),
            physical_reads: AtomicU64::new(0),
            physical_writes: AtomicU64::new(0),
            cache_hits: AtomicU64::new(0),
            cache_misses: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            readaheads: AtomicU64::new(0),
            coalesced_waits: AtomicU64::new(0),
            bytes_written: AtomicU64::new(0),
            bytes_read: AtomicU64::new(0),
        });
        let observe = |name: &str, read: fn(&IoStats) -> u64| {
            let weak: Weak<IoStats> = Arc::downgrade(&stats);
            registry.observed_counter(name, move || weak.upgrade().map_or(0, |s| read(&s)));
        };
        observe("storage.io.physical_reads", IoStats::physical_reads);
        observe("storage.io.physical_writes", IoStats::physical_writes);
        observe("storage.io.cache_hits", IoStats::cache_hits);
        observe("storage.io.cache_misses", IoStats::cache_misses);
        observe("storage.io.evictions", IoStats::evictions);
        observe("storage.io.readaheads", IoStats::readaheads);
        // Registered under the cache-level name (not `storage.io.*`): the
        // counter measures request coalescing in the buffer cache, and the
        // serving-layer dashboards key on `cache.coalesced_waits`.
        observe("cache.coalesced_waits", IoStats::coalesced_waits);
        observe("storage.io.bytes_written", IoStats::bytes_written);
        observe("storage.io.bytes_read", IoStats::bytes_read);
        stats
    }

    /// The LSM amplification hub every tree sharing these stats reports to.
    pub fn lsm(&self) -> &Arc<LsmMetricsHub> {
        &self.lsm
    }

    /// The registry these counters are observed by (for node-level
    /// snapshots).
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    pub(crate) fn count_physical_read(&self, bytes: u64) {
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
        self.bytes_read.fetch_add(bytes, Ordering::Relaxed);
    }

    pub(crate) fn count_physical_write(&self, bytes: u64) {
        self.physical_writes.fetch_add(1, Ordering::Relaxed);
        self.bytes_written.fetch_add(bytes, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_cache_hit(&self) {
        self.cache_hits.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn count_cache_miss(&self) {
        self.cache_misses.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_eviction(&self) {
        self.evictions.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_readahead(&self) {
        self.readaheads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_coalesced_wait(&self) {
        self.coalesced_waits.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of physical page reads performed.
    pub fn physical_reads(&self) -> u64 {
        self.physical_reads.load(Ordering::Relaxed)
    }

    /// Number of physical page writes performed.
    pub fn physical_writes(&self) -> u64 {
        self.physical_writes.load(Ordering::Relaxed)
    }

    /// Buffer-cache hits.
    pub fn cache_hits(&self) -> u64 {
        self.cache_hits.load(Ordering::Relaxed)
    }

    /// Buffer-cache misses (each implies a physical read).
    pub fn cache_misses(&self) -> u64 {
        self.cache_misses.load(Ordering::Relaxed)
    }

    /// Buffer-cache evictions.
    pub fn evictions(&self) -> u64 {
        self.evictions.load(Ordering::Relaxed)
    }

    /// Pages brought in by sequential readahead (beyond the demanded page).
    pub fn readaheads(&self) -> u64 {
        self.readaheads.load(Ordering::Relaxed)
    }

    /// Cache misses that parked on another requester's in-flight physical
    /// read instead of issuing a duplicate one (request coalescing).
    pub fn coalesced_waits(&self) -> u64 {
        self.coalesced_waits.load(Ordering::Relaxed)
    }

    /// Total bytes physically written (write-amplification numerator).
    pub fn bytes_written(&self) -> u64 {
        self.bytes_written.load(Ordering::Relaxed)
    }

    /// Total bytes physically read.
    pub fn bytes_read(&self) -> u64 {
        self.bytes_read.load(Ordering::Relaxed)
    }
}

/// A point-in-time copy of one buffer-cache shard's counters (returned by
/// `BufferCache::shard_snapshots`). Per-shard hit/miss skew is how lock
/// contention and hash imbalance are diagnosed.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheShardSnapshot {
    pub capacity: usize,
    pub resident: usize,
    pub hits: u64,
    pub misses: u64,
    pub evictions: u64,
    pub readaheads: u64,
    pub coalesced_waits: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counters_surface_through_the_registry() {
        let s = IoStats::new();
        s.count_physical_read(4096);
        s.count_cache_hit();
        let snap = s.registry().snapshot();
        assert_eq!(snap.counter("storage.io.physical_reads"), Some(1));
        assert_eq!(snap.counter("storage.io.bytes_read"), Some(4096));
        assert_eq!(snap.counter("storage.io.cache_hits"), Some(1));
        assert_eq!(snap.counter("storage.io.cache_misses"), Some(0));
        assert_eq!(snap.counter("cache.coalesced_waits"), Some(0));
        s.count_coalesced_wait();
        assert_eq!(s.registry().snapshot().counter("cache.coalesced_waits"), Some(1));
    }

    #[test]
    fn shared_registry_is_the_same_counters() {
        let reg = Arc::new(asterix_obs::MetricsRegistry::new());
        let s = IoStats::with_registry(&reg);
        s.count_physical_write(512);
        assert_eq!(reg.snapshot().counter("storage.io.physical_writes"), Some(1));
        assert_eq!(reg.snapshot().counter("storage.io.bytes_written"), Some(512));
    }
}
