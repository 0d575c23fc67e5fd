//! Physical I/O statistics.
//!
//! The paper's storage arguments (Graefe's B-tree-vs-hashing point in §V-C,
//! the sorted-PK-fetch trick of §V-B) are phrased in terms of *physical I/O
//! under a modest memory allocation*. [`IoStats`] counts every physical page
//! read and write of a [`crate::io::FileManager`]; the buffer cache counts
//! its hits, misses, evictions, readaheads and coalesced waits in the shard
//! they happen in ([`crate::cache::BufferCache`]). Each fact is counted once.
//!
//! Every reader takes them from the shared observability registry
//! ([`asterix_obs::MetricsRegistry`]): a `MetricsSnapshot`, and for a phase
//! the `delta` of the snapshots around it. These counters are the one place
//! where a counter is not a registry handle: they stay plain inline atomics,
//! registered as *observed* counters that the registry reads at snapshot
//! time — the buffer-cache hit path is tight enough that one extra pointer
//! chase per page shows up on `repro hotpath` (−12 % when it was tried).
//! `storage.io.bytes_read` and `bytes_written` are observed too, as the page
//! counts × [`PAGE_SIZE`]: every physical read and write is one page.

use crate::compaction::LsmMetricsHub;
use crate::io::PAGE_SIZE;
use asterix_obs::MetricsRegistry;
use std::sync::atomic::Ordering;
use std::sync::{Arc, Weak};

/// Shared, thread-safe physical page counters, exported under
/// `storage.io.*` by the registry returned by [`IoStats::registry`].
#[expect(clippy::disallowed_types, reason = "inline totals on the buffer-cache path, not Counters (module docs); Relaxed: a total publishes nothing")]
pub struct IoStats {
    registry: Arc<MetricsRegistry>,
    /// Node-wide LSM amplification hub shared by every tree on this device
    /// (registered as `storage.lsm.*` metrics alongside the I/O counters).
    lsm: Arc<LsmMetricsHub>,
    physical_reads: std::sync::atomic::AtomicU64,
    physical_writes: std::sync::atomic::AtomicU64,
}

impl IoStats {
    /// Creates a fresh zeroed counter set behind an `Arc`, registered in a
    /// registry of its own (reachable via [`IoStats::registry`]), which the
    /// buffer cache over the same file manager registers its counters in
    /// too. The registry holds only weak snapshot-time readers, so it never
    /// extends the stats' lifetime, and hot-path updates never touch it.
    pub fn new() -> Arc<Self> {
        let registry = Arc::new(MetricsRegistry::new());
        let stats = Arc::new(IoStats {
            lsm: Arc::new(LsmMetricsHub::new(&registry)),
            registry,
            physical_reads: Default::default(),
            physical_writes: Default::default(),
        });
        let observe = |name: &str, read: fn(&IoStats) -> u64| {
            let weak: Weak<IoStats> = Arc::downgrade(&stats);
            stats.registry.observed_counter(name, move || weak.upgrade().map_or(0, |s| read(&s)));
        };
        observe("storage.io.physical_reads", IoStats::physical_reads);
        observe("storage.io.physical_writes", IoStats::physical_writes);
        observe("storage.io.bytes_read", |s| s.physical_reads() * PAGE_SIZE as u64);
        observe("storage.io.bytes_written", |s| s.physical_writes() * PAGE_SIZE as u64);
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

    pub(crate) fn count_physical_read(&self) {
        self.physical_reads.fetch_add(1, Ordering::Relaxed);
    }

    pub(crate) fn count_physical_write(&self) {
        self.physical_writes.fetch_add(1, Ordering::Relaxed);
    }

    /// Number of physical page reads performed.
    pub fn physical_reads(&self) -> u64 {
        self.physical_reads.load(Ordering::Relaxed)
    }

    /// Number of physical page writes performed.
    pub fn physical_writes(&self) -> u64 {
        self.physical_writes.load(Ordering::Relaxed)
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
        s.count_physical_read();
        s.count_physical_write();
        s.count_physical_write();
        let snap = s.registry().snapshot();
        assert_eq!(snap.counter("storage.io.physical_reads"), Some(1));
        assert_eq!(snap.counter("storage.io.bytes_read"), Some(PAGE_SIZE as u64));
        assert_eq!(snap.counter("storage.io.physical_writes"), Some(2));
        assert_eq!(snap.counter("storage.io.bytes_written"), Some(2 * PAGE_SIZE as u64));
    }
}
