//! The LSM (Log-Structured Merge) index framework (paper Figure 2, Section
//! III item 5): every dataset partition is an LSM B+ tree; secondary indexes
//! are LSM-ified variants sharing this machinery.
//!
//! Writes go to an in-memory component ([`MemComponent`]); when it exceeds its
//! ingestion-buffer budget it is *flushed* — bulk-loaded into an immutable
//! on-disk B+ tree component. Deletes insert tombstones ("anti-matter").
//! Reads consult the memory component and then disk components newest-first,
//! with per-component bloom filters short-circuiting point lookups. A
//! pluggable [`MergePolicy`] decides when to merge disk components
//! (experiment E8 compares the policies).
//!
//! Merging is decoupled from the write path (see [`crate::compaction`]):
//! `flush` publishes the new component and *schedules* a merge — run inline
//! when no executor is installed, or handed to a background executor one
//! morsel at a time. The component list and compaction state live in a
//! shared structure ([`LsmShared`]) so reads and flushes proceed against the
//! pre-merge component list until the merged component atomically swaps in.
//!
//! Retirement ordering invariant: the merged component is inserted into the
//! live list *before* any input file is deleted, and input files are
//! unlinked lazily — when the last snapshot reader drops its reference — so
//! a failed delete is non-fatal cleanup (counted, retried by restart
//! recovery's orphan sweep), never data loss.

use crate::btree::{BTreeBuilder, BTreeRangeIter, DiskBTree};
use crate::cache::BufferCache;
use crate::compaction::{CompactionExec, CompactionState, JobStep, LsmMetricsHub, MergeJob};
use crate::error::{Result, StorageError};
use asterix_adm::binary::compare_keys;
use parking_lot::{Condvar, Mutex};
use std::cmp::Ordering;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering as AtomicOrdering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Key wrapper ordering encoded keys by the ADM total order
// ---------------------------------------------------------------------------

/// Encoded composite key ordered by `asterix_adm::binary::compare_keys`
/// (the ADM total order), so `Int(2)` and `Double(2.0)` collide as intended.
#[derive(Debug, Clone)]
pub struct KeyBytes(pub Vec<u8>);

impl PartialEq for KeyBytes {
    fn eq(&self, other: &Self) -> bool {
        compare_keys(&self.0, &other.0) == Ordering::Equal
    }
}
impl Eq for KeyBytes {}
impl PartialOrd for KeyBytes {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for KeyBytes {
    fn cmp(&self, other: &Self) -> Ordering {
        compare_keys(&self.0, &other.0)
    }
}

// ---------------------------------------------------------------------------
// Entries & memory component
// ---------------------------------------------------------------------------

/// A versioned entry: a value or a delete marker.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Entry {
    Put(Vec<u8>),
    Tombstone,
}

impl Entry {
    /// On-disk encoding: marker byte + payload.
    fn encode(&self) -> Vec<u8> {
        match self {
            Entry::Put(v) => {
                let mut out = Vec::with_capacity(v.len() + 1);
                out.push(0);
                out.extend_from_slice(v);
                out
            }
            Entry::Tombstone => vec![1],
        }
    }

    fn decode(buf: &[u8]) -> Result<Entry> {
        match buf.first() {
            Some(0) => Ok(Entry::Put(buf[1..].to_vec())),
            Some(1) => Ok(Entry::Tombstone),
            _ => Err(StorageError::Corrupt("bad LSM entry marker".into())),
        }
    }
}

/// The in-memory (ingestion-buffer) component: an ordered map plus a byte
/// budget (Figure 2's "LSM memory components" slice of node memory).
#[derive(Debug, Default)]
pub struct MemComponent {
    map: BTreeMap<KeyBytes, Entry>,
    bytes: usize,
}

impl MemComponent {
    /// Creates an empty memory component.
    pub fn new() -> Self {
        MemComponent::default()
    }

    /// Number of entries (tombstones included).
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when no entries are buffered.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Approximate buffered bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Inserts/overwrites a key.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.bytes += key.len() + value.len() + 32;
        self.map.insert(KeyBytes(key), Entry::Put(value));
    }

    /// Inserts a tombstone.
    pub fn delete(&mut self, key: Vec<u8>) {
        self.bytes += key.len() + 32;
        self.map.insert(KeyBytes(key), Entry::Tombstone);
    }

    /// Latest entry for `key`, if buffered here.
    pub fn get(&self, key: &[u8]) -> Option<&Entry> {
        self.map.get(&KeyBytes(key.to_vec()))
    }

    /// Ordered iteration over all buffered entries.
    pub fn iter(&self) -> impl Iterator<Item = (&KeyBytes, &Entry)> {
        self.map.iter()
    }

    /// Ordered iteration over a key range.
    pub fn range(
        &self,
        lo: Bound<Vec<u8>>,
        hi: Bound<Vec<u8>>,
    ) -> impl Iterator<Item = (&KeyBytes, &Entry)> {
        self.map.range((lo.map(KeyBytes), hi.map(KeyBytes)))
    }
}

// ---------------------------------------------------------------------------
// Merge policies
// ---------------------------------------------------------------------------

/// Internal fanout of the [`MergePolicy::Leveled`] policy: a component may
/// absorb the run of older components whose cumulative size stays within
/// this multiple of the run so far (geometric levels, ratio ~10).
const LEVELED_FANOUT: u64 = 10;

/// When to merge disk components (paper §III item 5; experiment E8).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum MergePolicy {
    /// Never merge: cheapest writes, reads degrade with component count.
    NoMerge,
    /// Keep at most `max_components` disk components; merge all into one when
    /// exceeded (AsterixDB's "constant" policy).
    Constant { max_components: usize },
    /// AsterixDB's default "prefix" policy: merge the run of newest
    /// components that are each smaller than `max_mergable_bytes` once the
    /// run is longer than `max_tolerance_components`.
    Prefix {
        max_mergable_bytes: u64,
        max_tolerance_components: usize,
    },
    /// Read-optimized: merge greedily so component sizes form geometric
    /// levels (fanout 10). Few, large components keep read amplification
    /// near 1 at the cost of rewriting data on most flushes.
    Leveled,
    /// Write-optimized: accumulate `size_ratio` similar-sized components
    /// before merging them into the next tier (RocksDB "universal" shape).
    /// Bigger ratios mean cheaper writes and more components to read.
    Tiered { size_ratio: u64 },
}

impl MergePolicy {
    /// Given newest-first component sizes, returns the index range
    /// `[0, n)` of newest components to merge, or `None`.
    pub fn pick_merge(&self, sizes: &[u64]) -> Option<usize> {
        if sizes.len() < 2 {
            return None;
        }
        match *self {
            MergePolicy::NoMerge => None,
            MergePolicy::Constant { max_components } => {
                (sizes.len() > max_components.max(1)).then_some(sizes.len())
            }
            MergePolicy::Prefix { max_mergable_bytes, max_tolerance_components } => {
                let mut run = 0usize;
                let mut total = 0u64;
                for &s in sizes {
                    if s < max_mergable_bytes && total + s <= max_mergable_bytes.saturating_mul(2)
                    {
                        run += 1;
                        total += s;
                    } else {
                        break;
                    }
                }
                (run >= 2 && run > max_tolerance_components).then_some(run)
            }
            MergePolicy::Leveled => {
                let mut total = sizes[0];
                let mut run = 1usize;
                for &s in &sizes[1..] {
                    if s <= total.saturating_mul(LEVELED_FANOUT) {
                        run += 1;
                        total = total.saturating_add(s);
                    } else {
                        break;
                    }
                }
                (run >= 2).then_some(run)
            }
            MergePolicy::Tiered { size_ratio } => {
                let t = size_ratio.max(2);
                let mut lo = sizes[0].max(1);
                let mut hi = lo;
                let mut run = 1usize;
                for &s in &sizes[1..] {
                    let s = s.max(1);
                    let nlo = lo.min(s);
                    let nhi = hi.max(s);
                    if nhi < nlo.saturating_mul(t) {
                        run += 1;
                        lo = nlo;
                        hi = nhi;
                    } else {
                        break;
                    }
                }
                (run as u64 >= t && run >= 2).then_some(run)
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Configuration & statistics
// ---------------------------------------------------------------------------

/// Configuration of one LSM index.
#[derive(Debug, Clone)]
pub struct LsmConfig {
    /// Component-file name prefix (unique per index per partition).
    pub name: String,
    /// Memory-component budget in bytes; exceeding it triggers a flush.
    pub mem_budget: usize,
    /// Merge policy.
    pub merge_policy: MergePolicy,
    /// Attach bloom filters to disk components.
    pub bloom: bool,
    /// Compress values in disk components (paper §VII's storage compression).
    pub compress_values: bool,
}

impl LsmConfig {
    /// A sensible default configuration for tests and examples.
    pub fn new(name: impl Into<String>) -> Self {
        LsmConfig {
            name: name.into(),
            mem_budget: 1 << 20,
            merge_policy: MergePolicy::Prefix {
                max_mergable_bytes: 16 << 20,
                max_tolerance_components: 4,
            },
            bloom: true,
            compress_values: false,
        }
    }
}

/// Lifetime counters for an LSM index.
#[derive(Debug, Default, Clone, Copy)]
pub struct LsmStats {
    pub flushes: u64,
    pub merges: u64,
    /// Merges that were cancelled or failed; the pre-merge component list
    /// stays live, so an abort costs wasted work, never correctness.
    pub merges_aborted: u64,
    /// Entries written to disk across flushes and merges (write-amp numerator).
    pub entries_written: u64,
    /// Entries ingested by the application (write-amp denominator).
    pub entries_ingested: u64,
    /// Write-path time spent inside flush-triggered merge scheduling (for
    /// foreground merges, the whole merge), in nanoseconds.
    pub merge_stall_ns: u64,
    /// Retirement deletes that failed (non-fatal cleanup; restart recovery
    /// sweeps the orphaned files).
    pub retire_failures: u64,
    /// Point lookups ([`LsmTree::get`]) served.
    pub reads: u64,
    /// Entries range reads pulled out of the memory and disk components,
    /// shadowed versions, tombstones and per-component lookahead included:
    /// the work a scan or bounded probe did, whatever it returned.
    pub entries_visited: u64,
}

impl LsmStats {
    /// Write amplification: disk entries written per ingested entry.
    pub fn write_amplification(&self) -> f64 {
        if self.entries_ingested == 0 {
            0.0
        } else {
            self.entries_written as f64 / self.entries_ingested as f64
        }
    }
}

/// Atomic backing for [`LsmStats`], shared between the tree handle and
/// in-flight background merge jobs.
#[derive(Debug)]
struct SharedStats {
    flushes: AtomicU64,
    merges: AtomicU64,
    merges_aborted: AtomicU64,
    entries_written: AtomicU64,
    entries_ingested: AtomicU64,
    merge_stall_ns: AtomicU64,
    reads: AtomicU64,
    entries_visited: AtomicU64,
    retire_failures: Arc<AtomicU64>,
}

impl Default for SharedStats {
    fn default() -> Self {
        SharedStats {
            flushes: AtomicU64::new(0),
            merges: AtomicU64::new(0),
            merges_aborted: AtomicU64::new(0),
            entries_written: AtomicU64::new(0),
            entries_ingested: AtomicU64::new(0),
            merge_stall_ns: AtomicU64::new(0),
            reads: AtomicU64::new(0),
            entries_visited: AtomicU64::new(0),
            retire_failures: Arc::new(AtomicU64::new(0)),
        }
    }
}

// ---------------------------------------------------------------------------
// Disk components
// ---------------------------------------------------------------------------

/// One immutable on-disk component. Shared (`Arc`) between the live list and
/// any read snapshots or in-flight merges; once marked retired, the backing
/// file is closed and deleted when the **last** holder drops its reference,
/// so readers never observe a vanishing file and a failed delete can only
/// ever leak a file, not published data.
pub(crate) struct DiskComponent {
    pub(crate) id: u64,
    pub(crate) tree: DiskBTree,
    pub(crate) size_bytes: u64,
    cache: Arc<BufferCache>,
    retire: AtomicBool,
    retire_failures: Arc<AtomicU64>,
    hub: Arc<LsmMetricsHub>,
}

impl DiskComponent {
    /// Marks the component merged-away: its file is deleted on last drop.
    fn mark_retired(&self) {
        self.retire.store(true, AtomicOrdering::Release);
    }
}

impl Drop for DiskComponent {
    fn drop(&mut self) {
        if !self.retire.load(AtomicOrdering::Acquire) {
            return;
        }
        self.cache.close_file(self.tree.file());
        if self.cache.manager().delete(self.tree.file()).is_err() {
            // Non-fatal cleanup failure: the merged data is already
            // published; the orphaned file is reclaimed by restart
            // recovery's component sweep.
            self.retire_failures.fetch_add(1, AtomicOrdering::Relaxed);
            self.hub.count_retire_failure();
        }
    }
}

// ---------------------------------------------------------------------------
// The k-way merge and resumable compaction state
// ---------------------------------------------------------------------------

/// The one k-way merge of the LSM tree: per-component ordered streams in
/// (rank 0 = newest), one entry per distinct key out — the newest rank's,
/// older versions shadowed. Tombstones pass through (`V` is opaque here), so
/// compaction, full scans and bounded probes all sit on it. Lazy: a stream is
/// read one entry ahead of what has been yielded and no further, so a caller
/// that stops early has touched at most `yielded + 1` entries per stream.
pub(crate) struct KWayMerge<I, V> {
    /// `None` once a stream is exhausted or has failed.
    streams: Vec<Option<I>>,
    heads: Vec<Option<(Vec<u8>, V)>>,
    pulled: u64,
}

impl<V, I: Iterator<Item = Result<(Vec<u8>, V)>>> KWayMerge<I, V> {
    pub(crate) fn new(streams: Vec<I>) -> Self {
        let heads = streams.iter().map(|_| None).collect();
        KWayMerge { streams: streams.into_iter().map(Some).collect(), heads, pulled: 0 }
    }

    /// Entries read from the component streams so far.
    pub(crate) fn pulled(&self) -> u64 {
        self.pulled
    }

    /// Refills `rank`'s head if it is empty and the stream has more.
    fn pull(&mut self, rank: usize) -> Result<()> {
        if self.heads[rank].is_some() {
            return Ok(());
        }
        let Some(stream) = self.streams[rank].as_mut() else { return Ok(()) };
        match stream.next() {
            Some(Ok(entry)) => {
                self.heads[rank] = Some(entry);
                self.pulled += 1;
            }
            Some(Err(e)) => {
                self.streams[rank] = None;
                return Err(e);
            }
            None => self.streams[rank] = None,
        }
        Ok(())
    }

    fn advance(&mut self) -> Result<Option<(Vec<u8>, V)>> {
        for rank in 0..self.heads.len() {
            self.pull(rank)?;
        }
        // smallest head key; on ties the lowest rank (the newest version)
        let mut best: Option<(usize, &[u8])> = None;
        for (rank, head) in self.heads.iter().enumerate() {
            let Some((key, _)) = head else { continue };
            if best.is_none_or(|(_, bkey)| compare_keys(key, bkey) == Ordering::Less) {
                best = Some((rank, key));
            }
        }
        let Some((winner_rank, _)) = best else { return Ok(None) };
        let winner = self.heads[winner_rank].take();
        let Some((winner_key, _)) = &winner else { return Ok(None) };
        for rank in winner_rank + 1..self.heads.len() {
            while matches!(&self.heads[rank], Some((k, _)) if compare_keys(k, winner_key) == Ordering::Equal)
            {
                self.heads[rank] = None;
                self.pull(rank)?;
            }
        }
        Ok(winner)
    }
}

impl<V, I: Iterator<Item = Result<(Vec<u8>, V)>>> Iterator for KWayMerge<I, V> {
    type Item = Result<(Vec<u8>, V)>;

    fn next(&mut self) -> Option<Self::Item> {
        self.advance().transpose()
    }
}

/// In-progress compaction: the merge over the input components' raw entries
/// plus the output builder. Owned by a [`MergeJob`] and advanced one morsel
/// at a time.
pub(crate) struct MergeRun {
    /// Pre-allocated id of the output component.
    id: u64,
    merge: KWayMerge<BTreeRangeIter, Vec<u8>>,
    builder: Option<BTreeBuilder>,
    written: u64,
}

impl MergeRun {
    /// Entries emitted into the output component so far.
    pub(crate) fn written(&self) -> u64 {
        self.written
    }
}

// ---------------------------------------------------------------------------
// Shared tree state
// ---------------------------------------------------------------------------

/// Window of (reads + ingests) between autotuner policy decisions.
pub const AUTO_TUNE_WINDOW: u64 = 1024;

/// State shared between the [`LsmTree`] handle and background merge jobs:
/// the component list, the compaction state machine, the active policy, and
/// the counters. Lock order: `state` may be taken before `disk`; `policy`,
/// `exec`, and the mark mutexes are leaves. No I/O and no component drops
/// happen while holding `state` or `disk`.
pub(crate) struct LsmShared {
    cache: Arc<BufferCache>,
    config: LsmConfig,
    /// The active policy; starts as `config.merge_policy`, possibly swapped
    /// by the autotuner or `set_merge_policy`.
    policy: Mutex<MergePolicy>,
    /// Disk components, newest first.
    disk: Mutex<Vec<Arc<DiskComponent>>>,
    state: Mutex<CompactionState>,
    state_changed: Condvar,
    next_component_id: AtomicU64,
    stats: SharedStats,
    exec: Mutex<Option<CompactionExec>>,
    auto_tune: AtomicBool,
    /// (reads, entries_ingested) at the last autotune decision.
    tune_mark: Mutex<(u64, u64)>,
    /// Whether this tree currently contributes to the hub's in-flight gauge.
    inflight: AtomicBool,
    /// (total bytes, live bytes) last reported to the hub's space counters.
    space_mark: Mutex<(u64, u64)>,
    hub: Arc<LsmMetricsHub>,
}

impl LsmShared {
    fn new_component(&self, id: u64, tree: DiskBTree, size_bytes: u64) -> DiskComponent {
        DiskComponent {
            id,
            tree,
            size_bytes,
            cache: Arc::clone(&self.cache),
            retire: AtomicBool::new(false),
            retire_failures: Arc::clone(&self.stats.retire_failures),
            hub: Arc::clone(&self.hub),
        }
    }

    /// Applies the optional value compression at the disk boundary.
    fn encode_disk(&self, raw: &[u8]) -> Vec<u8> {
        if self.config.compress_values {
            crate::compress::compress(raw)
        } else {
            raw.to_vec()
        }
    }

    /// Reverses [`LsmShared::encode_disk`].
    fn decode_disk(&self, raw: &[u8]) -> Result<Vec<u8>> {
        if self.config.compress_values {
            crate::compress::decompress(raw).map_err(StorageError::Corrupt)
        } else {
            Ok(raw.to_vec())
        }
    }

    /// Snapshot of the live component list (cheap `Arc` clones).
    fn snapshot(&self) -> Vec<Arc<DiskComponent>> {
        self.disk.lock().clone()
    }

    /// Re-reports this tree's space contribution to the hub. Called with the
    /// `disk` guard held by the caller (the list must not move underneath).
    fn refresh_space(&self, disk: &[Arc<DiskComponent>]) {
        let total: u64 = disk.iter().map(|c| c.size_bytes).sum();
        let live: u64 = disk.iter().map(|c| c.size_bytes).max().unwrap_or(0);
        let mut mark = self.space_mark.lock();
        self.hub.adjust_space(total as i64 - mark.0 as i64, live as i64 - mark.1 as i64);
        *mark = (total, live);
    }

    /// Runs the active policy over the current list; returns the newest-run
    /// snapshot to merge and whether it includes the oldest component.
    fn pick_candidate(
        &self,
        disk: &[Arc<DiskComponent>],
    ) -> Option<(Vec<Arc<DiskComponent>>, bool)> {
        let sizes: Vec<u64> = disk.iter().map(|c| c.size_bytes).collect();
        let n = self.policy.lock().pick_merge(&sizes)?;
        let n = n.min(disk.len());
        if n < 2 {
            return None;
        }
        Some((disk[..n].to_vec(), n == disk.len()))
    }

    /// The autotuner: once a window of traffic accumulates, pick the policy
    /// that matches the observed read/write mix — read-heavy gets `Leveled`,
    /// write-heavy gets `Tiered`, mixed falls back to the configured policy.
    fn maybe_autotune(&self) {
        if !self.auto_tune.load(AtomicOrdering::Acquire) {
            return;
        }
        let reads = self.stats.reads.load(AtomicOrdering::Relaxed);
        let writes = self.stats.entries_ingested.load(AtomicOrdering::Relaxed);
        let mut mark = self.tune_mark.lock(); // xlint: lock(lsm_tune_mark)
        let dr = reads.saturating_sub(mark.0);
        let dw = writes.saturating_sub(mark.1);
        if dr + dw < AUTO_TUNE_WINDOW {
            return;
        }
        *mark = (reads, writes);
        drop(mark);
        let next = if dr >= dw.saturating_mul(3) {
            MergePolicy::Leveled
        } else if dw >= dr.saturating_mul(3) {
            MergePolicy::Tiered { size_ratio: 4 }
        } else {
            self.config.merge_policy
        };
        *self.policy.lock() = next; // xlint: lock(lsm_policy)
    }

    /// Runs the policy and, when it fires, transitions idle → merging and
    /// either submits the job to the installed executor or drives it inline.
    /// Inline mode loops until the policy is satisfied (the cascade fix);
    /// background jobs cascade by re-invoking this on completion.
    pub(crate) fn schedule_merge(self: &Arc<Self>) -> Result<()> {
        loop {
            self.maybe_autotune();
            let exec = self.exec.lock().clone();
            let job = {
                let mut st = self.state.lock(); // xlint: lock(lsm_state)
                if !matches!(*st, CompactionState::Idle) {
                    return Ok(()); // one merge in flight per tree
                }
                let disk = self.disk.lock(); // xlint: lock(lsm_disk)
                let Some((comps, includes_oldest)) = self.pick_candidate(&disk) else {
                    return Ok(());
                };
                drop(disk);
                let cancel = Arc::new(AtomicBool::new(false));
                *st = CompactionState::Merging {
                    ids: comps.iter().map(|c| c.id).collect(),
                    cancel: Arc::clone(&cancel),
                };
                if !self.inflight.swap(true, AtomicOrdering::AcqRel) {
                    self.hub.merge_started();
                }
                Arc::new(MergeJob::new(
                    Arc::clone(self),
                    comps,
                    includes_oldest,
                    cancel,
                    exec.is_some(),
                ))
            };
            match exec {
                Some(e) => {
                    e.offload(job);
                    return Ok(());
                }
                None => {
                    while job.advance()? == JobStep::Again {}
                }
            }
        }
    }

    /// Opens a merge over `comps`: allocates the output component and the
    /// per-input scan iterators. Pure I/O setup; holds no tree locks.
    pub(crate) fn merge_open(&self, comps: &[Arc<DiskComponent>]) -> Result<MergeRun> {
        let id = self.next_component_id.fetch_add(1, AtomicOrdering::Relaxed); // xlint: ordering(component-id allocation; uniqueness only, publication via the disk-list lock)
        let name = format!("{}_c{}.btree", self.config.name, id);
        let writer = self.cache.manager().bulk_writer(&name)?;
        let expected: u64 = comps.iter().map(|c| c.tree.len()).sum();
        let builder =
            BTreeBuilder::new(writer, if self.config.bloom { expected as usize } else { 0 });
        let mut streams = Vec::with_capacity(comps.len());
        for comp in comps {
            streams.push(comp.tree.scan()?);
        }
        Ok(MergeRun { id, merge: KWayMerge::new(streams), builder: Some(builder), written: 0 })
    }

    /// Advances the k-way merge by up to `budget` input keys (newest rank
    /// wins on duplicates; dead tombstones dropped when the run includes the
    /// oldest component). Returns `true` once every input is exhausted.
    pub(crate) fn merge_step(
        &self,
        run: &mut MergeRun,
        budget: usize,
        includes_oldest: bool,
    ) -> Result<bool> {
        let MergeRun { merge, builder, written, .. } = run;
        let builder = builder
            .as_mut()
            .ok_or_else(|| StorageError::Invalid("merge already finished".into()))?;
        for _ in 0..budget.max(1) {
            let Some(next) = merge.next() else { return Ok(true) };
            let (key, raw) = next?;
            let entry = Entry::decode(&self.decode_disk(&raw)?)?;
            if matches!(entry, Entry::Tombstone) && includes_oldest {
                continue; // drop dead tombstones (still costs budget)
            }
            // stored bytes move as-is: merges never recompress
            builder.add(&key, &raw)?;
            *written += 1;
        }
        Ok(false)
    }

    /// Seals the merge output into a new disk component (not yet published).
    pub(crate) fn merge_finish(&self, mut run: MergeRun) -> Result<Arc<DiskComponent>> {
        let builder = run
            .builder
            .take()
            .ok_or_else(|| StorageError::Invalid("merge already finished".into()))?;
        let built = builder.finish()?;
        let size_bytes = self.cache.manager().page_count(built.file)? * crate::io::PAGE_SIZE as u64;
        let tree = DiskBTree::from_built(Arc::clone(&self.cache), built);
        Ok(Arc::new(self.new_component(run.id, tree, size_bytes)))
    }

    /// Atomically swaps the merged component in for its inputs, then retires
    /// the inputs. Publish-first is the data-loss fix: by the time any input
    /// file can be deleted, the merged entries are already in the live list.
    pub(crate) fn complete_merge(
        self: &Arc<Self>,
        inputs: Vec<Arc<DiskComponent>>,
        new_comp: Arc<DiskComponent>,
        written: u64,
        cascade: bool,
    ) {
        let ids: Vec<u64> = inputs.iter().map(|c| c.id).collect();
        {
            let mut disk = self.disk.lock();
            // Flushes only ever prepend, so the inputs still sit contiguously
            // wherever the newest of them now is.
            let pos = disk
                .iter()
                .position(|c| ids.contains(&c.id))
                .unwrap_or(disk.len());
            disk.retain(|c| !ids.contains(&c.id));
            let pos = pos.min(disk.len());
            disk.insert(pos, new_comp);
            self.refresh_space(&disk);
        }
        {
            let mut st = self.state.lock();
            *st = CompactionState::Retiring;
        }
        for comp in &inputs {
            comp.mark_retired();
        }
        // The input files unlink here unless a read snapshot still holds
        // them; a failed delete is counted, never propagated.
        drop(inputs);
        self.stats.merges.fetch_add(1, AtomicOrdering::Relaxed);
        self.stats.entries_written.fetch_add(written, AtomicOrdering::Relaxed);
        self.hub.count_written(written);
        self.to_idle();
        if cascade {
            // Background mode: re-run the policy over the post-merge list.
            // Errors surface through merges_aborted, not the write path.
            let _ = self.schedule_merge();
        }
    }

    /// Records an aborted/cancelled/failed merge and returns to idle. The
    /// partial output file (if any) is an orphan; restart recovery's
    /// component sweep removes it.
    pub(crate) fn merge_aborted(&self) {
        self.stats.merges_aborted.fetch_add(1, AtomicOrdering::Relaxed);
        self.to_idle();
    }

    fn to_idle(&self) {
        {
            let mut st = self.state.lock();
            *st = CompactionState::Idle;
            self.state_changed.notify_all();
        }
        if self.inflight.swap(false, AtomicOrdering::AcqRel) {
            self.hub.merge_finished();
        }
    }

    /// Blocks until the state machine is idle or `deadline` passes.
    fn wait_idle_until(&self, deadline: Instant) -> bool { // xlint: allow(blocking, "deadline-bounded quiesce wait; only called from foreground merge/drop paths, never from a pool worker")
        let mut st = self.state.lock();
        while !matches!(*st, CompactionState::Idle) {
            let Some(left) = deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())
            else {
                return false;
            };
            if self.state_changed.wait_for(&mut st, left).timed_out() {
                return matches!(*st, CompactionState::Idle);
            }
        }
        true
    }
}

// ---------------------------------------------------------------------------
// The LSM tree
// ---------------------------------------------------------------------------

/// An LSM B+ tree index over encoded composite keys.
pub struct LsmTree {
    shared: Arc<LsmShared>,
    mem: MemComponent,
}

impl LsmTree {
    /// Creates an empty LSM tree. Amplification counters feed the node-wide
    /// hub reachable through the cache's [`crate::IoStats`].
    pub fn new(cache: Arc<BufferCache>, config: LsmConfig) -> Self {
        let hub = Arc::clone(cache.stats().lsm());
        let shared = Arc::new(LsmShared {
            policy: Mutex::new(config.merge_policy),
            cache,
            config,
            disk: Mutex::new(Vec::new()),
            state: Mutex::new(CompactionState::Idle),
            state_changed: Condvar::new(),
            next_component_id: AtomicU64::new(1),
            stats: SharedStats::default(),
            exec: Mutex::new(None),
            auto_tune: AtomicBool::new(false),
            tune_mark: Mutex::new((0, 0)),
            inflight: AtomicBool::new(false),
            space_mark: Mutex::new((0, 0)),
            hub,
        });
        LsmTree { shared, mem: MemComponent::new() }
    }

    /// The configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.shared.config
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> LsmStats {
        let s = &self.shared.stats;
        LsmStats {
            flushes: s.flushes.load(AtomicOrdering::Relaxed),
            merges: s.merges.load(AtomicOrdering::Relaxed),
            merges_aborted: s.merges_aborted.load(AtomicOrdering::Relaxed),
            entries_written: s.entries_written.load(AtomicOrdering::Relaxed),
            entries_ingested: s.entries_ingested.load(AtomicOrdering::Relaxed),
            merge_stall_ns: s.merge_stall_ns.load(AtomicOrdering::Relaxed),
            retire_failures: s.retire_failures.load(AtomicOrdering::Relaxed),
            reads: s.reads.load(AtomicOrdering::Relaxed),
            entries_visited: s.entries_visited.load(AtomicOrdering::Relaxed),
        }
    }

    /// Installs a background executor: from now on scheduled merges run off
    /// the write path, one morsel per step.
    pub fn set_executor(&self, exec: CompactionExec) {
        *self.shared.exec.lock() = Some(exec);
    }

    /// Enables/disables the merge-policy autotuner (see
    /// [`AUTO_TUNE_WINDOW`]).
    pub fn set_auto_tune(&self, on: bool) {
        self.shared.auto_tune.store(on, AtomicOrdering::Release);
    }

    /// Replaces the active merge policy (what the autotuner does internally).
    /// Takes effect at the next scheduling point; a long backlog converges
    /// because scheduling loops until the policy is satisfied.
    pub fn set_merge_policy(&self, policy: MergePolicy) {
        *self.shared.policy.lock() = policy;
    }

    /// The currently active merge policy (configured or autotuned).
    pub fn current_policy(&self) -> MergePolicy {
        *self.shared.policy.lock()
    }

    /// Name of the compaction state machine's current state
    /// (`idle`/`merging`/`retiring`), for diagnostics and tests.
    pub fn compaction_state(&self) -> &'static str {
        self.shared.state.lock().name()
    }

    /// Component ids covered by the in-flight merge (empty when no merge is
    /// running): the `merging{range}` half of the state machine.
    pub fn merging_range(&self) -> Vec<u64> {
        self.shared
            .state
            .lock()
            .merging_ids()
            .map(<[u64]>::to_vec)
            .unwrap_or_default()
    }

    /// Blocks until no merge is in flight **and** the policy has no more
    /// work, scheduling as needed (quiesce for benches/tests). Returns
    /// `false` on timeout or if a merge aborts while waiting.
    pub fn wait_merges_idle(&self, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let aborted0 = self.shared.stats.merges_aborted.load(AtomicOrdering::Relaxed);
        loop {
            if !self.shared.wait_idle_until(deadline) {
                return false;
            }
            if self.shared.stats.merges_aborted.load(AtomicOrdering::Relaxed) > aborted0 {
                return false;
            }
            {
                let disk = self.shared.disk.lock();
                if self.shared.pick_candidate(&disk).is_none() {
                    return true;
                }
            }
            if self.shared.schedule_merge().is_err() {
                return false;
            }
        }
    }

    /// Number of disk components.
    pub fn component_count(&self) -> usize {
        self.shared.disk.lock().len()
    }

    /// Entries currently buffered in memory.
    pub fn mem_entries(&self) -> usize {
        self.mem.len()
    }

    /// Inserts or replaces `key`. Flushes automatically past the budget.
    pub fn upsert(&mut self, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        self.shared.stats.entries_ingested.fetch_add(1, AtomicOrdering::Relaxed);
        self.shared.hub.count_ingested(1);
        self.mem.put(key, value);
        self.maybe_flush()
    }

    /// Deletes `key` (tombstone insert).
    pub fn delete(&mut self, key: Vec<u8>) -> Result<()> {
        self.shared.stats.entries_ingested.fetch_add(1, AtomicOrdering::Relaxed);
        self.shared.hub.count_ingested(1);
        self.mem.delete(key);
        self.maybe_flush()
    }

    fn maybe_flush(&mut self) -> Result<()> {
        if self.mem.bytes() > self.shared.config.mem_budget {
            self.flush()?;
        }
        Ok(())
    }

    /// Point lookup: memory component, then disk components newest-first.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        self.shared.stats.reads.fetch_add(1, AtomicOrdering::Relaxed);
        match self.mem.get(key) {
            Some(Entry::Put(v)) => {
                self.shared.hub.count_read(0);
                return Ok(Some(v.clone()));
            }
            Some(Entry::Tombstone) => {
                self.shared.hub.count_read(0);
                return Ok(None);
            }
            None => {}
        }
        let disk = self.shared.snapshot();
        let mut probes = 0u64;
        let mut found = None;
        for comp in &disk {
            if !comp.tree.may_contain(key) {
                continue;
            }
            probes += 1;
            if let Some(raw) = comp.tree.get(key)? {
                found = Some(raw);
                break;
            }
        }
        self.shared.hub.count_read(probes);
        match found {
            None => Ok(None),
            Some(raw) => {
                let raw = self.shared.decode_disk(&raw)?;
                match Entry::decode(&raw)? {
                    Entry::Put(v) => Ok(Some(v)),
                    Entry::Tombstone => Ok(None),
                }
            }
        }
    }

    /// Forces the memory component to disk as a new component, then
    /// *schedules* merging: with a background executor installed the write
    /// path only pays the scheduling cost (measured into `merge_stall_ns`);
    /// without one the merge runs inline, as before.
    pub fn flush(&mut self) -> Result<()> {
        if self.mem.is_empty() {
            return Ok(());
        }
        let shared = &self.shared;
        let id = shared.next_component_id.fetch_add(1, AtomicOrdering::Relaxed); // xlint: ordering(component-id allocation; uniqueness only, publication via the disk-list lock)
        let name = format!("{}_c{}.btree", shared.config.name, id);
        let writer = shared.cache.manager().bulk_writer(&name)?;
        let expected = if shared.config.bloom { self.mem.len() } else { 0 };
        let mut builder = BTreeBuilder::new(writer, expected);
        let mut written = 0u64;
        for (k, e) in self.mem.iter() {
            let raw = shared.encode_disk(&e.encode());
            builder.add(&k.0, &raw)?;
            written += 1;
        }
        let built = builder.finish()?;
        let size_bytes = shared.cache.manager().page_count(built.file)? * crate::io::PAGE_SIZE as u64;
        let tree = DiskBTree::from_built(Arc::clone(&shared.cache), built);
        let comp = Arc::new(shared.new_component(id, tree, size_bytes));
        {
            let mut disk = shared.disk.lock();
            disk.insert(0, comp);
            shared.refresh_space(&disk);
        }
        self.mem = MemComponent::new();
        shared.stats.flushes.fetch_add(1, AtomicOrdering::Relaxed);
        shared.stats.entries_written.fetch_add(written, AtomicOrdering::Relaxed);
        shared.hub.count_written(written);
        let start = Instant::now();
        let result = self.shared.schedule_merge();
        let stall = start.elapsed().as_nanos() as u64;
        shared.stats.merge_stall_ns.fetch_add(stall, AtomicOrdering::Relaxed);
        shared.hub.add_stall_ns(stall);
        result
    }

    /// Merges the `n` newest disk components into one, inline on this
    /// thread (waits for any background merge to drain first).
    pub fn merge_newest(&mut self, n: usize) -> Result<()> {
        let shared = Arc::clone(&self.shared);
        if !shared.wait_idle_until(Instant::now() + Duration::from_secs(60)) {
            return Err(StorageError::Invalid(
                "merge_newest timed out waiting for the in-flight merge".into(),
            ));
        }
        let job = {
            let mut st = shared.state.lock(); // xlint: lock(lsm_state)
            if !matches!(*st, CompactionState::Idle) {
                return Ok(());
            }
            let disk = shared.disk.lock(); // xlint: lock(lsm_disk)
            let n = n.min(disk.len());
            if n < 2 {
                return Ok(());
            }
            let comps: Vec<Arc<DiskComponent>> = disk[..n].to_vec();
            let includes_oldest = n == disk.len();
            drop(disk);
            let cancel = Arc::new(AtomicBool::new(false));
            *st = CompactionState::Merging {
                ids: comps.iter().map(|c| c.id).collect(),
                cancel: Arc::clone(&cancel),
            };
            if !shared.inflight.swap(true, AtomicOrdering::AcqRel) {
                shared.hub.merge_started();
            }
            MergeJob::new(shared.clone(), comps, includes_oldest, cancel, false)
        };
        let start = Instant::now();
        let result = (|| {
            while job.advance()? == JobStep::Again {}
            Ok(())
        })();
        let stall = start.elapsed().as_nanos() as u64;
        shared.stats.merge_stall_ns.fetch_add(stall, AtomicOrdering::Relaxed);
        shared.hub.add_stall_ns(stall);
        result
    }

    /// Lazy ordered scan over `[lo, hi]`, resolving versions (newest wins)
    /// and dropping tombstones. Nothing past the last entry the caller takes
    /// is read (one entry of lookahead per component), so a probe that
    /// cannot name its upper bound as a key — every key with a given leading
    /// part, say — starts at `lo` and simply stops.
    pub fn range_iter(&self, lo: Bound<&[u8]>, hi: Bound<&[u8]>) -> Result<LsmRangeIter<'_>> {
        // Snapshot the component list: the scan sees a consistent pre- or
        // post-merge view, and snapshot refs keep retired files alive.
        let snapshot = self.shared.snapshot();
        let owned = |b: Bound<&[u8]>| b.map(<[u8]>::to_vec);
        // Per-source ordered streams: rank 0 = memory (newest).
        let mut streams: Vec<EntryStream<'_>> = Vec::with_capacity(snapshot.len() + 1);
        streams.push(Box::new(
            self.mem
                .range(owned(lo), owned(hi))
                .map(|(k, e)| Ok((k.0.clone(), e.clone()))),
        ));
        for comp in &snapshot {
            let it = comp.tree.range(lo, owned(hi))?;
            let compressed = self.shared.config.compress_values;
            streams.push(Box::new(it.map(move |r| {
                r.and_then(|(k, raw)| {
                    let raw = if compressed {
                        crate::compress::decompress(&raw).map_err(StorageError::Corrupt)?
                    } else {
                        raw
                    };
                    Ok((k, Entry::decode(&raw)?))
                })
            })));
        }
        Ok(LsmRangeIter {
            merge: KWayMerge::new(streams),
            visited: &self.shared.stats.entries_visited,
            _snapshot: snapshot,
        })
    }

    /// [`LsmTree::range_iter`], materialized.
    pub fn range(
        &self,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
    ) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.range_iter(lo, hi)?.collect()
    }

    /// Full ordered scan (tombstones resolved).
    pub fn scan(&self) -> Result<Vec<(Vec<u8>, Vec<u8>)>> {
        self.range(Bound::Unbounded, Bound::Unbounded)
    }

    /// Live entry count (scans; intended for tests and small datasets).
    pub fn count(&self) -> Result<usize> {
        Ok(self.scan()?.len())
    }
}

type EntryStream<'a> = Box<dyn Iterator<Item = Result<(Vec<u8>, Entry)>> + 'a>;

/// Live `(key, value)` pairs of one [`LsmTree::range_iter`] call, in key
/// order. Dropping it adds what it read to [`LsmStats::entries_visited`].
pub struct LsmRangeIter<'a> {
    merge: KWayMerge<EntryStream<'a>, Entry>,
    visited: &'a AtomicU64,
    _snapshot: Vec<Arc<DiskComponent>>,
}

impl Iterator for LsmRangeIter<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        loop {
            match self.merge.next()? {
                Ok((key, Entry::Put(value))) => return Some(Ok((key, value))),
                Ok((_, Entry::Tombstone)) => {}
                Err(e) => return Some(Err(e)),
            }
        }
    }
}

impl Drop for LsmRangeIter<'_> {
    fn drop(&mut self) {
        self.visited.fetch_add(self.merge.pulled(), AtomicOrdering::Relaxed);
    }
}

impl Drop for LsmTree {
    fn drop(&mut self) {
        // Ask any in-flight background merge to stop at its next morsel; the
        // job holds its own `Arc<LsmShared>`, so this is a courtesy, not a
        // correctness requirement.
        if let CompactionState::Merging { cancel, .. } = &*self.shared.state.lock() {
            cancel.store(true, AtomicOrdering::Release);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::{BackgroundExecutor, BackgroundJob, ThreadExecutor};
    use crate::faults::{FaultConfig, FaultInjector};
    use crate::io::FileManager;
    use crate::stats::IoStats;
    use crate::testutil::TempDir;
    use asterix_adm::binary::encode_key;
    use asterix_adm::Value;

    fn setup() -> (Arc<BufferCache>, TempDir) {
        let dir = TempDir::new();
        let fm = FileManager::new(dir.path(), IoStats::new()).unwrap();
        (BufferCache::new(fm, 256), dir)
    }

    fn setup_faulty(config: FaultConfig) -> (Arc<BufferCache>, TempDir) {
        let dir = TempDir::new();
        let fm = FileManager::with_faults(dir.path(), IoStats::new(), Some(FaultInjector::new(config)))
            .unwrap();
        (BufferCache::new(fm, 256), dir)
    }

    fn k(i: i64) -> Vec<u8> {
        encode_key(&[Value::Int(i)])
    }

    fn small_config(name: &str, policy: MergePolicy) -> LsmConfig {
        LsmConfig {
            name: name.into(),
            mem_budget: 4 << 10, // tiny: force frequent flushes
            merge_policy: policy,
            bloom: true,
            compress_values: false,
        }
    }

    /// A config that never auto-flushes, for tests shaping components by hand.
    fn manual_config(name: &str, policy: MergePolicy) -> LsmConfig {
        LsmConfig { mem_budget: 1 << 30, ..small_config(name, policy) }
    }

    #[test]
    fn upsert_get_across_flushes() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache, small_config("t", MergePolicy::NoMerge));
        for i in 0..2_000 {
            t.upsert(k(i), format!("v{i}").into_bytes()).unwrap();
        }
        assert!(t.component_count() > 1, "flushes happened");
        for i in (0..2_000).step_by(97) {
            assert_eq!(t.get(&k(i)).unwrap().unwrap(), format!("v{i}").into_bytes());
        }
        assert!(t.get(&k(5_000)).unwrap().is_none());
    }

    #[test]
    fn newest_version_wins() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache, small_config("t", MergePolicy::NoMerge));
        t.upsert(k(1), b"old".to_vec()).unwrap();
        t.flush().unwrap();
        t.upsert(k(1), b"new".to_vec()).unwrap();
        assert_eq!(t.get(&k(1)).unwrap().unwrap(), b"new");
        t.flush().unwrap();
        assert_eq!(t.get(&k(1)).unwrap().unwrap(), b"new");
        assert_eq!(t.scan().unwrap().len(), 1);
    }

    #[test]
    fn tombstones_mask_older_components() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache, small_config("t", MergePolicy::NoMerge));
        for i in 0..100 {
            t.upsert(k(i), b"v".to_vec()).unwrap();
        }
        t.flush().unwrap();
        for i in 0..50 {
            t.delete(k(i)).unwrap();
        }
        assert!(t.get(&k(10)).unwrap().is_none());
        assert_eq!(t.get(&k(60)).unwrap().unwrap(), b"v");
        t.flush().unwrap();
        assert!(t.get(&k(10)).unwrap().is_none(), "tombstone flushed");
        assert_eq!(t.count().unwrap(), 50);
    }

    #[test]
    fn range_resolves_versions_and_tombstones() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache, small_config("t", MergePolicy::NoMerge));
        for i in 0..100 {
            t.upsert(k(i), b"v1".to_vec()).unwrap();
        }
        t.flush().unwrap();
        for i in (0..100).step_by(2) {
            t.upsert(k(i), b"v2".to_vec()).unwrap();
        }
        for i in (1..100).step_by(10) {
            t.delete(k(i)).unwrap();
        }
        let lo = k(0);
        let hi = k(20);
        let items = t.range(Bound::Included(&lo), Bound::Included(&hi)).unwrap();
        // keys 0..=20, minus deleted 1 and 11
        assert_eq!(items.len(), 19);
        assert_eq!(items[0], (k(0), b"v2".to_vec()));
        assert!(items.iter().all(|(key, _)| key != &k(1) && key != &k(11)));
        let even_val = items.iter().find(|(key, _)| key == &k(2)).unwrap();
        assert_eq!(even_val.1, b"v2");
        let odd_val = items.iter().find(|(key, _)| key == &k(3)).unwrap();
        assert_eq!(odd_val.1, b"v1");
    }

    #[test]
    fn range_iter_reads_no_further_than_its_caller() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache, manual_config("t", MergePolicy::NoMerge));
        // keys interleaved over two disk components and the memory component
        for residue in 0..3 {
            for i in (residue..3_000).step_by(3) {
                t.upsert(k(i), b"v".to_vec()).unwrap();
            }
            if residue < 2 {
                t.flush().unwrap();
            }
        }
        assert_eq!(t.component_count(), 2);
        let lo = k(1_500);
        let taken: Vec<Vec<u8>> = t
            .range_iter(Bound::Included(&lo), Bound::Unbounded)
            .unwrap()
            .take(30)
            .map(|e| e.unwrap().0)
            .collect();
        assert_eq!(taken, (1_500..1_530).map(k).collect::<Vec<_>>());
        // one entry of lookahead per component, not the 1 470 left in range
        let visited = t.stats().entries_visited;
        assert!((30..=33).contains(&visited), "visited {visited}");
        assert_eq!(t.scan().unwrap().len(), 3_000);
        assert_eq!(t.stats().entries_visited, visited + 3_000);
    }

    #[test]
    fn constant_policy_bounds_components() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(
            cache,
            small_config("t", MergePolicy::Constant { max_components: 3 }),
        );
        for i in 0..5_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        assert!(t.component_count() <= 3 + 1, "constant policy holds");
        assert!(t.stats().merges > 0);
        assert_eq!(t.count().unwrap(), 5_000);
    }

    #[test]
    fn no_merge_policy_never_merges() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache, small_config("t", MergePolicy::NoMerge));
        for i in 0..3_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        assert!(t.component_count() > 4);
        assert_eq!(t.stats().merges, 0);
        t.flush().unwrap();
        // with no merging, every ingested entry is written to disk exactly once
        assert!((t.stats().write_amplification() - 1.0).abs() < 0.01);
    }

    #[test]
    fn prefix_policy_merges_small_runs() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(
            cache,
            small_config(
                "t",
                MergePolicy::Prefix {
                    max_mergable_bytes: 1 << 20,
                    max_tolerance_components: 2,
                },
            ),
        );
        for i in 0..5_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        assert!(t.stats().merges > 0, "prefix policy merged");
        assert!(t.component_count() <= 4);
        assert_eq!(t.count().unwrap(), 5_000);
        assert!(t.stats().write_amplification() > 1.0, "merging costs write amp");
    }

    #[test]
    fn merge_all_drops_tombstones() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache, small_config("t", MergePolicy::NoMerge));
        for i in 0..100 {
            t.upsert(k(i), b"v".to_vec()).unwrap();
        }
        t.flush().unwrap();
        for i in 0..100 {
            t.delete(k(i)).unwrap();
        }
        t.flush().unwrap();
        let n = t.component_count();
        t.merge_newest(n).unwrap();
        assert_eq!(t.component_count(), 1);
        assert_eq!(t.count().unwrap(), 0);
        // everything annihilated: component holds zero live entries
        assert_eq!(t.scan().unwrap().len(), 0);
    }

    #[test]
    fn bloom_filters_skip_components_on_point_misses() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache.clone(), small_config("t", MergePolicy::NoMerge));
        for i in 0..2_000 {
            t.upsert(k(i), b"v".to_vec()).unwrap();
        }
        t.flush().unwrap();
        // probe far-away keys: min/max or bloom pruning means ~0 physical reads
        cache.stats().reset();
        for i in 100_000..100_200 {
            assert!(t.get(&k(i)).unwrap().is_none());
        }
        assert_eq!(cache.stats().physical_reads(), 0);
    }

    #[test]
    fn mixed_type_keys_order_correctly() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache, small_config("t", MergePolicy::NoMerge));
        t.upsert(encode_key(&[Value::Int(2)]), b"int2".to_vec()).unwrap();
        t.upsert(encode_key(&[Value::Double(2.5)]), b"d2.5".to_vec()).unwrap();
        t.upsert(encode_key(&[Value::from("apple")]), b"s".to_vec()).unwrap();
        t.flush().unwrap();
        // Double(2.0) must hit the Int(2) entry (ADM equality)
        assert_eq!(
            t.get(&encode_key(&[Value::Double(2.0)])).unwrap().unwrap(),
            b"int2"
        );
        let all = t.scan().unwrap();
        assert_eq!(all.len(), 3);
        // numbers before strings
        assert_eq!(all[0].1, b"int2");
        assert_eq!(all[1].1, b"d2.5");
        assert_eq!(all[2].1, b"s");
    }

    // -- background compaction, new policies, and the retirement fix --------

    #[test]
    fn leveled_policy_merges_greedily() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache, small_config("t", MergePolicy::Leveled));
        for i in 0..5_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        assert!(t.stats().merges > 0, "leveled policy merged");
        assert!(t.component_count() <= 2, "reads see few, large components");
        assert_eq!(t.count().unwrap(), 5_000);
        assert!(t.stats().write_amplification() > 1.0);
    }

    #[test]
    fn tiered_policy_merges_similar_sized_bands() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache, small_config("t", MergePolicy::Tiered { size_ratio: 2 }));
        for i in 0..5_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        assert!(t.stats().merges > 0, "tiered policy merged");
        assert_eq!(t.count().unwrap(), 5_000);
        assert!(t.stats().write_amplification() > 1.0);
    }

    #[test]
    fn merge_cascade_converges_after_policy_switch() {
        // Regression for the single-pick bug: one flush used to run the
        // policy exactly once, so a backlog built under one policy never
        // converged after a switch. Build geometric components under
        // NoMerge, switch to Tiered, and one more flush must cascade all
        // the way down.
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache, manual_config("t", MergePolicy::NoMerge));
        for i in 0..4_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        t.flush().unwrap();
        for i in 4_000..6_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        t.flush().unwrap();
        for i in 6_000..7_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        t.flush().unwrap();
        assert_eq!(t.component_count(), 3);
        assert_eq!(t.stats().merges, 0);
        t.set_merge_policy(MergePolicy::Tiered { size_ratio: 2 });
        for i in 7_000..8_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        t.flush().unwrap();
        assert_eq!(t.component_count(), 1, "cascade converged in one flush");
        assert!(t.stats().merges >= 2, "required more than one policy pick");
        assert_eq!(t.count().unwrap(), 8_000);
    }

    #[test]
    fn retirement_delete_failure_never_loses_merged_data() {
        // Regression for the retirement-ordering data loss: old components
        // were deleted *before* the merged component was inserted, so an
        // injected delete failure un-published the merged entries. Now the
        // merged component publishes first and failed deletes are counted
        // cleanup.
        let (cache, _d) = setup_faulty(FaultConfig {
            seed: 9,
            delete_fail_prob: 1.0,
            ..FaultConfig::default()
        });
        let mut t = LsmTree::new(cache.clone(), manual_config("t", MergePolicy::NoMerge));
        for i in 0..500 {
            t.upsert(k(i), vec![b'x'; 32]).unwrap();
        }
        t.flush().unwrap();
        for i in 500..1_000 {
            t.upsert(k(i), vec![b'x'; 32]).unwrap();
        }
        t.flush().unwrap();
        assert_eq!(t.component_count(), 2);
        t.merge_newest(2).expect("retirement failures are non-fatal");
        assert_eq!(t.component_count(), 1, "merged component is live");
        assert_eq!(t.count().unwrap(), 1_000, "no entry lost");
        assert_eq!(t.get(&k(0)).unwrap().unwrap(), vec![b'x'; 32]);
        assert_eq!(t.stats().retire_failures, 2, "both input deletes failed");
        assert_eq!(cache.stats().lsm().retire_failures(), 2);
    }

    #[test]
    fn background_executor_merges_off_the_write_path() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(
            cache,
            small_config("t", MergePolicy::Constant { max_components: 3 }),
        );
        t.set_executor(ThreadExecutor::handle());
        for i in 0..5_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        assert!(t.wait_merges_idle(Duration::from_secs(30)), "merges drained");
        assert_eq!(t.compaction_state(), "idle");
        assert!(t.stats().merges > 0);
        assert!(t.component_count() <= 3 + 1);
        assert_eq!(t.count().unwrap(), 5_000);
        for i in (0..5_000).step_by(131) {
            assert_eq!(t.get(&k(i)).unwrap().unwrap(), vec![b'x'; 64]);
        }
    }

    /// Executor that parks jobs for the test to drive by hand.
    #[derive(Default)]
    struct ParkedExecutor(Mutex<Vec<Arc<dyn BackgroundJob>>>);

    impl BackgroundExecutor for ParkedExecutor {
        fn offload(&self, job: Arc<dyn BackgroundJob>) {
            self.0.lock().push(job);
        }
    }

    #[test]
    fn reads_and_flushes_proceed_while_merging_and_cancel_aborts_cleanly() {
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache, manual_config("t", MergePolicy::NoMerge));
        for i in 0..600 {
            t.upsert(k(i), b"v".to_vec()).unwrap();
        }
        t.flush().unwrap();
        for i in 600..1_200 {
            t.upsert(k(i), b"v".to_vec()).unwrap();
        }
        t.flush().unwrap();
        let parked = Arc::new(ParkedExecutor::default());
        t.set_executor(CompactionExec::new(parked.clone()));
        t.set_merge_policy(MergePolicy::Constant { max_components: 1 });
        // this flush schedules (but does not run) the merge
        t.upsert(k(1_200), b"v".to_vec()).unwrap();
        t.flush().unwrap();
        assert_eq!(t.compaction_state(), "merging");
        assert_eq!(t.merging_range().len(), 3, "all three components in range");
        let job = parked.0.lock().pop().expect("merge scheduled");
        // reads and flushes still serve against the pre-merge list
        assert_eq!(t.get(&k(0)).unwrap().unwrap(), b"v");
        let before = t.component_count();
        t.upsert(k(1_201), b"v".to_vec()).unwrap();
        t.flush().unwrap();
        assert_eq!(t.component_count(), before + 1, "flush during merge");
        // partial progress, then cancellation
        assert_eq!(job.step(), JobStep::Again, "one morsel merged");
        job.cancel();
        assert_eq!(job.step(), JobStep::Done, "cancel honored at morsel edge");
        assert_eq!(t.compaction_state(), "idle");
        assert_eq!(t.stats().merges, 0);
        assert_eq!(t.stats().merges_aborted, 1);
        assert_eq!(t.component_count(), before + 1, "list untouched by abort");
        assert_eq!(t.count().unwrap(), 1_202);
    }

    #[test]
    fn autotuner_picks_policy_from_read_write_mix() {
        // read-heavy window → Leveled
        let (cache, _d) = setup();
        let mut t = LsmTree::new(cache, manual_config("t", MergePolicy::NoMerge));
        t.set_auto_tune(true);
        for i in 0..100 {
            t.upsert(k(i), b"v".to_vec()).unwrap();
        }
        t.flush().unwrap();
        for _ in 0..40 {
            for i in 0..100 {
                let _ = t.get(&k(i)).unwrap();
            }
        }
        t.upsert(k(100), b"v".to_vec()).unwrap();
        t.flush().unwrap();
        assert_eq!(t.current_policy(), MergePolicy::Leveled, "read-heavy");

        // write-heavy window → Tiered
        let (cache2, _d2) = setup();
        let mut w = LsmTree::new(cache2, manual_config("w", MergePolicy::NoMerge));
        w.set_auto_tune(true);
        for i in 0..2_000 {
            w.upsert(k(i), b"v".to_vec()).unwrap();
        }
        w.flush().unwrap();
        assert_eq!(
            w.current_policy(),
            MergePolicy::Tiered { size_ratio: 4 },
            "write-heavy"
        );
    }

    #[test]
    fn amplification_metrics_flow_to_the_hub() {
        let (cache, _d) = setup();
        let hub = Arc::clone(cache.stats().lsm());
        let mut t = LsmTree::new(cache, manual_config("t", MergePolicy::NoMerge));
        for i in 0..1_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        t.flush().unwrap();
        for i in 1_000..2_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        t.flush().unwrap();
        assert_eq!(hub.write_amp_milli(), 1000, "flush-only: write amp 1.0");
        t.merge_newest(2).unwrap();
        assert_eq!(hub.write_amp_milli(), 2000, "full rewrite doubles it");
        assert!(hub.space_amp_milli() >= 1000, "total >= live");
        let _ = t.get(&k(1)).unwrap();
        assert!(hub.read_amp_milli() >= 1000, "post-merge point read probes 1 comp");
        assert_eq!(hub.merge_inflight(), 0);
        assert_eq!(t.stats().merge_stall_ns, hub.merge_stall_ns());
        assert!(t.stats().merge_stall_ns > 0, "inline merge time is stall time");
    }
}
