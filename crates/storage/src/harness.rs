//! The LSM component lifecycle, written once (paper §III item 5, §V-B: one
//! framework "LSM-ifies" B+ trees, R-trees and inverted indexes alike).
//!
//! A [`Harness`] owns everything about an LSM index that does not depend on
//! what is *inside* a component: the live component list, component ids, the
//! merge policy, the compaction slot (`idle → merging → retiring → idle`),
//! publishing a flushed or merged component, retiring merged-away inputs,
//! cascading, cancellation, quiescing, and the per-tree and node-wide
//! counters. An index kind plugs in through [`ComponentKind`]: what a disk
//! component holds, which files it owns, and a resumable merge over a
//! snapshot of components. [`crate::lsm::LsmTree`] (and through it
//! [`crate::inverted::InvertedIndex`]) and [`crate::lsm_rtree::LsmRTree`] are
//! the kinds; the harness is generic over them and statically dispatched, so
//! a read costs a list snapshot and nothing else.
//!
//! A flush publishes its component and *schedules* a merge — driven inline
//! when no executor is installed, or handed to a
//! [`crate::compaction::BackgroundExecutor`] one morsel per step. Reads and
//! flushes proceed against the pre-merge list until the merged one swaps in.
//!
//! **Retirement invariant.** The merged component is inserted into the live
//! list *before* any input file may be deleted, and input files are unlinked
//! lazily — when the last holder of the component (the list, a read
//! snapshot, the merge job) drops its reference. A reader therefore never
//! sees a vanishing file, and a failed delete is counted cleanup (restart
//! recovery sweeps the orphan), never data loss.
//!
//! **Lock order.** `state` may be taken before `disk`; `policy`, `exec` and
//! `space_mark` are leaves. No I/O and no component drop happens while
//! `state` or `disk` is held. A merge job takes its `run` lock before its
//! `comps` lock and neither while calling back into the harness.

use crate::cache::BufferCache;
use crate::compaction::{
    BackgroundJob, CompactionExec, JobStep, LsmMetricsHub, MERGE_MORSEL_ENTRIES,
};
use crate::error::{Result, StorageError};
use crate::io::FileId;
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
// Statistics
// ---------------------------------------------------------------------------

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
    /// Point lookups ([`crate::lsm::LsmTree::get`]) served.
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
#[derive(Debug, Default)]
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

// ---------------------------------------------------------------------------
// What an index kind provides
// ---------------------------------------------------------------------------

/// An index kind that rides the harness: what one immutable disk component
/// holds and how a snapshot of components merges into one.
///
/// A merge is resumable — [`open`](ComponentKind::open) once, then
/// [`step`](ComponentKind::step) until it reports exhaustion, then
/// [`finish`](ComponentKind::finish) — and touches no harness state: the
/// harness decides when each call happens, on which thread, and what becomes
/// of the result.
pub(crate) trait ComponentKind: Send + Sync + Sized + 'static {
    /// The on-disk payload of one component.
    type Disk: Send + Sync;
    /// An in-progress merge: input cursors plus the output being built.
    type Run: Send;

    /// The cache whose file manager holds this index's component files.
    fn cache(&self) -> &Arc<BufferCache>;

    /// Every file `disk` owns; all are unlinked when the component retires.
    fn files(disk: &Self::Disk) -> Vec<FileId>;

    /// Starts merging `inputs` (newest first) into a component with id `id`.
    /// `includes_oldest` says nothing older than the inputs exists, so
    /// delete markers that only mask older components may be dropped.
    fn open(
        &self,
        id: u64,
        inputs: &[Arc<Component<Self>>],
        includes_oldest: bool,
    ) -> Result<Self::Run>;

    /// Advances the merge by about `budget` entries of work; `true` once
    /// every input is exhausted.
    fn step(&self, run: &mut Self::Run, budget: usize) -> Result<bool>;

    /// Seals the merge output (not yet published).
    fn finish(&self, run: Self::Run) -> Result<Built<Self::Disk>>;
}

/// A sealed component payload — from a flush or a merge — ready to publish.
pub(crate) struct Built<D> {
    pub(crate) disk: D,
    /// The size the merge policy sees.
    pub(crate) size_bytes: u64,
    /// Entries written building it (write-amplification numerator).
    pub(crate) written: u64,
}

/// One immutable on-disk component. Shared (`Arc`) between the live list and
/// any read snapshots or in-flight merges; once marked retired, its files
/// are closed and deleted when the **last** holder drops its reference.
pub(crate) struct Component<K: ComponentKind> {
    pub(crate) id: u64,
    pub(crate) size_bytes: u64,
    pub(crate) disk: K::Disk,
    cache: Arc<BufferCache>,
    retire: AtomicBool,
    retire_failures: Arc<AtomicU64>,
    hub: Arc<LsmMetricsHub>,
}

impl<K: ComponentKind> Drop for Component<K> {
    fn drop(&mut self) {
        if !self.retire.load(Ordering::Acquire) {
            return;
        }
        for file in K::files(&self.disk) {
            self.cache.close_file(file);
            if self.cache.manager().delete(file).is_err() {
                // Non-fatal cleanup failure: the merged data is already
                // published; the orphaned file is reclaimed by restart
                // recovery's component sweep.
                self.retire_failures.fetch_add(1, Ordering::Relaxed);
                self.hub.count_retire_failure();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The compaction slot
// ---------------------------------------------------------------------------

/// Where a tree's (single) compaction slot currently is. Exactly one merge
/// is in flight per tree; flushes and reads never wait on it.
enum CompactionState {
    /// No merge in flight.
    Idle,
    /// A merge over the components with these ids is running.
    Merging { ids: Vec<u64>, cancel: Arc<AtomicBool> },
    /// The merged component is published; input files are being retired.
    Retiring,
}

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

/// The lifecycle state of one LSM index, shared between its handle and its
/// background merge jobs. See the module docs for the invariants.
pub(crate) struct Harness<K: ComponentKind> {
    kind: K,
    /// The active policy; starts as the configured one.
    policy: Mutex<MergePolicy>,
    /// Disk components, newest first.
    disk: Mutex<Vec<Arc<Component<K>>>>,
    state: Mutex<CompactionState>,
    state_changed: Condvar,
    next_component_id: AtomicU64,
    stats: SharedStats,
    exec: Mutex<Option<CompactionExec>>,
    /// Whether this tree currently contributes to the hub's in-flight gauge.
    inflight: AtomicBool,
    /// (total bytes, live bytes) last reported to the hub's space counters.
    space_mark: Mutex<(u64, u64)>,
    hub: Arc<LsmMetricsHub>,
}

impl<K: ComponentKind> Harness<K> {
    /// An empty index of `kind`. Amplification counters feed the node-wide
    /// hub reachable through the cache's [`crate::IoStats`].
    pub(crate) fn new(kind: K, policy: MergePolicy) -> Arc<Self> {
        let hub = Arc::clone(kind.cache().stats().lsm());
        Arc::new(Harness {
            kind,
            policy: Mutex::new(policy),
            disk: Mutex::new(Vec::new()),
            state: Mutex::new(CompactionState::Idle),
            state_changed: Condvar::new(),
            next_component_id: AtomicU64::new(1),
            stats: SharedStats::default(),
            exec: Mutex::new(None),
            inflight: AtomicBool::new(false),
            space_mark: Mutex::new((0, 0)),
            hub,
        })
    }

    pub(crate) fn kind(&self) -> &K {
        &self.kind
    }

    /// Lifetime statistics.
    pub(crate) fn stats(&self) -> LsmStats {
        let s = &self.stats;
        LsmStats {
            flushes: s.flushes.load(Ordering::Relaxed),
            merges: s.merges.load(Ordering::Relaxed),
            merges_aborted: s.merges_aborted.load(Ordering::Relaxed),
            entries_written: s.entries_written.load(Ordering::Relaxed),
            entries_ingested: s.entries_ingested.load(Ordering::Relaxed),
            merge_stall_ns: s.merge_stall_ns.load(Ordering::Relaxed),
            retire_failures: s.retire_failures.load(Ordering::Relaxed),
            reads: s.reads.load(Ordering::Relaxed),
            entries_visited: s.entries_visited.load(Ordering::Relaxed),
        }
    }

    /// One application write (insert, upsert or delete) entered the index.
    pub(crate) fn count_ingested(&self) {
        self.stats.entries_ingested.fetch_add(1, Ordering::Relaxed);
        self.hub.count_ingested(1);
    }

    /// One point lookup was served after probing `probes` disk components.
    pub(crate) fn count_point_read(&self, probes: u64) {
        self.stats.reads.fetch_add(1, Ordering::Relaxed);
        self.hub.count_read(probes);
    }

    /// A range read pulled `n` entries out of the components.
    pub(crate) fn count_visited(&self, n: u64) {
        self.stats.entries_visited.fetch_add(n, Ordering::Relaxed);
    }

    /// From now on scheduled merges run on `exec`, off the write path.
    pub(crate) fn set_executor(&self, exec: CompactionExec) {
        *self.exec.lock() = Some(exec);
    }

    /// Replaces the active merge policy from the next scheduling point on.
    pub(crate) fn set_merge_policy(&self, policy: MergePolicy) {
        *self.policy.lock() = policy;
    }

    /// Name of the compaction slot's current state.
    pub(crate) fn compaction_state(&self) -> &'static str {
        match *self.state.lock() {
            CompactionState::Idle => "idle",
            CompactionState::Merging { .. } => "merging",
            CompactionState::Retiring => "retiring",
        }
    }

    /// Component ids covered by the in-flight merge (empty when none runs).
    pub(crate) fn merging_range(&self) -> Vec<u64> {
        match &*self.state.lock() {
            CompactionState::Merging { ids, .. } => ids.clone(),
            _ => Vec::new(),
        }
    }

    /// Number of disk components.
    pub(crate) fn component_count(&self) -> usize {
        self.disk.lock().len()
    }

    /// Snapshot of the live component list (cheap `Arc` clones). A reader
    /// holding it sees a consistent pre- or post-merge view, and its
    /// references keep retired files alive.
    pub(crate) fn snapshot(&self) -> Vec<Arc<Component<K>>> {
        self.disk.lock().clone()
    }

    /// Allocates the id of the next component (flush or merge output).
    pub(crate) fn alloc_id(&self) -> u64 {
        self.next_component_id.fetch_add(1, Ordering::Relaxed) // xlint: ordering(component-id allocation; uniqueness only, publication via the disk-list lock)
    }

    fn component(&self, id: u64, built: Built<K::Disk>) -> Arc<Component<K>> {
        Arc::new(Component {
            id,
            size_bytes: built.size_bytes,
            disk: built.disk,
            cache: Arc::clone(self.kind.cache()),
            retire: AtomicBool::new(false),
            retire_failures: Arc::clone(&self.stats.retire_failures),
            hub: Arc::clone(&self.hub),
        })
    }

    /// Re-reports this tree's space contribution to the hub. Called with the
    /// `disk` guard held by the caller (the list must not move underneath).
    fn refresh_space(&self, disk: &[Arc<Component<K>>]) {
        let total: u64 = disk.iter().map(|c| c.size_bytes).sum();
        let live: u64 = disk.iter().map(|c| c.size_bytes).max().unwrap_or(0);
        let mut mark = self.space_mark.lock();
        self.hub.adjust_space(total as i64 - mark.0 as i64, live as i64 - mark.1 as i64);
        *mark = (total, live);
    }

    /// Runs `work` on the write path and charges its wall time as merge stall.
    fn stalled(&self, work: impl FnOnce() -> Result<()>) -> Result<()> {
        let start = Instant::now();
        let result = work();
        let stall = start.elapsed().as_nanos() as u64;
        self.stats.merge_stall_ns.fetch_add(stall, Ordering::Relaxed);
        self.hub.add_stall_ns(stall);
        result
    }

    /// Publishes a flushed memory component as the newest disk component,
    /// then *schedules* merging: with an executor installed the write path
    /// pays only the scheduling cost; without one the merge runs inline.
    pub(crate) fn publish_flush(self: &Arc<Self>, id: u64, built: Built<K::Disk>) -> Result<()> {
        let written = built.written;
        let comp = self.component(id, built);
        {
            let mut disk = self.disk.lock();
            disk.insert(0, comp);
            self.refresh_space(&disk);
        }
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.stats.entries_written.fetch_add(written, Ordering::Relaxed);
        self.hub.count_written(written);
        self.stalled(|| self.schedule_merge())
    }

    /// Merges the `n` newest disk components into one, inline on this
    /// thread (waits for any background merge to drain first).
    pub(crate) fn merge_newest(self: &Arc<Self>, n: usize) -> Result<()> {
        if !self.wait_idle_until(Instant::now() + Duration::from_secs(60)) {
            return Err(StorageError::Invalid(
                "merge_newest timed out waiting for the in-flight merge".into(),
            ));
        }
        let Some(job) = self.claim(|_| Some(n), false) else { return Ok(()) };
        self.stalled(|| job.run_inline())
    }

    /// The active policy's pick over the current list.
    fn policy_pick(&self, disk: &[Arc<Component<K>>]) -> Option<usize> {
        let sizes: Vec<u64> = disk.iter().map(|c| c.size_bytes).collect();
        self.policy.lock().pick_merge(&sizes)
    }

    /// The one `idle → merging` transition: if the slot is free and `pick`
    /// names at least two of the newest components, claims the slot for
    /// them and returns the job that will merge them.
    fn claim(
        self: &Arc<Self>,
        pick: impl FnOnce(&[Arc<Component<K>>]) -> Option<usize>,
        cascade: bool,
    ) -> Option<MergeJob<K>> {
        let mut st = self.state.lock(); // xlint: lock(lsm_state)
        if !matches!(*st, CompactionState::Idle) {
            return None; // one merge in flight per tree
        }
        let disk = self.disk.lock(); // xlint: lock(lsm_disk)
        let n = pick(&disk)?.min(disk.len());
        if n < 2 {
            return None;
        }
        let comps = disk[..n].to_vec();
        let includes_oldest = n == disk.len();
        drop(disk);
        let cancel = Arc::new(AtomicBool::new(false));
        *st = CompactionState::Merging {
            ids: comps.iter().map(|c| c.id).collect(),
            cancel: Arc::clone(&cancel),
        };
        if !self.inflight.swap(true, Ordering::AcqRel) {
            self.hub.merge_started();
        }
        Some(MergeJob {
            shared: Arc::clone(self),
            comps: Mutex::new(comps),
            includes_oldest,
            cancel,
            cascade,
            run: Mutex::new(None),
        })
    }

    /// Runs the policy and, when it fires, either submits the job to the
    /// installed executor or drives it inline. Inline mode loops until the
    /// policy is satisfied (the cascade); background jobs cascade by
    /// re-invoking this on completion.
    fn schedule_merge(self: &Arc<Self>) -> Result<()> {
        loop {
            let exec = self.exec.lock().clone();
            let Some(job) = self.claim(|disk| self.policy_pick(disk), exec.is_some()) else {
                return Ok(());
            };
            match exec {
                Some(e) => {
                    e.offload(Arc::new(job));
                    return Ok(());
                }
                None => job.run_inline()?,
            }
        }
    }

    /// Atomically swaps the merged component in for its inputs, then retires
    /// the inputs (publish-before-retire, see the module docs).
    fn complete_merge(
        self: &Arc<Self>,
        inputs: Vec<Arc<Component<K>>>,
        id: u64,
        built: Built<K::Disk>,
        cascade: bool,
    ) {
        let written = built.written;
        let new_comp = self.component(id, built);
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
        *self.state.lock() = CompactionState::Retiring;
        for comp in &inputs {
            comp.retire.store(true, Ordering::Release);
        }
        // The input files unlink here unless a read snapshot still holds
        // them; a failed delete is counted, never propagated.
        drop(inputs);
        self.stats.merges.fetch_add(1, Ordering::Relaxed);
        self.stats.entries_written.fetch_add(written, Ordering::Relaxed);
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
    fn merge_aborted(&self) {
        self.stats.merges_aborted.fetch_add(1, Ordering::Relaxed);
        self.to_idle();
    }

    fn to_idle(&self) {
        {
            let mut st = self.state.lock();
            *st = CompactionState::Idle;
            self.state_changed.notify_all();
        }
        if self.inflight.swap(false, Ordering::AcqRel) {
            self.hub.merge_finished();
        }
    }

    /// Asks the in-flight merge, if any, to stop at its next morsel.
    pub(crate) fn cancel_merge(&self) {
        if let CompactionState::Merging { cancel, .. } = &*self.state.lock() {
            cancel.store(true, Ordering::Release);
        }
    }

    /// Blocks until the slot is idle or `deadline` passes. A quiesce wait for
    /// foreground callers (`merge_newest`, `wait_merges_idle`): nothing a
    /// pool worker runs may reach it.
    fn wait_idle_until(&self, deadline: Instant) -> bool {
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

    /// Blocks until no merge is in flight **and** the policy has no more
    /// work, scheduling as needed (quiesce for benches/tests). Returns
    /// `false` on timeout or if a merge aborts while waiting.
    pub(crate) fn wait_merges_idle(self: &Arc<Self>, timeout: Duration) -> bool {
        let deadline = Instant::now() + timeout;
        let aborted0 = self.stats.merges_aborted.load(Ordering::Relaxed);
        loop {
            if !self.wait_idle_until(deadline) {
                return false;
            }
            if self.stats.merges_aborted.load(Ordering::Relaxed) > aborted0 {
                return false;
            }
            if self.policy_pick(&self.disk.lock()).is_none() {
                return true;
            }
            if self.schedule_merge().is_err() {
                return false;
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The merge job
// ---------------------------------------------------------------------------

/// A claimed merge of a snapshot of components. The snapshot stays valid for
/// the job's whole lifetime because flushes only ever *prepend* newer
/// components and the slot admits one merge at a time. Advanced one morsel
/// ([`MERGE_MORSEL_ENTRIES`]) per step, so cancellation latency and
/// scheduling quanta are bounded exactly like query morsels.
struct MergeJob<K: ComponentKind> {
    shared: Arc<Harness<K>>,
    /// Input components, newest first. Taken (emptied) on completion so the
    /// swapped-out components can retire as soon as readers let go.
    comps: Mutex<Vec<Arc<Component<K>>>>,
    includes_oldest: bool,
    cancel: Arc<AtomicBool>,
    /// Background jobs cascade: on completion they re-run the policy and
    /// schedule the next merge. Foreground callers loop themselves.
    cascade: bool,
    /// The output component's id and the kind's merge state, once opened.
    run: Mutex<Option<(u64, K::Run)>>,
}

impl<K: ComponentKind> MergeJob<K> {
    /// Drives the whole merge on this thread.
    fn run_inline(&self) -> Result<()> {
        while self.advance()? == JobStep::Again {}
        Ok(())
    }

    /// One morsel of merging; errors are surfaced to foreground callers
    /// (background steps record them and finish quietly).
    fn advance(&self) -> Result<JobStep> {
        self.try_advance().inspect_err(|_| self.shared.merge_aborted())
    }

    fn try_advance(&self) -> Result<JobStep> {
        let kind = &self.shared.kind;
        if self.cancel.load(Ordering::Acquire) {
            self.run.lock().take();
            self.shared.merge_aborted();
            return Ok(JobStep::Done);
        }
        let mut run = self.run.lock(); // xlint: lock(lsm_merge_run)
        if run.is_none() {
            let comps = self.comps.lock().clone(); // xlint: lock(lsm_merge_inputs)
            let id = self.shared.alloc_id();
            *run = Some((id, kind.open(id, &comps, self.includes_oldest)?));
        }
        let Some((_, active)) = run.as_mut() else { return Ok(JobStep::Done) };
        if !kind.step(active, MERGE_MORSEL_ENTRIES)? {
            return Ok(JobStep::Again);
        }
        let Some((id, finished)) = run.take() else { return Ok(JobStep::Done) };
        drop(run);
        let built = kind.finish(finished)?;
        let comps = std::mem::take(&mut *self.comps.lock()); // xlint: lock(lsm_merge_inputs)
        self.shared.complete_merge(comps, id, built, self.cascade);
        Ok(JobStep::Done)
    }
}

impl<K: ComponentKind> BackgroundJob for MergeJob<K> {
    fn step(&self) -> JobStep {
        // Background execution swallows the error after recording it in the
        // tree's failure counters: a failed merge leaves the pre-merge
        // component list untouched and the tree fully serviceable.
        self.advance().unwrap_or(JobStep::Done)
    }

    fn cancel(&self) {
        self.cancel.store(true, Ordering::Release);
    }
}

#[cfg(test)]
mod tests {
    //! The lifecycle contract, stated once and run for every index kind.

    use super::*;
    use crate::compaction::BackgroundExecutor;
    use crate::faults::{FaultConfig, FaultInjector};
    use crate::io::FileManager;
    use crate::lsm::{LsmConfig, LsmTree};
    use crate::lsm_rtree::{LsmRTree, LsmRTreeConfig};
    use crate::stats::IoStats;
    use crate::testutil::TempDir;
    use asterix_adm::binary::encode_key;
    use asterix_adm::{Point, Rectangle, Value};

    /// What the contract needs from an index riding the harness: entries
    /// numbered by `i`, shaped into components by hand.
    trait Subject {
        type Kind: ComponentKind;
        /// An index that never flushes on its own.
        fn new(cache: Arc<BufferCache>, policy: MergePolicy) -> Self;
        fn harness(&self) -> &Arc<Harness<Self::Kind>>;
        fn put(&mut self, i: u64);
        fn delete(&mut self, i: u64);
        fn flush(&mut self);
        fn live(&self) -> usize;
    }

    impl Subject for LsmTree {
        type Kind = crate::lsm::BTreeKind;
        fn new(cache: Arc<BufferCache>, policy: MergePolicy) -> Self {
            let config = LsmConfig { mem_budget: 1 << 30, merge_policy: policy, ..LsmConfig::new("t") };
            LsmTree::new(cache, config)
        }
        fn harness(&self) -> &Arc<Harness<Self::Kind>> {
            &self.shared
        }
        fn put(&mut self, i: u64) {
            self.upsert(encode_key(&[Value::Int(i as i64)]), vec![b'x'; 64]).unwrap();
        }
        fn delete(&mut self, i: u64) {
            LsmTree::delete(self, encode_key(&[Value::Int(i as i64)])).unwrap();
        }
        fn flush(&mut self) {
            LsmTree::flush(self).unwrap();
        }
        fn live(&self) -> usize {
            self.count().unwrap()
        }
    }

    fn point(i: u64) -> Rectangle {
        Point::new(i as f64, 0.0).to_mbr()
    }

    impl Subject for LsmRTree {
        type Kind = crate::lsm_rtree::RTreeKind;
        fn new(cache: Arc<BufferCache>, policy: MergePolicy) -> Self {
            let config =
                LsmRTreeConfig { mem_budget: 1 << 30, merge_policy: policy, ..LsmRTreeConfig::new("s") };
            LsmRTree::new(cache, config)
        }
        fn harness(&self) -> &Arc<Harness<Self::Kind>> {
            &self.shared
        }
        fn put(&mut self, i: u64) {
            self.insert(point(i), format!("k{i}").into_bytes()).unwrap();
        }
        fn delete(&mut self, i: u64) {
            LsmRTree::delete(self, &point(i), format!("k{i}").as_bytes()).unwrap();
        }
        fn flush(&mut self) {
            LsmRTree::flush(self).unwrap();
        }
        fn live(&self) -> usize {
            self.count().unwrap()
        }
    }

    fn setup(faults: Option<FaultConfig>) -> (Arc<BufferCache>, TempDir) {
        let dir = TempDir::new();
        let injector = faults.map(FaultInjector::new);
        let fm = FileManager::with_faults(dir.path(), IoStats::new(), injector).unwrap();
        (BufferCache::new(fm, 256), dir)
    }

    /// One component holding entries `range`.
    fn component<S: Subject>(t: &mut S, range: std::ops::Range<u64>) {
        for i in range {
            t.put(i);
        }
        t.flush();
    }

    /// Names of the files the live components own.
    fn live_files<S: Subject>(t: &S, cache: &BufferCache) -> Vec<String> {
        let ids: Vec<FileId> =
            t.harness().snapshot().iter().flat_map(|c| S::Kind::files(&c.disk)).collect();
        let open = cache.manager().open_files();
        open.into_iter().filter(|(_, id)| ids.contains(id)).map(|(name, _)| name).collect()
    }

    /// Publish-before-retire: old components used to be deleted *before* the
    /// merged one was inserted, so a failed delete un-published the merged
    /// entries. Now every retirement delete may fail and nothing is lost.
    fn retirement_delete_failure_never_loses_merged_data<S: Subject>() {
        let (cache, _d) =
            setup(Some(FaultConfig { seed: 9, delete_fail_prob: 1.0, ..FaultConfig::default() }));
        let mut t = S::new(cache.clone(), MergePolicy::NoMerge);
        component(&mut t, 0..500);
        for i in 0..100 {
            t.delete(i);
        }
        component(&mut t, 500..1_000);
        assert_eq!(t.harness().component_count(), 2);
        let files = live_files(&t, &cache).len() as u64;
        t.harness().merge_newest(2).expect("retirement failures are non-fatal");
        assert_eq!(t.harness().component_count(), 1, "merged component is live");
        assert_eq!(t.live(), 900, "no entry lost, deletes applied");
        assert_eq!(t.harness().stats().retire_failures, files, "one failure per input file");
        assert_eq!(cache.stats().lsm().retire_failures(), files);
    }

    /// Executor that parks jobs for the test to drive by hand.
    #[derive(Default)]
    struct ParkedExecutor(Mutex<Vec<Arc<dyn BackgroundJob>>>);

    impl BackgroundExecutor for ParkedExecutor {
        fn offload(&self, job: Arc<dyn BackgroundJob>) {
            self.0.lock().push(job);
        }
    }

    fn reads_and_flushes_proceed_while_merging_and_cancel_aborts_cleanly<S: Subject>() {
        let (cache, _d) = setup(None);
        let mut t = S::new(cache.clone(), MergePolicy::NoMerge);
        component(&mut t, 0..600);
        component(&mut t, 600..1_200);
        let parked = Arc::new(ParkedExecutor::default());
        t.harness().set_executor(CompactionExec::new(parked.clone()));
        t.harness().set_merge_policy(MergePolicy::Constant { max_components: 1 });
        // this flush schedules (but does not run) the merge
        component(&mut t, 1_200..1_201);
        assert_eq!(t.harness().compaction_state(), "merging");
        assert_eq!(t.harness().merging_range().len(), 3, "all three components in range");
        assert_eq!(cache.stats().lsm().merge_inflight(), 1);
        let job = parked.0.lock().pop().expect("merge scheduled");
        // reads and flushes still serve against the pre-merge list
        assert_eq!(t.live(), 1_201);
        let before = t.harness().component_count();
        component(&mut t, 1_201..1_202);
        assert_eq!(t.harness().component_count(), before + 1, "flush during merge");
        // partial progress, then cancellation
        assert_eq!(job.step(), JobStep::Again, "one morsel merged");
        job.cancel();
        assert_eq!(job.step(), JobStep::Done, "cancel honored at morsel edge");
        assert_eq!(t.harness().compaction_state(), "idle");
        assert_eq!(cache.stats().lsm().merge_inflight(), 0);
        assert_eq!(t.harness().stats().merges, 0);
        assert_eq!(t.harness().stats().merges_aborted, 1);
        assert_eq!(t.harness().component_count(), before + 1, "list untouched by abort");
        assert_eq!(t.live(), 1_202);
    }

    /// One flush used to run the policy exactly once, so a backlog built
    /// under one policy never converged after a switch. Build geometric
    /// components under NoMerge, switch to Tiered, and one more flush must
    /// cascade all the way down.
    fn merge_cascade_converges_after_policy_switch<S: Subject>() {
        let (cache, _d) = setup(None);
        let mut t = S::new(cache, MergePolicy::NoMerge);
        component(&mut t, 0..4_000);
        component(&mut t, 4_000..6_000);
        component(&mut t, 6_000..7_000);
        assert_eq!(t.harness().component_count(), 3);
        assert_eq!(t.harness().stats().merges, 0);
        t.harness().set_merge_policy(MergePolicy::Tiered { size_ratio: 2 });
        component(&mut t, 7_000..8_000);
        assert_eq!(t.harness().component_count(), 1, "cascade converged in one flush");
        assert!(t.harness().stats().merges >= 2, "required more than one policy pick");
        assert_eq!(t.live(), 8_000);
    }

    /// A reader's snapshot keeps merged-away files on disk until it drops.
    fn snapshot_keeps_merged_away_files_until_dropped<S: Subject>() {
        let (cache, dir) = setup(None);
        let mut t = S::new(cache.clone(), MergePolicy::NoMerge);
        component(&mut t, 0..100);
        for i in 0..10 {
            t.delete(i);
        }
        component(&mut t, 100..200);
        let inputs = live_files(&t, &cache);
        assert!(inputs.len() >= 2);
        let on_disk = |name: &String| dir.path().join(name).exists();
        let snapshot = t.harness().snapshot();
        t.harness().merge_newest(2).unwrap();
        assert_eq!(t.harness().component_count(), 1);
        assert!(inputs.iter().all(on_disk), "inputs outlive the merge while a reader holds them");
        drop(snapshot);
        assert!(!inputs.iter().any(on_disk), "last reader gone: inputs unlinked");
        assert_eq!(t.harness().stats().retire_failures, 0);
        assert_eq!(t.live(), 190);
    }

    macro_rules! lifecycle_contract {
        ($kind:ident, $subject:ty) => {
            mod $kind {
                use super::*;

                #[test]
                fn retirement_delete_failure_never_loses_merged_data() {
                    super::retirement_delete_failure_never_loses_merged_data::<$subject>();
                }

                #[test]
                fn reads_and_flushes_proceed_while_merging_and_cancel_aborts_cleanly() {
                    super::reads_and_flushes_proceed_while_merging_and_cancel_aborts_cleanly::<$subject>();
                }

                #[test]
                fn merge_cascade_converges_after_policy_switch() {
                    super::merge_cascade_converges_after_policy_switch::<$subject>();
                }

                #[test]
                fn snapshot_keeps_merged_away_files_until_dropped() {
                    super::snapshot_keeps_merged_away_files_until_dropped::<$subject>();
                }
            }
        };
    }

    lifecycle_contract!(btree, LsmTree);
    lifecycle_contract!(rtree, LsmRTree);
}
