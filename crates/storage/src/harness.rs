//! The LSM index, written once (paper §III item 5, §V-B: one framework
//! "LSM-ifies" B+ trees, R-trees and inverted indexes alike).
//!
//! [`Lsm<K>`] is the handle of an LSM index of kind `K` and the one place its
//! lifecycle surface is written down. It is made of two halves. The memory
//! side ([`MemSlots`]) is the active memory component and at most one sealed
//! one, with what was logged for each: when a memory component is sealed and
//! when a sealed one may be flushed. The disk side ([`Harness`], shared with
//! the index's merge jobs) is everything that does not depend on what is
//! *inside* a component: the live component list and the manifest that makes
//! it durable, component ids, the merge policy, the compaction slot (`idle →
//! merging → retiring → idle`), publishing a flushed or merged component,
//! retiring merged-away inputs, cascading, cancellation, quiescing, and the
//! per-tree and node-wide counters.
//!
//! An index kind plugs in through [`ComponentKind`]: its memory component
//! and how to bulk-load one into a disk component, what a disk component
//! holds, which files it owns, how to reopen it from them, and a resumable
//! merge over a snapshot of components. Beside that it writes only its typed
//! reads and writes, as inherent methods of `Lsm<ItsKind>`:
//! [`crate::lsm::LsmTree`] (and over it [`crate::inverted::InvertedIndex`])
//! and [`crate::lsm_rtree::LsmRTree`] are the kinds. Everything is statically
//! dispatched, so a read costs a list snapshot and nothing else;
//! [`LsmIndex`] is the same surface for an owner of indexes of several kinds.
//!
//! A flush publishes its component and *schedules* a merge: claims the slot
//! and hands the job to the index's [`crate::compaction::BackgroundExecutor`],
//! which advances it one morsel per step — off the write path when the owner
//! installed one (the runtime's worker pool), to completion on the flushing
//! thread with the one a bare index starts with. Reads and flushes proceed
//! against the pre-merge list until the merged one swaps in. A merge reads
//! its inputs outside the buffer cache ([`crate::io::PageStream`]) and leaves
//! the cache as it found it.
//!
//! **Durability.** The disk component is the durable unit. `<name>.manifest`
//! lists the live components newest first — id, size, files, the LSN range
//! each covers — and the LSN below which every logged operation of this
//! index is in one of them. It is replaced atomically
//! ([`crate::io::write_atomic`]) when a flush or a merge publishes, *before*
//! the in-memory list changes, so what a restart loads is always a list
//! that was live. Files no manifest names are garbage ([`sweep_unreferenced`]).
//!
//! **No-steal.** A memory component is never flushed while a transaction
//! that wrote into it is open: past its budget it is *sealed* (later writes
//! go to a fresh one, reads see both) and flushed when its last writer has
//! committed or aborted. A durable component therefore holds only what
//! finished transactions wrote.
//!
//! **Retirement invariant.** The merged component is inserted into the live
//! list *before* any input file may be deleted, and input files are unlinked
//! lazily — when the last holder of the component (the list, a read
//! snapshot, the merge job) drops its reference. A reader therefore never
//! sees a vanishing file, and a failed delete is counted cleanup (the next
//! open sweeps the orphan), never data loss.
//!
//! **Lock order.** `manifest` before `state` before `disk`; `exec` and
//! `space_mark` are leaves. The only I/O under a lock is the manifest
//! write under `manifest`, which exists to serialize exactly that; no
//! component drop happens while `state` or `disk` is held. A merge job takes
//! its `run` lock before its `comps` lock and neither while calling back
//! into the harness.

use crate::cache::BufferCache;
use crate::compaction::{
    BackgroundJob, CompactionExec, JobStep, LsmMetricsHub, MERGE_MORSEL_ENTRIES,
};
use crate::error::{Result, StorageError};
use crate::io::FileId;
use crate::le::{fnv1a, Cursor, Format};
use crate::lock_order::{Condvar, Level, Mutex};
use crate::wal::Lsn;
use std::collections::BTreeSet;
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

// ---------------------------------------------------------------------------
// Merge policies
// ---------------------------------------------------------------------------

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
        }
    }
}

// ---------------------------------------------------------------------------
// Statistics
// ---------------------------------------------------------------------------

/// Lifetime counters for an LSM index.
#[derive(Debug, Default, Clone, Copy)]
pub struct LsmStats {
    /// Memory components sealed: every flush starts as one, and a seal whose
    /// writers are still open is a flush yet to come.
    pub seals: u64,
    pub flushes: u64,
    pub merges: u64,
    /// Merges that were cancelled or failed; the pre-merge component list
    /// stays live, so an abort costs wasted work, never correctness.
    pub merges_aborted: u64,
    /// Entries written to disk across flushes and merges (write-amp numerator).
    pub entries_written: u64,
    /// Entries ingested by the application (write-amp denominator).
    pub entries_ingested: u64,
    /// Write-path time spent inside flush-triggered merge scheduling (the
    /// whole merge, when the index's executor runs it on the caller), in
    /// nanoseconds.
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
    seals: AtomicU64,
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

/// An index kind that rides the harness: its memory component and how one is
/// bulk-loaded into a disk component, what an immutable disk component holds
/// and how a snapshot of components merges into one.
///
/// A merge is resumable — [`open`](ComponentKind::open) once, then
/// [`step`](ComponentKind::step) until it reports exhaustion, then
/// [`finish`](ComponentKind::finish) — and touches no harness state: the
/// harness decides when each call happens, on which thread, and what becomes
/// of the result. Public only because [`Lsm`] names it: the module is not.
pub trait ComponentKind: Send + Sync + Sized + 'static {
    /// How an index of this kind is configured.
    type Config;
    /// The memory component.
    type Mem: MemBuf;
    /// The on-disk payload of one component.
    type Disk: Send + Sync;
    /// An in-progress merge: input cursors plus the output being built.
    type Run: Send;

    /// The kind of an index configured by `config`, its files under `cache`.
    fn new(cache: Arc<BufferCache>, config: Self::Config) -> Self;

    /// The cache whose file manager holds this index's component files.
    fn cache(&self) -> &Arc<BufferCache>;

    /// The index's name: the prefix of its component files and of its
    /// manifest, unique within the cache's directory.
    fn name(&self) -> &str;

    /// Bytes a memory component may hold before it is sealed.
    fn mem_budget(&self) -> usize;

    /// The merge policy the index is configured with.
    fn merge_policy(&self) -> MergePolicy;

    /// Bulk-loads memory component `mem` into the files of component `id`.
    fn flush(&self, id: u64, mem: &Self::Mem) -> Result<Built<Self::Disk>>;

    /// Every file `disk` owns; all are unlinked when the component retires.
    fn files(disk: &Self::Disk) -> Vec<FileId>;

    /// Reopens a component from the files [`files`](ComponentKind::files)
    /// listed for it, in that order.
    fn reopen(&self, files: &[FileId]) -> Result<Self::Disk>;

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
pub struct Built<D> {
    pub(crate) disk: D,
    /// The size the merge policy sees.
    pub(crate) size_bytes: u64,
    /// Entries written building it (write-amplification numerator).
    pub(crate) written: u64,
}

/// One immutable on-disk component. Shared (`Arc`) between the live list and
/// any read snapshots or in-flight merges; once marked retired, its files
/// are closed and deleted when the **last** holder drops its reference.
pub struct Component<K: ComponentKind> {
    pub(crate) id: u64,
    pub(crate) size_bytes: u64,
    /// The log records whose effects it holds: first LSN, and the LSN below
    /// which all of them lie (`(0, 0)` for an index nobody logs for).
    lsns: (Lsn, Lsn),
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
                // published; no manifest names the orphaned file, so the
                // next open sweeps it.
                self.retire_failures.fetch_add(1, Ordering::Relaxed);
                self.hub.count_retire_failure();
            }
        }
    }
}

// ---------------------------------------------------------------------------
// The manifest
// ---------------------------------------------------------------------------

/// The manifest's header (see [`crate::le`]).
pub(crate) const FORMAT: Format = Format { kind: "manifest", headers: &[b"AXM2"] };
const MANIFEST_SUFFIX: &str = ".manifest";

fn manifest_path(dir: &Path, index: &str) -> std::path::PathBuf {
    dir.join(format!("{index}{MANIFEST_SUFFIX}"))
}

/// One live component as the manifest records it.
struct ManifestEntry {
    id: u64,
    size_bytes: u64,
    lsns: (Lsn, Lsn),
    files: Vec<String>,
}

/// The durable component list of one index, newest first, and the LSN below
/// which every logged operation of the index is in one of the components.
///
/// Layout (little-endian): header, `flushed_below`, component count, then per
/// component `id, size_bytes, first_lsn, below_lsn, file count, (len, name)*`,
/// closed by an FNV-1a checksum of all of it.
#[derive(Default)]
struct Manifest {
    flushed_below: Lsn,
    components: Vec<ManifestEntry>,
}

impl Manifest {
    fn encode(&self) -> Vec<u8> {
        let mut out = Vec::with_capacity(64 + 64 * self.components.len());
        out.extend_from_slice(FORMAT.headers[0]);
        out.extend_from_slice(&self.flushed_below.to_le_bytes());
        out.extend_from_slice(&(self.components.len() as u32).to_le_bytes());
        for c in &self.components {
            for v in [c.id, c.size_bytes, c.lsns.0, c.lsns.1] {
                out.extend_from_slice(&v.to_le_bytes());
            }
            out.extend_from_slice(&(c.files.len() as u32).to_le_bytes());
            for f in &c.files {
                out.extend_from_slice(&(f.len() as u32).to_le_bytes());
                out.extend_from_slice(f.as_bytes());
            }
        }
        let crc = fnv1a(&out);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    fn decode(buf: &[u8]) -> Result<Manifest> {
        let (body, crc) = buf.split_at(buf.len().saturating_sub(4));
        let mut c = Cursor::new(body);
        c.header(&FORMAT)?;
        if Cursor::new(crc).u32()? != fnv1a(body) {
            return Err(StorageError::Corrupt("manifest: checksum does not hold".into()));
        }
        let flushed_below = c.u64()?;
        let count = c.u32()?;
        // grown by what the buffer actually holds, never by a stored count
        let mut components = Vec::new();
        for _ in 0..count {
            let (id, size_bytes, lsns) = (c.u64()?, c.u64()?, (c.u64()?, c.u64()?));
            let mut files = Vec::new();
            for _ in 0..c.u32()? {
                files.push(c.str()?.to_owned());
            }
            components.push(ManifestEntry { id, size_bytes, lsns, files });
        }
        Ok(Manifest { flushed_below, components })
    }

    /// The manifest of index `name` under `dir`; `None` when it has none.
    fn from_disk(dir: &Path, name: &str) -> Result<Option<Manifest>> {
        match std::fs::read(manifest_path(dir, name)) {
            Ok(bytes) => Manifest::decode(&bytes).map(Some),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(e.into()),
        }
    }
}

/// Names of the indexes that have a manifest under `dir`.
pub fn manifest_names(dir: &Path) -> Result<Vec<String>> {
    let mut names = Vec::new();
    for entry in std::fs::read_dir(dir)? {
        let file = entry?.file_name();
        names.extend(file.to_str().and_then(|f| f.strip_suffix(MANIFEST_SUFFIX)).map(str::to_owned));
    }
    names.sort_unstable();
    Ok(names)
}

/// Deletes what a crash can strand under `dir`: component files that no
/// manifest names (a flush or merge cut short, merge inputs not yet
/// retired) and temporaries of an atomic write that never renamed.
pub fn sweep_unreferenced(dir: &Path) -> Result<()> {
    let mut live = BTreeSet::new();
    for name in manifest_names(dir)? {
        let manifest = Manifest::from_disk(dir, &name)?.unwrap_or_default();
        live.extend(manifest.components.into_iter().flat_map(|c| c.files));
    }
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        let name = entry.file_name();
        let Some(name) = name.to_str() else { continue };
        let garbage = COMPONENT_SUFFIXES.iter().any(|s| name.ends_with(s)) && !live.contains(name);
        if (garbage || name.ends_with(".tmp")) && entry.file_type()?.is_file() {
            crate::io::remove_file(&entry.path(), None)?;
        }
    }
    Ok(())
}

/// Removes the manifest of index `name` under `dir` and the files it names:
/// what is left of an index whose drop a crash interrupted.
pub fn remove_index_files(dir: &Path, name: &str) -> Result<()> {
    let manifest = Manifest::from_disk(dir, name)?.unwrap_or_default();
    crate::io::remove_file(&manifest_path(dir, name), None)?;
    for file in manifest.components.iter().flat_map(|c| &c.files) {
        crate::io::remove_file(&dir.join(file), None)?;
    }
    Ok(())
}

/// File suffixes of LSM component files, across every index kind.
const COMPONENT_SUFFIXES: [&str; 3] = [".btree", ".rtree", ".delkeys"];

// ---------------------------------------------------------------------------
// The compaction slot
// ---------------------------------------------------------------------------

/// Where a tree's (single) compaction slot currently is. Exactly one merge
/// is in flight per tree; flushes and reads never wait on it.
enum CompactionState {
    /// No merge in flight.
    Idle,
    /// A merge is running; setting `cancel` stops it at its next morsel.
    Merging { cancel: Arc<AtomicBool> },
    /// The merged component is published; input files are being retired.
    Retiring,
}

// ---------------------------------------------------------------------------
// The harness
// ---------------------------------------------------------------------------

/// The disk side of one LSM index, shared between its handle and its
/// background merge jobs. See the module docs for the invariants.
pub(crate) struct Harness<K: ComponentKind> {
    kind: K,
    /// The LSN below which the manifest says everything is flushed. Held
    /// across every manifest write, which makes it the publish lock: a flush
    /// and a background merge never race to replace the manifest.
    manifest: Mutex<Lsn>,
    /// Set by [`Harness::destroy`]: nothing may publish any more.
    destroyed: AtomicBool,
    /// Disk components, newest first.
    disk: Mutex<Vec<Arc<Component<K>>>>,
    state: Mutex<CompactionState>,
    state_changed: Condvar,
    next_component_id: AtomicU64,
    stats: SharedStats,
    exec: Mutex<CompactionExec>,
    /// (total bytes, live bytes) last reported to the hub's space counters.
    space_mark: Mutex<(u64, u64)>,
    hub: Arc<LsmMetricsHub>,
}

impl<K: ComponentKind> Harness<K> {
    /// An empty index of `kind`, whatever its directory holds. Amplification
    /// counters feed the node-wide hub reachable through the cache's
    /// [`crate::IoStats`].
    fn new(kind: K) -> Arc<Self> {
        let hub = Arc::clone(kind.cache().stats().lsm());
        Arc::new(Harness {
            kind,
            manifest: Mutex::ranked(Level::LsmManifest, 0),
            destroyed: AtomicBool::new(false),
            disk: Mutex::ranked(Level::LsmDisk, Vec::new()),
            state: Mutex::ranked(Level::LsmState, CompactionState::Idle),
            state_changed: Condvar::new(),
            next_component_id: AtomicU64::new(1),
            stats: SharedStats::default(),
            exec: Mutex::new(crate::compaction::on_caller()),
            space_mark: Mutex::new((0, 0)),
            hub,
        })
    }

    /// The index of `kind` as its manifest describes it: every listed
    /// component reopened from its files, component ids resumed past the
    /// highest listed. Empty when there is no manifest.
    fn reopen(kind: K) -> Result<Arc<Self>> {
        let manager = Arc::clone(kind.cache().manager());
        let manifest = Manifest::from_disk(manager.dir(), kind.name())?.unwrap_or_default();
        let harness = Harness::new(kind);
        let mut disk = Vec::with_capacity(manifest.components.len());
        let mut max_id = 0;
        for entry in manifest.components {
            let files = entry.files.iter().map(|f| manager.open(f)).collect::<Result<Vec<_>>>()?;
            let built = Built {
                disk: harness.kind.reopen(&files)?,
                size_bytes: entry.size_bytes,
                written: 0,
            };
            max_id = max_id.max(entry.id);
            disk.push(harness.component(entry.id, built, entry.lsns));
        }
        harness.next_component_id.store(max_id + 1, Ordering::Relaxed);
        *harness.manifest.lock() = manifest.flushed_below;
        harness.refresh_space(&disk);
        *harness.disk.lock() = disk;
        Ok(harness)
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

    /// Snapshot of the live component list (cheap `Arc` clones). A reader
    /// holding it sees a consistent pre- or post-merge view, and its
    /// references keep retired files alive.
    pub(crate) fn snapshot(&self) -> Vec<Arc<Component<K>>> {
        self.disk.lock().clone()
    }

    /// Allocates the id of the next component (flush or merge output).
    fn alloc_id(&self) -> u64 {
        self.next_component_id.fetch_add(1, Ordering::Relaxed) // xlint: ordering(component-id allocation; uniqueness only, publication via the disk-list lock)
    }

    fn component(&self, id: u64, built: Built<K::Disk>, lsns: (Lsn, Lsn)) -> Arc<Component<K>> {
        Arc::new(Component {
            id,
            size_bytes: built.size_bytes,
            lsns,
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
    fn stalled(&self, work: impl FnOnce()) {
        let start = Instant::now();
        work();
        let stall = start.elapsed().as_nanos() as u64;
        self.stats.merge_stall_ns.fetch_add(stall, Ordering::Relaxed);
        self.hub.add_stall_ns(stall);
    }

    /// Durably records that every logged operation below `lsn` is flushed,
    /// the component list unchanged.
    fn write_flushed_below(&self, lsn: Lsn) -> Result<()> {
        let mut flushed_below = self.manifest.lock();
        let below = (*flushed_below).max(lsn);
        self.write_manifest(below, &self.snapshot())?;
        *flushed_below = below;
        Ok(())
    }

    /// Replaces the manifest with `flushed_below` and `list`. The caller
    /// holds the `manifest` lock.
    fn write_manifest(&self, flushed_below: Lsn, list: &[Arc<Component<K>>]) -> Result<()> {
        if self.destroyed.load(Ordering::Acquire) {
            return Err(StorageError::Invalid(format!("index {} was dropped", self.kind.name())));
        }
        let manager = self.kind.cache().manager();
        let mut components = Vec::with_capacity(list.len());
        for c in list {
            let files = K::files(&c.disk).into_iter().map(|f| manager.name_of(f)).collect::<Result<_>>()?;
            components.push(ManifestEntry { id: c.id, size_bytes: c.size_bytes, lsns: c.lsns, files });
        }
        let path = manifest_path(manager.dir(), self.kind.name());
        crate::io::write_atomic(&path, &Manifest { flushed_below, components }.encode(), manager.faults())
    }

    /// Publishes `comp` in place of the `replaced` components (none for a
    /// flush): the manifest first, then the live list. On failure nothing
    /// changed but `comp`'s files, which are deleted.
    fn publish(&self, comp: Arc<Component<K>>, replaced: &[u64]) -> Result<()> {
        let mut flushed_below = self.manifest.lock();
        let mut list = self.snapshot();
        // Flushes only ever prepend, so merge inputs still sit contiguously
        // wherever the newest of them now is.
        let pos = list.iter().position(|c| replaced.contains(&c.id)).unwrap_or(0);
        list.retain(|c| !replaced.contains(&c.id));
        list.insert(pos.min(list.len()), Arc::clone(&comp));
        let below = (*flushed_below).max(comp.lsns.1);
        if let Err(e) = self.write_manifest(below, &list) {
            comp.retire.store(true, Ordering::Release);
            return Err(e);
        }
        *flushed_below = below;
        let mut disk = self.disk.lock();
        self.refresh_space(&list);
        *disk = list;
        Ok(())
    }

    /// Publishes a flushed memory component, holding the effects of log
    /// records `lsns`, as the newest disk component.
    fn publish_flush(&self, id: u64, built: Built<K::Disk>, lsns: (Lsn, Lsn)) -> Result<()> {
        let written = built.written;
        self.publish(self.component(id, built, lsns), &[])?;
        self.stats.flushes.fetch_add(1, Ordering::Relaxed);
        self.stats.entries_written.fetch_add(written, Ordering::Relaxed);
        self.hub.count_flush(written);
        Ok(())
    }

    /// The configured policy's pick over the current list.
    fn policy_pick(&self, disk: &[Arc<Component<K>>]) -> Option<usize> {
        let sizes: Vec<u64> = disk.iter().map(|c| c.size_bytes).collect();
        self.kind.merge_policy().pick_merge(&sizes)
    }

    /// The one `idle → merging` transition: if the slot is free and `pick`
    /// names at least two of the newest components, claims the slot for
    /// them and returns the job that will merge them.
    fn claim(
        self: &Arc<Self>,
        pick: impl FnOnce(&[Arc<Component<K>>]) -> Option<usize>,
    ) -> Option<MergeJob<K>> {
        let mut st = self.state.lock();
        if !matches!(*st, CompactionState::Idle) {
            return None; // one merge in flight per tree
        }
        let disk = self.disk.lock();
        let n = pick(&disk)?.min(disk.len());
        if n < 2 {
            return None;
        }
        let comps = disk[..n].to_vec();
        let includes_oldest = n == disk.len();
        drop(disk);
        let cancel = Arc::new(AtomicBool::new(false));
        *st = CompactionState::Merging { cancel: Arc::clone(&cancel) };
        self.hub.merge_started();
        Some(MergeJob {
            shared: Arc::clone(self),
            comps: Mutex::ranked(Level::LsmMergeInputs, comps),
            includes_oldest,
            cancel,
            run: Mutex::ranked(Level::LsmMergeRun, None),
        })
    }

    /// Runs the policy and, when it fires, hands the merge to the executor.
    /// A finished merge calls back here, which is the cascade: a backlog
    /// converges however many merges the policy asks for.
    fn schedule_merge(self: &Arc<Self>) {
        if let Some(job) = self.claim(|disk| self.policy_pick(disk)) {
            self.offload(job);
        }
    }

    fn offload(&self, job: MergeJob<K>) {
        let exec = self.exec.lock().clone();
        exec.offload(Arc::new(job));
    }

    /// Atomically swaps the merged component in for its inputs — manifest,
    /// then live list — and only then retires the inputs (see the module
    /// docs). A failed manifest write leaves the pre-merge list live.
    fn complete_merge(
        self: &Arc<Self>,
        inputs: Vec<Arc<Component<K>>>,
        id: u64,
        built: Built<K::Disk>,
    ) -> Result<()> {
        let written = built.written;
        let lsns = (
            inputs.iter().map(|c| c.lsns.0).min().unwrap_or(0),
            inputs.iter().map(|c| c.lsns.1).max().unwrap_or(0),
        );
        let ids: Vec<u64> = inputs.iter().map(|c| c.id).collect();
        self.publish(self.component(id, built, lsns), &ids)?;
        *self.state.lock() = CompactionState::Retiring;
        for comp in &inputs {
            comp.retire.store(true, Ordering::Release);
        }
        // The input files unlink here unless a read snapshot still holds
        // them; a failed delete is counted, never propagated.
        drop(inputs);
        self.stats.merges.fetch_add(1, Ordering::Relaxed);
        self.stats.entries_written.fetch_add(written, Ordering::Relaxed);
        self.hub.count_merge(written);
        self.to_idle();
        self.schedule_merge();
        Ok(())
    }

    /// Records an aborted/cancelled/failed merge and returns to idle. The
    /// partial output file (if any) is an orphan no manifest names; the next
    /// open sweeps it.
    fn merge_aborted(&self) {
        self.stats.merges_aborted.fetch_add(1, Ordering::Relaxed);
        self.to_idle();
    }

    /// The way back to `idle`, whichever of `merging` and `retiring` the
    /// slot is in.
    fn to_idle(&self) {
        let mut st = self.state.lock();
        if !matches!(std::mem::replace(&mut *st, CompactionState::Idle), CompactionState::Idle) {
            self.hub.merge_finished();
        }
        self.state_changed.notify_all();
    }

    /// Asks the in-flight merge, if any, to stop at its next morsel.
    fn cancel_merge(&self) {
        if let CompactionState::Merging { cancel, .. } = &*self.state.lock() {
            cancel.store(true, Ordering::Release);
        }
    }

    /// Blocks until the slot is idle or `deadline` passes. A quiesce wait for
    /// an index's owner (`merge_newest`, `wait_merges_idle`): nothing a pool
    /// worker runs may reach it.
    fn wait_idle_until(&self, deadline: Instant) -> bool {
        let mut st = self.state.lock();
        while !matches!(*st, CompactionState::Idle) {
            let Some(left) = deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())
            else {
                return false;
            };
            let waited;
            (st, waited) = self.state_changed.wait_for(st, left);
            if waited.timed_out() {
                return matches!(*st, CompactionState::Idle);
            }
        }
        true
    }

}

// ---------------------------------------------------------------------------
// The memory side
// ---------------------------------------------------------------------------

/// What the lifecycle needs to know of a kind's memory component.
pub trait MemBuf: Default {
    /// Approximate buffered bytes, to hold against the budget.
    fn bytes(&self) -> usize;
    fn is_empty(&self) -> bool;
}

/// One memory component with what was logged for it.
#[derive(Default)]
struct Slot<M> {
    mem: M,
    /// LSN of the first log record whose effect is in `mem`.
    first_lsn: Option<Lsn>,
    /// Open transactions that wrote into `mem`.
    writers: BTreeSet<u64>,
}

/// Where one memory component of an index stands in the log: what
/// [`Lsm::stamp`] put on it, the LSN below which it or an older component
/// holds every logged operation, and whether it is sealed. An index built
/// from that component's entries takes it over ([`Lsm::stamp_as`]) and is
/// then sealed and flushed in step with it.
#[derive(Debug)]
pub struct SlotStamps {
    first_lsn: Option<Lsn>,
    writers: BTreeSet<u64>,
    below: Lsn,
    sealed: bool,
}

/// A memory component that takes no more writes and waits to be flushed.
struct Sealed<M> {
    slot: Slot<M>,
    /// Every logged operation of the index below this LSN is in `slot` or
    /// in a disk component.
    below: Lsn,
    at: Instant,
}

/// The memory components of one index: the active one and at most one
/// sealed one, older than it. Writes go to the active component; reads
/// consult both, active first. [`Lsm`] decides when one is sealed and when
/// a sealed one is flushed — or, once its owner has said so
/// ([`Lsm::sealed_by_owner`]), the owner does.
#[derive(Default)]
pub(crate) struct MemSlots<M> {
    active: Slot<M>,
    sealed: Option<Sealed<M>>,
    /// Every logged operation of the index below this LSN has been applied.
    covered_below: Lsn,
    /// Sealed and flushed only when the owner asks: neither a write nor a
    /// release does either.
    by_owner: bool,
}

impl<M> MemSlots<M> {
    /// The component writes go to.
    pub(crate) fn active_mut(&mut self) -> &mut M {
        &mut self.active.mem
    }

    /// What reads consult: the active component, then the sealed one if one
    /// is waiting for its writers.
    pub(crate) fn newest_first(&self) -> impl Iterator<Item = &M> {
        std::iter::once(&self.active.mem).chain(self.sealed.as_ref().map(|s| &s.slot.mem))
    }
}

// ---------------------------------------------------------------------------
// The index handle
// ---------------------------------------------------------------------------

/// An LSM index of kind `K`: memory components, disk components and their
/// counters behind one handle. The lifecycle below is every kind's; what a
/// kind reads and writes is on `impl Lsm<ThatKind>`, beside the kind.
///
/// The owner *stamps* the index with the LSN and the transaction of the log
/// record it is about to apply (an index nobody logs for is never stamped
/// and flushes the moment it seals) and *releases* a transaction when it has
/// committed or aborted; every write and every release seals and flushes
/// whatever has become due — unless the owner seals and flushes the index
/// itself ([`Lsm::sealed_by_owner`]), as a dataset partition does all of its
/// indexes at once.
pub struct Lsm<K: ComponentKind> {
    pub(crate) shared: Arc<Harness<K>>,
    pub(crate) mem: MemSlots<K::Mem>,
}

impl<K: ComponentKind> Lsm<K> {
    /// Creates an empty index, whatever its directory holds. Amplification
    /// counters feed the node-wide hub reachable through the cache's
    /// [`crate::IoStats`].
    pub fn new(cache: Arc<BufferCache>, config: K::Config) -> Self {
        Lsm { shared: Harness::new(K::new(cache, config)), mem: MemSlots::default() }
    }

    /// Opens the index its manifest describes (an empty one when it has no
    /// manifest): the disk components a previous incarnation published.
    pub fn reopen(cache: Arc<BufferCache>, config: K::Config) -> Result<Self> {
        Ok(Lsm { shared: Harness::reopen(K::new(cache, config))?, mem: MemSlots::default() })
    }

    pub(crate) fn kind(&self) -> &K {
        &self.shared.kind
    }

    /// Everything logged for the index below `lsn` is already reflected in
    /// it (it was just built from an index that is that far).
    pub fn cover_below(&mut self, lsn: Lsn) {
        self.mem.covered_below = self.mem.covered_below.max(lsn);
    }

    /// The memory components, oldest first, with where each stands in the
    /// log: what an index built from their entries takes over.
    pub fn mem_layers(&self) -> impl Iterator<Item = (&K::Mem, SlotStamps)> {
        let stamps = |slot: &Slot<K::Mem>, below, sealed| SlotStamps {
            first_lsn: slot.first_lsn,
            writers: slot.writers.clone(),
            below,
            sealed,
        };
        let mem = &self.mem;
        let sealed = mem.sealed.as_ref().map(|s| (&s.slot.mem, stamps(&s.slot, s.below, true)));
        sealed.into_iter().chain(std::iter::once((&mem.active.mem, stamps(&mem.active, mem.covered_below, false))))
    }

    /// LSN of the oldest log record whose effect is only in memory.
    pub fn first_unflushed(&self) -> Option<Lsn> {
        let sealed = self.mem.sealed.as_ref().and_then(|s| s.slot.first_lsn);
        sealed.or(self.mem.active.first_lsn)
    }

    /// Forces what is buffered to disk as new components, which are
    /// published and handed to merge scheduling. What an open transaction
    /// wrote stays in memory until it is released.
    ///
    /// Inherent as well as [`LsmIndex::flush`], so that a caller holding a
    /// concrete tree flushes it without importing the trait.
    pub fn flush(&mut self) -> Result<()> {
        self.settle(true)
    }

    /// Flushes the sealed memory component if its writers are done, seals
    /// the active one if it is past the kind's budget (or, with `force`,
    /// holds anything no open transaction wrote), and repeats until nothing
    /// is due. A kind calls it after every write; of an index its owner
    /// seals, only `force` does anything.
    pub(crate) fn settle(&mut self, force: bool) -> Result<()> {
        if self.mem.by_owner && !force {
            return Ok(());
        }
        loop {
            self.flush_sealed()?;
            if self.has_sealed() {
                return Ok(()); // no-steal: not while a writer is open
            }
            let active = &self.mem.active;
            let due = if force { active.writers.is_empty() } else { self.over_budget() };
            if !due {
                return Ok(());
            }
            if active.mem.is_empty() {
                let covered = self.mem.covered_below;
                if covered > self.flushed_below() {
                    self.shared.write_flushed_below(covered)?;
                }
                return Ok(());
            }
            self.seal();
        }
    }

    /// Merges the `n` newest disk components into one and waits for it: for
    /// any merge in flight to drain first, then for this one, wherever the
    /// executor runs it. An aborted merge is an error.
    pub fn merge_newest(&mut self, n: usize) -> Result<()> {
        let shared = &self.shared;
        let deadline = Instant::now() + Duration::from_secs(60);
        let aborted = || shared.stats.merges_aborted.load(Ordering::Relaxed);
        if shared.wait_idle_until(deadline) {
            let before = aborted();
            let Some(job) = shared.claim(|_| Some(n)) else { return Ok(()) };
            shared.stalled(|| shared.offload(job));
            if shared.wait_idle_until(deadline) && aborted() == before {
                return Ok(());
            }
        }
        let name = shared.kind.name();
        Err(StorageError::Invalid(format!("merge_newest of {name}: a merge aborted or ran past 60 s")))
    }

    /// Blocks until no merge is in flight **and** the policy has no more
    /// work, scheduling as needed (quiesce for benches/tests). Returns
    /// `false` on timeout or if a merge aborts while waiting.
    pub fn wait_merges_idle(&self, timeout: Duration) -> bool {
        let shared = &self.shared;
        let deadline = Instant::now() + timeout;
        let aborted0 = shared.stats.merges_aborted.load(Ordering::Relaxed);
        loop {
            if !shared.wait_idle_until(deadline) {
                return false;
            }
            if shared.stats.merges_aborted.load(Ordering::Relaxed) > aborted0 {
                return false;
            }
            if shared.policy_pick(&shared.disk.lock()).is_none() {
                return true;
            }
            shared.schedule_merge();
        }
    }
}

impl<K: ComponentKind> Drop for Lsm<K> {
    fn drop(&mut self) {
        // Ask any in-flight background merge to stop at its next morsel; the
        // job holds its own reference to the shared state, so this is a
        // courtesy, not a correctness requirement.
        self.shared.cancel_merge();
    }
}

/// The lifecycle of an [`Lsm`] index of whatever kind, for an owner that
/// keeps indexes of several kinds side by side (a dataset partition); each
/// method is documented where [`Lsm`] implements it.
pub trait LsmIndex {
    fn name(&self) -> &str;
    fn stats(&self) -> LsmStats;
    fn set_executor(&self, exec: CompactionExec);
    fn component_count(&self) -> usize;
    fn stamp(&mut self, lsn: Lsn, writer: Option<u64>);
    fn stamp_as(&mut self, stamps: &SlotStamps);
    fn release(&mut self, writer: u64) -> Result<()>;
    fn must_wait(&self, writer: u64) -> bool;
    fn sealed_by_owner(&mut self);
    fn over_budget(&self) -> bool;
    fn has_sealed(&self) -> bool;
    fn seal(&mut self);
    fn flush_sealed(&mut self) -> Result<()>;
    fn flushed_below(&self) -> Lsn;
    fn mark_flushed_below(&mut self, lsn: Lsn) -> Result<()>;
    fn destroy(&self) -> Result<()>;
    fn flush(&mut self) -> Result<()>;
}

impl<K: ComponentKind> LsmIndex for Lsm<K> {
    /// The index's name: the prefix of its manifest and component files.
    fn name(&self) -> &str {
        self.shared.kind.name()
    }

    /// Lifetime statistics.
    fn stats(&self) -> LsmStats {
        let s = &self.shared.stats;
        LsmStats {
            seals: s.seals.load(Ordering::Relaxed),
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

    /// Where merges scheduled from now on run, one morsel per step: off the
    /// write path, if that is what `exec` does with a job.
    fn set_executor(&self, exec: CompactionExec) {
        *self.shared.exec.lock() = exec;
    }

    /// Number of disk components.
    fn component_count(&self) -> usize {
        self.shared.disk.lock().len()
    }

    /// The writes that follow apply the log record at `lsn`, logged by the
    /// open transaction `writer` (`None` when replaying a committed one).
    /// What `writer` wrote is not flushed before [`Lsm::release`].
    fn stamp(&mut self, lsn: Lsn, writer: Option<u64>) {
        self.mem.active.first_lsn.get_or_insert(lsn);
        self.mem.active.writers.extend(writer);
        self.cover_below(lsn + 1);
    }

    /// The active memory component now holds what another index's memory
    /// component `stamps` describes held, and stands where that one does: it
    /// is stamped alike, covers as much of the log, and is sealed if that
    /// one was. Nothing its writers wrote is flushed before they are over.
    fn stamp_as(&mut self, stamps: &SlotStamps) {
        let active = &mut self.mem.active;
        if let Some(first) = stamps.first_lsn {
            active.first_lsn = Some(active.first_lsn.map_or(first, |lsn| lsn.min(first)));
        }
        active.writers.extend(&stamps.writers);
        self.cover_below(stamps.below);
        if stamps.sealed {
            self.seal();
        }
    }

    /// Transaction `writer` has committed or aborted: flushes what was
    /// waiting for it.
    fn release(&mut self, writer: u64) -> Result<()> {
        self.mem.active.writers.remove(&writer);
        if let Some(sealed) = &mut self.mem.sealed {
            sealed.slot.writers.remove(&writer);
        }
        self.settle(false)
    }

    /// Whether a write by `writer` would grow the active memory component
    /// past its budget while a sealed one still waits for *other*
    /// transactions: waiting for them lets the sealed component flush and
    /// the active one seal, where writing on only grows memory.
    fn must_wait(&self, writer: u64) -> bool {
        self.over_budget() && self.mem.sealed.as_ref().is_some_and(|s| !s.slot.writers.contains(&writer))
    }

    /// From now on the index is sealed only by [`Lsm::seal`] and flushed
    /// only by [`Lsm::flush_sealed`] and [`Lsm::flush`]: its owner keeps it in
    /// step with other indexes, whatever its own budget says.
    fn sealed_by_owner(&mut self) {
        self.mem.by_owner = true;
    }

    /// Whether the active memory component holds more than the budget, or
    /// keeps more than the budget's worth of log from being truncated: from
    /// the first record it holds the effect of to the last (LSNs count the
    /// log's record stream, so this is the log decoded). The second bounds
    /// what a restart replays when overwrites keep what it holds small.
    fn over_budget(&self) -> bool {
        let (active, budget) = (&self.mem.active, self.shared.kind.mem_budget());
        let pinned = active.first_lsn.map_or(0, |first| self.mem.covered_below.saturating_sub(first));
        active.mem.bytes() > budget || pinned > budget as u64
    }

    /// Whether a sealed memory component waits to be flushed.
    fn has_sealed(&self) -> bool {
        self.mem.sealed.is_some()
    }

    /// Seals the active memory component, empty or not, unless a sealed one
    /// still waits. It is flushed by [`Lsm::flush_sealed`] once its writers
    /// are done.
    fn seal(&mut self) {
        let mem = &mut self.mem;
        if mem.sealed.is_none() {
            self.shared.stats.seals.fetch_add(1, Ordering::Relaxed);
            mem.sealed = Some(Sealed {
                slot: std::mem::take(&mut mem.active),
                below: mem.covered_below,
                at: Instant::now(),
            });
        }
    }

    /// Flushes the sealed memory component if one waits and no open
    /// transaction wrote into it — one that holds nothing moves the
    /// manifest's LSN alone — and hands the new component to merge
    /// scheduling.
    fn flush_sealed(&mut self) -> Result<()> {
        let shared = &self.shared;
        let Some(sealed) = self.mem.sealed.as_ref().filter(|s| s.slot.writers.is_empty()) else { return Ok(()) };
        if sealed.slot.mem.is_empty() {
            if sealed.below > self.flushed_below() {
                shared.write_flushed_below(sealed.below)?;
            }
        } else {
            let id = shared.alloc_id();
            let built = shared.kind.flush(id, &sealed.slot.mem)?;
            let first = sealed.slot.first_lsn.unwrap_or(sealed.below);
            shared.publish_flush(id, built, (first, sealed.below))?;
            shared.hub.add_flush_wait_ns(sealed.at.elapsed().as_nanos() as u64);
            // what the write path pays is up to the executor: the claim
            // and a hand-off, or the merge
            shared.stalled(|| shared.schedule_merge());
        }
        self.mem.sealed = None;
        Ok(())
    }

    /// The LSN below which every logged operation of this index is in a
    /// durable disk component.
    fn flushed_below(&self) -> Lsn {
        *self.shared.manifest.lock()
    }

    /// Durably records that every logged operation of this index below
    /// `lsn` is flushed, though no new component says so: the index was just
    /// created (the log so far is not about it), or what it buffered since
    /// its last flush left no entry.
    fn mark_flushed_below(&mut self, lsn: Lsn) -> Result<()> {
        self.cover_below(lsn);
        self.shared.write_flushed_below(lsn)
    }

    /// Drops the index from disk: an empty manifest first (so that no crash
    /// leaves one naming deleted files), then every component, then the
    /// manifest itself. The handle stays readable, as an empty index, but
    /// can publish nothing more.
    fn destroy(&self) -> Result<()> {
        let shared = &self.shared;
        shared.cancel_merge();
        let manager = shared.kind.cache().manager();
        let _publishing = shared.manifest.lock();
        shared.write_manifest(0, &[])?;
        shared.destroyed.store(true, Ordering::Release);
        let dropped = std::mem::take(&mut *shared.disk.lock());
        shared.refresh_space(&[]);
        for comp in &dropped {
            comp.retire.store(true, Ordering::Release);
        }
        drop(dropped);
        crate::io::remove_file(&manifest_path(manager.dir(), shared.kind.name()), manager.faults())
    }

    fn flush(&mut self) -> Result<()> {
        Lsm::flush(self)
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
    /// The output component's id and the kind's merge state, once opened.
    run: Mutex<Option<(u64, K::Run)>>,
}

impl<K: ComponentKind> MergeJob<K> {
    /// One morsel of merging, or the publish once the inputs are exhausted.
    fn advance(&self) -> Result<JobStep> {
        let kind = &self.shared.kind;
        if self.cancel.load(Ordering::Acquire) {
            self.run.lock().take();
            self.shared.merge_aborted();
            return Ok(JobStep::Done);
        }
        let mut run = self.run.lock();
        if run.is_none() {
            let comps = self.comps.lock().clone();
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
        let comps = std::mem::take(&mut *self.comps.lock());
        self.shared.complete_merge(comps, id, built)?;
        Ok(JobStep::Done)
    }
}

impl<K: ComponentKind> BackgroundJob for MergeJob<K> {
    /// A failed step is recorded in the tree's counters and ends the job: the
    /// pre-merge component list stays live and the tree fully serviceable.
    fn step(&self) -> JobStep {
        self.advance().unwrap_or_else(|_| {
            self.shared.merge_aborted();
            JobStep::Done
        })
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
    use crate::lsm::{BTreeKind, LsmConfig, LsmTree};
    use crate::lsm_rtree::{LsmRTree, LsmRTreeConfig, RTreeKind};
    use crate::stats::IoStats;
    use crate::testutil::TempDir;
    use asterix_adm::binary::encode_key;
    use asterix_adm::types::gleambook_types;
    use asterix_adm::{Point, RecordLayout, Rectangle, Value};
    use rand::prelude::*;

    /// What the contract cannot say of every kind at once: which kind it is,
    /// how an index of it is configured, and how to make entry `i`, delete
    /// it and count what is live.
    trait Entries {
        type Kind: ComponentKind;
        fn config(mem_budget: usize, policy: MergePolicy) -> <Self::Kind as ComponentKind>::Config;
        fn put(t: &mut Lsm<Self::Kind>, i: u64);
        fn delete(t: &mut Lsm<Self::Kind>, i: u64);
        fn live(t: &Lsm<Self::Kind>) -> usize;
    }

    fn key(i: u64) -> Vec<u8> {
        encode_key(&[Value::Int(i as i64)])
    }

    /// A B+ tree of opaque values: row leaves.
    struct Rows;

    impl Entries for Rows {
        type Kind = BTreeKind;
        fn config(mem_budget: usize, merge_policy: MergePolicy) -> LsmConfig {
            LsmConfig { mem_budget, merge_policy, ..LsmConfig::new("t") }
        }
        fn put(t: &mut LsmTree, i: u64) {
            t.upsert(key(i), vec![b'x'; 64]).unwrap();
        }
        fn delete(t: &mut LsmTree, i: u64) {
            t.delete(key(i)).unwrap();
        }
        fn live(t: &LsmTree) -> usize {
            t.count().unwrap()
        }
    }

    /// A B+ tree of records: leaf groups.
    struct Columns;

    impl Entries for Columns {
        type Kind = BTreeKind;
        fn config(mem_budget: usize, merge_policy: MergePolicy) -> LsmConfig {
            let layout = Some(Arc::new(RecordLayout::new(gleambook_types().get("GleambookMessageType").unwrap())));
            LsmConfig { mem_budget, merge_policy, layout, ..LsmConfig::new("c") }
        }
        fn put(t: &mut LsmTree, i: u64) {
            let message = Value::object(vec![
                ("messageId".into(), Value::Int(i as i64)),
                ("authorId".into(), Value::Int(i as i64 % 7)),
                ("message".into(), Value::from(crate::testutil::noise(i, 40))),
            ]);
            let row = RecordLayout::new(gleambook_types().get("GleambookMessageType").unwrap()).encode(&message).unwrap();
            t.upsert(key(i), row).unwrap();
        }
        fn delete(t: &mut LsmTree, i: u64) {
            t.delete(key(i)).unwrap();
        }
        fn live(t: &LsmTree) -> usize {
            t.scan().unwrap().len()
        }
    }

    fn point(i: u64) -> Rectangle {
        Point::new(i as f64, 0.0).to_mbr()
    }

    struct Spatial;

    impl Entries for Spatial {
        type Kind = RTreeKind;
        fn config(mem_budget: usize, merge_policy: MergePolicy) -> LsmRTreeConfig {
            LsmRTreeConfig { mem_budget, merge_policy, ..LsmRTreeConfig::new("s") }
        }
        fn put(t: &mut LsmRTree, i: u64) {
            t.insert(point(i), format!("k{i}").into_bytes()).unwrap();
        }
        fn delete(t: &mut LsmRTree, i: u64) {
            t.delete(&point(i), format!("k{i}").as_bytes()).unwrap();
        }
        fn live(t: &LsmRTree) -> usize {
            t.count().unwrap()
        }
    }

    /// An index that never flushes on its own.
    fn manual<E: Entries>(cache: Arc<BufferCache>, policy: MergePolicy) -> Lsm<E::Kind> {
        Lsm::new(cache, E::config(1 << 30, policy))
    }

    /// The same index as its manifest describes it, merging by `policy`.
    fn reopened<E: Entries>(cache: Arc<BufferCache>, policy: MergePolicy) -> Lsm<E::Kind> {
        Lsm::reopen(cache, E::config(1 << 30, policy)).unwrap()
    }

    fn setup(faults: Option<FaultConfig>) -> (Arc<BufferCache>, TempDir) {
        let dir = TempDir::new();
        let injector = faults.map(FaultInjector::new);
        let fm = FileManager::with_faults(dir.path(), IoStats::new(), injector).unwrap();
        (BufferCache::new(fm, 256), dir)
    }

    /// One component holding entries `range`.
    fn component<E: Entries>(t: &mut Lsm<E::Kind>, range: std::ops::Range<u64>) {
        for i in range {
            E::put(t, i);
        }
        t.flush().unwrap();
    }

    /// Names of the files the live components own.
    fn live_files<K: ComponentKind>(t: &Lsm<K>, cache: &BufferCache) -> Vec<String> {
        let ids: Vec<FileId> =
            t.shared.snapshot().iter().flat_map(|c| K::files(&c.disk)).collect();
        let open = cache.manager().open_files();
        open.into_iter().filter(|(_, id)| ids.contains(id)).map(|(name, _)| name).collect()
    }

    /// Publish-before-retire: old components used to be deleted *before* the
    /// merged one was inserted, so a failed delete un-published the merged
    /// entries. Now every retirement delete may fail and nothing is lost.
    fn retirement_delete_failure_never_loses_merged_data<E: Entries>() {
        let (cache, _d) =
            setup(Some(FaultConfig { seed: 9, delete_fail_prob: 1.0, ..FaultConfig::default() }));
        let mut t = manual::<E>(cache.clone(), MergePolicy::NoMerge);
        component::<E>(&mut t, 0..500);
        for i in 0..100 {
            E::delete(&mut t, i);
        }
        component::<E>(&mut t, 500..1_000);
        assert_eq!(t.component_count(), 2);
        let files = live_files(&t, &cache).len() as u64;
        t.merge_newest(2).expect("retirement failures are non-fatal");
        assert_eq!(t.component_count(), 1, "merged component is live");
        assert_eq!(E::live(&t), 900, "no entry lost, deletes applied");
        assert_eq!(t.stats().retire_failures, files, "one failure per input file");
        let node = cache.stats().registry().snapshot();
        assert_eq!(node.counter("storage.lsm.retire_failures"), Some(files));
    }

    /// Executor that parks jobs for the test to drive by hand.
    #[derive(Default)]
    struct ParkedExecutor(Mutex<Vec<Arc<dyn BackgroundJob>>>);

    impl BackgroundExecutor for ParkedExecutor {
        fn offload(&self, job: Arc<dyn BackgroundJob>) {
            self.0.lock().push(job);
        }
    }

    fn reads_and_flushes_proceed_while_merging_and_cancel_aborts_cleanly<E: Entries>() {
        let (cache, dir) = setup(None);
        let mut t = manual::<E>(cache, MergePolicy::NoMerge);
        component::<E>(&mut t, 0..600);
        component::<E>(&mut t, 600..1_200);
        drop(t);
        let cache = restarted(&dir);
        let mut t = reopened::<E>(cache.clone(), MergePolicy::Constant { max_components: 1 });
        let parked = Arc::new(ParkedExecutor::default());
        t.set_executor(parked.clone());
        let inflight = || cache.stats().registry().snapshot().gauge("storage.lsm.merge_inflight");
        assert_eq!(inflight(), Some(0), "reopening schedules nothing");
        // this flush schedules (but does not run) the merge
        component::<E>(&mut t, 1_200..1_201);
        assert_eq!(inflight(), Some(1));
        let job = parked.0.lock().pop().expect("merge scheduled");
        assert!(parked.0.lock().is_empty(), "one merge in flight");
        // reads and flushes still serve against the pre-merge list
        assert_eq!(E::live(&t), 1_201);
        let before = t.component_count();
        component::<E>(&mut t, 1_201..1_202);
        assert_eq!(t.component_count(), before + 1, "flush during merge");
        // partial progress, then cancellation
        assert_eq!(job.step(), JobStep::Again, "one morsel merged");
        job.cancel();
        assert_eq!(job.step(), JobStep::Done, "cancel honored at morsel edge");
        assert_eq!(inflight(), Some(0));
        assert_eq!(t.stats().merges, 0);
        assert_eq!(t.stats().merges_aborted, 1);
        assert_eq!(t.component_count(), before + 1, "list untouched by abort");
        assert_eq!(E::live(&t), 1_202);
    }

    /// A merge cancelled and stepped to done — how the pool ends one whose
    /// step panicked — is counted aborted and frees the slot: the next flush
    /// merges again.
    fn an_aborted_merge_leaves_the_index_free_to_merge_again<E: Entries>() {
        let (cache, _d) = setup(None);
        let mut t = manual::<E>(cache.clone(), MergePolicy::Constant { max_components: 1 });
        let parked = Arc::new(ParkedExecutor::default());
        t.set_executor(parked.clone());
        component::<E>(&mut t, 0..600);
        component::<E>(&mut t, 600..1_200);
        let job = parked.0.lock().pop().expect("merge scheduled");
        job.cancel();
        assert_eq!(job.step(), JobStep::Done);
        assert_eq!(t.stats().merges_aborted, 1);
        let inflight = || cache.stats().registry().snapshot().gauge("storage.lsm.merge_inflight");
        assert_eq!(inflight(), Some(0));
        component::<E>(&mut t, 1_200..1_800);
        let job = parked.0.lock().pop().expect("the next flush merges again");
        while job.step() == JobStep::Again {}
        assert_eq!(t.stats().merges, 1);
        assert_eq!(t.component_count(), 1);
        assert_eq!(E::live(&t), 1_800);
        assert_eq!(inflight(), Some(0));
    }

    /// A backlog built under one policy is the next one's to merge: build
    /// components under NoMerge, reopen under Constant, and one more flush
    /// must leave a single component.
    fn a_tree_reopened_under_a_stricter_policy_merges_its_backlog_on_the_next_flush<E: Entries>() {
        let (cache, dir) = setup(None);
        let mut t = manual::<E>(cache, MergePolicy::NoMerge);
        component::<E>(&mut t, 0..4_000);
        component::<E>(&mut t, 4_000..6_000);
        component::<E>(&mut t, 6_000..7_000);
        drop(t);
        let mut t = reopened::<E>(restarted(&dir), MergePolicy::Constant { max_components: 1 });
        assert_eq!(t.component_count(), 3);
        assert_eq!(t.stats().merges, 0);
        component::<E>(&mut t, 7_000..8_000);
        assert_eq!(t.component_count(), 1, "converged in one flush");
        assert_eq!(t.stats().merges, 1);
        assert_eq!(E::live(&t), 8_000);
    }

    /// A reader's snapshot keeps merged-away files on disk until it drops.
    fn snapshot_keeps_merged_away_files_until_dropped<E: Entries>() {
        let (cache, dir) = setup(None);
        let mut t = manual::<E>(cache.clone(), MergePolicy::NoMerge);
        component::<E>(&mut t, 0..100);
        for i in 0..10 {
            E::delete(&mut t, i);
        }
        component::<E>(&mut t, 100..200);
        let inputs = live_files(&t, &cache);
        assert!(inputs.len() >= 2);
        let on_disk = |name: &String| dir.path().join(name).exists();
        let snapshot = t.shared.snapshot();
        t.merge_newest(2).unwrap();
        assert_eq!(t.component_count(), 1);
        assert!(inputs.iter().all(on_disk), "inputs outlive the merge while a reader holds them");
        drop(snapshot);
        assert!(!inputs.iter().any(on_disk), "last reader gone: inputs unlinked");
        assert_eq!(t.stats().retire_failures, 0);
        assert_eq!(E::live(&t), 190);
    }

    /// A merge reads its inputs outside the buffer cache: merging components
    /// several times the cache's size moves none of its counters, and the
    /// one page that was resident — another file's — still is.
    fn merge_leaves_the_buffer_cache_as_it_found_it<E: Entries>() {
        let dir = TempDir::new();
        let fm = FileManager::new(dir.path(), IoStats::new()).unwrap();
        let cache = BufferCache::new(Arc::clone(&fm), 4);
        let mut t = manual::<E>(cache.clone(), MergePolicy::NoMerge);
        component::<E>(&mut t, 0..4_000);
        for i in 0..100 {
            E::delete(&mut t, i);
        }
        component::<E>(&mut t, 4_000..8_000);
        let hot = fm.create("hot.pf").unwrap();
        fm.append_page(hot, &vec![7u8; crate::io::PAGE_SIZE]).unwrap();
        cache.get(hot, 0).unwrap();
        let stats = cache.stats();
        let counters =
            || (stats.cache_hits(), stats.cache_misses(), stats.evictions(), stats.readaheads());
        let (before, reads) = (counters(), stats.physical_reads());
        t.merge_newest(2).unwrap();
        assert_eq!(t.stats().merges, 1);
        let read = stats.physical_reads() - reads;
        assert!(read > 4 * cache.capacity() as u64, "the merge read {read} pages");
        assert_eq!(counters(), before, "(hits, misses, evictions, readaheads) moved");
        cache.get(hot, 0).unwrap();
        assert_eq!(stats.cache_misses(), before.1, "the hot page was evicted");
        assert_eq!(E::live(&t), 7_900);
    }

    /// A second cache over the same directory: what a restart sees.
    fn restarted(dir: &TempDir) -> Arc<BufferCache> {
        sweep_unreferenced(dir.path()).unwrap();
        BufferCache::new(FileManager::new(dir.path(), IoStats::new()).unwrap(), 256)
    }

    /// Component files under `dir`.
    fn component_files(dir: &TempDir) -> Vec<String> {
        let mut names: Vec<String> = std::fs::read_dir(dir.path())
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .filter(|n| COMPONENT_SUFFIXES.iter().any(|s| n.ends_with(s)))
            .collect();
        names.sort();
        names
    }

    /// Flushed and merged components are there after a restart, under ids
    /// that go on where they stopped; what was only in memory is not.
    fn reopen_attaches_what_the_manifest_names<E: Entries>() {
        let (cache, dir) = setup(None);
        let mut t = manual::<E>(cache, MergePolicy::NoMerge);
        component::<E>(&mut t, 0..300);
        for i in 0..50 {
            E::delete(&mut t, i);
        }
        component::<E>(&mut t, 300..600);
        t.merge_newest(2).unwrap();
        component::<E>(&mut t, 600..700);
        E::put(&mut t, 9_999); // never flushed
        let (ids, files) = (
            t.shared.snapshot().iter().map(|c| c.id).collect::<Vec<_>>(),
            component_files(&dir),
        );
        drop(t);
        let t = reopened::<E>(restarted(&dir), MergePolicy::NoMerge);
        assert_eq!(t.shared.snapshot().iter().map(|c| c.id).collect::<Vec<_>>(), ids);
        assert_eq!(component_files(&dir), files, "nothing the manifest names was swept");
        assert_eq!(E::live(&t), 650);
        assert!(t.shared.alloc_id() > ids[0], "ids resume past the manifest's highest");
    }

    /// A crash at any step of publishing the manifest — for a flush or for a
    /// merge — leaves a directory that reopens to the list from before the
    /// publish or to the one after it, with no file unaccounted for.
    fn crash_inside_a_publish_reopens_to_a_list_that_was_live<E: Entries>() {
        let steps = [".manifest.tmp:write", ".manifest.tmp", ".manifest:rename", ".manifest:dirsync"];
        // publishes 0 and 1 are flushes, 2 is the merge of their components
        for (step, publish) in steps.iter().flat_map(|s| (0..3u64).map(move |p| (s, p))) {
            // the fsync's target, `.manifest.tmp`, also matches the write before it
            let nth = if *step == ".manifest.tmp" { 2 * publish + 1 } else { publish };
            let (cache, dir) = setup(Some(FaultConfig {
                seed: 5,
                crash_at_target: Some((step.to_string(), nth)),
                ..FaultConfig::default()
            }));
            let mut t = manual::<E>(cache, MergePolicy::NoMerge);
            let run = |t: &mut Lsm<E::Kind>| -> Result<()> {
                for i in 0..200 {
                    E::put(t, i);
                }
                t.flush()?;
                for i in 0..40 {
                    E::delete(t, i);
                }
                for i in 200..400 {
                    E::put(t, i);
                }
                t.flush()?;
                t.merge_newest(2)
            };
            assert!(run(&mut t).is_err(), "{step} #{publish}: the crash point must fire");
            drop(t);
            let t = reopened::<E>(restarted(&dir), MergePolicy::NoMerge);
            // the rename is what publishes: before it the old list, from it on the new
            let published = publish + u64::from(step.contains(":dirsync"));
            let want = match published {
                0 => 0,
                1 => 200,
                _ => 360,
            };
            assert_eq!(E::live(&t), want, "{step} #{publish}");
            let named: usize = t.shared.snapshot().iter().map(|c| <E::Kind>::files(&c.disk).len()).sum();
            assert_eq!(component_files(&dir).len(), named, "{step} #{publish}: an orphan survived the sweep");
        }
    }

    /// No-steal: what an open transaction wrote is sealed past the budget
    /// but not flushed, stays readable, and is flushed when it is over; a
    /// transaction that does not hold the sealed component up is told to
    /// wait rather than grow the active one.
    fn sealed_component_waits_for_its_writers<E: Entries>() {
        let (cache, _d) = setup(None);
        let mut t = Lsm::<E::Kind>::new(cache, E::config(512, MergePolicy::NoMerge));
        let mut lsn = 100;
        let mut write = |t: &mut Lsm<E::Kind>, i: u64, writer: u64| {
            t.stamp(lsn, Some(writer));
            E::put(t, i);
            lsn += 10;
        };
        for i in 0..40 {
            write(&mut t, i, 7);
        }
        let stats = t.stats();
        assert_eq!((stats.seals, stats.flushes), (1, 0), "sealed at the budget, held for txn 7");
        assert_eq!(E::live(&t), 40, "reads see the sealed and the active component");
        assert!(!t.must_wait(7), "txn 7 cannot wait for itself");
        assert!(t.must_wait(8), "txn 8 can: the active component is past its budget too");
        assert_eq!(t.flushed_below(), 0);
        t.release(7).unwrap();
        let stats = t.stats();
        assert_eq!(stats.seals, stats.flushes, "released: everything sealed is flushed");
        assert!(stats.flushes >= 2, "the overgrown active component followed");
        assert_eq!(t.flushed_below(), 100 + 39 * 10 + 1, "just past the last record applied");
        assert_eq!(E::live(&t), 40);
        // a transaction's writes that fit in the active component wait there
        write(&mut t, 40, 9);
        t.flush().unwrap();
        assert_eq!(t.stats().flushes, stats.flushes, "an explicit flush is no-steal too");
        t.release(9).unwrap();
        t.flush().unwrap();
        assert_eq!(t.stats().flushes, stats.flushes + 1);
    }

    /// An index its owner seals: no write and no release seals or flushes
    /// it, however far past its budget; [`Lsm::seal`] seals, and
    /// [`Lsm::flush_sealed`] flushes what was sealed once its writers are done
    /// — a sealed component of nothing by moving the manifest's LSN alone.
    fn an_index_its_owner_seals_waits_for_the_owner<E: Entries>() {
        let (cache, _d) = setup(None);
        let mut t = Lsm::<E::Kind>::new(cache, E::config(512, MergePolicy::NoMerge));
        t.sealed_by_owner();
        for i in 0..40 {
            t.stamp(100 + i, Some(7));
            E::put(&mut t, i);
        }
        t.release(7).unwrap();
        assert!(t.over_budget() && !t.has_sealed(), "no write seals it");
        t.stamp(200, Some(8));
        E::put(&mut t, 40);
        t.seal();
        assert!(t.has_sealed() && !t.over_budget());
        t.flush_sealed().unwrap();
        assert_eq!(t.stats().flushes, 0, "txn 8 wrote into it");
        t.release(8).unwrap();
        assert_eq!(t.stats().flushes, 0, "nor does a release flush it");
        t.flush_sealed().unwrap();
        assert_eq!((t.stats().flushes, t.flushed_below(), E::live(&t)), (1, 201, 41));
        t.cover_below(300);
        t.seal();
        t.flush_sealed().unwrap();
        let stats = t.stats();
        assert_eq!((stats.seals, stats.flushes, t.component_count(), t.flushed_below()), (2, 1, 1, 300));
    }

    /// One seeded schedule of stamped writes, releases and flushes over three
    /// transactions, with a budget every write exceeds: what the lifecycle
    /// shows after each step.
    fn no_steal_trace<E: Entries>() -> Vec<(u64, u64, Lsn, Option<Lsn>)> {
        let (cache, _d) = setup(None);
        let mut t = Lsm::<E::Kind>::new(cache, E::config(0, MergePolicy::NoMerge));
        let mut rng = SmallRng::seed_from_u64(19);
        let mut lsn = 1;
        let mut trace = Vec::new();
        for i in 0..300 {
            let writer = rng.gen_range(1..=3u64);
            match rng.gen_range(0..10) {
                0..=5 => {
                    t.stamp(lsn, Some(writer));
                    E::put(&mut t, i);
                    lsn += rng.gen_range(1..4u64);
                }
                6..=8 => t.release(writer).unwrap(),
                _ => t.flush().unwrap(),
            }
            let stats = t.stats();
            trace.push((stats.seals, stats.flushes, t.flushed_below(), t.first_unflushed()));
        }
        trace
    }

    /// No-steal is decided by the handle, not by the kind: the same schedule
    /// seals, flushes and advances the flushed LSN at the same steps.
    #[test]
    fn both_kinds_seal_and_flush_at_the_same_steps_of_one_schedule() {
        let trace = no_steal_trace::<Rows>();
        assert_eq!(trace, no_steal_trace::<Spatial>());
        let waited = trace.iter().filter(|(seals, flushes, ..)| seals > flushes).count();
        let (seals, flushes, flushed_below, _) = trace[trace.len() - 1];
        assert!(waited > 50 && flushes > 20, "{waited} steps with a sealed component held, {flushes} flushes");
        assert!(seals >= flushes && flushed_below > 1);
    }

    macro_rules! lifecycle_contract {
        ($kind:ident, $k:ty) => {
            mod $kind {
                use super::*;

                #[test]
                fn retirement_delete_failure_never_loses_merged_data() {
                    super::retirement_delete_failure_never_loses_merged_data::<$k>();
                }

                #[test]
                fn reads_and_flushes_proceed_while_merging_and_cancel_aborts_cleanly() {
                    super::reads_and_flushes_proceed_while_merging_and_cancel_aborts_cleanly::<$k>();
                }

                #[test]
                fn an_aborted_merge_leaves_the_index_free_to_merge_again() {
                    super::an_aborted_merge_leaves_the_index_free_to_merge_again::<$k>();
                }

                #[test]
                fn a_tree_reopened_under_a_stricter_policy_merges_its_backlog_on_the_next_flush() {
                    super::a_tree_reopened_under_a_stricter_policy_merges_its_backlog_on_the_next_flush::<$k>();
                }

                #[test]
                fn merge_leaves_the_buffer_cache_as_it_found_it() {
                    super::merge_leaves_the_buffer_cache_as_it_found_it::<$k>();
                }

                #[test]
                fn snapshot_keeps_merged_away_files_until_dropped() {
                    super::snapshot_keeps_merged_away_files_until_dropped::<$k>();
                }

                #[test]
                fn reopen_attaches_what_the_manifest_names() {
                    super::reopen_attaches_what_the_manifest_names::<$k>();
                }

                #[test]
                fn crash_inside_a_publish_reopens_to_a_list_that_was_live() {
                    super::crash_inside_a_publish_reopens_to_a_list_that_was_live::<$k>();
                }

                #[test]
                fn sealed_component_waits_for_its_writers() {
                    super::sealed_component_waits_for_its_writers::<$k>();
                }

                #[test]
                fn an_index_its_owner_seals_waits_for_the_owner() {
                    super::an_index_its_owner_seals_waits_for_the_owner::<$k>();
                }
            }
        };
    }

    lifecycle_contract!(btree, Rows);
    lifecycle_contract!(columns, Columns);
    lifecycle_contract!(rtree, Spatial);
}
