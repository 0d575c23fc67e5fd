//! The LSM index, written once (paper §III item 5, §V-B: one framework
//! "LSM-ifies" B+ trees, R-trees and inverted indexes alike — here each of
//! them is a B+ tree).
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
//! An index kind plugs in through [`ComponentKind`]: its memory component,
//! what a disk component holds, which files it owns, how to reopen it from
//! them, and its one writer: a resumable merge of a sealed memory component
//! and a snapshot of disk components, either of which may be missing — a
//! flush is that merge with no disk input. Beside that it writes only its
//! typed reads and writes, as inherent methods of `Lsm<ItsKind>`:
//! [`crate::lsm::LsmTree`] is the one kind, and a keyword or spatial index
//! is one with its keys coded and searched by [`crate::inverted`] or
//! [`crate::spatial`].
//! Everything is statically dispatched, so a read costs a list snapshot and
//! nothing else.
//!
//! Before a sealed memory component is flushed, the merge policy is asked
//! about the list the flush would publish, the sealed component counted at
//! its memory bytes (an upper bound on its file's). If the policy would
//! merge it at once with at least one disk component and the slot is free,
//! the sealed component becomes the newest input of that merge and is never
//! written on its own (O'Neil et al.'s C0 merged into C1); otherwise it is
//! flushed on the caller, and the flush *schedules* a merge. Either way the
//! slot is claimed and the job handed to the index's
//! [`crate::compaction::BackgroundExecutor`], which advances it one morsel
//! per step — off the write path when the owner installed one (the
//! runtime's worker pool), to completion on the flushing thread with the one
//! a bare index starts with. Reads and flushes proceed against the
//! pre-merge list until the merged one swaps in; a sealed component a merge
//! took in stays readable, and keeps its slot — the next seal waits — until
//! the merge publishes it. It is flushed on its own after all if the merge
//! fails, or if the next seal comes due first: the index takes it back
//! ([`Lsm::take_back_sealed`]; whichever of the two takes the manifest lock
//! first owns it), so memory and the log it pins stay bounded by two
//! components' worth, as without the hand-off. [`Lsm::flush`] waits for
//! that merge, however long it runs. A merge reads its disk inputs
//! outside the buffer cache ([`crate::io::PageStream`]) and leaves the cache
//! as it found it.
//!
//! **Durability.** The disk component is the durable unit. `<name>.manifest`
//! lists the live components newest first — id, size, files, the LSN range
//! each covers (a merge's is the union of its inputs', memory and disk) —
//! and the LSN below which every logged operation of this index is in one
//! of them. It is replaced atomically ([`crate::io::write_atomic`]) when a
//! flush or a merge publishes, *before* the in-memory list changes, so what
//! a restart loads is always a list that was live. Files no manifest names
//! are garbage ([`sweep_unreferenced`]). A sealed component's log records
//! are needed until the flush or merge that holds them publishes:
//! [`Lsm::first_unflushed`] names the sealed component's first LSN until the
//! index next looks at it after that publish. A debug build audits the list at every
//! publish and reopen (newest first, LSN ranges that descend without
//! overlap, none past the manifest's LSN, a merge's covering its inputs')
//! and, at a node's open, that the manifests name exactly the component
//! files there ([`audit_directory`]).
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
use asterix_obs::{Counter, Flag, HighWater, IdGen};
use std::collections::BTreeSet;
use std::path::Path;
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
    /// Sealed memory components that reached disk: flushed, or published by
    /// the merge that took them in.
    pub flushes: u64,
    /// Those of `flushes` that a merge took in, never written on their own.
    pub flushes_merged: u64,
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
    seals: Counter,
    flushes: Counter,
    flushes_merged: Counter,
    merges: Counter,
    merges_aborted: Counter,
    entries_written: Counter,
    entries_ingested: Counter,
    merge_stall_ns: Counter,
    reads: Counter,
    entries_visited: Counter,
    /// Shared with every component, which counts a file it failed to delete.
    retire_failures: Counter,
}

// ---------------------------------------------------------------------------
// What an index kind provides
// ---------------------------------------------------------------------------

/// An index kind that rides the harness: its memory component, what an
/// immutable disk component holds, and how a sealed memory component and a
/// snapshot of disk components merge into one — its one writer, which a
/// flush runs with no disk input.
///
/// A merge is resumable — [`open`](ComponentKind::open) once, then
/// [`step`](ComponentKind::step) until it reports exhaustion, then
/// [`finish`](ComponentKind::finish) — and touches no harness state: the
/// harness decides when each call happens, on which thread, and what becomes
/// of the result. Public only because [`Lsm`] names it: the module is not.
pub trait ComponentKind: Send + Sync + Sized + 'static {
    /// How an index of this kind is configured.
    type Config;
    /// The memory component: shared, once sealed, with the merge that takes
    /// it in.
    type Mem: MemBuf + Send + Sync;
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

    /// Every file `disk` owns; all are unlinked when the component retires.
    fn files(disk: &Self::Disk) -> Vec<FileId>;

    /// Reopens a component from the files [`files`](ComponentKind::files)
    /// listed for it, in that order.
    fn reopen(&self, files: &[FileId]) -> Result<Self::Disk>;

    /// Starts merging a sealed memory component `mem`, the newest input if
    /// there is one, and the disk components `inputs` (newest first) into a
    /// component with id `id`: a flush is the merge of a memory component
    /// and no disk one. `includes_oldest` says nothing older than the inputs
    /// exists, so delete markers that only mask older components may be
    /// dropped.
    fn open(
        &self,
        id: u64,
        mem: Option<&Arc<Self::Mem>>,
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
    retire: Flag,
    retire_failures: Counter,
    hub: Arc<LsmMetricsHub>,
}

impl<K: ComponentKind> Drop for Component<K> {
    fn drop(&mut self) {
        if !self.retire.get() {
            return;
        }
        for file in K::files(&self.disk) {
            self.cache.close_file(file);
            if self.cache.manager().delete(file).is_err() {
                // Non-fatal cleanup failure: the merged data is already
                // published; no manifest names the orphaned file, so the
                // next open sweeps it.
                self.retire_failures.inc();
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

/// The LSM's audit of a component list (debug builds, at every publish and
/// every reopen): `(id, LSN range)`s newest first, each range below the one
/// before it and not overlapping it, none ending above `flushed_below`. The
/// error names the component.
fn audit_list(index: &str, list: impl Iterator<Item = (u64, (Lsn, Lsn))>, flushed_below: Lsn) -> Result<()> {
    let mut newer: Option<(u64, (Lsn, Lsn))> = None;
    for (id, lsns) in list {
        let wrong = if lsns.0 > lsns.1 {
            Some("is not a range".to_string())
        } else if lsns.1 > flushed_below {
            Some(format!("ends above the manifest's flushed_below {flushed_below}"))
        } else {
            newer.filter(|n| n.1 .0 < lsns.1).map(|(newer_id, r)| format!("overlaps the newer component {newer_id}'s {r:?}"))
        };
        if let Some(wrong) = wrong {
            return Err(StorageError::Corrupt(format!("LSM audit of {index}: component {id}'s LSNs {lsns:?} {wrong}")));
        }
        newer = Some((id, lsns));
    }
    Ok(())
}

/// The LSM's audit of a merge's publish (debug builds): the published
/// component's LSN range covers that of every component it replaces.
fn audit_replacement(index: &str, (id, lsns): (u64, (Lsn, Lsn)), gone: &[(u64, (Lsn, Lsn))]) -> Result<()> {
    match gone.iter().find(|(_, r)| r.0 < lsns.0 || r.1 > lsns.1) {
        Some((input, r)) => Err(StorageError::Corrupt(format!(
            "LSM audit of {index}: component {id}'s LSNs {lsns:?} do not cover those of component {input} it replaces, {r:?}"
        ))),
        None => Ok(()),
    }
}

/// The LSM's audit of a node's directory once it is open (debug builds):
/// the manifests under `dir` name exactly the component files there.
pub fn audit_directory(dir: &Path) -> Result<()> {
    let mut named = BTreeSet::new();
    for name in manifest_names(dir)? {
        let manifest = Manifest::from_disk(dir, &name)?.unwrap_or_default();
        for file in manifest.components.into_iter().flat_map(|c| c.files) {
            if !dir.join(&file).is_file() {
                return Err(StorageError::Corrupt(format!("LSM audit of {name}: its manifest names {file}, which is not there")));
            }
            named.insert(file);
        }
    }
    for entry in std::fs::read_dir(dir)? {
        let file = entry?.file_name();
        let Some(file) = file.to_str() else { continue };
        if COMPONENT_SUFFIXES.iter().any(|s| file.ends_with(s)) && !named.contains(file) {
            return Err(StorageError::Corrupt(format!("LSM audit: no manifest names the component file {file}")));
        }
    }
    Ok(())
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

/// File suffixes of LSM component files.
const COMPONENT_SUFFIXES: [&str; 1] = [".btree"];

// ---------------------------------------------------------------------------
// The compaction slot
// ---------------------------------------------------------------------------

/// Where a tree's (single) compaction slot currently is. Exactly one merge
/// is in flight per tree; flushes and reads never wait on it.
enum CompactionState {
    /// No merge in flight.
    Idle,
    /// A merge is running; setting `cancel` stops it at its next morsel.
    Merging { cancel: Arc<Flag> },
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
    /// The same LSN, readable on the write path without the lock
    /// ([`Lsm::stamp`]).
    flushed_mark: HighWater,
    /// Set by [`Harness::destroy`]: nothing may publish any more.
    destroyed: Flag,
    /// Disk components, newest first.
    disk: Mutex<Vec<Arc<Component<K>>>>,
    state: Mutex<CompactionState>,
    state_changed: Condvar,
    next_component_id: IdGen,
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
            flushed_mark: HighWater::new(0),
            destroyed: Flag::new(false),
            disk: Mutex::ranked(Level::LsmDisk, Vec::new()),
            state: Mutex::ranked(Level::LsmState, CompactionState::Idle),
            state_changed: Condvar::new(),
            next_component_id: IdGen::new(1),
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
            // a file of another version or kind is refused, naming it
            let named = |e: StorageError| match e {
                StorageError::Corrupt(why) => StorageError::Corrupt(format!("{}: {why}", entry.files.join(", "))),
                e => e,
            };
            let built = Built {
                disk: harness.kind.reopen(&files).map_err(named)?,
                size_bytes: entry.size_bytes,
                written: 0,
            };
            max_id = max_id.max(entry.id);
            disk.push(harness.component(entry.id, built, entry.lsns));
        }
        if cfg!(debug_assertions) {
            audit_list(harness.kind.name(), disk.iter().map(|c| (c.id, c.lsns)), manifest.flushed_below)?;
        }
        harness.next_component_id.raise_to(max_id + 1);
        *harness.manifest.lock() = manifest.flushed_below;
        harness.flushed_mark.raise(manifest.flushed_below);
        harness.refresh_space(&disk);
        *harness.disk.lock() = disk;
        Ok(harness)
    }

    /// One application write (insert, upsert or delete) entered the index.
    pub(crate) fn count_ingested(&self) {
        self.stats.entries_ingested.inc();
        self.hub.count_ingested(1);
    }

    /// One point lookup was served after probing `probes` disk components.
    pub(crate) fn count_point_read(&self, probes: u64) {
        self.stats.reads.inc();
        self.hub.count_read(probes);
    }

    /// A range read pulled `n` entries out of the components.
    pub(crate) fn count_visited(&self, n: u64) {
        self.stats.entries_visited.add(n);
    }

    /// Snapshot of the live component list (cheap `Arc` clones). A reader
    /// holding it sees a consistent pre- or post-merge view, and its
    /// references keep retired files alive.
    pub(crate) fn snapshot(&self) -> Vec<Arc<Component<K>>> {
        self.disk.lock().clone()
    }

    /// Allocates the id of the next component (flush or merge output).
    fn alloc_id(&self) -> u64 {
        self.next_component_id.next()
    }

    fn component(&self, id: u64, built: Built<K::Disk>, lsns: (Lsn, Lsn)) -> Arc<Component<K>> {
        Arc::new(Component {
            id,
            size_bytes: built.size_bytes,
            lsns,
            disk: built.disk,
            cache: Arc::clone(self.kind.cache()),
            retire: Flag::new(false),
            retire_failures: self.stats.retire_failures.clone(),
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
        self.stats.merge_stall_ns.add(stall);
        self.hub.add_stall_ns(stall);
    }

    /// Durably records that every logged operation below `lsn` is flushed,
    /// the component list unchanged.
    fn write_flushed_below(&self, lsn: Lsn) -> Result<()> {
        let mut flushed_below = self.manifest.lock();
        let below = (*flushed_below).max(lsn);
        self.write_manifest(below, &self.snapshot())?;
        *flushed_below = below;
        self.flushed_mark.raise(below);
        Ok(())
    }

    /// Replaces the manifest with `flushed_below` and `list`. The caller
    /// holds the `manifest` lock.
    fn write_manifest(&self, flushed_below: Lsn, list: &[Arc<Component<K>>]) -> Result<()> {
        if self.destroyed.get() {
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
        self.publish_under(&mut self.manifest.lock(), comp, replaced)
    }

    /// [`Harness::publish`] under the `manifest` lock, `flushed_below`.
    fn publish_under(&self, flushed_below: &mut Lsn, comp: Arc<Component<K>>, replaced: &[u64]) -> Result<()> {
        let mut list = self.snapshot();
        // Flushes only ever prepend, so merge inputs still sit contiguously
        // wherever the newest of them now is.
        let pos = list.iter().position(|c| replaced.contains(&c.id)).unwrap_or(0);
        let gone: Vec<(u64, (Lsn, Lsn))> = list.iter().filter(|c| replaced.contains(&c.id)).map(|c| (c.id, c.lsns)).collect();
        list.retain(|c| !replaced.contains(&c.id));
        list.insert(pos.min(list.len()), Arc::clone(&comp));
        let below = (*flushed_below).max(comp.lsns.1);
        let audited = if cfg!(debug_assertions) { self.audit_publish(&comp, &gone, &list, below) } else { Ok(()) };
        if let Err(e) = audited.and_then(|()| self.write_manifest(below, &list)) {
            comp.retire.set(true);
            return Err(e);
        }
        *flushed_below = below;
        self.flushed_mark.raise(below);
        let mut disk = self.disk.lock();
        self.refresh_space(&list);
        *disk = list;
        Ok(())
    }

    /// The LSM's audit of a publish (debug builds): the list it makes passes
    /// [`audit_list`], and `comp`'s LSN range covers those of the
    /// components it replaces, `gone` — a merge that took a sealed component
    /// in holds its and its disk inputs' records alike.
    fn audit_publish(&self, comp: &Component<K>, gone: &[(u64, (Lsn, Lsn))], list: &[Arc<Component<K>>], below: Lsn) -> Result<()> {
        let name = self.kind.name();
        audit_replacement(name, (comp.id, comp.lsns), gone)?;
        audit_list(name, list.iter().map(|c| (c.id, c.lsns)), below)
    }

    /// Flushes sealed memory component `sealed` on the caller: the merge of
    /// it and no disk component, published as the newest disk component.
    fn flush_memory(&self, sealed: &Sealed<K::Mem>) -> Result<()> {
        let id = self.alloc_id();
        // nothing older: the delete markers mask nothing
        let includes_oldest = self.disk.lock().is_empty();
        let mut run = self.kind.open(id, Some(&sealed.mem), &[], includes_oldest)?;
        while !self.kind.step(&mut run, usize::MAX)? {}
        let built = self.kind.finish(run)?;
        let written = built.written;
        self.publish(self.component(id, built, sealed.lsns()), &[])?;
        self.stats.flushes.inc();
        self.stats.entries_written.add(written);
        self.hub.count_flush(written);
        Ok(())
    }

    /// A sealed memory component reached disk through the merge that took
    /// it in; its entries were counted written by the merge.
    fn count_flush_merged(&self) {
        self.stats.flushes.inc();
        self.stats.flushes_merged.inc();
        self.hub.count_flush_merged();
    }

    /// The configured policy's pick over the current list.
    fn policy_pick(&self, disk: &[Arc<Component<K>>]) -> Option<usize> {
        let sizes: Vec<u64> = disk.iter().map(|c| c.size_bytes).collect();
        self.kind.merge_policy().pick_merge(&sizes)
    }

    /// The one `idle → merging` transition: if the slot is free and `pick`
    /// names enough of the newest disk components — two, or one beside the
    /// sealed memory component `mem` — claims the slot for them and returns
    /// the job that will merge them.
    fn claim(
        self: &Arc<Self>,
        mem: Option<MemInput<K::Mem>>,
        pick: impl FnOnce(&[Arc<Component<K>>]) -> Option<usize>,
    ) -> Option<MergeJob<K>> {
        let mut st = self.state.lock();
        if !matches!(*st, CompactionState::Idle) {
            return None; // one merge in flight per tree
        }
        let disk = self.disk.lock();
        let n = pick(&disk)?.min(disk.len());
        if n + usize::from(mem.is_some()) < 2 {
            return None;
        }
        let comps = disk[..n].to_vec();
        let includes_oldest = n == disk.len();
        drop(disk);
        let cancel = Arc::new(Flag::new(false));
        *st = CompactionState::Merging { cancel: Arc::clone(&cancel) };
        self.hub.merge_started();
        Some(MergeJob {
            shared: Arc::clone(self),
            mem,
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
        if let Some(job) = self.claim(None, |disk| self.policy_pick(disk)) {
            self.offload(job);
        }
    }

    /// Asks the policy about the list a flush of `sealed` would publish,
    /// counting the sealed component as the newest at its memory bytes (an
    /// upper bound on its file's). If the policy merges it with at least one
    /// disk component and the slot is free, hands it to that merge — the
    /// stall is the hand-off's, or the whole merge on the caller's executor
    /// — and returns what will become of it there.
    fn merge_with_memory(self: &Arc<Self>, sealed: &Sealed<K::Mem>) -> Option<Arc<Handoff>> {
        let handoff = Arc::new(Handoff::new());
        let mem = MemInput { mem: Arc::clone(&sealed.mem), lsns: sealed.lsns(), handoff: Arc::clone(&handoff) };
        let bytes = sealed.mem.bytes() as u64;
        let job = self.claim(Some(mem), |disk| {
            let sizes: Vec<u64> = std::iter::once(bytes).chain(disk.iter().map(|c| c.size_bytes)).collect();
            // the run takes the sealed component: the disk ones after it
            self.kind.merge_policy().pick_merge(&sizes).map(|n| n.saturating_sub(1))
        })?;
        self.stalled(|| self.offload(job));
        Some(handoff)
    }

    /// The merge that took a sealed component in has ended: the slot has
    /// gone back to idle and the cascade was decided.
    fn settle_handoff(&self, handoff: &Handoff) {
        handoff.done.set(true);
        let _st = self.state.lock();
        self.state_changed.notify_all();
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
        mem: Option<&MemInput<K::Mem>>,
        id: u64,
        built: Built<K::Disk>,
    ) -> Result<()> {
        let written = built.written;
        // the union of what its inputs, memory and disk, hold
        let ranges: Vec<(Lsn, Lsn)> = inputs.iter().map(|c| c.lsns).chain(mem.map(|m| m.lsns)).collect();
        let lsns = (
            ranges.iter().map(|r| r.0).min().unwrap_or(0),
            ranges.iter().map(|r| r.1).max().unwrap_or(0),
        );
        let ids: Vec<u64> = inputs.iter().map(|c| c.id).collect();
        let comp = self.component(id, built, lsns);
        let mut flushed_below = self.manifest.lock();
        if let Some(mem) = mem {
            // whoever takes the manifest lock first owns the sealed component
            if mem.handoff.taken_back.get() {
                drop(flushed_below);
                comp.retire.set(true);
                self.given_back();
                return Ok(());
            }
        }
        self.publish_under(&mut flushed_below, comp, &ids)?;
        if let Some(mem) = mem {
            mem.handoff.published.set(true);
        }
        drop(flushed_below);
        *self.state.lock() = CompactionState::Retiring;
        for comp in &inputs {
            comp.retire.set(true);
        }
        // The input files unlink here unless a read snapshot still holds
        // them; a failed delete is counted, never propagated.
        drop(inputs);
        self.stats.merges.inc();
        self.stats.entries_written.add(written);
        self.hub.count_merge(written);
        self.to_idle();
        self.schedule_merge();
        Ok(())
    }

    /// Ends a merge whose sealed component its index took back, unpublished
    /// and not counted aborted, and starts the merge the index's flush of
    /// that component found the slot taken for.
    fn given_back(self: &Arc<Self>) {
        self.to_idle();
        self.schedule_merge();
    }

    /// Records an aborted/cancelled/failed merge and returns to idle. The
    /// partial output file (if any) is an orphan no manifest names; the next
    /// open sweeps it.
    fn merge_aborted(&self) {
        self.stats.merges_aborted.inc();
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
            cancel.set(true);
        }
    }

    /// Blocks until the slot is idle or `deadline` passes. A quiesce wait
    /// for an index's owner (`merge_newest`, `wait_merges_idle`): nothing a
    /// pool worker runs may reach it.
    fn wait_idle_until(&self, deadline: Instant) -> bool {
        let mut st = self.state.lock();
        while !matches!(*st, CompactionState::Idle) {
            let Some(left) = deadline.checked_duration_since(Instant::now()).filter(|d| !d.is_zero())
            else {
                return false;
            };
            (st, _) = self.state_changed.wait_for(st, left);
        }
        true
    }

    /// Blocks until the merge that took a sealed component in has ended
    /// (`handoff.done`), however long it runs: every job is stepped to its
    /// end, by the pool or, once the pool is gone, inline. Waited for by
    /// [`Lsm::flush`] only; nothing a pool worker runs may reach it.
    fn wait_handed_off(&self, handoff: &Handoff) {
        let mut st = self.state.lock();
        while !handoff.done.get() {
            st = self.state_changed.wait(st);
        }
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

/// A memory component that takes no more writes and waits to be flushed,
/// or to be published by the merge that took it in.
struct Sealed<M> {
    /// Shared with the merge that takes it in, if one does.
    mem: Arc<M>,
    /// LSN of the first log record whose effect is in `mem`.
    first_lsn: Option<Lsn>,
    /// Open transactions that wrote into `mem`.
    writers: BTreeSet<u64>,
    /// Every logged operation of the index below this LSN is in `mem` or
    /// in a disk component.
    below: Lsn,
    at: Instant,
    /// Set once a merge has taken it in: what became of it there.
    handoff: Option<Arc<Handoff>>,
}

impl<M> Sealed<M> {
    /// The log records whose effects it holds, as its component will.
    fn lsns(&self) -> (Lsn, Lsn) {
        (self.first_lsn.unwrap_or(self.below), self.below)
    }
}

/// What became of a sealed memory component a merge took in: shared by the
/// sealed slot, which stays readable until the merge publishes it, and the
/// merge job. `published` and `taken_back` are set under the `manifest`
/// lock, so at most one of them ever is: the merge publishes the component
/// or its index writes it on its own, never both.
struct Handoff {
    /// The merge published a component holding the sealed one's entries.
    published: Flag,
    /// The index took it back to write it on its own ([`Lsm::take_back_sealed`]).
    taken_back: Flag,
    /// The merge ended, published or not; set once the slot is idle again
    /// and the cascade decided, so that the next seal finds the slot as a
    /// merge on the caller would leave it.
    done: Flag,
}

impl Handoff {
    fn new() -> Handoff {
        Handoff { published: Flag::new(false), taken_back: Flag::new(false), done: Flag::new(false) }
    }
}

/// A sealed memory component as the merge that took it in holds it.
struct MemInput<M> {
    mem: Arc<M>,
    lsns: (Lsn, Lsn),
    handoff: Arc<Handoff>,
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
        std::iter::once(&self.active.mem).chain(self.sealed.as_ref().map(|s| &*s.mem))
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
        let shared = Harness::reopen(K::new(cache, config))?;
        // what the disk components hold is applied
        let covered_below = shared.flushed_mark.get();
        Ok(Lsm { shared, mem: MemSlots { covered_below, ..MemSlots::default() } })
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
        let stamps = |first_lsn, writers: &BTreeSet<u64>, below, sealed| SlotStamps {
            first_lsn,
            writers: writers.clone(),
            below,
            sealed,
        };
        let mem = &self.mem;
        let sealed = mem.sealed.as_ref().map(|s| (&*s.mem, stamps(s.first_lsn, &s.writers, s.below, true)));
        let active = &mem.active;
        let active = (&active.mem, stamps(active.first_lsn, &active.writers, mem.covered_below, false));
        sealed.into_iter().chain(std::iter::once(active))
    }

    /// LSN of the oldest log record whose effect is only in memory: a
    /// sealed component's until the flush or merge that takes it publishes
    /// and the index next looks at it.
    pub fn first_unflushed(&self) -> Option<Lsn> {
        let sealed = self.mem.sealed.as_ref().and_then(|s| s.first_lsn);
        sealed.or(self.mem.active.first_lsn)
    }

    /// Forces what is buffered to disk as new components, which are
    /// published and handed to merge scheduling, or into the merges that
    /// take them in, which it waits for however long they run. What an open
    /// transaction wrote stays in memory until it is released.
    pub fn flush(&mut self) -> Result<()> {
        self.settle(true)
    }

    /// Flushes the sealed memory component if its writers are done, seals
    /// the active one if it is past the kind's budget (or, with `force`,
    /// holds anything no open transaction wrote), and repeats until nothing
    /// is due. A sealed component a merge took in is waited for with
    /// `force`, and taken back once the active one is past its budget. A
    /// kind calls it after every write; of an index its owner seals, only
    /// `force` does anything.
    pub(crate) fn settle(&mut self, force: bool) -> Result<()> {
        if self.mem.by_owner && !force {
            return Ok(());
        }
        loop {
            self.flush_sealed()?;
            if let Some(sealed) = &self.mem.sealed {
                // no-steal: not while a writer is open
                let Some(handoff) = &sealed.handoff else { return Ok(()) };
                if force {
                    self.shared.wait_handed_off(handoff);
                } else if self.over_budget() && !handoff.published.get() {
                    self.take_back_sealed();
                } else {
                    return Ok(());
                }
                continue;
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
        let aborted = || shared.stats.merges_aborted.get();
        if shared.wait_idle_until(deadline) {
            let before = aborted();
            let Some(job) = shared.claim(None, |_| Some(n)) else { return Ok(()) };
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
        let aborted0 = shared.stats.merges_aborted.get();
        loop {
            if !shared.wait_idle_until(deadline) {
                return false;
            }
            if shared.stats.merges_aborted.get() > aborted0 {
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

impl<K: ComponentKind> Lsm<K> {
    /// The index's name: the prefix of its manifest and component files.
    pub fn name(&self) -> &str {
        self.shared.kind.name()
    }

    /// Lifetime statistics.
    pub fn stats(&self) -> LsmStats {
        let s = &self.shared.stats;
        LsmStats {
            seals: s.seals.get(),
            flushes: s.flushes.get(),
            flushes_merged: s.flushes_merged.get(),
            merges: s.merges.get(),
            merges_aborted: s.merges_aborted.get(),
            entries_written: s.entries_written.get(),
            entries_ingested: s.entries_ingested.get(),
            merge_stall_ns: s.merge_stall_ns.get(),
            retire_failures: s.retire_failures.get(),
            reads: s.reads.get(),
            entries_visited: s.entries_visited.get(),
        }
    }

    /// Where merges scheduled from now on run, one morsel per step: off the
    /// write path, if that is what `exec` does with a job.
    pub fn set_executor(&self, exec: CompactionExec) {
        *self.shared.exec.lock() = exec;
    }

    /// Number of disk components.
    pub fn component_count(&self) -> usize {
        self.shared.disk.lock().len()
    }

    /// The writes that follow apply the log record at `lsn`, logged by the
    /// open transaction `writer` (`None` when replaying a committed one).
    /// What `writer` wrote is not flushed before [`Lsm::release`].
    pub fn stamp(&mut self, lsn: Lsn, writer: Option<u64>) {
        // a record replayed into an index durable past it (a secondary
        // ahead of its primary) is already in a disk component
        self.mem.active.first_lsn.get_or_insert(lsn.max(self.shared.flushed_mark.get()));
        self.mem.active.writers.extend(writer);
        self.cover_below(lsn + 1);
    }

    /// The active memory component now holds what another index's memory
    /// component `stamps` describes held, and stands where that one does: it
    /// is stamped alike, covers as much of the log, and is sealed if that
    /// one was. Nothing its writers wrote is flushed before they are over.
    pub fn stamp_as(&mut self, stamps: &SlotStamps) {
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
    pub fn release(&mut self, writer: u64) -> Result<()> {
        self.mem.active.writers.remove(&writer);
        if let Some(sealed) = &mut self.mem.sealed {
            sealed.writers.remove(&writer);
        }
        self.settle(false)
    }

    /// Whether a write by `writer` would grow the active memory component
    /// past its budget while a sealed one still waits for *other*
    /// transactions: waiting for them lets the sealed component flush and
    /// the active one seal, where writing on only grows memory. One that
    /// waits for no transaction — a merge has taken it in — is no reason:
    /// the write's own flush takes it back ([`Lsm::take_back_sealed`]).
    pub fn must_wait(&self, writer: u64) -> bool {
        self.over_budget()
            && self.mem.sealed.as_ref().is_some_and(|s| !s.writers.is_empty() && !s.writers.contains(&writer))
    }

    /// From now on the index is sealed only by [`Lsm::seal`] and flushed
    /// only by [`Lsm::flush_sealed`] and [`Lsm::flush`]: its owner keeps it in
    /// step with other indexes, whatever its own budget says.
    pub fn sealed_by_owner(&mut self) {
        self.mem.by_owner = true;
    }

    /// Whether the active memory component holds more than the budget, or
    /// keeps more than the budget's worth of log from being truncated: from
    /// the first record it holds the effect of to the last (LSNs count the
    /// log's record stream, so this is the log decoded). The second bounds
    /// what a restart replays when overwrites keep what it holds small.
    pub fn over_budget(&self) -> bool {
        let (active, budget) = (&self.mem.active, self.shared.kind.mem_budget());
        let pinned = active.first_lsn.map_or(0, |first| self.mem.covered_below.saturating_sub(first));
        active.mem.bytes() > budget || pinned > budget as u64
    }

    /// Whether a sealed memory component waits to be flushed.
    pub fn has_sealed(&self) -> bool {
        self.mem.sealed.is_some()
    }

    /// The next seal is due: a sealed memory component that a merge took in
    /// and has not published is taken back, to be written on its own by
    /// [`Lsm::flush_sealed`] while the merge ends unpublished. So an index
    /// holds no more than two memory components' worth, as it would if the
    /// sealed one had been flushed at once, and no more of the log. Waits
    /// only for a publish in progress.
    pub fn take_back_sealed(&mut self) {
        let Some(handoff) = self.mem.sealed.as_ref().and_then(|s| s.handoff.as_ref()) else { return };
        if handoff.done.get() {
            return;
        }
        let _publishing = self.shared.manifest.lock();
        if !handoff.published.get() {
            handoff.taken_back.set(true);
        }
    }

    /// Seals the active memory component, empty or not, unless a sealed one
    /// still waits. It is flushed by [`Lsm::flush_sealed`] once its writers
    /// are done.
    pub fn seal(&mut self) {
        let mem = &mut self.mem;
        if mem.sealed.is_none() {
            self.shared.stats.seals.inc();
            let slot = std::mem::take(&mut mem.active);
            mem.sealed = Some(Sealed {
                mem: Arc::new(slot.mem),
                first_lsn: slot.first_lsn,
                writers: slot.writers,
                below: mem.covered_below,
                at: Instant::now(),
                handoff: None,
            });
        }
    }

    /// Flushes the sealed memory component if one waits and no open
    /// transaction wrote into it — one that holds nothing moves the
    /// manifest's LSN alone. If the merge policy would merge the flushed
    /// component at once, the sealed one goes into that merge instead and is
    /// never written on its own: it stays readable and keeps its place until
    /// the merge publishes, and is flushed here after all if the merge
    /// fails or the index took it back. A flushed component is handed to
    /// merge scheduling.
    pub fn flush_sealed(&mut self) -> Result<()> {
        let shared = &self.shared;
        let Some(sealed) = self.mem.sealed.as_mut().filter(|s| s.writers.is_empty()) else { return Ok(()) };
        if sealed.mem.is_empty() {
            if sealed.below > *shared.manifest.lock() {
                shared.write_flushed_below(sealed.below)?;
            }
            self.mem.sealed = None;
            return Ok(());
        }
        if sealed.handoff.is_none() {
            sealed.handoff = shared.merge_with_memory(sealed);
        }
        let merged = match &sealed.handoff {
            Some(handoff) if handoff.taken_back.get() => false,
            Some(handoff) if !handoff.done.get() => return Ok(()),
            Some(handoff) => handoff.published.get(),
            None => false,
        };
        if merged {
            shared.count_flush_merged();
        } else {
            shared.flush_memory(sealed)?;
            // what the write path pays is up to the executor: the claim and
            // a hand-off, or the merge
            shared.stalled(|| shared.schedule_merge());
        }
        shared.hub.add_flush_wait_ns(sealed.at.elapsed().as_nanos() as u64);
        self.mem.sealed = None;
        Ok(())
    }

    /// The LSN below which every logged operation of this index is in a
    /// durable disk component.
    pub fn flushed_below(&self) -> Lsn {
        *self.shared.manifest.lock()
    }

    /// Durably records that every logged operation of this index below
    /// `lsn` is flushed, though no new component says so: the index was just
    /// created (the log so far is not about it), or what it buffered since
    /// its last flush left no entry.
    pub fn mark_flushed_below(&mut self, lsn: Lsn) -> Result<()> {
        self.cover_below(lsn);
        self.shared.write_flushed_below(lsn)
    }

    /// Drops the index from disk: an empty manifest first (so that no crash
    /// leaves one naming deleted files), then every component, then the
    /// manifest itself. The handle stays readable, as an empty index, but
    /// can publish nothing more.
    pub fn destroy(&self) -> Result<()> {
        let shared = &self.shared;
        shared.cancel_merge();
        let manager = shared.kind.cache().manager();
        let _publishing = shared.manifest.lock();
        shared.write_manifest(0, &[])?;
        shared.destroyed.set(true);
        let dropped = std::mem::take(&mut *shared.disk.lock());
        shared.refresh_space(&[]);
        for comp in &dropped {
            comp.retire.set(true);
        }
        drop(dropped);
        crate::io::remove_file(&manifest_path(manager.dir(), shared.kind.name()), manager.faults())
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
    /// The sealed memory component taken in as the newest input, if any.
    mem: Option<MemInput<K::Mem>>,
    /// Input components, newest first. Taken (emptied) on completion so the
    /// swapped-out components can retire as soon as readers let go.
    comps: Mutex<Vec<Arc<Component<K>>>>,
    includes_oldest: bool,
    cancel: Arc<Flag>,
    /// The output component's id and the kind's merge state, once opened.
    run: Mutex<Option<(u64, K::Run)>>,
}

impl<K: ComponentKind> MergeJob<K> {
    /// One morsel of merging, or the publish once the inputs are exhausted.
    fn advance(&self) -> Result<JobStep> {
        let kind = &self.shared.kind;
        if self.cancel.get() {
            self.run.lock().take();
            self.abort();
            return Ok(JobStep::Done);
        }
        if let Some(mem) = self.mem.as_ref().filter(|m| m.handoff.taken_back.get()) {
            self.run.lock().take();
            self.shared.given_back();
            self.shared.settle_handoff(&mem.handoff);
            return Ok(JobStep::Done);
        }
        let mut run = self.run.lock();
        if run.is_none() {
            let comps = self.comps.lock().clone();
            let id = self.shared.alloc_id();
            let mem = self.mem.as_ref().map(|m| &m.mem);
            *run = Some((id, kind.open(id, mem, &comps, self.includes_oldest)?));
        }
        let Some((_, active)) = run.as_mut() else { return Ok(JobStep::Done) };
        if !kind.step(active, MERGE_MORSEL_ENTRIES)? {
            return Ok(JobStep::Again);
        }
        let Some((id, finished)) = run.take() else { return Ok(JobStep::Done) };
        drop(run);
        let built = kind.finish(finished)?;
        let comps = std::mem::take(&mut *self.comps.lock());
        self.shared.complete_merge(comps, self.mem.as_ref(), id, built)?;
        if let Some(mem) = &self.mem {
            self.shared.settle_handoff(&mem.handoff);
        }
        Ok(JobStep::Done)
    }

    /// Counts the merge aborted and frees the slot; a sealed component it
    /// took in is left to be flushed on its own.
    fn abort(&self) {
        self.shared.merge_aborted();
        if let Some(mem) = &self.mem {
            self.shared.settle_handoff(&mem.handoff);
        }
    }
}

impl<K: ComponentKind> BackgroundJob for MergeJob<K> {
    /// A failed step is recorded in the tree's counters and ends the job: the
    /// pre-merge component list stays live and the tree fully serviceable.
    fn step(&self) -> JobStep {
        self.advance().unwrap_or_else(|_| {
            self.abort();
            JobStep::Done
        })
    }

    fn cancel(&self) {
        self.cancel.set(true);
    }
}

#[cfg(test)]
mod tests {
    //! The lifecycle contract, stated once and run for every index kind.

    use super::*;
    use crate::compaction::BackgroundExecutor;
    use crate::faults::{FaultConfig, FaultInjector};
    use crate::io::FileManager;
    use crate::btree::LeafShape;
    use crate::lsm::{BTreeKind, LsmConfig, LsmTree};
    use crate::spatial as spatial_index;
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
            let leaves = LeafShape::Groups(Arc::new(RecordLayout::new(gleambook_types().get("GleambookMessageType").unwrap())));
            LsmConfig { mem_budget, merge_policy, leaves, ..LsmConfig::new("c") }
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

    /// A B+ tree of MBRs: spatial row leaves, read by a search.
    struct Spatial;

    impl Entries for Spatial {
        type Kind = BTreeKind;
        fn config(mem_budget: usize, merge_policy: MergePolicy) -> LsmConfig {
            LsmConfig { mem_budget, merge_policy, ..spatial_index::config("s") }
        }
        fn put(t: &mut LsmTree, i: u64) {
            t.upsert(spatial_index::key(&point(i), &key(i)), spatial_index::value(&point(i))).unwrap();
        }
        fn delete(t: &mut LsmTree, i: u64) {
            t.delete(spatial_index::key(&point(i), &key(i))).unwrap();
        }
        fn live(t: &LsmTree) -> usize {
            spatial_index::search(t, &spatial_index::everything()).unwrap().len()
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
        // the policy's merge of the backlog, scheduled but not run
        t.shared.schedule_merge();
        assert_eq!(inflight(), Some(1));
        let job = parked.0.lock().pop().expect("merge scheduled");
        assert!(parked.0.lock().is_empty(), "one merge in flight");
        // reads and flushes still serve against the pre-merge list: the slot
        // is taken, so the flush is written on its own
        component::<E>(&mut t, 1_200..1_201);
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

    /// Seals what `range` writes and asks for its flush, without waiting for
    /// a merge that takes it in.
    fn sealed<E: Entries>(t: &mut Lsm<E::Kind>, range: std::ops::Range<u64>) {
        for i in range {
            E::put(t, i);
        }
        t.seal();
        t.flush_sealed().unwrap();
    }

    /// A flush the policy would merge at once goes into that merge: the
    /// sealed component is never written on its own, stays readable and
    /// keeps the log pinned until the merge publishes, blocks the next seal,
    /// and gives the merge's output the union of its and its disk inputs'
    /// LSN ranges. One id is spent where a flush and a merge spent two.
    fn a_flush_the_policy_would_merge_at_once_goes_into_that_merge<E: Entries>() {
        let (cache, dir) = setup(None);
        let mut t = manual::<E>(cache.clone(), MergePolicy::Constant { max_components: 1 });
        let parked = Arc::new(ParkedExecutor::default());
        t.set_executor(parked.clone());
        t.stamp(10, None);
        component::<E>(&mut t, 0..600);
        assert!(parked.0.lock().is_empty(), "a first flush has nothing to merge with");
        let files = component_files(&dir);
        t.stamp(20, None);
        sealed::<E>(&mut t, 600..1_200);
        let job = parked.0.lock().pop().expect("the sealed component went into a merge");
        assert!(t.has_sealed(), "held until the merge publishes");
        assert_eq!(component_files(&dir), files, "not written on its own");
        assert_eq!((t.first_unflushed(), t.flushed_below()), (Some(20), 11));
        assert_eq!(E::live(&t), 1_200, "read from memory meanwhile");
        t.seal();
        E::put(&mut t, 1_200);
        t.flush_sealed().unwrap();
        assert_eq!(t.stats().seals, 2, "no seal while the merge holds one");
        while job.step() == JobStep::Again {
            assert_eq!(E::live(&t), 1_201, "and while it runs");
        }
        assert_eq!(E::live(&t), 1_201, "and once it published");
        t.flush_sealed().unwrap();
        assert!(!t.has_sealed());
        let stats = t.stats();
        assert_eq!((stats.flushes, stats.flushes_merged, stats.merges), (2, 1, 1));
        let node = cache.stats().registry().snapshot();
        assert_eq!(node.counter("storage.lsm.flushes_merged"), Some(1));
        let [merged] = t.shared.snapshot().try_into().ok().expect("one component");
        assert_eq!((merged.id, merged.lsns), (2, (10, 21)), "one id; both inputs' ranges");
        assert_eq!((t.first_unflushed(), t.flushed_below()), (None, 21));
        assert_eq!(E::live(&t), 1_201);
        drop(t);
        let t = reopened::<E>(restarted(&dir), MergePolicy::NoMerge);
        assert_eq!(E::live(&t), 1_200, "the merge is the flush");
    }

    /// A merge that took a sealed component in and aborted leaves it to be
    /// flushed on its own; [`Lsm::flush`] waits for a merge that has one.
    fn a_sealed_component_whose_merge_aborts_is_flushed_on_its_own<E: Entries>() {
        let (cache, _d) = setup(None);
        let mut t = manual::<E>(cache, MergePolicy::Constant { max_components: 1 });
        let parked = Arc::new(ParkedExecutor::default());
        t.set_executor(parked.clone());
        component::<E>(&mut t, 0..600);
        sealed::<E>(&mut t, 600..1_200);
        let job = parked.0.lock().pop().expect("merge scheduled");
        assert_eq!(job.step(), JobStep::Again);
        job.cancel();
        assert_eq!(job.step(), JobStep::Done);
        assert!(t.has_sealed(), "the abort is seen at the next flush");
        t.flush_sealed().unwrap();
        let stats = t.stats();
        assert_eq!((stats.flushes, stats.flushes_merged, stats.merges_aborted), (2, 0, 1));
        assert_eq!(t.component_count(), 2, "flushed on its own, and nothing merged it");
        let job = parked.0.lock().pop().expect("the flush scheduled the merge it would have been");
        while job.step() == JobStep::Again {}
        assert_eq!((t.component_count(), E::live(&t)), (1, 1_200));
        // a flush waits for the merge that took its sealed component in
        let stepper = Arc::new(ParkedExecutor::default());
        t.set_executor(stepper.clone());
        sealed::<E>(&mut t, 1_200..1_300);
        let job = stepper.0.lock().pop().expect("merge scheduled");
        let driver = std::thread::spawn(move || {
            crate::lock_order::sleep(Duration::from_millis(50));
            while job.step() == JobStep::Again {}
        });
        t.flush().unwrap();
        crate::lock_order::join(driver).unwrap();
        assert!(!t.has_sealed());
        assert_eq!((t.stats().flushes_merged, t.component_count(), E::live(&t)), (1, 1, 1_300));
    }

    /// Once the next seal is due while a merge holds the sealed component,
    /// the index takes it back and writes it on its own, so that memory
    /// stays at two components' worth; the merge then ends unpublished, is
    /// not counted aborted, and schedules what the policy asks of the list
    /// the index's flush left. A merge that published first keeps it.
    fn a_sealed_component_is_taken_back_when_the_next_seal_is_due<E: Entries>() {
        let (cache, _d) = setup(None);
        let policy = MergePolicy::Constant { max_components: 1 };
        let mut t = manual::<E>(cache.clone(), policy);
        let parked = Arc::new(ParkedExecutor::default());
        t.set_executor(parked.clone());
        component::<E>(&mut t, 0..600);
        sealed::<E>(&mut t, 600..1_200);
        let job = parked.0.lock().pop().expect("the sealed component went into a merge");
        assert_eq!(job.step(), JobStep::Again, "one morsel merged");
        t.take_back_sealed();
        t.flush_sealed().unwrap();
        assert!(!t.has_sealed(), "written on its own");
        assert_eq!((t.component_count(), E::live(&t)), (2, 1_200));
        assert_eq!(job.step(), JobStep::Done, "the merge ends at its next step");
        let stats = t.stats();
        assert_eq!((stats.flushes, stats.flushes_merged, stats.merges, stats.merges_aborted), (2, 0, 0, 0));
        let job = parked.0.lock().pop().expect("the merge the policy asks of the list");
        while job.step() == JobStep::Again {}
        assert_eq!((t.component_count(), E::live(&t)), (1, 1_200));
        // published first: nothing to take back
        sealed::<E>(&mut t, 1_200..1_300);
        let job = parked.0.lock().pop().expect("the sealed component went into a merge");
        while job.step() == JobStep::Again {}
        t.take_back_sealed();
        t.flush_sealed().unwrap();
        assert_eq!((t.stats().flushes_merged, t.component_count(), E::live(&t)), (1, 1, 1_300));
        // an index sealed by its own budget takes it back at the write that
        // makes the next seal due
        let mut t = Lsm::new(cache, E::config(8 << 10, policy));
        t.set_executor(parked.clone());
        let mut i = 0;
        while parked.0.lock().is_empty() {
            E::put(&mut t, i);
            i += 1;
        }
        assert!(t.has_sealed() && !t.over_budget(), "the second seal went into a merge");
        let flushes = t.stats().flushes;
        while t.has_sealed() {
            assert!(!t.over_budget(), "taken back at the write that passes the budget");
            E::put(&mut t, i);
            i += 1;
        }
        assert!(t.stats().flushes > flushes && t.stats().flushes_merged == 0);
        let job = parked.0.lock().pop().expect("the merge that took it in");
        assert_eq!(job.step(), JobStep::Done);
        assert_eq!(E::live(&t), i as usize, "nothing lost");
    }

    /// A merge cancelled and stepped to done — how the pool ends one whose
    /// step panicked — is counted aborted and frees the slot: the next flush
    /// merges again.
    fn an_aborted_merge_leaves_the_index_free_to_merge_again<E: Entries>() {
        let (cache, dir) = setup(None);
        let mut t = manual::<E>(cache, MergePolicy::NoMerge);
        component::<E>(&mut t, 0..600);
        component::<E>(&mut t, 600..1_200);
        drop(t);
        let cache = restarted(&dir);
        let mut t = reopened::<E>(cache.clone(), MergePolicy::Constant { max_components: 1 });
        let parked = Arc::new(ParkedExecutor::default());
        t.set_executor(parked.clone());
        t.shared.schedule_merge();
        let job = parked.0.lock().pop().expect("merge scheduled");
        job.cancel();
        assert_eq!(job.step(), JobStep::Done);
        assert_eq!(t.stats().merges_aborted, 1);
        let inflight = || cache.stats().registry().snapshot().gauge("storage.lsm.merge_inflight");
        assert_eq!(inflight(), Some(0));
        sealed::<E>(&mut t, 1_200..1_800);
        let job = parked.0.lock().pop().expect("the next flush merges again");
        while job.step() == JobStep::Again {}
        t.flush_sealed().unwrap();
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
        let counters = || {
            let snap = stats.registry().snapshot();
            ["cache_hits", "cache_misses", "evictions", "readaheads"]
                .map(|name| snap.counter(&format!("storage.io.{name}")).unwrap())
        };
        let (before, reads) = (counters(), stats.physical_reads());
        t.merge_newest(2).unwrap();
        assert_eq!(t.stats().merges, 1);
        let read = stats.physical_reads() - reads;
        assert!(read > 4 * cache.capacity() as u64, "the merge read {read} pages");
        assert_eq!(counters(), before, "[hits, misses, evictions, readaheads] moved");
        cache.get(hot, 0).unwrap();
        assert_eq!(counters()[1], before[1], "the hot page was evicted");
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

    /// No-steal is decided by the handle, not by the leaves: the same
    /// schedule seals, flushes and advances the flushed LSN at the same steps
    /// for row leaves and spatial ones.
    #[test]
    fn both_kinds_seal_and_flush_at_the_same_steps_of_one_schedule() {
        let trace = no_steal_trace::<Rows>();
        assert_eq!(trace, no_steal_trace::<Spatial>());
        let waited = trace.iter().filter(|(seals, flushes, ..)| seals > flushes).count();
        let (seals, flushes, flushed_below, _) = trace[trace.len() - 1];
        assert!(waited > 50 && flushes > 20, "{waited} steps with a sealed component held, {flushes} flushes");
        assert!(seals >= flushes && flushed_below > 1);
    }

    /// The LSM audit refuses a list out of LSN order, a range past the
    /// manifest's LSN, and a merge that records only its memory component's
    /// range — each naming the component — and a directory holding a
    /// component file no manifest names, or missing one a manifest does.
    #[test]
    fn the_lsm_audit_names_the_component_that_breaks_it() {
        let refused = |r: Result<()>, what: &str| match r {
            Err(StorageError::Corrupt(msg)) => assert!(msg.contains(what), "{msg}"),
            other => panic!("{other:?}"),
        };
        audit_list("t", [(3, (20, 30)), (2, (10, 20)), (1, (0, 10))].into_iter(), 30).unwrap();
        refused(audit_list("t", [(3, (15, 30)), (2, (10, 20))].into_iter(), 30), "component 2's LSNs (10, 20) overlaps the newer component 3");
        refused(audit_list("t", [(3, (20, 31))].into_iter(), 30), "component 3's LSNs (20, 31) ends above");
        // a merge of sealed LSNs 20..21 and disk component 5 that records
        // the sealed component's range alone
        audit_replacement("t", (7, (10, 21)), &[(5, (10, 11))]).unwrap();
        refused(audit_replacement("t", (7, (20, 21)), &[(5, (10, 11))]), "component 7's LSNs (20, 21) do not cover those of component 5");

        let (cache, dir) = setup(None);
        let mut t = manual::<Rows>(cache, MergePolicy::NoMerge);
        component::<Rows>(&mut t, 0..10);
        drop(t);
        audit_directory(dir.path()).unwrap();
        std::fs::write(dir.path().join("t_c9.btree"), b"stray").unwrap();
        refused(audit_directory(dir.path()), "no manifest names the component file t_c9.btree");
        std::fs::remove_file(dir.path().join("t_c9.btree")).unwrap();
        std::fs::remove_file(dir.path().join("t_c1.btree")).unwrap();
        refused(audit_directory(dir.path()), "names t_c1.btree, which is not there");
    }

    /// A data directory from before spatial components were B+ trees: its
    /// manifest names an R-tree component, a page file that ends in the
    /// `RTR2` trailer. The reopen refuses it, naming the file, and reads
    /// nothing of it as a tree.
    #[test]
    fn a_manifest_naming_a_retired_r_tree_component_is_refused_at_reopen() {
        let (cache, dir) = setup(None);
        let mut image = vec![0u8; 2 * crate::io::PAGE_SIZE];
        // a leaf of one point, then the trailer: magic, root page, entry count
        image[..3].copy_from_slice(&[1, 1, 0]);
        let trailer = crate::io::PAGE_SIZE;
        image[trailer..trailer + 4].copy_from_slice(&0x5254_5232u32.to_le_bytes());
        image[trailer + 12..trailer + 20].copy_from_slice(&1u64.to_le_bytes());
        std::fs::write(dir.path().join("s_c1.rtree"), &image).unwrap();
        let manifest = Manifest { flushed_below: 7, components: vec![ManifestEntry { id: 1, size_bytes: image.len() as u64, lsns: (0, 7), files: vec!["s_c1.rtree".into()] }] };
        std::fs::write(manifest_path(dir.path(), "s"), manifest.encode()).unwrap();
        match Lsm::<BTreeKind>::reopen(cache, Spatial::config(1 << 20, MergePolicy::NoMerge)) {
            Err(StorageError::Corrupt(why)) => assert!(why.contains("s_c1.rtree") && why.contains("spatial B+ tree footer"), "{why}"),
            Err(e) => panic!("{e}"),
            Ok(_) => panic!("a retired R-tree component opened"),
        }
        assert_eq!(std::fs::read(dir.path().join("s_c1.rtree")).unwrap(), image, "the refused file is left as it was");
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
                fn a_flush_the_policy_would_merge_at_once_goes_into_that_merge() {
                    super::a_flush_the_policy_would_merge_at_once_goes_into_that_merge::<$k>();
                }

                #[test]
                fn a_sealed_component_whose_merge_aborts_is_flushed_on_its_own() {
                    super::a_sealed_component_whose_merge_aborts_is_flushed_on_its_own::<$k>();
                }

                #[test]
                fn a_sealed_component_is_taken_back_when_the_next_seal_is_due() {
                    super::a_sealed_component_is_taken_back_when_the_next_seal_is_due::<$k>();
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
    lifecycle_contract!(spatial, Spatial);
}
