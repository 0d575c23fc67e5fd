//! The LSM (Log-Structured Merge) B+ tree (paper Figure 2, Section III item
//! 5): every dataset partition is an LSM B+ tree; B+-tree, keyword and
//! spatial secondary indexes are built from it.
//!
//! Writes go to an in-memory component ([`MemComponent`]); when it exceeds its
//! ingestion-buffer budget it is sealed and *flushed* — bulk-loaded into an
//! immutable on-disk B+ tree component — as soon as no open transaction has
//! written into it, or merged straight into the disk components the policy
//! would merge its flush with. Deletes insert tombstones ("anti-matter"). Reads consult
//! the memory components and then disk components newest-first, with
//! per-component bloom filters short-circuiting point lookups. A pluggable
//! [`MergePolicy`] decides when to merge disk components (experiment E8
//! compares the policies).
//!
//! A tree's leaves have the shape [`LsmConfig::leaves`] names: row leaves,
//! spatial row leaves ([`crate::spatial`]) or leaf groups. A tree whose
//! values are records (a dataset's primary index) writes its disk components
//! as leaf groups
//! ([`crate::leaf_group`]): the memory component keeps whole rows, the flush
//! takes them apart, and a read that names the cells it wants is handed
//! exactly those of an entry that a disk component holds — and the row of one
//! still in memory, to read the same fields from: an entry at a time with its
//! key ([`LsmReader::next_entry`]), or appended to a batch of columns
//! ([`LsmReader::fill`], [`LsmTree::get_into`]), the entries of one leaf
//! group a chunk at a time.
//!
//! This module is the component format: the memory component, the one
//! writer of a disk component ([`MergeRun`], the k-way merge a flush and a
//! merge both are) and the reads; a disk component's B+ tree stores each
//! [`Entry`], a value or a delete marker, itself (`crate::btree`). The
//! component list and its manifest, ids, sealing, merge scheduling,
//! publishing and retirement are the lifecycle in `crate::harness`, where
//! [`LsmTree`] is declared; it calls the merge run directly.

use crate::btree::{BTreeBuilder, BTreeRangeIter, DiskBTree, LeafShape};
use crate::cache::BufferCache;
use crate::error::{Result, StorageError};
use crate::harness::{Built, Component, Harness};
use asterix_adm::layout::Cells;
use asterix_adm::BatchBuilder;
use std::collections::{btree_map, BTreeMap};
use std::ops::Bound;
use std::sync::Arc;

pub use crate::btree::Entry;
pub use crate::harness::{
    audit_directory, join, manifest_names, remove_index_files, settle, sweep_unreferenced, LsmStats, LsmTree, MergePolicy, Settled,
    SlotStamps,
};

// ---------------------------------------------------------------------------
// Entries & memory component
// ---------------------------------------------------------------------------

/// What the ordered map of a [`MemComponent`] allocates per entry beside the
/// key's and the value's bytes, as a counting allocator measures it on
/// x86-64: a leaf slot of a key and an entry (48 B) and each entry's share of
/// the nodes' slack and of the levels above. Keys that arrive in random
/// order cost 74.5 B an entry (`storage/tests/mem_budget.rs`, 100 k entries),
/// and so do the memory components of the repository benchmark's `ingest`
/// workload, replayed under that allocator: 73.4–75.0 B in every primary and
/// secondary component of a seed-1 run at its 4 MiB budget, the ones whose
/// budget seals them. Keys that ascend cost 92.9 B (a node split at the right
/// edge stays half full): a bulk load in key order is counted up to a fifth
/// short.
pub const ENTRY_BYTES: usize = 74;

/// The in-memory (ingestion-buffer) component: an ordered map plus a byte
/// budget (Figure 2's "LSM memory components" slice of node memory).
#[derive(Debug, Default)]
pub struct MemComponent {
    map: BTreeMap<Vec<u8>, Entry>,
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

    /// Bytes held: per entry its key, its value and [`ENTRY_BYTES`] (see
    /// [`MemComponent::put`]).
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Inserts/overwrites a key. The key and the value are kept at their
    /// length: spare capacity an encoder left them is given back, so that
    /// what is counted is what is held.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.insert(key, Entry::Put(value));
    }

    /// Inserts a tombstone.
    pub fn delete(&mut self, key: Vec<u8>) {
        self.insert(key, Entry::Tombstone);
    }

    /// Puts `entry` under `key`, counting it in and what it replaces out.
    fn insert(&mut self, mut key: Vec<u8>, mut entry: Entry) {
        key.shrink_to_fit();
        if let Entry::Put(value) = &mut entry {
            value.shrink_to_fit();
        }
        let key_len = key.len();
        let held = |entry: &Entry| key_len + entry.value().map_or(0, <[u8]>::len) + ENTRY_BYTES;
        self.bytes += held(&entry);
        if let Some(old) = self.map.insert(key, entry) {
            self.bytes -= held(&old);
        }
    }

    /// Latest entry for `key`, if buffered here.
    pub fn get(&self, key: &[u8]) -> Option<&Entry> {
        self.map.get(key)
    }

    /// Ordered iteration over all buffered entries.
    pub fn iter(&self) -> impl Iterator<Item = (&Vec<u8>, &Entry)> {
        self.map.iter()
    }

    /// Ordered iteration over a key range; nothing when `lo` lies past `hi`.
    pub fn range(&self, lo: Bound<&[u8]>, hi: Bound<&[u8]>) -> btree_map::Range<'_, Vec<u8>, Entry> {
        // `BTreeMap::range` panics on such bounds
        let empty = match (lo, hi) {
            (Bound::Included(l), Bound::Included(h)) => l > h,
            (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) => l >= h,
            _ => false,
        };
        let nothing: (Bound<&[u8]>, Bound<&[u8]>) = (Bound::Included(&[]), Bound::Excluded(&[]));
        self.map.range::<[u8], _>(if empty { nothing } else { (lo, hi) })
    }
}

// ---------------------------------------------------------------------------
// Configuration
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
    /// What the disk components' leaves hold: opaque values, MBRs
    /// ([`crate::spatial`]), or records that a layout takes apart and stores
    /// column by column ([`crate::leaf_group`]).
    pub leaves: LeafShape,
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
            leaves: LeafShape::Rows,
        }
    }
}

// ---------------------------------------------------------------------------
// The k-way merge and the merge run
// ---------------------------------------------------------------------------

/// The one k-way merge of the LSM tree: per-component ordered [`Source`]s in
/// (rank 0 = newest), one entry per distinct key out — the newest rank's,
/// older versions shadowed. It compares keys where they lie and copies
/// nothing: [`KWayMerge::next_rank`] names the cursor standing at the next
/// entry and the caller reads of it what it needs. Tombstones pass through
/// (what an entry holds is the caller's to read), so compaction, full scans
/// and bounded probes all sit on it. Lazy: a cursor stands one entry ahead
/// of what has been handed out and no further, so a caller that stops early
/// has touched at most `yielded + 1` entries per component.
struct KWayMerge<'a> {
    cursors: Vec<Source<'a>>,
    /// The rank handed out last; it, and the cursors behind it that stand at
    /// the same key, step on when the next is asked for.
    taken: Option<usize>,
    pulled: u64,
}

impl<'a> KWayMerge<'a> {
    fn new(cursors: Vec<Source<'a>>) -> Self {
        let pulled = cursors.iter().filter(|c| c.key().is_some()).count() as u64;
        KWayMerge { cursors, taken: None, pulled }
    }

    /// A merge over `cursors`, which stand where those of a merge taken
    /// apart by [`KWayMerge::into_parts`] stood, that goes on where it
    /// stopped: `taken` is the rank it handed out last.
    fn resume(cursors: Vec<Source<'a>>, taken: Option<usize>) -> Self {
        KWayMerge { cursors, taken, pulled: 0 }
    }

    /// The cursors and the rank handed out last, for
    /// [`KWayMerge::resume`].
    fn into_parts(self) -> (Vec<Source<'a>>, Option<usize>) {
        (self.cursors, self.taken)
    }

    /// Entries the cursors have stood at so far.
    fn pulled(&self) -> u64 {
        self.pulled
    }

    /// The cursor of rank `rank`.
    fn cursor(&mut self, rank: usize) -> &mut Source<'a> {
        &mut self.cursors[rank]
    }

    /// The key of the entry handed out last.
    fn taken_key(&self) -> Option<&[u8]> {
        self.taken.and_then(|rank| self.cursors[rank].key())
    }

    /// Moves to the next distinct key: the rank of the cursor standing at
    /// its newest version, `None` when every cursor is past its last entry.
    fn next_rank(&mut self) -> Result<Option<usize>> {
        if let Some(winner) = self.taken.take() {
            let (upto, behind) = self.cursors.split_at_mut(winner + 1);
            let winner = &mut upto[winner];
            if let Some(key) = winner.key() {
                for older in behind.iter_mut().filter(|c| c.key() == Some(key)) {
                    older.advance()?;
                    self.pulled += older.key().is_some() as u64;
                }
            }
            winner.advance()?;
            self.pulled += winner.key().is_some() as u64;
        }
        // smallest key; on ties the lowest rank (the newest version)
        let mut best: Option<(usize, &[u8])> = None;
        for (rank, cursor) in self.cursors.iter().enumerate() {
            let Some(key) = cursor.key() else { continue };
            if best.is_none_or(|(_, smallest)| key < smallest) {
                best = Some((rank, key));
            }
        }
        self.taken = best.map(|(rank, _)| rank);
        Ok(self.taken)
    }
}

/// In-progress compaction: the merge over the input components' entries —
/// a sealed memory component's in place, each disk component's read outside
/// the buffer cache — plus the output builder. A cursor over a memory
/// component borrows it, so the merge is taken apart after each step and put
/// together again for the next, that cursor at the key it stood at.
///
/// Resumable: [`MergeRun::open`] once, then [`MergeRun::step`] until it
/// reports exhaustion, then [`MergeRun::finish`]. It touches no lifecycle
/// state: the harness decides when each call happens, on which thread, and
/// what becomes of the result.
pub(crate) struct MergeRun {
    cache: Arc<BufferCache>,
    /// The sealed memory component taken in: rank 0 when there is one.
    mem: Option<Arc<MemComponent>>,
    /// The key its cursor stands at; `None` past its last entry.
    mem_at: Option<Vec<u8>>,
    /// The disk components' cursors, newest first, after it.
    disk: Vec<BTreeRangeIter>,
    /// The rank the merge handed out last.
    taken: Option<usize>,
    builder: BTreeBuilder,
    /// Nothing older than the inputs exists: dead tombstones are dropped.
    includes_oldest: bool,
    written: u64,
    /// Every cell of a leaf group's entry, handed on from group to group;
    /// `None` for a tree without a layout.
    every_cell: Option<Vec<usize>>,
    /// The cells of the entry being handed on (leaf groups).
    cells: Cells,
}

impl MergeRun {
    /// Starts merging a sealed memory component `mem`, the newest input if
    /// there is one, and the disk components `inputs` (newest first) of the
    /// index `config` describes into the file of component `id`: a flush is
    /// the merge of a memory component and no disk one. `includes_oldest`
    /// says nothing older than the inputs exists, so delete markers that
    /// only mask older components may be dropped.
    pub(crate) fn open(
        cache: &Arc<BufferCache>,
        config: &LsmConfig,
        id: u64,
        mem: Option<&Arc<MemComponent>>,
        inputs: &[Arc<Component>],
        includes_oldest: bool,
    ) -> Result<MergeRun> {
        let writer = cache.manager().bulk_writer(&format!("{}_c{}.btree", config.name, id))?;
        let builder = BTreeBuilder::with_shape(writer, config.bloom, &config.leaves);
        let disk = inputs.iter().map(|comp| comp.disk.scan_uncached()).collect::<Result<_>>()?;
        let mem_at = mem.and_then(|m| m.iter().next()).map(|(key, _)| key.clone());
        Ok(MergeRun {
            cache: Arc::clone(cache),
            mem: mem.cloned(),
            mem_at,
            disk,
            taken: None,
            builder,
            includes_oldest,
            written: 0,
            every_cell: config.leaves.layout().map(|l| (0..l.cell_count()).collect()),
            cells: Cells::default(),
        })
    }

    /// Advances the k-way merge by up to `budget` input keys (newest rank
    /// wins on duplicates; a dropped tombstone still costs budget); `true`
    /// once every input is exhausted.
    pub(crate) fn step(&mut self, budget: usize) -> Result<bool> {
        let MergeRun { mem, mem_at, disk, taken, builder, includes_oldest, written, every_cell, cells, .. } = self;
        let mut sources: Vec<Source<'_>> = Vec::with_capacity(disk.len() + 1);
        if let Some(mem) = mem {
            let mut rest = match mem_at {
                Some(key) => mem.range(Bound::Included(key.as_slice()), Bound::Unbounded),
                None => mem.range(Bound::Included(&[][..]), Bound::Excluded(&[][..])),
            };
            sources.push(Source::Mem { head: rest.next(), rest });
        }
        sources.extend(disk.drain(..).map(Source::Disk));
        let mut merge = KWayMerge::resume(sources, *taken);
        let gone = || StorageError::Invalid("the merge named a cursor past its last entry".into());
        let mut morsel = || -> Result<bool> {
            for _ in 0..budget.max(1) {
                let Some(rank) = merge.next_rank()? else { return Ok(true) };
                let dead = match merge.cursor(rank) {
                    Source::Mem { head, .. } => matches!(head, Some((_, Entry::Tombstone))),
                    Source::Disk(winner) => winner.is_tombstone()?,
                };
                // a delete marker is dead only when nothing older is left to mask
                if dead && *includes_oldest {
                    continue;
                }
                match (merge.cursor(rank), &*every_cell) {
                    (Source::Mem { head, .. }, _) => {
                        let (key, entry) = (*head).ok_or_else(gone)?;
                        builder.add(key, entry.value())?;
                    }
                    (Source::Disk(winner), Some(every_cell)) if !dead => {
                        // the cells go from group to group: no row is put together
                        cells.clear();
                        winner.cells(every_cell, cells)?;
                        builder.add_cells(winner.key().unwrap_or_default(), Some(cells))?;
                    }
                    (Source::Disk(winner), _) => {
                        let (key, value) = winner.entry()?;
                        builder.add(key, value)?;
                    }
                }
                *written += 1;
            }
            Ok(false)
        };
        let exhausted = morsel();
        let (sources, rank) = merge.into_parts();
        *taken = rank;
        for source in sources {
            match source {
                Source::Mem { head, .. } => *mem_at = head.map(|(key, _)| key.clone()),
                Source::Disk(at) => disk.push(at),
            }
        }
        exhausted
    }

    /// Seals the merge output (not yet published).
    pub(crate) fn finish(self) -> Result<Built> {
        let built = self.builder.finish()?;
        let size_bytes = self.cache.manager().page_count(built.file)? * crate::io::PAGE_SIZE as u64;
        Ok(Built { disk: DiskBTree::from_built(self.cache, built), size_bytes, written: self.written })
    }
}

// ---------------------------------------------------------------------------
// The LSM tree's reads and writes
// ---------------------------------------------------------------------------

/// What a read that named cells is handed of one entry.
#[derive(Debug, Clone, Copy)]
pub enum Projected<'a> {
    /// The whole value: the entry is in a memory component, or the tree has
    /// no layout (or the read named no cells).
    Row(&'a [u8]),
    /// The cells named, in the order named, out of a leaf group.
    Cells(&'a Cells),
}

/// Where a point lookup ends: at the entry a memory component holds, or at
/// what the probe found in the newest disk component that has the key — with
/// the snapshot the walk looked through, which keeps that one's file open.
enum Found<'a, D> {
    Mem(&'a Entry),
    Disk { at: D, _snapshot: Vec<Arc<Component>> },
}

impl LsmTree {
    /// Inserts or replaces `key`. An index alone is then settled: past the
    /// budget the memory component is sealed, and flushed unless an open
    /// transaction wrote into it ([`crate::harness::settle`]).
    pub fn upsert(&mut self, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        self.shared.count_ingested();
        self.mem.active_mut().put(key, value);
        self.settle_alone(false)
    }

    /// Deletes `key` (tombstone insert).
    pub fn delete(&mut self, key: Vec<u8>) -> Result<()> {
        self.shared.count_ingested();
        self.mem.active_mut().delete(key);
        self.settle_alone(false)
    }

    /// The walk of a point lookup: memory components, then disk components
    /// newest-first, to the newest entry under `key` — in a disk component,
    /// to what `probe` makes of it there.
    fn find<D>(
        &self,
        key: &[u8],
        probe: impl Fn(&DiskBTree) -> Result<Option<D>>,
    ) -> Result<Option<Found<'_, D>>> {
        if let Some(entry) = self.mem.newest_first().find_map(|m| m.get(key)) {
            self.shared.count_point_read(0);
            return Ok(Some(Found::Mem(entry)));
        }
        let disk = self.shared.snapshot();
        let mut probes = 0u64;
        let mut found = None;
        for comp in &disk {
            if !comp.disk.may_contain(key) {
                continue;
            }
            probes += 1;
            found = probe(&comp.disk)?;
            if found.is_some() {
                break;
            }
        }
        self.shared.count_point_read(probes);
        Ok(found.map(|at| Found::Disk { at, _snapshot: disk }))
    }

    /// Point lookup. A leaf group's row is put together from one cell of
    /// each chunk ([`DiskBTree::get`]) and copied out of its entry once.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(match self.find(key, |disk| disk.get(key))? {
            None | Some(Found::Mem(Entry::Tombstone)) => None,
            Some(Found::Mem(Entry::Put(v))) => Some(v.clone()),
            Some(Found::Disk { at: stored, .. }) => stored.into_value(),
        })
    }

    /// [`LsmTree::get`] for a reader of some of the record's fields: the
    /// record under `key`, if there is one, is appended to `builder` — from
    /// the row a memory component holds, or from the cells the builder's
    /// projection names of a leaf group, whose other chunks are not touched.
    /// Says whether there was one. For a tree that has a layout.
    pub fn get_into(&self, key: &[u8], builder: &mut BatchBuilder<'_>) -> Result<bool> {
        if self.config().leaves.layout().is_none() {
            return Err(StorageError::Invalid(format!("index {} has no record layout to read fields by", self.config().name)));
        }
        Ok(match self.find(key, |disk| disk.probe(key))? {
            None | Some(Found::Mem(Entry::Tombstone)) => false,
            Some(Found::Mem(Entry::Put(row))) => {
                builder.push_row(row)?;
                true
            }
            Some(Found::Disk { mut at, .. }) => {
                let live = !at.is_tombstone()?;
                if live {
                    let (idx, _) = at.group_place()?;
                    at.append_entries(std::slice::from_ref(&(idx..idx + 1)), builder)?;
                }
                live
            }
        })
    }

    /// Lazy ordered read of `[lo, hi]`, resolving versions (newest wins)
    /// and dropping tombstones. With `wanted`, a tree that has a layout hands
    /// out those cells of each entry (see [`Projected`]) and reads no chunk
    /// of the others; without, whole values. Nothing past the last entry the
    /// caller takes is read (one entry of lookahead per component), so a
    /// probe that cannot name its upper bound as a key — every key with a
    /// given leading part, say — starts at `lo` and simply stops.
    pub fn reader(&self, lo: Bound<&[u8]>, hi: Bound<&[u8]>, wanted: Option<&[usize]>) -> Result<LsmReader<'_>> {
        self.read(true, lo, hi, wanted)
    }

    /// [`LsmTree::reader`] of every key over the disk components alone: what
    /// the index holds durably, as of [`LsmTree::flushed_below`].
    pub fn disk_reader(&self, wanted: Option<&[usize]>) -> Result<LsmReader<'_>> {
        self.read(false, Bound::Unbounded, Bound::Unbounded, wanted)
    }

    fn read(&self, memory: bool, lo: Bound<&[u8]>, hi: Bound<&[u8]>, wanted: Option<&[usize]>) -> Result<LsmReader<'_>> {
        // Snapshot the component list: the scan sees a consistent pre- or
        // post-merge view, and snapshot refs keep retired files alive.
        let snapshot = self.shared.snapshot();
        // Per-source ordered cursors: rank 0 = the active memory component
        // (newest), then the sealed one, then disk.
        let mut sources: Vec<Source<'_>> = Vec::with_capacity(snapshot.len() + 2);
        for mem in self.mem.newest_first().filter(|_| memory) {
            let mut rest = mem.range(lo, hi);
            sources.push(Source::Mem { head: rest.next(), rest });
        }
        for comp in &snapshot {
            sources.push(Source::Disk(comp.disk.range(lo, hi.map(<[u8]>::to_vec))?));
        }
        Ok(LsmReader {
            merge: KWayMerge::new(sources),
            shared: &self.shared,
            _snapshot: snapshot,
            wanted: wanted.filter(|_| self.config().leaves.layout().is_some()).map(<[usize]>::to_vec),
            cells: Cells::default(),
        })
    }

    /// [`LsmTree::reader`] of whole values as an iterator: each pair copied
    /// out, once.
    pub fn range_iter(&self, lo: Bound<&[u8]>, hi: Bound<&[u8]>) -> Result<LsmRangeIter<'_>> {
        Ok(LsmRangeIter(self.reader(lo, hi, None)?))
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

    /// Live entry count: walks the keys once, reading no value.
    pub fn count(&self) -> Result<usize> {
        let mut live = self.reader(Bound::Unbounded, Bound::Unbounded, Some(&[]))?;
        let mut n = 0;
        while live.next_entry()?.is_some() {
            n += 1;
        }
        Ok(n)
    }
}

/// One component's entries in a read: a memory component's in place, a
/// disk component's under a cursor.
enum Source<'a> {
    Mem { head: Option<(&'a Vec<u8>, &'a Entry)>, rest: btree_map::Range<'a, Vec<u8>, Entry> },
    Disk(BTreeRangeIter),
}

impl Source<'_> {
    /// The key of the entry the cursor stands at; `None` past the last.
    fn key(&self) -> Option<&[u8]> {
        match self {
            Source::Mem { head, .. } => head.map(|(key, _)| key.as_slice()),
            Source::Disk(at) => at.key(),
        }
    }

    fn advance(&mut self) -> Result<()> {
        match self {
            Source::Mem { head, rest } => *head = rest.next(),
            Source::Disk(at) => at.advance()?,
        }
        Ok(())
    }
}

/// Live entries of one [`LsmTree::reader`] call, in key order, each lent
/// until the next is asked for. Dropping it adds what it read to
/// [`LsmStats::entries_visited`].
pub struct LsmReader<'a> {
    merge: KWayMerge<'a>,
    shared: &'a Harness,
    _snapshot: Vec<Arc<Component>>,
    /// The cells to hand out of a leaf group's entry; `None`: its value.
    wanted: Option<Vec<usize>>,
    cells: Cells,
}

impl LsmReader<'_> {
    /// The next live entry: its key and what the read asked of it.
    pub fn next_entry(&mut self) -> Result<Option<(&[u8], Projected<'_>)>> {
        let LsmReader { merge, wanted, cells, .. } = self;
        let rank = loop {
            let Some(rank) = merge.next_rank()? else { return Ok(None) };
            let dead = match merge.cursor(rank) {
                Source::Mem { head, .. } => matches!(head, Some((_, Entry::Tombstone))),
                Source::Disk(at) => at.is_tombstone()?,
            };
            if !dead {
                break rank;
            }
        };
        let gone = || StorageError::Invalid("the merge named a cursor past its last entry".into());
        match merge.cursor(rank) {
            Source::Mem { head, .. } => match head {
                Some((key, Entry::Put(value))) => Ok(Some((key.as_slice(), Projected::Row(value)))),
                _ => Err(gone()),
            },
            Source::Disk(at) => match wanted {
                Some(wanted) => {
                    cells.clear();
                    at.cells(wanted, cells)?;
                    Ok(Some((at.key().ok_or_else(gone)?, Projected::Cells(cells))))
                }
                None => {
                    let (key, value) = at.entry()?;
                    Ok(Some((key, Projected::Row(value.ok_or_else(gone)?))))
                }
            },
        }
    }

    /// Appends the next live entries, `limit` of them at most, to `builder`
    /// — of each what the builder's projection reads of a record — and
    /// returns the key of the last one when it stopped at the limit, `None`
    /// when the range ran out first. The merge decides entry by entry which
    /// version of a key is the newest and whether it is a delete marker; a
    /// memory component's winner is appended from its row as it is met, and
    /// the winners that follow one another out of one leaf group are
    /// appended together, a chunk at a time, once something else comes
    /// between them or the group ends. For a tree that has a layout.
    pub fn fill(&mut self, builder: &mut BatchBuilder<'_>, limit: usize) -> Result<Option<Vec<u8>>> {
        let LsmReader { merge, shared, .. } = self;
        if shared.config.leaves.layout().is_none() {
            return Err(StorageError::Invalid(format!("index {} has no record layout to read fields by", shared.config.name)));
        }
        // the winners not yet appended: runs of entry numbers in the leaf
        // group the cursor of rank `pending.0` stands in
        let mut pending: (usize, Vec<std::ops::Range<usize>>) = (0, Vec::new());
        let flush = |merge: &mut KWayMerge<'_>, pending: &mut (usize, Vec<_>), builder: &mut BatchBuilder<'_>| {
            if let (false, Source::Disk(at)) = (pending.1.is_empty(), merge.cursor(pending.0)) {
                at.append_entries(&pending.1, builder)?;
            }
            pending.1.clear();
            Ok::<(), StorageError>(())
        };
        let mut taken = 0;
        while taken < limit {
            let Some(rank) = merge.next_rank()? else {
                flush(merge, &mut pending, builder)?;
                return Ok(None);
            };
            if rank != pending.0 {
                flush(merge, &mut pending, builder)?;
                pending.0 = rank;
            }
            let (live, leaves_group) = match merge.cursor(rank) {
                Source::Mem { head: Some((_, Entry::Put(row))), .. } => {
                    builder.push_row(row)?;
                    (true, false)
                }
                Source::Mem { .. } => (false, false),
                Source::Disk(at) => {
                    let (idx, entries) = at.group_place()?;
                    let live = !at.is_tombstone()?;
                    match pending.1.last_mut() {
                        _ if !live => {}
                        Some(run) if run.end == idx => run.end += 1,
                        _ => pending.1.push(idx..idx + 1),
                    }
                    // its cursor is in another group once it steps on
                    (live, idx + 1 == entries)
                }
            };
            if leaves_group {
                flush(merge, &mut pending, builder)?;
            }
            taken += usize::from(live);
        }
        flush(merge, &mut pending, builder)?;
        Ok(merge.taken_key().map(<[u8]>::to_vec))
    }
}

impl Drop for LsmReader<'_> {
    fn drop(&mut self) {
        self.shared.count_visited(self.merge.pulled());
    }
}

/// Live `(key, value)` pairs of one [`LsmTree::range_iter`] call, in key
/// order.
pub struct LsmRangeIter<'a>(LsmReader<'a>);

impl Iterator for LsmRangeIter<'_> {
    type Item = Result<(Vec<u8>, Vec<u8>)>;

    fn next(&mut self) -> Option<Self::Item> {
        match self.0.next_entry() {
            Ok(Some((key, Projected::Row(value)))) => Some(Ok((key.to_vec(), value.to_vec()))),
            Ok(Some((_, Projected::Cells(_)))) => {
                Some(Err(StorageError::Invalid("a read of whole values was handed cells".into())))
            }
            Ok(None) => None,
            Err(e) => Some(Err(e)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compaction::{BackgroundExecutor, BackgroundJob, JobStep};
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

    fn k(i: i64) -> Vec<u8> {
        encode_key(&[Value::Int(i)])
    }

    fn small_config(name: &str, policy: MergePolicy) -> LsmConfig {
        LsmConfig {
            mem_budget: 4 << 10, // tiny: force frequent flushes
            merge_policy: policy,
            ..LsmConfig::new(name)
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
        let before = cache.stats().physical_reads();
        for i in 100_000..100_200 {
            assert!(t.get(&k(i)).unwrap().is_none());
        }
        assert_eq!(cache.stats().physical_reads(), before);
    }

    /// A merge's bloom filter is sized for the keys it keeps, not for its
    /// inputs' entries: five components over overlapping keys merge into the
    /// very file a flush of their distinct keys writes, and every key is
    /// found through it.
    #[test]
    fn a_merged_bloom_is_sized_for_the_keys_it_keeps() {
        let (cache, dir) = setup();
        let mut merged = LsmTree::new(cache.clone(), manual_config("m", MergePolicy::NoMerge));
        let mut model = std::collections::BTreeMap::new();
        for c in 0..5 {
            for i in c * 100..c * 100 + 400 {
                merged.upsert(k(i), format!("v{c}-{i}").into_bytes()).unwrap();
                model.insert(i, format!("v{c}-{i}").into_bytes());
            }
            merged.flush().unwrap();
        }
        merged.merge_newest(5).unwrap();
        let mut flushed = LsmTree::new(cache.clone(), manual_config("f", MergePolicy::NoMerge));
        for (i, v) in &model {
            flushed.upsert(k(*i), v.clone()).unwrap();
        }
        flushed.flush().unwrap();
        let image = |t: &LsmTree| {
            let [component] = t.shared.snapshot().try_into().ok().unwrap();
            std::fs::read(dir.path().join(cache.manager().name_of(component.disk.file()).unwrap())).unwrap()
        };
        assert_eq!(image(&merged), image(&flushed), "2 000 entries merged into 800 keys");
        for (i, v) in &model {
            assert_eq!(merged.get(&k(*i)).unwrap().as_deref(), Some(v.as_slice()), "key {i}");
        }
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

    // -- background compaction ---------------------------------------------

    /// Runs each job on a thread of its own.
    struct OnThread;

    impl BackgroundExecutor for OnThread {
        fn offload(&self, job: Arc<dyn BackgroundJob>) {
            std::thread::spawn(move || while job.step() == JobStep::Again {});
        }
    }

    #[test]
    fn background_executor_merges_off_the_write_path() {
        let (cache, _d) = setup();
        cache.stats().lsm().install_executor(Arc::new(OnThread));
        let mut t = LsmTree::new(
            cache,
            small_config("t", MergePolicy::Constant { max_components: 3 }),
        );
        for i in 0..5_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        assert!(t.run_merges_to_idle(), "merges drained");
        assert!(t.stats().merges > 0);
        assert!(t.component_count() <= 3 + 1);
        assert_eq!(t.count().unwrap(), 5_000);
        for i in (0..5_000).step_by(131) {
            assert_eq!(t.get(&k(i)).unwrap().unwrap(), vec![b'x'; 64]);
        }
    }

    #[test]
    fn amplification_metrics_flow_to_the_hub() {
        let (cache, _d) = setup();
        let registry = Arc::clone(cache.stats().registry());
        let node = |name: &str| registry.snapshot().counter(&format!("storage.lsm.{name}"));
        let mut t = LsmTree::new(cache, manual_config("t", MergePolicy::NoMerge));
        for i in 0..1_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        t.flush().unwrap();
        for i in 1_000..2_000 {
            t.upsert(k(i), vec![b'x'; 64]).unwrap();
        }
        t.flush().unwrap();
        assert_eq!(node("write_amp"), Some(1000), "flush-only: write amp 1.0");
        t.merge_newest(2).unwrap();
        assert_eq!(node("write_amp"), Some(2000), "full rewrite doubles it");
        assert!(node("space_amp") >= Some(1000), "total >= live");
        let _ = t.get(&k(1)).unwrap();
        assert!(node("read_amp") >= Some(1000), "post-merge point read probes 1 comp");
        assert_eq!(registry.snapshot().gauge("storage.lsm.merge_inflight"), Some(0));
        assert_eq!(Some(t.stats().merge_stall_ns), node("merge_stall_ns"));
        assert!(t.stats().merge_stall_ns > 0, "a merge run on the caller is stall time");
    }
}
