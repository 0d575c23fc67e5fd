//! The LSM (Log-Structured Merge) B+ tree (paper Figure 2, Section III item
//! 5): every dataset partition is an LSM B+ tree; B+-tree and keyword
//! secondary indexes are built from it.
//!
//! Writes go to an in-memory component ([`MemComponent`]); when it exceeds its
//! ingestion-buffer budget it is sealed and *flushed* — bulk-loaded into an
//! immutable on-disk B+ tree component — as soon as no open transaction has
//! written into it. Deletes insert tombstones ("anti-matter"). Reads consult
//! the memory components and then disk components newest-first, with
//! per-component bloom filters short-circuiting point lookups. A pluggable
//! [`MergePolicy`] decides when to merge disk components (experiment E8
//! compares the policies).
//!
//! Only what is B+-tree-specific lives here: the memory component, the entry
//! encoding, the k-way merge, blooms and value compression. The component
//! list and its manifest, ids, sealing, merge scheduling, publishing and
//! retirement are the shared lifecycle in `crate::harness`, which this tree
//! rides as one `ComponentKind`.

use crate::btree::{BTreeBuilder, BTreeRangeIter, DiskBTree};
use crate::cache::BufferCache;
use crate::error::{Result, StorageError};
use crate::harness::{Built, Component, ComponentKind, Harness, MemBuf};
use crate::io::FileId;
use std::borrow::Cow;
use std::collections::BTreeMap;
use std::ops::Bound;
use std::sync::Arc;

pub use crate::harness::{
    manifest_names, remove_index_files, sweep_unreferenced, Lsm, LsmIndex, LsmStats, MergePolicy,
};

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
        Ok(if Entry::is_tombstone(buf)? { Entry::Tombstone } else { Entry::Put(buf[1..].to_vec()) })
    }

    /// Whether `buf` encodes a delete marker: the marker byte, in place.
    fn is_tombstone(buf: &[u8]) -> Result<bool> {
        match buf.first() {
            Some(0) => Ok(false),
            Some(1) => Ok(true),
            _ => Err(StorageError::Corrupt("bad LSM entry marker".into())),
        }
    }
}

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

    /// Approximate buffered bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// Inserts/overwrites a key.
    pub fn put(&mut self, key: Vec<u8>, value: Vec<u8>) {
        self.bytes += key.len() + value.len() + 32;
        self.map.insert(key, Entry::Put(value));
    }

    /// Inserts a tombstone.
    pub fn delete(&mut self, key: Vec<u8>) {
        self.bytes += key.len() + 32;
        self.map.insert(key, Entry::Tombstone);
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
    pub fn range(
        &self,
        lo: Bound<&[u8]>,
        hi: Bound<&[u8]>,
    ) -> impl Iterator<Item = (&Vec<u8>, &Entry)> {
        // `BTreeMap::range` panics on such bounds
        let empty = match (lo, hi) {
            (Bound::Included(l), Bound::Included(h)) => l > h,
            (Bound::Included(l) | Bound::Excluded(l), Bound::Included(h) | Bound::Excluded(h)) => l >= h,
            _ => false,
        };
        (!empty).then(|| self.map.range::<[u8], _>((lo, hi))).into_iter().flatten()
    }
}

impl MemBuf for MemComponent {
    fn bytes(&self) -> usize {
        self.bytes
    }

    fn is_empty(&self) -> bool {
        self.map.is_empty()
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

// ---------------------------------------------------------------------------
// The k-way merge and the merge run
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
            if best.is_none_or(|(_, bkey)| key.as_slice() < bkey) {
                best = Some((rank, key));
            }
        }
        let Some((winner_rank, _)) = best else { return Ok(None) };
        let winner = self.heads[winner_rank].take();
        let Some((winner_key, _)) = &winner else { return Ok(None) };
        for rank in winner_rank + 1..self.heads.len() {
            while matches!(&self.heads[rank], Some((k, _)) if k == winner_key) {
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

/// In-progress compaction: the merge over the input components' raw entries,
/// each read outside the buffer cache, plus the output builder.
pub struct MergeRun {
    merge: KWayMerge<BTreeRangeIter, Vec<u8>>,
    builder: BTreeBuilder,
    /// Nothing older than the inputs exists: dead tombstones are dropped.
    includes_oldest: bool,
    written: u64,
}

// ---------------------------------------------------------------------------
// The B+-tree component kind
// ---------------------------------------------------------------------------

/// What the lifecycle harness needs to know about B+-tree components: one
/// `<name>_c<id>.btree` file each, merged by a k-way merge in which the
/// newest version of a key wins.
pub struct BTreeKind {
    cache: Arc<BufferCache>,
    config: LsmConfig,
}

impl BTreeKind {
    /// Applies the optional value compression at the disk boundary.
    fn encode_disk(&self, raw: &[u8]) -> Vec<u8> {
        if self.config.compress_values {
            crate::compress::compress(raw)
        } else {
            raw.to_vec()
        }
    }

    /// Reverses [`BTreeKind::encode_disk`]: in place unless values are
    /// compressed.
    fn decode_disk<'a>(&self, raw: &'a [u8]) -> Result<Cow<'a, [u8]>> {
        if self.config.compress_values {
            crate::compress::decompress(raw).map(Cow::Owned).map_err(StorageError::Corrupt)
        } else {
            Ok(Cow::Borrowed(raw))
        }
    }

    /// Opens the file of component `id` for bulk loading about
    /// `expected_keys` entries (which sizes the bloom filter, if any).
    fn builder(&self, id: u64, expected_keys: usize) -> Result<BTreeBuilder> {
        let name = format!("{}_c{}.btree", self.config.name, id);
        let writer = self.cache.manager().bulk_writer(&name)?;
        Ok(BTreeBuilder::new(writer, if self.config.bloom { expected_keys } else { 0 }))
    }

    /// Seals a bulk-loaded component file.
    fn seal(&self, builder: BTreeBuilder, written: u64) -> Result<Built<DiskBTree>> {
        let built = builder.finish()?;
        let size_bytes = self.cache.manager().page_count(built.file)? * crate::io::PAGE_SIZE as u64;
        let disk = DiskBTree::from_built(Arc::clone(&self.cache), built);
        Ok(Built { disk, size_bytes, written })
    }
}

impl ComponentKind for BTreeKind {
    type Config = LsmConfig;
    type Mem = MemComponent;
    type Disk = DiskBTree;
    type Run = MergeRun;

    fn new(cache: Arc<BufferCache>, config: LsmConfig) -> Self {
        BTreeKind { cache, config }
    }

    fn cache(&self) -> &Arc<BufferCache> {
        &self.cache
    }

    fn name(&self) -> &str {
        &self.config.name
    }

    fn mem_budget(&self) -> usize {
        self.config.mem_budget
    }

    fn merge_policy(&self) -> MergePolicy {
        self.config.merge_policy
    }

    fn flush(&self, id: u64, mem: &MemComponent) -> Result<Built<DiskBTree>> {
        let mut builder = self.builder(id, mem.len())?;
        for (k, e) in mem.iter() {
            builder.add(k, &self.encode_disk(&e.encode()))?;
        }
        self.seal(builder, mem.len() as u64)
    }

    fn files(disk: &DiskBTree) -> Vec<FileId> {
        vec![disk.file()]
    }

    fn reopen(&self, files: &[FileId]) -> Result<DiskBTree> {
        match files {
            [file] => DiskBTree::open(Arc::clone(&self.cache), *file),
            _ => Err(StorageError::Corrupt(format!(
                "B+-tree component of {} lists {} files",
                self.config.name,
                files.len()
            ))),
        }
    }

    /// Allocates the output file and the per-input scan iterators.
    fn open(
        &self,
        id: u64,
        inputs: &[Arc<Component<Self>>],
        includes_oldest: bool,
    ) -> Result<MergeRun> {
        let expected: u64 = inputs.iter().map(|c| c.disk.len()).sum();
        let builder = self.builder(id, expected as usize)?;
        let streams = inputs.iter().map(|comp| comp.disk.scan_uncached()).collect::<Result<_>>()?;
        Ok(MergeRun { merge: KWayMerge::new(streams), builder, includes_oldest, written: 0 })
    }

    /// Advances the k-way merge by up to `budget` input keys (newest rank
    /// wins on duplicates; a dropped tombstone still costs budget).
    fn step(&self, run: &mut MergeRun, budget: usize) -> Result<bool> {
        for _ in 0..budget.max(1) {
            let Some(next) = run.merge.next() else { return Ok(true) };
            let (key, raw) = next?;
            // a delete marker is dead only when nothing older is left to mask
            if run.includes_oldest && Entry::is_tombstone(&self.decode_disk(&raw)?)? {
                continue;
            }
            // stored bytes move as-is: merges never recompress
            run.builder.add(&key, &raw)?;
            run.written += 1;
        }
        Ok(false)
    }

    fn finish(&self, run: MergeRun) -> Result<Built<DiskBTree>> {
        self.seal(run.builder, run.written)
    }
}

// ---------------------------------------------------------------------------
// The LSM tree
// ---------------------------------------------------------------------------

/// An LSM B+ tree index over encoded composite keys: the [`Lsm`] lifecycle
/// plus the reads and writes below.
pub type LsmTree = Lsm<BTreeKind>;

impl Lsm<BTreeKind> {
    /// The configuration.
    pub fn config(&self) -> &LsmConfig {
        &self.kind().config
    }

    /// Entries currently buffered in memory.
    pub fn mem_entries(&self) -> usize {
        self.mem.newest_first().map(MemComponent::len).sum()
    }

    /// Inserts or replaces `key`. Past the budget the memory component is
    /// sealed, and flushed unless an open transaction wrote into it.
    pub fn upsert(&mut self, key: Vec<u8>, value: Vec<u8>) -> Result<()> {
        self.shared.count_ingested();
        self.mem.active_mut().put(key, value);
        self.settle(false)
    }

    /// Deletes `key` (tombstone insert).
    pub fn delete(&mut self, key: Vec<u8>) -> Result<()> {
        self.shared.count_ingested();
        self.mem.active_mut().delete(key);
        self.settle(false)
    }

    /// Point lookup: memory components, then disk components newest-first.
    pub fn get(&self, key: &[u8]) -> Result<Option<Vec<u8>>> {
        if let Some(entry) = self.mem.newest_first().find_map(|m| m.get(key)) {
            self.shared.count_point_read(0);
            return Ok(match entry {
                Entry::Put(v) => Some(v.clone()),
                Entry::Tombstone => None,
            });
        }
        let disk = self.shared.snapshot();
        let mut probes = 0u64;
        let mut found = None;
        for comp in &disk {
            if !comp.disk.may_contain(key) {
                continue;
            }
            probes += 1;
            if let Some(raw) = comp.disk.get(key)? {
                found = Some(raw);
                break;
            }
        }
        self.shared.count_point_read(probes);
        match found {
            None => Ok(None),
            Some(raw) => match Entry::decode(&self.kind().decode_disk(&raw)?)? {
                Entry::Put(v) => Ok(Some(v)),
                Entry::Tombstone => Ok(None),
            },
        }
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
        let kind = self.kind();
        let owned = |b: Bound<&[u8]>| b.map(<[u8]>::to_vec);
        // Per-source ordered streams: rank 0 = the active memory component
        // (newest), then the sealed one, then disk.
        let mut streams: Vec<EntryStream<'_>> = Vec::with_capacity(snapshot.len() + 2);
        for mem in self.mem.newest_first() {
            streams.push(Box::new(
                mem.range(lo, hi).map(|(k, e)| Ok((k.clone(), e.clone()))),
            ));
        }
        for comp in &snapshot {
            let it = comp.disk.range(lo, owned(hi))?;
            streams.push(Box::new(it.map(move |r| {
                r.and_then(|(k, raw)| Ok((k, Entry::decode(&kind.decode_disk(&raw)?)?)))
            })));
        }
        Ok(LsmRangeIter { merge: KWayMerge::new(streams), shared: &self.shared, _snapshot: snapshot })
    }

    /// [`Lsm::range_iter`], materialized.
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

    /// Live entry count: walks the index once, holding one entry at a time.
    pub fn count(&self) -> Result<usize> {
        self.range_iter(Bound::Unbounded, Bound::Unbounded)?.map(|e| e.map(|_| 1)).sum()
    }
}

type EntryStream<'a> = Box<dyn Iterator<Item = Result<(Vec<u8>, Entry)>> + 'a>;

/// Live `(key, value)` pairs of one [`LsmTree::range_iter`] call, in key
/// order. Dropping it adds what it read to [`LsmStats::entries_visited`].
pub struct LsmRangeIter<'a> {
    merge: KWayMerge<EntryStream<'a>, Entry>,
    shared: &'a Harness<BTreeKind>,
    _snapshot: Vec<Arc<Component<BTreeKind>>>,
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
        self.shared.count_visited(self.merge.pulled());
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
    use std::time::Duration;

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
        let before = cache.stats().physical_reads();
        for i in 100_000..100_200 {
            assert!(t.get(&k(i)).unwrap().is_none());
        }
        assert_eq!(cache.stats().physical_reads(), before);
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
        let mut t = LsmTree::new(
            cache,
            small_config("t", MergePolicy::Constant { max_components: 3 }),
        );
        t.set_executor(Arc::new(OnThread));
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
