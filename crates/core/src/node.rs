//! Storage nodes and the simulated shared-nothing cluster (paper Figure 1).
//!
//! Each [`Node`] owns an I/O device directory, a buffer cache sized from the
//! node's memory budget (Figure 2), and a write-ahead log. The real system's
//! network is substituted by in-process handles; everything else — per-node
//! storage partitions, per-node caches, per-node logs — matches the paper's
//! architecture (see DESIGN.md, substitutions table).
//!
//! What a node's directory holds across a restart is its LSM disk components
//! — exactly those some index manifest names — and the tail of its log: the
//! segments not yet wholly below every primary index's flushed LSN. A primary
//! index sealing a memory component rotates the log; one publishing a flush
//! unlinks the segments that flush left behind (DESIGN.md, "Durability").

use crate::error::{CoreError, Result};
use asterix_storage::cache::{BufferCache, CacheOptions};
use asterix_storage::faults::FaultInjector;
use asterix_storage::io::FileManager;
use asterix_storage::lock_order::{Level, Mutex};
use asterix_storage::stats::IoStats;
use asterix_storage::wal::{GroupCommit, Lsn, ReplayOp, SegmentedWal};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// File-name prefix of a node's log segments (`node-<base-lsn>.wal`).
const WAL_PREFIX: &str = "node";

/// One storage node.
pub struct Node {
    pub id: usize,
    pub dir: PathBuf,
    pub cache: Arc<BufferCache>,
    pub wal: Mutex<SegmentedWal>,
    /// Group-commit protocol for this node's WAL: committers append under
    /// [`Node::wal`], then call [`GroupCommit::sync_through`] so concurrent
    /// commits share one fdatasync (see `asterix_storage::wal::GroupCommit`).
    pub wal_group: Arc<GroupCommit>,
    /// Simulated liveness. A killed node keeps its on-disk state (directory,
    /// WAL) but refuses all data access until [`Node::restart`] — the
    /// in-process stand-in for a machine dropping out of the cluster.
    alive: AtomicBool,
    /// Per primary index on this node, the LSN of the oldest log record it
    /// holds only in memory (`Lsn::MAX`: none). Each is written under its
    /// partition's lock and read under the WAL lock.
    log_pins: Mutex<BTreeMap<String, Arc<AtomicU64>>>,
    /// Operations of committed transactions found in the log at open, until
    /// recovery takes them.
    recovered_ops: Mutex<Vec<ReplayOp>>,
    /// Set while recovery replays the log: the tail being replayed is not in
    /// any memory component yet, so nothing may be truncated.
    checkpoints_paused: AtomicBool,
    /// A rotation was asked for while paused.
    rotation_owed: AtomicBool,
}

impl Node {
    /// Opens (or creates) a fault-free node rooted at `dir` with a buffer
    /// cache of `cache_pages` frames (tests).
    pub fn open(id: usize, dir: impl AsRef<Path>, cache_pages: usize) -> Result<Arc<Node>> {
        Node::open_with_opts(id, dir, CacheOptions::with_capacity(cache_pages), None)
    }

    /// Opens (or creates) a node rooted at `dir` with explicit buffer-cache
    /// options, whose I/O paths (page files and WAL) consult `faults`.
    pub fn open_with_opts(
        id: usize,
        dir: impl AsRef<Path>,
        cache_opts: CacheOptions,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Arc<Node>> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // A component file is durable state only if a manifest names it; the
        // rest is what a crash stranded mid-flush, mid-merge or mid-publish.
        asterix_storage::lsm::sweep_unreferenced(&dir)?;
        let stats = IoStats::new();
        let fm = FileManager::with_faults(&dir, stats, faults.clone())?;
        let cache = BufferCache::with_options(fm, cache_opts);
        // the log counts into the registry the node's pages and indexes do
        let registry = cache.stats().registry();
        let (wal, recovered_ops) = SegmentedWal::recover(&dir, WAL_PREFIX, faults, registry)?;
        let wal_group = Arc::new(GroupCommit::new(registry));
        Ok(Arc::new(Node {
            id,
            dir,
            cache,
            wal: Mutex::ranked(Level::Wal, wal),
            wal_group,
            alive: AtomicBool::new(true),
            log_pins: Mutex::ranked(Level::LogPins, BTreeMap::new()),
            recovered_ops: Mutex::new(recovered_ops),
            checkpoints_paused: AtomicBool::new(false),
            rotation_owed: AtomicBool::new(false),
        }))
    }

    /// Simulates the node dropping out of the cluster: durable state stays
    /// on disk, but every access via [`Node::check_alive`] fails until
    /// [`Node::restart`]. Returns true when the node was alive.
    pub fn kill(&self) -> bool {
        self.alive.swap(false, Ordering::SeqCst)
    }

    /// Brings a killed node back. Durable state was never lost (components
    /// and log are on disk); returns true when the node was actually down.
    pub fn restart(&self) -> bool {
        !self.alive.swap(true, Ordering::SeqCst)
    }

    /// True while the node accepts work.
    pub fn is_alive(&self) -> bool {
        self.alive.load(Ordering::SeqCst)
    }

    /// Ok while alive; the typed transient [`CoreError::NodeDown`] otherwise.
    /// Data paths (scans, writes) call this before touching node storage.
    pub fn check_alive(&self) -> Result<()> {
        if self.is_alive() {
            Ok(())
        } else {
            Err(CoreError::NodeDown(self.id))
        }
    }

    /// The node's I/O statistics.
    pub fn stats(&self) -> &Arc<IoStats> {
        self.cache.stats()
    }

    /// The committed operations the log held when the node was opened (once:
    /// recovery replays them).
    pub fn take_recovered_ops(&self) -> Vec<ReplayOp> {
        std::mem::take(&mut *self.recovered_ops.lock())
    }

    /// The cell in which primary index `index` publishes the LSN of the
    /// oldest log record it holds only in memory; the log keeps everything
    /// from there on.
    pub fn log_pin(&self, index: &str) -> Arc<AtomicU64> {
        let mut pins = self.log_pins.lock();
        Arc::clone(pins.entry(index.to_string()).or_insert_with(|| Arc::new(AtomicU64::new(Lsn::MAX))))
    }

    /// Primary index `index` is gone and holds nothing back any more.
    pub fn drop_log_pin(&self, index: &str) {
        self.log_pins.lock().remove(index);
    }

    /// A primary index sealed a memory component: starts a new log segment,
    /// so that the records the sealed component covers end with the old one.
    pub fn rotate_log(&self) -> Result<()> {
        if self.checkpoints_paused.load(Ordering::Acquire) {
            self.rotation_owed.store(true, Ordering::Release);
            return Ok(());
        }
        Ok(self.wal.lock().rotate()?)
    }

    /// A primary index published a flush: unlinks the log segments that lie
    /// wholly below what every primary index still holds only in memory.
    pub fn truncate_log(&self) -> Result<()> {
        if self.checkpoints_paused.load(Ordering::Acquire) {
            return Ok(());
        }
        let mut wal = self.wal.lock();
        // read under the WAL lock: a writer's records are either behind its
        // index's pin or, until its transaction finishes, in the log's own
        // in-flight table
        let pin = self.log_pins.lock().values().map(|p| p.load(Ordering::Acquire)).min();
        Ok(wal.truncate_below(pin.unwrap_or(Lsn::MAX))?)
    }

    /// Recovery is about to replay the log tail: until
    /// [`Node::resume_checkpoints`], no rotation and no truncation.
    pub fn pause_checkpoints(&self) {
        self.checkpoints_paused.store(true, Ordering::Release);
    }

    /// Replay is done: catches up on a rotation a replay-time flush asked for.
    pub fn resume_checkpoints(&self) -> Result<()> {
        self.checkpoints_paused.store(false, Ordering::Release);
        if self.rotation_owed.swap(false, Ordering::AcqRel) {
            self.rotate_log()?;
            self.truncate_log()?;
        }
        Ok(())
    }
}

/// The cluster controller's view of the nodes.
pub struct Cluster {
    pub nodes: Vec<Arc<Node>>,
}

impl Cluster {
    /// Opens a fault-free cluster of `n` nodes under `root` (tests).
    pub fn open(root: impl AsRef<Path>, n: usize, cache_pages_per_node: usize) -> Result<Cluster> {
        Cluster::open_with_opts(root, n, CacheOptions::with_capacity(cache_pages_per_node), None)
    }

    /// Opens a cluster of `n` nodes under `root` (one subdirectory each)
    /// with explicit per-node buffer-cache options. The nodes share the one
    /// [`FaultInjector`]: a single global I/O counter gives crash points a
    /// total order across nodes.
    pub fn open_with_opts(
        root: impl AsRef<Path>,
        n: usize,
        cache_opts: CacheOptions,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Cluster> {
        let mut nodes = Vec::with_capacity(n.max(1));
        for i in 0..n.max(1) {
            let dir = root.as_ref().join(format!("node{i}"));
            nodes.push(Node::open_with_opts(i, dir, cache_opts, faults.clone())?);
        }
        Ok(Cluster { nodes })
    }

    /// Node responsible for partition `p` (round-robin placement).
    pub fn node_for_partition(&self, p: usize) -> &Arc<Node> {
        &self.nodes[p % self.nodes.len()]
    }

    /// Aggregate physical reads across nodes.
    pub fn total_physical_reads(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats().physical_reads()).sum()
    }

    /// Kills node `id` (no-op on unknown ids). Returns true when a live
    /// node went down.
    pub fn kill_node(&self, id: usize) -> bool {
        self.nodes.get(id).is_some_and(|n| n.kill())
    }

    /// Restarts node `id`. Returns true when a dead node came back.
    pub fn restart_node(&self, id: usize) -> bool {
        self.nodes.get(id).is_some_and(|n| n.restart())
    }

    /// Ids of nodes currently down.
    pub fn dead_nodes(&self) -> Vec<usize> {
        self.nodes.iter().filter(|n| !n.is_alive()).map(|n| n.id).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp() -> PathBuf {
        let p = std::env::temp_dir().join(format!(
            "asterix-core-node-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&p).unwrap();
        p
    }

    /// Log segment files under `dir`.
    fn wal_files(dir: &Path) -> usize {
        std::fs::read_dir(dir)
            .unwrap()
            .filter(|e| e.as_ref().unwrap().file_name().to_string_lossy().ends_with(".wal"))
            .count()
    }

    #[test]
    fn cluster_opens_nodes_with_separate_devices() {
        let root = tmp();
        let c = Cluster::open(&root, 3, 16).unwrap();
        assert_eq!(c.nodes.len(), 3);
        assert_eq!(c.node_for_partition(0).id, 0);
        assert_eq!(c.node_for_partition(4).id, 1);
        for n in &c.nodes {
            assert!(n.dir.exists());
            assert_eq!(wal_files(&n.dir), 1);
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_keeps_what_a_manifest_names_and_deletes_the_rest() {
        use asterix_storage::lsm::{LsmConfig, LsmTree};
        let root = tmp();
        let dir = root.join("node0");
        {
            let n = Node::open(0, &dir, 16).unwrap();
            let mut t = LsmTree::new(Arc::clone(&n.cache), LsmConfig::new("ds_p0_pri"));
            t.upsert(b"k".to_vec(), b"v".to_vec()).unwrap();
            t.flush().unwrap();
        }
        std::fs::write(dir.join("ds_p0_pri_c9.btree"), b"a merge output nobody published").unwrap();
        std::fs::write(dir.join("other_c1.rtree"), b"stale component").unwrap();
        std::fs::write(dir.join("ds_p0_pri.manifest.tmp"), b"half a manifest").unwrap();
        let n = Node::open(0, &dir, 16).unwrap();
        assert!(dir.join("ds_p0_pri_c1.btree").exists(), "the manifest names it");
        assert!(dir.join("ds_p0_pri.manifest").exists());
        for orphan in ["ds_p0_pri_c9.btree", "other_c1.rtree", "ds_p0_pri.manifest.tmp"] {
            assert!(!dir.join(orphan).exists(), "{orphan} kept");
        }
        let t = LsmTree::reopen(Arc::clone(&n.cache), LsmConfig::new("ds_p0_pri")).unwrap();
        assert_eq!(t.get(b"k").unwrap().as_deref(), Some(b"v".as_slice()));
        assert!(wal_files(&dir) >= 1, "the log must survive reopen");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn panicked_wal_holder_does_not_wedge_the_node() {
        let root = tmp();
        let n = Node::open(0, root.join("node0"), 4).unwrap();
        let n2 = Arc::clone(&n);
        let _ = asterix_storage::lock_order::join(std::thread::spawn(move || {
            let _wal = n2.wal.lock();
            panic!("holder dies with the WAL guard live");
        }));
        // A bare std::sync::Mutex would now be poisoned and every later
        // lock().unwrap() would panic, wedging commit/rollback. The
        // lock_order mutex takes a poisoned lock as it is instead.
        {
            let mut wal = n.wal.lock();
            wal.append(&asterix_storage::wal::WalRecord::Commit { txn_id: 1 }).unwrap();
            wal.sync().unwrap();
        }
        // and reopening the same node directory still succeeds
        drop(n);
        let n = Node::open(0, root.join("node0"), 4).unwrap();
        assert_eq!(wal_files(&n.dir), 1);
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn zero_nodes_clamps_to_one() {
        let root = tmp();
        let c = Cluster::open(&root, 0, 4).unwrap();
        assert_eq!(c.nodes.len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
