//! Storage nodes and the simulated shared-nothing cluster (paper Figure 1).
//!
//! Each [`Node`] owns an I/O device directory, a buffer cache sized from the
//! node's memory budget (Figure 2), and a write-ahead log. The real system's
//! network is substituted by in-process handles; everything else — per-node
//! storage partitions, per-node caches, per-node logs — matches the paper's
//! architecture (see DESIGN.md, substitutions table).

use crate::error::{CoreError, Result};
use asterix_storage::cache::{BufferCache, CacheOptions};
use asterix_storage::faults::FaultInjector;
use asterix_storage::io::FileManager;
use asterix_storage::stats::IoStats;
use asterix_storage::wal::{GroupCommit, WalWriter};
use asterix_storage::lock_order::OrderedMutex;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

/// One storage node.
pub struct Node {
    pub id: usize,
    pub dir: PathBuf,
    pub cache: Arc<BufferCache>,
    pub wal: OrderedMutex<WalWriter>,
    /// Group-commit protocol for this node's WAL: committers append under
    /// [`Node::wal`], then call [`GroupCommit::sync_through`] so concurrent
    /// commits share one fdatasync (see `asterix_storage::wal::GroupCommit`).
    pub wal_group: Arc<GroupCommit>,
    /// Simulated liveness. A killed node keeps its on-disk state (directory,
    /// WAL) but refuses all data access until [`Node::restart`] — the
    /// in-process stand-in for a machine dropping out of the cluster.
    alive: AtomicBool,
}

impl Node {
    /// Opens (or creates) a node rooted at `dir` with a buffer cache of
    /// `cache_pages` frames.
    pub fn open(id: usize, dir: impl AsRef<Path>, cache_pages: usize) -> Result<Arc<Node>> {
        Node::open_with_faults(id, dir, cache_pages, None)
    }

    /// Opens a node whose I/O paths (page files and WAL) consult a
    /// [`FaultInjector`].
    pub fn open_with_faults(
        id: usize,
        dir: impl AsRef<Path>,
        cache_pages: usize,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Arc<Node>> {
        Node::open_with_opts(id, dir, CacheOptions::with_capacity(cache_pages), faults)
    }

    /// Opens a node with explicit buffer-cache shard/readahead options.
    pub fn open_with_opts( // xlint: allow(blocking, "node bring-up runs on the control plane before the worker pool serves jobs")
        id: usize,
        dir: impl AsRef<Path>,
        cache_opts: CacheOptions,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Arc<Node>> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // Discard non-durable LSM component files before anything reads
        // them: recovery rebuilds all components by replaying the committed
        // WAL into fresh trees, so any component left on disk is either an
        // orphan of a previous incarnation or a partial flush cut short by
        // a crash. Only the WAL itself carries durable state.
        discard_orphan_components(&dir)?;
        let stats = IoStats::new();
        let fm = FileManager::with_faults(&dir, stats, faults.clone())?;
        let cache = BufferCache::with_options(fm, cache_opts);
        let wal = WalWriter::open_with_faults(dir.join("node.wal"), faults)?;
        let wal_group = Arc::new(GroupCommit::default());
        {
            let reg = cache.stats().registry();
            let g = Arc::clone(&wal_group);
            reg.observed_counter("storage.wal.group_commits", move || g.rounds());
            let g = Arc::clone(&wal_group);
            reg.observed_counter("storage.wal.group_commit_waiters", move || g.waiters());
        }
        Ok(Arc::new(Node {
            id,
            dir,
            cache,
            wal: OrderedMutex::new("wal", wal),
            wal_group,
            alive: AtomicBool::new(true),
        }))
    }

    /// Simulates the node dropping out of the cluster: durable state stays
    /// on disk, but every access via [`Node::check_alive`] fails until
    /// [`Node::restart`]. Returns true when the node was alive.
    pub fn kill(&self) -> bool {
        self.alive.swap(false, Ordering::SeqCst)
    }

    /// Brings a killed node back. Durable state was never lost (the WAL is
    /// on disk); returns true when the node was actually down.
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

    /// Path of this node's WAL file.
    pub fn wal_path(&self) -> PathBuf {
        self.dir.join("node.wal")
    }
}

/// Removes everything in a node directory except the WAL (see the comment
/// in [`Node::open_with_faults`]).
fn discard_orphan_components(dir: &Path) -> std::io::Result<()> { // xlint: allow(blocking, "orphan cleanup is part of single-threaded node recovery")
    for entry in std::fs::read_dir(dir)? {
        let entry = entry?;
        if !entry.file_type()?.is_file() {
            continue;
        }
        if entry.file_name() != "node.wal" {
            std::fs::remove_file(entry.path())?;
        }
    }
    Ok(())
}

/// The cluster controller's view of the nodes.
pub struct Cluster {
    pub nodes: Vec<Arc<Node>>,
}

impl Cluster {
    /// Opens a cluster of `n` nodes under `root` (one subdirectory each).
    pub fn open(root: impl AsRef<Path>, n: usize, cache_pages_per_node: usize) -> Result<Cluster> {
        Cluster::open_with_faults(root, n, cache_pages_per_node, None)
    }

    /// Opens a cluster whose nodes share one [`FaultInjector`] (a single
    /// global I/O counter gives crash points a total order across nodes).
    pub fn open_with_faults(
        root: impl AsRef<Path>,
        n: usize,
        cache_pages_per_node: usize,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Cluster> {
        Cluster::open_with_opts(root, n, CacheOptions::with_capacity(cache_pages_per_node), faults)
    }

    /// Opens a cluster with explicit per-node buffer-cache options.
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

    /// Aggregate physical writes across nodes.
    pub fn total_physical_writes(&self) -> u64 {
        self.nodes.iter().map(|n| n.stats().physical_writes()).sum()
    }

    /// Resets all node I/O counters.
    pub fn reset_stats(&self) {
        for n in &self.nodes {
            n.stats().reset();
        }
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

    #[test]
    fn cluster_opens_nodes_with_separate_devices() {
        let root = tmp();
        let c = Cluster::open(&root, 3, 16).unwrap();
        assert_eq!(c.nodes.len(), 3);
        assert_eq!(c.node_for_partition(0).id, 0);
        assert_eq!(c.node_for_partition(4).id, 1);
        for n in &c.nodes {
            assert!(n.dir.exists());
            assert!(n.wal_path().exists());
        }
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn reopen_discards_orphan_components_but_keeps_wal() {
        let root = tmp();
        let dir = root.join("node0");
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("ds_c0.btree"), b"stale component").unwrap();
        std::fs::write(dir.join("ds_c1.rtree"), b"stale component").unwrap();
        let n = Node::open(0, &dir, 4).unwrap();
        assert!(!dir.join("ds_c0.btree").exists(), "orphan component kept");
        assert!(!dir.join("ds_c1.rtree").exists(), "orphan component kept");
        assert!(n.wal_path().exists(), "WAL must survive reopen");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn panicked_wal_holder_does_not_wedge_the_node() {
        let root = tmp();
        let n = Node::open(0, root.join("node0"), 4).unwrap();
        let n2 = Arc::clone(&n);
        let _ = std::thread::spawn(move || {
            let _wal = n2.wal.lock(); // xlint: lock(wal)
            panic!("holder dies with the WAL guard live");
        })
        .join();
        // With a std::sync::Mutex the WAL would now be poisoned and every
        // later lock().unwrap() would panic, wedging commit/rollback. The
        // parking_lot-style shim releases on unwind instead.
        {
            let mut wal = n.wal.lock(); // xlint: lock(wal)
            wal.append(&asterix_storage::wal::WalRecord::Commit { txn_id: 1 }).unwrap();
            wal.sync().unwrap();
        }
        // and reopening the same node directory still succeeds
        drop(n);
        let n = Node::open(0, root.join("node0"), 4).unwrap();
        assert!(n.wal_path().exists());
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
