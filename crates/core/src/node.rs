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
//! segments not yet wholly below every primary index's flushed LSN. The log
//! is a [`NodeLog`], which owns what it logs, syncs and unlinks; each
//! partition's settle goes through it ([`NodeLog::settle`]), which rotates
//! the log when a primary sealed a memory component and truncates it when
//! one published (DESIGN.md, "Durability").

use crate::error::{CoreError, Result};
use asterix_storage::cache::BufferCache;
use asterix_storage::faults::FaultInjector;
use asterix_storage::io::FileManager;
use asterix_storage::stats::IoStats;
use asterix_storage::wal::NodeLog;
use std::path::{Path, PathBuf};
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// File-name prefix of a node's log segments (`node-<base-lsn>.wal`).
const WAL_PREFIX: &str = "node";

/// One storage node.
#[expect(clippy::disallowed_types, reason = "alive: SeqCst, so a kill is one point in every thread's order: a check after it sees the node down")]
pub struct Node {
    pub id: usize,
    pub dir: PathBuf,
    pub cache: Arc<BufferCache>,
    pub log: NodeLog,
    /// Simulated liveness. A killed node keeps its on-disk state (directory,
    /// WAL) but refuses all data access until [`Node::restart`] — the
    /// in-process stand-in for a machine dropping out of the cluster.
    alive: std::sync::atomic::AtomicBool,
}

impl Node {
    /// Opens (or creates) a node rooted at `dir` with a buffer cache of
    /// `cache_pages` frames, whose I/O paths (page files and WAL) consult
    /// `faults`.
    pub fn open(
        id: usize,
        dir: impl AsRef<Path>,
        cache_pages: usize,
        faults: Option<Arc<FaultInjector>>,
    ) -> Result<Arc<Node>> {
        let dir = dir.as_ref().to_path_buf();
        std::fs::create_dir_all(&dir)?;
        // A component file is durable state only if a manifest names it; the
        // rest is what a crash stranded mid-flush, mid-merge or mid-publish.
        asterix_storage::lsm::sweep_unreferenced(&dir)?;
        if cfg!(debug_assertions) {
            asterix_storage::lsm::audit_directory(&dir)?;
        }
        let stats = IoStats::new();
        let fm = FileManager::with_faults(&dir, stats, faults.clone())?;
        let cache = BufferCache::new(fm, cache_pages);
        // the log counts into the registry the node's pages and indexes do
        let registry = cache.stats().registry();
        let log = NodeLog::open(&dir, WAL_PREFIX, faults, registry)?;
        Ok(Arc::new(Node { id, dir, cache, log, alive: true.into() }))
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
}

/// The cluster controller's view of the nodes.
pub struct Cluster {
    pub nodes: Vec<Arc<Node>>,
}

impl Cluster {
    /// Opens a cluster of `n` nodes under `root` (one subdirectory each),
    /// each with a buffer cache of `cache_pages` frames. The nodes share the
    /// one [`FaultInjector`]: a single global I/O counter gives crash points
    /// a total order across nodes.
    pub fn open(root: impl AsRef<Path>, n: usize, cache_pages: usize, faults: Option<Arc<FaultInjector>>) -> Result<Cluster> {
        let mut nodes = Vec::with_capacity(n.max(1));
        for i in 0..n.max(1) {
            let dir = root.as_ref().join(format!("node{i}"));
            nodes.push(Node::open(i, dir, cache_pages, faults.clone())?);
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
        let c = Cluster::open(&root, 3, 16, None).unwrap();
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
            let n = Node::open(0, &dir, 16, None).unwrap();
            let mut t = LsmTree::new(Arc::clone(&n.cache), LsmConfig::new("ds_p0_pri"));
            t.upsert(b"k".to_vec(), b"v".to_vec()).unwrap();
            t.flush().unwrap();
        }
        std::fs::write(dir.join("ds_p0_pri_c9.btree"), b"a merge output nobody published").unwrap();
        std::fs::write(dir.join("other_c1.btree"), b"stale component").unwrap();
        std::fs::write(dir.join("ds_p0_pri.manifest.tmp"), b"half a manifest").unwrap();
        let n = Node::open(0, &dir, 16, None).unwrap();
        assert!(dir.join("ds_p0_pri_c1.btree").exists(), "the manifest names it");
        assert!(dir.join("ds_p0_pri.manifest").exists());
        for orphan in ["ds_p0_pri_c9.btree", "other_c1.btree", "ds_p0_pri.manifest.tmp"] {
            assert!(!dir.join(orphan).exists(), "{orphan} kept");
        }
        let t = LsmTree::reopen(Arc::clone(&n.cache), LsmConfig::new("ds_p0_pri")).unwrap();
        assert_eq!(t.get(b"k").unwrap().as_deref(), Some(b"v".as_slice()));
        assert!(wal_files(&dir) >= 1, "the log must survive reopen");
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn zero_nodes_clamps_to_one() {
        let root = tmp();
        let c = Cluster::open(&root, 0, 4, None).unwrap();
        assert_eq!(c.nodes.len(), 1);
        let _ = std::fs::remove_dir_all(&root);
    }
}
