//! Background LSM compaction: the executor contract and amplification
//! accounting.
//!
//! The component lifecycle (`crate::harness`) schedules merges; this
//! module is how they leave the write path while the crate dependency stays
//! one-way: storage defines a narrow [`BackgroundExecutor`] trait and the
//! runtime layer (hyracks' worker pool) implements it. A merge reaches an
//! executor as a [`BackgroundJob`] that advances one *morsel* of entries
//! ([`MERGE_MORSEL_ENTRIES`]) per [`BackgroundJob::step`] call.
//!
//! The [`LsmMetricsHub`] is what every tree of a node shares: the one
//! executor their merges run on — until the node is given another,
//! [`on_caller`], which keeps storage-level tests and benches
//! single-threaded — and the classic LSM cost triad, surfaced through the
//! shared `obs` registry as
//! `storage.lsm.{write_amp,read_amp,space_amp,merge_inflight,merge_stall_ns}`,
//! beside the lifecycle's own counts
//! `storage.lsm.{flushes,flushes_merged,merges,flush_wait_ns}`.

use crate::lock_order::Mutex;
use asterix_obs::{Counter, Gauge, MetricsRegistry};
use std::sync::Arc;

/// Entries merged per scheduling step: the compaction morsel. Mirrors the
/// scheduler's tuple morsel so a merge task shares the pool fairly with
/// query tasks, and a dropped index's merge ends within one morsel.
pub const MERGE_MORSEL_ENTRIES: usize = 1024;

// ---------------------------------------------------------------------------
// The narrow storage → runtime trait pair
// ---------------------------------------------------------------------------

/// Outcome of one bounded job step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStep {
    /// More work remains; schedule another step.
    Again,
    /// The job is finished (published or aborted).
    Done,
}

/// A resumable background task: the storage side of the compaction
/// off-loading contract. Implementations must make every `step` bounded
/// (one morsel of work).
pub trait BackgroundJob: Send + Sync {
    /// Run one bounded quantum of work.
    fn step(&self) -> JobStep;
}

/// Something that can run [`BackgroundJob`]s off the submitting thread.
/// The runtime layer implements this over its worker pool; storage never
/// learns what a worker is, keeping the crate dependency one-way.
pub trait BackgroundExecutor: Send + Sync {
    /// Accept `job` and drive its `step` to [`JobStep::Done`] eventually.
    fn offload(&self, job: Arc<dyn BackgroundJob>);
}

/// A shared handle on a [`BackgroundExecutor`]: what a node runs its
/// indexes' merges on.
pub type CompactionExec = Arc<dyn BackgroundExecutor>;

/// The executor a node starts with: the whole job, there and then, on the
/// thread that offloads it.
pub fn on_caller() -> CompactionExec {
    struct OnCaller;
    impl BackgroundExecutor for OnCaller {
        fn offload(&self, job: Arc<dyn BackgroundJob>) {
            while job.step() == JobStep::Again {}
        }
    }
    Arc::new(OnCaller)
}

// ---------------------------------------------------------------------------
// Node-wide LSM amplification accounting
// ---------------------------------------------------------------------------

/// What the trees sharing one [`crate::IoStats`] (a node) share: the executor
/// their merges run on, and their cost metrics, each the handle bumped.
///
/// The three amplification ratios are observed counters, computed at
/// snapshot time from the pairs of unregistered handles below and exported
/// in **milli-units** (amplification × 1000, so `1.0` reads as `1000`): the
/// registry's counters are integral, and three decimal places is plenty for
/// dashboarding the read/write/space trade-off.
pub struct LsmMetricsHub {
    entries_written: Counter,
    entries_ingested: Counter,
    reads: Counter,
    read_probes: Counter,
    disk_bytes_total: Gauge,
    disk_bytes_live: Gauge,
    merge_stall_ns: Counter,
    flushes: Counter,
    flushes_merged: Counter,
    merges: Counter,
    flush_wait_ns: Counter,
    retire_failures: Counter,
    merge_inflight: Gauge,
    /// Chunks of leaf groups opened by reads through the buffer cache: one
    /// per chunk per group a reader took bytes from.
    pub(crate) chunks_read: Counter,
    /// Whole rows put together from the cells of a leaf group.
    pub(crate) rows_assembled: Counter,
    /// Bytes the string chunks of the leaf groups flushes and merges wrote
    /// would take with every string as it is ...
    pub(crate) string_bytes_plain: Counter,
    /// ... and take as written, coded or not: one bump of each per group.
    pub(crate) string_bytes_coded: Counter,
    /// Where the node's merges run: cloned out before a job is offloaded.
    pub(crate) exec: Mutex<CompactionExec>,
}

fn ratio_milli(num: u64, den: u64) -> u64 {
    num.saturating_mul(1000).checked_div(den).unwrap_or(0)
}

impl LsmMetricsHub {
    /// A hub whose metrics are `registry`'s `storage.lsm.*`. Called from
    /// [`crate::IoStats::new`].
    pub(crate) fn new(registry: &MetricsRegistry) -> LsmMetricsHub {
        let hub = LsmMetricsHub {
            entries_written: Counter::new(),
            entries_ingested: Counter::new(),
            reads: Counter::new(),
            read_probes: Counter::new(),
            disk_bytes_total: Gauge::new(),
            disk_bytes_live: Gauge::new(),
            merge_stall_ns: registry.counter("storage.lsm.merge_stall_ns"),
            flushes: registry.counter("storage.lsm.flushes"),
            flushes_merged: registry.counter("storage.lsm.flushes_merged"),
            merges: registry.counter("storage.lsm.merges"),
            flush_wait_ns: registry.counter("storage.lsm.flush_wait_ns"),
            retire_failures: registry.counter("storage.lsm.retire_failures"),
            merge_inflight: registry.gauge("storage.lsm.merge_inflight"),
            chunks_read: registry.counter("storage.lsm.chunks_read"),
            rows_assembled: registry.counter("storage.lsm.rows_assembled"),
            string_bytes_plain: registry.counter("storage.lsm.string_bytes_plain"),
            string_bytes_coded: registry.counter("storage.lsm.string_bytes_coded"),
            exec: Mutex::new(on_caller()),
        };
        // Write amplification: disk entries written per ingested entry.
        let (num, den) = (hub.entries_written.clone(), hub.entries_ingested.clone());
        registry.observed_counter("storage.lsm.write_amp", move || ratio_milli(num.get(), den.get()));
        // Read amplification: disk components probed per point lookup.
        let (num, den) = (hub.read_probes.clone(), hub.reads.clone());
        registry.observed_counter("storage.lsm.read_amp", move || ratio_milli(num.get(), den.get()));
        // Space amplification: total component bytes over an estimate of the
        // live data size (each tree's largest component).
        let (num, den) = (hub.disk_bytes_total.clone(), hub.disk_bytes_live.clone());
        registry.observed_counter("storage.lsm.space_amp", move || {
            ratio_milli(num.get() as u64, den.get() as u64)
        });
        hub
    }

    /// Where the node's trees run the merges they schedule from now on:
    /// off the write path, if that is what `exec` does with a job.
    pub fn install_executor(&self, exec: CompactionExec) {
        *self.exec.lock() = exec;
    }

    pub(crate) fn count_ingested(&self, n: u64) {
        self.entries_ingested.add(n);
    }

    /// A flush published a component of `written` entries.
    pub(crate) fn count_flush(&self, written: u64) {
        self.flushes.inc();
        self.entries_written.add(written);
    }

    /// A sealed memory component reached disk through the merge that took
    /// it in, whose entries the merge counts.
    pub(crate) fn count_flush_merged(&self) {
        self.flushes.inc();
        self.flushes_merged.inc();
    }

    /// A merge published a component of `written` entries.
    pub(crate) fn count_merge(&self, written: u64) {
        self.merges.inc();
        self.entries_written.add(written);
    }

    /// Time a sealed memory component waited for its writers to finish, or
    /// a writer waited for a sealed component to flush.
    pub fn add_flush_wait_ns(&self, ns: u64) {
        self.flush_wait_ns.add(ns);
    }

    pub(crate) fn count_read(&self, probes: u64) {
        self.reads.inc();
        if probes > 0 {
            self.read_probes.add(probes);
        }
    }

    /// Write-path stall attributable to merging, in nanoseconds.
    pub(crate) fn add_stall_ns(&self, ns: u64) {
        self.merge_stall_ns.add(ns);
    }

    /// A retirement delete failed (non-fatal cleanup, see module docs).
    pub(crate) fn count_retire_failure(&self) {
        self.retire_failures.inc();
    }

    /// Applies a tree's change in (total bytes, live bytes) contribution.
    /// Deltas may be negative (components retired); sums stay non-negative
    /// because every tree reports consistent before/after pairs.
    pub(crate) fn adjust_space(&self, d_total: i64, d_live: i64) {
        self.disk_bytes_total.add(d_total);
        self.disk_bytes_live.add(d_live);
    }

    pub(crate) fn merge_started(&self) {
        self.merge_inflight.add(1);
    }

    pub(crate) fn merge_finished(&self) {
        self.merge_inflight.add(-1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_milli_scaled_and_zero_safe() {
        let registry = MetricsRegistry::new();
        let hub = LsmMetricsHub::new(&registry);
        let amp = |which: &str| registry.snapshot().counter(&format!("storage.lsm.{which}_amp"));
        assert_eq!(amp("write"), Some(0), "no ingest yet: ratio is 0, not a panic");
        hub.count_ingested(100);
        hub.count_flush(150);
        assert_eq!(amp("write"), Some(1500));
        hub.count_read(3);
        hub.count_read(0);
        assert_eq!(amp("read"), Some(1500), "3 probes over 2 reads");
        hub.adjust_space(4000, 2000);
        assert_eq!(amp("space"), Some(2000));
        hub.adjust_space(-2000, 0);
        assert_eq!(amp("space"), Some(1000));
    }

    #[test]
    fn registered_metrics_surface_in_snapshots() {
        let registry = MetricsRegistry::new();
        let hub = LsmMetricsHub::new(&registry);
        hub.count_ingested(10);
        hub.count_merge(25);
        hub.add_stall_ns(42);
        let snap = registry.snapshot();
        assert_eq!(snap.counter("storage.lsm.write_amp"), Some(2500));
        assert_eq!(snap.counter("storage.lsm.merge_stall_ns"), Some(42));
        assert_eq!(snap.counter("storage.lsm.merges"), Some(1));
        assert_eq!(snap.counter("storage.lsm.retire_failures"), Some(0));
        assert_eq!(snap.gauge("storage.lsm.merge_inflight"), Some(0));
    }
}
