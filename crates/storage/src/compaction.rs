//! Background LSM compaction: the executor contract and amplification
//! accounting.
//!
//! The component lifecycle (`crate::harness`) schedules merges; this
//! module is how they leave the write path while the crate dependency stays
//! one-way: storage defines a narrow [`BackgroundExecutor`] trait and the
//! runtime layer (hyracks' worker pool) implements it. A merge reaches an
//! executor as a [`BackgroundJob`] that advances one *morsel* of entries
//! ([`MERGE_MORSEL_ENTRIES`]) per [`BackgroundJob::step`] call. With no
//! executor installed every merge runs inline, so single-threaded tests and
//! benches stay deterministic.
//!
//! The [`LsmMetricsHub`] aggregates the classic LSM cost triad across every
//! tree of a node and surfaces it through the shared `obs` registry as
//! `storage.lsm.{write_amp,read_amp,space_amp,merge_inflight,merge_stall_ns}`,
//! beside the lifecycle's own counts
//! `storage.lsm.{flushes,merges,flush_wait_ns}`.

use asterix_obs::Gauge;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};

/// Entries merged per scheduling step: the compaction morsel. Mirrors the
/// scheduler's tuple morsel so a merge task shares the pool fairly with
/// query tasks and honors cancellation within one morsel.
pub const MERGE_MORSEL_ENTRIES: usize = 1024;

// ---------------------------------------------------------------------------
// The narrow storage → runtime trait pair
// ---------------------------------------------------------------------------

/// Outcome of one bounded job step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JobStep {
    /// More work remains; schedule another step.
    Again,
    /// The job is finished (completed, aborted, or cancelled).
    Done,
}

/// A resumable background task: the storage side of the compaction
/// off-loading contract. Implementations must make every `step` bounded
/// (one morsel of work) and must tolerate `cancel` at any point between
/// steps.
pub trait BackgroundJob: Send + Sync {
    /// Run one bounded quantum of work.
    fn step(&self) -> JobStep;
    /// Request cooperative cancellation; the next `step` observes it,
    /// aborts cleanly, and returns [`JobStep::Done`].
    fn cancel(&self);
}

/// Something that can run [`BackgroundJob`]s off the submitting thread.
/// The runtime layer implements this over its worker pool; storage never
/// learns what a worker is, keeping the crate dependency one-way.
pub trait BackgroundExecutor: Send + Sync {
    /// Accept `job` and drive its `step` to [`JobStep::Done`] eventually.
    fn offload(&self, job: Arc<dyn BackgroundJob>);
}

/// Cloneable, `Debug`-able handle around a [`BackgroundExecutor`] so plain
/// config structs can carry one.
#[derive(Clone)]
pub struct CompactionExec(Arc<dyn BackgroundExecutor>);

impl CompactionExec {
    /// Wraps an executor implementation.
    pub fn new(exec: Arc<dyn BackgroundExecutor>) -> Self {
        CompactionExec(exec)
    }

    /// Hands a job to the wrapped executor.
    pub fn offload(&self, job: Arc<dyn BackgroundJob>) {
        self.0.offload(job);
    }
}

impl std::fmt::Debug for CompactionExec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("CompactionExec(..)")
    }
}

/// A minimal executor that services each job on its own detached thread.
/// Storage-level tests (and anything without a worker pool) get true
/// background merges from it; production wiring uses the pool-backed
/// executor in the runtime crate instead.
#[derive(Debug, Default)]
pub struct ThreadExecutor;

impl BackgroundExecutor for ThreadExecutor {
    fn offload(&self, job: Arc<dyn BackgroundJob>) {
        std::thread::spawn(move || while job.step() == JobStep::Again {});
    }
}

impl ThreadExecutor {
    /// Convenience: a ready-to-install handle.
    pub fn handle() -> CompactionExec {
        CompactionExec::new(Arc::new(ThreadExecutor))
    }
}

// ---------------------------------------------------------------------------
// Node-wide LSM amplification accounting
// ---------------------------------------------------------------------------

/// Aggregated LSM cost metrics for every tree sharing one [`crate::IoStats`].
///
/// Ratios are exported through the `obs` registry at snapshot time in
/// **milli-units** (amplification × 1000, so `1.0` reads as `1000`): the
/// registry's observed counters are integral, and three decimal places is
/// plenty for dashboarding the read/write/space trade-off.
#[derive(Debug, Default)]
pub struct LsmMetricsHub {
    entries_written: AtomicU64,
    entries_ingested: AtomicU64,
    reads: AtomicU64,
    read_probes: AtomicU64,
    disk_bytes_total: AtomicU64,
    disk_bytes_live: AtomicU64,
    merge_stall_ns: AtomicU64,
    flushes: AtomicU64,
    merges: AtomicU64,
    flush_wait_ns: AtomicU64,
    retire_failures: AtomicU64,
    merge_inflight: AtomicI64,
    gauge: OnceLock<Gauge>,
}

impl LsmMetricsHub {
    /// Binds the `storage.lsm.merge_inflight` gauge handle (once, at
    /// registry wiring time). Earlier in-flight deltas are replayed into it.
    pub(crate) fn bind_gauge(&self, gauge: Gauge) {
        gauge.set(self.merge_inflight.load(Ordering::Acquire));
        let _ = self.gauge.set(gauge);
    }

    pub(crate) fn count_ingested(&self, n: u64) {
        self.entries_ingested.fetch_add(n, Ordering::Relaxed);
    }

    /// A flush published a component of `written` entries.
    pub(crate) fn count_flush(&self, written: u64) {
        self.flushes.fetch_add(1, Ordering::Relaxed);
        self.entries_written.fetch_add(written, Ordering::Relaxed);
    }

    /// A merge published a component of `written` entries.
    pub(crate) fn count_merge(&self, written: u64) {
        self.merges.fetch_add(1, Ordering::Relaxed);
        self.entries_written.fetch_add(written, Ordering::Relaxed);
    }

    /// Time a sealed memory component waited for its writers to finish, or
    /// a writer waited for a sealed component to flush.
    pub fn add_flush_wait_ns(&self, ns: u64) {
        self.flush_wait_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn count_read(&self, probes: u64) {
        self.reads.fetch_add(1, Ordering::Relaxed);
        if probes > 0 {
            self.read_probes.fetch_add(probes, Ordering::Relaxed);
        }
    }

    pub(crate) fn add_stall_ns(&self, ns: u64) {
        self.merge_stall_ns.fetch_add(ns, Ordering::Relaxed);
    }

    pub(crate) fn count_retire_failure(&self) {
        self.retire_failures.fetch_add(1, Ordering::Relaxed);
    }

    /// Applies a tree's change in (total bytes, live bytes) contribution.
    /// Deltas may be negative (components retired); sums stay non-negative
    /// because every tree reports consistent before/after pairs.
    pub(crate) fn adjust_space(&self, d_total: i64, d_live: i64) {
        self.disk_bytes_total.fetch_add(d_total as u64, Ordering::Relaxed);
        self.disk_bytes_live.fetch_add(d_live as u64, Ordering::Relaxed);
    }

    pub(crate) fn merge_started(&self) {
        self.merge_inflight.fetch_add(1, Ordering::AcqRel);
        if let Some(g) = self.gauge.get() {
            g.add(1);
        }
    }

    pub(crate) fn merge_finished(&self) {
        self.merge_inflight.fetch_add(-1, Ordering::AcqRel);
        if let Some(g) = self.gauge.get() {
            g.add(-1);
        }
    }

    fn ratio_milli(num: u64, den: u64) -> u64 {
        num.saturating_mul(1000).checked_div(den).unwrap_or(0)
    }

    /// Write amplification ×1000: disk entries written per ingested entry.
    pub fn write_amp_milli(&self) -> u64 {
        Self::ratio_milli(
            self.entries_written.load(Ordering::Relaxed),
            self.entries_ingested.load(Ordering::Relaxed),
        )
    }

    /// Read amplification ×1000: disk components probed per point lookup.
    pub fn read_amp_milli(&self) -> u64 {
        Self::ratio_milli(
            self.read_probes.load(Ordering::Relaxed),
            self.reads.load(Ordering::Relaxed),
        )
    }

    /// Space amplification ×1000: total component bytes over an estimate of
    /// the live data size (each tree's largest component).
    pub fn space_amp_milli(&self) -> u64 {
        Self::ratio_milli(
            self.disk_bytes_total.load(Ordering::Relaxed),
            self.disk_bytes_live.load(Ordering::Relaxed),
        )
    }

    /// Cumulative write-path stall attributable to merging, in nanoseconds.
    pub fn merge_stall_ns(&self) -> u64 {
        self.merge_stall_ns.load(Ordering::Relaxed)
    }

    /// Flushes published across all trees of this node.
    pub fn flushes(&self) -> u64 {
        self.flushes.load(Ordering::Relaxed)
    }

    /// Merges published across all trees of this node.
    pub fn merges(&self) -> u64 {
        self.merges.load(Ordering::Relaxed)
    }

    /// Cumulative no-steal waiting, in nanoseconds (see
    /// [`LsmMetricsHub::add_flush_wait_ns`]).
    pub fn flush_wait_ns(&self) -> u64 {
        self.flush_wait_ns.load(Ordering::Relaxed)
    }

    /// Retirement deletes that failed (non-fatal cleanup, see module docs).
    pub fn retire_failures(&self) -> u64 {
        self.retire_failures.load(Ordering::Relaxed)
    }

    /// Merges currently in flight across all trees of this node.
    pub fn merge_inflight(&self) -> i64 {
        self.merge_inflight.load(Ordering::Acquire)
    }

    /// Registers the amplification metrics in `registry` as observed
    /// (snapshot-time) readers plus the in-flight gauge. Called from
    /// [`crate::IoStats::with_registry`]; holds only weak references, so it
    /// never extends the hub's lifetime.
    pub(crate) fn register(self: &Arc<Self>, registry: &asterix_obs::MetricsRegistry) {
        let observe = |name: &str, read: fn(&LsmMetricsHub) -> u64| {
            let weak = Arc::downgrade(self);
            registry.observed_counter(name, move || weak.upgrade().map_or(0, |h| read(&h)));
        };
        observe("storage.lsm.write_amp", LsmMetricsHub::write_amp_milli);
        observe("storage.lsm.read_amp", LsmMetricsHub::read_amp_milli);
        observe("storage.lsm.space_amp", LsmMetricsHub::space_amp_milli);
        observe("storage.lsm.merge_stall_ns", LsmMetricsHub::merge_stall_ns);
        observe("storage.lsm.flushes", LsmMetricsHub::flushes);
        observe("storage.lsm.merges", LsmMetricsHub::merges);
        observe("storage.lsm.flush_wait_ns", LsmMetricsHub::flush_wait_ns);
        observe("storage.lsm.retire_failures", LsmMetricsHub::retire_failures);
        self.bind_gauge(registry.gauge("storage.lsm.merge_inflight")); // xlint: allow(metric, "gauge is driven through the hub's bound handle: bind_gauge replays accumulated deltas and merge_started/merge_finished apply live ones")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ratios_are_milli_scaled_and_zero_safe() {
        let hub = LsmMetricsHub::default();
        assert_eq!(hub.write_amp_milli(), 0, "no ingest yet: ratio is 0, not a panic");
        hub.count_ingested(100);
        hub.count_flush(150);
        assert_eq!(hub.write_amp_milli(), 1500);
        hub.count_read(3);
        hub.count_read(0);
        assert_eq!(hub.read_amp_milli(), 1500, "3 probes over 2 reads");
        hub.adjust_space(4000, 2000);
        assert_eq!(hub.space_amp_milli(), 2000);
        hub.adjust_space(-2000, 0);
        assert_eq!(hub.space_amp_milli(), 1000);
    }

    #[test]
    fn inflight_gauge_replays_earlier_deltas_on_bind() {
        let hub = Arc::new(LsmMetricsHub::default());
        hub.merge_started();
        hub.merge_started();
        hub.merge_finished();
        let registry = asterix_obs::MetricsRegistry::new();
        hub.bind_gauge(registry.gauge("storage.lsm.merge_inflight"));
        assert_eq!(registry.snapshot().gauge("storage.lsm.merge_inflight"), Some(1));
        hub.merge_finished();
        assert_eq!(registry.snapshot().gauge("storage.lsm.merge_inflight"), Some(0));
        assert_eq!(hub.merge_inflight(), 0);
    }

    #[test]
    fn registered_metrics_surface_in_snapshots() {
        let hub = Arc::new(LsmMetricsHub::default());
        let registry = asterix_obs::MetricsRegistry::new();
        hub.register(&registry);
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
