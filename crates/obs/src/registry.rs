//! Named metrics with a snapshot/delta API, and the workspace's typed
//! atomics.
//!
//! A [`MetricsRegistry`] hands out cheap cloneable handles
//! ([`Counter`], [`Gauge`]) keyed by a dotted name
//! (`"storage.io.physical_reads"`). Handles update relaxed atomics — the
//! registry lock is touched only at registration and snapshot time, never
//! on the hot path. Counters only grow and nothing resets them: a phase is
//! measured as [`MetricsSnapshot::delta`] of the snapshots around it.
//!
//! [`IdGen`], [`Flag`] and [`HighWater`] are the other shapes an atomic
//! takes here, each with its orderings fixed and argued once below.
//! `clippy.toml` refuses the raw `std::sync::atomic` types everywhere else;
//! an atomic that fits none of these shapes keeps its raw type under an
//! `#[expect(clippy::disallowed_types, reason = "…")]` that states its
//! ordering argument (DESIGN.md "Correctness tooling").

#![allow(
    clippy::disallowed_types,
    reason = "obs sits beneath storage, whose lock_order module wraps every other lock, and holds the typed atomics"
)]

use crate::json::Json;
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicI64, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, PoisonError};

/// Monotonically increasing event count.
#[derive(Clone, Debug, Default)]
pub struct Counter(Arc<AtomicU64>);

impl Counter {
    pub fn new() -> Counter {
        Counter::default()
    }

    #[inline]
    pub fn inc(&self) {
        self.0.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A value that can move both ways (resident pages, live partitions).
#[derive(Clone, Debug, Default)]
pub struct Gauge(Arc<AtomicI64>);

impl Gauge {
    pub fn new() -> Gauge {
        Gauge::default()
    }

    #[inline]
    pub fn set(&self, v: i64) {
        self.0.store(v, Ordering::Relaxed);
    }

    #[inline]
    pub fn add(&self, n: i64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    #[inline]
    pub fn get(&self) -> i64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// A source of unique ids: each call to [`IdGen::next`] hands out a value no
/// other call gets. Relaxed throughout: an id publishes nothing, so whatever
/// its holder builds under it is published by the lock that hands that over
/// (the log's for a transaction, the disk list's for a component, the files
/// map's for a file, the admission state's for a ticket, the channel's for
/// a pub/sub epoch), never by the counter.
#[derive(Debug)]
pub struct IdGen(AtomicU64);

impl IdGen {
    /// A generator whose first id is `first`.
    pub const fn new(first: u64) -> IdGen {
        IdGen(AtomicU64::new(first))
    }

    #[inline]
    pub fn next(&self) -> u64 {
        self.0.fetch_add(1, Ordering::Relaxed)
    }

    /// Every later id is at least `n`; a lower `n` leaves the generator as
    /// it was. Recovery calls it with one past the highest id found on disk,
    /// before the instance hands out any.
    pub fn raise_to(&self, n: u64) {
        self.0.fetch_max(n, Ordering::Relaxed);
    }
}

/// A boolean one thread sets for others to act on (cancel, retire, shut
/// down). `set` releases and `get` acquires, so a thread that sees the new
/// value also sees every write its setter made before setting it; `swap`
/// does both. Where only the flag itself matters (the cache's reference
/// bit), this costs nothing on x86-64: a release store and an acquire load
/// are plain moves, and a swap is one `xchg` at any ordering.
#[derive(Debug)]
pub struct Flag(AtomicBool);

impl Flag {
    pub const fn new(v: bool) -> Flag {
        Flag(AtomicBool::new(v))
    }

    #[inline]
    pub fn set(&self, v: bool) {
        self.0.store(v, Ordering::Release);
    }

    #[inline]
    pub fn get(&self) -> bool {
        self.0.load(Ordering::Acquire)
    }

    /// Sets `v` and returns the value it replaced.
    #[inline]
    pub fn swap(&self, v: bool) -> bool {
        self.0.swap(v, Ordering::AcqRel)
    }
}

/// A mark that only rises: the log's durable LSN, a feed's durable seqno.
/// `raise` is an AcqRel max, so a reader that sees a mark at or past its
/// own point with `get` (Acquire) sees everything the raiser did before
/// raising it; a lower value never moves it back.
#[derive(Debug)]
pub struct HighWater(AtomicU64);

impl HighWater {
    pub const fn new(v: u64) -> HighWater {
        HighWater(AtomicU64::new(v))
    }

    #[inline]
    pub fn raise(&self, v: u64) {
        self.0.fetch_max(v, Ordering::AcqRel);
    }

    #[inline]
    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Acquire)
    }
}

enum Slot {
    Counter(Counter),
    Gauge(Gauge),
    /// Snapshot-time read of a counter owned by the instrumented code
    /// itself (an inline atomic field) — the registry never sits on the
    /// update path, so hot loops pay zero extra indirection.
    Observed(Box<dyn Fn() -> u64 + Send + Sync>),
}

/// One value out of a [`MetricsSnapshot`].
#[derive(Clone, Debug, PartialEq)]
pub enum MetricValue {
    Counter(u64),
    Gauge(i64),
}

/// Registry of named metrics. Cheap to clone handles out of; the internal
/// map is only locked on registration and snapshot.
#[derive(Default)]
pub struct MetricsRegistry {
    slots: Mutex<BTreeMap<String, Slot>>,
}

impl std::fmt::Debug for MetricsRegistry {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        f.debug_struct("MetricsRegistry").field("metrics", &slots.len()).finish()
    }
}

impl MetricsRegistry {
    pub fn new() -> MetricsRegistry {
        MetricsRegistry::default()
    }

    pub fn shared() -> Arc<MetricsRegistry> {
        Arc::new(MetricsRegistry::new())
    }

    /// Get-or-register the counter `name`. If `name` is already registered
    /// as a different kind, a detached (unregistered) counter is returned —
    /// callers own their namespaces, so a kind clash is a programming error
    /// surfaced by the absent name in snapshots rather than a panic.
    pub fn counter(&self, name: &str) -> Counter {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        match slots.entry(name.to_string()).or_insert_with(|| Slot::Counter(Counter::new())) {
            Slot::Counter(c) => c.clone(),
            _ => Counter::new(),
        }
    }

    /// Get-or-register the gauge `name` (same clash policy as `counter`).
    pub fn gauge(&self, name: &str) -> Gauge {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        match slots.entry(name.to_string()).or_insert_with(|| Slot::Gauge(Gauge::new())) {
            Slot::Gauge(g) => g.clone(),
            _ => Gauge::new(),
        }
    }

    /// Registers a counter whose value is *read* from `read` at snapshot
    /// time instead of living in the registry. For hot paths that already
    /// maintain their own inline atomics: updates stay a plain `fetch_add`
    /// on the owner's field, and the registry only calls `read` when a
    /// snapshot is taken. If `name` is already registered the new source is
    /// dropped (same ownership policy as `counter`).
    pub fn observed_counter(&self, name: &str, read: impl Fn() -> u64 + Send + Sync + 'static) {
        let mut slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        slots.entry(name.to_string()).or_insert_with(|| Slot::Observed(Box::new(read)));
    }

    /// Point-in-time copy of every registered metric.
    pub fn snapshot(&self) -> MetricsSnapshot {
        let slots = self.slots.lock().unwrap_or_else(PoisonError::into_inner);
        let values = slots
            .iter()
            .map(|(name, slot)| {
                let v = match slot {
                    Slot::Counter(c) => MetricValue::Counter(c.get()),
                    Slot::Gauge(g) => MetricValue::Gauge(g.get()),
                    Slot::Observed(read) => MetricValue::Counter(read()),
                };
                (name.clone(), v)
            })
            .collect();
        MetricsSnapshot { values }
    }
}

/// Point-in-time copy of a whole registry, keyed by metric name.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct MetricsSnapshot {
    pub values: BTreeMap<String, MetricValue>,
}

impl MetricsSnapshot {
    /// Counter value by name.
    pub fn counter(&self, name: &str) -> Option<u64> {
        match self.values.get(name) {
            Some(MetricValue::Counter(v)) => Some(*v),
            _ => None,
        }
    }

    /// Gauge value by name.
    pub fn gauge(&self, name: &str) -> Option<i64> {
        match self.values.get(name) {
            Some(MetricValue::Gauge(v)) => Some(*v),
            _ => None,
        }
    }

    /// Per-phase delta `self - earlier`. Counter math saturates at zero (snapshots handed over in the wrong order yield 0,
    /// not a wrap); gauges report their later value's change, which may be
    /// negative.
    /// Metrics absent from `earlier` pass through unchanged.
    pub fn delta(&self, earlier: &MetricsSnapshot) -> MetricsSnapshot {
        let values = self
            .values
            .iter()
            .map(|(name, late)| {
                let v = match (late, earlier.values.get(name)) {
                    (MetricValue::Counter(a), Some(MetricValue::Counter(b))) => {
                        MetricValue::Counter(a.saturating_sub(*b))
                    }
                    (MetricValue::Gauge(a), Some(MetricValue::Gauge(b))) => {
                        MetricValue::Gauge(a.wrapping_sub(*b))
                    }
                    (late, _) => late.clone(),
                };
                (name.clone(), v)
            })
            .collect();
        MetricsSnapshot { values }
    }

    /// Merges `other` into `self` with every key prefixed by `prefix`
    /// (cluster-wide views: per-node registries merged under `node0.` …).
    pub fn merge_prefixed(&mut self, prefix: &str, other: &MetricsSnapshot) {
        for (name, v) in &other.values {
            self.values.insert(format!("{prefix}{name}"), v.clone());
        }
    }

    pub fn to_json(&self) -> Json {
        let fields = self
            .values
            .iter()
            .map(|(name, v)| {
                let jv = match v {
                    MetricValue::Counter(c) => Json::U64(*c),
                    MetricValue::Gauge(g) => Json::I64(*g),
                };
                (name.clone(), jv)
            })
            .collect();
        Json::Obj(fields)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counter_and_gauge_round_trip_through_snapshots() {
        let reg = MetricsRegistry::new();
        let c = reg.counter("a.hits");
        let g = reg.gauge("a.resident");
        c.add(3);
        c.inc();
        g.set(10);
        g.add(-4);
        let s = reg.snapshot();
        assert_eq!(s.counter("a.hits"), Some(4));
        assert_eq!(s.gauge("a.resident"), Some(6));
        // A second handle for the same name shares the value.
        reg.counter("a.hits").inc();
        assert_eq!(reg.snapshot().counter("a.hits"), Some(5));
    }

    #[test]
    fn kind_clash_returns_detached_handle() {
        let reg = MetricsRegistry::new();
        let _c = reg.counter("name");
        let g = reg.gauge("name"); // wrong kind: detached
        g.set(42);
        assert_eq!(reg.snapshot().counter("name"), Some(0));
        assert_eq!(reg.snapshot().gauge("name"), None);
    }

    #[test]
    fn observed_counter_reads_an_external_atomic() {
        use std::sync::atomic::AtomicU64;
        let reg = MetricsRegistry::new();
        let cell = Arc::new(AtomicU64::new(0));
        let src = Arc::clone(&cell);
        reg.observed_counter("ext.hits", move || src.load(Ordering::Relaxed));
        cell.fetch_add(7, Ordering::Relaxed);
        let s1 = reg.snapshot();
        assert_eq!(s1.counter("ext.hits"), Some(7));
        cell.fetch_add(2, Ordering::Relaxed);
        // Deltas work the same as registry-owned counters.
        assert_eq!(reg.snapshot().delta(&s1).counter("ext.hits"), Some(2));
        // The name is owned: a handle request for it comes back detached.
        reg.counter("ext.hits").add(100);
        assert_eq!(reg.snapshot().counter("ext.hits"), Some(9));
    }

    #[test]
    fn an_id_generator_hands_out_each_id_once_across_threads() {
        let ids = IdGen::new(1);
        let per_thread: Vec<Vec<u64>> = std::thread::scope(|s| {
            let workers: Vec<_> = (0..4).map(|_| s.spawn(|| (0..1_000).map(|_| ids.next()).collect())).collect();
            workers.into_iter().map(|w| w.join().unwrap()).collect()
        });
        let mut all: Vec<u64> = per_thread.concat();
        all.sort_unstable();
        assert_eq!(all, (1..=4_000).collect::<Vec<_>>(), "distinct, and none skipped");
    }

    #[test]
    fn raising_an_id_generator_never_lowers_it() {
        let ids = IdGen::new(1);
        ids.raise_to(10);
        ids.raise_to(5);
        assert_eq!(ids.next(), 10, "a lower value after a higher one leaves it where it was");
        ids.raise_to(3);
        assert_eq!(ids.next(), 11);
    }

    #[test]
    fn a_high_water_mark_keeps_the_maximum_of_racing_raises() {
        let mark = HighWater::new(0);
        std::thread::scope(|s| {
            for t in 0..4u64 {
                let mark = &mark;
                // interleaved, each thread's values falling as well as rising
                s.spawn(move || (0..1_000u64).for_each(|i| mark.raise((i * 7 + t * 13) % 3_989)));
            }
        });
        let expected = (0..4u64).flat_map(|t| (0..1_000u64).map(move |i| (i * 7 + t * 13) % 3_989)).max();
        assert_eq!(Some(mark.get()), expected);
        mark.raise(1);
        assert_eq!(Some(mark.get()), expected, "a lower value does not move it back");
    }

    #[test]
    fn a_flag_set_before_a_thread_joins_is_seen_after_the_join() {
        let flag = Flag::new(false);
        std::thread::scope(|s| {
            s.spawn(|| flag.set(true));
        });
        assert!(flag.get());
        assert!(flag.swap(false), "swap returns what it replaced");
        assert!(!flag.get());
    }

    #[test]
    fn merge_prefixed_builds_cluster_views() {
        let a = MetricsRegistry::new();
        a.counter("io.reads").add(2);
        let b = MetricsRegistry::new();
        b.counter("io.reads").add(7);
        let mut merged = MetricsSnapshot::default();
        merged.merge_prefixed("node0.", &a.snapshot());
        merged.merge_prefixed("node1.", &b.snapshot());
        assert_eq!(merged.counter("node0.io.reads"), Some(2));
        assert_eq!(merged.counter("node1.io.reads"), Some(7));
    }

    #[test]
    fn snapshot_json_is_stable() {
        let reg = MetricsRegistry::new();
        reg.counter("b").add(1);
        reg.gauge("a").set(-2);
        let j = reg.snapshot().to_json().render();
        assert_eq!(j, r#"{"a":-2,"b":1}"#);
    }
}
