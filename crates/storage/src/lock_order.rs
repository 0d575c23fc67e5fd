//! Runtime lock-order enforcement (debug/test builds only).
//!
//! The workspace declares one canonical lock order (see DESIGN.md
//! "Correctness tooling" and the static checker in `crates/xlint`):
//!
//! ```text
//! scheduler -> catalog -> lock_manager -> lsm_component -> cache_inflight -> cache_shard -> wal
//! ```
//!
//! A thread may acquire locks left-to-right (skipping levels is fine) and
//! may nest within one level (e.g. two shared `catalog` reads in one
//! statement), but acquiring a *lower-ranked* level while holding a
//! higher-ranked one is an inversion — the shape that deadlocks the moment
//! two threads interleave the opposite way. Under `debug_assertions` every
//! acquisition pushes onto a thread-local stack and inversions panic
//! immediately with the full held-lock stack plus a captured backtrace; a
//! global order matrix records every cross-level edge ever observed so
//! tests can assert the dynamic graph stays within the declared order. In
//! release builds the whole module compiles to no-ops.
//!
//! Use [`OrderedMutex`] / [`OrderedRwLock`] where a lock maps 1:1 to a
//! level, or [`acquire`] for manual RAII scoping around locks with more
//! complicated guard flow (e.g. `LockManager`'s condvar loop).

use parking_lot::{Mutex, MutexGuard, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::ops::{Deref, DerefMut};

/// The canonical lock levels, lowest rank (acquired first) to highest.
///
/// `scheduler` is the admission-queue lock of the serving layer (held only
/// for queue bookkeeping, never across query execution, but execution takes
/// every other level — so it ranks first). `cache_inflight` is the buffer
/// cache's in-flight-load map: a miss consults it while possibly inside an
/// `lsm_component` critical section and probes the `cache_shard` under it,
/// pinning it between those two levels.
pub const LEVELS: [&str; 7] = [
    "scheduler",
    "catalog",
    "lock_manager",
    "lsm_component",
    "cache_inflight",
    "cache_shard",
    "wal",
];

/// Rank of a level name in [`LEVELS`], if declared.
pub fn rank_of(name: &str) -> Option<usize> {
    LEVELS.iter().position(|l| *l == name)
}

#[cfg(debug_assertions)]
mod imp {
    use super::{rank_of, LEVELS};
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};

    thread_local! {
        /// (rank, level name, token id) for every lock this thread holds.
        static HELD: RefCell<Vec<(usize, &'static str, u64)>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

    /// `EDGES[a][b]` — a lock of rank `b` was acquired while holding rank
    /// `a`, somewhere, since process start.
    static EDGES: [[AtomicBool; LEVELS.len()]; LEVELS.len()] =
        [const { [const { AtomicBool::new(false) }; LEVELS.len()] }; LEVELS.len()];

    pub(super) fn acquire(name: &'static str) -> u64 {
        let Some(rank) = rank_of(name) else {
            panic!( // xlint: allow(panic, "misuse of the checker itself must abort loudly in debug builds")
                "lock_order: unknown lock level `{name}` (declared levels: {})",
                LEVELS.join(" -> ")
            );
        };
        let id = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed); // xlint: ordering(debug token id; uniqueness only)
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(&(top_rank, top_name, _)) = h.last() {
                EDGES[top_rank][rank].store(true, Ordering::Relaxed);
                if rank < top_rank {
                    let held: Vec<&str> = h.iter().map(|&(_, n, _)| n).collect();
                    panic!( // xlint: allow(panic, "deliberate enforcement: a lock-order inversion must abort loudly in debug builds")
                        "lock-order inversion: thread {:?} acquiring `{name}` (rank {rank}) \
                         while holding `{top_name}` (rank {top_rank})\n\
                         held-lock stack (oldest first): [{}]\n\
                         declared order: {}\n\
                         acquisition backtrace:\n{}",
                        std::thread::current().id(),
                        held.join(", "),
                        LEVELS.join(" -> "),
                        std::backtrace::Backtrace::force_capture()
                    );
                }
            }
            h.push((rank, name, id));
        });
        id
    }

    pub(super) fn release(id: u64) {
        // Guards can drop out of acquisition order; remove by token id.
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|&(_, _, tid)| tid == id) {
                h.remove(pos);
            }
        });
    }

    pub(super) fn held_stack() -> Vec<&'static str> {
        HELD.with(|h| h.borrow().iter().map(|&(_, n, _)| n).collect())
    }

    pub(super) fn observed_edges() -> Vec<(&'static str, &'static str)> {
        let mut out = Vec::new();
        for (a, row) in EDGES.iter().enumerate() {
            for (b, cell) in row.iter().enumerate() {
                if cell.load(Ordering::Relaxed) {
                    out.push((LEVELS[a], LEVELS[b]));
                }
            }
        }
        out
    }
}

/// RAII token for one tracked acquisition. Dropping it pops the thread's
/// held-lock stack (out-of-order drops are fine).
#[must_use = "the token must live as long as the lock guard it describes"]
pub struct LockToken {
    #[cfg(debug_assertions)]
    id: u64,
}

impl Drop for LockToken {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        imp::release(self.id);
    }
}

/// Records an acquisition of `name` on this thread, panicking on a
/// lock-order inversion (debug builds). Release builds: free.
pub fn acquire(name: &'static str) -> LockToken {
    #[cfg(debug_assertions)]
    {
        LockToken { id: imp::acquire(name) }
    }
    #[cfg(not(debug_assertions))]
    {
        let _ = name;
        LockToken {}
    }
}

/// Level names this thread currently holds, oldest first (debug builds;
/// empty in release).
pub fn held_stack() -> Vec<&'static str> {
    #[cfg(debug_assertions)]
    {
        imp::held_stack()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// Every cross-level edge `(held, acquired)` observed since process start
/// (debug builds; empty in release).
pub fn observed_edges() -> Vec<(&'static str, &'static str)> {
    #[cfg(debug_assertions)]
    {
        imp::observed_edges()
    }
    #[cfg(not(debug_assertions))]
    {
        Vec::new()
    }
}

/// A [`parking_lot::Mutex`] pinned to a lock level.
pub struct OrderedMutex<T> {
    level: &'static str,
    inner: Mutex<T>,
}

/// Guard for [`OrderedMutex::lock`]; holds the order token alongside the
/// mutex guard.
pub struct OrderedMutexGuard<'a, T> {
    guard: MutexGuard<'a, T>,
    _token: LockToken,
}

impl<T> OrderedMutex<T> {
    pub fn new(level: &'static str, value: T) -> Self {
        debug_assert!(rank_of(level).is_some(), "unknown lock level `{level}`");
        OrderedMutex { level, inner: Mutex::new(value) }
    }

    pub fn lock(&self) -> OrderedMutexGuard<'_, T> {
        let token = acquire(self.level);
        OrderedMutexGuard { guard: self.inner.lock(), _token: token }
    }

    /// The level this mutex is pinned to.
    pub fn level(&self) -> &'static str {
        self.level
    }
}

impl<T> Deref for OrderedMutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedMutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A [`parking_lot::RwLock`] pinned to a lock level.
pub struct OrderedRwLock<T> {
    level: &'static str,
    inner: RwLock<T>,
}

pub struct OrderedReadGuard<'a, T> {
    guard: RwLockReadGuard<'a, T>,
    _token: LockToken,
}

pub struct OrderedWriteGuard<'a, T> {
    guard: RwLockWriteGuard<'a, T>,
    _token: LockToken,
}

impl<T> OrderedRwLock<T> {
    pub fn new(level: &'static str, value: T) -> Self {
        debug_assert!(rank_of(level).is_some(), "unknown lock level `{level}`");
        OrderedRwLock { level, inner: RwLock::new(value) }
    }

    pub fn read(&self) -> OrderedReadGuard<'_, T> {
        let token = acquire(self.level);
        OrderedReadGuard { guard: self.inner.read(), _token: token }
    }

    pub fn write(&self) -> OrderedWriteGuard<'_, T> {
        let token = acquire(self.level);
        OrderedWriteGuard { guard: self.inner.write(), _token: token }
    }

    /// The level this lock is pinned to.
    pub fn level(&self) -> &'static str {
        self.level
    }
}

impl<T> Deref for OrderedReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Deref for OrderedWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for OrderedWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not track lock order")]
    fn forward_order_is_fine() {
        let a = OrderedRwLock::new("catalog", 1u32);
        let b = OrderedMutex::new("wal", 2u32);
        let ga = a.read();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
        assert_eq!(held_stack(), vec!["catalog", "wal"]);
        drop(ga);
        drop(gb);
        assert!(held_stack().is_empty());
    }

    #[test]
    fn same_level_nesting_is_fine() {
        let a = OrderedRwLock::new("catalog", 1u32);
        let g1 = a.read();
        let g2 = a.read();
        assert_eq!(*g1, *g2);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not track lock order")]
    fn out_of_order_drop_keeps_stack_consistent() {
        let a = OrderedRwLock::new("catalog", 1u32);
        let b = OrderedMutex::new("cache_shard", 2u32);
        let ga = a.read();
        let gb = b.lock();
        drop(ga); // dropped before gb, out of acquisition order
        assert_eq!(held_stack(), vec!["cache_shard"]);
        drop(gb);
        assert!(held_stack().is_empty());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not track lock order")]
    fn inversion_panics_with_both_stacks() {
        let r = std::panic::catch_unwind(|| {
            let shard = OrderedMutex::new("cache_shard", ());
            let cat = OrderedRwLock::new("catalog", ());
            let _g1 = shard.lock();
            let _g2 = cat.read(); // cache_shard -> catalog: inversion
        });
        let err = r.expect_err("inversion must panic");
        let msg = err
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string());
        assert!(msg.contains("lock-order inversion"), "{msg}");
        assert!(msg.contains("held-lock stack"), "{msg}");
        assert!(msg.contains("cache_shard"), "{msg}");
        assert!(msg.contains("catalog"), "{msg}");
        assert!(msg.contains("acquisition backtrace"), "{msg}");
        // The panic unwound through the guards; the stack must be clean.
        assert!(held_stack().is_empty());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not track lock order")]
    fn edges_are_recorded() {
        let a = OrderedRwLock::new("lock_manager", ());
        let b = OrderedMutex::new("lsm_component", ());
        let _ga = a.write();
        let _gb = b.lock();
        assert!(observed_edges().contains(&("lock_manager", "lsm_component")));
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not track lock order")]
    fn manual_acquire_is_raii() {
        let t = acquire("lock_manager");
        assert_eq!(held_stack(), vec!["lock_manager"]);
        drop(t);
        assert!(held_stack().is_empty());
    }
}
