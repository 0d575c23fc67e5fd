//! The engine's locks: [`Mutex`], [`RwLock`] and [`Condvar`] over
//! `std::sync`, and the one lock order they check.
//!
//! A panicking holder does not wedge later users of its lock: a poisoned
//! lock is taken as it is (`PoisonError::into_inner`, here and nowhere else
//! in the engine).
//!
//! The workspace declares one canonical lock order (see DESIGN.md
//! "Correctness tooling" and the static checker in `crates/xlint`):
//!
//! ```text
//! scheduler -> catalog -> lock_manager -> lsm_component -> cache_inflight -> cache_shard -> wal
//! ```
//!
//! A lock built with `ranked(level, value)` is pinned to a level; one built
//! with `new(value)` is outside the order and never checked. A thread may
//! acquire ranked locks left-to-right (skipping levels is fine) and may nest
//! within one level (e.g. two shared `catalog` reads in one statement), but
//! acquiring a *lower-ranked* level while holding a higher-ranked one is an
//! inversion — the shape that deadlocks the moment two threads interleave
//! the opposite way. Under `debug_assertions` every ranked acquisition
//! pushes onto a thread-local stack and an inversion panics at once with the
//! held-lock stack and a captured backtrace. A [`Condvar`] takes a guard by
//! value and hands it back, so a ranked mutex keeps its place on the stack
//! across a wait. In release builds the checks compile to nothing.

#![allow(
    clippy::disallowed_types,
    reason = "this module is the one wrapper over std::sync's locks"
)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::{PoisonError, WaitTimeoutResult};
use std::time::Duration;

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

#[cfg(debug_assertions)]
mod imp {
    use super::LEVELS;
    use std::cell::RefCell;
    use std::sync::atomic::{AtomicU64, Ordering};

    thread_local! {
        /// (rank, level name, token id) for every ranked lock this thread holds.
        pub(super) static HELD: RefCell<Vec<(usize, &'static str, u64)>> = const { RefCell::new(Vec::new()) };
    }

    static NEXT_TOKEN: AtomicU64 = AtomicU64::new(1);

    #[expect(
        clippy::panic,
        reason = "an unknown level or a lock-order inversion must abort loudly in debug builds"
    )]
    pub(super) fn acquire(name: &'static str) -> u64 {
        let Some(rank) = LEVELS.iter().position(|l| *l == name) else {
            panic!(
                "lock_order: unknown lock level `{name}` (declared levels: {})",
                LEVELS.join(" -> ")
            );
        };
        let id = NEXT_TOKEN.fetch_add(1, Ordering::Relaxed); // xlint: ordering(debug token id; uniqueness only)
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(&(top_rank, top_name, _)) = h.last() {
                if rank < top_rank {
                    let held: Vec<&str> = h.iter().map(|&(_, n, _)| n).collect();
                    panic!(
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
}

/// One acquisition on this thread's held-lock stack (debug builds; id 0 is
/// an unranked lock, which is not on it). Dropping it pops that entry,
/// whatever order guards drop in.
struct LockToken {
    #[cfg(debug_assertions)]
    id: u64,
}

impl LockToken {
    /// Records taking a lock of `level`, panicking on an inversion (debug
    /// builds). Release builds: free.
    fn acquire(level: Option<&'static str>) -> LockToken {
        #[cfg(debug_assertions)]
        {
            LockToken { id: level.map_or(0, imp::acquire) }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = level;
            LockToken {}
        }
    }
}

impl Drop for LockToken {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        if self.id != 0 {
            imp::release(self.id);
        }
    }
}

/// A mutual-exclusion lock, ranked in [`LEVELS`] or not.
#[derive(Default)]
pub struct Mutex<T> {
    level: Option<&'static str>,
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex::lock`]. The mutex unlocks before the order token pops.
pub struct MutexGuard<'a, T> {
    guard: std::sync::MutexGuard<'a, T>,
    token: LockToken,
}

impl<T> Mutex<T> {
    /// A mutex outside the lock order.
    pub const fn new(value: T) -> Self {
        Mutex { level: None, inner: std::sync::Mutex::new(value) }
    }

    /// A mutex pinned to `level`, one of [`LEVELS`].
    pub const fn ranked(level: &'static str, value: T) -> Self {
        Mutex { level: Some(level), inner: std::sync::Mutex::new(value) }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let token = LockToken::acquire(self.level);
        MutexGuard { guard: self.inner.lock().unwrap_or_else(PoisonError::into_inner), token }
    }

    pub fn into_inner(self) -> T {
        self.inner.into_inner().unwrap_or_else(PoisonError::into_inner)
    }
}

impl<T: fmt::Debug> fmt::Debug for Mutex<T> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl<T> Deref for MutexGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for MutexGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A reader-writer lock, ranked in [`LEVELS`] or not.
pub struct RwLock<T> {
    level: Option<&'static str>,
    inner: std::sync::RwLock<T>,
}

pub struct RwLockReadGuard<'a, T> {
    guard: std::sync::RwLockReadGuard<'a, T>,
    _token: LockToken,
}

pub struct RwLockWriteGuard<'a, T> {
    guard: std::sync::RwLockWriteGuard<'a, T>,
    _token: LockToken,
}

impl<T> RwLock<T> {
    /// A lock outside the lock order.
    pub const fn new(value: T) -> Self {
        RwLock { level: None, inner: std::sync::RwLock::new(value) }
    }

    /// A lock pinned to `level`, one of [`LEVELS`].
    pub const fn ranked(level: &'static str, value: T) -> Self {
        RwLock { level: Some(level), inner: std::sync::RwLock::new(value) }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let token = LockToken::acquire(self.level);
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard { guard, _token: token }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let token = LockToken::acquire(self.level);
        let guard = self.inner.write().unwrap_or_else(PoisonError::into_inner);
        RwLockWriteGuard { guard, _token: token }
    }
}

impl<T> Deref for RwLockReadGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> Deref for RwLockWriteGuard<'_, T> {
    type Target = T;
    fn deref(&self) -> &T {
        &self.guard
    }
}

impl<T> DerefMut for RwLockWriteGuard<'_, T> {
    fn deref_mut(&mut self) -> &mut T {
        &mut self.guard
    }
}

/// A condition variable over [`Mutex`] guards, taken by value and handed
/// back as `std` does. A ranked mutex keeps its place on the held-lock stack
/// while the thread is parked: the thread takes nothing meanwhile and holds
/// the mutex again when the wait returns.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { guard, token } = guard;
        MutexGuard { guard: self.0.wait(guard).unwrap_or_else(PoisonError::into_inner), token }
    }

    pub fn wait_for<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        let MutexGuard { guard, token } = guard;
        let (guard, waited) =
            self.0.wait_timeout(guard, timeout).unwrap_or_else(PoisonError::into_inner);
        (MutexGuard { guard, token }, waited)
    }

    pub fn notify_one(&self) {
        self.0.notify_one();
    }

    pub fn notify_all(&self) {
        self.0.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Level names this thread holds, oldest first (empty in release).
    fn held_stack() -> Vec<&'static str> {
        #[cfg(debug_assertions)]
        {
            imp::HELD.with(|h| h.borrow().iter().map(|&(_, n, _)| n).collect())
        }
        #[cfg(not(debug_assertions))]
        {
            Vec::new()
        }
    }

    fn panic_message(err: Box<dyn std::any::Any + Send>) -> String {
        err.downcast_ref::<String>()
            .cloned()
            .unwrap_or_else(|| "non-string panic payload".to_string())
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not track lock order")]
    fn forward_order_is_fine() {
        let a = RwLock::ranked("catalog", 1u32);
        let b = Mutex::ranked("wal", 2u32);
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
        let a = RwLock::ranked("catalog", 1u32);
        let g1 = a.read();
        let g2 = a.read();
        assert_eq!(*g1, *g2);
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not track lock order")]
    fn out_of_order_drop_keeps_stack_consistent() {
        let a = RwLock::ranked("catalog", 1u32);
        let b = Mutex::ranked("cache_shard", 2u32);
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
            let shard = Mutex::ranked("cache_shard", ());
            let cat = RwLock::ranked("catalog", ());
            let _g1 = shard.lock();
            let _g2 = cat.read(); // cache_shard -> catalog: inversion
        });
        let msg = panic_message(r.expect_err("inversion must panic"));
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
    fn an_unranked_lock_under_a_ranked_one_leaves_the_stack_alone() {
        let ranked = Mutex::ranked("wal", 1u32);
        let plain = Mutex::new(2u32);
        let table = RwLock::new(3u32);
        let g = ranked.lock();
        let p = plain.lock();
        let t = table.write();
        assert_eq!(held_stack(), vec!["wal"]);
        drop(t);
        drop(p);
        assert_eq!(held_stack(), vec!["wal"]);
        drop(g);
        assert!(held_stack().is_empty());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not track lock order")]
    fn a_ranked_mutex_keeps_its_rank_across_a_condvar_wait() {
        let m = Mutex::ranked("lock_manager", 0u32);
        let cv = Condvar::new();
        let catalog = RwLock::ranked("catalog", ());
        let r = std::panic::catch_unwind(|| {
            let g = m.lock();
            let (g, waited) = cv.wait_for(g, Duration::from_millis(1));
            assert!(waited.timed_out());
            assert_eq!(held_stack(), vec!["lock_manager"]);
            let _c = catalog.read(); // lock_manager -> catalog: inversion
            drop(g);
        });
        let msg = panic_message(r.expect_err("an inversion after the wait must panic"));
        assert!(msg.contains("acquiring `catalog`"), "{msg}");
        assert!(msg.contains("while holding `lock_manager`"), "{msg}");
        assert!(held_stack().is_empty());
        // Dropping the guard a wait handed back pops its entry.
        let g = cv.wait_for(m.lock(), Duration::from_millis(1)).0;
        assert_eq!(held_stack(), vec!["lock_manager"]);
        drop(g);
        assert!(held_stack().is_empty());
    }

    #[test]
    fn condvar_wait_for_times_out_and_wakes() {
        let pair = Arc::new((Mutex::ranked("scheduler", false), Condvar::new()));
        let (g, waited) = pair.1.wait_for(pair.0.lock(), Duration::from_millis(20));
        assert!(waited.timed_out());
        drop(g);
        let p2 = Arc::clone(&pair);
        let h = thread::spawn(move || {
            let mut g = p2.0.lock();
            while !*g {
                let (next, waited) = p2.1.wait_for(g, Duration::from_secs(5));
                assert!(!waited.timed_out());
                g = next;
            }
        });
        thread::sleep(Duration::from_millis(30));
        *pair.0.lock() = true;
        pair.1.notify_all();
        h.join().unwrap();
    }

    #[test]
    fn a_panicked_holder_does_not_wedge_the_lock() {
        let m = Arc::new(Mutex::ranked("wal", 0u32));
        let l = Arc::new(RwLock::new(vec![1]));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let _ = thread::spawn(move || {
            let mut g = m2.lock();
            let mut w = l2.write();
            *g = 7;
            w.push(2);
            panic!("panic while both guards are live");
        })
        .join();
        assert_eq!(*m.lock(), 7);
        assert_eq!(*l.read(), vec![1, 2]);
        let m = Arc::try_unwrap(m).unwrap_or_else(|_| panic!("one owner left"));
        assert_eq!(m.into_inner(), 7);
    }
}
