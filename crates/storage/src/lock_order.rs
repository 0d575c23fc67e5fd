//! The engine's locks: [`Mutex`], [`RwLock`] and [`Condvar`] over
//! `std::sync`, and the one lock order they check.
//!
//! A panicking holder does not wedge later users of its lock: a poisoned
//! lock is taken as it is (`PoisonError::into_inner`, here and nowhere else
//! in the engine).
//!
//! The order is [`Level`] (DESIGN.md "Runtime checkers" gives the edge that
//! pins each level). A lock built with `ranked(level, value)` is pinned to a
//! level; one built with `new(value)` is outside the order. A thread may
//! acquire ranked locks in rising order (skipping levels is fine) and may
//! hold distinct locks of one level (two partitions' `LsmComponent` locks),
//! but acquiring a *lower-ranked* level while holding a higher-ranked one is
//! an inversion — the shape that deadlocks the moment two threads interleave
//! the opposite way. Taking a lock, ranked or not, that the thread already
//! holds is re-entry: `std`'s `Mutex` deadlocks, and its `RwLock` may panic
//! or, once a writer queues between two reads, deadlock. Under
//! `debug_assertions` every acquisition pushes onto a thread-local stack,
//! and an inversion or a re-entry panics at once with the held-lock stack
//! and a captured backtrace. A [`Condvar`] takes a guard by value and hands
//! it back, so a mutex keeps its place on the stack across a wait. In
//! release builds the checks compile to nothing.
//!
//! The waits live here too, and a pool worker never parks in one: the pool
//! runs each step under [`as_pool_step`], which marks the thread (debug
//! builds), and a checked wait on a marked thread prints what waited and a
//! backtrace and aborts — the pool would catch a panic. One wait is allowed
//! on a worker, [`Condvar::wait_on_peer_read`]. An inversion or a re-entry
//! on a marked thread aborts the same way; off a worker it panics.

#![allow(
    clippy::disallowed_types,
    reason = "this module is the one wrapper over std::sync's locks"
)]

use std::fmt;
use std::ops::{Deref, DerefMut};
use std::sync::mpsc::{Receiver, RecvError, RecvTimeoutError};
use std::sync::{PoisonError, TryLockError, WaitTimeoutResult};
use std::thread::JoinHandle;
use std::time::Duration;

/// The lock order, lowest rank (acquired first) to highest, and its one
/// copy. A ranked lock names its level where it is built; each variant
/// names the held → taken nesting that fixes its place.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Admission queue: nothing is taken under it, but an admitted query takes every other level.
    Scheduler,
    /// `Instance`'s DDL log, held across a statement: `Ddl → Catalog`, `Ddl → Wal`.
    Ddl,
    /// The catalog: `Ddl → Catalog → CacheShard`.
    Catalog,
    /// `Instance`'s dataset-name map: `Ddl → DatasetsMap → LsmComponent`.
    DatasetsMap,
    /// The record-lock table: nothing is taken under it; the enum places it.
    LockManager,
    /// A dataset partition: `LsmComponent → LsmManifest`, `LsmComponent → Wal`.
    LsmComponent,
    /// A merge job's run, held for one morsel: `LsmComponent → LsmMergeRun` (a seal finishing its index's merge).
    LsmMergeRun,
    /// An index's manifest (the publish lock): `LsmManifest → LsmDisk`.
    LsmManifest,
    /// An index's merge slot: `LsmState → LsmDisk`.
    LsmState,
    /// An index's disk-component list: `LsmComponent → LsmDisk`, `LsmManifest → LsmDisk`.
    LsmDisk,
    /// The cache's in-flight-load map: `LsmComponent → CacheInflight → CacheShard`.
    CacheInflight,
    /// A buffer-cache shard: `CacheInflight → CacheShard`, `LsmManifest → CacheShard`.
    CacheShard,
    /// A node's log, its pins and its replay pause (`wal::NodeLog`): `LsmComponent → Wal`, `Ddl → Wal`.
    Wal,
    /// The pub/sub channel map: `PubsubChannels → PubsubSubscribers`.
    PubsubChannels,
    /// A channel's subscribers: `PubsubChannels → PubsubSubscribers`.
    PubsubSubscribers,
}

/// A wait a pool step may not make: a [`Condvar`]'s, a commit's for its
/// records to be durable (`wal::NodeLog::commit` and `abort`), [`sleep`],
/// [`join`], [`recv`].
#[derive(Clone, Copy, Debug)]
pub(crate) enum Wait {
    Condvar,
    Durable,
    Sleep,
    Join,
    Recv,
}

#[cfg(debug_assertions)]
mod imp {
    use super::{Level, Wait};
    use std::cell::{Cell, RefCell};
    use std::io::Write;

    thread_local! {
        /// (address, level) of every lock this thread holds, oldest first;
        /// an unranked lock has no level.
        pub(super) static HELD: RefCell<Vec<(usize, Option<Level>)>> = const { RefCell::new(Vec::new()) };
        /// This thread is running a pool step.
        pub(super) static ON_STEP: Cell<bool> = const { Cell::new(false) };
    }

    fn name(level: Option<Level>) -> String {
        level.map_or_else(|| "unranked".to_string(), |l| format!("{l:?}"))
    }

    /// What is wrong with this thread making `wait`, if anything.
    pub(super) fn parks_a_worker(wait: Wait) -> Option<String> {
        ON_STEP.get().then(|| {
            format!(
                "`{wait:?}` wait on a pool worker (thread {:?}): a parked worker stalls every \
                 query and merge queued behind it",
                std::thread::current().name().unwrap_or("unnamed")
            )
        })
    }

    /// Reports a broken rule: on a pool step, writes `msg` to stderr (past
    /// any test harness's capture) and aborts, since the pool would catch a
    /// panic; elsewhere, panics.
    #[expect(clippy::panic, reason = "a broken lock or wait rule must stop loudly in debug builds")]
    pub(super) fn fail(msg: &str) -> ! {
        if ON_STEP.get() {
            let _ = writeln!(std::io::stderr(), "{msg}");
            std::process::abort();
        }
        panic!("{msg}");
    }

    pub(super) fn acquire(addr: usize, level: Option<Level>) {
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            // Ranked entries rise from the bottom, so the last is the highest held.
            let top = h.iter().rev().find_map(|&(_, l)| l);
            let what = if h.iter().any(|&(a, _)| a == addr) {
                let level = name(level);
                format!("lock re-entry: acquiring a `{level}` lock this thread already holds")
            } else if let Some((level, top)) = level.zip(top).filter(|(l, t)| l < t) {
                format!("lock-order inversion: acquiring `{level:?}` while holding `{top:?}`")
            } else {
                h.push((addr, level));
                return;
            };
            let held: Vec<String> = h.iter().map(|&(_, l)| name(l)).collect();
            fail(&format!(
                "{what} (thread {:?})\n\
                 held-lock stack (oldest first): [{}]\n\
                 acquisition backtrace:\n{}",
                std::thread::current().id(),
                held.join(", "),
                std::backtrace::Backtrace::force_capture()
            ));
        });
    }

    pub(super) fn release(addr: usize) {
        // Guards can drop out of acquisition order; remove by address.
        HELD.with(|h| {
            let mut h = h.borrow_mut();
            if let Some(pos) = h.iter().rposition(|&(a, _)| a == addr) {
                h.remove(pos);
            }
        });
    }
}

/// One acquisition on this thread's held-lock stack (debug builds), keyed by
/// the lock's address. Dropping it pops that entry, whatever order guards
/// drop in.
struct LockToken {
    #[cfg(debug_assertions)]
    addr: usize,
}

impl LockToken {
    /// Records taking `lock` of `level`, panicking on a re-entry or an
    /// inversion (debug builds). Release builds: free.
    fn acquire<L>(lock: &L, level: Option<Level>) -> LockToken {
        #[cfg(debug_assertions)]
        {
            let addr = std::ptr::from_ref(lock).addr();
            imp::acquire(addr, level);
            LockToken { addr }
        }
        #[cfg(not(debug_assertions))]
        {
            let _ = (lock, level);
            LockToken {}
        }
    }
}

impl Drop for LockToken {
    fn drop(&mut self) {
        #[cfg(debug_assertions)]
        imp::release(self.addr);
    }
}

/// A mutual-exclusion lock, ranked at a [`Level`] or not.
#[derive(Default)]
pub struct Mutex<T> {
    level: Option<Level>,
    inner: std::sync::Mutex<T>,
}

/// Guard for [`Mutex::lock`]. The mutex unlocks before the order token pops.
#[must_use = "if unused the Mutex will immediately unlock"]
pub struct MutexGuard<'a, T> {
    guard: std::sync::MutexGuard<'a, T>,
    token: LockToken,
}

impl<T> Mutex<T> {
    /// A mutex outside the lock order.
    pub const fn new(value: T) -> Self {
        Mutex { level: None, inner: std::sync::Mutex::new(value) }
    }

    /// A mutex pinned to `level`.
    pub const fn ranked(level: Level, value: T) -> Self {
        Mutex { level: Some(level), inner: std::sync::Mutex::new(value) }
    }

    pub fn lock(&self) -> MutexGuard<'_, T> {
        let token = LockToken::acquire(self, self.level);
        MutexGuard { guard: self.inner.lock().unwrap_or_else(PoisonError::into_inner), token }
    }

    /// The lock, unless another holder has it now: never waits.
    pub fn try_lock(&self) -> Option<MutexGuard<'_, T>> {
        let guard = match self.inner.try_lock() {
            Ok(guard) => guard,
            Err(TryLockError::Poisoned(poisoned)) => poisoned.into_inner(),
            Err(TryLockError::WouldBlock) => return None,
        };
        Some(MutexGuard { guard, token: LockToken::acquire(self, self.level) })
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

/// A reader-writer lock, ranked at a [`Level`] or not.
pub struct RwLock<T> {
    level: Option<Level>,
    inner: std::sync::RwLock<T>,
}

#[must_use = "if unused the RwLock will immediately unlock"]
pub struct RwLockReadGuard<'a, T> {
    guard: std::sync::RwLockReadGuard<'a, T>,
    _token: LockToken,
}

#[must_use = "if unused the RwLock will immediately unlock"]
pub struct RwLockWriteGuard<'a, T> {
    guard: std::sync::RwLockWriteGuard<'a, T>,
    _token: LockToken,
}

impl<T> RwLock<T> {
    /// A lock outside the lock order.
    pub const fn new(value: T) -> Self {
        RwLock { level: None, inner: std::sync::RwLock::new(value) }
    }

    /// A lock pinned to `level`.
    pub const fn ranked(level: Level, value: T) -> Self {
        RwLock { level: Some(level), inner: std::sync::RwLock::new(value) }
    }

    pub fn read(&self) -> RwLockReadGuard<'_, T> {
        let token = LockToken::acquire(self, self.level);
        let guard = self.inner.read().unwrap_or_else(PoisonError::into_inner);
        RwLockReadGuard { guard, _token: token }
    }

    pub fn write(&self) -> RwLockWriteGuard<'_, T> {
        let token = LockToken::acquire(self, self.level);
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
/// back as `std` does. A mutex keeps its place on the held-lock stack while
/// the thread is parked: the thread takes nothing meanwhile and holds the
/// mutex again when the wait returns.
#[derive(Default)]
pub struct Condvar(std::sync::Condvar);

impl Condvar {
    pub const fn new() -> Self {
        Condvar(std::sync::Condvar::new())
    }

    pub fn wait<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        check(Wait::Condvar);
        self.wait_unchecked(guard)
    }

    /// A wait for a page another thread is reading: the one wait a pool
    /// step may make, so it is not checked. It lasts one page read, which
    /// the worker would otherwise make itself.
    pub fn wait_on_peer_read<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        self.wait_unchecked(guard)
    }

    fn wait_unchecked<'a, T>(&self, guard: MutexGuard<'a, T>) -> MutexGuard<'a, T> {
        let MutexGuard { guard, token } = guard;
        MutexGuard { guard: self.0.wait(guard).unwrap_or_else(PoisonError::into_inner), token }
    }

    pub fn wait_for<'a, T>(
        &self,
        guard: MutexGuard<'a, T>,
        timeout: Duration,
    ) -> (MutexGuard<'a, T>, WaitTimeoutResult) {
        check(Wait::Condvar);
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

/// Runs `f` as a pool step: the thread is marked for its length (debug
/// builds), so a wait in it aborts the process.
pub fn as_pool_step<R>(f: impl FnOnce() -> R) -> R {
    #[cfg(debug_assertions)]
    let _mark = {
        struct Mark(bool);
        impl Drop for Mark {
            fn drop(&mut self) {
                imp::ON_STEP.set(self.0);
            }
        }
        Mark(imp::ON_STEP.replace(true))
    };
    f()
}

/// Whether this thread is running a pool step (always false in release).
pub fn on_pool_step() -> bool {
    #[cfg(debug_assertions)]
    return imp::ON_STEP.get();
    #[cfg(not(debug_assertions))]
    false
}

/// Aborts, in debug builds, when a pool step makes `wait`.
pub(crate) fn check(wait: Wait) {
    #[cfg(debug_assertions)]
    if let Some(msg) = imp::parks_a_worker(wait) {
        imp::fail(&format!("{msg}\nbacktrace:\n{}", std::backtrace::Backtrace::force_capture()));
    }
    #[cfg(not(debug_assertions))]
    let _ = wait;
}

/// `std::thread::sleep`, checked as a wait.
#[expect(clippy::disallowed_methods, reason = "the checked wrapper")]
pub fn sleep(d: Duration) {
    check(Wait::Sleep);
    std::thread::sleep(d);
}

/// `JoinHandle::join`, checked as a wait.
#[expect(clippy::disallowed_methods, reason = "the checked wrapper")]
pub fn join<T>(h: JoinHandle<T>) -> std::thread::Result<T> {
    check(Wait::Join);
    h.join()
}

/// `Receiver::recv`, checked as a wait.
#[expect(clippy::disallowed_methods, reason = "the checked wrapper")]
pub fn recv<T>(rx: &Receiver<T>) -> Result<T, RecvError> {
    check(Wait::Recv);
    rx.recv()
}

/// `Receiver::recv_timeout`, checked as a wait.
#[expect(clippy::disallowed_methods, reason = "the checked wrapper")]
pub fn recv_timeout<T>(rx: &Receiver<T>, d: Duration) -> Result<T, RecvTimeoutError> {
    check(Wait::Recv);
    rx.recv_timeout(d)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::thread;

    /// Levels of the ranked locks this thread holds, oldest first (empty in
    /// release).
    fn held_stack() -> Vec<Level> {
        #[cfg(debug_assertions)]
        {
            imp::HELD.with(|h| h.borrow().iter().filter_map(|&(_, l)| l).collect())
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
        let a = RwLock::ranked(Level::Catalog, 1u32);
        let b = Mutex::ranked(Level::Wal, 2u32);
        let ga = a.read();
        let gb = b.lock();
        assert_eq!(*ga + *gb, 3);
        assert_eq!(held_stack(), vec![Level::Catalog, Level::Wal]);
        drop(ga);
        drop(gb);
        assert!(held_stack().is_empty());
    }

    #[test]
    fn distinct_locks_of_one_level_nest() {
        let a = RwLock::ranked(Level::LsmComponent, 1u32);
        let b = RwLock::ranked(Level::LsmComponent, 2u32);
        let ga = a.read();
        let gb = b.write();
        assert_eq!(*ga + *gb, 3);
        if cfg!(debug_assertions) {
            assert_eq!(held_stack(), vec![Level::LsmComponent, Level::LsmComponent]);
        }
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not check re-entry")]
    fn re_entry_panics_ranked_or_not() {
        let shared = RwLock::ranked(Level::Catalog, ());
        let plain = Mutex::new(());
        let r = std::panic::catch_unwind(|| {
            let _g1 = shared.read();
            let _g2 = shared.read(); // a writer queued between these two deadlocks std
        });
        let msg = panic_message(r.expect_err("a second read of one lock must panic"));
        assert!(msg.contains("lock re-entry"), "{msg}");
        assert!(msg.contains("`Catalog`"), "{msg}");
        let r = std::panic::catch_unwind(|| {
            let _g1 = plain.lock();
            let _g2 = plain.lock(); // std's mutex would deadlock here
        });
        let msg = panic_message(r.expect_err("relocking an unranked mutex must panic"));
        assert!(msg.contains("`unranked` lock"), "{msg}");
        assert!(held_stack().is_empty());
        let _g = plain.lock(); // the panics unwound through the guards
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not track lock order")]
    fn out_of_order_drop_keeps_stack_consistent() {
        let a = RwLock::ranked(Level::Catalog, 1u32);
        let b = Mutex::ranked(Level::CacheShard, 2u32);
        let ga = a.read();
        let gb = b.lock();
        drop(ga); // dropped before gb, out of acquisition order
        assert_eq!(held_stack(), vec![Level::CacheShard]);
        drop(gb);
        assert!(held_stack().is_empty());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not track lock order")]
    fn inversion_panics_with_both_stacks() {
        let r = std::panic::catch_unwind(|| {
            let shard = Mutex::ranked(Level::CacheShard, ());
            let cat = RwLock::ranked(Level::Catalog, ());
            let _g1 = shard.lock();
            let _g2 = cat.read(); // CacheShard -> Catalog: inversion
        });
        let msg = panic_message(r.expect_err("inversion must panic"));
        assert!(msg.contains("lock-order inversion"), "{msg}");
        assert!(msg.contains("held-lock stack (oldest first): [CacheShard]"), "{msg}");
        assert!(msg.contains("acquiring `Catalog` while holding `CacheShard`"), "{msg}");
        assert!(msg.contains("acquisition backtrace"), "{msg}");
        // The panic unwound through the guards; the stack must be clean.
        assert!(held_stack().is_empty());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not track lock order")]
    fn an_unranked_lock_is_outside_the_order() {
        let ranked = Mutex::ranked(Level::Wal, 1u32);
        let plain = Mutex::new(2u32);
        let table = RwLock::new(3u32);
        let g = ranked.lock();
        let p = plain.lock();
        let t = table.write();
        assert_eq!(held_stack(), vec![Level::Wal]);
        drop(t);
        drop(p);
        assert_eq!(held_stack(), vec![Level::Wal]);
        drop(g);
        assert!(held_stack().is_empty());
        // A ranked lock of any level may be taken under an unranked one.
        // Retaking `plain` and `table` shows their entries went with their
        // guards: a stale entry would panic as re-entry.
        let p = plain.lock();
        let t = table.read();
        let queue = RwLock::ranked(Level::Scheduler, ());
        let q = queue.read();
        assert_eq!(held_stack(), vec![Level::Scheduler]);
        drop(p); // an unranked guard dropped under a ranked one
        assert_eq!(held_stack(), vec![Level::Scheduler]);
        drop(q);
        drop(t);
        assert!(held_stack().is_empty());
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not track lock order")]
    fn a_ranked_mutex_keeps_its_rank_across_a_condvar_wait() {
        let m = Mutex::ranked(Level::LockManager, 0u32);
        let cv = Condvar::new();
        let catalog = RwLock::ranked(Level::Catalog, ());
        let r = std::panic::catch_unwind(|| {
            let g = m.lock();
            let (g, waited) = cv.wait_for(g, Duration::from_millis(1));
            assert!(waited.timed_out());
            assert_eq!(held_stack(), vec![Level::LockManager]);
            let _c = catalog.read(); // LockManager -> Catalog: inversion
            drop(g);
        });
        let msg = panic_message(r.expect_err("an inversion after the wait must panic"));
        assert!(msg.contains("acquiring `Catalog` while holding `LockManager`"), "{msg}");
        assert!(held_stack().is_empty());
        // Dropping the guard a wait handed back pops its entry.
        let g = cv.wait_for(m.lock(), Duration::from_millis(1)).0;
        assert_eq!(held_stack(), vec![Level::LockManager]);
        drop(g);
        assert!(held_stack().is_empty());
    }

    #[test]
    fn condvar_wait_for_times_out_and_wakes() {
        let pair = Arc::new((Mutex::ranked(Level::Scheduler, false), Condvar::new()));
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
        sleep(Duration::from_millis(30));
        *pair.0.lock() = true;
        pair.1.notify_all();
        join(h).unwrap();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not mark pool steps")]
    fn a_pool_step_may_wait_only_on_a_peers_read() {
        // `Condvar::wait`/`wait_for`, a commit's wait to be durable, `sleep`,
        // `join`, `recv`/`recv_timeout`
        #[cfg(debug_assertions)]
        for wait in [Wait::Condvar, Wait::Durable, Wait::Sleep, Wait::Join, Wait::Recv] {
            let msg = as_pool_step(|| imp::parks_a_worker(wait))
                .unwrap_or_else(|| panic!("{wait:?} on a pool step"));
            assert!(msg.contains(&format!("`{wait:?}` wait on a pool worker")), "{msg}");
            assert_eq!(imp::parks_a_worker(wait), None, "{wait:?} off a pool step");
        }
        // The peer-read wait itself, on a marked thread: a report would abort.
        let page = Arc::new((Mutex::new(false), Condvar::new()));
        let peer = Arc::clone(&page);
        let reader = thread::spawn(move || {
            sleep(Duration::from_millis(5));
            *peer.0.lock() = true;
            peer.1.notify_all();
        });
        as_pool_step(|| {
            let mut read = page.0.lock();
            while !*read {
                read = page.1.wait_on_peer_read(read);
            }
        });
        join(reader).unwrap();
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not mark pool steps")]
    fn the_mark_lasts_the_step_even_one_that_panics() {
        assert!(!on_pool_step());
        as_pool_step(|| {
            assert!(on_pool_step());
            as_pool_step(|| assert!(on_pool_step()));
            assert!(on_pool_step(), "a nested step leaves the outer one marked");
        });
        assert!(!on_pool_step());
        // The pool catches a step's panic; the thread must not stay marked.
        let r = std::panic::catch_unwind(|| as_pool_step(|| panic!("a step fails")));
        assert!(r.is_err());
        assert!(!on_pool_step());
    }

    #[test]
    fn a_panicked_holder_does_not_wedge_the_lock() {
        let m = Arc::new(Mutex::ranked(Level::Wal, 0u32));
        let l = Arc::new(RwLock::new(vec![1]));
        let (m2, l2) = (Arc::clone(&m), Arc::clone(&l));
        let _ = join(thread::spawn(move || {
            let mut g = m2.lock();
            let mut w = l2.write();
            *g = 7;
            w.push(2);
            panic!("panic while both guards are live");
        }));
        assert_eq!(*m.lock(), 7);
        assert_eq!(m.try_lock().as_deref(), Some(&7), "try_lock takes a poisoned lock as it is");
        let held = m.lock();
        assert!(m.try_lock().is_none(), "try_lock does not wait for a holder");
        drop(held);
        assert_eq!(*l.read(), vec![1, 2]);
        let m = Arc::try_unwrap(m).unwrap_or_else(|_| panic!("one owner left"));
        assert_eq!(m.into_inner(), 7);
    }
}
