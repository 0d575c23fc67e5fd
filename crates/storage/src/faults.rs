//! Deterministic fault injection for the storage stack.
//!
//! A [`FaultInjector`] is an optional companion of [`crate::io::FileManager`]
//! and [`crate::wal::WalWriter`]: every physical I/O operation (page read,
//! page write, WAL flush, fsync) consults it before touching the disk. The
//! injector can then
//!
//! * **crash** the process model after the Nth I/O operation — all later
//!   operations fail with [`StorageError::Injected`], exactly as if the
//!   process had died and the handle outlived it;
//! * make the crashing write **torn**: a random prefix of the requested
//!   bytes is persisted before the crash (a partially-written page, or a WAL
//!   flush cut mid-record);
//! * inject transient **short writes**: a prefix is persisted and the write
//!   reports failure, but the system survives;
//! * fail **fsync** — treated as a crash, because after a failed fsync the
//!   kernel may have dropped the dirty pages and no useful recovery is
//!   possible in-process (the "fsyncgate" lesson);
//! * flip a random **bit on reads**, silently, to exercise checksum paths.
//!
//! Every decision is drawn from one seeded [`SmallRng`] behind a mutex plus
//! a global operation counter, so a given `(seed, workload)` pair replays an
//! *identical* failure schedule — the recorded [`FaultEvent`] log is
//! byte-for-byte reproducible, which is what the crash-recovery property
//! tests assert. Determinism holds when the workload issues I/O in a
//! deterministic order (single-threaded harnesses).

use crate::error::{Result, StorageError};
use crate::lock_order::Mutex;
use rand::prelude::*;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Tuning knobs for a [`FaultInjector`].
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed for the decision RNG; the whole schedule is a function of it.
    pub seed: u64,
    /// Crash once the global I/O-operation counter reaches this value
    /// (0 = crash on the very first operation). `None` = never crash.
    pub crash_after_ios: Option<u64>,
    /// Crash at the `n`-th (0-based) I/O operation whose target contains the
    /// given text — `(".manifest:dirsync", 2)` is the third manifest publish,
    /// between its rename and its directory fsync — wherever in the schedule
    /// that falls. Names a crash point where `crash_after_ios` counts to it.
    pub crash_at_target: Option<(String, u64)>,
    /// When the crash lands on a write, allow a random prefix of it to be
    /// persisted (torn write) instead of dropping it entirely.
    pub torn_writes: bool,
    /// Probability that a surviving write persists only a prefix and
    /// reports failure (transient short write).
    pub short_write_prob: f64,
    /// Probability that an fsync fails; a failed fsync is sticky (crash).
    pub fsync_fail_prob: f64,
    /// Probability that a page read gets one bit flipped, silently.
    pub read_corrupt_prob: f64,
    /// Probability that a file delete fails (transient; the file survives).
    /// Exercises the LSM merge-retirement path, where a failed delete must
    /// be non-fatal cleanup, never data loss.
    pub delete_fail_prob: f64,
    /// Added latency per page read. Not a fault per se: stress tests use it
    /// to hold a physical read open long enough that racing requesters
    /// deterministically pile onto the cache's in-flight-load slot.
    pub read_delay: Option<std::time::Duration>,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            crash_after_ios: None,
            crash_at_target: None,
            torn_writes: true,
            short_write_prob: 0.0,
            fsync_fail_prob: 0.0,
            read_corrupt_prob: 0.0,
            delete_fail_prob: 0.0,
            read_delay: None,
        }
    }
}

/// One injected fault, recorded in schedule order. Two runs with the same
/// seed and workload produce identical event vectors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum FaultEvent {
    /// The crash point fired at operation `op` while performing `target`.
    Crash { op: u64, target: String },
    /// The crashing write persisted `kept` of `requested` bytes.
    TornWrite { op: u64, target: String, kept: usize, requested: usize },
    /// A transient short write persisted `kept` of `requested` bytes.
    ShortWrite { op: u64, target: String, kept: usize, requested: usize },
    /// fsync failed (sticky: the injector is crashed afterwards).
    FsyncFailure { op: u64, target: String },
    /// Bit `bit` of byte `byte` of a read buffer was flipped.
    BitFlip { op: u64, target: String, byte: usize, bit: u8 },
    /// A file delete failed transiently; the file stays on disk.
    DeleteFailure { op: u64, target: String },
}

/// What an instrumented write should do, as decided by the injector.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WritePlan {
    /// Perform the write normally.
    Full,
    /// Persist only the first `kept` bytes, then fail: the crash point.
    Torn { kept: usize },
    /// Persist only the first `kept` bytes, then fail, but stay alive.
    Short { kept: usize },
}

/// Renders a fault target from a path: the file name only, so recorded
/// schedules compare equal across scratch directories.
pub fn target_name(path: &std::path::Path) -> String {
    path.file_name().unwrap_or(path.as_os_str()).to_string_lossy().into_owned()
}

/// Seedable failpoint engine shared by all I/O paths of one node.
#[expect(clippy::disallowed_types, reason = "SeqCst: crash points count one total order of I/O across threads, and a crash is seen by every thread after it")]
pub struct FaultInjector {
    config: FaultConfig,
    rng: Mutex<SmallRng>,
    ops: std::sync::atomic::AtomicU64,
    /// Operations so far whose target matched `crash_at_target`.
    target_hits: std::sync::atomic::AtomicU64,
    crashed: std::sync::atomic::AtomicBool,
    events: Mutex<Vec<FaultEvent>>,
}

impl std::fmt::Debug for FaultInjector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FaultInjector")
            .field("config", &self.config)
            .field("ops", &self.ops.load(Ordering::Relaxed))
            .field("crashed", &self.crashed.load(Ordering::Relaxed))
            .finish_non_exhaustive()
    }
}

impl FaultInjector {
    /// Builds an injector from a full config.
    pub fn new(config: FaultConfig) -> Arc<Self> {
        let rng = SmallRng::seed_from_u64(config.seed);
        Arc::new(FaultInjector {
            config,
            rng: Mutex::new(rng),
            ops: Default::default(),
            target_hits: Default::default(),
            crashed: Default::default(),
            events: Mutex::new(Vec::new()),
        })
    }

    /// Convenience: an injector that crashes at the `nth` I/O operation whose
    /// target contains `target` (see [`FaultConfig::crash_at_target`]).
    pub fn crash_at(seed: u64, target: &str, nth: u64) -> Arc<Self> {
        FaultInjector::new(FaultConfig {
            seed,
            crash_at_target: Some((target.to_string(), nth)),
            ..FaultConfig::default()
        })
    }

    /// Convenience: an injector that crashes after `n` I/O operations,
    /// torn writes allowed, no transient faults.
    pub fn crash_after(seed: u64, n: u64) -> Arc<Self> {
        FaultInjector::new(FaultConfig {
            seed,
            crash_after_ios: Some(n),
            ..FaultConfig::default()
        })
    }

    /// I/O operations observed so far.
    pub fn ops(&self) -> u64 {
        self.ops.load(Ordering::SeqCst)
    }

    /// Whether the crash point (or a failed fsync) has fired.
    pub fn crashed(&self) -> bool {
        self.crashed.load(Ordering::SeqCst)
    }

    /// The injected-fault schedule so far (clone; order is schedule order).
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.lock().clone()
    }

    fn record(&self, ev: FaultEvent) {
        self.events.lock().push(ev);
    }

    fn injected(&self, target: &str, what: &str) -> StorageError {
        StorageError::Injected(format!("{what} in {target} (seed {})", self.config.seed))
    }

    /// Fails if the crash point has already fired — call sites that do no
    /// physical I/O of their own (file create/open/delete, WAL append into
    /// the buffer) use this so a "dead" handle stays dead.
    pub fn check_alive(&self, target: &str) -> Result<()> {
        if self.crashed() {
            return Err(self.injected(target, "operation after injected crash"));
        }
        Ok(())
    }

    /// Counts one operation; returns its index, or an error when the
    /// injector has crashed.
    fn next_op(&self, target: &str) -> Result<u64> {
        self.check_alive(target)?;
        Ok(self.ops.fetch_add(1, Ordering::SeqCst))
    }

    fn is_crash_point(&self, op: u64, target: &str) -> bool {
        let counted = self.config.crash_after_ios.is_some_and(|n| op >= n);
        let named = self.config.crash_at_target.as_ref().is_some_and(|(text, nth)| {
            target.contains(text.as_str()) && self.target_hits.fetch_add(1, Ordering::SeqCst) == *nth
        });
        (counted || named) && !self.crashed()
    }

    /// Failpoint for a write of `requested` bytes. The caller must obey the
    /// returned [`WritePlan`]; for `Torn`/`Short` it persists the prefix and
    /// then fails its own call with [`FaultInjector::write_failed`].
    pub fn on_write(&self, target: &str, requested: usize) -> Result<WritePlan> {
        let op = self.next_op(target)?;
        if self.is_crash_point(op, target) {
            self.crashed.store(true, Ordering::SeqCst);
            let kept = if self.config.torn_writes && requested > 0 {
                self.rng.lock().gen_range(0..=requested)
            } else {
                0
            };
            self.record(FaultEvent::TornWrite { op, target: target.to_string(), kept, requested });
            self.record(FaultEvent::Crash { op, target: target.to_string() });
            return Ok(WritePlan::Torn { kept });
        }
        if self.config.short_write_prob > 0.0 {
            let mut rng = self.rng.lock();
            if rng.gen_bool(self.config.short_write_prob) && requested > 0 {
                let kept = rng.gen_range(0..requested);
                drop(rng);
                self.record(FaultEvent::ShortWrite {
                    op,
                    target: target.to_string(),
                    kept,
                    requested,
                });
                return Ok(WritePlan::Short { kept });
            }
        }
        Ok(WritePlan::Full)
    }

    /// The error an instrumented write returns after honoring a `Torn` or
    /// `Short` plan.
    pub fn write_failed(&self, target: &str) -> StorageError {
        if self.crashed() {
            self.injected(target, "injected crash during write")
        } else {
            self.injected(target, "injected short write")
        }
    }

    /// Failpoint for a read; may silently flip one bit of `buf`.
    pub fn on_read(&self, target: &str, buf: &mut [u8]) -> Result<()> {
        let op = self.next_op(target)?;
        if let Some(d) = self.config.read_delay {
            #[expect(clippy::disallowed_methods, reason = "injected latency stands for a slow read, which a worker makes by design")]
            std::thread::sleep(d);
        }
        if self.is_crash_point(op, target) {
            self.crashed.store(true, Ordering::SeqCst);
            self.record(FaultEvent::Crash { op, target: target.to_string() });
            return Err(self.injected(target, "injected crash during read"));
        }
        if self.config.read_corrupt_prob > 0.0 && !buf.is_empty() {
            let mut rng = self.rng.lock();
            if rng.gen_bool(self.config.read_corrupt_prob) {
                let byte = rng.gen_range(0..buf.len());
                let bit = rng.gen_range(0u8..8);
                drop(rng);
                buf[byte] ^= 1 << bit;
                self.record(FaultEvent::BitFlip { op, target: target.to_string(), byte, bit });
            }
        }
        Ok(())
    }

    /// A failpoint that can only crash: counts one I/O operation and fires
    /// the crash point if it is due.
    fn crash_only(&self, target: &str, what: &str) -> Result<()> {
        let op = self.next_op(target)?;
        if self.is_crash_point(op, target) {
            self.crashed.store(true, Ordering::SeqCst);
            self.record(FaultEvent::Crash { op, target: target.to_string() });
            return Err(self.injected(target, what));
        }
        Ok(())
    }

    /// Failpoint for truncating a torn WAL tail at reopen. Counts as one
    /// I/O operation, so a scheduled crash can land between discovering the
    /// torn tail and removing it — the window where a real crash would leave
    /// the tail in place for the *next* recovery to deal with.
    pub fn on_truncate(&self, target: &str) -> Result<()> {
        self.crash_only(target, "injected crash during truncate")
    }

    /// Failpoint for the rename that publishes an atomically written file:
    /// a crash here leaves the fully synced temporary beside the old file.
    pub fn on_rename(&self, target: &str) -> Result<()> {
        self.crash_only(target, "injected crash during rename")
    }

    /// Failpoint for a file delete (LSM component retirement). The crash
    /// point can land here; otherwise a probabilistic *transient* failure
    /// leaves the file on disk and the system alive — retirement callers
    /// must treat that as deferred cleanup, not an error.
    pub fn on_delete(&self, target: &str) -> Result<()> {
        let op = self.next_op(target)?;
        if self.is_crash_point(op, target) {
            self.crashed.store(true, Ordering::SeqCst);
            self.record(FaultEvent::Crash { op, target: target.to_string() });
            return Err(self.injected(target, "injected crash during delete"));
        }
        if self.config.delete_fail_prob > 0.0
            && self.rng.lock().gen_bool(self.config.delete_fail_prob)
        {
            self.record(FaultEvent::DeleteFailure { op, target: target.to_string() });
            return Err(self.injected(target, "injected delete failure"));
        }
        Ok(())
    }

    /// Failpoint for an fsync. Both the crash point and a probabilistic
    /// fsync failure land here; either way the injector is crashed after.
    pub fn on_sync(&self, target: &str) -> Result<()> {
        let op = self.next_op(target)?;
        if self.is_crash_point(op, target) {
            self.crashed.store(true, Ordering::SeqCst);
            self.record(FaultEvent::Crash { op, target: target.to_string() });
            return Err(self.injected(target, "injected crash during fsync"));
        }
        if self.config.fsync_fail_prob > 0.0 && self.rng.lock().gen_bool(self.config.fsync_fail_prob)
        {
            self.crashed.store(true, Ordering::SeqCst);
            self.record(FaultEvent::FsyncFailure { op, target: target.to_string() });
            return Err(self.injected(target, "injected fsync failure"));
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_schedule() {
        let run = |seed| {
            let f = FaultInjector::new(FaultConfig {
                seed,
                crash_after_ios: Some(6),
                crash_at_target: None,
                torn_writes: true,
                short_write_prob: 0.3,
                fsync_fail_prob: 0.0,
                read_corrupt_prob: 0.5,
                delete_fail_prob: 0.0,
                read_delay: None,
            });
            let mut buf = vec![0xAAu8; 64];
            for i in 0..32u64 {
                match i % 3 {
                    0 => {
                        let _ = f.on_write("w", 128);
                    }
                    1 => {
                        let _ = f.on_read("r", &mut buf);
                    }
                    _ => {
                        let _ = f.on_sync("s");
                    }
                }
            }
            f.events()
        };
        assert_eq!(run(7), run(7), "same seed must replay identically");
        assert_ne!(run(7), run(8), "different seeds should diverge");
    }

    #[test]
    fn crash_point_is_sticky() {
        let f = FaultInjector::crash_after(1, 2);
        assert!(matches!(f.on_write("a", 10), Ok(WritePlan::Full)));
        assert!(matches!(f.on_write("b", 10), Ok(WritePlan::Full)));
        // third op is the crash point
        match f.on_write("c", 10).unwrap() {
            WritePlan::Torn { kept } => assert!(kept <= 10),
            other => panic!("expected torn crash, got {other:?}"),
        }
        assert!(f.crashed());
        assert!(f.on_write("d", 10).is_err(), "dead handles stay dead");
        assert!(f.on_sync("e").is_err());
        assert!(f.check_alive("f").is_err());
        let events = f.events();
        assert!(events.iter().any(|e| matches!(e, FaultEvent::Crash { op: 2, .. })));
    }

    #[test]
    fn named_crash_point_fires_on_the_nth_matching_target() {
        let f = FaultInjector::crash_at(2, ".manifest", 1);
        assert!(f.on_sync("a.manifest.tmp").is_ok(), "hit 0");
        assert!(f.on_sync("b.btree").is_ok(), "no match");
        assert!(f.on_rename("a.manifest:rename").is_err(), "hit 1 is the crash point");
        assert!(f.crashed());
        assert!(f.events().iter().any(|e| matches!(e, FaultEvent::Crash { op: 2, .. })));
    }

    #[test]
    fn crash_on_sync_and_read() {
        let f = FaultInjector::new(FaultConfig {
            seed: 3,
            crash_after_ios: Some(0),
            torn_writes: false,
            ..FaultConfig::default()
        });
        assert!(f.on_sync("s").is_err());
        assert!(f.crashed());

        let f = FaultInjector::crash_after(4, 0);
        let mut buf = [0u8; 8];
        assert!(f.on_read("r", &mut buf).is_err());
        assert!(f.crashed());
    }

    #[test]
    fn torn_disabled_keeps_nothing() {
        let f = FaultInjector::new(FaultConfig {
            seed: 5,
            crash_after_ios: Some(0),
            torn_writes: false,
            ..FaultConfig::default()
        });
        match f.on_write("w", 100).unwrap() {
            WritePlan::Torn { kept } => assert_eq!(kept, 0),
            other => panic!("expected torn crash, got {other:?}"),
        }
    }

    #[test]
    fn bit_flips_recorded_and_applied() {
        let f = FaultInjector::new(FaultConfig {
            seed: 11,
            read_corrupt_prob: 1.0,
            ..FaultConfig::default()
        });
        let mut buf = vec![0u8; 16];
        f.on_read("r", &mut buf).unwrap();
        assert_eq!(buf.iter().filter(|&&b| b != 0).count(), 1, "exactly one bit flipped");
        assert!(matches!(f.events()[0], FaultEvent::BitFlip { op: 0, .. }));
        assert!(!f.crashed(), "bit flips are silent, not crashes");
    }

    #[test]
    fn delete_failures_are_transient_and_recorded() {
        let f = FaultInjector::new(FaultConfig {
            seed: 17,
            delete_fail_prob: 1.0,
            ..FaultConfig::default()
        });
        assert!(f.on_delete("c1.btree").is_err());
        assert!(!f.crashed(), "a failed delete leaves the system alive");
        assert!(f.on_delete("c2.btree").is_err(), "next delete can fail too");
        assert!(f.on_write("w", 16).is_ok(), "other I/O unaffected");
        let events = f.events();
        assert_eq!(events.len(), 2);
        assert!(matches!(&events[0], FaultEvent::DeleteFailure { op: 0, target } if target == "c1.btree"));

        // the crash point can land on a delete, and then it is sticky
        let f = FaultInjector::crash_after(18, 0);
        assert!(f.on_delete("c3.btree").is_err());
        assert!(f.crashed());
        assert!(f.on_delete("c4.btree").is_err(), "dead handles stay dead");
    }

    #[test]
    fn fsync_failure_is_sticky() {
        let f = FaultInjector::new(FaultConfig {
            seed: 13,
            fsync_fail_prob: 1.0,
            ..FaultConfig::default()
        });
        assert!(f.on_sync("s").is_err());
        assert!(f.crashed(), "a failed fsync must not be retried");
        assert!(matches!(f.events()[0], FaultEvent::FsyncFailure { .. }));
    }
}
