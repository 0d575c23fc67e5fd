//! Record-level transactions (paper Section III item 9: "basic NoSQL-like
//! transactional capabilities similar to those of popular NoSQL stores").
//!
//! Like AsterixDB's, the model is record-level atomicity, not multi-statement
//! ACID: each transaction's operations are WAL-logged before being applied;
//! commit forces the log; abort restores before-images, logged as a committed
//! compensation transaction; a primary-key lock manager serializes writers of
//! the same record. No index flushes what an open transaction wrote
//! (no-steal), so recovery never undoes: it loads the durable LSM components
//! and replays the committed operations of the log tail past them
//! (experiment E12; DESIGN.md "Durability").

use crate::error::{CoreError, Result};
use asterix_storage::lock_order::{Condvar, Level, Mutex};
use std::collections::HashMap;
use asterix_obs::IdGen;
use std::sync::Arc;
use std::time::Duration;

/// A record lock's name: dataset id and encoded primary key.
type LockKey = (u32, Arc<[u8]>);

/// Lock table guarded by the manager's mutex: record owners and each
/// transaction's own locks (so that letting them go visits nobody else's).
#[derive(Default)]
struct LockTable {
    /// Per dataset id, the owner of each locked primary key.
    owners: HashMap<u32, HashMap<Arc<[u8]>, u64>>,
    /// Per transaction, the locks it owns.
    held: HashMap<u64, Vec<LockKey>>,
    /// Owner entries looked at by releases so far.
    release_visits: u64,
}

impl LockTable {
    /// Lets go of every lock `txn` owns, visiting those and no others.
    fn release(&mut self, txn: u64) {
        let Some(keys) = self.held.remove(&txn) else { return };
        self.release_visits += keys.len() as u64;
        for (dataset, pk) in &keys {
            let Some(of_dataset) = self.owners.get_mut(dataset) else { continue };
            of_dataset.remove(pk);
            if of_dataset.is_empty() {
                // ids are never reused: a dropped dataset's map would stay
                self.owners.remove(dataset);
            }
        }
    }
}

/// A primary-key write-lock manager with blocking acquisition and deadlock
/// timeouts.
pub struct LockManager {
    locks: Mutex<LockTable>,
    cv: Condvar,
    timeout: Duration,
}

impl Default for LockManager {
    fn default() -> Self {
        LockManager::new(Duration::from_secs(5))
    }
}

impl LockManager {
    /// Creates a lock manager with the given acquisition timeout.
    pub fn new(timeout: Duration) -> Self {
        LockManager {
            locks: Mutex::ranked(Level::LockManager, LockTable::default()),
            cv: Condvar::new(),
            timeout,
        }
    }

    /// Acquires the write lock on `pk` in the dataset with id `dataset` for
    /// `txn`. Re-entrant for the same transaction. Times out (as a deadlock
    /// break) with an error.
    pub fn lock(&self, txn: u64, dataset: u32, pk: &[u8]) -> Result<()> {
        let mut table = self.locks.lock();
        loop {
            match table.owners.get(&dataset).and_then(|of_dataset| of_dataset.get(pk)) {
                None => {
                    let pk: Arc<[u8]> = pk.into();
                    table.owners.entry(dataset).or_default().insert(Arc::clone(&pk), txn);
                    table.held.entry(txn).or_default().push((dataset, pk));
                    return Ok(());
                }
                Some(owner) if *owner == txn => return Ok(()),
                Some(_) => {
                    let waited;
                    (table, waited) = self.cv.wait_for(table, self.timeout);
                    if waited.timed_out() {
                        return Err(CoreError::Txn(format!(
                            "lock timeout on dataset #{dataset}:{pk:02x?} (possible deadlock)"
                        )));
                    }
                }
            }
        }
    }

    /// Releases every lock held by `txn`.
    pub fn release_all(&self, txn: u64) {
        self.locks.lock().release(txn);
        self.cv.notify_all();
    }

    /// Number of currently held locks (diagnostics).
    pub fn held(&self) -> usize {
        self.locks.lock().held.values().map(Vec::len).sum()
    }

    /// Lock-table entries every release so far has looked at, in total
    /// (diagnostics): each pays for the locks of its own transaction,
    /// whatever the others hold.
    pub fn release_visits(&self) -> u64 {
        self.locks.lock().release_visits
    }
}

/// One undo entry: the record's before-image.
pub struct UndoEntry {
    /// Id of the dataset written to ([`crate::catalog::DatasetDef::id`]).
    pub dataset: u32,
    pub partition: u32,
    pub pk: Vec<u8>,
    /// What the primary index stored for `pk` before, in the dataset's
    /// storage encoding; `None` = the record did not exist (undo = delete).
    pub before: Option<Vec<u8>>,
}

/// Transaction identifiers and bookkeeping.
pub struct TxnManager {
    next_id: IdGen,
    pub locks: Arc<LockManager>,
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager { next_id: IdGen::new(1), locks: Arc::new(LockManager::default()) }
    }
}

impl TxnManager {
    /// Allocates a transaction id.
    pub fn begin(&self) -> u64 {
        self.next_id.next()
    }

    /// Advances the id counter past ids seen in a recovered log.
    pub fn observe_recovered(&self, max_seen: u64) {
        self.next_id.raise_to(max_seen + 1);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn lock_blocks_conflicting_writer() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(2)));
        lm.lock(1, 1, b"k").unwrap();
        let lm2 = Arc::clone(&lm);
        let handle = thread::spawn(move || {
            // blocks until txn 1 releases
            lm2.lock(2, 1, b"k").unwrap();
            lm2.release_all(2);
        });
        asterix_storage::lock_order::sleep(Duration::from_millis(50));
        assert_eq!(lm.held(), 1);
        lm.release_all(1);
        asterix_storage::lock_order::join(handle).unwrap();
        assert_eq!(lm.held(), 0);
    }

    #[test]
    fn lock_is_reentrant_and_scoped() {
        let lm = LockManager::default();
        lm.lock(1, 1, b"k").unwrap();
        lm.lock(1, 1, b"k").unwrap();
        lm.lock(1, 1, b"other").unwrap();
        lm.lock(1, 2, b"k").unwrap();
        assert_eq!(lm.held(), 3);
        lm.release_all(1);
        assert_eq!(lm.held(), 0);
    }

    #[test]
    fn releasing_visits_only_the_releasers_own_locks() {
        let lm = LockManager::default();
        for i in 0..2_500u32 {
            lm.lock(1, 1, &i.to_le_bytes()).unwrap();
            lm.lock(2, 1, &(i + 10_000).to_le_bytes()).unwrap();
        }
        assert_eq!(lm.held(), 5_000);
        lm.release_all(2);
        assert_eq!(lm.release_visits(), 2_500, "a commit paid for another transaction's locks");
        assert_eq!(lm.held(), 2_500, "and let go of exactly its own");
        lm.lock(3, 1, &10_000u32.to_le_bytes()).unwrap();
        lm.release_all(1);
        assert_eq!(lm.release_visits(), 5_000);
        assert_eq!(lm.held(), 1);
    }

    #[test]
    fn lock_timeout_breaks_deadlock() {
        let lm = LockManager::new(Duration::from_millis(50));
        lm.lock(1, 1, b"k").unwrap();
        let err = lm.lock(2, 1, b"k").unwrap_err();
        assert!(err.to_string().contains("timeout"), "{err}");
    }

    #[test]
    fn lock_timeout_then_retry_succeeds_after_release() {
        let lm = LockManager::new(Duration::from_millis(50));
        lm.lock(1, 1, b"k").unwrap();
        // a timed-out acquisition must not corrupt the lock table...
        assert!(lm.lock(2, 1, b"k").is_err());
        assert_eq!(lm.held(), 1);
        // ...and the same txn can acquire normally once the owner releases
        lm.release_all(1);
        lm.lock(2, 1, b"k").unwrap();
        assert_eq!(lm.held(), 1);
        lm.release_all(2);
        assert_eq!(lm.held(), 0);
    }

    #[test]
    fn release_all_wakes_every_blocked_waiter() {
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        lm.lock(1, 1, b"k").unwrap();
        let mut handles = Vec::new();
        for txn in 2..=5u64 {
            let lm = Arc::clone(&lm);
            handles.push(thread::spawn(move || {
                lm.lock(txn, 1, b"k").unwrap();
                lm.release_all(txn);
            }));
        }
        asterix_storage::lock_order::sleep(Duration::from_millis(50));
        assert_eq!(lm.held(), 1, "waiters must block while txn 1 holds");
        lm.release_all(1);
        for h in handles {
            asterix_storage::lock_order::join(h).unwrap();
        }
        assert_eq!(lm.held(), 0, "every waiter acquired and released in turn");
    }

    #[test]
    fn multi_waiter_handoff_is_mutually_exclusive() {
        // each waiter bumps a counter inside its critical section; exclusive
        // handoff means no two observe the same pre-increment value
        let lm = Arc::new(LockManager::new(Duration::from_secs(5)));
        let seen = Arc::new(Mutex::new(Vec::new()));
        let mut handles = Vec::new();
        for txn in 1..=8u64 {
            let lm = Arc::clone(&lm);
            let seen = Arc::clone(&seen);
            handles.push(thread::spawn(move || {
                lm.lock(txn, 1, b"hot").unwrap();
                {
                    let mut s = seen.lock();
                    let next = s.len() as u64;
                    s.push(next);
                }
                lm.release_all(txn);
            }));
        }
        for h in handles {
            asterix_storage::lock_order::join(h).unwrap();
        }
        let s = seen.lock();
        assert_eq!(*s, (0..8u64).collect::<Vec<_>>(), "handoff must serialize");
        assert_eq!(lm.held(), 0);
    }

    #[test]
    fn panicked_holder_does_not_poison_the_lock_table() {
        let lm = Arc::new(LockManager::new(Duration::from_millis(200)));
        let lm2 = Arc::clone(&lm);
        let _ = asterix_storage::lock_order::join(thread::spawn(move || {
            lm2.lock(1, 1, b"k").unwrap();
            panic!("txn thread dies while owning the record lock");
        }));
        // the internal map mutex must not be poisoned: diagnostics and
        // release_all (the rollback path) still work, and releasing the dead
        // transaction's locks unwedges the key for later writers
        assert_eq!(lm.held(), 1);
        lm.release_all(1);
        lm.lock(2, 1, b"k").unwrap();
        lm.release_all(2);
        assert_eq!(lm.held(), 0);
    }

    #[test]
    fn lock_order_mutex_guard_unlocks_on_unwinding_panic() {
        let m = Arc::new(Mutex::ranked(Level::LockManager, 0u32));
        let m2 = Arc::clone(&m);
        let _ = asterix_storage::lock_order::join(thread::spawn(move || {
            let mut g = m2.lock();
            *g = 7;
            panic!("panic while the guard is live");
        }));
        // a bare std::sync::Mutex would be poisoned now; lock_order's mutex
        // takes the poisoned lock as it is and the next acquirer proceeds
        assert_eq!(*m.lock(), 7);
    }

    #[test]
    fn txn_ids_monotonic_and_recoverable() {
        let tm = TxnManager::default();
        let a = tm.begin();
        let b = tm.begin();
        assert!(b > a);
        tm.observe_recovered(100);
        assert!(tm.begin() > 100);
    }
}
