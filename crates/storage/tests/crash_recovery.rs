//! Storage-level crash-recovery tests: deterministic fault injection into
//! the WAL and page-file paths, the WAL truncation property (any byte-level
//! prefix of a synced log recovers exactly the blocks that fit), and named
//! crash points where durability lives — inside a manifest publish, between
//! a merge's publish and the retirement of its inputs, inside log rotation
//! and segment unlink — under a log and an LSM tree run together.

use asterix_storage::faults::{FaultConfig, FaultEvent, FaultInjector};
use asterix_storage::io::{FileManager, PAGE_SIZE};
use asterix_storage::stats::IoStats;
use asterix_storage::cache::BufferCache;
use asterix_storage::lsm::{join, sweep_unreferenced, LsmConfig, LsmTree, MergePolicy};
use asterix_storage::wal::{analyze, read_log, valid_prefix_len, LogPin, Lsn, NodeLog, WalRecord, WalWriter};
use asterix_storage::StorageError;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Self-cleaning scratch directory (integration tests cannot use the
/// crate-private test helper).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "asterix-crashrec-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn upd(txn: u64, key: &[u8], value: &[u8]) -> WalRecord {
    WalRecord::Write {
        txn_id: txn,
        dataset: 7,
        partition: 0,
        is_delete: false,
        key: key.to_vec(),
        value: value.to_vec(),
    }
}

/// Runs a fixed WAL workload (3 records per txn, sync per commit) against an
/// injector crashing after `crash_after` I/O ops. Returns the committed txn
/// ids (sync returned Ok), the injector's event schedule, and the log bytes.
fn wal_workload(dir: &TempDir, seed: u64, crash_after: u64) -> (Vec<u64>, Vec<FaultEvent>, Vec<u8>) {
    let path = dir.path().join("wal.log");
    let faults = FaultInjector::crash_after(seed, crash_after);
    let mut w = WalWriter::open_with_faults(&path, Some(faults.clone())).unwrap();
    let mut committed = Vec::new();
    'outer: for txn in 1..=16u64 {
        for i in 0..3u64 {
            let key = format!("k{txn}-{i}");
            let value = vec![txn as u8; 64];
            if w.append(&upd(txn, key.as_bytes(), &value)).is_err() {
                break 'outer;
            }
        }
        if w.append(&WalRecord::Commit { txn_id: txn }).is_err() {
            break;
        }
        if w.sync().is_ok() {
            committed.push(txn);
        } else {
            break;
        }
    }
    let bytes = std::fs::read(&path).unwrap_or_default();
    (committed, faults.events(), bytes)
}

#[test]
fn wal_crash_recovers_all_confirmed_commits() {
    // every crash point: commits confirmed before the crash must replay
    for crash_after in 0..24u64 {
        let dir = TempDir::new("walcrash");
        let (committed, events, _) = wal_workload(&dir, 42, crash_after);
        let recs = read_log(dir.path().join("wal.log")).unwrap();
        let ops = analyze(recs.clone()).ops;
        let replayed: std::collections::BTreeSet<u64> = ops.iter().map(|op| op.txn_id).collect();
        for txn in &committed {
            assert!(
                replayed.contains(txn),
                "crash_after={crash_after}: txn {txn} confirmed committed but lost \
                 (events: {events:?})"
            );
        }
        // every replayed op belongs to a txn with a durable commit record —
        // the crashing commit may or may not have reached the disk, but
        // never partially (its records precede it in one flush)
        for op in &ops {
            let n_ops = recs
                .iter()
                .filter(|(_, r)| matches!(r, WalRecord::Write { txn_id, .. } if *txn_id == op.txn_id))
                .count();
            assert_eq!(n_ops, 3, "replayed txn {} must have all its updates", op.txn_id);
        }
    }
}

#[test]
fn wal_reopen_after_torn_crash_continues_cleanly() {
    let dir = TempDir::new("waltorn");
    // crash on the very first flush: a torn prefix of txn 1 lands on disk
    let (committed, events, _) = wal_workload(&dir, 7, 0);
    assert!(committed.is_empty());
    assert!(events.iter().any(|e| matches!(e, FaultEvent::Crash { .. })));
    let path = dir.path().join("wal.log");
    let torn_len = std::fs::metadata(&path).map(|m| m.len()).unwrap_or(0);
    let valid = valid_prefix_len(&path).unwrap();
    assert!(valid <= torn_len);
    // a fresh writer truncates the tail and appends readable records
    let mut w = WalWriter::open(&path).unwrap();
    assert_eq!(w.next_lsn(), valid);
    w.append(&upd(99, b"post", b"crash")).unwrap();
    w.append(&WalRecord::Commit { txn_id: 99 }).unwrap();
    w.sync().unwrap();
    let ops = analyze(read_log(&path).unwrap()).ops;
    assert!(ops.iter().any(|op| op.txn_id == 99), "post-crash commit must be replayable");
}

#[test]
fn same_seed_reproduces_schedule_and_log_bytes() {
    for crash_after in [0u64, 2, 3, 7, 18, 19] {
        let d1 = TempDir::new("repro1");
        let d2 = TempDir::new("repro2");
        let (c1, e1, b1) = wal_workload(&d1, 1234, crash_after);
        let (c2, e2, b2) = wal_workload(&d2, 1234, crash_after);
        assert_eq!(c1, c2, "commit outcomes must replay");
        assert_eq!(e1, e2, "fault schedule must replay");
        assert_eq!(b1, b2, "log must be byte-for-byte identical");
        assert!(!e1.is_empty(), "crash_after={crash_after} should have fired");
        // Crash points that land on an fsync record no RNG draw, so their
        // schedule is seed-independent by design. Only when the crash lands
        // on a flush (a TornWrite event with a seeded `kept` draw) should a
        // different seed produce a different schedule.
        if e1.iter().any(|e| matches!(e, FaultEvent::TornWrite { .. })) {
            let d3 = TempDir::new("repro3");
            let (_, e3, _) = wal_workload(&d3, 4321, crash_after);
            assert_ne!(e1, e3, "a different seed should tear at a different offset");
        }
    }
}

#[test]
fn torn_page_write_leaves_partial_page() {
    let dir = TempDir::new("tornpage");
    let faults = FaultInjector::new(FaultConfig {
        seed: 5,
        crash_after_ios: Some(2),
        ..FaultConfig::default()
    });
    let fm = FileManager::with_faults(dir.path(), IoStats::new(), Some(faults.clone())).unwrap();
    let id = fm.create("t.pf").unwrap();
    let page = vec![0xEEu8; PAGE_SIZE];
    fm.append_page(id, &page).unwrap();
    fm.append_page(id, &page).unwrap();
    // third write is the crash point
    let err = fm.append_page(id, &page).unwrap_err();
    assert!(matches!(err, StorageError::Injected(_)), "got {err:?}");
    assert!(faults.crashed());
    // everything after the crash fails, including reads and creates
    assert!(fm.read_page(id, 0).is_err());
    assert!(fm.create("other.pf").is_err());
    // on disk: two full pages plus (possibly) a torn prefix of the third
    let len = std::fs::metadata(dir.path().join("t.pf")).unwrap().len();
    assert!(len >= 2 * PAGE_SIZE as u64 && len < 3 * PAGE_SIZE as u64, "len={len}");
    // a recovering manager rejects the file unless the tear is page-aligned
    let fm2 = FileManager::new(dir.path(), IoStats::new()).unwrap();
    match fm2.open("t.pf") {
        Ok(id2) => assert_eq!(fm2.page_count(id2).unwrap(), 2),
        Err(StorageError::Corrupt(_)) => {} // unaligned tear detected
        Err(other) => panic!("unexpected error {other:?}"),
    }
}

#[test]
fn bulk_writer_crash_mid_build() {
    let dir = TempDir::new("bulkcrash");
    let faults = FaultInjector::crash_after(9, 4);
    let fm = FileManager::with_faults(dir.path(), IoStats::new(), Some(faults)).unwrap();
    let mut w = fm.bulk_writer("comp.btree").unwrap();
    let page = vec![1u8; PAGE_SIZE];
    let mut failed = false;
    for _ in 0..10 {
        if w.append(&page).is_err() {
            failed = true;
            break;
        }
    }
    assert!(failed, "crash point inside the bulk build must surface");
    assert!(w.finish().is_err(), "finishing a crashed build must fail");
}

#[test]
fn read_corruption_is_observable() {
    let dir = TempDir::new("bitflip");
    let faults = FaultInjector::new(FaultConfig {
        seed: 77,
        read_corrupt_prob: 1.0,
        ..FaultConfig::default()
    });
    let fm = FileManager::with_faults(dir.path(), IoStats::new(), Some(faults.clone())).unwrap();
    let id = fm.create("t.pf").unwrap();
    fm.append_page(id, &vec![0u8; PAGE_SIZE]).unwrap();
    let page = fm.read_page(id, 0).unwrap();
    assert_eq!(
        page.iter().filter(|&&b| b != 0).count(),
        1,
        "exactly one flipped bit expected"
    );
    assert!(faults
        .events()
        .iter()
        .any(|e| matches!(e, FaultEvent::BitFlip { .. })));
}

#[test]
fn short_writes_are_transient_and_retryable() {
    let dir = TempDir::new("shortwrite");
    let faults = FaultInjector::new(FaultConfig {
        seed: 21,
        short_write_prob: 0.5,
        ..FaultConfig::default()
    });
    let path = dir.path().join("wal.log");
    let mut w = WalWriter::open_with_faults(&path, Some(faults.clone())).unwrap();
    let mut confirmed = Vec::new();
    for txn in 1..=32u64 {
        w.append(&upd(txn, b"k", b"v")).unwrap();
        w.append(&WalRecord::Commit { txn_id: txn }).unwrap();
        // retry the sync through transient short writes
        let mut ok = false;
        for _ in 0..20 {
            if w.sync().is_ok() {
                ok = true;
                break;
            }
            assert!(!faults.crashed(), "short writes must not be sticky");
        }
        assert!(ok, "sync should eventually succeed under transient faults");
        confirmed.push(txn);
    }
    let replayed: Vec<u64> =
        analyze(read_log(&path).unwrap()).ops.iter().map(|op| op.txn_id).collect();
    assert_eq!(replayed, confirmed, "retried syncs must not duplicate or lose records");
    assert!(
        faults.events().iter().any(|e| matches!(e, FaultEvent::ShortWrite { .. })),
        "workload should have hit at least one short write"
    );
}

// ---------------------------------------------------------------------------
// A log and a tree together: the durability protocol at its crash points
// ---------------------------------------------------------------------------

/// One LSM tree under one node log, driven the way a dataset partition
/// drives its primary index, through the calls a partition makes: log,
/// stamp, apply and settle through the log; commit; finish and release, and
/// settle again. The log rotates and truncates as [`NodeLog::settle`] asks.
struct Engine {
    /// The tree, alone in the group the log settles.
    indexes: Vec<LsmTree>,
    log: NodeLog,
    /// Where the tree publishes its oldest unflushed LSN to the log.
    pin: LogPin,
    /// The node's counters: the tree's and the log's.
    io: Arc<IoStats>,
}

type Kv = BTreeMap<i64, String>;

fn int_key(k: i64) -> Vec<u8> {
    asterix_adm::binary::encode_key(&[asterix_adm::Value::Int(k)])
}

impl Engine {
    /// Opens (recovers) the engine under `dir`: sweep, open the log, attach
    /// the manifest's components, re-apply the committed log tail no
    /// component covers.
    fn open(dir: &Path, faults: Option<Arc<FaultInjector>>) -> asterix_storage::Result<Engine> {
        sweep_unreferenced(dir)?;
        let io = IoStats::new();
        let fm = FileManager::with_faults(dir, Arc::clone(&io), faults.clone())?;
        let log = NodeLog::open(dir, "node", faults, io.registry())?;
        let config = LsmConfig {
            mem_budget: 400,
            merge_policy: MergePolicy::Constant { max_components: 2 },
            ..LsmConfig::new("kv")
        };
        let mut e = Engine { indexes: Vec::new(), pin: log.pin("kv"), log, io };
        join(&mut e.indexes, 0, LsmTree::reopen(BufferCache::new(fm, 64), config)?);
        for op in e.log.replay() {
            if op.lsn >= e.indexes[0].flushed_below() {
                e.apply(op.lsn, None, op.key, (!op.is_delete).then_some(op.value))?;
            }
        }
        e.log.replayed()?;
        Ok(e)
    }

    /// Applies the log record at `lsn` by `writer` (`None`: replayed) — the
    /// put of `value` or, `None`, the delete of `key` — and settles.
    fn apply(&mut self, lsn: Lsn, writer: Option<u64>, key: Vec<u8>, value: Option<Vec<u8>>) -> asterix_storage::Result<()> {
        let tree = &mut self.indexes[0];
        tree.stamp(lsn, writer);
        let applied = match value {
            Some(value) => tree.upsert(key, value),
            None => tree.delete(key),
        };
        self.settle(applied)
    }

    /// Settles through the log after an operation that `applied` or not. A
    /// failed upkeep fails this call: a partition reports it on its next
    /// call instead, and the workload stops at the first failure either way.
    fn settle(&mut self, applied: asterix_storage::Result<()>) -> asterix_storage::Result<()> {
        let (applied, upkeep) = self.log.settle(&mut self.indexes, false, &self.pin, applied);
        applied.and(upkeep)
    }

    /// Logs and applies `writes` (`None` deletes) as transaction `txn`,
    /// without committing.
    fn write(&mut self, txn: u64, writes: &[(i64, Option<String>)]) -> asterix_storage::Result<()> {
        for (k, v) in writes {
            let value = v.as_ref().map(|v| v.as_bytes());
            let lsn = self.log.append_write(txn, 7, 0, &int_key(*k), value)?;
            self.apply(lsn, Some(txn), int_key(*k), v.clone().map(String::into_bytes))?;
        }
        Ok(())
    }

    /// Makes `txn` durable. `Err` leaves it indeterminate.
    fn commit(&mut self, txn: u64) -> asterix_storage::Result<()> {
        self.log.commit(txn, &[])
    }

    /// `txn` is durable: what it wrote may be flushed.
    fn finish(&mut self, txn: u64) -> asterix_storage::Result<()> {
        self.log.finish_txn(txn, true);
        let released = self.indexes[0].release(txn);
        self.settle(released)
    }

    fn state(&self) -> Kv {
        self.indexes[0]
            .scan()
            .unwrap()
            .into_iter()
            .map(|(k, v)| {
                let key = asterix_adm::binary::decode_key(&k).unwrap().pop().unwrap();
                (key.as_i64().unwrap(), String::from_utf8(v).unwrap())
            })
            .collect()
    }
}

/// Transactions `from..to` of the fixed workload: three writes each over 24
/// keys, every fifth write a delete, values naming their transaction.
/// Returns the state confirmed commits promise and, if a commit's sync
/// failed, the state with that one transaction too.
fn run_txns(e: &mut Engine, from: u64, to: u64, mut confirmed: Kv) -> (Kv, Option<Kv>) {
    for txn in from..to {
        let writes: Vec<(i64, Option<String>)> = (0..3)
            .map(|i| {
                let n = txn * 3 + i;
                let k = (n * 7 % 24) as i64;
                (k, (n % 5 != 0).then(|| format!("t{txn}-{}", "x".repeat(24))))
            })
            .collect();
        if e.write(txn, &writes).is_err() {
            return (confirmed, None);
        }
        let mut with = confirmed.clone();
        for (k, v) in &writes {
            match v {
                Some(v) => with.insert(*k, v.clone()),
                None => with.remove(k),
            };
        }
        if e.commit(txn).is_err() {
            return (confirmed, Some(with));
        }
        confirmed = with;
        if e.finish(txn).is_err() {
            return (confirmed, None);
        }
    }
    (confirmed, None)
}

/// Every named crash point, at every occurrence the workload reaches:
/// committed ⇒ present exactly once at its latest version, uncommitted ⇒
/// absent, and the recovered engine is a sound base to go on from.
#[test]
fn durability_crash_points_recover_committed_state_exactly() {
    let points = [
        ".manifest.tmp:write", // inside the manifest write
        ".manifest:rename",    // written and synced, not yet published
        ".manifest:dirsync",   // between rename and directory fsync
        ".btree:unlink",       // merged output published, inputs not retired
        ".wal.tmp:write",      // inside segment rotation
        ".wal:rename",
        ".wal:dirsync",
        ".wal:unlink", // inside log truncation
    ];
    for point in points {
        let mut fired = 0;
        for nth in 0..64 {
            let dir = TempDir::new("points");
            let inj = FaultInjector::crash_at(11, point, nth);
            // (the first log segment is itself published atomically: the
            // crash may land in the open)
            let (confirmed, indeterminate) = match Engine::open(dir.path(), Some(inj.clone())) {
                Ok(mut e) => run_txns(&mut e, 1, 40, Kv::new()),
                Err(_) => (Kv::new(), None),
            };
            if !inj.crashed() {
                break; // the workload has no occurrence this late
            }
            fired += 1;
            let mut e = Engine::open(dir.path(), None).unwrap();
            let got = e.state();
            assert!(
                got == confirmed || indeterminate.as_ref() == Some(&got),
                "{point} #{nth}: recovered {got:?}\n confirmed {confirmed:?}\n or with {indeterminate:?}\n events {:?}",
                inj.events()
            );
            // go on from the recovered state, and restart once more
            let (confirmed, _) = run_txns(&mut e, 100, 110, got);
            drop(e);
            assert_eq!(Engine::open(dir.path(), None).unwrap().state(), confirmed, "{point} #{nth}");
        }
        assert!(fired >= 2, "{point}: the workload must reach it (fired {fired} times)");
    }
}

/// What the protocol buys: after every transaction the log holds at most
/// the records of what is still only in memory, however long the history.
#[test]
fn log_tail_stays_bounded_by_what_is_unflushed() {
    let dir = TempDir::new("bounded");
    let mut e = Engine::open(dir.path(), None).unwrap();
    let (confirmed, _) = run_txns(&mut e, 1, 200, Kv::new());
    let node = e.io.registry().snapshot();
    assert!(e.indexes[0].stats().flushes > 10, "the workload must flush often");
    drop(e);
    let log_files: Vec<_> = std::fs::read_dir(dir.path())
        .unwrap()
        .map(|f| f.unwrap())
        .filter(|f| f.file_name().to_string_lossy().ends_with(".wal"))
        .collect();
    // every segment but the first begins at a rotation, and the first is gone
    let segments = node.gauge("storage.wal.segments").unwrap();
    assert_eq!(segments, log_files.len() as i64);
    let first = format!("node-{:020}.wal", 0);
    assert!(log_files.iter().all(|f| f.file_name() != first.as_str()), "the workload must rotate the log");
    assert!(node.counter("storage.wal.truncated_bytes").unwrap() > 0, "the workload must truncate the log");
    assert!(segments <= 2, "{segments} segments");
    let log_bytes: u64 = log_files.iter().map(|f| f.metadata().unwrap().len()).sum();
    assert!(log_bytes < 4_000, "200 transactions of history left {log_bytes} log bytes");
    assert_eq!(Engine::open(dir.path(), None).unwrap().state(), confirmed);
}

// ---------------------------------------------------------------------------
// WAL round-trip under truncation (property)
// ---------------------------------------------------------------------------

/// An id at a varint width boundary — one and two bytes end at 127 and
/// 16 383 — or at `u32::MAX`, or a small one.
fn arb_id() -> BoxedStrategy<u32> {
    prop_oneof![Just(0u32), Just(127), Just(128), Just(16_383), Just(16_384), Just(u32::MAX), 1u32..20]
}

fn arb_record() -> BoxedStrategy<WalRecord> {
    let txn = prop_oneof![arb_id().prop_map(u64::from), Just(u64::MAX)];
    prop_oneof![
        (
            (txn, arb_id(), arb_id()),
            prop::collection::vec(0u8..255, 0..24),
            prop_oneof![Just(Vec::new()), prop::collection::vec(0u8..255, 0..48)],
            any::<bool>(),
        )
            .prop_map(|((txn_id, dataset, partition), key, value, is_delete)| WalRecord::Write {
                txn_id,
                dataset,
                partition,
                is_delete,
                key,
                // a put may be empty: it reads back as a put all the same
                value: if is_delete { Vec::new() } else { value },
            }),
        (1u64..20).prop_map(|txn| WalRecord::Commit { txn_id: txn }),
        (1u64..20).prop_map(|txn| WalRecord::Abort { txn_id: txn }),
        (1u64..20, prop::collection::vec(("[a-z.]{1,8}", 0u64..100), 0..3))
            .prop_map(|(max_txn, feed_cursors)| WalRecord::Checkpoint { max_txn, feed_cursors }),
    ]
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Append a random record sequence — ids across the varint widths,
    /// empty keys, empty puts — syncing after groups of random sizes: it
    /// must read back as appended, at the LSNs `append` gave. Then truncate
    /// the file at an arbitrary byte length: reading must recover exactly
    /// the records of the blocks wholly below the cut — a block cut anywhere
    /// is a crash tail and goes whole — never erroring, and the valid prefix
    /// must end where the last of those blocks does.
    #[test]
    fn truncated_log_always_yields_the_synced_prefix(
        records in prop::collection::vec(arb_record(), 1..40),
        group_sizes in prop::collection::vec(1usize..8, 1..40),
        cut_fraction in 0.0f64..1.2,
    ) {
        let dir = TempDir::new("proptrunc");
        let path = dir.path().join("wal.log");
        let mut w = WalWriter::open(&path).unwrap();
        let mut appended = Vec::new();
        // the file's length and the records appended after each sync
        let mut blocks = vec![(0u64, 0usize)];
        let mut groups = group_sizes.iter().cycle();
        let mut rest = records.as_slice();
        while let Some(&group) = groups.next().filter(|_| !rest.is_empty()) {
            let (group, after) = rest.split_at(group.min(rest.len()));
            for r in group {
                appended.push((w.append(r).unwrap(), r.clone()));
            }
            w.sync().unwrap();
            blocks.push((std::fs::metadata(&path).unwrap().len(), appended.len()));
            rest = after;
        }
        let full_len = std::fs::metadata(&path).unwrap().len();
        prop_assert_eq!(&read_log(&path).unwrap(), &appended);

        // byte-level truncation at an arbitrary point (possibly past EOF)
        let cut = ((full_len as f64) * cut_fraction) as u64;
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(cut.min(full_len)).unwrap();
        drop(f);

        let (end, kept) = *blocks.iter().rev().find(|(end, _)| *end <= cut).unwrap();
        prop_assert_eq!(&read_log(&path).unwrap(), &appended[..kept], "cut={} of {}", cut, full_len);
        prop_assert_eq!(valid_prefix_len(&path).unwrap(), end);
    }
}
