//! Crash-mid-merge recovery properties: randomized upsert workloads sized
//! so LSM flushes *and merges* fire constantly, run against an instance
//! whose fault injector crashes after the Nth I/O operation, across every
//! merge policy. After the crash the instance reopens fault-free and two
//! invariants are checked:
//!
//!  1. no loss — every record of a transaction whose `commit()` returned
//!     `Ok` before the crash is present after recovery;
//!  2. no doubling — every recovered primary key appears exactly once,
//!     even when the crash landed between a merge publishing its output
//!     component and retiring its inputs.
//!
//! Invariant 2 is the regression property for the merge-retirement
//! data-loss fix: retirement used to drain the input components *before*
//! inserting the merged one, so a crash (or failed delete) in that window
//! dropped the merged data entirely; the fixed ordering publishes first
//! and treats retirement-delete failures as non-fatal. Components are
//! durable: recovery attaches exactly those the index's manifest names —
//! the merged output *or* its inputs, never both, whichever side of the
//! manifest's rename the crash fell — and replays only the log tail past
//! them, so a mid-merge crash must never change the recovered row set.
//! Merges run as morsel tasks on the worker pool, so the crash fires on
//! whichever thread (writer or merge worker) reaches it and the interleaving
//! is arbitrary: the recovered row set must be right for every one of them.
//! Besides the random sweep, every manifest publish, retirement unlink, log
//! rotation and segment unlink the workload performs is crashed by name.

mod common;

use asterix_adm::Value;
use asterix_core::dataset::StorageConfig;
use asterix_core::instance::{Instance, InstanceConfig};
use asterix_storage::faults::{FaultConfig, FaultInjector};
use asterix_storage::lsm::MergePolicy;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

/// Self-cleaning scratch directory (integration tests cannot use the
/// crate-private test helpers).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "asterix-compcrash-{tag}-{}-{}",
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

const DDL: &str = r#"
    CREATE TYPE KVType AS { k: int, v: string };
    CREATE DATASET kv(KVType) PRIMARY KEY k;
"#;

fn kv_record(k: i64, v: &str) -> Value {
    Value::object(vec![("k".into(), Value::Int(k)), ("v".into(), Value::from(v.to_string()))])
}

/// Merge policies the crash sweep runs under, the [`MERGING`] ones first.
/// Every policy exercises a different merge cadence and input-range shape,
/// so crash points land in different spots of the merge pipeline — or, with
/// no merge at all, all in flushes and log rotation.
fn policy(idx: usize) -> MergePolicy {
    match idx {
        0 => MergePolicy::Constant { max_components: 3 },
        1 => MergePolicy::Prefix { max_mergable_bytes: 32 << 20, max_tolerance_components: 2 },
        _ => MergePolicy::NoMerge,
    }
}

const POLICIES: usize = 3;
const MERGING: usize = 2;

fn config(
    dir: &Path,
    merge_policy: MergePolicy,
    faults: Option<Arc<FaultInjector>>,
) -> InstanceConfig {
    InstanceConfig {
        data_dir: Some(dir.to_path_buf()),
        nodes: 1,
        partitions: 1,
        cache_pages_per_node: 64,
        // A tiny memory budget makes nearly every txn flush, and the
        // merge-happy policies above make most flushes merge: the bulk of
        // the I/O schedule the crash counter walks over is merge I/O. About
        // ten of the workload's records fill it (the budget counts each
        // entry's map overhead and an overwrite once), so its 96 writes make
        // six flushes.
        storage: StorageConfig { mem_budget: 1536, merge_policy },
        faults,
        ..InstanceConfig::default()
    }
}

/// Runs `ntxns` committed upsert batches (8 records each, values sized to
/// force flushes) until the injected crash. Returns the state every
/// `Ok`-returning commit promised, plus the one indeterminate transaction
/// whose commit errored mid-force (its WAL flush may or may not have
/// landed; recovery may legitimately surface either state).
fn run_workload(
    dir: &Path,
    seed: u64,
    crash_after: u64,
    pol: MergePolicy,
    ntxns: usize,
) -> (BTreeMap<i64, String>, Option<BTreeMap<i64, String>>) {
    let injector = FaultInjector::new(FaultConfig {
        seed,
        crash_after_ios: Some(crash_after),
        ..FaultConfig::default()
    });
    run_workload_under(dir, &injector, pol, ntxns)
}

/// [`run_workload`] under a given injector.
fn run_workload_under(
    dir: &Path,
    injector: &Arc<FaultInjector>,
    pol: MergePolicy,
    ntxns: usize,
) -> (BTreeMap<i64, String>, Option<BTreeMap<i64, String>>) {
    let mut committed = BTreeMap::new();
    let db = match Instance::open(config(dir, pol, Some(injector.clone()))) {
        Ok(db) => db,
        Err(_) => return (committed, None),
    };
    if db.execute_sqlpp(DDL).is_err() {
        return (committed, None);
    }
    for t in 0..ntxns as i64 {
        let mut tentative = committed.clone();
        let mut txn = db.begin();
        let mut failed = false;
        for i in 0..8i64 {
            // Overlapping key space: later merges rewrite earlier keys, so
            // a retirement bug surfaces as losing the *surviving* version.
            let k = (t * 5 + i) % 64;
            let v = format!("v{t}-{i}-{}", "x".repeat(44));
            if txn.write("kv", &kv_record(k, &v), true).is_ok() {
                tentative.insert(k, v);
            } else {
                failed = true;
                break;
            }
        }
        if failed {
            drop(txn); // rollback
            return (committed, None);
        }
        match txn.commit() {
            Ok(()) => committed = tentative,
            Err(_) => return (committed, Some(tentative)),
        }
        if injector.crashed() {
            break;
        }
    }
    drop(db);
    (committed, None)
}

/// Reopens fault-free and returns (rows, distinct-key map). A row count
/// above the map size means a primary key came back doubled.
fn reopened_state(dir: &Path, pol: MergePolicy) -> (usize, BTreeMap<i64, String>) {
    let db = Instance::open(config(dir, pol, None)).expect("recovery must succeed");
    let rows = db.query("SELECT VALUE d FROM kv d").expect("recovered dataset must be queryable");
    let mut m = BTreeMap::new();
    for r in &rows {
        let k = r.field("k").as_i64().expect("recovered record has int pk");
        let v = r.field("v").as_str().expect("recovered record has string value").to_string();
        m.insert(k, v);
    }
    (rows.len(), m)
}

/// Honour the CI nightly's `PROPTEST_CASES` (the in-attribute config
/// overrides proptest's own env lookup).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(24)
}

/// I/O operations a fault-free run of the workload performs, at most (open
/// and DDL take the first 20; the policies differ in how much they merge).
const CRASH_POINTS: u64 = 200;

/// The workload really does merge: fault-free, every merging policy must
/// report merges on the primary index, otherwise the crash sweep below is
/// vacuously passing without ever interrupting a merge.
#[test]
fn workload_exercises_merges_under_every_policy() {
    for idx in 0..MERGING {
        let dir = TempDir::new("vacuum");
        let pol = policy(idx);
        let injector = FaultInjector::new(FaultConfig::default());
        let db = Instance::open(config(dir.path(), pol, Some(injector.clone()))).unwrap();
        db.execute_sqlpp(DDL).unwrap();
        for t in 0..12i64 {
            let mut txn = db.begin();
            for i in 0..8i64 {
                let v = format!("v{t}-{i}-{}", "x".repeat(44));
                txn.write("kv", &kv_record((t * 5 + i) % 64, &v), true).unwrap();
            }
            txn.commit().unwrap();
        }
        // the merges run on the worker pool: let them drain
        common::settle(&db);
        // and the random sweep draws its crash points from the whole run
        let ops = injector.ops();
        assert!((CRASH_POINTS / 2..=CRASH_POINTS).contains(&ops), "policy {idx}: {ops} I/O operations");
        let write_amp = db.metrics_snapshot().counter("node0.storage.lsm.write_amp");
        assert!(
            write_amp > Some(1000),
            "policy {idx}: no merge amplification observed (write_amp={write_amp:?})"
        );
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// No loss, no doubling — over random (seed, crash point, policy)
    /// triples whose crash counter lands inside flushes, merges, and the
    /// publish/retire window between them.
    #[test]
    fn crash_mid_merge_never_loses_nor_doubles_components(
        seed in 0u64..10_000,
        crash_after in 0u64..CRASH_POINTS,
        pol_idx in 0..POLICIES,
    ) {
        let pol = policy(pol_idx);
        let dir = TempDir::new("midmerge");
        let (committed, crashing) =
            run_workload(dir.path(), seed, crash_after, pol, 12);
        // An empty outcome means the crash preceded the DDL; nothing to check.
        if !(committed.is_empty() && crashing.is_none()) {
            let (nrows, got) = reopened_state(dir.path(), pol);
            prop_assert_eq!(
                nrows, got.len(),
                "seed={} crash_after={} policy={}: a primary key recovered doubled",
                seed, crash_after, pol_idx
            );
            let ok_without = got == committed;
            let ok_with = crashing.as_ref().is_some_and(|m| &got == m);
            prop_assert!(
                ok_without || ok_with,
                "seed={} crash_after={} policy={}: recovered state matches neither candidate\n \
                 got: {:?}\n committed: {:?}\n with crashing commit: {:?}",
                seed, crash_after, pol_idx, got, committed, crashing
            );
        }
    }
}

/// No loss, no doubling at the crash points where durability lives, each
/// at every occurrence the workload reaches, under every policy that merges:
/// inside the manifest write, written but not renamed, between the rename
/// and the directory fsync, between a merge's publish and the unlink of its
/// inputs (merged output *and* inputs on disk), inside a log rotation, and
/// at a segment unlink.
#[test]
fn named_publish_and_retirement_crash_points_never_lose_nor_double() {
    let points = [
        ".manifest.tmp:write",
        ".manifest:rename",
        ".manifest:dirsync",
        ".btree:unlink",
        ".wal.tmp:write",
        ".wal:dirsync",
        ".wal:unlink",
    ];
    for (pol_idx, point) in (0..MERGING).flat_map(|p| points.iter().map(move |pt| (p, *pt))) {
        let pol = policy(pol_idx);
        let mut fired = 0;
        for nth in 0..48 {
            let dir = TempDir::new("named");
            let injector = FaultInjector::crash_at(21, point, nth);
            let (committed, crashing) = run_workload_under(dir.path(), &injector, pol, 12);
            if !injector.crashed() {
                break; // no occurrence this late
            }
            fired += 1;
            if committed.is_empty() && crashing.is_none() {
                continue; // the crash preceded the DDL (its own first manifest)
            }
            let (nrows, got) = reopened_state(dir.path(), pol);
            assert_eq!(nrows, got.len(), "policy {pol_idx} {point} #{nth}: a key recovered doubled");
            assert!(
                got == committed || crashing.as_ref().is_some_and(|m| &got == m),
                "policy {pol_idx} {point} #{nth}: recovered state matches neither candidate\n \
                 got: {got:?}\n committed: {committed:?}\n crashing: {crashing:?}"
            );
        }
        assert!(fired > 1, "policy {pol_idx}: the workload never reaches {point}");
    }
}
