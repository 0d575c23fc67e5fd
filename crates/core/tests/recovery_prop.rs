//! Instance-level crash-recovery property tests. One crash run opens a
//! fault-injected single-node instance, runs seed-deterministic transactions
//! of one to three upserts or deletes until the crash, and records what they
//! promised; the instance is then reopened fault-free and one check holds the
//! recovered state to three invariants:
//!
//!  1. every operation whose transaction's `commit()` returned `Ok` is
//!     durable after recovery;
//!  2. every operation whose transaction never reached a successful commit
//!     is undone after recovery;
//!  3. no primary key comes back twice — even when the crash landed between
//!     a merge publishing its output and retiring its inputs.
//!
//! The single transaction whose `commit()` call *errored* (the crash landed
//! inside its WAL force) is indeterminate: its commit record may or may not
//! have reached the disk. The recovered state must therefore equal the
//! committed-only state either with or without that one transaction —
//! never a mix, because a WAL flush persists the transaction's updates and
//! its commit record in one prefix-ordered write. And the dataset is there
//! once its DDL returned.
//!
//! A run crashes after its Nth I/O operation, at the nth occurrence of a
//! named I/O step, or at a failed fsync — which the injector treats as a
//! crash: the commit whose sync failed is the crashing commit. The harness
//! keeps `short_write_prob` at zero and uses a single node so exactly one
//! transaction can be ambiguous; the schedule is seed-deterministic. A run
//! has one of two shapes. Two partitions of a few records a memory
//! component walk the schedule through component flushes, manifest
//! publishes, log rotations and segment unlinks as well as commits. One
//! partition of about ten records a component, under each merge policy,
//! merges every few flushes, deletes included, so that crash points land
//! all over the merge pipeline — or, with no merge at all, in flushes and
//! log rotation; one prefix bound keeps a merged component out of later
//! merges, so they leave the oldest component out. Merges run as tasks on the worker pool, so the crash fires
//! on whichever thread reaches it: the recovered rows must be right for
//! every interleaving. Recovery attaches exactly the components a manifest
//! names — a merge's output *or* its inputs, never both, whichever side of
//! the manifest's rename the crash fell — and replays only the log tail
//! past them.
//!
//! Below the property sit the named regressions of the durability design
//! (DESIGN.md, "Durability"): no-steal across a seal, abort after a seal,
//! a crash inside a partition's co-sealed flush, `CREATE INDEX` on loaded data,
//! `DROP`/`CREATE` of one name, and a crash inside the DDL persist.

mod common;
#[path = "common/crash.rs"]
mod crash;

use asterix_adm::{Point, Value};
use asterix_core::dataset::{extract_pk, StorageConfig};
use asterix_core::instance::{Instance, InstanceConfig};
use asterix_storage::faults::{FaultConfig, FaultEvent, FaultInjector};
use asterix_storage::lsm::MergePolicy;
use crash::TempDir;
use proptest::prelude::*;
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::sync::Arc;

const DDL: &str = r#"
    CREATE TYPE KVType AS { k: int, v: int };
    CREATE DATASET kv(KVType) PRIMARY KEY k;
"#;

fn kv_record(k: i64, v: i64) -> Value {
    padded(k, v, 0)
}

/// A kv record with an undeclared field of `pad` bytes, if any.
fn padded(k: i64, v: i64, pad: usize) -> Value {
    let mut fields = vec![("k".into(), Value::Int(k)), ("v".into(), Value::Int(v))];
    if pad > 0 {
        fields.push(("pad".into(), Value::from("x".repeat(pad))));
    }
    Value::object(fields)
}

fn pk_of(k: i64) -> Vec<u8> {
    extract_pk(&kv_record(k, 0), &["k".to_string()]).unwrap()
}

fn config(
    dir: &Path,
    nodes: usize,
    mem_budget: usize,
    faults: Option<Arc<FaultInjector>>,
) -> InstanceConfig {
    InstanceConfig {
        data_dir: Some(dir.to_path_buf()),
        nodes,
        partitions: 2,
        cache_pages_per_node: 64,
        storage: StorageConfig {
            mem_budget,
            ..StorageConfig::default()
        },
        faults,
        ..InstanceConfig::default()
    }
}

/// A crash run's instance — where its memory components fill and how its
/// disk components merge, on one node — and its length.
#[derive(Clone, Copy, Debug)]
struct Shape {
    partitions: usize,
    mem_budget: usize,
    merge_policy: MergePolicy,
    /// Bytes of an undeclared field in each record.
    pad: usize,
    /// Transactions a run commits when nothing crashes it.
    txns: usize,
}

impl Shape {
    fn config(&self, dir: &Path, faults: Option<Arc<FaultInjector>>) -> InstanceConfig {
        let mut config = config(dir, 1, self.mem_budget, faults);
        config.partitions = self.partitions;
        config.storage.merge_policy = self.merge_policy;
        config
    }
}

/// Two partitions of about four records a component under the engine's
/// default merge policy.
fn two_partitions() -> Shape {
    Shape {
        partitions: 2,
        mem_budget: 256,
        merge_policy: StorageConfig::default().merge_policy,
        pad: 0,
        txns: 23,
    }
}

/// One partition of about ten records a component (the budget counts each
/// entry's map overhead and an overwrite once): six flushes a run.
const fn merging(merge_policy: MergePolicy) -> Shape {
    Shape {
        partitions: 1,
        mem_budget: 1536,
        merge_policy,
        pad: 48,
        txns: 40,
    }
}

/// [`merging`] with a pad ten times as long, about six records a
/// component, and a prefix bound between a flushed component (one page) and
/// the merged ones it grows (two or three; [`merging`]'s records fill one
/// page either way). A merged component stays out of every later merge, so
/// those merges leave the oldest component out and must keep their delete
/// markers.
const PARTIAL_MERGES: Shape = Shape {
    mem_budget: 4096,
    pad: 500,
    txns: 28,
    ..merging(MergePolicy::Prefix {
        max_mergable_bytes: 16 << 10,
        max_tolerance_components: 1,
    })
};

/// One partition under each merge policy, the [`MERGING`] ones first.
const ONE_PARTITION: [Shape; 4] = [
    merging(MergePolicy::Constant { max_components: 3 }),
    merging(MergePolicy::Prefix {
        max_mergable_bytes: 32 << 20,
        max_tolerance_components: 2,
    }),
    PARTIAL_MERGES,
    merging(MergePolicy::NoMerge),
];

/// The shapes whose workload merges.
const MERGING: std::ops::Range<usize> = 0..3;

/// What a crash run promised the recovered state.
#[derive(Default)]
struct Outcome {
    /// State from transactions whose commit() returned Ok.
    committed: BTreeMap<i64, i64>,
    /// `committed` plus the one transaction whose commit() errored mid-force
    /// (indeterminate: its commit record may or may not be durable).
    with_crashing_commit: Option<BTreeMap<i64, i64>>,
    /// Whether the DDL returned before the crash.
    ddl_done: bool,
    /// Whether the crash cut short a merge that had taken a sealed memory
    /// component in: the merge aborted, and the component never reached
    /// disk. (In the one-partition shapes every merge takes one in: the
    /// policy fires on the flush that would complete a run.)
    cut_a_memory_merge: bool,
}

/// The crash run: opens a `shape` instance under `injector`, creates kv, and
/// runs up to `ntxns` transactions drawn from `seed` until the crash.
fn run(
    dir: &Path,
    shape: Shape,
    seed: u64,
    injector: &Arc<FaultInjector>,
    ntxns: usize,
) -> Outcome {
    let Ok(db) = Instance::open(shape.config(dir, Some(injector.clone()))) else {
        return Outcome::default();
    };
    if db.execute_sqlpp(DDL).is_err() {
        return Outcome::default();
    }
    // dropped without flushing memory components: what recovery may rely on
    // is the published components and the log tail
    let mut out = transact(&db, shape, seed, injector, ntxns);
    if injector.crashed() {
        common::settle(&db);
        if let Ok(stats) = db.lsm_stats("kv", None) {
            out.cut_a_memory_merge = stats.iter().any(|s| s.merges_aborted > 0 && s.seals > s.flushes);
        }
    }
    out
}

/// Up to `ntxns` transactions of one to three upserts or deletes over 40
/// keys, drawn from `seed`, until `injector` crashes.
fn transact(
    db: &Instance,
    shape: Shape,
    seed: u64,
    injector: &FaultInjector,
    ntxns: usize,
) -> Outcome {
    let mut out = Outcome {
        ddl_done: true,
        ..Outcome::default()
    };
    let mut rng = SmallRng::seed_from_u64(seed ^ 0x9e37_79b9_7f4a_7c15);
    for _ in 0..ntxns {
        let nops = rng.gen_range(1..=3usize);
        let mut tentative = out.committed.clone();
        let mut txn = db.begin();
        let mut failed = false;
        for _ in 0..nops {
            let k = rng.gen_range(0i64..40);
            let delete = rng.gen_bool(0.25) && tentative.contains_key(&k);
            if delete {
                if txn.delete("kv", &pk_of(k)).is_ok() {
                    tentative.remove(&k);
                } else {
                    failed = true;
                    break;
                }
            } else {
                let v = rng.gen_range(0i64..1_000_000);
                if txn.write("kv", &padded(k, v, shape.pad), true).is_ok() {
                    tentative.insert(k, v);
                } else {
                    failed = true;
                    break;
                }
            }
        }
        if failed {
            // drop rolls the txn back (invariant 2: it must be undone)
            drop(txn);
            if injector.crashed() {
                break;
            }
            continue;
        }
        match txn.commit() {
            Ok(()) => out.committed = tentative,
            Err(_) => {
                out.with_crashing_commit = Some(tentative);
                break;
            }
        }
        if injector.crashed() {
            break;
        }
    }
    out
}

/// Reopens `dir` fault-free and holds the recovered kv to what `out`
/// promised: there once its DDL returned, no key twice, and the committed
/// state with or without the crashing commit.
fn check(dir: &Path, shape: Shape, out: &Outcome) -> Result<(), String> {
    let db =
        Instance::open(shape.config(dir, None)).map_err(|e| format!("recovery failed: {e}"))?;
    let rows = match db.query("SELECT VALUE d FROM kv d") {
        Ok(rows) => rows,
        // the crash preceded the DDL's persist
        Err(_) if !out.ddl_done => return Ok(()),
        Err(e) => return Err(format!("dataset lost after its DDL: {e}")),
    };
    let mut got = BTreeMap::new();
    for r in &rows {
        let (Some(k), Some(v)) = (r.field("k").as_i64(), r.field("v").as_i64()) else {
            return Err(format!("not a kv record: {r:?}"));
        };
        got.insert(k, v);
    }
    if got.len() != rows.len() {
        return Err(format!(
            "{} rows of {} keys: a key came back twice",
            rows.len(),
            got.len()
        ));
    }
    if got != out.committed && out.with_crashing_commit.as_ref() != Some(&got) {
        return Err(format!(
            "recovered state matches neither candidate\n got: {got:?}\n committed: {:?}\n \
             with crashing commit: {:?}",
            out.committed, out.with_crashing_commit
        ));
    }
    Ok(())
}

/// The first I/O operations of a fault-free run of every shape (open and
/// DDL take the first 24): the random sweep draws its crash points from
/// them.
const CRASH_POINTS: u64 = 256;

/// A fault-free run of the two-partition shape walks through every crash
/// point the sweep draws, flushing and truncating on the way.
#[test]
fn workload_reaches_the_crash_points_it_draws_from() {
    let dir = TempDir::new("reach");
    let injector = FaultInjector::new(FaultConfig {
        seed: 5,
        ..FaultConfig::default()
    });
    let shape = two_partitions();
    let out = run(dir.path(), shape, 5, &injector, shape.txns);
    assert!(out.ddl_done && !injector.crashed());
    assert!(
        injector.ops() >= CRASH_POINTS,
        "only {} ops",
        injector.ops()
    );
    let db = Instance::open(shape.config(dir.path(), None)).unwrap();
    let snap = db.metrics_snapshot();
    assert!(
        snap.counter("core.recovery.components_loaded").unwrap() > 0,
        "components survive"
    );
    assert!(
        snap.gauge("node0.storage.wal.segments").unwrap() <= 3,
        "the log was truncated"
    );
}

/// The merging workload really does merge: fault-free, every merging policy
/// must report merges, otherwise the sweeps would pass without ever
/// interrupting one; the random sweep draws its crash points from the
/// whole run; and [`PARTIAL_MERGES`] merges while leaving the oldest
/// component out.
#[test]
fn workload_exercises_merges_under_every_policy() {
    for shape in &ONE_PARTITION[MERGING] {
        // twice: the merges run on the worker pool, and every seal finishes
        // what the pool has not, so the pool's speed changes no count
        let runs: Vec<(Option<u64>, Option<u64>)> = (0..2)
            .map(|_| {
                let dir = TempDir::new("vacuum");
                let injector = FaultInjector::new(FaultConfig::default());
                let db = Instance::open(shape.config(dir.path(), Some(injector.clone()))).unwrap();
                db.execute_sqlpp(DDL).unwrap();
                transact(&db, *shape, 21, &injector, shape.txns);
                // let the merges the last flush left to the pool drain
                common::settle(&db);
                let ops = injector.ops();
                assert!(
                    (CRASH_POINTS / 2..=CRASH_POINTS).contains(&ops),
                    "{shape:?}: {ops} I/O operations"
                );
                let node = db.metrics_snapshot();
                (node.counter("node0.storage.lsm.write_amp"), node.counter("node0.storage.lsm.merges"))
            })
            .collect();
        let (write_amp, merges) = runs[0];
        assert!(
            write_amp > Some(1000),
            "{shape:?}: no merge amplification (write_amp={write_amp:?}, merges={merges:?})"
        );
        assert_eq!(runs[1], runs[0], "{shape:?}: (write_amp, merges) of two runs of one op stream");
    }
    // Once a merged component is past the prefix bound, no merge takes it:
    // every later one leaves the oldest component out.
    let shape = PARTIAL_MERGES;
    let MergePolicy::Prefix { max_mergable_bytes, .. } = shape.merge_policy else {
        unreachable!("a prefix shape")
    };
    let dir = TempDir::new("partial");
    let injector = FaultInjector::new(FaultConfig::default());
    let db = Instance::open(shape.config(dir.path(), Some(injector.clone()))).unwrap();
    db.execute_sqlpp(DDL).unwrap();
    let components = || -> Vec<(String, u64)> {
        let node = std::fs::read_dir(dir.path().join("node0")).unwrap();
        let files = node.map(|e| e.unwrap());
        let kv = files.filter(|e| e.file_name().to_string_lossy().starts_with("kv_"));
        kv.map(|e| (e.file_name().to_string_lossy().into_owned(), e.metadata().unwrap().len()))
            .collect()
    };
    let merges = || db.metrics_snapshot().counter("node0.storage.lsm.merges").unwrap();
    let mut seed = 21;
    let unmergeable = loop {
        transact(&db, shape, seed, &injector, 4);
        common::settle(&db);
        if let Some((name, _)) = components().into_iter().find(|c| c.1 >= max_mergable_bytes) {
            break name;
        }
        seed += 1;
        assert!(seed < 40, "no component grew past the bound: {:?}", components());
    };
    let merged = merges();
    transact(&db, shape, seed + 1, &injector, shape.txns);
    common::settle(&db);
    assert!(merges() > merged, "no merge after {unmergeable} passed the bound");
    assert!(components().iter().any(|c| c.0 == unmergeable));
}

/// One random crash run of `shape` under `faults`, checked on reopen.
fn crash_and_check(seed: u64, shape: Shape, faults: FaultConfig) -> Result<(), String> {
    let injector = FaultInjector::new(FaultConfig { seed, ..faults });
    let dir = TempDir::new("inv");
    let out = run(dir.path(), shape, seed, &injector, shape.txns);
    check(dir.path(), shape, &out)
        .map_err(|why| format!("{shape:?}: {why}\n events: {:?}", injector.events()))
}

/// Crashes after the `n`th I/O operation.
fn crash_after(n: u64) -> FaultConfig {
    FaultConfig {
        crash_after_ios: Some(n),
        ..FaultConfig::default()
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// The invariants over random (seed, crash point) draws on two
    /// partitions: confirmed commits survive, unconfirmed transactions
    /// vanish, no key doubles, and the one crashing commit is all-or-nothing.
    #[test]
    fn committed_ops_survive_and_uncommitted_ops_are_undone(
        seed in 0u64..10_000,
        n in 0u64..CRASH_POINTS,
    ) {
        if let Err(why) = crash_and_check(seed, two_partitions(), crash_after(n)) {
            prop_assert!(false, "seed={seed} crash_after={n} {why}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    /// The same invariants on one partition under every merge policy, whose
    /// crash points land inside flushes, merges, and the publish/retire
    /// window between them.
    #[test]
    fn crash_mid_merge_never_loses_nor_doubles_components(
        seed in 0u64..10_000,
        n in 0u64..CRASH_POINTS,
        shape in 0..ONE_PARTITION.len(),
    ) {
        if let Err(why) = crash_and_check(seed, ONE_PARTITION[shape], crash_after(n)) {
            prop_assert!(false, "seed={seed} crash_after={n} {why}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// The same invariants when the crash is a failed fsync, drawn to fall
    /// about `n` operations in, on every shape: the commit whose sync failed
    /// is the crashing commit.
    #[test]
    fn a_failed_fsync_is_the_crashing_commit(
        seed in 0u64..10_000,
        n in 0u64..CRASH_POINTS,
        shape in 0..=ONE_PARTITION.len(),
    ) {
        let shape = ONE_PARTITION.get(shape).copied().unwrap_or_else(two_partitions);
        // about every other operation is a sync
        let fsync_fail_prob = 2.0 / (n + 2) as f64;
        let faults = FaultConfig { fsync_fail_prob, ..FaultConfig::default() };
        if let Err(why) = crash_and_check(seed, shape, faults) {
            prop_assert!(false, "seed={seed} fsync_fail_prob={fsync_fail_prob} {why}");
        }
    }
}

/// The crash points where durability lives, each at every occurrence a
/// merging workload reaches, under every policy that merges: inside the
/// manifest write, written but not renamed, between the rename and the
/// directory fsync, between a merge's publish and the unlink of its inputs
/// (merged output *and* inputs on disk), inside a log rotation, at its
/// rename and its directory fsync, and at a segment unlink. Under each
/// policy some of them fall inside a merge that took a sealed memory
/// component in, which recovery replays from the log.
#[test]
fn named_publish_and_retirement_crash_points_never_lose_nor_double() {
    let points = [
        ".manifest.tmp:write",
        ".manifest:rename",
        ".manifest:dirsync",
        ".btree:unlink",
        ".wal.tmp:write",
        ".wal:rename",
        ".wal:dirsync",
        ".wal:unlink",
    ];
    for shape in ONE_PARTITION[MERGING].iter().copied() {
        let mut inside = 0;
        crash::sweep(
            21,
            &points,
            2,
            |dir, injector| run(dir, shape, 21, injector, shape.txns),
            |dir, out| {
                inside += usize::from(out.cut_a_memory_merge);
                check(dir, shape, &out).map_err(|why| format!("{shape:?}: {why}"))
            },
        );
        assert!(inside > 0, "{shape:?}: no crash fell inside a merge that took a sealed component in");
    }
}

/// The same (seed, crash point) pair replays the exact same failure
/// schedule and leaves byte-identical WALs, end to end through the
/// instance stack.
#[test]
fn same_seed_reproduces_instance_failure_schedule() {
    // after open and DDL (24 operations): in a commit, a flush and a rotation
    for crash_after in [24u64, 41, 58] {
        let run = |tag: &str| -> (Vec<FaultEvent>, Vec<u8>, BTreeMap<i64, i64>) {
            let dir = TempDir::new(tag);
            let injector = FaultInjector::crash_after(77, crash_after);
            let out = run(dir.path(), two_partitions(), 77, &injector, 8);
            let wal = log_bytes(&dir.path().join("node0"));
            (injector.events(), wal, out.committed)
        };
        let (e1, w1, c1) = run("sched1");
        let (e2, w2, c2) = run("sched2");
        assert!(
            !e1.is_empty(),
            "crash_after={crash_after} should have fired"
        );
        assert_eq!(e1, e2, "fault schedule must replay byte-for-byte");
        assert_eq!(w1, w2, "WAL must be byte-identical across same-seed runs");
        assert_eq!(c1, c2, "commit outcomes must replay");
    }
}

/// The node's log, segment after segment.
fn log_bytes(node_dir: &Path) -> Vec<u8> {
    let mut segments: Vec<PathBuf> = std::fs::read_dir(node_dir)
        .map(|entries| entries.map(|e| e.unwrap().path()).collect())
        .unwrap_or_default();
    segments.retain(|p| p.extension().is_some_and(|e| e == "wal"));
    segments.sort();
    segments
        .iter()
        .flat_map(|p| std::fs::read(p).unwrap())
        .collect()
}

/// Deterministic directed test: a crash landing in a transaction *body*
/// (an LSM flush forced by a tiny memory budget, before any commit record
/// is even appended) must leave the previously committed state exactly —
/// no ambiguity, across a two-node cluster.
#[test]
fn crash_in_txn_body_rolls_back_exactly_across_nodes() {
    // probe run: count the I/O ops txn 1's commit consumes, fault-free
    let probe = TempDir::new("probe");
    let probe_inj = FaultInjector::new(FaultConfig {
        seed: 9,
        ..FaultConfig::default()
    });
    let ops_after_commit1;
    {
        let db = Instance::open(config(probe.path(), 2, 2 << 10, Some(probe_inj.clone()))).unwrap();
        db.execute_sqlpp(DDL).unwrap();
        let mut txn = db.begin();
        for k in 0..8i64 {
            txn.write("kv", &kv_record(k, k * 10), true).unwrap();
        }
        txn.commit().unwrap();
        ops_after_commit1 = probe_inj.ops();
    }
    assert!(ops_after_commit1 > 0, "commit must force the WAL");

    // real run: same deterministic prefix, crash on the first I/O op after
    // txn 1's commit — which a bulky txn 2 triggers mid-body via LSM flushes
    let dir = TempDir::new("body");
    let injector = FaultInjector::crash_after(9, ops_after_commit1);
    let db = Instance::open(config(dir.path(), 2, 2 << 10, Some(injector.clone()))).unwrap();
    db.execute_sqlpp(DDL).unwrap();
    let mut txn = db.begin();
    for k in 0..8i64 {
        txn.write("kv", &kv_record(k, k * 10), true).unwrap();
    }
    txn.commit().unwrap();
    let mut txn2 = db.begin();
    let mut hit_crash = false;
    for k in 100..400i64 {
        if txn2.write("kv", &kv_record(k, 1), true).is_err() {
            hit_crash = true;
            break;
        }
    }
    assert!(
        hit_crash,
        "txn 2 should crash mid-body before reaching commit"
    );
    drop(txn2); // rollback
    assert!(injector.crashed());
    drop(db);

    // reopen fault-free: txn 1 exactly, txn 2 fully gone — on both nodes
    let db = Instance::open(config(dir.path(), 2, 2 << 10, None)).unwrap();
    let rows = db.query("SELECT VALUE d FROM kv d").unwrap();
    let got: BTreeMap<i64, i64> = rows
        .iter()
        .map(|r| {
            (
                r.field("k").as_i64().unwrap(),
                r.field("v").as_i64().unwrap(),
            )
        })
        .collect();
    let want: BTreeMap<i64, i64> = (0..8i64).map(|k| (k, k * 10)).collect();
    assert_eq!(got, want, "events: {:?}", injector.events());
}

// ---------------------------------------------------------------------------
// Named regressions of the durability design
// ---------------------------------------------------------------------------

const MSG_DDL: &str = r#"
    CREATE TYPE MsgType AS { id: int, author: int, loc: point, text: string, pad: string };
    CREATE DATASET Msgs(MsgType) PRIMARY KEY id;
"#;

const MSG_INDEXES: &str = r#"
    CREATE INDEX byAuthor ON Msgs(author) TYPE BTREE;
    CREATE INDEX byLoc ON Msgs(loc) TYPE RTREE;
    CREATE INDEX byText ON Msgs(text) TYPE KEYWORD;
"#;

/// A message whose indexed fields all derive from `version`: rewriting it
/// with another version moves it in every index.
fn msg(id: i64, version: i64, words: usize) -> Value {
    let text: Vec<String> = (0..words)
        .map(|w| format!("w{}x{w}", (id + version) % 5))
        .collect();
    Value::object(vec![
        ("id".into(), Value::Int(id)),
        ("author".into(), Value::Int((id + version) % 4)),
        (
            "loc".into(),
            Value::Point(Point::new(((id + version) % 6) as f64, (id % 3) as f64)),
        ),
        ("text".into(), Value::from(text.join(" "))),
        ("pad".into(), Value::from("p".repeat(200))),
    ])
}

fn one_partition(dir: &Path, mem_budget: usize) -> InstanceConfig {
    InstanceConfig {
        partitions: 1,
        ..config(dir, 1, mem_budget, None)
    }
}

fn commit_msgs(db: &Instance, msgs: impl IntoIterator<Item = Value>) {
    let mut txn = db.begin();
    for m in msgs {
        txn.write("Msgs", &m, true).unwrap();
    }
    txn.commit().unwrap();
}

fn ids(rows: &[Value]) -> Vec<i64> {
    let mut ids: Vec<i64> = rows
        .iter()
        .map(|m| m.field("id").as_i64().unwrap())
        .collect();
    ids.sort_unstable();
    ids
}

/// Every index answers like the same predicate over a full scan — no
/// missing entry, no stale one — and the scan holds exactly `want`; and
/// every partition's indexes hold exactly the entries its rows yield.
fn assert_indexes_agree_with_scan(db: &Instance, want: &BTreeMap<i64, Value>, indexes: &[&str]) {
    for part in &db.dataset_runtime("Msgs").unwrap().partitions {
        part.read().audit_indexes().unwrap();
    }
    let all = db.query("SELECT VALUE m FROM Msgs m").unwrap();
    assert_eq!(all.len(), want.len(), "a record is missing or doubled");
    for m in &all {
        assert_eq!(
            Some(m),
            want.get(&m.field("id").as_i64().unwrap()),
            "not the latest version"
        );
    }
    // probe each index for what the first record holds, so no probe is vacuous
    let Some(first) = all.first() else { return };
    let author = first.field("author").as_i64().unwrap();
    let Value::Point(at) = first.field("loc") else {
        panic!("loc is a point")
    };
    let (lo, hi) = (at.x - 0.5, at.x + 0.5);
    let word = first
        .field("text")
        .as_str()
        .unwrap()
        .split(' ')
        .next()
        .unwrap()
        .to_string();
    type Keep<'a> = &'a dyn Fn(&Value) -> bool;
    let cases: [(&str, String, Keep); 3] = [
        ("byAuthor", format!("m.author = {author}"), &|m| m.field("author").as_i64() == Some(author)),
        (
            "byLoc",
            format!(
                "spatial_intersect(m.loc, create_rectangle(create_point({lo:?}, -1.0), create_point({hi:?}, 9.0)))"
            ),
            &|m| matches!(m.field("loc"), Value::Point(p) if (lo..=hi).contains(&p.x)),
        ),
        ("byText", format!("contains(m.text, '{word}')"), &|m| {
            m.field("text").as_str().unwrap().split(' ').any(|w| w == word)
        }),
    ];
    for (index, predicate, keep) in cases.iter().filter(|c| indexes.contains(&c.0)) {
        let sql = format!("SELECT VALUE m FROM Msgs m WHERE {predicate}");
        let plan = db
            .explain(&sql, asterix_core::instance::Language::Sqlpp)
            .unwrap();
        assert!(plan.contains(index), "{plan}");
        let expected: Vec<Value> = all.iter().filter(|m| keep(m)).cloned().collect();
        assert_eq!(
            ids(&db.query(&sql).unwrap()),
            ids(&expected),
            "{index}: {predicate}"
        );
    }
}

fn recovery_counter(db: &Instance, name: &str) -> u64 {
    db.metrics_snapshot()
        .counter(&format!("core.recovery.{name}"))
        .unwrap_or(0)
}

/// (a) A transaction open across a budget-triggered seal pins the sealed
/// component: nothing it wrote reaches a disk component, whatever else
/// commits and however hard a flush is asked for; after the crash none of
/// its writes is visible and every committed one is.
#[test]
fn open_transaction_across_a_seal_leaves_nothing_of_itself_on_disk() {
    let dir = TempDir::new("nosteal");
    let db = Instance::open(one_partition(dir.path(), 1 << 10)).unwrap();
    db.execute_sqlpp(MSG_DDL).unwrap();
    let mut open_txn = db.begin();
    open_txn.write("Msgs", &msg(900, 0, 1), true).unwrap();
    // committed writes until the budget trips, and one more into the next
    // memory component (not past its budget too: a writer would sooner wait
    // for the open transaction than overgrow it)
    let mut want = BTreeMap::new();
    let commit_next = |want: &mut BTreeMap<i64, Value>| {
        let id = want.len() as i64;
        commit_msgs(&db, [msg(id, 0, 1)]);
        want.insert(id, msg(id, 0, 1));
    };
    while db.lsm_stats("Msgs", None).unwrap()[0].seals == 0 {
        commit_next(&mut want);
    }
    commit_next(&mut want);
    db.flush_all().unwrap();
    let stats = &db.lsm_stats("Msgs", None).unwrap()[0];
    assert_eq!(
        (stats.seals, stats.flushes),
        (1, 0),
        "sealed, and held for the open transaction"
    );
    std::mem::forget(open_txn); // the crash takes it, uncommitted
    db.crash();

    let db = Instance::open(one_partition(dir.path(), 1 << 10)).unwrap();
    assert_indexes_agree_with_scan(&db, &want, &[]);
    // once it is over, the same writes flush: the log tail shrinks to them
    commit_msgs(&db, [msg(12, 0, 1)]);
    assert!(db.lsm_stats("Msgs", None).unwrap()[0].flushes >= 1);
}

/// (b) An abort after a seal: the sealed component, loser's writes and all,
/// is flushed the moment the abort is over — and the compensation the abort
/// logged and synced first restores the before-images at restart.
#[test]
fn abort_after_a_seal_restores_before_images_across_a_crash() {
    let dir = TempDir::new("abortseal");
    let db = Instance::open(one_partition(dir.path(), 1 << 10)).unwrap();
    db.execute_sqlpp(MSG_DDL).unwrap();
    db.execute_sqlpp(MSG_INDEXES).unwrap();
    let want: BTreeMap<i64, Value> = (0..3).map(|id| (id, msg(id, 0, 1))).collect();
    commit_msgs(&db, want.values().cloned());
    let mut loser = db.begin();
    for id in 0..12 {
        // overwrites the three committed records, then inserts new ones
        loser.write("Msgs", &msg(id, 1, 1), true).unwrap();
    }
    assert!(
        db.lsm_stats("Msgs", None).unwrap()[0].seals >= 1,
        "the loser must span a seal"
    );
    loser.abort().unwrap();
    assert!(
        db.lsm_stats("Msgs", None).unwrap()[0].flushes >= 1,
        "the sealed component flushes once its writer is over"
    );
    assert_indexes_agree_with_scan(&db, &want, &["byAuthor", "byLoc", "byText"]);
    db.crash();

    let db = Instance::open(one_partition(dir.path(), 1 << 10)).unwrap();
    assert!(
        recovery_counter(&db, "components_loaded") >= 1,
        "the loser's writes are on disk"
    );
    assert_indexes_agree_with_scan(&db, &want, &["byAuthor", "byLoc", "byText"]);
}

/// What the manifest of index `index` of Msgs' partition 0 says: the LSN
/// below which the index is durable, and how many components it names
/// (DESIGN.md "Durability": a header, that LSN, the component count, ...).
fn manifest(dir: &Path, index: &str) -> (u64, u32) {
    let bytes = std::fs::read(dir.join("node0").join(format!("Msgs_p0_{index}.manifest"))).unwrap();
    (
        u64::from_le_bytes(bytes[4..12].try_into().unwrap()),
        u32::from_le_bytes(bytes[12..16].try_into().unwrap()),
    )
}

/// Msgs' indexes in the order a partition flushes them: the secondaries as
/// they were created, the primary last.
const FLUSH_ORDER: [&str; 4] = ["byAuthor", "byLoc", "byText", "pri"];

/// (c) A partition seals its indexes together and publishes the flush of
/// the secondaries before the primary's, so a crash at any manifest write
/// of one co-sealed flush leaves each secondary at or ahead of its primary:
/// the ones before the crash point published, the others not yet. Replay
/// from the primary's LSN then brings every index to the same state — a
/// secondary ahead takes the replayed overwrites a second time — with
/// nothing rebuilt. With texts of many words the keyword index fills first
/// and its budget seals the others.
#[test]
fn a_crash_inside_a_co_sealed_flush_leaves_every_secondary_at_or_ahead_of_its_primary() {
    for words in [1, 40] {
        for (at, index) in FLUSH_ORDER.iter().enumerate() {
            let dir = TempDir::new("cosealed");
            let mut want = BTreeMap::new();
            {
                let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
                db.execute_sqlpp(MSG_DDL).unwrap();
                db.execute_sqlpp(MSG_INDEXES).unwrap();
                for id in 0..16 {
                    commit_msgs(&db, [msg(id, 0, words)]);
                    want.insert(id, msg(id, 0, words));
                }
                db.flush_all().unwrap();
                db.crash();
            }
            let load: Vec<(u64, u32)> = FLUSH_ORDER
                .iter()
                .map(|i| manifest(dir.path(), i))
                .collect();
            assert!(
                load.iter().all(|m| m.0 == load[3].0),
                "{words} words: flushed together {load:?}"
            );
            // overwrite until the crash at `index`'s manifest rename in the
            // first flush after the load
            let injector =
                FaultInjector::crash_at(9, &format!("Msgs_p0_{index}.manifest:rename"), 0);
            let db = Instance::open(InstanceConfig {
                faults: Some(injector.clone()),
                ..one_partition(dir.path(), 2 << 10)
            })
            .unwrap();
            for id in 0..16 {
                let mut txn = db.begin();
                // the crash lands in the flush that follows the commit
                // record's sync — or, when a merge on the pool still held the
                // sealed component then, in the next write's, which never
                // commits
                match txn.write("Msgs", &msg(id, 1, words), true) {
                    Ok(()) => {
                        let _ = txn.commit();
                        want.insert(id, msg(id, 1, words));
                    }
                    Err(e) => assert!(injector.crashed(), "{e}"),
                }
                if injector.crashed() {
                    break;
                }
            }
            assert!(
                injector.crashed(),
                "{words} words, {index}: no flush reached the crash point"
            );
            db.crash();

            let crashed: Vec<(u64, u32)> = FLUSH_ORDER
                .iter()
                .map(|i| manifest(dir.path(), i))
                .collect();
            let primary = crashed[3].0;
            for (k, (name, (below, _))) in FLUSH_ORDER.iter().zip(&crashed).enumerate().take(3) {
                let published = k < at;
                assert!(
                    *below >= primary,
                    "{words} words, crash at {index}: {name} is behind its primary"
                );
                assert_eq!(
                    *below > load[k].0,
                    published,
                    "{words} words, crash at {index}: {name} {crashed:?}"
                );
            }
            assert_eq!(
                primary, load[3].0,
                "{words} words, crash at {index}: the primary publishes last"
            );
            let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
            let named: u64 = crashed.iter().map(|m| u64::from(m.1)).sum();
            assert_eq!(
                recovery_counter(&db, "components_loaded"),
                named,
                "every component the manifests named, as it was"
            );
            assert!(
                recovery_counter(&db, "records_replayed") <= 16,
                "replay starts past the flushed load"
            );
            assert_indexes_agree_with_scan(&db, &want, &["byAuthor", "byLoc", "byText"]);
        }
    }
}

/// (c') A secondary whose sealed component went into a merge holds its
/// primary back. The secondaries' loaded components are small enough to
/// merge and the primary's is not, so each flush after the load sends the
/// secondaries' sealed components into merges on the worker pool while the
/// primary's would be written on its own at once — and is not, until every
/// secondary's merge has published: a crash the moment the primary
/// publishes finds each secondary there already.
#[test]
fn a_primary_waits_for_the_merges_that_took_its_secondaries_sealed_components() {
    let dir = TempDir::new("heldback");
    let policy = MergePolicy::Prefix {
        max_mergable_bytes: 256 << 10,
        max_tolerance_components: 1,
    };
    let config = |mem_budget, faults| {
        let mut config = InstanceConfig { faults, ..one_partition(dir.path(), mem_budget) };
        config.storage.merge_policy = policy;
        config
    };
    let mut want = BTreeMap::new();
    {
        let db = Instance::open(config(64 << 20, None)).unwrap();
        db.execute_sqlpp(MSG_DDL).unwrap();
        db.execute_sqlpp(MSG_INDEXES).unwrap();
        commit_msgs(&db, (0..3_000).map(|id| msg(id, 0, 1)));
        want.extend((0..3_000).map(|id| (id, msg(id, 0, 1))));
        db.flush_all().unwrap();
        db.crash();
    }
    let load: Vec<(u64, u32)> = FLUSH_ORDER.iter().map(|i| manifest(dir.path(), i)).collect();
    let injector = FaultInjector::crash_at(9, "Msgs_p0_pri.manifest:dirsync", 0);
    let db = Instance::open(config(2 << 10, Some(injector.clone()))).unwrap();
    for id in 0..64 {
        let mut txn = db.begin();
        if txn.write("Msgs", &msg(id, 1, 1), true).is_err() {
            break; // the crash landed in the flush after this write: never committed
        }
        // or in the flush that follows the commit record's sync
        let _ = txn.commit();
        want.insert(id, msg(id, 1, 1));
        if injector.crashed() {
            break;
        }
        // each write finds the merges it handed off published
        common::settle(&db);
    }
    assert!(injector.crashed(), "the primary never published");
    common::settle(&db);
    for index in &FLUSH_ORDER[..3] {
        let stats = &db.lsm_stats("Msgs", Some(index)).unwrap()[0];
        assert!(stats.flushes_merged > 0, "{index}: no sealed component went into a merge ({stats:?})");
    }
    let primary_stats = &db.lsm_stats("Msgs", None).unwrap()[0];
    assert_eq!(primary_stats.flushes_merged, 0, "the primary's flush is written on its own");
    db.crash();
    let crashed: Vec<(u64, u32)> = FLUSH_ORDER.iter().map(|i| manifest(dir.path(), i)).collect();
    let primary = crashed[3].0;
    assert!(primary > load[3].0, "the primary published: {crashed:?}");
    for (name, (below, _)) in FLUSH_ORDER.iter().zip(&crashed).take(3) {
        assert!(*below >= primary, "{name} is behind its primary: {crashed:?}");
    }
    let db = Instance::open(config(2 << 10, None)).unwrap();
    assert_indexes_agree_with_scan(&db, &want, &["byAuthor", "byLoc", "byText"]);
}

/// (d) `CREATE INDEX` on loaded data is not logged: it flushes what it
/// backfilled from the primary's disk components before it returns, so the
/// index is durable as far as its primary, and what the load still holds in
/// memory is replayed into it like into the primary — a crash right after
/// it loses nothing, flushed load or not.
#[test]
fn create_index_on_loaded_data_survives_a_crash_right_after_it() {
    for flushed in [true, false] {
        let dir = TempDir::new("createindex");
        let db = Instance::open(one_partition(dir.path(), 64 << 10)).unwrap();
        db.execute_sqlpp(MSG_DDL).unwrap();
        let want: BTreeMap<i64, Value> = (0..20).map(|id| (id, msg(id, 0, 1))).collect();
        commit_msgs(&db, want.values().cloned());
        if flushed {
            db.flush_all().unwrap();
        }
        db.execute_sqlpp(MSG_INDEXES).unwrap();
        assert_indexes_agree_with_scan(&db, &want, &["byAuthor", "byLoc", "byText"]);
        db.crash();
        let (primary, components) = manifest(dir.path(), "pri");
        assert_eq!(components, u32::from(flushed));
        for index in &FLUSH_ORDER[..3] {
            let (below, components) = manifest(dir.path(), index);
            assert_eq!(
                (below, components),
                (primary, u32::from(flushed)),
                "{index}: durable as far as the primary"
            );
        }
        let db = Instance::open(one_partition(dir.path(), 64 << 10)).unwrap();
        assert_eq!(
            recovery_counter(&db, "records_replayed"),
            if flushed { 0 } else { 20 }
        );
        assert_indexes_agree_with_scan(&db, &want, &["byAuthor", "byLoc", "byText"]);
    }
}

/// (e) `CREATE INDEX` while an open transaction has written into the
/// partition — into a memory component sealed and waiting for it, and into
/// the active one — and before it writes again: the index flushes only what
/// the primary's disk components hold, and takes the rest into memory
/// components that stand where the primary's do and wait for the same
/// writers. However much else commits and is flushed, none of the open
/// transaction's writes reaches a disk component of any index. Once it
/// commits, the sealed components flush, the new index's before the
/// primary's: a crash at the index's first manifest write of that flush
/// finds every index at or ahead of the primary. After the crash, with the
/// transaction open or committed, every index agrees with a scan of what
/// committed.
#[test]
fn create_index_inside_an_open_transaction_puts_none_of_its_writes_on_disk() {
    for commit in [false, true] {
        let dir = TempDir::new("openindex");
        // byAuthor's manifest is written when it is created and when what it
        // took from the primary's disk components is flushed; the next write
        // is the flush of what it took from the sealed component
        let injector = FaultInjector::crash_at(3, "Msgs_p0_byAuthor.manifest:rename", 2);
        let cfg = InstanceConfig {
            faults: Some(injector.clone()),
            ..one_partition(dir.path(), 2 << 10)
        };
        let db = Instance::open(cfg).unwrap();
        db.execute_sqlpp(MSG_DDL).unwrap();
        let mut want: BTreeMap<i64, Value> = (0..6).map(|id| (id, msg(id, 0, 1))).collect();
        commit_msgs(&db, want.values().cloned());
        db.flush_all().unwrap();
        let primary = || db.lsm_stats("Msgs", None).unwrap()[0];
        let mut open_txn = db.begin();
        open_txn.write("Msgs", &msg(0, 1, 1), true).unwrap(); // rewrites a flushed record
        let seals = primary().seals;
        for id in 10.. {
            if primary().seals > seals {
                break;
            }
            commit_msgs(&db, [msg(id, 0, 1)]);
            want.insert(id, msg(id, 0, 1));
        }
        open_txn.write("Msgs", &msg(1, 1, 1), true).unwrap();
        let stats = primary();
        assert_eq!(
            stats.seals,
            stats.flushes + 1,
            "a sealed component waits for the open transaction"
        );
        db.execute_sqlpp(MSG_INDEXES).unwrap();
        open_txn.write("Msgs", &msg(2, 1, 1), true).unwrap();
        commit_msgs(&db, [msg(30, 0, 1)]);
        want.insert(30, msg(30, 0, 1));
        db.flush_all().unwrap();
        assert!(
            !injector.crashed(),
            "nothing the open transaction wrote is flushed"
        );
        if commit {
            // the commit record is synced before the flush the crash lands in
            let _ = open_txn.commit();
            assert!(injector.crashed(), "the commit flushes what was sealed");
            want.extend((0..3).map(|id| (id, msg(id, 1, 1))));
        } else {
            std::mem::forget(open_txn); // the crash takes it, uncommitted
        }
        db.crash();
        let (primary_below, _) = manifest(dir.path(), "pri");
        for index in &FLUSH_ORDER[..3] {
            assert!(
                manifest(dir.path(), index).0 >= primary_below,
                "committed: {commit}: {index} is behind its primary"
            );
        }

        let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
        assert_indexes_agree_with_scan(&db, &want, &["byAuthor", "byLoc", "byText"]);
    }
}

/// (f) Overwrites of a hot set far smaller than the memory budget: what the
/// memory component holds never passes the budget, but the log it keeps from
/// truncation does and seals it. However long the history, the log stays
/// within twice the budget and a restart replays no more than that much log
/// holds.
#[test]
fn overwriting_a_hot_set_keeps_the_log_and_the_replay_bounded() {
    const BUDGET: usize = 16 << 10;
    const HOT: i64 = 32;
    const PASSES: i64 = 256;
    let dir = TempDir::new("hotset");
    let cfg = || InstanceConfig {
        partitions: 1,
        ..config(dir.path(), 1, BUDGET, None)
    };
    let db = Instance::open(cfg()).unwrap();
    db.execute_sqlpp(DDL).unwrap();
    for pass in 0..PASSES {
        let mut txn = db.begin();
        for k in 0..HOT {
            txn.write("kv", &kv_record(k, pass), true).unwrap();
        }
        txn.commit().unwrap();
    }
    let stats = &db.lsm_stats("kv", None).unwrap()[0];
    assert!(
        stats.flushes >= 8,
        "the log seals the hot set's component: {stats:?}"
    );
    db.crash();
    let log = log_len(dir.path());
    assert!(
        log <= 2 * BUDGET as u64,
        "{log} log bytes after {} overwrites",
        PASSES * HOT
    );

    let db = Instance::open(cfg()).unwrap();
    let replayed = recovery_counter(&db, "records_replayed");
    assert!(
        replayed <= 2 * BUDGET as u64 / WRITE_HEADER_BYTES,
        "{replayed} records replayed"
    );
    let rows = db.query("SELECT VALUE d FROM kv d").unwrap();
    assert_eq!(rows.len(), HOT as usize);
    assert!(
        rows.iter()
            .all(|r| r.field("v").as_i64() == Some(PASSES - 1)),
        "every key at its last version"
    );
}

/// Files of dataset or index `prefix` left in node 0's directory.
fn files_of(dir: &Path, prefix: &str) -> Vec<String> {
    std::fs::read_dir(dir.join("node0"))
        .unwrap()
        .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
        .filter(|n| n.starts_with(prefix))
        .collect()
}

/// Replay applies operations by dataset *name*. A dropped dataset's
/// committed records must not come back in a later dataset of that name,
/// and its manifests and components must go with it; a dropped index stops
/// being stored and maintained, not just advertised.
#[test]
fn dropped_dataset_and_index_stay_dropped_across_recreate_and_crash() {
    let dir = TempDir::new("dropcreate");
    let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
    db.execute_sqlpp(MSG_DDL).unwrap();
    db.execute_sqlpp(MSG_INDEXES).unwrap();
    commit_msgs(&db, (0..20).map(|id| msg(id, 0, 1)));
    db.flush_all().unwrap();
    commit_msgs(&db, (20..24).map(|id| msg(id, 0, 1))); // in the log only
    assert!(!files_of(dir.path(), "Msgs_p0_byLoc").is_empty());

    db.execute_sqlpp("DROP INDEX Msgs.byLoc").unwrap();
    assert_eq!(files_of(dir.path(), "Msgs_p0_byLoc"), Vec::<String>::new());
    db.execute_sqlpp("DROP DATASET Msgs").unwrap();
    assert_eq!(files_of(dir.path(), "Msgs_p0"), Vec::<String>::new());

    db.execute_sqlpp("CREATE DATASET Msgs(MsgType) PRIMARY KEY id")
        .unwrap();
    db.execute_sqlpp("CREATE INDEX byAuthor ON Msgs(author) TYPE BTREE")
        .unwrap();
    let want: BTreeMap<i64, Value> = [(7, msg(7, 3, 1))].into();
    commit_msgs(&db, want.values().cloned());
    db.crash();

    let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
    assert_eq!(
        db.count("Msgs").unwrap(),
        1,
        "the dropped incarnation's records came back"
    );
    assert_indexes_agree_with_scan(&db, &want, &[]);
    let by_author = db
        .query("SELECT VALUE m FROM Msgs m WHERE m.author = 2")
        .unwrap();
    assert_eq!(ids(&by_author), vec![7]);
}

/// `catalog.ddl` is replaced atomically: a crash at any step of persisting
/// a statement leaves the catalog from before it or the one with it — never
/// a torn file that takes every dataset definition (and with them the
/// durable components) away.
#[test]
fn crash_inside_ddl_persist_keeps_every_earlier_definition() {
    for step in [
        "catalog.ddl.tmp:write",
        "catalog.ddl.tmp",
        "catalog.ddl:rename",
        "catalog.ddl:dirsync",
    ] {
        let dir = TempDir::new("tornddl");
        let want: BTreeMap<i64, Value> = (0..10).map(|id| (id, msg(id, 0, 1))).collect();
        {
            let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
            db.execute_sqlpp(MSG_DDL).unwrap();
            commit_msgs(&db, want.values().cloned());
            db.flush_all().unwrap();
            db.crash();
        }
        // the fsync target also matches the write before it
        let nth = u64::from(step == "catalog.ddl.tmp");
        let injector = FaultInjector::crash_at(3, step, nth);
        let faulty = InstanceConfig {
            faults: Some(injector.clone()),
            ..one_partition(dir.path(), 2 << 10)
        };
        let db = Instance::open(faulty).unwrap();
        assert!(
            db.execute_sqlpp("CREATE INDEX byAuthor ON Msgs(author) TYPE BTREE")
                .is_err(),
            "{step}"
        );
        assert!(injector.crashed());
        db.crash();

        let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
        assert_indexes_agree_with_scan(&db, &want, &[]);
        let plan = db
            .explain(
                "SELECT VALUE m FROM Msgs m WHERE m.author = 2",
                asterix_core::instance::Language::Sqlpp,
            )
            .unwrap();
        // the rename is what persists the statement
        assert_eq!(
            plan.contains("byAuthor"),
            step.ends_with(":dirsync"),
            "{step}: {plan}"
        );
        assert_eq!(
            ids(&db
                .query("SELECT VALUE m FROM Msgs m WHERE m.author = 2")
                .unwrap()),
            vec![2, 6]
        );
    }
}

/// The successor of a dropped dataset may have another record type: the
/// log holds the old incarnation's records in the old type's storage
/// encoding, which the new type could not even decode. They name the old
/// incarnation's id, so replay never offers them to the successor.
#[test]
fn a_dropped_datasets_log_records_never_reach_a_successor_of_another_type() {
    let dir = TempDir::new("dropretype");
    let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
    db.execute_sqlpp(MSG_DDL).unwrap();
    commit_msgs(&db, (0..8).map(|id| msg(id, 0, 1))); // in the log only
    db.execute_sqlpp("DROP DATASET Msgs").unwrap();
    db.execute_sqlpp("CREATE TYPE NoteType AS CLOSED { id: int, note: string }")
        .unwrap();
    db.execute_sqlpp("CREATE DATASET Msgs(NoteType) PRIMARY KEY id")
        .unwrap();
    let note = Value::object(vec![
        ("id".into(), Value::Int(3)),
        ("note".into(), Value::from("kept")),
    ]);
    let mut txn = db.begin();
    txn.write("Msgs", &note, true).unwrap();
    txn.commit().unwrap();
    db.crash();

    let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
    assert_eq!(db.query("SELECT VALUE m FROM Msgs m").unwrap(), vec![note]);
    assert_eq!(recovery_counter(&db, "records_replayed"), 1);
}

/// A dataset's id is its place among the persisted `CREATE DATASET`s, so
/// two sessions creating datasets at once must persist them in the order
/// the catalog took them in: otherwise a restart swaps their ids, and the
/// committed records of one replay into the other.
#[test]
fn concurrent_creates_keep_their_ids_across_a_crash() {
    for round in 0..100 {
        let dir = TempDir::new("racecreate");
        let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
        db.execute_sqlpp("CREATE TYPE MsgType AS { id: int, author: int, loc: point, text: string, pad: string }")
            .unwrap();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|s| {
            for name in ["Msgs", "Other"] {
                let (db, start) = (&db, &start);
                s.spawn(move || {
                    start.wait();
                    db.execute_sqlpp(&format!("CREATE DATASET {name}(MsgType) PRIMARY KEY id"))
                        .unwrap();
                });
            }
        });
        commit_msgs(&db, (0..5).map(|id| msg(id, 0, 1))); // in the log only
        db.crash();

        let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
        let counts = (db.count("Msgs").unwrap(), db.count("Other").unwrap());
        assert_eq!(
            counts,
            (5, 0),
            "round {round}: the log replayed into the wrong dataset"
        );
    }
}

/// A dataset validates and encodes against the types its record type
/// names, as they were when it was opened, so none of them may go while it
/// is there: a type is dropped after everything that names it.
#[test]
fn a_type_a_datasets_records_nest_cannot_be_dropped_under_it() {
    let dir = TempDir::new("nesteddrop");
    let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
    db.execute_sqlpp(
        "CREATE TYPE Part AS CLOSED { a: int };
         CREATE TYPE Whole AS { id: int, parts: [Part] };
         CREATE DATASET D(Whole) PRIMARY KEY id;",
    )
    .unwrap();
    assert!(
        db.execute_sqlpp("DROP TYPE Part").is_err(),
        "Whole names it"
    );
    assert!(db.execute_sqlpp("DROP TYPE Whole").is_err(), "D stores it");
    let record = |id: i64| {
        let inner = Value::object(vec![("a".into(), Value::Int(id))]);
        with_fields(vec![
            ("id", Value::Int(id)),
            ("parts", Value::Array(vec![inner])),
        ])
    };
    let write = |db: &Instance, id: i64| {
        let mut txn = db.begin();
        txn.write("D", &record(id), true).unwrap();
        txn.commit().unwrap();
    };
    write(&db, 1);
    db.crash();
    // the refused statements were not persisted either
    let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
    write(&db, 2);
    assert_eq!(
        db.query("SELECT VALUE d FROM D d ORDER BY d.id").unwrap(),
        vec![record(1), record(2)]
    );
    db.execute_sqlpp("DROP DATASET D; DROP TYPE Whole; DROP TYPE Part;")
        .unwrap();
}

// ---------------------------------------------------------------------------
// The log and the components agree byte for byte
// ---------------------------------------------------------------------------

/// A record type, and records of it already in their stored shape (declared
/// fields first, in declaration order), in two versions per key.
struct TypeCase {
    name: &'static str,
    ddl: &'static str,
    record: fn(i64, i64) -> Value,
}

fn with_fields(fields: Vec<(&str, Value)>) -> Value {
    Value::object(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

const TYPE_CASES: [TypeCase; 3] = [
    TypeCase {
        name: "closed",
        ddl: "CREATE TYPE T AS CLOSED { id: int, name: string, score: double };
              CREATE DATASET D(T) PRIMARY KEY id;",
        record: |id, version| {
            with_fields(vec![
                ("id", Value::Int(id)),
                ("name", Value::from(format!("n{id}v{version}"))),
                ("score", Value::Double(id as f64 + 0.5)),
            ])
        },
    },
    TypeCase {
        name: "open with undeclared fields",
        ddl: "CREATE TYPE T AS { id: int, name: string };
              CREATE DATASET D(T) PRIMARY KEY id;",
        record: |id, version| {
            with_fields(vec![
                ("id", Value::Int(id)),
                ("name", Value::from(format!("n{id}"))),
                ("undeclaredCounter", Value::Int(version)),
                (
                    "undeclaredNest",
                    with_fields(vec![(
                        "tags",
                        Value::Array(vec![Value::from("a"), Value::Int(id)]),
                    )]),
                ),
            ])
        },
    },
    TypeCase {
        name: "optional fields absent and present",
        ddl: "CREATE TYPE T AS { id: int, nick: string?, at: point?, name: string };
              CREATE DATASET D(T) PRIMARY KEY id;",
        record: |id, version| {
            let mut fields = vec![("id", Value::Int(id))];
            if (id + version) % 2 == 0 {
                fields.push(("nick", Value::from("nick")));
            }
            if id % 3 == 0 {
                fields.push(("at", Value::Point(Point::new(id as f64, version as f64))));
            }
            fields.push(("name", Value::from(format!("n{id}v{version}"))));
            with_fields(fields)
        },
    },
];

fn two_by_two(dir: &Path) -> InstanceConfig {
    config(dir, 2, StorageConfig::default().mem_budget, None)
}

/// The same committed history on every call: inserts, overwrites, deletes,
/// over several transactions. Returns what a dump must then hold.
fn commit_history(db: &Instance, case: &TypeCase) -> BTreeMap<i64, Value> {
    db.execute_sqlpp(case.ddl).unwrap();
    let mut want = BTreeMap::new();
    let mut txn = db.begin();
    for id in 0..40 {
        txn.write("D", &(case.record)(id, 0), false).unwrap();
        want.insert(id, (case.record)(id, 0));
    }
    txn.commit().unwrap();
    let mut txn = db.begin();
    for id in (0..40).step_by(3) {
        txn.write("D", &(case.record)(id, 1), true).unwrap();
        want.insert(id, (case.record)(id, 1));
    }
    for id in (1..40).step_by(7) {
        txn.delete(
            "D",
            &extract_pk(&(case.record)(id, 0), &["id".to_string()]).unwrap(),
        )
        .unwrap();
        want.remove(&id);
    }
    txn.commit().unwrap();
    want
}

fn dump(db: &Instance) -> BTreeMap<i64, Value> {
    let rows = db.query("SELECT VALUE d FROM D d").unwrap();
    rows.into_iter()
        .map(|r| (r.field("id").as_i64().unwrap(), r))
        .collect()
}

/// Every component file of D's primary index, by node and name.
fn primary_components(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    let mut files = BTreeMap::new();
    for node in ["node0", "node1"] {
        for entry in std::fs::read_dir(dir.join(node)).unwrap() {
            let path = entry.unwrap().path();
            let name = path.file_name().unwrap().to_string_lossy().into_owned();
            if name.starts_with("D_p") && name.contains("_pri_c") {
                files.insert(format!("{node}/{name}"), std::fs::read(&path).unwrap());
            }
        }
    }
    files
}

/// (a) The log carries the bytes the component stores: a history replayed
/// from the log flushes into primary component files byte-identical to the
/// ones the same history flushes without a crash in between, and reads back
/// as the records submitted.
#[test]
fn replayed_log_flushes_into_the_components_the_original_writes_would_have() {
    for case in &TYPE_CASES {
        let straight = TempDir::new("agree-straight");
        let db = Instance::open(two_by_two(straight.path())).unwrap();
        let want = commit_history(&db, case);
        db.flush_all().unwrap();
        assert_eq!(dump(&db), want, "{}", case.name);
        db.crash();

        let crashed = TempDir::new("agree-crashed");
        let db = Instance::open(two_by_two(crashed.path())).unwrap();
        assert_eq!(commit_history(&db, case), want);
        db.crash();
        let db = Instance::open(two_by_two(crashed.path())).unwrap();
        assert!(
            recovery_counter(&db, "records_replayed") >= 40,
            "{}: nothing was in the log",
            case.name
        );
        assert_eq!(dump(&db), want, "{}", case.name);
        db.flush_all().unwrap();
        assert_eq!(dump(&db), want, "{}", case.name);
        db.crash();

        let (a, b) = (
            primary_components(straight.path()),
            primary_components(crashed.path()),
        );
        assert!(
            a.len() >= 2,
            "{}: one component per partition at least",
            case.name
        );
        assert_eq!(
            a.keys().collect::<Vec<_>>(),
            b.keys().collect::<Vec<_>>(),
            "{}",
            case.name
        );
        assert!(
            a == b,
            "{}: a replayed record is stored in other bytes than a written one",
            case.name
        );
    }
}

/// (b) An abort puts the before-images back as they were stored — after an
/// insert, an overwrite and a delete — and a crash right after the abort
/// (its compensation synced, nothing flushed) restores the same from the log.
#[test]
fn abort_restores_the_stored_before_images_and_so_does_replaying_it() {
    for case in &TYPE_CASES {
        let dir = TempDir::new("abortraw");
        let db = Instance::open(two_by_two(dir.path())).unwrap();
        let want = commit_history(&db, case);
        let mut loser = db.begin();
        loser.write("D", &(case.record)(100, 5), false).unwrap(); // insert
        loser.write("D", &(case.record)(0, 5), true).unwrap(); // overwrite
        loser.write("D", &(case.record)(0, 6), true).unwrap(); // of its own write, too
        let pk = |id| extract_pk(&(case.record)(id, 0), &["id".to_string()]).unwrap();
        loser.delete("D", &pk(2)).unwrap(); // delete
        loser.delete("D", &pk(100)).unwrap(); // of its own insert
        loser.abort().unwrap();
        assert_eq!(dump(&db), want, "{}", case.name);
        db.crash();
        let db = Instance::open(two_by_two(dir.path())).unwrap();
        assert_eq!(dump(&db), want, "{}: after the crash", case.name);
        db.flush_all().unwrap();
        assert_eq!(dump(&db), want, "{}: flushed", case.name);
    }
}

/// Bytes of every node's log segments.
fn log_len(dir: &Path) -> u64 {
    ["node0", "node1"]
        .iter()
        .map(|n| log_bytes(&dir.join(n)).len() as u64)
        .sum()
}

/// (c) What a put costs the log beside the record's storage encoding, in
/// the record stream LSNs count: the record's varint length (1, or 2 from
/// 128 bytes on), the tag that says put or delete (1), then varints —
/// transaction (2 below 2^14), dataset id (1), partition (1), key length
/// (1) — and the one-int key (9); the value's length is the record's. That
/// is ≈ 15 bytes plus key and value, and no field name and no dataset name
/// is in there. The segment holds the stream of a sync as one block, split
/// into streams of like bytes — headers, keys (none here: each is its
/// `messageId` cell's), rows, each declared field's cells, each stream of
/// cells in the form its type calls for — each coded (an LZ77 parse, its
/// byte streams Huffman-coded): at most 0.32 of the bytes of its records. A
/// block or record of a tag this build does not read refuses the log at
/// open (DESIGN.md "Format versions").
const WRITE_HEADER_BYTES: u64 = 2 + 1 + 2 + 1 + 1 + 1 + 9;
/// Length, tag, transaction.
const COMMIT_BYTES: u64 = 1 + 1 + 8;

#[test]
fn a_logged_put_costs_its_storage_encoding_plus_a_fixed_header() {
    const N: i64 = 500;
    let dir = TempDir::new("logpin");
    let db = Instance::open(two_by_two(dir.path())).unwrap();
    db.execute_sqlpp(
        "CREATE TYPE GleambookMessageType AS {
            messageId: int, authorId: int, inResponseTo: int?,
            senderLocation: point?, message: string
        };
        CREATE DATASET GleambookMessages(GleambookMessageType) PRIMARY KEY messageId;
        CREATE INDEX gbAuthorIdx ON GleambookMessages(authorId) TYPE BTREE;",
    )
    .unwrap();
    let mut gen = asterix_core::datagen::DataGen::new(11);
    let messages: Vec<Value> = (1..=N).map(|id| gen.message(id, 100)).collect();
    let encoded: u64 = messages
        .iter()
        .map(|m| db.record_encoded_len("GleambookMessages", m).unwrap() as u64)
        .sum();
    let logged = |counter: &str| {
        let snap = db.metrics_snapshot();
        ["node0", "node1"]
            .iter()
            .map(|n| snap.counter(&format!("{n}.storage.wal.{counter}")).unwrap())
            .sum::<u64>()
    };
    let before = (
        log_len(dir.path()),
        logged("appended_bytes"),
        logged("record_bytes"),
    );
    let mut txn = db.begin();
    for m in &messages {
        txn.write("GleambookMessages", m, true).unwrap();
    }
    txn.commit().unwrap();
    let grew = log_len(dir.path()) - before.0;
    let records = logged("record_bytes") - before.2;
    assert_eq!(
        logged("appended_bytes") - before.1,
        grew,
        "the counter reads what the segments grew by"
    );
    assert!(records > encoded, "the log holds the records");
    assert!(
        records <= encoded + N as u64 * WRITE_HEADER_BYTES + 2 * COMMIT_BYTES,
        "{N} puts of {encoded} encoded bytes are {records} bytes of records: {} bytes per put over \
         the stated header",
        (records - encoded) as f64 / N as f64 - WRITE_HEADER_BYTES as f64
    );
    // 0.313 as the codec stands: 13 902 bytes of log for 44 455 of records
    assert!(
        100 * grew <= 32 * records,
        "{records} bytes of records took {grew} bytes of log"
    );
}

/// (d) DDL between two writes of one open transaction: the later write is
/// maintained in an index created meanwhile, and refused on a dataset
/// dropped meanwhile; ending the transaction releases its locks either way.
#[test]
fn ddl_between_the_writes_of_an_open_transaction() {
    let dir = TempDir::new("ddlmid");
    let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
    db.execute_sqlpp(MSG_DDL).unwrap();
    let mut want: BTreeMap<i64, Value> = (0..6).map(|id| (id, msg(id, 0, 1))).collect();
    commit_msgs(&db, want.values().cloned());

    let mut txn = db.begin();
    txn.write("Msgs", &msg(0, 1, 1), true).unwrap(); // overwrite, before the index exists
    txn.write("Msgs", &msg(10, 0, 1), true).unwrap();
    db.execute_sqlpp(MSG_INDEXES).unwrap();
    txn.write("Msgs", &msg(1, 1, 1), true).unwrap(); // overwrite, maintained in it
    txn.write("Msgs", &msg(11, 0, 1), true).unwrap();
    txn.commit().unwrap();
    for (id, version) in [(0, 1), (10, 0), (1, 1), (11, 0)] {
        want.insert(id, msg(id, version, 1));
    }
    assert_indexes_agree_with_scan(&db, &want, &["byAuthor", "byLoc", "byText"]);

    // an abort spanning the same DDL takes every index back with it
    db.execute_sqlpp("DROP INDEX Msgs.byLoc").unwrap();
    let mut loser = db.begin();
    loser.write("Msgs", &msg(2, 1, 1), true).unwrap();
    db.execute_sqlpp("CREATE INDEX byLoc ON Msgs(loc) TYPE RTREE")
        .unwrap();
    loser.write("Msgs", &msg(3, 1, 1), true).unwrap();
    loser.abort().unwrap();
    assert_indexes_agree_with_scan(&db, &want, &["byAuthor", "byLoc", "byText"]);

    let mut txn = db.begin();
    txn.write("Msgs", &msg(4, 1, 1), true).unwrap();
    db.execute_sqlpp("DROP DATASET Msgs").unwrap();
    assert!(
        txn.write("Msgs", &msg(5, 1, 1), true).is_err(),
        "the dataset is gone"
    );
    txn.abort().unwrap(); // nothing left to restore, and nothing to trip over

    // the name is free again and no lock on its keys outlived its writers:
    // a held one would stall this past the lock manager's five seconds
    db.execute_sqlpp("CREATE DATASET Msgs(MsgType) PRIMARY KEY id")
        .unwrap();
    db.execute_sqlpp(MSG_INDEXES).unwrap();
    let want: BTreeMap<i64, Value> = (0..6).map(|id| (id, msg(id, 2, 1))).collect();
    let started = std::time::Instant::now();
    commit_msgs(&db, want.values().cloned());
    assert!(started.elapsed() < std::time::Duration::from_secs(4));
    assert_indexes_agree_with_scan(&db, &want, &["byAuthor", "byLoc", "byText"]);
    db.crash();
    let db = Instance::open(one_partition(dir.path(), 2 << 10)).unwrap();
    assert_indexes_agree_with_scan(&db, &want, &["byAuthor", "byLoc", "byText"]);
}
