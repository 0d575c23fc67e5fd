//! The metric namespace, checked against running instances:
//!
//! - every `(name, kind)` a small two-node instance exports through
//!   `Instance::metrics_snapshot()` is pinned below, so a metric that is
//!   renamed, dropped, added or changes kind shows up as a diff of the
//!   literal lists;
//! - every metric name DESIGN.md and README.md put in backticks, in a family
//!   the instance exports, is pinned here or in [`FIRST_EVENT`];
//! - after a smoke mix, every pinned counter has counted, except those in
//!   [`UNREACHED`].

mod common;

use asterix_adm::Value;
use asterix_core::dataset::StorageConfig;
use asterix_core::instance::{Instance, InstanceConfig};
use asterix_core::scheduler::QueryOptions;
use asterix_core::CoreError;
use asterix_obs::MetricValue;
use asterix_storage::lsm::MergePolicy;
use std::collections::BTreeSet;
use std::path::PathBuf;

/// What the dataflow runtime's registry holds, as `<kind> <name>` with kind
/// `c`ounter or `g`auge.
const INSTANCE: &str = "
    c core.recovery.components_loaded
    c core.recovery.records_replayed
    c core.serving.admitted
    c core.serving.completed
    c core.serving.queue_cancelled
    c core.serving.rejected
    c hyracks.dataflow.batch_rows
    c hyracks.dataflow.groups_spilled
    c hyracks.dataflow.joins_spilled
    c hyracks.dataflow.merge_passes
    c hyracks.dataflow.spill_runs
    c hyracks.dataflow.spilled_bytes
    c hyracks.dataflow.tuples_exchanged
    c hyracks.dataflow.tuples_moved
    c hyracks.lifecycle.completed
    c hyracks.sched.enqueued
    c hyracks.sched.local_hits
    c hyracks.sched.morsels
    c hyracks.sched.park_ns
    c hyracks.sched.steals
";

/// What every node's storage registry holds, exported under `node<N>.`.
const PER_NODE: &str = "
    c cache.coalesced_waits
    c storage.io.bytes_read
    c storage.io.bytes_written
    c storage.io.cache_hits
    c storage.io.cache_misses
    c storage.io.evictions
    c storage.io.physical_reads
    c storage.io.physical_writes
    c storage.io.readaheads
    c storage.lsm.chunks_read
    c storage.lsm.flush_wait_ns
    c storage.lsm.flushes
    g storage.lsm.merge_inflight
    c storage.lsm.merge_stall_ns
    c storage.lsm.merges
    c storage.lsm.read_amp
    c storage.lsm.retire_failures
    c storage.lsm.rows_assembled
    c storage.lsm.space_amp
    c storage.lsm.string_bytes_coded
    c storage.lsm.string_bytes_plain
    c storage.lsm.write_amp
    c storage.wal.appended_bytes
    c storage.wal.cell_bytes
    c storage.wal.code_ns
    c storage.wal.group_commit_waiters
    c storage.wal.group_commits
    c storage.wal.header_bytes
    c storage.wal.key_bytes
    c storage.wal.record_bytes
    c storage.wal.row_bytes
    g storage.wal.segments
    c storage.wal.truncated_bytes
";

/// Metrics registered only at their first event, so the instances here
/// export none of them: the feed metrics when a feed starts
/// (`core::feeds`), the others when what they count first happens.
const FIRST_EVENT: [&str; 17] = [
    "core.cluster.node_restarts",
    "core.feed.discarded",
    "core.feed.ingested",
    "core.feed.lag",
    "core.feed.rejected",
    "core.feed.resumes",
    "core.feed.retries",
    "core.feed.spilled",
    "core.feed.throttle_ns",
    "core.query.retries",
    "hyracks.lifecycle.cancelled",
    "hyracks.lifecycle.deadline_exceeded",
    "hyracks.lifecycle.failed",
    "hyracks.lifecycle.injected_faults",
    "hyracks.lifecycle.leaked_workers",
    "hyracks.lifecycle.upstream_failures",
    "hyracks.lifecycle.worker_panics",
];

/// Pinned counters the smoke mix may leave at 0, each with why. What thread
/// timing decides is here, so that the test cannot flake.
const UNREACHED: &str = "
    cache.coalesced_waits             thread timing: two readers missing one page at once
    core.serving.queue_cancelled      needs a query cancelled while queued behind a held slot
    hyracks.sched.steals              thread timing: an idle worker finding work on another's deque
    storage.lsm.retire_failures       needs a failed delete of a merged-away file
    storage.wal.group_commit_waiters  thread timing: a commit arriving during another's sync
";

fn lines(list: &str) -> impl Iterator<Item = (&str, &str)> {
    list.lines().filter_map(|l| l.trim().split_once(' '))
}

#[test]
fn the_exported_metric_names_and_kinds_are_pinned() {
    let db = Instance::open(InstanceConfig { nodes: 2, ..Default::default() }).unwrap();
    db.execute_sqlpp("CREATE TYPE T AS { id: int }; CREATE DATASET D(T) PRIMARY KEY id;").unwrap();
    let mut txn = db.begin();
    for id in 0..3 {
        txn.write("D", &Value::object(vec![("id".into(), Value::Int(id))]), true).unwrap();
    }
    txn.commit().unwrap();
    assert_eq!(db.query("SELECT VALUE COUNT(*) FROM D d").unwrap(), vec![Value::Int(3)]);
    db.flush_all().unwrap();

    let got: Vec<String> = db
        .metrics_snapshot()
        .values
        .iter()
        .map(|(name, v)| {
            let kind = match v {
                MetricValue::Counter(_) => 'c',
                MetricValue::Gauge(_) => 'g',
            };
            format!("{kind} {name}")
        })
        .collect();
    let mut expected: Vec<String> =
        lines(INSTANCE).map(|(kind, name)| format!("{kind} {name}")).collect();
    for node in 0..2 {
        expected.extend(lines(PER_NODE).map(|(kind, name)| format!("{kind} node{node}.{name}")));
    }
    assert_eq!(got, expected);
}

/// `seg.seg`: two or more dot-separated segments of lowercase letters,
/// digits and `_`, each starting with a letter.
fn metric_shaped(s: &str) -> bool {
    let segment = |seg: &str| {
        seg.starts_with(|c: char| c.is_ascii_lowercase())
            && seg.bytes().all(|b| b.is_ascii_lowercase() || b.is_ascii_digit() || b == b'_')
    };
    s.split('.').count() >= 2 && s.split('.').all(segment)
}

/// The names a backticked doc span stands for: itself, or one name per
/// alternative of its one `{a,b,…}` group.
fn expand(span: &str) -> Vec<String> {
    let Some((head, rest)) = span.split_once('{') else {
        return vec![span.to_string()];
    };
    let Some((alternatives, tail)) = rest.split_once('}') else {
        return Vec::new();
    };
    alternatives.split(',').map(|a| format!("{head}{}{tail}", a.trim())).collect()
}

#[test]
fn every_documented_metric_name_is_exported_or_registered_at_its_first_event() {
    let mut known: BTreeSet<&str> = FIRST_EVENT.into_iter().collect();
    known.extend(lines(INSTANCE).chain(lines(PER_NODE)).map(|(_, name)| name));
    let families: BTreeSet<&str> = known.iter().filter_map(|n| n.split('.').next()).collect();
    let mut checked = BTreeSet::new();
    let mut stale = Vec::new();
    for doc in ["DESIGN.md", "README.md"] {
        let path = format!("{}/../../{doc}", env!("CARGO_MANIFEST_DIR"));
        let text = std::fs::read_to_string(&path).unwrap();
        for (i, line) in text.lines().enumerate() {
            // the spans between backticks; an unclosed one on a line is skipped
            let spans = line.split('`').collect::<Vec<_>>();
            for span in spans.iter().skip(1).step_by(2).take((spans.len() - 1) / 2) {
                for name in expand(span) {
                    let file = [".rs", ".md", ".json", ".yml", ".toml"]
                        .iter()
                        .any(|ext| name.ends_with(ext));
                    let family = name.split('.').next().unwrap_or("");
                    if file || !metric_shaped(&name) || !families.contains(family) {
                        continue;
                    }
                    if !known.contains(name.as_str()) {
                        stale.push(format!("{doc}:{}: `{name}`", i + 1));
                    }
                    checked.insert(name);
                }
            }
        }
    }
    assert!(stale.is_empty(), "documented metrics the instance does not have: {stale:#?}");
    assert!(checked.len() >= 30, "only {} documented metric names found", checked.len());
}

const DDL: &str = "CREATE TYPE T AS { id: int, k: int, s: string };
                   CREATE DATASET D(T) PRIMARY KEY id;
                   CREATE INDEX ByK ON D(k);";

/// Records in `D` once the smoke mix has written them all.
const RECORDS: i64 = 8000;

/// Upserts records `ids` into `D` in transactions of 100.
fn write(db: &Instance, ids: std::ops::Range<i64>) {
    let ids: Vec<i64> = ids.collect();
    for chunk in ids.chunks(100) {
        let mut txn = db.begin();
        for &id in chunk {
            let s = format!("message {} from user {}", id * 7 % 1000, id % 13);
            let record = Value::object(vec![
                ("id".into(), Value::Int(id)),
                ("k".into(), Value::Int(id % 500)),
                ("s".into(), Value::String(s)),
            ]);
            txn.write("D", &record, true).unwrap();
        }
        txn.commit().unwrap();
    }
}

/// A data directory, removed when dropped.
struct Dir(PathBuf);

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `sql` as a session query under `memory` bytes of working memory.
fn under(db: &Instance, memory: usize, sql: &str) -> Vec<Value> {
    let opts = QueryOptions { memory: Some(memory), ..Default::default() };
    db.session().submit_with(sql, opts).unwrap().wait().unwrap()
}

#[test]
fn every_pinned_counter_counts_after_a_smoke_mix() {
    let mut config = InstanceConfig {
        nodes: 2,
        partitions: 2,
        // smaller than what a node stores, so scans evict
        cache_pages_per_node: 4,
        storage: StorageConfig {
            // the third component of an index merges
            merge_policy: MergePolicy::Constant { max_components: 2 },
            ..Default::default()
        },
        ..Default::default()
    };
    let first = Instance::open(config.clone()).unwrap();
    first.execute_sqlpp(DDL).unwrap();
    write(&first, 0..RECORDS / 2);
    first.flush_all().unwrap();
    write(&first, RECORDS / 2..RECORDS * 5 / 8);
    // reopen: the flushed components load, the rest replays from the log
    let dir = Dir(first.crash());
    config.data_dir = Some(dir.0.clone());
    let db = Instance::open(config).unwrap();

    // flush and merge
    write(&db, RECORDS * 5 / 8..RECORDS * 6 / 8);
    db.flush_all().unwrap();
    write(&db, RECORDS * 6 / 8..RECORDS);
    db.flush_all().unwrap();
    common::settle(&db);
    // overwrites retract their old index entries, read back whole
    write(&db, 0..100);

    // a key lookup, index lookups (one across leaves) and a scan
    let got = db.query("SELECT VALUE d FROM D d WHERE d.id = 7").unwrap();
    assert_eq!(got[0].field("k"), &Value::Int(7));
    let per_k = RECORDS / 500;
    let got = db.query("SELECT VALUE d FROM D d WHERE d.k = 3").unwrap();
    assert_eq!(got.len() as i64, per_k);
    let got = db.query("SELECT VALUE COUNT(*) FROM D d WHERE d.k >= 100 AND d.k < 400").unwrap();
    assert_eq!(got, vec![Value::Int(300 * per_k)]);
    let count = db.query("SELECT VALUE COUNT(*) FROM D d").unwrap();
    assert_eq!(count, vec![Value::Int(RECORDS)]);

    // a sort, a group-by and a join that spill
    let tiny = 16 << 10;
    let sorted = under(&db, tiny, "SELECT VALUE d.s FROM D d ORDER BY d.s, d.id");
    assert_eq!(sorted.len() as i64, RECORDS);
    let groups = under(&db, tiny, "SELECT d.k AS k, COUNT(*) AS n FROM D d GROUP BY d.k");
    assert_eq!(groups.len(), 500);
    let joined = under(&db, tiny, "SELECT a.id AS a, b.id AS b FROM D a, D b WHERE a.id = b.k");
    assert_eq!(joined.len() as i64, RECORDS);

    // one submission over the pool
    let pool = db.scheduler().config().total_memory;
    let over = QueryOptions { memory: Some(pool + 1), ..Default::default() };
    let refused = db.session().submit_with("SELECT VALUE 1", over);
    assert!(matches!(refused, Err(CoreError::Saturated(_))));

    let snap = db.metrics_snapshot();
    let unreached: BTreeSet<&str> = lines(UNREACHED).map(|(name, _)| name).collect();
    assert!(unreached.len() <= 10, "UNREACHED is a short list of exceptions");
    assert!(lines(UNREACHED).all(|(_, why)| !why.trim().is_empty()), "each says why");
    let mut counters: Vec<String> = Vec::new();
    for (kind, name) in lines(INSTANCE) {
        if kind == "c" && !unreached.contains(name) {
            counters.push(name.to_string());
        }
    }
    for (kind, name) in lines(PER_NODE) {
        if kind == "c" && !unreached.contains(name) {
            counters.extend((0..2).map(|node| format!("node{node}.{name}")));
        }
    }
    let idle: Vec<&String> =
        counters.iter().filter(|name| snap.counter(name).unwrap_or(0) == 0).collect();
    assert!(idle.is_empty(), "pinned counters the smoke mix left at 0: {idle:#?}");
}
