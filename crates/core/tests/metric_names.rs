//! The metric namespace, pinned: every `(name, kind)` a small two-node
//! instance exports through `Instance::metrics_snapshot()`. A metric that
//! is renamed, dropped, added or changes kind shows up here as a diff of
//! the literal below — which is also the list DESIGN.md "Observability"
//! documents.

use asterix_adm::Value;
use asterix_core::instance::{Instance, InstanceConfig};
use asterix_obs::MetricValue;

/// What the dataflow runtime's registry holds, as `<kind> <name>` with kind
/// `c`ounter or `g`auge. Counters that are registered at their first event
/// (`core.query.retries`, `core.feeds.*`, the other `hyracks.lifecycle.*`
/// endings) have had none here.
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
