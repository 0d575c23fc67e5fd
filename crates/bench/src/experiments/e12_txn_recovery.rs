//! E12 — record-level transactions and crash recovery (paper §III item 9).
//!
//! "Basic NoSQL-like transactional capabilities similar to those of popular
//! NoSQL stores": committed operations are durable across a crash (durable
//! LSM components + replay of the log tail past them), uncommitted
//! operations disappear, aborts roll back with before-images, and same-key
//! writers are serialized by the PK lock manager.
//!
//! The second half is the restart-vs-history curve: the same live data after
//! 1×, 4× and 16× as many overwrites must restart from the same amount of
//! log — what is still only in memory — not from its history.

use crate::feeds::node_sum;
use crate::{ms, time_it, ExpReport, MISSING};
use asterix_adm::Value;
use asterix_core::dataset::StorageConfig;
use asterix_core::instance::{Instance, InstanceConfig};
use asterix_obs::MetricsSnapshot;
use asterix_storage::lsm::ENTRY_BYTES;
use std::path::Path;

/// Memory-component budget of the history curve: small enough that even one
/// pass over the data flushes (and so rotates and truncates the log) often.
const CURVE_MEM_BUDGET: usize = 16 << 10;
/// Records per transaction of the history curve.
const CURVE_TXN: i64 = 50;

/// Bytes of log segments under `dir`.
fn log_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else { return 0 };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => log_bytes(&e.path()),
            Ok(m) if e.file_name().to_string_lossy().ends_with(".wal") => m.len(),
            _ => 0,
        })
        .sum()
}

/// Writes `live` records `passes` times over, crashes, reopens. Returns
/// `(restart time, records replayed, components loaded, log bytes)`.
fn restart_after_history(live: i64, passes: i64) -> (std::time::Duration, u64, u64, u64) {
    let dir = crate::experiments::exp_dir(&format!("e12-history-{passes}"));
    let config = InstanceConfig {
        data_dir: Some(dir.clone()),
        storage: StorageConfig { mem_budget: CURVE_MEM_BUDGET, ..Default::default() },
        ..Default::default()
    };
    let db = Instance::open(config.clone()).unwrap();
    db.execute_sqlpp("CREATE TYPE T AS { id: int, v: int }; CREATE DATASET D(T) PRIMARY KEY id;")
        .unwrap();
    for pass in 0..passes {
        for first in (0..live).step_by(CURVE_TXN as usize) {
            let mut txn = db.begin();
            for id in first..(first + CURVE_TXN).min(live) {
                let rec = Value::object(vec![
                    ("id".into(), Value::Int(id)),
                    ("v".into(), Value::Int(pass)),
                ]);
                txn.write("D", &rec, true).unwrap();
            }
            txn.commit().unwrap();
        }
    }
    let _ = db.crash();
    let log = log_bytes(&dir);
    let (db, t_recover) = time_it(|| Instance::open(config).unwrap());
    assert_eq!(db.count("D").unwrap() as i64, live);
    let stale = db
        .query(&format!("SELECT COUNT(*) AS n FROM D d WHERE d.v != {}", passes - 1))
        .unwrap();
    assert_eq!(stale[0].field("n").as_i64(), Some(0), "every record at its latest version");
    let snap = db.metrics_snapshot();
    let counter = |name: &str| snap.counter(&format!("core.recovery.{name}")).expect(MISSING);
    let out = (t_recover, counter("records_replayed"), counter("components_loaded"), log);
    drop(db);
    let _ = std::fs::remove_dir_all(dir);
    out
}

pub fn run(quick: bool) -> ExpReport {
    let committed_txns: i64 = if quick { 50 } else { 400 };
    let records_per_txn: i64 = 10;
    let uncommitted: i64 = if quick { 30 } else { 200 };
    let mut report = ExpReport::new(
        "E12",
        format!(
            "transactions & crash recovery ({committed_txns} committed txns × {records_per_txn} records, {uncommitted} uncommitted writes)"
        ),
        &["measurement", "value", "detail"],
    );
    let dir = crate::experiments::exp_dir("e12");
    let config = InstanceConfig { data_dir: Some(dir.clone()), ..Default::default() };
    let committed_records = committed_txns * records_per_txn;
    let deleted: i64 = committed_txns; // one committed delete per txn batch
    {
        let db = Instance::open(config.clone()).unwrap();
        db.execute_sqlpp(
            "CREATE TYPE T AS { id: int, v: int };
             CREATE DATASET D(T) PRIMARY KEY id;",
        )
        .unwrap();
        let (_, t_commit) = time_it(|| {
            for t in 0..committed_txns {
                let mut txn = db.begin();
                for r in 0..records_per_txn {
                    let id = t * records_per_txn + r;
                    txn.write(
                        "D",
                        &asterix_adm::parse::parse_value(&format!(
                            r#"{{"id":{id},"v":{t}}}"#
                        ))
                        .unwrap(),
                        true,
                    )
                    .unwrap();
                }
                txn.commit().unwrap();
            }
        });
        report.row(&[
            "commit throughput".into(),
            format!(
                "{:.0} txns/s",
                committed_txns as f64 / t_commit.as_secs_f64()
            ),
            format!("{records_per_txn} records/txn, WAL force at commit"),
        ]);
        // committed deletes
        let mut txn = db.begin();
        for t in 0..deleted {
            txn.delete(
                "D",
                &asterix_adm::binary::encode_key(&[Value::Int(t * records_per_txn)]),
            )
            .unwrap();
        }
        txn.commit().unwrap();
        // an aborted transaction rolls back before the crash
        let mut txn = db.begin();
        txn.write(
            "D",
            &asterix_adm::parse::parse_value(r#"{"id":1,"v":-1}"#).unwrap(),
            true,
        )
        .unwrap();
        txn.abort().unwrap();
        // uncommitted tail: logged updates with no commit record
        let mut txn = db.begin();
        for i in 0..uncommitted {
            txn.write(
                "D",
                &asterix_adm::parse::parse_value(&format!(
                    r#"{{"id":{},"v":0}}"#,
                    1_000_000 + i
                ))
                .unwrap(),
                true,
            )
            .unwrap();
        }
        std::mem::forget(txn); // crash: neither commit nor rollback runs
        // what the log's syncs wrote against the records they held: each
        // group commit is one block. A node's block here holds about five
        // records, too few to split into streams of like bytes, so it is
        // coded whole — an LZ77 parse whose byte streams are Huffman-coded —
        // and is mostly literals and layout: 0.59 of its records.
        let snap = db.metrics_snapshot();
        let wal = |name: &str| node_sum(&snap, &format!("storage.wal.{name}"), MetricsSnapshot::counter);
        let (file, records, code_ns) = (wal("appended_bytes"), wal("record_bytes"), wal("code_ns"));
        report.row(&[
            "log bytes per record byte".into(),
            format!("{:.3}", file as f64 / records as f64),
            format!(
                "{file} bytes of blocks for {records} of records (appended_bytes / record_bytes), \
                 coded at {:.0} MB/s (record_bytes / code_ns)",
                records as f64 * 1e3 / code_ns.max(1) as f64
            ),
        ]);
        assert!(10 * file <= 6 * records, "{file} bytes of log for {records} of records");
        let _ = db.crash();
    }
    let expected = committed_records - deleted;
    {
        let (db, t_recover) = time_it(|| Instance::open(config.clone()).unwrap());
        report.row(&[
            "recovery time".into(),
            format!("{} ms", ms(t_recover)),
            "DDL replay + component attach + log-tail replay".into(),
        ]);
        let live = db.count("D").unwrap() as i64;
        report.row(&[
            "committed records recovered".into(),
            format!("{live} / {expected}"),
            "inserts minus committed deletes".into(),
        ]);
        assert_eq!(live, expected);
        let ghosts = db
            .query("SELECT COUNT(*) AS n FROM D d WHERE d.id >= 1000000")
            .unwrap();
        let ghost_count = ghosts[0].field("n").as_i64().unwrap();
        report.row(&[
            "uncommitted records recovered".into(),
            format!("{ghost_count} / {uncommitted}"),
            "must be 0".into(),
        ]);
        assert_eq!(ghost_count, 0);
        let aborted = db.query("SELECT VALUE d.v FROM D d WHERE d.id = 1").unwrap();
        assert_eq!(aborted, vec![Value::Int(0)], "aborted overwrite never surfaced");
        report.row(&[
            "aborted overwrite visible".into(),
            "no".into(),
            "before-image rollback held across the crash".into(),
        ]);
        // recovered instance accepts new work
        db.execute_sqlpp(r#"UPSERT INTO D ({"id": 2000000, "v": 1})"#).unwrap();
        assert_eq!(db.count("D").unwrap() as i64, expected + 1);
    }
    // ---- restart cost against history: same live data, 1×/4×/16× overwrites
    let live: i64 = if quick { 1_000 } else { 4_000 };
    let partitions = InstanceConfig::default().partitions as u64;
    // What one memory component per partition can hold (an entry counts
    // `ENTRY_BYTES` beside its key and value, and the one that passes the
    // budget is in it too) plus the transaction that was in flight: the most
    // a restart may have to replay, whatever came before. A pass writes each
    // key once, so a component's records are as many as its entries (a hot
    // set rewritten in place is bounded by the log a component may keep
    // instead: `recovery_prop` `overwriting_a_hot_set…`).
    let tail_records = partitions * (CURVE_MEM_BUDGET / ENTRY_BYTES + 1) as u64 + CURVE_TXN as u64;
    for passes in [1, 4, 16] {
        let (t_recover, replayed, components, log) = restart_after_history(live, passes);
        report.row(&[
            format!("restart after {passes}x history"),
            format!("{} ms", ms(t_recover)),
            format!(
                "{replayed} records replayed, {log} log bytes, {components} components loaded \
                 ({} records written)",
                live * passes
            ),
        ]);
        // flat in history — asserted on counts, never on a time
        assert!(
            replayed <= tail_records && replayed < live as u64,
            "{passes}x history: {replayed} records replayed (cap {tail_records})"
        );
        assert!(
            log <= tail_records * 128,
            "{passes}x history: {log} log bytes for a tail of at most {tail_records} records"
        );
    }
    report.note(
        "shape: exactly the committed state survives the crash — NoSQL-style \
         record-level atomicity + durability (paper §III item 9); and the restart \
         reads the disk components plus a log tail bounded by the memory \
         components, flat from 1x to 16x history (full-log replay grew 16x)",
    );
    let _ = std::fs::remove_dir_all(dir);
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn e12_runs_quick() {
        let r = super::run(true);
        assert_eq!(r.rows.len(), 9);
    }
}
