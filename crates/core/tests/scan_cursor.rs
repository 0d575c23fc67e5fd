//! The promises of a dataset source's cursor, as counts: it reads a batch of
//! columns at a time, not a partition, and it holds its partition's lock only
//! while it reads one — so a scan parked half way blocks no writer, and a
//! resume by key yields every record once whatever was flushed or merged in
//! between. And a batch holds the same rows whether they come out of a memory
//! component's rows, a leaf group's chunks or both, wherever it ends.

mod common;

use asterix_adm::parse::parse_value;
use asterix_adm::{ColumnBatch, Value};
use asterix_algebricks::source::DataSource;
use asterix_hyracks::job::Produced;
use asterix_core::dataset::StorageConfig;
use asterix_core::sources::{DatasetSource, SCAN_BATCH};
use asterix_core::{Instance, InstanceConfig};
use asterix_storage::lsm::{LsmStats, MergePolicy};
use std::collections::BTreeSet;
use std::sync::mpsc;
use std::time::Duration;

/// One partition on one node holding `D(id, v)` with ids `0..n`, written in
/// transactions of 250 records.
fn loaded(n: i64, storage: StorageConfig) -> Instance {
    let db = Instance::open(InstanceConfig { nodes: 1, partitions: 1, storage, ..Default::default() })
        .unwrap();
    db.execute_sqlpp("CREATE TYPE T AS { id: int, v: int }; CREATE DATASET D(T) PRIMARY KEY id;")
        .unwrap();
    upsert(&db, 0..n, 0);
    db
}

fn upsert(db: &Instance, ids: impl IntoIterator<Item = i64>, v: i64) {
    let ids: Vec<i64> = ids.into_iter().collect();
    for chunk in ids.chunks(250) {
        let mut txn = db.begin();
        for id in chunk {
            let rec = parse_value(&format!(r#"{{"id": {id}, "v": {v}}}"#)).unwrap();
            txn.write("D", &rec, true).unwrap();
        }
        txn.commit().unwrap();
    }
}

fn primary_stats(db: &Instance) -> LsmStats {
    db.lsm_stats("D", None).unwrap().remove(0)
}

/// The batches of a scan of `fields` (the records whole without any).
fn open_scan(db: &Instance, fields: &[&str]) -> impl Iterator<Item = ColumnBatch> {
    let source = DatasetSource::new(db.dataset_runtime("D").unwrap());
    let fields: Vec<String> = fields.iter().map(|f| f.to_string()).collect();
    source.scan(&fields).unwrap().open(0).unwrap().map(|produced| match produced.unwrap() {
        Produced::Batch(batch) => batch,
        Produced::Tuple(t) => panic!("a dataset's cursor handed out the tuple {t:?}"),
    })
}

/// The first column of `batch`, row by row.
fn first_column(batch: ColumnBatch) -> Vec<Value> {
    batch.into_rows().map(|mut row| row.remove(0)).collect()
}

#[test]
fn the_first_batch_costs_one_batch_not_the_partition() {
    let db = loaded(10_000, StorageConfig::default());
    db.flush_all().unwrap();
    let before = primary_stats(&db);
    assert_eq!((before.flushes, before.merges), (1, 0), "one disk component");
    let mut scan = open_scan(&db, &[]);
    assert_eq!(primary_stats(&db).entries_visited, before.entries_visited, "opening reads nothing");
    assert_eq!(scan.next().unwrap().rows(), SCAN_BATCH);
    // the cursor's reader is gone by now, its count with it: the batch, and
    // at most the entry its one component had read ahead
    let visited = (primary_stats(&db).entries_visited - before.entries_visited) as usize;
    assert!((SCAN_BATCH..=SCAN_BATCH + 1).contains(&visited), "{visited} visited of 10 000");
    assert_eq!(scan.map(|b| b.rows()).sum::<usize>(), 10_000 - SCAN_BATCH, "and the rest follows");
}

#[test]
fn a_parked_scan_blocks_no_writer() {
    let db = loaded(3 * SCAN_BATCH as i64, StorageConfig::default());
    let mut scan = open_scan(&db, &[]);
    assert_eq!(scan.next().unwrap().rows(), SCAN_BATCH);
    // the scan is held, a batch in; a writer on the same partition must not
    // have to wait for it
    let (done, written) = mpsc::channel();
    let writer = {
        let db = db.clone();
        std::thread::spawn(move || {
            upsert(&db, [-1, 5 * SCAN_BATCH as i64], 1);
            db.flush_all().unwrap();
            done.send(()).unwrap();
        })
    };
    asterix_storage::lock_order::recv_timeout(&written, Duration::from_secs(60)).expect("an upsert and a flush go through while the scan is parked");
    asterix_storage::lock_order::join(writer).unwrap();
    assert_eq!(scan.map(|b| b.rows()).sum::<usize>(), 2 * SCAN_BATCH + 1, "the rest, and the key written past it");
}

#[test]
fn a_resume_by_key_survives_a_flush_and_a_merge_between_batches() {
    // 2 KiB memory components merged whenever there are three: every few
    // transactions flush, every few flushes merge
    let storage = StorageConfig {
        mem_budget: 2 << 10,
        merge_policy: MergePolicy::Constant { max_components: 2 },
    };
    let n = 3 * SCAN_BATCH as i64;
    let db = loaded(n, storage);
    let mut scan = open_scan(&db, &[]);
    let ids = |batch: ColumnBatch| first_column(batch).into_iter().map(|r| r.field("id").as_i64().unwrap());
    let mut seen: Vec<i64> = ids(scan.next().unwrap()).collect();
    assert_eq!(seen, (0..SCAN_BATCH as i64).collect::<Vec<_>>());

    // between two batches: new versions on both sides of the cursor, new
    // keys before and after it, deletes ahead of it
    let before = primary_stats(&db);
    upsert(&db, (0..n).step_by(3), 1);
    upsert(&db, [-5, -4, n + 1, n + 2], 1);
    let deleted: BTreeSet<i64> = (SCAN_BATCH as i64 + 7..n).step_by(11).collect();
    let mut txn = db.begin();
    for id in &deleted {
        txn.delete("D", &asterix_adm::binary::encode_key(&[asterix_adm::Value::Int(*id)])).unwrap();
    }
    txn.commit().unwrap();
    db.flush_all().unwrap();
    let after = primary_stats(&db);
    assert!(after.flushes > before.flushes && after.merges > before.merges, "{before:?} -> {after:?}");

    seen.extend(scan.flat_map(ids));
    assert!(seen.windows(2).all(|w| w[0] < w[1]), "key order, no key twice");
    let seen: BTreeSet<i64> = seen.into_iter().collect();
    for id in (0..n).filter(|id| !deleted.contains(id)) {
        assert!(seen.contains(&id), "{id} was there throughout");
    }
    assert!(!seen.contains(&-5), "a key written behind the cursor is not its business");
    assert!(seen.contains(&(n + 1)), "one written ahead of it is read where it now stands");
    assert!(deleted.iter().all(|id| !seen.contains(id)), "nor is one deleted before the cursor got there");
}

/// A scan told one field yields the same records from the rows of a memory
/// component as from the column chunks they are flushed and merged into —
/// and of those it opens the key chunk and that field's, putting no row
/// together.
#[test]
fn a_scan_of_one_field_reads_rows_and_chunks_alike() {
    let n = 3 * SCAN_BATCH as i64;
    let db = loaded(n, StorageConfig { merge_policy: MergePolicy::Constant { max_components: 1 }, ..Default::default() });
    let scan_v = |db: &Instance| -> Vec<Value> { open_scan(db, &["v"]).flat_map(first_column).collect() };
    let counter = |db: &Instance, name: &str| db.metrics_snapshot().counter(&format!("node0.storage.lsm.{name}")).unwrap();
    upsert(&db, (0..n).step_by(5), 7);
    let from_rows = scan_v(&db);
    assert_eq!(from_rows.len(), n as usize);
    assert_eq!(from_rows[5], Value::Int(7));
    assert_eq!(counter(&db, "chunks_read"), 0, "nothing is on disk yet");

    db.flush_all().unwrap();
    upsert(&db, (0..n).step_by(7), 9);
    db.flush_all().unwrap();
    common::settle(&db);
    assert_eq!(primary_stats(&db).merges, 1);
    let (chunks, rows) = (counter(&db, "chunks_read"), counter(&db, "rows_assembled"));
    let from_chunks = scan_v(&db);
    let want: Vec<_> = (0..n).map(|id| Value::Int(if id % 7 == 0 { 9 } else if id % 5 == 0 { 7 } else { 0 })).collect();
    assert_eq!(from_chunks, want);
    assert_eq!(counter(&db, "rows_assembled"), rows, "a projected scan put rows together");
    // three groups, no delete marker and no record without a `v`, so of each
    // the keys and `v`'s values are all there is to open — once per batch
    // that reads of the group, and the keys once more to resume after its last
    let opened = counter(&db, "chunks_read") - chunks;
    assert!((3 * 2..=6 * 2).contains(&opened), "{opened} chunks opened");
    // nor does a scan of whole records, which builds them from every cell;
    // the one row put together is the before-image a write logs
    assert_eq!(open_scan(&db, &[]).map(|b| b.rows()).sum::<usize>(), n as usize);
    assert_eq!(counter(&db, "rows_assembled"), rows);
    upsert(&db, [3], 1);
    assert_eq!(counter(&db, "rows_assembled"), rows + 1);
}

/// The rows of the batches of a scan are the live records in key order — a
/// column per field asked for, or the record whole — when every row comes out
/// of leaf groups, and when a memory component holds overwrites, deletes and
/// new keys *over* the flushed groups: its rows cut the runs a group is read
/// in, and the batches end inside the groups.
#[test]
fn a_batch_is_the_same_rows_from_chunks_and_from_rows_over_them() {
    let n = 2 * SCAN_BATCH as i64 + 300;
    let db = loaded(n, StorageConfig::default());
    db.flush_all().unwrap();
    let mut model: std::collections::BTreeMap<i64, i64> = (0..n).map(|id| (id, 0)).collect();
    let check = |db: &Instance, model: &std::collections::BTreeMap<i64, i64>, when: &str| {
        let sizes: Vec<usize> = open_scan(db, &["id", "v"]).map(|b| b.rows()).collect();
        let (full, last) = sizes.split_at(sizes.len() - 1);
        assert!(full.iter().all(|rows| *rows == SCAN_BATCH) && last[0] <= SCAN_BATCH, "{when}: batches of {sizes:?}");
        let pairs: Vec<Vec<Value>> = open_scan(db, &["id", "v"]).flat_map(ColumnBatch::into_rows).collect();
        let want: Vec<Vec<Value>> = model.iter().map(|(id, v)| vec![Value::Int(*id), Value::Int(*v)]).collect();
        assert_eq!(pairs, want, "{when}: two columns");
        let whole: Vec<Value> = open_scan(db, &[]).flat_map(first_column).collect();
        let want: Vec<Value> =
            model.iter().map(|(id, v)| parse_value(&format!(r#"{{"id": {id}, "v": {v}}}"#)).unwrap()).collect();
        assert_eq!(whole, want, "{when}: whole records");
    };
    check(&db, &model, "flushed");

    // over the groups, in memory: every ninth record overwritten, every
    // thirteenth deleted, keys before, between and after them
    let overwritten: Vec<i64> = (0..n).step_by(9).collect();
    upsert(&db, overwritten.iter().copied(), 4);
    overwritten.iter().for_each(|id| *model.get_mut(id).unwrap() = 4);
    let mut txn = db.begin();
    for id in (5..n).step_by(13) {
        txn.delete("D", &asterix_adm::binary::encode_key(&[Value::Int(id)])).unwrap();
        model.remove(&id);
    }
    txn.commit().unwrap();
    upsert(&db, [-7, -3, n, n + 50], 2);
    model.extend([-7, -3, n, n + 50].map(|id| (id, 2)));
    assert_eq!(primary_stats(&db).flushes, 1, "none of it is flushed");
    check(&db, &model, "rows over chunks");

    db.flush_all().unwrap();
    common::settle(&db);
    check(&db, &model, "two components");
}

/// Message `id` at version `v`: words of a lexicon of its own per version, so
/// that components written at two versions code their strings under two
/// tables; every eleventh empty.
fn message(id: i64, v: i64) -> String {
    const LEXICONS: [[&str; 4]; 2] = [[" the", " signal", " café", " 日本"], [" love", " at&t", " 3G", " screen"]];
    if id % 11 == 0 {
        return String::new();
    }
    (0..3 + id % 5).map(|k| LEXICONS[v as usize % 2][((id + k) % 4) as usize]).collect()
}

/// A string column read as batches holds the strings that went in: out of
/// groups whose strings are coded, out of a memory component's overwrites,
/// deletes and new keys over them — its rows' plain strings meeting codes in
/// one column — and out of two components coded under two tables.
#[test]
fn a_batch_of_coded_strings_is_the_same_rows_with_rows_over_them() {
    let db = Instance::open(InstanceConfig {
        nodes: 1,
        partitions: 1,
        storage: StorageConfig { merge_policy: MergePolicy::NoMerge, ..Default::default() },
        ..Default::default()
    })
    .unwrap();
    db.execute_sqlpp("CREATE TYPE M AS { id: int, msg: string }; CREATE DATASET D(M) PRIMARY KEY id;").unwrap();
    let write = |ids: &[i64], v: i64, model: &mut std::collections::BTreeMap<i64, String>| {
        let mut txn = db.begin();
        for id in ids {
            let record = Value::object(vec![("id".into(), Value::Int(*id)), ("msg".into(), Value::from(message(*id, v)))]);
            txn.write("D", &record, true).unwrap();
            model.insert(*id, message(*id, v));
        }
        txn.commit().unwrap();
    };
    let check = |model: &std::collections::BTreeMap<i64, String>, when: &str| {
        let got: Vec<Vec<Value>> = open_scan(&db, &["id", "msg"]).flat_map(ColumnBatch::into_rows).collect();
        let want: Vec<Vec<Value>> = model.iter().map(|(id, m)| vec![Value::Int(*id), Value::from(m.as_str())]).collect();
        assert_eq!(got, want, "{when}");
        let messages: Vec<Value> = open_scan(&db, &["msg"]).flat_map(first_column).collect();
        assert_eq!(messages, model.values().map(|m| Value::from(m.as_str())).collect::<Vec<_>>(), "{when}: one column");
    };
    let counter = |name: &str| db.metrics_snapshot().counter(&format!("node0.storage.lsm.{name}")).unwrap();
    let n = 2 * SCAN_BATCH as i64 + 300;
    let mut model = std::collections::BTreeMap::new();
    write(&(0..n).collect::<Vec<_>>(), 0, &mut model);
    db.flush_all().unwrap();
    let (plain, coded) = (counter("string_bytes_plain"), counter("string_bytes_coded"));
    assert!(coded * 3 < plain, "the groups are coded: {coded} bytes of {plain}");
    check(&model, "flushed");

    // over the groups, in memory: every ninth overwritten, every thirteenth
    // deleted, keys before and after them
    write(&(0..n).step_by(9).chain([-3, n + 5]).collect::<Vec<_>>(), 1, &mut model);
    let mut txn = db.begin();
    for id in (5..n).step_by(13) {
        txn.delete("D", &asterix_adm::binary::encode_key(&[Value::Int(id)])).unwrap();
        model.remove(&id);
    }
    txn.commit().unwrap();
    check(&model, "rows over coded groups");
    db.flush_all().unwrap();
    assert_eq!(primary_stats(&db).flushes, 2);
    check(&model, "two components, two tables");
}
