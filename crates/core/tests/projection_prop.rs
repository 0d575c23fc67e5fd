//! Field-access pushdown is invisible: a scan told which fields the plan
//! reads yields records holding just those, and no query may be able to tell.
//! Over a closed-type and an open-type dataset — records in memory
//! components, in fresh and in merged disk components, and read back after a
//! crash — queries that read a few fields (`SELECT m.f …`, `WHERE`, `GROUP
//! BY`, `ORDER BY`, joins) must answer what the test computes from `SELECT
//! VALUE m`, which reads records whole; and the same again right after a
//! flush and its merge, when the rows a memory component held are cells in
//! column chunks. A scan hands those fields out as columns, a batch at a
//! time: the states that is new in — overwrites and delete markers in a
//! memory component over flushed groups, their rows cutting the runs a group
//! is read in, over strings that are coded — are pinned by name below.

use asterix_adm::compare::total_cmp;
use asterix_adm::parse::parse_value;
use asterix_adm::{Object, Value};
use asterix_core::dataset::StorageConfig;
use asterix_core::instance::{Instance, InstanceConfig, Language};
use asterix_storage::lsm::MergePolicy;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::path::PathBuf;

const KEYS: i64 = 40;
/// Values of `a`, the field with a secondary index; `U` has a user for each.
const AUTHORS: i64 = 6;
/// What a query may name: declared fields of the closed type, fields the
/// open type leaves to its open part (one of them an object), an optional
/// field that is absent from some records, and a name no record has.
const FIELDS: [&str; 6] = ["id", "a", "g", "s", "nest", "nope"];

/// `C` declares every field (`nest` is not one: closed records have none);
/// `O` declares only its key.
const DDL: &str = "
    CREATE TYPE CT AS CLOSED { id: int, a: int, g: int, s: string? };
    CREATE DATASET C(CT) PRIMARY KEY id;
    CREATE INDEX cByA ON C(a);
    CREATE TYPE OT AS { id: int };
    CREATE DATASET O(OT) PRIMARY KEY id;
    CREATE INDEX oByA ON O(a);
    CREATE TYPE UT AS { uid: int, name: string };
    CREATE DATASET U(UT) PRIMARY KEY uid;";

#[derive(Debug, Clone)]
enum Op {
    Upsert { key: i64, a: i64, g: i64, s: Option<u8> },
    Delete { key: i64 },
    Flush,
    /// Crash and reopen: what was in memory components comes back from the
    /// log, undecoded.
    Restart,
    /// Queries naming `fields` (indexes into [`FIELDS`]), filtering at `bound`;
    /// asked again, if `and_flushed`, once a flush and the merge it sets off
    /// have moved the rows of the memory components into column chunks.
    Check { fields: Vec<usize>, bound: i64, and_flushed: bool },
}

fn arb_op() -> impl Strategy<Value = Op> {
    let upsert = (0..KEYS, 0..AUTHORS, 0..4i64, any::<bool>(), any::<u8>())
        .prop_map(|(key, a, g, has_s, s)| Op::Upsert { key, a, g, s: has_s.then_some(s) });
    let check = (proptest::collection::vec(0..FIELDS.len(), 1..=3), 0..AUTHORS, any::<bool>())
        .prop_map(|(fields, bound, and_flushed)| Op::Check { fields, bound, and_flushed });
    prop_oneof![
        upsert.clone(),
        upsert.clone(),
        upsert,
        (0..KEYS).prop_map(|key| Op::Delete { key }),
        Just(Op::Flush),
        Just(Op::Flush),
        Just(Op::Restart),
        check.clone(),
        check,
    ]
}

/// The data directory, removed when the test is over.
struct Dir(PathBuf);

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open(dir: Option<&Dir>, partitions: usize) -> Instance {
    Instance::open(InstanceConfig {
        data_dir: dir.map(|d| d.0.clone()),
        nodes: partitions,
        partitions,
        // every third flush merges, so reads cross memory, fresh and merged
        // components
        storage: StorageConfig {
            merge_policy: MergePolicy::Constant { max_components: 2 },
            ..Default::default()
        },
        ..Default::default()
    })
    .unwrap()
}

fn sorted(mut rows: Vec<Value>) -> Vec<Value> {
    rows.sort_by(total_cmp);
    rows
}

/// `{name: record.name, …}` as a SELECT builds it: a MISSING field is left out.
fn pick(record: &Value, names: &[&str]) -> Value {
    let fields = names.iter().map(|n| (*n, record.field(n).clone()));
    Value::Object(Object::from_pairs(fields.filter(|(_, v)| !v.is_missing())))
}

fn int(record: &Value, field: &str) -> i64 {
    record.field(field).as_i64().expect("int field")
}

fn check(db: &Instance, dataset: &str, model: &BTreeMap<i64, Value>, fields: &[usize], bound: i64) {
    let query = |sql: &str| db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"));
    // whole records are what the rest is computed from
    let dump = query(&format!("SELECT VALUE m FROM {dataset} m"));
    assert_eq!(sorted(dump.clone()), sorted(model.values().cloned().collect()), "{dataset} dump");

    let mut names: Vec<&str> = fields.iter().map(|f| FIELDS[*f]).collect();
    names.dedup();
    let select: Vec<String> = names.iter().map(|n| format!("m.{n}")).collect();
    let select = select.join(", ");

    let sql = format!("SELECT {select} FROM {dataset} m");
    let want: Vec<Value> = dump.iter().map(|r| pick(r, &names)).collect();
    assert_eq!(sorted(query(&sql)), sorted(want), "{sql}");
    // not vacuous: the scan was told those fields and no others
    let mut told = names.clone();
    told.sort_unstable();
    told.dedup();
    let plan = db.explain(&sql, Language::Sqlpp).unwrap();
    assert!(plan.contains(&format!("scan {dataset} {{{}}} -> ", told.join(", "))), "{sql}\n{plan}");

    // a path of its own into the open part's object
    let sql = format!("SELECT VALUE m.nest.x FROM {dataset} m WHERE m.g >= 2");
    let want: Vec<Value> =
        dump.iter().filter(|r| int(r, "g") >= 2).map(|r| r.field("nest").field("x").clone()).collect();
    assert_eq!(sorted(query(&sql)), sorted(want), "{sql}");

    // filters the fields of which are read by nothing else: a full scan, the
    // secondary index on `a`, a primary-key range
    for (field, path) in [("g", "scan "), ("a", "index-scan "), ("id", "index-scan ")] {
        let sql = format!("SELECT {select} FROM {dataset} m WHERE m.{field} >= {bound}");
        let want: Vec<Value> =
            dump.iter().filter(|r| int(r, field) >= bound).map(|r| pick(r, &names)).collect();
        assert_eq!(sorted(query(&sql)), sorted(want), "{sql}");
        let plan = db.explain(&sql, Language::Sqlpp).unwrap();
        assert!(plan.lines().last().unwrap().trim_start().starts_with(path), "{sql}\n{plan}");
    }

    let sql = format!("SELECT m.g AS g, COUNT(*) AS c, SUM(m.a) AS s FROM {dataset} m GROUP BY m.g");
    let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for r in &dump {
        let group = groups.entry(int(r, "g")).or_default();
        *group = (group.0 + 1, group.1 + int(r, "a"));
    }
    let want: Vec<Value> = groups
        .iter()
        .map(|(g, (c, s))| parse_value(&format!(r#"{{"g": {g}, "c": {c}, "s": {s}}}"#)).unwrap())
        .collect();
    assert_eq!(sorted(query(&sql)), sorted(want), "{sql}");

    // ordered, so compared in order; `id` breaks the ties
    let sql = format!("SELECT {select} FROM {dataset} m ORDER BY m.g DESC, m.id LIMIT 7");
    let mut ordered: Vec<&Value> = dump.iter().collect();
    ordered.sort_by_key(|r| (-int(r, "g"), int(r, "id")));
    let want: Vec<Value> = ordered.iter().take(7).map(|r| pick(r, &names)).collect();
    assert_eq!(query(&sql), want, "{sql}");

    // a join reading one field of each side, and one handing a side up whole
    let users = query("SELECT VALUE u FROM U u");
    let user_of = |r: &Value| users.iter().find(|u| int(u, "uid") == int(r, "a")).expect("a user per author");
    let sql = format!("SELECT m.id AS id, u.name AS name FROM {dataset} m, U u WHERE m.a = u.uid");
    let want: Vec<Value> = dump
        .iter()
        .map(|r| Value::object(vec![("id".into(), r.field("id").clone()), ("name".into(), user_of(r).field("name").clone())]))
        .collect();
    assert_eq!(sorted(query(&sql)), sorted(want), "{sql}");
    let sql = format!("SELECT u.uid AS uid, m AS m FROM {dataset} m, U u WHERE m.a = u.uid AND m.g = 1");
    let want: Vec<Value> = dump
        .iter()
        .filter(|r| int(r, "g") == 1)
        .map(|r| Value::object(vec![("uid".into(), r.field("a").clone()), ("m".into(), r.clone())]))
        .collect();
    assert_eq!(sorted(query(&sql)), sorted(want), "{sql}");
}

/// The bytes the flushes and merges of `db` wrote of string chunks, plain and
/// as written: `(plain, coded)`.
fn string_bytes(db: &Instance, partitions: usize) -> (u64, u64) {
    let snap = db.metrics_snapshot();
    let sum = |name: &str| (0..partitions).map(|n| snap.counter(&format!("node{n}.storage.lsm.{name}")).unwrap_or(0)).sum();
    (sum("string_bytes_plain"), sum("string_bytes_coded"))
}

/// Runs `ops`; returns [`string_bytes`] over the instances it opened.
fn run(partitions: usize, ops: &[Op]) -> (u64, u64) {
    let first = open(None, partitions);
    first.execute_sqlpp(DDL).unwrap();
    let mut txn = first.begin();
    for uid in 0..AUTHORS {
        let user = parse_value(&format!(r#"{{"uid": {uid}, "name": "u{uid}"}}"#)).unwrap();
        txn.write("U", &user, true).unwrap();
    }
    txn.commit().unwrap();
    // from here on the directory is this test's to remove
    let dir = Dir(first.crash());
    let mut db = open(Some(&dir), partitions);
    let mut closed: BTreeMap<i64, Value> = BTreeMap::new();
    let mut opened: BTreeMap<i64, Value> = BTreeMap::new();
    let mut strings = (0, 0);
    for op in ops {
        match op {
            Op::Upsert { key, a, g, s } => {
                let words = ["the signal", "love at&t", "café 日本"];
                let s = s.map(|s| format!(r#", "s": "s{s} {}""#, words[s as usize % 3])).unwrap_or_default();
                let c = parse_value(&format!(r#"{{"id": {key}, "a": {a}, "g": {g}{s}}}"#)).unwrap();
                let o = parse_value(&format!(
                    r#"{{"id": {key}, "a": {a}, "g": {g}{s}, "nest": {{"x": {}, "y": [{a}, "{g}"]}}}}"#,
                    key * 10
                ))
                .unwrap();
                let mut txn = db.begin();
                txn.write("C", &c, true).unwrap();
                txn.write("O", &o, true).unwrap();
                txn.commit().unwrap();
                closed.insert(*key, c);
                opened.insert(*key, o);
            }
            // DELETE reads its victims whole, through the key's access path
            Op::Delete { key } => {
                db.execute_sqlpp(&format!("DELETE FROM C m WHERE m.id = {key}")).unwrap();
                db.execute_sqlpp(&format!("DELETE FROM O m WHERE m.id = {key}")).unwrap();
                closed.remove(key);
                opened.remove(key);
            }
            Op::Flush => db.flush_all().unwrap(),
            Op::Restart => {
                let (plain, coded) = string_bytes(&db, partitions);
                strings = (strings.0 + plain, strings.1 + coded);
                db.crash();
                db = open(Some(&dir), partitions);
            }
            Op::Check { fields, bound, and_flushed } => {
                check(&db, "C", &closed, fields, *bound);
                check(&db, "O", &opened, fields, *bound);
                if *and_flushed {
                    db.flush_all().unwrap();
                    let merging = |db: &Instance| {
                        let snap = db.metrics_snapshot();
                        (0..partitions).any(|n| snap.gauge(&format!("node{n}.storage.lsm.merge_inflight")) != Some(0))
                    };
                    while merging(&db) {
                        std::thread::yield_now();
                    }
                    check(&db, "C", &closed, fields, *bound);
                    check(&db, "O", &opened, fields, *bound);
                }
            }
        }
    }
    // and once more at the end, whatever state that is
    check(&db, "C", &closed, &[1, 3], 2);
    check(&db, "O", &opened, &[4, 0], 2);
    let (plain, coded) = string_bytes(&db, partitions);
    (strings.0 + plain, strings.1 + coded)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn queries_cannot_tell_which_fields_a_scan_decoded(
        ops in proptest::collection::vec(arb_op(), 30..60),
        two_partitions in any::<bool>(),
    ) {
        run(if two_partitions { 2 } else { 1 }, &ops);
    }
}

/// Every state by name, whatever the random stream reaches: memory
/// components only, one flushed component, overwrites and deletes in memory
/// over it, merged components with a live memory component over them, and
/// all of it read back after a crash — the closed type's strings coded.
#[test]
fn pinned_states_memtable_flushed_merged_restarted() {
    let all = Op::Check { fields: vec![0, 3, 4], bound: 3, and_flushed: false };
    let mut ops = vec![];
    let upserts = |ops: &mut Vec<Op>, round: i64| {
        for key in (round..KEYS).step_by(2) {
            ops.push(Op::Upsert { key, a: (key + round) % AUTHORS, g: key % 4, s: (key % 3 != 0).then_some(key as u8) });
        }
    };
    upserts(&mut ops, 0);
    ops.push(all.clone()); // memtable
    ops.push(Op::Flush);
    ops.push(all.clone()); // flushed
    for key in (1..KEYS).step_by(5) {
        ops.push(Op::Upsert { key, a: (key + 1) % AUTHORS, g: (key + 1) % 4, s: None });
        ops.push(Op::Delete { key: key + 1 });
    }
    ops.push(all.clone()); // rows and delete markers in memory, over the flushed groups
    for round in 1..4 {
        upserts(&mut ops, round);
        ops.push(Op::Delete { key: round * 7 });
        ops.push(Op::Flush);
    }
    upserts(&mut ops, 4);
    ops.push(all.clone()); // merged, under a memtable
    ops.push(Op::Restart);
    ops.push(all); // restarted
    for partitions in [1, 2] {
        // the closed type's strings were coded in the groups read
        let (plain, coded) = run(partitions, &ops);
        assert!(coded < plain, "{coded} bytes of string chunks of {plain}");
    }
}
