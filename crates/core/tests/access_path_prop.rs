//! Differential property test for the keyed access paths: random predicates
//! on the primary key (single-field and composite) and on a secondary-indexed
//! field, interleaved with upserts, deletes, flushes and the merges they
//! trigger. Whatever path the optimizer picks — point get with partition
//! pruning, key range, bounded secondary probe — the answer must bag-equal a
//! naive filter over a full dump taken at the same moment; and, for every
//! other query, once more after a flush and the merge it sets off have moved
//! what was rows in a memory component into column chunks.

use asterix_adm::compare::total_cmp;
use asterix_adm::Value;
use asterix_core::dataset::StorageConfig;
use asterix_core::instance::{Instance, InstanceConfig, Language};
use asterix_storage::lsm::MergePolicy;
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Keys are `0..KEYS`; in the composite dataset key `k` is `(k / 10, k % 10)`.
const KEYS: i64 = 40;
/// Values of the secondary-indexed field `a`.
const AUTHORS: i64 = 8;

#[derive(Debug, Clone, Copy)]
enum CmpOp {
    Eq,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    fn sql(self) -> &'static str {
        match self {
            CmpOp::Eq => "=",
            CmpOp::Lt => "<",
            CmpOp::Le => "<=",
            CmpOp::Gt => ">",
            CmpOp::Ge => ">=",
        }
    }

    fn eval(self, l: f64, r: f64) -> bool {
        match self {
            CmpOp::Eq => l == r,
            CmpOp::Lt => l < r,
            CmpOp::Le => l <= r,
            CmpOp::Gt => l > r,
            CmpOp::Ge => l >= r,
        }
    }
}

/// `t.<field> <op> <constant>`; the constant is `halves / 2`, written as an
/// int (`7`) when `as_double` is unset and it is whole, else as a double
/// (`7.0`, `7.5`).
#[derive(Debug, Clone)]
struct Atom {
    field: &'static str,
    op: CmpOp,
    halves: i64,
    as_double: bool,
}

impl Atom {
    fn sql(&self) -> String {
        let constant = if self.as_double || self.halves % 2 != 0 {
            format!("{:?}", self.halves as f64 / 2.0)
        } else {
            (self.halves / 2).to_string()
        };
        format!("t.{} {} {constant}", self.field, self.op.sql())
    }

    fn eval(&self, record: &Value) -> bool {
        let field = record.field(self.field).as_i64().expect("int field") as f64;
        self.op.eval(field, self.halves as f64 / 2.0)
    }
}

#[derive(Debug, Clone)]
enum Op {
    Upsert { key: i64, a: i64 },
    Delete { key: i64 },
    Flush,
    /// A conjunction over the single-key dataset's fields, and one over the
    /// composite-key dataset's; asked again once everything is on disk, if
    /// `and_flushed`.
    Query { single: Vec<Atom>, composite: Vec<Atom>, and_flushed: bool },
}

fn arb_cmp() -> impl Strategy<Value = CmpOp> {
    prop_oneof![
        Just(CmpOp::Eq),
        Just(CmpOp::Eq),
        Just(CmpOp::Lt),
        Just(CmpOp::Le),
        Just(CmpOp::Gt),
        Just(CmpOp::Ge),
    ]
}

/// An atom on `field`, constants over `-1..=max + 1` in halves: below,
/// inside, between and above the stored values.
fn arb_atom(field: &'static str, max: i64) -> impl Strategy<Value = Atom> {
    (arb_cmp(), -2..=2 * max + 2, any::<bool>())
        .prop_map(move |(op, halves, as_double)| Atom { field, op, halves, as_double })
}

fn arb_conjunction(fields: [(&'static str, i64); 3]) -> impl Strategy<Value = Vec<Atom>> {
    let [(f0, m0), (f1, m1), (f2, m2)] = fields;
    proptest::collection::vec(
        // the leading key field twice as often: it is what the primary
        // paths bind
        prop_oneof![arb_atom(f0, m0), arb_atom(f0, m0), arb_atom(f1, m1), arb_atom(f2, m2)],
        1..=3,
    )
}

fn arb_op() -> impl Strategy<Value = Op> {
    let query = (
        arb_conjunction([("id", KEYS), ("a", AUTHORS), ("v", 3)]),
        arb_conjunction([("org", KEYS / 10), ("id", 10), ("a", AUTHORS)]),
        any::<bool>(),
    )
        .prop_map(|(single, composite, and_flushed)| Op::Query { single, composite, and_flushed });
    prop_oneof![
        (0..KEYS, 0..AUTHORS).prop_map(|(key, a)| Op::Upsert { key, a }),
        (0..KEYS, 0..AUTHORS).prop_map(|(key, a)| Op::Upsert { key, a }),
        (0..KEYS).prop_map(|key| Op::Delete { key }),
        Just(Op::Flush),
        query.clone(),
        query.clone(),
        query,
    ]
}

fn open(partitions: usize) -> Instance {
    let db = Instance::open(InstanceConfig {
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
    .unwrap();
    db.execute_sqlpp(
        "CREATE TYPE ST AS { id: int, a: int, v: int };
         CREATE DATASET S(ST) PRIMARY KEY id;
         CREATE INDEX sByA ON S(a);
         CREATE TYPE CT AS { org: int, id: int, a: int };
         CREATE DATASET C(CT) PRIMARY KEY org, id;
         CREATE INDEX cByA ON C(a);",
    )
    .unwrap();
    db
}

fn sorted(mut rows: Vec<Value>) -> Vec<Value> {
    rows.sort_by(total_cmp);
    rows
}

/// The query through whatever access path the optimizer picks against a
/// naive filter over the dump; the dump against the model.
fn check(db: &Instance, dataset: &str, model: &BTreeMap<i64, Value>, pred: &[Atom], indexed: &[&str]) {
    let dump = db.query(&format!("SELECT VALUE t FROM {dataset} t")).unwrap();
    assert_eq!(sorted(dump.clone()), sorted(model.values().cloned().collect()), "{dataset} dump");
    let conjuncts: Vec<String> = pred.iter().map(Atom::sql).collect();
    let sql = format!("SELECT VALUE t FROM {dataset} t WHERE {}", conjuncts.join(" AND "));
    let want: Vec<Value> =
        dump.into_iter().filter(|r| pred.iter().all(|atom| atom.eval(r))).collect();
    let got = db.query(&sql).unwrap();
    assert_eq!(sorted(got), sorted(want), "{sql}");
    // not vacuous: a bound on the leading key field or the indexed field
    // always yields an access path
    if pred.iter().any(|atom| indexed.contains(&atom.field)) {
        let plan = db.explain(&sql, Language::Sqlpp).unwrap();
        assert!(plan.contains("index-scan"), "{sql}\n{plan}");
    }
}

/// Everything buffered goes to disk, and the merges that sets off finish.
fn flush_and_merge(db: &Instance, nodes: usize) {
    db.flush_all().unwrap();
    let merging = || {
        let snap = db.metrics_snapshot();
        (0..nodes).any(|n| snap.gauge(&format!("node{n}.storage.lsm.merge_inflight")) != Some(0))
    };
    while merging() {
        std::thread::yield_now();
    }
}

fn run(partitions: usize, ops: &[Op]) {
    let db = open(partitions);
    let mut single: BTreeMap<i64, Value> = BTreeMap::new();
    let mut composite: BTreeMap<i64, Value> = BTreeMap::new();
    for (step, op) in ops.iter().enumerate() {
        match op {
            Op::Upsert { key, a } => {
                let v = step as i64 % 3;
                let s = asterix_adm::parse::parse_value(&format!(
                    r#"{{"id": {key}, "a": {a}, "v": {v}}}"#
                ))
                .unwrap();
                let c = asterix_adm::parse::parse_value(&format!(
                    r#"{{"org": {}, "id": {}, "a": {a}}}"#,
                    key / 10,
                    key % 10
                ))
                .unwrap();
                let mut txn = db.begin();
                txn.write("S", &s, true).unwrap();
                txn.write("C", &c, true).unwrap();
                txn.commit().unwrap();
                single.insert(*key, s);
                composite.insert(*key, c);
            }
            // DELETE finds its victims through the same access paths
            Op::Delete { key } => {
                db.execute_sqlpp(&format!("DELETE FROM S t WHERE t.id = {key}")).unwrap();
                db.execute_sqlpp(&format!(
                    "DELETE FROM C t WHERE t.org = {} AND t.id = {}.0",
                    key / 10,
                    key % 10
                ))
                .unwrap();
                single.remove(key);
                composite.remove(key);
            }
            Op::Flush => db.flush_all().unwrap(),
            Op::Query { single: s, composite: c, and_flushed } => {
                check(&db, "S", &single, s, &["id", "a"]);
                check(&db, "C", &composite, c, &["org", "a"]);
                if *and_flushed {
                    flush_and_merge(&db, partitions);
                    check(&db, "S", &single, s, &["id", "a"]);
                    check(&db, "C", &composite, c, &["org", "a"]);
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn access_paths_answer_like_a_naive_filter(
        ops in proptest::collection::vec(arb_op(), 30..60),
        three_partitions in any::<bool>(),
    ) {
        run(if three_partitions { 3 } else { 1 }, &ops);
    }
}

/// The shapes the random stream reaches only now and then, pinned: a point
/// get on a key that was deleted, overwritten, never written, or asked for as
/// a double, before and after the flush that moves it to disk.
#[test]
fn pinned_point_gets_across_deletes_overwrites_and_flushes() {
    for partitions in [1, 3] {
        let mut ops = vec![];
        for key in 0..KEYS {
            ops.push(Op::Upsert { key, a: key % AUTHORS });
        }
        let eq = |field, halves, as_double| Atom { field, op: CmpOp::Eq, halves, as_double };
        let probes = |ops: &mut Vec<Op>| {
            for key in [7, 8, 9, KEYS] {
                for as_double in [false, true] {
                    ops.push(Op::Query {
                        single: vec![eq("id", 2 * key, as_double)],
                        composite: vec![
                            eq("org", 2 * (key / 10), as_double),
                            eq("id", 2 * (key % 10), as_double),
                        ],
                        and_flushed: false,
                    });
                }
            }
            ops.push(Op::Query {
                single: vec![eq("id", 15, false)], // 7.5: between two keys
                composite: vec![eq("org", 1, false)],
                and_flushed: false,
            });
        };
        probes(&mut ops);
        ops.push(Op::Flush);
        ops.push(Op::Delete { key: 7 });
        ops.push(Op::Upsert { key: 8, a: 1 });
        probes(&mut ops);
        ops.push(Op::Flush);
        probes(&mut ops);
        ops.push(Op::Upsert { key: 7, a: 2 });
        ops.push(Op::Flush); // third component: merges
        probes(&mut ops);
        run(partitions, &ops);
    }
}

/// More records than a batch or a leaf group holds (1 024 either): primary
/// ranges that begin, end and straddle where a group ends, a secondary probe
/// that fetches more keys than a batch takes, and a full scan — read whole
/// and as columns — while everything is in flushed groups, with overwrites
/// and delete markers in memory over them, and after those are flushed and
/// merged in.
#[test]
fn pinned_reads_across_batch_and_group_boundaries() {
    const N: i64 = 2_600;
    let db = open(1);
    let mut model: BTreeMap<i64, Value> = BTreeMap::new();
    let write = |model: &mut BTreeMap<i64, Value>, ids: &mut dyn Iterator<Item = i64>, v: i64| {
        let ids: Vec<i64> = ids.collect();
        for chunk in ids.chunks(200) {
            let mut txn = db.begin();
            for id in chunk {
                let record =
                    asterix_adm::parse::parse_value(&format!(r#"{{"id": {id}, "a": {}, "v": {v}}}"#, id % 2)).unwrap();
                txn.write("S", &record, true).unwrap();
                model.insert(*id, record);
            }
            txn.commit().unwrap();
        }
    };
    let atom = |field, op, value: i64| Atom { field, op, halves: 2 * value, as_double: false };
    let preds = [
        vec![atom("id", CmpOp::Ge, 1_000), atom("id", CmpOp::Lt, 1_100)],
        vec![atom("id", CmpOp::Ge, 1_020), atom("id", CmpOp::Le, 1_030)],
        vec![atom("id", CmpOp::Gt, 2_047)],
        vec![atom("id", CmpOp::Lt, 1_024), atom("v", CmpOp::Eq, 1)],
        vec![atom("a", CmpOp::Eq, 1)],
        vec![atom("v", CmpOp::Ge, 0)],
    ];
    let check_all = |model: &BTreeMap<i64, Value>, state: &str| {
        for pred in &preds {
            check(&db, "S", model, pred, &["id", "a"]);
            let conjuncts: Vec<String> = pred.iter().map(Atom::sql).collect();
            let sql = format!("SELECT t.id AS id, t.v AS v FROM S t WHERE {}", conjuncts.join(" AND "));
            let want: Vec<Value> = model
                .values()
                .filter(|r| pred.iter().all(|atom| atom.eval(r)))
                .map(|r| Value::object(vec![("id".into(), r.field("id").clone()), ("v".into(), r.field("v").clone())]))
                .collect();
            assert_eq!(sorted(db.query(&sql).unwrap()), sorted(want), "{state}: {sql}");
        }
    };
    write(&mut model, &mut (0..N), 0);
    flush_and_merge(&db, 1);
    check_all(&model, "flushed");

    write(&mut model, &mut (0..N).step_by(7), 1);
    write(&mut model, &mut [-3, N + 4].into_iter(), 1);
    let mut txn = db.begin();
    for id in (3..N).step_by(11) {
        txn.delete("S", &asterix_adm::binary::encode_key(&[Value::Int(id)])).unwrap();
        model.remove(&id);
    }
    txn.commit().unwrap();
    check_all(&model, "rows over chunks");

    flush_and_merge(&db, 1);
    check_all(&model, "merged");
}
