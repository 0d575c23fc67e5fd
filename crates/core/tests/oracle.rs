//! The differential oracle: whichever access path, aggregation route,
//! partition count, typing mode, storage state or optimizer rule left out
//! answers a query, it answers what a reference written here computes from a
//! model of what was written.
//! The datasets, the op stream that writes them (upserts, deletes, flushes,
//! merges, crashes) and the model exist once here. Each property brings
//! only the checks it draws and its hand-written reference, which never
//! reads a plan, so it cannot share the front end's bugs:
//!
//! - predicates: trees of comparisons, `AND`, `OR`, `NOT` and `IS [NOT]
//!   NULL` against a brute-force evaluation;
//! - access paths: conjunctions on the primary key (single-field and
//!   composite) and on the indexed field, with int and double constants,
//!   against a naive filter — and a bound on a key or an index takes one;
//! - aggregates: six functions on the grouped, scalar and AQL `with $v`
//!   routes, against a fold;
//! - projection: queries that read a few fields (`SELECT m.f`, `WHERE`,
//!   `GROUP BY`, `ORDER BY`, joins) against what whole records give — and
//!   the scan is told exactly those fields.
//!
//! Every property runs in every storage state — rows in memory components,
//! flushed leaf groups, rows and delete markers in memory over them, merged,
//! crashed and reopened — at one partition and at several, with every rule
//! of the optimizer and with each one disabled in turn; from 24 cases on,
//! each of these at an odd and at an even partition count (`configuration`).

mod common;

use asterix_adm::compare::total_cmp;
use asterix_adm::parse::parse_value;
use asterix_adm::{Object, Value};
use asterix_core::instance::{Instance, InstanceConfig, Language};
use asterix_core::Rule;
use asterix_storage::lsm::MergePolicy;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::PathBuf;

/// Keys are `0..KEYS`; in `K` key `k` is `(org, id) = (k / 10, k % 10)`.
const KEYS: i64 = 40;
/// Values of `a`, the field every dataset indexes; `U` has a user for each.
const AUTHORS: i64 = 8;
/// Values of `g`, the field aggregates group by.
const GROUPS: i64 = 4;

/// `C` is closed, `O` declares only its key, `K` declares a composite key
/// and a few fields and leaves the rest open; each indexes `a`. Joins read
/// `U`.
const DDL: &str = r#"
    CREATE TYPE CT AS CLOSED { id: int, a: int, g: int, c: int?, s: string? };
    CREATE DATASET C(CT) PRIMARY KEY id;
    CREATE INDEX cByA ON C(a);
    CREATE TYPE OT AS { id: int };
    CREATE DATASET O(OT) PRIMARY KEY id;
    CREATE INDEX oByA ON O(a);
    CREATE TYPE KT AS { org: int, id: int, a: int, g: int };
    CREATE DATASET K(KT) PRIMARY KEY org, id;
    CREATE INDEX kByA ON K(a);
    CREATE TYPE UT AS { uid: int, name: string };
    CREATE DATASET U(UT) PRIMARY KEY uid;
    UPSERT INTO U ([{"uid": 0, "name": "u0"}, {"uid": 1, "name": "u1"}, {"uid": 2, "name": "u2"},
        {"uid": 3, "name": "u3"}, {"uid": 4, "name": "u4"}, {"uid": 5, "name": "u5"},
        {"uid": 6, "name": "u6"}, {"uid": 7, "name": "u7"}]);"#;

const DATASETS: [&str; 3] = ["C", "O", "K"];

/// The record `O` holds under `key`, the rest drawn from `k`: `c` is NULL
/// one time in seven, `s` absent one time in three, and `v` — what
/// aggregates read — may be a small integer, a half-integer (their sums are
/// exact and none equals an integer), NULL, absent, a string, or an integer
/// two of which leave `i64` whatever else is summed with them.
fn row(key: i64, a: i64, g: i64, k: i64) -> Value {
    let c = (k % 7 != 0).then(|| k.rem_euclid(3).to_string());
    let c = c.as_deref().unwrap_or("null");
    let words = ["the signal", "love at&t", "café 日本"];
    let s = format!(r#", "s": "s{k} {}""#, words[(k / 3).rem_euclid(3) as usize]);
    let s = if k % 3 == 0 { "" } else { &s };
    let nest = format!(r#""nest": {{"x": {}, "y": [{a}, "{g}"]}}"#, key * 10);
    let text = format!(r#"{{"id": {key}, "a": {a}, "g": {g}, "c": {c}{s}, {nest}}}"#);
    let mut record = parse_value(&text).unwrap();
    let v = match k.rem_euclid(24) {
        0 => Value::Null,
        1 => return record,
        2 => Value::from("a"),
        3 => Value::Int((1 << 62) + (1 << 40)),
        4..=10 => Value::Double(k as f64 + 0.5),
        _ => Value::Int(k),
    };
    record.as_object_mut().unwrap().set("v", v);
    record
}

/// What `dataset` holds of `row`, a record of `O`: `C` the fields its type
/// declares, `K` the key split in two and no `nest`.
fn stored(dataset: &str, row: &Value) -> Value {
    let id = int(row, "id");
    let key = match dataset {
        "C" => vec![("id", Value::Int(id))],
        "K" => vec![("org", Value::Int(id / 10)), ("id", Value::Int(id % 10))],
        _ => return row.clone(),
    };
    let rest = ["a", "g", "c", "s", "v"].map(|f| (f, row.field(f).clone()));
    let held = |(f, v): &(&str, Value)| !v.is_missing() && (dataset == "K" || *f != "v");
    Value::Object(Object::from_pairs(key.into_iter().chain(rest).filter(held)))
}

#[derive(Debug, Clone)]
enum Op {
    /// One transaction writing each record of `O` into every dataset.
    Upsert(Vec<Value>),
    /// `DELETE` of the key from every dataset: the victims are found through
    /// the key's access path.
    Delete(i64),
    Flush,
    /// A flush, and the merges it sets off, finished.
    FlushAndMerge,
    /// Crash and reopen: what was in memory components comes back from the
    /// log.
    Restart,
    Check(Check),
}

/// What a check asks; [`Check::verify`] holds each to its reference.
#[derive(Debug, Clone)]
enum Check {
    Predicate(Pred),
    /// A conjunction over `C`'s and `O`'s fields, and one over `K`'s.
    Path(Vec<Atom>, Vec<Atom>),
    /// Every route over `O` and `K`, and the scalar aggregate of the group
    /// given (which may be empty).
    Fold(i64),
    /// Queries over `C` and `O` naming these fields (indexes into
    /// [`FIELDS`]), filtering at the bound given.
    Fields(Vec<usize>, i64),
}

impl Check {
    /// `records` is what `dataset` holds, by the model; `db` runs without
    /// the rule `off`, if any.
    fn verify(&self, db: &Instance, dataset: &str, records: &[Value], off: Option<Rule>) {
        match self {
            Check::Predicate(pred) => check_predicate(db, dataset, records, pred),
            Check::Path(_, composite) if dataset == "K" => {
                check_path(db, dataset, records, composite, &["org", "a"], off)
            }
            Check::Path(single, _) => check_path(db, dataset, records, single, &["id", "a"], off),
            Check::Fold(g) if dataset != "C" => check_fold(db, dataset, records, *g),
            Check::Fields(fields, bound) if dataset != "K" => {
                check_fields(db, dataset, records, fields, *bound, off)
            }
            Check::Fold(_) | Check::Fields(..) => {}
        }
    }
}

/// Runs `default` op streams — `PROPTEST_CASES` of them when that is set, as
/// the nightly sets it — their checks drawn from `check`, case `i` as
/// `configuration(i)`. `PROPTEST_SEED` reseeds the streams.
fn property(name: &str, default: u32, check: BoxedStrategy<Check>) {
    let env = std::env::var("PROPTEST_CASES");
    let cases = env.ok().and_then(|s| s.parse().ok()).unwrap_or(default);
    let stream = arb_ops(check);
    let (mut rng, seed) = proptest::rng_for_test(name);
    for case in 0..cases as usize {
        let (partitions, off) = configuration(case);
        let rule = off.map_or("none".into(), |rule| rule.to_string());
        // shown only if the case fails
        eprintln!("{name} case {case}, seed {seed:#x}: {partitions} partitions, rule off: {rule}");
        run(partitions, off, &stream.generate(&mut rng));
    }
}

/// Case `i` runs on `i % 4 + 1` partitions without rule `(i + i / 10) % 10`
/// of none and the optimizer's nine. The first ten cases leave out each rule
/// once. The shift by one every ten cases keeps a rule's parity from
/// following the partition count's (4 and 10 are both even): from 24 cases
/// on, every rule, and none, is left out at an odd and at an even partition
/// count, and at 64 at each of the four (`every_configuration_is_reached`).
fn configuration(case: usize) -> (usize, Option<Rule>) {
    let axis: Vec<Option<Rule>> = std::iter::once(None).chain(Rule::all().map(Some)).collect();
    (case % 4 + 1, axis[(case + case / axis.len()) % axis.len()])
}

/// Whether a case that runs without `off` ran every rule of `rules`: a plan
/// assertion holds only where the rules it pins ran.
fn ran(off: Option<Rule>, rules: &[Rule]) -> bool {
    off.is_none_or(|off| !rules.contains(&off))
}

/// The data directory, removed when the run is over.
struct Dir(PathBuf);

impl Drop for Dir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

/// Runs `ops` without the rule `off`, if any, each check against the model;
/// returns the bytes of string chunks that the flushes and merges of the
/// instances it opened wrote, `(plain, coded)`.
fn run(partitions: usize, off: Option<Rule>, ops: &[Op]) -> (i128, i128) {
    let mut config = InstanceConfig {
        nodes: partitions.min(2),
        partitions,
        disabled_rules: off.into_iter().collect(),
        ..Default::default()
    };
    // every third flush merges, so reads cross memory, fresh and merged
    // components
    config.storage.merge_policy = MergePolicy::Constant { max_components: 2 };
    let first = Instance::open(config.clone()).unwrap();
    first.execute_sqlpp(DDL).unwrap();
    // from here on the directory is this run's to remove
    let dir = Dir(first.crash());
    config.data_dir = Some(dir.0.clone());
    let mut db = Instance::open(config.clone()).unwrap();
    let mut model: BTreeMap<i64, Value> = BTreeMap::new();
    let mut strings = (0, 0);
    let mut count_strings = |db: &Instance| {
        strings.0 += common::over_nodes(db, ".string_bytes_plain");
        strings.1 += common::over_nodes(db, ".string_bytes_coded");
    };
    // whether the datasets were read whole since what they store last changed
    let mut dumped = false;
    for op in ops {
        dumped &= matches!(op, Op::Check(_));
        match op {
            Op::Upsert(rows) => {
                let mut txn = db.begin();
                for row in rows {
                    for dataset in DATASETS {
                        txn.write(dataset, &stored(dataset, row), true).unwrap();
                    }
                    model.insert(int(row, "id"), row.clone());
                }
                txn.commit().unwrap();
            }
            Op::Delete(key) => {
                let (org, id) = (key / 10, key % 10);
                let delete = |sql: String| db.execute_sqlpp(&sql).unwrap();
                delete(format!("DELETE FROM C m WHERE m.id = {key}"));
                delete(format!("DELETE FROM O m WHERE m.id = {key}"));
                delete(format!(
                    "DELETE FROM K m WHERE m.org = {org} AND m.id = {id}.0"
                ));
                model.remove(key);
            }
            Op::Flush => db.flush_all().unwrap(),
            Op::FlushAndMerge => {
                db.flush_all().unwrap();
                common::settle(&db);
            }
            Op::Restart => {
                count_strings(&db);
                db.crash();
                db = Instance::open(config.clone()).unwrap();
            }
            Op::Check(check) => {
                for dataset in DATASETS {
                    let records: Vec<Value> = model.values().map(|r| stored(dataset, r)).collect();
                    // whole records, against the model, are what the rest is
                    // computed from
                    if !dumped {
                        let dump = query(&db, &format!("SELECT VALUE m FROM {dataset} m"));
                        assert_eq!(sorted(dump), sorted(records.clone()), "{dataset} dump");
                    }
                    check.verify(&db, dataset, &records, off);
                }
                dumped = true;
            }
        }
    }
    count_strings(&db);
    strings
}

/// The op stream every property shares, its checks drawn from `check`; a
/// check is now and then asked again once a flush and its merge have moved
/// what the memory components held into column chunks.
fn arb_ops(check: BoxedStrategy<Check>) -> impl Strategy<Value = Vec<Op>> {
    let parts = (0..KEYS, 0..AUTHORS, 0..GROUPS, -1_000..1_000i64);
    let rows = prop::collection::vec(parts.prop_map(|(key, a, g, k)| row(key, a, g, k)), 1..=3);
    let upsert = rows.prop_map(|rows| vec![Op::Upsert(rows)]);
    let again = |c: Check| vec![Op::Check(c.clone()), Op::FlushAndMerge, Op::Check(c)];
    let step = prop_oneof![
        upsert.clone(),
        upsert.clone(),
        upsert,
        (0..KEYS).prop_map(|key| vec![Op::Delete(key)]),
        Just(vec![Op::Flush]),
        Just(vec![Op::Restart]),
        check.clone().prop_map(|c| vec![Op::Check(c)]),
        check.prop_map(again),
    ];
    prop::collection::vec(step, 16..32).prop_map(|steps| steps.concat())
}

fn query(db: &Instance, sql: &str) -> Vec<Value> {
    db.query(sql).unwrap_or_else(|e| panic!("{sql}: {e}"))
}

fn sorted(mut rows: Vec<Value>) -> Vec<Value> {
    rows.sort_by(total_cmp);
    rows
}

fn int(record: &Value, field: &str) -> i64 {
    record.field(field).as_i64().expect("int field")
}

/// `{name: record.name, …}` as a SELECT builds it: a MISSING field is left out.
fn pick(record: &Value, names: &[&str]) -> Value {
    let fields = names.iter().map(|n| (*n, record.field(n).clone()));
    Value::Object(Object::from_pairs(fields.filter(|(_, v)| !v.is_missing())))
}

/// That `sql` answers the bag of `shape` over the `records` that `keep`
/// holds of.
fn expect<K, S>(db: &Instance, sql: &str, records: &[Value], keep: K, shape: S)
where
    K: Fn(&Value) -> bool,
    S: Fn(&Value) -> Value,
{
    let want = records.iter().filter(|r| keep(r)).map(shape).collect();
    assert_eq!(sorted(query(db, sql)), sorted(want), "{sql}");
}

/// `t.<field> <op> <constant>`; the constant is `halves / 2`, written as an
/// int (`7`) when `as_double` is unset and it is whole, else as a double
/// (`7.0`, `7.5`).
#[derive(Debug, Clone, Copy)]
struct Atom {
    field: &'static str,
    /// One of [`OPS`].
    op: &'static str,
    halves: i64,
    as_double: bool,
}

/// The comparisons, `=` twice as likely to be drawn as any other.
const OPS: [&str; 7] = ["=", "=", "<", "<=", ">", ">=", "!="];

fn atom(field: &'static str, op: &'static str, halves: i64, as_double: bool) -> Atom {
    Atom {
        field,
        op,
        halves,
        as_double,
    }
}

impl Atom {
    fn sql(&self) -> String {
        let constant = if self.as_double || self.halves % 2 != 0 {
            format!("{:?}", self.halves as f64 / 2.0)
        } else {
            (self.halves / 2).to_string()
        };
        format!("t.{} {} {constant}", self.field, self.op)
    }

    fn eval(&self, record: &Value) -> bool {
        let (l, r) = (int(record, self.field) as f64, self.halves as f64 / 2.0);
        match self.op {
            "=" => l == r,
            "<" => l < r,
            "<=" => l <= r,
            ">" => l > r,
            ">=" => l >= r,
            _ => l != r,
        }
    }
}

/// An atom on `field`, constants over `-1..=max + 1` in halves: below,
/// inside, between and above the stored values.
fn arb_atom(field: &'static str, max: i64) -> impl Strategy<Value = Atom> {
    let parts = (0..OPS.len(), -2..=2 * max + 2, any::<bool>());
    parts.prop_map(move |(op, halves, as_double)| atom(field, OPS[op], halves, as_double))
}

// Predicates: a WHERE tree against brute force.

#[derive(Debug, Clone)]
enum Pred {
    Atom(Atom),
    /// `t.c IS [NOT] NULL`.
    Null(bool),
    And(Box<Pred>, Box<Pred>),
    Or(Box<Pred>, Box<Pred>),
    Not(Box<Pred>),
}

fn arb_pred() -> impl Strategy<Value = Pred> {
    let atom = prop_oneof![
        arb_atom("id", KEYS).prop_map(Pred::Atom),
        arb_atom("a", AUTHORS).prop_map(Pred::Atom),
        arb_atom("g", GROUPS).prop_map(Pred::Atom),
        any::<bool>().prop_map(Pred::Null),
    ];
    atom.prop_recursive(3, 12, 2, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Pred::And(Box::new(l), Box::new(r))),
            (inner.clone(), inner.clone()).prop_map(|(l, r)| Pred::Or(Box::new(l), Box::new(r))),
            inner.prop_map(|p| Pred::Not(Box::new(p))),
        ]
    })
}

fn to_sql(p: &Pred) -> String {
    match p {
        Pred::Atom(atom) => format!("({})", atom.sql()),
        Pred::Null(neg) => format!("(t.c IS {}NULL)", if *neg { "NOT " } else { "" }),
        Pred::And(l, r) => format!("({} AND {})", to_sql(l), to_sql(r)),
        Pred::Or(l, r) => format!("({} OR {})", to_sql(l), to_sql(r)),
        Pred::Not(inner) => format!("(NOT {})", to_sql(inner)),
    }
}

/// The predicate over `record` (only `IS NULL` touches `c`, the one field
/// that may be NULL, so everything stays two-valued).
fn eval(p: &Pred, record: &Value) -> bool {
    match p {
        Pred::Atom(atom) => atom.eval(record),
        Pred::Null(neg) => record.field("c").is_null() != *neg,
        Pred::And(l, r) => eval(l, record) && eval(r, record),
        Pred::Or(l, r) => eval(l, record) || eval(r, record),
        Pred::Not(inner) => !eval(inner, record),
    }
}

/// The keys the query selects, against those of the records the predicate
/// holds of; the scan is told the fields the two read.
fn check_predicate(db: &Instance, dataset: &str, records: &[Value], pred: &Pred) {
    let keys: &[&str] = if dataset == "K" {
        &["org", "id"]
    } else {
        &["id"]
    };
    let select: Vec<String> = keys.iter().map(|k| format!("t.{k} AS {k}")).collect();
    let (select, filter) = (select.join(", "), to_sql(pred));
    let sql = format!("SELECT {select} FROM {dataset} t WHERE {filter}");
    expect(db, &sql, records, |r| eval(pred, r), |r| pick(r, keys));
}

// Access paths: a conjunction on keys and the index against a naive filter.

fn arb_conjunction(fields: [(&'static str, i64); 3]) -> impl Strategy<Value = Vec<Atom>> {
    let [(f0, m0), (f1, m1), (f2, m2)] = fields;
    // the leading key field twice as often: it is what the primary paths
    // bind
    let atom = prop_oneof![
        arb_atom(f0, m0),
        arb_atom(f0, m0),
        arb_atom(f1, m1),
        arb_atom(f2, m2)
    ];
    prop::collection::vec(atom, 1..=3)
}

/// The query through whatever access path the optimizer picks, reading
/// records whole and as two columns, against a naive filter.
fn check_path(
    db: &Instance,
    dataset: &str,
    records: &[Value],
    pred: &[Atom],
    indexed: &[&str],
    off: Option<Rule>,
) {
    let conjuncts: Vec<String> = pred.iter().map(Atom::sql).collect();
    let filter = conjuncts.join(" AND ");
    let hit = |r: &Value| pred.iter().all(|atom| atom.eval(r));
    let sql = format!("SELECT VALUE t FROM {dataset} t WHERE {filter}");
    expect(db, &sql, records, hit, Value::clone);
    let sql = format!("SELECT t.id AS id, t.g AS g FROM {dataset} t WHERE {filter}");
    expect(db, &sql, records, hit, |r| pick(r, &["id", "g"]));
    // not vacuous: a bound on the leading key field or the indexed field
    // always yields an access path — when the conjuncts were merged into the
    // one select the rule reads
    let bounds = |atom: &Atom| atom.op != "!=" && indexed.contains(&atom.field);
    if ran(off, &[Rule::IntroduceIndexPaths, Rule::MergeSelects]) && pred.iter().any(bounds) {
        let plan = db.explain(&sql, Language::Sqlpp).unwrap();
        assert!(plan.contains("index-scan"), "{sql}\n{plan}");
    }
}

// Aggregates: every route against a fold.

const FUNCS: [&str; 6] = ["count_star", "count", "sum", "min", "max", "avg"];

/// The reference: `func` over `bag` (an absent field is `MISSING`).
fn reference(func: &str, bag: &[Value]) -> Value {
    let known: Vec<&Value> = bag.iter().filter(|v| !v.is_unknown()).collect();
    let numbers: Option<Vec<f64>> = known.iter().map(|v| v.as_f64()).collect();
    let best = |pick: fn(&&Value, &&Value) -> std::cmp::Ordering| {
        known
            .iter()
            .copied()
            .min_by(pick)
            .cloned()
            .unwrap_or(Value::Null)
    };
    match (func, numbers) {
        ("count_star", _) => Value::Int(bag.len() as i64),
        ("count", _) => Value::Int(known.len() as i64),
        ("min", _) => best(|a, b| total_cmp(a, b)),
        ("max", _) => best(|a, b| total_cmp(b, a)),
        // a sum of integers is an integer while it fits
        ("sum", Some(ns)) if !ns.is_empty() => known
            .iter()
            .map(|v| {
                if let Value::Int(i) = v {
                    Some(i128::from(*i))
                } else {
                    None
                }
            })
            .sum::<Option<i128>>()
            .and_then(|exact| i64::try_from(exact).ok())
            .map_or(Value::Double(ns.iter().sum()), Value::Int),
        ("avg", Some(ns)) if !ns.is_empty() => {
            Value::Double(ns.iter().sum::<f64>() / ns.len() as f64)
        }
        // over no values, or over one that is not a number
        _ => Value::Null,
    }
}

/// Equal, a `Double` to within the rounding of a sum taken in another order.
fn same(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Double(x), Value::Double(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
        _ => a == b,
    }
}

/// Checks rows of `[g, answers…]`, the answers those of `funcs`, against the
/// reference over each group's bag.
fn check_rows(route: &str, rows: &[Value], funcs: &[&str], bags: &BTreeMap<i64, Vec<Value>>) {
    for row in rows {
        let row = row.as_collection().unwrap();
        let bag = &bags[&row[0].as_i64().unwrap()];
        for (func, got) in funcs.iter().zip(&row[1..]) {
            let want = reference(func, bag);
            assert!(
                same(got, &want),
                "{route}: {func} over {bag:?} is {got:?}, not {want:?}"
            );
        }
    }
}

fn check_fold(db: &Instance, dataset: &str, records: &[Value], g: i64) {
    let mut bags: BTreeMap<i64, Vec<Value>> = (0..=GROUPS).map(|g| (g, Vec::new())).collect();
    for r in records {
        let v = r.field("v").clone();
        bags.entry(int(r, "g")).or_default().push(v);
    }
    let route = |kind: &str| format!("{dataset}, {kind}");
    const SUGAR: &str = "COUNT(*), COUNT(d.v), SUM(d.v), MIN(d.v), MAX(d.v), AVG(d.v)";
    let sql = format!("SELECT VALUE [d.g, {SUGAR}] FROM {dataset} d GROUP BY d.g");
    let grouped = query(db, &sql);
    let groups = bags.values().filter(|b| !b.is_empty()).count();
    assert_eq!(grouped.len(), groups, "{sql}");
    check_rows(&route("grouped"), &grouped, &FUNCS, &bags);
    // a scalar aggregate answers for an empty input too
    let sql = format!("SELECT VALUE [{g}, {SUGAR}] FROM {dataset} d WHERE d.g = {g}");
    let scalar = query(db, &sql);
    assert_eq!(scalar.len(), 1, "{sql}");
    check_rows(&route("scalar"), &scalar, &FUNCS, &bags);
    let aql = format!(
        "for $d in dataset {dataset} let $v := $d.v group by $g := $d.g with $v return \
         [$g, coll_count($v), coll_sum($v), coll_min($v), coll_max($v), coll_avg($v)]"
    );
    let collected = db.query_aql(&aql).unwrap();
    assert_eq!(collected.len(), groups, "{aql}");
    check_rows(&route("AQL with $v"), &collected, &FUNCS[1..], &bags);
}

// Projection: queries reading a few fields against whole records.

/// What a query may name: declared fields of the closed type, fields the
/// open type leaves to its open part (one of them an object), an optional
/// field that is absent from some records, and a name no record has.
const FIELDS: [&str; 6] = ["id", "a", "g", "s", "nest", "nope"];

fn check_fields(
    db: &Instance,
    dataset: &str,
    records: &[Value],
    fields: &[usize],
    bound: i64,
    off: Option<Rule>,
) {
    let mut names: Vec<&str> = fields.iter().map(|f| FIELDS[*f]).collect();
    names.dedup();
    let select: Vec<String> = names.iter().map(|n| format!("m.{n}")).collect();
    let select = select.join(", ");
    let picked = |r: &Value| pick(r, &names);

    let sql = format!("SELECT {select} FROM {dataset} m");
    expect(db, &sql, records, |_| true, picked);
    // not vacuous: the scan was told those fields and no others
    if ran(off, &[Rule::PushFieldAccess]) {
        let told: BTreeSet<&str> = names.iter().copied().collect();
        let plan = db.explain(&sql, Language::Sqlpp).unwrap();
        let scan = format!("scan {dataset} {{{}}} -> ", Vec::from_iter(told).join(", "));
        assert!(plan.contains(&scan), "{sql}\n{plan}");
    }

    // a path of its own into the open part's object
    let sql = format!("SELECT VALUE m.nest.x FROM {dataset} m WHERE m.g >= 2");
    let x = |r: &Value| r.field("nest").field("x").clone();
    expect(db, &sql, records, |r| int(r, "g") >= 2, x);

    // filters the fields of which are read by nothing else: a full scan, the
    // secondary index on `a`, a primary-key range
    for (field, path) in [("g", "scan "), ("a", "index-scan "), ("id", "index-scan ")] {
        let sql = format!("SELECT {select} FROM {dataset} m WHERE m.{field} >= {bound}");
        expect(db, &sql, records, |r| int(r, field) >= bound, picked);
        if path == "scan " || ran(off, &[Rule::IntroduceIndexPaths]) {
            let plan = db.explain(&sql, Language::Sqlpp).unwrap();
            let source = plan.lines().last().unwrap().trim_start();
            assert!(source.starts_with(path), "{sql}\n{plan}");
        }
    }

    let mut groups: BTreeMap<i64, (i64, i64)> = BTreeMap::new();
    for r in records {
        let group = groups.entry(int(r, "g")).or_default();
        *group = (group.0 + 1, group.1 + int(r, "a"));
    }
    let sql =
        format!("SELECT m.g AS g, COUNT(*) AS c, SUM(m.a) AS s FROM {dataset} m GROUP BY m.g");
    let want = groups
        .iter()
        .map(|(g, (c, s))| format!(r#"{{"g": {g}, "c": {c}, "s": {s}}}"#));
    let want = want.map(|text| parse_value(&text).unwrap()).collect();
    assert_eq!(sorted(query(db, &sql)), sorted(want), "{sql}");

    // ordered, so compared in order; `id` breaks the ties
    let sql = format!("SELECT {select} FROM {dataset} m ORDER BY m.g DESC, m.id LIMIT 7");
    let mut ordered: Vec<&Value> = records.iter().collect();
    ordered.sort_by_key(|r| (-int(r, "g"), int(r, "id")));
    let want: Vec<Value> = ordered.into_iter().take(7).map(picked).collect();
    assert_eq!(query(db, &sql), want, "{sql}");

    // a join reading one field of each side, and one handing a side up whole
    let sql = format!("SELECT m.id AS id, u.name AS name FROM {dataset} m, U u WHERE m.a = u.uid");
    let pair = |r: &Value| format!(r#"{{"id": {}, "name": "u{}"}}"#, int(r, "id"), int(r, "a"));
    let named = |r: &Value| parse_value(&pair(r)).unwrap();
    expect(db, &sql, records, |_| true, named);
    let sql =
        format!("SELECT u.uid AS uid, m AS m FROM {dataset} m, U u WHERE m.a = u.uid AND m.g = 1");
    let user = |r: &Value| ("uid".to_string(), r.field("a").clone());
    let with_user = |r: &Value| Value::object(vec![user(r), ("m".into(), r.clone())]);
    expect(db, &sql, records, |r| int(r, "g") == 1, with_user);
}

// The properties: each a check generator over the one op stream.

#[test]
fn random_predicates_match_brute_force() {
    let check = arb_pred().prop_map(Check::Predicate);
    property("random_predicates_match_brute_force", 48, check);
}

#[test]
fn access_paths_answer_like_a_naive_filter() {
    let single = arb_conjunction([("id", KEYS), ("a", AUTHORS), ("g", GROUPS)]);
    let composite = arb_conjunction([("org", KEYS / 10), ("id", 10), ("a", AUTHORS)]);
    let check = (single, composite).prop_map(|(single, composite)| Check::Path(single, composite));
    property("access_paths_answer_like_a_naive_filter", 24, check);
}

#[test]
fn every_route_answers_like_the_fold() {
    let check = (0..=GROUPS).prop_map(Check::Fold);
    property("every_route_answers_like_the_fold", 64, check);
}

#[test]
fn queries_cannot_tell_which_fields_a_scan_decoded() {
    let fields = prop::collection::vec(0..FIELDS.len(), 1..=3);
    let check = (fields, 0..AUTHORS).prop_map(|(fields, bound)| Check::Fields(fields, bound));
    property("queries_cannot_tell_which_fields_a_scan_decoded", 16, check);
}

/// The properties' case counts reach the configurations `configuration`
/// promises.
#[test]
fn every_configuration_is_reached() {
    let reached = |cases: usize, key: fn(usize) -> usize| {
        let reached: BTreeSet<_> = (0..cases)
            .map(configuration)
            .map(|(p, off)| (key(p), off))
            .collect();
        let keys = (1..=4).map(key).collect::<BTreeSet<_>>().len();
        reached.len() == keys * (Rule::all().count() + 1)
    };
    let parity: fn(usize) -> usize = |p| p % 2;
    let partitions: fn(usize) -> usize = |p| p;
    assert!(
        reached(10, |_| 0),
        "ten cases leave out each rule, and none"
    );
    assert!(
        reached(24, parity),
        "24 cases cross each with both parities"
    );
    assert!(
        reached(64, partitions),
        "64 cases cross each with every count"
    );
}

/// Every state by name, whatever the random stream reaches, each property's
/// checks in each: memory components only, one flushed component,
/// overwrites and deletes in memory over it, merged components with a live
/// memory component over them, and all of it read back after a crash — the
/// closed type's strings coded.
#[test]
fn pinned_states_memtable_flushed_merged_restarted() {
    let a = Pred::Atom(atom("a", ">=", 6, false));
    let a_or_null = Pred::Or(Box::new(a), Box::new(Pred::Null(false)));
    let single = vec![atom("id", ">=", 20, false), atom("a", "<=", 10, false)];
    let checks = [
        Check::Predicate(Pred::Not(Box::new(a_or_null))),
        Check::Path(single, vec![atom("org", "=", 2, false)]),
        Check::Fold(1),
        Check::Fields(vec![0, 3, 4], 3),
    ];
    let checks = checks.map(Op::Check);
    let upserts = |round: i64| {
        let keys = (round..KEYS).step_by(2);
        let rows = keys.map(|key| row(key, (key + round) % AUTHORS, key % GROUPS, key));
        Op::Upsert(rows.collect())
    };
    let mut ops = vec![upserts(0)];
    ops.extend(checks.clone()); // memtable
    ops.push(Op::Flush);
    ops.extend(checks.clone()); // flushed
    for key in (1..KEYS).step_by(5) {
        // no `s`: a cell the flushed groups have is absent from rows over them
        let overwrite = row(key, (key + 1) % AUTHORS, (key + 1) % GROUPS, 3 * key);
        ops.extend([Op::Upsert(vec![overwrite]), Op::Delete(key + 1)]);
    }
    ops.extend(checks.clone()); // rows and delete markers in memory, over the flushed groups
    for round in 1..4 {
        ops.extend([upserts(round), Op::Delete(round * 7), Op::Flush]);
    }
    ops.push(upserts(4));
    ops.extend(checks.clone()); // merged, under a memtable
    ops.push(Op::Restart);
    ops.extend(checks); // restarted
    for (partitions, off) in [(1, None), (2, Some(Rule::LocalAggregation))] {
        // the closed type's strings were coded in the groups read
        let (plain, coded) = run(partitions, off, &ops);
        assert!(coded < plain, "{coded} bytes of string chunks of {plain}");
    }
}

/// The shapes the random stream reaches only now and then, pinned: a point
/// get on a key that was deleted, overwritten, never written, or asked for as
/// a double, before and after the flush that moves it to disk.
#[test]
fn pinned_point_gets_across_deletes_overwrites_and_flushes() {
    let mut probes = vec![];
    for key in [7, 8, 9, KEYS] {
        for double in [false, true] {
            let org = atom("org", "=", 2 * (key / 10), double);
            let id = atom("id", "=", 2 * (key % 10), double);
            let single = vec![atom("id", "=", 2 * key, double)];
            probes.push(Op::Check(Check::Path(single, vec![org, id])));
        }
    }
    // 7.5: between two keys
    let (id, org) = (atom("id", "=", 15, false), atom("org", "=", 1, false));
    probes.push(Op::Check(Check::Path(vec![id], vec![org])));
    let all = (0..KEYS).map(|key| row(key, key % AUTHORS, key % GROUPS, key));
    let mut ops = vec![Op::Upsert(all.collect())];
    ops.extend(probes.clone());
    ops.extend([Op::Flush, Op::Delete(7), Op::Upsert(vec![row(8, 1, 0, 8)])]);
    ops.extend(probes.clone());
    ops.push(Op::Flush);
    ops.extend(probes.clone());
    // a third component: merges
    ops.extend([Op::Upsert(vec![row(7, 2, 0, 7)]), Op::Flush]);
    ops.extend(probes);
    for partitions in [1, 3] {
        run(partitions, None, &ops);
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
    // a bound on the key of `C` and `O`, and a tenth of it on `K`'s `org`
    let key = |op, k: i64| [("id", 2 * k), ("org", k / 5)].map(|(f, h)| atom(f, op, h, false));
    let both = |field, op, value: i64| [atom(field, op, 2 * value, false); 2];
    let checks = [
        vec![key(">=", 1_000), key("<", 1_100)],
        vec![key(">=", 1_020), key("<=", 1_030)],
        vec![key(">", 2_047)],
        vec![key("<", 1_024), both("g", "=", 1)],
        vec![both("a", "=", 1)],
        vec![both("g", ">=", 0)],
    ];
    let checks = checks.map(|pairs| {
        let (single, composite) = pairs.into_iter().map(|[s, c]| (s, c)).unzip();
        Op::Check(Check::Path(single, composite))
    });
    let write = |ops: &mut Vec<Op>, ids: Vec<i64>, g: i64| {
        let rows: Vec<Value> = ids.iter().map(|&id| row(id, id % 2, g, id)).collect();
        ops.extend(rows.chunks(200).map(|chunk| Op::Upsert(chunk.to_vec())));
    };
    let mut ops = vec![];
    write(&mut ops, (0..N).collect(), 0);
    ops.push(Op::FlushAndMerge);
    ops.extend(checks.clone()); // flushed

    write(&mut ops, (0..N).step_by(7).collect(), 1);
    write(&mut ops, vec![-3, N + 4], 1);
    ops.extend((3..N).step_by(11).map(Op::Delete));
    ops.extend(checks.clone()); // rows over chunks

    ops.push(Op::FlushAndMerge);
    ops.extend(checks); // merged
    run(1, None, &ops);
}
