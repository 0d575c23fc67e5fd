//! One aggregate, every route: the grouped sugar, the scalar sugar, either
//! of them with `Rule::LocalAggregation` disabled, and the `COLL_*`
//! functions that `GROUP AS` / AQL `with $v` aggregate through, all run the
//! one accumulator of `asterix_hyracks::ops::AggState`, so they give one
//! answer — and the plans they compile to have no operator that only repairs
//! a partial.

use asterix_adm::Value;
use asterix_core::instance::{Instance, InstanceConfig};
use asterix_core::Rule;

/// `D`: group 1 holds `1` and `"a"`, group 2 holds `i64::MAX` and `1`,
/// group 3 holds `1`, `null` and a record without `v`.
/// `disabled` is the one rule the instance skips, if any.
fn db(disabled: Option<Rule>) -> Instance {
    let db = Instance::open(InstanceConfig {
        nodes: 2,
        partitions: 3,
        disabled_rules: disabled.into_iter().collect(),
        ..Default::default()
    })
    .unwrap();
    db.execute_sqlpp(
        r#"CREATE TYPE T AS { id: int, g: int };
           CREATE DATASET D(T) PRIMARY KEY id;
           UPSERT INTO D ([
               {"id": 1, "g": 1, "v": 1}, {"id": 2, "g": 1, "v": "a"},
               {"id": 3, "g": 2, "v": 9223372036854775807}, {"id": 4, "g": 2, "v": 1},
               {"id": 5, "g": 3, "v": 1}, {"id": 6, "g": 3, "v": null}, {"id": 7, "g": 3}
           ]);"#,
    )
    .unwrap();
    db
}

/// `[sum, avg, count]` of group `g` on every route, each with the route's name.
fn routes(g: i64) -> Vec<(String, Value)> {
    let mut out = Vec::new();
    for disabled in [None, Some(Rule::LocalAggregation)] {
        let db = db(disabled);
        let off = disabled.map_or("none".into(), |rule| rule.to_string());
        let grouped = db
            .query(&format!(
                "SELECT VALUE [s, a, n] FROM (SELECT d.g AS g, SUM(d.v) AS s, AVG(d.v) AS a, \
                 COUNT(d.v) AS n FROM D d GROUP BY d.g) AS r WHERE r.g = {g}"
            ))
            .unwrap();
        out.push((format!("grouped, rule off: {off}"), grouped[0].clone()));
        let scalar = db
            .query(&format!(
                "SELECT VALUE [SUM(d.v), AVG(d.v), COUNT(d.v)] FROM D d WHERE d.g = {g}"
            ))
            .unwrap();
        out.push((format!("scalar, rule off: {off}"), scalar[0].clone()));
    }
    let db = db(None);
    let aql = db
        .query_aql(&format!(
            "for $d in dataset D let $v := $d.v where $d.g = {g} group by $g := $d.g with $v \
             return [coll_sum($v), coll_avg($v), coll_count($v)]"
        ))
        .unwrap();
    out.push(("AQL with $v".into(), aql[0].clone()));
    out
}

fn assert_every_route(g: i64, want: [Value; 3]) {
    let want = Value::Array(want.to_vec());
    for (route, got) in routes(g) {
        assert_eq!(got, want, "[sum, avg, count] of group {g} — {route}");
    }
}

#[test]
fn an_overflowing_sum_carries_on_as_a_double_on_every_route() {
    assert_every_route(
        2,
        [
            Value::Double(2f64.powi(63)),
            Value::Double(2f64.powi(62)),
            Value::Int(2),
        ],
    );
}

#[test]
fn a_non_numeric_input_makes_sum_and_avg_null_on_every_route() {
    assert_every_route(1, [Value::Null, Value::Null, Value::Int(2)]);
}

#[test]
fn unknowns_are_skipped_on_every_route() {
    assert_every_route(3, [Value::Int(1), Value::Double(1.0), Value::Int(1)]);
}

#[test]
fn coll_count_counts_what_count_counts_and_exists_still_means_has_any_item() {
    let db = db(None);
    let one = |sql: &str| db.query(sql).unwrap().remove(0);
    assert_eq!(one("SELECT VALUE coll_count([1, null, 'a'])"), Value::Int(2));
    assert_eq!(
        one("SELECT VALUE coll_sum([9223372036854775807, 1])"),
        Value::Double(2f64.powi(63))
    );
    assert_eq!(one("SELECT VALUE coll_avg([1, 'a'])"), Value::Null);
    assert_eq!(one("SELECT VALUE EXISTS [null]"), Value::Bool(true));
    assert_eq!(one("SELECT VALUE EXISTS []"), Value::Bool(false));
}

/// The operator labels of a job, sink last.
fn labels(db: &Instance, sql: &str) -> Vec<String> {
    fn walk(op: &asterix_obs::OperatorProfile, out: &mut Vec<String>) {
        for input in &op.inputs {
            walk(input, out);
        }
        out.push(op.label.clone());
    }
    let handle = db.session().submit(sql).unwrap();
    handle.wait().unwrap();
    let mut out = Vec::new();
    walk(&handle.profile().unwrap().root, &mut out);
    out
}

#[test]
fn an_aggregate_compiles_to_one_assign_and_the_stages_around_one_exchange() {
    const GROUPED: &str = "SELECT d.g, COUNT(*), SUM(d.v) FROM D d GROUP BY d.g";
    const SCALAR: &str = "SELECT VALUE COUNT(*) FROM D d";
    let split = db(None);
    assert_eq!(
        labels(&split, GROUPED),
        [
            "scan:D {g, v}", "group-input", "group-local", "group-global", "assign",
            "result-exprs", "result-project", "sink"
        ]
    );
    assert_eq!(
        labels(&split, SCALAR),
        [
            "scan:D", "agg-input", "agg-local", "agg-global", "assign", "result-exprs",
            "result-project", "sink"
        ]
    );
    // E13's rule governs both: without the split the one stage after the
    // exchange aggregates raw tuples
    let direct = db(Some(Rule::LocalAggregation));
    assert_eq!(
        labels(&direct, GROUPED),
        [
            "scan:D {g, v}", "group-input", "group-global", "assign", "result-exprs",
            "result-project", "sink"
        ]
    );
    assert_eq!(
        labels(&direct, SCALAR),
        ["scan:D", "agg-input", "agg-global", "assign", "result-exprs", "result-project", "sink"]
    );
}

/// A `GROUP BY` over flushed records moves its input in batches: the scan,
/// the assign that names the key and the local half of the aggregation hand
/// on columns, and a tuple is placed on its own only by the local and the
/// global groups — fewer of those than records scanned (2.6 times as many
/// before a scan yielded columns). The operators after the global half pass
/// its rows on as the batches they arrive in. What a profile counts stays in
/// rows.
#[test]
fn a_group_by_routes_fewer_tuples_one_at_a_time_than_it_scans_records() {
    const RECORDS: u64 = 6_000;
    let db = Instance::open(InstanceConfig { nodes: 1, partitions: 2, ..Default::default() }).unwrap();
    db.execute_sqlpp("CREATE TYPE T AS { id: int, g: int }; CREATE DATASET D(T) PRIMARY KEY id;").unwrap();
    for ids in (0..RECORDS).collect::<Vec<_>>().chunks(500) {
        let mut txn = db.begin();
        for id in ids {
            let record = Value::object(vec![("id".into(), Value::Int(*id as i64)), ("g".into(), Value::Int((id % 300) as i64))]);
            txn.write("D", &record, true).unwrap();
        }
        txn.commit().unwrap();
    }
    db.flush_all().unwrap();
    let before = db.metrics_snapshot();
    let handle = db.session().submit("SELECT d.g AS g, COUNT(*) AS n, SUM(d.id) AS s FROM D d GROUP BY d.g").unwrap();
    let rows = handle.wait().unwrap();
    assert_eq!(rows.len(), 300);
    assert!(rows.iter().all(|r| r.field("n") == &Value::Int(20)));
    let delta = db.metrics_snapshot().delta(&before);
    let counter = |name: &str| delta.counter(&format!("hyracks.dataflow.{name}")).unwrap_or(0);
    let profile = handle.profile().unwrap();
    let op = |label: &str| profile.root.find(label).unwrap_or_else(|| panic!("no operator {label}")).totals();
    let (scan, local) = (op("scan:D {g, id}"), op("group-local"));
    assert_eq!((scan.tuples_out, scan.frames_out), (RECORDS, 6), "rows counted as rows, a batch one frame");
    assert_eq!((local.tuples_in, local.frames_in), (RECORDS, 6));
    assert!(local.tuples_out <= 600, "a group per key and partition");
    let groups = rows.len() as u64;
    assert_eq!(
        counter("batch_rows"),
        2 * RECORDS + 3 * groups,
        "scan to assign, assign to the local groups; the three operators after the global half"
    );
    let moved = counter("tuples_moved");
    assert_eq!(moved, local.tuples_out + groups, "the local groups' rows and the global groups', each placed on its own");
    assert!(moved < RECORDS, "{moved} tuples routed one at a time for {RECORDS} records");
}
