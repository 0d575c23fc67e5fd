//! Differential check for aggregates (a slice of ROADMAP item 5's oracle):
//! random bags of integers, doubles, NULLs, absent fields and strings in
//! random groups, aggregated by each of the six functions on every route —
//! grouped sugar, scalar sugar, both again without the local/global split,
//! one partition against four, records still rows in the memory component
//! against flushed and merged into column chunks against rows *over* chunks
//! (every record an overwrite, in memory, of a flushed one with another group
//! and value, beside delete markers for flushed records that are gone), and
//! AQL's `with $v` through the `COLL_*` functions — must all give the answer
//! of a fold over the bag written here.

use asterix_adm::compare::total_cmp;
use asterix_adm::Value;
use asterix_core::dataset::StorageConfig;
use asterix_core::instance::{Instance, InstanceConfig};
use asterix_storage::lsm::MergePolicy;
use proptest::prelude::*;
use std::collections::BTreeMap;

const GROUPS: i64 = 4;
const FUNCS: [&str; 6] = ["count_star", "count", "sum", "min", "max", "avg"];

/// The reference: `func` over `bag` (an absent field is `MISSING`).
fn reference(func: &str, bag: &[Value]) -> Value {
    let known: Vec<&Value> = bag.iter().filter(|v| !v.is_unknown()).collect();
    let numbers: Option<Vec<f64>> = known.iter().map(|v| v.as_f64()).collect();
    let best = |pick: fn(&&Value, &&Value) -> std::cmp::Ordering| {
        known.iter().copied().min_by(pick).cloned().unwrap_or(Value::Null)
    };
    match (func, numbers) {
        ("count_star", _) => Value::Int(bag.len() as i64),
        ("count", _) => Value::Int(known.len() as i64),
        ("min", _) => best(|a, b| total_cmp(a, b)),
        ("max", _) => best(|a, b| total_cmp(b, a)),
        // a sum of integers is an integer while it fits
        ("sum", Some(ns)) if !ns.is_empty() => known
            .iter()
            .map(|v| if let Value::Int(i) = v { Some(i128::from(*i)) } else { None })
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

/// What a `v` field may hold, `MISSING` standing for a record without one:
/// small integers, half-integers (their sums are exact and none equals an
/// integer), the unknowns, a string, and an integer two of which leave `i64`
/// whatever else is summed with them.
fn arb_value() -> impl Strategy<Value = Value> {
    (0u8..24, -1_000i64..1_000).prop_map(|(kind, k)| match kind {
        0 => Value::Null,
        1 => Value::Missing,
        2 => Value::from("a"),
        3 => Value::Int((1 << 62) + (1 << 40)),
        4..=10 => Value::Double(k as f64 + 0.5),
        _ => Value::Int(k),
    })
}

/// Where the records a query reads are held.
#[derive(Debug, Clone, Copy, PartialEq)]
enum Held {
    /// In the memory components.
    Rows,
    /// Flushed in two halves that are then merged: column chunks (`v`, which
    /// the type does not declare, out of the rest).
    Chunks,
    /// In the memory components, over a flushed component that holds, under
    /// the same keys, records of another group and value — and a few more
    /// that delete markers in memory hide.
    RowsOverChunks,
}

/// The rows in `D`, held as `held` says.
fn load(rows: &[(i64, Value)], partitions: usize, local_aggregation: bool, held: Held) -> Instance {
    let db = Instance::open(InstanceConfig {
        nodes: partitions.min(2),
        partitions,
        local_aggregation,
        storage: StorageConfig { merge_policy: MergePolicy::Constant { max_components: 1 }, ..Default::default() },
        ..Default::default()
    })
    .unwrap();
    db.execute_sqlpp("CREATE TYPE T AS { id: int, g: int }; CREATE DATASET D(T) PRIMARY KEY id;")
        .unwrap();
    let records: Vec<Value> = rows
        .iter()
        .enumerate()
        .map(|(id, (g, v))| {
            let mut fields = vec![("id".into(), Value::Int(id as i64)), ("g".into(), Value::Int(*g))];
            if *v != Value::Missing {
                fields.push(("v".into(), v.clone()));
            }
            Value::object(fields)
        })
        .collect();
    if held == Held::RowsOverChunks {
        let mut txn = db.begin();
        for id in 0..rows.len() as i64 + 3 {
            let stale = Value::object(vec![("id".into(), Value::Int(id)), ("g".into(), Value::Int((id + 1) % GROUPS)), ("v".into(), Value::Int(77))]);
            txn.write("D", &stale, true).unwrap();
        }
        txn.commit().unwrap();
        db.flush_all().unwrap();
        let mut txn = db.begin();
        for id in rows.len() as i64..rows.len() as i64 + 3 {
            txn.delete("D", &asterix_adm::binary::encode_key(&[Value::Int(id)])).unwrap();
        }
        txn.commit().unwrap();
    }
    for half in records.chunks(records.len().div_ceil(2).max(1)) {
        let mut txn = db.begin();
        for record in half {
            txn.write("D", record, true).unwrap();
        }
        txn.commit().unwrap();
        if held == Held::Chunks {
            db.flush_all().unwrap();
        }
    }
    let merging = |db: &Instance| {
        let snap = db.metrics_snapshot();
        (0..partitions.min(2)).any(|n| snap.gauge(&format!("node{n}.storage.lsm.merge_inflight")) != Some(0))
    };
    while merging(&db) {
        std::thread::yield_now();
    }
    db
}

/// Checks rows of `[g, answers…]`, the answers those of `funcs`, against the
/// reference over each group's bag.
fn check(route: &str, rows: &[Value], funcs: &[&str], bags: &BTreeMap<i64, Vec<Value>>) {
    for row in rows {
        let row = row.as_collection().unwrap();
        let bag = &bags[&row[0].as_i64().unwrap()];
        for (func, got) in funcs.iter().zip(&row[1..]) {
            let want = reference(func, bag);
            assert!(same(got, &want), "{route}: {func} over {bag:?} is {got:?}, not {want:?}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn every_route_answers_like_the_fold(
        rows in prop::collection::vec((0..GROUPS, arb_value()), 0..60),
    ) {
        let mut bags: BTreeMap<i64, Vec<Value>> = (0..GROUPS).map(|g| (g, Vec::new())).collect();
        for (g, v) in &rows {
            bags.get_mut(g).unwrap().push(v.clone());
        }
        const SUGAR: &str = "COUNT(*), COUNT(d.v), SUM(d.v), MIN(d.v), MAX(d.v), AVG(d.v)";
        let routes = [
            (4, true, Held::Rows),
            (4, false, Held::Chunks),
            (1, true, Held::Chunks),
            (1, false, Held::Rows),
            (1, true, Held::RowsOverChunks),
            (4, true, Held::RowsOverChunks),
        ];
        for (partitions, local, held) in routes {
            let db = load(&rows, partitions, local, held);
            let route = |kind: &str| format!("{kind}, {partitions} partitions, local={local}, {held:?}");
            let grouped = db
                .query(&format!("SELECT VALUE [d.g, {SUGAR}] FROM D d GROUP BY d.g"))
                .unwrap();
            prop_assert_eq!(grouped.len(), bags.values().filter(|b| !b.is_empty()).count());
            check(&route("grouped"), &grouped, &FUNCS, &bags);
            // a scalar aggregate answers for an empty input too
            for g in 0..GROUPS {
                let scalar = db
                    .query(&format!("SELECT VALUE [{g}, {SUGAR}] FROM D d WHERE d.g = {g}"))
                    .unwrap();
                prop_assert_eq!(scalar.len(), 1);
                check(&route("scalar"), &scalar, &FUNCS, &bags);
            }
            let collected = db
                .query_aql(
                    "for $d in dataset D let $v := $d.v group by $g := $d.g with $v return \
                     [$g, coll_count($v), coll_sum($v), coll_min($v), coll_max($v), coll_avg($v)]",
                )
                .unwrap();
            prop_assert_eq!(collected.len(), grouped.len());
            check(&route("AQL with $v"), &collected, &FUNCS[1..], &bags);
        }
    }
}
