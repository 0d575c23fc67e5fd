//! Property-based tests for the dataflow operators: external sort, hybrid
//! hash join, grouped aggregation, and distinct match their naïve models.
//! Each operator runs through [`drive`] — the loop the executor runs, fed
//! from iterators — once at an absurdly small memory budget and once at one
//! nothing can exceed, and the two runs must agree with the model and with
//! each other.

use asterix_adm::compare::{adm_eq, total_cmp};
use asterix_adm::Value;
use asterix_hyracks::ctx::RuntimeCtx;
use asterix_hyracks::job::{AggFunc, AggSpec, JoinKind, SortKey};
use asterix_hyracks::ops::drive;
use asterix_hyracks::{OpKind, Tuple};
use proptest::prelude::*;
use std::collections::BTreeMap;

const HUGE: usize = 1 << 30;

type Input = Box<dyn Iterator<Item = asterix_hyracks::Result<Tuple>>>;

fn tuples(rows: &[(i64, i64)]) -> Input {
    let rows = rows.to_vec();
    Box::new(
        rows.into_iter()
            .map(|(a, b)| Ok(vec![Value::Int(a), Value::Int(b), Value::String(format!("p{a}"))])),
    )
}

/// Runs `kind(memory)` over `inputs` at the tiny and the huge budget;
/// returns both outputs, reduced to their two leading integer columns.
fn at_both_budgets(
    kind: impl Fn(usize) -> OpKind,
    inputs: impl Fn() -> Vec<Input>,
    tiny: usize,
) -> [Vec<Vec<i64>>; 2] {
    [tiny, HUGE].map(|memory| {
        let ctx = RuntimeCtx::temp().unwrap();
        let out = drive(&kind(memory), inputs(), &ctx).unwrap();
        if memory == HUGE {
            assert_eq!(out.metrics.spill_runs, 0, "nothing spills at the huge budget");
        }
        out.tuples
            .iter()
            .map(|t| t.iter().filter_map(Value::as_i64).collect())
            .collect()
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    #[test]
    fn sort_matches_model(
        rows in prop::collection::vec((-50i64..50, -50i64..50), 0..300),
        tiny in 256usize..4_096,
    ) {
        let [small, big] = at_both_budgets(
            |memory| OpKind::Sort { keys: vec![SortKey::asc(0), SortKey::desc(1)], memory },
            || vec![tuples(&rows)],
            tiny,
        );
        let mut model = rows.clone();
        model.sort_by(|x, y| x.0.cmp(&y.0).then(y.1.cmp(&x.1)));
        let model: Vec<Vec<i64>> = model.into_iter().map(|(a, b)| vec![a, b]).collect();
        prop_assert_eq!(&small, &model);
        prop_assert_eq!(&big, &model);
    }

    #[test]
    fn join_matches_model(
        left in prop::collection::vec((-10i64..10, 0i64..100), 0..120),
        right in prop::collection::vec((-10i64..10, 0i64..100), 0..120),
        tiny in 128usize..2_048,
        outer in any::<bool>(),
    ) {
        let kind = if outer { JoinKind::LeftOuter } else { JoinKind::Inner };
        let [mut small, mut big] = at_both_budgets(
            |memory| OpKind::HashJoin {
                left_keys: vec![0],
                right_keys: vec![0],
                kind,
                right_arity: 3,
                memory,
            },
            || vec![tuples(&left), tuples(&right)],
            tiny,
        );
        // output rows are [l.key, l.val, r.key, r.val]; an unmatched outer
        // row keeps only its left half
        let mut model: Vec<Vec<i64>> = Vec::new();
        for (k, v) in &left {
            let matches: Vec<_> = right.iter().filter(|(rk, _)| rk == k).collect();
            for (rk, rv) in &matches {
                model.push(vec![*k, *v, *rk, *rv]);
            }
            if outer && matches.is_empty() {
                model.push(vec![*k, *v]);
            }
        }
        model.sort();
        small.sort();
        big.sort();
        prop_assert_eq!(&small, &model);
        prop_assert_eq!(&big, &model);
    }

    #[test]
    fn group_by_matches_model(
        rows in prop::collection::vec((-8i64..8, -100i64..100), 0..300),
        tiny in 128usize..1_024,
    ) {
        let [mut small, mut big] = at_both_budgets(
            |memory| OpKind::GroupBy {
                key_cols: vec![0],
                aggs: vec![AggSpec::complete(AggFunc::CountStar, 0), AggSpec::complete(AggFunc::Sum, 1)],
                memory,
            },
            || vec![tuples(&rows)],
            tiny,
        );
        let mut want: BTreeMap<i64, (i64, i64)> = BTreeMap::new(); // key -> (count, sum)
        for (k, v) in &rows {
            let e = want.entry(*k).or_insert((0, 0));
            e.0 += 1;
            e.1 += v;
        }
        let model: Vec<Vec<i64>> = want.into_iter().map(|(k, (c, s))| vec![k, c, s]).collect();
        small.sort();
        big.sort();
        prop_assert_eq!(&small, &model);
        prop_assert_eq!(&big, &model);
    }

    #[test]
    fn distinct_matches_model(
        rows in prop::collection::vec((-12i64..12, -3i64..3), 0..300),
        tiny in 128usize..1_024,
    ) {
        let [mut small, mut big] = at_both_budgets(
            |memory| OpKind::Distinct { cols: None, memory },
            || vec![tuples(&rows)],
            tiny,
        );
        let mut set = rows.clone();
        set.sort();
        set.dedup();
        let model: Vec<Vec<i64>> = set.into_iter().map(|(a, b)| vec![a, b]).collect();
        small.sort();
        big.sort();
        prop_assert_eq!(&small, &model);
        prop_assert_eq!(&big, &model);
    }

    #[test]
    fn sort_then_streams_are_mergeable(
        a in prop::collection::vec(-100i64..100, 0..100),
        b in prop::collection::vec(-100i64..100, 0..100),
    ) {
        use asterix_hyracks::ops::sort::KWayMerge;
        let mut sa: Vec<i64> = a.clone();
        sa.sort();
        let mut sb: Vec<i64> = b.clone();
        sb.sort();
        let streams = vec![
            sa.iter().map(|i| Ok(vec![Value::Int(*i)])).collect::<Vec<_>>().into_iter(),
            sb.iter().map(|i| Ok(vec![Value::Int(*i)])).collect::<Vec<_>>().into_iter(),
        ];
        let merged: Vec<Value> = KWayMerge::new(streams, vec![SortKey::asc(0)])
            .map(|r| r.unwrap().pop().unwrap())
            .collect();
        let mut want: Vec<i64> = a.iter().chain(b.iter()).copied().collect();
        want.sort();
        prop_assert_eq!(merged.len(), want.len());
        for (m, w) in merged.iter().zip(want.iter()) {
            prop_assert!(adm_eq(m, &Value::Int(*w)));
            prop_assert_eq!(total_cmp(m, &Value::Int(*w)), std::cmp::Ordering::Equal);
        }
    }
}
