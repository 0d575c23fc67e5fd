//! Bounded memory through the operator contract: a blocking operator
//! consumes as it is fed, so by the time its *last input frame is gathered*
//! — before end-of-input — all of its input but that frame and the part its
//! budget lets it keep has already left memory for spill runs. (The executor used
//! to stage the whole input first and hand it to the algorithm at
//! end-of-input, when this counter would still read zero.)

use asterix_adm::{ColumnBatch, Value};
use asterix_hyracks::ctx::{spill_batch, RuntimeCtx};
use asterix_hyracks::job::{cmp_tuples, AggFunc, AggSpec, JoinKind, Produced, SortKey};
use asterix_hyracks::ops::drive;
use asterix_hyracks::{OpKind, Result, Tuple};
use std::cell::Cell;
use std::sync::Arc;

const MEMORY: usize = 64 << 10;
const ROWS: i64 = 20_000;

/// All-distinct keys in a scattered order, ~100 bytes a tuple: `ROWS` of
/// them are well over 16x `MEMORY`.
fn rows() -> Vec<Tuple> {
    (0..ROWS)
        .map(|i| {
            let k = (i * 7919) % ROWS;
            vec![Value::Int(k), Value::from(format!("payload-{k:012}-{}", "x".repeat(40)))]
        })
        .collect()
}

/// What `tuples` take in a spill run — the unit `spilled_bytes` counts in.
fn run_bytes(tuples: &[Tuple]) -> u64 {
    let ctx = RuntimeCtx::temp().unwrap();
    spill_batch(&ctx, &mut Default::default(), tuples).unwrap().bytes()
}

/// `tuples` as an input that, when the operator's frame asks for a tuple
/// past the last one, records what has been spilled so far.
fn watched<'a>(
    tuples: Vec<Tuple>,
    ctx: &'a Arc<RuntimeCtx>,
    spilled_at_end: &'a Cell<u64>,
) -> Box<dyn Iterator<Item = Result<Tuple>> + 'a> {
    Box::new(tuples.into_iter().map(Ok).chain(std::iter::from_fn(move || {
        spilled_at_end.set(ctx.stats.spilled_bytes.get());
        None
    })))
}

fn assert_spilled_as_fed(kind: OpKind, expect_rows: usize) {
    let ctx = RuntimeCtx::temp().unwrap();
    let input = rows();
    let input_bytes = run_bytes(&input);
    assert!(input_bytes >= 16 * MEMORY as u64, "input is {input_bytes} bytes");
    let spilled = Cell::new(0);
    let out = drive(&kind, vec![watched(input, &ctx, &spilled)], &ctx).unwrap();
    assert_eq!(out.tuples.len(), expect_rows);
    assert!(
        spilled.get() >= input_bytes - 2 * MEMORY as u64,
        "{}: {} of {input_bytes} input bytes spilled when the last frame was gathered",
        kind.name(),
        spilled.get()
    );
}

#[test]
fn sort_spills_as_it_is_fed() {
    assert_spilled_as_fed(OpKind::Sort { keys: vec![SortKey::asc(0)], memory: MEMORY }, ROWS as usize);
}

#[test]
fn group_by_spills_as_it_is_fed() {
    let kind = OpKind::GroupBy { key_cols: vec![0], aggs: vec![AggSpec::complete(AggFunc::CountStar, 0)], memory: MEMORY };
    assert_spilled_as_fed(kind, ROWS as usize);
}

#[test]
fn distinct_spills_as_it_is_fed() {
    assert_spilled_as_fed(OpKind::Distinct { cols: None, memory: MEMORY }, ROWS as usize);
}

#[test]
fn hash_join_spills_both_sides_as_they_are_fed() {
    let ctx = RuntimeCtx::temp().unwrap();
    let (build, probe) = (rows(), rows());
    let build_bytes = run_bytes(&build);
    assert!(build_bytes >= 16 * MEMORY as u64, "build side is {build_bytes} bytes");
    let input_bytes = build_bytes + run_bytes(&probe);
    let kind = OpKind::HashJoin {
        left_keys: vec![0],
        right_keys: vec![0],
        kind: JoinKind::Inner,
        right_arity: 2,
        memory: MEMORY,
    };
    // The build side (port 1) is fed first; the probe side is the last input.
    let (after_build, after_probe) = (Cell::new(0), Cell::new(0));
    let inputs = vec![watched(probe, &ctx, &after_probe), watched(build, &ctx, &after_build)];
    let out = drive(&kind, inputs, &ctx).unwrap();
    assert_eq!(out.tuples.len(), ROWS as usize, "every probe tuple matches one build tuple");
    assert!(
        after_build.get() >= build_bytes - 2 * MEMORY as u64,
        "{} of {build_bytes} build bytes spilled when the build side ended",
        after_build.get()
    );
    assert!(
        after_probe.get() >= input_bytes - 2 * MEMORY as u64,
        "{} of {input_bytes} input bytes spilled when the last frame was gathered",
        after_probe.get()
    );
}

/// `tuples` as batches of up to 1 000 rows, a column per field.
fn batched(tuples: &[Tuple]) -> Vec<Produced> {
    let batch = |rows: &[Tuple]| {
        let columns = (0..rows[0].len()).map(|c| {
            let mut column = asterix_adm::Column::new();
            rows.iter().for_each(|t| column.push_value(t[c].clone()));
            column
        });
        Produced::Batch(ColumnBatch::new(columns.collect(), rows.len()).unwrap())
    };
    tuples.chunks(1_000).map(batch).collect()
}

/// A group-by on an integer column finds a batch row's group from the `i64`
/// where it lies; what it admits, what it spills and what it answers must be
/// what it does when the same rows arrive as tuples.
#[test]
fn a_group_by_fed_batches_spills_and_answers_as_when_fed_tuples() {
    let kind = OpKind::GroupBy {
        key_cols: vec![0],
        aggs: vec![AggSpec::complete(AggFunc::CountStar, 0), AggSpec::complete(AggFunc::Max, 1)],
        memory: MEMORY,
    };
    // every key twice, the second time among keys not met yet
    let input: Vec<Tuple> = rows().into_iter().chain(rows().into_iter().rev()).collect();
    let as_tuples = RuntimeCtx::temp().unwrap();
    let mut want = drive(&kind, vec![Box::new(input.clone().into_iter().map(Ok))], &as_tuples).unwrap();
    let as_batches = RuntimeCtx::temp().unwrap();
    let mut got = drive(&kind, vec![Box::new(batched(&input).into_iter().map(Ok))], &as_batches).unwrap();
    assert!(want.metrics.spill_runs > 0, "the budget is a small part of the input");
    assert_eq!(
        (got.metrics.spill_runs, got.metrics.spilled_bytes, got.metrics.grace_fanout),
        (want.metrics.spill_runs, want.metrics.spilled_bytes, want.metrics.grace_fanout),
        "the same rows left memory"
    );
    for out in [&mut want.tuples, &mut got.tuples] {
        out.sort_by(|a, b| cmp_tuples(a, b, &[SortKey::asc(0)]));
    }
    assert_eq!(got.tuples.len(), ROWS as usize);
    assert_eq!(got.tuples, want.tuples);
    assert!(got.tuples.iter().all(|t| t[1] == Value::Int(2)));
}

/// `2` in a batch's integer column and `2.0` in a tuple are one key, in
/// whichever order they arrive; a key that is no integer takes the row path
/// out of a batch too.
#[test]
fn an_integer_in_a_batch_and_the_double_equal_to_it_are_one_group() {
    let kind = OpKind::GroupBy { key_cols: vec![0], aggs: vec![AggSpec::complete(AggFunc::CountStar, 0)], memory: 1 << 20 };
    let ints = |keys: &[i64]| batched(&keys.iter().map(|k| vec![Value::Int(*k)]).collect::<Vec<_>>()).remove(0);
    let mixed = batched(&[vec![Value::Int(2)], vec![Value::from("two")], vec![Value::Double(2.5)], vec![Value::Null]]).remove(0);
    let input = vec![
        Produced::Tuple(vec![Value::Double(2.0)]),
        ints(&[2, 3, 2]),
        Produced::Tuple(vec![Value::Double(3.0)]),
        Produced::Tuple(vec![Value::from("two")]),
        mixed,
        Produced::Tuple(vec![Value::Int(3)]),
    ];
    let ctx = RuntimeCtx::temp().unwrap();
    let mut out = drive(&kind, vec![Box::new(input.into_iter().map(Ok))], &ctx).unwrap().tuples;
    out.sort_by(|a, b| cmp_tuples(a, b, &[SortKey::asc(0)]));
    let counts: Vec<(Value, Value)> = out.into_iter().map(|mut t| (t.remove(0), t.remove(0))).collect();
    assert_eq!(
        counts,
        [
            (Value::Null, Value::Int(1)),
            (Value::Double(2.0), Value::Int(4)),
            (Value::Double(2.5), Value::Int(1)),
            (Value::Int(3), Value::Int(3)),
            (Value::from("two"), Value::Int(2)),
        ],
        "a group keeps the key it was first met under"
    );
}
