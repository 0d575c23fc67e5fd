//! Bounded memory through the operator contract: a blocking operator
//! consumes as it is fed, so by the time its *last input tuple has been
//! pushed* — before end-of-input — all of its input but the part its budget
//! lets it keep has already left memory for spill runs. (The executor used
//! to stage the whole input first and hand it to the algorithm at
//! end-of-input, when this counter would still read zero.)

use asterix_adm::Value;
use asterix_hyracks::ctx::{spill_batch, RuntimeCtx};
use asterix_hyracks::job::{AggFunc, AggSpec, JoinKind, SortKey};
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

/// `tuples` as an input that, when the operator asks for a tuple past the
/// last one, records what has been spilled so far.
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
        "{}: {} of {input_bytes} input bytes spilled when the last tuple had been pushed",
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
        "{} of {input_bytes} input bytes spilled when the last tuple had been pushed",
        after_probe.get()
    );
}
