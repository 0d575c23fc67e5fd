//! Deterministic-clock profile test: runs a hand-built scan → hash-join →
//! group-by plan (the e01 shape) under a frozen [`ManualClock`] and asserts
//! the assembled profile tree's per-operator tuple counts *exactly* —
//! including the skewed per-partition counts of the probe scan — and that
//! every timing field is exactly zero (a frozen clock never advances, so any
//! nonzero duration would mean a wall-clock leaked into the instrumentation).

use asterix_adm::Value;
use asterix_hyracks::exec::run_job;
use asterix_hyracks::job::{AggFunc, AggSpec, FnSource, JoinKind, OpKind};
use asterix_hyracks::{ConnStrategy, JobSpec, RuntimeCtx, Tuple};
use asterix_obs::{ManualClock, OperatorProfile};
use std::sync::Arc;

/// Probe side: partition 0 emits 60 tuples, partition 1 emits 40 (skewed),
/// keys cycling 0..10 so every tuple joins and groups.
const SKEWED: [i64; 2] = [60, 40];

fn skewed_probe() -> OpKind {
    OpKind::Source(Arc::new(FnSource(move |p: usize| {
        let n = SKEWED[p];
        Ok(Box::new((0..n).map(move |i| Ok(vec![Value::Int(i % 10), Value::Int(i)])))
            as Box<dyn Iterator<Item = asterix_hyracks::Result<Tuple>> + Send>)
    })))
}

/// Build side: one tuple per key 0..10, split 5/5 over two partitions.
fn build_side() -> OpKind {
    OpKind::Source(Arc::new(FnSource(move |p: usize| {
        let base = p as i64 * 5;
        Ok(Box::new((0..5).map(move |i| {
            let k = base + i;
            Ok(vec![Value::Int(k), Value::from(format!("b{k}"))])
        }))
            as Box<dyn Iterator<Item = asterix_hyracks::Result<Tuple>> + Send>)
    })))
}

fn all_timings_zero(node: &OperatorProfile) -> bool {
    node.partitions.iter().all(|m| m.queue_wait_ns == 0 && m.compute_ns == 0)
        && node.inputs.iter().all(all_timings_zero)
}

#[test]
fn profile_counts_are_exact_under_a_frozen_clock() {
    let mut j = JobSpec::new();
    let probe = j.add(skewed_probe(), 2, "probe");
    let build = j.add(build_side(), 2, "build");
    let join = j.add(
        OpKind::HashJoin {
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Inner,
            right_arity: 2,
            memory: 1 << 20,
        },
        2,
        "join",
    );
    let group = j.add(
        OpKind::GroupBy { key_cols: vec![0], aggs: vec![AggSpec::complete(AggFunc::CountStar, 0)], memory: 1 << 20 },
        2,
        "group",
    );
    let sink = j.add(OpKind::ResultSink, 1, "sink");
    j.connect(probe, join, 0, ConnStrategy::Hash(vec![0]));
    j.connect(build, join, 1, ConnStrategy::Hash(vec![0]));
    j.connect(join, group, 0, ConnStrategy::Hash(vec![0]));
    j.connect(group, sink, 0, ConnStrategy::Gather);

    let clock = ManualClock::shared(0); // frozen: every read returns the same instant
    let ctx = RuntimeCtx::temp_with_clock(clock).unwrap();
    let result = run_job(j, ctx).unwrap();
    assert_eq!(result.tuples.len(), 10, "one group per key 0..10");

    let root = &result.profile.root;
    assert_eq!(root.label, "sink");

    // --- exact per-operator tuple counts, hand-computed from the plan ---
    // probe: 60 + 40 tuples out, skewed exactly as the source was built
    let p = root.find("probe").expect("probe in tree");
    assert_eq!(p.partitions.len(), 2);
    assert_eq!(p.partitions[0].tuples_out, 60, "skewed partition 0");
    assert_eq!(p.partitions[1].tuples_out, 40, "skewed partition 1");
    assert_eq!(p.totals().tuples_in, 0, "sources consume nothing");
    assert!((p.skew() - 1.2).abs() < 1e-9, "60 / mean(50) = 1.2, got {}", p.skew());
    assert_eq!(p.out_strategy.as_deref(), Some("hash"));
    // exchange edges record frames routed per destination (2 join partitions)
    for part in &p.partitions {
        assert_eq!(part.frames_routed.len(), 2, "one routing slot per destination");
        assert_eq!(
            part.frames_routed.iter().sum::<u64>(),
            part.frames_out,
            "routed frames account for every frame out"
        );
    }

    // build: 5 + 5 tuples out, no skew
    let b = root.find("build").expect("build in tree");
    assert_eq!(b.partitions[0].tuples_out, 5);
    assert_eq!(b.partitions[1].tuples_out, 5);
    assert!((b.skew() - 1.0).abs() < 1e-9);

    // join: consumes both sides (100 probe + 10 build), every probe tuple
    // matches exactly one build tuple -> 100 out
    let jn = root.find("join").expect("join in tree");
    assert_eq!(jn.totals().tuples_in, 110, "100 probe + 10 build tuples");
    assert_eq!(jn.totals().tuples_out, 100);
    assert_eq!(jn.inputs.len(), 2, "probe and build feed the join");

    // group: 100 joined tuples in, 10 groups out
    let g = root.find("group").expect("group in tree");
    assert_eq!(g.totals().tuples_in, 100);
    assert_eq!(g.totals().tuples_out, 10);
    assert_eq!(g.out_strategy.as_deref(), Some("gather"));

    // sink: one partition, delivers the 10 groups
    assert_eq!(root.partitions.len(), 1);
    assert_eq!(root.totals().tuples_in, 10);
    assert_eq!(root.totals().tuples_out, 10);

    // --- determinism: a frozen clock yields exactly-zero timings ---
    assert_eq!(result.profile.elapsed_ns, 0, "frozen clock: no elapsed time");
    assert!(all_timings_zero(root), "frozen clock: all wait/compute must be 0");

    // in-memory plan: no spill activity anywhere
    let t = root.totals();
    let mut spill = t.spill_runs + t.spilled_bytes + t.grace_fanout;
    for label in ["probe", "build", "join", "group"] {
        let n = root.find(label).map(|n| n.totals()).unwrap_or_default();
        spill += n.spill_runs + n.spilled_bytes + n.grace_fanout;
    }
    assert_eq!(spill, 0, "1MB budgets keep this plan fully in memory");
}

#[test]
fn profile_json_shape_is_stable() {
    let mut j = JobSpec::new();
    let s = j.add(skewed_probe(), 2, "probe");
    let sink = j.add(OpKind::ResultSink, 1, "sink");
    j.connect(s, sink, 0, ConnStrategy::Gather);
    let ctx = RuntimeCtx::temp_with_clock(ManualClock::shared(0)).unwrap();
    let result = run_job(j, ctx).unwrap();
    let json = result.profile.to_json().render();
    assert!(json.contains("\"schema_version\":1"), "{json}");
    assert!(json.contains("\"elapsed_ns\":0"), "{json}");
    assert!(json.contains("\"label\":\"probe\""), "{json}");
    assert!(json.contains("\"tuples_in\":100"), "sink saw all 100 tuples: {json}");
}
