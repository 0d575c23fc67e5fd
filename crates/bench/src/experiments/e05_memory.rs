//! E5 — memory-bounded operators (paper §III / ref \[10\]).
//!
//! "A fundamental assumption from the start of the project has been that the
//! portion of data stored on a given node can well exceed the size of its
//! main memory, and likewise (at least potentially) for intermediate query
//! results." Sort, hash join, and grouped aggregation are swept across
//! working-memory budgets from comfortably-in-memory down to tiny; the claim
//! is *graceful degradation* — runs/merge passes/grace partitioning appear,
//! results stay identical, nothing fails. The operators run through
//! [`drive`], the contract the executor runs them through, so the
//! `spilled_before_end` column is what the engine does too: the bytes that
//! had left memory when the last input frame was gathered, before its rows
//! were pushed and before end-of-input.

use crate::{ms, time_it, ExpReport};
use asterix_adm::Value;
use asterix_hyracks::ctx::RuntimeCtx;
use asterix_hyracks::job::{AggFunc, AggSpec, JoinKind, SortKey};
use asterix_hyracks::ops::{drive, Driven};
use asterix_hyracks::{OpKind, Tuple};
use std::cell::Cell;
use std::rc::Rc;
use std::sync::Arc;
use std::time::Duration;

fn rows(n: i64, seed: i64) -> impl Iterator<Item = asterix_hyracks::Result<Tuple>> {
    let groups = (n / 6).max(64);
    (0..n).map(move |i| {
        let k = (i * seed + 7) % n;
        Ok(vec![
            Value::Int(k),
            Value::Int(i % groups),
            Value::String(format!("payload-{k:012}-{}", "x".repeat(48))),
        ])
    })
}

/// One timed run of `kind`; `inputs[0]` is the input fed last. Returns the
/// output, the wall time and the bytes spilled before end-of-input.
fn measure<'a>(
    kind: &OpKind,
    mut inputs: Vec<Box<dyn Iterator<Item = asterix_hyracks::Result<Tuple>> + 'a>>,
    ctx: &'a Arc<RuntimeCtx>,
) -> (Driven, Duration, u64) {
    let before_end = Rc::new(Cell::new(0));
    let seen = Rc::clone(&before_end);
    let last = inputs.remove(0);
    inputs.insert(
        0,
        Box::new(last.chain(std::iter::from_fn(move || {
            seen.set(ctx.stats.spilled_bytes.get());
            None
        }))),
    );
    let (out, t) = time_it(|| drive(kind, inputs, ctx).expect("operator runs at every budget"));
    (out, t, before_end.get())
}

pub fn run(quick: bool) -> ExpReport {
    let n: i64 = if quick { 20_000 } else { 120_000 };
    let budgets: [(String, usize); 3] = [
        ("in-memory (256 MiB)".into(), 256 << 20),
        ("tight (1 MiB)".into(), 1 << 20),
        ("tiny (128 KiB)".into(), 128 << 10),
    ];
    let mut report = ExpReport::new(
        "E5",
        format!("memory-bounded operators, ref [10] ({n} tuples/side)"),
        &[
            "operator",
            "budget",
            "time_ms",
            "spill_runs",
            "merge_passes_or_grace",
            "spilled_before_end",
            "spilled_bytes",
            "result",
        ],
    );
    // --- external sort ---
    let mut reference: Option<Vec<i64>> = None;
    for (label, budget) in &budgets {
        let ctx = RuntimeCtx::temp().unwrap();
        let kind = OpKind::Sort { keys: vec![SortKey::asc(0)], memory: *budget };
        let (out, t, before_end) = measure(&kind, vec![Box::new(rows(n, 2371))], &ctx);
        let out: Vec<i64> = out.tuples.iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert!(out.windows(2).all(|w| w[0] <= w[1]), "sorted output");
        match &reference {
            None => reference = Some(out.clone()),
            Some(r) => assert_eq!(r, &out, "identical output at every budget"),
        }
        report.row(&[
            "external sort".into(),
            label.clone(),
            ms(t),
            ctx.stats.spill_runs.get().to_string(),
            ctx.stats.merge_passes.get().to_string(),
            before_end.to_string(),
            ctx.stats.spilled_bytes.get().to_string(),
            format!("{} rows", out.len()),
        ]);
    }
    // --- hybrid hash join ---
    let build_n = n / 8;
    let mut ref_join: Option<usize> = None;
    for (label, budget) in &budgets {
        let ctx = RuntimeCtx::temp().unwrap();
        let kind = OpKind::HashJoin {
            left_keys: vec![0],
            right_keys: vec![0],
            kind: JoinKind::Inner,
            right_arity: 3,
            memory: *budget,
        };
        let inputs: Vec<Box<dyn Iterator<Item = _>>> =
            vec![Box::new(rows(n, 2371)), Box::new(rows(build_n, 911))];
        let (out, t, before_end) = measure(&kind, inputs, &ctx);
        let count = out.tuples.len();
        match &ref_join {
            None => ref_join = Some(count),
            Some(r) => assert_eq!(*r, count, "identical join output at every budget"),
        }
        report.row(&[
            "hybrid hash join".into(),
            label.clone(),
            ms(t),
            ctx.stats.spill_runs.get().to_string(),
            ctx.stats.joins_spilled.get().to_string(),
            before_end.to_string(),
            ctx.stats.spilled_bytes.get().to_string(),
            format!("{count} rows"),
        ]);
    }
    // --- grouped aggregation ---
    let mut ref_groups: Option<usize> = None;
    for (label, budget) in &budgets {
        let ctx = RuntimeCtx::temp().unwrap();
        let kind = OpKind::GroupBy {
            key_cols: vec![1],
            aggs: vec![AggSpec::complete(AggFunc::CountStar, 0), AggSpec::complete(AggFunc::Sum, 0)],
            memory: *budget,
        };
        let (out, t, before_end) = measure(&kind, vec![Box::new(rows(n, 2371))], &ctx);
        let groups = out.tuples.len();
        match &ref_groups {
            None => ref_groups = Some(groups),
            Some(r) => assert_eq!(*r, groups),
        }
        report.row(&[
            "hash group-by".into(),
            label.clone(),
            ms(t),
            ctx.stats.spill_runs.get().to_string(),
            ctx.stats.groups_spilled.get().to_string(),
            before_end.to_string(),
            ctx.stats.spilled_bytes.get().to_string(),
            format!("{groups} groups"),
        ]);
    }
    report.note(
        "shape: identical results at every budget; shrinking memory adds spill \
         runs/merge passes/grace partitioning instead of failures — the ref [10] \
         'robust memory management' behaviour. spilled_before_end is what had been \
         written to spill runs when the last input frame was gathered, before its \
         rows were pushed (they, the sort's merge passes and the recursion into grace \
         partitions write the rest)",
    );
    report
}

#[cfg(test)]
mod tests {
    #[test]
    fn e05_runs_quick() {
        let r = super::run(true);
        assert_eq!(r.rows.len(), 9);
        // tiny-budget sort must have spilled, and all but its last run while it was fed
        assert!(r.rows[2][3].parse::<u64>().unwrap() > 0);
        assert!(r.rows[2][5].parse::<u64>().unwrap() > 0);
        // nothing spills at the in-memory budget
        assert_eq!(r.rows[0][6], "0");
    }
}
