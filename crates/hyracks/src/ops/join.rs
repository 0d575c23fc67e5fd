//! Hybrid hash join with grace (partitioned) spilling.
//!
//! Builds a hash table on input port 1 (the build side). If the build side
//! exceeds the working-memory budget, both sides are hash-partitioned to
//! spill files as they arrive ([`super::grace`], the group-by's partitioner
//! too) and each partition pair is joined independently — the classic
//! hybrid/grace scheme, so joins whose inputs exceed memory degrade
//! gracefully instead of failing (paper ref \[10\], experiment E5).

use crate::error::Result;
use crate::frame::{tuple_size, Tuple};
use crate::job::{JoinKind, Pred2Fn};
use crate::ops::grace::{hash_key, Grace};
use crate::ops::{each_row, OpCtx, Operator};
use asterix_adm::compare::adm_eq;
use asterix_adm::{ColumnBatch, Value};
use std::collections::HashMap;

/// The join's input ports, which are also its grace sides.
const PROBE: usize = 0;
const BUILD: usize = 1;

/// Configuration of one hash join.
#[derive(Clone)]
pub(crate) struct HashJoinCfg {
    pub left_keys: Vec<usize>,
    pub right_keys: Vec<usize>,
    pub kind: JoinKind,
    pub right_arity: usize,
    pub memory: usize,
}

fn keys_join_eq(a: &Tuple, a_cols: &[usize], b: &Tuple, b_cols: &[usize]) -> bool {
    a_cols.len() == b_cols.len()
        && a_cols.iter().zip(b_cols).all(|(x, y)| adm_eq(&a[*x], &b[*y]))
}

/// True when the key columns contain NULL/MISSING — SQL join semantics:
/// unknown keys match nothing.
fn key_has_unknown(t: &Tuple, cols: &[usize]) -> bool {
    cols.iter().any(|c| t[*c].is_unknown())
}

/// Hybrid hash join. Build tuples (port 1) go into the hash table until
/// their bytes pass `memory`; from then on the table's contents, the rest of
/// the build side and the whole probe side (port 0) are written straight to
/// the level's grace partitions, and each partition pair is run through the
/// same operator one level down. While the build side fits, probing streams.
pub(crate) struct HashJoin {
    cfg: HashJoinCfg,
    /// Buckets store build tuples directly: key columns are hashed and
    /// compared in place, no per-row key vector is materialized.
    table: HashMap<u64, Vec<Tuple>>,
    build_bytes: usize,
    grace: Grace,
}

impl HashJoin {
    pub fn new(cfg: HashJoinCfg) -> Self {
        HashJoin::level(cfg, Grace::new(2))
    }

    fn level(cfg: HashJoinCfg, grace: Grace) -> Self {
        HashJoin { cfg, table: HashMap::new(), build_bytes: 0, grace }
    }

    /// The build side outgrew the budget: open the partitions and move the
    /// table into them.
    fn overflow(&mut self, cx: &mut OpCtx<'_>) -> Result<()> {
        cx.ctx.stats.joins_spilled.inc();
        self.grace.open(cx.ctx, cx.metrics)?;
        for (h, bucket) in self.table.drain() {
            for t in bucket {
                self.grace.write(BUILD, h, &t, cx.metrics)?;
            }
        }
        Ok(())
    }

    fn on_build(&mut self, t: Tuple, cx: &mut OpCtx<'_>) -> Result<bool> {
        self.build_bytes += tuple_size(&t);
        // Unknown keys match nothing: such build tuples are dropped.
        if !key_has_unknown(&t, &self.cfg.right_keys) {
            let h = hash_key(&t, &self.cfg.right_keys);
            if self.grace.is_open() {
                self.grace.write(BUILD, h, &t, cx.metrics)?;
            } else {
                self.table.entry(h).or_default().push(t);
            }
        }
        if !self.grace.is_open() && self.build_bytes > self.cfg.memory && self.grace.may_spill() {
            self.overflow(cx)?;
        }
        Ok(true)
    }

    fn on_probe(&mut self, t: Tuple, cx: &mut OpCtx<'_>) -> Result<bool> {
        if !self.grace.is_open() {
            return probe_one(t, &self.table, &self.cfg, &mut |o| cx.emit(o));
        }
        if key_has_unknown(&t, &self.cfg.left_keys) {
            // unknown keys match nothing; for outer joins they still surface
            if self.cfg.kind == JoinKind::LeftOuter {
                let mut out = t;
                out.extend(std::iter::repeat_n(Value::Missing, self.cfg.right_arity));
                return cx.emit(out);
            }
            return Ok(true);
        }
        self.grace.write(PROBE, hash_key(&t, &self.cfg.left_keys), &t, cx.metrics)?;
        Ok(true)
    }
}

impl Operator for HashJoin {
    fn first_port(&self) -> Option<usize> {
        Some(BUILD)
    }

    fn on_batch(&mut self, port: usize, batch: ColumnBatch, cx: &mut OpCtx<'_>) -> Result<bool> {
        if port == BUILD {
            return each_row(batch, |t| self.on_build(t, cx));
        }
        each_row(batch, |t| self.on_probe(t, cx))
    }

    fn on_end(&mut self, port: usize, _: &mut OpCtx<'_>) -> Result<Option<usize>> {
        if port == BUILD {
            return Ok(Some(PROBE));
        }
        self.grace.finish()?;
        Ok(None)
    }

    fn on_drain(&mut self, cx: &mut OpCtx<'_>) -> Result<bool> {
        let cfg = &self.cfg;
        self.grace.drain(cx, |below| Box::new(HashJoin::level(cfg.clone(), below)))
    }
}

/// Probes one tuple against the in-memory table, emitting every match
/// (left columns then right). Returns `Ok(false)` when `emit` stopped
/// early.
fn probe_one(
    t: Tuple,
    table: &HashMap<u64, Vec<Tuple>>,
    cfg: &HashJoinCfg,
    emit: &mut dyn FnMut(Tuple) -> Result<bool>,
) -> Result<bool> {
    if !key_has_unknown(&t, &cfg.left_keys) {
        if let Some(bucket) = table.get(&hash_key(&t, &cfg.left_keys)) {
            // Find the final match up front so the probe row can be
            // *moved* into its last output tuple — the common 1-match
            // case then emits without cloning the probe side at all.
            let last = bucket
                .iter()
                .rposition(|bt| keys_join_eq(&t, &cfg.left_keys, bt, &cfg.right_keys));
            if let Some(last) = last {
                for bt in bucket[..last]
                    .iter()
                    .filter(|bt| keys_join_eq(&t, &cfg.left_keys, bt, &cfg.right_keys))
                {
                    let mut out = Vec::with_capacity(t.len() + bt.len());
                    out.extend(t.iter().cloned());
                    out.extend(bt.iter().cloned());
                    if !emit(out)? {
                        return Ok(false);
                    }
                }
                let bt = &bucket[last];
                let mut out = t;
                out.reserve(bt.len());
                out.extend(bt.iter().cloned());
                return emit(out);
            }
        }
    }
    if cfg.kind == JoinKind::LeftOuter {
        let mut out = t;
        out.extend(std::iter::repeat_n(Value::Missing, cfg.right_arity));
        return emit(out);
    }
    Ok(true)
}

/// Probes one tuple against the buffered nested-loop build side. Returns
/// `Ok(false)` when `emit` stopped early.
fn nlj_probe_one(
    t: Tuple,
    build: &[Tuple],
    pred: &Pred2Fn,
    kind: JoinKind,
    right_arity: usize,
    emit: &mut dyn FnMut(Tuple) -> Result<bool>,
) -> Result<bool> {
    let mut matched = false;
    for b in build {
        if pred(&t, b)? {
            matched = true;
            let mut out = t.clone();
            out.extend(b.iter().cloned());
            if !emit(out)? {
                return Ok(false);
            }
        }
    }
    if !matched && kind == JoinKind::LeftOuter {
        let mut out = t;
        out.extend(std::iter::repeat_n(Value::Missing, right_arity));
        return emit(out);
    }
    Ok(true)
}

/// Nested-loop join: buffers the build side (port 1), streams the probe.
pub(crate) struct NestedLoopJoin {
    pred: Pred2Fn,
    kind: JoinKind,
    right_arity: usize,
    build: Vec<Tuple>,
}

impl NestedLoopJoin {
    pub fn new(pred: Pred2Fn, kind: JoinKind, right_arity: usize) -> Self {
        NestedLoopJoin { pred, kind, right_arity, build: Vec::new() }
    }
}

impl Operator for NestedLoopJoin {
    fn first_port(&self) -> Option<usize> {
        Some(1)
    }

    fn on_batch(&mut self, port: usize, batch: ColumnBatch, cx: &mut OpCtx<'_>) -> Result<bool> {
        if port == 1 {
            self.build.extend(batch.into_rows());
            return Ok(true);
        }
        each_row(batch, |t| nlj_probe_one(t, &self.build, &self.pred, self.kind, self.right_arity, &mut |o| cx.emit(o)))
    }

    fn on_end(&mut self, port: usize, _: &mut OpCtx<'_>) -> Result<Option<usize>> {
        Ok((port == 1).then_some(0))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::RuntimeCtx;
    use crate::job::OpKind;
    use crate::ops::drive;
    use std::sync::Arc;

    fn rows(pairs: &[(i64, &str)]) -> Vec<Result<Tuple>> {
        pairs
            .iter()
            .map(|(k, s)| Ok(vec![Value::Int(*k), Value::from(*s)]))
            .collect()
    }

    fn hash_join(kind: JoinKind, memory: usize) -> OpKind {
        OpKind::HashJoin { left_keys: vec![0], right_keys: vec![0], kind, right_arity: 2, memory }
    }

    fn join(
        kind: &OpKind,
        probe: Vec<Result<Tuple>>,
        build: Vec<Result<Tuple>>,
    ) -> (Vec<Tuple>, Arc<RuntimeCtx>) {
        let ctx = RuntimeCtx::temp().unwrap();
        let inputs: Vec<Box<dyn Iterator<Item = Result<Tuple>>>> =
            vec![Box::new(probe.into_iter()), Box::new(build.into_iter())];
        let out = drive(kind, inputs, &ctx).unwrap().tuples;
        (out, ctx)
    }

    #[test]
    fn inner_join_in_memory() {
        let probe = rows(&[(1, "a"), (2, "b"), (3, "c")]);
        let build = rows(&[(2, "x"), (3, "y"), (3, "z"), (4, "w")]);
        let (out, _) = join(&hash_join(JoinKind::Inner, 1 << 20), probe, build);
        assert_eq!(out.len(), 3, "2 matches 1, 3 matches 2");
        assert!(out.iter().all(|t| t.len() == 4));
    }

    #[test]
    fn left_outer_pads_missing() {
        let probe = rows(&[(1, "a"), (2, "b")]);
        let build = rows(&[(2, "x")]);
        let (out, _) = join(&hash_join(JoinKind::LeftOuter, 1 << 20), probe, build);
        assert_eq!(out.len(), 2);
        let unmatched = out.iter().find(|t| t[0] == Value::Int(1)).unwrap();
        assert_eq!(unmatched[2], Value::Missing);
        assert_eq!(unmatched[3], Value::Missing);
    }

    #[test]
    fn null_keys_never_match() {
        let probe = || vec![Ok(vec![Value::Null, Value::from("p")])];
        let build = || vec![Ok(vec![Value::Null, Value::from("b")])];
        // at a budget that keeps the build side in memory, and at one that does not
        for memory in [1 << 20, 1] {
            let (out, _) = join(&hash_join(JoinKind::Inner, memory), probe(), build());
            assert!(out.is_empty(), "NULL != NULL in joins");
            let (out, _) = join(&hash_join(JoinKind::LeftOuter, memory), probe(), build());
            assert_eq!(out.len(), 1, "outer join still surfaces the left row");
            assert_eq!(out[0][2], Value::Missing);
        }
    }

    #[test]
    fn grace_spill_matches_in_memory_result() {
        let n = 3_000i64;
        let probe = || -> Vec<Result<Tuple>> {
            (0..n).map(|i| Ok(vec![Value::Int(i % 500), Value::from(format!("p{i}"))])).collect()
        };
        let build = || -> Vec<Result<Tuple>> {
            (0..500).map(|i| Ok(vec![Value::Int(i), Value::from(format!("b{i}"))])).collect()
        };
        let (big, _) = join(&hash_join(JoinKind::Inner, 64 << 20), probe(), build());
        // tiny budget forces grace mode
        let (small, ctx) = join(&hash_join(JoinKind::Inner, 4 << 10), probe(), build());
        assert!(ctx.stats.joins_spilled.get() > 0, "grace mode engaged");
        assert_eq!(big.len(), small.len());
        let canon = |mut v: Vec<Tuple>| {
            v.sort_by(|a, b| format!("{a:?}").cmp(&format!("{b:?}")));
            v
        };
        assert_eq!(canon(big), canon(small));
    }

    #[test]
    fn cross_type_numeric_join_keys() {
        let probe = vec![Ok(vec![Value::Double(2.0), Value::from("p")])];
        let build = vec![Ok(vec![Value::Int(2), Value::from("b")])];
        let (out, _) = join(&hash_join(JoinKind::Inner, 1 << 20), probe, build);
        assert_eq!(out.len(), 1, "Int(2) joins Double(2.0)");
    }

    #[test]
    fn nested_loop_theta_join() {
        let probe = rows(&[(1, "a"), (5, "b")]);
        let build = rows(&[(3, "x"), (7, "y")]);
        let pred: Pred2Fn = Arc::new(|l, r| {
            Ok(matches!((&l[0], &r[0]), (Value::Int(a), Value::Int(b)) if a < b))
        });
        let kind = OpKind::NestedLoopJoin { pred, kind: JoinKind::Inner, right_arity: 2 };
        // 1 < 3, 1 < 7, 5 < 7
        assert_eq!(join(&kind, probe, build).0.len(), 3);
    }
}
