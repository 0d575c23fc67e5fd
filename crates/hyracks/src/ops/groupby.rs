//! Hash-based grouped aggregation and duplicate elimination with hybrid
//! spilling, scalar aggregation, and the sort-based group-collect operator
//! behind SQL++'s nested GROUP BY output.
//!
//! The hybrid scheme mirrors the join: keys resident when the budget was
//! reached keep folding in place; tuples of *new* keys are written to hash
//! partitions as they arrive, and each partition is then run through the
//! same operator one level down — grouped aggregation over inputs larger
//! than memory degrades gracefully (paper ref \[10\], E5).

use crate::ctx::{RunHandle, RunWriter, RuntimeCtx};
use crate::error::Result;
use crate::frame::{tuple_size, Tuple};
use crate::job::{cmp_tuples, AggSpec, SortKey};
use crate::ops::sort::{Advance, Sort};
use crate::ops::{each_row, AggState, Nested, OpCtx, Operator};
use asterix_adm::compare::{adm_eq, hash64_iter};
use asterix_adm::{ColumnBatch, Value};
use std::collections::{HashMap, VecDeque};

const GRACE_PARTITIONS: usize = 8;
const MAX_DEPTH: usize = 3;

/// Hash of the key columns of `t`, by reference — identical to hashing the
/// materialized key.
fn hash_key(t: &Tuple, cols: &[usize]) -> u64 {
    hash64_iter(cols.iter().map(|c| &t[*c]), cols.len())
}

/// Compares a materialized group key against the key columns of a tuple.
fn key_matches(key: &[Value], t: &Tuple, cols: &[usize]) -> bool {
    key.len() == cols.len() && key.iter().zip(cols).all(|(k, c)| adm_eq(k, &t[*c]))
}

/// The resident half of a hybrid hash operator — what differs between
/// grouped aggregation and duplicate elimination.
pub(crate) trait Resident: Send + Sized + 'static {
    /// The hash of `t`'s key: what places a tuple that is not folded in a
    /// partition.
    fn hash(&self, t: &Tuple) -> u64;
    /// Folds `t` into its resident key, or admits its key when `admit`;
    /// hands the tuple back when its key is neither resident nor admitted.
    fn fold(&mut self, t: Tuple, admit: bool) -> Option<Tuple>;
    /// [`Resident::fold`] of row `row` of `batch` where it lies, no tuple
    /// built — if the table can find the row's key without one. `false`
    /// leaves the row to `fold`.
    fn fold_at(&mut self, _batch: &ColumnBatch, _row: usize, _admit: bool) -> bool {
        false
    }
    /// Whether `fold_at` is worth asking of `batch`: it finds the key of its
    /// first row in play where it lies.
    fn folds_in(&self, _batch: &ColumnBatch) -> bool {
        false
    }
    /// Bytes the admitted keys are accounted at.
    fn bytes(&self) -> usize;
    /// An empty table of the same shape, for the next level down.
    fn fresh(&self) -> Self;
    /// The output rows of the resident keys.
    fn into_rows(self) -> Box<dyn Iterator<Item = Tuple> + Send>;
    /// Counts an operator level's first spill.
    fn note_spill(_ctx: &RuntimeCtx) {}
}

/// One level of a hybrid hash operator: a resident table and the partitions
/// non-resident keys are written to while it is fed; at end-of-input the
/// resident rows, then each partition run through a fresh level.
pub(crate) struct Hybrid<R: Resident> {
    /// The resident table while fed; an empty one of its shape afterwards.
    table: R,
    memory: usize,
    depth: usize,
    seed: u64,
    spills: Option<Vec<RunWriter>>,
    rows: Box<dyn Iterator<Item = Tuple> + Send>,
    parts: VecDeque<RunHandle>,
    child: Option<Nested>,
}

impl<R: Resident> Hybrid<R> {
    pub fn new(table: R, memory: usize) -> Self {
        Hybrid::level(table, memory, 0, 0x2545_f491_4f6c_dd1d)
    }

    fn level(table: R, memory: usize, depth: usize, seed: u64) -> Self {
        Hybrid {
            table,
            memory,
            depth,
            seed,
            spills: None,
            rows: Box::new(std::iter::empty()),
            parts: VecDeque::new(),
            child: None,
        }
    }
}

impl<R: Resident> Hybrid<R> {
    /// Whether a key not yet resident may become so.
    fn admits(&self) -> bool {
        self.table.bytes() < self.memory || self.depth >= MAX_DEPTH
    }

    /// Folds `t`, or writes it to its partition when its key is not
    /// resident and may not become so.
    fn row(&mut self, t: Tuple, cx: &mut OpCtx<'_>) -> Result<bool> {
        let admit = self.admits();
        if let Some(t) = self.table.fold(t, admit) {
            let h = self.table.hash(&t);
            let writers = match &mut self.spills {
                Some(w) => w,
                None => {
                    R::note_spill(cx.ctx);
                    cx.metrics.grace_fanout += GRACE_PARTITIONS as u64;
                    let fresh = (0..GRACE_PARTITIONS)
                        .map(|_| cx.ctx.new_run(cx.metrics))
                        .collect::<Result<_>>()?;
                    self.spills.insert(fresh)
                }
            };
            let part = (h.rotate_left(29) ^ self.seed) as usize % GRACE_PARTITIONS;
            writers[part].write(&t, cx.metrics)?;
        }
        Ok(true)
    }
}

impl<R: Resident> Operator for Hybrid<R> {
    /// Row by row — the budget is asked at every row, so the same keys are
    /// admitted and the same rows spilled however the rows are framed — and
    /// a row whose key the table finds in its column is folded where it
    /// lies. A frame the table cannot fold in is read as rows.
    fn on_batch(&mut self, _: usize, batch: ColumnBatch, cx: &mut OpCtx<'_>) -> Result<bool> {
        if !self.table.folds_in(&batch) {
            return each_row(batch, |t| self.row(t, cx));
        }
        for row in batch.row_ids() {
            let admit = self.admits();
            if !self.table.fold_at(&batch, row, admit) {
                self.row(batch.tuple(row), cx)?;
            }
        }
        Ok(true)
    }

    fn on_end(&mut self, _: usize, _: &mut OpCtx<'_>) -> Result<Option<usize>> {
        let empty = self.table.fresh();
        self.rows = std::mem::replace(&mut self.table, empty).into_rows();
        for w in self.spills.take().into_iter().flatten() {
            self.parts.push_back(w.finish()?);
        }
        Ok(None)
    }

    fn on_drain(&mut self, cx: &mut OpCtx<'_>) -> Result<bool> {
        if let Some(t) = self.rows.next() {
            return cx.emit(t);
        }
        if let Some(more) = Nested::advance(&mut self.child, cx)? {
            return Ok(more);
        }
        let Some(part) = self.parts.pop_front() else {
            return Ok(false);
        };
        // Each level salts the partition function afresh, or a partition
        // would land whole in one partition of the next level.
        let level =
            Hybrid::level(self.table.fresh(), self.memory, self.depth + 1, self.seed.rotate_left(31));
        self.child = Some(Nested::new(Box::new(level), vec![part])?);
        Ok(true)
    }
}

/// The integer a one-column key is, if it is one: `2` and `2.0` are one key.
fn int_key(v: &Value) -> Option<i64> {
    match v {
        Value::Int(i) => Some(*i),
        Value::Double(d) if d.fract() == 0.0 && (-TWO_POW_63..TWO_POW_63).contains(d) => Some(*d as i64),
        _ => None,
    }
}

const TWO_POW_63: f64 = 9_223_372_036_854_775_808.0;

/// Hash group-by: one row per group — key columns then what each aggregate
/// emits (its final value, or its partial columns). The groups are kept in
/// the order they were admitted, each with its materialized key — built once
/// per *group*, on first insert, not once per input tuple — and found by the
/// 64-bit hash of the key, or, when the key is one integer, by the integer:
/// that needs no `Value`, so a row of a batch whose key column is a vector
/// of `i64` is folded where it lies.
pub(crate) struct Groups {
    key_cols: Vec<usize>,
    aggs: Vec<AggSpec>,
    /// Each group's materialized key and per-aggregate running state.
    groups: Vec<(Vec<Value>, Vec<AggState>)>,
    /// The groups whose key is one integer ([`int_key`]).
    ints: HashMap<i64, usize>,
    /// Per key hash, the groups of every other key that has it.
    table: HashMap<u64, Vec<usize>>,
    bytes: usize,
}

impl Groups {
    pub fn new(key_cols: Vec<usize>, aggs: Vec<AggSpec>) -> Self {
        Groups { key_cols, aggs, groups: Vec::new(), ints: HashMap::new(), table: HashMap::new(), bytes: 0 }
    }

    /// A new group under `key`.
    fn admit(&mut self, key: Vec<Value>) -> usize {
        self.bytes += 64 + key.iter().map(Value::heap_size).sum::<usize>() + 64 * self.aggs.len();
        self.groups.push((key, self.aggs.iter().map(|a| AggState::new(*a)).collect()));
        self.groups.len() - 1
    }

    /// The group of the integer key `k`, admitted under `key()` when it is
    /// not there and `admit` allows.
    fn int_group(&mut self, k: i64, admit: bool, key: impl FnOnce() -> Value) -> Option<usize> {
        if let Some(group) = self.ints.get(&k) {
            return Some(*group);
        }
        let group = admit.then(|| self.admit(vec![key()]))?;
        self.ints.insert(k, group);
        Some(group)
    }

    /// The group of `t`'s key, admitted when it is not there and `admit`
    /// allows.
    fn group_of(&mut self, t: &Tuple, admit: bool) -> Option<usize> {
        if let [col] = self.key_cols[..] {
            if let Some(k) = int_key(&t[col]) {
                return self.int_group(k, admit, || t[col].clone());
            }
        }
        let h = hash_key(t, &self.key_cols);
        let resident = |g: &usize| key_matches(&self.groups[*g].0, t, &self.key_cols);
        if let Some(group) = self.table.get(&h).and_then(|b| b.iter().copied().find(resident)) {
            return Some(group);
        }
        let group = admit.then(|| self.admit(self.key_cols.iter().map(|c| t[*c].clone()).collect()))?;
        self.table.entry(h).or_default().push(group);
        Some(group)
    }
}

impl Resident for Groups {
    fn hash(&self, t: &Tuple) -> u64 {
        hash_key(t, &self.key_cols)
    }

    fn fold(&mut self, t: Tuple, admit: bool) -> Option<Tuple> {
        let Some(group) = self.group_of(&t, admit) else { return Some(t) };
        for s in &mut self.groups[group].1 {
            s.update(&t);
        }
        None
    }

    fn fold_at(&mut self, batch: &ColumnBatch, row: usize, admit: bool) -> bool {
        let [col] = self.key_cols[..] else { return false };
        let Some(k) = batch.column(col).int_at(row) else { return false };
        let Some(group) = self.int_group(k, admit, || Value::Int(k)) else { return false };
        for s in &mut self.groups[group].1 {
            s.update_at(batch, row);
        }
        true
    }

    fn folds_in(&self, batch: &ColumnBatch) -> bool {
        let [col] = self.key_cols[..] else { return false };
        batch.row_ids().next().is_some_and(|row| batch.column(col).int_at(row).is_some())
    }

    fn bytes(&self) -> usize {
        self.bytes
    }

    fn fresh(&self) -> Self {
        Groups::new(self.key_cols.clone(), self.aggs.clone())
    }

    fn into_rows(self) -> Box<dyn Iterator<Item = Tuple> + Send> {
        Box::new(self.groups.into_iter().map(|(mut row, states)| {
            states.iter().for_each(|s| s.finish(&mut row));
            row
        }))
    }

    fn note_spill(ctx: &RuntimeCtx) {
        ctx.stats.groups_spilled.inc();
    }
}

/// Duplicate elimination on `cols` (or whole tuples). Representatives are
/// stored directly; duplicates are detected by hashing and comparing the
/// key columns in place — no per-tuple key materialization.
pub(crate) struct Seen {
    cols: Option<Vec<usize>>,
    table: HashMap<u64, Vec<Tuple>>,
    bytes: usize,
}

impl Seen {
    pub fn new(cols: Option<Vec<usize>>) -> Self {
        Seen { cols, table: HashMap::new(), bytes: 0 }
    }

    fn is_dup(&self, s: &Tuple, t: &Tuple) -> bool {
        match &self.cols {
            Some(cs) => cs.iter().all(|c| adm_eq(&s[*c], &t[*c])),
            None => s.len() == t.len() && s.iter().zip(t.iter()).all(|(a, b)| adm_eq(a, b)),
        }
    }
}

impl Resident for Seen {
    fn hash(&self, t: &Tuple) -> u64 {
        match &self.cols {
            Some(cs) => hash_key(t, cs),
            None => hash64_iter(t.iter(), t.len()),
        }
    }

    fn fold(&mut self, t: Tuple, admit: bool) -> Option<Tuple> {
        let h = self.hash(&t);
        if self.table.get(&h).is_some_and(|b| b.iter().any(|s| self.is_dup(s, &t))) {
            return None;
        }
        if !admit {
            return Some(t);
        }
        self.bytes += tuple_size(&t) + 32;
        self.table.entry(h).or_default().push(t);
        None
    }

    fn bytes(&self) -> usize {
        self.bytes
    }

    fn fresh(&self) -> Self {
        Seen::new(self.cols.clone())
    }

    fn into_rows(self) -> Box<dyn Iterator<Item = Tuple> + Send> {
        Box::new(self.table.into_values().flatten())
    }
}

/// Scalar aggregation over the whole input: one output tuple, also when
/// the input is empty — the zero-key form of [`Groups`].
pub(crate) struct Aggregate(Vec<AggState>);

impl Aggregate {
    pub fn new(aggs: &[AggSpec]) -> Self {
        Aggregate(aggs.iter().map(|a| AggState::new(*a)).collect())
    }
}

impl Operator for Aggregate {
    /// Folds each row in play where its columns hold it.
    fn on_batch(&mut self, _: usize, batch: ColumnBatch, _: &mut OpCtx<'_>) -> Result<bool> {
        for row in batch.row_ids() {
            self.0.iter_mut().for_each(|s| s.update_at(&batch, row));
        }
        Ok(true)
    }

    fn on_drain(&mut self, cx: &mut OpCtx<'_>) -> Result<bool> {
        let mut row = Vec::with_capacity(self.0.len());
        self.0.iter().for_each(|s| s.finish(&mut row));
        cx.emit(row)?;
        Ok(false)
    }
}

/// Sort-based group-collect: groups by `key_cols` and emits, per group, the
/// key columns followed by one array value holding the grouped tuples
/// projected to `payload_cols` (each as an array). This is the operator
/// behind SQL++ `GROUP BY` when the query references the group itself —
/// JSON's nested data model makes the group a first-class value (paper §IV-A
/// on SQL++'s "generalized support for grouping and aggregation"). Feeds a
/// [`Sort`] on the key columns and groups its output as it is pulled.
pub(crate) struct GroupCollect {
    sort: Sort,
    key_cols: Vec<usize>,
    payload_cols: Vec<usize>,
    /// Compares two materialized keys column by column.
    key_order: Vec<SortKey>,
    key: Option<Tuple>,
    group: Vec<Value>,
}

impl GroupCollect {
    pub fn new(key_cols: Vec<usize>, payload_cols: Vec<usize>, memory: usize) -> Self {
        let sort = Sort::new(key_cols.iter().map(|c| SortKey::asc(*c)).collect(), memory);
        let key_order = (0..key_cols.len()).map(SortKey::asc).collect();
        GroupCollect { sort, key_cols, payload_cols, key_order, key: None, group: Vec::new() }
    }

    /// Closes the current group under `key`.
    fn close(&mut self, mut key: Tuple) -> Tuple {
        key.push(Value::Array(std::mem::take(&mut self.group)));
        key
    }
}

impl Operator for GroupCollect {
    fn on_batch(&mut self, _: usize, batch: ColumnBatch, cx: &mut OpCtx<'_>) -> Result<bool> {
        each_row(batch, |t| self.sort.feed(t, cx))
    }

    fn on_end(&mut self, _: usize, cx: &mut OpCtx<'_>) -> Result<Option<usize>> {
        self.sort.end(cx)?;
        Ok(None)
    }

    fn on_drain(&mut self, cx: &mut OpCtx<'_>) -> Result<bool> {
        let t = match self.sort.advance(cx)? {
            Advance::Worked => return Ok(true),
            Advance::Tuple(t) => t,
            Advance::Done => {
                if let Some(key) = self.key.take() {
                    let last = self.close(key);
                    cx.emit(last)?;
                }
                return Ok(false);
            }
        };
        let key: Tuple = self.key_cols.iter().map(|c| t[*c].clone()).collect();
        // A single payload column collects bare values; multiple columns
        // collect per-tuple arrays.
        let payload = if let [col] = self.payload_cols[..] {
            t[col].clone()
        } else {
            Value::Array(self.payload_cols.iter().map(|c| t[*c].clone()).collect::<Vec<_>>())
        };
        let same = self.key.as_ref().is_some_and(|k| {
            cmp_tuples(k, &key, &self.key_order) == std::cmp::Ordering::Equal
        });
        let closed = if same { None } else { self.key.replace(key).map(|k| self.close(k)) };
        self.group.push(payload);
        match closed {
            Some(row) => cx.emit(row),
            None => Ok(true),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AggFunc, OpKind};
    use crate::ops::drive;
    use std::sync::Arc;

    fn rows(n: i64, groups: i64) -> Vec<Result<Tuple>> {
        (0..n)
            .map(|i| Ok(vec![Value::Int(i % groups), Value::Int(i), Value::from(format!("r{i}"))]))
            .collect()
    }

    /// Drives `kind` over `input`; output sorted on column 0.
    fn run(kind: OpKind, input: Vec<Result<Tuple>>) -> (Vec<Tuple>, Arc<RuntimeCtx>) {
        let ctx = RuntimeCtx::temp().unwrap();
        let mut out = drive(&kind, vec![Box::new(input.into_iter())], &ctx).unwrap().tuples;
        out.sort_by(|a, b| cmp_tuples(a, b, &[SortKey::asc(0)]));
        (out, ctx)
    }

    fn group_by(aggs: &[AggSpec], memory: usize) -> OpKind {
        OpKind::GroupBy { key_cols: vec![0], aggs: aggs.to_vec(), memory }
    }

    #[test]
    fn basic_grouping() {
        let aggs = [AggSpec::complete(AggFunc::CountStar, 0), AggSpec::complete(AggFunc::Sum, 1), AggSpec::complete(AggFunc::Min, 1), AggSpec::complete(AggFunc::Max, 1)];
        let (out, ctx) = run(group_by(&aggs, 64 << 20), rows(100, 4));
        assert_eq!(out.len(), 4);
        assert_eq!(ctx.stats.groups_spilled.get(), 0);
        // group 0: values 0,4,...,96 → count 25, sum 1200, min 0, max 96
        assert_eq!(out[0][0], Value::Int(0));
        assert_eq!(out[0][1], Value::Int(25));
        assert_eq!(out[0][2], Value::Int(1200));
        assert_eq!(out[0][3], Value::Int(0));
        assert_eq!(out[0][4], Value::Int(96));
    }

    #[test]
    fn spilling_grouping_matches_in_memory() {
        let aggs = [AggSpec::complete(AggFunc::CountStar, 0), AggSpec::complete(AggFunc::Sum, 1)];
        let (big, _) = run(group_by(&aggs, 64 << 20), rows(20_000, 3_000));
        let (small, ctx) = run(group_by(&aggs, 16 << 10), rows(20_000, 3_000));
        assert!(ctx.stats.groups_spilled.get() > 0, "spill mode engaged");
        assert_eq!(big, small, "spilled result identical");
        assert_eq!(big.len(), 3_000);
    }

    #[test]
    fn group_collect_nests_payloads() {
        let kind =
            OpKind::GroupCollect { key_cols: vec![0], payload_cols: vec![1, 2], memory: 1 << 20 };
        let (out, _) = run(kind, rows(10, 2));
        assert_eq!(out.len(), 2);
        let group0 = out[0][1].as_collection().unwrap();
        assert_eq!(group0.len(), 5, "5 tuples in group 0");
        assert!(matches!(&group0[0], Value::Array(items) if items.len() == 2));
    }

    #[test]
    fn group_collect_empty_input() {
        let kind =
            OpKind::GroupCollect { key_cols: vec![0], payload_cols: vec![1], memory: 1 << 20 };
        assert!(run(kind, Vec::new()).0.is_empty());
    }

    #[test]
    fn distinct_whole_tuple_and_columns() {
        let input = || -> Vec<Result<Tuple>> {
            vec![
                Ok(vec![Value::Int(1), Value::from("a")]),
                Ok(vec![Value::Int(1), Value::from("a")]),
                Ok(vec![Value::Int(1), Value::from("b")]),
                Ok(vec![Value::Int(2), Value::from("a")]),
            ]
        };
        let (out, _) = run(OpKind::Distinct { cols: None, memory: 1 << 20 }, input());
        assert_eq!(out.len(), 3);
        let (out, _) = run(OpKind::Distinct { cols: Some(vec![0]), memory: 1 << 20 }, input());
        assert_eq!(out.len(), 2, "distinct on column 0 only");
    }

    #[test]
    fn distinct_spills_and_stays_correct() {
        let input: Vec<Result<Tuple>> = (0..10_000)
            .map(|i| Ok(vec![Value::Int(i % 1_000), Value::from(format!("pad{}", i % 1_000))]))
            .collect();
        let (out, ctx) = run(OpKind::Distinct { cols: None, memory: 8 << 10 }, input);
        assert_eq!(out.len(), 1_000);
        assert!(ctx.stats.spill_runs.get() > 0, "spill mode engaged");
    }

    #[test]
    fn grouping_with_null_keys() {
        let input: Vec<Result<Tuple>> = vec![
            Ok(vec![Value::Null, Value::Int(1), Value::from("x")]),
            Ok(vec![Value::Null, Value::Int(2), Value::from("y")]),
            Ok(vec![Value::Int(1), Value::Int(3), Value::from("z")]),
        ];
        let (out, _) = run(group_by(&[AggSpec::complete(AggFunc::CountStar, 0)], 1 << 20), input);
        assert_eq!(out.len(), 2, "NULL forms its own group (SQL GROUP BY)");
        assert_eq!(out[0][1], Value::Int(2));
    }
}
