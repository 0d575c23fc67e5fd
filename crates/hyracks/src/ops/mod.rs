//! Operator implementations and the one contract they are driven through.
//!
//! An [`Operator`] is a push/end state machine that lives next to its
//! algorithm ([`sort`], [`join`], [`groupby`], [`stream`]): it is handed the
//! frames of one input port at a time, each a [`ColumnBatch`], says at each
//! end-of-input which port it wants next, and once it wants none is drained
//! one bounded unit of work at a time. An operator that works on rows reads
//! them out of the batch through [`each_row`]. [`Running::pump`] is the only
//! loop that drives one. The executor calls it with its edge-backed ports,
//! [`drive`] and the grace recursion of the spilling operators call it with
//! iterators; everything an operator may touch while it runs arrives in the
//! [`OpCtx`] of the step.
//!
//! This module also holds the aggregate accumulator ([`AggState`]) shared by
//! scalar aggregation, group-by and the `COLL_*` collection functions.

pub mod groupby;
pub mod join;
pub mod sort;
pub(crate) mod stream;

use crate::cancel::CancellationToken;
use crate::ctx::{RunHandle, RunReader, RuntimeCtx};
use crate::error::{HyracksError, Result};
use crate::exec::{NoWake, Notifier, Router};
use crate::frame::{tuple_size, FrameBuilder, Tuple};
use crate::job::{AggFunc, AggPhase, AggSpec, OpKind, Produced};
use crate::sched::MORSEL_TUPLES;
use asterix_adm::compare::total_cmp;
use asterix_adm::{ColumnBatch, Value};
use asterix_obs::OpMetrics;
use asterix_storage::lock_order;
use std::cmp::Ordering;
use std::sync::Arc;

/// What an operator may touch during one step: its own metrics (spill and
/// fan-out counts land here), the job token, the runtime context (spill
/// files, dataflow counters) and its output.
pub(crate) struct OpCtx<'a> {
    pub metrics: &'a mut OpMetrics,
    pub token: &'a CancellationToken,
    pub ctx: &'a Arc<RuntimeCtx>,
    pub out: &'a mut Router,
    pub wake: &'a dyn Notifier,
    /// Units of work done so far ([`Running::pump`]), by the operator and
    /// by the nested levels it drives.
    pub spent: usize,
}

impl OpCtx<'_> {
    /// Emits one output tuple, which the router gathers into a frame;
    /// `false` when every consumer is gone.
    #[inline]
    pub fn emit(&mut self, t: Tuple) -> Result<bool> {
        self.out.push(self.wake, self.metrics, t)
    }

    /// Emits the rows in play of `batch`, as the batch it is where the
    /// connector ships one whole.
    pub fn emit_batch(&mut self, batch: ColumnBatch) -> Result<bool> {
        self.out.push_batch(self.wake, self.metrics, batch)
    }
}

/// One operator partition. Every method that returns `bool` answers "is
/// there more to do": `false` finishes the operator, whether it is done or
/// every consumer of its output is gone.
pub(crate) trait Operator: Send {
    /// The port fed first; `None` for an operator that takes no input (a
    /// source, `LIMIT 0`) and is drained at once.
    fn first_port(&self) -> Option<usize> {
        Some(0)
    }

    /// One frame of the wanted port.
    fn on_batch(&mut self, port: usize, batch: ColumnBatch, cx: &mut OpCtx<'_>) -> Result<bool>;

    /// The wanted port is exhausted; returns the port wanted next (joins:
    /// build before probe), `None` to be drained.
    fn on_end(&mut self, _port: usize, _cx: &mut OpCtx<'_>) -> Result<Option<usize>> {
        Ok(None)
    }

    /// One bounded unit of output work: at most one tuple emitted, one tuple
    /// moved between spill runs, or one frame fed to a nested level.
    fn on_drain(&mut self, _cx: &mut OpCtx<'_>) -> Result<bool> {
        Ok(false)
    }
}

/// How an operator that works on rows reads a frame: the rows in play, built
/// once ([`ColumnBatch::into_rows`]), handed to `row` in order until it
/// answers `false`.
pub(crate) fn each_row(batch: ColumnBatch, mut row: impl FnMut(Tuple) -> Result<bool>) -> Result<bool> {
    for t in batch.into_rows() {
        if !row(t)? {
            return Ok(false);
        }
    }
    Ok(true)
}

/// One `poll` of an input.
#[derive(Debug)]
pub(crate) enum Polled {
    /// A frame.
    Batch(ColumnBatch),
    /// Nothing buffered, producers still live: go idle until notified.
    Pending,
    /// Every producer finished cleanly.
    End,
}

/// Where an operator's frames come from: an edge-backed port in a job, an
/// iterator everywhere else.
pub(crate) trait Input {
    fn poll(&mut self, cx: &mut OpCtx<'_>) -> Result<Polled>;
}

/// An input fed from an iterator of tuples or of what a source produces (a
/// spill run, a test vector): its tuples are gathered into frames as a
/// router gathers them, a batch is handed on as it is. Never pending, and
/// not asked again after its end.
pub(crate) struct IterInput<I> {
    iter: Option<I>,
    /// What was pulled but did not fit the frame handed out before it.
    held: Option<Produced>,
}

impl<I> IterInput<I> {
    fn new(iter: I) -> Self {
        IterInput { iter: Some(iter), held: None }
    }
}

impl<T: Into<Produced>, I: Iterator<Item = Result<T>>> Input for IterInput<I> {
    fn poll(&mut self, _cx: &mut OpCtx<'_>) -> Result<Polled> {
        let mut frame = FrameBuilder::default();
        loop {
            let next = match self.held.take() {
                Some(held) => Some(held),
                None => self.iter.as_mut().and_then(Iterator::next).transpose()?.map(Into::into),
            };
            match next {
                Some(Produced::Tuple(t)) if frame.fits(&t) => {
                    let size = tuple_size(&t);
                    if frame.push(t, size) {
                        return Ok(Polled::Batch(frame.take()?));
                    }
                }
                Some(Produced::Batch(batch)) if frame.is_empty() => return Ok(Polled::Batch(batch)),
                Some(held) => {
                    self.held = Some(held);
                    return Ok(Polled::Batch(frame.take()?));
                }
                None => {
                    self.iter = None;
                    return Ok(if frame.is_empty() { Polled::End } else { Polled::Batch(frame.take()?) });
                }
            }
        }
    }
}

/// What one bounded step decided.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Flow {
    /// Budget used up, more work at hand.
    Again,
    /// The wanted input is pending.
    Idle,
    /// The operator is finished.
    Finished,
}

/// An operator together with the port it currently wants.
pub(crate) struct Running {
    op: Box<dyn Operator>,
    want: Option<usize>,
}

impl Running {
    pub fn new(op: Box<dyn Operator>) -> Self {
        let want = op.first_port();
        Running { op, want }
    }

    /// The one loop: at most `budget` units of work, each a tuple handed to
    /// the operator, an end-of-input, or a unit of drain. A frame — handed
    /// over, or emitted by a unit of drain — is as many units as it has
    /// rows, and is not split: the last unit of a step may overshoot by one.
    /// What a nested level does within a unit of drain is counted where it
    /// is done.
    pub fn pump<I: Input>(
        &mut self,
        inputs: &mut [I],
        cx: &mut OpCtx<'_>,
        budget: usize,
    ) -> Result<Flow> {
        let stop = cx.spent + budget;
        while cx.spent < stop {
            let more = match self.want {
                None => {
                    let (emitted, spent) = (cx.metrics.tuples_out, cx.spent);
                    let more = self.op.on_drain(cx)?;
                    if cx.spent == spent {
                        cx.spent += ((cx.metrics.tuples_out - emitted) as usize).max(1);
                    }
                    more
                }
                Some(port) => {
                    let Some(input) = inputs.get_mut(port) else {
                        return Err(HyracksError::InvalidJob(format!("input port {port} missing")));
                    };
                    match input.poll(cx)? {
                        Polled::Pending => return Ok(Flow::Idle),
                        Polled::Batch(batch) => {
                            cx.spent += batch.rows().max(1);
                            self.op.on_batch(port, batch, cx)?
                        }
                        Polled::End => {
                            cx.spent += 1;
                            self.want = self.op.on_end(port, cx)?;
                            true
                        }
                    }
                }
            };
            if !more {
                return Ok(Flow::Finished);
            }
        }
        Ok(Flow::Again)
    }
}

/// Grace recursion: the operator one level down, fed from the spill runs of
/// one partition and emitting into the same output.
pub(crate) struct Nested {
    run: Running,
    inputs: Vec<IterInput<RunReader>>,
    /// Keeps the partition's files alive until it is consumed.
    _runs: Vec<RunHandle>,
}

impl Nested {
    /// `runs[i]` feeds input port `i` of `op`.
    pub fn new(op: Box<dyn Operator>, runs: Vec<RunHandle>) -> Result<Self> {
        let inputs = runs.iter().map(|r| Ok(IterInput::new(r.read()?))).collect::<Result<_>>()?;
        Ok(Nested { run: Running::new(op), inputs, _runs: runs })
    }

    /// One unit of work of the nested level in `slot`, which is cleared
    /// when it finishes. `None` when there is none; otherwise whether the
    /// parent has more to do (not when the output's consumers are gone).
    pub fn advance(slot: &mut Option<Nested>, cx: &mut OpCtx<'_>) -> Result<Option<bool>> {
        let Some(child) = slot else {
            return Ok(None);
        };
        if child.run.pump(&mut child.inputs, cx, 1)? != Flow::Finished {
            return Ok(Some(true));
        }
        *slot = None;
        Ok(Some(!cx.out.all_gone()))
    }
}

/// What [`drive`] hands back: the operator's output and its metrics (spill
/// runs, spilled bytes, grace fan-out).
#[derive(Debug)]
pub struct Driven {
    pub tuples: Vec<Tuple>,
    pub metrics: OpMetrics,
}

/// Runs one operator to completion outside a job: the executor's loop with
/// iterators for ports — of tuples, or of [`Produced`] where an input hands
/// out batches. `inputs[i]` feeds input port `i`; an input is pulled only
/// while the operator wants that port, a frame at a time.
pub fn drive<'a, T: Into<Produced>>(
    kind: &OpKind,
    inputs: Vec<Box<dyn Iterator<Item = Result<T>> + 'a>>,
    ctx: &Arc<RuntimeCtx>,
) -> Result<Driven> {
    let mut run = Running::new(kind.operator(0));
    let mut inputs: Vec<_> = inputs.into_iter().map(IterInput::new).collect();
    let mut out = Router::collector(ctx);
    let mut metrics = OpMetrics::default();
    let token = CancellationToken::new();
    let mut cx =
        OpCtx { metrics: &mut metrics, token: &token, ctx, out: &mut out, wake: &NoWake, spent: 0 };
    // Each pump marked as a pool step: a wait in the operator aborts (debug builds).
    let mut pump = || lock_order::as_pool_step(|| run.pump(&mut inputs, &mut cx, MORSEL_TUPLES));
    while pump()? != Flow::Finished {}
    Ok(Driven { tuples: out.take_collected(), metrics })
}

/// What a [`AggPhase::Partial`] `SUM` emits once it has met a known value
/// that is not a number: itself a known non-number, so it makes the final
/// `SUM`/`AVG` NULL the way the offending value would have.
const NON_NUMERIC: Value = Value::Bool(false);

/// Running state of one aggregate function: the one place that says what
/// the six functions mean and how each splits into a partial and a final
/// half. On every route — grouped or scalar, whole or split, a `COLL_*`
/// call over a collection — unknowns (NULL, MISSING) are skipped by every
/// function but `COUNT(*)`; a known non-numeric input makes `SUM` and `AVG`
/// NULL; integers are summed exactly, whatever order they arrive in, and a
/// total outside `i64` is reported as a `Double`; over no values a count is
/// 0 and every other aggregate NULL.
///
/// Partial columns: a count travels as an `Int`; `MIN`/`MAX` as the best
/// value so far (NULL: none); `SUM` as the sum so far (NULL: none,
/// [`NON_NUMERIC`]: not a number); `AVG` as that sum, then its count.
#[derive(Debug, Clone)]
pub struct AggState {
    spec: AggSpec,
    /// Known values folded (`COUNT(*)`: tuples).
    count: u64,
    /// `SUM`/`AVG`: the integers, exactly — 2^64 values of 2^63 fit.
    ints: i128,
    doubles: f64,
    any_double: bool,
    non_numeric: bool,
    /// `MIN`/`MAX`: the best value so far.
    best: Option<Value>,
}

impl AggState {
    /// Fresh accumulator for `spec`.
    pub fn new(spec: AggSpec) -> Self {
        AggState {
            spec,
            count: 0,
            ints: 0,
            doubles: 0.0,
            any_double: false,
            non_numeric: false,
            best: None,
        }
    }

    /// `func` over `items`, start to finish (the `COLL_*` functions).
    pub fn of<'a>(func: AggFunc, items: impl IntoIterator<Item = &'a Value>) -> Value {
        let mut state = AggState::new(AggSpec::complete(func, 0));
        items.into_iter().for_each(|v| state.add(v));
        state.value()
    }

    /// Folds one input tuple: a raw one, or under [`AggPhase::Final`] a row
    /// of partial columns.
    pub fn update(&mut self, tuple: &Tuple) {
        self.fold(|col, f| f(&tuple[col]));
    }

    /// [`AggState::update`] with row `row` of `batch` for input tuple: each
    /// value is read where its column holds it.
    pub fn update_at(&mut self, batch: &ColumnBatch, row: usize) {
        self.fold(|col, f| batch.column(col).with_value(row, f));
    }

    /// Folds the input row whose column `col` `value` hands to its callback.
    fn fold(&mut self, value: impl Fn(usize, &mut dyn FnMut(&Value))) {
        let AggSpec { func, col, phase } = self.spec;
        let partial_count = |v: &Value| v.as_i64().and_then(|n| u64::try_from(n).ok()).unwrap_or(0);
        match (phase, func) {
            (AggPhase::Final, AggFunc::CountStar | AggFunc::Count) => {
                value(col, &mut |v| self.count += partial_count(v));
            }
            (AggPhase::Final, AggFunc::Avg) => {
                value(col, &mut |v| self.sum(v));
                value(col + 1, &mut |v| self.count += partial_count(v));
            }
            // reads no column of a raw tuple
            (_, AggFunc::CountStar) => self.count += 1,
            // the partial of SUM, MIN or MAX folds like one more raw value
            _ => value(col, &mut |v| self.add(v)),
        }
    }

    /// Folds one raw value.
    fn add(&mut self, v: &Value) {
        let func = self.spec.func;
        if v.is_unknown() && func != AggFunc::CountStar {
            return;
        }
        self.count += 1;
        match func {
            AggFunc::CountStar | AggFunc::Count => {}
            AggFunc::Sum | AggFunc::Avg => self.sum(v),
            AggFunc::Min | AggFunc::Max => {
                let better = if func == AggFunc::Min { Ordering::Less } else { Ordering::Greater };
                if self.best.as_ref().is_none_or(|b| total_cmp(v, b) == better) {
                    self.best = Some(v.clone());
                }
            }
        }
    }

    fn sum(&mut self, v: &Value) {
        match v {
            Value::Int(i) => self.ints += i128::from(*i),
            Value::Double(d) => {
                self.any_double = true;
                self.doubles += d;
            }
            // the partial sum of no values
            Value::Null | Value::Missing => {}
            _ => self.non_numeric = true,
        }
    }

    /// The sum so far; `partial` says who reads it (see [`NON_NUMERIC`]).
    fn total(&self, partial: bool) -> Value {
        if self.count == 0 || (self.non_numeric && !partial) {
            Value::Null
        } else if self.non_numeric {
            NON_NUMERIC
        } else if self.any_double {
            Value::Double(self.ints as f64 + self.doubles)
        } else {
            i64::try_from(self.ints).map_or(Value::Double(self.ints as f64), Value::Int)
        }
    }

    /// Appends this aggregate's output to `row`: its final value, or under
    /// [`AggPhase::Partial`] its partial columns.
    pub fn finish(&self, row: &mut Vec<Value>) {
        match (self.spec.phase, self.spec.func) {
            (AggPhase::Partial, AggFunc::Sum) => row.push(self.total(true)),
            (AggPhase::Partial, AggFunc::Avg) => {
                row.extend([self.total(true), Value::Int(self.count as i64)]);
            }
            // the partial of a count, MIN or MAX is its value so far
            _ => row.push(self.value()),
        }
    }

    /// The final value.
    fn value(&self) -> Value {
        match self.spec.func {
            AggFunc::CountStar | AggFunc::Count => Value::Int(self.count as i64),
            AggFunc::Min | AggFunc::Max => self.best.clone().unwrap_or(Value::Null),
            AggFunc::Sum => self.total(false),
            AggFunc::Avg => self
                .total(false)
                .as_f64()
                .map_or(Value::Null, |sum| Value::Double(sum / self.count as f64)),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    fn rows() -> Vec<Result<Tuple>> {
        vec![
            Ok(vec![Value::Int(1), Value::Double(2.5)]),
            Ok(vec![Value::Int(3), Value::Null]),
            Ok(vec![Value::Int(2), Value::Double(0.5)]),
            Ok(vec![Value::Null, Value::Double(1.0)]),
        ]
    }

    fn scalar_aggregate(input: Vec<Result<Tuple>>, aggs: &[AggSpec]) -> Tuple {
        let ctx = RuntimeCtx::temp().unwrap();
        let kind = OpKind::Aggregate { aggs: aggs.to_vec() };
        let mut out = drive(&kind, vec![Box::new(input.into_iter())], &ctx).unwrap().tuples;
        assert_eq!(out.len(), 1, "a scalar aggregate emits exactly one tuple");
        out.remove(0)
    }

    #[test]
    fn count_star_vs_count_col() {
        let out =
            scalar_aggregate(rows(), &[AggSpec::complete(AggFunc::CountStar, 0), AggSpec::complete(AggFunc::Count, 0), AggSpec::complete(AggFunc::Count, 1)]);
        assert_eq!(out, vec![Value::Int(4), Value::Int(3), Value::Int(3)]);
    }

    #[test]
    fn sum_avg_min_max() {
        let out = scalar_aggregate(
            rows(),
            &[
                AggSpec::complete(AggFunc::Sum, 0),
                AggSpec::complete(AggFunc::Avg, 0),
                AggSpec::complete(AggFunc::Min, 0),
                AggSpec::complete(AggFunc::Max, 0),
                AggSpec::complete(AggFunc::Sum, 1),
            ],
        );
        assert_eq!(out[0], Value::Int(6));
        assert_eq!(out[1], Value::Double(2.0));
        assert_eq!(out[2], Value::Int(1));
        assert_eq!(out[3], Value::Int(3));
        assert_eq!(out[4], Value::Double(4.0));
    }

    #[test]
    fn empty_input_yields_null_and_zero() {
        let out = scalar_aggregate(
            Vec::new(),
            &[AggSpec::complete(AggFunc::CountStar, 0), AggSpec::complete(AggFunc::Sum, 0), AggSpec::complete(AggFunc::Min, 0), AggSpec::complete(AggFunc::Avg, 0)],
        );
        assert_eq!(out, vec![Value::Int(0), Value::Null, Value::Null, Value::Null]);
    }

    #[test]
    fn int_overflow_to_double_path() {
        let rows = vec![Ok(vec![Value::Int(5)]), Ok(vec![Value::Double(0.5)])];
        let out = scalar_aggregate(rows, &[AggSpec::complete(AggFunc::Sum, 0)]);
        assert_eq!(out[0], Value::Double(5.5), "mixed numerics sum as double");
    }

    #[test]
    fn a_sum_outside_i64_is_a_double_and_a_non_number_makes_it_null() {
        let col = |vals: &[Value]| vals.iter().map(|v| Ok(vec![v.clone()])).collect::<Vec<_>>();
        let sum_avg = [AggSpec::complete(AggFunc::Sum, 0), AggSpec::complete(AggFunc::Avg, 0)];
        let out = scalar_aggregate(col(&[Value::Int(i64::MAX), Value::Int(1)]), &sum_avg);
        assert_eq!(out, vec![Value::Double(2f64.powi(63)), Value::Double(2f64.powi(62))]);
        // exactly, in whatever order: the running sum may leave i64 and return
        let out = scalar_aggregate(col(&[Value::Int(i64::MAX), Value::Int(1), Value::Int(-2)]), &sum_avg);
        assert_eq!(out[0], Value::Int(i64::MAX - 1));
        let out = scalar_aggregate(col(&[Value::Int(1), Value::from("a"), Value::Null]), &sum_avg);
        assert_eq!(out, vec![Value::Null, Value::Null], "not diluted, not skipped");
    }

    /// What an aggregate may meet: small integers, half-integers (their sums
    /// are exact and none equals an integer), the unknowns, a string, and an
    /// integer two of which leave `i64` whatever else is summed with them.
    fn arb_value() -> impl Strategy<Value = Value> {
        (0u8..16, -1_000i64..1_000).prop_map(|(kind, k)| match kind {
            0 => Value::Null,
            1 => Value::Missing,
            2 => Value::from("a"),
            3 => Value::Int((1 << 62) + (1 << 40)),
            4..=8 => Value::Double(k as f64 + 0.5),
            _ => Value::Int(k),
        })
    }

    /// Equal, a `Double` to within the rounding of a sum taken in another order.
    fn same(a: &Value, b: &Value) -> bool {
        match (a, b) {
            (Value::Double(x), Value::Double(y)) => (x - y).abs() <= 1e-9 * x.abs().max(y.abs()),
            _ => a == b,
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// The whole contract of the phases: however an input is split,
        /// `Partial` over each part then `Final` over the partial rows is
        /// `Complete` over the input.
        #[test]
        fn partial_then_final_is_complete(
            values in prop::collection::vec(arb_value(), 0..40),
            cuts in prop::collection::vec(0usize..41, 0..4),
        ) {
            use AggFunc::*;
            let funcs = [CountStar, Count, Sum, Min, Max, Avg];
            let run = |phase, col: &dyn Fn(usize) -> usize, input: &[Tuple]| -> Tuple {
                let aggs = funcs.iter().enumerate().map(|(i, f)| AggSpec { func: *f, col: col(i), phase });
                scalar_aggregate(input.iter().cloned().map(Ok).collect(), &aggs.collect::<Vec<_>>())
            };
            let input: Vec<Tuple> = values.iter().map(|v| vec![v.clone()]).collect();
            let complete = run(AggPhase::Complete, &|_| 0, &input);

            let mut cuts: Vec<usize> = cuts.iter().map(|c| c % (input.len() + 1)).collect();
            cuts.extend([0, input.len()]);
            cuts.sort_unstable();
            let partials: Vec<Tuple> =
                cuts.windows(2).map(|w| run(AggPhase::Partial, &|_| 0, &input[w[0]..w[1]])).collect();
            // a function's partial columns follow those of the functions before it
            let first_col = |i: usize| funcs[..i].iter().map(AggFunc::partial_cols).sum();
            let split = run(AggPhase::Final, &first_col, &partials);

            for ((func, whole), split) in funcs.iter().zip(&complete).zip(&split) {
                prop_assert!(same(whole, split), "{func:?} of {values:?} cut at {cuts:?}: {whole:?} whole, {split:?} split");
            }
        }
    }

    #[test]
    fn an_input_is_pulled_only_while_its_port_is_wanted() {
        // A join wants its build side (port 1) to the end before the first
        // probe tuple: the probe iterator must not be touched until then.
        let ctx = RuntimeCtx::temp().unwrap();
        let build_done = std::cell::Cell::new(false);
        let build = (0..3).map(|i| Ok(vec![Value::Int(i)])).chain(std::iter::from_fn(|| {
            build_done.set(true);
            None
        }));
        let probe = (0..3).map(|i| {
            assert!(build_done.get(), "probe pulled before the build side ended");
            Ok(vec![Value::Int(i)])
        });
        let kind = OpKind::HashJoin {
            left_keys: vec![0],
            right_keys: vec![0],
            kind: crate::job::JoinKind::Inner,
            right_arity: 1,
            memory: 1 << 20,
        };
        let out = drive(&kind, vec![Box::new(probe), Box::new(build)], &ctx).unwrap();
        assert_eq!(out.tuples.len(), 3);
    }
}
