//! Operator implementations and the one contract they are driven through.
//!
//! An [`Operator`] is a push/end state machine that lives next to its
//! algorithm ([`sort`], [`join`], [`groupby`], [`stream`]): it is handed the
//! tuples of one input port at a time, says at each end-of-input which port
//! it wants next, and once it wants none is drained one bounded unit of work
//! at a time. [`Running::pump`] is the only loop that drives one. The
//! executor calls it with its edge-backed ports, [`drive`] and the grace
//! recursion of the spilling operators call it with iterators; everything an
//! operator may touch while it runs arrives in the [`OpCtx`] of the step.
//!
//! This module also holds the aggregate-function machinery shared by scalar
//! aggregation and group-by.

pub mod groupby;
pub mod join;
pub mod sort;
pub(crate) mod stream;

use crate::cancel::CancellationToken;
use crate::ctx::{RunHandle, RunReader, RuntimeCtx};
use crate::error::{HyracksError, Result};
use crate::exec::{NoWake, Notifier, Router};
use crate::frame::{u32_len, Frame, Tuple};
use crate::job::{AggSpec, OpKind};
use crate::sched::MORSEL_TUPLES;
use asterix_adm::compare::total_cmp;
use asterix_adm::Value;
use asterix_obs::OpMetrics;
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
}

impl OpCtx<'_> {
    /// Emits one output tuple; `false` when every consumer is gone.
    #[inline]
    pub fn emit(&mut self, t: Tuple) -> Result<bool> {
        self.out.push(self.wake, self.metrics, t)
    }

    /// Emits a tuple passed through unchanged, with the byte size it
    /// arrived with.
    #[inline]
    pub fn emit_sized(&mut self, t: Tuple, size: u32) -> Result<bool> {
        self.out.push_cached(self.wake, self.metrics, t, size)
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

    /// One tuple of the wanted port, with its cached byte size.
    fn on_tuple(&mut self, port: usize, t: Tuple, size: u32, cx: &mut OpCtx<'_>) -> Result<bool>;

    /// The wanted port is exhausted; returns the port wanted next (joins:
    /// build before probe), `None` to be drained.
    fn on_end(&mut self, _port: usize, _cx: &mut OpCtx<'_>) -> Result<Option<usize>> {
        Ok(None)
    }

    /// One bounded unit of output work: at most one tuple emitted, or one
    /// tuple moved between spill runs.
    fn on_drain(&mut self, _cx: &mut OpCtx<'_>) -> Result<bool> {
        Ok(false)
    }
}

/// One `poll` of an input.
#[derive(Debug)]
pub(crate) enum Polled {
    /// A tuple with its cached byte size.
    Tuple(Tuple, u32),
    /// Nothing buffered, producers still live: go idle until notified.
    Pending,
    /// Every producer finished cleanly.
    End,
}

/// Where an operator's tuples come from: an edge-backed port in a job, an
/// iterator everywhere else.
pub(crate) trait Input {
    fn poll(&mut self, cx: &mut OpCtx<'_>) -> Result<Polled>;
}

/// An input fed from an iterator (a spill run, a test vector): never
/// pending, and not asked again after its end.
pub(crate) struct IterInput<I>(Option<I>);

impl<I: Iterator<Item = Result<Tuple>>> Input for IterInput<I> {
    fn poll(&mut self, _cx: &mut OpCtx<'_>) -> Result<Polled> {
        match self.0.as_mut().and_then(Iterator::next) {
            Some(t) => {
                let t = t?;
                let size = u32_len("tuple size", Frame::tuple_size(&t))?;
                Ok(Polled::Tuple(t, size))
            }
            None => {
                self.0 = None;
                Ok(Polled::End)
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
    /// the operator, an end-of-input, or a unit of drain.
    pub fn pump<I: Input>( // xlint: actor_entry
        &mut self,
        inputs: &mut [I],
        cx: &mut OpCtx<'_>,
        budget: usize,
    ) -> Result<Flow> {
        for _ in 0..budget {
            let more = match self.want {
                None => self.op.on_drain(cx)?,
                Some(port) => {
                    let Some(input) = inputs.get_mut(port) else {
                        return Err(HyracksError::InvalidJob(format!("input port {port} missing")));
                    };
                    match input.poll(cx)? {
                        Polled::Pending => return Ok(Flow::Idle),
                        Polled::Tuple(t, size) => self.op.on_tuple(port, t, size, cx)?,
                        Polled::End => {
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
        let inputs = runs.iter().map(|r| Ok(IterInput(Some(r.read()?)))).collect::<Result<_>>()?;
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
/// iterators for ports. `inputs[i]` feeds input port `i`; an input is pulled
/// only while the operator wants that port.
pub fn drive<'a>(
    kind: &OpKind,
    inputs: Vec<Box<dyn Iterator<Item = Result<Tuple>> + 'a>>,
    ctx: &Arc<RuntimeCtx>,
) -> Result<Driven> {
    let mut run = Running::new(kind.operator(0));
    let mut inputs: Vec<_> = inputs.into_iter().map(|i| IterInput(Some(i))).collect();
    let mut out = Router::collector(ctx);
    let mut metrics = OpMetrics::default();
    let token = CancellationToken::new();
    let mut cx =
        OpCtx { metrics: &mut metrics, token: &token, ctx, out: &mut out, wake: &NoWake };
    while run.pump(&mut inputs, &mut cx, MORSEL_TUPLES)? != Flow::Finished {}
    Ok(Driven { tuples: out.take_collected(), metrics })
}

/// Running state of one aggregate function (SQL null semantics: NULL and
/// MISSING inputs are skipped; aggregates over no values yield NULL, except
/// COUNT which yields 0).
#[derive(Debug, Clone)]
pub struct AggState {
    spec: AggSpec,
    count: u64,
    sum_int: i64,
    sum_double: f64,
    ints_only: bool,
    min: Option<Value>,
    max: Option<Value>,
}

impl AggState {
    /// Fresh accumulator for `spec`.
    pub fn new(spec: AggSpec) -> Self {
        AggState {
            spec,
            count: 0,
            sum_int: 0,
            sum_double: 0.0,
            ints_only: true,
            min: None,
            max: None,
        }
    }

    /// Folds one tuple into the accumulator.
    pub fn update(&mut self, tuple: &Tuple) {
        let col = match self.spec {
            AggSpec::CountStar => {
                self.count += 1;
                return;
            }
            AggSpec::Count(c)
            | AggSpec::Sum(c)
            | AggSpec::Min(c)
            | AggSpec::Max(c)
            | AggSpec::Avg(c) => c,
        };
        let v = &tuple[col];
        if v.is_unknown() {
            return;
        }
        self.count += 1;
        match self.spec {
            AggSpec::Sum(_) | AggSpec::Avg(_) => match v {
                Value::Int(i) => {
                    self.sum_int = self.sum_int.wrapping_add(*i);
                    self.sum_double += *i as f64;
                }
                Value::Double(d) => {
                    self.ints_only = false;
                    self.sum_double += d;
                }
                _ => { /* non-numeric values are skipped, like NULLs */ }
            },
            AggSpec::Min(_)
                if self.min.as_ref().is_none_or(|m| total_cmp(v, m) == Ordering::Less) => {
                    self.min = Some(v.clone());
                }
            AggSpec::Max(_)
                if self.max.as_ref().is_none_or(|m| total_cmp(v, m) == Ordering::Greater) => {
                    self.max = Some(v.clone());
                }
            _ => {}
        }
    }

    /// Produces the final aggregate value.
    pub fn finish(&self) -> Value {
        match self.spec {
            AggSpec::CountStar | AggSpec::Count(_) => Value::Int(self.count as i64),
            AggSpec::Sum(_) => {
                if self.count == 0 {
                    Value::Null
                } else if self.ints_only {
                    Value::Int(self.sum_int)
                } else {
                    Value::Double(self.sum_double)
                }
            }
            AggSpec::Avg(_) => {
                if self.count == 0 {
                    Value::Null
                } else {
                    Value::Double(self.sum_double / self.count as f64)
                }
            }
            AggSpec::Min(_) => self.min.clone().unwrap_or(Value::Null),
            AggSpec::Max(_) => self.max.clone().unwrap_or(Value::Null),
        }
    }

    /// Approximate heap footprint for memory budgeting.
    pub fn approx_bytes(&self) -> usize {
        64 + self.min.as_ref().map_or(0, Value::heap_size)
            + self.max.as_ref().map_or(0, Value::heap_size)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
            scalar_aggregate(rows(), &[AggSpec::CountStar, AggSpec::Count(0), AggSpec::Count(1)]);
        assert_eq!(out, vec![Value::Int(4), Value::Int(3), Value::Int(3)]);
    }

    #[test]
    fn sum_avg_min_max() {
        let out = scalar_aggregate(
            rows(),
            &[
                AggSpec::Sum(0),
                AggSpec::Avg(0),
                AggSpec::Min(0),
                AggSpec::Max(0),
                AggSpec::Sum(1),
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
            &[AggSpec::CountStar, AggSpec::Sum(0), AggSpec::Min(0), AggSpec::Avg(0)],
        );
        assert_eq!(out, vec![Value::Int(0), Value::Null, Value::Null, Value::Null]);
    }

    #[test]
    fn int_overflow_to_double_path() {
        let rows = vec![Ok(vec![Value::Int(5)]), Ok(vec![Value::Double(0.5)])];
        let out = scalar_aggregate(rows, &[AggSpec::Sum(0)]);
        assert_eq!(out[0], Value::Double(5.5), "mixed numerics sum as double");
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
