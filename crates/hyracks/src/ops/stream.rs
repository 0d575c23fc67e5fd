//! The streaming operators: a source, the transforms, limit, and
//! pass-through (union, result sink). None holds more than the frame in
//! hand: select, assign, project, limit and pass-through take it as it is —
//! a predicate narrows its selection, an assign appends a column — and pass
//! it on whole. Unnest reads its rows ([`each_row`]) and emits one at a time.

use crate::error::Result;
use crate::frame::Tuple;
use crate::job::{EvalFn, PredFn, Produced, SourceFactory, SourceStream};
use crate::ops::{each_row, OpCtx, Operator};
use asterix_adm::{ColumnBatch, Value};
use std::sync::Arc;

/// A data source: takes no input, drains the factory's iterator for its
/// partition.
pub(crate) struct Source {
    factory: Arc<dyn SourceFactory>,
    partition: usize,
    iter: Option<SourceStream>,
}

impl Source {
    pub fn new(factory: Arc<dyn SourceFactory>, partition: usize) -> Self {
        Source { factory, partition, iter: None }
    }
}

impl Operator for Source {
    fn first_port(&self) -> Option<usize> {
        None
    }

    fn on_batch(&mut self, _: usize, _: ColumnBatch, _: &mut OpCtx<'_>) -> Result<bool> {
        Ok(true)
    }

    fn on_drain(&mut self, cx: &mut OpCtx<'_>) -> Result<bool> {
        let iter = match &mut self.iter {
            Some(iter) => iter,
            None => self.iter.insert(self.factory.open(self.partition)?),
        };
        match iter.next().transpose()? {
            None => Ok(false),
            Some(Produced::Tuple(t)) => cx.emit(t),
            Some(Produced::Batch(batch)) => cx.emit_batch(batch),
        }
    }
}

pub(crate) struct Filter(pub PredFn);

impl Operator for Filter {
    fn on_batch(&mut self, _: usize, mut batch: ColumnBatch, cx: &mut OpCtx<'_>) -> Result<bool> {
        let keep = self.0.select(&batch)?;
        if keep.is_empty() {
            return Ok(true);
        }
        batch.select(keep);
        cx.emit_batch(batch)
    }
}

pub(crate) struct Assign(pub Vec<EvalFn>);

impl Operator for Assign {
    fn on_batch(&mut self, _: usize, mut batch: ColumnBatch, cx: &mut OpCtx<'_>) -> Result<bool> {
        for e in &self.0 {
            let column = e.eval_batch(&batch)?;
            batch.push_column(column)?;
        }
        cx.emit_batch(batch)
    }
}

/// Keeps the named columns, in order: the batch's columns are shared, not
/// copied.
pub(crate) struct Project(pub Vec<usize>);

impl Operator for Project {
    fn on_batch(&mut self, _: usize, batch: ColumnBatch, cx: &mut OpCtx<'_>) -> Result<bool> {
        cx.emit_batch(batch.project(&self.0))
    }
}

pub(crate) struct Unnest {
    pub expr: EvalFn,
    pub outer: bool,
}

impl Unnest {
    fn row(&self, t: Tuple, cx: &mut OpCtx<'_>) -> Result<bool> {
        let coll = self.expr.eval(&t)?;
        match coll.as_collection() {
            Some(items) if !items.is_empty() => {
                for item in items {
                    let mut row = t.clone();
                    row.push(item.clone());
                    if !cx.emit(row)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            _ if self.outer => {
                let mut row = t;
                row.push(Value::Missing);
                cx.emit(row)
            }
            _ => Ok(true),
        }
    }
}

impl Operator for Unnest {
    fn on_batch(&mut self, _: usize, batch: ColumnBatch, cx: &mut OpCtx<'_>) -> Result<bool> {
        each_row(batch, |t| self.row(t, cx))
    }
}

/// Skips `offset` tuples, passes `count`, and finishes with the frame that
/// holds the last one it may emit: its producers are released without
/// waiting for a frame past the quota.
pub(crate) struct Limit {
    offset: usize,
    /// Tuples still to emit; `None` = unlimited.
    left: Option<usize>,
}

impl Limit {
    pub fn new(offset: usize, count: Option<usize>) -> Self {
        Limit { offset, left: count }
    }
}

impl Operator for Limit {
    fn first_port(&self) -> Option<usize> {
        (self.left != Some(0)).then_some(0)
    }

    fn on_batch(&mut self, _: usize, mut batch: ColumnBatch, cx: &mut OpCtx<'_>) -> Result<bool> {
        let skipped = self.offset.min(batch.rows());
        self.offset -= skipped;
        batch.slice(skipped, self.left);
        if batch.is_empty() {
            return Ok(true);
        }
        if let Some(left) = &mut self.left {
            *left -= batch.rows();
        }
        Ok(cx.emit_batch(batch)? && self.left != Some(0))
    }
}

/// Passes its input ports through unchanged, one after the other: the
/// union of two inputs, and the result sink (one input, whose output is
/// the job's result).
pub(crate) struct Concat {
    pub ports: usize,
}

impl Operator for Concat {
    fn on_batch(&mut self, _: usize, batch: ColumnBatch, cx: &mut OpCtx<'_>) -> Result<bool> {
        cx.emit_batch(batch)
    }

    fn on_end(&mut self, port: usize, _: &mut OpCtx<'_>) -> Result<Option<usize>> {
        Ok((port + 1 < self.ports).then_some(port + 1))
    }
}

#[cfg(test)]
mod tests {
    use crate::ctx::RuntimeCtx;
    use crate::error::Result;
    use crate::frame::{tuple_size, Tuple, FRAME_BUDGET};
    use crate::job::OpKind;
    use crate::ops::drive;
    use asterix_adm::Value;
    use std::cell::Cell;

    /// Endless input that counts how many tuples were pulled from it.
    fn counted(pulled: &Cell<u64>) -> Box<dyn Iterator<Item = Result<Tuple>> + '_> {
        Box::new((0..).map(move |i| {
            pulled.set(pulled.get() + 1);
            Ok(vec![Value::Int(i)])
        }))
    }

    #[test]
    fn limit_asks_for_no_frame_past_the_one_holding_its_last_tuple() {
        let ctx = RuntimeCtx::temp().unwrap();
        let pulled = Cell::new(0);
        let kind = OpKind::Limit { offset: 5, count: Some(10) };
        let out = drive(&kind, vec![counted(&pulled)], &ctx).unwrap().tuples;
        assert_eq!(out.len(), 10);
        assert_eq!(out[0], vec![Value::Int(5)], "offset skipped");
        let per_frame = FRAME_BUDGET.div_ceil(tuple_size(&vec![Value::Int(0)]));
        assert_eq!(pulled.get(), per_frame as u64, "the first frame holds the quota, and no tuple past it is asked for");
    }

    #[test]
    fn limit_zero_asks_for_nothing() {
        let ctx = RuntimeCtx::temp().unwrap();
        let pulled = Cell::new(0);
        let kind = OpKind::Limit { offset: 3, count: Some(0) };
        let out = drive(&kind, vec![counted(&pulled)], &ctx).unwrap().tuples;
        assert!(out.is_empty());
        assert_eq!(pulled.get(), 0);
    }

    #[test]
    fn union_reads_port_0_to_its_end_first() {
        let ctx = RuntimeCtx::temp().unwrap();
        let a = (0..3).map(|i| Ok(vec![Value::Int(i)]));
        let b = (10..12).map(|i| Ok(vec![Value::Int(i)]));
        let out = drive(&OpKind::UnionAll, vec![Box::new(a), Box::new(b)], &ctx).unwrap().tuples;
        let got: Vec<i64> = out.iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(got, vec![0, 1, 2, 10, 11]);
    }
}
