//! Tuples and frames — the units of dataflow.
//!
//! Hyracks moves data between operators in *frames*. A frame here is a
//! [`ColumnBatch`], the one thing that crosses an edge or reaches an
//! operator: a scan hands one out as it reads, an operator that works on
//! columns passes it on whole, and the rows an operator emits one at a time
//! are gathered into one by the router ([`FrameBuilder`]) until they pass
//! [`FRAME_BUDGET`]. A tuple is a flat vector of ADM [`Value`]s; operators
//! address fields by column index (the Algebricks compiler assigns columns
//! to logical variables).
//!
//! A frame is also the natural *morsel* bound: the scheduler runs operator
//! steps over at most [`crate::sched::MORSEL_TUPLES`] tuples, about one
//! frame's worth, before yielding the worker.

use crate::error::{HyracksError, Result};
use asterix_adm::{Column, ColumnBatch, Value};

/// One dataflow tuple: a flat row of values.
pub type Tuple = Vec<Value>;

/// Checked narrowing for the `u32` length fields of spill-run framing.
/// Every `as u32` on a length must go through here: a silent truncation
/// would desync the run format long after the cast.
#[inline]
pub fn u32_len(what: &'static str, n: usize) -> Result<u32> {
    u32::try_from(n).map_err(|_| HyracksError::SizeOverflow { what, len: n })
}

/// Target frame payload size in bytes.
pub const FRAME_BUDGET: usize = 64 * 1024;

/// Approximate size of a tuple, used for frame and working-memory
/// accounting.
pub fn tuple_size(t: &Tuple) -> usize {
    24 + t.iter().map(Value::heap_size).sum::<usize>()
}

/// Rows gathered into the batch that ships as one frame: a column per
/// field, each built with [`Column::push_value`], so an integer column
/// arrives typed and `MISSING` stays a row without a value. The rows of one
/// frame are all as wide.
#[derive(Debug, Default)]
pub(crate) struct FrameBuilder {
    columns: Vec<Column>,
    rows: usize,
    bytes: usize,
}

impl FrameBuilder {
    pub fn is_empty(&self) -> bool {
        self.rows == 0
    }

    /// Whether `t` may join the rows held: it is as wide as they are.
    pub fn fits(&self, t: &Tuple) -> bool {
        self.rows == 0 || t.len() == self.columns.len()
    }

    /// Adds a tuple of `size` bytes ([`tuple_size`]) that [`fits`]; `true`
    /// when the frame is full and should be shipped.
    ///
    /// [`fits`]: FrameBuilder::fits
    pub fn push(&mut self, t: Tuple, size: usize) -> bool {
        debug_assert!(self.fits(&t), "a row of another width");
        if self.rows == 0 {
            self.columns.resize_with(t.len(), Column::new);
        }
        for (column, v) in self.columns.iter_mut().zip(t) {
            column.push_value(v);
        }
        self.rows += 1;
        self.bytes += size;
        self.bytes >= FRAME_BUDGET
    }

    /// The rows held, as a batch; the builder is left empty.
    pub fn take(&mut self) -> Result<ColumnBatch> {
        let FrameBuilder { columns, rows, .. } = std::mem::take(self);
        Ok(ColumnBatch::new(columns, rows)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn u32_len_boundary() {
        assert_eq!(u32_len("x", 0).unwrap(), 0);
        assert_eq!(u32_len("x", u32::MAX as usize).unwrap(), u32::MAX);
        let err = u32_len("spill-run frame", u32::MAX as usize + 1).unwrap_err();
        assert!(
            err.to_string().contains("size overflow: spill-run frame"),
            "typed error with context: {err}"
        );
    }

    #[test]
    fn a_built_frame_gives_back_the_rows_it_was_given() {
        let rows = [
            vec![Value::Int(2), Value::Missing, Value::from("a")],
            vec![Value::Double(2.0), Value::Null, Value::Array(vec![Value::Missing])],
            vec![],
        ];
        let mut frame = FrameBuilder::default();
        for t in &rows[..2] {
            assert!(frame.fits(t));
            assert!(!frame.push(t.clone(), tuple_size(t)));
        }
        assert!(!frame.fits(&rows[2]), "a row of another width starts a frame of its own");
        let batch = frame.take().unwrap();
        assert!(frame.is_empty());
        assert_eq!(batch.into_rows().collect::<Vec<_>>(), rows[..2]);
        // zero columns still count their rows
        frame.push(Vec::new(), 24);
        frame.push(Vec::new(), 24);
        assert_eq!(frame.take().unwrap().into_rows().collect::<Vec<_>>(), [rows[2].clone(), rows[2].clone()]);
    }
}
