//! Tuples and frames — the units of dataflow.
//!
//! Hyracks moves data between operators in *frames*: fixed-budget batches of
//! tuples. Batching amortizes channel synchronization the way real Hyracks
//! frames amortize network/buffer costs. A tuple is a flat vector of ADM
//! [`Value`]s; operators address fields by column index (the Algebricks
//! compiler assigns columns to logical variables).
//!
//! Sizing a tuple walks every `Value`, which is too expensive to repeat each
//! time a tuple crosses an exchange unchanged. Frames therefore store the
//! byte size alongside each tuple; pass-through paths carry it via
//! [`Rows::push_sized`] and [`Rows::into_sized`] instead of re-walking,
//! and the exchange hot path keeps the already-validated `u32` cache via
//! [`Rows::push_cached`] (no re-walk *and* no re-validation).
//!
//! A frame is also the natural *morsel* bound: the scheduler runs operator
//! steps over at most [`crate::sched::MORSEL_TUPLES`] tuples, about one
//! frame's worth, before yielding the worker.
//!
//! What crosses an edge is a [`Frame`]: [`Rows`] as above, or a
//! [`ColumnBatch`] — the same tuples held a column at a time, as a scan
//! produces them and the operators that work on columns pass them on. A
//! batch is one frame however many rows it has, and its rows count as
//! tuples wherever tuples are counted.

use crate::error::{HyracksError, Result};
use asterix_adm::{ColumnBatch, Value};

/// One dataflow tuple: a flat row of values.
pub type Tuple = Vec<Value>;

/// Checked narrowing for the `u32` length fields used by frame size caches
/// and spill-run framing. Every `as u32` on a length must go through here:
/// a silent truncation would corrupt byte accounting (frames) or desync the
/// run format (spills) long after the cast.
#[inline]
pub fn u32_len(what: &'static str, n: usize) -> Result<u32> {
    u32::try_from(n).map_err(|_| HyracksError::SizeOverflow { what, len: n })
}

/// Target frame payload size in bytes.
pub const FRAME_BUDGET: usize = 64 * 1024;

/// What an edge carries at a time.
#[derive(Debug, Clone)]
pub enum Frame {
    Rows(Rows),
    Batch(ColumnBatch),
}

impl Frame {
    /// Tuples held.
    pub fn len(&self) -> usize {
        match self {
            Frame::Rows(rows) => rows.len(),
            Frame::Batch(batch) => batch.rows(),
        }
    }

    /// True when no tuples are held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Approximate payload bytes.
    pub fn bytes(&self) -> usize {
        match self {
            Frame::Rows(rows) => rows.bytes(),
            Frame::Batch(batch) => batch.heap_size(),
        }
    }
}

/// A batch of tuples bounded by an approximate byte budget.
#[derive(Debug, Default, Clone)]
pub struct Rows {
    tuples: Vec<Tuple>,
    /// Cached [`Rows::tuple_size`] of each tuple, index-parallel with
    /// `tuples`.
    sizes: Vec<u32>,
    bytes: usize,
}

impl Rows {
    /// Creates an empty frame.
    pub fn new() -> Self {
        Rows::default()
    }

    /// Creates an empty frame with room for `n` tuples.
    pub fn with_capacity(n: usize) -> Self {
        Rows { tuples: Vec::with_capacity(n), sizes: Vec::with_capacity(n), bytes: 0 }
    }

    /// Approximate size of a tuple, used for frame and working-memory
    /// accounting.
    pub fn tuple_size(t: &Tuple) -> usize {
        24 + t.iter().map(Value::heap_size).sum::<usize>()
    }

    /// Adds a tuple; returns `true` when the frame is full and should be
    /// shipped. Errors if the tuple's size cannot be cached in the frame's
    /// `u32` size column.
    #[inline]
    pub fn push(&mut self, t: Tuple) -> Result<bool> {
        let size = Self::tuple_size(&t);
        self.push_sized(t, size)
    }

    /// Adds a tuple whose size the caller already knows (e.g. carried from
    /// an upstream frame), skipping the per-value walk. The size is
    /// validated before any state changes, so a rejected push leaves the
    /// frame untouched.
    #[inline]
    pub fn push_sized(&mut self, t: Tuple, size: usize) -> Result<bool> {
        let size32 = u32_len("tuple size", size)?;
        Ok(self.push_cached(t, size32))
    }

    /// Adds a tuple whose `u32` cached size came straight from another
    /// frame's size column ([`Rows::into_sized`]), so it has already been
    /// validated once — the repartition hot path: no size walk, no range
    /// check, no `Result`. Returns `true` when the frame is full.
    #[inline]
    pub fn push_cached(&mut self, t: Tuple, size: u32) -> bool {
        self.bytes += size as usize;
        self.sizes.push(size);
        self.tuples.push(t);
        self.bytes >= FRAME_BUDGET
    }

    /// Number of tuples.
    pub fn len(&self) -> usize {
        self.tuples.len()
    }

    /// True when no tuples are buffered.
    pub fn is_empty(&self) -> bool {
        self.tuples.is_empty()
    }

    /// Approximate payload bytes.
    pub fn bytes(&self) -> usize {
        self.bytes
    }

    /// The buffered tuples.
    pub fn tuples(&self) -> &[Tuple] {
        &self.tuples
    }

    /// Consumes the frame, yielding `(tuple, cached size)` pairs so
    /// downstream frames can re-buffer without re-sizing.
    pub fn into_sized(self) -> impl Iterator<Item = (Tuple, u32)> {
        self.tuples.into_iter().zip(self.sizes)
    }

    /// Drains the frame for reuse.
    pub fn take(&mut self) -> Rows {
        std::mem::take(self)
    }
}

impl FromIterator<Tuple> for Rows {
    /// Test/bench convenience. Collection stops at the first tuple whose
    /// size exceeds the `u32` cache (use [`Rows::push`] directly when that
    /// case must be surfaced as an error).
    fn from_iter<T: IntoIterator<Item = Tuple>>(iter: T) -> Self {
        let mut f = Rows::new();
        for t in iter {
            if f.push(t).is_err() {
                break;
            }
        }
        f
    }
}

impl IntoIterator for Rows {
    type Item = Tuple;
    type IntoIter = std::vec::IntoIter<Tuple>;
    fn into_iter(self) -> Self::IntoIter {
        self.tuples.into_iter()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_reports_full_at_budget() {
        let mut f = Rows::new();
        let big = vec![Value::String("x".repeat(FRAME_BUDGET / 4))];
        assert!(!f.push(big.clone()).unwrap());
        assert!(!f.push(big.clone()).unwrap());
        assert!(!f.push(big.clone()).unwrap());
        assert!(f.push(big).unwrap(), "fourth large tuple crosses the budget");
        assert_eq!(f.len(), 4);
    }

    #[test]
    fn take_resets() {
        let mut f = Rows::new();
        f.push(vec![Value::Int(1)]).unwrap();
        let taken = f.take();
        assert_eq!(taken.len(), 1);
        assert!(f.is_empty());
        assert_eq!(f.bytes(), 0);
    }

    #[test]
    fn from_iter_collects() {
        let f: Rows = (0..10).map(|i| vec![Value::Int(i)]).collect();
        assert_eq!(f.len(), 10);
        let back: Vec<Tuple> = f.into_iter().collect();
        assert_eq!(back[9], vec![Value::Int(9)]);
    }

    #[test]
    fn sized_roundtrip_preserves_accounting() {
        let mut a = Rows::new();
        a.push(vec![Value::from("hello"), Value::Int(1)]).unwrap();
        a.push(vec![Value::Int(2)]).unwrap();
        let total = a.bytes();
        // Re-buffer into a second frame through the sized path: byte
        // accounting must match without re-walking any Value.
        let mut b = Rows::with_capacity(a.len());
        for (t, size) in a.into_sized() {
            assert_eq!(size as usize, Rows::tuple_size(&t));
            b.push_sized(t, size as usize).unwrap();
        }
        assert_eq!(b.bytes(), total);
        assert_eq!(b.len(), 2);
    }

    #[test]
    fn u32_len_boundary() {
        assert_eq!(u32_len("x", 0).unwrap(), 0);
        assert_eq!(u32_len("x", u32::MAX as usize).unwrap(), u32::MAX);
        let err = u32_len("tuple size", u32::MAX as usize + 1).unwrap_err();
        assert!(
            err.to_string().contains("size overflow: tuple size"),
            "typed error with context: {err}"
        );
    }

    #[test]
    fn oversized_push_is_rejected_without_corrupting_the_frame() {
        let mut f = Rows::new();
        f.push(vec![Value::Int(1)]).unwrap();
        let before = f.bytes();
        // A declared size that used to truncate (`as u32`) to ~0 and poison
        // the frame's byte accounting must now be a typed error that leaves
        // the frame exactly as it was.
        let huge = u32::MAX as usize + 17;
        assert!(f.push_sized(vec![Value::Int(2)], huge).is_err());
        assert_eq!(f.len(), 1);
        assert_eq!(f.bytes(), before);
        let sizes: Vec<u32> = {
            let mut b = Rows::new();
            for (t, s) in f.into_sized() {
                b.push_sized(t, s as usize).unwrap();
            }
            b.into_sized().map(|(_, s)| s).collect()
        };
        assert_eq!(sizes.len(), 1, "size cache stayed index-parallel");
    }
}
