//! External (memory-bounded) merge sort — the classic run-generation +
//! k-way-merge operator, honoring the paper's assumption that intermediate
//! results "can well exceed the size of main memory" (ref \[10\],
//! experiment E5).
//!
//! Tuples are buffered up to the working-memory budget, sorted, and written
//! out as spill runs; runs are then merged with a bounded fan-in (multiple
//! merge passes when run count exceeds [`MERGE_FAN_IN`]). When everything
//! fits, no run is spilled and the sort is purely in-memory.

use crate::ctx::{spill_batch, RunHandle, RunWriter};
use crate::error::Result;
use crate::frame::{tuple_size, Tuple};
use crate::job::{cmp_tuples, SortKey};
use crate::ops::{each_row, OpCtx, Operator};
use asterix_adm::ColumnBatch;
use std::cmp::{Ordering, Reverse};
use std::collections::{BinaryHeap, VecDeque};
use std::sync::Arc;

/// Maximum runs merged in one pass.
pub const MERGE_FAN_IN: usize = 16;

/// What pulling a blocking operator's output one unit at a time yields.
pub(crate) enum Advance {
    Tuple(Tuple),
    /// A bounded slice of work was done (a tuple moved between runs); no
    /// output yet.
    Worked,
    Done,
}

/// External sort: appends to the current run while it is fed and spills the
/// run, sorted, each time it reaches `memory` bytes. At end-of-input the
/// runs are merged down to one stream, [`MERGE_FAN_IN`] at a time, one tuple
/// per unit of drain.
pub(crate) struct Sort {
    keys: Vec<SortKey>,
    memory: usize,
    buffer: Vec<Tuple>,
    bytes: usize,
    runs: Vec<RunHandle>,
    out: SortOut,
}

enum SortOut {
    /// Everything fit: the sorted buffer (empty until end-of-input).
    Memory(std::vec::IntoIter<Tuple>),
    /// An intermediate pass over more than [`MERGE_FAN_IN`] runs: `todo` are
    /// the runs of this pass not merged yet, `cur` the group being merged
    /// into a new run, `next` the runs this pass has produced.
    Pass { todo: VecDeque<RunHandle>, cur: Option<(OwnedMerge, RunWriter)>, next: Vec<RunHandle> },
    /// The final, streaming merge.
    Final(OwnedMerge),
}

impl Sort {
    pub fn new(keys: Vec<SortKey>, memory: usize) -> Self {
        let out = SortOut::Memory(Vec::new().into_iter());
        Sort { keys, memory, buffer: Vec::new(), bytes: 0, runs: Vec::new(), out }
    }

    pub fn feed(&mut self, t: Tuple, cx: &mut OpCtx<'_>) -> Result<bool> {
        self.bytes += tuple_size(&t);
        self.buffer.push(t);
        if self.bytes >= self.memory {
            self.buffer.sort_by(|a, b| cmp_tuples(a, b, &self.keys));
            self.runs.push(spill_batch(cx.ctx, cx.metrics, &self.buffer)?);
            self.buffer.clear();
            self.bytes = 0;
        }
        Ok(true)
    }

    pub fn end(&mut self, cx: &mut OpCtx<'_>) -> Result<()> {
        self.buffer.sort_by(|a, b| cmp_tuples(a, b, &self.keys));
        let buffer = std::mem::take(&mut self.buffer);
        if self.runs.is_empty() {
            self.out = SortOut::Memory(buffer.into_iter());
            return Ok(());
        }
        if !buffer.is_empty() {
            self.runs.push(spill_batch(cx.ctx, cx.metrics, &buffer)?);
        }
        drop(buffer);
        self.start_pass(cx)
    }

    /// Starts the next merge over `self.runs`: the final one when they fit
    /// the fan-in, an intermediate pass otherwise.
    fn start_pass(&mut self, cx: &mut OpCtx<'_>) -> Result<()> {
        cx.ctx.stats.merge_passes.inc();
        let runs = std::mem::take(&mut self.runs);
        self.out = if runs.len() > MERGE_FAN_IN {
            SortOut::Pass { todo: runs.into(), cur: None, next: Vec::new() }
        } else {
            SortOut::Final(OwnedMerge::new(runs, self.keys.clone())?)
        };
        Ok(())
    }

    /// The next sorted tuple, or one unit of merge work towards it.
    pub fn advance(&mut self, cx: &mut OpCtx<'_>) -> Result<Advance> {
        match &mut self.out {
            SortOut::Memory(it) => Ok(it.next().map_or(Advance::Done, Advance::Tuple)),
            SortOut::Final(merge) => match merge.next() {
                None => Ok(Advance::Done),
                Some(t) => Ok(Advance::Tuple(t?)),
            },
            SortOut::Pass { todo, cur, next } => {
                match cur {
                    Some((merge, writer)) => match merge.next() {
                        Some(t) => writer.write(&t?, cx.metrics)?,
                        None => {
                            if let Some((_, writer)) = cur.take() {
                                next.push(writer.finish()?);
                            }
                        }
                    },
                    None if todo.is_empty() => {
                        self.runs = std::mem::take(next);
                        self.start_pass(cx)?;
                    }
                    None => {
                        let group: Vec<RunHandle> =
                            todo.drain(..MERGE_FAN_IN.min(todo.len())).collect();
                        let merge = OwnedMerge::new(group, self.keys.clone())?;
                        *cur = Some((merge, cx.ctx.new_run(cx.metrics)?));
                    }
                }
                Ok(Advance::Worked)
            }
        }
    }
}

impl Operator for Sort {
    fn on_batch(&mut self, _: usize, batch: ColumnBatch, cx: &mut OpCtx<'_>) -> Result<bool> {
        each_row(batch, |t| self.feed(t, cx))
    }

    fn on_end(&mut self, _: usize, cx: &mut OpCtx<'_>) -> Result<Option<usize>> {
        self.end(cx)?;
        Ok(None)
    }

    fn on_drain(&mut self, cx: &mut OpCtx<'_>) -> Result<bool> {
        match self.advance(cx)? {
            Advance::Tuple(t) => cx.emit(t),
            Advance::Worked => Ok(true),
            Advance::Done => Ok(false),
        }
    }
}

/// Heap entry: reversed ordering so BinaryHeap pops the smallest.
struct HeapItem {
    tuple: Tuple,
    stream: usize,
    keys: Arc<Vec<SortKey>>,
}

impl PartialEq for HeapItem {
    fn eq(&self, other: &Self) -> bool {
        cmp_tuples(&self.tuple, &other.tuple, &self.keys) == Ordering::Equal
    }
}
impl Eq for HeapItem {}
impl PartialOrd for HeapItem {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for HeapItem {
    fn cmp(&self, other: &Self) -> Ordering {
        cmp_tuples(&self.tuple, &other.tuple, &self.keys)
            .reverse()
            .then_with(|| self.stream.cmp(&other.stream).reverse())
    }
}

/// Generic k-way merge over sorted `Result<Tuple>` streams.
pub struct KWayMerge<I: Iterator<Item = Result<Tuple>>> {
    streams: Vec<I>,
    heap: BinaryHeap<HeapItem>,
    keys: Arc<Vec<SortKey>>,
    primed: bool,
    failed: bool,
}

impl<I: Iterator<Item = Result<Tuple>>> KWayMerge<I> {
    /// Builds a merge over `streams`, each individually sorted by `keys`.
    pub fn new(streams: Vec<I>, keys: Vec<SortKey>) -> Self {
        KWayMerge {
            streams,
            heap: BinaryHeap::new(),
            keys: Arc::new(keys),
            primed: false,
            failed: false,
        }
    }

    fn prime(&mut self) -> Result<()> {
        for i in 0..self.streams.len() {
            if let Some(item) = self.streams[i].next() {
                self.heap.push(HeapItem {
                    tuple: item?,
                    stream: i,
                    keys: Arc::clone(&self.keys),
                });
            }
        }
        Ok(())
    }
}

impl<I: Iterator<Item = Result<Tuple>>> Iterator for KWayMerge<I> {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        if !self.primed {
            self.primed = true;
            if let Err(e) = self.prime() {
                self.failed = true;
                return Some(Err(e));
            }
        }
        let head = self.heap.pop()?;
        if let Some(next) = self.streams[head.stream].next() {
            match next {
                Ok(t) => self.heap.push(HeapItem {
                    tuple: t,
                    stream: head.stream,
                    keys: Arc::clone(&self.keys),
                }),
                Err(e) => {
                    self.failed = true;
                    return Some(Err(e));
                }
            }
        }
        Some(Ok(head.tuple))
    }
}

/// Final-merge iterator owning its run handles (keeps spill files alive).
struct OwnedMerge {
    _runs: Vec<RunHandle>,
    inner: KWayMerge<crate::ctx::RunReader>,
}

impl OwnedMerge {
    fn new(runs: Vec<RunHandle>, keys: Vec<SortKey>) -> Result<Self> {
        let mut streams = Vec::with_capacity(runs.len());
        for r in &runs {
            streams.push(r.read()?);
        }
        Ok(OwnedMerge { _runs: runs, inner: KWayMerge::new(streams, keys) })
    }
}

impl Iterator for OwnedMerge {
    type Item = Result<Tuple>;
    fn next(&mut self) -> Option<Self::Item> {
        self.inner.next()
    }
}

/// Top-k: a max-heap of the k smallest tuples seen so far under `keys`, the
/// earlier arrival winning a tie. Never holds more than k tuples.
pub(crate) struct TopK {
    keys: Arc<Vec<SortKey>>,
    k: usize,
    /// Root = the largest kept tuple, the latest arrival among equals.
    kept: BinaryHeap<Reverse<HeapItem>>,
    seen: usize,
    out: std::vec::IntoIter<Reverse<HeapItem>>,
}

impl TopK {
    pub fn new(keys: Vec<SortKey>, k: usize) -> Self {
        TopK {
            keys: Arc::new(keys),
            k,
            kept: BinaryHeap::new(),
            seen: 0,
            out: Vec::new().into_iter(),
        }
    }
}

impl TopK {
    fn row(&mut self, t: Tuple) {
        let item = Reverse(HeapItem { tuple: t, stream: self.seen, keys: Arc::clone(&self.keys) });
        self.seen += 1;
        if self.kept.len() < self.k {
            self.kept.push(item);
        } else if let Some(mut worst) = self.kept.peek_mut() {
            if cmp_tuples(&item.0.tuple, &worst.0.tuple, &self.keys) == Ordering::Less {
                *worst = item;
            }
        }
    }
}

impl Operator for TopK {
    fn on_batch(&mut self, _: usize, batch: ColumnBatch, _: &mut OpCtx<'_>) -> Result<bool> {
        each_row(batch, |t| {
            self.row(t);
            Ok(true)
        })
    }

    fn on_end(&mut self, _: usize, _: &mut OpCtx<'_>) -> Result<Option<usize>> {
        self.out = std::mem::take(&mut self.kept).into_sorted_vec().into_iter();
        Ok(None)
    }

    fn on_drain(&mut self, cx: &mut OpCtx<'_>) -> Result<bool> {
        match self.out.next() {
            Some(item) => cx.emit(item.0.tuple),
            None => Ok(false),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ctx::RuntimeCtx;
    use crate::job::OpKind;
    use crate::ops::{drive, Driven};
    use asterix_adm::Value;

    fn tuples(n: i64, stride: i64) -> Vec<Result<Tuple>> {
        (0..n)
            .map(|i| Ok(vec![Value::Int((i * stride + 7) % n), Value::from(format!("p{i}"))]))
            .collect()
    }

    fn sort(input: Vec<Result<Tuple>>, keys: &[SortKey], memory: usize) -> (Driven, Arc<RuntimeCtx>) {
        let ctx = RuntimeCtx::temp().unwrap();
        let kind = OpKind::Sort { keys: keys.to_vec(), memory };
        let out = drive(&kind, vec![Box::new(input.into_iter())], &ctx).unwrap();
        for w in out.tuples.windows(2) {
            assert!(cmp_tuples(&w[0], &w[1], keys) != Ordering::Greater);
        }
        (out, ctx)
    }

    #[test]
    fn in_memory_sort() {
        let (out, ctx) = sort(tuples(1000, 37), &[SortKey::asc(0)], 64 << 20);
        assert_eq!(out.tuples.len(), 1000);
        assert_eq!(ctx.stats.spill_runs.get(), 0, "fit in memory");
    }

    #[test]
    fn spilling_sort_produces_same_order() {
        // tiny budget: force many runs
        let (out, ctx) = sort(tuples(5_000, 2371), &[SortKey::asc(0)], 8 << 10);
        assert_eq!(out.tuples.len(), 5_000);
        let (runs, bytes) = (ctx.stats.spill_runs.get(), ctx.stats.spilled_bytes.get());
        assert!(runs > 1, "runs spilled: {runs}");
        assert!(bytes > 0);
        assert_eq!(
            (out.metrics.spill_runs, out.metrics.spilled_bytes),
            (runs, bytes),
            "the operator's metrics carry what the context counted"
        );
    }

    #[test]
    fn multi_pass_merge() {
        // budget so small that > MERGE_FAN_IN runs are created
        let (out, ctx) = sort(tuples(20_000, 9973), &[SortKey::asc(0)], 2 << 10);
        assert_eq!(out.tuples.len(), 20_000);
        assert!(ctx.stats.merge_passes.get() >= 2, "needed multiple passes");
    }

    #[test]
    fn descending_sort() {
        let (out, _) = sort(tuples(100, 13), &[SortKey::desc(0)], 1 << 20);
        assert_eq!(out.tuples[0][0], Value::Int(99), "descending order");
    }

    fn top_k(input: Vec<Result<Tuple>>, k: usize) -> Vec<Tuple> {
        let ctx = RuntimeCtx::temp().unwrap();
        let kind = OpKind::TopK { keys: vec![SortKey::asc(0)], k };
        drive(&kind, vec![Box::new(input.into_iter())], &ctx).unwrap().tuples
    }

    #[test]
    fn top_k_smallest() {
        let out = top_k(tuples(1000, 271), 5);
        let firsts: Vec<i64> = out.iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(firsts, vec![0, 1, 2, 3, 4]);
        assert!(top_k(tuples(10, 1), 0).is_empty());
        // k larger than input
        assert_eq!(top_k(tuples(10, 1), 50).len(), 10);
    }

    #[test]
    fn top_k_never_holds_more_than_k_tuples_and_keeps_the_first_of_equals() {
        let ctx = RuntimeCtx::temp().unwrap();
        let mut op = TopK::new(vec![SortKey::asc(0)], 3);
        let mut out = crate::exec::Router::collector(&ctx);
        let mut cx = crate::ops::OpCtx {
            metrics: &mut Default::default(),
            token: &Default::default(),
            ctx: &ctx,
            out: &mut out,
            wake: &crate::exec::NoWake,
            spent: 0,
        };
        for i in 0..10_000i64 {
            // key cycles 0..7, so ties at the boundary are the common case
            op.row(vec![Value::Int(i % 7), Value::Int(i)]);
            assert!(op.kept.len() <= 3, "{} tuples held after {i} pushes", op.kept.len());
        }
        op.on_end(0, &mut cx).unwrap();
        while op.on_drain(&mut cx).unwrap() {}
        let got: Vec<(i64, i64)> = out
            .take_collected()
            .iter()
            .map(|t| (t[0].as_i64().unwrap(), t[1].as_i64().unwrap()))
            .collect();
        assert_eq!(got, vec![(0, 0), (0, 7), (0, 14)], "earliest arrivals of the smallest key");
    }

    #[test]
    fn merge_is_stable_across_streams() {
        let a: Vec<Result<Tuple>> = vec![Ok(vec![Value::Int(1)]), Ok(vec![Value::Int(3)])];
        let b: Vec<Result<Tuple>> = vec![Ok(vec![Value::Int(2)]), Ok(vec![Value::Int(3)])];
        let merged: Vec<Tuple> = KWayMerge::new(
            vec![a.into_iter(), b.into_iter()],
            vec![SortKey::asc(0)],
        )
        .map(|r| r.unwrap())
        .collect();
        assert_eq!(
            merged,
            vec![
                vec![Value::Int(1)],
                vec![Value::Int(2)],
                vec![Value::Int(3)],
                vec![Value::Int(3)]
            ]
        );
    }
}
