//! Grace partitioning: the one way a memory-bounded hash operator spills.
//!
//! A level of the hybrid hash join or of the hybrid group-by keeps what fits
//! in its resident table. Once it may no longer admit (the join's build side
//! passed the budget, a new group key found no room), it opens a [`Grace`]:
//! [`GRACE_PARTITIONS`] spill runs per input side — the join's probe and
//! build, the group-by's one — and writes each tuple that is not kept to the
//! run of its side and of the partition its key's hash falls in. At end of
//! input the runs are finished, and each partition is run through a fresh
//! level of the same operator, one deeper and salted anew, fed from its runs
//! ([`Nested`]). A level at [`MAX_DEPTH`] does not spill again: it keeps
//! everything in memory, whatever the budget (extremely skewed keys).

use crate::ctx::{RunHandle, RunReader, RunWriter, RuntimeCtx};
use crate::error::Result;
use crate::frame::Tuple;
use crate::ops::{IterInput, OpCtx, Operator, Running};
use asterix_adm::compare::hash64_iter;
use asterix_obs::OpMetrics;
use std::collections::VecDeque;

/// Partitions per spill level.
pub(crate) const GRACE_PARTITIONS: usize = 8;
/// Levels that may spill; the one below them keeps everything in memory.
pub(crate) const MAX_DEPTH: usize = 3;

/// Hash of the key columns of `t`, by reference — what hashing the
/// materialized key gives (both route through [`hash64_iter`]).
pub(crate) fn hash_key(t: &Tuple, cols: &[usize]) -> u64 {
    hash64_iter(cols.iter().map(|c| &t[*c]), cols.len())
}

/// The partitions one level of an operator spills to, and the levels below
/// that run them.
pub(crate) struct Grace {
    sides: usize,
    depth: usize,
    /// Per partition, a writer per side; empty until the level spills.
    writers: Vec<Vec<RunWriter>>,
    /// Per partition not yet run, its runs by side, once input ended.
    parts: VecDeque<Vec<RunHandle>>,
    /// The level running a partition.
    child: Option<Nested>,
}

impl Grace {
    /// The partitions of an operator's first level, which has `sides` inputs.
    pub fn new(sides: usize) -> Grace {
        Grace { sides, depth: 0, writers: Vec::new(), parts: VecDeque::new(), child: None }
    }

    /// The partitions of the level that runs one of these.
    pub fn below(&self) -> Grace {
        Grace { depth: self.depth + 1, ..Grace::new(self.sides) }
    }

    /// Whether this level may spill.
    pub fn may_spill(&self) -> bool {
        self.depth < MAX_DEPTH
    }

    /// Whether this level is spilling.
    pub fn is_open(&self) -> bool {
        !self.writers.is_empty()
    }

    /// Opens the runs of every partition and side, counted against `m`.
    pub fn open(&mut self, ctx: &RuntimeCtx, m: &mut OpMetrics) -> Result<()> {
        m.grace_fanout += GRACE_PARTITIONS as u64;
        self.writers = (0..GRACE_PARTITIONS)
            .map(|_| (0..self.sides).map(|_| ctx.new_run(m)).collect())
            .collect::<Result<_>>()?;
        Ok(())
    }

    /// The partition of a key whose hash is `h`. Each level salts the hash
    /// afresh and multiplies the salt into every bit, so that the keys of
    /// one partition spread over the partitions of the level below; the
    /// product's top bits pick the partition.
    pub fn part_of(&self, h: u64) -> usize {
        let salt = (self.depth as u64 + 1).wrapping_mul(0x9e37_79b9_7f4a_7c15);
        let mixed = (h ^ salt).wrapping_mul(0xff51_afd7_ed55_8ccd);
        ((u128::from(mixed) * GRACE_PARTITIONS as u128) >> 64) as usize
    }

    /// Writes `t`, whose key's hash is `h`, to its partition's run of `side`.
    pub fn write(&mut self, side: usize, h: u64, t: &Tuple, m: &mut OpMetrics) -> Result<()> {
        let part = self.part_of(h);
        self.writers[part][side].write(t, m)
    }

    /// Input ended: finishes the runs, which the levels below are fed from.
    pub fn finish(&mut self) -> Result<()> {
        for part in self.writers.drain(..) {
            self.parts.push_back(part.into_iter().map(RunWriter::finish).collect::<Result<_>>()?);
        }
        Ok(())
    }

    /// One unit of work of the levels below: of the partition being run, or
    /// the start of the next, run through the operator `level` makes of its
    /// partitions. `false` once every partition is done, or the output's
    /// consumers are gone.
    pub fn drain(&mut self, cx: &mut OpCtx<'_>, level: impl FnOnce(Grace) -> Box<dyn Operator>) -> Result<bool> {
        if let Some(more) = Nested::advance(&mut self.child, cx)? {
            return Ok(more);
        }
        let Some(runs) = self.parts.pop_front() else {
            return Ok(false);
        };
        self.child = Some(Nested::new(level(self.below()), runs)?);
        Ok(true)
    }
}

/// Grace recursion: the operator one level down, fed from the spill runs of
/// one partition and emitting into the same output.
struct Nested {
    run: Running,
    inputs: Vec<IterInput<RunReader>>,
    /// Keeps the partition's files alive until it is consumed.
    _runs: Vec<RunHandle>,
}

impl Nested {
    /// `runs[i]` feeds input port `i` of `op`.
    fn new(op: Box<dyn Operator>, runs: Vec<RunHandle>) -> Result<Self> {
        let inputs = runs.iter().map(|r| Ok(IterInput::new(r.read()?))).collect::<Result<_>>()?;
        Ok(Nested { run: Running::new(op), inputs, _runs: runs })
    }

    /// One unit of work of the nested level in `slot`, which is cleared
    /// when it finishes. `None` when there is none; otherwise whether the
    /// parent has more to do (not when the output's consumers are gone).
    fn advance(slot: &mut Option<Nested>, cx: &mut OpCtx<'_>) -> Result<Option<bool>> {
        let Some(child) = slot else {
            return Ok(None);
        };
        if child.run.pump(&mut child.inputs, cx, 1)? != crate::ops::Flow::Finished {
            return Ok(Some(true));
        }
        *slot = None;
        Ok(Some(!cx.out.all_gone()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::Value;
    use std::collections::BTreeSet;

    /// The keys a level routes to its partition 0 spread over more than one
    /// partition of the level below, at every level that may spill and for
    /// each side: a level that reused its parent's salt would send them all
    /// to one, and only its spill would show it.
    #[test]
    fn each_level_resalts() {
        let ctx = RuntimeCtx::temp().unwrap();
        let mut m = OpMetrics::default();
        for sides in [1, 2] {
            let mut grace = Grace::new(sides);
            while grace.may_spill() {
                grace.open(&ctx, &mut m).unwrap();
                for k in 0..2_000 {
                    let t = vec![Value::Int(k), Value::from(format!("k{k}"))];
                    for side in 0..sides {
                        grace.write(side, hash_key(&t, &[0]), &t, &mut m).unwrap();
                    }
                }
                grace.finish().unwrap();
                let below = grace.below();
                let runs = grace.parts.pop_front().unwrap();
                assert_eq!(runs.len(), sides);
                for run in &runs {
                    let parts: BTreeSet<usize> =
                        run.read().unwrap().map(|t| below.part_of(hash_key(&t.unwrap(), &[0]))).collect();
                    assert!(parts.len() > 1, "depth {}, {sides} side(s): partition 0 lands in {parts:?} below", grace.depth);
                }
                grace = below;
            }
        }
        assert_eq!(m.grace_fanout, 2 * (MAX_DEPTH * GRACE_PARTITIONS) as u64);
        assert_eq!(m.spill_runs, (3 * MAX_DEPTH * GRACE_PARTITIONS) as u64);
    }
}
