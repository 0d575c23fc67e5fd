//! Job specifications: operator descriptors + connectors, the unit Hyracks
//! accepts for execution (one per compiled query).
//!
//! Mirrors Hyracks' model: an operator descriptor expands into N
//! partition-parallel *activities*; connectors describe how tuples are
//! redistributed between producer and consumer partitions — the
//! data-partition-aware part of the stack that the Algebricks optimizer
//! reasons about when it inserts exchanges.

use crate::error::{HyracksError, Result};
use crate::frame::Tuple;
use crate::ops::{groupby, join, sort, stream, Operator};
use asterix_adm::compare::total_cmp;
use asterix_adm::{Column, ColumnBatch, Value};
use std::cmp::Ordering;
use std::sync::Arc;

/// Operator identifier within a job (index into the op table).
pub type OpId = usize;

/// A scalar expression over a tuple's columns.
pub trait Scalar: Send + Sync {
    /// The value for one tuple.
    fn eval(&self, t: &Tuple) -> Result<Value>;

    /// The value for each row in play of `batch`, as a column of
    /// `batch.len()` rows. The default builds each row and asks
    /// [`Scalar::eval`]; an implementation that knows which columns it reads
    /// does better.
    fn eval_batch(&self, batch: &ColumnBatch) -> Result<Arc<Column>> {
        batch.map_rows(|row| self.eval(&batch.tuple(row))).map(Arc::new)
    }
}

impl<F: Fn(&Tuple) -> Result<Value> + Send + Sync> Scalar for F {
    fn eval(&self, t: &Tuple) -> Result<Value> {
        self(t)
    }
}

/// A predicate over a tuple's columns.
pub trait Predicate: Send + Sync {
    /// Whether one tuple passes.
    fn test(&self, t: &Tuple) -> Result<bool>;

    /// The rows in play of `batch` that pass, ascending: a selection vector.
    /// The default builds each row and asks [`Predicate::test`].
    fn select(&self, batch: &ColumnBatch) -> Result<Vec<u32>> {
        let mut keep = Vec::new();
        for row in batch.row_ids() {
            if self.test(&batch.tuple(row))? {
                keep.push(row as u32);
            }
        }
        Ok(keep)
    }
}

impl<F: Fn(&Tuple) -> Result<bool> + Send + Sync> Predicate for F {
    fn test(&self, t: &Tuple) -> Result<bool> {
        self(t)
    }
}

/// Scalar evaluator: computes one value from a tuple, or a column of them
/// from a batch.
pub type EvalFn = Arc<dyn Scalar>;

/// Predicate over one tuple, or over the rows of a batch.
pub type PredFn = Arc<dyn Predicate>;

/// Predicate over a pair of tuples (nested-loop joins).
pub type Pred2Fn = Arc<dyn Fn(&Tuple, &Tuple) -> Result<bool> + Send + Sync>;

/// What a source hands out at a time: one tuple, or a batch of them held a
/// column at a time.
#[derive(Debug)]
pub enum Produced {
    Tuple(Tuple),
    Batch(ColumnBatch),
}

impl From<Tuple> for Produced {
    fn from(t: Tuple) -> Produced {
        Produced::Tuple(t)
    }
}

/// The stream of one partition of a source.
pub type SourceStream = Box<dyn Iterator<Item = Result<Produced>> + Send>;

/// Produces the tuples of one partition of a data source (dataset scan,
/// external file scan, index search, generated data, ...). The factory is
/// shared; `open` is called once per partition.
pub trait SourceFactory: Send + Sync {
    /// Opens the stream for `partition` (0-based).
    fn open(&self, partition: usize) -> Result<SourceStream>;
}

/// A closure that opens the stream of a partition is a source.
impl<F: Fn(usize) -> Result<SourceStream> + Send + Sync> SourceFactory for F {
    fn open(&self, partition: usize) -> Result<SourceStream> {
        self(partition)
    }
}

/// Blanket source over a cloneable closure that yields tuples.
pub struct FnSource<F>(pub F);

impl<F> SourceFactory for FnSource<F>
where
    F: Fn(usize) -> Result<Box<dyn Iterator<Item = Result<Tuple>> + Send>> + Send + Sync,
{
    fn open(&self, partition: usize) -> Result<SourceStream> {
        Ok(Box::new((self.0)(partition)?.map(|t| t.map(Produced::from))))
    }
}

/// One sort key: column index + direction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SortKey {
    pub col: usize,
    pub desc: bool,
}

impl SortKey {
    /// Ascending key on `col`.
    pub fn asc(col: usize) -> Self {
        SortKey { col, desc: false }
    }

    /// Descending key on `col`.
    pub fn desc(col: usize) -> Self {
        SortKey { col, desc: true }
    }
}

/// Compares two tuples under a sort-key list (ADM total order per column).
pub fn cmp_tuples(a: &Tuple, b: &Tuple, keys: &[SortKey]) -> Ordering {
    for k in keys {
        let c = total_cmp(&a[k.col], &b[k.col]);
        let c = if k.desc { c.reverse() } else { c };
        if c != Ordering::Equal {
            return c;
        }
    }
    Ordering::Equal
}

/// The aggregate functions, for every layer: the logical algebra names
/// them, the translators look them up, the accumulator
/// ([`crate::ops::AggState`]) says what they mean.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggFunc {
    /// `COUNT(*)` — counts tuples.
    CountStar,
    /// `COUNT(e)` — counts known (non-null, non-missing) values.
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    /// Stable name for plan printing.
    pub fn name(&self) -> &'static str {
        match self {
            AggFunc::CountStar => "count_star",
            AggFunc::Count => "count",
            AggFunc::Sum => "sum",
            AggFunc::Min => "min",
            AggFunc::Max => "max",
            AggFunc::Avg => "avg",
        }
    }

    /// The function a query names (`COUNT(*)` is `count` applied to `*`,
    /// which only a translator can see).
    pub fn by_name(name: &str) -> Option<AggFunc> {
        use AggFunc::*;
        [Count, Sum, Min, Max, Avg].into_iter().find(|f| f.name() == name)
    }

    /// How many columns the partial state of this function travels in
    /// between a [`AggPhase::Partial`] and a [`AggPhase::Final`] stage:
    /// `AVG` is a sum and a count, every other function one value.
    pub fn partial_cols(&self) -> usize {
        if *self == AggFunc::Avg { 2 } else { 1 }
    }
}

/// Which half of the local/global protocol an accumulator runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggPhase {
    /// Raw values in, the final value out.
    Complete,
    /// Raw values in, the function's partial columns out.
    Partial,
    /// Partial columns in, the final value out.
    Final,
}

/// One aggregate of a group-by / scalar aggregation stage. `col` is the
/// input column — the first of the function's partial columns when the
/// phase is [`AggPhase::Final`]; `COUNT(*)` reads none of a raw tuple.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct AggSpec {
    pub func: AggFunc,
    pub col: usize,
    pub phase: AggPhase,
}

impl AggSpec {
    /// `func` over raw column `col`, start to finish.
    pub fn complete(func: AggFunc, col: usize) -> Self {
        AggSpec { func, col, phase: AggPhase::Complete }
    }
}

/// Join type.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum JoinKind {
    Inner,
    /// Keeps unmatched left (probe-side) tuples, padding the right columns
    /// with `MISSING`.
    LeftOuter,
}

/// The operator algebra of the runtime.
pub enum OpKind {
    /// Data source (0 inputs).
    Source(Arc<dyn SourceFactory>),
    /// Tuple filter.
    Filter(PredFn),
    /// Appends one computed column per evaluator.
    Assign(Vec<EvalFn>),
    /// Keeps only the named columns, in order.
    Project(Vec<usize>),
    /// Evaluates `expr` to a collection and emits one output tuple per item
    /// (input columns + the item). `outer` emits a single MISSING-extended
    /// tuple when the collection is empty or not a collection.
    Unnest { expr: EvalFn, outer: bool },
    /// Skips `offset` tuples then passes at most `count` (None = unlimited).
    Limit { offset: usize, count: Option<usize> },
    /// External memory-bounded sort.
    Sort { keys: Vec<SortKey>, memory: usize },
    /// Heap-based top-k by sort keys.
    TopK { keys: Vec<SortKey>, k: usize },
    /// Scalar aggregation over the whole input (single output tuple).
    Aggregate { aggs: Vec<AggSpec> },
    /// Hash group-by with partition spilling. Output: key cols then the
    /// columns of each aggregate (one, or its partial columns).
    GroupBy { key_cols: Vec<usize>, aggs: Vec<AggSpec>, memory: usize },
    /// Groups by `key_cols` and appends, after the keys, one column holding
    /// the *array of grouped tuples* projected to `payload_cols` — SQL++'s
    /// nested GROUP BY output (group variables).
    GroupCollect { key_cols: Vec<usize>, payload_cols: Vec<usize>, memory: usize },
    /// Duplicate elimination on `cols` (None = whole tuple).
    Distinct { cols: Option<Vec<usize>>, memory: usize },
    /// Hybrid hash join; input port 0 = probe (left), port 1 = build (right).
    /// Output: left columns then right columns. `right_arity` is needed to
    /// pad MISSING for outer joins.
    HashJoin {
        left_keys: Vec<usize>,
        right_keys: Vec<usize>,
        kind: JoinKind,
        right_arity: usize,
        memory: usize,
    },
    /// Nested-loop join with an arbitrary pair predicate (port 1 is buffered).
    NestedLoopJoin { pred: Pred2Fn, kind: JoinKind, right_arity: usize },
    /// Union of two inputs (bag semantics).
    UnionAll,
    /// Gathers final results (1 partition, 1 input).
    ResultSink,
}

impl OpKind {
    /// Number of input ports.
    pub fn arity(&self) -> usize {
        match self {
            OpKind::Source(_) => 0,
            OpKind::HashJoin { .. } | OpKind::NestedLoopJoin { .. } | OpKind::UnionAll => 2,
            _ => 1,
        }
    }

    /// Short name for diagnostics.
    pub fn name(&self) -> &'static str {
        match self {
            OpKind::Source(_) => "source",
            OpKind::Filter(_) => "filter",
            OpKind::Assign(_) => "assign",
            OpKind::Project(_) => "project",
            OpKind::Unnest { .. } => "unnest",
            OpKind::Limit { .. } => "limit",
            OpKind::Sort { .. } => "sort",
            OpKind::TopK { .. } => "topk",
            OpKind::Aggregate { .. } => "aggregate",
            OpKind::GroupBy { .. } => "groupby",
            OpKind::GroupCollect { .. } => "groupcollect",
            OpKind::Distinct { .. } => "distinct",
            OpKind::HashJoin { .. } => "hashjoin",
            OpKind::NestedLoopJoin { .. } => "nljoin",
            OpKind::UnionAll => "union",
            OpKind::ResultSink => "resultsink",
        }
    }

    /// The state machine that runs one partition of this operator.
    pub(crate) fn operator(&self, partition: usize) -> Box<dyn Operator> {
        match self {
            OpKind::Source(factory) => Box::new(stream::Source::new(Arc::clone(factory), partition)),
            OpKind::Filter(pred) => Box::new(stream::Filter(Arc::clone(pred))),
            OpKind::Assign(exprs) => Box::new(stream::Assign(exprs.clone())),
            OpKind::Project(cols) => Box::new(stream::Project(cols.clone())),
            OpKind::Unnest { expr, outer } => {
                Box::new(stream::Unnest { expr: Arc::clone(expr), outer: *outer })
            }
            OpKind::Limit { offset, count } => Box::new(stream::Limit::new(*offset, *count)),
            OpKind::Sort { keys, memory } => Box::new(sort::Sort::new(keys.clone(), *memory)),
            OpKind::TopK { keys, k } => Box::new(sort::TopK::new(keys.clone(), *k)),
            OpKind::Aggregate { aggs } => Box::new(groupby::Aggregate::new(aggs)),
            OpKind::GroupBy { key_cols, aggs, memory } => Box::new(groupby::Hybrid::new(
                groupby::Groups::new(key_cols.clone(), aggs.clone()),
                *memory,
            )),
            OpKind::GroupCollect { key_cols, payload_cols, memory } => Box::new(
                groupby::GroupCollect::new(key_cols.clone(), payload_cols.clone(), *memory),
            ),
            OpKind::Distinct { cols, memory } => {
                Box::new(groupby::Hybrid::new(groupby::Seen::new(cols.clone()), *memory))
            }
            OpKind::HashJoin { left_keys, right_keys, kind, right_arity, memory } => {
                Box::new(join::HashJoin::new(join::HashJoinCfg {
                    left_keys: left_keys.clone(),
                    right_keys: right_keys.clone(),
                    kind: *kind,
                    right_arity: *right_arity,
                    memory: *memory,
                }))
            }
            OpKind::NestedLoopJoin { pred, kind, right_arity } => {
                Box::new(join::NestedLoopJoin::new(Arc::clone(pred), *kind, *right_arity))
            }
            OpKind::UnionAll | OpKind::ResultSink => {
                Box::new(stream::Concat { ports: self.arity() })
            }
        }
    }
}

/// Tuple-redistribution strategy of a connector (Hyracks' connector classes).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConnStrategy {
    /// Partition i feeds consumer i (pipelining; equal partition counts).
    OneToOne,
    /// Hash partitioning on the named columns (M:N shuffle).
    Hash(Vec<usize>),
    /// Every producer tuple goes to every consumer.
    Broadcast,
    /// M:1 gather in arrival order.
    Gather,
    /// M:1 gather preserving a sort order (final merge of a parallel sort).
    MergeSorted(Vec<SortKey>),
}

impl ConnStrategy {
    /// Short display name used by profiles and EXPLAIN output.
    pub fn name(&self) -> &'static str {
        match self {
            ConnStrategy::OneToOne => "one-to-one",
            ConnStrategy::Hash(_) => "hash",
            ConnStrategy::Broadcast => "broadcast",
            ConnStrategy::Gather => "gather",
            ConnStrategy::MergeSorted(_) => "merge-sorted",
        }
    }
}

/// A directed edge between operators.
pub struct Connector {
    pub src: OpId,
    pub dst: OpId,
    pub dst_port: usize,
    pub strategy: ConnStrategy,
}

/// One operator instance description.
pub struct OperatorDesc {
    pub kind: OpKind,
    pub partitions: usize,
    pub label: String,
}

/// A complete dataflow job.
#[derive(Default)]
pub struct JobSpec {
    pub ops: Vec<OperatorDesc>,
    pub connectors: Vec<Connector>,
}

impl JobSpec {
    /// Creates an empty job.
    pub fn new() -> Self {
        JobSpec::default()
    }

    /// Adds an operator with `partitions` parallel instances.
    pub fn add(&mut self, kind: OpKind, partitions: usize, label: impl Into<String>) -> OpId {
        self.ops.push(OperatorDesc {
            kind,
            partitions: partitions.max(1),
            label: label.into(),
        });
        self.ops.len() - 1
    }

    /// Connects `src` to input `dst_port` of `dst`.
    pub fn connect(&mut self, src: OpId, dst: OpId, dst_port: usize, strategy: ConnStrategy) {
        self.connectors.push(Connector { src, dst, dst_port, strategy });
    }

    /// Validates the DAG: port coverage, partition-count rules, single
    /// output per operator, exactly one result sink, acyclicity.
    pub fn validate(&self) -> Result<()> {
        let bad = |m: String| Err(HyracksError::InvalidJob(m));
        let mut sinks = 0usize;
        for (i, op) in self.ops.iter().enumerate() {
            if matches!(op.kind, OpKind::ResultSink) {
                sinks += 1;
                if op.partitions != 1 {
                    return bad(format!("result sink {i} must have 1 partition"));
                }
            }
            let arity = op.kind.arity();
            for port in 0..arity {
                let feeds: Vec<&Connector> = self
                    .connectors
                    .iter()
                    .filter(|c| c.dst == i && c.dst_port == port)
                    .collect();
                if feeds.len() != 1 {
                    return bad(format!(
                        "operator {i} ({}) port {port} has {} feeds, expected 1",
                        op.kind.name(),
                        feeds.len()
                    ));
                }
            }
            let extra = self
                .connectors
                .iter()
                .any(|c| c.dst == i && c.dst_port >= arity);
            if extra {
                return bad(format!("operator {i} ({}) has a feed past its arity", op.kind.name()));
            }
            let outs = self.connectors.iter().filter(|c| c.src == i).count();
            match op.kind {
                OpKind::ResultSink => {
                    if outs != 0 {
                        return bad(format!("result sink {i} must not have outputs"));
                    }
                }
                _ => {
                    if outs != 1 {
                        return bad(format!(
                            "operator {i} ({}) has {outs} outputs, expected 1",
                            op.kind.name()
                        ));
                    }
                }
            }
        }
        if sinks != 1 {
            return bad(format!("job has {sinks} result sinks, expected 1"));
        }
        for c in &self.connectors {
            if c.src >= self.ops.len() || c.dst >= self.ops.len() {
                return bad("connector references unknown operator".into());
            }
            let (sp, dp) = (self.ops[c.src].partitions, self.ops[c.dst].partitions);
            match &c.strategy {
                ConnStrategy::OneToOne if sp != dp => {
                    return bad(format!(
                        "one-to-one connector {} -> {} requires equal partitions ({sp} vs {dp})",
                        c.src, c.dst
                    ));
                }
                ConnStrategy::Gather | ConnStrategy::MergeSorted(_) if dp != 1 => {
                    return bad(format!(
                        "gather/merge connector {} -> {} requires 1 consumer partition",
                        c.src, c.dst
                    ));
                }
                _ => {}
            }
        }
        // acyclicity via DFS
        let mut state = vec![0u8; self.ops.len()]; // 0=unseen 1=active 2=done
        fn dfs(i: usize, spec: &JobSpec, state: &mut [u8]) -> bool {
            if state[i] == 1 {
                return false;
            }
            if state[i] == 2 {
                return true;
            }
            state[i] = 1;
            for c in spec.connectors.iter().filter(|c| c.src == i) {
                if !dfs(c.dst, spec, state) {
                    return false;
                }
            }
            state[i] = 2;
            true
        }
        for i in 0..self.ops.len() {
            if !dfs(i, self, &mut state) {
                return bad("job graph has a cycle".into());
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dummy_source() -> OpKind {
        OpKind::Source(Arc::new(FnSource(|_p| {
            Ok(Box::new(std::iter::empty()) as Box<dyn Iterator<Item = Result<Tuple>> + Send>)
        })))
    }

    #[test]
    fn valid_linear_job() {
        let mut j = JobSpec::new();
        let s = j.add(dummy_source(), 2, "scan");
        let f = j.add(OpKind::Filter(Arc::new(|_t: &Tuple| Ok(true))), 2, "filter");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, f, 0, ConnStrategy::OneToOne);
        j.connect(f, r, 0, ConnStrategy::Gather);
        j.validate().unwrap();
    }

    #[test]
    fn detects_missing_feed() {
        let mut j = JobSpec::new();
        let _s = j.add(dummy_source(), 1, "scan");
        let f = j.add(OpKind::Filter(Arc::new(|_t: &Tuple| Ok(true))), 1, "filter");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(f, r, 0, ConnStrategy::Gather);
        assert!(j.validate().is_err(), "filter input not fed");
    }

    #[test]
    fn detects_partition_mismatch() {
        let mut j = JobSpec::new();
        let s = j.add(dummy_source(), 2, "scan");
        let f = j.add(OpKind::Filter(Arc::new(|_t: &Tuple| Ok(true))), 3, "filter");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, f, 0, ConnStrategy::OneToOne);
        j.connect(f, r, 0, ConnStrategy::Gather);
        assert!(j.validate().is_err());
    }

    #[test]
    fn detects_cycle() {
        let mut j = JobSpec::new();
        let a = j.add(OpKind::Filter(Arc::new(|_t: &Tuple| Ok(true))), 1, "a");
        let b = j.add(OpKind::Filter(Arc::new(|_t: &Tuple| Ok(true))), 1, "b");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(a, b, 0, ConnStrategy::OneToOne);
        j.connect(b, a, 0, ConnStrategy::OneToOne);
        j.connect(b, r, 0, ConnStrategy::Gather);
        // b has two outputs → also invalid; cycle check still guards deeper cases
        assert!(j.validate().is_err());
    }

    #[test]
    fn join_needs_two_feeds() {
        let mut j = JobSpec::new();
        let s = j.add(dummy_source(), 1, "scan");
        let join = j.add(
            OpKind::HashJoin {
                left_keys: vec![0],
                right_keys: vec![0],
                kind: JoinKind::Inner,
                right_arity: 1,
                memory: 1 << 20,
            },
            1,
            "join",
        );
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, join, 0, ConnStrategy::OneToOne);
        j.connect(join, r, 0, ConnStrategy::Gather);
        assert!(j.validate().is_err(), "build side missing");
    }

    #[test]
    fn cmp_tuples_respects_direction() {
        let a = vec![Value::Int(1), Value::from("b")];
        let b = vec![Value::Int(1), Value::from("a")];
        let asc = [SortKey::asc(0), SortKey::asc(1)];
        assert_eq!(cmp_tuples(&a, &b, &asc), Ordering::Greater);
        let desc = [SortKey::desc(1)];
        assert_eq!(cmp_tuples(&a, &b, &desc), Ordering::Less);
    }
}
