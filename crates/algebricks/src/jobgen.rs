//! Physical plan generation: lowering an optimized logical plan onto a
//! Hyracks [`JobSpec`].
//!
//! This is where Algebricks' *data-partition awareness* becomes concrete
//! (paper Section III, feature 3): the generator decides operator
//! parallelism, inserts exchange connectors (hash partition for joins and
//! group-bys, broadcast for nested-loop builds, sorted merge for global
//! orders), chooses join methods (hash join for equi-conditions, nested
//! loop otherwise), and splits aggregations into local/global pairs so
//! pre-aggregation happens before the shuffle.

use crate::error::{AlgebricksError, Result};
use crate::expr::{bind, eval, eval_batch, select_batch, BoundExpr, Expr, Func};
use crate::plan::{AggFunc, JoinKeys, JoinKind, LogicalOp, Plan, VarId};
use crate::rules::Rule;
use asterix_adm::{Column, ColumnBatch, Value};
use asterix_hyracks::job::{
    AggPhase, AggSpec, ConnStrategy, EvalFn, JobSpec, OpId, OpKind, Pred2Fn, PredFn,
    Predicate, Scalar, SortKey, SourceFactory,
};
use asterix_hyracks::Tuple;
use std::collections::{BTreeSet, HashMap};
use std::sync::Arc;

/// A bound expression as the runtime's evaluator and predicate (a tuple
/// passes when the expression is `true`), over tuples and over batches.
struct Bound(BoundExpr);

impl Scalar for Bound {
    fn eval(&self, t: &Tuple) -> asterix_hyracks::Result<Value> {
        Ok(eval(&self.0, t)?)
    }

    fn eval_batch(&self, batch: &ColumnBatch) -> asterix_hyracks::Result<Arc<Column>> {
        Ok(eval_batch(&self.0, batch)?)
    }
}

impl Predicate for Bound {
    fn test(&self, t: &Tuple) -> asterix_hyracks::Result<bool> {
        Ok(eval(&self.0, t)? == Value::Bool(true))
    }

    fn select(&self, batch: &ColumnBatch) -> asterix_hyracks::Result<Vec<u32>> {
        Ok(select_batch(&self.0, batch)?)
    }
}

/// Tuning knobs for physical plan generation.
#[derive(Debug, Clone)]
pub struct JobGenConfig {
    /// Degree of parallelism for compute operators (joins, group-bys).
    pub dop: usize,
    /// Working-memory budget per sort, join, group-by or distinct instance
    /// (bytes).
    pub op_memory: usize,
}

impl Default for JobGenConfig {
    fn default() -> Self {
        JobGenConfig {
            dop: 1,
            op_memory: asterix_hyracks::ctx::DEFAULT_OP_MEMORY,
        }
    }
}

/// Compiles an optimized plan into a runnable job.
pub fn compile(plan: &Plan, cfg: &JobGenConfig) -> Result<JobSpec> {
    let mut b = Builder {
        spec: JobSpec::new(),
        cfg,
        disabled: &plan.disabled,
        hidden: usize::MAX,
        field_vars: HashMap::new(),
    };
    let LogicalOp::DistributeResult { input, exprs } = &plan.root else {
        return Err(AlgebricksError::Plan(
            "plan root must be distribute-result".into(),
        ));
    };
    let built = b.compile_op(input)?;
    // append one column per result expression
    let evals: Vec<EvalFn> = exprs
        .iter()
        .map(|e| b.make_eval(e, &built.schema))
        .collect::<Result<_>>()?;
    let n_results = evals.len();
    let base = built.schema.len();
    let assign = b.spec.add(OpKind::Assign(evals), built.partitions, "result-exprs");
    b.spec.connect(built.op, assign, 0, ConnStrategy::OneToOne);
    let project = b.spec.add(
        OpKind::Project((base..base + n_results).collect()),
        1,
        "result-project",
    );
    match &built.local_order {
        Some(keys) if built.partitions > 1 => {
            b.spec
                .connect(assign, project, 0, ConnStrategy::MergeSorted(keys.clone()));
        }
        Some(_) | None => {
            b.spec.connect(assign, project, 0, ConnStrategy::Gather);
        }
    }
    let sink = b.spec.add(OpKind::ResultSink, 1, "sink");
    b.spec.connect(project, sink, 0, ConnStrategy::OneToOne);
    Ok(b.spec)
}

/// Compiles and runs a plan under the job lifecycle options `opts` (shared
/// cancellation token, deadline), returning the result values (one per row;
/// a row with several result expressions yields an array value) and the
/// per-operator profile tree the executor assembled for this job. Each call
/// compiles the plan afresh so a retrying caller gets an independent job
/// per attempt.
pub fn execute(
    plan: &Plan,
    cfg: &JobGenConfig,
    ctx: Arc<asterix_hyracks::RuntimeCtx>,
    opts: asterix_hyracks::JobOptions,
) -> Result<(Vec<Value>, asterix_obs::JobProfile)> {
    let spec = compile(plan, cfg)?;
    let result = asterix_hyracks::exec::run_job_with(spec, ctx, opts)?;
    let rows = result
        .tuples
        .into_iter()
        .map(|mut t| if t.len() == 1 { t.pop().unwrap_or(Value::Null) } else { Value::Array(t) })
        .collect();
    Ok((rows, result.profile))
}

struct Built {
    op: OpId,
    partitions: usize,
    schema: Vec<VarId>,
    /// When set, every partition's stream is sorted by these columns.
    local_order: Option<Vec<SortKey>>,
}

struct Builder<'a> {
    spec: JobSpec,
    cfg: &'a JobGenConfig,
    /// The rules the plan was optimized without.
    disabled: &'a BTreeSet<Rule>,
    hidden: usize,
    /// The column variable of `$v.f`, for every scan variable `$v` the plan
    /// reads through its fields alone: such a scan yields a column per
    /// field, and `$v` itself is in no schema.
    field_vars: HashMap<(VarId, String), VarId>,
}

impl<'a> Builder<'a> {
    fn hidden_var(&mut self) -> VarId {
        let v = self.hidden;
        self.hidden -= 1;
        v
    }

    /// `e` with each `$v.f` that a scan yields as a column replaced by that
    /// column's variable.
    fn over_columns(&self, e: &Expr) -> Expr {
        let over = |e: &Expr| self.over_columns(e);
        match e {
            Expr::Field(base, name) => {
                let column = match **base {
                    Expr::Var(v) => self.field_vars.get(&(v, name.clone())),
                    _ => None,
                };
                column.map_or_else(|| Expr::Field(Box::new(over(base)), name.clone()), |c| Expr::Var(*c))
            }
            Expr::Var(_) | Expr::Const(_) => e.clone(),
            Expr::Index(base, index) => Expr::Index(Box::new(over(base)), Box::new(over(index))),
            Expr::Call(f, args) => Expr::Call(*f, args.iter().map(over).collect()),
            Expr::Case(arms, els) => {
                Expr::Case(arms.iter().map(|(c, t)| (over(c), over(t))).collect(), Box::new(over(els)))
            }
        }
    }

    fn bound(&self, e: &Expr, schema: &[VarId]) -> Result<Arc<Bound>> {
        Ok(Arc::new(Bound(bind(&self.over_columns(e), schema)?)))
    }

    fn make_eval(&self, e: &Expr, schema: &[VarId]) -> Result<EvalFn> {
        Ok(self.bound(e, schema)?)
    }

    fn make_pred(&self, e: &Expr, schema: &[VarId]) -> Result<PredFn> {
        Ok(self.bound(e, schema)?)
    }

    /// Appends an Assign computing `exprs`, returning the new Built with
    /// hidden vars for the appended columns.
    fn append_exprs(&mut self, built: Built, exprs: &[Expr], label: &str) -> Result<(Built, Vec<usize>)> {
        if exprs.is_empty() {
            return Ok((built, vec![]));
        }
        let evals: Vec<EvalFn> = exprs
            .iter()
            .map(|e| self.make_eval(e, &built.schema))
            .collect::<Result<_>>()?;
        let op = self.spec.add(OpKind::Assign(evals), built.partitions, label);
        self.spec.connect(built.op, op, 0, ConnStrategy::OneToOne);
        let base = built.schema.len();
        let mut schema = built.schema;
        let cols: Vec<usize> = (base..base + exprs.len()).collect();
        for _ in exprs {
            schema.push(self.hidden_var());
        }
        Ok((
            Built { op, partitions: built.partitions, schema, local_order: built.local_order },
            cols,
        ))
    }

    fn compile_op(&mut self, op: &LogicalOp) -> Result<Built> {
        match op {
            LogicalOp::Empty => {
                let src: Arc<dyn SourceFactory> =
                    Arc::new(asterix_hyracks::job::FnSource(|_p: usize| {
                        Ok(Box::new(std::iter::once(Ok(Vec::new())))
                            as Box<
                                dyn Iterator<
                                        Item = asterix_hyracks::Result<asterix_hyracks::Tuple>,
                                    > + Send,
                            >)
                    }));
                let id = self.spec.add(OpKind::Source(src), 1, "empty");
                Ok(Built { op: id, partitions: 1, schema: vec![], local_order: None })
            }
            LogicalOp::DataSourceScan { source, var, access, fields } => {
                let factory = match access {
                    None => source.scan(fields)?,
                    Some(a) => source.index_scan(a, fields)?,
                };
                let partitions = source.partitions();
                let set = crate::plan::field_set(fields);
                let label = match access {
                    None => format!("scan:{}{set}", source.name()),
                    Some(a) => format!("iscan:{}#{}{set}", source.name(), a.index),
                };
                let id = self.spec.add(OpKind::Source(factory), partitions, label);
                // the record whole under its variable, or a column per field
                // it is read through, each under a variable of its own
                let schema = match fields.as_slice() {
                    [] => vec![*var],
                    names => names
                        .iter()
                        .map(|name| {
                            let column = self.hidden_var();
                            self.field_vars.insert((*var, name.clone()), column);
                            column
                        })
                        .collect(),
                };
                Ok(Built { op: id, partitions, schema, local_order: None })
            }
            LogicalOp::Select { input, condition } => {
                let built = self.compile_op(input)?;
                let pred = self.make_pred(condition, &built.schema)?;
                let id = self.spec.add(OpKind::Filter(pred), built.partitions, "select");
                self.spec.connect(built.op, id, 0, ConnStrategy::OneToOne);
                Ok(Built { op: id, ..built })
            }
            LogicalOp::Assign { input, var, expr } => {
                let built = self.compile_op(input)?;
                let eval = self.make_eval(expr, &built.schema)?;
                let id = self.spec.add(OpKind::Assign(vec![eval]), built.partitions, "assign");
                self.spec.connect(built.op, id, 0, ConnStrategy::OneToOne);
                let mut schema = built.schema;
                schema.push(*var);
                Ok(Built {
                    op: id,
                    partitions: built.partitions,
                    schema,
                    local_order: built.local_order,
                })
            }
            LogicalOp::Project { input, vars } => {
                let built = self.compile_op(input)?;
                let cols: Vec<usize> = vars
                    .iter()
                    .map(|v| {
                        built.schema.iter().position(|s| s == v).ok_or_else(|| {
                            AlgebricksError::Plan(format!("project: ${v} not in schema"))
                        })
                    })
                    .collect::<Result<_>>()?;
                let id = self.spec.add(OpKind::Project(cols), built.partitions, "project");
                self.spec.connect(built.op, id, 0, ConnStrategy::OneToOne);
                Ok(Built {
                    op: id,
                    partitions: built.partitions,
                    schema: vars.clone(),
                    local_order: None,
                })
            }
            LogicalOp::Unnest { input, var, expr, outer } => {
                let built = self.compile_op(input)?;
                let eval = self.make_eval(expr, &built.schema)?;
                let id = self.spec.add(
                    OpKind::Unnest { expr: eval, outer: *outer },
                    built.partitions,
                    "unnest",
                );
                self.spec.connect(built.op, id, 0, ConnStrategy::OneToOne);
                let mut schema = built.schema;
                schema.push(*var);
                Ok(Built { op: id, partitions: built.partitions, schema, local_order: None })
            }
            LogicalOp::Join { left, right, condition, kind } => {
                self.compile_join(left, right, condition, *kind)
            }
            LogicalOp::GroupBy { input, keys, aggs, collect: None } => {
                self.compile_aggregate(input, keys, aggs)
            }
            LogicalOp::GroupBy { input, keys, aggs, collect: Some(c) } => {
                if !aggs.is_empty() {
                    return Err(AlgebricksError::Plan(
                        "group-by cannot mix direct aggregates with a group collection; \
                         express aggregates over the group variable instead"
                            .into(),
                    ));
                }
                self.compile_group_collect(input, keys, c)
            }
            LogicalOp::Aggregate { input, aggs } => self.compile_aggregate(input, &[], aggs),
            LogicalOp::Order { input, keys } => {
                let built = self.compile_op(input)?;
                let exprs: Vec<Expr> = keys.iter().map(|(e, _)| e.clone()).collect();
                let (built, cols) = self.append_exprs(built, &exprs, "order-keys")?;
                let sort_keys: Vec<SortKey> = cols
                    .iter()
                    .zip(keys.iter())
                    .map(|(c, (_, desc))| SortKey { col: *c, desc: *desc })
                    .collect();
                let id = self.spec.add(
                    OpKind::Sort { keys: sort_keys.clone(), memory: self.cfg.op_memory },
                    built.partitions,
                    "sort",
                );
                self.spec.connect(built.op, id, 0, ConnStrategy::OneToOne);
                Ok(Built {
                    op: id,
                    partitions: built.partitions,
                    schema: built.schema,
                    local_order: Some(sort_keys),
                })
            }
            LogicalOp::Limit { input, offset, count } => {
                let built = self.compile_op(input)?;
                if built.partitions == 1 {
                    let id = self.spec.add(
                        OpKind::Limit { offset: *offset, count: *count },
                        1,
                        "limit",
                    );
                    self.spec.connect(built.op, id, 0, ConnStrategy::OneToOne);
                    return Ok(Built { op: id, ..built });
                }
                // local pre-limit (keep offset+count per partition), then a
                // global limit on one partition, preserving order if any
                let local_keep = count.map(|c| c + *offset);
                let local = match (&built.local_order, local_keep) {
                    (Some(keys), Some(keep)) => {
                        self.spec.add(OpKind::TopK { keys: keys.clone(), k: keep }, built.partitions, "local-topk")
                    }
                    _ => self.spec.add(
                        OpKind::Limit { offset: 0, count: local_keep },
                        built.partitions,
                        "local-limit",
                    ),
                };
                self.spec.connect(built.op, local, 0, ConnStrategy::OneToOne);
                let global = self.spec.add(
                    OpKind::Limit { offset: *offset, count: *count },
                    1,
                    "limit",
                );
                match &built.local_order {
                    Some(keys) => self.spec.connect(
                        local,
                        global,
                        0,
                        ConnStrategy::MergeSorted(keys.clone()),
                    ),
                    None => self.spec.connect(local, global, 0, ConnStrategy::Gather),
                }
                Ok(Built {
                    op: global,
                    partitions: 1,
                    schema: built.schema,
                    local_order: built.local_order,
                })
            }
            LogicalOp::Distinct { input, exprs } => {
                let built = self.compile_op(input)?;
                let (built, cols) = self.append_exprs(built, exprs, "distinct-keys")?;
                let dop = self.cfg.dop.max(1);
                let id = self.spec.add(
                    OpKind::Distinct { cols: Some(cols.clone()), memory: self.cfg.op_memory },
                    dop,
                    "distinct",
                );
                self.spec.connect(built.op, id, 0, ConnStrategy::Hash(cols));
                Ok(Built {
                    op: id,
                    partitions: dop,
                    schema: built.schema,
                    local_order: None,
                })
            }
            LogicalOp::UnionAll { left, right, out, left_vars, right_vars } => {
                let lb = self.compile_op(left)?;
                let rb = self.compile_op(right)?;
                let lcols: Vec<usize> = left_vars
                    .iter()
                    .map(|v| {
                        lb.schema.iter().position(|s| s == v).ok_or_else(|| {
                            AlgebricksError::Plan(format!("union: ${v} not in left schema"))
                        })
                    })
                    .collect::<Result<_>>()?;
                let rcols: Vec<usize> = right_vars
                    .iter()
                    .map(|v| {
                        rb.schema.iter().position(|s| s == v).ok_or_else(|| {
                            AlgebricksError::Plan(format!("union: ${v} not in right schema"))
                        })
                    })
                    .collect::<Result<_>>()?;
                let lproj = self.spec.add(OpKind::Project(lcols), lb.partitions, "union-left");
                self.spec.connect(lb.op, lproj, 0, ConnStrategy::OneToOne);
                let rproj = self.spec.add(OpKind::Project(rcols), rb.partitions, "union-right");
                self.spec.connect(rb.op, rproj, 0, ConnStrategy::OneToOne);
                let id = self.spec.add(OpKind::UnionAll, 1, "union");
                self.spec.connect(lproj, id, 0, ConnStrategy::Gather);
                self.spec.connect(rproj, id, 1, ConnStrategy::Gather);
                Ok(Built { op: id, partitions: 1, schema: out.clone(), local_order: None })
            }
            LogicalOp::DistributeResult { .. } => Err(AlgebricksError::Plan(
                "nested distribute-result".into(),
            )),
        }
    }

    fn compile_join(
        &mut self,
        left: &LogicalOp,
        right: &LogicalOp,
        condition: &Expr,
        kind: JoinKind,
    ) -> Result<Built> {
        let lb = self.compile_op(left)?;
        let rb = self.compile_op(right)?;
        let condition = &self.over_columns(condition);
        let keys = JoinKeys::split(condition, &lb.schema, &rb.schema);
        if keys.hashable(kind) {
            let JoinKeys { left: left_keys, right: right_keys, residual } = keys;
            let (lb, lcols) = self.append_exprs(lb, &left_keys, "join-keys-l")?;
            let (rb, rcols) = self.append_exprs(rb, &right_keys, "join-keys-r")?;
            let dop = self.cfg.dop.max(lb.partitions.max(rb.partitions));
            // joined tuple = left cols ++ right cols
            let probe_key_cols = lcols;
            let build_key_cols = rcols;
            let right_arity = rb.schema.len();
            let shifted_left_keys = probe_key_cols.clone();
            let id = self.spec.add(
                OpKind::HashJoin {
                    left_keys: shifted_left_keys,
                    right_keys: build_key_cols.clone(),
                    kind,
                    right_arity,
                    memory: self.cfg.op_memory,
                },
                dop,
                "hash-join",
            );
            self.spec
                .connect(lb.op, id, 0, ConnStrategy::Hash(probe_key_cols));
            self.spec
                .connect(rb.op, id, 1, ConnStrategy::Hash(build_key_cols));
            let mut schema = lb.schema.clone();
            schema.extend(rb.schema.iter().copied());
            let mut built = Built { op: id, partitions: dop, schema, local_order: None };
            if !residual.is_empty() {
                let pred = self.make_pred(&crate::rules::conjoin(residual), &built.schema)?;
                let f = self.spec.add(OpKind::Filter(pred), dop, "join-residual");
                self.spec.connect(built.op, f, 0, ConnStrategy::OneToOne);
                built.op = f;
            }
            Ok(built)
        } else {
            // nested-loop join: broadcast the right side
            let mut combined = lb.schema.clone();
            combined.extend(rb.schema.iter().copied());
            let bound = bind(condition, &combined)?;
            let right_arity = rb.schema.len();
            let pred: Pred2Fn = Arc::new(move |l, r| {
                let mut t = Vec::with_capacity(l.len() + r.len());
                t.extend_from_slice(l);
                t.extend_from_slice(r);
                Ok(matches!(eval(&bound, &t)?, Value::Bool(true)))
            });
            let id = self.spec.add(
                OpKind::NestedLoopJoin {
                    pred,
                    kind,
                    right_arity,
                },
                lb.partitions,
                "nl-join",
            );
            self.spec.connect(lb.op, id, 0, ConnStrategy::OneToOne);
            self.spec.connect(rb.op, id, 1, ConnStrategy::Broadcast);
            Ok(Built { op: id, partitions: lb.partitions, schema: combined, local_order: None })
        }
    }

    /// `GROUP BY` whose output is the group itself (`GROUP AS`, AQL
    /// `with $v`): each group's payloads nested under one variable.
    fn compile_group_collect(
        &mut self,
        input: &LogicalOp,
        keys: &[(VarId, Expr)],
        c: &crate::plan::GroupCollect,
    ) -> Result<Built> {
        let built = self.compile_op(input)?;
        let key_exprs: Vec<Expr> = keys.iter().map(|(_, e)| e.clone()).collect();
        let (built, key_cols) = self.append_exprs(built, &key_exprs, "group-keys")?;
        // payload per input tuple: wrapped object (SQL++ GROUP AS) or
        // the bare value when a single unwrapped binding is collected
        // (AQL `with $v`)
        let payload = if !c.wrap && c.fields.len() == 1 {
            c.fields[0].1.clone()
        } else {
            let mut obj_args: Vec<Expr> = Vec::with_capacity(c.fields.len() * 2);
            for (name, e) in &c.fields {
                obj_args.push(Expr::Const(Value::String(name.clone())));
                obj_args.push(e.clone());
            }
            Expr::Call(Func::ObjectConstructor, obj_args)
        };
        let (built, pcols) = self.append_exprs(built, &[payload], "group-payload")?;
        let dop = self.cfg.dop.max(1);
        let id = self.spec.add(
            OpKind::GroupCollect {
                key_cols: key_cols.clone(),
                payload_cols: pcols,
                memory: self.cfg.op_memory,
            },
            dop,
            "group-collect",
        );
        self.spec.connect(built.op, id, 0, ConnStrategy::Hash(key_cols));
        let mut schema: Vec<VarId> = keys.iter().map(|(v, _)| *v).collect();
        schema.push(c.var);
        Ok(Built { op: id, partitions: dop, schema, local_order: None })
    }

    /// Aggregation, grouped (`keys`) or scalar (none): one Assign computes
    /// keys and arguments, then a stage on each side of the one exchange —
    /// `Partial` per input partition, `Final` after it — or, with
    /// [`Rule::LocalAggregation`] disabled, a single `Complete` stage after
    /// it. What a function's partial looks like is the accumulator's
    /// business (`asterix_hyracks::ops::AggState`); only its width is
    /// counted here.
    fn compile_aggregate(
        &mut self,
        input: &LogicalOp,
        keys: &[(VarId, Expr)],
        aggs: &[(VarId, AggFunc, Expr)],
    ) -> Result<Built> {
        let built = self.compile_op(input)?;
        let prefix = if keys.is_empty() { "agg" } else { "group" };
        let exprs: Vec<Expr> =
            keys.iter().map(|(_, e)| e).chain(aggs.iter().map(|(_, _, e)| e)).cloned().collect();
        let (built, cols) = self.append_exprs(built, &exprs, &format!("{prefix}-input"))?;
        let (key_cols, arg_cols) = cols.split_at(keys.len());
        let mut specs: Vec<AggSpec> = aggs
            .iter()
            .zip(arg_cols)
            .map(|((_, func, _), col)| AggSpec::complete(*func, *col))
            .collect();
        // one stage: a group-by, or with no keys the operator that answers
        // one row for an empty input too
        let memory = self.cfg.op_memory;
        let stage = |key_cols: &[usize], aggs: Vec<AggSpec>| match key_cols {
            [] => OpKind::Aggregate { aggs },
            _ => OpKind::GroupBy { key_cols: key_cols.to_vec(), aggs, memory },
        };
        let (mut feed, mut key_cols) = (built.op, key_cols.to_vec());
        if !self.disabled.contains(&Rule::LocalAggregation) {
            let partial = specs.iter().map(|s| AggSpec { phase: AggPhase::Partial, ..*s }).collect();
            let local =
                self.spec.add(stage(&key_cols, partial), built.partitions, format!("{prefix}-local"));
            self.spec.connect(feed, local, 0, ConnStrategy::OneToOne);
            // it emits the keys, then each function's partial columns
            feed = local;
            key_cols = (0..keys.len()).collect();
            let mut col = keys.len();
            for s in &mut specs {
                *s = AggSpec { col, phase: AggPhase::Final, ..*s };
                col += s.func.partial_cols();
            }
        }
        let (partitions, exchange) = match keys {
            [] => (1, ConnStrategy::Gather),
            _ => (self.cfg.dop.max(1), ConnStrategy::Hash(key_cols.clone())),
        };
        let global = self.spec.add(stage(&key_cols, specs), partitions, format!("{prefix}-global"));
        self.spec.connect(feed, global, 0, exchange);
        let schema = keys.iter().map(|(v, _)| *v).chain(aggs.iter().map(|(v, _, _)| *v)).collect();
        Ok(Built { op: global, partitions, schema, local_order: None })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::{GroupCollect, LogicalOp, Plan};
    use crate::rules::optimize;
    use crate::source::VecSource;
    use asterix_adm::parse::parse_value;
    use asterix_hyracks::RuntimeCtx;

    fn users_source() -> Arc<VecSource> {
        let mk = |id: i64, age: i64, city: &str| {
            parse_value(&format!(
                r#"{{"id": {id}, "age": {age}, "city": "{city}",
                     "friends": [{}, {}]}}"#,
                id * 2,
                id * 2 + 1
            ))
            .unwrap()
        };
        VecSource::new(
            "users",
            vec![
                vec![mk(1, 20, "irvine"), mk(2, 35, "riverside")],
                vec![mk(3, 41, "irvine"), mk(4, 28, "sandiego")],
            ],
        )
    }

    fn run(plan: Plan) -> Vec<Value> {
        let mut plan = plan;
        optimize(&mut plan, &Default::default());
        let cfg = JobGenConfig { dop: 2, ..Default::default() };
        execute(&plan, &cfg, RuntimeCtx::temp().unwrap(), Default::default()).unwrap().0
    }

    #[test]
    fn scan_select_project_result() {
        let plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Select {
                input: Box::new(LogicalOp::DataSourceScan {
                    source: users_source(),
                    var: 0,
                    access: None,
                    fields: vec![],
                }),
                condition: Expr::bin(
                    Func::Gt,
                    Expr::field(Expr::Var(0), "age"),
                    Expr::Const(Value::Int(30)),
                ),
            }),
            exprs: vec![Expr::field(Expr::Var(0), "id")],
        });
        let mut out = run(plan);
        out.sort_by(asterix_adm::compare::total_cmp);
        assert_eq!(out, vec![Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn group_by_with_local_global_split() {
        let plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::GroupBy {
                input: Box::new(LogicalOp::DataSourceScan {
                    source: users_source(),
                    var: 0,
                    access: None,
                    fields: vec![],
                }),
                keys: vec![(10, Expr::field(Expr::Var(0), "city"))],
                aggs: vec![
                    (11, AggFunc::CountStar, Expr::Const(Value::Int(0))),
                    (12, AggFunc::Avg, Expr::field(Expr::Var(0), "age")),
                ],
                collect: None,
            }),
            exprs: vec![Expr::Var(10), Expr::Var(11), Expr::Var(12)],
        });
        let mut rows = run(plan);
        rows.sort_by(asterix_adm::compare::total_cmp);
        assert_eq!(rows.len(), 3);
        let irvine = rows
            .iter()
            .find(|r| r.index(0) == &Value::from("irvine"))
            .unwrap();
        assert_eq!(irvine.index(1), &Value::Int(2));
        assert_eq!(irvine.index(2), &Value::Double(30.5));
    }

    #[test]
    fn group_collect_builds_objects() {
        let plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::GroupBy {
                input: Box::new(LogicalOp::DataSourceScan {
                    source: users_source(),
                    var: 0,
                    access: None,
                    fields: vec![],
                }),
                keys: vec![(10, Expr::field(Expr::Var(0), "city"))],
                aggs: vec![],
                collect: Some(GroupCollect {
                    var: 11,
                    fields: vec![("u".into(), Expr::Var(0))],
                    wrap: true,
                }),
            }),
            exprs: vec![Expr::Var(10), Expr::Call(Func::Coll(AggFunc::Count), vec![Expr::Var(11)])],
        });
        let mut rows = run(plan);
        rows.sort_by(asterix_adm::compare::total_cmp);
        let irvine = rows
            .iter()
            .find(|r| r.index(0) == &Value::from("irvine"))
            .unwrap();
        assert_eq!(irvine.index(1), &Value::Int(2), "group size via COLL_COUNT");
    }

    #[test]
    fn hash_join_via_equi_condition() {
        let msgs = VecSource::single(
            "msgs",
            vec![
                parse_value(r#"{"mid": 100, "author": 1}"#).unwrap(),
                parse_value(r#"{"mid": 101, "author": 1}"#).unwrap(),
                parse_value(r#"{"mid": 102, "author": 3}"#).unwrap(),
            ],
        );
        let plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Join {
                left: Box::new(LogicalOp::DataSourceScan {
                    source: users_source(),
                    var: 0,
                    access: None,
                    fields: vec![],
                }),
                right: Box::new(LogicalOp::DataSourceScan { source: msgs, var: 1, access: None, fields: vec![] }),
                condition: Expr::bin(
                    Func::Eq,
                    Expr::field(Expr::Var(0), "id"),
                    Expr::field(Expr::Var(1), "author"),
                ),
                kind: JoinKind::Inner,
            }),
            exprs: vec![Expr::field(Expr::Var(1), "mid")],
        });
        let mut out = run(plan);
        out.sort_by(asterix_adm::compare::total_cmp);
        assert_eq!(out, vec![Value::Int(100), Value::Int(101), Value::Int(102)]);
    }

    #[test]
    fn order_limit_topk_path() {
        let plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Limit {
                input: Box::new(LogicalOp::Order {
                    input: Box::new(LogicalOp::DataSourceScan {
                        source: users_source(),
                        var: 0,
                        access: None,
                        fields: vec![],
                    }),
                    keys: vec![(Expr::field(Expr::Var(0), "age"), true)],
                }),
                offset: 0,
                count: Some(2),
            }),
            exprs: vec![Expr::field(Expr::Var(0), "age")],
        });
        let out = run(plan);
        assert_eq!(out, vec![Value::Int(41), Value::Int(35)], "top-2 ages descending");
    }

    #[test]
    fn unnest_flattens_arrays() {
        let plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Unnest {
                input: Box::new(LogicalOp::DataSourceScan {
                    source: users_source(),
                    var: 0,
                    access: None,
                    fields: vec![],
                }),
                var: 1,
                expr: Expr::field(Expr::Var(0), "friends"),
                outer: false,
            }),
            exprs: vec![Expr::Var(1)],
        });
        let out = run(plan);
        assert_eq!(out.len(), 8, "4 users x 2 friends");
    }

    #[test]
    fn scalar_aggregate_parallel() {
        let plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Aggregate {
                input: Box::new(LogicalOp::DataSourceScan {
                    source: users_source(),
                    var: 0,
                    access: None,
                    fields: vec![],
                }),
                aggs: vec![
                    (10, AggFunc::CountStar, Expr::Const(Value::Int(0))),
                    (11, AggFunc::Sum, Expr::field(Expr::Var(0), "age")),
                    (12, AggFunc::Min, Expr::field(Expr::Var(0), "age")),
                ],
            }),
            exprs: vec![Expr::Var(10), Expr::Var(11), Expr::Var(12)],
        });
        let out = run(plan);
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].index(0), &Value::Int(4));
        assert_eq!(out[0].index(1), &Value::Int(124));
        assert_eq!(out[0].index(2), &Value::Int(20));
    }

    #[test]
    fn theta_join_uses_nested_loop() {
        let small = VecSource::single(
            "bounds",
            vec![parse_value(r#"{"lo": 25, "hi": 40}"#).unwrap()],
        );
        let plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Join {
                left: Box::new(LogicalOp::DataSourceScan {
                    source: users_source(),
                    var: 0,
                    access: None,
                    fields: vec![],
                }),
                right: Box::new(LogicalOp::DataSourceScan { source: small, var: 1, access: None, fields: vec![] }),
                condition: Expr::bin(
                    Func::And,
                    Expr::bin(
                        Func::Gt,
                        Expr::field(Expr::Var(0), "age"),
                        Expr::field(Expr::Var(1), "lo"),
                    ),
                    Expr::bin(
                        Func::Lt,
                        Expr::field(Expr::Var(0), "age"),
                        Expr::field(Expr::Var(1), "hi"),
                    ),
                ),
                kind: JoinKind::Inner,
            }),
            exprs: vec![Expr::field(Expr::Var(0), "id")],
        });
        let mut out = run(plan);
        out.sort_by(asterix_adm::compare::total_cmp);
        assert_eq!(out, vec![Value::Int(2), Value::Int(4)], "ages 35, 28 in (25,40)");
    }

    #[test]
    fn distinct_on_expression() {
        let plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Distinct {
                input: Box::new(LogicalOp::DataSourceScan {
                    source: users_source(),
                    var: 0,
                    access: None,
                    fields: vec![],
                }),
                exprs: vec![Expr::field(Expr::Var(0), "city")],
            }),
            exprs: vec![Expr::field(Expr::Var(0), "city")],
        });
        let out = run(plan);
        assert_eq!(out.len(), 3, "three distinct cities");
    }

    #[test]
    fn left_outer_join_pads() {
        let msgs = VecSource::single(
            "msgs",
            vec![parse_value(r#"{"mid": 100, "author": 1}"#).unwrap()],
        );
        let plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Join {
                left: Box::new(LogicalOp::DataSourceScan {
                    source: users_source(),
                    var: 0,
                    access: None,
                    fields: vec![],
                }),
                right: Box::new(LogicalOp::DataSourceScan { source: msgs, var: 1, access: None, fields: vec![] }),
                condition: Expr::bin(
                    Func::Eq,
                    Expr::field(Expr::Var(0), "id"),
                    Expr::field(Expr::Var(1), "author"),
                ),
                kind: JoinKind::LeftOuter,
            }),
            exprs: vec![
                Expr::field(Expr::Var(0), "id"),
                Expr::Call(Func::IsMissing, vec![Expr::Var(1)]),
            ],
        });
        let mut out = run(plan);
        out.sort_by(asterix_adm::compare::total_cmp);
        assert_eq!(out.len(), 4);
        // user 1 matched; users 2..4 padded with MISSING
        assert_eq!(out[0].index(1), &Value::Bool(false));
        assert_eq!(out[1].index(1), &Value::Bool(true));
    }

    /// `EXPLAIN` names the join method the job runs: a hash join for an
    /// equality over both inputs (an outer one only with nothing else in its
    /// condition), a nested-loop join otherwise.
    #[test]
    fn the_printed_join_method_is_the_one_compiled() {
        let eq = Expr::bin(Func::Eq, Expr::field(Expr::Var(0), "id"), Expr::field(Expr::Var(1), "author"));
        let lt = Expr::bin(Func::Lt, Expr::field(Expr::Var(0), "age"), Expr::field(Expr::Var(1), "mid"));
        let both = Expr::bin(Func::And, eq.clone(), lt.clone());
        let cases = [
            (eq.clone(), JoinKind::Inner, "hash"),
            (lt.clone(), JoinKind::Inner, "nested-loop"),
            (both.clone(), JoinKind::Inner, "hash"),
            (eq, JoinKind::LeftOuter, "hash"),
            (lt, JoinKind::LeftOuter, "nested-loop"),
            (both, JoinKind::LeftOuter, "nested-loop"),
        ];
        for (condition, kind, method) in cases {
            let msgs = VecSource::single("msgs", vec![parse_value(r#"{"mid": 100, "author": 1}"#).unwrap()]);
            let mut plan = Plan::new(LogicalOp::DistributeResult {
                input: Box::new(LogicalOp::Join {
                    left: Box::new(LogicalOp::DataSourceScan { source: users_source(), var: 0, access: None, fields: vec![] }),
                    right: Box::new(LogicalOp::DataSourceScan { source: msgs, var: 1, access: None, fields: vec![] }),
                    condition,
                    kind,
                }),
                exprs: vec![Expr::Var(0)],
            });
            optimize(&mut plan, &Default::default());
            let printed = plan.pretty();
            assert!(printed.contains(&format!("{kind:?}-join {method} ")), "{printed}");
            let spec = compile(&plan, &JobGenConfig::default()).unwrap();
            let label = if method == "hash" { "hash-join" } else { "nl-join" };
            assert!(spec.ops.iter().any(|op| op.label == label), "{kind:?} {method}: {printed}");
        }
    }
}
