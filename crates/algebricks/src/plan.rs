//! The logical algebra: operators over logical variables.
//!
//! Mirrors Algebricks' operator set (paper Figure 5): data-source scans,
//! select, assign, unnest, join, group-by (with SQL++'s first-class group
//! collection), aggregate, order, limit, distinct, union-all, and
//! distribute-result. Plans are operator trees; the optimizer rewrites them
//! and the job generator lowers them onto Hyracks.

use crate::expr::Expr;
use crate::rules::Rule;
use crate::source::{AccessPath, DataSource};
use std::collections::BTreeSet;
use std::fmt::Write as _;
use std::sync::Arc;

/// A logical variable.
pub type VarId = usize;

/// Allocates fresh logical variables during translation and rewriting.
#[derive(Debug, Default, Clone)]
pub struct VarGen {
    next: VarId,
}

impl VarGen {
    /// A generator starting at 0.
    pub fn new() -> Self {
        VarGen::default()
    }

    /// Returns a fresh variable.
    pub fn fresh(&mut self) -> VarId {
        let v = self.next;
        self.next += 1;
        v
    }
}

/// Aggregate functions and join kinds of the logical algebra: the runtime's
/// own, so what a plan names is what the operators run.
pub use asterix_hyracks::job::{AggFunc, JoinKind};

/// Group-collection output of a GROUP BY: the group variable holds, per
/// group, an array of objects built from `fields` (name → expression over
/// the pre-group schema).
#[derive(Debug, Clone)]
pub struct GroupCollect {
    pub var: VarId,
    pub fields: Vec<(String, Expr)>,
    /// SQL++ `GROUP AS` wraps each grouped item in an object keyed by the
    /// binding names; AQL's `with $v` collects the bare values. `true` for
    /// the SQL++ behaviour.
    pub wrap: bool,
}

/// A logical operator (inputs owned, tree-shaped).
pub enum LogicalOp {
    /// Scans a data source, binding each record to `var`. When `access` is
    /// set, the optimizer has replaced the full scan with an index probe.
    /// `fields`, sorted, are the top-level fields through which the plan
    /// reads `var` when field access is all it does with it (the optimizer
    /// works that out); empty means the whole record.
    DataSourceScan {
        source: Arc<dyn DataSource>,
        var: VarId,
        access: Option<AccessPath>,
        fields: Vec<String>,
    },
    /// Produces exactly one empty tuple (queries without FROM).
    Empty,
    /// Filters by a boolean condition.
    Select { input: Box<LogicalOp>, condition: Expr },
    /// Binds `var := expr`.
    Assign { input: Box<LogicalOp>, var: VarId, expr: Expr },
    /// Restricts live variables.
    Project { input: Box<LogicalOp>, vars: Vec<VarId> },
    /// Iterates a collection expression, binding each item to `var`.
    Unnest { input: Box<LogicalOp>, var: VarId, expr: Expr, outer: bool },
    /// Joins two subplans on an arbitrary condition.
    Join {
        left: Box<LogicalOp>,
        right: Box<LogicalOp>,
        condition: Expr,
        kind: JoinKind,
    },
    /// Groups by key expressions; computes aggregates and/or collects the
    /// group itself.
    GroupBy {
        input: Box<LogicalOp>,
        /// `(new_var, key_expr)` pairs.
        keys: Vec<(VarId, Expr)>,
        /// `(new_var, function, argument)` triples.
        aggs: Vec<(VarId, AggFunc, Expr)>,
        collect: Option<GroupCollect>,
    },
    /// Whole-input scalar aggregation.
    Aggregate { input: Box<LogicalOp>, aggs: Vec<(VarId, AggFunc, Expr)> },
    /// Orders by expressions.
    Order { input: Box<LogicalOp>, keys: Vec<(Expr, bool)> },
    /// Offset/limit.
    Limit { input: Box<LogicalOp>, offset: usize, count: Option<usize> },
    /// Duplicate elimination on expressions.
    Distinct { input: Box<LogicalOp>, exprs: Vec<Expr> },
    /// Bag union; both inputs project to `out.len()` columns.
    UnionAll {
        left: Box<LogicalOp>,
        right: Box<LogicalOp>,
        /// Variables named by the union output.
        out: Vec<VarId>,
        /// Per-branch column variables aligned with `out`.
        left_vars: Vec<VarId>,
        right_vars: Vec<VarId>,
    },
    /// Terminal: emits one result value per tuple.
    DistributeResult { input: Box<LogicalOp>, exprs: Vec<Expr> },
}

impl LogicalOp {
    /// Output schema: live variables in tuple-column order.
    pub fn schema(&self) -> Vec<VarId> {
        match self {
            LogicalOp::DataSourceScan { var, .. } => vec![*var],
            LogicalOp::Empty => vec![],
            LogicalOp::Select { input, .. }
            | LogicalOp::Order { input, .. }
            | LogicalOp::Limit { input, .. }
            | LogicalOp::Distinct { input, .. } => input.schema(),
            LogicalOp::Assign { input, var, .. } => {
                let mut s = input.schema();
                s.push(*var);
                s
            }
            LogicalOp::Project { vars, .. } => vars.clone(),
            LogicalOp::Unnest { input, var, .. } => {
                let mut s = input.schema();
                s.push(*var);
                s
            }
            LogicalOp::Join { left, right, .. } => {
                let mut s = left.schema();
                s.extend(right.schema());
                s
            }
            LogicalOp::GroupBy { keys, aggs, collect, .. } => {
                let mut s: Vec<VarId> = keys.iter().map(|(v, _)| *v).collect();
                s.extend(aggs.iter().map(|(v, _, _)| *v));
                if let Some(c) = collect {
                    s.push(c.var);
                }
                s
            }
            LogicalOp::Aggregate { aggs, .. } => aggs.iter().map(|(v, _, _)| *v).collect(),
            LogicalOp::UnionAll { out, .. } => out.clone(),
            LogicalOp::DistributeResult { .. } => vec![],
        }
    }

    /// Immutable child operators.
    pub fn children(&self) -> Vec<&LogicalOp> {
        match self {
            LogicalOp::DataSourceScan { .. } | LogicalOp::Empty => vec![],
            LogicalOp::Select { input, .. }
            | LogicalOp::Assign { input, .. }
            | LogicalOp::Project { input, .. }
            | LogicalOp::Unnest { input, .. }
            | LogicalOp::GroupBy { input, .. }
            | LogicalOp::Aggregate { input, .. }
            | LogicalOp::Order { input, .. }
            | LogicalOp::Limit { input, .. }
            | LogicalOp::Distinct { input, .. }
            | LogicalOp::DistributeResult { input, .. } => vec![input],
            LogicalOp::Join { left, right, .. } | LogicalOp::UnionAll { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Mutable child operators.
    pub fn children_mut(&mut self) -> Vec<&mut LogicalOp> {
        match self {
            LogicalOp::DataSourceScan { .. } | LogicalOp::Empty => vec![],
            LogicalOp::Select { input, .. }
            | LogicalOp::Assign { input, .. }
            | LogicalOp::Project { input, .. }
            | LogicalOp::Unnest { input, .. }
            | LogicalOp::GroupBy { input, .. }
            | LogicalOp::Aggregate { input, .. }
            | LogicalOp::Order { input, .. }
            | LogicalOp::Limit { input, .. }
            | LogicalOp::Distinct { input, .. }
            | LogicalOp::DistributeResult { input, .. } => vec![input],
            LogicalOp::Join { left, right, .. } | LogicalOp::UnionAll { left, right, .. } => {
                vec![left, right]
            }
        }
    }

    /// Expressions evaluated by this operator (for variable-usage analysis).
    pub fn exprs(&self) -> Vec<&Expr> {
        match self {
            LogicalOp::Select { condition, .. } => vec![condition],
            LogicalOp::Assign { expr, .. } | LogicalOp::Unnest { expr, .. } => vec![expr],
            LogicalOp::Join { condition, .. } => vec![condition],
            LogicalOp::GroupBy { keys, aggs, collect, .. } => {
                let mut out: Vec<&Expr> = keys.iter().map(|(_, e)| e).collect();
                out.extend(aggs.iter().map(|(_, _, e)| e));
                if let Some(c) = collect {
                    out.extend(c.fields.iter().map(|(_, e)| e));
                }
                out
            }
            LogicalOp::Aggregate { aggs, .. } => aggs.iter().map(|(_, _, e)| e).collect(),
            LogicalOp::Order { keys, .. } => keys.iter().map(|(e, _)| e).collect(),
            LogicalOp::Distinct { exprs, .. } | LogicalOp::DistributeResult { exprs, .. } => {
                exprs.iter().collect()
            }
            _ => vec![],
        }
    }
}

/// How a join's condition splits over its two inputs: the equality
/// conjuncts with one side over each input, which are the hash keys, and
/// the rest. The job generator runs the join by it and `EXPLAIN` prints the
/// method it picks.
pub struct JoinKeys {
    /// Per key, its side over the left input.
    pub left: Vec<Expr>,
    /// Per key, its side over the right input.
    pub right: Vec<Expr>,
    pub residual: Vec<Expr>,
}

impl JoinKeys {
    /// Splits `condition` over a left input that yields the variables
    /// `left` and a right one that yields `right`.
    pub fn split(condition: &Expr, left: &[VarId], right: &[VarId]) -> Self {
        let over = |e: &Expr, side: &[VarId]| {
            let mut vars = Vec::new();
            e.used_vars(&mut vars);
            !vars.is_empty() && vars.iter().all(|v| side.contains(v))
        };
        let mut keys = JoinKeys { left: Vec::new(), right: Vec::new(), residual: Vec::new() };
        for c in crate::rules::conjuncts(condition) {
            match &c {
                Expr::Call(crate::expr::Func::Eq, args) if args.len() == 2 => {
                    let (a, b) = (&args[0], &args[1]);
                    if over(a, left) && over(b, right) {
                        keys.left.push(a.clone());
                        keys.right.push(b.clone());
                    } else if over(a, right) && over(b, left) {
                        keys.left.push(b.clone());
                        keys.right.push(a.clone());
                    } else {
                        keys.residual.push(c);
                    }
                }
                _ => keys.residual.push(c),
            }
        }
        keys
    }

    /// Whether a join of `kind` runs as a hash join: it has keys and, unless
    /// it is an inner join, no residual. It runs as a nested-loop join
    /// otherwise.
    pub fn hashable(&self, kind: JoinKind) -> bool {
        !self.left.is_empty() && (kind == JoinKind::Inner || self.residual.is_empty())
    }
}

/// A complete logical plan (rooted at a `DistributeResult`).
pub struct Plan {
    pub root: LogicalOp,
    /// The rules [`crate::rules::optimize`] was told to skip; the job
    /// generator reads its own choices from here.
    pub disabled: BTreeSet<Rule>,
}

impl Plan {
    /// Wraps a root operator.
    pub fn new(root: LogicalOp) -> Self {
        Plan { root, disabled: BTreeSet::new() }
    }

    /// Pretty-prints the plan with variables renumbered in first-appearance
    /// order, so structurally identical plans print identically regardless
    /// of how the front-end allocated variable ids (experiment E9 compares
    /// AQL and SQL++ compilations this way).
    pub fn pretty(&self) -> String {
        let mut renumber: std::collections::HashMap<VarId, usize> = Default::default();
        let mut out = String::new();
        print_op(&self.root, 0, &mut renumber, &mut out);
        out
    }
}

/// How plans and operator labels show the fields a scan yields: ` {a, b}`,
/// nothing for the whole record.
pub fn field_set(fields: &[String]) -> String {
    if fields.is_empty() {
        String::new()
    } else {
        format!(" {{{}}}", fields.join(", "))
    }
}

fn canon_var(v: VarId, map: &mut std::collections::HashMap<VarId, usize>) -> usize {
    let n = map.len();
    *map.entry(v).or_insert(n)
}

fn canon_expr(e: &Expr, map: &mut std::collections::HashMap<VarId, usize>) -> String {
    match e {
        Expr::Var(v) => format!("${}", canon_var(*v, map)),
        Expr::Const(v) => format!("{v}"),
        Expr::Field(b, name) => format!("{}.{}", canon_expr(b, map), name),
        Expr::Index(b, i) => format!("{}[{}]", canon_expr(b, map), canon_expr(i, map)),
        Expr::Call(f, args) => {
            let parts: Vec<String> = args.iter().map(|a| canon_expr(a, map)).collect();
            format!("{}({})", f.name(), parts.join(", "))
        }
        Expr::Case(arms, els) => {
            let mut s = String::from("case");
            for (c, t) in arms {
                let _ = write!(s, " when {} then {}", canon_expr(c, map), canon_expr(t, map));
            }
            let _ = write!(s, " else {} end", canon_expr(els, map));
            s
        }
    }
}

fn print_op(
    op: &LogicalOp,
    depth: usize,
    map: &mut std::collections::HashMap<VarId, usize>,
    out: &mut String,
) {
    let pad = "  ".repeat(depth);
    match op {
        LogicalOp::DataSourceScan { source, var, access, fields } => {
            let (fields, var) = (field_set(fields), canon_var(*var, map));
            match access {
                None => {
                    let _ = writeln!(out, "{pad}scan {}{fields} -> ${var}", source.name());
                }
                Some(a) => {
                    let _ = writeln!(
                        out,
                        "{pad}index-scan {}#{} [{}]{fields} -> ${var}",
                        source.name(),
                        a.index,
                        a.range,
                    );
                }
            }
        }
        LogicalOp::Empty => {
            let _ = writeln!(out, "{pad}empty");
        }
        LogicalOp::Select { input, condition } => {
            let _ = writeln!(out, "{pad}select {}", canon_expr(condition, map));
            print_op(input, depth + 1, map, out);
        }
        LogicalOp::Assign { input, var, expr } => {
            let e = canon_expr(expr, map);
            let _ = writeln!(out, "{pad}assign ${} := {}", canon_var(*var, map), e);
            print_op(input, depth + 1, map, out);
        }
        LogicalOp::Project { input, vars } => {
            let vs: Vec<String> = vars.iter().map(|v| format!("${}", canon_var(*v, map))).collect();
            let _ = writeln!(out, "{pad}project [{}]", vs.join(", "));
            print_op(input, depth + 1, map, out);
        }
        LogicalOp::Unnest { input, var, expr, outer } => {
            let e = canon_expr(expr, map);
            let _ = writeln!(
                out,
                "{pad}{}unnest ${} <- {}",
                if *outer { "outer-" } else { "" },
                canon_var(*var, map),
                e
            );
            print_op(input, depth + 1, map, out);
        }
        LogicalOp::Join { left, right, condition, kind } => {
            let hash = JoinKeys::split(condition, &left.schema(), &right.schema()).hashable(*kind);
            let method = if hash { "hash" } else { "nested-loop" };
            let _ = writeln!(out, "{pad}{kind:?}-join {method} {}", canon_expr(condition, map));
            print_op(left, depth + 1, map, out);
            print_op(right, depth + 1, map, out);
        }
        LogicalOp::GroupBy { input, keys, aggs, collect } => {
            let ks: Vec<String> = keys
                .iter()
                .map(|(v, e)| {
                    let e = canon_expr(e, map);
                    format!("${} := {}", canon_var(*v, map), e)
                })
                .collect();
            let ags: Vec<String> = aggs
                .iter()
                .map(|(v, f, e)| {
                    let e = canon_expr(e, map);
                    format!("${} := {}({})", canon_var(*v, map), f.name(), e)
                })
                .collect();
            let mut line = format!("{pad}group-by [{}] agg [{}]", ks.join(", "), ags.join(", "));
            if let Some(c) = collect {
                let fs: Vec<String> = c
                    .fields
                    .iter()
                    .map(|(n, e)| format!("{n}: {}", canon_expr(e, map)))
                    .collect();
                let _ = write!(line, " collect ${} := {{{}}}", canon_var(c.var, map), fs.join(", "));
            }
            let _ = writeln!(out, "{line}");
            print_op(input, depth + 1, map, out);
        }
        LogicalOp::Aggregate { input, aggs } => {
            let ags: Vec<String> = aggs
                .iter()
                .map(|(v, f, e)| {
                    let e = canon_expr(e, map);
                    format!("${} := {}({})", canon_var(*v, map), f.name(), e)
                })
                .collect();
            let _ = writeln!(out, "{pad}aggregate [{}]", ags.join(", "));
            print_op(input, depth + 1, map, out);
        }
        LogicalOp::Order { input, keys } => {
            let ks: Vec<String> = keys
                .iter()
                .map(|(e, desc)| {
                    format!("{}{}", canon_expr(e, map), if *desc { " desc" } else { "" })
                })
                .collect();
            let _ = writeln!(out, "{pad}order [{}]", ks.join(", "));
            print_op(input, depth + 1, map, out);
        }
        LogicalOp::Limit { input, offset, count } => {
            let _ = writeln!(
                out,
                "{pad}limit offset={offset} count={}",
                count.map(|c| c.to_string()).unwrap_or_else(|| "∞".into())
            );
            print_op(input, depth + 1, map, out);
        }
        LogicalOp::Distinct { input, exprs } => {
            let es: Vec<String> = exprs.iter().map(|e| canon_expr(e, map)).collect();
            let _ = writeln!(out, "{pad}distinct [{}]", es.join(", "));
            print_op(input, depth + 1, map, out);
        }
        LogicalOp::UnionAll { left, right, .. } => {
            let _ = writeln!(out, "{pad}union-all");
            print_op(left, depth + 1, map, out);
            print_op(right, depth + 1, map, out);
        }
        LogicalOp::DistributeResult { input, exprs } => {
            let es: Vec<String> = exprs.iter().map(|e| canon_expr(e, map)).collect();
            let _ = writeln!(out, "{pad}distribute-result [{}]", es.join(", "));
            print_op(input, depth + 1, map, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::VecSource;
    use asterix_adm::Value;

    fn scan(var: VarId) -> LogicalOp {
        LogicalOp::DataSourceScan {
            source: VecSource::single("ds", vec![]),
            var,
            access: None,
            fields: vec![],
        }
    }

    #[test]
    fn schemas_compose() {
        let plan = LogicalOp::Assign {
            input: Box::new(LogicalOp::Unnest {
                input: Box::new(scan(3)),
                var: 5,
                expr: Expr::field(Expr::Var(3), "xs"),
                outer: false,
            }),
            var: 9,
            expr: Expr::Var(5),
        };
        assert_eq!(plan.schema(), vec![3, 5, 9]);
        let join = LogicalOp::Join {
            left: Box::new(scan(1)),
            right: Box::new(scan(2)),
            condition: Expr::Const(Value::Bool(true)),
            kind: JoinKind::Inner,
        };
        assert_eq!(join.schema(), vec![1, 2]);
    }

    #[test]
    fn group_by_schema() {
        let g = LogicalOp::GroupBy {
            input: Box::new(scan(0)),
            keys: vec![(10, Expr::field(Expr::Var(0), "k"))],
            aggs: vec![(11, AggFunc::CountStar, Expr::Const(Value::Int(1)))],
            collect: Some(GroupCollect { var: 12, fields: vec![("r".into(), Expr::Var(0))], wrap: true }),
        };
        assert_eq!(g.schema(), vec![10, 11, 12]);
    }

    #[test]
    fn pretty_is_var_id_insensitive() {
        let mk = |base: VarId| {
            Plan::new(LogicalOp::DistributeResult {
                input: Box::new(LogicalOp::Select {
                    input: Box::new(scan(base)),
                    condition: Expr::bin(
                        crate::expr::Func::Gt,
                        Expr::field(Expr::Var(base), "x"),
                        Expr::Const(Value::Int(5)),
                    ),
                }),
                exprs: vec![Expr::Var(base)],
            })
        };
        assert_eq!(mk(0).pretty(), mk(42).pretty(), "canonical var numbering");
        assert!(mk(0).pretty().contains("select gt($0.x, 5)"));
    }
}
