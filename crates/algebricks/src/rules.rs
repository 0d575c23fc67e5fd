//! The rule-based optimizer (paper Figure 5: "rewrite rules" boxes).
//!
//! A small but representative subset of Algebricks' rule sets, run to a
//! fixpoint:
//!
//! 1. constant folding in every expression;
//! 2. select consolidation (adjacent selects merge into one conjunction);
//! 3. selection pushdown through assigns/unnests and into/through joins;
//! 4. select-into-join merging (filters directly above a join become join
//!    conditions, later split into equi-keys by the job generator);
//! 5. dead-assign elimination (unused computed variables vanish);
//! 6. **index access-path introduction**: a select over a data-source scan
//!    whose conjuncts constrain the primary key or an indexed field is
//!    rewritten to an index-scan (primary-key point get or key range,
//!    B+ tree range, R-tree spatial intersection, or inverted keyword
//!    probe), keeping the original predicate as a residual filter — the
//!    data-partition-aware access-path selection the paper credits
//!    Algebricks with (Section III, feature 3).
//!
//! and, once those have settled, **field-access pushdown**: each data-source
//! scan is told the top-level fields through which the plan reads its
//! variable, so the source can leave the others undecoded.

use crate::expr::{const_fold, Expr, Func};
use crate::plan::{LogicalOp, Plan, VarId};
use crate::source::{AccessPath, IndexInfo, IndexKind, IndexRange, PRIMARY_INDEX};
use asterix_adm::compare::total_cmp;
use asterix_adm::Value;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};

/// Rounds within which the rules must reach a fixpoint. A debug build
/// refuses a plan that is still changing in the last one; a release build
/// keeps the plan as that round left it.
const MAX_ROUNDS: usize = 13;

/// Optimizes a plan in place, running all rules to a fixpoint.
pub fn optimize(plan: &mut Plan) {
    for round in 1..=MAX_ROUNDS {
        let mut changed = false;
        fold_all_exprs(&mut plan.root);
        changed |= rewrite(&mut plan.root, &merge_selects);
        changed |= rewrite(&mut plan.root, &push_select);
        changed |= rewrite(&mut plan.root, &select_into_join);
        changed |= rewrite(&mut plan.root, &introduce_index_paths);
        changed |= eliminate_dead_assigns(&mut plan.root);
        if !changed {
            break;
        }
        debug_assert!(
            round < MAX_ROUNDS,
            "the rewrite rules reached no fixpoint in {MAX_ROUNDS} rounds"
        );
    }
    push_field_access(&mut plan.root);
}

/// Applies `rule` bottom-up everywhere; returns whether anything changed.
fn rewrite(op: &mut LogicalOp, rule: &dyn Fn(LogicalOp) -> (LogicalOp, bool)) -> bool {
    let mut changed = false;
    for child in op.children_mut() {
        changed |= rewrite(child, rule);
    }
    let owned = std::mem::replace(op, LogicalOp::Empty);
    let (new, c) = rule(owned);
    *op = new;
    changed | c
}

fn fold_all_exprs(op: &mut LogicalOp) {
    match op {
        LogicalOp::Select { condition, .. } => const_fold(condition),
        LogicalOp::Assign { expr, .. } | LogicalOp::Unnest { expr, .. } => const_fold(expr),
        LogicalOp::Join { condition, .. } => const_fold(condition),
        LogicalOp::GroupBy { keys, aggs, collect, .. } => {
            for (_, e) in keys {
                const_fold(e);
            }
            for (_, _, e) in aggs {
                const_fold(e);
            }
            if let Some(c) = collect {
                for (_, e) in &mut c.fields {
                    const_fold(e);
                }
            }
        }
        LogicalOp::Aggregate { aggs, .. } => {
            for (_, _, e) in aggs {
                const_fold(e);
            }
        }
        LogicalOp::Order { keys, .. } => {
            for (e, _) in keys {
                const_fold(e);
            }
        }
        LogicalOp::Distinct { exprs, .. } | LogicalOp::DistributeResult { exprs, .. } => {
            for e in exprs {
                const_fold(e);
            }
        }
        _ => {}
    }
    for child in op.children_mut() {
        fold_all_exprs(child);
    }
}

/// Splits a condition into its top-level conjuncts.
pub fn conjuncts(e: &Expr) -> Vec<Expr> {
    match e {
        Expr::Call(Func::And, args) => args.iter().flat_map(conjuncts).collect(),
        other => vec![other.clone()],
    }
}

/// Rebuilds a conjunction, dropping redundant TRUE literals (TRUE when empty).
pub fn conjoin(cs: Vec<Expr>) -> Expr {
    let mut cs: Vec<Expr> = cs
        .into_iter()
        .filter(|c| *c != Expr::Const(Value::Bool(true)))
        .collect();
    match cs.pop() {
        None => Expr::Const(Value::Bool(true)),
        Some(last) if cs.is_empty() => last,
        Some(last) => {
            cs.push(last);
            Expr::Call(Func::And, cs)
        }
    }
}

fn uses_only(e: &Expr, allowed: &[VarId]) -> bool {
    let mut vars = Vec::new();
    e.used_vars(&mut vars);
    vars.iter().all(|v| allowed.contains(v))
}

fn merge_selects(op: LogicalOp) -> (LogicalOp, bool) {
    if let LogicalOp::Select { input, condition } = op {
        if let LogicalOp::Select { input: inner, condition: inner_cond } = *input {
            let mut cs = conjuncts(&condition);
            cs.extend(conjuncts(&inner_cond));
            return (
                LogicalOp::Select { input: inner, condition: conjoin(cs) },
                true,
            );
        }
        // drop trivially-true selects
        if condition == Expr::Const(Value::Bool(true)) {
            return (*input, true);
        }
        return (LogicalOp::Select { input, condition }, false);
    }
    (op, false)
}

fn push_select(op: LogicalOp) -> (LogicalOp, bool) {
    let LogicalOp::Select { input, condition } = op else {
        return (op, false);
    };
    match *input {
        // through an assign the condition doesn't depend on
        LogicalOp::Assign { input: deeper, var, expr } => {
            let below = deeper.schema();
            let mut pushable = Vec::new();
            let mut stay = Vec::new();
            for c in conjuncts(&condition) {
                if uses_only(&c, &below) {
                    pushable.push(c);
                } else {
                    stay.push(c);
                }
            }
            if pushable.is_empty() {
                return (
                    LogicalOp::Select {
                        input: Box::new(LogicalOp::Assign { input: deeper, var, expr }),
                        condition,
                    },
                    false,
                );
            }
            let pushed = LogicalOp::Select { input: deeper, condition: conjoin(pushable) };
            let assign = LogicalOp::Assign { input: Box::new(pushed), var, expr };
            let rebuilt = if stay.is_empty() {
                assign
            } else {
                LogicalOp::Select { input: Box::new(assign), condition: conjoin(stay) }
            };
            (rebuilt, true)
        }
        // through an unnest the condition doesn't depend on
        LogicalOp::Unnest { input: deeper, var, expr, outer } => {
            let below = deeper.schema();
            let mut pushable = Vec::new();
            let mut stay = Vec::new();
            for c in conjuncts(&condition) {
                // pushing below an outer unnest changes semantics; keep above
                if !outer && uses_only(&c, &below) {
                    pushable.push(c);
                } else {
                    stay.push(c);
                }
            }
            if pushable.is_empty() {
                return (
                    LogicalOp::Select {
                        input: Box::new(LogicalOp::Unnest { input: deeper, var, expr, outer }),
                        condition,
                    },
                    false,
                );
            }
            let pushed = LogicalOp::Select { input: deeper, condition: conjoin(pushable) };
            let unnest = LogicalOp::Unnest { input: Box::new(pushed), var, expr, outer };
            let rebuilt = if stay.is_empty() {
                unnest
            } else {
                LogicalOp::Select { input: Box::new(unnest), condition: conjoin(stay) }
            };
            (rebuilt, true)
        }
        other => (
            LogicalOp::Select { input: Box::new(other), condition },
            false,
        ),
    }
}

fn select_into_join(op: LogicalOp) -> (LogicalOp, bool) {
    let LogicalOp::Select { input, condition } = op else {
        return (op, false);
    };
    match *input {
        LogicalOp::Join { left, right, condition: jc, kind } => {
            // Push side-local conjuncts into the inner sides; merge the rest
            // into the join condition. (For outer joins, only left-side
            // pushdown is semantics-preserving; we conservatively merge
            // everything into the post-join filter instead.)
            if kind != crate::plan::JoinKind::Inner {
                return (
                    LogicalOp::Select {
                        input: Box::new(LogicalOp::Join { left, right, condition: jc, kind }),
                        condition,
                    },
                    false,
                );
            }
            let lschema = left.schema();
            let rschema = right.schema();
            let mut to_left = Vec::new();
            let mut to_right = Vec::new();
            let mut to_join = conjuncts(&jc);
            let mut changed = false;
            for c in conjuncts(&condition) {
                if uses_only(&c, &lschema) {
                    to_left.push(c);
                    changed = true;
                } else if uses_only(&c, &rschema) {
                    to_right.push(c);
                    changed = true;
                } else {
                    to_join.push(c);
                    changed = true;
                }
            }
            let left = if to_left.is_empty() {
                left
            } else {
                Box::new(LogicalOp::Select { input: left, condition: conjoin(to_left) })
            };
            let right = if to_right.is_empty() {
                right
            } else {
                Box::new(LogicalOp::Select { input: right, condition: conjoin(to_right) })
            };
            (
                LogicalOp::Join { left, right, condition: conjoin(to_join), kind },
                changed,
            )
        }
        other => (
            LogicalOp::Select { input: Box::new(other), condition },
            false,
        ),
    }
}

/// Matches `field-access chain on the scan variable` against an index's
/// field path.
fn matches_indexed_field(e: &Expr, scan_var: VarId, path: &[String]) -> bool {
    let mut cur = e;
    let mut rev: Vec<&str> = Vec::new();
    loop {
        match cur {
            Expr::Field(base, name) => {
                rev.push(name);
                cur = base;
            }
            Expr::Var(v) if *v == scan_var => break,
            _ => return false,
        }
    }
    rev.reverse();
    rev.len() == path.len() && rev.iter().zip(path).all(|(a, b)| *a == b.as_str())
}

fn const_value(e: &Expr) -> Option<Value> {
    match e {
        Expr::Const(v) => Some(v.clone()),
        _ => None,
    }
}

/// The tightest interval a set of conjuncts places on one field: per end, a
/// constant and whether the end is inclusive.
#[derive(Default)]
struct Bounds {
    lo: Option<(Value, bool)>,
    hi: Option<(Value, bool)>,
}

impl Bounds {
    /// `field >= v` (`> v` when not `inclusive`).
    fn raise_lo(&mut self, v: Value, inclusive: bool) {
        tighten(&mut self.lo, v, inclusive, Ordering::Greater);
    }

    /// `field <= v` (`< v` when not `inclusive`).
    fn lower_hi(&mut self, v: Value, inclusive: bool) {
        tighten(&mut self.hi, v, inclusive, Ordering::Less);
    }

    /// The one value both ends pin the field to, if they do.
    fn point(&self) -> Option<&Value> {
        match (&self.lo, &self.hi) {
            (Some((lo, true)), Some((hi, true))) if total_cmp(lo, hi) == Ordering::Equal => {
                Some(lo)
            }
            _ => None,
        }
    }

    /// The bounds as a B+ tree probe (contradictory ends make an empty
    /// one); `None` when the field is not bounded at all.
    fn into_range(self) -> Option<IndexRange> {
        if self.lo.is_none() && self.hi.is_none() {
            return None;
        }
        let (lo, lo_inclusive) = self.lo.map_or((None, true), |(v, i)| (Some(v), i));
        let (hi, hi_inclusive) = self.hi.map_or((None, true), |(v, i)| (Some(v), i));
        Some(IndexRange::Range { lo, lo_inclusive, hi, hi_inclusive })
    }
}

/// Replaces the end in `slot` by `(v, inclusive)` when that excludes more:
/// `v` lies `inward` of it, or at the same value but exclusively.
fn tighten(slot: &mut Option<(Value, bool)>, v: Value, inclusive: bool, inward: Ordering) {
    let tighter = slot.as_ref().is_none_or(|(cur, cur_inclusive)| {
        let c = total_cmp(&v, cur);
        c == inward || (c == Ordering::Equal && *cur_inclusive && !inclusive)
    });
    if tighter {
        *slot = Some((v, inclusive));
    }
}

/// What the comparison conjuncts (`field op constant`, either way round)
/// say about the field at `path` of the scan variable.
fn field_bounds(cs: &[Expr], scan_var: VarId, path: &[String]) -> Bounds {
    let mut bounds = Bounds::default();
    for c in cs {
        let Expr::Call(f, args) = c else { continue };
        let [l, r] = args.as_slice() else { continue };
        let (f, v) = match (const_value(l), const_value(r)) {
            (None, Some(v)) if matches_indexed_field(l, scan_var, path) => (*f, v),
            // constant on the left: flip the comparison
            (Some(v), None) if matches_indexed_field(r, scan_var, path) => (
                match *f {
                    Func::Lt => Func::Gt,
                    Func::Le => Func::Ge,
                    Func::Gt => Func::Lt,
                    Func::Ge => Func::Le,
                    other => other,
                },
                v,
            ),
            _ => continue,
        };
        match f {
            Func::Eq => {
                bounds.raise_lo(v.clone(), true);
                bounds.lower_hi(v, true);
            }
            Func::Ge => bounds.raise_lo(v, true),
            Func::Gt => bounds.raise_lo(v, false),
            Func::Le => bounds.lower_hi(v, true),
            Func::Lt => bounds.lower_hi(v, false),
            _ => {}
        }
    }
    bounds
}

fn primary_path(range: IndexRange) -> AccessPath {
    AccessPath { index: PRIMARY_INDEX.into(), kind: IndexKind::Primary, range }
}

/// A point get: every primary-key field pinned to one constant (the get is
/// routed and bloom-checked by the key's bytes, which ADM-equal keys share).
fn primary_point(cs: &[Expr], scan_var: VarId, pk: &[Vec<String>]) -> Option<AccessPath> {
    if pk.is_empty() {
        return None;
    }
    let key: Option<Vec<Value>> = pk
        .iter()
        .map(|path| {
            let bounds = field_bounds(cs, scan_var, path);
            bounds.point().cloned()
        })
        .collect();
    Some(primary_path(IndexRange::Point(key?)))
}

/// A key range on the leading primary-key field.
fn primary_range(cs: &[Expr], scan_var: VarId, pk: &[Vec<String>]) -> Option<AccessPath> {
    Some(primary_path(field_bounds(cs, scan_var, pk.first()?).into_range()?))
}

fn secondary_path(cs: &[Expr], scan_var: VarId, idx: &IndexInfo) -> Option<AccessPath> {
    let range = match idx.kind {
        // advertised through `DataSource::primary_key`, not as an index
        IndexKind::Primary => None,
        IndexKind::BTree => field_bounds(cs, scan_var, &idx.field).into_range(),
        IndexKind::RTree => cs.iter().find_map(|c| {
            let Expr::Call(Func::SpatialIntersect, args) = c else { return None };
            let [field, query] = args.as_slice() else { return None };
            if !matches_indexed_field(field, scan_var, &idx.field) {
                return None;
            }
            match const_value(query)? {
                Value::Rectangle(r) => Some(IndexRange::Spatial(r)),
                Value::Point(p) => Some(IndexRange::Spatial(p.to_mbr())),
                _ => None,
            }
        }),
        IndexKind::Keyword => cs.iter().find_map(|c| {
            let Expr::Call(Func::StringContains, args) = c else { return None };
            let [field, pattern] = args.as_slice() else { return None };
            if !matches_indexed_field(field, scan_var, &idx.field) {
                return None;
            }
            let Value::String(s) = const_value(pattern)? else { return None };
            // token-based index: only safe as a pre-filter when the pattern
            // is a single full token
            let toks = asterix_storage::inverted::tokenize(&s);
            (toks.len() == 1 && toks[0].len() == s.to_lowercase().len())
                .then_some(IndexRange::Keyword(s))
        }),
    }?;
    Some(AccessPath { index: idx.name.clone(), kind: idx.kind, range })
}

/// Replaces a full scan under a select with the best access path the
/// select's conjuncts allow: a primary-key point get first (one record on
/// one partition beats anything), then the first secondary index with a
/// usable conjunct, then a primary-key range.
fn introduce_index_paths(op: LogicalOp) -> (LogicalOp, bool) {
    let LogicalOp::Select { input, condition } = op else {
        return (op, false);
    };
    let LogicalOp::DataSourceScan { source, var, access: None, fields } = *input else {
        return (LogicalOp::Select { input, condition }, false);
    };
    let cs = conjuncts(&condition);
    let pk = source.primary_key();
    let access = primary_point(&cs, var, &pk)
        .or_else(|| source.indexes().iter().find_map(|idx| secondary_path(&cs, var, idx)))
        .or_else(|| primary_range(&cs, var, &pk));
    let changed = access.is_some();
    (
        // keep the whole predicate as a residual filter: index probes
        // over-approximate (keyword tokens, spatial MBRs, range+other
        // conjuncts), so the select above guarantees exactness
        LogicalOp::Select {
            input: Box::new(LogicalOp::DataSourceScan { source, var, access, fields }),
            condition,
        },
        changed,
    )
}

/// Per variable, the top-level fields it is read through; `None` once
/// something reads it whole.
type FieldReads = HashMap<VarId, Option<BTreeSet<String>>>;

/// Sets every scan's `fields` to what the plan reads of its variable: the
/// names `f` of its `$v.f` accesses when those are its only uses, nothing
/// (the whole record) when anything else names `$v` — a bare `$v` in an
/// expression (a result, a group collection's payload), a `Project` or a
/// `UnionAll` carrying it on.
fn push_field_access(root: &mut LogicalOp) {
    fn note_expr(e: &Expr, reads: &mut FieldReads) {
        match e {
            Expr::Var(v) => {
                reads.insert(*v, None);
            }
            Expr::Const(_) => {}
            Expr::Field(base, name) => match **base {
                Expr::Var(v) => {
                    if let Some(fields) = reads.entry(v).or_insert_with(|| Some(BTreeSet::new())) {
                        fields.insert(name.clone());
                    }
                }
                _ => note_expr(base, reads),
            },
            Expr::Index(base, index) => {
                note_expr(base, reads);
                note_expr(index, reads);
            }
            Expr::Call(_, args) => args.iter().for_each(|a| note_expr(a, reads)),
            Expr::Case(arms, els) => {
                for (cond, then) in arms {
                    note_expr(cond, reads);
                    note_expr(then, reads);
                }
                note_expr(els, reads);
            }
        }
    }
    fn note_op(op: &LogicalOp, reads: &mut FieldReads) {
        op.exprs().into_iter().for_each(|e| note_expr(e, reads));
        let mut whole = |vars: &[VarId]| {
            for v in vars {
                reads.insert(*v, None);
            }
        };
        match op {
            LogicalOp::Project { vars, .. } => whole(vars),
            LogicalOp::UnionAll { left_vars, right_vars, .. } => {
                whole(left_vars);
                whole(right_vars);
            }
            _ => {}
        }
        op.children().into_iter().for_each(|c| note_op(c, reads));
    }
    // a variable is bound by one scan, which takes its names with it
    fn tell_scans(op: &mut LogicalOp, reads: &mut FieldReads) {
        if let LogicalOp::DataSourceScan { var, fields, .. } = op {
            *fields = match reads.remove(var) {
                Some(Some(names)) => names.into_iter().collect(),
                _ => Vec::new(),
            };
        }
        op.children_mut().into_iter().for_each(|c| tell_scans(c, reads));
    }
    let mut reads = FieldReads::new();
    note_op(root, &mut reads);
    tell_scans(root, &mut reads);
}

/// Removes `Assign`s whose variable is never used above them.
fn eliminate_dead_assigns(root: &mut LogicalOp) -> bool {
    fn walk(op: &mut LogicalOp, needed: &mut Vec<VarId>) -> bool {
        // vars needed by this operator's own expressions
        for e in op.exprs() {
            e.used_vars(needed);
        }
        // project narrows requirements, union renames — treat conservatively
        if let LogicalOp::Project { vars, .. } = op {
            for v in vars.iter() {
                if !needed.contains(v) {
                    needed.push(*v);
                }
            }
        }
        if let LogicalOp::UnionAll { out, left_vars, right_vars, .. } = op {
            for v in out.iter().chain(left_vars.iter()).chain(right_vars.iter()) {
                if !needed.contains(v) {
                    needed.push(*v);
                }
            }
        }
        let mut changed = false;
        // remove dead assign directly below
        loop {
            let replace = match op {
                LogicalOp::Select { input, .. }
                | LogicalOp::Assign { input, .. }
                | LogicalOp::Project { input, .. }
                | LogicalOp::Unnest { input, .. }
                | LogicalOp::GroupBy { input, .. }
                | LogicalOp::Aggregate { input, .. }
                | LogicalOp::Order { input, .. }
                | LogicalOp::Limit { input, .. }
                | LogicalOp::Distinct { input, .. }
                | LogicalOp::DistributeResult { input, .. } => {
                    if let LogicalOp::Assign { var, .. } = input.as_ref() {
                        if !needed.contains(var) {
                            let inner = std::mem::replace(input.as_mut(), LogicalOp::Empty);
                            if let LogicalOp::Assign { input: deeper, .. } = inner {
                                **input = *deeper;
                                true
                            } else {
                                // not an Assign after all: restore untouched
                                **input = inner;
                                false
                            }
                        } else {
                            false
                        }
                    } else {
                        false
                    }
                }
                _ => false,
            };
            if replace {
                changed = true;
            } else {
                break;
            }
        }
        for child in op.children_mut() {
            let mut child_needed = needed.clone();
            changed |= walk(child, &mut child_needed);
        }
        changed
    }
    let mut needed = Vec::new();
    walk(root, &mut needed)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::plan::JoinKind;
    use crate::source::{DataSource, VecSource};
    use std::sync::Arc;

    fn scan(var: VarId) -> LogicalOp {
        LogicalOp::DataSourceScan {
            source: VecSource::single("ds", vec![]),
            var,
            access: None,
            fields: vec![],
        }
    }

    fn gt_field(var: VarId, field: &str, v: i64) -> Expr {
        Expr::bin(Func::Gt, Expr::field(Expr::Var(var), field), Expr::Const(Value::Int(v)))
    }

    #[test]
    fn selects_merge_and_trivial_drops() {
        let mut plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Select {
                input: Box::new(LogicalOp::Select {
                    input: Box::new(scan(0)),
                    condition: gt_field(0, "a", 1),
                }),
                condition: gt_field(0, "b", 2),
            }),
            exprs: vec![Expr::Var(0)],
        });
        optimize(&mut plan);
        let p = plan.pretty();
        assert_eq!(p.matches("select").count(), 1, "merged into one select:\n{p}");
        assert!(p.contains("and("), "{p}");
    }

    #[test]
    fn select_pushes_through_assign() {
        // select(cond on $0) over assign $1 := ... must swap
        let mut plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Select {
                input: Box::new(LogicalOp::Assign {
                    input: Box::new(scan(0)),
                    var: 1,
                    expr: Expr::field(Expr::Var(0), "x"),
                }),
                condition: gt_field(0, "a", 5),
            }),
            exprs: vec![Expr::Var(1)],
        });
        optimize(&mut plan);
        let p = plan.pretty();
        let select_pos = p.find("select").unwrap();
        let assign_pos = p.find("assign").unwrap();
        assert!(assign_pos < select_pos, "select pushed below assign:\n{p}");
    }

    #[test]
    fn select_splits_across_join() {
        let cond = conjoin(vec![
            gt_field(0, "a", 1),                       // left only
            gt_field(1, "b", 2),                       // right only
            Expr::bin(
                Func::Eq,
                Expr::field(Expr::Var(0), "k"),
                Expr::field(Expr::Var(1), "k"),
            ), // join condition
        ]);
        let mut plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Select {
                input: Box::new(LogicalOp::Join {
                    left: Box::new(scan(0)),
                    right: Box::new(scan(1)),
                    condition: Expr::Const(Value::Bool(true)),
                    kind: JoinKind::Inner,
                }),
                condition: cond,
            }),
            exprs: vec![Expr::Var(0)],
        });
        optimize(&mut plan);
        let p = plan.pretty();
        assert!(p.contains("Inner-join eq("), "equi condition moved into join:\n{p}");
        assert_eq!(p.matches("select gt(").count(), 2, "side filters pushed:\n{p}");
    }

    #[test]
    fn dead_assigns_are_removed() {
        let mut plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Assign {
                input: Box::new(LogicalOp::Assign {
                    input: Box::new(scan(0)),
                    var: 1,
                    expr: Expr::field(Expr::Var(0), "used"),
                }),
                var: 2,
                expr: Expr::field(Expr::Var(0), "unused"),
            }),
            exprs: vec![Expr::Var(1)],
        });
        optimize(&mut plan);
        let p = plan.pretty();
        assert_eq!(p.matches("assign").count(), 1, "dead assign removed:\n{p}");
        assert!(p.contains("used"), "{p}");
        assert!(!p.contains("unused"), "{p}");
    }

    /// `users`, keyed by `pk`, with a B+ tree index on `userSince`.
    #[derive(Default)]
    struct IndexedSource {
        pk: Vec<&'static str>,
    }
    impl DataSource for IndexedSource {
        fn name(&self) -> &str {
            "users"
        }
        fn primary_key(&self) -> Vec<Vec<String>> {
            self.pk.iter().map(|f| vec![f.to_string()]).collect()
        }
        fn partitions(&self) -> usize {
            1
        }
        fn scan(&self, fields: &[String]) -> crate::error::Result<Arc<dyn asterix_hyracks::job::SourceFactory>> {
            VecSource::single("users", vec![]).scan(fields)
        }
        fn indexes(&self) -> Vec<IndexInfo> {
            vec![IndexInfo {
                name: "sinceIdx".into(),
                field: vec!["userSince".into()],
                kind: IndexKind::BTree,
            }]
        }
        fn index_scan(
            &self,
            _path: &AccessPath,
            fields: &[String],
        ) -> crate::error::Result<Arc<dyn asterix_hyracks::job::SourceFactory>> {
            VecSource::single("users", vec![]).scan(fields)
        }
    }

    #[test]
    fn index_access_path_is_introduced() {
        let cond = conjoin(vec![
            Expr::bin(
                Func::Ge,
                Expr::field(Expr::Var(0), "userSince"),
                Expr::Const(Value::DateTime(1000)),
            ),
            Expr::bin(
                Func::Lt,
                Expr::field(Expr::Var(0), "userSince"),
                Expr::Const(Value::DateTime(2000)),
            ),
        ]);
        let mut plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Select {
                input: Box::new(LogicalOp::DataSourceScan {
                    source: Arc::new(IndexedSource::default()),
                    var: 0,
                    access: None,
                    fields: vec![],
                }),
                condition: cond,
            }),
            exprs: vec![Expr::Var(0)],
        });
        optimize(&mut plan);
        let p = plan.pretty();
        assert!(p.contains("index-scan users#sinceIdx"), "{p}");
        assert!(p.contains("select"), "residual filter kept:\n{p}");
    }

    fn cmp(f: Func, field: &str, v: Value) -> Expr {
        Expr::bin(f, Expr::field(Expr::Var(0), field), Expr::Const(v))
    }

    /// The access-path line of the optimized `select(conds) <- scan(users)`.
    fn chosen_path(pk: &[&'static str], conds: Vec<Expr>) -> String {
        let mut plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Select {
                input: Box::new(LogicalOp::DataSourceScan {
                    source: Arc::new(IndexedSource { pk: pk.to_vec() }),
                    var: 0,
                    access: None,
                    fields: vec![],
                }),
                condition: conjoin(conds),
            }),
            exprs: vec![Expr::Var(0)],
        });
        optimize(&mut plan);
        let p = plan.pretty();
        assert!(p.contains("select"), "residual filter kept:\n{p}");
        p.lines().last().unwrap_or_default().trim().to_string()
    }

    #[test]
    fn bounds_keep_the_tightest_conjunct_whatever_the_order() {
        use Func::{Eq, Ge, Gt, Le, Lt};
        let since = |f, v| cmp(f, "userSince", Value::Int(v));
        for conds in [vec![since(Ge, 3), since(Ge, 10)], vec![since(Ge, 10), since(Ge, 3)]] {
            assert_eq!(chosen_path(&[], conds), "index-scan users#sinceIdx [ge 10] -> $0");
        }
        for conds in [vec![since(Eq, 5), since(Ge, 3)], vec![since(Ge, 3), since(Eq, 5)]] {
            assert_eq!(chosen_path(&[], conds), "index-scan users#sinceIdx [ge 5, le 5] -> $0");
        }
        // at equal values the exclusive end is the tighter one; ints and
        // doubles compare numerically
        assert_eq!(
            chosen_path(
                &[],
                vec![
                    since(Gt, 3),
                    since(Ge, 3),
                    since(Le, 9),
                    cmp(Lt, "userSince", Value::Double(8.5)),
                    since(Lt, 9),
                ]
            ),
            "index-scan users#sinceIdx [gt 3, lt 8.5] -> $0"
        );
    }

    #[test]
    fn contradictory_bounds_make_an_empty_range() {
        use Func::{Eq, Gt, Lt};
        let since = |f, v| cmp(f, "userSince", Value::Int(v));
        for conds in [
            vec![since(Gt, 10), since(Lt, 3)],
            vec![since(Eq, 5), since(Eq, 6)],
            vec![since(Eq, 5), since(Gt, 5)],
        ] {
            assert_eq!(chosen_path(&[], conds), "index-scan users#sinceIdx [empty] -> $0");
        }
        assert_eq!(
            chosen_path(&["id"], vec![cmp(Eq, "id", Value::Int(1)), cmp(Eq, "id", Value::Int(2))]),
            "index-scan users#primary [empty] -> $0"
        );
    }

    #[test]
    fn primary_key_equality_is_a_point_get() {
        use Func::{Eq, Ge, Le};
        assert_eq!(
            chosen_path(&["id"], vec![cmp(Eq, "id", Value::Int(42))]),
            "index-scan users#primary [eq 42] -> $0"
        );
        // constant on the left, and equality spelled as two bounds
        assert_eq!(
            chosen_path(
                &["id"],
                vec![Expr::bin(
                    Eq,
                    Expr::Const(Value::Double(42.0)),
                    Expr::field(Expr::Var(0), "id")
                )]
            ),
            "index-scan users#primary [eq 42.0] -> $0"
        );
        assert_eq!(
            chosen_path(&["id"], vec![cmp(Ge, "id", Value::Int(7)), cmp(Le, "id", Value::Int(7))]),
            "index-scan users#primary [eq 7] -> $0"
        );
        // every field of a composite key, in key order whatever the
        // conjunct order
        assert_eq!(
            chosen_path(
                &["org", "id"],
                vec![cmp(Eq, "id", Value::Int(2)), cmp(Eq, "org", Value::from("acme"))]
            ),
            "index-scan users#primary [eq \"acme\", 2] -> $0"
        );
    }

    #[test]
    fn primary_equality_beats_a_secondary_range_on_another_conjunct() {
        use Func::{Eq, Ge};
        for conds in [
            vec![cmp(Ge, "userSince", Value::Int(1000)), cmp(Eq, "id", Value::Int(42))],
            vec![cmp(Eq, "id", Value::Int(42)), cmp(Ge, "userSince", Value::Int(1000))],
        ] {
            assert_eq!(chosen_path(&["id"], conds), "index-scan users#primary [eq 42] -> $0");
        }
        // ...while a mere range on the key leaves the secondary index first
        assert_eq!(
            chosen_path(
                &["id"],
                vec![cmp(Ge, "id", Value::Int(42)), cmp(Ge, "userSince", Value::Int(1000))]
            ),
            "index-scan users#sinceIdx [ge 1000] -> $0"
        );
    }

    #[test]
    fn primary_key_range_binds_the_leading_field_only() {
        use Func::{Eq, Ge, Lt};
        assert_eq!(
            chosen_path(&["id"], vec![cmp(Ge, "id", Value::Int(3)), cmp(Lt, "id", Value::Int(10))]),
            "index-scan users#primary [ge 3, lt 10] -> $0"
        );
        // leading field of a composite key pinned: a range over its prefix
        assert_eq!(
            chosen_path(&["org", "id"], vec![cmp(Eq, "org", Value::from("acme"))]),
            "index-scan users#primary [ge \"acme\", le \"acme\"] -> $0"
        );
        // only a non-leading field bound: the key order is of no use
        assert_eq!(
            chosen_path(&["org", "id"], vec![cmp(Eq, "id", Value::Int(2))]),
            "scan users -> $0"
        );
    }

    /// The scan lines of the optimized plan under `root`, top to bottom.
    fn scans(root: LogicalOp) -> Vec<String> {
        let mut plan = Plan::new(root);
        optimize(&mut plan);
        let is_scan = |l: &&str| l.starts_with("scan ") || l.starts_with("index-scan ");
        plan.pretty().lines().map(str::trim).filter(is_scan).map(String::from).collect()
    }

    fn result(input: LogicalOp, exprs: Vec<Expr>) -> LogicalOp {
        LogicalOp::DistributeResult { input: Box::new(input), exprs }
    }

    fn eq_fields(l: VarId, r: VarId, field: &str) -> Expr {
        Expr::bin(Func::Eq, Expr::field(Expr::Var(l), field), Expr::field(Expr::Var(r), field))
    }

    #[test]
    fn a_scan_is_told_the_fields_its_variable_is_read_through() {
        // a filter, a nested path and an indexed item: their top-level names
        let filtered = LogicalOp::Select { input: Box::new(scan(0)), condition: gt_field(0, "a", 1) };
        let exprs = vec![
            Expr::field(Expr::field(Expr::Var(0), "b"), "c"),
            Expr::Index(Box::new(Expr::field(Expr::Var(0), "xs")), Box::new(Expr::Const(Value::Int(0)))),
        ];
        assert_eq!(scans(result(filtered, exprs)), ["scan ds {a, b, xs} -> $0"]);
        // an index probe's residual select counts like any other read
        let probe = LogicalOp::Select {
            input: Box::new(LogicalOp::DataSourceScan {
                source: Arc::new(IndexedSource::default()),
                var: 0,
                access: None,
                fields: vec![],
            }),
            condition: gt_field(0, "userSince", 10),
        };
        assert_eq!(
            scans(result(probe, vec![Expr::field(Expr::Var(0), "name")])),
            ["index-scan users#sinceIdx [gt 10] {name, userSince} -> $0"]
        );
        // each side of a join by its own reads: `$1` goes up whole
        let join = LogicalOp::Join {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            condition: eq_fields(0, 1, "k"),
            kind: JoinKind::Inner,
        };
        assert_eq!(
            scans(result(join, vec![Expr::field(Expr::Var(0), "name"), Expr::Var(1)])),
            ["scan ds {k, name} -> $0", "scan ds -> $1"]
        );
    }

    #[test]
    fn any_other_use_of_the_variable_asks_for_the_whole_record() {
        use crate::plan::{AggFunc, GroupCollect};
        // named bare
        assert_eq!(scans(result(scan(0), vec![Expr::Var(0)])), ["scan ds -> $0"]);
        // bare beside a field access, in one expression
        let both = Expr::bin(Func::Eq, Expr::field(Expr::Var(0), "a"), Expr::Var(0));
        assert_eq!(scans(result(scan(0), vec![both])), ["scan ds -> $0"]);
        // carried on by a project
        let project = LogicalOp::Project { input: Box::new(scan(0)), vars: vec![0] };
        assert_eq!(scans(result(project, vec![Expr::field(Expr::Var(0), "a")])), ["scan ds -> $0"]);
        // renamed by a union
        let union = LogicalOp::UnionAll {
            left: Box::new(scan(0)),
            right: Box::new(scan(1)),
            out: vec![2],
            left_vars: vec![0],
            right_vars: vec![1],
        };
        assert_eq!(
            scans(result(union, vec![Expr::field(Expr::Var(2), "a")])),
            ["scan ds -> $1", "scan ds -> $2"]
        );
        // the payload of a group collection; a payload that is a field of it
        // is one more field read
        let group = |payload: Expr| LogicalOp::GroupBy {
            input: Box::new(scan(0)),
            keys: vec![(10, Expr::field(Expr::Var(0), "k"))],
            aggs: vec![],
            collect: Some(GroupCollect { var: 12, fields: vec![("r".into(), payload)], wrap: true }),
        };
        let out = || vec![Expr::Var(10), Expr::Var(12)];
        assert_eq!(scans(result(group(Expr::Var(0)), out())), ["scan ds -> $2"]);
        assert_eq!(scans(result(group(Expr::field(Expr::Var(0), "x")), out())), ["scan ds {k, x} -> $2"]);
        // not named at all (`COUNT(*)`): the empty set is the whole record
        let count = LogicalOp::Aggregate {
            input: Box::new(scan(0)),
            aggs: vec![(1, AggFunc::CountStar, Expr::Const(Value::Int(1)))],
        };
        assert_eq!(scans(result(count, vec![Expr::Var(1)])), ["scan ds -> $1"]);
    }

    #[test]
    fn no_index_path_for_unindexed_field() {
        let mut plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Select {
                input: Box::new(LogicalOp::DataSourceScan {
                    source: Arc::new(IndexedSource::default()),
                    var: 0,
                    access: None,
                    fields: vec![],
                }),
                condition: gt_field(0, "name", 5),
            }),
            exprs: vec![Expr::Var(0)],
        });
        optimize(&mut plan);
        assert!(plan.pretty().contains("scan users"), "{}", plan.pretty());
        assert!(!plan.pretty().contains("index-scan"));
    }

    #[test]
    fn constant_folding_in_plan() {
        let mut plan = Plan::new(LogicalOp::DistributeResult {
            input: Box::new(LogicalOp::Select {
                input: Box::new(scan(0)),
                condition: Expr::bin(
                    Func::Gt,
                    Expr::field(Expr::Var(0), "x"),
                    Expr::bin(Func::Add, Expr::Const(Value::Int(2)), Expr::Const(Value::Int(3))),
                ),
            }),
            exprs: vec![Expr::Var(0)],
        });
        optimize(&mut plan);
        assert!(plan.pretty().contains("gt($0.x, 5)"), "{}", plan.pretty());
    }
}
