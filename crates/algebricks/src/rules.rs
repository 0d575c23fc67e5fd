//! The rule-based optimizer (paper Figure 5: "rewrite rules" boxes): one
//! table of named rules, [`TABLE`], in the order they run. The fixpoint set
//! — constant folding, select merging, selection pushdown through assigns
//! and unnests, select-into-join, index access-path introduction (a select
//! over a scan whose conjuncts bound the primary key or an indexed field
//! gets an index probe under it: the data-partition-aware access-path
//! selection of Section III, feature 3) and dead-assign elimination — runs
//! round after round until a round changes nothing. Then field-access
//! pushdown (each scan is told the top-level fields the plan reads its
//! variable through) and sorted index fetch (a secondary-index probe sorts
//! the primary keys it finds before fetching, §V-B) run once. Local
//! aggregation is the job generator's choice, which it reads from the plan.
//! [`optimize`] takes the set of rules to skip.

use crate::expr::{const_fold, Expr, Func};
use crate::plan::{LogicalOp, Plan, VarId};
use crate::source::{AccessPath, IndexInfo, IndexKind, IndexRange, KeyRange, PRIMARY_INDEX};
use asterix_adm::compare::total_cmp;
use asterix_adm::Value;
use std::cmp::Ordering;
use std::collections::{BTreeSet, HashMap};
use std::fmt;

/// A rule of the optimizer, by name; [`TABLE`] says what it does and when.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum Rule {
    ConstantFolding,
    MergeSelects,
    PushSelect,
    SelectIntoJoin,
    IntroduceIndexPaths,
    EliminateDeadAssigns,
    PushFieldAccess,
    SortedIndexFetch,
    LocalAggregation,
}

/// A rewrite: changes the plan under the operator in place and says whether
/// it changed anything.
type Rewrite = fn(&mut LogicalOp) -> bool;

/// When a rule of [`TABLE`] runs.
#[derive(Clone, Copy)]
enum Controller {
    /// Round after round with the rest of the fixpoint set, until a round
    /// changes nothing.
    Fixpoint(Rewrite),
    /// Once, after the fixpoint set has settled.
    Once(Rewrite),
    /// Not a rewrite: the job generator asks the plan whether it is on.
    JobGen,
}

/// Every rule, in the order it runs, with its name and its controller.
static TABLE: [(Rule, &str, Controller); 9] = [
    (Rule::ConstantFolding, "constant folding", Controller::Fixpoint(fold_all_exprs)),
    (Rule::MergeSelects, "merge selects", Controller::Fixpoint(|op| rewrite(op, merge_selects))),
    (Rule::PushSelect, "push select", Controller::Fixpoint(|op| rewrite(op, push_select))),
    (Rule::SelectIntoJoin, "select into join", Controller::Fixpoint(|op| rewrite(op, select_into_join))),
    (
        Rule::IntroduceIndexPaths,
        "introduce index paths",
        Controller::Fixpoint(|op| rewrite(op, introduce_index_paths)),
    ),
    (Rule::EliminateDeadAssigns, "eliminate dead assigns", Controller::Fixpoint(eliminate_dead_assigns)),
    (Rule::PushFieldAccess, "field-access pushdown", Controller::Once(push_field_access)),
    (Rule::SortedIndexFetch, "sorted index fetch", Controller::Once(sort_probe_keys)),
    (Rule::LocalAggregation, "local aggregation", Controller::JobGen),
];

impl Rule {
    /// Every rule, in table order.
    pub fn all() -> impl Iterator<Item = Rule> {
        TABLE.iter().map(|(rule, ..)| *rule)
    }
}

/// The rule's name in the table: `constant folding`, `local aggregation`.
impl fmt::Display for Rule {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = TABLE.iter().find(|(rule, ..)| rule == self).map_or("", |(_, name, _)| name);
        f.write_str(name)
    }
}

/// Rounds within which the fixpoint set must settle. A debug build refuses
/// a plan that is still changing in the last one, naming the rules that
/// changed it; a release build keeps the plan as that round left it.
const MAX_ROUNDS: usize = 13;

/// Optimizes a plan in place with every rule of [`TABLE`] but those in
/// `disabled`, which the plan keeps for the job generator.
pub fn optimize(plan: &mut Plan, disabled: &BTreeSet<Rule>) {
    let on = || TABLE.iter().filter(|(rule, ..)| !disabled.contains(rule));
    for round in 1..=MAX_ROUNDS {
        let mut changed = Vec::new();
        for (_, name, controller) in on() {
            if let Controller::Fixpoint(apply) = controller {
                if apply(&mut plan.root) {
                    changed.push(*name);
                }
            }
        }
        if changed.is_empty() {
            break;
        }
        debug_assert!(round < MAX_ROUNDS, "{} still changed the plan in round {MAX_ROUNDS}", changed.join(", "));
    }
    for (_, _, controller) in on() {
        if let Controller::Once(apply) = controller {
            apply(&mut plan.root);
        }
    }
    plan.disabled = disabled.clone();
}

/// Applies `rule` bottom-up everywhere; returns whether anything changed.
fn rewrite(op: &mut LogicalOp, rule: fn(LogicalOp) -> (LogicalOp, bool)) -> bool {
    let mut changed = false;
    for child in op.children_mut() {
        changed |= rewrite(child, rule);
    }
    let owned = std::mem::replace(op, LogicalOp::Empty);
    let (new, c) = rule(owned);
    *op = new;
    changed | c
}

fn fold_all_exprs(op: &mut LogicalOp) -> bool {
    let mut changed = false;
    let mut fold = |e: &mut Expr| changed |= const_fold(e, false);
    match op {
        LogicalOp::Select { condition, .. } => fold(condition),
        LogicalOp::Assign { expr, .. } | LogicalOp::Unnest { expr, .. } => fold(expr),
        LogicalOp::Join { condition, .. } => fold(condition),
        LogicalOp::GroupBy { keys, aggs, collect, .. } => {
            keys.iter_mut().for_each(|(_, e)| fold(e));
            aggs.iter_mut().for_each(|(_, _, e)| fold(e));
            if let Some(c) = collect {
                c.fields.iter_mut().for_each(|(_, e)| fold(e));
            }
        }
        LogicalOp::Aggregate { aggs, .. } => aggs.iter_mut().for_each(|(_, _, e)| fold(e)),
        LogicalOp::Order { keys, .. } => keys.iter_mut().for_each(|(e, _)| fold(e)),
        LogicalOp::Distinct { exprs, .. } | LogicalOp::DistributeResult { exprs, .. } => {
            exprs.iter_mut().for_each(fold)
        }
        _ => {}
    }
    op.children_mut().into_iter().fold(changed, |changed, child| fold_all_exprs(child) | changed)
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

/// Moves the conjuncts of a select that read only what is bound below the
/// assign or unnest under it to below that operator; never below an outer
/// unnest, where it would change what the unnest pads.
fn push_select(op: LogicalOp) -> (LogicalOp, bool) {
    let LogicalOp::Select { mut input, condition } = op else {
        return (op, false);
    };
    let deeper = match input.as_mut() {
        LogicalOp::Assign { input: deeper, .. } | LogicalOp::Unnest { input: deeper, outer: false, .. } => deeper,
        _ => return (LogicalOp::Select { input, condition }, false),
    };
    let below = deeper.schema();
    let (pushable, stay): (Vec<Expr>, Vec<Expr>) =
        conjuncts(&condition).into_iter().partition(|c| uses_only(c, &below));
    if pushable.is_empty() {
        return (LogicalOp::Select { input, condition }, false);
    }
    let under = std::mem::replace(deeper.as_mut(), LogicalOp::Empty);
    **deeper = LogicalOp::Select { input: Box::new(under), condition: conjoin(pushable) };
    let rebuilt = if stay.is_empty() {
        *input
    } else {
        LogicalOp::Select { input, condition: conjoin(stay) }
    };
    (rebuilt, true)
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
        Some(IndexRange::Range(KeyRange { lo, lo_inclusive, hi, hi_inclusive }))
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
    AccessPath { index: PRIMARY_INDEX.into(), kind: None, range, sorted: false }
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
    Some(AccessPath { index: idx.name.clone(), kind: Some(idx.kind), range, sorted: false })
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
/// `UnionAll` carrying it on. Returns whether a scan's fields changed.
fn push_field_access(root: &mut LogicalOp) -> bool {
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
    fn tell_scans(op: &mut LogicalOp, reads: &mut FieldReads) -> bool {
        let mut changed = false;
        if let LogicalOp::DataSourceScan { var, fields, .. } = op {
            let told: Vec<String> = match reads.remove(var) {
                Some(Some(names)) => names.into_iter().collect(),
                _ => Vec::new(),
            };
            changed = *fields != told;
            *fields = told;
        }
        op.children_mut().into_iter().fold(changed, |changed, c| tell_scans(c, reads) | changed)
    }
    let mut reads = FieldReads::new();
    note_op(root, &mut reads);
    tell_scans(root, &mut reads)
}

/// Has every secondary-index probe sort the primary keys it finds before it
/// fetches their records; a primary path reads records where they are.
fn sort_probe_keys(op: &mut LogicalOp) -> bool {
    let mut changed = false;
    if let LogicalOp::DataSourceScan { access: Some(path), .. } = op {
        changed = path.kind.is_some() && !path.sorted;
        path.sorted |= changed;
    }
    op.children_mut().into_iter().fold(changed, |changed, c| sort_probe_keys(c) | changed)
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
        optimize(&mut plan, &BTreeSet::new());
        let p = plan.pretty();
        assert_eq!(p.matches("select").count(), 1, "merged into one select:\n{p}");
        assert!(p.contains("and("), "{p}");
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
        optimize(&mut plan, &BTreeSet::new());
        let p = plan.pretty();
        assert!(p.contains("Inner-join hash eq("), "equi condition moved into join:\n{p}");
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
        optimize(&mut plan, &BTreeSet::new());
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
        optimize(&mut plan, &BTreeSet::new());
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
        optimize(&mut plan, &BTreeSet::new());
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
        optimize(&mut plan, &BTreeSet::new());
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

    fn probe(op: &LogicalOp) -> Option<&AccessPath> {
        match op {
            LogicalOp::DataSourceScan { access, .. } => access.as_ref(),
            _ => op.children().into_iter().find_map(probe),
        }
    }

    /// A plan in which `rule` fires, and the mark its firing leaves on the
    /// optimized plan.
    fn fires(rule: Rule) -> (LogicalOp, fn(&Plan) -> bool) {
        let select = |input, condition| LogicalOp::Select { input: Box::new(input), condition };
        let assign = |input, var, field| LogicalOp::Assign {
            input: Box::new(input),
            var,
            expr: Expr::field(Expr::Var(0), field),
        };
        let indexed = || LogicalOp::DataSourceScan {
            source: Arc::new(IndexedSource::default()),
            var: 0,
            access: None,
            fields: vec![],
        };
        let whole = |input| result(input, vec![Expr::Var(0)]);
        match rule {
            Rule::ConstantFolding => {
                let five = Expr::bin(Func::Add, Expr::Const(Value::Int(2)), Expr::Const(Value::Int(3)));
                let cond = Expr::bin(Func::Gt, Expr::field(Expr::Var(0), "x"), five);
                (whole(select(scan(0), cond)), |p| p.pretty().contains("gt($0.x, 5)"))
            }
            Rule::MergeSelects => (
                whole(select(select(scan(0), gt_field(0, "a", 1)), gt_field(0, "b", 2))),
                |p| p.pretty().matches("select").count() == 1,
            ),
            Rule::PushSelect => (
                result(select(assign(scan(0), 1, "x"), gt_field(0, "a", 5)), vec![Expr::Var(1)]),
                |p| {
                    let text = p.pretty();
                    matches!((text.find("assign"), text.find("select")), (Some(a), Some(s)) if a < s)
                },
            ),
            Rule::SelectIntoJoin => {
                let join = LogicalOp::Join {
                    left: Box::new(scan(0)),
                    right: Box::new(scan(1)),
                    condition: Expr::Const(Value::Bool(true)),
                    kind: JoinKind::Inner,
                };
                (whole(select(join, eq_fields(0, 1, "k"))), |p| p.pretty().contains("Inner-join hash eq("))
            }
            Rule::IntroduceIndexPaths => {
                (whole(select(indexed(), gt_field(0, "userSince", 10))), |p| p.pretty().contains("index-scan"))
            }
            Rule::EliminateDeadAssigns => (
                result(assign(assign(scan(0), 1, "used"), 2, "unused"), vec![Expr::Var(1)]),
                |p| !p.pretty().contains("unused"),
            ),
            Rule::PushFieldAccess => {
                (result(scan(0), vec![Expr::field(Expr::Var(0), "a")]), |p| p.pretty().contains("scan ds {a}"))
            }
            Rule::SortedIndexFetch => (
                whole(select(indexed(), gt_field(0, "userSince", 10))),
                |p| probe(&p.root).is_some_and(|path| path.sorted),
            ),
            Rule::LocalAggregation => {
                let aggs = vec![(1, crate::plan::AggFunc::CountStar, Expr::Const(Value::Int(1)))];
                let count = LogicalOp::Aggregate { input: Box::new(scan(0)), aggs };
                (result(count, vec![Expr::Var(1)]), |p| {
                    let job = crate::jobgen::compile(p, &Default::default());
                    job.is_ok_and(|job| job.ops.iter().any(|op| op.label == "agg-local"))
                })
            }
        }
    }

    #[test]
    fn each_rule_leaves_its_mark_only_when_it_runs() {
        for rule in Rule::all() {
            for disabled in [BTreeSet::new(), BTreeSet::from([rule])] {
                let (root, mark) = fires(rule);
                let mut plan = Plan::new(root);
                optimize(&mut plan, &disabled);
                let p = plan.pretty();
                assert_eq!(mark(&plan), disabled.is_empty(), "{rule}, disabled {disabled:?}:\n{p}");
            }
        }
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
        optimize(&mut plan, &BTreeSet::new());
        assert!(plan.pretty().contains("scan users"), "{}", plan.pretty());
        assert!(!plan.pretty().contains("index-scan"));
    }
}
