//! Lowering the shared AST into Algebricks logical plans.
//!
//! One translator serves both languages (the paper's shared-algebra claim,
//! §IV-A). The interesting cases:
//!
//! * **scoping** — unqualified names resolve to WITH/LET bindings, FROM
//!   aliases, or (when exactly one FROM binding is live) implicit fields of
//!   that binding, matching SQL++'s name resolution;
//! * **quantified predicates over datasets** (`SOME l IN AccessLog
//!   SATISFIES ...`, Figure 3(c)) become joins followed by duplicate
//!   elimination — a semi-join;
//! * **SQL aggregate sugar** (`COUNT(user)` under GROUP BY) is extracted
//!   into logical aggregate functions; the same functions in expression
//!   position are the `COLL_*` collection functions;
//! * **GROUP AS / with $v** becomes the group-collection output of the
//!   logical group-by.
//!
//! Unsupported corners (correlated subqueries outside FROM, general EVERY
//! quantifiers) fail with explicit [`SqlppError::Unsupported`] errors.

use crate::ast::{self, Expr as Ast, GroupByClause, JoinStep, Query, SelectClause};
use crate::error::{Result, SqlppError};
use asterix_adm::Value;
use asterix_algebricks::expr::{const_fold, Expr, Func};
use asterix_algebricks::plan::{AggFunc, GroupCollect, JoinKind, LogicalOp, Plan, VarGen};
use asterix_algebricks::source::DataSource;
use std::sync::Arc;

/// Catalog access the translator needs: dataset name resolution.
pub trait CatalogView {
    /// Resolves a dataset (or synonym) name to its data source.
    fn dataset(&self, name: &str) -> Option<Arc<dyn DataSource>>;
}

/// A catalog with no datasets (expression-only queries).
pub struct EmptyCatalog;

impl CatalogView for EmptyCatalog {
    fn dataset(&self, _name: &str) -> Option<Arc<dyn DataSource>> {
        None
    }
}

/// Translates a query AST to an (unoptimized) logical plan.
pub fn translate_query(
    q: &Query,
    catalog: &dyn CatalogView,
    vargen: &mut VarGen,
) -> Result<Plan> {
    let mut t = Translator { catalog, vargen };
    let scope = Scope::default();
    let (op, element) = t.translate_union(q, &scope)?;
    Ok(Plan::new(LogicalOp::DistributeResult {
        input: Box::new(op),
        exprs: vec![element],
    }))
}

/// One name binding in scope.
#[derive(Clone)]
struct Binding {
    name: String,
    expr: Expr,
    /// True for FROM/UNNEST-introduced row bindings (candidates for implicit
    /// field resolution and SELECT *).
    is_row: bool,
}

#[derive(Clone, Default)]
struct Scope {
    bindings: Vec<Binding>,
}

impl Scope {
    fn lookup(&self, name: &str) -> Option<&Expr> {
        self.bindings.iter().rev().find(|b| b.name == name).map(|b| &b.expr)
    }

    fn push(&mut self, name: impl Into<String>, expr: Expr, is_row: bool) {
        self.bindings.push(Binding { name: name.into(), expr, is_row });
    }

    fn row_bindings(&self) -> Vec<&Binding> {
        self.bindings.iter().filter(|b| b.is_row).collect()
    }
}

struct Translator<'a> {
    catalog: &'a dyn CatalogView,
    vargen: &'a mut VarGen,
}

impl<'a> Translator<'a> {
    // -----------------------------------------------------------------
    // query blocks
    // -----------------------------------------------------------------

    /// Translates a query with its `UNION ALL` arms (bag union).
    fn translate_union(&mut self, q: &Query, outer: &Scope) -> Result<(LogicalOp, Expr)> {
        let (mut op, element) = self.translate_block(q, outer)?;
        if q.union_with.is_empty() {
            return Ok((op, element));
        }
        // project each arm to its single element column, then fold unions
        let mut left_var = self.vargen.fresh();
        op = LogicalOp::Assign { input: Box::new(op), var: left_var, expr: element };
        op = LogicalOp::Project { input: Box::new(op), vars: vec![left_var] };
        for arm in &q.union_with {
            let (arm_op, arm_elem) = self.translate_block(arm, outer)?;
            let right_var = self.vargen.fresh();
            let arm_op = LogicalOp::Assign {
                input: Box::new(arm_op),
                var: right_var,
                expr: arm_elem,
            };
            let arm_op = LogicalOp::Project { input: Box::new(arm_op), vars: vec![right_var] };
            let out_var = self.vargen.fresh();
            op = LogicalOp::UnionAll {
                left: Box::new(op),
                right: Box::new(arm_op),
                out: vec![out_var],
                left_vars: vec![left_var],
                right_vars: vec![right_var],
            };
            left_var = out_var;
        }
        Ok((op, Expr::Var(left_var)))
    }

    fn translate_block(&mut self, q: &Query, outer: &Scope) -> Result<(LogicalOp, Expr)> {
        let mut scope = outer.clone();
        // WITH bindings: evaluated once per query, at compile time where they
        // can be (so `current_datetime()` is fixed per query, as in AsterixDB)
        for (name, e) in &q.with {
            let mut ae = self.expr(e, &scope)?;
            const_fold(&mut ae, true);
            scope.push(name.clone(), ae, false);
        }
        let mut op = LogicalOp::Empty;
        let mut first = true;
        for term in &q.from {
            op = self.apply_from_term(op, term, &mut scope, first)?;
            first = false;
        }
        // LET bindings
        for (name, e) in &q.lets {
            let ae = self.expr(e, &scope)?;
            let v = self.vargen.fresh();
            op = LogicalOp::Assign { input: Box::new(op), var: v, expr: ae };
            scope.push(name.clone(), Expr::Var(v), false);
        }
        // WHERE
        let mut needs_dedup = false;
        if let Some(w) = &q.where_clause {
            op = self.apply_where(op, w, &mut scope, &mut needs_dedup)?;
        }
        if needs_dedup {
            let exprs: Vec<Expr> = scope
                .bindings
                .iter()
                .map(|b| b.expr.clone())
                .collect();
            op = LogicalOp::Distinct { input: Box::new(op), exprs };
        }
        // aggregate sugar extraction from SELECT/HAVING/ORDER
        let mut select = q.select.clone().unwrap_or(SelectClause::Star);
        let mut having = q.having.clone();
        let mut order = q.order_by.clone();
        let mut agg_calls: Vec<(String, AggFunc, Option<Ast>)> = Vec::new();
        {
            let mut collector = |ast: &mut Ast| extract_aggs(ast, &mut agg_calls);
            match &mut select {
                SelectClause::Element(e) => collector(e),
                SelectClause::Fields(fs) => {
                    for (e, _) in fs.iter_mut() {
                        collector(e);
                    }
                }
                SelectClause::Star => {}
            }
            if let Some(h) = &mut having {
                collector(h);
            }
            for (e, _) in order.iter_mut() {
                collector(e);
            }
        }
        // GROUP BY: references to a grouping expression in SELECT/HAVING/
        // ORDER resolve to the group key (SQL's "select the grouping
        // expression" allowance), so rewrite matching sub-ASTs to the key
        // alias before translating those clauses.
        if let Some(g) = &q.group_by {
            let key_names = group_key_names(g);
            for (i, (key_ast, _)) in g.keys.iter().enumerate() {
                let replace = |ast: &mut Ast| replace_ast(ast, key_ast, &key_names[i]);
                match &mut select {
                    SelectClause::Element(e) => replace(e),
                    SelectClause::Fields(fs) => {
                        for (e, _) in fs.iter_mut() {
                            replace(e);
                        }
                    }
                    SelectClause::Star => {}
                }
                if let Some(h) = &mut having {
                    replace(h);
                }
                for (e, _) in order.iter_mut() {
                    replace(e);
                }
            }
            op = self.apply_group_by(op, g, &agg_calls, &mut scope, q)?;
        } else if !agg_calls.is_empty() {
            // scalar aggregation over the whole block
            let mut aggs = Vec::new();
            for (placeholder, f, arg) in &agg_calls {
                let arg_expr = match arg {
                    Some(a) => self.expr(a, &scope)?,
                    None => Expr::Const(Value::Int(0)),
                };
                let v = self.vargen.fresh();
                aggs.push((v, *f, arg_expr));
                scope.push(placeholder.clone(), Expr::Var(v), false);
            }
            // after scalar aggregation only the agg vars remain in scope
            let agg_names: Vec<String> =
                agg_calls.iter().map(|(p, _, _)| p.clone()).collect();
            scope.bindings.retain(|b| agg_names.contains(&b.name));
            op = LogicalOp::Aggregate { input: Box::new(op), aggs };
        }
        // HAVING
        if let Some(h) = &having {
            let cond = self.expr(h, &scope)?;
            op = LogicalOp::Select { input: Box::new(op), condition: cond };
        }
        // SELECT element
        let element_ast: Ast = match &select {
            SelectClause::Element(e) => e.clone(),
            SelectClause::Fields(fields) => {
                let mut pairs = Vec::new();
                for (i, (e, alias)) in fields.iter().enumerate() {
                    let name = alias.clone().or_else(|| derived_name(e)).unwrap_or_else(|| format!("${}", i + 1));
                    pairs.push((Ast::Literal(Value::String(name)), e.clone()));
                }
                Ast::ObjectCtor(pairs)
            }
            SelectClause::Star => {
                let rows = scope.row_bindings();
                if rows.len() == 1 {
                    Ast::Ident(rows[0].name.clone())
                } else {
                    Ast::ObjectCtor(
                        rows.iter()
                            .map(|b| {
                                (
                                    Ast::Literal(Value::String(b.name.clone())),
                                    Ast::Ident(b.name.clone()),
                                )
                            })
                            .collect(),
                    )
                }
            }
        };
        let element = self.expr(&element_ast, &scope)?;
        let ev = self.vargen.fresh();
        op = LogicalOp::Assign { input: Box::new(op), var: ev, expr: element };
        if q.distinct {
            op = LogicalOp::Distinct { input: Box::new(op), exprs: vec![Expr::Var(ev)] };
        }
        // ORDER BY: resolve against scope; allow SELECT field aliases too
        if !order.is_empty() {
            let mut keys = Vec::new();
            for (e, desc) in &order {
                // output-column aliases take priority (SQL ORDER BY rules),
                // then ordinary scope resolution
                let alias_hit = if let (Ast::Ident(name), SelectClause::Fields(fs)) = (e, &select)
                {
                    fs.iter()
                        .enumerate()
                        .any(|(i, (fe, alias))| {
                            alias.as_deref() == Some(name.as_str())
                                || (alias.is_none()
                                    && derived_name(fe).as_deref() == Some(name.as_str()))
                                || format!("${}", i + 1) == *name
                        })
                        .then(|| Expr::field(Expr::Var(ev), name.clone()))
                } else {
                    None
                };
                let ae = match alias_hit {
                    Some(ae) => ae,
                    None => self.expr(e, &scope)?,
                };
                keys.push((ae, *desc));
            }
            op = LogicalOp::Order { input: Box::new(op), keys };
        }
        if q.limit.is_some() || q.offset.is_some() {
            op = LogicalOp::Limit {
                input: Box::new(op),
                offset: q.offset.unwrap_or(0) as usize,
                count: q.limit.map(|l| l as usize),
            };
        }
        Ok((op, Expr::Var(ev)))
    }

    fn apply_from_term(
        &mut self,
        mut op: LogicalOp,
        term: &ast::FromTerm,
        scope: &mut Scope,
        first: bool,
    ) -> Result<LogicalOp> {
        op = self.bind_source(op, &term.expr, &term.alias, scope, first, JoinKind::Inner, None)?;
        for step in &term.joins {
            match step {
                JoinStep::Unnest { expr, alias, outer } => {
                    let ae = self.expr(expr, scope)?;
                    let v = self.vargen.fresh();
                    op = LogicalOp::Unnest {
                        input: Box::new(op),
                        var: v,
                        expr: ae,
                        outer: *outer,
                    };
                    scope.push(alias.clone(), Expr::Var(v), true);
                }
                JoinStep::Join { kind, expr, alias, on } => {
                    op = self.bind_source(op, expr, alias, scope, false, *kind, Some(on))?;
                }
            }
        }
        Ok(op)
    }

    /// Binds one source expression as a new row binding, combining with the
    /// current operator: scan+join for datasets/subqueries, unnest for
    /// collection expressions (which also covers lateral references).
    #[allow(clippy::too_many_arguments)]
    fn bind_source(
        &mut self,
        op: LogicalOp,
        src: &Ast,
        alias: &str,
        scope: &mut Scope,
        first: bool,
        kind: JoinKind,
        on: Option<&Ast>,
    ) -> Result<LogicalOp> {
        // dataset reference?
        if let Ast::Ident(name) = src {
            if scope.lookup(name).is_none() {
                if let Some(ds) = self.catalog.dataset(name) {
                    let v = self.vargen.fresh();
                    let scan = LogicalOp::DataSourceScan { source: ds, var: v, access: None, fields: vec![] };
                    scope.push(alias.to_string(), Expr::Var(v), true);
                    let combined = if first {
                        scan
                    } else {
                        let cond = match on {
                            Some(o) => self.expr(o, scope)?,
                            None => Expr::Const(Value::Bool(true)),
                        };
                        LogicalOp::Join {
                            left: Box::new(op),
                            right: Box::new(scan),
                            condition: cond,
                            kind,
                        }
                    };
                    return Ok(combined);
                }
            }
        }
        // subquery?
        if let Ast::Subquery(sub) = src {
            let (sub_op, sub_elem) = self.translate_union(sub, &Scope::default())?;
            // materialize element as the binding
            let v = self.vargen.fresh();
            let sub_op = LogicalOp::Assign {
                input: Box::new(sub_op),
                var: v,
                expr: sub_elem,
            };
            let sub_op = LogicalOp::Project { input: Box::new(sub_op), vars: vec![v] };
            scope.push(alias.to_string(), Expr::Var(v), true);
            let combined = if first {
                sub_op
            } else {
                let cond = match on {
                    Some(o) => self.expr(o, scope)?,
                    None => Expr::Const(Value::Bool(true)),
                };
                LogicalOp::Join {
                    left: Box::new(op),
                    right: Box::new(sub_op),
                    condition: cond,
                    kind,
                }
            };
            return Ok(combined);
        }
        // collection expression: unnest (lateral-friendly)
        let ae = self.expr(src, scope)?;
        let v = self.vargen.fresh();
        let base = if first { LogicalOp::Empty } else { op };
        let unnested = LogicalOp::Unnest {
            input: Box::new(base),
            var: v,
            expr: ae,
            outer: kind == JoinKind::LeftOuter,
        };
        scope.push(alias.to_string(), Expr::Var(v), true);
        let combined = match on {
            Some(o) => {
                let cond = self.expr(o, scope)?;
                LogicalOp::Select { input: Box::new(unnested), condition: cond }
            }
            None => unnested,
        };
        Ok(combined)
    }

    fn apply_where(
        &mut self,
        mut op: LogicalOp,
        w: &Ast,
        scope: &mut Scope,
        needs_dedup: &mut bool,
    ) -> Result<LogicalOp> {
        for conj in split_and(w) {
            match conj {
                Ast::Quantified { some: true, var, collection, satisfies } => {
                    // dataset-backed quantifier → semi-join
                    if let Ast::Ident(ds_name) = collection.as_ref() {
                        if scope.lookup(ds_name).is_none() {
                            if let Some(ds) = self.catalog.dataset(ds_name) {
                                let v = self.vargen.fresh();
                                let right =
                                    LogicalOp::DataSourceScan { source: ds, var: v, access: None, fields: vec![] };
                                let mut inner_scope = scope.clone();
                                inner_scope.push(var.clone(), Expr::Var(v), true);
                                let cond = self.expr(&satisfies, &inner_scope)?;
                                op = LogicalOp::Join {
                                    left: Box::new(op),
                                    right: Box::new(right),
                                    condition: cond,
                                    kind: JoinKind::Inner,
                                };
                                *needs_dedup = true;
                                continue;
                            }
                        }
                    }
                    // collection-valued quantifier: membership pattern
                    let cond = self.quantified_membership(&var, &collection, &satisfies, scope)?;
                    op = LogicalOp::Select { input: Box::new(op), condition: cond };
                }
                other => {
                    let cond = self.expr(&other, scope)?;
                    op = LogicalOp::Select { input: Box::new(op), condition: cond };
                }
            }
        }
        Ok(op)
    }

    /// `SOME v IN coll SATISFIES v = e` (or `e = v`) → `array_contains`.
    fn quantified_membership(
        &mut self,
        var: &str,
        collection: &Ast,
        satisfies: &Ast,
        scope: &Scope,
    ) -> Result<Expr> {
        if let Ast::Binary(Func::Eq, l, r) = satisfies {
            let is_var = |e: &Ast| matches!(e, Ast::Ident(n) if n == var);
            let other = if is_var(l) {
                Some(r)
            } else if is_var(r) {
                Some(l)
            } else {
                None
            };
            if let Some(other) = other {
                let coll = self.expr(collection, scope)?;
                let needle = self.expr(other, scope)?;
                return Ok(Expr::Call(Func::ArrayContains, vec![coll, needle]));
            }
        }
        Err(SqlppError::Unsupported(format!(
            "quantified predicate over a computed collection must have the form \
             `{var} = <expr>`; general SATISFIES predicates are only supported \
             when the collection is a dataset"
        )))
    }

    fn apply_group_by(
        &mut self,
        op: LogicalOp,
        g: &GroupByClause,
        agg_calls: &[(String, AggFunc, Option<Ast>)],
        scope: &mut Scope,
        q: &Query,
    ) -> Result<LogicalOp> {
        let mut keys = Vec::new();
        let mut new_scope = Scope::default();
        let key_names = group_key_names(g);
        for ((e, _), name) in g.keys.iter().zip(key_names) {
            let ae = self.expr(e, scope)?;
            let kv = self.vargen.fresh();
            keys.push((kv, ae));
            new_scope.push(name, Expr::Var(kv), false);
        }
        let collect = match &g.group_as {
            None => None,
            Some(gname) => {
                if !agg_calls.is_empty() {
                    return Err(SqlppError::Unsupported(
                        "mixing SQL aggregate sugar (COUNT/SUM/...) with GROUP AS; \
                         use COLL_* functions over the group variable instead"
                            .into(),
                    ));
                }
                // AQL's `with $v` names a variable in scope, `let`-bound ones
                // too, and collects its values; SQL++'s GROUP AS names the
                // group, which collects every FROM binding
                let fields: Vec<(String, Expr)> = match scope.lookup(gname) {
                    Some(e) => vec![(gname.clone(), e.clone())],
                    None => scope
                        .row_bindings()
                        .iter()
                        .map(|b| (b.name.clone(), b.expr.clone()))
                        .collect(),
                };
                if fields.is_empty() {
                    return Err(SqlppError::Semantic(
                        "GROUP AS requires at least one FROM binding".into(),
                    ));
                }
                let gv = self.vargen.fresh();
                // AQL's `with $v` collects bare values; SQL++ GROUP AS wraps
                let wrap = q.select.is_some()
                    && !matches!(q.select, Some(SelectClause::Element(_)))
                    || fields.len() > 1;
                new_scope.push(gname.clone(), Expr::Var(gv), false);
                Some(GroupCollect { var: gv, fields, wrap })
            }
        };
        let mut aggs = Vec::new();
        for (placeholder, f, arg) in agg_calls {
            let arg_expr = match arg {
                Some(a) => self.expr(a, scope)?,
                None => Expr::Const(Value::Int(0)),
            };
            let v = self.vargen.fresh();
            aggs.push((v, *f, arg_expr));
            new_scope.push(placeholder.clone(), Expr::Var(v), false);
        }
        *scope = new_scope;
        Ok(LogicalOp::GroupBy { input: Box::new(op), keys, aggs, collect })
    }

    // -----------------------------------------------------------------
    // expressions
    // -----------------------------------------------------------------

    fn expr(&mut self, ast: &Ast, scope: &Scope) -> Result<Expr> {
        Ok(match ast {
            Ast::Literal(v) => Expr::Const(v.clone()),
            Ast::Ident(name) => match scope.lookup(name) {
                Some(e) => e.clone(),
                None => {
                    let rows = scope.row_bindings();
                    if rows.len() == 1 {
                        Expr::Field(Box::new(rows[0].expr.clone()), name.clone())
                    } else if self.catalog.dataset(name).is_some() {
                        return Err(SqlppError::Semantic(format!(
                            "dataset {name} can only be referenced in FROM or a quantifier"
                        )));
                    } else {
                        return Err(SqlppError::Semantic(format!(
                            "unresolved name {name:?} (no binding, and {} FROM bindings in scope)",
                            rows.len()
                        )));
                    }
                }
            },
            Ast::Field(b, name) => Expr::Field(Box::new(self.expr(b, scope)?), name.clone()),
            Ast::Index(b, i) => Expr::Index(
                Box::new(self.expr(b, scope)?),
                Box::new(self.expr(i, scope)?),
            ),
            Ast::Unary(f, e) => Expr::Call(*f, vec![self.expr(e, scope)?]),
            Ast::Binary(f, l, r) => Expr::bin(*f, self.expr(l, scope)?, self.expr(r, scope)?),
            Ast::Call(name, args) => self.call(name, args, scope)?,
            Ast::Case(arms, els) => {
                let arms = arms
                    .iter()
                    .map(|(c, t)| Ok((self.expr(c, scope)?, self.expr(t, scope)?)))
                    .collect::<Result<Vec<_>>>()?;
                let els = match els {
                    Some(e) => self.expr(e, scope)?,
                    None => Expr::Const(Value::Null),
                };
                Expr::Case(arms, Box::new(els))
            }
            Ast::ObjectCtor(pairs) => {
                let mut args = Vec::with_capacity(pairs.len() * 2);
                for (k, v) in pairs {
                    args.push(self.expr(k, scope)?);
                    args.push(self.expr(v, scope)?);
                }
                Expr::Call(Func::ObjectConstructor, args)
            }
            Ast::ArrayCtor(items) => Expr::Call(
                Func::ArrayConstructor,
                items.iter().map(|i| self.expr(i, scope)).collect::<Result<Vec<_>>>()?,
            ),
            Ast::MultisetCtor(items) => Expr::Call(
                Func::MultisetConstructor,
                items.iter().map(|i| self.expr(i, scope)).collect::<Result<Vec<_>>>()?,
            ),
            Ast::Between { value, lo, hi, negated } => {
                let v = self.expr(value, scope)?;
                let lo = self.expr(lo, scope)?;
                let hi = self.expr(hi, scope)?;
                let e = Expr::bin(
                    Func::And,
                    Expr::bin(Func::Ge, v.clone(), lo),
                    Expr::bin(Func::Le, v, hi),
                );
                if *negated {
                    Expr::Call(Func::Not, vec![e])
                } else {
                    e
                }
            }
            Ast::In { value, collection, negated } => {
                let coll = self.expr(collection, scope)?;
                let v = self.expr(value, scope)?;
                let e = Expr::Call(Func::ArrayContains, vec![coll, v]);
                if *negated {
                    Expr::Call(Func::Not, vec![e])
                } else {
                    e
                }
            }
            Ast::Exists(e) => {
                if matches!(e.as_ref(), Ast::Subquery(_)) {
                    return Err(SqlppError::Unsupported(
                        "EXISTS over a subquery; rewrite as a SOME ... SATISFIES \
                         quantifier over the dataset"
                            .into(),
                    ));
                }
                // "has any item", an unknown one too: the collection's length
                let coll = self.expr(e, scope)?;
                Expr::bin(
                    Func::Gt,
                    Expr::Call(Func::Coll(AggFunc::CountStar), vec![coll]),
                    Expr::Const(Value::Int(0)),
                )
            }
            Ast::Quantified { some, var, collection, satisfies } => {
                if !some {
                    return Err(SqlppError::Unsupported(
                        "EVERY quantifiers in expression position".into(),
                    ));
                }
                self.quantified_membership(var, collection, satisfies, scope)?
            }
            Ast::Subquery(_) => {
                return Err(SqlppError::Unsupported(
                    "subqueries are supported in FROM position only".into(),
                ))
            }
        })
    }

    fn call(&mut self, name: &str, args: &[Ast], scope: &Scope) -> Result<Expr> {
        // aggregate names in expression position are the COLL_* collection
        // functions (SQL++ distinguishes sugar COUNT(...) under GROUP BY —
        // extracted earlier — from collection functions)
        let mapped = AggFunc::by_name(name).map(Func::Coll).or_else(|| Func::by_name(name));
        let f = mapped.ok_or_else(|| {
            SqlppError::Semantic(format!("unknown function {name:?}"))
        })?;
        let args = args
            .iter()
            .map(|a| self.expr(a, scope))
            .collect::<Result<Vec<_>>>()?;
        Ok(Expr::Call(f, args))
    }
}

/// Splits an AND tree into conjuncts.
fn split_and(e: &Ast) -> Vec<Ast> {
    match e {
        Ast::Binary(Func::And, l, r) => {
            let mut out = split_and(l);
            out.extend(split_and(r));
            out
        }
        other => vec![other.clone()],
    }
}

/// Names assigned to the group keys (alias, derived, or positional).
fn group_key_names(g: &GroupByClause) -> Vec<String> {
    g.keys
        .iter()
        .enumerate()
        .map(|(i, (e, alias))| {
            alias
                .clone()
                .or_else(|| derived_name(e))
                .unwrap_or_else(|| format!("$gk{i}"))
        })
        .collect()
}

/// Replaces every sub-AST structurally equal to `target` with `Ident(name)`.
fn replace_ast(ast: &mut Ast, target: &Ast, name: &str) {
    if ast == target {
        *ast = Ast::Ident(name.to_string());
        return;
    }
    match ast {
        Ast::Field(b, _) => replace_ast(b, target, name),
        Ast::Index(b, i) => {
            replace_ast(b, target, name);
            replace_ast(i, target, name);
        }
        Ast::Unary(_, e) => replace_ast(e, target, name),
        Ast::Binary(_, l, r) => {
            replace_ast(l, target, name);
            replace_ast(r, target, name);
        }
        Ast::Call(_, args) => {
            for a in args {
                replace_ast(a, target, name);
            }
        }
        Ast::Case(arms, els) => {
            for (c, t) in arms {
                replace_ast(c, target, name);
                replace_ast(t, target, name);
            }
            if let Some(e) = els {
                replace_ast(e, target, name);
            }
        }
        Ast::ObjectCtor(pairs) => {
            for (_, v) in pairs {
                replace_ast(v, target, name);
            }
        }
        Ast::ArrayCtor(items) | Ast::MultisetCtor(items) => {
            for i in items {
                replace_ast(i, target, name);
            }
        }
        Ast::Between { value, lo, hi, .. } => {
            replace_ast(value, target, name);
            replace_ast(lo, target, name);
            replace_ast(hi, target, name);
        }
        Ast::In { value, collection, .. } => {
            replace_ast(value, target, name);
            replace_ast(collection, target, name);
        }
        Ast::Exists(e) => replace_ast(e, target, name),
        Ast::Quantified { collection, satisfies, .. } => {
            replace_ast(collection, target, name);
            replace_ast(satisfies, target, name);
        }
        Ast::Literal(_) | Ast::Ident(_) | Ast::Subquery(_) => {}
    }
}

/// Default output-field name for an expression (`u.name` → `name`).
fn derived_name(e: &Ast) -> Option<String> {
    match e {
        Ast::Ident(n) => Some(n.clone()),
        Ast::Field(_, n) => Some(n.clone()),
        _ => None,
    }
}

/// Replaces aggregate calls in `ast` with placeholder identifiers, recording
/// `(placeholder, function, argument)`.
fn extract_aggs(ast: &mut Ast, out: &mut Vec<(String, AggFunc, Option<Ast>)>) {
    // do not descend into subqueries (their aggregates are their own)
    match ast {
        Ast::Call(name, args) => {
            if let Some(f) = AggFunc::by_name(name) {
                let placeholder = format!("$agg{}", out.len());
                let entry = if args.len() == 1 {
                    if matches!(&args[0], Ast::Literal(Value::String(s)) if s == "*") {
                        (placeholder.clone(), AggFunc::CountStar, None)
                    } else {
                        (placeholder.clone(), f, Some(args[0].clone()))
                    }
                } else {
                    (placeholder.clone(), f, args.first().cloned())
                };
                out.push(entry);
                *ast = Ast::Ident(placeholder);
                return;
            }
            for a in args {
                extract_aggs(a, out);
            }
        }
        Ast::Field(b, _) => extract_aggs(b, out),
        Ast::Index(b, i) => {
            extract_aggs(b, out);
            extract_aggs(i, out);
        }
        Ast::Unary(_, e) => extract_aggs(e, out),
        Ast::Binary(_, l, r) => {
            extract_aggs(l, out);
            extract_aggs(r, out);
        }
        Ast::Case(arms, els) => {
            for (c, t) in arms {
                extract_aggs(c, out);
                extract_aggs(t, out);
            }
            if let Some(e) = els {
                extract_aggs(e, out);
            }
        }
        Ast::ObjectCtor(pairs) => {
            for (k, v) in pairs {
                extract_aggs(k, out);
                extract_aggs(v, out);
            }
        }
        Ast::ArrayCtor(items) | Ast::MultisetCtor(items) => {
            for i in items {
                extract_aggs(i, out);
            }
        }
        Ast::Between { value, lo, hi, .. } => {
            extract_aggs(value, out);
            extract_aggs(lo, out);
            extract_aggs(hi, out);
        }
        Ast::In { value, collection, .. } => {
            extract_aggs(value, out);
            extract_aggs(collection, out);
        }
        Ast::Exists(e) => extract_aggs(e, out),
        Ast::Quantified { collection, satisfies, .. } => {
            extract_aggs(collection, out);
            extract_aggs(satisfies, out);
        }
        Ast::Literal(_) | Ast::Ident(_) | Ast::Subquery(_) => {}
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parser::parse_query;
    use asterix_algebricks::jobgen::{execute, JobGenConfig};
    use asterix_algebricks::rules::optimize;
    use asterix_algebricks::source::VecSource;
    use asterix_adm::parse::parse_value;
    use asterix_hyracks::RuntimeCtx;
    use std::collections::HashMap;

    struct MapCatalog {
        map: HashMap<String, Arc<dyn DataSource>>,
    }

    impl CatalogView for MapCatalog {
        fn dataset(&self, name: &str) -> Option<Arc<dyn DataSource>> {
            self.map.get(name).cloned()
        }
    }

    fn catalog() -> MapCatalog {
        let users: Vec<Value> = (1..=6)
            .map(|i| {
                parse_value(&format!(
                    r#"{{"id": {i}, "name": "user{i}", "age": {}, "city": "{}",
                         "friendIds": [{}, {}]}}"#,
                    20 + i * 3,
                    if i % 2 == 0 { "irvine" } else { "riverside" },
                    i + 1,
                    i + 2
                ))
                .unwrap()
            })
            .collect();
        let msgs: Vec<Value> = (0..10)
            .map(|m| {
                parse_value(&format!(
                    r#"{{"messageId": {m}, "authorId": {}, "message": "msg {m} text"}}"#,
                    m % 6 + 1
                ))
                .unwrap()
            })
            .collect();
        let mut map: HashMap<String, Arc<dyn DataSource>> = HashMap::new();
        map.insert("Users".into(), VecSource::single("Users", users));
        map.insert("Messages".into(), VecSource::single("Messages", msgs));
        MapCatalog { map }
    }

    fn run(sql: &str) -> Vec<Value> {
        let q = parse_query(sql).unwrap();
        let cat = catalog();
        let mut vg = VarGen::new();
        let mut plan = translate_query(&q, &cat, &mut vg).unwrap();
        optimize(&mut plan, &Default::default());
        let ctx = RuntimeCtx::temp().unwrap();
        execute(&plan, &JobGenConfig::default(), ctx, Default::default()).unwrap().0
    }

    fn sorted(mut v: Vec<Value>) -> Vec<Value> {
        v.sort_by(asterix_adm::compare::total_cmp);
        v
    }

    #[test]
    fn select_value_where() {
        let out = run("SELECT VALUE u.name FROM Users u WHERE u.age > 30");
        assert_eq!(
            sorted(out),
            vec![Value::from("user4"), Value::from("user5"), Value::from("user6")]
        );
    }

    #[test]
    fn implicit_field_resolution() {
        let out = run("SELECT VALUE name FROM Users u WHERE age > 30");
        assert_eq!(out.len(), 3, "bare names resolve as fields of the sole binding");
    }

    #[test]
    fn select_fields_builds_objects() {
        let out = run("SELECT u.name, u.age AS years FROM Users u WHERE u.id = 1");
        assert_eq!(out.len(), 1);
        let o = &out[0];
        assert_eq!(o.field("name"), &Value::from("user1"));
        assert_eq!(o.field("years"), &Value::Int(23));
    }

    #[test]
    fn join_groups_and_counts() {
        let out = run(
            "SELECT u.city AS city, COUNT(m) AS n
             FROM Users u JOIN Messages m ON m.authorId = u.id
             GROUP BY u.city
             ORDER BY city",
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].field("city"), &Value::from("irvine"));
        // authors 2,4,6 → messages with authorId in {2,4,6}
        assert_eq!(out[0].field("n"), &Value::Int(5));
        assert_eq!(out[1].field("n"), &Value::Int(5));
    }

    #[test]
    fn scalar_aggregates_without_group() {
        let out = run("SELECT COUNT(*) AS n, AVG(u.age) AS a FROM Users u");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].field("n"), &Value::Int(6));
        assert_eq!(out[0].field("a"), &Value::Double(30.5));
    }

    #[test]
    fn let_and_order_and_limit() {
        let out = run(
            "SELECT VALUE nf FROM Users u LET nf = COLL_COUNT(u.friendIds)
             ORDER BY u.id LIMIT 3",
        );
        assert_eq!(out, vec![Value::Int(2), Value::Int(2), Value::Int(2)]);
    }

    #[test]
    fn quantified_dataset_semijoin() {
        // users who authored at least one message with id < 3
        let out = run(
            "SELECT VALUE u.id FROM Users u
             WHERE SOME m IN Messages SATISFIES m.authorId = u.id AND m.messageId < 3",
        );
        // messages 0,1,2 → authors 1,2,3
        assert_eq!(sorted(out), vec![Value::Int(1), Value::Int(2), Value::Int(3)]);
    }

    #[test]
    fn quantified_membership_on_collection() {
        let out = run(
            "SELECT VALUE u.id FROM Users u
             WHERE SOME f IN u.friendIds SATISFIES f = 3",
        );
        // friendIds = [i+1, i+2] → contains 3 for i=1,2
        assert_eq!(sorted(out), vec![Value::Int(1), Value::Int(2)]);
    }

    #[test]
    fn unnest_in_from() {
        let out = run("SELECT VALUE f FROM Users u UNNEST u.friendIds f WHERE u.id = 2");
        assert_eq!(sorted(out), vec![Value::Int(3), Value::Int(4)]);
    }

    #[test]
    fn group_as_collects() {
        let out = run(
            "SELECT city, COLL_COUNT(g) AS n
             FROM Users u GROUP BY u.city AS city GROUP AS g ORDER BY city",
        );
        assert_eq!(out.len(), 2);
        assert_eq!(out[0].field("n"), &Value::Int(3));
    }

    #[test]
    fn select_distinct() {
        let out = run("SELECT DISTINCT VALUE u.city FROM Users u");
        assert_eq!(out.len(), 2);
    }

    #[test]
    fn select_star_single_binding() {
        let out = run("SELECT * FROM Users u WHERE u.id = 1");
        assert_eq!(out.len(), 1);
        assert_eq!(out[0].field("name"), &Value::from("user1"));
    }

    #[test]
    fn with_bindings_fold() {
        let out = run(
            "WITH limit_age AS 25 + 5
             SELECT VALUE u.id FROM Users u WHERE u.age > limit_age",
        );
        assert_eq!(out.len(), 3);
        // `current_datetime()` is fixed once per query: the plan holds its value
        let q = parse_query("WITH now AS current_datetime() SELECT VALUE [now, u.id] FROM Users u").unwrap();
        let plan = translate_query(&q, &catalog(), &mut VarGen::new()).unwrap().pretty();
        assert!(plan.contains("datetime(\"") && !plan.contains("current_datetime"), "{plan}");
    }

    #[test]
    fn order_by_select_alias() {
        let out = run("SELECT u.id AS i FROM Users u ORDER BY i DESC LIMIT 2");
        assert_eq!(out[0].field("i"), &Value::Int(6));
        assert_eq!(out[1].field("i"), &Value::Int(5));
    }

    #[test]
    fn from_subquery() {
        let out = run(
            "SELECT VALUE x.n FROM (SELECT u.name AS n FROM Users u WHERE u.age > 30) x",
        );
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn having_filters_groups() {
        let out = run(
            "SELECT u.city AS c, COUNT(*) AS n FROM Users u
             GROUP BY u.city HAVING COUNT(*) > 2",
        );
        assert_eq!(out.len(), 2, "both cities have 3 users");
        let out = run(
            "SELECT u.city AS c, COUNT(*) AS n FROM Users u
             GROUP BY u.city HAVING COUNT(*) > 3",
        );
        assert!(out.is_empty());
    }

    #[test]
    fn unsupported_features_error_cleanly() {
        let q = parse_query("SELECT VALUE (SELECT VALUE 1)").unwrap();
        let cat = catalog();
        let mut vg = VarGen::new();
        let err = match translate_query(&q, &cat, &mut vg) {
            Err(e) => e,
            Ok(_) => panic!("expected unsupported-feature error"),
        };
        assert!(matches!(err, SqlppError::Unsupported(_)), "{err}");
    }

    #[test]
    fn aql_and_sqlpp_same_results() {
        let sql = run("SELECT VALUE u.name FROM Users u WHERE u.age > 30");
        let aql_stmt = crate::parse_aql(
            r#"for $u in dataset Users where $u.age > 30 return $u.name"#,
        )
        .unwrap();
        let crate::ast::Stmt::Query(q) = aql_stmt else { panic!() };
        let cat = catalog();
        let mut vg = VarGen::new();
        let mut plan = translate_query(&q, &cat, &mut vg).unwrap();
        optimize(&mut plan, &Default::default());
        let ctx = RuntimeCtx::temp().unwrap();
        let (aql, _) = execute(&plan, &JobGenConfig::default(), ctx, Default::default()).unwrap();
        assert_eq!(sorted(sql), sorted(aql));
    }

    #[test]
    fn aql_and_sqlpp_same_plans() {
        // the E9 claim in miniature: identical optimized plans
        let cat = catalog();
        let sql_q = parse_query("SELECT VALUE u.name FROM Users u WHERE u.age > 30").unwrap();
        let crate::ast::Stmt::Query(aql_q) = crate::parse_aql(
            "for $u in dataset Users where $u.age > 30 return $u.name",
        )
        .unwrap() else {
            panic!()
        };
        let mut vg1 = VarGen::new();
        let mut p1 = translate_query(&sql_q, &cat, &mut vg1).unwrap();
        optimize(&mut p1, &Default::default());
        let mut vg2 = VarGen::new();
        // different var allocation start to prove canonicalization
        for _ in 0..7 {
            vg2.fresh();
        }
        let mut p2 = translate_query(&aql_q, &cat, &mut vg2).unwrap();
        optimize(&mut p2, &Default::default());
        assert_eq!(p1.pretty(), p2.pretty());
    }
}
