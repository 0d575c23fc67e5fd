//! Scalar expressions: the function library shared by both query languages.
//!
//! Evaluation follows SQL++ semantics for unknowns: `MISSING` dominates
//! `NULL`, both propagate through ordinary functions, comparisons yield
//! three-valued logic, and field access on non-objects yields `MISSING`
//! rather than an error (ADM navigation semantics).

use crate::error::{AlgebricksError, Result};
use crate::plan::{AggFunc, VarId};
use asterix_adm::compare::{adm_eq, total_cmp};
use asterix_adm::temporal;
use asterix_adm::{Column, ColumnBatch, Object, Point, Rectangle, Value};
use asterix_hyracks::ops::AggState;
use std::cmp::Ordering;
use std::fmt;
use std::sync::Arc;

/// Built-in scalar functions.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Func {
    // arithmetic
    Add,
    Sub,
    Mul,
    Div,
    Mod,
    Neg,
    // comparison
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
    // logic
    And,
    Or,
    Not,
    // unknown handling
    IsNull,
    IsMissing,
    IsUnknown,
    IfMissing,
    IfNull,
    IfMissingOrNull,
    // strings
    Lower,
    Upper,
    StringContains,
    StartsWith,
    EndsWith,
    Like,
    Concat,
    StringLength,
    Substr,
    ToString,
    // collections
    /// `COLL_*`: an aggregate function over the items of one collection
    /// (`COUNT(*)` over it is its length).
    Coll(AggFunc),
    ArrayContains,
    // temporal
    DatetimeFromString,
    DateFromString,
    TimeFromString,
    DurationFromString,
    CurrentDatetime,
    IntervalBin,
    OverlapBins,
    // spatial
    CreatePoint,
    CreateRectangle,
    SpatialIntersect,
    SpatialDistance,
    // constructors
    ObjectConstructor,
    ArrayConstructor,
    MultisetConstructor,
}

impl Func {
    /// Stable lowercase name (used in plan printing and error messages).
    pub fn name(&self) -> &'static str {
        match self {
            Func::Add => "add",
            Func::Sub => "sub",
            Func::Mul => "mul",
            Func::Div => "div",
            Func::Mod => "mod",
            Func::Neg => "neg",
            Func::Eq => "eq",
            Func::Ne => "ne",
            Func::Lt => "lt",
            Func::Le => "le",
            Func::Gt => "gt",
            Func::Ge => "ge",
            Func::And => "and",
            Func::Or => "or",
            Func::Not => "not",
            Func::IsNull => "is-null",
            Func::IsMissing => "is-missing",
            Func::IsUnknown => "is-unknown",
            Func::IfMissing => "if-missing",
            Func::IfNull => "if-null",
            Func::IfMissingOrNull => "if-missing-or-null",
            Func::Lower => "lowercase",
            Func::Upper => "uppercase",
            Func::StringContains => "contains",
            Func::StartsWith => "starts-with",
            Func::EndsWith => "ends-with",
            Func::Like => "like",
            Func::Concat => "string-concat",
            Func::StringLength => "string-length",
            Func::Substr => "substr",
            Func::ToString => "to-string",
            Func::Coll(AggFunc::CountStar) => "coll_count_star",
            Func::Coll(AggFunc::Count) => "coll_count",
            Func::Coll(AggFunc::Sum) => "coll_sum",
            Func::Coll(AggFunc::Avg) => "coll_avg",
            Func::Coll(AggFunc::Min) => "coll_min",
            Func::Coll(AggFunc::Max) => "coll_max",
            Func::ArrayContains => "array-contains",
            Func::DatetimeFromString => "datetime",
            Func::DateFromString => "date",
            Func::TimeFromString => "time",
            Func::DurationFromString => "duration",
            Func::CurrentDatetime => "current_datetime",
            Func::IntervalBin => "interval-bin",
            Func::OverlapBins => "overlap-bins",
            Func::CreatePoint => "create-point",
            Func::CreateRectangle => "create-rectangle",
            Func::SpatialIntersect => "spatial-intersect",
            Func::SpatialDistance => "spatial-distance",
            Func::ObjectConstructor => "object-constructor",
            Func::ArrayConstructor => "array-constructor",
            Func::MultisetConstructor => "multiset-constructor",
        }
    }

    /// Looks a function up by its stable name (used by both parsers).
    pub fn by_name(name: &str) -> Option<Func> {
        use Func::*;
        Some(match name {
            "lowercase" | "lower" => Lower,
            "uppercase" | "upper" => Upper,
            "contains" => StringContains,
            "starts_with" | "starts-with" => StartsWith,
            "ends_with" | "ends-with" => EndsWith,
            "string_length" | "length" => StringLength,
            "substr" | "substring" => Substr,
            "to_string" | "tostring" => ToString,
            "array_contains" => ArrayContains,
            "datetime" => DatetimeFromString,
            "date" => DateFromString,
            "time" => TimeFromString,
            "duration" => DurationFromString,
            "current_datetime" => CurrentDatetime,
            "interval_bin" | "interval-bin" => IntervalBin,
            "overlap_bins" | "overlap-bins" => OverlapBins,
            "create_point" | "point" => CreatePoint,
            "create_rectangle" | "rectangle" => CreateRectangle,
            "spatial_intersect" => SpatialIntersect,
            "spatial_distance" => SpatialDistance,
            "if_missing" | "ifmissing" => IfMissing,
            "if_null" | "ifnull" => IfNull,
            "if_missing_or_null" | "coalesce" => IfMissingOrNull,
            _ => return name.strip_prefix("coll_").and_then(AggFunc::by_name).map(Coll),
        })
    }
}

/// A scalar expression over logical variables.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Reference to a logical variable.
    Var(VarId),
    /// Literal.
    Const(Value),
    /// `expr.field` — MISSING on non-objects/absent fields.
    Field(Box<Expr>, String),
    /// `expr[index]` — MISSING out of range / non-array.
    Index(Box<Expr>, Box<Expr>),
    /// Function call.
    Call(Func, Vec<Expr>),
    /// `CASE`-style conditional: (condition, then) pairs plus else.
    Case(Vec<(Expr, Expr)>, Box<Expr>),
}

impl Expr {
    /// Convenience: binary call.
    pub fn bin(f: Func, a: Expr, b: Expr) -> Expr {
        Expr::Call(f, vec![a, b])
    }

    /// Convenience: field path access.
    pub fn field(base: Expr, name: impl Into<String>) -> Expr {
        Expr::Field(Box::new(base), name.into())
    }

    /// Collects the variables used by this expression.
    pub fn used_vars(&self, out: &mut Vec<VarId>) {
        match self {
            Expr::Var(v) => {
                if !out.contains(v) {
                    out.push(*v);
                }
            }
            Expr::Const(_) => {}
            Expr::Field(b, _) => b.used_vars(out),
            Expr::Index(b, i) => {
                b.used_vars(out);
                i.used_vars(out);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.used_vars(out);
                }
            }
            Expr::Case(arms, els) => {
                for (c, t) in arms {
                    c.used_vars(out);
                    t.used_vars(out);
                }
                els.used_vars(out);
            }
        }
    }

    fn uses_nondeterministic(&self) -> bool {
        match self {
            Expr::Call(Func::CurrentDatetime, _) => true,
            Expr::Call(_, args) => args.iter().any(Expr::uses_nondeterministic),
            Expr::Field(b, _) => b.uses_nondeterministic(),
            Expr::Index(b, i) => b.uses_nondeterministic() || i.uses_nondeterministic(),
            Expr::Case(arms, els) => {
                arms.iter().any(|(c, t)| c.uses_nondeterministic() || t.uses_nondeterministic())
                    || els.uses_nondeterministic()
            }
            _ => false,
        }
    }

    /// Rewrites variable references through `map`.
    pub fn substitute(&mut self, map: &dyn Fn(VarId) -> Option<Expr>) {
        match self {
            Expr::Var(v) => {
                if let Some(replacement) = map(*v) {
                    *self = replacement;
                }
            }
            Expr::Const(_) => {}
            Expr::Field(b, _) => b.substitute(map),
            Expr::Index(b, i) => {
                b.substitute(map);
                i.substitute(map);
            }
            Expr::Call(_, args) => {
                for a in args {
                    a.substitute(map);
                }
            }
            Expr::Case(arms, els) => {
                for (c, t) in arms {
                    c.substitute(map);
                    t.substitute(map);
                }
                els.substitute(map);
            }
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Var(v) => write!(f, "${v}"),
            Expr::Const(v) => write!(f, "{v}"),
            Expr::Field(b, name) => write!(f, "{b}.{name}"),
            Expr::Index(b, i) => write!(f, "{b}[{i}]"),
            Expr::Call(func, args) => {
                write!(f, "{}(", func.name())?;
                for (i, a) in args.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{a}")?;
                }
                write!(f, ")")
            }
            Expr::Case(arms, els) => {
                write!(f, "case")?;
                for (c, t) in arms {
                    write!(f, " when {c} then {t}")?;
                }
                write!(f, " else {els} end")
            }
        }
    }
}

/// An expression with variables resolved to tuple column indexes, ready for
/// per-tuple evaluation inside Hyracks operators.
#[derive(Debug, Clone)]
pub enum BoundExpr {
    Col(usize),
    Const(Value),
    Field(Box<BoundExpr>, String),
    Index(Box<BoundExpr>, Box<BoundExpr>),
    Call(Func, Vec<BoundExpr>),
    Case(Vec<(BoundExpr, BoundExpr)>, Box<BoundExpr>),
}

/// Resolves `expr`'s variables against `schema` (tuple column order).
pub fn bind(expr: &Expr, schema: &[VarId]) -> Result<BoundExpr> {
    Ok(match expr {
        Expr::Var(v) => {
            let col = schema.iter().position(|s| s == v).ok_or_else(|| {
                AlgebricksError::Unresolved(format!("variable ${v} not in schema {schema:?}"))
            })?;
            BoundExpr::Col(col)
        }
        Expr::Const(v) => BoundExpr::Const(v.clone()),
        Expr::Field(b, name) => BoundExpr::Field(Box::new(bind(b, schema)?), name.clone()),
        Expr::Index(b, i) => {
            BoundExpr::Index(Box::new(bind(b, schema)?), Box::new(bind(i, schema)?))
        }
        Expr::Call(f, args) => BoundExpr::Call(
            *f,
            args.iter().map(|a| bind(a, schema)).collect::<Result<Vec<_>>>()?,
        ),
        Expr::Case(arms, els) => BoundExpr::Case(
            arms.iter()
                .map(|(c, t)| Ok((bind(c, schema)?, bind(t, schema)?)))
                .collect::<Result<Vec<_>>>()?,
            Box::new(bind(els, schema)?),
        ),
    })
}

/// Evaluates a bound expression against a tuple.
pub fn eval(expr: &BoundExpr, tuple: &[Value]) -> Result<Value> {
    Ok(match expr {
        BoundExpr::Col(c) => tuple
            .get(*c)
            .cloned()
            .ok_or_else(|| AlgebricksError::Plan(format!("column {c} out of range")))?,
        BoundExpr::Const(v) => v.clone(),
        BoundExpr::Field(b, name) => eval(b, tuple)?.field(name).clone(),
        BoundExpr::Index(b, i) => {
            let base = eval(b, tuple)?;
            let idx = eval(i, tuple)?;
            match idx.as_i64() {
                Some(n) => base.index(n).clone(),
                None => Value::Missing,
            }
        }
        BoundExpr::Call(f, args) => {
            // Short-circuit / unknown-aware functions evaluate lazily.
            match f {
                Func::And | Func::Or => return eval_logic(*f, args, tuple),
                Func::IsNull => {
                    return Ok(Value::Bool(eval(&args[0], tuple)?.is_null()));
                }
                Func::IsMissing => {
                    return Ok(Value::Bool(eval(&args[0], tuple)?.is_missing()));
                }
                Func::IsUnknown => {
                    return Ok(Value::Bool(eval(&args[0], tuple)?.is_unknown()));
                }
                Func::IfMissing => {
                    for a in args {
                        let v = eval(a, tuple)?;
                        if !v.is_missing() {
                            return Ok(v);
                        }
                    }
                    return Ok(Value::Missing);
                }
                Func::IfNull => {
                    for a in args {
                        let v = eval(a, tuple)?;
                        if !v.is_null() {
                            return Ok(v);
                        }
                    }
                    return Ok(Value::Null);
                }
                Func::IfMissingOrNull => {
                    for a in args {
                        let v = eval(a, tuple)?;
                        if !v.is_unknown() {
                            return Ok(v);
                        }
                    }
                    return Ok(Value::Null);
                }
                Func::ObjectConstructor => {
                    // args alternate: name const, value
                    let mut o = Object::with_capacity(args.len() / 2);
                    for pair in args.chunks(2) {
                        let name = match eval(&pair[0], tuple)? {
                            Value::String(s) => s,
                            other => {
                                return Err(AlgebricksError::Type(format!(
                                    "object field name must be a string, got {}",
                                    other.type_name()
                                )))
                            }
                        };
                        let v = eval(&pair[1], tuple)?;
                        if !v.is_missing() {
                            o.set(name, v);
                        }
                    }
                    return Ok(Value::Object(o));
                }
                Func::ArrayConstructor => {
                    let items = args
                        .iter()
                        .map(|a| eval(a, tuple))
                        .collect::<Result<Vec<_>>>()?;
                    return Ok(Value::Array(items));
                }
                Func::MultisetConstructor => {
                    let items = args
                        .iter()
                        .map(|a| eval(a, tuple))
                        .collect::<Result<Vec<_>>>()?;
                    return Ok(Value::Multiset(items));
                }
                Func::CurrentDatetime => {
                    let now = std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_millis() as i64)
                        .unwrap_or(0);
                    return Ok(Value::DateTime(now));
                }
                _ => {}
            }
            let vals = args.iter().map(|a| eval(a, tuple)).collect::<Result<Vec<_>>>()?;
            // MISSING dominates NULL; unknowns propagate through strict funcs
            if vals.iter().any(Value::is_missing) {
                return Ok(Value::Missing);
            }
            if vals.iter().any(Value::is_null) {
                return Ok(Value::Null);
            }
            apply_strict(*f, &vals)?
        }
        BoundExpr::Case(arms, els) => {
            for (c, t) in arms {
                if eval(c, tuple)? == Value::Bool(true) {
                    return eval(t, tuple);
                }
            }
            eval(els, tuple)?
        }
    })
}

/// What the comparison `f` says of two known values. Comparisons across
/// incomparable types are errors in SQL++; we are lenient and use the total
/// order, except that `Eq`/`Ne` use ADM equality directly.
fn compare(f: Func, a: &Value, b: &Value) -> bool {
    match f {
        Func::Eq => adm_eq(a, b),
        Func::Ne => !adm_eq(a, b),
        Func::Lt => total_cmp(a, b) == Ordering::Less,
        Func::Le => total_cmp(a, b) != Ordering::Greater,
        Func::Gt => total_cmp(a, b) == Ordering::Greater,
        _ => total_cmp(a, b) != Ordering::Less,
    }
}

// ---------------------------------------------------------------------------
// Evaluation over a batch of columns
// ---------------------------------------------------------------------------

/// One row of a batch at a time as the tuple an expression is evaluated
/// against: the columns the expression reads, `MISSING` in the others.
struct RowOf<'a> {
    batch: &'a ColumnBatch,
    reads: Vec<usize>,
    tuple: Vec<Value>,
}

impl<'a> RowOf<'a> {
    fn new(expr: &BoundExpr, batch: &'a ColumnBatch) -> Self {
        fn note(expr: &BoundExpr, reads: &mut Vec<usize>) {
            match expr {
                BoundExpr::Col(c) => reads.push(*c),
                BoundExpr::Const(_) => {}
                BoundExpr::Field(base, _) => note(base, reads),
                BoundExpr::Index(base, index) => {
                    note(base, reads);
                    note(index, reads);
                }
                BoundExpr::Call(_, args) => args.iter().for_each(|a| note(a, reads)),
                BoundExpr::Case(arms, els) => {
                    arms.iter().for_each(|(cond, then)| {
                        note(cond, reads);
                        note(then, reads);
                    });
                    note(els, reads);
                }
            }
        }
        let mut reads = Vec::new();
        note(expr, &mut reads);
        reads.sort_unstable();
        reads.dedup();
        // a column the batch does not have is for `eval` to report
        reads.retain(|c| *c < batch.width());
        RowOf { batch, reads, tuple: vec![Value::Missing; batch.width()] }
    }

    fn at(&mut self, row: usize) -> &[Value] {
        for &c in &self.reads {
            self.tuple[c] = self.batch.column(c).get(row);
        }
        &self.tuple
    }
}

/// [`eval`] for every row in play of `batch`, as a column of `batch.len()`
/// rows: a column reference is that column, shared, and a constant is one
/// value repeated; anything else is evaluated a row at a time, against the
/// columns it reads and no others.
pub fn eval_batch(expr: &BoundExpr, batch: &ColumnBatch) -> Result<Arc<Column>> {
    match expr {
        BoundExpr::Col(c) if *c < batch.width() => Ok(batch.share(*c)),
        BoundExpr::Const(v) => Ok(Arc::new(Column::constant(v, batch.len()))),
        _ => {
            let mut row = RowOf::new(expr, batch);
            batch.map_rows(|i| eval(expr, row.at(i))).map(Arc::new)
        }
    }
}

/// One side of a comparison that is read where it lies.
#[derive(Clone, Copy)]
enum Operand<'a> {
    Col(usize),
    Const(&'a Value),
}

impl Operand<'_> {
    /// Hands `f` this side's value for row `row` of `batch`.
    fn with<R>(self, batch: &ColumnBatch, row: usize, f: impl FnOnce(&Value) -> R) -> R {
        match self {
            Operand::Col(c) => batch.column(c).with_value(row, f),
            Operand::Const(v) => f(v),
        }
    }
}

/// The comparisons between columns and constants whose conjunction `expr`
/// is, if that is all it is: a comparison raises no error and is `true` or
/// not, so a row passes exactly when every one of them holds.
fn conjoined_comparisons<'a>(expr: &'a BoundExpr, width: usize, out: &mut Vec<(Func, Operand<'a>, Operand<'a>)>) -> bool {
    let operand = |e: &'a BoundExpr| match e {
        BoundExpr::Col(c) if *c < width => Some(Operand::Col(*c)),
        BoundExpr::Const(v) => Some(Operand::Const(v)),
        _ => None,
    };
    match expr {
        BoundExpr::Call(Func::And, args) => args.iter().all(|a| conjoined_comparisons(a, width, out)),
        BoundExpr::Call(f @ (Func::Eq | Func::Ne | Func::Lt | Func::Le | Func::Gt | Func::Ge), args) => {
            let [a, b] = &args[..] else { return false };
            let (Some(a), Some(b)) = (operand(a), operand(b)) else { return false };
            out.push((*f, a, b));
            true
        }
        _ => false,
    }
}

/// The rows in play of `batch` for which `expr` is `true`, ascending — what
/// a select keeps. A conjunction of comparisons between columns and
/// constants narrows the selection one comparison at a time, reading the
/// values where the columns hold them; anything else is evaluated a row at
/// a time.
pub fn select_batch(expr: &BoundExpr, batch: &ColumnBatch) -> Result<Vec<u32>> {
    let mut keep: Vec<u32> = batch.row_ids().map(|i| i as u32).collect();
    let mut comparisons = Vec::new();
    if !conjoined_comparisons(expr, batch.width(), &mut comparisons) {
        let mut row = RowOf::new(expr, batch);
        let mut failed = None;
        keep.retain(|&i| match eval(expr, row.at(i as usize)) {
            _ if failed.is_some() => false,
            Ok(v) => v == Value::Bool(true),
            Err(e) => {
                failed = Some(e);
                false
            }
        });
        return failed.map_or(Ok(keep), Err);
    }
    for (f, a, b) in comparisons {
        let known_and_holds = |x: &Value, y: &Value| !x.is_unknown() && !y.is_unknown() && compare(f, x, y);
        keep.retain(|&i| a.with(batch, i as usize, |x| b.with(batch, i as usize, |y| known_and_holds(x, y))));
    }
    Ok(keep)
}

fn eval_logic(f: Func, args: &[BoundExpr], tuple: &[Value]) -> Result<Value> {
    // three-valued logic; MISSING treated as NULL per SQL++ boolean rules
    let mut saw_unknown = false;
    for a in args {
        let v = eval(a, tuple)?;
        match (f, v) {
            (Func::And, Value::Bool(false)) => return Ok(Value::Bool(false)),
            (Func::Or, Value::Bool(true)) => return Ok(Value::Bool(true)),
            (_, Value::Bool(_)) => {}
            (_, v) if v.is_unknown() => saw_unknown = true,
            (_, other) => {
                return Err(AlgebricksError::Type(format!(
                    "boolean operator on {}",
                    other.type_name()
                )))
            }
        }
    }
    if saw_unknown {
        Ok(Value::Null)
    } else {
        Ok(Value::Bool(f == Func::And))
    }
}

fn numeric_pair(a: &Value, b: &Value, op: &str) -> Result<(f64, f64, bool)> {
    match (a.as_f64(), b.as_f64()) {
        (Some(x), Some(y)) => Ok((x, y, matches!((a, b), (Value::Int(_), Value::Int(_))))),
        _ => Err(AlgebricksError::Type(format!(
            "{op} expects numbers, got {} and {}",
            a.type_name(),
            b.type_name()
        ))),
    }
}

fn apply_strict(f: Func, vals: &[Value]) -> Result<Value> {
    use Func::*;
    let arity = |n: usize| -> Result<()> {
        if vals.len() != n {
            return Err(AlgebricksError::Type(format!(
                "{} expects {n} arguments, got {}",
                f.name(),
                vals.len()
            )));
        }
        Ok(())
    };
    Ok(match f {
        Add | Sub => {
            arity(2)?;
            match (&vals[0], &vals[1]) {
                // temporal arithmetic
                (Value::DateTime(t), Value::Duration(d)) => {
                    let signed = if f == Sub { d.neg() } else { *d };
                    Value::DateTime(temporal::datetime_add(*t, &signed))
                }
                (Value::Date(days), Value::Duration(d)) => {
                    let ms = *days as i64 * temporal::MILLIS_PER_DAY;
                    let signed = if f == Sub { d.neg() } else { *d };
                    Value::Date(
                        (temporal::datetime_add(ms, &signed) / temporal::MILLIS_PER_DAY) as i32,
                    )
                }
                (Value::DateTime(a), Value::DateTime(b)) if f == Sub => {
                    Value::Duration(asterix_adm::Duration::from_millis(a - b))
                }
                (a, b) => {
                    let (x, y, ints) = numeric_pair(a, b, f.name())?;
                    let r = if f == Add { x + y } else { x - y };
                    if ints {
                        Value::Int(r as i64)
                    } else {
                        Value::Double(r)
                    }
                }
            }
        }
        Mul => {
            arity(2)?;
            let (x, y, ints) = numeric_pair(&vals[0], &vals[1], "mul")?;
            if ints {
                Value::Int((x * y) as i64)
            } else {
                Value::Double(x * y)
            }
        }
        Div => {
            arity(2)?;
            let (x, y, _) = numeric_pair(&vals[0], &vals[1], "div")?;
            if y == 0.0 {
                Value::Null // SQL++: division by zero yields null
            } else {
                Value::Double(x / y)
            }
        }
        Mod => {
            arity(2)?;
            match (&vals[0], &vals[1]) {
                (Value::Int(a), Value::Int(b)) if *b != 0 => Value::Int(a.rem_euclid(*b)),
                (Value::Int(_), Value::Int(_)) => Value::Null,
                (a, b) => {
                    let (x, y, _) = numeric_pair(a, b, "mod")?;
                    if y == 0.0 {
                        Value::Null
                    } else {
                        Value::Double(x.rem_euclid(y))
                    }
                }
            }
        }
        Neg => {
            arity(1)?;
            match &vals[0] {
                Value::Int(i) => Value::Int(-i),
                Value::Double(d) => Value::Double(-d),
                other => {
                    return Err(AlgebricksError::Type(format!("neg on {}", other.type_name())))
                }
            }
        }
        Eq | Ne | Lt | Le | Gt | Ge => {
            arity(2)?;
            Value::Bool(compare(f, &vals[0], &vals[1]))
        }
        Not => {
            arity(1)?;
            match &vals[0] {
                Value::Bool(b) => Value::Bool(!b),
                other => {
                    return Err(AlgebricksError::Type(format!("not on {}", other.type_name())))
                }
            }
        }
        Lower | Upper => {
            arity(1)?;
            let s = expect_str(&vals[0], f.name())?;
            Value::String(if f == Lower { s.to_lowercase() } else { s.to_uppercase() })
        }
        StringContains => {
            arity(2)?;
            Value::Bool(expect_str(&vals[0], "contains")?.contains(expect_str(&vals[1], "contains")?))
        }
        StartsWith => {
            arity(2)?;
            Value::Bool(
                expect_str(&vals[0], "starts-with")?.starts_with(expect_str(&vals[1], "starts-with")?),
            )
        }
        EndsWith => {
            arity(2)?;
            Value::Bool(
                expect_str(&vals[0], "ends-with")?.ends_with(expect_str(&vals[1], "ends-with")?),
            )
        }
        Like => {
            arity(2)?;
            Value::Bool(like_match(
                expect_str(&vals[0], "like")?,
                expect_str(&vals[1], "like")?,
            ))
        }
        Concat => {
            let mut out = String::new();
            for v in vals {
                out.push_str(expect_str(v, "string-concat")?);
            }
            Value::String(out)
        }
        StringLength => {
            arity(1)?;
            Value::Int(expect_str(&vals[0], "string-length")?.chars().count() as i64)
        }
        Substr => {
            // substr(s, start [, len]) — 0-based
            let s = expect_str(&vals[0], "substr")?;
            let start = vals[1]
                .as_i64()
                .ok_or_else(|| AlgebricksError::Type("substr start must be int".into()))?
                .max(0) as usize;
            let chars: Vec<char> = s.chars().collect();
            let end = if vals.len() > 2 {
                let len = vals[2]
                    .as_i64()
                    .ok_or_else(|| AlgebricksError::Type("substr length must be int".into()))?
                    .max(0) as usize;
                (start + len).min(chars.len())
            } else {
                chars.len()
            };
            Value::String(chars[start.min(chars.len())..end].iter().collect())
        }
        ToString => {
            arity(1)?;
            match &vals[0] {
                Value::String(s) => Value::String(s.clone()),
                other => Value::String(format!("{other}")),
            }
        }
        Coll(agg) => {
            arity(1)?;
            vals[0].as_collection().map_or(Value::Null, |items| AggState::of(agg, items))
        }
        ArrayContains => {
            arity(2)?;
            match vals[0].as_collection() {
                Some(items) => Value::Bool(items.iter().any(|i| adm_eq(i, &vals[1]))),
                None => Value::Null,
            }
        }
        DatetimeFromString => {
            arity(1)?;
            match &vals[0] {
                Value::DateTime(t) => Value::DateTime(*t),
                Value::String(s) => Value::DateTime(temporal::parse_datetime(s)?),
                other => {
                    return Err(AlgebricksError::Type(format!(
                        "datetime() on {}",
                        other.type_name()
                    )))
                }
            }
        }
        DateFromString => {
            arity(1)?;
            match &vals[0] {
                Value::Date(d) => Value::Date(*d),
                Value::String(s) => Value::Date(temporal::parse_date(s)?),
                Value::DateTime(t) => {
                    Value::Date(t.div_euclid(temporal::MILLIS_PER_DAY) as i32)
                }
                other => {
                    return Err(AlgebricksError::Type(format!("date() on {}", other.type_name())))
                }
            }
        }
        TimeFromString => {
            arity(1)?;
            match &vals[0] {
                Value::Time(t) => Value::Time(*t),
                Value::String(s) => Value::Time(temporal::parse_time(s)?),
                other => {
                    return Err(AlgebricksError::Type(format!("time() on {}", other.type_name())))
                }
            }
        }
        DurationFromString => {
            arity(1)?;
            match &vals[0] {
                Value::Duration(d) => Value::Duration(*d),
                Value::String(s) => Value::Duration(asterix_adm::Duration::parse(s)?),
                other => {
                    return Err(AlgebricksError::Type(format!(
                        "duration() on {}",
                        other.type_name()
                    )))
                }
            }
        }
        IntervalBin => {
            // interval_bin(t, anchor, bin) -> { start, end } (datetimes)
            if vals.len() != 3 {
                return Err(AlgebricksError::Type("interval-bin expects 3 arguments".into()));
            }
            let (t, anchor, d) = (to_millis(&vals[0])?, to_millis(&vals[1])?, to_duration(&vals[2])?);
            let bin = temporal::interval_bin(t, anchor, &d)?;
            bin_to_object(&bin)
        }
        OverlapBins => {
            // overlap_bins(start, end, anchor, bin) -> [ {start,end}, ... ]
            if vals.len() != 4 {
                return Err(AlgebricksError::Type("overlap-bins expects 4 arguments".into()));
            }
            let bins = temporal::overlap_bins(
                to_millis(&vals[0])?,
                to_millis(&vals[1])?,
                to_millis(&vals[2])?,
                &to_duration(&vals[3])?,
            )?;
            Value::Array(bins.iter().map(bin_to_object).collect())
        }
        CreatePoint => {
            // two numeric args, or the ADM constructor form point("x,y")
            if vals.len() == 1 {
                let s = expect_str(&vals[0], "create-point")?;
                let (x, y) = s.split_once(',').ok_or_else(|| {
                    AlgebricksError::Type(format!("bad point literal {s:?}"))
                })?;
                let px: f64 = x.trim().parse().map_err(|_| {
                    AlgebricksError::Type(format!("bad point x in {s:?}"))
                })?;
                let py: f64 = y.trim().parse().map_err(|_| {
                    AlgebricksError::Type(format!("bad point y in {s:?}"))
                })?;
                Value::Point(Point::new(px, py))
            } else {
                arity(2)?;
                let (x, y, _) = numeric_pair(&vals[0], &vals[1], "create-point")?;
                Value::Point(Point::new(x, y))
            }
        }
        CreateRectangle => {
            arity(2)?;
            match (&vals[0], &vals[1]) {
                (Value::Point(a), Value::Point(b)) => Value::Rectangle(Rectangle::new(*a, *b)),
                _ => {
                    return Err(AlgebricksError::Type(
                        "create-rectangle expects two points".into(),
                    ))
                }
            }
        }
        SpatialIntersect => {
            arity(2)?;
            let a = to_rect(&vals[0])?;
            let b = to_rect(&vals[1])?;
            Value::Bool(a.intersects(&b))
        }
        SpatialDistance => {
            arity(2)?;
            match (&vals[0], &vals[1]) {
                (Value::Point(a), Value::Point(b)) => Value::Double(a.distance(b)),
                _ => {
                    return Err(AlgebricksError::Type(
                        "spatial-distance expects two points".into(),
                    ))
                }
            }
        }
        // handled earlier
        And | Or | IsNull | IsMissing | IsUnknown | IfMissing | IfNull | IfMissingOrNull
        | ObjectConstructor | ArrayConstructor | MultisetConstructor | CurrentDatetime => {
            return Err(AlgebricksError::Plan(
                "lazy function reached the strict evaluation path".into(),
            ))
        }
    })
}

fn expect_str<'a>(v: &'a Value, what: &str) -> Result<&'a str> {
    v.as_str()
        .ok_or_else(|| AlgebricksError::Type(format!("{what} expects a string, got {}", v.type_name())))
}

fn to_millis(v: &Value) -> Result<i64> {
    match v {
        Value::DateTime(t) => Ok(*t),
        Value::Date(d) => Ok(*d as i64 * temporal::MILLIS_PER_DAY),
        other => Err(AlgebricksError::Type(format!(
            "expected datetime, got {}",
            other.type_name()
        ))),
    }
}

fn to_duration(v: &Value) -> Result<asterix_adm::Duration> {
    match v {
        Value::Duration(d) => Ok(*d),
        other => Err(AlgebricksError::Type(format!(
            "expected duration, got {}",
            other.type_name()
        ))),
    }
}

fn to_rect(v: &Value) -> Result<Rectangle> {
    match v {
        Value::Rectangle(r) => Ok(*r),
        Value::Point(p) => Ok(p.to_mbr()),
        other => Err(AlgebricksError::Type(format!(
            "expected point/rectangle, got {}",
            other.type_name()
        ))),
    }
}

fn bin_to_object(b: &temporal::Bin) -> Value {
    Value::object(vec![
        ("start".into(), Value::DateTime(b.start)),
        ("end".into(), Value::DateTime(b.end)),
    ])
}

/// SQL LIKE matching: `%` = any run, `_` = any single character.
pub fn like_match(s: &str, pattern: &str) -> bool {
    fn rec(s: &[char], p: &[char]) -> bool {
        match p.first() {
            None => s.is_empty(),
            Some('%') => {
                for skip in 0..=s.len() {
                    if rec(&s[skip..], &p[1..]) {
                        return true;
                    }
                }
                false
            }
            Some('_') => !s.is_empty() && rec(&s[1..], &p[1..]),
            Some(c) => s.first() == Some(c) && rec(&s[1..], &p[1..]),
        }
    }
    let sc: Vec<char> = s.chars().collect();
    let pc: Vec<char> = pattern.chars().collect();
    rec(&sc, &pc)
}

/// Folds constant sub-expressions (no variables, deterministic functions);
/// returns whether it folded any. `once` says the expression is evaluated
/// once per query (a `WITH` binding), not per tuple: then a nondeterministic
/// function folds too, to the one value the query sees (`current_datetime()`
/// is fixed per query, as in AsterixDB).
pub fn const_fold(expr: &mut Expr, once: bool) -> bool {
    // fold children first
    let changed = match expr {
        Expr::Field(b, _) => const_fold(b, once),
        Expr::Index(b, i) => const_fold(b, once) | const_fold(i, once),
        Expr::Call(_, args) => args.iter_mut().fold(false, |changed, a| const_fold(a, once) | changed),
        Expr::Case(arms, els) => arms.iter_mut().fold(const_fold(els, once), |changed, (c, t)| {
            const_fold(c, once) | const_fold(t, once) | changed
        }),
        _ => false,
    };
    let mut vars = Vec::new();
    expr.used_vars(&mut vars);
    let foldable = vars.is_empty() && (once || !expr.uses_nondeterministic());
    if matches!(expr, Expr::Const(_) | Expr::Var(_)) || !foldable {
        return changed;
    }
    match bind(expr, &[]).map(|bound| eval(&bound, &[])) {
        Ok(Ok(v)) => {
            *expr = Expr::Const(v);
            true
        }
        _ => changed,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(e: &Expr, tuple: &[Value], schema: &[VarId]) -> Value {
        eval(&bind(e, schema).unwrap(), tuple).unwrap()
    }

    /// Over a batch, an expression answers row for row what it answers
    /// over the tuples built from it — as a predicate (a conjunction of
    /// comparisons narrows the selection where the values lie, anything else
    /// goes row by row) and as a value — also for rows no longer in play,
    /// rows without a value, a `null` among integers and an error.
    #[test]
    fn a_batch_answers_like_its_rows() {
        let rows: Vec<Vec<Value>> = (0..40i64)
            .map(|i| {
                let c0 = if i % 7 == 3 { Value::Missing } else { Value::Int(i % 10) };
                let c1 = Value::from(["a", "b", "c"][i as usize % 3]);
                let c2 = match i % 5 {
                    0 => Value::Null,
                    1 => Value::Double(i as f64 / 2.0),
                    2 => Value::from("x"),
                    _ => Value::Int(i),
                };
                vec![c0, c1, c2]
            })
            .collect();
        let columns = (0..3).map(|c| {
            let mut column = Column::new();
            rows.iter().for_each(|row| column.push_value(row[c].clone()));
            column
        });
        let mut batch = ColumnBatch::new(columns.collect(), rows.len()).unwrap();
        assert_eq!(batch.column(0).int_at(4), Some(4), "a vector of i64");
        let col = |c| Expr::Var(c);
        let int = |i| Expr::Const(Value::Int(i));
        let cmp = |f, a, b| Expr::bin(f, a, b);
        let exprs = [
            cmp(Func::And, cmp(Func::Ge, col(0), int(3)), cmp(Func::Lt, col(0), int(7))),
            cmp(Func::Eq, col(1), Expr::Const(Value::from("b"))),
            cmp(Func::Gt, col(2), int(11)),
            cmp(Func::Eq, Expr::Const(Value::Double(2.0)), col(0)),
            cmp(Func::Ne, col(0), col(2)),
            cmp(Func::Le, col(0), Expr::Const(Value::Null)),
            Expr::Call(Func::Not, vec![cmp(Func::Eq, col(0), int(1))]),
            cmp(Func::And, cmp(Func::Gt, cmp(Func::Add, col(0), int(1)), int(3)), cmp(Func::Ne, col(1), Expr::Const(Value::from("a")))),
            cmp(Func::Or, Expr::Call(Func::IsMissing, vec![col(0)]), cmp(Func::Eq, col(2), Expr::Const(Value::from("x")))),
            // an error on the rows whose `c2` is a string
            cmp(Func::Gt, cmp(Func::Add, col(2), int(1)), int(3)),
            col(0),
            Expr::Const(Value::from("k")),
            Expr::field(col(2), "nope"),
        ];
        for selected in [false, true] {
            if selected {
                batch.select((0..40).filter(|i| i % 4 != 1).collect());
            }
            for e in &exprs {
                let bound = bind(e, &[0, 1, 2]).unwrap();
                let by_row: Result<Vec<(usize, Value)>> =
                    batch.row_ids().map(|i| Ok((i, eval(&bound, &batch.tuple(i))?))).collect();
                match (by_row, select_batch(&bound, &batch), eval_batch(&bound, &batch)) {
                    (Ok(by_row), Ok(kept), Ok(column)) => {
                        let want: Vec<u32> = by_row.iter().filter(|(_, v)| *v == Value::Bool(true)).map(|(i, _)| *i as u32).collect();
                        assert_eq!(kept, want, "{e} as a predicate");
                        assert_eq!(column.len(), batch.len());
                        assert!(by_row.iter().all(|(i, v)| column.get(*i) == *v), "{e} as a value");
                    }
                    (Err(_), Err(_), Err(_)) => assert!(e.to_string().starts_with("gt(add($2"), "{e} failed"),
                    other => panic!("{e}: rows, selection and column disagree: {other:?}"),
                }
            }
        }
    }

    #[test]
    fn arithmetic_and_promotion() {
        let e = Expr::bin(Func::Add, Expr::Const(Value::Int(2)), Expr::Const(Value::Int(3)));
        assert_eq!(ev(&e, &[], &[]), Value::Int(5));
        let e = Expr::bin(Func::Mul, Expr::Const(Value::Int(2)), Expr::Const(Value::Double(1.5)));
        assert_eq!(ev(&e, &[], &[]), Value::Double(3.0));
        let e = Expr::bin(Func::Div, Expr::Const(Value::Int(1)), Expr::Const(Value::Int(0)));
        assert_eq!(ev(&e, &[], &[]), Value::Null, "div by zero is null");
    }

    #[test]
    fn unknown_propagation() {
        let e = Expr::bin(Func::Add, Expr::Const(Value::Null), Expr::Const(Value::Int(1)));
        assert_eq!(ev(&e, &[], &[]), Value::Null);
        let e = Expr::bin(Func::Add, Expr::Const(Value::Missing), Expr::Const(Value::Null));
        assert_eq!(ev(&e, &[], &[]), Value::Missing, "MISSING dominates NULL");
        let e = Expr::Call(Func::IsMissing, vec![Expr::Const(Value::Missing)]);
        assert_eq!(ev(&e, &[], &[]), Value::Bool(true));
    }

    #[test]
    fn three_valued_logic() {
        let t = Expr::Const(Value::Bool(true));
        let f = Expr::Const(Value::Bool(false));
        let n = Expr::Const(Value::Null);
        assert_eq!(ev(&Expr::bin(Func::And, f.clone(), n.clone()), &[], &[]), Value::Bool(false));
        assert_eq!(ev(&Expr::bin(Func::And, t.clone(), n.clone()), &[], &[]), Value::Null);
        assert_eq!(ev(&Expr::bin(Func::Or, t.clone(), n.clone()), &[], &[]), Value::Bool(true));
        assert_eq!(ev(&Expr::bin(Func::Or, f, n), &[], &[]), Value::Null);
    }

    #[test]
    fn field_and_index_navigation() {
        let rec = Value::object(vec![
            ("name".into(), Value::from("Ann")),
            ("tags".into(), Value::Array(vec![Value::from("a"), Value::from("b")])),
        ]);
        let schema = [7usize];
        let e = Expr::field(Expr::Var(7), "name");
        assert_eq!(ev(&e, std::slice::from_ref(&rec), &schema), Value::from("Ann"));
        let e = Expr::Index(
            Box::new(Expr::field(Expr::Var(7), "tags")),
            Box::new(Expr::Const(Value::Int(1))),
        );
        assert_eq!(ev(&e, std::slice::from_ref(&rec), &schema), Value::from("b"));
        let e = Expr::field(Expr::Var(7), "nope");
        assert_eq!(ev(&e, &[rec], &schema), Value::Missing);
    }

    #[test]
    fn string_functions() {
        let e = Expr::Call(Func::Upper, vec![Expr::Const(Value::from("abc"))]);
        assert_eq!(ev(&e, &[], &[]), Value::from("ABC"));
        assert!(like_match("hello world", "hello%"));
        assert!(like_match("hello", "h_llo"));
        assert!(!like_match("hello", "h_ll"));
        assert!(like_match("", "%"));
        let e = Expr::Call(
            Func::Substr,
            vec![
                Expr::Const(Value::from("abcdef")),
                Expr::Const(Value::Int(2)),
                Expr::Const(Value::Int(3)),
            ],
        );
        assert_eq!(ev(&e, &[], &[]), Value::from("cde"));
    }

    #[test]
    fn collection_functions() {
        let coll = Expr::Const(Value::Multiset(vec![Value::Int(2), Value::Int(3), Value::Int(6)]));
        assert_eq!(ev(&Expr::Call(Func::Coll(AggFunc::Count), vec![coll.clone()]), &[], &[]), Value::Int(3));
        assert_eq!(ev(&Expr::Call(Func::Coll(AggFunc::Sum), vec![coll.clone()]), &[], &[]), Value::Int(11));
        assert_eq!(
            ev(&Expr::Call(Func::Coll(AggFunc::Avg), vec![coll.clone()]), &[], &[]),
            Value::Double(11.0 / 3.0)
        );
        assert_eq!(
            ev(
                &Expr::Call(Func::ArrayContains, vec![coll, Expr::Const(Value::Int(3))]),
                &[],
                &[]
            ),
            Value::Bool(true)
        );
    }

    #[test]
    fn temporal_functions() {
        let dt = Expr::Call(
            Func::DatetimeFromString,
            vec![Expr::Const(Value::from("2017-01-01T00:00:00"))],
        );
        let dur = Expr::Call(
            Func::DurationFromString,
            vec![Expr::Const(Value::from("P30D"))],
        );
        let sub = Expr::bin(Func::Sub, dt.clone(), dur);
        let v = ev(&sub, &[], &[]);
        assert_eq!(v, Value::DateTime(temporal::parse_datetime("2016-12-02T00:00:00").unwrap()));
        // interval_bin returns an object
        let bin = Expr::Call(
            Func::IntervalBin,
            vec![
                dt,
                Expr::Const(Value::DateTime(0)),
                Expr::Const(Value::Duration(asterix_adm::Duration::from_days(7))),
            ],
        );
        let v = ev(&bin, &[], &[]);
        assert!(matches!(v.field("start"), Value::DateTime(_)));
    }

    #[test]
    fn case_expression() {
        let e = Expr::Case(
            vec![(
                Expr::bin(Func::Gt, Expr::Var(0), Expr::Const(Value::Int(10))),
                Expr::Const(Value::from("big")),
            )],
            Box::new(Expr::Const(Value::from("small"))),
        );
        assert_eq!(ev(&e, &[Value::Int(20)], &[0]), Value::from("big"));
        assert_eq!(ev(&e, &[Value::Int(5)], &[0]), Value::from("small"));
    }

    #[test]
    fn const_folding() {
        let mut e = Expr::bin(
            Func::Add,
            Expr::Const(Value::Int(1)),
            Expr::bin(Func::Mul, Expr::Const(Value::Int(2)), Expr::Const(Value::Int(3))),
        );
        assert!(const_fold(&mut e, false));
        assert_eq!(e, Expr::Const(Value::Int(7)));
        assert!(!const_fold(&mut e, false), "a constant folds no further");
        // vars prevent folding, but const children still fold
        let mut e = Expr::bin(
            Func::Add,
            Expr::Var(0),
            Expr::bin(Func::Mul, Expr::Const(Value::Int(2)), Expr::Const(Value::Int(3))),
        );
        const_fold(&mut e, false);
        assert_eq!(e, Expr::bin(Func::Add, Expr::Var(0), Expr::Const(Value::Int(6))));
        // current_datetime folds only where it is evaluated once per query
        let mut e = Expr::Call(Func::CurrentDatetime, vec![]);
        assert!(!const_fold(&mut e, false));
        assert!(matches!(e, Expr::Call(Func::CurrentDatetime, _)));
        assert!(const_fold(&mut e, true));
        assert!(matches!(e, Expr::Const(Value::DateTime(_))));
        let mut e = Expr::bin(Func::Add, Expr::Var(0), Expr::Call(Func::CurrentDatetime, vec![]));
        assert!(const_fold(&mut e, true), "a constant child folds");
        assert!(!const_fold(&mut e, true), "a variable does not");
    }

    #[test]
    fn object_constructor_drops_missing() {
        let e = Expr::Call(
            Func::ObjectConstructor,
            vec![
                Expr::Const(Value::from("a")),
                Expr::Const(Value::Int(1)),
                Expr::Const(Value::from("b")),
                Expr::Const(Value::Missing),
            ],
        );
        let v = ev(&e, &[], &[]);
        let o = v.as_object().unwrap();
        assert_eq!(o.len(), 1, "missing-valued fields are omitted");
    }

    #[test]
    fn used_vars_and_substitute() {
        let mut e = Expr::bin(Func::Add, Expr::Var(1), Expr::field(Expr::Var(2), "x"));
        let mut vars = Vec::new();
        e.used_vars(&mut vars);
        assert_eq!(vars, vec![1, 2]);
        e.substitute(&|v| (v == 1).then_some(Expr::Const(Value::Int(9))));
        let mut vars = Vec::new();
        e.used_vars(&mut vars);
        assert_eq!(vars, vec![2]);
    }
}
