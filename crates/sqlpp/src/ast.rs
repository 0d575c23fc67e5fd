//! Abstract syntax shared by the SQL++ and AQL parsers.
//!
//! AQL's FLWOR (`for`/`let`/`where`/`group by`/`order by`/`return`) maps onto
//! the same query core as SQL++'s SELECT block — which is precisely why the
//! paper could add SQL++ "fairly quickly as a peer of AQL" (§IV-A): only the
//! concrete syntax differs.
//!
//! The vocabulary below the syntax is the compiler's and the runtime's own:
//! a field declaration is ADM's [`Field`], an index kind the optimizer's
//! [`IndexKind`], an operator the function library's [`Func`] and a join
//! kind the runtime's [`JoinKind`].

use asterix_adm::types::Field;
use asterix_adm::Value;
use asterix_algebricks::expr::Func;
use asterix_algebricks::plan::JoinKind;
use asterix_algebricks::source::IndexKind;

/// A parsed statement.
#[derive(Debug, Clone, PartialEq)]
#[allow(clippy::large_enum_variant)] // statements are parsed once, not stored in bulk
pub enum Stmt {
    Query(Query),
    Ddl(DdlStmt),
    Dml(DmlStmt),
}

/// Data-definition statements (paper Figure 3(a)/(b)).
#[derive(Debug, Clone, PartialEq)]
pub enum DdlStmt {
    /// `CREATE TYPE name AS [CLOSED] { field: type, ... }`
    CreateType { name: String, is_closed: bool, fields: Vec<Field> },
    /// `CREATE DATASET name(TypeName) PRIMARY KEY field`
    CreateDataset { name: String, type_name: String, primary_key: Vec<String> },
    /// `CREATE EXTERNAL DATASET name(TypeName) USING localfs ((...params...))`
    CreateExternalDataset {
        name: String,
        type_name: String,
        adapter: String,
        properties: Vec<(String, String)>,
    },
    /// `CREATE INDEX name ON dataset (field) [TYPE BTREE|RTREE|KEYWORD]`
    CreateIndex {
        name: String,
        dataset: String,
        field: Vec<String>,
        kind: IndexKind,
    },
    /// `DROP DATASET name` / `DROP TYPE name` / `DROP INDEX ds.name`
    DropDataset { name: String },
    DropType { name: String },
    DropIndex { dataset: String, name: String },
}

/// Data-manipulation statements (paper Figure 3(d)).
#[derive(Debug, Clone, PartialEq)]
pub enum DmlStmt {
    /// `INSERT INTO ds (expr)` / `UPSERT INTO ds (expr)`
    InsertUpsert { dataset: String, is_upsert: bool, value: Expr },
    /// `DELETE FROM ds [AS v] WHERE cond`
    Delete { dataset: String, var: Option<String>, condition: Option<Expr> },
    /// `LOAD DATASET ds USING localfs ((...))`
    Load { dataset: String, adapter: String, properties: Vec<(String, String)> },
}

/// Expressions.
#[derive(Debug, Clone, PartialEq)]
pub enum Expr {
    /// Literal value (numbers, strings, typed constructors already folded).
    Literal(Value),
    /// Unqualified name — resolved against the scope, then the catalog.
    Ident(String),
    /// `base.field`
    Field(Box<Expr>, String),
    /// `base[index]`
    Index(Box<Expr>, Box<Expr>),
    /// A one-argument operator: `-e`, `NOT e`, `e IS NULL` (`IS NOT NULL`
    /// is `Not` over `IsNull`).
    Unary(Func, Box<Expr>),
    /// A two-argument operator: arithmetic, comparison, `AND`, `OR`, `||`,
    /// `LIKE`.
    Binary(Func, Box<Expr>, Box<Expr>),
    /// Function call by name.
    Call(String, Vec<Expr>),
    /// `CASE WHEN c THEN t ... ELSE e END`
    Case(Vec<(Expr, Expr)>, Option<Box<Expr>>),
    /// `{ "a": e1, ... }`
    ObjectCtor(Vec<(Expr, Expr)>),
    /// `[ e1, e2 ]`
    ArrayCtor(Vec<Expr>),
    /// `{{ e1, e2 }}`
    MultisetCtor(Vec<Expr>),
    /// `e BETWEEN a AND b`
    Between { value: Box<Expr>, lo: Box<Expr>, hi: Box<Expr>, negated: bool },
    /// `e IN collection`
    In { value: Box<Expr>, collection: Box<Expr>, negated: bool },
    /// `EXISTS (subquery)` or `EXISTS collection-expr`
    Exists(Box<Expr>),
    /// `SOME|EVERY v IN coll SATISFIES pred`
    Quantified { some: bool, var: String, collection: Box<Expr>, satisfies: Box<Expr> },
    /// Parenthesized subquery used as an expression / from-source.
    Subquery(Box<Query>),
}

/// SELECT clause forms.
#[derive(Debug, Clone, PartialEq)]
pub enum SelectClause {
    /// `SELECT VALUE expr` (SQL++) / `return expr` (AQL).
    Element(Expr),
    /// `SELECT e1 AS a, e2 AS b, ...` — builds an object per row.
    Fields(Vec<(Expr, Option<String>)>),
    /// `SELECT *` — the whole binding tuple as an object.
    Star,
}

/// One FROM binding.
#[derive(Debug, Clone, PartialEq)]
pub struct FromTerm {
    pub expr: Expr,
    pub alias: String,
    /// Join steps applied to this term.
    pub joins: Vec<JoinStep>,
}

/// A join/unnest step after a from term.
#[derive(Debug, Clone, PartialEq)]
pub enum JoinStep {
    Join { kind: JoinKind, expr: Expr, alias: String, on: Expr },
    Unnest { expr: Expr, alias: String, outer: bool },
}

/// GROUP BY clause.
#[derive(Debug, Clone, PartialEq)]
pub struct GroupByClause {
    /// `(key_expr, alias)` pairs.
    pub keys: Vec<(Expr, Option<String>)>,
    /// `GROUP AS g` (SQL++) / `with $g` (AQL): the group variable.
    pub group_as: Option<String>,
}

/// The query core shared by both languages.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Query {
    /// `WITH name AS expr` bindings (evaluated once, before FROM).
    pub with: Vec<(String, Expr)>,
    pub from: Vec<FromTerm>,
    /// `LET name = expr` bindings (per input row).
    pub lets: Vec<(String, Expr)>,
    pub where_clause: Option<Expr>,
    pub group_by: Option<GroupByClause>,
    pub having: Option<Expr>,
    pub select: Option<SelectClause>,
    pub order_by: Vec<(Expr, bool)>,
    pub limit: Option<u64>,
    pub offset: Option<u64>,
    pub distinct: bool,
    /// `UNION ALL` continuation blocks (bag union of the blocks' elements).
    /// ORDER BY / LIMIT inside a union arm apply to that arm only.
    pub union_with: Vec<Query>,
}

impl Query {
    /// A bare `SELECT VALUE e` query with no FROM.
    pub fn of_expr(e: Expr) -> Query {
        Query { select: Some(SelectClause::Element(e)), ..Query::default() }
    }
}
