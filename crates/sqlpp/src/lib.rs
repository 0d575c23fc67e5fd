//! # SQL++ and AQL — the two declarative query languages
//!
//! AsterixDB shipped two query languages over one compiler (paper §IV-A):
//! first **AQL** ("taking XQuery ... and tossing out its XML cruft"), then
//! **SQL++** ("very much like AQL, but with a SQL-based syntax that would
//! make AsterixDB users much happier"). Both share the Algebricks algebra,
//! optimizer rules, and Hyracks runtime — implemented here by lowering both
//! ASTs through one [`translate`] module (experiment E9 verifies the two
//! front-ends produce identical optimized plans).
//!
//! * [`lexer`] — shared tokenizer;
//! * [`ast`] — shared abstract syntax (query core, DDL, DML);
//! * [`parser`] — SQL++ recursive-descent parser (SELECT/FROM/LET/WHERE/
//!   GROUP BY/HAVING/ORDER/LIMIT, quantified predicates, joins, UNNEST,
//!   subqueries, object/array constructors, and the full DDL/DML of paper
//!   Figure 3);
//! * [`aql`] — AQL FLWOR parser (`for`/`let`/`where`/`group by`/`order by`/
//!   `limit`/`return`) producing the same AST;
//! * [`translate`] — lowering to `asterix-algebricks` logical plans against
//!   a catalog of named data sources.

pub mod aql;
pub mod ast;
pub mod error;
pub mod lexer;
pub mod parser;
pub mod translate;

pub use ast::{DdlStmt, DmlStmt, Query, Stmt};
pub use error::{Result, SqlppError};
pub use translate::{translate_query, CatalogView};

/// Parses a sequence of SQL++ statements.
pub fn parse_sqlpp(input: &str) -> Result<Vec<Stmt>> {
    parser::parse_statements(input)
}

/// Parses one AQL query (FLWOR or expression).
pub fn parse_aql(input: &str) -> Result<Stmt> {
    aql::parse_aql(input)
}
