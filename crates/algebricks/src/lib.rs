#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable))]
//! # Algebricks — the data-model-agnostic algebraic query compiler
//!
//! A Rust reproduction of AsterixDB's Algebricks layer (paper Section III,
//! feature 3, and Figure 5; Borkar et al., SoCC 2015): a logical algebra, a
//! **rule-based, data-partition-aware optimizer**, and a backend that
//! generates Hyracks jobs.
//!
//! Both query-language front-ends (SQL++ and AQL, crate `asterix-sqlpp`)
//! lower into this one algebra — the paper's point that "we were able to
//! implement SQL++ fairly quickly as a peer of AQL, sharing the Algebricks
//! query algebra and many optimizer rules as well as the associated Hyracks
//! runtime operators and connectors" (§IV-A, experiment E9).
//!
//! * [`expr`] — scalar expression tree, function library, SQL++ NULL/MISSING
//!   semantics, constant folding;
//! * [`plan`] — logical operators, variables, schemas, stable plan printing;
//! * [`source`] — the data-source abstraction the algebra compiles against
//!   (implemented by `asterix-core` datasets, external files, generators);
//! * [`rules`] — the rewrite rules (selection pushdown, dead-code
//!   elimination, index-access-path introduction, join method selection, ...);
//! * [`jobgen`] — physical plan generation: exchanges (hash partition,
//!   broadcast, sorted merge), local/global aggregation splitting, and
//!   Hyracks job emission.

pub mod error;
pub mod expr;
pub mod jobgen;
pub mod plan;
pub mod rules;
pub mod source;

pub use error::{AlgebricksError, Result};
pub use expr::{Expr, Func};
pub use plan::{AggFunc, LogicalOp, Plan, VarGen, VarId};
pub use source::{AccessPath, DataSource, IndexInfo, IndexKind, IndexRange, KeyRange};
