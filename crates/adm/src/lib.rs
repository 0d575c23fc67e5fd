//! # ADM — the Asterix Data Model
//!
//! ADM is AsterixDB's NoSQL-style data model: JSON extended with object-database
//! concepts (ICDE 2019 paper, Section III, feature 1). Beyond plain JSON it adds:
//!
//! * additional primitive types — 64-bit integers distinct from doubles,
//!   `datetime` / `date` / `time` / `duration` temporal types, `point` /
//!   `rectangle` spatial types, `uuid` and `binary`;
//! * *multisets* (unordered, duplicate-preserving collections, written
//!   `{{ ... }}`) in addition to ordered arrays;
//! * an **open type system**: object types declare whatever schema is known a
//!   priori, instances may carry additional self-describing fields unless the
//!   type is marked `CLOSED` (paper Figure 3).
//!
//! This crate provides the value representation ([`Value`]), the type system
//! ([`types`]), text parsing and printing of the extended-JSON syntax
//! ([`parse`], [`mod@print`]), a compact binary serialization ([`binary`]),
//! the one encoding of a stored record ([`layout`]) and the string coding a
//! column of them is stored in ([`fsst`]), total
//! ordering and hashing consistent across numeric types ([`compare`]), and
//! schema validation/casting ([`validate`]).
//!
//! Everything above the storage layer (Hyracks operators, Algebricks
//! expressions, SQL++/AQL evaluation) computes over [`Value`]s.

pub mod batch;
pub mod binary;
pub mod compare;
pub mod error;
pub mod fsst;
pub mod layout;
pub mod parse;
pub mod print;
pub mod spatial;
pub mod temporal;
pub mod types;
pub mod validate;
pub mod value;

pub use batch::{BatchBuilder, Column, ColumnBatch, BATCH_ROWS};
pub use error::{AdmError, Result};
pub use layout::{Cells, Projection, RecordLayout};
pub use spatial::{Point, Rectangle};
pub use temporal::Duration;
pub use value::{Object, Value, MAX_DEPTH};
