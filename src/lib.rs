//! # asterix-rs
//!
//! An umbrella crate re-exporting the full `asterix-rs` stack — a Rust
//! reproduction of the Apache AsterixDB Big Data Management System described in
//! *"AsterixDB Mid-Flight: A Case Study in Building Systems in Academia"*
//! (M. J. Carey, ICDE 2019).
//!
//! The stack mirrors Figure 4 of the paper:
//!
//! ```text
//!   SQL++ / AQL            (crate `asterix-sqlpp`)
//!        |
//!   Algebricks optimizer   (crate `asterix-algebricks`)
//!        |
//!   Hyracks dataflow       (crate `asterix-hyracks`)
//!        |
//!   LSM storage & indexes  (crate `asterix-storage`)
//!        |
//!   ADM data model         (crate `asterix-adm`)
//! ```
//!
//! with the BDMS glue (catalog, cluster, transactions, feeds, HTAP shadowing)
//! in crate `asterix-core`, re-exported here as [`core`].

pub use asterix_adm as adm;
pub use asterix_algebricks as algebricks;
pub use asterix_core as core;
pub use asterix_hyracks as hyracks;
pub use asterix_sqlpp as sqlpp;
pub use asterix_storage as storage;
