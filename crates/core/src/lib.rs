#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable))]
//! # asterix-core — the Big Data Management System
//!
//! The glue that turns the layered stack (paper Figure 4) into the system of
//! Figure 1: a shared-nothing cluster of storage nodes coordinated by a
//! cluster controller, with a metadata catalog, SQL++/AQL query service,
//! record-level transactions, external datasets, data feeds, and the
//! HTAP shadowing pipeline of Figure 7.
//!
//! * [`catalog`] — dataverse metadata: types, datasets, indexes;
//! * [`node`] — one storage node: I/O device, buffer cache, WAL;
//! * [`dataset`] — a dataset partition: primary LSM B+ tree plus secondary
//!   indexes (LSM B+ tree / LSM R-tree / inverted keyword), with index
//!   maintenance on every upsert/delete;
//! * [`sources`] — `DataSource` implementations bridging datasets (and
//!   their index access paths, including the §V-B sorted-PK fetch) into the
//!   Algebricks compiler;
//! * [`external`] — `localfs` external datasets (delimited text / ADM),
//!   Figure 3(b);
//! * [`txn`] — record-level transactions: PK locks, WAL, commit/abort,
//!   crash recovery by committed-log replay;
//! * [`instance`] — the embeddable system facade: DDL/DML/query execution
//!   in either language;
//! * [`dcp`] — the front-end KV store of Figure 7 (Couchbase-Analytics-style
//!   shadowing), whose mutation stream a DCP feed pulls into analytics
//!   datasets;
//! * [`feeds`] — continuous batched ingestion of data-in-motion, pushed or
//!   pulled from a front-end store;
//! * [`pubsub`] — BAD-style channels ("Big Active Data", §IV): repetitive
//!   channel queries pushing results to subscribers;
//! * [`scheduler`] — concurrent query serving: budget-based admission
//!   control, the bounded FIFO queue with typed backpressure, and
//!   session-scoped query handles;
//! * [`interchange`] — CSV/JSON import & export (§V-D round-tripping);
//! * [`datagen`] — deterministic Gleambook/spatial/log data generators.

pub mod catalog;
pub mod datagen;
pub mod dataset;
pub mod dcp;
pub mod error;
pub mod external;
pub mod feeds;
pub mod instance;
pub mod interchange;
pub mod node;
pub mod pubsub;
pub mod scheduler;
pub mod sources;
pub mod txn;

pub use error::{CoreError, Result};
pub use feeds::{Feed, FeedConfig, IngestionPolicy};
pub use instance::{Instance, InstanceConfig, Language, RetryPolicy};
pub use asterix_algebricks::rules::Rule;
pub use scheduler::{
    PoolSnapshot, QueryHandle, QueryOptions, QueryScheduler, SchedulerConfig, Session,
};
