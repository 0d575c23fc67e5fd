#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable))]
//! # Hyracks — the partitioned-parallel dataflow runtime
//!
//! A Rust reproduction of the Hyracks data-parallel platform (paper Section
//! III, feature 4; Borkar et al., ICDE 2011): "an efficient dataflow
//! execution engine for partitioned-parallel execution of query plans".
//!
//! A query plan compiles into a [`job::JobSpec`] — a DAG of operator
//! descriptors, each instantiated as N partition-parallel workers, wired by
//! *connectors* (one-to-one, hash-partition, broadcast, sorted-merge). The
//! [`exec`] module runs a job by scheduling each operator-partition as a
//! cooperative actor on a fixed work-stealing worker pool ([`sched`]),
//! streaming frames (column batches of tuples) through bounded edge queues
//! — the same push-based frame dataflow as Hyracks, but the degree of
//! parallelism is a scheduling decision: `partitions = N` does **not**
//! spawn N threads, it creates N schedulable morsel sources.
//!
//! The paper's fundamental assumption — "the portion of data stored on a
//! given node can well exceed the size of its main memory, and likewise for
//! intermediate query results" (ref \[10\]) — is honored by the memory-bounded
//! operators: [`ops::sort`] (external run-merge sort), [`ops::join`] (hybrid
//! hash join with grace partitioning), and [`ops::groupby`] (hash aggregation
//! with partition spilling) all degrade gracefully to disk under a
//! configurable working-memory budget (experiment E5).

pub mod cancel;
pub mod ctx;
pub mod error;
pub mod exec;
pub mod faults;
pub mod frame;
pub mod job;
pub mod ops;
pub mod sched;

pub use cancel::CancellationToken;
pub use ctx::RuntimeCtx;
pub use error::{HyracksError, Result};
pub use exec::JobOptions;
pub use sched::{storage_compaction_executor, WorkerPool, MORSEL_TUPLES};
pub use faults::{DataflowFaults, FaultConfig};
pub use frame::{u32_len, Tuple};
pub use job::{ConnStrategy, JobSpec, OpId, OpKind};
