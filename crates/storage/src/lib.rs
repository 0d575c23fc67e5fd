#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable))]
//! # Storage — partitioned, LSM-based native storage and indexing
//!
//! This crate implements the storage half of the AsterixDB architecture
//! (paper Figures 1–2 and Section III, items 5 and 8):
//!
//! * a page/file layer with explicit I/O accounting ([`io`], [`stats`]) and a
//!   node-level **buffer cache** with clock eviction ([`cache`]) — Figure 2's
//!   "Buffer Cache" box;
//! * immutable, bulk-loaded on-disk **B+ trees** ([`btree`]) — every LSM
//!   disk component is one — whose leaves are pages of opaque values, pages
//!   of MBRs with each leaf's MBR in its fence, or, for a dataset's primary
//!   index, columnar **leaf groups** ([`leaf_group`]);
//! * the **LSM framework**: one index type, the LSM B+ tree — its lifecycle
//!   (`harness`: the component list, pluggable merge policies, merge
//!   scheduling, publishing and retirement) and its component format and
//!   reads ([`lsm`]), with bloom filters ([`bloom`]);
//! * the **spatial index** ([`spatial`]): an LSM B+ tree over Hilbert keys
//!   whose fence index carries each leaf's MBR — a Hilbert-packed R-tree —
//!   with the paper's point-MBR storage optimization (§V-B);
//! * **LSM inverted keyword indexes** ([`inverted`]) for `TYPE KEYWORD`
//!   secondary indexes;
//! * spatial-key linearization alternatives ([`spatial_keys`]) — Hilbert,
//!   Z-order, and static grid — the comparison subjects of the §V-B study
//!   (experiment E2);
//! * **linear hashing** ([`linear_hash`]) as the §V-C baseline (experiment
//!   E3: Graefe's B-trees-versus-hashing argument);
//! * a **write-ahead log** with recovery ([`wal`]) for the record-level
//!   transaction story (Section III, item 9), whose every group commit is
//!   one block, coded by `log_block` — whole, or split into streams of like
//!   bytes — with an LZ77 parse (`lz`) whose byte streams are each
//!   Huffman-coded (`huff`);
//! * **storage compression** — §VII's "recent examples include storage
//!   compression": a primary component's string columns are FSST-coded, one
//!   symbol table per column per component ([`leaf_group`]);
//! * a deterministic, seedable **fault-injection layer** ([`faults`]) wired
//!   into the I/O and WAL paths, driving the crash-recovery test harness
//!   (see DESIGN.md, "Fault injection & recovery guarantees").
//!
//! All reads of immutable component files flow through the buffer cache, so
//! experiments can measure *physical* I/O under a configurable memory budget —
//! the metric the paper's storage arguments are phrased in.

pub mod bloom;
pub mod btree;
pub mod cache;
pub mod compaction;
pub mod error;
pub mod faults;
pub(crate) mod harness;
pub(crate) mod huff;
pub mod inverted;
pub mod io;
pub mod le;
pub mod leaf_group;
pub mod linear_hash;
pub mod lock_order;
pub(crate) mod log_block;
pub mod lsm;
pub(crate) mod lz;
pub mod spatial;
pub mod spatial_keys;
pub mod stats;
#[cfg(test)]
pub(crate) mod testutil;
pub mod wal;

pub use cache::BufferCache;
pub use compaction::{BackgroundExecutor, BackgroundJob, CompactionExec, JobStep};
pub use error::{Result, StorageError};
pub use faults::{FaultConfig, FaultEvent, FaultInjector};
pub use io::{FileId, FileManager, PAGE_SIZE};
pub use stats::IoStats;
