//! Unified observability layer (see DESIGN.md "Observability").
//!
//! Three pieces, all dependency-free:
//!
//! * [`registry`] — a [`MetricsRegistry`] of named counters and gauges.
//!   Whatever bumps a metric holds its handle, taken from the registry where
//!   that code is built; every reader takes a [`MetricsSnapshot`], and a
//!   phase is the `delta` of two of them. Beside them, the typed atomics
//!   every crate uses in place of `std::sync::atomic`'s: [`IdGen`],
//!   [`Flag`] and [`HighWater`].
//! * [`clock`] — time as an injected dependency. Production code uses
//!   [`MonotonicClock`]; tests and the fault harness use [`ManualClock`]
//!   for deterministic timings.
//! * [`profile`] — per-query profile trees: one node per operator, each
//!   annotated with per-partition [`OpMetrics`] (tuples/frames/bytes
//!   in+out, queue-wait vs. compute time, spill activity, per-destination
//!   exchange routing), rendered as `EXPLAIN PROFILE`-style text or JSON.
//!
//! The [`json`] module is a minimal JSON document builder used by the
//! snapshot and profile renderers (no serde in this workspace).

#![cfg_attr(not(test), deny(clippy::unwrap_used, clippy::expect_used, clippy::panic, clippy::unreachable))]

pub mod clock;
pub mod json;
pub mod profile;
pub mod registry;

pub use clock::{Clock, ManualClock, MonotonicClock};
pub use json::Json;
pub use profile::{JobProfile, OpMetrics, OperatorProfile};
pub use registry::{Counter, Flag, Gauge, HighWater, IdGen, MetricValue, MetricsRegistry, MetricsSnapshot};
