//! Error type for the Hyracks runtime.

use std::fmt;

/// Result alias used throughout `asterix-hyracks`.
pub type Result<T> = std::result::Result<T, HyracksError>;

/// Errors raised by job construction or execution.
#[derive(Debug)]
pub enum HyracksError {
    /// Malformed job specification (bad ports, partition mismatch, cycles).
    InvalidJob(String),
    /// Runtime expression/operator evaluation error.
    Eval(String),
    /// Storage error (spills, scans).
    Storage(asterix_storage::StorageError),
    /// Data-model error.
    Adm(asterix_adm::AdmError),
    /// A worker thread panicked.
    WorkerPanic(String),
    /// The job was cancelled (first failing partition or external caller);
    /// the payload is the cancellation reason.
    Cancelled(String),
    /// The job ran past its deadline (absolute nanoseconds on the job's
    /// injected clock).
    DeadlineExceeded { deadline_ns: u64 },
    /// An upstream producer disconnected without sending its end-of-stream
    /// marker — its partition died mid-stream, so the tuples received so
    /// far may be a silent truncation of the real result.
    UpstreamFailure(String),
    /// A deterministic chaos-schedule fault fired (see `crate::faults`).
    /// Transient by construction: a retry re-derives the schedule for the
    /// next attempt.
    InjectedFault(String),
    /// The node owning a scanned partition is down (simulated fail-stop).
    /// Raised by data sources above the storage layer; transient — a retry
    /// after node restart can succeed.
    NodeDown(usize),
    /// A length did not fit the `u32` framing fields of spill runs (see
    /// [`crate::frame::u32_len`]).
    SizeOverflow {
        /// What was being measured (`"tuple size"`, `"spill-run frame"`, …).
        what: &'static str,
        len: usize,
    },
    /// Filesystem error on spill files.
    Io(std::io::Error),
}

impl fmt::Display for HyracksError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            HyracksError::InvalidJob(m) => write!(f, "invalid job: {m}"),
            HyracksError::Eval(m) => write!(f, "evaluation error: {m}"),
            HyracksError::Storage(e) => write!(f, "storage error in dataflow: {e}"),
            HyracksError::Adm(e) => write!(f, "data-model error in dataflow: {e}"),
            HyracksError::WorkerPanic(m) => write!(f, "worker panicked: {m}"),
            HyracksError::Cancelled(m) => write!(f, "job cancelled: {m}"),
            HyracksError::DeadlineExceeded { deadline_ns } => {
                write!(f, "job deadline exceeded (deadline at {deadline_ns}ns on the job clock)")
            }
            HyracksError::UpstreamFailure(m) => write!(f, "upstream partition failed: {m}"),
            HyracksError::InjectedFault(m) => write!(f, "injected fault: {m}"),
            HyracksError::NodeDown(id) => write!(f, "node {id} is down"),
            HyracksError::SizeOverflow { what, len } => {
                write!(f, "size overflow: {what} of {len} does not fit a u32 framing field")
            }
            HyracksError::Io(e) => write!(f, "spill I/O error: {e}"),
        }
    }
}

impl std::error::Error for HyracksError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            HyracksError::Storage(e) => Some(e),
            HyracksError::Adm(e) => Some(e),
            HyracksError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<asterix_storage::StorageError> for HyracksError {
    fn from(e: asterix_storage::StorageError) -> Self {
        HyracksError::Storage(e)
    }
}

impl From<asterix_adm::AdmError> for HyracksError {
    fn from(e: asterix_adm::AdmError) -> Self {
        HyracksError::Adm(e)
    }
}

impl From<std::io::Error> for HyracksError {
    fn from(e: std::io::Error) -> Self {
        HyracksError::Io(e)
    }
}
