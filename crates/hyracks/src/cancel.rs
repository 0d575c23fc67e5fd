//! Cooperative job cancellation and deadlines.
//!
//! A [`CancellationToken`] is shared by every actor of one job. The
//! executor polls it once at the top of every morsel-bounded step — no
//! operator polls it on a stride of its own — so the first partition
//! failure, an external `QueryHandle::cancel`, or an expired deadline stops
//! all siblings within one morsel instead of letting them run to completion.
//!
//! Cancellation is first-cause-wins: whichever of {explicit cancel, deadline
//! expiry} trips the token first determines the typed error every worker
//! returns ([`HyracksError::Cancelled`] or [`HyracksError::DeadlineExceeded`]).
//! Deadlines are measured on the job's injected [`Clock`], so timeout tests
//! run deterministically on a `ManualClock`.

use crate::error::{HyracksError, Result};
use asterix_obs::Clock;
use asterix_storage::lock_order::Mutex;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

/// Token not tripped; workers keep running.
const LIVE: u8 = 0;
/// Explicitly cancelled (first failing partition, or an external caller).
const CANCELLED: u8 = 1;
/// The job deadline expired.
const DEADLINE: u8 = 2;

/// Sentinel for "no deadline set".
const NO_DEADLINE: u64 = u64::MAX;

#[expect(clippy::disallowed_types, reason = "a state machine and a deadline that only tightens, both by CAS: AcqRel to win, Acquire to read, so all workers see one first cause")]
struct Inner {
    state: std::sync::atomic::AtomicU8,
    /// Absolute deadline in the job clock's nanoseconds; [`NO_DEADLINE`]
    /// when none is set. Monotonically tightened: setting a later deadline
    /// on a token that already has an earlier one is a no-op.
    deadline_ns: std::sync::atomic::AtomicU64,
    /// Why the token was cancelled; written once under the lock by the
    /// winning canceller.
    reason: Mutex<String>,
    /// Clock the deadline is measured on (set together with the deadline).
    clock: OnceLock<Arc<dyn Clock>>,
}

/// Shared cancellation state of one running job. Cheap to clone (one `Arc`).
#[derive(Clone)]
pub struct CancellationToken {
    inner: Arc<Inner>,
}

impl Default for CancellationToken {
    fn default() -> Self {
        CancellationToken::new()
    }
}

impl CancellationToken {
    /// A live token with no deadline.
    pub fn new() -> CancellationToken {
        CancellationToken {
            inner: Arc::new(Inner {
                state: LIVE.into(),
                deadline_ns: NO_DEADLINE.into(),
                reason: Mutex::new(String::new()),
                clock: OnceLock::new(),
            }),
        }
    }

    /// Arms (or tightens) the deadline. Later-than-current deadlines are
    /// ignored so composed deadlines keep the strictest bound.
    pub fn set_deadline(&self, clock: Arc<dyn Clock>, deadline_ns: u64) {
        let _ = self.inner.clock.set(clock);
        let mut cur = self.inner.deadline_ns.load(Ordering::Acquire);
        while deadline_ns < cur {
            match self.inner.deadline_ns.compare_exchange(
                cur,
                deadline_ns,
                Ordering::AcqRel,
                Ordering::Acquire,
            ) {
                Ok(_) => break,
                Err(seen) => cur = seen,
            }
        }
    }

    /// Cancels the token with `reason`. Returns true when this call was the
    /// first cause (the token was still live).
    pub fn cancel(&self, reason: &str) -> bool {
        // Hold the reason lock across the state transition so a reader that
        // observes CANCELLED blocks here until the reason is in place.
        let mut r = self.inner.reason.lock();
        if self
            .inner
            .state
            .compare_exchange(LIVE, CANCELLED, Ordering::AcqRel, Ordering::Acquire)
            .is_ok()
        {
            *r = reason.to_string();
            true
        } else {
            false
        }
    }

    /// True once the token has tripped (cancel or deadline). Reads the
    /// clock when a deadline is armed, so it also *trips* an expired
    /// deadline as a side effect.
    pub fn is_cancelled(&self) -> bool {
        self.check().is_err()
    }

    /// Ok while the job should keep running; the typed cancellation error
    /// otherwise. This is the single polling point: the executor calls it
    /// once per step.
    pub fn check(&self) -> Result<()> {
        match self.inner.state.load(Ordering::Acquire) {
            CANCELLED => Err(HyracksError::Cancelled(self.inner.reason.lock().clone())),
            DEADLINE => Err(self.deadline_error()),
            _ => {
                let d = self.inner.deadline_ns.load(Ordering::Acquire);
                if d != NO_DEADLINE {
                    if let Some(clock) = self.inner.clock.get() {
                        if clock.now_ns() >= d {
                            // First-cause-wins: only a LIVE token trips.
                            let _ = self.inner.state.compare_exchange(
                                LIVE,
                                DEADLINE,
                                Ordering::AcqRel,
                                Ordering::Acquire,
                            );
                            return self.check();
                        }
                    }
                }
                Ok(())
            }
        }
    }

    fn deadline_error(&self) -> HyracksError {
        HyracksError::DeadlineExceeded {
            deadline_ns: self.inner.deadline_ns.load(Ordering::Acquire),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_obs::ManualClock;

    #[test]
    fn cancel_is_first_cause_wins() {
        let t = CancellationToken::new();
        assert!(t.check().is_ok());
        assert!(t.cancel("first"));
        assert!(!t.cancel("second"), "second cancel loses");
        match t.check() {
            Err(HyracksError::Cancelled(r)) => assert_eq!(r, "first"),
            other => panic!("expected Cancelled, got {other:?}"),
        }
    }

    #[test]
    fn deadline_trips_on_manual_clock() {
        let clock = ManualClock::shared(0);
        let t = CancellationToken::new();
        t.set_deadline(clock.clone(), 100);
        assert!(t.check().is_ok());
        clock.advance(99);
        assert!(t.check().is_ok());
        clock.advance(1);
        assert!(matches!(t.check(), Err(HyracksError::DeadlineExceeded { .. })));
        // deadline beat a later cancel
        assert!(!t.cancel("too late"));
        assert!(matches!(t.check(), Err(HyracksError::DeadlineExceeded { .. })));
    }

    #[test]
    fn deadlines_only_tighten() {
        let clock = ManualClock::shared(0);
        let t = CancellationToken::new();
        t.set_deadline(clock.clone(), 100);
        t.set_deadline(clock.clone(), 500); // later: ignored
        t.set_deadline(clock.clone(), 50); // earlier: adopted
        clock.advance(50);
        assert!(t.is_cancelled());
    }

    #[test]
    fn clones_share_state() {
        let t = CancellationToken::new();
        let u = t.clone();
        t.cancel("shared");
        assert!(u.is_cancelled());
    }
}
