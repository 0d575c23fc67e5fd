//! Injectable monotonic time.
//!
//! Everything that measures elapsed time takes an `Arc<dyn Clock>` instead
//! of calling `Instant::now()` directly, so the deterministic test harness
//! can substitute a [`ManualClock`] and get bit-identical profiles across
//! runs.

use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::Instant;

/// A monotonic nanosecond clock. Implementations must be cheap enough to
/// call a few times per frame (not per tuple) on the query hot path.
pub trait Clock: Send + Sync {
    /// Nanoseconds since an arbitrary (per-clock) origin. Must never go
    /// backwards.
    fn now_ns(&self) -> u64;
}

/// Wall-clock implementation backed by [`Instant`].
pub struct MonotonicClock {
    origin: Instant,
}

impl MonotonicClock {
    pub fn new() -> MonotonicClock {
        MonotonicClock { origin: Instant::now() }
    }

    /// Shared handle, ready to hand to a `RuntimeCtx`.
    pub fn shared() -> Arc<MonotonicClock> {
        Arc::new(MonotonicClock::new())
    }
}

impl Default for MonotonicClock {
    fn default() -> Self {
        MonotonicClock::new()
    }
}

impl Clock for MonotonicClock {
    fn now_ns(&self) -> u64 {
        // A u64 of nanoseconds overflows after ~584 years of process
        // uptime; the low-order truncation of the u128 is deliberate.
        self.origin.elapsed().as_nanos() as u64
    }
}

/// Deterministic clock for tests: every read advances time by a fixed
/// `step`, so timings are reproducible and strictly monotonic regardless
/// of scheduling. `advance` models explicit passage of time.
#[expect(clippy::disallowed_types, reason = "a test clock whose one atomic is its whole state; Relaxed: a reading publishes nothing")]
pub struct ManualClock {
    now: std::sync::atomic::AtomicU64,
    step: u64,
}

impl ManualClock {
    /// A clock frozen at zero (reads do not advance it).
    pub fn new() -> ManualClock {
        ManualClock::with_step(0)
    }

    /// A clock that advances by `step_ns` on every read.
    pub fn with_step(step_ns: u64) -> ManualClock {
        ManualClock { now: Default::default(), step: step_ns }
    }

    /// Shared handle with a per-read step.
    pub fn shared(step_ns: u64) -> Arc<ManualClock> {
        Arc::new(ManualClock::with_step(step_ns))
    }

    /// Moves the clock forward by `ns`.
    pub fn advance(&self, ns: u64) {
        self.now.fetch_add(ns, Ordering::Relaxed);
    }
}

impl Default for ManualClock {
    fn default() -> Self {
        ManualClock::new()
    }
}

impl Clock for ManualClock {
    fn now_ns(&self) -> u64 {
        if self.step == 0 {
            self.now.load(Ordering::Relaxed)
        } else {
            // fetch_add returns the pre-increment value; report the
            // post-increment one so consecutive reads are strictly
            // increasing.
            self.now.fetch_add(self.step, Ordering::Relaxed) + self.step
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn monotonic_clock_never_goes_backwards() {
        let c = MonotonicClock::new();
        let a = c.now_ns();
        let b = c.now_ns();
        assert!(b >= a);
    }

    #[test]
    fn manual_clock_is_deterministic() {
        let c = ManualClock::with_step(10);
        assert_eq!(c.now_ns(), 10);
        assert_eq!(c.now_ns(), 20);
        c.advance(100);
        assert_eq!(c.now_ns(), 130);
    }

    #[test]
    fn frozen_manual_clock_only_moves_on_advance() {
        let c = ManualClock::new();
        assert_eq!(c.now_ns(), 0);
        assert_eq!(c.now_ns(), 0);
        c.advance(7);
        assert_eq!(c.now_ns(), 7);
    }
}
