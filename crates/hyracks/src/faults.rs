//! Deterministic fault injection for the dataflow layer — PR 1's seeded,
//! replayable storage-fault pattern lifted up to `exec`.
//!
//! Unlike the storage injector (one shared RNG behind a global op counter),
//! worker faults must not depend on thread interleaving: each worker's
//! fault plan is derived *purely* from `hash(seed, attempt, label,
//! partition)`, so the same (config, attempt) always produces the same
//! schedule no matter how the OS schedules the threads. The attempt number
//! is mixed in so a retried job draws a fresh schedule — chaos tests can
//! observe a job fail on one attempt and complete on the next.
//!
//! Fault kinds (see [`WorkerFault`]):
//! - **kill**: the worker dies with a typed [`InjectedFault`] error after
//!   shipping its Nth frame (never a panic — panic paths are a separate,
//!   test-driven concern).
//! - **sever**: the worker silently drops all output from its Nth frame on,
//!   including the end-of-stream marker, so consumers observe a dirty
//!   disconnect ([`UpstreamFailure`]) instead of a truncated-but-"clean"
//!   result.
//! - **delay**: every kth frame sleeps briefly before shipping, shaking out
//!   ordering assumptions.
//! - **fail-first-attempt**: every worker of attempt 1 fails at startup with
//!   a transient error; attempt 2 runs clean — the deterministic fixture
//!   for retry-policy tests.
//!
//! [`InjectedFault`]: crate::error::HyracksError::InjectedFault
//! [`UpstreamFailure`]: crate::error::HyracksError::UpstreamFailure

use crate::error::{HyracksError, Result};
use asterix_storage::lock_order::Mutex;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Chaos-schedule configuration. Percentages are per *worker* (operator
/// partition), rolled independently from the seed; they may sum to less
/// than 100, the remainder being fault-free workers.
#[derive(Debug, Clone)]
pub struct FaultConfig {
    /// Seed every schedule derives from.
    pub seed: u64,
    /// Percent chance (0-100) a worker is killed after its Nth shipped frame.
    pub kill_pct: u8,
    /// Percent chance a worker's output is severed from its Nth frame on.
    pub sever_pct: u8,
    /// Percent chance a worker delays every kth frame it ships.
    pub delay_pct: u8,
    /// Fail every worker of the job's first attempt with a transient error.
    pub fail_first_attempt: bool,
    /// Upper bound (inclusive, >= 1) on the frame ordinal kill/sever points
    /// are drawn from.
    pub max_frame: u64,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig {
            seed: 0,
            kill_pct: 0,
            sever_pct: 0,
            delay_pct: 0,
            fail_first_attempt: false,
            max_frame: 4,
        }
    }
}

/// One worker's deterministic fault plan for the current attempt.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Run clean.
    None,
    /// Die with a typed `InjectedFault` error when shipping frame number `n`
    /// (1-based).
    KillAtFrame(u64),
    /// Drop frame `n` and everything after it, including end-of-stream.
    SeverAtFrame(u64),
    /// Sleep ~1ms before shipping every `every`th frame.
    DelayEvery(u64),
    /// Fail at worker startup (first-attempt transient failure).
    FailAtStart,
}

/// A fault that actually fired, for replay verification.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultEvent {
    /// Worker label (`"{op}#{partition}"`).
    pub worker: String,
    /// Which attempt of the job it fired on (1-based).
    pub attempt: u64,
    /// What fired (`"kill"`, `"sever"`, `"delay"`, `"fail-first-attempt"`).
    pub what: &'static str,
    /// Frame ordinal at the firing point (0 for start-time faults).
    pub frame: u64,
}

/// Shared injector carried by `RuntimeCtx`; one per context, covering every
/// job attempt run on it.
#[expect(clippy::disallowed_types, reason = "SeqCst: every worker of an attempt derives its schedule from the number the executor's bump wrote")]
#[derive(Debug)]
pub struct DataflowFaults {
    config: FaultConfig,
    /// Attempt counter, bumped by the executor at the start of each job.
    attempt: std::sync::atomic::AtomicU64,
    events: Mutex<Vec<FaultEvent>>,
}

/// FNV-1a over bytes — a stable, seedable hash (std's default hasher is
/// randomly keyed per process, which would break cross-run replay).
fn fnv1a(mut h: u64, bytes: &[u8]) -> u64 {
    for b in bytes {
        h ^= *b as u64;
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64 finalizer: spreads the FNV state over the whole u64 range.
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

impl DataflowFaults {
    pub fn new(config: FaultConfig) -> Arc<DataflowFaults> {
        Arc::new(DataflowFaults {
            config,
            attempt: Default::default(),
            events: Mutex::new(Vec::new()),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &FaultConfig {
        &self.config
    }

    /// Called by the executor when a job (attempt) starts; returns the
    /// 1-based attempt number the new schedule derives from.
    pub fn begin_attempt(&self) -> u64 {
        self.attempt.fetch_add(1, Ordering::SeqCst) + 1
    }

    /// The current 1-based attempt number (0 before any job ran).
    pub fn attempt(&self) -> u64 {
        self.attempt.load(Ordering::SeqCst)
    }

    /// Derives the fault plan for one worker of the current attempt. Pure:
    /// same (seed, attempt, label, partition) always yields the same plan.
    pub fn worker_plan(&self, label: &str, partition: usize) -> WorkerFault {
        let attempt = self.attempt();
        if self.config.fail_first_attempt && attempt <= 1 {
            return WorkerFault::FailAtStart;
        }
        let h = mix(fnv1a(
            self.config.seed ^ attempt.rotate_left(32),
            label.as_bytes(),
        ) ^ (partition as u64).wrapping_mul(0xa076_1d64_78bd_642f));
        let roll = (h % 100) as u8;
        let frame = 1 + (h >> 8) % self.config.max_frame.max(1);
        let kill = self.config.kill_pct;
        let sever = kill.saturating_add(self.config.sever_pct);
        let delay = sever.saturating_add(self.config.delay_pct);
        if roll < kill {
            WorkerFault::KillAtFrame(frame)
        } else if roll < sever {
            WorkerFault::SeverAtFrame(frame)
        } else if roll < delay {
            WorkerFault::DelayEvery(1 + (h >> 16) % 4)
        } else {
            WorkerFault::None
        }
    }

    /// Records a fired fault (called from worker threads).
    fn record(&self, worker: &str, what: &'static str, frame: u64) {
        self.events.lock().push(FaultEvent {
            worker: worker.to_string(),
            attempt: self.attempt(),
            what,
            frame,
        });
    }

    /// Every fault that fired so far, across all attempts.
    pub fn events(&self) -> Vec<FaultEvent> {
        self.events.lock().clone()
    }
}

/// Per-worker fault state threaded into the worker's output router: owns
/// the plan plus the shipped-frame counter the plan triggers on.
pub(crate) struct WorkerFaultState {
    plan: WorkerFault,
    frames: u64,
    /// Whether the first firing was already recorded (delay fires
    /// repeatedly; one event per worker keeps the log readable).
    recorded: bool,
    injector: Arc<DataflowFaults>,
    label: String,
}

/// What the router should do with the frame it is about to ship.
pub(crate) enum FrameAction {
    Deliver,
    /// Swallow this frame and everything after it (sever).
    DropRest,
}

impl WorkerFaultState {
    pub(crate) fn new(injector: Arc<DataflowFaults>, label: String, partition: usize) -> Self {
        let plan = injector.worker_plan(&label, partition);
        WorkerFaultState { plan, frames: 0, recorded: false, injector, label }
    }

    /// Start-of-worker hook: fails the whole worker for `FailAtStart` plans.
    pub(crate) fn at_start(&mut self) -> Result<()> {
        if self.plan == WorkerFault::FailAtStart {
            self.injector.record(&self.label, "fail-first-attempt", 0);
            return Err(HyracksError::InjectedFault(format!(
                "worker {} failed on attempt {} (fail-first-attempt schedule)",
                self.label,
                self.injector.attempt(),
            )));
        }
        Ok(())
    }

    /// Per-shipped-frame hook. `Err` kills the worker with a typed fault;
    /// `DropRest` tells the router to sever its output.
    pub(crate) fn on_frame(&mut self) -> Result<FrameAction> {
        self.frames += 1;
        match self.plan {
            WorkerFault::KillAtFrame(n) if self.frames >= n => {
                self.injector.record(&self.label, "kill", self.frames);
                Err(HyracksError::InjectedFault(format!(
                    "worker {} killed at frame {} (seed {})",
                    self.label, self.frames, self.injector.config.seed,
                )))
            }
            WorkerFault::SeverAtFrame(n) if self.frames >= n => {
                if !self.recorded {
                    self.recorded = true;
                    self.injector.record(&self.label, "sever", self.frames);
                }
                Ok(FrameAction::DropRest)
            }
            WorkerFault::DelayEvery(k) if self.frames.is_multiple_of(k.max(1)) => {
                if !self.recorded {
                    self.recorded = true;
                    self.injector.record(&self.label, "delay", self.frames);
                }
                #[expect(clippy::disallowed_methods, reason = "injected latency stands for a slow operator, which a worker runs by design")]
                std::thread::sleep(std::time::Duration::from_millis(1));
                Ok(FrameAction::Deliver)
            }
            _ => Ok(FrameAction::Deliver),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_are_deterministic_per_attempt() {
        let cfg = FaultConfig { seed: 42, kill_pct: 30, sever_pct: 30, delay_pct: 20, ..FaultConfig::default() };
        let a = DataflowFaults::new(cfg.clone());
        let b = DataflowFaults::new(cfg);
        a.begin_attempt();
        b.begin_attempt();
        for p in 0..8 {
            assert_eq!(a.worker_plan("scan", p), b.worker_plan("scan", p));
            assert_eq!(a.worker_plan("join", p), b.worker_plan("join", p));
        }
    }

    #[test]
    fn attempts_draw_fresh_schedules() {
        let f = DataflowFaults::new(FaultConfig {
            seed: 7,
            kill_pct: 50,
            sever_pct: 50,
            ..FaultConfig::default()
        });
        f.begin_attempt();
        let first: Vec<WorkerFault> = (0..16).map(|p| f.worker_plan("op", p)).collect();
        f.begin_attempt();
        let second: Vec<WorkerFault> = (0..16).map(|p| f.worker_plan("op", p)).collect();
        assert_ne!(first, second, "attempt number is mixed into the schedule");
    }

    #[test]
    fn fail_first_attempt_clears_on_second() {
        let f = DataflowFaults::new(FaultConfig {
            fail_first_attempt: true,
            ..FaultConfig::default()
        });
        f.begin_attempt();
        assert_eq!(f.worker_plan("scan", 0), WorkerFault::FailAtStart);
        f.begin_attempt();
        assert_eq!(f.worker_plan("scan", 0), WorkerFault::None);
    }

    #[test]
    fn kill_state_fires_at_frame_and_records() {
        let f = DataflowFaults::new(FaultConfig::default());
        f.begin_attempt();
        let mut st = WorkerFaultState {
            plan: WorkerFault::KillAtFrame(3),
            frames: 0,
            recorded: false,
            injector: Arc::clone(&f),
            label: "op#0".into(),
        };
        assert!(matches!(st.on_frame(), Ok(FrameAction::Deliver)));
        assert!(matches!(st.on_frame(), Ok(FrameAction::Deliver)));
        let err = st.on_frame().map(|_| ()).unwrap_err();
        assert!(matches!(err, HyracksError::InjectedFault(_)));
        let ev = f.events();
        assert_eq!(ev.len(), 1);
        assert_eq!(ev[0].what, "kill");
        assert_eq!(ev[0].frame, 3);
    }
}
