//! Morsel-driven work-stealing worker pool.
//!
//! Execution is organised around **tasks** (one per operator partition)
//! scheduled onto a **fixed pool of workers** (default
//! `available_parallelism()`), making degree-of-parallelism a scheduling
//! decision instead of a thread count. Each scheduling quantum — a *morsel* —
//! runs one bounded `step()` of a task: roughly one tuple batch
//! ([`MORSEL_TUPLES`]) through the operator body. Tasks cooperate: a step
//! never blocks on another task; it returns [`Step::Idle`] and is re-woken by
//! a [`notify`] when its inputs (or output room) change.
//!
//! Queueing discipline:
//! - every worker owns a deque; a worker pops from the **back** of its own
//!   deque (LIFO — the task whose data is hottest in cache runs next),
//! - idle workers **steal from the front** of a victim's deque (FIFO — the
//!   oldest, coldest task migrates, keeping the victim's hot tail local),
//! - a task that yields with more work immediately available
//!   ([`Step::Again`]) goes to the *front* of its worker's deque so a
//!   same-worker notify-enqueue (pushed to the back) still runs first —
//!   with one worker, an endless source and its sink alternate instead of
//!   the source monopolising the deque,
//! - tasks enqueued from outside the pool land in a shared injector queue.
//!
//! Task lifecycle is a small atomic state machine (`IDLE → QUEUED → RUNNING
//! {→ RUNNING_DIRTY} → …`). [`notify`] on a RUNNING task marks it dirty so
//! the wakeup is never lost; a dirty task is re-enqueued when its step
//! returns. A task is in at most one queue at a time by construction (only
//! the `IDLE → QUEUED` edge enqueues).
//!
//! Observability: `hyracks.sched.{steals,local_hits,morsels,park_ns,enqueued}`
//! in the instance [`MetricsRegistry`]. `enqueued == morsels` at quiescence —
//! every scheduled morsel is run exactly once (drains on cancel are
//! themselves steps), which the leak proptest asserts.

use crate::cancel::CancellationToken;
use crate::ctx::RuntimeCtx;
use asterix_obs::{Counter, MetricsRegistry};
use asterix_storage::lock_order::{self, Condvar, Mutex};
use asterix_storage::{BackgroundExecutor, BackgroundJob, CompactionExec, JobStep};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicBool, AtomicU8, AtomicUsize, Ordering};
use std::sync::{Arc, Weak};
use std::time::{Duration, Instant};

/// Tuples processed per scheduling step: the morsel size. Cancellation
/// latency is bounded by one morsel, not one frame stream.
pub const MORSEL_TUPLES: usize = 1024;

/// How long a worker with an empty queue parks before re-scanning.
/// A safety net only — enqueues notify parked workers directly.
const PARK_TIMEOUT: Duration = Duration::from_millis(10);

/// Every Nth pop a worker takes the *oldest* runnable work (shared injector,
/// then the front of its own deque) instead of its LIFO hot tail. Pure LIFO
/// starves: an always-runnable producer/consumer pair keeps notifying each
/// other onto the back of the deque and the tasks parked at the front — or a
/// whole job sitting in the injector — never run. The fairness pop bounds
/// that: any queued task waits at most `FAIR_EVERY` morsels per worker.
const FAIR_EVERY: usize = 16;

// Task states.
const IDLE: u8 = 0;
const QUEUED: u8 = 1;
const RUNNING: u8 = 2;
const RUNNING_DIRTY: u8 = 3;
const DONE: u8 = 4;

/// Outcome of one task step.
pub(crate) enum Step {
    /// More work is immediately available; reschedule.
    Again,
    /// Nothing to do until a `notify` arrives.
    Idle,
    /// Terminal. The task is never scheduled again.
    Finished,
}

/// Per-task scheduling state shared with the pool.
pub(crate) struct TaskCore {
    state: AtomicU8,
}

impl TaskCore {
    pub(crate) fn new() -> Self {
        TaskCore { state: AtomicU8::new(IDLE) }
    }

    /// True once the task has returned [`Step::Finished`].
    pub(crate) fn is_done(&self) -> bool {
        self.state.load(Ordering::Acquire) == DONE
    }
}

/// A schedulable unit: one operator partition (or any cooperative task).
pub(crate) trait Task: Send + Sync {
    fn core(&self) -> &TaskCore;
    /// Run one bounded quantum. Must not block on other tasks.
    fn step(&self) -> Step;
}

/// Wake `task`: enqueue it if idle, or mark it dirty if currently running so
/// it gets re-enqueued when its step returns. No-op if already queued/done.
pub(crate) fn notify(task: &Arc<dyn Task>, pool: &WorkerPool) {
    let state = &task.core().state;
    loop {
        match state.compare_exchange(IDLE, QUEUED, Ordering::AcqRel, Ordering::Acquire) {
            Ok(_) => {
                pool.push(task.clone(), false);
                return;
            }
            Err(RUNNING) => {
                if state
                    .compare_exchange(RUNNING, RUNNING_DIRTY, Ordering::AcqRel, Ordering::Acquire)
                    .is_ok()
                {
                    return;
                }
                // Raced with a state change; re-read.
            }
            Err(_) => return, // QUEUED, RUNNING_DIRTY, DONE: wakeup already pending or moot
        }
    }
}

struct SchedCounters {
    steals: Counter,
    local_hits: Counter,
    morsels: Counter,
    park_ns: Counter,
    enqueued: Counter,
}

impl SchedCounters {
    fn new(registry: &MetricsRegistry) -> Self {
        SchedCounters {
            steals: registry.counter("hyracks.sched.steals"),
            local_hits: registry.counter("hyracks.sched.local_hits"),
            morsels: registry.counter("hyracks.sched.morsels"),
            park_ns: registry.counter("hyracks.sched.park_ns"),
            enqueued: registry.counter("hyracks.sched.enqueued"),
        }
    }
}

struct PoolShared {
    /// One deque per worker.
    queues: Vec<Mutex<VecDeque<Arc<dyn Task>>>>,
    /// Tasks enqueued from threads outside the pool.
    injector: Mutex<VecDeque<Arc<dyn Task>>>,
    /// Total tasks sitting in queues (workers park only when zero).
    pending: AtomicUsize,
    /// Per-worker pop tick driving the [`FAIR_EVERY`] anti-starvation pop.
    fair_tick: Vec<AtomicUsize>,
    /// Count of parked workers, guarding the wake condvar.
    idle: Mutex<usize>,
    wake: Condvar,
    shutdown: AtomicBool,
    counters: SchedCounters,
}

thread_local! {
    /// (pool identity, worker index) for the current thread, if it is a
    /// pool worker. The identity is the shared-state address as an opaque
    /// integer — compared, never dereferenced.
    static WORKER_SLOT: std::cell::Cell<(usize, usize)> =
        const { std::cell::Cell::new((0, usize::MAX)) };
}

/// Fixed pool of worker threads running morsel tasks.
pub struct WorkerPool {
    shared: Arc<PoolShared>,
    threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
}

impl WorkerPool {
    /// Spawn a pool of `workers` threads (clamped to at least 1).
    /// Scheduler counters are registered in `registry`.
    pub fn new(workers: usize, registry: &MetricsRegistry) -> Arc<WorkerPool> {
        let pool = Self::inert(workers, registry);
        let n = pool.shared.queues.len();
        let mut threads = pool.threads.lock();
        for w in 0..n {
            let shared = Arc::clone(&pool.shared);
            let spawned = std::thread::Builder::new()
                .name(format!("morsel-{w}"))
                .spawn(move || worker_loop(shared, w));
            if let Ok(h) = spawned {
                threads.push(h);
            }
        }
        drop(threads);
        pool
    }

    /// Build the pool state without spawning threads (tests drive it by hand).
    fn inert(workers: usize, registry: &MetricsRegistry) -> Arc<WorkerPool> {
        let n = workers.max(1);
        Arc::new(WorkerPool {
            shared: Arc::new(PoolShared {
                queues: (0..n).map(|_| Mutex::new(VecDeque::new())).collect(),
                injector: Mutex::new(VecDeque::new()),
                pending: AtomicUsize::new(0),
                fair_tick: (0..n).map(|_| AtomicUsize::new(0)).collect(),
                idle: Mutex::new(0),
                wake: Condvar::new(),
                shutdown: AtomicBool::new(false),
                counters: SchedCounters::new(registry),
            }),
            threads: Mutex::new(Vec::new()),
        })
    }

    /// Number of worker threads.
    pub fn workers(&self) -> usize {
        self.shared.queues.len()
    }

    /// Current depth of each worker deque plus the injector (diagnostics).
    pub fn queue_depths(&self) -> Vec<usize> {
        let mut out: Vec<usize> = self.shared.queues.iter().map(|q| q.lock().len()).collect();
        out.push(self.shared.injector.lock().len());
        out
    }

    /// Enqueue a task. `front` puts it at the head of the local deque
    /// (used for self-requeue after [`Step::Again`]).
    pub(crate) fn push(&self, task: Arc<dyn Task>, front: bool) {
        let shared = &*self.shared;
        shared.counters.enqueued.inc();
        shared.pending.fetch_add(1, Ordering::AcqRel);
        let id = Arc::as_ptr(&self.shared) as usize;
        let (pool_id, w) = WORKER_SLOT.get();
        if pool_id == id && w < shared.queues.len() {
            let mut q = shared.queues[w].lock();
            if front {
                q.push_front(task);
            } else {
                q.push_back(task);
            }
        } else {
            shared.injector.lock().push_back(task);
        }
        if *shared.idle.lock() > 0 {
            shared.wake.notify_one();
        }
    }
}

impl Drop for WorkerPool {
    fn drop(&mut self) {
        self.shared.shutdown.store(true, Ordering::Release);
        {
            let _idle = self.shared.idle.lock();
            self.shared.wake.notify_all();
        }
        let threads = std::mem::take(&mut *self.threads.lock());
        // The last reference to a pool can drop on one of its own workers:
        // the one finishing a job's final actor holds the job. That worker
        // must not wait for its siblings' steps, nor join itself: it detaches
        // them all, and the shutdown flag above makes each exit on its own.
        if WORKER_SLOT.get().0 != Arc::as_ptr(&self.shared) as usize {
            for h in threads {
                let _ = lock_order::join(h);
            }
        }
    }
}

fn worker_loop(shared: Arc<PoolShared>, w: usize) {
    WORKER_SLOT.set((Arc::as_ptr(&shared) as usize, w));
    loop {
        if shared.shutdown.load(Ordering::Acquire) {
            return;
        }
        match pop_task(&shared, w) {
            Some(task) => run_task(&shared, task),
            None => park(&shared),
        }
    }
}

/// Pop the next task for worker `w`: own deque back (LIFO), then the shared
/// injector, then steal from the front of another worker's deque (FIFO) —
/// except every [`FAIR_EVERY`]th pop, which reverses the first two so the
/// oldest work cannot be starved by a busy LIFO tail.
fn pop_task(shared: &PoolShared, w: usize) -> Option<Arc<dyn Task>> {
    let tick = shared.fair_tick[w].fetch_add(1, Ordering::Relaxed).wrapping_add(1); // xlint: ordering(fair_tick is per-worker, read only by its owner; cadence, not synchronization)
    if tick.is_multiple_of(FAIR_EVERY) {
        if let Some(t) = shared.injector.lock().pop_front() {
            shared.pending.fetch_sub(1, Ordering::AcqRel);
            return Some(t);
        }
        if let Some(t) = shared.queues[w].lock().pop_front() {
            shared.counters.local_hits.inc();
            shared.pending.fetch_sub(1, Ordering::AcqRel);
            return Some(t);
        }
        // Nothing old to prefer; fall through to the normal order (both the
        // injector and the local deque are empty, so this devolves to steal).
    }
    if let Some(t) = shared.queues[w].lock().pop_back() {
        shared.counters.local_hits.inc();
        shared.pending.fetch_sub(1, Ordering::AcqRel);
        return Some(t);
    }
    if let Some(t) = shared.injector.lock().pop_front() {
        shared.pending.fetch_sub(1, Ordering::AcqRel);
        return Some(t);
    }
    let n = shared.queues.len();
    for off in 1..n {
        let v = (w + off) % n;
        if let Some(t) = shared.queues[v].lock().pop_front() {
            shared.counters.steals.inc();
            shared.pending.fetch_sub(1, Ordering::AcqRel);
            return Some(t);
        }
    }
    None
}

fn run_task(shared: &PoolShared, task: Arc<dyn Task>) {
    let core = task.core();
    core.state.store(RUNNING, Ordering::Release);
    shared.counters.morsels.inc();
    // Tasks catch panics in their own step bodies; this is a belt-and-braces
    // guard so a panicking task never takes a pool worker down with it. The
    // step runs marked: a wait in it aborts (debug builds).
    let step = || lock_order::as_pool_step(|| task.step());
    let outcome =
        std::panic::catch_unwind(std::panic::AssertUnwindSafe(step)).unwrap_or(Step::Finished);
    match outcome {
        Step::Finished => core.state.store(DONE, Ordering::Release),
        Step::Again => {
            core.state.store(QUEUED, Ordering::Release);
            push_from_worker(shared, task, true);
        }
        Step::Idle => {
            if core
                .state
                .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
                .is_err()
            {
                // Notified while running: don't lose the wakeup.
                core.state.store(QUEUED, Ordering::Release);
                push_from_worker(shared, task, false);
            }
        }
    }
}

/// Enqueue from inside the worker loop (same logic as `WorkerPool::push`,
/// without the pool handle).
fn push_from_worker(shared: &PoolShared, task: Arc<dyn Task>, front: bool) {
    shared.counters.enqueued.inc();
    shared.pending.fetch_add(1, Ordering::AcqRel);
    let (_, w) = WORKER_SLOT.get();
    if w < shared.queues.len() {
        let mut q = shared.queues[w].lock();
        if front {
            q.push_front(task);
        } else {
            q.push_back(task);
        }
    } else {
        shared.injector.lock().push_back(task);
    }
    if *shared.idle.lock() > 0 {
        shared.wake.notify_one();
    }
}

// ---------------------------------------------------------------------------
// Storage compaction bridge
// ---------------------------------------------------------------------------

/// One background LSM merge running as a morsel task: every scheduling
/// quantum advances the merge by one bounded [`BackgroundJob::step`] (a
/// merge morsel of ~1k entries), so compaction shares workers with query
/// morsels instead of owning a thread. The job's cooperative cancel flag
/// is tripped from `token` at morsel boundaries, giving merges the same
/// bounded cancellation latency as query tasks.
struct CompactionTask {
    core: TaskCore,
    job: Arc<dyn BackgroundJob>,
    token: CancellationToken,
}

impl Task for CompactionTask {
    fn core(&self) -> &TaskCore {
        &self.core
    }

    fn step(&self) -> Step {
        if self.token.is_cancelled() {
            self.job.cancel();
        }
        // A panicking step ends the job as a cancel does, so the tree counts
        // the merge aborted and goes back to idle instead of wedging.
        let step = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| self.job.step()))
            .unwrap_or_else(|_| {
                self.job.cancel();
                self.job.step()
            });
        match step {
            JobStep::Again => Step::Again,
            JobStep::Done => Step::Finished,
        }
    }
}

/// [`BackgroundExecutor`] over a context's shared [`WorkerPool`]. Holds the
/// context weakly: the executor lives inside storage config structs whose
/// lifetime the runtime does not control, and a strong reference would keep
/// the pool (and its threads) alive past instance shutdown.
struct PoolExecutor {
    ctx: Weak<RuntimeCtx>,
    token: CancellationToken,
}

impl BackgroundExecutor for PoolExecutor {
    fn offload(&self, job: Arc<dyn BackgroundJob>) {
        match self.ctx.upgrade() {
            Some(ctx) => {
                let task: Arc<dyn Task> = Arc::new(CompactionTask {
                    core: TaskCore::new(),
                    job,
                    token: self.token.clone(),
                });
                notify(&task, &ctx.worker_pool());
            }
            // Runtime gone (shutdown race): the tree's compaction state
            // machine still expects this job to reach Done, so drive it
            // inline on the submitting thread rather than stranding the
            // tree in `merging` forever.
            None => while job.step() == JobStep::Again {},
        }
    }
}

/// A [`CompactionExec`] that schedules LSM merges onto `ctx`'s morsel
/// worker pool. `token` is polled once per merge morsel; tripping it makes
/// in-flight merges abort cleanly at the next step boundary (the tree
/// republishes nothing and stays on its pre-merge component list).
pub fn storage_compaction_executor(
    ctx: &Arc<RuntimeCtx>,
    token: CancellationToken,
) -> CompactionExec {
    Arc::new(PoolExecutor { ctx: Arc::downgrade(ctx), token })
}

fn park(shared: &PoolShared) {
    let start = Instant::now();
    let mut idle = shared.idle.lock();
    *idle += 1;
    if shared.pending.load(Ordering::Acquire) == 0 && !shared.shutdown.load(Ordering::Acquire) {
        idle = shared.wake.wait_for(idle, PARK_TIMEOUT).0;
    }
    *idle -= 1;
    drop(idle);
    shared
        .counters
        .park_ns
        .add(start.elapsed().as_nanos() as u64);
}

#[cfg(test)]
mod tests {
    use super::*;

    struct CountTask {
        core: TaskCore,
        id: usize,
        runs: AtomicUsize,
        /// Step outcomes to produce, consumed front-first; Finished after.
        script: Mutex<VecDeque<&'static str>>,
        ran: Arc<Mutex<Vec<usize>>>,
    }

    impl CountTask {
        fn new(id: usize, script: &[&'static str], ran: Arc<Mutex<Vec<usize>>>) -> Arc<Self> {
            Arc::new(CountTask {
                core: TaskCore::new(),
                id,
                runs: AtomicUsize::new(0),
                script: Mutex::new(script.iter().copied().collect()),
                ran,
            })
        }
    }

    impl Task for CountTask {
        fn core(&self) -> &TaskCore {
            &self.core
        }
        fn step(&self) -> Step {
            self.runs.fetch_add(1, Ordering::SeqCst);
            self.ran.lock().push(self.id);
            match self.script.lock().pop_front() {
                Some("again") => Step::Again,
                Some("idle") => Step::Idle,
                _ => Step::Finished,
            }
        }
    }

    fn drive(shared: &PoolShared, w: usize) -> bool {
        match pop_task(shared, w) {
            Some(t) => {
                run_task(shared, t);
                true
            }
            None => false,
        }
    }

    #[test]
    fn local_pop_is_lifo() {
        let reg = MetricsRegistry::new();
        let pool = WorkerPool::inert(2, &reg);
        let ran = Arc::new(Mutex::new(Vec::new()));
        // Simulate worker 0 enqueueing three tasks (notify path: push_back).
        WORKER_SLOT.set((Arc::as_ptr(&pool.shared) as usize, 0));
        for id in 0..3 {
            let t = CountTask::new(id, &[], Arc::clone(&ran));
            notify(&(t as Arc<dyn Task>), &pool);
        }
        while drive(&pool.shared, 0) {}
        WORKER_SLOT.set((0, usize::MAX));
        // Last enqueued runs first on the owning worker.
        assert_eq!(*ran.lock(), vec![2, 1, 0]);
    }

    #[test]
    fn steal_takes_the_oldest_task() {
        let reg = MetricsRegistry::new();
        let pool = WorkerPool::inert(2, &reg);
        let ran = Arc::new(Mutex::new(Vec::new()));
        WORKER_SLOT.set((Arc::as_ptr(&pool.shared) as usize, 0));
        for id in 0..3 {
            let t = CountTask::new(id, &[], Arc::clone(&ran));
            notify(&(t as Arc<dyn Task>), &pool);
        }
        WORKER_SLOT.set((0, usize::MAX));
        // Worker 1 steals from the FRONT of worker 0's deque: oldest first.
        assert!(drive(&pool.shared, 1));
        assert_eq!(*ran.lock(), vec![0]);
        // Owner keeps popping its hot tail.
        assert!(drive(&pool.shared, 0));
        assert_eq!(*ran.lock(), vec![0, 2]);
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hyracks.sched.steals"), Some(1));
        assert_eq!(snap.counter("hyracks.sched.local_hits"), Some(1));
    }

    #[test]
    fn again_requeues_in_front_but_notify_runs_first_from_the_back() {
        // One worker: an endlessly-Again task must alternate with a task
        // notified onto the back of the deque, not monopolise the worker.
        let reg = MetricsRegistry::new();
        let pool = WorkerPool::inert(1, &reg);
        let ran = Arc::new(Mutex::new(Vec::new()));
        WORKER_SLOT.set((Arc::as_ptr(&pool.shared) as usize, 0));
        let src = CountTask::new(0, &["again", "again"], Arc::clone(&ran));
        let snk = CountTask::new(1, &["idle"], Arc::clone(&ran));
        notify(&(src as Arc<dyn Task>), &pool);
        // Source runs, self-requeues to the front...
        assert!(drive(&pool.shared, 0));
        // ...then the sink is notified (push_back) and still runs next.
        notify(&(snk as Arc<dyn Task>), &pool);
        while drive(&pool.shared, 0) {}
        WORKER_SLOT.set((0, usize::MAX));
        assert_eq!(*ran.lock(), vec![0, 1, 0, 0]);
    }

    #[test]
    fn notify_while_running_marks_dirty_and_requeues() {
        let reg = MetricsRegistry::new();
        let pool = WorkerPool::inert(1, &reg);
        let ran = Arc::new(Mutex::new(Vec::new()));
        let t = CountTask::new(7, &["idle", "idle"], Arc::clone(&ran));
        let dyn_t: Arc<dyn Task> = t.clone();
        notify(&dyn_t, &pool);
        // Manually move to RUNNING, notify (should dirty), and complete the
        // step: the task must be requeued rather than parked idle.
        let popped = pop_task(&pool.shared, 0).unwrap();
        popped.core().state.store(RUNNING, Ordering::Release);
        notify(&dyn_t, &pool);
        assert_eq!(t.core.state.load(Ordering::Acquire), RUNNING_DIRTY);
        // Finish the step by hand the way run_task does for Idle.
        assert!(popped
            .core()
            .state
            .compare_exchange(RUNNING, IDLE, Ordering::AcqRel, Ordering::Acquire)
            .is_err());
        popped.core().state.store(QUEUED, Ordering::Release);
        pool.push(popped, false);
        assert!(drive(&pool.shared, 0));
        assert_eq!(*ran.lock(), vec![7]);
    }

    #[test]
    fn notify_after_done_is_a_no_op() {
        let reg = MetricsRegistry::new();
        let pool = WorkerPool::inert(1, &reg);
        let ran = Arc::new(Mutex::new(Vec::new()));
        let t = CountTask::new(3, &[], Arc::clone(&ran));
        let dyn_t: Arc<dyn Task> = t.clone();
        notify(&dyn_t, &pool);
        assert!(drive(&pool.shared, 0));
        assert!(t.core.is_done());
        notify(&dyn_t, &pool);
        assert!(!drive(&pool.shared, 0));
        assert_eq!(t.runs.load(Ordering::SeqCst), 1);
    }

    /// Fake merge job: counts steps, honours cooperative cancel, and panics
    /// in its next step while `panics` is set.
    struct FakeJob {
        steps_left: AtomicUsize,
        steps_run: AtomicUsize,
        cancelled: AtomicBool,
        done: AtomicBool,
        panics: AtomicBool,
    }

    impl FakeJob {
        fn new(steps: usize) -> Arc<Self> {
            Arc::new(FakeJob {
                steps_left: AtomicUsize::new(steps),
                steps_run: AtomicUsize::new(0),
                cancelled: AtomicBool::new(false),
                done: AtomicBool::new(false),
                panics: AtomicBool::new(false),
            })
        }
    }

    impl BackgroundJob for FakeJob {
        fn step(&self) -> JobStep {
            self.steps_run.fetch_add(1, Ordering::SeqCst);
            assert!(!self.panics.swap(false, Ordering::SeqCst), "a merge step fails");
            if self.cancelled.load(Ordering::SeqCst)
                || self.steps_left.fetch_sub(1, Ordering::SeqCst) <= 1
            {
                self.done.store(true, Ordering::SeqCst);
                return JobStep::Done;
            }
            JobStep::Again
        }
        fn cancel(&self) {
            self.cancelled.store(true, Ordering::SeqCst);
        }
    }

    fn wait_done(job: &FakeJob) {
        let deadline = Instant::now() + Duration::from_secs(10);
        while !job.done.load(Ordering::SeqCst) {
            assert!(Instant::now() < deadline, "compaction job never finished");
            lock_order::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn compaction_jobs_run_morsel_stepped_on_the_pool() {
        let ctx = RuntimeCtx::temp().unwrap();
        ctx.set_worker_threads(2);
        let exec = storage_compaction_executor(&ctx, CancellationToken::new());
        let job = FakeJob::new(5);
        exec.offload(job.clone() as Arc<dyn BackgroundJob>);
        wait_done(&job);
        assert_eq!(job.steps_run.load(Ordering::SeqCst), 5);
    }

    #[test]
    fn tripped_token_cancels_the_merge_at_the_next_morsel() {
        let ctx = RuntimeCtx::temp().unwrap();
        ctx.set_worker_threads(1);
        let token = CancellationToken::new();
        token.cancel("test shutdown");
        let exec = storage_compaction_executor(&ctx, token);
        let job = FakeJob::new(1_000_000);
        exec.offload(job.clone() as Arc<dyn BackgroundJob>);
        wait_done(&job);
        // The task saw the tripped token before its first quantum, cancelled
        // the job, and the very first step aborted instead of running 1M.
        assert_eq!(job.steps_run.load(Ordering::SeqCst), 1);
        assert!(job.cancelled.load(Ordering::SeqCst));
    }

    #[test]
    fn a_panicking_merge_step_is_cancelled_and_stepped_to_done() {
        let ctx = RuntimeCtx::temp().unwrap();
        ctx.set_worker_threads(1);
        let exec = storage_compaction_executor(&ctx, CancellationToken::new());
        let job = FakeJob::new(1_000_000);
        job.panics.store(true, Ordering::SeqCst);
        exec.offload(job.clone() as Arc<dyn BackgroundJob>);
        wait_done(&job);
        // The panicking step, then the cancelled one that ends the job.
        assert!(job.cancelled.load(Ordering::SeqCst));
        assert_eq!(job.steps_run.load(Ordering::SeqCst), 2);
    }

    /// Records whether its step ran marked as a pool step.
    struct MarkTask {
        core: TaskCore,
        marked: Mutex<Option<bool>>,
    }

    impl Task for MarkTask {
        fn core(&self) -> &TaskCore {
            &self.core
        }
        fn step(&self) -> Step {
            *self.marked.lock() = Some(lock_order::on_pool_step());
            Step::Finished
        }
    }

    #[test]
    #[cfg_attr(not(debug_assertions), ignore = "release builds do not mark pool steps")]
    fn a_step_runs_marked_and_park_does_not() {
        let reg = MetricsRegistry::new();
        let task = || Arc::new(MarkTask { core: TaskCore::new(), marked: Mutex::new(None) });
        let pool = WorkerPool::new(1, &reg);
        let t = task();
        notify(&(t.clone() as Arc<dyn Task>), &pool);
        let deadline = Instant::now() + Duration::from_secs(10);
        while !t.core.is_done() {
            assert!(Instant::now() < deadline, "the pool never ran the task");
            lock_order::sleep(Duration::from_millis(1));
        }
        assert_eq!(*t.marked.lock(), Some(true), "a worker's step is marked");
        // By hand: the mark ends with the step, so the worker's park after
        // it waits on the pool's condvar unmarked (a marked wait aborts).
        let pool = WorkerPool::inert(1, &reg);
        let t = task();
        notify(&(t.clone() as Arc<dyn Task>), &pool);
        assert!(drive(&pool.shared, 0));
        assert_eq!(*t.marked.lock(), Some(true));
        assert!(!lock_order::on_pool_step());
        park(&pool.shared);
    }

    #[test]
    fn dead_context_falls_back_to_inline_completion() {
        let exec = {
            let ctx = RuntimeCtx::temp().unwrap();
            storage_compaction_executor(&ctx, CancellationToken::new())
        };
        // The context is gone; submit must still drive the job to Done on
        // this thread so the tree never wedges in `merging`.
        let job = FakeJob::new(4);
        exec.offload(job.clone() as Arc<dyn BackgroundJob>);
        assert!(job.done.load(Ordering::SeqCst));
        assert_eq!(job.steps_run.load(Ordering::SeqCst), 4);
    }

    #[test]
    fn real_pool_runs_tasks_to_completion() {
        let reg = MetricsRegistry::new();
        let pool = WorkerPool::new(2, &reg);
        let ran = Arc::new(Mutex::new(Vec::new()));
        let tasks: Vec<Arc<CountTask>> = (0..8)
            .map(|id| CountTask::new(id, &["again"], Arc::clone(&ran)))
            .collect();
        for t in &tasks {
            let dyn_t: Arc<dyn Task> = t.clone();
            notify(&dyn_t, &pool);
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while tasks.iter().any(|t| !t.core.is_done()) {
            assert!(Instant::now() < deadline, "pool did not drain tasks");
            lock_order::sleep(Duration::from_millis(1));
        }
        for t in &tasks {
            assert_eq!(t.runs.load(Ordering::SeqCst), 2);
        }
        let snap = reg.snapshot();
        assert_eq!(snap.counter("hyracks.sched.enqueued"), snap.counter("hyracks.sched.morsels"));
    }
}
