//! Concurrent query serving: admission control under a global memory pool,
//! a bounded FIFO queue with typed backpressure, and session-scoped query
//! handles.
//!
//! The paper's cluster controller admits many simultaneous jobs; memory is
//! the resource that actually kills an overloaded BDMS, so admission here is
//! budget-based. Every query reserves a slice of a global pool before it may
//! execute; queries that cannot be admitted immediately wait in a bounded
//! FIFO queue, and submissions past the queue bound are refused with the
//! typed [`CoreError::Saturated`] — backpressure the client can act on,
//! rather than an unbounded pile-up that eventually takes the node down.
//!
//! # Admission protocol
//!
//! Every query on an instance takes this path — [`Session::submit`] on a
//! `serve-q` thread, and the synchronous [`Instance::query`] /
//! [`Instance::execute`] family (DML-internal queries included) on the
//! caller's own thread. There is no way to run a query without a ticket.
//!
//! 1. `Instance::enqueue_query` synchronously reserves a [`Ticket`]: either
//!    an *eager* admission (pool and concurrency slot free, nobody queued
//!    ahead) or a queue entry. A full queue or an impossible budget (larger
//!    than the whole pool) rejects right here with [`CoreError::Saturated`].
//! 2. `Instance::run_query_profiled` redeems the ticket ([`QueryScheduler`]
//!    internal `admit_wait`), blocking until the query is at the head of the
//!    queue *and* both a concurrency slot and its memory budget are free,
//!    then executes under that budget. Admission is FIFO with no bypass: a
//!    small query never overtakes the queue head even when it would fit,
//!    which trades a little utilization for a starvation-freedom guarantee.
//! 3. The returned `AdmissionGuard` releases the budget and slot on drop —
//!    success, failure, and panic paths all return resources to the pool.
//!
//! Cancellation works at every stage: a queued query that is cancelled
//! removes itself from the queue and reports the typed
//! [`HyracksError::Cancelled`](asterix_hyracks::HyracksError); a running
//! query trips its current attempt's job token.
//!
//! # Interaction with the morsel executor
//!
//! Admission bounds *how many* queries run and *how much memory* each may
//! reserve; it does not multiply threads. Every admitted query's job runs
//! as cooperative actors on the instance's single shared
//! [`WorkerPool`](asterix_hyracks::WorkerPool)
//! (`InstanceConfig::worker_threads`, default `available_parallelism()`),
//! so N concurrent queries time-share one pool instead of spawning
//! N × partitions threads. Degree of parallelism is therefore a pure
//! scheduling decision: raising `partitions` adds schedulable morsel
//! sources (finer stealing granularity), while the admission budget keeps
//! the sum of per-operator working memories bounded independently of how
//! the pool interleaves them.

use crate::error::{CoreError, Result};
use crate::instance::Instance;
use asterix_adm::Value;
use asterix_hyracks::ctx::DEFAULT_OP_MEMORY;
use asterix_hyracks::CancellationToken;
use asterix_obs::{Counter, JobProfile, MetricsRegistry};
use asterix_sqlpp::ast::Query;
use asterix_storage::lock_order::{Condvar, Level, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Admission-control configuration (one scheduler per [`Instance`]).
#[derive(Debug, Clone)]
pub struct SchedulerConfig {
    /// Global memory pool shared by all concurrently admitted queries.
    pub total_memory: usize,
    /// Budget reserved for a query that does not specify one
    /// ([`QueryOptions::memory`]).
    pub default_query_memory: usize,
    /// Maximum concurrently *executing* queries, independent of memory.
    pub max_concurrent: usize,
    /// Maximum queries waiting for admission; submissions beyond this are
    /// refused with [`CoreError::Saturated`].
    pub queue_depth: usize,
}

impl Default for SchedulerConfig {
    fn default() -> Self {
        SchedulerConfig {
            total_memory: 256 << 20,
            default_query_memory: DEFAULT_OP_MEMORY,
            max_concurrent: 4,
            queue_depth: 16,
        }
    }
}

/// Per-submission options for [`Session::submit_with`].
#[derive(Debug, Clone, Default)]
pub struct QueryOptions {
    /// Memory budget to reserve from the global pool; `None` takes
    /// [`SchedulerConfig::default_query_memory`]. The budget also caps the
    /// per-operator working memory of the compiled job.
    pub memory: Option<usize>,
    /// Wall-clock deadline for the query; `None` takes the instance default.
    pub deadline: Option<Duration>,
}

struct PoolState {
    free_memory: usize,
    running: usize,
    /// Ticket ids of the queued (not yet admitted) submissions; the front is
    /// the head.
    queue: VecDeque<u64>,
}

/// Point-in-time view of the admission pool (tests and the bench read it).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolSnapshot {
    /// Configured pool size.
    pub total_memory: usize,
    /// Memory not currently reserved by an admitted query.
    pub free_memory: usize,
    /// Queries currently holding an admission (executing).
    pub running: usize,
    /// Queries waiting in the admission queue.
    pub queued: usize,
}

/// Admission controller: the global memory pool, the concurrency gate, and
/// the bounded FIFO queue. One per [`Instance`]; obtained via
/// [`Instance::scheduler`].
pub struct QueryScheduler {
    cfg: SchedulerConfig,
    state: Mutex<PoolState>,
    cv: Condvar,
    next_ticket: AtomicU64,
    admitted: Counter,
    rejected: Counter,
    queue_cancelled: Counter,
    completed: Counter,
}

/// How often a queued waiter re-polls its cancellation token while parked.
const ADMIT_POLL: Duration = Duration::from_millis(10);

impl QueryScheduler {
    pub(crate) fn new(cfg: SchedulerConfig, registry: &MetricsRegistry) -> Arc<QueryScheduler> {
        Arc::new(QueryScheduler {
            state: Mutex::ranked(
                Level::Scheduler,
                PoolState { free_memory: cfg.total_memory, running: 0, queue: VecDeque::new() },
            ),
            cv: Condvar::new(),
            next_ticket: AtomicU64::new(1),
            admitted: registry.counter("core.serving.admitted"),
            rejected: registry.counter("core.serving.rejected"),
            queue_cancelled: registry.counter("core.serving.queue_cancelled"),
            completed: registry.counter("core.serving.completed"),
            cfg,
        })
    }

    /// The configuration this scheduler was built with.
    pub fn config(&self) -> &SchedulerConfig {
        &self.cfg
    }

    /// Current pool accounting.
    pub fn pool_snapshot(&self) -> PoolSnapshot {
        let st = self.state.lock();
        PoolSnapshot {
            total_memory: self.cfg.total_memory,
            free_memory: st.free_memory,
            running: st.running,
            queued: st.queue.len(),
        }
    }

    /// Synchronous admission step: reserve resources now (eager admission)
    /// or a queue slot. The only point that refuses work — both refusal
    /// shapes are [`CoreError::Saturated`].
    pub(crate) fn enqueue(self: &Arc<Self>, budget: usize) -> Result<Ticket> {
        if budget > self.cfg.total_memory {
            self.rejected.inc();
            return Err(CoreError::Saturated(format!(
                "query memory budget of {budget} bytes exceeds the global pool of {} bytes",
                self.cfg.total_memory
            )));
        }
        let id = self.next_ticket.fetch_add(1, Ordering::Relaxed); // xlint: ordering(ticket-id allocation; admission handoff is ordered by the state mutex)
        let mut st = self.state.lock();
        // Eager path: resources free and nobody queued ahead of us.
        if st.queue.is_empty()
            && st.running < self.cfg.max_concurrent
            && st.free_memory >= budget
        {
            st.running += 1;
            st.free_memory -= budget;
            return Ok(Ticket {
                sched: Arc::clone(self),
                id,
                budget,
                eager: true,
                redeemed: false,
            });
        }
        let waiting = st.queue.len();
        if waiting >= self.cfg.queue_depth {
            drop(st);
            self.rejected.inc();
            return Err(CoreError::Saturated(format!(
                "admission queue is full ({waiting} waiting, depth {})",
                self.cfg.queue_depth
            )));
        }
        st.queue.push_back(id);
        Ok(Ticket {
            sched: Arc::clone(self),
            id,
            budget,
            eager: false,
            redeemed: false,
        })
    }

    /// Blocks until the ticket's query is admitted (or `token` cancels
    /// first). Consumes the ticket; resources travel into the returned
    /// guard.
    pub(crate) fn admit_wait(
        self: &Arc<Self>,
        mut ticket: Ticket,
        token: &CancellationToken,
    ) -> Result<AdmissionGuard> {
        let (id, budget) = (ticket.id, ticket.budget);
        if ticket.eager {
            ticket.redeemed = true;
            self.admitted.inc();
            return Ok(AdmissionGuard { sched: Arc::clone(self), budget });
        }
        let mut st = self.state.lock();
        loop {
            if let Err(e) = token.check() {
                // Cancelled while queued: withdraw our entry ourselves so
                // the slot frees immediately, and report the typed error.
                st.queue.retain(|&t| t != id);
                ticket.redeemed = true;
                drop(st);
                self.queue_cancelled.inc();
                self.cv.notify_all();
                return Err(CoreError::Hyracks(e));
            }
            let at_head = st.queue.front() == Some(&id);
            if at_head && st.running < self.cfg.max_concurrent && st.free_memory >= budget {
                st.queue.pop_front();
                st.running += 1;
                st.free_memory -= budget;
                ticket.redeemed = true;
                drop(st);
                self.admitted.inc();
                return Ok(AdmissionGuard { sched: Arc::clone(self), budget });
            }
            // Bounded wait, then re-poll the token: admission must stay
            // responsive to cancellation even if a wakeup is missed.
            st = self.cv.wait_for(st, ADMIT_POLL).0;
        }
    }

    /// Returns `budget` and a concurrency slot to the pool and wakes every
    /// waiter (the new head may be any of them).
    fn release(&self, budget: usize) {
        let mut st = self.state.lock();
        st.running = st.running.saturating_sub(1);
        st.free_memory = (st.free_memory + budget).min(self.cfg.total_memory);
        drop(st);
        self.completed.inc();
        self.cv.notify_all();
    }
}

/// A reserved admission: either eagerly admitted or a queue entry. Dropping
/// an unredeemed ticket (e.g. worker-thread spawn failure) rolls the
/// reservation back.
#[must_use = "dropping a ticket rolls its reservation back"]
pub(crate) struct Ticket {
    sched: Arc<QueryScheduler>,
    id: u64,
    budget: usize,
    eager: bool,
    redeemed: bool,
}

impl Drop for Ticket {
    fn drop(&mut self) {
        if self.redeemed {
            return;
        }
        if self.eager {
            self.sched.release(self.budget);
            return;
        }
        self.sched.state.lock().queue.retain(|&t| t != self.id);
        self.sched.cv.notify_all();
    }
}

/// RAII admission: holds one concurrency slot and `budget` bytes of the
/// global pool; both return to the pool on drop, whatever path the query
/// took out of execution.
#[must_use = "dropping the guard returns its slot and budget to the pool"]
pub(crate) struct AdmissionGuard {
    sched: Arc<QueryScheduler>,
    budget: usize,
}

impl AdmissionGuard {
    /// Bytes this admission reserved; also the cap on each operator's
    /// working memory while the query runs.
    pub(crate) fn budget(&self) -> usize {
        self.budget
    }
}

impl Drop for AdmissionGuard {
    fn drop(&mut self) {
        self.sched.release(self.budget);
    }
}

/// A parsed query holding its admission [`Ticket`]: what
/// `Instance::enqueue_query` hands to `Instance::run_query_profiled`, on
/// whichever thread the caller wants the query to run.
pub(crate) struct Submission {
    pub(crate) ticket: Ticket,
    pub(crate) query: Query,
    pub(crate) deadline: Option<Duration>,
}

/// Cancellation plumbing shared between a [`QueryHandle`] and the worker
/// executing its query. The handle-level token lives for the whole query;
/// each execution attempt runs under its own fresh job token (a cancelled
/// or timed-out attempt must not poison a retry), so cancelling a running
/// query has to trip *both*: the handle token stops the retry loop, the
/// attempt token unwinds the dataflow currently executing.
pub(crate) struct QueryControl {
    /// Query-lifetime cancel signal.
    pub(crate) token: CancellationToken,
    /// Job token of the attempt currently executing, if any. The worker
    /// installs the attempt token *before* re-checking `token`, so a cancel
    /// that lands between attempts is never lost.
    pub(crate) attempt: Mutex<Option<CancellationToken>>,
}

impl QueryControl {
    pub(crate) fn new() -> QueryControl {
        QueryControl { token: CancellationToken::new(), attempt: Mutex::new(None) }
    }
}

/// Terminal state of a finished query, written once by the worker.
struct HandleState {
    done: bool,
    /// Taken (once) by `wait`.
    outcome: Option<Result<Vec<Value>>>,
    profile: Option<JobProfile>,
}

struct HandleShared {
    state: Mutex<HandleState>,
    cv: Condvar,
    control: QueryControl,
}

/// A submitted query: cancel it, wait for its rows, read its profile. The
/// handle is the *only* place this query's results and profile surface —
/// queries submitted through different sessions can never observe each
/// other's state. Dropping the handle without waiting detaches the query;
/// it runs to completion and its resources are released normally.
pub struct QueryHandle {
    id: u64,
    session: u64,
    shared: Arc<HandleShared>,
    worker: Mutex<Option<std::thread::JoinHandle<()>>>,
}

impl QueryHandle {
    /// Instance-wide query id (admission ticket number).
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Id of the [`Session`] this query was submitted through.
    pub fn session_id(&self) -> u64 {
        self.session
    }

    /// Cancels this query — and only this query. Queued: it withdraws from
    /// the admission queue. Running: every worker of the current attempt
    /// observes the token and unwinds. Either way [`QueryHandle::wait`]
    /// returns the typed
    /// [`HyracksError::Cancelled`](asterix_hyracks::HyracksError) carrying
    /// `reason`. Returns true if this call tripped a live token.
    pub fn cancel(&self, reason: &str) -> bool {
        let handle_tripped = self.shared.control.token.cancel(reason);
        let attempt = self.shared.control.attempt.lock().clone();
        let attempt_tripped = attempt.is_some_and(|t| t.cancel(reason));
        handle_tripped || attempt_tripped
    }

    /// Blocks until the query finishes and returns its rows (or its typed
    /// error). The outcome is consumed: a second `wait` reports an error.
    pub fn wait(&self) -> Result<Vec<Value>> {
        let outcome = {
            let mut st = self.shared.state.lock();
            while !st.done {
                st = self.shared.cv.wait(st);
            }
            st.outcome.take()
        };
        // Reap the worker thread (first waiter only; harmless if detached).
        let worker = self.worker.lock().take();
        if let Some(jh) = worker {
            let _ = asterix_storage::lock_order::join(jh);
        }
        match outcome {
            Some(r) => r,
            None => Err(CoreError::Unsupported(
                "query outcome already consumed by an earlier wait()".into(),
            )),
        }
    }

    /// Per-operator profile tree of *this* query, available once it
    /// completes successfully. Never shows another query's tree.
    pub fn profile(&self) -> Option<JobProfile> {
        self.shared.state.lock().profile.clone()
    }
}

/// A client session: the unit of result isolation. Queries submitted through
/// a session return their rows and profiles only through their own
/// [`QueryHandle`]s. Sessions are cheap (an instance handle plus an id) and
/// independent — one per simulated client.
pub struct Session {
    instance: Instance,
    id: u64,
}

impl Session {
    pub(crate) fn new(instance: Instance, id: u64) -> Session {
        Session { instance, id }
    }

    /// This session's instance-unique id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// Submits one SQL++ query with default options. Parse errors and
    /// admission rejections ([`CoreError::Saturated`]) surface synchronously;
    /// execution errors surface from [`QueryHandle::wait`].
    pub fn submit(&self, text: &str) -> Result<QueryHandle> {
        self.submit_with(text, QueryOptions::default())
    }

    /// Submits one SQL++ query with an explicit memory budget / deadline.
    pub fn submit_with(&self, text: &str, opts: QueryOptions) -> Result<QueryHandle> {
        // Parse up front: a malformed query is the submitter's error and
        // should be typed and synchronous, not deferred to `wait`.
        let query = self.instance.parse_single_query(text)?;
        let submission = self.instance.enqueue_query(query, &opts)?;
        let id = submission.ticket.id;
        let shared = Arc::new(HandleShared {
            state: Mutex::new(HandleState { done: false, outcome: None, profile: None }),
            cv: Condvar::new(),
            control: QueryControl::new(),
        });
        let instance = self.instance.clone();
        let worker_shared = Arc::clone(&shared);
        let worker = std::thread::Builder::new()
            .name(format!("serve-q{id}"))
            .spawn(move || {
                let result = instance.run_query_profiled(submission, &worker_shared.control);
                let mut st = worker_shared.state.lock();
                match result {
                    Ok((rows, profile)) => {
                        st.outcome = Some(Ok(rows));
                        st.profile = Some(profile);
                    }
                    Err(e) => st.outcome = Some(Err(e)),
                }
                st.done = true;
                drop(st);
                worker_shared.cv.notify_all();
            })
            .map_err(CoreError::Io)?;
        Ok(QueryHandle {
            id,
            session: self.id,
            shared,
            worker: Mutex::new(Some(worker)),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eager_admission_reserves_and_ticket_drop_rolls_back() {
        let reg = MetricsRegistry::new();
        let sched = QueryScheduler::new(SchedulerConfig::default(), &reg);
        let ticket = sched.enqueue(1 << 20).expect("admit");
        let snap = sched.pool_snapshot();
        assert_eq!(snap.running, 1);
        assert_eq!(snap.free_memory, snap.total_memory - (1 << 20));
        drop(ticket); // never redeemed: reservation must roll back
        let snap = sched.pool_snapshot();
        assert_eq!(snap.running, 0);
        assert_eq!(snap.free_memory, snap.total_memory);
    }

    fn expect_saturated(r: Result<Ticket>) -> CoreError {
        match r {
            Ok(_) => panic!("expected Saturated rejection, got an admission"),
            Err(e) => e,
        }
    }

    #[test]
    fn oversized_budget_and_full_queue_reject_typed() {
        let reg = MetricsRegistry::new();
        let cfg = SchedulerConfig {
            total_memory: 1024,
            default_query_memory: 512,
            max_concurrent: 1,
            queue_depth: 1,
        };
        let sched = QueryScheduler::new(cfg, &reg);
        let err = expect_saturated(sched.enqueue(2048));
        assert!(matches!(err, CoreError::Saturated(_)), "got {err}");
        assert!(!err.is_transient(), "backpressure must not be retried");
        // Fill the running slot and the one queue slot, then overflow.
        let _running = sched.enqueue(512).expect("eager");
        let _queued = sched.enqueue(512).expect("queued");
        let err = expect_saturated(sched.enqueue(512));
        assert!(matches!(err, CoreError::Saturated(_)), "got {err}");
        assert_eq!(reg.snapshot().counter("core.serving.rejected"), Some(2));
    }
}
