//! The job executor: operator partitions run as cooperative *actors* on a
//! shared work-stealing worker pool ([`crate::sched`]), each step bounded
//! to one morsel of tuples (push-based dataflow, as in Hyracks — but
//! degree of parallelism is a scheduling decision, not a thread count).
//!
//! Connectors materialize as an S×D matrix of frame buffers (*edges*) per
//! dataflow edge; producers route tuples by the connector strategy,
//! consumers read their column. Nothing ever blocks an OS thread: an actor
//! with no input or no output room returns `Idle` and is re-queued when a
//! neighbor pushes a frame, drains past the capacity watermark, or closes
//! its side of the edge. Early termination (e.g. LIMIT satisfied)
//! propagates upstream naturally: a finished consumer marks its edges gone
//! and producers stop gracefully on the next push.
//!
//! How an operator is driven is not known here: every actor holds an
//! [`ops::Running`] state machine built from its `OpKind`, and a step is one
//! call of its `pump` over this actor's ports and router, bounded to one
//! morsel. Blocking operators (sort, join build, group-by, …) consume as
//! they are fed and spill at their own budget, so nothing in this module
//! grows with the size of an operator's input.
//!
//! Cancellation is polled once per morsel at the top of every step — no
//! strided in-loop checks and no 50ms channel-timeout re-poll loops — so
//! cancel latency is bounded by one morsel.

use crate::cancel::CancellationToken;
use crate::ctx::RuntimeCtx;
use crate::error::{HyracksError, Result};
use crate::faults::{FrameAction, WorkerFaultState};
use crate::frame::{tuple_size, FrameBuilder, Tuple};
use crate::job::{cmp_tuples, ConnStrategy, JobSpec, SortKey};
use crate::ops::{self, Flow, OpCtx, Polled};
use crate::sched::{self, WorkerPool, MORSEL_TUPLES};
use asterix_adm::compare::hash64_iter;
use asterix_adm::ColumnBatch;
use asterix_obs::{Counter, JobProfile, OpMetrics, OperatorProfile};
use asterix_storage::lock_order::{Condvar, Mutex};
use std::collections::VecDeque;
use std::sync::atomic::{AtomicUsize, Ordering as AtomicOrdering};
use std::sync::{Arc, OnceLock, Weak};
use std::time::Duration;

/// Frames buffered per edge before the producer is asked to yield. Soft:
/// room is checked *before* a producing step, so a step's own output may
/// overshoot by up to one morsel — bounded, and it keeps the per-push path
/// branch-free.
const CHANNEL_CAP: usize = 8;

/// How often the submitting thread re-checks the job token while waiting
/// for the actor graph to drain (it is normally woken by the last actor).
const COMPLETION_POLL: Duration = Duration::from_millis(2);

/// Wakes actors when their neighborhood changes. Implemented by the live
/// job (resolving actor indices against the worker pool) and by [`NoWake`]
/// where there are no edges.
pub(crate) trait Notifier {
    fn notify_task(&self, idx: usize);
}

/// The notifier of an operator driven outside a job.
pub(crate) struct NoWake;

impl Notifier for NoWake {
    fn notify_task(&self, _idx: usize) {}
}

/// Shared state of one dataflow edge between a producer actor and a
/// consumer actor. The executor's replacement for a bounded channel: a
/// plain frame queue plus explicit end-of-stream / consumer-gone flags,
/// mutated only inside short lock scopes (actors never block on it).
#[derive(Default)]
struct EdgeState {
    frames: VecDeque<ColumnBatch>,
    /// Producer finished *cleanly*: every frame it ever shipped is in
    /// `frames` (or already consumed). End-of-stream is a flag on the edge,
    /// not an in-band marker frame, so it can never be confused with data
    /// and never occupies queue room.
    eos: bool,
    /// Producer is done writing (cleanly or not). `closed && !eos` is the
    /// dirty-death signal: the producer died mid-stream and the frames
    /// seen so far may be a silent truncation of the real result.
    closed: bool,
    /// Consumer finished (early or otherwise): producers drop output for
    /// this edge and treat an all-gone fanout as a request to stop.
    consumer_gone: bool,
}

struct Edge {
    state: Mutex<EdgeState>,
    /// Task index of the producer actor (notified when the consumer drains
    /// past the capacity watermark or goes away).
    src_task: usize,
    /// Task index of the consumer actor (notified on push/close).
    dst_task: usize,
}

/// A producer vanished before flagging end-of-stream. If the job token
/// already tripped, the disconnect is just an echo of that cancellation —
/// report the cause, not the symptom. Otherwise the producer died dirty
/// and the consumer must not pass off the truncated stream as complete.
fn dirty_disconnect(token: &CancellationToken, idx: usize) -> HyracksError {
    if let Err(e) = token.check() {
        return e;
    }
    HyracksError::UpstreamFailure(format!(
        "producer {idx} disconnected without end-of-stream (died mid-stream)"
    ))
}

fn note_in_frame(m: &mut OpMetrics, f: &ColumnBatch) {
    m.frames_in += 1;
    m.tuples_in += f.rows() as u64;
    m.bytes_in += f.heap_size() as u64;
}

/// What one look at an edge found.
enum Popped {
    Frame(ColumnBatch),
    /// The producer finished cleanly and every frame is consumed.
    Done,
    /// The producer died mid-stream.
    Dirty,
    /// Nothing yet.
    Empty,
}

/// Takes the next frame off `edge`, waking its producer when that frees room
/// below the capacity watermark.
fn pop(edge: &Edge, job: &dyn Notifier) -> Popped {
    let mut st = edge.state.lock();
    let Some(f) = st.frames.pop_front() else {
        return match (st.closed, st.eos) {
            (true, true) => Popped::Done,
            (true, false) => Popped::Dirty,
            (false, _) => Popped::Empty,
        };
    };
    let wake = st.frames.len() == CHANNEL_CAP - 1;
    drop(st);
    if wake {
        job.notify_task(edge.src_task);
    }
    Popped::Frame(f)
}

/// Arrival-order input port: pops frames from any live edge with a
/// rotating sweep (no producer starves the others).
struct AnyPort {
    edges: Vec<Arc<Edge>>,
    /// Indices into `edges` still open.
    live: Vec<usize>,
    cursor: usize,
}

impl AnyPort {
    fn new(edges: Vec<Arc<Edge>>) -> Self {
        let live = (0..edges.len()).collect();
        AnyPort { edges, live, cursor: 0 }
    }

    fn poll(
        &mut self,
        job: &dyn Notifier,
        token: &CancellationToken,
        m: &mut OpMetrics,
    ) -> Result<Polled> {
        let n = self.live.len();
        let mut retired = false;
        let mut got = None;
        for k in 0..n {
            let slot = (self.cursor + k) % n;
            let ei = self.live[slot];
            match pop(&self.edges[ei], job) {
                Popped::Frame(f) => {
                    self.cursor = (slot + 1) % n;
                    got = Some(f);
                    break;
                }
                Popped::Done => {
                    self.live[slot] = usize::MAX;
                    retired = true;
                }
                Popped::Dirty => return Err(dirty_disconnect(token, ei)),
                Popped::Empty => {}
            }
        }
        if retired {
            self.live.retain(|&i| i != usize::MAX);
            self.cursor = 0;
        }
        Ok(match got {
            Some(f) => {
                note_in_frame(m, &f);
                Polled::Batch(f)
            }
            None if self.live.is_empty() => Polled::End,
            None => Polled::Pending,
        })
    }
}

/// One producer leg of a merge-sorted port: the rows of its current frame.
struct MergeLeg {
    edge: Arc<Edge>,
    buffer: VecDeque<Tuple>,
    done: bool,
}

/// Order-preserving gather: emits the global minimum across per-producer
/// sorted streams, gathered into frames. Can only emit when every open leg
/// has a buffered tuple, so an empty open leg ends the frame at hand, or
/// makes the whole port `Pending`.
struct MergePort {
    keys: Vec<SortKey>,
    legs: Vec<MergeLeg>,
}

impl MergePort {
    fn new(edges: Vec<Arc<Edge>>, keys: Vec<SortKey>) -> Self {
        let legs = edges
            .into_iter()
            .map(|edge| MergeLeg { edge, buffer: VecDeque::new(), done: false })
            .collect();
        MergePort { keys, legs }
    }

    /// Refills every open leg that has no row; `false` when one of them has
    /// none to give yet.
    fn refill(&mut self, job: &dyn Notifier, token: &CancellationToken, m: &mut OpMetrics) -> Result<bool> {
        for (li, leg) in self.legs.iter_mut().enumerate() {
            while leg.buffer.is_empty() && !leg.done {
                match pop(&leg.edge, job) {
                    Popped::Frame(f) => {
                        note_in_frame(m, &f);
                        leg.buffer.extend(f.into_rows());
                    }
                    Popped::Done => leg.done = true,
                    Popped::Dirty => return Err(dirty_disconnect(token, li)),
                    Popped::Empty => return Ok(false),
                }
            }
        }
        Ok(true)
    }

    fn poll(
        &mut self,
        job: &dyn Notifier,
        token: &CancellationToken,
        m: &mut OpMetrics,
    ) -> Result<Polled> {
        let mut frame = FrameBuilder::default();
        loop {
            if !self.refill(job, token, m)? {
                return Ok(if frame.is_empty() { Polled::Pending } else { Polled::Batch(frame.take()?) });
            }
            let mut best: Option<usize> = None;
            for (i, leg) in self.legs.iter().enumerate() {
                let Some(t) = leg.buffer.front() else { continue };
                if best.is_none_or(|b| cmp_tuples(t, &self.legs[b].buffer[0], &self.keys).is_lt()) {
                    best = Some(i);
                }
            }
            let Some(i) = best else {
                return Ok(if frame.is_empty() { Polled::End } else { Polled::Batch(frame.take()?) });
            };
            if !frame.fits(&self.legs[i].buffer[0]) {
                return Ok(Polled::Batch(frame.take()?));
            }
            let Some(t) = self.legs[i].buffer.pop_front() else { continue };
            let size = tuple_size(&t);
            if frame.push(t, size) {
                return Ok(Polled::Batch(frame.take()?));
            }
        }
    }
}

/// An actor's input port.
enum InPort {
    Any(AnyPort),
    Merge(MergePort),
}

impl ops::Input for InPort {
    fn poll(&mut self, cx: &mut OpCtx<'_>) -> Result<Polled> {
        match self {
            InPort::Any(p) => p.poll(cx.wake, cx.token, cx.metrics),
            InPort::Merge(p) => p.poll(cx.wake, cx.token, cx.metrics),
        }
    }
}

impl InPort {
    fn for_edges(&self, f: &mut dyn FnMut(&Arc<Edge>)) {
        match self {
            InPort::Any(p) => {
                for e in &p.edges {
                    f(e);
                }
            }
            InPort::Merge(p) => {
                for leg in &p.legs {
                    f(&leg.edge);
                }
            }
        }
    }
}

/// Routes an actor's output to its consumer edges by the connector strategy.
/// A batch goes whole where all of it goes to one consumer; rows emitted one
/// at a time, and the rows of a batch a connector places one by one, are
/// gathered per destination into frames, each shipped as a batch once it
/// passes [`crate::frame::FRAME_BUDGET`]. Partial frames persist across
/// steps, so frame boundaries match the thread-per-partition executor's
/// exactly (deterministic profile counts). An operator nobody consumes (the
/// result sink; an operator driven outside a job) has a router without
/// edges, which collects what it is given.
pub(crate) struct Router {
    strategy: ConnStrategy,
    edges: Vec<Arc<Edge>>,
    buffers: Vec<FrameBuilder>,
    collected: Vec<Tuple>,
    /// A push found every consumer gone: nothing more is worth shipping.
    all_gone: bool,
    my_partition: usize,
    tuples_moved: Counter,
    tuples_exchanged: Counter,
    batch_rows: Counter,
    /// Injected fault plan for this actor, if a chaos schedule is active.
    faults: Option<WorkerFaultState>,
    /// A sever fault fired: swallow all further output *and* the clean
    /// end-of-stream flag, so consumers observe a dirty disconnect.
    severed: bool,
}

impl Router {
    fn new(
        strategy: ConnStrategy,
        edges: Vec<Arc<Edge>>,
        my_partition: usize,
        ctx: &RuntimeCtx,
        faults: Option<WorkerFaultState>,
    ) -> Self {
        let buffers = edges.iter().map(|_| FrameBuilder::default()).collect();
        Router {
            strategy,
            edges,
            buffers,
            collected: Vec::new(),
            all_gone: false,
            my_partition,
            tuples_moved: ctx.stats.tuples_moved.clone(),
            tuples_exchanged: ctx.stats.tuples_exchanged.clone(),
            batch_rows: ctx.stats.batch_rows.clone(),
            faults,
            severed: false,
        }
    }

    /// A router without edges: every tuple pushed is kept for
    /// [`Router::take_collected`].
    pub(crate) fn collector(ctx: &RuntimeCtx) -> Self {
        Router::new(ConnStrategy::OneToOne, Vec::new(), 0, ctx, None)
    }

    pub(crate) fn take_collected(&mut self) -> Vec<Tuple> {
        std::mem::take(&mut self.collected)
    }

    /// True once a push has found every consumer gone.
    pub(crate) fn all_gone(&self) -> bool {
        self.all_gone
    }

    /// Start-of-actor fault hook (fail-first-attempt schedules).
    fn fault_start(&mut self) -> Result<()> {
        if let Some(f) = self.faults.as_mut() {
            f.at_start()?;
        }
        Ok(())
    }

    /// True when every non-gone out edge has room for another frame.
    /// Checked *before* a producing step; pushes within a step always
    /// succeed (bounded overshoot of one morsel).
    fn has_room(&self) -> bool {
        self.edges.iter().all(|e| {
            let st = e.state.lock();
            st.consumer_gone || st.frames.len() < CHANNEL_CAP
        })
    }

    /// Pushes one tuple; returns `false` when every consumer is gone (the
    /// actor should stop producing).
    #[inline]
    pub(crate) fn push(&mut self, job: &dyn Notifier, m: &mut OpMetrics, t: Tuple) -> Result<bool> {
        if self.edges.is_empty() {
            m.tuples_out += 1;
            self.collected.push(t);
            return Ok(true);
        }
        let alive = self.route(job, m, t)?;
        self.all_gone = !alive;
        Ok(alive)
    }

    /// Pushes the rows in play of a batch. Where they all go to one consumer
    /// (one-to-one, gather) the batch is shipped as it is, one frame, behind
    /// the rows buffered before it; a connector that places tuples one by
    /// one (hash, broadcast, sorted merge) and the result collector are
    /// handed the rows, built here, once.
    pub(crate) fn push_batch(&mut self, job: &dyn Notifier, m: &mut OpMetrics, batch: ColumnBatch) -> Result<bool> {
        let dst = match self.strategy {
            _ if self.edges.is_empty() => None,
            ConnStrategy::OneToOne => Some(self.my_partition),
            ConnStrategy::Gather => Some(0),
            _ => None,
        };
        let Some(dst) = dst else {
            for t in batch.into_rows() {
                if !self.push(job, m, t)? {
                    return Ok(false);
                }
            }
            return Ok(true);
        };
        let rows = batch.rows() as u64;
        m.tuples_out += rows;
        m.bytes_out += batch.heap_size() as u64;
        self.batch_rows.add(rows);
        if self.strategy != ConnStrategy::OneToOne {
            self.tuples_exchanged.add(rows);
        }
        let alive = self.flush(job, m, dst)? && self.ship(job, m, dst, batch)?;
        self.all_gone = !alive;
        Ok(alive)
    }

    fn route(&mut self, job: &dyn Notifier, m: &mut OpMetrics, t: Tuple) -> Result<bool> {
        self.tuples_moved.inc();
        if !matches!(self.strategy, ConnStrategy::OneToOne) {
            self.tuples_exchanged.inc();
        }
        let size = tuple_size(&t);
        m.tuples_out += 1;
        m.bytes_out += size as u64;
        match &self.strategy {
            ConnStrategy::OneToOne => self.buffer_to(job, m, self.my_partition, t, size),
            ConnStrategy::Gather | ConnStrategy::MergeSorted(_) => {
                self.buffer_to(job, m, 0, t, size)
            }
            ConnStrategy::Hash(cols) => {
                let h = hash64_iter(cols.iter().map(|c| &t[*c]), cols.len());
                let dst = (h % self.edges.len() as u64) as usize;
                self.buffer_to(job, m, dst, t, size)
            }
            ConnStrategy::Broadcast => {
                // Clone for all destinations but the last, which takes the
                // tuple by move.
                let mut any_alive = false;
                let last = self.edges.len() - 1;
                for d in 0..last {
                    if self.buffer_to(job, m, d, t.clone(), size)? {
                        any_alive = true;
                    }
                }
                if self.buffer_to(job, m, last, t, size)? {
                    any_alive = true;
                }
                Ok(any_alive)
            }
        }
    }

    fn buffer_to(
        &mut self,
        job: &dyn Notifier,
        m: &mut OpMetrics,
        dst: usize,
        t: Tuple,
        size: usize,
    ) -> Result<bool> {
        if !self.buffers[dst].fits(&t) && !self.flush(job, m, dst)? {
            return Ok(false);
        }
        if self.buffers[dst].push(t, size) {
            return self.flush(job, m, dst);
        }
        Ok(true)
    }

    fn flush(&mut self, job: &dyn Notifier, m: &mut OpMetrics, dst: usize) -> Result<bool> {
        if self.buffers[dst].is_empty() {
            return Ok(true);
        }
        let frame = self.buffers[dst].take()?;
        self.ship(job, m, dst, frame)
    }

    /// Puts `frame` on the edge to consumer `dst`; `false` when it is gone.
    fn ship(&mut self, job: &dyn Notifier, m: &mut OpMetrics, dst: usize, frame: ColumnBatch) -> Result<bool> {
        m.frames_out += 1;
        if let Some(n) = m.frames_routed.get_mut(dst) {
            *n += 1;
        }
        if self.severed {
            return Ok(true); // output silently dropped from the sever point on
        }
        if let Some(f) = self.faults.as_mut() {
            match f.on_frame()? {
                FrameAction::Deliver => {}
                FrameAction::DropRest => {
                    self.severed = true;
                    return Ok(true);
                }
            }
        }
        let gone = {
            let mut st = self.edges[dst].state.lock();
            if st.consumer_gone {
                true
            } else {
                st.frames.push_back(frame);
                false
            }
        };
        if gone {
            return Ok(false);
        }
        job.notify_task(self.edges[dst].dst_task);
        Ok(true)
    }

    /// Flushes every partial frame (the operator finished). A router whose
    /// consumers are all gone has nobody to flush to.
    fn flush_all(&mut self, job: &dyn Notifier, m: &mut OpMetrics) -> Result<()> {
        if self.all_gone {
            return Ok(());
        }
        for d in 0..self.edges.len() {
            let _ = self.flush(job, m, d)?;
        }
        Ok(())
    }
}

/// Outcome of an executed job: the result tuples delivered to the sink and
/// the per-operator profile tree.
#[derive(Debug)]
pub struct JobResult {
    pub tuples: Vec<Tuple>,
    pub profile: JobProfile,
}

/// Execution options for [`run_job_with`].
#[derive(Default)]
pub struct JobOptions {
    /// External cancellation token; a fresh one is created when `None`.
    pub token: Option<CancellationToken>,
    /// Relative deadline, measured on the context clock from job start.
    pub deadline: Option<Duration>,
}

/// Ranks errors for reporting: the true root cause outranks the cascade it
/// triggers (induced sibling cancellations rank last).
fn error_rank(e: &HyracksError) -> u8 {
    match e {
        HyracksError::Cancelled(_) => 3,
        HyracksError::DeadlineExceeded { .. } => 2,
        HyracksError::UpstreamFailure(_) => 1,
        _ => 0,
    }
}

/// Mutable state of one operator-partition actor.
struct ActorBody {
    op_id: usize,
    partition: usize,
    label: String,
    started: bool,
    finished: bool,
    /// Clock reading when the actor last went idle (drained into
    /// `metrics.queue_wait_ns` on the next step).
    wait_since: Option<u64>,
    metrics: OpMetrics,
    run: ops::Running,
    in_ports: Vec<InPort>,
    router: Router,
}

/// One operator-partition as a schedulable task.
struct ActorTask {
    job: Weak<JobInner>,
    core: sched::TaskCore,
    body: Mutex<ActorBody>,
}

/// Shared state of one running job.
struct JobInner {
    ctx: Arc<RuntimeCtx>,
    token: CancellationToken,
    pool: Arc<WorkerPool>,
    tasks: OnceLock<Vec<Arc<ActorTask>>>,
    remaining: AtomicUsize,
    done: Mutex<bool>,
    done_cv: Condvar,
    results: Mutex<Vec<Tuple>>,
    /// Lowest-ranked (most causal) error seen so far, with its rank.
    error: Mutex<Option<(u8, HyracksError)>>,
}

impl Notifier for JobInner {
    fn notify_task(&self, idx: usize) {
        if let Some(tasks) = self.tasks.get() {
            if let Some(t) = tasks.get(idx) {
                let task: Arc<dyn sched::Task> = Arc::clone(t) as Arc<dyn sched::Task>;
                sched::notify(&task, &self.pool);
            }
        }
    }
}

impl JobInner {
    /// Wakes every unfinished actor (used after a token trip so idle
    /// actors observe the cancellation instead of waiting forever).
    fn sweep_notify(&self) {
        if let Some(tasks) = self.tasks.get() {
            for t in tasks {
                if !t.core.is_done() {
                    let task: Arc<dyn sched::Task> = Arc::clone(t) as Arc<dyn sched::Task>;
                    sched::notify(&task, &self.pool);
                }
            }
        }
    }
}

impl sched::Task for ActorTask {
    fn core(&self) -> &sched::TaskCore {
        &self.core
    }

    fn step(&self) -> sched::Step {
        let Some(job) = self.job.upgrade() else {
            // The job completed and was torn down; this is a stale queue
            // entry left behind by a late notification.
            return sched::Step::Finished;
        };
        let mut body = self.body.lock();
        if body.finished {
            return sched::Step::Finished;
        }
        let clock = Arc::clone(&job.ctx.clock);
        if let Some(w) = body.wait_since.take() {
            body.metrics.queue_wait_ns += clock.now_ns().saturating_sub(w);
        }
        let step_start = clock.now_ns();
        let first = !body.started;
        body.started = true;
        let body_ref = &mut *body;
        let flow = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let ActorBody { run, in_ports, router, metrics, .. } = body_ref;
            if first {
                // Fail-first-attempt faults fire for every routed actor,
                // before the token check — the chaos schedule outranks the
                // sibling cancellations it triggers.
                router.fault_start()?;
            }
            // The per-morsel cancellation poll: exactly one check per step.
            job.token.check()?;
            if !router.has_room() {
                return Ok(Flow::Idle);
            }
            let mut cx =
                OpCtx { metrics, token: &job.token, ctx: &job.ctx, out: router, wake: &*job, spent: 0 };
            let flow = run.pump(in_ports, &mut cx, MORSEL_TUPLES)?;
            if flow == Flow::Finished {
                router.flush_all(&*job, metrics)?;
            }
            Ok(flow)
        }));
        body.metrics.compute_ns += clock.now_ns().saturating_sub(step_start);
        match flow {
            Ok(Ok(Flow::Again)) => sched::Step::Again,
            Ok(Ok(Flow::Idle)) => {
                body.wait_since = Some(clock.now_ns());
                sched::Step::Idle
            }
            Ok(Ok(Flow::Finished)) => {
                finish_actor(&job, &mut body, Ok(()));
                sched::Step::Finished
            }
            Ok(Err(e)) => {
                finish_actor(&job, &mut body, Err(e));
                sched::Step::Finished
            }
            Err(panic) => {
                let msg = panic
                    .downcast_ref::<&str>()
                    .map(|s| s.to_string())
                    .or_else(|| panic.downcast_ref::<String>().cloned())
                    .unwrap_or_else(|| "unknown panic".into());
                // Keep PR-5's reap guarantee: a panicking actor cancels
                // the job so siblings wind down, and finishes itself typed
                // — the pool thread survives.
                job.token.cancel(&format!("worker {} panicked", body.label));
                let e = HyracksError::WorkerPanic(format!("{}: {msg}", body.label));
                finish_actor(&job, &mut body, Err(e));
                sched::Step::Finished
            }
        }
    }
}

/// Tears one actor down: closes its out edges (clean or dirty) or hands
/// what it collected to the job, releases its in edges, records its error,
/// and completes the job when it was the last actor standing.
fn finish_actor(job: &JobInner, body: &mut ActorBody, result: Result<()>) {
    body.finished = true;
    let clean = result.is_ok() && !body.router.severed;
    for e in &body.router.edges {
        let dst = {
            let mut st = e.state.lock();
            if st.closed {
                None
            } else {
                st.closed = true;
                st.eos = clean;
                Some(e.dst_task)
            }
        };
        if let Some(d) = dst {
            job.notify_task(d);
        }
    }
    if clean {
        job.results.lock().extend(body.router.take_collected());
    }
    for port in &body.in_ports {
        port.for_edges(&mut |e| {
            let src = {
                let mut st = e.state.lock();
                if st.consumer_gone {
                    None
                } else {
                    st.consumer_gone = true;
                    // Already-shipped frames will never be read; drop them
                    // so memory is released promptly.
                    st.frames.clear();
                    Some(e.src_task)
                }
            };
            if let Some(s) = src {
                job.notify_task(s);
            }
        });
    }
    if let Err(e) = result {
        let rank = error_rank(&e);
        if rank <= 1 {
            // Fail-fast: the first failing partition cancels its siblings.
            job.token.cancel(&format!("partition {} failed: {e}", body.label));
        }
        {
            let mut slot = job.error.lock();
            let replace = match slot.as_ref() {
                None => true,
                Some((r, _)) => rank < *r,
            };
            if replace {
                *slot = Some((rank, e));
            }
        }
    }
    if job.remaining.fetch_sub(1, AtomicOrdering::SeqCst) == 1 {
        let mut done = job.done.lock();
        *done = true;
        job.done_cv.notify_all();
    }
}

/// Executes a validated job to completion (no external token, no deadline).
pub fn run_job(spec: JobSpec, ctx: Arc<RuntimeCtx>) -> Result<JobResult> {
    run_job_with(spec, ctx, JobOptions::default())
}

/// Executes a validated job to completion under `opts`.
///
/// Lifecycle: every actor polls the job token (supplied or fresh) once
/// per morsel; whoever supplied it can cancel the job through it. The
/// first failing partition cancels it, so siblings stop fail-fast. Every actor reaches a terminal state before
/// this returns — on success, error, and panic paths alike.
pub fn run_job_with(spec: JobSpec, ctx: Arc<RuntimeCtx>, opts: JobOptions) -> Result<JobResult> {
    let token = opts.token.unwrap_or_default();
    if let Some(d) = opts.deadline {
        let now = ctx.clock.now_ns();
        token.set_deadline(
            Arc::clone(&ctx.clock),
            now.saturating_add(u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)),
        );
    }
    let out = run_job_inner(spec, &ctx, &token);
    // Lifecycle accounting: exactly one outcome counter per job run.
    let outcome = match &out {
        Ok(_) => "hyracks.lifecycle.completed",
        Err(HyracksError::Cancelled(_)) => "hyracks.lifecycle.cancelled",
        Err(HyracksError::DeadlineExceeded { .. }) => "hyracks.lifecycle.deadline_exceeded",
        Err(HyracksError::UpstreamFailure(_)) => "hyracks.lifecycle.upstream_failures",
        Err(HyracksError::InjectedFault(_)) => "hyracks.lifecycle.injected_faults",
        Err(HyracksError::WorkerPanic(_)) => "hyracks.lifecycle.worker_panics",
        Err(_) => "hyracks.lifecycle.failed",
    };
    ctx.registry().counter(outcome).inc();
    out
}

fn run_job_inner(
    spec: JobSpec,
    ctx: &Arc<RuntimeCtx>,
    token: &CancellationToken,
) -> Result<JobResult> {
    spec.validate()?;
    // Pre-flight: a pre-cancelled token or an already-expired deadline
    // fails here, before any task is enqueued.
    token.check()?;
    let job_start = ctx.clock.now_ns();
    if let Some(f) = ctx.dataflow_faults() {
        f.begin_attempt();
    }
    let pool = ctx.worker_pool();
    // Task index per operator-partition: ops expand in declaration order.
    let mut offsets = Vec::with_capacity(spec.ops.len());
    let mut total = 0usize;
    for op in &spec.ops {
        offsets.push(total);
        total += op.partitions;
    }
    // Edge matrix per connector: [src_partition][dst_partition].
    let mut conn_edges: Vec<Vec<Vec<Arc<Edge>>>> = Vec::with_capacity(spec.connectors.len());
    for c in &spec.connectors {
        let sp = spec.ops[c.src].partitions;
        let dp = spec.ops[c.dst].partitions;
        let rows = (0..sp)
            .map(|s| {
                (0..dp)
                    .map(|d| {
                        Arc::new(Edge {
                            state: Mutex::new(EdgeState::default()),
                            src_task: offsets[c.src] + s,
                            dst_task: offsets[c.dst] + d,
                        })
                    })
                    .collect()
            })
            .collect();
        conn_edges.push(rows);
    }
    let inner = Arc::new(JobInner {
        ctx: Arc::clone(ctx),
        token: token.clone(),
        pool: Arc::clone(&pool),
        tasks: OnceLock::new(),
        remaining: AtomicUsize::new(total),
        done: Mutex::new(false),
        done_cv: Condvar::new(),
        results: Mutex::new(Vec::new()),
        error: Mutex::new(None),
    });
    // Wire one actor per operator-partition. Wiring errors surface before
    // any task is enqueued.
    let mut tasks: Vec<Arc<ActorTask>> = Vec::with_capacity(total);
    for (op_id, op) in spec.ops.iter().enumerate() {
        let out_conn = spec.connectors.iter().enumerate().find(|(_, c)| c.src == op_id);
        for p in 0..op.partitions {
            let label = format!("{}#{p}", op.label);
            let arity = op.kind.arity();
            let mut in_ports = Vec::with_capacity(arity);
            for port in 0..arity {
                let Some((ci, conn)) = spec
                    .connectors
                    .iter()
                    .enumerate()
                    .find(|(_, c)| c.dst == op_id && c.dst_port == port)
                else {
                    return Err(HyracksError::InvalidJob(format!(
                        "no connector feeds op {op_id} port {port}"
                    )));
                };
                let col: Vec<Arc<Edge>> =
                    conn_edges[ci].iter().map(|row| Arc::clone(&row[p])).collect();
                in_ports.push(match &conn.strategy {
                    ConnStrategy::MergeSorted(keys) => {
                        InPort::Merge(MergePort::new(col, keys.clone()))
                    }
                    _ => InPort::Any(AnyPort::new(col)),
                });
            }
            let router = match out_conn {
                Some((ci, conn)) => {
                    let row = conn_edges[ci][p].clone();
                    let faults = ctx
                        .dataflow_faults()
                        .map(|f| WorkerFaultState::new(Arc::clone(f), label.clone(), p));
                    Router::new(conn.strategy.clone(), row, p, ctx, faults)
                }
                // Only the result sink has no consumer: its output is the
                // job's result.
                None => Router::collector(ctx),
            };
            let metrics =
                OpMetrics { frames_routed: vec![0; router.edges.len()], ..OpMetrics::default() };
            let body = ActorBody {
                op_id,
                partition: p,
                label,
                started: false,
                finished: false,
                wait_since: None,
                metrics,
                run: ops::Running::new(op.kind.operator(p)),
                in_ports,
                router,
            };
            tasks.push(Arc::new(ActorTask {
                job: Arc::downgrade(&inner),
                core: sched::TaskCore::new(),
                body: Mutex::new(body),
            }));
        }
    }
    let _ = inner.tasks.set(tasks);
    // Kick every actor once; from here the graph drives itself through
    // push/drain/close notifications.
    if let Some(tasks) = inner.tasks.get() {
        for t in tasks {
            let task: Arc<dyn sched::Task> = Arc::clone(t) as Arc<dyn sched::Task>;
            sched::notify(&task, &pool);
        }
    }
    wait_done(&inner);
    // Harvest per-actor metrics into the per-operator slots.
    let mut per_op: Vec<Vec<OpMetrics>> =
        spec.ops.iter().map(|op| vec![OpMetrics::default(); op.partitions]).collect();
    let mut unfinished = 0u64;
    if let Some(tasks) = inner.tasks.get() {
        for t in tasks {
            let mut b = t.body.lock();
            if !b.finished {
                unfinished += 1;
            }
            let m = std::mem::take(&mut b.metrics);
            per_op[b.op_id][b.partition] = m;
        }
    }
    // PR-5's reap-everything guarantee, restated for actors: the job only
    // completes when every actor reached a terminal state.
    debug_assert_eq!(unfinished, 0, "job completed with unfinished actors");
    if unfinished != 0 {
        ctx.registry().counter("hyracks.lifecycle.leaked_workers").add(unfinished);
    }
    let first_err = {
        let mut slot = inner.error.lock();
        slot.take()
    };
    if let Some((_, e)) = first_err {
        return Err(e);
    }
    let tuples = std::mem::take(&mut *inner.results.lock());
    let elapsed_ns = ctx.clock.now_ns().saturating_sub(job_start);
    let profile = assemble_profile(&spec, per_op, elapsed_ns);
    Ok(JobResult { tuples, profile })
}

/// Blocks the submitting thread until the last actor completes. Re-checks
/// the job token on a short period so idle actors are woken to observe a
/// cancellation (or an expired deadline — the check also trips it).
fn wait_done(job: &JobInner) {
    loop {
        {
            let done = job.done.lock();
            if *done {
                return;
            }
            let (done, _) = job.done_cv.wait_for(done, COMPLETION_POLL);
            if *done {
                return;
            }
        }
        if job.token.check().is_err() {
            job.sweep_notify();
        }
    }
}

/// Builds the operator profile tree rooted at the result sink. Job specs
/// are trees (`validate` enforces a single consumer per operator), so each
/// operator's metrics are taken exactly once.
fn assemble_profile(spec: &JobSpec, per_op: Vec<Vec<OpMetrics>>, elapsed_ns: u64) -> JobProfile {
    let root_id = (0..spec.ops.len())
        .find(|&i| !spec.connectors.iter().any(|c| c.src == i))
        .unwrap_or(0);
    let mut per_op: Vec<Option<Vec<OpMetrics>>> = per_op.into_iter().map(Some).collect();
    let root = profile_node(spec, root_id, &mut per_op);
    JobProfile { elapsed_ns, root }
}

fn profile_node(
    spec: &JobSpec,
    op_id: usize,
    per_op: &mut Vec<Option<Vec<OpMetrics>>>,
) -> OperatorProfile {
    let mut feeds: Vec<(usize, usize)> = spec
        .connectors
        .iter()
        .filter(|c| c.dst == op_id)
        .map(|c| (c.dst_port, c.src))
        .collect();
    feeds.sort_unstable();
    let out_strategy = spec
        .connectors
        .iter()
        .find(|c| c.src == op_id)
        .map(|c| c.strategy.name().to_string());
    OperatorProfile {
        name: spec.ops[op_id].kind.name().to_string(),
        label: spec.ops[op_id].label.clone(),
        out_strategy,
        partitions: per_op.get_mut(op_id).and_then(Option::take).unwrap_or_default(),
        inputs: feeds.into_iter().map(|(_, src)| profile_node(spec, src, per_op)).collect(),
    }
}

/// Convenience: run a job and return result tuples sorted by `keys`
/// (handy in tests where gather order is nondeterministic).
pub fn run_job_sorted(spec: JobSpec, ctx: Arc<RuntimeCtx>, keys: &[SortKey]) -> Result<Vec<Tuple>> {
    let mut r = run_job(spec, ctx)?.tuples;
    r.sort_by(|a, b| cmp_tuples(a, b, keys));
    Ok(r)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::{AggFunc, AggSpec, FnSource, JoinKind, OpKind, SortKey};
    use asterix_adm::Value;
    use std::sync::atomic::AtomicU64;
    use std::sync::Arc;

    fn int_source(per_partition: i64) -> OpKind {
        OpKind::Source(Arc::new(FnSource(move |p: usize| {
            let base = p as i64 * per_partition;
            Ok(Box::new(
                (0..per_partition).map(move |i| Ok(vec![Value::Int(base + i), Value::Int((base + i) % 10)])),
            ) as Box<dyn Iterator<Item = Result<Tuple>> + Send>)
        })))
    }

    #[test]
    fn scan_filter_gather() {
        let mut j = JobSpec::new();
        let s = j.add(int_source(100), 4, "scan");
        let f = j.add(
            OpKind::Filter(Arc::new(|t: &Tuple| Ok(matches!(&t[0], Value::Int(i) if i % 2 == 0)))),
            4,
            "filter",
        );
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, f, 0, ConnStrategy::OneToOne);
        j.connect(f, r, 0, ConnStrategy::Gather);
        let out = run_job(j, RuntimeCtx::temp().unwrap()).unwrap().tuples;
        assert_eq!(out.len(), 200, "half of 400 across 4 partitions");
    }

    #[test]
    fn parallel_sort_with_merge_connector() {
        let mut j = JobSpec::new();
        let s = j.add(int_source(500), 4, "scan");
        let keys = vec![SortKey::desc(0)];
        let sort = j.add(OpKind::Sort { keys: keys.clone(), memory: 1 << 20 }, 4, "sort");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, sort, 0, ConnStrategy::OneToOne);
        j.connect(sort, r, 0, ConnStrategy::MergeSorted(keys.clone()));
        let out = run_job(j, RuntimeCtx::temp().unwrap()).unwrap().tuples;
        assert_eq!(out.len(), 2000);
        for w in out.windows(2) {
            assert!(
                cmp_tuples(&w[0], &w[1], &keys) != std::cmp::Ordering::Greater,
                "globally sorted via merge connector"
            );
        }
        assert_eq!(out[0][0], Value::Int(1999));
    }

    #[test]
    fn hash_partitioned_group_by() {
        let mut j = JobSpec::new();
        let s = j.add(int_source(250), 4, "scan");
        let g = j.add(
            OpKind::GroupBy {
                key_cols: vec![1],
                aggs: vec![AggSpec::complete(AggFunc::CountStar, 0)],
                memory: 1 << 20,
            },
            4,
            "group",
        );
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, g, 0, ConnStrategy::Hash(vec![1]));
        j.connect(g, r, 0, ConnStrategy::Gather);
        let out = run_job_sorted(j, RuntimeCtx::temp().unwrap(), &[SortKey::asc(0)]).unwrap();
        assert_eq!(out.len(), 10, "10 distinct group keys");
        for t in &out {
            assert_eq!(t[1], Value::Int(100), "each mod-10 class has 100 members");
        }
    }

    #[test]
    fn parallel_hash_join() {
        let mut j = JobSpec::new();
        let left = j.add(int_source(100), 2, "left");
        let right = j.add(
            OpKind::Source(Arc::new(FnSource(move |p: usize| {
                // keys 0..50 live in one logical stream split over 2 partitions
                Ok(Box::new((0..25).map(move |i| {
                    let k = p as i64 * 25 + i;
                    Ok(vec![Value::Int(k), Value::from(format!("r{k}"))])
                }))
                    as Box<dyn Iterator<Item = Result<Tuple>> + Send>)
            }))),
            2,
            "right",
        );
        let join = j.add(
            OpKind::HashJoin {
                left_keys: vec![0],
                right_keys: vec![0],
                kind: JoinKind::Inner,
                right_arity: 2,
                memory: 1 << 20,
            },
            2,
            "join",
        );
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(left, join, 0, ConnStrategy::Hash(vec![0]));
        j.connect(right, join, 1, ConnStrategy::Hash(vec![0]));
        j.connect(join, r, 0, ConnStrategy::Gather);
        let out = run_job(j, RuntimeCtx::temp().unwrap()).unwrap().tuples;
        assert_eq!(out.len(), 50, "left keys 0..200, right keys 0..50");
        assert!(out.iter().all(|t| t.len() == 4));
    }

    #[test]
    fn broadcast_join_small_build_side() {
        let mut j = JobSpec::new();
        let left = j.add(int_source(100), 3, "left");
        let right = j.add(
            OpKind::Source(Arc::new(FnSource(|p: usize| {
                if p == 0 {
                    Ok(Box::new((0..5).map(|i| Ok(vec![Value::Int(i), Value::from("x")])))
                        as Box<dyn Iterator<Item = Result<Tuple>> + Send>)
                } else {
                    Ok(Box::new(std::iter::empty())
                        as Box<dyn Iterator<Item = Result<Tuple>> + Send>)
                }
            }))),
            1,
            "right",
        );
        let join = j.add(
            OpKind::HashJoin {
                left_keys: vec![0],
                right_keys: vec![0],
                kind: JoinKind::Inner,
                right_arity: 2,
                memory: 1 << 20,
            },
            3,
            "join",
        );
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(left, join, 0, ConnStrategy::OneToOne);
        j.connect(right, join, 1, ConnStrategy::Broadcast);
        j.connect(join, r, 0, ConnStrategy::Gather);
        let out = run_job(j, RuntimeCtx::temp().unwrap()).unwrap().tuples;
        assert_eq!(out.len(), 5, "keys 0..5 exist only in partition 0 of left");
    }

    #[test]
    fn limit_stops_early() {
        let mut j = JobSpec::new();
        // huge source; limit must cut it off without consuming everything
        let produced = Arc::new(AtomicU64::new(0));
        let source = counting_source(1_000_000, None, &CancellationToken::new(), &produced);
        let s = j.add(source, 1, "scan");
        let l = j.add(OpKind::Limit { offset: 5, count: Some(10) }, 1, "limit");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, l, 0, ConnStrategy::OneToOne);
        j.connect(l, r, 0, ConnStrategy::Gather);
        let ctx = RuntimeCtx::temp().unwrap();
        let out = run_job(j, Arc::clone(&ctx)).unwrap().tuples;
        assert_eq!(out.len(), 10);
        assert_eq!(out[0][0], Value::Int(5), "offset skipped");
        let moved = ctx.stats.tuples_moved.get();
        assert!(moved < 100_000, "early termination pruned the scan ({moved} moved)");
        // What the source ran ahead by is bounded by the edge, not by its
        // size: the frames the edge holds plus the morsel it was in.
        let produced = produced.load(AtomicOrdering::SeqCst);
        assert!(produced < 100_000, "the source stopped early ({produced} produced)");
    }

    #[test]
    fn limit_stops_a_source_of_batches_within_one_batch() {
        // the same over a source that hands out 1 024 rows at a time, as
        // columns: the limit takes what it may emit out of the first batch —
        // no row is built for the others — and the source, a million rows
        // long, stops at what the edge holds
        let produced = Arc::new(AtomicU64::new(0));
        let batches = Arc::clone(&produced);
        let source = move |_p: usize| {
            let batches = Arc::clone(&batches);
            Ok(Box::new((0..1_000i64).map(move |b| {
                batches.fetch_add(1, AtomicOrdering::SeqCst);
                let mut ids = asterix_adm::Column::new();
                (0..1_024).for_each(|i| ids.push_int(b * 1_024 + i));
                Ok(crate::job::Produced::Batch(ColumnBatch::new(vec![ids], 1_024).unwrap()))
            })) as crate::job::SourceStream)
        };
        let mut j = JobSpec::new();
        let s = j.add(OpKind::Source(Arc::new(source)), 1, "scan");
        let l = j.add(OpKind::Limit { offset: 5, count: Some(10) }, 1, "limit");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, l, 0, ConnStrategy::OneToOne);
        j.connect(l, r, 0, ConnStrategy::Gather);
        let ctx = RuntimeCtx::temp().unwrap();
        let result = run_job(j, Arc::clone(&ctx)).unwrap();
        let got: Vec<i64> = result.tuples.iter().map(|t| t[0].as_i64().unwrap()).collect();
        assert_eq!(got, (5..15).collect::<Vec<_>>(), "offset skipped, order kept");
        let limit = result.profile.root.find("limit").unwrap().totals();
        assert_eq!((limit.tuples_in, limit.frames_in, limit.tuples_out), (1_024, 1, 10), "one batch in, a batch of ten out");
        let produced = produced.load(AtomicOrdering::SeqCst);
        assert!(produced <= CHANNEL_CAP as u64 + 2, "the source stopped early ({produced} batches produced)");
        assert_eq!(ctx.stats.tuples_moved.get(), 0, "no tuple was routed on its own");
        assert!(ctx.stats.batch_rows.get() >= 1_024 + 10, "they crossed the edges in batches");
    }

    #[test]
    fn a_router_ships_rows_as_one_frame_once_they_pass_the_budget() {
        let ctx = RuntimeCtx::temp().unwrap();
        let edge = test_edge();
        let mut router = Router::new(ConnStrategy::OneToOne, vec![Arc::clone(&edge)], 0, &ctx, None);
        let mut m = OpMetrics::default();
        let big = vec![Value::String("x".repeat(crate::frame::FRAME_BUDGET / 4))];
        for _ in 0..3 {
            assert!(router.push(&NoWake, &mut m, big.clone()).unwrap());
            assert!(edge.state.lock().frames.is_empty(), "under the budget nothing ships");
        }
        assert!(router.push(&NoWake, &mut m, big.clone()).unwrap());
        let frames = std::mem::take(&mut edge.state.lock().frames);
        assert_eq!(frames.len(), 1, "the fourth large tuple crosses the budget");
        assert_eq!(frames[0].clone().into_rows().collect::<Vec<_>>(), vec![big; 4]);
        assert_eq!((m.frames_out, m.tuples_out), (1, 4));
        assert_eq!((ctx.stats.tuples_moved.get(), ctx.stats.batch_rows.get()), (4, 0), "placed one at a time");
        // a row of another width ships the rows held before it
        let (pair, one) = (vec![Value::Int(1), Value::Int(2)], vec![Value::Int(3)]);
        router.push(&NoWake, &mut m, pair.clone()).unwrap();
        router.push(&NoWake, &mut m, one).unwrap();
        let frames = std::mem::take(&mut edge.state.lock().frames);
        assert_eq!(frames.into_iter().flat_map(ColumnBatch::into_rows).collect::<Vec<_>>(), [pair]);
    }

    /// Rows that row-wise operators (unnest, sort) emit one at a time meet
    /// every operator that works on batches — select, assign, project,
    /// limit, union — across each kind of connector. MISSING and NULL stay
    /// apart, and so do `2` and `2.0`, through every frame built of them.
    #[test]
    fn rows_meet_every_batch_operator_across_every_connector() {
        fn v(id: i64) -> Value {
            match id % 8 {
                1 | 6 => Value::Missing,
                2 | 3 => Value::Null,
                0 | 4 => Value::Double(2.0),
                _ => Value::Int(2),
            }
        }
        fn item(id: i64, j: i64) -> Value {
            let tags = Value::Array(vec![Value::Null, Value::from("t")]);
            Value::object(vec![("n".into(), Value::Int(id * 10 + j)), ("tags".into(), tags)])
        }
        /// `id % 3` items to unnest
        fn items(id: i64) -> Value {
            Value::Array((0..id % 3).map(|j| item(id, j)).collect())
        }
        fn nested(id: i64) -> Value {
            Value::object(vec![("a".into(), Value::Array(vec![Value::Int(id), Value::object(vec![("b".into(), Value::Null)])]))])
        }
        let row = |id: i64, last: Value| vec![Value::Int(id), v(id), Value::from(format!("s{id}")), last];
        let source = |ids: fn(usize) -> std::ops::Range<i64>, last: fn(i64) -> Value| {
            OpKind::Source(Arc::new(FnSource(move |p: usize| {
                Ok(Box::new(ids(p).map(move |id| Ok(row(id, last(id))))) as Box<dyn Iterator<Item = Result<Tuple>> + Send>)
            })))
        };
        let kind = |v: &Value| match v {
            Value::Missing => "missing",
            Value::Null => "null",
            Value::Int(_) => "int",
            _ => "double",
        };
        let mut j = JobSpec::new();
        // unnest → hash → select → assign → project → sort → merge-sorted → limit
        let a = j.add(source(|p| p as i64 * 4..p as i64 * 4 + 4, items), 2, "a");
        let un = j.add(OpKind::Unnest { expr: Arc::new(|t: &Tuple| Ok(t[3].clone())), outer: false }, 2, "unnest");
        let sel = j.add(OpKind::Filter(Arc::new(|t: &Tuple| Ok(t[0] != Value::Int(7)))), 2, "select");
        let asn = j.add(OpKind::Assign(vec![Arc::new(move |t: &Tuple| Ok(Value::from(kind(&t[1]))))]), 2, "assign");
        let proj = j.add(OpKind::Project(vec![0, 1, 2, 4, 5]), 2, "project");
        let keys = vec![SortKey::asc(0), SortKey::asc(3)];
        let sort = j.add(OpKind::Sort { keys: keys.clone(), memory: 1 << 20 }, 2, "sort");
        let lim = j.add(OpKind::Limit { offset: 0, count: Some(5) }, 1, "limit");
        // sort → broadcast → select → gather
        let b = j.add(source(|_| 9..14, nested), 1, "b");
        let sort_b = j.add(OpKind::Sort { keys: vec![SortKey::desc(0)], memory: 1 << 20 }, 1, "sort-b");
        let sel_b = j.add(OpKind::Filter(Arc::new(|t: &Tuple| Ok(t[1] != Value::Null))), 2, "select-b");
        let union = j.add(OpKind::UnionAll, 1, "union");
        let sink = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(a, un, 0, ConnStrategy::OneToOne);
        j.connect(un, sel, 0, ConnStrategy::Hash(vec![0]));
        j.connect(sel, asn, 0, ConnStrategy::OneToOne);
        j.connect(asn, proj, 0, ConnStrategy::OneToOne);
        j.connect(proj, sort, 0, ConnStrategy::OneToOne);
        j.connect(sort, lim, 0, ConnStrategy::MergeSorted(keys));
        j.connect(lim, union, 0, ConnStrategy::OneToOne);
        j.connect(b, sort_b, 0, ConnStrategy::OneToOne);
        j.connect(sort_b, sel_b, 0, ConnStrategy::Broadcast);
        j.connect(sel_b, union, 1, ConnStrategy::Gather);
        j.connect(union, sink, 0, ConnStrategy::Gather);
        let mut got = run_job(j, RuntimeCtx::temp().unwrap()).unwrap().tuples;

        // By hand. Ids 0, 3 and 6 have no items and the select drops 7, so
        // (1, 0), (2, 0), (2, 1), (4, 0), (5, 0), (5, 1) in (id, item)
        // order, of which the limit keeps five.
        let a_row = |id: i64, j: i64| {
            let mut t = row(id, v(id));
            t.truncate(3);
            t.extend([item(id, j), Value::from(kind(&v(id)))]);
            t
        };
        let sorted = [a_row(1, 0), a_row(2, 0), a_row(2, 1), a_row(4, 0), a_row(5, 0)];
        // The union reads the limit to its end first, in the order merged.
        assert_eq!(got.len(), sorted.len() + 6);
        assert_eq!(got[..5], sorted);
        // Ids 9 (MISSING), 12 (2.0) and 13 (2), once per partition the
        // broadcast reaches, in no order; the select drops the NULLs of 10
        // and 11.
        let mut want: Vec<Tuple> = [9, 9, 12, 12, 13, 13].into_iter().map(|id| row(id, nested(id))).collect();
        let mut broadcast = got.split_off(5);
        for rows in [&mut broadcast, &mut want] {
            rows.sort_by_key(|t| format!("{t:?}"));
        }
        assert_eq!(broadcast, want);
    }

    #[test]
    fn a_join_stops_when_its_consumer_is_gone() {
        // 200 x 200 matches on one key = 40k output tuples; LIMIT 3 must not
        // make the join produce them all.
        let same_key = || {
            OpKind::Source(Arc::new(FnSource(|_p: usize| {
                Ok(Box::new((0..200i64).map(|i| Ok(vec![Value::Int(1), Value::Int(i)])))
                    as Box<dyn Iterator<Item = Result<Tuple>> + Send>)
            })))
        };
        let mut j = JobSpec::new();
        let left = j.add(same_key(), 1, "left");
        let right = j.add(same_key(), 1, "right");
        let join = j.add(
            OpKind::HashJoin {
                left_keys: vec![0],
                right_keys: vec![0],
                kind: JoinKind::Inner,
                right_arity: 2,
                memory: 1 << 20,
            },
            1,
            "join",
        );
        let l = j.add(OpKind::Limit { offset: 0, count: Some(3) }, 1, "limit");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(left, join, 0, ConnStrategy::OneToOne);
        j.connect(right, join, 1, ConnStrategy::OneToOne);
        j.connect(join, l, 0, ConnStrategy::OneToOne);
        j.connect(l, r, 0, ConnStrategy::Gather);
        let result = run_job(j, RuntimeCtx::temp().unwrap()).unwrap();
        assert_eq!(result.tuples.len(), 3);
        let joined = result.profile.root.find("join").unwrap().totals().tuples_out;
        assert!(joined < 40_000, "the join stopped early ({joined} tuples out)");
    }

    #[test]
    fn union_all_concatenates() {
        let mut j = JobSpec::new();
        let a = j.add(int_source(10), 1, "a");
        let b = j.add(int_source(5), 1, "b");
        let u = j.add(OpKind::UnionAll, 1, "union");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(a, u, 0, ConnStrategy::OneToOne);
        j.connect(b, u, 1, ConnStrategy::Gather);
        j.connect(u, r, 0, ConnStrategy::Gather);
        let out = run_job(j, RuntimeCtx::temp().unwrap()).unwrap().tuples;
        assert_eq!(out.len(), 15);
    }

    #[test]
    fn assign_project_unnest_pipeline() {
        let mut j = JobSpec::new();
        let s = j.add(
            OpKind::Source(Arc::new(FnSource(|_p: usize| {
                Ok(Box::new((0..3).map(|i| {
                    Ok(vec![Value::Int(i), Value::Array(vec![Value::Int(10 * i), Value::Int(10 * i + 1)])])
                })) as Box<dyn Iterator<Item = Result<Tuple>> + Send>)
            }))),
            1,
            "src",
        );
        let un = j.add(
            OpKind::Unnest { expr: Arc::new(|t: &Tuple| Ok(t[1].clone())), outer: false },
            1,
            "unnest",
        );
        let asn = j.add(
            OpKind::Assign(vec![Arc::new(|t: &Tuple| {
                Ok(Value::Int(t[2].as_i64().unwrap_or(0) + 1))
            })]),
            1,
            "assign",
        );
        let proj = j.add(OpKind::Project(vec![0, 3]), 1, "project");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, un, 0, ConnStrategy::OneToOne);
        j.connect(un, asn, 0, ConnStrategy::OneToOne);
        j.connect(asn, proj, 0, ConnStrategy::OneToOne);
        j.connect(proj, r, 0, ConnStrategy::Gather);
        let out = run_job_sorted(
            JobSpec { ops: j.ops, connectors: j.connectors },
            RuntimeCtx::temp().unwrap(),
            &[SortKey::asc(0), SortKey::asc(1)],
        )
        .unwrap();
        assert_eq!(out.len(), 6);
        assert_eq!(out[0], vec![Value::Int(0), Value::Int(1)]);
        assert_eq!(out[5], vec![Value::Int(2), Value::Int(22)]);
    }

    #[test]
    fn error_in_source_propagates() {
        let mut j = JobSpec::new();
        let s = j.add(
            OpKind::Source(Arc::new(FnSource(|_p: usize| {
                Ok(Box::new((0..10).map(|i| {
                    if i == 5 {
                        Err(HyracksError::Eval("boom".into()))
                    } else {
                        Ok(vec![Value::Int(i)])
                    }
                })) as Box<dyn Iterator<Item = Result<Tuple>> + Send>)
            }))),
            1,
            "src",
        );
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, r, 0, ConnStrategy::Gather);
        let err = run_job(j, RuntimeCtx::temp().unwrap()).unwrap_err();
        assert!(err.to_string().contains("boom"), "{err}");
    }

    #[test]
    fn scalar_aggregate_over_gather() {
        let mut j = JobSpec::new();
        let s = j.add(int_source(100), 4, "scan");
        let a = j.add(
            OpKind::Aggregate { aggs: vec![AggSpec::complete(AggFunc::CountStar, 0), AggSpec::complete(AggFunc::Sum, 0)] },
            1,
            "agg",
        );
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, a, 0, ConnStrategy::Gather);
        j.connect(a, r, 0, ConnStrategy::Gather);
        let out = run_job(j, RuntimeCtx::temp().unwrap()).unwrap().tuples;
        assert_eq!(out.len(), 1);
        assert_eq!(out[0][0], Value::Int(400));
        assert_eq!(out[0][1], Value::Int((0..400).sum::<i64>()));
    }

    #[test]
    fn distinct_across_partitions() {
        let mut j = JobSpec::new();
        let s = j.add(int_source(100), 4, "scan"); // col1 = value % 10 everywhere
        let p = j.add(OpKind::Project(vec![1]), 4, "proj");
        let d = j.add(OpKind::Distinct { cols: None, memory: 1 << 20 }, 2, "distinct");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, p, 0, ConnStrategy::OneToOne);
        j.connect(p, d, 0, ConnStrategy::Hash(vec![0]));
        j.connect(d, r, 0, ConnStrategy::Gather);
        let out = run_job_sorted(j, RuntimeCtx::temp().unwrap(), &[SortKey::asc(0)]).unwrap();
        assert_eq!(out.len(), 10);
    }

    // -- scheduler: morsel accounting, barrier re-enqueue, cancel latency --

    /// Waits until the scheduler has drained every stale queue entry so
    /// that `hyracks.sched.enqueued == hyracks.sched.morsels` (a finishing
    /// job can leave a last QUEUED entry that pops just after `run_job`
    /// returns).
    fn wait_sched_quiescent(ctx: &RuntimeCtx) -> (u64, u64) {
        let deadline = std::time::Instant::now() + Duration::from_secs(5);
        loop {
            let snap = ctx.registry().snapshot();
            let enq = snap.counter("hyracks.sched.enqueued").unwrap_or(0);
            let run = snap.counter("hyracks.sched.morsels").unwrap_or(0);
            if enq == run || std::time::Instant::now() > deadline {
                return (enq, run);
            }
            asterix_storage::lock_order::sleep(Duration::from_millis(1));
        }
    }

    #[test]
    fn barrier_task_re_enqueues_its_merge_phase() {
        // A sort over multiple morsels' worth of input must take many
        // steps (accumulate per-morsel, then re-enqueue to emit), not one
        // monolithic blocking run — and every enqueued morsel must run.
        let ctx = RuntimeCtx::temp().unwrap();
        let before = ctx.registry().snapshot();
        let mut j = JobSpec::new();
        let s = j.add(int_source(5000), 1, "scan");
        let keys = vec![SortKey::asc(0)];
        let sort = j.add(OpKind::Sort { keys: keys.clone(), memory: 1 << 20 }, 1, "sort");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, sort, 0, ConnStrategy::OneToOne);
        j.connect(sort, r, 0, ConnStrategy::MergeSorted(keys));
        let out = run_job(j, Arc::clone(&ctx)).unwrap().tuples;
        assert_eq!(out.len(), 5000);
        assert_eq!(out[0][0], Value::Int(0));
        let (enq, ran) = wait_sched_quiescent(&ctx);
        assert_eq!(enq, ran, "every enqueued morsel ran exactly once");
        let morsels = ctx.registry().snapshot().delta(&before)
            .counter("hyracks.sched.morsels")
            .unwrap_or(0);
        // 5000 tuples at <=1024/morsel through scan + sort-accum +
        // sort-emit + sink is well over a dozen steps; a single-step sort
        // would sit near 3.
        assert!(morsels >= 12, "barrier phases are morsel-stepped ({morsels} morsels)");
    }

    /// A source of tuples `[i, "k<i>…"]` that counts what it hands out, ends
    /// after `n`, and cancels `token` on tuple number `cancel_at`.
    fn counting_source(
        n: u64,
        cancel_at: Option<u64>,
        token: &CancellationToken,
        produced: &Arc<AtomicU64>,
    ) -> OpKind {
        let (token, produced) = (token.clone(), Arc::clone(produced));
        OpKind::Source(Arc::new(FnSource(move |_p: usize| {
            let (token, produced) = (token.clone(), Arc::clone(&produced));
            Ok(Box::new((0..n as i64).map(move |i| {
                let seen = produced.fetch_add(1, AtomicOrdering::SeqCst);
                if Some(seen) == cancel_at {
                    token.cancel("mid-stream cancel");
                }
                Ok(vec![Value::Int(i), Value::from(format!("k{i:0200}"))])
            })) as Box<dyn Iterator<Item = Result<Tuple>> + Send>)
        })))
    }

    fn run_with(j: JobSpec, ctx: &Arc<RuntimeCtx>, token: &CancellationToken) -> Result<JobResult> {
        let opts = JobOptions { token: Some(token.clone()), deadline: None };
        run_job_with(j, Arc::clone(ctx), opts)
    }

    #[test]
    fn cancel_is_observed_within_one_morsel() {
        // The source itself cancels the job mid-stream, feeding the sink, a
        // sort and a group-by that are mid-input with tiny budgets; the
        // executor may finish the current morsel but must not start another.
        let blocking: [Option<OpKind>; 3] = [
            None,
            Some(OpKind::Sort { keys: vec![SortKey::asc(1)], memory: 16 << 10 }),
            Some(OpKind::GroupBy {
                key_cols: vec![1],
                aggs: vec![AggSpec::complete(AggFunc::CountStar, 0)],
                memory: 16 << 10,
            }),
        ];
        for op in blocking {
            let token = CancellationToken::new();
            let produced = Arc::new(AtomicU64::new(0));
            let mut j = JobSpec::new();
            let mut last = j.add(counting_source(u64::MAX >> 1, Some(5000), &token, &produced), 1, "scan");
            if let Some(op) = op {
                let next = j.add(op, 1, "blocking");
                j.connect(last, next, 0, ConnStrategy::OneToOne);
                last = next;
            }
            let r = j.add(OpKind::ResultSink, 1, "sink");
            j.connect(last, r, 0, ConnStrategy::Gather);
            let err = run_with(j, &RuntimeCtx::temp().unwrap(), &token).unwrap_err();
            assert!(
                matches!(&err, HyracksError::Cancelled(m) if m.contains("mid-stream cancel")),
                "{err}"
            );
            let n = produced.load(AtomicOrdering::SeqCst);
            assert!(
                n <= 5000 + MORSEL_TUPLES as u64,
                "cancel observed within one morsel, not one frame stream ({n} produced)"
            );
        }
    }

    #[test]
    fn a_spilled_group_by_cancelled_mid_output_leaves_its_partitions_unread() {
        // 40k distinct keys against a budget of a few hundred groups: three
        // levels of grace partitions. The consumer cancels the job on the
        // first tuple it sees, which the group-by ships while it is still
        // emitting its resident groups; it must stop there, not work through
        // the partitions first.
        let spilled_group_by = |cancel_on_output: Option<&CancellationToken>| {
            let token = CancellationToken::new();
            let mut j = JobSpec::new();
            let s = j.add(counting_source(40_000, None, &token, &Arc::default()), 1, "scan");
            let g = j.add(
                OpKind::GroupBy {
                    key_cols: vec![1],
                    aggs: vec![AggSpec::complete(AggFunc::CountStar, 0)],
                    memory: 128 << 10,
                },
                1,
                "group",
            );
            let cancel = cancel_on_output.cloned();
            let f = j.add(
                OpKind::Filter(Arc::new(move |_t: &Tuple| {
                    if let Some(token) = &cancel {
                        token.cancel("consumer cancelled");
                    }
                    Ok(true)
                })),
                1,
                "consumer",
            );
            let r = j.add(OpKind::ResultSink, 1, "sink");
            j.connect(s, g, 0, ConnStrategy::OneToOne);
            j.connect(g, f, 0, ConnStrategy::OneToOne);
            j.connect(f, r, 0, ConnStrategy::Gather);
            let ctx = RuntimeCtx::temp().unwrap();
            let result = run_with(j, &ctx, cancel_on_output.unwrap_or(&token));
            (result, ctx.stats.spill_runs.get())
        };
        let (result, all_runs) = spilled_group_by(None);
        assert_eq!(result.unwrap().tuples.len(), 40_000);
        assert!(all_runs > 100, "three levels of partitions ({all_runs} runs)");
        let token = CancellationToken::new();
        let (result, runs) = spilled_group_by(Some(&token));
        assert!(matches!(result, Err(HyracksError::Cancelled(_))));
        assert!(runs < all_runs / 4, "{runs} of {all_runs} runs written before the cancel was seen");
    }

    // -- lifecycle: cancellation, deadlines, EOS protocol, fault injection --

    use crate::faults::{DataflowFaults, FaultConfig};
    use asterix_obs::ManualClock;

    /// An endless source wired straight to a sink — the fixture for
    /// cancellation tests (only cancellation can end it).
    fn endless_job() -> JobSpec {
        let mut j = JobSpec::new();
        let s = j.add(
            OpKind::Source(Arc::new(FnSource(|_p: usize| {
                Ok(Box::new((0..i64::MAX).map(|i| Ok(vec![Value::Int(i)])))
                    as Box<dyn Iterator<Item = Result<Tuple>> + Send>)
            }))),
            1,
            "scan",
        );
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, r, 0, ConnStrategy::Gather);
        j
    }

    #[test]
    fn external_cancel_stops_a_running_job() {
        let ctx = RuntimeCtx::temp().unwrap();
        let token = CancellationToken::new();
        let t2 = token.clone();
        // Cancel from outside once the job is demonstrably running.
        let canceller = std::thread::spawn(move || {
            asterix_storage::lock_order::sleep(Duration::from_millis(20));
            assert!(t2.cancel("user abort"), "this cancel is the first cause");
        });
        let before = ctx.registry().snapshot();
        let err = run_job_with(
            endless_job(),
            Arc::clone(&ctx),
            JobOptions { token: Some(token), deadline: None },
        )
        .unwrap_err();
        asterix_storage::lock_order::join(canceller).unwrap();
        assert!(
            matches!(&err, HyracksError::Cancelled(r) if r.contains("user abort")),
            "job reports the external cancellation cause: {err}"
        );
        let delta = ctx.registry().snapshot().delta(&before);
        assert_eq!(delta.counter("hyracks.lifecycle.cancelled"), Some(1));
    }

    #[test]
    fn deadline_exceeded_on_manual_clock() {
        // Every clock read advances 1ms; 50ms deadline → the job trips on
        // its own polling, deterministically, with no wall-clock sleeps.
        let clock = ManualClock::shared(1_000_000);
        let ctx = RuntimeCtx::temp_with_clock(clock).unwrap();
        let err = run_job_with(
            endless_job(),
            ctx,
            JobOptions { token: None, deadline: Some(Duration::from_millis(50)) },
        )
        .unwrap_err();
        assert!(matches!(err, HyracksError::DeadlineExceeded { .. }), "{err}");
    }

    #[test]
    fn expired_deadline_fails_preflight() {
        let ctx = RuntimeCtx::temp().unwrap();
        let before = ctx.registry().snapshot();
        let err = run_job_with(
            endless_job(),
            Arc::clone(&ctx),
            JobOptions { token: None, deadline: Some(Duration::ZERO) },
        )
        .unwrap_err();
        assert!(matches!(err, HyracksError::DeadlineExceeded { .. }), "{err}");
        let delta = ctx.registry().snapshot().delta(&before);
        assert_eq!(delta.counter("hyracks.lifecycle.deadline_exceeded"), Some(1));
    }

    #[test]
    fn worker_panic_cancels_and_reaps_siblings() {
        // Partition 1 waits at a barrier so it is provably mid-flight when
        // partition 0 panics; the panic must cancel the job so partition 1
        // winds down and every actor reaches a terminal state (the debug
        // assert on unfinished actors inside run_job enforces the reap).
        // A dedicated 2-worker pool guarantees both source partitions are
        // stepped concurrently, so the barrier cannot deadlock the pool.
        let barrier = Arc::new(std::sync::Barrier::new(2));
        let b = Arc::clone(&barrier);
        let mut j = JobSpec::new();
        let s = j.add(
            OpKind::Source(Arc::new(FnSource(move |p: usize| {
                let b = Arc::clone(&b);
                Ok(Box::new((0..i64::MAX).map(move |i| {
                    if i == 0 {
                        b.wait();
                        if p == 0 {
                            panic!("injected worker panic");
                        }
                    }
                    Ok(vec![Value::Int(i)])
                })) as Box<dyn Iterator<Item = Result<Tuple>> + Send>)
            }))),
            2,
            "scan",
        );
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, r, 0, ConnStrategy::Gather);
        let ctx = RuntimeCtx::temp().unwrap();
        ctx.set_worker_threads(2);
        let before = ctx.registry().snapshot();
        let err = run_job(j, Arc::clone(&ctx)).unwrap_err();
        assert!(
            matches!(&err, HyracksError::WorkerPanic(m) if m.contains("injected worker panic")),
            "panic outranks the induced sibling cancellations: {err}"
        );
        let delta = ctx.registry().snapshot().delta(&before);
        assert_eq!(delta.counter("hyracks.lifecycle.worker_panics"), Some(1));
        assert_eq!(delta.counter("hyracks.lifecycle.leaked_workers"), None, "all reaped");
    }

    /// Port-level tests drive an [`AnyPort`] by hand over a raw edge.
    fn test_edge() -> Arc<Edge> {
        Arc::new(Edge { state: Mutex::new(EdgeState::default()), src_task: 0, dst_task: 1 })
    }

    /// A frame of the one tuple `[1]`.
    fn frame_of_one() -> ColumnBatch {
        let mut f = FrameBuilder::default();
        f.push(vec![Value::Int(1)], 0);
        f.take().unwrap()
    }

    fn rows_of(polled: Polled) -> Vec<Tuple> {
        match polled {
            Polled::Batch(b) => b.into_rows().collect(),
            other => panic!("a frame, not {other:?}"),
        }
    }

    #[test]
    fn dirty_disconnect_is_typed_upstream_failure() {
        // Unit-level: a producer that closes its edge without the
        // end-of-stream flag must surface as UpstreamFailure, not as a
        // silently truncated (but "clean") stream.
        let edge = test_edge();
        let mut port = AnyPort::new(vec![Arc::clone(&edge)]);
        let token = CancellationToken::new();
        let mut m = OpMetrics::default();
        {
            let mut st = edge.state.lock();
            st.frames.push_back(frame_of_one());
            st.closed = true; // died mid-stream: closed without eos
        }
        let drained = rows_of(port.poll(&NoWake, &token, &mut m).unwrap());
        assert_eq!(drained, [vec![Value::Int(1)]], "buffered data drains before the dirty close is reported");
        let err = port.poll(&NoWake, &token, &mut m).unwrap_err();
        assert!(matches!(err, HyracksError::UpstreamFailure(_)), "{err}");
    }

    #[test]
    fn eos_flag_ends_the_stream_cleanly() {
        let edge = test_edge();
        let mut port = AnyPort::new(vec![Arc::clone(&edge)]);
        let token = CancellationToken::new();
        let mut m = OpMetrics::default();
        {
            let mut st = edge.state.lock();
            st.frames.push_back(frame_of_one());
            st.closed = true;
            st.eos = true; // clean finish
        }
        assert_eq!(rows_of(port.poll(&NoWake, &token, &mut m).unwrap()), [vec![Value::Int(1)]], "data before the clean close");
        assert!(
            matches!(port.poll(&NoWake, &token, &mut m).unwrap(), Polled::End),
            "eos flag after the data = clean end"
        );
        assert_eq!(m.frames_in, 1, "end-of-stream is a flag, not a counted data frame");
    }

    #[test]
    fn severed_output_is_an_error_not_a_truncated_result() {
        // sever_pct=100 severs every worker's output at its first frame:
        // the sink sees a dirty close with no end-of-stream flag and the
        // job must fail typed — never return a truncated Ok.
        let faults = DataflowFaults::new(FaultConfig {
            seed: 7,
            sever_pct: 100,
            max_frame: 1,
            ..FaultConfig::default()
        });
        let ctx = RuntimeCtx::temp_with_faults(Arc::clone(&faults)).unwrap();
        let mut j = JobSpec::new();
        let s = j.add(int_source(100), 1, "scan");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, r, 0, ConnStrategy::Gather);
        let err = run_job(j, ctx).unwrap_err();
        assert!(matches!(err, HyracksError::UpstreamFailure(_)), "{err}");
        let events = faults.events();
        assert!(events.iter().any(|e| e.what == "sever"), "sever fired: {events:?}");
    }

    #[test]
    fn injected_kill_is_a_typed_fault() {
        let faults = DataflowFaults::new(FaultConfig {
            seed: 3,
            kill_pct: 100,
            max_frame: 1,
            ..FaultConfig::default()
        });
        let ctx = RuntimeCtx::temp_with_faults(Arc::clone(&faults)).unwrap();
        let mut j = JobSpec::new();
        let s = j.add(int_source(100), 2, "scan");
        let r = j.add(OpKind::ResultSink, 1, "sink");
        j.connect(s, r, 0, ConnStrategy::Gather);
        let err = run_job(j, ctx).unwrap_err();
        assert!(matches!(err, HyracksError::InjectedFault(_)), "{err}");
        assert!(faults.events().iter().any(|e| e.what == "kill"));
    }

    #[test]
    fn fail_first_attempt_succeeds_on_retry() {
        let faults = DataflowFaults::new(FaultConfig {
            fail_first_attempt: true,
            ..FaultConfig::default()
        });
        let ctx = RuntimeCtx::temp_with_faults(Arc::clone(&faults)).unwrap();
        let make = || {
            let mut j = JobSpec::new();
            let s = j.add(int_source(50), 2, "scan");
            let r = j.add(OpKind::ResultSink, 1, "sink");
            j.connect(s, r, 0, ConnStrategy::Gather);
            j
        };
        let err = run_job(make(), Arc::clone(&ctx)).unwrap_err();
        assert!(matches!(err, HyracksError::InjectedFault(_)), "attempt 1 fails: {err}");
        let out = run_job(make(), ctx).unwrap().tuples;
        assert_eq!(out.len(), 100, "attempt 2 runs clean to the full result");
        assert!(faults.events().iter().all(|e| e.attempt == 1));
    }
}
