//! Morsel-accounting property: every scheduled morsel is either run or
//! drained — across clean completions *and* cancellations landing at
//! arbitrary points mid-stream, on pools of any width.
//!
//! The scheduler counts `hyracks.sched.enqueued` when a task is pushed onto
//! a deque and `hyracks.sched.morsels` when a worker pops and steps it. A
//! leak in either direction is a bug: `enqueued > morsels` at quiescence
//! means a task rotted in a queue (a job would hang on it); `morsels >
//! enqueued` means a task ran without being scheduled (double-pop). The
//! counters must reconcile exactly once the pool drains, no matter where a
//! cancellation cut the job.

use asterix_hyracks::exec::{run_job_with, JobOptions};
use asterix_hyracks::job::{FnSource, SortKey};
use asterix_hyracks::{
    CancellationToken, ConnStrategy, HyracksError, JobSpec, OpKind, RuntimeCtx, Tuple,
};
use asterix_adm::Value;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// An endless multi-partition source that trips `token` once the given
/// partition has produced `cancel_at` tuples — placing the cancellation at
/// an arbitrary morsel boundary inside an arbitrary worker.
fn self_cancelling_source(token: CancellationToken, cancel_part: usize, cancel_at: u64) -> OpKind {
    OpKind::Source(Arc::new(FnSource(move |p: usize| {
        let token = token.clone();
        let fire = p == cancel_part;
        let mut produced = 0u64;
        Ok(Box::new(std::iter::from_fn(move || {
            if fire && produced == cancel_at {
                token.cancel("sched_leak: random cancel point");
            }
            produced += 1;
            Some(Ok(vec![Value::Int(produced as i64), Value::Int((produced % 7) as i64)]))
        })) as Box<dyn Iterator<Item = asterix_hyracks::Result<Tuple>> + Send>)
    })))
}

/// Polls until the scheduler's in/out morsel counters reconcile (a stale
/// queue entry may pop just after `run_job_with` returns) and returns them.
fn quiesced_counters(ctx: &RuntimeCtx) -> (u64, u64) {
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        let snap = ctx.registry().snapshot();
        let enq = snap.counter("hyracks.sched.enqueued").unwrap_or(0);
        let ran = snap.counter("hyracks.sched.morsels").unwrap_or(0);
        if enq == ran || Instant::now() > deadline {
            return (enq, ran);
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// Pinned regression: on a single worker, a scan/sort pair that stays
/// runnable keeps notifying itself onto the back of the LIFO deque; without
/// the scheduler's periodic fairness pop, the *other* partition's tasks sat
/// at the front of the deque forever — its cancellation point was never
/// reached and the un-starved sort accumulated input without bound.
#[test]
fn lifo_ping_pong_cannot_starve_a_sibling_partition() {
    let ctx = RuntimeCtx::temp().unwrap();
    ctx.set_worker_threads(1);
    let token = CancellationToken::new();
    let mut j = JobSpec::new();
    let s = j.add(self_cancelling_source(token.clone(), 1, 6456), 2, "scan");
    let sink = j.add(OpKind::ResultSink, 1, "sink");
    let keys = vec![SortKey::asc(0)];
    let sort = j.add(OpKind::Sort { keys: keys.clone(), memory: 1 << 20 }, 2, "sort");
    j.connect(s, sort, 0, ConnStrategy::OneToOne);
    j.connect(sort, sink, 0, ConnStrategy::MergeSorted(keys));
    let err = run_job_with(j, Arc::clone(&ctx), JobOptions { token: Some(token), deadline: None })
        .unwrap_err();
    assert!(
        matches!(&err, HyracksError::Cancelled(m) if m.contains("random cancel point")),
        "partition 1 must run (and cancel), not starve behind partition 0: {err}"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(24)
    ))]

    #[test]
    fn every_spawned_morsel_is_run_or_drained_on_cancel(
        cancel_at in 0u64..20_000,
        partitions in 1usize..4,
        cancel_part_sel in 0usize..4,
        workers in 1usize..4,
        with_barrier in any::<bool>(),
    ) {
        let ctx = RuntimeCtx::temp().unwrap();
        ctx.set_worker_threads(workers);
        let token = CancellationToken::new();
        let cancel_part = cancel_part_sel % partitions;

        let mut j = JobSpec::new();
        let s = j.add(
            self_cancelling_source(token.clone(), cancel_part, cancel_at),
            partitions,
            "scan",
        );
        let sink = j.add(OpKind::ResultSink, 1, "sink");
        if with_barrier {
            // A barrier operator holds re-enqueued tasks mid-transition, so
            // cancellation must also drain those.
            let keys = vec![SortKey::asc(0)];
            let sort = j.add(OpKind::Sort { keys: keys.clone(), memory: 1 << 20 }, partitions, "sort");
            j.connect(s, sort, 0, ConnStrategy::OneToOne);
            j.connect(sort, sink, 0, ConnStrategy::MergeSorted(keys));
        } else {
            j.connect(s, sink, 0, ConnStrategy::Gather);
        }

        let err = run_job_with(j, Arc::clone(&ctx), JobOptions { token: Some(token), deadline: None })
            .unwrap_err();
        prop_assert!(
            matches!(&err, HyracksError::Cancelled(m) if m.contains("random cancel point")),
            "endless job only ends by this cancellation: {}", err
        );

        let (enq, ran) = quiesced_counters(&ctx);
        prop_assert_eq!(enq, ran, "morsels in == morsels out at quiescence");
        let leaked = ctx.registry().snapshot().counter("hyracks.lifecycle.leaked_workers");
        prop_assert!(
            leaked.is_none() || leaked == Some(0),
            "actors leaked past job teardown: {:?}", leaked
        );
    }
}
