//! Deterministic dataflow chaos harness (nightly CI runs this with
//! `PROPTEST_CASES=256`).
//!
//! Property: under any seeded fault schedule — workers killed after their
//! Nth frame, output channels severed mid-stream, frames delayed, whole
//! first attempts failed — a job either completes with the *correct* result
//! or returns one of the typed lifecycle errors. It never hangs, never
//! silently truncates a result, and never leaks a worker thread. And the
//! same seed always replays the same fault schedule.

use asterix_hyracks::exec::{run_job_with, JobOptions};
use asterix_hyracks::faults::FaultEvent;
use asterix_hyracks::job::{AggFunc, AggSpec, FnSource, SortKey};
use asterix_hyracks::{
    ConnStrategy, DataflowFaults, FaultConfig, HyracksError, JobSpec, OpKind, RuntimeCtx, Tuple,
};
use asterix_adm::Value;
use proptest::prelude::*;
use std::sync::Arc;
use std::time::Duration;

const DOP: usize = 3;
const ROWS_PER_PARTITION: i64 = 40;

fn int_source() -> OpKind {
    OpKind::Source(Arc::new(FnSource(move |p: usize| {
        let base = p as i64 * ROWS_PER_PARTITION;
        Ok(Box::new((0..ROWS_PER_PARTITION).map(move |i| {
            Ok(vec![Value::Int(base + i), Value::Int((base + i) % 5)])
        }))
            as Box<dyn Iterator<Item = asterix_hyracks::Result<Tuple>> + Send>)
    })))
}

/// Three job shapes covering the distinct dataflow paths: a gather (fan-in
/// TupleStream), a sorted merge (RecvStream), and a hash repartition
/// (HashPartition routing) feeding a group-by.
#[derive(Debug, Clone, Copy)]
enum Shape {
    Gather,
    SortedMerge,
    GroupBy,
}

fn build(shape: Shape) -> JobSpec {
    let mut j = JobSpec::new();
    let s = j.add(int_source(), DOP, "scan");
    let sink = match shape {
        Shape::Gather => {
            let sink = j.add(OpKind::ResultSink, 1, "sink");
            j.connect(s, sink, 0, ConnStrategy::Gather);
            sink
        }
        Shape::SortedMerge => {
            let keys = vec![SortKey::asc(0)];
            let sort = j.add(OpKind::Sort { keys: keys.clone(), memory: 1 << 16 }, DOP, "sort");
            let sink = j.add(OpKind::ResultSink, 1, "sink");
            j.connect(s, sort, 0, ConnStrategy::OneToOne);
            j.connect(sort, sink, 0, ConnStrategy::MergeSorted(keys));
            sink
        }
        Shape::GroupBy => {
            let g = j.add(
                OpKind::GroupBy {
                    key_cols: vec![1],
                    aggs: vec![AggSpec::complete(AggFunc::CountStar, 0)],
                    memory: 1 << 16,
                },
                DOP,
                "group",
            );
            let sink = j.add(OpKind::ResultSink, 1, "sink");
            j.connect(s, g, 0, ConnStrategy::Hash(vec![1]));
            j.connect(g, sink, 0, ConnStrategy::Gather);
            sink
        }
    };
    let _ = sink;
    j
}

fn correct(shape: Shape, tuples: &[Tuple]) -> bool {
    match shape {
        Shape::Gather => tuples.len() == (DOP as i64 * ROWS_PER_PARTITION) as usize,
        Shape::SortedMerge => {
            tuples.len() == (DOP as i64 * ROWS_PER_PARTITION) as usize
                && tuples.windows(2).all(|w| {
                    asterix_adm::compare::total_cmp(&w[0][0], &w[1][0])
                        != std::cmp::Ordering::Greater
                })
        }
        Shape::GroupBy => tuples.len() == 5, // keys 0..5, each DOP*ROWS/5 rows
    }
}

fn typed_lifecycle_error(e: &HyracksError) -> bool {
    matches!(
        e,
        HyracksError::Cancelled(_)
            | HyracksError::DeadlineExceeded { .. }
            | HyracksError::InjectedFault(_)
            | HyracksError::UpstreamFailure(_)
            | HyracksError::NodeDown(_)
    )
}

/// Runs `shape` under `cfg` with a bounded retry loop (mirroring the
/// instance-level policy) and asserts the chaos property. Returns the fault
/// event log for replay comparison.
fn run_chaos(shape: Shape, cfg: FaultConfig) -> Vec<FaultEvent> {
    let faults = DataflowFaults::new(cfg);
    let ctx = RuntimeCtx::temp_with_faults(Arc::clone(&faults)).unwrap();
    let mut outcome = None;
    for _attempt in 0..3 {
        let opts = JobOptions { token: None, deadline: Some(Duration::from_secs(30)) };
        match run_job_with(build(shape), Arc::clone(&ctx), opts) {
            Ok(result) => {
                assert!(
                    correct(shape, &result.tuples),
                    "{shape:?}: fault schedule corrupted a *successful* result \
                     ({} tuples)",
                    result.tuples.len()
                );
                outcome = Some(Ok(()));
                break;
            }
            Err(e) => {
                assert!(
                    typed_lifecycle_error(&e),
                    "{shape:?}: chaos surfaced a non-lifecycle error: {e}"
                );
                outcome = Some(Err(e));
            }
        }
    }
    assert!(outcome.is_some(), "job ran at least once");
    // no worker thread may outlive its job, fault schedule or not
    let leaked = ctx.registry().snapshot().counter("hyracks.lifecycle.leaked_workers");
    assert!(
        leaked.is_none() || leaked == Some(0),
        "leaked worker threads under chaos: {leaked:?}"
    );
    faults.events()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(
        std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(32)
    ))]

    #[test]
    fn job_completes_or_fails_typed_under_any_fault_schedule(
        seed in 0u64..1_000_000,
        kill_pct in 0u8..=100,
        sever_pct in 0u8..=100,
        delay_pct in 0u8..=50,
        fail_first in any::<bool>(),
        max_frame in 1u64..6,
        shape_sel in 0usize..3,
    ) {
        let shape = [Shape::Gather, Shape::SortedMerge, Shape::GroupBy][shape_sel];
        let cfg = FaultConfig { seed, kill_pct, sever_pct, delay_pct, fail_first_attempt: fail_first, max_frame };
        run_chaos(shape, cfg);
    }

    /// The *schedule* (which worker faults where, per attempt) is a pure
    /// function of the seed: two injectors with the same config derive
    /// identical plans for every (attempt, label, partition). Fired-event
    /// logs can legitimately differ across runs — a kill on one worker
    /// cancels siblings before they reach their own fault points — so
    /// determinism is defined (and tested) at the schedule level.
    #[test]
    fn identical_seeds_derive_identical_fault_schedules(
        seed in 0u64..1_000_000,
        kill_pct in 0u8..=100,
        sever_pct in 0u8..=100,
    ) {
        let cfg = FaultConfig {
            seed,
            kill_pct,
            sever_pct,
            delay_pct: 10,
            fail_first_attempt: false,
            max_frame: 3,
        };
        let a = DataflowFaults::new(cfg.clone());
        let b = DataflowFaults::new(cfg);
        for _attempt in 0..3 {
            a.begin_attempt();
            b.begin_attempt();
            for label in ["scan", "sort", "group", "sink"] {
                for p in 0..DOP {
                    prop_assert_eq!(
                        a.worker_plan(label, p),
                        b.worker_plan(label, p),
                        "schedule must be a pure function of the seed"
                    );
                }
            }
        }
    }
}

/// Pinned-seed regression anchors (nightly CI runs them at seeds 1, 7 and
/// 42): the schedule hash must not drift across code changes that do not
/// intentionally alter it, and the runtime property must hold on each seed
/// for one fault config per dataflow path.
#[test]
fn pinned_seeds_stay_deterministic() {
    for seed in [1u64, 7, 42] {
        let cases = [
            (
                "group/mixed",
                Shape::GroupBy,
                FaultConfig {
                    seed,
                    kill_pct: 50,
                    sever_pct: 30,
                    delay_pct: 10,
                    fail_first_attempt: seed % 2 == 1,
                    max_frame: 3,
                },
            ),
            (
                "gather/kill",
                Shape::Gather,
                FaultConfig {
                    seed,
                    kill_pct: 60,
                    max_frame: 2,
                    ..FaultConfig::default()
                },
            ),
            (
                "merge/sever",
                Shape::SortedMerge,
                FaultConfig {
                    seed: seed ^ 0xdead,
                    sever_pct: 60,
                    max_frame: 2,
                    ..FaultConfig::default()
                },
            ),
            (
                "shuffle/mixed",
                Shape::GroupBy,
                FaultConfig {
                    seed: seed ^ 0xbeef,
                    kill_pct: 30,
                    sever_pct: 30,
                    delay_pct: 20,
                    max_frame: 3,
                    ..FaultConfig::default()
                },
            ),
            (
                "retry/fail-first",
                Shape::Gather,
                FaultConfig {
                    seed,
                    fail_first_attempt: true,
                    ..FaultConfig::default()
                },
            ),
        ];
        for (name, shape, cfg) in cases {
            // schedules replay identically across injector instances...
            let a = DataflowFaults::new(cfg.clone());
            let b = DataflowFaults::new(cfg.clone());
            for _attempt in 0..3 {
                a.begin_attempt();
                b.begin_attempt();
                for label in ["scan", "sort", "group", "sink"] {
                    for p in 0..DOP {
                        assert_eq!(
                            a.worker_plan(label, p),
                            b.worker_plan(label, p),
                            "{name}, seed {seed}: must derive the same schedule"
                        );
                    }
                }
            }
            // ...and the job-level property holds under each pinned seed
            run_chaos(shape, cfg);
        }
    }
}
