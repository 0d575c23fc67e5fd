//! Concurrency battery for the serving layer: many sessions hammering one
//! instance must each get exactly their own results (or a typed error) —
//! never a hang, never another session's rows, never a leaked admission.

use asterix_adm::Value;
use asterix_core::scheduler::QueryOptions;
use asterix_core::{CoreError, Instance, InstanceConfig, RetryPolicy, SchedulerConfig};
use proptest::prelude::*;
use std::time::{Duration, Instant};

const ROWS: i64 = 200;
const MOD: i64 = 7;

/// An instance with dataset `D`: 200 rows, `v = id % 7`.
fn setup(config: InstanceConfig) -> Instance {
    let db = Instance::open(config).unwrap();
    db.execute_sqlpp(
        "CREATE TYPE T AS { id: int, v: int };
         CREATE DATASET D(T) PRIMARY KEY id;",
    )
    .unwrap();
    let mut txn = db.begin();
    for i in 0..ROWS {
        let rec = asterix_adm::parse::parse_value(&format!(r#"{{"id": {i}, "v": {}}}"#, i % MOD))
            .unwrap();
        txn.write("D", &rec, true).unwrap();
    }
    txn.commit().unwrap();
    db
}

fn expected_count(m: i64) -> usize {
    (0..ROWS).filter(|i| i % MOD == m).count()
}

/// Spin until `cond` holds (the scheduler's admission poll is 10ms).
fn wait_until(deadline: Duration, mut cond: impl FnMut() -> bool) -> bool {
    let start = Instant::now();
    while start.elapsed() < deadline {
        if cond() {
            return true;
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    cond()
}

/// M sessions × K queries, all in flight together. Every query must
/// complete with exactly its own session's rows: session `m` filters on
/// `v = m`, so any cross-session leak shows up as a wrong count or a wrong
/// value.
#[test]
fn battery_sessions_never_observe_each_others_results() {
    const M: i64 = 6;
    const K: usize = 8;
    let db = setup(InstanceConfig {
        scheduler: SchedulerConfig {
            // all M*K queries may be in flight at once; the queue must hold
            // them (backpressure is exercised by its own tests below)
            queue_depth: (M as usize) * K,
            ..Default::default()
        },
        ..Default::default()
    });
    let mut clients = Vec::new();
    for m in 0..M {
        let db = db.clone();
        clients.push(std::thread::spawn(move || {
            let session = db.session();
            let mut handles = Vec::new();
            for _ in 0..K {
                handles.push(
                    session
                        .submit(&format!("SELECT VALUE d.v FROM D d WHERE d.v = {m}"))
                        .expect("submit"),
                );
            }
            for h in &handles {
                assert_eq!(h.session_id(), session.id());
                let rows = h.wait().expect("query");
                assert_eq!(rows.len(), expected_count(m), "session {m} row count");
                for r in rows {
                    assert_eq!(r, Value::from(m), "session {m} got a foreign row");
                }
            }
        }));
    }
    for c in clients {
        c.join().expect("client thread");
    }
    // All admissions drained: the pool is back to idle.
    let snap = db.scheduler().pool_snapshot();
    assert_eq!(snap.running, 0);
    assert_eq!(snap.queued, 0);
    assert_eq!(snap.free_memory, snap.total_memory);
    let metrics = db.metrics_snapshot();
    assert_eq!(
        metrics.counter("core.serving.admitted"),
        Some((M as u64) * (K as u64)),
        "every submission was admitted exactly once"
    );
}

/// Submission-time failures are synchronous and typed: parse errors and
/// non-query statements never reach the scheduler.
#[test]
fn malformed_submissions_fail_typed_at_submit() {
    let db = setup(InstanceConfig::default());
    let session = db.session();
    assert!(matches!(session.submit("SELECT FROM WHERE"), Err(CoreError::Sqlpp(_))));
    assert!(matches!(
        session.submit("CREATE TYPE X AS { id: int };"),
        Err(CoreError::Unsupported(_))
    ));
    // the scheduler never saw either submission
    let snap = db.scheduler().pool_snapshot();
    assert_eq!((snap.running, snap.queued), (0, 0));
}

/// Deterministic cancellation at both stages. A slow query pins the single
/// concurrency slot; a second query is provably *queued* when cancelled
/// (queue-withdrawal path), then the slow query itself is cancelled while
/// *running* (attempt-token path). Neither wait hangs; both errors are
/// typed; the pool returns to idle.
#[test]
fn cancel_hits_queued_and_running_queries_typed() {
    let db = setup(InstanceConfig {
        scheduler: SchedulerConfig { max_concurrent: 1, ..Default::default() },
        ..Default::default()
    });
    let session = db.session();
    // Triple cross product: 200^3 candidate tuples — never finishes before
    // we cancel it, and exercises mid-flight unwinding of a deep pipeline.
    let slow = session
        .submit("SELECT VALUE COUNT(d1.v) FROM D d1, D d2, D d3 WHERE d1.v = d2.v AND d2.v = d3.v")
        .expect("submit slow");
    assert!(
        wait_until(Duration::from_secs(10), || db.scheduler().pool_snapshot().running == 1),
        "slow query must occupy the only slot"
    );
    let queued = session.submit("SELECT VALUE d.v FROM D d").expect("submit queued");
    assert!(
        wait_until(Duration::from_secs(10), || db.scheduler().pool_snapshot().queued == 1),
        "second query must be queued behind the slow one"
    );
    assert!(queued.cancel("queued victim"), "cancel must trip the queued query");
    let err = queued.wait().expect_err("queued query was cancelled");
    assert!(err.to_string().contains("queued victim"), "typed cancel reason: {err}");
    assert!(!err.is_transient(), "cancellation must never be retried");
    assert!(
        wait_until(Duration::from_secs(10), || db.scheduler().pool_snapshot().queued == 0),
        "cancelled query must leave the queue"
    );
    assert!(slow.cancel("running victim"), "cancel must trip the running query");
    let err = slow.wait().expect_err("running query was cancelled");
    assert!(err.to_string().contains("running victim"), "{err}");
    // pool fully released; the instance still serves
    let snap = db.scheduler().pool_snapshot();
    assert_eq!((snap.running, snap.queued), (0, 0));
    assert_eq!(snap.free_memory, snap.total_memory);
    assert_eq!(
        db.metrics_snapshot().counter("core.serving.queue_cancelled"),
        Some(1),
        "exactly one query was cancelled while queued"
    );
    let after = session.submit("SELECT VALUE d.v FROM D d").expect("submit after cancels");
    assert_eq!(after.wait().expect("instance still serves").len(), ROWS as usize);
}

/// Admission is FIFO: with the head of the queue waiting for memory, a
/// later query that would fit waits behind it rather than overtaking it; a
/// submission past the queue's depth is refused, saying how many wait.
#[test]
fn admission_is_fifo_a_later_query_that_would_fit_waits_behind_the_head() {
    let db = setup(InstanceConfig {
        scheduler: SchedulerConfig {
            total_memory: 64 << 20,
            max_concurrent: 2,
            queue_depth: 2,
            ..Default::default()
        },
        ..Default::default()
    });
    let session = db.session();
    let with_memory = |text: &str, mb: usize| {
        session.submit_with(text, QueryOptions { memory: Some(mb << 20), ..Default::default() })
    };
    // 200^4 rows: runs until it is cancelled
    let slow = with_memory("SELECT VALUE COUNT(d1.v) FROM D d1, D d2, D d3, D d4", 40)
        .expect("submit slow");
    let head = with_memory("SELECT VALUE d.v FROM D d WHERE d.v = 0", 40).expect("submit head");
    let small = with_memory("SELECT VALUE d.v FROM D d WHERE d.v = 1", 1).expect("submit small");
    // ten admission polls: a slot and 24 MiB are free the whole time
    std::thread::sleep(Duration::from_millis(100));
    let snap = db.scheduler().pool_snapshot();
    assert_eq!((snap.running, snap.queued), (1, 2), "the small query waits behind the head");
    assert_eq!(db.metrics_snapshot().counter("core.serving.admitted"), Some(1));
    match with_memory("SELECT VALUE d.v FROM D d", 1) {
        Err(CoreError::Saturated(m)) => {
            assert_eq!(m, "admission queue is full (2 waiting, depth 2)")
        }
        other => panic!("expected a full queue, got {:?}", other.map(|h| h.id())),
    }
    slow.cancel("release the slot");
    let _ = slow.wait();
    assert_eq!(head.wait().expect("head").len(), expected_count(0));
    assert_eq!(small.wait().expect("small").len(), expected_count(1));
}

/// PR-5 chaos harness, now under concurrency: a node dies, then a burst of
/// concurrent queries lands. With a restarting retry policy every query
/// recovers (retries visible in metrics); a control burst on a healthy
/// cluster retries nothing.
#[test]
fn node_kill_mid_burst_recovers_only_affected_queries() {
    let db = setup(InstanceConfig {
        retry: RetryPolicy {
            max_attempts: 5,
            backoff: Duration::from_millis(1),
            restart_dead_nodes: true,
        },
        ..Default::default()
    });
    let burst = |db: &Instance| {
        let mut handles = Vec::new();
        let session = db.session();
        for m in 0..4 {
            handles.push(
                session
                    .submit(&format!("SELECT VALUE d.v FROM D d WHERE d.v = {m}"))
                    .expect("submit"),
            );
        }
        for (m, h) in handles.iter().enumerate() {
            let rows = h.wait().expect("burst query");
            assert_eq!(rows.len(), expected_count(m as i64));
        }
    };
    // control: healthy cluster, no retries consumed
    burst(&db);
    let baseline = db.metrics_snapshot().counter("core.query.retries").unwrap_or(0);
    assert_eq!(baseline, 0, "healthy burst must not retry");
    // chaos: kill a node, then burst — every query must still succeed
    assert!(db.kill_node(0));
    burst(&db);
    let retries = db.metrics_snapshot().counter("core.query.retries").unwrap_or(0);
    assert!(retries >= 1, "recovery must be visible as retries");
    assert!(
        db.metrics_snapshot().counter("core.cluster.node_restarts").unwrap_or(0) >= 1,
        "the retry policy must have restarted the dead node"
    );
    assert!(db.cluster().dead_nodes().is_empty());
}

/// The synchronous `Instance::query` family takes the same admission path as
/// `Session::submit`: the query holds its reservation (one slot, the default
/// budget) exactly while it runs, and gives it back on the success path and
/// on the error path alike. A dead node pins the direct query in its retry
/// loop — provably mid-run — until the test restarts the node.
#[test]
fn direct_queries_hold_and_return_an_admission_reservation() {
    let db = setup(InstanceConfig {
        // backoff doubles from 1 ms: ~2 s of retrying before giving up
        retry: RetryPolicy {
            max_attempts: 12,
            backoff: Duration::from_millis(1),
            restart_dead_nodes: false,
        },
        ..Default::default()
    });
    let budget = db.scheduler().config().default_query_memory;
    let idle = db.scheduler().pool_snapshot();
    assert!(db.kill_node(0));
    let pinned = {
        let db = db.clone();
        std::thread::spawn(move || db.query("SELECT VALUE d.v FROM D d"))
    };
    assert!(
        wait_until(Duration::from_secs(10), || {
            let snap = db.scheduler().pool_snapshot();
            snap.running == 1 && snap.free_memory == snap.total_memory - budget
        }),
        "a running direct query must hold one slot and its budget"
    );
    assert!(db.restart_node(0));
    let rows = pinned.join().expect("query thread").expect("succeeds once the node is back");
    assert_eq!(rows.len(), ROWS as usize);
    assert_eq!(db.scheduler().pool_snapshot(), idle, "success path returns the reservation");
    db.query("SELECT VALUE x.v FROM Nope x")
        .expect_err("an unknown dataset fails the admitted query");
    assert_eq!(db.scheduler().pool_snapshot(), idle, "error path returns the reservation");
    assert_eq!(db.metrics_snapshot().counter("core.serving.admitted"), Some(2));
}

/// Backpressure on the synchronous path is the same typed refusal sessions
/// get: a budget larger than the whole pool can never be admitted.
#[test]
fn direct_query_over_the_pool_is_saturated() {
    let db = setup(InstanceConfig {
        scheduler: SchedulerConfig {
            total_memory: 1 << 20,
            default_query_memory: 2 << 20,
            ..Default::default()
        },
        ..Default::default()
    });
    let err = db.query("SELECT VALUE d.v FROM D d").expect_err("budget exceeds the pool");
    assert!(matches!(err, CoreError::Saturated(_)), "got {err}");
    assert_eq!(db.metrics_snapshot().counter("core.serving.rejected"), Some(1));
    let snap = db.scheduler().pool_snapshot();
    assert_eq!((snap.running, snap.queued, snap.free_memory), (0, 0, snap.total_memory));
}

/// Regression: profiles are per-handle. Two interleaved queries with
/// different plan shapes must each see their *own* operator tree, never
/// the tree of whichever query finished last.
#[test]
fn interleaved_queries_keep_their_own_profiles() {
    fn op_names(p: &asterix_obs::OperatorProfile, out: &mut Vec<String>) {
        out.push(p.name.clone());
        for i in &p.inputs {
            op_names(i, out);
        }
    }
    let db = setup(InstanceConfig::default());
    let session = db.session();
    for _ in 0..5 {
        let grouped = session
            .submit("SELECT d.v AS v, COUNT(d.id) AS n FROM D d GROUP BY d.v")
            .expect("submit grouped");
        let scan = session
            .submit("SELECT VALUE d.v FROM D d WHERE d.v = 3")
            .expect("submit scan");
        grouped.wait().expect("grouped");
        scan.wait().expect("scan");
        let g = grouped.profile().expect("grouped profile");
        let s = scan.profile().expect("scan profile");
        let mut g_ops = Vec::new();
        op_names(&g.root, &mut g_ops);
        let mut s_ops = Vec::new();
        op_names(&s.root, &mut s_ops);
        assert!(
            g_ops.iter().any(|n| n.contains("group")),
            "grouped handle must hold the GROUP BY tree: {g_ops:?}"
        );
        assert!(
            !s_ops.iter().any(|n| n.contains("group")),
            "scan handle must not hold the other query's tree: {s_ops:?}"
        );
        assert!(s_ops.iter().any(|n| n == "filter"), "scan tree has its filter: {s_ops:?}");
    }
}

// ---------------------------------------------------------------------
// admission accounting property
// ---------------------------------------------------------------------

/// One randomized submission in the admission schedule.
#[derive(Debug, Clone)]
struct Submission {
    /// Index into BUDGETS; the last entry exceeds the pool.
    budget_class: usize,
    /// Cancel the handle right after submitting it.
    cancel: bool,
}

/// Pool is 64 MiB; the last class can never be admitted.
const POOL: usize = 64 << 20;
const BUDGETS: [usize; 4] = [1 << 20, 8 << 20, 48 << 20, 128 << 20];

fn submission_strategy() -> impl Strategy<Value = Submission> {
    (0..BUDGETS.len(), any::<bool>())
        .prop_map(|(budget_class, cancel)| Submission { budget_class, cancel })
}

fn proptest_cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|v| v.parse().ok()).unwrap_or(8)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(proptest_cases()))]

    /// Any schedule of (budget, cancel-point) submissions leaves
    /// the pool fully drained, and the rejected submissions are *exactly*
    /// the over-budget ones — the queue is deep enough that nothing else
    /// can be refused.
    #[test]
    fn admission_accounting_always_returns_to_zero(
        schedule in proptest::collection::vec(submission_strategy(), 1..12)
    ) {
        let db = setup(InstanceConfig {
            scheduler: SchedulerConfig {
                total_memory: POOL,
                default_query_memory: 8 << 20,
                max_concurrent: 2,
                // deeper than any schedule: queue-full can never reject
                queue_depth: 64,
            },
            ..Default::default()
        });
        let session = db.session();
        let over_budget =
            schedule.iter().filter(|s| BUDGETS[s.budget_class] > POOL).count();
        let mut handles = Vec::new();
        let mut rejected = 0usize;
        for (i, s) in schedule.iter().enumerate() {
            let opts = QueryOptions { memory: Some(BUDGETS[s.budget_class]), ..Default::default() };
            match session.submit_with(
                &format!("SELECT VALUE d.v FROM D d WHERE d.v = {}", i as i64 % MOD),
                opts,
            ) {
                Ok(h) => {
                    if s.cancel {
                        h.cancel("schedule says cancel");
                    }
                    handles.push((i, h));
                }
                Err(CoreError::Saturated(_)) => rejected += 1,
                Err(e) => prop_assert!(false, "unexpected submit error: {}", e),
            }
        }
        prop_assert_eq!(rejected, over_budget,
            "rejections must be exactly the over-budget submissions");
        // every accepted query terminates: its own rows, or typed Cancelled
        for (i, h) in &handles {
            match h.wait() {
                Ok(rows) => prop_assert_eq!(rows.len(), expected_count(*i as i64 % MOD)),
                Err(e) => {
                    prop_assert!(e.to_string().contains("cancel"),
                        "only cancellation may fail a valid query: {}", e);
                }
            }
        }
        // pool accounting drained back to zero
        let snap = db.scheduler().pool_snapshot();
        prop_assert_eq!(snap.running, 0);
        prop_assert_eq!(snap.queued, 0);
        prop_assert_eq!(snap.free_memory, snap.total_memory);
    }
}
