//! Cluster fault tolerance: a query that loses a node mid-flight re-runs to
//! success under the instance retry policy, or surfaces a typed transient
//! error without one — never a hang, never a silently truncated result.

use asterix_algebricks::source::DataSource;
use asterix_core::sources::{DatasetSource, SCAN_BATCH};
use asterix_core::{CoreError, Instance, InstanceConfig, QueryOptions, RetryPolicy};
use asterix_hyracks::job::Produced;
use asterix_hyracks::HyracksError;
use std::time::Duration;

fn setup(retry: RetryPolicy) -> Instance {
    setup_sized(retry, 2, 200)
}

/// `records` records of `D(id, v)` over `nodes` nodes, a partition each.
fn setup_sized(retry: RetryPolicy, nodes: usize, records: usize) -> Instance {
    let db = Instance::open(InstanceConfig {
        nodes,
        partitions: nodes,
        retry,
        ..Default::default()
    })
    .unwrap();
    db.execute_sqlpp(
        "CREATE TYPE T AS { id: int, v: int };
         CREATE DATASET D(T) PRIMARY KEY id;",
    )
    .unwrap();
    let mut txn = db.begin();
    for i in 0..records {
        let rec = asterix_adm::parse::parse_value(&format!(r#"{{"id": {i}, "v": {}}}"#, i % 7))
            .unwrap();
        txn.write("D", &rec, true).unwrap();
    }
    txn.commit().unwrap();
    db
}

#[test]
fn killed_node_fails_queries_with_typed_transient_error() {
    let db = setup(RetryPolicy::default()); // no retries
    assert!(db.kill_node(0), "node 0 was alive");
    let err = db.query("SELECT VALUE d.v FROM D d").unwrap_err();
    assert!(err.is_transient(), "NodeDown must classify as transient: {err}");
    assert!(err.to_string().contains("node 0 is down"), "{err}");
    // an explicit restart brings the node (and its durable data) back
    assert!(db.restart_node(0), "node 0 was down");
    assert_eq!(db.query("SELECT VALUE d.v FROM D d").unwrap().len(), 200);
}

#[test]
fn killed_node_rejects_writes_with_typed_transient_error() {
    let db = setup(RetryPolicy::default());
    assert!(db.kill_node(0));
    let rec = asterix_adm::parse::parse_value(r#"{"id": 9999, "v": 1}"#).unwrap();
    // one of the two partitions lives on node 0; find a key that maps there
    // by trying both parities — at least one write must fail typed
    let rec2 = asterix_adm::parse::parse_value(r#"{"id": 9998, "v": 1}"#).unwrap();
    let results: Vec<_> = [rec, rec2]
        .iter()
        .map(|r| db.begin().write("D", r, true))
        .collect();
    let errs: Vec<_> = results.iter().filter_map(|r| r.as_ref().err()).collect();
    assert!(!errs.is_empty(), "some write must land on the dead node");
    for e in errs {
        assert!(e.is_transient(), "{e}");
        assert!(e.to_string().contains("is down"), "{e}");
    }
    db.restart_node(0);
}

/// Kills each node in turn: whichever node dies, the retry policy restarts
/// it and the query comes back whole.
#[test]
fn retry_policy_recovers_a_query_after_node_kill() {
    let db = setup(RetryPolicy {
        max_attempts: 3,
        backoff: Duration::from_millis(1),
        restart_dead_nodes: true,
    });
    for victim in 0..2 {
        let before = db.metrics_snapshot();
        assert!(db.kill_node(victim), "node {victim} was alive");
        // first attempt hits the dead node; the policy restarts it and re-runs
        let rows = db.query("SELECT VALUE d.v FROM D d").unwrap();
        assert_eq!(
            rows.len(),
            200,
            "retry must recover the full result without node {victim}"
        );
        let delta = db.metrics_snapshot().delta(&before);
        assert!(
            delta.counter("core.query.retries").unwrap_or(0) >= 1,
            "recovery from killing node {victim} must be visible as a retry"
        );
        assert!(
            delta.counter("core.cluster.node_restarts").unwrap_or(0) >= 1,
            "the policy must have restarted node {victim}"
        );
        assert!(db.cluster().dead_nodes().is_empty());
    }
}

#[test]
fn point_get_on_a_killed_owner_is_typed_and_retried() {
    // Partition p lives on node p. Key by key, the pruned point get fails
    // iff its owning node is the dead one — and then with the same typed
    // transient error a scan gets, so the retry policy covers it alike.
    let db = setup(RetryPolicy::default());
    assert!(db.kill_node(0));
    let mut on_dead_node = None;
    for id in 0..8 {
        match db.query(&format!("SELECT VALUE d.v FROM D d WHERE d.id = {id}")) {
            Ok(rows) => assert_eq!(rows.len(), 1, "id {id} is served by the live node"),
            Err(e) => {
                assert!(e.is_transient(), "{e}");
                assert!(e.to_string().contains("node 0 is down"), "{e}");
                on_dead_node = Some(id);
            }
        }
    }
    let id = on_dead_node.expect("some key in 0..8 hashes to partition 0");
    drop(db);

    let db = setup(RetryPolicy {
        max_attempts: 3,
        backoff: Duration::from_millis(1),
        restart_dead_nodes: true,
    });
    assert!(db.kill_node(0));
    let rows = db.query(&format!("SELECT VALUE d.v FROM D d WHERE d.id = {id}")).unwrap();
    assert_eq!(rows.len(), 1, "retry must recover the record");
    assert!(db.metrics_snapshot().counter("core.query.retries").unwrap_or(0) >= 1);
    assert!(db.cluster().dead_nodes().is_empty());
}

#[test]
fn a_node_killed_between_two_batches_ends_the_scan_with_the_typed_error() {
    // a source checks its node each time it goes back to the partition, not
    // only when it is opened: a scan that loses its node half way must not
    // pass for a short dataset
    let db = setup_sized(RetryPolicy::default(), 1, 3 * SCAN_BATCH);
    let source = DatasetSource::new(db.dataset_runtime("D").unwrap());
    let mut scan = source.scan(&[]).unwrap().open(0).unwrap();
    match scan.next().expect("a first batch").unwrap() {
        Produced::Batch(batch) => assert_eq!(batch.rows(), SCAN_BATCH),
        Produced::Tuple(t) => panic!("a dataset's cursor handed out the tuple {t:?}"),
    }
    assert!(db.kill_node(0));
    match scan.next() {
        Some(Err(e @ HyracksError::NodeDown(0))) => {
            assert!(CoreError::Hyracks(e).is_transient(), "what the retry policy re-runs a query for");
        }
        Some(Err(e)) => panic!("not the typed error: {e}"),
        Some(Ok(_)) => panic!("read a dead node's partition"),
        None => panic!("a silently short answer"),
    }
    assert!(scan.next().is_none(), "the scan is over");
}

#[test]
fn concurrent_node_kill_mid_query_still_recovers() {
    let db = setup(RetryPolicy {
        max_attempts: 5,
        backoff: Duration::from_millis(1),
        restart_dead_nodes: true,
    });
    let killer = {
        let db = db.clone();
        std::thread::spawn(move || {
            // land the kill at an arbitrary point relative to the query
            std::thread::sleep(Duration::from_millis(2));
            db.kill_node(1)
        })
    };
    // whatever the interleaving — kill before a partition is read (typed
    // NodeDown, retried with restart) or after it was (clean finish) — the
    // query must come back complete
    for _ in 0..5 {
        let rows = db.query("SELECT VALUE d.v FROM D d").unwrap();
        assert_eq!(rows.len(), 200);
    }
    killer.join().unwrap();
}

#[test]
fn expired_deadline_is_fatal_and_never_retried() {
    let db = setup(RetryPolicy {
        max_attempts: 3,
        backoff: Duration::from_millis(1),
        restart_dead_nodes: true,
    });
    let before = db.metrics_snapshot().counter("core.query.retries").unwrap_or(0);
    let opts = QueryOptions { deadline: Some(Duration::ZERO), ..Default::default() };
    let handle = db.session().submit_with("SELECT VALUE d.v FROM D d", opts).unwrap();
    let err = handle.wait().unwrap_err();
    assert!(!err.is_transient(), "deadline errors must not be retried: {err}");
    assert!(err.to_string().contains("deadline"), "{err}");
    let after = db.metrics_snapshot().counter("core.query.retries").unwrap_or(0);
    assert_eq!(before, after, "a deadline failure must not consume retries");
}
