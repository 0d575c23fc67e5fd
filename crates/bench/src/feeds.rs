//! Sustained-ingestion bench for the fault-tolerant feed subsystem — the
//! persistent baseline behind `BENCH_feeds.json` — plus the recovery-check
//! battery CI uses as a tripwire.
//!
//! Three sections:
//!
//! * **durability** — N concurrent feeds with small batches, every batch
//!   commit forced to disk through the group-commit WAL (concurrent
//!   committers share one fdatasync): mutations/sec plus how many commits
//!   led an fsync round vs. piggybacked on another committer's.
//! * **with_analytics** — the paper's data-in-motion story: one feed
//!   sustaining mutations while an e01-style GROUP BY COUNT query loops
//!   concurrently over the same dataset.
//! * **policies** — each [`IngestionPolicy`] pushed through a deliberately
//!   undersized queue, recording the ingested / discarded / spilled /
//!   throttled split the congestion produced.
//!
//! Rates are wall-clock on whatever host runs this.

use crate::{num, report_doc, MISSING};
use asterix_core::feeds::{Feed, FeedConfig, IngestionPolicy};
use asterix_core::instance::RetryPolicy;
use asterix_core::{Instance, InstanceConfig};
use asterix_obs::{Json, MetricsSnapshot};
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

const DDL: &str = r#"
    CREATE TYPE EventType AS { id: int, grp: int, val: int };
    CREATE DATASET Events(EventType) PRIMARY KEY id;
"#;

/// Concurrent feeds in the durability section (each gets its own dataset
/// so the committer workers contend only on the WAL sync).
const FEEDS: usize = 4;

/// Records per batch commit in the durability section.
const DURABILITY_BATCH: usize = 8;

fn rec(id: i64) -> asterix_adm::Value {
    asterix_adm::parse::parse_value(&format!(
        r#"{{"id": {id}, "grp": {}, "val": {}}}"#,
        id % 64,
        id % 1000,
    ))
    .expect("record")
}

/// Sum of one metric of `snap` across all `node<N>.`-prefixed registries,
/// read by `get` ([`MetricsSnapshot::counter`] or [`MetricsSnapshot::gauge`]).
/// Panics if no node exports `name`: a misspelt name must not read 0.
pub(crate) fn node_sum<T: std::iter::Sum>(
    snap: &MetricsSnapshot,
    name: &str,
    get: fn(&MetricsSnapshot, &str) -> Option<T>,
) -> T {
    let found: Vec<T> = (0..16).filter_map(|i| get(snap, &format!("node{i}.{name}"))).collect();
    assert!(!found.is_empty(), "no node exports `{name}`");
    found.into_iter().sum()
}

/// N feeds into N datasets, one producer each, small batches: measures how
/// fast concurrent committers can make small ingestion batches durable.
fn durability_point(per_feed: u64) -> Json {
    let db = Instance::temp().expect("open instance");
    let opened = db.metrics_snapshot();
    for f in 0..FEEDS {
        db.execute_sqlpp(&format!(
            "CREATE TYPE E{f} AS {{ id: int, grp: int, val: int }};
             CREATE DATASET Events{f}(E{f}) PRIMARY KEY id;"
        ))
        .expect("ddl");
    }
    let start = Instant::now();
    let total: u64 = std::thread::scope(|scope| {
        let mut handles = Vec::new();
        for f in 0..FEEDS {
            let db = db.clone();
            handles.push(scope.spawn(move || {
                let feed = Feed::start(
                    db,
                    format!("Events{f}"),
                    FeedConfig { queue: 1024, batch: DURABILITY_BATCH, ..FeedConfig::default() },
                );
                for i in 0..per_feed {
                    feed.push(rec(i as i64)).expect("push");
                }
                let (ok, _) = feed.stop();
                ok
            }));
        }
        handles.into_iter().map(|h| h.join().expect("producer")).sum()
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let ran = db.metrics_snapshot().delta(&opened);
    let wal = |name: &str| Json::U64(node_sum(&ran, &format!("storage.wal.{name}"), MetricsSnapshot::counter));
    Json::obj([
        ("feeds", Json::U64(FEEDS as u64)),
        ("batch", Json::U64(DURABILITY_BATCH as u64)),
        ("mutations", Json::U64(total)),
        ("elapsed_s", num(elapsed_s)),
        ("mutations_per_sec", num(total as f64 / elapsed_s)),
        ("wal_group_commits", wal("group_commits")),
        ("wal_group_commit_waiters", wal("group_commit_waiters")),
    ])
}

/// One feed sustaining mutations while an e01-shaped aggregation loops over
/// the same dataset from another thread. Memory components of 32 KiB, so
/// the run flushes all along and the log is rotated and truncated under it:
/// its segment count at the end says whether the log stays bounded.
fn analytics_point(total: u64) -> Json {
    let db = Instance::open(asterix_core::instance::InstanceConfig {
        storage: asterix_core::dataset::StorageConfig {
            mem_budget: 32 << 10,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("open instance");
    db.execute_sqlpp(DDL).expect("ddl");
    let opened = db.metrics_snapshot();
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let start = Instant::now();
    let (ingested, queries) = std::thread::scope(|scope| {
        let ingest = {
            let db = db.clone();
            scope.spawn(move || {
                let feed = Feed::start(
                    db,
                    "Events",
                    FeedConfig { queue: 1024, batch: 64, ..FeedConfig::default() },
                );
                for i in 0..total {
                    feed.push(rec(i as i64)).expect("push");
                }
                let (ok, _) = feed.stop();
                ok
            })
        };
        let analytics = {
            let db = db.clone();
            let stop = Arc::clone(&stop);
            scope.spawn(move || {
                let mut done = 0u64;
                while !stop.load(std::sync::atomic::Ordering::Acquire) {
                    db.query("SELECT e.grp AS g, COUNT(*) AS c FROM Events e GROUP BY e.grp")
                        .expect("concurrent analytics query");
                    done += 1;
                }
                done
            })
        };
        let ingested = ingest.join().expect("ingest thread");
        stop.store(true, std::sync::atomic::Ordering::Release);
        (ingested, analytics.join().expect("analytics thread"))
    });
    let elapsed_s = start.elapsed().as_secs_f64();
    let ended = db.metrics_snapshot();
    let truncated = node_sum(&ended.delta(&opened), "storage.wal.truncated_bytes", MetricsSnapshot::counter);
    Json::obj([
        ("mutations", Json::U64(ingested)),
        ("mutations_per_sec", num(ingested as f64 / elapsed_s)),
        ("concurrent_queries", Json::U64(queries)),
        ("elapsed_s", num(elapsed_s)),
        // segment files on disk now, over all nodes: a level, not a count of events
        ("wal_segments", Json::I64(node_sum(&ended, "storage.wal.segments", MetricsSnapshot::gauge))),
        ("wal_truncated_bytes", Json::U64(truncated)),
    ])
}

/// Pushes a burst through an undersized queue under one policy and records
/// how the congestion resolved.
fn policy_point(policy: IngestionPolicy, name: &str, total: u64) -> Json {
    let db = Instance::temp().expect("open instance");
    db.execute_sqlpp(DDL).expect("ddl");
    let opened = db.metrics_snapshot();
    let feed = Feed::start(
        db.clone(),
        "Events",
        FeedConfig {
            queue: 64,
            batch: 16,
            policy,
            retry: RetryPolicy::default(),
        },
    );
    let start = Instant::now();
    for i in 0..total {
        feed.push(rec(i as i64)).expect("push");
    }
    let (discarded, spilled) = (feed.discarded(), feed.spilled());
    let (ingested, _) = feed.stop();
    let elapsed_s = start.elapsed().as_secs_f64();
    // `Feed::start` registered it, after `opened`: `delta` passes it through
    let ran = db.metrics_snapshot().delta(&opened);
    let throttle_ns = ran.counter("core.feed.throttle_ns").expect(MISSING);
    Json::obj([
        ("policy", Json::str(name)),
        ("pushed", Json::U64(total)),
        ("ingested", Json::U64(ingested)),
        ("discarded", Json::U64(discarded)),
        ("spilled", Json::U64(spilled)),
        ("throttle_ms", num(throttle_ns as f64 / 1e6)),
        ("mutations_per_sec", num(ingested as f64 / elapsed_s)),
    ])
}

/// Runs the suite: `BENCH_feeds.json`'s contents.
pub fn run(quick: bool) -> Json {
    let per_feed: u64 = if quick { 400 } else { 2_500 };
    let analytics_total: u64 = if quick { 3_000 } else { 20_000 };
    let policy_total: u64 = if quick { 1_000 } else { 8_000 };

    eprintln!("feeds: durability sweep ({FEEDS} feeds x {per_feed} records)...");
    let durability = durability_point(per_feed);
    eprintln!("feeds: concurrent analytics ({analytics_total} records)...");
    let htap = analytics_point(analytics_total);
    eprintln!("feeds: congestion policies ({policy_total} records each)...");
    let policies = vec![
        policy_point(IngestionPolicy::Throttle, "throttle", policy_total),
        policy_point(IngestionPolicy::Discard, "discard", policy_total),
        policy_point(IngestionPolicy::Spill, "spill", policy_total),
    ];
    report_doc(
        "repro feeds",
        quick,
        [
            (
                "methodology",
                Json::str(
                    "mutations/sec = committed feed records over wall time; every batch commit \
                     is fsynced through the group-commit WAL (wal_group_commits = leader fsync \
                     rounds, wal_group_commit_waiters = commits covered by another committer's \
                     round); with_analytics runs on 32 KiB memory components, so its log is \
                     rotated and truncated all along (wal_segments = segment files left at the \
                     end, over both nodes); policy points push a burst through a 64-slot queue",
                ),
            ),
            ("durability", durability),
            ("with_analytics", htap),
            ("policies", Json::Arr(policies)),
        ],
    )
}

/// The recovery-check battery behind `repro feeds --check`: kill a node
/// mid-ingest, fail-stop, crash, reopen, resume from the durable frontier,
/// and verify the exactly-once contract. With `inject_loss` the resume
/// deliberately skips 5 seqnos past the frontier — the battery must notice
/// the hole and fail, proving the check can actually catch a loss (CI runs
/// both directions).
pub fn check(inject_loss: bool) -> (String, bool) {
    const TOTAL: u64 = 200;
    const KILL_AT: u64 = 60;
    let dir: PathBuf = std::env::temp_dir().join(format!(
        "asterix-feeds-check-{}-{}",
        std::process::id(),
        std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .expect("clock")
            .as_nanos()
    ));
    let open_at = |d: &PathBuf| {
        Instance::open(InstanceConfig {
            data_dir: Some(d.clone()),
            nodes: 1,
            partitions: 2,
            ..InstanceConfig::default()
        })
        .expect("instance opens")
    };
    let mut report = String::new();
    let db = open_at(&dir);
    db.execute_sqlpp(DDL).expect("ddl");
    let feed = Feed::start(
        db.clone(),
        "Events",
        FeedConfig {
            queue: 8,
            batch: 4,
            policy: IngestionPolicy::Throttle,
            retry: RetryPolicy {
                max_attempts: 3,
                backoff: Duration::from_millis(1),
                restart_dead_nodes: false,
            },
        },
    );
    for id in 0..TOTAL {
        if id == KILL_AT {
            db.kill_node(0);
        }
        if feed.push(rec(id as i64)).is_err() {
            break;
        }
    }
    let (ingested1, _) = feed.stop();
    let durable = db.feed_durable_seq(&Feed::cursor("Events")).expect("durable frontier");
    report.push_str(&format!(
        "feeds-check: killed node at record {KILL_AT}; {ingested1} committed, durable seqno {durable}\n"
    ));
    db.crash();

    let db = open_at(&dir);
    let recovered = db.count("Events").expect("recovered count") as u64;
    report.push_str(&format!("feeds-check: recovered {recovered} rows after crash\n"));
    let resume_from = if inject_loss { durable + 5 } else { durable };
    if inject_loss {
        report.push_str("feeds-check: INJECTING LOSS: resuming 5 seqnos past the frontier\n");
    }
    let feed = Feed::resume(db.clone(), "Events", resume_from);
    for id in resume_from..TOTAL {
        feed.push(rec(id as i64)).expect("replay push");
    }
    let (ingested2, _) = feed.stop();
    let rows = db.query("SELECT VALUE e.id FROM Events e").expect("final query");
    let distinct: std::collections::BTreeSet<i64> =
        rows.iter().filter_map(asterix_adm::Value::as_i64).collect();
    let _ = std::fs::remove_dir_all(&dir);

    let mut ok = true;
    if recovered != ingested1 {
        ok = false;
        report.push_str(&format!(
            "feeds-check: FAIL: {ingested1} records committed but {recovered} recovered\n"
        ));
    }
    if distinct.len() != rows.len() {
        ok = false;
        report.push_str(&format!(
            "feeds-check: FAIL: duplicates — {} rows, {} distinct ids\n",
            rows.len(),
            distinct.len()
        ));
    }
    if rows.len() as u64 != TOTAL {
        ok = false;
        report.push_str(&format!(
            "feeds-check: FAIL: lost records — {} present, {TOTAL} pushed\n",
            rows.len()
        ));
    }
    if ok {
        report.push_str(&format!(
            "feeds-check: OK: {} + {} records, exactly-once after kill/crash/resume\n",
            ingested1, ingested2
        ));
    }
    (report, ok)
}

#[cfg(test)]
mod tests {
    #[test]
    fn feeds_quick_meets_acceptance_shape() {
        let json = super::run(true).render_pretty();
        assert!(!json.contains("NaN") && !json.contains("inf") && !json.contains("null"));
        assert!(json.contains("\"generated_by\": \"repro feeds\""));
        assert!(json.contains("\"durability\": {"));
        assert!(json.contains("\"with_analytics\": {"));
        for p in ["throttle", "discard", "spill"] {
            assert!(json.contains(&format!("\"policy\": \"{p}\"")), "missing policy {p}");
        }
    }

    #[test]
    fn check_battery_passes_clean_and_catches_injected_loss() {
        let (report, ok) = super::check(false);
        assert!(ok, "clean run must pass:\n{report}");
        let (report, ok) = super::check(true);
        assert!(!ok, "injected loss must be detected:\n{report}");
        assert!(report.contains("FAIL"), "loss report names the failure:\n{report}");
    }
}
