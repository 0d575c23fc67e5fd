//! Sustained-ingestion bench for the fault-tolerant feed subsystem — the
//! persistent baseline behind `BENCH_feeds.json`.
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
use asterix_obs::{Flag, Json, MetricsSnapshot};
use std::sync::Arc;
use std::time::Instant;

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
    let db = Instance::open(InstanceConfig {
        storage: asterix_core::dataset::StorageConfig {
            mem_budget: 32 << 10,
            ..Default::default()
        },
        ..Default::default()
    })
    .expect("open instance");
    db.execute_sqlpp(DDL).expect("ddl");
    let opened = db.metrics_snapshot();
    let stop = Arc::new(Flag::new(false));
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
                while !stop.get() {
                    db.query("SELECT e.grp AS g, COUNT(*) AS c FROM Events e GROUP BY e.grp")
                        .expect("concurrent analytics query");
                    done += 1;
                }
                done
            })
        };
        let ingested = ingest.join().expect("ingest thread");
        stop.set(true);
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
}
