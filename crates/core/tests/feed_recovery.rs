//! Feed recovery contract under chaos: kill a node mid-ingest under every
//! congestion policy, crash the instance, reopen, and resume from the last
//! durable feed seqno. Over random (seed, kill-point, policy) triples, four
//! invariants must hold:
//!
//!  1. committed ⇒ present exactly once — every record of a batch whose
//!     ingestion transaction committed before the kill is in the dataset
//!     after recovery, and no primary key appears twice even though the
//!     producer replays the tail (seqnos + PK upserts make replay
//!     idempotent);
//!  2. honest frontier — `Instance::feed_durable_seq` after the crash names
//!     a seqno whose full committed prefix recovered (dataset count equals
//!     records ingested before the kill);
//!  3. durable-seqno monotonicity — the frontier never moves backwards:
//!     after the replay it reaches the full stream length;
//!  4. lossless policies — under Throttle and Spill (which never drop) the
//!     recovered-and-resumed dataset is exactly the full id range; under
//!     Discard the dataset equals everything the two feed incarnations
//!     acknowledged (drops are audited, never silent).
//!
//! The seed perturbs queue depth, batch size, and producer pacing so the
//! kill lands in different spots of the push/commit interleaving; the
//! kill-point picks where in the stream the node dies. CI's chaos nightly
//! runs this battery at `PROPTEST_CASES=256`.
//!
//! A feed's frontier must also outlive the log it was written to: the
//! checkpoint that opens every log segment carries it, and the segments
//! behind are unlinked as the dataset flushes. A second battery crashes a
//! feed, by name, inside manifest publishes, log rotations and segment
//! unlinks, under a memory budget of a few records.

use asterix_adm::parse::parse_value;
use asterix_adm::Value;
use asterix_core::dataset::StorageConfig;
use asterix_core::feeds::{Feed, FeedConfig, IngestionPolicy};
use asterix_core::instance::{Instance, InstanceConfig, RetryPolicy};
use asterix_storage::faults::FaultInjector;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Self-cleaning scratch directory (integration tests cannot use the
/// crate-private test helpers).
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!(
            "asterix-feedrec-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn path(&self) -> &PathBuf {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const DDL: &str = r#"
    CREATE TYPE EventType AS { id: int, v: int };
    CREATE DATASET Stream(EventType) PRIMARY KEY id;
"#;

const TOTAL: u64 = 48;

fn rec(id: i64) -> Value {
    parse_value(&format!(r#"{{"id": {id}, "v": {id}}}"#)).unwrap()
}

fn policy(idx: usize) -> IngestionPolicy {
    match idx % 3 {
        0 => IngestionPolicy::Throttle,
        1 => IngestionPolicy::Discard,
        _ => IngestionPolicy::Spill,
    }
}

/// One node, so killing node 0 stalls every partition deterministically.
fn open(dir: &Path) -> Instance {
    Instance::open(InstanceConfig {
        data_dir: Some(dir.to_path_buf()),
        nodes: 1,
        partitions: 2,
        ..InstanceConfig::default()
    })
    .expect("instance opens")
}

/// The recovery-contract property for one (seed, kill-point, policy)
/// triple. Returns an error description on violation so both the proptest
/// and the pinned regression seeds share one implementation.
fn check_recovery_contract(seed: u64, kill_at: u64, pol_idx: usize) -> Result<(), String> {
    let pol = policy(pol_idx);
    // the seed perturbs the push/commit interleaving the kill lands in
    let batch = [1usize, 2, 4, 8][(seed % 4) as usize];
    let queue = [4usize, 8, 16][((seed / 4) % 3) as usize];
    let yield_every = (seed % 5) + 1;
    let dir = TempDir::new("contract");

    // ---- phase 1: ingest, kill mid-stream, fail-stop, crash --------------
    let db = open(dir.path());
    db.execute_sqlpp(DDL).map_err(|e| format!("ddl: {e}"))?;
    let feed = Feed::start(
        db.clone(),
        "Stream",
        FeedConfig {
            queue,
            batch,
            policy: pol,
            retry: RetryPolicy {
                max_attempts: 3,
                backoff: Duration::from_millis(1),
                restart_dead_nodes: false,
            },
        },
    );
    for id in 0..TOTAL {
        if id == kill_at {
            db.kill_node(0);
        }
        if feed.push(rec(id as i64)).is_err() {
            break; // the feed fail-stopped after exhausting its retry budget
        }
        if id % yield_every == 0 {
            std::thread::yield_now();
        }
    }
    let (ingested1, rejected1) = feed.stop();
    if rejected1 != 0 {
        return Err(format!("phase 1 rejected {rejected1} records (none are malformed)"));
    }
    let cursor = Feed::cursor("Stream");
    let durable1 = db.feed_durable_seq(&cursor).map_err(|e| format!("durable read: {e}"))?;
    if pol != IngestionPolicy::Discard && durable1 != ingested1 {
        return Err(format!(
            "lossless policy has gaps: durable={durable1} but ingested={ingested1}"
        ));
    }
    if durable1 < ingested1 {
        return Err(format!("frontier {durable1} behind acknowledged {ingested1}"));
    }
    db.crash();

    // ---- phase 2: reopen, resume from the durable frontier ---------------
    let db = open(dir.path());
    let durable2 = db.feed_durable_seq(&cursor).map_err(|e| format!("durable reread: {e}"))?;
    if durable2 != durable1 {
        return Err(format!("frontier moved across crash: {durable1} -> {durable2}"));
    }
    let recovered = db.count("Stream").map_err(|e| format!("count: {e}"))? as u64;
    if recovered != ingested1 {
        return Err(format!(
            "recovered {recovered} rows but {ingested1} were acknowledged committed"
        ));
    }
    // replay the tail: records with seqno > frontier, i.e. ids >= frontier
    // (seqnos are assigned in push order starting at 1, so seq(id) = id+1)
    let feed = Feed::resume_with(
        db.clone(),
        "Stream",
        durable2,
        FeedConfig {
            queue: TOTAL as usize + 16, // replay without congestion
            batch,
            policy: pol,
            retry: RetryPolicy::default(),
        },
    );
    for id in durable2..TOTAL {
        feed.push(rec(id as i64)).map_err(|e| format!("replay push: {e}"))?;
    }
    let (ingested2, rejected2) = feed.stop();
    if rejected2 != 0 {
        return Err(format!("replay rejected {rejected2} records"));
    }

    // ---- invariants ------------------------------------------------------
    let final_durable = db.feed_durable_seq(&cursor).map_err(|e| format!("final read: {e}"))?;
    if final_durable < durable2 {
        return Err(format!("frontier regressed: {durable2} -> {final_durable}"));
    }
    if final_durable != TOTAL {
        return Err(format!("replay ended at frontier {final_durable}, want {TOTAL}"));
    }
    let rows = db
        .query("SELECT VALUE s.id FROM Stream s")
        .map_err(|e| format!("final query: {e}"))?;
    let ids: BTreeSet<i64> = rows.iter().filter_map(Value::as_i64).collect();
    if ids.len() != rows.len() {
        return Err(format!(
            "a record was applied twice: {} rows, {} distinct ids",
            rows.len(),
            ids.len()
        ));
    }
    if rows.len() as u64 != ingested1 + ingested2 {
        return Err(format!(
            "acknowledged {} + {} records but {} are present",
            ingested1,
            ingested2,
            rows.len()
        ));
    }
    if pol != IngestionPolicy::Discard {
        let want: BTreeSet<i64> = (0..TOTAL as i64).collect();
        if ids != want {
            let missing: Vec<i64> = want.difference(&ids).copied().collect();
            return Err(format!("lossless policy lost records: missing ids {missing:?}"));
        }
    }
    Ok(())
}

/// Honour the CI nightly's `PROPTEST_CASES` (the in-attribute config
/// overrides proptest's own env lookup).
fn cases() -> u32 {
    std::env::var("PROPTEST_CASES").ok().and_then(|s| s.parse().ok()).unwrap_or(16)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(cases()))]

    /// Kill-mid-ingest recovery holds over random (seed, kill-point,
    /// policy) triples.
    #[test]
    fn kill_mid_ingest_recovers_exactly_once(
        seed in 0u64..10_000,
        kill_at in 0u64..TOTAL,
        pol_idx in 0usize..3,
    ) {
        if let Err(why) = check_recovery_contract(seed, kill_at, pol_idx) {
            prop_assert!(false, "seed={} kill_at={} policy={}: {}", seed, kill_at, pol_idx, why);
        }
    }
}

/// Pinned regression triples: the kill landing before any commit, in the
/// middle of the stream, and on the last record — once per policy.
#[test]
fn pinned_kill_points_recover_under_every_policy() {
    for (seed, kill_at, pol_idx) in [
        (1u64, 0u64, 0usize),
        (7, 0, 1),
        (42, 0, 2),
        (3, TOTAL / 2, 0),
        (11, TOTAL / 2, 1),
        (19, TOTAL / 2, 2),
        (5, TOTAL - 1, 0),
        (13, TOTAL - 1, 1),
        (23, TOTAL - 1, 2),
    ] {
        if let Err(why) = check_recovery_contract(seed, kill_at, pol_idx) {
            panic!("seed={seed} kill_at={kill_at} policy={pol_idx}: {why}");
        }
    }
}

/// One node whose indexes flush every few records, so that a 48-record feed
/// publishes manifests, rotates the log and unlinks segments all along.
fn open_flushing(dir: &Path, faults: Option<std::sync::Arc<FaultInjector>>) -> Option<Instance> {
    Instance::open(InstanceConfig {
        data_dir: Some(dir.to_path_buf()),
        nodes: 1,
        partitions: 2,
        storage: StorageConfig { mem_budget: 256, ..StorageConfig::default() },
        faults,
        ..InstanceConfig::default()
    })
    .ok()
}

/// Crashes a lossless feed at the `nth` occurrence of the named I/O step,
/// reopens, resumes. `Ok(false)` when the run has no such occurrence.
fn check_frontier_across_crash_point(point: &str, nth: u64) -> Result<bool, String> {
    let dir = TempDir::new("points");
    let injector = FaultInjector::crash_at(17, point, nth);
    let cursor = Feed::cursor("Stream");
    let config = || FeedConfig {
        queue: 8,
        batch: 4,
        policy: IngestionPolicy::Throttle,
        retry: RetryPolicy::default(),
    };
    let (acknowledged, seen_online) = match open_flushing(dir.path(), Some(injector.clone())) {
        Some(db) if db.execute_sqlpp(DDL).is_ok() => {
            let feed = Feed::start(db.clone(), "Stream", config());
            for id in 0..TOTAL {
                if feed.push(rec(id as i64)).is_err() {
                    break; // the feed fail-stopped on the injected crash
                }
            }
            let (ingested, _) = feed.stop();
            let online = db.feed_durable_seq(&cursor).map_err(|e| format!("online read: {e}"))?;
            db.crash();
            (ingested, online)
        }
        // the crash landed in open or in the DDL: nothing was ingested
        _ => (0, 0),
    };
    if !injector.crashed() {
        return Ok(false);
    }

    let db = open_flushing(dir.path(), None).ok_or("recovery failed")?;
    if db.count("Stream").is_err() {
        if acknowledged > 0 {
            return Err("the dataset was lost after records were acknowledged".into());
        }
        // the crash landed in the DDL: finish whichever statement it cut off
        for stmt in DDL.split_inclusive(';') {
            let _ = db.execute_sqlpp(stmt);
        }
    }
    let durable = db.feed_durable_seq(&cursor).map_err(|e| format!("durable read: {e}"))?;
    // the batch the crash interrupted may have committed unacknowledged
    if durable < acknowledged || durable < seen_online {
        return Err(format!(
            "frontier regressed: {durable} after the crash, {acknowledged} acknowledged, \
             {seen_online} seen before it"
        ));
    }
    let recovered = db.count("Stream").map_err(|e| format!("count: {e}"))? as u64;
    if recovered != durable {
        return Err(format!("frontier {durable} but {recovered} records recovered"));
    }
    let feed = Feed::resume_with(db.clone(), "Stream", durable, config());
    for id in durable..TOTAL {
        feed.push(rec(id as i64)).map_err(|e| format!("replay push: {e}"))?;
    }
    feed.stop();
    let rows = db.query("SELECT VALUE s.id FROM Stream s").map_err(|e| format!("query: {e}"))?;
    let ids: BTreeSet<i64> = rows.iter().filter_map(Value::as_i64).collect();
    if rows.len() as u64 != TOTAL || ids != (0..TOTAL as i64).collect() {
        return Err(format!("{} rows, {} distinct, want {TOTAL}", rows.len(), ids.len()));
    }
    let frontier = db.feed_durable_seq(&cursor).map_err(|e| format!("final read: {e}"))?;
    if frontier != TOTAL {
        return Err(format!("replay ended at frontier {frontier}, want {TOTAL}"));
    }
    // and the frontier is carried by checkpoints, not by an ever-growing log
    let segments = db.metrics_snapshot().gauge("node0.storage.wal.segments").unwrap_or(0);
    if segments > 4 {
        return Err(format!("{segments} log segments after {TOTAL} records"));
    }
    Ok(true)
}

/// The frontier and exactly-once hold across a crash at every manifest
/// publish, log rotation and segment unlink a feed's ingestion performs.
#[test]
fn frontier_survives_crashes_where_components_and_checkpoints_are_published() {
    let points = [
        ".manifest.tmp:write",
        ".manifest:rename",
        ".manifest:dirsync",
        ".wal.tmp:write",
        ".wal:rename",
        ".wal:dirsync",
        ".wal:unlink",
    ];
    for point in points {
        let mut fired = 0;
        for nth in 0..40 {
            match check_frontier_across_crash_point(point, nth) {
                Ok(true) => fired += 1,
                Ok(false) => break,
                Err(why) => panic!("{point} #{nth}: {why}"),
            }
        }
        assert!(fired >= 3, "{point}: ingestion reaches it only {fired} times");
    }
}
