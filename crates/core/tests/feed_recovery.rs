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
//! runs this battery at `PROPTEST_CASES=256`. A replay that resumes past
//! the frontier must fail the check, naming the records it lost.
//!
//! The DCP adapter ([`Feed::shadow`]) is swept the same way: a seeded
//! front-end stream of sets and deletes over a few keys, node 0 killed at a
//! point of it, the instance crashed and reopened and the feed started
//! again. Its frontier is at least what was acknowledged and unchanged by
//! the reopen, the reopened dataset is exactly the stream's prefix up to
//! the frontier, the restarted feed applies exactly the tail after it, no
//! key is there twice, no put brings back a key a later delete removed,
//! and the dataset ends equal to the front-end store.
//!
//! A feed's frontier must also outlive the log it was written to: the
//! checkpoint that opens every log segment carries it, and the segments
//! behind are unlinked as the dataset flushes. A second battery crashes a
//! feed, by name, inside manifest publishes, log rotations and segment
//! unlinks, under a memory budget of a few records.

#[path = "common/crash.rs"]
mod crash;

use asterix_adm::parse::parse_value;
use asterix_adm::Value;
use asterix_core::dataset::StorageConfig;
use asterix_core::dcp::{FrontEndStore, MutationKind};
use asterix_core::feeds::{Feed, FeedConfig, IngestionPolicy};
use asterix_core::instance::{Instance, InstanceConfig, RetryPolicy};
use asterix_storage::faults::FaultInjector;
use crash::TempDir;
use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};

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
fn open(dir: &Path, mem_budget: usize, faults: Option<Arc<FaultInjector>>) -> Option<Instance> {
    Instance::open(InstanceConfig {
        data_dir: Some(dir.to_path_buf()),
        nodes: 1,
        partitions: 2,
        storage: StorageConfig {
            mem_budget,
            ..StorageConfig::default()
        },
        faults,
        ..InstanceConfig::default()
    })
    .ok()
}

/// `Err(why())` unless `ok`.
fn ensure(ok: bool, why: impl FnOnce() -> String) -> Result<(), String> {
    if ok {
        Ok(())
    } else {
        Err(why())
    }
}

/// What a reopened feed's dataset must hold, then and after a replay: its
/// `recovered` records; once the stream's tail is replayed from `skip`
/// seqnos past the durable frontier, the frontier at the stream's end, no
/// record twice, every record either feed acknowledged and — under a
/// policy that never drops — every record. Anything but a `skip` of 0 loses
/// records, which the check must name.
fn resume(db: &Instance, recovered: u64, config: FeedConfig, skip: u64) -> Result<(), String> {
    let cursor = Feed::cursor("Stream");
    let count = db.count("Stream").map_err(|e| format!("count: {e}"))? as u64;
    ensure(count == recovered, || {
        format!("recovered {count} rows, want {recovered}")
    })?;
    let durable = db
        .feed_durable_seq(&cursor)
        .map_err(|e| format!("durable read: {e}"))?;
    let lossless = config.policy != IngestionPolicy::Discard;
    // seqnos are assigned in push order starting at 1, so seq(id) = id + 1
    let from = durable + skip;
    let feed = Feed::resume(db.clone(), "Stream", from, config);
    for id in from..TOTAL {
        feed.push(rec(id as i64))
            .map_err(|e| format!("replay push: {e}"))?;
    }
    let (replayed, rejected) = feed.stop();
    ensure(rejected == 0, || {
        format!("replay rejected {rejected} records")
    })?;
    let frontier = db
        .feed_durable_seq(&cursor)
        .map_err(|e| format!("final read: {e}"))?;
    ensure(frontier == TOTAL, || {
        format!("replay ended at frontier {frontier}, want {TOTAL}")
    })?;
    let rows = db
        .query("SELECT VALUE s.id FROM Stream s")
        .map_err(|e| format!("final query: {e}"))?;
    let ids: BTreeSet<i64> = rows.iter().filter_map(Value::as_i64).collect();
    ensure(ids.len() == rows.len(), || {
        format!(
            "a record was applied twice: {} rows, {} distinct ids",
            rows.len(),
            ids.len()
        )
    })?;
    ensure(rows.len() as u64 == recovered + replayed, || {
        format!(
            "acknowledged {recovered} + {replayed} records but {} are present",
            rows.len()
        )
    })?;
    let missing: Vec<i64> = (0..TOTAL as i64).filter(|id| !ids.contains(id)).collect();
    ensure(!lossless || missing.is_empty(), || {
        format!("lossless policy lost records: missing ids {missing:?}")
    })
}

/// The recovery-contract property for one (seed, kill-point, policy)
/// triple, its replay resuming `skip` seqnos past the frontier. Returns an
/// error description on violation so both the proptest and the pinned
/// regression seeds share one implementation.
fn check_recovery_contract(
    seed: u64,
    kill_at: u64,
    pol_idx: usize,
    skip: u64,
) -> Result<(), String> {
    let pol = policy(pol_idx);
    // the seed perturbs the push/commit interleaving the kill lands in
    let batch = [1usize, 2, 4, 8][(seed % 4) as usize];
    let queue = [4usize, 8, 16][((seed / 4) % 3) as usize];
    let yield_every = (seed % 5) + 1;
    let dir = TempDir::new("contract");
    let budget = StorageConfig::default().mem_budget;

    // ---- phase 1: ingest, kill mid-stream, fail-stop, crash --------------
    let db = open(dir.path(), budget, None).ok_or("open failed")?;
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
    let (ingested, rejected) = feed.stop();
    ensure(rejected == 0, || {
        format!("phase 1 rejected {rejected} records (none are malformed)")
    })?;
    let cursor = Feed::cursor("Stream");
    let durable = db
        .feed_durable_seq(&cursor)
        .map_err(|e| format!("durable read: {e}"))?;
    ensure(
        pol == IngestionPolicy::Discard || durable == ingested,
        || format!("lossless policy has gaps: durable={durable} but ingested={ingested}"),
    )?;
    ensure(durable >= ingested, || {
        format!("frontier {durable} behind acknowledged {ingested}")
    })?;
    db.crash();

    // ---- phase 2: reopen, resume from the durable frontier ---------------
    let db = open(dir.path(), budget, None).ok_or("recovery failed")?;
    let reread = db
        .feed_durable_seq(&cursor)
        .map_err(|e| format!("durable reread: {e}"))?;
    ensure(reread == durable, || {
        format!("frontier moved across crash: {durable} -> {reread}")
    })?;
    let replay = FeedConfig {
        queue: TOTAL as usize + 16, // replay without congestion
        batch,
        policy: pol,
        retry: RetryPolicy::default(),
    };
    resume(&db, ingested, replay, skip)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Kill-mid-ingest recovery holds over random (seed, kill-point,
    /// policy) triples.
    #[test]
    fn kill_mid_ingest_recovers_exactly_once(
        seed in 0u64..10_000,
        kill_at in 0u64..TOTAL,
        pol_idx in 0usize..3,
    ) {
        if let Err(why) = check_recovery_contract(seed, kill_at, pol_idx, 0) {
            prop_assert!(false, "seed={} kill_at={} policy={}: {}", seed, kill_at, pol_idx, why);
        }
    }
}

/// Seed 6 draws batches of 4 through a queue of 8.
const BATCH_4_QUEUE_8: u64 = 6;

/// Pinned regression triples: the kill landing before any commit, in the
/// middle of the stream, and on the last record — once per policy — and a
/// Throttle feed of batches of 4 through a queue of 8 killed 30 % of the
/// way in.
#[test]
fn pinned_kill_points_recover_under_every_policy() {
    for (seed, kill_at, pol_idx) in [
        (BATCH_4_QUEUE_8, TOTAL * 3 / 10, 0),
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
        if let Err(why) = check_recovery_contract(seed, kill_at, pol_idx, 0) {
            panic!("seed={seed} kill_at={kill_at} policy={pol_idx}: {why}");
        }
    }
}

/// The check can catch a loss: a replay that resumes 5 seqnos past the
/// durable frontier fails it, naming the 5 ids it skipped.
#[test]
fn a_replay_past_the_frontier_is_named_a_loss() {
    let why = check_recovery_contract(BATCH_4_QUEUE_8, TOTAL * 3 / 10, 0, 5)
        .expect_err("5 records were never replayed");
    let (_, missing) = why.split_once("missing ids ").expect(&why);
    let ids: Vec<i64> = missing
        .trim_matches(['[', ']'])
        .split(", ")
        .map(|id| id.parse().unwrap())
        .collect();
    assert_eq!(ids.len(), 5, "{why}");
    assert!(ids.windows(2).all(|w| w[1] == w[0] + 1), "{why}");
}

/// Keys the DCP stream sets and deletes: few, so that each is set again and
/// deleted again many times in one stream.
const KEYS: u64 = 6;

/// Appends the seeded stream's next mutation to `store`: a delete of a live
/// key or a set of `{"id": key, "v": seq}`, so a row names the set it came
/// from.
fn next_mutation(store: &FrontEndStore, rng: &mut u64) {
    *rng = rng
        .wrapping_mul(6_364_136_223_846_793_005)
        .wrapping_add(1_442_695_040_888_963_407);
    let draw = *rng >> 33;
    let key = (draw % KEYS).to_string();
    if (draw / KEYS).is_multiple_of(3) && store.get(&key).is_some() {
        store.delete(&key);
    } else {
        let seq = store.high_seq() + 1;
        store.set(
            key.clone(),
            parse_value(&format!(r#"{{"id": {key}, "v": {seq}}}"#)).unwrap(),
        );
    }
}

/// Checks the shadow against the first `n` mutations of the stream: each
/// key whose last mutation is a set holds that set, each key whose last is
/// a delete is gone, and no other key and no key twice is there.
fn shadow_matches(db: &Instance, store: &FrontEndStore, n: u64) -> Result<(), String> {
    // key -> (seq of its last mutation, whether that mutation is a set)
    let mut model = BTreeMap::new();
    for m in store.stream_since(0, n as usize) {
        let key: i64 = m.key.parse().unwrap();
        model.insert(key, (m.seq, matches!(m.kind, MutationKind::Put(_))));
    }
    let rows = db
        .query("SELECT s.id AS id, s.v AS v FROM Stream s")
        .map_err(|e| format!("shadow query: {e}"))?;
    let mut shadow = BTreeMap::new();
    for row in &rows {
        let (Some(id), Some(v)) = (row.field("id").as_i64(), row.field("v").as_i64()) else {
            return Err(format!("a row without an int id and v: {row}"));
        };
        ensure(shadow.insert(id, v as u64).is_none(), || {
            format!("key {id} is in the shadow twice")
        })?;
    }
    for (key, &(seq, is_set)) in &model {
        let held = shadow.remove(key);
        match held {
            None if is_set => return Err(format!("key {key} lost the set of mutation {seq}")),
            Some(v) if !is_set => {
                return Err(format!(
                    "key {key}, deleted by mutation {seq}, is back with the set of mutation {v}"
                ))
            }
            Some(v) if v != seq => {
                return Err(format!(
                    "key {key} holds the set of mutation {v}, want that of mutation {seq}"
                ))
            }
            _ => {}
        }
    }
    match shadow.pop_first() {
        Some((key, v)) => Err(format!(
            "key {key} holds the set of mutation {v}, past mutation {n}"
        )),
        None => Ok(()),
    }
}

/// The DCP recovery contract for one (seed, kill-point) pair: a DCP feed
/// shadows a stream of [`TOTAL`] mutations, node 0 dies before mutation
/// `kill_at`, the instance crashes, reopens and shadows the stream again.
fn check_dcp_recovery(seed: u64, kill_at: u64) -> Result<(), String> {
    let config = FeedConfig {
        batch: [1usize, 2, 4, 8][(seed % 4) as usize],
        retry: RetryPolicy {
            max_attempts: 3,
            backoff: Duration::from_millis(1),
            restart_dead_nodes: false,
        },
        ..FeedConfig::default()
    };
    // the seed sets how far the feed may fall behind before the writer waits
    let catch_up_every = (seed % 5) + 1;
    let dir = TempDir::new("dcp");
    let budget = StorageConfig::default().mem_budget;
    let store = FrontEndStore::new();
    let mut rng = seed;
    let cursor = Feed::cursor("Stream");

    // ---- phase 1: shadow the stream, kill node 0 mid-stream, crash -------
    let db = open(dir.path(), budget, None).ok_or("open failed")?;
    db.execute_sqlpp(DDL).map_err(|e| format!("ddl: {e}"))?;
    let feed = Feed::shadow(db.clone(), "Stream", store.clone(), config.clone())
        .map_err(|e| format!("shadow: {e}"))?;
    for i in 0..TOTAL {
        if i == kill_at {
            db.kill_node(0);
        }
        next_mutation(&store, &mut rng);
        if i < kill_at && i % catch_up_every == 0 {
            let deadline = Instant::now() + Duration::from_secs(10);
            while feed.last_durable_seq() < store.high_seq() && Instant::now() < deadline {
                asterix_storage::lock_order::sleep(Duration::from_micros(100));
            }
        }
    }
    // the feed fail-stops on the dead node, at the latest while it drains
    let (acknowledged, rejected) = feed.stop();
    ensure(rejected == 0, || {
        format!("phase 1 rejected {rejected} mutations")
    })?;
    let durable = db
        .feed_durable_seq(&cursor)
        .map_err(|e| format!("durable read: {e}"))?;
    ensure(durable >= acknowledged, || {
        format!("frontier {durable} behind acknowledged {acknowledged}")
    })?;
    db.crash();

    // ---- phase 2: reopen, shadow again from the durable frontier ---------
    let db = open(dir.path(), budget, None).ok_or("recovery failed")?;
    let reread = db
        .feed_durable_seq(&cursor)
        .map_err(|e| format!("durable reread: {e}"))?;
    ensure(reread == durable, || {
        format!("frontier moved across crash: {durable} -> {reread}")
    })?;
    shadow_matches(&db, &store, durable).map_err(|why| format!("at frontier {durable}: {why}"))?;
    let feed = Feed::shadow(db.clone(), "Stream", store.clone(), config)
        .map_err(|e| format!("reshadow: {e}"))?;
    let (applied, rejected) = feed.stop();
    ensure(rejected == 0, || {
        format!("the restarted feed rejected {rejected} mutations")
    })?;
    let frontier = db
        .feed_durable_seq(&cursor)
        .map_err(|e| format!("final read: {e}"))?;
    ensure(frontier == TOTAL, || {
        format!("the restarted feed ended at frontier {frontier}, want {TOTAL}")
    })?;
    shadow_matches(&db, &store, TOTAL).map_err(|why| format!("at the end: {why}"))?;
    ensure(applied == TOTAL - durable, || {
        format!(
            "the restarted feed applied {applied} of mutations {}..={TOTAL}, after frontier {durable}",
            durable + 1
        )
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// DCP recovery holds over random (seed, kill-point) pairs.
    #[test]
    fn dcp_kill_mid_stream_recovers_exactly_once(seed in 0u64..10_000, kill_at in 0u64..TOTAL) {
        if let Err(why) = check_dcp_recovery(seed, kill_at) {
            prop_assert!(false, "seed={} kill_at={}: {}", seed, kill_at, why);
        }
    }
}

/// Pinned DCP pairs: the kill before the first commit, at the middle of the
/// stream and on its last mutation, each at batches of 1, 2, 4 and 8.
#[test]
fn pinned_dcp_kill_points_recover() {
    for kill_at in [0, TOTAL / 2, TOTAL - 1] {
        for seed in [4u64, 1, 2, 3] {
            if let Err(why) = check_dcp_recovery(seed, kill_at) {
                panic!("seed={seed} kill_at={kill_at}: {why}");
            }
        }
    }
}

fn lossless() -> FeedConfig {
    FeedConfig {
        queue: 8,
        batch: 4,
        policy: IngestionPolicy::Throttle,
        retry: RetryPolicy::default(),
    }
}

/// Feeds the stream into a lossless feed under `injector` until the crash,
/// on one node whose indexes flush every few records, so that it publishes
/// manifests, rotates the log and unlinks segments all along. Returns the
/// records acknowledged and the frontier read before the crash.
fn feed_until_the_crash(dir: &Path, injector: &Arc<FaultInjector>) -> Result<(u64, u64), String> {
    let opened = open(dir, 256, Some(injector.clone()));
    let Some(db) = opened.filter(|db| db.execute_sqlpp(DDL).is_ok()) else {
        // the crash landed in open or in the DDL: nothing was ingested
        return Ok((0, 0));
    };
    let feed = Feed::start(db.clone(), "Stream", lossless());
    for id in 0..TOTAL {
        if feed.push(rec(id as i64)).is_err() {
            break; // the feed fail-stopped on the injected crash
        }
    }
    let (ingested, _) = feed.stop();
    let online = db
        .feed_durable_seq(&Feed::cursor("Stream"))
        .map_err(|e| format!("online read: {e}"))?;
    db.crash();
    Ok((ingested, online))
}

/// Reopens a feed crashed by [`feed_until_the_crash`], checks its frontier
/// against what was acknowledged and seen, and resumes from it.
fn check_frontier(dir: &Path, (acknowledged, seen_online): (u64, u64)) -> Result<(), String> {
    let db = open(dir, 256, None).ok_or("recovery failed")?;
    if db.count("Stream").is_err() {
        ensure(acknowledged == 0, || {
            "the dataset was lost after records were acknowledged".into()
        })?;
        // the crash landed in the DDL: finish whichever statement it cut off
        for stmt in DDL.split_inclusive(';') {
            let _ = db.execute_sqlpp(stmt);
        }
    }
    let durable = db
        .feed_durable_seq(&Feed::cursor("Stream"))
        .map_err(|e| format!("durable read: {e}"))?;
    // the batch the crash interrupted may have committed unacknowledged
    ensure(durable >= acknowledged.max(seen_online), || {
        format!(
            "frontier regressed: {durable} after the crash, {acknowledged} acknowledged, \
             {seen_online} seen before it"
        )
    })?;
    resume(&db, durable, lossless(), 0)?;
    // and the frontier is carried by checkpoints, not by an ever-growing log
    let segments = db
        .metrics_snapshot()
        .gauge("node0.storage.wal.segments")
        .unwrap_or(0);
    ensure(segments <= 4, || {
        format!("{segments} log segments after {TOTAL} records")
    })
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
    crash::sweep(17, &points, 3, feed_until_the_crash, |dir, out| {
        check_frontier(dir, out?)
    });
}
