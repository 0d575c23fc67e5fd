//! Hot-path benchmark suite — the persistent baseline behind
//! `BENCH_hotpath.json`: what the repository benchmark (`benchmark/`)
//! cannot measure, because it runs below an instance or sweeps a knob an
//! instance fixes.
//!
//! 1. **Buffer cache**: cache-hit throughput of the lock-striped cache
//!    under 1–8 concurrent scanners.
//! 2. **Join**: hybrid hash-join build+probe throughput.
//! 3. **Morsel scheduler**: one aggregation at 1, 2 and 4 partitions on the
//!    shared worker pool, with the scheduler's own counters.
//! 4. **Compaction**: the same ingest with merges on the flushing thread
//!    and on the worker pool.
//!
//! Every cache figure is *measured* aggregate wall-clock throughput on this
//! host. On a single-core testbed S scanner threads time-share the CPU, so
//! the interesting property is that the aggregate does not *collapse* as
//! scanners are added: hits take a shared read lock and an atomic
//! reference-bit store, never an exclusive section.

use crate::{num, report_doc, time_it, MISSING};
use asterix_adm::Value;
use asterix_core::instance::{Instance, InstanceConfig};
use asterix_hyracks::ops::drive;
use asterix_hyracks::RuntimeCtx;
use asterix_obs::Json;
use asterix_storage::cache::{BufferCache, CacheOptions};
use asterix_storage::io::{FileId, FileManager, PAGE_SIZE};
use asterix_storage::stats::IoStats;
use std::sync::Arc;
use std::time::Instant;

/// Scanner counts the cache microbench sweeps.
const SCANNERS: [usize; 4] = [1, 2, 4, 8];

// ---------------------------------------------------------------------------
// Section 1: cache-hit microbench
// ---------------------------------------------------------------------------

fn bench_dir(tag: &str) -> std::path::PathBuf {
    crate::experiments::exp_dir(tag)
}

fn make_pages(fm: &Arc<FileManager>, name: &str, pages: u64) -> FileId {
    let id = fm.create(name).unwrap();
    for i in 0..pages {
        let mut p = vec![0u8; PAGE_SIZE];
        p[..8].copy_from_slice(&i.to_le_bytes());
        fm.append_page(id, &p).unwrap();
    }
    id
}

fn cache_microbench(quick: bool) -> Json {
    let pages: u64 = 64;
    let rounds: u64 = if quick { 40 } else { 400 };
    let capacity = 128usize;
    let shards = 8usize;
    let root = bench_dir("hotpath-cache");
    let fm = FileManager::new(&root, IoStats::new()).unwrap();
    let file = make_pages(&fm, "hot.pf", pages);

    let sharded = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity, shards, readahead_pages: 0 },
    );
    // Warm the cache so the timed passes are pure hits.
    for p in 0..pages {
        sharded.get(file, p).unwrap();
    }
    let warmed = fm.stats().registry().snapshot();

    let ops = pages * rounds;
    let mut results = Vec::new();
    for s in SCANNERS {
        // S OS threads time-sharing this host's core(s).
        let start = Instant::now();
        std::thread::scope(|scope| {
            for _ in 0..s {
                scope.spawn(|| {
                    for _ in 0..rounds {
                        for p in 0..pages {
                            std::hint::black_box(sharded.get(file, p).unwrap());
                        }
                    }
                });
            }
        });
        let pps = (ops * s as u64) as f64 / start.elapsed().as_secs_f64();
        results.push(Json::obj([("scanners", Json::U64(s as u64)), ("pages_per_sec", num(pps))]));
    }
    let timed = fm.stats().registry().snapshot().delta(&warmed);
    let _ = std::fs::remove_dir_all(root);
    Json::obj([
        (
            "methodology",
            Json::str(
                "aggregate wall-clock pages/sec of S scanner threads hitting a warmed \
                 lock-striped cache on this host (threads time-share the CPU; see DESIGN.md, \
                 Hot-path performance); timed_misses counts cache misses inside the timed \
                 passes and must be 0",
            ),
        ),
        ("pages", Json::U64(pages)),
        ("rounds", Json::U64(rounds)),
        ("capacity", Json::U64(capacity as u64)),
        ("shards", Json::U64(shards as u64)),
        // the bench is only a *hit* bench while this stays 0
        ("timed_misses", Json::U64(timed.counter("storage.io.cache_misses").expect(MISSING))),
        ("results", Json::Arr(results)),
    ])
}

// ---------------------------------------------------------------------------
// Section 2: hash-join build/probe microbench
// ---------------------------------------------------------------------------

fn join_microbench(quick: bool) -> Json {
    let build_rows = if quick { 10_000 } else { 50_000 };
    let probe_rows = build_rows * 5;
    let build: Vec<_> = (0..build_rows)
        .map(|i| Ok(vec![Value::Int(i as i64), Value::from(format!("b{i}"))]))
        .collect();
    let probe: Vec<_> = (0..probe_rows)
        .map(|i| Ok(vec![Value::Int((i % build_rows) as i64), Value::from(format!("p{i}"))]))
        .collect();
    let join = asterix_hyracks::OpKind::HashJoin {
        left_keys: vec![0],
        right_keys: vec![0],
        kind: asterix_hyracks::job::JoinKind::Inner,
        right_arity: 2,
        memory: 256 << 20,
    };
    let ctx = RuntimeCtx::temp().unwrap();
    let (out, t) = time_it(|| {
        drive(&join, vec![Box::new(probe.into_iter()), Box::new(build.into_iter())], &ctx)
            .expect("in-memory join")
    });
    assert_eq!(out.tuples.len(), probe_rows);
    Json::obj([
        ("build_rows", Json::U64(build_rows as u64)),
        ("probe_rows", Json::U64(probe_rows as u64)),
        ("elapsed_ms", num(t.as_secs_f64() * 1e3)),
        ("tuples_per_sec", num((build_rows + probe_rows) as f64 / t.as_secs_f64())),
    ])
}

// ---------------------------------------------------------------------------
// Section 3: the morsel scheduler's dop sweep
// ---------------------------------------------------------------------------

/// Records the sweep aggregates, whatever `quick` says. The wall(4p)/wall(1p)
/// ratio only means something where per-partition work dwarfs the fixed
/// cost of four times the actors: the key and the argument of the aggregate
/// are expressions, evaluated per record in each partition's assign (a plain
/// `GROUP BY d.grp` over these records is 2–3 ms since scans yield columns —
/// all of it actor set-up, and the ratio read 0.86–1.13).
const E04_RECORDS: usize = 48_000;

struct E4Point {
    partitions: usize,
    wall_ms: f64,
    /// Scheduler counter deltas over the timed runs: how the morsel pool
    /// actually ran this degree of parallelism.
    sched: asterix_obs::MetricsSnapshot,
}

fn morsel_e04() -> Vec<E4Point> {
    const ROUNDS: usize = 5;
    // One dop at a time — load, measure, drop — so every dop runs under
    // identical conditions (fresh instance, nothing else alive, query
    // straight after commit). The walls feed a wall(4p)/wall(1p)
    // acceptance ratio, so each dop takes the min over ROUNDS timed runs
    // to discard host-load spikes.
    let mut points = Vec::new();
    for p in [1usize, 2, 4] {
        let db = Instance::open(InstanceConfig { nodes: p, partitions: p, ..Default::default() })
            .unwrap();
        db.execute_sqlpp(
            "CREATE TYPE T AS { id: int, grp: int, val: int };
             CREATE DATASET D(T) PRIMARY KEY id;",
        )
        .unwrap();
        let mut txn = db.begin();
        for i in 0..E04_RECORDS {
            txn.write(
                "D",
                &asterix_adm::parse::parse_value(&format!(
                    r#"{{"id":{i},"grp":{},"val":{}}}"#,
                    i % 64,
                    i % 1000
                ))
                .unwrap(),
                true,
            )
            .unwrap();
        }
        txn.commit().unwrap();
        let groups = (0..E04_RECORDS).map(|i| (i % 64 + i % 1000) % 64).collect::<std::collections::BTreeSet<_>>().len();
        let before = db.metrics_snapshot();
        let mut wall = f64::MAX;
        for _ in 0..ROUNDS {
            let (rows, t) = time_it(|| {
                db.query(
                    "SELECT g AS g, COUNT(*) AS c, SUM(d.val * 3 + d.id % 7) AS s FROM D d \
                     GROUP BY (d.grp + d.val) % 64 AS g",
                )
                .unwrap()
            });
            assert_eq!(rows.len(), groups);
            wall = wall.min(t.as_secs_f64());
        }
        let sched = db.metrics_snapshot().delta(&before);
        points.push(E4Point { partitions: p, wall_ms: wall * 1e3, sched });
    }
    points
}

/// Measured end-to-end walls on the shared worker pool plus the scheduler's
/// own counters: partitions are schedulable units, not threads, so raising
/// the dop past the core count must not raise wall time.
fn morsel_scheduler() -> Json {
    let points = morsel_e04();
    let (workers, idle_depths) = {
        let ctx = RuntimeCtx::temp().expect("temp ctx for pool probe");
        let pool = ctx.worker_pool();
        (pool.workers(), pool.queue_depths())
    };
    let ratio = points[2].wall_ms / points[0].wall_ms.max(1e-9);
    let measured = points.iter().map(|p| {
        let count = |name: &str| p.sched.counter(&format!("hyracks.sched.{name}")).expect(MISSING);
        let (steals, local_hits) = (count("steals"), count("local_hits"));
        Json::obj([
            ("partitions", Json::U64(p.partitions as u64)),
            ("wall_ms", num(p.wall_ms)),
            ("tuples_per_sec", num(E04_RECORDS as f64 / (p.wall_ms / 1e3))),
            ("morsels", Json::U64(count("morsels"))),
            ("steals", Json::U64(steals)),
            ("local_hits", Json::U64(local_hits)),
            ("steal_rate", num(steals as f64 / ((steals + local_hits) as f64).max(1.0))),
            ("park_ms", num(count("park_ns") as f64 / 1e6)),
        ])
    });
    Json::obj([
        (
            "methodology",
            Json::str(
                "e04 walls measured end-to-end (min over 5 runs) per dop on one shared worker \
                 pool; steal_rate = steals / (steals + local_hits) from hyracks.sched.* counter \
                 deltas over the runs; queue depths sampled on an idle pool (one slot per \
                 worker deque plus the shared injector)",
            ),
        ),
        ("workers", Json::U64(workers as u64)),
        ("morsel_tuples", Json::U64(asterix_hyracks::MORSEL_TUPLES as u64)),
        ("records", Json::U64(E04_RECORDS as u64)),
        ("e04_measured", Json::Arr(measured.collect())),
        ("queue_depths_at_idle", Json::Arr(idle_depths.iter().map(|&d| Json::U64(d as u64)).collect())),
        ("wall_4p_over_1p", num(ratio)),
    ])
}

// ---------------------------------------------------------------------------
// Section 4: compaction — ingest stall, merges on the caller vs on the pool
// ---------------------------------------------------------------------------

/// One ingest run: upsert `n` records through a merge-happy LSM tree,
/// timing the write path. The executor a node starts with runs the
/// merge on the flushing thread (every flush that triggers a merge stalls
/// for the whole rewrite); the pool's runs merges on the morsel workers,
/// so the write path pays the hand-off and, at each seal, whatever of the
/// merge in flight the pool has not done yet, which the seal finishes. The
/// difference shows up directly in the merge stall, which times the
/// compaction work done on the write path. A seal finishes every merge
/// first, so both runs merge alike. Returns the report and the stall in
/// nanoseconds.
fn compaction_ingest(tag: &str, n: i64, exec: asterix_storage::CompactionExec) -> (Json, u64) {
    use asterix_adm::binary::encode_key;
    use asterix_storage::lsm::{LsmConfig, LsmTree, MergePolicy};
    let root = bench_dir(tag);
    let fm = FileManager::new(&root, IoStats::new()).unwrap();
    let cache = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 256, shards: 0, readahead_pages: 0 },
    );
    fm.stats().lsm().install_executor(exec);
    let before = fm.stats().registry().snapshot();
    let mut tree = LsmTree::new(
        Arc::clone(&cache),
        LsmConfig {
            mem_budget: 1 << 20,
            // Low tolerance: merges fire every couple of flushes, the
            // regime where merging on the caller hurts ingest the most.
            merge_policy: MergePolicy::Prefix {
                max_mergable_bytes: 256 << 20,
                max_tolerance_components: 2,
            },
            ..LsmConfig::new("ingest")
        },
    );
    let key = |i: i64| encode_key(&[Value::Int(i)]);
    let (_, t) = time_it(|| {
        for i in 0..n {
            tree.upsert(key(i), format!("record-{i}-{}", "x".repeat(120)).into_bytes()).unwrap();
        }
        tree.flush().unwrap();
    });
    // Stall accrues only on the write path (at a seal or a flush), so it is
    // final once ingest ends; quiesce before reading amplification so the
    // merges the last flush handed over finish.
    let moved = |name: &str| {
        let snap = fm.stats().registry().snapshot().delta(&before);
        snap.counter(&format!("storage.lsm.{name}")).expect(MISSING)
    };
    let stall_ns = moved("merge_stall_ns");
    assert!(
        tree.run_merges_to_idle(),
        "compaction bench: background merges failed to quiesce"
    );
    let run = Json::obj([
        ("ingest_wall_ms", num(t.as_secs_f64() * 1e3)),
        ("merge_stall_ms", num(stall_ns as f64 / 1e6)),
        ("write_amp", num(moved("write_amp") as f64 / 1e3)),
        ("merges", Json::U64(moved("merges"))),
        ("components_at_quiesce", Json::U64(tree.component_count() as u64)),
    ]);
    drop(tree);
    let _ = std::fs::remove_dir_all(root);
    (run, stall_ns)
}

fn compaction_microbench(quick: bool) -> Json {
    let n: i64 = if quick { 40_000 } else { 160_000 };
    let (foreground, fg_ns) =
        compaction_ingest("hotpath-compact-fg", n, asterix_storage::compaction::on_caller());
    // Background merges ride the shared morsel pool, exactly as an
    // instance schedules them.
    let ctx = RuntimeCtx::temp().expect("temp ctx for compaction bench");
    let (background, bg_ns) =
        compaction_ingest("hotpath-compact-bg", n, asterix_hyracks::storage_compaction_executor(&ctx));
    Json::obj([
        (
            "methodology",
            Json::str(
                "same ingest run twice: foreground = a bare node's executor, the merge on the \
                 flushing thread; background = merges as morsel tasks on the shared worker \
                 pool, as an instance runs them; every seal first finishes the merge in \
                 flight on the writer, so both runs make the same merges; merge_stall_ms \
                 times the compaction work on the write path (foreground: the whole merge; \
                 background: the hand-off plus what the pool had not finished by the next \
                 seal), write_amp and merges from the node's storage.lsm.* counters after \
                 quiescing",
            ),
        ),
        ("records", Json::U64(n as u64)),
        ("foreground", foreground),
        ("background", background),
        ("stall_reduction", num(fg_ns.max(1) as f64 / bg_ns.max(1) as f64)),
    ])
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Runs the whole suite: `BENCH_hotpath.json`'s contents.
pub fn run(quick: bool) -> Json {
    eprintln!("hotpath: cache-hit microbench...");
    let cache = cache_microbench(quick);
    eprintln!("hotpath: join microbench...");
    let join = join_microbench(quick);
    eprintln!("hotpath: morsel scheduler (e04 at 1, 2 and 4 partitions)...");
    let morsels = morsel_scheduler();
    eprintln!("hotpath: compaction (merges on the caller vs on the pool)...");
    let compaction = compaction_microbench(quick);
    report_doc(
        "repro hotpath",
        quick,
        [
            ("cache_hit_microbench", cache),
            ("join_microbench", join),
            ("morsel_scheduler", morsels),
            ("compaction", compaction),
        ],
    )
}

#[cfg(test)]
mod tests {
    use crate::number;

    #[test]
    fn hotpath_quick_meets_acceptance_shape() {
        let doc = super::run(true);
        let json = doc.render_pretty();
        assert!(!json.contains("NaN") && !json.contains("inf") && !json.contains("null"));
        assert!(json.contains("\"generated_by\": \"repro hotpath\""));
        // Sharded cache: the timed passes were pure hits, and the aggregate
        // throughput does not collapse as scanners pile on (a hit never
        // takes an exclusive lock).
        assert_eq!(number(&doc, &["cache_hit_microbench", "timed_misses"]), 0.0, "left the hit path");
        assert_eq!(json.matches("\"scanners\": ").count(), super::SCANNERS.len());
        let pps = |i: &str| number(&doc, &["cache_hit_microbench", "results", i, "pages_per_sec"]);
        assert!(
            pps("3") >= 0.25 * pps("0"),
            "8-scanner aggregate {} collapsed below a quarter of 1-scanner {}",
            pps("3"),
            pps("0")
        );
        assert!(number(&doc, &["join_microbench", "tuples_per_sec"]) > 0.0);
        // Morsel-scheduler section: one measured point per dop.
        assert!(number(&doc, &["morsel_scheduler", "workers"]) >= 1.0, "pool has at least one worker");
        assert_eq!(json.matches("\"steal_rate\": ").count(), 3);
        assert!(json.contains("\"queue_depths_at_idle\""), "queue-depth report present");
        assert!(number(&doc, &["morsel_scheduler", "wall_4p_over_1p"]) > 0.0);
        // Compaction section: both runs present, amplification sane.
        assert!(number(&doc, &["compaction", "stall_reduction"]) > 0.0);
        for run in ["foreground", "background"] {
            let amp = number(&doc, &["compaction", run, "write_amp"]);
            assert!(amp >= 1.0, "{run} write_amp {amp} < 1.0 — merges can't unwrite data");
            let merges = number(&doc, &["compaction", run, "merges"]);
            assert!(merges >= 1.0, "{run} ingest ran zero merges — the bench is vacuous");
        }
        // a seal finishes the merge in flight, so the pool merges as the caller does
        for count in ["write_amp", "merges", "components_at_quiesce"] {
            let (fg, bg) = (number(&doc, &["compaction", "foreground", count]), number(&doc, &["compaction", "background", count]));
            assert_eq!(bg, fg, "{count}: the executor changed what was merged");
        }
    }

    /// Dop is a scheduling decision: 4 partitions on the same pool must
    /// not cost materially more wall than 1. `bench-check.py` gates the
    /// release-build report at 1.1x; this in-tree check also has to pass on
    /// a noisy shared single-core host, where e04 walls of ~40ms swing
    /// +-30% run to run, so it re-measures up to three times and only
    /// rejects a ratio beyond 1.5x — the thread-per-partition blowup regime.
    #[test]
    fn four_partitions_cost_no_more_wall_than_one() {
        let tol = 1.5;
        let mut ratio = f64::MAX;
        for _ in 0..3 {
            let pts = super::morsel_e04();
            ratio = ratio.min(pts[2].wall_ms / pts[0].wall_ms);
            if ratio <= tol {
                break;
            }
        }
        assert!(ratio <= tol, "e04 wall at 4 partitions is {ratio}x the 1-partition wall");
    }
}
