//! Hot-path benchmark suite — the persistent baseline behind
//! `BENCH_hotpath.json`.
//!
//! Micro sections, each timing the live production path:
//!
//! 1. **Buffer cache**: cache-hit throughput of the lock-striped cache
//!    under 1–8 concurrent scanners.
//! 2. **Exchange**: tuple repartitioning through the sized frame path
//!    (cached tuple sizes).
//! 3. **Join**: hybrid hash-join build+probe throughput.
//!
//! Plus `repro`-driven macro runs of the E1/E4/E7 workload shapes reporting
//! tuples/sec, the morsel-scheduler scale-out report, and the
//! foreground-vs-background compaction comparison.
//!
//! Every cache figure is *measured* aggregate wall-clock throughput on this
//! host. On a single-core testbed S scanner threads time-share the CPU, so
//! the interesting property is that the aggregate does not *collapse* as
//! scanners are added: hits take a shared read lock and an atomic
//! reference-bit store, never an exclusive section.

use crate::time_it;
use asterix_adm::Value;
use asterix_core::instance::{Instance, InstanceConfig};
use asterix_hyracks::ops::drive;
use asterix_hyracks::{Frame, RuntimeCtx, Tuple};
use asterix_storage::cache::{BufferCache, CacheOptions};
use asterix_storage::io::{FileId, FileManager, PAGE_SIZE};
use asterix_storage::stats::IoStats;
use std::sync::Arc;
use std::time::Instant;

/// Scanner counts the cache microbench sweeps.
const SCANNERS: [usize; 4] = [1, 2, 4, 8];

// ---------------------------------------------------------------------------
// JSON emission (hand-rolled; no serde in the offline workspace).
// ---------------------------------------------------------------------------

fn fnum(v: f64) -> String {
    if v.is_finite() {
        format!("{v:.2}")
    } else {
        "null".into()
    }
}

// ---------------------------------------------------------------------------
// Section 1: cache-hit microbench
// ---------------------------------------------------------------------------

struct CacheRow {
    scanners: usize,
    measured_pps: f64,
}

struct CacheSection {
    pages: u64,
    rounds: u64,
    capacity: usize,
    shards: usize,
    /// Cache misses during the timed passes; the bench is only a *hit*
    /// bench while this stays 0.
    timed_misses: u64,
    rows: Vec<CacheRow>,
}

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

fn cache_microbench(quick: bool) -> CacheSection {
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
    let misses_before = fm.stats().cache_misses();

    let ops = pages * rounds;
    let mut rows = Vec::new();
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
        rows.push(CacheRow {
            scanners: s,
            measured_pps: (ops * s as u64) as f64 / start.elapsed().as_secs_f64(),
        });
    }
    let timed_misses = fm.stats().cache_misses() - misses_before;
    let _ = std::fs::remove_dir_all(root);
    CacheSection { pages, rounds, capacity, shards, timed_misses, rows }
}

// ---------------------------------------------------------------------------
// Section 2: exchange repartition microbench
// ---------------------------------------------------------------------------

struct ExchangeSection {
    tuples: usize,
    destinations: usize,
    sized_path_tps: f64,
}

fn exchange_tuples(n: usize) -> Vec<Frame> {
    let mut frames = Vec::new();
    let mut f = Frame::new();
    for i in 0..n {
        // Representative of the documents the engine actually exchanges
        // (E1's Gleambook records): nested object + array fields, which a
        // per-hop size re-walk must recurse through.
        let t: Tuple = vec![
            Value::Int(i as i64),
            Value::from(format!("payload-{i:08}-{}", "x".repeat(24))),
            Value::object(vec![
                ("organizationName".into(), Value::from("org")),
                ("startDate".into(), Value::Date(15_000)),
                ("tags".into(), Value::Array(vec![Value::Int(1), Value::Int(2), Value::Int(3)])),
            ]),
            Value::Array((0..6).map(|k| Value::Int((i + k) as i64)).collect()),
            Value::Double(i as f64 * 0.5),
        ];
        if f.push(t).unwrap_or(false) {
            frames.push(f.take());
        }
    }
    if !f.is_empty() {
        frames.push(f.take());
    }
    frames
}

fn exchange_microbench(quick: bool) -> ExchangeSection {
    let n = if quick { 40_000 } else { 400_000 };
    let destinations = 4usize;
    // Router path: the `u32` size cached (and range-checked) at first
    // buffering rides along — stats and re-buffering reuse it via
    // `push_cached`: no walk, no re-validation, no `Result`. Best of 5
    // passes: a single pass can absorb a preemption.
    let t_sized = (0..5)
        .map(|_| {
            let source = exchange_tuples(n);
            time_it(|| {
                let mut dests: Vec<Frame> = (0..destinations).map(|_| Frame::new()).collect();
                let mut stat_bytes = 0u64;
                for frame in source {
                    for (i, (t, size)) in frame.into_sized().enumerate() {
                        stat_bytes += size as u64;
                        let full = dests[i % destinations].push_cached(t, size);
                        if full {
                            std::hint::black_box(dests[i % destinations].take());
                        }
                    }
                }
                std::hint::black_box((&dests, stat_bytes));
            })
            .1
        })
        .min()
        .unwrap();
    ExchangeSection {
        tuples: n,
        destinations,
        sized_path_tps: n as f64 / t_sized.as_secs_f64(),
    }
}

// ---------------------------------------------------------------------------
// Section 3: hash-join build/probe microbench
// ---------------------------------------------------------------------------

struct JoinSection {
    build_rows: usize,
    probe_rows: usize,
    elapsed_ms: f64,
    tuples_per_sec: f64,
}

fn join_microbench(quick: bool) -> JoinSection {
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
    JoinSection {
        build_rows,
        probe_rows,
        elapsed_ms: t.as_secs_f64() * 1e3,
        tuples_per_sec: (build_rows + probe_rows) as f64 / t.as_secs_f64(),
    }
}

// ---------------------------------------------------------------------------
// Section 4: macro runs (E1/E4/E7 workload shapes)
// ---------------------------------------------------------------------------

struct MacroRun {
    workload: &'static str,
    records: usize,
    elapsed_ms: f64,
    tuples_per_sec: f64,
    extra: String,
}

struct E4Point {
    partitions: usize,
    wall_ms: f64,
    measured_tps: f64,
    modeled_speedup: f64,
    modeled_tps: f64,
    /// Scheduler counter deltas over the query: how the morsel pool actually
    /// ran this degree of parallelism.
    morsels: u64,
    steals: u64,
    local_hits: u64,
    park_ns: u64,
}

fn macro_e01(quick: bool) -> MacroRun {
    let messages = if quick { 1_000 } else { 6_000 };
    let db = Instance::temp().unwrap();
    db.execute_sqlpp(
        "CREATE TYPE M AS { messageId: int, authorId: int, message: string };
         CREATE DATASET Messages(M) PRIMARY KEY messageId;",
    )
    .unwrap();
    let mut txn = db.begin();
    for i in 0..messages {
        txn.write(
            "Messages",
            &asterix_adm::parse::parse_value(&format!(
                r#"{{"messageId":{i},"authorId":{},"message":"msg body {i}"}}"#,
                i % 97
            ))
            .unwrap(),
            true,
        )
        .unwrap();
    }
    txn.commit().unwrap();
    let (rows, t) = time_it(|| {
        db.query("SELECT m.authorId AS a, COUNT(*) AS c FROM Messages m GROUP BY m.authorId")
            .unwrap()
    });
    assert_eq!(rows.len(), 97);
    MacroRun {
        workload: "e01_gleambook_agg",
        records: messages,
        elapsed_ms: t.as_secs_f64() * 1e3,
        tuples_per_sec: messages as f64 / t.as_secs_f64(),
        extra: format!("\"groups\": {}", rows.len()),
    }
}

fn macro_e04(quick: bool) -> (usize, Vec<E4Point>) {
    // e04 runs full-size even in quick mode: the wall(4p)/wall(1p) gate
    // only means something at a scale where per-partition work dominates —
    // below ~20k rows the fixed cost of 4x scan/group-by actors outweighs
    // the superlinear single-partition scan cost that the dop split wins
    // back, and the ratio degenerates to measuring actor setup.
    let n: usize = 24_000;
    let _ = quick;
    const ROUNDS: usize = 3;
    // One dop at a time — load, measure, drop — so every dop runs under
    // identical conditions (fresh instance, nothing else alive, query
    // straight after commit). The walls feed a wall(4p)/wall(1p)
    // acceptance ratio, so each dop takes the min over ROUNDS timed runs
    // to discard host-load spikes.
    let mut dbs = Vec::new();
    for p in [1usize, 2, 4] {
        let db = Instance::open(InstanceConfig { nodes: p, partitions: p, ..Default::default() })
            .unwrap();
        db.execute_sqlpp(
            "CREATE TYPE T AS { id: int, grp: int, val: int };
             CREATE DATASET D(T) PRIMARY KEY id;",
        )
        .unwrap();
        let mut txn = db.begin();
        for i in 0..n {
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
        let counts = db.partition_counts("D").unwrap();
        let max = *counts.iter().max().unwrap() as f64;
        let before = db.metrics_snapshot();
        let mut wall = f64::MAX;
        for _ in 0..ROUNDS {
            let (rows, t) = time_it(|| {
                db.query(
                    "SELECT d.grp AS g, COUNT(*) AS c, SUM(d.val) AS s FROM D d GROUP BY d.grp",
                )
                .unwrap()
            });
            assert_eq!(rows.len(), 64);
            wall = wall.min(t.as_secs_f64());
        }
        // Scheduler counters span all ROUNDS timed runs of this dop.
        let sched = db.metrics_snapshot().delta(&before);
        dbs.push((p, max, wall, sched));
    }
    let mut points = Vec::new();
    let mut baseline_max = 0f64;
    let mut baseline_tps = 0f64;
    for (p, max, wall, sched) in &dbs {
        let measured_tps = n as f64 / wall;
        if *p == 1 {
            baseline_max = *max;
            baseline_tps = measured_tps;
        }
        // E4's modeled-speedup convention: per-partition work shrinks as
        // 1/P; modeled throughput scales the P=1 measured throughput by it
        // (wall-clock on this 1-core host time-shares the CPU).
        let modeled_speedup = baseline_max / max;
        points.push(E4Point {
            partitions: *p,
            wall_ms: wall * 1e3,
            measured_tps,
            modeled_speedup,
            modeled_tps: baseline_tps * modeled_speedup,
            morsels: sched.counter("hyracks.sched.morsels").unwrap_or(0),
            steals: sched.counter("hyracks.sched.steals").unwrap_or(0),
            local_hits: sched.counter("hyracks.sched.local_hits").unwrap_or(0),
            park_ns: sched.counter("hyracks.sched.park_ns").unwrap_or(0),
        });
    }
    (n, points)
}

fn macro_e07(quick: bool) -> MacroRun {
    use asterix_adm::binary::encode_key;
    use asterix_storage::lsm::{LsmConfig, LsmTree, MergePolicy};
    let n: i64 = if quick { 30_000 } else { 120_000 };
    let root = bench_dir("hotpath-e07");
    let fm = FileManager::new(&root, IoStats::new()).unwrap();
    let cache = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 256, shards: 0, readahead_pages: 8 },
    );
    let mut primary = LsmTree::new(
        Arc::clone(&cache),
        LsmConfig {
            name: "primary".into(),
            mem_budget: 2 << 20,
            merge_policy: MergePolicy::Constant { max_components: 2 },
            bloom: true,
            compress_values: false,
            layout: None,
        },
    );
    let key = |i: i64| encode_key(&[Value::Int(i)]);
    for i in 0..n {
        primary.upsert(key(i), format!("record-{i}-{}", "x".repeat(150)).into_bytes()).unwrap();
    }
    primary.flush().unwrap();
    let c = primary.component_count();
    primary.merge_newest(c).unwrap();
    let before = fm.stats().readaheads();
    // Sorted full fetch — the readahead path: leaf-sequential access.
    let (_, t) = time_it(|| {
        for i in 0..n {
            assert!(primary.get(&key(i)).unwrap().is_some());
        }
    });
    let readaheads = fm.stats().readaheads() - before;
    let _ = std::fs::remove_dir_all(root);
    MacroRun {
        workload: "e07_sorted_fetch",
        records: n as usize,
        elapsed_ms: t.as_secs_f64() * 1e3,
        tuples_per_sec: n as f64 / t.as_secs_f64(),
        extra: format!("\"readahead_pages\": {readaheads}"),
    }
}

// ---------------------------------------------------------------------------
// Background compaction: ingest stall, foreground vs background merges
// ---------------------------------------------------------------------------

struct CompactionRun {
    ingest_wall_ms: f64,
    merge_stall_ns: u64,
    write_amp: f64,
    merges: u64,
    components_at_quiesce: usize,
}

struct CompactionSection {
    records: usize,
    foreground: CompactionRun,
    background: CompactionRun,
}

/// One ingest run: upsert `n` records through a merge-happy LSM tree,
/// timing the write path. The executor a bare tree starts with runs the
/// merge on the flushing thread (every flush that triggers a merge stalls
/// for the whole rewrite); the pool's schedules merges onto the morsel
/// workers, so the write path pays only the scheduling cost — the
/// difference shows up directly in `merge_stall_ns`, which times exactly
/// the post-publish compaction work done inside `flush()`.
fn compaction_ingest(
    tag: &str,
    n: i64,
    exec: asterix_storage::CompactionExec,
) -> CompactionRun {
    use asterix_adm::binary::encode_key;
    use asterix_storage::lsm::{LsmConfig, LsmTree, MergePolicy};
    let root = bench_dir(tag);
    let fm = FileManager::new(&root, IoStats::new()).unwrap();
    let cache = BufferCache::with_options(
        Arc::clone(&fm),
        CacheOptions { capacity: 256, shards: 0, readahead_pages: 0 },
    );
    let mut tree = LsmTree::new(
        Arc::clone(&cache),
        LsmConfig {
            name: "ingest".into(),
            mem_budget: 1 << 20,
            // Low tolerance: merges fire every couple of flushes, the
            // regime where foreground merging hurts ingest the most.
            merge_policy: MergePolicy::Prefix {
                max_mergable_bytes: 256 << 20,
                max_tolerance_components: 2,
            },
            bloom: true,
            compress_values: false,
            layout: None,
        },
    );
    tree.set_executor(exec);
    let key = |i: i64| encode_key(&[Value::Int(i)]);
    let (_, t) = time_it(|| {
        for i in 0..n {
            tree.upsert(key(i), format!("record-{i}-{}", "x".repeat(120)).into_bytes()).unwrap();
        }
        tree.flush().unwrap();
    });
    // Stall accrues only inside flush(), so it is final once ingest ends;
    // quiesce before reading amplification so in-flight merges finish.
    let merge_stall_ns = tree.stats().merge_stall_ns;
    assert!(
        tree.wait_merges_idle(std::time::Duration::from_secs(60)),
        "compaction bench: background merges failed to quiesce"
    );
    let stats = tree.stats();
    let node = fm.stats().registry().snapshot();
    let run = CompactionRun {
        ingest_wall_ms: t.as_secs_f64() * 1e3,
        merge_stall_ns,
        write_amp: node.counter("storage.lsm.write_amp").unwrap_or(0) as f64 / 1e3,
        merges: stats.merges,
        components_at_quiesce: tree.component_count(),
    };
    drop(tree);
    let _ = std::fs::remove_dir_all(root);
    run
}

fn compaction_microbench(quick: bool) -> CompactionSection {
    let n: i64 = if quick { 40_000 } else { 160_000 };
    let foreground =
        compaction_ingest("hotpath-compact-fg", n, asterix_storage::compaction::on_caller());
    // Background merges ride the shared morsel pool, exactly as an
    // instance schedules them.
    let ctx = RuntimeCtx::temp().expect("temp ctx for compaction bench");
    let token = asterix_hyracks::CancellationToken::new();
    let background = compaction_ingest(
        "hotpath-compact-bg",
        n,
        asterix_hyracks::storage_compaction_executor(&ctx, token),
    );
    CompactionSection { records: n as usize, foreground, background }
}

// ---------------------------------------------------------------------------
// Entry point
// ---------------------------------------------------------------------------

/// Runs the whole suite and renders `BENCH_hotpath.json`'s contents.
pub fn run(quick: bool) -> String {
    eprintln!("hotpath: cache-hit microbench...");
    let cache = cache_microbench(quick);
    eprintln!("hotpath: exchange repartition microbench...");
    let exchange = exchange_microbench(quick);
    eprintln!("hotpath: join microbench...");
    let join = join_microbench(quick);
    eprintln!("hotpath: macro e01...");
    let e01 = macro_e01(quick);
    eprintln!("hotpath: macro e04...");
    let (e04_n, e04) = macro_e04(quick);
    eprintln!("hotpath: macro e07...");
    let e07 = macro_e07(quick);
    eprintln!("hotpath: compaction (foreground vs background merges)...");
    let compaction = compaction_microbench(quick);

    let mut s = String::new();
    s.push_str("{\n");
    s.push_str("  \"schema_version\": 2,\n");
    s.push_str("  \"generated_by\": \"repro hotpath\",\n");
    s.push_str(&format!("  \"quick\": {quick},\n"));
    s.push_str(&format!(
        "  \"host\": {{ \"cpus\": {} }},\n",
        std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
    ));

    s.push_str("  \"cache_hit_microbench\": {\n");
    s.push_str(
        "    \"methodology\": \"measured = aggregate wall-clock pages/sec of S scanner \
         threads hitting a warmed lock-striped cache on this host (threads time-share \
         the CPU; see DESIGN.md, Hot-path performance); timed_misses counts cache \
         misses inside the timed passes and must be 0\",\n",
    );
    s.push_str(&format!("    \"pages\": {},\n", cache.pages));
    s.push_str(&format!("    \"rounds\": {},\n", cache.rounds));
    s.push_str(&format!("    \"capacity\": {},\n", cache.capacity));
    s.push_str(&format!("    \"shards\": {},\n", cache.shards));
    s.push_str(&format!("    \"timed_misses\": {},\n", cache.timed_misses));
    s.push_str("    \"results\": [\n");
    for (i, r) in cache.rows.iter().enumerate() {
        s.push_str(&format!(
            "      {{ \"scanners\": {}, \"sharded\": {{ \"measured_pages_per_sec\": {} }} }}{}\n",
            r.scanners,
            fnum(r.measured_pps),
            if i + 1 < cache.rows.len() { "," } else { "" },
        ));
    }
    s.push_str("    ]\n  },\n");

    s.push_str(&format!(
        "  \"exchange_microbench\": {{ \"repartition\": {{ \"tuples\": {}, \
         \"destinations\": {}, \"sized_path_tuples_per_sec\": {} }} }},\n",
        exchange.tuples,
        exchange.destinations,
        fnum(exchange.sized_path_tps),
    ));

    s.push_str(&format!(
        "  \"join_microbench\": {{ \"build_rows\": {}, \"probe_rows\": {}, \
         \"elapsed_ms\": {}, \"tuples_per_sec\": {} }},\n",
        join.build_rows,
        join.probe_rows,
        fnum(join.elapsed_ms),
        fnum(join.tuples_per_sec),
    ));

    // Morsel scheduler report. Unlike the Amdahl-modeled e04 numbers below
    // (kept for continuity with earlier snapshots), these are *measured*
    // end-to-end walls on the shared worker pool plus the scheduler's own
    // counters: partitions are schedulable units, not threads, so raising
    // the dop past the core count must not raise wall time.
    let (pool_workers, idle_depths) = {
        let ctx = RuntimeCtx::temp().expect("temp ctx for pool probe");
        let pool = ctx.worker_pool();
        (pool.workers(), pool.queue_depths())
    };
    s.push_str("  \"morsel_scheduler\": {\n");
    s.push_str(
        "    \"methodology\": \"e04 walls measured end-to-end (min over 3 runs) per dop on \
         one shared worker pool; steal_rate = steals / (steals + local_hits) from \
         hyracks.sched.* counter deltas over each run; queue depths sampled on an \
         idle pool (one slot per worker deque plus the shared injector)\",\n",
    );
    s.push_str(&format!("    \"workers\": {pool_workers},\n"));
    s.push_str(&format!("    \"morsel_tuples\": {},\n", asterix_hyracks::MORSEL_TUPLES));
    s.push_str("    \"e04_measured\": [\n");
    for (i, p) in e04.iter().enumerate() {
        let polls = p.steals + p.local_hits;
        let steal_rate = if polls == 0 { 0.0 } else { p.steals as f64 / polls as f64 };
        s.push_str(&format!(
            "      {{ \"partitions\": {}, \"wall_ms\": {}, \"morsels\": {}, \
             \"steals\": {}, \"local_hits\": {}, \"steal_rate\": {}, \"park_ms\": {} }}{}\n",
            p.partitions,
            fnum(p.wall_ms),
            p.morsels,
            p.steals,
            p.local_hits,
            fnum(steal_rate),
            fnum(p.park_ns as f64 / 1e6),
            if i + 1 < e04.len() { "," } else { "" },
        ));
    }
    s.push_str("    ],\n");
    s.push_str(&format!("    \"queue_depths_at_idle\": {idle_depths:?},\n"));
    let w1 = e04.first().map(|p| p.wall_ms).unwrap_or(1.0);
    let wn = e04.last().map(|p| p.wall_ms).unwrap_or(1.0);
    s.push_str(&format!("    \"wall_4p_over_1p\": {}\n  }},\n", fnum(wn / w1.max(1e-9))));

    // Background-compaction report (E8 methodology change: merge cost was
    // previously folded into ingest wall; it is now reported as an explicit
    // write-path stall so foreground and background runs are comparable).
    s.push_str("  \"compaction\": {\n");
    s.push_str(
        "    \"methodology\": \"same ingest run twice: foreground merges on the flushing \
         thread vs background merges as morsel tasks on the shared worker pool; \
         merge_stall_ns times exactly the flush-triggered compaction work on the write \
         path (for foreground runs, the whole merge), write_amp from the node \
         storage.lsm hub after quiescing\",\n",
    );
    s.push_str(&format!("    \"records\": {},\n", compaction.records));
    for (name, r, comma) in [
        ("foreground", &compaction.foreground, ","),
        ("background", &compaction.background, ","),
    ] {
        s.push_str(&format!(
            "    \"{}\": {{ \"ingest_wall_ms\": {}, \"merge_stall_ns\": {}, \
             \"merge_stall_ms\": {}, \"write_amp\": {}, \"merges\": {}, \
             \"components_at_quiesce\": {} }}{}\n",
            name,
            fnum(r.ingest_wall_ms),
            r.merge_stall_ns,
            fnum(r.merge_stall_ns as f64 / 1e6),
            fnum(r.write_amp),
            r.merges,
            r.components_at_quiesce,
            comma,
        ));
    }
    let fg = compaction.foreground.merge_stall_ns.max(1) as f64;
    let bg = compaction.background.merge_stall_ns.max(1) as f64;
    s.push_str(&format!("    \"stall_reduction\": {}\n  }},\n", fnum(fg / bg)));

    s.push_str("  \"macro\": [\n");
    for m in [&e01, &e07] {
        s.push_str(&format!(
            "    {{ \"workload\": \"{}\", \"records\": {}, \"elapsed_ms\": {}, \
             \"tuples_per_sec\": {}, \"speedup_vs_1_thread\": 1.0, {} }},\n",
            m.workload,
            m.records,
            fnum(m.elapsed_ms),
            fnum(m.tuples_per_sec),
            m.extra,
        ));
    }
    s.push_str(&format!(
        "    {{ \"workload\": \"e04_scaleout\", \"records\": {e04_n}, \"partitions\": [\n"
    ));
    for (i, p) in e04.iter().enumerate() {
        s.push_str(&format!(
            "      {{ \"partitions\": {}, \"wall_ms\": {}, \"measured_tuples_per_sec\": {}, \
             \"modeled_speedup\": {}, \"tuples_per_sec\": {} }}{}\n",
            p.partitions,
            fnum(p.wall_ms),
            fnum(p.measured_tps),
            fnum(p.modeled_speedup),
            fnum(p.modeled_tps),
            if i + 1 < e04.len() { "," } else { "" },
        ));
    }
    s.push_str("    ] }\n  ]\n}\n");
    s
}

#[cfg(test)]
mod tests {
    #[test]
    fn hotpath_quick_meets_acceptance_shape() {
        let json = super::run(true);
        // Well-formedness smoke: balanced braces/brackets, no NaN leakage.
        assert_eq!(json.matches('{').count(), json.matches('}').count());
        assert_eq!(json.matches('[').count(), json.matches(']').count());
        assert!(!json.contains("NaN") && !json.contains("inf"));
        // Sharded cache: the timed passes were pure hits, and the aggregate
        // throughput does not collapse as scanners pile on (a hit never
        // takes an exclusive lock).
        assert!(json.contains("\"timed_misses\": 0,"), "cache bench left the hit path");
        let pps: Vec<f64> = json
            .lines()
            .filter(|l| l.contains("\"scanners\": "))
            .map(|l| {
                l.split("\"measured_pages_per_sec\": ")
                    .nth(1)
                    .and_then(|s| s.split(|c: char| !c.is_ascii_digit() && c != '.').next())
                    .and_then(|s| s.parse().ok())
                    .unwrap()
            })
            .collect();
        assert_eq!(pps.len(), super::SCANNERS.len());
        assert!(
            pps[3] >= 0.25 * pps[0],
            "8-scanner aggregate {} collapsed below a quarter of 1-scanner {}",
            pps[3],
            pps[0]
        );
        // Morsel-scheduler section: measured scale-out, not Amdahl-modeled.
        assert!(json.contains("\"morsel_scheduler\""), "morsel_scheduler section present");
        assert!(json.contains("\"steal_rate\""), "steal-rate report present");
        assert!(json.contains("\"queue_depths_at_idle\""), "queue-depth report present");
        let workers: usize = json
            .split("\"workers\": ")
            .nth(1)
            .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
            .and_then(|s| s.parse().ok())
            .unwrap();
        assert!(workers >= 1, "pool has at least one worker");
        assert!(json.contains("\"wall_4p_over_1p\""), "measured scale-out ratio present");
        // Compaction section: both runs present, amplification sane.
        assert!(json.contains("\"compaction\""), "compaction section present");
        assert!(json.contains("\"merge_stall_ns\""), "merge stall reported");
        assert!(json.contains("\"stall_reduction\""), "stall reduction ratio present");
        for run in ["foreground", "background"] {
            let line = json
                .lines()
                .find(|l| l.contains(&format!("\"{run}\"")) && l.contains("\"write_amp\""))
                .unwrap_or_else(|| panic!("{run} compaction run present"));
            let amp: f64 = line
                .split("\"write_amp\": ")
                .nth(1)
                .and_then(|s| s.split(|c: char| !c.is_ascii_digit() && c != '.').next())
                .and_then(|s| s.parse().ok())
                .unwrap();
            assert!(amp >= 1.0, "{run} write_amp {amp} < 1.0 — merges can't unwrite data");
            let merges: u64 = line
                .split("\"merges\": ")
                .nth(1)
                .and_then(|s| s.split(|c: char| !c.is_ascii_digit()).next())
                .and_then(|s| s.parse().ok())
                .unwrap();
            assert!(merges >= 1, "{run} ingest ran zero merges — the bench is vacuous");
        }
        // Dop is a scheduling decision: 4 partitions on the same pool must
        // not cost materially more wall than 1. CI gates the release-build
        // JSON at 1.1x on its multi-core runners, where 4 workers give real
        // parallel speedup; this in-tree check also has to pass on a noisy
        // shared single-core host, where e04 walls of ~40ms swing +-30%
        // run to run, so it re-measures up to three times and only rejects
        // a ratio beyond 1.5x — the thread-per-partition blowup regime.
        let tol = 1.5;
        let mut ratio = f64::MAX;
        for _ in 0..3 {
            let (_, pts) = super::macro_e04(true);
            ratio = ratio.min(pts.last().unwrap().wall_ms / pts.first().unwrap().wall_ms);
            if ratio <= tol {
                break;
            }
        }
        assert!(ratio <= tol, "e04 wall at 4 partitions is {ratio}x the 1-partition wall");
    }
}
