//! One run of one workload: set-up, the timed rounds, the crash → open
//! cycles, and the metrics all of that yields.
//!
//! Load model: closed loop, one client thread, `worker_threads: 1`, so the
//! client and the engine's worker together use the host's two cores.
//! Everything else is `InstanceConfig::default()` (2 nodes, 2 partitions,
//! foreground merges, group-commit WAL) except the buffer-cache size, which
//! the workload's `Spec` fixes.
//!
//! The timed phase is a fixed number of rounds of a seeded op stream, so two
//! commits are measured on the same ops in the same state and every counted
//! metric repeats exactly for a seed. The instance is then crashed and its
//! directory reopened `recover_cycles` times.

use crate::metrics::{self, MetricDef, END_TO_END, PER_LAYER};
use crate::oracle::Model;
use crate::stats::{median, ops_per_s, percentile, ratio, spread};
use crate::sys::{self, DirStats};
use crate::trace::{self, Tracer};
use crate::workload::{dump_query, Op, OpGen, QueryKind, Rec, Spec, DATASET};
use crate::{probes, Options};
use asterix_adm::parse::parse_value;
use asterix_adm::Value;
use asterix_core::{Instance, InstanceConfig, Language, Session};
use asterix_obs::{Json, MetricsSnapshot, OperatorProfile};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::time::Instant;

pub type Result<T> = std::result::Result<T, Box<dyn std::error::Error>>;

/// Records per load transaction during set-up: few commits, because an
/// fsync on this host's shared disk goes from 0.13 ms to 2 ms in a
/// neighbour's burst, and `setup_s` is gated.
const LOAD_BATCH: usize = 5_000;
/// Records the standalone probes are fed.
const PROBE_SAMPLE: i64 = 5_000;
/// A workload whose data directory outgrows this is stopped.
const DISK_CAP_BYTES: u64 = 1 << 30;
/// Set-ups per run; `setup_s` is their median.
const SETUPS: usize = 5;

pub struct Report {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    pub end_to_end: BTreeMap<&'static str, f64>,
    pub per_layer: BTreeMap<&'static str, f64>,
    /// Traced runs: self time of each layer inside the ops, their `sum`, and
    /// the ops' `total`, which the sum must equal.
    pub layer_self_time_ms: BTreeMap<String, f64>,
    /// Everything above plus host and size facts, for `out/<workload>.json`.
    pub file: Json,
}

impl Report {
    /// What a run prints: the per-layer metrics if traced, else the
    /// end-to-end ones.
    pub fn metrics(&self, traced: bool) -> (&BTreeMap<&'static str, f64>, &'static [MetricDef]) {
        if traced {
            (&self.per_layer, PER_LAYER)
        } else {
            (&self.end_to_end, END_TO_END)
        }
    }
}

/// Removes the run's data directories however the run ends.
struct TempDir(PathBuf);

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

struct Engine {
    db: Instance,
    session: Session,
}

impl Engine {
    fn open(spec: &Spec, dir: &Path) -> Result<Engine> {
        let db = Instance::open(InstanceConfig {
            worker_threads: 1,
            data_dir: Some(dir.to_path_buf()),
            cache_pages_per_node: spec.cache_pages_per_node,
            ..Default::default()
        })?;
        let session = db.session();
        Ok(Engine { db, session })
    }

    /// Drops the instance without flushing; only what is on disk survives.
    fn crash(self) {
        // the session holds a handle on the instance, so it goes first
        drop(self.session);
        self.db.crash();
    }

    fn query(&self, text: &str) -> Result<Vec<Value>> {
        Ok(self.session.submit(text)?.wait()?)
    }
}

/// One set-up: a fresh instance with the workload loaded, the model of what
/// it holds, and the op stream that continues from there.
struct Cycle {
    engine: Engine,
    model: Model,
    gen: OpGen,
    dir: PathBuf,
    /// `sys::written_bytes()` when the set-up began.
    written_before: u64,
}

impl Cycle {
    /// Drops the instance and removes its directory.
    fn discard(self) -> Result<()> {
        let Cycle { engine, dir, .. } = self;
        drop(engine);
        Ok(std::fs::remove_dir_all(dir)?)
    }
}

#[derive(Clone, Copy, PartialEq, Eq)]
enum Class {
    Read,
    Write,
    Agg,
}

/// Where one traced query's time went, ms unless named otherwise.
#[derive(Default)]
struct QueryDetail {
    parse_us: f64,
    plan_us: f64,
    submit_overhead_ms: f64,
    job_ms: f64,
    compute_ms: f64,
    queue_wait_ms: f64,
    scan_compute_ms: f64,
    groupby_compute_ms: f64,
    sort_compute_ms: f64,
    rows_examined: f64,
    rows_returned: f64,
}

/// What the rounds of one phase (the warm-up or the timed rounds) observed.
#[derive(Default)]
struct Phase {
    ops_per_round: usize,
    /// `(traced, seconds the engine was busy)` per round.
    rounds: Vec<(bool, f64)>,
    /// `(class, traced, latency ms)` per op.
    latencies: Vec<(Class, bool, f64)>,
    queries: Vec<QueryDetail>,
    txn_write_us_per_rec: Vec<f64>,
    txn_commit_ms: Vec<f64>,
}

impl Phase {
    fn round_seconds(&self, traced: bool) -> Vec<f64> {
        self.rounds
            .iter()
            .filter(|r| r.0 == traced)
            .map(|r| r.1)
            .collect()
    }

    /// Latencies of the untraced ops, optionally of one class.
    fn latency_ms(&self, class: Option<Class>) -> Vec<f64> {
        self.latencies
            .iter()
            .filter(|(c, traced, _)| !traced && class.is_none_or(|want| *c == want))
            .map(|l| l.2)
            .collect()
    }
}

struct Runner<'a> {
    spec: Spec,
    opts: &'a Options,
    tmp: TempDir,
    tracer: Tracer,
    attempted: u64,
    failed: u64,
    setup_s: Vec<f64>,
    flush_all_ms: Vec<f64>,
    recover_s: Vec<f64>,
    open_ms: Vec<f64>,
}

fn ms(from: Instant, to: Instant) -> f64 {
    to.duration_since(from).as_secs_f64() * 1e3
}

/// Sum of the counter `name` over the runtime's registry and every node's.
fn counter(snap: &MetricsSnapshot, name: &str) -> f64 {
    let suffix = format!(".{name}");
    snap.values
        .keys()
        .filter(|k| *k == name || k.ends_with(&suffix))
        .filter_map(|k| snap.counter(k))
        .sum::<u64>() as f64
}

/// Mean over nodes of a ratio the engine exports ×1000.
fn milli_ratio(snap: &MetricsSnapshot, name: &str) -> f64 {
    let suffix = format!(".{name}");
    let nodes = snap.values.keys().filter(|k| k.ends_with(&suffix)).count();
    ratio(counter(snap, name) / 1e3, nodes as f64)
}

fn fold_profile(op: &OperatorProfile, d: &mut QueryDetail) {
    let t = op.totals();
    let compute_ms = t.compute_ns as f64 / 1e6;
    d.compute_ms += compute_ms;
    d.queue_wait_ms += t.queue_wait_ns as f64 / 1e6;
    match op.name.as_str() {
        "source" => {
            d.scan_compute_ms += compute_ms;
            d.rows_examined += t.tuples_out as f64;
        }
        "groupby" => d.groupby_compute_ms += compute_ms,
        "sort" | "topk" => d.sort_compute_ms += compute_ms,
        _ => {}
    }
    for input in &op.inputs {
        fold_profile(input, d);
    }
}

impl Runner<'_> {
    fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= 5 {
                eprintln!("[{}] FAILED: {}", self.spec.name, what());
            }
        }
    }

    /// Open, DDL, load, `flush_all`, one warm-up round; timed as `setup_s`.
    fn setup(&mut self, tag: &str) -> Result<Cycle> {
        let dir = self.tmp.0.join(tag);
        let mut gen = OpGen::new(&self.spec, self.opts.seed);
        let preload = gen.preload();
        let mut model = Model::default();
        preload.iter().for_each(|r| model.upsert(r));

        let written_before = sys::written_bytes();
        let start = Instant::now();
        let engine = Engine::open(&self.spec, &dir)?;
        engine.db.execute_sqlpp(&self.spec.ddl())?;
        for batch in preload.chunks(LOAD_BATCH) {
            let mut txn = engine.db.begin();
            for rec in batch {
                txn.write(DATASET, &parse_value(&rec.text)?, true)?;
            }
            txn.commit()?;
        }
        let flush_start = Instant::now();
        engine.db.flush_all()?;
        let flush_end = Instant::now();
        self.tracer
            .record("core.flush_all", flush_start, flush_end, None);
        self.flush_all_ms.push(ms(flush_start, flush_end));
        let mut cycle = Cycle {
            engine,
            model,
            gen,
            dir,
            written_before,
        };
        self.round(&mut cycle, false, &mut Phase::default());
        self.setup_s.push(start.elapsed().as_secs_f64());

        if self.opts.inject_wrong {
            cycle.model.corrupt_one_record();
        }
        Ok(cycle)
    }

    /// Runs the stream's next round and appends what it observed to `phase`.
    fn round(&mut self, cycle: &mut Cycle, traced: bool, phase: &mut Phase) {
        let ops = cycle.gen.next_round();
        phase.ops_per_round = ops.len();
        let mut busy_ms = 0.0;
        for op in &ops {
            let (class, latency_ms) = match op {
                Op::Query { kind, param, text } => {
                    self.query_op(cycle, *kind, *param, text, traced, phase)
                }
                Op::Txn { recs } => self.txn_op(cycle, recs, traced, phase),
            };
            busy_ms += latency_ms;
            phase.latencies.push((class, traced, latency_ms));
        }
        phase.rounds.push((traced, busy_ms / 1e3));
    }

    fn query_op(
        &mut self,
        cycle: &Cycle,
        kind: QueryKind,
        param: i64,
        text: &str,
        traced: bool,
        phase: &mut Phase,
    ) -> (Class, f64) {
        let engine = &cycle.engine;
        let start = Instant::now();
        // the two front-end calls below are the tracer's own: `submit` parses
        // and plans again, which is what `client.trace_overhead` accounts for
        let mut front = None;
        if traced {
            black_box(asterix_sqlpp::parser::parse_query(text).is_ok());
            let parsed = Instant::now();
            black_box(engine.db.explain(text, Language::Sqlpp).is_ok());
            front = Some((parsed, Instant::now()));
        }
        let submitted = Instant::now();
        let handle = engine.session.submit(text);
        let outcome = match &handle {
            Ok(h) => h.wait().map_err(|e| e.to_string()),
            Err(e) => Err(e.to_string()),
        };
        let end = Instant::now();

        if let (Some((parsed, explained)), Ok(handle)) = (front, &handle) {
            let mut d = QueryDetail {
                parse_us: ms(start, parsed) * 1e3,
                plan_us: (ms(parsed, explained) - ms(start, parsed)).max(0.0) * 1e3,
                ..Default::default()
            };
            let op = self.tracer.record(trace::OP, start, end, None);
            self.tracer.record("sqlpp.parse", start, parsed, Some(op));
            self.tracer
                .record("core.explain", parsed, explained, Some(op));
            let wait = self
                .tracer
                .record("core.submit_wait", submitted, end, Some(op));
            if let Some(profile) = handle.profile() {
                self.tracer
                    .reported_child("hyracks.job", wait, profile.elapsed_ns);
                d.job_ms = profile.elapsed_ns as f64 / 1e6;
                fold_profile(&profile.root, &mut d);
            }
            // `submit` repeats the front end, so an explain's worth of the
            // wait is not the core layer's own
            d.submit_overhead_ms = (ms(submitted, end) - ms(parsed, explained) - d.job_ms).max(0.0);
            d.rows_returned = outcome.as_ref().map_or(0.0, |rows| rows.len() as f64);
            phase.queries.push(d);
        }

        let span = self.spec.topk_span();
        match outcome {
            Ok(rows) => {
                let ok = cycle.model.check_query(kind, param, span, &rows);
                self.check(ok, || {
                    format!("wrong answer ({} rows) to: {text}", rows.len())
                });
            }
            Err(e) => self.check(false, || format!("{e}: {text}")),
        }
        let class = if kind.is_lookup() {
            Class::Read
        } else {
            Class::Agg
        };
        (class, ms(start, end))
    }

    fn txn_op(
        &mut self,
        cycle: &mut Cycle,
        recs: &[Rec],
        traced: bool,
        phase: &mut Phase,
    ) -> (Class, f64) {
        let db = &cycle.engine.db;
        let start = Instant::now();
        let values: std::result::Result<Vec<Value>, _> =
            recs.iter().map(|r| parse_value(&r.text)).collect();
        let parsed = Instant::now();
        let mut written = parsed;
        let outcome = values.map_err(|e| e.to_string()).and_then(|values| {
            let mut txn = db.begin();
            for v in &values {
                txn.write(DATASET, v, true).map_err(|e| e.to_string())?;
            }
            written = Instant::now();
            txn.commit().map_err(|e| e.to_string())
        });
        let end = Instant::now();
        if traced {
            let op = self.tracer.record(trace::OP, start, end, None);
            self.tracer.record("adm.parse", start, parsed, Some(op));
            self.tracer
                .record("core.txn_write", parsed, written, Some(op));
            self.tracer
                .record("core.txn_commit", written, end, Some(op));
        }
        match outcome {
            Ok(()) => {
                recs.iter().for_each(|r| cycle.model.upsert(r));
                phase
                    .txn_write_us_per_rec
                    .push(ratio(ms(parsed, written) * 1e3, recs.len() as f64));
                phase.txn_commit_ms.push(ms(written, end));
                self.check(true, String::new);
            }
            Err(e) => self.check(false, || format!("transaction failed: {e}")),
        }
        (Class::Write, ms(start, end))
    }

    /// Every committed record present exactly once, with its latest contents.
    fn check_dump(&mut self, engine: &Engine, model: &Model, when: &str) {
        match engine.query(&dump_query()) {
            Ok(rows) => {
                let ok = model.check_dump(&rows);
                self.check(ok, || {
                    format!(
                        "{when}: dump of {} rows disagrees with the model's {}",
                        rows.len(),
                        model.len()
                    )
                });
            }
            Err(e) => self.check(false, || format!("{when}: dump failed: {e}")),
        }
    }

    /// Crash → open cycles on a crashed instance's directory: `open` and
    /// `count()` are timed as `recover_s`, then a full dump is checked and
    /// the instance crashed again.
    fn recover(&mut self, dir: &Path, model: &Model) -> Result<()> {
        for cycle in 1..=self.spec.recover_cycles {
            let start = Instant::now();
            let engine = Engine::open(&self.spec, dir)?;
            let opened = Instant::now();
            let count = engine.db.count(DATASET);
            let end = Instant::now();
            self.tracer.record("core.crash_open", start, opened, None);
            self.recover_s.push(end.duration_since(start).as_secs_f64());
            self.open_ms.push(ms(start, opened));
            let ok = matches!(count, Ok(n) if n == model.len());
            self.check(ok, || {
                format!(
                    "recovery {cycle}: count() = {count:?}, model has {}",
                    model.len()
                )
            });
            self.check_dump(&engine, model, &format!("recovery {cycle}"));
            engine.crash();
        }
        Ok(())
    }

    fn dir_stats(&self, dir: &Path) -> Result<DirStats> {
        let stats = sys::dir_stats(dir);
        if stats.bytes > DISK_CAP_BYTES {
            return Err(format!(
                "{} holds {} bytes, over the 1 GiB cap",
                dir.display(),
                stats.bytes
            )
            .into());
        }
        Ok(stats)
    }
}

pub fn run(opts: &Options) -> Result<Report> {
    let spec = Spec::named(&opts.workload, opts.smoke)
        .ok_or_else(|| format!("unknown workload {:?}", opts.workload))?;
    let load_start = sys::load_average();
    let tmp = TempDir(
        opts.out
            .join(format!("tmp-{}-{}", spec.name, std::process::id())),
    );
    std::fs::create_dir_all(&tmp.0)?;
    let mut r = Runner {
        spec,
        opts,
        tmp,
        tracer: Tracer::new(),
        attempted: 0,
        failed: 0,
        setup_s: Vec::new(),
        flush_all_ms: Vec::new(),
        recover_s: Vec::new(),
        open_ms: Vec::new(),
    };

    let mut cycle = r.setup("data")?;
    let before = cycle.engine.db.metrics_snapshot();
    let mut timed = Phase::default();
    let start = Instant::now();
    for i in 0..spec.rounds_for(opts.seconds) {
        // a traced run traces every other round, so that its traced and
        // untraced rounds see the same state
        r.round(&mut cycle, opts.trace && i % 2 == 1, &mut timed);
    }
    let measured_s = start.elapsed().as_secs_f64();
    let after = cycle.engine.db.metrics_snapshot();
    let end_dir = r.dir_stats(&cycle.dir)?;
    let written = sys::written_bytes() - cycle.written_before;
    let peak_rss_mb = sys::peak_rss_mb();
    let stream_hash = cycle.gen.stream_hash();
    r.check_dump(&cycle.engine, &cycle.model, "end of timed phase");
    let delta = after.delta(&before);

    let Cycle {
        engine, model, dir, ..
    } = cycle;
    engine.crash();
    r.recover(&dir, &model)?;
    std::fs::remove_dir_all(&dir)?;
    // the further set-ups serve `setup_s` alone
    for _ in 1..SETUPS {
        r.setup("again")?.discard()?;
    }

    let probe = if opts.trace {
        let sample =
            OpGen::new(&spec, opts.seed).records(1..=PROBE_SAMPLE.min(spec.preload.max(500)));
        probes::run(&sample, &r.tmp.0, &mut r.tracer)?
    } else {
        Vec::new()
    };

    // ---- end-to-end metrics
    let mut e2e = BTreeMap::new();
    e2e.insert("setup_s", median(&r.setup_s));
    e2e.insert("peak_rss_mb", peak_rss_mb);
    e2e.insert(
        "disk_bytes_per_user_byte",
        ratio(end_dir.bytes as f64, model.live_text_bytes as f64),
    );
    e2e.insert(
        "written_bytes_per_user_byte",
        ratio(written as f64, model.submitted_text_bytes as f64),
    );

    // ---- per-layer metrics
    let all = timed.latency_ms(None);
    let p50_of = |class| median(&timed.latency_ms(Some(class)));
    let queries = timed
        .latencies
        .iter()
        .filter(|l| l.0 != Class::Write)
        .count() as f64;
    let ops = timed.latencies.len() as f64;
    let q = |f: fn(&QueryDetail) -> f64| median(&timed.queries.iter().map(f).collect::<Vec<_>>());
    let q_sum = |f: fn(&QueryDetail) -> f64| timed.queries.iter().map(f).sum::<f64>();
    // Δ over the timed phase, per query or per op
    let per = |name: &str, n: f64| ratio(counter(&delta, name), n);
    let hits = counter(&delta, "storage.io.cache_hits");
    let untraced_ops_per_s = ops_per_s(timed.ops_per_round, &timed.round_seconds(false));
    let traced_ops_per_s = ops_per_s(timed.ops_per_round, &timed.round_seconds(true));
    let wal_mb = end_dir.wal_bytes as f64 / (1 << 20) as f64;
    let mut layer: BTreeMap<&'static str, f64> = BTreeMap::from([
        ("client.samples", all.len() as f64),
        ("client.ops_per_s", untraced_ops_per_s),
        ("client.p50_ms", median(&all)),
        ("client.p95_ms", percentile(&all, 0.95)),
        ("client.p99_ms", percentile(&all, 0.99)),
        ("client.read_p50_ms", p50_of(Class::Read)),
        ("client.write_p50_ms", p50_of(Class::Write)),
        ("client.agg_p50_ms", p50_of(Class::Agg)),
        ("client.round_spread", spread(&timed.round_seconds(false))),
        (
            "client.trace_overhead",
            ratio(untraced_ops_per_s, traced_ops_per_s),
        ),
        ("sqlpp.parse_us", q(|d| d.parse_us)),
        ("algebricks.plan_us", q(|d| d.plan_us)),
        (
            "algebricks.rows_examined_per_result",
            ratio(q_sum(|d| d.rows_examined), q_sum(|d| d.rows_returned)),
        ),
        ("hyracks.job_ms", q(|d| d.job_ms)),
        ("hyracks.compute_ms", q(|d| d.compute_ms)),
        ("hyracks.queue_wait_ms", q(|d| d.queue_wait_ms)),
        ("hyracks.scan_compute_ms", q(|d| d.scan_compute_ms)),
        ("hyracks.groupby_compute_ms", q(|d| d.groupby_compute_ms)),
        ("hyracks.sort_compute_ms", q(|d| d.sort_compute_ms)),
        (
            "hyracks.morsels_per_op",
            per("hyracks.sched.morsels", queries),
        ),
        (
            "hyracks.park_ms_per_op",
            per("hyracks.sched.park_ns", queries) / 1e6,
        ),
        (
            "hyracks.tuples_moved_per_op",
            per("hyracks.dataflow.tuples_moved", queries),
        ),
        (
            "hyracks.spilled_bytes_per_op",
            per("hyracks.dataflow.spilled_bytes", queries),
        ),
        (
            "storage.cache_hit_ratio",
            ratio(hits, hits + counter(&delta, "storage.io.cache_misses")),
        ),
        (
            "storage.pages_read_per_op",
            per("storage.io.physical_reads", ops),
        ),
        ("storage.evictions_per_op", per("storage.io.evictions", ops)),
        (
            "storage.readaheads_per_op",
            per("storage.io.readaheads", ops),
        ),
        // as they stand when the timed phase ends, after its flushes and merges
        (
            "storage.write_amp",
            milli_ratio(&after, "storage.lsm.write_amp"),
        ),
        (
            "storage.read_amp",
            milli_ratio(&after, "storage.lsm.read_amp"),
        ),
        (
            "storage.space_amp",
            milli_ratio(&after, "storage.lsm.space_amp"),
        ),
        (
            "storage.merge_stall_ms",
            counter(&delta, "storage.lsm.merge_stall_ns") / 1e6,
        ),
        // since the instance was opened, set-up included
        (
            "storage.bytes_written_per_user_byte",
            ratio(
                counter(&after, "storage.io.bytes_written"),
                model.submitted_text_bytes as f64,
            ),
        ),
        (
            "storage.components_created",
            end_dir.components_created as f64,
        ),
        ("storage.components_live", end_dir.components_live as f64),
        (
            "storage.wal_syncs",
            counter(&after, "storage.wal.group_commits"),
        ),
        ("storage.wal_bytes", end_dir.wal_bytes as f64),
        ("core.submit_overhead_ms", q(|d| d.submit_overhead_ms)),
        (
            "core.txn_write_us_per_rec",
            median(&timed.txn_write_us_per_rec),
        ),
        ("core.txn_commit_ms", median(&timed.txn_commit_ms)),
        ("core.flush_all_ms", median(&r.flush_all_ms)),
        ("core.open_ms", median(&r.open_ms)),
        ("core.recover_s", median(&r.recover_s)),
        (
            "core.recover_ms_per_wal_mb",
            ratio(median(&r.recover_s) * 1e3, wal_mb),
        ),
        ("core.admitted", counter(&delta, "core.serving.admitted")),
        ("core.rejected", counter(&delta, "core.serving.rejected")),
        ("core.query_retries", counter(&delta, "core.query.retries")),
    ]);
    // the probes' metrics; in an untraced run they, like every other
    // trace-only metric, read 0
    layer.extend(probe);
    for def in PER_LAYER {
        layer.entry(def.name).or_insert(0.0);
    }

    // ---- the trace file, and each layer's self time out of it
    let mut self_time = BTreeMap::new();
    if opts.trace {
        let path = opts.out.join(format!("{}.trace.json", spec.name));
        std::fs::write(path, r.tracer.to_json().render())?;
        for (name, ns) in trace::self_times(&r.tracer.spans) {
            *self_time
                .entry(trace::layer(name).to_string())
                .or_insert(0.0) += ns as f64 / 1e6;
        }
        let sum = self_time.values().sum();
        self_time.insert("sum".into(), sum);
        self_time.insert(
            "total".into(),
            trace::total_op_ns(&r.tracer.spans) as f64 / 1e6,
        );
    }

    let correct = r.failed == 0;
    let file = Json::Obj(vec![
        ("workload".into(), Json::str(spec.name)),
        ("seed".into(), Json::U64(opts.seed)),
        ("seconds".into(), Json::F64(opts.seconds)),
        ("traced".into(), Json::Bool(opts.trace)),
        // smoke sizes are for checking the harness, not for comparing numbers
        (
            "comparable".into(),
            Json::Bool(!opts.smoke && !opts.inject_wrong),
        ),
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::U64(r.attempted)),
        ("failed".into(), Json::U64(r.failed)),
        ("end_to_end".into(), metrics::to_json(&e2e, END_TO_END)),
        ("per_layer".into(), metrics::to_json(&layer, PER_LAYER)),
        (
            "layer_self_time_ms".into(),
            Json::Obj(
                self_time
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::F64(*v)))
                    .collect(),
            ),
        ),
        (
            "host".into(),
            Json::Obj(vec![
                ("nproc".into(), Json::U64(sys::nproc() as u64)),
                ("load_average_start".into(), Json::F64(load_start)),
                ("load_average_end".into(), Json::F64(sys::load_average())),
                (
                    "round_spread".into(),
                    Json::F64(layer["client.round_spread"]),
                ),
            ]),
        ),
        (
            "sizes".into(),
            Json::Obj(vec![
                ("preloaded_records".into(), Json::U64(spec.preload as u64)),
                (
                    "cache_bytes".into(),
                    Json::U64((2 * spec.cache_pages_per_node * asterix_storage::PAGE_SIZE) as u64),
                ),
                ("disk_bytes".into(), Json::U64(end_dir.bytes)),
                ("live_user_bytes".into(), Json::U64(model.live_text_bytes)),
                ("timed_phase_s".into(), Json::F64(measured_s)),
                (
                    "timed_phase_rounds".into(),
                    Json::U64(timed.rounds.len() as u64),
                ),
                (
                    "timed_phase_ops".into(),
                    Json::U64(timed.latencies.len() as u64),
                ),
                (
                    "timed_phase_round_s".into(),
                    Json::Arr(timed.rounds.iter().map(|r| Json::F64(r.1)).collect()),
                ),
                (
                    "op_stream_hash".into(),
                    Json::str(format!("{stream_hash:016x}")),
                ),
            ]),
        ),
    ]);
    Ok(Report {
        correct,
        attempted: r.attempted,
        failed: r.failed,
        end_to_end: e2e,
        per_layer: layer,
        layer_self_time_ms: self_time,
        file,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn smoke(workload: &str, seed: u64, inject_wrong: bool) -> Report {
        static RUNS: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
        let n = RUNS.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
        let out =
            std::env::temp_dir().join(format!("asterix-benchmark-test-{}-{n}", std::process::id()));
        let opts = Options {
            workload: workload.into(),
            seed,
            seconds: 0.2,
            trace: true,
            smoke: true,
            inject_wrong,
            out: out.clone(),
        };
        let report = run(&opts).expect("smoke run completes");
        std::fs::remove_dir_all(out).expect("out dir removed");
        report
    }

    /// With one client and foreground merges the engine's counted work is a
    /// function of the op stream alone. (`written_bytes_per_user_byte` is
    /// left out: `/proc/self/io` counts the whole test process, and tests
    /// run in parallel.)
    #[test]
    fn same_seed_repeats_every_counted_metric_and_another_seed_does_not() {
        const COUNTED: [&str; 5] = [
            "storage.wal_bytes",
            "storage.wal_syncs",
            "storage.components_created",
            "storage.components_live",
            "storage.bytes_written_per_user_byte",
        ];
        let (a, b, other) = (
            smoke("ingest", 5, false),
            smoke("ingest", 5, false),
            smoke("ingest", 6, false),
        );
        assert!(a.correct && b.correct && other.correct);
        for name in COUNTED {
            assert_eq!(a.per_layer[name], b.per_layer[name], "{name}");
        }
        let disk = "disk_bytes_per_user_byte";
        assert_eq!(a.end_to_end[disk], b.end_to_end[disk]);
        assert!(
            a.per_layer["storage.wal_bytes"] > 0.0
                && a.per_layer["storage.components_created"] > 0.0
        );
        assert_ne!(
            a.per_layer["storage.wal_bytes"],
            other.per_layer["storage.wal_bytes"]
        );
    }

    #[test]
    fn every_workload_passes_its_checks_and_fails_them_when_the_oracle_is_corrupted() {
        for w in crate::workload::WORKLOADS {
            let good = smoke(w, 3, false);
            assert!(
                good.correct && good.failed == 0 && good.attempted > 0,
                "{w}"
            );
            assert!(
                good.end_to_end.values().all(|v| *v > 0.0),
                "{w}: an end-to-end metric is 0"
            );
            let bad = smoke(w, 3, true);
            assert!(
                !bad.correct && bad.failed > 0,
                "{w}: corruption went unnoticed"
            );
        }
    }

    #[test]
    fn layer_self_times_add_up_to_the_traced_op_time() {
        let t = smoke("htap_mix", 4, false).layer_self_time_ms;
        let (sum, total) = (t["sum"], t["total"]);
        assert!(
            total > 0.0 && (sum - total).abs() <= 0.05 * total,
            "{sum} vs {total}"
        );
        assert!(t["hyracks"] > 0.0 && t["core"] > 0.0 && t["adm"] > 0.0);
    }
}
