//! Runtime context: spill-file management, working-memory budgets, and
//! dataflow statistics (paper Figure 2's "working memory" slice).

use crate::error::Result;
use crate::faults::DataflowFaults;
use crate::sched::WorkerPool;
use asterix_obs::{Clock, Counter, IdGen, MetricsRegistry, MonotonicClock, OpMetrics};
use std::io::{BufReader, BufWriter, Read, Write};
use std::path::PathBuf;
use std::sync::atomic::Ordering;
use std::sync::{Arc, OnceLock};

use crate::frame::{u32_len, Tuple};
use asterix_adm::binary::{encode_into, Decoder};

/// Default per-operator working-memory budget (bytes).
pub const DEFAULT_OP_MEMORY: usize = 32 << 20;

/// Counters describing how hard a job leaned on disk (experiment E5): the
/// handles of the context's `hyracks.dataflow.*` metrics, bumped where the
/// work is done and read with `.get()` or through a registry snapshot.
#[derive(Debug)]
pub struct DataflowStats {
    pub spill_runs: Counter,
    pub spilled_bytes: Counter,
    pub merge_passes: Counter,
    pub joins_spilled: Counter,
    pub groups_spilled: Counter,
    /// Tuples routed to an edge one at a time.
    pub tuples_moved: Counter,
    /// Tuples that crossed an edge inside a batch of columns.
    pub batch_rows: Counter,
    /// Tuples crossing repartitioning connectors (hash/broadcast/gather) —
    /// the network traffic a real cluster would pay.
    pub tuples_exchanged: Counter,
}

impl DataflowStats {
    /// The counters `registry` holds under `hyracks.dataflow.*`.
    pub fn with_registry(registry: &MetricsRegistry) -> DataflowStats {
        DataflowStats {
            spill_runs: registry.counter("hyracks.dataflow.spill_runs"),
            spilled_bytes: registry.counter("hyracks.dataflow.spilled_bytes"),
            merge_passes: registry.counter("hyracks.dataflow.merge_passes"),
            joins_spilled: registry.counter("hyracks.dataflow.joins_spilled"),
            groups_spilled: registry.counter("hyracks.dataflow.groups_spilled"),
            tuples_moved: registry.counter("hyracks.dataflow.tuples_moved"),
            batch_rows: registry.counter("hyracks.dataflow.batch_rows"),
            tuples_exchanged: registry.counter("hyracks.dataflow.tuples_exchanged"),
        }
    }
}

/// Shared runtime context for a node's dataflow workers.
#[expect(clippy::disallowed_types, reason = "worker_threads: a setting read once, when the pool is built; Relaxed: it publishes nothing")]
pub struct RuntimeCtx {
    spill_dir: PathBuf,
    next_spill: IdGen,
    /// Dataflow statistics, cumulative for the context's lifetime.
    pub stats: DataflowStats,
    /// Monotonic clock used for all runtime timing (injectable so the
    /// deterministic test harness can control time).
    pub clock: Arc<dyn Clock>,
    registry: Arc<MetricsRegistry>,
    /// Optional deterministic chaos injector; `None` in production.
    faults: Option<Arc<DataflowFaults>>,
    /// The shared morsel worker pool, built lazily on first job so contexts
    /// that never execute (pure spill/run tests) spawn no threads. Every
    /// job on this context shares it: degree of parallelism is a scheduling
    /// decision, not a thread count.
    pool: OnceLock<Arc<WorkerPool>>,
    /// Configured pool width; 0 means "auto" (`available_parallelism`).
    /// Only consulted before the pool is first built.
    worker_threads: std::sync::atomic::AtomicUsize,
}

impl RuntimeCtx {
    /// Creates a context spilling under `spill_dir` (created if missing),
    /// timing with `clock`, plus an optional chaos injector whose schedules
    /// every job on this context runs under.
    pub fn with_clock_and_faults(
        spill_dir: impl Into<PathBuf>,
        clock: Arc<dyn Clock>,
        faults: Option<Arc<DataflowFaults>>,
    ) -> Result<Arc<Self>> {
        let spill_dir = spill_dir.into();
        std::fs::create_dir_all(&spill_dir)?;
        let registry = MetricsRegistry::shared();
        let stats = DataflowStats::with_registry(&registry);
        Ok(Arc::new(RuntimeCtx {
            spill_dir,
            next_spill: IdGen::new(0),
            stats,
            clock,
            registry,
            faults,
            pool: OnceLock::new(),
            worker_threads: Default::default(),
        }))
    }

    /// A context spilling under the system temp directory.
    pub fn temp() -> Result<Arc<Self>> {
        RuntimeCtx::temp_with_clock(MonotonicClock::shared())
    }

    /// Temp-dir context with an explicit clock (deterministic tests).
    pub fn temp_with_clock(clock: Arc<dyn Clock>) -> Result<Arc<Self>> {
        RuntimeCtx::with_clock_and_faults(Self::fresh_temp_dir(), clock, None)
    }

    /// Temp-dir context running every job under a chaos injector.
    pub fn temp_with_faults(faults: Arc<DataflowFaults>) -> Result<Arc<Self>> {
        RuntimeCtx::with_clock_and_faults(
            Self::fresh_temp_dir(),
            MonotonicClock::shared(),
            Some(faults),
        )
    }

    fn fresh_temp_dir() -> PathBuf {
        let n = std::process::id();
        let t = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or_default();
        std::env::temp_dir().join(format!("hyracks-spill-{n}-{t}"))
    }

    /// The registry backing this context's dataflow counters.
    pub fn registry(&self) -> &Arc<MetricsRegistry> {
        &self.registry
    }

    /// The chaos injector, when one is configured.
    pub fn dataflow_faults(&self) -> Option<&Arc<DataflowFaults>> {
        self.faults.as_ref()
    }

    /// Sets the shared pool width before any job runs on this context
    /// (0 = auto-size from `available_parallelism`). A no-op once the pool
    /// exists — pool width is fixed for the context's lifetime.
    pub fn set_worker_threads(&self, n: usize) {
        self.worker_threads.store(n, Ordering::Relaxed);
    }

    /// The shared morsel worker pool, created on first use.
    pub fn worker_pool(&self) -> Arc<WorkerPool> {
        let pool = self.pool.get_or_init(|| {
            let configured = self.worker_threads.load(Ordering::Relaxed);
            let n = if configured > 0 {
                configured
            } else {
                std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
            };
            WorkerPool::new(n.max(1), self.registry())
        });
        Arc::clone(pool)
    }

    /// Opens a fresh spill-run writer, counted against the operator `m`
    /// belongs to.
    pub fn new_run(&self, m: &mut OpMetrics) -> Result<RunWriter> {
        let id = self.next_spill.next();
        let path = self.spill_dir.join(format!("run-{id}.spill"));
        let file = std::fs::File::create(&path)?;
        self.stats.spill_runs.inc();
        m.spill_runs += 1;
        Ok(RunWriter {
            writer: BufWriter::with_capacity(1 << 16, file),
            path,
            bytes: 0,
            spilled_bytes: self.stats.spilled_bytes.clone(),
        })
    }
}

impl Drop for RuntimeCtx {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.spill_dir);
    }
}

/// Sequential writer of one spill run (tuples in arrival order).
pub struct RunWriter {
    writer: BufWriter<std::fs::File>,
    path: PathBuf,
    bytes: u64,
    /// `hyracks.dataflow.spilled_bytes`: bytes count as spilled when they
    /// are written, not when the run is finished, so the counter shows how
    /// much of an operator's input has left memory while it is still fed.
    spilled_bytes: Counter,
}

impl RunWriter {
    /// Appends one tuple.
    pub fn write(&mut self, tuple: &Tuple, m: &mut OpMetrics) -> Result<()> {
        let mut buf = Vec::with_capacity(64);
        let arity = u32_len("spill-run tuple arity", tuple.len())?;
        buf.extend_from_slice(&arity.to_le_bytes());
        for v in tuple {
            encode_into(v, &mut buf);
        }
        let frame_len = u32_len("spill-run frame", buf.len())?;
        self.writer.write_all(&frame_len.to_le_bytes())?;
        self.writer.write_all(&buf)?;
        let written = 4 + buf.len() as u64;
        self.bytes += written;
        self.spilled_bytes.add(written);
        m.spilled_bytes += written;
        Ok(())
    }

    /// Finishes the run and returns a handle for reading it back.
    pub fn finish(mut self) -> Result<RunHandle> {
        self.writer.flush()?;
        Ok(RunHandle { path: self.path.clone(), bytes: self.bytes })
    }
}

/// Handle on a completed spill run; readable multiple times, deleted on drop.
pub struct RunHandle {
    path: PathBuf,
    bytes: u64,
}

impl RunHandle {
    /// Bytes in the run.
    pub fn bytes(&self) -> u64 {
        self.bytes
    }

    /// Opens a streaming reader over the run's tuples.
    pub fn read(&self) -> Result<RunReader> {
        Ok(RunReader {
            reader: BufReader::with_capacity(1 << 16, std::fs::File::open(&self.path)?),
        })
    }
}

impl Drop for RunHandle {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Streaming reader over a spill run.
pub struct RunReader {
    reader: BufReader<std::fs::File>,
}

impl Iterator for RunReader {
    type Item = Result<Tuple>;

    fn next(&mut self) -> Option<Self::Item> {
        let mut len_buf = [0u8; 4];
        match self.reader.read_exact(&mut len_buf) {
            Err(e) if e.kind() == std::io::ErrorKind::UnexpectedEof => return None,
            Err(e) => return Some(Err(e.into())),
            Ok(()) => {}
        }
        let len = u32::from_le_bytes(len_buf) as usize;
        let mut buf = vec![0u8; len];
        if let Err(e) = self.reader.read_exact(&mut buf) {
            return Some(Err(e.into()));
        }
        if buf.len() < 4 {
            return Some(Err(std::io::Error::new(
                std::io::ErrorKind::InvalidData,
                "spill-run frame shorter than its tuple-count header",
            )
            .into()));
        }
        // the run holds what the operator held, however deep it nests
        let mut dec = Decoder::own(&buf[4..]);
        let n = u32::from_le_bytes([buf[0], buf[1], buf[2], buf[3]]) as usize;
        let mut tuple: Tuple = Vec::with_capacity(n);
        for _ in 0..n {
            match dec.value() {
                Ok(v) => tuple.push(v),
                Err(e) => return Some(Err(e.into())),
            }
        }
        Some(Ok(tuple))
    }
}

/// Convenience: spill an in-memory batch as one run.
pub fn spill_batch(ctx: &RuntimeCtx, m: &mut OpMetrics, tuples: &[Tuple]) -> Result<RunHandle> {
    let mut w = ctx.new_run(m)?;
    for t in tuples {
        w.write(t, m)?;
    }
    w.finish()
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::Value;

    #[test]
    fn run_roundtrip() {
        let ctx = RuntimeCtx::temp().unwrap();
        let tuples: Vec<Tuple> = (0..100)
            .map(|i| vec![Value::Int(i), Value::from(format!("s{i}"))])
            .collect();
        let mut m = OpMetrics::default();
        let run = spill_batch(&ctx, &mut m, &tuples).unwrap();
        assert!(run.bytes() > 0);
        let back: Vec<Tuple> = run.read().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(back, tuples);
        // rereadable
        assert_eq!(run.read().unwrap().count(), 100);
        assert_eq!(ctx.stats.spill_runs.get(), 1);
        assert!(ctx.stats.spilled_bytes.get() > 0);
        // the operator's own metrics carry the same counts
        assert_eq!((m.spill_runs, m.spilled_bytes), (1, run.bytes()));
    }

    /// A query can build a value deeper than a stored record may be: a
    /// spill run gives it back as it was written.
    #[test]
    fn a_tuple_nested_past_the_stored_bound_spills_and_reads_back() {
        let ctx = RuntimeCtx::temp().unwrap();
        let deep = (0..2 * asterix_adm::MAX_DEPTH).fold(Value::Int(1), |v, _| Value::Array(vec![v]));
        let tuples = vec![vec![Value::Int(0), deep]];
        let run = spill_batch(&ctx, &mut OpMetrics::default(), &tuples).unwrap();
        let back: Vec<Tuple> = run.read().unwrap().map(|r| r.unwrap()).collect();
        assert_eq!(back, tuples);
    }

    #[test]
    fn run_files_are_cleaned_up() {
        let ctx = RuntimeCtx::temp().unwrap();
        let path;
        {
            let run = spill_batch(&ctx, &mut OpMetrics::default(), &[vec![Value::Int(1)]]).unwrap();
            path = run.path.clone();
            assert!(path.exists());
        }
        assert!(!path.exists(), "run deleted on drop");
    }

    #[test]
    fn empty_run() {
        let ctx = RuntimeCtx::temp().unwrap();
        let run = spill_batch(&ctx, &mut OpMetrics::default(), &[]).unwrap();
        assert_eq!(run.read().unwrap().count(), 0);
    }

    #[test]
    fn dataflow_stats_are_visible_through_the_registry() {
        let ctx = RuntimeCtx::temp().unwrap();
        let before = ctx.registry().snapshot();
        let _run = spill_batch(&ctx, &mut OpMetrics::default(), &[vec![Value::Int(1)]]).unwrap();
        let delta = ctx.registry().snapshot().delta(&before);
        assert_eq!(delta.counter("hyracks.dataflow.spill_runs"), Some(1));
        assert!(delta.counter("hyracks.dataflow.spilled_bytes").unwrap() > 0);
    }
}
