//! Fault-tolerant data feeds: continuous ingestion into datasets.
//!
//! AsterixDB's feed facility connects external data-in-motion sources to
//! datasets (the ingestion-buffering half of paper Figure 2's memory story;
//! the fault-tolerance design follows "Scalable Fault-Tolerant Data Feeds
//! in AsterixDB", arXiv 1405.1705). A [`Feed`] is one worker thread that
//! applies records in batched transactions. Its *adapter* is where a batch
//! comes from:
//!
//! * **push** ([`Feed::start`], [`Feed::resume`]): producers
//!   [`Feed::push`] records into a bounded in-memory queue;
//! * **DCP** ([`Feed::shadow`]): the worker pulls the next sets and deletes
//!   of a [`FrontEndStore`] (paper Figure 7: Couchbase Analytics shadowing
//!   the Data Service).
//!
//! Everything after the batch is one path (see DESIGN.md "Fault-tolerant
//! feeds"):
//!
//! * **Congestion policies** ([`IngestionPolicy`], push only): when the
//!   queue is full a producer either blocks
//!   ([`Throttle`](IngestionPolicy::Throttle) — backpressure), drops the
//!   record with an audit trail ([`Discard`](IngestionPolicy::Discard)), or
//!   overflows it to a seqno-ordered disk segment that is replayed once the
//!   queue drains ([`Spill`](IngestionPolicy::Spill)).
//! * **Durable sequence numbers**: every record has one monotone seqno (a
//!   pushed record the one its push consumed, a mutation its DCP seq), and
//!   every committed batch persists its end seqno through the batch
//!   transaction (a [`WalRecord::FeedCursor`] record next to the commit),
//!   so [`Feed::last_durable_seq`] — and, after a crash,
//!   [`Instance::feed_durable_seq`] — name the exact restart point. The
//!   frontier outlives the log segment the cursor was written to: the
//!   checkpoint that opens every new segment carries it.
//! * **Failure classification**: a transiently failing batch commit (node
//!   down, injected fault) retries under the feed's [`RetryPolicy`]; an
//!   exhausted retry budget *fail-stops* the feed (keeping the durable
//!   frontier honest) instead of silently dropping the batch; a record the
//!   dataset refuses is skipped and counted, and a permanent commit failure
//!   counts the whole batch rejected.
//!
//! Recovery contract: after `Node::kill` (or a crash) mid-ingest, reopen /
//! restart and read the durable frontier. A push feed [`Feed::resume`]s
//! from it and its producer replays records with seqno greater than the
//! frontier; they re-land on their original seqnos (seqnos are assigned in
//! push order). A DCP feed is [`Feed::shadow`] again, which pulls after the
//! frontier. Primary-key upserts and idempotent deletes make the
//! re-application harmless — no committed record lost, none applied twice.
//!
//! [`WalRecord::FeedCursor`]: asterix_storage::wal::WalRecord

use crate::dcp::{key_to_pk, FrontEndStore, MutationKind};
use crate::error::{CoreError, Result};
use crate::instance::{Instance, RetryPolicy};
use asterix_adm::binary::{decode_own, encode, encode_key};
use asterix_adm::Value;
use asterix_obs::{Counter, Gauge, HighWater};
use asterix_storage::le;
use asterix_storage::lock_order::{Condvar, Mutex};
use std::collections::VecDeque;
use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::PathBuf;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long an idle DCP feed waits before it reads its store again: the
/// store does not wake it, a stop does.
const IDLE: Duration = Duration::from_millis(1);

/// What a feed does with a record pushed while its queue is full.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IngestionPolicy {
    /// Block the producer until the worker frees queue space
    /// (backpressure). The blocked time is surfaced as
    /// `core.feed.throttle_ns`.
    Throttle,
    /// Drop the record, counting it in `core.feed.discarded`. The drop
    /// still consumes a seqno, so the record↔seqno mapping stays
    /// deterministic for producers that replay on resume.
    Discard,
    /// Overflow to a seqno-ordered disk segment, replayed by the worker
    /// once the in-memory queue drains. Once spilling starts, *every* push
    /// goes to the segment until it is fully replayed, so batches always
    /// see seqnos in order.
    Spill,
}

/// Feed tuning.
#[derive(Debug, Clone)]
pub struct FeedConfig {
    /// In-memory queue capacity; overflow behavior is [`FeedConfig::policy`].
    pub queue: usize,
    /// Records per ingestion transaction.
    pub batch: usize,
    /// Congestion policy when the queue is full.
    pub policy: IngestionPolicy,
    /// Retry policy for *transient* batch-commit failures (node down,
    /// injected faults). When the budget is exhausted the feed fail-stops
    /// (see [`Feed::error`]) rather than dropping the batch.
    pub retry: RetryPolicy,
}

impl Default for FeedConfig {
    fn default() -> Self {
        FeedConfig {
            queue: 4096,
            batch: 256,
            policy: IngestionPolicy::Throttle,
            retry: RetryPolicy {
                max_attempts: 3,
                backoff: Duration::from_millis(2),
                restart_dead_nodes: false,
            },
        }
    }
}

/// The seqno-ordered overflow segment of the [`IngestionPolicy::Spill`]
/// policy: `[seq u64][len u32][ADM-encoded record]` frames appended by
/// producers and replayed (oldest first) by the worker.
struct Spill {
    file: File,
    path: PathBuf,
    write_off: u64,
    read_off: u64,
    /// Frames written but not yet replayed.
    pending: u64,
}

impl Spill {
    fn create(path: PathBuf) -> Result<Spill> {
        let file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(true)
            .open(&path)?;
        Ok(Spill { file, path, write_off: 0, read_off: 0, pending: 0 })
    }

    fn write_frame(&mut self, seq: u64, record: &Value) -> Result<()> {
        let payload = encode(record);
        let mut frame = Vec::with_capacity(12 + payload.len());
        frame.extend_from_slice(&seq.to_le_bytes());
        frame.extend_from_slice(&(payload.len() as u32).to_le_bytes());
        frame.extend_from_slice(&payload);
        self.file.write_all_at(&frame, self.write_off)?;
        self.write_off += frame.len() as u64;
        self.pending += 1;
        Ok(())
    }

    fn read_next(&mut self) -> Result<(u64, Value)> {
        let mut header = [0u8; 12];
        self.file.read_exact_at(&mut header, self.read_off)?;
        let (seq, len) = (le::u64_at(&header, 0), le::u32_at(&header, 8) as usize);
        let mut payload = vec![0u8; len];
        self.file.read_exact_at(&mut payload, self.read_off + 12)?;
        // what `write_frame` encoded, however deep a pushed record nests
        let record = decode_own(&payload).map_err(CoreError::Adm)?;
        self.read_off += 12 + len as u64;
        self.pending -= 1;
        Ok((seq, record))
    }
}

/// Queue state under the feed mutex.
struct QueueState {
    items: VecDeque<(u64, Value)>,
    /// Seqno the next push will consume (seqnos start at 1).
    next_seq: u64,
    /// Active overflow segment; `Some` from first overflow until fully
    /// replayed.
    spill: Option<Spill>,
    /// `Some(seq)` once stopped: the worker drains what was pushed, and a
    /// DCP feed pulls through `seq`, its store's `high_seq` at the stop.
    stopped: Option<u64>,
    /// Fail-stop reason: set when a batch exhausts its transient-retry
    /// budget. Pushes fail and the worker exits; the un-committed tail can
    /// be replayed via [`Feed::resume`] or [`Feed::shadow`].
    failed: Option<String>,
}

/// Feed metric handles: instance-registry counters (`core.feed.*`,
/// aggregated across feeds) plus per-feed totals for [`Feed::stop`].
struct Metrics {
    ingested: Counter,
    rejected: Counter,
    spilled: Counter,
    discarded: Counter,
    throttle_ns: Counter,
    retries: Counter,
    lag: Gauge,
    feed_ingested: Counter,
    feed_rejected: Counter,
    feed_spilled: Counter,
    feed_discarded: Counter,
}

impl Metrics {
    fn new(instance: &Instance) -> Metrics {
        let reg = instance.registry();
        Metrics {
            ingested: reg.counter("core.feed.ingested"),
            rejected: reg.counter("core.feed.rejected"),
            spilled: reg.counter("core.feed.spilled"),
            discarded: reg.counter("core.feed.discarded"),
            throttle_ns: reg.counter("core.feed.throttle_ns"),
            retries: reg.counter("core.feed.retries"),
            lag: reg.gauge("core.feed.lag"),
            feed_ingested: Counter::new(),
            feed_rejected: Counter::new(),
            feed_spilled: Counter::new(),
            feed_discarded: Counter::new(),
        }
    }
}

struct Shared {
    state: Mutex<QueueState>,
    not_full: Condvar,
    not_empty: Condvar,
    metrics: Metrics,
    /// End seqno of the last durably committed batch.
    durable_seq: HighWater,
    cap: usize,
    policy: IngestionPolicy,
    /// Overflow-segment location (under the instance data dir, so the
    /// spill lives on the same storage as the WAL).
    spill_path: PathBuf,
    /// The DCP adapter's source; `None` for a push feed.
    store: Option<FrontEndStore>,
}

/// One item of a batch.
enum Op {
    /// A record to upsert.
    Put(Value),
    /// The primary key of a record to delete (a DCP feed's deletes; a push
    /// feed makes none).
    Delete(Value),
}

/// A running feed into one dataset.
pub struct Feed {
    shared: Arc<Shared>,
    worker: Option<std::thread::JoinHandle<()>>,
}

impl Feed {
    /// Durable-cursor name for a feed into `dataset` (the key
    /// [`Instance::feed_durable_seq`] is queried with).
    pub fn cursor(dataset: &str) -> String {
        format!("feed.{dataset}")
    }

    /// Starts a fresh push feed into `dataset` of `instance` (seqnos from 1).
    pub fn start(instance: Instance, dataset: impl Into<String>, config: FeedConfig) -> Feed {
        Feed::launch(instance, dataset.into(), config, 0, None)
    }

    /// Resumes a push feed from a durable frontier (typically
    /// `instance.feed_durable_seq(&Feed::cursor(dataset))` after a crash or
    /// node failure): seqnos continue at `from_seq + 1` and
    /// [`Feed::last_durable_seq`] starts at `from_seq`. The producer must
    /// replay its records with seqnos greater than `from_seq`, in order —
    /// they re-land on their original seqnos, and primary-key upserts make
    /// the replay idempotent.
    pub fn resume(
        instance: Instance,
        dataset: impl Into<String>,
        from_seq: u64,
        config: FeedConfig,
    ) -> Feed {
        instance.registry().counter("core.feed.resumes").inc();
        Feed::launch(instance, dataset.into(), config, from_seq, None)
    }

    /// Starts a DCP feed that shadows `store` into `dataset`: its worker
    /// pulls at most [`FeedConfig::batch`] mutations at a time after the
    /// frontier `instance.feed_durable_seq(&Feed::cursor(dataset))`, so a
    /// fresh start and a resume after a crash are the same call, and only
    /// the tail the frontier misses is streamed again. The queue and its
    /// policy are not used, and [`Feed::push`] is refused.
    pub fn shadow(
        instance: Instance,
        dataset: impl Into<String>,
        store: FrontEndStore,
        config: FeedConfig,
    ) -> Result<Feed> {
        let dataset = dataset.into();
        let frontier = instance.feed_durable_seq(&Feed::cursor(&dataset))?;
        if frontier > 0 {
            instance.registry().counter("core.feed.resumes").inc();
        }
        let store = Some(store);
        Ok(Feed::launch(instance, dataset, config, frontier, store))
    }

    fn launch(
        instance: Instance,
        dataset: String,
        config: FeedConfig,
        from_seq: u64,
        store: Option<FrontEndStore>,
    ) -> Feed {
        let metrics = Metrics::new(&instance);
        let shared = Arc::new(Shared {
            state: Mutex::new(QueueState {
                items: VecDeque::with_capacity(config.queue.max(1)),
                next_seq: from_seq + 1,
                spill: None,
                stopped: None,
                failed: None,
            }),
            not_full: Condvar::new(),
            not_empty: Condvar::new(),
            metrics,
            durable_seq: HighWater::new(from_seq),
            cap: config.queue.max(1),
            policy: config.policy,
            spill_path: instance.data_dir().join(format!("feed-{dataset}.spill")),
            store,
        });
        let wshared = Arc::clone(&shared);
        let batch = config.batch.max(1);
        let retry = config.retry.clone();
        let worker = std::thread::spawn(move || {
            ingest_loop(&wshared, &instance, &dataset, batch, &retry, from_seq);
        });
        Feed { shared, worker: Some(worker) }
    }

    /// Pushes one record, returning the seqno it consumed. Behavior when
    /// the queue is full depends on the policy: [`IngestionPolicy::Throttle`]
    /// blocks (backpressure), [`IngestionPolicy::Discard`] drops the record
    /// (its seqno is still consumed), [`IngestionPolicy::Spill`] appends it
    /// to the overflow segment. Errors once the feed is stopped or has
    /// fail-stopped, and on a DCP feed, which pulls its records.
    pub fn push(&self, record: Value) -> Result<u64> {
        let sh = &self.shared;
        if sh.store.is_some() {
            return Err(CoreError::Txn("a DCP feed pulls its records".into()));
        }
        let mut st = sh.state.lock();
        loop {
            if let Some(reason) = &st.failed {
                return Err(CoreError::Txn(format!("feed fail-stopped: {reason}")));
            }
            if st.stopped.is_some() {
                return Err(CoreError::Txn("feed is stopped".into()));
            }
            // an active spill captures every push until fully replayed —
            // otherwise a record could overtake spilled ones with smaller
            // seqnos and batches would see seqnos out of order
            let seq = st.next_seq;
            if let Some(spill) = st.spill.as_mut() {
                spill.write_frame(seq, &record)?;
                st.next_seq += 1;
                sh.metrics.spilled.inc();
                sh.metrics.feed_spilled.inc();
                sh.metrics.lag.add(1);
                sh.not_empty.notify_one();
                return Ok(seq);
            }
            if st.items.len() < sh.cap {
                st.next_seq += 1;
                st.items.push_back((seq, record));
                sh.metrics.lag.add(1);
                sh.not_empty.notify_one();
                return Ok(seq);
            }
            // queue full: apply the congestion policy
            match sh.policy {
                IngestionPolicy::Throttle => {
                    let t0 = Instant::now();
                    st = sh.not_full.wait(st);
                    sh.metrics.throttle_ns.add(t0.elapsed().as_nanos() as u64);
                }
                IngestionPolicy::Discard => {
                    // the seqno is consumed so replay-from-seqno mappings
                    // stay deterministic; the record itself is dropped
                    st.next_seq += 1;
                    sh.metrics.discarded.inc();
                    sh.metrics.feed_discarded.inc();
                    return Ok(seq);
                }
                IngestionPolicy::Spill => {
                    st.spill = Some(Spill::create(sh.spill_path.clone())?);
                    // loop back: the spill branch above takes this record
                }
            }
        }
    }

    /// Records (of a DCP feed: sets and deletes) successfully ingested
    /// (committed) so far.
    pub fn ingested(&self) -> u64 {
        self.shared.metrics.feed_ingested.get()
    }

    /// Records rejected so far. A record the dataset refuses counts one; a
    /// batch whose commit fails *permanently* (non-transient) adds the
    /// **whole batch's record count** here — transient commit failures
    /// never land here, they retry and then fail-stop the feed.
    pub fn rejected(&self) -> u64 {
        self.shared.metrics.feed_rejected.get()
    }

    /// Records dropped by the [`IngestionPolicy::Discard`] policy.
    pub fn discarded(&self) -> u64 {
        self.shared.metrics.feed_discarded.get()
    }

    /// Records routed through the [`IngestionPolicy::Spill`] segment.
    pub fn spilled(&self) -> u64 {
        self.shared.metrics.feed_spilled.get()
    }

    /// End seqno of the last durably committed batch (0 = none yet). Every
    /// record with a seqno at or below this survived any crash; monotone
    /// non-decreasing for the life of the feed.
    pub fn last_durable_seq(&self) -> u64 {
        self.shared.durable_seq.get()
    }

    /// Fail-stop reason, set when a batch exhausted its transient-retry
    /// budget. A failed feed rejects pushes; once the fault is cleared,
    /// recover with [`Feed::resume`] from [`Feed::last_durable_seq`], or
    /// with [`Feed::shadow`] again.
    pub fn error(&self) -> Option<String> {
        self.shared.state.lock().failed.clone()
    }

    /// Stops the feed and returns its `(ingested, rejected)` totals once a
    /// push feed has drained everything already pushed, and a DCP feed has
    /// committed its store up to the `high_seq` of this moment (a
    /// fail-stopped feed returns at once).
    pub fn stop(mut self) -> (u64, u64) {
        self.close();
        (self.ingested(), self.rejected())
    }

    fn close(&mut self) {
        let store = self.shared.store.as_ref();
        let drain_to = store.map_or(0, FrontEndStore::high_seq);
        {
            let mut st = self.shared.state.lock();
            st.stopped.get_or_insert(drain_to);
            self.shared.not_empty.notify_all();
            self.shared.not_full.notify_all();
        }
        if let Some(w) = self.worker.take() {
            let _ = asterix_storage::lock_order::join(w);
        }
    }
}

impl Drop for Feed {
    fn drop(&mut self) {
        self.close();
    }
}

/// Outcome of one batch at the worker.
enum BatchOutcome {
    /// Committed (or permanently rejected): move on.
    Continue,
    /// Transient retries exhausted: fail-stop the feed.
    FailStop(String),
}

fn ingest_loop(
    shared: &Arc<Shared>,
    instance: &Instance,
    dataset: &str,
    batch_size: usize,
    retry: &RetryPolicy,
    mut pulled: u64,
) {
    loop {
        let batch = match &shared.store {
            Some(store) => pull(shared, store, pulled, batch_size),
            None => take_pushed(shared, batch_size),
        };
        // `None`: stopped with nothing left, or failed
        let Some(batch) = batch else { return };
        let Some(&(end_seq, _)) = batch.last() else {
            continue;
        };
        // commit it, outside the queue lock
        match commit_batch(shared, instance, dataset, &batch, end_seq, retry) {
            // a rejected batch moves the pull position too: read back from
            // `durable_seq`, a batch that always fails would be pulled forever
            BatchOutcome::Continue => pulled = end_seq,
            BatchOutcome::FailStop(reason) => {
                fail_stop(shared, &mut shared.state.lock(), batch.len(), reason);
                return;
            }
        }
    }
}

/// Fail-stops the feed for `reason`: what it still holds uncommitted — the
/// `held` records of the batch in hand, the queue and the spill's pending
/// frames — leaves `core.feed.lag`, and every waiter wakes.
fn fail_stop(shared: &Shared, st: &mut QueueState, held: usize, reason: String) {
    st.failed = Some(reason);
    let spilled = st.spill.as_ref().map_or(0, |s| s.pending);
    shared.metrics.lag.add(-((held + st.items.len()) as i64 + spilled as i64));
    shared.not_full.notify_all();
    shared.not_empty.notify_all();
}

/// The push adapter: the next batch from the queue, then from the spill
/// segment; waits while nothing is pending. `None` once the feed is stopped
/// with nothing left, or has failed.
fn take_pushed(shared: &Shared, batch_size: usize) -> Option<Vec<(u64, Op)>> {
    let mut st = shared.state.lock();
    loop {
        if st.failed.is_some() {
            return None;
        }
        let has_work = !st.items.is_empty() || st.spill.as_ref().is_some_and(|s| s.pending > 0);
        if has_work {
            break;
        }
        if st.stopped.is_some() {
            cleanup_spill(&mut st);
            return None;
        }
        st = shared.not_empty.wait(st);
    }
    let mut batch = Vec::with_capacity(batch_size);
    while batch.len() < batch_size {
        if let Some((seq, record)) = st.items.pop_front() {
            batch.push((seq, Op::Put(record)));
            continue;
        }
        // queue empty: replay the spill segment in seqno order
        let Some(spill) = st.spill.as_mut() else {
            break;
        };
        if spill.pending == 0 {
            break;
        }
        match spill.read_next() {
            Ok((seq, record)) => batch.push((seq, Op::Put(record))),
            Err(e) => {
                fail_stop(shared, &mut st, batch.len(), format!("spill replay failed: {e}"));
                return None;
            }
        }
    }
    // fully replayed with no backlog left: retire the segment so pushes
    // return to the in-memory queue
    if st.items.is_empty() && st.spill.as_ref().is_some_and(|s| s.pending == 0) {
        cleanup_spill(&mut st);
    }
    shared.not_full.notify_all();
    Some(batch)
}

/// The DCP adapter: the next at most `batch_size` mutations of `store`
/// after `pulled`, read outside the state lock; while none are pending it
/// waits [`IDLE`] and reads again. `None` once the feed is stopped and has
/// pulled through the store's seq at the stop.
fn pull(
    shared: &Shared,
    store: &FrontEndStore,
    pulled: u64,
    batch_size: usize,
) -> Option<Vec<(u64, Op)>> {
    loop {
        let stopped = shared.state.lock().stopped;
        if stopped.is_some_and(|to| pulled >= to) {
            return None;
        }
        let pending = store.stream_since(pulled, batch_size);
        if !pending.is_empty() {
            // `core.feed.lag` counts what a feed holds uncommitted: here
            // the batch; the stream's lag is the store's to tell
            shared.metrics.lag.add(pending.len() as i64);
            let batch = pending.into_iter().map(|m| match m.kind {
                MutationKind::Put(doc) => (m.seq, Op::Put(doc)),
                MutationKind::Delete => (m.seq, Op::Delete(key_to_pk(&m.key))),
            });
            return Some(batch.collect());
        }
        let st = shared.state.lock();
        if st.stopped.is_none() {
            let _ = shared.not_empty.wait_for(st, IDLE);
        }
    }
}

fn cleanup_spill(st: &mut QueueState) {
    if let Some(spill) = st.spill.take() {
        let _ = std::fs::remove_file(&spill.path);
    }
}

/// Applies one batch, whose last seqno is `end_seq`, in one transaction
/// with the feed's retry policy.
fn commit_batch(
    shared: &Arc<Shared>,
    instance: &Instance,
    dataset: &str,
    batch: &[(u64, Op)],
    end_seq: u64,
    retry: &RetryPolicy,
) -> BatchOutcome {
    let applied = instance.with_retries(
        retry,
        || shared.metrics.retries.inc(),
        || try_apply(instance, dataset, batch, end_seq),
    );
    let rejected = match applied {
        Ok((ok, failed)) => {
            shared.durable_seq.raise(end_seq);
            shared.metrics.ingested.add(ok);
            shared.metrics.feed_ingested.add(ok);
            failed
        }
        Err(err) if err.is_transient() => {
            // keep the frontier honest: nothing past `last_durable_seq`
            // was acknowledged, so resume-from-durable replays this batch
            return BatchOutcome::FailStop(format!(
                "batch ending at seq {end_seq} failed {} attempt(s): {err}",
                retry.max_attempts.max(1)
            ));
        }
        // permanent commit failure: the whole batch (every record in it) is
        // counted rejected — see `Feed::rejected`
        Err(_) => batch.len() as u64,
    };
    shared.metrics.rejected.add(rejected);
    shared.metrics.feed_rejected.add(rejected);
    shared.metrics.lag.add(-(batch.len() as i64));
    BatchOutcome::Continue
}

/// One attempt: all of `batch` plus its cursor in a single transaction.
/// Transient per-record errors abort the attempt (the dropped transaction
/// rolls back); non-transient per-record errors skip just that record.
fn try_apply(
    instance: &Instance,
    dataset: &str,
    batch: &[(u64, Op)],
    end_seq: u64,
) -> Result<(u64, u64)> {
    let mut txn = instance.begin();
    let mut ok = 0u64;
    let mut failed = 0u64;
    for (_, op) in batch {
        let applied = match op {
            Op::Put(record) => txn.write(dataset, record, true),
            Op::Delete(pk) => txn.delete(dataset, &encode_key(std::slice::from_ref(pk))),
        };
        match applied {
            Ok(()) => ok += 1,
            Err(e) if e.is_transient() => return Err(e),
            Err(_) => failed += 1, // a record the dataset refuses: skipped
        }
    }
    txn.set_feed_cursor(Feed::cursor(dataset), end_seq);
    txn.commit()?;
    Ok((ok, failed))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::instance::InstanceConfig;
    use asterix_adm::parse::parse_value;
    use std::path::{Path, PathBuf};

    const DDL: &str = "CREATE TYPE T AS { id: int, v: int };
                       CREATE DATASET Stream(T) PRIMARY KEY id;";

    fn setup() -> Instance {
        let db = Instance::temp().unwrap();
        db.execute_sqlpp(DDL).unwrap();
        db
    }

    /// One-node instance: killing node 0 stalls *every* partition, so the
    /// worker's retry loop blocks batch consumption deterministically.
    fn setup_one_node() -> Instance {
        let db = Instance::open(InstanceConfig {
            nodes: 1,
            partitions: 2,
            ..InstanceConfig::default()
        })
        .unwrap();
        db.execute_sqlpp(DDL).unwrap();
        db
    }

    /// A directory of its own for an instance that crashes and reopens.
    fn fresh_dir(tag: &str) -> PathBuf {
        std::env::temp_dir().join(format!(
            "asterix-feed-{tag}-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ))
    }

    fn open_at(dir: &Path) -> Instance {
        Instance::open(InstanceConfig {
            data_dir: Some(dir.to_path_buf()),
            ..InstanceConfig::default()
        })
        .unwrap()
    }

    /// A DCP feed with the default config shadowing `store` into `Stream`.
    fn shadow(db: &Instance, store: &FrontEndStore) -> Feed {
        Feed::shadow(db.clone(), "Stream", store.clone(), FeedConfig::default()).unwrap()
    }

    fn doc(id: i64, v: i64) -> Value {
        parse_value(&format!(r#"{{"id": {id}, "v": {v}}}"#)).unwrap()
    }

    fn rec(id: i64) -> Value {
        doc(id, id)
    }

    #[test]
    fn feed_ingests_pushed_records() {
        let db = setup();
        let feed = Feed::start(
            db.clone(),
            "Stream",
            FeedConfig { queue: 64, batch: 16, ..FeedConfig::default() },
        );
        for i in 0..500 {
            feed.push(rec(i)).unwrap();
        }
        let (ok, rejected) = feed.stop();
        assert_eq!(ok, 500);
        assert_eq!(rejected, 0);
        assert_eq!(db.count("Stream").unwrap(), 500);
    }

    #[test]
    fn feed_skips_malformed_records() {
        let db = setup();
        let feed = Feed::start(db.clone(), "Stream", FeedConfig::default());
        feed.push(rec(1)).unwrap();
        feed.push(parse_value(r#"{"no_pk": true}"#).unwrap()).unwrap(); // no id
        feed.push(rec(2)).unwrap();
        let (ok, rejected) = feed.stop();
        assert_eq!(ok, 2);
        assert_eq!(rejected, 1);
        assert_eq!(db.count("Stream").unwrap(), 2);
    }

    #[test]
    fn concurrent_producers() {
        let db = setup();
        let feed = Arc::new(Feed::start(db.clone(), "Stream", FeedConfig::default()));
        let mut handles = Vec::new();
        for t in 0..4i64 {
            let f = Arc::clone(&feed);
            handles.push(std::thread::spawn(move || {
                for i in 0..100 {
                    f.push(rec(t * 1000 + i)).unwrap();
                }
            }));
        }
        for h in handles {
            asterix_storage::lock_order::join(h).unwrap();
        }
        let feed = Arc::try_unwrap(feed).ok().expect("all producers done");
        let (ok, _) = feed.stop();
        assert_eq!(ok, 400);
        assert_eq!(db.count("Stream").unwrap(), 400);
    }

    #[test]
    fn seqnos_are_monotone_from_one() {
        let db = setup();
        let feed = Feed::start(db.clone(), "Stream", FeedConfig::default());
        for i in 0..10 {
            assert_eq!(feed.push(rec(i)).unwrap(), i as u64 + 1);
        }
        feed.stop();
        assert_eq!(db.feed_durable_seq(&Feed::cursor("Stream")).unwrap(), 10);
    }

    #[test]
    fn durable_seq_survives_crash_and_resume_continues_it() {
        let dir = fresh_dir("durable");
        {
            let db = open_at(&dir);
            db.execute_sqlpp(DDL).unwrap();
            let feed = Feed::start(db.clone(), "Stream", FeedConfig::default());
            for i in 0..100 {
                feed.push(rec(i)).unwrap();
            }
            feed.stop();
            assert_eq!(db.feed_durable_seq(&Feed::cursor("Stream")).unwrap(), 100);
            db.crash();
        }
        let db = open_at(&dir);
        let durable = db.feed_durable_seq(&Feed::cursor("Stream")).unwrap();
        assert_eq!(durable, 100, "cursor recovered from the WAL");
        assert_eq!(db.count("Stream").unwrap(), 100);
        // resume: seqnos continue after the durable frontier
        let feed = Feed::resume(db.clone(), "Stream", durable, FeedConfig::default());
        assert_eq!(feed.last_durable_seq(), 100);
        for i in 100..150 {
            assert_eq!(feed.push(rec(i)).unwrap(), i as u64 + 1);
        }
        feed.stop();
        assert_eq!(db.feed_durable_seq(&Feed::cursor("Stream")).unwrap(), 150);
        assert_eq!(db.count("Stream").unwrap(), 150);
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn discard_policy_drops_on_congestion_without_losing_ingested() {
        let db = setup_one_node();
        db.kill_node(0); // stall the worker in its transient-retry loop
        let total = 64u64;
        let feed = Feed::start(
            db.clone(),
            "Stream",
            FeedConfig {
                queue: 8,
                batch: 4,
                policy: IngestionPolicy::Discard,
                retry: RetryPolicy {
                    max_attempts: 1000,
                    backoff: Duration::from_millis(1),
                    restart_dead_nodes: false,
                },
            },
        );
        for i in 0..total {
            feed.push(rec(i as i64)).unwrap();
        }
        // queue(8) + one in-flight batch(<=4) bound what survives congestion
        assert!(feed.discarded() >= total - 8 - 4, "discards: {}", feed.discarded());
        db.restart_node(0);
        let discarded = feed.discarded();
        let (ok, rejected) = feed.stop();
        assert_eq!(rejected, 0);
        assert_eq!(ok + discarded, total, "every seqno accounted for");
        assert_eq!(db.count("Stream").unwrap() as u64, ok, "ingested == present");
    }

    #[test]
    fn spill_policy_overflows_to_disk_and_replays_without_loss() {
        let db = setup_one_node();
        db.kill_node(0);
        let total = 64u64;
        let feed = Feed::start(
            db.clone(),
            "Stream",
            FeedConfig {
                queue: 8,
                batch: 4,
                policy: IngestionPolicy::Spill,
                retry: RetryPolicy {
                    max_attempts: 1000,
                    backoff: Duration::from_millis(1),
                    restart_dead_nodes: false,
                },
            },
        );
        for i in 0..total {
            feed.push(rec(i as i64)).unwrap();
        }
        // a record nested deeper than a stored one may be: spilled and read
        // back like any other, then refused at its write
        let deep = (0..2 * asterix_adm::MAX_DEPTH).fold(Value::Int(1), |v, _| Value::Array(vec![v]));
        feed.push(Value::object(vec![("id".into(), Value::Int(-1)), ("v".into(), Value::Int(0)), ("deep".into(), deep)]))
            .unwrap();
        assert!(feed.spilled() >= total - 8 - 4, "spilled: {}", feed.spilled());
        let spill_file = db.data_dir().join("feed-Stream.spill");
        assert!(spill_file.exists(), "overflow segment on disk");
        db.restart_node(0);
        let (ok, rejected) = feed.stop();
        assert_eq!((ok, rejected), (total, 1), "spill replay loses nothing");
        assert_eq!(db.count("Stream").unwrap() as u64, total);
        assert!(!spill_file.exists(), "drained segment is removed");
    }

    #[test]
    fn transient_failure_retries_then_fail_stops_with_honest_frontier() {
        let db = setup_one_node();
        db.kill_node(0);
        let feed = Feed::start(
            db.clone(),
            "Stream",
            FeedConfig {
                queue: 64,
                batch: 8,
                policy: IngestionPolicy::Throttle,
                retry: RetryPolicy {
                    max_attempts: 3,
                    backoff: Duration::from_millis(1),
                    restart_dead_nodes: false,
                },
            },
        );
        for i in 0..16i64 {
            feed.push(rec(i)).unwrap();
        }
        // the worker exhausts its retry budget and fail-stops
        let deadline = Instant::now() + Duration::from_secs(10);
        while feed.error().is_none() && Instant::now() < deadline {
            asterix_storage::lock_order::sleep(Duration::from_millis(2));
        }
        let reason = feed.error().expect("feed fail-stopped");
        assert!(reason.contains("attempt"), "{reason}");
        assert!(feed.push(rec(99)).is_err(), "failed feed rejects pushes");
        let durable = feed.last_durable_seq();
        assert_eq!(durable, 0, "nothing was acknowledged durable");
        assert_eq!(feed.ingested(), 0);
        drop(feed);
        // recovery: restart the node, resume from the durable frontier and
        // replay everything after it — exactly-once lands all 16
        db.restart_node(0);
        let feed = Feed::resume(db.clone(), "Stream", durable, FeedConfig::default());
        for i in durable as i64..16 {
            feed.push(rec(i)).unwrap();
        }
        let (ok, _) = feed.stop();
        assert_eq!(ok, 16);
        assert_eq!(db.count("Stream").unwrap(), 16);
    }

    /// A fail-stopped feed leaves nothing on `core.feed.lag`: neither the
    /// batch it failed on nor the records queued behind it. The backoff
    /// leaves the pushes time to land before the second attempt fails.
    #[test]
    fn a_fail_stopped_feed_takes_what_it_held_off_the_lag() {
        let db = setup_one_node();
        db.kill_node(0);
        let retry = RetryPolicy { max_attempts: 2, backoff: Duration::from_millis(50), restart_dead_nodes: false };
        let feed = Feed::start(db.clone(), "Stream", FeedConfig { queue: 64, batch: 8, retry, ..FeedConfig::default() });
        for i in 0..16i64 {
            feed.push(rec(i)).unwrap();
        }
        let deadline = Instant::now() + Duration::from_secs(10);
        while feed.error().is_none() && Instant::now() < deadline {
            asterix_storage::lock_order::sleep(Duration::from_millis(2));
        }
        assert!(feed.error().is_some(), "the feed fail-stopped");
        assert_eq!(db.metrics_snapshot().gauge("core.feed.lag"), Some(0));
        drop(feed);
        assert_eq!(db.metrics_snapshot().gauge("core.feed.lag"), Some(0));
    }

    #[test]
    fn transient_failure_recovers_via_restart_dead_nodes() {
        let db = setup_one_node();
        let feed = Feed::start(
            db.clone(),
            "Stream",
            FeedConfig {
                queue: 64,
                batch: 8,
                policy: IngestionPolicy::Throttle,
                retry: RetryPolicy {
                    max_attempts: 5,
                    backoff: Duration::from_millis(1),
                    restart_dead_nodes: true,
                },
            },
        );
        for i in 0..32i64 {
            feed.push(rec(i)).unwrap();
            if i == 10 {
                db.kill_node(0);
            }
        }
        let (ok, rejected) = feed.stop();
        assert_eq!((ok, rejected), (32, 0), "retry policy revived the node");
        assert_eq!(db.count("Stream").unwrap(), 32);
    }

    #[test]
    fn a_dcp_feed_applies_puts_updates_and_deletes() {
        let db = setup();
        let store = FrontEndStore::new();
        store.set("1", doc(1, 10));
        store.set("2", doc(2, 20));
        let feed = shadow(&db, &store);
        store.set("1", doc(1, 99));
        store.delete("2");
        assert!(feed.push(rec(3)).is_err(), "a DCP feed pulls its records");
        assert_eq!(feed.stop(), (4, 0));
        let rows = db.query("SELECT VALUE s.v FROM Stream s").unwrap();
        assert_eq!(rows, vec![Value::Int(99)]);
        assert_eq!(db.feed_durable_seq(&Feed::cursor("Stream")).unwrap(), 4);
    }

    #[test]
    fn a_dcp_batch_of_256_commits_its_cursor() {
        let db = setup_one_node();
        let opened = db.metrics_snapshot();
        let store = FrontEndStore::new();
        for i in 0..256 {
            store.set(format!("{i}"), doc(i, i));
        }
        assert_eq!(shadow(&db, &store).stop(), (256, 0));
        let durable = db.feed_durable_seq(&Feed::cursor("Stream")).unwrap();
        assert_eq!(durable, 256, "the batch commits its cursor");
        for i in 256..1_000 {
            store.set(format!("{i}"), doc(i, i));
        }
        assert_eq!(shadow(&db, &store).stop(), (744, 0), "the tail only");
        let commits = db
            .metrics_snapshot()
            .delta(&opened)
            .counter("node0.storage.wal.group_commits");
        assert_eq!(commits, Some(4), "256, then 256 + 256 + 232: one each");
        assert_eq!(db.count("Stream").unwrap(), 1_000);
    }

    #[test]
    fn a_refused_document_is_skipped_and_counted() {
        let db = setup();
        let store = FrontEndStore::new();
        store.set("1", doc(1, 1));
        store.set("two", parse_value(r#"{"id": "two", "v": 2}"#).unwrap());
        store.set("3", doc(3, 3));
        let feed = shadow(&db, &store);
        assert_eq!(feed.stop(), (2, 1), "a string id for an int key is skipped");
        assert_eq!(db.count("Stream").unwrap(), 2);
        assert_eq!(db.feed_durable_seq(&Feed::cursor("Stream")).unwrap(), 3);
    }

    #[test]
    fn a_dead_node_fail_stops_a_dcp_feed_and_shadow_catches_up() {
        let db = setup_one_node();
        let store = FrontEndStore::new();
        for i in 0..100 {
            store.set(format!("{i}"), doc(i, i));
        }
        assert!(db.kill_node(0));
        let config = FeedConfig {
            retry: RetryPolicy {
                max_attempts: 3,
                backoff: Duration::from_millis(1),
                restart_dead_nodes: false,
            },
            ..FeedConfig::default()
        };
        let feed = Feed::shadow(db.clone(), "Stream", store.clone(), config.clone()).unwrap();
        let deadline = Instant::now() + Duration::from_secs(10);
        while feed.error().is_none() && Instant::now() < deadline {
            asterix_storage::lock_order::sleep(Duration::from_millis(2));
        }
        let reason = feed.error().expect("feed fail-stopped");
        assert!(reason.contains("attempt"), "{reason}");
        assert_eq!(feed.last_durable_seq(), 0, "nothing was acknowledged");
        assert_eq!(feed.stop(), (0, 0));
        assert!(db.restart_node(0));
        let feed = Feed::shadow(db.clone(), "Stream", store.clone(), config).unwrap();
        assert_eq!(feed.stop(), (100, 0));
        assert_eq!(db.count("Stream").unwrap(), 100);
    }

    #[test]
    fn after_a_crash_only_the_missed_tail_is_streamed_again() {
        let dir = fresh_dir("dcp-resume");
        let store = FrontEndStore::new();
        for i in 0..50 {
            store.set(format!("{i}"), doc(i, i));
        }
        {
            let db = open_at(&dir);
            db.execute_sqlpp(DDL).unwrap();
            let feed = shadow(&db, &store);
            assert_eq!(feed.stop(), (50, 0));
            db.crash();
        }
        // mutations keep arriving while analytics is down
        for i in 50..80 {
            store.set(format!("{i}"), doc(i, i));
        }
        store.delete("0");
        let db = open_at(&dir);
        assert_eq!(db.count("Stream").unwrap(), 50, "shadow recovered");
        let frontier = db.feed_durable_seq(&Feed::cursor("Stream")).unwrap();
        assert_eq!(frontier, 50, "frontier recovered from the WAL");
        assert_eq!(store.high_seq() - frontier, 31, "the missed tail");
        assert_eq!(shadow(&db, &store).stop(), (31, 0), "streamed again");
        assert_eq!(db.count("Stream").unwrap(), 79);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
