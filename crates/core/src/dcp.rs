//! HTAP shadowing — the Couchbase Analytics architecture of paper Figure 7.
//!
//! "Data and data changes in the Couchbase front-end data store are streamed
//! in real time into the Couchbase Analytics backend, where it can then be
//! sliced and diced in its natural (application schema) form using SQL++."
//!
//! [`FrontEndStore`] simulates the operational document store (the Data
//! Service): a KV store of JSON documents with a DCP-like totally-ordered
//! mutation sequence. A [`ShadowLink`] consumes the stream from a cursor and
//! applies mutations to an analytics dataset in an [`Instance`] — providing
//! the near-real-time copy and the performance isolation experiment E6
//! measures (analytics queries never touch the front-end store).

use crate::error::{CoreError, Result};
use crate::instance::Instance;
use asterix_adm::binary::encode_key;
use asterix_adm::Value;
use asterix_storage::lock_order::Mutex;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;

/// One DCP mutation.
#[derive(Debug, Clone)]
pub struct Mutation {
    pub seq: u64,
    pub key: String,
    pub kind: MutationKind,
}

/// Mutation payloads.
#[derive(Debug, Clone)]
pub enum MutationKind {
    Put(Value),
    Delete,
}

#[derive(Default)]
struct FrontInner {
    docs: std::collections::HashMap<String, Value>,
    log: Vec<Mutation>,
}

/// The simulated operational KV document store (Figure 7's Data Service).
#[derive(Clone, Default)]
pub struct FrontEndStore {
    inner: Arc<Mutex<FrontInner>>,
}

impl FrontEndStore {
    /// An empty store.
    pub fn new() -> Self {
        FrontEndStore::default()
    }

    /// Sets a document (operational write path).
    pub fn set(&self, key: impl Into<String>, doc: Value) {
        let key = key.into();
        let mut inner = self.inner.lock();
        let seq = inner.log.len() as u64 + 1;
        inner.docs.insert(key.clone(), doc.clone());
        inner.log.push(Mutation { seq, key, kind: MutationKind::Put(doc) });
    }

    /// Deletes a document.
    pub fn delete(&self, key: &str) {
        let mut inner = self.inner.lock();
        if inner.docs.remove(key).is_some() {
            let seq = inner.log.len() as u64 + 1;
            inner.log.push(Mutation {
                seq,
                key: key.to_string(),
                kind: MutationKind::Delete,
            });
        }
    }

    /// Point read (operational read path).
    pub fn get(&self, key: &str) -> Option<Value> {
        self.inner.lock().docs.get(key).cloned()
    }

    /// Number of live documents.
    pub fn len(&self) -> usize {
        self.inner.lock().docs.len()
    }

    /// True when the store is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Highest mutation sequence number.
    pub fn high_seq(&self) -> u64 {
        self.inner.lock().log.len() as u64
    }

    /// Up to `limit` mutations with `seq > cursor`, in order (the DCP
    /// stream).
    pub fn stream_since(&self, cursor: u64, limit: usize) -> Vec<Mutation> {
        let inner = self.inner.lock();
        // a mutation's seq is its position in the log plus one
        inner
            .log
            .iter()
            .skip(cursor as usize)
            .take(limit)
            .cloned()
            .collect()
    }
}

/// Mutations one [`ShadowLink::pump`] applies at most, in one transaction:
/// the feeds' default batch. No-steal flushes no memory component while a
/// writer is open, so a link that fell behind catches up over several pumps
/// instead of growing one component past its budget.
const PUMP_BATCH: usize = 256;

/// Continuously shadows a [`FrontEndStore`] into an analytics dataset.
pub struct ShadowLink {
    store: FrontEndStore,
    instance: Instance,
    dataset: String,
    cursor: AtomicU64,
    stopped: Arc<AtomicBool>,
}

impl ShadowLink {
    /// Creates a link from `store` into `dataset` of `instance`, starting
    /// from the beginning of the DCP stream. After a crash use
    /// [`ShadowLink::resume`] instead, which restarts from the last cursor
    /// the instance committed durably.
    pub fn new(store: FrontEndStore, instance: Instance, dataset: impl Into<String>) -> Arc<Self> {
        ShadowLink::with_cursor(store, instance, dataset, 0)
    }

    /// Recovers a link after an instance restart: reads the last durably
    /// committed DCP cursor for `dataset` (persisted by [`ShadowLink::pump`]
    /// inside each shadow transaction) and resumes streaming from there.
    /// Mutations the crash cut short are re-applied; primary-key upserts and
    /// idempotent deletes make the re-application harmless.
    pub fn resume(
        store: FrontEndStore,
        instance: Instance,
        dataset: impl Into<String>,
    ) -> Result<Arc<Self>> {
        let dataset = dataset.into();
        let cursor = instance.feed_durable_seq(&ShadowLink::cursor_name(&dataset))?;
        Ok(ShadowLink::with_cursor(store, instance, dataset, cursor))
    }

    fn with_cursor(
        store: FrontEndStore,
        instance: Instance,
        dataset: impl Into<String>,
        cursor: u64,
    ) -> Arc<Self> {
        Arc::new(ShadowLink {
            store,
            instance,
            dataset: dataset.into(),
            cursor: AtomicU64::new(cursor),
            stopped: Arc::new(AtomicBool::new(false)),
        })
    }

    /// WAL cursor name under which this link's progress is persisted
    /// (namespaced apart from [`crate::feeds::Feed::cursor`] names).
    pub fn cursor_name(dataset: &str) -> String {
        format!("dcp.{dataset}")
    }

    /// The last DCP sequence number applied (and committed) by this link.
    pub fn cursor(&self) -> u64 {
        self.cursor.load(Ordering::Acquire)
    }

    /// Applies the next batch of at most [`PUMP_BATCH`] pending mutations;
    /// returns how many were applied. The batch transaction also persists
    /// the new DCP cursor, so the applied prefix and its restart point are
    /// durable together.
    pub fn pump(&self) -> Result<usize> {
        let cursor = self.cursor.load(Ordering::Acquire);
        let pending = self.store.stream_since(cursor, PUMP_BATCH);
        if pending.is_empty() {
            return Ok(0);
        }
        let n = pending.len();
        let mut last = cursor;
        let mut txn = self.instance.begin();
        for m in pending {
            match m.kind {
                MutationKind::Put(doc) => {
                    txn.write(&self.dataset, &doc, true)?;
                }
                MutationKind::Delete => {
                    let pk = key_to_pk(&m.key);
                    txn.delete(&self.dataset, &encode_key(&[pk]))?;
                }
            }
            last = m.seq;
        }
        txn.set_feed_cursor(ShadowLink::cursor_name(&self.dataset), last);
        txn.commit()?;
        self.cursor.store(last, Ordering::Release);
        Ok(n)
    }

    /// Shadow lag: mutations produced but not yet applied.
    pub fn lag(&self) -> u64 {
        self.store
            .high_seq()
            .saturating_sub(self.cursor.load(Ordering::Acquire))
    }

    /// Spawns a pump thread with the given poll interval. The thread ends
    /// with `Ok(())` after [`ShadowLink::stop`], or with the first error
    /// that is not transient (a document the shadow dataset rejects would
    /// fail the same way at every poll). After a transient error (a node
    /// down) it tries again after the poll interval.
    pub fn start(
        self: &Arc<Self>,
        poll: std::time::Duration,
    ) -> std::thread::JoinHandle<Result<()>> {
        let me = Arc::clone(self);
        std::thread::spawn(move || {
            while !me.stopped.load(Ordering::Acquire) {
                match me.pump() {
                    Ok(0) => std::thread::sleep(poll),
                    Ok(_) => {}
                    Err(e) if e.is_transient() => std::thread::sleep(poll),
                    Err(e) => return Err(e),
                }
            }
            Ok(())
        })
    }

    /// Signals the pump thread to exit.
    pub fn stop(&self) {
        self.stopped.store(true, Ordering::Release);
    }

    /// Final catch-up + stop: pumps batch after batch synchronously until
    /// nothing is pending.
    pub fn drain(&self) -> Result<()> {
        self.stop();
        while self.lag() > 0 {
            self.pump()?;
        }
        Ok(())
    }
}

/// Maps a KV key to a primary-key value: integers parse as ints, everything
/// else is a string key.
pub fn key_to_pk(key: &str) -> Value {
    match key.parse::<i64>() {
        Ok(i) => Value::Int(i),
        Err(_) => Value::from(key),
    }
}

impl std::fmt::Debug for ShadowLink {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ShadowLink")
            .field("dataset", &self.dataset)
            .field("cursor", &self.cursor.load(Ordering::Relaxed))
            .field("lag", &self.lag())
            .finish()
    }
}

/// Convenience: create the analytics dataset (open type) used by shadow
/// links in examples and benches.
pub fn create_shadow_dataset(instance: &Instance, dataset: &str, pk_field: &str) -> Result<()> {
    instance
        .execute_sqlpp(&format!(
            "CREATE TYPE {dataset}ShadowType AS {{ {pk_field}: int }};
             CREATE DATASET {dataset}({dataset}ShadowType) PRIMARY KEY {pk_field};"
        ))
        .map(|_| ())
        .map_err(|e| CoreError::Catalog(format!("creating shadow dataset: {e}")))
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::parse::parse_value;

    fn doc(id: i64, v: i64) -> Value {
        parse_value(&format!(r#"{{"id": {id}, "v": {v}}}"#)).unwrap()
    }

    #[test]
    fn front_end_store_streams_mutations() {
        let store = FrontEndStore::new();
        store.set("1", doc(1, 10));
        store.set("2", doc(2, 20));
        store.set("1", doc(1, 11)); // update
        store.delete("2");
        assert_eq!(store.len(), 1);
        assert_eq!(store.high_seq(), 4);
        let all = store.stream_since(0, usize::MAX);
        assert_eq!(all.len(), 4);
        let tail = store.stream_since(2, usize::MAX);
        assert_eq!(tail.len(), 2);
        assert!(matches!(tail[1].kind, MutationKind::Delete));
        let head: Vec<u64> = store.stream_since(1, 2).iter().map(|m| m.seq).collect();
        assert_eq!(head, [2, 3]);
        // deleting a missing key is not a mutation
        store.delete("nope");
        assert_eq!(store.high_seq(), 4);
    }

    #[test]
    fn shadow_link_applies_puts_updates_deletes() {
        let instance = Instance::temp().unwrap();
        create_shadow_dataset(&instance, "Shadow", "id").unwrap();
        let store = FrontEndStore::new();
        let link = ShadowLink::new(store.clone(), instance.clone(), "Shadow");
        store.set("1", doc(1, 10));
        store.set("2", doc(2, 20));
        assert_eq!(link.lag(), 2);
        assert_eq!(link.pump().unwrap(), 2);
        assert_eq!(link.lag(), 0);
        assert_eq!(instance.count("Shadow").unwrap(), 2);
        // update + delete
        store.set("1", doc(1, 99));
        store.delete("2");
        link.pump().unwrap();
        let rows = instance.query("SELECT VALUE s.v FROM Shadow s").unwrap();
        assert_eq!(rows, vec![Value::Int(99)]);
    }

    #[test]
    fn pump_thread_keeps_up() {
        let instance = Instance::temp().unwrap();
        create_shadow_dataset(&instance, "Shadow", "id").unwrap();
        let store = FrontEndStore::new();
        let link = ShadowLink::new(store.clone(), instance.clone(), "Shadow");
        let handle = link.start(std::time::Duration::from_millis(1));
        for i in 0..200 {
            store.set(format!("{i}"), doc(i, i));
        }
        link.drain().unwrap();
        handle.join().unwrap().unwrap();
        assert_eq!(instance.count("Shadow").unwrap(), 200);
    }

    #[test]
    fn a_pump_applies_one_batch_with_its_cursor() {
        let instance = Instance::temp().unwrap();
        create_shadow_dataset(&instance, "Shadow", "id").unwrap();
        let store = FrontEndStore::new();
        let link = ShadowLink::new(store.clone(), instance.clone(), "Shadow");
        for i in 0..1_000 {
            store.set(format!("{i}"), doc(i, i));
        }
        assert_eq!(link.pump().unwrap(), 256);
        assert_eq!(link.lag(), 744);
        let durable = instance
            .feed_durable_seq(&ShadowLink::cursor_name("Shadow"))
            .unwrap();
        assert_eq!(durable, 256, "the batch commits its cursor");
        link.drain().unwrap();
        assert_eq!(link.lag(), 0);
        assert_eq!(instance.count("Shadow").unwrap(), 1_000);
    }

    #[test]
    fn a_rejected_document_ends_the_pump_thread_with_its_error() {
        let instance = Instance::temp().unwrap();
        create_shadow_dataset(&instance, "Shadow", "id").unwrap();
        let store = FrontEndStore::new();
        let link = ShadowLink::new(store.clone(), instance.clone(), "Shadow");
        store.set("1", doc(1, 1));
        store.set("two", parse_value(r#"{"id": "two", "v": 2}"#).unwrap());
        let handle = link.start(std::time::Duration::from_millis(1));
        let err = handle.join().unwrap().unwrap_err();
        assert!(!err.is_transient(), "a string id for an int key: {err}");
        assert_eq!(link.cursor(), 0, "the batch holding it is not applied");
        assert_eq!(instance.count("Shadow").unwrap(), 0);
    }

    #[test]
    fn a_pump_thread_waits_out_a_dead_node() {
        use crate::instance::InstanceConfig;
        use std::time::{Duration, Instant};
        let instance = Instance::open(InstanceConfig {
            nodes: 2,
            partitions: 2,
            ..InstanceConfig::default()
        })
        .unwrap();
        create_shadow_dataset(&instance, "Shadow", "id").unwrap();
        let store = FrontEndStore::new();
        let link = ShadowLink::new(store.clone(), instance.clone(), "Shadow");
        for i in 0..100 {
            store.set(format!("{i}"), doc(i, i));
        }
        assert!(instance.kill_node(0));
        let handle = link.start(Duration::from_millis(1));
        std::thread::sleep(Duration::from_millis(20));
        assert_eq!(
            link.cursor(),
            0,
            "a batch with records on the dead node is not applied"
        );
        assert!(
            !handle.is_finished(),
            "a dead node is transient: the thread keeps polling"
        );
        assert!(instance.restart_node(0));
        let deadline = Instant::now() + Duration::from_secs(10);
        while link.lag() > 0 && !handle.is_finished() && Instant::now() < deadline {
            std::thread::sleep(Duration::from_millis(1));
        }
        link.stop();
        handle.join().unwrap().unwrap();
        assert_eq!(link.lag(), 0);
        assert_eq!(instance.count("Shadow").unwrap(), 100);
    }

    #[test]
    fn key_mapping() {
        assert_eq!(key_to_pk("42"), Value::Int(42));
        assert_eq!(key_to_pk("user::42"), Value::from("user::42"));
    }

    #[test]
    fn resume_restarts_from_last_durable_cursor_after_crash() {
        use crate::instance::InstanceConfig;
        let dir = std::env::temp_dir().join(format!(
            "asterix-dcp-resume-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        let mk = |d: &std::path::Path| {
            Instance::open(InstanceConfig {
                data_dir: Some(d.to_path_buf()),
                ..InstanceConfig::default()
            })
            .unwrap()
        };
        let store = FrontEndStore::new();
        {
            let instance = mk(&dir);
            create_shadow_dataset(&instance, "Shadow", "id").unwrap();
            let link = ShadowLink::new(store.clone(), instance.clone(), "Shadow");
            for i in 0..50 {
                store.set(format!("{i}"), doc(i, i));
            }
            link.pump().unwrap();
            assert_eq!(link.cursor(), 50);
            instance.crash();
        }
        // mutations keep arriving while analytics is down
        for i in 50..80 {
            store.set(format!("{i}"), doc(i, i));
        }
        store.delete("0");
        let instance = mk(&dir);
        assert_eq!(instance.count("Shadow").unwrap(), 50, "shadow recovered");
        let link = ShadowLink::resume(store.clone(), instance.clone(), "Shadow").unwrap();
        assert_eq!(link.cursor(), 50, "cursor recovered from the WAL");
        assert_eq!(link.lag(), 31, "only the missed tail is pending");
        link.pump().unwrap();
        assert_eq!(instance.count("Shadow").unwrap(), 79);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
