//! HTAP shadowing — the Couchbase Analytics architecture of paper Figure 7.
//!
//! "Data and data changes in the Couchbase front-end data store are streamed
//! in real time into the Couchbase Analytics backend, where it can then be
//! sliced and diced in its natural (application schema) form using SQL++."
//!
//! [`FrontEndStore`] simulates the operational document store (the Data
//! Service): a KV store of JSON documents with a DCP-like totally-ordered
//! mutation sequence. A DCP feed ([`crate::feeds::Feed::shadow`]) pulls the
//! stream after its durable frontier and applies it to an analytics
//! dataset — the near-real-time copy and the performance isolation
//! experiment E6 measures (analytics queries never touch the front-end
//! store).

use asterix_adm::Value;
use asterix_storage::lock_order::Mutex;
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

/// Maps a KV key to a primary-key value: integers parse as ints, everything
/// else is a string key.
pub fn key_to_pk(key: &str) -> Value {
    match key.parse::<i64>() {
        Ok(i) => Value::Int(i),
        Err(_) => Value::from(key),
    }
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
    fn key_mapping() {
        assert_eq!(key_to_pk("42"), Value::Int(42));
        assert_eq!(key_to_pk("user::42"), Value::from("user::42"));
    }
}
