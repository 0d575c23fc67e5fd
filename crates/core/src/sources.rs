//! Bridges from stored datasets to the Algebricks compiler's
//! [`DataSource`] abstraction — including the index access paths with the
//! §V-B sorted-PK fetch (experiment E7).

use crate::catalog::DatasetDef;
use crate::dataset::{partition_of, sort_pks, DatasetPartition, RecordSchema};
use crate::error::{CoreError, Result as CoreResult};
use crate::external::ExternalConfig;
use asterix_adm::types::{ObjectType, TypeRegistry};
use asterix_adm::binary::encode_key;
use asterix_adm::{ColumnBatch, Projection};
use asterix_algebricks::error::{AlgebricksError, Result as AlgResult};
use asterix_algebricks::source::{record_columns, AccessPath, DataSource, IndexInfo, IndexRange, KeyRange};
use asterix_hyracks::job::{FnSource, Produced, SourceFactory, SourceStream};
use asterix_storage::lock_order::RwLock;
use std::sync::Arc;

/// The runtime handle on one dataset: its definition plus its partitions —
/// everything a write needs to find, in one place.
pub struct DatasetRuntime {
    pub def: DatasetDef,
    /// How records are validated, cast and encoded on their way in.
    pub schema: Arc<RecordSchema>,
    pub partitions: Vec<Arc<RwLock<DatasetPartition>>>,
}

impl DatasetRuntime {
    /// Total live records across partitions.
    pub fn count(&self) -> CoreResult<usize> {
        let mut n = 0;
        for p in &self.partitions {
            n += p.read().count()?;
        }
        Ok(n)
    }

    /// Flushes every partition's memory components.
    pub fn flush(&self) -> CoreResult<()> {
        for p in &self.partitions {
            p.write().flush()?;
        }
        Ok(())
    }
}

/// [`DataSource`] over an internal dataset.
pub struct DatasetSource {
    pub runtime: Arc<DatasetRuntime>,
}

impl DatasetSource {
    /// Wraps a dataset runtime.
    pub fn new(runtime: Arc<DatasetRuntime>) -> Arc<Self> {
        Arc::new(DatasetSource { runtime })
    }
}

fn no_tuples() -> SourceStream {
    Box::new(std::iter::empty())
}

/// Records a source reads per acquisition of a partition's read lock: a
/// batch of columns.
pub const SCAN_BATCH: usize = asterix_adm::BATCH_ROWS;

/// What a cursor has left to read of its partition.
#[derive(Clone)]
enum Reading {
    /// The primary index in key order: the records whose leading key field
    /// lies in `range`, past the key `after`.
    Range { range: KeyRange, after: Option<Vec<u8>> },
    /// A probe of secondary index `index`, not made yet: it yields the keys
    /// to fetch, in key order when `sorted`.
    Probe { index: String, range: IndexRange, sorted: bool },
    /// The records stored under `pks[next..]`.
    Keys { pks: Vec<Vec<u8>>, next: usize },
    Done,
}

/// One partition's records as a stream of column batches — whatever the
/// access path: a point get is a batch of one. The partition's read lock is
/// taken to read a batch and released before it is handed out, so a cursor
/// that is parked — or dropped half way — holds nothing a writer waits for,
/// and never more than a batch of records. What it yields is consistent
/// batch by batch, not across them.
struct Cursor {
    partition: Arc<RwLock<DatasetPartition>>,
    /// What is read of each record, a column each: the top-level fields the
    /// query names (the record whole if none), resolved against the
    /// dataset's layout once.
    wanted: Arc<Projection>,
    reading: Reading,
}

impl Cursor {
    /// Reads the next batch and moves `reading` past it.
    fn read(&mut self) -> CoreResult<ColumnBatch> {
        let part = self.partition.read();
        // Checked batch by batch: a node killed under a running scan ends it
        // with the *typed* transient error the instance retry policy re-runs
        // the query for, not with a short answer.
        part.node().check_alive()?;
        if let Reading::Probe { index, range, sorted } = &self.reading {
            let mut pks = part.index_pks(index, range)?;
            if *sorted {
                sort_pks(&mut pks);
            }
            self.reading = Reading::Keys { pks, next: 0 };
        }
        match &mut self.reading {
            Reading::Range { range, after } => {
                let (batch, last) = part.read_range(range, after.as_deref(), &self.wanted, SCAN_BATCH)?;
                match last {
                    Some(key) => *after = Some(key),
                    None => self.reading = Reading::Done,
                }
                Ok(batch)
            }
            Reading::Keys { pks, next } => {
                let upto = pks.len().min(*next + SCAN_BATCH);
                let batch = part.read_keys(&pks[*next..upto], &self.wanted)?;
                *next = upto;
                if upto == pks.len() {
                    self.reading = Reading::Done;
                }
                Ok(batch)
            }
            Reading::Probe { .. } | Reading::Done => Ok(ColumnBatch::default()),
        }
    }
}

impl Iterator for Cursor {
    type Item = asterix_hyracks::Result<Produced>;

    fn next(&mut self) -> Option<Self::Item> {
        while !matches!(self.reading, Reading::Done) {
            match self.read() {
                Ok(batch) if batch.is_empty() => {}
                Ok(batch) => return Some(Ok(Produced::Batch(batch))),
                Err(e) => {
                    self.reading = Reading::Done;
                    return Some(Err(match e {
                        CoreError::NodeDown(id) => asterix_hyracks::HyracksError::NodeDown(id),
                        e => asterix_hyracks::HyracksError::Eval(e.to_string()),
                    }));
                }
            }
        }
        None
    }
}

/// The one shape every access path of a dataset has: per partition, a
/// [`Cursor`] over `reading` yielding `fields` of the records, a column each.
fn records_factory(
    runtime: &DatasetRuntime,
    fields: &[String],
    reading: Reading,
) -> Arc<dyn SourceFactory> {
    let partitions = runtime.partitions.clone();
    let wanted = Arc::new(runtime.schema.resolve(fields));
    Arc::new(move |p: usize| {
        let partition = partitions
            .get(p)
            .ok_or_else(|| asterix_hyracks::HyracksError::Eval(format!("no partition {p}")))?;
        Ok(Box::new(Cursor {
            partition: Arc::clone(partition),
            wanted: Arc::clone(&wanted),
            reading: reading.clone(),
        }) as SourceStream)
    })
}

impl DataSource for DatasetSource {
    fn name(&self) -> &str {
        &self.runtime.def.name
    }

    fn partitions(&self) -> usize {
        self.runtime.partitions.len()
    }

    fn scan(&self, fields: &[String]) -> AlgResult<Arc<dyn SourceFactory>> {
        let all = Reading::Range { range: KeyRange::default(), after: None };
        Ok(records_factory(&self.runtime, fields, all))
    }

    fn indexes(&self) -> Vec<IndexInfo> {
        self.runtime.def.indexes.clone()
    }

    fn primary_key(&self) -> Vec<Vec<String>> {
        self.runtime.def.primary_key().iter().map(|f| vec![f.clone()]).collect()
    }

    fn index_scan(&self, path: &AccessPath, fields: &[String]) -> AlgResult<Arc<dyn SourceFactory>> {
        let range = path.range.clone();
        if range.is_empty() {
            return Ok(Arc::new(|_p: usize| Ok(no_tuples())));
        }
        if path.kind.is_none() {
            return Ok(match range {
                IndexRange::Point(key) => {
                    // The write path placed the record by these same bytes
                    // (`encode_key` normalizes `5.0` to `5`), so only the
                    // owning partition can hold it; the others answer
                    // without taking their lock or touching storage.
                    let key = encode_key(&key);
                    let owner = partition_of(&key, self.runtime.partitions.len()) as usize;
                    let owning =
                        records_factory(&self.runtime, fields, Reading::Keys { pks: vec![key], next: 0 });
                    Arc::new(move |p: usize| if p == owner { owning.open(p) } else { Ok(no_tuples()) })
                }
                IndexRange::Range(range) => {
                    records_factory(&self.runtime, fields, Reading::Range { range, after: None })
                }
                IndexRange::Spatial(_) | IndexRange::Keyword(_) => {
                    return Err(AlgebricksError::Plan(format!(
                        "dataset {} has no {range} probe on its primary index",
                        self.name()
                    )))
                }
            });
        }
        // verify the index exists up front for a clean compile-time error
        if !self.runtime.def.indexes.iter().any(|i| i.name == path.index) {
            return Err(AlgebricksError::Plan(format!(
                "dataset {} has no index {:?}",
                self.name(),
                path.index
            )));
        }
        let probe = Reading::Probe { index: path.index.clone(), range, sorted: path.sorted };
        Ok(records_factory(&self.runtime, fields, probe))
    }
}

/// [`DataSource`] over an external `localfs` dataset (Figure 3(b)).
pub struct ExternalSource {
    pub name: String,
    pub config: ExternalConfig,
    pub record_type: Option<ObjectType>,
    pub registry: TypeRegistry,
}

impl DataSource for ExternalSource {
    fn name(&self) -> &str {
        &self.name
    }

    fn partitions(&self) -> usize {
        1
    }

    fn scan(&self, fields: &[String]) -> AlgResult<Arc<dyn SourceFactory>> {
        let cfg = self.config.clone();
        let ty = self.record_type.clone();
        let registry = self.registry.clone();
        let fields = fields.to_vec();
        Ok(Arc::new(FnSource(move |_p: usize| {
            let records = crate::external::read_external(&cfg, ty.as_ref(), &registry)
                .map_err(|e| asterix_hyracks::HyracksError::Eval(e.to_string()))?;
            let fields = fields.clone();
            Ok(Box::new(records.into_iter().map(move |r| Ok(record_columns(r, &fields)))) as _)
        })))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DatasetKind;
    use asterix_algebricks::source::IndexKind;
    use crate::dataset::{Origin, StorageConfig};
    use crate::node::Node;
    use asterix_adm::parse::parse_value;
    use asterix_adm::Value;
    use asterix_storage::lock_order::Level;

    fn tuples(stream: SourceStream) -> Vec<asterix_hyracks::Tuple> {
        let mut out = Vec::new();
        for produced in stream {
            match produced.unwrap() {
                Produced::Tuple(t) => out.push(t),
                Produced::Batch(batch) => out.extend(batch.into_rows()),
            }
        }
        out
    }

    fn runtime(n_parts: usize) -> (Arc<DatasetRuntime>, std::path::PathBuf) {
        let root = std::env::temp_dir().join(format!(
            "asterix-src-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&root).unwrap();
        let def = DatasetDef {
            id: 0,
            name: "T".into(),
            type_name: "any".into(),
            kind: DatasetKind::Internal { primary_key: vec!["id".into()] },
            indexes: vec![IndexInfo {
                name: "byV".into(),
                field: vec!["v".into()],
                kind: IndexKind::BTree,
            }],
        };
        let (schema, mut partitions) = (RecordSchema::keyed_by_id(), Vec::new());
        for p in 0..n_parts {
            let node = Node::open(p, root.join(format!("n{p}")), 64, None).unwrap();
            let cfg = StorageConfig::default();
            let part = DatasetPartition::new(&def, Arc::clone(&schema), p as u32, node, &cfg, Origin::Created);
            partitions.push(Arc::new(RwLock::ranked(Level::LsmComponent, part.unwrap())));
        }
        (Arc::new(DatasetRuntime { def, schema, partitions }), root)
    }

    #[test]
    fn scan_covers_all_partitions() {
        let (rt, root) = runtime(3);
        for i in 0..30 {
            let rec = parse_value(&format!(r#"{{"id": {i}, "v": {}}}"#, i % 5)).unwrap();
            let pk = crate::dataset::extract_pk(&rec, &["id".into()]).unwrap();
            let p = crate::dataset::partition_of(&pk, 3) as usize;
            rt.partitions[p].write().upsert(&rec).unwrap();
        }
        let src = DatasetSource::new(Arc::clone(&rt));
        let factory = src.scan(&[]).unwrap();
        let total: usize = (0..3).map(|p| tuples(factory.open(p).unwrap()).len()).sum();
        assert_eq!(total, 30);
        assert_eq!(rt.count().unwrap(), 30);
        let _ = std::fs::remove_dir_all(root);
    }

    #[test]
    fn index_scan_filters_by_range() {
        let (rt, root) = runtime(2);
        for i in 0..40 {
            let rec = parse_value(&format!(r#"{{"id": {i}, "v": {}}}"#, i % 10)).unwrap();
            let pk = crate::dataset::extract_pk(&rec, &["id".into()]).unwrap();
            let p = crate::dataset::partition_of(&pk, 2) as usize;
            rt.partitions[p].write().upsert(&rec).unwrap();
        }
        let src = DatasetSource::new(Arc::clone(&rt));
        let by_v = |range| AccessPath { index: "byV".into(), kind: Some(IndexKind::BTree), range, sorted: true };
        let factory = src
            .index_scan(
                &by_v(IndexRange::Range(KeyRange {
                    lo: Some(Value::Int(3)),
                    lo_inclusive: true,
                    hi: Some(Value::Int(4)),
                    hi_inclusive: true,
                })),
                &[],
            )
            .unwrap();
        let mut hits = 0;
        for p in 0..2 {
            for t in tuples(factory.open(p).unwrap()) {
                let v = t[0].field("v").as_i64().unwrap();
                assert!((3..=4).contains(&v));
                hits += 1;
            }
        }
        assert_eq!(hits, 8, "v in {{3,4}} of 0..10 over 40 records");
        let nope = AccessPath { index: "nope".into(), ..by_v(IndexRange::Keyword("x".into())) };
        assert!(src.index_scan(&nope, &[]).is_err());
        let _ = std::fs::remove_dir_all(root);
    }
}
