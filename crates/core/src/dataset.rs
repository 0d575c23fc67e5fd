//! Dataset storage: hash-partitioned LSM primary indexes plus LSM-ified
//! secondary indexes, with index maintenance on every mutation (paper
//! Section III items 5 and 8, Figure 2).
//!
//! A dataset's records live in P partitions; each partition is a primary
//! LSM B+ tree keyed by the encoded primary key, holding the full record.
//! Secondary indexes are partition-local: B+ tree indexes map
//! `(secondary key, pk)` → ∅; R-tree indexes map MBRs to encoded PKs with a
//! companion deleted-key B+ tree; keyword indexes map tokens to PKs. Index
//! maintenance fetches the old record on upsert/delete and retracts its
//! entries — the "details required to ... make them recoverable, and make
//! them concurrent" that §V-B insists real systems must pay for.

use crate::catalog::{DatasetDef, IndexDef, IndexKind};
use crate::error::{CoreError, Result};
use crate::node::Node;
use asterix_adm::binary::{decode, decode_key, encode, encode_key};
use asterix_adm::schema_encode::{decode_with_schema, encode_with_schema};
use asterix_adm::types::ObjectType;
use asterix_adm::{Point, Rectangle, Value};
use asterix_storage::inverted::InvertedIndex;
use asterix_storage::lsm::{LsmConfig, LsmStats, LsmTree, MergePolicy};
use asterix_storage::CompactionExec;
use asterix_storage::lsm_rtree::{LsmRTree, LsmRTreeConfig};
use std::ops::Bound;
use std::sync::Arc;

/// Tuning for dataset partitions.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Memory-component budget per LSM index per partition.
    pub mem_budget: usize,
    pub merge_policy: MergePolicy,
    /// Apply the §V-B point-MBR optimization in R-tree indexes.
    pub rtree_point_optimize: bool,
    /// Compress record values in primary-index disk components (§VII's
    /// storage compression).
    pub compress: bool,
    /// Background compaction executor. `None` (the default) keeps merges
    /// on the flushing thread — the pre-background behaviour; `Some` moves
    /// them onto the runtime's morsel worker pool.
    pub compaction: Option<CompactionExec>,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            mem_budget: 4 << 20,
            merge_policy: MergePolicy::Prefix {
                max_mergable_bytes: 32 << 20,
                max_tolerance_components: 4,
            },
            rtree_point_optimize: true,
            compress: false,
            compaction: None,
        }
    }
}

enum Secondary {
    BTree { def: IndexDef, tree: LsmTree },
    RTree { def: IndexDef, tree: LsmRTree },
    Keyword { def: IndexDef, index: InvertedIndex },
}

impl Secondary {
    fn def(&self) -> &IndexDef {
        match self {
            Secondary::BTree { def, .. }
            | Secondary::RTree { def, .. }
            | Secondary::Keyword { def, .. } => def,
        }
    }

    fn stats(&self) -> LsmStats {
        match self {
            Secondary::BTree { tree, .. } => tree.stats(),
            Secondary::RTree { tree, .. } => tree.stats(),
            Secondary::Keyword { index, .. } => index.stats(),
        }
    }
}

/// Every index of a partition, whatever its kind, is built through here:
/// the one place the configured background executor is installed.
fn with_compaction<T>(index: T, cfg: &StorageConfig, install: fn(&T, CompactionExec)) -> T {
    if let Some(exec) = &cfg.compaction {
        install(&index, exec.clone());
    }
    index
}

/// One partition of one dataset, resident on one node.
pub struct DatasetPartition {
    pub dataset: String,
    pub partition: u32,
    node: Arc<Node>,
    primary_key: Vec<String>,
    /// Declared record type: enables the schema-compressed record layout
    /// (declared fields stored positionally without names — experiment E10).
    record_type: Option<ObjectType>,
    primary: LsmTree,
    secondaries: Vec<Secondary>,
}

/// Navigates a field path inside a record.
pub fn field_path<'a>(record: &'a Value, path: &[String]) -> &'a Value {
    let mut cur = record;
    for p in path {
        cur = cur.field(p);
    }
    cur
}

/// Extracts and encodes the primary key of a record.
pub fn extract_pk(record: &Value, pk_fields: &[String]) -> Result<Vec<u8>> {
    let mut parts = Vec::with_capacity(pk_fields.len());
    for f in pk_fields {
        let v = record.field(f);
        if v.is_unknown() {
            return Err(CoreError::Constraint(format!(
                "record has no value for primary key field {f:?}"
            )));
        }
        parts.push(v.clone());
    }
    Ok(encode_key(&parts))
}

impl DatasetPartition {
    /// Creates the partition's indexes on `node`.
    pub fn create(
        def: &DatasetDef,
        partition: u32,
        node: Arc<Node>,
        cfg: &StorageConfig,
    ) -> Result<DatasetPartition> {
        Self::create_typed(def, None, partition, node, cfg)
    }

    /// Creates the partition with a declared record type for the compact
    /// schema-based layout.
    pub fn create_typed(
        def: &DatasetDef,
        record_type: Option<ObjectType>,
        partition: u32,
        node: Arc<Node>,
        cfg: &StorageConfig,
    ) -> Result<DatasetPartition> {
        let mk_lsm = |suffix: &str| LsmConfig {
            name: format!("{}_p{partition}_{suffix}", def.name),
            mem_budget: cfg.mem_budget,
            merge_policy: cfg.merge_policy,
            bloom: true,
            compress_values: cfg.compress,
        };
        let primary = with_compaction(
            LsmTree::new(Arc::clone(&node.cache), mk_lsm("pri")),
            cfg,
            LsmTree::set_executor,
        );
        let mut secondaries = Vec::new();
        for idx in &def.indexes {
            secondaries.push(Self::build_secondary(idx, &def.name, partition, &node, cfg));
        }
        Ok(DatasetPartition {
            dataset: def.name.clone(),
            partition,
            node,
            primary_key: def.primary_key().to_vec(),
            record_type,
            primary,
            secondaries,
        })
    }

    fn build_secondary(
        idx: &IndexDef,
        dataset: &str,
        partition: u32,
        node: &Arc<Node>,
        cfg: &StorageConfig,
    ) -> Secondary {
        let name = format!("{dataset}_p{partition}_{}", idx.name);
        let cache = Arc::clone(&node.cache);
        // secondary entries carry no values to compress, and are range-probed,
        // so blooms would not help either
        let lsm = |name| LsmConfig {
            name,
            mem_budget: cfg.mem_budget,
            merge_policy: cfg.merge_policy,
            bloom: false,
            compress_values: false,
        };
        match idx.kind {
            IndexKind::BTree => Secondary::BTree {
                def: idx.clone(),
                tree: with_compaction(LsmTree::new(cache, lsm(name)), cfg, LsmTree::set_executor),
            },
            IndexKind::RTree => {
                let config = LsmRTreeConfig {
                    name,
                    mem_budget: cfg.mem_budget,
                    merge_policy: cfg.merge_policy,
                    point_optimize: cfg.rtree_point_optimize,
                };
                Secondary::RTree {
                    def: idx.clone(),
                    tree: with_compaction(
                        LsmRTree::new(cache, config),
                        cfg,
                        LsmRTree::set_executor,
                    ),
                }
            }
            IndexKind::Keyword => Secondary::Keyword {
                def: idx.clone(),
                index: with_compaction(
                    InvertedIndex::with_config(cache, lsm(name)),
                    cfg,
                    InvertedIndex::set_executor,
                ),
            },
        }
    }

    /// Adds a secondary index to an existing partition, backfilling it from
    /// the primary index.
    pub fn add_index(&mut self, idx: &IndexDef, cfg: &StorageConfig) -> Result<()> {
        let mut sec = Self::build_secondary(idx, &self.dataset.clone(), self.partition, &self.node.clone(), cfg);
        for (pk, raw) in self.primary.scan()? {
            let record = self.decode_record(&raw)?;
            Self::index_insert(&mut sec, &record, &pk)?;
        }
        self.secondaries.push(sec);
        Ok(())
    }

    /// The node hosting this partition.
    pub fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// Live record count.
    pub fn count(&self) -> Result<usize> {
        Ok(self.primary.count()?)
    }

    fn encode_record(&self, record: &Value) -> Result<Vec<u8>> {
        match &self.record_type {
            Some(ty) => encode_with_schema(record, ty).map_err(CoreError::Adm),
            None => Ok(encode(record)),
        }
    }

    fn decode_record(&self, raw: &[u8]) -> Result<Value> {
        match &self.record_type {
            Some(ty) => decode_with_schema(raw, ty).map_err(CoreError::Adm),
            None => decode(raw).map_err(CoreError::Adm),
        }
    }

    /// Point lookup by encoded primary key.
    pub fn get(&self, pk: &[u8]) -> Result<Option<Value>> {
        match self.primary.get(pk)? {
            None => Ok(None),
            Some(raw) => Ok(Some(self.decode_record(&raw)?)),
        }
    }

    /// Inserts or replaces a record (already cast to the dataset type).
    /// Returns the previous record, if any.
    pub fn upsert(&mut self, record: &Value) -> Result<Option<Value>> {
        let pk = extract_pk(record, &self.primary_key)?;
        let old = self.get(&pk)?;
        if let Some(old_rec) = &old {
            for sec in &mut self.secondaries {
                Self::index_delete(sec, old_rec, &pk)?;
            }
        }
        let raw = self.encode_record(record)?;
        self.primary.upsert(pk.clone(), raw)?;
        for sec in &mut self.secondaries {
            Self::index_insert(sec, record, &pk)?;
        }
        Ok(old)
    }

    /// Deletes by encoded primary key; returns the removed record.
    pub fn delete(&mut self, pk: &[u8]) -> Result<Option<Value>> {
        let old = self.get(pk)?;
        if let Some(old_rec) = &old {
            for sec in &mut self.secondaries {
                Self::index_delete(sec, old_rec, pk)?;
            }
            self.primary.delete(pk.to_vec())?;
        }
        Ok(old)
    }

    fn index_insert(sec: &mut Secondary, record: &Value, pk: &[u8]) -> Result<()> {
        let field = field_path(record, &sec.def().field).clone();
        if field.is_unknown() {
            return Ok(()); // absent secondary keys are simply not indexed
        }
        match sec {
            Secondary::BTree { tree, .. } => {
                let pk_vals = decode_key(pk).map_err(CoreError::Adm)?;
                let mut parts = vec![field];
                parts.extend(pk_vals);
                tree.upsert(encode_key(&parts), Vec::new())?;
            }
            Secondary::RTree { tree, .. } => {
                if let Some(mbr) = spatial_mbr(&field) {
                    tree.insert(mbr, pk.to_vec())?;
                }
            }
            Secondary::Keyword { index, .. } => {
                if let Some(text) = field.as_str() {
                    let pk_vals = decode_key(pk).map_err(CoreError::Adm)?;
                    index.insert_text(text, &pk_vals)?;
                }
            }
        }
        Ok(())
    }

    fn index_delete(sec: &mut Secondary, record: &Value, pk: &[u8]) -> Result<()> {
        let field = field_path(record, &sec.def().field).clone();
        if field.is_unknown() {
            return Ok(());
        }
        match sec {
            Secondary::BTree { tree, .. } => {
                let pk_vals = decode_key(pk).map_err(CoreError::Adm)?;
                let mut parts = vec![field];
                parts.extend(pk_vals);
                tree.delete(encode_key(&parts))?;
            }
            Secondary::RTree { tree, .. } => {
                if let Some(mbr) = spatial_mbr(&field) {
                    tree.delete(&mbr, pk)?;
                }
            }
            Secondary::Keyword { index, .. } => {
                if let Some(text) = field.as_str() {
                    let pk_vals = decode_key(pk).map_err(CoreError::Adm)?;
                    index.delete_text(text, &pk_vals)?;
                }
            }
        }
        Ok(())
    }

    /// Full scan of live records in primary-key order.
    pub fn scan(&self) -> Result<Vec<Value>> {
        self.primary
            .scan()?
            .into_iter()
            .map(|(_, raw)| self.decode_record(&raw))
            .collect()
    }

    /// Records whose *leading* primary-key field lies within the bounds
    /// (`None` = open end), in key order.
    pub fn pk_range(
        &self,
        lo: Option<&Value>,
        lo_inclusive: bool,
        hi: Option<&Value>,
        hi_inclusive: bool,
    ) -> Result<Vec<Value>> {
        leading_field_range(&self.primary, lo, lo_inclusive, hi, hi_inclusive, |_, raw| {
            self.decode_record(&raw)
        })
    }

    /// Candidate PKs from a secondary B+ tree index for `[lo, hi]` on the
    /// indexed field (bounds optional/inclusive flags honored).
    pub fn btree_index_pks(
        &self,
        index: &str,
        lo: Option<&Value>,
        lo_inclusive: bool,
        hi: Option<&Value>,
        hi_inclusive: bool,
    ) -> Result<Vec<Vec<u8>>> {
        let sec = self.find_index(index)?;
        let Secondary::BTree { tree, .. } = sec else {
            return Err(CoreError::Catalog(format!("index {index:?} is not a B+ tree")));
        };
        // entries are `(secondary key, pk...)`: what follows the key is the pk
        leading_field_range(tree, lo, lo_inclusive, hi, hi_inclusive, |pk_parts, _| {
            Ok(encode_key(pk_parts))
        })
    }

    /// Candidate PKs from an R-tree index intersecting `query`.
    pub fn rtree_index_pks(&self, index: &str, query: &Rectangle) -> Result<Vec<Vec<u8>>> {
        let sec = self.find_index(index)?;
        let Secondary::RTree { tree, .. } = sec else {
            return Err(CoreError::Catalog(format!("index {index:?} is not an R-tree")));
        };
        Ok(tree.search(query)?.into_iter().map(|e| e.key).collect())
    }

    /// Candidate PKs from a keyword index for a conjunctive keyword query.
    pub fn keyword_index_pks(&self, index: &str, query: &str) -> Result<Vec<Vec<u8>>> {
        let sec = self.find_index(index)?;
        let Secondary::Keyword { index: inv, .. } = sec else {
            return Err(CoreError::Catalog(format!("index {index:?} is not a keyword index")));
        };
        Ok(inv
            .search_all(query)?
            .into_iter()
            .map(|pk_vals| encode_key(&pk_vals))
            .collect())
    }

    /// Fetches records for candidate PKs. When `sort_pks` is set the PKs are
    /// sorted first — "sorting object references ... before fetching data
    /// objects" (§V-B, ref \[26\]; experiment E7 measures the difference).
    pub fn fetch_records(&self, mut pks: Vec<Vec<u8>>, sort_pks: bool) -> Result<Vec<Value>> {
        if sort_pks {
            pks.sort_by(|a, b| asterix_adm::binary::compare_keys(a, b));
            pks.dedup_by(|a, b| asterix_adm::binary::compare_keys(a, b).is_eq());
        }
        let mut out = Vec::with_capacity(pks.len());
        for pk in pks {
            if let Some(rec) = self.get(&pk)? {
                out.push(rec);
            }
        }
        Ok(out)
    }

    fn find_index(&self, name: &str) -> Result<&Secondary> {
        self.secondaries
            .iter()
            .find(|s| s.def().name == name)
            .ok_or_else(|| CoreError::Catalog(format!("unknown index {name:?}")))
    }

    /// Forces all LSM memory components of this partition to disk.
    pub fn flush(&mut self) -> Result<()> {
        self.primary.flush()?;
        for s in &mut self.secondaries {
            match s {
                Secondary::BTree { tree, .. } => tree.flush()?,
                Secondary::RTree { tree, .. } => tree.flush()?,
                Secondary::Keyword { index, .. } => index.flush()?,
            }
        }
        Ok(())
    }

    /// Primary-index LSM statistics.
    pub fn primary_stats(&self) -> LsmStats {
        self.primary.stats()
    }

    /// LSM statistics of a secondary index of any kind.
    pub fn index_stats(&self, index: &str) -> Result<LsmStats> {
        Ok(self.find_index(index)?.stats())
    }

    /// Encoded size of one record under this partition's layout (E10's
    /// storage metric).
    pub fn encoded_len(&self, record: &Value) -> Result<usize> {
        Ok(self.encode_record(record)?.len())
    }
}

/// Walks the entries of `tree` whose leading key part lies within the bounds,
/// handing `each` the remaining key parts and the value. The upper bound is
/// on a key *prefix*, which has no byte-key form (a prefix sorts before every
/// key it starts), so the walk starts at `lo` and stops reading at the first
/// entry past `hi`: it touches the matches, not the rest of the index.
fn leading_field_range<T>(
    tree: &LsmTree,
    lo: Option<&Value>,
    lo_inclusive: bool,
    hi: Option<&Value>,
    hi_inclusive: bool,
    mut each: impl FnMut(&[Value], Vec<u8>) -> Result<T>,
) -> Result<Vec<T>> {
    use std::cmp::Ordering;
    // the 1-part prefix key sorts directly before every key starting with it
    let lo_key = lo.map(|v| encode_key(std::slice::from_ref(v)));
    let lo_bound = lo_key.as_deref().map_or(Bound::Unbounded, Bound::Included);
    let mut out = Vec::new();
    for entry in tree.range_iter(lo_bound, Bound::Unbounded)? {
        let (key, value) = entry?;
        let parts = decode_key(&key).map_err(CoreError::Adm)?;
        let (lead, rest) = parts.split_first().ok_or_else(|| {
            CoreError::Storage(asterix_storage::StorageError::Corrupt("empty index key".into()))
        })?;
        if let Some(hi) = hi {
            let c = asterix_adm::compare::total_cmp(lead, hi);
            if c == Ordering::Greater || (!hi_inclusive && c == Ordering::Equal) {
                break;
            }
        }
        if let (Some(lo), false) = (lo, lo_inclusive) {
            if asterix_adm::compare::total_cmp(lead, lo) == Ordering::Equal {
                continue;
            }
        }
        out.push(each(rest, value)?);
    }
    Ok(out)
}

/// The MBR of a spatial value (point or rectangle).
pub fn spatial_mbr(v: &Value) -> Option<Rectangle> {
    match v {
        Value::Point(p) => Some(p.to_mbr()),
        Value::Rectangle(r) => Some(*r),
        _ => None,
    }
}

/// Hash-selects the partition for a primary key.
pub fn partition_of(pk: &[u8], partitions: usize) -> u32 {
    use std::hash::{Hash, Hasher};
    let mut h = std::collections::hash_map::DefaultHasher::new();
    pk.hash(&mut h);
    (h.finish() % partitions.max(1) as u64) as u32
}

/// A point helper for tests.
pub fn pt(x: f64, y: f64) -> Value {
    Value::Point(Point::new(x, y))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::{DatasetKind, IndexDef};
    use asterix_adm::parse::parse_value;

    fn tmp_node() -> (Arc<Node>, std::path::PathBuf) {
        let p = std::env::temp_dir().join(format!(
            "asterix-core-ds-{}-{}",
            std::process::id(),
            std::time::SystemTime::now()
                .duration_since(std::time::UNIX_EPOCH)
                .unwrap()
                .as_nanos()
        ));
        std::fs::create_dir_all(&p).unwrap();
        (Node::open(0, &p, 256).unwrap(), p)
    }

    fn def_with_indexes() -> DatasetDef {
        DatasetDef {
            name: "Msgs".into(),
            type_name: "any".into(),
            kind: DatasetKind::Internal { primary_key: vec!["id".into()] },
            indexes: vec![
                IndexDef { name: "byAuthor".into(), field: vec!["author".into()], kind: IndexKind::BTree },
                IndexDef { name: "byLoc".into(), field: vec!["loc".into()], kind: IndexKind::RTree },
                IndexDef { name: "byText".into(), field: vec!["text".into()], kind: IndexKind::Keyword },
            ],
        }
    }

    fn record(id: i64, author: i64, x: f64, text: &str) -> Value {
        let mut v = parse_value(&format!(
            r#"{{"id": {id}, "author": {author}, "text": "{text}"}}"#
        ))
        .unwrap();
        v.as_object_mut().unwrap().set("loc", pt(x, x));
        v
    }

    fn setup() -> (DatasetPartition, std::path::PathBuf) {
        let (node, p) = tmp_node();
        let part =
            DatasetPartition::create(&def_with_indexes(), 0, node, &StorageConfig::default())
                .unwrap();
        (part, p)
    }

    #[test]
    fn upsert_get_delete_roundtrip() {
        let (mut part, p) = setup();
        for i in 0..100 {
            part.upsert(&record(i, i % 5, i as f64, &format!("hello msg {i}"))).unwrap();
        }
        assert_eq!(part.count().unwrap(), 100);
        let pk = encode_key(&[Value::Int(42)]);
        let got = part.get(&pk).unwrap().unwrap();
        assert_eq!(got.field("author"), &Value::Int(2));
        let removed = part.delete(&pk).unwrap().unwrap();
        assert_eq!(removed.field("id"), &Value::Int(42));
        assert!(part.get(&pk).unwrap().is_none());
        assert_eq!(part.count().unwrap(), 99);
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn btree_index_maintained_on_update() {
        let (mut part, p) = setup();
        for i in 0..50 {
            part.upsert(&record(i, i % 5, 0.0, "x")).unwrap();
        }
        let pks = part
            .btree_index_pks("byAuthor", Some(&Value::Int(2)), true, Some(&Value::Int(2)), true)
            .unwrap();
        assert_eq!(pks.len(), 10);
        // move record 2 to author 99
        part.upsert(&record(2, 99, 0.0, "x")).unwrap();
        let pks = part
            .btree_index_pks("byAuthor", Some(&Value::Int(2)), true, Some(&Value::Int(2)), true)
            .unwrap();
        assert_eq!(pks.len(), 9, "old entry retracted");
        let pks = part
            .btree_index_pks("byAuthor", Some(&Value::Int(99)), true, Some(&Value::Int(99)), true)
            .unwrap();
        assert_eq!(pks.len(), 1);
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn btree_index_range_bounds() {
        let (mut part, p) = setup();
        for i in 0..20 {
            part.upsert(&record(i, i, 0.0, "x")).unwrap();
        }
        let n = |lo: Option<i64>, li: bool, hi: Option<i64>, hi_i: bool| {
            part.btree_index_pks(
                "byAuthor",
                lo.map(Value::Int).as_ref(),
                li,
                hi.map(Value::Int).as_ref(),
                hi_i,
            )
            .unwrap()
            .len()
        };
        assert_eq!(n(Some(5), true, Some(10), true), 6);
        assert_eq!(n(Some(5), false, Some(10), false), 4);
        assert_eq!(n(None, true, Some(3), true), 4);
        assert_eq!(n(Some(18), true, None, true), 2);
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn rtree_index_search_and_retract() {
        let (mut part, p) = setup();
        for i in 0..30 {
            part.upsert(&record(i, 0, i as f64, "x")).unwrap();
        }
        let q = Rectangle::new(Point::new(9.5, 9.5), Point::new(15.5, 15.5));
        let pks = part.rtree_index_pks("byLoc", &q).unwrap();
        assert_eq!(pks.len(), 6, "points 10..=15");
        // delete one
        part.delete(&encode_key(&[Value::Int(12)])).unwrap();
        let pks = part.rtree_index_pks("byLoc", &q).unwrap();
        assert_eq!(pks.len(), 5);
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn keyword_index_search() {
        let (mut part, p) = setup();
        part.upsert(&record(1, 0, 0.0, "big data management")).unwrap();
        part.upsert(&record(2, 0, 0.0, "big active data")).unwrap();
        part.upsert(&record(3, 0, 0.0, "little tiny data")).unwrap();
        let pks = part.keyword_index_pks("byText", "big data").unwrap();
        assert_eq!(pks.len(), 2);
        let recs = part.fetch_records(pks, true).unwrap();
        assert!(recs.iter().all(|r| r.field("text").as_str().unwrap().contains("big")));
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn fetch_records_sorted_dedups() {
        let (mut part, p) = setup();
        for i in 0..10 {
            part.upsert(&record(i, 0, 0.0, "x")).unwrap();
        }
        let pk = |i: i64| encode_key(&[Value::Int(i)]);
        let recs = part
            .fetch_records(vec![pk(5), pk(3), pk(5), pk(1)], true)
            .unwrap();
        assert_eq!(recs.len(), 3, "duplicates dropped");
        assert_eq!(recs[0].field("id"), &Value::Int(1), "pk order");
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn missing_secondary_key_is_not_indexed() {
        let (mut part, p) = setup();
        let v = parse_value(r#"{"id": 1, "text": "no author or loc"}"#).unwrap();
        part.upsert(&v).unwrap();
        assert_eq!(part.count().unwrap(), 1);
        let pks = part
            .btree_index_pks("byAuthor", None, true, None, true)
            .unwrap();
        assert!(pks.is_empty());
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn add_index_backfills() {
        let (node, p) = tmp_node();
        let mut def = def_with_indexes();
        def.indexes.clear();
        let mut part =
            DatasetPartition::create(&def, 0, node, &StorageConfig::default()).unwrap();
        for i in 0..20 {
            part.upsert(&record(i, i % 4, 0.0, "x")).unwrap();
        }
        part.add_index(
            &IndexDef { name: "byAuthor".into(), field: vec!["author".into()], kind: IndexKind::BTree },
            &StorageConfig::default(),
        )
        .unwrap();
        let pks = part
            .btree_index_pks("byAuthor", Some(&Value::Int(1)), true, Some(&Value::Int(1)), true)
            .unwrap();
        assert_eq!(pks.len(), 5);
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn rejects_record_without_pk() {
        let (mut part, p) = setup();
        let v = parse_value(r#"{"author": 3}"#).unwrap();
        assert!(matches!(part.upsert(&v), Err(CoreError::Constraint(_))));
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn partition_of_is_stable() {
        let pk = encode_key(&[Value::Int(42)]);
        assert_eq!(partition_of(&pk, 4), partition_of(&pk, 4));
        assert!(partition_of(&pk, 1) == 0);
    }
}
