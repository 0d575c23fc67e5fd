//! Dataset storage: hash-partitioned LSM primary indexes plus LSM-ified
//! secondary indexes, with index maintenance on every mutation (paper
//! Section III items 5 and 8, Figure 2).
//!
//! A dataset's records live in P partitions; each partition is a primary
//! LSM B+ tree keyed by the encoded primary key, holding the full record.
//! Secondary indexes are partition-local, and every one of them is an LSM
//! B+ tree: they differ only in the entries one function, [`entries`],
//! makes of a record's indexed field — `[field][pk]` → ∅ for a B+ tree
//! index, `[Hilbert position of the MBR's centre][pk]` → the MBR for an
//! R-tree index ([`spatial`]), and `[token][pk]` → ∅ for each distinct token
//! of a keyword index ([`inverted`]). An upsert or a delete fetches the old
//! record and retracts its entries — the "details required to ... make them
//! recoverable, and make them concurrent" that §V-B insists real systems
//! must pay for — and a probe, [`DatasetPartition::index_pks`], is the one
//! read of a secondary index.
//!
//! A partition seals its indexes together — all of them, when one is past
//! its memory budget and none still holds a sealed component — and flushes
//! what it sealed once its writers are done, the secondaries first and the
//! primary last. After a crash every secondary is therefore durable at or
//! ahead of its primary, whose flushed LSN decides what is replayed: a
//! secondary ahead takes the replayed operations again, which are
//! idempotent (DESIGN.md, "Durability").

use crate::catalog::DatasetDef;
use crate::error::{CoreError, Result};
use crate::node::{LogPin, Node};
use asterix_algebricks::source::{IndexInfo, IndexKind, IndexRange, KeyRange};
use asterix_adm::binary::{encode_key, key_prefix_end, prepend_key_part, strip_key_part};
use asterix_adm::types::{ObjectType, TypeRegistry};
use asterix_adm::validate::cast_object;
use asterix_adm::{BatchBuilder, ColumnBatch, Point, Projection, RecordLayout, Value};
use asterix_storage::btree::LeafShape;
use asterix_storage::lsm::{Entry, LsmConfig, LsmReader, LsmStats, LsmTree, MergePolicy, Projected};
use asterix_storage::wal::Lsn;
use asterix_storage::{inverted, spatial, CompactionExec, StorageError};
use std::borrow::Cow;
use std::collections::HashMap;
use std::ops::Bound;
use std::sync::atomic::Ordering;
use std::sync::Arc;

/// Tuning for dataset partitions.
#[derive(Debug, Clone)]
pub struct StorageConfig {
    /// Memory-component budget per LSM index per partition.
    pub mem_budget: usize,
    pub merge_policy: MergePolicy,
}

impl Default for StorageConfig {
    fn default() -> Self {
        StorageConfig {
            mem_budget: 4 << 20,
            merge_policy: MergePolicy::Prefix {
                max_mergable_bytes: 32 << 20,
                max_tolerance_components: 4,
            },
        }
    }
}

/// What a dataset's records are checked against and stored as: its declared
/// record type with a snapshot of the types that type's fields name. Built
/// once when the dataset is opened and shared by its runtime and partitions —
/// none of those types can change or go while the dataset is there (`DROP
/// TYPE` refuses a type that a dataset or another type names).
#[derive(Debug)]
pub struct RecordSchema {
    /// Declared record type: its fields are stored by position without
    /// their names (experiment E10).
    record_type: ObjectType,
    registry: TypeRegistry,
    /// How a stored record is encoded and comes apart into cells: what the
    /// primary index's disk components keep column by column, and what a
    /// reader of some of a record's fields names them by.
    layout: Arc<RecordLayout>,
}

impl RecordSchema {
    pub fn new(record_type: ObjectType, registry: TypeRegistry) -> Arc<RecordSchema> {
        let layout = Arc::new(RecordLayout::new(&record_type));
        Arc::new(RecordSchema { record_type, registry, layout })
    }

    /// Validates `record` against the declared type and casts it into the
    /// declared shape (see [`cast_object`]): borrowed when it is in that
    /// shape already.
    pub fn cast<'a>(&self, record: &'a Value) -> Result<Cow<'a, Value>> {
        cast_object(record, &self.record_type, &self.registry).map_err(CoreError::Adm)
    }

    /// The storage encoding of a record already cast: what the primary index
    /// holds for it, and what the log carries.
    pub fn encode(&self, record: &Value) -> Result<Vec<u8>> {
        self.layout.encode(record).map_err(CoreError::Adm)
    }

    /// Reverses [`RecordSchema::encode`].
    pub fn decode(&self, raw: &[u8]) -> Result<Value> {
        self.layout.decode_row(&self.resolve(&[]), raw).map_err(CoreError::Adm)
    }

    /// What a reader of the top-level fields `fields` (all of them when
    /// `fields` is empty) reads of a stored record. Resolved once per reader,
    /// not per record.
    pub fn resolve(&self, fields: &[String]) -> Projection {
        self.layout.resolve(fields)
    }

    /// The record holding what `wanted` names of a stored one, the other
    /// fields never built: from its row, or from the cells `wanted` lists.
    fn project(&self, wanted: &Projection, stored: Projected<'_>) -> Result<Value> {
        match stored {
            Projected::Row(row) => self.layout.decode_row(wanted, row),
            Projected::Cells(cells) => self.layout.project(wanted, cells),
        }
        .map_err(CoreError::Adm)
    }
}

/// A secondary index of a partition: its definition, and the tree that
/// holds the [`entries`] of the partition's records, whatever its kind.
struct Secondary {
    def: IndexInfo,
    tree: LsmTree,
}

impl Secondary {
    /// What index upkeep reads of a record: the top-level fields where the
    /// field paths of `defs` start. The whole record if a path is empty.
    fn leading_fields<'a>(schema: &RecordSchema, defs: impl Iterator<Item = &'a IndexInfo>) -> Projection {
        let fields: Option<Vec<String>> = defs.map(|def| def.field.first().cloned()).collect();
        schema.resolve(&fields.unwrap_or_default())
    }

    /// Puts the entries of `record`, stored under `pk`.
    fn insert(&mut self, record: &Value, pk: &[u8]) -> Result<()> {
        entries(&self.def, record, pk, |key, value| Ok(self.tree.upsert(key, value)?))
    }

    /// Writes a delete marker on the key of each entry of `record`, stored
    /// under `pk`.
    fn delete(&mut self, record: &Value, pk: &[u8]) -> Result<()> {
        entries(&self.def, record, pk, |key, _| Ok(self.tree.delete(key)?))
    }
}

/// The entries secondary index `def` holds for `record`, stored under the
/// encoded primary key `pk`, each handed to `each` as `(key, value)`: a B+
/// tree index's `[field][pk]` → ∅, an R-tree index's
/// `[hilbert(centre of the MBR)][pk]` → the MBR ([`spatial::key`],
/// [`spatial::value`]) and a keyword index's `[token][pk]` → ∅ for each
/// distinct token ([`inverted::postings`]). A field the record does not
/// have, or one of a type the index does not take, yields none.
fn entries(
    def: &IndexInfo,
    record: &Value,
    pk: &[u8],
    mut each: impl FnMut(Vec<u8>, Vec<u8>) -> Result<()>,
) -> Result<()> {
    match (def.kind, field_path(record, &def.field)) {
        (_, field) if field.is_unknown() => Ok(()),
        (IndexKind::BTree, field) => each(prepend_key_part(field, pk), Vec::new()),
        (IndexKind::RTree, Value::Point(p)) => each(spatial::key(&p.to_mbr(), pk), spatial::value(&p.to_mbr())),
        (IndexKind::RTree, Value::Rectangle(mbr)) => each(spatial::key(mbr, pk), spatial::value(mbr)),
        (IndexKind::Keyword, Value::String(text)) => {
            inverted::postings(text, pk).into_iter().try_for_each(|key| each(key, Vec::new()))
        }
        _ => Ok(()),
    }
}

/// How a partition's indexes come to be.
#[derive(Clone, Copy, PartialEq, Eq)]
pub enum Origin {
    /// By DDL: empty, whatever the directory holds under their names, and
    /// the log so far declared none of their business.
    Created,
    /// At restart: as their manifests describe them. What the log holds past
    /// [`DatasetPartition::flushed_below`] is then for the caller to replay.
    Recovered,
}

/// One partition of one dataset, resident on one node.
pub struct DatasetPartition {
    pub dataset: String,
    /// The dataset's id ([`DatasetDef::id`]): how log records name it.
    pub dataset_id: u32,
    pub partition: u32,
    node: Arc<Node>,
    schema: Arc<RecordSchema>,
    primary: LsmTree,
    secondaries: Vec<Secondary>,
    /// [`Secondary::leading_fields`] of `secondaries`: all that index upkeep
    /// decodes of a stored record.
    indexed: Projection,
    /// Where the node reads the LSN of the oldest log record the primary
    /// holds only in memory (see [`Node::log_pin`]).
    log_pin: LogPin,
    /// Seals and flushes of the primary already answered with a log
    /// rotation and a log truncation.
    seals_seen: u64,
    flushes_seen: u64,
    /// A log rotation or truncation that failed after an operation had
    /// already been applied; the next call reports it, having applied
    /// nothing, so no caller loses the outcome of a write to it.
    log_error: Option<CoreError>,
    /// Where the indexes' merges run: the runtime's morsel worker pool.
    compaction: CompactionExec,
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

/// The configuration of a partition's index `name` whose leaves are
/// `leaves`: the primary index's leaf groups of records, a spatial index's
/// MBRs, or a B+-tree or keyword index's keys alone.
fn lsm_config(cfg: &StorageConfig, name: String, leaves: LeafShape) -> LsmConfig {
    LsmConfig {
        mem_budget: cfg.mem_budget,
        merge_policy: cfg.merge_policy,
        // keys alone are range-probed, so blooms would not help them; a
        // spatial search probes a candidate's key in newer components
        bloom: !matches!(leaves, LeafShape::Rows),
        leaves,
        ..LsmConfig::new(name)
    }
}

fn open_tree(node: &Node, config: LsmConfig, origin: Origin) -> Result<LsmTree> {
    let cache = Arc::clone(&node.cache);
    Ok(match origin {
        Origin::Created => LsmTree::new(cache, config),
        Origin::Recovered => LsmTree::reopen(cache, config)?,
    })
}

impl DatasetPartition {
    /// Opens partition `partition` of `def` on `node`, its records stored as
    /// `schema` says.
    pub fn new(
        def: &DatasetDef,
        schema: Arc<RecordSchema>,
        partition: u32,
        node: Arc<Node>,
        cfg: &StorageConfig,
        compaction: CompactionExec,
        origin: Origin,
    ) -> Result<DatasetPartition> {
        let name = format!("{}_p{partition}_pri", def.name);
        let log_pin = node.log_pin(&name);
        let mut part = DatasetPartition {
            dataset: def.name.clone(),
            dataset_id: def.id,
            partition,
            primary: open_tree(&node, lsm_config(cfg, name, LeafShape::Groups(Arc::clone(&schema.layout))), origin)?,
            indexed: Secondary::leading_fields(&schema, std::iter::empty()),
            schema,
            secondaries: Vec::new(),
            node,
            log_pin,
            seals_seen: 0,
            flushes_seen: 0,
            log_error: None,
            compaction,
        };
        let born = part.born(origin);
        Self::adopt(&mut part.primary, &part.compaction, born)?;
        for idx in &def.indexes {
            let sec = part.build_secondary(idx, cfg, origin, born)?;
            part.secondaries.push(sec);
        }
        part.secondaries_changed();
        Ok(part)
    }

    /// Disk components of all the partition's indexes: at restart, what
    /// their manifests named.
    pub fn component_count(&self) -> usize {
        self.indexes().map(LsmTree::component_count).sum()
    }

    /// The LSN below which the log is no business of an index created now:
    /// the next one to be logged. `None` for an index being recovered.
    fn born(&self, origin: Origin) -> Option<Lsn> {
        (origin == Origin::Created).then(|| self.node.wal.lock().next_lsn())
    }

    /// What every index gets on being opened: its merges run where the
    /// partition's do, it is sealed and flushed only in step with the
    /// partition's other indexes, and one just created is made durably
    /// empty — whatever an earlier index of its name left is no longer named
    /// — with the log below `born` declared none of its business.
    fn adopt(idx: &mut LsmTree, compaction: &CompactionExec, born: Option<Lsn>) -> Result<()> {
        idx.set_executor(compaction.clone());
        idx.sealed_by_owner();
        if let Some(lsn) = born {
            idx.mark_flushed_below(lsn)?;
        }
        Ok(())
    }

    /// Every index of the partition, the primary first, as its lifecycle.
    fn indexes(&self) -> impl Iterator<Item = &LsmTree> + '_ {
        std::iter::once(&self.primary).chain(self.secondaries.iter().map(|sec| &sec.tree))
    }

    /// Every index of the partition in the order they flush: the
    /// secondaries first, the primary last.
    fn indexes_mut(&mut self) -> impl Iterator<Item = &mut LsmTree> + '_ {
        self.secondaries.iter_mut().map(|sec| &mut sec.tree).chain(std::iter::once(&mut self.primary))
    }

    /// Flushes the sealed memory components whose writers are done, in the
    /// order of [`DatasetPartition::indexes_mut`] — a crash between two of
    /// them leaves the secondaries at or ahead of the primary, and a failed
    /// one stops the rest — and seals every index at once when one is past
    /// its budget and none holds a sealed component any more. An index that
    /// still holds one — for a writer, or until the merge that took it in
    /// publishes — stops the indexes after it, so that no primary publishes
    /// ahead of its secondaries; once the next seal is due, a merge's is
    /// taken back and written on its own.
    fn seal_and_flush(&mut self) -> Result<()> {
        loop {
            let due = self.indexes().any(LsmTree::over_budget);
            for idx in self.indexes_mut() {
                if due {
                    idx.take_back_sealed();
                }
                idx.flush_sealed()?;
                if idx.has_sealed() {
                    return Ok(());
                }
            }
            if !due {
                return Ok(());
            }
            for idx in self.indexes_mut() {
                idx.seal();
            }
        }
    }

    /// Brings `indexed` up to date with `secondaries`.
    fn secondaries_changed(&mut self) {
        self.indexed = Secondary::leading_fields(&self.schema, self.secondaries.iter().map(|sec| &sec.def));
    }

    /// Opens secondary index `idx` of the partition (see
    /// [`DatasetPartition::adopt`] for `born`).
    fn build_secondary(&self, idx: &IndexInfo, cfg: &StorageConfig, origin: Origin, born: Option<Lsn>) -> Result<Secondary> {
        let name = format!("{}_p{}_{}", self.dataset, self.partition, idx.name);
        let leaves = if idx.kind == IndexKind::RTree { LeafShape::Spatial } else { LeafShape::Rows };
        let mut tree = open_tree(&self.node, lsm_config(cfg, name, leaves), origin)?;
        Self::adopt(&mut tree, &self.compaction, born)?;
        Ok(Secondary { def: idx.clone(), tree })
    }

    /// Adds a secondary index to an existing partition, backfilling it from
    /// the primary index: `CREATE INDEX` on loaded data. What the primary's
    /// disk components hold — the keys and the indexed field, read as
    /// columns — is flushed before the index is added, durable as far as the
    /// primary is. Each of the primary's memory components then goes into a
    /// memory component of the index that stands where it does in the log
    /// ([`LsmTree::stamp_as`]): an open transaction's writes among them are
    /// not flushed before it is over, and the partition flushes them with
    /// the primary's. A restart replays them like the primary's.
    pub fn add_index(&mut self, idx: &IndexInfo, cfg: &StorageConfig) -> Result<()> {
        let mut sec = self.build_secondary(idx, cfg, Origin::Created, Some(self.primary.flushed_below()))?;
        let wanted = Secondary::leading_fields(&self.schema, std::iter::once(idx));
        let layers: Vec<_> = self.primary.mem_layers().collect();
        // what the index holds for each key a memory component rewrites
        let mut rewritten: HashMap<&[u8], Option<Value>> =
            layers.iter().flat_map(|(mem, _)| mem.iter().map(|(pk, _)| (pk.as_slice(), None))).collect();
        let mut records = self.primary.disk_reader(Some(wanted.cells()))?;
        while let Some((pk, stored)) = records.next_entry()? {
            let record = self.schema.project(&wanted, stored)?;
            sec.insert(&record, pk)?;
            if let Some(held) = rewritten.get_mut(pk) {
                *held = Some(record);
            }
        }
        drop(records);
        sec.tree.flush()?;
        for (mem, stamps) in &layers {
            for (pk, entry) in mem.iter() {
                let held = rewritten.entry(pk.as_slice()).or_default();
                if let Some(old) = held.take() {
                    sec.delete(&old, pk)?;
                }
                if let Entry::Put(row) = entry {
                    let record = self.schema.project(&wanted, Projected::Row(row))?;
                    sec.insert(&record, pk)?;
                    *held = Some(record);
                }
            }
            sec.tree.stamp_as(stamps);
        }
        self.secondaries.push(sec);
        self.secondaries_changed();
        Ok(())
    }

    /// Drops secondary index `name`: it stops being maintained and its
    /// manifest and components are deleted.
    pub fn remove_index(&mut self, name: &str) -> Result<()> {
        let Some(pos) = self.secondaries.iter().position(|s| s.def.name == name) else {
            return Ok(());
        };
        let sec = self.secondaries.remove(pos);
        self.secondaries_changed();
        Ok(sec.tree.destroy()?)
    }

    /// Drops the partition from disk: every index's manifest and components.
    /// The log is not held back by it any more.
    pub fn destroy(&mut self) -> Result<()> {
        self.node.drop_log_pin(self.primary.name());
        for idx in self.indexes() {
            idx.destroy()?;
        }
        self.secondaries.clear();
        Ok(())
    }

    /// Names of this partition's indexes, primary first: the prefixes of
    /// their manifests and component files in the node's directory.
    pub fn index_names(&self) -> Vec<String> {
        self.indexes().map(|idx| idx.name().to_owned()).collect()
    }

    /// The LSN below which every logged operation on this partition is in a
    /// durable component of its primary index: replay starts here.
    pub fn flushed_below(&self) -> Lsn {
        self.primary.flushed_below()
    }

    /// The node hosting this partition.
    pub fn node(&self) -> &Arc<Node> {
        &self.node
    }

    /// Live record count.
    pub fn count(&self) -> Result<usize> {
        Ok(self.primary.count()?)
    }

    /// What the primary index stores for `pk` now: the before-image of a
    /// write about to be logged, in the dataset's storage encoding.
    pub fn stored(&self, pk: &[u8]) -> Result<Option<Vec<u8>>> {
        Ok(self.primary.get(pk)?)
    }

    /// Makes `raw` — the storage encoding of a record, as a transaction
    /// encoded it or as the log kept it — what the primary stores for `pk`,
    /// as the effect of the log record at `lsn`, written by the open
    /// transaction `writer` (`None` when replaying a committed one). Until
    /// [`DatasetPartition::txn_finished`] says `writer` is over, no index
    /// flushes what it wrote.
    ///
    /// `before` is what [`DatasetPartition::stored`] answered for `pk` under
    /// the lock this call holds: the one read a write makes of the old
    /// version. Both versions are decoded for secondary-index upkeep alone;
    /// `record` spares the new one's when the caller has it.
    pub fn put_logged(
        &mut self,
        pk: &[u8],
        raw: Vec<u8>,
        record: Option<&Value>,
        before: Option<&[u8]>,
        lsn: Lsn,
        writer: Option<u64>,
    ) -> Result<()> {
        self.settled(Some((lsn, writer)), |part| part.apply_put(pk, raw, record, before))
    }

    /// The delete of `pk` as the effect of the log record at `lsn` (see
    /// [`DatasetPartition::put_logged`], also for `before`).
    pub fn delete_logged(
        &mut self,
        pk: &[u8],
        before: Option<&[u8]>,
        lsn: Lsn,
        writer: Option<u64>,
    ) -> Result<()> {
        self.settled(Some((lsn, writer)), |part| part.apply_delete(pk, before))
    }

    /// Transaction `writer` has committed or aborted: what was sealed
    /// waiting for it is flushed.
    pub fn txn_finished(&mut self, writer: u64) -> Result<()> {
        self.settled(None, |part| {
            for idx in part.indexes_mut() {
                idx.release(writer)?;
            }
            Ok(())
        })
    }

    /// Whether `writer` should let other transactions finish before writing
    /// here: some index has a sealed memory component waiting for them and
    /// an active one already past its budget.
    pub fn must_wait(&self, writer: u64) -> bool {
        self.indexes().any(|idx| idx.must_wait(writer))
    }

    /// Runs `op` — stamped, if it applies a log record, on every index — then
    /// seals and flushes what has become due ([`DatasetPartition::seal_and_flush`]),
    /// and does for the node's log what the primary index's lifecycle asks:
    /// republish the oldest LSN it holds only in memory, rotate the log if it
    /// sealed a memory component (the records that component covers end
    /// with the old segment), truncate it if it published a flush. A failure
    /// of the log's upkeep does not take `op`'s outcome away from the caller:
    /// it is kept and reported by the next call, before anything is applied.
    fn settled<T>(
        &mut self,
        stamp: Option<(Lsn, Option<u64>)>,
        op: impl FnOnce(&mut Self) -> Result<T>,
    ) -> Result<T> {
        if let Some(e) = self.log_error.take() {
            return Err(e);
        }
        if let Some((lsn, writer)) = stamp {
            for idx in self.indexes_mut() {
                idx.stamp(lsn, writer);
            }
        }
        let out = op(self).and_then(|done| self.seal_and_flush().map(|()| done));
        self.log_pin.store(self.primary.first_unflushed().unwrap_or(Lsn::MAX), Ordering::Release);
        let stats = self.primary.stats();
        let mut kept_up = Ok(());
        if std::mem::replace(&mut self.seals_seen, stats.seals) != stats.seals {
            kept_up = self.node.rotate_log();
        }
        if std::mem::replace(&mut self.flushes_seen, stats.flushes) != stats.flushes {
            kept_up = kept_up.and(self.node.truncate_log());
        }
        self.log_error = kept_up.err();
        out
    }

    /// Retracts from every secondary index the entries of the record stored
    /// as `before`, decoding of it the indexed fields only.
    fn retract(&mut self, pk: &[u8], before: Option<&[u8]>) -> Result<()> {
        if self.secondaries.is_empty() {
            return Ok(());
        }
        let Some(before) = before else { return Ok(()) };
        let old = self.schema.project(&self.indexed, Projected::Row(before))?;
        for sec in &mut self.secondaries {
            sec.delete(&old, pk)?;
        }
        Ok(())
    }

    fn apply_put(
        &mut self,
        pk: &[u8],
        raw: Vec<u8>,
        record: Option<&Value>,
        before: Option<&[u8]>,
    ) -> Result<()> {
        self.retract(pk, before)?;
        let decoded = match record {
            None if !self.secondaries.is_empty() => {
                Some(self.schema.project(&self.indexed, Projected::Row(&raw))?)
            }
            _ => None,
        };
        self.primary.upsert(pk.to_vec(), raw)?;
        if let Some(record) = record.or(decoded.as_ref()) {
            for sec in &mut self.secondaries {
                sec.insert(record, pk)?;
            }
        }
        Ok(())
    }

    fn apply_delete(&mut self, pk: &[u8], before: Option<&[u8]>) -> Result<()> {
        if before.is_some() {
            self.retract(pk, before)?;
            self.primary.delete(pk.to_vec())?;
        }
        Ok(())
    }

    /// The next `limit` records at most, in primary-key order, whose leading
    /// key field lies in `range` — those past the key `after`, from the start
    /// of the range without one — as a batch of what `wanted` names (see
    /// [`RecordSchema::resolve`]), a column each: of a disk component, the
    /// chunks of those fields are all that is read, a chunk at a time. With
    /// it the key to pass as `after` to read on, `None` once the range has
    /// no more: a reader takes a bounded batch per call and holds the
    /// partition only for that long.
    pub fn read_range(
        &self,
        range: &KeyRange,
        after: Option<&[u8]>,
        wanted: &Projection,
        limit: usize,
    ) -> Result<(ColumnBatch, Option<Vec<u8>>)> {
        let mut batch = BatchBuilder::new(&self.schema.layout, wanted);
        let last = leading_field_reader(&self.primary, range, after, None)?.fill(&mut batch, limit)?;
        Ok((batch.finish().map_err(CoreError::Adm)?, last))
    }

    /// The records stored under `pks`, in that order, as a batch of what
    /// `wanted` names; a key with no record adds no row.
    pub fn read_keys(&self, pks: &[Vec<u8>], wanted: &Projection) -> Result<ColumnBatch> {
        let mut batch = BatchBuilder::new(&self.schema.layout, wanted);
        for pk in pks {
            self.primary.get_into(pk, &mut batch)?;
        }
        batch.finish().map_err(CoreError::Adm)
    }

    /// The primary keys secondary index `index` holds for `range`, a probe
    /// of the index's kind: a range on a B+ tree index's field, a rectangle
    /// an R-tree index's MBRs meet, or keywords a keyword index's text holds
    /// all of. A range of another kind is a [`CoreError::Catalog`].
    pub fn index_pks(&self, index: &str, range: &IndexRange) -> Result<Vec<Vec<u8>>> {
        let sec = self.find_index(index)?;
        let misfit = || CoreError::Catalog(format!("index {index:?} is a {:?} index: it cannot answer [{range}]", sec.def.kind));
        let fits = |kind| if sec.def.kind == kind { Ok(&sec.tree) } else { Err(misfit()) };
        Ok(match range {
            IndexRange::Range(range) => {
                // entries are `(secondary key, pk...)`: what follows the key is the pk
                let mut pks = Vec::new();
                let mut entries = leading_field_reader(fits(IndexKind::BTree)?, range, None, None)?;
                while let Some((key, _)) = entries.next_entry()? {
                    pks.push(strip_key_part(key).map_err(CoreError::Adm)?.to_vec());
                }
                pks
            }
            IndexRange::Spatial(query) => {
                spatial::search(fits(IndexKind::RTree)?, query)?.into_iter().map(|e| e.pk).collect()
            }
            IndexRange::Keyword(query) => inverted::search_all(fits(IndexKind::Keyword)?, query)?,
            IndexRange::Point(_) => return Err(misfit()),
        })
    }

    /// Checks the partition's secondary indexes against its primary: every
    /// primary row has each of its [`entries`], and every secondary entry is
    /// one that the current row under its primary key yields. Secondaries
    /// are flushed before their primary, so after a crash this holds once
    /// the log is replayed, not before. The error names the partition, the
    /// index and the first key where the index and its rows part.
    pub fn audit_indexes(&self) -> Result<()> {
        if self.secondaries.is_empty() {
            return Ok(());
        }
        let mut want = vec![Vec::new(); self.secondaries.len()];
        let mut rows = self.primary.reader(Bound::Unbounded, Bound::Unbounded, Some(self.indexed.cells()))?;
        while let Some((pk, stored)) = rows.next_entry()? {
            let record = self.schema.project(&self.indexed, stored)?;
            for (sec, want) in self.secondaries.iter().zip(&mut want) {
                entries(&sec.def, &record, pk, |key, value| {
                    want.push((key, value));
                    Ok(())
                })?;
            }
        }
        for (sec, mut want) in self.secondaries.iter().zip(want) {
            want.sort_unstable();
            let have = sec.tree.scan()?;
            let at = have.iter().zip(&want).take_while(|(have, want)| have == want).count();
            let lacks = match (have.get(at), want.get(at)) {
                (None, None) => continue,
                (Some(have), Some(want)) => want < have,
                (have, _) => have.is_none(),
            };
            let (what, key) =
                if lacks { ("lacks the entry", &want[at].0) } else { ("holds an entry no row yields", &have[at].0) };
            return Err(CoreError::Storage(StorageError::Corrupt(format!(
                "{} partition {}: index {:?} {what}, key {key:02x?}",
                self.dataset, self.partition, sec.def.name
            ))));
        }
        Ok(())
    }

    fn find_index(&self, name: &str) -> Result<&Secondary> {
        self.secondaries
            .iter()
            .find(|s| s.def.name == name)
            .ok_or_else(|| CoreError::Catalog(format!("unknown index {name:?}")))
    }

    /// Forces the LSM memory components of this partition to disk (all but
    /// what an open transaction wrote).
    pub fn flush(&mut self) -> Result<()> {
        self.settled(None, |part| {
            for idx in part.indexes_mut() {
                idx.flush()?;
            }
            Ok(())
        })
    }

    /// LSM statistics of the primary index, or of secondary index `index`
    /// (any kind).
    pub fn lsm_stats(&self, index: Option<&str>) -> Result<LsmStats> {
        Ok(match index {
            None => self.primary.stats(),
            Some(name) => self.find_index(name)?.tree.stats(),
        })
    }
}

/// A reader of the entries of `tree` whose leading key part lies within
/// `range` — those past the key `after`, if one is given — handing out
/// values, or the cells `wanted` of them (see [`LsmTree::reader`]). Both ends
/// of the range are byte bounds — the keys with leading part `v` are those
/// from `v`'s one-part key up to [`key_prefix_end`] of it — so the read
/// touches the matches, decodes no key and copies no entry.
fn leading_field_reader<'t>(
    tree: &'t LsmTree,
    range: &KeyRange,
    after: Option<&[u8]>,
    wanted: Option<&[usize]>,
) -> Result<LsmReader<'t>> {
    // where the keys `v` leads begin, and where they end
    let first = |v: &Value| encode_key(std::slice::from_ref(v));
    let past = |v: &Value| key_prefix_end(first(v));
    let lo = range.lo.as_ref().map(|v| if range.lo_inclusive { first(v) } else { past(v) });
    let hi = range.hi.as_ref().map(|v| if range.hi_inclusive { past(v) } else { first(v) });
    let start = match (after, &lo) {
        (Some(key), _) => Bound::Excluded(key),
        (None, Some(key)) => Bound::Included(key.as_slice()),
        (None, None) => Bound::Unbounded,
    };
    let end = hi.as_deref().map_or(Bound::Unbounded, Bound::Excluded);
    Ok(tree.reader(start, end, wanted)?)
}

/// Sorts candidate primary keys and drops the repeats — "sorting object
/// references ... before fetching data objects" (§V-B, ref \[26\];
/// experiment E7 measures the difference).
pub fn sort_pks(pks: &mut Vec<Vec<u8>>) {
    pks.sort_unstable();
    pks.dedup();
}

/// Hash-selects the partition for a primary key.
pub fn partition_of(pk: &[u8], partitions: usize) -> u32 {
    let h = asterix_storage::le::hash64_after(pk.len() as u64, pk);
    (h % partitions.max(1) as u64) as u32
}

/// A point helper for tests.
pub fn pt(x: f64, y: f64) -> Value {
    Value::Point(Point::new(x, y))
}

#[cfg(test)]
impl RecordSchema {
    /// Of an open type that declares only its key, `id`: how a unit test
    /// stores records of any shape.
    pub(crate) fn keyed_by_id() -> Arc<RecordSchema> {
        let ty = ObjectType::open("T", vec![asterix_adm::types::Field::required("id", asterix_adm::types::TypeExpr::named("int"))]);
        RecordSchema::new(ty, TypeRegistry::new())
    }
}

#[cfg(test)]
impl DatasetPartition {
    /// Inserts or replaces a record (already cast to the dataset type, its
    /// primary key the field `id`). Returns the previous record, if any. Not
    /// logged — nothing ties the write to a transaction or to a place in the
    /// log — so for unit tests only: the write path is
    /// [`DatasetPartition::put_logged`].
    pub(crate) fn upsert(&mut self, record: &Value) -> Result<Option<Value>> {
        let pk = extract_pk(record, &["id".into()])?;
        let raw = self.schema.encode(record)?;
        let before = self.stored(&pk)?;
        self.settled(None, |part| part.apply_put(&pk, raw, Some(record), before.as_deref()))?;
        before.map(|raw| self.schema.decode(&raw)).transpose()
    }

    /// Deletes by encoded primary key; returns the removed record. Not
    /// logged (see [`DatasetPartition::upsert`]).
    pub(crate) fn delete(&mut self, pk: &[u8]) -> Result<Option<Value>> {
        let before = self.stored(pk)?;
        self.settled(None, |part| part.apply_delete(pk, before.as_deref()))?;
        before.map(|raw| self.schema.decode(&raw)).transpose()
    }

    /// Seals every index of the partition and flushes nothing: the next
    /// write flushes what no open transaction wrote.
    pub(crate) fn seal(&mut self) {
        for idx in self.indexes_mut() {
            idx.seal();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::DatasetKind;
    use asterix_adm::parse::parse_value;
    use asterix_adm::Rectangle;

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
            id: 0,
            name: "Msgs".into(),
            type_name: "any".into(),
            kind: DatasetKind::Internal { primary_key: vec!["id".into()] },
            indexes: vec![
                IndexInfo { name: "byAuthor".into(), field: vec!["author".into()], kind: IndexKind::BTree },
                IndexInfo { name: "byLoc".into(), field: vec!["loc".into()], kind: IndexKind::RTree },
                IndexInfo { name: "byText".into(), field: vec!["text".into()], kind: IndexKind::Keyword },
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

    fn create(def: &DatasetDef, node: Arc<Node>) -> DatasetPartition {
        let cfg = StorageConfig::default();
        DatasetPartition::new(def, RecordSchema::keyed_by_id(), 0, node, &cfg, asterix_storage::compaction::on_caller(), Origin::Created).unwrap()
    }

    /// The probe of `byAuthor` for exactly author `v`.
    fn author(v: impl Into<Value>) -> IndexRange {
        let v = v.into();
        IndexRange::Range(KeyRange { lo: Some(v.clone()), lo_inclusive: true, hi: Some(v), hi_inclusive: true })
    }

    /// What a keyword probe of `byText` for `query` finds.
    fn keyword(part: &DatasetPartition, query: &str) -> Vec<Vec<u8>> {
        part.index_pks("byText", &IndexRange::Keyword(query.into())).unwrap()
    }

    /// The live entries of secondary index `index`.
    fn entry_count(part: &DatasetPartition, index: &str) -> usize {
        part.find_index(index).unwrap().tree.count().unwrap()
    }

    /// The first column of `batch`, row by row.
    fn records(batch: ColumnBatch) -> Vec<Value> {
        batch.into_rows().map(|mut row| row.remove(0)).collect()
    }

    fn setup() -> (DatasetPartition, std::path::PathBuf) {
        let (node, p) = tmp_node();
        (create(&def_with_indexes(), node), p)
    }

    /// The leading parts, in key order, of what a walk of `range` hands out.
    fn leads(tree: &LsmTree, range: &KeyRange, after: Option<&[u8]>) -> Vec<(Value, i64)> {
        let mut out = Vec::new();
        let mut entries = leading_field_reader(tree, range, after, None).unwrap();
        while let Some((key, _)) = entries.next_entry().unwrap() {
            let mut parts = asterix_adm::binary::decode_key(key).unwrap();
            let pk = parts.pop().unwrap().as_i64().unwrap();
            out.push((parts.pop().unwrap(), pk));
        }
        out
    }

    #[test]
    fn a_range_on_the_leading_part_is_a_byte_range() {
        let (node, p) = tmp_node();
        let mut tree = LsmTree::new(Arc::clone(&node.cache), LsmConfig::new("lead"));
        // `(lead, pk)` entries for leads 2, 2.5 and 3 — three of each, one
        // behind a flush — and a neighbour on either side
        let all = [Value::Double(1.5), Value::Int(2), Value::Double(2.5), Value::Int(3), Value::Double(3.5)];
        for pk in [1i64, 2, 3] {
            for lead in &all {
                tree.upsert(encode_key(&[lead.clone(), Value::Int(pk)]), Vec::new()).unwrap();
            }
            if pk == 1 {
                tree.flush().unwrap();
            }
        }
        let expect = |range: &KeyRange, leads_in: &[Value]| {
            let want: Vec<(Value, i64)> =
                leads_in.iter().flat_map(|l| [1, 2, 3].map(|pk| (l.clone(), pk))).collect();
            assert_eq!(leads(&tree, range, None), want, "{range:?}");
        };
        let range = |lo: Option<(Value, bool)>, hi: Option<(Value, bool)>| KeyRange {
            lo_inclusive: lo.as_ref().is_some_and(|b| b.1),
            hi_inclusive: hi.as_ref().is_some_and(|b| b.1),
            lo: lo.map(|b| b.0),
            hi: hi.map(|b| b.0),
        };
        // an `Int` and a `Double` bound mean the same: 2 is 2.0
        for two in [Value::Int(2), Value::Double(2.0)] {
            for three in [Value::Int(3), Value::Double(3.0)] {
                let (lo, hi) = (|incl| Some((two.clone(), incl)), |incl| Some((three.clone(), incl)));
                expect(&range(lo(true), hi(true)), &all[1..4]);
                expect(&range(lo(true), hi(false)), &all[1..3]);
                expect(&range(lo(false), hi(true)), &all[2..4]);
                expect(&range(lo(false), hi(false)), &all[2..3]);
                expect(&range(lo(false), None), &all[2..]);
                expect(&range(None, hi(false)), &all[..3]);
            }
        }
        // a bound between two whole numbers, and one that is a stored lead
        let half = |incl| Some((Value::Double(2.5), incl));
        expect(&range(half(true), half(true)), &all[2..3]);
        expect(&range(half(false), None), &all[3..]);
        expect(&range(None, half(false)), &all[..2]);
        expect(&range(Some((Value::Double(2.25), true)), Some((Value::Double(2.75), false))), &all[2..3]);
        expect(&range(half(false), half(false)), &[]);
        expect(&range(Some((Value::Int(3), true)), Some((Value::Int(2), true))), &[]);
        // resuming inside a run of equal leading parts reads on from there
        let twos = range(Some((Value::Int(2), true)), Some((Value::Int(2), true)));
        let after = encode_key(&[Value::Int(2), Value::Int(2)]);
        assert_eq!(leads(&tree, &twos, Some(&after)), [(Value::Int(2), 3)]);
        let open_end = range(Some((Value::Int(2), false)), Some((Value::Int(3), false)));
        let after = encode_key(&[Value::Double(2.5), Value::Int(1)]);
        assert_eq!(leads(&tree, &open_end, Some(&after)), [(Value::Double(2.5), 2), (Value::Double(2.5), 3)]);
        drop(tree);
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn upsert_get_delete_roundtrip() {
        let (mut part, p) = setup();
        for i in 0..100 {
            part.upsert(&record(i, i % 5, i as f64, &format!("hello msg {i}"))).unwrap();
        }
        assert_eq!(part.count().unwrap(), 100);
        let pk = encode_key(&[Value::Int(42)]);
        let get = |part: &DatasetPartition| records(part.read_keys(std::slice::from_ref(&pk), &part.schema.resolve(&[])).unwrap()).pop();
        assert_eq!(get(&part).unwrap().field("author"), &Value::Int(2));
        let removed = part.delete(&pk).unwrap().unwrap();
        assert_eq!(removed.field("id"), &Value::Int(42));
        assert!(get(&part).is_none());
        assert_eq!(part.count().unwrap(), 99);
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn btree_index_maintained_on_update() {
        let (mut part, p) = setup();
        for i in 0..50 {
            part.upsert(&record(i, i % 5, 0.0, "x")).unwrap();
        }
        let pks = part.index_pks("byAuthor", &author(2)).unwrap();
        assert_eq!(pks.len(), 10);
        // move record 2 to author 99
        part.upsert(&record(2, 99, 0.0, "x")).unwrap();
        let pks = part.index_pks("byAuthor", &author(2)).unwrap();
        assert_eq!(pks.len(), 9, "old entry retracted");
        let pks = part.index_pks("byAuthor", &author(99)).unwrap();
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
            let range =
                KeyRange { lo: lo.map(Value::Int), lo_inclusive: li, hi: hi.map(Value::Int), hi_inclusive: hi_i };
            part.index_pks("byAuthor", &IndexRange::Range(range)).unwrap().len()
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
        let pks = part.index_pks("byLoc", &IndexRange::Spatial(q)).unwrap();
        assert_eq!(pks.len(), 6, "points 10..=15");
        // delete one
        part.delete(&encode_key(&[Value::Int(12)])).unwrap();
        let pks = part.index_pks("byLoc", &IndexRange::Spatial(q)).unwrap();
        assert_eq!(pks.len(), 5);
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn keyword_index_search() {
        let (mut part, p) = setup();
        part.upsert(&record(1, 0, 0.0, "big data management")).unwrap();
        part.upsert(&record(2, 0, 0.0, "big active data")).unwrap();
        part.upsert(&record(3, 0, 0.0, "little tiny data")).unwrap();
        let pks = keyword(&part, "big data");
        assert_eq!(pks.len(), 2);
        let recs = records(part.read_keys(&pks, &part.schema.resolve(&[])).unwrap());
        assert!(recs.iter().all(|r| r.field("text").as_str().unwrap().contains("big")));
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn sorted_keys_fetch_in_key_order_without_repeats() {
        let (mut part, p) = setup();
        for i in 0..10 {
            part.upsert(&record(i, 0, 0.0, "x")).unwrap();
        }
        let pk = |i: i64| encode_key(&[Value::Int(i)]);
        let mut pks = vec![pk(5), pk(3), pk(5), pk(1), pk(77)];
        sort_pks(&mut pks);
        let ids = part.read_keys(&pks, &part.schema.resolve(&["id".into()])).unwrap();
        assert_eq!(ids.width(), 1, "the field asked for, a column");
        let ids: Vec<Value> = records(ids);
        assert_eq!(ids, [Value::Int(1), Value::Int(3), Value::Int(5)], "key order, no repeat, no record for 77");
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn range_reads_resume_after_the_key_they_stopped_at() {
        let (mut part, p) = setup();
        for i in 0..10 {
            part.upsert(&record(i, 0, 0.0, "x")).unwrap();
        }
        let range =
            KeyRange { lo: Some(Value::Int(2)), lo_inclusive: false, hi: Some(Value::Int(8)), hi_inclusive: true };
        let (mut recs, mut after, mut calls) = (Vec::new(), None, 0);
        loop {
            let (batch, last) = part.read_range(&range, after.as_deref(), &part.schema.resolve(&[]), 4).unwrap();
            recs.extend(records(batch));
            calls += 1;
            after = last;
            if after.is_none() {
                break;
            }
        }
        let ids: Vec<i64> = recs.iter().map(|r| r.field("id").as_i64().unwrap()).collect();
        assert_eq!(ids, [3, 4, 5, 6, 7, 8], "(2, 8] in key order, nothing twice");
        assert_eq!(calls, 2, "four, then the two left and the end of the range");
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn an_update_of_the_text_retracts_every_old_token_and_finds_the_new_ones() {
        let (mut part, p) = setup();
        part.upsert(&record(1, 0, 0.0, "alpha beta gamma")).unwrap();
        part.upsert(&record(2, 0, 0.0, "beta")).unwrap();
        part.flush().unwrap();
        part.upsert(&record(1, 0, 0.0, "delta epsilon beta")).unwrap();
        let pk = |i: i64| encode_key(&[Value::Int(i)]);
        assert!(keyword(&part, "alpha").is_empty() && keyword(&part, "gamma").is_empty(), "old tokens retracted");
        assert_eq!(keyword(&part, "epsilon delta"), [pk(1)]);
        assert_eq!(keyword(&part, "beta"), [pk(1), pk(2)]);
        assert_eq!(entry_count(&part, "byText"), 4, "beta twice, delta and epsilon");
        part.audit_indexes().unwrap();
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn a_repeated_token_writes_one_posting() {
        let (mut part, p) = setup();
        part.upsert(&record(7, 0, 0.0, "spam Spam spam")).unwrap();
        assert_eq!(entry_count(&part, "byText"), 1);
        let _ = std::fs::remove_dir_all(p);
    }

    /// A number under the keyword and the spatial index is not indexed and
    /// is no error, on the way in or out; a B+ tree index takes a string.
    #[test]
    fn a_field_of_the_wrong_type_yields_no_entry_and_no_error() {
        let (mut part, p) = setup();
        let v = parse_value(r#"{"id": 1, "author": "ann", "loc": 5, "text": 7}"#).unwrap();
        part.upsert(&v).unwrap();
        let counts = |part: &DatasetPartition| ["byAuthor", "byLoc", "byText"].map(|index| entry_count(part, index));
        assert_eq!(counts(&part), [1, 0, 0]);
        assert_eq!(part.index_pks("byAuthor", &author("ann")).unwrap(), [encode_key(&[Value::Int(1)])]);
        part.audit_indexes().unwrap();
        part.delete(&encode_key(&[Value::Int(1)])).unwrap();
        assert_eq!(counts(&part), [0, 0, 0]);
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn a_probe_of_another_kind_is_a_catalog_error_naming_the_index() {
        let (part, p) = setup();
        let rect = Rectangle::new(Point::new(0.0, 0.0), Point::new(1.0, 1.0));
        for (index, range) in [
            ("byAuthor", IndexRange::Keyword("x".into())),
            ("byAuthor", IndexRange::Point(vec![Value::Int(1)])),
            ("byLoc", author(1)),
            ("byText", IndexRange::Spatial(rect)),
        ] {
            match part.index_pks(index, &range) {
                Err(CoreError::Catalog(why)) => assert!(why.contains(&format!("{index:?}")), "{why}"),
                other => panic!("{index} [{range}]: {other:?}"),
            }
        }
        let _ = std::fs::remove_dir_all(p);
    }

    /// The audit passes over upkeep of every kind, in memory and on disk, and
    /// names the index and the key of an entry too many or too few.
    #[test]
    fn the_audit_names_an_entry_too_many_and_one_too_few() {
        let (mut part, p) = setup();
        for i in 0..20 {
            part.upsert(&record(i, i % 3, i as f64, &format!("word{} shared", i % 4))).unwrap();
        }
        part.flush().unwrap();
        for i in 0..10 {
            part.upsert(&record(i, 7, 0.5, "moved")).unwrap();
        }
        part.delete(&encode_key(&[Value::Int(15)])).unwrap();
        part.audit_indexes().unwrap();
        let stray = prepend_key_part(&Value::Int(7), &encode_key(&[Value::Int(15)]));
        let sec = part.secondaries.iter_mut().find(|s| s.def.name == "byAuthor").unwrap();
        sec.tree.upsert(stray.clone(), Vec::new()).unwrap();
        let err = part.audit_indexes().unwrap_err().to_string();
        assert!(err.contains("partition 0") && err.contains("\"byAuthor\" holds") && err.contains(&format!("{stray:02x?}")), "{err}");
        let sec = part.secondaries.iter_mut().find(|s| s.def.name == "byAuthor").unwrap();
        sec.tree.delete(stray).unwrap();
        let lost = prepend_key_part(&Value::Int(7), &encode_key(&[Value::Int(3)]));
        sec.tree.delete(lost.clone()).unwrap();
        let err = part.audit_indexes().unwrap_err().to_string();
        assert!(err.contains("\"byAuthor\" lacks") && err.contains(&format!("{lost:02x?}")), "{err}");
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn missing_secondary_key_is_not_indexed() {
        let (mut part, p) = setup();
        let v = parse_value(r#"{"id": 1, "text": "no author or loc"}"#).unwrap();
        part.upsert(&v).unwrap();
        assert_eq!(part.count().unwrap(), 1);
        let pks = part.index_pks("byAuthor", &IndexRange::Range(KeyRange::default())).unwrap();
        assert!(pks.is_empty());
        let _ = std::fs::remove_dir_all(p);
    }

    #[test]
    fn add_index_backfills() {
        let (node, p) = tmp_node();
        let mut def = def_with_indexes();
        def.indexes.clear();
        let mut part = create(&def, node);
        for i in 0..20 {
            part.upsert(&record(i, i % 4, 0.0, "x")).unwrap();
        }
        part.add_index(
            &IndexInfo { name: "byAuthor".into(), field: vec!["author".into()], kind: IndexKind::BTree },
            &StorageConfig::default(),
        )
        .unwrap();
        let pks = part.index_pks("byAuthor", &author(1)).unwrap();
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
