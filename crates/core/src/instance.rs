//! The embeddable BDMS instance: Figure 1's cluster controller plus query
//! service, wired over the full stack.
//!
//! An [`Instance`] owns a simulated shared-nothing cluster, the metadata
//! catalog, and the transaction machinery. Statements in either language
//! (SQL++ or AQL — paper §IV-A) are parsed, translated onto the shared
//! Algebricks algebra, optimized, compiled to Hyracks jobs, and executed
//! against the LSM-backed dataset partitions.
//!
//! Durability model (see DESIGN.md, "Durability"): the LSM disk component is
//! the durable unit and each node's log covers only what has not reached
//! one. Opening an instance replays the persisted DDL into the catalog,
//! attaches to every index the components its manifest names, and re-applies
//! the committed operations of the log tail that lie past each partition's
//! flushed LSN. No-steal flushing keeps uncommitted data out of components;
//! an abort logs the before-images it restores as a committed compensation
//! transaction, so nothing ever needs undoing at restart.

use crate::catalog::{Catalog, DatasetDef, DatasetKind};
use crate::dataset::{
    extract_pk, partition_of, DatasetPartition, Origin, RecordSchema, StorageConfig,
};
use crate::error::{CoreError, Result};
use crate::node::Cluster;
use crate::scheduler::{
    QueryControl, QueryOptions, QueryScheduler, SchedulerConfig, Session, Submission,
};
use crate::sources::{DatasetRuntime, DatasetSource, ExternalSource};
use crate::txn::{TxnManager, UndoEntry};
use asterix_adm::types::TypeExpr;
use asterix_adm::Value;
use asterix_algebricks::jobgen::{self, JobGenConfig};
use asterix_algebricks::plan::{Plan, VarGen};
use asterix_algebricks::rules::{optimize, Rule};
use asterix_algebricks::source::{DataSource, IndexKind};
use asterix_hyracks::{CancellationToken, JobOptions, RuntimeCtx};
use asterix_sqlpp::ast::{DdlStmt, DmlStmt, Query, Stmt};
use asterix_sqlpp::lexer::TokenKind;
use asterix_sqlpp::translate::{translate_query, CatalogView};
use asterix_storage::io::write_atomic;
use asterix_storage::lock_order::{Level, Mutex, RwLock, RwLockWriteGuard};
use asterix_storage::wal::WalRecord;
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::path::PathBuf;
use asterix_obs::IdGen;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// How long a writer lets other transactions finish so that a sealed memory
/// component can flush before it writes on regardless: twice the lock
/// manager's deadlock timeout, so a transaction that the waiter itself blocks
/// has given up (and released the component) by then.
const FLUSH_WAIT_LIMIT: Duration = Duration::from_secs(10);

/// Query language selector (paper §IV-A: SQL++ deprecated AQL, both remain).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Language {
    Sqlpp,
    Aql,
}

/// Retry policy for queries that fail with a *transient* error — a node
/// down, an injected chaos fault, a partition dying mid-stream (see
/// [`CoreError::is_transient`]). Deterministic failures (cancellation,
/// deadline, plan errors) are never retried.
#[derive(Debug, Clone)]
pub struct RetryPolicy {
    /// Total attempts per query, including the first (1 = no retry).
    pub max_attempts: u32,
    /// Backoff before the first retry; doubles on each further retry.
    pub backoff: Duration,
    /// Restart dead cluster nodes before retrying, modelling a failed
    /// machine rejoining the cluster between attempts.
    pub restart_dead_nodes: bool,
}

impl Default for RetryPolicy {
    fn default() -> Self {
        RetryPolicy {
            max_attempts: 1,
            backoff: Duration::from_millis(10),
            restart_dead_nodes: false,
        }
    }
}

/// Instance configuration.
#[derive(Debug, Clone)]
pub struct InstanceConfig {
    /// Data directory. `None` creates (and removes on drop) a temp dir.
    pub data_dir: Option<PathBuf>,
    /// Number of simulated storage nodes (Figure 1).
    pub nodes: usize,
    /// Storage partitions per dataset (hash-partitioned by primary key).
    pub partitions: usize,
    /// Buffer-cache frames per node (Figure 2's buffer cache); 0 is taken
    /// as 1.
    pub cache_pages_per_node: usize,
    /// LSM tuning.
    pub storage: StorageConfig,
    /// Optimizer rules every query skips (E13's ablations, the oracle's
    /// rule-off axis); empty, so every rule runs, by default.
    pub disabled_rules: BTreeSet<Rule>,
    /// Deterministic fault injector threaded through every node's I/O and
    /// WAL paths (crash-recovery testing; `None` in production).
    pub faults: Option<Arc<asterix_storage::faults::FaultInjector>>,
    /// Retry policy for transiently failing queries.
    pub retry: RetryPolicy,
    /// Admission control for concurrently served queries (global memory
    /// pool, concurrency gate, bounded FIFO queue) — see
    /// [`crate::scheduler`].
    pub scheduler: SchedulerConfig,
    /// Morsel-executor worker threads shared by every job on this instance;
    /// 0 = auto (`available_parallelism()`). This is the *only* thread
    /// count: operator `partitions` are schedulable units, not threads.
    pub worker_threads: usize,
}

impl Default for InstanceConfig {
    fn default() -> Self {
        InstanceConfig {
            data_dir: None,
            nodes: 2,
            partitions: 2,
            cache_pages_per_node: 1024,
            storage: StorageConfig::default(),
            disabled_rules: BTreeSet::new(),
            faults: None,
            retry: RetryPolicy::default(),
            scheduler: SchedulerConfig::default(),
            worker_threads: 0,
        }
    }
}

/// Result of one executed statement.
#[derive(Debug)]
pub enum ExecResult {
    /// Query results, one value per row.
    Rows(Vec<Value>),
    /// DDL/DML confirmation.
    Message(String),
}

impl ExecResult {
    /// The rows of a query result (empty for messages).
    pub fn rows(self) -> Vec<Value> {
        match self {
            ExecResult::Rows(r) => r,
            ExecResult::Message(_) => Vec::new(),
        }
    }
}

#[expect(clippy::disallowed_types, reason = "remove_root_on_drop: SeqCst, so the drop of the last handle sees a crash's clearing of it on any thread")]
struct Inner {
    config: InstanceConfig,
    root: PathBuf,
    /// Remove `root` on drop: set for a temp-dir instance, cleared by
    /// [`Instance::crash`] so the directory survives for the reopen.
    remove_root_on_drop: std::sync::atomic::AtomicBool,
    catalog: RwLock<Catalog>,
    cluster: Cluster,
    datasets: RwLock<HashMap<String, Arc<DatasetRuntime>>>,
    txns: TxnManager,
    ctx: Arc<RuntimeCtx>,
    /// The statements `catalog.ddl` holds. Its lock is held across a whole
    /// DDL statement — catalog, storage, persist — so they are persisted in
    /// the order they took effect, which is what numbers the datasets.
    ddl_log: Mutex<Vec<String>>,
    /// Admission controller every query runs behind.
    sched: Arc<QueryScheduler>,
    /// Session-id allocator for [`Instance::session`].
    next_session: IdGen,
    /// Tripped at teardown so background merges abort at the next morsel.
    compaction_token: CancellationToken,
    /// Where the datasets' merges run: morsel tasks on the worker pool.
    compaction: asterix_storage::CompactionExec,
}

/// An AsterixDB instance. Cloning yields another handle on the same
/// instance (feeds and channels hold clones).
pub struct Instance {
    inner: Arc<Inner>,
}

impl Clone for Instance {
    fn clone(&self) -> Self {
        Instance { inner: Arc::clone(&self.inner) }
    }
}

impl Instance {
    /// Opens an instance, recovering any existing state under the data dir.
    pub fn open(config: InstanceConfig) -> Result<Instance> {
        let (root, temp_guard) = match &config.data_dir {
            Some(d) => (d.clone(), false),
            None => {
                let p = std::env::temp_dir().join(format!(
                    "asterix-instance-{}-{}",
                    std::process::id(),
                    std::time::SystemTime::now()
                        .duration_since(std::time::UNIX_EPOCH)
                        .map(|d| d.as_nanos())
                        .unwrap_or_default()
                ));
                (p, true)
            }
        };
        std::fs::create_dir_all(&root)?;
        let cluster = Cluster::open_with_opts(
            &root,
            config.nodes,
            asterix_storage::cache::CacheOptions::with_capacity(config.cache_pages_per_node),
            config.faults.clone(),
        )?;
        let ctx = RuntimeCtx::with_clock_and_faults(
            root.join("spill"),
            asterix_obs::MonotonicClock::shared(),
            None,
        )
        .map_err(CoreError::Hyracks)?;
        ctx.set_worker_threads(config.worker_threads);
        // Merges share the morsel pool with query work; the
        // instance-lifetime token lets shutdown abort in-flight merges at
        // the next merge morsel instead of waiting them out.
        let compaction_token = CancellationToken::new();
        let compaction =
            asterix_hyracks::storage_compaction_executor(&ctx, compaction_token.clone());
        let sched = QueryScheduler::new(config.scheduler.clone(), ctx.registry());
        let inner = Arc::new(Inner {
            config,
            root,
            remove_root_on_drop: temp_guard.into(),
            catalog: RwLock::ranked(Level::Catalog, Catalog::new()),
            cluster,
            datasets: RwLock::ranked(Level::DatasetsMap, HashMap::new()),
            txns: TxnManager::default(),
            ctx,
            ddl_log: Mutex::ranked(Level::Ddl, Vec::new()),
            sched,
            next_session: IdGen::new(1),
            compaction_token,
            compaction,
        });
        let instance = Instance { inner };
        instance.recover()?;
        Ok(instance)
    }

    /// Opens a throwaway instance with default config (examples/tests).
    pub fn temp() -> Result<Instance> {
        Instance::open(InstanceConfig::default())
    }

    /// The instance's data directory.
    pub fn data_dir(&self) -> &PathBuf {
        &self.inner.root
    }

    /// The cluster (I/O statistics etc.).
    pub fn cluster(&self) -> &Cluster {
        &self.inner.cluster
    }

    // -----------------------------------------------------------------
    // recovery
    // -----------------------------------------------------------------

    fn ddl_log_path(&self) -> PathBuf {
        self.inner.root.join("catalog.ddl")
    }

    /// Appends `stmt_text` to `log`, the persisted DDL log, replacing the
    /// file atomically: a crash leaves the old catalog or the new one.
    fn persist_ddl(&self, log: &mut Vec<String>, stmt_text: &str) -> Result<()> {
        log.push(stmt_text.to_string());
        let arr = Value::Array(log.iter().map(|s| Value::from(s.as_str())).collect());
        let text = asterix_adm::print::to_adm_string(&arr);
        write_atomic(&self.ddl_log_path(), text.as_bytes(), self.inner.config.faults.as_ref())?;
        Ok(())
    }

    /// Builds the runtime of internal dataset `def`: freshly created, or at
    /// restart recovered from what its indexes' manifests name.
    fn open_dataset(&self, def: DatasetDef, origin: Origin) -> Result<Arc<DatasetRuntime>> {
        let inner = &self.inner;
        let schema = {
            let cat = inner.catalog.read();
            RecordSchema::new(cat.dataset_type(&def.name)?.clone(), cat.types.clone())
        };
        let mut partitions = Vec::with_capacity(inner.config.partitions);
        for p in 0..inner.config.partitions.max(1) {
            let node = Arc::clone(inner.cluster.node_for_partition(p));
            let (ty, p, storage) = (Arc::clone(&schema), p as u32, &inner.config.storage);
            let compaction = inner.compaction.clone();
            let part = DatasetPartition::new(&def, ty, p, node, storage, compaction, origin)?;
            inner.ctx.registry().counter("core.recovery.components_loaded").add(part.component_count() as u64);
            partitions.push(Arc::new(RwLock::ranked(Level::LsmComponent, part)));
        }
        Ok(Arc::new(DatasetRuntime { def, schema, partitions }))
    }

    fn recover(&self) -> Result<()> {
        let inner = &self.inner;
        let faults = inner.config.faults.as_ref();
        // 0. validate (or persist) the physical layout: a key's partition is
        // its hash modulo the partition count and a partition's node is its
        // number modulo the node count, so with either one changed the
        // components and the log would be looked for where they are not
        let layout_path = inner.root.join("layout.adm");
        let me = Value::object(vec![
            ("partitions".into(), Value::Int(inner.config.partitions.max(1) as i64)),
            ("nodes".into(), Value::Int(inner.config.nodes.max(1) as i64)),
        ]);
        if layout_path.exists() {
            let text = std::fs::read_to_string(&layout_path)?;
            let stored = asterix_adm::parse::parse_value(&text).map_err(CoreError::Adm)?;
            if ["partitions", "nodes"].iter().any(|f| stored.field(f) != me.field(f)) {
                return Err(CoreError::Catalog(format!(
                    "data directory was created with {} partitions/dataset on {} nodes; reopen \
                     with the same counts (got {} on {})",
                    stored.field("partitions"),
                    stored.field("nodes"),
                    me.field("partitions"),
                    me.field("nodes"),
                )));
            }
        } else {
            write_atomic(&layout_path, asterix_adm::print::to_adm_string(&me).as_bytes(), faults)?;
        }
        // 1. replay DDL into the catalog alone: what a dataset's storage
        // holds is its manifests' to say, not the statements'
        let path = self.ddl_log_path();
        if path.exists() {
            let text = std::fs::read_to_string(&path)?;
            let arr = asterix_adm::parse::parse_value(&text).map_err(CoreError::Adm)?;
            let stmts: Vec<String> = arr
                .as_collection()
                .unwrap_or(&[])
                .iter()
                .filter_map(|v| v.as_str().map(str::to_owned))
                .collect();
            for text in &stmts {
                for stmt in parse(text, Language::Sqlpp)? {
                    if let Stmt::Ddl(ddl) = stmt {
                        inner.catalog.write().apply_ddl(&ddl)?;
                    }
                }
            }
            *inner.ddl_log.lock() = stmts;
        }
        // 2. attach every surviving dataset's components
        let defs: Vec<DatasetDef> = inner.catalog.read().datasets().to_vec();
        let mut claimed = BTreeSet::new();
        for def in defs {
            if !matches!(def.kind, DatasetKind::Internal { .. }) {
                continue;
            }
            let rt = self.open_dataset(def, Origin::Recovered)?;
            for part in &rt.partitions {
                let part = part.read();
                claimed.extend(part.index_names().into_iter().map(|name| (part.node().id, name)));
            }
            inner.datasets.write().insert(rt.def.name.clone(), rt);
        }
        // 3. a manifest nobody claimed is a dataset or an index whose drop
        // reached the catalog but, before a crash, not all of its files
        for node in &inner.cluster.nodes {
            for name in asterix_storage::lsm::manifest_names(&node.dir)? {
                if !claimed.contains(&(node.id, name.clone())) {
                    asterix_storage::lsm::remove_index_files(&node.dir, &name)?;
                }
            }
        }
        // 4. re-apply, node by node and in log order, the committed
        // operations no component of their partition's primary index covers.
        // They are in no memory component until replayed, so the log stays
        // whole meanwhile. An operation names its dataset by id, which no
        // later dataset shares, and a put carries the bytes that dataset
        // stores — its type was replayed in step 1 — so they go into the
        // primary index as they are.
        let by_id: HashMap<u32, Arc<DatasetRuntime>> =
            inner.datasets.read().values().map(|rt| (rt.def.id, Arc::clone(rt))).collect();
        let replayed = inner.ctx.registry().counter("core.recovery.records_replayed");
        for node in &inner.cluster.nodes {
            node.pause_checkpoints();
            for op in node.take_recovered_ops() {
                let Some(rt) = by_id.get(&op.dataset) else { continue };
                let Some(part) = rt.partitions.get(op.partition as usize) else { continue };
                let mut part = part.write();
                if op.lsn < part.flushed_below() {
                    continue;
                }
                let before = part.stored(&op.key)?;
                if op.is_delete {
                    part.delete_logged(&op.key, before.as_deref(), op.lsn, None)?;
                } else {
                    part.put_logged(&op.key, op.value, None, before.as_deref(), op.lsn, None)?;
                }
                replayed.inc();
            }
            inner.txns.observe_recovered(node.wal.lock().max_txn());
        }
        for node in &inner.cluster.nodes {
            node.resume_checkpoints()?;
        }
        // 5. a debug build checks that every index agrees with its primary
        if cfg!(debug_assertions) {
            for part in by_id.values().flat_map(|rt| &rt.partitions) {
                part.read().audit_indexes()?;
            }
        }
        Ok(())
    }

    // -----------------------------------------------------------------
    // statement execution
    // -----------------------------------------------------------------

    /// Executes a sequence of statements in the given language.
    pub fn execute(&self, text: &str, language: Language) -> Result<Vec<ExecResult>> {
        let stmts = parse(text, language)?;
        let mut out = Vec::with_capacity(stmts.len());
        for stmt in stmts {
            out.push(match stmt {
                Stmt::Ddl(ddl) => {
                    let msg = self.apply_ddl(&ddl)?;
                    ExecResult::Message(msg)
                }
                Stmt::Dml(dml) => ExecResult::Message(self.apply_dml(&dml)?),
                Stmt::Query(q) => ExecResult::Rows(self.run_query_sync(q)?),
            });
        }
        Ok(out)
    }

    /// Convenience: runs SQL++ statements.
    pub fn execute_sqlpp(&self, text: &str) -> Result<Vec<ExecResult>> {
        self.execute(text, Language::Sqlpp)
    }

    /// Convenience: runs one SQL++ query, returning its rows.
    pub fn query(&self, text: &str) -> Result<Vec<Value>> {
        self.last_rows(text, Language::Sqlpp)
    }

    /// Executes `text`; its last statement must be a query, whose rows are
    /// the answer.
    fn last_rows(&self, text: &str, language: Language) -> Result<Vec<Value>> {
        match self.execute(text, language)?.pop() {
            Some(ExecResult::Rows(rows)) => Ok(rows),
            _ => Err(CoreError::Unsupported("statement was not a query".into())),
        }
    }

    /// Opens a client [`Session`] for concurrent query submission
    /// ([`Session::submit`] → [`crate::scheduler::QueryHandle`]).
    pub fn session(&self) -> Session {
        let id = self.inner.next_session.next();
        Session::new(self.clone(), id)
    }

    /// The admission controller serving this instance (pool accounting for
    /// tests and benches).
    pub fn scheduler(&self) -> &Arc<QueryScheduler> {
        &self.inner.sched
    }

    /// Kills cluster node `id` (simulated machine failure — durable state
    /// stays on disk). In-flight and future scans against its partitions
    /// fail with the typed transient `NodeDown` until [`Instance::restart_node`]
    /// (or the retry policy) brings it back.
    pub fn kill_node(&self, id: usize) -> bool {
        self.inner.cluster.kill_node(id)
    }

    /// Restarts a killed node. Returns true when a dead node came back.
    pub fn restart_node(&self, id: usize) -> bool {
        self.inner.cluster.restart_node(id)
    }

    /// Convenience: runs one AQL query, returning its rows.
    pub fn query_aql(&self, text: &str) -> Result<Vec<Value>> {
        self.last_rows(text, Language::Aql)
    }

    fn apply_ddl(&self, ddl: &DdlStmt) -> Result<String> {
        use DdlStmt as D;
        // one statement at a time, from the catalog to `catalog.ddl`: a
        // dataset's id is its `CREATE`'s place in both (see `DatasetDef::id`)
        let mut log = self.inner.ddl_log.lock();
        let msg = self.inner.catalog.write().apply_ddl(ddl)?;
        // A drop is persisted before its storage goes (a crash in between
        // leaves unclaimed manifests, which the next open removes); a create
        // only once its storage exists (a crash in between leaves them too).
        let is_drop = matches!(ddl, D::DropDataset { .. } | D::DropIndex { .. } | D::DropType { .. });
        if is_drop {
            self.persist_ddl(&mut log, &render_ddl(ddl))?;
        }
        let catalog_def = |dataset: &str| {
            let def = self.inner.catalog.read().dataset(dataset).cloned();
            def.ok_or_else(|| {
                CoreError::Catalog(format!("dataset {dataset:?} missing from the catalog"))
            })
        };
        match ddl {
            D::CreateDataset { name, .. } => {
                let rt = self.open_dataset(catalog_def(name)?, Origin::Created).inspect_err(|_| {
                    // not persisted, so not to be counted: see `DatasetDef::id`
                    self.inner.catalog.write().undo_create_dataset(name);
                })?;
                self.inner.datasets.write().insert(name.clone(), rt);
            }
            D::CreateIndex { dataset, name, .. } => {
                let def = catalog_def(dataset)?;
                let idx =
                    def.indexes.iter().find(|i| i.name == *name).cloned().ok_or_else(|| {
                        CoreError::Catalog(format!("index {name:?} missing after create"))
                    })?;
                // rebuild the runtime with the extra index (backfilled)
                let mut datasets = self.inner.datasets.write();
                if let Some(rt) = datasets.get(dataset) {
                    for part in &rt.partitions {
                        part.write().add_index(&idx, &self.inner.config.storage)?;
                    }
                    let (schema, partitions) = (Arc::clone(&rt.schema), rt.partitions.clone());
                    datasets
                        .insert(dataset.clone(), Arc::new(DatasetRuntime { def, schema, partitions }));
                }
            }
            D::DropDataset { name } => {
                let dropped = self.inner.datasets.write().remove(name);
                for part in dropped.iter().flat_map(|rt| &rt.partitions) {
                    part.write().destroy()?;
                }
            }
            D::DropIndex { dataset, name } => {
                let def = catalog_def(dataset)?;
                let mut datasets = self.inner.datasets.write();
                if let Some(rt) = datasets.get(dataset) {
                    for part in &rt.partitions {
                        part.write().remove_index(name)?;
                    }
                    let (schema, partitions) = (Arc::clone(&rt.schema), rt.partitions.clone());
                    datasets
                        .insert(dataset.clone(), Arc::new(DatasetRuntime { def, schema, partitions }));
                }
            }
            _ => {}
        }
        if !is_drop {
            self.persist_ddl(&mut log, &render_ddl(ddl))?;
        }
        Ok(msg)
    }

    fn apply_dml(&self, dml: &DmlStmt) -> Result<String> {
        match dml {
            DmlStmt::InsertUpsert { dataset, is_upsert, value } => {
                let record = self.eval_standalone(value)?;
                let records = match record {
                    Value::Array(items) | Value::Multiset(items) => items,
                    single => vec![single],
                };
                let n = records.len();
                let mut txn = self.begin();
                for r in &records {
                    txn.write(dataset, r, *is_upsert)?;
                }
                txn.commit()?;
                Ok(format!(
                    "{} {n} record(s) into {dataset}",
                    if *is_upsert { "upserted" } else { "inserted" }
                ))
            }
            DmlStmt::Delete { dataset, var, condition } => {
                let alias = var.clone().unwrap_or_else(|| dataset.clone());
                let mut q = Query::default();
                q.from.push(asterix_sqlpp::ast::FromTerm {
                    expr: asterix_sqlpp::ast::Expr::Ident(dataset.clone()),
                    alias: alias.clone(),
                    joins: vec![],
                });
                q.where_clause = condition.clone();
                q.select = Some(asterix_sqlpp::ast::SelectClause::Element(
                    asterix_sqlpp::ast::Expr::Ident(alias),
                ));
                let victims = self.run_query_sync(q)?;
                let def = self
                    .inner
                    .catalog
                    .read()
                    .dataset(dataset)
                    .cloned()
                    .ok_or_else(|| CoreError::Catalog(format!("unknown dataset {dataset:?}")))?;
                let mut txn = self.begin();
                let mut n = 0usize;
                for rec in &victims {
                    let pk = extract_pk(rec, def.primary_key())?;
                    txn.delete(dataset, &pk)?;
                    n += 1;
                }
                txn.commit()?;
                Ok(format!("deleted {n} record(s) from {dataset}"))
            }
            DmlStmt::Load { dataset, adapter, properties } => {
                if adapter != "localfs" {
                    return Err(CoreError::Unsupported(format!("load adapter {adapter:?}")));
                }
                let cfg = crate::external::ExternalConfig::from_properties(properties)?;
                let (ty, registry) = {
                    let cat = self.inner.catalog.read();
                    (cat.dataset_type(dataset)?.clone(), cat.types.clone())
                };
                let records = crate::external::read_external(&cfg, Some(&ty), &registry)?;
                let n = records.len();
                let mut txn = self.begin();
                for r in &records {
                    txn.write(dataset, r, true)?;
                }
                txn.commit()?;
                Ok(format!("loaded {n} record(s) into {dataset}"))
            }
        }
    }

    /// Evaluates a standalone (no FROM scope) expression, e.g. the value of
    /// an INSERT.
    fn eval_standalone(&self, e: &asterix_sqlpp::ast::Expr) -> Result<Value> {
        let mut rows = self.run_query_sync(Query::of_expr(e.clone()))?;
        rows.pop()
            .ok_or_else(|| CoreError::Constraint("expression produced no value".into()))
    }

    /// Synchronous half of the one query path: resolves the memory budget
    /// and deadline and reserves an admission ticket. The only point a query
    /// is refused ([`CoreError::Saturated`]); nothing has executed yet.
    pub(crate) fn enqueue_query(&self, query: Query, opts: &QueryOptions) -> Result<Submission> {
        let sched = &self.inner.sched;
        let budget = opts.memory.unwrap_or(sched.config().default_query_memory).max(1);
        let ticket = sched.enqueue(budget)?;
        Ok(Submission { ticket, query, deadline: opts.deadline })
    }

    /// Runs one query to completion on the calling thread (the
    /// [`Instance::query`] family and DML-internal queries) with the default
    /// options.
    fn run_query_sync(&self, query: Query) -> Result<Vec<Value>> {
        let submission = self.enqueue_query(query, &QueryOptions::default())?;
        let (rows, _profile) = self.run_query_profiled(submission, &QueryControl::new())?;
        Ok(rows)
    }

    /// The one way a query runs: wait for admission, translate/optimize
    /// once, then execute under the admitted budget with the configured
    /// [`RetryPolicy`] — transient failures (node down, injected faults,
    /// partitions dying mid-stream) re-run the job with exponential backoff;
    /// deterministic failures surface immediately.
    ///
    /// `control` carries per-query cancellation (shared with a
    /// [`crate::scheduler::QueryHandle`] when there is one); the admission
    /// reservation is each operator's working memory and is released when
    /// this returns.
    pub(crate) fn run_query_profiled(
        &self,
        submission: Submission,
        control: &QueryControl,
    ) -> Result<(Vec<Value>, asterix_obs::JobProfile)> {
        let Submission { ticket, query, deadline } = submission;
        let admission = self.inner.sched.admit_wait(ticket, &control.token)?;
        let plan = self.compile(&query)?;
        let cfg = JobGenConfig {
            dop: self.inner.config.partitions.max(1),
            op_memory: admission.budget(),
        };
        let count_retry = || self.registry().counter("core.query.retries").inc();
        self.with_retries(&self.inner.config.retry, count_retry, || {
            // A fresh token per attempt: a cancelled or timed-out attempt
            // must not poison its successor. The attempt token is installed
            // in the control slot *before* the query token is re-checked, so
            // a `cancel()` landing between attempts always trips one of the
            // two.
            let token = CancellationToken::new();
            *control.attempt.lock() = Some(token.clone());
            if let Err(e) = control.token.check() {
                *control.attempt.lock() = None;
                return Err(CoreError::Hyracks(e));
            }
            let opts = JobOptions { token: Some(token), deadline };
            let outcome = jobgen::execute(&plan, &cfg, Arc::clone(&self.inner.ctx), opts);
            *control.attempt.lock() = None;
            Ok(outcome?)
        })
    }

    /// The [`RetryPolicy`] protocol, for queries and feed batches alike:
    /// runs `attempt` until it succeeds, fails for good (an error that is
    /// not [transient](CoreError::is_transient)) or has run
    /// `policy.max_attempts` times, and answers with the last outcome — a
    /// transient error, then, means the attempts ran out. Before each retry
    /// the caller counts it (`count_retry`), dead nodes are restarted if the
    /// policy says so, and the backoff, doubling from one retry to the next,
    /// is slept.
    pub(crate) fn with_retries<T>(
        &self,
        policy: &RetryPolicy,
        count_retry: impl Fn(),
        mut attempt: impl FnMut() -> Result<T>,
    ) -> Result<T> {
        let mut attempts = 0u32;
        loop {
            attempts += 1;
            match attempt() {
                Err(e) if attempts < policy.max_attempts && e.is_transient() => {}
                outcome => return outcome,
            }
            count_retry();
            if policy.restart_dead_nodes {
                for id in self.inner.cluster.dead_nodes() {
                    if self.inner.cluster.restart_node(id) {
                        self.registry().counter("core.cluster.node_restarts").inc();
                    }
                }
            }
            let backoff = policy.backoff.saturating_mul(1 << (attempts - 1).min(16));
            if !backoff.is_zero() {
                asterix_storage::lock_order::sleep(backoff);
            }
        }
    }

    /// Cluster-wide metrics snapshot: the dataflow runtime's registry plus
    /// every node's storage registry merged under a `node<N>.` prefix.
    pub fn metrics_snapshot(&self) -> asterix_obs::MetricsSnapshot {
        let mut merged = self.inner.ctx.registry().snapshot();
        for (i, node) in self.inner.cluster.nodes.iter().enumerate() {
            merged.merge_prefixed(&format!("node{i}."), &node.stats().registry().snapshot());
        }
        merged
    }

    /// Compiles the query `text` ends with and returns its optimized logical
    /// plan text (EXPLAIN; also how experiment E9 compares the two languages).
    pub fn explain(&self, text: &str, language: Language) -> Result<String> {
        Ok(self.compile(&parse_query(text, language)?)?.pretty())
    }

    /// The one compile path: translates `query` against the catalog as it
    /// stands and optimizes the plan. Variable ids are numbered per query;
    /// they only have to be unique within a plan.
    fn compile(&self, query: &Query) -> Result<Plan> {
        let mut plan = translate_query(query, &InstanceCatalogView(self), &mut VarGen::new())
            .map_err(CoreError::Sqlpp)?;
        optimize(&mut plan, &self.inner.config.disabled_rules);
        Ok(plan)
    }

    /// Direct record count of a dataset (diagnostics).
    pub fn count(&self, dataset: &str) -> Result<usize> {
        self.dataset_runtime(dataset)?.count()
    }

    /// Physical encoded size of a record under a dataset's layout (after
    /// casting to the dataset type) — E10's storage metric.
    pub fn record_encoded_len(&self, dataset: &str, record: &Value) -> Result<usize> {
        let schema = &self.dataset_runtime(dataset)?.schema;
        Ok(schema.encode(&*schema.cast(record)?)?.len())
    }

    /// Per-partition live record counts (E4's balance metric).
    pub fn partition_counts(&self, dataset: &str) -> Result<Vec<usize>> {
        let rt = self.dataset_runtime(dataset)?;
        rt.partitions
            .iter()
            .map(|p| p.read().count())
            .collect()
    }

    /// Per-partition LSM statistics of a dataset's primary index, or of the
    /// named secondary index (any kind): which partitions a query read, how
    /// many entries it visited there, and what flushing and merging cost.
    pub fn lsm_stats(
        &self,
        dataset: &str,
        index: Option<&str>,
    ) -> Result<Vec<asterix_storage::lsm::LsmStats>> {
        let rt = self.dataset_runtime(dataset)?;
        rt.partitions
            .iter()
            .map(|p| {
                p.read().lsm_stats(index)
            })
            .collect()
    }

    /// Flushes every dataset's LSM memory components to disk.
    pub fn flush_all(&self) -> Result<()> {
        for rt in self.inner.datasets.read().values() {
            rt.flush()?;
        }
        Ok(())
    }

    /// Simulates a crash: drops the instance without flushing memory
    /// components (the WAL survives; reopen with the same `data_dir`).
    pub fn crash(self) -> PathBuf {
        self.inner.remove_root_on_drop.store(false, Ordering::SeqCst);
        self.inner.root.clone()
    }

    // -----------------------------------------------------------------
    // transactional write API (used by DML, feeds, recovery, benches)
    // -----------------------------------------------------------------

    /// Begins an explicit transaction.
    pub fn begin(&self) -> Txn<'_> {
        Txn {
            instance: self,
            id: self.inner.txns.begin(),
            undo: Vec::new(),
            touched: BTreeMap::new(),
            feed_cursors: Vec::new(),
            gave_up_waiting: false,
            finished: false,
        }
    }

    /// The dataflow runtime's metrics registry (feed counters live here).
    pub(crate) fn registry(&self) -> &Arc<asterix_obs::MetricsRegistry> {
        self.inner.ctx.registry()
    }

    /// Last durable sequence number of `feed` (0 = no committed batch): the
    /// highest [`WalRecord::FeedCursor`] a committed transaction logged on
    /// any node, carried across log truncation by the checkpoint that opens
    /// each segment. This is the restart point a push feed
    /// ([`crate::feeds::Feed::resume`]) and a DCP feed
    /// ([`crate::feeds::Feed::shadow`]) ingest from: every record with a
    /// sequence number at or below it is durably committed.
    pub fn feed_durable_seq(&self, feed: &str) -> Result<u64> {
        let nodes = &self.inner.cluster.nodes;
        Ok(nodes.iter().map(|node| node.wal.lock().frontier(feed)).max().unwrap_or(0))
    }

    /// Whether `rt`'s dataset is still there, not dropped since — whatever
    /// has its name now.
    fn is_live(&self, rt: &DatasetRuntime) -> bool {
        self.inner.datasets.read().get(&rt.def.name).is_some_and(|now| now.def.id == rt.def.id)
    }

    /// The runtime handle on dataset `name`: its partitions, for a caller
    /// that reads them through a [`DatasetSource`] of its own.
    pub fn dataset_runtime(&self, name: &str) -> Result<Arc<DatasetRuntime>> {
        self.inner
            .datasets
            .read()
            .get(name)
            .cloned()
            .ok_or_else(|| CoreError::Catalog(format!("unknown dataset {name:?}")))
    }
}

impl Drop for Inner {
    fn drop(&mut self) {
        self.compaction_token.cancel("instance shutdown");
        if self.remove_root_on_drop.load(Ordering::SeqCst) {
            let _ = std::fs::remove_dir_all(&self.root);
        }
    }
}

/// The one statement parser of the instance: `text` in `language`.
fn parse(text: &str, language: Language) -> Result<Vec<Stmt>> {
    match language {
        Language::Sqlpp => asterix_sqlpp::parse_sqlpp(text),
        Language::Aql => asterix_sqlpp::parse_aql(text).map(|stmt| vec![stmt]),
    }
    .map_err(CoreError::Sqlpp)
}

/// The query `text` ends with.
pub(crate) fn parse_query(text: &str, language: Language) -> Result<Query> {
    match parse(text, language)?.pop() {
        Some(Stmt::Query(q)) => Ok(q),
        _ => Err(CoreError::Unsupported("statement was not a query".into())),
    }
}

/// Renders DDL back to SQL++ for the persisted DDL log, so that the text
/// parses back to the statement whatever its names and strings hold: a name
/// is written bare where the lexer reads it back as itself and in backquotes
/// otherwise, a string in double quotes, each escaped as the lexer reads it.
/// A type's field names are always in backquotes, as `catalog.ddl` has always
/// had them, so a statement whose names need no quotes is written byte for
/// byte as it always was.
fn render_ddl(ddl: &DdlStmt) -> String {
    use DdlStmt as D;
    fn quoted(s: &str, quote: char) -> String {
        let mut out = String::from(quote);
        for c in s.chars() {
            if c == quote || c == '\\' {
                out.push('\\');
            }
            out.push(c);
        }
        out.push(quote);
        out
    }
    fn name(s: &str) -> String {
        match asterix_sqlpp::lexer::tokenize(s).as_deref() {
            Ok([token, _eof]) if matches!(&token.kind, TokenKind::Ident(read) if read == s) => s.to_owned(),
            _ => quoted(s, '`'),
        }
    }
    let names = |ns: &[String], sep: &str| ns.iter().map(|n| name(n)).collect::<Vec<_>>().join(sep);
    fn ty(t: &TypeExpr) -> String {
        match t {
            TypeExpr::Named(n) => name(n),
            TypeExpr::Array(inner) => format!("[{}]", ty(inner)),
            TypeExpr::Multiset(inner) => format!("{{{{{}}}}}", ty(inner)),
        }
    }
    match ddl {
        D::CreateType { name: type_name, is_closed, fields } => {
            let fs: Vec<String> = fields
                .iter()
                .map(|f| format!("{}: {}{}", quoted(&f.name, '`'), ty(&f.ty), if f.optional { "?" } else { "" }))
                .collect();
            let closed = if *is_closed { "CLOSED " } else { "" };
            format!("CREATE TYPE {} AS {closed}{{ {} }}", name(type_name), fs.join(", "))
        }
        D::CreateDataset { name: ds, type_name, primary_key } => format!(
            "CREATE DATASET {}({}) PRIMARY KEY {}",
            name(ds),
            name(type_name),
            names(primary_key, ", ")
        ),
        D::CreateExternalDataset { name: ds, type_name, adapter, properties } => {
            let props: Vec<String> =
                properties.iter().map(|(k, v)| format!("({}={})", quoted(k, '"'), quoted(v, '"'))).collect();
            format!(
                "CREATE EXTERNAL DATASET {}({}) USING {} ({})",
                name(ds),
                name(type_name),
                name(adapter),
                props.join(", ")
            )
        }
        D::CreateIndex { name: index, dataset, field, kind } => format!(
            "CREATE INDEX {} ON {}({}) TYPE {}",
            name(index),
            name(dataset),
            names(field, "."),
            match kind {
                IndexKind::BTree => "BTREE",
                IndexKind::RTree => "RTREE",
                IndexKind::Keyword => "KEYWORD",
            }
        ),
        D::DropDataset { name: ds } => format!("DROP DATASET {}", name(ds)),
        D::DropType { name: type_name } => format!("DROP TYPE {}", name(type_name)),
        D::DropIndex { dataset, name: index } => format!("DROP INDEX {}.{}", name(dataset), name(index)),
    }
}

/// An explicit transaction handle (record-level atomicity).
pub struct Txn<'a> {
    instance: &'a Instance,
    id: u64,
    undo: Vec<UndoEntry>,
    /// The partitions written to, by `(dataset id, partition)`, each with
    /// its dataset as the write found it: their indexes hold back what this
    /// transaction wrote until it is over.
    touched: BTreeMap<(u32, u32), Arc<DatasetRuntime>>,
    /// Feed frontiers this transaction advances: committed atomically with
    /// the data as [`WalRecord::FeedCursor`] records.
    feed_cursors: Vec<(String, u64)>,
    /// It once waited [`FLUSH_WAIT_LIMIT`] in vain and waits no more.
    gave_up_waiting: bool,
    finished: bool,
}

impl<'a> Txn<'a> {
    /// The transaction id.
    pub fn id(&self) -> u64 {
        self.id
    }

    /// The partition's write lock, taken once none of its indexes asks this
    /// transaction to wait (see [`DatasetPartition::must_wait`]): a sealed
    /// memory component waits for other transactions to finish, and writing
    /// on would only grow the active one past its budget. The wait is
    /// outside the lock — those transactions need it — and bounded, once per
    /// transaction.
    fn lock_for_write<'p>(
        &mut self,
        part: &'p RwLock<DatasetPartition>,
    ) -> RwLockWriteGuard<'p, DatasetPartition> {
        let start = Instant::now();
        let mut waited = false;
        loop {
            {
                let guard = part.write();
                self.gave_up_waiting |= start.elapsed() >= FLUSH_WAIT_LIMIT;
                if self.gave_up_waiting || !guard.must_wait(self.id) {
                    if waited {
                        let ns = start.elapsed().as_nanos() as u64;
                        guard.node().stats().lsm().add_flush_wait_ns(ns);
                    }
                    return guard;
                }
            }
            waited = true;
            std::thread::yield_now();
        }
    }

    /// Logs, for transaction `txn_id`, the put (`Some`: the storage encoding
    /// of the record) or delete (`None`) of `key` on `part`, a partition of
    /// `rt`, and applies it there over the before-image `before`. The
    /// partition counts as written to from here on. A write of this
    /// transaction's own goes on its undo list once it is logged, whatever
    /// the apply and the flushes it makes due return; a compensation's does
    /// not.
    fn log_and_apply(
        &mut self,
        rt: &Arc<DatasetRuntime>,
        part: &mut DatasetPartition,
        txn_id: u64,
        key: Vec<u8>,
        put: Option<(Vec<u8>, Option<&Value>)>,
        before: Option<Vec<u8>>,
    ) -> Result<()> {
        let (dataset, partition) = (part.dataset_id, part.partition);
        let raw = put.as_ref().map(|(raw, _)| raw.as_slice());
        // WAL first
        let lsn = part
            .node()
            .wal
            .lock()
            .append_write(txn_id, dataset, partition, &key, raw)
            .map_err(CoreError::Storage)?;
        self.touched.entry((dataset, partition)).or_insert_with(|| Arc::clone(rt));
        let applied = match put {
            Some((raw, record)) => part.put_logged(&key, raw, record, before.as_deref(), lsn, Some(self.id)),
            None => part.delete_logged(&key, before.as_deref(), lsn, Some(self.id)),
        };
        if txn_id == self.id {
            self.undo.push(UndoEntry { dataset, partition, pk: key, before });
        }
        applied
    }

    /// Writes (insert or upsert) one record: everything it needs is on the
    /// dataset's runtime, the record is cast once and encoded once, and those
    /// bytes are what the log carries and the primary index stores.
    pub fn write(&mut self, dataset: &str, record: &Value, is_upsert: bool) -> Result<()> {
        let rt = self.instance.dataset_runtime(dataset)?;
        let record = rt.schema.cast(record)?;
        let pk = extract_pk(&record, rt.def.primary_key())?;
        let raw = rt.schema.encode(&record)?;
        let p = partition_of(&pk, rt.partitions.len());
        self.instance.inner.txns.locks.lock(self.id, rt.def.id, &pk)?;
        let mut guard = self.lock_for_write(&rt.partitions[p as usize]);
        guard.node().check_alive()?;
        let before = guard.stored(&pk)?;
        if !is_upsert && before.is_some() {
            return Err(CoreError::Constraint(format!(
                "insert: a record with this key already exists in {dataset}"
            )));
        }
        let put = Some((raw, Some(&*record)));
        self.log_and_apply(&rt, &mut guard, self.id, pk, put, before)
    }

    /// Deletes one record by encoded primary key.
    pub fn delete(&mut self, dataset: &str, pk: &[u8]) -> Result<()> {
        let rt = self.instance.dataset_runtime(dataset)?;
        let p = partition_of(pk, rt.partitions.len());
        self.instance.inner.txns.locks.lock(self.id, rt.def.id, pk)?;
        let mut guard = self.lock_for_write(&rt.partitions[p as usize]);
        guard.node().check_alive()?;
        let before = guard.stored(pk)?;
        self.log_and_apply(&rt, &mut guard, self.id, pk.to_vec(), None, before)
    }

    /// Records that committing this transaction advances `feed`'s durable
    /// frontier to `seq`. The cursor is logged next to the batch's `Commit`
    /// record, so [`Instance::feed_durable_seq`] recovers it iff the batch
    /// itself is durable — the feed resume contract.
    pub fn set_feed_cursor(&mut self, feed: impl Into<String>, seq: u64) {
        self.feed_cursors.push((feed.into(), seq));
    }

    /// The nodes whose logs hold records of this transaction.
    fn touched_nodes(&self) -> BTreeSet<usize> {
        let nodes = self.instance.inner.cluster.nodes.len();
        self.touched.keys().map(|(_, p)| *p as usize % nodes).collect()
    }

    /// Commits: forces the WAL and releases locks. What the transaction
    /// wrote may now be flushed, and is if a memory component was sealed
    /// waiting for it.
    pub fn commit(mut self) -> Result<()> {
        let inner = &self.instance.inner;
        // write a commit record to every node's log that saw this txn, then
        // sync them (simplest correct policy: log+sync on all nodes touched)
        let mut touched = self.touched_nodes();
        if touched.is_empty() && !self.feed_cursors.is_empty() {
            // a batch whose every record was rejected still advances the
            // feed frontier; anchor its cursor on node 0
            touched.insert(0);
        }
        for &n in &touched {
            let node = &inner.cluster.nodes[n];
            // append under the WAL lock, then release it before the sync:
            // GroupCommit lets concurrent committers share the fdatasync
            // (a lone committer performs exactly append→write→fsync, which
            // seeded fault schedules count on)
            let end = {
                let mut wal = node.wal.lock();
                for (feed, seq) in &self.feed_cursors {
                    wal.append(&WalRecord::FeedCursor {
                        txn_id: self.id,
                        feed: feed.clone(),
                        seq: *seq,
                    })
                    .map_err(CoreError::Storage)?;
                }
                wal.append(&WalRecord::Commit { txn_id: self.id })
                    .map_err(CoreError::Storage)?;
                wal.next_lsn()
            };
            node.wal_group
                .sync_through(&node.wal, end)
                .map_err(CoreError::Storage)?;
        }
        self.finish(&touched, true, true)
    }

    /// Aborts: rolls back with before-images, logs the abort, releases locks.
    pub fn abort(mut self) -> Result<()> {
        self.rollback()
    }

    /// The transaction is over: the logs stop holding segments back for it
    /// (a `committed` one's feed cursors become frontiers), its record locks
    /// go, and — unless its abort could not be made durable, `release` false
    /// — every partition it wrote to may flush what it wrote.
    fn finish(&mut self, logged_on: &BTreeSet<usize>, committed: bool, release: bool) -> Result<()> {
        let inner = &self.instance.inner;
        for &n in logged_on {
            inner.cluster.nodes[n].wal.lock().finish_txn(self.id, committed);
        }
        inner.txns.locks.release_all(self.id);
        self.finished = true;
        let mut first_err = None;
        let touched = if release { std::mem::take(&mut self.touched) } else { BTreeMap::new() };
        for ((_, p), rt) in touched {
            // a dataset dropped meanwhile has nothing left to flush
            if !self.instance.is_live(&rt) {
                continue;
            }
            let flushed = rt.partitions[p as usize].write().txn_finished(self.id);
            if let Err(e) = flushed {
                first_err.get_or_insert(e);
            }
        }
        first_err.map_or(Ok(()), Err)
    }

    /// Restores every before-image, newest first, as an operation of a
    /// *compensation transaction* that is logged, applied and committed like
    /// any other: whatever memory component the undone write sits in —
    /// sealed, perhaps, and flushed the moment this transaction is over — a
    /// restart that finds it in a disk component also finds, later in the
    /// log, the committed write that overrides it. The compensation is
    /// synced before the transaction counts as over, that is, before
    /// anything it wrote can be flushed.
    fn rollback(&mut self) -> Result<()> {
        let inner = &self.instance.inner;
        let logged_on = self.touched_nodes();
        // Best-effort: a failure undoing one entry (e.g. an injected crash)
        // must not stop the remaining undos, and the locks must be released
        // regardless — otherwise later transactions block until timeout.
        let mut first_err: Option<CoreError> = None;
        let undone = !self.undo.is_empty();
        let compensation = if undone { inner.txns.begin() } else { 0 };
        while let Some(u) = self.undo.pop() {
            let res = (|| -> Result<()> {
                // a dataset dropped meanwhile has nothing left to restore
                let written = self.touched.get(&(u.dataset, u.partition));
                let Some(rt) = written.filter(|rt| self.instance.is_live(rt)).cloned() else {
                    return Ok(());
                };
                let mut guard = rt.partitions[u.partition as usize].write();
                // the before-image goes back as it was stored, over what
                // this transaction put in its place
                let current = guard.stored(&u.pk)?;
                let put = u.before.map(|raw| (raw, None));
                self.log_and_apply(&rt, &mut guard, compensation, u.pk, put, current)
            })();
            if let Err(e) = res {
                first_err.get_or_insert(e);
            }
        }
        for &n in &logged_on {
            let node = &inner.cluster.nodes[n];
            let res = (|| -> Result<()> {
                let end = {
                    let mut wal = node.wal.lock();
                    if undone {
                        wal.append(&WalRecord::Commit { txn_id: compensation })
                            .map_err(CoreError::Storage)?;
                    }
                    wal.append(&WalRecord::Abort { txn_id: self.id }).map_err(CoreError::Storage)?;
                    wal.finish_txn(compensation, true);
                    wal.next_lsn()
                };
                if undone {
                    node.wal_group.sync_through(&node.wal, end).map_err(CoreError::Storage)?;
                }
                Ok(())
            })();
            if let Err(e) = res {
                first_err.get_or_insert(e);
            }
        }
        // an abort that is not durable must not let what it undid be flushed
        let finished = self.finish(&logged_on, false, first_err.is_none());
        first_err.map_or(finished, Err)
    }
}

impl<'a> Drop for Txn<'a> {
    fn drop(&mut self) {
        if !self.finished {
            let _ = self.rollback();
        }
    }
}

/// Catalog view handed to the query translator: each name a query uses is
/// looked up under the instance's read locks, as the catalog stands then.
struct InstanceCatalogView<'a>(&'a Instance);

impl CatalogView for InstanceCatalogView<'_> {
    fn dataset(&self, name: &str) -> Option<Arc<dyn DataSource>> {
        let inner = &self.0.inner;
        if let Some(rt) = inner.datasets.read().get(name) {
            return Some(DatasetSource::new(Arc::clone(rt)));
        }
        let catalog = inner.catalog.read();
        let def = catalog.dataset(name)?;
        let DatasetKind::External { properties, .. } = &def.kind else {
            return None;
        };
        // an external source owns the registry its records are parsed against
        Some(Arc::new(ExternalSource {
            name: name.to_string(),
            config: crate::external::ExternalConfig::from_properties(properties).ok()?,
            record_type: catalog.types.get(&def.type_name).cloned(),
            registry: catalog.types.clone(),
        }))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use asterix_adm::types::Field;
    use proptest::prelude::*;

    /// A write whose flush fails was logged and applied before the flush:
    /// it is on the transaction's undo list, so that an abort takes it out.
    #[test]
    fn a_write_whose_flush_fails_is_on_the_undo_list() {
        let injector = asterix_storage::FaultInjector::crash_at(3, "_c1.btree", 0);
        let config = InstanceConfig { nodes: 1, partitions: 1, faults: Some(injector.clone()), ..InstanceConfig::default() };
        let db = Instance::open(config).unwrap();
        db.execute_sqlpp("CREATE TYPE T AS { id: int }; CREATE DATASET D(T) PRIMARY KEY id;").unwrap();
        let record = |id| Value::object(vec![("id".into(), Value::Int(id))]);
        let mut txn = db.begin();
        txn.write("D", &record(1), true).unwrap();
        txn.commit().unwrap();
        // sealed, and no open transaction wrote into it: the next write flushes it
        db.dataset_runtime("D").unwrap().partitions[0].write().seal();
        let mut txn = db.begin();
        let written = txn.write("D", &record(2), true);
        assert!(written.is_err() && injector.crashed(), "{written:?}");
        let undo: Vec<&[u8]> = txn.undo.iter().map(|u| u.pk.as_slice()).collect();
        assert_eq!(undo, [asterix_adm::binary::encode_key(&[Value::Int(2)]).as_slice()]);
    }

    /// Names with keywords, spaces, backquotes, quotes, backslashes and
    /// characters past ASCII in them.
    fn name() -> BoxedStrategy<String> {
        let keyword = prop_oneof![
            Just("select"),
            Just("order"),
            Just("from"),
            Just("value"),
            Just("key"),
            Just("dataset"),
            Just("null"),
            Just("missing"),
        ];
        prop_oneof![keyword.prop_map(str::to_owned), "[a-zA-Z0-9_ .;`'\"\\é中{}()-]{1,8}"].boxed()
    }

    fn type_expr() -> BoxedStrategy<TypeExpr> {
        name().prop_map(TypeExpr::Named).prop_recursive(3, 8, 1, |inner| {
            prop_oneof![
                inner.clone().prop_map(|t| TypeExpr::Array(Box::new(t))),
                inner.prop_map(|t| TypeExpr::Multiset(Box::new(t))),
            ]
        })
    }

    fn ddl() -> BoxedStrategy<DdlStmt> {
        let names = || prop::collection::vec(name(), 1..4);
        let field = (name(), type_expr(), any::<bool>())
            .prop_map(|(name, ty, optional)| Field { name, ty, optional });
        let value = "[a-z/.`'\"\\é中 \t\n]{0,10}";
        let kind = prop_oneof![Just(IndexKind::BTree), Just(IndexKind::RTree), Just(IndexKind::Keyword)];
        prop_oneof![
            (name(), any::<bool>(), prop::collection::vec(field, 0..4))
                .prop_map(|(name, is_closed, fields)| DdlStmt::CreateType { name, is_closed, fields }),
            (name(), name(), names()).prop_map(|(name, type_name, primary_key)| {
                DdlStmt::CreateDataset { name, type_name, primary_key }
            }),
            (name(), name(), name(), prop::collection::vec((value, value), 1..3)).prop_map(
                |(name, type_name, adapter, properties)| DdlStmt::CreateExternalDataset {
                    name,
                    type_name,
                    adapter,
                    properties,
                }
            ),
            (name(), name(), names(), kind)
                .prop_map(|(name, dataset, field, kind)| DdlStmt::CreateIndex { name, dataset, field, kind }),
            name().prop_map(|name| DdlStmt::DropDataset { name }),
            name().prop_map(|name| DdlStmt::DropType { name }),
            (name(), name()).prop_map(|(dataset, name)| DdlStmt::DropIndex { dataset, name }),
        ]
        .boxed()
    }

    /// A statement whose names need no quotes is written as `catalog.ddl`
    /// has always had it, so the files of existing data directories and
    /// those written now hold the same text.
    #[test]
    fn a_statement_of_plain_names_renders_as_it_always_did() {
        for text in [
            "CREATE TYPE T AS { `id`: int, `tags`: [string], `v`: {{int}}? }",
            "CREATE TYPE L AS CLOSED { `a`: string }",
            "CREATE DATASET D(T) PRIMARY KEY id, v",
            "CREATE EXTERNAL DATASET Log(L) USING localfs ((\"path\"=\"/tmp/x\"), (\"format\"=\"adm\"))",
            "CREATE INDEX byTags ON D(tags) TYPE KEYWORD",
            "CREATE INDEX byV ON D(v.w) TYPE BTREE",
            "DROP INDEX D.byTags",
            "DROP DATASET D",
            "DROP TYPE T",
        ] {
            let Some(Stmt::Ddl(stmt)) = parse(text, Language::Sqlpp).unwrap().pop() else {
                panic!("{text} is not DDL");
            };
            assert_eq!(render_ddl(&stmt), text);
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// What `catalog.ddl` holds parses back to the statement it was
        /// rendered from, whatever its names and strings hold.
        #[test]
        fn a_rendered_statement_parses_back_to_itself(stmt in ddl()) {
            let text = render_ddl(&stmt);
            let parsed = parse(&text, Language::Sqlpp).unwrap_or_else(|e| panic!("{text}: {e}"));
            prop_assert_eq!(parsed, vec![Stmt::Ddl(stmt)], "{}", text);
        }
    }
}
