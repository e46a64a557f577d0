//! The [`Database`] facade.

use crate::catalog::{decode_catalog, encode_catalog, CatalogMeta, IndexMeta, TableMeta};
use crate::error::DbError;
use crate::shared::{live_field, SharedAdapter};
use crate::txn::{Transaction, WriteOp};
use mmdb_exec::plan::{
    AttrInfo, BoxedOperator, DistinctOp, FullScanOp, HashLookupOp, JoinKernel, JoinOp, NodeId,
    PlanCatalog, PlanNode, PlanNodeKind, PostFilterOp, PrecomputedKernel, ProjectOp, SeqFilterOp,
    SidesKernel, TreeJoinKernel, TreeLookupOp, TreeMergeKernel,
};
use mmdb_exec::run_tasks;
use mmdb_exec::{
    CacheReport, CachedMode, CachedReadOp, DeltaApplyOp, DeltaEvent, ExecConfig, IndexAvailability,
    JoinMethod, MemoizeOp, Predicate, RefilterOp, ReuseCache, SelectPath, StoreTicket,
    VersionSource,
};
use mmdb_index::sort::run_sort;
use mmdb_index::stats::Counters;
use mmdb_index::traits::{OrderedIndex, UnorderedIndex};
use mmdb_index::{ModifiedLinearHash, TTree, TTreeConfig};
use mmdb_lock::{LockManager, LockMode, LockTarget, TxnId};
use mmdb_recovery::{MemDisk, PartitionKey, RecoveryManager, RestartPhase, StableStore};
use mmdb_storage::{
    value_hash, value_order_tag, AttrType, OwnedValue, Partition, PartitionConfig, Relation,
    ResultDescriptor, Schema, TupleId,
};
use parking_lot::{Mutex, RwLock};
use std::collections::{HashMap, HashSet};
use std::marker::PhantomData;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Identifies a table (position in catalog order).
pub type TableId = usize;

/// The two dynamic index structures the MM-DBMS design selected (§2.2):
/// the T-Tree for ordered data and Modified Linear Hashing for unordered
/// data.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexKind {
    /// T-Tree: ordered, supports ranges, merge joins, ordered scans.
    TTree,
    /// Modified Linear Hashing: exact match only, fastest lookups.
    Hash,
}

enum AnyIndex {
    TTree(TTree<SharedAdapter>),
    Hash(ModifiedLinearHash<SharedAdapter>),
}

impl AnyIndex {
    fn insert(&mut self, tid: TupleId) {
        match self {
            AnyIndex::TTree(t) => t.insert(tid),
            AnyIndex::Hash(h) => h.insert(tid),
        }
    }

    fn delete_entry(&mut self, tid: &TupleId) -> bool {
        match self {
            AnyIndex::TTree(t) => t.delete_entry(tid),
            AnyIndex::Hash(h) => h.delete_entry(tid),
        }
    }

    fn len(&self) -> usize {
        match self {
            AnyIndex::TTree(t) => t.len(),
            AnyIndex::Hash(h) => h.len(),
        }
    }

    fn validate(&self) -> Result<(), String> {
        match self {
            AnyIndex::TTree(t) => t.validate(),
            AnyIndex::Hash(h) => h.validate(),
        }
    }
}

/// Run length for the bulk-rebuild sort kernel: long enough that runs
/// stay L2-resident for `(u64, TupleId)` pairs (the same figure the
/// query kernels use).
const REBUILD_RUN_LEN: usize = 16_384;

/// Build one index over the current population of `rel` through the bulk
/// paths (DESIGN.md §16): snapshot `(key tag, tid)` pairs under a
/// **single** read guard with a monomorphic loop — the tuple-at-a-time
/// alternative re-locks the relation and re-dispatches through
/// [`AnyIndex`] for every tuple — then either run-sort + bottom-up
/// T-Tree construction or a pre-sized hash fill. Returns the index and
/// its entry count.
fn build_index_bulk(
    rel: &Arc<RwLock<Relation>>,
    attr: usize,
    kind: IndexKind,
    param: u32,
) -> (AnyIndex, usize) {
    let adapter = SharedAdapter::new(Arc::clone(rel), attr);
    match kind {
        IndexKind::TTree => {
            let tagged = {
                let r = rel.read();
                let mut v: Vec<(u64, TupleId)> = r
                    .iter_tids()
                    .map(|tid| (value_order_tag(&live_field(&r, tid, attr)), tid))
                    .collect();
                // Tag-first comparison: unequal tags decide without
                // touching the tuple (the §2.2 pointer-chase); ties fall
                // back to the full value order. Equal keys drain in tid
                // (insertion) order across runs.
                let counters = Counters::default();
                run_sort(&mut v, REBUILD_RUN_LEN, &counters, &mut |a, b| {
                    a.0.cmp(&b.0).then_with(|| {
                        live_field(&r, a.1, attr).total_cmp(&live_field(&r, b.1, attr))
                    })
                });
                v
            };
            let n = tagged.len();
            let tree = TTree::build_from_sorted(
                adapter,
                TTreeConfig::with_node_size(param as usize),
                tagged,
            );
            (AnyIndex::TTree(tree), n)
        }
        IndexKind::Hash => {
            let hashed: Vec<(u64, TupleId)> = {
                let r = rel.read();
                r.iter_tids()
                    .map(|tid| (value_hash(&live_field(&r, tid, attr)), tid))
                    .collect()
            };
            let n = hashed.len();
            let mut h = ModifiedLinearHash::new(adapter, param as usize);
            h.bulk_fill_hashed(hashed);
            (AnyIndex::Hash(h), n)
        }
    }
}

struct IndexDef {
    name: String,
    table: TableId,
    attr: usize,
    kind: IndexKind,
    param: u32,
    index: AnyIndex,
}

struct Table {
    name: String,
    rel: Arc<RwLock<Relation>>,
}

/// Wall-clock time spent in each restart phase (§2.4 order). Catalog and
/// working set gate availability; background and index rebuild gate full
/// restoration.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RecoveryTimings {
    /// Reading + decoding the catalog shadow slots.
    pub catalog: Duration,
    /// Fetching, merging, decoding, and installing working-set partitions.
    pub working_set: Duration,
    /// Same for the remainder of the database.
    pub background: Duration,
    /// Bulk-rebuilding every index over the reloaded relations.
    pub index_rebuild: Duration,
}

/// How one index's restart rebuild went.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct IndexRebuildStat {
    /// Index name (catalog order).
    pub name: String,
    /// Entries loaded into the rebuilt structure.
    pub entries: usize,
    /// Wall-clock time for this index's rebuild task.
    pub elapsed: Duration,
}

/// A recovered-partition record: which partition, in which restart phase.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveryReport {
    /// `(table name, partition, phase)` in load order — working set first.
    pub loaded: Vec<(String, u32, RestartPhase)>,
    /// Indexes rebuilt after reload.
    pub indexes_rebuilt: usize,
    /// Per-phase wall times.
    pub timings: RecoveryTimings,
    /// Per-index rebuild statistics, in catalog order.
    pub index_stats: Vec<IndexRebuildStat>,
}

/// The memory-resident database (§2).
pub struct Database<S: StableStore = MemDisk> {
    tables: Vec<Table>,
    indexes: Vec<IndexDef>,
    locks: Arc<LockManager>,
    recovery: RecoveryManager<S>,
    exec: ExecConfig,
    /// Monotone catalog version; selects which shadow slot the next
    /// persist writes (see [`Database::persist_catalog`]). Doubles as the
    /// reuse cache's epoch stamp: index creation changes access paths
    /// (and thus result order), so entries never survive it.
    catalog_epoch: u64,
    /// Plan-keyed intermediate-result reuse cache (queries take `&self`,
    /// hence the cell). Consulted only when [`ExecConfig::cache`] or the
    /// per-query `QueryBuilder::cache(true)` knob asks for it.
    cache: Mutex<ReuseCache>,
}

/// Partition number used as a per-table append fence: transactional
/// readers S-lock it alongside every real partition of a table, and
/// transactions that grow the table (inserts, or updates that may
/// relocate a tuple) X-lock it — so a committed insert can never surface
/// as a phantom inside a concurrent reader's scan. Real partitions never
/// reach this id.
pub const APPEND_FENCE: u32 = u32::MAX;

/// Shadow slots for the catalog blob. Persists alternate between them,
/// so a torn write (power cut mid-catalog-write) can destroy at most
/// one slot — restart always finds the previous intact epoch in the
/// other.
const CATALOG_SLOTS: [&str; 2] = ["catalog.a", "catalog.b"];

impl Database<MemDisk> {
    /// A database whose disk copy is simulated in memory.
    #[must_use]
    pub fn in_memory() -> Self {
        Database::with_disk(MemDisk::new())
    }
}

impl Default for Database<MemDisk> {
    fn default() -> Self {
        Database::in_memory()
    }
}

impl<S: StableStore> Database<S> {
    /// A database over an explicit disk-copy backend (e.g.
    /// [`mmdb_recovery::FileDisk`]).
    pub fn with_disk(disk: S) -> Self {
        Database {
            tables: Vec::new(),
            indexes: Vec::new(),
            locks: Arc::new(LockManager::default()),
            recovery: RecoveryManager::new(disk),
            exec: ExecConfig::default(),
            catalog_epoch: 0,
            cache: Mutex::new(ReuseCache::default()),
        }
    }

    // ---- execution config ---------------------------------------------

    /// The execution config select/join/query pipelines run with.
    #[must_use]
    pub fn exec_config(&self) -> ExecConfig {
        self.exec
    }

    /// Set the full execution config for subsequent operations.
    pub fn set_exec_config(&mut self, cfg: ExecConfig) {
        self.exec = cfg;
    }

    /// Set the degree of parallelism for subsequent operations, keeping
    /// every other [`ExecConfig`] field (e.g. the parallel threshold)
    /// intact. `dop = 1` restores the strictly serial (paper) code paths.
    pub fn set_parallelism(&mut self, dop: usize) {
        self.exec = self.exec.override_dop(dop);
    }

    // ---- reuse cache ---------------------------------------------------

    /// Lifetime counters of the intermediate-result reuse cache.
    #[must_use]
    pub fn cache_report(&self) -> CacheReport {
        self.cache.lock().report()
    }

    /// Drop every cached intermediate result (counters are kept).
    pub fn clear_cache(&self) {
        self.cache.lock().clear();
    }

    /// Set the reuse cache's retention budget, evicting down if needed.
    pub fn set_cache_capacity_bytes(&self, bytes: usize) {
        self.cache.lock().set_capacity_bytes(bytes);
    }

    /// Run `f` against the reuse cache (for inspection and checking;
    /// queries go through [`Database::query`] and touch it themselves).
    pub fn with_cache<R>(&self, f: impl FnOnce(&ReuseCache) -> R) -> R {
        f(&self.cache.lock())
    }

    pub(crate) fn reuse_cache(&self) -> &Mutex<ReuseCache> {
        &self.cache
    }

    // ---- catalog -------------------------------------------------------

    fn table_id(&self, name: &str) -> Result<TableId, DbError> {
        self.tables
            .iter()
            .position(|t| t.name == name)
            .ok_or_else(|| DbError::NoSuchTable(name.to_string()))
    }

    fn table(&self, id: TableId) -> &Table {
        &self.tables[id]
    }

    /// Create a table with default partition sizing.
    pub fn create_table(&mut self, name: &str, schema: Schema) -> Result<TableId, DbError> {
        self.create_table_with_config(name, schema, PartitionConfig::default())
    }

    /// Create a table with explicit partition sizing.
    pub fn create_table_with_config(
        &mut self,
        name: &str,
        schema: Schema,
        config: PartitionConfig,
    ) -> Result<TableId, DbError> {
        if self.tables.iter().any(|t| t.name == name) {
            return Err(DbError::Duplicate(name.to_string()));
        }
        let rel = Relation::new(name, schema, config);
        self.tables.push(Table {
            name: name.to_string(),
            rel: Arc::new(RwLock::new(rel)),
        });
        self.persist_catalog()?;
        Ok(self.tables.len() - 1)
    }

    /// Create an index with the default parameter (T-Tree node size 30 /
    /// hash target chain length 2).
    pub fn create_index(
        &mut self,
        name: &str,
        table: &str,
        attr: &str,
        kind: IndexKind,
    ) -> Result<(), DbError> {
        let param = match kind {
            IndexKind::TTree => 30,
            IndexKind::Hash => 2,
        };
        self.create_index_with_param(name, table, attr, kind, param)
    }

    /// Create an index with an explicit structure parameter.
    pub fn create_index_with_param(
        &mut self,
        name: &str,
        table: &str,
        attr: &str,
        kind: IndexKind,
        param: u32,
    ) -> Result<(), DbError> {
        if self.indexes.iter().any(|i| i.name == name) {
            return Err(DbError::Duplicate(name.to_string()));
        }
        let t = self.table_id(table)?;
        let attr_idx = self.table(t).rel.read().schema().index_of(attr)?;
        // Bulk-build over the existing population: one key snapshot under
        // a single read guard, then run-sort + bottom-up construction
        // (T-Tree) or a pre-sized fill (hash) — the same path restart uses.
        let (index, _entries) = build_index_bulk(&self.table(t).rel, attr_idx, kind, param);
        self.indexes.push(IndexDef {
            name: name.to_string(),
            table: t,
            attr: attr_idx,
            kind,
            param,
            index,
        });
        self.persist_catalog()?;
        Ok(())
    }

    pub(crate) fn persist_catalog(&mut self) -> Result<(), DbError> {
        let meta = CatalogMeta {
            tables: self
                .tables
                .iter()
                .map(|t| {
                    let r = t.rel.read();
                    TableMeta {
                        name: t.name.clone(),
                        schema: r.schema().clone(),
                        config: r.config(),
                    }
                })
                .collect(),
            indexes: self
                .indexes
                .iter()
                .map(|i| IndexMeta {
                    name: i.name.clone(),
                    table: i.table as u32,
                    attr: i.attr as u32,
                    kind: i.kind,
                    param: i.param,
                })
                .collect(),
        };
        // Shadow write: bump the epoch, prefix it to the blob, and write
        // the slot the *previous* epoch did not use. A crash mid-write
        // tears this slot only; the other still decodes at the old epoch.
        self.catalog_epoch += 1;
        let mut blob = self.catalog_epoch.to_le_bytes().to_vec();
        blob.extend_from_slice(&encode_catalog(&meta));
        let slot = CATALOG_SLOTS[(self.catalog_epoch % 2) as usize];
        self.recovery.write_meta(slot, &blob)?;
        Ok(())
    }

    /// Names of all tables, in id order.
    #[must_use]
    pub fn table_names(&self) -> Vec<String> {
        self.tables.iter().map(|t| t.name.clone()).collect()
    }

    /// Number of live tuples in a table.
    pub fn len(&self, table: &str) -> Result<usize, DbError> {
        Ok(self.table(self.table_id(table)?).rel.read().len())
    }

    /// The shared handle to a table's relation (the query layer borrows
    /// several relations at once for materialization).
    pub(crate) fn relation_handle(&self, table: &str) -> Result<Arc<RwLock<Relation>>, DbError> {
        Ok(Arc::clone(&self.table(self.table_id(table)?).rel))
    }

    /// Every table's relation handle, in table-id order (checkpoint
    /// work-list construction).
    pub(crate) fn relations(&self) -> impl Iterator<Item = &Arc<RwLock<Relation>>> {
        self.tables.iter().map(|t| &t.rel)
    }

    /// Relation handle by table id (checkpoint step path).
    pub(crate) fn relation_by_id(&self, t: TableId) -> Arc<RwLock<Relation>> {
        Arc::clone(&self.tables[t].rel)
    }

    /// Mutable recovery manager (checkpoint step path).
    pub(crate) fn recovery_mut(&mut self) -> &mut RecoveryManager<S> {
        &mut self.recovery
    }

    /// Run a closure against the table's relation (read-only).
    pub fn with_relation<R>(
        &self,
        table: &str,
        f: impl FnOnce(&Relation) -> R,
    ) -> Result<R, DbError> {
        let t = self.table_id(table)?;
        let r = self.table(t).rel.read();
        Ok(f(&r))
    }

    /// All live tuple ids of a table (via storage; the primary index scan
    /// would yield the same set).
    pub fn tids(&self, table: &str) -> Result<Vec<TupleId>, DbError> {
        let t = self.table_id(table)?;
        Ok(self.table(t).rel.read().tids())
    }

    /// Check every index invariant (tests / debugging).
    pub fn validate_indexes(&self) -> Result<(), String> {
        for i in &self.indexes {
            i.index.validate().map_err(|e| format!("{}: {e}", i.name))?;
            let expect = self.table(i.table).rel.read().len();
            if i.index.len() != expect {
                return Err(format!(
                    "{}: holds {} entries, relation has {expect}",
                    i.name,
                    i.index.len()
                ));
            }
        }
        Ok(())
    }

    // ---- transactions ---------------------------------------------------

    /// Open a transaction.
    pub fn begin(&self) -> Transaction {
        Transaction::new(self.locks.begin())
    }

    /// Buffer an insert.
    pub fn insert(
        &self,
        txn: &mut Transaction,
        table: &str,
        values: Vec<OwnedValue>,
    ) -> Result<(), DbError> {
        let t = self.table_id(table)?;
        if !self.indexes.iter().any(|i| i.table == t) {
            return Err(DbError::MissingIndex(table.to_string()));
        }
        self.table(t).rel.read().schema().check_row(&values)?;
        txn.writes.push(WriteOp::Insert { table: t, values });
        Ok(())
    }

    /// Buffer a single-attribute update.
    pub fn update(
        &self,
        txn: &mut Transaction,
        table: &str,
        tid: TupleId,
        attr: &str,
        value: OwnedValue,
    ) -> Result<(), DbError> {
        let t = self.table_id(table)?;
        let rel = self.table(t).rel.read();
        let attr_idx = rel.schema().index_of(attr)?;
        let a = rel.schema().attr(attr_idx)?;
        if !a.ty.admits(&value) {
            return Err(DbError::Storage(mmdb_storage::StorageError::TypeMismatch {
                attr: attr_idx,
                expected: a.ty.name(),
                found: value.type_name(),
            }));
        }
        rel.resolve(tid)?;
        drop(rel);
        txn.writes.push(WriteOp::Update {
            table: t,
            tid,
            attr: attr_idx,
            value,
        });
        Ok(())
    }

    /// Buffer a delete.
    pub fn delete(&self, txn: &mut Transaction, table: &str, tid: TupleId) -> Result<(), DbError> {
        let t = self.table_id(table)?;
        self.table(t).rel.read().resolve(tid)?;
        txn.writes.push(WriteOp::Delete { table: t, tid });
        Ok(())
    }

    /// Commit: apply the write set (X-locking each touched partition),
    /// write partition after-images to the stable log buffer, and release
    /// all locks (strict 2PL). Returns the tuple ids of the transaction's
    /// inserts, in order.
    pub fn commit(&mut self, mut txn: Transaction) -> Result<Vec<TupleId>, DbError> {
        let writes = std::mem::take(&mut txn.writes);
        let inserted = self.apply_and_log(txn.id, writes)?;
        self.recovery.commit(txn.id.0);
        self.locks.release_all(txn.id);
        Ok(inserted)
    }

    /// The partition locks a transaction's write set will need at commit:
    /// resolved partitions for updates/deletes, predicted landing
    /// partitions for inserts, and the [`APPEND_FENCE`] for any table the
    /// transaction may grow. Sorted and deduplicated (a global acquisition
    /// order keeps lock-footprint reasoning simple; deadlocks are still
    /// detected, not prevented, because reads interleave). Predictions are
    /// only exact while the catalog latch is held — the transaction engine
    /// re-validates before applying.
    pub(crate) fn commit_lock_targets(
        &self,
        txn: &Transaction,
    ) -> Result<Vec<LockTarget>, DbError> {
        let mut targets = Vec::new();
        let mut inserts: HashMap<TableId, Vec<Vec<OwnedValue>>> = HashMap::new();
        for op in &txn.writes {
            match op {
                WriteOp::Insert { table, values } => {
                    inserts.entry(*table).or_default().push(values.clone());
                }
                WriteOp::Update {
                    table, tid, value, ..
                } => {
                    let phys = self.table(*table).rel.read().resolve(*tid)?;
                    targets.push(LockTarget::new(*table as u32, phys.partition));
                    if matches!(value, OwnedValue::Str(_) | OwnedValue::PtrList(_)) {
                        // A heap-bearing update can overflow its partition
                        // and relocate the tuple wherever an insert would
                        // land — fence the table like an insert does.
                        let rel = self.table(*table).rel.read();
                        let n = rel.partition_count() as u32;
                        for p in n.saturating_sub(2)..=n {
                            targets.push(LockTarget::new(*table as u32, p));
                        }
                        targets.push(LockTarget::new(*table as u32, APPEND_FENCE));
                    }
                }
                WriteOp::Delete { table, tid } => {
                    let phys = self.table(*table).rel.read().resolve(*tid)?;
                    targets.push(LockTarget::new(*table as u32, phys.partition));
                }
            }
        }
        for (t, rows) in inserts {
            let rel = self.table(t).rel.read();
            for p in rel.predict_inserts(&rows) {
                targets.push(LockTarget::new(t as u32, p));
            }
            targets.push(LockTarget::new(t as u32, APPEND_FENCE));
        }
        targets.sort_unstable();
        targets.dedup();
        Ok(targets)
    }

    /// Apply and write-ahead-log a transaction's writes without ending the
    /// transaction: everything [`Database::commit`] does up to (but not
    /// including) the commit record and lock release. The transaction
    /// engine calls this under its latch with all partition locks already
    /// held, then group-commits the record and releases.
    pub(crate) fn apply_and_log(
        &mut self,
        txn_id: TxnId,
        writes: Vec<WriteOp>,
    ) -> Result<Vec<TupleId>, DbError> {
        // Pre-validate so the apply loop cannot fail halfway.
        let mut doomed: HashSet<(usize, TupleId)> = HashSet::new();
        for op in &writes {
            match op {
                WriteOp::Update { table, tid, .. } => {
                    if doomed.contains(&(*table, *tid)) {
                        return Err(DbError::Storage(mmdb_storage::StorageError::SlotEmpty(
                            *tid,
                        )));
                    }
                    self.table(*table).rel.read().resolve(*tid)?;
                }
                WriteOp::Delete { table, tid } => {
                    if !doomed.insert((*table, *tid)) {
                        return Err(DbError::Storage(mmdb_storage::StorageError::SlotEmpty(
                            *tid,
                        )));
                    }
                    self.table(*table).rel.read().resolve(*tid)?;
                }
                WriteOp::Insert { .. } => {}
            }
        }

        let mut inserted = Vec::new();
        let mut touched: HashSet<usize> = HashSet::new();
        for op in writes {
            match op {
                WriteOp::Insert { table, values } => {
                    let tid = self.table(table).rel.write().insert(&values)?;
                    self.locks.lock(
                        txn_id,
                        LockTarget::new(table as u32, tid.partition),
                        LockMode::Exclusive,
                    )?;
                    for idx in self.indexes.iter_mut().filter(|i| i.table == table) {
                        idx.index.insert(tid);
                    }
                    self.note_cache_write(table, DeltaEvent::Insert(tid));
                    inserted.push(tid);
                    touched.insert(table);
                }
                WriteOp::Update {
                    table,
                    tid,
                    attr,
                    value,
                } => {
                    let phys = self.table(table).rel.read().resolve(tid)?;
                    self.locks.lock(
                        txn_id,
                        LockTarget::new(table as u32, phys.partition),
                        LockMode::Exclusive,
                    )?;
                    // Remove stale index entries while the old value is
                    // still readable.
                    for idx in self
                        .indexes
                        .iter_mut()
                        .filter(|i| i.table == table && i.attr == attr)
                    {
                        idx.index.delete_entry(&tid);
                    }
                    self.table(table)
                        .rel
                        .write()
                        .update_field(tid, attr, &value)?;
                    for idx in self
                        .indexes
                        .iter_mut()
                        .filter(|i| i.table == table && i.attr == attr)
                    {
                        idx.index.insert(tid);
                    }
                    // A heap-overflow relocation moves the tuple to a new
                    // physical slot: cached physical pointers on the table
                    // can no longer be patched, only dropped.
                    let phys_after = self.table(table).rel.read().resolve(tid)?;
                    let event = if phys_after == phys {
                        DeltaEvent::Update(phys)
                    } else {
                        DeltaEvent::Barrier
                    };
                    self.note_cache_write(table, event);
                    touched.insert(table);
                }
                WriteOp::Delete { table, tid } => {
                    let phys = self.table(table).rel.read().resolve(tid)?;
                    self.locks.lock(
                        txn_id,
                        LockTarget::new(table as u32, phys.partition),
                        LockMode::Exclusive,
                    )?;
                    for idx in self.indexes.iter_mut().filter(|i| i.table == table) {
                        idx.index.delete_entry(&tid);
                    }
                    self.table(table).rel.write().delete(tid)?;
                    self.note_cache_write(table, DeltaEvent::Delete(phys));
                    touched.insert(table);
                }
            }
        }

        // Write-ahead the after-images of every dirtied partition, then
        // commit the log.
        for t in touched {
            let rel_handle = Arc::clone(&self.table(t).rel);
            let mut rel = rel_handle.write();
            for p in rel.dirty_partitions() {
                let image = rel.partition_image(p)?;
                self.recovery
                    .log_update(txn_id.0, PartitionKey::new(t as u32, p), image);
            }
            rel.clear_dirty();
        }
        Ok(inserted)
    }

    /// Feed one applied write into the reuse cache's delta logs. Both
    /// commit paths ([`Database::commit`] and the transaction engine)
    /// route through [`Database::apply_and_log`], so this is the single
    /// append site: it reads the table's partition versions *after* the
    /// write, extending each hot maintained entry's version chain by
    /// exactly the link the write created and dropping every other entry
    /// over the table.
    fn note_cache_write(&self, table: TableId, event: DeltaEvent) {
        let mut cache = self.cache.lock();
        if cache.is_empty() {
            return;
        }
        let t = self.table(table);
        let rel = t.rel.read();
        cache.note_write(&t.name, event, rel.partition_versions());
    }

    /// Abort: discard the buffered writes — "the log entry is removed and
    /// no undo is needed" (nothing touched the database).
    pub fn abort(&mut self, txn: Transaction) {
        self.recovery.abort(txn.id.0);
        self.locks.release_all(txn.id);
    }

    // ---- transaction-engine plumbing -----------------------------------

    /// Shared handle to the lock manager. Engine sessions block on
    /// partition locks through it *without* holding the engine latch.
    pub(crate) fn lock_manager(&self) -> Arc<LockManager> {
        Arc::clone(&self.locks)
    }

    /// Write the commit record for `txn_id` into the stable log buffer
    /// (the group-commit leader batches these, then flushes once).
    pub(crate) fn mark_committed(&mut self, txn_id: TxnId) {
        self.recovery.commit(txn_id.0);
    }

    /// Drop `txn_id`'s log entries, leaving its locks to the caller (an
    /// engine [`Txn`](crate::Txn) releases its own).
    pub(crate) fn mark_aborted(&mut self, txn_id: TxnId) {
        self.recovery.abort(txn_id.0);
    }

    /// Resolve a table name to its id (sessions key lock targets by id).
    pub(crate) fn resolve_table(&self, name: &str) -> Result<TableId, DbError> {
        self.table_id(name)
    }

    /// Current partition count of table `t`.
    pub(crate) fn table_partition_count(&self, t: TableId) -> usize {
        self.table(t).rel.read().partition_count()
    }

    // ---- recovery plumbing ---------------------------------------------

    /// One cycle of the active log device (pull committed records,
    /// propagate to the disk copy).
    pub fn run_log_device(&mut self) -> Result<(), DbError> {
        self.recovery.run_log_device()?;
        Ok(())
    }

    /// Log-device diagnostics: `(records pulled, images flushed)`.
    #[must_use]
    pub fn log_device_counters(&self) -> (u64, u64) {
        self.recovery.device_counters()
    }

    /// Simulate a crash: the memory-resident database (relations and
    /// indexes) is lost; the stable log buffer, log device, and disk copy
    /// survive.
    #[must_use]
    pub fn crash(mut self) -> CrashedDatabase<S> {
        self.recovery.crash_volatile();
        CrashedDatabase {
            recovery: self.recovery,
        }
    }

    // ---- queries ---------------------------------------------------------

    /// Availability of indexes on `(table, attr)`.
    fn availability(&self, table: TableId, attr: usize) -> IndexAvailability {
        IndexAvailability {
            ttree: self
                .indexes
                .iter()
                .any(|i| i.table == table && i.attr == attr && i.kind == IndexKind::TTree),
            hash: self
                .indexes
                .iter()
                .any(|i| i.table == table && i.attr == attr && i.kind == IndexKind::Hash),
        }
    }

    fn find_ttree(&self, table: TableId, attr: usize) -> Option<&TTree<SharedAdapter>> {
        self.indexes.iter().find_map(|i| match &i.index {
            AnyIndex::TTree(t) if i.table == table && i.attr == attr => Some(t),
            _ => None,
        })
    }

    fn find_hash(&self, table: TableId, attr: usize) -> Option<&ModifiedLinearHash<SharedAdapter>> {
        self.indexes.iter().find_map(|i| match &i.index {
            AnyIndex::Hash(h) if i.table == table && i.attr == attr => Some(h),
            _ => None,
        })
    }

    /// Bind a planned operator tree to this database's relations and
    /// indices. `tables` is the plan's binding order, `rels` the borrowed
    /// relation per position, `desc` the projection descriptor (consumed
    /// by duplicate elimination). `tickets` marks subtrees whose result
    /// the reuse cache wants retained: the matching operator is wrapped
    /// in a transparent [`MemoizeOp`] that stores its output on success.
    pub(crate) fn bind_plan<'b>(
        &'b self,
        node: &PlanNode,
        tables: &[String],
        rels: &[&'b Relation],
        desc: &ResultDescriptor,
        tickets: &HashMap<NodeId, StoreTicket>,
    ) -> Result<BoxedOperator<'b>, DbError> {
        let position = |table: &str| -> Result<usize, DbError> {
            tables
                .iter()
                .position(|t| t == table)
                .ok_or_else(|| DbError::BadQuery(format!("table {table} is not bound")))
        };
        let op: BoxedOperator<'b> = match &node.kind {
            PlanNodeKind::Scan { table } => {
                let rel = rels[position(table)?];
                Box::new(FullScanOp { id: node.id, rel })
            }
            PlanNodeKind::Select {
                table,
                attr,
                pred,
                path,
            } => {
                let rel = rels[position(table)?];
                let t = self.table_id(table)?;
                let attr_idx = rel.schema().index_of(attr)?;
                match path {
                    SelectPath::HashLookup => {
                        let idx = self.find_hash(t, attr_idx).ok_or_else(|| {
                            DbError::Catalog("planned hash index disappeared".into())
                        })?;
                        let Predicate::Eq(key) = pred else {
                            return Err(DbError::BadQuery(
                                "hash lookup planned for a range predicate".into(),
                            ));
                        };
                        Box::new(HashLookupOp {
                            id: node.id,
                            index: idx,
                            key: key.clone(),
                            _adapter: PhantomData,
                        })
                    }
                    SelectPath::TreeLookup => {
                        let idx = self.find_ttree(t, attr_idx).ok_or_else(|| {
                            DbError::Catalog("planned tree index disappeared".into())
                        })?;
                        Box::new(TreeLookupOp {
                            id: node.id,
                            index: idx,
                            pred: pred.clone(),
                            _adapter: PhantomData,
                        })
                    }
                    SelectPath::SequentialScan => Box::new(SeqFilterOp {
                        id: node.id,
                        rel,
                        attr: attr_idx,
                        pred: pred.clone(),
                    }),
                }
            }
            PlanNodeKind::PostFilter {
                table,
                attr,
                pred,
                src_col,
            } => {
                let child = self.bind_plan(&node.children[0], tables, rels, desc, tickets)?;
                let rel = rels[position(table)?];
                let attr_idx = rel.schema().index_of(attr)?;
                Box::new(PostFilterOp {
                    id: node.id,
                    child,
                    rel,
                    attr: attr_idx,
                    pred: pred.clone(),
                    src_col: *src_col,
                    est_rows: node.est_rows.round() as usize,
                })
            }
            PlanNodeKind::Join {
                method,
                source_table,
                outer_attr,
                inner_table,
                inner_attr,
                src_col,
                ..
            } => {
                let child = self.bind_plan(&node.children[0], tables, rels, desc, tickets)?;
                let inner = match node.children.get(1) {
                    Some(n) => Some(self.bind_plan(n, tables, rels, desc, tickets)?),
                    None => None,
                };
                let orel = rels[position(source_table)?];
                let irel = rels[position(inner_table)?];
                let ot = self.table_id(source_table)?;
                let it = self.table_id(inner_table)?;
                let o_attr = orel.schema().index_of(outer_attr)?;
                let i_attr = irel.schema().index_of(inner_attr)?;
                let outer_tree = || {
                    self.find_ttree(ot, o_attr)
                        .ok_or_else(|| DbError::NoSuchIndex(format!("{source_table}.{outer_attr}")))
                };
                let inner_tree = || {
                    self.find_ttree(it, i_attr)
                        .ok_or_else(|| DbError::NoSuchIndex(format!("{inner_table}.{inner_attr}")))
                };
                // One uniform kernel per §3.3 method.
                let kernel: Box<dyn JoinKernel + 'b> = match *method {
                    JoinMethod::Precomputed => Box::new(PrecomputedKernel {
                        outer_rel: orel,
                        outer_attr: o_attr,
                    }),
                    JoinMethod::TreeMerge => Box::new(TreeMergeKernel {
                        outer_rel: orel,
                        outer_attr: o_attr,
                        outer_index: outer_tree()?,
                        inner_rel: irel,
                        inner_attr: i_attr,
                        inner_index: inner_tree()?,
                    }),
                    JoinMethod::TreeJoin => Box::new(TreeJoinKernel {
                        outer_rel: orel,
                        outer_attr: o_attr,
                        inner_index: inner_tree()?,
                    }),
                    JoinMethod::HashJoin | JoinMethod::SortMerge | JoinMethod::NestedLoops => {
                        Box::new(SidesKernel {
                            outer_rel: orel,
                            outer_attr: o_attr,
                            inner_rel: irel,
                            inner_attr: i_attr,
                            method: *method,
                        })
                    }
                };
                Box::new(JoinOp {
                    id: node.id,
                    child,
                    inner,
                    src_col: *src_col,
                    kernel,
                    est_rows: node.est_rows.round() as usize,
                })
            }
            PlanNodeKind::Project { .. } => {
                let child = self.bind_plan(&node.children[0], tables, rels, desc, tickets)?;
                Box::new(ProjectOp { id: node.id, child })
            }
            PlanNodeKind::Distinct => {
                let child = self.bind_plan(&node.children[0], tables, rels, desc, tickets)?;
                Box::new(DistinctOp {
                    id: node.id,
                    child,
                    desc: desc.clone(),
                    sources: rels.to_vec(),
                })
            }
            PlanNodeKind::Cached {
                fingerprint,
                canonical,
                filters,
                mode,
                ..
            } => match mode {
                CachedMode::Exact => {
                    let rows =
                        self.cache
                            .lock()
                            .peek(*fingerprint, canonical)
                            .ok_or_else(|| {
                                DbError::BadQuery("cached plan node lost its cache entry".into())
                            })?;
                    Box::new(CachedReadOp { id: node.id, rows })
                }
                CachedMode::Subsumed {
                    entry_fingerprint,
                    entry_canonical,
                    ..
                } => {
                    // The residual predicate is the node's own absorbed
                    // filter; the rows come from the wider entry.
                    let (table, attr, pred) = filters.first().ok_or_else(|| {
                        DbError::BadQuery("subsumed cache node carries no filter".into())
                    })?;
                    let rel = rels[position(table)?];
                    let attr_idx = rel.schema().index_of(attr)?;
                    let rows = self
                        .cache
                        .lock()
                        .peek(*entry_fingerprint, entry_canonical)
                        .ok_or_else(|| {
                            DbError::BadQuery("subsuming cache entry disappeared".into())
                        })?;
                    Box::new(RefilterOp {
                        id: node.id,
                        rows,
                        rel,
                        attr: attr_idx,
                        pred: pred.clone(),
                    })
                }
                CachedMode::Delta { .. } => {
                    let (table, attr, pred) = filters.first().ok_or_else(|| {
                        DbError::BadQuery("delta cache node carries no filter".into())
                    })?;
                    let rel = rels[position(table)?];
                    let attr_idx = rel.schema().index_of(attr)?;
                    let view = self
                        .cache
                        .lock()
                        .peek_delta(*fingerprint, canonical)
                        .ok_or_else(|| {
                            DbError::BadQuery("delta cache entry lost its chain".into())
                        })?;
                    Box::new(DeltaApplyOp {
                        id: node.id,
                        rows: view.rows,
                        deltas: view.deltas,
                        rel,
                        attr: attr_idx,
                        pred: pred.clone(),
                        cache: &self.cache,
                        fingerprint: *fingerprint,
                        canonical: canonical.clone(),
                        seq: view.seq,
                        covered: view.covered,
                    })
                }
            },
        };
        Ok(match tickets.get(&node.id) {
            Some(ticket) => Box::new(MemoizeOp {
                child: op,
                cache: &self.cache,
                ticket: ticket.clone(),
            }),
            None => op,
        })
    }

    /// Materialize chosen attributes of a temp-list column into owned
    /// values (the final output step; this is the only copy ever made).
    pub fn fetch(
        &self,
        table: &str,
        tids: &[TupleId],
        attrs: &[&str],
    ) -> Result<Vec<Vec<OwnedValue>>, DbError> {
        let t = self.table_id(table)?;
        let rel = self.table(t).rel.read();
        let idxs: Vec<usize> = attrs
            .iter()
            .map(|a| rel.schema().index_of(a))
            .collect::<Result<_, _>>()?;
        let mut out = Vec::with_capacity(tids.len());
        for tid in tids {
            let row: Vec<OwnedValue> = idxs
                .iter()
                .map(|i| rel.field(*tid, *i).map(|v| v.to_owned_value()))
                .collect::<Result<_, _>>()?;
            out.push(row);
        }
        Ok(out)
    }
}

/// A database after a crash: only the recovery components survive.
pub struct CrashedDatabase<S: StableStore> {
    recovery: RecoveryManager<S>,
}

impl<S: StableStore + Sync> CrashedDatabase<S> {
    /// The §2.4 restart: rebuild the catalog, load the named working-set
    /// partitions first (merging unapplied log updates on the fly), then
    /// the rest, and rebuild all indexes. Runs with the default execution
    /// config — parallel on a multicore host, serial on one core.
    pub fn recover(
        self,
        working_set: &[(&str, u32)],
    ) -> Result<(Database<S>, RecoveryReport), DbError> {
        self.recover_with(working_set, ExecConfig::default())
    }

    /// [`CrashedDatabase::recover`] with an explicit execution config
    /// (DESIGN.md §16). Image fetch + log merge, partition decode, and
    /// index rebuilds fan out on up to `exec.dop` pool workers; results
    /// are merged in plan order, so the recovered database (and any
    /// error) is bit-identical across `dop` values. `exec.dop <= 1`
    /// reproduces the serial path with no thread spawned.
    pub fn recover_with(
        self,
        working_set: &[(&str, u32)],
        exec: ExecConfig,
    ) -> Result<(Database<S>, RecoveryReport), DbError> {
        let mut timings = RecoveryTimings::default();
        let catalog_start = Instant::now();
        // Read both shadow slots; the freshest epoch that still decodes
        // wins. A torn slot is reported (and skipped) — restart only
        // fails if no slot survives.
        let mut best: Option<(u64, CatalogMeta)> = None;
        let mut slot_errors: Vec<String> = Vec::new();
        let mut slots_present = 0usize;
        for slot in CATALOG_SLOTS {
            let Some(bytes) = self.recovery.read_meta(slot)? else {
                continue;
            };
            slots_present += 1;
            if bytes.len() < 8 {
                slot_errors.push(format!("{slot}: catalog truncated before epoch header"));
                continue;
            }
            let mut e = [0u8; 8];
            e.copy_from_slice(&bytes[..8]);
            let epoch = u64::from_le_bytes(e);
            match decode_catalog(&bytes[8..]) {
                Ok(meta) => {
                    let fresher = match &best {
                        Some((have, _)) => epoch > *have,
                        None => true,
                    };
                    if fresher {
                        best = Some((epoch, meta));
                    }
                }
                Err(err) => slot_errors.push(format!("{slot}: {err}")),
            }
        }
        let (catalog_epoch, meta) = match best {
            Some(found) => found,
            None if slots_present == 0 => {
                return Err(DbError::Catalog("no catalog on disk copy".into()))
            }
            None => {
                return Err(DbError::Catalog(format!(
                    "no catalog slot survived: {}",
                    slot_errors.join("; ")
                )))
            }
        };
        let mut db = Database {
            tables: Vec::new(),
            indexes: Vec::new(),
            locks: Arc::new(LockManager::default()),
            recovery: self.recovery,
            exec,
            catalog_epoch,
            cache: Mutex::new(ReuseCache::default()),
        };
        for t in &meta.tables {
            db.tables.push(Table {
                name: t.name.clone(),
                rel: Arc::new(RwLock::new(Relation::new(
                    &t.name,
                    t.schema.clone(),
                    t.config,
                ))),
            });
        }
        // Resolve the working set to partition keys.
        let mut keys = Vec::with_capacity(working_set.len());
        for (name, part) in working_set {
            let t = db.table_id(name)?;
            keys.push(PartitionKey::new(t as u32, *part));
        }
        let plan = db.recovery.restart_plan(&keys)?;
        timings.catalog = catalog_start.elapsed();

        // The two §2.4 reload phases: working set strictly first, then
        // the background remainder. Each phase fans its image fetch + log
        // merge and its partition decode over the pool, then installs
        // serially in plan order (installation is a cheap pointer swap;
        // ordering keeps the report and any error deterministic).
        let mut loaded = Vec::with_capacity(plan.len());
        let ws_start = Instant::now();
        let images =
            db.recovery
                .fetch_phase(&plan.working_set, RestartPhase::WorkingSet, exec.dop)?;
        install_images(&mut db, images, exec, &mut loaded)?;
        timings.working_set = ws_start.elapsed();
        let bg_start = Instant::now();
        let images =
            db.recovery
                .fetch_phase(&plan.background, RestartPhase::Background, exec.dop)?;
        install_images(&mut db, images, exec, &mut loaded)?;
        timings.background = bg_start.elapsed();

        // Rebuild indexes from the reloaded relations: one bulk-build
        // task per index on the pool. Builds only read their relation
        // (snapshot under a read guard), so tasks are independent; merge
        // order is catalog order regardless of completion order.
        let rebuild_start = Instant::now();
        let rels: Vec<Arc<RwLock<Relation>>> = meta
            .indexes
            .iter()
            .map(|im| Arc::clone(&db.tables[im.table as usize].rel))
            .collect();
        let built: Vec<(AnyIndex, usize, Duration)> =
            run_tasks(meta.indexes.len(), exec.dop, |i| {
                let im = &meta.indexes[i];
                let start = Instant::now();
                let (index, entries) =
                    build_index_bulk(&rels[i], im.attr as usize, im.kind, im.param);
                (index, entries, start.elapsed())
            });
        let mut index_stats = Vec::with_capacity(built.len());
        for (im, (index, entries, elapsed)) in meta.indexes.iter().zip(built) {
            index_stats.push(IndexRebuildStat {
                name: im.name.clone(),
                entries,
                elapsed,
            });
            db.indexes.push(IndexDef {
                name: im.name.clone(),
                table: im.table as usize,
                attr: im.attr as usize,
                kind: im.kind,
                param: im.param,
                index,
            });
        }
        timings.index_rebuild = rebuild_start.elapsed();
        let rebuilt = db.indexes.len();
        Ok((
            db,
            RecoveryReport {
                loaded,
                indexes_rebuilt: rebuilt,
                timings,
                index_stats,
            },
        ))
    }
}

/// Install one restart phase's images into the recovered tables: decode
/// on the pool when the phase's byte volume warrants it, install serially
/// in plan order (preserving the serial path's first-error semantics).
fn install_images<S: StableStore>(
    db: &mut Database<S>,
    images: Vec<(PartitionKey, Vec<u8>, RestartPhase)>,
    exec: ExecConfig,
    loaded: &mut Vec<(String, u32, RestartPhase)>,
) -> Result<(), DbError> {
    let total_bytes: usize = images.iter().map(|(_, img, _)| img.len()).sum();
    let decoded: Vec<Result<Partition, mmdb_storage::StorageError>> =
        if images.len() >= 2 && exec.parallel_for(total_bytes) {
            run_tasks(images.len(), exec.dop, |i| {
                Partition::try_from_bytes(&images[i].1)
            })
        } else {
            images
                .iter()
                .map(|(_, img, _)| Partition::try_from_bytes(img))
                .collect()
        };
    for ((key, _, phase), part) in images.into_iter().zip(decoded) {
        let t = key.relation as usize;
        if t >= db.tables.len() {
            return Err(DbError::Catalog(format!(
                "image for unknown relation {}",
                key.relation
            )));
        }
        let part = part.map_err(|e| match e {
            // A torn/truncated image must fail loudly with the
            // partition's identity, never be redone as-is.
            mmdb_storage::StorageError::CorruptImage(_) => DbError::CorruptPartition {
                table: db.tables[t].name.clone(),
                partition: key.partition,
                source: e,
            },
            other => DbError::Storage(other),
        })?;
        db.tables[t]
            .rel
            .write()
            .install_partition(key.partition, part);
        loaded.push((db.tables[t].name.clone(), key.partition, phase));
    }
    Ok(())
}

impl<S: StableStore> VersionSource for Database<S> {
    fn table_versions(&self, table: &str) -> Option<Vec<u64>> {
        let t = self.table_id(table).ok()?;
        Some(self.table(t).rel.read().partition_versions().to_vec())
    }

    fn catalog_epoch(&self) -> u64 {
        self.catalog_epoch
    }
}

impl<S: StableStore> PlanCatalog for Database<S> {
    fn cardinality(&self, table: &str) -> Option<usize> {
        let t = self.table_id(table).ok()?;
        Some(self.table(t).rel.read().len())
    }

    fn resolve_attr(&self, table: &str, attr: &str) -> Option<AttrInfo> {
        let t = self.table_id(table).ok()?;
        let rel = self.table(t).rel.read();
        let idx = rel.schema().index_of(attr).ok()?;
        let ty = rel.schema().attr(idx).ok()?.ty;
        Some(AttrInfo {
            index: idx,
            pointer: ty == AttrType::Ptr || ty == AttrType::PtrList,
            avail: self.availability(t, idx),
        })
    }
}

#[cfg(feature = "check")]
impl<S: StableStore> Database<S> {
    /// Whole-database deep consistency check (the `mmdb-check` layer):
    /// deep structural validation of every index, exactly-once tuple
    /// reachability through each index, pointer-field liveness for
    /// precomputed joins, relation/partition reconciliation, lock-table
    /// discipline, and log-buffer LSN invariants.
    #[must_use]
    pub fn deep_check(&self) -> mmdb_check::Report {
        use mmdb_check::DeepCheck;
        let mut report = mmdb_check::Report::new();
        for def in &self.indexes {
            match &def.index {
                AnyIndex::TTree(t) => report.merge(t.deep_check()),
                AnyIndex::Hash(h) => report.merge(h.deep_check()),
            }
        }
        for (t, table) in self.tables.iter().enumerate() {
            let rel = table.rel.read();
            report.merge(mmdb_check::storage_checks::check_relation(&rel));
            let live: HashSet<TupleId> = rel.iter_tids().collect();
            for def in self.indexes.iter().filter(|d| d.table == t) {
                let entries: Vec<TupleId> = match &def.index {
                    AnyIndex::TTree(x) => {
                        x.raw_nodes().into_iter().flat_map(|n| n.entries).collect()
                    }
                    AnyIndex::Hash(x) => {
                        x.raw_chains().into_iter().flat_map(|c| c.entries).collect()
                    }
                };
                let mut counts: std::collections::HashMap<TupleId, usize> =
                    std::collections::HashMap::new();
                for tid in &entries {
                    *counts.entry(*tid).or_insert(0) += 1;
                }
                for (tid, n) in &counts {
                    if !live.contains(tid) {
                        report.fail(
                            "database",
                            format!("index {} tuple {tid:?}", def.name),
                            "reachability",
                            format!("index holds a tuple not live in {}", table.name),
                        );
                    } else if *n != 1 {
                        report.fail(
                            "database",
                            format!("index {} tuple {tid:?}", def.name),
                            "reachability",
                            format!("tuple reachable {n} times (must be exactly once)"),
                        );
                    }
                }
                for tid in &live {
                    if !counts.contains_key(tid) {
                        report.fail(
                            "database",
                            format!("index {} tuple {tid:?}", def.name),
                            "reachability",
                            format!("live tuple of {} missing from the index", table.name),
                        );
                    }
                }
            }
            // Precomputed-join pointer fields must resolve to a live tuple
            // in some table (§2.1: tuple pointers replace foreign keys).
            for (attr, a) in rel.schema().attrs().iter().enumerate() {
                if !matches!(a.ty, AttrType::Ptr | AttrType::PtrList) {
                    continue;
                }
                for tid in rel.iter_tids() {
                    let targets: Vec<TupleId> = match rel.field(tid, attr) {
                        Ok(mmdb_storage::Value::Ptr(p)) => p.into_iter().collect(),
                        Ok(mmdb_storage::Value::PtrList(l)) => l,
                        Ok(_) => Vec::new(),
                        Err(e) => {
                            report.fail(
                                "database",
                                format!("{} tuple {tid:?} attr {attr}", table.name),
                                "pointer-field",
                                format!("live tuple field unreadable: {e}"),
                            );
                            continue;
                        }
                    };
                    for target in targets {
                        let resolves = self
                            .tables
                            .iter()
                            .any(|t| t.rel.read().resolve(target).is_ok());
                        if !resolves {
                            report.fail(
                                "database",
                                format!("{} tuple {tid:?} attr {attr}", table.name),
                                "pointer-field",
                                format!("pointer {target:?} does not resolve to a live tuple"),
                            );
                        }
                    }
                }
            }
        }
        report.merge(mmdb_check::lock_checks::check_lock_table(
            &self.locks.snapshot(),
        ));
        report.merge(mmdb_check::log_checks::check_log_buffer(
            self.recovery.log_buffer(),
        ));
        report.merge(mmdb_check::cache_checks::check_cache(
            &self.cache.lock(),
            self,
        ));
        report
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use mmdb_storage::KeyValue;

    fn emp_schema() -> Schema {
        Schema::of(&[("name", AttrType::Str), ("age", AttrType::Int)])
    }

    fn seeded_db() -> (Database, Vec<TupleId>) {
        let mut db = Database::in_memory();
        db.create_table("emp", emp_schema()).unwrap();
        db.create_index("emp_age", "emp", "age", IndexKind::TTree)
            .unwrap();
        db.create_index("emp_name", "emp", "name", IndexKind::Hash)
            .unwrap();
        let mut txn = db.begin();
        for (n, a) in [
            ("Dave", 24i64),
            ("Suzan", 27),
            ("Yaman", 54),
            ("Jane", 47),
            ("Cindy", 22),
            ("Old", 66),
        ] {
            db.insert(&mut txn, "emp", vec![n.into(), a.into()])
                .unwrap();
        }
        let tids = db.commit(txn).unwrap();
        (db, tids)
    }

    #[test]
    fn ddl_dml_select_roundtrip() {
        let (db, tids) = seeded_db();
        assert_eq!(db.len("emp").unwrap(), 6);
        assert_eq!(tids.len(), 6);
        db.validate_indexes().unwrap();
        // Tree range (Query 1 of the paper).
        let old = db
            .select("emp", "age", &Predicate::greater(KeyValue::Int(65)))
            .unwrap();
        assert_eq!(old.len(), 1);
        // Hash exact match.
        let plan = db
            .query("emp")
            .filter("name", Predicate::Eq(KeyValue::from("Jane")))
            .explain()
            .unwrap();
        assert!(plan.contains("via HashLookup"), "{plan}");
        let jane = db
            .select("emp", "name", &Predicate::Eq(KeyValue::from("Jane")))
            .unwrap();
        assert_eq!(jane.len(), 1);
        let rows = db.fetch("emp", &jane.column(0), &["name", "age"]).unwrap();
        assert_eq!(rows[0], vec![OwnedValue::from("Jane"), OwnedValue::Int(47)]);
    }

    #[test]
    fn insert_requires_an_index() {
        let mut db = Database::in_memory();
        db.create_table("t", emp_schema()).unwrap();
        let mut txn = db.begin();
        let err = db
            .insert(&mut txn, "t", vec!["x".into(), OwnedValue::Int(1)])
            .unwrap_err();
        assert!(matches!(err, DbError::MissingIndex(_)));
        db.abort(txn);
    }

    #[test]
    fn abort_discards_everything() {
        let (mut db, _) = seeded_db();
        let mut txn = db.begin();
        db.insert(&mut txn, "emp", vec!["Ghost".into(), OwnedValue::Int(1)])
            .unwrap();
        db.abort(txn);
        assert_eq!(db.len("emp").unwrap(), 6);
        let ghost = db
            .select("emp", "name", &Predicate::Eq(KeyValue::from("Ghost")))
            .unwrap();
        assert!(ghost.is_empty());
    }

    #[test]
    fn update_maintains_indexes() {
        let (mut db, tids) = seeded_db();
        let mut txn = db.begin();
        db.update(&mut txn, "emp", tids[0], "age", OwnedValue::Int(99))
            .unwrap();
        db.commit(txn).unwrap();
        db.validate_indexes().unwrap();
        let hits = db
            .select("emp", "age", &Predicate::Eq(KeyValue::Int(99)))
            .unwrap();
        assert_eq!(hits.len(), 1);
        assert!(db
            .select("emp", "age", &Predicate::Eq(KeyValue::Int(24)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn delete_maintains_indexes() {
        let (mut db, tids) = seeded_db();
        let mut txn = db.begin();
        db.delete(&mut txn, "emp", tids[2]).unwrap();
        db.commit(txn).unwrap();
        db.validate_indexes().unwrap();
        assert_eq!(db.len("emp").unwrap(), 5);
        assert!(db
            .select("emp", "age", &Predicate::Eq(KeyValue::Int(54)))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn double_delete_in_one_txn_rejected() {
        let (mut db, tids) = seeded_db();
        let mut txn = db.begin();
        db.delete(&mut txn, "emp", tids[0]).unwrap();
        db.delete(&mut txn, "emp", tids[0]).unwrap();
        assert!(db.commit(txn).is_err() || db.len("emp").unwrap() == 5);
    }

    #[test]
    fn crash_and_recover_committed_state() {
        let (mut db, tids) = seeded_db();
        // An extra committed update.
        let mut txn = db.begin();
        db.update(&mut txn, "emp", tids[4], "age", OwnedValue::Int(23))
            .unwrap();
        db.commit(txn).unwrap();
        // And an uncommitted one that must vanish.
        let mut txn = db.begin();
        db.insert(&mut txn, "emp", vec!["Doomed".into(), OwnedValue::Int(1)])
            .unwrap();
        // (never committed)
        let crashed = db.crash();
        let (db2, report) = crashed.recover(&[("emp", 0)]).unwrap();
        assert_eq!(db2.len("emp").unwrap(), 6);
        assert_eq!(report.indexes_rebuilt, 2);
        assert_eq!(report.loaded[0].2, RestartPhase::WorkingSet);
        db2.validate_indexes().unwrap();
        let cindy = db2
            .select("emp", "name", &Predicate::Eq(KeyValue::from("Cindy")))
            .unwrap();
        let rows = db2.fetch("emp", &cindy.column(0), &["age"]).unwrap();
        assert_eq!(rows[0][0], OwnedValue::Int(23), "committed update survives");
        assert!(db2
            .select("emp", "name", &Predicate::Eq(KeyValue::from("Doomed")))
            .unwrap()
            .is_empty());
    }

    #[test]
    fn join_planning_and_execution() {
        let mut db = Database::in_memory();
        db.create_table(
            "dept",
            Schema::of(&[("dname", AttrType::Str), ("did", AttrType::Int)]),
        )
        .unwrap();
        db.create_index("dept_id", "dept", "did", IndexKind::TTree)
            .unwrap();
        db.create_table(
            "emp2",
            Schema::of(&[("ename", AttrType::Str), ("did", AttrType::Int)]),
        )
        .unwrap();
        db.create_index("emp2_did", "emp2", "did", IndexKind::TTree)
            .unwrap();
        let mut txn = db.begin();
        for (d, i) in [("Toy", 1i64), ("Shoe", 2), ("Linen", 3)] {
            db.insert(&mut txn, "dept", vec![d.into(), i.into()])
                .unwrap();
        }
        for (e, i) in [("Dave", 1i64), ("Cindy", 2), ("Suzan", 1), ("Jane", 9)] {
            db.insert(&mut txn, "emp2", vec![e.into(), i.into()])
                .unwrap();
        }
        db.commit(txn).unwrap();
        // Both T-Trees exist → Tree Merge.
        let join = || db.query("emp2").join("did", "dept", "did");
        let out = join().run().unwrap();
        assert_eq!(out.profile.joins()[0].method, Some(JoinMethod::TreeMerge));
        assert_eq!(out.rows.len(), 3, "Dave, Cindy, Suzan match; Jane does not");
        // Every method agrees.
        for m in [
            JoinMethod::HashJoin,
            JoinMethod::SortMerge,
            JoinMethod::TreeJoin,
            JoinMethod::NestedLoops,
        ] {
            let alt = join().force_join_method(m).run().unwrap();
            assert_eq!(alt.rows.len(), 3, "{m:?}");
        }
    }

    #[test]
    fn precomputed_join_via_fk_pointer() {
        let mut db = Database::in_memory();
        db.create_table("dept", Schema::of(&[("dname", AttrType::Str)]))
            .unwrap();
        db.create_index("dept_name", "dept", "dname", IndexKind::Hash)
            .unwrap();
        db.create_table(
            "emp3",
            Schema::of(&[("ename", AttrType::Str), ("dept", AttrType::Ptr)]),
        )
        .unwrap();
        db.create_index("emp3_name", "emp3", "ename", IndexKind::Hash)
            .unwrap();
        let mut txn = db.begin();
        db.insert(&mut txn, "dept", vec!["Toy".into()]).unwrap();
        let toy = db.commit(txn).unwrap()[0];
        let mut txn = db.begin();
        db.insert(
            &mut txn,
            "emp3",
            vec!["Dave".into(), OwnedValue::Ptr(Some(toy))],
        )
        .unwrap();
        db.commit(txn).unwrap();
        let out = db
            .query("emp3")
            .join("dept", "dept", "dname")
            .project(&[("dept", "dname")])
            .run()
            .unwrap();
        assert_eq!(out.profile.joins()[0].method, Some(JoinMethod::Precomputed));
        assert_eq!(out.rows, vec![vec![OwnedValue::from("Toy")]]);
    }

    /// The whole-database deep check stays clean across tables, both
    /// index kinds, precomputed-join pointers, and update/delete churn.
    #[cfg(feature = "check")]
    #[test]
    fn deep_check_is_clean_through_churn() {
        let mut db = Database::in_memory();
        db.create_table("dept", Schema::of(&[("dname", AttrType::Str)]))
            .unwrap();
        db.create_index("dept_name", "dept", "dname", IndexKind::Hash)
            .unwrap();
        db.create_table(
            "emp",
            Schema::of(&[
                ("ename", AttrType::Str),
                ("age", AttrType::Int),
                ("dept", AttrType::Ptr),
            ]),
        )
        .unwrap();
        db.create_index("emp_age", "emp", "age", IndexKind::TTree)
            .unwrap();
        db.create_index("emp_name", "emp", "ename", IndexKind::Hash)
            .unwrap();
        let mut txn = db.begin();
        db.insert(&mut txn, "dept", vec!["Toy".into()]).unwrap();
        let toy = db.commit(txn).unwrap()[0];
        db.deep_check().assert_ok();
        let mut emps = Vec::new();
        for i in 0..40i64 {
            let mut txn = db.begin();
            db.insert(
                &mut txn,
                "emp",
                vec![
                    format!("e{i}").into(),
                    OwnedValue::Int(i % 7),
                    OwnedValue::Ptr(Some(toy)),
                ],
            )
            .unwrap();
            emps.extend(db.commit(txn).unwrap());
        }
        db.deep_check().assert_ok();
        for (i, tid) in emps.iter().enumerate() {
            let mut txn = db.begin();
            if i % 3 == 0 {
                db.delete(&mut txn, "emp", *tid).unwrap();
            } else {
                db.update(&mut txn, "emp", *tid, "age", OwnedValue::Int(99))
                    .unwrap();
            }
            db.commit(txn).unwrap();
            db.deep_check().assert_ok();
        }
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut db = Database::in_memory();
        db.create_table("t", emp_schema()).unwrap();
        assert!(matches!(
            db.create_table("t", emp_schema()),
            Err(DbError::Duplicate(_))
        ));
        db.create_index("i", "t", "age", IndexKind::TTree).unwrap();
        assert!(matches!(
            db.create_index("i", "t", "name", IndexKind::Hash),
            Err(DbError::Duplicate(_))
        ));
    }

    #[test]
    fn checkpoint_truncates_the_log_and_survives_a_crash() {
        let (mut db, _) = seeded_db();
        let report = db.checkpoint().unwrap();
        assert!(report.images_written >= 1);
        assert!(report.records_truncated >= 1);
        // Everything committed was subsumed by checkpoint images: the log
        // device finds nothing left to pull or flush.
        db.run_log_device().unwrap();
        assert_eq!(db.log_device_counters(), (0, 0));
        // A second checkpoint has no dirty partitions to write.
        let again = db.checkpoint().unwrap();
        assert_eq!(again.images_written, 0);
        // And the checkpoint alone is enough to restart from.
        let (db2, _) = db.crash().recover(&[("emp", 0)]).unwrap();
        assert_eq!(db2.len("emp").unwrap(), 6);
        db2.validate_indexes().unwrap();
    }

    #[test]
    fn fuzzy_checkpoint_interleaved_with_commits_recovers_exactly() {
        let (mut db, tids) = seeded_db();
        let mut ckpt = db.checkpoint_begin();
        assert!(ckpt.remaining() >= 1);
        // One step, then live updates land mid-checkpoint.
        ckpt.step(&mut db).unwrap();
        let mut txn = db.begin();
        db.update(&mut txn, "emp", tids[0], "age", OwnedValue::Int(80))
            .unwrap();
        db.insert(&mut txn, "emp", vec!["Mid".into(), OwnedValue::Int(33)])
            .unwrap();
        db.commit(txn).unwrap();
        ckpt.run(&mut db).unwrap();
        // The mid-checkpoint commit re-dirtied its partition.
        let trailing = db.checkpoint_begin();
        assert!(trailing.remaining() >= 1, "re-dirtied partition pending");
        let (db2, _) = db.crash().recover(&[("emp", 0)]).unwrap();
        assert_eq!(db2.len("emp").unwrap(), 7);
        db2.validate_indexes().unwrap();
        let hits = db2
            .select("emp", "age", &Predicate::Eq(KeyValue::Int(80)))
            .unwrap();
        assert_eq!(hits.len(), 1, "mid-checkpoint update survives");
        assert_eq!(
            db2.select("emp", "name", &Predicate::Eq(KeyValue::from("Mid")))
                .unwrap()
                .len(),
            1,
            "mid-checkpoint insert survives"
        );
    }

    #[test]
    fn log_device_propagates_to_disk() {
        let (mut db, _) = seeded_db();
        assert_eq!(db.log_device_counters(), (0, 0));
        db.run_log_device().unwrap();
        let (pulled, flushed) = db.log_device_counters();
        assert!(pulled > 0);
        assert!(flushed > 0);
    }
}
